"""Public-coin uniformity protocols: smooth batches, Levin work-investment, warmup."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smpinfer.dist import paninski, PaninskiParam, uniform
from smpinfer.public_uniformity import (
    DEFAULT_LEVIN_CONSTANTS,
    LevinConstants,
    LevinSchedule,
    SmoothSchedule,
    levin_protocol,
    levin_threshold,
    smooth_protocol,
    warmup_protocol,
)
from smpinfer.smp import public_coins


def far_instance(k, eps, seed=0):
    rng = np.random.default_rng(seed)
    theta = np.where(rng.random(k // 2) < 0.5, 1, -1)
    return paninski(PaninskiParam(k=k, eps=eps, theta=theta))


class TestSmoothSchedule:
    def test_fields(self):
        s = SmoothSchedule.from_params(16, 2, 0.3)
        assert s.L == 4 and s.m == 12
        assert s.gamma == pytest.approx(2 * 0.3 / 4.0)
        assert s.delta == pytest.approx(1 / 72)
        assert s.total_players == 12 * s.N

    def test_requires_L_le_k(self):
        # 2^ell >= k caps L at k: every symbol is its own part, and the
        # protocol runs as a collision test on [k].
        for k, ell in ((4, 3), (10, 4)):
            sched = SmoothSchedule.from_params(k, ell, 0.3)
            assert sched.L == k
            n, far = sched.total_players, far_instance(k, 0.3, seed=2)
            for t in range(10):
                v = smooth_protocol(uniform(k), ell, 0.3, n, public_coins(t), np.random.default_rng(t))
                assert v.decision == "accept_uniform"
                v = smooth_protocol(far, ell, 0.3, n, public_coins(t), np.random.default_rng(50 + t))
                assert v.decision == "reject"


class TestSmoothProtocol:
    def test_both_sides_quick(self):
        k, ell, eps = 16, 2, 0.3
        n = SmoothSchedule.from_params(k, ell, eps).total_players
        far = far_instance(k, eps, seed=1)
        ok_null = ok_far = 0
        for t in range(20):
            rng = np.random.default_rng(100 + t)
            ok_null += smooth_protocol(uniform(k), ell, eps, n, public_coins(t), rng).decision == "accept_uniform"
            rng = np.random.default_rng(200 + t)
            ok_far += smooth_protocol(far, ell, eps, n, public_coins(t), rng).decision == "reject"
        assert ok_null >= 15 and ok_far >= 15

    @pytest.mark.parametrize("k, ell", [(10, 2), (12, 3), (20, 3)])
    def test_non_divisible_alphabet_uses_induced_null(self, k, ell):
        # k not divisible by L: the null is the flattened uniform, so uniform
        # still passes despite unequal part sizes, and far instances fail.
        eps = 0.3
        n = SmoothSchedule.from_params(k, ell, eps).total_players
        far = far_instance(k, eps, seed=4)
        ok_null = sum(
            smooth_protocol(uniform(k), ell, eps, n, public_coins(t), np.random.default_rng(t)).decision
            == "accept_uniform"
            for t in range(60)
        )
        ok_far = sum(
            smooth_protocol(far, ell, eps, n, public_coins(t), np.random.default_rng(1000 + t)).decision
            == "reject"
            for t in range(60)
        )
        assert ok_null >= 44 and ok_far >= 44

    def test_undersized_n(self):
        with pytest.raises(ValueError):
            smooth_protocol(uniform(16), 2, 0.3, 10, public_coins(0), np.random.default_rng(0))

    def test_public_bits_accounted(self):
        k, ell, eps = 16, 2, 0.3
        n = SmoothSchedule.from_params(k, ell, eps).total_players
        coins = public_coins(0)
        smooth_protocol(uniform(k), ell, eps, n, coins, np.random.default_rng(0))
        assert coins.bits_used == 12 * k * 2  # 12 partitions into 4 parts


class TestWarmup:
    def test_both_sides(self):
        k, eps = 8, 0.4
        m = math.ceil(5.0 / eps)
        n = m * math.ceil(13.0 * k * math.log(10.0 * m) / eps**2)
        far = far_instance(k, eps, seed=3)
        ok_null = sum(
            warmup_protocol(uniform(k), eps, n, public_coins(t), np.random.default_rng(t)).decision
            == "accept_uniform"
            for t in range(10)
        )
        ok_far = sum(
            warmup_protocol(far, eps, n, public_coins(t), np.random.default_rng(50 + t)).decision
            == "reject"
            for t in range(10)
        )
        assert ok_null >= 7 and ok_far >= 7

    def test_undersized(self):
        with pytest.raises(ValueError):
            warmup_protocol(uniform(8), 0.4, 5, public_coins(0), np.random.default_rng(0))


class TestLevinSchedule:
    def test_structure(self):
        sched = LevinSchedule.from_params(16, 2, 0.3)
        assert sched.L == math.ceil(math.log2(2 / 0.3)) == 3
        assert sched.s == 3
        assert sched.eps_j == tuple(2.0**-j / 8 for j in (1, 2, 3))
        assert all(m >= 1 for m in sched.m_j)
        assert sched.total_players == sum(
            m * (a + b) for m, a, b in zip(sched.m_j, sched.a_j, sched.b_j)
        )

    def test_delta_budget_bound(self):
        # [PAPER] sum_j m_j delta_j stays below 1/40 for every constructed schedule.
        for k in (8, 16, 64, 256):
            for ell in (1, 2, 3):
                for eps in (0.1, 0.3, 0.5):
                    assert LevinSchedule.from_params(k, ell, eps).delta_budget < 1 / 40

    def test_ell1_has_no_stage2(self):
        sched = LevinSchedule.from_params(16, 1, 0.3)
        assert sched.s == 1 and all(b == 0 for b in sched.b_j)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            LevinSchedule.from_params(16, 2, 0.0)

    def test_constants_roundtrip(self):
        c = LevinConstants(c_m=0.2, c1=0.1, c2=0.3, c3=0.02, z=5.0)
        assert LevinConstants.from_dict(c.to_dict()) == c


class TestLevinThreshold:
    def test_low_mean_not_applicable(self):
        assert levin_threshold(np.full(100, 0.01), 0.3) is None

    def test_constant_high_profile(self):
        # q == 1 everywhere, eps = 0.3: scale 1 already exceeds its threshold.
        assert levin_threshold(np.ones(50), 0.3) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            levin_threshold(np.array([0.5, 1.5]), 0.3)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_exists_when_mean_exceeds_eps(self, seed):
        # [PAPER] a valid scale exists whenever E[q] > eps.
        rng = np.random.default_rng(seed)
        eps = 0.25
        q = rng.random(64)
        if q.mean() <= eps:
            q = np.minimum(1.0, q + eps)  # push the mean above eps
        j = levin_threshold(q, eps)
        L = math.ceil(math.log2(2 / eps))
        assert j is not None and 1 <= j <= L


class TestLevinProtocol:
    def test_both_sides_quick(self):
        k, ell, eps = 16, 2, 0.3
        far = far_instance(k, eps, seed=5)
        ok_null = sum(
            levin_protocol(uniform(k), ell, eps, public_coins(t), np.random.default_rng(t)).decision
            == "accept_uniform"
            for t in range(15)
        )
        ok_far = sum(
            levin_protocol(far, ell, eps, public_coins(t), np.random.default_rng(70 + t)).decision
            == "reject"
            for t in range(15)
        )
        assert ok_null >= 12 and ok_far >= 12

    def test_subset_covers_alphabet(self):
        # 2^ell - 1 >= k caps s at k: p(S) = 1 is certain, so stage 1 is
        # skipped and spends no players, and stage 2 is a collision test on [k].
        for k, ell in ((4, 3), (10, 4)):
            sched = LevinSchedule.from_params(k, ell, 0.3)
            assert sched.s == k and set(sched.a_j) == {0}
            assert sched.total_players == sum(m * b for m, b in zip(sched.m_j, sched.b_j))
            far = far_instance(k, 0.3, seed=2)
            ok_null = ok_far = 0
            for t in range(15):
                v = levin_protocol(uniform(k), ell, 0.3, public_coins(t), np.random.default_rng(t))
                assert v.diagnostics["players_used"] == sched.total_players
                ok_null += v.decision == "accept_uniform"
                v = levin_protocol(far, ell, 0.3, public_coins(t), np.random.default_rng(50 + t))
                first = v.diagnostics["first_failure"]
                assert first is None or first[0] == "stage2"
                ok_far += v.decision == "reject"
            assert ok_null >= 10 and ok_far >= 10

    def test_ell1_path(self):
        k, ell, eps = 16, 1, 0.3
        v = levin_protocol(uniform(k), ell, eps, public_coins(0), np.random.default_rng(0))
        assert v.decision in ("accept_uniform", "reject")
        assert v.diagnostics["players_used"] == v.diagnostics["scheduled_players"]

    def test_scale_shrinks_players(self):
        k, ell, eps = 16, 2, 0.3
        half = LevinSchedule.from_params(k, ell, eps).total_players // 2
        v1 = levin_protocol(uniform(k), ell, eps, public_coins(1), np.random.default_rng(1))
        v2 = levin_protocol(
            uniform(k), ell, eps, public_coins(1), np.random.default_rng(1), n=half
        )
        assert v2.diagnostics["players_used"] < v1.diagnostics["players_used"]

    def test_deterministic_given_seeds(self):
        k, ell, eps = 16, 2, 0.3
        a = levin_protocol(uniform(k), ell, eps, public_coins(9), np.random.default_rng(9))
        b = levin_protocol(uniform(k), ell, eps, public_coins(9), np.random.default_rng(9))
        assert a.decision == b.decision
        assert a.diagnostics["players_used"] == b.diagnostics["players_used"]
