"""Centralized referee subroutines: collision tester, learner."""

import math

import numpy as np
import pytest

from smpinfer.dist import Pmf, paninski, PaninskiParam, uniform
from smpinfer.testers import (
    L2TestParams,
    centralized_n_req,
    centralized_uniformity_test,
    collision_statistic,
    l2_statistics,
    l2_uniformity_test,
    learn_empirical,
)


def counts_of(samples, k):
    return np.bincount(samples, minlength=k)


class TestCollisionStatistic:
    def test_hand_computed(self):
        # [DERIVED: hand computation] samples [0,0,1]: one colliding pair of three.
        assert collision_statistic(np.array([2, 1])) == (1, 3)
        # four equal samples: C(4,2) collisions.
        assert collision_statistic(np.array([0, 0, 4])) == (6, 6)
        # all distinct: none.
        assert collision_statistic(np.array([1, 1, 1])) == (0, 3)


class TestL2Params:
    def test_n_req_formula(self):
        p = L2TestParams(L=4, gamma=0.5, delta=0.1, c_l2=6.0)
        assert p.n_req == math.ceil(6.0 * 2 / 0.25 * math.log(10))

    def test_validation(self):
        with pytest.raises(ValueError):
            L2TestParams(L=4, gamma=1.5, delta=0.1)
        with pytest.raises(ValueError):
            L2TestParams(L=4, gamma=0.5, delta=0.0)


class TestL2Test:
    def test_undersized_input(self):
        params = L2TestParams(L=4, gamma=0.3, delta=0.1)
        with pytest.raises(ValueError):
            l2_uniformity_test(np.array([3, 0, 0, 0]), params)

    def test_accepts_uniform_rejects_point_mass(self):
        params = L2TestParams(L=8, gamma=0.5, delta=0.05)
        rng = np.random.default_rng(0)
        n = params.n_req
        assert l2_uniformity_test(rng.multinomial(n, np.full(8, 1 / 8)), params) == "accept"
        assert l2_uniformity_test(counts_of(np.zeros(n, dtype=int), 8), params) == "reject"

    def test_near_uniform_null_shift(self):
        # A non-uniform null: its own samples pass, samples gamma/sqrt(L)-far from it do not.
        null = Pmf(k=3, probs=np.array([0.4, 0.3, 0.3]))
        params = L2TestParams(L=3, gamma=0.4, delta=0.05)
        rng = np.random.default_rng(1)
        n = max(params.n_req, 4000)
        assert l2_uniformity_test(rng.multinomial(n, null.probs), params, null=null) == "accept"
        far = np.array([0.1, 0.45, 0.45])  # ||far - null||^2 = 0.135 >= gamma^2/L
        assert l2_uniformity_test(rng.multinomial(n, far), params, null=null) == "reject"

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 7, 16, 33, 100, 4096])
    def test_row_statistics_are_the_one_row_formula(self, L):
        # Row by row, l2_statistics is T/pairs - 2<null, counts>/n + ||null||^2 as a
        # scalar computation gives it, bit for bit, for the uniform and a skewed null.
        rng = np.random.default_rng(L)
        params = L2TestParams(L=L, gamma=0.5, delta=0.05, c_l2=0.01)
        skewed = rng.random(L) * (rng.random(L) < 0.8) + 1e-3
        skewed /= skewed.sum()
        for null in (None, skewed):
            null_p = np.full(L, 1.0 / L) if null is None else null
            counts = rng.multinomial(rng.integers(10**3, 10**7, size=12), null_p)
            expected = []
            for row in counts:
                T, pairs = collision_statistic(row)
                expected.append(T / pairs - 2.0 * float(null_p @ row) / int(row.sum()) + float(null_p @ null_p))
            assert l2_statistics(counts, params, null).tobytes() == np.array(expected).tobytes()

    def test_row_statistics_check_every_row(self):
        params = L2TestParams(L=2, gamma=0.5, delta=0.05)
        counts = np.array([[params.n_req, 0], [params.n_req - 1, 0]])
        with pytest.raises(ValueError, match=f"got {params.n_req - 1}"):
            l2_statistics(counts, params)


class TestLearner:
    def test_counts(self):
        p = learn_empirical(np.array([2, 1, 0, 1]))
        assert np.allclose(p.probs, [0.5, 0.25, 0.0, 0.25])

    def test_empty(self):
        with pytest.raises(ValueError):
            learn_empirical(np.zeros(4, dtype=int))

    def test_consistency(self):
        truth = Pmf(k=5, probs=np.array([0.4, 0.25, 0.2, 0.1, 0.05]))
        est = learn_empirical(np.random.default_rng(3).multinomial(100_000, truth.probs))
        assert np.max(np.abs(est.probs - truth.probs)) < 0.01


class TestCentralizedUniformity:
    def test_n_req(self):
        assert centralized_n_req(16, 0.3, c=3.0) == math.ceil(3.0 * 4 / 0.09)

    def test_undersized(self):
        with pytest.raises(ValueError):
            centralized_uniformity_test(counts_of(np.zeros(3, dtype=int), 16), 0.3)

    def test_k2_reduces_to_bias(self):
        rng = np.random.default_rng(4)
        n = centralized_n_req(2, 0.3)
        fair = rng.multinomial(max(n, 2000), [0.5, 0.5])
        skew = rng.multinomial(max(n, 2000), [0.9, 0.1])
        assert centralized_uniformity_test(fair, 0.3) == "accept"
        assert centralized_uniformity_test(skew, 0.3) == "reject"

    def test_collision_branch_error_rates(self):
        k, eps = 16, 0.3
        rng = np.random.default_rng(5)
        n = centralized_n_req(k, eps)
        far = paninski(PaninskiParam(k=k, eps=eps, theta=np.resize([1, -1], k // 2)))
        ok_null = sum(
            centralized_uniformity_test(rng.multinomial(n, uniform(k).probs), eps) == "accept"
            for _ in range(60)
        )
        ok_far = sum(
            centralized_uniformity_test(rng.multinomial(n, far.probs), eps) == "reject"
            for _ in range(60)
        )
        assert ok_null >= 40 and ok_far >= 40  # error <= 1/3 with margin
