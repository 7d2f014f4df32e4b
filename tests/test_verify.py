"""Brute-force oracles: moments, mixture identity, H-matrices, enumeration laws."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smpinfer.dist import Partition, Pmf, flatten, paninski, PaninskiParam, tv, uniform
from smpinfer.smp import indicator, public_coins
from smpinfer.verify import (
    Deviation,
    HMatrix,
    balanced_assignments,
    batch_law_enumeration,
    chi2_mixture_identity_check,
    flatten_Z,
    flattening_anticoncentration,
    frobenius_sq,
    h_matrix,
    levin_claim_enumeration,
    paninski_message_tv_bound,
    rho_enumeration,
    subgaussian_claim_check,
    var_Zr_closed_form,
)


def random_deviation(k, rng):
    d = rng.normal(size=k)
    return Deviation(k=k, delta=d - d.mean())


class TestDeviation:
    def test_zero_sum_enforced(self):
        with pytest.raises(ValueError):
            Deviation(k=2, delta=np.array([0.5, 0.4]))

    def test_norm(self):
        d = Deviation(k=2, delta=np.array([0.3, -0.3]))
        assert d.norm2 == pytest.approx(math.sqrt(0.18), abs=1e-15)


class TestFlattening:
    def test_flatten_Z_sums_to_zero(self):
        rng = np.random.default_rng(0)
        dev = random_deviation(8, rng)
        part = Partition(k=8, L=4, assign=np.array([0, 1, 2, 3, 0, 1, 2, 3]))
        Z = flatten_Z(dev, part)
        assert abs(Z.sum()) < 1e-12

    def test_requires_exact_balance(self):
        dev = random_deviation(4, np.random.default_rng(1))
        part = Partition(k=4, L=2, assign=np.array([0, 0, 0, 1]))
        with pytest.raises(ValueError):
            flatten_Z(dev, part)

    def test_balanced_assignment_count(self):
        # [DERIVED] labeled balanced assignments of [k] into L parts = k!/(g!)^L.
        assert len(list(balanced_assignments(4, 2))) == 6
        assert len(list(balanced_assignments(6, 3))) == 90
        assert len(list(balanced_assignments(6, 2))) == 20

    def test_var_closed_form_vs_enumeration(self):
        # Exhaustive check of the variance formula on small alphabets.
        rng = np.random.default_rng(2)
        for k, L in ((4, 2), (6, 2), (6, 3), (8, 2), (8, 4)):
            dev = random_deviation(k, rng)
            Zr = np.array([flatten_Z(dev, Partition(k=k, L=L, assign=a))[0]
                           for a in balanced_assignments(k, L)])
            assert abs(Zr.mean()) < 1e-12  # E[Z_r] = 0 exactly
            assert Zr.var() == pytest.approx(var_Zr_closed_form(dev, L, k), abs=1e-12)

    def test_anticoncentration_mc(self):
        rng = np.random.default_rng(3)
        k = 16
        p = paninski(PaninskiParam(k=k, eps=0.3, theta=np.resize([1, -1], k // 2)))
        dev = Deviation(k=k, delta=p.probs - uniform(k).probs)
        out = flattening_anticoncentration(dev, 4, 20_000, rng)
        assert out["prob"] >= 0.05
        assert np.max(np.abs(out["mean_Zr"])) < 0.01
        assert out["fourth_ratio"] <= 50.0

    @pytest.mark.parametrize("L", [2, 4])
    @pytest.mark.parametrize("k", [8, 12, 16])
    def test_pair_preserving_map_hides_every_theta(self, k, L):
        # [DERIVED] a map that keeps each Paninski pair (2i, 2i+1) in one part
        # gives that part p(2i) + p(2i+1) = 2/k whatever theta_i is, so it
        # flattens every paninski_theta to flatten(u): a private-coin smooth with
        # this map fails at every n.  A public random balanced partition splits
        # some pair, so some theta shows through it.
        fixed = Partition(k, L, np.repeat(np.arange(k // 2) % L, 2))
        drawn = public_coins(8).balanced_partition(k, L)
        gaps = {"fixed": 0.0, "drawn": 0.0}
        for theta in itertools.product((-1, 1), repeat=k // 2):
            p = paninski(PaninskiParam(k=k, eps=0.3, theta=np.array(theta)))
            for name, part in (("fixed", fixed), ("drawn", drawn)):
                gap = np.max(np.abs(flatten(p, part).probs - flatten(uniform(k), part).probs))
                gaps[name] = max(gaps[name], float(gap))
        assert gaps["fixed"] <= 1e-12
        assert gaps["drawn"] > 1e-6


class TestChi2Mixture:
    def test_trivial_q_equals_p(self):
        P = [np.array([0.5, 0.5])] * 2
        lhs, rhs, diff = chi2_mixture_identity_check(P, [P], [1.0])
        assert lhs == pytest.approx(0.0, abs=1e-15)
        assert diff < 1e-15

    def test_support_violation(self):
        P = [np.array([1.0, 0.0])]
        Q = [[np.array([0.5, 0.5])]]
        with pytest.raises(ZeroDivisionError):
            chi2_mixture_identity_check(P, Q, [1.0])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_identity_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n, M, Z = 3, 2, 2
        P = [rng.dirichlet(np.ones(M) * 4) for _ in range(n)]
        Q = [[rng.dirichlet(np.ones(M) * 4) for _ in range(n)] for _ in range(Z)]
        w = rng.dirichlet(np.ones(Z))
        _, _, diff = chi2_mixture_identity_check(P, Q, w)
        assert diff < 1e-9


class TestHMatrix:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            HMatrix(2, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_pairwise_identical_map_gives_zero(self):
        # [DERIVED: hand computation] symbols {0,1}->0, {2,3}->1: both members of
        # each pair map identically, so H = 0.
        W = Partition(4, 2, [0, 0, 1, 1])
        assert np.all(h_matrix(W).entries == 0.0)

    def test_singleton_map_example(self):
        # [DERIVED: hand computation] symbol 0 -> 1, rest -> 0 (k=4, ell=1):
        # H_00 = 1 + 1/3 = 4/3, all other entries 0; ||H||_F^2 = 16/9.
        W = Partition(4, 2, [1, 0, 0, 0])
        H = h_matrix(W)
        expected = np.zeros((2, 2))
        expected[0, 0] = 4.0 / 3.0
        assert np.allclose(H.entries, expected, atol=1e-12)
        assert frobenius_sq(H) == pytest.approx(16.0 / 9.0, abs=1e-12)

    def test_frobenius_bound(self):
        # [PAPER-REFUTED] the claimed ||H||_F^2 <= 2^ell fails (see the
        # counterexample below); the provable constant is 2^(ell+1): expanding
        # ||H||_F^2 over message pairs, the diagonal terms count *split* pairs,
        # which the 2^ell accounting misses.  The bound 2^(ell+1) is tight.
        # The bound also holds on the maps the protocols draw: smooth's balanced
        # partitions and Levin's subset maps, both with 2^ell parts.
        rng = np.random.default_rng(4)
        coins = public_coins(4)
        for _ in range(40):
            for ell in (1, 2):
                maps = (
                    Partition(8, 2**ell, rng.integers(2**ell, size=8)),
                    coins.balanced_partition(8, 2**ell),
                    coins.subset(8, 2**ell - 1),
                )
                for W in maps:
                    assert frobenius_sq(h_matrix(W)) <= 2 ** (ell + 1) + 1e-12

    def test_frobenius_claimed_constant_counterexample(self):
        # [DERIVED: hand computation] every pair split identically across the
        # two messages: H = [[1,1],[1,1]], ||H||_F^2 = 4 = 2^(ell+1) > 2^ell.
        W = Partition(4, 2, [1, 0, 1, 0])
        assert frobenius_sq(h_matrix(W)) == pytest.approx(4.0, abs=1e-12)


class TestSubgaussian:
    def test_zero_matrix(self):
        H = HMatrix(3, np.zeros((3, 3)))
        log_mgf, bound = subgaussian_claim_check(H, 1.0)
        assert log_mgf == pytest.approx(0.0, abs=1e-15) and bound == 0.0

    def test_inequality_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            A = rng.normal(size=(5, 5))
            H = HMatrix(5, (A + A.T) / 2)
            for lam in (0.1, 1.0, 3.0):
                log_mgf, bound = subgaussian_claim_check(H, lam)
                assert log_mgf <= bound + 1e-12

    def test_oversized(self):
        with pytest.raises(ValueError):
            subgaussian_claim_check(HMatrix(21, np.zeros((21, 21))), 1.0)


class TestPaninskiTv:
    def test_eps_zero(self):
        W = [Partition(4, 2, [1, 0, 1, 0]) for _ in range(3)]
        mean_tv_sq, bound = paninski_message_tv_bound(W, 0.0)
        assert mean_tv_sq == pytest.approx(0.0, abs=1e-15) and bound == 0.0

    def test_threshold_strategies(self):
        # n=4 threshold maps on k=4 at eps=0.25.
        W = [Partition(4, 2, [1, 1, 0, 0]) for _ in range(4)]
        mean_tv_sq, bound = paninski_message_tv_bound(W, 0.25)
        assert bound == pytest.approx(0.25)
        assert mean_tv_sq <= bound + 1e-12
        # The protocols' own 1-bit maps on k=8: public random elements, warmup's
        # (one public element per batch of players) and flying-pony's (the
        # indicator of symbol 0).
        coins = public_coins(6)
        elements = [coins.element(8) for _ in range(6)]
        for n in range(1, 7):
            warmup = [elements[i // 2] for i in range(n)]
            for W in (elements[:n], warmup, [indicator(8, 0)] * n):
                for eps in (0.1, 0.25, 0.5):
                    mean_tv_sq, bound = paninski_message_tv_bound(W, eps)
                    assert bound == pytest.approx(4 * eps**2 * n / 8)
                    assert mean_tv_sq <= bound + 1e-12

    def test_too_many_players(self):
        W = [Partition(4, 2, [1, 0, 0, 0])] * 13
        with pytest.raises(ValueError):
            paninski_message_tv_bound(W, 0.1)
        # k/2 = 13 is one theta coordinate past exhaustive enumeration.
        with pytest.raises(ValueError, match="theta"):
            paninski_message_tv_bound([Partition(26, 2, [1] + [0] * 25)], 0.1)


class TestEnumerationOracles:
    def test_rho_enumeration_full_coverage(self):
        probs = np.array([0.25, 0.25, 0.25, 0.25])
        blocks = [np.array([0, 1]), np.array([2, 3])]
        assert rho_enumeration(probs, blocks) == pytest.approx(0.25, abs=1e-15)

    def test_batch_law_flip_success_rate(self):
        # flip scheme on two half-mass blocks: success = 1/2 * (1 - 1/4)^... hand value:
        # rho_batch = 1/2 * prod_j (1 - q(S_j)/2) = 1/2 * (3/4)^2 = 9/32.
        probs = np.array([0.25, 0.25, 0.25, 0.25])
        blocks = [np.array([0, 1]), np.array([2, 3])]
        success, law = batch_law_enumeration(probs, blocks, flip=True)
        assert success == pytest.approx(9 / 32, abs=1e-15)
        assert np.allclose(law, 0.25, atol=1e-15)

    def test_levin_claim_equals_tv_scaling(self):
        # [PAPER] E_S sum_{i in S, p_i <= 1/k} (1/k - p_i) = TV(p, u) * s / k.
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = Pmf(k=7, probs=rng.dirichlet(np.ones(7)))
            expect, bound = levin_claim_enumeration(p, 3)
            assert expect == pytest.approx(bound, abs=1e-12)
            assert bound == pytest.approx(tv(p, uniform(7)) * 3 / 7, abs=1e-12)
