"""Identity-to-uniformity reduction via the domain-enlarging map."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from smpinfer.dist import Pmf, tv, uniform
from smpinfer.identity import (
    EPS_SCALE,
    build_map,
    identity_test_via_uniformity,
    map_pmf,
    map_samples,
)
from smpinfer.infer import si_uniformity_players, si_uniformity_protocol
from test_simulate import _chi2_p


def _map_sample(gmap, x, rng):
    """Reference sampler: map one source symbol to a bucket in [5k], one draw at a time."""
    qx = gmap.q.probs[x]
    if qx > 0 and rng.random() < gmap.alloc[x] / (gmap.m * qx):
        return int(gmap.start[x] + rng.integers(gmap.alloc[x]))
    if gmap.slack == 0:
        raise ValueError("degenerate map: sample outside the allocation with no slack buckets")
    return int(gmap.slack_start + rng.integers(gmap.slack))


def granular_pmf(k, rng):
    """A pmf whose masses are multiples of 1/(5k) (no slack buckets)."""
    m = 5 * k
    cuts = np.sort(rng.choice(np.arange(1, m), size=k - 1, replace=False))
    alloc = np.diff(np.concatenate([[0], cuts, [m]]))
    return Pmf(k=k, probs=alloc / m)


class TestBuildMap:
    def test_granular_has_no_slack(self):
        rng = np.random.default_rng(0)
        q = granular_pmf(8, rng)
        gmap = build_map(q)
        assert gmap.m == 40 and gmap.slack == 0
        assert gmap.alloc.sum() == 40
        assert np.array_equal(gmap.alloc, np.round(q.probs * 40).astype(int))

    def test_float_guard(self):
        # 5k * 0.3 must floor to 3 for k=2 (m=10) despite float representation.
        q = Pmf(k=2, probs=np.array([0.3, 0.7]))
        gmap = build_map(q)
        assert gmap.alloc.tolist() == [3, 7] and gmap.slack == 0

    def test_uniform_q_has_no_slack(self):
        q = Pmf(k=3, probs=np.array([1 / 3, 1 / 3, 1 / 3]))
        gmap = build_map(q)
        assert gmap.slack == 15 - 3 * 5  # 1/3 of 15 buckets each
        assert gmap.slack == 0

    def test_generic_q_has_slack(self):
        q2 = Pmf(k=3, probs=np.array([0.305, 0.305, 0.39]))
        gmap2 = build_map(q2)
        assert gmap2.slack > 0
        assert gmap2.slack_start == gmap2.m - gmap2.slack


class TestMapPmf:
    def test_reference_maps_to_uniform_exactly(self):
        # [PAPER] F_q(q) is exactly uniform over [5k], slack or no slack.
        rng = np.random.default_rng(1)
        for seed in range(5):
            q = Pmf(k=6, probs=rng.dirichlet(np.ones(6)))
            gmap = build_map(q)
            mapped = map_pmf(gmap, q)
            assert np.max(np.abs(mapped.probs - 1.0 / gmap.m)) < 1e-12

    def test_far_p_stays_far(self):
        q = uniform(8)
        gmap = build_map(q)
        p = Pmf(k=8, probs=np.array([0.425, 0.125, 0.1, 0.05] + [0.075] * 4))
        dist = tv(p, q)
        mapped_tv = tv(map_pmf(gmap, p), uniform(gmap.m))
        assert mapped_tv >= 0.4 * dist

    def test_degenerate_overflow(self):
        # slack-free map, p putting mass where q has none -> overflow error.
        q = Pmf(k=2, probs=np.array([1.0, 0.0]))
        gmap = build_map(q)
        assert gmap.slack == 0
        p = Pmf(k=2, probs=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            map_pmf(gmap, p)


def random_pmf(k, seed, zero_frac=0.3):
    """A Dirichlet pmf over [k] with about zero_frac of its masses set to zero."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(k)) * (rng.random(k) >= zero_frac)
    if probs.sum() == 0:
        probs[rng.integers(k)] = 1.0
    return Pmf(k=k, probs=probs / probs.sum())


class TestMapPmfProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 10_000), st.integers(0, 10_000))
    def test_conserves_mass_with_slack(self, k, q_seed, p_seed):
        # Symbol x keeps the fraction alloc_x / (5k q_x) of p_x on its own
        # buckets; the rest, and all of p_x where q_x = 0, lands on the slack.
        q, p = random_pmf(k, q_seed), random_pmf(k, p_seed)
        gmap = build_map(q)
        assume(gmap.slack > 0)
        mapped = map_pmf(gmap, p).probs
        kept = np.divide(gmap.alloc, gmap.m * q.probs, out=np.zeros(k), where=q.probs > 0)
        for x in range(k):
            own = mapped[gmap.start[x] : gmap.start[x] + gmap.alloc[x]]
            assert own.sum() == pytest.approx(p.probs[x] * kept[x], abs=1e-12)
        assert mapped[gmap.slack_start :].sum() == pytest.approx(float(p.probs @ (1.0 - kept)), abs=1e-12)
        assert mapped.min() >= 0.0 and mapped.sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 10_000))
    def test_reference_maps_to_uniform(self, k, seed):
        # [PAPER] F_q(q) = u_{5k}, with or without zero masses and slack.
        q = random_pmf(k, seed)
        gmap = build_map(q)
        assert np.max(np.abs(map_pmf(gmap, q).probs - 1.0 / gmap.m)) < 1e-12

    def test_zero_masses_own_no_buckets(self):
        q = Pmf(k=4, probs=np.array([0.5, 0.0, 0.33, 0.17]))
        gmap = build_map(q)
        assert gmap.alloc[1] == 0 and gmap.slack > 0
        # All of p's mass on q's zero-mass symbol goes to the slack buckets.
        mapped = map_pmf(gmap, Pmf(k=4, probs=np.array([0.0, 1.0, 0.0, 0.0]))).probs
        assert np.all(mapped[: gmap.slack_start] == 0)
        assert np.allclose(mapped[gmap.slack_start :], 1.0 / gmap.slack, rtol=0, atol=1e-15)

    def test_no_slack_with_p_on_support(self):
        # slack = 0 is not degenerate while p stays on q's support: each owned
        # bucket of x gets p_x / alloc_x.
        q = Pmf(k=3, probs=np.array([0.4, 0.0, 0.6]))
        gmap = build_map(q)
        assert gmap.slack == 0 and gmap.alloc.tolist() == [6, 0, 9]
        mapped = map_pmf(gmap, Pmf(k=3, probs=np.array([0.5, 0.0, 0.5]))).probs
        assert np.allclose(mapped, np.r_[np.full(6, 0.5 / 6), np.full(9, 0.5 / 9)], rtol=0, atol=1e-15)


class TestMapSample:
    def test_empirical_matches_pushforward(self):
        rng = np.random.default_rng(2)
        q = Pmf(k=4, probs=np.array([0.4, 0.3, 0.2, 0.1]))
        gmap = build_map(q)
        p = Pmf(k=4, probs=np.array([0.25, 0.25, 0.25, 0.25]))
        xs = rng.choice(4, size=30_000, p=p.probs)
        ys = map_samples(gmap, xs, rng)
        emp = np.bincount(ys, minlength=gmap.m) / ys.size
        assert tv(Pmf(k=gmap.m, probs=emp), map_pmf(gmap, p)) < 0.03

    def test_degenerate_sample(self):
        q = Pmf(k=2, probs=np.array([1.0, 0.0]))
        gmap = build_map(q)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            map_samples(gmap, np.ones(100, dtype=np.int64), rng)  # symbol with q=0 must hit missing slack
        with pytest.raises(ValueError):
            map_samples(gmap, [0, 1], rng)

    def test_same_law_as_scalar_oracle(self):
        # Seeded two-sample chi-square homogeneity test, band fixed beforehand:
        # p >= 1e-4.  q has slack and a zero mass, and p differs from q, so all
        # three branches (own range, overflow to slack, q_x = 0) are taken.
        q = Pmf(k=5, probs=np.array([0.33, 0.27, 0.0, 0.25, 0.15]))
        p = Pmf(k=5, probs=np.array([0.1, 0.3, 0.2, 0.25, 0.15]))
        gmap = build_map(q)
        assert gmap.slack > 0
        xs = np.random.default_rng(3).choice(5, size=30_000, p=p.probs)
        rng = np.random.default_rng(4)
        fast = np.bincount(map_samples(gmap, xs, np.random.default_rng(5)), minlength=gmap.m)
        slow = np.bincount([_map_sample(gmap, int(x), rng) for x in xs], minlength=gmap.m)
        counts = np.array([fast, slow])[:, (fast + slow) > 0]
        expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)) / counts.sum()
        assert _chi2_p(counts, expected) >= 1e-4


class TestEndToEnd:
    def test_eps_scale_constant(self):
        assert EPS_SCALE == pytest.approx(16 / 25)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            identity_test_via_uniformity(
                uniform(4), uniform(5), 2, 0.3, lambda *a, **kw: None, {}
            )

    def test_identity_via_si_uniformity(self):
        rng_master = np.random.default_rng(11)
        q = granular_pmf(4, rng_master)
        far = Pmf(k=4, probs=np.roll(q.probs, 1))
        if tv(far, q) < 0.3:
            far = Pmf(k=4, probs=np.array([1.0, 0.0, 0.0, 0.0]))

        def protocol(mapped, ell, eps, rng):
            n = si_uniformity_players(mapped.k, ell, eps)
            return si_uniformity_protocol(mapped, ell, eps, n, rng)

        ok_same = ok_far = 0
        for t in range(8):
            v = identity_test_via_uniformity(q, q, 2, 0.3, protocol, {"rng": np.random.default_rng(t)})
            ok_same += v.decision == "accept_uniform"
            assert v.diagnostics["mapped_domain"] == 20
            v = identity_test_via_uniformity(far, q, 2, 0.3, protocol, {"rng": np.random.default_rng(50 + t)})
            ok_far += v.decision == "reject"
        assert ok_same >= 6 and ok_far >= 6
