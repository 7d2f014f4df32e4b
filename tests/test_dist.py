"""Distribution primitives: generators, distances, transforms."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smpinfer.dist import (
    PaninskiParam,
    Partition,
    Pmf,
    flatten,
    flying_pony,
    paninski,
    split_duplicate,
    tv,
    uniform,
)


def random_pmf(rng, k):
    return Pmf(k=k, probs=rng.dirichlet(np.ones(k)))


pmf_strategy = st.integers(2, 12).flatmap(
    lambda k: st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k).map(
        lambda w: Pmf(k=k, probs=np.array(w) / np.sum(w))
    )
)


class TestPmf:
    def test_validates_shape_and_sign(self):
        with pytest.raises(ValueError):
            Pmf(k=3, probs=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            Pmf(k=2, probs=np.array([-0.1, 1.1]))
        with pytest.raises(ValueError):
            Pmf(k=2, probs=np.array([0.6, 0.6]))
        with pytest.raises(ValueError):
            Pmf(k=0, probs=np.array([]))

    def test_renormalizes_float_dust(self):
        p = Pmf(k=2, probs=np.array([0.5, 0.5 + 5e-10]))
        assert p.probs.sum() == 1.0

    def test_immutable(self):
        p = uniform(4)
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    def test_json_roundtrip_exact(self):
        p = Pmf(k=3, probs=np.array([0.2, 0.3, 0.5]))
        q = Pmf.from_json(p.to_json())
        assert q.k == p.k and np.array_equal(q.probs, p.probs)


class TestGenerators:
    def test_uniform(self):
        u = uniform(5)
        assert np.allclose(u.probs, 0.2) and u.k == 5

    def test_uniform_is_built_once_per_k(self):
        assert uniform(64) is uniform(64) and uniform(64) is not uniform(32)
        with pytest.raises(ValueError):
            uniform(0)

    def test_paninski_tv_is_exactly_eps(self):
        # [PAPER] the paired perturbation sits at TV exactly eps from uniform.
        for k, eps in ((4, 0.1), (16, 0.3), (64, 0.5)):
            theta = np.resize([1, -1], k // 2)
            p = paninski(PaninskiParam(k=k, eps=eps, theta=theta))
            assert tv(p, uniform(k)) == pytest.approx(eps, abs=1e-12)

    def test_paninski_validation(self):
        with pytest.raises(ValueError):
            PaninskiParam(k=5, eps=0.1, theta=np.ones(2))
        with pytest.raises(ValueError):
            PaninskiParam(k=4, eps=0.6, theta=np.ones(2))
        with pytest.raises(ValueError):
            PaninskiParam(k=4, eps=0.1, theta=np.array([1, 2]))

    def test_flying_pony_masses_and_tv(self):
        # [PAPER] all masses 0 or 2/k; TV to uniform exactly 1/2.
        p = flying_pony(8, [1, -1, 1, 1])
        assert set(np.round(p.probs * 8, 12)) == {0.0, 2.0}
        assert tv(p, uniform(8)) == pytest.approx(0.5, abs=1e-12)


class TestDistances:
    def test_hand_computed_tv(self):
        # [DERIVED: hand computation] TV([.5,.5],[.9,.1]) = 0.4.
        p = Pmf(k=2, probs=np.array([0.5, 0.5]))
        q = Pmf(k=2, probs=np.array([0.9, 0.1]))
        assert tv(p, q) == pytest.approx(0.4, abs=1e-15)

    def test_mismatched_alphabets(self):
        with pytest.raises(ValueError):
            tv(uniform(2), uniform(3))

    @settings(max_examples=50, deadline=None)
    @given(pmf_strategy, pmf_strategy.map(lambda q: q))
    def test_tv_metric_properties(self, p, q):
        if p.k != q.k:
            return
        assert 0.0 <= tv(p, q) <= 1.0 + 1e-12
        assert tv(p, q) == pytest.approx(tv(q, p), abs=1e-15)
        assert tv(p, p) == 0.0
        # l1/l2 relation
        assert 2 * tv(p, q) >= np.linalg.norm(p.probs - q.probs) - 1e-12


class TestTransforms:
    @settings(max_examples=30, deadline=None)
    @given(pmf_strategy)
    def test_split_merge_roundtrip(self, p):
        q = split_duplicate(p)
        assert q.k == 2 * p.k
        assert np.allclose(q.probs[0::2] + q.probs[1::2], p.probs, atol=1e-15)
        # l2 norm drops by exactly sqrt(2)
        assert np.linalg.norm(q.probs) == pytest.approx(np.linalg.norm(p.probs) / math.sqrt(2), abs=1e-12)
        assert np.linalg.norm(q.probs) <= 1 / math.sqrt(2) + 1e-12

    def test_flatten_preserves_mass(self):
        p = Pmf(k=4, probs=np.array([0.1, 0.2, 0.3, 0.4]))
        part = Partition(k=4, L=2, assign=np.array([0, 1, 0, 1]))
        f = flatten(p, part)
        assert np.allclose(f.probs, [0.4, 0.6], atol=1e-15)

    def test_flatten_uniform_on_balanced_is_uniform(self):
        part = Partition(k=8, L=4, assign=np.array([0, 1, 2, 3, 0, 1, 2, 3]))
        assert np.allclose(flatten(uniform(8), part).probs, 0.25, atol=1e-15)

class TestPartitionAndSubset:
    def test_balanced_flags(self):
        assert Partition(k=4, L=2, assign=np.array([0, 0, 1, 1])).exactly_balanced
        assert Partition(k=5, L=2, assign=np.array([0, 0, 1, 1, 1])).balanced
        assert not Partition(k=4, L=2, assign=np.array([0, 0, 0, 1])).balanced

    def test_assign_must_map_into_parts(self):
        with pytest.raises(ValueError, match=r"part indices must lie in \[0, L\)"):
            Partition(k=2, L=2, assign=[0, 2])
        with pytest.raises(ValueError, match=r"part indices must lie in \[0, L\)"):
            Partition(k=2, L=2, assign=[-1, 0])
        with pytest.raises(ValueError, match="assign must have length k"):
            Partition(k=3, L=2, assign=[0, 1])
