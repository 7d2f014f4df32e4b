"""Distributed simulation scheme: blocks, batch law, player counts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smpinfer.dist import Pmf, split_duplicate, uniform
from smpinfer.infer import run_block_simulations
from smpinfer.simulate import (
    PlayerCapExceeded,
    _run_batches,
    batch_players,
    contiguous_blocks,
    player_bound,
    rho,
    simulate_many,
)
from smpinfer.verify import batch_law_enumeration, rho_enumeration


class TestBlocks:
    def test_cover_and_sizes(self):
        blocks = contiguous_blocks(10, 3)
        assert [len(b) for b in blocks] == [3, 3, 3, 1]
        assert np.array_equal(np.concatenate(blocks), np.arange(10))

    def test_exact_division(self):
        assert len(contiguous_blocks(8, 4)) == 2

    def test_bad_size(self):
        with pytest.raises(ValueError):
            contiguous_blocks(4, 0)

    @pytest.mark.parametrize("k, ell", [(5, 2), (3, 3), (33, 3), (33, 6), (64, 2), (1000, 4)])
    def test_batch_players_counts_blocks(self, k, ell):
        # 2^ell - 1 does not divide 2k here, so the last block is short.
        assert (2 * k) % (2**ell - 1) != 0
        assert batch_players(k, ell) == 2 * len(contiguous_blocks(2 * k, 2**ell - 1))


class TestPlayerBound:
    def test_formula(self):
        # [PAPER] 20 * ceil(k / (2^ell - 1)).
        assert player_bound(4, 1) == 80
        assert player_bound(16, 2) == 120
        assert player_bound(64, 3) == 200


class TestRho:
    def test_product_formula(self):
        assert rho([0.1, 0.2]) == pytest.approx(0.9 * 0.8, abs=1e-15)
        assert rho([]) == 1.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 10_000))
    def test_matches_enumeration(self, k, s, seed):
        # The paired no-flip scheme declares with probability prod_j (1 - q(S_j))
        # exactly when the block masses cover a full distribution.
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(k))
        blocks = contiguous_blocks(k, s)
        masses = np.array([float(probs[b].sum()) for b in blocks])
        masses /= max(1.0, masses.sum())  # shave float dust above total mass 1
        assert rho(masses) == pytest.approx(rho_enumeration(probs, blocks), abs=1e-12)

    def test_lower_bound(self):
        # [PAPER] rho >= (1 - ||b||_2) e^{||b||_2 - 1}.
        rng = np.random.default_rng(5)
        for _ in range(50):
            b = rng.dirichlet(np.ones(6))
            norm = float(np.sqrt(np.sum(b**2)))
            assert rho(b) >= (1.0 - norm) * np.exp(norm - 1.0) - 1e-12


class TestBatchLaw:
    def test_conditional_law_is_exactly_p(self):
        # [DERIVED: enumeration] the flip scheme's declared-symbol law on the
        # duplicated alphabet, merged back, equals p exactly.
        for probs in ([0.5, 0.5], [0.7, 0.3], [0.5, 0.3, 0.2], [0.4, 0.3, 0.2, 0.1]):
            p = Pmf(k=len(probs), probs=np.array(probs))
            q = split_duplicate(p)
            blocks = contiguous_blocks(q.k, 1)
            success, law = batch_law_enumeration(q.probs, blocks, flip=True)
            merged = law[0::2] + law[1::2]
            assert np.max(np.abs(merged - p.probs)) < 1e-12
            assert success >= 0.25 - 1e-12  # rho_batch >= 1/4

    def test_run_batch_outputs_valid_symbol_or_none(self):
        q = split_duplicate(uniform(4))
        declared, symbols = _run_batches(q.probs, 3, 200, np.random.default_rng(0))
        assert declared.any() and np.all((symbols[declared] >= 0) & (symbols[declared] < q.k))
        assert not declared.all() and np.all(symbols[~declared] == -1)


class TestSimulateMany:
    def test_statistical_exactness_small(self):
        p = Pmf(k=4, probs=np.array([0.4, 0.3, 0.2, 0.1]))
        outs = simulate_many(p, 2, 30_000, np.random.default_rng(1))
        syms = np.array([o.symbol for o in outs])
        emp = np.bincount(syms, minlength=4) / syms.size
        assert 0.5 * np.abs(emp - p.probs).sum() < 0.02

    def test_player_accounting(self):
        p = uniform(6)
        outs = simulate_many(p, 2, 500, np.random.default_rng(2))
        q_k = 12
        batch_players = 2 * len(contiguous_blocks(q_k, 3))
        for o in outs:
            assert o.players_used == o.batches_used * batch_players
            assert o.batches_used >= 1

    def test_mean_players_under_bound(self):
        p = uniform(16)
        outs = simulate_many(p, 1, 3000, np.random.default_rng(3))
        players = np.array([o.players_used for o in outs], dtype=float)
        assert players.mean() + 3 * players.std() / np.sqrt(players.size) <= player_bound(16, 1)

    def test_player_cap(self):
        with pytest.raises(PlayerCapExceeded):
            simulate_many(uniform(64), 1, 10, np.random.default_rng(0), player_cap=100)

    def test_deterministic_given_seed(self):
        p = uniform(8)
        a = simulate_many(p, 2, 50, np.random.default_rng(9))
        b = simulate_many(p, 2, 50, np.random.default_rng(9))
        assert [o.symbol for o in a] == [o.symbol for o in b]
        assert [o.players_used for o in a] == [o.players_used for o in b]

    def test_one_block_covers_alphabet(self):
        # 2^ell - 1 = 7 >= 2k = 6: one block, so one primary and one secondary
        # player per batch.  Both always send nonzero, so a batch declares iff
        # the primary message survives its flip and the secondary's does not:
        # probability exactly 1/4.
        p = Pmf(k=3, probs=np.array([0.5, 0.0, 0.5]))
        outs = simulate_many(p, 3, 4000, np.random.default_rng(6))
        batches = np.array([o.batches_used for o in outs], dtype=float)
        assert all(o.players_used == 2 * o.batches_used for o in outs)
        assert {o.symbol for o in outs} == {0, 2}
        assert abs(batches.mean() - 4.0) <= 3 * batches.std() / np.sqrt(batches.size)
        res = run_block_simulations(p, 3, 500, np.random.default_rng(7))
        assert res.players_used <= res.players_budget
        assert set(res.samples.tolist()) <= {0, 2}

    def test_point_mass(self):
        # [TRIVIAL] a point mass is always simulated to its only symbol.
        p = Pmf(k=3, probs=np.array([0.0, 1.0, 0.0]))
        outs = simulate_many(p, 2, 20, np.random.default_rng(4))
        assert all(o.symbol == 1 for o in outs)
