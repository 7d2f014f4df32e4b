"""Simulate-and-infer pipelines and the 1-bit flying-pony protocol."""

import math

import numpy as np
import pytest

from smpinfer import testers
from smpinfer.dist import Pmf, flying_pony, paninski, PaninskiParam, tv, uniform
from smpinfer.infer import (
    FLYING_PONY_C,
    block_budget_players,
    blocks_for_psi,
    flying_pony_protocol,
    run_block_simulations,
    si_learning_protocol,
    si_uniformity_players,
    si_uniformity_protocol,
    simulate_and_infer,
)
from smpinfer.simulate import batch_players, contiguous_blocks, player_bound, simulate_many
from smpinfer.smp import Verdict


class TestBudgets:
    def test_block_budget_is_double_bound_whole_batches(self):
        for k, ell in ((4, 1), (16, 2), (64, 2)):
            players, batches = block_budget_players(k, ell)
            batch_players = 2 * len(contiguous_blocks(2 * k, 2**ell - 1))
            assert players == batches * batch_players
            assert players >= 2 * player_bound(k, ell)
            assert players - batch_players < 2 * player_bound(k, ell) + batch_players

    def test_blocks_for_psi(self):
        assert blocks_for_psi(10) == 49

    def test_si_uniformity_players_formula(self):
        k, ell, eps = 16, 2, 0.3
        psi = testers.centralized_n_req(k, eps)
        per, _ = block_budget_players(k, ell)
        assert si_uniformity_players(k, ell, eps) == (4 * psi + 9) * per


# Each two-sample comparison is a chi-square homogeneity test at level 1e-4,
# fixed before the first run; Z_ALPHA is the standard normal upper 1e-4 quantile.
Z_ALPHA = 3.719


def _homogeneous(x, y) -> bool:
    """Whether count vectors x and y pass a chi-square homogeneity test at level 1e-4.

    Adjacent categories are pooled until each holds at least 10 observations;
    the critical value is the Wilson-Hilferty chi-square quantile.
    """
    cols, cur = [], np.zeros(2)
    for pair in zip(x, y):
        cur = cur + pair
        if cur.sum() >= 10:
            cols.append(cur)
            cur = np.zeros(2)
    if cols:
        cols[-1] = cols[-1] + cur
    table = np.array(cols, dtype=np.float64).T
    df = table.shape[1] - 1
    if df < 1:
        return True
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
    stat = float(np.sum((table - expected) ** 2 / expected))
    h = 2.0 / (9.0 * df)
    return stat <= df * (1.0 - h + Z_ALPHA * np.sqrt(h)) ** 3


class TestCountPathMatchesPlayerLoop:
    """run_block_simulations draws blocks at count level; simulate_many runs the scheme player by player.

    One block per call exposes a block's batches used (players_used over
    batch_players), its success and its symbol.  The player loop's block is a
    sample run to declaration: it succeeds iff its batches fit the budget T,
    and uses min(batches, T) of them.
    """

    @pytest.mark.parametrize(
        "probs, ell",
        [
            ([0.3, 0.0, 0.2, 0.1, 0.0, 0.4], 2),  # zero masses; 2k = 12 in blocks of 3
            ([0.1, 0.05, 0.15, 0.2, 0.1, 0.05, 0.1, 0.05, 0.1, 0.1], 2),  # short last block
            ([0.2, 0.1, 0.1, 0.2, 0.1, 0.1, 0.2], 3),  # two blocks of 7, T binds often
            ([0.5, 0.0, 0.5], 3),  # 2^ell - 1 >= 2k: one block, rho = 1/4
        ],
    )
    def test_two_sample(self, probs, ell):
        p = Pmf(k=len(probs), probs=np.array(probs))
        _, T = block_budget_players(p.k, ell)
        per_batch = batch_players(p.k, ell)
        n = 3000
        rng = np.random.default_rng(2024)
        count_batches = np.zeros(T + 1, dtype=np.int64)
        count_success = np.zeros(2, dtype=np.int64)
        count_symbols = np.zeros(p.k, dtype=np.int64)
        for _ in range(n):
            res = run_block_simulations(p, ell, 1, rng)
            count_batches[res.players_used // per_batch] += 1
            count_success[res.successes] += 1
            count_symbols += res.counts
        loop = simulate_many(p, ell, n, np.random.default_rng(4202))
        used = np.array([o.batches_used for o in loop])
        ok = used <= T
        loop_batches = np.bincount(np.minimum(used, T), minlength=T + 1)
        loop_success = np.bincount(ok.astype(np.int64), minlength=2)
        loop_symbols = np.bincount(np.array([o.symbol for o in loop])[ok], minlength=p.k)
        assert count_batches[0] == loop_batches[0] == 0
        zero = p.probs == 0
        assert not count_symbols[zero].any() and not loop_symbols[zero].any()
        assert _homogeneous(count_success, loop_success)
        assert _homogeneous(count_batches[1:], loop_batches[1:])
        assert _homogeneous(count_symbols[~zero], loop_symbols[~zero])


class TestBlockSimulations:
    def test_budget_and_success_counts(self):
        res = run_block_simulations(uniform(8), 2, 200, np.random.default_rng(0))
        assert res.blocks == 200
        assert res.counts.shape == (8,) and res.counts.sum() == res.successes
        assert res.players_used <= res.players_budget
        assert res.players_used % batch_players(8, 2) == 0
        # Per-block success probability >= 1/2 by Markov; expect well above 100.
        assert res.successes >= 100

    def test_needs_a_block(self):
        with pytest.raises(ValueError):
            run_block_simulations(uniform(4), 1, 0, np.random.default_rng(0))


class TestSimulateAndInfer:
    def test_string_verdicts(self):
        v = simulate_and_infer(uniform(4), 2, 30, lambda s: "accept", np.random.default_rng(1))
        assert v.decision == "accept_uniform"
        v = simulate_and_infer(uniform(4), 2, 30, lambda s: "reject", np.random.default_rng(1))
        assert v.decision == "reject"

    def test_verdict_passthrough_gains_diagnostics(self):
        v = simulate_and_infer(
            uniform(4), 2, 30, lambda s: Verdict(decision="reject"), np.random.default_rng(1)
        )
        assert v.decision == "reject" and "samples_simulated" in v.diagnostics

    def test_pmf_becomes_estimate(self):
        v = simulate_and_infer(
            uniform(4), 2, 30, lambda s: uniform(4), np.random.default_rng(1)
        )
        assert v.decision == "estimate"
        assert isinstance(v.diagnostics["estimate"], Pmf)

    def test_undersized_becomes_abort(self):
        def needy(samples):
            raise ValueError("need more samples")

        v = simulate_and_infer(uniform(4), 2, 10, needy, np.random.default_rng(1))
        assert v.decision == "abort" and "reason" in v.diagnostics


class TestSiUniformity:
    def test_both_sides(self):
        k, ell, eps = 16, 2, 0.3
        n = si_uniformity_players(k, ell, eps)
        far = paninski(PaninskiParam(k=k, eps=eps, theta=np.resize([1, -1], k // 2)))
        rng = np.random.default_rng(7)
        accepts = sum(
            si_uniformity_protocol(uniform(k), ell, eps, n, rng).decision == "accept_uniform"
            for _ in range(15)
        )
        rejects = sum(
            si_uniformity_protocol(far, ell, eps, n, rng).decision == "reject" for _ in range(15)
        )
        assert accepts >= 11 and rejects >= 11

    def test_too_few_players(self):
        with pytest.raises(ValueError):
            si_uniformity_protocol(uniform(16), 2, 0.3, 10, np.random.default_rng(0))


class TestSiLearning:
    def test_learns_within_tv(self):
        p = Pmf(k=8, probs=np.array([0.3, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05]))
        psi = math.ceil(3.0 * 8 / 0.25**2)
        per, _ = block_budget_players(8, 2)
        n = blocks_for_psi(psi) * per
        v = si_learning_protocol(p, 2, n, np.random.default_rng(2))
        assert v.decision == "estimate"
        assert tv(v.diagnostics["estimate"], p) <= 0.25


class TestFlyingPony:
    def test_accepts_uniform(self):
        k = 256
        n = FLYING_PONY_C * k
        rng = np.random.default_rng(3)
        ok = sum(
            flying_pony_protocol(uniform(k), n, rng).decision == "accept_uniform"
            for _ in range(50)
        )
        assert ok >= 40

    def test_rejects_hidden_half(self):
        k = 256
        n = FLYING_PONY_C * k
        rng = np.random.default_rng(4)
        for theta0 in (1, -1):
            theta = np.full(k // 2, theta0)
            p = flying_pony(k, theta)
            ok = sum(flying_pony_protocol(p, n, rng).decision == "reject" for _ in range(50))
            assert ok >= 40

    def test_degenerate_n(self):
        with pytest.raises(ValueError):
            flying_pony_protocol(uniform(4), 0, np.random.default_rng(0))
