"""Distributed simulation scheme: blocks, batch law, player counts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smpinfer import simulate
from smpinfer.dist import PaninskiParam, Pmf, paninski, split_duplicate, uniform
from smpinfer.cli import main
from smpinfer.infer import block_budget_players, run_block_simulations, si_uniformity_protocol
from smpinfer.simulate import (
    PlayerCapExceeded,
    SimOutcome,
    _block_bounds,
    _run_batches,
    batch_players,
    block_size,
    contiguous_blocks,
    flip_rho,
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


class TestLargeEll:
    """Blocks are capped at the duplicated alphabet: at k = 16, every ell >= 6
    is one block of 2k = 32 symbols, however far 2^ell - 1 overflows int64."""

    @pytest.mark.parametrize("ell", [63, 64, 70])
    def test_same_as_one_block(self, ell, capsys):
        p = paninski(PaninskiParam(k=16, eps=0.3, theta=np.resize([1, -1], 8)))
        assert block_size(16, ell) == block_size(16, 6) == 32 and block_size(16, 5) == 31
        assert batch_players(16, ell) == batch_players(16, 6) == 2
        assert simulate_many(p, ell, 300, np.random.default_rng(1)) == simulate_many(p, 6, 300, np.random.default_rng(1))
        n = 600 * block_budget_players(16, 6)[0]  # 600 blocks
        verdicts = [si_uniformity_protocol(p, e, 0.3, n, np.random.default_rng(2)) for e in (ell, 6)]
        assert verdicts[0].decision == verdicts[1].decision
        assert verdicts[0].diagnostics == verdicts[1].diagnostics
        outputs = []
        for e in (ell, 6):
            assert main(["simulate", "--k", "16", "--ell", str(e), "--count", "20", "--seed", "3"]) == 0
            assert main(["infer", "--task", "uniformity", "--k", "16", "--ell", str(e), "--eps", "0.3"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


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


def _flip_rho_against_enumeration(probs, ell):
    q = split_duplicate(Pmf(k=len(probs), probs=np.array(probs)))
    blocks = contiguous_blocks(q.k, 2**ell - 1)
    closed = flip_rho([q.probs[b].sum() for b in blocks])
    success, _ = batch_law_enumeration(q.probs, blocks, flip=True)
    assert closed == pytest.approx(success, abs=1e-12)
    assert 0.25 - 1e-12 <= closed <= 0.5
    return closed


class TestFlipRho:
    @pytest.mark.parametrize(
        "probs, ell",
        [
            ([0.5, 0.5], 1),  # blocks of one symbol
            ([0.4, 0.0, 0.6], 2),  # zero mass; 2k = 6 is two full blocks
            ([0.1, 0.2, 0.3, 0.4], 2),  # 2k = 8 cuts into 3 + 3 + 2
            ([0.2, 0.0, 0.5, 0.3, 0.0], 2),  # zero masses; 3 + 3 + 3 + 1
            ([0.25, 0.25, 0.25, 0.25], 3),  # 2k = 8 cuts into 7 + 1
        ],
    )
    def test_matches_enumeration(self, probs, ell):
        # [DERIVED: enumeration] P[batch declares] = (1/2) prod_j (1 - q(S_j)/2).
        _flip_rho_against_enumeration(probs, ell)

    @pytest.mark.parametrize("probs", [[0.5, 0.0, 0.5], [0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
    def test_one_block_covers_alphabet(self, probs):
        # 2^ell - 1 = 7 >= 2k = 6: one block of mass 1, so rho = 1/4 exactly.
        assert _flip_rho_against_enumeration(probs, 3) == pytest.approx(0.25, abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 10_000))
    def test_matches_enumeration_random(self, k, ell, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(k)) * (rng.random(k) < 0.7)
        if probs.sum() == 0:
            probs[0] = 1.0
        _flip_rho_against_enumeration(probs / probs.sum(), ell)

    def test_validation(self):
        with pytest.raises(ValueError):
            flip_rho([0.7, 0.7])


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
        rows, symbols = _run_batches(*_block_bounds(q.probs, 3), 200, np.random.default_rng(0))
        assert 0 < rows.size < 200 and rows.size == symbols.size
        assert np.all(np.diff(rows) > 0) and 0 <= rows[0] and rows[-1] < 200
        assert np.all((symbols >= 0) & (symbols < q.k))


def _messages(cdf, s, u, block):
    """Each player's message: the 1-based in-block index of its full inverse-CDF sample, else 0."""
    samples = np.searchsorted(cdf, u, side="right")
    return np.where(samples // s == block, samples % s + 1, 0)


def _full_search_batches(cdf, s, T, rng):
    """Reference batch on _run_batches's four draws, laid out on a dense (T, m)
    grid of primaries: candidates and survivors are boolean masks filled in
    row-major order, a row's survivors are counted by a row sum, and a declared
    winner's sample is resolved into its message by full inverse-CDF search.
    Block bounds are read off the CDF at every s-th symbol."""
    m = -(-cdf.size // s)
    hi = cdf[np.minimum(np.arange(1, m + 1) * s, cdf.size) - 1]
    lo = np.concatenate(([0.0], hi[:-1]))
    b = hi - lo
    bmax = b.max()
    rate = 0.5 * bmax
    size = min(simulate._MAX_DRAW, int(T * m * rate + 6 * (T * m * rate) ** 0.5) + 16)
    positions = np.cumsum(rng.geometric(rate, size))
    while positions[-1] < T * m:
        positions = np.concatenate((positions, positions[-1] + np.cumsum(rng.geometric(rate, size))))
    candidate = np.zeros(T * m, dtype=bool)
    candidate[positions[positions <= T * m] - 1] = True
    candidate = candidate.reshape(T, m)
    alive = np.zeros((T, m), dtype=bool)
    alive[candidate] = rng.random(candidate.sum()) < np.broadcast_to(b / bmax, (T, m))[candidate]
    rows = np.flatnonzero(alive.sum(axis=1) == 1)
    winner = np.argmax(alive[rows], axis=1)
    secondary = rng.random(rows.size) < 0.5 * b[winner]
    rows, winner = rows[~secondary], winner[~secondary]
    u = np.minimum(lo[winner] + rng.random(rows.size) * b[winner], np.nextafter(hi[winner], 0.0))
    return rows, winner * s + _messages(cdf, s, u, winner) - 1


def _every_player_batches(probs, s, T, rng):
    """Law oracle: every player of every batch draws its uniform and its flip,
    and is resolved by full inverse-CDF search."""
    m = -(-probs.size // s)
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    msgs = _messages(cdf, s, rng.random((T, 2, m)), np.arange(m))
    msgs[(msgs > 0) & (rng.random((T, 2, m)) < 0.5)] = 0
    primary = msgs[:, 0, :]
    nonzero = primary > 0
    counts = nonzero.sum(axis=1)
    winner = np.argmax(nonzero, axis=1)
    sec_zero = msgs[np.arange(T), 1, winner] == 0
    declared = (counts == 1) & sec_zero
    symbols = np.where(declared, winner * s + primary[np.arange(T), winner] - 1, -1)
    return declared, symbols


def _assert_batches_match_reference(probs, ell, seed, T=300):
    q = split_duplicate(Pmf(k=len(probs), probs=np.asarray(probs, dtype=float)))
    s = block_size(len(probs), ell)
    cdf, lo, hi = _block_bounds(q.probs, s)
    rows, symbols = _run_batches(cdf, lo, hi, T, np.random.default_rng(seed))
    ref_rows, ref_symbols = _full_search_batches(cdf, s, T, np.random.default_rng(seed))
    assert np.array_equal(rows, ref_rows)
    assert np.array_equal(symbols, ref_symbols)


FIXED_CELLS = [
    ([0.0, 1.0, 0.0], 2),  # point mass
    ([0.1, 0.2, 0.3, 0.4], 2),  # 2k = 8 cuts into 3 + 3 + 2: short last block
    ([0.5, 0.0, 0.5], 3),  # 2^ell - 1 = 7 >= 2k = 6: one block
    ([0.1] * 10 + [0.0, 0.0], 2),  # trailing zeros; cumsum dust puts cdf[19..22] above 1.0
    ([0.1] * 10 + [0.0, 0.0], 1),
    ([0.2, 0.0, 0.5, 0.3, 0.0], 2),  # interior and trailing zero masses
]
SKEWED = np.random.default_rng(40).dirichlet(np.full(40, 0.3))  # block masses far apart: thinning matters
ONE_BLOCK = [0.2, 0.3, 0.5]  # at ell = 3 one block of mass 1: every grid cell is a candidate


class TestBatchOracle:
    """_run_batches keeps the surviving primaries as sorted grid positions; the reference lays
    the same draws on a dense grid and resolves the winner's message by full CDF search."""

    @pytest.mark.parametrize("probs, ell", FIXED_CELLS)
    def test_fixed_cells(self, probs, ell):
        for seed in range(5):
            _assert_batches_match_reference(probs, ell, seed)

    @pytest.mark.parametrize("probs, ell", FIXED_CELLS)
    def test_gaps_drawn_in_several_calls(self, probs, ell, monkeypatch):
        # A draw cap of 8 values splits a grid's gaps over many geometric calls.
        monkeypatch.setattr(simulate, "_MAX_DRAW", 8)
        for seed in range(3):
            _assert_batches_match_reference(probs, ell, seed)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 6), st.integers(0, 10_000))
    def test_random_cells(self, k, ell, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(k)) * (rng.random(k) < 0.6)
        if probs.sum() == 0:
            probs[rng.integers(k)] = 1.0
        _assert_batches_match_reference(probs / probs.sum(), ell, seed, T=64)

    @pytest.mark.parametrize("k, ell", [(33, 1), (33, 2), (12, 3), (5, 6)])
    def test_simulate_many_outcomes(self, k, ell, monkeypatch):
        p = Pmf(k=k, probs=np.random.default_rng(k).dirichlet(np.ones(k)))
        fast = simulate_many(p, ell, 200, np.random.default_rng(ell))
        s = block_size(k, ell)
        monkeypatch.setattr(simulate, "_run_batches", lambda cdf, lo, hi, T, rng: _full_search_batches(cdf, s, T, rng))
        assert simulate_many(p, ell, 200, np.random.default_rng(ell)) == fast


def _chi2_sf(x, df):
    """P[chi-square with df degrees of freedom >= x], by the closed form for integer df."""
    if df % 2 == 0:
        term = total = 1.0
        for i in range(1, df // 2):
            term *= x / (2 * i)
            total += term
        return math.exp(-x / 2) * total
    total, term = math.erfc(math.sqrt(x / 2)), math.sqrt(2 * x / math.pi) * math.exp(-x / 2)
    for i in range(1, (df + 1) // 2):
        total += term
        term *= x / (2 * i + 1)
    return total


def _chi2_p(observed, expected):
    """Pearson chi-square p-value over the columns (df = columns - 1) of one row
    against its expected counts, or of two rows against their pooled table; the
    columns with an expected count below 5 are first pooled into one."""
    observed, expected = np.atleast_2d(observed, expected)
    small = expected.min(axis=0) < 5
    if small.any():
        observed = np.column_stack((observed[:, ~small], observed[:, small].sum(axis=1)))
        expected = np.column_stack((expected[:, ~small], expected[:, small].sum(axis=1)))
    return _chi2_sf(float(((observed - expected) ** 2 / expected).sum()), observed.shape[1] - 1)


class TestDrawLayoutLaw:
    """_run_batches draws only the players who can decide a batch; the law oracle
    draws every player's uniform and flip.  Seeded two-sample tests with bands
    fixed beforehand: declare rates within 4 SE, and a chi-square homogeneity
    test on the declared symbols (bins expected below 5 pooled) at p >= 1e-4."""

    T = 20_000

    @pytest.mark.parametrize(
        "probs, ell",
        [*FIXED_CELLS, (paninski(PaninskiParam(k=64, eps=0.3, theta=np.resize([1, -1], 32))).probs, 1),
         (SKEWED, 1), (ONE_BLOCK, 3)],
    )
    def test_same_law_as_every_player(self, probs, ell):
        q = split_duplicate(Pmf(k=len(probs), probs=np.asarray(probs, dtype=float)))
        s = block_size(len(probs), ell)
        declared, every = _every_player_batches(q.probs, s, self.T, np.random.default_rng(12))
        runs = [_run_batches(*_block_bounds(q.probs, s), self.T, np.random.default_rng(11)),
                (np.flatnonzero(declared), every[declared])]
        rates = [rows.size / self.T for rows, _ in runs]
        pooled = sum(rates) / 2
        assert abs(rates[0] - rates[1]) <= 4 * math.sqrt(pooled * (1 - pooled) * 2 / self.T)
        counts = np.array([np.bincount(symbols, minlength=q.k) for _, symbols in runs])
        counts = counts[:, counts.sum(axis=0) > 0]
        expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)) / counts.sum()
        assert _chi2_p(counts, expected) >= 1e-4


class _RecordingRng:
    """Passes every draw on to a Generator and records how many values it returned."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def recorded(*args, **kwargs):
            out = draw(*args, **kwargs)
            self.sizes.append(np.size(out))
            return out

        return recorded


class TestSimulateManyLaw:
    """The stream of chunks against the closed forms, with bands fixed beforehand:
    mean batches_used within 4 SE of 1 / flip_rho, and a chi-square of the
    symbols against p (bins expected below 5 pooled) at p >= 1e-4."""

    COUNT = 20_000

    @pytest.mark.parametrize(
        "probs, ell",
        [(SKEWED, 1), (ONE_BLOCK, 3), (uniform(1024).probs, 2),
         (paninski(PaninskiParam(k=64, eps=0.3, theta=np.resize([1, -1], 32))).probs, 2)],
        ids=["skewed-40-1", "one-block-3-3", "uniform-1024-2", "paninski-64-2"],
    )
    def test_batches_and_symbols(self, probs, ell):
        p = Pmf(k=len(probs), probs=np.asarray(probs, dtype=float))
        q = split_duplicate(p)
        rate = flip_rho([q.probs[blk].sum() for blk in contiguous_blocks(q.k, 2**ell - 1)])
        outs = simulate_many(p, ell, self.COUNT, np.random.default_rng(16))
        batches = np.array([o.batches_used for o in outs], dtype=float)
        assert abs(batches.mean() - 1 / rate) <= 4 * math.sqrt((1 - rate) / rate**2 / self.COUNT)
        counts = np.bincount([o.symbol for o in outs], minlength=p.k)
        support = p.probs > 0
        assert not counts[~support].any()
        assert _chi2_p(counts[support], self.COUNT * p.probs[support]) >= 1e-4

    @pytest.mark.parametrize("probs", [uniform(1024).probs, np.eye(1024)[0]], ids=["uniform", "point-mass"])
    def test_no_draw_asks_for_more_than_2_to_the_20(self, probs):
        # At the point mass, one block holds all the mass: every grid cell is a
        # candidate, so the chunk cap must bound the candidates, not only the rows.
        rng = _RecordingRng(np.random.default_rng(5))
        outs = simulate_many(Pmf(k=1024, probs=probs), 2, 5_000, rng)
        assert len(outs) == 5_000 and max(rng.sizes) <= 2**20


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
            assert type(o) is SimOutcome and o._fields == ("symbol", "players_used", "batches_used")
            assert o.players_used == o.batches_used * batch_players
            assert o.batches_used >= 1
            assert o == SimOutcome(symbol=o.symbol, players_used=o.players_used, batches_used=o.batches_used)

    def test_mean_players_under_bound(self):
        p = uniform(16)
        outs = simulate_many(p, 1, 3000, np.random.default_rng(3))
        players = np.array([o.players_used for o in outs], dtype=float)
        assert players.mean() + 3 * players.std() / np.sqrt(players.size) <= player_bound(16, 1)

    def test_samples_read_one_stream_of_chunks(self, monkeypatch):
        # A draw cap of 64 values cuts the stream into chunks of a few batches.
        # Sample i is the i-th declaring batch of the chunks laid end to end,
        # its batches_used the gap since the one before, and a sample whose gap
        # exceeds player_cap // batch_players raises, wherever the chunks cut.
        monkeypatch.setattr(simulate, "_MAX_DRAW", 64)
        chunks = []

        def recorded(cdf, lo, hi, T, rng):
            rows, symbols = _run_batches(cdf, lo, hi, T, rng)
            chunks.append((T, rows, symbols))
            return rows, symbols

        monkeypatch.setattr(simulate, "_run_batches", recorded)
        outs = simulate_many(uniform(16), 2, 300, np.random.default_rng(8))
        starts = np.cumsum([0] + [T for T, _, _ in chunks])
        at = np.concatenate([start + rows for start, (_, rows, _) in zip(starts, chunks)])[:300]
        assert len(chunks) > 20 and starts[-1] - 1 - at[-1] < chunks[-1][0]
        assert [o.batches_used for o in outs] == np.diff(at, prepend=-1).tolist()
        assert [o.symbol for o in outs] == (np.concatenate([s for _, _, s in chunks])[:300] // 2).tolist()
        cap = max(o.players_used for o in outs)
        assert simulate_many(uniform(16), 2, 300, np.random.default_rng(8), player_cap=cap) == outs
        with pytest.raises(PlayerCapExceeded):
            simulate_many(uniform(16), 2, 300, np.random.default_rng(8), player_cap=cap - 1)

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
        assert res.counts.sum() == res.successes and res.counts[1] == 0

    def test_point_mass(self):
        # [TRIVIAL] a point mass is always simulated to its only symbol.
        p = Pmf(k=3, probs=np.array([0.0, 1.0, 0.0]))
        outs = simulate_many(p, 2, 20, np.random.default_rng(4))
        assert all(o.symbol == 1 for o in outs)
