"""Distributed simulation of one sample from an unknown p with ell-bit messages.

The scheme: duplicate the alphabet (q(2i) = q(2i+1) = p_i/2), cut the
duplicated alphabet into contiguous blocks of 2^ell - 1 symbols (the last may
be shorter), and assign two players (a primary and a secondary) to each block.
A player whose sample lies in its block sends the sample's 1-based index within
the block, otherwise the all-zero message.  The referee flips each nonzero
message to zero independently with probability 1/2 and declares a symbol only
when exactly one primary message survives nonzero and that block's secondary
message is zero.  Conditioned on declaring, the symbol is distributed exactly
as q (hence, after merging duplicate pairs, exactly as p); otherwise the batch
aborts and a fresh batch of players runs.  A batch declares with probability
`flip_rho` of q's block masses, independently of the symbol it declares, so
the index of the first declaring batch is geometric and independent of it.

`simulate_many` draws only what can decide a batch.  A primary outside its
block sends zero, which the referee never flips, so only in-block primaries are
drawn: a Bernoulli process per block over a chunk of batches, then a referee
coin each, then the secondary of a block whose primary is the lone survivor.
Every player of a batch is counted, drawn or not.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dist import Pmf, split_duplicate

__all__ = [
    "SimOutcome",
    "PlayerCapExceeded",
    "PLAYER_CAP",
    "contiguous_blocks",
    "rho",
    "flip_rho",
    "simulate_many",
    "player_bound",
    "batch_players",
]

PLAYER_CAP = 10**6
_MAX_DRAW = 2**20  # values one draw may ask for; bounds the memory of a chunk of batches


class PlayerCapExceeded(RuntimeError):
    """A Las Vegas run consumed the hard player cap without declaring a sample."""


class SimOutcome(NamedTuple):
    symbol: int
    players_used: int
    batches_used: int


def contiguous_blocks(k: int, s: int) -> list[np.ndarray]:
    """Partition [k] into contiguous chunks of size <= s (last chunk may be short)."""
    if s < 1:
        raise ValueError("block size must be >= 1")
    return [np.arange(start, min(start + s, k)) for start in range(0, k, s)]


def player_bound(k: int, ell: int) -> float:
    """The asserted expected-player bound 20 * ceil(k / (2^ell - 1))."""
    s = 2**ell - 1
    return 20.0 * -(-k // s)


def _block_masses(block_probs) -> np.ndarray:
    """Validated block masses, with float dust above 1 clipped."""
    b = np.asarray(block_probs, dtype=np.float64)
    if np.any(b < 0) or b.sum() > 1 + 1e-9:
        raise ValueError("block masses must lie in [0,1] and sum to at most 1")
    return np.minimum(b, 1.0)


def rho(block_probs) -> float:
    """Per-batch declaration probability of the no-flip scheme: prod_j (1 - p(S_j))."""
    return float(np.prod(1.0 - _block_masses(block_probs)))


def flip_rho(block_probs) -> float:
    """Per-batch declaration probability of the flip scheme: (sum_j b_j / 2) prod_j (1 - b_j/2).

    Block j's primary survives nonzero with probability b_j/2 and its
    secondary is zero with probability 1 - b_j/2, so exactly one primary
    survives with its secondary zero with this probability.  For the block
    masses b of split_duplicate(p), sum_j b_j = 1 and this is
    (1/2) prod_j (1 - b_j/2), which lies in [1/4, 1/2].
    """
    b = _block_masses(block_probs)
    return float(0.5 * b.sum() * np.prod(1.0 - 0.5 * b))


def batch_players(k: int, ell: int) -> int:
    """Players in one batch: a primary and a secondary per block of the duplicated [2k]."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return 2 * -(-2 * k // (2**ell - 1))


def _block_bounds(probs: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cdf, lo, hi): the CDF, scaled to end at exactly 1 and so nondecreasing despite cumsum dust,
    and each block's CDF interval [lo_j, hi_j)."""
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    hi = cdf[np.minimum(np.arange(s, probs.size + s, s), probs.size) - 1]
    return cdf, np.concatenate(([0.0], hi[:-1])), hi


def _run_batches(probs: np.ndarray, s: int, T: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Run T independent batches; return (declared flags, declared symbols).

    Symbol x lies in block x // s; a player's sample lies in its block j with
    probability b_j = hi_j - lo_j.  Primaries sit on the row-major (batch, block)
    grid.  Five draws, in this order: rng.geometric(b_max, size) gaps, in calls
    of at most _MAX_DRAW until they pass the grid's end, place a Bernoulli(b_max)
    process of candidates; rng.random(e), one per candidate, keeps one of block
    j iff below b_j / b_max, so primary j is in its block with probability b_j;
    rng.integers(0, 2, e', dtype=bool), each in-block primary's referee coin
    (True keeps); for the c rows with exactly one survivor, rng.random(c) < b_j
    and rng.integers(0, 2, c, dtype=bool), the secondary's in-block event and
    coin (the batch declares iff it does not survive); rng.random(d), placing
    each declared winner's sample uniformly in [lo_j, hi_j) for searchsorted,
    held below hi_j so it never leaves the block or lands on a zero mass.
    """
    cdf, lo, hi = _block_bounds(probs, s)
    m, b = hi.size, hi - lo
    bmax, cells = b.max(), T * m
    size = min(_MAX_DRAW, int(cells * bmax + 6 * (cells * bmax) ** 0.5) + 16)
    at = [np.cumsum(rng.geometric(bmax, size))]  # 1-based cell positions
    while at[-1][-1] < cells:
        at.append(at[-1][-1] + np.cumsum(rng.geometric(bmax, size)))
    at = np.concatenate(at)
    at = at[: np.searchsorted(at, cells, side="right")] - 1
    at = at[rng.random(at.size) < (b / bmax)[at % m]]
    at = at[rng.integers(0, 2, at.size, dtype=bool)]
    row = at // m
    lone = np.bincount(row, minlength=T)[row] == 1
    rows, winner = row[lone], at[lone] % m
    sec_alive = (rng.random(rows.size) < b[winner]) & rng.integers(0, 2, rows.size, dtype=bool)
    rows, winner = rows[~sec_alive], winner[~sec_alive]
    point = np.minimum(lo[winner] + rng.random(rows.size) * b[winner], np.nextafter(hi[winner], 0.0))
    declared = np.zeros(T, dtype=bool)
    declared[rows] = True
    symbols = np.full(T, -1, dtype=np.int64)
    symbols[rows] = np.searchsorted(cdf, point, side="right")
    return declared, symbols


def simulate_many(
    p: Pmf, ell: int, count: int, rng: np.random.Generator, player_cap: int = PLAYER_CAP
) -> list[SimOutcome]:
    """Simulate `count` i.i.d. samples from p; players_used counts every batch player, drawn or not.

    Batches run as one stream, in chunks sized at rate flip_rho for the samples
    still needed and capped so that a chunk's expected candidates are at most
    _MAX_DRAW / 4.  Sample i is the i-th declaring batch, and its batches_used
    counts the batches since the previous one: batches are i.i.d., so these are
    i.i.d. geometric and independent of the symbols.  Batches after the last
    needed declaration are discarded uncounted.  A sample that needs more than
    player_cap players raises PlayerCapExceeded.
    """
    players = batch_players(p.k, ell)
    q = split_duplicate(p)
    s = 2**ell - 1
    _, lo, hi = _block_bounds(q.probs, s)
    rate, most_rows = flip_rho(hi - lo), max(1, int(_MAX_DRAW / 4 / (hi.size * (hi - lo).max())))
    most_batches = player_cap // players
    symbols, batches = np.empty(count, dtype=np.int64), np.empty(count, dtype=np.int64)
    done = since = 0  # samples declared; batches run since the last declaration
    while done < count:
        need = count - done
        declared, syms = _run_batches(q.probs, s, min(most_rows, int((need + 3 * need**0.5) / rate) + 1), rng)
        rows = np.flatnonzero(declared)[:need]
        gaps = np.diff(rows, prepend=-1)
        gaps[:1] += since
        since = declared.size - 1 - rows[-1] if rows.size else since + declared.size
        if np.any(gaps > most_batches) or (rows.size < need and since >= most_batches):
            raise PlayerCapExceeded(f"a sample is still undeclared after {player_cap} players")
        symbols[done : done + rows.size] = syms[rows] // 2  # merge duplicate pairs back to [k]
        batches[done : done + rows.size] = gaps
        done += rows.size
    return list(map(SimOutcome, symbols.tolist(), (batches * players).tolist(), batches.tolist()))
