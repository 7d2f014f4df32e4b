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
block sends zero, which the referee never flips, so primary j survives nonzero
with probability b_j/2 (in its block, then kept by the coin), and that one
event is all it draws.  Four draws decide a chunk of batches, in this order:
geometric gaps at rate b_max/2 place candidates on the (batch, block) grid;
one uniform per candidate keeps it iff below b_j/b_max, leaving the surviving
primaries; in each batch with exactly one survivor, one uniform below b_j/2 is
that block's secondary surviving, and the batch declares iff it does not; and
one uniform per declaring batch places its sample in the winner's block.
Every player of a batch is counted, drawn or not.  A block never needs more
symbols than the duplicated alphabet holds, so its size is capped at 2k
(`block_size`), and every ell with 2^ell - 1 >= 2k runs as the same one block.
"""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple

import numpy as np

from .dist import Pmf

__all__ = [
    "SimOutcome",
    "PlayerCapExceeded",
    "PLAYER_CAP",
    "contiguous_blocks",
    "block_size",
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


def block_size(k: int, ell: int) -> int:
    """Symbols per block of the duplicated [2k]: 2^ell - 1, capped at 2k (one block covers it all)."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return min(2**ell - 1, 2 * k)


def batch_players(k: int, ell: int) -> int:
    """Players in one batch: a primary and a secondary per block of the duplicated [2k]."""
    return 2 * -(-2 * k // block_size(k, ell))


def _block_bounds(probs: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cdf, lo, hi): the CDF, scaled to end at exactly 1 and so nondecreasing despite cumsum dust,
    and each block's CDF interval [lo_j, hi_j)."""
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    hi = cdf[np.minimum(np.arange(s, probs.size + s, s), probs.size) - 1]
    return cdf, np.concatenate(([0.0], hi[:-1])), hi


def _run_batches(
    cdf: np.ndarray, lo: np.ndarray, hi: np.ndarray, T: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Run T independent batches; return the declaring batches' indices, ascending, and their symbols.

    (cdf, lo, hi) are _block_bounds of the duplicated alphabet: symbol x lies in
    block x // s, and a player's sample lies in its block j with probability
    b_j = hi_j - lo_j.  Primaries sit on the row-major (batch, block) grid.  Four
    draws, in this order: rng.geometric(b_max / 2, size) gaps, in calls of at
    most _MAX_DRAW until they pass the grid's end, place a Bernoulli(b_max / 2)
    process of candidates; rng.random(e), one per candidate, keeps one of block
    j iff below b_j / b_max, so primary j survives nonzero (in its block, and
    kept by the referee's coin) with probability b_j / 2; for the c rows with
    exactly one survivor, rng.random(c) < b_j / 2 is the secondary surviving
    nonzero (the batch declares iff it does not); rng.random(d), placing each
    declared winner's sample uniformly in [lo_j, hi_j) for searchsorted, held
    below hi_j so it never leaves the block or lands on a zero mass.
    """
    m, b = hi.size, hi - lo
    bmax, cells = b.max(), T * m
    rate = 0.5 * bmax
    size = min(_MAX_DRAW, int(cells * rate + 6 * (cells * rate) ** 0.5) + 16)
    at = [np.cumsum(rng.geometric(rate, size))]  # 1-based cell positions
    while at[-1][-1] < cells:
        at.append(at[-1][-1] + np.cumsum(rng.geometric(rate, size)))
    at = np.concatenate(at)
    at = at[: np.searchsorted(at, cells, side="right")] - 1
    at = at[rng.random(at.size) < (b / bmax)[at % m]]
    row = at // m
    lone = np.bincount(row, minlength=T)[row] == 1
    rows, winner = row[lone], at[lone] % m
    sec_zero = rng.random(rows.size) >= 0.5 * b[winner]
    rows, winner = rows[sec_zero], winner[sec_zero]
    point = np.minimum(lo[winner] + rng.random(rows.size) * b[winner], np.nextafter(hi[winner], 0.0))
    return rows, np.searchsorted(cdf, point, side="right")


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
    # The duplicated alphabet's CDF: _block_bounds scales it to end at 1, so its masses are p_i / 2.
    cdf, lo, hi = _block_bounds(np.repeat(p.probs, 2), block_size(p.k, ell))
    b = hi - lo
    rate, most_rows = flip_rho(b), max(1, int(_MAX_DRAW / 2 / (b.size * b.max())))
    most_batches = player_cap // players
    symbols, batches = np.empty(count, dtype=np.int64), np.empty(count, dtype=np.int64)
    done = since = 0  # samples declared; batches run since the last declaration
    while done < count:
        need = count - done
        T = min(most_rows, int((need + 3 * need**0.5) / rate) + 1)
        rows, syms = _run_batches(cdf, lo, hi, T, rng)
        rows, syms = rows[:need], syms[:need]
        gaps = np.diff(rows, prepend=-1)
        gaps[:1] += since
        since = T - 1 - rows[-1] if rows.size else since + T
        if np.any(gaps > most_batches) or (rows.size < need and since >= most_batches):
            raise PlayerCapExceeded(f"a sample is still undeclared after {player_cap} players")
        symbols[done : done + rows.size] = syms // 2  # merge duplicate pairs back to [k]
        batches[done : done + rows.size] = gaps
        done += rows.size
    # SimOutcome._make per sample, without a Python-level __new__ call for each.
    fields = zip(symbols.tolist(), (batches * players).tolist(), batches.tolist())
    return list(map(tuple.__new__, repeat(SimOutcome, count), fields))
