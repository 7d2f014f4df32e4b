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

`simulate_many` draws only what can decide a batch: each primary's uniform and
referee coin, and the secondary of a block whose primary is the only survivor.
No other secondary can change the outcome, so it is counted but never drawn.
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


def _run_batches(
    probs: np.ndarray,
    s: int,
    T: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Run T independent batches; return (declared flags, declared symbols).

    Symbol x lies in block x // s at 1-based position x % s + 1.  A player's
    inverse-CDF sample of its uniform u lies in its block j iff lo_j <= u < hi_j
    (hi_j the CDF at the block's last symbol, lo_j = hi_{j-1}, lo_0 = 0), and
    the player survives iff it does and the referee's fair coin keeps it (True).
    Four draws, in this order: rng.random((T, m)), each primary's uniform;
    rng.integers(0, 2, (T, m), dtype=bool), each primary's coin; then, for the
    c rows with exactly one surviving primary, rng.random(c) and
    rng.integers(0, 2, c, dtype=bool), that block's secondary's uniform and
    coin.  A batch declares iff that secondary does not survive.  Only a
    declared winner's uniform is resolved to its symbol.
    """
    m = -(-probs.size // s)
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    hi = cdf[np.minimum(np.arange(1, m + 1) * s, probs.size) - 1]
    lo = np.concatenate(([0.0], hi[:-1]))
    u = rng.random((T, m))
    alive = (u >= lo) & (u < hi) & rng.integers(0, 2, (T, m), dtype=bool)
    rows = np.flatnonzero(np.count_nonzero(alive, axis=1) == 1)
    winner = np.argmax(alive[rows], axis=1)
    v = rng.random(rows.size)
    sec_alive = (v >= lo[winner]) & (v < hi[winner]) & rng.integers(0, 2, rows.size, dtype=bool)
    rows, winner = rows[~sec_alive], winner[~sec_alive]
    declared = np.zeros(T, dtype=bool)
    declared[rows] = True
    symbols = np.full(T, -1, dtype=np.int64)
    symbols[rows] = np.searchsorted(cdf, u[rows, winner], side="right")
    return declared, symbols


def simulate_many(
    p: Pmf,
    ell: int,
    count: int,
    rng: np.random.Generator,
    player_cap: int = PLAYER_CAP,
) -> list[SimOutcome]:
    """Simulate `count` i.i.d. samples from p; players_used counts every batch player, drawn or not."""
    players = batch_players(p.k, ell)
    q = split_duplicate(p)
    s = 2**ell - 1
    symbols = np.full(count, -1, dtype=np.int64)
    batches = np.zeros(count, dtype=np.int64)
    active = np.arange(count)
    for _ in range(player_cap // players):
        if not active.size:
            break
        declared, syms = _run_batches(q.probs, s, active.size, rng)
        batches[active] += 1
        symbols[active[declared]] = syms[declared] // 2  # merge duplicate pairs back to [k]
        active = active[~declared]
    undeclared = int(np.sum(symbols < 0))
    if undeclared:
        raise PlayerCapExceeded(f"{undeclared} sample(s) still undeclared after {player_cap} players each")
    return list(map(SimOutcome, symbols.tolist(), (batches * players).tolist(), batches.tolist()))
