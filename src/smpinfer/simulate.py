"""Distributed simulation of one sample from an unknown p with ell-bit messages.

The scheme: duplicate the alphabet (q(2i) = q(2i+1) = p_i/2), cut the
duplicated alphabet into contiguous blocks of 2^ell - 1 symbols (the last may
be shorter), and assign two
players (a primary and a secondary) to each block.  A player whose sample lies
in its block sends the sample's 1-based index within the block, otherwise the
all-zero message.  The referee flips each nonzero message to zero independently
with probability 1/2 and declares a symbol only when exactly one primary
message survives nonzero and that block's secondary message is zero.
Conditioned on declaring, the symbol is distributed exactly as q (hence, after
merging duplicate pairs, exactly as p); otherwise the batch aborts and a fresh
batch of players runs.  A batch declares with probability `flip_rho` of q's
block masses, independently of the symbol it declares, so the index of the
first declaring batch is geometric and independent of the declared symbol.

`simulate_many` runs this scheme player by player: every player draws its own
uniform, message and flip.  A player's message is nonzero iff its inverse-CDF
sample lies in its block, which depends on the uniform only through the
block's CDF interval, so that is the test each player makes; a sample is
resolved to its symbol only when its batch declares.
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

    The blocks are s contiguous symbols each: symbol x lies in block x // s at
    1-based position x % s + 1.  Each batch uses batch_players players, and
    each player draws one uniform u whose inverse-CDF image is its sample.  The
    sample lies in the player's block j iff lo_j <= u < hi_j, with hi_j the CDF
    at the block's last symbol and lo_j = hi_{j-1} (lo_0 = 0), so whether the
    message is nonzero is read off u directly.  Only a declaring batch's
    winning sample is resolved to its symbol.
    """
    m = -(-probs.size // s)
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    hi = cdf[np.minimum(np.arange(1, m + 1) * s, probs.size) - 1]
    lo = np.concatenate(([0.0], hi[:-1]))
    # u[t, 0, j] is the primary player of block j in batch t.
    u = rng.random((T, 2, m))
    nonzero = (u >= lo) & (u < hi)
    # Referee flips each nonzero message to zero with probability 1/2.
    nonzero &= rng.random((T, 2, m)) >= 0.5
    counts = nonzero[:, 0, :].sum(axis=1)
    winner = np.argmax(nonzero[:, 0, :], axis=1)
    rows = np.arange(T)
    declared = (counts == 1) & ~nonzero[rows, 1, winner]
    symbols = np.full(T, -1, dtype=np.int64)
    symbols[declared] = np.searchsorted(cdf, u[rows[declared], 0, winner[declared]], side="right")
    return declared, symbols


def simulate_many(
    p: Pmf,
    ell: int,
    count: int,
    rng: np.random.Generator,
    player_cap: int = PLAYER_CAP,
) -> list[SimOutcome]:
    """Simulate `count` i.i.d. samples from p player by player, batching across samples per round."""
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
    return [
        SimOutcome(sym, b * players, b)
        for sym, b in zip(symbols.tolist(), batches.tolist())
    ]
