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
batch of players runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import Pmf, split_duplicate

__all__ = [
    "SimOutcome",
    "PlayerCapExceeded",
    "PLAYER_CAP",
    "contiguous_blocks",
    "rho",
    "simulate_many",
    "player_bound",
    "batch_players",
]

PLAYER_CAP = 10**6


class PlayerCapExceeded(RuntimeError):
    """A Las Vegas run consumed the hard player cap without declaring a sample."""


@dataclass(frozen=True)
class SimOutcome:
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


def rho(block_probs) -> float:
    """Per-batch declaration probability of the no-flip scheme: prod_j (1 - p(S_j))."""
    b = np.asarray(block_probs, dtype=np.float64)
    if np.any(b < 0) or np.any(b > 1) or b.sum() > 1 + 1e-9:
        raise ValueError("block masses must lie in [0,1] and sum to at most 1")
    return float(np.prod(1.0 - b))


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
    1-based position x % s + 1.  Each batch uses batch_players players.
    """
    m = -(-probs.size // s)
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    # samples[t, 0, j] is the primary player of block j in batch t.
    samples = np.searchsorted(cdf, rng.random((T, 2, m)), side="right")
    msgs = np.where(samples // s == np.arange(m), samples % s + 1, 0)
    # Referee flips each nonzero message to zero with probability 1/2.
    msgs[(msgs > 0) & (rng.random((T, 2, m)) < 0.5)] = 0
    primary = msgs[:, 0, :]
    nonzero = primary > 0
    counts = nonzero.sum(axis=1)
    winner = np.argmax(nonzero, axis=1)
    sec_zero = msgs[np.arange(T), 1, winner] == 0
    declared = (counts == 1) & sec_zero
    symbols = np.where(declared, winner * s + primary[np.arange(T), winner] - 1, -1)
    return declared, symbols


def _simulate(
    p: Pmf, ell: int, count: int, max_batches: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Run batches for `count` samples until each declares or has run max_batches batches.

    Returns (symbols, batches): the declared symbol of each sample, -1 where
    none was declared, and the batches each sample ran.
    """
    q = split_duplicate(p)
    s = 2**ell - 1
    symbols = np.full(count, -1, dtype=np.int64)
    batches = np.zeros(count, dtype=np.int64)
    active = np.arange(count)
    for _ in range(max_batches):
        if not active.size:
            break
        declared, syms = _run_batches(q.probs, s, active.size, rng)
        batches[active] += 1
        symbols[active[declared]] = syms[declared] // 2  # merge duplicate pairs back to [k]
        active = active[~declared]
    return symbols, batches


def simulate_many(
    p: Pmf,
    ell: int,
    count: int,
    rng: np.random.Generator,
    player_cap: int = PLAYER_CAP,
) -> list[SimOutcome]:
    """Simulate `count` i.i.d. samples from p, batching across samples per round."""
    players = batch_players(p.k, ell)
    symbols, batches = _simulate(p, ell, count, player_cap // players, rng)
    undeclared = int(np.sum(symbols < 0))
    if undeclared:
        raise PlayerCapExceeded(f"{undeclared} sample(s) still undeclared after {player_cap} players each")
    return [
        SimOutcome(symbol=sym, players_used=b * players, batches_used=b)
        for sym, b in zip(symbols.tolist(), batches.tolist())
    ]
