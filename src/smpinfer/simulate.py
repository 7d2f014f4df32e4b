"""Distributed simulation of one sample from an unknown p with ell-bit messages.

The scheme: duplicate the alphabet (q(2i) = q(2i+1) = p_i/2), partition the
duplicated alphabet into blocks of size at most 2^ell - 1, and assign two
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
    "simulate_sample",
    "simulate_many",
    "player_bound",
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


def _block_lookup(k: int, blocks: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-symbol (block index, 1-based position within block)."""
    blk_of = np.full(k, -1, dtype=np.int64)
    pos_of = np.zeros(k, dtype=np.int64)
    for j, members in enumerate(blocks):
        members = np.asarray(members, dtype=np.int64)
        blk_of[members] = j
        pos_of[members] = np.arange(1, members.size + 1)
    if np.any(blk_of < 0):
        raise ValueError("blocks must cover the alphabet")
    return blk_of, pos_of


def _run_batches(
    probs: np.ndarray,
    blocks: list[np.ndarray],
    T: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Run T independent batches; return (declared flags, declared symbols).

    Each batch uses 2*len(blocks) players (a primary and a secondary per block).
    """
    m = len(blocks)
    k = probs.size
    blk_of, pos_of = _block_lookup(k, blocks)
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    # samples[t, 0, j] is the primary player of block j in batch t.
    samples = np.searchsorted(cdf, rng.random((T, 2, m)), side="right")
    in_own_block = blk_of[samples] == np.arange(m)
    msgs = np.where(in_own_block, pos_of[samples], 0)
    # Referee flips each nonzero message to zero with probability 1/2.
    msgs[(msgs > 0) & (rng.random((T, 2, m)) < 0.5)] = 0
    primary = msgs[:, 0, :]
    nonzero = primary > 0
    counts = nonzero.sum(axis=1)
    winner = np.argmax(nonzero, axis=1)
    sec_zero = msgs[np.arange(T), 1, winner] == 0
    declared = (counts == 1) & sec_zero
    first = np.concatenate([b for b in blocks])  # symbols in block order
    offsets = np.cumsum([0] + [len(b) for b in blocks[:-1]])
    symbols = np.where(
        declared, offsets[winner] + primary[np.arange(T), winner] - 1, -1
    )
    # offsets[j] + (pos-1) indexes into the concatenated block list.
    symbols = np.where(declared, first[np.clip(symbols, 0, None)], -1)
    return declared, symbols


def simulate_many(
    p: Pmf,
    ell: int,
    count: int,
    rng: np.random.Generator,
    player_cap: int = PLAYER_CAP,
) -> list[SimOutcome]:
    """Simulate `count` i.i.d. samples from p, batching across samples per round."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if count == 0:
        return []
    q = split_duplicate(p)
    s = 2**ell - 1
    blocks = contiguous_blocks(q.k, s)
    batch_players = 2 * len(blocks)
    max_batches = player_cap // batch_players
    symbols = np.full(count, -1, dtype=np.int64)
    batches = np.zeros(count, dtype=np.int64)
    active = np.arange(count)
    rounds = 0
    while active.size:
        rounds += 1
        if rounds > max_batches:
            raise PlayerCapExceeded(
                f"{active.size} sample(s) still undeclared after {player_cap} players each"
            )
        declared, syms = _run_batches(q.probs, blocks, active.size, rng)
        batches[active] += 1
        hit = active[declared]
        symbols[hit] = syms[declared] // 2  # merge duplicate pairs back to [k]
        active = active[~declared]
    return [
        SimOutcome(
            symbol=int(symbols[i]),
            players_used=int(batches[i]) * batch_players,
            batches_used=int(batches[i]),
        )
        for i in range(count)
    ]


def simulate_sample(p: Pmf, ell: int, rng: np.random.Generator) -> SimOutcome:
    """Simulate one sample distributed exactly as p."""
    return simulate_many(p, ell, 1, rng)[0]
