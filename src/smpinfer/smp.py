"""Simultaneous message-passing primitives: message maps, public coins, verdicts, streams.

Each of n players holds one i.i.d. sample from an unknown distribution and
sends a single ell-bit message to a referee; the referee decides from the
messages alone (private-coin mode) or from the messages plus a shared public
coin record (public-coin mode).

A message map is a `dist.Partition`: a deterministic ell-bit map is
Partition(k, 2**ell, assign), a player holding x sends assign[x], and parts
may be empty.  Every referee statistic is a symmetric function of the
messages, so referees read message counts: a public-coin draw returns its
message map, and `play` draws the message counts of n players under it.

Randomness discipline: everything derives from a master seed.  A trial is one
protocol run, and `trial_streams(master seed, cell, trial)` splits its keyed
seed into three streams: instance draws, the protocol's own draws (players and
referee), and the public coins, whose draws are charged at their encoding
length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dist import Partition, Pmf, flatten

__all__ = [
    "Verdict",
    "PublicCoins",
    "indicator",
    "play",
    "trial_seed_seq",
    "trial_streams",
]

# Stream namespaces under the master seed.  Every derived seed depends on
# these values, so they never change.
_NS_PUBLIC = 0
_NS_TRIAL = 3


@dataclass
class PublicCoins:
    """Shared randomness: one seeded stream that players and referee all read.

    bits_used charges each structured draw at its encoding length.
    """

    seed_seq: np.random.SeedSequence
    bits_used: int = 0

    def __post_init__(self):
        self._rng = np.random.default_rng(self.seed_seq)

    def balanced_partition(self, k: int, L: int) -> Partition:
        """Uniformly random partition of [k] into L parts, sizes differing by <= 1."""
        if L > k:
            raise ValueError("need L <= k")
        perm = self._rng.permutation(k)
        # Part r takes the next sizes[r] symbols of perm; the first k mod L parts get one extra.
        sizes = np.full(L, k // L, dtype=np.int64)
        sizes[: k % L] += 1
        assign = np.empty(k, dtype=np.int64)
        assign[perm] = np.repeat(np.arange(L), sizes)
        self.bits_used += k * max(1, math.ceil(math.log2(L)) if L > 1 else 1)
        return Partition(k=k, L=L, assign=assign)

    def subset(self, k: int, s: int) -> Partition:
        """Uniformly random s-subset S of [k], as the map x -> 1-based position in S, else 0."""
        if not 1 <= s <= k:
            raise ValueError("need 1 <= s <= k")
        members = np.sort(self._rng.choice(k, size=s, replace=False))
        self.bits_used += s * max(1, math.ceil(math.log2(k)) if k > 1 else 1)
        assign = np.zeros(k, dtype=np.int64)
        assign[members] = np.arange(1, s + 1)
        return Partition(k=k, L=s + 1, assign=assign)

    def element(self, k: int) -> Partition:
        """Uniformly random element x of [k], as the one-bit indicator map of x."""
        x = int(self._rng.integers(k))
        self.bits_used += max(1, math.ceil(math.log2(k)) if k > 1 else 1)
        return indicator(k, x)


def indicator(k: int, x: int) -> Partition:
    """The one-bit message map that sends 1 iff the sample is x."""
    return Partition(k=k, L=2, assign=np.arange(k) == x)


def play(p: Pmf, part: Partition, n: int, rng: np.random.Generator) -> np.ndarray:
    """Message counts of n i.i.d. players holding samples of p who send part.assign[x]."""
    return rng.multinomial(n, flatten(p, part).probs)


def trial_seed_seq(master_seed: int, cell_index: int, trial_index: int) -> np.random.SeedSequence:
    """Per-trial seed: a keyed derivation of (master seed, cell, trial)."""
    return np.random.SeedSequence(master_seed, spawn_key=(_NS_TRIAL, cell_index, trial_index))


def trial_streams(
    master_seed: int, cell_index: int, trial_index: int
) -> tuple[np.random.Generator, np.random.Generator, PublicCoins]:
    """One trial's (instance rng, protocol rng, public coins), spawned in that order."""
    inst_ss, proto_ss, coin_ss = trial_seed_seq(master_seed, cell_index, trial_index).spawn(3)
    return np.random.default_rng(inst_ss), np.random.default_rng(proto_ss), PublicCoins(coin_ss)


def public_coins(master_seed: int, *key: int) -> PublicCoins:
    return PublicCoins(np.random.SeedSequence(master_seed, spawn_key=(_NS_PUBLIC, *key)))


@dataclass
class Verdict:
    """A referee decision: accept_uniform or reject (testers), estimate (learners), abort (inconclusive)."""

    decision: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.decision not in ("accept_uniform", "reject", "abort", "estimate"):
            raise ValueError(f"unknown decision {self.decision!r}")
