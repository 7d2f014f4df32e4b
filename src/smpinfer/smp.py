"""Simultaneous message-passing primitives: message maps, public coins, verdicts, streams.

Each of n players holds one i.i.d. sample from an unknown distribution and
sends a single ell-bit message to a referee; the referee decides from the
messages alone (private-coin mode) or from the messages plus a shared public
coin record (public-coin mode).

A message map is a `dist.Partition`: a deterministic ell-bit map is
Partition(k, 2**ell, assign), a player holding x sends assign[x], and parts
may be empty.  Every referee statistic is a symmetric function of the
messages, so referees read message counts: a public-coin draw returns its
message map, and `play` draws the message counts of n players under it.  A
one-bit indicator map's counts are one binomial draw, so `play_indicators`
draws the one-counts of several indicator maps straight from p, with the very
draws `play` makes under each map.

Randomness discipline: everything derives from a master seed.  A trial is one
protocol run, and `TrialStreams(master seed, cell, trial)` holds the three
streams of its keyed seed: instance draws, the protocol's own draws (players
and referee), and the public coins, whose draws are charged at their encoding
length.  Each stream is built on first use, so a trial pays only for the
streams it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dist import Partition, Pmf, flatten

__all__ = [
    "Verdict",
    "PublicCoins",
    "TrialStreams",
    "indicator",
    "play",
    "play_indicators",
    "trial_seed_seq",
]

# Stream namespaces under the master seed.  Every derived seed depends on
# these values, so they never change.
_NS_PUBLIC = 0
_NS_TRIAL = 3


def _draw_bits(m: int) -> int:
    """The encoding length of one uniform draw from m values: ceil(log2 m), at least 1."""
    return max(1, math.ceil(math.log2(m)))


@dataclass
class PublicCoins:
    """Shared randomness: one seeded stream that players and referee all read.

    bits_used charges each structured draw at its encoding length.  Each draw
    checks its arguments and returns a map it built itself, so the map skips
    Partition's validation.
    """

    seed_seq: np.random.SeedSequence
    bits_used: int = 0

    @cached_property
    def _rng(self) -> np.random.Generator:
        # Built on the first draw: coins that are never drawn cost nothing.
        return np.random.default_rng(self.seed_seq)

    def balanced_partition(self, k: int, L: int) -> Partition:
        """Uniformly random partition of [k] into L parts, sizes differing by <= 1."""
        if not 1 <= L <= k:
            raise ValueError("need 1 <= L <= k")
        perm = self._rng.permutation(k)
        # Part r takes the next sizes[r] symbols of perm; the first k mod L parts get one extra.
        sizes = np.full(L, k // L, dtype=np.int64)
        sizes[: k % L] += 1
        assign = np.empty(k, dtype=np.int64)
        assign[perm] = np.repeat(np.arange(L), sizes)
        self.bits_used += k * _draw_bits(L)
        return Partition._trusted(k, L, assign)

    def subset(self, k: int, s: int) -> Partition:
        """Uniformly random s-subset S of [k], as the map x -> 1-based position in S, else 0."""
        if not 1 <= s <= k:
            raise ValueError("need 1 <= s <= k")
        members = np.sort(self._rng.choice(k, size=s, replace=False))
        self.bits_used += s * _draw_bits(k)
        assign = np.zeros(k, dtype=np.int64)
        assign[members] = np.arange(1, s + 1)
        return Partition._trusted(k, s + 1, assign)

    def element(self, k: int) -> Partition:
        """Uniformly random element x of [k], as the one-bit indicator map of x."""
        if k < 1:
            raise ValueError("need k >= 1")
        x = int(self._rng.integers(k))
        self.bits_used += _draw_bits(k)
        return indicator(k, x)

    def elements(self, k: int, m: int) -> np.ndarray:
        """m uniformly random elements of [k] in one draw: the values and bits of
        m calls to element(k), as symbols rather than maps."""
        if k < 1:
            raise ValueError("need k >= 1")
        xs = self._rng.integers(k, size=m)
        self.bits_used += m * _draw_bits(k)
        return xs


def indicator(k: int, x: int) -> Partition:
    """The one-bit message map that sends 1 iff the sample is x."""
    if not 0 <= x < k:
        raise ValueError("need 0 <= x < k")
    assign = np.zeros(k, dtype=np.int64)
    assign[x] = 1
    return Partition._trusted(k, 2, assign)


def play(p: Pmf, part: Partition, n: int, rng: np.random.Generator) -> np.ndarray:
    """Message counts of n i.i.d. players holding samples of p who send part.assign[x]."""
    return rng.multinomial(n, flatten(p, part).probs)


def play_indicators(p: Pmf, xs, n: int, rng: np.random.Generator) -> np.ndarray:
    """For each symbol x of xs in turn, the count of n players who send 1 under
    indicator(p.k, x): play(p, indicator(p.k, x), n, rng)[1], draw for draw.

    numpy's 2-way multinomial draws its first part as one binomial, so the
    count is n - Binomial(n, r / (r + p_x)), where r is the mass of the other
    symbols summed in symbol order, as flatten's bincount sums it.  Each x must
    lie in [0, p.k).
    """
    probs = p.probs
    others = probs.copy()
    hits = np.empty(len(xs), dtype=np.int64)
    for i, x in enumerate(xs):
        others[x] = 0.0
        rest = others.cumsum()[-1]
        others[x] = probs[x]
        hits[i] = n - rng.binomial(n, rest / (rest + probs[x]))
    return hits


def trial_seed_seq(master_seed: int, cell_index: int, trial_index: int, *stream: int) -> np.random.SeedSequence:
    """Per-trial seed: a keyed derivation of (master seed, cell, trial).  With a
    stream index i it is the trial seed's child i, the seed that
    trial_seed_seq(master_seed, cell_index, trial_index).spawn(i + 1)[i] gives."""
    return np.random.SeedSequence(master_seed, spawn_key=(_NS_TRIAL, cell_index, trial_index, *stream))


class TrialStreams:
    """One trial's three streams: `instance` draws, the `protocol`'s own draws
    (players and referee) and the public `coins`.

    Stream i is built on first use from the trial seed's child i,
    trial_seed_seq(master_seed, cell_index, trial_index, i), without building
    the parent or the other children.  So a stream the trial never reads costs
    nothing, and the order of first use changes no draw.
    """

    def __init__(self, master_seed: int, cell_index: int, trial_index: int):
        self._key = (master_seed, cell_index, trial_index)

    @cached_property
    def instance(self) -> np.random.Generator:
        return np.random.default_rng(trial_seed_seq(*self._key, 0))

    @cached_property
    def protocol(self) -> np.random.Generator:
        return np.random.default_rng(trial_seed_seq(*self._key, 1))

    @cached_property
    def coins(self) -> PublicCoins:
        return PublicCoins(trial_seed_seq(*self._key, 2))


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
