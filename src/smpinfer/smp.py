"""Simultaneous message-passing primitives: message maps, public coins, verdicts, streams.

Each of n players holds one i.i.d. sample from an unknown distribution and
sends a single ell-bit message to a referee; the referee decides from the
messages alone (private-coin mode) or from the messages plus a shared public
coin record (public-coin mode).

A message map is a `dist.Partition`: a deterministic ell-bit map is
Partition(k, 2**ell, assign), a player holding x sends assign[x], and parts
may be empty.  Every referee statistic is a symmetric function of the
messages, so referees read message counts: a public-coin draw returns its
message map, and `play` draws the message counts of n players under it (the
Levin tester's path; the smooth tester flattens p on all its partitions and
draws their counts as one matrix).  A one-bit indicator map's counts are one
binomial draw, so `play_indicators` draws the one-counts of several indicator
maps straight from p, with the very draws `play` makes under each map.

Randomness discipline: everything derives from a master seed.  A trial is one
protocol run, and `TrialStreams(master seed, cell, trial)` holds the three
streams of its keyed seed: instance draws, the protocol's own draws (players
and referee), and the public coins, whose draws are charged at their encoding
length.  Streams are seeded from one batch of per-cell seed words:
`trial_seed_words` computes, in one numpy pass, the PCG64 seed words of every
trial and stream of a cell, the very words numpy's `SeedSequence` would give
each stream, so the draws are unchanged.  Each stream is built on first use
from its words, so a trial pays only for the streams it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .dist import Partition, Pmf, flatten

__all__ = [
    "Verdict",
    "PublicCoins",
    "TrialStreams",
    "indicator",
    "play",
    "play_indicators",
    "trial_seed_seq",
    "trial_seed_words",
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

    seed_seq: ISeedSequence  # a SeedSequence, or a trial's coin stream words
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
        assign = np.empty(k, dtype=np.int64)
        assign[perm] = _part_labels(k, L)
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


@lru_cache(maxsize=64)
def _part_labels(k: int, L: int) -> np.ndarray:
    """The part of each position of a balanced partition's permutation: part r
    takes the next k // L positions, and the first k mod L parts one more."""
    sizes = np.full(L, k // L, dtype=np.int64)
    sizes[: k % L] += 1
    labels = np.repeat(np.arange(L), sizes)
    labels.setflags(write=False)
    return labels


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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx).  Its pool is four
# uint32 words; each entropy word past the pool is hashed once per pool word and
# mixed in, and each hash advances a hash constant by one multiplication.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy hashing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # output hashing (generate_state)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_U32_MIX_L, _U32_MIX_R = np.uint32(_MIX_L), np.uint32(_MIX_R)


def _u32(values) -> np.ndarray:
    return np.array(values, dtype=np.uint32)


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    # One hash of `value`, whose constant is `xor` before the step and `mult` after it.
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _words32(x: int) -> int:
    """How many uint32 words SeedSequence makes of a non-negative integer (0 is one word)."""
    return max(1, (int(x).bit_length() + 31) // 32)


@cache
def _tail_constants(prefix_words: int) -> tuple[np.ndarray, ...]:
    """The hash constants of the words after an entropy prefix of `prefix_words`
    words: the trial word's (xor, mult), MIX_R times the three stream words'
    hashes, and generate_state's (xor, mult) for 8 output words as (2, 4)."""
    # The pool's first 4 words take 4 hashes, mixing them together 12, and
    # every further word 4.
    a = [_INIT_A * pow(_MULT_A, 16 + 4 * (prefix_words - 4) + j, 1 << 32) & _MASK32 for j in range(9)]
    b = [_INIT_B * pow(_MULT_B, d, 1 << 32) & _MASK32 for d in range(9)]
    streams = _hashmix(_u32(range(3))[:, None], _u32(a[4:8]), _u32(a[5:9]))
    return _u32(a[:4]), _u32(a[1:5]), _U32_MIX_R * streams, _u32(b[:8]).reshape(2, 4), _u32(b[1:]).reshape(2, 4)


def trial_seed_words(master_seed: int, cell_index: int, trials: int, first: int = 0) -> np.ndarray:
    """The PCG64 seed words of trials first .. first + trials - 1 of a cell, as a
    (trials, 3, 4) uint64 array: row [t - first, i] is
    trial_seed_seq(master_seed, cell_index, t, i).generate_state(4, np.uint64).

    numpy builds the shared prefix, the pool of SeedSequence(master_seed,
    spawn_key=(_NS_TRIAL, cell_index)); the trial word, the stream word and the
    output hashes are numpy's hash on uint32 lanes, for every trial at once.
    A trial index takes one uint32 word, so it must lie below 2**32.
    """
    if not 0 <= first <= first + trials <= 1 << 32:
        raise ValueError("trial indices must lie in [0, 2**32)")
    pool = np.random.SeedSequence(master_seed, spawn_key=(_NS_TRIAL, cell_index)).pool
    prefix_words = max(4, _words32(master_seed)) + 1 + _words32(cell_index)
    trial_xor, trial_mult, mixed_streams, out_xor, out_mult = _tail_constants(prefix_words)
    # mix(x, y) = (MIX_L x - MIX_R y) ^ ((MIX_L x - MIX_R y) >> 16), per pool word.
    trial = _hashmix(np.arange(first, first + trials, dtype=np.uint32)[:, None], trial_xor, trial_mult)
    pool = _U32_MIX_L * pool - _U32_MIX_R * trial
    pool ^= pool >> 16
    pool = _U32_MIX_L * pool[:, None, :] - mixed_streams
    pool ^= pool >> 16
    # generate_state(4, uint64) hashes the pool twice over into 8 little-endian uint32 words.
    out = _hashmix(pool[:, :, None, :], out_xor, out_mult).reshape(trials, 3, 8)
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _SeedWords(ISeedSequence):
    """A seed sequence that hands PCG64 one stream's precomputed seed words, so
    numpy's own PCG64 seeding runs on them unchanged."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words  # a C-contiguous uint64 row of trial_seed_words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("trial seed words are PCG64's 4 uint64 words")
        return self.words


class TrialStreams:
    """One trial's three streams: `instance` draws, the `protocol`'s own draws
    (players and referee) and the public `coins`.

    Stream i is built on first use as Generator(PCG64(...)) on its words,
    trial_seed_words(master_seed, cell_index, ...)[trial_index, i]: the
    generator that default_rng(trial_seed_seq(master_seed, cell_index,
    trial_index, i)) builds, draw for draw.  `words` is the trial's (3, 4) row
    when the caller computed its cell's rows in one batch; without it the row is
    computed here.  A stream the trial never reads costs nothing, and the order
    of first use changes no draw.
    """

    def __init__(self, master_seed: int, cell_index: int, trial_index: int, words: np.ndarray | None = None):
        self._words = trial_seed_words(master_seed, cell_index, 1, trial_index)[0] if words is None else words

    def _stream(self, i: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(_SeedWords(self._words[i])))

    @cached_property
    def instance(self) -> np.random.Generator:
        return self._stream(0)

    @cached_property
    def protocol(self) -> np.random.Generator:
        return self._stream(1)

    @cached_property
    def coins(self) -> PublicCoins:
        return PublicCoins(_SeedWords(self._words[2]))


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
