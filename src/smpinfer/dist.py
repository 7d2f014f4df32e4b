"""Finite-alphabet probability distributions, total variation, and hard-instance generators.

Symbols are 0-based: a distribution over an alphabet of size k assigns mass to
{0, ..., k-1}.  All generators return immutable :class:`Pmf` objects that
validate (and renormalize away float dust from) their mass vector on
construction.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Pmf",
    "PaninskiParam",
    "Partition",
    "uniform",
    "paninski",
    "flying_pony",
    "tv",
    "split_duplicate",
    "flatten",
]

_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Pmf:
    """A probability mass function over the alphabet {0, ..., k-1}.

    Entries must be nonnegative and sum to 1 within 1e-9; the stored vector is
    renormalized so downstream exact checks see a true probability vector.
    """

    k: int
    probs: np.ndarray

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("alphabet size must be >= 1")
        p = np.asarray(self.probs, dtype=np.float64)
        if p.shape != (self.k,):
            raise ValueError(f"probs must have shape ({self.k},), got {p.shape}")
        if np.any(p < 0):
            raise ValueError("probabilities must be nonnegative")
        total = p.sum()
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        p = p / total
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @classmethod
    def _trusted(cls, k: int, probs: np.ndarray) -> "Pmf":
        """A pmf that this package built from checked arguments: a nonnegative
        float64 vector of length k that sums to 1 within 1e-9.  It is
        renormalized as on construction and made read-only, not validated."""
        p = probs / probs.sum()
        p.setflags(write=False)
        pmf = object.__new__(cls)
        pmf.__dict__.update(k=k, probs=p)
        return pmf

    def to_json(self) -> str:
        return json.dumps({"k": self.k, "probs": [float(x) for x in self.probs]})

    @classmethod
    def from_json(cls, text: str) -> "Pmf":
        obj = json.loads(text)
        return cls(k=int(obj["k"]), probs=np.array(obj["probs"], dtype=np.float64))


@dataclass(frozen=True)
class PaninskiParam:
    """Parameters of the paired-perturbation hard instance family."""

    k: int
    eps: float
    theta: np.ndarray

    def __post_init__(self):
        if self.k < 2 or self.k % 2 != 0:
            raise ValueError("k must be a positive even integer")
        if not (0 <= self.eps <= 0.5):
            raise ValueError("eps must lie in [0, 1/2]")
        th = np.asarray(self.theta, dtype=np.int64)
        if th.shape != (self.k // 2,):
            raise ValueError("theta must have length k/2")
        if not np.all(np.abs(th) == 1):
            raise ValueError("theta entries must be +1 or -1")
        th.setflags(write=False)
        object.__setattr__(self, "theta", th)


@dataclass(frozen=True)
class Partition:
    """A partition of {0,...,k-1} into L parts; as a message map, a player holding x sends assign[x]."""

    k: int
    L: int
    assign: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assign, dtype=np.int64)
        if a.shape != (self.k,):
            raise ValueError("assign must have length k")
        if a.min() < 0 or a.max() >= self.L:
            raise ValueError("part indices must lie in [0, L)")
        a.setflags(write=False)
        object.__setattr__(self, "assign", a)

    @classmethod
    def _trusted(cls, k: int, L: int, assign: np.ndarray) -> "Partition":
        """A map that this package built from checked arguments: an int64 `assign`
        of length k with entries in [0, L).  It is made read-only, not validated."""
        assign.setflags(write=False)
        part = object.__new__(cls)
        part.__dict__.update(k=k, L=L, assign=assign)
        return part

    @property
    def balanced(self) -> bool:
        counts = np.bincount(self.assign, minlength=self.L)
        return bool(counts.max() - counts.min() <= (0 if self.k % self.L == 0 else 1))

    @property
    def exactly_balanced(self) -> bool:
        counts = np.bincount(self.assign, minlength=self.L)
        return self.k % self.L == 0 and bool(counts.max() == counts.min())


@functools.lru_cache(maxsize=64, typed=True)
def uniform(k: int) -> Pmf:
    """The uniform distribution u_k, built once per k: a Pmf is immutable."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return Pmf(k=k, probs=np.full(k, 1.0 / k))


def paninski(param: PaninskiParam) -> Pmf:
    """Paired perturbation of uniform: p(2i) = (1+2eps*theta_i)/k, p(2i+1) = (1-2eps*theta_i)/k.

    The result is at total variation distance exactly eps from uniform.
    """
    return Pmf(k=param.k, probs=_paired(param.k, 2.0 * param.eps * param.theta))


def flying_pony(k: int, theta) -> Pmf:
    """Uniform over a hidden half of the domain: p(2i) = (1+theta_i)/k, p(2i+1) = (1-theta_i)/k.

    Every probability is 0 or 2/k; TV to uniform is exactly 1/2.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError("k must be a positive even integer")
    th = np.asarray(theta, dtype=np.int64)
    if th.shape != (k // 2,) or not np.all(np.abs(th) == 1):
        raise ValueError("theta must be a +/-1 vector of length k/2")
    return Pmf(k=k, probs=_paired(k, th))


def _paired(k: int, delta: np.ndarray) -> np.ndarray:
    """The paired perturbation of uniform by delta: (1 + delta_i)/k at 2i, (1 - delta_i)/k at 2i+1."""
    p = np.empty(k)
    p[0::2] = (1.0 + delta) / k
    p[1::2] = (1.0 - delta) / k
    return p


def tv(p: Pmf, q: Pmf) -> float:
    """Total variation distance, 0.5 * l1."""
    if p.k != q.k:
        raise ValueError(f"alphabet sizes differ: {p.k} vs {q.k}")
    return float(0.5 * np.abs(p.probs - q.probs).sum())


def split_duplicate(p: Pmf) -> Pmf:
    """Duplicate each symbol into two halves: q(2i) = q(2i+1) = p(i)/2.

    The l2 norm drops by a factor sqrt(2), so ||q||_2 <= 1/sqrt(2) always.
    """
    q = np.repeat(p.probs / 2.0, 2)
    return Pmf(k=2 * p.k, probs=q)


def flatten(p: Pmf, part: Partition) -> Pmf:
    """The L-ary distribution induced by p on a partition of its domain."""
    if part.k != p.k:
        raise ValueError("partition does not match the alphabet")
    out = np.bincount(part.assign, weights=p.probs, minlength=part.L)
    return Pmf(k=part.L, probs=out)

