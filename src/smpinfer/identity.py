"""Identity-to-uniformity reduction via a randomized domain-enlarging map.

Given a reference q over [k], build a map F_q into [5k]: symbol x owns
alloc_x = floor(5k * q_x) buckets; leftover buckets are slack.  A sample x maps
with probability alloc_x / (5k * q_x) to a uniform bucket in its own range and
otherwise to a uniform slack bucket.  Under p = q every bucket has probability
exactly 1/(5k), so testing "p = q" reduces to testing uniformity of the mapped
distribution over [5k] at a scaled distance parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dist import Pmf
from .smp import Verdict

__all__ = ["GoldreichMap", "build_map", "map_samples", "map_pmf", "identity_test_via_uniformity", "EPS_SCALE"]

# Distance parameter handed to the uniformity protocol: 16/25 of the identity eps.
EPS_SCALE = 16.0 / 25.0


@dataclass(frozen=True)
class GoldreichMap:
    q: Pmf
    m: int  # target domain size, 5k
    alloc: np.ndarray  # buckets per source symbol
    start: np.ndarray  # first bucket index of each symbol's range
    slack: int  # number of unowned buckets (at the top of the range)

    @property
    def slack_start(self) -> int:
        return self.m - self.slack


def build_map(q: Pmf) -> GoldreichMap:
    m = 5 * q.k
    # floor with a tiny guard so exactly-granular masses are not floored down
    # by float error (e.g. 5k * 0.3 = 2.9999...).
    alloc = np.floor(m * q.probs + 1e-9).astype(np.int64)
    start = np.concatenate([[0], np.cumsum(alloc)[:-1]])
    slack = m - int(alloc.sum())
    return GoldreichMap(q=q, m=m, alloc=alloc, start=start, slack=slack)


def map_samples(gmap: GoldreichMap, xs, rng: np.random.Generator) -> np.ndarray:
    """Map source symbols to buckets in [5k], each independently.

    Three draws, in this order: rng.random(n), sample i keeps to its own range
    iff below alloc_x / (5k q_x) (never when q_x = 0); rng.integers over each
    kept sample's alloc_x, its bucket in its range; rng.integers(slack, size=r)
    for the r > 0 others, each a slack bucket.
    """
    xs = np.asarray(xs, dtype=np.int64)
    qx, alloc = gmap.q.probs[xs], gmap.alloc[xs]
    keep = rng.random(xs.size) * (gmap.m * qx) < alloc
    out = np.empty(xs.size, dtype=np.int64)
    out[keep] = gmap.start[xs[keep]] + rng.integers(alloc[keep])
    if not keep.all():
        if gmap.slack == 0:
            raise ValueError("degenerate map: sample outside the allocation with no slack buckets")
        out[~keep] = gmap.slack_start + rng.integers(gmap.slack, size=int((~keep).sum()))
    return out


def map_pmf(gmap: GoldreichMap, p: Pmf) -> Pmf:
    """The exact pushforward F_q(p) over [5k]."""
    out = np.zeros(gmap.m)
    q, alloc = gmap.q.probs, gmap.alloc
    own = (q > 0) & (alloc > 0)
    per_bucket = np.zeros(gmap.q.k)
    per_bucket[own] = p.probs[own] / (gmap.m * q[own])
    overflow = 1.0 - float(np.sum(alloc[own] * per_bucket[own]))
    # Each symbol's buckets follow the last; alloc > 0 implies q > 0, so no bucket is lost.
    out[: gmap.slack_start] = np.repeat(per_bucket, alloc)
    if gmap.slack > 0:
        out[gmap.slack_start :] = overflow / gmap.slack
    elif overflow > 1e-12:
        raise ValueError("degenerate map: overflow mass with no slack buckets")
    return Pmf(k=gmap.m, probs=out)


def identity_test_via_uniformity(
    p: Pmf,
    q: Pmf,
    ell: int,
    eps: float,
    protocol: Callable[..., Verdict],
    rng_args: dict,
) -> Verdict:
    """Test p = q by uniformity-testing F_q(p) over [5k] at parameter 16 eps / 25.

    `protocol(pmf, ell, eps, **rng_args)` must be a uniformity protocol taking
    the (mapped) distribution first; players' mapped samples are i.i.d. F_q(p),
    so running the protocol on the exact pushforward is the same process.
    """
    if p.k != q.k:
        raise ValueError("p and q must share an alphabet")
    gmap = build_map(q)
    mapped = map_pmf(gmap, p)
    verdict = protocol(mapped, ell, EPS_SCALE * eps, **rng_args)
    verdict.diagnostics["mapped_domain"] = gmap.m
    verdict.diagnostics["slack_buckets"] = gmap.slack
    return verdict
