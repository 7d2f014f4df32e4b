"""Public-coin uniformity testing protocols.

Two optimal protocols plus a warmup:

* smooth_protocol — m batches; each batch draws a fresh public random balanced
  partition of [k] into L = min(2^ell, k) parts, players send their part index,
  and the referee collision-tests the flattened samples on [L].
* levin_protocol — a work-investment schedule over L = ceil(log2(2/eps))
  scales; scale j runs m_j mini-batches, each drawing a public random subset S
  of size s = min(2^ell - 1, k).  Players report their sample's position in S (or
  all-zeros).  The referee first bias-tests p(S) against s/k (skipped when
  s = k, where p(S) = 1 is certain), then uniformity-tests the conditional
  samples on S.
* warmup_protocol — m >= 5/eps batches each bias-testing one public random
  element against 1/k.

Each public-coin draw is the batch's message map, and the referee reads only
message counts.  Levin draws each mini-batch's counts with `smp.play`.  Smooth
reads one (m, L) count matrix per trial: row b flattens p on batch b's
partition, one multinomial with 2-D pvals draws every row (numpy draws the rows
as m separate calls would), and `testers.l2_statistics` tests every row in one
call.  Warmup's maps are one-bit indicators of its public elements, so it
draws its one-counts straight from p with `smp.play_indicators`, the same
draws `play` makes under those maps.

Mini-batch thresholds carry a noise floor max(theory margin, z * null sigma) so
that calibrated (below worst-case size) stages never become null-unsafe; at the
worst-case sizes the floor is inactive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import Pmf, flatten, uniform
from .smp import PublicCoins, Verdict, play, play_indicators
from .testers import C_L2_DEFAULT, L2TestParams, collision_statistic, l2_statistics

__all__ = [
    "SmoothSchedule",
    "LevinSchedule",
    "smooth_protocol",
    "WARMUP_C",
    "warmup_players",
    "warmup_protocol",
    "levin_protocol",
]


# ---------------------------------------------------------------------------
# Smooth protocol (random balanced partitions + l2 test)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothSchedule:
    """Batch bookkeeping for the smooth protocol."""

    L: int
    m: int
    N: int
    delta: float
    gamma: float

    @classmethod
    def from_params(cls, k: int, ell: int, eps: float, c_l2: float = C_L2_DEFAULT) -> "SmoothSchedule":
        """m = 12 batches into L = min(2^ell, k) parts (singletons when 2^ell >= k, as Levin caps s at k)."""
        m, L = 12, min(2**ell, k)
        gamma = math.sqrt(L) * eps / math.sqrt(k)
        delta = 1.0 / (6 * m)
        N = L2TestParams(L=L, gamma=gamma, delta=delta, c_l2=c_l2).n_req
        return cls(L=L, m=m, N=N, delta=delta, gamma=gamma)

    @property
    def total_players(self) -> int:
        return self.m * self.N


def smooth_protocol(
    p: Pmf,
    ell: int,
    eps: float,
    n: int,
    coins: PublicCoins,
    rng: np.random.Generator,
    c_l2: float = C_L2_DEFAULT,
) -> Verdict:
    """Reject iff any batch's flattened sample fails the l2 uniformity test."""
    sched = SmoothSchedule.from_params(p.k, ell, eps, c_l2=c_l2)
    if n < sched.total_players:
        raise ValueError(f"need at least {sched.total_players} players, got {n}")
    N = n // sched.m
    params = L2TestParams(L=sched.L, gamma=sched.gamma, delta=sched.delta, c_l2=c_l2)
    # Row b is p flattened on batch b's partition, normalised as flatten does.
    flat = np.empty((sched.m, sched.L))
    null = None
    for b in range(sched.m):
        part = coins.balanced_partition(p.k, sched.L)
        flat[b] = np.bincount(part.assign, weights=p.probs, minlength=sched.L)
        if null is None and p.k % sched.L:
            # Every balanced partition gives part r the same number of masses 1/k
            # (the first k mod L parts one more), so its flattened null is the same bytes.
            null = flatten(uniform(p.k), part).probs
    flat /= flat.sum(axis=1, keepdims=True)
    # One multinomial with a row per batch draws what m calls with one row each draw.
    rejections = int(np.count_nonzero(l2_statistics(rng.multinomial(N, flat), params, null) > params.threshold))
    decision = "accept_uniform" if rejections == 0 else "reject"
    return Verdict(
        decision=decision,
        diagnostics={
            "batches": sched.m,
            "players_per_batch": N,
            "players_used": sched.m * N,
            "batch_rejections": rejections,
            "public_bits": coins.bits_used,
        },
    )


# ---------------------------------------------------------------------------
# Warmup protocol (per-element bias tests)
# ---------------------------------------------------------------------------


WARMUP_C = 13.0


def warmup_players(k: int, eps: float, c: float = WARMUP_C) -> int:
    """Minimum (and default) players: m = ceil(5/eps) batches at failure budget 1/(10 m)."""
    m = math.ceil(5.0 / eps)
    return m * math.ceil(c * k * math.log(10.0 * m) / eps**2)


def warmup_protocol(
    p: Pmf,
    eps: float,
    n: int,
    coins: PublicCoins,
    rng: np.random.Generator,
    c: float = WARMUP_C,
) -> Verdict:
    """m >= 5/eps batches; batch b bias-tests one public random element against 1/k.

    Rejects iff some tested element's empirical frequency falls below
    (1 - eps/4)/k — the midpoint against the (1 - eps/2)/k alternative.
    """
    k = p.k
    m = math.ceil(5.0 / eps)
    need = warmup_players(k, eps, c)
    if n < need:
        raise ValueError(f"need at least {need} players, got {n}")
    n_batch = n // m
    threshold = (1.0 - eps / 4.0) / k
    hits = play_indicators(p, coins.elements(k, m), n_batch, rng)
    decision = "reject" if np.any(hits / n_batch < threshold) else "accept_uniform"
    return Verdict(
        decision=decision,
        diagnostics={
            "batches": m,
            "players_per_batch": n_batch,
            "players_used": m * n_batch,
            "public_bits": coins.bits_used,
        },
    )


# ---------------------------------------------------------------------------
# Levin work-investment protocol
# ---------------------------------------------------------------------------


# Calibrated constants of the Levin schedule: C_M scales the mini-batch counts m_j,
# C1, C2, C3 the three terms of the per-mini-batch player formula (all three times
# the schedule's c), and Z is the stage thresholds' noise floor in null sigmas.
LEVIN_C_M = 0.10
LEVIN_C1 = 0.05
LEVIN_C2 = 0.35
LEVIN_C3 = 0.015
LEVIN_Z = 6.0


@dataclass(frozen=True)
class LevinSchedule:
    """Scale/mini-batch/threshold bookkeeping of the Levin protocol.

    For each scale j in 1..L: deviation parameter eps_j = 2^-j / 8, m_j
    mini-batches at failure budget delta_j = 1/(10 (L+5-j)^2 m_j), and
    n_j = a_j + b_j players per mini-batch, where a_j players feed the p(S)
    bias test and b_j players feed the conditional uniformity test (which
    requires r_j conditional samples).  When s = k the bias test's outcome
    is certain, so a_j = 0.  The tunable constant c multiplies LEVIN_C1,
    LEVIN_C2 and LEVIN_C3 (the `levin_scale` key of a config's constants
    block); c = 1 is the calibrated default.
    """

    k: int
    ell: int
    eps: float
    L: int
    s: int
    eps_j: tuple[float, ...]
    m_j: tuple[int, ...]
    delta_j: tuple[float, ...]
    a_j: tuple[int, ...]
    r_j: tuple[int, ...]
    b_j: tuple[int, ...]

    @classmethod
    def from_params(cls, k: int, ell: int, eps: float, c: float = 1.0) -> "LevinSchedule":
        if not (0 < eps < 1):
            raise ValueError("eps must lie in (0,1)")
        L = math.ceil(math.log2(2.0 / eps))
        s = min(2**ell - 1, k)
        eps_js, m_js, delta_js, a_js, r_js, b_js = [], [], [], [], [], []
        for j in range(1, L + 1):
            w = (L + 5 - j) ** 2
            eps_j = 2.0**-j / 8.0
            m_j = max(1, math.ceil(LEVIN_C_M * w / (2**j * eps)))
            delta_j = 1.0 / (10.0 * w * m_j)
            log_d = math.log(1.0 / delta_j)
            a_j = max(4, math.ceil((LEVIN_C1 * c) * k / (s * eps_j**2) * log_d)) if s < k else 0
            if s > 1:
                r_j = max(4, math.ceil((LEVIN_C3 * c) * math.sqrt(s) / eps_j**2 * log_d))
                b_j = math.ceil((LEVIN_C2 * c) * (k / s) * log_d) * r_j
            else:
                r_j, b_j = 0, 0
            eps_js.append(eps_j)
            m_js.append(m_j)
            delta_js.append(delta_j)
            a_js.append(a_j)
            r_js.append(r_j)
            b_js.append(b_j)
        return cls(
            k=k,
            ell=ell,
            eps=eps,
            L=L,
            s=s,
            eps_j=tuple(eps_js),
            m_j=tuple(m_js),
            delta_j=tuple(delta_js),
            a_j=tuple(a_js),
            r_j=tuple(r_js),
            b_j=tuple(b_js),
        )

    @property
    def n_j(self) -> tuple[int, ...]:
        return tuple(a + b for a, b in zip(self.a_j, self.b_j))

    @property
    def total_players(self) -> int:
        return sum(m * n for m, n in zip(self.m_j, self.n_j))

    @property
    def delta_budget(self) -> float:
        """sum_j m_j delta_j; the schedule keeps this below 1/40."""
        return sum(m * d for m, d in zip(self.m_j, self.delta_j))


def levin_protocol(
    p: Pmf,
    ell: int,
    eps: float,
    coins: PublicCoins,
    rng: np.random.Generator,
    c: float = 1.0,
    n: int | None = None,
) -> Verdict:
    """Run the full Levin schedule; accept iff every mini-batch passes both stages.

    A given `n` resizes every mini-batch's player counts by n / total_players
    of the schedule (none when the schedule has no players), so the scaling
    harness can probe the success-vs-players tradeoff; the mini-batch
    structure itself is unchanged.  The default runs the schedule as is.
    c is the schedule's tunable constant (see LevinSchedule).
    """
    sched = LevinSchedule.from_params(p.k, ell, eps, c)
    scale = n / sched.total_players if n is not None and sched.total_players else 1.0
    k, s = p.k, sched.s
    p0 = s / k
    players_used = 0
    failures = 0
    first_failure = None
    for j in range(1, sched.L + 1):
        idx = j - 1
        a = max(4, math.ceil(scale * sched.a_j[idx])) if sched.a_j[idx] else 0
        r = max(4, math.ceil(scale * sched.r_j[idx])) if s > 1 else 0
        b = math.ceil(scale * sched.b_j[idx]) if s > 1 else 0
        sep = (2.0 ** (1 - j) / 3.0) ** 2 / s  # l2^2 separation of stage 2
        for _ in range(sched.m_j[idx]):
            part = coins.subset(k, s)
            players_used += a + b
            # Stage 1: bias test on p(S) from the first a players.
            if a:
                phat = (a - play(p, part, a, rng)[0]) / a
                tol = max(sched.eps_j[idx] * p0 / 2.0, LEVIN_Z * math.sqrt(p0 * (1.0 - p0) / a))
                if abs(phat - p0) > tol:
                    failures += 1
                    first_failure = first_failure or ("stage1", j)
                    continue
            if s == 1:
                continue  # conditional distribution on one element is trivially uniform
            # Stage 2: uniformity of the conditional samples of b more players.
            cond = play(p, part, b, rng)[1:]
            if cond.sum() < r:
                failures += 1
                first_failure = first_failure or ("shortfall", j)
                continue
            collisions, pairs = collision_statistic(cond)
            rate = collisions / pairs
            margin = max(sep / 2.0, LEVIN_Z * math.sqrt((1.0 / s) * (1.0 - 1.0 / s) / pairs))
            if rate > 1.0 / s + margin:
                failures += 1
                first_failure = first_failure or ("stage2", j)
    decision = "accept_uniform" if failures == 0 else "reject"
    return Verdict(
        decision=decision,
        diagnostics={
            "players_used": players_used,
            "scheduled_players": sched.total_players,
            "minibatch_failures": failures,
            "first_failure": first_failure,
            "public_bits": coins.bits_used,
            "delta_budget": sched.delta_budget,
        },
    )
