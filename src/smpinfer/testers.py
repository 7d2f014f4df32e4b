"""Centralized statistical primitives used as referee subroutines.

Every routine reads counts[x] = occurrences of symbol x, the sufficient
statistic of an i.i.d. sample; verdicts are deterministic functions of the
counts, and the failure probability delta enters only through the sample size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import Pmf

__all__ = [
    "L2TestParams",
    "collision_statistic",
    "l2_uniformity_test",
    "learn_empirical",
    "centralized_uniformity_test",
    "centralized_n_req",
    "C_L2_DEFAULT",
    "C_UNIFORMITY_DEFAULT",
]

C_L2_DEFAULT = 6.0
C_UNIFORMITY_DEFAULT = 3.0


@dataclass(frozen=True)
class L2TestParams:
    """Test u_L against ||q - u_L||_2 >= gamma / sqrt(L), failure prob delta."""

    L: int
    gamma: float
    delta: float
    c_l2: float = C_L2_DEFAULT

    def __post_init__(self):
        if not (0 < self.gamma < 1):
            raise ValueError("gamma must lie in (0,1)")
        if not (0 < self.delta < 1):
            raise ValueError("delta must lie in (0,1)")

    @property
    def n_req(self) -> int:
        return math.ceil(self.c_l2 * math.sqrt(self.L) / self.gamma**2 * math.log(1.0 / self.delta))


def collision_statistic(counts) -> tuple[int, int]:
    """(number of colliding pairs, total pairs) among the samples with these integer counts."""
    n = int(counts.sum())
    return int(np.sum(counts * (counts - 1) // 2)), n * (n - 1) // 2


def l2_uniformity_test(counts, params: L2TestParams, null: Pmf | None = None) -> str:
    """Accept iff T/pairs - 2<null, counts>/n + ||null||^2, an unbiased estimate of
    ||q - null||_2^2 for the sampled q on [L], is at most gamma^2/(2L); null defaults
    to u_L, where this is T/pairs <= (1 + gamma^2/2)/L.  Against a non-uniform null the
    cross term cancels the collision rate's first-order variance."""
    counts = np.asarray(counts, dtype=np.int64)
    n = int(counts.sum())
    if n < params.n_req:
        raise ValueError(f"need at least n_req={params.n_req} samples, got {n}")
    T, pairs = collision_statistic(counts)
    null_p = np.full(params.L, 1.0 / params.L) if null is None else null.probs
    stat = T / pairs - 2.0 * float(null_p @ counts) / n + float(null_p @ null_p)
    return "accept" if stat <= params.gamma**2 / (2.0 * params.L) else "reject"


def learn_empirical(counts) -> Pmf:
    """Empirical frequency estimate of the sampled distribution."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.sum() == 0:
        raise ValueError("cannot learn from an empty sample")
    return Pmf(k=counts.size, probs=counts / counts.sum())


def centralized_n_req(k: int, eps: float, c: float = C_UNIFORMITY_DEFAULT) -> int:
    return math.ceil(c * math.sqrt(k) / eps**2)


def centralized_uniformity_test(counts, eps: float, c: float = C_UNIFORMITY_DEFAULT) -> str:
    """Collision uniformity tester on [k = len(counts)] at TV distance eps, error <= 1/3 each side.

    For k = 2 this reduces to a bias test on the first symbol: TV(p, u_2) is
    exactly |p_0 - 1/2|, thresholded at eps/2.
    """
    counts = np.asarray(counts, dtype=np.int64)
    k, n = counts.size, int(counts.sum())
    n_req = centralized_n_req(k, eps, c)
    if n < n_req:
        raise ValueError(f"need at least n_req={n_req} samples, got {n}")
    if k == 2:
        return "accept" if abs(counts[0] / n - 0.5) <= eps / 2.0 else "reject"
    # TV >= eps implies ||p - u_k||_2^2 >= 4 eps^2 / k, so the collision rate
    # exceeds (1 + 4 eps^2)/k; threshold at the midpoint.
    T, pairs = collision_statistic(counts)
    threshold = (1.0 + 2.0 * eps**2) / k
    return "accept" if T / pairs <= threshold else "reject"
