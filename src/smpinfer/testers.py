"""Centralized statistical primitives used as referee subroutines.

All verdicts are deterministic functions of the sample vector; the failure
probability delta enters only through the required sample size.
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


def collision_statistic(samples: np.ndarray, L: int) -> tuple[int, int]:
    """(number of colliding pairs, total pairs) among the samples on [L]."""
    samples = np.asarray(samples)
    n = samples.size
    counts = np.bincount(samples, minlength=L)
    T = int(np.sum(counts * (counts - 1) // 2))
    return T, n * (n - 1) // 2


def l2_uniformity_test(samples, params: L2TestParams, null: Pmf | None = None) -> str:
    """Collision tester: accept iff the collision rate is at most (1 + gamma^2/2)/L.

    When a (near-uniform) null pmf is supplied, the threshold shifts to
    ||null||_2^2 + gamma^2/(2L), recovering the uniform threshold when null=u_L.
    """
    samples = np.asarray(samples)
    if samples.size < params.n_req:
        raise ValueError(f"need at least n_req={params.n_req} samples, got {samples.size}")
    T, pairs = collision_statistic(samples, params.L)
    null_rate = 1.0 / params.L if null is None else float(np.sum(null.probs**2))
    threshold = null_rate + params.gamma**2 / (2.0 * params.L)
    return "accept" if T / pairs <= threshold else "reject"


def learn_empirical(samples, k: int) -> Pmf:
    """Empirical frequency estimate of the sampled distribution."""
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ValueError("cannot learn from an empty sample")
    counts = np.bincount(samples, minlength=k).astype(np.float64)
    return Pmf(k=k, probs=counts / counts.sum())


def centralized_n_req(k: int, eps: float, c: float = C_UNIFORMITY_DEFAULT) -> int:
    return math.ceil(c * math.sqrt(k) / eps**2)


def centralized_uniformity_test(samples, k: int, eps: float, c: float = C_UNIFORMITY_DEFAULT) -> str:
    """Collision uniformity tester on [k] at TV distance eps, error <= 1/3 each side.

    For k = 2 this reduces to a bias test on the first symbol: TV(p, u_2) is
    exactly |p_0 - 1/2|, thresholded at eps/2.
    """
    samples = np.asarray(samples)
    n_req = centralized_n_req(k, eps, c)
    if samples.size < n_req:
        raise ValueError(f"need at least n_req={n_req} samples, got {samples.size}")
    if k == 2:
        mean0 = float(np.mean(samples == 0))
        return "accept" if abs(mean0 - 0.5) <= eps / 2.0 else "reject"
    # TV >= eps implies ||p - u_k||_2^2 >= 4 eps^2 / k, so the collision rate
    # exceeds (1 + 4 eps^2)/k; threshold at the midpoint.
    T, pairs = collision_statistic(samples, k)
    threshold = (1.0 + 2.0 * eps**2) / k
    return "accept" if T / pairs <= threshold else "reject"
