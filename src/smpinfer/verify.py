"""Brute-force and analytic oracles for the closed-form quantities.

Everything here recomputes a claimed formula by a different route — exhaustive
enumeration or direct Monte Carlo — so the formulas used by the protocols can
be checked against an independent implementation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dist import Pmf, Partition, paninski, PaninskiParam, uniform

__all__ = [
    "Deviation",
    "HMatrix",
    "flatten_Z",
    "var_Zr_closed_form",
    "balanced_assignments",
    "flattening_anticoncentration",
    "chi2_mixture_identity_check",
    "h_matrix",
    "frobenius_sq",
    "subgaussian_claim_check",
    "paninski_message_tv_bound",
    "batch_law_enumeration",
    "rho_enumeration",
    "levin_claim_enumeration",
    "levin_threshold",
]


@dataclass(frozen=True)
class Deviation:
    """A signed deviation vector with zero total mass."""

    k: int
    delta: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.delta, dtype=np.float64)
        if d.shape != (self.k,):
            raise ValueError("delta must have length k")
        if abs(d.sum()) > 1e-12:
            raise ValueError("delta must sum to zero")
        d.setflags(write=False)
        object.__setattr__(self, "delta", d)

    @property
    def norm2(self) -> float:
        return float(np.sqrt(np.sum(self.delta**2)))


@dataclass(frozen=True)
class HMatrix:
    half_k: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.float64)
        if e.shape != (self.half_k, self.half_k):
            raise ValueError("entries must be half_k x half_k")
        if np.max(np.abs(e - e.T)) > 1e-12:
            raise ValueError("entries must be symmetric")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


def flatten_Z(dev: Deviation, part: Partition) -> np.ndarray:
    """Z_r = sum_i delta_i 1{assign_i = r} over a balanced partition."""
    if part.k != dev.k:
        raise ValueError("partition does not match the deviation")
    if not part.exactly_balanced:
        raise ValueError("partition must be exactly balanced")
    return np.bincount(part.assign, weights=dev.delta, minlength=part.L)


def var_Zr_closed_form(dev: Deviation, L: int, k: int) -> float:
    """Var Z_r = (1/L) ||delta||^2 (1 - 1/L + (L-1)/(L(k-1))) under a random balanced partition."""
    if k % L != 0 or L < 2:
        raise ValueError("need L | k and L >= 2")
    n2 = float(np.sum(dev.delta**2))
    return (n2 / L) * (1.0 - 1.0 / L + (L - 1) / (L * (k - 1)))


def balanced_assignments(k: int, L: int):
    """Yield every labeled exactly-balanced assignment of [k] into L parts."""
    if k % L != 0:
        raise ValueError("need L | k")
    g = k // L

    def rec(remaining: tuple[int, ...], label: int, assign: np.ndarray):
        if label == L - 1:
            assign[list(remaining)] = label
            yield assign.copy()
            return
        for combo in itertools.combinations(remaining, g):
            assign[list(combo)] = label
            left = tuple(x for x in remaining if x not in combo)
            yield from rec(left, label + 1, assign)

    yield from rec(tuple(range(k)), 0, np.empty(k, dtype=np.int64))


def flattening_anticoncentration(
    dev: Deviation, L: int, trials: int, rng: np.random.Generator
) -> dict:
    """Monte Carlo over random balanced partitions of the flattening moments.

    Returns the anticoncentration probability P[||Z||_2 > ||delta||_2 / 2],
    the per-part mean of Z_r (expected 0), and the fourth-moment ratio
    E||Z||_2^4 / ||delta||_2^4.
    """
    k = dev.k
    if k % L != 0:
        raise ValueError("need L | k")
    g = k // L
    perms = np.argsort(rng.random((trials, k)), axis=1)
    d = dev.delta[perms]  # delta shuffled; parts are contiguous chunks of size g
    Z = d.reshape(trials, L, g).sum(axis=2)
    norm2 = np.sum(Z**2, axis=1)
    n2 = float(np.sum(dev.delta**2))
    return {
        "prob": float(np.mean(norm2 > n2 / 4.0)),
        "mean_Zr": Z.mean(axis=0),
        "var_Zr": Z.var(axis=0),
        "fourth_ratio": float(np.mean(norm2**2) / n2**2) if n2 > 0 else 0.0,
    }


def chi2_mixture_identity_check(P_rows, Q_rows_by_z, z_weights) -> tuple[float, float, float]:
    """Both sides of chi2(E_Z[Q_Z^n], P^n) = E_{ZZ'}[prod_i (1 + H_i(Z,Z'))] - 1.

    P_rows: per-player message pmfs (n vectors over the message alphabet).
    Q_rows_by_z: for each mixture atom z, per-player message pmfs.
    H_i(z,z') = sum_m (Q_{z,i}(m)-P_i(m)) (Q_{z',i}(m)-P_i(m)) / P_i(m).
    """
    P = [np.asarray(row, dtype=np.float64) for row in P_rows]
    Q = [[np.asarray(row, dtype=np.float64) for row in rows] for rows in Q_rows_by_z]
    w = np.asarray(z_weights, dtype=np.float64)
    n = len(P)
    M = P[0].size
    for z_rows in Q:
        for i in range(n):
            if np.any((P[i] == 0) & (z_rows[i] > 0)):
                raise ZeroDivisionError("Q places mass on a message with zero null probability")
    # Left side: full enumeration over message tuples.
    lhs = 0.0
    for msgs in itertools.product(range(M), repeat=n):
        p_prod = math.prod(P[i][msgs[i]] for i in range(n))
        q_mix = float(
            np.sum(w * np.array([math.prod(Q[z][i][msgs[i]] for i in range(n)) for z in range(len(Q))]))
        )
        if p_prod == 0:
            continue  # q_mix is 0 here too, by the support check above
        lhs += (q_mix - p_prod) ** 2 / p_prod
    # Right side: the product formula.
    rhs = 0.0
    for z1 in range(len(Q)):
        for z2 in range(len(Q)):
            prod = 1.0
            for i in range(n):
                mask = P[i] > 0
                H_i = float(
                    np.sum((Q[z1][i][mask] - P[i][mask]) * (Q[z2][i][mask] - P[i][mask]) / P[i][mask])
                )
                prod *= 1.0 + H_i
            rhs += w[z1] * w[z2] * prod
    rhs -= 1.0
    return lhs, rhs, abs(lhs - rhs)


def h_matrix(W: Partition) -> HMatrix:
    """The pair-difference correlation matrix of a message map.

    Entry (i1, i2) = sum_m d_{i1,m} d_{i2,m} / D_m where d_{i,m} is the
    difference of the indicator rows of the pair (2i, 2i+1) at message m and
    D_m counts the symbols mapping to m; messages with D_m = 0 contribute 0.
    """
    if W.k % 2 != 0:
        raise ValueError("alphabet size must be even")
    half = W.k // 2
    msg_of = W.assign
    M = W.L
    H = np.zeros((half, half))
    for m in range(M):
        hits = msg_of == m
        D = int(hits.sum())
        if D == 0:
            continue
        d = hits[0::2].astype(np.float64) - hits[1::2].astype(np.float64)
        H += np.outer(d, d) / D
    return HMatrix(half_k=half, entries=H)


def frobenius_sq(H: HMatrix) -> float:
    return float(np.sum(H.entries**2))


def subgaussian_claim_check(H: HMatrix, lam: float) -> tuple[float, float]:
    """Exact log E exp(lam theta^T H theta') over uniform signs, vs lam^2 ||H||_F^2.

    Uses E_{theta'} exp(lam v . theta') = prod_j cosh(lam v_j) to reduce the
    enumeration to the 2^half_k values of theta.
    """
    h = H.half_k
    if h > 20:
        raise ValueError("half_k too large to enumerate")
    total = 0.0
    for bits in itertools.product((-1.0, 1.0), repeat=h):
        v = H.entries @ np.array(bits)
        total += math.prod(math.cosh(lam * vj) for vj in v)
    log_mgf = math.log(total / 2**h)
    return log_mgf, lam**2 * frobenius_sq(H)


def paninski_message_tv_bound(W_list: list[Partition], eps: float) -> tuple[float, float]:
    """E_theta[TV(R^u, R^theta)^2] for 1-bit maps, against the bound 4 eps^2 n / k.

    R^p is the product law of the n players' bits when samples are i.i.d. p.
    Enumerates all 2^n bit vectors and all 2^(k/2) thetas, so n and k/2 are at most 12.
    """
    n = len(W_list)
    if n > 12:
        raise ValueError("too many players to enumerate bit vectors")
    k = W_list[0].k
    if k // 2 > 12:
        raise ValueError("alphabet too large to enumerate theta")
    if any(W.L != 2 for W in W_list):
        raise ValueError("this bound is for 1-bit maps")
    ones = np.stack([W.assign == 1 for W in W_list]).astype(np.float64)  # (n, k): bit of each symbol
    u = uniform(k).probs

    def tv_sq(theta: np.ndarray) -> float:
        p = paninski(PaninskiParam(k=k, eps=eps, theta=theta)).probs
        rho_u = ones @ u
        rho_t = ones @ p
        tv = 0.0
        for bits in itertools.product((0, 1), repeat=n):
            b = np.array(bits)
            pu = math.prod(np.where(b == 1, rho_u, 1 - rho_u))
            pt = math.prod(np.where(b == 1, rho_t, 1 - rho_t))
            tv += abs(pu - pt)
        return (tv / 2.0) ** 2

    vals = [tv_sq(np.array(th)) for th in itertools.product((-1, 1), repeat=k // 2)]
    return float(np.mean(vals)), 4.0 * eps**2 * n / k


# ---------------------------------------------------------------------------
# Enumeration oracles for the simulation scheme
# ---------------------------------------------------------------------------


def _batch_outcome_spaces(probs: np.ndarray, blocks, flip: bool):
    """Per-player outcome distributions, players ordered (prim_0, sec_0, prim_1, ...).

    Outcome 0 is "message zero"; outcome r >= 1 means "indicated the r-th
    element of my block (message survived any flip)".
    """
    spaces = []
    for members in blocks:
        members = np.asarray(members, dtype=np.int64)
        masses = probs[members]
        if flip:
            probs_vec = np.concatenate([[1.0 - masses.sum() / 2.0], masses / 2.0])
        else:
            probs_vec = np.concatenate([[1.0 - masses.sum()], masses])
        spaces.append(probs_vec)  # primary
        spaces.append(probs_vec)  # secondary
    return spaces


def batch_law_enumeration(probs: np.ndarray, blocks, flip: bool = True) -> tuple[float, np.ndarray]:
    """(success probability, conditional declared-symbol law) by exhaustive enumeration.

    Implements the referee rule directly on each enumerated outcome tuple:
    declare the indicated element iff exactly one primary message is nonzero
    and that block's secondary message is zero.
    """
    probs = np.asarray(probs, dtype=np.float64)
    spaces = _batch_outcome_spaces(probs, blocks, flip)
    k = probs.size
    win = np.zeros(k)
    for outcome in itertools.product(*(range(v.size) for v in spaces)):
        weight = math.prod(spaces[i][outcome[i]] for i in range(len(spaces)))
        if weight == 0:
            continue
        primaries = outcome[0::2]
        nonzero = [j for j, v in enumerate(primaries) if v > 0]
        if len(nonzero) == 1 and outcome[2 * nonzero[0] + 1] == 0:
            j = nonzero[0]
            symbol = np.asarray(blocks[j])[primaries[j] - 1]
            win[symbol] += weight
    success = float(win.sum())
    law = win / success if success > 0 else win
    return success, law


def rho_enumeration(probs: np.ndarray, blocks) -> float:
    """Declaration probability of the no-flip scheme, by enumeration."""
    success, _ = batch_law_enumeration(probs, blocks, flip=False)
    return success


def levin_claim_enumeration(p: Pmf, s: int) -> tuple[float, float]:
    """(E_S sum_{i in S} 1{p_i <= 1/k} (1/k - p_i), eps_bound = tv(p,u) * s/k).

    The expectation is over all size-s subsets, computed exhaustively; for p
    at TV distance exactly t from uniform it equals t * s / k.
    """
    k = p.k
    w = np.where(p.probs <= 1.0 / k, 1.0 / k - p.probs, 0.0)
    total = 0.0
    count = 0
    for S in itertools.combinations(range(k), s):
        total += w[list(S)].sum()
        count += 1
    u = uniform(k)
    t = 0.5 * float(np.abs(p.probs - u.probs).sum())
    return total / count, t * s / k


def levin_threshold(q_values, eps: float) -> int | None:
    """Smallest scale j with P[q(X) > 2^-j] > 2^j eps / (L+5-j)^2, or None.

    The work-investment lemma says such a j <= L exists whenever mean(q) > eps.
    Returns None ("not applicable") when the mean of q_values is <= eps, the
    regime where the work-investment guarantee does not apply.
    """
    q = np.asarray(q_values, dtype=np.float64)
    if np.any(q < 0) or np.any(q > 1):
        raise ValueError("q_values must lie in [0,1]")
    if q.mean() <= eps:
        return None
    L = math.ceil(math.log2(2.0 / eps))
    for j in range(1, L + 1):
        if np.mean(q > 2.0**-j) > 2**j * eps / (L + 5 - j) ** 2:
            return j
    return None
