"""Private-coin simulate-and-infer pipelines and the flying-pony 1-bit protocol.

Simulate-and-infer: partition the players into B blocks, let each block run the
distributed simulation scheme with a fixed player budget of T batches (2x the
scheme's expected-player bound, so each block succeeds with probability at
least 1/2 by Markov), and run a centralized routine on the counts of the
simulated samples.  Choosing B = 4*psi + 9 blocks yields at least psi samples
with probability >= 14/15.

The blocks are drawn at count level, never player by player.  The scheme's
batches are i.i.d., each declares with probability `simulate.flip_rho`, and a
declared symbol is distributed as p independently of the batch index.  So a
block's first declaring batch is G ~ Geometric(rho), the block succeeds iff
G <= T and uses min(G, T) batches, and the successes' counts are
Multinomial(successes, p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dist import Pmf, split_duplicate
from .simulate import batch_players, block_size, flip_rho, player_bound
from .smp import Verdict, play_indicators
from . import testers

__all__ = [
    "BlockSimResult",
    "block_budget_players",
    "blocks_for_psi",
    "run_block_simulations",
    "simulate_and_infer",
    "si_uniformity_protocol",
    "si_uniformity_players",
    "si_learning_protocol",
    "si_learning_players",
    "flying_pony_protocol",
    "FLYING_PONY_C",
]

FLYING_PONY_C = 40


@dataclass(frozen=True)
class BlockSimResult:
    counts: np.ndarray  # length-k counts of the simulated symbols (one per successful block)
    successes: int
    blocks: int
    players_used: int
    players_budget: int


def block_budget_players(k: int, ell: int) -> tuple[int, int]:
    """(players per block, batches per block): 2x the expected-player bound, whole batches."""
    players = batch_players(k, ell)
    batches = max(1, math.ceil(2.0 * player_bound(k, ell) / players))
    return batches * players, batches


def blocks_for_psi(psi: int) -> int:
    """Block count guaranteeing >= psi simulated samples w.p. >= 14/15."""
    return 4 * psi + 9


def run_block_simulations(p: Pmf, ell: int, B: int, rng: np.random.Generator) -> BlockSimResult:
    """Run B independent budgeted block simulations at count level."""
    if B < 1:
        raise ValueError("need at least one block")
    per_block_players, budget_batches = block_budget_players(p.k, ell)
    q = split_duplicate(p)
    first = rng.geometric(flip_rho(np.add.reduceat(q.probs, np.arange(0, q.k, block_size(p.k, ell)))), size=B)
    successes = int(np.count_nonzero(first <= budget_batches))
    return BlockSimResult(
        counts=rng.multinomial(successes, p.probs),
        successes=successes,
        blocks=B,
        players_used=int(np.minimum(first, budget_batches).sum()) * batch_players(p.k, ell),
        players_budget=B * per_block_players,
    )


def simulate_and_infer(
    p: Pmf,
    ell: int,
    blocks: int,
    centralized: Callable[[np.ndarray], Verdict | str | Pmf],
    rng: np.random.Generator,
) -> Verdict:
    """Simulate one sample per block, then run `centralized` on the length-k counts of the successes.

    The centralized routine may return a Verdict, an {accept, reject} string,
    or a learned Pmf (wrapped as an `estimate` verdict).  An undersized-input
    error from the routine surfaces as an inconclusive abort verdict.
    """
    result = run_block_simulations(p, ell, blocks, rng)
    diag = {
        "blocks": result.blocks,
        "samples_simulated": result.successes,
        "players_used": result.players_used,
        "players_budget": result.players_budget,
    }
    try:
        out = centralized(result.counts)
    except ValueError as exc:
        return Verdict(decision="abort", diagnostics={**diag, "reason": str(exc)})
    if isinstance(out, Verdict):
        out.diagnostics.update(diag)
        return out
    if isinstance(out, Pmf):
        return Verdict(decision="estimate", diagnostics={**diag, "estimate": out})
    decision = "accept_uniform" if out == "accept" else "reject"
    return Verdict(decision=decision, diagnostics=diag)


def si_uniformity_protocol(
    p: Pmf,
    ell: int,
    eps: float,
    n: int,
    rng: np.random.Generator,
    c: float = testers.C_UNIFORMITY_DEFAULT,
) -> Verdict:
    """Uniformity testing by simulate-and-infer with a total player budget n."""
    per_block, _ = block_budget_players(p.k, ell)
    B = n // per_block
    if B < 1:
        raise ValueError(f"need at least {per_block} players for one block")
    return simulate_and_infer(
        p, ell, B, lambda counts: testers.centralized_uniformity_test(counts, eps, c=c), rng
    )


def si_uniformity_players(k: int, ell: int, eps: float, c: float = testers.C_UNIFORMITY_DEFAULT) -> int:
    """Default player budget: B = 4 psi + 9 blocks at the per-block budget."""
    psi = testers.centralized_n_req(k, eps, c)
    per_block, _ = block_budget_players(k, ell)
    return blocks_for_psi(psi) * per_block


def si_learning_players(k: int, ell: int, eps: float) -> int:
    """Default learning budget: B = 4 psi + 9 blocks for psi ~ 3 k / eps^2 samples."""
    psi = testers.centralized_n_req(k, eps, c=3.0 * k / max(1.0, np.sqrt(k)))
    per_block, _ = block_budget_players(k, ell)
    return blocks_for_psi(psi) * per_block


def si_learning_protocol(p: Pmf, ell: int, n: int, rng: np.random.Generator) -> Verdict:
    """Learning by simulate-and-infer: empirical estimate over the simulated samples."""
    per_block, _ = block_budget_players(p.k, ell)
    B = n // per_block
    if B < 1:
        raise ValueError(f"need at least {per_block} players for one block")
    return simulate_and_infer(p, ell, B, testers.learn_empirical, rng)


def flying_pony_protocol(p: Pmf, n: int, rng: np.random.Generator) -> Verdict:
    """1-bit protocol: each player sends 1 iff its sample equals symbol 0.

    Accepts uniformity iff the bit count lies in (n/(2k), 3n/(2k)] — the
    midpoints between the three candidate biases 0, 1/k and 2/k.
    """
    if n < 1:
        raise ValueError("need at least one player")
    count = int(play_indicators(p, (0,), n, rng)[0])
    lo, hi = 0.5 * n / p.k, 1.5 * n / p.k
    decision = "accept_uniform" if lo < count <= hi else "reject"
    return Verdict(decision=decision, diagnostics={"bit_count": count, "n": n, "players_used": n})
