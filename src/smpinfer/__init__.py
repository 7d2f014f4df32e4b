"""Communication-constrained distributed inference in the simultaneous message-passing model.

A library and CLI simulator for protocols in which each of n players holds one
i.i.d. sample from an unknown distribution over [k] and sends a single ell-bit
message to a referee.  Provides:

- a distributed simulation scheme that lets the referee reconstruct i.i.d.
  samples from the unknown distribution (`simulate`),
- simulate-and-infer pipelines built on it (`infer`),
- public-coin uniformity-testing protocols (`public_uniformity`),
- an identity-to-uniformity reduction (`identity`),
- brute-force verification oracles for the closed-form claims (`verify`),
- an experiment harness and CLI (`harness`, `cli`).
"""

from .dist import (
    PaninskiParam,
    Partition,
    Pmf,
    SubsetSpec,
    chi2,
    flying_pony,
    kl,
    paninski,
    tv,
    uniform,
)
from .smp import MessageMap, PublicCoins, Verdict, trial_seed_seq
from .simulate import (
    PlayerCapExceeded,
    SimOutcome,
    player_bound,
    rho,
    simulate_many,
    simulate_sample,
)
from .testers import C_L2_DEFAULT, C_UNIFORMITY_DEFAULT, l2_uniformity_test, bias_test
from .infer import (
    FLYING_PONY_C,
    flying_pony_protocol,
    si_learning_protocol,
    si_uniformity_players,
    si_uniformity_protocol,
    simulate_and_infer,
)
from .public_uniformity import (
    DEFAULT_LEVIN_CONSTANTS,
    LevinConstants,
    LevinSchedule,
    SmoothSchedule,
    levin_protocol,
    smooth_protocol,
    warmup_protocol,
)
from .identity import EPS_SCALE, build_map, identity_test_via_uniformity, map_pmf, map_sample
from .harness import ExperimentConfig, TrialReport, run_experiment, scaling_report

__version__ = "0.1.0"

__all__ = [
    "Pmf",
    "PaninskiParam",
    "Partition",
    "SubsetSpec",
    "uniform",
    "paninski",
    "flying_pony",
    "tv",
    "chi2",
    "kl",
    "MessageMap",
    "PublicCoins",
    "Verdict",
    "trial_seed_seq",
    "SimOutcome",
    "PlayerCapExceeded",
    "simulate_sample",
    "simulate_many",
    "player_bound",
    "rho",
    "C_L2_DEFAULT",
    "C_UNIFORMITY_DEFAULT",
    "l2_uniformity_test",
    "bias_test",
    "FLYING_PONY_C",
    "simulate_and_infer",
    "si_uniformity_protocol",
    "si_uniformity_players",
    "si_learning_protocol",
    "flying_pony_protocol",
    "SmoothSchedule",
    "smooth_protocol",
    "warmup_protocol",
    "LevinConstants",
    "LevinSchedule",
    "DEFAULT_LEVIN_CONSTANTS",
    "levin_protocol",
    "EPS_SCALE",
    "build_map",
    "map_sample",
    "map_pmf",
    "identity_test_via_uniformity",
    "ExperimentConfig",
    "TrialReport",
    "run_experiment",
    "scaling_report",
    "__version__",
]
