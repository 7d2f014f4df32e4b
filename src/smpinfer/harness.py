"""Experiment orchestration: configs, seeded sweeps, calibration, scaling reports.

A run is fully determined by (config, master seed): every trial derives its
random streams from a per-(cell, trial) seed sequence, instance draws included,
so re-running any single trial in isolation reproduces it.  Persisted artifacts
(CSV rows, JSON summaries) contain only deterministic fields.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, asdict
from typing import Callable

import numpy as np

from . import infer, public_uniformity as pu, testers
from .dist import Pmf, PaninskiParam, flying_pony, paninski, uniform
from .simulate import simulate_many
from .smp import PublicCoins, Verdict, trial_seed_seq

__all__ = [
    "Cell",
    "Protocol",
    "ExperimentConfig",
    "TrialReport",
    "ExperimentResult",
    "run_experiment",
    "calibrate",
    "scaling_report",
    "wilson_interval",
    "PROTOCOLS",
    "make_instance",
]

SCHEMA_VERSION = 1
N_CAP = 50_000_000
DUMMY_N = 500  # the dummy-const control protocol is correct iff n >= DUMMY_N
# Phi^-1(0.975), correctly rounded; the persisted Wilson bounds depend on its last digit.
Z_95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z = Z_95
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1.0 + z**2 / trials
    center = (phat + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z**2 / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def make_instance(spec: dict, k: int, eps: float, rng: np.random.Generator) -> tuple[Pmf, str]:
    """Build the trial's distribution; returns (pmf, expected verdict).

    spec["name"] in {uniform, paninski, flying_pony, pmf_file}; paninski /
    flying_pony theta is "alternating", "ones", their "neg-" negations, or
    "random" (drawn from the trial stream).
    """
    name = spec.get("name", "uniform")
    if name == "uniform":
        return uniform(k), "accept_uniform"
    theta_kind = spec.get("theta", "random")
    if theta_kind == "alternating":
        theta = np.resize([1, -1], k // 2)
    elif theta_kind == "neg-alternating":
        theta = np.resize([-1, 1], k // 2)
    elif theta_kind == "ones":
        theta = np.ones(k // 2, dtype=np.int64)
    elif theta_kind == "neg-ones":
        theta = -np.ones(k // 2, dtype=np.int64)
    elif theta_kind == "random":
        theta = np.where(rng.random(k // 2) < 0.5, 1, -1)
    else:
        raise KeyError(f"unknown theta kind {theta_kind!r}")
    if name == "paninski":
        return paninski(PaninskiParam(k=k, eps=eps, theta=theta)), "reject"
    if name == "flying_pony":
        return flying_pony(k, theta), "reject"
    if name == "pmf_file":
        with open(spec["path"]) as fh:
            p = Pmf.from_json(fh.read())
        return p, spec.get("expected", "reject")
    raise KeyError(f"unknown instance {name!r}")


# ---------------------------------------------------------------------------
# Cells and the protocol registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One grid cell: alphabet size k, message bits ell, distance eps, players n.

    eps and n are optional; a cell without n runs at its protocol's default.
    Validated on construction, so build cells where input enters, not per trial.
    """

    k: int
    ell: int
    eps: float | None = None
    n: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.ell < 1:
            raise ValueError("ell must be >= 1")
        if self.eps is not None and not 0 < self.eps < 1:
            raise ValueError("eps must lie in (0,1)")
        if self.n is not None and self.n < 1:
            raise ValueError("n must be >= 1")

    @classmethod
    def from_dict(cls, d: dict) -> "Cell":
        unknown = sorted(set(d) - {"k", "ell", "eps", "n"})
        if unknown:
            raise ValueError(f"unknown cell keys {unknown}")
        return cls(k=d["k"], ell=d["ell"], eps=d.get("eps"), n=d.get("n"))

    def to_dict(self) -> dict:
        """The fields that were given (eps and n are omitted when None)."""
        return {key: value for key, value in asdict(self).items() if value is not None}


@dataclass(frozen=True)
class Protocol:
    """A registered protocol.

    default_n(k, ell, eps, constants) is the player count of a cell without n
    (None for a protocol that takes no n); run(p, ell, eps, n, rng, coins,
    constants) plays one trial and returns the referee's verdict; ladder is
    (constants key, candidate values smallest first) for `calibrate`.
    """

    default_n: Callable[[int, int, float, dict | None], int | None]
    run: Callable[..., Verdict]
    ladder: tuple[str, tuple[float, ...]] | None = None

    def n_for(self, cell: Cell, constants: dict | None = None) -> int | None:
        """The cell's n if given, else this protocol's default."""
        return cell.n if cell.n is not None else self.default_n(cell.k, cell.ell, cell.eps, constants)


def _c_l2(constants: dict | None) -> float:
    return (constants or {}).get("c_l2", testers.C_L2_DEFAULT)


def _levin_constants(constants: dict | None) -> pu.LevinConstants:
    if constants and "levin" in constants:
        return pu.LevinConstants.from_dict(constants["levin"])
    return pu.DEFAULT_LEVIN_CONSTANTS


def _levin_players(k, ell, eps, constants):
    return pu.LevinSchedule.from_params(k, ell, eps, _levin_constants(constants)).total_players


def _run_levin(p, ell, eps, n, rng, coins, constants):
    return pu.levin_protocol(p, ell, eps, coins, rng, constants=_levin_constants(constants), n=n)


def _warmup_c(constants: dict | None) -> float:
    return (constants or {}).get("warmup_c", pu.WARMUP_C)


def _si_c(constants: dict | None) -> float:
    return (constants or {}).get("c_uniformity", testers.C_UNIFORMITY_DEFAULT)


def _run_simulate(p, ell, eps, n, rng, coins, constants):
    out = simulate_many(p, ell, 1, rng)[0]
    return Verdict(
        decision="symbol",
        symbol=out.symbol,
        diagnostics={"players_used": out.players_used, "batches_used": out.batches_used},
    )


def _run_dummy_const(p, ell, eps, n, rng, coins, constants):
    # Control protocol for the scaling report.
    expect = "accept_uniform" if float(np.max(p.probs) - np.min(p.probs)) < 1e-12 else "reject"
    wrong = "reject" if expect == "accept_uniform" else "accept_uniform"
    return Verdict(decision=expect if n >= DUMMY_N else wrong, diagnostics={"players_used": n})


PROTOCOLS = {
    "smooth": Protocol(
        lambda k, ell, eps, c: pu.SmoothSchedule.from_params(k, ell, eps, c_l2=_c_l2(c)).total_players,
        lambda p, ell, eps, n, rng, coins, c: pu.smooth_protocol(p, ell, eps, n, coins, rng, c_l2=_c_l2(c)),
        ("c_l2", tuple(1.0 * 1.5**i for i in range(8))),
    ),
    "levin": Protocol(_levin_players, _run_levin, ("levin_scale", tuple(0.25 * 1.4**i for i in range(10)))),
    "warmup": Protocol(
        lambda k, ell, eps, c: pu.warmup_players(k, eps, _warmup_c(c)),
        lambda p, ell, eps, n, rng, coins, c: pu.warmup_protocol(p, eps, n, coins, rng, c=_warmup_c(c)),
        ("warmup_c", tuple(2.0 * 1.5**i for i in range(8))),
    ),
    "private-si": Protocol(
        lambda k, ell, eps, c: infer.si_uniformity_players(k, ell, eps, c=_si_c(c)),
        lambda p, ell, eps, n, rng, coins, c: infer.si_uniformity_protocol(p, ell, eps, n, rng, c=_si_c(c)),
        ("c_uniformity", tuple(0.75 * 1.5**i for i in range(8))),
    ),
    "flying-pony": Protocol(
        lambda k, ell, eps, c: infer.FLYING_PONY_C * k,
        lambda p, ell, eps, n, rng, coins, c: infer.flying_pony_protocol(p, n, rng),
    ),
    "simulate": Protocol(lambda k, ell, eps, c: None, _run_simulate),
    "dummy-const": Protocol(lambda k, ell, eps, c: DUMMY_N, _run_dummy_const),
}


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """`trials` seeded trials per grid cell; dict cells are validated here into Cells."""

    protocol: str
    instance: dict
    grid: tuple[Cell, ...]
    trials: int
    master_seed: int
    constants: dict | None = None

    def __post_init__(self):
        if not self.grid:
            raise KeyError("grid must be non-empty")
        if self.trials < 1:
            raise KeyError("trials must be >= 1")
        if self.protocol not in PROTOCOLS:
            raise KeyError(f"unknown protocol {self.protocol!r}")
        grid = tuple(c if isinstance(c, Cell) else Cell.from_dict(c) for c in self.grid)
        if any(c.eps is None for c in grid):
            raise KeyError("every grid cell needs eps")
        object.__setattr__(self, "grid", grid)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        obj = json.loads(text)
        if obj.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise KeyError(f"unsupported schema_version {obj.get('schema_version')!r}")
        return cls(
            protocol=obj["protocol"],
            instance=obj.get("instance", {"name": "uniform"}),
            grid=tuple(obj["grid"]),
            trials=int(obj["trials"]),
            master_seed=int(obj.get("master_seed", 0)),
            constants=obj.get("constants"),
        )


@dataclass(frozen=True)
class TrialReport:
    cell: int
    trial: int
    k: int
    ell: int
    eps: float
    n: int
    seed: str
    decision: str
    expected: str
    correct: bool
    players_used: int
    public_bits: int

    CSV_FIELDS = (
        "cell", "trial", "k", "ell", "eps", "n", "seed",
        "decision", "expected", "correct", "players_used", "public_bits",
    )

    def csv_row(self) -> list:
        d = asdict(self)
        return [d[f] for f in self.CSV_FIELDS]


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    reports: list[TrialReport]
    summaries: list[dict]

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(TrialReport.CSV_FIELDS)
        for r in self.reports:
            w.writerow(r.csv_row())
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "protocol": self.config.protocol,
                "master_seed": self.config.master_seed,
                "summaries": self.summaries,
            },
            indent=2,
            sort_keys=True,
        )


def run_trial(cfg: ExperimentConfig, cell_index: int, trial_index: int) -> TrialReport:
    cell = cfg.grid[cell_index]
    proto = PROTOCOLS[cfg.protocol]
    ss = trial_seed_seq(cfg.master_seed, cell_index, trial_index)
    children = ss.spawn(3)  # instance stream, protocol stream, public coins
    inst_rng = np.random.default_rng(children[0])
    p, expected = make_instance(cfg.instance, cell.k, cell.eps, inst_rng)
    rng, coins = np.random.default_rng(children[1]), PublicCoins(children[2])
    n = proto.n_for(cell, cfg.constants)
    verdict = proto.run(p, cell.ell, cell.eps, n, rng, coins, cfg.constants)
    players = int(verdict.diagnostics["players_used"])
    if cfg.protocol == "simulate":
        expected = "symbol"
    correct = verdict.decision == expected
    return TrialReport(
        cell=cell_index,
        trial=trial_index,
        k=cell.k,
        ell=cell.ell,
        eps=cell.eps,
        # A protocol that takes no n (simulate) records the players it used.
        n=players if n is None else n,
        seed=f"{cfg.master_seed}/{cell_index}/{trial_index}",
        decision=verdict.decision,
        expected=expected,
        correct=bool(correct),
        players_used=players,
        public_bits=int(verdict.diagnostics.get("public_bits", 0)),
    )


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    coords = [(ci, ti) for ci in range(len(cfg.grid)) for ti in range(cfg.trials)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run_trial, [cfg] * len(coords), *zip(*coords), chunksize=8))
    else:
        reports = [run_trial(cfg, ci, ti) for ci, ti in coords]
    summaries = []
    for ci, cell in enumerate(cfg.grid):
        cell_reports = [r for r in reports if r.cell == ci]
        successes = sum(r.correct for r in cell_reports)
        lo, hi = wilson_interval(successes, len(cell_reports))
        summaries.append(
            {
                "cell": ci,
                **cell.to_dict(),
                "trials": len(cell_reports),
                "success_rate": successes / len(cell_reports),
                "wilson_low": lo,
                "wilson_high": hi,
                "mean_players": sum(r.players_used for r in cell_reports) / len(cell_reports),
                "mean_public_bits": sum(r.public_bits for r in cell_reports) / len(cell_reports),
            }
        )
    return ExperimentResult(config=cfg, reports=reports, summaries=summaries)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


class CalibrationFailure(RuntimeError):
    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


def _side_reports(protocol: str, cell: dict, constants: dict | None, trials: int, seed: int) -> list:
    """Per side (uniform, then random paninski): the reports of `trials` trials at this cell."""
    return [
        run_experiment(
            ExperimentConfig(
                protocol=protocol, instance=inst, grid=(cell,), trials=trials,
                master_seed=seed * 2 + side, constants=constants,
            )
        ).reports
        for side, inst in enumerate(({"name": "uniform"}, {"name": "paninski", "theta": "random"}))
    ]


def calibrate(
    protocol: str,
    target_error: float,
    grid: list[dict],
    budget: int,
    master_seed: int = 0,
) -> dict:
    """Smallest ladder constant meeting the target two-sided error on every cell.

    budget is trials per candidate per cell side; the result dict is a
    constants file payload with provenance metadata.
    """
    if target_error <= 0:
        raise CalibrationFailure("target error must be positive (zero error is unattainable)", None)
    if budget < 100:
        raise KeyError("budget must be >= 100 trials per candidate")
    if protocol not in PROTOCOLS or PROTOCOLS[protocol].ladder is None:
        raise KeyError(f"no calibration ladder for protocol {protocol!r}")
    key, ladder = PROTOCOLS[protocol].ladder
    best = None
    for value in ladder:
        if key == "levin_scale":
            base = pu.DEFAULT_LEVIN_CONSTANTS
            constants = {
                "levin": pu.LevinConstants(
                    c_m=base.c_m, c1=base.c1 * value, c2=base.c2 * value, c3=base.c3 * value, z=base.z
                ).to_dict()
            }
        else:
            constants = {key: value}
        # The largest error rate over cells and sides.
        worst = max(
            1.0 - sum(r.correct for r in reports) / len(reports)
            for cell in grid
            for reports in _side_reports(protocol, cell, constants, budget, master_seed)
        )
        if best is None or worst < best["measured_error"]:
            best = {"constant": value, "measured_error": worst}
        if worst <= target_error:
            return {
                "protocol": protocol,
                "constant_key": key,
                "constant": value,
                "constants": constants,
                "measured_error": worst,
                "target_error": target_error,
                "grid": grid,
                "budget": budget,
                "master_seed": master_seed,
            }
    raise CalibrationFailure(
        f"no ladder value met target {target_error}; best {best}", best
    )


# ---------------------------------------------------------------------------
# Scaling report
# ---------------------------------------------------------------------------


def _success_rate_at(protocol: str, k: int, ell: int, eps: float, n: int, trials: int, seed: int, constants=None) -> float:
    sides = _side_reports(protocol, {"k": k, "ell": ell, "eps": eps, "n": n}, constants, trials // 2, seed)
    return sum(r.correct for reports in sides for r in reports) / (2 * (trials // 2))


def minimal_n(
    protocol: str,
    k: int,
    ell: int,
    eps: float,
    trials: int = 300,
    seed: int = 0,
    target: float = 2.0 / 3.0,
    constants=None,
    n_cap: int = N_CAP,
) -> dict:
    """Geometric bracket + bisection for the smallest n with success rate >= target."""
    # The protocol's default n is the starting upper guess.
    n_default = PROTOCOLS[protocol].n_for(Cell(k, ell, eps), constants)
    if n_default is None:
        raise KeyError(f"protocol {protocol!r} takes no player count")
    n_hi = min(n_default, n_cap)
    evals = 0
    while _success_rate_at(protocol, k, ell, eps, n_hi, trials, seed + evals, constants) < target:
        evals += 1
        n_hi *= 2
        if n_hi > n_cap:
            return {"protocol": protocol, "k": k, "n_min": None, "censored": True}
    n_lo = n_hi // 2
    while n_lo >= 8 and _success_rate_at(protocol, k, ell, eps, n_lo, trials, seed + 100 + evals, constants) >= target:
        evals += 1
        n_hi = n_lo
        n_lo //= 2
    # Bisect in log space between failing n_lo and passing n_hi.
    for i in range(4):
        mid = int(round(math.sqrt(n_lo * n_hi)))
        if mid in (n_lo, n_hi):
            break
        if _success_rate_at(protocol, k, ell, eps, mid, trials, seed + 200 + i, constants) >= target:
            n_hi = mid
        else:
            n_lo = mid
    return {"protocol": protocol, "k": k, "ell": ell, "eps": eps, "n_min": n_hi, "censored": False}


def scaling_report(
    protocol_ids: list[str],
    k_grid: list[int],
    eps: float,
    ell: int,
    trials: int = 300,
    seed: int = 0,
    constants=None,
) -> dict:
    """Minimal-n estimates over k plus a least-squares log-log slope per protocol."""
    if len(k_grid) < 3:
        raise KeyError("need at least 3 alphabet sizes")
    table = []
    slopes = {}
    for proto in protocol_ids:
        rows = [minimal_n(proto, k, ell, eps, trials=trials, seed=seed, constants=constants) for k in k_grid]
        table.extend(rows)
        if all(not r["censored"] for r in rows):
            x = np.log(np.array(k_grid, dtype=float))
            y = np.log(np.array([r["n_min"] for r in rows], dtype=float))
            slope = float(np.polyfit(x, y, 1)[0])
        else:
            slope = None
        slopes[proto] = slope
    return {"table": table, "slopes": slopes, "eps": eps, "ell": ell, "trials": trials}
