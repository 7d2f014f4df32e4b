"""Experiment orchestration: configs, seeded sweeps, calibration, scaling reports.

A run is fully determined by (config, master seed): every trial derives its
random streams from a per-(cell, trial) seed sequence, instance draws included,
so re-running any single trial in isolation reproduces it.  An experiment
seeds its streams from one batch of seed words per cell, the words those seed
sequences give, so the draws are those of the per-trial seed sequences.
Persisted artifacts (CSV rows, JSON summaries) contain only deterministic
fields.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import dataclass, asdict, field
from typing import Callable

import numpy as np

from . import infer, public_uniformity as pu, testers
from .dist import Pmf, _paired, uniform
from .smp import TrialStreams, Verdict, trial_seed_words

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
MAX_ERROR = 1.0 / 3.0  # the per-side error every tester guarantees
SIDES = ({"name": "uniform"}, {"name": "paninski", "theta": "random"})  # a search's sides; side 1 is far
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


# A paninski or flying_pony theta kind: its +-1 pattern, repeated to length k/2;
# "random" draws theta from the trial's instance stream, the only spec that reads it.
THETAS = {"alternating": [1, -1], "neg-alternating": [-1, 1], "ones": [1], "neg-ones": [-1], "random": None}
# The paired perturbation of uniform that dist.paninski and dist.flying_pony build
# from a theta; ExperimentConfig checked k and eps, and theta is +-1 by construction.
_THETA_INSTANCES = {
    "paninski": lambda eps, theta: 2.0 * eps * theta,
    "flying_pony": lambda eps, theta: theta,
}


def make_instance(spec: dict, k: int, eps: float, streams: TrialStreams, file_pmf: Pmf | None = None) -> tuple[Pmf, str]:
    """(pmf, expected verdict) of a spec that ExperimentConfig validated; else a
    KeyError.  A pmf_file spec's pmf is file_pmf, the one ExperimentConfig read."""
    name = spec.get("name", "uniform")
    if name == "uniform":
        return uniform(k), "accept_uniform"
    if name == "pmf_file":
        return file_pmf, spec.get("expected", "reject")
    delta, kind = _THETA_INSTANCES[name], spec.get("theta", "random")
    theta = np.where(streams.instance.random(k // 2) < 0.5, 1, -1) if kind == "random" else np.resize(THETAS[kind], k // 2)
    return Pmf._trusted(k, _paired(k, delta(eps, theta))), "reject"


# ---------------------------------------------------------------------------
# Cells and the protocol registry
# ---------------------------------------------------------------------------


def check_keys(what: str, obj, known) -> None:
    """Reject a config object that is not a JSON object or has a key outside `known`."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object")
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}; known keys are {sorted(known)}")


def _check_integer(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer")


@dataclass(frozen=True)
class Cell:
    """One grid cell: alphabet size k, message bits ell, distance eps, players n.

    n is optional; a cell without n runs at its protocol's default.
    Validated on construction, so build cells where input enters, not per trial.
    """

    k: int
    ell: int
    eps: float
    n: int | None = None

    def __post_init__(self):
        _check_integer("k", self.k)
        _check_integer("ell", self.ell)
        if self.n is not None:
            _check_integer("n", self.n)
        if not isinstance(self.eps, numbers.Real):
            raise ValueError("eps must be a real number")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.ell < 1:
            raise ValueError("ell must be >= 1")
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie in (0,1)")
        if self.n is not None and self.n < 1:
            raise ValueError("n must be >= 1")

    @classmethod
    def from_dict(cls, d: dict) -> "Cell":
        check_keys("cell", d, ("k", "ell", "eps", "n"))
        return cls(k=d["k"], ell=d["ell"], eps=d["eps"], n=d.get("n"))

    def to_dict(self) -> dict:
        """The fields that were given (n is omitted when None)."""
        return {key: value for key, value in asdict(self).items() if value is not None}


@dataclass(frozen=True)
class Protocol:
    """A registered tester and its one tunable constant c: `key`'s value in a
    constants block, else `default` (None for a protocol without a constant).

    default_n(k, ell, eps, c) is the player count of a cell without n;
    run(p, ell, eps, n, streams, c) plays one trial on the trial's streams (it
    reads only the streams its tester draws from) and returns the referee's
    verdict; ladder holds calibrate's candidate values of c, smallest first.
    `trial` is the one place that resolves c and n and calls run.
    """

    default_n: Callable[[int, int, float, float | None], int]
    run: Callable[..., Verdict]
    key: str | None = None
    default: float | None = None
    ladder: tuple[float, ...] = ()

    def constant(self, constants: dict | None) -> float | None:
        """This protocol's constant in a (validated) constants block, else its default."""
        return (constants or {}).get(self.key, self.default)

    def n_for(self, cell: Cell, c: float | None) -> int:
        """The cell's n if given, else this protocol's default at constant c."""
        return cell.n if cell.n is not None else self.default_n(cell.k, cell.ell, cell.eps, c)

    def trial(self, p: Pmf, cell: Cell, streams: TrialStreams, constants: dict | None = None) -> tuple[int, Verdict]:
        """One trial on p at the cell: (the n it ran at, the referee's verdict)."""
        c = self.constant(constants)
        n = self.n_for(cell, c)
        return n, self.run(p, cell.ell, cell.eps, n, streams, c)


PROTOCOLS = {
    "smooth": Protocol(
        lambda k, ell, eps, c: pu.SmoothSchedule.from_params(k, ell, eps, c_l2=c).total_players,
        lambda p, ell, eps, n, s, c: pu.smooth_protocol(p, ell, eps, n, s.coins, s.protocol, c_l2=c),
        "c_l2", testers.C_L2_DEFAULT, tuple(1.0 * 1.5**i for i in range(8)),
    ),
    "levin": Protocol(
        lambda k, ell, eps, c: pu.LevinSchedule.from_params(k, ell, eps, c).total_players,
        lambda p, ell, eps, n, s, c: pu.levin_protocol(p, ell, eps, s.coins, s.protocol, c=c, n=n),
        "levin_scale", 1.0, tuple(0.25 * 1.4**i for i in range(10)),
    ),
    "warmup": Protocol(
        lambda k, ell, eps, c: pu.warmup_players(k, eps, c),
        lambda p, ell, eps, n, s, c: pu.warmup_protocol(p, eps, n, s.coins, s.protocol, c=c),
        "warmup_c", pu.WARMUP_C, tuple(2.0 * 1.5**i for i in range(8)),
    ),
    "private-si": Protocol(
        lambda k, ell, eps, c: infer.si_uniformity_players(k, ell, eps, c=c),
        lambda p, ell, eps, n, s, c: infer.si_uniformity_protocol(p, ell, eps, n, s.protocol, c=c),
        "c_uniformity", testers.C_UNIFORMITY_DEFAULT, tuple(0.75 * 1.5**i for i in range(8)),
    ),
    "flying-pony": Protocol(
        lambda k, ell, eps, c: infer.FLYING_PONY_C * k,
        lambda p, ell, eps, n, s, c: infer.flying_pony_protocol(p, n, s.protocol),
    ),
}


def _check_constants(constants) -> None:
    """Validate a constants block where it enters: a flat {key: positive finite real} map.

    Every key must be some registered protocol's constant.  A key of another
    protocol than the one that runs is allowed, so one block can serve all the
    protocols of a scaling config.
    """
    if not isinstance(constants, (dict, type(None))):
        raise ValueError("constants must be an object of {key: value}")
    known = sorted(p.key for p in PROTOCOLS.values() if p.key)
    for key, value in (constants or {}).items():
        if key not in known:
            raise ValueError(f"unknown constant {key!r}; known constants are {known}")
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
            raise ValueError(f"constant {key!r} must be a positive finite real, got {value!r}")


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """`trials` seeded trials per grid cell: the one check of a run's spec, made
    before any trial.  Dict cells are validated here into Cells, the instance
    spec against every cell and the constants block by `_check_constants`.
    `from_json` also rejects unknown top-level keys.  A pmf_file instance is
    read here, once, into file_pmf: every trial plays that pmf, whatever
    happens to the file during the run."""

    INSTANCE_KEYS = ("name", "theta", "path", "expected")
    JSON_KEYS = ("schema_version", "protocol", "instance", "grid", "trials", "master_seed", "constants")

    protocol: str
    instance: dict
    grid: tuple[Cell, ...]
    trials: int
    master_seed: int
    constants: dict | None = None
    file_pmf: Pmf | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.grid:
            raise ValueError("grid must be non-empty")
        _check_integer("trials", self.trials)
        _check_integer("master_seed", self.master_seed)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        _check_constants(self.constants)
        grid = tuple(c if isinstance(c, Cell) else Cell.from_dict(c) for c in self.grid)
        check_keys("instance", self.instance, self.INSTANCE_KEYS)
        spec, name = self.instance, self.instance.get("name", "uniform")
        for key, value, known in (("name", name, ("uniform", "pmf_file", *_THETA_INSTANCES)),
                                  ("theta", spec.get("theta", "random"), tuple(THETAS)),
                                  ("expected", spec.get("expected", "reject"), ("accept_uniform", "reject"))):
            if value not in known:
                raise ValueError(f"unknown instance {key} {value!r}; known are {sorted(known)}")
        if name == "pmf_file":
            with open(spec["path"]) as fh:
                file_pmf = Pmf.from_json(fh.read())
            if any(c.k != file_pmf.k for c in grid):
                raise ValueError(f"pmf_file {spec['path']!r} has k={file_pmf.k}, but every cell must have that k")
            object.__setattr__(self, "file_pmf", file_pmf)
        if name in _THETA_INSTANCES and any(c.k % 2 for c in grid):
            raise ValueError(f"a {name} instance needs an even k in every cell")
        if name == "paninski" and any(c.eps > 0.5 for c in grid):
            raise ValueError("a paninski instance needs eps <= 1/2 in every cell")
        object.__setattr__(self, "grid", grid)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        obj = json.loads(text)
        check_keys("config", obj, cls.JSON_KEYS)
        if obj.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {obj.get('schema_version')!r}")
        return cls(
            protocol=obj["protocol"],
            instance=obj.get("instance", {"name": "uniform"}),
            grid=tuple(obj["grid"]),
            trials=obj["trials"],
            master_seed=obj.get("master_seed", 0),
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
        return [getattr(self, f) for f in self.CSV_FIELDS]


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


def run_trial(cfg: ExperimentConfig, cell_index: int, trial_index: int, words: np.ndarray | None = None) -> TrialReport:
    """One trial of the experiment.  words is the trial's row of its cell's
    trial_seed_words, when the caller computed them in one batch."""
    cell = cfg.grid[cell_index]
    streams = TrialStreams(cfg.master_seed, cell_index, trial_index, words)
    p, expected = make_instance(cfg.instance, cell.k, cell.eps, streams, cfg.file_pmf)
    n, verdict = PROTOCOLS[cfg.protocol].trial(p, cell, streams, cfg.constants)
    return TrialReport(
        cell=cell_index,
        trial=trial_index,
        k=cell.k,
        ell=cell.ell,
        eps=cell.eps,
        n=n,
        seed=f"{cfg.master_seed}/{cell_index}/{trial_index}",
        decision=verdict.decision,
        expected=expected,
        correct=verdict.decision == expected,
        players_used=int(verdict.diagnostics["players_used"]),
        public_bits=int(verdict.diagnostics.get("public_bits", 0)),
    )


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Every trial of every cell, then one summary per cell.

    Each cell's seed words are computed in one trial_seed_words call, and each
    trial runs on its row, in this process or in one of `workers` processes;
    the reports are the same either way.
    """
    coords = [(ci, ti) for ci in range(len(cfg.grid)) for ti in range(cfg.trials)]
    words = [row for ci in range(len(cfg.grid)) for row in trial_seed_words(cfg.master_seed, ci, cfg.trials)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run_trial, [cfg] * len(coords), *zip(*coords), words, chunksize=8))
    else:
        reports = [run_trial(cfg, ci, ti, row) for (ci, ti), row in zip(coords, words)]
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
    """No ladder value met the target error."""


def _cell_error(protocol: str, cell: Cell, constants: dict | None, trials: int, seed: int) -> float:
    """The larger side error at the cell: `trials` trials on uniform, then on a
    random paninski instance, at master seed seed * 2 + side.  A side's error is
    wrong / trials, which is exact at a boundary such as 1/3."""
    configs = (ExperimentConfig(protocol, inst, (cell,), trials, seed * 2 + side, constants) for side, inst in enumerate(SIDES))
    return max(sum(not r.correct for r in run_experiment(cfg).reports) / trials for cfg in configs)


def calibrate(
    protocol: str,
    target_error: float,
    grid: list[dict],
    budget: int,
    master_seed: int = 0,
) -> dict:
    """Smallest ladder constant whose error on each side of every cell is <= target_error.

    budget is trials per candidate per cell side; the result dict is a
    constants file payload with provenance metadata.  The target and the
    search's far-side config are validated before any trial runs.
    """
    if isinstance(target_error, bool) or not isinstance(target_error, numbers.Real) or not 0 < target_error < 1:
        raise ValueError(f"target error must be a real number in (0,1), got {target_error!r}")
    if not isinstance(grid, (list, tuple)):
        raise ValueError("grid must be a list of cells")
    cells = ExperimentConfig(protocol, SIDES[1], tuple(grid), budget, master_seed * 2 + 1).grid
    if budget < 100:
        raise ValueError("budget must be >= 100 trials per candidate")
    if not PROTOCOLS[protocol].ladder:
        raise ValueError(f"no calibration ladder for protocol {protocol!r}")
    key = PROTOCOLS[protocol].key
    errors = {}
    for value in PROTOCOLS[protocol].ladder:
        constants = {key: value}
        errors[value] = max(_cell_error(protocol, cell, constants, budget, master_seed) for cell in cells)
        if errors[value] <= target_error:
            return {
                "protocol": protocol,
                "constant_key": key,
                "constant": value,
                "constants": constants,
                "measured_error": errors[value],
                "target_error": target_error,
                "grid": [c.to_dict() for c in cells],
                "budget": budget,
                "master_seed": master_seed,
            }
    best = min(errors, key=errors.get)
    raise CalibrationFailure(
        f"no ladder value met target {target_error}; lowest error {errors[best]} at {key} = {best}"
    )


# ---------------------------------------------------------------------------
# Scaling report
# ---------------------------------------------------------------------------


def _search_config(protocol: str, cells, trials: int, seed: int, constants) -> ExperimentConfig:
    """The far-side config of minimal-n searches over cells: their spec check."""
    _check_integer("trials", trials)
    if trials < 2:
        raise ValueError("trials must be >= 2: each side runs trials // 2")
    return ExperimentConfig(protocol, SIDES[1], tuple(cells), trials // 2, seed * 2 + 1, constants)


def minimal_n(
    protocol: str,
    k: int,
    ell: int,
    eps: float,
    trials: int = 300,
    seed: int = 0,
    constants=None,
    n_cap: int = N_CAP,
) -> dict:
    """Geometric bracket + bisection for the smallest n whose error is <= MAX_ERROR
    on each side, over trials // 2 trials per side."""
    (cell,) = _search_config(protocol, [Cell(k, ell, eps)], trials, seed, constants).grid
    proto = PROTOCOLS[protocol]
    # The protocol's default n is the starting upper guess.
    n_hi = min(proto.n_for(cell, proto.constant(constants)), n_cap)
    row = {"protocol": protocol, "k": k, "ell": ell, "eps": eps}

    def passes(n: int, at_seed: int) -> bool:
        return _cell_error(protocol, Cell(k, ell, eps, n), constants, trials // 2, at_seed) <= MAX_ERROR

    evals = 0
    while not passes(n_hi, seed + evals):
        evals += 1
        n_hi *= 2
        if n_hi > n_cap:
            return {**row, "n_min": None, "censored": True}
    n_lo = n_hi // 2
    while n_lo >= 8 and passes(n_lo, seed + 100 + evals):
        evals += 1
        n_hi = n_lo
        n_lo //= 2
    # Bisect in log space between failing n_lo and passing n_hi.
    for i in range(4):
        mid = int(round(math.sqrt(n_lo * n_hi)))
        if mid in (n_lo, n_hi):
            break
        if passes(mid, seed + 200 + i):
            n_hi = mid
        else:
            n_lo = mid
    return {**row, "n_min": n_hi, "censored": False}


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
        raise ValueError("need at least 3 alphabet sizes")
    for proto in protocol_ids:
        _search_config(proto, [Cell(k, ell, eps) for k in k_grid], trials, seed, constants)
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
