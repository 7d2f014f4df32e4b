"""The seeded smpinfer benchmark workloads.

Every workload builds its inputs from the benchmark seed alone.  A call to
``run_pass(index, tick)`` runs one pass of work whose inputs depend only on
``(seed, index)``, so an untraced and a traced pass with the same index must
produce byte-identical outputs.  A pass may call ``tick()`` between its parts,
where the runner times the reference kernel once more.  ``report`` turns the passes of a run into the
workload's own end-to-end metrics and correctness checks.

The workloads call smpinfer only through module attributes
(``harness.run_experiment``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from smpinfer import dist, harness, identity, infer, public_uniformity as pu, simulate, smp

MAX_ERROR = 1.0 / 3.0  # the paper's contract: error at most 1/3 on each side
# The error check fails when the wrong decisions would be this unlikely from a
# tester that errs exactly 1/3 of the time (exact binomial tail), so sampling
# noise around a true rate below 1/3 rarely fails a run.
ERROR_ALPHA = 0.02
# The fewest trials on a side at which the check can fail: all of them wrong.
ERROR_MIN_TRIALS = math.ceil(math.log(ERROR_ALPHA) / math.log(MAX_ERROR))
CHI2_ALPHA = 1e-6  # false-alarm level of the simulate goodness-of-fit check
POOL_KEY = 1_000_003  # seed-derivation key of the workers=2 determinism probe

UNIFORM = {"name": "uniform"}
PANINSKI = {"name": "paninski", "theta": "random"}

# Reference kernels.  On a shared host the wall time of the very same pass
# moves by 15-25% between runs as the host's load changes, in phases of
# 5-30 s, and different kinds of work slow by different amounts.  Each
# workload therefore names a kernel of fixed work, using no smpinfer code,
# that mirrors its dominant operation; the runner times it around every
# untraced pass, and the gated metrics divide pass time by kernel time.
_REF_WEIGHTS = {n: np.linspace(1.0, 2.0, n) / np.linspace(1.0, 2.0, n).sum() for n in (2048, 4096)}
_REF_CDF = np.cumsum(np.full(2048, 1.0 / 2048))


def sampling_kernel() -> None:
    """Weighted sampling and counting over a large domain, as in long tester trials."""
    rng = np.random.default_rng(0)
    for _ in range(2):
        np.bincount(rng.choice(4096, size=250_000, p=_REF_WEIGHTS[4096]), minlength=4096)


def search_kernel() -> None:
    """Inverse-CDF lookups and masking over batch arrays, as in the simulation batches."""
    rng = np.random.default_rng(0)
    for _ in range(4):
        symbols = np.searchsorted(_REF_CDF, rng.random((100, 2, 683)), side="right")
        (symbols % 3)[symbols > 5]


def mixed_kernel() -> None:
    """Small-array sampling plus many small numpy and interpreter calls, as in short trials."""
    rng = np.random.default_rng(0)
    uniforms = np.empty(8192)
    for _ in range(22):
        rng.random(out=uniforms)
        np.searchsorted(_REF_CDF, uniforms, side="right")
    for _ in range(18):
        np.bincount(rng.choice(2048, size=uniforms.size, p=_REF_WEIGHTS[2048]), minlength=2048)
    small = np.arange(8.0)
    acc = {}
    for i in range(3_000):
        acc[i % 13] = acc.get(i % 13, 0.0) + float(np.sum(small * i))


@dataclass
class Part:
    """One unit of work in a pass: an experiment, a simulate call, or a minimal-n search."""

    label: str  # protocol, or the simulate configuration
    side: str  # instance side, simulated pmf, or alphabet size
    ops: int  # trials, samples or searches attempted
    wrong: int = 0
    failed: int = 0
    players: int = 0
    seconds: float = 0.0


@dataclass
class Pass:
    parts: list[Part]
    players: int  # players simulated in the pass
    digest: str  # hash of the pass's deterministic outputs
    data: dict = field(default_factory=dict)
    wall: float = 0.0


def seed_seq(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=key)


def derived_seed(seed: int, *key: int) -> int:
    return int(seed_seq(seed, *key).generate_state(1)[0] >> 1)


def warm_up() -> None:
    """One tiny experiment; it pays the lazy imports (scipy.stats in wilson_interval)."""
    cfg = harness.ExperimentConfig(
        protocol="flying-pony", instance=UNIFORM, grid=({"k": 64, "ell": 2, "eps": 0.3},), trials=1, master_seed=0
    )
    harness.run_experiment(cfg)


def warmup_default_n(k: int, eps: float, c: float = 13.0) -> int:
    """The warmup protocol's default player count, as the harness computes it."""
    m = math.ceil(5.0 / eps)
    return m * math.ceil(c * k * math.log(10.0 * m) / eps**2)


def pool_probe(seed: int) -> harness.ExperimentConfig:
    """The small experiment that the untimed workers=2 determinism check reruns."""
    return harness.ExperimentConfig(
        protocol="levin", instance=PANINSKI, grid=({"k": 64, "ell": 2, "eps": 0.3},), trials=8,
        master_seed=derived_seed(seed, POOL_KEY),
    )


def trial_players(protocol: str, report: harness.TrialReport) -> int:
    """Players one trial used.

    Warmup and flying-pony verdicts carry no ``players_used``, so the harness
    records 0 for them; derive their players from ``n`` (warmup runs
    ``ceil(5/eps)`` batches of ``n // batches`` players).
    """
    if report.players_used:
        return report.players_used
    if protocol == "flying-pony":
        return report.n
    if protocol == "warmup":
        batches = math.ceil(5.0 / report.eps)
        return batches * (report.n // batches)
    return 0


def run_experiment_part(protocol: str, instance: dict, cell: dict, trials: int, master_seed: int) -> tuple[Part, str]:
    cfg = harness.ExperimentConfig(
        protocol=protocol, instance=instance, grid=(cell,), trials=trials, master_seed=master_seed
    )
    start = time.perf_counter()
    result = harness.run_experiment(cfg)
    seconds = time.perf_counter() - start
    reports = result.reports
    part = Part(
        label=protocol,
        side=instance["name"],
        ops=len(reports),
        wrong=sum(not r.correct for r in reports),
        failed=sum(r.decision == "abort" for r in reports),
        players=sum(trial_players(protocol, r) for r in reports),
        seconds=seconds,
    )
    return part, result.to_csv()


def digest(*chunks: str | bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode() if isinstance(chunk, str) else chunk)
    return h.hexdigest()


def error_bound_ok(wrong: int, trials: int) -> bool:
    """False iff there are too few trials for the check to fail, or the error
    rate is significantly above 1/3: P(X >= wrong) < ERROR_ALPHA for
    X ~ Binomial(trials, 1/3)."""
    if trials < ERROR_MIN_TRIALS:
        return False
    if wrong <= trials * MAX_ERROR:
        return True
    log_p, log_q = math.log(MAX_ERROR), math.log(1.0 - MAX_ERROR)
    log_n = math.lgamma(trials + 1)
    tail = sum(
        math.exp(log_n - math.lgamma(i + 1) - math.lgamma(trials - i + 1) + i * log_p + (trials - i) * log_q)
        for i in range(wrong, trials + 1)
    )
    return tail >= ERROR_ALPHA


def chi2_gof(counts: np.ndarray, probs: np.ndarray) -> tuple[float, int, float]:
    """Chi-square goodness of fit of symbol counts against probs: (statistic, df, p-value).

    Symbols are merged into residue classes ``symbol mod G`` (G halving from k)
    until every class expects at least 5 draws; residue classes keep the
    paired structure of paninski instances visible.  The p-value uses the
    Wilson-Hilferty normal approximation.
    """
    n = counts.sum()
    groups = len(probs)
    while True:
        cls = np.arange(len(probs)) % groups
        expected = n * np.bincount(cls, weights=probs, minlength=groups)
        if groups <= 2 or expected.min() >= 5:
            break
        groups //= 2
    observed = np.bincount(cls, weights=counts, minlength=groups)
    stat = float(np.sum((observed - expected) ** 2 / expected))
    df = groups - 1
    h = 2.0 / (9.0 * df)
    z = ((stat / df) ** (1.0 / 3.0) - (1.0 - h)) / math.sqrt(h)
    return stat, df, 1.0 - statistics.NormalDist().cdf(z)


def rate(parts: list[Part]) -> float:
    seconds = sum(p.seconds for p in parts)
    return sum(p.ops - p.failed for p in parts) / seconds if seconds else 0.0


def tester_report(passes: list[Pass]) -> tuple[dict, dict]:
    """Per-protocol trial rates, the worst error rate, and the per-side error checks."""
    parts = [part for p in passes for part in p.parts]
    labels = list(dict.fromkeys(part.label for part in parts))
    metrics = {f"{label}.trials_per_s": (rate([p for p in parts if p.label == label]), "1/s") for label in labels}
    checks = {}
    worst = 0.0
    for label in labels:
        for side in dict.fromkeys(part.side for part in parts if part.label == label):
            group = [p for p in parts if p.label == label and p.side == side]
            wrong, trials = sum(p.wrong for p in group), sum(p.ops for p in group)
            worst = max(worst, wrong / trials)
            checks[f"error<=1/3 {label}/{side} ({wrong}/{trials} wrong)"] = error_bound_ok(wrong, trials)
        players = sum(p.players for p in parts if p.label == label)
        checks[f"players>0 {label} ({players} players)"] = players > 0
    metrics["error_rate"] = (worst, "ratio")
    return metrics, checks


class SweepK64:
    name = "sweep-k64"
    reference = staticmethod(mixed_kernel)
    min_passes = 1  # every pass runs at least ERROR_MIN_TRIALS trials per protocol and side
    CELL = {"k": 64, "ell": 2, "eps": 0.3}
    # (protocol, cell, trials per side per pass): about 0.15 s per side each.
    ENTRIES = (
        ("smooth", CELL, 12),
        ("levin", CELL, 6),
        ("warmup", {**CELL, "n": warmup_default_n(64, 0.3)}, 24),
        ("private-si", CELL, 4),
        ("flying-pony", {**CELL, "n": infer.FLYING_PONY_C * 64}, 400),
    )

    def __init__(self, seed: int):
        self.seed = seed

    def run_pass(self, index: int, tick) -> Pass:
        parts, csvs = [], []
        for j, (protocol, cell, trials) in enumerate(self.ENTRIES):
            for s, instance in enumerate((UNIFORM, PANINSKI)):
                part, csv = run_experiment_part(protocol, instance, cell, trials, derived_seed(self.seed, index, j, s))
                parts.append(part)
                csvs.append(csv)
        return Pass(parts=parts, players=sum(p.players for p in parts), digest=digest(*csvs))

    def report(self, passes: list[Pass]) -> tuple[dict, dict]:
        return tester_report(passes)


class SweepLarge:
    name = "sweep-large"
    reference = staticmethod(sampling_kernel)
    # Passes alternate sides, one trial per protocol each: enough passes for
    # the error check to be able to fail on every side.
    min_passes = 2 * ERROR_MIN_TRIALS
    CELL = {"k": 4096, "ell": 4, "eps": 0.3}
    IDENTITY_K, IDENTITY_EPS = 1000, 0.3

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng(seed_seq(seed, 0))
        k = self.IDENTITY_K
        weights = 0.5 + rng.random(k)
        self.q = dist.Pmf(k=k, probs=weights / weights.sum())
        # Move 90% of the smaller mass of each pair to its partner, in a
        # random direction: TV(far, q) is about 0.37.
        theta = np.where(rng.random(k // 2) < 0.5, 1.0, -1.0)
        shift = 0.9 * np.minimum(self.q.probs[0::2], self.q.probs[1::2]) * theta
        probs = self.q.probs.copy()
        probs[0::2] += shift
        probs[1::2] -= shift
        self.far = dist.Pmf(k=k, probs=probs)
        if dist.tv(self.far, self.q) < self.IDENTITY_EPS:
            raise RuntimeError("identity instance is not eps-far from the reference")

    @staticmethod
    def _smooth(mapped, ell, eps, rng, coins):
        n = pu.SmoothSchedule.from_params(mapped.k, ell, eps).total_players
        return pu.smooth_protocol(mapped, ell, eps, n, coins, rng)

    def run_pass(self, index: int, tick) -> Pass:
        # Passes alternate between the two sides: one trial per protocol and pass.
        side = index % 2
        parts, outputs = [], []
        for j, protocol in enumerate(("smooth", "levin")):
            part, csv = run_experiment_part(
                protocol, (UNIFORM, PANINSKI)[side], self.CELL, 1, derived_seed(self.seed, index, j)
            )
            parts.append(part)
            outputs.append(csv)
        p, expected = (self.q, "accept_uniform") if side == 0 else (self.far, "reject")
        rng_ss, coin_ss = seed_seq(self.seed, index, 2).spawn(2)
        start = time.perf_counter()
        verdict = identity.identity_test_via_uniformity(
            p, self.q, self.CELL["ell"], self.IDENTITY_EPS, self._smooth,
            {"rng": np.random.default_rng(rng_ss), "coins": smp.PublicCoins(coin_ss)},
        )
        seconds = time.perf_counter() - start
        players = verdict.diagnostics["players_used"]
        parts.append(
            Part(label="identity", side=("p=q", "far")[side], ops=1, wrong=int(verdict.decision != expected),
                 players=players, seconds=seconds)
        )
        outputs.append(f"{verdict.decision},{players},{verdict.diagnostics['batch_rejections']}")
        return Pass(parts=parts, players=sum(p.players for p in parts), digest=digest(*outputs))

    def report(self, passes: list[Pass]) -> tuple[dict, dict]:
        return tester_report(passes)


class Simulate:
    name = "simulate"
    reference = staticmethod(search_kernel)
    min_passes = 1
    CONFIGS = ((64, 1, 2000), (1024, 2, 400))  # (k, ell, samples per call)
    PANINSKI_EPS = 0.3

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng(seed_seq(seed, 0))
        self.pmfs = {}
        for k, _, _ in self.CONFIGS:
            theta = np.where(rng.random(k // 2) < 0.5, 1, -1)
            self.pmfs[k, "uniform"] = dist.uniform(k)
            self.pmfs[k, "paninski"] = dist.paninski(dist.PaninskiParam(k=k, eps=self.PANINSKI_EPS, theta=theta))

    def run_pass(self, index: int, tick) -> Pass:
        parts, outputs, counts = [], [], {}
        for j, (k, ell, count) in enumerate(self.CONFIGS):
            for s, side in enumerate(("uniform", "paninski")):
                rng = np.random.default_rng(seed_seq(self.seed, index, j, s))
                label = f"k{k}-l{ell}"
                start = time.perf_counter()
                try:
                    outs = simulate.simulate_many(self.pmfs[k, side], ell, count, rng)
                except simulate.PlayerCapExceeded:
                    parts.append(Part(label=label, side=side, ops=count, failed=count,
                                      seconds=time.perf_counter() - start))
                    continue
                seconds = time.perf_counter() - start
                symbols = np.array([o.symbol for o in outs], dtype=np.int64)
                players = sum(o.players_used for o in outs)
                parts.append(Part(label=label, side=side, ops=count, players=players, seconds=seconds))
                counts[label, side] = np.bincount(symbols, minlength=k)
                outputs += [symbols.tobytes(), str(players)]
        return Pass(parts=parts, players=sum(p.players for p in parts), digest=digest(*outputs), data={"counts": counts})

    def report(self, passes: list[Pass]) -> tuple[dict, dict]:
        parts = [part for p in passes for part in p.parts]
        metrics = {"samples_per_s": (rate(parts), "1/s")}
        checks = {}
        for k, ell, _ in self.CONFIGS:
            label = f"k{k}-l{ell}"
            group = [p for p in parts if p.label == label and not p.failed]
            samples = sum(p.ops for p in group)
            mean_players = sum(p.players for p in group) / samples if samples else math.inf
            bound = simulate.player_bound(k, ell)
            checks[f"players/sample {mean_players:.0f} <= bound {bound:.0f} ({label})"] = mean_players <= bound
            for side in ("uniform", "paninski"):
                counts = [p.data["counts"][label, side] for p in passes if (label, side) in p.data["counts"]]
                if not counts:
                    checks[f"chi2 {label}/{side}: no samples"] = False
                    continue
                stat, df, pvalue = chi2_gof(sum(counts), self.pmfs[k, side].probs)
                checks[f"chi2 {label}/{side} = {stat:.1f} on {df} df, p = {pvalue:.3g}"] = pvalue >= CHI2_ALPHA
        return metrics, checks


@contextmanager
def counting_players(total: list[int]):
    """Add the players of every experiment the harness runs to total[0].

    minimal_n runs its experiments internally, so the scaling workload counts
    their players at ``harness.run_experiment``, in traced and untraced passes
    alike.
    """
    inner = harness.run_experiment

    def counted(cfg, workers=1):
        result = inner(cfg, workers)
        total[0] += sum(r.players_used for r in result.reports)
        return result

    harness.run_experiment = counted
    try:
        yield
    finally:
        harness.run_experiment = inner


class Scaling:
    name = "scaling"
    # Many short experiments at small k: harness and interpreter calls dominate.
    # The host's speed moves within a 3 s pass, so the pass ticks the kernel
    # between its searches.
    reference = staticmethod(mixed_kernel)
    min_passes = 1
    PROTOCOLS = ("levin", "private-si", "smooth")
    KS = (16, 32, 64)
    ELL, EPS, TRIALS = 2, 0.3, 10

    def __init__(self, seed: int):
        self.seed = seed

    def run_pass(self, index: int, tick) -> Pass:
        parts, table, slopes = [], [], {}
        players = [0]
        pass_seed = derived_seed(self.seed, index)
        with counting_players(players):
            for protocol in self.PROTOCOLS:
                n_min = []
                for k in self.KS:
                    if parts:
                        tick()
                    start = time.perf_counter()
                    try:
                        row = harness.minimal_n(protocol, k, self.ELL, self.EPS, trials=self.TRIALS, seed=pass_seed)
                        n = None if row["censored"] else row["n_min"]
                    except ValueError as exc:
                        # smooth_protocol refuses n below its schedule, which minimal_n probes.
                        row, n = {"protocol": protocol, "k": k, "error": str(exc)}, None
                    parts.append(Part(label=protocol, side=f"k={k}", ops=1, failed=int(n is None),
                                      seconds=time.perf_counter() - start))
                    table.append(row)
                    n_min.append(n)
                if None in n_min:
                    slopes[protocol] = None
                else:
                    # The same least-squares log-log fit as harness.scaling_report.
                    x = np.log(np.array(self.KS, dtype=float))
                    slopes[protocol] = float(np.polyfit(x, np.log(np.array(n_min, dtype=float)), 1)[0])
        out = json.dumps({"table": table, "slopes": slopes}, sort_keys=True)
        return Pass(parts=parts, players=players[0], digest=digest(out), data={"slopes": slopes})

    def report(self, passes: list[Pass]) -> tuple[dict, dict]:
        checks = {}
        metrics = {}
        for protocol in ("levin", "private-si"):
            values = [p.data["slopes"][protocol] for p in passes if p.data["slopes"][protocol] is not None]
            if values:
                metrics[f"{protocol}.slope"] = (statistics.median(values), "1")
        for i, p in enumerate(passes):
            lv, si = p.data["slopes"]["levin"], p.data["slopes"]["private-si"]
            ok = lv is not None and si is not None and lv < si
            checks[f"pass {i}: levin slope {_fmt(lv)} < private-si slope {_fmt(si)}"] = ok
        return metrics, checks


def _fmt(value: float | None) -> str:
    return "none" if value is None else f"{value:.2f}"


WORKLOADS = {w.name: w for w in (SweepK64, SweepLarge, Simulate, Scaling)}
