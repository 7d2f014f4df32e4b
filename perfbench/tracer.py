"""In-process span tracer for smpinfer.

The tracer wraps every module-level public function of the traced smpinfer
modules, plus the public-coin draws of ``smp.PublicCoins``, by replacing
attributes; ``src/`` is never edited.  Where a module imported a name directly
(``from .testers import l2_uniformity_test``), the wrapper replaces that
binding too.  Spans ``(name, start, end, parent)`` stay in memory and are
written out by the caller when the benchmark ends.  A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Bound before any wrapping, so the counting hook opens no span of its own.
from smpinfer.simulate import player_bound

# Layers are the smpinfer modules.  `verify` runs on no workload's user path
# (only the tests and `smpinfer verify` call it), so it is not measured.
LAYERS = ("cli", "harness", "dist", "smp", "public_uniformity", "testers", "infer", "simulate", "identity")
UNMEASURED = ("verify",)
COIN_METHODS = ("balanced_partition", "subset", "element")
PU_PROTOCOLS = ("smooth_protocol", "levin_protocol", "warmup_protocol")

# Per-layer metrics reported by a traced run: name -> unit.  Times are seconds
# per workload pass; counts are per pass.
LAYER_METRICS = {
    "cli.import_s": "s",
    "harness.self_s": "s",
    "harness.run_trial.self_s": "s",
    "harness.make_instance.s": "s",
    "harness.run_experiment.self_s": "s",
    "harness.wilson_interval.s": "s",
    "harness.minimal_n.evals": "count",
    "dist.self_s": "s",
    "dist.flatten.s": "s",
    "smp.self_s": "s",
    "smp.public_coins.s": "s",
    "smp.public_coins.calls": "count",
    "smp.public_bits": "count",
    "public_uniformity.self_s": "s",
    "public_uniformity.smooth_protocol.self_s": "s",
    "public_uniformity.levin_protocol.self_s": "s",
    "public_uniformity.warmup_protocol.self_s": "s",
    "public_uniformity.players": "count",
    "testers.self_s": "s",
    "testers.l2_uniformity_test.s": "s",
    "testers.centralized_uniformity_test.s": "s",
    "infer.self_s": "s",
    "infer.run_block_simulations.s": "s",
    "infer.flying_pony_protocol.s": "s",
    "infer.block_success_ratio": "ratio",
    "simulate.self_s": "s",
    "simulate.simulate_many.s": "s",
    "simulate.declare_ratio": "ratio",
    "simulate.players_per_sample_over_bound": "ratio",
    "identity.self_s": "s",
    "identity.map.s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def _count_pu(counters, args, result):
    d = result.diagnostics
    players = d.get("players_used", d.get("batches", 0) * d.get("players_per_batch", 0))
    counters["public_uniformity.players"] += players
    counters["smp.public_bits"] += d.get("public_bits", 0)


def _count_blocks(counters, args, result):
    counters["infer.blocks"] += result.blocks
    counters["infer.block_successes"] += result.successes


def _count_simulate(counters, args, result):
    p, ell = args[0], args[1]
    counters["simulate.samples"] += len(result)
    counters["simulate.batches"] += sum(o.batches_used for o in result)
    counters["simulate.players"] += sum(o.players_used for o in result)
    counters["simulate.bound_players"] += len(result) * player_bound(p.k, ell)


HOOKS = {
    **{f"public_uniformity.{name}": _count_pu for name in PU_PROTOCOLS},
    "infer.run_block_simulations": _count_blocks,
    "simulate.simulate_many": _count_simulate,
}


class Tracer:
    """Records spans of the wrapped smpinfer functions while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, counters, hook = self.spans, self._stack, self.counters, HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"smpinfer.{layer}")
            for attr, obj in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        coins = importlib.import_module("smpinfer.smp").PublicCoins
        for attr in COIN_METHODS:
            original = vars(coins)[attr]
            self._saved.append((coins, attr, original))
            setattr(coins, attr, self._wrap(f"smp.PublicCoins.{attr}", original))
        # Rebind every name that refers to a wrapped function, in every
        # smpinfer module, so direct imports are traced as well.
        for modname, module in list(sys.modules.items()):
            if modname != "smpinfer" and not modname.startswith("smpinfer."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass layer metrics from the spans and counters recorded so far."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        layer_own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        evals = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - children[i]
            layer_own[name.split(".", 1)[0]] += end - start - children[i]
            calls[name] += 1
            if name == "harness.run_experiment" and parent >= 0 and self.spans[parent][0] == "harness.minimal_n":
                evals += 1
        c = self.counters
        coin_spans = [f"smp.PublicCoins.{m}" for m in COIN_METHODS]
        out = {f"{layer}.self_s": layer_own[layer] for layer in LAYERS if layer != "cli"}
        out.update(
            {
                "harness.run_trial.self_s": own["harness.run_trial"],
                "harness.make_instance.s": total["harness.make_instance"],
                "harness.run_experiment.self_s": own["harness.run_experiment"],
                "harness.wilson_interval.s": total["harness.wilson_interval"],
                # Two experiments (one per side) make one success-rate evaluation.
                "harness.minimal_n.evals": evals / 2,
                "dist.flatten.s": total["dist.flatten"],
                "smp.public_coins.s": sum(total[n] for n in coin_spans),
                "smp.public_coins.calls": sum(calls[n] for n in coin_spans),
                "smp.public_bits": c["smp.public_bits"],
                "public_uniformity.players": c["public_uniformity.players"],
                "testers.l2_uniformity_test.s": total["testers.l2_uniformity_test"],
                "testers.centralized_uniformity_test.s": total["testers.centralized_uniformity_test"],
                "infer.run_block_simulations.s": total["infer.run_block_simulations"],
                "infer.flying_pony_protocol.s": total["infer.flying_pony_protocol"],
                "simulate.simulate_many.s": total["simulate.simulate_many"],
                "identity.map.s": total["identity.build_map"] + total["identity.map_pmf"],
            }
        )
        for name in PU_PROTOCOLS:
            out[f"public_uniformity.{name}.self_s"] = own[f"public_uniformity.{name}"]
        out = {name: value / passes for name, value in out.items()}
        # Ratios are not per pass; a layer the workload never reaches reports 0.
        out["infer.block_success_ratio"] = _ratio(c["infer.block_successes"], c["infer.blocks"])
        out["simulate.declare_ratio"] = _ratio(c["simulate.samples"], c["simulate.batches"])
        out["simulate.players_per_sample_over_bound"] = _ratio(c["simulate.players"], c["simulate.bound_players"])
        return out

    def dump(self) -> dict:
        return {"spans": [list(s) for s in self.spans], "counters": dict(self.counters)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
