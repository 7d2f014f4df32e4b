"""smpinfer benchmark: seeded workloads, end-to-end metrics, traced layer timings.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-k64 --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --smoke

A run measures set-up time in fresh interpreters, warms up, then runs passes of
the workload for ``--seconds`` seconds in one process (``workers=1``).  With
``--workload all`` each workload runs in a child process of its own, so that
set-up time and peak memory are measured per workload.  With
``--trace 1`` untraced and traced passes alternate: the traced ones give the
per-layer metrics, and the difference is the tracing overhead.  The last line
of standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it print every metric with its
unit, the correctness checks and the machine.  A JSON record of the run (and,
traced, of every span) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120

# A fresh interpreter: import smpinfer.cli, then one warm-up call.
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import smpinfer.cli
imported = time.perf_counter()
import workloads
workloads.warm_up()
print(imported - start)
"""
# The reference set-up: a fresh interpreter importing what dominates set-up
# time but is not smpinfer code.
REFERENCE_SETUP = "import numpy, scipy.stats"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_child(*args: str) -> tuple[float, str]:
    """Wall time and standard output of a fresh interpreter running ``-c args``."""
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", *args], cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True
    )
    return time.perf_counter() - start, out.stdout


def measure_setup(repeats: int) -> dict[str, list[float]]:
    """Fresh set-ups, each followed by a fresh reference set-up.

    Set-up time moves with the host's load (by 25-35% between runs an hour
    apart), and so does the reference set-up, which is most of it.  Their
    ratio is the set-up time in seconds of a host on which the reference
    set-up takes one second.
    """
    walls, refs, imports = [], [], []
    for _ in range(repeats):
        wall, out = run_child(SETUP_CHILD, str(SRC), str(BENCH_DIR))
        walls.append(wall)
        imports.append(float(out.split()[-1]))
        refs.append(run_child(REFERENCE_SETUP)[0])
    return {
        "setup_s": [wall / ref for wall, ref in zip(walls, refs)],
        "setup_wall_s": walls,
        "setup_ref_s": refs,
        "import_s": imports,
    }


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(), **versions}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def time_kernel(kernel) -> float:
    """Wall time of one run of a reference kernel (see workloads.py)."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def run_passes(workload, seconds: float, tracer) -> tuple[list, list, list]:
    """Run passes until the next one would end after `seconds`, and at least
    the workload's ``min_passes``.

    The workload's reference kernel runs before every untraced pass, wherever
    the pass calls ``tick`` (outside its timed parts), and once after the
    last pass; ``refs[i]`` holds the kernel times before and inside untraced
    pass ``i``, and ``refs[-1]`` the last one.  A pass's wall time excludes its
    kernels.  With a tracer, each pass index runs untraced and traced, in
    alternating order, so both see the same inputs; traced passes run no kernel.
    """
    untraced, traced, refs = [], [], []
    durations = []  # wall time per pass index, kernels included
    workload.reference()  # warm-up
    start = time.perf_counter()
    index = 0
    while index < workload.min_passes or time.perf_counter() - start + statistics.median(durations) <= seconds:
        began = time.perf_counter()
        modes = (False,) if tracer is None else ((False, True) if index % 2 == 0 else (True, False))
        for with_trace in modes:
            kernels = []
            if with_trace:
                tracer.install()
                tick = lambda: None  # noqa: E731
            else:
                kernels.append(time_kernel(workload.reference))
                tick = lambda: kernels.append(time_kernel(workload.reference))  # noqa: E731
            try:
                t0 = time.perf_counter()
                result = workload.run_pass(index, tick)
                result.wall = time.perf_counter() - t0 - sum(kernels[1:])
            finally:
                if with_trace:
                    tracer.uninstall()
            if with_trace:
                traced.append(result)
            else:
                untraced.append(result)
                refs.append(kernels)
        durations.append(time.perf_counter() - began)
        index += 1
    refs.append([time_kernel(workload.reference)])
    return untraced, traced, refs


def pool_identical(seed: int) -> bool:
    """An untimed workers=2 rerun of the probe experiment gives the workers=1 CSV."""
    import workloads
    from smpinfer import harness

    cfg = workloads.pool_probe(seed)
    return harness.run_experiment(cfg, workers=1).to_csv() == harness.run_experiment(cfg, workers=2).to_csv()


def run_workload(name: str, why: str, seed: int, seconds: float, trace: bool, setup: dict) -> dict:
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    tracer = tracing.Tracer() if trace else None
    untraced, traced, refs = run_passes(workload, seconds, tracer)

    parts = [part for p in untraced for part in p.parts]
    attempted = sum(p.ops for p in parts)
    failed = sum(p.failed for p in parts)
    walls = [p.wall for p in untraced]
    players = sum(p.players for p in untraced)
    # Each pass in units of the reference kernel timed before, inside and after it.
    relative = [wall / statistics.mean(kernels + after[:1]) for wall, kernels, after in zip(walls, refs, refs[1:])]
    e2e = {
        **{key: (statistics.median(setup[key]), "s") for key in ("setup_s", "setup_wall_s", "setup_ref_s")},
        "wall_ref": (statistics.median(relative), "ref"),
        "players_per_ref": (players / sum(relative), "1/ref"),
        "wall_s": (statistics.median(walls), "s"),
        "players_per_s": (players / sum(walls), "1/s"),
        "ref_s": (statistics.median(t for kernels in refs for t in kernels), "s"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    extra, checks = workload.report(untraced)
    e2e.update(extra)
    e2e["peak_rss_mb"] = (peak_rss_mb(), "MB")

    layers = {}
    if trace:
        checks["traced and untraced passes give identical output"] = all(
            a.digest == b.digest for a, b in zip(untraced, traced)
        )
        layers = {name: (value, tracing.LAYER_METRICS[name]) for name, value in tracer.metrics(len(traced)).items()}
        untraced_wall = statistics.median(walls)
        overhead = statistics.median(p.wall for p in traced) - untraced_wall
        layers["cli.import_s"] = (statistics.median(setup["import_s"]), "s")
        layers["trace.overhead_s"] = (overhead, "s")
        layers["trace.overhead_frac"] = (overhead / untraced_wall, "ratio")
        layers = {name: layers[name] for name in tracing.LAYER_METRICS}
    else:
        checks["workers=2 rerun gives the workers=1 CSV"] = pool_identical(seed)

    record = {
        "workload": name,
        "why": why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "passes": len(untraced),
        "pass_walls_s": walls,
        "pass_players": [p.players for p in untraced],
        "traced_pass_walls_s": [p.wall for p in traced],
        "reference_walls_s": refs,
        "setup_samples": setup,
        "attempted": attempted,
        "failed": failed,
        "correct": all(checks.values()),
        "checks": checks,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "unmeasured_layers": list(tracing.UNMEASURED),
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump({**record, **({"trace_data": tracer.dump()} if trace else {})}, fh)
    return record


def print_record(record: dict) -> None:
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"passes={record['passes']}: {record['why']}")
    print(f"   machine: {json.dumps(record['machine'], sort_keys=True)}")
    for section in ("end_to_end", "per_layer"):
        for name, m in record[section].items():
            print(f"   {section:<10} {name:<42} {m['value']:>14.6g} {m['unit']}")
    if record["trace"]:
        print(f"   per_layer  {', '.join(record['unmeasured_layers'])}: unmeasured (on no workload's user path)")
    for check, ok in record["checks"].items():
        print(f"   check {'ok  ' if ok else 'FAIL'} {check}")
    print(f"   attempted={record['attempted']} failed={record['failed']} correct={record['correct']}")


def result_line(record: dict, spec: dict) -> dict:
    section = "per_layer" if record["trace"] else "end_to_end"
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: record[section][m["name"]] for m in spec[section]},
    }


def run_all(names: list[str], args) -> int:
    """Run each workload in a child process; the result line prefixes metrics with the workload."""
    results = {}
    for name in names:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        print(out.stdout, end="", flush=True)
        if out.returncode != 0:
            return out.returncode
        results[name] = json.loads(out.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{m}": v for name, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def smoke(spec: dict) -> int:
    """One short traced and one untraced run of every workload; every metric must appear with its unit."""
    setup = measure_setup(1)
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (False, True):
            record = run_workload(name, workload["why"], seed=1, seconds=0, trace=trace, setup=setup)
            print_record(record)
            section = "per_layer" if trace else "end_to_end"
            for metric in spec[section]:
                got = record[section].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{name} trace={int(trace)}: {metric['name']} [{metric['unit']}] got {got}")
            if not record["correct"]:
                problems.append(f"{name} trace={int(trace)}: a correctness check failed")
    for problem in problems:
        print(f"smoke FAIL {problem}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one short pass of every workload, traced and not")
    args = ap.parse_args(argv)

    if not (SRC / "smpinfer" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no smpinfer sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import smpinfer

    if Path(smpinfer.__file__).resolve().parent != SRC / "smpinfer":
        print(f"error: imported smpinfer from {smpinfer.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    spec = load_spec()
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload == "all" and not args.smoke:
        return run_all(list(whys), args)
    if args.workload not in whys and not args.smoke:
        print(f"error: unknown workload {args.workload!r}; choose from {list(whys)}", file=sys.stderr)
        return 2
    workloads.warm_up()
    if args.smoke:
        return smoke(spec)

    setup = measure_setup(SETUP_REPEATS)
    record = run_workload(args.workload, whys[args.workload], args.seed, args.seconds, bool(args.trace), setup)
    print_record(record)
    print(json.dumps(result_line(record, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
