"""Command-line front door.

Exit codes: 0 success, 1 stdout was closed before the output was written,
2 a verification/assertion failed, 3 config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import harness, identity, infer, verify
from .dist import Partition, Pmf, uniform
from .simulate import contiguous_blocks, rho, simulate_many
from .smp import TrialStreams, trial_seed_seq

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_VERIFY_FAIL = 2
EXIT_CONFIG = 3


def _load_pmf(path: str | None, k: int | None) -> Pmf:
    if path:
        with open(path) as fh:
            return Pmf.from_json(fh.read())
    if k is None:
        raise KeyError("either --pmf or --k is required")
    return uniform(k)


def _emit(obj, out: str | None, fmt: str):
    if fmt == "json":
        _write(json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n", out)
    else:
        _write(_to_csv(obj), out)


def _write(text: str, out: str | None):
    _write_chunks((text,), out)


def _write_chunks(chunks, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _json_default(o):
    if isinstance(o, Pmf):
        return o.probs.tolist()
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, (np.integer, np.floating)):
        return o.item()
    raise TypeError(f"not JSON serializable: {type(o)}")


def _to_csv(obj) -> str:
    import csv as _csv
    import io

    rows = obj if isinstance(obj, list) else [obj]
    flat = []
    for r in rows:
        flat.append({k: (v if np.isscalar(v) or v is None else json.dumps(v, default=_json_default)) for k, v in r.items()})
    fields = list(dict.fromkeys(k for r in flat for k in r))
    buf = io.StringIO()
    w = _csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    w.writeheader()
    w.writerows(flat)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    p = _load_pmf(args.pmf, args.k)
    rng = np.random.default_rng(trial_seed_seq(args.seed, 0, 0))
    outs = simulate_many(p, args.ell, args.count, rng)
    _write_chunks(_sample_lines(outs, args.format), args.out)
    return EXIT_OK


def _sample_lines(outs, fmt: str):
    """The text _emit writes for one {index, symbol, players_used, batches_used}
    row per sample, made one sample at a time rather than from a list of dicts."""
    if fmt == "json":
        yield "["
        for i, o in enumerate(outs):
            yield (
                f'{"," if i else ""}\n  {{\n    "batches_used": {o.batches_used},\n    "index": {i},\n'
                f'    "players_used": {o.players_used},\n    "symbol": {o.symbol}\n  }}'
            )
        yield "\n]\n"
    else:
        yield "index,symbol,players_used,batches_used\n"
        for i, o in enumerate(outs):
            yield f"{i},{o.symbol},{o.players_used},{o.batches_used}\n"


def _one_shot(args):
    """(p, cell, trial streams) of a one-shot command: the run at --seed s is
    trial (0, 0) of the matching one-cell experiment at master seed s."""
    p = _load_pmf(args.pmf, args.k)
    return p, harness.Cell(p.k, args.ell, args.eps, args.n), TrialStreams(args.seed, 0, 0)


def cmd_infer(args) -> int:
    p, cell, streams = _one_shot(args)
    if args.task == "uniformity":
        n, verdict = harness.PROTOCOLS["private-si"].trial(p, cell, streams)
    else:
        n = cell.n if cell.n is not None else infer.si_learning_players(p.k, cell.ell, cell.eps)
        verdict = infer.si_learning_protocol(p, cell.ell, n, streams.protocol)
    row = {"task": args.task, "n": n, "decision": verdict.decision, **verdict.diagnostics}
    _emit(row, args.out, args.format)
    return EXIT_OK


def cmd_test_uniformity(args) -> int:
    p, cell, streams = _one_shot(args)
    n, verdict = harness.PROTOCOLS[args.protocol].trial(p, cell, streams)
    row = {"protocol": args.protocol, "n": n, "decision": verdict.decision, **verdict.diagnostics}
    _emit(row, args.out, args.format)
    return EXIT_OK


def cmd_test_identity(args) -> int:
    p, cell, streams = _one_shot(args)
    with open(args.reference) as fh:
        q = Pmf.from_json(fh.read())
    proto = harness.PROTOCOLS[args.protocol]

    def protocol(mapped, ell, eps, streams):
        return proto.trial(mapped, dataclasses.replace(cell, k=mapped.k, eps=eps), streams)[1]

    verdict = identity.identity_test_via_uniformity(p, q, cell.ell, cell.eps, protocol, {"streams": streams})
    decision = "accept_identity" if verdict.decision == "accept_uniform" else verdict.decision
    row = {"protocol": args.protocol, "decision": decision, **verdict.diagnostics}
    _emit(row, args.out, args.format)
    return EXIT_OK


# -- verify suites -----------------------------------------------------------


def _suite_flattening(rng) -> list[dict]:
    rows = []
    for k, L in ((12, 3), (16, 4), (24, 2)):
        delta = rng.normal(size=k)
        delta -= delta.mean()
        dev = verify.Deviation(k=k, delta=delta)
        mc = verify.flattening_anticoncentration(dev, L, 200_000, rng)
        closed = verify.var_Zr_closed_form(dev, L, k)
        resid = float(np.max(np.abs(mc["var_Zr"] - closed)))
        rows.append(
            {"check": f"variance k={k} L={L}", "residual": resid,
             "ok": bool(resid < 0.05 * closed)}
        )
        rows.append(
            {"check": f"anticoncentration k={k} L={L}", "residual": mc["prob"],
             "ok": bool(mc["prob"] >= 0.01)}
        )
    return rows


def _suite_chi2(rng) -> list[dict]:
    rows = []
    for trial in range(5):
        n, M, Z = 3, 2, 3
        P = rng.dirichlet(np.ones(M) * 5, size=n)
        Q = [P + 0.2 * (rng.random((n, M)) - 0.5) * P for _ in range(Z)]
        Q = [np.abs(q) / np.abs(q).sum(axis=1, keepdims=True) for q in Q]
        w = rng.dirichlet(np.ones(Z))
        lhs, rhs, diff = verify.chi2_mixture_identity_check(P, Q, w)
        rows.append({"check": f"mixture identity trial {trial}", "residual": diff, "ok": bool(diff < 1e-10)})
    return rows


def _random_det_map(k, ell, rng) -> Partition:
    return Partition(k, 2**ell, rng.integers(2**ell, size=k))


def _suite_hmatrix(rng) -> list[dict]:
    rows = []
    for k, ell in ((8, 1), (12, 2), (16, 2)):
        W = _random_det_map(k, ell, rng)
        H = verify.h_matrix(W)
        # Independent recomputation straight from the definition.
        msg_of = W.assign
        half = k // 2
        ref = np.zeros((half, half))
        for i1 in range(half):
            for i2 in range(half):
                acc = 0.0
                for m in range(2**ell):
                    D = int(np.sum(msg_of == m))
                    if D == 0:
                        continue
                    d1 = int(msg_of[2 * i1] == m) - int(msg_of[2 * i1 + 1] == m)
                    d2 = int(msg_of[2 * i2] == m) - int(msg_of[2 * i2 + 1] == m)
                    acc += d1 * d2 / D
                ref[i1, i2] = acc
        resid = float(np.max(np.abs(H.entries - ref)))
        rows.append({"check": f"h-matrix k={k} ell={ell}", "residual": resid, "ok": bool(resid < 1e-12)})
    return rows


def _suite_subgaussian(rng) -> list[dict]:
    rows = []
    for k, ell in ((8, 1), (12, 2)):
        H = verify.h_matrix(_random_det_map(k, ell, rng))
        for lam in (0.05, 0.1, 0.2):
            log_mgf, bound = verify.subgaussian_claim_check(H, lam)
            rows.append(
                {"check": f"subgaussian k={k} ell={ell} lam={lam}",
                 "residual": log_mgf - bound, "ok": bool(log_mgf <= bound + 1e-12)}
            )
    return rows


def _suite_paninski_tv(rng) -> list[dict]:
    rows = []
    for k, n, eps in ((8, 5, 0.2), (16, 6, 0.3)):
        W_list = [_random_det_map(k, 1, rng) for _ in range(n)]
        mean_tv_sq, bound = verify.paninski_message_tv_bound(W_list, eps)
        rows.append(
            {"check": f"tv bound k={k} n={n} eps={eps}",
             "residual": mean_tv_sq - bound, "ok": bool(mean_tv_sq <= bound + 1e-12)}
        )
    return rows


def _suite_levin_lemma(rng) -> list[dict]:
    rows = []
    for k, s in ((6, 2), (8, 3)):
        probs = rng.dirichlet(np.ones(k))
        p = Pmf(k=k, probs=probs)
        expect, bound = verify.levin_claim_enumeration(p, s)
        rows.append(
            {"check": f"subset mass lemma k={k} s={s}",
             "residual": abs(expect - bound), "ok": bool(abs(expect - bound) < 1e-12)}
        )
    return rows


def _suite_rho(rng) -> list[dict]:
    rows = []
    for k, s in ((4, 2), (6, 3)):
        probs = rng.dirichlet(np.ones(k))
        blocks = contiguous_blocks(k, s)
        block_masses = [float(probs[b].sum()) for b in blocks]
        closed = rho(block_masses)
        enum = verify.rho_enumeration(probs, blocks)
        rows.append(
            {"check": f"rho enumeration k={k} s={s}",
             "residual": abs(closed - enum), "ok": bool(abs(closed - enum) < 1e-12)}
        )
        norm = float(np.sqrt(np.sum(np.array(block_masses) ** 2)))
        lower = (1.0 - norm) * np.exp(norm - 1.0)
        rows.append(
            {"check": f"rho lower bound k={k} s={s}",
             "residual": closed - lower, "ok": bool(closed >= lower - 1e-12)}
        )
    return rows


_SUITES = {
    "flattening": _suite_flattening,
    "chi2": _suite_chi2,
    "hmatrix": _suite_hmatrix,
    "subgaussian": _suite_subgaussian,
    "paninski-tv": _suite_paninski_tv,
    "levin-lemma": _suite_levin_lemma,
    "rho": _suite_rho,
}


def cmd_verify(args) -> int:
    rng = np.random.default_rng(trial_seed_seq(args.seed, 0, 0))
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    rows = []
    for name in suites:
        for row in _SUITES[name](rng):
            rows.append({"suite": name, **row})
    _emit(rows, args.out, args.format)
    failed = [r for r in rows if not r["ok"]]
    for r in failed:
        print(f"FAIL {r['suite']}: {r['check']} (residual {r['residual']})", file=sys.stderr)
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def cmd_calibrate(args) -> int:
    grid = json.loads(args.grid)
    if isinstance(grid, dict):
        grid = [grid]
    try:
        result = harness.calibrate(
            args.protocol, args.target_error, grid, args.budget, master_seed=args.seed
        )
    except harness.CalibrationFailure as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    _emit(result, args.out, "json")
    return EXIT_OK


def cmd_experiment(args) -> int:
    with open(args.config) as fh:
        cfg = harness.ExperimentConfig.from_json(fh.read())
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    result = harness.run_experiment(cfg, workers=args.workers)
    _write(result.to_csv() if args.format == "csv" else result.to_json() + "\n", args.out)
    return EXIT_OK


def cmd_scaling(args) -> int:
    with open(args.config) as fh:
        cfg = json.load(fh)
    harness.check_keys("scaling config", cfg, ("protocols", "k_grid", "eps", "ell", "trials", "master_seed", "constants"))
    report = harness.scaling_report(
        cfg["protocols"],
        cfg["k_grid"],
        cfg["eps"],
        cfg["ell"],
        trials=cfg.get("trials", 300),
        seed=args.seed if args.seed is not None else cfg.get("master_seed", 0),
        constants=cfg.get("constants"),
    )
    if args.format == "csv":
        _emit(report["table"], args.out, "csv")
        for proto, slope in report["slopes"].items():
            print(f"slope {proto}: {slope}", file=sys.stderr)
    else:
        _emit(report, args.out, "json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="smpinfer", description="Communication-constrained distributed inference simulator.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, n_flag=True):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("csv", "json"), default="json")
        sp.add_argument("--pmf", default=None, help="path to a pmf JSON file")
        sp.add_argument("--k", type=int, default=None, help="alphabet size (uniform pmf if no --pmf)")
        if n_flag:
            sp.add_argument("--n", type=int, default=None, help="number of players (protocol default if omitted)")

    sp = sub.add_parser("simulate", help="distributed simulation of i.i.d. samples")
    common(sp, n_flag=False)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--count", type=int, default=1)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("infer", help="simulate-and-infer pipelines")
    common(sp)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--task", choices=("uniformity", "learn"), default="uniformity")
    sp.set_defaults(func=cmd_infer)

    sp = sub.add_parser("test-uniformity", help="run a uniformity-testing protocol")
    common(sp)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--protocol", choices=("smooth", "levin", "warmup", "private-si", "flying-pony"), default="smooth")
    sp.set_defaults(func=cmd_test_uniformity)

    sp = sub.add_parser("test-identity", help="identity testing via the uniformity reduction")
    common(sp)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--reference", required=True, help="path to the reference pmf JSON")
    sp.add_argument("--protocol", choices=("smooth", "levin", "private-si"), default="smooth")
    sp.set_defaults(func=cmd_test_identity)

    sp = sub.add_parser("verify", help="run brute-force verification oracles")
    sp.add_argument("--suite", choices=tuple(_SUITES) + ("all",), default="all")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("csv", "json"), default="json")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("calibrate", help="search protocol constants against error targets")
    sp.add_argument("--protocol", required=True)
    sp.add_argument("--target-error", type=float, required=True)
    sp.add_argument("--grid", required=True, help='JSON list of cells, e.g. \'[{"k":16,"ell":2,"eps":0.3}]\'')
    sp.add_argument("--budget", type=int, default=100, help="trials per candidate per cell side")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("experiment", help="run a config-driven experiment sweep")
    sp.add_argument("--config", required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--workers", type=int, default=1)
    sp.set_defaults(func=cmd_experiment)

    sp = sub.add_parser("scaling", help="minimal-players scaling report over alphabet sizes")
    sp.add_argument("--config", required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("csv", "json"), default="json")
    sp.set_defaults(func=cmd_scaling)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:  # every subcommand takes --seed
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, inside the handler
        return code
    except BrokenPipeError:
        # The reader closed stdout (`smpinfer ... | head`).  Point stdout at
        # devnull so that the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (KeyError, FileNotFoundError, ValueError) as exc:  # ValueError covers json.JSONDecodeError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
