"""Acceptance gate: one test (and one pass/fail line) per criterion.

Each criterion is a single test function; `pytest -v` prints exactly one
PASSED/FAILED line per criterion.  Exact claims are checked by enumeration
oracles, statistical claims at the stated trial counts and tolerances, and
protocol sweeps run through the experiment harness (one ExperimentConfig per
sweep, no bespoke drivers).
"""

import math

import numpy as np
import pytest

from smpinfer.dist import (
    Partition,
    Pmf,
    paninski,
    PaninskiParam,
    split_duplicate,
    tv,
    uniform,
)
from smpinfer.harness import ExperimentConfig, run_experiment, scaling_report
from smpinfer.identity import build_map, map_pmf, map_samples
from smpinfer.infer import si_uniformity_players, si_uniformity_protocol
from smpinfer.public_uniformity import LevinSchedule
from smpinfer.simulate import contiguous_blocks, player_bound, rho, simulate_many
from smpinfer.verify import (
    Deviation,
    balanced_assignments,
    batch_law_enumeration,
    chi2_mixture_identity_check,
    flatten_Z,
    flattening_anticoncentration,
    frobenius_sq,
    h_matrix,
    levin_claim_enumeration,
    levin_threshold,
    paninski_message_tv_bound,
    rho_enumeration,
    subgaussian_claim_check,
)
from smpinfer.dist import Partition


def _report(num, msg):
    print(f"[CRITERION {num}] PASS: {msg}")


def _alt_theta(k):
    return np.resize([1, -1], k // 2)


def _sweep(protocol, grid, instance, trials, seed, constants=None):
    cfg = ExperimentConfig(
        protocol=protocol, instance=instance, grid=tuple(grid),
        trials=trials, master_seed=seed, constants=constants,
    )
    return run_experiment(cfg)


def test_criterion_01_simulation_exactness_exact():
    # Conditional per-batch output law equals p within 1e-12, k <= 4, ell = 1.
    worst = 0.0
    for probs in ([1.0], [0.5, 0.5], [0.8, 0.2], [0.5, 0.3, 0.2],
                  [0.25] * 4, [0.4, 0.3, 0.2, 0.1], [0.7, 0.1, 0.1, 0.1]):
        p = Pmf(k=len(probs), probs=np.array(probs))
        q = split_duplicate(p)
        blocks = contiguous_blocks(q.k, 1)  # ell = 1 -> singleton blocks
        success, law = batch_law_enumeration(q.probs, blocks, flip=True)
        merged = law[0::2] + law[1::2]
        worst = max(worst, float(np.max(np.abs(merged - p.probs))))
        assert success > 0
    assert worst <= 1e-12
    _report(1, f"batch output law equals p exactly (max residual {worst:.2e})")


def test_criterion_02_simulation_exactness_statistical():
    # TV(empirical of 1e5 simulated samples, p) <= 0.02 on uniform and the
    # paired-perturbation instance, (k, ell) in {4,16,64} x {1,2}.
    worst = 0.0
    for k in (4, 16, 64):
        for ell in (1, 2):
            for idx, (name, p) in enumerate((
                ("uniform", uniform(k)),
                ("far", paninski(PaninskiParam(k=k, eps=0.3, theta=_alt_theta(k)))),
            )):
                rng = np.random.default_rng([2, k, ell, idx])
                outs = simulate_many(p, ell, 100_000, rng)
                syms = np.array([o.symbol for o in outs])
                emp = np.bincount(syms, minlength=k) / syms.size
                d = 0.5 * float(np.abs(emp - p.probs).sum())
                worst = max(worst, d)
                assert d <= 0.02, f"k={k} ell={ell} {name}: TV {d}"
    _report(2, f"simulated-sample TV <= 0.02 on all 12 cells (worst {worst:.4f})")


def test_criterion_03_player_count_bound():
    # mean players + 3 SE <= 20 ceil(k/(2^ell - 1)) over 1e4 runs per cell.
    lines = []
    for k in (4, 16, 64):
        for ell in (1, 2):
            for p in (uniform(k), paninski(PaninskiParam(k=k, eps=0.3, theta=_alt_theta(k)))):
                rng = np.random.default_rng([3, k, ell, p.probs.size])
                outs = simulate_many(p, ell, 10_000, rng)
                players = np.array([o.players_used for o in outs], dtype=float)
                ub = players.mean() + 3 * players.std() / math.sqrt(players.size)
                bound = player_bound(k, ell)
                assert ub <= bound, f"k={k} ell={ell}: {ub} > {bound}"
                lines.append(f"k={k},ell={ell}: {ub:.1f}<={bound:.0f}")
    _report(3, "expected-player bound holds on all cells: " + "; ".join(lines[:3]) + " ...")


def test_criterion_04_rho_formula():
    # Product formula == enumeration exactly (k <= 4); lower bound on 1e3 pmfs.
    rng = np.random.default_rng(4)
    for k in (2, 3, 4):
        for s in (1, 2):
            probs = rng.dirichlet(np.ones(k))
            blocks = contiguous_blocks(k, s)
            masses = np.array([probs[b].sum() for b in blocks])
            masses /= max(1.0, masses.sum())
            assert rho(masses) == pytest.approx(rho_enumeration(probs, blocks), abs=1e-12)
    min_slack = np.inf
    for _ in range(1000):
        k = int(rng.integers(2, 33))
        b = rng.dirichlet(np.ones(k))
        norm = float(np.sqrt(np.sum(b**2)))
        slack = rho(b) - (1.0 - norm) * math.exp(norm - 1.0)
        min_slack = min(min_slack, slack)
        assert slack >= -1e-12
    _report(4, f"rho matches enumeration exactly; lower bound holds (min slack {min_slack:.2e})")


def test_criterion_05_flattening_moments():
    # Closed-form Var Z_r vs exhaustive enumeration (<= 1e-12, k <= 8);
    # E[Z_r] = 0 exactly; anticoncentration prob >= 0.05 on paired-perturbation
    # deviations, k in {16, 64}, L in {2, 4}, 1e4 partitions.
    rng = np.random.default_rng(5)
    for k, L in ((4, 2), (6, 2), (6, 3), (8, 2), (8, 4)):
        d = rng.normal(size=k)
        dev = Deviation(k=k, delta=d - d.mean())
        from smpinfer.verify import var_Zr_closed_form

        Zr = np.array([
            flatten_Z(dev, Partition(k=k, L=L, assign=a))[0]
            for a in balanced_assignments(k, L)
        ])
        assert abs(Zr.mean()) <= 1e-12
        assert Zr.var() == pytest.approx(var_Zr_closed_form(dev, L, k), abs=1e-12)
    probs = {}
    for k in (16, 64):
        p = paninski(PaninskiParam(k=k, eps=0.3, theta=_alt_theta(k)))
        dev = Deviation(k=k, delta=p.probs - uniform(k).probs)
        for L in (2, 4):
            out = flattening_anticoncentration(dev, L, 10_000, rng)
            probs[(k, L)] = out["prob"]
            assert out["prob"] >= 0.05, f"k={k} L={L}: {out['prob']}"
    _report(5, f"variance formula exact; anticoncentration probs {probs}")


GRID_67 = [{"k": k, "ell": ell, "eps": 0.3} for k in (16, 64) for ell in (1, 2)]


def test_criterion_06_smooth_protocol_end_to_end():
    rates = {}
    for instance, side in (({"name": "uniform"}, "null"),
                           ({"name": "paninski", "theta": "random"}, "far")):
        res = _sweep("smooth", GRID_67, instance, trials=300, seed=6)
        for s in res.summaries:
            rates[(side, s["k"], s["ell"])] = s["success_rate"]
            assert s["success_rate"] >= 2 / 3, f"{side} k={s['k']} ell={s['ell']}: {s['success_rate']}"
    _report(6, f"smooth protocol >= 2/3 on all cells (min {min(rates.values()):.3f})")


def test_criterion_07_levin_protocol_end_to_end():
    # Same grid/targets as the smooth criterion, plus two arithmetic checks:
    # the schedule's failure budget stays below 1/40, and the expected
    # below-uniform subset mass exceeds eps*s/k for far instances (k=8, s=3).
    for k in (8, 16, 64, 128, 256):
        for ell in (1, 2, 3):
            for eps in (0.1, 0.3, 0.5):
                assert LevinSchedule.from_params(k, ell, eps).delta_budget < 1 / 40
    rng = np.random.default_rng(7)
    far_found = 0
    while far_found < 20:
        p = Pmf(k=8, probs=rng.dirichlet(np.ones(8) * 0.5))
        dist = tv(p, uniform(8))
        if dist <= 0.3:
            continue
        far_found += 1
        expect, _ = levin_claim_enumeration(p, 3)
        assert expect > 0.3 * 3 / 8
    rates = {}
    for instance, side in (({"name": "uniform"}, "null"),
                           ({"name": "paninski", "theta": "random"}, "far")):
        res = _sweep("levin", GRID_67, instance, trials=300, seed=7)
        for s in res.summaries:
            rates[(side, s["k"], s["ell"])] = s["success_rate"]
            assert s["success_rate"] >= 2 / 3, f"{side} k={s['k']} ell={s['ell']}: {s['success_rate']}"
    _report(7, f"levin protocol >= 2/3 on all cells (min {min(rates.values()):.3f}); "
               "failure budget < 1/40; subset-mass claim holds on 20 far instances")


def test_criterion_08_levin_scale_exists():
    # A valid work-investment scale exists for 1e3 random profiles with mean > eps.
    rng = np.random.default_rng(8)
    eps = 0.25
    L = math.ceil(math.log2(2 / eps))
    checked = 0
    while checked < 1000:
        q = rng.random(64) ** rng.uniform(0.3, 3.0)
        if q.mean() <= eps:
            continue
        checked += 1
        j = levin_threshold(q, eps)
        assert j is not None and 1 <= j <= L
    _report(8, "a valid scale exists for 1000 random profiles with mean > eps")


def test_criterion_09_scaling_separation():
    rep = scaling_report(["levin", "private-si"], [32, 64, 128], 0.3, 2, trials=300, seed=9)
    s_levin = rep["slopes"]["levin"]
    s_si = rep["slopes"]["private-si"]
    assert s_levin is not None and 0.8 <= s_levin <= 1.3, f"levin slope {s_levin}"
    assert s_si is not None and 1.25 <= s_si <= 1.8, f"private-si slope {s_si}"
    _report(9, f"minimal-n slopes: levin {s_levin:.2f} in [0.8,1.3], "
               f"private simulate-and-infer {s_si:.2f} in [1.25,1.8]")


def test_criterion_10_flying_pony():
    k = 256
    cell = [{"k": k, "ell": 1, "eps": 0.5, "n": 40 * k}]
    res = _sweep("flying-pony", cell, {"name": "uniform"}, trials=300, seed=10)
    rates = {"uniform": res.summaries[0]["success_rate"]}
    assert rates["uniform"] >= 2 / 3
    for pattern in ("ones", "neg-ones", "alternating", "neg-alternating"):
        res = _sweep("flying-pony", cell, {"name": "flying_pony", "theta": pattern},
                     trials=300, seed=10)
        rates[pattern] = res.summaries[0]["success_rate"]
        assert rates[pattern] >= 2 / 3, f"{pattern}: {rates[pattern]}"
    _report(10, f"1-bit protocol >= 2/3 on all five instances: {rates}")


def test_criterion_11_lower_bound_oracles():
    rng = np.random.default_rng(11)
    # chi-square mixture identity, 200 enumerable instances.
    for _ in range(200):
        n, M, Z = 3, 2, 2
        P = [rng.dirichlet(np.ones(M) * 4) for _ in range(n)]
        Q = [[rng.dirichlet(np.ones(M) * 4) for _ in range(n)] for _ in range(Z)]
        w = rng.dirichlet(np.ones(Z))
        _, _, diff = chi2_mixture_identity_check(P, Q, w)
        assert diff <= 1e-9
    # sub-Gaussian claim by enumeration, half_k <= 6.
    for _ in range(20):
        W = Partition(12, 4, rng.integers(4, size=12))
        H = h_matrix(W)
        for lam in (0.1, 1.0, 3.0):
            log_mgf, bound = subgaussian_claim_check(H, lam)
            assert log_mgf <= bound + 1e-12
    # 1-bit paired-perturbation TV^2 bound by enumeration, n <= 12.
    for n in (4, 6):
        W_list = [Partition(8, 2, rng.integers(2, size=8)) for _ in range(n)]
        mean_tv_sq, bound = paninski_message_tv_bound(W_list, 0.25)
        assert mean_tv_sq <= bound + 1e-12
    print("[CRITERION 11] chi2 identity, sub-Gaussian, and TV^2 oracles all hold")
    # Frobenius bound ||H||_F^2 <= 2^ell on 100 random deterministic maps.
    # NOTE: this constant is refuted by the enumeration oracle itself — the map
    # splitting every pair identically across two messages reaches 2^(ell+1)
    # exactly (see tests/test_verify.py and the provable 2^(ell+1) bound there).
    # The assertion is kept at the contracted constant and is expected to fail.
    worst = 0.0
    for _ in range(50):
        for ell in (1, 2):
            W = Partition(16, 2**ell, rng.integers(2**ell, size=16))
            worst = max(worst, frobenius_sq(h_matrix(W)) / 2**ell)
            assert frobenius_sq(h_matrix(W)) <= 2**ell + 1e-12, (
                "claimed Frobenius constant 2^ell refuted by enumeration: "
                f"||H||_F^2 / 2^ell reached {worst:.3f}; the provable (tight) "
                "constant is 2^(ell+1)"
            )
    _report(11, "all lower-bound oracles hold")


def test_criterion_12_identity_reduction():
    rng = np.random.default_rng(12)
    k, m = 8, 40
    # (a) F_q(q) empirical TV to u_{5k} <= 0.02, 1e5 mapped samples, 10 granular q.
    worst = 0.0
    for _ in range(10):
        cuts = np.sort(rng.choice(np.arange(1, m), size=k - 1, replace=False))
        alloc = np.diff(np.concatenate([[0], cuts, [m]]))
        q = Pmf(k=k, probs=alloc / m)
        gmap = build_map(q)
        xs = rng.choice(k, size=100_000, p=q.probs)
        ys = map_samples(gmap, xs, rng)
        emp = np.bincount(ys, minlength=m) / ys.size
        d = 0.5 * float(np.abs(emp - 1.0 / m).sum())
        worst = max(worst, d)
        assert d <= 0.02
    # (b) 0.3-far p stays measurably far after mapping: TV >= 0.12.
    q = uniform(k)
    gmap = build_map(q)
    for _ in range(10):
        p = paninski(PaninskiParam(k=k, eps=0.3, theta=np.where(rng.random(4) < 0.5, 1, -1)))
        assert tv(map_pmf(gmap, p), uniform(m)) >= 0.12
    # (c) end-to-end identity test >= 2/3 on both sides.
    def protocol(mapped, ell, eps, rng):
        n = si_uniformity_players(mapped.k, ell, eps)
        return si_uniformity_protocol(mapped, ell, eps, n, rng)

    from smpinfer.identity import identity_test_via_uniformity

    far = paninski(PaninskiParam(k=k, eps=0.35, theta=_alt_theta(k)))
    ok_same = sum(
        identity_test_via_uniformity(q, q, 2, 0.3, protocol,
                                      {"rng": np.random.default_rng([12, 1, t])}).decision
        == "accept_uniform"
        for t in range(30)
    )
    ok_far = sum(
        identity_test_via_uniformity(far, q, 2, 0.3, protocol,
                                      {"rng": np.random.default_rng([12, 2, t])}).decision
        == "reject"
        for t in range(30)
    )
    assert ok_same >= 20 and ok_far >= 20
    _report(12, f"mapped-reference TV <= 0.02 (worst {worst:.4f}); far instances stay far; "
                f"end-to-end {ok_same}/30 and {ok_far}/30")


def test_criterion_13_determinism(control_protocols):
    # Same master seed -> byte-identical data outputs, including across workers.
    cfg = ExperimentConfig(
        protocol="levin", instance={"name": "paninski", "theta": "random"},
        grid=({"k": 16, "ell": 2, "eps": 0.3},), trials=8, master_seed=13,
    )
    a = run_experiment(cfg, workers=1)
    b = run_experiment(cfg, workers=2)
    assert a.to_csv() == b.to_csv() and a.to_json() == b.to_json()

    rep1 = scaling_report(["dummy-const"], [16, 32, 64], 0.3, 2, trials=50, seed=13)
    rep2 = scaling_report(["dummy-const"], [16, 32, 64], 0.3, 2, trials=50, seed=13)
    assert rep1 == rep2

    import smpinfer.cli as cli

    for argv in (
        ["verify", "--suite", "rho", "--seed", "13"],
        ["simulate", "--k", "6", "--ell", "2", "--count", "5", "--seed", "13", "--format", "csv"],
    ):
        import io
        from contextlib import redirect_stdout

        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                assert cli.main(argv) == 0
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]
    _report(13, "re-runs with the same master seed are byte-identical")
