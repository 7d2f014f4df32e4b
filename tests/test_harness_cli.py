"""Experiment harness and CLI front door."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import smpinfer
from smpinfer import harness
from smpinfer.cli import _SUITES, _emit, main
from smpinfer.dist import PaninskiParam, Pmf, flying_pony, paninski, tv, uniform
from smpinfer.harness import (
    PROTOCOLS,
    THETAS,
    CalibrationFailure,
    Cell,
    ExperimentConfig,
    TrialReport,
    calibrate,
    make_instance,
    minimal_n,
    run_experiment,
    run_trial,
    scaling_report,
    wilson_interval,
)
from smpinfer.identity import identity_test_via_uniformity
from smpinfer.infer import si_learning_players
from smpinfer.public_uniformity import warmup_players
from smpinfer.simulate import simulate_many
from smpinfer.smp import TrialStreams, trial_seed_seq

TESTERS = ("smooth", "levin", "warmup", "private-si", "flying-pony")
CELL_8 = {"k": 8, "ell": 2, "eps": 0.4}


def small_config(**overrides):
    base = dict(
        protocol="smooth",
        instance={"name": "uniform"},
        grid=({"k": 8, "ell": 2, "eps": 0.4},),
        trials=3,
        master_seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestWilson:
    def test_degenerate(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(40, 60)
        assert lo < 40 / 60 < hi
        assert 0.0 <= lo < hi <= 1.0

    def test_extremes_stay_in_unit(self):
        lo, hi = wilson_interval(60, 60)
        assert hi >= 1.0 - 1e-9 and lo > 0.8


class TestCell:
    def test_bounds(self):
        with pytest.raises(ValueError):
            Cell(k=4, ell=0, eps=0.3, n=10)
        with pytest.raises(ValueError):
            Cell(k=4, ell=1, eps=0.3, n=0)
        with pytest.raises(ValueError):
            Cell.from_dict({"k": 4, "ell": 1, "eps": 0.3, "players": 10})
        with pytest.raises(ValueError, match="k must be an integer"):
            Cell(k=16.0, ell=2, eps=0.3)
        with pytest.raises(ValueError, match="n must be an integer"):
            Cell(k=16, ell=2, eps=0.3, n=1000.5)
        with pytest.raises(ValueError, match="ell must be an integer"):
            Cell(k=16, ell=True, eps=0.3)
        with pytest.raises(ValueError, match="eps must be a real number"):
            Cell(k=16, ell=2, eps="0.3")

    # Non-integers (integral floats such as 16.0 included) and bools are
    # rejected like out-of-range values.
    NOT_INTEGER = st.floats() | st.booleans()
    OUT_OF_RANGE = {
        "k": st.integers(max_value=0) | NOT_INTEGER,
        "ell": st.integers(max_value=0) | NOT_INTEGER,
        "eps": st.floats(max_value=0.0) | st.floats(min_value=1.0) | st.booleans() | st.just("0.3"),
        "n": st.integers(max_value=0) | NOT_INTEGER,
    }

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 10**6),
        ell=st.integers(1, 30),
        eps=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        n=st.none() | st.integers(1, 10**9),
        data=st.data(),
    )
    def test_roundtrip_and_out_of_range(self, k, ell, eps, n, data):
        cell = Cell(k, ell, eps, n)
        given = {"k": k, "ell": ell, "eps": eps, "n": n}
        assert cell.to_dict() == {key: value for key, value in given.items() if value is not None}
        assert Cell.from_dict(cell.to_dict()) == cell
        field = data.draw(st.sampled_from(sorted(self.OUT_OF_RANGE)))
        with pytest.raises(ValueError):
            Cell.from_dict({**cell.to_dict(), field: data.draw(self.OUT_OF_RANGE[field])})


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(grid=())
        with pytest.raises(ValueError):
            small_config(trials=0)
        with pytest.raises(ValueError):
            small_config(protocol="astrology")

    def test_from_json_schema_check(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(json.dumps({"schema_version": 99, "protocol": "smooth",
                                                   "grid": [{"k": 8}], "trials": 1}))

    def test_from_json_roundtrip(self):
        cfg = ExperimentConfig.from_json(json.dumps({
            "protocol": "levin", "instance": {"name": "paninski"},
            "grid": [{"k": 16, "ell": 2, "eps": 0.3}], "trials": 2, "master_seed": 9,
        }))
        assert cfg.protocol == "levin" and cfg.trials == 2 and cfg.master_seed == 9

    @pytest.mark.parametrize(
        "constants",
        [{"c_l_2": 1.0}, {"levin": {"c1": 0.05}}, {"c_l2": "6"}, {"c_l2": False}, {"c_l2": 0},
         {"warmup_c": -2.0}, {"levin_scale": float("nan")}, {"levin_scale": float("inf")}, [("c_l2", 6.0)]],
        ids=["unknown-key", "nested-levin-block", "string", "bool", "zero", "negative", "nan", "inf", "not-a-map"],
    )
    def test_bad_constants(self, constants, control_protocols):
        # Rejected where the block enters, before a trial or a default n is computed.
        with pytest.raises(ValueError):
            small_config(constants=constants)
        with pytest.raises(ValueError):
            minimal_n("dummy-const", 16, 2, 0.3, trials=50, constants=constants)

    def test_constants_of_other_protocols_are_allowed(self):
        # One block can serve every protocol of a scaling config.
        shared = {"c_l2": 6, "levin_scale": 0.5, "warmup_c": 13.0, "c_uniformity": 3.0}
        assert run_trial(small_config(constants=shared), 0, 0) == run_trial(
            small_config(constants={"c_l2": 6.0}), 0, 0
        ) == run_trial(small_config(), 0, 0)

    @pytest.mark.parametrize("field", ["trials", "master_seed"])
    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_integer_fields(self, field, value):
        with pytest.raises(ValueError):
            small_config(**{field: value})


class TestInstances:
    def test_uniform(self):
        streams = TrialStreams(0, 0, 0)
        p, expected = make_instance({"name": "uniform"}, 8, 0.3, streams)
        assert expected == "accept_uniform" and np.allclose(p.probs, 1 / 8)
        assert "instance" not in vars(streams)  # a uniform instance never builds its stream

    def test_paninski_patterns(self):
        for kind in ("alternating", "neg-alternating", "ones", "neg-ones", "random"):
            p, expected = make_instance(
                {"name": "paninski", "theta": kind}, 8, 0.3, TrialStreams(1, 0, 0)
            )
            assert expected == "reject"
            assert tv(p, uniform(8)) == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("kind", list(THETAS))
    def test_trusted_instances_are_the_dist_instances(self, kind):
        # make_instance skips validation; its probs must be the validated
        # generators' bit for bit, and read-only.
        for k, eps, seed in ((2, 0.5, 0), (8, 0.3, 1), (64, 0.3, 2), (200, 0.45, 3)):
            if kind == "random":
                theta = np.where(TrialStreams(seed, 0, 0).instance.random(k // 2) < 0.5, 1, -1)
            else:
                theta = np.resize(THETAS[kind], k // 2)
            expected = {
                "paninski": paninski(PaninskiParam(k=k, eps=eps, theta=theta)),
                "flying_pony": flying_pony(k, theta),
            }
            for name, want in expected.items():
                p, verdict = make_instance({"name": name, "theta": kind}, k, eps, TrialStreams(seed, 0, 0))
                assert (p.k, verdict) == (k, "reject")
                assert p.probs.dtype == want.probs.dtype and p.probs.tobytes() == want.probs.tobytes()
                assert not p.probs.flags.writeable

    def test_unknown_keys(self):
        with pytest.raises(KeyError):
            make_instance({"name": "nope"}, 8, 0.3, TrialStreams(0, 0, 0))
        with pytest.raises(KeyError):
            make_instance({"name": "paninski", "theta": "spiral"}, 8, 0.3, TrialStreams(0, 0, 0))


class TestRunExperiment:
    def test_counts(self):
        cfg = small_config(grid=({"k": 8, "ell": 2, "eps": 0.4}, {"k": 16, "ell": 2, "eps": 0.4}),
                           trials=5)
        res = run_experiment(cfg)
        assert len(res.reports) == 10 and len(res.summaries) == 2
        assert all(0.0 <= s["success_rate"] <= 1.0 for s in res.summaries)

    def test_single_trial(self):
        res = run_experiment(small_config(trials=1))
        assert len(res.reports) == 1

    def test_determinism_across_workers(self):
        cfg = small_config(trials=4, grid=(CELL_8, {"k": 16, "ell": 2, "eps": 0.4}))
        a = run_experiment(cfg, workers=1).to_csv()
        b = run_experiment(cfg, workers=2).to_csv()
        assert a == b

    def test_csv_roundtrip(self):
        for protocol in TESTERS:
            res = run_experiment(small_config(protocol=protocol))
            rows = list(csv.DictReader(io.StringIO(res.to_csv())))
            assert len(rows) == 3
            assert all(r["decision"] in ("accept_uniform", "reject") for r in rows), protocol
            assert all(int(r["players_used"]) > 0 for r in rows), protocol

    def test_trial_isolation(self):
        # Re-running one trial in isolation, which computes its own seed words,
        # reproduces its report from the experiment's batch of words.
        cfg = small_config(protocol="levin", instance={"name": "paninski"},
                           grid=(CELL_8, {"k": 16, "ell": 2, "eps": 0.4}), trials=3)
        res = run_experiment(cfg)
        for ci, ti in ((0, 2), (1, 0), (1, 2)):
            # equal on every persisted field (wall time is a diagnostic, not data)
            assert run_trial(cfg, ci, ti).csv_row() == res.reports[3 * ci + ti].csv_row()

    def test_pmf_file_is_read_once(self, tmp_path):
        # ExperimentConfig reads the file; a file overwritten after the config
        # is built changes no trial.
        def config(path):
            return small_config(protocol="warmup", instance={"name": "pmf_file", "path": str(path)}, trials=6)

        point = Pmf(8, np.eye(8)[0]).to_json()
        path, untouched = tmp_path / "p.json", tmp_path / "q.json"
        path.write_text(point)
        untouched.write_text(point)
        cfg = config(path)
        path.write_text(uniform(8).to_json())
        want = run_experiment(config(untouched)).to_csv()
        assert run_experiment(cfg).to_csv() == want
        assert run_experiment(config(path)).to_csv() != want  # a config built now reads the new file

    def test_players_within_budget(self):
        cfg = small_config(protocol="private-si",
                           grid=({"k": 8, "ell": 2, "eps": 0.4, "n": 50_000},))
        for r in run_experiment(cfg).reports:
            assert r.players_used <= 50_000


# sha256 of run_experiment(cfg).to_csv() and .to_json() for GOLDEN_GRID, trials 4,
# master seed 12.  Any change to a random stream changes them: a change that
# means to alter the streams updates these hashes and says why.
GOLDEN_GRID = ({"k": 16, "ell": 2, "eps": 0.4}, {"k": 32, "ell": 3, "eps": 0.3})
GOLDEN = {
    ("smooth", "uniform"): ("cc3dc85b12dd96eb3a36f709029ea669be4c69554dc047f75fede0f86d13db71", "bad0f19bb41125e7c4f08270ef5af0f1fd568a4fd3ebe692f95af59513e1e836"),
    ("smooth", "paninski"): ("a35d499e4996cb7c38160b8a4a068536ce064d65d945f48bc690c1750f500e3f", "bad0f19bb41125e7c4f08270ef5af0f1fd568a4fd3ebe692f95af59513e1e836"),
    ("levin", "uniform"): ("ccf1ee6b1148fd73f2c129e571dd76b944f18f5af02bab22ac84ca272c9749ca", "07715ae8f93da527e34fb9ab4508c02b90da005edcb4aec1cad85c22c3a7112b"),
    ("levin", "paninski"): ("81ef03dd118e0fc56e96513efd97c2530270a0f505b8b92c03a5b8c987da038d", "07715ae8f93da527e34fb9ab4508c02b90da005edcb4aec1cad85c22c3a7112b"),
    ("warmup", "uniform"): ("cebedef7b58d0275bbc0c1573ba08a92782cd852e10a8bc0cb029794f8fae28e", "043a9f4aec1ea2515fae6fec9c3801659b6aa04f7950f5bbc4ebd5b8b7c142ef"),
    ("warmup", "paninski"): ("1ac8707ee43e24e207eb6173fc9783ab5e2ad80b7038d6fd8f6dc6d9b02f2d96", "043a9f4aec1ea2515fae6fec9c3801659b6aa04f7950f5bbc4ebd5b8b7c142ef"),
    ("private-si", "uniform"): ("97670e50ecf2834429c3ab0358bda20d61874d575c73417982a65701ba12e630", "f9211a66a4a4a09d485b75d4beda2cdb5b61132e76e76f687c4e71aa8984d0d8"),
    ("private-si", "paninski"): ("364b66cb90b170e9d98a809c199a415e20766090b5a3efcc04520d47d20cc763", "5cdf6f055c8f5d380e3ac270b57d4ff25811855df08bc43a79d7b5e33b7ecf9f"),
    ("flying-pony", "uniform"): ("ee228ec890909eb63e7be5cd896937a7cb8475106e1c38b252b2b30a462be403", "7ed46f724519b0cde2bcabe7384805a0c4eb77e3e62bd9c7051f96d7772f59a1"),
    ("flying-pony", "paninski"): ("2e47740f83747f7f973881b8ef62ce369fac29e69ee9eb384f8e085e7192e583", "3bc0717e83ac609f75fe1cd5f29c6c9425c0111e04a63cf4f5ecbb1443b070b2"),
}


@pytest.mark.parametrize("protocol, instance", list(GOLDEN))
def test_golden_experiment_output(protocol, instance):
    spec = {"name": "uniform"} if instance == "uniform" else {"name": instance, "theta": "random"}
    res = run_experiment(ExperimentConfig(protocol=protocol, instance=spec, grid=GOLDEN_GRID, trials=4, master_seed=12))
    hashes = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (res.to_csv(), res.to_json()))
    assert hashes == GOLDEN[protocol, instance]


# sha256 of `smpinfer simulate --k 16 --ell 2 --count 1000 --seed 1 --format csv`:
# simulate's draws, chunking and rendering.  Like GOLDEN, a change that means to
# alter its stream updates this hash and says why.
GOLDEN_SIMULATE = "c83c846b6e4bea0a9348d22864270ab853e26ca771677180ca04550d0bf0e713"


def test_golden_simulate_output(capsys):
    assert main(["simulate", "--k", "16", "--ell", "2", "--count", "1000", "--seed", "1", "--format", "csv"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN_SIMULATE


class TestCalibrate:
    def test_impossible_target(self):
        # A zero target is a config error, raised before any trial.
        with pytest.raises(ValueError):
            calibrate("smooth", 0.0, [{"k": 8, "ell": 2, "eps": 0.4}], 100)

    def test_no_ladder_value_meets_target(self):
        # At a fixed n of 20 players no constant brings Levin's error near 0.1.
        with pytest.raises(CalibrationFailure, match="no ladder value met target 0.1"):
            calibrate("levin", 0.1, [{"k": 8, "ell": 2, "eps": 0.4, "n": 20}], 100)

    def test_budget_floor(self):
        with pytest.raises(ValueError):
            calibrate("smooth", 0.3, [{"k": 8, "ell": 2, "eps": 0.4}], 10)

    def test_smooth_ladder(self):
        out = calibrate("smooth", 1 / 3, [{"k": 8, "ell": 2, "eps": 0.4}], 100, master_seed=1)
        assert out["constant_key"] == "c_l2" and out["measured_error"] <= 1 / 3
        assert out["grid"] == [{"k": 8, "ell": 2, "eps": 0.4}]
        # Idempotence: re-checking the found constant still meets the target.
        again = calibrate("smooth", 1 / 3, [{"k": 8, "ell": 2, "eps": 0.4}], 100, master_seed=1)
        assert again == out  # the payload holds no wall-clock field

    def test_levin_ladder_feeds_experiment(self):
        cell = {"k": 16, "ell": 2, "eps": 0.3}
        out = calibrate("levin", 1 / 3, [cell], 100, master_seed=0)
        assert out["constant_key"] == "levin_scale"
        assert out["constants"] == {"levin_scale": out["constant"]}
        # The payload's block, read back by an experiment config on calibrate's
        # seeds (seed * 2 + side), reproduces the measured error.
        errors = []
        for side, instance in enumerate(({"name": "uniform"}, {"name": "paninski", "theta": "random"})):
            cfg = ExperimentConfig.from_json(json.dumps({
                "protocol": "levin", "instance": instance, "grid": [cell], "trials": 100,
                "master_seed": 0 * 2 + side, "constants": out["constants"],
            }))
            errors.append(sum(not r.correct for r in run_experiment(cfg).reports) / 100)
        assert max(errors) == out["measured_error"]


@pytest.mark.usefixtures("control_protocols")
class TestScaling:
    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            scaling_report(["dummy-const"], [8, 16], 0.3, 2)

    def test_dummy_control_slope_zero(self):
        rep = scaling_report(["dummy-const"], [16, 32, 64], 0.3, 2, trials=50)
        assert abs(rep["slopes"]["dummy-const"]) < 0.05
        assert all(r["n_min"] == 500 for r in rep["table"])

    def test_censoring(self):
        out = minimal_n("dummy-const", 16, 2, 0.3, trials=50, n_cap=100)
        assert out["censored"] and out["n_min"] is None
        assert (out["ell"], out["eps"]) == (2, 0.3)

    def test_each_side_must_pass(self):
        # half-uniform's far side is always right and its uniform side is right
        # iff n >= 1000, else by a fair coin: pooled over both sides it succeeds
        # about 3/4 of the time at any n, so only a per-side rule finds 1000.
        assert minimal_n("half-uniform", 16, 2, 0.3, trials=300, seed=0)["n_min"] == 1000


class TestCli:
    @pytest.mark.parametrize("suite", [*_SUITES, "all"])
    def test_verify_ok(self, suite, capsys):
        assert main(["verify", "--suite", suite, "--seed", "1"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["suite"] for r in rows} == (set(_SUITES) if suite == "all" else {suite})
        assert all(r["ok"] for r in rows)

    def test_simulate_json(self, capsys):
        assert main(["simulate", "--k", "5", "--ell", "2", "--count", "2", "--seed", "3"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2 and all(0 <= r["symbol"] < 5 for r in rows)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("k, ell, count", [(5, 2, 1), (64, 1, 2), (1024, 2, 37)])
    def test_simulate_bytes_are_the_dict_rendering(self, fmt, k, ell, count, tmp_path, capsys):
        # simulate writes sample by sample; its bytes are those of _emit over one
        # dict per sample, the rendering every other command uses.
        outs = simulate_many(uniform(k), ell, count, np.random.default_rng(trial_seed_seq(4, 0, 0)))
        rows = [
            {"index": i, "symbol": o.symbol, "players_used": o.players_used, "batches_used": o.batches_used}
            for i, o in enumerate(outs)
        ]
        _emit(rows, str(tmp_path / "dicts"), fmt)
        argv = ["simulate", "--k", str(k), "--ell", str(ell), "--count", str(count), "--seed", "4", "--format", fmt]
        assert main([*argv, "--out", str(tmp_path / "lines")]) == 0
        assert (tmp_path / "lines").read_bytes() == (tmp_path / "dicts").read_bytes()
        assert main(argv) == 0
        assert capsys.readouterr().out == (tmp_path / "dicts").read_text()

    def test_closed_stdout_exits_1_without_traceback(self):
        # A reader that stops early (`| head -2`) closes the pipe while simulate
        # still has far more than a pipe buffer to write.
        src = os.path.dirname(os.path.dirname(smpinfer.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = ["simulate", "--k", "16", "--ell", "2", "--count", "100000", "--seed", "1", "--format", "csv"]
        proc = subprocess.Popen([sys.executable, "-m", "smpinfer.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"index,symbol,players_used,batches_used\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert stderr == b""

    def test_test_uniformity_csv(self, capsys):
        rc = main(["test-uniformity", "--k", "8", "--ell", "2", "--eps", "0.4",
                   "--protocol", "smooth", "--format", "csv", "--seed", "2"])
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows[0]["decision"] in ("accept_uniform", "reject")

    def test_missing_config_is_exit_3(self, capsys):
        assert main(["experiment", "--config", "/nonexistent.json"]) == 3

    @pytest.mark.parametrize(
        "case",
        [
            ["--n", "3"],  # below the smooth schedule
            ["--ell", "0"],
            ["--eps", "1.5"],
            ["--eps", "0"],
            ["--n", "0"],
            ("smooth", {"k": 8, "ell": 2, "eps": 0.4, "n": 0}),  # experiment grid cells
            ("smooth", {"k": 8, "ell": 2, "eps": 0.4, "players": 10}),
            ("flying-pony", {"k": 16.0, "ell": 2, "eps": 0.3}),
            ("flying-pony", {"k": 16, "ell": 2, "eps": 0.3, "n": 1000.5}),
            # (protocol, cell, extra config keys)
            ("smooth", CELL_8, {"constants": {"c_l_2": 0.01}}),
            ("smooth", CELL_8, {"constants": {"c_l2": "abc"}}),
            ("smooth", CELL_8, {"constants": {"c_l2": True}}),
            ("smooth", CELL_8, {"constants": {"c_l2": 0}}),
            ("levin", CELL_8, {"constants": {"levin_scale": -1.0}}),
            ("levin", CELL_8, {"constants": {"levin": {"c_m": 0.1, "c1": 0.05, "c2": 0.35, "c3": 0.015, "z": 6.0}}}),
            ("smooth", CELL_8, {"trials": 2.5}),
            ("smooth", CELL_8, {"master_seed": 1.5}),
            ("smooth", CELL_8, {"master_seed": None}),  # SeedSequence(None) would draw fresh entropy
            ("smooth", {"k": None, "ell": 2, "eps": 0.4}),
            ("smooth", {"k": 64, "ell": 2, "eps": 0.3}, {"instance": {"name": "pmf_file", "path": "k8.json"}}),
            ("smooth", CELL_8, {"constant": {"c_l2": 6.0}}),  # typo of "constants"
            ("smooth", CELL_8, {"seed": 7}),  # in place of "master_seed"
            ("smooth", CELL_8, {"instance": {"name": "paninski", "thetas": "ones"}}),
            ("smooth", CELL_8, {"instance": "uniform"}),
            ("simulate", CELL_8),  # simulate is a command, not a registered tester
            ["simulate", "--k", "8", "--ell", "2", "--count", "-1"],  # a full command line
            ["simulate", "--k", "8", "--ell", "2", "--count", "0"],
        ],
        ids=["undersized-n", "ell-0", "eps-1.5", "eps-0", "n-0", "experiment-n-0", "experiment-unknown-key",
             "experiment-float-k", "experiment-fractional-n", "constant-unknown-key", "constant-string",
             "constant-bool", "constant-zero", "constant-negative", "constant-nested-levin-block",
             "fractional-trials", "fractional-master-seed", "null-master-seed", "experiment-null-k",
             "pmf-file-wrong-k", "config-unknown-key", "config-seed-key", "instance-unknown-key",
             "instance-not-an-object", "simulate-protocol", "simulate-count-negative", "simulate-count-zero"],
    )
    def test_bad_value_is_exit_3(self, case, tmp_path, capsys, monkeypatch):
        if isinstance(case, tuple):
            protocol, cell, *extra = case
            monkeypatch.chdir(tmp_path)
            (tmp_path / "k8.json").write_text(uniform(8).to_json())
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"protocol": protocol, "grid": [cell], "trials": 1, **(extra[0] if extra else {})}))
            argv = ["experiment", "--config", str(path)]
        elif case[0] == "simulate":
            argv = case
        else:
            argv = ["test-uniformity", "--k", "64", "--ell", "2", "--eps", "0.4", "--protocol", "smooth", *case]
        assert main(argv) == 3
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra", [{"constants": {"levin_scale": "1.0"}}, {"seed": 3}], ids=["constant-string", "unknown-key"]
    )
    def test_scaling_bad_constant_is_exit_3(self, extra, tmp_path, capsys, control_protocols):
        cfg = {"protocols": ["levin", "dummy-const"], "k_grid": [16, 32, 64], "eps": 0.3,
               "ell": 2, "trials": 50, **extra}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(cfg))
        assert main(["scaling", "--config", str(path)]) == 3
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "target, grid",
        [
            ("nan", [CELL_8]),
            ("1.5", [CELL_8]),
            ("-1", [CELL_8]),
            ("0", [CELL_8]),
            ("0.3", []),
            ("0.3", [{"k": 8, "ell": 2}]),
            ("0.3", [CELL_8, {**CELL_8, "players": 10}]),
            ("0.3", 5),
        ],
        ids=["target-nan", "target-1.5", "target-negative", "target-zero", "empty-grid", "cell-without-eps",
             "second-cell-unknown-key", "grid-not-a-list"],
    )
    def test_calibrate_bad_value_is_exit_3(self, target, grid, capsys, monkeypatch):
        # Rejected before any trial runs.
        monkeypatch.setattr("smpinfer.harness.run_experiment", None)
        argv = ["calibrate", "--protocol", "smooth", "--budget", "100", "--target-error", target, "--grid", json.dumps(grid)]
        assert main(argv) == 3
        assert "config error" in capsys.readouterr().err

    def test_warmup_runs_at_default_n(self, capsys):
        assert main(["test-uniformity", "--k", "8", "--ell", "2", "--eps", "0.4", "--protocol", "warmup"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["n"] == row["players_used"] == warmup_players(8, 0.4)

    def test_levin_one_symbol_needs_no_players(self, capsys):
        # k = 1: s = k skips stage 1 and s = 1 skips stage 2, so the schedule is empty.
        assert main(["test-uniformity", "--k", "1", "--ell", "1", "--eps", "0.3", "--protocol", "levin"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["n"] == row["players_used"] == 0 and row["decision"] == "accept_uniform"

    @pytest.mark.parametrize("protocol", TESTERS)
    def test_cli_default_n_matches_harness(self, protocol, capsys):
        cell = {"k": 8, "ell": 2, "eps": 0.4}
        assert main(["test-uniformity", "--k", "8", "--ell", "2", "--eps", "0.4", "--protocol", protocol]) == 0
        n_cli = json.loads(capsys.readouterr().out)["n"]
        default = run_trial(small_config(protocol=protocol, grid=(cell,)), 0, 0)
        explicit = run_trial(small_config(protocol=protocol, grid=({**cell, "n": n_cli},)), 0, 0)
        # A cell without n runs exactly as one that gives the CLI's n, and records that n.
        assert default == explicit

    def test_experiment_outputs_deterministic(self, tmp_path, capsys):
        cfg = {"protocol": "smooth", "instance": {"name": "uniform"},
               "grid": [{"k": 8, "ell": 2, "eps": 0.4}], "trials": 3, "master_seed": 4}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["experiment", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["experiment", "--config", str(path), "--out", str(out2), "--workers", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_infer_learn(self, capsys):
        assert main(["infer", "--k", "4", "--ell", "2", "--eps", "0.3",
                     "--task", "learn", "--seed", "6"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["decision"] == "estimate" and len(row["estimate"]) == 4
        assert row["n"] == si_learning_players(4, 2, 0.3)

    @pytest.mark.parametrize("protocol", ["smooth", "levin", "private-si"])
    def test_test_identity(self, protocol, tmp_path, capsys):
        q = Pmf(k=8, probs=np.array([0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05]))
        ref, pmf = tmp_path / "q.json", tmp_path / "p.json"
        ref.write_text(q.to_json())
        pmf.write_text(uniform(8).to_json())
        rc = main(["test-identity", "--pmf", str(pmf), "--reference", str(ref),
                   "--ell", "3", "--eps", "0.4", "--protocol", protocol, "--seed", "1"])
        assert rc == 0
        row = json.loads(capsys.readouterr().out)
        assert row["mapped_domain"] == 40
        # The command is the reduction run on trial (0, 0)'s streams at master seed 1.
        proto = PROTOCOLS[protocol]
        verdict = identity_test_via_uniformity(
            uniform(8), q, 3, 0.4,
            lambda mapped, ell, eps, streams: proto.trial(mapped, Cell(mapped.k, ell, eps), streams)[1],
            {"streams": TrialStreams(1, 0, 0)},
        )
        decision = {"accept_uniform": "accept_identity", "reject": "reject"}[verdict.decision]
        assert (row["decision"], row["players_used"], row.get("public_bits")) == (
            decision, verdict.diagnostics["players_used"], verdict.diagnostics.get("public_bits"))

    def test_scaling_cli(self, tmp_path, capsys, control_protocols):
        cfg = {"protocols": ["dummy-const"], "k_grid": [16, 32, 64], "eps": 0.3,
               "ell": 2, "trials": 50}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(cfg))
        assert main(["scaling", "--config", str(path), "--seed", "0"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert abs(rep["slopes"]["dummy-const"]) < 0.05


# A spec every entry point accepts, and bad specs as overrides of it, each with
# the entry points it reaches: calibrate and the minimal-n searches fix their
# instance (uniform, then random paninski), and only an experiment config or a
# search reads a trials count.
GOOD_SPEC = {"protocols": ["levin"], "instance": {"name": "paninski", "theta": "random"}, "k": 16, "eps": 0.3,
             "trials": 4, "seed": 0}
CONFIGS = ("ExperimentConfig", "experiment-cli")
SEARCHES = ("minimal_n", "scaling_report", "scaling-cli")
ENTRY_POINTS = (*CONFIGS, "calibrate", *SEARCHES)
BAD_SPECS = {
    "unknown-protocol": ({"protocols": ["dummy"]}, ENTRY_POINTS),
    "unknown-second-protocol": ({"protocols": ["levin", "dummy"]}, ("scaling_report", "scaling-cli")),
    "unknown-instance": ({"instance": {"name": "gaussian"}}, CONFIGS),
    "unknown-theta": ({"instance": {"name": "paninski", "theta": "spiral"}}, CONFIGS),
    "theta-not-a-string": ({"instance": {"name": "paninski", "theta": [1, -1]}}, CONFIGS),
    "paninski-odd-k": ({"k": 15}, ENTRY_POINTS),
    "flying-pony-odd-k": ({"k": 15, "instance": {"name": "flying_pony"}}, CONFIGS),
    "paninski-eps-0.6": ({"eps": 0.6}, ENTRY_POINTS),
    "pmf-file-wrong-k": ({"instance": {"name": "pmf_file", "path": "k8.json"}}, CONFIGS),
    "expected-accept": ({"instance": {"name": "pmf_file", "path": "k16.json", "expected": "accept"}}, CONFIGS),
    "trials-string": ({"trials": "300"}, CONFIGS + SEARCHES),
    "trials-1": ({"trials": 1}, SEARCHES),
    "negative-seed": ({"seed": -1}, ENTRY_POINTS),
}


class _Reached(Exception):
    """Raised by the counting run_trial: the spec got as far as a trial."""


class TestSpecCheckedBeforeFirstTrial:
    """Every entry point refuses a bad spec with ValueError (exit 3 through the
    CLI) before any trial runs."""

    @pytest.fixture
    def runner(self, tmp_path, monkeypatch):
        """(enter, calls): enter(entry, spec) runs one entry point on spec in tmp_path,
        and calls records every run_trial call, each of which raises _Reached."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "k8.json").write_text(uniform(8).to_json())
        (tmp_path / "k16.json").write_text(uniform(16).to_json())
        calls = []

        def counting_run_trial(*args):
            calls.append(args)
            raise _Reached

        monkeypatch.setattr(harness, "run_trial", counting_run_trial)

        def enter(entry, spec):
            protocol, k, eps, trials, seed = spec["protocols"][0], spec["k"], spec["eps"], spec["trials"], spec["seed"]
            cell = {"k": k, "ell": 2, "eps": eps}
            if entry == "ExperimentConfig":
                run_experiment(ExperimentConfig(protocol, spec["instance"], (cell,), trials, seed))
            elif entry == "calibrate":
                calibrate(protocol, 1 / 3, [cell], 100, master_seed=seed)
            elif entry == "minimal_n":
                minimal_n(protocol, k, 2, eps, trials=trials, seed=seed)
            elif entry == "scaling_report":
                scaling_report(spec["protocols"], [k, 2 * k, 4 * k], eps, 2, trials=trials, seed=seed)
            else:
                if entry == "experiment-cli":
                    cfg = {"protocol": protocol, "instance": spec["instance"], "grid": [cell], "trials": trials,
                           "master_seed": seed}
                else:
                    cfg = {"protocols": spec["protocols"], "k_grid": [k, 2 * k, 4 * k], "eps": eps, "ell": 2,
                           "trials": trials, "master_seed": seed}
                (tmp_path / "cfg.json").write_text(json.dumps(cfg))
                return main([entry.removesuffix("-cli"), "--config", "cfg.json"])

        return enter, calls

    @pytest.mark.parametrize(
        "case, entry", [(case, entry) for case, (_, entries) in BAD_SPECS.items() for entry in entries]
    )
    def test_bad_spec_is_refused(self, case, entry, runner, capsys):
        enter, calls = runner
        spec = {**GOOD_SPEC, **BAD_SPECS[case][0]}
        if entry.endswith("-cli"):
            assert enter(entry, spec) == 3
            err = capsys.readouterr().err
            # A bad value is a ValueError, so its message is not printed as a quoted KeyError.
            assert err.startswith("config error: ") and not err.startswith(("config error: '", 'config error: "'))
        else:
            with pytest.raises(ValueError):
                enter(entry, spec)
        assert len(calls) == 0

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_good_spec_reaches_a_trial(self, entry, runner):
        enter, calls = runner
        with pytest.raises(_Reached):
            enter(entry, GOOD_SPEC)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--k", "8", "--ell", "2"],
            ["infer", "--k", "8", "--ell", "2", "--eps", "0.4"],
            ["test-uniformity", "--k", "8", "--ell", "2", "--eps", "0.4"],
            ["test-identity", "--k", "8", "--ell", "2", "--eps", "0.4", "--reference", "k8.json"],
            ["verify"],
            ["calibrate", "--protocol", "smooth", "--target-error", "0.3", "--grid", '[{"k": 8, "ell": 2, "eps": 0.4}]'],
            ["experiment", "--config", "cfg.json"],
            ["scaling", "--config", "cfg.json"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_cli_seed_is_refused(self, argv, runner, tmp_path, capsys):
        # The seed is refused before any config is read.
        (tmp_path / "cfg.json").write_text(json.dumps({"protocol": "smooth", "grid": [CELL_8], "trials": 1}))
        assert main([*argv, "--seed", "-1"]) == 3
        assert capsys.readouterr().err == "config error: --seed must be >= 0, got -1\n"
        assert len(runner[1]) == 0


class TestOneTrial:
    """A one-shot command at --seed s is trial (0, 0) of the matching one-cell
    experiment at master seed s: same n, verdict, players and public bits."""

    SEED = ["--seed", "4"]

    @pytest.mark.parametrize("instance", ["uniform", "pmf_file"])
    @pytest.mark.parametrize("protocol", TESTERS)
    def test_test_uniformity_is_trial_0_0(self, protocol, instance, tmp_path, capsys):
        if instance == "uniform":
            spec, source = {"name": "uniform"}, ["--k", "8"]
        else:
            path = tmp_path / "p.json"
            path.write_text(paninski(PaninskiParam(k=8, eps=0.4, theta=np.array([1, -1, 1, -1]))).to_json())
            spec, source = {"name": "pmf_file", "path": str(path)}, ["--pmf", str(path)]
        argv = ["test-uniformity", *source, "--ell", "2", "--eps", "0.4", "--protocol", protocol, *self.SEED]
        assert main(argv) == 0
        row = json.loads(capsys.readouterr().out)
        report = run_trial(small_config(protocol=protocol, instance=spec, grid=(CELL_8,), master_seed=4), 0, 0)
        assert (row["n"], row["decision"], row["players_used"], row.get("public_bits", 0)) == (
            report.n, report.decision, report.players_used, report.public_bits)

    def test_infer_uniformity_is_private_si(self, capsys):
        common = ["--k", "8", "--ell", "2", "--eps", "0.4", *self.SEED]
        assert main(["infer", *common, "--task", "uniformity"]) == 0
        infer_row = json.loads(capsys.readouterr().out)
        assert main(["test-uniformity", *common, "--protocol", "private-si"]) == 0
        tester_row = json.loads(capsys.readouterr().out)
        assert infer_row.pop("task") == "uniformity" and tester_row.pop("protocol") == "private-si"
        assert infer_row == tester_row
