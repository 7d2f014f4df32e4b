"""Experiment harness and CLI front door."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smpinfer.cli import main
from smpinfer.dist import tv, uniform, Pmf
from smpinfer.harness import (
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
from smpinfer.public_uniformity import warmup_players

TESTERS = ("smooth", "levin", "warmup", "private-si", "flying-pony")


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
            Cell(k=4, ell=0, n=10)
        with pytest.raises(ValueError):
            Cell(k=4, ell=1, n=0)
        with pytest.raises(ValueError):
            Cell.from_dict({"k": 4, "ell": 1, "players": 10})

    OUT_OF_RANGE = {
        "k": st.integers(max_value=0),
        "ell": st.integers(max_value=0),
        "eps": st.floats(max_value=0.0) | st.floats(min_value=1.0),
        "n": st.integers(max_value=0),
    }

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 10**6),
        ell=st.integers(1, 30),
        eps=st.none() | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
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
        with pytest.raises(KeyError):
            small_config(grid=())
        with pytest.raises(KeyError):
            small_config(trials=0)
        with pytest.raises(KeyError):
            small_config(protocol="astrology")

    def test_from_json_schema_check(self):
        with pytest.raises(KeyError):
            ExperimentConfig.from_json(json.dumps({"schema_version": 99, "protocol": "smooth",
                                                   "grid": [{"k": 8}], "trials": 1}))

    def test_from_json_roundtrip(self):
        cfg = ExperimentConfig.from_json(json.dumps({
            "protocol": "levin", "instance": {"name": "paninski"},
            "grid": [{"k": 16, "ell": 2, "eps": 0.3}], "trials": 2, "master_seed": 9,
        }))
        assert cfg.protocol == "levin" and cfg.trials == 2 and cfg.master_seed == 9


class TestInstances:
    def test_uniform(self):
        p, expected = make_instance({"name": "uniform"}, 8, 0.3, np.random.default_rng(0))
        assert expected == "accept_uniform" and np.allclose(p.probs, 1 / 8)

    def test_paninski_patterns(self):
        for kind in ("alternating", "neg-alternating", "ones", "neg-ones", "random"):
            p, expected = make_instance(
                {"name": "paninski", "theta": kind}, 8, 0.3, np.random.default_rng(1)
            )
            assert expected == "reject"
            assert tv(p, uniform(8)) == pytest.approx(0.3, abs=1e-12)

    def test_unknown_keys(self):
        with pytest.raises(KeyError):
            make_instance({"name": "nope"}, 8, 0.3, np.random.default_rng(0))
        with pytest.raises(KeyError):
            make_instance({"name": "paninski", "theta": "spiral"}, 8, 0.3, np.random.default_rng(0))


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
        cfg = small_config(trials=4)
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
        # Re-running one trial in isolation reproduces its report.
        cfg = small_config(trials=3)
        res = run_experiment(cfg)
        again = run_trial(cfg, 0, 2)
        # equal on every persisted field (wall time is a diagnostic, not data)
        assert again.csv_row() == res.reports[2].csv_row()

    def test_players_within_budget(self):
        cfg = small_config(protocol="private-si",
                           grid=({"k": 8, "ell": 2, "eps": 0.4, "n": 50_000},))
        for r in run_experiment(cfg).reports:
            assert r.players_used <= 50_000


class TestCalibrate:
    def test_impossible_target(self):
        with pytest.raises(CalibrationFailure):
            calibrate("smooth", 0.0, [{"k": 8, "ell": 2, "eps": 0.4}], 100)

    def test_budget_floor(self):
        with pytest.raises(KeyError):
            calibrate("smooth", 0.3, [{"k": 8, "ell": 2, "eps": 0.4}], 10)

    def test_smooth_ladder(self):
        out = calibrate("smooth", 1 / 3, [{"k": 8, "ell": 2, "eps": 0.4}], 100, master_seed=1)
        assert out["constant_key"] == "c_l2" and out["measured_error"] <= 1 / 3
        assert out["grid"] == [{"k": 8, "ell": 2, "eps": 0.4}]
        # Idempotence: re-checking the found constant still meets the target.
        again = calibrate("smooth", 1 / 3, [{"k": 8, "ell": 2, "eps": 0.4}], 100, master_seed=1)
        assert again == out  # the payload holds no wall-clock field


class TestScaling:
    def test_needs_three_points(self):
        with pytest.raises(KeyError):
            scaling_report(["dummy-const"], [8, 16], 0.3, 2)

    def test_dummy_control_slope_zero(self):
        rep = scaling_report(["dummy-const"], [16, 32, 64], 0.3, 2, trials=50)
        assert abs(rep["slopes"]["dummy-const"]) < 0.05
        assert all(r["n_min"] == 500 for r in rep["table"])

    def test_censoring(self):
        out = minimal_n("dummy-const", 16, 2, 0.3, trials=50, n_cap=100)
        assert out["censored"] and out["n_min"] is None


class TestCli:
    def test_verify_ok(self, capsys):
        assert main(["verify", "--suite", "chi2", "--seed", "1"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(r["ok"] for r in rows)

    def test_simulate_json(self, capsys):
        assert main(["simulate", "--k", "5", "--ell", "2", "--count", "2", "--seed", "3"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2 and all(0 <= r["symbol"] < 5 for r in rows)

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
            {"k": 8, "ell": 2, "eps": 0.4, "n": 0},  # experiment grid cells
            {"k": 8, "ell": 2, "eps": 0.4, "players": 10},
        ],
        ids=["undersized-n", "ell-0", "eps-1.5", "eps-0", "n-0", "experiment-n-0", "experiment-unknown-key"],
    )
    def test_bad_value_is_exit_3(self, case, tmp_path, capsys):
        if isinstance(case, dict):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"protocol": "smooth", "grid": [case], "trials": 1}))
            argv = ["experiment", "--config", str(path)]
        else:
            argv = ["test-uniformity", "--k", "64", "--ell", "2", "--eps", "0.4", "--protocol", "smooth", *case]
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

    def test_test_identity(self, tmp_path, capsys):
        ref = tmp_path / "q.json"
        ref.write_text(uniform(8).to_json())
        rc = main(["test-identity", "--pmf", str(ref), "--reference", str(ref),
                   "--ell", "3", "--eps", "0.4", "--protocol", "smooth", "--seed", "1"])
        assert rc == 0
        row = json.loads(capsys.readouterr().out)
        assert row["decision"] in ("accept_identity", "reject")
        assert row["mapped_domain"] == 40

    def test_scaling_cli(self, tmp_path, capsys):
        cfg = {"protocols": ["dummy-const"], "k_grid": [16, 32, 64], "eps": 0.3,
               "ell": 2, "trials": 50}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(cfg))
        assert main(["scaling", "--config", str(path), "--seed", "0"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert abs(rep["slopes"]["dummy-const"]) < 0.05
