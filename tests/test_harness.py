"""Config validation, sweeps, CSV determinism, rate fits, and the CLI."""

import json
import math

import numpy as np
import pytest

from fedvi.algorithms import default_inner_steps, derived_gamma
from fedvi.cli import main as cli_main
from fedvi.gaps import restricted_gap
from fedvi.harness import (ConfigError, ExperimentConfig, build_problem,
                           compare_reduction, fit_rate, rows_to_csv,
                           run_experiment, run_single, verify_problem)


def minimal_config(**overrides):
    tree = {
        "problem": {"kind": "affine", "dim": 2, "seed": 3,
                    "params": {"L": 1.0}},
        "algorithm": {"id": "lesgd", "eta": 0.1},
        "federation": {"M": 1, "K": 1, "R": 10},
        "noise": {"sigma": 0.0, "model": "none"},
        "gap": {"D": 1.0},
        "seeds": [0],
    }
    tree.update(overrides)
    return tree


class TestConfigValidation:
    def test_minimal_accepted(self):
        cfg = ExperimentConfig.from_dict(minimal_config())
        assert cfg.federation["R"] == 10

    @pytest.mark.parametrize("mutate,path", [
        (lambda t: t.pop("problem"), "problem"),
        (lambda t: t["federation"].pop("M"), "federation.M"),
        (lambda t: t["federation"].update(K=0), "federation.K"),
        (lambda t: t["algorithm"].update(id="sgd9000"), "algorithm.id"),
        (lambda t: t["noise"].update(model="cauchy"), "noise.model"),
        (lambda t: t["noise"].update(sigma=-1.0), "noise.sigma"),
        (lambda t: t.update(gap={"D": -2.0}), "gap.D"),
        (lambda t: t.update(seeds=[]), "seeds"),
        (lambda t: t.update(sweep={"eta": [1, 2]}), "sweep.eta"),
        (lambda t: t["algorithm"].update(schedule="T99"), "algorithm.schedule"),
    ])
    def test_rejections_carry_field_path(self, mutate, path):
        tree = minimal_config()
        mutate(tree)
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(tree)
        assert err.value.path == path

    @pytest.mark.parametrize("mutate,path", [
        (lambda t: t.update(gap={"D": 1.0, "method": "newton"}), "gap.method"),
        (lambda t: t.update(gap={"D": "x"}), "gap.D"),
        (lambda t: t["noise"].update(sigma="1"), "noise.sigma"),
        (lambda t: t["algorithm"].update(eta=-1), "algorithm.eta"),
        (lambda t: t["algorithm"].update(eta=0.0), "algorithm.eta"),
        (lambda t: t["algorithm"].update(gamma=0), "algorithm.gamma"),
        (lambda t: t.update(z0=[0.0, 0.0, 0.0]), "z0"),
        (lambda t: t.update(z0=["a", 0.0]), "z0"),
    ], ids=["method", "D-string", "sigma-string", "eta-negative", "eta-zero",
            "gamma-zero", "z0-length", "z0-string"])
    def test_malformed_gap_and_step_fields_rejected(self, mutate, path):
        tree = minimal_config()
        mutate(tree)
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(tree)
        assert err.value.path == path

    def test_eta_required_without_schedule(self):
        tree = minimal_config()
        tree["algorithm"] = {"id": "lesgd"}
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(tree)
        assert err.value.path == "algorithm.eta"

    def test_sweep_cap_enforced(self):
        tree = minimal_config(max_runs=3, sweep={"M": [1, 2], "K": [1, 2]},
                              seeds=[0])
        with pytest.raises(ConfigError, match="cap"):
            ExperimentConfig.from_dict(tree)


class TestRunExperiment:
    def test_minimal_rows_and_gap_trend(self):
        """10 rounds, one row each; the gap stops increasing early on."""
        rows = run_experiment(minimal_config())
        assert len(rows) == 10
        assert [r.round for r in rows] == list(range(1, 11))
        gaps = [r.gap_value for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(gaps[2:], gaps[3:]))
        assert all(r.gap_certified for r in rows)

    def test_csv_byte_identical_across_reruns_and_workers(self):
        csv1 = rows_to_csv(run_experiment(minimal_config()))
        csv2 = rows_to_csv(run_experiment(minimal_config()))
        csv8 = rows_to_csv(run_experiment(minimal_config(), workers=8))
        assert csv1 == csv2 == csv8

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "rows.csv"
        run_experiment(minimal_config(output=str(out)))
        header = out.read_text().splitlines()[0]
        assert header == ("algo,theorem_id,d,M,K,R,sigma,eta,gamma,delta,H,"
                          "seed,round,gap_value,gap_certified,drift_z,"
                          "dist_to_solution,wall_ms")

    def test_sweep_cross_product(self):
        rows = run_experiment(minimal_config(sweep={"M": [1, 2]},
                                             seeds=[0, 1]))
        assert len(rows) == 40  # 4 runs x 10 logged rounds

    def test_sweep_reordering_does_not_change_run_rows(self):
        rows_a = run_experiment(minimal_config(sweep={"M": [1, 2]}))
        rows_b = run_experiment(minimal_config(sweep={"M": [2, 1]}))
        by_m_a = {m: [r for r in rows_a if r.M == m] for m in (1, 2)}
        by_m_b = {m: [r for r in rows_b if r.M == m] for m in (1, 2)}
        for m in (1, 2):
            assert by_m_a[m] == by_m_b[m]

    def test_theorem_schedule_resolves_step_size(self):
        tree = minimal_config()
        tree["algorithm"] = {"id": "lesgd", "schedule": "T1"}
        tree["federation"] = {"M": 1, "K": 4, "R": 10}
        rows = run_experiment(tree)
        assert rows[0].theorem_id == "T1"
        assert rows[0].eta == pytest.approx(1 / math.sqrt(14 * 4))

    def test_hetero_runs_and_reports_mean_gap(self):
        tree = minimal_config()
        tree["algorithm"] = {"id": "lesgd-hetero", "eta": 0.05}
        tree["federation"] = {"M": 3, "K": 2, "R": 4}
        tree["problem"]["hetero"] = {"offset_scale": 0.5}
        rows = run_experiment(tree)
        assert len(rows) == 4
        assert all(np.isfinite(r.gap_value) for r in rows)

    def test_hetero_runs_on_a_nonlinear_problem(self):
        """Client offsets need no affine structure in the operator."""
        tree = minimal_config(log_every=2)
        tree["problem"] = {"kind": "bounded-nonlinear", "dim": 3, "seed": 2,
                           "hetero": {"offset_scale": 0.5}}
        tree["algorithm"] = {"id": "lesgd-hetero", "schedule": "T8"}
        tree["federation"] = {"M": 3, "K": 2, "R": 4}
        tree["noise"] = {"sigma": 0.5, "model": "gaussian-isotropic"}
        rows = run_experiment(tree)
        assert len(rows) == 2
        assert all(np.isfinite(r.gap_value) and r.algo == "lesgd-hetero"
                   for r in rows)

    def test_csv_reports_resolved_inner_parameters(self):
        """H and gamma cells hold what LIPPAX used, also when derived."""
        tree = minimal_config(log_every=4)
        tree["problem"] = {"kind": "bounded-nonlinear", "dim": 3, "seed": 1}
        tree["algorithm"] = {"id": "lippax", "schedule": "T3"}
        tree["federation"] = {"M": 2, "K": 3, "R": 4}
        (row,) = run_experiment(tree)
        assert row.H == default_inner_steps(3, 4)

        tree = minimal_config()
        tree["algorithm"] = {"id": "lippax", "eta": 0.2}
        rows = run_experiment(tree)
        L = build_problem(ExperimentConfig.from_dict(tree)).L
        assert all(r.gamma == derived_gamma(0.2, L) for r in rows)

    def test_runner_warnings_reach_the_caller(self):
        tree = minimal_config()
        tree["problem"] = {"kind": "skew", "dim": 2, "seed": 0}
        tree["algorithm"] = {"id": "lsgd", "eta": 0.1}
        with pytest.warns(RuntimeWarning, match="co-coercivity"):
            run_experiment(tree)


def _stochastic(algorithm, M, **problem):
    tree = minimal_config(log_every=2, seeds=[4])
    tree["problem"].update(problem)
    tree["algorithm"] = algorithm
    tree["federation"] = {"M": M, "K": 2, "R": 6}
    tree["noise"] = {"sigma": 0.5, "model": "gaussian-isotropic"}
    return tree


class TestRunSingle:
    @pytest.mark.parametrize("tree", [
        _stochastic({"id": "lippax", "eta": 0.2}, M=2),
        _stochastic({"id": "lesgd-hetero", "eta": 0.1}, M=3,
                    hetero={"offset_scale": 0.5}),
    ], ids=["lippax", "lesgd-hetero"])
    def test_matches_run_experiment_rows(self, tree):
        """run_single and run_experiment build the same run of a seed."""
        cfg = ExperimentConfig.from_dict(tree)
        rows = run_experiment(cfg)
        traj = run_single(cfg)
        op = build_problem(cfg)
        assert len(traj.records) == len(rows) == 3
        for rec, row in zip(traj.records, rows):
            assert rec.t // row.K == row.round
            gap = restricted_gap(op, rec.output_avg, np.zeros(op.dim), 1.0)
            assert gap.value == row.gap_value
            assert rec.drift_z == row.drift_z


class TestFitRate:
    def _rows(self, law, Rs=(50, 100, 200, 400), algo="lesgd"):
        return [
            {"algo": algo, "sigma": 0.0, "R": R, "round": R,
             "gap_value": law(R)} for R in Rs
        ]

    def test_recovers_planted_inverse_law(self):
        fits = fit_rate(self._rows(lambda R: 100.0 / R), ["algo"], "R")
        fit = fits[("lesgd",)]
        assert abs(fit.slope + 1.0) < 1e-9
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_recovers_inverse_sqrt_law(self):
        fits = fit_rate(self._rows(lambda R: 7.0 / math.sqrt(R)), [], "R")
        assert abs(fits[()].slope + 0.5) < 1e-9

    def test_nonpositive_gaps_excluded_and_counted(self):
        rows = self._rows(lambda R: 100.0 / R, Rs=(50, 100, 200, 400, 800))
        rows[2]["gap_value"] = -0.5
        fits = fit_rate(rows, [], "R")
        assert fits[()].n_excluded == 1
        assert abs(fits[()].slope + 1.0) < 1e-9

    def test_too_few_distinct_x_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_rate(self._rows(lambda R: 1 / R, Rs=(50, 100, 200)), [], "R")

    def test_non_final_rounds_ignored(self):
        rows = self._rows(lambda R: 100.0 / R)
        rows.append({"algo": "lesgd", "sigma": 0.0, "R": 400, "round": 100,
                     "gap_value": 99.0})
        fits = fit_rate(rows, [], "R")
        assert abs(fits[()].slope + 1.0) < 1e-9


class TestCompareReduction:
    def _base(self):
        return {
            "problem": {"kind": "affine", "dim": 3, "seed": 5,
                        "params": {"L": 1.0}},
            "algorithm": {"id": "lesgd", "eta": 0.1},
            "federation": {"M": 2, "K": 2, "R": 4},
            "noise": {"sigma": 0.5, "model": "gaussian-isotropic"},
            "gap": {"D": 1.0},
            "seeds": [7],
            "log_every": 1,
        }

    def test_lda_zero_reg_equals_lesgd(self):
        a = self._base()
        b = self._base()
        b["algorithm"] = {"id": "lda", "eta": 0.1}
        b["regularizer"] = {"kind": "zero"}
        equal, dev = compare_reduction(a, b)
        assert equal and dev == 0.0

    def test_slippax_zero_delta_equals_lippax(self):
        a = self._base()
        a["algorithm"] = {"id": "lippax", "eta": 0.1, "H": 3}
        b = self._base()
        b["algorithm"] = {"id": "slippax", "eta": 0.1, "H": 3, "delta": 0.0}
        equal, dev = compare_reduction(a, b)
        assert equal and dev == 0.0

    def test_hetero_zero_offsets_equals_lesgd(self):
        a = self._base()
        b = self._base()
        b["algorithm"] = {"id": "lesgd-hetero", "eta": 0.1}
        b["problem"] = dict(b["problem"], hetero={"offset_scale": 0.0})
        equal, dev = compare_reduction(a, b)
        assert equal and dev == 0.0

    def test_l1_lda_differs_from_lesgd(self):
        a = self._base()
        b = self._base()
        b["algorithm"] = {"id": "lda", "eta": 0.1}
        b["regularizer"] = {"kind": "l1", "lam": 0.5}
        equal, dev = compare_reduction(a, b)
        assert not equal and dev > 0.0

    def test_mismatched_configs_rejected(self):
        a = self._base()
        b = self._base()
        b["federation"] = {"M": 2, "K": 2, "R": 5}
        b["algorithm"] = {"id": "lda", "eta": 0.1}
        with pytest.raises(ValueError, match="reduction axis"):
            compare_reduction(a, b)


class TestVerifyProblem:
    def test_zoo_problem_passes(self):
        cfg = ExperimentConfig.from_dict(minimal_config(
            noise={"sigma": 0.5, "model": "gaussian-isotropic"}))
        assert verify_problem(cfg, n_pairs=2000) == []


class TestCli:
    def _write(self, tmp_path, tree):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tree))
        return str(path)

    def test_run_and_fit_roundtrip(self, tmp_path, capsys):
        tree = minimal_config(sweep={"R": [5, 10, 20, 40]},
                              gap={"D": 12.0})  # ball covers the solution
        cfg_path = self._write(tmp_path, tree)
        out_csv = str(tmp_path / "out.csv")
        assert cli_main(["run", cfg_path, "--out", out_csv]) == 0
        assert cli_main(["fit", out_csv, "--x", "R", "--group", "algo"]) == 0
        captured = capsys.readouterr().out
        assert "slope=" in captured

    def test_workers_flag_is_deterministic(self, tmp_path):
        cfg_path = self._write(tmp_path, minimal_config())
        out1, out8 = str(tmp_path / "w1.csv"), str(tmp_path / "w8.csv")
        assert cli_main(["run", cfg_path, "--out", out1, "--workers", "1"]) == 0
        assert cli_main(["run", cfg_path, "--out", out8, "--workers", "8"]) == 0
        assert open(out1, "rb").read() == open(out8, "rb").read()

    def test_seed_override(self, tmp_path):
        cfg_path = self._write(tmp_path, minimal_config(seeds=[0, 1, 2]))
        out = str(tmp_path / "s.csv")
        assert cli_main(["run", cfg_path, "--out", out,
                         "--seed-override", "5"]) == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 11  # header + one seed's 10 rounds

    def test_bad_config_exits_2(self, tmp_path):
        tree = minimal_config()
        tree["federation"]["M"] = 0
        assert cli_main(["run", self._write(tmp_path, tree)]) == 2

    @staticmethod
    def _matrix_file(tmp, text):
        path = tmp / "matrix.txt"
        path.write_text(text)
        return {"kind": "affine", "file": str(path)}

    @pytest.mark.parametrize("mutate", [
        lambda t, tmp: t["gap"].update(method="newton"),
        lambda t, tmp: t["noise"].update(sigma="1"),
        lambda t, tmp: t["algorithm"].update(eta=-1),
        lambda t, tmp: t.update(z0=[0, 0, 0]),
        lambda t, tmp: t.update(
            problem=TestCli._matrix_file(tmp, "2\n1 0\n0 1\n0 0\n"),
            z0=[0, 0, 0]),
        lambda t, tmp: t.update(
            problem=TestCli._matrix_file(tmp, "2\n1 0\n0 x\n0 0\n")),
        lambda t, tmp: t.update(
            problem={"kind": "affine", "file": str(tmp / "missing.txt")}),
        lambda t, tmp: t.update(problem={"kind": "affine", "file": None}),
    ], ids=["gap-method", "sigma-string", "eta-negative", "z0-length",
            "file-z0-length", "file-malformed", "file-missing",
            "file-not-a-path"])
    def test_malformed_fields_exit_2(self, tmp_path, mutate, capsys):
        tree = minimal_config()
        mutate(tree, tmp_path)
        assert cli_main(["run", self._write(tmp_path, tree)]) == 2
        assert "config rejected" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli_main(["run", str(path)]) == 2

    def test_verify_ok_exits_0(self, tmp_path, capsys):
        cfg_path = self._write(tmp_path, minimal_config())
        assert cli_main(["verify", cfg_path]) == 0
        assert "passed" in capsys.readouterr().out
