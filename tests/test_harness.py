"""Config validation, sweeps, CSV determinism, rate fits, and the CLI."""

import csv
import io
import json
import math
import re
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fedvi import DivergenceWarning, GapBallWarning, harness
from fedvi.algorithms import default_inner_steps, derived_gamma
from fedvi.cli import main as cli_main
from fedvi.gaps import restricted_gap
from fedvi.harness import (MAX_GAP_RADIUS, MAX_RUNS, REQUIRED, SCHEMA,
                           ConfigError, ExperimentConfig, _run_config,
                           build_problem, fit_rate, rows_to_csv,
                           run_experiment, verify_problem)
from fedvi.operators import PARAMS, make_test_problem
from fedvi.oracles import Draws, OracleSpec, draw_rows, sample_oracle
from fedvi.rng import RngStream
from run_reference import compare_reduction, run_single


SHIPPED = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))


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


# Malformed configs that once escaped as raw TypeError / AttributeError /
# ValueError tracebacks or were accepted: (id, mutator, rejected field).
PROBES = [
    ("sweep-sigma-negative", lambda t: t.update(sweep={"sigma": [-1]}),
     "sweep.sigma"),
    ("sweep-K-string", lambda t: t.update(sweep={"K": ["2"]}), "sweep.K"),
    ("sweep-M-zero", lambda t: t.update(sweep={"M": [0]}), "sweep.M"),
    ("federation-list", lambda t: t.update(federation=[1]), "federation"),
    ("problem-list", lambda t: t.update(problem=[1]), "problem"),
    ("noise-list", lambda t: t.update(noise=[1]), "noise"),
    ("gap-string", lambda t: t.update(gap="D"), "gap"),
    ("log-every-zero", lambda t: t.update(log_every=0), "log_every"),
    ("seeds-bool", lambda t: t.update(seeds=[True]), "seeds"),
    ("top-level-typo", lambda t: t.update(federaton={"M": 2}), "federaton"),
    ("block-typo", lambda t: t["algorithm"].update(etta=0.2),
     "algorithm.etta"),
    ("box-without-bounds", lambda t: t.update(
        algorithm={"id": "lda", "eta": 0.1},
        regularizer={"kind": "box-indicator"}), "regularizer.lo"),
    ("hetero-scale-string", lambda t: t["problem"].update(
        hetero={"offset_scale": "x"}), "problem.hetero.offset_scale"),
    ("problem-seed-string", lambda t: t["problem"].update(seed="a"),
     "problem.seed"),
    ("params-not-object", lambda t: t["problem"].update(params=5),
     "problem.params"),
    ("delta-rule", lambda t: t["algorithm"].update(delta_rule="cube-root"),
     "algorithm.delta_rule"),
    ("center-length", lambda t: t["gap"].update(center=[1.0]), "gap.center"),
    ("output-not-a-path", lambda t: t.update(output=5), "output"),
    ("timing-string", lambda t: t.update(timing="no"), "timing"),
    ("box-inverted", lambda t: t.update(
        algorithm={"id": "lda", "eta": 0.1},
        regularizer={"kind": "box-indicator", "lo": 1.0, "hi": -1.0}),
     "regularizer"),
    # read only to draw lesgd-hetero's offsets when a file gives V
    ("file-seed", lambda t: t.update(
        problem={"kind": "affine", "file": "matrix.txt", "seed": 7}),
     "problem.seed"),
    # a repeated value would run the same runs twice
    ("seeds-repeated", lambda t: t.update(seeds=[0, 1, 0]), "seeds"),
    ("sweep-M-repeated", lambda t: t.update(sweep={"M": [2, 2]}), "sweep.M"),
    ("sweep-sigma-repeated", lambda t: t.update(
        noise={"sigma": 0.0}, sweep={"sigma": [1, 0.5, 1.0]}),
     "sweep.sigma"),
]


# Problem params that once ran, or failed inside numpy without naming
# the param: (id, kind, dim, params, the message after "problem: ").
BAD_PROBLEM_PARAMS = [
    ("affine-L-string", "affine", 2, {"L": "2"}, "L must be"),
    ("affine-mu-bool", "affine", 2, {"mu": True}, "mu must be"),
    ("affine-b-scale-inf", "affine", 2, {"b_scale": math.inf},
     "b_scale must be"),
    ("affine-skew-nan", "affine", 2, {"skew": math.nan}, "skew must be"),
    ("affine-dim-1-mu-0", "affine", 1, {"mu": 0}, "mu must be"),
    ("skew-L-negative", "skew", 2, {"L": -1}, "L must be"),
    ("bilinear-L-zero", "bilinear-saddle", 4, {"L": 0}, "L must be"),
    ("nonlinear-L-negative", "bounded-nonlinear", 3, {"L": -1}, "L must be"),
    ("nonlinear-L-nan", "bounded-nonlinear", 3, {"L": math.nan},
     "L must be"),
    ("quadratic-eig-range-string", "quadratic-gradient", 3,
     {"eig_range": ["a", 1]}, "eig_range must be"),
    ("quadratic-eig-range-inf", "quadratic-gradient", 3,
     {"eig_range": [0.1, math.inf]}, "eig_range must be"),
    ("quadratic-beta", "quadratic-gradient", 3, {"beta": 5},
     "unknown params for kind 'quadratic-gradient': ['beta']"),
]


class TestConfigValidation:
    @pytest.mark.parametrize("mutate,path", [p[1:] for p in PROBES],
                             ids=[p[0] for p in PROBES])
    def test_probed_configs_rejected(self, mutate, path):
        tree = minimal_config()
        mutate(tree)
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(tree)
        assert err.value.path == path

    def test_box_bounds_accepted_as_numbers_or_lists(self):
        tree = minimal_config(algorithm={"id": "lda", "eta": 0.1})
        tree["regularizer"] = {"kind": "box-indicator", "lo": -1.0,
                               "hi": [1.0, 2.0]}
        rows = run_experiment(tree)
        assert all(math.isfinite(r.gap_value) for r in rows)
        tree["regularizer"]["hi"] = [1.0, 2.0, 3.0]
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(tree)
        assert err.value.path == "regularizer.hi"

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
        (lambda t: t.update(gap={"D": 1.0, "method": "auto"}), "gap.method"),
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

    def test_readme_table_lists_every_field_and_default(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = dict(re.findall(r"^\| `([\w.]+)` \| (\S+) \|", readme, re.M))
        assert table == {
            ".".join(path): "required" if spec[0] is REQUIRED
            else f"`{json.dumps(spec[0])}`"
            for path, spec in _schema_fields(SCHEMA)
            if not isinstance(spec, dict)}

    def test_readme_lists_every_problem_param_and_default(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        row = re.search(r"^\| `problem.params` \|.*$", readme, re.M).group(0)
        listed = {kind: dict(re.findall(r"`(\w+)` = `([^`]*)`", body))
                  for kind, body in re.findall(r"`([\w-]+)`: ([^;|]+)", row)}
        derived = {"mu": "0.1 L", "dx": "max(d // 2, 1)", "n_terms": "2 d"}
        assert listed == {
            kind: {name: derived[name] if default is None
                   else json.dumps(default)
                   for name, default in params.items()}
            for kind, params in PARAMS.items()}

    def test_delta_rule_accepted_for_slippax_t5(self):
        tree = minimal_config(algorithm={"id": "slippax", "schedule": "T5",
                                         "delta_rule": "fourth-root-d"})
        cfg = ExperimentConfig.from_dict(tree)
        assert cfg.algorithm["delta_rule"] == "fourth-root-d"

    def test_readme_example_config_is_accepted(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = re.search(r"^```json\n(.*?)^```", readme, re.M | re.S)
        cfg = ExperimentConfig.from_dict(json.loads(example.group(1)))
        assert cfg.sweep == {"R": [50, 100, 200, 400, 800]}

    def test_sweep_cap_enforced(self):
        """MAX_RUNS seeds are accepted, and one more is rejected."""
        seeds = list(range(MAX_RUNS + 1))
        assert ExperimentConfig.from_dict(minimal_config(seeds=seeds[:-1]))
        with pytest.raises(ConfigError, match=f"yields {MAX_RUNS + 1} runs, "
                           f"over the cap of {MAX_RUNS}") as err:
            ExperimentConfig.from_dict(minimal_config(seeds=seeds))
        assert err.value.path == "sweep"

    def test_sweep_is_sized_without_building_it(self, monkeypatch):
        """A 10^9-run sweep is rejected from its axis lengths alone."""
        def refuse(self):
            raise AssertionError("the sweep was built")
        monkeypatch.setattr(ExperimentConfig, "expand_runs", refuse)
        axis = list(range(1, 1001))
        tree = minimal_config(sweep={"M": axis, "K": axis, "R": axis})
        with pytest.raises(ConfigError, match="yields 1000000000 runs") as err:
            ExperimentConfig.from_dict(tree)
        assert err.value.path == "sweep"


def _schema_fields(schema, prefix=()):
    """(path, spec) of every block and field of a SCHEMA block."""
    for key, spec in schema.items():
        yield prefix + (key,), spec
        if isinstance(spec, dict):
            yield from _schema_fields(spec, prefix + (key,))


# Small runs (dim <= 4, R <= 4) on each problem source and runner family.
FUZZ_BASES = {
    "affine": lambda tmp: minimal_config(
        problem={"kind": "affine", "dim": 3, "seed": 1},
        federation={"M": 2, "K": 2, "R": 3},
        noise={"sigma": 0.5, "model": "gaussian-isotropic"}),
    "nonlinear-slippax": lambda tmp: minimal_config(
        problem={"kind": "bounded-nonlinear", "dim": 3, "seed": 1},
        algorithm={"id": "slippax", "schedule": "T5"},
        federation={"M": 2, "K": 2, "R": 2},
        noise={"sigma": 0.5, "model": "gaussian-isotropic"}),
    "hetero": lambda tmp: minimal_config(
        problem={"kind": "skew", "dim": 2, "seed": 1,
                 "hetero": {"offset_scale": 0.5}},
        algorithm={"id": "lesgd-hetero", "schedule": "T8"},
        federation={"M": 3, "K": 2, "R": 3}),
    "file-lda": lambda tmp: minimal_config(
        **TestCli._file_lda(tmp), federation={"M": 1, "K": 2, "R": 3}),
}

JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 4),
    st.sampled_from([0.0, 0.5, 2.0, -1.0, 1e300]),
    st.sampled_from(["", "x", "z0", "auto", "grid", "exact-concave", "T1",
                     "T5", "T7", "l1", "box-indicator", "affine",
                     "bounded-nonlinear", "lda", "lippax", "bounded-uniform"]),
    st.lists(st.one_of(st.integers(-1, 2), st.sampled_from([0.5, -1.0])),
             max_size=4),
    st.dictionaries(st.sampled_from(["kind", "M", "x"]), st.integers(0, 2),
                    max_size=2))


class TestConfigFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(base=st.sampled_from(sorted(FUZZ_BASES)),
           path=st.sampled_from(sorted(p for p, _ in _schema_fields(SCHEMA))),
           value=JSON_VALUES)
    @example(base="file-lda", path=("gap", "center"), value=[0, 0, 0])
    @example(base="file-lda", path=("regularizer", "lo"), value=[-1, -1, -1])
    # lo = hi = 1: the box is the point (1, 1), outside the unit gap ball
    @example(base="file-lda", path=("regularizer", "lo"), value=1)
    @example(base="nonlinear-slippax", path=("noise", "sigma"), value=1e300)
    def test_one_field_set_gives_rows_or_config_error(self, tmp_path, base,
                                                      path, value):
        """Any value at any field: rows or a ConfigError, no other raise."""
        tree = FUZZ_BASES[base](tmp_path)
        node = tree
        for key in path[:-1]:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        node[path[-1]] = value
        try:
            cfg = ExperimentConfig.from_dict(tree)
            cfg.output = None  # checked, but no file is written
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                rows = run_experiment(cfg)
        except ConfigError:
            return
        assert rows


class TestRunExperiment:
    def test_minimal_rows_and_gap_trend(self):
        """10 rounds, one row each; the gap stops increasing early on."""
        rows = run_experiment(minimal_config())
        assert len(rows) == 10
        assert [r.round for r in rows] == list(range(1, 11))
        gaps = [r.gap_value for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(gaps[2:], gaps[3:]))
        assert all(r.gap_certified for r in rows)

    @pytest.mark.parametrize("log_every,R,steps", [
        (4, 45, 12), (None, 45, 6), (None, 10, 3)])
    def test_run_records_every_log_every_rounds(self, log_every, R, steps):
        """log_every rounds of K = 3 steps, or R // 20 rounds (at least 1)
        when unset."""
        cfg = ExperimentConfig.from_dict(minimal_config(
            log_every=log_every, federation={"M": 1, "K": 3, "R": R}))
        run_cfg = _run_config(cfg, build_problem(cfg), cfg.expand_runs()[0],
                              None)
        assert run_cfg.record_every == steps

    def test_z0_is_the_start_and_the_default_gap_center(self):
        """One rule: z0 as floats, or zeros of the problem's dimension."""
        cfg = ExperimentConfig.from_dict(minimal_config())
        assert np.array_equal(cfg.gap_center(2), np.zeros(2))
        cfg = ExperimentConfig.from_dict(minimal_config(z0=[1, -2]))
        for point in (cfg.initial_point(2), cfg.gap_center(2)):
            assert point.dtype == float
            assert np.array_equal(point, [1.0, -2.0])

    def test_csv_byte_identical_across_reruns_and_workers(self):
        csv1 = rows_to_csv(run_experiment(minimal_config()))
        csv2 = rows_to_csv(run_experiment(minimal_config()))
        csv8 = rows_to_csv(run_experiment(minimal_config(), workers=8))
        assert csv1 == csv2 == csv8

    def test_runs_start_no_thread(self, monkeypatch):
        def refuse(self):
            raise AssertionError("run_experiment started a thread")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert run_experiment(minimal_config(), workers=8)

    def test_unwritable_output_rejected_before_any_run(self, tmp_path,
                                                       monkeypatch):
        def refuse(*args):
            raise AssertionError("a run started")
        monkeypatch.setattr("fedvi.harness._simulate", refuse)
        out = str(tmp_path / "missing" / "x.csv")
        with pytest.raises(ConfigError, match="cannot write") as err:
            run_experiment(minimal_config(output=out))
        assert err.value.path == "output"

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "rows.csv"
        run_experiment(minimal_config(output=str(out)))
        header = out.read_text().splitlines()[0]
        assert header == ("algo,theorem_id,d,M,K,R,sigma,eta,gamma,delta,H,"
                          "seed,round,gap_value,gap_certified,drift_z,"
                          "dist_to_solution,status")

    def test_sigma_cells_match_across_spellings(self):
        """An integer sigma writes the same cells as a base or sweep value."""
        noise = {"sigma": 1, "model": "gaussian-isotropic"}
        base = run_experiment(minimal_config(noise=noise))
        swept = run_experiment(minimal_config(
            noise=dict(noise, sigma=0.0), sweep={"sigma": [1]}))
        assert rows_to_csv(base) == rows_to_csv(swept)
        assert {r.sigma for r in swept} == {1.0}
        assert rows_to_csv(swept).splitlines()[1].split(",")[6] == "1.0"

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

    def test_sweep_axes_enumerate_in_schema_order(self):
        """A sweep that lists sigma before M still enumerates its runs in
        SCHEMA's (M, sigma) order, and writes the same CSV."""
        noise = {"sigma": 0.0, "model": "gaussian-isotropic"}
        trees = [minimal_config(noise=noise, gap={"D": 12.0},
                                sweep=dict(axes))
                 for axes in ([("M", [1, 2]), ("sigma", [0.0, 0.5])],
                              [("sigma", [0.0, 0.5]), ("M", [1, 2])])]
        assert list(trees[1]["sweep"]) == ["sigma", "M"]
        runs = [[(spec["M"], spec["sigma"]) for spec in
                 ExperimentConfig.from_dict(tree).expand_runs()]
                for tree in trees]
        assert runs[0] == runs[1] == [(1, 0.0), (1, 0.5), (2, 0.0),
                                      (2, 0.5)]
        assert rows_to_csv(run_experiment(trees[0])) == rows_to_csv(
            run_experiment(trees[1]))

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

    def test_hetero_reads_the_seed_with_a_problem_file(self, tmp_path):
        """problem.seed draws the offsets, also when a file gives V."""
        tree = minimal_config(
            problem=dict(TestCli._matrix_file(tmp_path, "2\n1 0\n0 1\n0 0\n"),
                         seed=7),
            algorithm={"id": "lesgd-hetero", "eta": 0.05},
            federation={"M": 3, "K": 2, "R": 4})
        rows = run_experiment(tree)
        tree["problem"]["seed"] = 8
        assert rows_to_csv(rows) != rows_to_csv(run_experiment(tree))
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
        """H, gamma and delta cells hold what LIPPAX and SLIPPAX used, also
        when derived."""
        tree = minimal_config(log_every=4)
        tree["problem"] = {"kind": "bounded-nonlinear", "dim": 3, "seed": 1}
        tree["algorithm"] = {"id": "lippax", "schedule": "T3"}
        tree["federation"] = {"M": 2, "K": 3, "R": 4}
        (row,) = run_experiment(tree)
        assert row.H == default_inner_steps(3, 4)
        # the harness derives gamma from the schedule's eta
        L = build_problem(ExperimentConfig.from_dict(tree)).L
        assert row.gamma == derived_gamma(row.eta, L)

        tree["algorithm"] = {"id": "slippax", "schedule": "T5"}
        tree["noise"] = {"sigma": 0.5, "model": "gaussian-isotropic"}
        (row,) = run_experiment(tree)
        assert row.H == default_inner_steps(3, 4)
        assert row.gamma == derived_gamma(row.eta, L)
        # T5's sqrt-d radius, the plan's delta
        assert row.delta == row.eta * 0.5 / math.sqrt(3) > 0

        tree = minimal_config()
        tree["algorithm"] = {"id": "lippax", "eta": 0.2}
        rows = run_experiment(tree)
        L = build_problem(ExperimentConfig.from_dict(tree)).L
        assert all(r.gamma == derived_gamma(0.2, L) for r in rows)

    def test_csv_delta_is_the_radius_the_run_used(self):
        """A T5 schedule's radius reaches the CSV only for SLIPPAX, the
        one id that smooths; every other id writes 0.0."""
        tree = minimal_config(log_every=5)
        tree["problem"] = {"kind": "bounded-nonlinear", "dim": 6, "seed": 1}
        tree["federation"] = {"M": 2, "K": 4, "R": 10}
        tree["noise"] = {"sigma": 0.5, "model": "gaussian-isotropic"}
        for algo_id in ("lippax", "lesgd", "slippax"):
            tree["algorithm"] = {"id": algo_id, "schedule": "T5"}
            rows = run_experiment(tree)
            want = (rows[0].eta * 0.5 / math.sqrt(6) if algo_id == "slippax"
                    else 0.0)
            assert [r.delta for r in rows] == [want] * 2, algo_id

    def test_diverged_run_is_marked(self, tmp_path):
        """eta = 3 grows geometrically past the growth limit after two ok
        records: later rows are diverged, with empty gap, drift and
        distance cells."""
        tree = minimal_config(log_every=4, output=str(tmp_path / "d.csv"))
        tree["algorithm"]["eta"] = 3.0
        tree["federation"]["R"] = 40
        with np.errstate(all="ignore"), \
                pytest.warns(RuntimeWarning, match="diverged"):
            rows = run_experiment(tree)
        status = [r.status for r in rows]
        first = status.index("diverged")
        assert 0 < first and status[first:] == ["diverged"] * (10 - first)
        assert all(math.isfinite(r.gap_value) for r in rows[:first])
        assert all(v is None for r in rows[first:] for v in (
            r.gap_value, r.gap_certified, r.drift_z, r.dist_to_solution))
        lines = (tmp_path / "d.csv").read_text().splitlines()[1:]
        assert [ln.rsplit(",", 1)[1] for ln in lines] == status
        # gap_value, gap_certified, drift_z, dist_to_solution
        cells = [ln.split(",")[13:17] for ln in lines]
        assert cells[first:] == [[""] * 4] * (10 - first)
        assert all(all(row) for row in cells[:first])

    def test_ok_rows_hold_finite_cells_only(self):
        """A run is diverged from the first record that lies farther than
        1e6 times the gap ball's reach from z0, not an ok row with an inf
        distance or a gap of 1e41 and more (eta = 1e6 wrote three)."""
        tree = minimal_config(log_every=4)
        tree["federation"]["R"] = 40
        for eta, n_ok, step in ((3.0, 2, 12), (4.0, 1, 8), (1e6, 0, 4)):
            tree["algorithm"]["eta"] = eta
            with np.errstate(all="ignore"), pytest.warns(
                    RuntimeWarning,
                    match=f"beyond 1e\\+06 from z0 at step {step}$"):
                rows = run_experiment(tree)
            assert [r.status for r in rows] == (["ok"] * n_ok
                                                + ["diverged"] * (10 - n_ok))
            for row in rows[:n_ok]:
                assert abs(row.gap_value) < 1e12 and row.gap_certified
                assert row.dist_to_solution < 1e6

    def test_affine_lda_gaps_are_certified(self):
        """The composite gap of an affine operator carries its certificate."""
        path = Path(__file__).parents[1] / "configs" / "lda_l1_bilinear.json"
        tree = json.loads(path.read_text())
        tree.pop("output", None)
        rows = run_experiment(tree)
        assert len(rows) == 20
        assert all(r.status == "ok" and r.gap_certified for r in rows)

    def test_finite_runs_are_ok(self):
        assert {r.status for r in run_experiment(minimal_config())} == {"ok"}

    def test_drift_is_taken_before_the_sync(self):
        """Rows fall on sync steps; stochastic clients have spread apart
        by then, identical deterministic clients have not."""
        tree = minimal_config(log_every=2)
        tree["federation"] = {"M": 4, "K": 3, "R": 6}
        noisy = dict(tree, noise={"sigma": 0.5, "model": "gaussian-isotropic"})
        for config, positive in ((noisy, True), (tree, False)):
            rows = list(csv.DictReader(io.StringIO(
                rows_to_csv(run_experiment(config)))))
            assert [r["status"] for r in rows] == ["ok"] * 3
            drift = [r["drift_z"] for r in rows]
            if positive:
                assert all(float(v) > 0.0 for v in drift)
            else:
                assert drift == ["0.0"] * 3

    def test_runner_warnings_reach_the_caller(self):
        tree = minimal_config()
        tree["problem"] = {"kind": "skew", "dim": 2, "seed": 0}
        tree["algorithm"] = {"id": "lsgd", "eta": 0.1}
        with pytest.warns(RuntimeWarning, match="co-coercivity"):
            run_experiment(tree)


RUNNERS = ("run_lesgd", "run_lippax", "run_slippax", "run_lsgd", "run_lda",
           "run_lesgd_hetero")
CONFIGS = Path(__file__).parents[1] / "configs"


def _runner_calls(monkeypatch) -> list[int]:
    """The R of every public runner call the harness makes from now on."""
    calls = []
    for name in RUNNERS:
        def counting(*args, _runner=getattr(harness, name)):
            calls.append(args[-1].R)
            return _runner(*args)
        monkeypatch.setattr(harness, name, counting)
    return calls


def _calls(monkeypatch, name: str) -> list[int]:
    """One entry per call the harness makes to its ``name`` from now on."""
    calls = []

    def counting(*args, _fn=getattr(harness, name)):
        calls.append(1)
        return _fn(*args)
    monkeypatch.setattr(harness, name, counting)
    return calls


def _alone(tree: dict, spec: dict) -> dict:
    """tree narrowed to the one run of spec."""
    tree = json.loads(json.dumps(tree))
    tree.pop("sweep", None)
    tree["federation"] = {name: spec[name] for name in "MKR"}
    tree["noise"] = dict(tree.get("noise", {}), sigma=spec["sigma"])
    tree["seeds"] = [spec["seed"]]
    return tree


def _csv_of_runs_alone(tree: dict) -> str:
    """The CSV of every run of tree, each run by a config of its own."""
    texts = [rows_to_csv(run_experiment(_alone(tree, spec)))
             for spec in ExperimentConfig.from_dict(tree).expand_runs()]
    return texts[0] + "".join(t.split("\n", 1)[1] for t in texts[1:])


def _rate_sweep() -> dict:
    tree = json.loads((CONFIGS / "lesgd_rate_sweep.json").read_text())
    tree.pop("output", None)
    return tree


class TestSharedTrajectories:
    """Runs that draw nothing and share (M, K, eta, gamma, H, delta) are
    simulated once, at the longest of them, on one operator build, each
    of its records is evaluated once, and each run reads its rows."""

    @pytest.mark.parametrize("tree,calls,gaps,builds", [
        (minimal_config(seeds=[0, 1, 2]), [10], 10, 1),
        (_rate_sweep(), [800], 70, 1),
        # T7's eta depends on R
        (minimal_config(
            problem={"kind": "bilinear-saddle", "dim": 4, "seed": 9},
            algorithm={"id": "lda", "schedule": "T7"},
            federation={"M": 2, "K": 4, "R": 4}, gap={"D": 2.0},
            regularizer={"kind": "box-indicator", "lo": -1.0, "hi": 1.0},
            sweep={"R": [4, 8, 16]}, seeds=[0, 1]), [4, 8, 16], 28, 3),
        # the default H is 3, 4 and 5
        (minimal_config(
            problem={"kind": "bounded-nonlinear", "dim": 4, "seed": 2},
            algorithm={"id": "lippax", "eta": 0.2},
            federation={"M": 2, "K": 2, "R": 2},
            sweep={"R": [2, 8, 32]}), [2, 8, 32], 42, 3),
        # a run that draws is a group of its own, one gap per row, and
        # the three are one stack
        (minimal_config(noise={"sigma": 0.5, "model": "gaussian-isotropic"},
                        seeds=[0, 1, 2]), [10], 30, 1),
        # three draw-free groups (M = 1, 2, 3) of one K and R: one stack
        (minimal_config(sweep={"M": [1, 2, 3]}), [10], 30, 1),
        # drawing runs stack by R, and by sigma
        (minimal_config(noise={"sigma": 0.5, "model": "gaussian-isotropic"},
                        sweep={"M": [1, 2], "R": [4, 8],
                               "sigma": [0.5, 1.0]}),
         [4, 4, 8, 8], 48, 4),
    ], ids=["seeds", "rate-sweep", "lda-T7-R", "lippax-default-H",
            "stochastic", "draw-free-M", "stochastic-R-sigma"])
    def test_one_runner_call_per_distinct_trajectory(self, monkeypatch,
                                                     tree, calls, gaps,
                                                     builds):
        """One runner call per stack of distinct trajectories, each at
        its longest R, one operator build per runner call and one gap
        call per distinct record; and every CSV byte is the one each run
        writes alone."""
        made = _runner_calls(monkeypatch)
        evaluated = _calls(monkeypatch, "composite_gap")
        built = _calls(monkeypatch, "build_problem")
        text = rows_to_csv(run_experiment(tree))
        assert sorted(made) == sorted(calls)
        assert len(evaluated) == gaps
        assert len(built) == builds
        assert text == _csv_of_runs_alone(tree)

    def test_prefix_runs_diverge_as_alone(self, monkeypatch):
        """R = 20 and R = 40 read one trajectory, recording every step
        and every second step; each diverges, warns and writes its cells
        as it does alone, at steps 11 and 12, and R = 10 stays ok.  The
        six runs evaluate each ok step of the trajectory once (K = 1, so
        a round is a step), and no diverged record."""
        tree = minimal_config(sweep={"R": [10, 20, 40]}, seeds=[0, 1])
        tree["algorithm"]["eta"] = 3.0

        def run(config):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                warnings.simplefilter("ignore", GapBallWarning)
                rows = run_experiment(config)
            return rows, [str(w.message) for w in caught]

        evaluated = _calls(monkeypatch, "composite_gap")
        rows, messages = run(tree)
        assert len(evaluated) == 10
        assert {r.round for r in rows if r.status == "ok"} == set(range(1, 11))
        alone = [run(_alone(tree, spec))
                 for spec in ExperimentConfig.from_dict(tree).expand_runs()]
        assert messages == [m for _, ms in alone for m in ms]
        assert [len(ms) for _, ms in alone] == [0, 0, 1, 1, 1, 1]
        assert [re.search(r"at step (\d+)$", ms[0])[1]
                for _, ms in alone[2:]] == ["11", "11", "12", "12"]
        cells = ("round", "status", "gap_value", "gap_certified", "drift_z",
                 "dist_to_solution")
        assert [[getattr(r, c) for c in cells] for r in rows] == [
            [getattr(r, c) for c in cells] for rs, _ in alone for r in rs]

    def test_lsgd_warns_once_per_shared_trajectory(self):
        tree = minimal_config(problem={"kind": "skew", "dim": 2, "seed": 0},
                              algorithm={"id": "lsgd", "eta": 0.1},
                              seeds=[0, 1, 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(tree)
        assert ["co-coercivity" in str(w.message) for w in caught] == [True]


def _m_sweep(algorithm, problem, Ms, sigma=0.5, D=1.0, **fields):
    """A drawing config over sweep.M and two seeds: one stack."""
    return dict({"problem": problem, "algorithm": algorithm,
                 "federation": {"M": 1, "K": 2, "R": 6},
                 "noise": {"sigma": sigma, "model": "gaussian-isotropic"},
                 "gap": {"D": D}, "sweep": {"M": Ms}, "seeds": [0, 1],
                 "log_every": 2}, **fields)


class TestStacks:
    """A config's runs that share sigma, K, R, H and record cadence are
    one runner call, and every CSV byte is the one each run writes
    alone."""

    @pytest.mark.filterwarnings("ignore:operator does not declare")
    @pytest.mark.parametrize("tree,varies", [
        # T1's variance branch binds at small D: eta grows with M
        (_m_sweep({"id": "lesgd", "schedule": "T1"},
                  {"kind": "affine", "dim": 3, "seed": 1}, [1, 4, 16],
                  sigma=5.0, D=0.01), "eta"),
        (_m_sweep({"id": "lda", "schedule": "T7"},
                  {"kind": "bilinear-saddle", "dim": 4, "seed": 9},
                  [1, 2, 3], D=0.05,
                  regularizer={"kind": "l1", "lam": 0.1}), "eta"),
        # each M draws its own offsets, so xi and eta differ with M
        (_m_sweep({"id": "lesgd-hetero", "schedule": "T8"},
                  {"kind": "affine", "dim": 3, "seed": 1,
                   "hetero": {"offset_scale": 0.5}}, [2, 3]), "eta"),
        # gamma is derived from each run's eta
        (_m_sweep({"id": "lippax", "schedule": "T4"},
                  {"kind": "affine", "dim": 3, "seed": 1}, [1, 4],
                  sigma=2.0, D=0.01), "gamma"),
        # T5 sets every run's delta, and each row is smoothed by it
        (_m_sweep({"id": "slippax", "schedule": "T5"},
                  {"kind": "bounded-nonlinear", "dim": 4, "seed": 2},
                  [1, 3]), "delta"),
        (_m_sweep({"id": "lsgd", "schedule": "T6"},
                  {"kind": "quadratic-gradient", "dim": 3, "seed": 1},
                  [1, 2, 4], sigma=3.0), "eta"),
    ], ids=["lesgd-M", "lda-l1", "lesgd-hetero", "lippax-T4",
            "slippax-T5", "lsgd"])
    def test_one_stack_writes_the_runs_alone(self, monkeypatch, tree,
                                             varies):
        made = _runner_calls(monkeypatch)
        rows = run_experiment(tree)
        assert made == [6]
        values = {getattr(row, varies) for row in rows}
        assert len(values) > 1 if varies != "delta" else values != {0.0}
        assert {row.status for row in rows} == {"ok"}
        assert rows_to_csv(rows) == _csv_of_runs_alone(tree)

    def test_stacks_split_at_stack_rows(self, monkeypatch):
        """Runs join a stack while its rows stay within STACK_ROWS."""
        monkeypatch.setattr(harness, "STACK_ROWS", 5)
        tree = _m_sweep({"id": "lesgd", "eta": 0.05},
                        {"kind": "affine", "dim": 3, "seed": 1}, [1, 2, 4])
        tree["seeds"] = [0, 1, 2]
        sizes = []
        simulate = harness._simulate

        def recording(cfg, oracle, offsets, stack):
            sizes.append([run.M for run in stack.runs])
            return simulate(cfg, oracle, offsets, stack)
        monkeypatch.setattr(harness, "_simulate", recording)
        text = rows_to_csv(run_experiment(tree))
        assert sizes == [[1, 1, 1, 2], [2, 2], [4], [4], [4]]
        assert text == _csv_of_runs_alone(tree)

    def test_drawing_lsgd_warns_once_per_run(self, monkeypatch):
        """Co-coercivity is warned once per run: three seeds in one stack
        warn three times."""
        made = _runner_calls(monkeypatch)
        tree = minimal_config(problem={"kind": "skew", "dim": 2, "seed": 0},
                              algorithm={"id": "lsgd", "eta": 0.1},
                              noise={"sigma": 0.5,
                                     "model": "gaussian-isotropic"},
                              seeds=[0, 1, 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(tree)
        assert made == [10]
        assert ["co-coercivity" in str(w.message) for w in caught] == [
            True] * 3


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


# (algorithm, zoo kind) per runner; lda's step is set by hand because
# T7's G branch does not scale by c / f (TestStepSize)
COVARIANT_RUNNERS = {
    "lesgd-T1": ({"id": "lesgd", "schedule": "T1"}, "affine"),
    "lesgd-T2": ({"id": "lesgd", "schedule": "T2"}, "affine"),
    "lippax-T3": ({"id": "lippax", "schedule": "T3"}, "affine"),
    "slippax-T5": ({"id": "slippax", "schedule": "T5"}, "affine"),
    "lesgd-hetero-T8": ({"id": "lesgd-hetero", "schedule": "T8"}, "affine"),
    "lsgd-T6": ({"id": "lsgd", "schedule": "T6"}, "quadratic-gradient"),
    "lda-eta": ({"id": "lda", "eta": 0.1}, "affine"),
}
ZOO_PARAMS = {"affine": {"mu": 0.0},
              "quadratic-gradient": {"eig_range": [0.0, 1.0]}}


class TestUnitCovariance:
    """Lengths scaled by c and operator values by f: a run from c z0 on
    A -> (f / c) A, b -> f b (client offsets f times), with gap radius
    c D, takes steps eta c / f along c times the iterates, so its gaps
    are c f times the gaps of the unscaled run.  At sigma = 0 every
    schedule branch that is not infinite scales so."""

    @staticmethod
    def _run(tmp_path, algorithm, kind, seed, c, f, name):
        op = make_test_problem(kind, 4, ZOO_PARAMS[kind], seed)
        # A then b, one row each, as load_affine_text reads them
        lines = np.vstack([op.payload["A"] * (f / c), op.payload["b"] * f])
        path = tmp_path / name
        path.write_text("\n".join(["4", *(" ".join(map(repr, row))
                                          for row in lines.tolist())]))
        problem = {"kind": "affine", "file": str(path)}
        if algorithm["id"] == "lesgd-hetero":
            problem.update(seed=seed, hetero={"offset_scale": 0.3 * f})
        algorithm = dict(algorithm)
        if "eta" in algorithm:
            algorithm["eta"] *= c / f
        z0 = np.random.default_rng(seed).standard_normal(4) * c
        tree = minimal_config(problem=problem, algorithm=algorithm,
                              federation={"M": 2, "K": 3, "R": 4},
                              z0=z0.tolist(), gap={"D": 2.0 * c})
        final = run_experiment(tree)[-1]
        assert final.round == 4 and final.status == "ok"
        return final

    @pytest.mark.parametrize("c,f", [(4, 2), (3, 7), (1, 1e8), (1e-4, 1e4)])
    @pytest.mark.parametrize("runner", COVARIANT_RUNNERS)
    def test_eta_scales_by_c_over_f_and_gap_by_c_f(self, tmp_path, runner,
                                                   c, f):
        algorithm, kind = COVARIANT_RUNNERS[runner]
        for seed in range(6):
            base = self._run(tmp_path, algorithm, kind, seed, 1, 1, "base")
            scaled = self._run(tmp_path, algorithm, kind, seed, c, f,
                               "scaled")
            assert scaled.eta / base.eta == pytest.approx(c / f, rel=1e-8,
                                                          abs=0)
            assert base.gap_value != 0
            assert scaled.gap_value / base.gap_value == pytest.approx(
                c * f, rel=1e-8)


class TestFitRate:
    def _rows(self, law, Rs=(50, 100, 200, 400), algo="lesgd"):
        return [
            {"algo": algo, "sigma": 0.0, "eta": 0.1, "K": 1, "R": R,
             "round": R, "gap_value": law(R), "seed": 0} for R in Rs
        ]

    def test_recovers_planted_inverse_law(self):
        fits = fit_rate(self._rows(lambda R: 100.0 / R), ["algo"], "R")
        fit = fits[("lesgd",)]
        assert abs(fit.slope + 1.0) < 1e-9
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.slope_ci == (fit.slope, fit.slope)  # one seed

    def test_seed_bootstrap_ci_is_the_resampled_polyfit_slopes(self):
        """The CI is the percentiles of polyfit's slope over the seed
        resamples, written out as a loop, and holds the fitted slope.
        Seed 2 holds three R and seed 3 one, so a resample of one of
        them alone has too few distinct R and is skipped."""
        noise = np.random.default_rng(1).lognormal(0.0, 0.3, (4, 4))
        rows = [dict(row, seed=seed, gap_value=row["gap_value"] * f)
                for seed in range(4)
                for row, f in zip(self._rows(lambda R: 100.0 / R),
                                  noise[seed])
                if seed < 2 or (row["R"] < 300) == (seed == 2)]
        rng = np.random.default_rng(0)
        slopes = []
        for _ in range(harness.BOOTSTRAP_RESAMPLES):
            drawn = [r for s in rng.integers(4, size=4) for r in rows
                     if r["seed"] == s]
            if len({r["R"] for r in drawn}) >= 4:
                slopes.append(np.polyfit(
                    np.log([r["R"] for r in drawn]),
                    np.log([r["gap_value"] for r in drawn]), 1)[0])
        assert len(slopes) < harness.BOOTSTRAP_RESAMPLES
        fit = fit_rate(rows, [], "R")[()]
        lo, hi = fit.slope_ci
        assert [lo, hi] == pytest.approx(np.percentile(slopes, [2.5, 97.5]),
                                         rel=1e-9)
        assert lo < fit.slope < hi
        assert fit_rate(rows, [], "R")[()].slope_ci == (lo, hi)

    def test_recovers_inverse_sqrt_law(self):
        fits = fit_rate(self._rows(lambda R: 7.0 / math.sqrt(R)), [], "R")
        assert abs(fits[()].slope + 0.5) < 1e-9

    def test_nonpositive_gaps_excluded_and_counted(self):
        rows = self._rows(lambda R: 100.0 / R, Rs=(50, 100, 200, 400, 800))
        rows[2]["gap_value"] = -0.5
        fits = fit_rate(rows, [], "R")
        assert fits[()].n_excluded == 1
        assert abs(fits[()].slope + 1.0) < 1e-9

    def test_nonpositive_x_excluded_and_counted(self):
        """sigma = 0 is a legal sweep level with no logarithm."""
        rows = run_experiment(minimal_config(
            noise={"sigma": 0.0, "model": "gaussian-isotropic"},
            gap={"D": 12.0},  # ball covers the solution: every gap > 0
            sweep={"sigma": [0, 1, 2, 4, 8]}))
        fit = fit_rate(rows, [], "sigma")[()]
        assert [x for x, _ in fit.pairs] == [1, 2, 4, 8]
        assert fit.n_excluded == 1

    def test_too_few_distinct_x_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_rate(self._rows(lambda R: 1 / R, Rs=(50, 100, 200)), [], "R")

    def test_empty_gaps_excluded_and_counted(self):
        """A diverged run's final row has an empty gap cell in the CSV."""
        rows = self._rows(lambda R: 100.0 / R,
                          Rs=(50, 100, 200, 400, 800, 1600))
        rows[1]["gap_value"] = ""
        rows[3]["gap_value"] = None
        fits = fit_rate(rows, [], "R")
        assert fits[()].n_excluded == 2
        assert abs(fits[()].slope + 1.0) < 1e-9

    @pytest.mark.parametrize("rows", [
        [], [{"algo": "lesgd", "sigma": 0.0, "R": 400, "round": 100,
              "gap_value": 0.5}]], ids=["empty", "no-final-round"])
    def test_no_final_round_rows_rejected(self, rows):
        with pytest.raises(ValueError, match=r"group \(\): need >= 4 "
                           r"distinct R values, got 0 \(0 excluded\)"):
            fit_rate(rows, [], "R")

    def test_group_with_every_final_row_excluded_rejected(self):
        rows = self._rows(lambda R: 100.0 / R) + self._rows(
            lambda R: -1.0, algo="lippax")
        with pytest.raises(ValueError, match=r"group \('lippax',\): need "
                           r">= 4 distinct R values, got 0 \(4 excluded\)"):
            fit_rate(rows, ["algo"], "R")

    def test_infinite_gaps_and_x_excluded_and_counted(self):
        """inf has no finite logarithm: an inf gap or x is skipped like
        a NaN one, not fitted."""
        rows = [{"sigma": sigma, "eta": 0.1, "K": 1, "R": 10, "round": 10,
                 "gap_value": 3.0 * sigma ** 2, "seed": 0}
                for sigma in (0.5, 1, 2, 4, 8, 16)]
        rows[1]["gap_value"] = "inf"
        rows[4]["sigma"] = "inf"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_rate(rows, [], "sigma")[()]
        assert fit.n_excluded == 2
        assert [x for x, _ in fit.pairs] == [0.5, 2, 4, 16]
        assert abs(fit.slope - 2.0) < 1e-9

    def test_predicted_slope_on_criterion_1_rows(self):
        """At a fixed K and a schedule eta that does not move with R,
        D^2 / (eta K R) falls as 1/R, to rounding."""
        rows = run_experiment(ExperimentConfig.from_file(
            Path(__file__).parents[1] / "configs" / "lesgd_rate_sweep.json"))
        fit = fit_rate(rows, [], "R")[()]
        assert abs(fit.predicted_slope + 1) < 1e-12
        lo, hi = fit.normalized
        assert 0 < lo <= hi < math.inf

    def test_non_final_rounds_ignored(self):
        rows = self._rows(lambda R: 100.0 / R)
        rows.append({"algo": "lesgd", "sigma": 0.0, "R": 400, "round": 100,
                     "gap_value": 99.0})
        fits = fit_rate(rows, [], "R")
        assert abs(fits[()].slope + 1.0) < 1e-9


class TestGapBallWarning:
    def _caught(self, tree):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(tree)
        return [str(w.message) for w in caught
                if w.category is GapBallWarning]

    def test_warns_once_per_config(self):
        """minimal_config's ball of radius 1 about 0 misses z*, 4.93 away:
        one warning for its four runs, naming both numbers."""
        assert self._caught(minimal_config(sweep={"M": [1, 2]},
                                           seeds=[0, 1])) == [
            "the gap ball misses the solution: |center - z*| = 4.92745 "
            "> gap.D = 1"]

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
    def test_silent_on_every_shipped_config(self, path):
        cfg = ExperimentConfig.from_file(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", GapBallWarning)
            harness._check_gap_ball(cfg, build_problem(cfg))

    def test_silent_when_a_regularizer_moves_the_solution(self):
        """With l1 the solution is the composite problem's, not V's zero,
        so a ball that misses V's zero is no miss."""
        tree = minimal_config(algorithm={"id": "lda", "eta": 0.1},
                              regularizer={"kind": "l1", "lam": 0.1})
        op = build_problem(ExperimentConfig.from_dict(tree))
        assert np.linalg.norm(op.solution) > tree["gap"]["D"]
        assert self._caught(tree) == []


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
        assert verify_problem(cfg) == []

    def test_swept_sigma_is_checked(self, monkeypatch):
        """With noise.sigma 0, a positive sweep.sigma still runs the oracle
        checks, and they catch noise drawn twice too large."""
        cfg = ExperimentConfig.from_dict(minimal_config(
            noise={"sigma": 0.0, "model": "gaussian-isotropic"},
            sweep={"sigma": [1, 4]}))
        assert verify_problem(cfg) == []

        def miscalibrated(oracle, keys, radii=None):
            shift, noise = draw_rows(oracle, keys, radii)
            return Draws(shift, 2.0 * noise)
        monkeypatch.setattr("fedvi.harness.draw_rows", miscalibrated)
        failures = verify_problem(cfg)
        assert any(f.startswith("oracle variance") for f in failures)

    @pytest.mark.parametrize("model", ["gaussian-isotropic",
                                       "bounded-uniform"])
    def test_stacked_draws_equal_looped_draws_bitwise(self, model):
        """The oracle check's one 20,000-row query, drawn by draw_rows, is
        20,000 keyed point queries."""
        cfg = ExperimentConfig.from_dict(minimal_config(
            noise={"sigma": 0.5, "model": model}))
        oracle = OracleSpec(base=build_problem(cfg), noise_model=model,
                            sigma=0.5)
        stream, z, n = RngStream(0), np.zeros(oracle.dim), 20_000
        keys = [stream.at(0, i) for i in range(n)]
        stacked = sample_oracle(oracle, np.tile(z, (n, 1)),
                                draws=draw_rows(oracle, keys))
        looped = np.stack([sample_oracle(oracle, z, k) for k in keys])
        assert np.array_equal(stacked, looped)


_L1 = {"algorithm": {"id": "lda", "eta": 0.1},
       "regularizer": {"kind": "l1", "lam": 0.1}}


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
        assert "ci95=" in captured
        assert "predicted=" in captured

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
    def test_verify_passes_on_every_shipped_config(self, path, capsys):
        assert cli_main(["verify", str(path)]) == 0
        assert capsys.readouterr().out == "all property checks passed\n"

    def test_verify_fails_with_exit_code_3(self, monkeypatch, capsys):
        """A problem that declares half its L fails the smoothness check."""
        build = harness.build_problem

        def halved(cfg):
            op = build(cfg)
            return replace(op, L=0.5 * op.L)
        monkeypatch.setattr(harness, "build_problem", halved)
        assert cli_main(["verify", str(SHIPPED[0])]) == 3
        assert re.search(r"^FAIL smoothness: measured L \S+ exceeds "
                         r"declared 0\.5$", capsys.readouterr().out, re.M)

    def test_workers_flag_is_rejected(self, tmp_path, capsys):
        cfg_path = self._write(tmp_path, minimal_config())
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", cfg_path, "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_out_replaces_the_config_output(self, tmp_path, capsys):
        """--out is the config's output for this run: the CSV goes to it
        alone."""
        config_out, out = tmp_path / "config.csv", tmp_path / "flag.csv"
        cfg_path = self._write(tmp_path, minimal_config(
            output=str(config_out)))
        assert cli_main(["run", cfg_path, "--out", str(out)]) == 0
        assert out.read_text() == rows_to_csv(run_experiment(
            minimal_config()))
        assert not config_out.exists()
        assert capsys.readouterr().out.endswith(f"-> {out}\n")

    def test_seed_override(self, tmp_path):
        cfg_path = self._write(tmp_path, minimal_config(seeds=[0, 1, 2]))
        out = str(tmp_path / "s.csv")
        assert cli_main(["run", cfg_path, "--out", out,
                         "--seed-override", "5"]) == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 11  # header + one seed's 10 rounds

    def test_diverging_runs_warn_once_each_without_numpy(self, tmp_path):
        """Each diverging run names itself in one fedvi warning, under the
        default filter; numpy's overflow warnings stay quiet."""
        tree = minimal_config(log_every=4, seeds=[0, 1, 2])
        tree["algorithm"]["eta"] = 1e6
        tree["federation"]["R"] = 40
        cfg_path = self._write(tmp_path, tree)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            warnings.simplefilter("ignore", GapBallWarning)
            assert cli_main(["run", cfg_path, "--out",
                             str(tmp_path / "d.csv")]) == 0
        messages = [str(w.message) for w in caught]
        assert len(messages) == len(set(messages)) == 3
        for w in caught:
            assert w.category is DivergenceWarning
            assert re.fullmatch(r"lesgd run \(master_seed \d+, M=1, K=1, "
                                r"R=40\) diverged: iterate norm beyond "
                                r"1e\+06 from z0 at step 4", str(w.message))

    def test_rejected_run_leaves_no_output_behind(self, tmp_path):
        """A run rejected after the --out probe removes the file the probe
        made, and leaves a file that was there before as it was."""
        tree = minimal_config(problem={"kind": "bilinear-saddle", "dim": 2,
                                       "params": {"dx": 2}})
        cfg_path = self._write(tmp_path, tree)
        fresh = tmp_path / "fresh.csv"
        assert cli_main(["run", cfg_path, "--out", str(fresh)]) == 2
        assert not fresh.exists()
        old = tmp_path / "old.csv"
        old.write_bytes(b"algo,seed\r\nlesgd,0")
        assert cli_main(["run", cfg_path, "--out", str(old)]) == 2
        assert old.read_bytes() == b"algo,seed\r\nlesgd,0"

    def test_bad_config_exits_2(self, tmp_path):
        tree = minimal_config()
        tree["federation"]["M"] = 0
        assert cli_main(["run", self._write(tmp_path, tree)]) == 2

    @staticmethod
    def _matrix_file(tmp, text):
        path = tmp / "matrix.txt"
        path.write_text(text)
        return {"kind": "affine", "file": str(path)}

    @staticmethod
    def _file_lda(tmp, **regularizer):
        return {"problem": TestCli._matrix_file(tmp, "2\n1 0\n0 1\n0 0\n"),
                "algorithm": {"id": "lda", "eta": 0.1},
                "regularizer": dict({"kind": "box-indicator", "lo": -1.0,
                                     "hi": 1.0}, **regularizer)}

    @staticmethod
    def _nonlinear(tree, **algorithm):
        tree["problem"] = {"kind": "bounded-nonlinear", "dim": 3, "seed": 1}
        tree["algorithm"].update(algorithm)
        if "schedule" in algorithm:
            del tree["algorithm"]["eta"]  # the schedule sets eta

    @pytest.mark.parametrize("mutate,path", [
        (lambda t, tmp: t["gap"].update(method="auto"), "gap.method"),
        (lambda t, tmp: t["noise"].update(sigma="1"), "noise.sigma"),
        (lambda t, tmp: t["algorithm"].update(eta=-1), "algorithm.eta"),
        (lambda t, tmp: t.update(z0=[0, 0, 0]), "z0"),
        (lambda t, tmp: t.update(
            problem=TestCli._matrix_file(tmp, "2\n1 0\n0 1\n0 0\n"),
            z0=[0, 0, 0]), "z0"),
        (lambda t, tmp: t.update(
            problem=TestCli._matrix_file(tmp, "2\n1 0\n0 x\n0 0\n")),
         "problem.file"),
        (lambda t, tmp: t.update(
            problem={"kind": "affine", "file": str(tmp / "missing.txt")}),
         "problem.file"),
        (lambda t, tmp: t.update(problem={"kind": "affine", "file": None}),
         "problem.file"),
        (lambda t, tmp: t.update(
            problem=TestCli._matrix_file(tmp, "2\n1 0\n0 1\ninf 0\n")),
         "problem.file"),
        (lambda t, tmp: t["problem"]["params"].update(L=1e308), "problem"),
        (lambda t, tmp: t.update(
            problem=TestCli._matrix_file(tmp, "2\n1 0\n0 1\n0 0\n"),
            gap={"D": 1.0, "center": [0, 0, 0]}), "gap.center"),
        (lambda t, tmp: t.update(
            problem=TestCli._matrix_file(tmp, "2\n1 0\n0 1\n0 0\n"),
            gap={"D": 1.0, "center": [1e155, 0]}), "gap.center"),
        (lambda t, tmp: t.update(TestCli._file_lda(tmp, lo=[-1, -1, -1])),
         "regularizer.lo"),
        (lambda t, tmp: TestCli._nonlinear(t, id="slippax", schedule="T5")
         or t.update(noise={"sigma": 1e300, "model": "gaussian-isotropic"}),
         "algorithm.schedule"),
        (lambda t, tmp: t.update(
            algorithm={"id": "lippax", "schedule": "T1"},
            noise={"sigma": 1e300, "model": "gaussian-isotropic"}),
         "algorithm.schedule"),
        (lambda t, tmp: t.update(algorithm={"id": "lippax", "eta": 1e-300}),
         "algorithm.eta"),
        (lambda t, tmp: t.update(algorithm={"id": "lippax", "eta": 1e308})
         or t["problem"]["params"].update(L=10.0), "algorithm.eta"),
        (lambda t, tmp: t["algorithm"].update(schedule="T1"),
         "algorithm.eta"),
        (lambda t, tmp: t.update(algorithm={"id": "lippax", "schedule": "T3",
                                            "gamma": 0.05}),
         "algorithm.gamma"),
        (lambda t, tmp: t.update(algorithm={"id": "slippax", "schedule": "T5",
                                            "delta": 0.01}),
         "algorithm.delta"),
        (lambda t, tmp: t["noise"].update(sigma=0.5), "noise.model"),
        (lambda t, tmp: t.update(sweep={"sigma": [0, 1]}), "noise.model"),
        (lambda t, tmp: t.update(problem=dict(
            TestCli._matrix_file(tmp, "2\n1 0\n0 1\n0 0\n"),
            kind="bounded-nonlinear")), "problem.kind"),
        (lambda t, tmp: t.update(problem=dict(
            TestCli._matrix_file(tmp, "2\n1 0\n0 1\n0 0\n"), dim=5)),
         "problem.dim"),
        (lambda t, tmp: t.update(problem=dict(
            TestCli._matrix_file(tmp, "2\n1 0\n0 1\n0 0\n"),
            params={"L": 2.0})), "problem.params"),
        (lambda t, tmp: t["algorithm"].update(H=3), "algorithm.H"),
        (lambda t, tmp: t["algorithm"].update(gamma=0.5), "algorithm.gamma"),
        (lambda t, tmp: t["algorithm"].update(delta=0.3), "algorithm.delta"),
        (lambda t, tmp: t.update(regularizer={"kind": "l1", "lam": 5.0}),
         "regularizer"),
        (lambda t, tmp: t["problem"].update(hetero={"offset_scale": 9.0}),
         "problem.hetero"),
        (lambda t, tmp: t.update(problem={
            "kind": "bounded-nonlinear", "dim": 3,
            "params": {"n_terms": 1.5}}), "problem"),
        (lambda t, tmp: t.update(problem={
            "kind": "bilinear-saddle", "dim": 4, "params": {"dx": True}}),
         "problem"),
        (lambda t, tmp: t.update(algorithm={
            "id": "lesgd", "schedule": "T1", "delta_rule": "fourth-root-d"}),
         "algorithm.delta_rule"),
        (lambda t, tmp: t["algorithm"].update(delta_rule="fourth-root-d"),
         "algorithm.delta_rule"),
        (lambda t, tmp: t.update(algorithm={
            "id": "lippax", "schedule": "T5", "delta_rule": "fourth-root-d"}),
         "algorithm.delta_rule"),
        (lambda t, tmp: t.update(gap={"D": 10 ** 400}), "gap.D"),
        # a mutator that returns CLI arguments replaces the config path
        (lambda t, tmp: [str(tmp / "nope.json")], "<file>"),
        (lambda t, tmp: [str(tmp / "config.json"), "--seed-override", "-1"],
         "--seed-override"),
        (lambda t, tmp: [str(tmp / "config.json"),
                         "--out", str(tmp / "missing" / "x.csv")], "output"),
        (lambda t, tmp: t.update(output=str(tmp / "missing" / "x.csv")),
         "output"),
    ] + [(lambda t, tmp, p=p: p[1](t), p[2]) for p in PROBES] + [
        (lambda t, tmp, c=c: t.update(problem=dict(
            kind=c[1], dim=c[2], params=c[3])), "problem")
        for c in BAD_PROBLEM_PARAMS],
        ids=["gap-method", "sigma-string", "eta-negative", "z0-length",
             "file-z0-length", "file-malformed", "file-missing",
             "file-not-a-path", "file-b-inf", "affine-L-1e308",
             "file-center-length", "file-center-far", "file-box-lo-length",
             "schedule-overflow", "schedule-gamma-overflow",
             "eta-gamma-overflow", "eta-gamma-underflow",
             "schedule-with-eta", "schedule-with-gamma",
             "schedule-with-delta", "model-none-sigma",
             "model-none-sweep-sigma", "file-kind", "file-dim", "file-params",
             "lesgd-H", "lesgd-gamma", "lesgd-delta", "lesgd-regularizer",
             "lesgd-hetero-block", "n-terms-float", "dx-bool",
             "lesgd-t1-delta-rule", "lesgd-eta-delta-rule",
             "lippax-t5-delta-rule", "D-beyond-float",
             "config-missing", "seed-override-negative",
             "out-missing-dir", "output-missing-dir"]
        + [p[0] for p in PROBES] + [c[0] for c in BAD_PROBLEM_PARAMS])
    def test_malformed_fields_exit_2(self, tmp_path, mutate, path, capsys):
        tree = minimal_config()
        args = mutate(tree, tmp_path)
        config = self._write(tmp_path, tree)
        assert cli_main(["run", *(args or [config])]) == 2
        assert f"config rejected: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("kind,dim,params,message",
                             [c[1:] for c in BAD_PROBLEM_PARAMS],
                             ids=[c[0] for c in BAD_PROBLEM_PARAMS])
    def test_bad_problem_param_is_named(self, tmp_path, capsys, kind, dim,
                                        params, message):
        """The param is rejected by name before numpy sees it."""
        tree = minimal_config(problem={"kind": kind, "dim": dim,
                                       "params": params})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["run", self._write(tmp_path, tree)]) == 2
        assert f"config rejected: problem: {message}" in \
            capsys.readouterr().err
        assert not caught

    @pytest.mark.parametrize("problem,algorithm,M,code,rejected", [
        ({"kind": "affine", "params": {"b_scale": 1e308}}, None, 1, 2,
         "problem: an operator entry is not finite with b_scale=1e+308"),
        ({"kind": "quadratic-gradient", "params": {"eig_range": [0, 1e308]}},
         None, 1, 2, "problem: an operator entry is not finite with "
         "eig_range=[0, 1e+308]"),
        ({"kind": "bounded-nonlinear", "params": {"bias_scale": 1e308}},
         None, 1, 2, "problem: an operator entry is not finite with "
         "bias_scale=1e+308"),
        # a finite operator whose declared Lambda overflows keeps inf: it
        # runs, and the schedule that reads Lambda rejects it
        ({"kind": "bounded-nonlinear", "params": {"L": 1e308}},
         {"id": "lesgd", "eta": 1e-300}, 1, 0, None),
        ({"kind": "bounded-nonlinear", "params": {"L": 1e308}},
         {"id": "lesgd", "schedule": "T4"}, 1, 2,
         "algorithm.schedule: no step size for this run: T4 requires a "
         "finite Lambda"),
        ({"kind": "affine", "hetero": {"offset_scale": 1e308}},
         {"id": "lesgd-hetero", "schedule": "T8"}, 3, 2,
         "problem.hetero.offset_scale: 1e+308 leaves a client offset "
         "that is not finite"),
        # finite offsets whose norm overflows: xi is inf
        ({"kind": "affine", "hetero": {"offset_scale": 1e308}},
         {"id": "lesgd-hetero", "schedule": "T8"}, 2, 2,
         "algorithm.schedule: no step size for this run: T8 requires a "
         "finite xi"),
    ], ids=["affine-b-scale", "quadratic-eig-range", "nonlinear-bias-scale",
            "nonlinear-L-eta", "nonlinear-L-T4", "hetero-offsets",
            "hetero-xi"])
    def test_float_range_params_warn_nothing(self, tmp_path, capsys,
                                             problem, algorithm, M, code,
                                             rejected):
        """A param near the float maximum is rejected at its field, or
        kept as an inf bound, and numpy warns nothing on the way."""
        tree = minimal_config(problem=dict(problem, dim=2, seed=3),
                              federation={"M": M, "K": 1, "R": 10})
        if algorithm is not None:
            tree["algorithm"] = algorithm
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if "hetero" in problem:  # their gap balls miss the solution
                warnings.simplefilter("ignore", GapBallWarning)
            assert cli_main(["run", self._write(tmp_path, tree)]) == code
        assert capsys.readouterr().err == (
            "" if rejected is None else f"config rejected: {rejected}\n")

    @pytest.mark.parametrize("command,kind,changes,rejected", [
        ("run", "affine", dict(_L1, gap={"D": 1e154}), "gap.D: must be a "
         "positive number at most 1e+150"),
        ("run", "bounded-nonlinear", dict(_L1, gap={"D": 1e155}),
         "gap.D: must be a positive number at most 1e+150"),
        ("run", "affine", {"gap": {"center": [1e155, 0.0]}},
         "gap.center: must lie within 1e+150 of z0"),
        ("verify", "affine", {"gap": {"D": 1e160}}, "gap.D: must be a "
         "positive number at most 1e+150"),
    ], ids=["lda-affine-D", "lda-nonlinear-D", "lesgd-center", "verify-D"])
    def test_gap_ball_beyond_float_range_is_rejected(
            self, tmp_path, capsys, command, kind, changes, rejected):
        """Squared distances overflow above about 1e154: such a ball
        gave nan or -inf gaps on rows marked ok, and numpy warnings."""
        tree = minimal_config(**changes)
        tree["problem"] = {"kind": kind, "dim": 2, "seed": 3}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main([command, self._write(tmp_path, tree)]) == 2
        assert capsys.readouterr().err == f"config rejected: {rejected}\n"

    @pytest.mark.parametrize("kind", ["affine", "bounded-nonlinear"])
    @pytest.mark.parametrize("changes", [{}, _L1], ids=["lesgd", "lda-l1"])
    def test_gap_ball_at_the_bound_gives_finite_gaps(self, changes, kind):
        tree = minimal_config(gap={"D": MAX_GAP_RADIUS,
                                   "center": [MAX_GAP_RADIUS, 0.0]},
                              **changes)
        tree["problem"] = {"kind": kind, "dim": 2, "seed": 3}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = run_experiment(tree)
        assert all(r.status == "ok" and math.isfinite(r.gap_value)
                   for r in rows)

    def test_verify_missing_config_exits_2(self, tmp_path, capsys):
        assert cli_main(["verify", str(tmp_path / "nope.json")]) == 2
        assert "config rejected: <file>: " in capsys.readouterr().err

    def test_fit_missing_csv_exits_2(self, tmp_path, capsys):
        assert cli_main(["fit", str(tmp_path / "nope.csv"), "--x", "R"]) == 2
        assert "fit failed: " in capsys.readouterr().err

    @pytest.mark.parametrize("text,group", [
        ("", "()"),
        ("algo,sigma,R,round,gap_value\nlesgd,0,40,20,0.1\n", "()"),
        ("algo,sigma,eta,K,R,round,gap_value,seed\n"
         + "".join(f"lesgd,0,0.1,1,{R},{R},{1 / R},0\n"
                   for R in (5, 10, 20, 40))
         + "".join(f"lippax,0,0.1,1,{R},{R},,0\n" for R in (5, 10, 20)),
         "('lippax',)")], ids=["empty", "no-final-round", "all-excluded"])
    def test_fit_with_no_usable_group_exits_2(self, tmp_path, capsys, text,
                                              group):
        path = tmp_path / "rows.csv"
        path.write_text(text)
        assert cli_main(["fit", str(path), "--x", "R", "--group",
                         "algo" if group != "()" else ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"fit failed: group {group}: need >= "
                                       f"4 distinct R values, got 0 (")

    @pytest.mark.parametrize("column,args", [
        ("gap_value", ["--x", "R"]), ("round", ["--x", "R"]),
        ("R", ["--x", "R"]), ("sigma", ["--x", "sigma"]),
        ("algo", ["--x", "R", "--group", "algo"]), ("eta", ["--x", "R"]),
        ("K", ["--x", "R"]), ("seed", ["--x", "R"]), ("M", ["--x", "M"]),
        ("K", ["--x", "K"])])
    def test_fit_missing_column_exits_2(self, tmp_path, capsys, column,
                                        args):
        """Each sweep axis is a --x choice, and a CSV without the
        column fit reads is rejected by name."""
        header = ["algo", "sigma", "eta", "K", "R", "round", "gap_value",
                  "seed"]
        lines = [",".join(c for c in header if c != column)]
        for R in (50, 100, 200, 400):
            cells = {"algo": "lesgd", "sigma": str(R / 100), "eta": "0.1",
                     "K": "1", "R": str(R), "round": str(R),
                     "gap_value": str(1 / R), "seed": "0"}
            lines.append(",".join(cells[c] for c in header if c != column))
        path = tmp_path / "rows.csv"
        path.write_text("\n".join(lines) + "\n")
        assert cli_main(["fit", str(path), *args]) == 2
        assert f"fit failed: rows have no {column!r} column" in \
            capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli_main(["run", str(path)]) == 2

    @pytest.mark.parametrize("L", [1, 1e3])
    @pytest.mark.parametrize("D", [1000, 1e6, 1e150])
    def test_verify_skew_problem_on_a_large_ball_exits_0(self, tmp_path,
                                                         capsys, D, L):
        """The monotonicity check scales its tolerance with the ball, so
        a bilinear saddle's rounding noise is no violation, and each pair
        is measured in its own units, so no square overflows."""
        tree = minimal_config(gap={"D": D})
        tree["problem"] = {"kind": "bilinear-saddle", "dim": 3, "seed": 1,
                           "params": {"L": L}}
        path = self._write(tmp_path, tree)
        with np.errstate(over="raise"):
            assert cli_main(["verify", path]) == 0
        assert "all property checks passed" in capsys.readouterr().out

    def test_verify_ok_exits_0(self, tmp_path, capsys):
        cfg_path = self._write(tmp_path, minimal_config())
        assert cli_main(["verify", cfg_path]) == 0
        assert "passed" in capsys.readouterr().out
