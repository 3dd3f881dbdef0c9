import json
import math
import os

import numpy as np
import pytest

from windlab.errors import ConfigError, HypothesisError
from windlab.gauss import QuadrantCorr
from windlab.harness import (ExperimentConfig, lattice_ks, report_to_csv,
                             report_to_json, run_clt, run_expectation,
                             run_lemma_check, run_smoothing, run_variance,
                             simulate_windings, write_report)

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
IID_BF = {"x": {"family": "bargmann_fock"}, "cross": "iid"}
TWO_ALPHA = {"x1": {"family": "alpha", "alpha": 1.2},
             "x2": {"family": "alpha", "alpha": 1.2}, "cross": "independent"}


def small_cfg(**kw):
    base = dict(model=IID_BF, kind="expectation", backend="circulant",
                t_ladder=[20.0], dt=0.02, replications=60, seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_roundtrip_identity(self):
        cfg = small_cfg(epsilon_ladder=[0.4, 0.2], workers=2)
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_validation(self):
        with pytest.raises(ConfigError):
            small_cfg(kind="nonsense")
        with pytest.raises(ConfigError):
            small_cfg(replications=0)
        with pytest.raises(ConfigError):
            small_cfg(t_ladder=[50.0, 25.0])
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json('{"model": {}, "bogus_key": 1}')
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json("not json")


class TestDeterminism:
    def test_reports_byte_identical(self):
        a = report_to_json(run_variance(small_cfg(kind="variance")))
        b = report_to_json(run_variance(small_cfg(kind="variance")))
        assert a == b

    def test_parallel_equals_serial(self):
        from windlab.covmodel import model_from_spec
        model = model_from_spec(IID_BF)
        s1 = simulate_windings(model, 20.0, 0.02, "circulant", 5, 300, workers=1)
        s3 = simulate_windings(model, 20.0, 0.02, "circulant", 5, 300, workers=3)
        assert np.array_equal(s1["n_w"], s3["n_w"], equal_nan=True)

    def test_all_backends_simulate(self):
        from windlab.covmodel import model_from_spec
        model = model_from_spec(IID_BF)
        for backend in ("circulant", "spectral", "cholesky"):
            sim = simulate_windings(model, 10.0, 0.05, backend, 5, 40,
                                    n_freq=512)
            assert sim["accepted"].sum() == 40

    def test_write_report_stable_bytes(self, tmp_path):
        rep = run_expectation(small_cfg())
        p1 = write_report(rep, tmp_path / "a")
        p2 = write_report(rep, tmp_path / "b")
        assert open(p1, "rb").read() == open(p2, "rb").read()
        meta = json.load(open(tmp_path / "a" / "report.meta.json"))
        assert "written_at_unix" in meta  # timestamps live outside the report


class TestSamplerDiagnostics:
    def test_rows_record_circulant_embedding(self):
        # T = 20, dt = 0.02: n = 1001 points, embedding length 2(n - 1)
        for run, kind, key in ((run_expectation, "expectation", "rows"),
                               (run_variance, "variance", "rows"),
                               (run_clt, "clt", "per_t")):
            row = run(small_cfg(kind=kind, replications=20))["result"][key][0]
            assert (row["embedding_length"], row["pad"]) == (2000, 1)
            assert 0.0 <= row["clipped_mass"] <= 1e-12

    def test_rows_record_other_backends(self):
        rep = run_expectation(small_cfg(backend="cholesky", t_ladder=[5.0],
                                        dt=0.05, replications=10))
        assert rep["result"]["rows"][0]["jitter"] in (0.0, 1e-12)
        rep = run_expectation(small_cfg(backend="spectral", t_ladder=[5.0],
                                        dt=0.05, replications=10, n_freq=512))
        row = rep["result"]["rows"][0]
        assert row["n_freq"] == 512 and row["covariance_truncation"] < 0.05


class TestExpectationRun:
    def test_passes_on_centered_model(self):
        rep = run_expectation(small_cfg(replications=200))
        row = rep["result"]["rows"][0]
        assert row["theory_mean"] == 0.0
        assert rep["pass"]

    def test_single_replication_has_no_se(self):
        rep = run_expectation(small_cfg(replications=1))
        row = rep["result"]["rows"][0]
        assert row["mc_se"] is None and row["pass"] is None
        assert "M = 1" in row["note"]


class TestVarianceRun:
    def test_report_fields(self):
        rep = run_variance(small_cfg(kind="variance", replications=300))
        row = rep["result"]["rows"][0]
        for key in ("var_rate", "ci99_lo", "ci99_hi", "v_T_general", "reference"):
            assert key in row
        assert rep["result"]["independent"]
        assert row["ci99_lo"] < row["reference"] < row["ci99_hi"]

    def test_csv_mirror(self):
        rep = run_variance(small_cfg(kind="variance", replications=120))
        csv = report_to_csv(rep)
        assert csv.splitlines()[0].startswith("T,")
        assert len(csv.splitlines()) == 2

    def test_general_model_uses_finite_horizon_reference(self):
        cfg = small_cfg(kind="variance",
                        model={"x2": {"family": "bargmann_fock"},
                               "cross": {"type": "regression", "rho1": 0.3,
                                         "rz": {"family": "bargmann_fock"}}},
                        t_ladder=[50.0], replications=300, seed=6)
        rep = run_variance(cfg)
        row = rep["result"]["rows"][0]
        assert not rep["result"]["independent"]
        assert row["reference"] == row["v_T_general"]
        assert row["ci99_lo"] <= row["reference"] <= row["ci99_hi"]

    def test_multi_horizon_report_serializes(self):
        # V_T is a numpy float: comparing its errors must not leave numpy
        # scalars in the report
        cfg = small_cfg(kind="variance",
                        model={"x2": {"family": "bargmann_fock"},
                               "cross": {"type": "regression", "rho1": 0.3,
                                         "rz": {"family": "bargmann_fock"}}},
                        t_ladder=[10.0, 20.0])
        rep = run_variance(cfg)
        assert json.loads(report_to_json(rep))["result"]["trend_steps"] == 1

    def test_independent_model_uses_finite_horizon_reference(self):
        # the shipped iid config's T = 25 row: its CI excludes V_inf but
        # covers the V_T(25) that a 25-window sample estimates
        cfg = ExperimentConfig.from_file(
            os.path.join(CONFIGS, "iid_bargmann_fock_variance.json"))
        cfg.t_ladder = [25.0]
        rep = run_variance(cfg)
        row = rep["result"]["rows"][0]
        assert rep["result"]["independent"]
        assert row["reference"] == row["v_T_general"]
        assert not row["ci99_lo"] <= rep["result"]["v_inf"] <= row["ci99_hi"]
        assert row["pass"] and rep["pass"]


class TestCltRun:
    def test_small_horizon_flagged_without_criterion(self):
        rep = run_clt(small_cfg(kind="clt", t_ladder=[5.0], replications=120))
        row = rep["result"]["per_t"][0]
        assert row["small_t_regime"]
        assert rep["pass"]  # the pre-asymptotic row carries no criterion
        assert len(row["standardized_sample"]) == row["sample_size"]

    def test_lattice_ks_matches_counts(self):
        rep = run_clt(small_cfg(kind="clt", t_ladder=[30.0], replications=250))
        row = rep["result"]["per_t"][0]
        assert 0.0 <= row["ks_distance"] <= 1.0
        assert row["v_inf_used"] == pytest.approx(0.058643621347644, abs=1e-9)

    def test_lattice_ks_statistic(self):
        # exact normal integers: distance small; shifted: distance large
        rng = np.random.default_rng(0)
        z = np.round(rng.normal(0.0, 6.0, size=4000))
        d0, p0 = lattice_ks(z, 0.0, 6.0)
        d1, p1 = lattice_ks(z, 3.0, 6.0)
        assert d0 < 0.03 and p0 > 0.05
        assert d1 > 0.15 and p1 < 1e-6


class TestLemmaCheck:
    def _cfg(self):
        return small_cfg(kind="lemma_check", lemma_random_sets=40,
                         lemma_spot_cases=2, lemma_mc_samples=400_000)

    def test_default_all_pass(self):
        rep = run_lemma_check(self._cfg())
        checks = rep["result"]["checks"]
        assert rep["pass"]
        assert checks["closed_vs_series"]["pass"]
        assert checks["closed_vs_mc"]["pass"]
        assert checks["conditional_cov_vs_schur"]["pass"]

    def test_mutation_detected(self):
        # flipping the sign of the rho14*rho23 contribution must break the
        # oracle agreement
        def wrong(c: QuadrantCorr):
            s = math.sqrt(1.0 - c.rho34 ** 2)
            direct = c.rho13 * c.rho24 - c.rho14 * c.rho23  # wrong sign
            exch = c.rho13 * c.rho23 + c.rho14 * c.rho24
            return (c.rho12 / 4.0 + c.rho12 * math.asin(c.rho34) / (2 * math.pi)
                    + (direct - c.rho34 * exch) / (2 * math.pi * s))

        rep = run_lemma_check(self._cfg(), closed_form_override=wrong)
        assert not rep["pass"]
        assert not rep["result"]["checks"]["closed_vs_series"]["pass"]
        assert not rep["result"]["checks"]["closed_vs_mc"]["pass"]

    def test_zero_se_fails_unless_exact(self):
        # two draws, both outside the quadrant: mc = 0 with se = 0, which
        # must not read as agreement with a nonzero closed form
        cfg = small_cfg(kind="lemma_check", seed=1, lemma_mc_samples=2,
                        lemma_spot_cases=1, lemma_random_sets=0)
        mc = run_lemma_check(cfg)["result"]["checks"]["closed_vs_mc"]
        row = mc["rows"][0]
        assert row["mc_se"] == 0.0 and row["closed"] != row["mc"]
        assert row["z"] == math.inf
        assert not mc["pass"]
        exact = run_lemma_check(cfg, closed_form_override=lambda c: 0.0)
        assert exact["result"]["checks"]["closed_vs_mc"]["rows"][0]["z"] == 0.0

    def test_series_gate_holds_on_a_far_tail_seed(self):
        # seed whose 500 random sets include one where the order-80 series
        # remainder (1.2e-10) exceeded the 1e-10 gate
        cfg = small_cfg(kind="lemma_check", seed=1474850610,
                        lemma_random_sets=500, lemma_spot_cases=1,
                        lemma_mc_samples=1000)
        series = run_lemma_check(cfg)["result"]["checks"]["closed_vs_series"]
        assert series["pass"] and series["max_abs_diff"] < 1e-10

    def test_correlation_file_rows(self, tmp_path):
        f = tmp_path / "corr.csv"
        rows = ["0.5,0,0,0,0,0",          # independent pair
                "0.0,0.2,0.0,0.0,0.1,0.3",
                "0.9,0.9,0.0,0.0,0.0,-0.9"]  # not PSD
        f.write_text("\n".join(rows) + "\n")
        cfg = self._cfg()
        cfg.correlations_file = str(f)
        rep = run_lemma_check(cfg)
        file_rows = rep["result"]["checks"]["file_rows"]
        assert file_rows[0]["pass"] and file_rows[1]["pass"]
        assert not file_rows[2]["pass"] and "error" in file_rows[2]

    @pytest.mark.parametrize("text", [
        "0.5,0,0,0,0\n", "0.5,0,0,0,0,0,0.1\n", "0.5,0,0,0,0,0\n0.5,0,0\n",
        "rho12,rho13,rho14,rho23,rho24,rho34\n", "", "# a comment only\n"],
        ids=["five-columns", "seven-columns", "ragged", "not-numbers", "empty",
             "comment-only"])
    def test_bad_correlation_file_exits_2(self, tmp_path, capsys, text):
        from windlab import cli
        f = tmp_path / "corr.csv"
        f.write_text(text)
        cfg = self._cfg()
        cfg.correlations_file = str(f)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(cfg.to_json())
        assert cli.main(["check", "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: correlations_file") and str(f) in err
        assert "Traceback" not in err


class TestSmoothingRun:
    def test_requires_rough_model(self):
        with pytest.raises(ConfigError):
            run_smoothing(small_cfg(kind="smoothing", epsilon_ladder=[0.4, 0.2]))

    def test_hypothesis_error_before_simulation(self):
        cfg = small_cfg(model={"x1": {"family": "alpha", "alpha": 1.0},
                               "x2": {"family": "alpha", "alpha": 1.0},
                               "cross": "independent"},
                        kind="smoothing", epsilon_ladder=[0.4, 0.2])
        with pytest.raises(HypothesisError):
            run_smoothing(cfg)

    def test_ladder_of_one_not_assessable(self):
        cfg = small_cfg(model=TWO_ALPHA, kind="smoothing",
                        epsilon_ladder=[0.3], t_ladder=[15.0],
                        replications=25)
        rep = run_smoothing(cfg)
        assert rep["result"]["stabilization_rate"] is None
        assert "not assessable" in rep["result"]["stabilization_note"]

    def test_workers_do_not_change_report(self):
        cfg = small_cfg(model=TWO_ALPHA, kind="smoothing",
                        epsilon_ladder=[0.4, 0.2], t_ladder=[15.0],
                        replications=250)
        serial = report_to_json(run_smoothing(cfg)["result"])
        cfg.workers = 2
        assert report_to_json(run_smoothing(cfg)["result"]) == serial

    def test_small_run_reports_rows(self):
        cfg = small_cfg(model=TWO_ALPHA, kind="smoothing",
                        epsilon_ladder=[0.4, 0.2], t_ladder=[15.0],
                        replications=40)
        rep = run_smoothing(cfg)
        assert len(rep["result"]["rows"]) == 2
        assert rep["result"]["bound"]["bound_v_inf"] > 0


class TestPathExport:
    def test_exported_paths_describe_themselves(self, tmp_path):
        from windlab.covmodel import model_from_spec
        from windlab.pathgen import CirculantSampler, GridSpec, load_path_csv
        cfg = small_cfg(t_ladder=[10.0, 20.0], replications=5, export_paths=2,
                        out_dir=str(tmp_path))
        run_expectation(cfg)
        names = sorted(p.name for p in (tmp_path / "paths").iterdir())
        assert names == ["path_T10_00000.csv", "path_T10_00001.csv",
                         "path_T20_00000.csv", "path_T20_00001.csv"]
        sampler = CirculantSampler(model_from_spec(IID_BF),
                                   GridSpec.from_dt(20.0, cfg.dt))
        for s in (0, 1):
            path = load_path_csv(str(tmp_path / "paths" / f"path_T20_{s:05d}.csv"))
            assert path.meta["embedding_length"] == sampler.L
            assert path.meta["model"] == sampler.sample(cfg.seed, s).meta["model"]
            ref = sampler.sample(cfg.seed, s)
            assert np.array_equal(path.x1, ref.x1)
            assert np.array_equal(path.x2, ref.x2)


class TestCli:
    def test_exit_codes(self, tmp_path, monkeypatch):
        from windlab import cli
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(small_cfg(replications=80).to_json())
        rc = cli.main(["simulate", "--config", str(cfg_file),
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "simulate.json").exists()
        assert (tmp_path / "out" / "simulate.meta.json").exists()

        rc = cli.main(["simulate", "--config", str(tmp_path / "missing.json")])
        assert rc == 2

        bad = tmp_path / "bad.json"
        bad.write_text('{"model": {}, "replications": 0}')
        assert cli.main(["simulate", "--config", str(bad)]) == 2

        monkeypatch.setattr(cli, "run_variance", lambda cfg: {"pass": False})
        assert cli.main(["variance", "--config", str(cfg_file)]) == 1

        # model-hypothesis failures surface as configuration errors (exit 2)
        bad_smooth = tmp_path / "bad_smooth.json"
        bad_smooth.write_text(json.dumps({
            "model": {"x1": {"family": "alpha", "alpha": 1.0},
                      "x2": {"family": "alpha", "alpha": 1.0},
                      "cross": "independent"},
            "t_ladder": [10.0], "dt": 0.01, "replications": 5, "seed": 1,
            "epsilon_ladder": [0.2, 0.1]}))
        assert cli.main(["smooth", "--config", str(bad_smooth)]) == 2

        # malformed model specs and field types: a message, not a traceback
        for bad_cfg in (
                {"model": {"x2": {"family": "ou"}, "cross": "independent"}},
                {"model": {"x": {"family": "alpha"}, "cross": "iid"}},
                {"model": IID_BF, "dt": "0.01"}):
            f = tmp_path / "bad_cfg.json"
            f.write_text(json.dumps(bad_cfg))
            assert cli.main(["simulate", "--config", str(f)]) == 2

    @pytest.mark.parametrize("command, fields, flags, message", [
        ("smooth", {"model": TWO_ALPHA, "epsilon_ladder": 0.4}, [], "epsilon_ladder"),
        ("smooth", {"model": TWO_ALPHA, "epsilon_ladder": [0.4, "x"]}, [],
         "epsilon_ladder"),
        ("smooth", {"model": TWO_ALPHA, "epsilon_ladder": []}, [], "epsilon_ladder"),
        ("smooth", {"model": TWO_ALPHA, "epsilon_ladder": [0.1, 0.2]}, [],
         "decreasing"),
        ("smooth", {"model": TWO_ALPHA, "epsilon_ladder": [0.4, -0.1]}, [],
         "positive"),
        ("check", {"lemma_mc_samples": 0}, [], "lemma_mc_samples"),
        ("simulate", {"workers": 0}, [], "workers"),
        ("simulate", {"workers": -5}, [], "workers"),
        ("simulate", {}, ["--workers", "0"], "workers"),
        ("simulate", {}, ["--workers", "3"], "CPU count"),
        ("check", {"lemma_spot_cases": -1}, [], "lemma_spot_cases"),
        ("simulate", {"export_paths": -1}, [], "export_paths"),
        ("moments", {"backend": "foo"}, [], "backend"),
        ("simulate", {"t_ladder": [-5]}, [], "positive"),
        ("simulate", {"n_freq": 100}, [], "n_freq"),
        ("check", {}, ["--seed", "-1"], "seed"),
        ("simulate", {"model": "not json"}, [], "model spec"),
        ("simulate", {"out_dir": 5}, [], "out_dir"),
        ("check", {"correlations_file": 5}, [], "correlations_file"),
        ("simulate", {"backend": "spectral", "n_freq": 256, "t_ladder": [120.0],
                      "dt": 0.05}, [], "half-period"),
        ("simulate", {"backend": "spectral",
                      "model": {"x1": {"family": "ou"}, "x2": {"family": "bargmann_fock"},
                                "cross": "independent"}}, [], "f1 mass"),
        # the kernel spans more steps than the default T = 5 grid has
        ("smooth", {"model": TWO_ALPHA, "epsilon_ladder": [8.0, 0.5]}, [],
         "epsilon"),
    ])
    def test_bad_config_exits_2(self, tmp_path, monkeypatch, capsys,
                                command, fields, flags, message):
        from windlab import cli, harness

        def no_threads(*args, **kwargs):
            raise AssertionError("a rejected config started a worker pool")

        def no_bound(*args, **kwargs):
            raise AssertionError("a rejected config computed the two-alpha bound")

        # two CPUs, whatever the machine: the worker bound is checked
        # without starting a thread
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(harness, "ThreadPoolExecutor", no_threads)
        monkeypatch.setattr(harness, "variance_bound_two_alpha", no_bound)
        cfg = {"model": IID_BF, "t_ladder": [5.0], "dt": 0.05,
               "replications": 10, **fields}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main([command, "--config", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_seed_and_format_overrides(self, tmp_path, capsys):
        from windlab import cli
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(small_cfg(replications=50, kind="variance").to_json())
        rc = cli.main(["variance", "--config", str(cfg_file), "--seed", "9",
                       "--out", str(tmp_path / "o2"), "--format", "csv"])
        assert rc in (0, 1)
        text = (tmp_path / "o2" / "variance.csv").read_text()
        assert text.startswith("T,")

    def test_moments_subcommand(self, tmp_path, capsys):
        from windlab import cli
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(small_cfg().to_json())
        rc = cli.main(["moments", "--config", str(cfg_file)])
        assert rc == 0
        out = capsys.readouterr().out
        body = json.loads(out)
        assert body["result"]["model_class"] == "IID"
        assert body["result"]["independent"]["V_inf"] == pytest.approx(
            0.058643621347644, abs=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_moments_near_unit_rho1_writes_finite_coefficients(self, tmp_path):
        from windlab import cli
        model = {"x2": {"family": "bargmann_fock"},
                 "cross": {"type": "regression", "rho1": 0.99,
                           "rz": {"family": "bargmann_fock"}}}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"model": model, "t_ladder": [5.0],
                                        "dt": 0.05, "replications": 10}))
        rc = cli.main(["moments", "--config", str(cfg_file),
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        text = (tmp_path / "out" / "chaos_coefficients.csv").read_text()
        assert text.count("\nd,") == 45 and "nan" not in text
