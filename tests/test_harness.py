import csv
import json
import math
import os

import numpy as np
import pytest

from windlab import harness
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
        for backend in ("circulant", "cholesky"):
            sim = simulate_windings(model, 10.0, 0.05, backend, 5, 40)
            assert np.count_nonzero(~np.isnan(sim["n_w"])) == 40

    def test_write_report_stable_bytes(self, tmp_path):
        rep = run_expectation(small_cfg())
        p1 = write_report(rep, tmp_path / "a")
        p2 = write_report(rep, tmp_path / "b")
        assert open(p1, "rb").read() == open(p2, "rb").read()
        meta = json.load(open(tmp_path / "a" / "report.meta.json"))
        assert "written_at_unix" in meta  # timestamps live outside the report

    @pytest.mark.parametrize("kind", ["moments", "lemma_check"])
    def test_csv_of_a_report_without_a_table_writes_nothing(self, tmp_path, kind):
        from windlab.errors import ParameterError
        rep = harness._report(kind, small_cfg(), {"cases": {}}, True)
        with pytest.raises(ParameterError, match="no table"):
            write_report(rep, tmp_path, name=kind, fmt="csv")
        assert list(tmp_path.iterdir()) == []


class TestHorizonLadder:
    """One sampler on the longest horizon; each horizon counts a prefix."""

    @pytest.mark.parametrize("backend, ladder, dt", [
        ("circulant", [5.0, 12.5, 20.0], 0.02),
        ("cholesky", [2.0, 5.5, 10.0], 0.05),
    ])
    def test_columns_count_the_prefixes(self, backend, ladder, dt):
        from windlab.covmodel import model_from_spec
        from windlab.errors import AliasingError
        from windlab.pathgen import GridSpec
        from windlab.winding import count_windings_arrays
        model = model_from_spec(IID_BF)
        sim = simulate_windings(model, ladder, dt, backend, 5, 40)
        sampler = harness._SAMPLERS[backend](model, GridSpec.from_dt(ladder[-1], dt))
        paths = sampler.sample_batch(5, range(40))
        assert sim["n_w"].shape == (40, 3)
        for j, T in enumerate(ladder):
            n = GridSpec.from_dt(T, dt).n
            want = []
            for x1, x2 in paths:
                try:
                    want.append(count_windings_arrays(x1[:n], x2[:n]).n_w)
                except AliasingError:
                    want.append(np.nan)
            assert np.array_equal(sim["n_w"][:, j], want, equal_nan=True)
            vals, n_rejected = harness._column(sim["n_w"], j)
            assert np.array_equal(vals, [v for v in want if not np.isnan(v)])
            assert n_rejected == np.count_nonzero(np.isnan(want))

    def test_last_column_is_the_single_horizon_run(self):
        from windlab.covmodel import model_from_spec
        model = model_from_spec(IID_BF)
        ladder = simulate_windings(model, [5.0, 10.0, 20.0], 0.02, "circulant", 5, 60)
        single = simulate_windings(model, 20.0, 0.02, "circulant", 5, 60)
        assert single["n_w"].shape == (60, 1)
        assert set(single) == {"n_w", "sampler"}
        assert np.array_equal(ladder["n_w"][:, -1:], single["n_w"], equal_nan=True)
        assert ladder["sampler"].diagnostics == single["sampler"].diagnostics

    def test_each_prefix_has_its_own_zero_threshold(self, monkeypatch):
        # x2 dips to -1e-14 inside the first horizon, where max|x2| = 1
        # zeroes only |x2| <= 8 eps; the later -1000 would zero the dip
        # too (8 eps * 1000 > 1e-14) and erase the down-crossing
        from windlab.pathgen import GridSpec
        from windlab.winding import count_windings_arrays
        x1 = np.ones(5)
        x2 = np.array([1.0, 1.0, -1e-14, 1.0, -1000.0])

        class FixedPath:
            def __init__(self, model, grid):
                self.grid, self.diagnostics = grid, {}

            def sample_batch(self, seed, streams):
                return np.array([(x1, x2)] * len(streams))

        monkeypatch.setitem(harness._SAMPLERS, "fixed", FixedPath)
        sim = simulate_windings(None, [2.0, 4.0], 1.0, "fixed", 0, 1)
        assert GridSpec.from_dt(2.0, 1.0).n == 3
        assert sim["n_w"][0, 0] == count_windings_arrays(x1[:3], x2[:3]).n_w == -1
        zeroed = np.where(np.abs(x2) <= 8 * np.finfo(float).eps * 1000.0, 0.0, x2)
        assert count_windings_arrays(x1[:3], zeroed[:3]).n_w == 0
        assert sim["n_w"][0, 1] == count_windings_arrays(x1, x2).n_w

    def test_multi_horizon_run_builds_one_sampler(self, monkeypatch):
        from windlab.pathgen import CirculantSampler
        builds = []
        init = CirculantSampler.__init__

        def counted(self, model, grid):
            builds.append(grid.n)
            init(self, model, grid)

        monkeypatch.setattr(CirculantSampler, "__init__", counted)
        rep = run_variance(small_cfg(kind="variance", t_ladder=[5.0, 10.0, 20.0],
                                     replications=30))
        assert builds == [1001]
        # every row carries the one T = 20 sampler's diagnostics
        rows = rep["result"]["rows"]
        assert {r["embedding_length"] for r in rows} == {rows[-1]["embedding_length"]}

    def test_a_ladder_is_strictly_increasing(self):
        from windlab.errors import ParameterError
        for ladder in ([], [10.0, 5.0], [5.0, 5.0], [[5.0]]):
            with pytest.raises(ParameterError, match="strictly increasing"):
                simulate_windings(None, ladder, 0.02, "circulant", 5, 3)


class TestSamplerDiagnostics:
    def test_rows_record_circulant_embedding(self):
        # T = 20, dt = 0.02: n = 1001 points, embedding length 2(n - 1)
        for run, kind, key in ((run_expectation, "expectation", "rows"),
                               (run_variance, "variance", "rows"),
                               (run_clt, "clt", "per_t")):
            row = run(small_cfg(kind=kind, replications=20))["result"][key][0]
            assert (row["embedding_length"], row["pad"]) == (2000, 1)
            assert 0.0 <= row["clipped_mass"] <= 1e-12

    def test_every_monte_carlo_row_counts_rejections(self):
        smooth = small_cfg(model=TWO_ALPHA, kind="smoothing",
                           epsilon_ladder=[0.4, 0.2], t_ladder=[10.0],
                           replications=10)
        for rep, key in ((run_expectation(small_cfg(replications=10)), "rows"),
                         (run_variance(small_cfg(kind="variance",
                                                 replications=10)), "rows"),
                         (run_clt(small_cfg(kind="clt", replications=10)), "per_t"),
                         (run_smoothing(smooth), "rows")):
            for row in rep["result"][key]:
                assert row["n_rejected"] == 0
                assert {"clipped_mass", "embedding_length", "pad",
                        "kept_bins", "truncated_mass"} <= set(row)
                assert len(row["kept_bins"]) == 2
                assert 0.0 <= row["truncated_mass"] <= 1e-13

    def test_rows_record_other_backends(self):
        rep = run_expectation(small_cfg(backend="cholesky", t_ladder=[5.0],
                                        dt=0.05, replications=10))
        assert rep["result"]["rows"][0]["jitter"] in (0.0, 1e-12)


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
        text = report_to_csv(rep)
        assert text.startswith("T,")
        # one field per column, the kept_bins list quoted
        header, row = csv.reader(text.splitlines())
        assert len(row) == len(header)
        assert json.loads(row[header.index("kept_bins")]) == \
            rep["result"]["rows"][0]["kept_bins"]

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

    def test_independent_model_uses_finite_horizon_reference(self, monkeypatch):
        # the shipped iid config's T = 25 row, on fixed counts whose sample
        # variance is V_T(25): its CI excludes V_inf but covers the V_T(25)
        # that a 25-window sample estimates
        from types import SimpleNamespace
        from windlab import harness
        cfg = ExperimentConfig.from_file(
            os.path.join(CONFIGS, "iid_bargmann_fock_variance.json"))
        cfg.t_ladder = [25.0]
        # 796 each of -1 and +1, 204 each of -2 and +2: mean 0, variance
        # 3224/1999, within 0.06% of 25 V_T(25)
        n_w = np.repeat([-2.0, -1.0, 1.0, 2.0], [204, 796, 796, 204])
        assert len(n_w) == cfg.replications
        # one column per horizon of the one-horizon ladder
        monkeypatch.setattr(harness, "simulate_windings", lambda *a, **k: {
            "n_w": n_w[:, None], "sampler": SimpleNamespace(diagnostics={})})
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
        assert rep["result"]["standardized_by"] == "independent-case quadrature V_inf"

    def test_bound_mode_is_named(self):
        # two rough coordinates: V_inf is the smoothing-limit bound
        rep = run_clt(small_cfg(model=TWO_ALPHA, kind="clt", t_ladder=[5.0],
                                replications=20))
        assert rep["result"]["standardized_by"].startswith(
            "independent-case quadrature V_inf; bound mode")

    def test_one_replication_refused_whatever_the_kind(self):
        # the runner checks its own precondition: a library caller's
        # config keeps the default kind
        cfg = small_cfg(replications=1)
        assert cfg.kind == "expectation"
        with pytest.raises(ConfigError, match="replications >= 2"):
            run_clt(cfg)

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

    def test_mutation_detected(self, monkeypatch):
        # flipping the sign of the rho14*rho23 contribution must break the
        # oracle agreement
        def wrong(c: QuadrantCorr):
            s = math.sqrt(1.0 - c.rho34 ** 2)
            direct = c.rho13 * c.rho24 - c.rho14 * c.rho23  # wrong sign
            exch = c.rho13 * c.rho23 + c.rho14 * c.rho24
            return (c.rho12 / 4.0 + c.rho12 * math.asin(c.rho34) / (2 * math.pi)
                    + (direct - c.rho34 * exch) / (2 * math.pi * s))

        monkeypatch.setattr(harness, "quadrant_expectation", wrong)
        rep = run_lemma_check(self._cfg())
        assert not rep["pass"]
        assert not rep["result"]["checks"]["closed_vs_series"]["pass"]
        assert not rep["result"]["checks"]["closed_vs_mc"]["pass"]

    def test_series_mutation_detected(self, monkeypatch):
        # the series without its exchange sum, on the batch of all random
        # sets: only the closed-form-vs-series suite can see it
        def no_exchange(c: QuadrantCorr, order=160):
            x = c.rho34
            direct = c.rho13 * c.rho24 + c.rho14 * c.rho23
            total = c.rho12 / 4.0 + direct / (2 * math.pi)
            b = 1.0
            for j in range(order + 1):
                total = total + c.rho12 * b / ((2 * j + 1) * 2 * math.pi) * x ** (2 * j + 1)
                bnext = b * (2 * j + 1) / (2 * j + 2)
                if j < order:
                    total = total + direct * bnext / (2 * math.pi) * x ** (2 * j + 2)
                b = bnext
            return total

        monkeypatch.setattr(harness, "quadrant_expectation_series", no_exchange)
        rep = run_lemma_check(self._cfg())
        assert not rep["pass"]
        assert not rep["result"]["checks"]["closed_vs_series"]["pass"]
        assert rep["result"]["checks"]["closed_vs_mc"]["pass"]

    def test_one_series_call_and_one_conditional_cov_call_per_model(self, monkeypatch):
        calls = {"series": [], "conditional_cov": 0}
        series, ccov = harness.quadrant_expectation_series, harness.conditional_cov

        def counted_series(c):  # at the series' own default order
            calls["series"].append(np.shape(c.rho34))
            return series(c)

        def counted_ccov(model, t):
            calls["conditional_cov"] += 1
            return ccov(model, t)

        monkeypatch.setattr(harness, "quadrant_expectation_series", counted_series)
        monkeypatch.setattr(harness, "conditional_cov", counted_ccov)
        assert run_lemma_check(self._cfg())["pass"]
        assert calls == {"series": [(40,)], "conditional_cov": 3}

    def test_no_random_sets(self):
        cfg = small_cfg(kind="lemma_check", lemma_random_sets=0,
                        lemma_spot_cases=1, lemma_mc_samples=1000)
        series = run_lemma_check(cfg)["result"]["checks"]["closed_vs_series"]
        assert series == {"sets": 0, "max_abs_diff": 0.0, "tolerance": 1e-10,
                          "pass": True}

    def test_zero_se_fails_unless_exact(self, monkeypatch):
        # X1 and X2 uncorrelated with each other and with (X3, X4): every
        # sample is exactly 0, so mc = 0 with se = 0, which must not read
        # as agreement with a nonzero closed form
        monkeypatch.setattr(harness, "random_psd_quadrant",
                            lambda rng: QuadrantCorr(0.0, 0.0, 0.0, 0.0, 0.0, 0.3))
        cfg = small_cfg(kind="lemma_check", seed=1, lemma_mc_samples=1000,
                        lemma_spot_cases=1, lemma_random_sets=0)
        with monkeypatch.context() as m:
            m.setattr(harness, "quadrant_expectation", lambda c: 0.01)
            wrong = run_lemma_check(cfg)
        mc = wrong["result"]["checks"]["closed_vs_mc"]
        row = mc["rows"][0]
        assert row["mc"] == 0.0 and row["mc_se"] == 0.0
        assert row["z"] == math.inf
        assert not mc["pass"] and not wrong["pass"]
        exact = run_lemma_check(cfg)["result"]["checks"]["closed_vs_mc"]
        assert exact["rows"][0]["closed"] == 0.0
        assert exact["rows"][0]["z"] == 0.0 and exact["pass"]

    def test_series_gate_holds_on_a_far_tail_seed(self):
        # seed whose 500 random sets include one where the order-80 series
        # remainder (1.2e-10) exceeded the 1e-10 gate
        cfg = small_cfg(kind="lemma_check", seed=1474850610,
                        lemma_random_sets=500, lemma_spot_cases=1,
                        lemma_mc_samples=1000)
        series = run_lemma_check(cfg)["result"]["checks"]["closed_vs_series"]
        assert series["pass"] and series["max_abs_diff"] < 1e-10

    def test_correlation_file_rows(self, tmp_path, monkeypatch):
        good = ["0.5,0,0,0,0,0",          # independent pair
                "0.0,0.2,0.0,0.0,0.1,0.3"]
        f = tmp_path / "corr.csv"
        f.write_text("\n".join(good) + "\n")
        cfg = self._cfg()
        cfg.correlations_file = str(f)
        file_rows = run_lemma_check(cfg)["result"]["checks"]["file_rows"]
        assert [r["pass"] for r in file_rows] == [True, True]
        # a refused row is a ConfigError naming the file, the first bad
        # data row (1-based; the comment line does not count) and the
        # reason, raised before any suite draws a set
        monkeypatch.setattr(harness, "random_psd_quadrant",
                            lambda rng: pytest.fail("a suite ran"))
        for bad, reason in (("0.5,0,0,0,0,nan", r"\[-1, 1\]"),  # NaN fails the range test
                            ("1.5,0,0,0,0,0.2", r"\[-1, 1\]"),
                            ("0.9,0.9,0.0,0.0,0.0,-0.9", "not positive semidefinite"),
                            ("0,0,0,0,0,0.9999999", "too close to 1")):
            f.write_text("# rho12,rho13,rho14,rho23,rho24,rho34\n"
                         + "\n".join(good + [bad, "1.5,0,0,0,0,0"]) + "\n")
            with pytest.raises(ConfigError,
                               match=f"correlations_file {f}: row 3: .*{reason}"):
                run_lemma_check(cfg)

    @pytest.mark.parametrize("text", [
        "0.5,0,0,0,0\n", "0.5,0,0,0,0,0,0.1\n", "0.5,0,0,0,0,0\n0.5,0,0\n",
        "rho12,rho13,rho14,rho23,rho24,rho34\n", "", "# a comment only\n",
        "0.5,0,0,0,0,0\n0.5,0,0,0,0,nan\n"],
        ids=["five-columns", "seven-columns", "ragged", "not-numbers", "empty",
             "comment-only", "nan-row"])
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

    def test_two_horizons_refused_whatever_the_kind(self):
        cfg = small_cfg(model=TWO_ALPHA, epsilon_ladder=[0.4, 0.2],
                        t_ladder=[5.0, 10.0])
        assert cfg.kind == "expectation"
        with pytest.raises(ConfigError, match="one horizon"):
            run_smoothing(cfg)

    def test_ladder_of_one_not_assessable(self):
        cfg = small_cfg(model=TWO_ALPHA, kind="smoothing",
                        epsilon_ladder=[0.3], t_ladder=[15.0],
                        replications=25)
        rep = run_smoothing(cfg)
        assert rep["result"]["stabilization_rate"] is None
        assert "not assessable" in rep["result"]["stabilization_note"]

    @staticmethod
    def _tables(monkeypatch):
        """Record every table that _map_paths returns."""
        tables = []
        map_paths = harness._map_paths

        def recorded(*args):
            tables.append(map_paths(*args))
            return tables[-1]

        monkeypatch.setattr(harness, "_map_paths", recorded)
        return tables

    def test_table_rows_are_the_per_path_results(self, monkeypatch):
        from windlab.covmodel import model_from_spec
        from windlab.errors import AliasingError
        from windlab.pathgen import (CirculantSampler, GridSpec, SamplePath,
                                     SmoothingLadder)
        from windlab.winding import smoothed_winding
        cfg = small_cfg(model=TWO_ALPHA, kind="smoothing",
                        epsilon_ladder=[0.4, 0.2, 0.1], t_ladder=[15.0],
                        replications=40)
        grid = GridSpec.from_dt(15.0, 0.02)
        paths = CirculantSampler(model_from_spec(TWO_ALPHA), grid).sample_batch(
            cfg.seed, range(40))
        # path 3 turns by pi - 2e-12 at every step: every epsilon rejects it
        paths[3, 0] = np.resize([1.0, -1.0], grid.n)
        paths[3, 1] = 1e-12

        class FixedPaths:
            def __init__(self, model, grid):
                self.grid, self.diagnostics = grid, {}

            def sample_batch(self, seed, streams):
                return paths[list(streams)]

        monkeypatch.setattr(harness, "_make_sampler",
                            lambda model, grid, backend: FixedPaths(model, grid))
        tables = self._tables(monkeypatch)
        rep = run_smoothing(cfg)
        want = np.full((40, 4), np.nan)
        for s, (x1, x2) in enumerate(paths):
            try:
                r = smoothed_winding(SamplePath(grid, x1, x2),
                                     SmoothingLadder(grid, cfg.epsilon_ladder))
            except AliasingError:
                continue
            want[s] = [x.n_w for x in r.results] + [r.stabilized]
        (table,) = tables
        assert np.isnan(want[3]).all() and np.isnan(want).sum() == 4
        assert np.array_equal(table, want, equal_nan=True)
        assert [r["n_rejected"] for r in rep["result"]["rows"]] == [1, 1, 1]
        # a rejected path counts as not stabilised
        assert rep["result"]["stabilization_rate"] == np.sum(want[:, -1] == 1.0) / 40

    def test_workers_do_not_change_report(self, monkeypatch):
        # nor does the chunk size: the count table and the report bytes
        from windlab.pathgen import GridSpec
        cfg = small_cfg(model=TWO_ALPHA, kind="smoothing",
                        epsilon_ladder=[0.4, 0.2], t_ladder=[15.0],
                        replications=250)
        row = 16 * GridSpec.from_dt(15.0, 0.02).n
        tables = self._tables(monkeypatch)
        reports = []
        for chunk_bytes, workers in ((harness._CHUNK_BYTES, 1),
                                     (harness._CHUNK_BYTES, 2), (row, 1),
                                     (row, 2), (7 * row, 2)):
            monkeypatch.setattr(harness, "_CHUNK_BYTES", chunk_bytes)
            cfg.workers = workers
            reports.append(report_to_json(run_smoothing(cfg)["result"]))
        assert tables[0].shape == (250, 3)
        for table, report in zip(tables[1:], reports[1:]):
            assert np.array_equal(table, tables[0], equal_nan=True)
            assert report == reports[0]

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
            assert path.x1.tobytes() == ref.x1.tobytes()
            assert path.x2.tobytes() == ref.x2.tobytes()
            # the shorter horizon's file is the prefix of the same path
            short = load_path_csv(str(tmp_path / "paths" / f"path_T10_{s:05d}.csv"))
            assert short.meta == path.meta
            assert short.x1.tobytes() == ref.x1[:501].tobytes()
            assert short.x2.tobytes() == ref.x2[:501].tobytes()
            assert np.allclose(short.times(), ref.times()[:501], rtol=0, atol=1e-12)

    def test_paths_taken_by_a_file_exits_2_before_the_run(self, tmp_path,
                                                          monkeypatch, capsys):
        from windlab import cli, harness

        def no_run(*args, **kwargs):
            raise AssertionError("the experiment ran although it cannot "
                                 "export its paths")

        monkeypatch.setattr(harness, "simulate_windings", no_run)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(small_cfg(export_paths=2).to_json())
        out = tmp_path / "out"
        out.mkdir()
        (out / "paths").write_text("")
        assert cli.main(["simulate", "--config", str(cfg_file),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out / "paths") in err
        assert "Traceback" not in err
        assert (out / "paths").read_text() == ""


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
        # the spectral backend's frequency count is no longer a config key
        ("simulate", {"n_freq": 4096}, [], "n_freq"),
        ("check", {}, ["--seed", "-1"], "seed"),
        ("simulate", {"model": "not json"}, [], "model spec"),
        ("simulate", {"out_dir": 5}, [], "out_dir"),
        ("check", {"correlations_file": 5}, [], "correlations_file"),
        ("simulate", {"backend": "spectral"}, [], "backend"),
        # a rough X2 has no general-case V_T: exit before the first path
        ("variance", {"model": TWO_ALPHA}, [], "differentiable"),
        # the kernel spans more steps than the default T = 5 grid has
        ("smooth", {"model": TWO_ALPHA, "epsilon_ladder": [8.0, 0.5]}, [],
         "epsilon"),
        ("smooth", {"model": TWO_ALPHA, "epsilon_ladder": [0.4, 0.2],
                    "t_ladder": [5.0, 10.0]}, [], "t_ladder"),
        ("clt", {"replications": 1}, [], "replications >= 2"),
        # non-finite numbers (JSON NaN and Infinity) on every command
        ("simulate", {"dt": math.nan}, [], "finite"),
        ("simulate", {"t_ladder": [math.inf]}, [], "finite"),
        ("moments", {"t_ladder": [10 ** 400]}, [], "finite"),
        ("variance", {"t_ladder": [5.0, math.nan]}, [], "finite"),
        ("clt", {"dt": -math.inf}, [], "finite"),
        ("check", {"t_ladder": [math.inf]}, [], "finite"),
        ("moments", {"t_ladder": [math.inf]}, [], "finite"),
        ("smooth", {"model": TWO_ALPHA, "epsilon_ladder": [math.nan]}, [], "finite"),
        ("smooth", {"model": TWO_ALPHA, "epsilon_ladder": [0.4, math.inf]}, [],
         "finite"),
        # a grid above the circulant point cap, refused before any array
        ("simulate", {"t_ladder": [1e12], "dt": 0.01}, [], "capped"),
        ("simulate", {"t_ladder": [1e300], "dt": 0.01}, [], "capped"),
        ("simulate", {"t_ladder": [1e308], "dt": 0.001}, [], "overflows"),
        # a model-spec key that nothing reads (OU has no alpha to set)
        ("moments", {"model": {"x": {"family": "ou", "alpha": 0.5},
                               "cross": "iid"}}, [], "unknown keys"),
    ])
    def test_bad_config_exits_2(self, tmp_path, monkeypatch, capsys,
                                command, fields, flags, message):
        from windlab import cli, harness

        def no_threads(*args, **kwargs):
            raise AssertionError("a rejected config started a worker pool")

        def no_bound(*args, **kwargs):
            raise AssertionError("a rejected config computed the two-alpha bound")

        def no_simulation(*args, **kwargs):
            raise AssertionError("a rejected config simulated paths")

        # two CPUs, whatever the machine: the worker bound is checked
        # without starting a thread
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(harness, "ThreadPoolExecutor", no_threads)
        monkeypatch.setattr(harness, "variance_bound_two_alpha", no_bound)
        monkeypatch.setattr(harness, "simulate_windings", no_simulation)
        cfg = {"model": IID_BF, "t_ladder": [5.0], "dt": 0.05,
               "replications": 10, **fields}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main([command, "--config", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, fields, message", [
        ("variance", {"replications": 10 ** 12}, "replications must be <= 1000000 "),
        ("clt", {"replications": 250_001, "t_ladder": [5.0, 10.0, 15.0, 20.0]},
         "replications must be <= 250000 "),
        ("smooth", {"replications": 200_001, "model": TWO_ALPHA,
                    "epsilon_ladder": [0.4, 0.2, 0.1, 0.05]},
         "replications must be <= 200000 "),
        ("check", {"lemma_random_sets": 10 ** 11},
         "lemma_random_sets must be <= 100000,"),
        ("variance", {"lemma_spot_cases": 10 ** 9},
         "lemma_spot_cases must be <= 10000,"),
        ("simulate", {"seed": 2 ** 64}, "seed must be <= 18446744073709551615,"),
    ])
    def test_counts_above_their_bounds_exit_2_first(self, tmp_path, monkeypatch,
                                                     capsys, command, fields,
                                                     message):
        # one line naming the field and its bound, before any theory or path
        from windlab import cli, harness

        def no_theory(*args, **kwargs):
            raise AssertionError("an oversized config reached the theory")

        for name in ("variance_rate_general", "variance_rate_independent",
                     "variance_bound_two_alpha", "expectation_rate",
                     "simulate_windings", "random_psd_quadrant"):
            monkeypatch.setattr(harness, name, no_theory)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": IID_BF, "t_ladder": [5.0],
                                    "dt": 0.05, **fields}))
        assert cli.main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_counts_at_their_bounds_are_accepted(self):
        small_cfg(replications=10 ** 6)
        small_cfg(replications=200_000, epsilon_ladder=[0.4, 0.2, 0.1, 0.05])
        small_cfg(lemma_random_sets=10 ** 5, lemma_spot_cases=10 ** 4)
        small_cfg(seed=2 ** 64 - 1)

    def test_seed_override_above_64_bits_exits_2(self, tmp_path, capsys):
        # --seed is bounded like the file's seed: 2^64 would key seed 0
        from windlab import cli
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(small_cfg().to_json())
        assert cli.main(["simulate", "--config", str(cfg_file), "--seed",
                         str(2 ** 64), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == ("error: seed must be <= 18446744073709551615, "
                       "got 18446744073709551616\n")
        assert not (tmp_path / "out").exists()

    def test_point_cap_message_is_short(self, tmp_path, capsys):
        # T = 1e300 at dt = 0.01 is a grid of 1e302 points, printed as such
        from windlab import cli
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": IID_BF, "t_ladder": [1e300],
                                    "dt": 0.01, "replications": 10}))
        assert cli.main(["simulate", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "capped" in err and "got 1e+302" in err and len(err) < 200

    @pytest.mark.parametrize("where", ["file", "under_file", "read_only",
                                       "config_dir"])
    def test_unusable_paths_exit_2_before_the_run(self, tmp_path, monkeypatch,
                                                  capsys, where):
        from windlab import cli

        def no_run(cfg):
            raise AssertionError("the experiment ran on an unusable path")

        monkeypatch.setattr(cli, "run_expectation", no_run)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(small_cfg().to_json())
        taken = tmp_path / "taken"
        taken.write_text("")
        config, out = str(cfg_file), str(tmp_path / "out")
        if where == "file":
            out = str(taken)
        elif where == "under_file":
            out = str(taken / "out")
        elif where == "read_only":
            monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        else:
            config = str(tmp_path)
        assert cli.main(["simulate", "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert (config if where == "config_dir" else out) in err
        assert "Traceback" not in err
        assert taken.read_text() == ""

    def test_seed_and_format_overrides(self, tmp_path, capsys):
        from windlab import cli
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(small_cfg(replications=50, kind="variance").to_json())
        rc = cli.main(["variance", "--config", str(cfg_file), "--seed", "9",
                       "--out", str(tmp_path / "o2"), "--format", "csv"])
        assert rc in (0, 1)
        text = (tmp_path / "o2" / "variance.csv").read_text()
        assert text.startswith("T,")

    @pytest.mark.parametrize("command, runner",
                             [("moments", "_moments_report"),
                              ("check", "run_lemma_check")])
    def test_csv_without_a_table_exits_2_before_the_run(self, tmp_path, monkeypatch,
                                                       capsys, command, runner):
        from windlab import cli

        def no_run(cfg):
            raise AssertionError("the experiment ran although its report "
                                 "has no table to write as CSV")

        monkeypatch.setattr(cli, runner, no_run)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(small_cfg().to_json())
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfg_file), "--out", str(out),
                         "--format", "csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert all(c in err for c in ("variance", "simulate", "clt", "smooth"))
        assert not out.exists()

    def test_report_bytes_do_not_depend_on_out_or_workers(self, tmp_path,
                                                          monkeypatch):
        from windlab import cli
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # allow --workers 2
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(small_cfg(model=TWO_ALPHA, epsilon_ladder=[0.4, 0.2],
                                      t_ladder=[15.0], replications=40).to_json())
        reports = []
        for workers, out in (("1", tmp_path / "a"), ("2", tmp_path / "b")):
            cli.main(["smooth", "--config", str(cfg_file), "--workers", workers,
                      "--out", str(out)])
            reports.append((out / "smooth.json").read_bytes())
            meta = json.loads((out / "smooth.meta.json").read_text())
            assert meta["out_dir"] == str(out) and meta["workers"] == int(workers)
        assert reports[0] == reports[1]
        config = json.loads(reports[0])["config"]
        assert "out_dir" not in config and "workers" not in config

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
