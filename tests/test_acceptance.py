"""Acceptance suite: Monte Carlo reproduction of the theoretical moments
and limit theorems at desk scale, plus the exact-oracle equivalences.

Each criterion prints one PASS/FAIL line (run with ``pytest -s``); the
statistical thresholds are 3 standard errors for means, 99% bootstrap
coverage plus a 5% band for variances, and p > 0.01 for the
(lattice-corrected) KS test.  All runs are seeded and deterministic.
"""
import math
from functools import partial

import numpy as np
import pytest
from scipy.special import zeta

import windlab as w
from windlab.harness import quadrant_mc, random_psd_quadrant
from windlab.quadrature import integrate_to_infinity

SEED = 20260808

IID_BF = {"x": {"family": "bargmann_fock"}, "cross": "iid"}
OU_BF = {"x1": {"family": "ou"}, "x2": {"family": "bargmann_fock"},
         "cross": "independent"}
REGRESSION = {"x2": {"family": "bargmann_fock"},
              "cross": {"type": "regression", "rho1": 0.3,
                        "rz": {"family": "bargmann_fock"}}}
# X1 = 0.6 X2' + 0.8 Z with an OU Z: dependent on X2 and not differentiable
ROUGH_REGRESSION = {"x2": {"family": "bargmann_fock"},
                    "cross": {"type": "regression", "rho1": 0.6,
                              "rz": {"family": "ou"}}}
TWO_ALPHA = {"x1": {"family": "alpha", "alpha": 1.2},
             "x2": {"family": "alpha", "alpha": 1.2}, "cross": "independent"}

# pinned regression constants (two independent quadrature rules agreed to
# better than 1e-12 when these were frozen; the first equals
# (sqrt(pi)/4) zeta(3/2) / (2 pi^2) analytically)
V_INF_IID_BF = 0.058643621347644
I_OU_BF = 1.295287794277272
V_INF_OU_BF = I_OU_BF / (2.0 * math.pi ** 2)
STABILIZATION_RATE = 0.36  # two-alpha smoothing, seed above, M = 400


def _line(num, name, ok, detail):
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_c01_expectation_regression_model():
    cfg = w.ExperimentConfig(model=REGRESSION, kind="expectation",
                             backend="circulant", t_ladder=[100.0], dt=0.01,
                             replications=2000, seed=SEED)
    rep = w.run_expectation(cfg)
    row = rep["result"]["rows"][0]
    detail = (f"mc={row['mc_mean']:.3f} theory={row['theory_mean']:.3f} "
              f"se={row['mc_se']:.3f}")
    assert row["theory_mean"] == pytest.approx(100.0 * 0.3 / (2 * math.pi), rel=1e-12)
    _line(1, "expectation, regression rho1=0.3", bool(row["pass"]), detail)


def test_c02_variance_iid_bargmann_fock():
    model = w.model_from_spec(IID_BF)
    theo = w.variance_rate_independent(model)
    # two independent quadrature rules agreeing to 1e-8, pinned constant
    assert theo.extras["i_rule_disagreement"] < 1e-8
    assert theo.extras["i_integral"] == pytest.approx(
        float(np.sqrt(np.pi) / 4 * zeta(1.5)), abs=1e-10)
    assert theo.v_inf == pytest.approx(V_INF_IID_BF, abs=1e-9)

    cfg = w.ExperimentConfig(model=IID_BF, kind="variance",
                             backend="circulant", t_ladder=[200.0], dt=0.01,
                             replications=2000, seed=SEED + 2)
    rep = w.run_variance(cfg)
    row = rep["result"]["rows"][0]
    half = (row["ci99_hi"] - row["ci99_lo"]) / 2.0
    covered = row["ci99_lo"] <= V_INF_IID_BF <= row["ci99_hi"]
    within = abs(row["var_rate"] - V_INF_IID_BF) <= 0.05 * V_INF_IID_BF + half
    detail = (f"var/T={row['var_rate']:.5f} V_inf={V_INF_IID_BF:.5f} "
              f"ci=[{row['ci99_lo']:.5f},{row['ci99_hi']:.5f}]")
    _line(2, "independent-case variance, iid Bargmann-Fock",
          covered and within, detail)


def test_c03_variance_ou_bargmann_fock(monkeypatch):
    model = w.model_from_spec(OU_BF)
    # the coupling integrand behaves like t^(-1/2) at zero; quadrature must
    # be refinement-stable to 1e-6 and finite: its tail truncated from 25
    # (the default) and from 50
    a = w.variance_rate_independent(model)
    with monkeypatch.context() as m:
        m.setattr(w.moments, "integrate_to_infinity",
                  partial(integrate_to_infinity, t_max=50.0))
        b = w.variance_rate_independent(model)
    stable = abs(a.extras["i_integral"] - b.extras["i_integral"]) < 1e-6
    assert math.isfinite(a.v_inf)
    assert a.extras["i_integral"] == pytest.approx(I_OU_BF, abs=1e-6)

    cfg = w.ExperimentConfig(model=OU_BF, kind="variance",
                             backend="circulant", t_ladder=[200.0], dt=0.01,
                             replications=2000, seed=SEED + 3)
    rep = w.run_variance(cfg)
    row = rep["result"]["rows"][0]
    half = (row["ci99_hi"] - row["ci99_lo"]) / 2.0
    covered = row["ci99_lo"] <= V_INF_OU_BF <= row["ci99_hi"]
    within = abs(row["var_rate"] - V_INF_OU_BF) <= 0.05 * V_INF_OU_BF + half
    detail = (f"I={a.extras['i_integral']:.7f} var/T={row['var_rate']:.5f} "
              f"V_inf={V_INF_OU_BF:.5f}")
    _line(3, "singular-integrand variance, OU x Bargmann-Fock",
          stable and covered and within, detail)


def test_c04_clt_iid_bargmann_fock():
    cfg = w.ExperimentConfig(model=IID_BF, kind="clt", backend="circulant",
                             t_ladder=[400.0], dt=0.01, replications=2000,
                             seed=SEED + 4)
    rep = w.run_clt(cfg)
    row = rep["result"]["per_t"][0]
    ok = row["p_value"] > 0.01 and abs(row["skewness"]) < 0.15
    detail = (f"KS p={row['p_value']:.3f} d={row['ks_distance']:.4f} "
              f"skew={row['skewness']:.3f} (se {row['skewness_se']:.3f})")
    assert row["v_inf_used"] == pytest.approx(V_INF_IID_BF, abs=1e-9)
    _line(4, "central limit theorem, T=400", ok, detail)


def test_c05_quadrant_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    worst_series = 0.0
    for _ in range(500):
        c = random_psd_quadrant(rng, max_rho34=0.9)
        worst_series = max(worst_series, abs(
            w.quadrant_expectation(c) - w.quadrant_expectation_series(c, 80)))
    series_ok = worst_series < 1e-10

    worst_z = 0.0
    for i in range(20):
        c = random_psd_quadrant(rng, max_rho34=0.9)
        mc, se = quadrant_mc(c, 10_000_000, seed=SEED + 100 + i)
        worst_z = max(worst_z, abs(w.quadrant_expectation(c) - mc) / se)
    mc_ok = worst_z <= 4.0
    detail = f"series max|diff|={worst_series:.2e}, MC worst z={worst_z:.2f}"
    _line(5, "quadrant expectation: closed form vs series vs MC",
          series_ok and mc_ok, detail)


def test_c06_conditional_covariance_oracle():
    models = {
        "iid_bf": w.model_from_spec(IID_BF),
        "ou_bf": w.model_from_spec(OU_BF),
        "regression": w.model_from_spec(REGRESSION),
    }
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    for model in models.values():
        for _ in range(50):
            t = float(rng.uniform(0.05, 8.0))
            closed = w.conditional_cov(model, t).matrix
            schur = w.generic_regression(w.joint_cov_matrix(model, t)).matrix
            worst = max(worst, float(np.max(np.abs(closed - schur))))
    _line(6, "conditional covariance vs Schur regression", worst < 1e-10,
          f"max|diff|={worst:.2e} over 150 random lags")


def _angle_route(x1, x2):
    """(sum of the wrapped per-step angle increments, first angle, last
    angle), the angles measured from the positive x1 axis in [0, 2 pi):
    a test-local oracle that shares no code with windlab."""
    phi = np.arctan2(x2, x1)
    phi = np.where(phi < 0.0, phi + 2.0 * np.pi, phi)
    d = np.diff(phi)
    d -= 2.0 * np.pi * np.round(d / (2.0 * np.pi))  # into [-pi, pi]
    return float(d.sum()), float(phi[0]), float(phi[-1])


def test_c07_winding_definition_consistency():
    model = w.model_from_spec(IID_BF)
    sim = w.simulate_windings(model, 100.0, 0.01, "circulant", SEED + 7, 1000)
    n_w = sim["n_w"][:, 0]
    accepted = ~np.isnan(n_w)
    # the same 1000 paths drawn again, 50 at a time: on every accepted
    # path the summed angle steps are 2 pi n_w + phi_end - phi_start
    sampler = w.CirculantSampler(model, w.GridSpec.from_dt(100.0, 0.01))
    worst = 0.0
    for start in range(0, 1000, 50):
        paths = sampler.sample_batch(SEED + 7, range(start, start + 50))
        for s, (x1, x2) in enumerate(paths, start):
            if accepted[s]:
                total, first, last = _angle_route(x1, x2)
                worst = max(worst, abs(total - (2.0 * np.pi * n_w[s]
                                                + last - first)))
    angles_ok = worst < 1e-9
    # deterministic circles reproduce exact integer winding
    t = np.linspace(0.0, 3.0, 301)
    circle = w.SamplePath(grid=w.GridSpec(T=3.0, n=301),
                          x1=np.cos(2 * np.pi * t), x2=np.sin(2 * np.pi * t))
    rc = w.count_windings(circle)
    circles_ok = rc.n_w == 3 and abs(rc.delta_arg - 6 * np.pi) < 1e-6
    detail = (f"{int(accepted.sum())}/1000 accepted, worst |angle sum - "
              f"(2 pi n_w + phi_end - phi_start)| = {worst:.1e}; "
              f"circle n_w={rc.n_w}")
    _line(7, "crossing count vs argument increment", angles_ok and circles_ok,
          detail)


def test_c08_chaos_projection_consistency():
    results = []
    for spec in (IID_BF, OU_BF):
        model = w.model_from_spec(spec)
        out = w.chaos_projection_variances(model)
        assert out["var_I2_limit"] >= 0.0
        results.append(out)
    agree = max(r["var_I2_agreement"] for r in results)
    time_vs_spectral_ok = agree < 1e-6
    # positivity of the limit variance where the fourth chaos is computable
    iid_out = results[0]
    positive = iid_out["var_I2_limit"] + iid_out["var_I4_limit"] > 0.0
    rough_positive = results[1]["var_I2_limit"] > 0.0
    detail = (f"Plancherel agreement={agree:.2e}, "
              f"var_I2+var_I4={iid_out['var_I2_limit'] + iid_out['var_I4_limit']:.5f}")
    _line(8, "chaos projections: time vs spectral, positivity",
          time_vs_spectral_ok and positive and rough_positive, detail)


def test_c09_method_cross_agreement():
    worst = -math.inf
    for spec, v_ref in ((IID_BF, V_INF_IID_BF), (OU_BF, V_INF_OU_BF)):
        model = w.model_from_spec(spec)
        gen = w.variance_rate_general(model, 200.0)
        tol = gen.v_t_err + 1e-9 + 5.0 / 200.0
        err = abs(gen.v_t - v_ref)
        worst = max(worst, err - tol)
    _line(9, "general-integrand vs independent closed form", worst < 0.0,
          f"worst (error - tolerance) = {worst:.2e}")


def test_c10_two_alpha_smoothing():
    cfg = w.ExperimentConfig(model=TWO_ALPHA, kind="smoothing",
                             backend="circulant", t_ladder=[50.0], dt=0.01,
                             replications=400, seed=SEED,
                             epsilon_ladder=[0.4, 0.2, 0.1, 0.05])
    rep = w.run_smoothing(cfg)
    rows = rep["result"]["rows"]
    below = all(r["pass"] for r in rows)
    rate = rep["result"]["stabilization_rate"]
    rate_ok = abs(rate - STABILIZATION_RATE) <= 0.05
    detail = (f"var/T per eps: {[round(r['var_rate'], 4) for r in rows]} "
              f"<= bound {rows[0]['bound']:.4f}; stabilization {rate:.2f}")
    _line(10, "smoothed winding of two rough coordinates", below and rate_ok,
          detail)


def test_c11_determinism_and_parallel_invariance():
    cfg = w.ExperimentConfig(model=IID_BF, kind="variance",
                             backend="circulant", t_ladder=[25.0], dt=0.01,
                             replications=150, seed=SEED + 11)
    a = w.harness.report_to_json(w.run_variance(cfg))
    b = w.harness.report_to_json(w.run_variance(cfg))
    byte_identical = a == b

    model = w.model_from_spec(IID_BF)
    s1 = w.simulate_windings(model, 25.0, 0.01, "circulant", SEED + 11, 200,
                             workers=1)
    s4 = w.simulate_windings(model, 25.0, 0.01, "circulant", SEED + 11, 200,
                             workers=4)
    parallel_same = np.array_equal(s1["n_w"], s4["n_w"], equal_nan=True)
    _line(11, "byte-identical reports, worker-count invariance",
          byte_identical and parallel_same,
          f"bytes equal: {byte_identical}, parallel == serial: {parallel_same}")


def test_c12_variance_dependent_rough_x1():
    cfg = w.ExperimentConfig(model=ROUGH_REGRESSION, kind="variance",
                             backend="circulant", t_ladder=[200.0], dt=0.01,
                             replications=2000, seed=SEED + 12)
    rep = w.run_variance(cfg)
    row = rep["result"]["rows"][0]
    assert not rep["result"]["independent"] and row["n_rejected"] == 0
    v_t = row["v_T_general"]
    half = (row["ci99_hi"] - row["ci99_lo"]) / 2.0
    covered = row["ci99_lo"] <= v_t <= row["ci99_hi"]
    within = abs(row["var_rate"] - v_t) <= 0.05 * v_t + half
    detail = (f"var/T={row['var_rate']:.5f} V_T={v_t:.5f} "
              f"ci=[{row['ci99_lo']:.5f},{row['ci99_hi']:.5f}]")
    _line(12, "general-case variance, regression rho1=0.6 with OU noise",
          covered and within, detail)


def test_c13_clt_dependent_rough_x1():
    cfg = w.ExperimentConfig(model=ROUGH_REGRESSION, kind="clt",
                             backend="circulant", t_ladder=[200.0], dt=0.01,
                             replications=2000, seed=SEED + 13)
    rep = w.run_clt(cfg)
    row = rep["result"]["per_t"][0]
    assert rep["result"]["standardized_by"] == "general-case integral V_inf"
    ok = row["p_value"] > 0.01 and abs(row["skewness"]) < 0.15
    detail = (f"KS p={row['p_value']:.3f} d={row['ks_distance']:.4f} "
              f"skew={row['skewness']:.3f} (se {row['skewness_se']:.3f}) "
              f"V_inf={row['v_inf_used']:.5f}")
    _line(13, "central limit theorem, dependent rough X1, T=200", ok, detail)
