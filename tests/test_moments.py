import math
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.special import zeta

from conftest import numeric_diff
from windlab import moments
from windlab.covmodel import (alpha_family, bargmann_fock, make_alpha_process,
                              make_independent_model, make_regression_model,
                              ornstein_uhlenbeck)
from windlab.errors import (CapabilityError, DivergenceError, HypothesisError,
                            ParameterError)
from windlab.gauss import conditional_cov
from windlab.moments import (chaos_projection_variances, expectation_rate,
                             variance_bound_two_alpha, variance_rate_general,
                             variance_rate_independent, variance_WT_route)
from windlab.pathgen import bump_kernel
from windlab.quadrature import integrate_to_infinity

TWO_PI = 2.0 * math.pi

# frozen reference values: I for the equal-Gaussian-covariance pair has the
# closed form (sqrt(pi)/4) zeta(3/2); the others were computed by two
# independent quadrature rules agreeing to ~1e-12 and are pinned here
I_IID_BF = float(np.sqrt(np.pi) / 4.0 * zeta(1.5))   # 1.157578686697058
V_INF_IID_BF = I_IID_BF / (2.0 * math.pi ** 2)       # 0.058643621347644
I_OU_BF = 1.295287794277272
V_INF_OU_BF = I_OU_BF / (2.0 * math.pi ** 2)
I_ALPHA12 = 3.267607662487587
# i_eps of two alpha = 1.2 processes at eps = 0.4, 0.2, 0.1, 0.05: lattice
# sums with bumps of 2001 and 8001 points agree to 6e-8, and a cusp-split
# quadrature of the continuous kernel to 5e-5
I_EPS_ALPHA12 = (1.7011062, 1.9250399, 2.1084833, 2.2627955)
V_T200_IID_BF = 0.0593727880163                      # finite-horizon rate


class TestExpectation:
    def test_independent_rate_is_zero(self, iid_bf, ou_bf):
        assert expectation_rate(iid_bf) == 0.0
        assert expectation_rate(ou_bf) == 0.0

    def test_regression_rate(self, regression03):
        # r12 = rho1 r2' gives r12'(0) = -rho1, so the rate is rho1/(2 pi)
        assert expectation_rate(regression03) == pytest.approx(0.3 / TWO_PI, rel=1e-14)

    def test_rate_matches_numeric_derivative_of_stored_r12(self, regression03):
        d0, _ = numeric_diff(regression03.r12, 0.0, order=1)
        assert expectation_rate(regression03) == pytest.approx(-d0 / TWO_PI, abs=1e-9)
        assert math.isfinite(10.0 * expectation_rate(regression03))

    def test_missing_derivative(self, iid_bf):
        broken = replace(iid_bf, d_r12=None)
        with pytest.raises(CapabilityError):
            expectation_rate(broken)


class TestVarianceIndependent:
    def test_iid_bf_value_and_rule_agreement(self, iid_bf):
        rep = variance_rate_independent(iid_bf)
        assert rep.extras["i_integral"] == pytest.approx(I_IID_BF, abs=1e-11)
        assert rep.extras["i_rule_disagreement"] < 1e-8
        assert rep.v_inf == pytest.approx(V_INF_IID_BF, abs=1e-11)
        assert rep.method == "independent_closed"
        # the discrepant constant assembly is reported alongside
        assert rep.extras["published_variant_v_inf"] == pytest.approx(
            (math.pi / 2 + I_IID_BF) / math.pi, rel=1e-12)

    def test_ou_bf_value(self, ou_bf):
        rep = variance_rate_independent(ou_bf)
        assert rep.extras["i_rule_disagreement"] < 1e-8
        assert rep.extras["i_integral"] == pytest.approx(I_OU_BF, abs=1e-6)
        assert rep.v_inf == pytest.approx(V_INF_OU_BF, abs=1e-6)

    def test_ou_bf_truncation_stability(self, ou_bf, monkeypatch):
        # refinement-stable: a different starting horizon must not move I
        def i_from(t_max):
            monkeypatch.setattr(moments, "integrate_to_infinity",
                                partial(integrate_to_infinity, t_max=t_max))
            return variance_rate_independent(ou_bf).extras["i_integral"]
        assert abs(i_from(30.0) - i_from(60.0)) < 1e-9

    def test_frozen_x1_gives_zero_rate(self, iid_bf):
        # constant r1 freezes X1: crossing signs alternate and the rate
        # vanishes (I = 0)
        ones = lambda t: np.ones_like(np.asarray(t, float))
        zeros = lambda t: np.zeros_like(np.asarray(t, float))
        frozen = replace(iid_bf, r1=ones, d_r1=zeros, dd_r1=zeros,
                         one_minus_r1_sq=zeros, f1=None)
        rep = variance_rate_independent(frozen)
        assert rep.extras["i_integral"] == 0.0
        assert rep.v_inf == 0.0

    def test_wrong_class_rejected(self, regression03):
        with pytest.raises(ParameterError):
            variance_rate_independent(regression03)

    def test_divergent_rough_pair(self):
        with pytest.raises(HypothesisError):
            variance_rate_independent(make_alpha_process(1.0, 1.0))

    def test_divergent_coupling_integral_refused(self, iid_bf, monkeypatch):
        # an integrand like 1/t near 0: the Cauchy probe's partial over
        # [1e-8, 1e-6] does not shrink against the one over [1e-4, 1e-2]
        monkeypatch.setattr(moments, "_i_integrand", lambda model: lambda t: 1.0 / t)
        with pytest.raises(DivergenceError, match="not Riemann convergent"):
            variance_rate_independent(iid_bf)

    def test_rough_pair_bound_mode(self):
        rep = variance_rate_independent(make_alpha_process(1.2))
        assert rep.extras["i_integral"] == pytest.approx(I_ALPHA12, abs=1e-6)
        assert any("bound mode" in n for n in rep.notes)


class TestVarianceGeneral:
    def test_iid_bf_finite_horizon(self, iid_bf):
        rep = variance_rate_general(iid_bf, 200.0)
        assert rep.v_t == pytest.approx(V_T200_IID_BF, abs=1e-7)
        assert rep.v_t_err < 1e-6
        assert rep.method == "general_integrand"
        # the improper integral reproduces the closed-form limit
        assert rep.v_inf == pytest.approx(V_INF_IID_BF, abs=1e-6)

    def test_astronomical_horizon_is_finite(self, iid_bf):
        # the covariance vanishes past t ~ 38.6, so V_T(1e300) = V_inf;
        # no overflow of t^2 on the way there
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = variance_rate_general(iid_bf, 1e300)
        assert math.isfinite(rep.v_t) and math.isfinite(rep.v_t_err)
        assert rep.v_t == pytest.approx(rep.v_inf, abs=1e-12)

    def test_cross_method_agreement(self, iid_bf, ou_bf):
        for model, v_ref in ((iid_bf, V_INF_IID_BF), (ou_bf, V_INF_OU_BF)):
            rep = variance_rate_general(model, 200.0)
            assert abs(rep.v_t - v_ref) < 1e-6 + 5.0 / 200.0

    def test_limit_matches_independent_closed_form(self, iid_bf, ou_bf):
        # V_inf as the integral over [0, inf) against I/(2 pi^2), each
        # within its own reported error
        for model in (iid_bf, ou_bf):
            gen = variance_rate_general(model, 50.0)
            ind = variance_rate_independent(model)
            assert gen.v_inf_err < 1e-6
            assert abs(gen.v_inf - ind.v_inf) <= gen.v_inf_err + ind.v_inf_err

    def test_limit_does_not_depend_on_horizon(self, iid_bf, regression03):
        for model in (iid_bf, regression03):
            assert (variance_rate_general(model, 25.0).v_inf
                    == variance_rate_general(model, 200.0).v_inf)

    def test_limit_meets_closed_form_to_1e12(self, ou_bf):
        # the quadrature starts at lag 0: on a rough X1 the general V_inf
        # meets I/(2 pi^2) within 1e-12, and its reported error covers the gap
        alpha12_bf = make_independent_model(alpha_family(1.2), bargmann_fock())
        for model in (ou_bf, alpha12_bf):
            gen = variance_rate_general(model, 200.0)
            gap = abs(gen.v_inf - variance_rate_independent(model).v_inf)
            assert gap <= 1e-12
            assert gap <= gen.v_inf_err <= 1e-9

    def test_horizon_ladder_matches_scalar_calls(self, ou_bf):
        ladder = (25.0, 50.0, 100.0, 200.0)
        for model in (ou_bf, make_regression_model(bargmann_fock(),
                                                   ornstein_uhlenbeck(), 0.6)):
            rep = variance_rate_general(model, ladder)
            assert rep.horizon == list(ladder)
            assert len(rep.v_t) == len(rep.v_t_err) == len(ladder)
            for T, v_t, v_t_err in zip(ladder, rep.v_t, rep.v_t_err):
                one = variance_rate_general(model, T)
                assert abs(v_t - one.v_t) <= v_t_err + one.v_t_err
                assert one.v_inf == rep.v_inf

    def test_long_horizon_keeps_the_bracket(self, iid_bf):
        # at T = 1e5 the bracket lives on the first 1e-4 of [0, T]: V_T
        # still sits just above V_inf, and V_inf keeps its value
        rep = variance_rate_general(iid_bf, 1e5)
        assert 0.0 < rep.v_t - rep.v_inf < 1e-5
        assert rep.v_inf == pytest.approx(V_INF_IID_BF, abs=1e-12)

    @pytest.mark.parametrize("T", [math.nan, math.inf, 0.0, -1.0, [],
                                   [25.0, 25.0], [50.0, 25.0],
                                   [25.0, math.nan], [[25.0, 50.0]]])
    def test_bad_horizons_rejected(self, iid_bf, T):
        with pytest.raises(ParameterError):
            variance_rate_general(iid_bf, T)

    def test_monotone_horizon_convergence(self, iid_bf):
        vals = [variance_rate_general(iid_bf, T).v_t for T in (25, 50, 100, 200)]
        diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
        assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
        assert diffs[-1] < 1e-2

    def test_regression_value(self, regression03):
        rep = variance_rate_general(regression03, 100.0)
        assert rep.v_t == pytest.approx(0.0598260687197, abs=1e-6)
        assert rep.expectation_rate == pytest.approx(0.3 / TWO_PI)

    def test_negative_coupling(self):
        # rho1 = -0.5 exercises the sign-sensitive cross-derivative entries;
        # MC arbitration: mean rate -0.0789 +- 0.0006, var/T 0.0582 +- 0.0021
        # at T=100, M=1500
        from windlab.covmodel import make_regression_model
        m = make_regression_model(bargmann_fock(), bargmann_fock(), -0.5)
        assert expectation_rate(m) == pytest.approx(-0.5 / TWO_PI, rel=1e-14)
        rep = variance_rate_general(m, 100.0)
        assert rep.v_t == pytest.approx(0.05834808869666, abs=1e-6)

    def test_report_invariants(self, iid_bf, regression03):
        for rep in (variance_rate_general(iid_bf, 50.0),
                    variance_rate_general(regression03, 50.0),
                    variance_rate_independent(iid_bf)):
            if rep.v_t is not None:
                assert rep.v_t + rep.v_t_err >= 0.0
                assert rep.v_t_err >= 0.0
            assert rep.v_inf_err >= 0.0

    def test_zero_cross_slope_drops_first_term(self, iid_bf):
        # r12'(0) = 0 for independent models: the subtracted constant is 0,
        # so the integrand equals the two-point kernel alone
        from windlab.moments import _ec_bracket
        bracket = _ec_bracket(iid_bf, 0.0)
        from windlab.moments import _minus_f_prime
        for t in (0.5, 1.0, 2.0):
            # the orthant probability 1/4 + arcsin(r1)/(2 pi)
            orthant = 0.25 + math.asin(float(iid_bf.r1(t))) / TWO_PI
            expect = TWO_PI * _minus_f_prime(iid_bf, t) * orthant
            assert bracket(t) == pytest.approx(expect, rel=1e-10)

    def test_rough_x2_rejected(self, ou_bf):
        m = make_independent_model(bargmann_fock(), ornstein_uhlenbeck())
        with pytest.raises(CapabilityError):
            variance_rate_general(m, 50.0)

    def test_conditional_quadrant_vs_mc_oracle(self, regression03):
        # E_c from the standardized closed form against conditional
        # sampling, 1e6 draws, 4 standard errors
        rng = np.random.default_rng(21)
        from windlab.moments import _ec_bracket
        bracket = _ec_bracket(regression03, float(regression03.d_r12(0.0)) ** 2)
        for t in (0.4, 1.1, 2.3):
            cc = conditional_cov(regression03, t).matrix
            chol = np.linalg.cholesky(cc + 1e-13 * np.eye(4))
            z = rng.standard_normal((1_000_000, 4)) @ chol.T
            y = z[:, 0] * z[:, 1] * (z[:, 2] > 0) * (z[:, 3] > 0)
            mc, se = float(y.mean()), float(y.std() / 1000.0)
            q = float(regression03.omr2sq(t))
            ec_closed = ((bracket(t) + float(regression03.d_r12(0.0)) ** 2)
                         * math.sqrt(q) / TWO_PI)
            assert abs(ec_closed - mc) <= 4.0 * se


class TestWTRoute:
    def test_integration_by_parts_identity(self, iid_bf):
        wt = variance_WT_route(iid_bf, 50.0)
        assert wt.ibp_residual < 1e-10
        # boundary term is negligible at T = 50, so W_T ~ -pi/2 + I_T/2
        assert wt.W_T == pytest.approx(-math.pi / 2 + wt.partial_i / 2, abs=1e-6)
        # the often-quoted +pi/2 variant differs by pi + I_T/2
        assert wt.published_ibp_value - wt.W_T == pytest.approx(
            math.pi + wt.partial_i / 2.0, abs=1e-6)

    def test_assembled_rate_matches_general(self, iid_bf):
        wt = variance_WT_route(iid_bf, 50.0)
        gen = variance_rate_general(iid_bf, 50.0)
        assert wt.v_t == pytest.approx(gen.v_t, abs=1e-6)

    def test_w_over_t_vanishes(self, iid_bf):
        vals = [abs(variance_WT_route(iid_bf, T).w_t / T) for T in (10, 20, 40, 80)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_short_horizon_empty(self, iid_bf):
        wt = variance_WT_route(iid_bf, 1e-3)
        assert abs(wt.W_T) < 1e-5

    def test_requires_independent(self, regression03):
        with pytest.raises(ParameterError):
            variance_WT_route(regression03, 10.0)

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    def test_refuses_bad_horizons(self, iid_bf, T):
        with pytest.raises(ParameterError):
            variance_WT_route(iid_bf, T)

    @pytest.mark.parametrize("name", ["iid_bf", "ou_bf"])
    def test_long_horizons_match_general(self, name, request):
        # integrated from lag 0 on panels that end at 25 2^k: no horizon
        # steps over the integrands, and the residual is the identity's
        model = request.getfixturevalue(name)
        i_val = variance_rate_independent(model).extras["i_integral"]
        horizons = [200.0, 3000.0, 1e4, 1e5]
        v_t = variance_rate_general(model, horizons).v_t
        for T, gen in zip(horizons, v_t):
            wt = variance_WT_route(model, T)
            assert abs(wt.v_t - gen) <= 1e-12, T
            assert abs(wt.partial_i - i_val) <= 1e-9, T
            assert wt.ibp_residual <= 1e-10, T


class TestChaosProjections:
    def test_iid_bf_second_chaos(self, iid_bf):
        out = chaos_projection_variances(iid_bf)
        # int_R r'^2 = sqrt(pi)/2 for the Gaussian covariance, so the
        # second-chaos limit is sqrt(pi)/(8 pi^2)
        expect = math.sqrt(math.pi) / (8.0 * math.pi ** 2)
        assert out["var_I2_limit"] == pytest.approx(expect, abs=1e-10)
        assert out["var_I2_limit"] >= 0.0
        assert out["var_I2_agreement"] < 1e-6

    def test_iid_bf_fourth_chaos(self, iid_bf):
        out = chaos_projection_variances(iid_bf)
        # (1/4pi) * 2 * int_R (1 - t^2) e^{-2 t^2} dt = (3/(8 pi)) sqrt(pi/2)
        expect = 3.0 / (8.0 * math.pi) * math.sqrt(math.pi / 2.0)
        assert out["var_I4_limit"] == pytest.approx(expect, abs=1e-10)
        assert out["var_I4_agreement"] < 1e-6
        assert out["var_I2_limit"] + out["var_I4_limit"] > 0.0

    def test_iid_spectral_fourth_chaos_convolves_once(self, iid_bf, monkeypatch):
        # an equal f2 under another name takes the two-convolution path
        twin = replace(iid_bf, f2=lambda lam: iid_bf.f2(lam))
        convolve, calls = np.convolve, []

        def counted(*args, **kwargs):
            calls.append(1)
            return convolve(*args, **kwargs)

        monkeypatch.setattr(np, "convolve", counted)
        once = moments._var_i4_spectral(iid_bf)
        assert len(calls) == 2
        assert moments._var_i4_spectral(twin) == once
        assert len(calls) == 6

    def test_rough_x1_skips_fourth_chaos(self, ou_bf):
        out = chaos_projection_variances(ou_bf)
        assert "var_I4_limit" not in out
        assert any("twice differentiable" in n for n in out["notes"])

    def test_rough_x2_skips_fourth_chaos(self):
        # a smooth X1 beside a rough X2: r2'' is missing, not r1''
        out = chaos_projection_variances(
            make_independent_model(bargmann_fock(), ornstein_uhlenbeck()))
        assert "var_I4_limit" not in out and "var_I2_limit" in out
        assert "var_I4 skipped: r2 not twice differentiable" in out["notes"]
        assert out["var_I2_limit"] > 0.0

    def test_regression_gets_caveat(self, regression03):
        out = chaos_projection_variances(regression03)
        assert any("r12'(0)" in n for n in out["notes"])
        assert out["var_I2_spectral"] == pytest.approx(out["var_I2_limit"], abs=1e-6)


class TestTwoAlphaBound:
    def test_exponent_arithmetic_and_value(self):
        m = make_alpha_process(1.2)
        g_half = float(m.d_r1(1e-6) * m.d_r2(1e-6)) / math.sqrt(
            float(m.omr1sq(1e-6)) * float(m.omr2sq(1e-6)))
        # integrand ~ (alpha^2/2) t^{alpha - 2} near zero: integrable
        assert g_half == pytest.approx(0.72 * (1e-6) ** (-0.8), rel=1e-3)
        rep = variance_bound_two_alpha(m, [0.4, 0.2, 0.1, 0.05])
        assert rep.i_integral == pytest.approx(I_ALPHA12, abs=1e-6)
        assert rep.bound_v_inf == pytest.approx(I_ALPHA12 / (2 * math.pi ** 2), abs=1e-6)

    def test_boundary_alpha_sum_rejected(self):
        with pytest.raises(HypothesisError):
            variance_bound_two_alpha(make_alpha_process(1.0, 1.0), [0.2])

    def test_model_without_two_alphas_refused(self):
        # a rough X2 beside a differentiable X1: the bound mode of the
        # independent rate and the bound itself refuse it alike
        m = make_independent_model(bargmann_fock(), ornstein_uhlenbeck())
        with pytest.raises(CapabilityError, match="two alpha-processes"):
            variance_rate_independent(m)
        with pytest.raises(CapabilityError, match="two alpha-processes"):
            variance_bound_two_alpha(m, [0.2])

    def test_epsilon_sweep_cauchy(self):
        m = make_alpha_process(1.2)
        rep = variance_bound_two_alpha(m, [0.4, 0.2, 0.1, 0.05])
        vals = [row["v_eps"] for row in rep.per_epsilon]
        diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
        assert all(b < a for a, b in zip(diffs, diffs[1:]))
        # smoothed functionals stay below the limit bound
        assert all(v <= rep.bound_v_inf + 1e-9 for v in vals)

    def test_epsilon_values_pinned_and_errors_bound_brute_force(self):
        m = make_alpha_process(1.2)
        rep = variance_bound_two_alpha(m, [0.4, 0.2, 0.1, 0.05])
        for row, pinned in zip(rep.per_epsilon, I_EPS_ALPHA12):
            assert row["i_eps"] == pytest.approx(pinned, rel=1e-6)
            assert row["v_eps"] == row["i_eps"] / (2 * math.pi ** 2)
            ref = _brute_force_i_eps(m, row["epsilon"])
            assert abs(row["i_eps"] - ref) <= row["i_eps_err"] <= 1e-6

    def test_epsilon_grid_validation(self):
        m = make_alpha_process(1.2)
        with pytest.raises(ParameterError):
            variance_bound_two_alpha(m, [0.1, 0.2])
        with pytest.raises(ParameterError):
            variance_bound_two_alpha(m, [])


def _brute_force_i_eps(model, eps, half=4000, t_end=8.0):
    """i_eps = int theta_eps' dtheta_1 on one uniform lattice of step
    eps/half over [0, t_end], with a bump of 2 half + 1 points (4x the
    resolution of variance_bound_two_alpha) and every kernel sum an FFT
    convolution of 1 - r2.  Past t = 8 the integrand is below 1e-10."""
    u = np.arange(-half, half + 1) / half
    psi = bump_kernel(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        dpsi = np.where(psi > 0, -2.0 * u * psi / (1.0 - u * u) ** 2, 0.0)
    mass_sq = psi.sum() ** 2
    k = np.convolve(psi, psi[::-1]) / mass_sq
    dk = np.convolve(psi, dpsi) / mass_sq / eps  # (K_eps)' on the lattice
    delta = eps / half
    lags = np.arange(-2 * half, round(t_end / delta) + 2 * half + 1) * delta
    one_minus_r2 = model.omr2sq(lags) / (1.0 + model.r2(lags))
    n = 1 << lags.size.bit_length()
    spec = np.fft.rfft(one_minus_r2, n)
    valid = slice(k.size - 1, lags.size)
    d = np.fft.irfft(spec * np.fft.rfft(k, n), n)[valid]
    d_prime = np.fft.irfft(spec * np.fft.rfft(dk, n), n)[valid]
    c0 = 1.0 - d[0]
    rho = 1.0 - (d - d[0]) / c0
    with np.errstate(divide="ignore", invalid="ignore"):
        theta_eps = d_prime / c0 / np.sqrt((1.0 - rho) * (1.0 + rho))
    theta_eps[0] = 2.0 * theta_eps[1] - theta_eps[2]
    t = np.arange(d.size) * delta
    theta_1 = np.arctan2(np.sqrt(model.omr1sq(t)), model.r1(t))  # arccos r1
    return float(0.5 * (theta_eps[1:] + theta_eps[:-1]) @ np.diff(theta_1))


def test_report_serialization(iid_bf):
    rep = variance_rate_independent(iid_bf)
    d = rep.to_dict()
    assert set(d) >= {"expectation_rate", "V_T", "V_inf", "err", "method"}
    import json
    json.dumps(d)  # JSON-clean
