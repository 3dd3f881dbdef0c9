import math
import warnings

import numpy as np
import pytest

from conftest import numeric_diff
from windlab import covmodel
from windlab.covmodel import (CovFamily, ModelClass, alpha_family,
                              bargmann_fock, check_conditions, classify,
                              family_from_name, make_alpha_process,
                              make_iid_model, make_independent_model,
                              make_regression_model, model_from_spec,
                              ornstein_uhlenbeck)
from windlab.errors import CapabilityError, ParameterError
from windlab.quadrature import adaptive_quad

BF = {"family": "bargmann_fock"}
ALL_FAMILIES = [bargmann_fock(), ornstein_uhlenbeck(), alpha_family(1.5),
                alpha_family(0.7)]


def test_normalization_and_evenness():
    rng = np.random.default_rng(0)
    lags = rng.uniform(-12, 12, size=100)
    for fam in ALL_FAMILIES:
        assert float(fam.r(0.0)) == 1.0
        vals = np.asarray(fam.r(lags))
        assert np.max(np.abs(vals)) <= 1.0
        assert np.array_equal(vals, np.asarray(fam.r(-lags)))


BF_FIELDS = ("r", "d_r", "dd_r", "d3_r", "d4_r", "f", "one_minus_r_sq")


def test_bargmann_fock_is_zero_at_huge_lags():
    # t^2 and t^4 overflow to inf past |t| ~ 1.3e154 and 1e77; the family
    # clips its argument, so no inf * 0 = NaN and no overflow warning
    fam = bargmann_fock()
    lags = np.array([1e155, -1e155, 1e300, -1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name in BF_FIELDS:
            vals = np.asarray(getattr(fam, name)(lags))
            assert np.all(vals == (1.0 if name == "one_minus_r_sq" else 0.0)), name


def test_bargmann_fock_unchanged_up_to_the_clip():
    # the unclipped closed forms, bitwise and with the sign of zero, on
    # |t| <= 40: on arrays, and on floats through the 0-d array route
    def closed_forms(t):
        e = np.exp(-t ** 2 / 2.0)
        return {"r": e, "d_r": -t * e, "dd_r": (t ** 2 - 1.0) * e,
                "d3_r": t * (3.0 - t ** 2) * e,
                "d4_r": (t ** 4 - 6.0 * t ** 2 + 3.0) * e,
                "f": np.sqrt(2.0 / np.pi) * np.exp(-t ** 2 / 2.0),
                "one_minus_r_sq": -np.expm1(-t ** 2)}

    fam = bargmann_fock()
    t = np.concatenate([np.linspace(-40.0, 40.0, 4001), [38.6, 39.0, -40.0, 40.0],
                        np.random.default_rng(0).normal(0.0, 5.0, 2000)])
    ref = closed_forms(t)
    for name in BF_FIELDS:
        vals = np.asarray(getattr(fam, name)(t))
        assert np.array_equal(vals, ref[name]), name
        assert np.array_equal(np.signbit(vals), np.signbit(ref[name])), name
    for x in t[::7].tolist():
        ref = closed_forms(np.asarray(x))
        for name in BF_FIELDS:
            val = getattr(fam, name)(x)
            assert val == ref[name] and np.signbit(val) == np.signbit(ref[name]), (name, x)


def test_analytic_derivatives_match_finite_differences():
    fam = bargmann_fock()
    for t in np.linspace(0.1, 10.0, 23):
        d1, _ = numeric_diff(fam.r, t, order=1)
        d2, _ = numeric_diff(fam.r, t, order=2)
        assert abs(d1 - float(fam.d_r(t))) <= 1e-6 * max(1.0, abs(d1))
        assert abs(d2 - float(fam.dd_r(t))) <= 1e-6 * max(1.0, abs(d2))
    ou = ornstein_uhlenbeck()
    for t in (0.3, 1.7, 4.0):
        d1, _ = numeric_diff(ou.r, t, order=1)
        assert abs(d1 - float(ou.d_r(t))) < 1e-6


def test_one_minus_r_sq_consistency():
    for fam in ALL_FAMILIES:
        for t in (1e-8, 1e-3, 0.5, 3.0):
            exact = float(fam.one_minus_r_sq(t))
            raw = 1.0 - float(fam.r(t)) ** 2
            assert abs(exact - raw) <= 1e-12 + 1e-8 * exact


def test_spectral_density_reproduces_covariance():
    # r(t) = int_0^inf cos(t lam) f(lam) dlam, with unit mass; the OU
    # spectrum has a 1/lam^2 tail, so use the oscillatory-weight rule
    from scipy import integrate
    for fam in (bargmann_fock(), ornstein_uhlenbeck()):
        mass, _ = adaptive_quad(fam.f, 0.0, 400.0)
        tail_bound = 2.0 / (math.pi * 400.0)  # worst case: the OU tail
        assert abs(mass - 1.0) < tail_bound + 1e-9
        for t in (0.5, 1.0, 2.5, 5.0):
            val, _ = integrate.quad(lambda l: float(fam.f(l)), 0.0, np.inf,
                                    weight="cos", wvar=t, limit=400,
                                    epsabs=1e-11, epsrel=1e-11)
            assert abs(val - float(fam.r(t))) < 1e-8


def test_unnormalized_x2_family_rejected():
    # Gaussian covariance exp(-t^2) has -r''(0) = 2: not the unit time
    # normalization a winding model's X2 needs
    g = CovFamily(
        name="wide_gaussian",
        r=lambda t: np.exp(-np.asarray(t, float) ** 2),
        dd_r=lambda t: (4.0 * np.asarray(t, float) ** 2 - 2.0) * np.exp(-np.asarray(t, float) ** 2),
    )
    for build in (lambda: make_independent_model(bargmann_fock(), g),
                  lambda: make_iid_model(g),
                  lambda: make_regression_model(g, bargmann_fock(), 0.3)):
        with pytest.raises(ParameterError, match="not normalized"):
            build()


class TestAlphaProcess:
    def test_alpha_one_is_ornstein_uhlenbeck(self):
        fam = alpha_family(1.0)
        for t in (0.1, 1.0, 3.0):
            assert float(fam.r(t)) == pytest.approx(math.exp(-t), abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.0, 2.0, -0.5, 2.5])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ParameterError):
            alpha_family(alpha)

    def test_local_behavior_constants(self):
        # r = 1 - t^alpha + o(t^alpha) and r' = -alpha t^(alpha-1) + o
        alpha = 1.3
        fam = alpha_family(alpha)
        for t in (1e-4, 1e-5):
            assert (1.0 - float(fam.r(t))) / t ** alpha == pytest.approx(1.0, rel=1e-3)
            assert float(fam.d_r(t)) / (-alpha * t ** (alpha - 1.0)) == pytest.approx(1.0, rel=1e-3)
        assert float(fam.r(80.0)) < 1e-10

    def test_not_usable_as_x2(self):
        with pytest.raises(CapabilityError):
            make_regression_model(alpha_family(1.2), bargmann_fock(), 0.2)


class TestRegressionModel:
    def test_closed_form_r1_at_rho_half(self):
        # rho1 = 0.5 with Gaussian-covariance components:
        # r1(t) = 0.25 (1 - t^2) e^{-t^2/2} + 0.75 e^{-t^2/2}
        m = make_regression_model(bargmann_fock(), bargmann_fock(), 0.5)
        for t in np.linspace(0.0, 5.0, 21):
            expect = 0.25 * (1 - t * t) * math.exp(-t * t / 2) + 0.75 * math.exp(-t * t / 2)
            assert float(m.r1(t)) == pytest.approx(expect, abs=1e-14)

    def test_normalization_identities(self):
        for rho1 in (-0.7, 0.0, 0.3, 0.999):
            m = make_regression_model(bargmann_fock(), bargmann_fock(), rho1)
            assert abs(float(m.r1(0.0)) - 1.0) < 1e-12
            assert abs(float(m.r12(0.0))) < 1e-12
            assert m.meta["rho2"] == pytest.approx(math.sqrt(1 - rho1 ** 2))

    def test_rho_one_rejected(self):
        make_regression_model(bargmann_fock(), bargmann_fock(), 0.999)
        with pytest.raises(ParameterError):
            make_regression_model(bargmann_fock(), bargmann_fock(), 1.0)

    def test_rho_zero_reduces_to_rz_marginal(self):
        # the cross-covariance rho1 * r2' vanishes with rho1
        m = make_regression_model(bargmann_fock(), ornstein_uhlenbeck(), 0.0)
        for t in (0.2, 1.0, 3.0):
            assert float(m.r1(t)) == pytest.approx(math.exp(-t), abs=1e-14)
            assert float(m.r12(t)) == 0.0
        assert classify(m) == ModelClass.INDEPENDENT

    def test_cross_covariance_is_odd(self):
        m = make_regression_model(bargmann_fock(), bargmann_fock(), 0.3)
        for t in (0.3, 1.1, 2.2):
            assert float(m.r12(t)) == pytest.approx(-float(m.r12(-t)), abs=1e-15)
            assert float(m.r12(t)) == pytest.approx(0.3 * float(m.d_r2(t)), abs=1e-15)


class TestClassify:
    def test_iid(self, iid_bf):
        assert classify(iid_bf) == ModelClass.IID

    def test_independent(self, ou_bf):
        assert classify(ou_bf) == ModelClass.INDEPENDENT

    def test_regression_is_general(self, regression03):
        m = regression03
        assert classify(m) == ModelClass.GENERAL
        assert abs(float(m.r12(1.0))) > 1e-3  # genuinely cross-correlated

    def test_circularly_symmetric_synthetic(self, iid_bf):
        # equal marginals with an odd cross-covariance
        from dataclasses import replace
        bf = bargmann_fock()
        odd = lambda t: 0.2 * np.asarray(t, float) * np.exp(-np.asarray(t, float) ** 2)
        m = replace(iid_bf, r12=odd)
        assert classify(m) == ModelClass.CIRCULARLY_SYMMETRIC

    def test_reflexional_symmetric_synthetic(self, iid_bf):
        from dataclasses import replace
        even = lambda t: 0.1 * np.asarray(t, float) ** 2 * np.exp(-np.asarray(t, float) ** 2)
        m = replace(iid_bf, r12=even)
        assert classify(m) == ModelClass.REFLEXIONAL_SYMMETRIC


class TestConditions:
    def test_bargmann_fock_geman_converges(self, iid_bf):
        rep = check_conditions(iid_bf)
        assert rep.geman_status == "converged"
        # near zero the integrand (1 + r2'')/t is O(t)
        t = 1e-4
        assert (1.0 + float(iid_bf.dd_r2(t))) / t == pytest.approx(1.5 * t, rel=1e-3)

    def test_rough_x2_not_applicable(self):
        m = make_independent_model(bargmann_fock(), ornstein_uhlenbeck())
        rep = check_conditions(m)
        assert rep.geman_status == "not applicable"
        assert not m.x2_differentiable

    def test_iid_bf_tails(self, iid_bf, monkeypatch):
        monkeypatch.setattr(covmodel, "_LAG_MAX", 12.0)
        rep = check_conditions(iid_bf)
        assert rep.a_status == "plausible"
        # m(t)^2 beyond t = 6 integrates to far below 1e-8
        grid = np.linspace(6.0, 12.0, 500)
        m = np.maximum(np.abs(iid_bf.r2(grid)), np.abs(iid_bf.dd_r2(grid)))
        assert np.trapezoid(m ** 2, grid) < 1e-8
        assert rep.integrability_status == "plausible"
        assert rep.spectral_f1 and rep.spectral_f2


class TestModelSpec:
    def test_alpha_spec(self):
        m = model_from_spec({"x1": {"family": "alpha", "alpha": 1.2},
                             "x2": {"family": "alpha", "alpha": 1.2},
                             "cross": "independent"})
        assert m.meta["x1"]["alpha"] == 1.2
        assert not m.x2_differentiable

    def test_spec_accepts_json_text(self):
        m = model_from_spec('{"x": {"family": "bargmann_fock"}, "cross": "iid"}')
        assert classify(m) == ModelClass.IID

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            family_from_name("matern")

    def test_bad_cross(self):
        with pytest.raises(ParameterError):
            model_from_spec({"x1": {"family": "ou"}, "x2": {"family": "ou"},
                             "cross": "entangled"})

    @pytest.mark.parametrize("spec, key", [
        ({"x1": {"family": "ou", "alpha": 0.5}, "x2": BF, "cross": "independent"},
         "alpha"),
        ({"x": {"family": "bargmann_fock", "rho": 1}, "cross": "iid"}, "rho"),
        ({"x2": BF, "cross": {"type": "regression", "rho1": 0.3, "rho2": 0.9,
                              "rz": BF}}, "rho2"),
        ({"x1": BF, "x2": BF, "colour": "red"}, "colour"),
        ({"x": BF, "x2": BF, "cross": "iid"}, "x2"),
        ({"x": BF, "x2": BF, "cross": {"type": "regression", "rho1": 0.3,
                                       "rz": BF}}, "x"),
    ], ids=["family-param", "iid-family-param", "regression-cross", "top-level",
            "iid-x-and-x2", "regression-x"])
    def test_unknown_key_refused(self, spec, key):
        # a key nothing reads is refused, not silently dropped
        with pytest.raises(ParameterError, match=f"unknown keys in .*'{key}'"):
            model_from_spec(spec)


def test_make_alpha_process_pair():
    m = make_alpha_process(1.2)
    assert m.meta["x1"]["alpha"] == 1.2 and m.meta["x2"]["alpha"] == 1.2
    assert classify(m) == ModelClass.IID
    m2 = make_alpha_process(0.8, 1.4)
    assert classify(m2) == ModelClass.INDEPENDENT


def test_iid_model_example():
    m = make_iid_model(bargmann_fock())
    assert classify(m) == ModelClass.IID
    assert float(m.r12(2.2)) == 0.0
