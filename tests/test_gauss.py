import math

import numpy as np
import pytest

from conftest import gauss_hermite_2d
from windlab.covmodel import bargmann_fock, make_independent_model
from windlab.errors import (CapabilityError, DegenerateConditioningError,
                            DomainError, ParameterError, SingularityError)
from windlab.gauss import (QuadrantCorr, chaos_coefficients,
                           conditional_cov, dirac_coefficients,
                           generic_regression, g_norm_sq, hermite,
                           joint_cov_matrix, orthant_angle, orthant_prob,
                           quadrant_expectation, quadrant_expectation_series,
                           indicator_coefficients)
from windlab.harness import quadrant_mc, random_psd_quadrant

TWO_PI = 2.0 * math.pi


def _degenerate_pair(rho):
    """X3 = X1, X4 = X2 collapses E[X1 X2 1{X3>0} 1{X4>0}] to
    E[XY 1{X>0} 1{Y>0}], whose closed form is known independently."""
    c = QuadrantCorr(rho12=rho, rho13=1.0 - 1e-12, rho14=rho,
                     rho23=rho, rho24=1.0 - 1e-12, rho34=rho)
    return c, (math.sqrt(1 - rho * rho) / TWO_PI
               + rho * (0.25 + math.asin(rho) / TWO_PI))


DEGENERATE_PAIRS = [_degenerate_pair(rho) for rho in (-0.5, 0.2, 0.7)]


class TestHermite:
    def test_low_orders(self):
        assert hermite(2, 3.0) == 8.0            # x^2 - 1
        assert hermite(4, 0.0) == 3.0            # x^4 - 6x^2 + 3
        assert hermite(0, 1.7) == 1.0
        assert hermite(1, -2.5) == -2.5

    def test_matches_numpy_basis(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-4, 4, size=12)
        for n in (3, 7, 15, 40):
            coef = np.zeros(n + 1)
            coef[n] = 1.0
            ref = np.polynomial.hermite_e.hermeval(x, coef)
            assert np.allclose(hermite(n, x), ref, rtol=1e-12, atol=1e-9)

    def test_cap_and_domain(self):
        with pytest.raises(CapabilityError):
            hermite(201, 0.5)
        with pytest.raises(ParameterError):
            hermite(-1, 0.5)

    def test_mehler_property(self):
        # E[H_n(X) H_n(Y)] = n! rho^n, cross orders vanish
        for n in range(1, 11):
            for rho in (-0.9, -0.4, 0.3, 0.9):
                got = gauss_hermite_2d(lambda x, y: hermite(n, x) * hermite(n, y), rho)
                assert got == pytest.approx(math.factorial(n) * rho ** n, abs=1e-9)
        got = gauss_hermite_2d(lambda x, y: hermite(3, x) * hermite(5, y), 0.6)
        assert abs(got) < 1e-9

    def test_mehler_example(self):
        got = gauss_hermite_2d(lambda x, y: hermite(3, x) * hermite(3, y), 0.5)
        assert got == pytest.approx(0.75, abs=1e-10)


class TestOrthant:
    def test_values(self):
        assert orthant_prob(0.0) == pytest.approx(0.25)
        assert orthant_prob(1.0) == pytest.approx(0.5)
        assert orthant_prob(0.5) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_quadrature_oracle(self):
        # P(X>0, Y>0) = int_0^inf phi(x) Phi(rho x / sqrt(1-rho^2)) dx
        from scipy.stats import norm
        from windlab.quadrature import adaptive_quad
        for rho in (-0.6, 0.2, 0.8):
            s = math.sqrt(1.0 - rho * rho)
            got, _ = adaptive_quad(
                lambda x: norm.pdf(x) * norm.cdf(rho * x / s), 0.0, 40.0,
                abs_tol=1e-12, rel_tol=1e-12)
            assert orthant_prob(rho) == pytest.approx(got, abs=1e-10)

    def test_angle_is_pi_times_probability(self):
        for rho in (-0.9, 0.0, 0.4, 1.0):
            assert orthant_angle(rho) == pytest.approx(math.pi * orthant_prob(rho), abs=1e-12)

    def test_angle_on_arrays(self):
        r = np.array([[-1.0, -0.3], [0.4, 1.0]])
        got = orthant_angle(r)
        assert got.shape == r.shape
        assert np.array_equal(got, [[orthant_angle(float(v)) for v in row] for row in r])
        with pytest.raises(DomainError):
            orthant_angle(np.array([0.2, 1.0 + 1e-12]))
        with pytest.raises(DomainError):
            orthant_angle(np.array([np.nan]))

    def test_domain(self):
        with pytest.raises(DomainError):
            orthant_prob(1.2)


class TestQuadrantExpectation:
    def test_independent_pairs(self):
        c = QuadrantCorr(0.5, 0, 0, 0, 0, 0)
        assert quadrant_expectation(c) == pytest.approx(0.125, abs=1e-15)

    def test_cross_term_value(self):
        c = QuadrantCorr(rho12=0.0, rho13=0.2, rho14=0.0, rho23=0.0,
                         rho24=0.1, rho34=0.3)
        expect = 0.02 / (TWO_PI * math.sqrt(0.91))
        assert quadrant_expectation(c) == pytest.approx(expect, rel=1e-12)

    def test_singularity_guard(self):
        c = QuadrantCorr(0.1, 0, 0, 0, 0, 0.9999999)
        with pytest.raises(SingularityError):
            quadrant_expectation(c)

    def test_non_psd_rejected(self):
        c = QuadrantCorr(0.9, 0.9, 0, 0, 0, -0.9)
        with pytest.raises(DomainError):
            quadrant_expectation(c)

    def test_against_mc_including_exchange_structure(self):
        # correlation sets with rho13*rho23 + rho14*rho24 != 0 exercise the
        # exchange term; 2e6 samples give se ~ 5e-4
        rng = np.random.default_rng(8)
        for _ in range(4):
            c = random_psd_quadrant(rng)
            mc, se = quadrant_mc(c, 2_000_000, seed=42)
            assert abs(quadrant_expectation(c) - mc) <= 4.0 * se

    def test_degenerate_pair_identity(self):
        for c, expect in DEGENERATE_PAIRS:
            assert quadrant_expectation(c) == pytest.approx(expect, abs=1e-9)


class TestQuadrantSeries:
    def test_order_zero_at_uncorrelated_pair(self):
        c = QuadrantCorr(0.4, 0.2, 0.1, 0.3, 0.2, 0.0)
        expect = 0.4 / 4.0 + (0.2 * 0.2 + 0.1 * 0.3) / TWO_PI
        assert quadrant_expectation_series(c, 0) == pytest.approx(expect, abs=1e-15)

    def test_converges_to_closed_form(self):
        c = QuadrantCorr(rho12=0.0, rho13=0.2, rho14=0.0, rho23=0.0,
                         rho24=0.1, rho34=0.3)
        assert quadrant_expectation_series(c, 60) == pytest.approx(
            quadrant_expectation(c), abs=1e-12)

    def test_error_decreases_monotonically_at_high_rho34(self):
        c = QuadrantCorr(rho12=0.3, rho13=0.1, rho14=0.05, rho23=0.05,
                         rho24=0.1, rho34=0.95)
        cf = quadrant_expectation(c)
        errs = [abs(quadrant_expectation_series(c, q) - cf)
                for q in (10, 20, 40, 80, 160)]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_random_sets_tight_agreement(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(100):
            c = random_psd_quadrant(rng, max_rho34=0.75)
            worst = max(worst, abs(quadrant_expectation(c)
                                   - quadrant_expectation_series(c, 80)))
        assert worst < 1e-12

    def test_small_rho34_expansion(self):
        # with the exchange product zeroed out, the leading expansion is
        # rho12/4 + (rho12 rho34 + rho13 rho24 + rho14 rho23)/(2 pi) + O(rho34^2)
        rho12, rho13, rho24 = 0.3, 0.2, 0.1
        ratios = []
        for rho34 in (1e-1, 1e-2, 1e-3):
            c = QuadrantCorr(rho12, rho13, 0.0, 0.0, rho24, rho34)
            first = (rho12 / 4.0
                     + (rho12 * rho34 + rho13 * rho24) / TWO_PI)
            ratios.append(abs(quadrant_expectation(c) - first) / rho34 ** 2)
        assert max(ratios) < 1.0  # bounded remainder/rho34^2


class TestQuadrantMC:
    def test_conditional_se_at_most_plain_se(self):
        # the plain four-normal product, kept here only as the reference
        # the conditional estimator must not lose to at the same n
        n = 200_000
        rng = np.random.default_rng(11)
        for i in range(4):
            c = random_psd_quadrant(rng)
            z = (np.random.default_rng(50 + i).standard_normal((n, 4))
                 @ np.linalg.cholesky(c.matrix()).T)
            y = z[:, 0] * z[:, 1] * (z[:, 2] > 0.0) * (z[:, 3] > 0.0)
            plain_se = float(np.std(y) / math.sqrt(n))
            _, se = quadrant_mc(c, n, seed=50 + i)
            assert 0.0 < se <= plain_se

    def test_independent_of_the_formulas_it_checks(self):
        names = set(quadrant_mc.__code__.co_names)
        assert not names & {"orthant_angle", "quadrant_closed",
                            "quadrant_expectation",
                            "quadrant_expectation_series"}

    def test_degenerate_pair_identity(self):
        for i, (c, expect) in enumerate(DEGENERATE_PAIRS):
            mc, se = quadrant_mc(c, 400_000, seed=60 + i)
            assert abs(mc - expect) <= 4.0 * se

    def test_singular_block_raises(self):
        with pytest.raises(SingularityError):
            quadrant_mc(QuadrantCorr(0.1, 0, 0, 0, 0, 1.0), 100, seed=1)

    @pytest.mark.parametrize("c", [QuadrantCorr(0.9, 0.9, 0, 0, 0, -0.9),
                                   QuadrantCorr(1.5, 0, 0, 0, 0, 0.2),
                                   QuadrantCorr(0.1, 0, 0, 0, 0, 1.2)])
    def test_invalid_correlation_raises_domain_error(self, c):
        with pytest.raises(DomainError):
            quadrant_mc(c, 100, seed=1)


class TestConditionalCov:
    def test_independent_model_entries(self, iid_bf):
        t = 0.9
        cc = conditional_cov(iid_bf, t).matrix
        r2 = math.exp(-t * t / 2)
        d = -t * r2
        dd = (t * t - 1) * r2
        q = 1 - r2 * r2
        assert cc[0, 1] == pytest.approx(-dd - r2 * d * d / q, rel=1e-12)
        for i, j in [(0, 2), (0, 3), (1, 2), (1, 3)]:
            assert cc[i, j] == 0.0
        assert cc[0, 0] == cc[1, 1]
        assert cc[2, 2] == cc[3, 3] == 1.0
        assert cc[2, 3] == pytest.approx(r2, rel=1e-12)  # r1 = r2 here

    def test_far_lag_limits(self, ou_bf, regression03):
        # with every lag-t covariance gone, only equal-time structure is
        # left: the identity for independent models, and the rho1 coupling
        # of (X2'(s), X1(s)) for the regression construction
        assert np.allclose(conditional_cov(ou_bf, 40.0).matrix, np.eye(4),
                           atol=1e-12)
        cc = conditional_cov(regression03, 40.0).matrix
        expect = np.eye(4)
        expect[0, 2] = expect[2, 0] = expect[1, 3] = expect[3, 1] = 0.3
        assert np.allclose(cc, expect, atol=1e-12)

    def test_matches_schur_oracle_on_builtins(self, iid_bf, ou_bf, regression03):
        rng = np.random.default_rng(11)
        for model in (iid_bf, ou_bf, regression03):
            for _ in range(50):
                t = float(rng.uniform(0.05, 8.0))
                closed = conditional_cov(model, t).matrix
                schur = generic_regression(joint_cov_matrix(model, t)).matrix
                assert np.max(np.abs(closed - schur)) < 1e-10

    def test_psd_and_stationary_diagonal(self, regression03):
        for t in (0.2, 0.7, 1.5, 3.0):
            cc = conditional_cov(regression03, t).matrix
            assert np.linalg.eigvalsh(cc).min() > -1e-12
            assert cc[0, 0] == pytest.approx(cc[1, 1], abs=1e-14)
            assert cc[2, 2] == pytest.approx(cc[3, 3], abs=1e-14)

    def test_degenerate_lag_rejected(self, iid_bf):
        with pytest.raises(DegenerateConditioningError):
            conditional_cov(iid_bf, 0.0)

    def test_rough_x2_rejected(self):
        from windlab.covmodel import ornstein_uhlenbeck
        m = make_independent_model(bargmann_fock(), ornstein_uhlenbeck())
        with pytest.raises(CapabilityError):
            conditional_cov(m, 1.0)


class TestGenericRegression:
    def test_identity_joint(self):
        out = generic_regression(np.eye(6)).matrix
        assert np.array_equal(out, np.eye(4))

    def test_singular_conditioning_block(self, iid_bf):
        joint = joint_cov_matrix(iid_bf, 1.0)
        joint[4, 5] = joint[5, 4] = 1.0  # r2(t) = 1 exactly
        with pytest.raises(DegenerateConditioningError):
            generic_regression(joint)

    def test_shape_guard(self):
        with pytest.raises(ParameterError):
            generic_regression(np.eye(5))


def _doubling_table(rho1, order):
    """The d table as the closed form's predecessor computed it (reference):
    the z-integral in closed form, the x'-integral by Gauss-Hermite,
    doubling the node count from 64 until two tables agree to 1e-12.
    hermegauss weights turn NaN past about 300 nodes, so this reference
    serves only where it converges early (|rho1| <= 0.9)."""
    rho2 = math.sqrt(1.0 - rho1 ** 2)
    erfc = np.vectorize(math.erfc)

    def table(n_nodes):
        x, w = np.polynomial.hermite_e.hermegauss(n_nodes)
        w = w / w.sum()
        a_kink = -rho1 * x / rho2
        hx = [hermite(k, x) for k in range(order + 1)]
        d = np.zeros((order + 1, order + 1))
        for k3 in range(order + 1):
            if k3 == 0:
                inner = 1.0 - 0.5 * erfc(-a_kink * math.sqrt(0.5))
            else:
                inner = hermite(k3 - 1, a_kink) * np.exp(-0.5 * a_kink ** 2) / math.sqrt(TWO_PI)
            base = w * x * inner
            for k2 in range(order + 1 - k3):
                d[k2, k3] = float(np.sum(base * hx[k2])) / (
                    math.factorial(k2) * math.factorial(k3))
        return d

    n = 64
    d = table(n)
    while n < 4096:
        n *= 2
        d_next = table(n)
        if np.max(np.abs(d_next - d)) < 1e-12:
            return d_next
        d = d_next
    return d


def _exact_rule_columns(rho1, order):
    """Columns k3 >= 1 of the d table by one Gauss-Hermite rule (reference
    for |rho1| -> 1): phi(x) phi(rho1 x / rho2) is rho2 / sqrt(2 pi) times
    the N(0, rho2^2) density, so with x = rho2 y every entry is a Gaussian
    moment of a polynomial of degree <= order in y, which order // 2 + 1
    nodes integrate exactly."""
    rho2 = math.sqrt(1.0 - rho1 ** 2)
    y, w = np.polynomial.hermite_e.hermegauss(order // 2 + 1)
    w = w / w.sum()
    d = np.zeros((order + 1, order + 1))
    for k3 in range(1, order + 1):
        for k2 in range(order + 1 - k3):
            moment = np.sum(w * rho2 * y * hermite(k2, rho2 * y)
                            * hermite(k3 - 1, -rho1 * y))
            d[k2, k3] = rho2 / math.sqrt(TWO_PI) * moment / (
                math.factorial(k2) * math.factorial(k3))
    return d


class TestChaosCoefficients:
    def test_dirac_values(self):
        a = dirac_coefficients(8)
        assert a[0] == pytest.approx(1.0 / math.sqrt(TWO_PI), rel=1e-15)
        assert a[1] == a[3] == a[5] == 0.0
        # a_{2k} = (-1)^k / (sqrt(2 pi) 2^k k!)
        assert a[4] == pytest.approx(1.0 / (math.sqrt(TWO_PI) * 8), rel=1e-14)
        # H_4(0) = 3 consistency: a_4 = H_4(0)/(4! sqrt(2 pi))
        assert a[4] == pytest.approx(3.0 / (24 * math.sqrt(TWO_PI)), rel=1e-14)

    def test_dirac_norm_bounded(self):
        a = dirac_coefficients(120)
        k = np.arange(121)
        fact = np.array([math.factorial(int(i)) for i in k], dtype=object)
        vals = [float(a[i] ** 2 * fact[i]) for i in range(121)]
        assert max(vals) <= 1.0 / TWO_PI + 1e-15  # a_{2k}^2 (2k)! decreasing

    def test_indicator_values(self):
        g = indicator_coefficients(5)
        assert g[0] == 0.5
        assert g[1] == pytest.approx(1.0 / math.sqrt(TWO_PI), rel=1e-15)
        assert g[2] == g[4] == 0.0
        assert g[3] == pytest.approx(-1.0 / (6.0 * math.sqrt(TWO_PI)), rel=1e-14)

    def test_d_table_uncorrelated(self):
        cc = chaos_coefficients(0.0, 5)
        assert cc.d[1, 0] == pytest.approx(0.5, abs=1e-12)
        assert cc.d[1, 1] == pytest.approx(1.0 / math.sqrt(TWO_PI), abs=1e-12)
        assert abs(cc.d[0, 1]) < 1e-14
        assert cc.a[0] * cc.d[1, 1] == pytest.approx(1.0 / TWO_PI, abs=1e-12)

    def test_d_table_correlated(self):
        cc = chaos_coefficients(0.3, 5)
        # E[X' 1{rho1 X' + rho2 Z >= 0}] = rho1 / sqrt(2 pi)
        assert cc.d[0, 0] == pytest.approx(0.3 / math.sqrt(TWO_PI), abs=1e-12)
        # parity: reflecting (x', z) shows d vanishes for odd k2 + k3,
        # except the (1, 0) coefficient
        for k2 in range(6):
            for k3 in range(6 - k2):
                if (k2 + k3) % 2 == 1 and (k2, k3) != (1, 0):
                    assert abs(cc.d[k2, k3]) < 1e-13
        assert cc.d[1, 0] > 0.4  # the exceptional coefficient stays

    def test_partial_norms_nondecreasing_and_bounded(self):
        for rho1 in (0.0, 0.3, -0.6):
            cc = chaos_coefficients(rho1, 8)
            norms = [cc.partial_norm_sq(q) for q in range(9)]
            assert all(b >= a - 1e-15 for a, b in zip(norms, norms[1:]))
            assert norms[-1] <= g_norm_sq(rho1) + 1e-10

    @pytest.mark.parametrize("rho1", [0.0, 0.3, -0.6, 0.9])
    def test_d_table_matches_node_doubling(self, rho1):
        d = chaos_coefficients(rho1, 8).d
        assert np.max(np.abs(d - _doubling_table(rho1, 8))) <= 1e-15

    @pytest.mark.parametrize("rho1", [0.95, 0.99, 0.999999, -0.999999])
    def test_d_table_near_unit_rho1(self, rho1):
        cc = chaos_coefficients(rho1, 8)
        assert np.all(np.isfinite(cc.d))
        assert cc.d[0, 0] == pytest.approx(rho1 / math.sqrt(TWO_PI), rel=1e-15)
        assert cc.d[1, 0] == 0.5
        for k2 in range(9):
            for k3 in range(9 - k2):
                if (k2 + k3) % 2 == 1 and (k2, k3) != (1, 0):
                    assert cc.d[k2, k3] == 0.0
        assert np.max(np.abs(cc.d[:, 1:] - _exact_rule_columns(rho1, 8)[:, 1:])) <= 1e-15
        assert cc.partial_norm_sq(8) <= g_norm_sq(rho1) == 0.5

    def test_parameter_guards(self):
        with pytest.raises(ParameterError):
            chaos_coefficients(1.0, 4)
        with pytest.raises(ParameterError):
            chaos_coefficients(0.3, 0)
