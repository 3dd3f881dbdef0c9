"""Theoretical moments of the winding count N_W([0, T]).

Expectation: E[N_W]/T = -r12'(0)/(2 pi), exact at every T.

Variance: writing f(t) = r2'(t)/sqrt(1 - r2^2(t)) and P(r) for the positive
orthant probability, the two-point Kac-Rice calculation plus the diagonal
term (the unsigned crossing count contributes E[#zeros with X1 > 0]/T
= 1/(2 pi) regardless of the cross-correlation) gives

  Var/T = 1/(2 pi) + (2 pi)^-2 int_0^T 2 (1 - t/T)
            [2 pi E_c(t)/sqrt(1 - r2^2) - r12'(0)^2] dt,

with E_c the conditional quadrant expectation evaluated through the
standardized closed form.  For independent coordinates the integrand
collapses to (-f')(t) P(r1(t)) and integration by parts yields the limit

  V_inf = I / (2 pi^2),    I = int_0^inf r1' r2' /
                               sqrt((1 - r1^2)(1 - r2^2)) dt,

because the boundary term -(1/pi) f(0+) P(1+) = +1/(2 pi) cancels the
diagonal exactly (f(0+) = -1).  Published statements of this limit differ
by constant factors; the value above is what Monte Carlo reproduces (see
the acceptance suite), and the W_T route below exposes the discrepant
intermediate constants explicitly rather than silently absorbing them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .covmodel import CovarianceModel, ModelClass, classify
from .errors import (CapabilityError, DivergenceError, HypothesisError,
                     ParameterError)
from .gauss import (conditional_cov, g_norm_sq, orthant_angle,
                    quadrant_closed)
from .pathgen import bump_kernel
from .quadrature import adaptive_quad, integrate_to_infinity, tanh_sinh

__all__ = [
    "QuadratureSpec",
    "MomentReport",
    "WTRoute",
    "TwoAlphaBound",
    "expectation_rate",
    "variance_rate_general",
    "variance_rate_independent",
    "variance_WT_route",
    "chaos_projection_variances",
    "var_I1",
    "variance_bound_two_alpha",
]

TWO_PI = 2.0 * math.pi
_T_CUT = 1e-3  # below this lag the general integrand is extrapolated


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and truncation controls for the improper integrals."""

    t_max: Optional[float] = None
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    singularity_exponent_hint: Optional[float] = None

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ParameterError("tolerances must be positive")
        if self.t_max is not None and self.t_max <= 0:
            raise ParameterError("t_max must be positive")


@dataclass
class MomentReport:
    expectation_rate: float
    v_t: Optional[float]
    v_t_err: Optional[float]
    v_inf: Optional[float]
    v_inf_err: Optional[float]
    method: str
    horizon: Optional[float] = None
    chaos: Optional[dict] = None
    extras: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "expectation_rate": self.expectation_rate,
            "V_T": self.v_t,
            "V_inf": self.v_inf,
            "err": {"V_T": self.v_t_err, "V_inf": self.v_inf_err},
            "method": self.method,
            "horizon": self.horizon,
            "chaos": self.chaos,
            "extras": self.extras,
            "notes": self.notes,
        }


# ----------------------------------------------------------------------
# expectation
# ----------------------------------------------------------------------
def expectation_rate(model: CovarianceModel) -> float:
    """E[N_W([0, T])]/T = -r12'(0) / (2 pi)."""
    model.require("d_r12")
    return -float(model.d_r12(0.0)) / TWO_PI


# ----------------------------------------------------------------------
# independent case
# ----------------------------------------------------------------------
def _minus_f_prime(model, t):
    """-(d/dt)[r2'/sqrt(1-r2^2)] (the signed two-point crossing kernel)."""
    d = float(model.d_r2(t))
    dd = float(model.dd_r2(t))
    s = float(model.omr2sq(t))
    r2 = float(model.r2(t))
    return -(dd * s + r2 * d * d) / s ** 1.5


def _i_integrand(model):
    def g(t):
        s = float(model.omr1sq(t)) * float(model.omr2sq(t))
        if s <= 0.0:
            # only reachable when 1 - r^2 underflows (t below ~1e-150);
            # the integrable-singularity mass there is far below eps
            return 0.0
        return float(model.d_r1(t)) * float(model.d_r2(t)) / math.sqrt(s)
    return g


def _singularity_power(model, q: QuadratureSpec) -> int:
    """Power p for the substitution t = u^p that flattens the t^a endpoint
    singularity of the coupling integrand (a = (alpha1 + alpha2)/2 - 2,
    rough coordinates contributing their alpha, differentiable ones 2)."""
    if q.singularity_exponent_hint is not None:
        a = q.singularity_exponent_hint
    else:
        a1 = model.meta.get("x1", {}).get("alpha", 2.0)
        a2 = model.meta.get("x2", {}).get("alpha", 2.0)
        a = 0.5 * (a1 + a2) - 2.0
    if a >= 0.0:
        return 1
    if a <= -1.0:
        return 1  # divergent anyway; the Cauchy check below reports it
    return int(math.ceil(1.0 / (1.0 + a))) + 1


def _coupling_integral(model, q: QuadratureSpec):
    """I = int_0^inf r1' r2'/sqrt((1-r1^2)(1-r2^2)) dt by two rules.

    Tanh-sinh handles the possible t^a endpoint singularity natively; the
    Gauss-Kronrod route gets it flattened by the substitution t = u^p.
    The tail past t = 1 is added by horizon doubling.  Returns
    (value, error, rule_disagreement).
    """
    g = _i_integrand(model)
    # Cauchy check near the origin: partial integrals over [eps, 1]
    parts = []
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        v, _ = adaptive_quad(g, eps, 1.0, 1e-10, 1e-10)
        parts.append(v)
    d1, d2 = abs(parts[1] - parts[0]), abs(parts[3] - parts[2])
    if not math.isfinite(parts[-1]) or (d2 > 1e-8 and d2 > 0.5 * d1):
        raise DivergenceError(
            "coupling integral I is not Riemann convergent at 0; the "
            "independent-case variance hypothesis (I convergent) fails")
    p = _singularity_power(model, q)
    if p == 1:
        head_gk, e_gk = adaptive_quad(g, 0.0, 1.0, q.abs_tol * 1e-2, q.rel_tol * 1e-2)
    else:
        head_gk, e_gk = adaptive_quad(
            lambda u: g(u ** p) * p * u ** (p - 1), 0.0, 1.0,
            q.abs_tol * 1e-2, q.rel_tol * 1e-2)
    head_ts, _ = tanh_sinh(g, 0.0, 1.0, tol=1e-12)
    t_max = q.t_max if q.t_max is not None else 25.0
    tail, e_tail = integrate_to_infinity(g, 1.0, q.abs_tol, q.rel_tol, t_max=t_max)
    disagreement = abs(head_gk - head_ts)
    value = head_gk + tail
    return value, e_gk + e_tail, disagreement


def variance_rate_independent(model: CovarianceModel,
                              q: QuadratureSpec = QuadratureSpec()) -> MomentReport:
    """Asymptotic variance rate for independent coordinates:
    V_inf = I/(2 pi^2).

    Also records the value (1/pi)(pi/2 + I) that intermediate published
    constants would give, for side-by-side reporting.  When X2 is not
    differentiable but both coordinates are rough alpha-processes with
    alpha1 + alpha2 > 2, the same integral is returned in bound mode (the
    smoothing-limit upper bound; see variance_bound_two_alpha).
    """
    cls = classify(model)
    if cls not in (ModelClass.INDEPENDENT, ModelClass.IID):
        raise ParameterError(
            f"variance_rate_independent needs an independent model, got {cls.value}")
    model.require("d_r1", "d_r2")
    notes = []
    if not model.x2_differentiable:
        a1 = model.meta.get("x1", {}).get("alpha")
        a2 = model.meta.get("x2", {}).get("alpha")
        if a1 is not None and a2 is not None and a1 + a2 <= 2.0:
            raise DivergenceError(
                f"alpha1 + alpha2 = {a1 + a2:g} <= 2: the coupling integral "
                "I diverges at 0, so the convergent-I hypothesis of the "
                "independent-case variance theorem fails")
        if a1 is None or a2 is None:
            raise CapabilityError(
                "X2 is not differentiable; only two alpha-processes with "
                "alpha1 + alpha2 > 2 are handled (bound mode)")
        notes.append("bound mode: X2 non-differentiable; value is the "
                     "smoothing-limit bound, not a proven limit")
    i_val, i_err, i_disagree = _coupling_integral(model, q)
    v_inf = i_val / (2.0 * math.pi ** 2)
    report = MomentReport(
        expectation_rate=0.0,
        v_t=None, v_t_err=None,
        v_inf=v_inf, v_inf_err=(i_err + i_disagree) / (2.0 * math.pi ** 2),
        method="independent_closed",
        extras={
            "i_integral": i_val,
            "i_rule_disagreement": i_disagree,
            "published_variant_v_inf": (math.pi / 2.0 + i_val) / math.pi,
        },
        notes=notes,
    )
    return report


# ----------------------------------------------------------------------
# general case
# ----------------------------------------------------------------------
def _ec_bracket(model, rho1_sq):
    """bracket(t) = 2 pi E_c(t)/sqrt(1 - r2^2(t)) - r12'(0)^2."""

    def bracket(t):
        cc = conditional_cov(model, t)
        corr, sd = cc.correlations()
        r34 = min(max(corr[2, 3], -1.0 + 1e-15), 1.0 - 1e-15)
        ec = sd[0] * sd[1] * quadrant_closed(corr[0, 1], corr[0, 2], corr[0, 3],
                                             corr[1, 2], corr[1, 3], r34)
        return TWO_PI * ec / math.sqrt(float(model.omr2sq(t))) - rho1_sq

    return bracket


def variance_rate_general(model: CovarianceModel, T: float,
                          q: QuadratureSpec = QuadratureSpec()) -> MomentReport:
    """Finite-horizon variance rate by the conditional-quadrant integrand.

    V_inf is reported by Richardson extrapolation in the horizon
    (V_T = V_inf + c/T + o(1/T)), with the difference of the two horizons
    as its error estimate.  No closed-form limit exists in general.
    """
    if not model.x2_differentiable:
        raise CapabilityError("variance_rate_general needs a differentiable X2")
    model.require("d_r2", "dd_r2", "d_r12", "d_r1")
    if T <= 0:
        raise ParameterError("T must be positive")
    rho1_sq = float(model.d_r12(0.0)) ** 2
    bracket = _ec_bracket(model, rho1_sq)

    def v_at(horizon):
        def weighted(t):
            return 2.0 * (1.0 - t / horizon) * bracket(t)

        # [0, t_cut]: quadratic extrapolation of the (finite) t -> 0 limit
        b1, b2, b3 = bracket(_T_CUT), bracket(2 * _T_CUT), bracket(4 * _T_CUT)
        b0 = (8.0 * b1) / 3.0 - 2.0 * b2 + b3 / 3.0
        head = 0.5 * (2.0 * b0 + 2.0 * (1.0 - _T_CUT / horizon) * b1) * _T_CUT
        head_err = abs(b0 - b1) * _T_CUT
        body, body_err = adaptive_quad(weighted, _T_CUT, horizon,
                                       q.abs_tol, q.rel_tol)
        val = 1.0 / TWO_PI + (head + body) / TWO_PI ** 2
        return val, (head_err + body_err) / TWO_PI ** 2

    v_t, v_t_err = v_at(T)
    v_half, v_half_err = v_at(T / 2.0)
    v_inf = 2.0 * v_t - v_half
    v_inf_err = abs(v_t - v_half) + v_t_err + v_half_err
    return MomentReport(
        expectation_rate=expectation_rate(model),
        v_t=v_t, v_t_err=v_t_err,
        v_inf=v_inf, v_inf_err=v_inf_err,
        method="general_integrand", horizon=T,
        extras={"v_at_half_horizon": v_half},
    )


# ----------------------------------------------------------------------
# the W_T / w_T integration-by-parts route
# ----------------------------------------------------------------------
@dataclass
class WTRoute:
    """Internal consistency route through the functionals

      W_T = -int_0^T f'(t) arccos(sqrt((1-r1)/2)) dt,
      w_T = +int_0^T t f'(t) arccos(sqrt((1-r1)/2)) dt,

    assembled as V_T = 1/(2 pi) + (W_T + w_T/T)/pi^2.  Integration by
    parts gives W_T = -pi/2 - f(T) arccos(...) + I_T/2 (f(0+) = -1 and
    d/dt arccos sqrt((1-r1)/2) = r1'/(2 sqrt(1-r1^2))); the same display
    is often quoted with +pi/2 and without the 1/2, which is recorded in
    published_ibp_value for comparison.
    """

    w_t: float
    W_T: float
    v_t: float
    corrected_ibp_value: float
    published_ibp_value: float
    ibp_residual: float
    partial_i: float


def variance_WT_route(model: CovarianceModel, T: float,
                      q: QuadratureSpec = QuadratureSpec()) -> WTRoute:
    cls = classify(model)
    if cls not in (ModelClass.INDEPENDENT, ModelClass.IID):
        raise ParameterError("the W_T route is defined for independent models")
    model.require("d_r1", "d_r2", "dd_r2")
    if T <= 0:
        raise ParameterError("T must be positive")

    def fprime_arccos(t):
        return -_minus_f_prime(model, t) * orthant_angle(float(model.r1(t)))

    W_T = -adaptive_quad(fprime_arccos, 1e-9, T, q.abs_tol, q.rel_tol)[0]
    w_t = adaptive_quad(lambda t: t * fprime_arccos(t), 1e-9, T,
                        q.abs_tol, q.rel_tol)[0]

    def f_of(t):
        return float(model.d_r2(t)) / math.sqrt(float(model.omr2sq(t)))

    partial_i = adaptive_quad(_i_integrand(model), 1e-9, T,
                              q.abs_tol, q.rel_tol)[0]
    boundary = f_of(T) * orthant_angle(float(model.r1(T)))
    corrected = -math.pi / 2.0 - boundary + 0.5 * partial_i
    published_val = math.pi / 2.0 - boundary + partial_i
    v_t = 1.0 / TWO_PI + (W_T + w_t / T) / math.pi ** 2
    return WTRoute(w_t=w_t, W_T=W_T, v_t=v_t,
                   corrected_ibp_value=corrected, published_ibp_value=published_val,
                   ibp_residual=abs(W_T - corrected), partial_i=partial_i)


# ----------------------------------------------------------------------
# chaos projections
# ----------------------------------------------------------------------
def var_I1(model: CovarianceModel, T: float) -> float:
    """Variance of the first chaos projection at horizon T:
    (a0 d10)^2 (2/T)(1 - r2(T)); telescopes to zero as T grows."""
    model.require("dd_r2")
    rho1 = model.meta.get("rho1", 0.0)
    a0 = 1.0 / math.sqrt(TWO_PI)
    d10 = g_norm_sq(rho1)
    return (a0 * d10) ** 2 * (2.0 / T) * (1.0 - float(model.r2(T)))


def chaos_projection_variances(model: CovarianceModel,
                               q: QuadratureSpec = QuadratureSpec()) -> dict:
    """Limits of Var(I_2(T)) and (independent models) Var(I_4(T)).

    Time-domain values are primary; Plancherel/convolution evaluations are
    added when spectral densities exist, with the agreement reported.
    The q=2 display integrates r2'r1' + r12'(-t)r12'(t); it is the full
    second-chaos variance only when r12'(0) = 0 (noted otherwise).
    """
    model.require("d_r1", "d_r2", "d_r12")
    notes = []
    rho1_at_zero = float(model.d_r12(0.0))
    if abs(rho1_at_zero) > 1e-12:
        notes.append("r12'(0) != 0: the displayed q=2 integral omits the "
                     "H2(X2) contribution of the second chaos")

    def g2(t):
        return (float(model.d_r1(t)) * float(model.d_r2(t))
                + float(model.d_r12(t)) * float(model.d_r12(-t)))

    head, e1 = adaptive_quad(g2, 0.0, 1.0, q.abs_tol, q.rel_tol)
    tail, e2 = integrate_to_infinity(g2, 1.0, q.abs_tol, q.rel_tol,
                                     t_max=q.t_max or 25.0)
    var_i2 = (head + tail) / (2.0 * math.pi ** 2)
    out = {"var_I2_limit": var_i2, "var_I2_err": (e1 + e2) / (2 * math.pi ** 2)}

    # Plancherel twin: (1/4pi) int lam^2 f1 f2 + cross part when available
    if model.f1 is not None and model.f2 is not None:
        def s2(lam):
            return lam * lam * float(model.f1(lam)) * float(model.f2(lam))
        sp_head, _ = adaptive_quad(s2, 0.0, 5.0, q.abs_tol, q.rel_tol)
        sp_tail, _ = integrate_to_infinity(s2, 5.0, q.abs_tol, q.rel_tol)
        spectral = (sp_head + sp_tail) / (4.0 * math.pi)
        rho1 = model.meta.get("rho1")
        if model.meta.get("construction") == "regression" and rho1 is not None:
            def s2c(lam):
                return lam ** 4 * float(model.f2(lam)) ** 2
            c_head, _ = adaptive_quad(s2c, 0.0, 5.0, q.abs_tol, q.rel_tol)
            c_tail, _ = integrate_to_infinity(s2c, 5.0, q.abs_tol, q.rel_tol)
            spectral += rho1 ** 2 * (c_head + c_tail) / (4.0 * math.pi)
        out["var_I2_spectral"] = spectral
        out["var_I2_agreement"] = abs(spectral - var_i2)

    # fourth chaos: displayed limit (1/4pi) int [r1^3(-r2'') + r2^3(-r1'')]
    cls = classify(model)
    if cls not in (ModelClass.INDEPENDENT, ModelClass.IID):
        notes.append("var_I4 skipped: displayed limit assumes r12 = 0")
    elif model.dd_r1 is None:
        notes.append("var_I4 skipped: r1 not twice differentiable")
    else:
        def g4(t):
            return (float(model.r1(t)) ** 3 * (-float(model.dd_r2(t)))
                    + float(model.r2(t)) ** 3 * (-float(model.dd_r1(t))))
        h4, e4a = adaptive_quad(g4, 0.0, 1.0, q.abs_tol, q.rel_tol)
        t4, e4b = integrate_to_infinity(g4, 1.0, q.abs_tol, q.rel_tol,
                                        t_max=q.t_max or 25.0)
        out["var_I4_limit"] = (h4 + t4) / (2.0 * math.pi)
        out["var_I4_err"] = (e4a + e4b) / (2.0 * math.pi)
        if model.f1 is not None and model.f2 is not None:
            out["var_I4_spectral"] = _var_i4_spectral(model)
            out["var_I4_agreement"] = abs(out["var_I4_spectral"] - out["var_I4_limit"])
    out["notes"] = notes
    return out


def _var_i4_spectral(model, lam_max=12.0, n=4001):
    """Convolution form of the fourth-chaos limit:
    (1/4pi) * 2pi * int [ (f1~*3)(lam) lam^2 f2~ + (f2~*3)(lam) lam^2 f1~ ],
    with fi~ the symmetric extension fi(|lam|)/2 on the FFT grid."""
    lam = np.linspace(-lam_max, lam_max, n)
    dlam = lam[1] - lam[0]
    f1 = 0.5 * np.asarray(model.f1(np.abs(lam)), float)
    f2 = 0.5 * np.asarray(model.f2(np.abs(lam)), float)

    def conv3(f):
        c2 = np.convolve(f, f, mode="same") * dlam
        return np.convolve(c2, f, mode="same") * dlam

    integrand = conv3(f1) * lam ** 2 * f2 + conv3(f2) * lam ** 2 * f1
    return float(np.trapezoid(integrand, lam) * 2.0 * math.pi / (4.0 * math.pi))


# ----------------------------------------------------------------------
# two rough coordinates: smoothing bound
# ----------------------------------------------------------------------
@dataclass
class TwoAlphaBound:
    i_integral: float
    i_err: float
    bound_v_inf: float
    per_epsilon: list
    notes: list

    def to_dict(self):
        return dict(self.__dict__)


def _bump_autocorr(epsilon: float, n=2001):
    """Autocorrelation of the normalized bump kernel psi_eps; support
    [-2 eps, 2 eps].  Returns (offsets, weights) with sum(weights) = 1."""
    u = np.linspace(-1.0, 1.0, n)
    psi = bump_kernel(u)
    psi /= psi.sum()
    k2 = np.convolve(psi, psi[::-1], mode="full")
    off = (np.arange(k2.size) - (n - 1)) * (u[1] - u[0]) * epsilon
    return off, k2


def _smoothed_corr_grid(model, epsilon, t_grid):
    """Normalized covariance of X2 * psi_eps on t_grid."""
    off, w = _bump_autocorr(epsilon)
    lags = t_grid[None, :] - off[:, None]
    r = np.asarray(model.r2(lags), float)
    r_eps = w @ r
    r0 = float(w @ np.asarray(model.r2(-off), float))
    return r_eps / r0


def variance_bound_two_alpha(model: CovarianceModel, epsilon_grid,
                             q: QuadratureSpec = QuadratureSpec()) -> TwoAlphaBound:
    """Smoothing-limit upper bound I/(2 pi^2) on limsup Var(N_W)/T for two
    independent alpha-processes with alpha1 + alpha2 > 2, plus the
    epsilon-smoothed coupling values showing convergence as eps -> 0.
    """
    a1 = model.meta.get("x1", {}).get("alpha")
    a2 = model.meta.get("x2", {}).get("alpha")
    if a1 is None or a2 is None:
        raise ParameterError("variance_bound_two_alpha expects two alpha-processes")
    if a1 + a2 <= 2.0:
        raise HypothesisError(
            f"alpha1 + alpha2 = {a1 + a2:g} <= 2: the finite-second-moment "
            "hypothesis fails")
    eps = list(epsilon_grid)
    if not eps or any(e <= 0 for e in eps):
        raise ParameterError("epsilon_grid must be non-empty and positive")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ParameterError("epsilon_grid must be strictly decreasing")
    i_val, i_err, i_disagree = _coupling_integral(model, q)
    bound = i_val / (2.0 * math.pi ** 2)

    # epsilon sweep on a graded grid
    t_grid = np.unique(np.concatenate([
        np.geomspace(1e-4, 1.0, 600), np.linspace(1.0, 30.0, 1200)]))
    r1 = np.asarray(model.r1(t_grid), float)
    d_r1 = np.asarray(model.d_r1(t_grid), float)
    per_eps = []
    for e in eps:
        rho = _smoothed_corr_grid(model, e, t_grid)
        drho = np.gradient(rho, t_grid)
        with np.errstate(divide="ignore", invalid="ignore"):
            integrand = (drho / np.sqrt(np.maximum(1.0 - rho ** 2, 1e-300))
                         * d_r1 / np.sqrt(np.maximum(1.0 - r1 ** 2, 1e-300)))
        integrand = np.where(np.isfinite(integrand), integrand, 0.0)
        i_eps = float(np.trapezoid(integrand, t_grid))
        per_eps.append({"epsilon": float(e), "i_eps": i_eps,
                        "v_eps": i_eps / (2.0 * math.pi ** 2)})
    return TwoAlphaBound(
        i_integral=i_val, i_err=i_err + i_disagree, bound_v_inf=bound,
        per_epsilon=per_eps,
        notes=[f"alpha1={a1:g}, alpha2={a2:g}; bound is the eps -> 0 limit "
               "of the smoothed-variance functional"],
    )
