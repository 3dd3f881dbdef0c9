"""Theoretical moments of the winding count N_W([0, T]).

Expectation: E[N_W]/T = -r12'(0)/(2 pi), exact at every T.

Variance: writing f(t) = r2'(t)/sqrt(1 - r2^2(t)) and P(r) for the positive
orthant probability, the two-point Kac-Rice calculation plus the diagonal
term (the unsigned crossing count contributes E[#zeros with X1 > 0]/T
= 1/(2 pi) regardless of the cross-correlation) gives

  Var/T = 1/(2 pi) + (2 pi)^-2 int_0^T 2 (1 - t/T)
            [2 pi E_c(t)/sqrt(1 - r2^2) - r12'(0)^2] dt,

with E_c the conditional quadrant expectation evaluated through the
standardized closed form.  With A(T) and B(T) the integrals over [0, T]
of the bracket [...] and of t [...], the weight 2 (1 - t/T) splits as

  V_T = 1/(2 pi) + 2 (A(T) - B(T)/T)/(2 pi)^2,  V_inf = 1/(2 pi) + 2 A(inf)/(2 pi)^2,

V_inf being the T -> inf limit, so one quadrature from lag 0 serves every
horizon.  For independent coordinates the integrand collapses to
(-f')(t) P(r1(t)) and integration by parts yields the limit

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
# g_norm_sq is not called here: the benchmark tracer (perfbench/tracer.py)
# patches moments.g_norm_sq under --trace 1 and fails on a missing name
from .gauss import (conditional_cov, g_norm_sq, orthant_angle,  # noqa: F401
                    quadrant_closed)
from .pathgen import bump_kernel, next_fast_len
from .quadrature import adaptive_quad, integrate_to_infinity, tanh_sinh

__all__ = [
    "MomentReport",
    "WTRoute",
    "TwoAlphaBound",
    "expectation_rate",
    "variance_rate_general",
    "variance_rate_independent",
    "variance_WT_route",
    "chaos_projection_variances",
    "variance_bound_two_alpha",
]

TWO_PI = 2.0 * math.pi
# the epsilon sweep of the two-alpha bound: the bump takes 2 _BUMP_HALF + 1
# samples across [-eps, eps]; the lattice head covers [0, _HEAD eps], and
# the tail's kernel sums take a bump of 2 _TAIL_HALF + 1 samples
_BUMP_HALF = 1000
_HEAD = 8
_TAIL_HALF = 100
# absolute and relative tolerance of every improper integral here (the
# pinned constants are measured at it); integrate_to_infinity truncates
# from its default t_max of 25
_TOL = 1e-9


@dataclass
class MomentReport:
    expectation_rate: float
    v_t: Optional[float | list]  # a list for a ladder of horizons
    v_t_err: Optional[float | list]
    v_inf: Optional[float]
    v_inf_err: Optional[float]
    method: str
    horizon: Optional[float | list] = None
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
    d = model.d_r2(t)
    s = model.omr2sq(t)
    return -(model.dd_r2(t) * s + model.r2(t) * d * d) / s ** 1.5


def _i_integrand(model):
    """t -> r1' r2'/sqrt((1-r1^2)(1-r2^2)), on a float or an array."""
    def g(t):
        s = np.asarray(model.omr1sq(t) * model.omr2sq(t), float)
        # s = 0 only when 1 - r^2 underflows (t below ~1e-150); the
        # integrable-singularity mass there is far below eps
        ok = s > 0.0
        with np.errstate(invalid="ignore"):
            out = model.d_r1(t) * model.d_r2(t) / np.sqrt(np.where(ok, s, 1.0))
        return np.where(ok, out, 0.0)[()]
    return g


def _alpha_pair(model, check=False):
    """The coordinates' alpha exponents from ``meta`` (None where not an
    alpha-process).  ``check`` refuses what the two-alpha theory cannot
    take: no pair (CapabilityError) or alpha1 + alpha2 <= 2, where I
    diverges at 0 (HypothesisError)."""
    a1, a2 = (model.meta.get(c, {}).get("alpha") for c in ("x1", "x2"))
    if check and (a1 is None or a2 is None):
        raise CapabilityError("only two alpha-processes with alpha1 + alpha2 "
                              f"> 2 are handled, got {model.meta.get('label')}")
    if check and a1 + a2 <= 2.0:
        raise HypothesisError(f"alpha1 + alpha2 = {a1 + a2:g} <= 2: I diverges "
                              "at 0, so the finite-second-moment hypothesis fails")
    return a1, a2


def _singularity_power(model) -> int:
    """Power p for the substitution t = u^p that flattens the t^a endpoint
    singularity of the coupling integrand (a = (alpha1 + alpha2)/2 - 2,
    rough coordinates contributing their alpha, differentiable ones 2)."""
    a = 0.5 * sum(2.0 if v is None else v for v in _alpha_pair(model)) - 2.0
    if a >= 0.0 or a <= -1.0:
        return 1  # no singularity, or a divergent one the Cauchy check reports
    return int(math.ceil(1.0 / (1.0 + a))) + 1


def _from_zero(model, g, T, tol):
    """adaptive_quad of g over [0, T], to absolute and relative tolerance
    tol, under the substitution t = u^p of _singularity_power (the identity
    when p = 1)."""
    p = _singularity_power(model)
    return adaptive_quad(lambda u: g(u ** p) * p * u ** (p - 1), 0.0,
                         T ** (1.0 / p), tol, tol)


def _coupling_integral(model):
    """I = int_0^inf r1' r2'/sqrt((1-r1^2)(1-r2^2)) dt by two rules.

    Tanh-sinh handles the possible t^a endpoint singularity natively; the
    Gauss-Kronrod route gets it flattened by the substitution t = u^p.
    The tail past t = 1 is added by horizon doubling.  Returns
    (value, error, rule_disagreement).
    """
    g = _i_integrand(model)
    # Cauchy check near the origin in one call: c holds the integrals from
    # 1e-8 to 1e-6, 1e-4, 1e-2 and 1; the partials are their differences
    c, _ = adaptive_quad(g, 1e-8, [1e-6, 1e-4, 1e-2, 1.0], 1e-10, 1e-10)
    d1, d2 = abs(c[2] - c[1]), abs(c[0])
    if not math.isfinite(c[-1]) or (d2 > 1e-8 and d2 > 0.5 * d1):
        raise DivergenceError(
            "coupling integral I is not Riemann convergent at 0; the "
            "independent-case variance hypothesis (I convergent) fails")
    head_gk, e_gk = _from_zero(model, g, 1.0, _TOL * 1e-2)
    head_ts, _ = tanh_sinh(g, 0.0, 1.0, tol=1e-12)
    tail, e_tail = integrate_to_infinity(g, 1.0, _TOL, _TOL)
    disagreement = abs(head_gk - head_ts)
    value = head_gk + tail
    return value, e_gk + e_tail, disagreement


def variance_rate_independent(model: CovarianceModel) -> MomentReport:
    """Asymptotic variance rate for independent coordinates:
    V_inf = I/(2 pi^2).

    Also records the value (1/pi)(pi/2 + I) that intermediate published
    constants would give, for side-by-side reporting.  When X2 is not
    differentiable but both coordinates are rough alpha-processes with
    alpha1 + alpha2 > 2, the same integral is returned in bound mode (the
    smoothing-limit upper bound; see variance_bound_two_alpha, which
    shares the _alpha_pair check).
    """
    cls = classify(model)
    if cls not in (ModelClass.INDEPENDENT, ModelClass.IID):
        raise ParameterError(
            f"variance_rate_independent needs an independent model, got {cls.value}")
    model.require("d_r1", "d_r2")
    notes = []
    if not model.x2_differentiable:
        _alpha_pair(model, check=True)
        notes.append("bound mode: X2 non-differentiable; value is the "
                     "smoothing-limit bound, not a proven limit")
    i_val, i_err, i_disagree = _coupling_integral(model)
    v_inf = i_val / (2.0 * math.pi ** 2)
    return MomentReport(
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


# ----------------------------------------------------------------------
# general case
# ----------------------------------------------------------------------
def _ec_bracket(model, rho1_sq):
    """bracket(t) = 2 pi E_c(t)/sqrt(1 - r2^2(t)) - r12'(0)^2."""

    def bracket(t):
        corr, sd = conditional_cov(model, t).correlations()
        r34 = np.clip(corr[..., 2, 3], -1.0 + 1e-15, 1.0 - 1e-15)
        ec = sd[..., 0] * sd[..., 1] * quadrant_closed(
            corr[..., 0, 1], corr[..., 0, 2], corr[..., 0, 3],
            corr[..., 1, 2], corr[..., 1, 3], r34)
        return TWO_PI * ec / np.sqrt(model.omr2sq(t)) - rho1_sq

    return bracket


def variance_rate_general(model: CovarianceModel, T) -> MomentReport:
    """V_T and V_inf from A and B of the module docstring, in one pass.

    T is a horizon or a strictly increasing sequence of them; v_t, v_t_err
    and horizon follow its shape.  A and B are each one adaptive_quad call
    from lag 0 to every horizon, whose panels end at the horizons and at
    25 2^k; A(inf) adds integrate_to_infinity's tail past the last horizon.
    """
    if not model.x2_differentiable:
        raise CapabilityError("variance_rate_general needs a differentiable X2")
    model.require("d_r2", "dd_r2", "d_r12", "d_r1")
    horizons = np.atleast_1d(np.asarray(T, float))
    if not (horizons.ndim == 1 and horizons.size and 0 < horizons[0]
            and (np.diff(horizons) > 0).all() and horizons[-1] < math.inf):
        raise ParameterError("T must be a finite positive horizon or a "
                             f"strictly increasing sequence of them, got {T}")
    bracket = _ec_bracket(model, float(model.d_r12(0.0)) ** 2)
    a, e_a = adaptive_quad(bracket, 0.0, horizons, _TOL, _TOL)
    b, e_b = adaptive_quad(lambda t: t * bracket(t), 0.0, horizons, _TOL, _TOL)
    tail, e_tail = integrate_to_infinity(bracket, horizons[-1], _TOL, _TOL)
    c = 2.0 / TWO_PI ** 2
    v_t = (1.0 / TWO_PI + c * (a - b / horizons)).tolist()
    v_t_err = (c * (e_a + e_b / horizons)).tolist()
    scalar = np.ndim(T) == 0
    return MomentReport(
        expectation_rate=expectation_rate(model),
        v_t=v_t[0] if scalar else v_t,
        v_t_err=v_t_err[0] if scalar else v_t_err,
        v_inf=1.0 / TWO_PI + c * (float(a[-1]) + tail),
        v_inf_err=c * (float(e_a[-1]) + e_tail),
        method="general_integrand", horizon=T if scalar else horizons.tolist(),
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


def variance_WT_route(model: CovarianceModel, T: float) -> WTRoute:
    cls = classify(model)
    if cls not in (ModelClass.INDEPENDENT, ModelClass.IID):
        raise ParameterError("the W_T route is defined for independent models")
    model.require("d_r1", "d_r2", "dd_r2")
    if not 0 < T < math.inf:
        raise ParameterError(f"T must be a finite positive horizon, got {T}")

    def fprime_arccos(t):
        return -_minus_f_prime(model, t) * orthant_angle(model.r1(t))

    W_T = -adaptive_quad(fprime_arccos, 0.0, T, _TOL, _TOL)[0]
    w_t = adaptive_quad(lambda t: t * fprime_arccos(t), 0.0, T, _TOL, _TOL)[0]

    def f_of(t):
        return float(model.d_r2(t)) / math.sqrt(float(model.omr2sq(t)))

    partial_i = _from_zero(model, _i_integrand(model), T, _TOL)[0]
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
def chaos_projection_variances(model: CovarianceModel) -> dict:
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
        return model.d_r1(t) * model.d_r2(t) + model.d_r12(t) * model.d_r12(-t)

    i2, e2 = integrate_to_infinity(g2, 0.0, _TOL, _TOL)
    var_i2 = i2 / (2.0 * math.pi ** 2)
    out = {"var_I2_limit": var_i2, "var_I2_err": e2 / (2 * math.pi ** 2)}

    # Plancherel twin: (1/4pi) int lam^2 f1 f2 + cross part when available
    if model.f1 is not None and model.f2 is not None:
        def s2(lam):
            return lam * lam * model.f1(lam) * model.f2(lam)
        spectral = integrate_to_infinity(s2, 0.0, _TOL, _TOL)[0] / (4.0 * math.pi)
        rho1 = model.meta.get("rho1")
        if model.meta.get("construction") == "regression" and rho1 is not None:
            def s2c(lam):
                return lam ** 4 * model.f2(lam) ** 2
            spectral += rho1 ** 2 * integrate_to_infinity(
                s2c, 0.0, _TOL, _TOL)[0] / (4.0 * math.pi)
        out["var_I2_spectral"] = spectral
        out["var_I2_agreement"] = abs(spectral - var_i2)

    # fourth chaos: displayed limit (1/4pi) int [r1^3(-r2'') + r2^3(-r1'')]
    cls = classify(model)
    if cls not in (ModelClass.INDEPENDENT, ModelClass.IID):
        notes.append("var_I4 skipped: displayed limit assumes r12 = 0")
    elif model.dd_r1 is None or model.dd_r2 is None:
        which = "r1" if model.dd_r1 is None else "r2"
        notes.append(f"var_I4 skipped: {which} not twice differentiable")
    else:
        def g4(t):
            return (model.r1(t) ** 3 * -model.dd_r2(t)
                    + model.r2(t) ** 3 * -model.dd_r1(t))
        i4, e4 = integrate_to_infinity(g4, 0.0, _TOL, _TOL)
        out["var_I4_limit"] = i4 / (2.0 * math.pi)
        out["var_I4_err"] = e4 / (2.0 * math.pi)
        if model.f1 is not None and model.f2 is not None:
            out["var_I4_spectral"] = _var_i4_spectral(model)
            out["var_I4_agreement"] = abs(out["var_I4_spectral"] - out["var_I4_limit"])
    out["notes"] = notes
    return out


def _var_i4_spectral(model):
    """Convolution form of the fourth-chaos limit:
    (1/4pi) * 2pi * int [ (f1~*3)(lam) lam^2 f2~ + (f2~*3)(lam) lam^2 f1~ ],
    with fi~ the symmetric extension fi(|lam|)/2 on 4001 points of
    [-12, 12]; an iid model (f2 is f1) convolves once."""
    lam = np.linspace(-12.0, 12.0, 4001)
    dlam = lam[1] - lam[0]
    f1 = 0.5 * np.asarray(model.f1(np.abs(lam)), float)
    f2 = 0.5 * np.asarray(model.f2(np.abs(lam)), float)

    def conv3(f):
        c2 = np.convolve(f, f, mode="same") * dlam
        return np.convolve(c2, f, mode="same") * dlam

    conv1 = conv3(f1)
    conv2 = conv1 if model.f2 is model.f1 else conv3(f2)
    integrand = conv1 * lam ** 2 * f2 + conv2 * lam ** 2 * f1
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


def _bump_autocorr(half: int):
    """Autocorrelation K of the mass-normalized bump psi on [-1, 1] and its
    derivative K', sampled at u_j = j/half for |j| <= 2 half (K lives on
    [-2, 2]).  Returns (w, dw) with sum(w) = 1, scaled so that for the
    kernel of width eps

      (K_eps * f)(t)  ~ sum_j w_j f(t - eps u_j),
      (K_eps * f)'(t) ~ sum_j dw_j f(t - eps u_j) / eps:

    the derivative sits on the smooth bump, never on f."""
    u = np.arange(-half, half + 1) / half
    psi = bump_kernel(u)
    dpsi = np.zeros_like(psi)
    inner = slice(1, -1)  # psi' = -2u psi/(1 - u^2)^2 inside (-1, 1)
    dpsi[inner] = -2.0 * u[inner] * psi[inner] / (1.0 - u[inner] ** 2) ** 2
    mass_sq = psi.sum() ** 2
    return (np.convolve(psi, psi[::-1]) / mass_sq,
            np.convolve(psi, dpsi) / mass_sq)


def _one_minus_r2(model, t):
    """1 - r2(t), from 1 - r2^2 so that small lags keep their digits."""
    return model.omr2sq(t) / (1.0 + model.r2(t))


def _lattice_head(model, epsilon, g, w, dw):
    """int theta_eps' dtheta_1 over [0, _HEAD eps] on the lattice t_m =
    m delta, delta = eps/half, of the kernel (w, dw) of 4 half + 1 taps.
    g holds 1 - r2 at the lags n delta,
    -2 half <= n <= (_HEAD + 2) half, that the kernel sums reach, so r2's
    cusp always falls on a tap.  Returns (value, C(0)), C the covariance
    of the smoothed X2."""
    n = next_fast_len(g.size)
    spec = np.fft.rfft(g, n)
    # D = K_eps * (1 - r2) and eps D' at t_m; a circular length n >= g.size
    # leaves the outputs from w.size - 1 on clear of the wrap
    d, d_prime = (np.fft.irfft(spec * np.fft.rfft(k, n), n)[w.size - 1:g.size]
                  for k in (w, dw))
    c0 = 1.0 - d[0]
    omr = (d[1:] - d[0]) / c0  # 1 - rho_eps = (C(0) - C(t_m))/C(0)
    # theta_eps' = -rho_eps'/sqrt(1 - rho_eps^2), with rho_eps' = -D'/C(0);
    # at t = 0 (0/0) it comes from t_1, t_2: theta_eps' is even and smooth in t
    th = np.empty(d.size)
    th[1:] = d_prime[1:] / (epsilon * c0 * np.sqrt(omr * (2.0 - omr)))
    th[0] = (4.0 * th[1] - th[2]) / 3.0
    # theta_1 = arccos r1 by atan2, which keeps the digits of small lags,
    # where theta_1 ~ sqrt(2) t^(alpha1/2)
    t = np.arange(d.size) * (epsilon / ((w.size - 1) // 4))
    th1 = np.arctan2(np.sqrt(model.omr1sq(t)), model.r1(t))
    return float(0.5 * (th[1:] + th[:-1]) @ np.diff(th1)), c0


def _tail_integrand(model, epsilon, c0, w, dw):
    """t -> theta_eps'(t) theta_1'(t) on arrays t >= _HEAD eps.  There the
    kernel window [t - 2 eps, t + 2 eps] is clear of r2's cusp, so the
    coarse kernel (w, dw) resolves the smooth sums; C(0) = c0 comes from
    the head so that both parts share one normalisation."""
    half = (w.size - 1) // 4
    off = np.arange(-2 * half, 2 * half + 1) * (epsilon / half)

    def f(t):
        g = _one_minus_r2(model, t[None, :] - off[:, None])
        omr = (w @ g - (1.0 - c0)) / c0  # (D(t) - D(0))/C(0), D(0) = 1 - c0
        th = (dw @ g) / (epsilon * c0 * np.sqrt(omr * (2.0 - omr)))
        return th * -model.d_r1(t) / np.sqrt(model.omr1sq(t))

    return f


def variance_bound_two_alpha(model: CovarianceModel, epsilon_grid) -> TwoAlphaBound:
    """Smoothing-limit upper bound I/(2 pi^2) on limsup Var(N_W)/T for two
    independent alpha-processes with alpha1 + alpha2 > 2, plus the
    epsilon-smoothed coupling values showing convergence as eps -> 0.

    With X2 smoothed by the bump kernel psi_eps (correlation rho_eps),
    theta_eps = arccos rho_eps and theta_1 = arccos r1, each value is

      i_eps = int_0^inf theta_eps' dtheta_1.

    On [0, _HEAD eps] rho_eps and rho_eps' are kernel sums on the kernel's
    own lattice (step eps/_BUMP_HALF) and the integral is a product
    trapezoid against the closed-form theta_1, so theta_1's t^(alpha1/2)
    start is integrated exactly.  The rest goes to integrate_to_infinity.
    i_eps_err adds the head's change on a half-resolution bump to the
    tail's error estimate.  The model is refused as by _alpha_pair.
    """
    a1, a2 = _alpha_pair(model, check=True)
    eps = list(epsilon_grid)
    if not eps or any(e <= 0 for e in eps):
        raise ParameterError("epsilon_grid must be non-empty and positive")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ParameterError("epsilon_grid must be strictly decreasing")
    i_val, i_err, i_disagree = _coupling_integral(model)
    bound = i_val / (2.0 * math.pi ** 2)

    fine = _bump_autocorr(_BUMP_HALF)
    coarse = _bump_autocorr(_BUMP_HALF // 2)
    tail_kernel = _bump_autocorr(_TAIL_HALF)
    n = np.arange(-2 * _BUMP_HALF, (_HEAD + 2) * _BUMP_HALF + 1)
    per_eps = []
    for e in eps:
        g = _one_minus_r2(model, n * (e / _BUMP_HALF))
        head, c0 = _lattice_head(model, e, g, *fine)
        head_coarse, _ = _lattice_head(model, e, g[::2], *coarse)
        tail, tail_err = integrate_to_infinity(
            _tail_integrand(model, e, c0, *tail_kernel), _HEAD * e, _TOL, _TOL)
        i_eps = head + tail
        per_eps.append({"epsilon": float(e), "i_eps": i_eps,
                        "i_eps_err": abs(head - head_coarse) + tail_err,
                        "v_eps": i_eps / (2.0 * math.pi ** 2)})
    return TwoAlphaBound(
        i_integral=i_val, i_err=i_err + i_disagree, bound_v_inf=bound,
        per_epsilon=per_eps,
        notes=[f"alpha1={a1:g}, alpha2={a2:g}; bound is the eps -> 0 limit "
               "of the smoothed-variance functional"],
    )
