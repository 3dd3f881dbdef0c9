"""Bivariate stationary Gaussian covariance models.

A model is the triple (r1, r2, r12) of lag functions with the unit-variance
normalization r1(0) = r2(0) = 1, r12(0) = 0 and, when the second coordinate
is differentiable, the time normalization -r2''(0) = 1.  Cross-covariance
convention: r12(t) = E[X1(t) X2(0)], so E[X1(0) X2(t)] = r12(-t).

Built-in families: Bargmann-Fock exp(-t^2/2), Ornstein-Uhlenbeck exp(-|t|),
and the rough family exp(-|t|^alpha) for 0 < alpha < 2.  Model constructors
cover the i.i.d., independent and derivative-regression sub-models.

Note on the regression family: the construction X1 = rho1*X2' + rho2*Z with
Z an independent process forces r12(t) = rho1 * r2'(t).  (The alternative
placement rho2 * r2'(t) does not define a positive semidefinite joint law
together with r1 = -rho1^2 r2'' + rho2^2 rZ; Monte Carlo on the constructive
law confirms the rho1 placement.)  Both rho1 and rho2 are recorded in the
model metadata.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import CapabilityError, ParameterError
from .quadrature import adaptive_quad

__all__ = [
    "CovFamily",
    "CovarianceModel",
    "ModelClass",
    "ConditionReport",
    "bargmann_fock",
    "ornstein_uhlenbeck",
    "alpha_family",
    "family_from_name",
    "make_iid_model",
    "make_independent_model",
    "make_regression_model",
    "make_alpha_process",
    "classify",
    "check_conditions",
    "model_from_spec",
]

_ZERO = lambda t: np.zeros_like(np.asarray(t, dtype=float))
# condition (A) and the integrability check look at lags up to _LAG_MAX
_LAG_MAX = 40.0


# ----------------------------------------------------------------------
# scalar covariance families
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CovFamily:
    """One stationary scalar correlation function r with r(0) = 1.

    Derivatives are analytic when available; a family is differentiable
    (in quadratic mean, -r''(0) finite) exactly when it provides r''.
    ``f`` is the one-sided spectral density on [0, inf) in the convention
    r(t) = int_0^inf cos(t*lam) f(lam) dlam, so int f = 1.
    """

    name: str
    r: Callable
    d_r: Optional[Callable] = None
    dd_r: Optional[Callable] = None
    d3_r: Optional[Callable] = None
    d4_r: Optional[Callable] = None
    f: Optional[Callable] = None
    params: dict = field(default_factory=dict)
    # 1 - r(t)^2 free of cancellation (expm1-based for the exp families);
    # the variance integrands divide by it arbitrarily close to t = 0
    one_minus_r_sq: Optional[Callable] = None

    @property
    def differentiable(self) -> bool:
        return self.dd_r is not None


def bargmann_fock() -> CovFamily:
    """r(t) = exp(-t^2/2); analytic, -r''(0) = 1.

    Arguments are clipped to [-40, 40]: exp(-t^2/2) is already 0.0 past
    |t| ~ 38.6, so no finite value changes, and t^2 or t^4 cannot
    overflow into inf * 0 = NaN at huge lags."""
    def clipped(fn):
        # the outer asarray keeps a 0-d argument an array: t ** 2 on a
        # numpy scalar can differ from the array's in the last bit
        return lambda t: fn(np.asarray(np.asarray(t, float).clip(-40.0, 40.0)))

    e = lambda t: np.exp(-t ** 2 / 2.0)
    return CovFamily(
        name="bargmann_fock",
        r=clipped(e),
        d_r=clipped(lambda t: -t * e(t)),
        dd_r=clipped(lambda t: (t ** 2 - 1.0) * e(t)),
        d3_r=clipped(lambda t: t * (3.0 - t ** 2) * e(t)),
        d4_r=clipped(lambda t: (t ** 4 - 6.0 * t ** 2 + 3.0) * e(t)),
        f=clipped(lambda lam: np.sqrt(2.0 / np.pi) * e(lam)),
        one_minus_r_sq=clipped(lambda t: -np.expm1(-t ** 2)),
    )


def ornstein_uhlenbeck() -> CovFamily:
    """r(t) = exp(-|t|); the alpha = 1 rough process."""
    r = lambda t: np.exp(-np.abs(np.asarray(t, float)))
    # derivative away from the origin only
    d_r = lambda t: -np.sign(np.asarray(t, float)) * np.exp(-np.abs(np.asarray(t, float)))
    return CovFamily(
        name="ou",
        r=r,
        d_r=d_r,
        f=lambda lam: (2.0 / np.pi) / (1.0 + np.asarray(lam, float) ** 2),
        params={"alpha": 1.0},
        one_minus_r_sq=lambda t: -np.expm1(-2.0 * np.abs(np.asarray(t, float))),
    )


def alpha_family(alpha: float) -> CovFamily:
    """r(t) = exp(-|t|^alpha) for 0 < alpha < 2.

    Satisfies r = 1 - t^alpha + o(t^alpha) and r' = -alpha t^(alpha-1) + o
    near zero (constant C = 1), r -> 0 at infinity; non-differentiable in
    quadratic mean for alpha < 2.
    """
    if not (0.0 < alpha < 2.0):
        raise ParameterError(f"alpha must lie in (0, 2), got {alpha}")
    if alpha == 1.0:
        fam = ornstein_uhlenbeck()
        return CovFamily(**{**fam.__dict__, "name": "alpha", "params": {"alpha": 1.0}})

    def r(t):
        return np.exp(-np.abs(np.asarray(t, float)) ** alpha)

    def d_r(t):
        t = np.asarray(t, float)
        a = np.abs(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = -alpha * np.sign(t) * a ** (alpha - 1.0) * np.exp(-(a ** alpha))
        return out

    return CovFamily(
        name="alpha", r=r, d_r=d_r, params={"alpha": alpha},
        one_minus_r_sq=lambda t: -np.expm1(-2.0 * np.abs(np.asarray(t, float)) ** alpha),
    )


def _required(entry, key, what, number=False):
    """entry[key], or a ParameterError naming the missing or non-numeric
    entry of a model spec."""
    if not isinstance(entry, dict) or key not in entry:
        raise ParameterError(f"{what} needs '{key}'")
    v = entry[key]
    if number and (isinstance(v, bool) or not isinstance(v, (int, float))):
        raise ParameterError(f"{what}: '{key}' must be a number, got {v!r}")
    return v


def _refuse_unknown(entry, keys, what):
    """A ParameterError naming the keys of a model-spec entry that are not
    in keys, so that nothing in a spec is silently dropped."""
    unknown = sorted(set(entry) - set(keys))
    if unknown:
        raise ParameterError(f"unknown keys in {what}: {unknown}")


# family name -> (constructor, the numeric parameters it takes in order)
_FAMILIES = {
    "bargmann_fock": (bargmann_fock, ()),
    "ou": (ornstein_uhlenbeck, ()),
    "alpha": (alpha_family, ("alpha",)),
}


def family_from_name(name: str, **params) -> CovFamily:
    if name not in _FAMILIES:
        raise ParameterError(f"unknown covariance family '{name}' "
                             f"(available: {sorted(_FAMILIES)})")
    make, keys = _FAMILIES[name]
    what = f"family '{name}'"
    _refuse_unknown(params, keys, what)
    return make(*(_required(params, k, what, number=True) for k in keys))


# ----------------------------------------------------------------------
# the bivariate model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CovarianceModel:
    """Law of the planar process (X1, X2); immutable and thread-safe.

    All function fields accept scalars or ndarrays.  Optional derivative
    fields are None when the family does not provide them; X2 is
    differentiable exactly when r2'' is provided.
    """

    r1: Callable
    r2: Callable
    r12: Callable
    d_r1: Optional[Callable] = None
    d_r2: Optional[Callable] = None
    dd_r2: Optional[Callable] = None
    d_r12: Optional[Callable] = None
    dd_r1: Optional[Callable] = None
    f1: Optional[Callable] = None
    f2: Optional[Callable] = None
    one_minus_r1_sq: Optional[Callable] = None
    one_minus_r2_sq: Optional[Callable] = None
    meta: dict = field(default_factory=dict)

    @property
    def x2_differentiable(self) -> bool:
        return self.dd_r2 is not None

    def omr1sq(self, t):
        """1 - r1(t)^2, cancellation-free when the family provides it."""
        if self.one_minus_r1_sq is not None:
            return self.one_minus_r1_sq(t)
        r = np.asarray(self.r1(t), float)
        return 1.0 - r * r

    def omr2sq(self, t):
        if self.one_minus_r2_sq is not None:
            return self.one_minus_r2_sq(t)
        r = np.asarray(self.r2(t), float)
        return 1.0 - r * r

    def require(self, *names):
        for n in names:
            if getattr(self, n) is None:
                raise CapabilityError(
                    f"model '{self.meta.get('label', '?')}' lacks {n}; "
                    "the operation needs it")
        return self


class ModelClass(Enum):
    CIRCULARLY_SYMMETRIC = "CircularlySymmetric"
    REFLEXIONAL_SYMMETRIC = "ReflexionalSymmetric"
    INDEPENDENT = "Independent"
    IID = "IID"
    GENERAL = "General"


def _check_x2(fam: CovFamily):
    if not fam.differentiable:
        raise CapabilityError(
            f"family '{fam.name}' is not differentiable in quadratic mean; "
            "it cannot be the X2 coordinate of a winding model")
    if abs(float(fam.dd_r(0.0)) + 1.0) > 1e-10:
        raise ParameterError("second coordinate not normalized: -r2''(0) != 1")


def make_independent_model(fam1: CovFamily, fam2: CovFamily) -> CovarianceModel:
    """Independent coordinates: r12 identically zero."""
    if fam2.differentiable:
        _check_x2(fam2)
    return CovarianceModel(
        r1=fam1.r, r2=fam2.r, r12=_ZERO,
        d_r1=fam1.d_r, d_r2=fam2.d_r, dd_r2=fam2.dd_r,
        d_r12=_ZERO, dd_r1=fam1.dd_r,
        f1=fam1.f, f2=fam2.f,
        one_minus_r1_sq=fam1.one_minus_r_sq,
        one_minus_r2_sq=fam2.one_minus_r_sq,
        meta={"construction": "independent",
              "x1": {"family": fam1.name, **fam1.params},
              "x2": {"family": fam2.name, **fam2.params},
              "label": f"{fam1.name} x {fam2.name}"},
    )


def make_iid_model(fam: CovFamily) -> CovarianceModel:
    """Two independent copies of the same law."""
    m = make_independent_model(fam, fam)
    m.meta["construction"] = "iid"
    m.meta["label"] = f"iid {fam.name}"
    return m


def make_alpha_process(alpha1: float, alpha2: float = None) -> CovarianceModel:
    """Independent alpha-processes (both coordinates rough when alpha < 2)."""
    a2 = alpha1 if alpha2 is None else alpha2
    return make_independent_model(alpha_family(alpha1), alpha_family(a2))


def make_regression_model(fam2: CovFamily, rz: CovFamily, rho1: float) -> CovarianceModel:
    """Correlated model X1 = rho1*X2'(t) + rho2*Z(t), rho2 = sqrt(1-rho1^2).

    Requires a twice-differentiable X2 family (normalized to -r2''(0)=1)
    and a correlation function rZ with rZ(0) = 1.  The induced covariances
    are r1 = -rho1^2 r2'' + rho2^2 rZ and r12 = rho1 r2' (see module note).
    """
    if not abs(rho1) < 1.0:
        raise ParameterError(f"rho1 must satisfy |rho1| < 1, got {rho1}")
    _check_x2(fam2)
    if abs(float(rz.r(0.0)) - 1.0) > 1e-12:
        raise ParameterError("rZ(0) must equal 1")
    rho2 = math.sqrt(1.0 - rho1 ** 2)
    p1sq, p2sq = rho1 ** 2, rho2 ** 2

    r1 = lambda t: -p1sq * fam2.dd_r(t) + p2sq * rz.r(t)
    d_r1 = None
    if fam2.d3_r is not None and rz.d_r is not None:
        d_r1 = lambda t: -p1sq * fam2.d3_r(t) + p2sq * rz.d_r(t)
    dd_r1 = None
    if fam2.d4_r is not None and rz.dd_r is not None:
        dd_r1 = lambda t: -p1sq * fam2.d4_r(t) + p2sq * rz.dd_r(t)
    r12 = lambda t: rho1 * fam2.d_r(t)
    d_r12 = lambda t: rho1 * fam2.dd_r(t)
    f1 = None
    if fam2.f is not None and rz.f is not None:
        f1 = lambda lam: (p1sq * np.asarray(lam, float) ** 2 * fam2.f(lam)
                          + p2sq * rz.f(lam))
    return CovarianceModel(
        r1=r1, r2=fam2.r, r12=r12,
        d_r1=d_r1, d_r2=fam2.d_r, dd_r2=fam2.dd_r,
        d_r12=d_r12, dd_r1=dd_r1,
        f1=f1, f2=fam2.f,
        one_minus_r2_sq=fam2.one_minus_r_sq,
        meta={"construction": "regression", "rho1": rho1, "rho2": rho2,
              "x2": {"family": fam2.name, **fam2.params},
              "rz": {"family": rz.name, **rz.params},
              "label": f"regression(rho1={rho1:g}, x2={fam2.name}, rz={rz.name})"},
    )


# ----------------------------------------------------------------------
# classification and condition diagnostics
# ----------------------------------------------------------------------
def classify(model: CovarianceModel) -> ModelClass:
    """Sort the model into the sub-model taxonomy by evaluating the lag
    functions on a grid; lag functions within 1e-12 count as equal."""
    g = np.concatenate([np.linspace(0.05, 8.0, 64), [0.317, 1.414, 2.718]])
    r12p, r12m = np.asarray(model.r12(g), float), np.asarray(model.r12(-g), float)
    cross_zero = max(np.max(np.abs(r12p)), np.max(np.abs(r12m))) <= 1e-12
    same_marg = np.max(np.abs(np.asarray(model.r1(g)) - np.asarray(model.r2(g)))) <= 1e-12
    if cross_zero:
        return ModelClass.IID if same_marg else ModelClass.INDEPENDENT
    if same_marg and np.max(np.abs(r12m + r12p)) <= 1e-12:
        return ModelClass.CIRCULARLY_SYMMETRIC
    if same_marg and np.max(np.abs(r12m - r12p)) <= 1e-12:
        return ModelClass.REFLEXIONAL_SYMMETRIC
    return ModelClass.GENERAL


@dataclass
class ConditionReport:
    """Advisory numerical diagnostics for the moment/CLT hypotheses.

    Never a hard failure: the hypotheses are asymptotic statements that a
    finite computation can only probe.
    """

    geman_status: str
    geman_values: list
    a_status: str
    a_m_l2: Optional[float]
    a_m_l2_tail: Optional[float]
    a_m_at_lag_max: Optional[float]
    spectral_f1: bool
    spectral_f2: bool
    integrability_status: str
    integrability_value: Optional[float]
    integrability_tail: Optional[float]
    notes: list

    def to_dict(self):
        return dict(self.__dict__)


def check_conditions(model: CovarianceModel) -> ConditionReport:
    notes = []
    # Geman: convergence at zero of (r2''(t) - r2''(0))/t
    if model.x2_differentiable:
        dd0 = float(model.dd_r2(0.0))
        vals = []
        delta0 = 0.5
        for k in range(1, 14):
            lo, hi = delta0 * 2.0 ** (-k), delta0
            v, _ = adaptive_quad(
                lambda t: (model.dd_r2(t) - dd0) / t, lo, hi,
                abs_tol=1e-11, rel_tol=1e-11)
            vals.append(v)
        changes = np.abs(np.diff(vals))
        geman_status = "converged" if changes[-1] < 1e-6 and changes[-1] <= changes[0] else "suspect"
        geman_vals = [float(v) for v in vals]
    else:
        geman_status = "not applicable"
        geman_vals = []
        notes.append("X2 not differentiable: Geman check skipped")

    # condition (A): m in L^2 and m -> 0
    comps = [model.r2, model.r1, model.r12]
    names = ["r2", "r1", "r12"]
    for fn, nm in [(model.dd_r2, "r2''"), (model.d_r12, "r12'")]:
        if fn is not None:
            comps.append(fn)
            names.append(nm)
        else:
            notes.append(f"condition (A): {nm} unavailable, omitted from m(t)")
    grid = np.linspace(1e-6, _LAG_MAX, 4001)
    m = np.max(np.abs(np.vstack([np.asarray(c(grid), float) for c in comps])), axis=0)
    m_l2 = float(np.trapezoid(m ** 2, grid))
    half = grid >= _LAG_MAX / 2.0
    m_l2_tail = float(np.trapezoid(m[half] ** 2, grid[half]))
    a_status = "plausible" if (m[-1] < 1e-3 and m_l2_tail < 1e-6 * max(m_l2, 1.0)) else "suspect"

    # integrability set for the variance limit: r2^2, (r12')^2, (r2')^2, |r1 r2''|
    have = model.d_r12 is not None and model.d_r2 is not None and model.dd_r2 is not None
    if have:
        def integrand(t):
            return (model.r2(t) ** 2 + model.d_r12(t) ** 2 + model.d_r2(t) ** 2
                    + np.abs(model.r1(t) * model.dd_r2(t)))
        v_half, _ = adaptive_quad(integrand, 0.0, _LAG_MAX / 2.0, 1e-9, 1e-9)
        v_tail, _ = adaptive_quad(integrand, _LAG_MAX / 2.0, _LAG_MAX, 1e-9, 1e-9)
        integ_status = "plausible" if v_tail < max(1e-8, 1e-6 * v_half) else "suspect"
        integ_val, integ_tail = 2.0 * (v_half + v_tail), 2.0 * v_tail
    else:
        integ_status, integ_val, integ_tail = "not checkable", None, None
        notes.append("integrability check needs r2', r2'', r12'")

    return ConditionReport(
        geman_status=geman_status, geman_values=geman_vals,
        a_status=a_status, a_m_l2=m_l2, a_m_l2_tail=m_l2_tail,
        a_m_at_lag_max=float(m[-1]),
        spectral_f1=model.f1 is not None, spectral_f2=model.f2 is not None,
        integrability_status=integ_status, integrability_value=integ_val,
        integrability_tail=integ_tail, notes=notes,
    )


# ----------------------------------------------------------------------
# model specification files (JSON-compatible)
# ----------------------------------------------------------------------
def _family_from_entry(entry: dict) -> CovFamily:
    name = _required(entry, "family", "covariance entry")
    return family_from_name(name, **{k: v for k, v in entry.items() if k != "family"})


def model_from_spec(spec) -> CovarianceModel:
    """Build a model from its structured-text description.

    Accepted shapes (see README for the schema); a key that the shape
    does not read raises ParameterError:
      {"x1": {"family": "ou"}, "x2": {"family": "bargmann_fock"},
       "cross": "independent"}
      {"x": {"family": "bargmann_fock"}, "cross": "iid"}
      {"x2": {"family": "bargmann_fock"}, "cross": {"type": "regression",
       "rho1": 0.3, "rz": {"family": "bargmann_fock"}}}
    """
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as e:
            raise ParameterError(f"model spec is not valid JSON: {e}") from e
    if not isinstance(spec, dict):
        raise ParameterError(f"model spec must be a JSON object, got {spec!r}")
    cross = spec.get("cross", "independent")
    if cross == "iid":
        x = "x" if spec.get("x") else "x2"
        _refuse_unknown(spec, ("cross", x), "iid model")
        return make_iid_model(_family_from_entry(
            _required(spec, x, "iid model ('x' or 'x2')")))
    if cross == "independent":
        _refuse_unknown(spec, ("cross", "x1", "x2"), "independent model")
        return make_independent_model(
            _family_from_entry(_required(spec, "x1", "independent model")),
            _family_from_entry(_required(spec, "x2", "independent model")))
    if isinstance(cross, dict) and cross.get("type") == "regression":
        _refuse_unknown(spec, ("cross", "x2"), "regression model")
        _refuse_unknown(cross, ("type", "rho1", "rz"), "regression cross")
        return make_regression_model(
            _family_from_entry(_required(spec, "x2", "regression model")),
            _family_from_entry(_required(cross, "rz", "regression cross")),
            float(_required(cross, "rho1", "regression cross", number=True)),
        )
    raise ParameterError(f"unrecognized cross specification: {cross!r}")

