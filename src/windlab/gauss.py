"""Exact Gaussian computations: quadrant expectations of the form
E[X1 X2 1{X3>0} 1{X4>0}], the orthant angle, the conditional
variance-covariance matrix of (X2'(0), X2'(t), X1(0), X1(t)) given two zeros
of X2, and the Hermite coefficient tables of the winding-number expansion.

Closed form for the quadrant expectation (unit-variance jointly Gaussian
(X1..X4) with correlations rho_ij):

    rho12/4 + rho12*arcsin(rho34)/(2 pi)
    + [rho13*rho24 + rho14*rho23 - rho34*(rho13*rho23 + rho14*rho24)]
      / (2 pi sqrt(1 - rho34^2))

The last (exchange) product does not appear in some published statements of
this identity; it is required, as both the diagram expansion and Monte Carlo
confirm (see tests).  It vanishes whenever X3 or X4 is uncorrelated with
(X1, X2), which covers the independent-model winding computation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covmodel import CovarianceModel
from .errors import (CapabilityError, DegenerateConditioningError, DomainError,
                     ParameterError, SingularityError)

__all__ = [
    "orthant_angle",
    "QuadrantCorr",
    "quadrant_closed",
    "quadrant_fault",
    "quadrant_expectation",
    "quadrant_expectation_series",
    "ConditionalCov",
    "conditional_cov",
    "generic_regression",
    "joint_cov_matrix",
    "ChaosCoefficients",
    "chaos_coefficients",
    "dirac_coefficients",
    "indicator_coefficients",
    "g_norm_sq",
]

SQ2PI = math.sqrt(2.0 * math.pi)

_PSD_TOL = -1e-12
# the closed form carries 1/sqrt(1 - rho34^2); reject the near-singular
# band rather than extrapolate (callers that need t -> 0 limits use a
# dedicated expansion instead)
_RHO34_GUARD = 1e-6
# diagram-series order: the order-80 remainder reaches ~7.5e-9 at
# |rho34| = 0.9, above the 1e-10 oracle gate; order 160 is below 1e-15
_SERIES_ORDER = 160


# ----------------------------------------------------------------------
# orthant angle
# ----------------------------------------------------------------------
def orthant_angle(r):
    """arccos(sqrt((1-r)/2)) = pi P{X(0) > 0, X(t) > 0} for correlation r,
    elementwise on arrays: the orthant probability 1/4 + arcsin(r)/(2 pi)
    in angle units, the form the variance formulas of moments consume."""
    r = np.asarray(r, float)
    bad = ~((-1.0 <= r) & (r <= 1.0))
    if bad.any():
        raise DomainError(f"correlation must lie in [-1, 1], got {r[bad].flat[0]}")
    return np.arccos(np.sqrt((1.0 - r) / 2.0))[()]


# ----------------------------------------------------------------------
# quadrant expectation
# ----------------------------------------------------------------------
# the flat 4x4 correlation matrix as entries of (1, rho12, ..., rho34)
_GATHER = [0, 1, 2, 3, 1, 0, 4, 5, 2, 4, 0, 6, 3, 5, 6, 0]


@dataclass(frozen=True)
class QuadrantCorr:
    """Correlations of a centered unit-variance Gaussian 4-vector, or of
    one such vector per entry when the fields are 1-d arrays of one
    length."""

    rho12: float
    rho13: float
    rho14: float
    rho23: float
    rho24: float
    rho34: float

    def values(self) -> np.ndarray:
        """The correlations in field order, shape (6,) or (sets, 6)."""
        return np.array(list(self.__dict__.values()), float).T

    def matrix(self) -> np.ndarray:
        """The correlation matrix, shape (4, 4) or (sets, 4, 4)."""
        v = self.values()
        ext = np.empty(v.shape[:-1] + (7,))
        ext[..., 0] = 1.0
        ext[..., 1:] = v
        return ext[..., _GATHER].reshape(v.shape[:-1] + (4, 4))


def quadrant_fault(c: QuadrantCorr, what: str):
    """The (index, error) of the first set of ``c`` (index 0 for scalar
    fields) that is refused, or None when every set is valid.  Refused
    are correlations outside [-1, 1] (NaN included), a matrix that is not
    positive semidefinite, and |rho34| within _RHO34_GUARD of 1, where
    ``what`` (the closed form or the series) divides by sqrt(1 - rho34^2).
    The error is the one a scalar check of that set gives."""
    v = c.values()
    in_range = (np.abs(v) <= 1.0).all(axis=-1)
    m = c.matrix()
    if not in_range.all():  # eigvalsh gets the identity for a refused set
        m = np.where(in_range[..., None, None], m, np.eye(4))
    emin = np.linalg.eigvalsh(m).min(axis=-1)
    r34 = np.abs(v[..., 5])
    bad = ~in_range | (emin < _PSD_TOL) | (r34 > 1.0 - _RHO34_GUARD)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    if not in_range.flat[i]:
        return i, DomainError("correlations must lie in [-1, 1]")
    if emin.flat[i] < _PSD_TOL:
        return i, DomainError("correlation matrix not positive semidefinite "
                              f"(min eig {float(emin.flat[i]):.2e})")
    return i, SingularityError(
        f"|rho34| = {float(r34.flat[i])} too close to 1 for the {what}")


def _check_quadrant(c: QuadrantCorr, what: str) -> None:
    """Raise the error of the first set that ``quadrant_fault`` refuses."""
    fault = quadrant_fault(c, what)
    if fault is not None:
        raise fault[1]


def quadrant_closed(r12, r13, r14, r23, r24, r34):
    """The closed form of the module docstring, unvalidated and elementwise
    on arrays: the caller guarantees a PSD correlation structure with
    |r34| < 1."""
    s = np.sqrt(1.0 - r34 * r34)
    direct = r13 * r24 + r14 * r23
    exchange = r13 * r23 + r14 * r24
    return (r12 / 4.0
            + r12 * np.arcsin(r34) / (2.0 * math.pi)
            + (direct - r34 * exchange) / (2.0 * math.pi * s))


def quadrant_expectation(c: QuadrantCorr) -> float:
    """E[X1 X2 1{X3>0} 1{X4>0}] in closed form (module docstring),
    elementwise on array fields."""
    _check_quadrant(c, "closed form")
    return quadrant_closed(c.rho12, c.rho13, c.rho14, c.rho23, c.rho24, c.rho34)


def quadrant_expectation_series(c: QuadrantCorr, order: int = _SERIES_ORDER) -> float:
    """Diagram-formula series for the quadrant expectation, elementwise on
    array fields: one pass over the orders serves every set, each set
    getting the bits a scalar call gives it.

    Grouped by powers of rho34; ``order`` counts how many indicator-coefficient
    terms each constituent sum keeps (powers of rho34 up to 2*order + 1),
    so the partial sum converges to quadrant_expectation as order grows.
    Coefficients are generated by the central-binomial recurrence
    b_j = C(2j, j)/4^j; the three sums have per-power weights
    b_j/((2j+1) 2 pi) (with arcsin limit), b_j/(2 pi) (inverse square root)
    and -b_j/(2 pi) (exchange).
    """
    _check_quadrant(c, "series")
    if order < 0:
        raise ParameterError("order must be nonnegative")
    x = c.rho34
    direct = c.rho13 * c.rho24 + c.rho14 * c.rho23
    exchange = c.rho13 * c.rho23 + c.rho14 * c.rho24
    twopi = 2.0 * math.pi
    total = c.rho12 / 4.0 + direct / twopi  # power-0 terms
    b = 1.0
    # float_power is the C library's pow on arrays and scalars alike;
    # np.power's SIMD loop for float arrays differs in the last bits
    for j in range(order + 1):
        xodd = np.float_power(x, 2 * j + 1)
        total += c.rho12 * b / ((2 * j + 1) * twopi) * xodd
        total -= exchange * b / twopi * xodd
        bnext = b * (2 * j + 1) / (2 * j + 2)
        if j < order:
            total += direct * bnext / twopi * np.float_power(x, 2 * j + 2)
        b = bnext
    return total


# ----------------------------------------------------------------------
# conditional covariance (two pinned zeros of X2)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConditionalCov:
    """4x4 conditional covariance of (X2'(0), X2'(t), X1(0), X1(t)) given
    X2(0) = X2(t) = 0; ``matrix`` has shape t.shape + (4, 4)."""

    matrix: np.ndarray

    def correlations(self):
        sd = np.sqrt(np.diagonal(self.matrix, axis1=-2, axis2=-1))
        return self.matrix / (sd[..., :, None] * sd[..., None, :]), sd


def joint_cov_matrix(model: CovarianceModel, t: float) -> np.ndarray:
    """Unconditional 6x6 covariance of
    (X2'(0), X2'(t), X1(0), X1(t), X2(0), X2(t))."""
    model.require("d_r2", "dd_r2", "d_r12")
    r2, d_r2, dd_r2 = (float(model.r2(t)), float(model.d_r2(t)),
                       float(model.dd_r2(t)))
    r1 = float(model.r1(t))
    r12p, r12m = float(model.r12(t)), float(model.r12(-t))
    dp, dm, d0 = (float(model.d_r12(t)), float(model.d_r12(-t)),
                  float(model.d_r12(0.0)))
    m = np.empty((6, 6))
    # order: A = (X2'(0), X2'(t), X1(0), X1(t)), B = (X2(0), X2(t))
    m[0] = [1.0, -dd_r2, -d0, -dp, 0.0, -d_r2]
    m[1] = [-dd_r2, 1.0, -dm, -d0, d_r2, 0.0]
    m[2] = [-d0, -dm, 1.0, r1, 0.0, r12m]
    m[3] = [-dp, -d0, r1, 1.0, r12p, 0.0]
    m[4] = [0.0, d_r2, 0.0, r12p, 1.0, r2]
    m[5] = [-d_r2, 0.0, r12m, 0.0, r2, 1.0]
    return m


def conditional_cov(model: CovarianceModel, t) -> ConditionalCov:
    """Closed-form conditional covariance matrix at the lag t, or at every
    lag of an array t (matrix shape t.shape + (4, 4)).

    Entry conventions follow E[X1(t)X2(0)] = r12(t): the (2,3) and (2,4)
    entries carry r12'(-t) and -r12(t) respectively, which reduces to the
    symmetric textbook display when r12 is odd or identically zero.
    """
    if not model.x2_differentiable:
        raise CapabilityError("conditional_cov needs a differentiable X2")
    model.require("d_r2", "dd_r2", "d_r12")
    t = np.asarray(t, float)
    r2 = np.asarray(model.r2(t), float)
    q = np.asarray(model.omr2sq(t), float)
    bad = (np.abs(r2) >= 1.0 - 1e-14) | (q <= 0.0)
    if bad.any():
        raise DegenerateConditioningError(
            f"|r2({t[bad].flat[0]})| = {np.abs(r2[bad]).flat[0]}: "
            "conditioning block singular")
    d_r2, dd_r2, r1 = model.d_r2(t), model.dd_r2(t), model.r1(t)
    r12p, r12m = model.r12(t), model.r12(-t)
    dp, dm, d0 = model.d_r12(t), model.d_r12(-t), float(model.d_r12(0.0))
    m = np.empty(t.shape + (4, 4))
    m[..., 0, 0] = m[..., 1, 1] = 1.0 - d_r2 ** 2 / q
    m[..., 0, 1] = -dd_r2 - r2 * d_r2 ** 2 / q
    m[..., 0, 2] = -d0 + d_r2 * r12m / q
    m[..., 0, 3] = -dp - r2 * d_r2 * r12p / q
    m[..., 1, 2] = -dm + r2 * d_r2 * r12m / q
    m[..., 1, 3] = -d0 - d_r2 * r12p / q
    m[..., 2, 2] = 1.0 - r12m ** 2 / q
    m[..., 2, 3] = r1 + r2 * r12p * r12m / q
    m[..., 3, 3] = 1.0 - r12p ** 2 / q
    for i in range(4):
        for j in range(i):
            m[..., i, j] = m[..., j, i]
    return ConditionalCov(matrix=m)


def generic_regression(joint: np.ndarray) -> ConditionalCov:
    """Schur complement Sigma_AA - Sigma_AB Sigma_BB^-1 Sigma_BA of a 6x6
    joint covariance (conditioning on the last two coordinates).  Oracle
    for conditional_cov."""
    joint = np.asarray(joint, dtype=float)
    if joint.shape != (6, 6):
        raise ParameterError("joint covariance must be 6x6")
    saa, sab, sbb = joint[:4, :4], joint[:4, 4:], joint[4:, 4:]
    det = sbb[0, 0] * sbb[1, 1] - sbb[0, 1] * sbb[1, 0]
    if abs(det) < 1e-14 * max(1.0, abs(sbb[0, 0] * sbb[1, 1])):
        raise DegenerateConditioningError("conditioning 2x2 block is singular")
    cond = saa - sab @ np.linalg.solve(sbb, sab.T)
    return ConditionalCov(matrix=0.5 * (cond + cond.T))


# ----------------------------------------------------------------------
# Hermite coefficient tables
# ----------------------------------------------------------------------
def dirac_coefficients(order: int) -> np.ndarray:
    """Coefficients a_k of the Dirac delta at zero: a_{2k} =
    (-1)^k / (sqrt(2 pi) 2^k k!), zero for odd k."""
    a = np.zeros(order + 1)
    val = 1.0 / SQ2PI
    a[0] = val
    for k in range(1, order // 2 + 1):
        val *= -1.0 / (2.0 * k)
        if 2 * k <= order:
            a[2 * k] = val
    return a


def indicator_coefficients(order: int) -> np.ndarray:
    """Hermite coefficients g_k of the indicator 1{x >= 0}: g_0 = 1/2,
    g_{2k+1} = (-1)^k / (sqrt(2 pi) 2^k k! (2k+1)), zero for even k > 0."""
    g = np.zeros(order + 1)
    g[0] = 0.5
    num = 1.0 / SQ2PI
    for k in range(0, (order - 1) // 2 + 1):
        if 2 * k + 1 <= order:
            g[2 * k + 1] = num / (2 * k + 1)
        num *= -1.0 / (2.0 * (k + 1))
    return g


@dataclass(frozen=True)
class ChaosCoefficients:
    """Coefficient tables of the Hermite expansion of the winding count.

    a[k1]: Dirac coefficients; d[k2, k3]: coefficients of
    g(x', z) = x' 1{rho1 x' + rho2 z >= 0}, both up to total order
    ``order`` (d is full on k2 + k3 <= order and zero-padded beyond),
    both in closed form (see chaos_coefficients).
    """

    a: np.ndarray
    d: np.ndarray
    rho1: float
    rho2: float
    order: int


def g_norm_sq(rho1: float) -> float:
    """||g||^2 = E[X'^2 1{rho1 X' + rho2 Z >= 0}] = 1/2 for every rho1: the
    reflection (X', Z) -> (-X', -Z) leaves X'^2 unchanged and maps the
    event onto its complement (up to the null set rho1 X' + rho2 Z = 0), so
    each carries half of E[X'^2] = 1."""
    return 0.5


def chaos_coefficients(rho1: float, order: int) -> ChaosCoefficients:
    """Coefficient tables for the regression parameter rho1, in closed form.

    d_{k2,k3} = (k2! k3!)^-1 E[g H_{k2}(X') H_{k3}(Z)].  With the unit
    Gaussian W = rho1 X' + rho2 Z, Gaussian integration by parts gives
    E[H_j(X') H_k(Z) f(W)] = rho1^j rho2^k E[H_{j+k}(W) f(W)], and
    x' H_{k2}(x') = H_{k2+1}(x') + k2 H_{k2-1}(x'), so

        d_{k2,k3} = rho2^k3 (rho1^(k2+1) e_{k2+k3+1}
                             + k2 rho1^(k2-1) e_{k2+k3-1}) / (k2! k3!)

    with e_n = E[H_n(W) 1{W >= 0}] = n! g_n (indicator_coefficients).  Only
    nonnegative powers of rho1 and rho2 appear, so the table is exact and
    finite up to |rho1| -> 1.
    """
    if not abs(rho1) < 1.0:
        raise ParameterError(f"|rho1| must be < 1, got {rho1}")
    if order < 1:
        raise ParameterError("order must be >= 1")
    rho2 = math.sqrt(1.0 - rho1 ** 2)
    fact = [math.factorial(n) for n in range(order + 2)]
    e = [f * g for f, g in zip(fact, indicator_coefficients(order + 1))]
    d = np.zeros((order + 1, order + 1))
    for k2 in range(order + 1):
        for k3 in range(order + 1 - k2):
            n = k2 + k3
            lower = k2 * rho1 ** (k2 - 1) * e[n - 1] if k2 else 0.0
            d[k2, k3] = ((rho1 ** (k2 + 1) * e[n + 1] + lower) * rho2 ** k3
                         / (fact[k2] * fact[k3]))
    return ChaosCoefficients(a=dirac_coefficients(order), d=d, rho1=rho1,
                             rho2=rho2, order=order)
