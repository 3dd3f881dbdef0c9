"""Quadrature utilities: adaptive Gauss-Kronrod wrapper, tanh-sinh rule,
and truncated integrals over [0, inf).

Every routine returns ``(value, error_estimate)``.  The tanh-sinh rule is
an independent second opinion used wherever a value is pinned from the
agreement of two rules; it also handles integrable endpoint singularities
(t^a with a > -1) without help.
"""
from __future__ import annotations

import math
import warnings

from scipy import integrate

from .errors import DivergenceError

__all__ = [
    "adaptive_quad",
    "tanh_sinh",
    "integrate_to_infinity",
]


def adaptive_quad(f, a, b, abs_tol=1e-10, rel_tol=1e-10, points=None):
    """Adaptive Gauss-Kronrod integration of f over [a, b]."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(
            f, a, b, epsabs=abs_tol, epsrel=rel_tol, limit=400, points=points
        )
    return val, err


def tanh_sinh(f, a, b, tol=1e-12, max_level=12):
    """Tanh-sinh (double-exponential) quadrature on the finite interval [a, b].

    Nodes are evaluated through their distance to the nearer endpoint
    (1 - tanh(u) = 2/(1 + e^{2u})), which keeps integrable endpoint
    singularities accurate to near machine precision.  The trapezoid step
    is halved until two successive levels agree to ``tol``; the reported
    error is the last inter-level change.
    """
    if a == b:
        return 0.0, 0.0
    if b < a:
        val, err = tanh_sinh(f, b, a, tol=tol, max_level=max_level)
        return -val, err

    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    piov2 = 0.5 * math.pi

    def term(t):
        """Weighted f-sum of the node pair at parameter t > 0.  Each side
        is kept only while its node is still distinguishable from the
        endpoint in floating point (with a = 0 the left node survives into
        the denormal range, which is what integrable singularities at 0
        need).  Returns None once both sides have collapsed."""
        u = piov2 * math.sinh(t)
        if u > 350.0:
            return None
        delta = 2.0 / (1.0 + math.exp(2.0 * u))  # 1 - tanh(u), stable
        w = piov2 * math.cosh(t) / math.cosh(u) ** 2
        if delta == 0.0 or w == 0.0:
            return None
        xl = a + half * delta
        xr = b - half * delta
        acc = 0.0
        dead = 0
        if xl > a:
            acc += f(xl)
        else:
            dead += 1
        if xr < b:
            acc += f(xr)
        else:
            dead += 1
        if dead == 2:
            return None
        return w * acc

    def sweep(h, start, step, total):
        """Add node pairs at t = start*h, (start+step)*h, ... until they
        stop contributing."""
        k = start
        tiny_run = 0
        while True:
            c = term(k * h)
            if c is None:
                return total
            total += c
            if abs(c) <= 1e-18 * max(1.0, abs(total)):
                tiny_run += 1
                if tiny_run >= 3:
                    return total
            else:
                tiny_run = 0
            k += step

    h = 1.0
    total = sweep(h, 1, 1, piov2 * f(mid))
    prev = total * h * half
    change = math.inf
    for _ in range(max_level):
        h *= 0.5
        total = sweep(h, 1, 2, total)
        cur = total * h * half
        change = abs(cur - prev)
        if change <= tol * max(1.0, abs(cur)):
            return cur, change
        prev = cur
    return prev, change


def integrate_to_infinity(f, t0=0.0, abs_tol=1e-10, rel_tol=1e-10,
                          t_max=25.0, max_doublings=8, rule=adaptive_quad):
    """Integrate f over [t0, inf) by truncating at t_max and doubling the
    horizon until the added tail changes the value by less than tolerance.

    Raises DivergenceError when the partial integrals are not Cauchy.
    """
    val, err = rule(f, t0, t_max, abs_tol, rel_tol)
    prev_tail = math.inf
    for _ in range(max_doublings):
        tail, tail_err = rule(f, t_max, 2.0 * t_max, abs_tol, rel_tol)
        t_max *= 2.0
        val += tail
        err += tail_err
        if abs(tail) <= max(abs_tol, rel_tol * abs(val)):
            return val, err + abs(tail)
        if abs(tail) > prev_tail * 1.05 and abs(tail) > 100 * abs_tol:
            raise DivergenceError(
                f"partial integrals are not Cauchy: tail {tail:.3e} after t={t_max:.1f}"
            )
        prev_tail = abs(tail)
    if prev_tail > max(abs_tol * 100, rel_tol * abs(val) * 100):
        raise DivergenceError(
            f"integral did not settle by t={t_max:.1f} (last tail {prev_tail:.3e})"
        )
    return val, err + prev_tail

