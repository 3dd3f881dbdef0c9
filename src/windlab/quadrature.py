"""Quadrature utilities: adaptive Gauss-Kronrod rule, tanh-sinh rule,
and truncated integrals over [0, inf).

Every routine returns ``(value, error_estimate)``.  ``adaptive_quad`` calls
its integrand on 1-d arrays of nodes; ``tanh_sinh`` calls it on floats, so
integrands shared by both accept either.  The panel rule lives in
``adaptive_quad`` alone: from a, its first panels end at a + 25 2^k and at
every requested end, so a long interval cannot hide a short-lived
integrand from all 21 nodes of one panel.  The tanh-sinh rule is an
independent second opinion used wherever a value is pinned from the
agreement of two rules; it also handles integrable endpoint singularities
(t^a with a > -1) without help.
"""
from __future__ import annotations

import heapq
import math
from itertools import accumulate

import numpy as np

from .errors import DivergenceError, ParameterError

__all__ = [
    "adaptive_quad",
    "tanh_sinh",
    "integrate_to_infinity",
]

# QUADPACK qk21 (Piessens et al. 1983): 21-point Kronrod abscissae on
# [0, 1) in decreasing order, their weights, and the weights of the
# embedded 10-point Gauss rule (its nodes are every second abscissa)
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208292085326, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
# all 21 nodes on [-1, 1] with Kronrod and (zero-padded) Gauss weights
_X21 = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WK21 = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WG21 = np.zeros(21)
_WG21[1:10:2] = _WG
_WG21[11:20:2] = _WG[::-1]
_EPS = np.finfo(float).eps
_MAX_PANELS = 400
# the first panels from a end at a + _FIRST_CUT 2^k; also the default t_max
# of integrate_to_infinity
_FIRST_CUT = 25.0


def _gk21(f, a, b):
    """The qk21 rule on the panels [a_i, b_i] (1-d arrays), all nodes in one
    call of f.  Returns (values, error estimates) per panel."""
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    x = centr[:, None] + hlgth[:, None] * _X21
    fv = np.broadcast_to(np.asarray(f(x.ravel()), float), (x.size,)).reshape(x.shape)
    resk, resg = fv @ _WK21, fv @ _WG21
    dh = np.abs(hlgth)
    resabs = np.abs(fv) @ _WK21 * dh
    resasc = np.abs(fv - 0.5 * resk[:, None]) @ _WK21 * dh
    err = np.abs((resk - resg) * hlgth)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    return resk * hlgth, np.maximum(50.0 * _EPS * resabs, err)


def adaptive_quad(f, a, b, abs_tol=1e-10, rel_tol=1e-10):
    """Globally adaptive Gauss-Kronrod integration of f from a to b.

    b is one end or a strictly increasing sequence of ends; the result
    follows its shape: floats for one end, arrays of the integrals from a
    to each end for a sequence.  f takes a 1-d array of nodes and returns
    an array of the same shape.  The first panels end at a + _FIRST_CUT 2^k
    and at every end, so no panel of a long interval starts with all its
    nodes past an integrand that lives near a.  One heap holds every
    panel: the one with the largest error estimate is bisected (both halves
    in one call of f) until the summed error is at most
    max(abs_tol, rel_tol |I|), _MAX_PANELS bisections are spent, or the
    worst panel is too narrow to split in floating point.  One end b < a
    integrates from b to a and flips the sign.
    """
    a, ends = float(a), np.atleast_1d(np.asarray(b, float))
    if not (math.isfinite(a) and np.isfinite(ends).all()):
        raise ParameterError(f"integration limits must be finite, got {a} and {b}")
    if np.ndim(b) == 0 and ends[0] < a:
        val, err = adaptive_quad(f, ends[0], a, abs_tol, rel_tol)
        return -val, err
    if not (ends.ndim == 1 and ends.size and a <= ends[0]
            and (np.diff(ends) > 0).all()):
        raise ParameterError("the ends must be a strictly increasing sequence "
                             f"from a = {a}, got {b}")
    edges, cut = set(ends.tolist()), _FIRST_CUT
    while a + cut < ends[-1]:
        edges.add(a + cut)
        cut *= 2.0
    edges = sorted(edges)
    los = [a] + edges[:-1]
    vals, errs = _gk21(f, np.array(los), np.array(edges))
    # heap of (-error, left, right, value, index of the first panel it
    # came from); the totals are kept alongside
    panels = [(-e, lo, hi, v, i) for i, (lo, hi, v, e)
              in enumerate(zip(los, edges, vals.tolist(), errs.tolist()))]
    heapq.heapify(panels)
    total, total_err = math.fsum(vals), math.fsum(errs)
    for _ in range(_MAX_PANELS):
        if total_err <= max(abs_tol, rel_tol * abs(total)):
            break
        e, lo, hi, v, i = panels[0]
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        heapq.heappop(panels)
        vals, errs = _gk21(f, np.array([lo, mid]), np.array([mid, hi]))
        heapq.heappush(panels, (-errs[0], lo, mid, vals[0], i))
        heapq.heappush(panels, (-errs[1], mid, hi, vals[1], i))
        total += vals[0] + vals[1] - v
        total_err += errs[0] + errs[1] + e
    # each first panel's pieces summed exactly, then running sums to the ends
    v_parts, e_parts = [[] for _ in edges], [[] for _ in edges]
    for e, _, _, v, i in panels:
        v_parts[i].append(v)
        e_parts[i].append(-e)
    at = np.searchsorted(edges, ends)
    val = np.array(list(accumulate(map(math.fsum, v_parts))))[at]
    err = np.array(list(accumulate(map(math.fsum, e_parts))))[at]
    if np.ndim(b) == 0:
        return float(val[0]), float(err[0])
    return val, err


def tanh_sinh(f, a, b, tol=1e-12):
    """Tanh-sinh (double-exponential) quadrature on the finite interval [a, b].

    Nodes are evaluated through their distance to the nearer endpoint
    (1 - tanh(u) = 2/(1 + e^{2u})), which keeps integrable endpoint
    singularities accurate to near machine precision.  The trapezoid step
    is halved (at most 12 times) until two successive levels agree to
    ``tol``; the reported error is the last inter-level change.
    """
    if a == b:
        return 0.0, 0.0
    if b < a:
        val, err = tanh_sinh(f, b, a, tol=tol)
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
    for _ in range(12):
        h *= 0.5
        total = sweep(h, 1, 2, total)
        cur = total * h * half
        change = abs(cur - prev)
        if change <= tol * max(1.0, abs(cur)):
            return cur, change
        prev = cur
    return prev, change


def integrate_to_infinity(f, t0=0.0, abs_tol=1e-10, rel_tol=1e-10,
                          t_max=_FIRST_CUT):
    """Integrate f over [t0, inf) with adaptive_quad by truncating at
    max(t_max, 2 t0) and doubling the horizon, at most 8 times, until the
    added tail changes the value by less than tolerance.

    Raises DivergenceError when the partial integrals are not Cauchy.
    """
    t_max = max(t_max, 2.0 * t0)
    val, err = adaptive_quad(f, t0, t_max, abs_tol, rel_tol)
    prev_tail = math.inf
    for _ in range(8):
        tail, tail_err = adaptive_quad(f, t_max, 2.0 * t_max, abs_tol, rel_tol)
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

