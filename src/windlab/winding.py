"""Winding-number computation on sampled paths.

The winding number is a crossing count: up-crossings minus down-crossings
of {x2 = 0, x1 > 0}.  The steps where sign(x2) flips are found first, and
x1 is interpolated linearly to x2 = 0 on those steps only.

The guard: any single-step angle increment (the arctan2 difference,
wrapped into [-pi, pi]) within 1e-9 of pi aborts counting
(AliasingError) rather than guessing the direction.  Only the steps that
can turn by more than pi/2 are looked at: a step that keeps the signs of
x1 and x2 stays in one closed quadrant, and one that flips x1 alone stays
in a closed half-plane, where it turns by more than pi/2 only if its dot
product is not positive.  The decision is the one a guard on every step
would make.

The identity: once every step turns by less than pi, the wrapped steps
sum to delta_arg = theta_end - theta_start + 2 pi (signed passes across
arctan2's branch cut), and the passes happen on x2 flips only.  So
|delta_arg/(2 pi) - n_w| < 1 holds on every counted path, and
``WindingResult.agreement`` records that it did; an independent argument
route lives in the tests (c07 and the dense reference).

Ties: a grid value x2 == 0 counts as positive (sign(0) = +), a
probability-zero event under the continuous law but reachable from
file-loaded paths.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AliasingError, ParameterError
# smooth_path is not called here: the benchmark tracer (perfbench/tracer.py)
# patches winding.smooth_path under --trace 1 and fails on a missing name
from .pathgen import SamplePath, SmoothingLadder, smooth_path  # noqa: F401

__all__ = [
    "WindingResult",
    "count_windings",
    "count_windings_arrays",
    "SmoothedWinding",
    "smoothed_winding",
]

_ALIAS_GUARD = math.pi - 1e-9
_ZERO_ULPS = 8.0 * np.finfo(float).eps


@dataclass(frozen=True)
class WindingResult:
    n_up: int
    n_down: int
    n_w: int
    delta_arg: float
    agreement: bool


def _crossings(x1: np.ndarray, x2: np.ndarray, i: np.ndarray):
    """Step index and sign (+1 up, -1 down) of each crossing of
    {x2 = 0, x1 > 0} among the steps ``i`` of a counted path (x2 zeroed,
    origin hits moved), ``i`` being the steps where sign(x2) flips.  x1
    is interpolated linearly to x2 = 0 on those steps only; there
    a >= 0 > b or a < 0 <= b, so a - b is never 0."""
    j = i + 1
    a, b = x2[i], x2[j]
    xa = x1[i]
    right = xa + (a / (a - b)) * (x1[j] - xa) > 0.0
    return i[right], np.where(a[right] < 0.0, 1, -1)


def count_windings_arrays(x1: np.ndarray, x2: np.ndarray) -> WindingResult:
    """Count on raw coordinate arrays (shared by SamplePath and CSV input).
    The inputs are never modified."""
    x1 = np.asarray(x1, float)
    x2 = np.asarray(x2, float)
    if x1.shape != x2.shape or x1.ndim != 1 or x1.size < 2:
        raise ParameterError("need two 1-d coordinate arrays with >= 2 points")
    # a NaN or an infinity shows in the extremes (NaN propagates)
    ax2 = np.abs(x2)
    top = float(ax2.max())
    if not all(map(math.isfinite, (x1.max(), x1.min(), top))):
        raise ParameterError("path coordinates must be finite")
    # values within a few ulps of zero are zero: the sign(0) = + convention
    # applied at floating-point resolution (matters only for analytic test
    # paths whose zeros land on grid points up to rounding)
    tiny = _ZERO_ULPS * top
    near = (ax2 <= tiny).nonzero()[0]  # the zeros of x2 once zeroed
    if near.size:
        if tiny > 0.0:
            x2 = x2.copy()
            x2[near] = 0.0
        at_origin = near[x1[near] == 0.0]
        if at_origin.size:
            warnings.warn("grid point exactly at the origin; perturbing x1 by 1e-12",
                          RuntimeWarning)
            x1 = x1.copy()
            x1[at_origin] = 1e-12

    s1, s2 = x1 >= 0.0, x2 >= 0.0  # sign(0) = +
    f1, f2 = s1[:-1] != s1[1:], s2[:-1] != s2[1:]
    flips = f2.nonzero()[0]
    sign = _crossings(x1, x2, flips)[1]
    n_up = int(np.count_nonzero(sign > 0))
    n_down = sign.size - n_up

    # the guard, on the steps that can turn by more than pi/2: a step that
    # keeps both signs stays in one closed quadrant; one that flips x1 alone
    # stays in a closed half-plane and turns by more than pi/2 only where
    # its dot product is not positive (or overflows)
    half = (f1 > f2).nonzero()[0]
    h = half + 1
    with np.errstate(over="ignore", invalid="ignore"):
        half = half[~(x1[half] * x1[h] + x2[half] * x2[h] > 0.0)]
    i = np.concatenate((flips, half))
    # theta of x2 + 0.0 puts a signed zero on the side sign(0) = + gives
    # it, so that only the x2 flips can pass arctan2's branch cut; the
    # path's two ends come last
    e = np.concatenate((i, i + 1, (0, -1)))
    theta = np.arctan2(x2[e] + 0.0, x1[e])
    d = theta[i.size:-2] - theta[:i.size]
    ad = np.abs(d)
    # the wrapped step's size; a step of exactly +-pi keeps it
    worst = float(np.minimum(ad, 2.0 * math.pi - ad).max(initial=0.0))
    if worst > _ALIAS_GUARD:
        raise AliasingError(
            f"angle step {worst:.6f} within guard of pi: grid too coarse "
            "relative to the rotation speed")
    # the wrapped steps telescope: theta's end-to-end change plus 2 pi per
    # counterclockwise pass across the cut (a step below -pi), less 2 pi
    # per clockwise one
    passes = int(np.count_nonzero(d < -math.pi)) - int(np.count_nonzero(d > math.pi))
    delta_arg = float(theta[-1] - theta[-2]) + 2.0 * math.pi * passes
    n_w = n_up - n_down
    return WindingResult(
        n_up=n_up, n_down=n_down, n_w=n_w, delta_arg=delta_arg,
        agreement=abs(delta_arg / (2.0 * math.pi) - n_w) < 1.0,
    )


def count_windings(path: SamplePath) -> WindingResult:
    return count_windings_arrays(path.x1, path.x2)


@dataclass(frozen=True)
class SmoothedWinding:
    epsilons: tuple
    results: tuple
    stabilization_index: Optional[int]

    @property
    def stabilized(self) -> bool:
        return self.stabilization_index is not None


def smoothed_winding(path: SamplePath, ladder: SmoothingLadder) -> SmoothedWinding:
    """Count the windings of (x1, smooth(x2, eps)) along a decreasing
    epsilon ladder; report the first index from which n_w stays constant
    (None when the ladder never settles or has a single entry).

    ``ladder`` is a ``SmoothingLadder`` (which validated the epsilons)
    built on ``path.grid``, so that many paths share one; anything else
    raises ParameterError.  Each smoothed row is counted by
    ``count_windings_arrays``."""
    if not (isinstance(ladder, SmoothingLadder) and ladder.grid == path.grid):
        raise ParameterError("smoothed_winding takes a smoothing ladder built "
                             f"on {path.grid}, got {getattr(ladder, 'grid', ladder)}")
    results = tuple(count_windings_arrays(path.x1, row)
                    for row in ladder.smooth(path.x2))
    stab = None
    if len(results) >= 2:
        final = results[-1].n_w
        for i, r in enumerate(results):
            if all(rr.n_w == final for rr in results[i:]):
                stab = i
                break
        if stab is not None and stab == len(results) - 1:
            stab = None  # only the last entry matches: not assessable
    return SmoothedWinding(epsilons=ladder.epsilons, results=results,
                           stabilization_index=stab)
