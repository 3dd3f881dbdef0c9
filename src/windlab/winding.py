"""Winding-number computation on sampled paths.

Two routes are computed for every path and cross-checked: the crossing
count (up-crossings minus down-crossings of {x2 = 0, x1 > 0}) and the
unwrapped total argument increment.  The routes share no intermediate:

- crossings: the steps where sign(x2) flips are found first, and x1 is
  interpolated linearly to x2 = 0 on those steps only;
- argument: arctan2 at every grid point, differenced; only the increments
  that jump the branch cut (|d| > pi) are shifted by 2 pi.

The two satisfy |delta_arg/(2 pi) - n_w| < 1 whenever the grid resolves
the rotation; any single-step angle increment within 1e-9 of pi aborts
counting (AliasingError) rather than guessing the direction.

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


@dataclass(frozen=True)
class WindingResult:
    n_up: int
    n_down: int
    n_w: int
    delta_arg: float
    agreement: bool


def count_windings_arrays(x1: np.ndarray, x2: np.ndarray) -> WindingResult:
    """Count on raw coordinate arrays (shared by SamplePath and CSV input).
    The inputs are never modified."""
    x1 = np.asarray(x1, float)
    x2 = np.asarray(x2, float)
    if x1.shape != x2.shape or x1.ndim != 1 or x1.size < 2:
        raise ParameterError("need two 1-d coordinate arrays with >= 2 points")
    # a NaN or an infinity shows in the extremes (NaN propagates)
    hi2, lo2 = x2.max(), x2.min()
    if not all(map(math.isfinite, (x1.max(), x1.min(), hi2, lo2))):
        raise ParameterError("path coordinates must be finite")
    # values within a few ulps of zero are zero: the sign(0) = + convention
    # applied at floating-point resolution (matters only for analytic test
    # paths whose zeros land on grid points up to rounding)
    tiny = 8.0 * np.finfo(float).eps * float(max(hi2, -lo2))
    near = np.flatnonzero(np.abs(x2) <= tiny)  # the zeros of x2 once zeroed
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

    # crossing route: interpolate x1 at the sign flips only; a >= 0 > b or
    # a < 0 <= b, so a - b is never 0 there
    s = x2 >= 0.0  # sign(0) = + convention
    i = np.flatnonzero(s[:-1] != s[1:])
    a, b = x2[i], x2[i + 1]
    xa = x1[i]
    right = xa + (a / (a - b)) * (x1[i + 1] - xa) > 0.0
    upward = a < 0.0
    n_up = int(np.count_nonzero(right & upward))
    n_down = int(np.count_nonzero(right & ~upward))

    # argument route, independent of the first: per-point angles whose
    # increments are wrapped into [-pi, pi] where they jump the branch cut
    d = np.diff(np.arctan2(x2, x1))  # frees the angles at once: a lower peak
    # (a step of exactly +-pi is left as it is: the guard refuses it anyway)
    j = np.flatnonzero(np.abs(d) > math.pi)
    d[j] -= np.copysign(2.0 * math.pi, d[j])
    worst = float(max(d.max(), -d.min()))
    if worst > _ALIAS_GUARD:
        raise AliasingError(
            f"angle step {worst:.6f} within guard of pi: grid too coarse "
            "relative to the rotation speed")
    delta_arg = float(d.sum())
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
