"""Winding-number computation on sampled paths.

Two routes are computed for every path and cross-checked: the crossing
count (up-crossings minus down-crossings of {x2 = 0, x1 > 0}, crossings
located by linear interpolation) and the unwrapped total argument
increment.  The two satisfy |delta_arg/(2 pi) - n_w| < 1 whenever the grid
resolves the rotation; any single-step angle increment within 1e-9 of pi
aborts counting (AliasingError) rather than guessing the direction.

Ties: a grid value x2 == 0 counts as positive (sign(0) = +), a
probability-zero event under the continuous law but reachable from
file-loaded paths.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import AliasingError, ParameterError
from .pathgen import SamplePath, smooth_path

__all__ = [
    "WindingResult",
    "count_windings",
    "count_windings_arrays",
    "count_windings_refined",
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
    refinement_stable: Optional[bool] = None


def count_windings_arrays(x1: np.ndarray, x2: np.ndarray) -> WindingResult:
    """Count on raw coordinate arrays (shared by SamplePath and CSV input)."""
    x1 = np.asarray(x1, float)
    x2 = np.asarray(x2, float)
    if x1.shape != x2.shape or x1.ndim != 1 or x1.size < 2:
        raise ParameterError("need two 1-d coordinate arrays with >= 2 points")
    if not (np.all(np.isfinite(x1)) and np.all(np.isfinite(x2))):
        raise ParameterError("path coordinates must be finite")
    # values within a few ulps of zero are zero: the sign(0) = + convention
    # applied at floating-point resolution (matters only for analytic test
    # paths whose zeros land on grid points up to rounding)
    tiny = 8.0 * np.finfo(float).eps * float(np.max(np.abs(x2)))
    if tiny > 0.0:
        x2 = np.where(np.abs(x2) <= tiny, 0.0, x2)
    at_origin = (x1 == 0.0) & (x2 == 0.0)
    if np.any(at_origin):
        warnings.warn("grid point exactly at the origin; perturbing x1 by 1e-12",
                      RuntimeWarning)
        x1 = x1.copy()
        x1[at_origin] = 1e-12

    s = x2 >= 0.0  # sign(0) = + convention
    flip = s[:-1] != s[1:]
    den = x2[:-1] - x2[1:]
    with np.errstate(invalid="ignore", divide="ignore"):
        theta = np.where(flip, x2[:-1] / np.where(den == 0.0, 1.0, den), 0.0)
    x1c = x1[:-1] + theta * (x1[1:] - x1[:-1])
    upward = flip & ~s[:-1]
    n_up = int(np.count_nonzero(upward & (x1c > 0.0)))
    n_down = int(np.count_nonzero(flip & s[:-1] & (x1c > 0.0)))

    ang = np.arctan2(x2, x1)
    d = np.diff(ang)
    # wrap each increment into (-pi, pi]
    d = d - 2.0 * math.pi * np.floor((d + math.pi) / (2.0 * math.pi))
    d[d <= -math.pi] += 2.0 * math.pi
    worst = float(np.max(np.abs(d))) if d.size else 0.0
    if worst > _ALIAS_GUARD:
        raise AliasingError(
            f"angle step {worst:.6f} within guard of pi: grid too coarse "
            "relative to the rotation speed")
    delta_arg = float(np.sum(d))
    n_w = n_up - n_down
    return WindingResult(
        n_up=n_up, n_down=n_down, n_w=n_w, delta_arg=delta_arg,
        agreement=abs(delta_arg / (2.0 * math.pi) - n_w) < 1.0,
    )


def count_windings(path: SamplePath) -> WindingResult:
    return count_windings_arrays(path.x1, path.x2)


def count_windings_refined(sampler, seed: int, stream: int = 0) -> WindingResult:
    """Count at dt and dt/2 on nested grids driven by the same randomness
    (the sampler's ``sample_refined``); refinement_stable records whether
    n_w survived the refinement.  The finer-grid result is returned."""
    coarse, fine = sampler.sample_refined(seed, stream)
    rf = count_windings(fine)
    return replace(rf, refinement_stable=(count_windings(coarse).n_w == rf.n_w))


@dataclass(frozen=True)
class SmoothedWinding:
    epsilons: tuple
    results: tuple
    stabilization_index: Optional[int]

    @property
    def stabilized(self) -> bool:
        return self.stabilization_index is not None


def smoothed_winding(path: SamplePath, epsilon_sequence) -> SmoothedWinding:
    """Count the windings of (x1, smooth(x2, eps)) along a decreasing
    epsilon ladder; report the first index from which n_w stays constant
    (None when the ladder never settles or has a single entry)."""
    eps = [float(e) for e in epsilon_sequence]
    if not eps:
        raise ParameterError("epsilon_sequence must be non-empty")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ParameterError("epsilon_sequence must be strictly decreasing")
    results = tuple(count_windings(smooth_path(path, e)) for e in eps)
    stab = None
    if len(results) >= 2:
        final = results[-1].n_w
        for i, r in enumerate(results):
            if all(rr.n_w == final for rr in results[i:]):
                stab = i
                break
        if stab is not None and stab == len(results) - 1:
            stab = None  # only the last entry matches: not assessable
    return SmoothedWinding(epsilons=tuple(eps), results=results,
                           stabilization_index=stab)
