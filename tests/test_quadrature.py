import math

import numpy as np
import pytest

from windlab.errors import DivergenceError, ParameterError
from windlab.quadrature import adaptive_quad, integrate_to_infinity, tanh_sinh


@pytest.mark.parametrize("f, a, b, exact", [
    (lambda t: math.sin(t), 0.0, math.pi, 2.0),
    (lambda t: 1.0 / math.sqrt(t), 0.0, 1.0, 2.0),
    (lambda t: t ** -0.8, 0.0, 1.0, 5.0),
    (lambda t: math.log(1.0 / t), 0.0, 1.0, 1.0),
])
def test_tanh_sinh_known_integrals(f, a, b, exact):
    val, err = tanh_sinh(f, a, b)
    assert abs(val - exact) < 1e-12
    assert err < 1e-9


def test_tanh_sinh_orientation_and_empty():
    assert tanh_sinh(lambda t: t, 1.0, 1.0) == (0.0, 0.0)
    v, _ = tanh_sinh(lambda t: t, 1.0, 0.0)
    assert abs(v + 0.5) < 1e-13


def test_rules_agree_on_smooth_and_singular():
    for f in (lambda t: np.exp(-t) * np.cos(3 * t),
              lambda t: t ** -0.5 * np.exp(-t)):
        v1, _ = adaptive_quad(f, 0.0, 2.0, abs_tol=1e-11, rel_tol=1e-11)
        v2, _ = tanh_sinh(f, 0.0, 2.0, tol=1e-11)
        assert abs(v1 - v2) < 1e-10


def test_integrate_to_infinity_gaussian():
    val, err = integrate_to_infinity(lambda t: np.exp(-t * t), 0.0)
    assert abs(val - math.sqrt(math.pi) / 2.0) < 1e-9


def test_integrate_to_infinity_divergent():
    with pytest.raises(DivergenceError):
        integrate_to_infinity(lambda t: 1.0 / (1.0 + t), 0.0, abs_tol=1e-10,
                              rel_tol=1e-10)


def test_adaptive_quad_error_estimate():
    val, err = adaptive_quad(lambda t: np.exp(-t * t), 0.0, 5.0)
    exact = math.sqrt(math.pi) / 2.0 * math.erf(5.0)
    assert abs(val - exact) <= max(err, 1e-13)


def test_adaptive_quad_finds_a_narrow_bump_on_a_long_interval():
    # one 21-node panel on [0, 1e4] has no node near t = 5 and reads ~0
    val, err = adaptive_quad(lambda t: np.exp(-(t - 5.0) ** 2), 0.0, 1e4)
    assert abs(val - math.sqrt(math.pi)) < 1e-9
    assert err < 1e-9


def test_adaptive_quad_sequence_ends_are_cumulative():
    def f(t):
        return np.exp(-0.1 * t) * np.cos(t)

    ends = [0.5, 30.0, 31.0, 400.0]
    vals, errs = adaptive_quad(f, 0.0, ends)
    assert isinstance(vals, np.ndarray) and vals.shape == errs.shape == (4,)
    for end, v, e in zip(ends, vals, errs):
        ref, ref_err = adaptive_quad(f, 0.0, end)
        assert abs(v - ref) <= e + ref_err
        exact = (0.1 + math.exp(-0.1 * end) * (math.sin(end) - 0.1 * math.cos(end))) / 1.01
        assert abs(v - exact) <= e
    assert (np.diff(errs) >= 0).all()


def test_adaptive_quad_scalar_end_gives_floats():
    val, err = adaptive_quad(lambda t: np.exp(-t), 0.0, np.float64(100.0))
    assert type(val) is float and type(err) is float
    assert val == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("a, b", [
    (0.0, math.inf), (0.0, math.nan), (-math.inf, 1.0), (math.nan, 1.0),
    (0.0, [1.0, math.inf]),
])
def test_adaptive_quad_refuses_non_finite_limits(a, b):
    with pytest.raises(ParameterError):
        adaptive_quad(lambda t: np.exp(-t), a, b)


@pytest.mark.parametrize("b", [[], [2.0, 1.0], [1.0, 1.0], [-1.0, 1.0], [[1.0]]])
def test_adaptive_quad_refuses_unordered_ends(b):
    with pytest.raises(ParameterError):
        adaptive_quad(lambda t: np.exp(-t), 0.0, b)


def test_integrate_to_infinity_from_far_out():
    # the first cut is max(t_max, 2 t0), so a start past t_max still works
    val, _ = integrate_to_infinity(lambda t: np.exp(-(t - 100.0)), 100.0)
    assert val == pytest.approx(1.0, abs=1e-9)
