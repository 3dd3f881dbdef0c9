import math

import numpy as np
import pytest

from windlab.errors import DivergenceError
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
