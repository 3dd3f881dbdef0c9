import numpy as np
import pytest

from windlab.covmodel import (alpha_family, bargmann_fock, make_iid_model,
                              make_independent_model, make_regression_model,
                              ornstein_uhlenbeck)
from windlab.pathgen import bump_kernel, kernel_half_width


@pytest.fixture(scope="session")
def iid_bf():
    return make_iid_model(bargmann_fock())


@pytest.fixture(scope="session")
def ou_bf():
    return make_independent_model(ornstein_uhlenbeck(), bargmann_fock())


@pytest.fixture(scope="session")
def regression03():
    return make_regression_model(bargmann_fock(), bargmann_fock(), 0.3)


@pytest.fixture(scope="session")
def alpha12():
    """Independent alpha = 1.2 coordinates, the shipped smoothing model."""
    return make_independent_model(alpha_family(1.2), alpha_family(1.2))


def convolve_smooth(x2, grid, epsilon):
    """x2 smoothed at epsilon by direct convolution (independent oracle for
    pathgen.SmoothingLadder): reflect the path at both ends by the kernel's
    half-width, then take the "valid" part of np.convolve with the
    mass-normalized bump sampled on the grid."""
    half = kernel_half_width(grid, epsilon)
    u = np.arange(-half, half + 1) * grid.dt / epsilon
    w = bump_kernel(u)
    w = w / w.sum()
    padded = np.concatenate([x2[half:0:-1], x2, x2[-2:-half - 2:-1]])
    return np.convolve(padded, w, mode="valid")


def gauss_hermite_2d(func, rho, n=120):
    """E[func(X, Y)] for standard Gaussians with correlation rho, by
    tensorized Gauss-Hermite quadrature (independent oracle)."""
    x, w = np.polynomial.hermite_e.hermegauss(n)
    w = w / w.sum()
    xx = x[:, None]
    zz = x[None, :]
    yy = rho * xx + np.sqrt(1.0 - rho * rho) * zz
    vals = func(np.broadcast_to(xx, (n, n)), yy)
    return float(np.einsum("i,j,ij->", w, w, vals))


def numeric_diff(f, t, order=1):
    """Central difference with one Richardson step; returns (value, error).

    The steps balance truncation against roundoff: 1e-5 for first
    derivatives, 1e-4 for second (the second difference amplifies rounding
    by 4 eps/h^2)."""
    h = 1e-5 if order == 1 else 1e-4
    t = float(t)

    def d1(hh):
        return (f(t + hh) - f(t - hh)) / (2.0 * hh)

    def d2(hh):
        return (f(t + hh) - 2.0 * f(t) + f(t - hh)) / hh ** 2

    base = d1 if order == 1 else d2
    coarse, fine = base(h), base(h / 2.0)
    rich = (4.0 * fine - coarse) / 3.0
    return rich, abs(rich - fine)
