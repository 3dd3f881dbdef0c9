"""Everything but the CLT experiment runs on numpy alone: the array
Gauss-Kronrod rule agrees with scipy's QUADPACK, the 5-smooth FFT length
search with scipy.fft, the array conditional covariance with its scalar
and Schur forms, the erfc normal CDF with scipy.special.ndtr, and a run of
the scipy-free commands leaves scipy unimported."""
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate
from scipy.fft import next_fast_len as scipy_next_fast_len
from scipy.special import ndtr

import windlab
from windlab.gauss import (_ndtr, conditional_cov, generic_regression,
                           joint_cov_matrix)
from windlab.pathgen import GridSpec, next_fast_len
from windlab.quadrature import _WG21, _WK21, _X21, adaptive_quad


@pytest.mark.parametrize("name, f, a, b", [
    ("smooth", lambda t: np.exp(-t) * np.cos(3.0 * t), 0.0, 2.0),
    ("sqrt singularity", lambda t: t ** -0.5 * np.exp(-t), 0.0, 2.0),
    ("log singularity", lambda t: np.log(1.0 / t), 0.0, 1.0),
    ("t^-0.8 singularity", lambda t: t ** -0.8, 0.0, 1.0),
    ("oscillatory", lambda t: np.sin(50.0 * t) * np.exp(-t), 0.0, 10.0),
    ("Gaussian tail", lambda t: np.exp(-0.5 * t * t), 3.0, 40.0),
])
def test_adaptive_quad_matches_quadpack(name, f, a, b):
    def on_arrays(x):
        assert isinstance(x, np.ndarray) and x.ndim == 1
        return f(x)

    val, err = adaptive_quad(on_arrays, a, b, abs_tol=1e-11, rel_tol=1e-11)
    ref, ref_err = integrate.quad(lambda t: float(f(t)), a, b, epsabs=1e-11,
                                  epsrel=1e-11, limit=400)
    assert abs(val - ref) <= 1e-10 * max(1.0, abs(ref)), name
    assert abs(val - ref) <= err + ref_err + 1e-15, name


def test_adaptive_quad_accepts_reversed_and_constant_integrands():
    val, _ = adaptive_quad(lambda t: np.cos(t), math.pi / 2.0, 0.0)
    assert val == pytest.approx(-1.0, abs=1e-14)
    val, err = adaptive_quad(lambda t: np.full_like(t, 2.5), -1.0, 3.0)
    assert val == pytest.approx(10.0, abs=1e-13) and err < 1e-12


def test_kronrod_and_gauss_degrees_of_exactness():
    for d in range(40):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        kronrod, gauss = _WK21 @ _X21 ** d, _WG21 @ _X21 ** d
        assert (abs(kronrod - exact) < 1e-15) == (d <= 31 or d % 2 == 1), d
        assert (abs(gauss - exact) < 1e-15) == (d <= 19 or d % 2 == 1), d


def test_next_fast_len_matches_scipy():
    assert all(next_fast_len(n) == scipy_next_fast_len(n, real=True)
               for n in range(1, 2 ** 17 + 1))
    # circulant embedding targets of the benchmark grids at every padding
    for T in (50.0, 100.0, 200.0):
        n = GridSpec.from_dt(T, 0.01).n
        for pad in range(1, 9):
            target = max(2 * (n - 1), 2) * pad
            assert next_fast_len(target) == scipy_next_fast_len(target, real=True)


@pytest.mark.parametrize("fixture", ["iid_bf", "ou_bf", "regression03"])
def test_conditional_cov_on_arrays(fixture, request):
    model = request.getfixturevalue(fixture)
    lags = np.random.default_rng(3).uniform(0.05, 8.0, size=(3, 7))
    batch = conditional_cov(model, lags)
    assert batch.matrix.shape == (3, 7, 4, 4)
    for idx in np.ndindex(lags.shape):
        t = float(lags[idx])
        assert np.array_equal(batch.matrix[idx], conditional_cov(model, t).matrix)
        schur = generic_regression(joint_cov_matrix(model, t)).matrix
        assert np.max(np.abs(batch.matrix[idx] - schur)) < 1e-10
    corr, sd = batch.correlations()
    assert corr.shape == (3, 7, 4, 4) and sd.shape == (3, 7, 4)
    one_corr, one_sd = conditional_cov(model, float(lags[1, 2])).correlations()
    assert np.array_equal(corr[1, 2], one_corr) and np.array_equal(sd[1, 2], one_sd)


def test_erfc_normal_cdf_matches_ndtr():
    x = np.linspace(-38.0, 9.0, 100_001)
    assert np.max(np.abs(_ndtr(x) - ndtr(x))) <= 1e-15
    assert _ndtr(x).dtype == float and _ndtr(x).shape == x.shape


_RUN_WITHOUT_SCIPY = """
import json, sys
from windlab import cli
codes = {}
for command, cfg in json.loads(sys.argv[1]):
    codes[command] = cli.main([command, "--config", cfg, "--out", cfg + ".out"])
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules
                                  if m == "scipy" or m.startswith("scipy."))}))
"""


def test_commands_other_than_clt_run_without_scipy(tmp_path):
    iid = {"x": {"family": "bargmann_fock"}, "cross": "iid"}
    regression = {"x2": {"family": "bargmann_fock"},
                  "cross": {"type": "regression", "rho1": 0.3,
                            "rz": {"family": "bargmann_fock"}}}
    alpha = {"family": "alpha", "alpha": 1.2}
    small = {"t_ladder": [5.0], "dt": 0.05, "replications": 20, "seed": 3}
    configs = {
        "moments": {"model": regression, **small},
        "variance": {"model": iid, **small},
        "simulate": {"model": regression, **small, "export_paths": 1},
        "smooth": {"model": {"x1": alpha, "x2": alpha, "cross": "independent"},
                   **small, "epsilon_ladder": [0.4, 0.2]},
        "check": {"model": iid, "seed": 3, "lemma_mc_samples": 2000,
                  "lemma_random_sets": 5, "lemma_spot_cases": 2},
    }
    calls = []
    for command, cfg in configs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg))
        calls.append((command, str(path)))
    src = os.path.dirname(os.path.dirname(windlab.__file__))
    out = subprocess.run([sys.executable, "-c", _RUN_WITHOUT_SCIPY, json.dumps(calls)],
                         env=dict(os.environ, PYTHONPATH=src), check=True,
                         capture_output=True, text=True, timeout=300)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result["codes"]) == set(configs)
    assert all(code in (0, 1) for code in result["codes"].values()), result
    assert result["scipy"] == []
    assert (tmp_path / "moments.json.out" / "chaos_coefficients.csv").exists()
