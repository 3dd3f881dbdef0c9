import io
import math

import numpy as np
import pytest

from windlab.errors import AliasingError, ParameterError, ResolutionError
from windlab.pathgen import (CholeskySampler, GridSpec, SamplePath,
                             SpectralSampler, export_path_csv, load_path_csv,
                             sample_circulant, sample_spectral)
from windlab.winding import (count_windings, count_windings_arrays,
                             count_windings_refined, smoothed_winding)


def circle_path(turns, T, dt, orientation=1):
    t = np.linspace(0.0, T, int(round(T / dt)) + 1)
    w = 2.0 * math.pi * turns / T
    return SamplePath(grid=GridSpec(T=T, n=len(t)),
                      x1=np.cos(w * t), x2=orientation * np.sin(w * t))


class TestDeterministicPaths:
    def test_three_turns(self):
        r = count_windings(circle_path(3, 3.0, 0.01))
        assert r.n_w == 3 and r.n_up == 3 and r.n_down == 0
        assert r.delta_arg == pytest.approx(6.0 * math.pi, abs=1e-6)
        assert r.agreement

    def test_reversed_orientation(self):
        r = count_windings(circle_path(2, 2.0, 0.01, orientation=-1))
        assert r.n_w == -2
        assert r.delta_arg == pytest.approx(-4.0 * math.pi, abs=1e-6)

    @pytest.mark.parametrize("k, omega", [(1, 2 * math.pi), (5, 4 * math.pi)])
    def test_exact_integer_winding(self, k, omega):
        T = 2.0 * math.pi * k / omega
        dt = 0.01 / omega
        r = count_windings(circle_path(k, T, dt))
        assert r.n_w == k
        assert abs(r.delta_arg - 2.0 * math.pi * k) < 1e-6

    def test_refinement_of_deterministic_path(self):
        a = count_windings(circle_path(4, 4.0, 0.02))
        b = count_windings(circle_path(4, 4.0, 0.01))
        assert a.n_w == b.n_w == 4


class TestInvariances:
    def _gaussian_path(self, seed):
        from windlab.covmodel import bargmann_fock, make_iid_model
        m = make_iid_model(bargmann_fock())
        return sample_circulant(m, GridSpec.from_dt(30.0, 0.01), seed)

    def test_sign_antisymmetry(self):
        from dataclasses import replace
        for seed in (1, 2, 3):
            p = self._gaussian_path(seed)
            r = count_windings(p)
            rn = count_windings(replace(p, x2=-p.x2))
            assert rn.n_w == -r.n_w
            assert rn.delta_arg == -r.delta_arg
            assert rn.n_up == r.n_down and rn.n_down == r.n_up

    def test_positive_scaling_invariance(self):
        from dataclasses import replace
        p = self._gaussian_path(7)
        r = count_windings(p)
        for c in (1e-3, 5.0, 1e4):
            rs = count_windings(replace(p, x1=c * p.x1, x2=c * p.x2))
            assert rs.n_w == r.n_w
            assert rs.n_up == r.n_up and rs.n_down == r.n_down
            # angles are scale-free up to the rounding of c*x
            assert rs.delta_arg == pytest.approx(r.delta_arg, abs=1e-9)

    def test_counting_identity(self):
        for seed in range(5):
            r = count_windings(self._gaussian_path(seed + 10))
            assert r.n_w == r.n_up - r.n_down
            assert abs(r.delta_arg / (2 * math.pi) - r.n_w) < 1.0


class TestGuards:
    def test_aliasing_near_pi_step(self):
        x1 = np.array([1.0, -1.0, 1.0])
        x2 = np.array([1e-12, 1e-12, 1e-12])
        with pytest.raises(AliasingError):
            count_windings_arrays(x1, x2)

    def test_short_path_rejected(self):
        with pytest.raises(ParameterError):
            count_windings_arrays(np.array([1.0]), np.array([1.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            count_windings_arrays(np.array([1.0, np.nan, 1.0]),
                                  np.array([0.5, -0.5, 0.5]))

    def test_origin_hit_perturbs_with_warning(self):
        x1 = np.array([1.0, 0.0, 1.0, 1.0])
        x2 = np.array([0.5, 0.0, -0.5, 0.5])
        with pytest.warns(RuntimeWarning):
            r = count_windings_arrays(x1, x2)
        assert r.n_w == r.n_up - r.n_down

    def test_sign_zero_convention(self):
        # grid value exactly zero counts as positive: the down-crossing is
        # located at the zero sample itself
        x1 = np.array([1.0, 1.0, 1.0])
        x2 = np.array([0.5, 0.0, -0.5])
        r = count_windings_arrays(x1, x2)
        assert r.n_down == 1 and r.n_up == 0 and r.n_w == -1


class TestRefinedCounting:
    def test_spectral_stability_rate(self, iid_bf):
        s = SpectralSampler(iid_bf, GridSpec.from_dt(20.0, 0.01), n_freq=2048)
        stable = []
        for k in range(250):
            r = count_windings_refined(s, seed=5, stream=k)
            stable.append(r.refinement_stable)
        assert np.mean(stable) > 0.98

    def test_coarse_grid_less_stable(self, iid_bf):
        s_fine = SpectralSampler(iid_bf, GridSpec.from_dt(20.0, 0.01), n_freq=2048)
        s_coarse = SpectralSampler(iid_bf, GridSpec.from_dt(20.0, 1.0), n_freq=2048)
        fine, coarse = [], []
        for k in range(120):
            fine.append(count_windings_refined(s_fine, 6, k).refinement_stable)
            coarse.append(count_windings_refined(s_coarse, 6, k).refinement_stable)
        assert np.mean(coarse) < np.mean(fine) - 0.1

    def test_cholesky_backend(self, iid_bf):
        s = CholeskySampler(iid_bf, GridSpec.from_dt(5.0, 0.05))
        r = count_windings_refined(s, seed=3, stream=1)
        assert r.refinement_stable in (True, False)


class TestSmoothedWinding:
    def _rough_path(self, seed=4, T=30.0):
        from windlab.covmodel import make_alpha_process
        return sample_circulant(make_alpha_process(1.2),
                                GridSpec.from_dt(T, 0.01), seed)

    def test_ladder_validation(self):
        p = self._rough_path()
        with pytest.raises(ParameterError):
            smoothed_winding(p, [])
        with pytest.raises(ParameterError):
            smoothed_winding(p, [0.1, 0.2])
        with pytest.raises(ResolutionError):
            smoothed_winding(p, [0.4, 0.01])  # below 2*dt

    def test_ladder_of_one_not_assessable(self):
        res = smoothed_winding(self._rough_path(), [0.3])
        assert res.stabilization_index is None
        assert len(res.results) == 1

    def test_smooth_model_paths_insensitive(self, iid_bf):
        # a differentiable path keeps its count under mild smoothing
        p = sample_spectral(iid_bf, GridSpec.from_dt(20.0, 0.01), 11, n_freq=2048)
        base = count_windings(p).n_w
        res = smoothed_winding(p, [0.1, 0.05, 0.025])
        assert all(r.n_w == base for r in res.results)
        assert res.stabilization_index == 0

    def test_rough_path_ladder_runs(self):
        res = smoothed_winding(self._rough_path(seed=12), [0.4, 0.2, 0.1, 0.05])
        assert len(res.results) == 4
        if res.stabilization_index is not None:
            tail = [r.n_w for r in res.results[res.stabilization_index:]]
            assert len(set(tail)) == 1


class TestFileInput:
    def test_counting_from_exported_csv(self, iid_bf):
        p = sample_circulant(iid_bf, GridSpec.from_dt(20.0, 0.01), 8)
        direct = count_windings(p)
        buf = io.StringIO()
        export_path_csv(p, buf)
        buf.seek(0)
        loaded = load_path_csv(buf)
        again = count_windings(loaded)
        assert again.n_w == direct.n_w
        assert again.delta_arg == pytest.approx(direct.delta_arg, abs=1e-12)
