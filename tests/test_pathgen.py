import io
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from windlab import pathgen
from windlab.covmodel import bargmann_fock, make_independent_model
from windlab.errors import (CapabilityError, ModelError, ParameterError,
                            ResolutionError)
from windlab.pathgen import (CholeskySampler, CirculantSampler, GridSpec,
                             SamplePath, SpectralSampler, bump_kernel,
                             export_path_csv, export_path_npz, load_path_csv,
                             load_path_npz, sample_cholesky, sample_circulant,
                             sample_spectral, smooth_path)


class TestGridSpec:
    def test_dt(self):
        g = GridSpec(T=10.0, n=1001)
        assert g.dt == pytest.approx(0.01)
        assert GridSpec.from_dt(10.0, 0.01).n == 1001

    def test_validation(self):
        with pytest.raises(ParameterError):
            GridSpec(T=1.0, n=1)
        with pytest.raises(ParameterError):
            GridSpec(T=0.0, n=10)


class TestReproducibility:
    def test_bitwise_identical(self, iid_bf, regression03):
        grid = GridSpec.from_dt(5.0, 0.02)
        for maker in (sample_circulant, sample_cholesky,
                      lambda m, g, s, stream=0: sample_spectral(m, g, s, stream, n_freq=512)):
            a = maker(iid_bf, grid, 99, stream=3)
            b = maker(iid_bf, grid, 99, stream=3)
            assert np.array_equal(a.x1, b.x1) and np.array_equal(a.x2, b.x2)
            c = maker(iid_bf, grid, 99, stream=4)
            assert not np.array_equal(a.x2, c.x2)

    def test_batch_matches_single(self, regression03, monkeypatch):
        grid = GridSpec.from_dt(5.0, 0.02)
        s = CirculantSampler(regression03, grid)
        batch = s.sample_batch(7, [0, 1, 2])
        for i in range(3):
            p = s.sample(7, i)
            assert np.array_equal(batch[i, 0], p.x1)
            assert np.array_equal(batch[i, 1], p.x2)
        # synthesis slabs of two streams: [0, 1] and [2]
        monkeypatch.setattr(pathgen, "_SLAB_BYTES", 2 * 32 * (s.L // 2 + 1))
        assert np.array_equal(s.sample_batch(7, [0, 1, 2]), batch)
        # the other two backends, bitwise, spectral with its derivative
        for other in (CholeskySampler(regression03, grid),
                      SpectralSampler(regression03, grid, n_freq=512)):
            batch = other.sample_batch(7, [2, 0, 1])
            assert batch.shape == (3, 2, grid.n)
            for i, k in enumerate([2, 0, 1]):
                p = other.sample(7, k)
                assert np.array_equal(batch[i, 0], p.x1)
                assert np.array_equal(batch[i, 1], p.x2)
        assert p.dx2 is not None and p.dx2.shape == (grid.n,)


class TestCholesky:
    def test_size_cap(self, iid_bf):
        with pytest.raises(ParameterError):
            CholeskySampler(iid_bf, GridSpec(T=10.0, n=5000))

    def test_invalid_covariance_rejected(self, iid_bf):
        bad = replace(iid_bf, r2=lambda t: 1.2 * np.exp(-np.asarray(t, float) ** 2))
        with pytest.raises(ModelError):
            CholeskySampler(bad, GridSpec(T=1.0, n=8))

    def test_indefinite_covariance_rejected(self, iid_bf):
        # the boxcar "correlation" is not positive semidefinite
        bad = replace(iid_bf, r2=lambda t: np.where(
            np.abs(np.asarray(t, float)) <= 1.0, 1.0, 0.0))
        with pytest.raises(ModelError) as err:
            CholeskySampler(bad, GridSpec(T=6.0, n=25))
        assert "eigenvalue" in str(err.value)

    def test_same_time_cross_independence(self, iid_bf):
        # corr(x1, x2) at equal time vanishes: |estimate| < 0.01 over 1e5
        s = CholeskySampler(iid_bf, GridSpec(T=1.0, n=2))
        z = np.array([s.sample(5, k).x1[0] * s.sample(5, k).x2[0]
                      for k in range(0, 2000)])
        # use the batched route for the big sample
        rng = np.random.default_rng(12)
        zz = rng.standard_normal((100_000, 4)) @ s._chol.T
        est = float(np.mean(zz[:, 0] * zz[:, 2]))
        assert abs(est) < 0.01
        assert abs(float(np.mean(z))) < 0.1

    def test_lag_covariance(self, iid_bf):
        # E[X2(0) X2(1)] = e^{-1/2} within 3 SE over 1e5 replications
        s = CholeskySampler(iid_bf, GridSpec(T=1.0, n=2))
        rng = np.random.default_rng(3)
        zz = rng.standard_normal((100_000, 4)) @ s._chol.T
        prod = zz[:, 2] * zz[:, 3]
        est, se = float(prod.mean()), float(prod.std() / math.sqrt(len(prod)))
        assert abs(est - math.exp(-0.5)) <= 3.0 * se

    def test_refined_keeps_coarse_points(self, iid_bf):
        s = CholeskySampler(iid_bf, GridSpec.from_dt(2.0, 0.1))
        coarse, fine = s.sample_refined(11, 0)
        assert fine.grid.n == 2 * coarse.grid.n - 1
        assert np.array_equal(fine.x2[::2], coarse.x2)
        assert np.array_equal(fine.x1[::2], coarse.x1)
        assert coarse.grid.dt == pytest.approx(2 * fine.grid.dt)


class TestSpectral:
    def test_derivative_consistency(self, iid_bf):
        p = sample_spectral(iid_bf, GridSpec.from_dt(10.0, 0.01), 5, n_freq=4096)
        fd = np.diff(p.x2) / p.grid.dt
        mid = 0.5 * (p.dx2[:-1] + p.dx2[1:])
        rms = np.sqrt(np.mean((fd - mid) ** 2) / np.mean(mid ** 2))
        assert rms < 0.02

    def test_derivative_variance_normalized(self, iid_bf):
        s = SpectralSampler(iid_bf, GridSpec.from_dt(4.0, 0.05), n_freq=1024)
        vs = [float(np.mean(s.sample(1, k).dx2 ** 2)) for k in range(300)]
        est = float(np.mean(vs))
        se = float(np.std(vs, ddof=1) / math.sqrt(len(vs)))
        assert abs(est - 1.0) <= 3.0 * se

    def test_regression_construction_coupling(self, regression03):
        # E[X1(t) X2'(t)] = rho1 within 3 SE
        s = SpectralSampler(regression03, GridSpec.from_dt(4.0, 0.05), n_freq=1024)
        vals = [float(np.mean(s.sample(2, k).x1 * s.sample(2, k).dx2))
                for k in range(300)]
        est = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        assert abs(est - 0.3) <= 3.0 * se

    def test_unnormalized_spectrum_rejected(self, iid_bf):
        bad = replace(iid_bf, f2=lambda lam: 2.0 * np.sqrt(2 / np.pi)
                      * np.exp(-np.asarray(lam, float) ** 2 / 2.0))
        with pytest.raises(ModelError):
            SpectralSampler(bad, GridSpec.from_dt(2.0, 0.05), n_freq=512)

    def test_min_freq_guard(self, iid_bf):
        with pytest.raises(ParameterError):
            SpectralSampler(iid_bf, GridSpec.from_dt(2.0, 0.05), n_freq=128)

    def test_needs_spectra(self):
        from windlab.covmodel import alpha_family, make_independent_model
        rough = make_independent_model(alpha_family(1.2), bargmann_fock())
        with pytest.raises(CapabilityError):
            SpectralSampler(rough, GridSpec.from_dt(2.0, 0.05))

    def test_refined_shares_noise(self, iid_bf):
        s = SpectralSampler(iid_bf, GridSpec.from_dt(2.0, 0.05), n_freq=512)
        coarse, fine = s.sample_refined(4, 1)
        assert np.allclose(fine.x2[::2], coarse.x2, atol=1e-12)


class TestCirculant:
    def test_ou_minimal_embedding_nonnegative(self, ou_bf):
        s = CirculantSampler(ou_bf, GridSpec.from_dt(10.0, 0.01))
        assert s.clipped_mass <= 1e-12

    def test_matches_cholesky_law(self, iid_bf):
        # two-sample covariance comparison at 20 lags, 5% level with
        # Bonferroni correction (z threshold ~ 3.2)
        grid = GridSpec.from_dt(2.0, 0.1)
        n_rep = 4000
        chol = CholeskySampler(iid_bf, grid)
        rng = np.random.default_rng(17)
        zz = rng.standard_normal((n_rep, 2 * grid.n)) @ chol._chol.T
        x2c = zz[:, grid.n:]
        circ = CirculantSampler(iid_bf, grid)
        arr = circ.sample_batch(23, list(range(n_rep)))
        x2f = arr[:, 1, :]
        zmax = 0.0
        for lag in range(20):
            a = x2c[:, 0] * x2c[:, lag]
            b = x2f[:, 0] * x2f[:, lag]
            se = math.sqrt(a.var(ddof=1) / n_rep + b.var(ddof=1) / n_rep)
            zmax = max(zmax, abs(float(a.mean() - b.mean())) / se)
        assert zmax < 3.3

    @pytest.mark.parametrize("n, L", [(62, 125), (61, 120)])
    @pytest.mark.parametrize("name", ["iid_bf", "ou_bf", "regression03", "even_cross"])
    def test_lag_covariance_matches_model(self, name, n, L, request):
        # E[X1(t) X1(0)], E[X2(t) X2(0)], E[X1(t) X2(0)] and E[X1(0) X2(t)]
        # against r1(t), r2(t), r12(t), r12(-t) at every grid lag, with an
        # odd and an even embedding length; 4.5 SE over 4n cells.
        # even_cross is X1 = 0.6 X2 + 0.8 Z: an even r12, so the 2x2
        # spectral matrices of the real bins are not diagonal
        if name == "even_cross":
            bf = request.getfixturevalue("iid_bf")
            model = replace(bf, r12=lambda t: 0.6 * bf.r2(t))
        else:
            model = request.getfixturevalue(name)
        grid = GridSpec(T=(n - 1) * 0.2, n=n)
        s = CirculantSampler(model, grid)
        assert (s.L, s.pad) == (L, 1)
        arr = s.sample_batch(5, range(20_000))
        x1, x2 = arr[:, 0], arr[:, 1]
        t = grid.times()
        worst = 0.0
        for prod, want in ((x1 * x1[:, :1], model.r1(t)),
                           (x2 * x2[:, :1], model.r2(t)),
                           (x1 * x2[:, :1], model.r12(t)),
                           (x1[:, :1] * x2, model.r12(-t))):
            se = prod.std(axis=0, ddof=1) / math.sqrt(len(prod))
            worst = max(worst, float(np.max(np.abs(prod.mean(axis=0) - want) / se)))
        assert worst < 4.5

    def test_draws_2L_normals_per_path(self, iid_bf, regression03, monkeypatch):
        drawn = []

        class Counting(np.random.Generator):
            def standard_normal(self, *args, **kwargs):
                r = super().standard_normal(*args, **kwargs)
                drawn.append(r.size)
                return r

        monkeypatch.setattr(pathgen, "_rng", lambda seed, stream: Counting(
            np.random.Philox(key=[seed, stream])))
        for model in (iid_bf, regression03):
            for n in (61, 62):
                s = CirculantSampler(model, GridSpec(T=(n - 1) * 0.2, n=n))
                drawn.clear()
                s.sample_batch(3, range(7))
                assert sum(drawn) == 2 * s.L * 7

    def test_meta_records_embedding(self, iid_bf):
        p = sample_circulant(iid_bf, GridSpec(T=12.2, n=62), 1)
        assert (p.meta["embedding_length"], p.meta["pad"]) == (125, 1)
        assert p.meta["clipped_mass"] <= 1e-12

    def test_perf_scaling(self, iid_bf):
        # n log n growth: quadrupling n must not blow up the cost
        times = {}
        for n in (2 ** 18, 2 ** 20):
            grid = GridSpec(T=n * 0.01, n=n)
            s = CirculantSampler(iid_bf, grid)
            t0 = time.perf_counter()
            p = s.sample(1, 0)
            times[n] = time.perf_counter() - t0
            assert np.all(np.isfinite(p.x2))
        assert times[2 ** 20] < max(8.0 * times[2 ** 18], 2.0)


class TestOracleEquivalence:
    """Every backend reproduces the analytic covariance entrywise at lags
    {0, dt, ..., 20 dt} within 4 standard errors (1e4 replications)."""

    LAGS = np.arange(21)

    def _empirical(self, x1, x2, model, grid):
        worst = 0.0
        for lag in self.LAGS:
            for a, b, rfun in ((x1, x1, model.r1), (x2, x2, model.r2),
                               (x1, x2, lambda t: model.r12(t))):
                prod = a[:, lag] * b[:, 0]
                se = float(prod.std(ddof=1) / math.sqrt(len(prod)))
                err = abs(float(prod.mean()) - float(rfun(lag * grid.dt)))
                worst = max(worst, err / max(se, 1e-12))
        return worst

    def test_backends(self, iid_bf, regression03):
        n_rep = 10_000
        grid = GridSpec.from_dt(3.0, 0.05)
        cases = [
            (iid_bf, "circulant"), (iid_bf, "cholesky"), (iid_bf, "spectral"),
            (regression03, "circulant"), (regression03, "spectral"),
            (regression03, "cholesky"),
        ]
        for model, backend in cases:
            if backend == "circulant":
                s = CirculantSampler(model, grid)
                arr = s.sample_batch(31, list(range(n_rep)))
                x1, x2 = arr[:, 0], arr[:, 1]
            elif backend == "cholesky":
                s = CholeskySampler(model, grid)
                rng = np.random.default_rng(77)
                zz = rng.standard_normal((n_rep, 2 * grid.n)) @ s._chol.T
                x1, x2 = zz[:, :grid.n], zz[:, grid.n:]
            else:
                s = SpectralSampler(model, grid, n_freq=1024)
                x1 = np.empty((n_rep, grid.n))
                x2 = np.empty((n_rep, grid.n))
                for k in range(n_rep):
                    p = s.sample(31, k)
                    x1[k], x2[k] = p.x1, p.x2
            z = self._empirical(x1, x2, model, grid)
            assert z < 4.0, f"{backend}: worst z = {z:.2f}"


class TestStationarity:
    def test_time_average_matches_ensemble(self, iid_bf):
        grid = GridSpec.from_dt(2000.0, 0.05)
        p = sample_circulant(iid_bf, grid, seed=2)
        x = p.x2
        for lag_pts, lag in ((0, 0.0), (10, 0.5), (20, 1.0)):
            est = float(np.mean(x[lag_pts:] * x[:len(x) - lag_pts]))
            # SE of the time average ~ sqrt(2 int r^2 / T) ~ 0.042
            assert abs(est - float(iid_bf.r2(lag))) < 0.17


class TestSmoothing:
    def test_kernel_shape(self):
        assert bump_kernel(0.0) == pytest.approx(math.exp(-1.0))
        assert bump_kernel(1.0) == 0.0 and bump_kernel(-2.0) == 0.0

    def test_resolution_guard(self, iid_bf):
        p = sample_circulant(iid_bf, GridSpec.from_dt(5.0, 0.05), 1)
        with pytest.raises(ResolutionError):
            smooth_path(p, 0.05)

    def test_constant_path_invariant(self):
        grid = GridSpec.from_dt(5.0, 0.05)
        p = SamplePath(grid=grid, x1=np.ones(grid.n), x2=np.full(grid.n, 2.7))
        sm = smooth_path(p, 0.5)
        assert np.allclose(sm.x2, 2.7, atol=1e-12)
        assert np.array_equal(sm.x1, p.x1)

    def test_smooth_path_converges_on_smooth_input(self, iid_bf):
        p = sample_circulant(iid_bf, GridSpec.from_dt(10.0, 0.01), 6)
        errs = [float(np.max(np.abs(smooth_path(p, e).x2 - p.x2)))
                for e in (0.4, 0.2, 0.1, 0.05)]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_rough_path_second_differences_blow_up(self):
        from windlab.covmodel import make_alpha_process
        m = make_alpha_process(1.2)
        p = sample_circulant(m, GridSpec.from_dt(20.0, 0.01), 9)
        d2 = []
        for e in (0.4, 0.2, 0.1):
            x = smooth_path(p, e).x2
            d2.append(float(np.max(np.abs(np.diff(x, 2)))) / p.grid.dt ** 2)
        assert d2[0] < d2[1] < d2[2]


class TestPathIO:
    def test_csv_roundtrip(self, iid_bf):
        p = sample_spectral(iid_bf, GridSpec.from_dt(1.0, 0.05), 3, n_freq=512)
        buf = io.StringIO()
        export_path_csv(p, buf)
        buf.seek(0)
        q = load_path_csv(buf)
        assert np.allclose(q.x1, p.x1, atol=1e-15)
        assert np.allclose(q.x2, p.x2, atol=1e-15)
        assert np.allclose(q.dx2, p.dx2, atol=1e-15)
        assert q.backend == "spectral" and q.seed == 3

    def test_npz_roundtrip(self, iid_bf, tmp_path):
        p = sample_circulant(iid_bf, GridSpec.from_dt(1.0, 0.05), 3)
        f = tmp_path / "path.npz"
        export_path_npz(p, f)
        q = load_path_npz(f)
        assert np.array_equal(q.x1, p.x1) and np.array_equal(q.x2, p.x2)
        assert q.meta["clipped_mass"] == p.meta["clipped_mass"]
