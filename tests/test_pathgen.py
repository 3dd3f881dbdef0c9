import io
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from windlab import pathgen
from windlab.covmodel import bargmann_fock, make_regression_model, ornstein_uhlenbeck
from windlab.errors import ModelError, ParameterError, ResolutionError
from windlab.pathgen import (CholeskySampler, CirculantSampler, GridSpec,
                             SamplePath, SmoothingLadder, bump_kernel,
                             export_path_csv, load_path_csv, smooth_path)

from conftest import convolve_smooth


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
        for make in (CirculantSampler, CholeskySampler):
            a = make(iid_bf, grid).sample(99, stream=3)
            b = make(iid_bf, grid).sample(99, stream=3)
            assert a.x1.tobytes() == b.x1.tobytes() and a.x2.tobytes() == b.x2.tobytes()
            c = make(iid_bf, grid).sample(99, stream=4)
            assert not np.array_equal(a.x2, c.x2)

    def test_batch_matches_single(self, iid_bf, ou_bf, regression03, alpha12):
        # a path does not depend on its batch: bytes, so that a -0.0 in
        # place of 0.0 would show
        grid = GridSpec.from_dt(5.0, 0.02)
        for model in (iid_bf, ou_bf, regression03, alpha12):
            s = CirculantSampler(model, grid)
            singles = [s.sample(7, i) for i in range(40)]
            for size in (1, 3, 40):
                batch = s.sample_batch(7, range(size))
                assert batch.shape == (size, 2, grid.n)
                for row, p in zip(batch, singles):
                    assert row[0].tobytes() == p.x1.tobytes()
                    assert row[1].tobytes() == p.x2.tobytes()
        # the Cholesky oracle, bitwise
        other = CholeskySampler(regression03, grid)
        batch = other.sample_batch(7, [2, 0, 1])
        assert batch.shape == (3, 2, grid.n)
        for i, k in enumerate([2, 0, 1]):
            p = other.sample(7, k)
            assert batch[i, 0].tobytes() == p.x1.tobytes()
            assert batch[i, 1].tobytes() == p.x2.tobytes()

    def test_rng_keys_are_two_64_bit_words(self):
        # a word outside [0, 2^64) is refused rather than wrapped: seed
        # 2^64 would draw seed 0's paths
        for seed, stream in ((2 ** 64, 3), (-1, 3), (0, 2 ** 64), (0, -1)):
            with pytest.raises(ParameterError):
                pathgen._rng(seed, stream)
        with pytest.raises(TypeError):
            pathgen._rng(1.5, 0)
        # words of 2^63 and up are keyed exactly, not rounded through a
        # float: neighbouring seeds differ and 2^64 - 1 is not seed 0
        seeds = [0, 2 ** 63, 2 ** 63 + 1, 2 ** 64 - 2, 2 ** 64 - 1]
        draws = {pathgen._rng(k, 3).standard_normal(4).tobytes() for k in seeds}
        assert len(draws) == len(seeds)
        key = pathgen._rng(2 ** 64 - 1, 2 ** 63 + 1).bit_generator.state["state"]["key"]
        assert [int(w) for w in key] == [2 ** 64 - 1, 2 ** 63 + 1]
        # a used generator, re-keyed, draws what a new one draws (its
        # buffered words, 64-bit and 32-bit, are dropped)
        used = pathgen._rng(5, 1)
        used.standard_normal(7)
        used.random(dtype=np.float32)
        for seed, stream in ((0, 0), (2 ** 64 - 1, 2 ** 63 + 1)):
            draws = [(g.standard_normal(9).tobytes(), g.random(3, np.float32).tobytes())
                     for g in (pathgen._rng(seed, stream, used),
                               pathgen._rng(seed, stream))]
            assert draws[0] == draws[1]
        # below 2^63 the key is the one a plain list gives
        for seed, stream in ((0, 0), (5, 39), (2 ** 63 - 1, 7)):
            plain = np.random.Generator(np.random.Philox(key=[seed, stream]))
            assert (pathgen._rng(seed, stream).standard_normal(4).tobytes()
                    == plain.standard_normal(4).tobytes())

    def test_scratch_does_not_grow_with_the_batch(self, alpha12):
        # every path is synthesized in one reused half-spectrum: beyond its
        # output, a 52-path call allocates what a 1-path call does
        import tracemalloc
        s = CirculantSampler(alpha12, GridSpec(T=50.0, n=5001))

        def scratch(size):
            s.sample_batch(1, range(size))  # warm up numpy's FFT plan cache
            tracemalloc.start()
            try:
                out = s.sample_batch(1, range(size))
                return tracemalloc.get_traced_memory()[1] - out.nbytes
            finally:
                tracemalloc.stop()

        one, many = scratch(1), scratch(52)
        assert many <= one + (64 << 10), (one, many)


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


class TestSpectral:
    """The regression construction by dense harmonic synthesis written
    here with numpy alone: the one check of make_regression_model's r1
    and r12 that does not itself go through r12."""

    def test_regression_construction_coupling(self, regression03):
        # r1 and r12 (sign and lag convention) against
        # X1 = rho1 X2' + rho2 Z built literally: X2 and Z are
        # Bargmann-Fock, f(l) = sqrt(2/pi) e^{-l^2/2}, by dense harmonic
        # synthesis X2(t) = sum_j a_j (xi_j cos(l_j t) + eta_j sin(l_j t)),
        # a_j = sqrt(f(l_j) dl), with X2' from the same (xi, eta).  The
        # three lag covariances at lags {0, dt, ..., 20 dt} within 4 SE
        # over 1e4 replications
        rho1 = 0.3
        rho2 = math.sqrt(1.0 - rho1 ** 2)
        n_lam, n_rep, chunk = 512, 10_000, 1000
        dl = 8.0 / n_lam
        lam = (np.arange(n_lam) + 0.5) * dl
        amp = np.sqrt(math.sqrt(2.0 / math.pi) * np.exp(-lam ** 2 / 2.0) * dl)
        t = np.arange(21) * 0.05
        cos, sin = np.cos(np.outer(lam, t)), np.sin(np.outer(lam, t))
        rng = np.random.default_rng(4242)
        x1 = np.empty((n_rep, len(t)))
        x2 = np.empty((n_rep, len(t)))
        for a in range(0, n_rep, chunk):
            xi, eta, zeta, omega = amp * rng.standard_normal((4, chunk, n_lam))
            dx2 = (lam * eta) @ cos - (lam * xi) @ sin
            z = zeta @ cos + omega @ sin
            x2[a:a + chunk] = xi @ cos + eta @ sin
            x1[a:a + chunk] = rho1 * dx2 + rho2 * z
        worst = 0.0
        for prod, want in ((x1 * x1[:, :1], regression03.r1(t)),
                           (x1 * x2[:, :1], regression03.r12(t)),
                           (x1[:, :1] * x2, regression03.r12(-t))):
            se = prod.std(axis=0, ddof=1) / math.sqrt(n_rep)
            worst = max(worst, float(np.max(np.abs(prod.mean(axis=0) - want) / se)))
        assert worst < 4.0


def _model(name, request):
    """A conftest fixture by name, or even_cross: X1 = 0.6 X2 + 0.8 Z on
    iid Bargmann-Fock, an even r12, so the 2x2 spectral matrices of the
    real bins are not diagonal."""
    if name == "even_cross":
        bf = request.getfixturevalue("iid_bf")
        return replace(bf, r12=lambda t: 0.6 * bf.r2(t))
    return request.getfixturevalue(name)


def _worst_lag_z(model, s, seed, n_rep=20_000, chunk=500):
    """Largest |mean - model| / SE over the four lag covariances
    E[X1(t) X1(0)], E[X2(t) X2(0)], E[X1(t) X2(0)], E[X1(0) X2(t)] of
    n_rep paths, drawn chunk at a time, at every grid lag against r1(t),
    r2(t), r12(t), r12(-t)."""
    n = s.grid.n
    acc = np.zeros((2, 4, n))  # sums and sums of squares
    for a in range(0, n_rep, chunk):
        x = s.sample_batch(seed, range(a, min(a + chunk, n_rep)))
        x1, x2 = x[:, 0], x[:, 1]
        prods = np.stack([x1 * x1[:, :1], x2 * x2[:, :1],
                          x1 * x2[:, :1], x1[:, :1] * x2], axis=1)
        acc[0] += prods.sum(axis=0)
        acc[1] += (prods ** 2).sum(axis=0)
    mean = acc[0] / n_rep
    se = np.sqrt((acc[1] / n_rep - mean ** 2) / (n_rep - 1))
    t = s.grid.times()
    want = np.stack([model.r1(t), model.r2(t), model.r12(t), model.r12(-t)])
    return float(np.max(np.abs(mean - want) / se))


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

    @pytest.mark.parametrize("n, L", [(62, 125), (61, 120), (301, 500)])
    @pytest.mark.parametrize("name", ["iid_bf", "ou_bf", "regression03", "even_cross"])
    def test_lag_covariance_matches_model(self, name, n, L, request):
        # the four lag covariances of 20000 paths at every grid lag within
        # 4.5 SE, with an odd and an even embedding length, and at
        # n = 301, dt = 0.2, where Bargmann-Fock's covariance is 0.0 past
        # lag 194 and L = 500 < 600: lags 251..300 wrap.  OU never
        # vanishes, so OU x BF keeps L = next_fast_len(2(n - 1))
        model = _model(name, request)
        grid = GridSpec(T=(n - 1) * 0.2, n=n)
        s = CirculantSampler(model, grid)
        if name == "ou_bf":
            L = pathgen.next_fast_len(2 * (n - 1))
        assert (s.L, s.pad) == (L, 1)
        assert _worst_lag_z(model, s, 5) < 4.5

    @pytest.mark.parametrize("name", ["iid_bf", "regression03", "even_cross"])
    def test_cut_embedding_is_exact_on_the_grid(self, name, request, monkeypatch):
        # T = 60, dt = 0.2: exp(-t^2/2) is 0.0 past t ~ 38.6, so the
        # embedding covers n - 1 + h lags (L = 500 < 600).  The covariance
        # that the spectral factors imply meets r1, r2, r12(t) and r12(-t)
        # at every grid lag, and h is tight.  With no band tolerance the
        # factor spans every bin of nonzero weight
        monkeypatch.setattr(pathgen, "_BAND_TOL", 0.0)
        model = _model(name, request)
        grid = GridSpec.from_dt(60.0, 0.2)
        n = grid.n
        s = CirculantSampler(model, grid)
        h = s._base - (n - 1)
        assert h < n - 1 and s.L == pathgen.next_fast_len(n - 1 + h) == 500
        lags = np.arange(n) * grid.dt
        want = np.array([[model.r1(lags), model.r12(lags)],
                         [model.r12(-lags), model.r2(lags)]])
        assert np.any(want[..., h - 1] != 0.0) and np.all(want[..., h:] == 0.0)
        fac = s._fac
        k = np.arange(fac.shape[-1])
        mult = np.where((k == 0) | (2 * k == s.L), 1.0, 2.0)
        # irfft zero-pads the bins above the factor's
        spec = np.einsum("rck,sck->rsk", fac, fac.conj()) * mult / s.L
        cov = np.fft.irfft(spec, n=s.L, axis=-1)[..., :n]
        assert np.max(np.abs(cov - want)) <= 1e-14

    def test_normals_per_path_follow_kept_bins(self, iid_bf, ou_bf,
                                               regression03, monkeypatch):
        # a channel keeping K of the L//2 + 1 bins draws 2K - 1 normals; a
        # channel keeping every bin draws L (an even L's Nyquist bin takes
        # one normal), so an alpha model draws 2L and OU x BF's OU channel L
        from windlab.covmodel import make_alpha_process
        drawn = []

        class Counting(np.random.Generator):
            def standard_normal(self, *args, **kwargs):
                r = super().standard_normal(*args, **kwargs)
                drawn.append(r.size)
                return r

        # the sampler builds its generator through np.random.Generator,
        # looked up at call time (as the benchmark's normal counter needs)
        monkeypatch.setattr(np.random, "Generator", Counting)
        alpha = make_alpha_process(1.2)
        for model in (iid_bf, ou_bf, regression03, alpha):
            for n in (61, 62):
                s = CirculantSampler(model, GridSpec(T=(n - 1) * 0.2, n=n))
                bins = s.L // 2 + 1
                drawn.clear()
                s.sample_batch(3, range(7))
                if model is alpha:
                    assert s.kept_bins == (bins, bins)
                    assert sum(drawn) == 2 * s.L * 7
                elif model is ou_bf:
                    assert s.kept_bins[0] == bins and s.kept_bins[1] < bins
                    assert sum(drawn) == (s.L + 2 * s.kept_bins[1] - 1) * 7
                else:
                    assert max(s.kept_bins) < bins
                    assert sum(drawn) == sum(2 * k - 1 for k in s.kept_bins) * 7

    @staticmethod
    def _full_draw(s, seed, streams):
        """Every bin drawn: 2L normals per stream into the half-spectrum,
        as the sampler did before it dropped the empty bins; the channels
        mixed by the factor, whose diagonal is a real scale."""
        L, f = s.L, s._fac
        assert f.shape == (2, 2, L // 2 + 1)
        W = np.empty((len(streams), 2, L // 2 + 1), complex)
        re_im = W.view(float)
        for i, stream in enumerate(streams):
            re_im[i, :, 1:L + 1] = pathgen._rng(seed, stream).standard_normal((2, L))
        re_im[..., L + 1:] = 0.0
        W.real[..., 0] = W.imag[..., 0]
        W = np.stack([f[0, 0].real * W[:, 0] + f[0, 1] * W[:, 1],
                      f[1, 0] * W[:, 0] + f[1, 1].real * W[:, 1]], axis=1)
        return np.fft.irfft(W, n=L, axis=-1)[..., :s.grid.n]

    @pytest.mark.parametrize("n", [61, 62, 1001])
    def test_full_band_channels_match_the_full_draw(self, ou_bf, n):
        # alpha coordinates keep every bin: bitwise today's paths; OU x BF
        # keeps every OU bin, and its x1 draws the stream's first L normals
        from windlab.covmodel import make_alpha_process
        grid = GridSpec(T=(n - 1) * 0.05, n=n)
        alpha = CirculantSampler(make_alpha_process(1.2), grid)
        ou = CirculantSampler(ou_bf, grid)
        # neither model's covariance vanishes on the grid: the full
        # embedding, also at T = 50, past Bargmann-Fock's support
        for s in (alpha, ou):
            assert s.L == pathgen.next_fast_len(2 * (n - 1) * s.pad)
        assert (alpha.sample_batch(4, [0, 5, 2]).tobytes()
                == self._full_draw(alpha, 4, [0, 5, 2]).tobytes())
        assert ou.kept_bins[1] < ou.kept_bins[0] == ou.L // 2 + 1
        assert (ou.sample_batch(4, [0, 5, 2])[:, 0].tobytes()
                == self._full_draw(ou, 4, [0, 5, 2])[:, 0].tobytes())

    @pytest.mark.parametrize("name", ["iid_bf", "regression03"])
    def test_band_limited_lag_covariance(self, name, request):
        # T = 10, dt = 0.01: 25 of the 1001 bins carry the spectrum.  The
        # four lag covariances of 20000 paths, drawn 500 at a time, against
        # the model at every grid lag within 4.5 SE
        model = request.getfixturevalue(name)
        grid = GridSpec.from_dt(10.0, 0.01)
        s = CirculantSampler(model, grid)
        assert s.L // 2 + 1 == 1001 and max(s.kept_bins) <= 25
        assert s.truncated_mass <= 1e-13
        assert _worst_lag_z(model, s, 11) < 4.5

    def test_meta_records_embedding(self, iid_bf):
        p = CirculantSampler(iid_bf, GridSpec(T=12.2, n=62)).sample(1)
        assert (p.meta["embedding_length"], p.meta["pad"]) == (125, 1)
        assert p.meta["clipped_mass"] <= 1e-12
        assert p.meta["kept_bins"] == list(CirculantSampler(
            iid_bf, p.grid).kept_bins)
        assert 0.0 < p.meta["truncated_mass"] <= 1e-13

    def test_point_cap_refused_before_allocation(self, iid_bf, monkeypatch):
        # np.arange is the build's first allocation: above the cap it must
        # not run, at one past the cap or at 1e302 points
        def no_allocation(*args, **kwargs):
            raise AssertionError("the build allocated above the point cap")

        monkeypatch.setattr(pathgen.np, "arange", no_allocation)
        for n in (CirculantSampler.n_cap + 1, 10 ** 302 + 1):
            with pytest.raises(ParameterError, match="capped"):
                CirculantSampler(iid_bf, GridSpec(T=0.01 * (n - 1), n=n))

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


def _cross_spectrum(s):
    """The (bins, 2, 2) Hermitian matrices G_k that the circulant sampler
    factors: the rfft of r1, r2 and of the hermitised r12, real on the
    real bins."""
    L = s.L
    k = np.arange(L)
    tau = np.where(k <= L // 2, k, k - L) * s.grid.dt
    m = s.model
    b = 0.5 * (np.fft.rfft(m.r12(tau)) + np.conj(np.fft.rfft(m.r12(-tau))))
    real = (k[:L // 2 + 1] == 0) | (2 * k[:L // 2 + 1] == L)
    b[real] = b[real].real
    G = np.empty((L // 2 + 1, 2, 2), complex)
    G[:, 0, 0] = np.fft.rfft(m.r1(np.abs(tau))).real
    G[:, 1, 1] = np.fft.rfft(m.r2(np.abs(tau))).real
    G[:, 0, 1], G[:, 1, 0] = b, np.conj(b)
    return G, np.where(real, 1.0, 2.0)


class TestSpectralFactor:
    """The closed-form 2x2 rotation against a LAPACK eigh oracle."""

    @pytest.mark.parametrize("name", ["regression03", "rough_x1"])
    def test_factor_matches_eigh(self, name, request):
        # T = 20, dt = 0.01: L = 4000 for the rough X1 (its OU noise keeps
        # every bin, the Nyquist bin among them) and a band-limited cut
        # for regression03
        rough = name == "rough_x1"
        model = (make_regression_model(bargmann_fock(), ornstein_uhlenbeck(), 0.6)
                 if rough else request.getfixturevalue(name))
        s = CirculantSampler(model, GridSpec.from_dt(20.0, 0.01))
        fac = s._fac
        K = fac.shape[-1]
        G, mult = _cross_spectrum(s)
        G, mult = G[:K], mult[:K]
        scale = np.max(np.abs(G))
        # the eigenvalues: the factor's column norms
        lam = np.einsum("rck,rck->kc", fac, fac.conj()).real * mult[:, None] / s.L
        want = np.clip(np.linalg.eigh(G)[0], 0.0, None)
        assert np.max(np.abs(np.sort(lam, axis=1) - want)) <= 1e-13 * scale
        # F F^H reproduces G_k on every kept bin
        FFh = np.einsum("rck,sck->krs", fac, fac.conj()) * mult[:, None, None] / s.L
        assert np.max(np.abs(FFh - G)) <= 1e-14 * scale
        # channel c is the eigenvector nearest coordinate c
        assert np.all(np.abs(fac[0, 0]) >= np.abs(fac[1, 0]))
        assert np.all(np.abs(fac[1, 1]) >= np.abs(fac[0, 1]))
        # the real bins get real factors
        real = [0] + ([K - 1] if 2 * (K - 1) == s.L else [])
        assert np.all(fac[..., real].imag == 0.0)
        if rough:
            assert s.kept_bins[0] == K == s.L // 2 + 1 and len(real) == 2
            assert s.kept_bins[1] < K

    def test_independent_factor_is_exactly_diagonal(self, iid_bf):
        s = CirculantSampler(iid_bf, GridSpec.from_dt(20.0, 0.01))
        fac = s._fac
        K = fac.shape[-1]
        G, mult = _cross_spectrum(s)
        amp = np.sqrt(s.L * np.clip(G[:K, 0, 0].real, 0.0, None) / mult[:K])
        assert np.all(fac[0, 1] == 0.0) and np.all(fac[1, 0] == 0.0)
        assert np.all(fac[0, 0].imag == 0.0) and np.all(fac[1, 1].imag == 0.0)
        assert np.array_equal(fac[0, 0].real, amp)
        assert np.array_equal(fac[1, 1].real, amp)

    @pytest.mark.parametrize("name, want", [
        ("iid_bf", ("1.6755551100346557", "-1.1421277534246919")),
        ("ou_bf", ("1.4137485413392878", "0.028528149109905827")),
        ("alpha", ("1.4535190360556185", "1.050117247103181")),
    ])
    def test_independent_paths_pinned(self, name, want, request):
        # independent models draw the paths they drew with a diagonal factor
        from windlab.covmodel import make_alpha_process
        model = (make_alpha_process(1.2) if name == "alpha"
                 else request.getfixturevalue(name))
        x = CirculantSampler(model, GridSpec(T=12.2, n=62)).sample_batch(1, [0])
        assert (repr(float(x[0, 0, 17])), repr(float(x[0, 1, 17]))) == want


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
            (iid_bf, "circulant"), (iid_bf, "cholesky"),
            (regression03, "circulant"), (regression03, "cholesky"),
        ]
        for model, backend in cases:
            if backend == "circulant":
                s = CirculantSampler(model, grid)
                arr = s.sample_batch(31, list(range(n_rep)))
                x1, x2 = arr[:, 0], arr[:, 1]
            else:
                s = CholeskySampler(model, grid)
                rng = np.random.default_rng(77)
                zz = rng.standard_normal((n_rep, 2 * grid.n)) @ s._chol.T
                x1, x2 = zz[:, :grid.n], zz[:, grid.n:]
            z = self._empirical(x1, x2, model, grid)
            assert z < 4.0, f"{backend}: worst z = {z:.2f}"


class TestStationarity:
    def test_time_average_matches_ensemble(self, iid_bf):
        grid = GridSpec.from_dt(2000.0, 0.05)
        p = CirculantSampler(iid_bf, grid).sample(2)
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
        p = CirculantSampler(iid_bf, GridSpec.from_dt(5.0, 0.05)).sample(1)
        with pytest.raises(ResolutionError):
            smooth_path(p, 0.05)

    def test_kernel_wider_than_path_rejected(self):
        # ceil(eps/dt) > n - 1: the reflected pad cannot hold the kernel
        grid = GridSpec.from_dt(1.0, 0.01)
        p = SamplePath(grid=grid, x1=np.ones(grid.n), x2=np.full(grid.n, 2.7))
        for eps in (2.0 * grid.T, 1.01):
            with pytest.raises(ResolutionError, match="epsilon"):
                smooth_path(p, eps)
        assert np.allclose(smooth_path(p, 1.0).x2, 2.7, atol=1e-12)

    def test_constant_path_invariant(self):
        grid = GridSpec.from_dt(5.0, 0.05)
        p = SamplePath(grid=grid, x1=np.ones(grid.n), x2=np.full(grid.n, 2.7))
        sm = smooth_path(p, 0.5)
        assert np.allclose(sm.x2, 2.7, atol=1e-12)
        assert np.array_equal(sm.x1, p.x1)
        rows = SmoothingLadder(grid, [2.0, 0.5, 0.1]).smooth(p.x2)
        assert rows.shape == (3, grid.n)
        assert np.max(np.abs(rows - 2.7)) <= 1e-12

    def test_ladder_matches_convolution(self, alpha12):
        # the shipped ladder on alpha = 1.2 paths at the shipped grid
        grid = GridSpec.from_dt(50.0, 0.01)
        eps = [0.4, 0.2, 0.1, 0.05]
        ladder = SmoothingLadder(grid, eps)
        for x1, x2 in CirculantSampler(alpha12, grid).sample_batch(5, range(6)):
            rows = ladder.smooth(x2)
            tol = 1e-13 * np.max(np.abs(x2))
            for e, row in zip(eps, rows):
                assert np.max(np.abs(row - convolve_smooth(x2, grid, e))) <= tol, e

    def test_ladder_widest_and_narrowest_kernels(self, alpha12):
        # half-width n - 1 (the whole path reflected) and epsilon = 2 dt
        grid = GridSpec.from_dt(1.0, 0.01)
        eps = [1.0, 0.5, 2.0 * grid.dt]
        ladder = SmoothingLadder(grid, eps)
        assert ladder.pad == grid.n - 1
        x2 = CirculantSampler(alpha12, grid).sample(2).x2
        rows = ladder.smooth(x2)
        for e, row in zip(eps, rows):
            assert np.max(np.abs(row - convolve_smooth(x2, grid, e))) <= (
                1e-13 * np.max(np.abs(x2))), e

    def test_one_rung_ladder_is_smooth_path(self, alpha12):
        grid = GridSpec.from_dt(10.0, 0.01)
        p = CirculantSampler(alpha12, grid).sample(3)
        for e in (0.4, 0.05):
            (row,) = SmoothingLadder(grid, [e]).smooth(p.x2)
            assert np.array_equal(row, smooth_path(p, e).x2)

    def test_ladder_validation_order(self):
        grid = GridSpec.from_dt(1.0, 0.01)
        with pytest.raises(ParameterError, match="non-empty"):
            SmoothingLadder(grid, [])
        # not decreasing, and 0.01 < 2 dt: the order is refused first
        with pytest.raises(ParameterError, match="strictly decreasing"):
            SmoothingLadder(grid, [0.01, 0.4])
        # the first epsilon the grid cannot hold is the one named
        with pytest.raises(ResolutionError, match="epsilon = 2 spans"):
            SmoothingLadder(grid, [2.0, 0.01])
        with pytest.raises(ResolutionError, match="epsilon = 0.01 below"):
            SmoothingLadder(grid, [0.5, 0.01])

    def test_ladder_spectra_read_only(self):
        ladder = SmoothingLadder(GridSpec.from_dt(5.0, 0.01), [0.4, 0.1])
        with pytest.raises(ValueError, match="read-only"):
            ladder.spectra[0, 0] = 1.0

    def test_ladder_refuses_x2_off_its_grid(self):
        grid = GridSpec.from_dt(5.0, 0.01)
        ladder = SmoothingLadder(grid, [0.4, 0.1])
        for x2 in (np.zeros(grid.n - 1), np.zeros(grid.n + 300), np.zeros((2, grid.n))):
            with pytest.raises(ParameterError, match="grid of 501 points"):
                ladder.smooth(x2)

    def test_smooth_path_converges_on_smooth_input(self, iid_bf):
        p = CirculantSampler(iid_bf, GridSpec.from_dt(10.0, 0.01)).sample(6)
        errs = [float(np.max(np.abs(smooth_path(p, e).x2 - p.x2)))
                for e in (0.4, 0.2, 0.1, 0.05)]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_rough_path_second_differences_blow_up(self):
        from windlab.covmodel import make_alpha_process
        m = make_alpha_process(1.2)
        p = CirculantSampler(m, GridSpec.from_dt(20.0, 0.01)).sample(9)
        d2 = []
        for e in (0.4, 0.2, 0.1):
            x = smooth_path(p, e).x2
            d2.append(float(np.max(np.abs(np.diff(x, 2)))) / p.grid.dt ** 2)
        assert d2[0] < d2[1] < d2[2]


class TestPathIO:
    def test_csv_roundtrip(self, iid_bf):
        p = CirculantSampler(iid_bf, GridSpec.from_dt(1.0, 0.05)).sample(3)
        buf = io.StringIO()
        export_path_csv(p, buf)
        buf.seek(0)
        q = load_path_csv(buf)
        assert np.allclose(q.x1, p.x1, atol=1e-15)
        assert np.allclose(q.x2, p.x2, atol=1e-15)
        assert q.backend == "circulant" and q.seed == 3
        # columns after (t, x1, x2), such as an older file's dx2, are ignored
        lines = buf.getvalue().splitlines()
        old = "\n".join(lines[:1] + [lines[1] + ",dx2"]
                        + [row + ",0.5" for row in lines[2:]])
        r = load_path_csv(io.StringIO(old))
        assert np.array_equal(r.x1, q.x1) and np.array_equal(r.x2, q.x2)

    @pytest.mark.parametrize("text", ["", "# a comment\n# another\n",
                                      "t,x1,x2\n", "t,x1,x2\n0.0,1.0,0.5\n"])
    def test_csv_without_two_data_rows_rejected(self, text):
        with pytest.raises(ParameterError, match="two data rows"):
            load_path_csv(io.StringIO(text))
