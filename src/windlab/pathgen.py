"""Sample-path generation for the planar process (X1, X2) on uniform grids.

Two backends:

* Circulant: FFT embedding of the (block) covariance, O(n log n); exact
  up to clipping of negative embedding eigenvalues, which is recorded.
  The production sampler.
* Cholesky: exact joint factorization, O(n^3), the small-scale oracle
  the tests compare against.

Randomness is counter-based (Philox) keyed by (seed, stream): replication
``stream`` of a Monte Carlo run is reproducible independently of execution
order or worker count.
"""
from __future__ import annotations

import io
import json
import math
import operator
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
# numpy imports these subpackages on first use; they load with the module
# so that the one-time import stays out of the first sample_batch call
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

# classify is not called here: the benchmark tracer (perfbench/tracer.py)
# patches pathgen.classify under --trace 1 and fails on a missing name
from .covmodel import CovarianceModel, classify  # noqa: F401
from .errors import ModelError, ParameterError, ResolutionError, SamplerError

__all__ = [
    "GridSpec",
    "SamplePath",
    "CholeskySampler",
    "CirculantSampler",
    "SmoothingLadder",
    "smooth_path",
    "kernel_half_width",
    "bump_kernel",
    "export_path_csv",
    "load_path_csv",
    "model_spec_hash",
]

_EIG_TOL = -1e-10
_CLIP_WARN = 1e-8
_BAND_TOL = 1e-13  # circulant weight share a noise channel may leave undrawn
_CLIP_FAIL = 1e-3


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of n points spanning [0, T]."""

    T: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError("grid needs at least 2 points")
        if self.T <= 0:
            raise ParameterError("T must be positive")

    @property
    def dt(self) -> float:
        return self.T / (self.n - 1)

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n)

    @classmethod
    def from_dt(cls, T: float, dt: float) -> "GridSpec":
        if not math.isfinite(T / dt):
            raise ParameterError(f"T = {T:g} at dt = {dt:g} overflows the step count")
        return cls(T=T, n=int(round(T / dt)) + 1)


@dataclass(frozen=True)
class SamplePath:
    grid: GridSpec
    x1: np.ndarray
    x2: np.ndarray
    seed: int = 0
    stream: int = 0
    backend: str = "?"
    meta: dict = field(default_factory=dict)

    def times(self) -> np.ndarray:
        return self.grid.times()


def _rng(seed: int, stream: int, rng=None) -> np.random.Generator:
    """Philox keyed by the 64-bit words (seed, stream), at counter 0.  A
    word outside [0, 2^64) is refused rather than wrapped; the key array is
    uint64 because a list holding a word >= 2^63 would become float64.

    ``rng``, a generator this function returned, is re-keyed in place and
    returned: it then draws what a new one would, without the OS-entropy
    seed sequence that ``Philox(key=...)`` builds and throws away."""
    for name, v in (("seed", seed), ("stream", stream)):
        if not 0 <= operator.index(v) < 2 ** 64:
            raise ParameterError(f"{name} must lie in [0, 2^64), got {v}")
    key = np.array([seed, stream], np.uint64)
    if rng is None:
        # np.random.Generator is looked up at call time: the benchmark
        # tracer (perfbench/tracer.py) counts normals by replacing it
        return np.random.Generator(np.random.Philox(key=key))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": key},
        "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return rng


def next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer (2^a 3^b 5^c) >= n: the real-FFT lengths
    pocketfft transforms fastest."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power-of-two multiple of p35 reaching n
            best = min(best, p35 << max(-(-n // p35) - 1, 0).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def model_spec_hash(model: CovarianceModel) -> str:
    """Short stable hash of the model construction metadata."""
    import hashlib
    payload = json.dumps(model.meta, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# sampler protocol
# ----------------------------------------------------------------------
class _Sampler:
    """Batch-first protocol shared by the two backends.

    ``sample_batch(seed, streams)`` returns the (len(streams), 2, n) array
    of (x1, x2) paths; stream s draws from its own Philox key, so a path
    does not depend on the batch it is drawn in.  ``sample(seed, stream)``
    is the one-stream batch wrapped as a SamplePath whose meta carries the
    model hash and the sampler diagnostics.
    """

    backend = "?"

    @classmethod
    def check_grid(cls, grid: GridSpec) -> None:
        """Refuse a grid above the backend's n_cap points, allocating nothing."""
        if grid.n > cls.n_cap:
            raise ParameterError(f"{cls.backend} backend capped at "
                                 f"n = {cls.n_cap} points, got {grid.n:.3g}")

    def sample(self, seed: int, stream: int = 0) -> SamplePath:
        x1, x2 = self.sample_batch(seed, [stream])[0]
        return SamplePath(grid=self.grid, x1=x1, x2=x2, seed=seed,
                          stream=stream, backend=self.backend,
                          meta={**self.diagnostics,
                                "model": model_spec_hash(self.model)})


# ----------------------------------------------------------------------
# Cholesky backend
# ----------------------------------------------------------------------
class CholeskySampler(_Sampler):
    """Exact sampler from the dense 2n x 2n joint covariance.

    The cross block is assembled entry-wise from r12 with the signed lag
    (E[X1(t_i) X2(t_j)] = r12(t_i - t_j)), which matters whenever r12 is
    not even.
    """

    backend = "cholesky"
    n_cap = 4096

    def __init__(self, model: CovarianceModel, grid: GridSpec):
        self.check_grid(grid)
        self.model = model
        self.grid = grid
        t = grid.times()
        lag = t[:, None] - t[None, :]
        r1 = np.asarray(model.r1(np.abs(lag)), float)
        r2 = np.asarray(model.r2(np.abs(lag)), float)
        c = np.asarray(model.r12(lag), float)
        if np.max(np.abs(r1)) > 1.0 + 1e-12 or np.max(np.abs(r2)) > 1.0 + 1e-12:
            raise ModelError("|r(t)| > 1: not a correlation function")
        cov = np.block([[r1, c], [c.T, r2]])
        self.jitter = 0.0
        try:
            self._chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            emin = float(np.linalg.eigvalsh(cov).min())
            if emin < _EIG_TOL * max(1.0, float(np.max(np.diag(cov)))):
                raise ModelError(
                    f"joint covariance indefinite: smallest eigenvalue {emin:.3e}")
            self.jitter = 1e-12
            cov[np.diag_indices_from(cov)] += self.jitter
            self._chol = np.linalg.cholesky(cov)

    def sample_batch(self, seed: int, streams) -> np.ndarray:
        n = self.grid.n
        out = np.empty((len(streams), 2, n))
        rng = None  # one generator per call, re-keyed per stream
        for i, s in enumerate(streams):
            rng = _rng(seed, s, rng)
            out[i] = (self._chol @ rng.standard_normal(2 * n)).reshape(2, n)
        return out

    @property
    def diagnostics(self) -> dict:
        return {"jitter": self.jitter}


# ----------------------------------------------------------------------
# circulant backend
# ----------------------------------------------------------------------
class CirculantSampler(_Sampler):
    """Circulant embedding of the 2x2 block covariance, one spectral factor
    for every model class.  The embedding length L is the shortest fast FFT
    length covering n - 1 + min(h, n - 1) lags, h being one past the last
    grid lag at which r1, r2 or r12(+-t) is not exactly 0.0: 2(n-1) (Wood &
    Chan 1994) unless the covariance vanishes inside the grid.  A grid lag
    d that wraps has d and L - |d| both at least h, where the covariance is
    0, so the embedded covariance matrix equals the target entry for entry
    (Dietrich & Newsam 1997).  Negative embedding eigenvalues trigger
    padding doubling up to 8x, after which remaining negative mass is
    clipped and recorded.

    Each half-spectrum bin's Hermitian cross-spectrum G_k = [[a, b],
    [conj b, d]] is factored by one closed-form Jacobi rotation of at most
    pi/4, so noise channel c is the eigenvector nearest coordinate X_c.
    Where b = 0 (every bin of an independent model) the factor is
    diag(sqrt a, sqrt d) up to scale, and the real bins get real factors.
    Each coordinate is one real inverse FFT of Hermitian half-spectrum
    noise (Dietrich & Newsam 1997).  Noise channel c draws normals only for
    its first K_c half-spectrum bins, the fewest whose dropped weight is at
    most _BAND_TOL of the channel's total; the bins above stay zero.  A
    channel that keeps every bin draws L normals, so rough (alpha, OU)
    coordinates see the full stream."""

    backend = "circulant"
    # a build plus one path of a regression model at the cap peaks at
    # 0.5-0.9 GiB, growing with the embedding length (README)
    n_cap = 2 ** 22 + 1

    def __init__(self, model: CovarianceModel, grid: GridSpec):
        self.check_grid(grid)
        self.model = model
        self.grid = grid
        # h: one past the last grid lag at which any correlation is nonzero
        lags = np.arange(grid.n) * grid.dt
        rs = [model.r1(lags), model.r2(lags), model.r12(lags), model.r12(-lags)]
        h = 1 + int(np.flatnonzero(np.any(np.asarray(rs, float) != 0.0, axis=0))[-1])
        self._base = grid.n - 1 + min(h, grid.n - 1)
        self.pad = 1
        while not self._build(self.pad) and self.pad < 8:
            self.pad *= 2
        if self.clipped_mass > _CLIP_FAIL:
            raise SamplerError(
                f"circulant embedding clipped {self.clipped_mass:.2e} relative "
                "negative mass; model unsuitable for this backend")
        if self.clipped_mass > _CLIP_WARN:
            warnings.warn(f"circulant embedding clipped mass {self.clipped_mass:.2e}",
                          RuntimeWarning)

    @property
    def diagnostics(self) -> dict:
        return {"clipped_mass": self.clipped_mass, "embedding_length": self.L,
                "pad": self.pad, "kept_bins": list(self.kept_bins),
                "truncated_mass": self.truncated_mass}

    def _build(self, pad) -> bool:
        self.L = L = next_fast_len(self._base * pad)
        k = np.arange(L)
        tau = np.where(k <= L // 2, k, k - L) * self.grid.dt
        # half-spectrum bins 0..L//2; all but bin 0 and an even L's Nyquist
        # bin also stand for their mirror L - k
        real_bins = (k[:L // 2 + 1] == 0) | (2 * k[:L // 2 + 1] == L)
        mult = np.where(real_bins, 1.0, 2.0)
        # G_k = sum_u R(tau_u) e^{-2 pi i k u / L}, R_12(t) = r12(t),
        # hermitised; irfft keeps only the real part of the real bins
        a = np.fft.rfft(np.asarray(self.model.r1(np.abs(tau)), float)).real
        d = np.fft.rfft(np.asarray(self.model.r2(np.abs(tau)), float)).real
        b = 0.5 * (np.fft.rfft(np.asarray(self.model.r12(tau), float))
                   + np.conj(np.fft.rfft(np.asarray(self.model.r12(-tau), float))))
        b[real_bins] = b[real_bins].real
        # free the lag-domain arrays before the factors, so that they do
        # not raise the build's peak memory
        del k, tau
        # Jacobi rotation: tangent t = tan(theta), |theta| <= pi/4, phase p
        babs = np.abs(b)
        has_b = babs > 0.0
        diff = a - d
        t = np.divide(2.0 * babs, diff + np.copysign(np.hypot(diff, 2.0 * babs), diff),
                      out=np.zeros_like(babs), where=has_b)
        p = np.divide(b, babs, out=np.ones_like(b), where=has_b)
        # channel c's eigenvalue, nearest G_k's diagonal entry c
        w = np.stack([a + babs * t, d - babs * t], axis=-1)
        del a, d, b, babs, has_b, diff
        neg = float(np.sum(mult[:, None] * np.clip(w, None, 0.0)))
        self.clipped_mass = -neg / float(np.sum(mult[:, None] * np.abs(w)))
        w = np.clip(w, 0.0, None)
        # channel c's weight in bin k is |fac_k|^2 mult_k = L w_k (the
        # eigenvectors are unit columns); keep the bins below K_c, where the
        # weight above K_c is at most _BAND_TOL of the channel's total
        kept, dropped = [], []
        for c in range(2):
            tail = np.cumsum(w[::-1, c])  # tail[j]: weight in the last j + 1 bins
            m = int(np.searchsorted(tail, _BAND_TOL * tail[-1], side="right"))
            kept.append(len(tail) - m)
            dropped.append(float(tail[m - 1] / tail[-1]) if m else 0.0)
        self.kept_bins, self.truncated_mass = tuple(kept), max(dropped)
        K = max(kept)
        # complex bins carry (a + ib)/sqrt(2): unit variance from two normals
        amp = np.sqrt(L * w[:K] / mult[:K, None]).T
        cos = 1.0 / np.sqrt(1.0 + t[:K] ** 2)
        sin = t[:K] * cos
        # fac[r, c, k]: eigenvectors (cos, conj(p) sin) and (-p sin, cos)
        # as columns, scaled by the channel amplitudes
        self._fac = np.empty((2, 2, K), complex)
        self._fac[0, 0] = cos * amp[0]
        self._fac[1, 0] = np.conj(p[:K]) * sin * amp[0]
        self._fac[0, 1] = -p[:K] * sin * amp[1]
        self._fac[1, 1] = cos * amp[1]
        return self.clipped_mass <= 1e-12  # float-noise negativity is fine

    def sample_batch(self, seed: int, streams) -> np.ndarray:
        """Stream s draws min(2 K_c - 1, L) normals per channel c from its
        own Philox key, channel 0 first.  Paths are synthesized one at a
        time in one reused half-spectrum, so a call's scratch is one path's
        spectrum whatever the batch size."""
        L, K = self.L, max(self.kept_bins)
        draws = [min(2 * k - 1, L) for k in self.kept_bins]
        fac = self._fac
        # the diagonal factors are real: a real scale, as for a diagonal G_k
        f00, f01, f10, f11 = fac[0, 0].real, fac[0, 1], fac[1, 0], fac[1, 1].real
        out = np.empty((len(streams), 2, self.grid.n))
        # bins from K up are never written, so they stay zero for every path
        W = np.zeros((2, L // 2 + 1), complex)
        re_im = W.view(float)
        z0, z1 = W[0, :K], W[1, :K]
        full = np.empty((2, L))
        rng = None  # one generator per call, re-keyed per stream
        for i, s in enumerate(streams):
            # normals fill re/im slots 1..draws[c]: bin 0's imaginary slot
            # (copied to its real slot below), then the rest in order; the
            # slots left below bin K are zeroed, among them an even L's
            # Nyquist imaginary slot
            rng = _rng(seed, s, rng)
            for c, d in enumerate(draws):
                rng.standard_normal(out=re_im[c, 1:d + 1])
                re_im[c, d + 1:2 * K] = 0.0
            W.real[:, 0] = W.imag[:, 0]
            # both mixed channels are computed before either is written
            z0[:], z1[:] = f00 * z0 + f01 * z1, f10 * z0 + f11 * z1
            out[i] = np.fft.irfft(W, n=L, out=full)[:, :self.grid.n]
        return out


# ----------------------------------------------------------------------
# pathwise smoothing
# ----------------------------------------------------------------------
def bump_kernel(u):
    """Compactly supported smooth bump on (-1, 1), unnormalized."""
    u = np.asarray(u, float)
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(np.abs(u) < 1.0,
                        np.exp(-1.0 / np.maximum(1.0 - u * u, 1e-300)), 0.0)


def kernel_half_width(grid: GridSpec, epsilon: float) -> int:
    """Grid steps ceil(epsilon/dt) spanned by the half-kernel of width
    epsilon; ResolutionError unless the grid resolves the kernel and the
    path is at least as long as it."""
    dt = grid.dt
    if epsilon < 2.0 * dt:
        raise ResolutionError(
            f"epsilon = {epsilon:g} below 2*dt = {2 * dt:g}: kernel not "
            "resolvable on the grid")
    half = int(math.ceil(epsilon / dt))
    if half > grid.n - 1:
        # the path reflected at an end supplies at most n - 1 points
        # beyond it, fewer than such a kernel reads
        raise ResolutionError(
            f"epsilon = {epsilon:g} spans {half} grid steps, more than the "
            f"path's {grid.n - 1}: kernel wider than the path")
    return half


class SmoothingLadder:
    """The bump-kernel smoothing of a grid's x2 paths at every epsilon of
    one strictly decreasing ladder.

    Row k of ``smooth(x2)`` is the discrete convolution of x2, reflected
    at both ends, with the mass-normalized kernel psi_eps(t) =
    psi(t/eps)/eps (``bump_kernel``; the kernel the two-alpha bound
    assumes) sampled on the ``kernel_half_width`` steps either side of 0.
    The ladder is validated once, in the order a per-epsilon loop would
    meet the faults: an empty ladder, one that is not strictly
    decreasing (``ParameterError``), then each epsilon's
    ``kernel_half_width`` (``ResolutionError``).

    All rows come from one reflected pad at the widest half-width H, one
    ``rfft`` and one batched ``irfft`` at N = next_fast_len(n + 2H): each
    kernel sits centred on index 0 of the length-N circle, so the
    circular convolution reads no wrapped value on the n kept points,
    and the kernels' spectra, built here, are read-only arrays shared by
    every caller and thread.  The rows agree with the direct convolution
    up to FFT rounding (within 1e-13 of max|x2| in the tests).
    """

    def __init__(self, grid: GridSpec, epsilons):
        eps = tuple(float(e) for e in epsilons)
        if not eps:
            raise ParameterError("epsilon_sequence must be non-empty")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ParameterError("epsilon_sequence must be strictly decreasing")
        halves = [kernel_half_width(grid, e) for e in eps]
        self.grid, self.epsilons = grid, eps
        self.pad = H = max(halves)
        self.fft_len = N = next_fast_len(grid.n + 2 * H)
        kernels = np.zeros((len(eps), N))
        for row, e, h in zip(kernels, eps, halves):
            w = bump_kernel(np.arange(-h, h + 1) * grid.dt / e)
            w /= w.sum()
            row[:h + 1] = w[h:]  # offsets 0..h, then -h..-1 at the end
            row[N - h:] = w[:h]
        self.spectra = np.fft.rfft(kernels, axis=-1)
        self.spectra.flags.writeable = False

    def smooth(self, x2: np.ndarray) -> np.ndarray:
        """The (len(epsilons), n) smoothed rows of one x2 on the grid."""
        H, n = self.pad, self.grid.n
        x2 = np.asarray(x2, float)
        if x2.shape != (n,):
            raise ParameterError(f"x2 of shape {x2.shape} on a grid of {n} points")
        padded = np.concatenate([x2[H:0:-1], x2, x2[-2:-H - 2:-1]])
        spec = np.fft.rfft(padded, n=self.fft_len)
        return np.fft.irfft(self.spectra * spec, n=self.fft_len, axis=-1)[:, H:H + n]


def smooth_path(path: SamplePath, epsilon: float) -> SamplePath:
    """Replace x2 by its smoothing at one epsilon: the one-rung
    ``SmoothingLadder`` on the path's grid (reflected ends, bump kernel);
    x1 untouched."""
    (sm,) = SmoothingLadder(path.grid, [epsilon]).smooth(path.x2)
    return replace(path, x2=sm,
                   meta={**path.meta, "smoothed_epsilon": epsilon,
                         "boundary": "reflect"})


# ----------------------------------------------------------------------
# path import/export
# ----------------------------------------------------------------------
def export_path_csv(path: SamplePath, fileobj) -> None:
    """CSV columns (t, x1, x2); header comments record the model hash,
    seed, backend and diagnostics."""
    close = False
    if isinstance(fileobj, (str, bytes)):
        fileobj = open(fileobj, "w")
        close = True
    try:
        hdr = {"seed": path.seed, "stream": path.stream,
               "backend": path.backend, **path.meta}
        fileobj.write(f"# windlab-path {json.dumps(hdr, sort_keys=True, default=str)}\n")
        fileobj.write("t,x1,x2\n")
        for row in zip(path.times(), path.x1, path.x2):
            fileobj.write(",".join(f"{v:.17g}" for v in row) + "\n")
    finally:
        if close:
            fileobj.close()


def load_path_csv(fileobj) -> SamplePath:
    """Inverse of export_path_csv; accepts externally generated files whose
    first three columns are t, x1, x2, and ignores any later column."""
    close = False
    if isinstance(fileobj, (str, bytes)):
        fileobj = open(fileobj)
        close = True
    try:
        text = fileobj.read()
    finally:
        if close:
            fileobj.close()
    meta = {}
    lines = text.strip().splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        if lines[i].startswith("# windlab-path "):
            meta = json.loads(lines[i][len("# windlab-path "):])
        i += 1
    if len(lines) < i + 3:  # the header and two data rows
        raise ParameterError("path CSV: need at least two data rows")
    arr = np.loadtxt(io.StringIO("\n".join(lines[i + 1:])), delimiter=",",
                     usecols=(0, 1, 2), ndmin=2)
    t = arr[:, 0]
    grid = GridSpec(T=float(t[-1] - t[0]), n=len(t))
    return SamplePath(grid=grid, x1=arr[:, 1], x2=arr[:, 2],
                      seed=int(meta.get("seed", 0)),
                      stream=int(meta.get("stream", 0)),
                      backend=meta.get("backend", "file"), meta=meta)
