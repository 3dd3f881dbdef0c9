"""Sample-path generation for the planar process (X1, X2) on uniform grids.

Three backends:

* Cholesky: exact joint factorization, O(n^3), the small-scale oracle.
* Spectral: synthesis from the one-sided spectral densities; the only
  backend that returns derivative samples X2' consistent with X2 (same
  frequency noise), and the one that realizes the regression construction
  X1 = rho1 X2' + rho2 Z literally.
* Circulant: FFT embedding of the (block) covariance, O(n log n); exact
  up to clipping of negative embedding eigenvalues, which is recorded.

Randomness is counter-based (Philox) keyed by (seed, stream): replication
``stream`` of a Monte Carlo run is reproducible independently of execution
order or worker count.
"""
from __future__ import annotations

import io
import json
import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np
# numpy imports these subpackages on first use; they load with the module
# so that the one-time import stays out of the first sample_batch call
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

from .covmodel import CovarianceModel, ModelClass, classify
from .errors import (CapabilityError, ModelError, ParameterError,
                     ResolutionError, SamplerError)
from .quadrature import adaptive_quad

__all__ = [
    "GridSpec",
    "SamplePath",
    "CholeskySampler",
    "SpectralSampler",
    "CirculantSampler",
    "sample_cholesky",
    "sample_spectral",
    "sample_circulant",
    "smooth_path",
    "kernel_half_width",
    "bump_kernel",
    "export_path_csv",
    "load_path_csv",
    "export_path_npz",
    "load_path_npz",
    "model_spec_hash",
]

CHOLESKY_N_CAP = 4096
_EIG_TOL = -1e-10
_CLIP_WARN = 1e-8
_CLIP_FAIL = 1e-3
_SLAB_BYTES = 1 << 20  # circulant noise per synthesis slab


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
        return cls(T=T, n=int(round(T / dt)) + 1)


@dataclass(frozen=True)
class SamplePath:
    grid: GridSpec
    x1: np.ndarray
    x2: np.ndarray
    dx2: Optional[np.ndarray] = None
    seed: int = 0
    stream: int = 0
    backend: str = "?"
    meta: dict = field(default_factory=dict)

    def times(self) -> np.ndarray:
        return self.grid.times()


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & (2 ** 64 - 1),
                                                     stream & (2 ** 64 - 1)]))


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
    """Batch-first protocol shared by the three backends.

    ``sample_batch(seed, streams)`` returns the (len(streams), 2, n) array
    of (x1, x2) paths; stream s draws from its own Philox key, so a path
    does not depend on the batch it is drawn in.  ``sample(seed, stream)``
    is the one-stream batch wrapped as a SamplePath whose meta carries the
    model hash and the sampler diagnostics.
    """

    backend = "?"

    def _on_grid(self, grid: GridSpec) -> "_Sampler":
        return type(self)(self.model, grid)

    @cached_property
    def _fine(self) -> "_Sampler":
        return self._on_grid(GridSpec(T=self.grid.T, n=2 * self.grid.n - 1))

    def sample_refined(self, seed: int, stream: int = 0):
        """(coarse, fine): the path on the dyadic refinement of the grid
        (2n - 1 points) and its restriction to every second point, so the
        nested pair shares its randomness exactly."""
        fine = self._fine.sample(seed, stream)
        return replace(fine, grid=self.grid, x1=fine.x1[::2], x2=fine.x2[::2],
                       dx2=None if fine.dx2 is None else fine.dx2[::2],
                       meta={**fine.meta, "restricted": True}), fine

    def sample(self, seed: int, stream: int = 0) -> SamplePath:
        x = self._rows(seed, [stream])[0]
        return SamplePath(grid=self.grid, x1=x[0], x2=x[1],
                          dx2=x[2] if len(x) > 2 else None, seed=seed,
                          stream=stream, backend=self.backend,
                          meta={**self.diagnostics,
                                "model": model_spec_hash(self.model)})

    def _rows(self, seed, streams) -> np.ndarray:
        """The arrays behind sample(): sample_batch, plus dx2 where a
        backend has it."""
        return self.sample_batch(seed, streams)


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

    def __init__(self, model: CovarianceModel, grid: GridSpec):
        if grid.n > CHOLESKY_N_CAP:
            raise ParameterError(
                f"cholesky backend capped at n = {CHOLESKY_N_CAP} points, got {grid.n}")
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
        for i, s in enumerate(streams):
            out[i] = (self._chol @ _rng(seed, s).standard_normal(2 * n)).reshape(2, n)
        return out

    @property
    def diagnostics(self) -> dict:
        return {"jitter": self.jitter}


# ----------------------------------------------------------------------
# spectral backend
# ----------------------------------------------------------------------
class SpectralSampler(_Sampler):
    """Harmonic synthesis X2(t) = sum_j sqrt(f2(l_j) dl) [xi_j cos(l_j t)
    + eta_j sin(l_j t)], with the consistent derivative using the same
    (xi, eta).  X1 is built per the model class: independent noise for
    independent models, rho1 X2' + rho2 Z for the regression family.
    """

    backend = "spectral"

    def __init__(self, model: CovarianceModel, grid: GridSpec, n_freq: int = 4096):
        if n_freq < 256:
            raise ParameterError("n_freq must be at least 256")
        if model.f2 is None:
            raise CapabilityError("spectral backend needs f2")
        self.model = model
        self.grid = grid
        self.construction = model.meta.get("construction")
        if self.construction not in ("iid", "independent", "regression"):
            raise CapabilityError(
                "spectral backend supports iid/independent/regression models")
        if self.construction in ("iid", "independent") and model.f1 is None:
            raise CapabilityError("independent spectral synthesis needs f1")
        self.n_freq = n_freq
        lam_max = self._lambda_max()
        dl = lam_max / n_freq
        self.lam = (np.arange(n_freq) + 0.5) * dl
        self.amp2 = np.sqrt(np.asarray(model.f2(self.lam), float) * dl)
        if self.construction == "regression":
            other, f_other = "rZ", self._rz_density()
        else:
            other, f_other = "f1", model.f1
        self.amp_other = np.sqrt(np.asarray(f_other(self.lam), float) * dl)
        # past 5% missing mass a coordinate is synthesised with the wrong law
        masses = {"f2": float(np.sum(self.amp2 ** 2)),
                  other: float(np.sum(self.amp_other ** 2))}
        for name, mass in masses.items():
            if abs(1.0 - mass) > 0.05:
                raise ModelError(
                    f"{name} mass on the frequency window [0, {lam_max:g}] is "
                    f"{mass:.4f}, not 1 within 0.05: spectrum unnormalized or "
                    "too heavy-tailed for the window that f2 sets")
        self.trunc2, self.trunc_other = (abs(1.0 - m) for m in masses.values())
        # every frequency is an odd multiple of dl/2, so the synthesised
        # covariance is antiperiodic: r(2 pi/dl - t) = -r(t), r(pi/dl) = 0
        if grid.T > math.pi / dl:
            raise ParameterError(
                f"spectral synthesis with n_freq = {n_freq} and lambda_max = "
                f"{lam_max:g} holds only for T <= pi*n_freq/lambda_max = "
                f"{math.pi / dl:.4g} (half-period of the frequency grid), "
                f"got T = {grid.T:g}; raise n_freq")
        # t_k = (qP + r) dt splits e^{i l_j t_k} into B[j, q] A[j, r]: two
        # n_freq x ~sqrt(n) phase tables in place of dense n_freq x n ones
        P = math.isqrt(grid.n - 1) + 1
        Q = -(-grid.n // P)
        self._A = np.exp(1j * np.outer(self.lam, np.arange(P) * grid.dt))       # [j, r]
        self._Bt = np.exp(1j * np.outer(np.arange(Q) * P * grid.dt, self.lam))  # [q, j]

    def _lambda_max(self):
        # expand until the tail mass of f2 is negligible
        lam = 8.0
        for _ in range(8):
            mass, _ = adaptive_quad(self.model.f2, 0.0, lam, 1e-10, 1e-10)
            if abs(1.0 - mass) < 1e-6:
                return lam
            lam *= 2.0
        return lam

    def _rz_density(self):
        from .covmodel import family_from_name
        rz = dict(self.model.meta["rz"])
        fam = family_from_name(rz.pop("family"), **rz)
        if fam.f is None:
            raise CapabilityError("regression spectral synthesis needs the rZ spectrum")
        return fam.f

    def _rows(self, seed: int, streams) -> np.ndarray:
        """(len(streams), 3, n) array of (x1, x2, dx2); dx2 comes from the
        same frequency noise as x2."""
        out = np.empty((len(streams), 3, self.grid.n))
        for i, s in enumerate(streams):
            rng = _rng(seed, s)
            xi, eta = rng.standard_normal((2, self.n_freq))
            xo, eo = rng.standard_normal((2, self.n_freq))
            # each row is Re sum_j c_j e^{i l_j t}: Re[(xi - i eta) e^{ilt}] is
            # xi cos + eta sin, Re[l (eta + i xi) e^{ilt}] is l (eta cos - xi sin)
            c = np.stack([self.amp2 * (xi - 1j * eta),
                          self.amp2 * self.lam * (eta + 1j * xi),
                          self.amp_other * (xo - 1j * eo)])
            rows = (self._Bt @ (c[:, :, None] * self._A)).reshape(3, -1)
            x2, dx2, other = rows[:, :self.grid.n].real
            if self.construction == "regression":
                rho1, rho2 = self.model.meta["rho1"], self.model.meta["rho2"]
                out[i, 0] = rho1 * dx2 + rho2 * other
            else:
                out[i, 0] = other
            out[i, 1], out[i, 2] = x2, dx2
        return out

    def sample_batch(self, seed: int, streams) -> np.ndarray:
        return self._rows(seed, streams)[:, :2]

    @property
    def diagnostics(self) -> dict:
        return {"n_freq": self.n_freq,
                "covariance_truncation": max(self.trunc2, self.trunc_other)}

    def _on_grid(self, grid: GridSpec) -> "SpectralSampler":
        return SpectralSampler(self.model, grid, n_freq=self.n_freq)


# ----------------------------------------------------------------------
# circulant backend
# ----------------------------------------------------------------------
class CirculantSampler(_Sampler):
    """Circulant embedding; scalar per coordinate for independent models,
    2x2 block (Hermitian spectral matrices, per-frequency factorization)
    otherwise.  The embedding length L is the shortest fast FFT length
    covering 2(n-1) lags (Wood & Chan 1994); negative embedding eigenvalues
    trigger padding doubling up to 8x, after which remaining negative mass
    is clipped and recorded.  Each coordinate is one real inverse FFT of
    Hermitian half-spectrum noise: every one of its L normals is used
    (Dietrich & Newsam 1997)."""

    backend = "circulant"

    def __init__(self, model: CovarianceModel, grid: GridSpec):
        self.model = model
        self.grid = grid
        self.independent = classify(model) in (ModelClass.INDEPENDENT, ModelClass.IID)
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
                "pad": self.pad}

    def _build(self, pad) -> bool:
        self.L = L = next_fast_len(max(2 * (self.grid.n - 1), 2) * pad)
        k = np.arange(L)
        tau = np.where(k <= L // 2, k, k - L) * self.grid.dt
        # half-spectrum bins 0..L//2; all but bin 0 and an even L's Nyquist
        # bin also stand for their mirror L - k
        real_bins = (k[:L // 2 + 1] == 0) | (2 * k[:L // 2 + 1] == L)
        mult = np.where(real_bins, 1.0, 2.0)
        g11 = np.fft.rfft(np.asarray(self.model.r1(np.abs(tau)), float))
        g22 = np.fft.rfft(np.asarray(self.model.r2(np.abs(tau)), float))
        if self.independent:
            w = np.stack([g11.real, g22.real], axis=-1)
        else:
            # block case: per-frequency 2x2 Hermitian PSD factorization of
            # G_k = sum_u R(tau_u) e^{-2 pi i k u / L}, R_12(t) = r12(t)
            G = np.empty((L // 2 + 1, 2, 2), complex)
            G[:, 0, 0] = g11
            G[:, 1, 1] = g22
            G[:, 0, 1] = np.fft.rfft(np.asarray(self.model.r12(tau), float))
            G[:, 1, 0] = np.fft.rfft(np.asarray(self.model.r12(-tau), float))
            G = 0.5 * (G + np.conj(np.transpose(G, (0, 2, 1))))
            w, v = np.linalg.eigh(G)
            # irfft keeps only the real part of the real bins: real factors
            w[real_bins], v[real_bins] = np.linalg.eigh(G[real_bins].real)
        neg = float(np.sum(mult[:, None] * np.clip(w, None, 0.0)))
        self.clipped_mass = -neg / float(np.sum(mult[:, None] * np.abs(w)))
        # complex bins carry (a + ib)/sqrt(2): unit variance from two normals
        amp = np.sqrt(L * np.clip(w, 0.0, None) / mult[:, None])
        self._fac = (amp.T if self.independent             # (2, bins): diagonal
                     else np.transpose(v * amp[:, None, :], (1, 2, 0)))  # (2, 2, bins)
        return self.clipped_mass <= 1e-12  # float-noise negativity is fine

    def sample_batch(self, seed: int, streams) -> np.ndarray:
        """Stream s draws its 2L normals from its own Philox key; slabs of
        about _SLAB_BYTES of noise bound the working set for any n."""
        L = self.L
        out = np.empty((len(streams), 2, self.grid.n))
        per = max(1, _SLAB_BYTES // (32 * (L // 2 + 1)))
        for a in range(0, len(streams), per):
            slab = streams[a:a + per]
            W = np.empty((len(slab), 2, L // 2 + 1), complex)
            re_im = W.view(float)
            # normals fill re/im slots 1..L: bin 0's imaginary slot (copied
            # to its real slot below), then the rest in order; an even L
            # leaves the Nyquist bin's imaginary slot over, zeroed
            for i, s in enumerate(slab):
                re_im[i, :, 1:L + 1] = _rng(seed, s).standard_normal((2, L))
            re_im[..., L + 1:] = 0.0
            W.real[..., 0] = W.imag[..., 0]
            if self.independent:
                W *= self._fac
            else:
                W = self._fac[:, 0] * W[:, :1] + self._fac[:, 1] * W[:, 1:]
            out[a:a + per] = np.fft.irfft(W, n=L, axis=-1)[..., :self.grid.n]
        return out


# ----------------------------------------------------------------------
# spec-surface wrappers
# ----------------------------------------------------------------------
def sample_cholesky(model, grid, seed, stream=0) -> SamplePath:
    return CholeskySampler(model, grid).sample(seed, stream)


def sample_spectral(model, grid, seed, stream=0, n_freq=4096) -> SamplePath:
    return SpectralSampler(model, grid, n_freq=n_freq).sample(seed, stream)


def sample_circulant(model, grid, seed, stream=0) -> SamplePath:
    return CirculantSampler(model, grid).sample(seed, stream)


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
        # a reflected pad shorter than the kernel would make "valid"
        # convolution swap its operands and return a wrong path
        raise ResolutionError(
            f"epsilon = {epsilon:g} spans {half} grid steps, more than the "
            f"path's {grid.n - 1}: kernel wider than the path")
    return half


def smooth_path(path: SamplePath, epsilon: float) -> SamplePath:
    """Replace x2 by its discrete convolution with the mass-normalized
    bump kernel psi_eps(t) = psi(t/eps)/eps (the kernel the two-alpha
    bound assumes); x1 untouched.  The path is reflected at both ends to
    handle the boundary."""
    half = kernel_half_width(path.grid, epsilon)
    u = np.arange(-half, half + 1) * path.grid.dt / epsilon
    w = bump_kernel(u)
    w = w / w.sum()
    x2 = path.x2
    padded = np.concatenate([x2[half:0:-1], x2, x2[-2:-half - 2:-1]])
    sm = np.convolve(padded, w, mode="valid")
    return replace(path, x2=sm,
                   meta={**path.meta, "smoothed_epsilon": epsilon,
                         "boundary": "reflect"})


# ----------------------------------------------------------------------
# path import/export
# ----------------------------------------------------------------------
def export_path_csv(path: SamplePath, fileobj) -> None:
    """CSV columns (t, x1, x2[, dx2]); header comments record the model
    hash, seed, backend and diagnostics."""
    close = False
    if isinstance(fileobj, (str, bytes)):
        fileobj = open(fileobj, "w")
        close = True
    try:
        hdr = {"seed": path.seed, "stream": path.stream,
               "backend": path.backend, **path.meta}
        fileobj.write(f"# windlab-path {json.dumps(hdr, sort_keys=True, default=str)}\n")
        cols = "t,x1,x2" + (",dx2" if path.dx2 is not None else "")
        fileobj.write(cols + "\n")
        t = path.times()
        data = [t, path.x1, path.x2] + ([path.dx2] if path.dx2 is not None else [])
        for row in zip(*data):
            fileobj.write(",".join(f"{v:.17g}" for v in row) + "\n")
    finally:
        if close:
            fileobj.close()


def export_path_npz(path: SamplePath, file) -> None:
    """Binary column format: npz with t/x1/x2[/dx2] arrays and a JSON
    header string carrying the same metadata as the CSV export."""
    hdr = {"seed": path.seed, "stream": path.stream, "backend": path.backend,
           **path.meta}
    arrays = {"t": path.times(), "x1": path.x1, "x2": path.x2,
              "header": np.array(json.dumps(hdr, sort_keys=True, default=str))}
    if path.dx2 is not None:
        arrays["dx2"] = path.dx2
    np.savez(file, **arrays)


def load_path_npz(file) -> SamplePath:
    with np.load(file, allow_pickle=False) as data:
        t = data["t"]
        meta = json.loads(str(data["header"]))
        grid = GridSpec(T=float(t[-1] - t[0]), n=len(t))
        return SamplePath(grid=grid, x1=data["x1"], x2=data["x2"],
                          dx2=data["dx2"] if "dx2" in data else None,
                          seed=int(meta.get("seed", 0)),
                          stream=int(meta.get("stream", 0)),
                          backend=meta.get("backend", "file"), meta=meta)


def load_path_csv(fileobj) -> SamplePath:
    """Inverse of export_path_csv; accepts externally generated files with
    the same column layout."""
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
    while lines[i].startswith("#"):
        if lines[i].startswith("# windlab-path "):
            meta = json.loads(lines[i][len("# windlab-path "):])
        i += 1
    cols = lines[i].split(",")
    arr = np.loadtxt(io.StringIO("\n".join(lines[i + 1:])), delimiter=",")
    if arr.ndim == 1:
        arr = arr[None, :]
    t = arr[:, 0]
    grid = GridSpec(T=float(t[-1] - t[0]), n=len(t))
    dx2 = arr[:, 3] if "dx2" in cols else None
    return SamplePath(grid=grid, x1=arr[:, 1], x2=arr[:, 2], dx2=dx2,
                      seed=int(meta.get("seed", 0)),
                      stream=int(meta.get("stream", 0)),
                      backend=meta.get("backend", "file"), meta=meta)
