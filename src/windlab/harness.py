"""Monte Carlo experiments confronting simulated winding counts with the
theoretical moments and the central limit theorem.

All randomness is derived from the experiment seed through counter-based
streams indexed by replication, so results are independent of worker
count and execution order; reports serialize byte-identically for a fixed
config (timestamps live in a separate metadata sidecar).

Paths come from the circulant-embedding sampler; ``backend = "cholesky"``
selects the exact small-n oracle instead.  A run builds one sampler on
the grid of its longest horizon and draws each stream once: every
horizon of ``t_ladder`` is counted on a prefix of the same paths, so the
rows of a multi-horizon report are correlated and all carry the longest
horizon's sampler diagnostics.

A Monte Carlo run's result is its count table (``_map_paths``), a row
per path, NaN where the aliasing guard rejected it, and nothing else per
path: ``_column`` reads a column's accepted counts and its rejections.
"""
from __future__ import annotations

import json
import math
import os
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np
import numpy.ma  # noqa: F401  (np.quantile imports it on first call)

from .covmodel import CovarianceModel, ModelClass, classify, model_from_spec
from .errors import (AliasingError, ConfigError, DomainError, ParameterError,
                     SingularityError, WindlabError)
from .gauss import (_PSD_TOL, QuadrantCorr, conditional_cov,
                    generic_regression, joint_cov_matrix,
                    quadrant_expectation, quadrant_expectation_series,
                    quadrant_fault)
from .moments import (expectation_rate, variance_bound_two_alpha,
                      variance_rate_general, variance_rate_independent)
from .pathgen import (CholeskySampler, CirculantSampler, GridSpec,
                      SamplePath, SmoothingLadder, export_path_csv)
from .winding import count_windings_arrays, smoothed_winding

__all__ = [
    "ExperimentConfig",
    "run_expectation",
    "run_variance",
    "run_clt",
    "run_lemma_check",
    "run_smoothing",
    "simulate_windings",
    "random_psd_quadrant",
    "quadrant_mc",
    "write_report",
]

SCHEMA = "windlab-report/1"
_CHUNK_BYTES = 4 << 20  # finished paths held per _map_paths chunk
_BOOT_BYTES = 1 << 20  # bootstrap resample indices per block
_SAMPLERS = {"circulant": CirculantSampler, "cholesky": CholeskySampler}
_QMC_CHUNK = 1 << 14  # quadrant_mc uniforms drawn per step (128 KiB)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass
class ExperimentConfig:
    model: dict
    kind: str = "expectation"
    backend: str = "circulant"
    t_ladder: list = field(default_factory=lambda: [100.0])
    dt: float = 0.01
    replications: int = 1000
    seed: int = 1
    workers: int = 1
    epsilon_ladder: Optional[list] = None
    correlations_file: Optional[str] = None
    lemma_mc_samples: int = 10_000_000
    lemma_random_sets: int = 500
    lemma_spot_cases: int = 20
    export_paths: int = 0
    out_dir: Optional[str] = None

    KINDS = ("expectation", "variance", "clt", "lemma_check", "smoothing")
    BACKENDS = tuple(_SAMPLERS)
    # the integer fields and their least values
    INT_FIELDS = {"replications": 1, "seed": 0, "workers": 1,
                  "lemma_mc_samples": 2, "lemma_random_sets": 0,
                  "lemma_spot_cases": 0, "export_paths": 0}
    # greatest values of the counts a run holds, each sized by the peak RSS
    # of a run at the bound (README): the count table's cells (a clt report
    # lists each), the check's random sets and its spot-case rows; and the
    # greatest seed, one 64-bit word of the Philox key
    MAX_CELLS = 10 ** 6
    INT_MOST = {"lemma_random_sets": 10 ** 5, "lemma_spot_cases": 10 ** 4,
                "seed": 2 ** 64 - 1}

    def __post_init__(self):
        for name, least in self.INT_FIELDS.items():
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
            if v < least:
                raise ConfigError(f"{name} must be >= {least}, got {v}")
            if v > self.INT_MOST.get(name, v):
                raise ConfigError(f"{name} must be <= {self.INT_MOST[name]}, got {v}")
        for name in ("correlations_file", "out_dir"):
            v = getattr(self, name)
            if v is not None and not isinstance(v, str):
                raise ConfigError(f"{name} must be a path or null, got {v!r}")
        cpus = os.cpu_count() or 1
        if self.workers > cpus:
            raise ConfigError(f"workers must be <= {cpus} (the CPU count), "
                              f"got {self.workers}")
        if self.kind not in self.KINDS:
            raise ConfigError(f"kind must be one of {self.KINDS}, got '{self.kind}'")
        if self.backend not in self.BACKENDS:
            raise ConfigError(
                f"backend must be one of {self.BACKENDS}, got {self.backend!r}")
        if not isinstance(self.t_ladder, list) or not self.t_ladder:
            raise ConfigError("t_ladder must be a non-empty list")
        eps = self.epsilon_ladder
        if eps is not None and (not isinstance(eps, list) or not eps):
            raise ConfigError(f"epsilon_ladder must be a non-empty list or null, got {eps!r}")
        # NaN, +-inf and ints beyond the float range fail the comparison
        for v in [self.dt, *self.t_ladder, *(eps or [])]:
            if (isinstance(v, bool) or not isinstance(v, (int, float))
                    or not abs(v) <= sys.float_info.max):
                raise ConfigError("dt, t_ladder and epsilon_ladder entries must "
                                  f"be finite numbers, got {v!r}")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if min(self.t_ladder) <= 0:
            raise ConfigError(f"every T in t_ladder must be positive, got {self.t_ladder}")
        if list(self.t_ladder) != sorted(set(self.t_ladder)):
            raise ConfigError("t_ladder must be strictly increasing")
        if eps is not None and (min(eps) <= 0
                                or any(b >= a for a, b in zip(eps, eps[1:]))):
            raise ConfigError("epsilon_ladder must be positive and strictly "
                              f"decreasing, got {eps}")
        cols = max(len(self.t_ladder), len(eps or []) + 1)
        if self.replications * cols > self.MAX_CELLS:
            raise ConfigError(f"replications must be <= {self.MAX_CELLS // cols} "
                              f"for a count table of width {cols} (at most "
                              f"{self.MAX_CELLS} cells), got {self.replications}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
        if not isinstance(data, dict) or "model" not in data:
            raise ConfigError("config must be a JSON object with a 'model' entry")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as e:
            raise ConfigError(f"config {path}: {e.strerror or e}") from None
        return cls.from_json(text)

    def build_model(self) -> CovarianceModel:
        return model_from_spec(self.model)


# ----------------------------------------------------------------------
# simulation engine
# ----------------------------------------------------------------------
def _make_sampler(model, grid, backend):
    if backend not in _SAMPLERS:
        raise ConfigError(f"unknown backend '{backend}'")
    return _SAMPLERS[backend](model, grid)


def _check_grid(cfg):
    """Refuse an oversized grid before any theory or path is computed."""
    _SAMPLERS[cfg.backend].check_grid(GridSpec.from_dt(cfg.t_ladder[-1], cfg.dt))


def _map_paths(sampler, seed, reps, workers, fn, width):
    """The count table: a (reps, width) float array whose row s is fn(x1,
    x2) on the path of stream s, left NaN where the aliasing guard rejected
    that path.  Each chunk is one sample_batch call holding about
    _CHUNK_BYTES of paths and writes only its own rows, so chunks run on
    any of ``workers`` threads and nothing per path outlives its chunk."""
    per = max(1, _CHUNK_BYTES // (16 * sampler.grid.n))
    table = np.full((reps, width), np.nan)

    def do_chunk(start):
        streams = range(start, min(start + per, reps))
        for row, (x1, x2) in zip(table[start:start + per],
                                 sampler.sample_batch(seed, streams)):
            try:
                row[:] = fn(x1, x2)
            except AliasingError:
                pass

    if workers <= 1:
        for start in range(0, reps, per):
            do_chunk(start)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(do_chunk, range(0, reps, per)))
    return table


def _column(table, j):
    """(accepted counts, number rejected) of column j of a count table."""
    col = table[:, j]
    return col[~np.isnan(col)], int(np.count_nonzero(np.isnan(col)))


def simulate_windings(model, T, dt, backend, seed, reps, workers=1):
    """Winding counts for ``reps`` replications.

    T is a horizon or a strictly increasing sequence of them.  One sampler
    is built on the last horizon's grid and each stream is drawn once; the
    count at horizon T is count_windings_arrays on the path's first
    GridSpec.from_dt(T, dt).n points, so each prefix gets its own zero
    threshold and its own aliasing rejection.  A prefix is a path on
    [0, T] with the same law, but the horizons share their streams.

    Returns {"n_w": the count table, (reps, horizons) even for a scalar
    T, NaN where the aliasing guard rejected the prefix; "sampler": the
    sampler}.  ``_column`` reads a horizon's counts and rejections.
    """
    horizons = np.atleast_1d(np.asarray(T, float))
    if not (horizons.ndim == 1 and horizons.size and (np.diff(horizons) > 0).all()):
        raise ParameterError("T must be a horizon or a strictly increasing "
                             f"sequence of them, got {T}")
    ends = [GridSpec.from_dt(float(t), dt).n for t in horizons]
    sampler = _make_sampler(model, GridSpec.from_dt(float(horizons[-1]), dt), backend)

    def count_prefixes(x1, x2):
        out = []
        for n in ends:
            try:
                out.append(count_windings_arrays(x1[:n], x2[:n]).n_w)
            except AliasingError:
                out.append(np.nan)
        return out

    n_w = _map_paths(sampler, seed, reps, workers, count_prefixes, len(ends))
    return {"n_w": n_w, "sampler": sampler}


def _prefix(path: SamplePath, n: int) -> SamplePath:
    """The first n points of a sampled path, on its grid's step."""
    grid = path.grid if n == path.grid.n else GridSpec((n - 1) * path.grid.dt, n)
    return replace(path, grid=grid, x1=path.x1[:n], x2=path.x2[:n])


def _mean_se(x):
    m = float(np.mean(x))
    se = float(np.std(x, ddof=1) / math.sqrt(len(x))) if len(x) > 1 else None
    return m, se


def _bootstrap_var_ci(x, seed=0):
    """99% percentile-bootstrap CI of the sample variance, 1000 resamples,
    drawn in blocks of rows of about _BOOT_BYTES of indices: the generator
    fills a block's rows in the order it fills one (1000, n) draw, so the
    CI does not depend on the block size."""
    rng = np.random.default_rng(seed)
    n = len(x)
    rows = max(1, _BOOT_BYTES // (8 * n))
    vs = np.empty(1000)
    for i in range(0, 1000, rows):
        idx = rng.integers(0, n, size=(min(rows, 1000 - i), n))
        vs[i:i + len(idx)] = np.var(x[idx], axis=1, ddof=1)
    a = (1.0 - 0.99) / 2.0
    return float(np.quantile(vs, a)), float(np.quantile(vs, 1.0 - a))


def lattice_ks(counts, mean, sd):
    """One-sample KS of an integer-valued sample against Normal(mean, sd),
    compared at the continuity-corrected lattice edges k + 1/2.

    A raw KS against the continuous normal has a deterministic floor of
    about phi(0)/(2 sd) from the unit lattice alone, which swamps the
    sampling noise at desk scale; comparing the two step functions at the
    lattice edges removes it.  The continuous-case p-value is conservative
    for discrete data.
    """
    from scipy import stats  # deferred: keeps scipy.stats out of import time

    counts = np.sort(np.asarray(counts, float))
    n = len(counts)
    kk = np.arange(math.floor(counts[0]) - 1, math.ceil(counts[-1]) + 1)
    emp = np.searchsorted(counts, kk + 0.25, side="right") / n
    null = stats.norm.cdf((kk + 0.5 - mean) / sd)
    d = float(np.max(np.abs(emp - null)))
    return d, float(stats.kstwo.sf(d, n))


# ----------------------------------------------------------------------
# experiment runners
# ----------------------------------------------------------------------
def run_expectation(cfg: ExperimentConfig) -> dict:
    """MC mean of N_W vs T * expectation_rate, pass at 3 standard errors."""
    _check_grid(cfg)
    model = cfg.build_model()
    rate = expectation_rate(model)
    paths_dir = _paths_dir(cfg)
    sim = simulate_windings(model, cfg.t_ladder, cfg.dt, cfg.backend, cfg.seed,
                            cfg.replications, cfg.workers)
    rows = []
    for j, T in enumerate(cfg.t_ladder):
        vals, n_rejected = _column(sim["n_w"], j)
        mean, se = _mean_se(vals)
        theory = T * rate
        row = {
            "T": T, "replications": cfg.replications,
            "n_rejected": n_rejected,
            "mc_mean": mean, "mc_se": se, "theory_mean": theory,
            **sim["sampler"].diagnostics,
        }
        if se is None:
            row["pass"] = None
            row["note"] = "SE not available at M = 1"
        else:
            row["pass"] = bool(abs(mean - theory) <= 3.0 * se) if se > 0 else bool(mean == theory)
        rows.append(row)
    # the first export_paths streams, drawn again by sampler.sample (the
    # same paths the run counted), written as each horizon's prefix
    if paths_dir:
        for s in range(min(cfg.export_paths, cfg.replications)):
            path = sim["sampler"].sample(cfg.seed, s)
            for T in cfg.t_ladder:
                export_path_csv(_prefix(path, GridSpec.from_dt(T, cfg.dt).n),
                                os.path.join(paths_dir, f"path_T{T:g}_{s:05d}.csv"))
    ok = all(r["pass"] is not False for r in rows)
    return _report("expectation", cfg, {"expectation_rate": rate, "rows": rows}, ok)


def run_variance(cfg: ExperimentConfig) -> dict:
    """Sample Var(N_W)/T with a bootstrap CI against the finite-horizon
    rate V_T (what a T-window sample estimates), plus the horizon
    convergence trend; independent models also report V_inf."""
    _check_grid(cfg)
    model = cfg.build_model()
    independent = classify(model) in (ModelClass.INDEPENDENT, ModelClass.IID)
    indep_extras = {}
    if independent:
        rep = variance_rate_independent(model)
        indep_extras = {"v_inf": rep.v_inf, "v_inf_err": rep.v_inf_err,
                        **rep.extras}
    # the theory of every horizon in one call before the first path, so
    # that a model it cannot handle exits before the simulation
    general = variance_rate_general(model, cfg.t_ladder)
    sim = simulate_windings(model, cfg.t_ladder, cfg.dt, cfg.backend, cfg.seed,
                            cfg.replications, cfg.workers)
    rows = []
    for j, (T, v_t, v_t_err) in enumerate(zip(cfg.t_ladder, general.v_t,
                                              general.v_t_err)):
        vals, n_rejected = _column(sim["n_w"], j)
        var_rate = float(np.var(vals, ddof=1)) / T if len(vals) > 1 else None
        lo, hi = (None, None)
        if var_rate is not None:
            lo, hi = _bootstrap_var_ci(vals, seed=cfg.seed + int(T * 1e3))
            lo, hi = lo / T, hi / T
        row = {
            "T": T, "replications": cfg.replications,
            "n_rejected": n_rejected,
            "var_rate": var_rate, "ci99_lo": lo, "ci99_hi": hi,
            "v_T_general": v_t, "v_T_general_err": v_t_err,
            "reference": v_t, **sim["sampler"].diagnostics,
        }
        if var_rate is not None:
            half = (hi - lo) / 2.0
            row["ci_covers_reference"] = bool(lo <= v_t <= hi)
            row["abs_error"] = abs(var_rate - v_t)
            row["tolerance"] = 0.05 * abs(v_t) + half
            row["pass"] = bool(row["ci_covers_reference"]
                               and row["abs_error"] <= row["tolerance"])
        else:
            row["pass"] = None
        rows.append(row)
    errs = [r["abs_error"] for r in rows if r.get("abs_error") is not None]
    trend_ok = sum(bool(b <= a) for a, b in zip(errs, errs[1:]))
    body = {"independent": independent, **indep_extras, "rows": rows,
            "trend_improving_steps": trend_ok,
            "trend_steps": max(len(errs) - 1, 0)}
    ok = all(r["pass"] is not False for r in rows)
    return _report("variance", cfg, body, ok)


def run_clt(cfg: ExperimentConfig) -> dict:
    """Kolmogorov-Smirnov test of (N_W - E N_W)/sqrt(T) against
    Normal(0, V_inf), with skewness/kurtosis moments."""
    from scipy import stats  # deferred, as in lattice_ks

    if cfg.replications < 2:
        raise ConfigError("a clt run needs replications >= 2 for its "
                          f"sample variance and moments, got {cfg.replications}")
    _check_grid(cfg)
    model = cfg.build_model()
    rate = expectation_rate(model)
    independent = classify(model) in (ModelClass.INDEPENDENT, ModelClass.IID)
    v_inf, standardized_by = None, "sample variance (V_inf unavailable)"
    try:
        if independent:
            rep = variance_rate_independent(model)
            # two rough coordinates: the note names the bound mode
            v_inf, standardized_by = rep.v_inf, "; ".join(
                ["independent-case quadrature V_inf", *rep.notes])
        else:
            v_inf = variance_rate_general(model, max(cfg.t_ladder)).v_inf
            standardized_by = "general-case integral V_inf"
    except WindlabError:
        pass
    sim = simulate_windings(model, cfg.t_ladder, cfg.dt, cfg.backend, cfg.seed,
                            cfg.replications, cfg.workers)
    per_t = []
    for j, T in enumerate(cfg.t_ladder):
        vals, n_rejected = _column(sim["n_w"], j)
        std_sample = (vals - T * rate) / math.sqrt(T)
        scale = math.sqrt(v_inf) if v_inf else float(np.std(std_sample, ddof=1))
        # lattice-edge KS on the raw counts == KS of the standardized
        # sample against Normal(0, scale) with the unit-lattice correction
        ks_d, ks_p = lattice_ks(vals, T * rate, scale * math.sqrt(T))
        m = len(std_sample)
        skew = float(stats.skew(std_sample))
        kurt = float(stats.kurtosis(std_sample))
        per_t.append({
            "T": T, "sample_size": m,
            "mean_nw": float(np.mean(vals)), "var_nw": float(np.var(vals, ddof=1)),
            "ks_distance": ks_d, "p_value": ks_p,
            "v_inf_used": v_inf,
            "skewness": skew, "skewness_se": math.sqrt(6.0 / m),
            "kurtosis": kurt, "kurtosis_se": math.sqrt(24.0 / m),
            "standardized_sample": [float(v) for v in std_sample],
            "small_t_regime": bool(T < 20.0),
            "n_rejected": n_rejected,
            **sim["sampler"].diagnostics,
        })
    # no pass criterion in the pre-asymptotic regime
    ok = all(r["p_value"] > 0.01 for r in per_t if not r["small_t_regime"])
    return _report("clt", cfg, {"per_t": per_t, "v_inf": v_inf,
                                "standardized_by": standardized_by}, ok)


# ----------------------------------------------------------------------
# lemma oracle suite
# ----------------------------------------------------------------------
def random_psd_quadrant(rng, max_rho34=0.9) -> QuadrantCorr:
    """Random PSD correlation structure (Wishart-type, df = 6), rejected
    until |rho34| <= max_rho34."""
    while True:
        a = rng.standard_normal((4, 6))
        s = a @ a.T
        d = np.sqrt(np.diag(s))
        r = s / np.outer(d, d)
        if abs(r[2, 3]) <= max_rho34:
            return QuadrantCorr(rho12=r[0, 1], rho13=r[0, 2], rho14=r[0, 3],
                                rho23=r[1, 2], rho24=r[1, 3], rho34=r[2, 3])


def quadrant_mc(c: QuadrantCorr, n_samples: int, seed: int):
    """Angle-only conditional MC estimate of E[X1 X2 1{X3>0} 1{X4>0}];
    returns (mean, se).

    With A, B, C the (12), (12)x(34) and (34) blocks of ``c.matrix()``,
    L the Cholesky factor of C and W = L^-1 B^T, write (X3, X4) = L z with
    z = r (cos phi, sin phi).  Gaussian conditioning gives
    E[X1 X2 | X3, X4] = mu1 mu2 + S12 exactly, with mu = W^T z and the
    Schur complement S = A - W^T W.  The radius is independent of phi with
    E[r^2] = 2, and {X3 > 0, X4 > 0} is the arc lo < phi < pi/2 with
    lo = atan2(-L21, L22), so
    E = (1/2pi) int_lo^{pi/2} (2 q(phi) + S12) dphi,  q = (w1.u)(w2.u),
    u = (cos phi, sin phi) and w_j the columns of W.  X1 X2 and the radius
    are both integrated out exactly, which cannot raise the variance over
    the plain four-normal product.

    The estimator averages this integrand over one uniform per sample and
    needs no trig: phi = 2 atan(s) maps the arc to s_lo = tan(lo/2) < s < 1
    with u = (1 - s^2, 2 s) / (1 + s^2), so each sample is
    y = ((1 - s_lo)/pi) (2 q + S12) / (1 + s^2)
      = ((1 - s_lo)/pi) N(s) / (1 + s^2)^3
    with N = 2 p1 p2 + S12 (1 + s^2)^2 and p_j = W_1j (1 - s^2) + 2 W_2j s:
    a quartic e0 (1 + s^4) + e1 (s - s^3) + e2 s^2, evaluated by Horner's
    rule.  No sample falls outside the quadrant, and the loop calls no BLAS
    routine, whose thread pool oversubscribes the cores on thin products.

    Uniforms are drawn _QMC_CHUNK at a time into one preallocated
    (3, _QMC_CHUNK) buffer, and each chunk's integrand is evaluated in
    place there, in the order of operations of the expression
    (s_lo + width u, 1 + s^2, Horner's rule, (d d) d, the divide), so that
    a chunk allocates nothing.  The draws do not depend on _QMC_CHUNK,
    only the order of the partial sums.
    n_samples < 2 raises ParameterError; a singular C raises
    SingularityError; a correlation outside [-1, 1] (NaN included), found
    before any draw, or an S that is not positive semidefinite raises
    DomainError.
    """
    if n_samples < 2:
        raise ParameterError(f"quadrant_mc needs n_samples >= 2, got {n_samples}")
    for name, v in c.__dict__.items():
        if not abs(v) <= 1.0:  # NaN fails the comparison
            raise DomainError(f"correlation must lie in [-1, 1], got {name} = {v}")
    r = c.matrix()
    try:
        chol = np.linalg.cholesky(r[2:, 2:])
    except np.linalg.LinAlgError:
        raise SingularityError(
            f"(X3, X4) block is singular (rho34 = {c.rho34})") from None
    w = np.linalg.solve(chol, r[2:, :2])
    schur = r[:2, :2] - w.T @ w
    emin = float(np.linalg.eigvalsh(schur).min())
    if emin < _PSD_TOL:
        raise DomainError("conditional covariance of (X1, X2) given (X3, X4) is "
                          f"not positive semidefinite (min eig {emin:.2e})")
    s12 = float(schur[0, 1])
    s_lo = math.tan(0.5 * math.atan2(-chol[1, 0], chol[1, 1]))
    width = 1.0 - s_lo
    k = width / math.pi
    (w11, w12), (w21, w22) = w  # W_ij of the docstring
    e0 = k * (2.0 * w11 * w12 + s12)
    e1 = k * 4.0 * (w11 * w22 + w21 * w12)
    e2 = k * (2.0 * s12 - 4.0 * w11 * w12 + 8.0 * w21 * w22)
    rng = np.random.default_rng(seed)
    buf = np.empty((3, min(_QMC_CHUNK, n_samples)))
    tot = tot2 = 0.0
    done = 0
    while done < n_samples:
        m = min(_QMC_CHUNK, n_samples - done)
        s, d, y = buf[:, :m]
        rng.random(m, out=s)
        np.multiply(s, width, out=s)
        np.add(s, s_lo, out=s)  # s = s_lo + width * u
        np.multiply(s, s, out=d)
        np.add(d, 1.0, out=d)  # d = 1 + s * s
        np.multiply(s, e0, out=y)
        np.subtract(y, e1, out=y)
        np.multiply(y, s, out=y)
        np.add(y, e2, out=y)
        np.multiply(y, s, out=y)
        np.add(y, e1, out=y)
        np.multiply(y, s, out=y)
        np.add(y, e0, out=y)  # y = (((e0 s - e1) s + e2) s + e1) s + e0
        np.multiply(d, d, out=s)
        np.multiply(s, d, out=s)
        np.divide(y, s, out=y)  # y /= (d * d) * d
        tot += float(y.sum())
        tot2 += float(np.einsum("i,i->", y, y))  # no BLAS, unlike a 1-d matmul
        done += m
    mean = tot / n_samples
    se = math.sqrt(max(tot2 / n_samples - mean ** 2, 0.0) / n_samples)
    return mean, se


def _builtin_differentiable_models():
    from .covmodel import (bargmann_fock, make_iid_model,
                           make_independent_model, make_regression_model,
                           ornstein_uhlenbeck)
    bf, ou = bargmann_fock(), ornstein_uhlenbeck()
    return {
        "iid_bargmann_fock": make_iid_model(bf),
        "ou_x_bargmann_fock": make_independent_model(ou, bf),
        "regression_rho_0.3": make_regression_model(bf, bf, 0.3),
    }


def _load_correlations(path) -> np.ndarray:
    """The (rows, 6) array of rho12,rho13,rho14,rho23,rho24,rho34 rows of a
    correlations file, every row valid for the closed form and the series;
    anything else is a ConfigError naming the file and, for a refused row,
    its 1-based number among the data rows and the reason."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "no data": refused below
            data = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as e:
        raise ConfigError(f"correlations_file {path}: {e}") from None
    if data.shape[0] == 0 or data.shape[1] != 6:
        raise ConfigError(
            f"correlations_file {path}: need at least one row of exactly 6 "
            f"numbers (rho12,rho13,rho14,rho23,rho24,rho34), got "
            f"{data.shape[0]} rows of {data.shape[1]}")
    fault = quadrant_fault(QuadrantCorr(*data.T), "closed form and series")
    if fault is not None:
        i, err = fault
        raise ConfigError(f"correlations_file {path}: row {i + 1}: {err}")
    return data


def run_lemma_check(cfg: ExperimentConfig) -> dict:
    """Oracle equivalence suite: closed form vs diagram series vs
    conditional MC, and closed-form conditional covariance vs Schur
    regression."""
    file_corrs = (_load_correlations(cfg.correlations_file)
                  if cfg.correlations_file else None)
    rng = np.random.default_rng(cfg.seed)
    checks = {}

    # every set is drawn before the spot cases, which draw from the same
    # rng; the closed form runs per set, the series once on all of them
    sets = [random_psd_quadrant(rng) for _ in range(cfg.lemma_random_sets)]
    closed = np.array([quadrant_expectation(c) for c in sets], float)
    series = quadrant_expectation_series(
        QuadrantCorr(*np.reshape([c.values() for c in sets], (-1, 6)).T))
    series_err = float(np.max(np.abs(closed - series), initial=0.0))
    checks["closed_vs_series"] = {
        "sets": cfg.lemma_random_sets, "max_abs_diff": series_err,
        "tolerance": 1e-10, "pass": bool(series_err < 1e-10)}

    worst_z = 0.0
    spot_rows = []
    for i in range(cfg.lemma_spot_cases):
        c = random_psd_quadrant(rng)
        mc, se = quadrant_mc(c, cfg.lemma_mc_samples, seed=cfg.seed + 1000 + i)
        cf = quadrant_expectation(c)
        # a zero SE (all draws equal) agrees only with an exact match
        z = abs(cf - mc) / se if se > 0 else (0.0 if cf == mc else math.inf)
        worst_z = max(worst_z, z)
        spot_rows.append({"rho34": c.rho34, "closed": cf, "mc": mc,
                          "mc_se": se, "z": z})
    checks["closed_vs_mc"] = {
        "cases": cfg.lemma_spot_cases, "samples": cfg.lemma_mc_samples,
        "worst_z": worst_z, "tolerance_z": 4.0, "pass": bool(worst_z <= 4.0),
        "rows": spot_rows}

    lag_rng = np.random.default_rng(cfg.seed + 7)
    worst = 0.0
    for name, model in _builtin_differentiable_models().items():
        lags = [float(lag_rng.uniform(0.05, 8.0)) for _ in range(50)]
        batch = conditional_cov(model, np.array(lags)).matrix
        for t, closed_m in zip(lags, batch):
            schur_m = generic_regression(joint_cov_matrix(model, t)).matrix
            worst = max(worst, float(np.max(np.abs(closed_m - schur_m))))
    checks["conditional_cov_vs_schur"] = {
        "lags_per_model": 50, "max_abs_diff": worst, "tolerance": 1e-10,
        "pass": bool(worst < 1e-10)}

    if file_corrs is not None:
        # the closed form per row, the series once on all rows, as above
        rows = file_corrs.tolist()
        closed = [quadrant_expectation(QuadrantCorr(*row)) for row in rows]
        series = quadrant_expectation_series(QuadrantCorr(*file_corrs.T)).tolist()
        checks["file_rows"] = [
            {"corr": row, "closed": cf, "series": sr, "abs_diff": abs(cf - sr),
             "pass": bool(abs(cf - sr) < 1e-10)}
            for row, cf, sr in zip(rows, closed, series)]

    ok = all(v["pass"] for k, v in checks.items() if isinstance(v, dict) and "pass" in v)
    if "file_rows" in checks:
        ok = ok and all(r["pass"] for r in checks["file_rows"])
    return _report("lemma_check", cfg, {"checks": checks}, ok)


def run_smoothing(cfg: ExperimentConfig) -> dict:
    """Winding of smoothed rough paths: stabilization statistics and the
    per-epsilon variance rates against the two-alpha bound."""
    if len(cfg.t_ladder) > 1:
        raise ConfigError("a smoothing run has one horizon: t_ladder must "
                          f"hold a single T, got {cfg.t_ladder}")
    _check_grid(cfg)
    model = cfg.build_model()
    if model.x2_differentiable:
        raise ConfigError("smoothing experiment expects a non-differentiable model")
    if not cfg.epsilon_ladder:
        raise ConfigError("smoothing experiment needs epsilon_ladder")
    eps = [float(e) for e in cfg.epsilon_ladder]
    (T,) = cfg.t_ladder
    grid = GridSpec.from_dt(T, cfg.dt)
    # an unresolvable ladder exits before the costly bound; the one ladder
    # (read-only kernel spectra) serves every path and worker thread
    ladder = SmoothingLadder(grid, eps)
    bound = variance_bound_two_alpha(model, eps)  # raises HypothesisError early
    sampler = _make_sampler(model, grid, cfg.backend)

    def count_ladder(x1, x2):
        r = smoothed_winding(SamplePath(grid, x1, x2), ladder)
        return [x.n_w for x in r.results] + [r.stabilized]

    # one row per path: the count at each epsilon, then the stabilised flag
    table = _map_paths(sampler, cfg.seed, cfg.replications, cfg.workers,
                       count_ladder, len(eps) + 1)
    rows = []
    for j, e in enumerate(eps):
        vals, n_rejected = _column(table, j)
        var_rate = float(np.var(vals, ddof=1)) / T if len(vals) > 1 else None
        se = var_rate * math.sqrt(2.0 / (len(vals) - 1)) if var_rate is not None else None
        row = {"epsilon": e, "var_rate": var_rate, "var_rate_se": se,
               "bound": bound.bound_v_inf,
               "n_rejected": n_rejected,
               **sampler.diagnostics}
        if var_rate is not None:
            row["pass"] = bool(var_rate <= bound.bound_v_inf + 3.0 * se)
        else:
            row["pass"] = None
        rows.append(row)
    body = {
        "bound": bound.to_dict(),
        "rows": rows,
        "stabilization_rate": (float(np.mean(table[:, -1] == 1.0))
                               if len(eps) > 1 else None),
        "stabilization_note": ("not assessable: epsilon ladder of length 1"
                               if len(eps) < 2 else None),
    }
    ok = all(r["pass"] is not False for r in rows)
    return _report("smoothing", cfg, body, ok)


# ----------------------------------------------------------------------
# report plumbing
# ----------------------------------------------------------------------
# per-invocation config fields: write_report's sidecar records them, so
# that the report's bytes depend on neither where nor how wide a run was
_RUN_FIELDS = ("out_dir", "workers")


def _report(kind, cfg, body, ok) -> dict:
    return {
        "schema": SCHEMA,
        "kind": kind,
        "config": {k: v for k, v in asdict(cfg).items() if k not in _RUN_FIELDS},
        "result": body,
        "pass": bool(ok),
    }


def _paths_dir(cfg):
    """<out_dir>/paths when the run exports paths, else None.  It is made
    before the first horizon, so that an unusable path fails at once
    rather than after the run."""
    if not cfg.export_paths or not cfg.out_dir:
        return None
    d = os.path.join(cfg.out_dir, "paths")
    try:
        os.makedirs(d, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"path export directory {d}: {e.strerror or e}") from None
    return d


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=True)


def _table_of(report):
    body = report.get("result", {})
    for key in ("rows", "per_t"):
        if key in body:
            return body[key]
    return None


def _csv_field(value) -> str:
    """The JSON text of a value, CSV-quoted when it holds a comma (a list
    such as kept_bins)."""
    text = json.dumps(value, default=str)
    return '"' + text.replace('"', '""') + '"' if "," in text else text


def report_to_csv(report: dict) -> str:
    """CSV mirror of the tabular section of a report."""
    rows = _table_of(report)
    if not rows:
        raise ParameterError(
            f"a {report.get('kind')} report has no table to write as CSV")
    cols = [c for c in rows[0] if c != "standardized_sample"]
    out = [",".join(cols)]
    for r in rows:
        out.append(",".join(_csv_field(r.get(c)) for c in cols))
    return "\n".join(out) + "\n"


def write_report(report: dict, out_dir: str, name: str = "report",
                 fmt: str = "json", workers: Optional[int] = None) -> str:
    """Write report + metadata sidecar; returns the report path.  The
    report file itself is byte-stable for a fixed config and seed; the
    write time, out_dir and the run's worker count live in meta.json."""
    payload = report_to_json(report) if fmt == "json" else report_to_csv(report)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.{'json' if fmt == 'json' else 'csv'}")
    with open(path, "w") as fh:
        fh.write(payload)
    meta = {"written_at_unix": time.time(), "format": fmt,
            "out_dir": os.fspath(out_dir), "workers": workers}
    with open(os.path.join(out_dir, f"{name}.meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
    return path
