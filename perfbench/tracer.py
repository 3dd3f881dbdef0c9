"""Spans and counters recorded from outside windlab.

Nothing under ``src/`` is edited: each wrapper replaces the name that a
caller looks up (``windlab.harness.count_windings_arrays``,
``windlab.moments.adaptive_quad``, ``CirculantSampler.sample_batch``, ...),
so every call made through windlab's own code paths is seen exactly once.

Two levels are installed:

* ``install_setup`` (always): the set-up entry points (config load, model
  construction, sampler construction), which run a handful of times per
  experiment, and outcome shims on the two per-path winding calls the
  harness makes (rejected / disagreeing paths), which record no time.
* ``install_full`` (traced runs only): a span around the public functions
  of every module, integrand evaluations, and the counters of normals
  drawn and FFT lengths during sampling.

Spans are kept in memory as parallel lists (name, start, end, parent) under
one run id and written once, by ``write_spans``, when the process ends.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

now_ns = time.monotonic_ns  # CLOCK_MONOTONIC: comparable across processes

LAYERS = ("cli", "harness", "pathgen", "winding", "moments", "quadrature",
          "gauss", "covmodel")
SAMPLE_SPANS = ("pathgen.sample", "pathgen.sample_batch")
BUILD_SPANS = ("covmodel.model_from_spec", "covmodel.make_iid_model",
               "covmodel.make_independent_model", "covmodel.make_regression_model",
               "covmodel.make_alpha_process")
SETUP_SPANS = ("harness.load_config", "pathgen.build") + BUILD_SPANS


class Tracer:
    """Span store for one process.  ``full`` is False in untraced runs,
    where only the set-up spans are recorded."""

    def __init__(self, run_id: str, full: bool):
        self.run_id = run_id
        self.full = full
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.stack = [-1]
        self.paths = {}            # sample span -> paths it produced
        self.normals = {}          # sample span -> normals drawn inside it
        self.fft_lengths = set()   # transform lengths seen while sampling
        self.ffts = 0              # 1-d transforms run while sampling
        self.quadrant_samples = 0
        self.outcome = defaultdict(int)   # paths / rejected / disagreed
        self._sampling = -1        # index of the open outermost sample span

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.ends.append(0)
        self.stack.append(i)
        self.starts.append(now_ns())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = now_ns()
        self.stack.pop()

    def span(self, name, fn):
        """``fn`` wrapped in a span called ``name``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(i)
        return traced

    # ------------------------------------------------------------------
    # summary
    # ------------------------------------------------------------------
    def arrays(self):
        """(name, duration, parent index, parent name, self time) per span."""
        names = np.array(self.names, dtype=object)
        start = np.array(self.starts, dtype=np.int64)
        dur = np.array(self.ends, dtype=np.int64) - start
        parent = np.array(self.parents, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        pname = np.array([names[p] if p >= 0 else "" for p in parent], dtype=object)
        return names, dur, parent, pname, dur - covered

    def setup_ns(self) -> int:
        """Time inside set-up spans, outermost only (model construction nests)."""
        names, dur, _, pname, _ = self.arrays()
        return int(dur[np.isin(names, SETUP_SPANS) & ~np.isin(pname, SETUP_SPANS)].sum())

    def summary(self, wall_ns: int) -> dict:
        """Per-layer metrics of this traced process (see README.md)."""
        names, dur, parent, pname, self_ns = self.arrays()
        layer = np.array([n.split(".", 1)[0] for n in names], dtype=object)
        player = np.array([n.split(".", 1)[0] for n in pname], dtype=object)

        def total(mask):
            return float(dur[mask].sum())

        def is_(*wanted):
            return np.isin(names, wanted)

        out, dists = {}, {}
        for lay in LAYERS:
            out[f"{lay}.self_s"] = float(self_ns[layer == lay].sum()) / 1e9
        roots = parent < 0
        out["tracing.unaccounted_s"] = (wall_ns - float(dur[roots].sum())) / 1e9
        out["tracing.spans"] = len(names)
        out["cli.import_s"] = total(is_("cli.import")) / 1e9
        out["cli.report_write_ms"] = total(is_("cli.write_report",
                                               "cli.write_coefficients")) / 1e6
        build = is_(*BUILD_SPANS) & ~np.isin(pname, BUILD_SPANS)
        out["covmodel.build_ms"] = total(build) / 1e6
        out["pathgen.build_ms"] = total(is_("pathgen.build")
                                        & (pname != "pathgen.build")) / 1e6

        outer = [i for i in self.paths if pname[i] not in SAMPLE_SPANS]
        n_paths = sum(self.paths[i] for i in outer)
        normals = sum(self.normals.get(i, 0) for i in outer)
        dists["pathgen.sample_ms_per_path"] = [dur[i] / 1e6 / self.paths[i]
                                               for i in outer if self.paths[i]]
        out["pathgen.sample_calls"] = len(outer)
        out["pathgen.fft_len"] = max(self.fft_lengths, default=0)
        out["pathgen.ffts_per_path"] = self.ffts / n_paths if n_paths else 0
        out["pathgen.normals_per_path"] = normals / n_paths if n_paths else 0
        out["pathgen.noise_bytes_per_chunk_computed"] = 8 * max(
            (self.normals.get(i, 0) for i in outer), default=0)
        dists["pathgen.smooth_ms_per_call"] = list(
            dur[is_("pathgen.smooth_path")] / 1e6)

        # a counted path is a count made for the harness, or one
        # smoothed_winding call (which counts once per epsilon)
        counts = is_("winding.count")
        per_path = defaultdict(float)
        for i in np.flatnonzero(counts):
            key = parent[i] if pname[i] == "winding.smoothed_winding" else i
            per_path[key] += dur[i]
        dists["winding.count_ms_per_path"] = [v / 1e6 for v in per_path.values()]
        out["winding.counts_per_path"] = (int(counts.sum()) / len(per_path)
                                          if per_path else 0)
        out["winding.rejected"] = self.outcome["rejected"]
        out["winding.disagreed"] = self.outcome["disagreed"]

        out["harness.simulate_s"] = total(is_("harness.simulate_windings")) / 1e9
        qmc = total(is_("harness.quadrant_mc")) / 1e9
        out["harness.quadrant_mc_s"] = qmc
        out["harness.quadrant_mc_samples_per_s"] = (self.quadrant_samples / qmc
                                                    if qmc else 0)

        top_moments = player != "moments"
        for metric, fn in (("variance_general_ms", "variance_rate_general"),
                           ("variance_independent_ms", "variance_rate_independent"),
                           ("chaos_ms", "chaos_projection_variances"),
                           ("two_alpha_bound_ms", "variance_bound_two_alpha")):
            out[f"moments.{metric}"] = total(is_(f"moments.{fn}") & top_moments) / 1e6

        quad = (layer == "quadrature") & (player != "quadrature")
        out["quadrature.calls"] = int(quad.sum())
        out["quadrature.integrand_evals"] = int(is_("moments.integrand").sum())

        ccov = is_("gauss.conditional_cov")
        out["gauss.conditional_cov_calls"] = int(ccov.sum())
        dists["gauss.conditional_cov_us"] = list(dur[ccov] / 1e3)
        out["gauss.quadrant_series_ms"] = total(is_("gauss.quadrant_series")) / 1e6
        return {"values": out, "dists": dists}

    def write_spans(self, path) -> None:
        """All spans of this process as one columnar JSON object."""
        table = sorted(set(self.names))
        index = {n: k for k, n in enumerate(table)}
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "clock": "CLOCK_MONOTONIC ns",
                       "names": table,
                       "name": [index[n] for n in self.names],
                       "start_ns": self.starts, "end_ns": self.ends,
                       "parent": self.parents}, fh)


# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------
def _patch(owner, attr, make):
    """Replace ``owner.attr`` by ``make(original)``; missing names are
    reported, so a renamed entry point cannot silently drop out."""
    orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if orig is None:
        raise AttributeError(f"cannot trace {getattr(owner, '__name__', owner)}.{attr}: "
                             "name not found")
    if isinstance(orig, classmethod):
        setattr(owner, attr, classmethod(make(orig.__func__)))
    else:
        setattr(owner, attr, make(orig))


def _samplers(pathgen):
    return [getattr(pathgen, n) for n in ("CirculantSampler", "SpectralSampler",
                                          "CholeskySampler") if hasattr(pathgen, n)]


def install_setup(tr: Tracer, windlab) -> None:
    """Set-up spans and path outcome shims; cheap enough for untraced runs."""
    harness, covmodel, pathgen = windlab.harness, windlab.covmodel, windlab.pathgen
    _patch(harness.ExperimentConfig, "from_file",
           lambda f: tr.span("harness.load_config", f))
    _patch(harness, "model_from_spec",
           lambda f: tr.span("covmodel.model_from_spec", f))
    # lemma_check builds its models through a call-time import from covmodel
    for name in ("make_iid_model", "make_independent_model",
                 "make_regression_model", "make_alpha_process"):
        _patch(covmodel, name, lambda f, n=name: tr.span(f"covmodel.{n}", f))
    for cls in _samplers(pathgen):
        _patch(cls, "__init__", lambda f: tr.span("pathgen.build", f))

    aliasing = windlab.errors.AliasingError

    def count_outcome(f):
        def counted(*args, **kwargs):
            tr.outcome["paths"] += 1
            try:
                r = f(*args, **kwargs)
            except aliasing:
                tr.outcome["rejected"] += 1
                raise
            if not r.agreement:
                tr.outcome["disagreed"] += 1
            return r
        return counted

    def smoothed_outcome(f):
        def counted(*args, **kwargs):
            tr.outcome["paths"] += 1
            try:
                r = f(*args, **kwargs)
            except aliasing:
                tr.outcome["rejected"] += 1
                raise
            if not all(x.agreement for x in r.results):
                tr.outcome["disagreed"] += 1
            return r
        return counted

    _patch(harness, "count_windings_arrays", count_outcome)
    _patch(harness, "smoothed_winding", smoothed_outcome)


def install_full(tr: Tracer, windlab) -> None:
    """Spans around every module's public functions, at the names their
    callers look up.  Call after ``install_setup``."""
    cli, harness, moments, pathgen, winding, gauss = (
        windlab.cli, windlab.harness, windlab.moments, windlab.pathgen,
        windlab.winding, windlab.gauss)

    def spans(owner, table):
        for attr, name in table.items():
            _patch(owner, attr, lambda f, n=name: tr.span(n, f))

    spans(cli, {"write_report": "cli.write_report",
                "export_chaos_coefficients_csv": "cli.write_coefficients",
                "check_conditions": "covmodel.check_conditions",
                "classify": "covmodel.classify",
                "expectation_rate": "moments.expectation_rate",
                "variance_rate_independent": "moments.variance_rate_independent",
                "variance_rate_general": "moments.variance_rate_general",
                "chaos_projection_variances": "moments.chaos_projection_variances"})
    spans(cli, {f"run_{k}": f"harness.run_{k}" for k in
                ("variance", "expectation", "clt", "lemma_check", "smoothing")})
    spans(harness, {"simulate_windings": "harness.simulate_windings",
                    "classify": "covmodel.classify",
                    "expectation_rate": "moments.expectation_rate",
                    "variance_rate_independent": "moments.variance_rate_independent",
                    "variance_rate_general": "moments.variance_rate_general",
                    "variance_bound_two_alpha": "moments.variance_bound_two_alpha",
                    "conditional_cov": "gauss.conditional_cov",
                    "generic_regression": "gauss.generic_regression",
                    "joint_cov_matrix": "gauss.joint_cov_matrix",
                    "quadrant_expectation": "gauss.quadrant_expectation",
                    "quadrant_expectation_series": "gauss.quadrant_series"})
    spans(moments, {"classify": "covmodel.classify",
                    "conditional_cov": "gauss.conditional_cov",
                    "g_norm_sq": "gauss.g_norm_sq",
                    "orthant_angle": "gauss.orthant_angle"})
    spans(gauss, {"chaos_coefficients": "gauss.chaos_coefficients"})
    spans(pathgen, {"classify": "covmodel.classify"})
    spans(winding, {"smooth_path": "pathgen.smooth_path",
                    "count_windings_arrays": "winding.count"})
    # the harness bindings already carry the outcome shims; spans go outside
    spans(harness, {"count_windings_arrays": "winding.count",
                    "smoothed_winding": "winding.smoothed_winding"})

    def quadrant_mc(f):
        traced = tr.span("harness.quadrant_mc", f)

        def counted(c, n_samples, *args, **kwargs):
            tr.quadrant_samples += int(n_samples)
            return traced(c, n_samples, *args, **kwargs)
        return counted
    _patch(harness, "quadrant_mc", quadrant_mc)

    def quadrature(name):
        def make(f):
            def traced(g, *args, **kwargs):
                return f(tr.span("moments.integrand", g), *args, **kwargs)
            return tr.span(f"quadrature.{name}", traced)
        return make
    for name in ("adaptive_quad", "tanh_sinh", "integrate_to_infinity"):
        _patch(moments, name, quadrature(name))

    def sampling(name, n_paths):
        def make(f):
            def traced(*args, **kwargs):
                outer = tr._sampling < 0
                i = tr.begin(name)
                if outer:
                    tr._sampling = i
                try:
                    return f(*args, **kwargs)
                finally:
                    tr.end(i)
                    tr.paths[i] = n_paths(args, kwargs)
                    if outer:
                        tr._sampling = -1
            return traced
        return make

    for cls in _samplers(pathgen):
        if "sample" in cls.__dict__:
            _patch(cls, "sample", sampling("pathgen.sample", lambda a, k: 1))
        if "sample_batch" in cls.__dict__:
            _patch(cls, "sample_batch", sampling(
                "pathgen.sample_batch",
                lambda a, k: len(k["streams"] if "streams" in k else a[2])))

    _install_rng_counters(tr)


def _install_rng_counters(tr: Tracer) -> None:
    """Count normals drawn and FFT lengths while a sample span is open.
    Samplers draw through ``np.random.Generator(...)`` and transform
    through ``np.fft``; both are looked up on the numpy modules at call
    time, which is where the counters go."""
    import numpy.fft as npfft
    import numpy.random as nprandom

    class CountingGenerator(nprandom.Generator):
        def standard_normal(self, *args, **kwargs):
            r = super().standard_normal(*args, **kwargs)
            if tr._sampling >= 0:
                tr.normals[tr._sampling] = tr.normals.get(tr._sampling, 0) + np.size(r)
            return r

    nprandom.Generator = CountingGenerator

    def fft_counter(f):
        @functools.wraps(f)
        def counted(a, n=None, axis=-1, *args, **kwargs):
            if tr._sampling >= 0:
                shape = np.shape(a)
                length = n if n is not None else shape[axis]
                tr.fft_lengths.add(int(length))
                tr.ffts += int(np.prod(shape)) // max(shape[axis], 1)
            return f(a, n, axis, *args, **kwargs)
        return counted

    for name in ("fft", "ifft", "rfft", "irfft"):
        setattr(npfft, name, fft_counter(getattr(npfft, name)))
