"""The dense working sets are sized by bytes, not by counts: the path
chunks of the harness compute the same numbers as one dense block, the
oracle MC draws differ from it only in the order of the partial sums, and
peak memory does not grow with the size of the run."""
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import windlab
from windlab import harness, moments
from windlab.covmodel import make_alpha_process, model_from_spec
from windlab.harness import quadrant_mc, random_psd_quadrant, simulate_windings
from windlab.pathgen import CirculantSampler, GridSpec
from windlab.winding import WindingResult

IID_BF = {"x": {"family": "bargmann_fock"}, "cross": "iid"}


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_two_alpha_bound_peak_memory():
    model = make_alpha_process(1.2)
    peak = _peak_bytes(
        lambda: moments.variance_bound_two_alpha(model, [0.4, 0.2, 0.1, 0.05]))
    assert peak < 2 << 20


def test_chunk_size_does_not_change_counts(monkeypatch):
    model = model_from_spec(IID_BF)
    row = 16 * GridSpec.from_dt(20.0, 0.02).n

    def counts(chunk_bytes, workers):
        monkeypatch.setattr(harness, "_CHUNK_BYTES", chunk_bytes)
        return simulate_windings(model, 20.0, 0.02, "circulant", 5, 30,
                                 workers=workers)["n_w"]

    single = counts(row, 1)
    for chunk_bytes, workers in ((row, 2), (7 * row, 1), (7 * row, 2), (64 * row, 1)):
        assert np.array_equal(counts(chunk_bytes, workers), single, equal_nan=True)


def test_simulate_peak_memory_does_not_grow_with_reps():
    model = model_from_spec(IID_BF)
    chunk = 16 * GridSpec.from_dt(20.0, 0.01).n
    per = harness._CHUNK_BYTES // chunk

    def peak(reps):
        return _peak_bytes(
            lambda: simulate_windings(model, 20.0, 0.01, "circulant", 3, reps))

    one, four = peak(per), peak(4 * per)
    assert four <= one + (1 << 20)


@pytest.mark.parametrize("T", [20.0, [5.0, 10.0, 15.0, 20.0]])
def test_simulate_peak_memory_flat_from_2000_to_20000_paths(monkeypatch, T):
    # a run keeps one float per (path, horizon), not a result object.
    # The real sampler and counter run several times slower under
    # tracemalloc, so stand-ins that keep nothing replace them: one real
    # path broadcast to every stream, and a counter that returns a fresh
    # WindingResult per call
    grid = GridSpec.from_dt(20.0, 0.02)
    path = CirculantSampler(model_from_spec(IID_BF), grid).sample_batch(31, [0])[0]

    class OnePath:
        def __init__(self, model, grid):
            self.grid, self.diagnostics = grid, {}

        def sample_batch(self, seed, streams):
            return np.broadcast_to(path, (len(streams), *path.shape))

    monkeypatch.setitem(harness._SAMPLERS, "one_path", OnePath)
    monkeypatch.setattr(harness, "count_windings_arrays",
                        lambda x1, x2: WindingResult(1, 0, 1, float(x2[-1]), True))

    def peak(reps):
        return _peak_bytes(
            lambda: simulate_windings(None, T, 0.02, "one_path", 31, reps))

    small, large = peak(2000), peak(20_000)
    assert large <= small + (1 << 20), (small, large)


def test_quadrant_mc_chunk_changes_only_summation_order(monkeypatch):
    c = random_psd_quadrant(np.random.default_rng(3))
    monkeypatch.setattr(harness, "_QMC_CHUNK", 1000)
    m1, se1 = quadrant_mc(c, 100_000, seed=9)
    monkeypatch.setattr(harness, "_QMC_CHUNK", 100_000)
    m2, se2 = quadrant_mc(c, 100_000, seed=9)
    assert abs(m1 - m2) <= 1e-15
    assert abs(se1 - se2) <= 1e-12 * se2


def test_cli_import_leaves_out_scipy_stats():
    src = os.path.dirname(os.path.dirname(windlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, windlab.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


def _bootstrap_one_block(x, seed):
    """The 1000 resamples as one (1000, n) draw."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(x), size=(1000, len(x)))
    vs = np.var(x[idx], axis=1, ddof=1)
    a = (1.0 - 0.99) / 2.0
    return float(np.quantile(vs, a)), float(np.quantile(vs, 1.0 - a))


def test_bootstrap_blocks_give_the_one_block_ci(monkeypatch):
    # blocks of 1, 7 and 64 rows, and the default, at odd and even n
    for n in (1999, 2000):
        x = np.random.default_rng(n).standard_normal(n)
        want = _bootstrap_one_block(x, 11)
        for rows in (1, 7, 64, None):
            with monkeypatch.context() as m:
                if rows:
                    m.setattr(harness, "_BOOT_BYTES", 8 * n * rows)
                assert harness._bootstrap_var_ci(x, seed=11) == want


def test_bootstrap_peak_memory():
    # one (1000, n) block of indices and gathers would peak near 1.1 GiB
    x = np.random.default_rng(3).standard_normal(50_000)
    assert _peak_bytes(lambda: harness._bootstrap_var_ci(x, seed=1)) < 64 << 20
