import io
import math
import warnings

import numpy as np
import pytest

from windlab.errors import AliasingError, ParameterError
from windlab.pathgen import (CholeskySampler, CirculantSampler, GridSpec,
                             SamplePath, SmoothingLadder, export_path_csv,
                             load_path_csv)
from windlab.winding import (count_windings, count_windings_arrays,
                             smoothed_winding)

from conftest import convolve_smooth


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
        return CirculantSampler(m, GridSpec.from_dt(30.0, 0.01)).sample(seed)

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


def refinement_stable(make, model, grid, seed, streams):
    """Per stream, whether n_w survives halving dt: the path is drawn on the
    dyadic refinement of ``grid`` (2n - 1 points) and counted there and on
    its restriction to every second point, which is ``grid`` itself."""
    fine = make(model, GridSpec(T=grid.T, n=2 * grid.n - 1))
    return [count_windings_arrays(x1, x2).n_w
            == count_windings_arrays(x1[::2], x2[::2]).n_w
            for x1, x2 in fine.sample_batch(seed, list(streams))]


class TestRefinedCounting:
    def test_stability_rate(self, iid_bf):
        stable = refinement_stable(CirculantSampler, iid_bf,
                                   GridSpec.from_dt(20.0, 0.01), 5, range(250))
        assert np.mean(stable) > 0.98

    def test_coarse_grid_less_stable(self, iid_bf):
        fine = refinement_stable(CirculantSampler, iid_bf,
                                 GridSpec.from_dt(20.0, 0.01), 6, range(120))
        coarse = refinement_stable(CirculantSampler, iid_bf,
                                   GridSpec.from_dt(20.0, 1.0), 6, range(120))
        assert np.mean(coarse) < np.mean(fine) - 0.1

    def test_cholesky_backend(self, iid_bf):
        (stable,) = refinement_stable(CholeskySampler, iid_bf,
                                      GridSpec.from_dt(5.0, 0.05), 3, [1])
        assert stable in (True, False)


class TestSmoothedWinding:
    def _rough_path(self, seed=4, T=30.0):
        from windlab.covmodel import make_alpha_process
        return CirculantSampler(make_alpha_process(1.2),
                                GridSpec.from_dt(T, 0.01)).sample(seed)

    @staticmethod
    def _smoothed(p, eps):
        return smoothed_winding(p, SmoothingLadder(p.grid, eps))

    def test_ladder_of_one_not_assessable(self):
        res = self._smoothed(self._rough_path(), [0.3])
        assert res.stabilization_index is None
        assert len(res.results) == 1

    def test_smooth_model_paths_insensitive(self, iid_bf):
        # a differentiable path keeps its count under mild smoothing
        p = CirculantSampler(iid_bf, GridSpec.from_dt(20.0, 0.01)).sample(11)
        base = count_windings(p).n_w
        res = self._smoothed(p, [0.1, 0.05, 0.025])
        assert all(r.n_w == base for r in res.results)
        assert res.stabilization_index == 0

    def test_only_a_ladder_is_taken(self):
        p = self._rough_path()
        for eps in ([0.4, 0.2], (0.4, 0.2), np.array([0.4, 0.2])):
            with pytest.raises(ParameterError, match="takes a smoothing ladder"):
                smoothed_winding(p, eps)

    def test_ladder_on_another_grid_refused(self):
        p = self._rough_path()
        for grid in (GridSpec.from_dt(20.0, 0.01), GridSpec.from_dt(30.0, 0.02)):
            with pytest.raises(ParameterError, match="ladder built on"):
                smoothed_winding(p, SmoothingLadder(grid, [0.4, 0.2]))

    def test_ladder_counts_equal_convolution_counts(self, alpha12):
        # every count made through the FFT ladder equals the count on the
        # directly convolved path, on 200 paths of the shipped workload size
        grid = GridSpec.from_dt(50.0, 0.01)
        eps = [0.4, 0.2, 0.1, 0.05]
        ladder = SmoothingLadder(grid, eps)

        def outcome(x1, x2):
            try:
                return count_windings_arrays(x1, x2).n_w
            except AliasingError:
                return None

        got, want = [], []
        for x1, x2 in CirculantSampler(alpha12, grid).sample_batch(29, range(200)):
            got += [outcome(x1, row) for row in ladder.smooth(x2)]
            want += [outcome(x1, convolve_smooth(x2, grid, e)) for e in eps]
        assert len(got) == 800 and got == want

    def test_rough_path_ladder_runs(self):
        res = self._smoothed(self._rough_path(seed=12), [0.4, 0.2, 0.1, 0.05])
        assert len(res.results) == 4
        assert res.epsilons == (0.4, 0.2, 0.1, 0.05)
        if res.stabilization_index is not None:
            tail = [r.n_w for r in res.results[res.stabilization_index:]]
            assert len(set(tail)) == 1


class TestFileInput:
    def test_counting_from_exported_csv(self, iid_bf):
        p = CirculantSampler(iid_bf, GridSpec.from_dt(20.0, 0.01)).sample(8)
        direct = count_windings(p)
        buf = io.StringIO()
        export_path_csv(p, buf)
        buf.seek(0)
        loaded = load_path_csv(buf)
        again = count_windings(loaded)
        assert again.n_w == direct.n_w
        assert again.delta_arg == pytest.approx(direct.delta_arg, abs=1e-12)


# ----------------------------------------------------------------------
# the counter against a dense reference implementation
# ----------------------------------------------------------------------
def _dense_reference(x1, x2):
    """Winding count by full-length array passes: crossings interpolated on
    every step and masked by the sign flips, every angle increment wrapped
    with floor.  Independent of ``src/``; only the result type and the
    error classes are shared."""
    from windlab.winding import WindingResult
    x1 = np.asarray(x1, float)
    x2 = np.asarray(x2, float)
    if x1.shape != x2.shape or x1.ndim != 1 or x1.size < 2:
        raise ParameterError("need two 1-d coordinate arrays with >= 2 points")
    if not (np.all(np.isfinite(x1)) and np.all(np.isfinite(x2))):
        raise ParameterError("path coordinates must be finite")
    tiny = 8.0 * np.finfo(float).eps * float(np.max(np.abs(x2)))
    if tiny > 0.0:
        x2 = np.where(np.abs(x2) <= tiny, 0.0, x2)
    at_origin = (x1 == 0.0) & (x2 == 0.0)
    if np.any(at_origin):
        warnings.warn("grid point exactly at the origin; perturbing x1 by 1e-12",
                      RuntimeWarning)
        x1 = x1.copy()
        x1[at_origin] = 1e-12
    s = x2 >= 0.0
    flip = s[:-1] != s[1:]
    den = x2[:-1] - x2[1:]
    with np.errstate(invalid="ignore", divide="ignore"):
        theta = np.where(flip, x2[:-1] / np.where(den == 0.0, 1.0, den), 0.0)
    x1c = x1[:-1] + theta * (x1[1:] - x1[:-1])
    n_up = int(np.count_nonzero(flip & ~s[:-1] & (x1c > 0.0)))
    n_down = int(np.count_nonzero(flip & s[:-1] & (x1c > 0.0)))
    d = np.diff(np.arctan2(x2, x1))
    d = d - 2.0 * math.pi * np.floor((d + math.pi) / (2.0 * math.pi))
    d[d <= -math.pi] += 2.0 * math.pi
    worst = float(np.max(np.abs(d)))
    if worst > math.pi - 1e-9:
        raise AliasingError(
            f"angle step {worst:.6f} within guard of pi: grid too coarse "
            "relative to the rotation speed")
    delta_arg = float(np.sum(d))
    n_w = n_up - n_down
    return WindingResult(n_up=n_up, n_down=n_down, n_w=n_w, delta_arg=delta_arg,
                         agreement=abs(delta_arg / (2.0 * math.pi) - n_w) < 1.0)


def _outcome(fn, x1, x2):
    """(result or (exception class, message), RuntimeWarning count), after
    checking that fn left both inputs bit-for-bit as they were."""
    before = [np.array(x, copy=True) for x in (x1, x2)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(x1, x2)
        except Exception as e:  # compared by class and message
            out = (type(e), str(e))
    for x, b in zip((x1, x2), before):
        assert np.asarray(x).tobytes() == b.tobytes(), "input mutated"
    return out, sum(issubclass(w.category, RuntimeWarning) for w in caught)


def _assert_same_as_reference(x1, x2):
    got, got_warn = _outcome(count_windings_arrays, x1, x2)
    ref, ref_warn = _outcome(_dense_reference, x1, x2)
    assert got_warn == ref_warn
    if isinstance(ref, tuple):
        assert got == ref
        return
    assert not isinstance(got, tuple), got
    for f in ("n_up", "n_down", "n_w", "agreement"):
        assert getattr(got, f) == getattr(ref, f), f
    # the counter telescopes the steps the reference sums one by one
    assert abs(got.delta_arg - ref.delta_arg) <= 1e-12 * (1.0 + abs(ref.delta_arg))


def _sampled_paths():
    from windlab.covmodel import (bargmann_fock, make_alpha_process,
                                  make_iid_model, make_regression_model)
    from windlab.pathgen import smooth_path
    iid = CirculantSampler(make_iid_model(bargmann_fock()),
                           GridSpec.from_dt(200.0, 0.01))
    reg = CirculantSampler(make_regression_model(bargmann_fock(), bargmann_fock(), 0.3),
                           GridSpec.from_dt(100.0, 0.01))
    alpha = CirculantSampler(make_alpha_process(1.2), GridSpec.from_dt(50.0, 0.01))
    paths = [iid.sample(31, k) for k in range(6)] + [reg.sample(32, k) for k in range(6)]
    for k in range(2):
        p = alpha.sample(33, k)
        paths += [smooth_path(p, e) for e in (0.4, 0.2, 0.1, 0.05)]
    return paths


def _edge_cases():
    eps = np.finfo(float).eps
    one = np.ones(6)
    circle = np.linspace(0.0, 2.0 * math.pi, 9)
    cases = [
        (one, np.array([0.5, 0.0, -0.5, 0.0, 0.5, -0.5])),      # exact zeros
        (one, np.array([0.5, -0.0, -0.5, -0.0, 0.5, -0.5])),    # -0.0 entries
        (-one, np.array([0.5, -0.0, -0.5, -0.0, 0.5, -0.5])),
        (one, np.zeros(6)),                                      # all-zero x2
        (np.ones(2), np.array([0.0, -0.0])),                    # a signed zero at the end
        (-one, -np.zeros(6)),
        (np.array([1.0, -1.0, 1.0]), np.zeros(3)),
        (np.zeros(4), np.zeros(4)),                              # all at the origin
        (np.array([1.0, 0.0, 1.0, 1.0]), np.array([0.5, 0.0, -0.5, 0.5])),
        (np.array([1.0, -0.0, -1.0, 0.0]), np.array([0.5, -0.0, -0.5, 0.0])),
        (np.cos(circle), np.sin(circle)),                        # zeros up to rounding
        (one, np.array([1.0, 8 * eps, -8 * eps, 9 * eps, -9 * eps, -1.0])),
        (one, np.array([1.0, 4 * eps, -4 * eps, -1.0, 7.9 * eps, 1.0])),
        (np.array([-1.0, -1.0]), np.array([4 * eps, -4 * eps])),
        (np.array([-1.0, -1.0]), np.array([1e-300, -1e-300])),
        (np.array([1.0, 1.0]), np.array([5e-324, -5e-324])),    # tiny underflows to 0
        (np.array([-1.0, -1.0]), np.array([5e-324, -0.0])),
        (np.array([1.0, 2.0]), np.array([1.0, -1.0])),          # two points
        (np.array([-1.0, -2.0]), np.array([-1.0, 1.0])),
        (np.array([1e308, -1e308]), np.array([1e308, -1e308])),
        (np.array([1.0, 1.0]), np.array([1.0, 1.0])),
        (np.array([1.0]), np.array([1.0])),                     # too short
        (np.ones(3), np.ones(4)),
        (np.ones((2, 2)), np.ones((2, 2))),
        ([1.0, 1.0, 1.0], [1, 0, -1]),                          # lists, ints
        (np.array([1.0, 0.5, -1.0], np.float32), np.array([0.3, -0.2, 0.1], np.float32)),
        (np.linspace(1.0, -1.0, 12)[::2], np.linspace(0.5, -0.5, 12)[::2]),
    ]
    for bad in (np.nan, np.inf, -np.inf):
        v = np.array([1.0, bad, 1.0])
        cases += [(v, np.array([0.5, -0.5, 0.5])), (np.ones(3), v)]
    # single steps on and just across the pi - 1e-9 guard, both senses,
    # from either side of the branch cut
    for theta in (math.pi - 1e-9 - 1e-12, math.pi - 1e-9, math.pi - 1e-9 + 1e-12,
                  math.pi - 1e-9 + 2e-15, math.pi - 1e-9 - 2e-15, math.pi):
        for sign in (1.0, -1.0):
            for start in (0.0, 0.3, math.pi / 2, math.pi, -math.pi / 2):
                ang = np.array([start, start + sign * theta, start])
                cases.append((np.cos(ang), np.sin(ang)))
    # the same near-pi steps, each turning from just off one half of the
    # x1 axis to just off the other: they flip x1 alone, or x1 and x2
    for theta in (math.pi - 1e-9 - 1e-12, math.pi - 1e-9, math.pi - 1e-9 + 1e-12):
        for sign in (1.0, -1.0):
            for start in (5e-10, -5e-10, math.pi - 5e-10, -math.pi + 5e-10):
                ang = np.array([start, start + sign * theta, start])
                cases.append((np.cos(ang), np.sin(ang)))
    # steps onto and off a point of each half-axis given as +0.0 or -0.0,
    # either way round; x2 of 5e-324 leaves the threshold at 0, so that a
    # -0.0 in x2 is kept rather than zeroed
    for z in (0.0, -0.0):
        for c in (1.0, -1.0):
            for x2 in ([0.5, z, -0.5], [5e-324, z, -5e-324]):
                cases += [(np.full(3, c), np.array(x2)), (np.full(3, c), np.array(x2[::-1]))]
            cases += [(np.array([0.5, z, -0.5]), np.full(3, c)),
                      (np.array([-0.5, z, 0.5]), np.full(3, c))]
    rng = np.random.default_rng(2718)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2 * eps, -2 * eps, 1e-12, -1e-12, 3.0])
    for _ in range(240):
        n = int(rng.integers(2, 40))
        x1, x2 = rng.standard_normal(n), rng.standard_normal(n)
        for x in (x1, x2):
            m = rng.random(n) < rng.random()
            x[m] = rng.choice(pool, size=int(m.sum()))
        cases.append((x1, x2))
    return cases


class TestDenseReference:
    def test_sampled_paths(self):
        for p in _sampled_paths():
            _assert_same_as_reference(p.x1, p.x2)

    def test_edge_cases(self):
        for x1, x2 in _edge_cases():
            _assert_same_as_reference(x1, x2)

    def test_overflow_warns_only_on_interpolated_steps(self):
        # an x1 step past the float range where x2 keeps its sign: the
        # reference overflows computing it (two RuntimeWarnings), the counter
        # never computes it; the results are the same
        x1, x2 = np.array([1e308, -1e308]), np.array([1e308, 1e308])
        got, warns = _outcome(count_windings_arrays, x1, x2)
        ref, ref_warns = _outcome(_dense_reference, x1, x2)
        assert got == ref and (warns, ref_warns) == (0, 2)

    def test_arctan2_runs_on_under_one_percent_of_the_points(self, iid_bf,
                                                             monkeypatch):
        # the guard takes angles only on the steps that may turn by more
        # than pi/2 or pass the branch cut: on an iid Bargmann-Fock path at
        # T = 200 (n = 20001), the x2 flips and a few more
        x1, x2 = CirculantSampler(iid_bf, GridSpec.from_dt(200.0, 0.01)).sample_batch(
            41, [0])[0]
        want = _dense_reference(x1, x2)
        seen = []
        arctan2 = np.arctan2

        def counted(y, x, *args, **kwargs):
            seen.append(np.size(y))
            return arctan2(y, x, *args, **kwargs)

        monkeypatch.setattr(np, "arctan2", counted)
        got = count_windings_arrays(x1, x2)
        assert 0 < sum(seen) < 0.01 * x1.size
        assert (got.n_up, got.n_down, got.n_w) == (want.n_up, want.n_down, want.n_w)
        assert got.n_up + got.n_down > 0

    def test_corpus_reaches_every_branch(self):
        outcomes = [_outcome(count_windings_arrays, x1, x2)
                    for x1, x2 in _edge_cases()]
        errors = {o[0] for o, _ in outcomes if isinstance(o, tuple)}
        assert errors == {ParameterError, AliasingError}
        assert any(w for _, w in outcomes)
        assert any(not isinstance(o, tuple) and o.n_w != 0 for o, _ in outcomes)
