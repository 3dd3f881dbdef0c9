"""windlab's benchmark: one workload, closed loop, one client.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mc_iid_T200 --seed 1 --seconds 20 --trace 0

Each repetition launches a fresh Python process (perfbench/child.py) that
imports windlab from ``src/`` and drives it through ``windlab.cli.main`` on
configs generated from the seed; the next repetition starts only after the
previous one has exited.  Repetitions are started until the next one would
end after ``--seconds``; at least one always runs (two with ``--trace 1``).

``--trace 0`` reports the end-to-end metrics (medians over repetitions);
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  The last
line of stdout is one JSON object; the full record (machine, environment,
seeds, every repetition and check) goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from tracer import now_ns  # noqa: E402
from workloads import WORKLOADS, worker_slice_calls, worker_slice_check  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MiB"}
# per-layer metrics reported as the median over traced repetitions, with
# their units; distributions are pooled over all traced calls
PER_LAYER = {
    "cli.import_s": "s", "cli.report_write_ms": "ms", "cli.self_s": "s",
    "harness.simulate_s": "s", "harness.self_s": "s", "harness.quadrant_mc_s": "s",
    "harness.quadrant_mc_samples_per_s": "1/s",
    "pathgen.build_ms": "ms", "pathgen.sample_calls": "count",
    "pathgen.fft_len": "count", "pathgen.ffts_per_path": "count",
    "pathgen.normals_per_path": "count", "pathgen.noise_bytes_per_chunk_computed": "B",
    "pathgen.self_s": "s",
    "winding.counts_per_path": "count", "winding.self_s": "s",
    "moments.variance_general_ms": "ms", "moments.variance_independent_ms": "ms",
    "moments.chaos_ms": "ms", "moments.two_alpha_bound_ms": "ms", "moments.self_s": "s",
    "quadrature.calls": "count", "quadrature.integrand_evals": "count",
    "quadrature.self_s": "s",
    "gauss.conditional_cov_calls": "count", "gauss.quadrant_series_ms": "ms",
    "gauss.self_s": "s",
    "covmodel.build_ms": "ms", "covmodel.self_s": "s",
    "tracing.unaccounted_s": "s", "tracing.spans": "count",
}
SUMMED = {"winding.rejected": "count", "winding.disagreed": "count"}
DISTS = {  # name -> (pooled distribution, statistic, unit)
    "pathgen.sample_ms_per_path": ("pathgen.sample_ms_per_path", 50, "ms"),
    "pathgen.sample_ms_per_path_p90": ("pathgen.sample_ms_per_path", 90, "ms"),
    "pathgen.smooth_ms_per_call": ("pathgen.smooth_ms_per_call", 50, "ms"),
    "winding.count_ms_per_path": ("winding.count_ms_per_path", 50, "ms"),
    "gauss.conditional_cov_us": ("gauss.conditional_cov_us", 50, "us"),
}
LAYER_UNITS = {**PER_LAYER, **SUMMED, **{k: v[2] for k, v in DISTS.items()},
               "tracing.overhead_frac": "ratio"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
RUN_LIMIT_S = 170  # a run, set-up included, must end within 180 s


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny runs every workload at toy size (self-test only)")
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    caps = str(os.cpu_count() or 1)
    env.update({v: caps for v in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def machine_record(env):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import scipy
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "thread_caps": {v: env[v] for v in THREAD_VARS},
            "git_commit": git_commit()}


def git_commit():
    """HEAD of the checkout, read from .git without running git; "unknown"
    for a checkout that is not a repository (or keeps its refs packed)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def run_child(spec, spec_path, log_path, env, deadline):
    """Launch one repetition and wait for it, killing it at ``deadline``
    (monotonic seconds); returns its result, or None if it did not finish."""
    spec["t_launch_ns"] = now_ns()
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    with open(log_path, "w") as log:
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        return None
    with open(spec["result"]) as fh:
        return json.load(fh)


# a report that is missing or lacks a value the checks read
REPORT_ERRORS = (OSError, KeyError, TypeError, ValueError)


def completed(res):
    """Whether every CLI call of a repetition ended with a verdict (exit 0
    or 1); exit 2, a traceback or a dead process fail all of its work."""
    return res is not None and all(c["exit"] in (0, 1) and not c["traceback"]
                                   for c in res["calls"])


def rep_seed(seed, k):
    return random.Random(f"windlab-bench:{seed}:{k}").randrange(1, 2 ** 31)


def run_rep(w, k, seed, traced, outdir, scale, env, deadline):
    repdir = os.path.join(outdir, f"rep{k:03d}")
    os.makedirs(repdir)
    calls = w.calls(seed, repdir, scale)
    spec = {"root": ROOT, "calls": calls, "trace": traced, "run_id": f"{w.name}-{seed}",
            "result": os.path.join(repdir, "child.json"),
            "spans": os.path.join(repdir, "spans.json")}
    t0 = time.monotonic()
    res = run_child(spec, os.path.join(repdir, "spec.json"),
                    os.path.join(repdir, "child.log"), env, deadline)
    rep = {"k": k, "seed": seed, "traced": traced, "elapsed_s": time.monotonic() - t0}
    evaluated = None
    if completed(res):
        try:
            evaluated = w.evaluate(repdir, scale, res["outcome"])
        except REPORT_ERRORS as e:
            rep["error"] = repr(e)
    if evaluated is None:
        n = w.nominal_ops(scale)
        rep.update(attempted=n, failed=n, checks=[("repetition ran", False, repdir)])
        return rep
    attempted, failed, accepted, checks = evaluated
    wall = (res["t_done_ns"] - spec["t_launch_ns"]) / 1e9
    setup = (res["t_import_end_ns"] - spec["t_launch_ns"] + res["setup_in_run_ns"]) / 1e9
    rep.update(attempted=attempted, failed=failed, checks=checks, outcome=res["outcome"],
               wall_s=wall, setup_s=setup, ops_per_s=accepted / (wall - setup),
               peak_rss_mb=res["maxrss_kb"] / 1024.0, cpu_s=res["cpu_s"])
    if traced:
        rep["layers"] = res["layers"]
    return rep


def per_layer(reps):
    traced = [r for r in reps if r["traced"] and "layers" in r]
    plain = [r for r in reps if not r["traced"] and "wall_s" in r]
    if not traced or not plain:
        return None
    vals = [r["layers"]["values"] for r in traced]
    out = {}
    for name, unit in PER_LAYER.items():
        m = statistics.median(v[name] for v in vals)
        # exact counts repeat from run to run; print them as integers
        out[name] = (int(m) if unit == "count" and float(m).is_integer() else m, unit)
    out.update({name: (sum(v[name] for v in vals), unit) for name, unit in SUMMED.items()})
    for name, (dist, q, unit) in DISTS.items():
        pooled = [x for r in traced for x in r["layers"]["dists"][dist]]
        out[name] = (float(np.percentile(pooled, q)) if pooled else 0.0, unit)
    out["tracing.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain) - 1.0, "ratio")
    return out


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "windlab", "cli.py")):
        print(f"error: no windlab sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a windlab checkout", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    env = child_env()
    deadline = time.monotonic() + RUN_LIMIT_S
    # keep only the latest run of each workload, so repeated runs cannot fill the disk
    base = os.path.join(HERE, "out")
    for old in os.listdir(base) if os.path.isdir(base) else ():
        if old.startswith(f"{w.name}-"):
            shutil.rmtree(os.path.join(base, old))
    outdir = os.path.join(base, f"{w.name}-seed{args.seed}-trace{args.trace}"
                          + ("" if args.scale == "full" else f"-{args.scale}"))
    os.makedirs(outdir)

    # compile windlab's bytecode once, untimed: an installed copy pays it once
    compileall.compile_dir(os.path.join(ROOT, "src", "windlab"), quiet=1)

    reps = []
    t_start = time.monotonic()
    min_reps = 2 if args.trace else 1
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        rep = run_rep(w, k, rep_seed(args.seed, k), traced,
                      outdir, args.scale, env, deadline)
        reps.append(rep)
        print(f"rep {k} seed {rep['seed']} traced={int(traced)} "
              + " ".join(f"{m}={rep[m]:.4g}" for m in END_TO_END if m in rep)
              + f" failed={rep['failed']}/{rep['attempted']}", file=sys.stderr)
        k += 1
        elapsed = time.monotonic() - t_start
        if k >= min_reps and elapsed + rep["elapsed_s"] > args.seconds:
            break

    extra_checks = []
    if w.name == "mc_iid_T200":
        slicedir = os.path.join(outdir, "worker_slice")
        os.makedirs(slicedir)
        seed = rep_seed(args.seed, -1)
        spec = {"root": ROOT, "calls": worker_slice_calls(seed, slicedir, args.scale),
                "trace": False, "run_id": f"{w.name}-{args.seed}-slice",
                "result": os.path.join(slicedir, "child.json")}
        res = run_child(spec, os.path.join(slicedir, "spec.json"),
                        os.path.join(slicedir, "child.log"), env, deadline)
        check = ("worker slice ran", False, slicedir)
        if completed(res):
            try:
                check = worker_slice_check(slicedir)
            except REPORT_ERRORS:
                pass
        extra_checks.append(check)

    attempted = sum(r["attempted"] for r in reps) + len(extra_checks)
    failed = sum(r["failed"] for r in reps) + sum(ok is False for _, ok, _ in extra_checks)
    checks = [c for r in reps for c in r["checks"]] + extra_checks
    correct = all(ok is not False for _, ok, _ in checks)
    plain = [r for r in reps if not r["traced"] and "wall_s" in r]
    if args.trace:
        metrics = per_layer(reps)
    else:
        metrics = {m: (statistics.median(r[m] for r in plain), u)
                   for m, u in END_TO_END.items()} if plain else None
    if metrics is None:  # no repetition completed
        correct = False
        metrics = {m: (None, u) for m, u in (LAYER_UNITS if args.trace else END_TO_END).items()}

    for r in reps:  # pooled above; too long to keep per repetition
        r.get("layers", {}).pop("dists", None)
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale,
              "rep_seeds": [r["seed"] for r in reps],
              "machine": machine_record(env), "load": "closed loop, 1 client, workers=1",
              "correct": correct, "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted,
              "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
              "failed_checks": [c for c in checks if c[1] is False],
              "notes": [c for c in checks if c[1] is None],
              "reps": reps}
    with open(os.path.join(outdir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    for m, (v, u) in metrics.items():
        print(f"{w.name} {m} = {v} {u}")
    print(f"{w.name} failed_frac = {failed}/{attempted} = {failed / attempted:.3g}")
    for name, ok, detail in checks:
        if ok is None:
            print(f"{w.name} note: {name}: {detail}")
        elif not ok:
            print(f"{w.name} FAILED CHECK {name}: {detail}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {m: {"value": v, "unit": u}
                                  for m, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
