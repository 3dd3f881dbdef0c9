"""Smoke self-test of the benchmark.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Runs every workload at toy size (``--scale tiny``), untraced and traced,
and checks that the last line of output is a result with every metric that
BENCHMARK.json names, each with its unit, that the outputs were judged
correct and that no operation failed.  Then checks that the benchmark
refuses to run, without printing a result, where the windlab sources are
missing.  Exits 0 when all of that holds.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    for wl in bench["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, "--workload", wl["name"], "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), "--scale", "tiny")
            tag = f"{wl['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            before = len(problems)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{tag}: correct={res['correct']} "
                                f"failed={res['failed']}/{res['attempted']}")
            want = {m["name"]: m["unit"] for m in bench[group]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if got != want:
                units = {k: (got[k], want[k]) for k in want if k in got and got[k] != want[k]}
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, units {units}")
            if any(not isinstance(v.get("value"), (int, float)) for v in res["metrics"].values()):
                problems.append(f"{tag}: a metric value is not a number")
            if len(problems) == before:
                print(f"ok  {tag}: {len(got)} metrics, {res['attempted']} operations", flush=True)

    # a directory holding only BENCHMARK.json and perfbench/ must be refused
    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    proc = run(bare, "--workload", bench["workloads"][0]["name"], "--seed", "1",
               "--seconds", "1", "--trace", "0")
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"ok  bare directory refused with exit {proc.returncode}")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
