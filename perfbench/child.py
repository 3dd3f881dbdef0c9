"""One repetition of a workload, in a fresh process.

Usage: python3 perfbench/child.py SPEC.json

SPEC names the checkout root, the ``windlab`` CLI calls to make (each one
an argv list for ``windlab.cli.main``), whether to trace, and where to
write the result.  The result holds monotonic timestamps, so the parent can
compute wall time from its own launch time, plus exit codes, tracebacks,
path outcomes, ``ru_maxrss`` and, when traced, the per-layer summary; the
spans themselves go to a separate file, written once at the end.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracer import Tracer, install_full, install_setup, now_ns  # noqa: E402


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    tr = Tracer(spec["run_id"], full=spec["trace"])
    sys.path.insert(0, os.path.join(spec["root"], "src"))

    i = tr.begin("cli.import")
    import windlab
    import windlab.cli
    tr.end(i)
    t_import_end = now_ns()
    src = os.path.realpath(os.path.join(spec["root"], "src"))
    if not os.path.realpath(windlab.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported windlab from {windlab.__file__}, not {src}")

    install_setup(tr, windlab)
    if tr.full:
        install_full(tr, windlab)
    main_fn = tr.span("cli.main", windlab.cli.main)

    calls = []
    for argv in spec["calls"]:
        out = io.StringIO()
        tb = None
        try:
            with contextlib.redirect_stdout(out):
                code = main_fn(argv)
        except SystemExit as e:       # argparse rejects the command line
            code = e.code if isinstance(e.code, int) else 2
        except Exception:             # a traceback fails all of the call's work
            code, tb = None, traceback.format_exc()
        calls.append({"argv": argv, "exit": code, "traceback": tb,
                      "stdout": out.getvalue()})
    t_done = now_ns()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "run_id": tr.run_id, "t_import_end_ns": t_import_end, "t_done_ns": t_done,
        "setup_in_run_ns": tr.setup_ns(),
        "maxrss_kb": usage.ru_maxrss, "cpu_s": usage.ru_utime + usage.ru_stime,
        "outcome": dict(tr.outcome), "calls": calls,
    }
    if tr.full:
        result["layers"] = tr.summary(wall_ns=t_done - spec["t_launch_ns"])
        tr.write_spans(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
