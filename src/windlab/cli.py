"""Command-line front end.

Subcommands map onto the experiment kinds:

  moments   theoretical quantities only (no simulation)
  variance  Monte Carlo variance vs theory
  simulate  Monte Carlo expectation vs theory, optional path export
  clt       central-limit experiment (KS against Normal(0, V_inf))
  check     Gaussian-algebra oracle suite
  smooth    smoothed winding of rough paths vs the two-alpha bound

Exit codes: 0 all statistical checks passed, 1 statistical failure,
2 configuration or model error.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .covmodel import check_conditions, classify
from .errors import ConfigError, WindlabError
from .harness import (ExperimentConfig, _report, report_to_json, run_clt,
                      run_expectation, run_lemma_check, run_smoothing,
                      run_variance, write_report)
from .moments import (chaos_projection_variances, expectation_rate,
                      variance_rate_general, variance_rate_independent)

EXIT_OK, EXIT_STAT_FAIL, EXIT_CONFIG = 0, 1, 2
# the commands whose report has a table (rows or per_t) for --format csv
TABLE_COMMANDS = ("variance", "simulate", "clt", "smooth")
# total Hermite order of the coefficient tables that moments writes
_CHAOS_ORDER = 8


def _common(sub):
    sub.add_argument("--config", required=True, help="experiment config JSON file")
    sub.add_argument("--seed", type=int, default=None, help="override config seed")
    sub.add_argument("--workers", type=int, default=None, help="override worker count")
    sub.add_argument("--out", default=None, help="output directory for reports")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser():
    p = argparse.ArgumentParser(prog="windlab",
                                description="winding numbers of planar "
                                            "stationary Gaussian processes")
    subs = p.add_subparsers(dest="command", required=True)
    for name, help_ in [
        ("moments", "evaluate theoretical moments for the configured model"),
        ("variance", "Monte Carlo variance experiment"),
        ("simulate", "Monte Carlo expectation experiment (exports paths)"),
        ("clt", "central-limit experiment"),
        ("check", "Gaussian-algebra oracle checks"),
        ("smooth", "smoothed winding of rough paths"),
    ]:
        _common(subs.add_parser(name, help=help_))
    return p


def _load_config(args, kind):
    """The config file with the command-line overrides applied through
    dataclasses.replace, so that they are validated like the file."""
    cfg = ExperimentConfig.from_file(args.config)
    overrides = {"seed": args.seed, "workers": args.workers, "out_dir": args.out}
    return replace(cfg, kind=kind,
                   **{k: v for k, v in overrides.items() if v is not None})


def _prepare_out_dir(out_dir) -> None:
    """Create the report directory before the experiment runs, so that an
    unusable path fails at once rather than after the run."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise ConfigError(
            f"output directory {out_dir}: {e.strerror or e}") from None
    if not os.access(out_dir, os.W_OK | os.X_OK):
        raise ConfigError(f"output directory {out_dir}: not writable")


def export_chaos_coefficients_csv(rho1: float, path) -> None:
    """Dump the Hermite coefficient tables (a_k and d_{k2,k3}) as CSV."""
    from .gauss import chaos_coefficients
    cc = chaos_coefficients(rho1, _CHAOS_ORDER)
    with open(path, "w") as fh:
        fh.write(f"# chaos coefficients, rho1={rho1:.17g}, order={_CHAOS_ORDER}\n")
        fh.write("kind,k1_or_k2,k3,value\n")
        for k, val in enumerate(cc.a):
            fh.write(f"a,{k},,{val:.17g}\n")
        for k2 in range(_CHAOS_ORDER + 1):
            for k3 in range(_CHAOS_ORDER + 1 - k2):
                fh.write(f"d,{k2},{k3},{cc.d[k2, k3]:.17g}\n")


def _moments_report(cfg: ExperimentConfig) -> dict:
    model = cfg.build_model()
    body = {"model_class": classify(model).value,
            "expectation_rate": expectation_rate(model),
            "conditions": check_conditions(model).to_dict()}
    try:
        body["independent"] = variance_rate_independent(model).to_dict()
    except WindlabError as e:
        body["independent"] = {"unavailable": str(e)}
    try:
        body["general"] = variance_rate_general(model, max(cfg.t_ladder)).to_dict()
    except WindlabError as e:
        body["general"] = {"unavailable": str(e)}
    try:
        body["chaos"] = chaos_projection_variances(model)
    except WindlabError as e:
        body["chaos"] = {"unavailable": str(e)}
    return _report("moments", cfg, body, True)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # command -> (config kind, runner); built per call so that the runners
    # are looked up when main runs
    commands = {"moments": ("expectation", _moments_report),
                "variance": ("variance", run_variance),
                "simulate": ("expectation", run_expectation),
                "clt": ("clt", run_clt),
                "check": ("lemma_check", run_lemma_check),
                "smooth": ("smoothing", run_smoothing)}
    kind, runner = commands[args.command]
    if args.format == "csv" and args.command not in TABLE_COMMANDS:
        print(f"error: --format csv needs a report with a table; "
              f"{args.command} has none (only {', '.join(TABLE_COMMANDS)} do)",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = _load_config(args, kind)
        if cfg.out_dir:
            _prepare_out_dir(cfg.out_dir)
        report = runner(cfg)
    except WindlabError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    if cfg.out_dir:
        path = write_report(report, cfg.out_dir, name=args.command,
                            fmt=args.format, workers=cfg.workers)
        print(f"report written to {path}")
        if args.command == "moments":
            rho1 = cfg.build_model().meta.get("rho1", 0.0)
            coeff_path = os.path.join(cfg.out_dir, "chaos_coefficients.csv")
            export_chaos_coefficients_csv(rho1, coeff_path)
            print(f"coefficient tables written to {coeff_path}")
    else:
        print(report_to_json(report))
    return EXIT_OK if report.get("pass", False) else EXIT_STAT_FAIL


if __name__ == "__main__":
    sys.exit(main())
