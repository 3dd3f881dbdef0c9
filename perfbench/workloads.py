"""The four workloads: the configs each repetition runs, and how its
reports are checked and its operations counted.

Each workload makes its inputs from a seed only.  ``calls`` returns the
``windlab`` command lines of one repetition (config files written under
``repdir``); ``evaluate`` reads the reports back and returns the operations
attempted, the operations failed, the accepted paths (or theory
evaluations) that the throughput metric counts, and a list of named checks
(name, passed, detail); ``passed`` is None for a note that is not a check.
The reasons for each workload are in README.md.
"""
from __future__ import annotations

import json
import math
import os

BF = {"family": "bargmann_fock"}
IID_BF = {"x": BF, "cross": "iid"}
OU_X_BF = {"x1": {"family": "ou"}, "x2": BF, "cross": "independent"}
REGRESSION = {"x2": BF, "cross": {"type": "regression", "rho1": 0.3, "rz": BF}}
TWO_ALPHA = {"x1": {"family": "alpha", "alpha": 1.2},
             "x2": {"family": "alpha", "alpha": 1.2}, "cross": "independent"}

# pinned theory values (acceptance criteria c02, c03, c01)
V_INF_IID_BF, V_INF_TOL = 0.058643621347644, 1e-9
I_OU_X_BF, I_TOL = 1.295287794277272, 1e-6
RATE_REGRESSION = 0.3 / (2.0 * math.pi)

# Monte Carlo gates at Z standard errors: a correct program trips one with
# probability about 2e-9 per row, so no run of the benchmark should ever do
# so, while a wrong count or sampler misses by far more.
Z = 6.0
Z99 = 2.5758293035489  # the reports' bootstrap CIs are 99% intervals

# `windlab check` compares the quadrant closed form with its diagram series
# cut at order 80, on random correlations with |rho34| <= 0.9, and passes
# itself at 1e-10.  The omitted terms of that series can reach 7.5e-9 there
# (sum over j > 80 of the term bounds with |rho| <= 1), and seeds exist
# whose worst set differs by 1.2e-10 while the series at order 400 agrees
# to 1e-16.  The benchmark holds the difference to the remainder bound and
# reports the program's own verdict beside it.
SERIES_REMAINDER = 7.6e-9


def _write(repdir, name, cfg):
    path = os.path.join(repdir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
    return path


def _argv(command, cfg_path, seed, out, workers=None):
    argv = [command, "--config", cfg_path, "--seed", str(seed), "--out", out]
    return argv + (["--workers", str(workers)] if workers else [])


def _report(out, command):
    with open(os.path.join(out, f"{command}.json")) as fh:
        return json.load(fh)


def _mc_config(model, T, reps, seed, **extra):
    return {"model": model, "backend": "circulant", "t_ladder": [T], "dt": 0.01,
            "replications": reps, "seed": seed, "workers": 1, **extra}


class MonteCarlo:
    """One MC command on one config; paths are the operations."""

    def __init__(self, name, command, model, T, reps, tiny_T, tiny_reps, **extra):
        self.name, self.command, self.model = name, command, model
        self.sizes = {"full": (T, reps), "tiny": (tiny_T, tiny_reps)}
        self.extra = extra

    def calls(self, seed, repdir, scale):
        T, reps = self.sizes[scale]
        cfg = _write(repdir, self.name,
                     _mc_config(self.model, T, reps, seed, **self.extra))
        return [_argv(self.command, cfg, seed, os.path.join(repdir, "out"))]

    def evaluate(self, repdir, scale, outcome):
        reps = self.sizes[scale][1]
        report = _report(os.path.join(repdir, "out"), self.command)
        checks = self.checks(report)
        rejected, disagreed = outcome.get("rejected", 0), outcome.get("disagreed", 0)
        checks.append(("all paths counted", outcome.get("paths", 0) == reps,
                       f"{outcome.get('paths', 0)} of {reps}"))
        # a rejected path is a refusal; a disagreeing one is a wrong count
        checks.append(("crossing counts agree with argument increments",
                       disagreed == 0, f"{disagreed} paths disagree"))
        failed = rejected + disagreed + sum(ok is False for _, ok, _ in checks)
        accepted = reps - rejected
        return reps + len(checks), failed, accepted, checks

    def nominal_ops(self, scale):
        return self.sizes[scale][1]


class VarianceIID(MonteCarlo):
    def checks(self, report):
        body = report["result"]
        out = [("pinned V_inf(iid BF)", abs(body["v_inf"] - V_INF_IID_BF) <= V_INF_TOL,
                f"{body['v_inf']!r}")]
        for row in body["rows"]:
            se = (row["ci99_hi"] - row["ci99_lo"]) / (2.0 * Z99)
            lim = 0.05 * abs(row["reference"]) + Z * se
            err = abs(row["var_rate"] - row["reference"])
            out.append((f"variance gate T={row['T']:g}", err <= lim,
                        f"|{row['var_rate']:.5f} - {row['reference']:.5f}| vs {lim:.5f}"))
        return out


class ExpectationRegression(MonteCarlo):
    def checks(self, report):
        body = report["result"]
        rate = body["expectation_rate"]
        out = [("pinned regression rate", abs(rate - RATE_REGRESSION) <= 1e-15,
                f"{rate!r}")]
        for row in body["rows"]:
            lim = Z * row["mc_se"]
            err = abs(row["mc_mean"] - row["theory_mean"])
            out.append((f"mean gate T={row['T']:g}", err <= lim,
                        f"|{row['mc_mean']:.4f} - {row['theory_mean']:.4f}| vs {lim:.4f}"))
        return out


class Smoothing(MonteCarlo):
    def checks(self, report):
        out = []
        for row in report["result"]["rows"]:
            lim = row["bound"] + Z * row["var_rate_se"]
            out.append((f"bound gate eps={row['epsilon']:g}", row["var_rate"] <= lim,
                        f"{row['var_rate']:.5f} vs {lim:.5f}"))
        return out


class TheoryOracle:
    """``windlab moments`` on three models over a horizon ladder, then
    ``windlab check``.  Operations are moment evaluations and oracle cases."""

    name = "theory_oracle"
    MODELS = {"iid_bf": IID_BF, "ou_x_bf": OU_X_BF, "regression": REGRESSION}
    # moment sections each model must produce (the regression model is not
    # independent, so its "independent" section is unavailable by design)
    SECTIONS = {"iid_bf": ("independent", "general", "chaos"),
                "ou_x_bf": ("independent", "general", "chaos"),
                "regression": ("general", "chaos")}
    sizes = {"full": {"T": (25.0, 50.0, 100.0, 200.0), "lemma_mc_samples": 1_000_000,
                      "lemma_spot_cases": 20, "lemma_random_sets": 500},
             "tiny": {"T": (25.0,), "lemma_mc_samples": 20_000,
                      "lemma_spot_cases": 2, "lemma_random_sets": 10}}

    def _runs(self, scale):
        return [(m, T) for m in self.MODELS for T in self.sizes[scale]["T"]]

    def calls(self, seed, repdir, scale):
        size = self.sizes[scale]
        argvs = []
        for m, T in self._runs(scale):
            cfg = _write(repdir, f"{m}_T{T:g}", {"model": self.MODELS[m],
                                                  "t_ladder": [T], "seed": seed})
            argvs.append(_argv("moments", cfg, seed,
                               os.path.join(repdir, f"out_{m}_T{T:g}")))
        cfg = _write(repdir, "check", {
            "model": IID_BF, "seed": seed,
            **{k: v for k, v in size.items() if k != "T"}})
        argvs.append(_argv("check", cfg, seed, os.path.join(repdir, "out_check")))
        return argvs

    def _moment_checks(self, m, T, body):
        """One entry per moment evaluation: each section the model must
        produce, its expectation rate, and its pinned constant."""
        tag = f"{m} T={T:g}"
        rate = body["expectation_rate"]
        want = RATE_REGRESSION if m == "regression" else 0.0
        out = [(f"{tag} expectation rate", abs(rate - want) <= 1e-15, repr(rate))]
        out += [(f"{tag} {sec} evaluated", "unavailable" not in body[sec], "")
                for sec in self.SECTIONS[m]]
        indep = body["independent"]
        if m == "iid_bf":
            v = indep.get("V_inf")
            out.append((f"{tag} pinned V_inf", v is not None
                        and abs(v - V_INF_IID_BF) <= V_INF_TOL, repr(v)))
        if m == "ou_x_bf":
            i = indep.get("extras", {}).get("i_integral")
            out.append((f"{tag} pinned I", i is not None
                        and abs(i - I_OU_X_BF) <= I_TOL, repr(i)))
        return out

    def evaluate(self, repdir, scale, outcome):
        size = self.sizes[scale]
        checks = []
        for m, T in self._runs(scale):
            body = _report(os.path.join(repdir, f"out_{m}_T{T:g}"), "moments")["result"]
            checks += self._moment_checks(m, T, body)
        attempted = len(checks)
        failed = sum(ok is False for _, ok, _ in checks)

        chk = _report(os.path.join(repdir, "out_check"), "check")["result"]["checks"]
        series, mc, schur = (chk["closed_vs_series"], chk["closed_vs_mc"],
                             chk["conditional_cov_vs_schur"])
        # the report gives one verdict per deterministic suite, so a failed
        # suite fails all of its cases; MC cases are held to Z each
        sets, lags = series["sets"], schur["lags_per_model"] * 3
        series_ok = series["max_abs_diff"] <= SERIES_REMAINDER
        bad_cases = sum(r["z"] > Z for r in mc["rows"])
        ran = (sets == size["lemma_random_sets"] and mc["samples"] == size["lemma_mc_samples"]
               and len(mc["rows"]) == size["lemma_spot_cases"])
        attempted += sets + lags + len(mc["rows"]) + 1
        failed += ((not series_ok) * sets + (not schur["pass"]) * lags
                   + bad_cases + (not ran))
        checks += [("closed form vs series within its remainder", series_ok,
                    f"{series['max_abs_diff']:.2e}"),
                   ("windlab check's own series gate (1e-10)", None,
                    f"{'passed' if series['pass'] else 'FAILED'}: "
                    f"{series['max_abs_diff']:.2e}"),
                   ("conditional cov vs Schur", schur["pass"], f"{schur['max_abs_diff']:.2e}"),
                   (f"closed form vs MC within {Z:g} SE", bad_cases == 0,
                    f"worst z {mc['worst_z']:.2f} over {len(mc['rows'])} cases"),
                   ("oracle suite ran at the configured size", ran, "")]
        return attempted, failed, attempted, checks

    def nominal_ops(self, scale):
        size = self.sizes[scale]
        per_model = {"iid_bf": 5, "ou_x_bf": 5, "regression": 3}
        return (sum(per_model[m] for m, _ in self._runs(scale))
                + size["lemma_random_sets"] + 150 + size["lemma_spot_cases"] + 1)


WORKLOADS = {w.name: w for w in (
    VarianceIID("mc_iid_T200", "variance", IID_BF, 200.0, 200, 20.0, 6),
    ExpectationRegression("mc_block_T100", "simulate", REGRESSION, 100.0, 400, 10.0, 6),
    Smoothing("smooth_alpha_T50", "smooth", TWO_ALPHA, 50.0, 200, 5.0, 6,
              epsilon_ladder=[0.4, 0.2, 0.1, 0.05]),
    TheoryOracle(),
)}


def worker_slice_calls(seed, repdir, scale):
    """``windlab clt`` on a slice of mc_iid_T200 (same T and dt, one path
    more than a harness chunk, so ``workers = 2`` runs two chunks at once)
    with one and two workers.  The clt report lists every standardized
    count, so equal reports mean equal winding counts."""
    T = 200.0 if scale == "full" else 20.0
    cfg = _write(repdir, "slice", _mc_config(IID_BF, T, 201, seed))
    return [_argv("clt", cfg, seed, os.path.join(repdir, f"w{w}"), workers=w)
            for w in (1, 2)]


def worker_slice_check(repdir):
    one, two = (_report(os.path.join(repdir, f"w{w}"), "clt")["result"] for w in (1, 2))
    same = one == two
    n = len(one["per_t"][0]["standardized_sample"])
    return ("winding counts equal with workers 1 and 2", same, f"{n} paths")
