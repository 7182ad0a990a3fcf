"""gammkit benchmark: one workload, one fresh process, one closed-loop client.

    python3 bench/run.py --workload fs-search --seed 3 --seconds 32 --trace 0

Each command is ``gammkit.cli.main([...])`` called in process, so interpreter
start and imports fall into set-up and not into the command timings. The
next command starts when the previous one returns. Inputs come from
``gammkit simulate``; --seed picks their simulate seeds (see data_seeds).

--trace 0 prints the end-to-end metrics; --trace 1 runs each input once
untraced and twice traced and prints the per-layer metrics, the tracing
overhead and the exact-repeat check. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. NOTES.md explains
the choices.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer

# Set before numpy first loads (in _import_gammkit): BLAS gets one thread,
# for one client on 2 shared cores.
THREAD_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
os.environ.update(THREAD_PIN)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DATASETS_PER_SEED = 16
STARTS = 3                  # fresh interpreters timed for setup_s
REML_RTOL = 1e-6
SELF_SUM_RTOL = 0.01        # share of a command's time the spans may miss
TRACED_GROUP = 3            # traced runs: per input, 1 untraced + 2 traced

SCENARIO = """\
n_subjects: {subjects}
n_trials: {trials}
trend: undulating amplitude=1.0
fixed: factor2(cond) effect=0.8
rho: 0.3
sigma: 1.0
subject_intercept_sd: 0.5
"""
SPEC_HEAD = "response: y\nseries: subject order: trial\n"
FIT_FILES = ("summary.txt", "coefficients.csv", "residuals.csv", "fit.json",
             "partial_cr_trial.csv")
N_PERM = 1


@dataclass(frozen=True)
class Workload:
    subjects: int
    trials: int
    spec: str               # model lines after SPEC_HEAD
    command: tuple          # CLI command and its own options
    files: tuple            # output files every successful command writes
    datasets: int           # distinct simulated datasets per run
    skips: tuple            # traced spans this command never calls


WORKLOADS = {
    # The lambda search dominates: ~1400 REML evaluations of p = 111.
    "fs-search": Workload(
        20, 100,
        "parametric: cond\nsmooth: cr(trial) k=10\n"
        "smooth: fs(trial, subject) k=5\nrho: 0.3\n",
        ("fit",), FIT_FILES + ("partial_fs_trial_subject.csv",), 12,
        ("diagnostics.permutation_fs_test",)),
    # Rows x columns dominate: QR and X'X of 40 000 x 411.
    "large-n": Workload(
        400, 100,
        "parametric: cond\nsmooth: cr(trial) k=10\n"
        "random: intercept(subject)\nrho: 0.3\n",
        ("fit",), FIT_FILES + ("partial_re_subject.csv",), 4,
        ("diagnostics.permutation_fs_test",)),
    # Many small pilot fits (p = 21): per-call overhead and evaluation count.
    "permtest": Workload(
        4, 150, "", ("permtest", "--n-perm", str(N_PERM)),
        ("permtest_pvalues.csv", "permtest_counts.txt"), 16,
        # the pilot model has no AR(1) term and permtest writes no curves
        ("fitting.ar1_whiten", "fitting.partial_effect")),
}

# Every end-to-end metric is printed; the JSON line carries those that
# BENCHMARK.json bounds. fail_ratio is 0 when healthy, and fits_per_s swings
# with the seed on permtest (NOTES.md), so neither can carry a relative bound.
UNITS = {"op_s_p50": "s", "op_s_tail": "s", "fits_per_s": "1/s",
         "fail_ratio": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}
END_TO_END = ("op_s_p50", "op_s_tail", "peak_rss_mb", "setup_s")

# Per-layer time metric -> the span whose self time it sums per command.
LAYER_SELF = {
    "data.load_csv_s": "data.load_csv",
    "fitting.assemble_s": "fitting.assemble",
    "fitting.ar1_whiten_s": "fitting.ar1_whiten",
    "fitting.ensure_products_s": "fitting.ensure_products",
    "fitting.pls_solve_s": "fitting.pls_solve",
    "fitting.optimize_lambdas_self_s": "fitting.optimize_lambdas",
    "fitting.fit_self_s": "fitting.fit",
    "fitting.partial_effect_s": "fitting.partial_effect",
    "inference.wald_term_test_s": "inference.wald_term_test",
    "diagnostics.permutation_fs_test_self_s":
        "diagnostics.permutation_fs_test",
    "cli.self_s": "cli",
}
PER_LAYER_UNITS = dict(
    {name: "s" for name in LAYER_SELF},
    **{"fitting.reml_score_calls": "count",
       "fitting.reml_score_ms": "ms",
       "fitting.reml_score_fail_ratio": "ratio",
       "fitting.optimize_lambdas_converged_ratio": "ratio",
       "simulate.gen_experiment_s": "s",
       "fitting.design_mb_computed": "MB",
       "fitting.qr_gflop_computed": "GFLOP",
       "trace.op_s_p50": "s",
       "trace.overhead_s": "s"})


# Every module a command imports lazily, so the first timed command pays no
# import.
IMPORTS = ("gammkit.cli", "gammkit.diagnostics", "gammkit.inference",
           "gammkit.simulate", "scipy.stats")


def _import_gammkit():
    """Import the package from this checkout's src/, nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        for module in IMPORTS:
            importlib.import_module(module)
        from gammkit import cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import gammkit from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: gammkit imported from {cli.__file__}, "
                         f"not from {SRC}")
    return cli


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"thread_pin": {k: os.environ.get(k) for k in THREAD_PIN},
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "seed": seed}


def load_reference() -> dict:
    path = BENCH_DIR / "reference.json"
    return json.loads(path.read_text()) if path.exists() else {}


class Runner:
    """Simulates a workload's datasets and runs and checks its commands."""

    def __init__(self, cli, name: str, work: Path):
        self.cli = cli
        self.wl = WORKLOADS[name]
        self.work = work
        self.reference = load_reference().get(name, {})
        self.spec = work / "model.spec"
        self.spec.write_text(SPEC_HEAD + self.wl.spec)

    def call(self, argv) -> tuple[int | None, str, int]:
        """Run cli.main(argv): exit code (None if it raised), stderr and
        the number of warnings."""
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                rc = self.cli.main(argv)
            except (Exception, SystemExit) as exc:  # a failure, not an exit
                rc = None
                err.write(f"{type(exc).__name__}: {exc}")
        return rc, err.getvalue(), len(caught)

    def simulate(self, label: str, shape, data_seed: int) -> Path:
        d = self.work / label
        scen = d.with_suffix(".scn")
        scen.write_text(SCENARIO.format(subjects=shape[0], trials=shape[1]))
        rc, err, _ = self.call(["simulate", "--spec", str(scen),
                                "--out", str(d), "--seed", str(data_seed)])
        if rc != 0:
            raise SystemExit(f"bench: simulate failed for {label}: {err}")
        return d / "simulated.csv"

    def argv(self, data: Path, out: Path, perm_seed: int | None) -> list:
        extra = [] if perm_seed is None else ["--seed", str(perm_seed)]
        return [*self.wl.command, "--data", str(data), "--spec",
                str(self.spec), "--out", str(out), *extra]

    def check(self, rc, err, out: Path, data_seed: int) -> dict:
        """Judge one finished command from its exit code and its files."""
        rec = {"ok": False, "fits": 0, "reml": None}
        if rc != 0:
            rec["why"] = f"exit {rc}: {' '.join(err.split())[:200]}"
            return rec
        missing = [f for f in self.wl.files if not (out / f).is_file()]
        if missing:
            rec["why"] = f"missing {missing}"
            return rec
        try:
            return self._check_files(rec, out, data_seed)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            rec["why"] = f"unreadable output: {exc!r}"
            return rec

    def _check_files(self, rec: dict, out: Path, data_seed: int) -> dict:
        if self.wl.command[0] == "permtest":
            with open(out / "permtest_pvalues.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            empty = sum(1 for r in rows if len(r) < 2 or not r[1])
            rec["fits"] = len(rows) - empty
            if len(rows) != N_PERM or empty:
                rec["why"] = f"{empty} empty of {len(rows)} p-values"
                return rec
        else:
            record = json.loads((out / "fit.json").read_text())
            rec["reml"] = reml = record["reml"]
            if not record["converged"]:
                rec["why"] = "converged: false"
                return rec
            if reml is None or not math.isfinite(reml):
                rec["why"] = f"REML score {reml}"
                return rec
            ref = self.reference.get(str(data_seed))
            if ref is None:
                rec["why"] = f"no REML reference for dataset seed {data_seed}"
                return rec
            if reml > ref + REML_RTOL * abs(ref):
                rec["why"] = f"REML {reml!r} worse than reference {ref!r}"
                return rec
            rec["fits"] = 1
        rec["ok"] = True
        return rec


def data_seeds(name: str, wl: Workload, seed: int, reference: dict) -> list:
    """Simulate seeds of a run's datasets, a function of --seed alone.

    A fit workload draws them from the dataset seeds that reference.json
    holds a REML score for, so every fit is checked against the reference
    whatever the seed. permtest has no reference: 16*seed + i.
    """
    if wl.command[0] != "fit":
        return [DATASETS_PER_SEED * seed + i for i in range(wl.datasets)]
    pool = sorted(int(k) for k in reference)
    if len(pool) < wl.datasets:
        raise SystemExit(f"bench: reference.json holds {len(pool)} {name} "
                         f"datasets, a run needs {wl.datasets}")
    return random.Random(seed).sample(pool, wl.datasets)


def tail(samples) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and its label.

    Nearest rank: with n samples that is the (n-10)th smallest, the
    100(n-10)/n percentile. Below 40 samples that percentile falls under
    p75, which stands in instead.
    """
    s = sorted(samples)
    n = len(s)
    q = max(0.75, (n - 10) / n)
    rank = math.ceil(q * n - 1e-9)
    note = " (fewer than 40 samples: p75)" if n < 40 else ""
    return s[rank - 1], f"p{100 * q:.1f} of {n}, {n - rank} beyond{note}"


def start_s() -> float:
    """Wall time of a fresh interpreter that starts and imports IMPORTS."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, "
                    f"{str(SRC)!r}); import {', '.join(IMPORTS)}"],
                   check=True, timeout=120)
    return time.perf_counter() - t0


def run(args) -> int:
    cli = _import_gammkit()
    import_s = statistics.median(start_s() for _ in range(STARTS))
    name, wl = args.workload, WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        return _run(cli, args, name, wl, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(cli, args, name, wl, work, import_s) -> int:
    tracer = Tracer() if args.trace else None
    runner = Runner(cli, name, work)
    env = environment(args.seed)
    print(f"bench: workload {name}, seed {args.seed}, {args.seconds} s, "
          f"closed loop with 1 client, trace {'on' if args.trace else 'off'}")
    print("env: " + json.dumps(env, sort_keys=True))

    # Set-up: every dataset of the run, each simulation timed on its own.
    data, sim_s = [], []
    if tracer:
        tracer.install()
    seeds = data_seeds(name, wl, args.seed, runner.reference)
    for i, data_seed in enumerate(seeds):
        t0 = time.perf_counter()
        if tracer:
            path = tracer.command(f"setup{i}", runner.simulate, f"data{i}",
                                  (wl.subjects, wl.trials), data_seed)
        else:
            path = runner.simulate(f"data{i}", (wl.subjects, wl.trials),
                                   data_seed)
        sim_s.append(time.perf_counter() - t0)
        data.append((path, data_seed))
    if tracer:
        tracer.uninstall()
    setup_s = import_s + statistics.median(sim_s)

    ops = []
    group = TRACED_GROUP if tracer else 1
    loop_start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - loop_start
        # Stop where the next command would end nearer the deadline than
        # the end of the last one; traced runs end on whole groups, >= 2.
        if ops and elapsed + 0.5 * statistics.median(
                r["op_s"] for r in ops) > args.seconds \
                and i % group == 0 and (tracer is None or i >= 2 * group):
            break
        # a traced run gives each input a group of commands, one untraced
        # and the rest traced; the untraced one moves through the positions
        k = i // group
        traced = tracer is not None and i % group != k % group
        # input k: dataset k mod datasets; a permtest also permutes with
        # seed k, so its commands never repeat the same fits
        ds = k % wl.datasets
        path, data_seed = data[ds]
        perm_seed = k if wl.command[0] == "permtest" else None
        out = work / f"out{i}"
        argv = runner.argv(path, out, perm_seed)
        if traced:
            tracer.install()
            t0 = time.perf_counter()
            rc, err, n_warn = tracer.command(i, runner.call, argv)
            op_s = time.perf_counter() - t0
            tracer.uninstall()
        else:
            t0 = time.perf_counter()
            rc, err, n_warn = runner.call(argv)
            op_s = time.perf_counter() - t0
        rec = runner.check(rc, err, out, data_seed)
        rec.update(op=i, input=k, dataset=ds, data_seed=data_seed,
                   perm_seed=perm_seed, op_s=op_s, traced=traced,
                   warnings=n_warn)
        ops.append(rec)
        shutil.rmtree(out, ignore_errors=True)
        print(f"op {i}: dataset {ds} {'traced ' if traced else ''}"
              f"{op_s:.3f} s {'ok' if rec['ok'] else 'FAILED ' + rec['why']}"
              f" fits {rec['fits']} reml {rec['reml']} warnings {n_warn}")
        i += 1
    wall_s = time.perf_counter() - loop_start

    untraced = [r for r in ops if not r["traced"]]
    attempted = len(ops)
    failed = sum(1 for r in ops if not r["ok"])
    correct = failed == 0
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "import_s": import_s, "sim_s": sim_s,
              "ops": ops}

    op_times = [r["op_s"] for r in untraced]
    p50 = statistics.median(op_times)
    if not args.trace:
        tail_s, tail_label = tail(op_times)
        fits = sum(r["fits"] for r in ops)
        e2e = {"op_s_p50": p50, "op_s_tail": tail_s,
               "fits_per_s": fits / wall_s,
               "fail_ratio": failed / attempted,
               "peak_rss_mb":
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               "setup_s": setup_s}
        notes = {"op_s_p50": f"median of {len(op_times)} commands",
                 "op_s_tail": tail_label,
                 "fits_per_s": f"{fits} fits in {wall_s:.1f} s of loop",
                 "fail_ratio": f"{failed} of {attempted}",
                 "peak_rss_mb": "ru_maxrss of this process",
                 "setup_s": f"interpreter start and imports {import_s:.2f}"
                            f" (median of {STARTS}) + median of "
                            f"{len(sim_s)} simulate commands"}
        for key, val in e2e.items():
            print(f"metric {key} = {val:.6g} {UNITS[key]}  ({notes[key]})")
        record.update(metrics=e2e, notes=notes)
        metrics = {k: e2e[k] for k in END_TO_END}
        units = UNITS
    else:
        summaries = tracer.summaries()
        layers, gap, cli_min = layer_metrics(summaries, ops, p50, len(sim_s))
        record.update(self_sum_max_gap=gap, cli_self_min_s=cli_min)
        print(f"self-time check: the self times of a traced command sum to "
              f"its time measured outside the tracer within {100 * gap:.3g} "
              f"% (limit {100 * SELF_SUM_RTOL:g} %); smallest cli.self_s "
              f"{cli_min:.6g} s")
        if gap > SELF_SUM_RTOL or cli_min < 0:
            print("bench: self times do not add up to the command time",
                  file=sys.stderr)
            correct = False
        problems = sorted(tracer.problems) + missing_spans(
            summaries, ops, wl, len(sim_s))
        for problem in problems:
            print(f"bench: TRACE PROBLEM: {problem}", file=sys.stderr)
            print(f"TRACE PROBLEM: {problem}")
        repeats_equal = check_repeats(record, ops)
        correct = correct and repeats_equal and not problems
        tracer.dump(OUT / f"{name}-seed{args.seed}.spans.jsonl")
        for key, val in layers.items():
            print(f"metric {key} = {val:.6g} {PER_LAYER_UNITS[key]}")
        record.update(metrics=layers)
        metrics = layers
        units = PER_LAYER_UNITS
    print("waits: none -- no gammkit layer queues work, so there are no "
          "wait-time metrics")
    (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def layer_metrics(summaries, ops, untraced_p50, n_setup):
    """Lower medians over traced commands of per-command values; the largest
    gap between a command's time measured outside the tracer and the sum of
    its self times, as a share of that time; the smallest cli self time."""
    per_cmd = []
    gap, cli_min = 0.0, math.inf
    for r in ops:
        if not r["traced"]:
            continue
        s = summaries[r["op"]]
        gap = max(gap, abs(r["op_s"] - sum(s["self_s"].values()))
                  / r["op_s"])
        cli_min = min(cli_min, s["self_s"]["cli"])
        calls = s["calls"].get("fitting.reml_score", 0)
        fails = s["errors"].get("fitting.reml_score", {}).get(
            "NumericError", 0)
        conv = [a["converged"]
                for a in s["attrs"].get("fitting.optimize_lambdas", [])]
        row = {m: s["self_s"].get(span, 0.0) for m, span in LAYER_SELF.items()}
        row.update({
            "fitting.reml_score_calls": calls,
            "fitting.reml_score_ms":
                1e3 * s["self_s"].get("fitting.reml_score", 0.0)
                / max(calls, 1),
            "fitting.reml_score_fail_ratio": fails / max(calls, 1),
            "fitting.optimize_lambdas_converged_ratio":
                sum(conv) / len(conv) if conv else 1.0,
            "fitting.design_mb_computed": max(
                (a["design_mb"]
                 for a in s["attrs"].get("fitting.assemble", [])),
                default=0.0),
            "fitting.qr_gflop_computed": sum(
                a["qr_gflop"]
                for a in s["attrs"].get("fitting.pls_solve", [])),
        })
        r["repeat"] = {"reml_score_calls": calls,
                       "design_mb_computed":
                           row["fitting.design_mb_computed"],
                       "fit_remls": [a["reml"] for a in
                                     s["attrs"].get("fitting.fit", [])]}
        per_cmd.append(row)
    # lower median: a count stays a count that some command produced
    out = {m: statistics.median_low(row[m] for row in per_cmd)
           for m in per_cmd[0]}
    out["simulate.gen_experiment_s"] = statistics.median_low(
        summaries[f"setup{i}"]["self_s"].get("simulate.gen_experiment", 0.0)
        for i in range(n_setup))
    traced_p50 = statistics.median(r["op_s"] for r in ops if r["traced"])
    out["trace.op_s_p50"] = traced_p50
    out["trace.overhead_s"] = traced_p50 - untraced_p50
    return out, gap, cli_min


def missing_spans(summaries, ops, wl, n_setup) -> list:
    """Per-layer spans a traced command never opened: their metrics would
    read 0 without notice."""
    wanted = set(LAYER_SELF.values()) | {"fitting.reml_score"}
    wanted -= set(wl.skips)
    out = [f"set-up {i} opened no span simulate.gen_experiment"
           for i in range(n_setup)
           if "simulate.gen_experiment" not in summaries[f"setup{i}"]["calls"]]
    for r in ops:
        if r["traced"]:
            gone = sorted(wanted - set(summaries[r["op"]]["calls"]))
            if gone:
                out.append(f"command {r['op']} opened no span {gone}")
    return out


def check_repeats(record, ops) -> bool:
    """Deterministic counts must repeat exactly for the same input.

    Each input ran once untraced and twice traced. The two traced commands
    must agree on REML evaluations, design MB and the REML score of every
    fit, and all three on the REML score in fit.json.
    """
    by_input = defaultdict(list)
    for r in ops:
        by_input[r["input"]].append(r)
    repeats, mismatched = {}, []
    for k, rs in by_input.items():
        seen = [r["repeat"] for r in rs if r["traced"]]
        key = f"{rs[0]['data_seed']}/{rs[0]['perm_seed']}"
        if len(seen) < 2 or any(x != seen[0] for x in seen) \
                or any(r["reml"] != rs[0]["reml"] for r in rs):
            mismatched.append(key)
            print(f"bench: EXACT-REPEAT MISMATCH on input {key}: "
                  f"{seen} fit.json REML {[r['reml'] for r in rs]}",
                  file=sys.stderr)
            print(f"EXACT-REPEAT MISMATCH on input {key}")
        repeats[key] = seen[0] if seen else None
    ok = bool(repeats) and not mismatched
    record["repeat_check"] = {"inputs": len(repeats), "equal": ok,
                              "repeats": repeats}
    print(f"repeat check: {len(repeats)} inputs, each run once untraced and "
          f"twice traced: "
          f"{'all equal' if ok else 'MISMATCH' if repeats else 'not checked'}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
