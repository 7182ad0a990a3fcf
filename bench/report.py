"""Run every workload in fresh processes and print one row per workload.

    python3 bench/report.py --seed 1 --label seed-commit

Per workload: one untraced run (end-to-end metrics), then two traced runs
with the same seed (per-layer metrics, tracing overhead, and the check that
the deterministic counts repeat exactly, within each run and between the two).
Runs last BENCHMARK.json's run_seconds. Writes .bench_out/BENCH_<label>.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import OUT, PER_LAYER_UNITS, ROOT, UNITS, WORKLOADS, environment

RUN = ROOT / "bench" / "run.py"
RUN_TIMEOUT_S = 600
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def one_run(name: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{name} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (OUT / f"{name}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "record": record}


def compare_runs(first: dict, second: dict) -> tuple[int, bool]:
    """Inputs both traced runs ran, and whether their exact-repeat counts
    agree on every one of them (and there was at least one)."""
    a, b = (run["record"]["repeat_check"]["repeats"]
            for run in (first, second))
    common = sorted(set(a) & set(b))
    for key in common:
        if a[key] != b[key]:
            print(f"EXACT-REPEAT MISMATCH between runs on input {key}: "
                  f"{a[key]} then {b[key]}")
    return len(common), bool(common) and all(a[k] == b[k] for k in common)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--label", default="local")
    args = ap.parse_args(argv)
    OUT.mkdir(exist_ok=True)

    rows = {}
    for name in WORKLOADS:
        print(f"running {name} ...", file=sys.stderr, flush=True)
        plain = one_run(name, args.seed, 0)
        traced = [one_run(name, args.seed, 1) for _ in range(2)]
        rows[name] = {"untraced": plain, "traced": traced,
                      "across": compare_runs(*traced)}

    print("env: " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"closed loop, 1 client, {SECONDS} s per run, seed "
          f"{args.seed}; no layer queues work, so no wait-time metrics\n")
    cols = list(UNITS)
    print("workload    " + "".join(f"{c + ' (' + UNITS[c] + ')':>22}"
                                    for c in cols) + "  correct")
    for name, r in rows.items():
        m = r["untraced"]["record"]["metrics"]
        print(f"{name:<12}" + "".join(f"{m[c]:>22.6g}" for c in cols)
              + f"  {r['untraced']['result']['correct']}")
    print("\nop_s_tail is " + "; ".join(
        f"{name}: {r['untraced']['record']['notes']['op_s_tail']}"
        for name, r in rows.items()))
    print("fail_ratio is " + "; ".join(
        f"{name}: {r['untraced']['record']['notes']['fail_ratio']}"
        for name, r in rows.items()))

    print("\nper-layer (second traced run; self times per command)")
    print(f"{'metric':<42}{'unit':>7}" + "".join(f"{n:>14}" for n in rows))
    for metric, unit in PER_LAYER_UNITS.items():
        vals = [r["traced"][1]["record"]["metrics"][metric]
                for r in rows.values()]
        print(f"{metric:<42}{unit:>7}" + "".join(f"{v:>14.6g}"
                                                 for v in vals))
    print("\nchecks")
    for name, r in rows.items():
        second = r["traced"][1]["record"]
        within = [t["record"]["repeat_check"] for t in r["traced"]]
        compared, equal = r["across"]
        print(f"{name}: exact-repeat counts within each traced run "
              f"{[w['inputs'] for w in within]} inputs, "
              f"{'equal' if all(w['equal'] for w in within) else 'MISMATCH'}"
              f"; between the two runs {compared} inputs, "
              f"{'equal' if equal else 'MISMATCH'}; self times sum to the "
              f"command time within {100 * second['self_sum_max_gap']:.2g} "
              f"%; smallest cli.self_s {second['cli_self_min_s']:.4g} s; "
              f"correct {[t['result']['correct'] for t in r['traced']]}")
    path = OUT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(
        {"label": args.label, "seed": args.seed, "seconds": SECONDS,
         "env": environment(args.seed),
         "workloads": {n: {"untraced": r["untraced"]["record"]["metrics"],
                           "traced": [t["record"]["metrics"]
                                      for t in r["traced"]],
                           "correct": [r["untraced"]["result"]["correct"]]
                           + [t["result"]["correct"] for t in r["traced"]]}
                       for n, r in rows.items()}},
        indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {path.relative_to(ROOT)}")
    ok = all(r["untraced"]["result"]["correct"]
             and all(t["result"]["correct"] for t in r["traced"])
             and r["across"][1] for r in rows.values())
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
