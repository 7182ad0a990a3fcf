"""Record the REML score of every fit-workload dataset for a range of seeds.

    python3 bench/make_reference.py --seeds 0-24

Seed s records the datasets of simulate seeds 16*s + i. Run it on the
commit whose scores are the reference: run.py draws a fit workload's
datasets from the recorded ones, and fails a fit whose REML score is worse
than the recorded one by more than 1e-6 relative. Existing entries are kept,
so the file can be extended seed by seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil

from run import (BENCH_DIR, DATASETS_PER_SEED, OUT, WORKLOADS, Runner,
                 _import_gammkit)

FIT_WORKLOADS = [name for name, wl in WORKLOADS.items()
                 if wl.command[0] == "fit"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    args = ap.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    cli = _import_gammkit()
    path = BENCH_DIR / "reference.json"
    ref = json.loads(path.read_text()) if path.exists() else {}
    work = OUT / "reference-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for name in FIT_WORKLOADS:
            runner = Runner(cli, name, work)
            table = ref.setdefault(name, {})
            for seed in seeds:
                for i in range(WORKLOADS[name].datasets):
                    data_seed = DATASETS_PER_SEED * seed + i
                    if str(data_seed) in table:
                        continue
                    data = runner.simulate("data", (WORKLOADS[name].subjects,
                                                    WORKLOADS[name].trials),
                                           data_seed)
                    out = work / "out"
                    rc, err, _ = runner.call(runner.argv(data, out, None))
                    if rc != 0:
                        raise SystemExit(f"{name} dataset seed {data_seed} "
                                         f"failed: {err}")
                    fit = json.loads((out / "fit.json").read_text())
                    table[str(data_seed)] = fit["reml"]
                    print(name, data_seed, fit["reml"], fit["converged"],
                          flush=True)
                    tmp = path.with_suffix(".tmp")
                    tmp.write_text(json.dumps(ref, indent=1, sort_keys=True)
                                   + "\n")
                    os.replace(tmp, path)   # readers never see half a file
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
