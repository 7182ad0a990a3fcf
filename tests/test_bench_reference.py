"""The benchmark's output check as a test: fits of some of the datasets that
bench/run.py fits must converge, write their files and score no worse than
the REML references in bench/reference.json, and its one-permutation
permtests must each write one non-empty, finite p-value.

SCENARIO, SPEC_HEAD, the two models and the permtest command are copied
from bench/run.py (its SCENARIO, SPEC_HEAD and the large-n, fs-search and
permtest workloads); keep them in step with it.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from gammkit.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
REML_RTOL = 1e-6

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
WORKLOADS = {
    "fs-search": (20, 100,
                  "parametric: cond\nsmooth: cr(trial) k=10\n"
                  "smooth: fs(trial, subject) k=5\nrho: 0.3\n",
                  "partial_fs_trial_subject.csv"),
    "large-n": (400, 100,
                "parametric: cond\nsmooth: cr(trial) k=10\n"
                "random: intercept(subject)\nrho: 0.3\n",
                "partial_re_subject.csv"),
}


@pytest.mark.parametrize("workload,seed", [
    ("large-n", 0), ("large-n", 17), ("fs-search", 5), ("fs-search", 120)])
def test_fit_meets_the_benchmark_reference(tmp_path, workload, seed):
    """Simulate seed 0 of large-n is the dataset whose search must probe
    the lambda bounds to leave a shallow basin."""
    reference = json.loads((BENCH / "reference.json").read_text())
    ref = reference[workload][str(seed)]
    subjects, trials, model, partial = WORKLOADS[workload]
    scen, spec = tmp_path / "s.scn", tmp_path / "m.spec"
    scen.write_text(SCENARIO.format(subjects=subjects, trials=trials))
    spec.write_text(SPEC_HEAD + model)
    sim, out = tmp_path / "sim", tmp_path / "fit"
    assert main(["simulate", "--spec", str(scen), "--out", str(sim),
                 "--seed", str(seed)]) == 0
    assert main(["fit", "--data", str(sim / "simulated.csv"),
                 "--spec", str(spec), "--out", str(out)]) == 0
    for name in FIT_FILES + (partial,):
        assert (out / name).is_file(), name
    record = json.loads((out / "fit.json").read_text())
    assert record["converged"]
    assert record["reml"] <= ref + REML_RTOL * abs(ref)


PERMTEST_DATASETS = 16          # bench/run.py: permtest's datasets per run


@pytest.mark.parametrize("bench_seed", [0, 3])
def test_permtest_writes_one_finite_p_value(tmp_path, bench_seed):
    """The first commands of a permtest run: command k permutes dataset
    k mod 16, simulated with seed 16 * bench_seed + (k mod 16), under
    permutation seed k."""
    scen, spec = tmp_path / "s.scn", tmp_path / "m.spec"
    scen.write_text(SCENARIO.format(subjects=4, trials=150))
    spec.write_text(SPEC_HEAD)
    for k in range(PERMTEST_DATASETS + 2):
        data_seed = PERMTEST_DATASETS * bench_seed + k % PERMTEST_DATASETS
        sim, out = tmp_path / f"sim{data_seed}", tmp_path / f"perm{k}"
        if not sim.is_dir():
            assert main(["simulate", "--spec", str(scen), "--out", str(sim),
                         "--seed", str(data_seed)]) == 0
        assert main(["permtest", "--n-perm", "1",
                     "--data", str(sim / "simulated.csv"), "--spec",
                     str(spec), "--out", str(out), "--seed", str(k)]) == 0
        assert (out / "permtest_counts.txt").is_file()
        with open(out / "permtest_pvalues.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 1 and len(rows[0]) >= 2 and rows[0][1], (k, rows)
        assert math.isfinite(float(rows[0][1])), (k, rows)
