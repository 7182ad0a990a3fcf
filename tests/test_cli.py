"""End-to-end command-line runs: file outputs, error handling, determinism."""

import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import gammkit
from gammkit import cli, diagnostics, fitting
from gammkit.basis import SmoothTermSpec
from gammkit.cli import _load_table, main, parse_spec_file
from gammkit.errors import NumericError
from gammkit.fitting import GRAD_TOL, ModelSpec, ParametricTerm, fit
from gammkit.simulate import FixedEffect, ScenarioSpec, gen_experiment


def _write(path, text):
    path.write_text(text)
    return str(path)


def _basic_data(path, n=60, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, n)
    cond = rng.integers(0, 2, n)
    y = np.sin(2 * np.pi * x) + 0.4 * (0.5 - cond) \
        + 0.2 * rng.standard_normal(n)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "x", "cond"])
        for yi, xi, ci in zip(y, x, cond):
            w.writerow([repr(float(yi)), repr(float(xi)), "ab"[ci]])
    return str(path)


BASIC_SPEC = """\
response: y
parametric: cond
smooth: cr(x) k=8
"""

SERIES_SPEC = """\
response: y
series: subject order: trial
"""

SCENARIO = """\
n_subjects: 8
n_trials: 60
rho: 0.3
sigma: 1.0
seed: 7
"""


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# fit


def test_fit_writes_every_output(tmp_path):
    data = _basic_data(tmp_path / "d.csv")
    spec = _write(tmp_path / "m.spec", BASIC_SPEC)
    out = tmp_path / "out"
    assert main(["fit", "--data", data, "--spec", spec,
                 "--out", str(out)]) == 0
    for name in ("summary.txt", "coefficients.csv", "residuals.csv",
                 "fit.json", "partial_cr_x.csv"):
        assert (out / name).is_file(), name
    record = json.loads((out / "fit.json").read_text())
    assert record["response"] == "y"
    assert record["n"] == 60 and record["p"] == 9
    assert record["converged"] is True
    assert len(record["lambdas"]) == 1
    assert "seed" not in record           # fit draws no random numbers
    coefs = _read_csv(out / "coefficients.csv")
    assert coefs[0] == ["name", "estimate", "se"]
    assert len(coefs) == 10
    partial = _read_csv(out / "partial_cr_x.csv")
    assert partial[0] == ["x", "effect", "se"]
    assert len(partial) == 101


def test_fit_intercept_only_has_no_smooth_section(tmp_path):
    rng = np.random.default_rng(1)
    with open(tmp_path / "d.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y"])
        for v in rng.standard_normal(30):
            w.writerow([repr(float(v))])
    spec = _write(tmp_path / "m.spec", "response: y\n")
    out = tmp_path / "out"
    assert main(["fit", "--data", str(tmp_path / "d.csv"), "--spec", spec,
                 "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "(Intercept)" in summary
    assert "(none)" in summary
    assert len(_read_csv(out / "coefficients.csv")) == 2


def test_fit_reruns_byte_identical_except_timestamp(tmp_path):
    data = _basic_data(tmp_path / "d.csv")
    spec = _write(tmp_path / "m.spec", BASIC_SPEC)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["fit", "--data", data, "--spec", spec,
                 "--out", str(out1)]) == 0
    assert main(["fit", "--data", data, "--spec", spec,
                 "--out", str(out2)]) == 0
    for name in ("summary.txt", "coefficients.csv", "residuals.csv",
                 "partial_cr_x.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    j1 = json.loads((out1 / "fit.json").read_text())
    j2 = json.loads((out2 / "fit.json").read_text())
    j1.pop("timestamp"), j2.pop("timestamp")
    assert j1 == j2


def test_fit_json_records_the_search_evaluation_count(tmp_path):
    data = _basic_data(tmp_path / "d.csv")
    spec = _write(tmp_path / "m.spec", BASIC_SPEC)
    counts, grads = [], []
    for run in ("o1", "o2"):
        assert main(["fit", "--data", data, "--spec", spec,
                     "--out", str(tmp_path / run)]) == 0
        record = json.loads((tmp_path / run / "fit.json").read_text())
        counts.append(record["n_eval"])
        grads.append(record["grad_max"])
    assert isinstance(counts[0], int) and counts[0] > 0
    assert counts[0] == counts[1]
    assert math.isfinite(grads[0]) and 0.0 <= grads[0] <= GRAD_TOL
    assert grads[0] == grads[1]


def test_fit_summary_t_is_estimate_over_se(tmp_path):
    data = _basic_data(tmp_path / "d.csv")
    spec = _write(tmp_path / "m.spec", BASIC_SPEC)
    out = tmp_path / "out"
    assert main(["fit", "--data", data, "--spec", spec, "--out", str(out),
                 "--format", "delimited"]) == 0
    coefs = {row[0]: (float(row[1]), float(row[2]))
             for row in _read_csv(out / "coefficients.csv")[1:]}
    lines = (out / "summary.txt").read_text().splitlines()
    start = lines.index("A. parametric coefficients") + 2
    checked = 0
    for line in lines[start:]:
        parts = line.split("\t")
        if len(parts) != 5:
            break
        est, se = coefs[parts[0]]
        assert abs(float(parts[3]) - est / se) < 1e-3 * (1 + abs(est / se))
        checked += 1
    assert checked == 2


def test_fit_rho_flag_overrides_spec_file(tmp_path):
    scen = _write(tmp_path / "s.scn", SCENARIO)
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--spec", scen, "--out", str(sim_out)]) == 0
    spec = _write(tmp_path / "m.spec", SERIES_SPEC + "rho: 0.4\n")
    out = tmp_path / "out"
    assert main(["fit", "--data", str(sim_out / "simulated.csv"),
                 "--spec", spec, "--out", str(out), "--rho", "0.0"]) == 0
    assert json.loads((out / "fit.json").read_text())["rho"] == 0.0


def test_fit_unknown_key_exits_one_and_leaves_nothing(tmp_path, capsys):
    data = _basic_data(tmp_path / "d.csv")
    spec = _write(tmp_path / "m.spec", "response: y\nfrobnicate: 2\n")
    out = tmp_path / "out"
    assert main(["fit", "--data", data, "--spec", spec,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gammkit: error at stage 'parse-spec':")
    assert "\n" == err[-1] and err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


def test_fit_bad_cell_reports_load_stage(tmp_path, capsys):
    with open(tmp_path / "d.csv", "w", newline="") as fh:
        fh.write("y,x\n1.0,0.1\noops,0.2\n")
    spec = _write(tmp_path / "m.spec", "response: y\nsmooth: cr(x) k=4\n")
    assert main(["fit", "--data", str(tmp_path / "d.csv"), "--spec", spec,
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "stage 'load-data'" in err
    assert "row" in err


def test_fit_undecodable_byte_names_the_data_file(tmp_path, capsys):
    """A Latin-1 byte in a cell is a load-data error naming the file, not a
    bare decoding error."""
    (tmp_path / "d.csv").write_bytes(b"y,x\n1.0,0.1\n2.0,0.2\xe9\n")
    spec = _write(tmp_path / "m.spec", "response: y\nsmooth: cr(x) k=4\n")
    assert main(["fit", "--data", str(tmp_path / "d.csv"), "--spec", spec,
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "stage 'load-data'" in err
    assert f"{tmp_path / 'd.csv'}: byte 0xe9 is not UTF-8" in err


def test_fit_repeated_header_column_is_an_error(tmp_path, capsys):
    with open(tmp_path / "d.csv", "w", newline="") as fh:
        fh.write("y,x,y\n1,0.1,3\n2,0.2,4\n3,0.3,5\n")
    spec = _write(tmp_path / "m.spec", "response: y\nparametric: x\n")
    assert main(["fit", "--data", str(tmp_path / "d.csv"), "--spec", spec,
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "stage 'load-data'" in err
    assert "'y' repeated in header" in err


def test_product_term_expands_to_mains_and_interaction(tmp_path):
    """a*b is a, b and a:b, every one with the line's coding."""
    rng = np.random.default_rng(3)
    path = tmp_path / "d.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "size", "orientation"])
        for i in range(80):
            size, orient = ("large", "small")[i % 2], "hv"[(i // 2) % 2]
            y = 0.5 * (size == "small") - 0.3 * (orient == "v") \
                + 0.4 * (size == "small") * (orient == "v") \
                + 0.2 * rng.standard_normal()
            w.writerow([repr(float(y)), size, orient])
    spec = _write(tmp_path / "m.spec", "response: y\n"
                  "parametric: size*orientation coding=treatment\n")
    model_spec, _ = parse_spec_file(spec)
    assert model_spec.parametric_terms == (
        ParametricTerm("size", "treatment"),
        ParametricTerm("orientation", "treatment"),
        ParametricTerm(("size", "orientation"), "treatment"))
    out = tmp_path / "out"
    assert main(["fit", "--data", str(path), "--spec", spec,
                 "--out", str(out)]) == 0
    names = [row[0] for row in _read_csv(out / "coefficients.csv")[1:]]
    assert names == ["(Intercept)", "size[small]", "orientation[v]",
                     "size[small]:orientation[v]"]


def test_parametric_roles_come_from_the_one_read(tmp_path, monkeypatch):
    # "lo" sits in a row dropped for its missing response; c is still a
    # factor, as a scan of every row decides
    path = tmp_path / "d.csv"
    path.write_text("y,c,d\n1,2,5\nNA,lo,6\n3,4,7\n4,2,8\n5,4,9\n")
    spec, keys = parse_spec_file(_write(tmp_path / "m.spec",
                                        "response: y\nparametric: c + d\n"))
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    table = _load_table([spec], keys, str(path))
    assert opened.count(str(path)) == 1
    assert table.factor("c").levels == ("2", "4")
    assert table.numeric("d").tolist() == [5.0, 7.0, 8.0, 9.0]
    assert table.meta["dropped_rows"] == 1


def test_spec_value_errors_name_their_line(tmp_path, capsys):
    data = _basic_data(tmp_path / "d.csv")
    spec = _write(tmp_path / "m.spec", "response: y\n# m is an integer\n"
                  "smooth: cr(x) m=abc\n")
    out = tmp_path / "out"
    assert main(["fit", "--data", data, "--spec", spec,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("gammkit: error at stage 'parse-spec': "
                                       "line 3: bad m value 'abc'\n")
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("smooth: te(x)", "tensor smooths need >= 2 covariates"),
    ("smooth: cr(x) k=2", "k must be >= 3 for cr smooths"),
    ("parametric: cond coding=poly", "unknown coding 'poly'"),
    # fs has no by= (its levels already split the curves): an error, not
    # a plain fs term that still loads cond as a factor
    ("smooth: fs(x, cond) k=5 by=cond",
     "by and fs_group are mutually exclusive"),
    ("smooth: cr(x) k=5 by=", "option 'by' has no value"),
    ("smooth: cr(x) k=5 k=8", "option 'k' given twice"),
    # not the last coding silently winning
    ("parametric: cond coding=sum coding=treatment",
     "option 'coding' given twice"),
    # m is the tp penalty order: on any other base it changed nothing
    ("smooth: cr(x) k=5 m=3", "term 'cr(x)': only a tp basis takes m"),
    ("smooth: fs(x, cond) k=5 m=3",
     "term 'fs(x,cond)': only a tp basis takes m"),
])
def test_term_errors_name_their_line(tmp_path, capsys, line, message):
    data = _basic_data(tmp_path / "d.csv")
    spec = _write(tmp_path / "m.spec", f"response: y\n\n{line}\n")
    out = tmp_path / "out"
    assert main(["fit", "--data", data, "--spec", spec,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("gammkit: error at stage 'parse-spec': "
                                       f"line 3: {message}\n")
    assert not out.exists()


def test_a_cell_over_the_csv_field_limit_is_an_error_at_load_data(tmp_path,
                                                                 capsys):
    data = tmp_path / "d.csv"
    data.write_text(open(_basic_data(tmp_path / "ok.csv")).read()
                    + "1,1," + "x" * (csv.field_size_limit() + 1) + "\n")
    lines = len(data.read_text().splitlines())
    spec = _write(tmp_path / "m.spec", BASIC_SPEC)
    out = tmp_path / "out"
    assert main(["fit", "--data", str(data), "--spec", spec,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"gammkit: error at stage 'load-data': {data}: row {lines}: field "
        f"larger than field limit ({csv.field_size_limit()})\n")
    assert not out.exists()


def test_spec_and_scenario_files_may_start_with_a_byte_order_mark(tmp_path):
    data = _basic_data(tmp_path / "d.csv")
    spec = tmp_path / "m.spec"
    spec.write_bytes(b"\xef\xbb\xbf" + BASIC_SPEC.encode())
    assert main(["fit", "--data", data, "--spec", str(spec),
                 "--out", str(tmp_path / "fit")]) == 0
    scen = tmp_path / "s.scn"
    scen.write_bytes(b"\xef\xbb\xbf" + SCENARIO.encode())
    assert main(["simulate", "--spec", str(scen),
                 "--out", str(tmp_path / "sim")]) == 0
    truth = json.loads((tmp_path / "sim" / "truth.json").read_text())
    assert truth["scenario"]["n_subjects"] == 8


@pytest.mark.parametrize("command", ["fit", "simulate"])
def test_undecodable_spec_byte_names_the_file(tmp_path, capsys, command):
    """A Latin-1 byte, even in a comment, is an error naming the spec or
    scenario file, not a bare decoding error."""
    spec = tmp_path / "m.spec"
    spec.write_bytes(b"n_trials: 10\n# caf\xe9\n")
    stage = "parse-spec" if command == "fit" else "parse-scenario"
    argv = [command, "--spec", str(spec), "--out", str(tmp_path / "out")]
    if command == "fit":
        argv += ["--data", _basic_data(tmp_path / "d.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"gammkit: error at stage {stage!r}: {spec}: byte 0xe9 is not UTF-8 "
        "text (invalid continuation byte)\n")


def test_fit_unknown_smooth_function_rejected(tmp_path, capsys):
    data = _basic_data(tmp_path / "d.csv")
    spec = _write(tmp_path / "m.spec", "response: y\nsmooth: wiggle(x)\n")
    assert main(["fit", "--data", data, "--spec", spec,
                 "--out", str(tmp_path / "out")]) == 1
    assert "stage 'parse-spec'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# partial-effect files


@pytest.fixture(scope="module")
def fs_model():
    """cond + cr(trial) k=10 + fs(trial, subject) k=5 at rho 0.3 on
    120 subjects x 12 trials."""
    table, _ = gen_experiment(ScenarioSpec(
        n_subjects=120, n_trials=12,
        fixed_effects=(FixedEffect("cond", "factor2", 0.8),),
        trend="undulating", trend_amplitude=1.0, rho=0.3,
        subject_intercept_sd=0.5, seed=1))
    spec = ModelSpec(response="y", parametric_terms=(ParametricTerm("cond"),),
                     smooth_terms=(SmoothTermSpec("trial", "cr", k=10),
                                   SmoothTermSpec(("trial",), "cr", k=5,
                                                  fs_group="subject")),
                     rho=0.3)
    return fit(spec, table)


def test_partials_make_one_partial_effect_call_per_smooth_term(
        tmp_path, monkeypatch, fs_model):
    """The fs term's 120 curves come from one call over the levels crossed
    with the 100-point grid, levels outer."""
    calls, real = [], fitting.partial_effect

    def counted(model, term, grid):
        calls.append((term, grid.n_rows))
        return real(model, term, grid)

    monkeypatch.setattr(fitting, "partial_effect", counted)
    cli._write_partials(cli.OutputTracker(str(tmp_path)), fs_model)
    assert calls == [("cr(trial)", 100), ("fs(trial,subject)", 12_000)]
    rows = _read_csv(tmp_path / "partial_fs_trial_subject.csv")
    assert rows[0] == ["level", "trial", "effect", "se"]
    assert len(rows) == 1 + 12_000
    levels = fs_model.table.factor("subject").levels
    assert [r[0] for r in rows[1::100]] == list(levels)
    assert [r[1] for r in rows[1:101]] == [r[1] for r in rows[-100:]]


def test_fs_partials_allocate_per_grid_entry_not_per_level_block(
        tmp_path, monkeypatch, fs_model):
    """Evaluating the fs curves of 120 subjects (12,000 grid rows of k = 5
    stored entries) allocates at most 16 doubles per stored entry, summed
    over the partial_effect calls (each call's peak above the memory it
    started with): no call forms a grid row over every level's columns or
    multiplies such rows by the term's whole block of vb."""
    peaks, real = [], fitting.partial_effect

    def traced(model, term, grid):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = real(model, term, grid)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return out

    monkeypatch.setattr(fitting, "partial_effect", traced)
    tracemalloc.start()
    try:
        cli._write_partials(cli.OutputTracker(str(tmp_path)), fs_model)
    finally:
        tracemalloc.stop()
    assert sum(peaks) < 16 * 8 * 12_000 * 5


def test_fit_writes_a_two_covariate_by_factor_smooth(tmp_path):
    """s(trial, dose) by=cond: one 40 x 40 surface per cond level, levels
    outer, trial outer within a level."""
    scen = _write(tmp_path / "s.scn", SCENARIO + "trend: undulating "
                  "amplitude=1.0\nfixed: factor2(cond) effect=0.8\n"
                  "fixed: numeric(dose) effect=0.5\n")
    assert main(["simulate", "--spec", scen, "--out", str(tmp_path)]) == 0
    spec = _write(tmp_path / "m.spec", SERIES_SPEC + "parametric: cond\n"
                  "smooth: s(trial, dose) k=12 by=cond\n"
                  "random: intercept(subject)\nrho: 0.3\n")
    out = tmp_path / "out"
    assert main(["fit", "--data", str(tmp_path / "simulated.csv"),
                 "--spec", spec, "--out", str(out)]) == 0
    rows = _read_csv(out / "partial_s_trial_dose_cond.csv")
    assert rows[0] == ["level", "trial", "dose", "effect", "se"]
    assert len(rows) == 1 + 2 * 1600
    assert [r[0] for r in rows[1::1600]] == ["a", "b"]
    assert len({r[1] for r in rows[1:41]}) == 1
    assert len({r[2] for r in rows[1:41]}) == 40
    assert all(math.isfinite(float(v)) for r in rows[1:] for v in r[3:])


def _kinds_data(path, n=240, seed=4):
    """x and z numeric, c a 3-level and g a 4-level factor."""
    rng = np.random.default_rng(seed)
    x, z = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
    c, g = np.arange(n) % 3, np.arange(n) % 4
    y = np.sin(2 * np.pi * x) * (1 + 0.5 * c) + z + 0.3 * g \
        + 0.2 * rng.standard_normal(n)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "x", "z", "c", "g"])
        for row in zip(y, x, z, c, g):
            w.writerow([*map(repr, map(float, row[:3])), f"c{row[3]}",
                        f"g{row[4]}"])
    return str(path)


# One row per row of the README's kind table: a spec-file line, or a
# library term where the spec-file format has no line for it (it writes fs
# on a cr base only).
KIND_ROWS = {
    "cr": "smooth: cr(x) k=6", "cr-by": "smooth: cr(x) k=6 by=c",
    "poly": "smooth: poly(x) k=3", "poly-by": "smooth: poly(x) k=3 by=c",
    "tp": "smooth: s(x) k=6", "tp-by": "smooth: s(x) k=6 by=c",
    "tp2": "smooth: s(x, z) k=10", "tp2-by": "smooth: s(x, z) k=10 by=c",
    "te": "smooth: te(x, z) k=4", "te-by": "smooth: te(x, z) k=4 by=c",
    "ti": "smooth: ti(x, z) k=4", "ti-by": "smooth: ti(x, z) k=4 by=c",
    "fs-cr": "smooth: fs(x, g) k=5",
    "fs-tp": SmoothTermSpec("x", "tp", k=5, fs_group="g"),
    "intercept": "random: intercept(g)", "slope": "random: slope(g, x)",
}


@pytest.mark.parametrize("row", sorted(KIND_ROWS))
def test_fit_writes_every_kind_of_the_readme_table(tmp_path, monkeypatch,
                                                   row):
    """Exit 0, the term's partial file over its grid (a random effect's
    levels), and one summary row per level of a by= factor."""
    data = _kinds_data(tmp_path / "d.csv")
    line = KIND_ROWS[row]
    spec = _write(tmp_path / "m.spec", "response: y\n" + (
        line + "\n" if isinstance(line, str) else ""))
    if not isinstance(line, str):
        parsed = cli.parse_spec_file(spec)
        monkeypatch.setattr(cli, "parse_spec_file", lambda path: (
            ModelSpec(response="y", smooth_terms=(line,)), parsed[1]))
    (term,) = cli.parse_spec_file(spec)[0].smooth_terms
    out = tmp_path / "out"
    assert main(["fit", "--data", data, "--spec", spec, "--out", str(out),
                 "--format", "delimited"]) == 0
    rows = _read_csv(out / f"partial_{cli._safe_name(term.label)}.csv")
    n_levels = {"c": 3, "g": 4}
    if term.is_random_effect:
        assert rows[0] == ["level", "effect", "se"]
        assert len(rows) == 1 + 4
    else:
        grid = 100 if len(term.covariates) == 1 else 1600
        levels = [n_levels[f] for f in term.factors]
        assert rows[0] == ["level"] * len(levels) + [*term.covariates,
                                                      "effect", "se"]
        assert len(rows) == 1 + grid * math.prod(levels)
    assert all(math.isfinite(float(v)) for r in rows[1:] for v in r[-2:])
    summary = (out / "summary.txt").read_text().split(
        "B. smooth terms")[1].splitlines()[2:]
    names = [r.split("\t")[0] for r in summary]
    base = term.label.split(":")[0]
    assert names == ([f"{base}:c{j}" for j in range(3)] if term.by
                     else [term.label])


# ---------------------------------------------------------------------------
# predict and compare


def test_predict_writes_series_rows(tmp_path):
    scen = _write(tmp_path / "s.scn", SCENARIO)
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--spec", scen, "--out", str(sim_out)]) == 0
    spec = _write(tmp_path / "m.spec", SERIES_SPEC)
    out = tmp_path / "out"
    assert main(["predict", "--data", str(sim_out / "simulated.csv"),
                 "--spec", spec, "--out", str(out)]) == 0
    rows = _read_csv(out / "predictions.csv")
    assert rows[0] == ["series", "order", "observed", "fit", "se"]
    assert len(rows) == 8 * 60 + 1
    assert all(float(r[4]) > 0 for r in rows[1:])


def test_compare_reports_a_verdict(tmp_path):
    data = _basic_data(tmp_path / "d.csv")
    spec0 = _write(tmp_path / "m0.spec", "response: y\nparametric: cond\n")
    spec1 = _write(tmp_path / "m1.spec", BASIC_SPEC)
    out = tmp_path / "out"
    assert main(["compare", "--data", data, "--spec", spec0,
                 "--spec", spec1, "--out", str(out)]) == 0
    text = (out / "comparison.txt").read_text()
    assert text.count("model: ") == 2
    assert "AIC = " in text and "params = " in text
    assert re.search(r"comparison: (Chisq = .* df = \d+ {2}p = .*"
                     r"|the model with fewer parameters)", text)


def test_compare_identical_specs_exit_one(tmp_path, capsys):
    data = _basic_data(tmp_path / "d.csv")
    spec = _write(tmp_path / "m.spec", BASIC_SPEC)
    assert main(["compare", "--data", data, "--spec", spec, "--spec", spec,
                 "--out", str(tmp_path / "out")]) == 1
    assert "identical" in capsys.readouterr().err


def test_compare_specs_with_different_rho_exit_one(tmp_path, capsys):
    scen = _write(tmp_path / "s.scn", SCENARIO)
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--spec", scen, "--out", str(sim_out)]) == 0
    specs = [_write(tmp_path / f"m{i}.spec", SERIES_SPEC + f"rho: {rho}\n")
             for i, rho in enumerate((0.0, 0.3))]
    out = tmp_path / "out"
    assert main(["compare", "--data", str(sim_out / "simulated.csv"),
                 "--spec", specs[0], "--spec", specs[1],
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "stage 'compare'" in err and "(0.0 and 0.3)" in err
    assert not (out / "comparison.txt").exists()


def test_compare_loads_a_column_by_the_role_either_spec_gives_it(tmp_path):
    """x is parametric in one spec and a smooth's covariate in the other:
    it is loaded numeric, and both models fit on the one table."""
    data = _basic_data(tmp_path / "d.csv")
    specs = [_write(tmp_path / "m0.spec", "response: y\nparametric: x\n"),
             _write(tmp_path / "m1.spec", "response: y\nparametric: cond\n"
                    "smooth: cr(x) k=8\n")]
    parsed = [parse_spec_file(p) for p in specs]
    assert cli._column_roles([s for s, _ in parsed], parsed[0][1]) == \
        {"y": "numeric", "x": "numeric", "cond": "auto"}
    out = tmp_path / "out"
    assert main(["compare", "--data", data, "--spec", specs[0],
                 "--spec", specs[1], "--out", str(out)]) == 0
    assert (out / "comparison.txt").read_text().count("model: ") == 2


def test_compare_refuses_a_column_one_spec_calls_a_factor(tmp_path, capsys):
    data = _basic_data(tmp_path / "d.csv")
    specs = [_write(tmp_path / "m0.spec",
                    "response: y\nrandom: intercept(x)\n"),
             _write(tmp_path / "m1.spec", "response: y\nsmooth: cr(x) k=8\n")]
    out = tmp_path / "out"
    assert main(["compare", "--data", data, "--spec", specs[0],
                 "--spec", specs[1], "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "gammkit: error at stage 'load-data': column 'x' used as both "
        "numeric and factor\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# diagnostics commands


def test_acf_white_noise_stays_inside_the_band(tmp_path):
    scen = _write(tmp_path / "s.scn",
                  "n_subjects: 6\nn_trials: 80\nrho: 0.0\nseed: 3\n")
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--spec", scen, "--out", str(sim_out)]) == 0
    spec = _write(tmp_path / "m.spec", SERIES_SPEC)
    out = tmp_path / "out"
    assert main(["acf", "--data", str(sim_out / "simulated.csv"),
                 "--spec", spec, "--out", str(out), "--max-lag", "10"]) == 0
    assert (out / "acf_whitened.csv").is_file()
    rows = _read_csv(out / "acf_raw.csv")
    assert rows[0] == ["group", "lag", "acf", "band", "n"]
    pooled = [r for r in rows[1:] if r[0] == "pooled" and int(r[1]) > 0]
    assert len(pooled) == 10
    inside = sum(abs(float(r[2])) < float(r[3]) for r in pooled)
    assert inside >= 9


def test_suggest_rho_round_trip(tmp_path):
    scen = _write(tmp_path / "s.scn",
                  "n_subjects: 10\nn_trials: 100\nrho: 0.3\nseed: 5\n")
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--spec", scen, "--out", str(sim_out)]) == 0
    spec = _write(tmp_path / "m.spec", SERIES_SPEC)
    out = tmp_path / "out"
    assert main(["suggest-rho", "--data", str(sim_out / "simulated.csv"),
                 "--spec", spec, "--out", str(out)]) == 0
    rho = float((out / "rho.txt").read_text())
    assert 0.2 < rho < 0.4
    rows = _read_csv(out / "rho_by_group.csv")
    assert rows[0] == ["group", "lag1"]
    assert len(rows) == 11


def test_permtest_counts_file_has_exactly_two_lines(tmp_path):
    scen = _write(tmp_path / "s.scn",
                  "n_subjects: 6\nn_trials: 40\nrho: 0.0\n"
                  "subject_intercept_sd: 0.4\nseed: 9\n")
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--spec", scen, "--out", str(sim_out)]) == 0
    spec = _write(tmp_path / "m.spec", SERIES_SPEC)
    out = tmp_path / "out"
    assert main(["permtest", "--data", str(sim_out / "simulated.csv"),
                 "--spec", spec, "--out", str(out), "--n-perm", "8"]) == 0
    lines = (out / "permtest_counts.txt").read_text().splitlines()
    assert len(lines) == 2
    assert re.fullmatch(r"alpha=0\.05 rejections=\d+ of 8", lines[0])
    assert re.fullmatch(r"alpha=0\.01 rejections=\d+ of 8", lines[1])
    pvals = _read_csv(out / "permtest_pvalues.csv")
    assert pvals[0] == ["perm", "p"]
    assert len(pvals) == 9
    assert all(0.0 <= float(r[1]) <= 1.0 for r in pvals[1:] if r[1])


def test_permtest_counts_a_failed_replicate_and_leaves_its_cell_empty(
        tmp_path, monkeypatch, capsys):
    """A replicate whose fit fails is counted, not fatal: its p-value is
    NaN, written as an empty cell, and stderr says how many failed."""
    scen = _write(tmp_path / "s.scn", "n_subjects: 4\nn_trials: 30\nseed: 5\n")
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--spec", scen, "--out", str(sim_out)]) == 0
    data = str(sim_out / "simulated.csv")
    spec = _write(tmp_path / "m.spec", SERIES_SPEC)
    real_fit, calls = diagnostics.fit, []

    def fit_failing_replicate_1(*args):
        calls.append(None)
        if len(calls) == 2:
            raise NumericError("injected failure")
        return real_fit(*args)

    monkeypatch.setattr("gammkit.diagnostics.fit", fit_failing_replicate_1)
    model_spec, keys = parse_spec_file(spec)
    result = diagnostics.permutation_fs_test(
        _load_table([model_spec], keys, data), "y", n_perm=3)
    assert result.n_failed == 1
    assert [math.isnan(p) for p in result.p_values] == [False, True, False]
    calls.clear()
    out = tmp_path / "out"
    assert main(["permtest", "--data", data, "--spec", spec, "--out", str(out),
                 "--n-perm", "3"]) == 0
    assert capsys.readouterr().err == "gammkit: 1 permutation fits failed\n"
    cells = [row[1] for row in _read_csv(out / "permtest_pvalues.csv")[1:]]
    assert [c == "" for c in cells] == [False, True, False]


def test_a_smooth_line_outside_its_contract_names_its_line_and_term(
        tmp_path, capsys):
    data = _basic_data(tmp_path / "d.csv")
    spec = _write(tmp_path / "m.spec", "response: y\nsmooth: fs(x, y, cond)\n")
    assert main(["fit", "--data", data, "--spec", spec,
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "gammkit: error at stage 'parse-spec': line 2: term 'fs(x,y,cond)': "
        "factor smooths take 1 covariate(s), got 2\n")


def test_one_parser_serves_every_command_of_a_process(tmp_path):
    """main builds its parser once per process. A simulate and then a fit
    through that one parser, with a failed parse between them, write the
    same files as the two commands each given a freshly built parser."""
    scen = _write(tmp_path / "s.scn", SCENARIO)
    spec = _write(tmp_path / "m.spec", SERIES_SPEC + "smooth: cr(trial) k=6\n")

    def run(tag, fresh):
        sim, out = tmp_path / f"sim-{tag}", tmp_path / f"fit-{tag}"
        for argv in (["simulate", "--spec", scen, "--out", str(sim)],
                     ["fit", "--data", str(sim / "simulated.csv"),
                      "--spec", spec, "--out", str(out)]):
            if fresh:
                cli._build_parser.cache_clear()
            else:
                with pytest.raises(SystemExit):
                    main(["fit"])
            assert main(argv) == 0
        files = {f"{d.name[:3]}/{f.name}": f.read_bytes()
                 for d in (sim, out) for f in sorted(d.iterdir())}
        record = json.loads(files.pop("fit/fit.json"))
        record.pop("timestamp")
        assert record.pop("data") == str(sim / "simulated.csv")
        return files, record

    fresh = run("fresh", True)
    assert cli._build_parser() is cli._build_parser()
    assert run("cached", False) == fresh


# ---------------------------------------------------------------------------
# every command: one error frame, and only the options it reads


def _argv(command, data, spec, out, *extra):
    """argv running command on data and spec (given twice to compare)."""
    more = {"compare": ["--spec", spec], "permtest": ["--n-perm", "2"]}
    return [command, "--data", data, "--spec", spec, "--out", out,
            *more.get(command, []), *extra]


@pytest.mark.parametrize("command", ["predict", "compare", "acf",
                                     "suggest-rho", "permtest"])
def test_a_bad_spec_exits_one_at_parse_spec_and_writes_nothing(
        tmp_path, capsys, command):
    data = _basic_data(tmp_path / "d.csv")
    spec = _write(tmp_path / "m.spec", "response: y\nsmooth: cr(x) k=six\n")
    out = tmp_path / "out"
    assert main(_argv(command, data, spec, str(out))) == 1
    assert capsys.readouterr().err == ("gammkit: error at stage 'parse-spec': "
                                       "line 2: bad k value 'six'\n")
    assert not out.exists()


@pytest.mark.parametrize("command, option", [
    ("fit", "--seed=1"),
    ("predict", "--seed=1"), ("predict", "--format=text"),
    ("compare", "--seed=1"), ("compare", "--format=text"),
    ("acf", "--seed=1"), ("acf", "--format=text"),
    ("suggest-rho", "--rho=0.2"), ("suggest-rho", "--seed=1"),
    ("suggest-rho", "--format=text"),
    ("permtest", "--rho=0.2"), ("permtest", "--format=text"),
])
def test_an_option_the_command_does_not_read_is_a_usage_error(
        tmp_path, capsys, command, option):
    data = _basic_data(tmp_path / "d.csv")
    spec = _write(tmp_path / "m.spec", BASIC_SPEC)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as stop:
        main(_argv(command, data, spec, str(out), option))
    assert stop.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# simulate


def test_simulate_is_deterministic_and_seed_sensitive(tmp_path):
    scen = _write(tmp_path / "s.scn", SCENARIO)
    o1, o2, o3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for o in (o1, o2):
        assert main(["simulate", "--spec", scen, "--out", str(o)]) == 0
    assert (o1 / "simulated.csv").read_bytes() == \
        (o2 / "simulated.csv").read_bytes()
    assert (o1 / "truth.json").read_bytes() == (o2 / "truth.json").read_bytes()
    assert main(["simulate", "--spec", scen, "--out", str(o3),
                 "--seed", "99"]) == 0
    assert (o1 / "simulated.csv").read_bytes() != \
        (o3 / "simulated.csv").read_bytes()
    truth = json.loads((o3 / "truth.json").read_text())
    assert truth["scenario"]["seed"] == 99


def test_simulate_truth_record_structure(tmp_path):
    scen = _write(tmp_path / "s.scn", SCENARIO)
    out = tmp_path / "out"
    assert main(["simulate", "--spec", scen, "--out", str(out)]) == 0
    truth = json.loads((out / "truth.json").read_text())
    assert set(truth) == {"scenario", "effects", "subject_intercepts",
                          "trends", "errors"}
    assert len(truth["trends"]) == 8
    assert all(len(row) == 60 for row in truth["trends"])
    rows = _read_csv(out / "simulated.csv")
    assert rows[0] == ["subject", "trial", "y"]
    assert len(rows) == 481
    assert rows[1][0] == "s000" and rows[1][1] == "1"


@pytest.mark.parametrize("line, message", [
    ("n_subjects: ten", "bad n_subjects 'ten'"),
    ("sigma: x", "bad sigma 'x'"),
    ("fixed: numeric(z) effect=1.2.3", "bad effect '1.2.3'"),
    ("trend: linear amplitude=big", "bad amplitude 'big'"),
])
def test_scenario_value_errors_name_their_line(tmp_path, capsys, line,
                                               message):
    scen = _write(tmp_path / "s.scn", f"n_trials: 10\n\n{line}\n")
    out = tmp_path / "out"
    assert main(["simulate", "--spec", scen, "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("gammkit: error at stage "
                                       f"'parse-scenario': line 3: {message}\n")
    assert not out.exists()


def test_scenario_file_sets_only_its_own_keys(tmp_path):
    """Counts default to 10 x 100; every other field is ScenarioSpec's."""
    scen = _write(tmp_path / "s.scn", "seed: 4\nfixed: numeric(z) effect=2\n")
    assert cli.parse_scenario_file(scen) == ScenarioSpec(
        n_subjects=10, n_trials=100, seed=4,
        fixed_effects=(FixedEffect("z", "numeric", 2.0),))


def test_simulate_rejects_bad_fixed_effect(tmp_path, capsys):
    scen = _write(tmp_path / "s.scn",
                  "n_subjects: 4\nn_trials: 10\n"
                  "fixed: factor3(c) effect=1.0\n")
    assert main(["simulate", "--spec", scen,
                 "--out", str(tmp_path / "out")]) == 1
    assert "stage 'parse-scenario'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# text paths: records streamed in chunks


@pytest.fixture(scope="module")
def large_n(tmp_path_factory):
    """The 400 x 100 simulated experiment (n = 40 000), its simulated.csv
    and the spec of cond + cr(trial) + intercept(subject) with AR(1)."""
    d = tmp_path_factory.mktemp("large_n")
    table, _ = gen_experiment(ScenarioSpec(
        n_subjects=400, n_trials=100, trend="undulating", trend_amplitude=1.0,
        fixed_effects=(FixedEffect("cond", "factor2", 0.8),), rho=0.3,
        subject_intercept_sd=0.5, seed=1))
    cli._write_simulated(str(d / "simulated.csv"), table)
    spec = _write(d / "m.spec", SERIES_SPEC + "parametric: cond\n"
                  "smooth: cr(trial) k=10\nrandom: intercept(subject)\n"
                  "rho: 0.3\n")
    return table, d / "simulated.csv", spec


def _traced_peak(func, *args):
    """func(*args) and its traced allocation peak above the memory traced
    at entry."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = func(*args)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return out, peak


def test_load_csv_of_40k_rows_peaks_below_8_mb(large_n):
    """Each chunk of records becomes arrays before the next is read: the
    loader never holds the file's cells as strings (14.5 MB when it did)."""
    _, path, spec = large_n
    model_spec, keys = parse_spec_file(spec)
    table, peak = _traced_peak(_load_table, [model_spec], keys, str(path))
    assert table.n_rows == 40_000
    assert peak < 8e6


def test_fit_of_40k_rows_keeps_below_9_mb(large_n):
    """The model keeps design_raw but no whitened copy of it, and the table
    as loaded, already in series order (12.7 MB kept with both copies)."""
    _, path, spec = large_n
    model_spec, keys = parse_spec_file(spec)
    table = _load_table([model_spec], keys, str(path))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        model = fit(model_spec, table)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert model.table is table
    assert kept < 9e6


def test_residuals_writer_of_40k_rows_peaks_below_6_mb(large_n, tmp_path):
    """The writer formats _CHUNK rows at a time (16.4 MB when it formatted
    every column whole)."""
    _, path, spec = large_n
    model_spec, keys = parse_spec_file(spec)
    model = fit(model_spec, _load_table([model_spec], keys, str(path)))
    _, peak = _traced_peak(cli._write_residuals, str(tmp_path / "r.csv"),
                           model)
    assert peak < 6e6
    assert len(_read_csv(tmp_path / "r.csv")) == 1 + 40_000


def test_simulated_writer_of_40k_rows_peaks_below_4_mb(large_n, tmp_path):
    table, path, _ = large_n
    _, peak = _traced_peak(cli._write_simulated, str(tmp_path / "s.csv"),
                           table)
    assert peak < 4e6
    assert (tmp_path / "s.csv").read_bytes() == path.read_bytes()


# ---------------------------------------------------------------------------
# console entry point


def _console_script():
    """The command line of the installed gammkit script; when none is on
    PATH, pyproject.toml's [project.scripts] target run by this interpreter
    with the source tree on PYTHONPATH."""
    if shutil.which("gammkit"):
        return ["gammkit"], None
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml")) as fh:
        text = fh.read()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    target = re.search(r'^gammkit\s*=\s*"([\w.]+):(\w+)"', section, re.M)
    module, func = target.groups()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")])))
    return [sys.executable, "-c", f"import sys; from {module} import {func}; "
            f"sys.exit({func}())"], env


def test_console_script_runs_a_fit(tmp_path):
    data = _basic_data(tmp_path / "d.csv")
    spec = _write(tmp_path / "m.spec", BASIC_SPEC)
    out = tmp_path / "out"
    script, env = _console_script()
    proc = subprocess.run([*script, "fit", "--data", data, "--spec", spec,
                           "--out", str(out)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.txt").is_file()


@pytest.mark.parametrize("line", ["frobnicate: 2", "smooth: te(x)"])
def test_spec_errors_need_no_numpy(tmp_path, line):
    """A spec-file error, in its syntax or in building a term, exits 1 before
    numpy or scipy is imported."""
    src = os.path.dirname(os.path.dirname(gammkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    spec = _write(tmp_path / "m.spec", f"response: y\n{line}\n")
    code = ("import sys; from gammkit.cli import main; "
            "rc = main(sys.argv[1:]); "
            "print(sorted({'numpy', 'scipy'} & set(sys.modules))); "
            "sys.exit(rc)")
    proc = subprocess.run([sys.executable, "-c", code, "fit", "--data",
                           str(tmp_path / "d.csv"), "--spec", spec,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 1
    assert "stage 'parse-spec': line 2: " in proc.stderr
    assert proc.stdout == "[]\n"


def test_module_help_lists_all_commands():
    # the child imports gammkit from where this process found it
    src = os.path.dirname(os.path.dirname(gammkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "gammkit.cli", "--help"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    for cmd in ("fit", "predict", "compare", "acf", "suggest-rho",
                "permtest", "simulate"):
        assert cmd in proc.stdout
