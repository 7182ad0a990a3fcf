"""Byte identity of the column-wise CSV writers against per-row oracles.

The oracles below are the per-row writers the command line used before it
wrote a column at a time: one csv.writer row per observation, repr of every
float, json.dump for truth.json. Every output file must keep their bytes.
"""

import csv
import io
import json
import math
import re

import numpy as np
import pytest

from gammkit import cli
from gammkit import data as data_mod
from gammkit.cli import main
from gammkit.data import DataTable, FactorColumn
from gammkit.diagnostics import (permutation_fs_test, residual_acf_by_group,
                                 suggest_rho)
from gammkit.fitting import fit, partial_effect, predict
from gammkit.simulate import gen_experiment

# ---------------------------------------------------------------------------
# per-row oracles


def _oracle_csv(path, headers, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        writer.writerows(rows)


def _oracle_coefficients(path, model):
    rows = []
    for j, name in enumerate(model.coef_names):
        se = math.sqrt(max(model.vb[j, j], 0.0))
        rows.append([name, repr(float(model.beta[j])), repr(se)])
    _oracle_csv(path, ["name", "estimate", "se"], rows)


def _oracle_residuals(path, model):
    design = model.design_raw
    rows = []
    if design.series_codes is not None:
        levels = design.table.factor(design.table.series_key).levels
        for i in range(model.n):
            rows.append([levels[design.series_codes[i]],
                         repr(float(design.order_values[i])),
                         repr(float(model.residuals_raw[i])),
                         repr(float(model.residuals_whitened[i]))])
        headers = ["series", "order", "raw", "whitened"]
    else:
        for i in range(model.n):
            rows.append([str(i), repr(float(model.residuals_raw[i])),
                         repr(float(model.residuals_whitened[i]))])
        headers = ["row", "raw", "whitened"]
    _oracle_csv(path, headers, rows)


def _oracle_partials(out_dir, model):
    design = model.design_raw
    for spec_term in model.spec.smooth_terms:
        label = spec_term.label
        path = out_dir / f"partial_{cli._safe_name(label)}.csv"
        covs = spec_term.columns
        a, b = design.col_ranges[label]
        if spec_term.is_random_effect:
            fac = design.table.factor(covs[0])
            rows = [[lev, repr(float(model.beta[a + j])),
                     repr(math.sqrt(max(model.vb[a + j, a + j], 0.0)))]
                    for j, lev in enumerate(fac.levels)]
            _oracle_csv(path, ["level", "effect", "se"], rows)
            continue
        if spec_term.by is not None or spec_term.fs_group is not None:
            group_name, numeric = covs[-1], covs[:-1]
            m = 100 if len(numeric) == 1 else 40
            axes = [np.linspace(float(x.min()), float(x.max()), m)
                    for x in map(design.table.numeric, numeric)]
            points = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
            fac = design.table.factor(group_name)
            rows = []
            for lev in fac.levels:
                gtab = _oracle_grid_table(dict(zip(numeric, points)),
                                          {group_name: lev}, fac)
                eff, se = partial_effect(model, label, gtab)
                rows += [[lev, *map(repr, map(float, xs)), repr(float(e)),
                          repr(float(s))]
                         for *xs, e, s in zip(*points, eff, se)]
            _oracle_csv(path, ["level", *numeric, "effect", "se"], rows)
        elif len(covs) == 2:
            xs = [design.table.numeric(c) for c in covs]
            g1 = np.linspace(float(xs[0].min()), float(xs[0].max()), 40)
            g2 = np.linspace(float(xs[1].min()), float(xs[1].max()), 40)
            xx, zz = np.meshgrid(g1, g2, indexing="ij")
            gtab = DataTable(columns={covs[0]: xx.ravel(), covs[1]: zz.ravel()},
                             n_rows=xx.size)
            eff, se = partial_effect(model, label, gtab)
            rows = [[repr(float(x1)), repr(float(x2)), repr(float(e)),
                     repr(float(s))]
                    for x1, x2, e, s in zip(xx.ravel(), zz.ravel(), eff, se)]
            _oracle_csv(path, [covs[0], covs[1], "effect", "se"], rows)
        else:
            x = design.table.numeric(covs[0])
            grid_x = np.linspace(float(x.min()), float(x.max()), 100)
            gtab = DataTable(columns={covs[0]: grid_x}, n_rows=100)
            eff, se = partial_effect(model, label, gtab)
            rows = [[repr(float(gx)), repr(float(e)), repr(float(s))]
                    for gx, e, s in zip(grid_x, eff, se)]
            _oracle_csv(path, [covs[0], "effect", "se"], rows)


def _oracle_grid_table(numeric_cols, factor_consts, fac):
    n = len(next(iter(numeric_cols.values())))
    columns = {k: np.asarray(v) for k, v in numeric_cols.items()}
    for name, lev in factor_consts.items():
        code = fac.levels.index(lev)
        columns[name] = FactorColumn(codes=np.full(n, code, dtype=np.int64),
                                     levels=fac.levels)
    return DataTable(columns=columns, n_rows=n)


def _oracle_predictions(path, model, mean, se):
    design = model.design_raw
    rows = []
    y = design.y
    if design.series_codes is not None:
        levels = design.table.factor(design.table.series_key).levels
        headers = ["series", "order", "observed", "fit", "se"]
        for i in range(model.n):
            rows.append([levels[design.series_codes[i]],
                         repr(float(design.order_values[i])),
                         repr(float(y[i])), repr(float(mean[i])),
                         repr(float(se[i]))])
    else:
        headers = ["row", "observed", "fit", "se"]
        for i in range(model.n):
            rows.append([str(i), repr(float(y[i])), repr(float(mean[i])),
                         repr(float(se[i]))])
    _oracle_csv(path, headers, rows)


def _oracle_acf(path, results):
    rows = []
    for r in results:
        for lag, val in zip(r.lags, r.acf):
            rows.append([r.group, str(int(lag)), repr(float(val)),
                         repr(float(r.band)), str(r.n)])
    _oracle_csv(path, ["group", "lag", "acf", "band", "n"], rows)


def _oracle_pvalues(path, p_values):
    rows = [[str(i), "" if math.isnan(p) else repr(float(p))]
            for i, p in enumerate(p_values)]
    _oracle_csv(path, ["perm", "p"], rows)


def _oracle_simulated(path, table):
    names = table.column_names()
    rows = []
    for i in range(table.n_rows):
        row = []
        for name in names:
            col = table.columns[name]
            if isinstance(col, FactorColumn):
                row.append(col.levels[col.codes[i]])
            elif name == "trial":
                row.append(f"{col[i]:g}")
            else:
                row.append(repr(float(col[i])))
        rows.append(row)
    _oracle_csv(path, names, rows)


def _oracle_truth(path, scenario, truth):
    record = {
        "scenario": {"n_subjects": scenario.n_subjects,
                     "n_trials": scenario.n_trials,
                     "trend": scenario.trend,
                     "trend_amplitude": scenario.trend_amplitude,
                     "rho": scenario.rho, "sigma": scenario.sigma,
                     "subject_intercept_sd": scenario.subject_intercept_sd,
                     "mean": scenario.mean, "seed": scenario.seed},
        "effects": truth.effects,
        "subject_intercepts": [float(v) for v in
                               truth.subject_intercepts],
        "trends": [[float(v) for v in row] for row in truth.trends],
        "errors": [[float(v) for v in row] for row in truth.errors],
    }
    with open(path, "w") as fh:
        json.dump(record, fh, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# data and helpers

# Level names a CSV must quote (a comma, a double quote, both) and a plain one.
SUBJECTS = ('s,1', 's"2', '"s3", x', "s 4")
CONDS = ("a,b", 'c"d')


def _write(path, text):
    path.write_text(text)
    return str(path)


def _series_data(path, n_trials=30, seed=0):
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["subject", "trial", "cond", "z", "y"])
        for j, subj in enumerate(SUBJECTS):
            for t in range(1, n_trials + 1):
                cond = CONDS[(t + j) % 2]
                z = rng.uniform(-1.0, 1.0)
                y = (np.sin(t / 5.0) + 0.3 * j + 0.5 * z
                     + (0.4 if cond == CONDS[0] else -0.4)
                     + 0.3 * rng.standard_normal())
                w.writerow([subj, t, cond, repr(float(z)), repr(float(y))])
    return str(path)


SERIES_SPECS = {
    "fs": ("response: y\nseries: subject order: trial\nparametric: cond\n"
           "smooth: fs(trial, subject) k=4\nrho: 0.2\n"),
    "re_te_by": ("response: y\nseries: subject order: trial\n"
                 "parametric: cond\nsmooth: te(trial, z) k=4,4\n"
                 "smooth: cr(trial) k=5 by=cond\n"
                 "random: intercept(subject)\nrho: 0.3\n"),
    # a 2-D smooth per level: its curves cross the levels with a 40 x 40 grid
    "tp2_by": ("response: y\nseries: subject order: trial\n"
               "parametric: cond\nsmooth: s(trial, z) k=12 by=cond\n"
               "random: intercept(subject)\nrho: 0.3\n"),
    "ti_by_re": ("response: y\nseries: subject order: trial\n"
                 "parametric: cond\nsmooth: ti(trial, z) k=4,4\n"
                 "smooth: cr(trial) k=5 by=cond\n"
                 "random: intercept(subject)\nrho: 0.3\n"),
}
NO_SERIES_SPEC = "response: y\nparametric: cond\nsmooth: cr(z) k=6\n"


def _model(spec_path, data_path):
    spec, keys = cli.parse_spec_file(spec_path)
    return fit(spec, cli._load_table([spec], keys, data_path))


def _assert_same_bytes(expected_dir, actual_dir, names):
    for name in names:
        assert (actual_dir / name).read_bytes() == \
            (expected_dir / name).read_bytes(), name


def _csv_names(directory):
    return sorted(p.name for p in directory.iterdir() if p.suffix == ".csv")


# ---------------------------------------------------------------------------
# fit and predict


@pytest.mark.parametrize("design", sorted(SERIES_SPECS) + ["no_series"])
def test_fit_outputs_match_per_row_writers(tmp_path, design):
    data = _series_data(tmp_path / "d.csv")
    text = SERIES_SPECS.get(design, NO_SERIES_SPEC)
    spec = _write(tmp_path / "m.spec", text)
    out, oracle = tmp_path / "out", tmp_path / "oracle"
    assert main(["fit", "--data", data, "--spec", spec,
                 "--out", str(out)]) == 0
    oracle.mkdir()
    model = _model(spec, data)
    _oracle_coefficients(oracle / "coefficients.csv", model)
    _oracle_residuals(oracle / "residuals.csv", model)
    _oracle_partials(oracle, model)
    names = _csv_names(oracle)
    assert _csv_names(out) == names
    assert len(names) >= 3
    _assert_same_bytes(oracle, out, names)
    if design != "no_series":
        # quoted once per level, and read back to the same names
        rows = list(csv.reader(open(out / "residuals.csv", newline="")))
        assert {r[0] for r in rows[1:]} == set(SUBJECTS)


@pytest.mark.parametrize("design", ["fs", "no_series"])
def test_predictions_match_per_row_writer(tmp_path, design):
    data = _series_data(tmp_path / "d.csv")
    spec = _write(tmp_path / "m.spec",
                  SERIES_SPECS.get(design, NO_SERIES_SPEC))
    out, oracle = tmp_path / "out", tmp_path / "oracle"
    assert main(["predict", "--data", data, "--spec", spec,
                 "--out", str(out)]) == 0
    oracle.mkdir()
    model = _model(spec, data)
    mean, se = predict(model, model.table)
    _oracle_predictions(oracle / "predictions.csv", model, mean, se)
    _assert_same_bytes(oracle, out, ["predictions.csv"])


def test_order_values_keep_their_text_when_zero_and_negative_zero_meet(
        tmp_path):
    """Order values are formatted once per distinct value: 0.0 in one
    series and -0.0 in another are two values, each written as itself."""
    rng = np.random.default_rng(3)
    with open(tmp_path / "d.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["subject", "trial", "cond", "y"])
        for j, subj in enumerate(SUBJECTS):
            sign = -1.0 if j % 2 else 1.0
            for t in range(30):
                w.writerow([subj, repr(sign * 0.25 * t), CONDS[(t + j) % 2],
                            repr(float(np.sin(t / 5.0)
                                       + rng.standard_normal()))])
    data = str(tmp_path / "d.csv")
    assert "-0.0" in open(data).read()
    spec = _write(tmp_path / "m.spec", SERIES_SPECS["fs"])
    out, oracle = tmp_path / "out", tmp_path / "oracle"
    assert main(["predict", "--data", data, "--spec", spec,
                 "--out", str(out)]) == 0
    assert main(["fit", "--data", data, "--spec", spec,
                 "--out", str(out)]) == 0
    oracle.mkdir()
    model = _model(spec, data)
    _oracle_residuals(oracle / "residuals.csv", model)
    _oracle_predictions(oracle / "predictions.csv", model,
                        *predict(model, model.table))
    _assert_same_bytes(oracle, out, ["residuals.csv", "predictions.csv"])
    orders = {row[1] for row in csv.reader(open(out / "residuals.csv"))}
    assert {"0.0", "-0.0", "0.25", "-0.25"} <= orders


def test_acf_and_rho_outputs_match_per_row_writers(tmp_path):
    data = _series_data(tmp_path / "d.csv", n_trials=40)
    spec = _write(tmp_path / "m.spec", SERIES_SPECS["fs"])
    out, oracle = tmp_path / "out", tmp_path / "oracle"
    assert main(["acf", "--data", data, "--spec", spec, "--out", str(out),
                 "--max-lag", "5"]) == 0
    assert main(["suggest-rho", "--data", data, "--spec", spec,
                 "--out", str(out)]) == 0
    oracle.mkdir()
    model_spec, keys = cli.parse_spec_file(spec)
    table = cli._load_table([model_spec], keys, data)
    model = fit(model_spec, table)
    for which in ("raw", "whitened"):
        _oracle_acf(oracle / f"acf_{which}.csv",
                    residual_acf_by_group(model, which, max_lag=5))
    suggestion = suggest_rho(table, model_spec)
    _oracle_csv(oracle / "rho_by_group.csv", ["group", "lag1"],
                [[g, repr(float(v))] for g, v in
                 zip(suggestion.groups, suggestion.per_group)])
    _assert_same_bytes(oracle, out, ["acf_raw.csv", "acf_whitened.csv",
                                     "rho_by_group.csv"])


# ---------------------------------------------------------------------------
# permtest


def test_permtest_pvalues_match_per_row_writer(tmp_path):
    data = _series_data(tmp_path / "d.csv")
    spec = _write(tmp_path / "m.spec",
                  "response: y\nseries: subject order: trial\n")
    out, oracle = tmp_path / "out", tmp_path / "oracle"
    assert main(["permtest", "--data", data, "--spec", spec,
                 "--out", str(out), "--n-perm", "3", "--seed", "4"]) == 0
    oracle.mkdir()
    model_spec, keys = cli.parse_spec_file(spec)
    table = cli._load_table([model_spec], keys, data)
    result = permutation_fs_test(table, "y", n_perm=3, seed=4)
    _oracle_pvalues(oracle / "permtest_pvalues.csv", result.p_values)
    _assert_same_bytes(oracle, out, ["permtest_pvalues.csv"])


def test_nan_pvalue_stays_an_empty_cell(tmp_path):
    p_values = np.array([0.25, math.nan, 1e-7, 1.0, 0.1 + 0.2])
    cli._write_pvalues(str(tmp_path / "new.csv"), p_values)
    _oracle_pvalues(tmp_path / "old.csv", p_values)
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()
    assert (tmp_path / "new.csv").read_bytes().split(b"\r\n")[2] == b"1,"


# ---------------------------------------------------------------------------
# simulate


@pytest.mark.parametrize("seed", [7, 31])
def test_simulate_outputs_match_per_row_writers(tmp_path, seed):
    scen = _write(tmp_path / "s.scn",
                  "n_subjects: 5\nn_trials: 30\ntrend: undulating "
                  "amplitude=1.0\nfixed: factor2(cond) effect=0.8\n"
                  "fixed: numeric(dose) effect=0.3\nrho: 0.3\n"
                  "subject_intercept_sd: 0.5\n")
    out, oracle = tmp_path / "out", tmp_path / "oracle"
    assert main(["simulate", "--spec", scen, "--out", str(out),
                 "--seed", str(seed)]) == 0
    oracle.mkdir()
    from dataclasses import replace
    scenario = replace(cli.parse_scenario_file(scen), seed=seed)
    table, truth = gen_experiment(scenario)
    _oracle_simulated(oracle / "simulated.csv", table)
    _oracle_truth(oracle / "truth.json", scenario, truth)
    _assert_same_bytes(oracle, out, ["simulated.csv", "truth.json"])


def test_simulated_writer_quotes_levels_and_formats_trial(tmp_path):
    names = ['x,y', 'q"r', "plain", "line\nbreak", "cr\rx"]
    codes = np.array([0, 1, 2, 3, 4, 2, 1, 0])
    table = DataTable(columns={
        "sub,ject": FactorColumn(codes, tuple(sorted(names))),
        "trial": np.array([1.0, 2.0, 1e6, 2.5e-5, 123456789.0, -0.0, 7.0,
                           1e21]),
        "y": np.array([0.1, -0.0, 1e-300, 1e16, math.pi, -2.5, 1 / 3,
                       5e-324])}, n_rows=8)
    cli._write_simulated(str(tmp_path / "new.csv"), table)
    _oracle_simulated(tmp_path / "old.csv", table)
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()


def test_csv_cell_matches_csv_writer():
    texts = ["", "a", " a ", "a,b", 'a"b', '"', "a\nb", "a\rb", "a'b", "\t",
             "é", "#x", "NA", ";", 'x,"y"']
    for text in texts:
        buf = io.StringIO()
        csv.writer(buf).writerow([text, "z"])
        assert cli._csv_cell(text) + ",z\r\n" == buf.getvalue(), text


@pytest.mark.parametrize("n", [data_mod._CHUNK - 1, data_mod._CHUNK,
                               data_mod._CHUNK + 1])
def test_chunked_writers_equal_the_unchunked_join(tmp_path, n):
    """Around one chunk of rows, every kind of column _write_columns takes
    gives the bytes of one join over whole columns of cell text, and the
    simulated.csv writer those of its per-row oracle."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    codes = rng.integers(0, len(SUBJECTS), n)
    levels = tuple(sorted(SUBJECTS))
    text = [f"t{i}" for i in range(n)]
    cli._write_columns(str(tmp_path / "new.csv"), ["x", "level", "g", "i",
                                                     "text"],
                       [x, FactorColumn(codes, levels),
                        ("{:g}".format, x), np.arange(n), text])
    whole = [list(map(repr, x.tolist())),
             [cli._csv_cell(levels[c]) for c in codes],
             list(map("{:g}".format, x.tolist())),
             list(map(str, range(n))), text]
    lines = ['x,level,g,i,text'] + list(map(",".join, zip(*whole)))
    assert (tmp_path / "new.csv").read_bytes() == \
        ("\r\n".join(lines) + "\r\n").encode()
    table = DataTable(columns={
        "subject": FactorColumn(codes, levels),
        "trial": np.arange(n, dtype=np.float64) % 150 + 1.0,
        "y": x}, n_rows=n)
    cli._write_simulated(str(tmp_path / "sim.csv"), table)
    _oracle_simulated(tmp_path / "oracle.csv", table)
    assert (tmp_path / "sim.csv").read_bytes() == \
        (tmp_path / "oracle.csv").read_bytes()


def test_write_columns_writes_crlf_lines(tmp_path):
    cli._write_columns(str(tmp_path / "t.csv"), ["a", "b,c"],
                       [["1", "2"], ["x", "y"]])
    assert (tmp_path / "t.csv").read_bytes() == b'a,"b,c"\r\n1,x\r\n2,y\r\n'
    assert re.fullmatch(rb"(.*\r\n)+", (tmp_path / "t.csv").read_bytes())
