"""Batch command-line front end.

Commands: fit, predict, compare, acf, suggest-rho, permtest, simulate.
Models are declared in a line-oriented spec file::

    # comment lines start with '#'
    response: logRT
    parametric: size*orientation coding=sum
    smooth: s(soa) k=10
    smooth: fs(trial, subject) k=5
    smooth: te(freq, trial) k=5,5
    random: intercept(word)
    rho: 0.2
    series: subject order: trial

Smooth functions: s (thin plate), tp (alias of s), cr, poly, te, ti, fs;
random effects: intercept(factor), slope(factor, covariate). Options per
smooth line: k=<int[,int]>, m=<int> (s and tp only), by=<factor> (not on
fs). Each line parses straight into ModelSpec terms; an error names its
line. Spec and scenario files are UTF-8, with an optional byte-order mark.

Each command declares only the options it reads. main runs it inside the
one error frame: a GammkitError, OSError or ValueError (SpecFileError
among them) removes every file the command wrote, prints one line naming
the stage it was in and exits 1.

Only the standard library and gammkit.terms are imported at module load,
so --help and spec-file errors need no numpy; numeric modules are imported
inside the command functions.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from datetime import datetime, timezone

from .errors import GammkitError, ParseError
from .terms import ModelSpec, ParametricTerm, SmoothTermSpec


# ---------------------------------------------------------------------------
# model-spec file parsing (pure string work, no numpy)

_SMOOTH_RX = re.compile(r"^(s|tp|cr|poly|te|ti|fs)\(([^)]*)\)\s*(.*)$")
_RANDOM_RX = re.compile(r"^(intercept|slope)\(([^)]*)\)\s*$")
_SERIES_RX = re.compile(r"^(\S+)\s+order:\s*(\S+)$")


class SpecFileError(ValueError):
    """Raised for malformed model-spec files, with the line number."""


def _key_lines(path: str):
    """(line number, key, value) of each 'key: value' line of a spec or
    scenario file, read as UTF-8 with an optional byte-order mark: '#'
    starts a comment, blank lines are skipped and the key ends at the first
    colon; both parts are stripped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise SpecFileError(f"{path}: byte 0x{exc.object[exc.start]:02x} is "
                            f"not UTF-8 text ({exc.reason})") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise SpecFileError(f"line {lineno}: expected 'key: value', "
                                f"got {line!r}")
        key, value = line.split(":", 1)
        yield lineno, key.strip(), value.strip()


@contextmanager
def _line(lineno: int):
    """Turn a GammkitError raised while reading one line into a
    SpecFileError naming the line."""
    try:
        yield
    except GammkitError as exc:
        raise SpecFileError(f"line {lineno}: {exc}") from None


def _convert(kind, text: str, what: str):
    """kind(text), or a ParseError naming what text is."""
    try:
        return kind(text)
    except ValueError:
        raise ParseError(f"bad {what} {text!r}") from None


def _parse_options(text: str) -> dict:
    opts = {}
    for piece in text.split():
        if "=" not in piece:
            raise ParseError(f"expected key=value, got {piece!r}")
        key, value = piece.split("=", 1)
        if not value:
            raise ParseError(f"option {key!r} has no value")
        if key in opts:
            raise ParseError(f"option {key!r} given twice")
        opts[key] = value
    return opts


def _int_list(text: str):
    parts = [int(v) for v in text.split(",")]
    return parts[0] if len(parts) == 1 else tuple(parts)


def _parametric_terms(value: str) -> list:
    """The terms of a 'parametric:' line: a*b is a, b and a:b."""
    words = value.split()
    opts = _parse_options(" ".join(w for w in words if w.startswith("coding=")))
    expr = "".join(w for w in words if not w.startswith("coding="))
    if not expr:
        raise ParseError("empty parametric term")
    names = []
    for term in expr.split("+"):
        if "*" in term:
            a, b = term.split("*", 1)
            names += [(a,), (b,), (a, b)]
        else:
            names.append(tuple(term.split(":")))
    return [ParametricTerm(names=n, coding=opts.get("coding", "sum"))
            for n in names]


def _smooth_term(value: str) -> SmoothTermSpec:
    """The term of a 'smooth:' line; fs(x, g) is a cr smooth of x per g."""
    m = _SMOOTH_RX.match(value)
    if not m:
        raise ParseError(f"cannot parse smooth term {value!r}")
    fn, args, rest = m.groups()
    covs = tuple(a.strip() for a in args.split(",") if a.strip())
    if not covs:
        raise ParseError("smooth needs arguments")
    opts = _parse_options(rest)
    k = _convert(_int_list, opts["k"], "k value") if "k" in opts else None
    order = _convert(int, opts["m"], "m value") if "m" in opts else None
    unknown = set(opts) - {"k", "m", "by"}
    if unknown:
        raise ParseError(f"unknown options {sorted(unknown)}")
    group = None
    if fn == "fs":
        fn, covs, group = "cr", covs[:-1], covs[-1]
    return SmoothTermSpec(covariates=covs,
                          basis_kind={"s": "tp", "te": "tensor"}.get(fn, fn),
                          k=k, m=order, by=opts.get("by"), fs_group=group)


def _random_term(value: str) -> SmoothTermSpec:
    m = _RANDOM_RX.match(value)
    if not m:
        raise ParseError(f"cannot parse random term {value!r}")
    fn, args = m.groups()
    covs = tuple(a.strip() for a in args.split(",") if a.strip())
    want = 1 if fn == "intercept" else 2
    if len(covs) != want:
        raise ParseError(f"{fn} takes {want} argument(s)")
    return SmoothTermSpec(covariates=covs, is_random_effect=True)


def parse_spec_file(path: str):
    """Parse the line-oriented model file: (ModelSpec, (series key, order
    key)), both keys None without a 'series:' line."""
    response, rho, keys = None, 0.0, (None, None)
    parametric, smooths = [], []
    for lineno, key, value in _key_lines(path):
        key = key.lower()
        with _line(lineno):
            if key == "response":
                response = value
            elif key == "parametric":
                parametric += _parametric_terms(value)
            elif key == "smooth":
                smooths.append(_smooth_term(value))
            elif key == "random":
                smooths.append(_random_term(value))
            elif key == "rho":
                rho = _convert(float, value, "rho")
            elif key == "series":
                m = _SERIES_RX.match(value)
                if not m:
                    raise ParseError("expected 'series: NAME order: NAME'")
                keys = m.groups()
            else:
                raise ParseError(f"unknown key {key!r}")
    if response is None:
        raise SpecFileError("spec file never sets 'response:'")
    return ModelSpec(response=response, parametric_terms=parametric,
                     smooth_terms=smooths, rho=rho), keys


def _column_roles(specs, keys) -> dict:
    """Column role map for load_csv, read off the terms of specs (one
    response): the response, the series and order keys, each smooth's
    columns in term order (its factors as factors), then parametric-only
    columns as "auto"."""
    roles: dict[str, str] = {specs[0].response: "numeric"}

    def put(name, role):
        if roles.get(name, role) != role:
            raise SpecFileError(f"column {name!r} used as both numeric "
                                f"and factor")
        roles[name] = role

    if keys[0]:
        put(keys[0], "factor")
        put(keys[1], "numeric")
    for term in (t for spec in specs for t in spec.smooth_terms):
        for c in term.columns:
            put(c, "factor" if c in term.factors else "numeric")
    for term in (t for spec in specs for t in spec.parametric_terms):
        for name in term.names:
            roles.setdefault(name, "auto")
    return roles


# ---------------------------------------------------------------------------
# output helpers


class OutputTracker:
    """Records files written by a command so failures can clean them up."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.paths: list[str] = []
        self.stage = "startup"

    def path(self, name: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        p = os.path.join(self.out_dir, name)
        self.paths.append(p)
        return p

    def discard_all(self):
        for p in self.paths:
            try:
                os.unlink(p)
            except OSError:
                pass


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return f"{x:.4f}"


def _fmt_p(p) -> str:
    if p is None or (isinstance(p, float) and math.isnan(p)):
        return "nan"
    return "< 0.0001" if p < 1e-4 else f"{p:.4f}"


def _write_table(fh, headers, rows, delimited: bool):
    if delimited:
        fh.write("\t".join(headers) + "\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")
        return
    name_w = max([len(headers[0])] + [len(r[0]) for r in rows]) + 2
    col_w = [max(len(h), 10) for h in headers[1:]]
    fh.write(headers[0].ljust(name_w)
             + "".join(h.rjust(w + 2) for h, w in zip(headers[1:], col_w))
             + "\n")
    for row in rows:
        fh.write(row[0].ljust(name_w)
                 + "".join(c.rjust(w + 2) for c, w in zip(row[1:], col_w))
                 + "\n")


_NEEDS_QUOTES = re.compile(r'[,"\r\n]').search


def _csv_cell(text: str) -> str:
    """text as one cell of csv.writer's default dialect (RFC 4180 quoting)."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES(text) else text


def _se(vb):
    """sqrt(max(v, 0)) of vb's diagonal, with Python's max (NaN stays NaN)."""
    import numpy as np
    d = np.diag(vb)
    return np.sqrt(np.where(0.0 > d, 0.0, d))


def _pvalue_cell(p: float) -> str:
    """A p-value's repr; NaN (a failed fit) is an empty cell."""
    return "" if math.isnan(p) else repr(p)


def _write_columns(path: str, headers, columns):
    """Write headers plus equal-length columns in CRLF lines, as csv.writer
    writes them, formatting _CHUNK rows at a time. A column is an array
    (each value's repr: the shortest round trip of a float), a FactorColumn
    (each code's level name, quoted once per level), a (format, array) pair
    or a list of cell text, quoted already."""
    import numpy as np

    from .data import _CHUNK, FactorColumn
    sources = []
    for col in columns:
        if isinstance(col, FactorColumn):
            col = ([_csv_cell(name) for name in col.levels].__getitem__,
                   col.codes)
        elif isinstance(col, np.ndarray):
            col = (repr, col)
        elif not isinstance(col, tuple):
            col = (None, col)
        sources.append(col)
    n = len(sources[0][1]) if sources else 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(_csv_cell, headers)) + "\r\n")
        for a in range(0, n, _CHUNK):
            cells = [values[a:a + _CHUNK] if fmt is None
                     else map(fmt, values[a:a + _CHUNK].tolist())
                     for fmt, values in sources]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


# ---------------------------------------------------------------------------
# commands


def _load_table(specs, keys, data_path: str):
    from .data import load_csv
    return load_csv(data_path, _column_roles(specs, keys),
                    series_key=keys[0], order_key=keys[1])


def _parse_spec(path: str, rho=None):
    """parse_spec_file(path), with rho replacing the file's unless None."""
    spec, keys = parse_spec_file(path)
    return (spec if rho is None else replace(spec, rho=rho)), keys


def _read_inputs(args, tracker: OutputTracker, rho=None):
    """Parse --spec into a ModelSpec, then load --data, advancing
    tracker.stage: (ModelSpec, table)."""
    tracker.stage = "parse-spec"
    spec, keys = _parse_spec(args.spec, rho)
    tracker.stage = "load-data"
    return spec, _load_table([spec], keys, args.data)


def _fit_from_args(args, tracker: OutputTracker):
    """Read the inputs (--rho overriding the spec's) and fit."""
    spec, table = _read_inputs(args, tracker, args.rho)
    tracker.stage = "fit"
    from .fitting import fit
    return fit(spec, table)


def _summary_sections(model):
    """(parametric rows, smooth rows) for the two-section summary table."""
    from scipy.stats import t as t_dist

    from .inference import wald_columns, wald_term_test

    design = model.design_raw
    df_resid = model.n - model.total_edf
    par_rows = []
    stop = design.n_parametric_cols
    for j in range(stop):
        est = model.beta[j]
        se = math.sqrt(max(model.vb[j, j], 0.0))
        if se > 0 and df_resid > 0:
            tval = est / se
            p = 2.0 * float(t_dist.sf(abs(tval), df_resid))
        else:
            tval, p = math.nan, math.nan
        par_rows.append([design.coef_names[j], _fmt(est), _fmt(se),
                         _fmt(tval), _fmt_p(p)])
    smooth_rows = []
    for term in model.spec.smooth_terms:
        if term.by is None:
            rows = [wald_term_test(model, term.label)]
        else:                       # one row per level of the by factor
            t, base = design.terms[term.label], term.label.split(":")[0]
            a, k = t.cols[0], t.k
            rows = [wald_columns(model, a + j * k, a + (j + 1) * k,
                                 f"{base}:{lev}")
                    for j, lev in enumerate(design.table.factor(term.by).levels)]
        smooth_rows += [[row.term, _fmt(row.edf), _fmt(row.ref_df),
                         _fmt(row.statistic), _fmt_p(row.p)] for row in rows]
    return par_rows, smooth_rows


def _write_summary(path: str, model, delimited: bool):
    from .inference import aic
    par_rows, smooth_rows = _summary_sections(model)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"response: {model.spec.response}    n = {model.n}    "
                 f"rho = {model.spec.rho:.4f}\n")
        fh.write(f"REML = {_fmt(model.reml)}    AIC = {_fmt(aic(model))}    "
                 f"sigma2 = {_fmt(model.sigma2)}    "
                 f"total edf = {_fmt(model.total_edf)}\n")
        if not model.converged:
            fh.write("warning: smoothing-parameter search did not converge\n")
        if model.ridged:
            fh.write("warning: ridge fallback used for a singular system\n")
        fh.write("\nA. parametric coefficients\n")
        _write_table(fh, ["term", "Estimate", "SE", "t-value", "p-value"],
                     par_rows, delimited)
        fh.write("\nB. smooth terms (approximate significance)\n")
        if smooth_rows:
            _write_table(fh, ["term", "edf", "Ref.df", "F-value", "p-value"],
                         smooth_rows, delimited)
        else:
            fh.write("(none)\n")


def _write_coefficients(path: str, model):
    _write_columns(path, ["name", "estimate", "se"],
                   [list(map(_csv_cell, model.coef_names)), model.beta,
                    _se(model.vb)])


def _row_keys(model):
    """Leading (headers, columns) of a per-row output: series and order, or
    row. Each distinct order value is formatted once; values are distinct
    by their bits, so -0.0 and 0.0 keep their own text."""
    import numpy as np
    design = model.design_raw
    if design.series_codes is None:
        return ["row"], [np.arange(model.n)]
    bits, codes = np.unique(design.order_values.view(np.int64),
                            return_inverse=True)
    order = list(map(repr, bits.view(np.float64).tolist()))
    return ["series", "order"], [design.table.factor(design.table.series_key),
                                 (order.__getitem__, codes)]


def _write_residuals(path: str, model):
    headers, columns = _row_keys(model)
    _write_columns(path, headers + ["raw", "whitened"],
                   columns + [model.residuals_raw, model.residuals_whitened])


def _safe_name(label: str) -> str:
    return re.sub(r"_+", "_", re.sub(r"[^A-Za-z0-9]+", "_", label)).strip("_")


def _write_partials(tracker: OutputTracker, model):
    """partial_<term>.csv per smooth. A random effect lists each level's
    coefficient and SE; any other term is one partial_effect call over its
    grid: 100 points of its numeric covariate or 40 x 40 of its two
    (meshgrid "ij" order), crossed for a per-level term with its factor's
    levels (levels outer). Columns: [level,] covariates, effect, se."""
    import numpy as np

    from .data import DataTable, FactorColumn
    from .fitting import partial_effect

    design, table = model.design_raw, model.design_raw.table
    for term in model.spec.smooth_terms:
        label = term.label
        path = tracker.path(f"partial_{_safe_name(label)}.csv")
        a = design.terms[label].cols[0]
        if term.is_random_effect:
            levels = table.factor(term.factors[0]).levels
            b = a + len(levels)
            _write_columns(path, ["level", "effect", "se"],
                           [list(map(_csv_cell, levels)), model.beta[a:b],
                            _se(model.vb[a:b, a:b])])
            continue
        numeric = term.covariates
        m = 100 if len(numeric) == 1 else 40
        axes = [np.linspace(float(x.min()), float(x.max()), m)
                for x in map(table.numeric, numeric)]
        columns = {name: g.ravel() for name, g in
                   zip(numeric, np.meshgrid(*axes, indexing="ij"))}
        headers, cells = [], []
        if term.factors:                     # a per-level term
            (name,) = term.factors
            fac = table.factor(name)
            codes = np.repeat(np.arange(fac.n_levels), m ** len(numeric))
            columns = {c: np.tile(x, fac.n_levels) for c, x in columns.items()}
            columns[name] = FactorColumn(codes, fac.levels)
            headers, cells = ["level"], [columns[name]]
        effect, se = partial_effect(model, label, DataTable(
            columns=columns, n_rows=len(columns[numeric[0]])))
        _write_columns(path, [*headers, *numeric, "effect", "se"],
                       cells + [columns[c] for c in numeric] + [effect, se])


def _write_fit_json(path: str, model, args):
    from .inference import aic
    record = {
        "command": "fit",
        "data": args.data,
        "spec": args.spec,
        "response": model.spec.response,
        "n": model.n,
        "p": model.p,
        "rho": model.spec.rho,
        "lambdas": [float(v) for v in model.lambdas],
        "penalty_labels": [e.label for e in model.design_raw.penalties],
        "reml": None if math.isnan(model.reml) else float(model.reml),
        "aic": float(aic(model)),
        "sigma2": None if math.isnan(model.sigma2) else float(model.sigma2),
        "total_edf": float(model.total_edf),
        "converged": bool(model.converged),
        "ridged": bool(model.ridged),
        "n_eval": int(model.n_eval),
        "grad_max": float(model.grad_max),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_fit(args, tracker: OutputTracker):
    model = _fit_from_args(args, tracker)
    tracker.stage = "write-output"
    _write_summary(tracker.path("summary.txt"), model,
                   args.format == "delimited")
    _write_coefficients(tracker.path("coefficients.csv"), model)
    _write_residuals(tracker.path("residuals.csv"), model)
    _write_partials(tracker, model)
    _write_fit_json(tracker.path("fit.json"), model, args)


def cmd_predict(args, tracker: OutputTracker):
    model = _fit_from_args(args, tracker)
    tracker.stage = "predict"
    from .fitting import predict
    mean, se = predict(model, model.table)
    tracker.stage = "write-output"
    headers, columns = _row_keys(model)
    _write_columns(tracker.path("predictions.csv"),
                   headers + ["observed", "fit", "se"],
                   columns + [model.design_raw.y, mean, se])


def cmd_compare(args, tracker: OutputTracker):
    if len(args.spec) != 2:
        raise SpecFileError("compare needs exactly two --spec files")
    tracker.stage = "parse-spec"
    specs, keys = zip(*(_parse_spec(p, args.rho) for p in args.spec))
    if specs[0].response != specs[1].response:
        raise SpecFileError("the two specs model different responses: "
                            f"{specs[0].response!r} vs {specs[1].response!r}")
    if keys[0] != keys[1]:
        raise SpecFileError("the two specs declare different "
                            "series/order keys")
    if specs[0] == specs[1]:
        raise SpecFileError("the two spec files declare identical models")
    tracker.stage = "load-data"
    table = _load_table(specs, keys[0], args.data)
    tracker.stage = "fit"
    from .fitting import fit
    from .inference import aic, compare_reml
    models = [fit(s, table) for s in specs]
    tracker.stage = "compare"
    result = compare_reml(models[0], models[1])
    tracker.stage = "write-output"
    with open(tracker.path("comparison.txt"), "w", encoding="utf-8") as fh:
        for pth, m in zip(args.spec, models):
            fh.write(f"model: {pth}  AIC = {_fmt(aic(m))}  "
                     f"REML = {_fmt(m.reml)}  "
                     f"params = {m.param_count}\n")
        if result.verdict == "simpler_and_better":
            fh.write("comparison: the model with fewer parameters also "
                     "has the lower REML score (simpler and better); "
                     "no test performed\n")
        else:
            fh.write(f"comparison: Chisq = {_fmt(result.stat)}  "
                     f"df = {result.df}  p = {_fmt_p(result.p)}\n")


def cmd_acf(args, tracker: OutputTracker):
    model = _fit_from_args(args, tracker)
    tracker.stage = "acf"
    from .diagnostics import residual_acf_by_group
    for which in ("raw", "whitened"):
        results = residual_acf_by_group(model, which,
                                        max_lag=args.max_lag)
        _write_acf(tracker.path(f"acf_{which}.csv"), results)


def cmd_suggest_rho(args, tracker: OutputTracker):
    spec, table = _read_inputs(args, tracker)
    tracker.stage = "suggest-rho"
    from .diagnostics import suggest_rho
    suggestion = suggest_rho(table, spec)
    tracker.stage = "write-output"
    with open(tracker.path("rho.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"{suggestion.rho_hat:.6f}\n")
    _write_columns(tracker.path("rho_by_group.csv"), ["group", "lag1"],
                   [list(map(_csv_cell, suggestion.groups)),
                    suggestion.per_group])


def cmd_permtest(args, tracker: OutputTracker):
    spec, table = _read_inputs(args, tracker)
    tracker.stage = "permtest"
    from .diagnostics import permutation_fs_test
    result = permutation_fs_test(table, spec.response,
                                 n_perm=args.n_perm, seed=args.seed)
    tracker.stage = "write-output"
    _write_pvalues(tracker.path("permtest_pvalues.csv"), result.p_values)
    with open(tracker.path("permtest_counts.txt"), "w",
              encoding="utf-8") as fh:
        n = args.n_perm
        fh.write(f"alpha=0.05 rejections={result.rejections_at(0.05)} "
                 f"of {n}\n")
        fh.write(f"alpha=0.01 rejections={result.rejections_at(0.01)} "
                 f"of {n}\n")
    if result.n_failed:
        print(f"gammkit: {result.n_failed} permutation fits failed",
              file=sys.stderr)


def _write_acf(path: str, results):
    """One row per group and lag; every group's rows share its band and n."""
    import numpy as np

    from .data import FactorColumn
    sizes = [len(r.lags) for r in results]
    groups = FactorColumn(np.repeat(np.arange(len(results)), sizes),
                          tuple(r.group for r in results))
    _write_columns(path, ["group", "lag", "acf", "band", "n"], [
        groups, np.concatenate([r.lags for r in results]),
        np.concatenate([r.acf for r in results]),
        np.repeat([float(r.band) for r in results], sizes),
        np.repeat([r.n for r in results], sizes)])


def _write_pvalues(path: str, p_values):
    """One row per permutation; a NaN p-value (failed fit) is an empty cell."""
    import numpy as np
    p_values = np.asarray(p_values, dtype=np.float64)
    _write_columns(path, ["perm", "p"], [np.arange(len(p_values)),
                                         (_pvalue_cell, p_values)])


def _write_simulated(path: str, table):
    """Every column of the table; a numeric trial is written in "{:g}" form."""
    from .data import FactorColumn
    _write_columns(path, table.column_names(), [
        ("{:g}".format, col)
        if name == "trial" and not isinstance(col, FactorColumn) else col
        for name, col in table.columns.items()])


def parse_scenario_file(path: str):
    """Parse the simulate command's scenario file (imports numpy lazily).
    Counts default to 10 subjects x 100 trials, the rest to ScenarioSpec's
    defaults."""
    from .simulate import FixedEffect, ScenarioSpec
    given = {"n_subjects": 10, "n_trials": 100}
    fixed = []
    fx_rx = re.compile(r"^(factor2|numeric)\((\w+)\)\s+effect=([-\d.eE+]+)$")
    for lineno, key, value in _key_lines(path):
        with _line(lineno):
            if key == "fixed":
                m = fx_rx.match(value)
                if not m:
                    raise ParseError(f"cannot parse fixed effect {value!r}")
                kind, name, eff = m.groups()
                fixed.append(FixedEffect(name=name, kind=kind, effect=_convert(
                    float, eff, "effect")))
            elif key == "trend":
                words = value.split()
                given["trend"] = words[0]
                for w in words[1:]:
                    if not w.startswith("amplitude="):
                        raise ParseError(f"unknown trend option {w!r}")
                    given["trend_amplitude"] = _convert(
                        float, w.split("=", 1)[1], "amplitude")
            elif key in ("n_subjects", "n_trials", "seed"):
                given[key] = _convert(int, value, key)
            elif key in ("rho", "sigma", "subject_intercept_sd", "mean",
                         "trend_amplitude"):
                given[key] = _convert(float, value, key)
            else:
                raise ParseError(f"unknown key {key!r}")
    return ScenarioSpec(fixed_effects=tuple(fixed), **given)


def cmd_simulate(args, tracker: OutputTracker):
    tracker.stage = "parse-scenario"
    scenario = parse_scenario_file(args.spec)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    tracker.stage = "simulate"
    from .simulate import gen_experiment
    table, truth = gen_experiment(scenario)
    tracker.stage = "write-output"
    _write_simulated(tracker.path("simulated.csv"), table)
    record = {
        "scenario": {f.name: getattr(scenario, f.name)
                     for f in fields(scenario) if f.name != "fixed_effects"},
        "effects": truth.effects,
        "subject_intercepts": [float(v) for v in truth.subject_intercepts],
        "trends": [[float(v) for v in row] for row in truth.trends],
        "errors": [[float(v) for v in row] for row in truth.errors],
    }
    with open(tracker.path("truth.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged. Each command declares only the options it reads."""
    parser = argparse.ArgumentParser(
        prog="gammkit",
        description="Penalized-spline additive mixed models with AR(1) "
                    "errors: batch fitting, comparison, and diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, text, data=True, rho=True,
                spec="model spec file", spec_action="store"):
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        if data:
            p.add_argument("--data", required=True,
                           help="CSV file of observations")
        p.add_argument("--spec", required=True, action=spec_action, help=spec)
        p.add_argument("--out", required=True, help="output directory")
        if rho:
            p.add_argument("--rho", type=float, default=None,
                           help="override the spec file's AR(1) rho")
        return p

    p_fit = command("fit", cmd_fit, "fit one model, write summary tables")
    p_fit.add_argument("--format", choices=("text", "delimited"),
                       default="text", help="summary table format")
    command("predict", cmd_predict, "fit, then write fitted values with SEs")
    command("compare", cmd_compare, "fit two specs, compare scores",
            spec="model spec file (give twice)", spec_action="append")
    p_acf = command("acf", cmd_acf, "per-series residual ACFs")
    p_acf.add_argument("--max-lag", type=int, default=30)
    command("suggest-rho", cmd_suggest_rho,
            "estimate AR(1) rho from a pilot fit", rho=False)
    p_perm = command("permtest", cmd_permtest,
                     "permutation type-I check for the factor smooth",
                     rho=False)
    p_perm.add_argument("--n-perm", type=int, default=100)
    p_perm.add_argument("--seed", type=int, default=0,
                        help="permutation RNG seed")
    p_sim = command("simulate", cmd_simulate,
                    "generate a synthetic experiment", data=False, rho=False,
                    spec="scenario file")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the scenario file's seed")
    return parser


def main(argv=None) -> int:
    """Run one command. An error in it removes every file it wrote and
    prints one line naming its stage: exit status 1."""
    args = _build_parser().parse_args(argv)
    tracker = OutputTracker(args.out)
    try:
        args.func(args, tracker)
    except (GammkitError, OSError, ValueError) as exc:
        tracker.discard_all()
        msg = " ".join((str(exc) or exc.__class__.__name__).split())
        print(f"gammkit: error at stage {tracker.stage!r}: {msg}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
