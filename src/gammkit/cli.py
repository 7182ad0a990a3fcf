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
smooth line: k=<int[,int]>, m=<int>, by=<factor>.

Each command declares only the options it reads. main runs it inside the
one error frame: a GammkitError, OSError or ValueError (SpecFileError
among them) removes every file the command wrote, prints one line naming
the stage it was in and exits 1.

Only the standard library is imported at module load, so --help and
spec-file errors need no numpy; numeric modules are imported inside the
command functions.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from datetime import datetime, timezone

from .errors import GammkitError


# ---------------------------------------------------------------------------
# model-spec file parsing (pure string work, no numpy)

_SMOOTH_RX = re.compile(r"^(s|tp|cr|poly|te|ti|fs)\(([^)]*)\)\s*(.*)$")
_RANDOM_RX = re.compile(r"^(intercept|slope)\(([^)]*)\)\s*$")
_SERIES_RX = re.compile(r"^(\S+)\s+order:\s*(\S+)$")


class SpecFileError(ValueError):
    """Raised for malformed model-spec files, with the line number."""


def _key_lines(path: str):
    """(line number, key, value) of each 'key: value' line of a spec or
    scenario file: '#' starts a comment, blank lines are skipped and the
    key ends at the first colon; both parts are stripped."""
    with open(path) as fh:
        lines = fh.readlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise SpecFileError(f"line {lineno}: expected 'key: value', "
                                f"got {line!r}")
        key, value = line.split(":", 1)
        yield lineno, key.strip(), value.strip()


def _convert(kind, text: str, lineno: int, what: str):
    """kind(text), or a SpecFileError naming the line."""
    try:
        return kind(text)
    except ValueError:
        raise SpecFileError(f"line {lineno}: bad {what} {text!r}") from None


def _parse_options(text: str, lineno: int) -> dict:
    opts = {}
    for piece in text.split():
        if "=" not in piece:
            raise SpecFileError(f"line {lineno}: expected key=value, "
                                f"got {piece!r}")
        key, val = piece.split("=", 1)
        opts[key] = val
    return opts


def _int_list(text: str):
    parts = [int(v) for v in text.split(",")]
    return parts[0] if len(parts) == 1 else tuple(parts)


def parse_spec_file(path: str) -> dict:
    """Parse the line-oriented model file into a plain dict.

    Returns keys: response, parametric (list of (names tuple, coding)),
    smooths (list of dicts), rho, series_key, order_key.
    """
    out = {"response": None, "parametric": [], "smooths": [], "rho": 0.0,
           "series_key": None, "order_key": None}
    for lineno, key, value in _key_lines(path):
        key = key.lower()
        if key == "response":
            out["response"] = value
        elif key == "parametric":
            words = value.split()
            coding = "sum"
            expr_words = []
            for w in words:
                if w.startswith("coding="):
                    coding = w.split("=", 1)[1]
                else:
                    expr_words.append(w)
            expr = "".join(expr_words)
            if not expr:
                raise SpecFileError(f"line {lineno}: empty parametric term")
            for term in expr.split("+"):
                if "*" in term:
                    a, b = term.split("*", 1)
                    out["parametric"] += [((a,), coding), ((b,), coding),
                                          ((a, b), coding)]
                elif ":" in term:
                    out["parametric"].append((tuple(term.split(":")), coding))
                else:
                    out["parametric"].append(((term,), coding))
        elif key == "smooth":
            m = _SMOOTH_RX.match(value)
            if not m:
                raise SpecFileError(f"line {lineno}: cannot parse smooth "
                                    f"term {value!r}")
            fn, args, rest = m.groups()
            covs = tuple(a.strip() for a in args.split(",") if a.strip())
            if not covs:
                raise SpecFileError(f"line {lineno}: smooth needs arguments")
            opts = _parse_options(rest, lineno)
            term = {"fn": fn, "covariates": covs,
                    "k": _convert(_int_list, opts["k"], lineno, "k value")
                    if "k" in opts else None,
                    "m": _convert(int, opts["m"], lineno, "m value")
                    if "m" in opts else 2,
                    "by": opts.get("by")}
            unknown = set(opts) - {"k", "m", "by"}
            if unknown:
                raise SpecFileError(f"line {lineno}: unknown options "
                                    f"{sorted(unknown)}")
            if fn == "fs" and len(covs) != 2:
                raise SpecFileError(f"line {lineno}: fs takes "
                                    f"(covariate, factor)")
            out["smooths"].append(term)
        elif key == "random":
            m = _RANDOM_RX.match(value)
            if not m:
                raise SpecFileError(f"line {lineno}: cannot parse random "
                                    f"term {value!r}")
            fn, args = m.groups()
            covs = tuple(a.strip() for a in args.split(",") if a.strip())
            want = 1 if fn == "intercept" else 2
            if len(covs) != want:
                raise SpecFileError(f"line {lineno}: {fn} takes {want} "
                                    f"argument(s)")
            out["smooths"].append({"fn": "re", "covariates": covs,
                                   "k": None, "m": 2, "by": None})
        elif key == "rho":
            out["rho"] = _convert(float, value, lineno, "rho")
        elif key == "series":
            m = _SERIES_RX.match(value)
            if not m:
                raise SpecFileError(f"line {lineno}: expected "
                                    f"'series: NAME order: NAME'")
            out["series_key"], out["order_key"] = m.groups()
        else:
            raise SpecFileError(f"line {lineno}: unknown key {key!r}")
    if out["response"] is None:
        raise SpecFileError("spec file never sets 'response:'")
    return out


def build_model_spec(parsed: dict, rho_override: float | None = None):
    """Turn a parsed spec-file dict into a ModelSpec (imports numpy)."""
    from .basis import SmoothTermSpec
    from .fitting import ModelSpec, ParametricTerm

    parametric = tuple(ParametricTerm(names=names, coding=coding)
                       for names, coding in parsed["parametric"])
    smooths = []
    for t in parsed["smooths"]:
        fn = t["fn"]
        if fn == "re":
            smooths.append(SmoothTermSpec(covariates=t["covariates"],
                                          is_random_effect=True))
        elif fn == "fs":
            smooths.append(SmoothTermSpec(covariates=(t["covariates"][0],),
                                          basis_kind="cr", k=t["k"],
                                          m=t["m"],
                                          fs_group=t["covariates"][1]))
        else:
            kind = {"s": "tp", "te": "tensor"}.get(fn, fn)
            smooths.append(SmoothTermSpec(covariates=t["covariates"],
                                          basis_kind=kind, k=t["k"],
                                          m=t["m"], by=t["by"]))
    rho = parsed["rho"] if rho_override is None else rho_override
    return ModelSpec(response=parsed["response"], parametric_terms=parametric,
                     smooth_terms=tuple(smooths), rho=rho)


def _infer_schema(parsed: dict) -> dict:
    """Column role map for load_csv; parametric-only columns are "auto"."""
    schema: dict[str, str] = {parsed["response"]: "numeric"}

    def put(name, role):
        if schema.get(name, role) != role:
            raise SpecFileError(f"column {name!r} used as both numeric "
                                f"and factor")
        schema[name] = role

    if parsed["series_key"]:
        put(parsed["series_key"], "factor")
        put(parsed["order_key"], "numeric")
    for t in parsed["smooths"]:
        covs = t["covariates"]
        if t["fn"] == "re":
            put(covs[0], "factor")
            if len(covs) > 1:
                put(covs[1], "numeric")
        elif t["fn"] == "fs":
            put(covs[0], "numeric")
            put(covs[1], "factor")
        else:
            for c in covs:
                put(c, "numeric")
        if t.get("by"):
            put(t["by"], "factor")
    for names, _ in parsed["parametric"]:
        for name in names:
            schema.setdefault(name, "auto")
    return schema


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


def _load_table(parsed: dict, data_path: str):
    from .data import load_csv
    schema = _infer_schema(parsed)
    return load_csv(data_path, schema, series_key=parsed["series_key"],
                    order_key=parsed["order_key"])


def _read_inputs(args, tracker: OutputTracker, rho_override=None):
    """Parse --spec into a ModelSpec, then load --data, advancing
    tracker.stage: (parsed spec file, ModelSpec, table)."""
    tracker.stage = "parse-spec"
    parsed = parse_spec_file(args.spec)
    spec = build_model_spec(parsed, rho_override)
    tracker.stage = "load-data"
    return parsed, spec, _load_table(parsed, args.data)


def _fit_from_args(args, tracker: OutputTracker):
    """Read the inputs (--rho overriding the spec's) and fit."""
    _, spec, table = _read_inputs(args, tracker, args.rho)
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
    for label, block in design.blocks.items():
        a, b = design.col_ranges[label]
        if block.sub_terms:
            for sub_label, s0, s1 in block.sub_terms:
                row = wald_columns(model, a + s0, a + s1, sub_label,
                                   kind="smooth", ref_df=float(s1 - s0))
                smooth_rows.append([row.term, _fmt(row.edf), _fmt(row.ref_df),
                                    _fmt(row.statistic), _fmt_p(row.p)])
        else:
            row = wald_term_test(model, label)
            smooth_rows.append([row.term, _fmt(row.edf), _fmt(row.ref_df),
                                _fmt(row.statistic), _fmt_p(row.p)])
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
    """Leading (headers, columns) of a per-row output: series and order, or row."""
    import numpy as np
    design = model.design_raw
    if design.series_codes is None:
        return ["row"], [np.arange(model.n)]
    return ["series", "order"], [design.table.factor(design.table.series_key),
                                 design.order_values]


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
    for label, block in design.blocks.items():
        path = tracker.path(f"partial_{_safe_name(label)}.csv")
        covs = design.term_covariates[label]
        a = design.col_ranges[label][0]
        if block.kind == "random":
            levels = table.factor(covs[0]).levels
            b = a + len(levels)
            _write_columns(path, ["level", "effect", "se"],
                           [list(map(_csv_cell, levels)), model.beta[a:b],
                            _se(model.vb[a:b, a:b])])
            continue
        per_level = isinstance(table.columns[covs[-1]], FactorColumn)
        numeric = covs[:-1] if per_level else covs
        m = 100 if len(numeric) == 1 else 40
        axes = [np.linspace(float(x.min()), float(x.max()), m)
                for x in map(table.numeric, numeric)]
        columns = {name: g.ravel() for name, g in
                   zip(numeric, np.meshgrid(*axes, indexing="ij"))}
        headers, cells = [], []
        if per_level:
            fac = table.factor(covs[-1])
            codes = np.repeat(np.arange(fac.n_levels), m ** len(numeric))
            columns = {name: np.tile(x, fac.n_levels)
                       for name, x in columns.items()}
            columns[covs[-1]] = FactorColumn(codes, fac.levels)
            headers, cells = ["level"], [columns[covs[-1]]]
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
        "penalty_labels": [e.label for e in model.design.penalties],
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
    parsed = [parse_spec_file(p) for p in args.spec]
    if parsed[0]["response"] != parsed[1]["response"]:
        raise SpecFileError("the two specs model different responses: "
                            f"{parsed[0]['response']!r} vs "
                            f"{parsed[1]['response']!r}")
    if (parsed[0]["series_key"], parsed[0]["order_key"]) != \
            (parsed[1]["series_key"], parsed[1]["order_key"]):
        raise SpecFileError("the two specs declare different "
                            "series/order keys")
    specs = [build_model_spec(p, rho_override=args.rho) for p in parsed]
    if specs[0].signature() == specs[1].signature():
        raise SpecFileError("the two spec files declare identical models")
    tracker.stage = "load-data"
    merged = {"response": parsed[0]["response"],
              "parametric": parsed[0]["parametric"] + parsed[1]["parametric"],
              "smooths": parsed[0]["smooths"] + parsed[1]["smooths"],
              "series_key": parsed[0]["series_key"],
              "order_key": parsed[0]["order_key"]}
    table = _load_table(merged, args.data)
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
    _, spec, table = _read_inputs(args, tracker)
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
    parsed, _, table = _read_inputs(args, tracker)
    tracker.stage = "permtest"
    from .diagnostics import permutation_fs_test
    result = permutation_fs_test(table, parsed["response"],
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
    """Parse the simulate command's scenario file (imports numpy lazily)."""
    from .simulate import FixedEffect, ScenarioSpec
    fields = {"n_subjects": 10, "n_trials": 100, "trend": "flat",
              "trend_amplitude": 0.0, "rho": 0.0, "sigma": 1.0,
              "subject_intercept_sd": 0.0, "mean": 0.0, "seed": 0}
    fixed = []
    fx_rx = re.compile(r"^(factor2|numeric)\((\w+)\)\s+effect=([-\d.eE+]+)$")
    for lineno, key, value in _key_lines(path):
        if key == "fixed":
            m = fx_rx.match(value)
            if not m:
                raise SpecFileError(f"line {lineno}: cannot parse fixed "
                                    f"effect {value!r}")
            kind, name, eff = m.groups()
            fixed.append(FixedEffect(name=name, kind=kind, effect=_convert(
                float, eff, lineno, "effect")))
        elif key == "trend":
            words = value.split()
            fields["trend"] = words[0]
            for w in words[1:]:
                if not w.startswith("amplitude="):
                    raise SpecFileError(f"line {lineno}: unknown trend "
                                        f"option {w!r}")
                fields["trend_amplitude"] = _convert(
                    float, w.split("=", 1)[1], lineno, "amplitude")
        elif key in ("n_subjects", "n_trials", "seed"):
            fields[key] = _convert(int, value, lineno, key)
        elif key in ("rho", "sigma", "subject_intercept_sd", "mean",
                     "trend_amplitude"):
            fields[key] = _convert(float, value, lineno, key)
        else:
            raise SpecFileError(f"line {lineno}: unknown key {key!r}")
    return ScenarioSpec(fixed_effects=tuple(fixed), **fields)


def cmd_simulate(args, tracker: OutputTracker):
    tracker.stage = "parse-scenario"
    scenario = parse_scenario_file(args.spec)
    if args.seed is not None:
        from dataclasses import replace
        scenario = replace(scenario, seed=args.seed)
    tracker.stage = "simulate"
    from .simulate import gen_experiment
    table, truth = gen_experiment(scenario)
    tracker.stage = "write-output"
    _write_simulated(tracker.path("simulated.csv"), table)
    record = {
        "scenario": {"n_subjects": scenario.n_subjects,
                     "n_trials": scenario.n_trials,
                     "trend": scenario.trend,
                     "trend_amplitude": scenario.trend_amplitude,
                     "rho": scenario.rho, "sigma": scenario.sigma,
                     "subject_intercept_sd": scenario.subject_intercept_sd,
                     "mean": scenario.mean, "seed": scenario.seed},
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
