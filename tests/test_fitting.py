"""Design assembly, AR(1) whitening, the penalized solver, and REML."""

import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve, qr, solve_triangular
from scipy.optimize import minimize

from gammkit import fitting
from gammkit.basis import Penalty, SmoothTermSpec
from gammkit.data import DataTable, FactorColumn
from gammkit.diagnostics import pilot_spec
from gammkit.errors import (DomainError, GammkitError, NumericError,
                            SchemaError, ShapeError)
from gammkit.fitting import (GRAD_TOL, LOG_LAMBDA_MAX, LOG_LAMBDA_MIN,
                             ModelSpec, ParametricTerm,
                             _term_penalties, ar1_whiten, assemble, fit,
                             optimize_lambdas, partial_effect, pls_solve,
                             predict, reml_score)
from gammkit.inference import compare_reml
from gammkit.simulate import FixedEffect, ScenarioSpec, gen_experiment


def _table(n=40, seed=0, series=False):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n)
    cols = {"y": np.sin(2.0 * np.pi * x) + 0.1 * rng.standard_normal(n),
            "x": x}
    kw = {}
    if series:
        cols["subj"] = FactorColumn.from_strings(
            [f"s{i % 4}" for i in range(n)])
        cols["trial"] = np.arange(n, dtype=np.float64)
        kw = {"series_key": "subj", "order_key": "trial"}
    return DataTable(columns=cols, n_rows=n, **kw)


# ---------------------------------------------------------------------------
# assemble


def test_assemble_intercept_only():
    tab = DataTable(columns={"y": np.arange(8.0)}, n_rows=8)
    des = assemble(ModelSpec(response="y"), tab)
    assert des.X.shape == (8, 1)
    np.testing.assert_array_equal(des.X.toarray()[:, 0], 1.0)
    assert des.penalties == []
    assert des.coef_names == ["(Intercept)"]
    assert des.m_null_total == 1


def test_assemble_cr_smooth_layout():
    """cr with k knots yields k-1 constrained columns after the intercept."""
    tab = _table(50)
    spec = ModelSpec(response="y",
                     smooth_terms=(SmoothTermSpec("x", "cr", k=10),))
    des = assemble(spec, tab)
    assert des.p == 10
    assert des.col_ranges["cr(x)"] == (1, 10)
    assert len(des.penalties) == 1
    assert des.penalties[0].rank == 8
    # unpenalized directions: intercept plus the smooth's linear null
    assert des.m_null_total == 2
    assert des.coef_names[1] == "cr(x)[0]"


@pytest.mark.parametrize("kind", ["cr", "tp"])
def test_assemble_factor_smooth_without_k_has_five_columns_per_level(kind):
    """fs terms default to k = 5 whatever their basis's own default."""
    des = assemble(ModelSpec(response="y", smooth_terms=(
        SmoothTermSpec("x", kind, fs_group="g"),)), _fs_offsets_table())
    a, b = des.column_range("fs(x,g)")
    assert b - a == 5 * 4


def test_assemble_sum_coding_two_level():
    g = FactorColumn.from_strings(["a", "b", "a", "b"])
    tab = DataTable(columns={"y": np.arange(4.0), "cond": g}, n_rows=4)
    spec = ModelSpec(response="y", parametric_terms=(ParametricTerm("cond"),))
    des = assemble(spec, tab)
    np.testing.assert_array_equal(des.X.toarray()[:, 1], [0.5, -0.5, 0.5, -0.5])
    assert des.coef_names[1] == "cond"


def test_assemble_sum_coding_three_level():
    g = FactorColumn.from_strings(["a", "b", "c", "a", "b", "c"])
    tab = DataTable(columns={"y": np.arange(6.0), "cond": g}, n_rows=6)
    des = assemble(ModelSpec(response="y",
                             parametric_terms=(ParametricTerm("cond"),)), tab)
    assert des.col_ranges["cond"] == (1, 3)
    assert des.coef_names[1:3] == ["cond[a]", "cond[b]"]
    # deviation coding: last level carries -0.5 in every column
    np.testing.assert_array_equal(des.X.toarray()[2, 1:3], [-0.5, -0.5])
    np.testing.assert_array_equal(des.X.toarray()[0, 1:3], [0.5, 0.0])


def test_assemble_treatment_coding():
    g = FactorColumn.from_strings(["a", "b", "c"])
    tab = DataTable(columns={"y": np.arange(3.0), "cond": g}, n_rows=3)
    spec = ModelSpec(response="y",
                     parametric_terms=(ParametricTerm("cond", coding="treatment"),))
    des = assemble(spec, tab)
    np.testing.assert_array_equal(des.X.toarray()[:, 1], [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(des.X.toarray()[:, 2], [0.0, 0.0, 1.0])
    assert des.coef_names[1:] == ["cond[b]", "cond[c]"]


def test_assemble_interaction_is_columnwise_product():
    a = FactorColumn.from_strings(["a", "a", "b", "b"])
    b = FactorColumn.from_strings(["u", "v", "u", "v"])
    tab = DataTable(columns={"y": np.zeros(4), "a": a, "b": b}, n_rows=4)
    spec = ModelSpec(response="y",
                     parametric_terms=(ParametricTerm("a"),
                                       ParametricTerm("b"),
                                       ParametricTerm(("a", "b"))))
    des = assemble(spec, tab)
    X = des.X.toarray()
    ca = X[:, des.col_ranges["a"][0]]
    cb = X[:, des.col_ranges["b"][0]]
    i0, i1 = des.col_ranges["a:b"]
    assert i1 - i0 == 1
    np.testing.assert_allclose(X[:, i0], ca * cb)
    assert des.coef_names[i0] == "a:b"


def test_assemble_sorts_rows_by_series_then_order():
    rng = np.random.default_rng(3)
    n = 24
    perm = rng.permutation(n)
    subj = FactorColumn.from_strings([f"s{i // 8}" for i in perm])
    tab = DataTable(columns={"y": perm.astype(float),
                             "trial": (perm % 8).astype(float),
                             "subj": subj},
                    n_rows=n, series_key="subj", order_key="trial")
    des = assemble(ModelSpec(response="y"), tab)
    assert np.all(np.diff(des.series_codes) >= 0)
    for code in np.unique(des.series_codes):
        seg = des.order_values[des.series_codes == code]
        assert np.all(np.diff(seg) > 0)
    # y is carried along with the same row order as the sorted table
    np.testing.assert_array_equal(des.y, des.table.numeric("y"))


def test_assemble_keeps_a_table_already_in_series_order():
    tab = _scenario(3, 8, 0)
    des = assemble(ModelSpec(response="y"), tab)
    assert des.table is tab


def test_assemble_counts_random_effect_as_fully_penalized():
    g = FactorColumn.from_strings(list("aabbccdd"))
    tab = DataTable(columns={"y": np.arange(8.0), "g": g}, n_rows=8)
    spec = ModelSpec(response="y",
                     smooth_terms=(SmoothTermSpec("g", is_random_effect=True),))
    des = assemble(spec, tab)
    assert des.col_ranges["re(g)"] == (1, 5)
    assert des.penalties[0].rank == 4
    assert des.m_null_total == 1


def test_modelspec_rejects_duplicate_labels_and_bad_rho():
    with pytest.raises(SchemaError):
        ModelSpec(response="y",
                  smooth_terms=(SmoothTermSpec("x", "cr", k=5),
                                SmoothTermSpec("x", "cr", k=8)))
    with pytest.raises(DomainError):
        ModelSpec(response="y", rho=1.0)
    with pytest.raises(DomainError):
        ModelSpec(response="y", rho=-0.2)


def test_assemble_missing_response_raises():
    tab = _table(10)
    with pytest.raises(SchemaError):
        assemble(ModelSpec(response="z"), tab)


# ---------------------------------------------------------------------------
# AR(1) whitening


def test_whiten_three_point_series():
    """One series (1, 0.5, 0.25) at rho = 0.5 whitens to (sqrt(.75), 0, 0)."""
    tab = DataTable(columns={"y": np.array([1.0, 0.5, 0.25]),
                             "t": np.arange(3.0),
                             "s": FactorColumn.from_strings(["a"] * 3)},
                    n_rows=3, series_key="s", order_key="t")
    des = assemble(ModelSpec(response="y"), tab)
    white = ar1_whiten(des, 0.5)
    np.testing.assert_allclose(white.y, [math.sqrt(0.75), 0.0, 0.0],
                               atol=1e-12)


def test_whiten_rho_zero_is_identity():
    des = assemble(ModelSpec(response="y",
                             smooth_terms=(SmoothTermSpec("x", "cr", k=6),)),
                   _table(30, series=True))
    white = ar1_whiten(des, 0.0)
    np.testing.assert_array_equal(white.y, des.y)
    np.testing.assert_array_equal(white.X.toarray(), des.X.toarray())


def test_whiten_rescales_each_series_start():
    y = np.array([2.0, 2.0, 3.0, 3.0])
    tab = DataTable(columns={"y": y, "t": np.array([0.0, 1.0, 0.0, 1.0]),
                             "s": FactorColumn.from_strings(list("aabb"))},
                    n_rows=4, series_key="s", order_key="t")
    des = assemble(ModelSpec(response="y"), tab)
    rho = 0.4
    white = ar1_whiten(des, rho)
    scale = math.sqrt(1.0 - rho * rho)
    np.testing.assert_allclose(white.y, [2.0 * scale, 2.0 - rho * 2.0,
                                         3.0 * scale, 3.0 - rho * 3.0])
    np.testing.assert_allclose(white.X.toarray()[:, 0],
                               [scale, 1.0 - rho, scale, 1.0 - rho])


def test_whiten_rejects_unsorted_and_bad_rho():
    des = assemble(ModelSpec(response="y"), _table(12, series=True))
    with pytest.raises(DomainError):
        ar1_whiten(des, 1.0)
    scrambled = replace(des, order_values=des.order_values[::-1].copy())
    with pytest.raises(DomainError):
        ar1_whiten(scrambled, 0.3)


def test_whiten_matches_the_copy_and_subtract_formula_bit_for_bit():
    """Series of 1, 2, 5 and 9 rows: the in-place whitening equals the
    formula that formed rho * X[:-1] as a temporary, to the last bit."""
    rng = np.random.default_rng(21)
    lengths = [1, 2, 5, 9]
    subj = np.repeat([f"s{i}" for i in range(len(lengths))], lengths)
    trial = np.concatenate([np.arange(k, dtype=np.float64) for k in lengths])
    n = len(trial)
    tab = DataTable(columns={"y": rng.standard_normal(n), "trial": trial,
                             "x": rng.uniform(0.0, 1.0, n),
                             "subj": FactorColumn.from_strings(list(subj))},
                    n_rows=n, series_key="subj", order_key="trial")
    des = assemble(ModelSpec(response="y", smooth_terms=(
        SmoothTermSpec("x", "cr", k=6),)), tab)
    starts = np.ones(n, dtype=bool)
    starts[1:] = des.series_codes[1:] != des.series_codes[:-1]
    raw = des.X.toarray()
    for rho in (0.3, 0.77, 0.999):
        scale = math.sqrt(1.0 - rho * rho)
        y, X = des.y.copy(), raw.copy()
        y[1:] -= rho * des.y[:-1]
        X[1:] -= rho * raw[:-1]
        y[starts] = scale * des.y[starts]
        X[starts] = scale * raw[starts]
        white = ar1_whiten(des, rho)
        assert np.array_equal(white.y, y) and \
            np.array_equal(white.X.toarray(), X)


def test_whiten_without_a_series_key_whitens_all_rows_as_one_series():
    """No series key: only row 0 is rescaled and every later row subtracts
    rho times the row before it, as the copy-and-subtract formula does, to
    the last bit."""
    des = assemble(ModelSpec(response="y", smooth_terms=(
        SmoothTermSpec("x", "cr", k=6),)), _table(25, seed=5))
    assert des.series_codes is None
    rho, raw = 0.6, des.X.toarray()
    y, X = des.y.copy(), raw.copy()
    y[1:] -= rho * des.y[:-1]
    X[1:] -= rho * raw[:-1]
    y[0], X[0] = math.sqrt(1.0 - rho * rho) * des.y[0], \
        math.sqrt(1.0 - rho * rho) * raw[0]
    white = ar1_whiten(des, rho)
    assert np.array_equal(white.y, y) and np.array_equal(white.X.toarray(), X)


# ---------------------------------------------------------------------------
# penalized least squares


def test_pls_lambda_zero_matches_ols():
    des = assemble(ModelSpec(response="y",
                             smooth_terms=(SmoothTermSpec("x", "cr", k=8),)),
                   _table(60, seed=1))
    sol = pls_solve(des, [0.0])
    ols, *_ = np.linalg.lstsq(des.X.toarray(), des.y, rcond=None)
    np.testing.assert_allclose(sol.beta, ols, atol=1e-9)
    np.testing.assert_allclose(sol.edf_per_coef, 1.0, atol=1e-8)
    assert not sol.ridged


def test_pls_huge_lambda_tp_collapses_to_line():
    des = assemble(ModelSpec(response="y",
                             smooth_terms=(SmoothTermSpec("x", "tp", k=12),)),
                   _table(80, seed=2))
    sol = pls_solve(des, [1e12])
    x = des.table.numeric("x")
    slope, inter = np.polyfit(x, des.y, 1)
    np.testing.assert_allclose(des.X @ sol.beta, inter + slope * x, atol=1e-6)


def test_pls_matches_dense_normal_equations():
    """The reduced p x p solve agrees with an explicit (X'X + lambda S)^-1
    solve."""
    des = assemble(ModelSpec(response="y",
                             smooth_terms=(SmoothTermSpec("x", "cr", k=7),)),
                   _table(45, seed=3))
    lam = 1.0
    S = np.zeros((des.p, des.p))
    e = des.penalties[0]
    S[e.offset:e.offset + e.p_block, e.offset:e.offset + e.p_block] = e.S
    A = des.X.T @ des.X + lam * S
    beta_ref = np.linalg.solve(A, des.X.T @ des.y)
    vb_ref = np.linalg.inv(A)
    sol = pls_solve(des, [lam])
    np.testing.assert_allclose(sol.beta, beta_ref, rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(sol.vb_unscaled, vb_ref, rtol=1e-7, atol=1e-12)
    np.testing.assert_allclose(sol.edf_per_coef,
                               np.diag(vb_ref @ (des.X.T @ des.X)),
                               rtol=1e-7, atol=1e-10)


@pytest.mark.parametrize("kind", ["cr", "tp"])
def test_pls_edf_monotone_and_bounded(kind):
    des = assemble(ModelSpec(response="y",
                             smooth_terms=(SmoothTermSpec("x", kind, k=10),)),
                   _table(70, seed=4))
    totals = []
    for lam in np.logspace(-6, 8, 20):
        sol = pls_solve(des, [lam])
        edf = sol.edf_per_coef
        assert np.all(edf >= 0.0) and np.all(edf <= 1.0)
        totals.append(float(edf.sum()))
    assert np.all(np.diff(totals) <= 1e-9)


def _dense_gram(des):
    """X'X, X'y and y'y of the densified design, for the dense oracles:
    built from des.X, sharing no code with ensure_products."""
    X = des.X.toarray()
    return X.T @ X, X.T @ des.y, float(des.y @ des.y)


def _exact_pls(des, lambdas):
    """beta solving (X'X + sum_j lambda_j R_j'R_j) beta = X'y in exact
    rational arithmetic on the stored floats: no rounding anywhere."""
    cols = [[Fraction(v) for v in des.X.toarray()[:, j]] for j in range(des.p)]
    y = [Fraction(v) for v in des.y]
    A = [[sum(a * b for a, b in zip(ci, cj)) for cj in cols] for ci in cols]
    rhs = [sum(a * b for a, b in zip(ci, y)) for ci in cols]
    for entry, lam in zip(des.penalties, lambdas):
        root = [[Fraction(v) for v in row] for row in entry.sqrt]
        for i in range(entry.p_block):
            for j in range(entry.p_block):
                A[entry.offset + i][entry.offset + j] += Fraction(lam) * sum(
                    row[i] * row[j] for row in root)
    for k in range(des.p):                  # Gauss-Jordan, exact pivots
        piv = next(i for i in range(k, des.p) if A[i][k] != 0)
        A[k], A[piv], rhs[k], rhs[piv] = A[piv], A[k], rhs[piv], rhs[k]
        for i in range(des.p):
            if i != k and A[i][k] != 0:
                f = A[i][k] / A[k][k]
                A[i] = [a - f * b for a, b in zip(A[i], A[k])]
                rhs[i] -= f * rhs[k]
    return np.array([float(rhs[k] / A[k][k]) for k in range(des.p)])


def _augmented_lstsq(des, lambdas, ridge=0.0):
    """Dense least squares on the full (n + rank) x p augmented system."""
    rows = [des.X.toarray()]
    for entry, lam in zip(des.penalties, lambdas):
        block = np.zeros((entry.rank, des.p))
        block[:, entry.offset:entry.offset + entry.p_block] = \
            math.sqrt(lam) * entry.sqrt
        rows.append(block)
    if ridge:
        rows.append(math.sqrt(ridge) * np.eye(des.p))
    B = np.vstack(rows)
    rhs = np.concatenate([des.y, np.zeros(B.shape[0] - des.n)])
    beta, *_ = np.linalg.lstsq(B, rhs, rcond=None)
    return beta


def _subject_table(n_subj=12, per=30, seed=5):
    rng = np.random.default_rng(seed)
    subj = np.repeat(np.arange(n_subj), per)
    x = rng.uniform(0.0, 1.0, subj.size)
    cond = rng.integers(0, 2, subj.size)
    y = np.sin(2.0 * np.pi * x) + 0.4 * cond \
        + rng.normal(0.0, 0.6, n_subj)[subj] + 0.2 * rng.standard_normal(subj.size)
    return DataTable(columns={
        "y": y, "x": x,
        "cond": FactorColumn.from_strings(["ab"[c] for c in cond]),
        "subj": FactorColumn.from_strings([f"s{i:02d}" for i in subj])},
        n_rows=subj.size)


def _fs_offsets_table():
    """Per-level constant shifts only, as in the factor-smooth offsets test
    of test_basis.py."""
    rng = np.random.default_rng(77)
    n, levels = 120, 4
    codes = np.arange(n) % levels
    x = rng.uniform(0.0, 1.0, n)
    y = 10.0 + np.array([0.0, 1.5, -2.0, 0.5])[codes]
    return DataTable(columns={
        "x": x, "y": y,
        "g": FactorColumn.from_strings([f"s{c}" for c in codes])}, n_rows=n)


_COND_RE = ModelSpec(response="y", parametric_terms=(ParametricTerm("cond"),),
                     smooth_terms=(SmoothTermSpec("subj", is_random_effect=True),))


@pytest.mark.parametrize("case", [
    "fs-huge-wiggle", "fs-huge-wiggle-noisy", "re-tiny", "re-huge", "tp-huge",
    "cr-zero"])
def test_pls_matches_dense_augmented_least_squares(case):
    """Fitted values agree with lstsq of the stacked [X; roots], beta with
    the exact solution: at re-tiny the penalty alone splits the intercept
    from the subject mean, and lstsq's beta is 1e-5 off there. With noise
    of sd 0.01 on the fs offsets, an eigh root of the whole X'X left beta
    2.3e-8 off; the arrow solve is 8e-13 off."""
    if case.startswith("fs-huge-wiggle"):  # rank-deficient X: intercept + fs
        table = _fs_offsets_table()
        if case.endswith("noisy"):
            y = table.numeric("y") + 0.01 * np.random.default_rng(0) \
                .standard_normal(table.n_rows)
            table = table.with_column("y", y)
        des = assemble(ModelSpec(response="y", smooth_terms=(
            SmoothTermSpec(("x",), "cr", k=5, fs_group="g"),)), table)
        lambdas = [1e10, 1e-6]
    elif case.startswith("re-"):       # rank-deficient X: intercept + re
        des = assemble(_COND_RE, _subject_table())
        lambdas = [1e-10 if case == "re-tiny" else 1e12]
    else:
        kind, lam = ("tp", 1e12) if case == "tp-huge" else ("cr", 0.0)
        des = assemble(ModelSpec(response="y", smooth_terms=(
            SmoothTermSpec("x", kind, k=10),)), _table(90, seed=8))
        lambdas = [lam]
    sol = pls_solve(des, lambdas)
    assert not sol.ridged
    exact = _exact_pls(des, lambdas)
    assert np.max(np.abs(sol.beta - exact)) <= 1e-8 * np.max(np.abs(exact))
    fitted, fitted_ref = des.X @ sol.beta, des.X @ _augmented_lstsq(des, lambdas)
    assert np.max(np.abs(fitted - fitted_ref)) <= \
        1e-8 * np.max(np.abs(fitted_ref))


def test_pls_ridges_a_singular_system_and_flags_it():
    """intercept + re at lambda = 0 has no unique solution: the ridge of
    1e-10 * mean(diag(X'X)) fires and the solution is that ridge fit."""
    des = assemble(_COND_RE, _subject_table())
    sol = pls_solve(des, [0.0])
    assert sol.ridged
    xtx, _, _ = _dense_gram(des)
    ref = _augmented_lstsq(des, [0.0], ridge=1e-10 * np.diag(xtx).mean())
    fitted, fitted_ref = des.X @ sol.beta, des.X @ ref
    assert np.max(np.abs(fitted - fitted_ref)) <= \
        1e-8 * np.max(np.abs(fitted_ref))


def _twice_linear_trial(rho):
    """cond + cr(trial) + te(trial, x) on 10 x 100 (simulate seed 2): both
    smooths leave the linear trial trend unpenalized, so X'X + S_lambda is
    singular at every lambda."""
    table = gen_experiment(ScenarioSpec(
        n_subjects=10, n_trials=100, trend="undulating", trend_amplitude=1.0,
        fixed_effects=(FixedEffect("cond", "factor2", 0.8),
                       FixedEffect("x", "numeric", 0.5)),
        rho=0.3, subject_intercept_sd=0.5, seed=2))[0]
    return ModelSpec(response="y", parametric_terms=(ParametricTerm("cond"),),
                     smooth_terms=(SmoothTermSpec("trial", "cr"),
                                   SmoothTermSpec(("trial", "x"), "tensor")),
                     rho=rho), table


def test_a_fit_whose_final_solve_ridged_reports_no_reml():
    """At rho = 0 the search scores the singular system through a
    rounding-level pivot and the final solve ridges: the fit once reported
    that score (below the nested te-only model's), and compare_reml took it."""
    spec, table = _twice_linear_trial(0.0)
    model = fit(spec, table)
    assert model.ridged and math.isnan(model.reml)
    te_only = fit(replace(spec, smooth_terms=spec.smooth_terms[1:]), table)
    assert not te_only.ridged and math.isfinite(te_only.reml)
    with pytest.raises(GammkitError, match="ridged"):
        compare_reml(te_only, model)


def test_a_search_failing_at_every_start_names_the_singular_column():
    """At rho = 0.3 no start can be scored; the error names the column of
    the smallest pivot of the penalized QR, as pls_solve's RankError does."""
    spec, table = _twice_linear_trial(0.3)
    with pytest.raises(NumericError, match=r"every candidate lambda; "
                       r"X'X \+ S_lambda is singular, its smallest pivot in "
                       r"column 'te\(trial,x\)\[\d+\]'"):
        fit(spec, table)


def test_pls_reads_only_the_cached_products():
    """With X'X and X'y cached, an empty design gives the same solution:
    the solve does no work on the n rows."""
    des = assemble(ModelSpec(response="y", parametric_terms=(
        ParametricTerm("cond"),), smooth_terms=(
        SmoothTermSpec("x", "cr", k=8),
        SmoothTermSpec("subj", is_random_effect=True))), _subject_table())
    lambdas = [0.5, 2.0]
    des.ensure_products()
    sol = pls_solve(des, lambdas)
    hollow = pls_solve(replace(des, X_dense=des.X_dense[:0],
                               X_sparse=des.X_sparse[:0], y=des.y[:0]),
                       lambdas)
    for a, b in zip(sol, hollow):
        np.testing.assert_array_equal(a, b)


def test_pls_solution_does_not_depend_on_covariate_units():
    """A numeric covariate in units 1e-7 ... 1e7 leaves fitted values and
    edf unchanged and never triggers the ridge."""
    rng = np.random.default_rng(9)
    n = 200
    x, z = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
    y = 0.3 * x + np.sin(6.0 * z) + 0.1 * rng.standard_normal(n)
    spec = ModelSpec(response="y", parametric_terms=(ParametricTerm("x"),),
                     smooth_terms=(SmoothTermSpec("z", "cr", k=8),))
    ref = None
    for unit in (1.0, 1e-7, 1e-3, 1e3, 1e7):
        tab = DataTable(columns={"y": y, "x": unit * x, "z": z}, n_rows=n)
        des = assemble(spec, tab)
        sol = pls_solve(des, [1e-3])
        assert not sol.ridged
        if ref is None:
            ref = des.X @ sol.beta, sol.edf_per_coef.sum()
        np.testing.assert_allclose(des.X @ sol.beta, ref[0], rtol=1e-9)
        assert sol.edf_per_coef.sum() == pytest.approx(ref[1], rel=1e-9)


def test_final_solve_failure_is_a_numeric_error(monkeypatch):
    spec = ModelSpec(response="y", smooth_terms=(SmoothTermSpec("x", "cr", k=8),))
    tab = _table(60, seed=2)
    p = assemble(spec, tab).p
    real_eigh = np.linalg.eigh

    def broken_on_the_gram(a):
        if a.shape == (p, p):
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        return real_eigh(a)
    monkeypatch.setattr(np.linalg, "eigh", broken_on_the_gram)
    with pytest.raises(NumericError, match="final solve"):
        fit(spec, tab)


def test_natural_reparam_failure_names_the_term(monkeypatch):
    def broken(_):
        raise np.linalg.LinAlgError("eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigh", broken)
    with pytest.raises(NumericError, match=r"cr\(x\).*natural"):
        fit(ModelSpec(response="y", smooth_terms=(
            SmoothTermSpec("x", "cr", k=8),)), _table(60, seed=2))


def test_pls_validates_lambdas():
    des = assemble(ModelSpec(response="y",
                             smooth_terms=(SmoothTermSpec("x", "cr", k=6),)),
                   _table(25))
    with pytest.raises(ShapeError):
        pls_solve(des, [1.0, 2.0])
    with pytest.raises(DomainError):
        pls_solve(des, [-1.0])
    with pytest.raises(DomainError):
        pls_solve(des, [np.inf])


# ---------------------------------------------------------------------------
# REML score


def _reml_oracle(des, lam):
    """Restricted likelihood from scratch: dense determinants throughout."""
    S = np.zeros((des.p, des.p))
    for entry, lj in zip(des.penalties, lam):
        sl = slice(entry.offset, entry.offset + entry.p_block)
        S[sl, sl] += lj * entry.S
    A = des.X.T @ des.X + S
    beta = np.linalg.solve(A, des.X.T @ des.y)
    resid = des.y - des.X @ beta
    rss_pen = float(resid @ resid) + float(beta @ S @ beta)
    w = np.linalg.eigvalsh(S)
    keep = w > 1e-10 * w.max()
    logpdet = float(np.sum(np.log(w[keep])))
    m_null = des.p - int(keep.sum())
    n_eff = des.n - m_null
    phi = rss_pen / n_eff
    return (0.5 * n_eff * (math.log(2.0 * math.pi * phi) + 1.0)
            - 0.5 * logpdet + 0.5 * np.linalg.slogdet(A)[1])


@pytest.mark.parametrize("lam", np.logspace(-2, 2, 5))
def test_reml_score_matches_dense_oracle(lam):
    des = assemble(ModelSpec(response="y",
                             smooth_terms=(SmoothTermSpec("x", "cr", k=9),)),
                   _table(65, seed=5))
    got = reml_score(des, [math.log(lam)])
    want = _reml_oracle(des, [lam])
    assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_reml_score_invariant_to_term_order():
    rng = np.random.default_rng(6)
    n = 80
    x = rng.uniform(0, 1, n)
    z = rng.uniform(0, 1, n)
    y = np.sin(6 * x) + np.cos(4 * z) + 0.2 * rng.standard_normal(n)
    tab = DataTable(columns={"y": y, "x": x, "z": z}, n_rows=n)
    des_xz = assemble(ModelSpec(response="y",
                                smooth_terms=(SmoothTermSpec("x", "cr", k=8),
                                              SmoothTermSpec("z", "cr", k=8))),
                      tab)
    des_zx = assemble(ModelSpec(response="y",
                                smooth_terms=(SmoothTermSpec("z", "cr", k=8),
                                              SmoothTermSpec("x", "cr", k=8))),
                      tab)
    la, lb = math.log(0.7), math.log(14.0)
    assert reml_score(des_xz, [la, lb]) == pytest.approx(
        reml_score(des_zx, [lb, la]), rel=1e-10)


def test_reml_split_penalty_matches_merged():
    """Duplicating a penalty and splitting its lambda leaves REML unchanged.

    lam_a S + lam_b S is (lam_a + lam_b) S, so the score must agree with the
    single-penalty design at the summed lambda. This exercises the
    two-penalty spectrum against the one-penalty one on the same arithmetic.
    """
    des = assemble(ModelSpec(response="y",
                             smooth_terms=(SmoothTermSpec("x", "cr", k=8),)),
                   _table(55, seed=7))
    e = des.penalties[0]
    entries, const, weights = _term_penalties(
        e.term_label, e.offset, [Penalty(e.S, "a"), Penalty(e.S, "b")])
    des2 = replace(des, penalties=entries, logpdet_const=const,
                   logpdet_weights=weights)
    for lam_a, lam_b in [(0.5, 0.5), (3.0, 0.01), (40.0, 2.0)]:
        merged = reml_score(des, [math.log(lam_a + lam_b)])
        split = reml_score(des2, [math.log(lam_a), math.log(lam_b)])
        assert split == pytest.approx(merged, rel=1e-9)


def test_reml_profile_minimum_tracks_variance_ratio():
    """Random-intercept REML bottoms out near sigma^2 / sigma_b^2."""
    rng = np.random.default_rng(8)
    n_g, per = 15, 30
    sigma_b, sigma = 0.8, 0.5
    g = np.repeat(np.arange(n_g), per)
    y = sigma_b * rng.standard_normal(n_g)[g] \
        + sigma * rng.standard_normal(n_g * per)
    tab = DataTable(columns={"y": y,
                             "g": FactorColumn.from_strings([f"g{i:02d}" for i in g])},
                    n_rows=n_g * per)
    des = assemble(ModelSpec(response="y",
                             smooth_terms=(SmoothTermSpec("g", is_random_effect=True),)),
                   tab)
    grid = np.logspace(-3, 3, 121)
    scores = [reml_score(des, [math.log(l)]) for l in grid]
    lam_hat = grid[int(np.argmin(scores))]
    ratio = sigma ** 2 / sigma_b ** 2
    assert ratio / 3.0 < lam_hat < ratio * 3.0


def test_reml_score_validates_input():
    des = assemble(ModelSpec(response="y",
                             smooth_terms=(SmoothTermSpec("x", "cr", k=6),)),
                   _table(20))
    with pytest.raises(ShapeError):
        reml_score(des, [0.0, 0.0])


def _derivative_table(n=240, seed=3):
    rng = np.random.default_rng(seed)
    x, z = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
    g = np.arange(n) % 4
    y = (np.sin(2.0 * np.pi * x) + np.cos(3.0 * z) + 0.3 * g
         + 0.3 * rng.standard_normal(n))
    return DataTable(columns={
        "y": y, "x": x, "z": z,
        "g": FactorColumn.from_strings([f"g{i}" for i in g]),
        "c": FactorColumn.from_strings([f"c{i % 3}" for i in range(n)])},
        n_rows=n)


_NEAR_MIN, _NEAR_MAX = LOG_LAMBDA_MIN + 1.0, LOG_LAMBDA_MAX - 1.0
_DERIVATIVE_CASES = {
    # terms, then points besides log lambda = 0 and 3; one coordinate at a
    # time goes near a bound, the others sit at 1
    "cr+re": ((SmoothTermSpec("x", "cr", k=8),
               SmoothTermSpec(("g",), is_random_effect=True)),
              [(_NEAR_MIN, 1.0), (_NEAR_MAX, 1.0), (1.0, _NEAR_MAX)]),
    "fs": ((SmoothTermSpec("x", "cr", k=6, fs_group="g"),),
           [(_NEAR_MIN, 1.0)]),
    "te": ((SmoothTermSpec(("x", "z"), "tensor", k=5),),
           [(_NEAR_MIN, 1.0), (1.0, _NEAR_MIN)]),
    "ti+cr": ((SmoothTermSpec(("x", "z"), "ti", k=5),
               SmoothTermSpec("x", "cr", k=6)),
              [(_NEAR_MIN, 1.0, 1.0), (1.0, _NEAR_MIN, 1.0),
               (1.0, 1.0, _NEAR_MIN), (1.0, 1.0, _NEAR_MAX)]),
    "by": ((SmoothTermSpec("x", "cr", k=6, by="c"),),
           [(_NEAR_MIN, 1.0, 1.0), (1.0, _NEAR_MIN, 1.0),
            (1.0, 1.0, _NEAR_MIN)]),
}
# points near the upper bound, besides those above, probed by central
# differences only: there the dense oracles carry rounding noise themselves
_NEAR_MAX_POINTS = {
    "te": [(_NEAR_MAX, 1.0), (1.0, _NEAR_MAX)],
    "ti+cr": [(_NEAR_MAX, 1.0, 1.0), (1.0, _NEAR_MAX, 1.0)],
    "fs": [(_NEAR_MAX, 1.0), (1.0, _NEAR_MAX)],
    "by": [(_NEAR_MAX, 1.0, 1.0), (1.0, _NEAR_MAX, 1.0),
           (1.0, 1.0, _NEAR_MAX)],
}
# fourth-order central difference weights for f'(x) at offsets a*h
_D1 = {-2: 1.0, -1: -8.0, 1: 8.0, 2: -1.0}


@pytest.mark.parametrize("name", sorted(_DERIVATIVE_CASES))
def test_reml_derivatives_match_central_differences(name):
    """Gradient and Hessian in log lambda against fourth-order central
    differences of the score (h = 0.03), to 1e-5 relative in max norm.

    Every coordinate of every design is probed near the upper bound, where
    lambda ~ 1e11: every penalty is diagonal in the coordinates the score
    factors in, so the score carries no rounding noise that a difference
    quotient would amplify. (With te and ti penalties as dense blocks, te's
    gradient was 53 and ti's 0.36 of its largest entry off there.)
    """
    terms, extra = _DERIVATIVE_CASES[name]
    des = assemble(ModelSpec(response="y", smooth_terms=terms),
                   _derivative_table())
    m = len(des.penalties)
    h = 0.03
    E = h * np.eye(m)
    extra = extra + _NEAR_MAX_POINTS.get(name, [])
    for point in [np.zeros(m), np.full(m, 3.0)] + [np.array(p) for p in extra]:
        score, grad, hess = reml_score(des, point, derivatives=True)
        assert score == reml_score(des, point)
        fd_grad = np.array([
            sum(c * reml_score(des, point + a * E[i]) for a, c in _D1.items())
            for i in range(m)]) / (12.0 * h)
        fd_hess = np.array([[
            sum(ca * cb * reml_score(des, point + a * E[i] + b * E[j])
                for a, ca in _D1.items() for b, cb in _D1.items())
            for j in range(m)] for i in range(m)]) / (144.0 * h * h)
        assert np.abs(grad - fd_grad).max() <= 1e-5 * np.abs(grad).max(), point
        assert np.abs(hess - fd_hess).max() <= 1e-5 * np.abs(hess).max(), point
        np.testing.assert_array_equal(hess, hess.T)


@pytest.mark.parametrize("seed", [3, 4])
def test_te_score_near_the_upper_bound_has_no_rounding_noise(seed):
    """te(x, z) scored at log lambda = (26.6, 1) and at ten points 1e-9
    away spreads less than 1e-8. With the te penalties as dense blocks,
    X'X + S_lambda had a condition number near 1e16 there and the scores
    spread over 1.08."""
    des = assemble(ModelSpec(response="y", smooth_terms=(
        SmoothTermSpec(("x", "z"), "tensor", k=5),)),
        _derivative_table(seed=seed))
    x = np.array([26.6, 1.0])
    steps = 1e-9 * np.random.default_rng(0).standard_normal((10, 2))
    scores = [reml_score(des, p) for p in np.vstack([x, x + steps])]
    assert max(scores) - min(scores) <= 1e-8


def _exact_reml(des, lambdas):
    """The REML score of X'X + sum_j lambda_j R_j'R_j (R_j = entry.sqrt) in
    exact rational arithmetic on the stored floats: log|A| by exact
    elimination, and the penalized RSS |y - X b|^2 + sum_j lambda_j |R_j b|^2
    at _exact_pls's b, where it is stationary, so b's rounding enters only
    to second order. log|S_lambda|_+ comes from its closed form."""
    cols = [[Fraction(v) for v in des.X.toarray()[:, j]] for j in range(des.p)]
    A = [[sum(a * b for a, b in zip(ci, cj)) for cj in cols] for ci in cols]
    beta = [Fraction(v) for v in _exact_pls(des, lambdas)]
    resid = [Fraction(v) for v in des.y]
    for b, col in zip(beta, cols):
        resid = [r - b * x for r, x in zip(resid, col)]
    rss = sum(r * r for r in resid)
    for entry, lam in zip(des.penalties, lambdas):
        root = [[Fraction(v) for v in row] for row in entry.sqrt]
        b = beta[entry.offset:entry.offset + entry.p_block]
        rss += Fraction(lam) * sum(
            sum(r * bi for r, bi in zip(row, b)) ** 2 for row in root)
        for i in range(entry.p_block):
            for j in range(entry.p_block):
                A[entry.offset + i][entry.offset + j] += Fraction(lam) * sum(
                    row[i] * row[j] for row in root)
    det = Fraction(1)
    for k in range(des.p):                  # positive definite: no pivoting
        det *= A[k][k]
        for i in range(k + 1, des.p):
            f = A[i][k] / A[k][k]
            A[i] = [a - f * c for a, c in zip(A[i], A[k])]
    n_eff = des.n - des.m_null_total
    logdet = math.log(det.numerator) - math.log(det.denominator)
    logpdet = des.logpdet_const + float(np.sum(np.log(
        des.logpdet_weights @ np.asarray(lambdas))))
    return (0.5 * n_eff * (math.log(2.0 * math.pi * float(rss) / n_eff) + 1.0)
            - 0.5 * logpdet + 0.5 * logdet)


def test_reml_score_of_fs_offsets_at_extreme_lambdas_matches_exact():
    """intercept + fs of per-level offsets at lambda = (1e10, 1e-6): the
    stored wiggle base is singular only to rounding, +-1e-16 of its largest
    entry on its null space, which lambda_1 lifts above lambda_2's null-space
    penalty, and with it X'X + S_lambda is indefinite. With the penalties
    diagonal the null space is exactly 0, as log|S_lambda|_+ takes it, and
    the score is within 1e-8 of the exact rational one (2.4e-9 here)."""
    des = assemble(ModelSpec(response="y", smooth_terms=(
        SmoothTermSpec(("x",), "cr", k=5, fs_group="g"),)), _fs_offsets_table())
    lambdas = [1e10, 1e-6]
    want = _exact_reml(des, lambdas)
    assert abs(reml_score(des, np.log(lambdas)) - want) <= 1e-8 * abs(want)


def test_reml_score_refuses_a_system_it_would_have_to_ridge():
    """intercept + fs of per-level offsets + a covariate that is 0 on every
    row: X'X + S_lambda is singular at any lambda, and pls_solve ridges it.
    A ridge of 1e-10 * mean(diag) would score another system; the score
    raises instead, naming the lambdas."""
    table = _fs_offsets_table()
    des = assemble(ModelSpec(
        response="y", parametric_terms=(ParametricTerm("zero"),),
        smooth_terms=(SmoothTermSpec(("x",), "cr", k=5, fs_group="g"),)),
        table.with_column("zero", np.zeros(table.n_rows)))
    assert pls_solve(des, [1e10, 1e-6]).ridged
    with pytest.raises(NumericError, match=r"not positive definite at "
                                           r"lambdas \[1\.e\+10 1\.e-06\]"):
        reml_score(des, np.log([1e10, 1e-6]))
    with pytest.raises(NumericError, match="not positive definite"):
        reml_score(des, np.log([1e10, 1e-6]), derivatives=True)


# ---------------------------------------------------------------------------
# lambda search


def test_optimizer_beats_a_fine_grid():
    des = assemble(ModelSpec(response="y",
                             smooth_terms=(SmoothTermSpec("x", "cr", k=8),)),
                   _table(150, seed=9))
    search = optimize_lambdas(des)
    assert search.converged
    grid = np.linspace(-6.0, 6.0, 200) * math.log(10.0)
    scores = np.array([reml_score(des, [g]) for g in grid])
    best = int(np.argmin(scores))
    assert search.score <= scores[best] + 1e-9
    step = grid[1] - grid[0]
    assert abs(math.log(search.lambdas[0]) - grid[best]) <= step


def test_optimizer_shrinks_affine_data_to_the_null_space():
    """Straight-line data leaves the smooth near its 2-dim affine null."""
    rng = np.random.default_rng(10)
    n = 120
    x = rng.uniform(0, 1, n)
    y = 1.0 + 2.0 * x + 0.05 * rng.standard_normal(n)
    tab = DataTable(columns={"y": y, "x": x}, n_rows=n)
    model = fit(ModelSpec(response="y",
                          smooth_terms=(SmoothTermSpec("x", "tp", k=10),)), tab)
    assert model.total_edf < 3.5
    slope, inter = np.polyfit(x, y, 1)
    assert np.abs(model.fitted_values - (inter + slope * x)).max() < 0.02


def _nelder_mead_oracle(des):
    """The derivative-free reference search: three Nelder-Mead runs from
    log lambda = 0 and +-5 in log10, each NumericError scored as +inf."""
    m = len(des.penalties)

    def objective(x):
        try:
            return reml_score(des, x)
        except NumericError:
            return np.inf

    runs = [minimize(objective, x0, method="Nelder-Mead",
                     bounds=[(LOG_LAMBDA_MIN, LOG_LAMBDA_MAX)] * m,
                     options={"xatol": 1e-6, "fatol": 1e-8,
                              "maxfev": 4000 * max(1, m // 2),
                              "adaptive": m > 2})
            for x0 in (np.zeros(m), np.full(m, 5.0 * math.log(10.0)),
                       np.full(m, -5.0 * math.log(10.0)))]
    return min(run.fun for run in runs)


def _scenario(n_subjects, n_trials, seed):
    return gen_experiment(ScenarioSpec(
        n_subjects=n_subjects, n_trials=n_trials,
        fixed_effects=(FixedEffect("cond", "factor2", 0.8),),
        trend="undulating", trend_amplitude=1.0, rho=0.3, sigma=1.0,
        subject_intercept_sd=0.5, seed=seed))[0]


_FULL_SPEC = ModelSpec(response="y", parametric_terms=(ParametricTerm("cond"),),
                       smooth_terms=(SmoothTermSpec("trial", "cr", k=10),
                                     SmoothTermSpec(("trial",), "cr", k=5,
                                                    fs_group="subject")),
                       rho=0.3)


def test_fit_whitens_its_design_again_on_first_access():
    """The fit keeps design_raw only; design is the bits it was solved on."""
    model = fit(_FULL_SPEC, _scenario(6, 40, 2))
    assert "design" not in vars(model)
    des, want = model.design, ar1_whiten(model.design_raw, 0.3)
    np.testing.assert_array_equal(des.y, want.y)
    np.testing.assert_array_equal(des.X_dense, want.X_dense)
    for part in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(des.X_sparse, part),
                                      getattr(want.X_sparse, part))
    np.testing.assert_array_equal(model.residuals_whitened,
                                  des.y - des.dot(model.beta))
    flat = fit(replace(_FULL_SPEC, rho=0.0), _scenario(6, 40, 2))
    assert flat.design is flat.design_raw


def _full_design(n_subjects, n_trials, seed):
    """cond + cr(trial) + fs(trial, subject), AR(1)-whitened at rho 0.3."""
    return ar1_whiten(assemble(_FULL_SPEC, _scenario(n_subjects, n_trials,
                                                     seed)), 0.3)


def _pilot_design(seed=120, perm_seed=88):
    """A permutation-test pilot fit on 4 x 150. At simulate seed 120 under
    permutation seed 88 (the default) the REML score falls towards
    lambda_1 = inf."""
    table = _scenario(4, 150, seed)
    codes = table.factor("subject").codes
    order = np.asarray(table.numeric("trial"))
    rng = np.random.default_rng([perm_seed, 0])
    shuffled = order.copy()
    for j in range(4):
        rows = np.flatnonzero(codes == j)
        shuffled[rows] = order[rows][rng.permutation(rows.size)]
    permuted = table.with_column("trial", shuffled)
    return assemble(pilot_spec(permuted, "y"), permuted)


@pytest.mark.parametrize("case", [f"full-4x150-seed{s}" for s in range(8)]
                         + ["stuck-pilot", "pilot-at-bound", "fs-search-20x100"])
def test_newton_search_never_loses_to_nelder_mead(case):
    """The score is never worse than three Nelder-Mead runs by more than
    1e-6 relative. Seed 7 of the 4 x 150 model has a local optimum: one
    Newton start from log lambda = 0 ends 0.876 worse there. The pilot of
    simulate seed 40 under permutation seed 2 ends with lambda_1 on its
    bound and a gradient of -1.9e-6 pushing past it, which the projected
    gradient leaves out."""
    if case == "stuck-pilot":
        des = _pilot_design()
    elif case == "pilot-at-bound":
        des = _pilot_design(40, 2)
    elif case == "fs-search-20x100":
        des = _full_design(20, 100, 88)
    else:
        des = _full_design(4, 150, int(case.rsplit("seed", 1)[1]))
    search = optimize_lambdas(des)
    oracle = _nelder_mead_oracle(des)
    assert search.converged
    assert search.score <= oracle + 1e-6 * abs(oracle)
    assert search.score == pytest.approx(
        reml_score(des, np.log(search.lambdas)), rel=1e-12)
    assert search.grad_max <= GRAD_TOL


def test_bound_probe_escapes_a_shallow_basin():
    """cond + cr(trial) + re(subject) on 400 x 100 at simulate seed 0 (a
    large-n bench dataset): all three Newton runs end in a basin 1e-3 deep
    at log lambda_1 = 14.1, 0.66 above the score at lambda_1's upper bound.
    Probing the bounds from the best point finds the lower score."""
    spec = ModelSpec(response="y", parametric_terms=(ParametricTerm("cond"),),
                     smooth_terms=(SmoothTermSpec("trial", "cr", k=10),
                                   SmoothTermSpec(("subject",),
                                                  is_random_effect=True)),
                     rho=0.3)
    des = ar1_whiten(assemble(spec, _scenario(400, 100, 0)), 0.3)
    search = optimize_lambdas(des)
    oracle = _nelder_mead_oracle(des)
    assert search.converged
    assert search.score <= oracle + 1e-6 * abs(oracle)
    assert math.log(search.lambdas[0]) == pytest.approx(LOG_LAMBDA_MAX)


def _record_stacks(monkeypatch):
    """Route the module attribute reml_score through a recorder: one entry
    per call, the stack's points and their derivative thresholds."""
    real_score = fitting.reml_score
    calls = []

    def recording_score(design, x, derivatives=False):
        x = np.array(x, dtype=np.float64)
        assert x.ndim == 2                  # the search scores in stacks
        below = np.broadcast_to(
            -math.inf if derivatives is False else derivatives, len(x))
        calls.append((x, below.astype(np.float64)))
        return real_score(design, x, derivatives)

    monkeypatch.setattr(fitting, "reml_score", recording_score)
    return calls


def _record_runs(monkeypatch):
    """Wrap the module attribute _newton_search: one entry per Newton run,
    the (point, threshold) pairs it asked for, in order."""
    real_search = fitting._newton_search
    runs = []

    def recording_search(x):
        asked = []
        runs.append(asked)
        run, result = real_search(x), None
        while True:
            try:
                ask = run.send(result)
            except StopIteration as stop:
                return stop.value
            asked.append(ask)
            result = yield ask

    monkeypatch.setattr(fitting, "_newton_search", recording_search)
    return runs


def test_optimizer_converges_on_a_search_stuck_at_the_bound(monkeypatch):
    """On the stuck pilot the search runs lambda_1 up to its bound and
    converges there with no warning; every point it scores goes through the
    module attribute reml_score."""
    des = _pilot_design()
    calls = _record_stacks(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        search = optimize_lambdas(des)
    monkeypatch.undo()
    points = sum(len(x) for x, _ in calls)
    assert search.converged
    assert math.log(search.lambdas[0]) > LOG_LAMBDA_MAX - 1.0
    oracle = _nelder_mead_oracle(des)
    assert search.score <= oracle + 1e-6 * abs(oracle)
    assert search.n_eval == points < 200
    # the tail is jumped, not climbed: lambda_1 sits on the bound itself and
    # the other coordinate is stationary there
    assert math.log(search.lambdas[0]) == LOG_LAMBDA_MAX
    assert search.grad_max <= GRAD_TOL


def test_tail_jump_cuts_the_stuck_pilot_search():
    """Before the search jumped exponential tails, the stuck pilot took 62
    scores and ended at 1004.5334513596856; now it needs fewer, and its
    score is no higher."""
    search = optimize_lambdas(_pilot_design())
    assert search.converged
    assert search.n_eval < 62
    assert search.score <= 1004.5334513596856


@pytest.mark.parametrize("case", ["stuck-pilot", "permtest-pilot"])
def test_search_scores_its_runs_in_lockstep(monkeypatch, case):
    """The three Newton runs advance together and the bound probes go in
    one call: a permutation-test pilot search makes at most max(run
    length) + 2 reml_score calls (the parent made one per point)."""
    des = _pilot_design() if case == "stuck-pilot" else _pilot_design(2, 0)
    calls, runs = _record_stacks(monkeypatch), _record_runs(monkeypatch)
    search = optimize_lambdas(des)
    assert search.converged and len(runs) >= 3
    assert len(calls) <= max(len(run) for run in runs) + 2
    assert search.n_eval == sum(len(x) for x, _ in calls)


@pytest.mark.parametrize("case", ["stuck-pilot", "full-4x150-seed5",
                                  "fs-search-20x100"])
def test_search_scores_each_point_once(monkeypatch, case):
    """An accepted trial brings its own gradient and Hessian: each point is
    scored once, no run asks for the same point twice in a row, and n_eval
    counts every point of every stacked call. Seed 5 of the 4 x 150 model
    accepts halved steps. On the stuck pilot and fs-search the search jumps
    a lambda from more than 5 below its upper bound onto it, and that point
    too is scored once, with derivatives asked for below the run's current
    score; the bound probes ask for none."""
    des = {"stuck-pilot": _pilot_design,
           "full-4x150-seed5": lambda: _full_design(4, 150, 5),
           "fs-search-20x100": lambda: _full_design(20, 100, 88)}[case]()
    calls, runs = _record_stacks(monkeypatch), _record_runs(monkeypatch)
    search = optimize_lambdas(des)
    points = np.vstack([x for x, _ in calls])
    assert search.converged and search.n_eval == len(points)
    assert len({p.tobytes() for p in points}) == len(points)
    asked = [(p.tobytes(), b) for x, below in calls
             for p, b in zip(x, below)]
    by_runs = [(np.asarray(p).tobytes(), b) for run in runs for p, b in run]
    assert sorted(by_runs) == sorted(a for a in asked if a[1] != -math.inf)
    jumps = []
    for run in runs:
        (first, start), rest = run[0], run[1:]
        assert start == math.inf              # a start always brings them
        assert all(math.isfinite(b) for _, b in rest)
        assert not any(np.array_equal(a, b) for (a, _), (b, _)
                       in zip(run, run[1:]))
        jumps += [i for i in range(1, len(run))
                  if np.any((run[i][0] == LOG_LAMBDA_MAX)
                            & (run[i - 1][0] < LOG_LAMBDA_MAX - 5.0))]
    assert bool(jumps) == (case != "full-4x150-seed5")
    # the probes: one call, every coordinate at each bound it is not at
    probes = [x for x, below in calls if np.all(below == -math.inf)]
    assert len(probes) == 1 and len(probes[0]) <= 2 * len(des.penalties)


def test_search_takes_a_flat_step_that_lowers_the_gradient():
    """cond + cr(x) + re(subj) at rho 0.25 on acceptance test A13's table:
    the last Newton step's predicted decrease, 2e-13, is under the score's
    rounding, and the trial did not score lower, so the search stopped at
    |g| = 1.22e-6 > GRAD_TOL and still read converged. A full step whose
    predicted decrease is rounding is taken when it scores within rounding
    and lowers the largest free |g|: the fit ends stationary."""
    rng = np.random.default_rng(7)
    n = 300
    x = rng.uniform(0.0, 1.0, n)
    y = (np.sin(2.0 * np.pi * x) + 0.4 * (np.arange(n) % 2 - 0.5)
         + 0.15 * rng.standard_normal(n))
    table = DataTable(columns={
        "y": y, "x": x,
        "cond": FactorColumn.from_strings(["ab"[i % 2] for i in range(n)]),
        "subj": FactorColumn.from_strings([f"s{i // 50}" for i in range(n)]),
        "trial": np.tile(np.arange(50.0), 6)},
        n_rows=n, series_key="subj", order_key="trial")
    model = fit(ModelSpec(response="y",
                          parametric_terms=(ParametricTerm("cond"),),
                          smooth_terms=(SmoothTermSpec("x", "cr", k=10),
                                        SmoothTermSpec("subj",
                                                       is_random_effect=True)),
                          rho=0.25), table)
    assert model.converged and model.n_eval == 31
    assert model.grad_max <= GRAD_TOL


def test_search_skips_a_start_that_cannot_be_scored(monkeypatch):
    """A start whose score fails is skipped and still counted; when no
    start can be scored the search raises."""
    des = assemble(ModelSpec(response="y",
                             smooth_terms=(SmoothTermSpec("x", "cr", k=8),)),
                   _table(150, seed=9))
    real_score = fitting.reml_score
    reference = optimize_lambdas(des)

    def failing_low(design, x, derivatives=False):
        scored = real_score(design, x, derivatives)
        return [(math.inf, None, None) if np.all(p < -10.0) else r
                for p, r in zip(np.asarray(x), scored)]

    monkeypatch.setattr(fitting, "reml_score", failing_low)
    search = optimize_lambdas(des)
    assert search.converged
    assert search.score == pytest.approx(reference.score, rel=1e-12)
    assert search.n_eval < reference.n_eval

    def failing(design, x, derivatives=False):
        return [(math.inf, None, None)] * len(x)

    monkeypatch.setattr(fitting, "reml_score", failing)
    with pytest.raises(NumericError, match="every candidate"):
        optimize_lambdas(des)


# ---------------------------------------------------------------------------
# block-arrow factorization


def _dense_reml(des, x):
    """Score, gradient and Hessian from one dense Cholesky of X'X + S_lambda
    and its dense inverse: the formulas reml_score used before it factored
    the level blocks and the border apart."""
    lam = np.exp(np.asarray(x, dtype=np.float64))
    xtx, xty, yty = _dense_gram(des)
    S = []
    for e in des.penalties:
        sl = slice(e.offset, e.offset + e.p_block)
        full = np.zeros((des.p, des.p))
        full[sl, sl] = e.S
        S.append(full)
    A = xtx + sum(lj * s for lj, s in zip(lam, S))
    factor = cho_factor(A, lower=True)
    beta = cho_solve(factor, xty)
    rss = yty - beta @ xty
    n_eff = des.n - des.m_null_total
    W = des.logpdet_weights
    score = (0.5 * n_eff * (math.log(2.0 * math.pi * rss / n_eff) + 1.0)
             - 0.5 * (des.logpdet_const + np.sum(np.log(W @ lam)))
             + np.sum(np.log(np.diag(factor[0]))))
    a_inv = cho_solve(factor, np.eye(des.p))
    M = [lj * a_inv @ s for lj, s in zip(lam, S)]
    s_beta = [lj * s @ beta for lj, s in zip(lam, S)]
    r = np.array([beta @ v for v in s_beta])
    t = np.array([np.trace(Mj) for Mj in M])
    cross = np.array([[u @ a_inv @ v for v in s_beta] for u in s_beta])
    trace2 = np.array([[np.sum(Mi * Mj.T) for Mj in M] for Mi in M])
    P = W * lam / (W @ lam)[:, None]
    p_sum = P.sum(axis=0)
    grad = 0.5 * (n_eff * r / rss + t - p_sum)
    hess = 0.5 * n_eff * ((np.diag(r) - 2.0 * cross) / rss
                          - np.outer(r, r) / rss ** 2) \
        + 0.5 * (np.diag(t) - trace2) - 0.5 * (np.diag(p_sum) - P.T @ P)
    return score, grad, hess


def _large_n_shaped(n_subjects=60, n_trials=50, seed=3):
    """The large-n bench model, cond + cr(trial) + re(subject) at rho 0.3,
    on fewer subjects."""
    spec = ModelSpec(response="y", parametric_terms=(ParametricTerm("cond"),),
                     smooth_terms=(SmoothTermSpec("trial", "cr", k=10),
                                   SmoothTermSpec(("subject",),
                                                  is_random_effect=True)),
                     rho=0.3)
    return ar1_whiten(assemble(spec, _scenario(n_subjects, n_trials, seed)),
                      0.3)


def _crossed_design(seed=2):
    """re(item) + fs(trial, subject) at rho 0.3 on 8 x 60. The item changes
    from trial to trial within each subject, so whitening couples item
    levels and re(item) belongs in the border."""
    table = _scenario(8, 60, seed)
    items = FactorColumn.from_strings(
        [f"i{int(t) % 9}" for t in table.numeric("trial")])
    spec = ModelSpec(response="y", parametric_terms=(ParametricTerm("cond"),),
                     smooth_terms=(SmoothTermSpec(("item",),
                                                  is_random_effect=True),
                                   SmoothTermSpec(("trial",), "cr", k=5,
                                                  fs_group="subject")),
                     rho=0.3)
    return ar1_whiten(assemble(spec, table.with_column("item", items)), 0.3)


def _fs_by_design(seed=2):
    """fs(trial, subject) + cr(trial):cond at rho 0.3 on 8 x 60, with a
    trend in trial added to each cond level so that no by-factor lambda
    ends at its bound. The fs term takes the level blocks; each cond
    level's curve is one penalty placed on its own columns of the
    border."""
    table = _scenario(8, 60, seed)
    trial = np.asarray(table.numeric("trial"))
    trend = np.where(table.factor("cond").codes == 0, np.sin(trial / 10.0),
                     np.cos(trial / 7.0))
    table = table.with_column("y", np.asarray(table.numeric("y")) + trend)
    spec = ModelSpec(response="y", parametric_terms=(ParametricTerm("cond"),),
                     smooth_terms=(SmoothTermSpec(("trial",), "cr", k=5,
                                                  fs_group="subject"),
                                   SmoothTermSpec("trial", "cr", k=6,
                                                  by="cond")),
                     rho=0.3)
    return ar1_whiten(assemble(spec, table), 0.3)


def _assert_matches_dense(des, points):
    """Score, gradient and Hessian within 1e-10 of the dense oracle,
    relative to each one's largest entry or to 1, whichever is larger: a
    gradient entry is a difference of terms of order 1, and at log lambda
    = 3 on te and by the dense oracle itself is 5e-10 of its largest entry
    away from a 40-digit evaluation of the same formulas."""
    for x in points:
        got = reml_score(des, x, derivatives=True)
        want = _dense_reml(des, x)
        for g, w in zip(got, want):
            scale = max(np.max(np.abs(w)), 1.0)
            assert np.max(np.abs(g - w)) <= 1e-10 * scale, x


@pytest.mark.parametrize("name", sorted(_DERIVATIVE_CASES))
def test_arrow_matches_dense_oracle_on_derivative_designs(name):
    terms, extra = _DERIVATIVE_CASES[name]
    des = assemble(ModelSpec(response="y", smooth_terms=terms),
                   _derivative_table())
    m = len(des.penalties)
    _assert_matches_dense(des, [np.zeros(m), np.full(m, 3.0)]
                          + [np.array(p) for p in extra])


@pytest.mark.parametrize("case", ["full-4x150", "full-20x100",
                                  "large-n-shaped", "crossed", "fs+by"])
def test_arrow_matches_dense_oracle_on_search_designs(case):
    """At log lambda = 0, 10 and the optimum. On the crossed design the fs
    term takes the level blocks and re(item) the border, expanded over its
    levels; on fs+by each by-factor level is a single block of the
    border."""
    des = {"full-4x150": lambda: _full_design(4, 150, 3),
           "full-20x100": lambda: _full_design(20, 100, 88),
           "large-n-shaped": _large_n_shaped,
           "crossed": _crossed_design,
           "fs+by": _fs_by_design}[case]()
    ar = des.arrow()
    blocks = "re(subject)" if case == "large-n-shaped" else "fs(trial,subject)"
    np.testing.assert_array_equal(ar.idx.ravel(),
                                  np.arange(*des.col_ranges[blocks]))
    if case == "fs+by":
        a, b = des.col_ranges["cr(trial):cond"]
        for level, j in enumerate((2, 3)):   # on its level's 5 columns only
            cols = ar.border[np.flatnonzero(ar.d_b[j])] - a - 5 * level
            assert 0 <= cols.min() <= cols.max() < 5
        assert ar.t_pen == slice(0, 2)       # only fs on the levels
    m = len(des.penalties)
    _assert_matches_dense(des, [np.zeros(m), np.full(m, 10.0),
                                np.log(optimize_lambdas(des).lambdas)])


def _relabel_and_shuffle(table, seed=4):
    """The same rows, in a random order, with the subject levels named so
    that they sort in reverse."""
    subject = table.factor("subject")
    L = subject.n_levels
    names = [f"r{L - 1 - c:03d}" for c in subject.codes]
    relabelled = table.with_column("subject", FactorColumn.from_strings(names))
    rows = np.random.default_rng(seed).permutation(table.n_rows)
    return relabelled.take(rows)


@pytest.mark.parametrize("model", ["fs", "re"])
def test_fit_does_not_depend_on_level_labels_or_row_order(model):
    """REML and lambda agree to 1e-10 when the subject levels are relabelled
    in reverse and the rows shuffled before fit: the level blocks come in
    another order, and so do the border's sums over them."""
    table = _scenario(12, 80, 6)
    smooth = (SmoothTermSpec(("trial",), "cr", k=5, fs_group="subject")
              if model == "fs" else
              SmoothTermSpec(("subject",), is_random_effect=True))
    spec = ModelSpec(response="y", parametric_terms=(ParametricTerm("cond"),),
                     smooth_terms=(SmoothTermSpec("trial", "cr", k=10),
                                   smooth),
                     rho=0.3)
    ref = fit(spec, table)
    other = fit(spec, _relabel_and_shuffle(table))
    assert other.reml == pytest.approx(ref.reml, rel=1e-10)
    np.testing.assert_allclose(other.lambdas, ref.lambdas, rtol=1e-10)


@pytest.mark.parametrize("log_lambdas", [(-5.0, -5.0), (2.0, 2.0)])
def test_reml_score_refuses_a_level_block_that_is_not_positive_definite(
        log_lambdas):
    """One level's block of X'X, held in the cached sparse T'T, with its
    sign flipped: at log lambda = -5 its diagonal turns negative, at 2 the
    penalties keep the diagonal positive and the level's Cholesky fails.
    Either way the score raises NumericError naming the lambdas, with or
    without derivatives."""
    terms, _ = _DERIVATIVE_CASES["fs"]
    des = assemble(ModelSpec(response="y", smooth_terms=terms),
                   _derivative_table())
    tt = des.ensure_products()[2]
    a, b = des.col_ranges["fs(x,g)"]
    lo = int(np.searchsorted(des.sparse_cols, a))
    w = (b - a) // 4
    level = (tt.row >= lo) & (tt.row < lo + w) & \
        (tt.col >= lo) & (tt.col < lo + w)
    assert np.count_nonzero(level) == w * w
    tt.data[level] *= -1.0
    for derivatives in (False, True):
        with pytest.raises(NumericError, match="not positive definite at "
                                               "lambdas"):
            reml_score(des, log_lambdas, derivatives=derivatives)


def _assert_same_result(got, want):
    assert got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        assert (g is None and w is None) or np.array_equal(g, w)


@pytest.mark.parametrize("name", ["fs", "by", "te", "no-levels"])
def test_reml_score_of_a_point_does_not_depend_on_its_stack(name):
    """Score, gradient and Hessian of a point are bit for bit the same
    whether it is scored alone or inside a stack, in any order and next
    to any points, with or without derivatives asked for its neighbours.
    fs and by have level blocks; te and the cr + cr design have none."""
    if name == "no-levels":
        des = assemble(ModelSpec(response="y", smooth_terms=(
            SmoothTermSpec("x", "cr", k=8), SmoothTermSpec("z", "cr", k=6))),
            _derivative_table())
        extra = [(_NEAR_MIN, 1.0), (1.0, _NEAR_MAX)]
    else:
        terms, extra = _DERIVATIVE_CASES[name]
        des = assemble(ModelSpec(response="y", smooth_terms=terms),
                       _derivative_table())
    assert bool(des.arrow().idx.size) == (name in ("fs", "by"))
    m = len(des.penalties)
    points = np.array([np.zeros(m), np.full(m, 3.0)] + [list(p) for p in extra]
                      + [np.full(m, LOG_LAMBDA_MIN), np.full(m, LOG_LAMBDA_MAX)])
    alone = [reml_score(des, x, derivatives=True) for x in points]
    for i, x in enumerate(points):
        assert reml_score(des, x) == alone[i][0]
    rng = np.random.default_rng(5)
    for size in (1, 2, 3, len(points)):
        for _ in range(3):
            pick = rng.choice(len(points), size, replace=False)
            below = np.where(rng.random(size) < 0.7, math.inf, -math.inf)
            stacked = reml_score(des, points[pick], derivatives=below)
            for i, b, got in zip(pick, below, stacked):
                _assert_same_result(got, alone[i] if b == math.inf
                                    else (alone[i][0], None, None))


def test_a_stack_scores_a_failing_point_as_a_failure():
    """In a stack, a point that raises NumericError alone reads (inf, None,
    None) and the others score as alone: on the fs design with one level's
    X'X block negated, log lambda = -5 fails the diagonal check, 2 the
    level's Cholesky and nan the finite-lambda check, while large lambdas
    keep every level block positive definite."""
    terms, _ = _DERIVATIVE_CASES["fs"]
    des = assemble(ModelSpec(response="y", smooth_terms=terms),
                   _derivative_table())
    tt = des.ensure_products()[2]
    a, b = des.col_ranges["fs(x,g)"]
    lo = int(np.searchsorted(des.sparse_cols, a))
    w = (b - a) // 4
    tt.data[(tt.row >= lo) & (tt.row < lo + w) & (tt.col >= lo)
            & (tt.col < lo + w)] *= -1.0
    points = np.array([[20.0, 20.0], [-5.0, -5.0], [24.0, 22.0], [2.0, 2.0],
                       [math.nan, 1.0], [26.0, 21.0]])
    stacked = reml_score(des, points, derivatives=True)
    for x, got in zip(points, stacked):
        if x[0] in (20.0, 24.0, 26.0):
            _assert_same_result(got, reml_score(des, x, derivatives=True))
        else:
            assert got == (math.inf, None, None)
            with pytest.raises(NumericError):
                reml_score(des, x)


def test_reml_score_memory_stays_below_one_dense_matrix():
    """On cond + cr + fs with 100 subjects (p = 511), one score with
    derivatives allocates less than one dense p x p array: nothing of
    size p^2 is formed."""
    des = _full_design(100, 40, 1)
    assert des.p == 511
    x = np.zeros(len(des.penalties))
    reml_score(des, x, derivatives=True)
    tracemalloc.start()
    reml_score(des, x, derivatives=True)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 8 * des.p ** 2


def test_gram_memory_stays_below_one_dense_matrix():
    """On cond + cr + fs with 200 subjects (p = 1011), forming the Gram's
    parts and gathering the block-arrow layout from them allocates less
    than one dense p x p array: X'X is never formed p x p."""
    des = _full_design(200, 100, 1)
    assert des.p == 1011
    tracemalloc.start()
    des.ensure_products()
    des.arrow()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 8 * des.p ** 2


def test_fit_forms_the_gram_once(monkeypatch):
    """A fit with a lambda search, a final solve and a final score forms
    the X'X products once and builds the block-arrow layout once: every
    ensure_products call returns the same cached parts."""
    formed, layouts = [], []
    real_products = fitting.AssembledDesign.ensure_products
    real_layout = fitting._arrow_layout

    def products(design):
        parts = real_products(design)
        if not any(parts is seen for seen in formed):
            formed.append(parts)
        return parts

    def layout(design):
        layouts.append(real_layout(design))
        return layouts[-1]

    monkeypatch.setattr(fitting.AssembledDesign, "ensure_products", products)
    monkeypatch.setattr(fitting, "_arrow_layout", layout)
    model = fit(_FULL_SPEC, _scenario(6, 40, 1))
    assert model.n_eval > 0
    assert len(formed) == 1 and len(layouts) == 1


def _assemble_peak(spec, table):
    """tracemalloc peak of assemble, in bytes, and the design."""
    assemble(spec, table)
    tracemalloc.start()
    des = assemble(spec, table)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak, des


def test_assemble_memory_of_a_by_factor_term_stays_below_its_design():
    """cond + cr(trial):subject on 40 x 100 (p = 362): the 40 level
    penalties stay 9 x 9 bases, so assembly allocates less than half of a
    dense n x p design. With one dense p x p array per level it peaked at
    43 MB."""
    spec = ModelSpec(response="y", parametric_terms=(ParametricTerm("cond"),),
                     smooth_terms=(SmoothTermSpec("trial", "cr", k=10,
                                                  by="subject"),),
                     rho=0.3)
    peak, des = _assemble_peak(spec, _scenario(40, 100, 1))
    assert des.p == 362
    assert peak < 0.5 * 8 * des.n * des.p


def test_assemble_memory_of_a_factor_smooth_is_linear_in_the_subjects():
    """cond + cr(trial) + fs(trial, subject) on 200 x 100 (p = 1011): the
    design holds n * p_base entries, p_base = 16 columns of dense blocks
    and per-level bases, and assembly's temporaries stay within four
    copies of that. Two dense 1000 x 1000 fs penalties and the eigh of
    their sum made it peak at 76 MB."""
    spec = ModelSpec(response="y", parametric_terms=(ParametricTerm("cond"),),
                     smooth_terms=(SmoothTermSpec("trial", "cr", k=10),
                                   SmoothTermSpec(("trial",), "cr", k=5,
                                                  fs_group="subject")),
                     rho=0.3)
    peak, des = _assemble_peak(spec, _scenario(200, 100, 1))
    assert des.p == 1011
    p_base = des.X_dense.shape[1] + 5
    assert p_base == 16
    assert peak < 4 * 8 * des.n * p_base


def _dense_pls(des, lambdas):
    """The final solve as it was before it read the block-arrow layout:
    eigh of the whole equilibrated X'X for a p-row root, one QR of the root
    stacked on the penalty roots, and a p x p triangular inverse for vb."""
    xtx, xty, _ = _dense_gram(des)
    p = des.p
    d = np.sqrt(np.diag(xtx))
    d = np.where(d > 0, d, 1.0)
    w, U = np.linalg.eigh(xtx / np.outer(d, d))
    keep = w > 1e-13 * w[-1]
    w, U = w[keep], U[:, keep]
    rows = [np.sqrt(w)[:, None] * U.T * d]
    for e, lam in zip(des.penalties, lambdas):
        if lam > 0 and e.rank > 0:
            block = np.zeros((e.rank, p))
            block[:, e.offset:e.offset + e.p_block] = math.sqrt(lam) * e.sqrt
            rows.append(block)
    B = np.vstack(rows)
    rhs = np.zeros(B.shape[0])
    rhs[:w.size] = (U.T @ (xty / d)) / np.sqrt(w)
    Q, R = qr(B, mode="economic")
    rdiag = np.abs(np.diag(R))
    if R.shape[0] < p or rdiag.min() <= 1e-10 * max(rdiag.max(), 1.0):
        delta = 1e-10 * float(np.mean(np.sum(B * B, axis=0)))
        B = np.vstack([B, math.sqrt(delta) * np.eye(p)])
        rhs = np.concatenate([rhs, np.zeros(p)])
        Q, R = qr(B, mode="economic")
    beta = solve_triangular(R, Q.T @ rhs)
    r_inv = solve_triangular(R, np.eye(p))
    vb = r_inv @ r_inv.T
    vb = 0.5 * (vb + vb.T)
    edf = np.einsum("ij,ji->i", vb, xtx)
    edf = np.where((edf > 1.0) & (edf < 1.0 + 1e-8), 1.0, edf)
    edf = np.where((edf < 0.0) & (edf > -1e-8), 0.0, edf)
    return beta, vb, edf


def _assert_solve_matches_dense(des, lambdas, edf_tol=1e-10):
    """beta, fitted values, edf and vb within 1e-10 of the dense solve,
    relative to each one's largest entry or to 1, whichever is larger."""
    sol = pls_solve(des, lambdas)
    beta, vb, edf = _dense_pls(des, lambdas)
    for got, want, tol in [(sol.beta, beta, 1e-10),
                           (des.dot(sol.beta), des.dot(beta), 1e-10),
                           (sol.edf_per_coef, edf, edf_tol),
                           (sol.vb_unscaled, vb, 1e-10)]:
        scale = max(np.max(np.abs(want)), 1.0)
        assert np.max(np.abs(got - want)) <= tol * scale
    np.testing.assert_array_equal(sol.vb_unscaled, sol.vb_unscaled.T)
    return sol


@pytest.mark.parametrize("name", sorted(_DERIVATIVE_CASES))
def test_arrow_solve_matches_dense_solve_on_derivative_designs(name):
    terms, extra = _DERIVATIVE_CASES[name]
    des = assemble(ModelSpec(response="y", smooth_terms=terms),
                   _derivative_table())
    m = len(des.penalties)
    for x in [np.zeros(m), np.full(m, 3.0)] + [np.array(p) for p in extra]:
        assert not _assert_solve_matches_dense(des, np.exp(x)).ridged


@pytest.mark.parametrize("case", ["full-4x150", "full-20x100",
                                  "large-n-shaped", "crossed", "fs+by"])
def test_arrow_solve_matches_dense_solve_on_search_designs(case):
    """At log lambda = 10 and at the optimum. (At log lambda = 0 the cr and
    fs terms of the full designs nearly share a direction: on full-4x150
    the dense solve's beta is 2.8e-10 of its largest entry from the exact
    rational solution there, the arrow solve's 6.0e-11.)"""
    des = {"full-4x150": lambda: _full_design(4, 150, 3),
           "full-20x100": lambda: _full_design(20, 100, 88),
           "large-n-shaped": _large_n_shaped,
           "crossed": _crossed_design,
           "fs+by": _fs_by_design}[case]()
    m = len(des.penalties)
    for lambdas in (np.full(m, math.exp(10.0)), optimize_lambdas(des).lambdas):
        assert not _assert_solve_matches_dense(des, lambdas).ridged


def test_arrow_solve_matches_dense_solve_without_level_blocks():
    """cond + cr: no per-level term, so every column is border."""
    des = assemble(ModelSpec(response="y", parametric_terms=(
        ParametricTerm("cond"),), smooth_terms=(
        SmoothTermSpec("x", "cr", k=8),)), _subject_table())
    assert des.arrow().idx.size == 0
    for lam in (1e-3, 1.0, 1e6):
        assert not _assert_solve_matches_dense(des, [lam]).ridged


def test_arrow_solve_matches_dense_solve_when_ridged():
    """intercept + cond + re at lambda = 0 is singular and both solves
    ridge by 1e-10 * trace(X'X) / p. The ridged system's condition number
    is about 1e10, so edf, diag(vb X'X), is compared to 1e-5: the arrow
    solve sits 1.8e-7 and the dense solve 1.9e-6 from the exact rational
    edf."""
    des = assemble(_COND_RE, _subject_table())
    assert _assert_solve_matches_dense(des, [0.0], edf_tol=1e-5).ridged


@pytest.mark.parametrize("routine", ["eigh", "qr", "inv"])
def test_level_factorization_failure_is_a_numeric_error(monkeypatch,
                                                        routine):
    """A LinAlgError from a batched per-level routine surfaces as a
    NumericError naming the final solve."""
    des = _large_n_shaped(12, 30)
    real = getattr(np.linalg, routine)

    def broken_on_a_stack(a, *args, **kwargs):
        if a.ndim == 3:
            raise np.linalg.LinAlgError("did not converge")
        return real(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, routine, broken_on_a_stack)
    with pytest.raises(NumericError, match="final solve"):
        pls_solve(des, [1.0, 1.0])


def test_pls_solve_memory_stays_below_three_dense_matrices():
    """On cond + cr + fs with 100 subjects (p = 511) the solve's peak
    allocation is below three p x p arrays, vb included. The dense solve
    peaked at 9.0 of them (18.8 MB)."""
    des = _full_design(100, 40, 1)
    assert des.p == 511
    lambdas = np.ones(len(des.penalties))
    pls_solve(des, lambdas)
    tracemalloc.start()
    pls_solve(des, lambdas)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 3 * 8 * des.p ** 2


# ---------------------------------------------------------------------------
# fit


def test_fit_intercept_only_closed_form():
    rng = np.random.default_rng(11)
    y = 3.0 + rng.standard_normal(40)
    tab = DataTable(columns={"y": y}, n_rows=40)
    model = fit(ModelSpec(response="y"), tab)
    assert model.beta[0] == pytest.approx(y.mean(), rel=1e-12)
    assert model.sigma2 == pytest.approx(y.var(ddof=1), rel=1e-12)
    assert model.total_edf == pytest.approx(1.0)
    n, rss = model.n, model.rss_whitened
    assert model.loglik == pytest.approx(
        -0.5 * n * (math.log(2 * math.pi * rss / n) + 1.0))


def test_fit_recovers_smooth_signal():
    rng = np.random.default_rng(12)
    n = 200
    x = rng.uniform(0, 1, n)
    truth = np.sin(2 * np.pi * x)
    tab = DataTable(columns={"y": truth + 0.1 * rng.standard_normal(n), "x": x},
                    n_rows=n)
    model = fit(ModelSpec(response="y",
                          smooth_terms=(SmoothTermSpec("x", "cr", k=20),)), tab)
    assert model.converged and not model.ridged
    rmse = math.sqrt(float(np.mean((model.fitted_values - truth) ** 2)))
    assert rmse < 0.05
    assert 1.0 < model.total_edf < 20.0


def test_fit_satisfies_stationarity():
    """At the solution the penalized-least-squares gradient vanishes."""
    des_model = fit(ModelSpec(response="y",
                              smooth_terms=(SmoothTermSpec("x", "cr", k=12),)),
                    _table(90, seed=13))
    des = des_model.design
    S_beta = np.zeros(des.p)
    for entry, lam in zip(des.penalties, des_model.lambdas):
        sl = slice(entry.offset, entry.offset + entry.p_block)
        S_beta[sl] += lam * (entry.S @ des_model.beta[sl])
    grad = des.X.T @ (des.X @ des_model.beta - des.y) + S_beta
    assert np.abs(grad).max() <= 1e-6 * np.abs(des.X.T @ des.y).max()


def test_fit_is_continuous_in_rho_at_zero():
    tab = _table(120, seed=14, series=True)
    smooth = (SmoothTermSpec("x", "cr", k=8),)
    lam = [2.0]
    m0 = fit(ModelSpec(response="y", smooth_terms=smooth, rho=0.0), tab,
             lambdas=lam)
    m1 = fit(ModelSpec(response="y", smooth_terms=smooth, rho=1e-3), tab,
             lambdas=lam)
    assert np.abs(m0.fitted_values - m1.fitted_values).max() < 1e-3


def test_fit_rho_without_series_raises():
    tab = _table(20)
    with pytest.raises(SchemaError):
        fit(ModelSpec(response="y", rho=0.3), tab)


def test_fit_pinned_lambdas_respected():
    tab = _table(60, seed=15)
    model = fit(ModelSpec(response="y",
                          smooth_terms=(SmoothTermSpec("x", "cr", k=8),)), tab,
                lambdas=[5.0])
    np.testing.assert_array_equal(model.lambdas, [5.0])
    assert model.sigma2 == pytest.approx(
        model.rss_whitened / (model.n - model.total_edf))


def test_fit_reports_the_search_evaluation_count():
    spec = ModelSpec(response="y", smooth_terms=(SmoothTermSpec("x", "cr", k=8),))
    tab = _table(60, seed=15)
    model = fit(spec, tab)
    search = optimize_lambdas(model.design)
    assert model.n_eval == search.n_eval > 0
    assert model.grad_max == search.grad_max <= GRAD_TOL
    pinned, bare = fit(spec, tab, lambdas=[5.0]), fit(ModelSpec(response="y"), tab)
    assert pinned.n_eval == bare.n_eval == 0
    assert pinned.grad_max == bare.grad_max == 0.0


def test_fit_lambda_zero_pins_to_ols_with_nan_reml():
    tab = _table(50, seed=16)
    model = fit(ModelSpec(response="y",
                          smooth_terms=(SmoothTermSpec("x", "cr", k=7),)), tab,
                lambdas=[0.0])
    ols, *_ = np.linalg.lstsq(model.design.X.toarray(), model.design.y,
                              rcond=None)
    np.testing.assert_allclose(model.beta, ols, atol=1e-9)
    assert math.isnan(model.reml)


# ---------------------------------------------------------------------------
# prediction


def _grouped_fit(seed=17):
    rng = np.random.default_rng(seed)
    n_g, per = 6, 40
    g = np.repeat(np.arange(n_g), per)
    x = rng.uniform(0, 1, n_g * per)
    shifts = rng.normal(0, 0.7, n_g)
    y = np.sin(2 * np.pi * x) + shifts[g] + 0.1 * rng.standard_normal(len(x))
    tab = DataTable(columns={"y": y, "x": x,
                             "g": FactorColumn.from_strings([f"g{i}" for i in g])},
                    n_rows=len(x))
    spec = ModelSpec(response="y",
                     smooth_terms=(SmoothTermSpec("x", "cr", k=10),
                                   SmoothTermSpec("g", is_random_effect=True)))
    return fit(spec, tab), tab


def test_predict_reproduces_training_fit():
    model, tab = _grouped_fit()
    mean, se = predict(model, tab)
    np.testing.assert_allclose(mean, model.fitted_values, atol=1e-10)
    assert np.all(se > 0)


def test_predict_exclude_drops_group_offsets():
    model, _ = _grouped_fit()
    newdata = DataTable(columns={"x": np.array([0.3, 0.3]),
                                 "g": FactorColumn.from_strings(["g0", "g4"])},
                        n_rows=2)
    with_re, _ = predict(model, newdata)
    assert abs(with_re[0] - with_re[1]) > 1e-3
    without, _ = predict(model, newdata, exclude=["re(g)"])
    assert without[0] == pytest.approx(without[1], abs=1e-12)


def test_predict_include_empty_is_intercept_only():
    model, tab = _grouped_fit()
    mean, _ = predict(model, tab, include=[])
    np.testing.assert_allclose(mean, model.beta[0], atol=1e-12)


def _dense_rows(model, table):
    """Every term's rows as fitting._rows stores them, placed at their
    columns of a dense n x p matrix."""
    design = model.design_raw
    cols, vals = fitting._rows(design, table, list(design.col_ranges))
    X = np.zeros((table.n_rows, model.p))
    np.put_along_axis(X, cols, vals, axis=1)
    return X


def test_predict_include_selects_single_term(monkeypatch):
    model, tab = _grouped_fit()
    rows, real = [], fitting._rows

    def recorded(*args):
        rows.append(real(*args))
        return rows[-1]

    monkeypatch.setattr(fitting, "_rows", recorded)
    predict(model, tab, include=["cr(x)"])
    X = np.zeros((tab.n_rows, model.p))
    np.put_along_axis(X, *rows[0], axis=1)
    a, b = model.column_range("re(g)")
    np.testing.assert_array_equal(X[:, a:b], 0.0)
    a, b = model.column_range("cr(x)")
    assert np.abs(X[:, a:b]).max() > 0


def test_predict_include_unknown_term_raises():
    model, tab = _grouped_fit()
    with pytest.raises(SchemaError, match="s\\(typo\\)"):
        predict(model, tab, include=["s(typo)"])


def test_predict_and_partial_effect_on_no_rows_are_empty():
    model, tab = _grouped_fit()
    empty = tab.take(np.zeros(0, dtype=np.int64))
    for mean, se in (predict(model, empty),
                     partial_effect(model, "cr(x)", empty),
                     partial_effect(model, "re(g)", empty)):
        assert mean.shape == se.shape == (0,)


def test_predict_needs_only_the_kept_terms_covariates():
    """Without the grouping column, the terms that do not read it still
    predict, and as they do on the full table."""
    model, tab = _grouped_fit()
    no_g = DataTable(columns={"x": tab.numeric("x")}, n_rows=tab.n_rows)
    for kw in ({"include": ["cr(x)"]}, {"exclude": ["re(g)"]}):
        mean, se = predict(model, no_g, **kw)
        want_mean, want_se = predict(model, tab, **kw)
        np.testing.assert_array_equal(mean, want_mean)
        np.testing.assert_array_equal(se, want_se)
    with pytest.raises(SchemaError, match="lacks column 'g'"):
        predict(model, no_g)


def test_predict_unseen_level_raises():
    model, _ = _grouped_fit()
    newdata = DataTable(columns={"x": np.array([0.5]),
                                 "g": FactorColumn.from_strings(["mystery"])},
                        n_rows=1)
    with pytest.raises(DomainError):
        predict(model, newdata)


@pytest.mark.parametrize("term, column, values", [
    # a numeric group was read as level codes, 1.7 truncated to level 1
    ("fs(x,g)", "g", np.array([1.0, 3.0])),
    ("fs(x,g)", "g", np.array([1.7, 0.0])),
    # a factor where the spline reads numbers was a bare TypeError
    ("fs(x,g)", "x", FactorColumn.from_strings(["0.2", "0.6"])),
    ("re(g)", "g", np.array([1.0, 3.0])),
    ("re(g)", "g", np.array([1.7, 0.0])),
    # parametric columns named only the column and the kind expected
    ("cond", "cond", np.array([1.0, 0.0])),
    ("z", "z", FactorColumn.from_strings(["0.2", "0.6"])),
], ids=["fs-integer-group", "fs-fractional-group", "fs-factor-x",
        "re-integer-group", "re-fractional-group", "numeric-cond",
        "factor-z"])
def test_prediction_covariates_keep_the_kind_they_had_in_the_fit(
        term, column, values):
    tab = _fs_offsets_table()
    if term in ("cond", "z"):                 # a factor cond, a numeric z
        tab = tab.with_column("cond", FactorColumn.from_strings(
            [f"c{i % 2}" for i in range(tab.n_rows)]))
        tab = tab.with_column("z", tab.numeric("x") ** 2)
        spec = ModelSpec(response="y", parametric_terms=(
            ParametricTerm("cond"), ParametricTerm("z")))
    else:
        spec = ModelSpec(response="y", smooth_terms=(
            SmoothTermSpec("x", "cr", k=5, fs_group="g") if term[:2] == "fs"
            else SmoothTermSpec("g", is_random_effect=True),))
    model = fit(spec, tab)
    columns = {"x": np.array([0.2, 0.6]), "z": np.array([0.04, 0.36]),
               "g": FactorColumn.from_strings(["s0", "s3"]),
               "cond": FactorColumn.from_strings(["c0", "c1"]), column: values}
    newdata = DataTable(columns=columns, n_rows=2)
    message = re.escape(f"term {term!r}: column {column!r} is ")
    with pytest.raises(SchemaError, match=message):
        predict(model, newdata)
    if spec.smooth_terms:
        with pytest.raises(SchemaError, match=message):
            partial_effect(model, term, newdata)


def test_predict_unknown_exclude_raises():
    model, tab = _grouped_fit()
    with pytest.raises(SchemaError):
        predict(model, tab, exclude=["s(bogus)"])


def test_predict_extrapolates_linearly_with_warning():
    tab = _table(100, seed=18)
    model = fit(ModelSpec(response="y",
                          smooth_terms=(SmoothTermSpec("x", "cr", k=10),)), tab)
    far = np.linspace(1.5, 2.5, 5)
    newdata = DataTable(columns={"x": far}, n_rows=5)
    with pytest.warns(UserWarning, match="outside"):
        mean, se = predict(model, newdata)
    assert np.all(np.isfinite(mean)) and np.all(np.isfinite(se))
    # beyond the training range the spline continues as a straight line
    np.testing.assert_allclose(np.diff(mean, 2), 0.0, atol=1e-8)


def test_predict_below_the_first_knot_extends_along_its_slope():
    """Below the first knot a cr term continues as the tangent line there,
    and the warning counts the rows below it."""
    tab = _table(100, seed=18)
    model = fit(ModelSpec(response="y",
                          smooth_terms=(SmoothTermSpec("x", "cr", k=10),)), tab)
    x0 = float(tab.numeric("x").min())        # the first quantile knot
    below = x0 - np.array([0.5, 0.3, 0.1])
    h = 1e-6
    x = np.concatenate([below, [x0, x0 + h, 0.5]])
    with pytest.warns(UserWarning, match="^3 rows lie outside"):
        mean, _ = predict(model, DataTable(columns={"x": x}, n_rows=x.size))
    slope = (mean[4] - mean[3]) / h
    np.testing.assert_allclose(mean[:3], mean[3] + (below - x0) * slope,
                               rtol=1e-6, atol=1e-6)


# ---------------------------------------------------------------------------
# partial effects


def test_partial_effect_linear_truth_is_a_line():
    rng = np.random.default_rng(19)
    n = 150
    x = rng.uniform(0, 1, n)
    y = 0.5 + 2.0 * x + 0.05 * rng.standard_normal(n)
    tab = DataTable(columns={"y": y, "x": x}, n_rows=n)
    model = fit(ModelSpec(response="y",
                          smooth_terms=(SmoothTermSpec("x", "tp", k=8),)), tab)
    grid = DataTable(columns={"x": np.linspace(0.05, 0.95, 21)}, n_rows=21)
    effect, se = partial_effect(model, "s(x)", grid)
    slopes = np.diff(effect) / np.diff(np.linspace(0.05, 0.95, 21))
    np.testing.assert_allclose(slopes, 2.0, atol=0.1)
    assert np.all(np.isfinite(se))


def test_partial_effects_add_up_to_fitted_values():
    model, _ = _grouped_fit()
    train = model.table
    total = np.full(train.n_rows, model.beta[0])
    for term in ("cr(x)", "re(g)"):
        effect, _ = partial_effect(model, term, train)
        total = total + effect
    np.testing.assert_allclose(total, model.fitted_values, atol=1e-8)


def test_partial_effect_unknown_term_raises():
    model, tab = _grouped_fit()
    with pytest.raises(SchemaError):
        partial_effect(model, "s(zzz)", tab)


def test_partial_effect_se_pinches_near_crossing():
    """A near-linear centered effect has its narrowest band at the crossing.

    When slope uncertainty dominates, the fitted effect rotates about the
    covariate centroid, so the pointwise band pinches where the centered
    effect passes through zero and flares towards both range ends.
    """
    rng = np.random.default_rng(20)
    n = 150
    x = rng.uniform(0, 1, n)
    y = 2.0 * x + 0.3 * rng.standard_normal(n)
    tab = DataTable(columns={"y": y, "x": x}, n_rows=n)
    model = fit(ModelSpec(response="y",
                          smooth_terms=(SmoothTermSpec("x", "tp", k=8),)), tab)
    gx = np.linspace(0.02, 0.98, 97)
    effect, se = partial_effect(model, "s(x)", DataTable(columns={"x": gx},
                                                            n_rows=97))
    assert 0 < int(np.argmin(se)) < 96
    crossing = int(np.argmin(np.abs(effect)))
    assert se[crossing] < 0.6 * min(se[0], se[-1])
    assert int(np.argmax(se)) in (0, 96)


def _per_level_fit():
    """cond + fs(trial, subject) + cr(trial):cond + re(item) at rho 0.3 on
    8 x 60: three per-level terms, each held sparse."""
    table = _scenario(8, 60, 2)
    table = table.with_column("item", FactorColumn.from_strings(
        [f"i{int(t) % 9}" for t in table.numeric("trial")]))
    spec = ModelSpec(response="y", parametric_terms=(ParametricTerm("cond"),),
                     smooth_terms=(SmoothTermSpec(("trial",), "cr", k=5,
                                                  fs_group="subject"),
                                   SmoothTermSpec("trial", "cr", k=6,
                                                  by="cond"),
                                   SmoothTermSpec(("item",),
                                                  is_random_effect=True)),
                     rho=0.3)
    return fit(spec, table)


def _random_level_grid(model):
    """400 rows of uniform trials whose factors take their levels in random
    order."""
    table = model.table
    rng = np.random.default_rng(5)
    n = 400
    trial = table.numeric("trial")
    columns = {"trial": rng.uniform(trial.min(), trial.max(), n)}
    for name in ("subject", "cond", "item"):
        fac = table.factor(name)
        columns[name] = FactorColumn(rng.integers(0, fac.n_levels, n),
                                     fac.levels)
    return DataTable(columns=columns, n_rows=n)


def test_per_level_partial_effects_match_the_dense_quadratic_form():
    """On a grid whose rows take every factor's levels in random order, the
    fs, by and re terms' effect and SE equal x' beta and sqrt(x' V x) of
    the term's dense rows within 1e-12 relative to each value or to the
    largest (the centered by-term's SE pinches near zero, where both sums
    lose their relative digits)."""
    model = _per_level_fit()
    design = model.design_raw
    grid = _random_level_grid(model)
    X = _dense_rows(model, grid)
    for label in ("fs(trial,subject)", "cr(trial):cond", "re(item)"):
        a, b = design.col_ranges[label]
        assert np.isin(np.arange(a, b), design.sparse_cols).all(), label
        x, V = X[:, a:b], model.vb[a:b, a:b]
        effect, se = partial_effect(model, label, grid)
        want = x @ model.beta[a:b]
        np.testing.assert_allclose(effect, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())
        want = np.sqrt(np.einsum("ij,jk,ik->i", x, V, x))
        np.testing.assert_allclose(se, want, rtol=1e-12,
                                   atol=1e-12 * want.max())


def test_predict_matches_the_dense_quadratic_form_over_all_terms():
    """predict's mean and SE over every term, per-level and dense, equal
    x' beta and sqrt(x' V x) of the whole dense rows, so the covariance
    between terms is read too."""
    model = _per_level_fit()
    grid = _random_level_grid(model)
    X = _dense_rows(model, grid)
    mean, se = predict(model, grid)
    want = X @ model.beta
    np.testing.assert_allclose(mean, want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())
    want = np.sqrt(np.einsum("ij,jk,ik->i", X, model.vb, X))
    np.testing.assert_allclose(se, want, rtol=1e-12, atol=1e-12 * want.max())


def test_predict_allocates_per_stored_entry_not_per_column():
    """On the fs model at 200 subjects x 100 trials (p = 1,011, each row
    storing c = 16 entries), predict's tracemalloc peak stays under 64
    bytes per stored entry: no n x p matrix, nor its product with vb."""
    table, _ = gen_experiment(ScenarioSpec(
        n_subjects=200, n_trials=100,
        fixed_effects=(FixedEffect("cond", "factor2", 0.8),),
        trend="undulating", trend_amplitude=1.0, rho=0.3,
        subject_intercept_sd=0.5, seed=1))
    spec = ModelSpec(response="y", parametric_terms=(ParametricTerm("cond"),),
                     smooth_terms=(SmoothTermSpec("trial", "cr", k=10),
                                   SmoothTermSpec(("trial",), "cr", k=5,
                                                  fs_group="subject")),
                     rho=0.3)
    model = fit(spec, table)
    table = model.table
    cols, _ = fitting._rows(model.design_raw, table,
                            list(model.design_raw.col_ranges))
    assert cols.shape == (20_000, 16) and model.p == 1011
    tracemalloc.start()
    try:
        mean, se = predict(model, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * cols.size
    np.testing.assert_allclose(mean, model.fitted_values, atol=1e-10)


def test_predict_on_dense_terms_holds_the_rows_once():
    """A dense-only te(x, z) k=10,10 model at n = 10,000 (c = p = 100):
    predict keeps one row index for all rows and frees the rows before the
    product with vb, so its traced peak stays under 24 MB (38-40 MB with an
    n x c index, a copy of the dense columns and a weighted copy of all).
    Mean and SE equal the dense quadratic form within 1e-12 relative."""
    rng = np.random.default_rng(4)
    n = 10_000
    x, z = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
    table = DataTable(columns={
        "y": np.sin(3 * x) * z + 0.1 * rng.standard_normal(n), "x": x,
        "z": z}, n_rows=n)
    model = fit(ModelSpec(response="y", smooth_terms=(
        SmoothTermSpec(("x", "z"), "tensor", k=(10, 10)),)), table,
        lambdas=[1.0, 1.0])
    assert model.p == 100
    X = model.design_raw.X.toarray()
    want_mean = X @ model.beta
    want_se = np.sqrt(np.einsum("ij,jk,ik->i", X, model.vb, X))
    del X
    tracemalloc.start()
    try:
        mean, se = predict(model, model.table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6
    np.testing.assert_allclose(mean, want_mean, rtol=1e-12,
                               atol=1e-12 * np.abs(want_mean).max())
    np.testing.assert_allclose(se, want_se, rtol=1e-12)


def test_per_level_rows_of_unequal_width_are_a_shape_error(monkeypatch):
    """partial_effect reads each per-level row as k stored entries; a row
    storing another count is a ShapeError naming the term."""
    model = _per_level_fit()
    block = model.design_raw.terms["re(item)"]
    ragged = sparse.csr_array((np.ones(3), np.array([0, 1, 2]),
                               np.array([0, 1, 3])), shape=(2, 9))
    monkeypatch.setattr(block.evaluator, "evaluate",
                        lambda cols, extrapolate=False: ragged)
    with pytest.raises(ShapeError, match="re\\(item\\)"):
        partial_effect(model, "re(item)", model.table)


def test_partial_effect_bivariate_grid_is_finite():
    rng = np.random.default_rng(21)
    n = 250
    x = rng.uniform(0, 1, n)
    z = rng.uniform(0, 1, n)
    y = np.sin(3 * x) * np.cos(3 * z) + 0.1 * rng.standard_normal(n)
    tab = DataTable(columns={"y": y, "x": x, "z": z}, n_rows=n)
    model = fit(ModelSpec(response="y",
                          smooth_terms=(SmoothTermSpec(("x", "z"), "tensor",
                                                       k=(6, 6)),)), tab)
    gx, gz = np.meshgrid(np.linspace(0.05, 0.95, 20),
                         np.linspace(0.05, 0.95, 20))
    grid = DataTable(columns={"x": gx.ravel(), "z": gz.ravel()}, n_rows=400)
    effect, se = partial_effect(model, "te(x,z)", grid)
    assert effect.shape == (400,) and se.shape == (400,)
    assert np.all(np.isfinite(effect)) and np.all(np.isfinite(se))
