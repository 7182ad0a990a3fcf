"""The sparse per-level design: products, memory and basis failures.

Random effects, factor smooths and by-factor smooths give each factor level
its own columns; the design stores them sparse (only each row's own level)
and the columns of every other block dense.
"""

import re
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from gammkit import basis as basis_mod
from gammkit import fitting
from gammkit.basis import SmoothTermSpec
from gammkit.data import DataTable, FactorColumn
from gammkit.errors import NumericError
from gammkit.fitting import (ModelSpec, ParametricTerm, ar1_whiten, assemble,
                             fit)


def _mixed_table(n_subj=8, per=40, seed=0):
    """Subjects are AR(1) series; item crosses them, so consecutive rows of
    a series belong to different items."""
    rng = np.random.default_rng(seed)
    n = n_subj * per
    subj = np.repeat(np.arange(n_subj), per)
    trial = np.tile(np.arange(per, dtype=np.float64), n_subj)
    x = rng.uniform(0.0, 1.0, n)
    return DataTable(columns={
        "y": np.sin(2.0 * np.pi * x) + 0.1 * trial / per
        + 0.3 * rng.standard_normal(n),
        "trial": trial, "x": x, "z": rng.uniform(0.0, 1.0, n),
        "cond": FactorColumn.from_strings(
            ["a" if v else "b" for v in rng.integers(0, 2, n)]),
        "g": FactorColumn.from_strings([f"g{s % 2}" for s in subj]),
        "item": FactorColumn.from_strings([f"i{t % 7}" for t in range(n)]),
        "subject": FactorColumn.from_strings([f"s{s}" for s in subj])},
        n_rows=n, series_key="subject", order_key="trial")


# cond + cr + te + re intercept + re slope + fs + by-factor, mixed order so
# that dense and sparse columns interleave
_MIXED = ModelSpec(response="y", parametric_terms=(ParametricTerm("cond"),),
                   smooth_terms=(
                       SmoothTermSpec(("item",), is_random_effect=True),
                       SmoothTermSpec("trial", "cr", k=8),
                       SmoothTermSpec(("trial",), "cr", k=5,
                                      fs_group="subject"),
                       SmoothTermSpec(("x", "z"), "tensor", k=4),
                       SmoothTermSpec(("subject", "x"),
                                      is_random_effect=True),
                       SmoothTermSpec("z", "cr", k=6, by="g")))


def _assert_close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("rho", [0.0, 0.6])
def test_products_match_dense_products(rho):
    """The arrow's blocks, gathered from the dense and sparse parts'
    products, equal the densified design's X'X, X'y and y'y gathered by
    idx and border and rotated by T, unwhitened and whitened. At rho = 0.6
    the whitened item columns span two levels per row."""
    des = assemble(_MIXED, _mixed_table())
    if rho:
        des = ar1_whiten(des, rho)
    ar = des.arrow()
    X = des.X.toarray()
    a, b = des.col_ranges["re(item)"]
    assert np.count_nonzero(X[:, a:b], axis=1).max() == (2 if rho else 1)
    assert ar.idx.shape == (8, 5)      # the fs term's levels
    xtx, xty = X.T @ X, X.T @ des.y
    idx, border, T_t, T_b = ar.idx, ar.border, ar.T_t, ar.T_b
    T_tt = T_t.swapaxes(1, 2)
    nb = border.size
    _assert_close(ar.g_tt, T_tt @ xtx[idx[:, :, None], idx[:, None, :]] @ T_t)
    _assert_close(ar.g_tb[..., :nb],
                  T_tt @ xtx[idx[:, :, None], border] @ T_b)
    _assert_close(ar.g_tb[..., nb], (T_tt @ xty[idx][..., None])[..., 0])
    _assert_close(ar.g_bb[:nb, :nb], T_b.T @ xtx[np.ix_(border, border)] @ T_b)
    _assert_close(ar.g_bb[:nb, nb], T_b.T @ xty[border])
    np.testing.assert_array_equal(ar.g_bb[nb, :nb], ar.g_bb[:nb, nb])
    assert ar.g_bb[nb, nb] == pytest.approx(des.y @ des.y, rel=1e-12)


def test_stacked_design_equals_the_dense_prediction_matrix():
    """design.X puts every column where the prediction path's rows, each
    term evaluated anew and placed at its stored columns, put it."""
    tab = _mixed_table()
    model = fit(_MIXED, tab, lambdas=np.ones(len(assemble(_MIXED, tab)
                                                 .penalties)))
    design = model.design_raw
    cols, vals = fitting._rows(design, model.table, list(design.col_ranges))
    X = np.zeros((model.n, model.p))
    np.put_along_axis(X, cols, vals, axis=1)
    np.testing.assert_array_equal(design.X.toarray(), X)
    np.testing.assert_allclose(model.fitted_values, X @ model.beta,
                               rtol=1e-12, atol=1e-12)


def test_per_level_blocks_store_one_level_per_row():
    tab = _mixed_table()
    des = assemble(_MIXED, tab)
    levels = {"re(item)": 7, "fs(trial,subject)": 8, "re(subject,x)": 8,
              "cr(z):g": 2}
    for label, n_levels in levels.items():
        X = des.blocks[label].X
        assert sparse.issparse(X)
        assert X.nnz == tab.n_rows * X.shape[1] // n_levels
    for label in ("cr(trial)", "te(x,z)"):
        assert not sparse.issparse(des.blocks[label].X)
    assert des.X_dense.shape[1] == 1 + 1 + 7 + 15


def test_fit_memory_stays_below_half_a_dense_design():
    """A 200-level random intercept at n = 20 000 with AR(1) errors: the
    traced peak of fit is below half of one dense 8 n p array."""
    n_subj, per = 200, 100
    rng = np.random.default_rng(3)
    subj = np.repeat(np.arange(n_subj), per)
    tab = DataTable(columns={
        "y": rng.standard_normal(n_subj)[subj] + rng.standard_normal(subj.size),
        "trial": np.tile(np.arange(per, dtype=np.float64), n_subj),
        "subject": FactorColumn.from_strings([f"s{s}" for s in subj])},
        n_rows=subj.size, series_key="subject", order_key="trial")
    spec = ModelSpec(response="y", smooth_terms=(
        SmoothTermSpec(("subject",), is_random_effect=True),), rho=0.3)
    tracemalloc.start()
    try:
        model = fit(spec, tab)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.converged
    assert peak < 0.5 * 8 * model.n * model.p


def test_one_level_by_factor_fits_like_the_plain_smooth():
    """A by-factor with one level has one penalty, so it is natural-
    reparameterized: its sparse block is densified first."""
    tab = _mixed_table()
    one = tab.with_column("g", FactorColumn.from_strings(["u"] * tab.n_rows))
    by = fit(ModelSpec(response="y", smooth_terms=(
        SmoothTermSpec("x", "cr", k=8, by="g"),)), one)
    plain = fit(ModelSpec(response="y", smooth_terms=(
        SmoothTermSpec("x", "cr", k=8),)), one)
    assert not sparse.issparse(by.design.blocks["cr(x):g"].X)
    np.testing.assert_allclose(by.fitted_values, plain.fitted_values,
                               rtol=1e-8, atol=1e-10)
    assert by.reml == pytest.approx(plain.reml, rel=1e-10)


def _broken(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


@pytest.mark.parametrize("target, term, stage", [
    ("eigh", SmoothTermSpec("x", "tp", k=8), "thin plate kernel"),
    ("qr", SmoothTermSpec("x", "cr", k=8), "sum-to-zero constraint QR"),
    ("eigh", SmoothTermSpec(("trial",), "cr", k=5, fs_group="subject"),
     "factor smooth null space"),
])
def test_basis_linalg_failure_names_the_term_and_stage(monkeypatch, target,
                                                       term, stage):
    monkeypatch.setattr(basis_mod, target, _broken)
    with pytest.raises(NumericError,
                       match=rf"term {re.escape(repr(term.label))}: "
                             rf"{stage}.* failed"):
        assemble(ModelSpec(response="y", smooth_terms=(term,)),
                 _mixed_table())


def test_sparse_constructor_failure_names_the_term_and_stage(monkeypatch):
    monkeypatch.setattr(basis_mod.sparse, "csr_array", _broken)
    with pytest.raises(NumericError,
                       match=r"term 're\(item\)'.*per-level sparse design"):
        assemble(ModelSpec(response="y", smooth_terms=(
            SmoothTermSpec(("item",), is_random_effect=True),)),
            _mixed_table())


def test_other_basis_linalg_failure_names_the_term(monkeypatch):
    """A LinAlgError from an unguarded call still surfaces as a
    NumericError naming the term."""
    monkeypatch.setattr(basis_mod, "solve", _broken)
    with pytest.raises(NumericError,
                       match=r"term 'cr\(x\)': basis construction failed"):
        assemble(ModelSpec(response="y", smooth_terms=(
            SmoothTermSpec("x", "cr", k=8),)), _mixed_table())
