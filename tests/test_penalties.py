"""Penalty spectra: ranks, square roots and the closed-form log|S_lambda|_+."""

import itertools
import math

import numpy as np
import pytest

from gammkit import basis
from gammkit.basis import (SmoothTermSpec, absorb_constraints, cr_basis,
                           knots_quantile, tp_basis)
from gammkit.data import DataTable, FactorColumn
from gammkit.errors import NumericError
from gammkit.fitting import (LOG_LAMBDA_MAX, LOG_LAMBDA_MIN, ModelSpec,
                             ParametricTerm, _log_pdet_slambda,
                             _term_penalties, assemble, fit)
from gammkit.simulate import ScenarioSpec, gen_experiment


def _table(n=240, seed=3, span=1.0):
    rng = np.random.default_rng(seed)
    return DataTable(columns={
        "y": rng.standard_normal(n),
        "x": rng.uniform(0.0, span, n),
        "z": rng.uniform(0.0, span, n),
        "g": FactorColumn.from_strings([f"g{i % 4}" for i in range(n)]),
        "c": FactorColumn.from_strings([f"c{i % 3}" for i in range(n)])},
        n_rows=n)


S = SmoothTermSpec
TERMS = {
    "fs-cr": (S("x", "cr", k=6, fs_group="g"),),
    "fs-tp": (S("x", "tp", k=6, fs_group="g"),),
    "ti": (S(("x", "z"), "ti", k=5),),
    "te": (S(("x", "z"), "tensor", k=5),),
    "by": (S("x", "cr", k=6, by="c"),),
    "te-by": (S(("x", "z"), "tensor", k=4, by="c"),),
    "re+cr+te": (S(("g",), is_random_effect=True), S("x", "cr", k=6),
                 S(("x", "z"), "tensor", k=4)),
}


def _embedded(des):
    out = []
    for e in des.penalties:
        M = np.zeros((des.p, des.p))
        sl = slice(e.offset, e.offset + e.p_block)
        M[sl, sl] = e.S
        out.append(M)
    return out


def _corners(m):
    """Every pair (log lambda_1, log lambda_2) at the search bounds."""
    return list(itertools.product((LOG_LAMBDA_MIN, 0.0, LOG_LAMBDA_MAX),
                                  repeat=m))


@pytest.mark.parametrize("name", sorted(TERMS))
def test_log_pdet_matches_dense_eigvalsh_oracle(name):
    """Closed form against eigvalsh of the dense weighted sum.

    log lambda runs over [-9, 9] per penalty. A dense eigensolver resolves
    the small-lambda eigenvalues only to about eps * lambda_max/lambda_min
    * |S|, so grid points are held to log-ratios <= 6 here; larger ratios,
    up to the search bounds, are checked against the exact fs and ti forms
    below.
    """
    des = assemble(ModelSpec(response="y", smooth_terms=TERMS[name]), _table())
    emb = _embedded(des)
    rank = int(np.linalg.matrix_rank(sum(emb), hermitian=True))
    assert des.logpdet_weights.shape == (rank, len(emb))
    assert des.m_null_total == des.p - rank
    for e in des.penalties:
        assert e.sqrt.shape == (e.rank, e.p_block)
        np.testing.assert_allclose(e.sqrt.T @ e.sqrt, e.S,
                                   atol=1e-10 * np.abs(e.S).max())
    checked = 0
    for logs in itertools.product(np.linspace(-9.0, 9.0, 7), repeat=len(emb)):
        if max(logs) - min(logs) > 6.0:
            continue
        lams = np.exp(np.array(logs))
        w = np.linalg.eigvalsh(sum(lam * M for lam, M in zip(lams, emb)))
        want = float(np.sum(np.log(np.sort(w)[::-1][:rank])))
        got = _log_pdet_slambda(des, lams)
        assert abs(got - want) <= 1e-10 * abs(want), (logs, got, want)
        checked += 1
    assert checked >= 7


@pytest.mark.parametrize("kind", ["cr", "tp"])
def test_log_pdet_fs_matches_analytic_form_at_search_bounds(kind):
    """fs: L * (rank S log lam_1 + dim null S log lam_2 + log|S|_+)."""
    tab = _table()
    des = assemble(ModelSpec(response="y", smooth_terms=(
        S("x", kind, k=6, fs_group="g"),)), tab)
    x = tab.numeric("x")
    base = cr_basis(x, knots_quantile(x, 6)) if kind == "cr" else tp_basis(x, 6)
    w = np.linalg.eigvalsh(base.penalties[0][0])
    keep = w > 1e-9 * w[-1]
    rank, log_pdet = int(keep.sum()), float(np.sum(np.log(w[keep])))
    assert [e.rank for e in des.penalties] == [4 * rank, 4 * (6 - rank)]
    for l1, l2 in _corners(2):
        want = 4 * (rank * l1 + (6 - rank) * l2 + log_pdet)
        got = _log_pdet_slambda(des, np.exp([l1, l2]))
        assert abs(got - want) <= 1e-12 * abs(want), (l1, l2, got, want)


def test_log_pdet_ti_matches_kronecker_eigenvalues_at_search_bounds():
    """ti: the eigenvalues of lam_1 S_a (x) I + lam_2 I (x) S_b are
    lam_1 a_i + lam_2 b_j over the constrained margins' spectra."""
    tab = _table()
    des = assemble(ModelSpec(response="y", smooth_terms=(
        S(("x", "z"), "ti", k=5),)), tab)
    spectra = []
    for cov in ("x", "z"):
        v = tab.numeric(cov)
        margin = absorb_constraints(cr_basis(v, knots_quantile(v, 5)))
        w = np.linalg.eigvalsh(margin.penalties[0][0])
        spectra.append(np.where(w > 1e-9 * w[-1], w, 0.0))
    a, b = np.meshgrid(*spectra, indexing="ij")
    pos = (a + b) > 0
    for l1, l2 in _corners(2):
        lam1, lam2 = math.exp(l1), math.exp(l2)
        want = float(np.sum(np.log(lam1 * a[pos] + lam2 * b[pos])))
        got = _log_pdet_slambda(des, np.array([lam1, lam2]))
        assert abs(got - want) <= 1e-12 * abs(want), (l1, l2, got, want)


def test_spectrum_failure_names_the_term(monkeypatch):
    def broken(_):
        raise np.linalg.LinAlgError("eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigh", broken)
    D = np.diff(np.eye(5), n=2, axis=0)
    with pytest.raises(NumericError, match=r"cr\(x\)"):
        _term_penalties("cr(x)", 1, [basis.Penalty(D.T @ D, "cr")])


def test_check_psd_rejects_a_diagonal_penalty_with_a_negative_entry():
    with pytest.raises(NumericError, match="not positive semidefinite"):
        basis._check_psd(np.diag([2.0, -0.5, 1.0]), "neg")
    basis._check_psd(np.diag([2.0, 0.0, 1.0]), "ok")


# ---------------------------------------------------------------------------
# unit invariance: rank, root and log pseudo-determinant share one threshold


def test_fit_cr_on_a_wide_covariate_span_at_large_n():
    """x ~ U(0, 400), n = 20 000: every penalty eigenvalue is below 1, where
    rank and root once took different thresholds and the solve crashed."""
    rng = np.random.default_rng(0)
    n = 20_000
    x = rng.uniform(0.0, 400.0, n)
    tab = DataTable(columns={"y": np.sin(x / 60.0) + rng.standard_normal(n),
                             "x": x}, n_rows=n)
    model = fit(ModelSpec(response="y",
                          smooth_terms=(S("x", "cr", k=10),)), tab)
    (entry,) = model.design.penalties
    assert entry.rank == entry.sqrt.shape[0] == 8
    assert model.converged and math.isfinite(model.reml)
    assert 2.0 < model.total_edf < 10.0


def test_fit_cr_trial_on_the_simulated_50_by_400_scenario():
    table, _ = gen_experiment(ScenarioSpec(
        n_subjects=50, n_trials=400, rho=0.3, sigma=1.0,
        subject_intercept_sd=0.5, trend="undulating", trend_amplitude=1.0,
        seed=3))
    model = fit(ModelSpec(response="y", smooth_terms=(S("trial", "cr", k=10),),
                          rho=0.3), table)
    (entry,) = model.design.penalties
    assert entry.rank == entry.sqrt.shape[0] == 8
    assert model.converged and math.isfinite(model.reml)


@pytest.mark.parametrize("scale", [1e-3, 1e3])
def test_penalty_structure_does_not_depend_on_covariate_units(scale):
    spec = ModelSpec(response="y", smooth_terms=(
        S("x", "cr", k=10), S("x", "cr", k=5, fs_group="g"),
        S(("x", "z"), "ti", k=4), S(("x", "z"), "tensor", k=4)))
    ref = assemble(spec, _table(300, seed=12, span=20.0))
    des = assemble(spec, _table(300, seed=12, span=20.0 * scale))
    assert [e.rank for e in des.penalties] == [e.rank for e in ref.penalties]
    assert [e.sqrt.shape for e in des.penalties] == \
        [e.sqrt.shape for e in ref.penalties]
    assert des.m_null_total == ref.m_null_total


@pytest.mark.parametrize("scale", [1e-3, 1e-1, 1e1, 1e3])
def test_fit_does_not_depend_on_covariate_units(scale):
    """Rescaling x moves the optimal lambda by scale^3 (inside the search
    bounds for this signal) and leaves fitted values, edf and REML
    differences between models unchanged."""
    rng = np.random.default_rng(12)
    n = 300
    x = rng.uniform(0.0, 20.0, n)
    g = FactorColumn.from_strings([f"g{i % 3}" for i in range(n)])
    y = np.sin(2.0 * np.pi * x / 20.0) + 0.3 * rng.standard_normal(n)
    smooth = (S("x", "cr", k=10),)
    specs = (ModelSpec(response="y", smooth_terms=smooth),
             ModelSpec(response="y", parametric_terms=(ParametricTerm("g"),),
                       smooth_terms=smooth))

    def fits(s):
        tab = DataTable(columns={"y": y, "x": x * s, "g": g}, n_rows=n)
        return [fit(spec, tab) for spec in specs]

    ref, got = fits(1.0), fits(scale)
    for r, m in zip(ref, got):
        assert m.converged
        assert LOG_LAMBDA_MIN + 1.0 < math.log(m.lambdas[0]) < LOG_LAMBDA_MAX - 1.0
        np.testing.assert_allclose(m.fitted_values, r.fitted_values, atol=1e-6)
        assert m.total_edf == pytest.approx(r.total_edf, abs=1e-5)
    assert got[1].reml - got[0].reml == pytest.approx(
        ref[1].reml - ref[0].reml, abs=1e-6)
