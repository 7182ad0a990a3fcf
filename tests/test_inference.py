"""AIC, nested F tests, REML score comparisons, and Wald term tests."""

import ast
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import chi2, f as f_dist, t as t_dist

from gammkit import inference
from gammkit.basis import SmoothTermSpec
from gammkit.data import DataTable, FactorColumn
from gammkit.diagnostics import pilot_spec
from gammkit.errors import GammkitError, NestingError, SchemaError
from gammkit.fitting import FittedModel, ModelSpec, ParametricTerm, fit
from gammkit.inference import (ModelScore, aic, compare_reml, nested_f_test,
                               summarize_terms, wald_columns, wald_term_test)
from gammkit.simulate import ScenarioSpec, gen_experiment
from test_fitting import _relabel_and_shuffle, _scenario


def _wiggly_table(n=400, seed=0, noise=0.1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n)
    y = np.sin(6.0 * np.pi * x) + noise * rng.standard_normal(n)
    return DataTable(columns={"y": y, "x": x}, n_rows=n)


# ---------------------------------------------------------------------------
# AIC


def test_aic_intercept_only_hand_formula():
    rng = np.random.default_rng(1)
    y = 2.0 + rng.standard_normal(50)
    model = fit(ModelSpec(response="y"),
                DataTable(columns={"y": y}, n_rows=50))
    n, rss = model.n, model.rss_whitened
    assert aic(model) == pytest.approx(n * math.log(2 * math.pi * rss / n)
                                       + n + 4.0, rel=1e-12)


def test_aic_invariant_to_response_shift():
    """Adding a constant to y moves the intercept, not the AIC."""
    tab = _wiggly_table(120, seed=2)
    shifted = DataTable(columns={"y": tab.numeric("y") + 100.0,
                                 "x": tab.numeric("x")}, n_rows=120)
    spec = ModelSpec(response="y",
                     smooth_terms=(SmoothTermSpec("x", "cr", k=10),))
    m0 = fit(spec, tab, lambdas=[3.0])
    m1 = fit(spec, shifted, lambdas=[3.0])
    assert aic(m1) == pytest.approx(aic(m0), abs=1e-7)
    assert m1.beta[0] == pytest.approx(m0.beta[0] + 100.0, abs=1e-8)


def test_aic_prefers_penalized_over_stiff_polynomial():
    """On a wiggly signal, generous penalized bases beat a degree-9 poly."""
    tab = _wiggly_table(400, seed=3)

    def one(kind, k):
        return aic(fit(ModelSpec(response="y",
                                 smooth_terms=(SmoothTermSpec("x", kind, k=k),)),
                       tab))

    a_poly9 = one("poly", 10)
    a_tp20, a_cr20 = one("tp", 20), one("cr", 20)
    a_tp10, a_cr10 = one("tp", 10), one("cr", 10)
    assert a_tp20 < a_poly9 and a_cr20 < a_poly9
    assert max(a_tp20, a_cr20) < min(a_tp10, a_cr10)


# ---------------------------------------------------------------------------
# nested F test


def _stub(n=500, edf=10.0, rss=20.0, sigma2=0.04):
    return SimpleNamespace(n=n, total_edf=edf, rss_whitened=rss,
                           sigma2=sigma2)


def test_nested_f_worked_example():
    """Deviance drop 1.1664 over 5.78 edf at scale 0.03357 gives F near 6."""
    small = _stub(edf=10.0, rss=21.1664)
    big = _stub(edf=15.78, rss=20.0, sigma2=0.03357)
    fstat, df1, df2, p = nested_f_test(small, big)
    assert fstat == pytest.approx(6.01, abs=0.01)
    assert df1 == pytest.approx(5.78)
    assert df2 == pytest.approx(500 - 15.78)
    assert p < 1e-4


def test_nested_f_identical_models():
    m = _stub()
    fstat, df1, df2, p = nested_f_test(m, m)
    assert (fstat, df1, p) == (0.0, 0.0, 1.0)
    assert df2 == pytest.approx(490.0)


def test_nested_f_swapped_arguments_raise():
    small = _stub(edf=10.0, rss=21.0)
    big = _stub(edf=16.0, rss=20.0)
    with pytest.raises(NestingError):
        nested_f_test(big, small)


def test_nested_f_mismatched_rows_raise():
    with pytest.raises(SchemaError):
        nested_f_test(_stub(n=100), _stub(n=101))


def test_nested_f_detects_a_real_second_smooth():
    rng = np.random.default_rng(4)
    n = 300
    x, z = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
    y = np.sin(2 * np.pi * x) + 0.8 * np.cos(2 * np.pi * z) \
        + 0.2 * rng.standard_normal(n)
    tab = DataTable(columns={"y": y, "x": x, "z": z}, n_rows=n)
    small = fit(ModelSpec(response="y",
                          smooth_terms=(SmoothTermSpec("x", "cr", k=10),)), tab)
    big = fit(ModelSpec(response="y",
                        smooth_terms=(SmoothTermSpec("x", "cr", k=10),
                                      SmoothTermSpec("z", "cr", k=10),)), tab)
    fstat, df1, df2, p = nested_f_test(small, big)
    assert fstat > 10.0 and p < 1e-6
    assert 0 < df1 < 10 and df2 > 200


# ---------------------------------------------------------------------------
# REML score comparison


def test_compare_reml_score_difference_example():
    """Scores -12495.77 vs -13422.25 with 7 extra parameters: clear win."""
    base = ModelScore(reml=-12495.77, param_count=5, label="base")
    rich = ModelScore(reml=-13422.25, param_count=12, label="rich")
    res = compare_reml(base, rich)
    assert res.verdict == "test"
    assert res.stat == pytest.approx(926.48, abs=0.01)
    assert res.df == 7
    assert res.p < 1e-100


def test_compare_reml_chi2_tail_matches_scipy():
    res = compare_reml(ModelScore(reml=0.0, param_count=3),
                       ModelScore(reml=-25.0, param_count=7))
    assert res.p == pytest.approx(float(chi2.sf(25.0, 4)), rel=1e-12)


def test_compare_reml_is_order_invariant():
    a = ModelScore(reml=-100.0, param_count=4)
    b = ModelScore(reml=-130.0, param_count=9)
    r0, r1 = compare_reml(a, b), compare_reml(b, a)
    assert (r0.stat, r0.df, r0.p, r0.verdict) == (r1.stat, r1.df, r1.p,
                                                  r1.verdict)


def test_compare_reml_simpler_and_better_short_circuits():
    simple = ModelScore(reml=-200.0, param_count=3)
    complex_ = ModelScore(reml=-150.0, param_count=9)
    res = compare_reml(simple, complex_)
    assert res.verdict == "simpler_and_better"
    assert res.p is None
    assert res.stat == pytest.approx(50.0)


def test_compare_reml_rejects_degenerate_inputs():
    s = ModelScore(reml=-10.0, param_count=4)
    with pytest.raises(GammkitError):
        compare_reml(s, ModelScore(reml=-10.0, param_count=4))
    with pytest.raises(GammkitError):
        compare_reml(s, ModelScore(reml=-40.0, param_count=4))
    with pytest.raises(GammkitError):
        compare_reml(s, ModelScore(reml=math.nan, param_count=6))


def test_compare_reml_identical_fits_raise():
    tab = _wiggly_table(80, seed=5)
    spec = ModelSpec(response="y",
                     smooth_terms=(SmoothTermSpec("x", "cr", k=8),))
    with pytest.raises(GammkitError):
        compare_reml(fit(spec, tab), fit(spec, tab))


def test_compare_reml_refuses_fits_with_different_rho():
    """The REML score leaves out the AR(1) Jacobian, so scores at two rho
    are on different scales: the comparison raises, naming both."""
    tab = _scenario(6, 60, 2)
    fits = [fit(ModelSpec(response="y",
                          parametric_terms=(ParametricTerm("cond"),),
                          smooth_terms=(SmoothTermSpec("trial", "cr", k=6),),
                          rho=rho), tab) for rho in (0.0, 0.4)]
    with pytest.raises(GammkitError, match=r"different AR\(1\) rho "
                                           r"\(0\.0 and 0\.4\)"):
        compare_reml(*fits)


def test_compare_reml_on_real_nested_fits():
    rng = np.random.default_rng(6)
    n = 250
    x, z = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
    y = np.sin(2 * np.pi * x) + 0.15 * rng.standard_normal(n)
    tab = DataTable(columns={"y": y, "x": x, "z": z}, n_rows=n)
    small = fit(ModelSpec(response="y",
                          smooth_terms=(SmoothTermSpec("x", "cr", k=10),)), tab)
    big = fit(ModelSpec(response="y",
                        smooth_terms=(SmoothTermSpec("x", "cr", k=10),
                                      SmoothTermSpec("z", "cr", k=6),)), tab)
    assert big.param_count - small.param_count == 1
    res = compare_reml(small, big)
    if res.verdict == "test":
        assert res.df == 1 and 0.0 <= res.p <= 1.0
    else:
        assert res.p is None


# ---------------------------------------------------------------------------
# Wald term tests


def _factor_fit(effect=1.0, seed=7):
    rng = np.random.default_rng(seed)
    n = 160
    x = rng.uniform(0, 1, n)
    cond = rng.integers(0, 2, n)
    y = np.sin(2 * np.pi * x) + effect * (cond - 0.5) \
        + 0.2 * rng.standard_normal(n)
    tab = DataTable(columns={"y": y, "x": x,
                             "cond": FactorColumn.from_strings(
                                 ["a" if c else "b" for c in cond])},
                    n_rows=n)
    spec = ModelSpec(response="y",
                     parametric_terms=(ParametricTerm("cond"),),
                     smooth_terms=(SmoothTermSpec("x", "cr", k=10),))
    return fit(spec, tab)


def test_wald_one_column_term_is_squared_t():
    model = _factor_fit()
    row = wald_term_test(model, "cond")
    a, _ = model.column_range("cond")
    t2 = model.beta[a] ** 2 / model.vb[a, a]
    assert row.statistic == pytest.approx(float(t2), rel=1e-10)
    assert row.ref_df == 1.0
    assert row.p == pytest.approx(
        float(f_dist.sf(t2, 1.0, model.n - model.total_edf)), rel=1e-9)


def test_wald_strong_smooth_is_significant():
    model = _factor_fit()
    row = wald_term_test(model, "cr(x)")
    assert row.ref_df == 9.0
    assert row.statistic > 20.0 and row.p < 1e-6
    assert 1.0 < row.edf < 9.0


def test_wald_fully_shrunk_term_scores_zero():
    rng = np.random.default_rng(8)
    n = 90
    g = FactorColumn.from_strings([f"g{i % 6}" for i in range(n)])
    y = rng.standard_normal(n)
    tab = DataTable(columns={"y": y, "g": g}, n_rows=n)
    model = fit(ModelSpec(response="y",
                          smooth_terms=(SmoothTermSpec("g", is_random_effect=True),)),
                tab, lambdas=[1e12])
    row = wald_term_test(model, "re(g)")
    assert row.statistic == 0.0 and row.p == 1.0
    assert row.edf < 1e-6


def test_summarize_terms_covers_every_label():
    """A t-test row per parametric column, then a Wald row per smooth."""
    model = _factor_fit()
    coefs, smooths = summarize_terms(model)
    assert coefs == inference.coef_t_tests(model)
    assert [r[0] for r in coefs] == model.coef_names[:2]
    assert [r.term for r in smooths] == ["cr(x)"]
    assert smooths == [wald_term_test(model, "cr(x)")]
    assert all(0.0 <= p <= 1.0 for p in [r[4] for r in coefs]
               + [r.p for r in smooths])


def test_summarize_terms_gives_a_by_smooth_one_row_per_level():
    """cr(x) by=cond: one row per level over that level's k - 1 columns,
    labelled base:level; the joint test stays wald_term_test's."""
    base = _factor_fit()
    spec = ModelSpec(response="y", parametric_terms=(ParametricTerm("cond"),),
                     smooth_terms=(SmoothTermSpec("x", "cr", k=10,
                                                  by="cond"),))
    model = fit(spec, base.table)
    _, smooths = summarize_terms(model)
    a, b = model.column_range("cr(x):cond")
    assert [r.term for r in smooths] == ["cr(x):a", "cr(x):b"]
    assert smooths == [wald_columns(model, a, a + 9, "cr(x):a"),
                       wald_columns(model, a + 9, b, "cr(x):b")]
    assert b - a == 18
    assert sum(r.edf for r in smooths) == pytest.approx(
        wald_term_test(model, "cr(x):cond").edf, rel=1e-12)


def test_term_edf_partitions_total():
    model = _factor_fit()
    parts = [wald_term_test(model, label).edf
             for label in model.term_labels()]
    assert sum(parts) == pytest.approx(model.total_edf, abs=1e-10)
    assert wald_term_test(model, "(Intercept)").edf == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Wald p-values do not depend on the basis eigh picks in a tied cluster


def test_wald_tied_cluster_enters_whole_with_fractional_weight():
    """V = diag(4, 1, 1, 1) in a rotated basis with edf 2.4: the cut at
    round(edf) = 2 splits the cluster at 1, which enters whole with weight
    1/3, whatever rotation inside the cluster eigh returns."""
    rng = np.random.default_rng(3)
    U, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    beta = rng.standard_normal(4)
    z = U.T @ beta
    want = (z[0] ** 2 / 4.0 + (z[1:] ** 2).sum() / 3.0) / 2.4
    for turn in (np.eye(3), np.linalg.qr(rng.standard_normal((3, 3)))[0]):
        R = U.copy()
        R[:, 1:] = U[:, 1:] @ turn
        model = SimpleNamespace(
            beta=beta, vb=R @ np.diag([4.0, 1.0, 1.0, 1.0]) @ R.T, n=100,
            edf_per_coef=np.full(4, 0.6), total_edf=2.4, sigma2=1.0)
        row = wald_columns(model, 0, 4, "t")
        assert row.statistic == pytest.approx(want, rel=1e-12)
        assert row.p == pytest.approx(
            float(f_dist.sf(want, 2.4, 100 - 2.4)), rel=1e-10)


def _pilot_p_values(seed):
    """The pilot fs(trial, subject) k=5 on 4 x 150 flat data with the trial
    order shuffled within subject: its p-value, then that of the same rows
    with the subjects relabelled in reverse."""
    table = gen_experiment(ScenarioSpec(n_subjects=4, n_trials=150,
                                        seed=seed))[0]
    codes = table.factor("subject").codes
    order = np.asarray(table.numeric("trial"))
    rng = np.random.default_rng(seed)
    shuffled = order.copy()
    for j in range(4):
        rows = np.flatnonzero(codes == j)
        shuffled[rows] = order[rows][rng.permutation(rows.size)]
    table = table.with_column("trial", shuffled)
    spec = pilot_spec(table, "y")
    label = spec.smooth_terms[0].label
    relabelled = table.with_column("subject", FactorColumn.from_strings(
        [f"r{3 - c:03d}" for c in codes]))
    return [wald_term_test(fit(spec, t), label).p
            for t in (table, relabelled)]


@pytest.mark.parametrize("seed", [0, 1, 4, 11])
def test_pilot_wald_p_does_not_depend_on_level_labels(seed):
    """Truncating inside a tied cluster moved p by 0.015, 0.156, 0.060 and
    0.071 at these seeds (e.g. seed 1: 0.308 -> 0.465)."""
    p, p_relabelled = _pilot_p_values(seed)
    assert abs(p - p_relabelled) <= 1e-6


@pytest.mark.parametrize("model", ["fs", "re", "by"])
def test_wald_p_does_not_depend_on_level_labels_or_row_order(model):
    table = _scenario(6, 80, 6)
    smooth = {"fs": SmoothTermSpec(("trial",), "cr", k=5, fs_group="subject"),
              "re": SmoothTermSpec(("subject",), is_random_effect=True),
              "by": SmoothTermSpec("trial", "cr", k=5, by="subject")}[model]
    # a by-factor smooth of trial spans the main effect cr(trial)
    main = () if model == "by" else (SmoothTermSpec("trial", "cr", k=10),)
    spec = ModelSpec(response="y", parametric_terms=(ParametricTerm("cond"),),
                     smooth_terms=main + (smooth,), rho=0.3)
    label = smooth.label
    p = wald_term_test(fit(spec, table), label).p
    other = wald_term_test(fit(spec, _relabel_and_shuffle(table)), label).p
    assert abs(p - other) <= 1e-6


@pytest.mark.parametrize("model", ["fs", "re", "by"])
def test_wald_matches_numpy_eigh(model, monkeypatch):
    """F and p from scipy's in-place evr agree with numpy's eigh."""
    smooth = {"fs": SmoothTermSpec(("trial",), "cr", k=5, fs_group="subject"),
              "re": SmoothTermSpec(("subject",), is_random_effect=True),
              "by": SmoothTermSpec("trial", "cr", k=5, by="subject")}[model]
    fitted = fit(ModelSpec(response="y", parametric_terms=(
        ParametricTerm("cond"),), smooth_terms=(smooth,), rho=0.3),
        _scenario(6, 80, 6))
    row = wald_term_test(fitted, smooth.label)
    monkeypatch.setattr(inference, "eigh",
                        lambda a, **_: np.linalg.eigh(a))
    want = wald_term_test(fitted, smooth.label)
    assert row.statistic > 0.0
    assert row.statistic == pytest.approx(want.statistic, rel=1e-10)
    assert row.p == pytest.approx(want.p, rel=1e-10)


def test_te_wald_p_does_not_depend_on_row_order():
    rng = np.random.default_rng(5)
    n = 300
    x, z = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
    y = np.sin(3.0 * x) * np.cos(2.0 * z) + 0.5 * rng.standard_normal(n)
    table = DataTable(columns={"y": y, "x": x, "z": z}, n_rows=n)
    spec = ModelSpec(response="y", smooth_terms=(
        SmoothTermSpec(("x", "z"), "tensor", k=5),))
    label = spec.smooth_terms[0].label
    p = wald_term_test(fit(spec, table), label).p
    shuffled = table.take(rng.permutation(n))
    assert abs(wald_term_test(fit(spec, shuffled), label).p - p) <= 1e-6


def test_tails_equal_scipy_stats_sf_bit_for_bit():
    """The three scipy.special tails inference calls return scipy.stats'
    sf values exactly, at 0, inf, NaN, a near-zero edf and large df."""
    x = np.concatenate([[0.0, 1e-300, 1e-12, 0.5, 1.0, 3.7, 40.0, 1e6,
                         np.inf, np.nan],
                        np.random.default_rng(0).gamma(1.5, 2.0, 200)])
    df = np.array([1e-8, 0.3, 1.0, 2.4, 7.0, 58.6, 1e4, 1e9])
    d1, d2, xx = df[:, None, None], df[None, :, None], x[None, None, :]
    np.testing.assert_array_equal(inference.fdtrc(d1, d2, xx),
                                  f_dist.sf(xx, d1, d2), strict=True)
    k, xk = df[:, None], x[None, :]
    np.testing.assert_array_equal(inference.chdtrc(k, xk),
                                  chi2.sf(xk, k), strict=True)
    np.testing.assert_array_equal(inference.stdtr(k, -xk),
                                  t_dist.sf(xk, k), strict=True)


def test_coef_t_tests_match_scipy_stats_t():
    model = fit(ModelSpec(response="y", parametric_terms=(
        ParametricTerm("cond"),), smooth_terms=(
        SmoothTermSpec(("trial",), "cr", k=6),)), _scenario(4, 50, 2))
    rows = inference.coef_t_tests(model)
    assert [r[0] for r in rows] == model.coef_names[:2]
    for j, (_, est, se, tval, p) in enumerate(rows):
        assert (est, se) == (model.beta[j], math.sqrt(model.vb[j, j]))
        assert se == model.se[j]
        assert tval == est / se
        assert p == 2.0 * t_dist.sf(abs(tval), model.n - model.total_edf)


def test_standard_errors_clip_like_pythons_max():
    """se = sqrt(max(v, 0)) bit for bit: a negative variance gives 0, NaN
    stays NaN and -0.0 stays -0.0."""
    diag = [4.0, -0.0, math.nan, -1e-18, 2.0]
    got = FittedModel.se.func(SimpleNamespace(vb=np.diag(diag)))
    want = [math.sqrt(max(v, 0.0)) for v in diag]
    assert np.asarray(want).tobytes() == got.tobytes()


def test_program_imports_only_scipy_linalg_sparse_and_special():
    """No module imports scipy.stats or scipy.spatial, and inference alone
    imports scipy.special, so it alone computes p-values."""
    found = {}
    for path in sorted(Path(inference.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [])
            for name in names:
                if name.startswith("scipy"):
                    found.setdefault(name, set()).add(path.stem)
    assert set(found) <= {"scipy", "scipy.linalg", "scipy.sparse",
                          "scipy.special"}
    assert found["scipy.special"] == {"inference"}
