"""Autocorrelation, rho suggestion, permutation checks, CV, residual plots."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from gammkit.basis import SmoothTermSpec
from gammkit.data import DataTable, FactorColumn
from gammkit.diagnostics import (acf, cv_by_group, permutation_fs_test,
                                 pilot_spec, residual_acf_by_group,
                                 residual_report, suggest_rho)
from gammkit.errors import (DomainError, GammkitError, NumericError,
                            SchemaError)
from gammkit.fitting import ModelSpec, fit
from gammkit.inference import wald_term_test


def _ar1(rng, n, rho, sigma=1.0):
    e = rng.standard_normal(n) * sigma
    x = np.empty(n)
    x[0] = e[0] / math.sqrt(1.0 - rho * rho)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + e[t]
    return x


def _series_table(n_series=6, per=80, rho=0.5, seed=0, shifts=True):
    rng = np.random.default_rng(seed)
    ys, gs, ts = [], [], []
    for g in range(n_series):
        base = rng.normal(0, 1.0) if shifts else 0.0
        ys.append(base + _ar1(rng, per, rho, sigma=0.5))
        gs.extend([f"s{g:02d}"] * per)
        ts.append(np.arange(per, dtype=np.float64))
    return DataTable(columns={"y": np.concatenate(ys),
                              "subj": FactorColumn.from_strings(gs),
                              "trial": np.concatenate(ts)},
                     n_rows=n_series * per,
                     series_key="subj", order_key="trial")


# ---------------------------------------------------------------------------
# acf


def test_acf_lag_zero_is_one():
    rng = np.random.default_rng(1)
    r = acf(rng.standard_normal(100), max_lag=5)
    assert r.acf[0] == 1.0
    assert r.lags.tolist() == [0, 1, 2, 3, 4, 5]
    assert r.n == 100 and r.band == pytest.approx(1.96 / 10.0)


def test_acf_alternating_series_is_exact():
    """x = +1,-1,+1,... has r_k = (-1)^k (n-k)/n exactly."""
    n = 50
    x = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    r = acf(x, max_lag=4)
    want = [(-1.0) ** k * (n - k) / n for k in range(5)]
    np.testing.assert_allclose(r.acf, want, atol=1e-12)


def test_acf_recovers_ar1_decay():
    x = _ar1(np.random.default_rng(2), 100_000, rho=0.5)
    r = acf(x, max_lag=2)
    assert 0.49 < r.acf[1] < 0.51
    assert 0.24 < r.acf[2] < 0.26


def test_acf_invariances():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(200)
    base = acf(x, max_lag=6).acf
    np.testing.assert_allclose(acf(x[::-1], max_lag=6).acf, base, atol=1e-12)
    np.testing.assert_allclose(acf(3.0 * x - 7.0, max_lag=6).acf, base,
                               atol=1e-12)


def test_acf_input_validation():
    with pytest.raises(DomainError):
        acf(np.zeros((4, 4)), max_lag=1)
    with pytest.raises(DomainError):
        acf(np.arange(5.0), max_lag=-1)
    with pytest.raises(DomainError):
        acf(np.arange(5.0), max_lag=4)
    with pytest.raises(NumericError):
        acf(np.ones(50), max_lag=2)


# ---------------------------------------------------------------------------
# per-group residual ACF


def test_residual_acf_returns_groups_plus_pooled():
    tab = _series_table(n_series=5, per=60, rho=0.0, seed=4)
    model = fit(pilot_spec(tab, "y"), tab)
    out = residual_acf_by_group(model, "raw", max_lag=10)
    assert len(out) == 6
    assert [r.group for r in out[:-1]] == [f"s{i:02d}" for i in range(5)]
    pooled = out[-1]
    assert pooled.group == "pooled"
    assert pooled.n == 300
    assert pooled.band == pytest.approx(1.96 / math.sqrt(300))
    np.testing.assert_allclose(pooled.acf,
                               np.mean([r.acf for r in out[:-1]], axis=0))


def test_residual_acf_raw_sees_ar1_and_whitened_does_not():
    tab = _series_table(n_series=8, per=100, rho=0.5, seed=5)
    raw_model = fit(pilot_spec(tab, "y"), tab)
    raw = residual_acf_by_group(raw_model, "raw", max_lag=3)[-1]
    assert raw.acf[1] > 0.3

    rho_hat = suggest_rho(tab, pilot_spec(tab, "y")).rho_hat
    spec = pilot_spec(tab, "y")
    white_model = fit(ModelSpec(response="y", smooth_terms=spec.smooth_terms,
                                rho=rho_hat), tab)
    white = residual_acf_by_group(white_model, "whitened", max_lag=3)[-1]
    assert abs(white.acf[1]) < abs(raw.acf[1])
    assert abs(white.acf[1]) < 2.0 * white.band


def test_residual_acf_skips_short_series_with_warning():
    rng = np.random.default_rng(6)
    g = ["a"] * 40 + ["b"] * 5
    t = np.concatenate([np.arange(40.0), np.arange(5.0)])
    tab = DataTable(columns={"y": rng.standard_normal(45),
                             "subj": FactorColumn.from_strings(g),
                             "trial": t},
                    n_rows=45, series_key="subj", order_key="trial")
    model = fit(ModelSpec(response="y"), tab)
    with pytest.warns(UserWarning, match="skipped"):
        out = residual_acf_by_group(model, "raw", max_lag=10)
    assert [r.group for r in out] == ["a", "pooled"]


def test_residual_acf_validates_inputs():
    tab = _series_table(n_series=3, per=30, rho=0.0, seed=7)
    model = fit(ModelSpec(response="y"), tab)
    with pytest.raises(DomainError):
        residual_acf_by_group(model, "detrended", max_lag=3)
    plain = fit(ModelSpec(response="y"),
                DataTable(columns={"y": np.arange(10.0) % 3}, n_rows=10))
    with pytest.raises(SchemaError):
        residual_acf_by_group(plain, "raw", max_lag=2)


# ---------------------------------------------------------------------------
# rho suggestion


def test_suggest_rho_recovers_moderate_autocorrelation():
    tab = _series_table(n_series=10, per=120, rho=0.5, seed=8)
    out = suggest_rho(tab, pilot_spec(tab, "y"))
    assert 0.35 < out.rho_hat < 0.6
    assert out.per_group.shape == (10,)
    assert out.groups == tuple(f"s{i:02d}" for i in range(10))
    rho_hat, per_group = out
    assert rho_hat == out.rho_hat and per_group is out.per_group


def test_suggest_rho_clips_white_noise_to_zero_band():
    tab = _series_table(n_series=6, per=100, rho=0.0, seed=9)
    out = suggest_rho(tab, pilot_spec(tab, "y"))
    assert 0.0 <= out.rho_hat < 0.1
    # the raw mean may dip below zero; the clip never does
    assert out.rho_hat >= out.rho_raw


def test_suggest_rho_needs_series_key():
    tab = DataTable(columns={"y": np.arange(10.0)}, n_rows=10)
    with pytest.raises(SchemaError):
        suggest_rho(tab, ModelSpec(response="y"))


# ---------------------------------------------------------------------------
# permutation check


def test_permutation_test_is_bit_reproducible():
    tab = _series_table(n_series=5, per=40, rho=0.4, seed=10)
    a = permutation_fs_test(tab, "y", n_perm=12, seed=3)
    b = permutation_fs_test(tab, "y", n_perm=12, seed=3)
    np.testing.assert_array_equal(a.p_values, b.p_values)
    assert a.rejections == b.rejections
    assert a.n_failed == b.n_failed == 0
    assert a.rejections == a.rejections_at(a.alpha)


def test_permutation_test_seed_changes_the_draw():
    tab = _series_table(n_series=5, per=40, rho=0.4, seed=10)
    a = permutation_fs_test(tab, "y", n_perm=12, seed=3)
    b = permutation_fs_test(tab, "y", n_perm=12, seed=4)
    assert not np.array_equal(a.p_values, b.p_values)


def test_unpermuted_trend_is_detected_while_shuffles_are_not():
    """The pilot smooth flags a real shared trend; shuffling destroys it."""
    rng = np.random.default_rng(11)
    per, n_series = 60, 6
    ys, gs, ts = [], [], []
    t = np.arange(per, dtype=np.float64)
    for g in range(n_series):
        ys.append(np.sin(2 * np.pi * t / per) + 0.3 * rng.standard_normal(per))
        gs.extend([f"s{g}"] * per)
        ts.append(t)
    tab = DataTable(columns={"y": np.concatenate(ys),
                             "subj": FactorColumn.from_strings(gs),
                             "trial": np.concatenate(ts)},
                    n_rows=per * n_series, series_key="subj",
                    order_key="trial")
    baseline = fit(pilot_spec(tab, "y"), tab)
    fs_label = pilot_spec(tab, "y").smooth_terms[0].label
    assert wald_term_test(baseline, fs_label).p < 1e-6
    with warnings.catch_warnings():
        # shuffled replicates can exhaust the lambda-search budget; harmless
        warnings.simplefilter("ignore", UserWarning)
        perm = permutation_fs_test(tab, "y", n_perm=10, seed=0)
    assert perm.rejections <= 2


def test_permutation_test_validates_input():
    tab = _series_table(n_series=3, per=20, seed=12)
    with pytest.raises(DomainError):
        permutation_fs_test(tab, "y", n_perm=0)
    plain = DataTable(columns={"y": np.arange(8.0)}, n_rows=8)
    with pytest.raises(SchemaError):
        permutation_fs_test(plain, "y", n_perm=5)


# ---------------------------------------------------------------------------
# coefficient of variation


def test_cv_by_group_worked_example():
    """Values (1.5, 2, 2.5) have sd 0.5 around mean 2: CV = 0.25."""
    tab = DataTable(columns={"v": np.array([1.5, 2.0, 2.5, 4.0, 4.0]),
                             "g": FactorColumn.from_strings(
                                 ["a", "a", "a", "b", "b"])},
                    n_rows=5)
    rows = cv_by_group(tab, "v", "g")
    assert rows[0].group == "a" and rows[0].n == 3
    assert rows[0].mean == pytest.approx(2.0)
    assert rows[0].sd == pytest.approx(0.5)
    assert rows[0].cv == pytest.approx(0.25)
    assert rows[1].cv == 0.0


def test_cv_by_group_skips_singletons_with_warning():
    tab = DataTable(columns={"v": np.array([1.0, 2.0, 3.0]),
                             "g": FactorColumn.from_strings(["a", "a", "b"])},
                    n_rows=3)
    with pytest.warns(UserWarning, match="size < 2"):
        rows = cv_by_group(tab, "v", "g")
    assert [r.group for r in rows] == ["a"]


def test_cv_by_group_requires_positive_values():
    tab = DataTable(columns={"v": np.array([1.0, -2.0]),
                             "g": FactorColumn.from_strings(["a", "a"])},
                    n_rows=2)
    with pytest.raises(DomainError):
        cv_by_group(tab, "v", "g")


# ---------------------------------------------------------------------------
# residual report


def _report_stub(resid):
    n = len(resid)
    return SimpleNamespace(residuals_whitened=np.asarray(resid, dtype=float),
                           design=SimpleNamespace(
                               dot=lambda beta: np.zeros((n, 1)) @ beta),
                           beta=np.zeros(1))


def test_residual_report_qq_identity_for_exact_quantiles():
    from scipy.stats import norm
    n = 101
    q = norm.ppf((np.arange(1, n + 1) - 0.5) / n)
    rng = np.random.default_rng(13)
    rep = residual_report(_report_stub(rng.permutation(q)))
    np.testing.assert_allclose(rep.qq_observed, rep.qq_theoretical,
                               atol=1e-10)


def test_residual_report_moments_for_gaussian_noise():
    rng = np.random.default_rng(14)
    rep = residual_report(_report_stub(rng.standard_normal(1000)))
    assert abs(rep.skewness) < 0.25
    assert 2.5 < rep.kurtosis < 3.6


def test_residual_report_flags_heavy_tails():
    rng = np.random.default_rng(15)
    rep = residual_report(_report_stub(rng.standard_t(3, size=2000)))
    assert rep.kurtosis > 4.0


def test_residual_report_uses_whitened_scale():
    tab = _series_table(n_series=4, per=50, rho=0.5, seed=16)
    spec = ModelSpec(response="y", rho=0.4)
    model = fit(spec, tab)
    rep = residual_report(model)
    np.testing.assert_array_equal(rep.residuals, model.residuals_whitened)
    np.testing.assert_allclose(rep.fitted, model.design.X @ model.beta)
    assert rep.qq_observed.shape == (model.n,)
    assert np.all(np.diff(rep.qq_observed) >= 0)
