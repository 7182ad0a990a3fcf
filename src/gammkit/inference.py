"""Edf accounting, AIC, and every test and p-value the program reports.

The p-values, from scipy.special's F, chi-squared and t tails, are all
approximate: they condition on the selected smoothing parameters and use
Wald/F/t reference distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.special import chdtrc, fdtrc, stdtr

from .errors import GammkitError, NestingError, SchemaError

_TIE_RTOL = 1e-6               # eigenvalues of V this close form a cluster


@dataclass(frozen=True)
class TermSummary:
    """One table row: edf, reference df, F statistic, p-value."""

    term: str
    edf: float
    ref_df: float
    statistic: float
    p: float


@dataclass(frozen=True)
class ModelScore:
    """Bare inputs for a score comparison, detached from any fit."""

    reml: float
    param_count: int
    label: str = ""


def aic(model) -> float:
    """AIC = -2 loglik + 2 (total edf + 1), the +1 counting the scale.

    loglik is the Gaussian log-likelihood of the whitened residuals at the
    maximum-likelihood variance RSS/n, so an intercept-only fit reduces to
    n log(2 pi RSS/n) + n + 4.
    """
    return -2.0 * model.loglik + 2.0 * (model.total_edf + 1.0)


def nested_f_test(model_small, model_big) -> tuple[float, float, float, float]:
    """Incremental F test between two fits of the same response.

    F = (delta RSS / delta edf) / sigma2_big with df1 = delta edf and
    df2 = n - total edf of the larger model. Identical fits return
    (0, 0, df2, 1); a negative edf increment (arguments swapped, or models
    not nested) raises rather than returning a negative F.
    """
    n = model_big.n
    if model_small.n != n:
        raise SchemaError("models were fit to different numbers of rows")
    d_edf = model_big.total_edf - model_small.total_edf
    d_rss = model_small.rss_whitened - model_big.rss_whitened
    scale = max(abs(model_small.rss_whitened), abs(model_big.rss_whitened), 1.0)
    df2 = n - model_big.total_edf
    if abs(d_edf) < 1e-8 and abs(d_rss) < 1e-10 * scale:
        return 0.0, 0.0, float(df2), 1.0
    if d_edf <= 1e-8:
        raise NestingError(f"larger model must add effective df; "
                           f"got increment {d_edf:.3g}")
    if df2 <= 0:
        raise NestingError("larger model has no residual df")
    fstat = (d_rss / d_edf) / model_big.sigma2
    fstat = max(fstat, 0.0)
    p = float(fdtrc(d_edf, df2, fstat))
    return float(fstat), float(d_edf), float(df2), p


def coef_t_tests(model) -> list[tuple[str, float, float, float, float]]:
    """(name, estimate, SE, t, two-sided p) of each parametric column, on
    n - total edf residual df; t and p are NaN unless SE and df are > 0."""
    df_resid = model.n - model.total_edf
    rows = []
    for j in range(model.design_raw.n_parametric_cols):
        est, se = model.beta[j], model.se[j]
        tval = est / se if se > 0 and df_resid > 0 else math.nan
        rows.append((model.coef_names[j], est, se, tval,
                     2.0 * float(stdtr(df_resid, -abs(tval)))))
    return rows


@dataclass(frozen=True)
class ComparisonResult:
    """Score-difference test."""

    stat: float
    df: int
    p: float | None
    verdict: str               # "test" | "simpler_and_better"


def compare_reml(model0, model1) -> ComparisonResult:
    """Chi-squared comparison of two REML scores.

    stat is the raw score difference (not doubled) and df the difference in
    parameter counts (parametric coefficients plus smoothing parameters);
    p = P(chi2_df > stat). When the model with fewer parameters also has the
    lower score, no test is run: verdict is "simpler_and_better" and p is
    None. Accepts fitted models or bare ModelScore records. Fitted models
    with different AR(1) rho are refused: the REML score leaves out the
    AR(1) Jacobian, so their scores are on different scales. So is a NaN
    score, which fit reports for a ridged system or a lambda fixed at 0.
    """
    spec0, spec1 = getattr(model0, "spec", None), getattr(model1, "spec", None)
    if spec0 is not None and spec0 == spec1:
        raise GammkitError("models have identical specifications; "
                           "nothing to compare")
    if spec0 is not None and spec1 is not None and spec0.rho != spec1.rho:
        raise GammkitError(f"models were fitted with different AR(1) rho "
                           f"({spec0.rho} and {spec1.rho}); their REML "
                           "scores leave out the AR(1) Jacobian and are not "
                           "comparable")
    r0, r1 = float(model0.reml), float(model1.reml)
    if math.isnan(r0) or math.isnan(r1):
        raise GammkitError("REML score unavailable: a lambda fixed at 0, "
                           "or a singular system the final solve ridged")
    k0, k1 = int(model0.param_count), int(model1.param_count)
    stat = abs(r0 - r1)
    df = abs(k0 - k1)
    if stat < 1e-12 and df == 0:
        raise GammkitError("models have identical scores and parameter "
                           "counts; nothing to compare")
    if (k0 < k1 and r0 < r1) or (k1 < k0 and r1 < r0):
        return ComparisonResult(stat=stat, df=df, p=None,
                                verdict="simpler_and_better")
    if df == 0:
        raise GammkitError("equal parameter counts; chi-squared comparison "
                           "undefined at df = 0")
    p = float(chdtrc(df, stat))
    return ComparisonResult(stat=float(stat), df=df, p=p, verdict="test")


def wald_columns(model, a: int, b: int, label: str) -> TermSummary:
    """Wald F test over an explicit column range [a, b) of the fit.

    F = beta' pinv(V) beta / edf with the pseudo-inverse truncated at rank
    round(edf), so heavily shrunk directions do not inflate the statistic;
    df1 = edf, df2 = n - total edf; the reference df is the width b - a. A cluster of eigenvalues of V within
    _TIE_RTOL (an fs term repeats each once per level) that the cut splits
    enters whole, weighted by its slots below the cut over its size, so F
    does not depend on which basis of the cluster eigh returns.
    """
    edf = float(np.sum(model.edf_per_coef[a:b]))
    ref_df = float(b - a)
    rank = int(round(edf))
    df2 = model.n - model.total_edf
    null = TermSummary(term=label, edf=edf, ref_df=ref_df, statistic=0.0,
                       p=1.0)
    if rank <= 0 or df2 <= 0 or not math.isfinite(model.sigma2) \
            or model.sigma2 <= 0:
        return null
    vt = model.vb[a:b, a:b]
    sym = vt + vt.T
    sym *= 0.5
    # numpy's eigh bit for bit (LAPACK evd), without its copy of the input
    w, V = eigh(sym, overwrite_a=True, check_finite=False, driver="evd")
    w, V = w[::-1], V[:, ::-1]
    cluster = np.cumsum(np.concatenate(
        [[True], w[1:] < w[:-1] - _TIE_RTOL * np.abs(w[:-1])]))
    at_cut = cluster == cluster[rank - 1]
    weight = np.where(cluster < cluster[rank - 1], 1.0, at_cut * (
        rank - np.argmax(at_cut)) / at_cut.sum()) * (w > 0)
    if not np.any(weight > 0):
        return null
    z = V.T @ model.beta[a:b]
    stat = float(np.sum(weight * z * z / np.where(w > 0, w, 1.0))) \
        / max(edf, 1e-8)
    p = float(fdtrc(max(edf, 1e-8), df2, stat))
    return TermSummary(term=label, edf=edf, ref_df=ref_df, statistic=stat,
                       p=p)


def wald_term_test(model, term: str) -> TermSummary:
    """Approximate Wald F test that a term's coefficients are all zero.

    Delegates to wald_columns over the term's column range. For a
    1-column parametric term the statistic reduces to (beta/se)^2.
    Conditional on the selected lambdas, like every test here.
    """
    return wald_columns(model, *model.column_range(term), term)


def summarize_terms(model) -> tuple[list, list[TermSummary]]:
    """The two sections of the model summary: coef_t_tests(model), then a
    TermSummary per smooth term in spec order, one per level of a by=
    smooth (labelled base:level, over that level's k columns). The joint
    test of a by= or parametric term is wald_term_test's."""
    design = model.design_raw
    rows = []
    for term in model.spec.smooth_terms:
        if term.by is None:
            rows.append(wald_term_test(model, term.label))
            continue
        t, base = design.terms[term.label], term.label.split(":")[0]
        a, k = t.cols[0], t.k
        rows += [wald_columns(model, a + j * k, a + (j + 1) * k,
                              f"{base}:{level}")
                 for j, level in enumerate(design.table.factor(term.by).levels)]
    return coef_t_tests(model), rows
