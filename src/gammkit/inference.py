"""Edf accounting, AIC, and model-comparison tests.

All p-values here are approximate: they condition on the selected smoothing
parameters and use Wald/F reference distributions. Results carry an
``approximate`` flag so downstream formatting can say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.stats import chi2 as chi2_dist
from scipy.stats import f as f_dist

from .errors import GammkitError, NestingError, SchemaError
from .terms import SmoothTermSpec

_TIE_RTOL = 1e-6               # eigenvalues of V this close form a cluster


@dataclass(frozen=True)
class TermSummary:
    """One table row: edf, reference df, F statistic, p-value."""

    term: str
    edf: float
    ref_df: float
    statistic: float
    p: float
    kind: str                  # parametric | smooth | random
    approximate: bool = True


@dataclass(frozen=True)
class ModelScore:
    """Bare inputs for a score comparison, detached from any fit."""

    reml: float
    param_count: int
    label: str = ""


def term_edf(model, term: str) -> float:
    """Sum of per-coefficient edf over the term's columns.

    The intercept's edf (1 for any unpenalized fit) lives under the
    "(Intercept)" label; smooth terms never include it, so per-term edf
    values sum exactly to the model's total edf.
    """
    a, b = model.column_range(term)
    return float(np.sum(model.edf_per_coef[a:b]))


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
    p = float(f_dist.sf(fstat, d_edf, df2))
    return float(fstat), float(d_edf), float(df2), p


@dataclass(frozen=True)
class ComparisonResult:
    """Score-difference test; iterable as (stat, df, p)."""

    stat: float
    df: int
    p: float | None
    verdict: str               # "test" | "simpler_and_better"

    def __iter__(self):
        return iter((self.stat, self.df, self.p))


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
    p = float(chi2_dist.sf(stat, df))
    return ComparisonResult(stat=float(stat), df=df, p=p, verdict="test")


def wald_columns(model, a: int, b: int, label: str,
                 kind: str = "smooth") -> TermSummary:
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
                       p=1.0, kind=kind)
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
    p = float(f_dist.sf(stat, max(edf, 1e-8), df2))
    return TermSummary(term=label, edf=edf, ref_df=ref_df, statistic=stat,
                       p=p, kind=kind)


def wald_term_test(model, term: str) -> TermSummary:
    """Approximate Wald F test that a term's coefficients are all zero.

    Delegates to wald_columns over the term's column range. For a
    1-column parametric term the statistic reduces to (beta/se)^2.
    Conditional on the selected lambdas, like every test here.
    """
    a, b = model.column_range(term)
    spec = model.design_raw.terms[term].spec
    kind = ("parametric" if not isinstance(spec, SmoothTermSpec)
            else "random" if spec.is_random_effect else "smooth")
    return wald_columns(model, a, b, term, kind=kind)


def summarize_terms(model) -> list[TermSummary]:
    """TermSummary rows for every model term, parametric first."""
    return [wald_term_test(model, label) for label in model.design_raw.terms]
