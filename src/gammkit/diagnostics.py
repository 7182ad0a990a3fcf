"""Residual autocorrelation, rho selection, and model-criticism summaries."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.stats import kurtosis as _kurtosis
from scipy.stats import norm as norm_dist
from scipy.stats import skew as _skew

from .data import DataTable
from .errors import DomainError, GammkitError, NumericError, SchemaError
from .fitting import FittedModel, ModelSpec, SmoothTermSpec, fit

DEFAULT_MAX_LAG = 30


@dataclass(frozen=True)
class AcfResult:
    """Sample autocorrelations r_0..r_max_lag for one group (or pooled)."""

    group: str
    lags: np.ndarray
    acf: np.ndarray
    n: int
    band: float

    @property
    def max_lag(self) -> int:
        return len(self.lags) - 1


def acf(series, max_lag: int) -> AcfResult:
    """Sample ACF r_k = sum (x_t - xbar)(x_{t+k} - xbar) / sum (x_t - xbar)^2.

    The full-series mean and the lag-0 sum normalize every lag, which keeps
    |r_k| <= 1 and makes the ACF invariant under affine transforms and time
    reversal.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise DomainError("acf expects a 1-d series")
    if max_lag < 0:
        raise DomainError("max_lag must be >= 0")
    n = x.size
    if n <= max_lag + 1:
        raise DomainError(f"series of length {n} is too short for "
                          f"max_lag {max_lag}")
    d = x - x.mean()
    c0 = float(d @ d)
    if c0 <= 0:
        raise NumericError("series has zero variance; ACF undefined")
    r = np.empty(max_lag + 1)
    r[0] = 1.0
    for k in range(1, max_lag + 1):
        r[k] = float(d[:-k] @ d[k:]) / c0
    return AcfResult(group="", lags=np.arange(max_lag + 1), acf=r, n=n,
                     band=1.96 / math.sqrt(n))


def residual_acf_by_group(model: FittedModel, which: str = "raw",
                          max_lag: int = DEFAULT_MAX_LAG) -> list[AcfResult]:
    """Per-series residual ACFs plus a pooled (group-averaged) ACF.

    Residual rows are already sorted by (series, order). Groups shorter than
    max_lag + 2 are skipped with a warning. The pooled entry averages the
    per-group ACFs lag by lag, with a band from the total row count.
    """
    if which == "raw":
        resid = model.residuals_raw
    elif which == "whitened":
        resid = model.residuals_whitened
    else:
        raise DomainError(f"which must be 'raw' or 'whitened', got {which!r}")
    design = model.design_raw
    if design.series_codes is None:
        raise SchemaError("model's table has no series key")
    codes = design.series_codes
    levels = design.table.factor(design.table.series_key).levels
    results = []
    skipped = []
    for j, name in enumerate(levels):
        chunk = resid[codes == j]
        if chunk.size < max_lag + 2:
            skipped.append(name)
            continue
        results.append(replace(acf(chunk, max_lag), group=name))
    if skipped:
        warnings.warn(f"{len(skipped)} series shorter than max_lag + 2 "
                      f"skipped: {skipped[:5]}", stacklevel=2)
    if not results:
        raise GammkitError("every series was too short for the requested lag")
    total_n = sum(r.n for r in results)
    pooled = np.mean([r.acf for r in results], axis=0)
    results.append(AcfResult(group="pooled", lags=np.arange(max_lag + 1),
                             acf=pooled, n=total_n,
                             band=1.96 / math.sqrt(total_n)))
    return results


def pilot_spec(table: DataTable, response: str, k: int = 5) -> ModelSpec:
    """Intercept + factor smooth of the order key by the series key."""
    if table.series_key is None or table.order_key is None:
        raise SchemaError("table needs series and order keys for a pilot fit")
    fs = SmoothTermSpec(covariates=(table.order_key,), basis_kind="cr", k=k,
                        fs_group=table.series_key)
    return ModelSpec(response=response, smooth_terms=(fs,), rho=0.0)


@dataclass(frozen=True)
class RhoSuggestion:
    """Lag-1-based AR(1) estimate; iterable as (rho_hat, per_group)."""

    rho_hat: float             # mean per-group lag-1 ACF, clipped to [0, 0.95]
    rho_raw: float
    per_group: np.ndarray
    groups: tuple

    def __iter__(self):
        return iter((self.rho_hat, self.per_group))


def suggest_rho(table: DataTable, base_spec: ModelSpec) -> RhoSuggestion:
    """Estimate rho from the lag-1 ACF of a pilot model's raw residuals.

    Fits base_spec with rho forced to 0, computes each series' lag-1
    residual autocorrelation, and returns the unweighted across-group mean
    clipped to [0, 0.95]. Negative estimates clip to 0 (no whitening
    benefit); near-1 values are capped because whitening destabilizes there.
    """
    if table.series_key is None:
        raise SchemaError("table needs a series key to estimate rho")
    model = fit(replace(base_spec, rho=0.0), table)
    per = [r for r in residual_acf_by_group(model, "raw", max_lag=1)
           if r.group != "pooled"]
    lag1 = [r.acf[1] for r in per]
    groups = tuple(r.group for r in per)
    raw = float(np.mean(lag1))
    return RhoSuggestion(rho_hat=float(np.clip(raw, 0.0, 0.95)), rho_raw=raw,
                         per_group=np.asarray(lag1), groups=groups)


@dataclass(frozen=True)
class PermutationTest:
    """Type-I check for the factor smooth; iterable as (rejections, p_values)."""

    rejections: int
    p_values: np.ndarray
    alpha: float
    n_failed: int

    def __iter__(self):
        return iter((self.rejections, self.p_values))

    def rejections_at(self, alpha: float) -> int:
        return int(np.sum(self.p_values < alpha))


def permutation_fs_test(table: DataTable, response: str, n_perm: int = 100,
                        alpha: float = 0.05, seed: int = 0,
                        k: int = 5) -> PermutationTest:
    """Permutation check that the factor smooth finds no trend in shuffled data.

    Each replicate shuffles the order values within every series, refits the
    pilot model (intercept + factor smooth of order by series), and records
    the factor smooth's approximate p-value. Fit failures are counted, not
    fatal. Bit-reproducible for a fixed seed: replicate b draws from its own
    stream seeded (seed, b).
    """
    from .inference import wald_term_test
    if n_perm < 1:
        raise DomainError("n_perm must be >= 1")
    if table.series_key is None or table.order_key is None:
        raise SchemaError("permutation test needs series and order keys")
    spec = pilot_spec(table, response, k=k)
    fs_label = spec.smooth_terms[0].label
    codes = table.factor(table.series_key).codes
    order = np.asarray(table.numeric(table.order_key))
    group_rows = [np.flatnonzero(codes == j)
                  for j in range(table.factor(table.series_key).n_levels)]
    p_values = []
    n_failed = 0
    for b in range(n_perm):
        rng = np.random.default_rng([seed, b])
        shuffled = order.copy()
        for rows in group_rows:
            shuffled[rows] = order[rows][rng.permutation(rows.size)]
        permuted = table.with_column(table.order_key, shuffled)
        try:
            model = fit(spec, permuted)
            p_values.append(wald_term_test(model, fs_label).p)
        except GammkitError:
            n_failed += 1
            p_values.append(math.nan)
    p = np.asarray(p_values)
    rejections = int(np.sum(p[~np.isnan(p)] < alpha))
    return PermutationTest(rejections=rejections, p_values=p, alpha=alpha,
                           n_failed=n_failed)


@dataclass(frozen=True)
class CvRow:
    group: str
    n: int
    mean: float
    sd: float
    cv: float


def cv_by_group(table: DataTable, value_column: str, group: str) -> list[CvRow]:
    """Coefficient of variation sd/mean per group; values must be positive."""
    y = np.asarray(table.numeric(value_column), dtype=np.float64)
    if np.any(y <= 0):
        raise DomainError(f"{value_column!r} must be positive for a CV")
    fac = table.factor(group)
    rows = []
    skipped = 0
    for j, name in enumerate(fac.levels):
        vals = y[fac.codes == j]
        if vals.size < 2:
            skipped += 1
            continue
        mean = float(vals.mean())
        sd = float(vals.std(ddof=1))
        rows.append(CvRow(group=name, n=vals.size, mean=mean, sd=sd,
                          cv=sd / mean))
    if skipped:
        warnings.warn(f"{skipped} groups of size < 2 skipped", stacklevel=2)
    return rows


@dataclass(frozen=True)
class ResidualReport:
    """Plot-data tables for model criticism; no plotting here."""

    qq_theoretical: np.ndarray
    qq_observed: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    skewness: float
    kurtosis: float            # Pearson convention: normal -> 3


def residual_report(model: FittedModel) -> ResidualReport:
    """QQ pairs, residual-vs-fitted pairs, and moment summaries.

    Everything uses whitened quantities: the model's error theory holds on
    the whitened scale. QQ positions are (i - 0.5)/n, so residuals that are
    themselves standard-normal quantiles land exactly on the identity line.
    """
    resid = model.residuals_whitened
    n = resid.size
    theo = norm_dist.ppf((np.arange(1, n + 1) - 0.5) / n)
    return ResidualReport(qq_theoretical=theo, qq_observed=np.sort(resid),
                          fitted=model.design.dot(model.beta),
                          residuals=resid,
                          skewness=float(_skew(resid)),
                          kurtosis=float(_kurtosis(resid, fisher=False)))
