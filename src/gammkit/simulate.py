"""Synthetic experiment generator and brute-force fitting oracles.

Every random draw comes from a named stream seeded (seed, subject, component)
so adding subjects or components never perturbs draws made for earlier ones.
The oracles deliberately share no solver code with the fitting module: the
BLUP oracle is the balanced one-way ANOVA closed form, and the grid oracle
evaluates the restricted-likelihood score by dense LU/eigendecompositions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DataTable, FactorColumn
from .errors import DomainError, NumericError, ShapeError

_STREAM_TREND = 1
_STREAM_NOISE = 2
_STREAM_ASSIGN = 3
_STREAM_INTERCEPT = 4

TREND_KINDS = ("flat", "linear", "undulating", "spiky")


def gen_trend(kind: str, n_trials: int, amplitude: float, seed) -> np.ndarray:
    """One subject's slow trend over trials, mean-centered.

    flat: zeros. linear: a random slope times the centered trial index.
    undulating: linear plus up to 3 sinusoids with periods in
    [n_trials/6, n_trials], so the trend stays slow enough for a modest
    factor-smooth basis to resolve. spiky: undulating plus a few positive
    Gaussian bursts.
    """
    if kind not in TREND_KINDS:
        raise DomainError(f"trend kind must be one of {TREND_KINDS}, "
                          f"got {kind!r}")
    if n_trials < 2:
        raise DomainError("n_trials must be >= 2")
    if amplitude < 0:
        raise DomainError("amplitude must be >= 0")
    n = n_trials
    if kind == "flat":
        return np.zeros(n)
    rng = np.random.default_rng(seed)
    u = (np.arange(n) - (n - 1) / 2.0) / (n - 1)          # centered, span 1
    trend = rng.normal(0.0, amplitude) * u
    if kind in ("undulating", "spiky"):
        n_comp = int(rng.integers(1, 4))
        for _ in range(n_comp):
            period = rng.uniform(n / 6.0, float(n))
            phase = rng.uniform(0.0, 2.0 * math.pi)
            amp = rng.normal(0.0, amplitude / math.sqrt(n_comp))
            trend = trend + amp * np.sin(2.0 * math.pi * np.arange(n) / period
                                         + phase)
    if kind == "spiky":
        n_spikes = int(rng.integers(1, 4))
        for _ in range(n_spikes):
            loc = rng.uniform(0.0, n - 1.0)
            width = rng.uniform(max(2.0, n / 200.0), max(4.0, n / 50.0))
            height = abs(rng.normal(0.0, 2.0 * amplitude))
            trend = trend + height * np.exp(-0.5 * ((np.arange(n) - loc)
                                                    / width) ** 2)
    return trend - trend.mean()


@dataclass(frozen=True)
class FixedEffect:
    """A generated predictor: a balanced 2-level factor or a uniform covariate.

    factor2 contributes effect * (+0.5 | -0.5) for levels a | b, matching the
    sum-coded design column, so a correctly specified fit recovers `effect`
    as the coefficient. numeric draws the covariate uniform on [-0.5, 0.5]
    and contributes effect * x.
    """

    name: str
    kind: str                  # factor2 | numeric
    effect: float

    def __post_init__(self):
        if self.kind not in ("factor2", "numeric"):
            raise DomainError(f"fixed effect kind must be factor2 or "
                              f"numeric, got {self.kind!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """Generative scenario: factorial effects + per-subject trends + AR(1)."""

    n_subjects: int
    n_trials: int
    fixed_effects: tuple = ()
    trend: str = "flat"
    trend_amplitude: float = 0.0
    rho: float = 0.0
    sigma: float = 1.0
    subject_intercept_sd: float = 0.0
    mean: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "fixed_effects", tuple(self.fixed_effects))
        if self.n_subjects < 1 or self.n_trials < 1:
            raise DomainError("counts must be >= 1")
        if self.sigma < 0 or self.subject_intercept_sd < 0 \
                or self.trend_amplitude < 0:
            raise DomainError("sds must be >= 0")
        if not (0.0 <= self.rho < 1.0):
            raise DomainError(f"rho must lie in [0, 1), got {self.rho}")
        if self.trend not in TREND_KINDS:
            raise DomainError(f"unknown trend kind {self.trend!r}")
        names = [fe.name for fe in self.fixed_effects]
        if len(names) != len(set(names)):
            raise DomainError("duplicate fixed-effect names")


@dataclass(frozen=True)
class SimTruth:
    """Every generated component, for recovery scoring."""

    mean: float
    effects: dict
    subject_intercepts: np.ndarray        # (n_subjects,)
    trends: np.ndarray                    # (n_subjects, n_trials)
    errors: np.ndarray                    # (n_subjects, n_trials)
    rho: float
    sigma: float


def _ar1_errors(rng, n: int, rho: float, sigma: float) -> np.ndarray:
    """Stationary AR(1): first draw has sd sigma/sqrt(1 - rho^2)."""
    eps = rng.normal(0.0, sigma, n)
    if rho == 0.0:
        return eps
    e = np.empty(n)
    e[0] = eps[0] / math.sqrt(1.0 - rho * rho)
    for t in range(1, n):
        e[t] = rho * e[t - 1] + eps[t]
    return e


def gen_experiment(spec: ScenarioSpec) -> tuple[DataTable, SimTruth]:
    """Generate a full experiment table plus its ground-truth record.

    y = mean + fixed effects + subject intercept + subject trend + AR(1)
    noise. Columns: subject (factor), trial (1..n_trials), one column per
    fixed effect, and y; series key subject, order key trial.
    """
    ns, nt = spec.n_subjects, spec.n_trials
    width = max(3, len(str(ns - 1)))
    subj_levels = tuple(f"s{j:0{width}d}" for j in range(ns))
    trends = np.empty((ns, nt))
    errors = np.empty((ns, nt))
    intercepts = np.empty(ns)
    factor_codes = {fe.name: np.empty(ns * nt, dtype=np.int64)
                    for fe in spec.fixed_effects if fe.kind == "factor2"}
    numeric_vals = {fe.name: np.empty(ns * nt)
                    for fe in spec.fixed_effects if fe.kind == "numeric"}
    y = np.empty(ns * nt)
    for s in range(ns):
        rows = slice(s * nt, (s + 1) * nt)
        trends[s] = gen_trend(spec.trend, nt, spec.trend_amplitude,
                              seed=[spec.seed, s, _STREAM_TREND])
        errors[s] = _ar1_errors(np.random.default_rng(
            [spec.seed, s, _STREAM_NOISE]), nt, spec.rho, spec.sigma)
        intercepts[s] = np.random.default_rng(
            [spec.seed, s, _STREAM_INTERCEPT]).normal(
            0.0, spec.subject_intercept_sd)
        rng_a = np.random.default_rng([spec.seed, s, _STREAM_ASSIGN])
        contrib = np.zeros(nt)
        for fe in spec.fixed_effects:
            if fe.kind == "factor2":
                codes = rng_a.integers(0, 2, nt)
                factor_codes[fe.name][rows] = codes
                contrib += fe.effect * (0.5 - codes)
            else:
                x = rng_a.uniform(-0.5, 0.5, nt)
                numeric_vals[fe.name][rows] = x
                contrib += fe.effect * x
        y[rows] = spec.mean + contrib + intercepts[s] + trends[s] + errors[s]

    columns = {
        "subject": FactorColumn(codes=np.repeat(np.arange(ns), nt),
                                levels=subj_levels),
        "trial": np.tile(np.arange(1, nt + 1, dtype=np.float64), ns),
        "y": y,
    }
    for name, codes in factor_codes.items():
        columns[name] = FactorColumn(codes=codes, levels=("a", "b"))
    for name, vals in numeric_vals.items():
        columns[name] = vals
    table = DataTable(columns=columns, n_rows=ns * nt, series_key="subject",
                      order_key="trial")
    truth = SimTruth(mean=spec.mean,
                     effects={fe.name: fe.effect for fe in spec.fixed_effects},
                     subject_intercepts=intercepts, trends=trends,
                     errors=errors, rho=spec.rho, sigma=spec.sigma)
    return table, truth


# ---------------------------------------------------------------------------
# oracles


@dataclass(frozen=True)
class BlupOracle:
    """Balanced one-way ANOVA estimates; iterable as (mu, s2, sb2, blups)."""

    mu: float
    sigma2: float
    sigmab2: float
    blups: np.ndarray
    shrink: float
    group_means: np.ndarray

    def __iter__(self):
        return iter((self.mu, self.sigma2, self.sigmab2, self.blups))


def blup_oracle(table: DataTable, group: str, value_column: str) -> BlupOracle:
    """Closed-form BLUPs for balanced random-intercept data.

    Method-of-moments ANOVA: sigma2 = MSW, sigmab2 = max((MSB - MSW)/m, 0)
    for common group size m, and BLUP b_j = shrink * (ybar_j - ybar) with
    shrink = m*sigmab2 / (m*sigmab2 + sigma2). Deliberately narrow: requires
    equal group sizes and >= 2 groups of >= 2.
    """
    fac = table.factor(group)
    y = np.asarray(table.numeric(value_column), dtype=np.float64)
    sizes = np.bincount(fac.codes, minlength=fac.n_levels)
    if fac.n_levels < 2:
        raise DomainError("need >= 2 groups")
    if sizes.min() != sizes.max():
        raise DomainError(f"groups are unbalanced (sizes {sizes.min()}.."
                          f"{sizes.max()}); this oracle requires balance")
    m = int(sizes[0])
    if m < 2:
        raise DomainError("need >= 2 observations per group")
    G = fac.n_levels
    means = np.array([y[fac.codes == j].mean() for j in range(G)])
    mu = float(y.mean())
    msw = float(sum(np.sum((y[fac.codes == j] - means[j]) ** 2)
                    for j in range(G)) / (G * (m - 1)))
    msb = float(m * np.sum((means - mu) ** 2) / (G - 1))
    sigmab2 = max((msb - msw) / m, 0.0)
    shrink = m * sigmab2 / (m * sigmab2 + msw) if msw + sigmab2 > 0 else 0.0
    return BlupOracle(mu=mu, sigma2=msw, sigmab2=sigmab2,
                      blups=shrink * (means - mu), shrink=shrink,
                      group_means=means)


def grid_reml_oracle(design, log_grid) -> tuple[np.ndarray, int]:
    """Dense re-derivation of the restricted-likelihood score on a grid.

    For each grid point: solve the penalized normal equations with a dense
    LU solve, compute the residual sum of squares explicitly, the
    log-determinant by slogdet, and the penalty log-pseudo-determinant from
    the full eigenvalue spectrum truncated at the structural rank found by
    matrix_rank at unit weights. No code is shared with the fitting module's
    score path, so agreement is evidence, not tautology.
    """
    n_pen = len(design.penalties)
    if n_pen not in (1, 2):
        raise DomainError("oracle handles 1- or 2-penalty designs only")
    grid = np.asarray(log_grid, dtype=np.float64)
    if grid.ndim == 1:
        if n_pen != 1:
            raise ShapeError("1-d grid requires a single-penalty design")
        grid = grid[:, None]
    if grid.shape[1] != n_pen:
        raise ShapeError(f"grid has {grid.shape[1]} columns for "
                         f"{n_pen} penalties")
    if grid.shape[0] > 10_000:
        raise DomainError("grid larger than 10^4 points")

    X, y = design.X.toarray(), design.y
    n, p = X.shape
    embedded = []
    for entry in design.penalties:
        S = np.zeros((p, p))
        sl = slice(entry.offset, entry.offset + entry.p_block)
        S[sl, sl] = entry.S
        embedded.append(S)
    s_unit = sum(embedded)
    rank = int(np.linalg.matrix_rank(s_unit, hermitian=True))
    n_eff = n - (p - rank)
    if n_eff <= 0:
        raise NumericError("more unpenalized directions than observations")
    xtx = X.T @ X
    xty = X.T @ y

    scores = np.empty(grid.shape[0])
    for i, logs in enumerate(grid):
        lams = np.exp(logs)
        s_lam = sum(l * S for l, S in zip(lams, embedded))
        a = xtx + s_lam
        try:
            beta = np.linalg.solve(a, xty)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"dense solve failed at grid point {i}: "
                               f"{exc}") from None
        resid = y - X @ beta
        rss = float(resid @ resid)
        pen = float(beta @ s_lam @ beta)
        sign, logdet_a = np.linalg.slogdet(a)
        if sign <= 0:
            raise NumericError(f"non-positive determinant at grid point {i}")
        eigs = np.sort(np.linalg.eigvalsh(s_lam))[::-1][:rank]
        if np.any(eigs <= 0):
            raise NumericError(f"penalty lost rank at grid point {i}")
        logpdet_s = float(np.sum(np.log(eigs)))
        phi = max((rss + pen) / n_eff, 1e-300)
        scores[i] = 0.5 * n_eff * (math.log(2.0 * math.pi * phi) + 1.0) \
            - 0.5 * logpdet_s + 0.5 * logdet_a
    return scores, int(np.argmin(scores))
