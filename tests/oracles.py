"""Brute-force oracles for the test suite.

The oracles deliberately share no solver code with the fitting module: the
BLUP oracle is the balanced one-way ANOVA closed form, and the grid oracle
evaluates the restricted-likelihood score by dense LU/eigendecompositions.
tests/test_simulate.py checks that this module imports nothing from
gammkit.fitting, gammkit.basis or gammkit.inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gammkit.data import DataTable
from gammkit.errors import DomainError, NumericError, ShapeError


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
