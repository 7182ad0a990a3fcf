"""Basis and penalty construction for every model term.

This module owns a term's columns. Each constructor, and term_block for a
parametric or smooth term of a model spec, returns a BasisBlock holding the
evaluated design columns for one model term, the penalty matrices that
measure its wiggliness (none for a parametric term), and an evaluator that
builds the columns at new covariate values and flags the rows it extends
past the training range (out_of_range). The stored X is always produced
*through* the evaluator, so re-evaluating at the training covariates is
bit-identical to the stored matrix. fitting only stacks the blocks.

Per-level terms (random effects, factor smooths, by-factor smooths) give
each factor level its own columns, zero off that level's rows. Their X is a
scipy.sparse CSR matrix built in one step from the level codes and the base
rows (per_level_rows): it stores n * p_base entries, not n * L * p_base.
Their penalties stay on the base too, each a k x k Penalty and the level
blocks it repeats on: no (L k)^2 array is built. Every other block's X is
a dense array. A LinAlgError inside a basis construction becomes a
NumericError naming the stage.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.linalg import eigh, qr, solve, solve_triangular
from scipy.spatial.distance import cdist

from .data import DataTable, FactorColumn
from .errors import (DomainError, GammkitError, NumericError, RankError,
                     SchemaError, ShapeError)
from .terms import ParametricTerm, SmoothTermSpec

_PSD_RTOL = 1e-8
DEFAULT_K = {"poly": 9, "cr": 10, "tp": 10, "tensor": 5, "ti": 5, "fs": 5}


def _symmetrize(S: np.ndarray) -> np.ndarray:
    return 0.5 * (S + S.T)


@contextmanager
def _stage(what: str):
    """Raise a LinAlgError inside as a NumericError naming the stage."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"{what} failed: {exc}") from None


def rank_psd(S: np.ndarray, rtol: float = 1e-9) -> int:
    """Numerical rank of a symmetric PSD matrix via its eigenvalues."""
    if S.shape[0] == 0:
        return 0
    w = np.linalg.eigvalsh(_symmetrize(S))
    top = w[-1]
    if top <= 0:
        return 0
    return int(np.sum(w > rtol * top))


class Penalty(NamedTuple):
    """The k x k matrix S repeated on the level blocks levels, those of
    columns [l k, (l + 1) k) for l in levels, and zero elsewhere. A term
    without levels has one block of p_term columns, levels = range(1)."""

    S: np.ndarray
    label: str
    levels: range = range(1)


def _check_psd(S: np.ndarray, label: str) -> None:
    w = np.linalg.eigvalsh(_symmetrize(S))
    if w.size and w[0] < -_PSD_RTOL * max(w[-1], 1.0):
        raise NumericError(f"penalty {label!r} is not positive semidefinite "
                           f"(min eigenvalue {w[0]:.3e})")


@dataclass(frozen=True)
class KnotSet:
    """Strictly increasing knot locations for a cubic spline."""

    locations: np.ndarray

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=np.float64)
        object.__setattr__(self, "locations", loc)
        if loc.size < 3:
            raise DomainError("cubic splines need at least 3 knots")
        if np.any(np.diff(loc) <= 0):
            raise DomainError("knots must be strictly increasing")

    def __len__(self) -> int:
        return int(self.locations.size)


@dataclass
class BasisBlock:
    """Evaluated basis matrix for one term plus its penalties.

    penalties is a list of Penalty, each a k x k base S and the level blocks
    it repeats on; each distinct base is checked positive semidefinite
    once. X is dense, or CSR for per-level terms; the finite check reads
    its stored values.
    """

    term_label: str
    X: np.ndarray | sparse.csr_array
    penalties: list
    evaluator: object
    n_cov: int = 1
    constraint: dict | None = None
    coef_names: list | None = None     # set by term_block

    def __post_init__(self):
        if sparse.issparse(self.X):
            values = self.X.data
        else:
            self.X = values = np.asarray(self.X, dtype=np.float64)
        if not np.all(np.isfinite(values)):
            raise NumericError(f"basis {self.term_label!r} produced non-finite entries")
        for S, label, levels in self.penalties:
            k = S.shape[0]
            if S.shape != (k, k) or k * levels.stop > self.p_term:
                raise ShapeError(f"penalty {label!r} shape {S.shape} on levels "
                                 f"{levels} does not tile p_term {self.p_term}")
        for S, label, _ in {id(pen.S): pen for pen in self.penalties}.values():
            _check_psd(S, label)

    @property
    def p_term(self) -> int:
        return self.X.shape[1]

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]


# ---------------------------------------------------------------------------
# evaluators


class _Unbounded:
    """An evaluator whose columns need no extension past the training
    range, so it flags no row."""

    def out_of_range(self, cols):
        return np.zeros(len(cols[0]), dtype=bool)


class _PolyEval(_Unbounded):
    def __init__(self, center, halfwidth, coef_map, degree):
        self.center = center
        self.halfwidth = halfwidth
        self.coef_map = coef_map          # (degree+1) x degree
        self.degree = degree

    def evaluate(self, cols):
        x = np.asarray(cols[0], dtype=np.float64)
        u = (x - self.center) / self.halfwidth
        V = u[:, None] ** np.arange(self.degree + 1)
        return V @ self.coef_map


class _CrEval:
    def __init__(self, knots, fplus, d_left, d_right):
        self.knots = knots
        self.h = np.diff(knots)
        self.fplus = fplus                # k x k: values -> second derivatives
        self.d_left = d_left              # weights of f'(first knot)
        self.d_right = d_right            # weights of f'(last knot)

    def evaluate(self, cols):
        """The columns at x, extended linearly past the end knots."""
        x = np.asarray(cols[0], dtype=np.float64)
        knots = self.knots
        k = knots.size
        out = self.out_of_range(cols)
        xc = np.clip(x, knots[0], knots[-1])
        j = np.clip(np.searchsorted(knots, xc, side="right") - 1, 0, k - 2)
        hj = self.h[j]
        left = knots[j + 1] - xc
        right = xc - knots[j]
        c_minus = (left ** 3 / hj - hj * left) / 6.0
        c_plus = (right ** 3 / hj - hj * right) / 6.0
        n = x.size
        # scaled in place: at most two n x k arrays alive at once
        X = self.fplus[j]
        X *= c_minus[:, None]
        upper = self.fplus[j + 1]
        upper *= c_plus[:, None]
        X += upper
        del upper
        rows = np.arange(n)
        np.add.at(X, (rows, j), left / hj)
        np.add.at(X, (rows, j + 1), right / hj)
        lo = out & (x < knots[0])
        hi = out & ~lo
        if lo.any():
            X[lo] = 0.0
            X[lo, 0] = 1.0
            X[lo] += (x[lo] - knots[0])[:, None] * self.d_left
        if hi.any():
            X[hi] = 0.0
            X[hi, k - 1] = 1.0
            X[hi] += (x[hi] - knots[-1])[:, None] * self.d_right
        return X

    def out_of_range(self, cols):
        x = np.asarray(cols[0], dtype=np.float64)
        tol = 1e-9 * (self.knots[-1] - self.knots[0])
        return (x < self.knots[0] - tol) | (x > self.knots[-1] + tol)


class _TpEval:
    def __init__(self, points, d, m, loadings, powers, box):
        self.points = points              # u x d unique (or subsampled) sites
        self.d = d
        self.m = m
        self.loadings = loadings          # u x (k - M) coefficient loadings
        self.powers = powers              # M x d monomial exponents
        self.box = box                    # 2 x d training minima, maxima

    def evaluate(self, cols):
        Xc = _as_cov_matrix(cols, self.d)
        r = cdist(Xc, self.points)
        E = _tp_eta(r, self.d, self.m)
        T = _tp_poly(Xc, self.powers)
        return np.hstack([T, E @ self.loadings])

    def out_of_range(self, cols):
        Xc = _as_cov_matrix(cols, self.d)
        return np.any((Xc < self.box[0]) | (Xc > self.box[1]), axis=1)


class _TensorEval:
    def __init__(self, ev_a, ev_b, n_cov_a):
        self.ev_a = ev_a
        self.ev_b = ev_b
        self.n_cov_a = n_cov_a

    def evaluate(self, cols):
        return row_kron(self.ev_a.evaluate(cols[:self.n_cov_a]),
                        self.ev_b.evaluate(cols[self.n_cov_a:]))

    def out_of_range(self, cols):
        return (self.ev_a.out_of_range(cols[:self.n_cov_a])
                | self.ev_b.out_of_range(cols[self.n_cov_a:]))


class _PerLevelEval:
    """Shared machinery for by-factor and factor-smooth expansion."""

    def __init__(self, base_ev, levels):
        self.base_ev = base_ev
        self.levels = tuple(levels)

    def evaluate(self, cols):
        codes = recode_factor(cols[-1], self.levels)
        Xb = self.base_ev.evaluate(cols[:-1])
        return per_level_rows(codes, Xb, len(self.levels))

    def out_of_range(self, cols):
        return self.base_ev.out_of_range(cols[:-1])


class _RandomEffectEval(_Unbounded):
    def __init__(self, levels, with_covariate):
        self.levels = tuple(levels)
        self.with_covariate = with_covariate

    def evaluate(self, cols):
        codes = recode_factor(cols[0], self.levels)
        values = (np.asarray(cols[1], dtype=np.float64) if self.with_covariate
                  else np.ones(codes.size))
        return per_level_rows(codes, values[:, None], len(self.levels))


class _ConstrainedEval:
    def __init__(self, base_ev, Z):
        self.base_ev = base_ev
        self.Z = Z

    def evaluate(self, cols):
        return self.base_ev.evaluate(cols) @ self.Z

    def out_of_range(self, cols):
        return self.base_ev.out_of_range(cols)


def _sum_coding(codes: np.ndarray, levels: tuple[str, ...]):
    """Deviation coding scaled by 0.5: the 2-level case is -0.5/+0.5."""
    L = len(levels)
    cols, names = [], []
    for j in range(L - 1):
        col = 0.5 * ((codes == j).astype(float) - (codes == L - 1).astype(float))
        cols.append(col)
        names.append(levels[j] if L > 2 else "")
    return cols, names


def _treatment_coding(codes: np.ndarray, levels: tuple[str, ...]):
    cols = [(codes == j).astype(float) for j in range(1, len(levels))]
    names = [levels[j] for j in range(1, len(levels))]
    return cols, names


class _ParametricEval(_Unbounded):
    """The coded columns of a parametric term: a factor name coded over the
    fit's levels, a numeric name as it is, and for several names the
    product of one column of each."""

    def __init__(self, names, levels, coding):
        self.names = names
        self.levels = levels              # per name: its levels, None if numeric
        self.coding = _sum_coding if coding == "sum" else _treatment_coding

    def evaluate(self, cols):
        return self.named_columns(cols)[0]

    def named_columns(self, cols):
        """The columns and their coefficient names."""
        parts = []
        for name, col, levels in zip(self.names, cols, self.levels):
            if levels is None:
                parts.append([(name, np.asarray(col, dtype=np.float64))])
                continue
            coded, tags = self.coding(recode_factor(col, levels), levels)
            parts.append([(f"{name}[{t}]" if t else name, c)
                          for t, c in zip(tags, coded)])
        out = parts[0]
        for nxt in parts[1:]:
            out = [(f"{na}:{nb}", ca * cb) for na, ca in out for nb, cb in nxt]
        return np.column_stack([c for _, c in out]), [n for n, _ in out]


def recode_factor(factor: FactorColumn, levels: tuple[str, ...]) -> np.ndarray:
    """Map a FactorColumn's codes into training level codes."""
    if factor.levels == levels:
        return factor.codes
    index = {name: i for i, name in enumerate(levels)}
    try:
        remap = np.array([index[name] for name in factor.levels], dtype=np.int64)
    except KeyError as exc:
        raise DomainError(f"unseen factor level {exc.args[0]!r}") from None
    return remap[factor.codes]


def per_level_rows(codes: np.ndarray, base: np.ndarray,
                   n_levels: int) -> sparse.csr_array:
    """n x (n_levels * p) CSR matrix whose row i is base row i, placed in
    the column block of level codes[i] and zero elsewhere."""
    n, p = base.shape
    indices = (codes[:, None] * p + np.arange(p)).ravel()
    with _stage("per-level sparse design"):
        return sparse.csr_array(
            (np.ascontiguousarray(base, dtype=np.float64).ravel(), indices,
             np.arange(0, n * p + 1, p)), shape=(n, n_levels * p))


def row_kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product: row i is kron(A[i], B[i])."""
    if A.shape[0] != B.shape[0]:
        raise ShapeError(f"row mismatch: {A.shape[0]} vs {B.shape[0]}")
    n = A.shape[0]
    return (A[:, :, None] * B[:, None, :]).reshape(n, A.shape[1] * B.shape[1])


# ---------------------------------------------------------------------------
# univariate bases


def poly_basis(x, degree: int) -> BasisBlock:
    """Orthonormal polynomial basis of the given degree, constant excluded.

    Columns are pairwise orthogonal with unit norm over the training x. The
    model intercept carries the constant, so the block starts at the linear
    term. Unpenalized: the penalty is the zero matrix.
    """
    x = np.asarray(x, dtype=np.float64)
    n_distinct = np.unique(x).size
    if degree < 1:
        raise DomainError("degree must be >= 1")
    if degree >= n_distinct:
        raise RankError(f"degree {degree} needs more than {n_distinct} distinct x values")
    center = 0.5 * (x.max() + x.min())
    halfwidth = max(0.5 * (x.max() - x.min()), np.finfo(float).tiny)
    u = (x - center) / halfwidth
    V = u[:, None] ** np.arange(degree + 1)
    Q, R = np.linalg.qr(V)
    rdiag = np.abs(np.diag(R))
    if np.any(rdiag < 1e-12 * rdiag.max()):
        raise RankError(f"polynomial basis of degree {degree} is rank deficient on this x")
    coef_map = solve(R, np.eye(degree + 1))[:, 1:]
    ev = _PolyEval(center, halfwidth, coef_map, degree)
    X = ev.evaluate([x])
    S = np.zeros((degree, degree))
    return BasisBlock(term_label="poly", X=X, penalties=[Penalty(S, "poly")],
                      evaluator=ev, n_cov=1)


def knots_quantile(x, k: int) -> KnotSet:
    """Knots at the k empirical quantiles of the distinct x values."""
    x = np.asarray(x, dtype=np.float64)
    if k < 3:
        raise DomainError("k must be >= 3")
    distinct = np.unique(x)
    if distinct.size < k:
        raise RankError(f"need >= {k} distinct values, got {distinct.size}")
    locations = np.quantile(distinct, np.linspace(0.0, 1.0, k))
    return KnotSet(locations=locations)


def cr_basis(x, knots: KnotSet) -> BasisBlock:
    """Cardinal natural-cubic-spline basis with the exact curvature penalty.

    Basis function j is the natural cubic spline interpolating 1 at knot j
    and 0 at every other knot, so the coefficients are the curve's values at
    the knots. The penalty S is the exact Gram matrix of the integrated
    squared second derivative: with h the knot gaps, D the second-difference
    map and B the interior Gram of the hat functions for f'', a natural
    interpolant through values y has int f''^2 = y' D' B^-1 D y, giving
    S = D' B^-1 D with null space {constant, linear}.
    """
    x = np.asarray(x, dtype=np.float64)
    loc = knots.locations
    k = loc.size
    h = np.diff(loc)
    D = np.zeros((k - 2, k))
    B = np.zeros((k - 2, k - 2))
    for i in range(k - 2):
        D[i, i] = 1.0 / h[i]
        D[i, i + 1] = -1.0 / h[i] - 1.0 / h[i + 1]
        D[i, i + 2] = 1.0 / h[i + 1]
        B[i, i] = (h[i] + h[i + 1]) / 3.0
        if i + 1 < k - 2:
            B[i, i + 1] = h[i + 1] / 6.0
            B[i + 1, i] = h[i + 1] / 6.0
    F = solve(B, D, assume_a="pos")
    fplus = np.vstack([np.zeros(k), F, np.zeros(k)])
    S = _symmetrize(D.T @ F)
    # Linear-extension weights for evaluation outside the knot range.
    e = np.eye(k)
    d_left = (e[1] - e[0]) / h[0] - (h[0] / 6.0) * (2.0 * fplus[0] + fplus[1])
    d_right = (e[k - 1] - e[k - 2]) / h[-1] + (h[-1] / 6.0) * (fplus[k - 2] + 2.0 * fplus[k - 1])
    ev = _CrEval(loc, fplus, d_left, d_right)
    out = ev.out_of_range([x])
    if out.any():
        bad = int(np.argmax(out))
        raise DomainError(f"x[{bad}]={x[bad]:g} outside knot range [{loc[0]:g}, {loc[-1]:g}]")
    X = ev.evaluate([x])
    return BasisBlock(term_label="cr", X=X, penalties=[Penalty(S, "cr")],
                      evaluator=ev, n_cov=1)


# ---------------------------------------------------------------------------
# thin plate regression splines

_TP_MAX_SITES = 2000
_TP_SUBSAMPLE_SEED = 170


def _as_cov_matrix(cols, d: int) -> np.ndarray:
    if len(cols) == 1:
        arr = np.asarray(cols[0], dtype=np.float64)
        if arr.ndim == 1:
            if d != 1:
                raise ShapeError(f"expected {d} covariates, got 1")
            return arr[:, None]
        return arr
    if len(cols) != d:
        raise ShapeError(f"expected {d} covariates, got {len(cols)}")
    return np.column_stack([np.asarray(c, dtype=np.float64) for c in cols])


def _tp_eta(r: np.ndarray, d: int, m: int) -> np.ndarray:
    """Radial kernel of the thin plate spline for dimension d, order m."""
    if d % 2 == 1:
        const = math.gamma(d / 2.0 - m) / (2.0 ** (2 * m) * math.pi ** (d / 2.0)
                                           * math.factorial(m - 1))
        return const * r ** (2 * m - d)
    const = ((-1.0) ** (m + 1 + d // 2)
             / (2.0 ** (2 * m - 1) * math.pi ** (d / 2.0)
                * math.factorial(m - 1) * math.factorial(m - d // 2)))
    out = np.zeros_like(r)
    pos = r > 0
    out[pos] = const * r[pos] ** (2 * m - d) * np.log(r[pos])
    return out


def _tp_powers(d: int, m: int) -> np.ndarray:
    """Exponents of all monomials of total degree < m, low degree first."""
    if d == 1:
        return np.arange(m)[:, None]
    rows = [(a, t - a) for t in range(m) for a in range(t, -1, -1)]
    return np.array(rows, dtype=np.int64)


def _tp_poly(Xc: np.ndarray, powers: np.ndarray) -> np.ndarray:
    cols = [np.prod(Xc ** p, axis=1) for p in powers]
    return np.column_stack(cols)


def tp_basis(X_cov, k: int, m: int = 2) -> BasisBlock:
    """Thin plate regression spline basis of dimension k.

    Builds the full thin-plate system on the unique covariate sites (radial
    kernel plus polynomial null space of degree < m), keeps the k eigenvectors
    of the kernel matrix largest in absolute eigenvalue, absorbs the M
    polynomial orthogonality constraints, and rotates the remaining k - M
    wiggly directions so the penalty is diagonal with increasing eigenvalues.
    Columns are ordered [null space | wiggly, least to most penalized], which
    makes basis function 1 the flat function and each successive function
    wigglier. For d=2 the covariates are treated as isometric.
    """
    Xc = np.asarray(X_cov, dtype=np.float64)
    if Xc.ndim == 1:
        Xc = Xc[:, None]
    n, d = Xc.shape
    if d not in (1, 2):
        raise DomainError(f"thin plate basis supports d in {{1, 2}}, got {d}")
    if 2 * m <= d:
        raise DomainError(f"need 2m > d, got m={m}, d={d}")
    powers = _tp_powers(d, m)
    M = powers.shape[0]
    if k <= M:
        raise DomainError(f"k={k} must exceed the null-space dimension {M}")
    pts = np.unique(Xc, axis=0)
    if pts.shape[0] < k:
        raise RankError(f"k={k} exceeds the {pts.shape[0]} distinct covariate points")
    if pts.shape[0] > _TP_MAX_SITES:
        rng = np.random.default_rng(_TP_SUBSAMPLE_SEED)
        keep = rng.choice(pts.shape[0], size=_TP_MAX_SITES, replace=False)
        pts = pts[np.sort(keep)]

    E = _tp_eta(cdist(pts, pts), d, m)
    with _stage("thin plate kernel eigendecomposition"):
        w, U = eigh(_symmetrize(E))
    order = np.argsort(-np.abs(w), kind="stable")[:k]
    w_k = w[order]
    U_k = U[:, order]
    T_pts = _tp_poly(pts, powers)
    C = T_pts.T @ U_k                                   # M x k constraint
    with _stage("thin plate constraint QR"):
        Qc, _ = qr(C.T, mode="full")
    Z = Qc[:, M:]                                       # k x (k - M)
    P = _symmetrize(Z.T @ (w_k[:, None] * Z))
    with _stage("thin plate penalty eigendecomposition"):
        lam, V = eigh(P)
    if lam.size and lam[0] < -_PSD_RTOL * max(lam[-1], 1.0):
        raise NumericError(f"thin plate penalty not PSD (min eig {lam[0]:.3e})")
    lam = np.clip(lam, 0.0, None)
    loadings = U_k @ (Z @ V)
    ev = _TpEval(pts, d, m, loadings, powers, np.stack([Xc.min(0), Xc.max(0)]))
    X = ev.evaluate([Xc])
    p = k
    S = np.zeros((p, p))
    S[M:, M:] = np.diag(lam)
    return BasisBlock(term_label="tp", X=X, penalties=[Penalty(S, "tp")],
                      evaluator=ev, n_cov=1 if d == 1 else 2)


# ---------------------------------------------------------------------------
# compound constructions


def tensor_product(block_a: BasisBlock, block_b: BasisBlock,
                   interaction_only: bool = False) -> BasisBlock:
    """Tensor product smooth from two marginal blocks.

    X is the row-wise Kronecker product; the two penalties are S_A (x) I and
    I (x) S_B, one smoothing parameter per margin. With interaction_only the
    sum-to-zero constraint is absorbed into each margin first, which removes
    the marginal main-effect directions and leaves a pure interaction.
    """
    if block_a.n_rows != block_b.n_rows:
        raise ShapeError(f"marginal blocks disagree on rows: "
                         f"{block_a.n_rows} vs {block_b.n_rows}")
    for blk in (block_a, block_b):
        if len(blk.penalties) != 1:
            raise DomainError("tensor margins must be single-penalty blocks")
    if interaction_only:
        if block_a.constraint is None:
            block_a = absorb_constraints(block_a)
        if block_b.constraint is None:
            block_b = absorb_constraints(block_b)
    pa, pb = block_a.p_term, block_b.p_term
    Sa = block_a.penalties[0].S
    Sb = block_b.penalties[0].S
    ev = _TensorEval(block_a.evaluator, block_b.evaluator, block_a.n_cov)
    X = row_kron(block_a.X, block_b.X)
    S1 = np.kron(Sa, np.eye(pb))
    S2 = np.kron(np.eye(pa), Sb)
    label = "ti" if interaction_only else "te"
    constraint = ({"type": "marginal_sum_to_zero"} if interaction_only else None)
    return BasisBlock(term_label=label, X=X,
                      penalties=[Penalty(S1, f"{label}:margin1"),
                                 Penalty(S2, f"{label}:margin2")],
                      evaluator=ev, n_cov=block_a.n_cov + block_b.n_cov,
                      constraint=constraint)


def _per_level_layout(block: BasisBlock, factor: FactorColumn, what: str):
    if len(factor) != block.n_rows:
        raise ShapeError("factor not aligned with block rows")
    L = factor.n_levels
    p = block.p_term
    base_null = p - rank_psd(sum(pen.S for pen in block.penalties))
    counts = np.bincount(factor.codes, minlength=L)
    for lev in range(L):
        if counts[lev] < max(base_null, 1):
            raise DomainError(
                f"{what}: level {factor.levels[lev]!r} has {counts[lev]} rows, "
                f"fewer than the basis null dimension {base_null}")
    ev = _PerLevelEval(block.evaluator, factor.levels)
    return L, p, ev


def apply_by_factor(block: BasisBlock, factor: FactorColumn) -> BasisBlock:
    """Replicate a smooth once per factor level, its penalties per level.

    Level blocks are zero off-level; each level gets its own smoothing
    parameters, so different wiggly curves can be fitted to each level.
    Every penalty of the base, one array each, repeats on each level's
    block: by:<level> for a one-penalty base, by:<level>:<label> otherwise.
    """
    L, p, ev = _per_level_layout(block, factor, "by-factor smooth")
    # The evaluator builds the same matrix from the same base rows.
    X = per_level_rows(factor.codes, block.X, L)
    one = len(block.penalties) == 1
    penalties = [Penalty(S, f"by:{name}" if one else f"by:{name}:{label}",
                         range(lev, lev + 1))
                 for lev, name in enumerate(factor.levels)
                 for S, label, _ in block.penalties]
    return BasisBlock(term_label=f"{block.term_label}:by", X=X, penalties=penalties,
                      evaluator=ev, n_cov=block.n_cov + 1,
                      constraint=block.constraint)


def factor_smooth(block: BasisBlock, factor: FactorColumn) -> BasisBlock:
    """Per-level smooths with two shared penalties, acting as random effects.

    Penalty 1 repeats the base wiggliness penalty on every level with a
    single shared smoothing parameter. Penalty 2 is a ridge on every
    null-space direction (per-level constants and linears), absorbing by-level
    intercepts. Their null spaces are complementary, so S1 + S2 is positive
    definite and the whole term is penalized: with no wiggliness it collapses
    to shrunken random intercepts.
    """
    if len(block.penalties) != 1:
        raise DomainError("factor smooths need a single-penalty base block")
    if block.n_cov != 1:
        raise DomainError("factor smooths take a univariate base smooth")
    L, _, ev = _per_level_layout(block, factor, "factor smooth")
    S = block.penalties[0].S
    with _stage("factor smooth null space eigendecomposition"):
        w, V = eigh(_symmetrize(S))
    null_cols = V[:, w <= 1e-9 * w[-1]]
    N = null_cols @ null_cols.T                      # projector onto null(S)
    X = per_level_rows(factor.codes, block.X, L)
    return BasisBlock(term_label="fs", X=X,
                      penalties=[Penalty(S, "fs:wiggle", range(L)),
                                 Penalty(N, "fs:null", range(L))],
                      evaluator=ev, n_cov=block.n_cov + 1)


def random_effect(factor: FactorColumn, covariate=None) -> BasisBlock:
    """Indicator design with a ridge penalty: random intercepts or slopes."""
    if factor.n_levels < 2:
        raise DomainError("random effects need a factor with >= 2 levels")
    ev = _RandomEffectEval(factor.levels, covariate is not None)
    cols = [factor] if covariate is None else [factor, np.asarray(covariate, float)]
    X = ev.evaluate(cols)
    return BasisBlock(term_label="re", X=X,
                      penalties=[Penalty(np.eye(1), "re", range(factor.n_levels))],
                      evaluator=ev, n_cov=1 if covariate is None else 2)


def absorb_constraints(block: BasisBlock) -> BasisBlock:
    """Absorb the sum-to-zero identifiability constraint sum_i f(x_i) = 0.

    Reparameterizes onto the null space of the row-sum functional, dropping
    one column; penalties transform congruently. Partial effects of the
    constrained term are centered over the training rows, which pins the SE
    band to zero wherever the centered effect crosses zero.
    """
    if block.constraint is not None:
        raise DomainError(f"term {block.term_label!r} is already constrained")
    c = block.X.sum(axis=0)
    scale = np.linalg.norm(c)
    if scale < 1e-10 * max(1.0, np.abs(block.X).max()) * block.n_rows ** 0.5:
        raise NumericError(f"term {block.term_label!r}: column sums are already zero; "
                           "sum-to-zero reparameterization is degenerate")
    with _stage("sum-to-zero constraint QR"):
        Qc, _ = qr(c[:, None] / scale, mode="full")
    Z = Qc[:, 1:]
    ev = _ConstrainedEval(block.evaluator, Z)
    Xc = block.X @ Z
    penalties = [Penalty(_symmetrize(Z.T @ S @ Z), label)
                 for S, label, _ in block.penalties]
    return BasisBlock(term_label=block.term_label, X=Xc, penalties=penalties,
                      evaluator=ev, n_cov=block.n_cov,
                      constraint={"type": "sum_to_zero"})


def _natural_reparam(block: BasisBlock) -> BasisBlock:
    """Rotate a single-penalty smooth into its natural parameterization.

    Chooses T with (X T)'(X T) = I and T'S T diagonal (the Demmler-Reinsch
    basis), so each coefficient's edf is literally a shrinkage factor
    d_i/(d_i + lambda) in [0, 1]: in raw basis coordinates the diagonal of
    the edf matrix is not so bounded. Eigenvalues below 1e-12 of the largest
    clamp to exact zero, keeping the penalty null space unpenalized even at
    extreme lambdas. Skipped (unchanged block) if X'X is not numerically
    positive definite.
    """
    S, label, _ = block.penalties[0]
    if rank_psd(S) == 0:
        return block
    A = block.X.T @ block.X
    if sparse.issparse(A):                 # a one-level by-factor smooth
        A = A.toarray()
    try:
        R = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return block
    r_inv = solve_triangular(R, np.eye(A.shape[0]), lower=True)
    try:
        w, U = np.linalg.eigh(r_inv @ S @ r_inv.T)
    except np.linalg.LinAlgError:
        raise NumericError("natural reparameterization eigendecomposition "
                           "did not converge") from None
    w = np.where(w < 1e-12 * max(w[-1], 0.0), 0.0, w)
    T = r_inv.T @ U
    # Nesting (rather than folding T into the constraint map) keeps the
    # stored design bit-identical to what the evaluator returns at the
    # training covariates: both compute (evaluated X) @ T, dense result.
    return replace(block, X=block.X @ T, penalties=[Penalty(np.diag(w), label)],
                   evaluator=_ConstrainedEval(block.evaluator, T))


# ---------------------------------------------------------------------------
# model-spec terms


def _term_k(term: SmoothTermSpec, margins: int = 1):
    if term.k is None:
        return (DEFAULT_K["fs" if term.fs_group is not None
                           else term.basis_kind],) * margins
    ks = (term.k,) if isinstance(term.k, int) else tuple(term.k)
    return ks * margins if len(ks) == 1 else ks


def _base_block(kind: str, x: np.ndarray, k: int, m: int | None) -> BasisBlock:
    if kind == "poly":
        return poly_basis(x, degree=k)
    if kind == "cr":
        return cr_basis(x, knots_quantile(x, k))
    return tp_basis(x, k=k, m=2 if m is None else m)


def _spec_block(term: SmoothTermSpec, table: DataTable) -> BasisBlock:
    kind, covs = term.basis_kind, term.covariates
    if term.is_random_effect:
        cov = table.numeric(covs[1]) if len(covs) > 1 else None
        return random_effect(table.factor(covs[0]), cov)
    if kind in ("tensor", "ti"):
        margins = [_base_block("cr", table.numeric(c), k, term.m)
                   for c, k in zip(covs, _term_k(term, margins=2))]
        block = tensor_product(*margins, interaction_only=(kind == "ti"))
    else:
        x = (table.numeric(covs[0]) if len(covs) == 1
             else np.column_stack([table.numeric(c) for c in covs]))
        block = _base_block(kind, x, *_term_k(term), term.m)
    if term.fs_group is not None:
        return factor_smooth(block, table.factor(term.fs_group))
    if kind not in ("poly", "ti"):
        block = absorb_constraints(block)
    if term.by is not None:
        block = apply_by_factor(block, table.factor(term.by))
    if len(block.penalties) == 1:
        block = _natural_reparam(block)
    return block


def _parametric_block(term: ParametricTerm, table: DataTable) -> BasisBlock:
    levels = []
    for name in term.names:
        col = table.columns.get(name)
        if col is None:
            raise SchemaError(f"no column named {name!r}")
        if isinstance(col, FactorColumn) and col.n_levels < 2:
            raise DomainError(f"factor {name!r} needs >= 2 levels")
        levels.append(col.levels if isinstance(col, FactorColumn) else None)
    ev = _ParametricEval(term.names, levels, term.coding)
    X, names = ev.named_columns([table.columns[name] for name in term.names])
    return BasisBlock(term_label=term.label, X=X, penalties=[], evaluator=ev,
                      n_cov=len(term.names), coef_names=names)


def term_block(term: SmoothTermSpec | ParametricTerm,
               table: DataTable) -> BasisBlock:
    """The finished block of one term of a model spec on table; its
    evaluator reads the columns term.columns names, in that order, and
    coef_names names its columns (label[j] for a smooth's j-th).

    A parametric term is its coded columns, unpenalized: sum coding scaled
    by 0.5 or treatment coding for a factor, the column itself for a
    number, products for an interaction. Every smooth but poly and ti
    carries the sum-to-zero constraint (ti carries it on each margin), and
    a one-penalty smooth is rotated into its natural parameterization. A
    GammkitError while building the block is raised again with its class
    and the term's label ahead of its message; a LinAlgError is a
    NumericError naming the term.
    """
    try:
        with _stage("basis construction"):
            if isinstance(term, ParametricTerm):
                return _parametric_block(term, table)
            block = _spec_block(term, table)
    except GammkitError as exc:
        raise type(exc)(f"term {term.label!r}: {exc}") from None
    block.coef_names = [f"{term.label}[{j}]" for j in range(block.p_term)]
    return block
