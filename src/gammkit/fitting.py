"""Design assembly, AR(1) whitening, penalized least squares, REML.

The fitting pipeline is assemble -> whiten -> select lambdas -> solve. The
design keeps the columns of dense blocks (intercept, parametric terms,
ordinary smooths) as one dense array and the per-level columns of random
effects, factor smooths and by-factor smooths as one sparse matrix, which
stores only each row's own level; no dense n x p array is formed. Past
whitening the n rows enter only through the products of the two parts, X'y
and y'y, formed once per design (AssembledDesign.ensure_products); X'X is
never formed p x p. Penalties keep the per-level form: a PenaltyEntry is a
k x k base and the level blocks it repeats on. Once per term, on the base,
_term_penalties computes one congruence T per penalty group that makes
every penalty of the group diagonal (Wood 2011, JRSSB 73(1), section 3.1),
so assembly too is linear in the number of levels. Each REML score, its
derivatives and the final solve (pls_solve) work on X'X + S_lambda in those
coordinates and in block-arrow form: one per-level term's L level blocks of
k columns, which neither X'X nor the penalties couple, and a border of the
other nb columns, with every penalty a diagonal on both. So each costs
O(L k (k + nb)^2 + nb^3), linear in the number of levels; the solve's
p x p covariance takes O(p^2 nb) more. The REML criterion is the negative
log of the Gaussian restricted marginal likelihood with the scale profiled
out:

    score = (n - M)/2 * (log(2*pi*phi) + 1)
            - log|S_lambda|_+ / 2 + log|X'X + S_lambda| / 2,
    phi   = (RSS + beta' S_lambda beta) / (n - M),

where S_lambda = sum_j lambda_j S_j, |.|_+ is the pseudo-determinant over
the penalty range space, and M = p - rank(sum_j S_j) counts all unpenalized
directions (parametric coefficients and penalty null spaces), which are
integrated out with flat priors. Lower is better; only differences between
scores are meaningful. optimize_lambdas minimizes it over log lambda by
Newton steps on its exact gradient and Hessian (Wood 2011, JRSSB 73(1)),
from three starts run in lockstep, then probes the lambda bounds from the
best point; reml_score factors each round's points as one stack.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.linalg import block_diag, lapack, solve_triangular

from . import basis as basis_mod
from .basis import BasisBlock, SmoothTermSpec, rank_psd
from .data import DataTable, FactorColumn
from .errors import (DomainError, GammkitError, NumericError, RankError,
                     SchemaError, ShapeError)

LOG_LAMBDA_MIN = math.log(1e-10)
LOG_LAMBDA_MAX = math.log(1e12)
RIDGE_OF_LAST_RESORT = 1e-10
_SPECTRUM_RTOL = 1e-9
_GRAM_RTOL = 1e-13
MAX_NEWTON_STEP = 5.0          # per coordinate, in log lambda
GRAD_TOL = 1e-6                # stop at this largest |projected gradient|
_SCORE_RTOL = 1e-12            # relative rounding of a REML score
_EIG_FLOOR = 1e-7
_NEWTON_MAX_ITER = 100
_TAIL_RTOL = 0.1              # a Newton step this close to 1 is a tail

DEFAULT_K = {"poly": 9, "cr": 10, "tp": 10, "tensor": 5, "ti": 5, "fs": 5}


@dataclass(frozen=True)
class ParametricTerm:
    """A coded parametric term: one name, or several joined as a product."""

    names: tuple[str, ...]
    coding: str = "sum"

    def __post_init__(self):
        if isinstance(self.names, str):
            object.__setattr__(self, "names", (self.names,))
        else:
            object.__setattr__(self, "names", tuple(self.names))
        if self.coding not in ("sum", "treatment"):
            raise DomainError(f"unknown coding {self.coding!r}")

    @property
    def label(self) -> str:
        return ":".join(self.names)


@dataclass(frozen=True)
class ModelSpec:
    """Declarative model: response, parametric terms, smooths, AR(1) rho."""

    response: str
    parametric_terms: tuple = ()
    smooth_terms: tuple = ()
    rho: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "parametric_terms", tuple(self.parametric_terms))
        object.__setattr__(self, "smooth_terms", tuple(self.smooth_terms))
        if not (0.0 <= self.rho < 1.0):
            raise DomainError(f"rho must lie in [0, 1), got {self.rho}")
        labels = [t.label for t in self.parametric_terms] + \
                 [t.label for t in self.smooth_terms]
        if len(labels) != len(set(labels)):
            raise SchemaError("duplicate term labels in model spec")

    def signature(self) -> str:
        par = ";".join(f"{t.label}|{t.coding}" for t in self.parametric_terms)
        smo = ";".join(f"{t.label}|{t.basis_kind}|{t.k}|{t.m}" for t in self.smooth_terms)
        return f"{self.response}~{par}~{smo}~rho={self.rho}"


@dataclass
class PenaltyEntry:
    """One penalty of a term: its k x k base repeated on the level blocks
    levels of the term's p_block columns, which start at offset. T, the
    congruence of the term's penalty group (_term_penalties), makes the
    base diagonal, T' base T = diag(d) with d >= 0 thresholded once; every
    penalty of the group shares T. The fit path reads only T and d; S and
    sqrt build the dense forms on demand, sqrt' sqrt = S with d as
    thresholded.
    """

    label: str
    term_label: str
    base: np.ndarray           # k x k
    T: np.ndarray              # k x k, shared by the group
    d: np.ndarray              # k: diag(T' base T)
    offset: int
    levels: range
    p_block: int

    @property
    def rank(self) -> int:
        return len(self.levels) * int(np.count_nonzero(self.d))

    @property
    def cols(self) -> slice:           # its level blocks' columns in p_block
        k = self.base.shape[0]
        return slice(self.levels.start * k, self.levels.stop * k)

    @property
    def S(self) -> np.ndarray:         # p_block x p_block
        S = np.zeros((self.p_block, self.p_block))
        S[self.cols, self.cols] = np.kron(np.eye(len(self.levels)), self.base)
        return S

    @property
    def sqrt(self) -> np.ndarray:      # rank x p_block
        pos = self.d > 0
        root = np.sqrt(self.d[pos])[:, None] * np.linalg.inv(self.T)[pos]
        out = np.zeros((self.rank, self.p_block))
        out[:, self.cols] = np.kron(np.eye(len(self.levels)), root)
        return out


@dataclass
class AssembledDesign:
    """Stacked design for one model on one (sorted) table.

    The n x p design X is held in two parts: X_dense, the columns dense_cols
    (those of dense blocks) as one dense array, and X_sparse, every other
    column in order (the per-level columns) as one CSR matrix. The fit path
    reads only the parts; X stacks them into one sparse matrix on first use.
    """

    y: np.ndarray
    X_dense: np.ndarray
    X_sparse: sparse.csr_array
    dense_cols: np.ndarray
    col_ranges: dict
    penalties: list
    logpdet_const: float       # log|S_lambda|_+ = const + sum log(weights @ lambda)
    logpdet_weights: np.ndarray
    m_null_total: int
    blocks: dict
    term_covariates: dict
    parametric: list
    coef_names: list
    spec: ModelSpec
    table: DataTable
    series_codes: np.ndarray | None
    order_values: np.ndarray | None
    _products: tuple | None = field(default=None, repr=False)
    _arrow: _ArrowLayout | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.X_dense.shape[0]

    @property
    def p(self) -> int:
        return self.X_dense.shape[1] + self.X_sparse.shape[1]

    @cached_property
    def sparse_cols(self) -> np.ndarray:
        """Columns of X held in X_sparse, in order."""
        keep = np.ones(self.p, dtype=bool)
        keep[self.dense_cols] = False
        return np.flatnonzero(keep)

    @cached_property
    def X(self) -> sparse.csr_array:
        """The whole n x p design as one sparse matrix."""
        return sparse.hstack([sparse.csr_array(self.X_dense), self.X_sparse],
                             format="csc")[:, self.part_order].tocsr()

    @cached_property
    def part_order(self) -> np.ndarray:
        """X = [X_dense | X_sparse][:, part_order]."""
        return np.argsort(np.concatenate([self.dense_cols, self.sparse_cols]))

    def dot(self, beta: np.ndarray) -> np.ndarray:
        """X @ beta from the two parts."""
        return self.X_dense @ beta[self.dense_cols] + \
            self.X_sparse @ beta[self.sparse_cols]

    def ensure_products(self):
        """The Gram's parts (H'H, T'H, T'T, X'y, y'y), H = X_dense and T =
        X_sparse, formed once: T'H and T'T by sparse products, T'T kept
        sparse (COO), X'y in X's column order. X'X itself is never formed;
        _arrow_layout gathers its blocks from these parts."""
        if self._products is None:
            H, T, y = self.X_dense, self.X_sparse, self.y
            Tt = T.T.tocsr()
            xty = np.concatenate([H.T @ y, Tt @ y])[self.part_order]
            self._products = (H.T @ H, Tt @ H, (Tt @ T).tocoo(), xty,
                              float(y @ y))
        return self._products

    def arrow(self) -> _ArrowLayout:
        """X'X, X'y, y'y and the penalties in block-arrow form, built once
        per design and penalty list (_arrow_layout)."""
        if self._arrow is None or self._arrow.penalties is not self.penalties:
            self._arrow = _arrow_layout(self)
        return self._arrow

    def column_range(self, term: str) -> tuple[int, int]:
        try:
            return self.col_ranges[term]
        except KeyError:
            raise SchemaError(f"no term named {term!r}; have "
                              f"{sorted(self.col_ranges)}") from None

    @property
    def n_parametric_cols(self) -> int:
        stop = 1
        for t in self.spec.parametric_terms:
            stop = max(stop, self.col_ranges[t.label][1])
        return stop


# ---------------------------------------------------------------------------
# assembly


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


@dataclass(frozen=True)
class _ParametricBuilt:
    label: str
    names: tuple[str, ...]
    coding: str
    roles: tuple            # per name: ("factor", levels) | ("numeric",)

    def build(self, table: DataTable):
        """Column set and coefficient names; products for interactions."""
        parts = []
        for name, role in zip(self.names, self.roles):
            if role[0] == "factor":
                levels = role[1]
                fac = table.factor(name)
                codes = basis_mod.recode_factor(fac, levels)
                if self.coding == "sum":
                    cols, tags = _sum_coding(codes, levels)
                else:
                    cols, tags = _treatment_coding(codes, levels)
                named = [(f"{name}[{t}]" if t else name, c) for t, c in zip(tags, cols)]
            else:
                named = [(name, np.asarray(table.numeric(name), dtype=np.float64))]
            parts.append(named)
        out = parts[0]
        for nxt in parts[1:]:
            out = [(f"{na}:{nb}", ca * cb) for na, ca in out for nb, cb in nxt]
        names = [n for n, _ in out]
        return np.column_stack([c for _, c in out]), names


def _build_parametric(term: ParametricTerm, table: DataTable) -> _ParametricBuilt:
    roles = []
    for name in term.names:
        col = table.columns.get(name)
        if col is None:
            raise SchemaError(f"parametric term references missing column {name!r}")
        if isinstance(col, FactorColumn):
            if col.n_levels < 2:
                raise DomainError(f"factor {name!r} needs >= 2 levels")
            roles.append(("factor", col.levels))
        else:
            roles.append(("numeric",))
    return _ParametricBuilt(term.label, term.names, term.coding, tuple(roles))


def _term_k(term: SmoothTermSpec, margins: int = 1):
    if term.k is None:
        if term.fs_group is not None:
            base = DEFAULT_K["fs"]
        else:
            base = DEFAULT_K.get(term.basis_kind, 10)
        return (base,) * margins
    if isinstance(term.k, int):
        return (term.k,) * margins
    ks = tuple(term.k)
    if len(ks) == 1:
        return ks * margins
    if len(ks) != margins:
        raise DomainError(f"term {term.label!r}: got {len(ks)} k values "
                          f"for {margins} margins")
    return ks


def _univariate_base(kind: str, x: np.ndarray, k: int, m: int) -> BasisBlock:
    if kind == "poly":
        return basis_mod.poly_basis(x, degree=k)
    if kind == "cr":
        return basis_mod.cr_basis(x, basis_mod.knots_quantile(x, k))
    if kind == "tp":
        return basis_mod.tp_basis(x, k=k, m=m)
    raise DomainError(f"unknown univariate basis kind {kind!r}")


def _build_smooth(term: SmoothTermSpec, table: DataTable) -> tuple[BasisBlock, tuple]:
    """Returns the finished block and the evaluator's input column names."""
    if term.is_random_effect:
        fac = table.factor(term.covariates[0])
        cov = table.numeric(term.covariates[1]) if len(term.covariates) > 1 else None
        block = basis_mod.random_effect(fac, cov)
        return block, term.covariates

    if term.fs_group is not None:
        x = table.numeric(term.covariates[0])
        (k,) = _term_k(term)
        kind = term.basis_kind if term.basis_kind in ("cr", "tp") else "cr"
        base = _univariate_base(kind, x, k, term.m)
        fac = table.factor(term.fs_group)
        block = basis_mod.factor_smooth(base, fac)
        return block, term.covariates + (term.fs_group,)

    if term.basis_kind in ("tensor", "ti"):
        if len(term.covariates) != 2:
            raise DomainError("tensor-product smooths take exactly 2 covariates")
        ks = _term_k(term, margins=2)
        margins = [basis_mod.cr_basis(table.numeric(c), basis_mod.knots_quantile(
            table.numeric(c), k)) for c, k in zip(term.covariates, ks)]
        block = basis_mod.tensor_product(margins[0], margins[1],
                                         interaction_only=(term.basis_kind == "ti"))
        if term.basis_kind == "tensor":
            block = basis_mod.absorb_constraints(block)
        cov_names = term.covariates
    else:
        if term.basis_kind == "tp" and len(term.covariates) == 2:
            xcov = np.column_stack([table.numeric(c) for c in term.covariates])
            (k,) = _term_k(term)
            block = basis_mod.tp_basis(xcov, k=k, m=term.m)
        elif len(term.covariates) == 1:
            (k,) = _term_k(term)
            block = _univariate_base(term.basis_kind, table.numeric(term.covariates[0]),
                                     k, term.m)
        else:
            raise DomainError(f"term {term.label!r}: unsupported covariate count")
        if term.basis_kind != "poly":
            block = basis_mod.absorb_constraints(block)
        cov_names = term.covariates

    if term.by is not None:
        fac = table.factor(term.by)
        block = basis_mod.apply_by_factor(block, fac)
        cov_names = cov_names + (term.by,)
    return block, cov_names


def _natural_reparam(block: BasisBlock, term: str) -> BasisBlock:
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
        raise NumericError(f"term {term!r}: natural reparameterization "
                           "eigendecomposition did not converge") from None
    w = np.where(w < 1e-12 * max(w[-1], 0.0), 0.0, w)
    T = r_inv.T @ U
    # Nesting (rather than folding T into the constraint map) keeps the
    # stored design bit-identical to what the evaluator returns at the
    # training covariates: both compute (evaluated X) @ T, dense result.
    ev = basis_mod._ConstrainedEval(block.evaluator, T)
    Xn = block.X @ T
    return BasisBlock(term_label=block.term_label, X=Xn,
                      penalties=[basis_mod.Penalty(np.diag(w), label)],
                      evaluator=ev,
                      kind=block.kind, n_cov=block.n_cov,
                      constraint=block.constraint,
                      sub_terms=block.sub_terms)


def _term_penalties(term: str, offset: int, penalties: list):
    """Entries and closed-form log pseudo-determinant of one term's penalties.

    The penalties (basis.Penalty) on the same levels, one or two, form a
    group: one per by-factor level, one for any other term. A group's k x k
    bases S_j, each divided by its max-abs entry s_j so that the threshold
    below does not depend on covariate units, give one congruence T, shared
    by groups on the same bases (the by-factor levels), in which every base
    of the group is diagonal (Wood 2011, JRSSB 73(1), section 3.1):

    - eigh(sum_j S_j / s_j) = U diag(w) U', keeping the r
      directions with w > 1e-9 * max(w) as the range U_r, the rest U_0;
    - whitened, C_j = G' S_j G / s_j with G = U_r diag(w_r)^(-1/2) sum to I,
      so they commute and share the eigenvectors V of C_1 (V = I for one
      penalty); m_ij = (V' C_j V)_ii, zeroed at or below 1e-9 * max_i m_ij;
    - T = [G V | U_0], so T' S_j T = diag(d_j) with d_j = s_j m_.j on the
      range and 0 on U_0, and 2 log|det T| = -sum log w_r.

    Then, exactly, with W_ij = s_j m_ij repeated on each of a group's levels,

        log|sum_j lambda_j S_j|_+ = sum log w_r + sum_i log(sum_j W_ij lambda_j),

    and rank(S_j) counts the nonzero W_ij. Returns (entries, sum log w_r,
    W); all-zero penalties get no entry.
    """
    penalties = [pen for pen in penalties if np.any(pen.S)]
    if not penalties:
        return [], 0.0, np.zeros((0, 0))
    p_block = penalties[0].S.shape[0] * max(pen.levels.stop for pen in penalties)
    groups, spectra, entries, const, weights = {}, {}, {}, 0.0, []
    for j, pen in enumerate(penalties):
        groups.setdefault(pen.levels, []).append(j)
    for levels, group in groups.items():
        key = tuple(id(penalties[j].S) for j in group)
        if key not in spectra:
            spectra[key] = _base_spectrum(term, [penalties[j].S for j in group])
        T, logw, W = spectra[key]
        d = np.zeros((T.shape[0], len(group)))
        d[:W.shape[0]] = W
        for j, d_j in zip(group, d.T):
            S, lbl, _ = penalties[j]
            entries[j] = PenaltyEntry(f"{term}/{lbl}", term, S, T, d_j,
                                      offset, levels, p_block)
        rows = np.zeros((len(levels) * W.shape[0], len(penalties)))
        rows[:, group] = np.tile(W, (len(levels), 1))
        weights.append(rows)
        const += len(levels) * logw
    return [entries[j] for j in sorted(entries)], const, np.vstack(weights)


def _base_spectrum(term: str, bases: list):
    """T = [G V | U_0], sum log w_r and W of one group's bases
    (_term_penalties)."""
    scales = np.array([np.abs(S).max() for S in bases])
    try:
        w, U = np.linalg.eigh(sum(S / s for S, s in zip(bases, scales)))
        keep = w > _SPECTRUM_RTOL * w[-1]
        G = U[:, keep] / np.sqrt(w[keep])
        m = np.ones((G.shape[1], 1))           # one penalty: C_1 = I
        if len(bases) == 2:
            C = [G.T @ S @ G / s for S, s in zip(bases, scales)]
            _, V = np.linalg.eigh(C[0])
            G = G @ V
            m = np.column_stack([np.einsum("ij,ji->i", V.T @ Cj, V) for Cj in C])
    except np.linalg.LinAlgError:
        raise NumericError(f"term {term!r}: penalty eigendecomposition "
                           "did not converge") from None
    m = np.where(m > _SPECTRUM_RTOL * m.max(axis=0), m, 0.0)
    return np.hstack([G, U[:, ~keep]]), float(np.sum(np.log(w[keep]))), \
        m * scales


def assemble(spec: ModelSpec, table: DataTable) -> AssembledDesign:
    """Build the stacked design: intercept + coded parametric + smooth blocks.

    Rows are sorted by (series, order) when the table declares a series key,
    so AR(1) whitening and residual diagnostics see contiguous series runs.
    Dense blocks stack into X_dense, whose columns dense_cols records; the
    sparse per-level blocks stack into X_sparse. Both must be all finite. A
    NumericError or LinAlgError while building a term's basis is raised as
    a NumericError naming the term.
    """
    if spec.response not in table.columns:
        raise SchemaError(f"response column {spec.response!r} not in table")
    if table.series_key is not None:
        series = table.factor(table.series_key)
        order = table.numeric(table.order_key)
        idx = np.lexsort((order, series.codes))
        table = table.take(idx)
    y = np.asarray(table.numeric(spec.response), dtype=np.float64).copy()

    dense_parts, sparse_parts = [np.ones((table.n_rows, 1))], []
    dense_cols = [np.arange(1)]
    coef_names = ["(Intercept)"]
    col_ranges = {"(Intercept)": (0, 1)}
    cursor = 1
    parametric = []
    for term in spec.parametric_terms:
        built = _build_parametric(term, table)
        cols, names = built.build(table)
        dense_parts.append(cols)
        dense_cols.append(np.arange(cursor, cursor + cols.shape[1]))
        coef_names.extend(names)
        col_ranges[term.label] = (cursor, cursor + cols.shape[1])
        cursor += cols.shape[1]
        parametric.append(built)

    blocks: dict[str, BasisBlock] = {}
    term_covariates: dict[str, tuple] = {}
    entries: list[PenaltyEntry] = []
    logpdet_const = 0.0
    weight_blocks = []
    for term in spec.smooth_terms:
        label = term.label
        try:
            block, cov_names = _build_smooth(term, table)
        except NumericError as exc:
            raise NumericError(f"term {label!r}: {exc}") from None
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"term {label!r}: basis construction failed: "
                               f"{exc}") from None
        if block.kind == "smooth" and len(block.penalties) == 1:
            block = _natural_reparam(block, label)
        if label in col_ranges:
            raise SchemaError(f"term label collision: {label!r}")
        block.term_label = label
        if block.sub_terms is not None:
            block.sub_terms = [(f"{label.split(':')[0]}:{lev}", a, b)
                               for lev, a, b in block.sub_terms]
        blocks[label] = block
        term_covariates[label] = cov_names
        if sparse.issparse(block.X):
            sparse_parts.append(block.X)
        else:
            dense_parts.append(block.X)
            dense_cols.append(np.arange(cursor, cursor + block.p_term))
        coef_names.extend(f"{label}[{j}]" for j in range(block.p_term))
        col_ranges[label] = (cursor, cursor + block.p_term)
        term_entries, const, weights = _term_penalties(label, cursor,
                                                       block.penalties)
        entries.extend(term_entries)
        logpdet_const += const
        weight_blocks.append(weights)
        cursor += block.p_term

    X_dense = np.hstack(dense_parts)
    if len(sparse_parts) == 1:
        X_sparse = sparse_parts[0]
    else:               # no per-level term, or several side by side
        X_sparse = sparse.hstack(
            sparse_parts or [sparse.csr_array((table.n_rows, 0))], format="csr")
    if not (np.all(np.isfinite(X_dense)) and np.all(np.isfinite(X_sparse.data))):
        raise NumericError("assembled design contains non-finite entries")
    weights = block_diag(*weight_blocks) if weight_blocks else np.zeros((0, 0))
    m_null = cursor - weights.shape[0]
    series_codes = order_values = None
    if table.series_key is not None:
        series_codes = table.factor(table.series_key).codes
        order_values = table.numeric(table.order_key)
    return AssembledDesign(y=y, X_dense=X_dense, X_sparse=X_sparse,
                           dense_cols=np.concatenate(dense_cols),
                           col_ranges=col_ranges, penalties=entries,
                           logpdet_const=logpdet_const,
                           logpdet_weights=weights, m_null_total=m_null,
                           blocks=blocks,
                           term_covariates=term_covariates, parametric=parametric,
                           coef_names=coef_names, spec=spec, table=table,
                           series_codes=series_codes, order_values=order_values)


# ---------------------------------------------------------------------------
# whitening


def ar1_whiten(design: AssembledDesign, rho: float) -> AssembledDesign:
    """Whiten y and X for AR(1) errors with the given rho.

    Within each series of design.series_codes (one series when the table
    declares none), row t becomes row_t - rho*row_{t-1} and the first row
    is scaled by sqrt(1 - rho^2): left-multiplication by the inverse Cholesky
    factor of the AR(1) correlation matrix, a sparse bidiagonal D applied to
    y, X_dense and X_sparse (whose rows may then span two levels). Each
    output entry sums at most two products with 1, -rho or the scale, so it
    equals the formula above to the last bit. Penalties are unchanged.
    """
    if not (0.0 <= rho < 1.0):
        raise DomainError(f"rho must lie in [0, 1), got {rho}")
    series = design.series_codes
    if series is None:
        series = np.zeros(design.n, dtype=np.int64)
    starts = np.ones(design.n, dtype=bool)
    starts[1:] = series[1:] != series[:-1]
    if design.order_values is not None:
        order = design.order_values
        inside = ~starts
        if np.any(order[inside] <= order[np.flatnonzero(inside) - 1]):
            raise DomainError("rows are not sorted by order within series")
    # Row t of D: -rho at t - 1 and 1 at t, or sqrt(1 - rho^2) at t alone
    # where a series starts.
    indptr = np.zeros(design.n + 1, dtype=np.int64)
    np.cumsum(np.where(starts, 1, 2), out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1])
    diag = indptr[1:] - 1
    indices[diag] = np.arange(design.n)
    data[diag] = np.where(starts, math.sqrt(1.0 - rho * rho), 1.0)
    lag = indptr[:-1][~starts]
    indices[lag] = np.flatnonzero(~starts) - 1
    data[lag] = -rho
    D = sparse.csr_array((data, indices, indptr), shape=(design.n, design.n))
    return replace(design, y=D @ design.y, X_dense=D @ design.X_dense,
                   X_sparse=D @ design.X_sparse, _products=None, _arrow=None)


# ---------------------------------------------------------------------------
# penalized least squares


class PlsSolution(NamedTuple):
    beta: np.ndarray
    vb_unscaled: np.ndarray
    edf_per_coef: np.ndarray
    ridged: bool


def _gram_root(G: np.ndarray, scale: np.ndarray):
    """Square roots of symmetric PSD matrices G (a stack, or one) in units
    of D = diag(scale)^(1/2) (1 where scale is 0). With eigh(D^-1 G D^-1)
    = U diag(w) U' and the rows where w > _GRAM_RTOL * max(max w, 1) kept
    (the others zero), returns root = diag(w)^(1/2) U' D, so root' root = G,
    and the map diag(w)^(-1/2) U' D^-1, which turns G's coupling columns H
    into the rows c with root' c = H."""
    d = np.sqrt(np.where(scale > 0, scale, 1.0))
    w, U = np.linalg.eigh(G / d[..., :, None] / d[..., None, :])
    keep = w > _GRAM_RTOL * np.maximum(w[..., -1:], 1.0)
    s = np.sqrt(np.where(keep, w, 1.0))[..., None]
    Ut = U.swapaxes(-1, -2) * keep[..., None]
    return s * Ut * d[..., None, :], Ut / s / d[..., None, :]


def _arrow_qr(level_rows: np.ndarray, border_rows: np.ndarray):
    """R of the level stacks by one batched QR, then R of the border
    stack: the levels' rows left over past their k columns, on top of
    border_rows. Also |diag R| on the levels' k columns and the border's."""
    nb1 = border_rows.shape[1]
    k = level_rows.shape[2] - nb1
    r_t = np.linalg.qr(level_rows, mode="r")
    left = r_t[:, k:, k:].reshape(-1, nb1)
    # geqrf leaves its reflectors below R
    r_b = np.triu(lapack.dgeqrf(np.vstack([left, border_rows]))[0])
    rdiag = np.abs(np.concatenate([
        np.diagonal(r_t, axis1=1, axis2=2)[:, :k].ravel(),
        np.diagonal(r_b)[:nb1 - 1]]))
    return r_t, r_b, rdiag


def pls_solve(design: AssembledDesign, lambdas) -> PlsSolution:
    """Penalized least squares by QR on a square root of X'X in block-arrow
    form, in the coordinates where every penalty is diagonal (design.arrow(),
    the layout reml_score factors).

    Reads only the cached products, never the n rows. The root: per
    level, eigh of the block G_l = T_l' X'X_l T_l scaled to a unit
    diagonal, D_l^-1 G_l D_l^-1 = U diag(w) U', gives the rows R_l =
    diag(w)^(1/2) U' D_l and, coupling the level to the border and to X'y,
    C_l = diag(w)^(-1/2) U' D_l^-1 T_l' [X'X_lB T_B | X'y_l]. The border's
    Schur complement T_B' X'X_BB T_B - sum_l C_l'C_l gets the same root,
    scaled by its diagonal before elimination. Directions with w at most
    1e-13 max(max w, 1) are dropped, so a Schur complement of pure rounding
    (intercept + fs) drops out whole.

    The penalty rows stay in the QR, never squared (Wood 2011, JRSSB
    73(1)): a Cholesky of X'X + S_lambda misplaces a rank-deficient factor
    smooth's group offsets at lambda = (1e10, 1e-6) by up to 2.09. Each
    level stacks [R_l | C_l] on diag(sum_j lambda_j d_jl)^(1/2) for one
    batched QR over its k columns; the rows left over, the border root and
    the border's diag(sum_j lambda_j d_jB)^(1/2) take one QR more. beta and
    the covariance's border columns map back by T. No p x p matrix is
    factored, so the cost is linear in the number of levels; vb = T R^-1
    R^-T T' is assembled from the level blocks and the border's nb columns
    in O(p^2 nb), the only p x p array, and edf = diag(vb X'X) sums over
    X'X's nonzero entries only (_ArrowLayout.gram). A numerically
    singular system gets a ridge of 1e-10 * trace(X'X + S_lambda) / p on
    every column of X once, and is flagged. A LinAlgError becomes a
    NumericError naming the final solve.
    """
    lambdas = np.asarray(lambdas, dtype=np.float64)
    if lambdas.shape != (len(design.penalties),):
        raise ShapeError(f"expected {len(design.penalties)} lambdas, "
                         f"got shape {lambdas.shape}")
    if np.any(lambdas < 0) or not np.all(np.isfinite(lambdas)):
        raise DomainError("lambdas must be finite and >= 0")
    ar = design.arrow()
    try:
        return _arrow_solve(design, ar, lambdas)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"final solve: {exc}") from None


def _pivot_column(design: AssembledDesign, ar: _ArrowLayout,
                  rdiag: np.ndarray) -> str:
    """The name of X's column at the arrow QR's smallest pivot."""
    order = np.concatenate([ar.idx.ravel(), ar.border])
    return design.coef_names[order[int(np.argmin(rdiag))]]


def _arrow_solve(design: AssembledDesign, ar: _ArrowLayout,
                 lambdas: np.ndarray, ridge: bool = True) -> PlsSolution:
    """pls_solve in the arrow layout; with ridge=False a singular system
    raises RankError naming the column of the smallest pivot."""
    L, k, _ = ar.g_tt.shape
    nb = ar.border.size
    p = design.p
    # the square root of X'X, and X'y's rows
    root_t, to_rows = _gram_root(ar.g_tt,
                                 np.diagonal(ar.g_tt, axis1=1, axis2=2))
    cf = to_rows @ ar.g_tb                           # [C_l | f_l]
    cf_flat = cf.reshape(L * k, nb + 1)
    schur = ar.g_bb - cf_flat.T @ cf_flat
    root_b, to_rows = _gram_root(schur[:nb, :nb], np.diagonal(ar.g_bb)[:nb])
    # the penalties: one diagonal on the levels, one on the border
    pen_t = lambdas[ar.t_pen] @ ar.d_t
    pen_b = lambdas @ ar.d_b
    c = k + nb + 1
    level_rows = np.zeros((L, 2 * k, c))
    level_rows[:, :k, :k] = root_t
    level_rows[:, :k, k:] = cf
    # the diagonal of rows k..2k-1: flat offsets k c + i (c + 1), i < k
    level_rows.reshape(L, 2 * k * c)[:, k * c::c + 1] = \
        np.sqrt(pen_t).reshape(L, k)
    on = pen_b > 0
    border_rows = np.vstack([
        np.column_stack([root_b, to_rows @ schur[:nb, nb]]),
        np.sqrt(pen_b[on])[:, None] * np.eye(nb, nb + 1)[on]])
    r_t, r_b, rdiag = _arrow_qr(level_rows, border_rows)
    ridged = False
    if rdiag.min() <= 1e-10 * max(rdiag.max(), 1.0):
        if not ridge:
            raise RankError("X'X + S_lambda is singular, its smallest pivot "
                            f"in column {_pivot_column(design, ar, rdiag)!r}")
        i, j, v = ar.gram
        trace = v[i == j].sum() + sum(
            lam * len(e.levels) * np.trace(e.base)
            for lam, e in zip(lambdas, design.penalties))
        # trace > 0: every design has the intercept column, whose sum of
        # squares is positive, whitened or not
        delta = RIDGE_OF_LAST_RESORT * float(trace) / p
        # delta I in X's columns is delta T'T in the layout's
        root = math.sqrt(delta)
        ridge_t = np.zeros((L, k, c))
        ridge_t[..., :k] = root * ar.T_t
        r_t, r_b, rdiag = _arrow_qr(
            np.concatenate([level_rows, ridge_t], axis=1),
            np.vstack([border_rows,
                       np.column_stack([root * ar.T_b, np.zeros(nb)])]))
        if rdiag.min() <= 1e-12 * max(rdiag.max(), 1.0):
            raise RankError(f"penalized system singular even after ridge; "
                            f"offending column "
                            f"{_pivot_column(design, ar, rdiag)!r}")
        ridged = True
    # R = [[diag R_l, C~], [0, R_B]] with R^-1 = [[V, -V C~ R_B^-1],
    # [0, R_B^-1]], V = diag(R_l^-1): in X's columns vb = T R^-1 R^-T T'
    # = diag(T_l V_l V_l' T_l') + Z Z', Z = T [-V C~ R_B^-1; R_B^-1]
    rb_inv, info = lapack.dtrtri(r_b[:nb, :nb])
    if info != 0:
        raise np.linalg.LinAlgError("singular border factor")
    beta_b = rb_inv @ r_b[:nb, nb]
    t_inv = np.linalg.inv(r_t[:, :k, :k])
    tc = t_inv @ r_t[:, :k, k:]                      # V_l [C~_l | f~_l]
    gamma = tc[..., nb] - tc[..., :nb] @ beta_b
    z_t = -tc[..., :nb] @ rb_inv                     # Z's levels, before T
    beta = np.empty(p)
    beta[ar.border] = ar.T_b @ beta_b
    beta[ar.idx] = (ar.T_t @ gamma[..., None])[..., 0]
    z = np.empty((p, nb))
    z[ar.border] = ar.T_b @ rb_inv
    z[ar.idx] = ar.T_t @ z_t
    vb = z @ z.T
    t_u = ar.T_t @ t_inv
    blocks = t_u @ t_u.swapaxes(1, 2)
    vb[ar.idx[:, :, None], ar.idx[:, None, :]] += \
        0.5 * (blocks + blocks.swapaxes(1, 2))
    # edf = diag(vb X'X), summed over X'X's nonzero entries only
    i, j, v = ar.gram
    edf = np.bincount(i, vb[i, j] * v, minlength=p)
    # Trim pure float noise at the [0, 1] boundaries; real excursions remain.
    inside = np.minimum(np.maximum(edf, 0.0), 1.0)
    edf = np.where(np.abs(edf - inside) < 1e-8, inside, edf)
    return PlsSolution(beta=beta, vb_unscaled=vb, edf_per_coef=edf,
                       ridged=ridged)


# ---------------------------------------------------------------------------
# REML


def _log_pdet_slambda(design: AssembledDesign, lambdas: np.ndarray):
    """Log pseudo-determinant of sum_j lambda_j S_j in closed form (per row).

    assemble reduces every term's penalties to their spectrum once
    (_term_penalties), so log|S_lambda|_+ = const + sum_i log((W lambda)_i)
    with W nonnegative, one row per penalized direction: O(rank) work per
    call, exact at any lambda ratio because no lambda enters an
    eigenproblem.
    """
    return design.logpdet_const + np.log(
        (design.logpdet_weights @ lambdas[..., None])[..., 0]).sum(axis=-1)


@dataclass(frozen=True)
class _ArrowLayout:
    """X'X + S_lambda in block-arrow form, lambda aside, in coordinates
    where every penalty is diagonal, gathered from ensure_products' parts.

    The block part is one per-level term's columns, L levels of k (its
    penalties' base size) that its Gram does not couple; the border is
    every other column, in X's order. The congruence T = diag(T_1, ...,
    T_L, T_B) puts each penalty group's T (_term_penalties) on the group's
    levels and I elsewhere: T_l on level l of the block part, and in the
    nb x nb T_B one block per level of each border term. In its
    coordinates penalty j is diag(d_jl) on level l and diag(d_jB) on the
    border, so T' (X'X + S_lambda) T = [[D, C], [C', B]] with

        D_l = T_l' X'X_l T_l + diag(sum_j lambda_j d_jl),
        B   = T_B' X'X_BB T_B + diag(sum_j lambda_j d_jB),

    and log|X'X + S_lambda| = log|[[D, C], [C', B]]| + logpdet_const, as
    2 log|det T| = -logpdet_const. X'y rides along as one more border
    column and y'y as its diagonal entry, so the Schur complement of the
    blocks carries the right-hand side too.
    """

    penalties: list            # the penalty list this layout was built for
    idx: np.ndarray            # L x k: the level blocks' columns of X
    border: np.ndarray         # nb: the border's columns of X
    T_t: np.ndarray            # L x k x k: T_l
    T_b: np.ndarray            # nb x nb: T_B
    g_tt: np.ndarray           # L x k x k: T_l' X'X_l T_l
    g_tb: np.ndarray           # L x k x (nb + 1): T_l' [X'X_lB T_B | X'y_l]
    g_bb: np.ndarray           # [[T_B' X'X_BB T_B, T_B' X'y_B], [., y'y]]
    t_pen: slice               # the block part's penalties, one term's
    d_t: np.ndarray            # (those) x L k: them on the levels
    d_b: np.ndarray            # m x nb: every penalty on the border
    gram: tuple                # X'X's nonzero entries (i, j, v), X's columns


def _level_blocks(design: AssembledDesign, i: np.ndarray, j: np.ndarray):
    """The block part: of the terms held in X_sparse, the one with the most
    columns that split into two or more level blocks of its penalties' base
    size k, with every entry (i, j) of its whitened Gram inside one.
    Returns its label and its columns, one row per level; (None, 0 x 0) if
    there is none."""
    best = None, np.zeros((0, 0), dtype=np.int64)
    for label, (a, b) in design.col_ranges.items():
        w = b - a
        if w <= best[1].size or a not in design.sparse_cols:
            continue
        k = design.blocks[label].penalties[0].S.shape[0]
        inside = (i >= a) & (i < b) & (j >= a) & (j < b)
        if k < w and np.array_equal((i[inside] - a) // k,
                                    (j[inside] - a) // k):
            best = label, a + np.arange(w).reshape(w // k, k)
    return best


def _arrow_layout(design: AssembledDesign) -> _ArrowLayout:
    """Gather the level blocks, the border and the penalty diagonals from
    the Gram's parts, and apply the congruence."""
    hh, th, tt, xty, yty = design.ensure_products()
    dc, sc, (ps, pd) = design.dense_cols, design.sparse_cols, th.shape
    # X'X's nonzero entries: H'H, T'H on both sides and T'T's
    gram = i, j, v = (
        np.concatenate([np.repeat(dc, pd), np.repeat(sc, pd),
                        np.repeat(dc, ps), sc[tt.row]]),
        np.concatenate([np.tile(dc, pd), np.tile(dc, ps), np.tile(sc, pd),
                        sc[tt.col]]),
        np.concatenate([hh.ravel(), th.ravel(), th.T.ravel(), tt.data]))
    label, idx = _level_blocks(design, i, j)
    L, k = idx.shape
    in_blocks = np.zeros(design.p, dtype=bool)
    in_blocks[idx.ravel()] = True
    border = np.flatnonzero(~in_blocks)
    nb, m, w = border.size, len(design.penalties), idx.size
    # each column's place in [level blocks | border]
    at = np.argsort(np.concatenate([idx.ravel(), border]))
    T_t, T_b = np.tile(np.eye(k), (L, 1, 1)), np.eye(nb)
    d_t, d_b = np.zeros((m, L, k)), np.zeros((m, nb))
    for q, e in enumerate(design.penalties):
        if e.term_label == label:
            T_t[e.levels] = e.T
            d_t[q, e.levels] = e.d
        else:                  # its border positions, one row per level
            pos = at[e.offset:][e.cols].reshape(-1, e.d.size) - w
            T_b[pos[:, :, None], pos[:, None, :]] = e.T
            d_b[q, pos] = e.d
    # X'X's entries into the blocks; _level_blocks kept the levels apart
    i, j = at[i], at[j]
    x_tt, x_tb, x_bb = np.zeros((w, k)), np.zeros((w, nb)), np.zeros((nb, nb))
    t = (i < w) & (j < w)
    x_tt[i[t], j[t] % k] = v[t]
    t = (i < w) & (j >= w)
    x_tb[i[t], j[t] - w] = v[t]
    t = (i >= w) & (j >= w)
    x_bb[i[t] - w, j[t] - w] = v[t]
    g_bb = np.empty((nb + 1, nb + 1))
    g_bb[:nb, :nb] = T_b.T @ x_bb @ T_b
    g_bb[:nb, nb] = g_bb[nb, :nb] = T_b.T @ xty[border]
    g_bb[nb, nb] = yty
    g_tb = np.concatenate([x_tb.reshape(L, k, nb) @ T_b,
                           xty[idx][:, :, None]], axis=2)
    T_tt = T_t.swapaxes(1, 2)
    on = [q for q, e in enumerate(design.penalties) if e.term_label == label]
    t_pen = slice(on[0], on[-1] + 1) if on else slice(0)
    return _ArrowLayout(
        penalties=design.penalties, idx=idx, border=border, T_t=T_t, T_b=T_b,
        g_tt=T_tt @ x_tt.reshape(L, k, k) @ T_t, g_tb=T_tt @ g_tb, g_bb=g_bb,
        t_pen=t_pen, d_t=d_t[t_pen].reshape(len(on), w), d_b=d_b,
        gram=gram)


def reml_score(design: AssembledDesign, log_lambdas, derivatives=False):
    """Negative log restricted marginal likelihood at the given log-lambdas,
    at one point or at each point of a stack.

    A = X'X + S_lambda is factored in block-arrow form, in the coordinates
    where every penalty is diagonal (design.arrow()): the L level blocks
    D_l of the block part by one batched Cholesky, then the border's Schur
    complement Sigma = B - sum_l C_l' D_l^-1 C_l, C_l the level's rows of
    the coupling block. Each D_l and Sigma is first scaled to a unit
    diagonal, which with every penalty on the diagonal keeps a lambda of
    1e12 from swamping the unpenalized directions. log|A| = sum_l log|D_l|
    + log|Sigma| + logpdet_const, and the penalized RSS comes from the same
    elimination of X'y. A design without a per-level term has no blocks,
    and Sigma = B. The cost is linear in L.

    With derivatives=True it returns (score, grad, hess) in log lambda,
    exact (Wood 2011, JRSSB 73(1)), from the same factors
    (_reml_derivatives). derivatives=b, a number, returns (score, grad,
    hess) when the score is below b and (score, None, None) otherwise: a
    line search needs them only at the point it accepts. A level block or
    Sigma that is not numerically positive definite raises NumericError:
    the score of a ridged system would be another model's.

    log_lambdas of shape (B, m), a stack, is factored in one pass making
    each point's BLAS and LAPACK calls as alone (bit for bit alike), and
    gives B (score, grad, hess): derivatives may hold a threshold per
    point, and a point that cannot be scored reads (inf, None, None).
    """
    x = np.asarray(log_lambdas, dtype=np.float64)
    stack = x.ndim == 2
    x = x if stack else np.atleast_1d(x)[None]       # a stack of one
    if x.shape[1:] != (len(design.penalties),):
        raise ShapeError(f"expected {len(design.penalties)} log-lambdas")
    below = np.broadcast_to(math.inf if derivatives is True else -math.inf
                            if derivatives is False else derivatives, len(x))
    try:
        out = _reml_stack(design, x, below)
    except NumericError:
        if not stack:
            raise
        out = [(math.inf, None, None)] if len(x) == 1 else [  # one by one
            reml_score(design, x[i:i + 1], below[i:i + 1])[0]
            for i in range(len(x))]
    return out if stack else out[0][0] if derivatives is False else out[0]


def _reml_stack(design: AssembledDesign, x: np.ndarray, below):
    """reml_score at the rows of x; NumericError if any point fails."""
    ar = design.arrow()
    (B, _), (L, k, _), nb = x.shape, ar.g_tt.shape, ar.border.size
    lambdas = np.exp(x)
    at = lambdas[0] if B == 1 else lambdas        # for the messages
    if not np.isfinite(lambdas).all():
        raise NumericError(f"non-finite lambdas {at}")
    D = np.repeat(ar.g_tt[None], B, axis=0)
    D.reshape(B, L, k * k)[..., ::k + 1] += \
        (lambdas[:, None, ar.t_pen] @ ar.d_t).reshape(B, L, k)
    Z = np.repeat(ar.g_bb[None], B, axis=0)
    Z.reshape(B, -1)[:, :nb * (nb + 2):nb + 2] += \
        (lambdas[:, None] @ ar.d_b)[:, 0]
    scale = np.diagonal(D, axis1=2, axis2=3)
    try:                     # LinAlgError: not numerically positive definite
        if not (scale > 0).all():
            raise np.linalg.LinAlgError
        scale = np.sqrt(scale)
        chol = np.linalg.cholesky(D / scale[..., :, None] / scale[..., None, :])
        R = np.linalg.inv(chol) / scale[..., None, :]      # D^-1 = R'R
        W = R @ ar.g_tb                                    # R_l [C_l | X'y_l]
        Wf = W.reshape(B, L * k, nb + 1)
        Z -= Wf.swapaxes(1, 2) @ Wf    # Sigma, bordered by the X'y left
        s_scale = np.diagonal(Z, axis1=1, axis2=2)[:, :nb]
        if not (s_scale > 0).all():
            raise np.linalg.LinAlgError
        s_scale = np.sqrt(s_scale)
        s_fac, info = zip(*[lapack.dpotrf(a, lower=1, clean=1) for a in Z[
            :, :nb, :nb] / (s_scale[:, :, None] * s_scale[:, None, :])])
        if any(info):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        raise NumericError(f"X'X + S_lambda not positive definite "
                           f"at lambdas {at}") from None
    beta_b = np.array([lapack.dpotrs(f, z, lower=1)[0] for f, z in zip(
        s_fac, Z[:, :nb, nb] / s_scale)]) / s_scale
    rss_pen = np.maximum(Z[:, nb, nb] - (
        beta_b[:, None] @ Z[:, :nb, nb, None])[:, 0, 0], 1e-300)
    logdet_a = 2.0 * (np.log(np.diagonal(chol, axis1=2, axis2=3)).reshape(
        B, -1).sum(axis=1) + np.log(scale).reshape(B, -1).sum(axis=1)
        + np.log(np.diagonal(s_fac, axis1=1, axis2=2)).sum(axis=1)
        + np.log(s_scale).sum(axis=1)) + design.logpdet_const
    logpdet_s = _log_pdet_slambda(design, lambdas)
    n_eff = design.n - design.m_null_total
    if n_eff <= 0:
        raise NumericError("more unpenalized directions than observations")
    out = [(float(0.5 * n_eff * (math.log(2.0 * math.pi * max(
        rss_pen[b] / n_eff, 1e-300)) + 1.0) - 0.5 * logpdet_s[b]
        + 0.5 * logdet_a[b]), None, None) for b in range(B)]
    if not all(math.isfinite(f) for f, _, _ in out):
        raise NumericError(f"non-finite REML score at lambdas {at}")
    deriv = [b for b in range(B) if out[b][0] < below[b]]
    if deriv:
        # column-major as dpotri returns it, for one point's BLAS calls
        P = np.array([lapack.dpotri(s_fac[b], lower=1)[0].T
                      for b in deriv]).transpose(0, 2, 1)
        P += np.tril(P, -1).swapaxes(1, 2)          # the upper triangle is 0
        P /= s_scale[deriv, :, None] * s_scale[deriv, None, :]  # Sigma^-1
        grad, hess = _reml_derivatives(
            ar, lambdas[deriv], R[deriv], W[deriv], P, beta_b[deriv],
            rss_pen[deriv], n_eff, design.logpdet_weights)
        for i, b in enumerate(deriv):
            out[b] = (out[b][0], grad[i], hess[i])
    return out


def _reml_derivatives(ar, lambdas, R, W, P, beta_b, rss_pen, n_eff, weights):
    """Gradient and Hessian of the REML score in log lambda, per point of
    _reml_stack's stack.

    With r_j = lambda_j b'S_j b, t_j = lambda_j tr(A^-1 S_j) and
    P_kj = W_kj lambda_j / (W lambda)_k (W = logpdet_weights):

        grad_j  = (n_eff r_j / rss + t_j - sum_k P_kj) / 2,
        hess_ij = n_eff [(d_ij r_j - 2 lambda_i lambda_j b'S_j A^-1 S_i b) / rss
                         - r_i r_j / rss^2] / 2
                  + [d_ij t_j - lambda_i lambda_j tr(A^-1 S_i A^-1 S_j)] / 2
                  - [d_ij sum_k P_kj - sum_k P_ki P_kj] / 2.

    A^-1 is never formed. In the layout's coordinates (_ArrowLayout) every
    S_j is diagonal, lambda_j diag(d_jT) on the levels and lambda_j
    diag(d_jB) on the border. With F = D^-1 C and P = Sigma^-1 = (A^-1)_BB,
    A^-1 has the level-block part D^-1 + F Sigma^-1 F' and the off-diagonal
    part -F Sigma^-1, so with K_j = lambda_j (F' diag(d_jT) F + diag(d_jB))

        t_j = lambda_j d_jT . diag(D^-1) + tr(Sigma^-1 K_j),

    and each trace of a pair is a sum over the level blocks plus
    tr(Sigma^-1 K_i Sigma^-1 K_j). b'S_j A^-1 S_i b applies A^-1 to the
    vectors lambda_i S_i b by the same elimination. Only the block part's
    penalties (ar.t_pen) have d_jT nonzero and enter the level products.
    """
    Bd, L, k, nb1 = W.shape
    nb, m, mt, ti, Lk = nb1 - 1, lambdas.shape[1], len(ar.d_t), ar.t_pen, L * k
    Rt = R.swapaxes(2, 3)
    d_inv = Rt @ R                                   # D_l^-1
    FX = Rt @ W                                      # [F | D^-1 X'y_T]
    F = FX[..., :nb]
    Ff = F.reshape(Bd, Lk, nb)
    beta_t = FX[..., nb] - (F @ beta_b[:, None, :, None])[..., 0]
    S = lambdas[:, ti, None] * ar.d_t                # Bd x mt x Lk
    Sf = np.zeros((Bd, m, Lk))                       # every penalty's
    Sf[:, ti] = S
    SB = lambdas[:, :, None] * ar.d_b                # Bd x m x nb
    E = S.reshape(Bd, mt, L, k, 1) * F[:, None]      # lambda_j S_j F
    K = np.zeros((Bd, m, nb, nb))
    K[:, ti] = Ff.swapaxes(1, 2)[:, None] @ E.reshape(Bd, mt, Lk, nb)
    K.reshape(Bd, m, nb * nb)[..., ::nb + 1] += SB
    PK = P[:, None] @ K                              # Sigma^-1 K_j
    G = (d_inv[:, None] @ E) @ P[:, None, None]
    t = (Sf @ np.diagonal(d_inv, axis1=2, axis2=3).reshape(Bd, Lk, 1))[
        ..., 0] + np.einsum("bjaa->bj", PK)
    n2 = Lk * nb
    # lambda_i lambda_j tr(A^-1 S_i A^-1 S_j)
    trace2 = PK.reshape(Bd, m, nb * nb) @ \
        PK.swapaxes(2, 3).reshape(Bd, m, nb * nb).swapaxes(1, 2)
    trace2[:, ti, ti] += \
        S @ ((d_inv * d_inv)[:, None] @ S.reshape(Bd, mt, L, k, 1)).reshape(
            Bd, mt, Lk).swapaxes(1, 2) \
        + 2.0 * E.reshape(Bd, mt, n2) @ G.reshape(Bd, mt, n2).swapaxes(1, 2)
    # u_j = lambda_j S_j b in its block-part and border rows
    UT, UB = Sf * beta_t.reshape(Bd, 1, Lk), SB * beta_b[:, None]
    # v_i = A^-1 u_i by block elimination; cross_ij = u_j' v_i
    VB = (UB - UT @ Ff) @ P
    VT = (d_inv[:, None] @ UT.reshape(Bd, m, L, k, 1)).reshape(Bd, m, Lk) \
        - VB @ Ff.swapaxes(1, 2)
    cross = UT @ VT.swapaxes(1, 2) + UB @ VB.swapaxes(1, 2)
    r = (UT @ beta_t.reshape(Bd, Lk, 1))[..., 0] \
        + (UB @ beta_b[:, :, None])[..., 0]
    P_w = weights * lambdas[:, None] / (weights @ lambdas[:, :, None])
    grad = 0.5 * (n_eff * r / rss_pen[:, None] + t - P_w.sum(axis=1))
    rss = rss_pen[:, None, None]
    # the d_ij terms of hess add up to grad on its diagonal
    hess = -n_eff * (cross / rss + 0.5 * (r[:, :, None] * r[:, None, :])
                     / rss ** 2) \
        - 0.5 * (trace2 - P_w.swapaxes(1, 2) @ P_w)
    hess.reshape(Bd, m * m)[:, ::m + 1] += grad
    return grad, 0.5 * (hess + hess.swapaxes(1, 2))


@dataclass(frozen=True)
class LambdaSearch:
    lambdas: np.ndarray
    score: float
    converged: bool
    n_eval: int
    grad_max: float            # largest |projected gradient| at lambdas


def _newton_search(x: np.ndarray):
    """Projected Newton descent in log lambda from one start, as a
    generator (_lockstep drives it): it yields (point, the score below
    which it wants the point's derivatives), receives reml_score's (score,
    grad, hess) there and returns its LambdaSearch.

    A coordinate at a lambda bound whose gradient points outward stays
    fixed. On the free coordinates the step is Newton's along each
    eigenvector of the Hessian with curvature above _EIG_FLOOR *
    max(largest |eigenvalue|, 1), and MAX_NEWTON_STEP downhill along the
    others, where the quadratic model has no minimum; it is then scaled to
    at most MAX_NEWTON_STEP per coordinate and halved until the score
    falls, until its predicted decrease is below the score's rounding. If
    the full step's already is, a trial within rounding of the score with
    a smaller largest free |gradient| is also taken. Each trial point is
    scored once, asking for derivatives below the current score (plus its
    rounding in that case): the point accepted brings its gradient and
    Hessian. A start that cannot be scored returns score inf.

    Where the score tends to its limit like exp(-|log lambda_j|), the 1-D
    Newton step -g_j / H_jj is 1 toward that bound at every point, and
    Newton would climb the tail one unit per iteration. When two
    consecutive accepted points both have that step within _TAIL_RTOL of
    +-1, the point with lambda_j on that bound and the other free
    coordinates at their model minimum there (_tail_jump) is scored once,
    and taken if lower; each coordinate and bound is tried once per run.
    """
    lo, hi = LOG_LAMBDA_MIN, LOG_LAMBDA_MAX
    f, g, H = yield x, math.inf
    if f == math.inf:
        return LambdaSearch(np.exp(x), math.inf, False, 1, math.nan)
    n_eval, converged = 1, False
    tail = np.zeros(x.size)        # tail direction at the last accepted point
    tried = set()
    for _ in range(_NEWTON_MAX_ITER):
        free = _free_coordinates(x, g)
        g_max = np.max(np.abs(g[free]), initial=0.0)
        if g_max <= GRAD_TOL:
            converged = True
            break
        toward = _tail_direction(g, H)
        bound = np.where(toward > 0, hi, lo)
        jump = [j for j in np.flatnonzero((toward != 0) & (toward == tail))
                if x[j] != bound[j] and (j, toward[j]) not in tried]
        tail = toward
        if jump:
            j = jump[0]
            tried.add((j, toward[j]))
            probe = _tail_jump(x, g, H, free, j, toward[j], bound[j])
            n_eval += 1
            f_p, g_p, H_p = yield probe, f
            if f_p < f:
                x, f, g, H = probe, f_p, g_p, H_p
                tail = np.zeros(x.size)
                continue
        w, V = np.linalg.eigh(H[free][:, free])
        c = V.T @ g[free]
        # no quadratic minimum along nonpositive curvature: take the cap
        floor = _EIG_FLOOR * max(np.abs(w).max(), 1.0)
        step = np.zeros_like(x)
        step[free] = -V @ np.where(w > floor, c / np.maximum(w, floor),
                                   MAX_NEWTON_STEP * np.sign(c))
        step *= min(1.0, MAX_NEWTON_STEP / np.abs(step).max())
        trial = (x + step).clip(lo, hi)
        # a full step whose predicted decrease is below the score's rounding
        flat = abs(g @ (trial - x)) <= (tol := _SCORE_RTOL * (1.0 + abs(f)))
        while True:
            n_eval += 1
            f_trial, g_trial, H_trial = yield trial, f + tol if flat else f
            if f_trial < f or flat and g_trial is not None and np.max(
                    np.abs(g_trial[_free_coordinates(trial, g_trial)]),
                    initial=0.0) < g_max:
                break
            step *= 0.5
            trial = (x + step).clip(lo, hi)
            # a descent smaller than the score's rounding cannot be seen
            if abs(g @ (trial - x)) <= tol:
                trial = None
                break
        if trial is None:
            converged = True
            break
        x, f, g, H = trial, f_trial, g_trial, H_trial
    free = _free_coordinates(x, g)
    return LambdaSearch(np.exp(x), f, converged, n_eval,
                        float(np.max(np.abs(g[free]), initial=0.0)))


def _tail_jump(x, g, H, free, j, toward, bound) -> np.ndarray:
    """x with x_j at its bound and the other free coordinates at the
    minimum of the quadratic model there: along an exponential tail the
    cross curvature H_oj decays at the tail's own rate, so the others'
    gradient moves by H_oj * toward on the way to the bound."""
    probe = x.copy()
    probe[j] = bound
    o = free & (np.arange(x.size) != j)
    if np.any(o):
        w, V = np.linalg.eigh(H[o][:, o])
        if w[0] > _EIG_FLOOR * max(np.abs(w).max(), 1.0):
            shift = -V @ ((V.T @ (g[o] + H[o, j] * toward)) / w)
            probe[o] = (x[o] + shift).clip(LOG_LAMBDA_MIN, LOG_LAMBDA_MAX)
    return probe


def _tail_direction(g: np.ndarray, H: np.ndarray) -> np.ndarray:
    """+1 (-1) where the 1-D Newton step -g_j / H_jj is within _TAIL_RTOL
    of +1 (-1), the step on an exponential tail toward the upper (lower)
    lambda bound; 0 elsewhere."""
    h = np.diag(H)
    s = np.divide(-g, h, out=np.zeros_like(g), where=h > 0)
    return np.where(np.abs(np.abs(s) - 1.0) <= _TAIL_RTOL, np.sign(s), 0.0)


def _free_coordinates(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """False where x sits at a lambda bound and g points out of the box."""
    return ~(((x <= LOG_LAMBDA_MIN) & (g > 0))
             | ((x >= LOG_LAMBDA_MAX) & (g < 0)))


def _best_run(runs: list) -> LambdaSearch:
    """The lowest-scoring run. A later run replaces an earlier one only when
    it scores lower by more than the score's rounding: runs that end at one
    optimum are not told apart by the last bits of their scores, which
    change with the order of the levels and rows."""
    best = runs[0]
    for run in runs[1:]:
        if best.score - run.score > _SCORE_RTOL * (1.0 + abs(run.score)):
            best = run
    return best


def _lockstep(design: AssembledDesign, starts: list) -> list:
    """The LambdaSearch of a Newton run (_newton_search) from each start,
    the runs advanced together: each round scores every live run's next
    point in one reml_score call, as each would score alone."""
    runs = [_newton_search(x) for x in starts]
    asks, done = [next(run) for run in runs], [None] * len(runs)
    while live := [i for i, d in enumerate(done) if d is None]:
        scored = reml_score(design, np.array([asks[i][0] for i in live]),
                            derivatives=[asks[i][1] for i in live])
        for i, result in zip(live, scored):
            try:
                asks[i] = runs[i].send(result)
            except StopIteration as stop:
                done[i] = stop.value
    return done


def optimize_lambdas(design: AssembledDesign) -> LambdaSearch:
    """Minimize the REML score over log-lambda by projected Newton descent.

    Runs from log lambda = 0, +5 and -5 in log10 space, each clipped to
    [LOG_LAMBDA_MIN, LOG_LAMBDA_MAX], on the exact gradient and Hessian
    of reml_score, in lockstep (_lockstep): one reml_score call
    per round scores the runs' points as a stack. The lowest score wins,
    the earlier run on a tie within the score's rounding (_best_run). Then
    each log lambda of the winner is set in turn to either bound it is not
    at, the others held, these probes are scored in one call, and a fourth
    run starts from the lowest if it scores below the winner. A run
    converges when its largest projected gradient is at most GRAD_TOL, or
    when no descent can be seen within the score's rounding (_newton_search).
    A run out of iterations keeps its point with converged=False, and a
    warning follows if it wins. A start that cannot be scored is skipped;
    when none can, the NumericError names the column of the smallest pivot
    of pls_solve's QR at the first start if the system is singular there.
    n_eval counts every point scored, each once, probes included; grad_max
    is the largest absolute projected gradient at the returned lambdas.
    """
    m = len(design.penalties)
    if m == 0:
        raise DomainError("no penalties to optimize")
    starts = [np.zeros(m),
              np.full(m, 5.0 * math.log(10.0)),
              np.full(m, -5.0 * math.log(10.0))]
    runs = _lockstep(design, [np.clip(x0, LOG_LAMBDA_MIN, LOG_LAMBDA_MAX)
                              for x0 in starts])
    best = _best_run(runs)
    if not math.isfinite(best.score):
        message = "REML score non-finite at every candidate lambda"
        try:
            _arrow_solve(design, design.arrow(), runs[0].lambdas, ridge=False)
        except RankError as exc:
            message += f"; {exc}"
        raise NumericError(message)
    # The score tends to a limit as a lambda goes to 0 or inf, and a basin
    # a few 1e-3 deep can hold every start above a lower limit: probe both
    # bounds of each coordinate from the best point.
    x = np.log(best.lambdas)
    probes = [np.where(np.arange(m) == j, bound, x)
              for j in range(m) for bound in (LOG_LAMBDA_MIN, LOG_LAMBDA_MAX)
              if x[j] != bound]
    scores = [f for f, _, _ in reml_score(design, np.array(probes))]
    k = int(np.argmin(scores))
    if scores[k] < best.score:
        runs += _lockstep(design, [probes[k]])
        best = _best_run(runs)
    if not best.converged:
        warnings.warn("lambda search hit its iteration budget before "
                      "converging; returning best point found", stacklevel=2)
    return replace(best, n_eval=len(probes) + sum(run.n_eval for run in runs))


# ---------------------------------------------------------------------------
# the fitted model


@dataclass
class FittedModel:
    """Coefficients, smoothing parameters, covariance, and fit scores."""

    spec: ModelSpec
    design_raw: AssembledDesign
    design: AssembledDesign
    beta: np.ndarray
    lambdas: np.ndarray
    sigma2: float
    vb: np.ndarray
    edf_per_coef: np.ndarray
    total_edf: float
    reml: float
    loglik: float
    rss_whitened: float
    residuals_raw: np.ndarray
    residuals_whitened: np.ndarray
    converged: bool
    ridged: bool
    n_eval: int                # REML points scored by the lambda search
    grad_max: float            # its largest |projected gradient| at lambdas

    @property
    def n(self) -> int:
        return self.design.n

    @property
    def p(self) -> int:
        return self.design.p

    @property
    def coef_names(self) -> list:
        return self.design.coef_names

    @property
    def table(self) -> DataTable:
        return self.design_raw.table

    @property
    def param_count(self) -> int:
        """Parameter count for REML-score comparisons.

        Counts the unpenalized parametric coefficients (intercept included)
        plus one per smoothing parameter; penalized basis coefficients are
        not free parameters in this convention.
        """
        return self.design.n_parametric_cols + len(self.lambdas)

    def column_range(self, term: str) -> tuple[int, int]:
        return self.design.column_range(term)

    def term_labels(self) -> list:
        return [lbl for lbl in self.design.col_ranges]

    @property
    def fitted_values(self) -> np.ndarray:
        return self.design_raw.dot(self.beta)


def fit(spec: ModelSpec, table: DataTable, lambdas=None) -> FittedModel:
    """Assemble, whiten, select smoothing parameters, and solve.

    lambdas fixes the smoothing parameters (one per penalty) instead of
    optimizing them; lambdas=None runs the REML search. sigma2 uses the
    residual-df convention RSS_whitened/(n - total edf); loglik is the
    Gaussian log-likelihood of the whitened residuals at the ML variance
    RSS/n, the convention under which AIC = n log(2 pi RSS/n) + n + 2(edf+1).
    n_eval counts the REML points the search scored and grad_max is its
    largest absolute projected gradient at the returned lambdas (both 0 if
    no search ran). reml is NaN when the final solve needed the ridge
    fallback (ridged), or when a lambda is pinned at 0.
    """
    design_raw = assemble(spec, table)
    if spec.rho > 0:
        if design_raw.series_codes is None:
            raise SchemaError("rho > 0 requires the table's series/order keys")
        design = ar1_whiten(design_raw, spec.rho)
    else:
        design = design_raw

    converged, n_eval, grad_max = True, 0, 0.0
    if len(design.penalties) == 0:
        lambdas = np.zeros(0)
    elif lambdas is None:
        search = optimize_lambdas(design)
        lambdas = search.lambdas
        converged, n_eval = search.converged, search.n_eval
        grad_max = search.grad_max
    else:
        lambdas = np.asarray(lambdas, dtype=np.float64)

    sol = pls_solve(design, lambdas)
    resid_w = design.y - design.dot(sol.beta)
    rss_w = float(resid_w @ resid_w)
    total_edf = float(np.sum(sol.edf_per_coef))
    denom = design.n - total_edf
    if denom > 1e-8:
        sigma2 = rss_w / denom
    else:
        sigma2 = 0.0 if rss_w <= 1e-10 else math.nan
    n = design.n
    loglik = -0.5 * n * (math.log(2.0 * math.pi * max(rss_w, 1e-300) / n) + 1.0)
    if sol.ridged:
        # a ridged system's score would be another model's (reml_score)
        reml = math.nan
    elif len(design.penalties) and np.all(lambdas > 0):
        try:
            reml = reml_score(design, np.log(lambdas))
        except NumericError:
            # user-pinned lambdas can defeat the score while the solve is fine
            reml = math.nan
    elif len(design.penalties) == 0:
        reml = reml_score(design, np.zeros(0))
    else:
        reml = math.nan
    resid_raw = design_raw.y - design_raw.dot(sol.beta)
    vb = sol.vb_unscaled
    vb *= sigma2 if math.isfinite(sigma2) else 0.0   # no second p x p array
    return FittedModel(spec=spec, design_raw=design_raw, design=design,
                       beta=sol.beta, lambdas=lambdas, sigma2=sigma2, vb=vb,
                       edf_per_coef=sol.edf_per_coef, total_edf=total_edf,
                       reml=reml, loglik=loglik, rss_whitened=rss_w,
                       residuals_raw=resid_raw, residuals_whitened=resid_w,
                       converged=converged, ridged=sol.ridged, n_eval=n_eval,
                       grad_max=grad_max)


# ---------------------------------------------------------------------------
# prediction


def _evaluator_columns(design: AssembledDesign, term: str, table: DataTable):
    cols = []
    for name in design.term_covariates[term]:
        col = table.columns.get(name)
        if col is None:
            raise SchemaError(f"prediction table lacks column {name!r}")
        cols.append(col)
    return cols


def _extrapolation_mask(evaluator, cols, n: int) -> np.ndarray:
    """Rows outside a cr basis's knot range, where it extends linearly."""
    if isinstance(evaluator, basis_mod._CrEval):
        return evaluator.out_of_range(np.asarray(cols[0], dtype=np.float64))
    if isinstance(evaluator, basis_mod._ConstrainedEval):
        return _extrapolation_mask(evaluator.base_ev, cols, n)
    if isinstance(evaluator, basis_mod._PerLevelEval):
        return _extrapolation_mask(evaluator.base_ev, cols[:-1], n)
    if isinstance(evaluator, basis_mod._TensorEval):
        i = evaluator.n_cov_a
        return (_extrapolation_mask(evaluator.ev_a, cols[:i], n)
                | _extrapolation_mask(evaluator.ev_b, cols[i:], n))
    return np.zeros(n, dtype=bool)


def _rows(design: AssembledDesign, table: DataTable, labels):
    """The named terms' rows of the model matrix at table's observations,
    as two n x c arrays (cols, vals): row i stores vals[i] at columns
    cols[i]. A dense term stores all its columns, a per-level term its
    row's k entries (basis.per_level_rows); a row storing another count is
    a ShapeError naming the term. Spline terms extend linearly outside the
    training covariate range, with a warning naming the affected row count.
    """
    n = table.n_rows
    parametric = {built.label: built for built in design.parametric}
    cols, vals = [np.zeros((n, 0), dtype=np.int64)], [np.zeros((n, 0))]
    flagged = 0
    for label in labels:
        a, b = design.col_ranges[label]
        if label == "(Intercept)":
            X = np.ones((n, 1))
        elif label in parametric:
            X = parametric[label].build(table)[0]
        else:
            evaluator = design.blocks[label].evaluator
            covariates = _evaluator_columns(design, label, table)
            flagged += int(_extrapolation_mask(evaluator, covariates, n).sum())
            X = evaluator.evaluate(covariates, extrapolate=True)
        if not sparse.issparse(X):
            cols.append(np.broadcast_to(np.arange(a, b), X.shape))
            vals.append(X)
            continue
        counts = np.diff(X.indptr)
        k = int(counts.max(initial=0))
        if np.any(counts != k):
            raise ShapeError(f"term {label!r}: per-level rows store unequal "
                             f"entry counts ({counts.min()} to {k})")
        cols.append(a + X.indices.reshape(n, k))
        vals.append(X.data.reshape(n, k))
    if flagged:
        warnings.warn(f"{flagged} rows lie outside a spline's training range; "
                      "linear extension applied", stacklevel=3)
    return np.hstack(cols), np.hstack(vals)


def _mean_se(model: FittedModel, cols: np.ndarray, vals: np.ndarray):
    """x' beta and sqrt(x' vb x) of each row x stored as (cols, vals) by
    _rows, reading vb only at the row's stored columns: O(n c^2). The
    dense terms' columns, the same in every row, form one matrix product;
    each per-level column j adds its row's reads vb[cols[i, j], cols[i]],
    counting the pairs with a dense column twice (vb is symmetric). The
    split follows the terms, not which columns the rows passed happen to
    share, so a grid at one level takes the same path as one over many.
    """
    # positions of dense terms' columns, read off row 0 (none without rows)
    dense = np.isin(cols[:1], model.design_raw.dense_cols).any(axis=0)
    d, x = cols[:1, dense].ravel(), vals[:, dense]
    var = np.einsum("ij,ij->i", x @ model.vb[np.ix_(d, d)], x)
    weighted = vals * np.where(dense, 2.0, 1.0)
    for j in np.flatnonzero(~dense):
        var += vals[:, j] * np.einsum("ij,ij->i", model.vb[cols[:, [j]], cols],
                                      weighted)
    mean = np.einsum("ij,ij->i", vals, model.beta[cols])
    return mean, np.sqrt(np.maximum(var, 0.0))


def predict(model: FittedModel, newdata: DataTable,
            include=None, exclude=None) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and SE of the linear predictor at new observations.

    include keeps only the named terms and the intercept; exclude drops the
    named terms; naming a term the model lacks is a SchemaError. Only the
    kept terms are evaluated, so newdata needs only their covariates.
    """
    design = model.design_raw
    for label in [*(include or ()), *(exclude or ())]:
        design.column_range(label)          # SchemaError if no such term
    labels = [label for label in design.col_ranges
              if (include is None or label == "(Intercept)"
                  or label in include)
              and (exclude is None or label not in exclude)]
    return _mean_se(model, *_rows(design, newdata, labels))


def partial_effect(model: FittedModel, term: str,
                   grid: DataTable) -> tuple[np.ndarray, np.ndarray]:
    """Centered contribution (effect, se) of a single term over a grid.

    Only the term's own columns are evaluated, so the grid needs just that
    term's covariates (and its by/grouping factor, when it has one); all
    other model terms are irrelevant to the partial effect. The SE comes
    from the term's block of the posterior covariance and pinches to zero
    where a centered effect crosses zero.
    """
    design = model.design_raw
    if term not in design.blocks:
        raise SchemaError(f"no smooth term named {term!r}; have "
                          f"{sorted(design.blocks)}")
    return _mean_se(model, *_rows(design, grid, [term]))
