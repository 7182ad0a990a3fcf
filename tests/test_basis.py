"""Spline bases, penalties, and the compound (by/fs/tensor) constructions.

The cr checks use two independent oracles: the 3-knot natural-spline
interpolation system solved from scratch, and an exact curvature-integral
quadrature built from second differences (exact inside a cubic piece).
"""

import ast
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from gammkit import basis, fitting
from gammkit.basis import (Penalty, absorb_constraints, apply_by_factor,
                           cr_basis, factor_smooth, knots_quantile,
                           poly_basis, random_effect, rank_psd, row_kron,
                           tensor_product, tp_basis)
from gammkit.data import DataTable, FactorColumn
from gammkit.errors import DomainError, RankError, ShapeError


# ---------------------------------------------------------------------------
# polynomial basis


def test_poly_degree1_is_normalized_linear():
    blk = poly_basis(np.array([-1.0, 0.0, 1.0]), degree=1)
    expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0)
    # sign of an orthonormal column is arbitrary
    gap = min(np.abs(blk.X[:, 0] - expected).max(),
              np.abs(blk.X[:, 0] + expected).max())
    assert gap < 1e-12


def test_poly_columns_orthonormal():
    rng = np.random.default_rng(7)
    x = rng.uniform(-3.0, 5.0, 40)
    blk = poly_basis(x, degree=4)
    gram = blk.X.T @ blk.X
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)
    # constant excluded: every column sums to ~0 only for the odd part in
    # general, but each is orthogonal to the constant direction
    ones = np.ones(40) / np.sqrt(40)
    np.testing.assert_allclose(blk.X.T @ ones, 0.0, atol=1e-10)


def test_poly_unpenalized():
    blk = poly_basis(np.linspace(0, 1, 20), degree=3)
    S = blk.penalties[0].S
    assert not S.any()
    assert blk.p_term - rank_psd(S) == 3


def test_poly_degree_too_high():
    with pytest.raises(RankError):
        poly_basis(np.array([-1.0, 0.0, 1.0]), degree=3)
    with pytest.raises(RankError):
        poly_basis(np.array([0.0, 0.0, 1.0, 1.0]), degree=2)


# ---------------------------------------------------------------------------
# knots


def test_knots_uniform_grid():
    x = np.linspace(0.0, 1.0, 101)
    assert knots_quantile(x, 3).locations.tolist() == [0.0, 0.5, 1.0]
    np.testing.assert_allclose(knots_quantile(x, 5).locations,
                               [0.0, 0.25, 0.5, 0.75, 1.0])


def test_knots_use_distinct_values():
    # repeats must not drag quantiles toward the heavy value
    x = np.array([0.0, 0.0, 0.0, 0.5, 1.0])
    np.testing.assert_allclose(knots_quantile(x, 3).locations,
                               [0.0, 0.5, 1.0])


def test_knots_too_few_distinct():
    with pytest.raises(RankError):
        knots_quantile(np.array([0.0, 0.0, 0.0, 1.0]), 3)
    with pytest.raises(DomainError):
        knots_quantile(np.linspace(0, 1, 10), 2)


# ---------------------------------------------------------------------------
# cubic regression spline


def test_cr_cardinal_at_knots():
    x = np.linspace(0.0, 1.0, 50)
    ks = knots_quantile(x, 7)
    blk = cr_basis(ks.locations.copy(), ks)
    np.testing.assert_allclose(blk.X, np.eye(7), atol=1e-12)


def test_cr_row_sums_one():
    rng = np.random.default_rng(12)
    x = rng.uniform(0.0, 1.0, 200)
    ks = knots_quantile(np.linspace(0, 1, 40), 9)
    blk = cr_basis(x, ks)
    np.testing.assert_allclose(blk.X.sum(axis=1), 1.0, atol=1e-12)


def _natural_spline_weights_3knot(x):
    """Interpolation weights at x for knots (0, 0.5, 1), from scratch.

    Natural conditions M0 = M2 = 0 leave one unknown second derivative M1,
    fixed by the continuity equation; the weight of y_j is the interpolant
    of the j-th unit vector evaluated at x.
    """
    t = np.array([0.0, 0.5, 1.0])
    h = 0.5
    w = np.zeros(3)
    for j in range(3):
        y = np.zeros(3)
        y[j] = 1.0
        # (h/6)M0 + (2h/3)M1 + (h/6)M2 = (y2-y1)/h - (y1-y0)/h, M0 = M2 = 0
        m1 = ((y[2] - y[1]) / h - (y[1] - y[0]) / h) / (2.0 * h / 3.0)
        if x <= t[1]:
            a, b, ma, mb = y[0], y[1], 0.0, m1
            lo, hi = t[0], t[1]
        else:
            a, b, ma, mb = y[1], y[2], m1, 0.0
            lo, hi = t[1], t[2]
        u, v = hi - x, x - lo
        w[j] = (a * u + b * v) / h \
            + (u ** 3 / h - h * u) * ma / 6.0 \
            + (v ** 3 / h - h * v) * mb / 6.0
    return w


def test_cr_matches_independent_interpolation_weights():
    ks = knots_quantile(np.linspace(0, 1, 101), 3)
    blk = cr_basis(np.array([0.25]), ks)
    np.testing.assert_allclose(blk.X[0], _natural_spline_weights_3knot(0.25),
                               atol=1e-12)
    # hand-derived values for the same system
    np.testing.assert_allclose(blk.X[0], [0.40625, 0.6875, -0.09375],
                               atol=1e-12)


def _curvature_integral(blk, knots, beta):
    """Exact integral of f''(x)^2 for f = sum beta_j B_j, no penalty code.

    f'' is linear inside each knot interval, so two interior second
    differences (exact for cubics) pin it down and the integral over the
    interval has a closed form.
    """

    def f(x):
        return (blk.evaluator.evaluate([np.array([x])]) @ beta).item()

    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        h = hi - lo
        x1, x2 = lo + h / 3.0, lo + 2.0 * h / 3.0
        d = h / 8.0
        m1 = (f(x1 - d) - 2.0 * f(x1) + f(x1 + d)) / d ** 2
        m2 = (f(x2 - d) - 2.0 * f(x2) + f(x2 + d)) / d ** 2
        ma = 2.0 * m1 - m2          # linear extrapolation to the interval ends
        mb = 2.0 * m2 - m1
        total += h / 3.0 * (ma * ma + ma * mb + mb * mb)
    return total


@pytest.mark.parametrize("k", [4, 7, 12])
def test_cr_penalty_is_curvature_integral(k):
    rng = np.random.default_rng(100 + k)
    knots = np.sort(rng.uniform(0.0, 2.0, k))
    ks = knots_quantile(np.repeat(knots, 2), k)
    np.testing.assert_allclose(ks.locations, knots)
    blk = cr_basis(knots, ks)
    S = blk.penalties[0].S
    for _ in range(3):
        beta = rng.normal(0.0, 1.0, k)
        quad = float(beta @ S @ beta)
        integral = _curvature_integral(blk, knots, beta)
        np.testing.assert_allclose(quad, integral, rtol=1e-6)


def test_cr_null_space_is_affine():
    ks = knots_quantile(np.linspace(0, 1, 30), 8)
    blk = cr_basis(np.linspace(0, 1, 30), ks)
    S = blk.penalties[0].S
    assert blk.p_term - rank_psd(S) == 2
    assert rank_psd(S) == 6
    # constant and linear coefficient vectors (cardinal basis: values at knots)
    np.testing.assert_allclose(S @ np.ones(8), 0.0, atol=1e-10)
    np.testing.assert_allclose(S @ ks.locations, 0.0, atol=1e-10)


def test_cr_rejects_out_of_range_by_default():
    ks = knots_quantile(np.linspace(0, 1, 20), 5)
    with pytest.raises(DomainError):
        cr_basis(np.array([0.5, 1.2]), ks)


def test_cr_linear_extrapolation():
    ks = knots_quantile(np.linspace(0, 1, 50), 6)
    blk = cr_basis(np.linspace(0, 1, 50), ks)
    rng = np.random.default_rng(9)
    beta = rng.normal(0.0, 1.0, 6)
    xs = np.array([1.0, 1.1, 1.2, 1.3])
    f = blk.evaluator.evaluate([xs]) @ beta
    # beyond the last knot the extension is a straight line
    np.testing.assert_allclose(np.diff(f, 2), 0.0, atol=1e-10)
    # and continuous at the boundary
    inner = blk.evaluator.evaluate([np.array([1.0 - 1e-9])]) @ beta
    assert abs(f[0] - inner[0]) < 1e-6


def _cr_formula(ev, x):
    """The cr rows of x inside the knot range, summed in one expression:
    c_minus fplus[j] + c_plus fplus[j + 1], then the linear weights."""
    knots = ev.knots
    j = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, knots.size - 2)
    hj = ev.h[j]
    left, right = knots[j + 1] - x, x - knots[j]
    c_minus = (left ** 3 / hj - hj * left) / 6.0
    c_plus = (right ** 3 / hj - hj * right) / 6.0
    X = c_minus[:, None] * ev.fplus[j] + c_plus[:, None] * ev.fplus[j + 1]
    rows = np.arange(x.size)
    np.add.at(X, (rows, j), left / hj)
    np.add.at(X, (rows, j + 1), right / hj)
    return X


@pytest.mark.parametrize("x", [
    np.repeat(np.arange(1.0, 101.0), 400),
    np.random.default_rng(5).uniform(1.0, 100.0, 40_000),
], ids=["integer", "uniform"])
def test_cr_evaluation_of_40k_rows_peaks_below_10_mb(x):
    """At most two n x k arrays are alive at once (12.0 MB peak when four
    were), and the rows keep the one-expression formula's bits."""
    ev = cr_basis(x, knots_quantile(x, 10)).evaluator
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        X = ev.evaluate([x])
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    assert np.array_equal(X, _cr_formula(ev, x))


# ---------------------------------------------------------------------------
# thin plate basis


def test_tp_affine_directions_unpenalized():
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(0.0, 1.0, 50))
    blk = tp_basis(x, k=10, m=2)
    S = blk.penalties[0].S
    assert blk.p_term - rank_psd(S) == 2
    # represent an affine function in the basis and check S annihilates it
    target = 3.0 - 2.0 * x
    beta, res, *_ = np.linalg.lstsq(blk.X, target, rcond=None)
    np.testing.assert_allclose(blk.X @ beta, target, atol=1e-8)
    np.testing.assert_allclose(S @ beta, 0.0, atol=1e-8)


def test_tp_penalty_eigenvalues_increase():
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(0.0, 1.0, 50))
    blk = tp_basis(x, k=10, m=2)
    S = blk.penalties[0].S
    diag = np.diag(S)[2:]
    assert np.all(diag > 0)
    assert np.all(np.diff(diag) > 0)
    # the penalty is diagonal in this parameterization
    np.testing.assert_allclose(S, np.diag(np.diag(S)), atol=1e-12)


def test_tp_bivariate_null_dim():
    rng = np.random.default_rng(6)
    X = rng.uniform(0.0, 1.0, (80, 2))
    blk = tp_basis(X, k=12, m=2)
    S = blk.penalties[0].S
    assert blk.p_term - rank_psd(S) == 3
    assert blk.p_term == 12
    # 1, x, z all unpenalized
    for target in (np.ones(80), X[:, 0], X[:, 1]):
        beta, *_ = np.linalg.lstsq(blk.X, target, rcond=None)
        np.testing.assert_allclose(S @ beta, 0.0, atol=1e-8)


def test_tp_dimension_errors():
    x = np.linspace(0, 1, 30)
    with pytest.raises(DomainError):
        tp_basis(x, k=2, m=2)           # k <= null dim
    with pytest.raises(RankError):
        tp_basis(np.repeat([0.0, 0.5, 1.0], 10), k=5, m=2)
    with pytest.raises(DomainError):
        tp_basis(np.column_stack([x, x]), k=5, m=1)     # 2m <= d


def test_tp_subsamples_many_sites_deterministically(monkeypatch):
    """Past the site cap the kernel sits on a fixed random subset of the
    distinct sites, the same on every build, and the evaluator still
    reproduces the stored columns bit for bit."""
    monkeypatch.setattr(basis, "_TP_MAX_SITES", 60)
    x = np.random.default_rng(4).uniform(0.0, 1.0, 200)
    first, again = tp_basis(x, k=8), tp_basis(x, k=8)
    points = first.evaluator.points
    assert points.shape == (60, 1)
    assert np.all(np.isin(points[:, 0], x)) and np.all(np.diff(points[:, 0]) > 0)
    assert np.array_equal(again.evaluator.points, points)
    assert np.array_equal(again.X, first.X)
    assert np.array_equal(first.evaluator.evaluate([x]), first.X)


# ---------------------------------------------------------------------------
# tensor products


def _two_marginals(n=60, ka=8, kb=8, seed=21):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, n)
    b = rng.uniform(0.0, 1.0, n)
    ba = cr_basis(a, knots_quantile(a, ka))
    bb = cr_basis(b, knots_quantile(b, kb))
    return a, b, ba, bb


def test_tensor_dimensions_and_penalties():
    _, _, ba, bb = _two_marginals()
    blk = tensor_product(ba, bb)
    assert blk.p_term == 64
    assert len(blk.penalties) == 2
    Sa = blk.penalties[0].S
    Sb = blk.penalties[1].S
    # both penalties annihilate the constant function's coefficients: for
    # cardinal marginals the constant is the all-ones coefficient vector
    ones = np.ones(64)
    np.testing.assert_allclose(Sa @ ones, 0.0, atol=1e-10)
    np.testing.assert_allclose(Sb @ ones, 0.0, atol=1e-10)


def test_tensor_rowwise_kronecker():
    _, _, ba, bb = _two_marginals(ka=4, kb=5)
    blk = tensor_product(ba, bb)
    np.testing.assert_array_equal(blk.X, row_kron(ba.X, bb.X))


def test_tensor_with_constant_margin_degenerates():
    a, _, ba, _ = _two_marginals(ka=6)
    const = type(ba)(term_label="c", X=np.full((60, 1), 2.0),
                     penalties=[Penalty(np.zeros((1, 1)), "c")],
                     evaluator=None)
    blk = tensor_product(ba, const)
    np.testing.assert_allclose(blk.X, 2.0 * ba.X)


def test_tensor_row_mismatch():
    _, _, ba, _ = _two_marginals()
    rng = np.random.default_rng(3)
    c = rng.uniform(0, 1, 50)
    bc = cr_basis(c, knots_quantile(c, 4))
    with pytest.raises(ShapeError):
        tensor_product(ba, bc)


def test_ti_plus_mains_spans_full_tensor():
    a, b, ba, bb = _two_marginals(ka=5, kb=5)
    ti = tensor_product(ba, bb, interaction_only=True)
    assert ti.p_term == (5 - 1) * (5 - 1)
    te = tensor_product(ba, bb)
    rng = np.random.default_rng(14)
    y = np.sin(4 * a) * np.cos(3 * b) + rng.normal(0, 0.1, a.size)
    Xd = np.column_stack([np.ones_like(a), ba.X, bb.X, ti.X])
    fd, *_ = np.linalg.lstsq(Xd, y, rcond=None)
    ff, *_ = np.linalg.lstsq(te.X, y, rcond=None)
    np.testing.assert_allclose(Xd @ fd, te.X @ ff, atol=1e-8)


# ---------------------------------------------------------------------------
# by-factor, factor smooths, random effects


def _base_block(n=80, k=6, seed=2):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n)
    return x, cr_basis(x, knots_quantile(x, k))


def test_by_factor_layout():
    x, blk = _base_block()
    f = FactorColumn.from_strings(["u" if i % 2 else "v" for i in range(80)])
    by = apply_by_factor(blk, f)
    assert by.p_term == 12
    assert len(by.penalties) == 2
    # rows in level u have zero v-columns and vice versa
    u_rows = f.codes == 0
    assert not by.X.toarray()[u_rows, 6:].any()
    assert not by.X.toarray()[~u_rows, :6].any()


def test_by_factor_four_levels_four_penalties():
    x, blk = _base_block()
    f = FactorColumn.from_strings([f"c{i % 4}" for i in range(80)])
    by = apply_by_factor(blk, f)
    assert len(by.penalties) == 4
    assert by.p_term == 24
    assert [pen.label for pen in by.penalties] == [f"by:c{i}" for i in range(4)]
    assert [pen.levels for pen in by.penalties] == [range(i, i + 1)
                                                    for i in range(4)]
    assert all(pen.S is blk.penalties[0].S for pen in by.penalties)


def test_factor_smooth_two_penalties_positive_definite():
    x, blk = _base_block(k=5)
    f = FactorColumn.from_strings([f"s{i % 4}" for i in range(80)])
    fs = factor_smooth(blk, f)
    assert fs.p_term == 20
    assert len(fs.penalties) == 2
    S1, _, levels1 = fs.penalties[0]
    S2, _, levels2 = fs.penalties[1]
    w = np.linalg.eigvalsh(S1 + S2)
    assert w.min() > 1e-10 * w.max()
    # both penalties are one 5 x 5 base repeated on every level, the
    # wiggliness penalty the base smooth's own
    assert S1.shape == S2.shape == (5, 5)
    assert levels1 == levels2 == range(4)
    np.testing.assert_array_equal(S1, blk.penalties[0].S)


def test_factor_smooth_huge_wiggle_lambda_gives_group_offsets():
    """With only per-level constant shifts in the data, the fitted factor
    smooth reduces to group mean minus grand mean."""
    import gammkit as gk

    rng = np.random.default_rng(77)
    n, levels = 120, 4
    g = np.array([f"s{i % levels}" for i in range(n)])
    x = rng.uniform(0.0, 1.0, n)
    shifts = np.array([0.0, 1.5, -2.0, 0.5])
    codes = np.array([int(s[1]) for s in g])
    y = 10.0 + shifts[codes]
    tab = gk.DataTable(columns={"x": x, "g": FactorColumn.from_strings(list(g)),
                                "y": y}, n_rows=n)
    spec = gk.ModelSpec(response="y", smooth_terms=(
        gk.SmoothTermSpec(("x",), "cr", k=5, fs_group="g"),))
    model = gk.fit(spec, tab, lambdas=[1e10, 1e-6])
    a, b = model.column_range(spec.smooth_terms[0].label)
    term = model.design_raw.X[:, a:b] @ model.beta[a:b]
    np.testing.assert_allclose(term, shifts[codes] - shifts.mean(), atol=1e-4)
    np.testing.assert_allclose(model.beta[0], 10.0 + shifts.mean(), atol=1e-4)


def test_random_effect_indicator_matrix():
    f = FactorColumn.from_strings(["a", "b", "c", "a"])
    blk = random_effect(f)
    expect = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]], float)
    np.testing.assert_array_equal(blk.X.toarray(), expect)
    S, _, levels = blk.penalties[0]
    np.testing.assert_array_equal(S, np.eye(1))
    assert levels == range(3)
    assert blk.p_term - 3 * rank_psd(S) == 0


def test_random_slope_masks_covariate():
    f = FactorColumn.from_strings(["a", "b", "a"])
    x = np.array([2.0, 3.0, 5.0])
    blk = random_effect(f, covariate=x)
    np.testing.assert_array_equal(blk.X.toarray(), [[2, 0], [0, 3], [5, 0]])


def test_random_effect_single_level():
    with pytest.raises(DomainError):
        random_effect(FactorColumn.from_strings(["a", "a"]))


# ---------------------------------------------------------------------------
# constraint absorption


def test_absorb_removes_one_dimension_and_centers():
    x, blk = _base_block(k=10)
    con = absorb_constraints(blk)
    assert con.p_term == 9
    np.testing.assert_allclose(con.X.mean(axis=0), 0.0, atol=1e-10)
    assert con.constraint is not None


def test_absorbed_plus_intercept_spans_original():
    x, blk = _base_block(n=100, k=8, seed=4)
    rng = np.random.default_rng(11)
    y = np.sin(5 * x) + rng.normal(0, 0.1, 100)
    con = absorb_constraints(blk)
    Xa = np.column_stack([np.ones(100), con.X])
    fa, *_ = np.linalg.lstsq(Xa, y, rcond=None)
    fb, *_ = np.linalg.lstsq(blk.X, y, rcond=None)
    np.testing.assert_allclose(Xa @ fa, blk.X @ fb, atol=1e-8)


# ---------------------------------------------------------------------------
# evaluator / stored-X consistency


def test_evaluators_reproduce_training_matrix():
    rng = np.random.default_rng(42)
    n = 60
    x = rng.uniform(0.0, 1.0, n)
    z = rng.uniform(0.0, 1.0, n)
    f = FactorColumn.from_strings([f"g{i % 3}" for i in range(n)])

    cr = cr_basis(x, knots_quantile(x, 6))
    cases = [
        (poly_basis(x, 3), [x]),
        (cr, [x]),
        (tp_basis(x, 8), [x]),
        (tp_basis(np.column_stack([x, z]), 9), [np.column_stack([x, z])]),
        (tensor_product(cr, cr_basis(z, knots_quantile(z, 4))), [x, z]),
        (apply_by_factor(cr, f), [x, f]),
        (factor_smooth(cr, f), [x, f]),
        (random_effect(f), [f]),
        (random_effect(f, covariate=z), [f, z]),
        (absorb_constraints(cr), [x]),
    ]
    for blk, cols in cases:
        again, stored = blk.evaluator.evaluate(cols), blk.X
        if sparse.issparse(stored):
            again, stored = again.toarray(), stored.toarray()
        assert np.array_equal(again, stored), blk.term_label
        out = blk.evaluator.out_of_range(cols)
        assert out.shape == (n,) and not out.any(), blk.term_label


def test_out_of_range_flags_the_rows_a_spline_extends():
    """cr flags rows past its knots and tp rows outside its training
    covariates' per-coordinate range; a composite flags what its parts
    flag on their own columns; poly and random effects extend to any
    value and flag none."""
    x = np.linspace(0.0, 1.0, 30)
    f = FactorColumn.from_strings([f"g{i % 2}" for i in range(30)])
    cr = cr_basis(x, knots_quantile(x, 6))
    xs, zs = np.array([-0.5, 0.5, 1.5, 0.5]), np.array([0.5, 0.5, 0.5, 2.0])
    fs = FactorColumn.from_strings(["g0", "g1", "g0", "g1"])
    cases = [
        (cr, [xs], [True, False, True, False]),
        (absorb_constraints(cr), [xs], [True, False, True, False]),
        (tensor_product(cr, cr_basis(x, knots_quantile(x, 4))), [xs, zs],
         [True, False, True, True]),
        (factor_smooth(cr, f), [xs, fs], [True, False, True, False]),
        (apply_by_factor(cr, f), [xs, fs], [True, False, True, False]),
        (poly_basis(x, 2), [xs], [False] * 4),
        (tp_basis(x, 6), [xs], [True, False, True, False]),
        (tp_basis(np.column_stack([x, x[::-1] ** 2]), 6),
         [np.column_stack([xs, zs])], [True, False, True, True]),
        (random_effect(f, covariate=x), [fs, zs], [False] * 4),
    ]
    for blk, cols, want in cases:
        assert blk.evaluator.out_of_range(cols).tolist() == want, blk.term_label


# ---------------------------------------------------------------------------
# module boundary


def test_fitting_reads_no_private_basis_name():
    """fitting reaches the basis module through public names only, so a
    term's columns are built, evaluated and range-checked in one place."""
    with open(fitting.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    aliases, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                node.module in ("basis", "gammkit.basis"):
            private += [a.name for a in node.names if a.name.startswith("_")]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            aliases |= {a.asname or a.name for a in node.names
                        if a.name in ("basis", "gammkit.basis")}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases and node.attr.startswith("_"):
            private.append(f"{node.value.id}.{node.attr}")
    assert private == []


@pytest.mark.parametrize("term, error, message", [
    (basis.SmoothTermSpec("x", "cr", k=10), RankError,
     "term 'cr(x)': need >= 10 distinct values, got 5"),
    (basis.SmoothTermSpec(("x", "z"), "tp", k=3), DomainError,
     "term 's(x,z)': k=3 must exceed the null-space dimension 3"),
])
def test_basis_errors_keep_their_class_and_name_the_term(term, error,
                                                         message):
    x = np.repeat(np.linspace(0.0, 1.0, 5), 10)
    table = DataTable(columns={"x": x, "z": np.sin(7.0 * x) + x ** 2,
                                  "y": np.cos(3.0 * x)}, n_rows=50)
    spec = fitting.ModelSpec(response="y", smooth_terms=(term,))
    with pytest.raises(error) as info:
        fitting.fit(spec, table)
    assert str(info.value).startswith(message)


def test_a_per_level_term_needs_null_dimension_rows_on_every_level():
    """A level of fs(x, g) with fewer rows than the base penalty's null
    dimension (2 for cr: constant and linear) cannot be fitted."""
    rng = np.random.default_rng(8)
    x = rng.uniform(0.0, 1.0, 31)
    g = FactorColumn.from_strings(["abc"[i % 3] for i in range(30)] + ["d"])
    table = DataTable(columns={"x": x, "g": g, "y": np.sin(3.0 * x)},
                      n_rows=31)
    spec = fitting.ModelSpec(response="y", smooth_terms=(
        basis.SmoothTermSpec("x", "cr", k=5, fs_group="g"),))
    with pytest.raises(DomainError) as info:
        fitting.fit(spec, table)
    assert str(info.value) == (
        "term 'fs(x,g)': factor smooth: level 'd' has 1 rows, fewer than "
        "the basis null dimension 2")
