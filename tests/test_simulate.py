"""Scenario generator and the closed-form / dense-grid oracles."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import gammkit
from gammkit.basis import SmoothTermSpec
from gammkit.data import DataTable, FactorColumn
from gammkit.diagnostics import acf
from gammkit.errors import DomainError, ShapeError
from gammkit.fitting import (ModelSpec, ParametricTerm, assemble, fit,
                             optimize_lambdas, reml_score)
from gammkit.simulate import (FixedEffect, ScenarioSpec, gen_experiment,
                              gen_trend)
from oracles import blup_oracle, grid_reml_oracle


# ---------------------------------------------------------------------------
# trends


def test_flat_trend_is_exactly_zero():
    np.testing.assert_array_equal(gen_trend("flat", 100, 2.0, seed=0),
                                  np.zeros(100))


def test_linear_trend_with_zero_amplitude_is_zero():
    np.testing.assert_array_equal(gen_trend("linear", 50, 0.0, seed=1),
                                  np.zeros(50))


@pytest.mark.parametrize("kind", ["linear", "undulating", "spiky"])
def test_trend_is_deterministic_and_centered(kind):
    a = gen_trend(kind, 200, 1.0, seed=7)
    b = gen_trend(kind, 200, 1.0, seed=7)
    np.testing.assert_array_equal(a, b)
    assert abs(a.mean()) < 1e-12
    assert not np.array_equal(a, gen_trend(kind, 200, 1.0, seed=8))


def test_undulating_trend_is_slow():
    """Periods are bounded below by n/6, so neighboring trials move together."""
    for seed in range(5):
        trend = gen_trend("undulating", 800, 1.0, seed=seed)
        assert acf(trend, max_lag=1).acf[1] > 0.9


def test_gen_trend_validates_arguments():
    with pytest.raises(DomainError):
        gen_trend("sawtooth", 100, 1.0, seed=0)
    with pytest.raises(DomainError):
        gen_trend("flat", 1, 1.0, seed=0)
    with pytest.raises(DomainError):
        gen_trend("linear", 100, -1.0, seed=0)


# ---------------------------------------------------------------------------
# experiment generator


def test_experiment_layout_and_keys():
    spec = ScenarioSpec(n_subjects=4, n_trials=6,
                        fixed_effects=(FixedEffect("cond", "factor2", 0.3),
                                       FixedEffect("load", "numeric", 1.0)))
    tab, truth = gen_experiment(spec)
    assert tab.n_rows == 24
    assert tab.series_key == "subject" and tab.order_key == "trial"
    assert set(tab.columns) == {"subject", "trial", "y", "cond", "load"}
    np.testing.assert_array_equal(tab.numeric("trial")[:6],
                                  np.arange(1.0, 7.0))
    assert tab.factor("subject").codes.tolist() == [i // 6 for i in range(24)]
    assert tab.factor("cond").levels == ("a", "b")
    assert truth.trends.shape == (4, 6) and truth.errors.shape == (4, 6)


def test_experiment_is_bit_reproducible():
    spec = ScenarioSpec(n_subjects=5, n_trials=20, trend="undulating",
                        trend_amplitude=0.8, rho=0.4,
                        subject_intercept_sd=0.5, seed=11)
    t1, tr1 = gen_experiment(spec)
    t2, tr2 = gen_experiment(spec)
    np.testing.assert_array_equal(t1.numeric("y"), t2.numeric("y"))
    np.testing.assert_array_equal(tr1.trends, tr2.trends)
    t3, _ = gen_experiment(ScenarioSpec(n_subjects=5, n_trials=20,
                                        trend="undulating",
                                        trend_amplitude=0.8, rho=0.4,
                                        subject_intercept_sd=0.5, seed=12))
    assert not np.array_equal(t1.numeric("y"), t3.numeric("y"))


def test_truth_record_reconstructs_the_response():
    """y decomposes exactly into the recorded generative components."""
    spec = ScenarioSpec(n_subjects=3, n_trials=15,
                        fixed_effects=(FixedEffect("cond", "factor2", 0.7),
                                       FixedEffect("load", "numeric", -0.4)),
                        trend="undulating", trend_amplitude=0.5, rho=0.3,
                        subject_intercept_sd=0.6, mean=5.0, seed=2)
    tab, truth = gen_experiment(spec)
    codes = tab.factor("cond").codes
    load = tab.numeric("load")
    subj = tab.factor("subject").codes
    want = (truth.mean
            + truth.effects["cond"] * (0.5 - codes)
            + truth.effects["load"] * load
            + truth.subject_intercepts[subj]
            + truth.trends.ravel() + truth.errors.ravel())
    np.testing.assert_allclose(tab.numeric("y"), want, atol=1e-12)


def test_errors_follow_ar1_decay():
    spec = ScenarioSpec(n_subjects=1, n_trials=10_000, rho=0.5, seed=3)
    _, truth = gen_experiment(spec)
    r = acf(truth.errors[0], max_lag=5)
    for k in range(1, 6):
        assert abs(r.acf[k] - 0.5 ** k) < 0.02


def test_errors_without_rho_are_white():
    spec = ScenarioSpec(n_subjects=1, n_trials=10_000, rho=0.0, seed=4)
    _, truth = gen_experiment(spec)
    assert abs(acf(truth.errors[0], max_lag=1).acf[1]) < 0.03


def test_marginal_variance_matches_theory():
    """var(y) = sd_b^2 + sigma^2 / (1 - rho^2) for flat-trend scenarios."""
    spec = ScenarioSpec(n_subjects=400, n_trials=250, rho=0.5, sigma=1.0,
                        subject_intercept_sd=0.5, seed=42)
    tab, _ = gen_experiment(spec)
    want = 0.5 ** 2 + 1.0 / (1.0 - 0.5 ** 2)
    got = float(tab.numeric("y").var())
    assert abs(got - want) / want < 0.02


def test_factor_effect_shows_up_in_group_means():
    spec = ScenarioSpec(n_subjects=30, n_trials=40,
                        fixed_effects=(FixedEffect("cond", "factor2", 0.8),),
                        seed=5)
    tab, _ = gen_experiment(spec)
    codes = tab.factor("cond").codes
    y = tab.numeric("y")
    diff = y[codes == 0].mean() - y[codes == 1].mean()
    assert abs(diff - 0.8) < 0.2


def test_wald_intervals_cover_the_true_effect():
    """2-se intervals for a sum-coded effect cover truth in most replicates."""
    hits = 0
    for seed in range(25):
        sc = ScenarioSpec(n_subjects=12, n_trials=30,
                          fixed_effects=(FixedEffect("cond", "factor2", 0.4),),
                          sigma=0.5, subject_intercept_sd=0.6, seed=seed)
        tab, _ = gen_experiment(sc)
        model = fit(ModelSpec(
            response="y", parametric_terms=(ParametricTerm("cond"),),
            smooth_terms=(SmoothTermSpec("subject", is_random_effect=True),)),
            tab)
        a, _ = model.column_range("cond")
        est, se = model.beta[a], math.sqrt(model.vb[a, a])
        hits += abs(est - 0.4) <= 2.0 * se
    assert hits >= 20


def test_scenario_validation():
    with pytest.raises(DomainError):
        ScenarioSpec(n_subjects=0, n_trials=10)
    with pytest.raises(DomainError):
        ScenarioSpec(n_subjects=2, n_trials=10, rho=1.0)
    with pytest.raises(DomainError):
        ScenarioSpec(n_subjects=2, n_trials=10, sigma=-1.0)
    with pytest.raises(DomainError):
        ScenarioSpec(n_subjects=2, n_trials=10, trend="wavelet")
    with pytest.raises(DomainError):
        ScenarioSpec(n_subjects=2, n_trials=10,
                     fixed_effects=(FixedEffect("a", "factor2", 1.0),
                                    FixedEffect("a", "numeric", 1.0)))
    with pytest.raises(DomainError):
        FixedEffect("a", "factor3", 1.0)


# ---------------------------------------------------------------------------
# BLUP oracle


def test_blup_oracle_worked_example():
    """Two groups of two: every ANOVA quantity is hand-checkable."""
    tab = DataTable(columns={"y": np.array([0.0, 2.0, 6.0, 8.0]),
                             "g": FactorColumn.from_strings(
                                 ["a", "a", "b", "b"])},
                    n_rows=4)
    o = blup_oracle(tab, "g", "y")
    assert o.mu == pytest.approx(4.0)
    assert o.sigma2 == pytest.approx(2.0)          # MSW
    assert o.sigmab2 == pytest.approx(17.0)        # (MSB - MSW) / m = (36-2)/2
    assert o.shrink == pytest.approx(17.0 / 18.0)
    np.testing.assert_allclose(o.blups, [-17.0 / 6.0, 17.0 / 6.0])
    np.testing.assert_allclose(o.group_means, [1.0, 7.0])
    mu, s2, sb2, blups = o
    assert (mu, s2, sb2) == (o.mu, o.sigma2, o.sigmab2)


def test_blup_oracle_identical_groups_shrink_to_zero():
    tab = DataTable(columns={"y": np.array([1.0, 2.0] * 3),
                             "g": FactorColumn.from_strings(
                                 ["a", "a", "b", "b", "c", "c"])},
                    n_rows=6)
    o = blup_oracle(tab, "g", "y")
    assert o.sigmab2 == 0.0 and o.shrink == 0.0
    np.testing.assert_array_equal(o.blups, 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_blup_oracle_shrink_stays_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    g = np.repeat(np.arange(8), 10)
    y = rng.normal(0, 1, 8)[g] + rng.standard_normal(80)
    tab = DataTable(columns={"y": y,
                             "g": FactorColumn.from_strings(
                                 [f"g{j}" for j in g])},
                    n_rows=80)
    o = blup_oracle(tab, "g", "y")
    assert 0.0 <= o.shrink < 1.0
    assert abs(o.blups.sum()) < 1e-9


def test_blup_oracle_rejects_bad_layouts():
    y = np.arange(5.0)
    tab = DataTable(columns={"y": y, "g": FactorColumn.from_strings(
        ["a", "a", "a", "b", "b"])}, n_rows=5)
    with pytest.raises(DomainError):
        blup_oracle(tab, "g", "y")
    tab1 = DataTable(columns={"y": np.arange(4.0),
                              "g": FactorColumn.from_strings(["a"] * 4)},
                     n_rows=4)
    with pytest.raises(DomainError):
        blup_oracle(tab1, "g", "y")
    tab2 = DataTable(columns={"y": np.arange(2.0),
                              "g": FactorColumn.from_strings(["a", "b"])},
                     n_rows=2)
    with pytest.raises(DomainError):
        blup_oracle(tab2, "g", "y")


def test_ridge_fit_at_oracle_lambda_reproduces_blups():
    """Penalized indicators at lambda = s2/sb2 equal the ANOVA BLUPs."""
    rng = np.random.default_rng(6)
    n_g, m = 6, 8
    g = np.repeat(np.arange(n_g), m)
    y = rng.normal(0, 1.2, n_g)[g] + 0.7 * rng.standard_normal(n_g * m)
    tab = DataTable(columns={"y": y,
                             "g": FactorColumn.from_strings(
                                 [f"g{j}" for j in g])},
                    n_rows=n_g * m)
    o = blup_oracle(tab, "g", "y")
    model = fit(ModelSpec(response="y",
                          smooth_terms=(SmoothTermSpec("g", is_random_effect=True),)),
                tab, lambdas=[o.sigma2 / o.sigmab2])
    assert model.beta[0] == pytest.approx(o.mu, abs=1e-10)
    a, b = model.column_range("re(g)")
    np.testing.assert_allclose(model.beta[a:b], o.blups, atol=1e-10)


# ---------------------------------------------------------------------------
# dense REML grid oracle


def _sine_design(n=120, seed=7, k=10):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, n)
    y = np.sin(2 * np.pi * x) + 0.2 * rng.standard_normal(n)
    tab = DataTable(columns={"y": y, "x": x}, n_rows=n)
    return assemble(ModelSpec(response="y",
                              smooth_terms=(SmoothTermSpec("x", "cr", k=k),)),
                    tab)


def test_grid_oracle_agrees_with_fitting_score():
    des = _sine_design()
    grid = np.log(np.logspace(-3, 3, 5))
    scores, best = grid_reml_oracle(des, grid)
    for logl, want in zip(grid, scores):
        got = reml_score(des, [logl])
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))
    assert best == int(np.argmin(scores))


def test_grid_oracle_brackets_the_optimizer():
    des = _sine_design()
    search = optimize_lambdas(des)
    grid = np.linspace(-6, 6, 200) * math.log(10.0)
    scores, best = grid_reml_oracle(des, grid)
    step = grid[1] - grid[0]
    assert abs(math.log(search.lambdas[0]) - grid[best]) <= step
    assert search.score <= scores[best] + 1e-9


def test_grid_oracle_score_climbs_beyond_the_optimum():
    des = _sine_design()
    l0 = math.log(optimize_lambdas(des).lambdas[0])
    tail = np.linspace(l0 + 14.0, l0 + 20.0, 7)
    scores, _ = grid_reml_oracle(des, tail)
    assert np.all(np.diff(scores) > 0)


def test_grid_oracle_validates_shapes():
    des = _sine_design()
    with pytest.raises(ShapeError):
        grid_reml_oracle(des, np.zeros((4, 2)))
    with pytest.raises(DomainError):
        grid_reml_oracle(des, np.zeros((20_000, 1)))
    rng = np.random.default_rng(8)
    n = 60
    tab = DataTable(columns={"y": rng.standard_normal(n),
                             "x": rng.uniform(0, 1, n),
                             "z": rng.uniform(0, 1, n),
                             "w": rng.uniform(0, 1, n)}, n_rows=n)
    des3 = assemble(ModelSpec(response="y",
                              smooth_terms=(SmoothTermSpec("x", "cr", k=5),
                                            SmoothTermSpec("z", "cr", k=5),
                                            SmoothTermSpec("w", "cr", k=5))),
                    tab)
    with pytest.raises(DomainError):
        grid_reml_oracle(des3, np.zeros((3, 3)))


def _gammkit_imports(path: Path) -> set[str]:
    """The gammkit modules a source file imports, by absolute or relative
    import, with the package's lazy re-exports resolved to their module."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"gammkit.{module}".rstrip(".")
            if module != "gammkit":
                found.add(module)
                continue
            found.update(gammkit._EXPORTS.get(alias.name,
                                              f"gammkit.{alias.name}")
                         for alias in node.names)
    return {m for m in found if m.startswith("gammkit.")}


def test_oracles_import_no_fitting_basis_or_inference_code():
    """The oracles check fitting, basis and inference, so neither they nor
    any gammkit module they import, directly or not, reads those three:
    agreement with them is evidence, not tautology."""
    src = Path(gammkit.__file__).parent
    seen = set()
    todo = _gammkit_imports(Path(__file__).with_name("oracles.py"))
    while todo:
        module = todo.pop()
        seen.add(module)
        todo |= _gammkit_imports(src / f"{module.split('.')[1]}.py") - seen
    assert seen and not seen & {"gammkit.fitting", "gammkit.basis",
                                "gammkit.inference"}, sorted(seen)
