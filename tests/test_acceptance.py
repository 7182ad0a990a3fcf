"""Acceptance gate: thirteen end-to-end behavioral guarantees.

Each test prints one [PASS]/[FAIL] line with the measured quantities, then
asserts. Stochastic checks pin their seeds; thresholds were chosen against
measured distributions, not tuned to a lucky draw.
"""

import math
import time
import warnings

import numpy as np

from gammkit.basis import SmoothTermSpec
from gammkit.data import DataTable, FactorColumn
from gammkit.diagnostics import (permutation_fs_test, residual_acf_by_group,
                                 suggest_rho)
from gammkit.fitting import (ModelSpec, ParametricTerm, assemble, fit,
                             optimize_lambdas, predict, reml_score)
from gammkit.inference import ModelScore, compare_reml, nested_f_test
from gammkit.simulate import ScenarioSpec, gen_experiment
from oracles import blup_oracle, grid_reml_oracle


def _verdict(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_01_interpolation_limit_cr_k_equals_n(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    x = np.sort(rng.uniform(0.0, 1.0, 20))
    y = np.sin(2.0 * np.pi * x) + 0.3 * rng.standard_normal(20)
    tab = DataTable(columns={"y": y, "x": x}, n_rows=20)
    model = fit(ModelSpec(response="y",
                          smooth_terms=(SmoothTermSpec("x", "cr", k=20),)),
                tab, lambdas=[0.0])
    err = float(np.max(np.abs(model.fitted_values - y)))
    dt = time.perf_counter() - t0
    _verdict(capsys, "A01 interpolation at k=n, lambda=0",
             err < 1e-6 and dt < 1.0,
             f"max error {err:.2e} < 1e-06, {dt:.2f}s < 1s")


def test_02_null_space_limit_tp_is_straight_line(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    x = rng.uniform(0.0, 1.0, 80)
    y = 1.5 - 0.8 * x + 0.2 * rng.standard_normal(80)
    tab = DataTable(columns={"y": y, "x": x}, n_rows=80)
    model = fit(ModelSpec(response="y",
                          smooth_terms=(SmoothTermSpec("x", "tp", k=12),)),
                tab, lambdas=[1e12])
    b1, b0 = np.polyfit(x, y, 1)
    gap = float(np.max(np.abs(model.fitted_values - (b0 + b1 * x))))
    dt = time.perf_counter() - t0
    _verdict(capsys, "A02 heavy smoothing collapses tp to the OLS line",
             gap < 1e-6 and dt < 1.0,
             f"sup-norm gap {gap:.2e} < 1e-06, {dt:.2f}s < 1s")


def test_03_edf_monotone_with_exact_limits(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, 150)
    y = np.sin(2.0 * np.pi * x) + 0.2 * rng.standard_normal(150)
    tab = DataTable(columns={"y": y, "x": x}, n_rows=150)
    spec = ModelSpec(response="y",
                     smooth_terms=(SmoothTermSpec("x", "cr", k=10),))
    lams = [0.0] + list(np.logspace(-6.0, 12.0, 20))
    edfs, per_ok = [], True
    for lam in lams:
        m = fit(spec, tab, lambdas=[lam])
        edfs.append(m.total_edf)
        per_ok &= bool(np.all(m.edf_per_coef > -1e-8)
                       and np.all(m.edf_per_coef < 1.0 + 1e-8))
    edfs = np.asarray(edfs)
    mono = bool(np.all(np.diff(edfs) <= 1e-10))
    ends = abs(edfs[0] - 10.0) < 0.01 and abs(edfs[-1] - 2.0) < 0.01
    dt = time.perf_counter() - t0
    _verdict(capsys, "A03 edf decreases from p to the null-space dimension",
             mono and ends and per_ok and dt < 5.0,
             f"edf {edfs[0]:.4f} -> {edfs[-1]:.4f}, monotone {mono}, "
             f"per-coef in [0,1] {per_ok}, {dt:.2f}s < 5s")


def test_04_random_intercept_fit_matches_blup_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    levels = [f"g{j:02d}" for j in range(20)]
    g = FactorColumn.from_strings([lv for lv in levels for _ in range(10)])
    offsets = rng.standard_normal(20)
    y = 3.0 + np.repeat(offsets, 10) + 0.7 * rng.standard_normal(200)
    tab = DataTable(columns={"y": y, "g": g}, n_rows=200)
    oracle = blup_oracle(tab, "g", "y")
    lam = oracle.sigma2 / oracle.sigmab2
    model = fit(ModelSpec(response="y",
                          smooth_terms=(SmoothTermSpec("g",
                                                       is_random_effect=True),)),
                tab, lambdas=[lam])
    a, b = model.design_raw.col_ranges["re(g)"]
    gap = float(np.max(np.abs(model.beta[a:b] - oracle.blups)))
    mu_gap = abs(model.beta[0] - oracle.mu)
    dt = time.perf_counter() - t0
    _verdict(capsys, "A04 ridge fit at sigma2/sigmab2 reproduces BLUPs",
             gap < 1e-6 and mu_gap < 1e-6 and dt < 1.0,
             f"max BLUP gap {gap:.2e}, intercept gap {mu_gap:.2e} "
             f"< 1e-06, {dt:.2f}s < 1s")


def test_05_reml_matches_oracle_and_optimizer_brackets_grid(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 1.0, 120)
    y = np.sin(2.0 * np.pi * x) + 0.3 * rng.standard_normal(120)
    tab = DataTable(columns={"y": y, "x": x}, n_rows=120)
    des = assemble(ModelSpec(response="y",
                             smooth_terms=(SmoothTermSpec("x", "cr", k=10),)),
                   tab)
    coarse = np.linspace(-2.0, 6.0, 5)
    oracle_scores, _ = grid_reml_oracle(des, coarse)
    rel = max(abs(reml_score(des, [g]) - s) / abs(s)
              for g, s in zip(coarse, oracle_scores))
    grid = np.linspace(-12.0, 20.0, 200)
    step = grid[1] - grid[0]
    scores, imin = grid_reml_oracle(des, grid)
    search = optimize_lambdas(des)
    dist = abs(math.log(search.lambdas[0]) - grid[imin])
    better = search.score <= scores[imin] + 1e-9
    dt = time.perf_counter() - t0
    _verdict(capsys, "A05 restricted-likelihood score against a dense oracle",
             rel < 1e-6 and dist <= step + 1e-9 and better and dt < 10.0,
             f"max rel diff {rel:.2e} < 1e-06, optimizer within "
             f"{dist:.3f} <= step {step:.3f} of the grid minimum, "
             f"{dt:.2f}s < 10s")


def test_06_ar1_recovery_then_whitening_flattens_acf(capsys):
    t0 = time.perf_counter()
    table, _ = gen_experiment(ScenarioSpec(n_subjects=50, n_trials=400,
                                           rho=0.3, sigma=1.0,
                                           subject_intercept_sd=0.0, seed=11))
    sug = suggest_rho(table, ModelSpec(response="y"))
    in_range = 0.25 <= sug.rho_hat <= 0.35
    model = fit(ModelSpec(response="y", rho=sug.rho_hat), table)
    pooled = [r for r in residual_acf_by_group(model, "whitened", max_lag=1)
              if r.group == "pooled"][0]
    band = 2.0 / math.sqrt(50 * 400)
    flat = abs(pooled.acf[1]) < band
    dt = time.perf_counter() - t0
    _verdict(capsys, "A06 AR(1) rho recovery at 50x400",
             in_range and flat and dt < 60.0,
             f"rho_hat {sug.rho_hat:.4f} in [0.25, 0.35], whitened pooled "
             f"r1 {pooled.acf[1]:+.5f} inside +/-{band:.5f}, {dt:.1f}s < 60s")


def test_07_permutation_type_one_error_is_controlled(capsys):
    t0 = time.perf_counter()
    table, _ = gen_experiment(ScenarioSpec(n_subjects=4, n_trials=150,
                                           rho=0.2, sigma=1.0,
                                           subject_intercept_sd=0.3,
                                           trend="undulating",
                                           trend_amplitude=1.0, seed=4))
    with warnings.catch_warnings():
        # shuffled replicates can exhaust the lambda-search budget; harmless
        warnings.simplefilter("ignore", UserWarning)
        perm = permutation_fs_test(table, "y", n_perm=100, seed=0, k=5)
    r05 = perm.rejections_at(0.05)
    r01 = perm.rejections_at(0.01)
    dt = time.perf_counter() - t0
    _verdict(capsys, "A07 permutation test false-positive counts",
             r05 <= 10 and r01 <= 4 and perm.n_failed == 0 and dt < 300.0,
             f"{r05}/100 at alpha 0.05 (<=10), {r01}/100 at alpha 0.01 "
             f"(<=4), 0 failures, {dt:.1f}s < 300s")


def test_08_penalized_fit_beats_unpenalized_on_mse(capsys):
    t0 = time.perf_counter()
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, 200)
        truth = np.sin(2.0 * np.pi * x)
        y = truth + 0.1 * rng.standard_normal(200)
        tab = DataTable(columns={"y": y, "x": x}, n_rows=200)
        spec = ModelSpec(response="y",
                         smooth_terms=(SmoothTermSpec("x", "cr", k=20),))
        mse_sel = np.mean((fit(spec, tab).fitted_values - truth) ** 2)
        mse_raw = np.mean((fit(spec, tab, lambdas=[0.0]).fitted_values
                           - truth) ** 2)
        wins += mse_sel < mse_raw
    dt = time.perf_counter() - t0
    _verdict(capsys, "A08 smoothing-parameter selection lowers truth MSE",
             wins >= 16 and dt < 30.0,
             f"{wins}/20 replicates improved (>=16), {dt:.1f}s < 30s")


def test_09_tensor_and_isotropic_surfaces_agree(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    n = 800
    x = rng.uniform(0.0, 1.0, n)
    z = rng.uniform(0.0, 1.0, n)
    y = (np.sin(2.0 * np.pi * x) * np.cos(np.pi * z)
         + (x - 0.5) * (z - 0.5) + 0.1 * rng.standard_normal(n))
    tab = DataTable(columns={"y": y, "x": x, "z": z}, n_rows=n)
    m_te = fit(ModelSpec(response="y", smooth_terms=(
        SmoothTermSpec(("x", "z"), "tensor", k=(6, 6)),)), tab)
    m_tp = fit(ModelSpec(response="y", smooth_terms=(
        SmoothTermSpec(("x", "z"), "tp", k=30),)), tab)
    gx, gz = np.meshgrid(np.linspace(x.min(), x.max(), 40),
                         np.linspace(z.min(), z.max(), 40))
    grid = DataTable(columns={"y": np.zeros(1600), "x": gx.ravel(),
                              "z": gz.ravel()}, n_rows=1600)
    corr = float(np.corrcoef(predict(m_te, grid)[0],
                             predict(m_tp, grid)[0])[0, 1])
    dt = time.perf_counter() - t0
    _verdict(capsys, "A09 tensor vs isotropic surface on a 40x40 grid",
             corr > 0.98 and dt < 30.0,
             f"correlation {corr:.5f} > 0.98, {dt:.1f}s < 30s")


def test_10_interaction_decomposition_reproduces_full_surface(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    n = 400
    x = rng.uniform(0.0, 1.0, n)
    z = rng.uniform(0.0, 1.0, n)
    y = (np.sin(2.0 * np.pi * x) + (z - 0.5) ** 2 + 0.3 * x * z
         + 0.1 * rng.standard_normal(n))
    tab = DataTable(columns={"y": y, "x": x, "z": z}, n_rows=n)
    m_full = fit(ModelSpec(response="y", smooth_terms=(
        SmoothTermSpec(("x", "z"), "tensor", k=(5, 5)),)), tab,
        lambdas=[0.0, 0.0])
    m_dec = fit(ModelSpec(response="y", smooth_terms=(
        SmoothTermSpec("x", "cr", k=5),
        SmoothTermSpec("z", "cr", k=5),
        SmoothTermSpec(("x", "z"), "ti", k=(5, 5)),)), tab,
        lambdas=[0.0, 0.0, 0.0, 0.0])
    gap = float(np.max(np.abs(m_full.fitted_values - m_dec.fitted_values)))
    dt = time.perf_counter() - t0
    _verdict(capsys, "A10 main + main + interaction equals the full tensor",
             gap < 1e-6 and dt < 30.0,
             f"max fitted-value gap {gap:.2e} < 1e-06, {dt:.2f}s < 30s")


def test_11_score_comparison_arithmetic(capsys):
    res = compare_reml(ModelScore(reml=-12495.77, param_count=5),
                       ModelScore(reml=-13422.25, param_count=12))
    ok = abs(res.stat - 926.5) < 0.05 and res.df == 7 and res.p < 1e-100
    _verdict(capsys, "A11 score-difference test from stored inputs",
             ok, f"stat {res.stat:.2f} ~ 926.5, df {res.df} == 7, "
                 f"p {res.p:.2e}")


def test_12_nested_f_test_null_rejection_rate(capsys):
    t0 = time.perf_counter()
    rej = 0
    for rep in range(500):
        rng = np.random.default_rng([12, 0, rep])
        x = rng.uniform(0.0, 1.0, 200)
        z = rng.uniform(0.0, 1.0, 200)
        y = np.sin(2.0 * np.pi * x) + 0.5 * rng.standard_normal(200)
        tab = DataTable(columns={"y": y, "x": x, "z": z}, n_rows=200)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            m0 = fit(ModelSpec(response="y", smooth_terms=(
                SmoothTermSpec("x", "cr", k=8),)), tab)
            m1 = fit(ModelSpec(response="y",
                               parametric_terms=(ParametricTerm("z"),),
                               smooth_terms=(SmoothTermSpec("x", "cr", k=8),)),
                     tab)
        _, _, _, p = nested_f_test(m0, m1)
        rej += p < 0.05
    rate = rej / 500.0
    dt = time.perf_counter() - t0
    _verdict(capsys, "A12 incremental F test on a pure-noise term",
             0.02 <= rate <= 0.09 and dt < 300.0,
             f"rejection rate {rate:.4f} in [0.02, 0.09], {dt:.1f}s < 300s")


def test_13_objective_gradient_matches_finite_differences(capsys):
    rng = np.random.default_rng(7)
    n = 300
    subj = FactorColumn.from_strings([f"s{i // 50}" for i in range(n)])
    x = rng.uniform(0.0, 1.0, n)
    cond = FactorColumn.from_strings(["ab"[i % 2] for i in range(n)])
    y = (np.sin(2.0 * np.pi * x) + 0.4 * (np.arange(n) % 2 - 0.5)
         + 0.15 * rng.standard_normal(n))
    tab = DataTable(columns={"y": y, "x": x, "cond": cond, "subj": subj,
                             "trial": np.tile(np.arange(50.0), 6)},
                    n_rows=n, series_key="subj", order_key="trial")
    spec = ModelSpec(response="y",
                     parametric_terms=(ParametricTerm("cond"),),
                     smooth_terms=(SmoothTermSpec("x", "cr", k=10),
                                   SmoothTermSpec("subj",
                                                  is_random_effect=True)),
                     rho=0.25)
    model = fit(spec, tab)
    des = model.design
    Xw, yw, lams = des.X, des.y, model.lambdas
    embedded = []
    for entry in des.penalties:
        S = np.zeros((des.p, des.p))
        sl = slice(entry.offset, entry.offset + entry.p_block)
        S[sl, sl] = entry.S
        embedded.append(S)

    def objective(b):
        r = yw - Xw @ b
        return float(r @ r) + sum(lam * float(b @ (S @ b))
                                  for lam, S in zip(lams, embedded))

    def gradient(b):
        g = 2.0 * (Xw.T @ (Xw @ b - yw))
        for lam, S in zip(lams, embedded):
            g += 2.0 * lam * (S @ b)
        return g

    beta = model.beta
    g_hat = gradient(beta)
    scale = float(np.linalg.norm(2.0 * Xw.T @ yw))
    hess = 2.0 * (Xw.T @ Xw + sum(lam * S for lam, S in zip(lams, embedded)))
    f_hat = objective(beta)
    stationary = float(np.max(np.abs(g_hat))) < 1e-8 * scale
    # the objective is exactly quadratic, so a curvature-balanced step keeps
    # central differences at rounding-level error with no truncation term
    drng = np.random.default_rng(99)
    max_at_beta = 0.0
    for _ in range(5):
        d = drng.standard_normal(beta.size)
        d /= np.linalg.norm(d)
        eps = math.sqrt(2.0 * (abs(f_hat) + 1.0) / float(d @ (hess @ d)))
        fd = (objective(beta + eps * d) - objective(beta - eps * d)) / (2 * eps)
        max_at_beta = max(max_at_beta, abs(float(g_hat @ d) - fd) / scale)
    off = beta + drng.standard_normal(beta.size)
    g_off = gradient(off)
    max_off = 0.0
    for _ in range(5):
        d = drng.standard_normal(beta.size)
        d /= np.linalg.norm(d)
        a = float(g_off @ d)
        fd = (objective(off + 1e-4 * d) - objective(off - 1e-4 * d)) / 2e-4
        max_off = max(max_off, abs(a - fd) / max(abs(a), abs(fd)))
    _verdict(capsys, "A13 analytic gradient against central differences",
             stationary and max_at_beta < 1e-4 and max_off < 1e-4,
             f"stationary at the solution (|g|/scale {np.max(np.abs(g_hat)) / scale:.1e}), "
             f"rel err {max_at_beta:.1e} at the solution and {max_off:.1e} "
             f"away from it, both < 1e-04")
