"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The Monte Carlo
criteria (3-6) use 1,000 replicates at population size 100,000 and take
a few minutes; everything else runs in seconds to a couple of minutes.
"""

import sys

import numpy as np
import pytest

from svyerr.cli import main
from svyerr.design import SurveyDesign
from svyerr.families import Family, FamilyKind, Loss, LossKind
from svyerr.fit import fit_weighted_glm, sandwich_variance
from svyerr.penalty import (
    cov_lambda_y_elementwise,
    glm_rule,
    hte_analytic,
    hte_bootstrap,
)
from svyerr.rules import _neighbour_weights, _standardize, knn_error_report
from svyerr.simulate import ScenarioSpec, run_optimism_experiment
from test_rules import _dense_neighbour_weights, _summed_shells
from test_simulate import brute_force_optimism, run_relative_error_experiment

GAUSS = Family(FamilyKind.GAUSSIAN)
BERN = Family(FamilyKind.BERNOULLI)
POIS = Family(FamilyKind.POISSON)
SQERR = Loss(LossKind.SQUARED_ERROR)

SEED = 20260824


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    # write to the real stdout so the line survives pytest's capture; the
    # leading newline detaches it from the in-progress verbose test line
    print(f"\n{status} criterion {number}: {name}{suffix}",
          file=sys.__stdout__, flush=True)
    assert ok, f"criterion {number}: {name}{suffix}"


def _random_glm(rng):
    fams = (GAUSS, BERN, POIS)
    family = fams[int(rng.integers(3))]
    n = int(rng.integers(30, 201))
    p = int(rng.integers(2, 6))
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    eta = X @ (rng.normal(size=p) * 0.3)
    if family.kind is FamilyKind.GAUSSIAN:
        y = eta + rng.normal(size=n)
    elif family.kind is FamilyKind.BERNOULLI:
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    else:
        y = rng.poisson(np.exp(eta)).astype(float)
    design = SurveyDesign(pi=rng.uniform(0.05, 1.0, size=n))
    return X, y, family, design


def test_criterion_1_trace_penalty_equals_elementwise_covariance():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    checked = 0
    while checked < 500:
        X, y, family, design = _random_glm(rng)
        try:
            f = fit_weighted_glm(X, y, family, design)
        except Exception:
            continue
        tr = sandwich_variance(f).trace_JV
        cov = cov_lambda_y_elementwise(f)
        elementwise = float(design.weights @ cov) / (
            design.pop_size * f.family.dispersion
        )
        denom = max(abs(tr), abs(elementwise), 1e-300)
        worst = max(worst, abs(tr - elementwise) / denom)
        checked += 1
    _verdict(
        1,
        "trace penalty matches elementwise covariance on 500 random fits",
        worst <= 1e-8,
        f"worst relative gap {worst:.2e}",
    )


def test_criterion_2_squared_error_estimate_is_scaled_deviance_criterion():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(30, 120))
        p = int(rng.integers(2, 5))
        X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        y = X @ (rng.normal(size=p) * 0.5) + rng.normal(size=n)
        design = SurveyDesign(pi=rng.uniform(0.1, 1.0, size=n))
        f = fit_weighted_glm(X, y, GAUSS, design)
        err_hat = hte_analytic(f, loss=SQERR).err_hat
        scaled = hte_analytic(f).daic * f.family.dispersion
        worst = max(worst, abs(err_hat - scaled) / max(abs(scaled), 1e-300))
    _verdict(
        2,
        "squared-error estimate equals deviance criterion times sigma^2",
        worst <= 1e-10,
        f"worst relative gap {worst:.2e}",
    )


def _scenario_aggregates(sid):
    spec = ScenarioSpec(id=sid, pop_size=100_000, sample_size=1_000)
    return run_optimism_experiment(spec, reps=1_000, seed=SEED).aggregates()


def test_criterion_3_gaussian_homoskedastic_benchmark():
    agg = _scenario_aggregates("s1")
    omega = agg["omega_hat"]["mean"]
    opt = agg["optimism"]["mean"]
    ok = 0.003 <= omega <= 0.005 and abs(opt - 0.004) <= 0.003
    _verdict(
        3,
        "homoskedastic gaussian scenario optimism benchmark",
        ok,
        f"mean omega {omega:.4f}, mean optimism {opt:.4f}",
    )


def test_criterion_4_gaussian_index_heteroskedastic_benchmark():
    agg = _scenario_aggregates("s3")
    omega = agg["omega_hat"]["mean"]
    _verdict(
        4,
        "index-driven heteroskedastic gaussian benchmark",
        0.36 <= omega <= 0.56,
        f"mean omega {omega:.4f}",
    )


def test_criterion_5_bernoulli_benchmark():
    agg = _scenario_aggregates("s2_bern")
    omega = agg["omega_hat"]["mean"]
    _verdict(
        5,
        "bernoulli scenario optimism benchmark",
        0.000 <= omega <= 0.002,
        f"mean omega {omega:.4f}",
    )


def test_criterion_6_inverse_size_failure_mode_reproduced():
    agg = _scenario_aggregates("s4b_gauss")
    opt = agg["optimism"]["mean"]
    omega = agg["omega_hat"]["mean"]
    ok = opt < 0.0 and omega > 0.0
    _verdict(
        6,
        "inverse-size weighting yields negative optimism with positive estimate",
        ok,
        f"mean optimism {opt:.4f}, mean omega {omega:.4f}",
    )


def test_criterion_7_uniform_gaussian_penalty_closed_form():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for _ in range(20):
        n, p = int(rng.integers(30, 100)), int(rng.integers(2, 5))
        X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        y = X @ (rng.normal(size=p) * 0.5) + rng.normal(size=n)
        f = fit_weighted_glm(X, y, GAUSS, SurveyDesign(pi=np.full(n, n / (5 * n)), pop_size=5 * n))
        omega = hte_analytic(f, loss=SQERR, model_based=True).omega_hat
        target = 2.0 * p * f.family.dispersion / n
        worst = max(worst, abs(omega - target) / target)
    _verdict(
        7,
        "uniform-weight gaussian penalty equals 2 p sigma^2 / n",
        worst <= 1e-12,
        f"worst relative gap {worst:.2e}",
    )


def test_criterion_8_small_population_design_unbiasedness():
    res = brute_force_optimism(pop_size=8, sample_size=4, draws=2_000, seed=SEED)
    gap = abs(res.e_err_hat - res.e_g_err)
    _verdict(
        8,
        "enumerated design expectation matches superpopulation error",
        gap <= 3.0 * res.mc_se,
        f"gap {gap:.4f} vs 3 MC SE {3.0 * res.mc_se:.4f}",
    )


def test_criterion_9_bootstrap_matches_analytic_on_weighted_logistic():
    rng = np.random.default_rng(SEED + 3)
    n = 500
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    eta = X @ np.array([-0.2, 0.8, -0.5])
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    design = SurveyDesign(pi=rng.uniform(0.1, 1.0, size=n))
    f = fit_weighted_glm(X, y, BERN, design)
    loss = Loss(LossKind.DEVIANCE, BERN)
    analytic = hte_analytic(f, loss=loss).omega_hat
    rule = glm_rule(X, design, BERN)
    boot = hte_bootstrap(rule, f, B=2_000, seed=SEED, loss=loss).omega_hat
    rel = abs(boot - analytic) / abs(analytic)
    _verdict(
        9,
        "bootstrap penalty within 10% of analytic on weighted logistic",
        rel <= 0.10,
        f"analytic {analytic:.5f}, bootstrap {boot:.5f}, gap {rel:.1%}",
    )


def test_criterion_10_outperforms_naive_criterion_for_small_oversampled_studies():
    rows = run_relative_error_experiment([50, 500, 5_000], reps=100, seed=SEED)
    ratios = [r["ratio"] for r in rows]
    small = rows[0]
    ok = (
        small["rel_err_hte"] <= small["rel_err_aic"]
        and ratios[0] < ratios[1] < ratios[2]
    )
    _verdict(
        10,
        "weighted estimator beats naive criterion at n=50, advantage shrinks with n",
        ok,
        "ratios " + ", ".join(f"{r:.5f}" for r in ratios)
        + "; MC SE of hte/aic/paired difference "
        + ", ".join(f"{r['mc_se_hte']:.5f}/{r['mc_se_aic']:.5f}/{r['mc_se_diff']:.5f}"
                    for r in rows),
    )


def test_criterion_11_knn_error_table_shape():
    ok_seeds = same_sets = 0
    k_list = [10, 20, 30, 40]
    for seed in range(20):
        rng = np.random.default_rng([77, seed])
        n = 2_000
        X = rng.normal(size=(n, 2))
        prob = 1.0 / (1.0 + np.exp(-0.3 * (0.2 + X[:, 0] + X[:, 1])))
        y = (rng.random(n) < prob).astype(float)
        design = SurveyDesign(pi=rng.uniform(0.1, 1.0, size=n))
        reports = knn_error_report(X, y, design, k_list, B=100, seed=seed)
        errs = [r.err_weighted for _, r in reports]
        omegas = [r.omega_hat for _, r in reports]
        inc = all(a <= b + 1e-12 for a, b in zip(errs, errs[1:]))
        dec = all(a >= b - 1e-12 for a, b in zip(omegas, omegas[1:]))
        ok_seeds += inc and dec
        # the tree's shells, summed up to each k, are the dense build's
        # neighbour matrices, entry for entry
        Z = _standardize(X, design.weights)[0]
        W = _summed_shells(_neighbour_weights(Z, design.weights, k_list))
        dense = [_dense_neighbour_weights(Z, design.weights, k, Z) for k in k_list]
        same_sets += all(
            np.array_equal(Wk.indptr, D.indptr) and np.array_equal(Wk.indices, D.indices)
            and np.array_equal(Wk.data, D.data)
            for Wk, D in zip(W, dense)
        )
    _verdict(
        11,
        "kNN error rises and optimism falls with neighbour count",
        ok_seeds >= 16 and same_sets == 20,
        f"{ok_seeds}/20 seeds monotone; neighbour matrices equal the dense build on {same_sets}/20",
    )


def test_criterion_12_seeded_runs_byte_identical(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        sim_csv = tmp_path / f"sim_{tag}.csv"
        sim_json = tmp_path / f"sim_{tag}.json"
        code = main([
            "simulate", "--scenario", "s1", "--pop", "20000", "--n", "400",
            "--reps", "5", "--seed", "123",
            "--out-csv", str(sim_csv), "--out-json", str(sim_json),
        ])
        assert code == 0
        outputs.append((sim_csv.read_bytes(), sim_json.read_bytes()))
    sim_ok = outputs[0] == outputs[1]

    rng = np.random.default_rng(SEED + 4)
    n = 80
    x = rng.normal(size=n)
    y = 0.5 + x + rng.normal(size=n)
    w = rng.uniform(1.0, 3.0, size=n)
    data = tmp_path / "data.csv"
    data.write_text(
        "y,x,w\n" + "\n".join(f"{a:.17g},{b:.17g},{c:.17g}" for a, b, c in zip(y, x, w))
    )
    fits = []
    for tag in ("first", "second"):
        out = tmp_path / f"fit_{tag}.json"
        code = main([
            "fit", "--data", str(data), "--outcome", "y", "--covariates", "x",
            "--weights", "w", "--family", "gaussian",
            "--method", "hte-bootstrap", "--B", "30", "--interval-runs", "5",
            "--seed", "9", "--out-json", str(out),
        ])
        assert code == 0
        fits.append(out.read_bytes())
    boot_ok = fits[0] == fits[1]
    _verdict(
        12,
        "seeded simulation and bootstrap outputs are byte-identical",
        sim_ok and boot_ok,
        f"simulate identical: {sim_ok}, bootstrap identical: {boot_ok}",
    )
