"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one PASS/FAIL line (collected into the terminal summary).
The end-to-end criteria are stochastic medians over the five seeds 0..4;
everything else is deterministic.
"""
import math
import stat
import sys
import textwrap
import time
from pathlib import Path

import numpy as np

import dyncal
from conftest import record_acceptance
from dyncal.acquisition import ContourTarget, expected_improvement
from dyncal.calibrate import MsceConfig, hm_run, msce_run, write_run_artifacts, \
    resolved_config_dict
from dyncal.designs import random_lhd
from dyncal.gp import build_gp_model, fit_gp, predict_batch
from dyncal.simulators import (EASOM_SPEC, ExternalSimulator, get_simulator,
                               target_series)
from dyncal.spline_dps import TargetSeries, build_dps, fit_cubic_spline, \
    greedy_knot_search

SEEDS = range(5)


def _report(num, passed, detail):
    status = "PASS" if passed else "FAIL"
    record_acceptance(f"ACCEPTANCE {num:02d} {status}: {detail}")
    return passed


def _within_slack(got, want, slack=1):
    return len(got) == len(want) and all(abs(g - w) <= slack
                                         for g, w in zip(got, want))


def _interpolates(model, X, y):
    """Nugget-aware interpolation check: the fitted surrogate reproduces its
    training responses up to the exact identity pred - y = -nugget * alpha
    (in standardized units), plus rounding slack."""
    means, s2 = predict_batch(model, X)
    if model.degenerate:
        return np.array_equal(means, np.full(len(y), model.mu_hat)) and np.all(s2 == 0)
    scale = max(np.std(y), 1e-300)
    tol = model.nugget * np.abs(model.alpha) * model.y_scale + 1e-9 * scale
    return bool(np.all(np.abs(means - y) <= tol) and np.all(s2 >= 0.0))


def test_criterion_01_easom_knot_sequence():
    t0 = time.time()
    result = build_dps(TargetSeries(target_series("easom")), k_max=10)
    elapsed = time.time() - t0
    want = [145, 37, 132, 47, 120, 55, 113, 63, 104, 174]
    ok = (_within_slack(result.ordered_knots, want)
          and result.k_selected == 3 and elapsed < 60)
    assert _report(1, ok, f"easom knots {result.ordered_knots}, "
                          f"k={result.k_selected}, {elapsed:.1f}s")


def test_criterion_02a_harari_steinberg_dps():
    t0 = time.time()
    result = build_dps(TargetSeries(target_series("harari_steinberg")), k_max=10)
    elapsed = time.time() - t0
    ok = _within_slack(result.dps, [118, 26, 95]) and elapsed < 60
    assert _report(2, ok, f"harari_steinberg dps {result.dps}, {elapsed:.1f}s")


def test_criterion_02b_bliznyuk_dps():
    # Known irreproducible from the published construction: the same code
    # that reproduces the other two targets exactly yields {32, 8, 70, 14}
    # here (size 4 matches). See the project decision log for the analysis.
    t0 = time.time()
    result = build_dps(TargetSeries(target_series("bliznyuk")), k_max=10)
    elapsed = time.time() - t0
    ok = _within_slack(result.dps, [30, 7, 61, 14]) and elapsed < 60
    assert _report(2, ok, f"bliznyuk dps {result.dps} vs published "
                          f"[30, 7, 61, 14], {elapsed:.1f}s")


def test_criterion_03_ei_monte_carlo_sweep():
    t0 = time.time()
    n_draws = 10_000_000
    rng = np.random.default_rng(2024)
    worst = 0.0
    ok = True
    for _ in range(50):
        s = float(10.0 ** rng.uniform(-2, 1))
        yhat = float(rng.uniform(-5, 5))
        a = yhat + float(rng.uniform(-4, 4)) * s
        alpha = float(rng.uniform(0.3, 2.0))
        target = ContourTarget(a=a, alpha=alpha)
        analytic = expected_improvement(yhat, s, target)
        draws = rng.normal(yhat, s, size=n_draws)
        eps2 = (alpha * s) ** 2
        imp = eps2 - np.minimum((draws - a) ** 2, eps2)
        mc = float(np.mean(imp))
        se = float(np.std(imp) / math.sqrt(n_draws))
        # the eps^2 sliver covers band probabilities below MC resolution
        tol = 3 * se + (10.0 / n_draws) * eps2
        if abs(analytic - mc) > tol:
            ok = False
        if se > 0:
            worst = max(worst, abs(analytic - mc) / (se + 1e-300))
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    assert _report(3, ok, f"50 tuples vs 1e7-draw MC, worst z={worst:.2f}, "
                          f"{elapsed:.0f}s")


def test_criterion_04_gp_dense_oracle_and_invariants():
    rng = np.random.default_rng(7)
    worst_rel = 0.0
    ok = True
    for _ in range(100):
        n = int(rng.integers(4, 21))
        d = int(rng.integers(1, 6))
        X = random_lhd(n, d, rng)
        y = np.sin(3 * X[:, 0]) + X @ rng.uniform(-2, 2, size=d)
        theta = 10.0 ** rng.uniform(-1, 1, size=d)

        model = build_gp_model(X, y, theta, nugget=0.0)
        x_star = rng.uniform(size=d)
        mean, s2 = predict_batch(model, x_star[None])

        R = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                R[i, j] = math.exp(-np.sum(theta * np.abs(X[i] - X[j]) ** 1.95))
        Ri = np.linalg.inv(R)
        ones = np.ones(n)
        mu = (ones @ Ri @ y) / (ones @ Ri @ ones)
        resid = y - mu
        sigma2 = resid @ Ri @ resid / n
        r = np.array([math.exp(-np.sum(theta * np.abs(x_star - X[i]) ** 1.95))
                      for i in range(n)])
        o_mean = mu + r @ Ri @ resid
        o_s2 = max(sigma2 * (1.0 - r @ Ri @ r), 0.0)

        scale = max(abs(o_mean), np.std(y), 1e-12)
        rel_mean = abs(float(mean[0]) - o_mean) / scale
        rel_s2 = abs(float(s2[0]) - o_s2) / max(o_s2, sigma2, 1e-12)
        worst_rel = max(worst_rel, rel_mean, rel_s2)
        if rel_mean > 1e-8 or rel_s2 > 1e-8:
            ok = False

        if not _interpolates(fit_gp(X, y), X, y):
            ok = False
    assert _report(4, ok, f"100 datasets vs dense oracle, worst rel err "
                          f"{worst_rel:.2e}; interpolation and s2>=0 held")


def _e2e_medians(name, n0, N, time_limit, num):
    t0 = time.time()
    g0 = target_series(name)
    rmses, r2s, xs = [], [], []
    for seed in SEEDS:
        sim = get_simulator(name)
        res = msce_run(sim, g0, MsceConfig(n0=n0, N=N, seed=seed))
        assert res.budget_used == N
        rmses.append(res.metrics["rmse"])
        r2s.append(res.metrics["r2"])
        xs.append(res.x_opt)
        # every refit surrogate interpolates and has nonnegative variance
        for t in res.dps.dps:
            y_t = res.training_responses[:, t - 1]
            assert _interpolates(fit_gp(res.training_inputs, y_t),
                                 res.training_inputs, y_t)
    elapsed = time.time() - t0
    return (float(np.median(rmses)), float(np.median(r2s)), xs, elapsed,
            elapsed < time_limit)


def test_criterion_05_easom_end_to_end():
    med_rmse, med_r2, xs, elapsed, in_time = _e2e_medians("easom", 15, 50, 600, 5)
    hits = sum(np.max(np.abs(x - np.array([0.8, 0.2]))) <= 0.05 for x in xs)
    ok = med_rmse <= 1e-4 and med_r2 >= 0.999 and hits >= 3 and in_time
    assert _report(5, ok, f"easom median rmse {med_rmse:.3g} (<=1e-4), "
                          f"median r2 {med_r2:.6f} (>=0.999), x_opt hits {hits}/5, "
                          f"{elapsed:.0f}s")


def test_criterion_06_harari_steinberg_end_to_end():
    med_rmse, med_r2, _, elapsed, in_time = _e2e_medians(
        "harari_steinberg", 18, 66, 900, 6)
    ok = med_rmse <= 0.5 and med_r2 >= 0.99 and in_time
    assert _report(6, ok, f"harari_steinberg median rmse {med_rmse:.3g} (<=0.5), "
                          f"median r2 {med_r2:.5f} (>=0.99), {elapsed:.0f}s")


def test_criterion_07_bliznyuk_end_to_end():
    med_rmse, med_r2, _, elapsed, in_time = _e2e_medians(
        "bliznyuk", 30, 120, 1200, 7)
    ok = med_rmse <= 0.1 and med_r2 >= 0.999 and in_time
    assert _report(7, ok, f"bliznyuk median rmse {med_rmse:.3g} (<=0.1), "
                          f"median r2 {med_r2:.6f} (>=0.999), {elapsed:.0f}s")


def test_criterion_08_history_matching_sanity():
    g0 = target_series("easom")
    dps = build_dps(TargetSeries(g0), 10)
    good = 0
    budgets = []
    for seed in SEEDS:
        sim = get_simulator("easom")
        config = MsceConfig(n0=15, N=230, seed=seed)
        res = hm_run(sim, g0, dps, n0=15, cutoff=0.5, config=config)
        budgets.append(res.budget_used)
        stages = max((rec["stage"] for rec in res.run_log), default=0)
        audit = all(rec["im_max"] <= 0.5 for rec in res.run_log)
        assert audit, "augmented point exceeded the cutoff at selection time"
        assert stages <= config.hm_stage_limit
        if 60 <= res.budget_used <= 600 and res.metrics["rmse"] <= 1e-3:
            good += 1
    ok = good >= 3
    assert _report(8, ok, f"hm budgets {budgets}, {good}/5 seeds in window "
                          f"with rmse<=1e-3, audits clean")


def test_criterion_09_budget_exactness():
    ok = True
    details = []
    for name, n0, N in (("easom", 6, 12), ("harari_steinberg", 6, 12),
                        ("bliznyuk", 7, 14)):
        sim = get_simulator(name)
        res = msce_run(sim, target_series(name),
                       MsceConfig(n0=n0, N=N, seed=1, M=150, grid_size=300,
                                  design_iterations=200, k_max=4))
        details.append(f"{name}:{sim.calls}=={N}")
        if sim.calls != N or res.budget_used != N:
            ok = False
    assert _report(9, ok, f"simulator call counters exact: {', '.join(details)}")


def test_criterion_10_determinism_result_json(tmp_path):
    ok = True
    for name, n0, N in (("easom", 6, 12), ("harari_steinberg", 6, 12),
                        ("bliznyuk", 7, 14)):
        payloads = []
        for run in range(2):
            sim = get_simulator(name)
            config = MsceConfig(n0=n0, N=N, seed=5, M=150, grid_size=300,
                                design_iterations=200, k_max=4)
            res = msce_run(sim, target_series(name), config)
            out = tmp_path / f"{name}_{run}"
            write_run_artifacts(out, res,
                                resolved_config_dict(config,
                                                     extra={"simulator": name}),
                                sim)
            payloads.append((out / "result.json").read_bytes())
        if payloads[0] != payloads[1]:
            ok = False
    assert _report(10, ok, "re-runs byte-identical result.json for all three "
                           "bundled simulators")


def test_criterion_11_greedy_stage_one_oracle():
    ok = True
    details = []
    for name in ("easom", "harari_steinberg", "bliznyuk"):
        series = TargetSeries(target_series(name))
        knots, _ = greedy_knot_search(series, k_max=1)
        best_idx, best_mse = None, np.inf
        for cand in range(2, len(series)):
            mse = fit_cubic_spline(series, [cand]).mse
            if mse < best_mse:
                best_mse, best_idx = mse, cand
        details.append(f"{name}:{knots[0]}")
        if knots[0] != best_idx:
            ok = False
    assert _report(11, ok, f"stage-1 greedy equals exhaustive scan "
                           f"({', '.join(details)})")


def test_criterion_12_external_simulator_round_trip(tmp_path):
    # the wrapper runs in a subdirectory of the exchange dir, so a relative
    # PYTHONPATH entry would not find dyncal there; name this copy absolutely
    package_parent = str(Path(dyncal.__file__).resolve().parent.parent)
    wrapper = tmp_path / "easom_wrapper.py"
    wrapper.write_text(f"#!{sys.executable}\nimport sys\nsys.path.insert(0, {package_parent!r})\n"
                       + textwrap.dedent("""
        import csv
        import numpy as np
        from dyncal.simulators import EASOM_SPEC, easom

        with open("input.csv") as fh:
            rows = list(csv.reader(fh))
        x = [float(v) for v in rows[1]]
        values = easom(x, EASOM_SPEC.time_grid)
        with open("output.csv", "w") as fh:
            fh.write("t,value\\n")
            for t, v in zip(EASOM_SPEC.time_grid, values):
                fh.write(f"{t:.17g},{v:.17g}\\n")
    """))
    wrapper.chmod(wrapper.stat().st_mode | stat.S_IEXEC)
    external = ExternalSimulator(EASOM_SPEC, [str(wrapper)], tmp_path / "xchg")
    inprocess = get_simulator("easom")

    rng = np.random.default_rng(99)
    ok = True
    for _ in range(100):
        x = rng.uniform(size=2)
        got = external.run(x)
        want = inprocess.run(x)
        # CSV round-trip at 17 significant digits is exact for float64
        want_rt = np.array([float(f"{v:.17g}") for v in want])
        if not np.array_equal(got, want_rt):
            ok = False
            break
    assert _report(12, ok, "external easom bitwise-equal to in-process over "
                           "100 inputs after 17-digit CSV round-trip")
