import json
import math
import stat
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_toy_simulator, toy_response
from dyncal.acquisition import ContourTarget
from dyncal.calibrate import (DUPLICATE_TOL, BudgetError, MsceConfig, _best_candidate,
                              _is_duplicate, _Runs, extract_solution, hm_run, msce_run,
                              polish, resolved_config_dict, solve_scalar_contour,
                              write_run_artifacts)
from dyncal.designs import maximin_lhd, maxpro_lhd, random_lhd
from dyncal.gp import fit_gp, predict_batch
from dyncal.simulators import (EASOM_SPEC, ExternalSimulator, Simulator, SimulatorSpec,
                               bliznyuk, easom, get_simulator, harari_steinberg,
                               target_series)
from dyncal.spline_dps import TargetSeries, build_dps


def small_config(**overrides):
    defaults = dict(n0=6, N=14, seed=3, M=150, grid_size=400,
                    design_iterations=300, k_max=3)
    defaults.update(overrides)
    return MsceConfig(**defaults)


def toy_target(sim, x0=(0.62, 0.31)):
    """The toy simulator's series at x0, from its closed form: no run."""
    return toy_response(np.asarray(x0, dtype=float), sim.spec.time_grid)


def closed_form(name, x_scaled):
    """A bundled simulator's series at a scaled input, from its closed form: no run."""
    spec = get_simulator(name).spec
    func = {"easom": easom, "harari_steinberg": harari_steinberg, "bliznyuk": bliznyuk}[name]
    return np.asarray(func(spec.unscale(x_scaled), spec.time_grid), dtype=float)


def test_config_validation():
    with pytest.raises(BudgetError):
        MsceConfig(n0=10, N=10)
    with pytest.raises(BudgetError):
        MsceConfig(n0=1, N=5)
    with pytest.raises(ValueError):
        MsceConfig(n0=5, N=10, epsilon=0.0)
    with pytest.raises(ValueError):
        MsceConfig(n0=5, N=10, M=50)
    for k_max in (2.0, True):  # None is the default knot budget, any other k_max an integer
        with pytest.raises(ValueError, match=f"k_max must be an integer, got {k_max!r}"):
            MsceConfig(n0=5, N=10, k_max=k_max)
    assert MsceConfig(n0=5, N=10).k_max is None


@pytest.mark.parametrize("alpha", [0.0, -1.0, 10.000001, 1e308])
def test_alpha_outside_its_range_is_refused(alpha):
    """One check serves the config and the EI target: 0 < alpha <= 10."""
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 10\]"):
        MsceConfig(n0=5, N=10, alpha=alpha)
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 10\]"):
        ContourTarget(a=0.0, alpha=alpha)
    MsceConfig(n0=5, N=10, alpha=10)  # the bound itself is accepted
    ContourTarget(a=0.0, alpha=10)


def sorted_pick(ei, cands, X):
    """The first candidate of the stable descending EI order that duplicates no row of X."""
    return next((int(i) for i in np.argsort(-ei, kind="stable")
                 if not _is_duplicate(cands[i], X)), None)


def test_best_candidate_is_first_non_duplicate_of_stable_order():
    rng = np.random.default_rng(0)
    cands = rng.uniform(size=(8, 2))
    X = rng.uniform(size=(5, 2))
    X_dup = np.vstack([X, cands[[2, 5]]])  # candidates 2 and 5 are training points
    cases = [
        np.array([0.1, 0.4, 0.9, 0.2, 0.9, 0.9, 0.0, 0.3]),  # tied maxima
        np.array([0.1, 0.4, 0.9, 0.2, 0.5, 0.6, 0.0, 0.3]),  # unique maximum
        np.zeros(8),  # all zero
        -np.zeros(8),  # all negative zero
        np.array([0.0, -0.0, 0.0, 0.5, 0.5, 0.1, 0.0, 0.5]),
        np.array([0.1, np.nan, 0.9, 0.2, np.nan, 0.9, 0.0, 0.3]),  # NaN sorts last
        np.full(8, np.nan),
        np.array([0.1, 0.4, 0.9, 0.2, 0.5, 0.9, 0.0, 0.5]),  # both maxima duplicated in X_dup
    ]
    for ei in cases:
        for train in (X, X_dup):
            want = sorted_pick(ei, cands, train)
            assert _best_candidate(ei, cands, train) == want
    # duplicates at the maximum: the unique one, one of three tied, both of two tied
    assert _best_candidate(cases[1], cands, X_dup) == 4
    assert _best_candidate(cases[0], cands, X_dup) == 4
    assert _best_candidate(cases[-1], cands, X_dup) == 4
    assert _best_candidate(cases[2], cands, X_dup) == 0


def test_best_candidate_all_duplicates_is_runtime_error():
    cands = np.random.default_rng(1).uniform(size=(4, 2))
    with pytest.raises(RuntimeError, match="all candidates duplicate"):
        _best_candidate(np.array([0.3, 0.1, 0.3, 0.0]), cands, cands[::-1].copy())


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31), n_levels=st.integers(1, 4), n_dup=st.integers(0, 12))
def test_best_candidate_matches_stable_order_on_random_ties(seed, n_levels, n_dup):
    rng = np.random.default_rng(seed)
    cands = rng.uniform(size=(12, 3))
    ei = rng.integers(0, n_levels, size=12) / 4.0  # few distinct values, many ties
    X = np.vstack([rng.uniform(size=(3, 3)), cands[rng.permutation(12)[:n_dup]]])
    want = sorted_pick(ei, cands, X)
    if want is None:
        with pytest.raises(RuntimeError):
            _best_candidate(ei, cands, X)
    else:
        assert _best_candidate(ei, cands, X) == want


def test_solve_scalar_contour_zero_budget():
    sim = make_toy_simulator()
    config = small_config()
    X = random_lhd(5, 2, seed=0)
    runs = _Runs(sim, X)
    assert solve_scalar_contour(runs, 20, 1.0, 0, config, problem_index=1) is None
    assert np.array_equal(runs.X, X)
    assert np.array_equal(runs.Y, [toy_target(sim, x) for x in X])
    assert sim.calls == 5
    assert runs.origins == [0] * 5
    assert runs.log == []


def test_solve_scalar_contour_budget_and_interpolation():
    sim = make_toy_simulator()
    config = small_config()
    target = toy_target(sim)
    runs = _Runs(sim, random_lhd(6, 2, seed=1))
    solve_scalar_contour(runs, 20, float(target[19]), 3, config, problem_index=1)
    X2, Y2, log = runs.X, runs.Y, runs.log
    assert X2.shape == (9, 2)
    assert Y2.shape == (9, sim.spec.L)
    assert sim.calls == 9
    assert len(log) == 3
    assert all(rec["t_star"] == 20 for rec in log)
    # trace record i is the paid run at training row 6 + i
    assert [rec["iteration"] for rec in log] == [7, 8, 9]
    assert all(rec["problem"] == 1 and rec["x"] == X2[6 + i].tolist()
               for i, rec in enumerate(log))
    assert runs.origins == [0] * 6 + [1] * 3
    # the refit surrogate interpolates every response, new points included
    model = fit_gp(X2, Y2[:, 19])
    means, s2 = predict_batch(model, X2)
    assert np.all(np.abs(means - Y2[:, 19]) <= 1e-6 * max(np.std(Y2[:, 19]), 1e-12))
    assert np.all(s2 >= 0.0)


def expected_split(config, k, d=2):
    """Runs per origin: n0 for the design, the k problems sharing what the
    polish leaves (earlier problems first), and the polish's m = 2(d + 1),
    capped so that each problem keeps a run, and 1 below d + 2."""
    follow_up = config.N - config.n0
    m = min(2 * (d + 1), follow_up - k)
    m = m if m >= d + 2 else 1
    base, rem = divmod(follow_up - m, k)
    return [config.n0] + [base + (1 if j <= rem else 0) for j in range(1, k + 1)] + [m]


def check_origins(result, config, d=2):
    k = len(result.dps.dps)
    split = expected_split(config, k, d)
    assert split[-1] >= 4  # the small config descends
    assert [result.origins.count(j) for j in range(k + 2)] == split
    assert len(result.origins) == sum(split) == config.N
    assert result.flags["polish_runs"] == split[-1]


def test_msce_budget_exact_and_origins():
    sim = make_toy_simulator()
    target = toy_target(sim)
    config = small_config()
    result = msce_run(sim, target, config)
    assert result.budget_used == config.N
    assert sim.calls == config.N  # the polish runs are counted, and nothing else runs
    assert result.training_inputs.shape == (config.N, 2)
    assert result.training_responses.shape == (config.N, sim.spec.L)
    check_origins(result, config)
    # the answer is a paid run, reported with its stored series
    best = [i for i, x in enumerate(result.training_inputs) if np.array_equal(x, result.x_opt)]
    assert len(best) == 1
    assert np.array_equal(result.response_at_opt, result.training_responses[best[0]])


def test_calibrate_initial_design_is_maxpro_lhd():
    """calibrate's one initial design is maxpro_lhd on stream (seed, 0)."""
    config = small_config()
    sim = make_toy_simulator()
    result = msce_run(sim, toy_target(sim), config)
    expected = maxpro_lhd(config.n0, 2, np.random.default_rng([config.seed, 0]),
                          config.design_iterations)
    assert np.array_equal(result.training_inputs[:config.n0], expected)
    assert not np.array_equal(expected, maximin_lhd(
        config.n0, 2, np.random.default_rng([config.seed, 0]), config.design_iterations))


def test_hm_initial_design_is_maximin_lhd():
    """hm's one initial design is maximin_lhd on stream (seed, 0)."""
    config = small_config()
    sim = make_toy_simulator()
    target = toy_target(sim)
    result = hm_run(sim, target, build_dps(TargetSeries(target), 3),
                    n0=config.n0, cutoff=1e-9, config=config)
    expected = maximin_lhd(config.n0, 2, np.random.default_rng([config.seed, 0]),
                           config.design_iterations)
    assert np.array_equal(result.training_inputs[:config.n0], expected)


def test_msce_solves_knots_in_selection_order():
    sim = make_toy_simulator()
    config = small_config()
    result = msce_run(sim, toy_target(sim), config)
    knots = result.dps.dps
    assert knots != sorted(knots)  # the selection order is not the time order
    k = len(knots)
    for rec in result.run_log:
        if rec["problem"] <= k:
            assert rec["t_star"] == knots[rec["problem"] - 1]
        else:  # a polish run: no knot, no surrogate values
            assert rec["problem"] == k + 1 and rec["t_star"] == 0
            assert np.isnan([rec["ei"], rec["pred_mean"], rec["pred_sd"]]).all()
    assert [rec["problem"] for rec in result.run_log] == result.origins[config.n0:]
    check_origins(result, config)


def test_msce_no_duplicate_inputs_and_box():
    sim = make_toy_simulator()
    target = toy_target(sim)
    result = msce_run(sim, target, small_config(seed=11))
    X = result.training_inputs
    dists = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
    np.fill_diagonal(dists, np.inf)
    assert dists.min() > 1e-10
    assert np.all((result.x_opt >= 0.0) & (result.x_opt <= 1.0))


def test_msce_budget_error():
    """N - n0 must cover a run per scalar problem and one for the answer."""
    sim = make_toy_simulator()
    target = toy_target(sim)
    k = len(build_dps(TargetSeries(target), 3).dps)
    assert k >= 2
    for N in (6 + k - 1, 6 + k):
        with pytest.raises(BudgetError, match=f"cannot give each of {k} scalar problems "
                                              f"a run and the answer one more"):
            msce_run(sim, target, small_config(n0=6, N=N))
    assert sim.calls == 0
    result = msce_run(sim, target, small_config(n0=6, N=6 + k + 1))
    assert sim.calls == result.budget_used == 6 + k + 1
    assert result.origins == [0] * 6 + list(range(1, k + 2))
    assert result.flags["polish_runs"] == 1


def test_external_simulator_is_launched_exactly_n_times(tmp_path):
    """At criterion 09's easom budget no descent fits, and the answer still
    costs a counted run: the executable is launched N times, at the N
    training inputs, and never once more."""
    log = tmp_path / "launches.csv"
    exe = tmp_path / "easom_sim.py"
    exe.write_text(f"#!{sys.executable}\n" + textwrap.dedent(f"""
        import csv, math
        with open("input.csv", newline="") as fh:
            x1, x2 = (float(v) for v in list(csv.reader(fh))[1])
        with open({str(log)!r}, "a") as fh:
            fh.write(f"{{x1!r}},{{x2!r}}\\n")
        with open("output.csv", "w") as fh:
            fh.write("t,value\\n")
            for i in range(200):
                t = i / 199
                y = (math.cos(x1) * math.cos(x2)
                     * math.exp(-(x1 - math.pi * t) ** 2 - (x2 - math.pi) ** 2))
                fh.write(f"{{t!r}},{{y!r}}\\n")
    """))
    exe.chmod(exe.stat().st_mode | stat.S_IEXEC)
    sim = ExternalSimulator(EASOM_SPEC, [str(exe)], tmp_path / "exchange")
    config = MsceConfig(n0=6, N=12, seed=1, M=150, grid_size=300,
                        design_iterations=200, k_max=4)
    result = msce_run(sim, target_series("easom"), config)
    launches = np.loadtxt(log, delimiter=",", ndmin=2)
    assert len(launches) == result.budget_used == sim.calls == config.N
    assert np.array_equal(launches, result.training_inputs)
    assert result.flags["polish_runs"] == 1


def test_msce_deterministic():
    target = toy_target(make_toy_simulator())
    a = msce_run(make_toy_simulator(), target, small_config(seed=21))
    b = msce_run(make_toy_simulator(), target, small_config(seed=21))
    assert np.array_equal(a.training_inputs, b.training_inputs)
    assert np.array_equal(a.x_opt, b.x_opt)
    assert a.metrics == b.metrics
    c = msce_run(make_toy_simulator(), target, small_config(seed=22))
    assert not np.array_equal(a.training_inputs, c.training_inputs)


@pytest.mark.parametrize("target", [
    np.zeros((2, 20)), [[0.5] * 40], [True] * 40, ["0.5"] * 40, 0.5,
], ids=["2x20-array", "nested-list", "bools", "strings", "scalar"])
def test_target_must_be_a_flat_sequence_of_numbers(target):
    """A 2 x 20 array is not read as a 40-point target: a target is flat."""
    sim = make_toy_simulator()
    with pytest.raises(ValueError, match="^target must be a list of numbers, got "):
        msce_run(sim, target, small_config())
    assert sim.calls == 0


def test_msce_rejects_length_mismatch():
    sim = make_toy_simulator(L=40)
    with pytest.raises(ValueError):
        msce_run(sim, np.ones(30), small_config())


@pytest.mark.parametrize("target, message", [
    (np.full(40, 2.5), "target series is constant"),
    (np.linspace(-1.0, 3.0, 40), "fit exactly by a cubic without knots"),
], ids=["constant", "linear"])
def test_target_without_a_knot_to_place_is_refused_before_any_run(target, message):
    sim = make_toy_simulator()
    dps = build_dps(TargetSeries(toy_target(sim)), 3)
    with pytest.raises(ValueError, match=message):
        msce_run(sim, target, small_config())
    if message.startswith("target series is constant"):
        with pytest.raises(ValueError, match=message):
            hm_run(sim, target, dps, n0=6, cutoff=3.0, config=small_config())
    assert sim.calls == 0


def test_extract_exact_match_containment():
    sim = make_toy_simulator()
    config = small_config()
    X = random_lhd(10, 2, seed=5)
    Y = np.vstack([sim.run(x) for x in X])
    models = [fit_gp(X, Y[:, 10]), fit_gp(X, Y[:, 30])]
    x_known = X[4]
    targets = [float(predict_batch(m, x_known[None])[0][0]) for m in models]
    x_opt, solution_sets, flags = extract_solution(models, targets, config)
    assert not flags["fallback"]
    for s in solution_sets:
        assert any(np.array_equal(row, x_known) for row in s)
    score_known = sum((predict_batch(m, x_known[None])[0][0] - t) ** 2
                      for m, t in zip(models, targets))
    score_opt = sum((predict_batch(m, x_opt[None])[0][0] - t) ** 2
                    for m, t in zip(models, targets))
    assert score_opt <= score_known + 1e-18


def test_extract_single_model_minimizes_deviation():
    sim = make_toy_simulator()
    config = small_config()
    X = random_lhd(8, 2, seed=6)
    Y = np.vstack([sim.run(x) for x in X])
    model = fit_gp(X, Y[:, 25])
    a = float(np.median(Y[:, 25]))
    x_opt, solution_sets, flags = extract_solution([model], [a], config)
    grid = np.vstack([random_lhd(config.grid_size, 2,
                                 np.random.default_rng([config.seed, 2])), X])
    grid_dev = np.abs(predict_batch(model, grid)[0] - a)
    dev_opt = abs(predict_batch(model, x_opt[None])[0][0] - a)
    assert dev_opt <= grid_dev.min() + 1e-15


def test_extract_fallback_when_targets_unreachable():
    sim = make_toy_simulator()
    config = small_config(epsilon=1e-12)
    X = random_lhd(8, 2, seed=7)
    Y = np.vstack([sim.run(x) for x in X])
    models = [fit_gp(X, Y[:, 10])]
    x_opt, _, flags = extract_solution(models, [1e6], config)
    assert flags["fallback"]
    assert flags["escalations"] == 6
    assert np.all((x_opt >= 0) & (x_opt <= 1))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(6, 12), d=st.integers(1, 3), k=st.integers(1, 3),
       seed=st.integers(0, 10_000), reachable=st.booleans())
def test_extract_solution_properties(n, d, k, seed, reachable):
    rng = np.random.default_rng(seed)
    X = random_lhd(n, d, rng)
    L = 6
    W = rng.uniform(1.0, 5.0, size=(L, d))
    Y = np.sin(X @ W.T) + X.sum(axis=1, keepdims=True)  # (n, L) smooth series
    models = [fit_gp(X, Y[:, j]) for j in range(k)]
    i = int(rng.integers(n))
    targets = [float(Y[i, j]) if reachable else 1e6 for j in range(k)]
    config = small_config(seed=seed, grid_size=200)
    x_opt, solution_sets, flags = extract_solution(models, targets, config)

    assert x_opt.shape == (d,)
    assert np.all((x_opt >= 0.0) & (x_opt <= 1.0))
    assert flags["epsilon_used"] == config.epsilon * 10 ** flags["escalations"]
    assert flags["fallback"] == (not reachable)
    if flags["fallback"]:
        assert flags["escalations"] == 6
    else:
        assert all(len(s) > 0 for s in solution_sets)


def misfit(y, g0):
    return float(np.sum((y - g0) ** 2))


def polish_case(seed, target_x=(0.62, 0.31), n=8):
    """A toy simulator, the ledger of its n design runs, and the target
    series at target_x."""
    sim = make_toy_simulator()
    runs = _Runs(sim, random_lhd(n, 2, seed=seed))
    return sim, runs, toy_target(sim, target_x)


@pytest.mark.parametrize("x0, target_x", [
    ((0.3, 0.7), (0.62, 0.31)),
    ((1.0, 1.0), (0.62, 0.31)),  # a corner: the differences step inward
    ((0.5, 0.0), (0.62, 0.31)),
    ((0.9, 0.5), (1.4, 0.2)),  # the best input lies outside the box: steps are clipped
    ((0.2, 0.2), (-0.3, 1.3)),
])
@pytest.mark.parametrize("m", [4, 7])
def test_polish_invariants(x0, target_x, m):
    sim, runs, g0 = polish_case(4, target_x)
    X, Y = runs.X, runs.Y
    n = len(X)
    best = polish(runs, g0, np.array(x0), m, problem=4)
    X2, Y2, log = runs.X, runs.Y, runs.log
    # exactly m new runs, each stored with its real series and traced
    assert sim.calls == n + m and len(X2) == n + m
    assert np.array_equal(X2[:n], X) and np.array_equal(Y2[:n], Y)
    assert all(np.array_equal(Y2[i], toy_target(sim, X2[i])) for i in range(n, n + m))
    assert [rec["iteration"] for rec in log] == list(range(n + 1, n + m + 1))
    assert all(rec["problem"] == 4 and rec["t_star"] == 0 and np.isnan(rec["ei"])
               and rec["x"] == X2[n + i].tolist() for i, rec in enumerate(log))
    assert runs.origins == [0] * n + [4] * m
    # inside the box, and no input within DUPLICATE_TOL of another
    assert np.all((X2 >= 0.0) & (X2 <= 1.0))
    dists = np.linalg.norm(X2[:, None, :] - X2[None, :, :], axis=2)
    np.fill_diagonal(dists, np.inf)
    assert dists.min() >= DUPLICATE_TOL
    # the start is the first polish run, and the answer is the best polish run
    assert np.array_equal(X2[n], x0)
    polish_misfits = [misfit(Y2[i], g0) for i in range(n, n + m)]
    assert best >= n and misfit(Y2[best], g0) == min(polish_misfits)
    assert misfit(Y2[best], g0) <= misfit(Y2[n], g0)


def test_polish_descends_to_an_interior_solution():
    sim, runs, g0 = polish_case(5)
    n = len(runs.X)
    best = polish(runs, g0, np.array([0.55, 0.4]), 8, problem=2)
    X2, Y2 = runs.X, runs.Y
    assert misfit(Y2[best], g0) < 1e-6 * misfit(Y2[n], g0)
    assert np.max(np.abs(X2[best] - (0.62, 0.31))) < 1e-3


def test_polish_from_a_training_row_spends_no_run_on_it():
    sim, runs, g0 = polish_case(6)
    X, Y = runs.X, runs.Y
    start = int(np.argmin([misfit(y, g0) for y in Y]))
    best = polish(runs, g0, X[start].copy(), 5, problem=2)
    X2, Y2 = runs.X, runs.Y
    assert sim.calls == len(X) + 5 and len(X2) == len(X) + 5
    assert not any(np.array_equal(x, X[start]) for x in X2[len(X):])
    # the stored series of the start competes: the answer is never worse than it
    assert misfit(Y2[best], g0) <= misfit(Y[start], g0)


def test_polish_step_onto_a_training_input_refreshes_the_differences():
    """A linear simulator whose best input lies beyond the corner (1, 1): once
    the corner is run, every step clips back onto it, so each is replaced by
    fresh differences there with half the step, until the runs are spent."""
    A = np.random.default_rng(0).normal(size=(10, 2))
    spec = SimulatorSpec(name="linear", d=2, L=10, time_grid=np.arange(10.0),
                         native_bounds=[(0.0, 1.0)] * 2)
    sim = Simulator(spec, lambda x, t: A @ np.asarray(x))
    runs = _Runs(sim, random_lhd(5, 2, seed=0))
    best = polish(runs, A @ np.array([1.5, 1.5]), np.array([0.5, 0.5]), 9, problem=2)
    X2 = runs.X
    assert sim.calls == 14
    assert np.array_equal(X2[5:], [[0.5, 0.5], [0.51, 0.5], [0.5, 0.51], [1.0, 1.0],
                                   [0.995, 1.0], [1.0, 0.995], [0.9975, 1.0], [1.0, 0.9975],
                                   [0.99875, 1.0]])
    assert np.array_equal(X2[best], [1.0, 1.0])


def test_msce_criterion_09_configs_spend_one_run_on_the_answer():
    """At the criterion-09 budgets no descent fits, so the polish is one paid
    run: of the extracted grid point, or, when that point repeats a training
    input, of the first difference probe, and the answer is the better of
    that row and the probe. Either way the answer's series is a run's."""
    cases = [(name, n0, N, seed) for seed in (1, 5)  # criteria 09 and 10
             for name, n0, N in (("easom", 6, 12), ("harari_steinberg", 6, 12),
                                 ("bliznyuk", 7, 14))]
    repeats = 0
    for name, n0, N, seed in cases:
        sim = get_simulator(name)
        config = MsceConfig(n0=n0, N=N, seed=seed, M=150, grid_size=300,
                            design_iterations=200, k_max=4)
        result = msce_run(sim, target_series(name), config)
        k = len(result.dps.dps)
        assert expected_split(config, k, sim.spec.d)[-1] == 1
        assert result.flags["polish_runs"] == 1
        assert result.origins[-1] == k + 1 and max(result.origins[:-1]) == k
        assert sim.calls == N
        X, Y = result.training_inputs, result.training_responses
        models = [fit_gp(X[:-1], Y[:-1, t - 1]) for t in result.dps.dps]
        targets = [float(target_series(name)[t - 1]) for t in result.dps.dps]
        x_extract, _, _ = extract_solution(models, targets, config)
        if _is_duplicate(x_extract, X[:-1]):
            repeats += 1
            probe = x_extract.copy()
            probe[0] += 0.01 if probe[0] + 0.01 <= 1.0 else -0.01
            assert np.array_equal(X[-1], probe)
            row = int(np.argmin(np.linalg.norm(X[:-1] - x_extract, axis=1)))
            g0 = target_series(name)
            better = min((row, N - 1), key=lambda i: np.sum((Y[i] - g0) ** 2))
            assert np.array_equal(result.x_opt, X[better])
        else:
            assert np.array_equal(X[-1], x_extract)
            assert np.array_equal(result.x_opt, x_extract)
        assert np.array_equal(result.response_at_opt, closed_form(name, result.x_opt))
    assert 0 < repeats < len(cases)  # both kinds of answer are met (bliznyuk, seed 5)


def test_hm_tiny_cutoff_stops_after_first_stage(tmp_path):
    sim = make_toy_simulator()
    target = toy_target(sim)
    dps = build_dps(TargetSeries(target), 3)
    config = small_config()
    result = hm_run(sim, target, dps, n0=6, cutoff=1e-9, config=config)
    assert result.budget_used == 6
    assert result.run_log == []
    assert result.training_inputs.shape == (6, 2)
    write_run_artifacts(tmp_path, result, resolved_config_dict(config), sim)
    assert (tmp_path / "trace.csv").read_text() == "stage,im_max,x1,x2\n"


def test_hm_augments_and_audits():
    sim = make_toy_simulator()
    target = toy_target(sim)
    dps = build_dps(TargetSeries(target), 3)
    config = small_config(hm_stage_cap=4, hm_stage_limit=3)
    result = hm_run(sim, target, dps, n0=6, cutoff=3.0, config=config)
    assert result.budget_used == 6 + len(result.run_log)
    assert result.budget_used <= 6 + 4 * 3
    for rec in result.run_log:
        assert rec["im_max"] <= 3.0
    # best training point is the actual argmin of the stored DPS discrepancies
    idx = [t - 1 for t in dps.dps]
    targets = target[idx]
    scores = np.sum((result.training_responses[:, idx] - targets) ** 2, axis=1)
    assert np.array_equal(result.x_opt,
                          result.training_inputs[np.argmin(scores)])


@pytest.mark.parametrize("cutoff, message", [
    (0.0, "implausibility cutoff must be positive, got 0.0"),
    (-1.0, "implausibility cutoff must be positive, got -1.0"),
    (math.nan, "cutoff must be finite, got nan"),
    ("0.5", "cutoff must be a number, got '0.5'"),
    (True, "cutoff must be a number, got True"),
], ids=["0.0", "-1.0", "nan", "string", "bool"])
def test_hm_rejects_bad_cutoff(cutoff, message):
    sim = make_toy_simulator()
    target = toy_target(sim)
    dps = build_dps(TargetSeries(target), 3)
    # small stages, so that a cutoff let through fails fast instead of paying 1000 runs
    config = small_config(hm_stage_cap=3, hm_stage_limit=2)
    with pytest.raises(ValueError, match=message):
        hm_run(sim, target, dps, n0=6, cutoff=cutoff, config=config)
    assert sim.calls == 0


def test_hm_integer_cutoff_is_kept_as_a_float():
    sim = make_toy_simulator()
    target = toy_target(sim)
    config = small_config(hm_stage_cap=2, hm_stage_limit=1)
    result = hm_run(sim, target, build_dps(TargetSeries(target), 3), n0=6, cutoff=3,
                    config=config)
    assert result.flags == {"cutoff": 3.0} and type(result.flags["cutoff"]) is float


def test_write_run_artifacts(tmp_path):
    sim = make_toy_simulator()
    target = toy_target(sim)
    config = small_config(seed=31)
    result = msce_run(sim, target, config)
    resolved = resolved_config_dict(config, extra={"mode": "calibrate",
                                                   "simulator": "toy"})
    write_run_artifacts(tmp_path / "run", result, resolved, sim)
    run = tmp_path / "run"
    for name in ("config.json", "training.csv", "responses.csv",
                 "result.json", "trace.csv", "solution.csv"):
        assert (run / name).exists(), name
    solution_lines = (run / "solution.csv").read_text().strip().splitlines()
    assert solution_lines[0] == "t,target,response_at_solution"
    assert len(solution_lines) == sim.spec.L + 1
    cfg = json.loads((run / "config.json").read_text())
    assert cfg["n0"] == config.n0 and cfg["seed"] == 31
    payload = json.loads((run / "result.json").read_text())
    assert payload["budget_used"] == config.N
    assert len(payload["x_opt"]) == 2
    assert payload["dps"]["k_selected"] == result.dps.k_selected
    training_lines = (run / "training.csv").read_text().strip().splitlines()
    assert len(training_lines) == config.N + 1
    responses_lines = (run / "responses.csv").read_text().strip().splitlines()
    assert len(responses_lines) == sim.spec.L + 1
    assert len(responses_lines[1].split(",")) == config.N + 1
    trace_lines = (run / "trace.csv").read_text().strip().splitlines()
    assert len(trace_lines) == len(result.run_log) + 1
    assert trace_lines[0] == "iteration,problem,t_star,ei,pred_mean,pred_sd,x1,x2"
    rec = result.run_log[0]
    assert trace_lines[1].split(",") == [
        str(rec["iteration"]), str(rec["problem"]), str(rec["t_star"]), repr(rec["ei"]),
        repr(rec["pred_mean"]), repr(rec["pred_sd"]), *map(repr, rec["x"])]
