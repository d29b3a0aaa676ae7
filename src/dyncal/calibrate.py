"""End-to-end calibration drivers.

Two routes to the same goal of finding the input whose response matches a
target series:

* msce_run: builds a discretization-point-set from the target, then solves one
  scalar contour-estimation problem per DPS index with a shared, growing
  training set, spending the simulator budget exactly. The solution is read
  off the refit surrogates as the best point of the intersection of per-index
  tolerance bands.
* hm_run: the multi-stage history-matching baseline, augmenting every
  sufficiently plausible test point per stage until nothing plausible is left
  or the stage limit is hit.

Both are deterministic for a fixed config seed: every random draw comes from
a stream derived from (seed, purpose, index).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

from .acquisition import ContourTarget, expected_improvement, implausibility_max
from .designs import maximin_lhd, maxpro_lhd, random_lhd
from .gp import GpModel, MeanBank, fit_gp, predict_batch
from .metrics import evaluate_all
from .simulators import Simulator
from .spline_dps import DpsResult, TargetSeries, build_dps

DUPLICATE_TOL = 1e-10


class BudgetError(ValueError):
    """Simulator-run budget cannot cover the run as configured."""


@dataclass
class MsceConfig:
    """Knobs for a calibration run; everything else derives from the seed."""

    n0: int
    N: int
    seed: int = 0
    k_max: int = 10
    alpha: float = 0.67
    epsilon: float = 1e-5
    M: int = 5000
    grid_size: int = 10_000
    initial_design: str = "maxpro"  # maxpro | maximin | random
    design_iterations: int = 10_000
    dps_order: str = "selection"  # selection | time
    hm_stage_cap: int = 100
    hm_stage_limit: int = 10

    def __post_init__(self):
        if not (2 <= self.n0 < self.N):
            raise BudgetError(f"need 2 <= n0 < N, got n0={self.n0}, N={self.N}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.M < 100:
            raise ValueError("candidate-set size M must be at least 100")
        if self.initial_design not in ("maxpro", "maximin", "random"):
            raise ValueError(f"unknown initial design '{self.initial_design}'")
        if self.dps_order not in ("selection", "time"):
            raise ValueError(f"unknown dps order '{self.dps_order}'")


@dataclass
class CalibrationResult:
    training_inputs: np.ndarray  # (n, d), call order
    training_responses: np.ndarray  # (n, L), row i is the series of call i
    dps: DpsResult
    x_opt: np.ndarray
    solution_sets: list | None
    metrics: dict
    run_log: list
    flags: dict
    budget_used: int
    origins: list  # per training row: 0 = initial design, else problem/stage
    response_at_opt: np.ndarray
    target: np.ndarray


def _initial_design(d: int, config: MsceConfig) -> np.ndarray:
    rng = np.random.default_rng([config.seed, 0])
    if config.initial_design == "maximin":
        return maximin_lhd(config.n0, d, rng, config.design_iterations)
    if config.initial_design == "maxpro":
        return maxpro_lhd(config.n0, d, rng, config.design_iterations)
    return random_lhd(config.n0, d, rng)


def _is_duplicate(x: np.ndarray, X: np.ndarray) -> bool:
    return bool(np.min(np.linalg.norm(X - x, axis=1)) < DUPLICATE_TOL)


def solve_scalar_contour(simulator: Simulator, t_star: int, a: float,
                         X: np.ndarray, Y: np.ndarray, budget_j: int,
                         config: MsceConfig, problem_index: int = 1,
                         run_log: list | None = None):
    """Spend budget_j runs estimating the contour g(x, t_star) = a.

    Each step fits a GP to the scalar responses at t_star over the current
    training set, sweeps expected improvement over a fresh candidate LHD, and
    evaluates the simulator at the best non-duplicate candidate. The full
    series of every run is stored. Returns the augmented (X, Y).
    """
    target = ContourTarget(a=a, alpha=config.alpha)
    col = t_star - 1  # DPS indices are 1-based
    for _ in range(budget_j):
        model = fit_gp(X, Y[:, col])
        rng = np.random.default_rng([config.seed, 1, len(X)])
        cands = random_lhd(config.M, X.shape[1], rng)
        means, s2 = predict_batch(model, cands)
        sds = np.sqrt(s2)
        ei = expected_improvement(means, sds, target)
        pick = None
        for idx in np.argsort(-ei, kind="stable"):
            if not _is_duplicate(cands[idx], X):
                pick = int(idx)
                break
        if pick is None:
            raise RuntimeError("all candidates duplicate existing training points")
        x_new = cands[pick]
        y_new = simulator.run(x_new)
        X = np.vstack([X, x_new])
        Y = np.vstack([Y, y_new])
        if run_log is not None:
            run_log.append({
                "iteration": len(X),
                "problem": problem_index,
                "t_star": t_star,
                "x": [float(v) for v in x_new],
                "ei": float(ei[pick]),
                "pred_mean": float(means[pick]),
                "pred_sd": float(sds[pick]),
            })
    return X, Y


def _polish(func, x0, maxfev):
    """Box-constrained Nelder-Mead descent; never returns a worse point."""
    d = len(x0)

    def penalized(x):
        if np.any(x < 0.0) or np.any(x > 1.0):
            return 1e30
        return func(x)

    res = minimize(penalized, x0, method="Nelder-Mead",
                   options={"maxfev": maxfev * d, "xatol": 1e-10, "fatol": 0.0})
    x = np.clip(res.x, 0.0, 1.0)
    return x if func(x) <= func(x0) else np.asarray(x0, dtype=float)


FILL_INDEX_COUNT = 24  # series indices backing the full-norm emulator


def _fill_indices(L: int, count: int = FILL_INDEX_COUNT):
    """Evenly spaced series indices (1-based); coinciding with DPS indices is harmless."""
    fill = {int(round((j + 0.5) * L / count)) for j in range(count)}
    fill = {min(max(t, 1), L) for t in fill}
    return sorted(fill)


def extract_solution(models: list[GpModel], targets: list[float],
                     config: MsceConfig, training_responses=None,
                     target_values=None):
    """Read the inverse solution off the refit per-DPS surrogates.

    Evaluates every surrogate over a fresh space-filling grid plus the
    training inputs; keeps the points within epsilon of every target
    (escalating epsilon tenfold, at most six times, if the intersection is
    empty). The banded grid minimizer then seeds a continuous descent of the
    surrogate score. When the DPS constraints cannot pin a unique point
    (fewer indices than input dimensions) and the training series are
    available, the point is instead chosen by descending an emulated
    full-series discrepancy inside the tolerance bands: per-index surrogates
    at evenly spaced fill-in times, fitted from the stored series at no
    simulator cost, stand in for the true norm. Falls back to the minimax
    point, flagged, if even the loosest band is empty.
    """
    d = models[0].d
    grid = np.vstack([
        random_lhd(config.grid_size, d, np.random.default_rng([config.seed, 2])),
        models[0].X,
    ])
    bank = MeanBank(models)
    preds = bank.means(grid).T  # (k, m)
    targets_arr = np.asarray(targets, dtype=float)
    dev = np.abs(preds - targets_arr[:, None])
    grid_score = np.sum((preds - targets_arr[:, None]) ** 2, axis=0)

    flags = {"fallback": False, "epsilon_used": config.epsilon, "escalations": 0}
    inside = None
    for attempt in range(7):
        eps = config.epsilon * 10.0 ** attempt
        inside = np.all(dev < eps, axis=0)
        if np.any(inside):
            flags["epsilon_used"] = eps
            flags["escalations"] = attempt
            break
    else:
        flags["fallback"] = True
        flags["epsilon_used"] = eps = config.epsilon * 10.0 ** 6
        x_opt = grid[int(np.argmin(np.max(dev, axis=0)))]
        flags["escalations"] = 6
        solution_sets = [grid[dev[i] < eps] for i in range(len(models))]
        return x_opt, solution_sets, flags

    solution_sets = [grid[dev[i] < eps] for i in range(len(models))]
    x_band = grid[int(np.argmin(np.where(inside, grid_score, np.inf)))]

    def score(x):
        mu = bank.means(x)[0]
        return float(np.sum((mu - targets_arr) ** 2))

    x_opt = _polish(score, x_band, maxfev=400)

    k = len(models)
    if k < d and training_responses is not None and target_values is not None:
        Y = np.asarray(training_responses, dtype=float)
        g0 = np.asarray(target_values, dtype=float)
        X_train = models[0].X
        fill = _fill_indices(Y.shape[1])
        fill_bank = MeanBank([fit_gp(X_train, Y[:, t - 1]) for t in fill])
        fill_targets = np.array([g0[t - 1] for t in fill])

        def sig(x):
            mu = fill_bank.means(x)[0]
            return float(np.sum((mu - fill_targets) ** 2))

        def banded_sig(x):
            mu = bank.means(x)[0]
            viol = np.sum(np.maximum(np.abs(mu - targets_arr) - eps, 0.0)) / eps
            return sig(x) + 1e9 * viol

        def in_band(x):
            mu = bank.means(x)[0]
            return bool(np.all(np.abs(mu - targets_arr) <= eps * 1.0001))

        sig_grid = np.sum((fill_bank.means(grid) - fill_targets) ** 2, axis=1)
        x_sig = grid[int(np.argmin(np.where(inside, sig_grid, np.inf)))]
        cands = [_polish(banded_sig, x_sig, maxfev=400),
                 _polish(banded_sig, x_band, maxfev=400)]
        feasible = [x for x in cands if in_band(x)]
        if feasible:
            x_opt = min(feasible, key=sig)

    return x_opt, solution_sets, flags


def msce_run(simulator: Simulator, target, config: MsceConfig) -> CalibrationResult:
    """Calibrate by sequential scalar contour estimation at the DPS indices.

    Spends exactly N simulator runs: n0 on the initial design, the remainder
    split approximately evenly over the DPS problems (earlier problems take
    the leftovers, since they double as global exploration).
    """
    series = target if isinstance(target, TargetSeries) else TargetSeries(np.asarray(target))
    spec = simulator.spec
    if len(series) != spec.L:
        raise ValueError(f"target length {len(series)} does not match simulator L={spec.L}")
    d = spec.d

    dps_result = build_dps(series, config.k_max)
    dps = list(dps_result.dps)
    if config.dps_order == "time":
        dps = sorted(dps)
    k = len(dps)
    follow_up = config.N - config.n0
    if follow_up < k:
        raise BudgetError(
            f"budget N-n0={follow_up} cannot give each of {k} scalar problems a point")

    calls_before = simulator.calls
    run_log: list = []

    X = _initial_design(d, config)
    Y = np.vstack([simulator.run(x) for x in X])
    origins = [0] * config.n0

    base, rem = divmod(follow_up, k)
    for j, t_star in enumerate(dps, start=1):
        budget_j = base + (1 if j <= rem else 0)
        a = float(series.values[t_star - 1])
        X, Y = solve_scalar_contour(simulator, t_star, a, X, Y, budget_j,
                                    config, problem_index=j, run_log=run_log)
        origins.extend([j] * budget_j)

    used = simulator.calls - calls_before
    assert used == config.N, f"budget accounting broken: {used} != {config.N}"

    models = [fit_gp(X, Y[:, t - 1]) for t in dps]
    targets = [float(series.values[t - 1]) for t in dps]
    x_opt, solution_sets, flags = extract_solution(
        models, targets, config, training_responses=Y,
        target_values=series.values)

    response_at_opt = simulator.peek(x_opt)  # off budget, reporting only
    metrics = evaluate_all(response_at_opt, series.values)

    return CalibrationResult(
        training_inputs=X, training_responses=Y, dps=dps_result, x_opt=x_opt,
        solution_sets=solution_sets, metrics=metrics, run_log=run_log,
        flags=flags, budget_used=used, origins=origins,
        response_at_opt=response_at_opt, target=series.values,
    )


def hm_run(simulator: Simulator, target, dps, n0: int, cutoff: float,
           config: MsceConfig) -> CalibrationResult:
    """History-matching baseline over the given DPS.

    Per stage: fit one GP per DPS index, sweep a fresh test set, and augment
    every plausible point (IM_max <= cutoff), nearest-to-zero first, up to the
    per-stage cap. Stops when a stage adds nothing or the stage limit is hit.
    The answer is the training point whose stored responses best match the
    target at the DPS.
    """
    if cutoff <= 0:
        raise ValueError("implausibility cutoff must be positive")
    series = target if isinstance(target, TargetSeries) else TargetSeries(np.asarray(target))
    spec = simulator.spec
    if len(series) != spec.L:
        raise ValueError(f"target length {len(series)} does not match simulator L={spec.L}")
    dps_result = dps if isinstance(dps, DpsResult) else DpsResult(
        ordered_knots=list(dps), mse_path=np.array([]), k_selected=len(list(dps)),
        dps=list(dps))
    indices = list(dps_result.dps)
    targets = np.array([series.values[t - 1] for t in indices])

    calls_before = simulator.calls
    run_log: list = []

    X = maximin_lhd(n0, spec.d, np.random.default_rng([config.seed, 0]),
                    config.design_iterations)
    Y = np.vstack([simulator.run(x) for x in X])
    origins = [0] * n0

    for stage in range(1, config.hm_stage_limit + 1):
        models = [fit_gp(X, Y[:, t - 1]) for t in indices]
        rng = np.random.default_rng([config.seed, 3, stage])
        test = random_lhd(config.M, spec.d, rng)
        preds = [predict_batch(m, test) for m in models]
        means = np.stack([p[0] for p in preds])
        sds = np.sqrt(np.stack([p[1] for p in preds]))
        im = implausibility_max(means, sds, targets)

        order = np.argsort(im, kind="stable")
        added = 0
        for idx in order:
            if added >= config.hm_stage_cap:
                break
            if im[idx] > cutoff:
                break
            x_new = test[idx]
            if _is_duplicate(x_new, X):
                continue
            y_new = simulator.run(x_new)
            X = np.vstack([X, x_new])
            Y = np.vstack([Y, y_new])
            origins.append(stage)
            run_log.append({
                "stage": stage,
                "x": [float(v) for v in x_new],
                "im_max": float(im[idx]),
            })
            added += 1
        if added == 0:
            break

    scores = np.sum((Y[:, [t - 1 for t in indices]] - targets) ** 2, axis=1)
    best = int(np.argmin(scores))
    x_opt = X[best]
    response_at_opt = Y[best]
    metrics = evaluate_all(response_at_opt, series.values)

    return CalibrationResult(
        training_inputs=X, training_responses=Y, dps=dps_result, x_opt=x_opt,
        solution_sets=None, metrics=metrics, run_log=run_log,
        flags={"cutoff": cutoff}, budget_used=simulator.calls - calls_before,
        origins=origins, response_at_opt=response_at_opt, target=series.values,
    )


def write_run_artifacts(run_dir, result: CalibrationResult, resolved_config: dict,
                        simulator: Simulator | None = None) -> None:
    """Write the standard run directory: config.json, training.csv,
    responses.csv, result.json, trace.csv. Contents are deterministic for a
    deterministic result."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)

    with open(run_dir / "config.json", "w") as fh:
        json.dump(resolved_config, fh, indent=2, sort_keys=True)
        fh.write("\n")

    X = result.training_inputs
    with open(run_dir / "training.csv", "w") as fh:
        cols = ",".join(f"x{k + 1}" for k in range(X.shape[1]))
        fh.write(f"order,origin,{cols}\n")
        for i, row in enumerate(X, start=1):
            vals = ",".join(repr(float(v)) for v in row)
            fh.write(f"{i},{result.origins[i - 1]},{vals}\n")

    Y = result.training_responses  # stored (n, L); exported L x N
    times = (simulator.spec.time_grid if simulator is not None
             else np.arange(1, Y.shape[1] + 1))
    with open(run_dir / "responses.csv", "w") as fh:
        fh.write("t," + ",".join(f"y{i + 1}" for i in range(Y.shape[0])) + "\n")
        for j in range(Y.shape[1]):
            fh.write(repr(float(times[j])) + ","
                     + ",".join(repr(float(Y[i, j])) for i in range(Y.shape[0])) + "\n")

    payload = {
        "x_opt": [float(v) for v in result.x_opt],
        "metrics": result.metrics,
        "flags": result.flags,
        "budget_used": result.budget_used,
        "dps": {
            "ordered_knots": [int(v) for v in result.dps.ordered_knots],
            "mse_path": [float(v) for v in result.dps.mse_path],
            "k_selected": result.dps.k_selected,
            "dps": [int(v) for v in result.dps.dps],
            "elbow_warning": result.dps.elbow_warning,
        },
    }
    if simulator is not None:
        payload["x_opt_native"] = [float(v) for v in simulator.spec.unscale(result.x_opt)]
    with open(run_dir / "result.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    with open(run_dir / "solution.csv", "w") as fh:
        fh.write("t,target,response_at_solution\n")
        for j in range(Y.shape[1]):
            fh.write(f"{float(times[j])!r},{float(result.target[j])!r},"
                     f"{float(result.response_at_opt[j])!r}\n")

    with open(run_dir / "trace.csv", "w") as fh:
        if result.run_log and "ei" in result.run_log[0]:
            fh.write("iteration,problem,t_star,ei,pred_mean,pred_sd,"
                     + ",".join(f"x{k + 1}" for k in range(X.shape[1])) + "\n")
            for rec in result.run_log:
                fh.write(f"{rec['iteration']},{rec['problem']},{rec['t_star']},"
                         f"{rec['ei']!r},{rec['pred_mean']!r},{rec['pred_sd']!r},"
                         + ",".join(repr(v) for v in rec["x"]) + "\n")
        else:
            fh.write("stage,im_max," + ",".join(f"x{k + 1}" for k in range(X.shape[1])) + "\n")
            for rec in result.run_log:
                fh.write(f"{rec['stage']},{rec['im_max']!r},"
                         + ",".join(repr(v) for v in rec["x"]) + "\n")


def resolved_config_dict(config: MsceConfig, extra: dict | None = None) -> dict:
    """Config with every default filled in, for replayable run directories."""
    payload = asdict(config)
    if extra:
        payload.update(extra)
    return payload
