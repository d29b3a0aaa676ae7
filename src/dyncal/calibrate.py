"""End-to-end calibration drivers.

Two routes to the same goal of finding the input whose response matches a
target series:

* msce_run: builds a discretization-point-set from the target, then solves one
  scalar contour-estimation problem per DPS index with a shared, growing
  training set. The best point of the intersection of the refit surrogates'
  tolerance bands starts a Levenberg-Marquardt polish on the real simulator,
  whose best run is the answer; the budget is spent exactly.
* hm_run: the multi-stage history-matching baseline, augmenting every
  sufficiently plausible test point per stage until nothing plausible is left
  or the stage limit is hit.

Both are deterministic for a fixed config seed: every random draw comes from
a stream derived from (seed, purpose, index).
"""
from __future__ import annotations

import json
import numbers
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .acquisition import ContourTarget, expected_improvement, implausibility_max
from .designs import maximin_lhd, maxpro_lhd, random_lhd
from .gp import GpModel, MeanBank, fit_gp, predict_batch
from .metrics import ConstantTargetError, evaluate_all
from .simulators import Simulator
from .spline_dps import K_MAX_DEFAULT, DpsResult, TargetSeries, build_dps

DUPLICATE_TOL = 1e-10


class BudgetError(ValueError):
    """Simulator-run budget cannot cover the run as configured."""


def check_integer(value, name: str):
    """value itself; ValueError unless it is an integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def check_number(value, name: str):
    """value itself; ValueError unless it is a real number (a bool is not)
    that is finite as a float: JSON's NaN and Infinity are refused, and so is
    an integer beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # also false for NaN
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass
class MsceConfig:
    """Knobs for a calibration run; everything else derives from the seed."""

    n0: int
    N: int
    seed: int = 0
    k_max: int = K_MAX_DEFAULT
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
        for f in fields(self):  # f.type is the annotation's text
            check = {"int": check_integer, "float": check_number}.get(f.type)
            if check is not None:
                check(getattr(self, f.name), f.name)
        if not (2 <= self.n0 < self.N):
            raise BudgetError(f"need 2 <= n0 < N, got n0={self.n0}, N={self.N}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.design_iterations < 0:
            raise ValueError(f"design_iterations must be >= 0, got {self.design_iterations}")
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
    origins: list  # per training row: 0 = initial design, else problem (k + 1: polish)/stage
    response_at_opt: np.ndarray
    target: np.ndarray
    trace_columns: tuple  # run_log keys written to trace.csv, before x1..xd


_MSCE_TRACE = ("iteration", "problem", "t_star", "ei", "pred_mean", "pred_sd")
_HM_TRACE = ("stage", "im_max")


def _initial_design(d: int, config: MsceConfig) -> np.ndarray:
    rng = np.random.default_rng([config.seed, 0])
    if config.initial_design == "maximin":
        return maximin_lhd(config.n0, d, rng, config.design_iterations)
    if config.initial_design == "maxpro":
        return maxpro_lhd(config.n0, d, rng, config.design_iterations)
    return random_lhd(config.n0, d, rng)


def _is_duplicate(x: np.ndarray, X: np.ndarray) -> bool:
    return bool(np.min(np.linalg.norm(X - x, axis=1)) < DUPLICATE_TOL)


def _best_candidate(ei: np.ndarray, cands: np.ndarray, X: np.ndarray) -> int:
    """Index of the candidate with the largest EI that duplicates no row of X,
    the first one among ties: the first non-duplicate of
    np.argsort(-ei, kind="stable"). Only when the argmax is a duplicate (or
    NaN, which argsort puts last) does it sort. RuntimeError if every
    candidate is a duplicate."""
    pick = int(np.argmax(ei))
    if not np.isnan(ei[pick]) and not _is_duplicate(cands[pick], X):
        return pick
    for idx in np.argsort(-ei, kind="stable"):
        if not _is_duplicate(cands[idx], X):
            return int(idx)
    raise RuntimeError("all candidates duplicate existing training points")


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
        pick = _best_candidate(ei, cands, X)
        x_new = cands[pick]
        y_new = simulator.run(x_new)
        X = np.vstack([X, x_new])
        Y = np.vstack([Y, y_new])
        if run_log is not None:
            run_log.append({
                "iteration": len(X),
                "problem": problem_index,
                "t_star": t_star,
                "ei": float(ei[pick]),
                "pred_mean": float(means[pick]),
                "pred_sd": float(sds[pick]),
                "x": [float(v) for v in x_new],
            })
    return X, Y


def extract_solution(models: list[GpModel], targets: list[float], config: MsceConfig):
    """Read the inverse solution off the refit per-DPS surrogates.

    Evaluates every surrogate over a fresh space-filling grid plus the
    training inputs; keeps the points within epsilon of every target
    (escalating epsilon tenfold, at most six times, if the intersection is
    empty) and returns the one of least squared deviation from the targets.
    Falls back to the minimax point, flagged, if even the loosest band is
    empty. Returns (x, per-surrogate solution sets, flags).
    """
    d = models[0].d
    grid = np.vstack([
        random_lhd(config.grid_size, d, np.random.default_rng([config.seed, 2])),
        models[0].X,
    ])
    dev = np.abs(MeanBank(models).means(grid).T - np.asarray(targets)[:, None])  # (k, m)

    for attempt in range(7):
        eps = config.epsilon * 10.0 ** attempt
        inside = np.all(dev < eps, axis=0)
        if np.any(inside):
            break
    fallback = not np.any(inside)
    flags = {"fallback": fallback, "epsilon_used": eps, "escalations": attempt}
    solution_sets = [grid[dev[i] < eps] for i in range(len(models))]
    score = (np.max(dev, axis=0) if fallback
             else np.where(inside, np.sum(dev ** 2, axis=0), np.inf))
    return grid[int(np.argmin(score))], solution_sets, flags


def polish(simulator: Simulator, g0: np.ndarray, x0: np.ndarray, X: np.ndarray,
           Y: np.ndarray, runs: int, run_log: list, problem: int):
    """Spend exactly `runs` runs on a Levenberg-Marquardt descent of the real
    misfit sum((g(x) - g0)^2) from x0 in [0, 1]^d. Returns (X, Y, the row of
    the incumbent: the polish point of least misfit). A polish point that
    repeats a training input (x0, say) reuses its stored series. Forward
    differences (step h = 0.01, inward at the upper bound) at the incumbent
    give J; each step, damped by lam * diag(J'J) (floored for zero columns;
    lam from 1e-3, /3 on a lower misfit, *4 otherwise) and clipped to the
    box, costs a run and updates J by Broyden's rule. A step that repeats a training input is not
    run: the differences are taken afresh with h halved. Runs are logged
    with t_star 0 and no surrogate values."""
    d = X.shape[1]
    n_before = len(X)
    rows, misfits = [], []  # the polish points as rows of X, and their real misfits

    def evaluate(x):
        nonlocal X, Y
        dist = np.linalg.norm(X - x, axis=1)
        row = int(np.argmin(dist))
        if dist[row] >= DUPLICATE_TOL:
            row = len(X)
            X = np.vstack([X, x])
            Y = np.vstack([Y, simulator.run(x)])
            run_log.append({"iteration": len(X), "problem": problem, "t_star": 0,
                            "ei": np.nan, "pred_mean": np.nan, "pred_sd": np.nan,
                            "x": [float(v) for v in x]})
        rows.append(row)
        misfits.append(float(np.sum((Y[row] - g0) ** 2)))

    def incumbent():
        return rows[int(np.argmin(misfits))]

    def difference_jacobian(h):
        b = incumbent()
        for j in range(d):
            if len(X) - n_before == runs:
                return
            x = X[b].copy()
            x[j] += h if x[j] + h <= 1.0 else -h
            evaluate(x)
            J[:, j] = (Y[rows[-1]] - Y[b]) / (x[j] - X[b, j])

    evaluate(np.asarray(x0, dtype=float))
    J = np.empty((Y.shape[1], d))
    h, lam = 0.01, 1e-3
    difference_jacobian(h)
    while len(X) - n_before < runs:
        b, f_b = incumbent(), min(misfits)
        JtJ = J.T @ J
        scale = np.maximum(np.diag(JtJ), 1e-12 * np.max(np.diag(JtJ)) + 1e-300)
        delta = np.linalg.solve(JtJ + lam * np.diag(scale), J.T @ (g0 - Y[b]))
        x = np.clip(X[b] + delta, 0.0, 1.0)
        if _is_duplicate(x, X):
            h /= 2.0
            if h < 1e-9:
                raise RuntimeError("polish steps and probes all repeat training inputs")
            difference_jacobian(h)
            continue
        evaluate(x)
        s = X[-1] - X[b]
        J += np.outer(Y[-1] - Y[b] - J @ s, s) / (s @ s)
        lam = lam / 3.0 if misfits[-1] < f_b else lam * 4.0
    return X, Y, incumbent()


def checked_target(target, simulator: Simulator) -> TargetSeries:
    """target as a TargetSeries; ValueError unless its length is the simulator's L
    and it is not constant, for a constant target leaves the fit metrics undefined."""
    series = target if isinstance(target, TargetSeries) else TargetSeries(target)
    if len(series) != simulator.spec.L:
        raise ValueError(
            f"target length {len(series)} does not match simulator L={simulator.spec.L}")
    if series.values.max() == series.values.min():
        raise ConstantTargetError("target series is constant")
    return series


def msce_run(simulator: Simulator, target, config: MsceConfig) -> CalibrationResult:
    """Calibrate by sequential scalar contour estimation at the DPS indices.

    Spends exactly N simulator runs: n0 on the initial design, m on the polish
    of the extracted answer (flags["polish_runs"]), the rest split evenly over
    the k DPS problems (earlier problems take the leftovers, since they double
    as global exploration). The answer is the best polish run; with m = 0 it
    is the extracted point, whose series is computed off budget.
    """
    series = checked_target(target, simulator)
    d = simulator.spec.d

    dps_result = build_dps(series, config.k_max)
    dps = list(dps_result.dps)
    if config.dps_order == "time":
        dps = sorted(dps)
    k = len(dps)
    follow_up = config.N - config.n0
    if follow_up < k:
        raise BudgetError(
            f"budget N-n0={follow_up} cannot give each of {k} scalar problems a point")
    m = min(2 * (d + 1), follow_up - k)  # polish runs: a start, d differences, steps
    m = m if m >= d + 2 else 0

    calls_before = simulator.calls
    run_log: list = []

    X = _initial_design(d, config)
    Y = np.vstack([simulator.run(x) for x in X])
    origins = [0] * config.n0

    base, rem = divmod(follow_up - m, k)
    for j, t_star in enumerate(dps, start=1):
        budget_j = base + (1 if j <= rem else 0)
        a = float(series.values[t_star - 1])
        X, Y = solve_scalar_contour(simulator, t_star, a, X, Y, budget_j,
                                    config, problem_index=j, run_log=run_log)
        origins.extend([j] * budget_j)

    models = [fit_gp(X, Y[:, t - 1]) for t in dps]
    targets = [float(series.values[t - 1]) for t in dps]
    x_opt, solution_sets, flags = extract_solution(models, targets, config)
    flags["polish_runs"] = m
    if m:
        X, Y, best = polish(simulator, series.values, x_opt, X, Y, m, run_log, k + 1)
        origins.extend([k + 1] * m)
        x_opt, response_at_opt = X[best], Y[best]
    else:
        response_at_opt = simulator.peek(x_opt)  # off budget, reporting only

    used = simulator.calls - calls_before
    assert used == config.N, f"budget accounting broken: {used} != {config.N}"
    metrics = evaluate_all(response_at_opt, series.values)

    return CalibrationResult(
        training_inputs=X, training_responses=Y, dps=dps_result, x_opt=x_opt,
        solution_sets=solution_sets, metrics=metrics, run_log=run_log,
        flags=flags, budget_used=used, origins=origins,
        response_at_opt=response_at_opt, target=series.values, trace_columns=_MSCE_TRACE,
    )


def hm_run(simulator: Simulator, target, dps: DpsResult, n0: int, cutoff: float,
           config: MsceConfig) -> CalibrationResult:
    """History-matching baseline over the given DPS.

    Per stage: fit one GP per DPS index, sweep a fresh test set, and augment
    every plausible point (IM_max <= cutoff), nearest-to-zero first, up to the
    per-stage cap. Stops when a stage adds nothing or the stage limit is hit.
    The answer is the training point whose stored responses best match the
    target at the DPS.
    """
    if cutoff <= 0:
        raise ValueError(f"implausibility cutoff must be positive, got {cutoff!r}")
    series = checked_target(target, simulator)
    spec = simulator.spec
    indices = list(dps.dps)
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
        means, s2 = MeanBank(models).predict(test)
        im = implausibility_max(means, np.sqrt(s2), targets)

        order = np.argsort(im, kind="stable")
        added = 0
        for idx in order:
            if added >= config.hm_stage_cap or im[idx] > cutoff:
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
                "im_max": float(im[idx]),
                "x": [float(v) for v in x_new],
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
        training_inputs=X, training_responses=Y, dps=dps, x_opt=x_opt,
        solution_sets=None, metrics=metrics, run_log=run_log,
        flags={"cutoff": cutoff}, budget_used=simulator.calls - calls_before,
        origins=origins, response_at_opt=response_at_opt, target=series.values,
        trace_columns=_HM_TRACE,
    )


def write_csv(path, header: list, rows) -> None:
    """One header line, then one line per row of Python numbers, each as its repr."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


def write_responses(path, times: list, runs: list) -> None:
    """The responses CSV: a column t, then columns y1..yN holding the series
    of the N runs, each a list over times. With no runs, only the header t."""
    write_csv(path, ["t", *(f"y{i + 1}" for i in range(len(runs)))],
              zip(times, *runs) if runs else ())


def write_json(path, payload) -> None:
    """payload as JSON with sorted keys and indent 2, then a newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_run_artifacts(run_dir, result: CalibrationResult, resolved_config: dict,
                        simulator: Simulator) -> None:
    """Write the standard run directory: config.json, training.csv,
    responses.csv, result.json, solution.csv, trace.csv. Contents are
    deterministic for a deterministic result."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)

    write_json(run_dir / "config.json", resolved_config)

    X = result.training_inputs
    xs = [f"x{k + 1}" for k in range(X.shape[1])]
    write_csv(run_dir / "training.csv", ["order", "origin", *xs],
              ([i, origin, *x] for i, (origin, x)
               in enumerate(zip(result.origins, X.tolist()), start=1)))

    times = simulator.spec.time_grid.tolist()
    write_responses(run_dir / "responses.csv", times, result.training_responses.tolist())

    payload = {
        "x_opt": [float(v) for v in result.x_opt],
        "metrics": result.metrics,
        "flags": result.flags,
        "budget_used": result.budget_used,
        "dps": result.dps.to_dict(),
        "x_opt_native": [float(v) for v in simulator.spec.unscale(result.x_opt)],
    }
    write_json(run_dir / "result.json", payload)

    write_csv(run_dir / "solution.csv", ["t", "target", "response_at_solution"],
              zip(times, result.target.tolist(), result.response_at_opt.tolist()))

    columns = result.trace_columns
    write_csv(run_dir / "trace.csv", [*columns, *xs],
              ([*(rec[c] for c in columns), *rec["x"]] for rec in result.run_log))


def resolved_config_dict(config: MsceConfig, extra: dict | None = None) -> dict:
    """Config with every default filled in, for replayable run directories."""
    return {**asdict(config), **(extra or {})}
