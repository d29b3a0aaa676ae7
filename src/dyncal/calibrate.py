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

Every simulator run of both goes through one ledger, _Runs: it runs the
initial design, pays each later run (training row, origin and trace record
together) and builds the result, budget_used included. Both are
deterministic for a fixed config seed: every random draw comes from a stream
derived from (seed, purpose, index).
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .acquisition import (ContourTarget, check_alpha, expected_improvement,
                          implausibility_max)
from .designs import maximin_lhd, maxpro_lhd, random_lhd
from .gp import GpModel, MeanBank, fit_gp, predict_batch
from .metrics import ConstantTargetError, evaluate_all
from .simulators import Simulator, check_integer, check_number, write_csv
from .spline_dps import DpsResult, TargetSeries, build_dps

DUPLICATE_TOL = 1e-10


class BudgetError(ValueError):
    """Simulator-run budget cannot cover the run as configured."""


@dataclass
class MsceConfig:
    """Knobs for a calibration run; everything else derives from the seed.
    The method has no switches: the n0-point initial design is MaxPro for
    msce_run and maximin for hm_run, both drawn on stream (seed, 0).
    k_max None is `build_dps`'s default knot budget; an explicit k_max must
    be an integer, and `build_dps` holds it to its bounds."""

    n0: int
    N: int
    seed: int = 0
    k_max: int | None = None
    alpha: float = 0.67
    epsilon: float = 1e-5
    M: int = 5000
    grid_size: int = 10_000
    design_iterations: int = 10_000
    hm_stage_cap: int = 100
    hm_stage_limit: int = 10

    def __post_init__(self):
        for f in fields(self):  # f.type is the annotation's text
            value = getattr(self, f.name)
            check = {"int": check_integer, "float": check_number}.get(
                f.type.removesuffix(" | None"))
            if check is not None and not (value is None and f.type.endswith(" | None")):
                check(value, f.name)
        if not (2 <= self.n0 < self.N):
            raise BudgetError(f"need 2 <= n0 < N, got n0={self.n0}, N={self.N}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        check_alpha(self.alpha)
        for name, least in (("seed", 0), ("design_iterations", 0), ("grid_size", 1),
                            ("hm_stage_cap", 1), ("hm_stage_limit", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.M < 100:
            raise ValueError("candidate-set size M must be at least 100")


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


def _duplicate_row(x: np.ndarray, X: np.ndarray) -> int | None:
    """The nearest row of X if it lies within DUPLICATE_TOL of x, else None."""
    dist = np.linalg.norm(X - x, axis=1)
    row = int(np.argmin(dist))
    return row if dist[row] < DUPLICATE_TOL else None


def _is_duplicate(x: np.ndarray, X: np.ndarray) -> bool:
    return _duplicate_row(x, X) is not None


class _Runs:
    """The ledger of a calibration's paid simulator runs. The constructor
    runs the initial design (origin 0, no trace record); every later run is
    paid through pay, which stores its input and series as the next training
    row, its origin and its trace record, in call order. So trace record i is
    training row n0 + i, and result reads budget_used off simulator.calls."""

    def __init__(self, simulator: Simulator, design: np.ndarray):
        self.simulator = simulator
        self.calls_before = simulator.calls
        self.X = design
        self.Y = np.vstack([simulator.run(x) for x in design])
        self.origins = [0] * len(design)
        self.log: list = []

    def pay(self, x: np.ndarray, origin: int, record: dict) -> int:
        """Run the simulator at x and record the run; its training row."""
        y = self.simulator.run(x)
        self.X = np.vstack([self.X, x])
        self.Y = np.vstack([self.Y, y])
        self.origins.append(origin)
        self.log.append({**record, "x": [float(v) for v in x]})
        return len(self.X) - 1

    def result(self, best: int, target: np.ndarray, dps: DpsResult, flags: dict,
               solution_sets: list | None, trace_columns: tuple) -> CalibrationResult:
        """The CalibrationResult whose answer is training row best."""
        x_opt, response_at_opt = self.X[best], self.Y[best]
        return CalibrationResult(
            training_inputs=self.X, training_responses=self.Y, dps=dps, x_opt=x_opt,
            solution_sets=solution_sets, metrics=evaluate_all(response_at_opt, target),
            run_log=self.log, flags=flags,
            budget_used=self.simulator.calls - self.calls_before, origins=self.origins,
            response_at_opt=response_at_opt, target=target, trace_columns=trace_columns,
        )


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


def solve_scalar_contour(runs: _Runs, t_star: int, a: float, budget_j: int,
                         config: MsceConfig, problem_index: int) -> None:
    """Pay budget_j runs into runs, estimating the contour g(x, t_star) = a.

    Each step fits a GP to the scalar responses at t_star over the current
    training set, sweeps expected improvement over a fresh candidate LHD, and
    pays a run at the best non-duplicate candidate, with origin problem_index
    and its EI, predicted mean and sd in the trace record.
    """
    target = ContourTarget(a=a, alpha=config.alpha)
    col = t_star - 1  # DPS indices are 1-based
    for _ in range(budget_j):
        model = fit_gp(runs.X, runs.Y[:, col])
        rng = np.random.default_rng([config.seed, 1, len(runs.X)])
        cands = random_lhd(config.M, runs.X.shape[1], rng)
        means, s2 = predict_batch(model, cands)
        sds = np.sqrt(s2)
        ei = expected_improvement(means, sds, target)
        pick = _best_candidate(ei, cands, runs.X)
        runs.pay(cands[pick], problem_index, {
            "iteration": len(runs.X) + 1, "problem": problem_index, "t_star": t_star,
            "ei": float(ei[pick]), "pred_mean": float(means[pick]),
            "pred_sd": float(sds[pick])})


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
    grid = np.concatenate([
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


def polish(runs: _Runs, g0: np.ndarray, x0: np.ndarray, m: int, problem: int) -> int:
    """Pay exactly m runs into runs, with origin problem, on a
    Levenberg-Marquardt descent of the real misfit sum((g(x) - g0)^2) from
    x0 in [0, 1]^d. Returns the training row of the incumbent: the polish
    point of least misfit. A polish point that repeats a training input (x0,
    say) reuses its stored series, so with m = 1 the run goes to x0, or else
    to the first difference. Forward differences (step h = 0.01, inward at
    the upper bound) at the incumbent give J; each step, damped by lam * diag(J'J) (floored for zero columns;
    lam from 1e-3, /3 on a lower misfit, *4 otherwise) and clipped to the
    box, costs a run and updates J by Broyden's rule. A step that repeats a
    training input is not run: the differences are taken afresh with h
    halved. Runs are traced with t_star 0 and no surrogate values."""
    d = runs.X.shape[1]
    n_before = len(runs.X)
    rows, misfits = [], []  # the polish points as training rows, and their real misfits

    def evaluate(x):
        row = _duplicate_row(x, runs.X)
        if row is None:
            row = runs.pay(x, problem, {
                "iteration": len(runs.X) + 1, "problem": problem, "t_star": 0,
                "ei": np.nan, "pred_mean": np.nan, "pred_sd": np.nan})
        rows.append(row)
        misfits.append(float(np.sum((runs.Y[row] - g0) ** 2)))

    def incumbent():
        return rows[int(np.argmin(misfits))]

    def difference_jacobian(h):
        b = incumbent()
        for j in range(d):
            if len(runs.X) - n_before == m:
                return
            x = runs.X[b].copy()
            x[j] += h if x[j] + h <= 1.0 else -h
            evaluate(x)
            J[:, j] = (runs.Y[rows[-1]] - runs.Y[b]) / (x[j] - runs.X[b, j])

    evaluate(np.asarray(x0, dtype=float))
    J = np.empty((runs.Y.shape[1], d))
    h, lam = 0.01, 1e-3
    difference_jacobian(h)
    while len(runs.X) - n_before < m:
        b, f_b = incumbent(), min(misfits)
        JtJ = J.T @ J
        scale = np.maximum(np.diag(JtJ), 1e-12 * np.max(np.diag(JtJ)) + 1e-300)
        delta = np.linalg.solve(JtJ + lam * np.diag(scale), J.T @ (g0 - runs.Y[b]))
        x = np.clip(runs.X[b] + delta, 0.0, 1.0)
        if _is_duplicate(x, runs.X):
            h /= 2.0
            if h < 1e-9:
                raise RuntimeError("polish steps and probes all repeat training inputs")
            difference_jacobian(h)
            continue
        evaluate(x)
        s = runs.X[-1] - runs.X[b]
        J += np.outer(runs.Y[-1] - runs.Y[b] - J @ s, s) / (s @ s)
        lam = lam / 3.0 if misfits[-1] < f_b else lam * 4.0
    return incumbent()


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

    Spends exactly N simulator runs and evaluates the simulator nowhere else:
    n0 on the initial MaxPro design, m on the polish of the extracted answer
    (flags["polish_runs"]; 1 when fewer than d + 2 runs are left), the rest
    split evenly over the k DPS problems, solved in knot-selection order
    (earlier problems take the leftovers, since they double as global
    exploration). The answer is the best polish run.
    """
    series = checked_target(target, simulator)
    d = simulator.spec.d

    dps_result = build_dps(series, config.k_max)
    dps = list(dps_result.dps)
    k = len(dps)
    follow_up = config.N - config.n0
    if follow_up < k + 1:
        raise BudgetError(f"budget N-n0={follow_up} cannot give each of {k} scalar "
                          f"problems a run and the answer one more (needs {k + 1})")
    m = min(2 * (d + 1), follow_up - k)  # polish runs: a start, d differences, steps
    m = m if m >= d + 2 else 1  # too few to descend: one run evaluates the answer

    runs = _Runs(simulator, maxpro_lhd(config.n0, d, np.random.default_rng([config.seed, 0]),
                                       config.design_iterations))
    base, rem = divmod(follow_up - m, k)
    for j, t_star in enumerate(dps, start=1):
        solve_scalar_contour(runs, t_star, float(series.values[t_star - 1]),
                             base + (1 if j <= rem else 0), config, problem_index=j)

    models = [fit_gp(runs.X, runs.Y[:, t - 1]) for t in dps]
    targets = [float(series.values[t - 1]) for t in dps]
    x_opt, solution_sets, flags = extract_solution(models, targets, config)
    flags["polish_runs"] = m
    best = polish(runs, series.values, x_opt, m, k + 1)

    result = runs.result(best, series.values, dps_result, flags, solution_sets, _MSCE_TRACE)
    used = result.budget_used
    assert used == config.N, f"budget accounting broken: {used} != {config.N}"
    return result


def checked_cutoff(cutoff) -> float:
    """cutoff as a float; ValueError unless it is a finite number above 0."""
    cutoff = float(check_number(cutoff, "cutoff"))
    if cutoff <= 0:
        raise ValueError(f"implausibility cutoff must be positive, got {cutoff!r}")
    return cutoff


def hm_run(simulator: Simulator, target, dps: DpsResult, n0: int, cutoff: float,
           config: MsceConfig) -> CalibrationResult:
    """History-matching baseline over the given DPS.

    Per stage: fit one GP per DPS index, sweep a fresh test set, and augment
    every plausible point (IM_max <= cutoff), nearest-to-zero first, up to the
    per-stage cap. Stops when a stage adds nothing or the stage limit is hit.
    The answer is the training point whose stored responses best match the
    target at the DPS. cutoff must be a finite number above 0 (`checked_cutoff`).
    """
    cutoff = checked_cutoff(cutoff)
    series = checked_target(target, simulator)
    spec = simulator.spec
    indices = list(dps.dps)
    targets = np.array([series.values[t - 1] for t in indices])

    runs = _Runs(simulator, maximin_lhd(n0, spec.d, np.random.default_rng([config.seed, 0]),
                                        config.design_iterations))
    for stage in range(1, config.hm_stage_limit + 1):
        models = [fit_gp(runs.X, runs.Y[:, t - 1]) for t in indices]
        rng = np.random.default_rng([config.seed, 3, stage])
        test = random_lhd(config.M, spec.d, rng)
        means, s2 = MeanBank(models).predict(test)
        im = implausibility_max(means, np.sqrt(s2), targets)

        order = np.argsort(im, kind="stable")
        added = 0
        for idx in order:
            if added >= config.hm_stage_cap or im[idx] > cutoff:
                break
            if _is_duplicate(test[idx], runs.X):
                continue
            runs.pay(test[idx], stage, {"stage": stage, "im_max": float(im[idx])})
            added += 1
        if added == 0:
            break

    scores = np.sum((runs.Y[:, [t - 1 for t in indices]] - targets) ** 2, axis=1)
    return runs.result(int(np.argmin(scores)), series.values, dps, {"cutoff": cutoff},
                       None, _HM_TRACE)


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
