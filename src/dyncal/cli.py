"""Command-line front end.

Subcommands:
  dps        target series CSV -> DPS JSON + MSE-path CSV
  calibrate  config JSON -> run directory (sequential contour estimation)
  hm         config JSON -> run directory (history-matching baseline)
  simulate   simulator + inputs CSV -> responses CSV
  evaluate   two series CSVs -> metrics JSON

Exit codes: 0 success, 1 unexpected error, 2 invalid config or budget,
3 surrogate fit failure, 4 external-simulator process/protocol failure,
5 unreadable or malformed input file.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import calibrate as cal
from .gp import FitError
from .metrics import evaluate_all
from .simulators import (ExternalSimulator, ProcessError, ProtocolError,
                         Simulator, SimulatorSpec, SimulatorTimeout,
                         get_simulator, target_series)
from .spline_dps import TargetSeries, build_dps

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_FIT = 3
EXIT_PROCESS = 4
EXIT_PARSE = 5

EXCHANGE_DIR_ENV = "DYNCAL_EXCHANGE_DIR"


class InputError(Exception):
    """Unreadable or malformed input file."""


def _read_series_csv(path) -> TargetSeries:
    """Read a t,value series; parse errors name the offending row."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    if not rows:
        raise InputError(f"{path}: empty file")
    start = 1 if [c.strip().lower() for c in rows[0]] == ["t", "value"] else 0
    times, values = [], []
    for i, row in enumerate(rows[start:], start=start + 1):
        if not row:
            continue
        if len(row) != 2:
            raise InputError(f"{path}: row {i} has {len(row)} fields, expected 2")
        try:
            times.append(float(row[0]))
            values.append(float(row[1]))
        except ValueError:
            raise InputError(f"{path}: row {i} is not numeric: {row!r}")
    if not values:
        raise InputError(f"{path}: no data rows")
    return TargetSeries(values=np.array(values), times=np.array(times))


def _read_inputs_csv(path) -> np.ndarray:
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r]
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    if not rows:
        return np.empty((0, 0))
    start = 1 if rows[0] and rows[0][0].strip().lower().startswith("x") else 0
    data = []
    for i, row in enumerate(rows[start:], start=start + 1):
        try:
            data.append([float(v) for v in row])
        except ValueError:
            raise InputError(f"{path}: row {i} is not numeric: {row!r}")
    return np.array(data) if data else np.empty((0, 0))


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}")


def _build_simulator(cfg: dict) -> Simulator:
    sim = cfg.get("simulator")
    if isinstance(sim, str):
        return get_simulator(sim)
    if isinstance(sim, dict):
        exchange = (os.environ.get(EXCHANGE_DIR_ENV)
                    or sim.get("exchange_dir")
                    or "exchange")
        spec = SimulatorSpec(
            name=sim.get("name", "external"),
            d=int(sim["d"]), L=int(sim["L"]),
            time_grid=np.asarray(sim.get("time_grid",
                                         np.arange(1, int(sim["L"]) + 1)), float),
            native_bounds=[tuple(b) for b in sim["bounds"]],
        )
        return ExternalSimulator(spec, sim["command"], exchange,
                                 timeout=float(sim.get("timeout", 60.0)))
    raise ValueError("config needs 'simulator': a name or an external command spec")


def _msce_config(cfg: dict) -> cal.MsceConfig:
    kwargs = {k: cfg[k] for k in
              ("n0", "N", "seed", "k_max", "alpha", "epsilon", "M", "grid_size",
               "initial_design", "design_iterations", "dps_order",
               "hm_stage_cap", "hm_stage_limit") if k in cfg}
    return cal.MsceConfig(**kwargs)


def _cmd_dps(args) -> int:
    series = _read_series_csv(args.target)
    result = build_dps(series, k_max=args.k_max)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "dps.json", "w") as fh:
        json.dump({
            "ordered_knots": [int(v) for v in result.ordered_knots],
            "mse_path": [float(v) for v in result.mse_path],
            "k_selected": result.k_selected,
            "dps": [int(v) for v in result.dps],
            "elbow_warning": result.elbow_warning,
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "mse_path.csv", "w") as fh:
        fh.write("knots,mse\n")
        for i, v in enumerate(result.mse_path):
            fh.write(f"{i},{float(v)!r}\n")
    print(f"dps: {result.dps} (k={result.k_selected}) -> {out}")
    return EXIT_OK


def _run_common(args, mode: str) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    simulator = _build_simulator(cfg)
    config = _msce_config(cfg)
    if "target" in cfg:
        target = np.asarray(cfg["target"], dtype=float)
    elif "target_csv" in cfg:
        target = _read_series_csv(cfg["target_csv"]).values
    elif isinstance(cfg["simulator"], str):
        target = target_series(cfg["simulator"])
    else:
        raise ValueError("an external-simulator config needs 'target' or 'target_csv'")

    if mode == "calibrate":
        result = cal.msce_run(simulator, target, config)
    else:
        cutoff = float(cfg.get("cutoff", 0.0))
        if cutoff <= 0:
            raise ValueError("hm runs need a positive 'cutoff' in the config")
        series = TargetSeries(target)
        dps = build_dps(series, config.k_max)
        result = cal.hm_run(simulator, series, dps, config.n0, cutoff, config)

    out_dir = Path(args.out_dir or cfg.get("out_dir") or f"{mode}_run")
    resolved = cal.resolved_config_dict(config, extra={
        "mode": mode,
        "simulator": cfg.get("simulator"),
        **({"cutoff": cfg["cutoff"]} if mode == "hm" else {}),
    })
    cal.write_run_artifacts(out_dir, result, resolved, simulator)
    print(f"x_opt: {[round(float(v), 6) for v in result.x_opt]}  "
          f"budget: {result.budget_used}  rmse: {result.metrics['rmse']:.4g}  "
          f"-> {out_dir}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.command:
        exchange = os.environ.get(EXCHANGE_DIR_ENV, args.exchange_dir or "exchange")
        spec = SimulatorSpec(name="external", d=args.d, L=args.L,
                             time_grid=np.arange(1, args.L + 1),
                             native_bounds=[(0.0, 1.0)] * args.d)
        simulator = ExternalSimulator(spec, args.command.split(), exchange)
    else:
        simulator = get_simulator(args.simulator)
    inputs = _read_inputs_csv(args.inputs)
    out_path = Path(args.out or "responses.csv")
    if inputs.size == 0:
        out_path.write_text("t\n")
        return EXIT_OK
    if inputs.shape[1] != simulator.spec.d:
        raise InputError(
            f"{args.inputs}: {inputs.shape[1]} columns, simulator needs {simulator.spec.d}")
    runs = [simulator.run(simulator.spec.scale(x)) if not args.scaled
            else simulator.run(x) for x in inputs]
    with open(out_path, "w") as fh:
        fh.write("t," + ",".join(f"y{i + 1}" for i in range(len(runs))) + "\n")
        for j in range(simulator.spec.L):
            fh.write(repr(float(simulator.spec.time_grid[j])) + ","
                     + ",".join(repr(float(r[j])) for r in runs) + "\n")
    print(f"{len(runs)} runs -> {out_path}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    g_hat = _read_series_csv(args.candidate)
    g0 = _read_series_csv(args.target)
    payload = evaluate_all(g_hat.values, g0.values)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dyncal",
                                description="Calibration of time-series simulators")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("dps", help="build a discretization point set")
    sp.add_argument("target", help="target series CSV (t,value)")
    sp.add_argument("--k-max", type=int, default=10)
    sp.add_argument("--out-dir", default="dps_out")
    sp.set_defaults(func=_cmd_dps)

    for mode in ("calibrate", "hm"):
        sp = sub.add_parser(mode)
        sp.add_argument("config", help="run config JSON")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--out-dir", default=None)
        sp.set_defaults(func=lambda a, m=mode: _run_common(a, m))

    sp = sub.add_parser("simulate", help="batch-evaluate a simulator")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--simulator", choices=["easom", "harari_steinberg", "bliznyuk"])
    group.add_argument("--command", help="external simulator command line")
    sp.add_argument("inputs", help="inputs CSV (native units; header x1..xd optional)")
    sp.add_argument("--scaled", action="store_true",
                    help="treat inputs as already scaled to [0,1]^d")
    sp.add_argument("--d", type=int, default=1, help="dimension for --command")
    sp.add_argument("--L", type=int, default=200, help="series length for --command")
    sp.add_argument("--exchange-dir", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("evaluate", help="goodness-of-fit between two series")
    sp.add_argument("candidate")
    sp.add_argument("target")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_evaluate)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except cal.BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except (ProcessError, ProtocolError, SimulatorTimeout) as exc:
        print(f"simulator error: {exc}", file=sys.stderr)
        return EXIT_PROCESS
    except (ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
