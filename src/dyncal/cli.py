"""Command-line front end.

Subcommands:
  dps        target series CSV -> DPS JSON + MSE-path CSV
  calibrate  config JSON -> run directory (sequential contour estimation)
  hm         config JSON -> run directory (history-matching baseline)
  simulate   simulator name or spec JSON + inputs CSV -> responses CSV
  evaluate   two series CSVs -> metrics JSON

Exit codes: 0 success, 1 unexpected error, 2 invalid config or budget,
3 surrogate fit failure, 4 external-simulator process/protocol failure (an
unreadable or malformed output.csv included), 5 unreadable or malformed
input file, or an output path that cannot be written.

The checks here are about JSON itself: unknown, missing and repeated keys,
the mode and path strings. Every rule on a value is the library's: the
simulator spec, command and timeout are checked by SimulatorSpec and
ExternalSimulator, the target by TargetSeries, the cutoff by checked_cutoff,
the knot budget and the shortest series by build_dps and the other numbers
by MsceConfig.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from . import calibrate as cal
from .gp import FitError
from .metrics import ConstantTargetError, evaluate_all
from .simulators import (ExternalSimulator, InputError, ProcessError, ProtocolError,
                         Simulator, SimulatorSpec, SimulatorTimeout, get_simulator,
                         read_csv, target_series, write_csv)
from .spline_dps import K_MAX_DEFAULT, DpsTargetError, TargetSeries, build_dps

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_FIT = 3
EXIT_PROCESS = 4
EXIT_PARSE = 5

EXCHANGE_DIR_ENV = "DYNCAL_EXCHANGE_DIR"


def _read_series_csv(path) -> TargetSeries:
    """A t,value series; the t values are checked only, as knots are the indices 1..L."""
    data = read_csv(path, ["t", "value"])
    try:
        return TargetSeries(data[:, 1])
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; ValueError on a repeated key, where json keeps the last."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate config key {key!r}")
        out[key] = value
    return out


def _load_config(path) -> dict:
    """The config JSON, a leading UTF-8 byte-order mark dropped and no key repeated
    at any depth."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}")


def _check_keys(obj: dict, kind: str, allowed, required, paths) -> None:
    """ValueError on a key of obj outside allowed, a required key it lacks, or
    a key of paths whose value is not a path string."""
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {kind} key {unknown[0]!r}")
    for key in required:
        if key not in obj:
            raise ValueError(f"missing {kind} key {key!r}")
    for key in paths:
        if not isinstance(obj.get(key, ""), str):
            raise ValueError(f"{key} must be a path string, got {obj[key]!r}")


def _writable(path, file: bool = False) -> Path:
    """path as a Path; InputError unless the output can be written: an output
    file must not be a directory and its directory must be one, and the first
    of an output directory and its ancestors that exists must be a directory
    (the rest is made when the run directory is written). Creates nothing."""
    path = Path(path)
    if file and path.is_dir():
        raise InputError(f"cannot write {path}: it is a directory")
    here = path.parent if file else next(p for p in (path, *path.parents) if p.exists())
    if not here.is_dir():
        raise InputError(f"cannot write {path}: {here} is not a directory")
    return path


def _build_simulator(sim) -> Simulator:
    """A bundled simulator by name, or an external one from its spec dict, run
    in $DYNCAL_EXCHANGE_DIR, else the spec's exchange_dir, else ./exchange."""
    if isinstance(sim, str):
        return get_simulator(sim)
    if not isinstance(sim, dict):
        raise ValueError("simulator must be a bundled name or an external spec object")
    required = ("d", "L", "bounds", "command")
    _check_keys(sim, "simulator", required + ("name", "time_grid", "exchange_dir", "timeout"),
                required, ["exchange_dir"])
    spec = SimulatorSpec(name=sim.get("name", "external"), d=sim["d"], L=sim["L"],
                         time_grid=sim.get("time_grid"), native_bounds=sim["bounds"])
    exchange = os.environ.get(EXCHANGE_DIR_ENV) or sim.get("exchange_dir") or "exchange"
    return ExternalSimulator(spec, sim["command"], exchange, timeout=sim.get("timeout", 60.0))


def _check_run_keys(cfg: dict, mode: str) -> None:
    """ValueError on a key no run reads, a key this subcommand needs and is
    not given, a path that is not a string, or a mode other than this subcommand."""
    _check_keys(cfg, "config", [f.name for f in fields(cal.MsceConfig)]
                + ["simulator", "target", "target_csv", "cutoff", "out_dir", "mode"],
                [f.name for f in fields(cal.MsceConfig) if f.default is MISSING]
                + (["cutoff"] if mode == "hm" else []), ["target_csv", "out_dir"])
    if cfg.get("mode", mode) != mode:
        raise ValueError(f"config mode {cfg['mode']!r} does not match the {mode!r} subcommand")


def _cmd_dps(args) -> int:
    series = _read_series_csv(args.target)
    out = _writable(args.out_dir)
    try:
        result = build_dps(series, k_max=args.k_max)
    except DpsTargetError as exc:
        raise InputError(f"{args.target}: {exc}")
    out.mkdir(parents=True, exist_ok=True)
    cal.write_json(out / "dps.json", result.to_dict())
    write_csv(out / "mse_path.csv", ["knots", "mse"], enumerate(result.mse_path.tolist()))
    print(f"dps: {result.dps} (k={result.k_selected}) -> {out}")
    return EXIT_OK


def _run_common(args, mode: str) -> int:
    cfg = _load_config(args.config)
    if not isinstance(cfg, dict):
        raise ValueError("the config must be a JSON object")
    _check_run_keys(cfg, mode)
    if args.seed is not None:
        cfg["seed"] = args.seed
    simulator = _build_simulator(cfg.get("simulator"))
    config = cal.MsceConfig(**{f.name: cfg[f.name] for f in fields(cal.MsceConfig)
                               if f.name in cfg})
    cutoff = cal.checked_cutoff(cfg["cutoff"]) if "cutoff" in cfg else None
    if "target" in cfg:
        target = cfg["target"]
    elif "target_csv" in cfg:
        target = _read_series_csv(cfg["target_csv"])
    elif isinstance(cfg["simulator"], str):
        target = target_series(cfg["simulator"])
    else:
        raise ValueError("an external-simulator config needs 'target' or 'target_csv'")
    series = cal.checked_target(target, simulator)
    out_dir = _writable(args.out_dir or cfg.get("out_dir") or f"{mode}_run")

    if mode == "calibrate":
        result = cal.msce_run(simulator, series, config)
    else:
        dps = build_dps(series, config.k_max)
        result = cal.hm_run(simulator, series, dps, config.n0, cutoff, config)

    resolved = cal.resolved_config_dict(config, extra={
        "k_max": len(result.dps.mse_path) - 1,  # the knot budget the scan used
        "mode": mode,
        "simulator": cfg.get("simulator"),
        **{k: cfg[k] for k in ("target", "target_csv", "cutoff") if k in cfg},
    })
    cal.write_run_artifacts(out_dir, result, resolved, simulator)
    print(f"x_opt: {[round(float(v), 6) for v in result.x_opt]}  "
          f"budget: {result.budget_used}  rmse: {result.metrics['rmse']:.4g}  "
          f"-> {out_dir}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    value = args.simulator
    simulator = _build_simulator(_load_config(value) if Path(value).is_file() else value)
    inputs = read_csv(args.inputs, [f"x{k + 1}" for k in range(simulator.spec.d)])
    out_path = Path(args.out or "responses.csv")
    _writable(out_path, file=True)
    runs = [simulator.run(x if args.scaled else simulator.spec.scale(x)).tolist()
            for x in inputs]
    cal.write_responses(out_path, simulator.spec.time_grid.tolist(), runs)
    if runs:
        print(f"{len(runs)} runs -> {out_path}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    g_hat = _read_series_csv(args.candidate)
    g0 = _read_series_csv(args.target)
    if len(g_hat) != len(g0):
        raise InputError(f"series lengths differ: {len(g_hat)} rows in {args.candidate}, "
                         f"{len(g0)} in {args.target}")
    try:
        payload = evaluate_all(g_hat.values, g0.values)
    except ConstantTargetError as exc:
        raise InputError(f"{args.target}: {exc}")
    if args.out:
        cal.write_json(_writable(args.out, file=True), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dyncal",
                                description="Calibration of time-series simulators")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("dps", help="build a discretization point set")
    sp.add_argument("target", help="target series CSV (t,value)")
    sp.add_argument("--k-max", type=int, default=None,
                    help=f"greedy knot search depth (default {K_MAX_DEFAULT}, "
                         "or the series length less 5 if that is smaller)")
    sp.add_argument("--out-dir", default="dps_out")
    sp.set_defaults(func=_cmd_dps)

    for mode in ("calibrate", "hm"):
        sp = sub.add_parser(mode)
        sp.add_argument("config", help="run config JSON")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--out-dir", default=None)
        sp.set_defaults(func=lambda a, m=mode: _run_common(a, m))

    sp = sub.add_parser("simulate", help="batch-evaluate a simulator")
    sp.add_argument("--simulator", required=True,
                    help="bundled name, or a JSON file holding an external spec "
                         "as a run config's 'simulator' key does")
    sp.add_argument("inputs", help="inputs CSV (native units; header x1..xd optional)")
    sp.add_argument("--scaled", action="store_true",
                    help="treat inputs as already scaled to [0,1]^d")
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
    except (InputError, OSError) as exc:  # an OSError is from writing an output
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
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
