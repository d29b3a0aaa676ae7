"""The benchmark's workloads.

Each workload makes its inputs from a seed, runs one operation through the
library calls the dyncal CLI makes (or the CLI itself), and checks what the
operation wrote with the independent oracles. An operation's wall time
includes writing its output directory.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

# Layers are reached through their modules, so tracing.py's patches apply.
from dyncal import calibrate as cal
from dyncal import cli, spline_dps
from dyncal.simulators import get_simulator, target_series

import oracles
from oracles import check


class CountingSimulator:
    """Counts the paid runs of a bundled simulator and stamps when each one
    starts and returns, so the wait between runs is measured from outside."""

    def __init__(self, inner):
        self.inner = inner
        self.spec = inner.spec
        self.stamps: list[tuple[float, float]] = []

    @property
    def calls(self) -> int:
        return len(self.stamps)

    def run(self, x_scaled):
        start = time.perf_counter()
        y = self.inner.run(x_scaled)
        self.stamps.append((start, time.perf_counter()))
        return y

    def peek(self, x_scaled):
        return self.inner.peek(x_scaled)


def _read_run_dir(out_dir: Path) -> dict:
    result = json.loads((out_dir / "result.json").read_text())
    with open(out_dir / "training.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    with open(out_dir / "responses.csv", newline="") as fh:
        series = list(csv.reader(fh))[1:]
    with open(out_dir / "trace.csv", newline="") as fh:
        trace = list(csv.DictReader(fh))
    return {
        "result": result,
        "origins": [int(r[1]) for r in rows],
        "X": np.array([[float(v) for v in r[2:]] for r in rows]),
        "Y": np.array([[float(v) for v in r[1:]] for r in series]).T,
        "trace": trace,
    }


def _accuracy_digits(rmse: float, g0) -> float:
    """Decimal digits to which a series matches the target, relative to its range."""
    return -math.log10(rmse / float(np.ptp(g0)))


class Calibration:
    """Shared checks of a calibrate or hm run directory on a bundled simulator."""

    simulator = "easom"

    def verify_run_dir(self, rec) -> dict:
        run = _read_run_dir(rec["out_dir"])
        result, X, Y, origins = run["result"], run["X"], run["Y"], run["origins"]
        n, n0 = rec["calls"], rec["config"].n0
        oracles.check_budget(result["budget_used"], n, "result.json budget_used")
        oracles.check_budget(len(X), n, "training.csv rows")
        oracles.check_budget(len(Y), n, "responses.csv columns")
        check(origins[:n0] == [0] * n0 and 0 not in origins[n0:],
              "training.csv does not start with exactly n0 initial-design runs")
        oracles.check_latin_hypercube(X[:n0])
        oracles.check_responses(self.simulator, X, Y)
        oracles.check_in_box(result["x_opt"])
        g0 = oracles.target(self.simulator)
        rmse, r2 = oracles.check_reported_fit(
            oracles.response(self.simulator, result["x_opt"]), g0, result["metrics"])
        oracles.check_dps(g0, result["dps"])
        run.update(rmse=rmse, r2=r2, digits=_accuracy_digits(rmse, g0))
        return run


class EasomMsce(Calibration):
    """`dyncal calibrate` on easom at the acceptance-criterion-05 config."""

    accuracy_rounds = 4

    def inputs(self, seed: int, work_dir: Path) -> dict:
        return {"config": cal.MsceConfig(n0=15, N=50, seed=seed)}

    def run(self, inp: dict, out_dir: Path) -> dict:
        config = inp["config"]
        start = time.perf_counter()
        sim = CountingSimulator(get_simulator(self.simulator))
        result = cal.msce_run(sim, target_series(self.simulator), config)
        resolved = cal.resolved_config_dict(
            config, extra={"mode": "calibrate", "simulator": self.simulator})
        cal.write_run_artifacts(out_dir, result, resolved, sim)
        run_s = time.perf_counter() - start
        s = sim.stamps  # follow-up run i waits from the return of run i-1
        waits = [s[i][0] - s[i - 1][1] for i in range(config.n0, len(s))]
        return {"out_dir": out_dir, "config": config, "calls": sim.calls,
                "run_s": run_s, "waits": waits}

    def verify(self, rec) -> dict:
        oracles.check_budget(rec["calls"], rec["config"].N, "msce budget N")
        run = self.verify_run_dir(rec)
        run["hit"] = bool(np.max(np.abs(np.array(run["result"]["x_opt"]) - (0.8, 0.2))) <= 0.05)
        return run

    def gate(self, checked: list[dict]) -> None:
        """Criterion 05 over this run's calibrations: median rmse <= 1e-4,
        median r^2 >= 0.999, x_opt within 0.05 of (0.8, 0.2) in 3 of 5."""
        rmse = statistics.median(c["rmse"] for c in checked)
        r2 = statistics.median(c["r2"] for c in checked)
        hits = sum(c["hit"] for c in checked)
        check(rmse <= 1e-4, f"median rmse {rmse:.3g} above 1e-4")
        check(r2 >= 0.999, f"median r2 {r2:.6f} below 0.999")
        check(hits >= 0.6 * len(checked), f"x_opt near (0.8, 0.2) in {hits}/{len(checked)} runs")

    @staticmethod
    def step_s(records) -> float:
        return statistics.median(w * rec["speed"] for rec in records for w in rec["waits"])


class EasomHm(Calibration):
    """`dyncal hm` on easom at the acceptance-criterion-08 config."""

    cutoff = 0.5
    accuracy_rounds = 10

    def inputs(self, seed: int, work_dir: Path) -> dict:
        return {"config": cal.MsceConfig(n0=15, N=230, seed=seed)}

    def run(self, inp: dict, out_dir: Path) -> dict:
        config = inp["config"]
        start = time.perf_counter()
        sim = CountingSimulator(get_simulator(self.simulator))
        series = spline_dps.TargetSeries(target_series(self.simulator))
        dps = spline_dps.build_dps(series, config.k_max)
        result = cal.hm_run(sim, series, dps, config.n0, self.cutoff, config)
        returned = time.perf_counter()
        resolved = cal.resolved_config_dict(config, extra={
            "mode": "hm", "simulator": self.simulator, "cutoff": self.cutoff})
        cal.write_run_artifacts(out_dir, result, resolved, sim)
        run_s = time.perf_counter() - start
        # Surrogate time per stage: from the end of the initial design to the
        # return of hm_run, less the time spent inside the simulator. The last
        # stage adds nothing unless the stage limit stopped the run.
        s = sim.stamps[config.n0 - 1:]
        in_sim = sum(end - begin for begin, end in s[1:])
        stages = min(max(result.origins) + 1, config.hm_stage_limit)
        return {"out_dir": out_dir, "config": config, "calls": sim.calls, "run_s": run_s,
                "stage_s": (returned - s[0][1] - in_sim) / stages}

    def verify(self, rec) -> dict:
        run = self.verify_run_dir(rec)
        X, Y, result = run["X"], run["Y"], run["result"]
        idx = [t - 1 for t in result["dps"]["dps"]]
        g0 = oracles.target(self.simulator)
        best = int(np.argmin(np.sum((Y[:, idx] - g0[idx]) ** 2, axis=1)))
        check(X[best].tolist() == result["x_opt"],
              "x_opt is not the training run closest to the target at the DPS")
        im = [float(r["im_max"]) for r in run["trace"]]
        check(all(v <= self.cutoff for v in im), "an augmented point exceeded the cutoff")
        check(max(run["origins"]) <= rec["config"].hm_stage_limit, "stage limit exceeded")
        run["in_window"] = 60 <= result["budget_used"] <= 600 and run["rmse"] <= 1e-3
        return run

    def gate(self, checked: list[dict]) -> None:
        """Criterion 08 over this run's hm runs: budget in [60, 600] and
        rmse <= 1e-3 in 3 of 5."""
        good = sum(c["in_window"] for c in checked)
        check(good >= 0.6 * len(checked), f"{good}/{len(checked)} hm runs in the budget window "
                                          "with rmse <= 1e-3")

    @staticmethod
    def step_s(records) -> float:
        return statistics.median(rec["stage_s"] * rec["speed"] for rec in records)


def hydrograph(L: int, seed: int, storms: int = 60) -> np.ndarray:
    """Synthetic daily runoff: a fixed two-season baseflow plus storms at
    random times, each a gamma-shaped response with a random peak and
    recession. The knots land on the seasons; the storms set the misfit."""
    rng = np.random.default_rng(seed)
    t = np.arange(L, dtype=float)
    x = t / L
    q = 1.0 + 1.5 * np.exp(-((x - 0.35) / 0.12) ** 2) + 0.8 * np.exp(-((x - 0.75) / 0.08) ** 2)
    for onset, size, recession in zip(rng.uniform(0.0, 0.95 * L, storms),
                                      rng.lognormal(0.0, 0.5, storms),
                                      rng.uniform(0.002, 0.01, storms) * L):
        lag = np.maximum(t - onset, 0.0) / recession
        q += 0.15 * size * lag ** 2 * np.exp(-lag)
    return q


class HydroDps:
    """`dyncal dps` on a synthetic hydrograph of length L."""

    L = 1500
    k_max = 3
    accuracy_rounds = 7

    def inputs(self, seed: int, work_dir: Path) -> dict:
        values = hydrograph(self.L, seed)
        work_dir.mkdir(parents=True, exist_ok=True)
        path = work_dir / f"hydro-{seed}.csv"
        with open(path, "w") as fh:
            fh.write("t,value\n")
            fh.writelines(f"{i},{float(v)!r}\n" for i, v in enumerate(values, start=1))
        return {"csv": path, "values": values}

    def run(self, inp: dict, out_dir: Path) -> dict:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["dps", str(inp["csv"]), "--k-max", str(self.k_max),
                             "--out-dir", str(out_dir)])
        run_s = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"dyncal dps exited {code}")
        return {"out_dir": out_dir, "values": inp["values"], "run_s": run_s}

    def verify(self, rec) -> dict:
        dps = json.loads((rec["out_dir"] / "dps.json").read_text())
        oracles.check_dps(rec["values"], dps)
        with open(rec["out_dir"] / "mse_path.csv", newline="") as fh:
            path = [float(r[1]) for r in list(csv.reader(fh))[1:]]
        check(path == dps["mse_path"], "mse_path.csv differs from dps.json")
        rmse = math.sqrt(dps["mse_path"][dps["k_selected"]])
        return {"rmse": rmse, "digits": _accuracy_digits(rmse, rec["values"])}

    def gate(self, checked: list[dict]) -> None:
        """The DPS has no acceptance threshold; check_dps holds it to optimality."""

    def step_s(self, records) -> float:
        """Wall time per knot decision: one greedy stage of the build."""
        return statistics.median(rec["run_s"] * rec["speed"] for rec in records) / self.k_max


WORKLOADS = {"easom-msce": EasomMsce, "easom-hm": EasomHm, "hydro-dps": HydroDps}
