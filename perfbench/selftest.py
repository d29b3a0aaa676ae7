"""Self-test of the benchmark's oracles: each must accept a real output and
reject a perturbed copy of it.

Run from the root of a dyncal checkout; it takes about a quarter of a minute:

    PYTHONPATH=src:perfbench python3 perfbench/selftest.py

Exits 0 when every oracle accepted the real outputs and rejected every
perturbation, 1 otherwise.
"""
from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import oracles
import workloads
from dyncal.simulators import get_simulator
from oracles import OracleError


def _edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _edit_csv_cell(path: Path, row: int, col: int, edit) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(edit(float(cells[col])))
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _shift_x_opt(d):
    d["x_opt"][0] += 0.01


def _leave_box(d):
    d["x_opt"][0] = 1.25


def _drop_knot(d):
    del d["ordered_knots"][1], d["mse_path"][2]
    d["dps"] = d["ordered_knots"][:d["k_selected"]]


def _move_knot(d):
    d["ordered_knots"][0] += 7


def _dps_of(payload_edit):
    return lambda d: payload_edit(d["dps"])


class SelfTest:
    def __init__(self, work: Path):
        self.work = work
        self.failures: list[str] = []
        self.copies = 0

    def expect_reject(self, label, workload, rec, needle, file=None, edit=None, csv_cell=None):
        """Copy the operation's output, perturb it, and require the oracle
        whose message contains `needle` to reject it."""
        rec = dict(rec)
        self.copies += 1
        out = self.work / f"perturbed-{self.copies}"
        shutil.copytree(rec["out_dir"], out)
        rec["out_dir"] = out
        if edit is not None:
            _edit_json(out / file, edit)
        if csv_cell is not None:
            _edit_csv_cell(out / file, *csv_cell)
        try:
            workload.verify(rec)
        except OracleError as exc:
            ok = needle in str(exc)
            print(f"{'rejected' if ok else 'WRONG ORACLE'}: {label}: {exc}")
            if not ok:
                self.failures.append(label)
            return
        print(f"NOT REJECTED: {label}")
        self.failures.append(label)

    def expect_gate_reject(self, label, workload, checked, edit):
        checked = copy.deepcopy(checked)
        for c in checked:
            edit(c)
        try:
            workload.gate(checked)
        except OracleError as exc:
            print(f"rejected: {label}: {exc}")
            return
        print(f"NOT REJECTED: {label}")
        self.failures.append(label)

    def accept(self, label, fn):
        try:
            result = fn()
        except OracleError as exc:
            print(f"FALSE ALARM: {label}: {exc}")
            self.failures.append(label)
            return None
        print(f"accepted: {label}")
        return result

    def formulas(self):
        rng = np.random.default_rng(0)
        for name in oracles.FORMULAS:
            sim = get_simulator(name)
            X = rng.uniform(size=(10, sim.spec.d))
            Y = np.vstack([sim.peek(x) for x in X])
            self.accept(f"{name} responses", lambda: oracles.check_responses(name, X, Y))
            try:
                oracles.check_responses(name, X + 1e-3, Y)
                print(f"NOT REJECTED: {name} responses at shifted inputs")
                self.failures.append(f"{name} formula")
            except OracleError as exc:
                print(f"rejected: {name} responses at shifted inputs: {exc}")

    def msce(self):
        wl = workloads.EasomMsce()
        rec = wl.run(wl.inputs(0, self.work), self.work / "msce")
        checked = self.accept("easom-msce output", lambda: wl.verify(rec))
        if checked is None:
            return
        self.accept("easom-msce accuracy", lambda: wl.gate([checked]))
        self.expect_reject("shifted x_opt", wl, rec, "reported rmse",
                           file="result.json", edit=_shift_x_opt)
        self.expect_reject("x_opt outside the box", wl, rec, "outside [0,1]",
                           file="result.json", edit=_leave_box)
        self.expect_reject("miscounted budget", wl, {**rec, "calls": rec["calls"] - 1},
                           "simulator runs counted")
        self.expect_reject("altered stored response", wl, rec, "differs from the simulator",
                           file="responses.csv", csv_cell=(100, 7, lambda v: v * 1.001 + 1e-9))
        self.expect_reject("initial design off its strata", wl, rec, "one point per stratum",
                           file="training.csv", csv_cell=(1, 2, lambda v: (v + 0.5) % 1.0))
        self.expect_reject("dropped knot", wl, rec, "mse_path",
                           file="result.json", edit=_dps_of(_drop_knot))
        self.expect_gate_reject("rmse above the criterion-05 bound", wl, [checked],
                                lambda c: c.update(rmse=2e-4))
        self.expect_gate_reject("x_opt away from the true input", wl, [checked],
                                lambda c: c.update(hit=False))

    def hm(self):
        wl = workloads.EasomHm()
        rec = wl.run(wl.inputs(0, self.work), self.work / "hm")
        checked = self.accept("easom-hm output", lambda: wl.verify(rec))
        if checked is None:
            return
        self.accept("easom-hm accuracy", lambda: wl.gate([checked]))
        # another training run, reported consistently, so only the choice is wrong
        other = checked["X"][0].tolist()
        rmse, r2 = oracles.fit_stats(oracles.response("easom", other), oracles.target("easom"))
        self.expect_reject("x_opt not the best training run", wl, rec, "closest to the target",
                           file="result.json",
                           edit=lambda d: d.update(x_opt=other, metrics={"rmse": rmse, "r2": r2}))
        self.expect_reject("augmented point above the cutoff", wl, rec, "exceeded the cutoff",
                           file="trace.csv", csv_cell=(1, 1, lambda v: 0.75))
        self.expect_reject("miscounted budget", wl, rec, "simulator runs counted",
                           file="result.json",
                           edit=lambda d: d.update(budget_used=d["budget_used"] + 1))
        self.expect_gate_reject("hm outside the criterion-08 window", wl, [checked],
                                lambda c: c.update(in_window=False))

    def dps(self):
        wl = workloads.HydroDps()
        rec = wl.run(wl.inputs(0, self.work), self.work / "dps")
        if self.accept("hydro-dps output", lambda: wl.verify(rec)) is None:
            return
        self.expect_reject("dropped knot", wl, rec, "mse_path",
                           file="dps.json", edit=_drop_knot)
        self.expect_reject("suboptimal knot", wl, rec, "mse_path[1]",
                           file="dps.json", edit=_move_knot)
        self.expect_reject("DPS not the elbow prefix", wl, rec, "first",
                           file="dps.json", edit=lambda d: d.update(dps=d["dps"][::-1]))
        self.expect_reject("mse_path.csv out of step", wl, rec, "mse_path.csv",
                           file="mse_path.csv", csv_cell=(2, 1, lambda v: v * 1.01))


def main() -> int:
    out = Path(__file__).parent / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        test = SelfTest(Path(tmp))
        test.formulas()
        test.msce()
        test.hm()
        test.dps()
    if test.failures:
        print(f"self-test FAILED: {', '.join(test.failures)}")
        return 1
    print("self-test passed: every oracle accepted real output and rejected each perturbation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
