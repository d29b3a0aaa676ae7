"""Spans around calls into dyncal's public functions, patched in from outside.

While installed, every binding of a listed function in a loaded dyncal module
(``from .gp import fit_gp`` makes one per importing module) is replaced by a
wrapper that records a span: name, start, end and the index of the enclosing
span. Spans stay in memory until the run ends. A layer's self time is its
spans' durations less the time covered by their child spans.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

TIMED = [  # (module, attribute): calls get a span
    ("dyncal.gp", "fit_gp"),
    ("dyncal.gp", "predict_batch"),
    ("dyncal.gp", "MeanBank.means"),
    ("dyncal.acquisition", "expected_improvement"),
    ("dyncal.acquisition", "implausibility_max"),
    ("dyncal.designs", "random_lhd"),
    ("dyncal.designs", "maximin_lhd"),
    ("dyncal.designs", "maxpro_lhd"),
    ("dyncal.calibrate", "solve_scalar_contour"),
    ("dyncal.calibrate", "extract_solution"),
    ("dyncal.calibrate", "write_run_artifacts"),
    ("dyncal.spline_dps", "build_dps"),
    ("dyncal.simulators", "Simulator.run"),
]
# Counted without a span, so the greedy scan's time stays build_dps self time.
COUNTED = [("dyncal.spline_dps", "fit_cubic_spline")]

UNITS = {"calls": "count", "nll_evals": "count", "fits": "count", "bytes": "B"}


def _span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('dyncal.')}.{attr}"


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if name == "calibrate.write_run_artifacts":
                self.counts[name + ".bytes"] += _dir_bytes(args[0])
            return out
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _optimizer(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            self.counts["gp.fit_gp.nll_evals"] += int(res.nfev)
            return res
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch the wrappers in for the duration of the block."""
        undo = []

        def replace(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "dyncal"]
        try:
            for kind, targets in ((self._timed, TIMED), (self._counted, COUNTED)):
                for module, attr in targets:
                    name = _span_name(module, attr)
                    if "." in attr:  # a method: patch the class
                        cls_name, meth = attr.split(".")
                        cls = getattr(sys.modules[module], cls_name)
                        replace(cls, meth, kind(name, cls.__dict__[meth]))
                        continue
                    original = getattr(sys.modules[module], attr)
                    wrapper = kind(name, original)
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is original:
                                replace(m, key, wrapper)
            # only fit_gp calls the optimizer through dyncal.gp's binding
            gp = sys.modules["dyncal.gp"]
            replace(gp, "minimize", self._optimizer(gp.minimize))
            yield
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def self_times(self) -> dict:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _), child in zip(self.spans, covered):
            totals[name] += end - start - child
        return totals

    def _inside(self, index: int, ancestor: str) -> bool:
        parent = self.spans[index][3]
        while parent is not None:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_metrics(self, ops: int) -> dict:
        """Per-layer self times and counts, each per traced operation."""
        selfs = self.self_times()
        calls = Counter(name for name, *_ in self.spans)
        counts = Counter(self.counts)
        counts["gp.fit_gp.calls"] = calls["gp.fit_gp"]
        counts["simulators.Simulator.run.calls"] = calls["simulators.Simulator.run"]
        counts["calibrate.extract_solution.fits"] = sum(
            1 for i, span in enumerate(self.spans)
            if span[0] == "gp.fit_gp" and self._inside(i, "calibrate.extract_solution"))
        metrics = {}
        for module, attr in TIMED:
            name = _span_name(module, attr)
            metrics[name + ".s"] = (selfs[name] / ops, "s")
        for name in ("gp.fit_gp.calls", "gp.fit_gp.nll_evals", "calibrate.extract_solution.fits",
                     "spline_dps.fit_cubic_spline.calls", "calibrate.write_run_artifacts.bytes",
                     "simulators.Simulator.run.calls"):
            metrics[name] = (counts[name] / ops, UNITS[name.rsplit(".", 1)[1]])
        return metrics

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
