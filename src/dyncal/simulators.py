"""Dynamic test simulators and the external-process adapter.

Three closed-form simulators produce a full time series per input: a moving
Easom bump on [0,1]^2, the Harari-Steinberg oscillator on [0,1]^3, and the
five-input pollutant-spill model on its native box. The calibration layer
always works with inputs scaled to [0,1]^d; unscaling to native units is
affine and happens here. An external executable can stand in for a bundled
simulator through a small CSV exchange protocol.
"""
from __future__ import annotations

import csv
import subprocess
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class ProcessError(RuntimeError):
    """External simulator exited nonzero or could not be launched."""


class ProtocolError(RuntimeError):
    """External simulator produced output violating the exchange protocol."""


class SimulatorTimeout(RuntimeError):
    """External simulator exceeded its wall-clock limit."""


@dataclass
class SimulatorSpec:
    name: str
    d: int
    L: int
    time_grid: np.ndarray
    native_bounds: list[tuple[float, float]]

    def __post_init__(self):
        self.time_grid = np.asarray(self.time_grid, dtype=float)
        if len(self.time_grid) != self.L:
            raise ValueError("time grid length does not match L")
        if np.any(np.diff(self.time_grid) <= 0):
            raise ValueError("time grid must be strictly increasing")
        for lo, hi in self.native_bounds:
            if not lo < hi:
                raise ValueError(f"bad native bounds ({lo}, {hi})")

    def unscale(self, x_scaled) -> np.ndarray:
        """Map a point from [0,1]^d to native units."""
        x = np.asarray(x_scaled, dtype=float)
        lo = np.array([b[0] for b in self.native_bounds])
        hi = np.array([b[1] for b in self.native_bounds])
        return lo + x * (hi - lo)

    def scale(self, x_native) -> np.ndarray:
        """Inverse of unscale."""
        x = np.asarray(x_native, dtype=float)
        lo = np.array([b[0] for b in self.native_bounds])
        hi = np.array([b[1] for b in self.native_bounds])
        return (x - lo) / (hi - lo)


def easom(x, t):
    """Moving-bump Easom variant on the unit square: the bump center follows
    pi*t while the response is evaluated verbatim on [0,1]^2 inputs."""
    x1, x2 = float(x[0]), float(x[1])
    t = np.asarray(t, dtype=float)
    return np.cos(x1) * np.cos(x2) * np.exp(-((x1 - np.pi * t) ** 2) - (x2 - np.pi) ** 2)


def harari_steinberg(x, t):
    """Damped oscillator of Harari and Steinberg on [0,1]^3."""
    x1, x2, x3 = (float(v) for v in x)
    t = np.asarray(t, dtype=float)
    return np.exp(3.0 * x1 * t + t) * np.cos(6.0 * x2 * t + 2.0 * t - 8.0 * x3 - 6.0)


def bliznyuk(x, t):
    """Pollutant-spill concentration model in native units.

    The second spill term is gated hard on x4 < t, so the sqrt(t - x4)
    singularity is never evaluated even for inputs outside the usual box.
    """
    x1, x2, x3, x4, x5 = (float(v) for v in x)
    t = np.asarray(t, dtype=float)
    first = x1 / np.sqrt(x2 * t) * np.exp(-(x5 ** 2) / (4.0 * x2 * t))
    dt = t - x4
    on = dt > 0
    safe = np.where(on, dt, 1.0)
    second = np.where(
        on,
        x1 / np.sqrt(x2 * safe) * np.exp(-((x5 - x3) ** 2) / (4.0 * x2 * safe)),
        0.0,
    )
    return first + second


class Simulator:
    """Series-valued simulator with budget accounting.

    run() evaluates at a scaled input and counts against the budget;
    peek() evaluates without counting, for off-budget reporting only.
    """

    def __init__(self, spec: SimulatorSpec, func):
        self.spec = spec
        self._func = func
        self.calls = 0

    def run(self, x_scaled) -> np.ndarray:
        self.calls += 1
        return self.peek(x_scaled)

    def peek(self, x_scaled) -> np.ndarray:
        x_native = self.spec.unscale(x_scaled)
        return np.asarray(self._func(x_native, self.spec.time_grid), dtype=float)

    def reset_counter(self):
        self.calls = 0


EASOM_SPEC = SimulatorSpec(
    name="easom", d=2, L=200,
    time_grid=np.linspace(0.0, 1.0, 200),
    native_bounds=[(0.0, 1.0), (0.0, 1.0)],
)
HARARI_STEINBERG_SPEC = SimulatorSpec(
    name="harari_steinberg", d=3, L=200,
    time_grid=np.linspace(0.0, 1.0, 200),
    native_bounds=[(0.0, 1.0)] * 3,
)
BLIZNYUK_SPEC = SimulatorSpec(
    name="bliznyuk", d=5, L=200,
    time_grid=np.linspace(35.3, 95.0, 200),
    native_bounds=[(7.0, 13.0), (0.02, 0.12), (0.01, 3.0), (30.01, 30.304), (0.0, 3.0)],
)

TRUE_INPUTS = {
    "easom": np.array([0.8, 0.2]),
    "harari_steinberg": np.array([0.522, 0.950, 0.427]),
    "bliznyuk": np.array([9.640, 0.059, 1.445, 30.277, 2.520]),  # native units
}

_REGISTRY = {
    "easom": (EASOM_SPEC, easom),
    "harari_steinberg": (HARARI_STEINBERG_SPEC, harari_steinberg),
    "bliznyuk": (BLIZNYUK_SPEC, bliznyuk),
}


def get_simulator(name: str) -> Simulator:
    """Fresh counting wrapper around a bundled simulator."""
    try:
        spec, func = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown simulator '{name}'; choose from {sorted(_REGISTRY)}")
    return Simulator(spec, func)


def target_series(name: str) -> np.ndarray:
    """The canonical target response g0 for a bundled simulator."""
    spec, func = _REGISTRY[name]
    return np.asarray(func(TRUE_INPUTS[name], spec.time_grid), dtype=float)


class ExternalSimulator(Simulator):
    """Adapter running an external executable through a CSV exchange.

    Protocol (all files under exchange_dir, executable run with that cwd):
    input.csv has header x1..xd and one data row in native units; the
    executable must exit 0 and leave output.csv with header t,value and
    exactly L data rows of finite numbers.
    """

    def __init__(self, spec: SimulatorSpec, command, exchange_dir, timeout: float = 60.0):
        super().__init__(spec, self._invoke)
        self.command = [str(c) for c in (command if isinstance(command, (list, tuple)) else [command])]
        self.exchange_dir = Path(exchange_dir)
        self.timeout = timeout

    def _invoke(self, x_native, time_grid) -> np.ndarray:
        self.exchange_dir.mkdir(parents=True, exist_ok=True)
        in_path = self.exchange_dir / "input.csv"
        out_path = self.exchange_dir / "output.csv"
        with open(in_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{k + 1}" for k in range(self.spec.d)])
            writer.writerow([f"{float(v):.17g}" for v in np.atleast_1d(x_native)])
        if out_path.exists():
            out_path.unlink()
        try:
            proc = subprocess.run(self.command, cwd=self.exchange_dir,
                                  capture_output=True, text=True, timeout=self.timeout)
        except subprocess.TimeoutExpired:
            raise SimulatorTimeout(
                f"simulator exceeded {self.timeout}s: {' '.join(self.command)}")
        except OSError as exc:
            raise ProcessError(f"could not launch {' '.join(self.command)}: {exc}")
        if proc.returncode != 0:
            raise ProcessError(
                f"simulator exited {proc.returncode}: {proc.stderr.strip()[:500]}")
        return self._parse_output(out_path)

    def _parse_output(self, out_path: Path) -> np.ndarray:
        if not out_path.exists():
            raise ProtocolError(f"simulator wrote no {out_path.name}")
        with open(out_path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or [c.strip() for c in rows[0]] != ["t", "value"]:
            raise ProtocolError("output.csv must start with header 't,value'")
        data = rows[1:]
        if len(data) != self.spec.L:
            raise ProtocolError(
                f"expected {self.spec.L} output rows, got {len(data)}")
        values = np.empty(self.spec.L)
        for i, row in enumerate(data):
            if len(row) != 2:
                raise ProtocolError(f"output row {i + 2} has {len(row)} fields")
            try:
                values[i] = float(row[1])
            except ValueError:
                raise ProtocolError(f"non-numeric value in output row {i + 2}: {row[1]!r}")
        if not np.all(np.isfinite(values)):
            raise ProtocolError("output contains non-finite values")
        return values
