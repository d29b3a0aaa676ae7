"""Dynamic test simulators and the external-process adapter.

Three closed-form simulators produce a full time series per input: a moving
Easom bump on [0,1]^2, the Harari-Steinberg oscillator on [0,1]^3, and the
five-input pollutant-spill model on its native box. The calibration layer
always works with inputs scaled to [0,1]^d; unscaling to native units is
affine and happens here. An external executable can stand in for a bundled
simulator through a small CSV exchange protocol. read_csv and write_csv
are dyncal's one CSV reader and one CSV writer, for that exchange as for
every other file. check_integer, check_number and _numbers are the type
rules on every value a config or a Python caller hands to dyncal.
"""
from __future__ import annotations

import contextlib
import numbers
import os
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class ProcessError(RuntimeError):
    """External simulator exited nonzero or could not be launched."""


class ProtocolError(RuntimeError):
    """External simulator produced output violating the exchange protocol."""


class SimulatorTimeout(RuntimeError):
    """External simulator exceeded its wall-clock limit."""


class InputError(Exception):
    """Unreadable or malformed input file."""


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


def _numbers(value, name: str) -> np.ndarray:
    """value as a contiguous float array; ValueError unless it is a flat
    sequence of numbers (integers or floats: no bool, string or nested list)."""
    try:
        out = np.asarray(value)
    except ValueError:  # ragged
        out = np.empty((0, 0))
    if out.ndim != 1 or out.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a list of numbers, got {value!r}")
    return np.ascontiguousarray(out, dtype=float)


_CSV = {"delimiter": ",", "quotechar": '"', "comments": None, "ndmin": 2}


def _cells(line: str) -> list[str]:
    """The cells of one file line as numpy's reader splits them. A quote left
    open at the end of the line keeps the line end in the last cell."""
    return np.loadtxt([line + "\n"], dtype=object, **_CSV)[0].tolist()


def _one_record(cells: list[str]) -> bool:
    """Whether the line of these cells closes its quotes, so that its record
    does not run on into the next line."""
    return not cells[-1].endswith("\n")


_SEPARATORS = "\x1c\x1d\x1e\x1f"  # the ASCII separators: numpy's reader strips them like spaces


def _numeric(line: str) -> bool:
    """Whether numpy's reader takes every cell of the line as a number. A cell
    holding an ASCII separator is refused, as Python's float refuses it."""
    if any(c in line for c in _SEPARATORS):
        return False
    try:
        np.loadtxt([line], **_CSV)
    except ValueError:
        return False
    return True


def _records(lines: list[str], skip: int) -> list[tuple[int, str]]:
    """(file line number, line) of each data line: the non-blank lines after
    the first skip of them."""
    return [(i, line) for i, line in enumerate(lines, start=1) if line][skip:]


def _bad_row(path, records, width: int) -> InputError:
    """The error naming the first (file line, line) of records that is not
    one record of width numbers."""
    for i, line in records:
        cells = _cells(line)
        if len(cells) != width:
            return InputError(f"{path}: row {i} has {len(cells)} fields, expected {width}")
        if not (_one_record(cells) and _numeric(line)):
            return InputError(f"{path}: row {i} is not numeric: {cells!r}")
    return InputError(f"{path}: not {width} numbers per line")


def read_csv(path, names: list[str]) -> np.ndarray:
    """The numbers of a CSV file as an (n, len(names)) float array.

    A leading UTF-8 byte-order mark (Excel's "CSV UTF-8") is dropped, lines
    end at \\n, \\r\\n or \\r, and blank lines are skipped. The first other
    line is a header, and skipped, when its cells are `names` up to case and
    surrounding spaces. Every other line must be one record of len(names)
    finite numbers: cells are split at commas, a cell may be quoted with
    double quotes and padded with spaces or tabs. An error names the file
    line.

    The data lines are parsed in one call to numpy's C reader, `np.loadtxt`.
    It reads the numbers Python's `float` reads, bit for bit, but refuses
    digit-group underscores (1_000) and non-ASCII digits. Only a refused file
    is walked line by line, with the same reader, to find its first bad line.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    rows = list(filter(None, lines))
    skip = 0
    if rows:
        cells = _cells(rows[0])
        closed = _one_record(cells) or len(rows) == 1  # the end of the file closes a quote
        skip = int(closed and [c.strip().lower() for c in cells] == names)
    rows = rows[skip:]
    width = len(names)
    try:
        data = np.loadtxt(rows, **_CSV) if rows else np.empty((0, width))
    except ValueError:
        data = None
    if (data is None or data.shape != (len(rows), width)
            or any(c in text for c in _SEPARATORS) and not all(map(_numeric, rows))):
        raise _bad_row(path, _records(lines, skip), width)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        i, line = _records(lines, skip)[int(np.argmin(finite))]
        raise InputError(f"{path}: row {i} is not finite: {_cells(line)!r}")
    return data


def write_csv(path, header: list, rows) -> None:
    """One header line, then one line per row of Python numbers, each as its repr."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


@dataclass
class SimulatorSpec:
    """d inputs (integer, >= 1), each between the low and high of its pair of
    native_bounds, and a series of L values (integer, >= 1) on time_grid, L
    finite increasing numbers; time_grid None is 1, 2, ..., L."""

    name: str
    d: int
    L: int
    time_grid: np.ndarray | None
    native_bounds: list[tuple[float, float]]

    def __post_init__(self):
        for name in ("d", "L"):
            if check_integer(getattr(self, name), f"simulator {name}") < 1:
                raise ValueError(f"simulator {name} must be >= 1, got {getattr(self, name)}")
        grid = np.arange(1.0, self.L + 1.0) if self.time_grid is None else self.time_grid
        self.time_grid = _numbers(grid, "simulator time_grid")
        if len(self.time_grid) != self.L:
            raise ValueError("time grid length does not match L")
        if not np.all(np.isfinite(self.time_grid)):
            raise ValueError("time grid must be finite")
        if np.any(np.diff(self.time_grid) <= 0):
            raise ValueError("time grid must be strictly increasing")
        try:
            pairs = [(lo, hi) for lo, hi in self.native_bounds]
        except (TypeError, ValueError):  # not a sequence of pairs
            pairs = []
        bounds = np.array([check_number(v, "simulator bound") for pair in pairs for v in pair],
                          dtype=float).reshape(-1, 2)
        if len(bounds) != self.d or not (bounds[:, 0] < bounds[:, 1]).all():
            raise ValueError(f"simulator bounds must be {self.d} [low, high] pairs, "
                             f"got {self.native_bounds!r}")
        self._lo, self._hi = bounds[:, 0], bounds[:, 1]

    def unscale(self, x_scaled) -> np.ndarray:
        """Map a point from [0,1]^d to native units."""
        return self._lo + np.asarray(x_scaled, dtype=float) * (self._hi - self._lo)

    def scale(self, x_native) -> np.ndarray:
        """Inverse of unscale."""
        return (np.asarray(x_native, dtype=float) - self._lo) / (self._hi - self._lo)


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
    """Series-valued simulator with budget accounting: run() evaluates at a
    scaled input and counts it. peek() evaluates without counting; no dyncal
    code calls it (the benchmark's perfbench/selftest.py does).
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


def _bundled(name: str):
    """(spec, func) of a bundled simulator; ValueError naming the choices."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown simulator '{name}'; choose from {sorted(_REGISTRY)}")
    return _REGISTRY[name]


def get_simulator(name: str) -> Simulator:
    """Fresh counting wrapper around a bundled simulator."""
    return Simulator(*_bundled(name))


def target_series(name: str) -> np.ndarray:
    """The canonical target response g0 for a bundled simulator."""
    spec, func = _bundled(name)
    return np.asarray(func(TRUE_INPUTS[name], spec.time_grid), dtype=float)


class ExternalSimulator(Simulator):
    """Adapter running an external executable through a CSV exchange.

    command is the executable's argv: a non-empty list of strings, or one
    string split like a POSIX shell. Protocol: each run gets a fresh
    subdirectory of exchange_dir (ProcessError if it cannot be made), and the
    executable runs with that subdirectory as its cwd. input.csv has header
    x1..xd and one data row in native units, each number as its repr; the
    executable must exit 0 within timeout seconds (a finite number > 0) and
    leave output.csv with exactly L rows of two finite numbers, t and value,
    read by read_csv: a header t,value is optional and blank lines are
    skipped. The subdirectory is removed once its output parses and kept
    otherwise, for diagnosis. The executable leads its own process group,
    and a timeout kills the whole group.
    """

    def __init__(self, spec: SimulatorSpec, command, exchange_dir, timeout: float = 60.0):
        command = shlex.split(command) if isinstance(command, str) else command
        if not (isinstance(command, list) and all(isinstance(c, str) for c in command)):
            raise ValueError(f"simulator command must be a string or a list of strings, "
                             f"got {command!r}")
        if not command:
            raise ValueError("simulator command must not be empty")
        timeout = float(check_number(timeout, "simulator timeout"))
        if timeout <= 0:
            raise ValueError(f"simulator timeout must be positive, got {timeout!r}")
        super().__init__(spec, self._invoke)
        self.command = command
        self.exchange_dir = Path(exchange_dir)
        self.timeout = timeout

    def _invoke(self, x_native, time_grid) -> np.ndarray:
        try:
            self.exchange_dir.mkdir(parents=True, exist_ok=True)
            run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=self.exchange_dir))
        except OSError as exc:
            raise ProcessError(f"cannot make a run directory in {self.exchange_dir}: {exc}")
        write_csv(run_dir / "input.csv", [f"x{k + 1}" for k in range(self.spec.d)],
                  [x_native.tolist()])
        try:
            proc = subprocess.Popen(self.command, cwd=run_dir, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True,
                                    start_new_session=True)
        except OSError as exc:
            raise ProcessError(f"could not launch {' '.join(self.command)}: {exc}")
        try:
            _, stderr = proc.communicate(timeout=self.timeout)
        except BaseException as exc:  # timeout or interrupt: leave no process behind
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise SimulatorTimeout(
                    f"simulator exceeded {self.timeout}s: {' '.join(self.command)}") from None
            raise
        if proc.returncode != 0:
            raise ProcessError(
                f"simulator exited {proc.returncode}: {stderr.strip()[:500]}")
        try:
            data = read_csv(run_dir / "output.csv", ["t", "value"])
        except InputError as exc:
            raise ProtocolError(str(exc)) from None
        if len(data) != self.spec.L:
            raise ProtocolError(f"expected {self.spec.L} output rows, got {len(data)}")
        shutil.rmtree(run_dir)
        return data[:, 1]
