import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import dyncal
from dyncal.simulators import Simulator, SimulatorSpec

ACCEPTANCE_LINES = []


def record_acceptance(line: str):
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def toy_response(x, t):
    """The toy simulator's closed form; its native box is [0,1]^d, so x is
    both the scaled and the native input."""
    t = np.asarray(t, dtype=float)
    out = np.exp(x[0] * t) * np.cos(4.0 * x[1] * t + 1.0)
    for k in range(2, len(x)):
        out = out + 0.3 * x[k] * t ** (k - 1)
    return out


def make_toy_simulator(L=40, d=2):
    """Cheap smooth dynamic simulator for unit tests, inputs on [0,1]^d."""
    spec = SimulatorSpec(name="toy", d=d, L=L,
                         time_grid=np.linspace(0.0, 1.0, L),
                         native_bounds=[(0.0, 1.0)] * d)
    return Simulator(spec, toy_response)


def run_fresh_python(code: str) -> str:
    """The stdout of code run by a new interpreter that imports this dyncal,
    for checks on what a process loads from its start."""
    package_parent = str(Path(dyncal.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=package_parent)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
