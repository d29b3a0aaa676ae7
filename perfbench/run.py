"""Run one workload of the dyncal benchmark and print its result as one JSON line.

Run from the root of a dyncal checkout:

    python3 perfbench/run.py --workload easom-msce --seed 1 --seconds 25 --trace 0

The program is imported from ./src, so nothing needs installing. With
--trace 0 the last line holds the end-to-end metrics, with --trace 1 the
per-layer ones (and the span file goes to perfbench/out/). Exits 2 without a
result when ./src/dyncal is missing, 1 when the workload process fails.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 2  # fresh processes timing set-up, on top of the worker's own
DEADLINE_S = 170.0  # the whole run, probes included, ends before this


def _python(args, env, timeout):
    """Run a benchmark process to completion (it is killed on timeout) and
    return the JSON object on the last line of its output."""
    proc = subprocess.run([sys.executable, str(HERE / "bench.py"), *args], env=env,
                          capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark process exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    root = Path.cwd()
    if not (root / "src" / "dyncal" / "__init__.py").is_file():
        print("error: src/dyncal not found; run from the root of a dyncal checkout",
              file=sys.stderr)
        return 2
    # One BLAS thread: the matrices are small and the machine may be shared.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(root / "src"), str(HERE), os.environ.get("PYTHONPATH")])))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    work = HERE / "out" / f"{args.workload}-{os.getpid()}"
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                probe = _python([*common, "--probe", "--work-dir", str(work / f"probe{i}")],
                                env, deadline - time.monotonic())
                setup.append(probe["setup_s"])
        result = _python([*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                          "--work-dir", str(work / "run"),
                          "--trace-file", str(HERE / "out" / f"trace-{args.workload}.json")],
                         env, deadline - time.monotonic())
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not args.trace:
        setup.append(result["setup_s"])
        result["metrics"]["setup_s"] = {"value": statistics.median(setup) * result["speed"],
                                        "unit": "s"}
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
