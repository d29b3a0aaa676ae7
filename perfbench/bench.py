"""Benchmark worker: sets up one workload, runs whole operations until the
time window has passed, checks every output, and prints one JSON line.

Started by run.py with src/ and this directory on PYTHONPATH. With --probe
it only times the set-up (importing dyncal and making the first inputs).

Times are reported at a fixed machine speed. A reference kernel, which
does what the program's inner loops do, is timed before every round and
after the last one; each operation's wall times are multiplied by
REFERENCE_S over the mean of the two samples around its round. On a shared
host whose speed drifts by half within minutes, this keeps the figures of
one commit comparable from run to run. The raw wall times go to standard
error.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

REFERENCE_S = 0.2  # the reference kernel's time on an idle core of the 2-core VM it was tuned on


def op_seed(seed: int, round_index: int) -> int:
    return seed * 1000 + round_index


def reference_s() -> float:
    """Wall time of a fixed kernel made of the program's two kinds of inner
    loop: small correlation matrices with a Cholesky solve each, and
    least-squares fits of a long series on a cubic B-spline basis."""
    import numpy as np
    from scipy.interpolate import BSpline
    from scipy.linalg import cho_solve
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(30, 2))
    D = np.abs(X[:, None, :] - X[None, :, :]) ** 1.95
    y = rng.normal(size=30)
    t = np.arange(1.0, 1501.0)
    series = rng.normal(size=1500)
    start = time.perf_counter()
    for i in range(2000):
        R = np.exp(-np.tensordot(D, np.array([1.0 + i % 7, 2.0]), axes=(2, 0)))
        cho_solve((np.linalg.cholesky(R + 1e-6 * np.eye(30)), True), y)
    for i in range(200):
        knots = np.concatenate([[1.0] * 4, [400.0, 800.0 + i, 1200.0], [1500.0] * 4])
        B = BSpline.design_matrix(t, knots, 3, extrapolate=False).toarray()
        np.linalg.lstsq(B, series, rcond=None)
    return time.perf_counter() - start


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--trace-file", default=None)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)
    work = Path(args.work_dir)

    start = time.perf_counter()
    import dyncal  # noqa: F401  (the program's import is part of set-up)
    import workloads
    workload = workloads.WORKLOADS[args.workload]()
    first = workload.inputs(op_seed(args.seed, 0), work)
    setup_s = time.perf_counter() - start
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import tracing
    from oracles import OracleError

    tracer = tracing.Tracer() if args.trace else None
    # Accuracy is averaged (on its log scale) over a fixed number of rounds,
    # so it depends on the seed alone; a traced run reports none.
    rounds = 1 if tracer else workload.accuracy_rounds
    records, refs, attempted, failed = [], [], 0, 0
    window_start, r = time.perf_counter(), 0
    while r < rounds or time.perf_counter() - window_start < args.seconds:
        refs.append(reference_s())
        inp = first if r == 0 else workload.inputs(op_seed(args.seed, r), work)
        for traced in ((False, True) if tracer else (False,)):
            attempted += 1
            out_dir = work / f"op{r}{'-traced' if traced else ''}"
            try:
                if traced:
                    with tracer.installed(), tracer.span("op"):
                        rec = workload.run(inp, out_dir)
                else:
                    rec = workload.run(inp, out_dir)
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            rec.update(traced=traced, round=r)
            records.append(rec)
        r += 1
    refs.append(reference_s())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for rec in records:
        rec["speed"] = REFERENCE_S / statistics.fmean(refs[rec["round"]:rec["round"] + 2])
    speed = REFERENCE_S / statistics.median(refs)  # for set-up and the per-layer times

    problems, checked = [], []
    for rec in records:
        try:
            rec["checked"] = workload.verify(rec)
            checked.append(rec["checked"])
        except OracleError as exc:
            problems.append(f"{rec['out_dir'].name}: {exc}")
    if checked and not problems:
        try:
            workload.gate(checked)
        except OracleError as exc:
            problems.append(f"accuracy: {exc}")
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    if not checked:
        print("error: no operation completed and passed its checks", file=sys.stderr)
        return 1

    plain = [rec for rec in records if not rec["traced"]]
    run_s = statistics.median(rec["run_s"] * rec["speed"] for rec in plain)
    if tracer is None:
        digits = [rec["checked"]["digits"] for rec in plain
                  if rec["round"] < rounds and "checked" in rec]
        metrics = {
            "run_s": (run_s, "s"),
            "step_s": (workload.step_s(plain), "s"),
            "rmse_digits": (statistics.fmean(digits), "digits"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"wall: run_s {[round(rec['run_s'], 3) for rec in plain]}; "
              f"reference {[round(v, 4) for v in refs]}", file=sys.stderr)
    else:
        traced = [rec for rec in records if rec["traced"]]
        metrics = {name: (value * speed if unit == "s" else value, unit)
                   for name, (value, unit) in tracer.layer_metrics(len(traced)).items()}
        metrics["trace.overhead_s"] = (
            statistics.median(rec["run_s"] * rec["speed"] for rec in traced) - run_s, "s")
        if args.trace_file:
            tracer.write(Path(args.trace_file), {"workload": args.workload, "seed": args.seed})
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
        "speed": speed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
