"""Correctness oracles computed apart from dyncal.

Each check recomputes a property of a run from the benchmark's own code and
raises OracleError when the program's output disagrees: the closed-form
simulators are re-derived here, the Latin-hypercube property is re-checked
from its definition, and the discretization point set is re-derived by an
independent least-squares fit on a truncated-power cubic basis, which spans
the same spline space as dyncal's B-spline basis.
"""
from __future__ import annotations

import math

import numpy as np


class OracleError(AssertionError):
    """A program output failed an independent check."""


def check(cond, message: str) -> None:
    if not cond:
        raise OracleError(message)


# --- closed-form simulators ------------------------------------------------
# Written from the published definitions, response per time point. Inputs are
# in native units; NATIVE_BOUNDS maps the scaled [0,1]^d inputs to them.

def easom(x, t):
    x1, x2 = x
    return math.cos(x1) * math.cos(x2) * math.exp(
        -(x1 - math.pi * t) ** 2 - (x2 - math.pi) ** 2)


def harari_steinberg(x, t):
    x1, x2, x3 = x
    return math.exp((3.0 * x1 + 1.0) * t) * math.cos((6.0 * x2 + 2.0) * t - 8.0 * x3 - 6.0)


def bliznyuk(x, t):
    """Pollutant spill: mass x1, diffusion x2, second-spill site x3, second
    spill time x4, observation site x5; the second term is off until t > x4."""
    mass, diff, site2, t2, loc = x
    out = mass / math.sqrt(diff * t) * math.exp(-loc ** 2 / (4.0 * diff * t))
    if t > t2:
        out += mass / math.sqrt(diff * (t - t2)) * math.exp(
            -(loc - site2) ** 2 / (4.0 * diff * (t - t2)))
    return out


FORMULAS = {"easom": easom, "harari_steinberg": harari_steinberg, "bliznyuk": bliznyuk}
TIME_GRIDS = {
    "easom": np.linspace(0.0, 1.0, 200),
    "harari_steinberg": np.linspace(0.0, 1.0, 200),
    "bliznyuk": np.linspace(35.3, 95.0, 200),
}
NATIVE_BOUNDS = {
    "easom": [(0.0, 1.0)] * 2,
    "harari_steinberg": [(0.0, 1.0)] * 3,
    "bliznyuk": [(7.0, 13.0), (0.02, 0.12), (0.01, 3.0), (30.01, 30.304), (0.0, 3.0)],
}
TRUE_INPUTS = {  # native units
    "easom": (0.8, 0.2),
    "harari_steinberg": (0.522, 0.950, 0.427),
    "bliznyuk": (9.640, 0.059, 1.445, 30.277, 2.520),
}


def response(name: str, x_scaled) -> np.ndarray:
    """Series of a bundled simulator at a scaled input."""
    lo, hi = np.array(NATIVE_BOUNDS[name]).T
    x = [float(v) for v in lo + np.asarray(x_scaled, dtype=float) * (hi - lo)]
    return np.array([FORMULAS[name](x, float(t)) for t in TIME_GRIDS[name]])


def target(name: str) -> np.ndarray:
    lo, hi = np.array(NATIVE_BOUNDS[name]).T
    return response(name, (np.array(TRUE_INPUTS[name]) - lo) / (hi - lo))


# --- checks -------------------------------------------------------------------

def check_responses(name: str, X, Y) -> None:
    """Every stored series equals the simulator at its stored input."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    check(X.shape[0] == Y.shape[0], f"{X.shape[0]} inputs but {Y.shape[0]} stored series")
    for i, (x, y) in enumerate(zip(X, Y)):
        want = response(name, x)
        err = float(np.max(np.abs(y - want)))
        check(err <= 1e-10 * (1.0 + float(np.max(np.abs(want)))),
              f"stored series {i + 1} differs from the simulator by {err:.3g}")


def check_latin_hypercube(points) -> None:
    """One point in each of the n strata of every coordinate, inside [0,1]."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    check(np.all((points >= 0.0) & (points <= 1.0)), "design point outside [0,1]^d")
    for k in range(points.shape[1]):
        strata = sorted(min(int(math.floor(v * n)), n - 1) for v in points[:, k])
        check(strata == list(range(n)), f"coordinate {k + 1} is not one point per stratum")


def check_in_box(x) -> None:
    x = np.asarray(x, dtype=float)
    check(bool(np.all((x >= 0.0) & (x <= 1.0))), f"x_opt {x.tolist()} outside [0,1]^d")


def check_budget(calls: int, expected: int, what: str) -> None:
    check(calls == expected, f"{what}: {calls} simulator runs counted, {expected} expected")


def fit_stats(y, g0) -> tuple[float, float]:
    """rmse and r^2 (squared Pearson correlation) of a series against the target."""
    y, g0 = np.asarray(y, dtype=float), np.asarray(g0, dtype=float)
    rmse = math.sqrt(float(np.mean((y - g0) ** 2)))
    r2 = float(np.corrcoef(y, g0)[0, 1] ** 2)
    return rmse, r2


def check_reported_fit(y, g0, reported: dict) -> tuple[float, float]:
    """The reported rmse and r^2 match the ones recomputed from y."""
    rmse, r2 = fit_stats(y, g0)
    scale = float(np.max(np.abs(g0)))
    check(abs(reported["rmse"] - rmse) <= 1e-9 * rmse + 1e-13 * scale,
          f"reported rmse {reported['rmse']!r} but the response gives {rmse!r}")
    check(abs(reported["r2"] - r2) <= 1e-9,
          f"reported r2 {reported['r2']!r} but the response gives {r2!r}")
    return rmse, r2


def _orthonormal_basis(t, knots):
    A = np.column_stack([t ** 0, t, t ** 2, t ** 3]
                        + [np.maximum(t - c, 0.0) ** 3 for c in knots])
    return np.linalg.qr(A)[0]


def _best_next_mse(t, y, Q, resid, free, block=256):
    """Smallest MSE reachable by adding one truncated power (t - c)_+^3."""
    rss, best_gain = float(resid @ resid), 0.0
    for start in range(0, len(free), block):
        P = np.maximum(t[:, None] - free[None, start:start + block], 0.0) ** 3
        for _ in range(2):  # twice-projected Gram-Schmidt keeps P orthogonal to Q
            P -= Q @ (Q.T @ P)
        gain = (resid @ P) ** 2 / np.sum(P * P, axis=0)
        best_gain = max(best_gain, float(np.max(gain)))
    return (rss - best_gain) / len(y)


def elbow(mse_path) -> int:
    """Knot count at the right edge of the first window with positive curvature."""
    q = list(mse_path[1:])
    for i in range(len(q) - 2):
        if q[i] - 2.0 * q[i + 1] + q[i + 2] > 0.0:
            return i + 3
    return len(q)


def check_dps(values, dps: dict, rtol: float = 1e-7) -> None:
    """Recompute the greedy knot path and the elbow cut from scratch.

    mse_path[i] must be the least-squares MSE with the first i knots, each
    knot must reach the smallest MSE of any admissible index given its
    predecessors (near-ties within rtol accepted), and the DPS must be the
    elbow-cut prefix of the ordered knots.
    """
    y = np.asarray(values, dtype=float)
    L = len(y)
    ordered = [int(k) for k in dps["ordered_knots"]]
    path = [float(v) for v in dps["mse_path"]]
    check(len(path) == len(ordered) + 1, f"{len(ordered)} knots but {len(path)} MSE values")
    check(len(set(ordered)) == len(ordered), f"repeated knot in {ordered}")
    check(all(1 < k < L for k in ordered), f"knot outside (1, {L}) in {ordered}")
    t = np.arange(1.0, L + 1.0) / L
    floor = 1e-14 * float(np.var(y))
    for i in range(len(ordered) + 1):
        Q = _orthonormal_basis(t, [k / L for k in ordered[:i]])
        resid = y - Q @ (Q.T @ y)
        mse = float(resid @ resid) / L
        check(abs(path[i] - mse) <= rtol * mse + floor,
              f"mse_path[{i}] is {path[i]!r}, the least-squares fit gives {mse!r}")
        if i == len(ordered):
            break
        free = np.array([c for c in range(2, L) if c not in ordered[:i]], dtype=float) / L
        best = _best_next_mse(t, y, Q, resid, free)
        check(path[i + 1] <= best * (1.0 + rtol) + floor,
              f"knot {ordered[i]} gives MSE {path[i + 1]!r}; another index reaches {best!r}")
    k = elbow(path)
    check(dps["k_selected"] == k, f"k_selected {dps['k_selected']}, the elbow rule gives {k}")
    check([int(v) for v in dps["dps"]] == ordered[:k],
          f"dps {dps['dps']} is not the first {k} knots")
