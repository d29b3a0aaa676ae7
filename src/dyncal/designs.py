"""Space-filling designs on the unit hypercube.

Latin hypercube designs (LHDs) are the workhorse here: random LHDs serve as
candidate/test sets for acquisition sweeps, while maximin- and MaxPro-optimized
LHDs are used as initial designs for the sequential calibration loops. All
designs live in [0,1]^d, one point per stratum [i/n, (i+1)/n) in every
dimension.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.spatial.distance import pdist


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_lhd(n: int, d: int, seed=None) -> np.ndarray:
    """Random Latin hypercube design: n points in [0,1]^d.

    Each dimension gets an independent random permutation of the n strata,
    with the point placed uniformly at random inside its stratum.

    Parameters
    ----------
    n, d : int
        Number of points and input dimension, both >= 1.
    seed : int, sequence of ints, or numpy Generator
        Source of randomness; a fixed seed gives a bit-identical design.

    Returns
    -------
    ndarray of shape (n, d)
    """
    if n < 1:
        raise ValueError(f"need at least one design point, got n={n}")
    if d < 1:
        raise ValueError(f"need at least one dimension, got d={d}")
    rng = _rng(seed)
    design = np.empty((n, d))
    for k in range(d):
        design[:, k] = (rng.permutation(n) + rng.uniform(size=n)) / n
    return design


def is_latin_hypercube(points: np.ndarray) -> bool:
    """Check the per-dimension stratification invariant exactly."""
    points = np.asarray(points)
    n = points.shape[0]
    if np.any(points < 0.0) or np.any(points > 1.0):
        return False
    strata = np.floor(points * n).astype(int)
    strata = np.minimum(strata, n - 1)  # guard coordinate exactly 1.0
    return all(len(np.unique(strata[:, k])) == n for k in range(points.shape[1]))


def min_pairwise_distance(points: np.ndarray) -> float:
    """Smallest Euclidean distance between any two design points."""
    points = np.asarray(points)
    if points.shape[0] < 2:
        raise ValueError("minimum pairwise distance needs at least 2 points")
    return float(pdist(points).min())


@lru_cache(maxsize=16)
def _pair_indices(n: int):
    """Row indices (i, j) of all pairs i < j; read-only, cached because the
    exchange search evaluates the criterion thousands of times at one n."""
    pairs = np.triu_indices(n, k=1)
    for idx in pairs:
        idx.flags.writeable = False
    return pairs


def maxpro_criterion(points: np.ndarray) -> float:
    """Maximum projection criterion psi(D); smaller is better.

    psi(D) = [ (1/C(n,2)) sum_{i<j} 1 / prod_k (x_ik - x_jk)^2 ]^(1/d).
    Infinite when two points share a coordinate in some dimension, which a
    valid LHD rules out.
    """
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    if n < 2:
        raise ValueError("MaxPro criterion needs at least 2 points")
    i, j = _pair_indices(n)
    prods = np.prod((points[i] - points[j]) ** 2, axis=1)
    if np.any(prods == 0.0):
        return np.inf
    avg = np.sum(1.0 / prods) / (n * (n - 1) / 2)
    return float(avg ** (1.0 / d))


def _exchange_optimize(points, cost, rng, iterations):
    """Within-column swap search with simulated-annealing acceptance.

    Proposes swapping two entries of one randomly chosen column, which
    preserves the LHD property. Keeps the best design ever seen, so the
    returned design is never worse than the start.
    """
    current = np.array(points, dtype=float)
    n, d = current.shape
    cur_cost = cost(current)
    best = current.copy()
    best_cost = cur_cost

    # temperature schedule scaled to the initial cost magnitude
    t0 = 0.1 * (abs(cur_cost) + 1e-12)
    tf = 1e-6 * t0
    decay = (tf / t0) ** (1.0 / max(iterations, 1))
    temp = t0

    for _ in range(iterations):
        k = rng.integers(d)
        i, j = rng.choice(n, size=2, replace=False)
        current[[i, j], k] = current[[j, i], k]
        new_cost = cost(current)
        accept = new_cost <= cur_cost or rng.uniform() < np.exp(
            -(new_cost - cur_cost) / temp
        )
        if accept:
            cur_cost = new_cost
            if new_cost < best_cost:
                best_cost = new_cost
                best = current.copy()
        else:
            current[[i, j], k] = current[[j, i], k]  # undo
        temp *= decay
    return best


def maximin_lhd(n: int, d: int, seed=None, iterations: int = 10_000) -> np.ndarray:
    """LHD optimized to maximize the minimum pairwise distance.

    Starts from a random LHD and improves it by column swaps; the result's
    minimum distance is never below the starting design's.
    """
    if n < 2:
        raise ValueError("maximin design needs n >= 2 (min distance undefined)")
    rng = _rng(seed)
    start = random_lhd(n, d, rng)
    return _exchange_optimize(start, lambda p: -min_pairwise_distance(p), rng, iterations)


def maxpro_lhd(n: int, d: int, seed=None, iterations: int = 10_000) -> np.ndarray:
    """LHD optimized to minimize the maximum projection criterion."""
    if n < 2:
        raise ValueError("MaxPro design needs n >= 2")
    rng = _rng(seed)
    start = random_lhd(n, d, rng)
    return _exchange_optimize(start, maxpro_criterion, rng, iterations)


def save_design_csv(points: np.ndarray, path) -> None:
    """Write a design as CSV with header x1..xd, one row per point."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    header = ",".join(f"x{k + 1}" for k in range(points.shape[1]))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in points:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
