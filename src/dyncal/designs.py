"""Space-filling designs on the unit hypercube.

Latin hypercube designs (LHDs) are the workhorse here: random LHDs serve as
candidate/test sets for acquisition sweeps, while maximin- and MaxPro-optimized
LHDs are used as initial designs for the sequential calibration loops. All
designs live in [0,1]^d, one point per stratum [i/n, (i+1)/n) in every
dimension.

The optimized designs come from one exchange search (Jin, Chen & Sudjianto
2005; Joseph, Gul & Ba 2015): swap two entries of one column, keep the swap
by simulated-annealing acceptance. The search keeps the value of every pair
of rows in one vector, so a swap of rows i and j recomputes only the 2(n - 2)
pairs that involve them, and the cost is still taken over the whole vector:
every cost is bit-equal to the MaxPro criterion or to minus the smallest
pairwise distance (as `pdist` computes it) of the current design. The draws
per iteration are fixed (a column, two rows, and an acceptance draw only for
an uphill swap), so a seed gives the same design. They are the draws
`rng.integers`, `rng.choice` and `rng.random` would make, taken from the
generator's own bit generator (`_bounded`), which ends in the state those
calls would leave; any numpy `Generator` serves.
"""
from __future__ import annotations

import math

import numpy as np


def random_lhd(n: int, d: int, seed) -> np.ndarray:
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
    rng = np.random.default_rng(seed)
    design = np.empty((n, d))
    for k in range(d):
        design[:, k] = (rng.permutation(n) + rng.uniform(size=n)) / n
    return design


def _inverse_products(diff: np.ndarray) -> np.ndarray:
    """MaxPro pair values 1 / prod_k diff_k^2, one per row of coordinate
    differences; squares diff in place."""
    np.multiply(diff, diff, out=diff)
    return np.divide(1.0, np.multiply.reduce(diff, axis=1))


def _maxpro_cost(values: np.ndarray, d: int) -> float:
    """The maximum projection criterion (Joseph, Gul & Ba 2015), smaller is
    better, from the pair values of every pair:

    psi(D) = [ (1/C(n,2)) sum_{i<j} 1 / prod_k (x_ik - x_jk)^2 ]^(1/d).

    Infinite when two points share a coordinate in some dimension, which a
    valid LHD rules out.
    """
    return float((np.add.reduce(values) / len(values)) ** (1.0 / d))


def _squared_distances(diff: np.ndarray) -> np.ndarray:
    """Squared Euclidean lengths of the rows of diff, the squares summed column
    by column as `pdist` sums them; squares diff in place."""
    np.multiply(diff, diff, out=diff)
    total = diff[:, 0].copy()
    for k in range(1, diff.shape[1]):
        total += diff[:, k]
    return total


def _maximin_cost(values: np.ndarray, d: int) -> float:
    """Minus the smallest distance. sqrt is correctly rounded and so monotone:
    the root of the smallest squared distance is the smallest distance, and
    with the squares summed as `pdist` sums them it is bit-equal to
    `pdist(points).min()`."""
    return -math.sqrt(np.minimum.reduce(values))


# criterion name -> (pair values from coordinate differences, cost from all pair values)
_CRITERIA = {
    "maxpro": (_inverse_products, _maxpro_cost),
    "maximin": (_squared_distances, _maximin_cost),
}


def _bounded(next_uint32, state, high: int) -> int:
    """The draw `rng.integers(high)` makes, uniform on [0, high) for
    1 <= high <= 2^32, from the generator's own 32-bit draws: numpy's
    `buffered_bounded_lemire_uint32`, Lemire's multiply-and-reject (Lemire
    2019). next_uint32 and state come from `rng.bit_generator.ctypes`. Like
    numpy's, a draw on [0, 1) takes no bits."""
    if high == 1:
        return 0
    m = next_uint32(state) * high
    if m & 0xFFFFFFFF < high:
        threshold = 0x100000000 % high  # numpy's (UINT32_MAX - rng) % rng_excl
        while m & 0xFFFFFFFF < threshold:
            m = next_uint32(state) * high
    return m >> 32


def _touching_pairs(n: int, i: int, j: int):
    """The pairs (i, c) and (j, c), c not in {i, j}: their positions in
    `triu_indices` order and the rows at their two ends."""
    rest = np.delete(np.arange(n), [i, j])
    ends = np.repeat([i, j], n - 2)
    others = np.concatenate([rest, rest])
    lo, hi = np.minimum(ends, others), np.maximum(ends, others)
    positions = lo * n - lo * (lo + 1) // 2 + (hi - lo - 1)
    return positions, ends, others


def _exchange_optimize(points, criterion, rng, iterations):
    """Within-column swap search with simulated-annealing acceptance.

    Proposes swapping two entries of one randomly chosen column, which
    preserves the LHD property. Keeps the best design ever seen, so the
    returned design is never worse than the start.

    The values of every pair are kept in one vector, in `triu_indices` order:
    1 / prod(diff^2) for "maxpro", the squared distance for "maximin". A swap
    of rows i and j changes only the 2(n - 2) pairs (i, c) and (j, c), so
    only those are recomputed (their positions are cached per row pair), and
    a rejected swap puts the old values back. The cost is still taken over
    the whole vector (its sum for MaxPro, its minimum for maximin), so every
    cost is bit-equal to that of the current design computed afresh. Each
    iteration draws `rng.integers(d)` and `rng.choice(n, 2, replace=False)`,
    and one `rng.random()` only for an uphill proposal, each bit for bit
    through the bit generator's `next_uint32` and `next_double`: a given
    stream gives the same design, from any numpy `Generator`.
    """
    pair_values, cost = _CRITERIA[criterion]
    current = np.array(points, dtype=float)
    n, d = current.shape
    a, b = np.triu_indices(n, k=1)
    values = pair_values(current[a] - current[b])
    cur_cost = cost(values, d)
    best = current.copy()
    best_cost = cur_cost

    # temperature schedule scaled to the initial cost magnitude
    t0 = 0.1 * (abs(cur_cost) + 1e-12)
    tf = 1e-6 * t0
    decay = (tf / t0) ** (1.0 / max(iterations, 1))
    temp = t0

    bits = rng.bit_generator.ctypes
    next_uint32, next_double, state = bits.next_uint32, bits.next_double, bits.state
    touching = {}
    for _ in range(iterations):
        k = _bounded(next_uint32, state, d)
        # rng.choice(n, 2, replace=False): Floyd's sample, then a one-step shuffle
        # whose draw, bounded(2), is one 32-bit draw that Lemire never rejects;
        # it is made but not applied, since a swap of rows i and j is one of j and i
        i = _bounded(next_uint32, state, n - 1)
        j = _bounded(next_uint32, state, n)
        if j == i:
            j = n - 1
        next_uint32(state)
        key = i * n + j if i < j else j * n + i
        pairs = touching.get(key)
        if pairs is None:
            pairs = touching[key] = _touching_pairs(n, i, j)
        positions, ends, others = pairs
        current[i, k], current[j, k] = current[j, k], current[i, k]
        old = values.take(positions)
        values[positions] = pair_values(current.take(ends, 0) - current.take(others, 0))
        new_cost = cost(values, d)
        if new_cost <= cur_cost or next_double(state) < np.exp(-(new_cost - cur_cost) / temp):
            cur_cost = new_cost
            if new_cost < best_cost:
                best_cost = new_cost
                best = current.copy()
        else:
            current[i, k], current[j, k] = current[j, k], current[i, k]  # undo
            values[positions] = old
        temp *= decay
    return best


def maximin_lhd(n: int, d: int, seed, iterations: int) -> np.ndarray:
    """LHD optimized to maximize the minimum pairwise distance.

    Starts from a random LHD and improves it by column swaps; the result's
    minimum distance is never below the starting design's. seed may be any
    numpy Generator.
    """
    if n < 2:
        raise ValueError("maximin design needs n >= 2 (min distance undefined)")
    rng = np.random.default_rng(seed)
    start = random_lhd(n, d, rng)
    return _exchange_optimize(start, "maximin", rng, iterations)


def maxpro_lhd(n: int, d: int, seed, iterations: int) -> np.ndarray:
    """LHD optimized to minimize the maximum projection criterion. seed may be
    any numpy Generator."""
    if n < 2:
        raise ValueError("MaxPro design needs n >= 2")
    rng = np.random.default_rng(seed)
    start = random_lhd(n, d, rng)
    return _exchange_optimize(start, "maxpro", rng, iterations)

