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
an uphill swap), so a seed gives the same design. They are the draws `rng.integers`, `rng.choice` and `rng.random`
would make, computed in Python from PCG64 words read in blocks
(`_Pcg64Draws`), and the generator is left in the state those calls would
leave; the search therefore needs a PCG64 generator, as `default_rng` makes.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


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
    rng = _rng(seed)
    design = np.empty((n, d))
    for k in range(d):
        design[:, k] = (rng.permutation(n) + rng.uniform(size=n)) / n
    return design


@lru_cache(maxsize=16)
def _pair_indices(n: int):
    """Row indices (i, j) of all pairs i < j, in `triu_indices` order; read-only,
    cached because every exchange search at one n starts from them."""
    pairs = np.triu_indices(n, k=1)
    for idx in pairs:
        idx.flags.writeable = False
    return pairs


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


class _Pcg64Draws:
    """The draws `rng.integers(high)`, `rng.choice(n, 2, replace=False)` and
    `rng.random()` of a PCG64 `Generator`, made in Python from raw 64-bit
    words read in blocks from a copy of its bit generator.

    Each draw is the one numpy makes, bit for bit: a bounded integer is
    Lemire's multiply-and-reject on a 32-bit draw, and a 32-bit draw is the
    low half of a fresh word, whose high half is kept for the next one (PCG64
    buffers it the same way); the two rows are Floyd's sample (bounds n - 2
    and n - 1, a repeat replaced by n - 1) followed by a one-step shuffle; a
    uniform is (word >> 11) * 2^-53. `close` advances the caller's generator
    by the words used and restores its buffered half, so that it ends in the
    state the numpy calls would have left. Bounds are below 2^32 - 1.
    """

    _BLOCK = 1024

    def __init__(self, rng: np.random.Generator):
        owner = rng.bit_generator
        if type(owner) is not np.random.PCG64:
            raise ValueError("the exchange search needs a PCG64 generator, "
                             f"got {type(owner).__name__}")
        state = owner.state
        self._owner = owner
        self._source = np.random.PCG64()
        self._source.state = state
        self._words: list[int] = []
        self._pos = 0
        self._used = 0  # words of the blocks before the current one
        self._has_half = state["has_uint32"]
        self._half = state["uinteger"]

    def _word(self) -> int:
        if self._pos == len(self._words):
            self._used += self._pos
            self._words = self._source.random_raw(self._BLOCK).tolist()
            self._pos = 0
        self._pos += 1
        return self._words[self._pos - 1]

    def _bounded(self, rng: int) -> int:
        """Uniform on [0, rng]."""
        if rng == 0:
            return 0
        excl = rng + 1
        while True:
            if self._has_half:
                self._has_half = 0
                u32 = self._half
            else:
                word = self._word()
                self._has_half = 1
                self._half = word >> 32
                u32 = word & 0xFFFFFFFF
            m = u32 * excl
            leftover = m & 0xFFFFFFFF
            if leftover >= excl or leftover >= (0xFFFFFFFF - rng) % excl:
                return m >> 32

    def integers(self, high: int) -> int:
        return self._bounded(high - 1)

    def two_rows(self, n: int) -> tuple[int, int]:
        first = self._bounded(n - 2)
        second = self._bounded(n - 1)
        if second == first:
            second = n - 1
        if self._bounded(1) == 0:
            return second, first
        return first, second

    def random(self) -> float:
        return (self._word() >> 11) * (1.0 / 9007199254740992.0)

    def close(self) -> None:
        self._owner.advance(self._used + self._pos)
        state = self._owner.state
        state["has_uint32"] = self._has_half
        state["uinteger"] = self._half
        self._owner.state = state


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
    and one `rng.random()` only for an uphill proposal, all through
    `_Pcg64Draws`: a given stream gives the same design. rng must be a PCG64
    `Generator`.
    """
    pair_values, cost = _CRITERIA[criterion]
    current = np.array(points, dtype=float)
    n, d = current.shape
    a, b = _pair_indices(n)
    values = pair_values(current[a] - current[b])
    cur_cost = cost(values, d)
    best = current.copy()
    best_cost = cur_cost

    # temperature schedule scaled to the initial cost magnitude
    t0 = 0.1 * (abs(cur_cost) + 1e-12)
    tf = 1e-6 * t0
    decay = (tf / t0) ** (1.0 / max(iterations, 1))
    temp = t0

    draws = _Pcg64Draws(rng)
    touching = {}
    for _ in range(iterations):
        k = draws.integers(d)
        i, j = draws.two_rows(n)
        key = i * n + j if i < j else j * n + i
        pairs = touching.get(key)
        if pairs is None:
            pairs = touching[key] = _touching_pairs(n, i, j)
        positions, ends, others = pairs
        current[i, k], current[j, k] = current[j, k], current[i, k]
        old = values.take(positions)
        values[positions] = pair_values(current.take(ends, 0) - current.take(others, 0))
        new_cost = cost(values, d)
        if new_cost <= cur_cost or draws.random() < np.exp(-(new_cost - cur_cost) / temp):
            cur_cost = new_cost
            if new_cost < best_cost:
                best_cost = new_cost
                best = current.copy()
        else:
            current[i, k], current[j, k] = current[j, k], current[i, k]  # undo
            values[positions] = old
        temp *= decay
    draws.close()
    return best


def maximin_lhd(n: int, d: int, seed, iterations: int) -> np.ndarray:
    """LHD optimized to maximize the minimum pairwise distance.

    Starts from a random LHD and improves it by column swaps; the result's
    minimum distance is never below the starting design's. A Generator given
    as seed must be a PCG64 one.
    """
    if n < 2:
        raise ValueError("maximin design needs n >= 2 (min distance undefined)")
    rng = _rng(seed)
    start = random_lhd(n, d, rng)
    return _exchange_optimize(start, "maximin", rng, iterations)


def maxpro_lhd(n: int, d: int, seed, iterations: int) -> np.ndarray:
    """LHD optimized to minimize the maximum projection criterion. A Generator
    given as seed must be a PCG64 one."""
    if n < 2:
        raise ValueError("MaxPro design needs n >= 2")
    rng = _rng(seed)
    start = random_lhd(n, d, rng)
    return _exchange_optimize(start, "maxpro", rng, iterations)

