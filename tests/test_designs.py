import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from dyncal import designs
from dyncal.designs import (_bounded, _exchange_optimize, _inverse_products, _maxpro_cost,
                            _squared_distances, maximin_lhd, maxpro_lhd, random_lhd)


def is_latin_hypercube(points: np.ndarray) -> bool:
    """Check the per-dimension stratification invariant exactly."""
    points = np.asarray(points)
    n = points.shape[0]
    if np.any(points < 0.0) or np.any(points > 1.0):
        return False
    strata = np.floor(points * n).astype(int)
    strata = np.minimum(strata, n - 1)  # guard coordinate exactly 1.0
    return all(len(np.unique(strata[:, k])) == n for k in range(points.shape[1]))


def maxpro_criterion(points: np.ndarray) -> float:
    """The MaxPro criterion psi(D) of a whole design, through the search's own
    pair values and cost, as the exchange search takes it after every swap."""
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    i, j = np.triu_indices(n, k=1)
    with np.errstate(divide="ignore"):
        return _maxpro_cost(_inverse_products(points[i] - points[j]), d)


def test_random_lhd_quarter_strata():
    pts = random_lhd(4, 1, seed=3)
    strata = sorted(int(v * 4) for v in pts[:, 0])
    assert strata == [0, 1, 2, 3]


def test_random_lhd_single_point():
    pts = random_lhd(1, 3, seed=0)
    assert pts.shape == (1, 3)
    assert np.all((pts >= 0) & (pts <= 1))


def test_random_lhd_candidate_set_size():
    pts = random_lhd(5000, 2, seed=11)
    assert pts.shape == (5000, 2)
    assert is_latin_hypercube(pts)


@given(n=st.integers(1, 40), d=st.integers(1, 6), seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_random_lhd_stratification(n, d, seed):
    assert is_latin_hypercube(random_lhd(n, d, seed))


def test_rejects_empty():
    with pytest.raises(ValueError):
        random_lhd(0, 2, seed=0)
    with pytest.raises(ValueError):
        random_lhd(2, 0, seed=0)
    with pytest.raises(ValueError):
        maximin_lhd(1, 2, seed=0, iterations=10)
    with pytest.raises(ValueError):
        maxpro_lhd(1, 2, seed=0, iterations=10)


def test_same_seed_bit_identical():
    a = random_lhd(10, 3, seed=42)
    b = random_lhd(10, 3, seed=42)
    assert np.array_equal(a, b)
    c = maximin_lhd(8, 2, seed=42, iterations=200)
    d = maximin_lhd(8, 2, seed=42, iterations=200)
    assert np.array_equal(c, d)


def _replicated_start(n, d, seed):
    # maximin_lhd/maxpro_lhd draw their start from the same stream
    rng = np.random.default_rng(seed)
    return random_lhd(n, d, rng)


@pytest.mark.parametrize("n,d", [(5, 2), (15, 2), (10, 4)])
def test_maximin_never_worse_than_start(n, d):
    start = _replicated_start(n, d, 7)
    out = maximin_lhd(n, d, seed=7, iterations=2000)
    assert is_latin_hypercube(out)
    assert pdist(out).min() >= pdist(start).min()


@pytest.mark.parametrize("n,d", [(5, 2), (18, 3)])
def test_maxpro_never_worse_than_start(n, d):
    start = _replicated_start(n, d, 13)
    out = maxpro_lhd(n, d, seed=13, iterations=2000)
    assert is_latin_hypercube(out)
    assert maxpro_criterion(out) <= maxpro_criterion(start)


def _grid_3x2():
    # fixed stratified grid: midpoints of the 3 strata in each of 2 columns
    vals = (np.arange(3) + 0.5) / 3
    return np.column_stack([vals, vals])


def _brute_force_optimum(cost):
    vals = (np.arange(3) + 0.5) / 3
    best = np.inf
    for p in itertools.permutations(range(3)):
        for q in itertools.permutations(range(3)):
            design = np.column_stack([vals[list(p)], vals[list(q)]])
            best = min(best, cost(design))
    return best


def _maximin_cost(points):
    """The maximin cost from scipy, independent of the search's own."""
    return -float(pdist(points).min())


def test_maximin_exhaustive_permutation_oracle():
    truth = _brute_force_optimum(_maximin_cost)
    out = _exchange_optimize(_grid_3x2(), "maximin", np.random.default_rng(5), 3000)
    assert _maximin_cost(out) == pytest.approx(truth, rel=1e-12)


def test_maxpro_exhaustive_permutation_oracle():
    truth = _brute_force_optimum(maxpro_criterion)
    out = _exchange_optimize(_grid_3x2(), "maxpro", np.random.default_rng(5), 3000)
    assert maxpro_criterion(out) == pytest.approx(truth, rel=1e-12)


def _reference_exchange(points, cost, rng, iterations):
    """The exchange search recomputing the whole criterion after every swap."""
    current = np.array(points, dtype=float)
    n, d = current.shape
    cur_cost = cost(current)
    best = current.copy()
    best_cost = cur_cost
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
            current[[i, j], k] = current[[j, i], k]
        temp *= decay
    return best


@given(n=st.integers(2, 20), d=st.integers(1, 5), iterations=st.integers(50, 500),
       criterion=st.sampled_from(["maximin", "maxpro"]), seed=st.integers(0, 2**31),
       buffered=st.booleans())
@example(n=2, d=3, iterations=50, criterion="maximin", seed=0, buffered=False)
@example(n=2, d=1, iterations=50, criterion="maxpro", seed=1, buffered=True)
@example(n=20, d=5, iterations=2000, criterion="maxpro", seed=2, buffered=True)  # > 1 block
@settings(max_examples=100, deadline=None)
def test_incremental_exchange_matches_full_recompute(n, d, iterations, criterion, seed,
                                                     buffered):
    optimize, cost = {
        "maximin": (maximin_lhd, _maximin_cost),
        "maxpro": (maxpro_lhd, maxpro_criterion),
    }[criterion]
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:  # enter the search with the high half of a word buffered
        ref_rng.integers(5)
        rng.integers(5)
    want = _reference_exchange(random_lhd(n, d, ref_rng), cost, ref_rng, iterations)
    got = _exchange_optimize(random_lhd(n, d, rng), criterion, rng, iterations)
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if not buffered:
        assert np.array_equal(optimize(n, d, seed=seed, iterations=iterations), want)


@given(n=st.integers(2, 40), d=st.integers(1, 8), seed=st.integers(0, 2**31),
       scale=st.floats(-6.0, 6.0), digits=st.one_of(st.none(), st.integers(0, 3)))
@example(n=2, d=1, seed=0, scale=0.0, digits=None)
@example(n=12, d=3, seed=1, scale=0.0, digits=1)  # many tied and zero distances
@settings(max_examples=200, deadline=None)
def test_min_pairwise_distance_bit_equal_to_pdist(n, d, seed, scale, digits):
    """The maximin search's cost is minus the smallest distance as pdist gives it."""
    points = np.random.default_rng(seed).uniform(size=(n, d)) * 10.0 ** scale
    if digits is not None:
        points = np.round(points, digits)
    i, j = np.triu_indices(n, k=1)
    got = -designs._maximin_cost(_squared_distances(points[i] - points[j]), d)
    assert type(got) is float
    assert got == float(pdist(points).min())


def _next_draws(rng):
    """The generator's next 32-bit draws and uniform, to compare end states of
    any bit generator (their state dicts may hold arrays)."""
    return rng.integers(2**32, size=4).tolist(), rng.random()


@given(seed=st.integers(0, 2**31), buffered=st.booleans(),
       bit_generator=st.sampled_from([np.random.PCG64, np.random.MT19937]),
       highs=st.lists(st.sampled_from([1, 2, 3, 7, 2**31 + 1, 3 * 2**30, 2**32 - 2, 2**32]),
                      max_size=60))
@settings(max_examples=100, deadline=None)
def test_bounded_draws_match_numpy(seed, buffered, bit_generator, highs):
    # large bounds make Lemire's rejection step frequent; 2^32 is numpy's unbounded draw
    ref, rng = np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))
    if buffered:  # PCG64 then holds the high half of a word for the next 32-bit draw
        ref.integers(5)
        rng.integers(5)
    bits = rng.bit_generator.ctypes
    for high in highs:
        assert _bounded(bits.next_uint32, bits.state, high) == ref.integers(high)
    assert _next_draws(rng) == _next_draws(ref)


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox,
                                           np.random.SFC64, np.random.PCG64DXSM])
@pytest.mark.parametrize("criterion", ["maximin", "maxpro"])
@pytest.mark.parametrize("n,d", [(2, 1), (9, 3)])
def test_exchange_search_on_any_bit_generator(bit_generator, criterion, n, d):
    cost = {"maximin": _maximin_cost, "maxpro": maxpro_criterion}[criterion]
    ref, rng = np.random.Generator(bit_generator(3)), np.random.Generator(bit_generator(3))
    want = _reference_exchange(random_lhd(n, d, ref), cost, ref, 400)
    got = _exchange_optimize(random_lhd(n, d, rng), criterion, rng, 400)
    assert np.array_equal(got, want)
    assert _next_draws(rng) == _next_draws(ref)


def test_maxpro_criterion_infinite_on_shared_coordinate():
    pts = np.array([[0.2, 0.3], [0.2, 0.9]])
    assert maxpro_criterion(pts) == np.inf


def test_initial_design_sizes_from_experiments():
    # desk-scale checks at the sizes the experiments use
    assert maximin_lhd(15, 2, seed=1, iterations=500).shape == (15, 2)
    assert maxpro_lhd(18, 3, seed=1, iterations=500).shape == (18, 3)

