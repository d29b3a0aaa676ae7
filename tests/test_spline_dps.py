import collections
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from dyncal import spline_dps
from dyncal.simulators import target_series
from dyncal.spline_dps import (DpsResult, DpsTargetError, TargetSeries, _design_matrix,
                               _insertion_scores, build_dps, fit_cubic_spline,
                               greedy_knot_search, select_k_elbow)


# -- independent textbook oracle: recursive Cox-de Boor basis -----------------

def _bspline_basis_value(x, k, i, t):
    if k == 0:
        return 1.0 if t[i] <= x < t[i + 1] else 0.0
    c1 = 0.0
    if t[i + k] != t[i]:
        c1 = (x - t[i]) / (t[i + k] - t[i]) * _bspline_basis_value(x, k - 1, i, t)
    c2 = 0.0
    if t[i + k + 1] != t[i + 1]:
        c2 = ((t[i + k + 1] - x) / (t[i + k + 1] - t[i + 1])
              * _bspline_basis_value(x, k - 1, i + 1, t))
    return c1 + c2


def oracle_spline_mse(values, interior_knots):
    """Least-squares cubic spline MSE from a from-scratch recursive basis."""
    L = len(values)
    xs = np.arange(1.0, L + 1.0)
    kv = np.concatenate([[1.0] * 4, np.sort(np.asarray(interior_knots, float)),
                         [float(L)] * 4])
    ncoef = len(kv) - 4
    A = np.zeros((L, ncoef))
    for r, x in enumerate(xs):
        if x == kv[-1]:
            # right-closed convention at the final boundary knot
            A[r, ncoef - 1] = 1.0
            continue
        for i in range(ncoef):
            A[r, i] = _bspline_basis_value(x, 3, i, kv)
    coef, *_ = np.linalg.lstsq(A, values, rcond=None)
    resid = values - A @ coef
    return float(np.mean(resid ** 2))


def _scipy_design_matrix(n, interior_knots):
    """The regression matrix from scipy's B-spline basis, first column replaced
    by the intercept."""
    x = np.arange(1.0, n + 1.0)
    kv = np.concatenate([[1.0] * 4, np.sort(np.asarray(interior_knots, float)),
                         [float(n)] * 4])
    B = BSpline.design_matrix(x, kv, 3, extrapolate=False).toarray()
    return np.column_stack([np.ones(n), B[:, 1:]])


@given(L=st.integers(8, 2000), count=st.integers(0, 30), seed=st.integers(0, 2**31),
       layout=st.sampled_from(["random", "packed_start", "packed_end", "with_last"]))
@example(L=8, count=0, seed=0, layout="random")
@example(L=8, count=3, seed=0, layout="packed_start")
@example(L=2000, count=30, seed=1, layout="packed_end")
@example(L=1500, count=3, seed=2, layout="with_last")
@settings(max_examples=150, deadline=None)
def test_design_matrix_bit_equal_to_scipy(L, count, seed, layout):
    """Exact equality: the basis makes scipy's operations in scipy's order
    (an FMA-contracting build of scipy could differ in the last bit)."""
    count = min(count, L - 5)
    rng = np.random.default_rng(seed)
    if layout == "packed_start":
        knots = list(range(2, 2 + count))
    elif layout == "packed_end":
        knots = list(range(L - count, L))
    else:
        knots = rng.choice(np.arange(2, L - 1), size=count, replace=False).tolist()
        if layout == "with_last":
            knots = [L - 1] + knots[:max(count - 1, 0)]
    got = _design_matrix(L, knots)
    want = _scipy_design_matrix(L, knots)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_fit_matches_textbook_oracle_on_easom_dps_knots():
    series = TargetSeries(target_series("easom"))
    fit = fit_cubic_spline(series, [145, 37, 132])
    oracle = oracle_spline_mse(series.values, [145, 37, 132])
    assert fit.mse == pytest.approx(oracle, rel=1e-8)


def test_fit_matches_textbook_oracle_on_random_knots():
    rng = np.random.default_rng(3)
    xs = np.linspace(0, 1, 60)
    values = np.sin(7 * xs) + 0.3 * np.cos(19 * xs)
    series = TargetSeries(values)
    for knots in ([10], [5, 30, 45], [2, 3, 58, 59]):
        fit = fit_cubic_spline(series, knots)
        assert fit.mse == pytest.approx(oracle_spline_mse(values, knots), rel=1e-8)


def test_cubic_polynomial_is_exact_with_zero_knots():
    xs = np.arange(1.0, 51.0)
    values = 0.5 * xs ** 3 - 2 * xs ** 2 + xs - 7
    fit = fit_cubic_spline(TargetSeries(values), [])
    assert fit.mse <= 1e-18 * np.mean(values ** 2)


def test_constant_series_fits_exactly():
    fit = fit_cubic_spline(TargetSeries(np.full(30, 4.2)), [7, 19])
    assert np.allclose(fit.fitted, 4.2)
    assert fit.mse <= 1e-25


def test_residuals_orthogonal_to_basis():
    series = TargetSeries(target_series("harari_steinberg"))
    knots = [26, 95, 118]
    fit = fit_cubic_spline(series, knots)
    A = _design_matrix(len(series), knots)
    resid = series.values - fit.fitted
    inner = np.abs(A.T @ resid)
    col_norms = np.linalg.norm(A, axis=0)
    assert np.all(inner <= 1e-8 * col_norms * max(1.0, np.linalg.norm(resid)))


def test_fit_rejects_bad_knots():
    series = TargetSeries(np.sin(np.linspace(0, 5, 40)))
    with pytest.raises(ValueError):
        fit_cubic_spline(series, [5, 5])
    with pytest.raises(ValueError):
        fit_cubic_spline(series, [1])
    with pytest.raises(ValueError):
        fit_cubic_spline(series, [40])
    with pytest.raises(ValueError):
        fit_cubic_spline(series, list(range(2, 39)))
    for knot in (2.5, 5.0, "5", True):
        with pytest.raises(ValueError, match=re.escape(f"interior knot must be an integer, "
                                                       f"got {knot!r}")):
            fit_cubic_spline(series, [9, knot])
    assert fit_cubic_spline(series, np.array([5, 9])).mse == fit_cubic_spline(series, [5, 9]).mse


def test_target_series_validation():
    with pytest.raises(ValueError):
        TargetSeries(np.ones(4))
    with pytest.raises(ValueError):
        TargetSeries(np.array([1.0, 2.0, np.inf, 3.0, 4.0]))


def test_target_series_is_flat():
    """A 2 x 100 array is refused, not flattened into a 200-point target."""
    with pytest.raises(ValueError, match=r"^target must be a list of numbers, got array\(\[\["):
        TargetSeries(np.zeros((2, 100)))
    assert TargetSeries([1, 2, 3, 4, 6]).values.dtype == np.float64


def test_greedy_stage_one_is_exhaustive_scan():
    series = TargetSeries(target_series("easom"))
    knots, path = greedy_knot_search(series, k_max=1)
    best_idx, best_mse = None, np.inf
    for cand in range(2, len(series)):
        mse = fit_cubic_spline(series, [cand]).mse
        if mse < best_mse:
            best_mse, best_idx = mse, cand
    assert knots[0] == best_idx == 145
    assert path[1] == best_mse


def _brute_force_scan(series, k_max):
    """Reference greedy scan: refit every admissible knot at every stage."""
    L = len(series)
    knots = []
    mse_path = [fit_cubic_spline(series, knots).mse]
    for _ in range(k_max):
        best_idx, best_mse = None, np.inf
        for cand in range(2, L):
            if cand in knots:
                continue
            mse = fit_cubic_spline(series, knots + [cand]).mse
            if mse < best_mse:
                best_mse, best_idx = mse, cand
        knots.append(best_idx)
        mse_path.append(best_mse)
    return knots, np.asarray(mse_path)


def _scan_series(kind, L, seed):
    rng = np.random.default_rng(seed)
    if kind == "walk":
        return np.cumsum(rng.normal(size=L))
    if kind == "constant":
        return np.full(L, rng.uniform(-5.0, 5.0))
    if kind == "piecewise":
        breaks = np.sort(rng.uniform(1.0, L, size=rng.integers(1, 5)))
        xp = np.concatenate([[1.0], breaks, [float(L)]])
        return np.interp(np.arange(1.0, L + 1.0), xp, rng.normal(size=len(xp)))
    half = np.cumsum(rng.normal(size=(L + 1) // 2))  # symmetric about the middle
    return np.concatenate([half, half[: L // 2][::-1]])


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["walk", "constant", "piecewise", "symmetric"]),
       L=st.integers(8, 120), k_frac=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
def test_greedy_scan_matches_brute_force(kind, L, k_frac, seed):
    k_max = 1 + int(k_frac * (min(6, L - 5) - 1))
    series = TargetSeries(_scan_series(kind, L, seed))
    if kind == "constant":  # every index ties, so the scan refuses the series
        with pytest.raises(DpsTargetError):
            greedy_knot_search(series, k_max)
        return
    calls = collections.Counter()

    def counting(name):
        real = getattr(spline_dps, name)
        return lambda *a: calls.update([name]) or real(*a)

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_design_matrix", "fit_cubic_spline"):
            mp.setattr(spline_dps, name, counting(name))
        knots, path = greedy_knot_search(series, k_max)
    # the scan builds no basis of its own: it scores in the bases its fits built
    assert calls["_design_matrix"] == calls["fit_cubic_spline"] > k_max
    ref_knots, ref_path = _brute_force_scan(series, k_max)
    assert knots == ref_knots
    assert np.array_equal(path, ref_path)


def _dense_scores(y, knots, free):
    """Reference scorer: every knot's direction projected off the current
    spline space explicitly, twice. Returns the scores, the current MSE and
    p'p / q'q, the factor by which cancellation in q'q amplifies rounding."""
    L = len(y)
    t = np.arange(1.0, L + 1.0)[:, None]
    Q = np.linalg.qr(_design_matrix(L, knots))[0]
    r = y - Q @ (Q.T @ y)
    c = free.astype(float)
    P = np.where(c < (L + 1) / 2.0, np.maximum(c - t, 0.0), np.maximum(t - c, 0.0)) ** 3
    pp = np.einsum("ij,ij->j", P, P)
    for _ in range(2):
        P = P - Q @ (Q.T @ P)
    qq = np.einsum("ij,ij->j", P, P)
    gain = np.divide((r @ P) ** 2, qq, out=np.zeros(len(c)), where=qq > 0.0)
    amplification = np.divide(pp, qq, out=np.full(len(c), np.inf), where=qq > 0.0)
    return np.maximum(r @ r - gain, 0.0) / L, float(r @ r) / L, amplification


def _parity_series(kind, L, knots, rng):
    x = np.arange(1.0, L + 1.0)
    if kind == "walk":
        return np.cumsum(rng.normal(size=L))
    if kind == "sine":
        return np.sin(x * rng.uniform(0.01, 0.5)) + 0.1 * rng.normal(size=L)
    if kind == "hydrograph":
        return hydrograph(L, int(rng.integers(1000)), storms=max(1, L // 25))
    # an exact cubic spline on (a subset of) the given knots: the residual is rounding
    sub = knots[: len(knots) // 2 + 1] if knots else []
    return _design_matrix(L, sub) @ rng.normal(size=len(sub) + 4)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["walk", "sine", "hydrograph", "spline"]),
       L=st.integers(8, 600), count=st.integers(0, 12), seed=st.integers(0, 2**31))
@example(kind="hydrograph", L=600, count=12, seed=4)
@example(kind="spline", L=300, count=6, seed=0)
def test_insertion_scores_match_dense_projection(kind, L, count, seed):
    """The moment scores agree with the dense projection to 1e-9 of the
    current MSE. Next to a chosen knot, where q'q cancels, the moment route
    loses rounding in proportion to p'p / q'q; the guard caps that factor at
    1 / _GUARD_RTOL. An exact fit leaves a residual of rounding only, whose
    scores agree to 1e-14 * mean(y^2), the scan's absolute slack."""
    rng = np.random.default_rng(seed)
    knots = sorted(rng.choice(np.arange(2, L), min(count, L - 6), replace=False).tolist())
    y = _parity_series(kind, L, knots, rng)
    free = np.setdiff1d(np.arange(2, L), knots)
    got = _insertion_scores(y, _design_matrix(L, knots), free)
    want, mse, amplification = _dense_scores(y, knots, free)
    eps = np.finfo(float).eps
    tol = mse * (1e-9 + 16.0 * eps * amplification) + 1e-14 * float(np.mean(y * y))
    assert np.all(np.abs(got - want) <= tol)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["walk", "sine", "hydrograph", "spline"]),
       L=st.integers(8, 600), count=st.integers(0, 12), seed=st.integers(0, 2**31))
@example(kind="hydrograph", L=600, count=12, seed=4)
@example(kind="spline", L=300, count=6, seed=0)
def test_insertion_scores_are_mirror_symmetric(kind, L, count, seed):
    """Reversing the series and its knots (k -> L + 1 - k) reverses the
    scores, within the tolerance of the dense projection test: the scan
    scores each half of the series as the right half of itself or of its
    mirror image, and the reversed run swaps the two, in another basis."""
    rng = np.random.default_rng(seed)
    knots = sorted(rng.choice(np.arange(2, L), min(count, L - 6), replace=False).tolist())
    y = _parity_series(kind, L, knots, rng)
    free = np.setdiff1d(np.arange(2, L), knots)
    got = _insertion_scores(y, _design_matrix(L, knots), free)
    mirrored = sorted(L + 1 - k for k in knots)
    back = _insertion_scores(y[::-1], _design_matrix(L, mirrored), L + 1 - free[::-1])[::-1]
    _, mse, amplification = _dense_scores(y, knots, free)
    eps = np.finfo(float).eps
    tol = mse * (1e-9 + 16.0 * eps * amplification) + 1e-14 * float(np.mean(y * y))
    assert np.all(np.abs(got - back) <= tol)


def hydrograph(L, seed, storms=60):
    """Synthetic daily runoff (as in perfbench/workloads.py): a two-season
    baseflow plus gamma-shaped storms at random times."""
    rng = np.random.default_rng(seed)
    t = np.arange(L, dtype=float)
    x = t / L
    q = 1.0 + 1.5 * np.exp(-((x - 0.35) / 0.12) ** 2) + 0.8 * np.exp(-((x - 0.75) / 0.08) ** 2)
    for onset, size, recession in zip(rng.uniform(0.0, 0.95 * L, storms),
                                      rng.lognormal(0.0, 0.5, storms),
                                      rng.uniform(0.002, 0.01, storms) * L):
        lag = np.maximum(t - onset, 0.0) / recession
        q += 0.15 * size * lag ** 2 * np.exp(-lag)
    return q


def test_crowded_knots_keep_the_exact_choice(monkeypatch):
    """Knots 446, 447 and 449 end up side by side. At stage 9 q'q cancels next
    to 446 and 449: without the guard the scores of 445-450 miss their exact
    MSE by up to 48 times the shortlist's slack, and a miss upwards would
    drop the best knot from the shortlist. With it they miss by under 1%.
    The guard projects 54 knots left of the middle, scored on the mirror
    image, and 55 right of it."""
    series = TargetSeries(hydrograph(1500, 6))
    knots, path = greedy_knot_search(series, 10)
    assert knots == [990, 449, 1085, 326, 748, 446, 778, 1389, 447, 260]
    for i, mse in enumerate(path):
        assert mse == fit_cubic_spline(series, knots[:i]).mse
    before = knots[:8]
    free = np.setdiff1d(np.arange(2, 1500), before)
    guarded = []
    projected = spline_dps._projected_gains
    monkeypatch.setattr(spline_dps, "_projected_gains",
                        lambda Q, r, c: guarded.append(len(c)) or projected(Q, r, c))
    scores = _insertion_scores(series.values, _design_matrix(1500, before), free)
    assert guarded == [54, 55]
    slack = 1e-6 * path[9] + 1e-14 * float(np.mean(series.values ** 2))
    for j in np.flatnonzero((free >= 430) & (free <= 470)):
        exact = fit_cubic_spline(series, before + [int(free[j])]).mse
        assert abs(scores[j] - exact) <= 0.01 * slack


def test_insertion_scores_memory_stays_linear():
    """One stage at L = 20,000 with 10 knots peaked at 17.0 MB of traced
    allocations, most of it the guard's two L x 32 projection buffers and
    the contiguous copy of the mirrored basis. A single (L/32) x L array
    would add 100 MB."""
    L = 20_000
    y = hydrograph(L, 3)
    knots = sorted(np.random.default_rng(0).choice(np.arange(2, L), 10, replace=False).tolist())
    free = np.setdiff1d(np.arange(2, L), knots)
    basis = _design_matrix(L, knots)
    tracemalloc.start()
    try:
        _insertion_scores(y, basis, free)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18e6


@pytest.mark.parametrize("values", [
    np.full(600, 2.5), np.zeros(600), 0.25 * np.arange(600.0),
    1e-6 * (np.arange(600.0) - 200.0) ** 3 + 3.0,
], ids=["constant", "zero", "linear", "cubic"])
def test_build_dps_refuses_a_series_a_cubic_fits_exactly(monkeypatch, values):
    fits = []
    counted = fit_cubic_spline
    monkeypatch.setattr(spline_dps, "fit_cubic_spline",
                        lambda *a: fits.append(a) or counted(*a))
    with pytest.raises(DpsTargetError, match="fit exactly by a cubic without knots"):
        build_dps(TargetSeries(values), k_max=3)
    assert len(fits) == 1


def test_greedy_scan_refuses_a_linear_series_after_one_fit(monkeypatch):
    """Without the refusal each stage would refit all 1998 indices, about 2 s
    at L = 2000, and return knots that rounding picks."""
    fits = []
    counted = fit_cubic_spline
    monkeypatch.setattr(spline_dps, "fit_cubic_spline",
                        lambda *a: fits.append(a) or counted(*a))
    with pytest.raises(DpsTargetError, match="fit exactly by a cubic without knots"):
        greedy_knot_search(TargetSeries(0.25 * np.arange(2000.0) - 7.0), 2)
    assert len(fits) == 1


def test_greedy_mse_path_non_increasing():
    rng = np.random.default_rng(8)
    values = np.cumsum(rng.normal(size=50))
    _, path = greedy_knot_search(TargetSeries(values), k_max=6)
    assert np.all(np.diff(path) <= 1e-15)


def test_greedy_rejects_bad_kmax():
    series = TargetSeries(np.sin(np.linspace(0, 5, 20)))
    with pytest.raises(ValueError):
        greedy_knot_search(series, 0)
    with pytest.raises(ValueError):
        greedy_knot_search(series, 16)
    for k_max in (2.0, "3", True):
        with pytest.raises(ValueError, match=re.escape(f"k_max must be an integer, "
                                                       f"got {k_max!r}")):
            greedy_knot_search(series, k_max)
    assert greedy_knot_search(series, np.int64(2))[0] == greedy_knot_search(series, 2)[0]


def test_build_dps_rejects_k_max_below_two():
    series = TargetSeries(np.sin(np.linspace(0, 5, 20)))
    for k_max in (1, 0, -3):
        with pytest.raises(ValueError, match=f"k_max must be at least 2, got {k_max}"):
            build_dps(series, k_max)
    assert len(build_dps(series, 2).mse_path) == 3
    # a k_max that is not an integer is refused first, before the series length
    for k_max in (3.0, "3", True):
        for values in (series.values, series.values[:6]):
            with pytest.raises(ValueError, match=re.escape(f"k_max must be an integer, "
                                                           f"got {k_max!r}")):
                build_dps(TargetSeries(values), k_max)
    assert build_dps(series, np.int64(3)).to_dict() == build_dps(series, 3).to_dict()


@pytest.mark.parametrize("length", [8, 10, 14])
def test_build_dps_default_k_max_is_the_fit_limit_on_short_series(length):
    series = TargetSeries(np.sin(np.linspace(0.0, 5.0, length)))
    assert build_dps(series).to_dict() == build_dps(series, k_max=length - 5).to_dict()


@pytest.mark.parametrize("k_max", [None, 2, 10, 0])
def test_build_dps_refuses_a_series_below_seven_points_first(k_max):
    series = TargetSeries(np.sin(np.linspace(0.0, 5.0, 6)))
    with pytest.raises(DpsTargetError, match="a DPS needs a series of at least 7 points, got 6"):
        build_dps(series, k_max)


def test_elbow_on_paper_style_path():
    # level drop pattern with positive curvature first appearing at the third count
    path = [2.194e-2, 2.760e-4, 1.717e-4, 3.044e-5, 6.254e-6, 1.651e-6, 4.950e-7]
    k, warned = select_k_elbow(path)
    assert (k, warned) == (4, False)


def test_elbow_geometric_decay():
    path = [0.27 ** i for i in range(11)]
    k, warned = select_k_elbow(path)
    assert (k, warned) == (3, False)


def test_elbow_linear_path_returns_kmax_with_warning():
    path = [float(v) for v in range(20, 9, -1)]  # exactly linear in floats
    k, warned = select_k_elbow(path)
    assert (k, warned) == (10, True)


def test_elbow_needs_three_entries():
    with pytest.raises(ValueError):
        select_k_elbow([1.0, 0.5])


def test_build_dps_easom():
    result = build_dps(TargetSeries(target_series("easom")), k_max=4)
    assert result.dps == [145, 37, 132]
    assert result.k_selected == 3
    assert not result.elbow_warning


def test_build_dps_deterministic():
    series = TargetSeries(target_series("easom"))
    a = build_dps(series, k_max=4)
    b = build_dps(series, k_max=4)
    assert a.ordered_knots == b.ordered_knots
    assert np.array_equal(a.mse_path, b.mse_path)


def test_dps_result_prefix():
    r = DpsResult(ordered_knots=[9, 4, 7, 2], mse_path=np.arange(5.0),
                  k_selected=2)
    assert r.dps == [9, 4]


def test_long_series_dps_selection():
    # synthetic long-series fixture at the scale of real hydrological output
    xs = np.linspace(0.0, 1.0, 5000)
    values = np.exp(-80 * (xs - 0.3) ** 2) + 0.6 * np.exp(-400 * (xs - 0.62) ** 2)
    series = TargetSeries(values)
    result = build_dps(series, k_max=3)
    assert len(result.ordered_knots) == 3
    assert all(1 < t < 5000 for t in result.ordered_knots)
    assert np.all(np.diff(result.mse_path) <= 0)
    for i, mse in enumerate(result.mse_path):
        assert mse == fit_cubic_spline(series, result.ordered_knots[:i]).mse


def test_packed_knots_next_to_the_start_take_the_ridge_branch():
    # adjacent knots from t = 2 on pass the argument checks but leave the
    # design numerically rank deficient, so the ridge branch is reachable
    L, knots = 200, list(range(2, 25))
    y = np.sin(np.arange(L) / 9.0)
    A = _design_matrix(L, knots)
    coef, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    assert rank < A.shape[1]
    fit = fit_cubic_spline(TargetSeries(y), knots)
    assert np.all(np.isfinite(fit.fitted))
    assert fit.mse == pytest.approx(np.mean((y - A @ coef) ** 2), rel=1e-9)
