import math
import textwrap
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf, dtrtrs

import dyncal.gp as gp
from conftest import run_fresh_python
from dyncal.designs import random_lhd
from dyncal.gp import (NUGGET_CAP, NUGGET_START, SMOOTHNESS, THETA_BOUNDS, FitError,
                       MeanBank, build_gp_model, fit_gp, minimize, predict_batch, _corr,
                       _factor, _nll_log10, _NLL_BAD, _powered, _profile, _profile_nll,
                       _Workspace)
from dyncal.simulators import get_simulator
from dyncal.designs import maximin_lhd


def dense_oracle(X, y, theta, p, x_star):
    """Straight linear-algebra kriging predictor, no factorization tricks."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    n = len(y)
    R = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            R[i, j] = math.exp(-np.sum(theta * np.abs(X[i] - X[j]) ** p))
    Ri = np.linalg.inv(R)
    ones = np.ones(n)
    mu = (ones @ Ri @ y) / (ones @ Ri @ ones)
    resid = y - mu
    sigma2 = resid @ Ri @ resid / n
    r = np.array([math.exp(-np.sum(theta * np.abs(x_star - X[i]) ** p)) for i in range(n)])
    mean = mu + r @ Ri @ resid
    s2 = sigma2 * (1.0 - r @ Ri @ r)
    return mean, s2


def cross_correlations(theta, A, B):
    """Correlations between every row of A and of B, through the kernel helpers."""
    powered = _powered(A, B)
    n_a, n_b, d = powered.shape
    return _corr(powered.reshape(n_a * n_b, d), theta).reshape(n_a, n_b)


def correlation(theta, x_i, x_j):
    """Correlation between the process at two points, through the kernel helpers."""
    return float(cross_correlations(theta, np.atleast_2d(x_i), np.atleast_2d(x_j))[0, 0])


def correlation_matrix(theta, X):
    return cross_correlations(theta, X, X)


def test_correlation_zero_distance_is_one():
    theta = np.array([1.0, 3.0])
    x = np.array([0.3, 0.7])
    assert correlation(theta, x, x) == 1.0


def test_correlation_symmetric_and_value():
    assert SMOOTHNESS == 1.95
    theta = np.array([2.0])
    a, b = np.array([0.1]), np.array([0.6])
    expected = math.exp(-2.0 * 0.5 ** 1.95)
    assert correlation(theta, a, b) == pytest.approx(expected, rel=1e-14)
    assert correlation(theta, a, b) == correlation(theta, b, a)
    assert expected == pytest.approx(0.5959, abs=5e-5)


def test_correlation_zero_theta_constant():
    theta = np.zeros(3)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, y = rng.uniform(size=3), rng.uniform(size=3)
        assert correlation(theta, x, y) == 1.0


def test_corr_matches_pairwise_loop():
    rng = np.random.default_rng(3)
    A, B = rng.uniform(size=(7, 3)), rng.uniform(size=(11, 3))
    theta = np.array([0.5, 4.0, 20.0])
    got = cross_correlations(theta, A, B)
    assert got.shape == (7, 11)
    for i in range(7):
        for j in range(11):
            want = math.exp(-np.sum(theta * np.abs(A[i] - B[j]) ** 1.95))
            assert got[i, j] == pytest.approx(want, rel=1e-14)


def test_build_gp_model_rejects_negative_theta():
    X, y = np.array([[0.2], [0.9]]), np.array([1.0, 3.0])
    with pytest.raises(ValueError, match="nonnegative"):
        build_gp_model(X, y, np.array([-1.0]), 0.0)


def test_two_point_hand_oracle():
    X = np.array([[0.2], [0.9]])
    y = np.array([1.0, 3.0])
    theta = np.array([1.5])
    model = build_gp_model(X, y, theta, 0.0)
    for xs in (0.2, 0.5, 0.75, 0.9):
        (mean,), (s2,) = predict_batch(model, [xs])
        om, os2 = dense_oracle(X, y, theta, 1.95, np.array([xs]))
        assert mean == pytest.approx(om, rel=1e-10, abs=1e-12)
        assert s2 == pytest.approx(max(os2, 0.0), rel=1e-8, abs=1e-12)


def test_five_point_dense_solve_oracle():
    rng = np.random.default_rng(42)
    X = np.sort(rng.uniform(size=5)).reshape(-1, 1)
    y = np.sin(3 * X[:, 0]) + 0.5 * X[:, 0]
    theta = np.array([4.0])
    model = build_gp_model(X, y, theta, 0.0)
    for xs in rng.uniform(size=10):
        (mean,), (s2,) = predict_batch(model, [xs])
        om, os2 = dense_oracle(X, y, theta, 1.95, np.array([xs]))
        assert mean == pytest.approx(om, rel=1e-10, abs=1e-10)
        assert s2 == pytest.approx(max(os2, 0.0), rel=1e-8, abs=1e-10)


def test_fit_interpolates_easom_slice():
    sim = get_simulator("easom")
    X = maximin_lhd(15, 2, seed=3, iterations=2000)
    Y = np.vstack([sim.run(x) for x in X])
    y = Y[:, 144]  # response at the first DPS time index
    model = fit_gp(X, y)
    means, s2 = predict_batch(model, X)
    scale = np.std(y)
    assert np.all(np.abs(means - y) <= 1e-6 * scale)
    assert np.all(s2 >= 0.0)
    assert np.all(s2 <= 10.0 * model.nugget * model.sigma2_hat + 1e-30)


def test_prior_reversion_far_from_data():
    X = np.array([[0.5, 0.5]])
    X = np.vstack([X, [[0.51, 0.5]]])
    y = np.array([1.0, 1.2])
    model = build_gp_model(X, y, np.array([100.0, 100.0]), nugget=1e-10)
    (mean,), (s2,) = predict_batch(model, [0.0, 0.0])
    assert mean == pytest.approx(model.mu_hat, rel=1e-6)
    assert s2 == pytest.approx(model.sigma2_hat, rel=1e-4)


def test_constant_response_degenerate_model():
    X = random_lhd(6, 2, seed=1)
    y = np.full(6, 2.5)
    model = fit_gp(X, y)
    assert model.degenerate
    assert model.mu_hat == 2.5
    assert model.sigma2_hat == 0.0
    means, s2 = predict_batch(model, random_lhd(10, 2, seed=2))
    assert np.all(means == 2.5)
    assert np.all(s2 == 0.0)


def test_inexact_constant_response_is_degenerate_without_optimizing(monkeypatch):
    calls = []
    real = gp._profile_nll
    monkeypatch.setattr(gp, "_profile_nll", lambda *a: calls.append(1) or real(*a))
    X = random_lhd(20, 2, seed=4)
    y = np.full(20, 3.3)  # np.std(y) is 4.4e-16, not zero
    model = fit_gp(X, y)
    assert model.degenerate
    means, s2 = predict_batch(model, random_lhd(10, 2, seed=5))
    assert np.all(means == 3.3)
    assert np.all(s2 == 0.0)
    assert calls == []
    # on a real fit the counter sees every evaluation inside the box
    points = []
    real_objective = gp._nll_log10
    monkeypatch.setattr(gp, "_nll_log10",
                        lambda lt, *a: points.append(lt.copy()) or real_objective(lt, *a))
    fit_gp(X, np.sin(4 * X[:, 0]))
    lo, hi = np.log10(THETA_BOUNDS)
    in_box = sum(bool(np.all((lt >= lo) & (lt <= hi))) for lt in points)
    assert 0 < in_box < len(points)
    assert len(calls) == in_box


def test_fit_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fit_gp(np.array([[0.1]]), np.array([1.0]))
    with pytest.raises(ValueError):
        fit_gp(np.array([[0.1], [0.2]]), np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        fit_gp(np.array([[0.1], [0.2]]), np.array([1.0]))


def test_fit_error_when_nugget_cannot_save():
    # duplicated rows make R exactly singular, and a zero nugget cannot save it
    X = np.array([[0.3, 0.3], [0.3, 0.3], [0.7, 0.1]])
    y = np.array([1.0, 2.0, 3.0])
    with pytest.raises(FitError):
        build_gp_model(X, y, np.ones(2), 0.0)


def test_permutation_invariance_fixed_theta():
    rng = np.random.default_rng(5)
    X = random_lhd(8, 2, seed=5)
    y = np.sin(4 * X[:, 0]) + X[:, 1] ** 2
    theta = np.array([3.0, 1.0])
    probe = random_lhd(6, 2, seed=6)
    base = predict_batch(build_gp_model(X, y, theta, nugget=1e-9), probe)
    perm = rng.permutation(8)
    shuffled = predict_batch(build_gp_model(X[perm], y[perm], theta, nugget=1e-9), probe)
    assert np.allclose(base[0], shuffled[0], rtol=1e-9, atol=1e-12)
    assert np.allclose(base[1], shuffled[1], rtol=1e-7, atol=1e-12)


def test_multistart_dominance():
    X = random_lhd(10, 2, seed=8)
    y = np.cos(5 * X[:, 0]) * X[:, 1]
    model = fit_gp(X, y)

    y_std = (y - y.mean()) / y.std()
    ws = _Workspace(_powered(X, X), y_std)
    final = _profile_nll(model.theta, ws)
    lo, hi = np.log10(THETA_BOUNDS)
    starts = lo + (hi - lo) * random_lhd(gp.N_STARTS, 2, seed=gp.START_SEED)
    for s in starts:
        assert final <= _profile_nll(10.0 ** s, ws) + 1e-9


def test_mean_bank_matches_per_model_predictions():
    X = random_lhd(20, 3, seed=1)
    models = [fit_gp(X, np.sin((k + 2) * X[:, 0]) + k * X[:, 1]) for k in range(4)]
    models.insert(2, fit_gp(X, np.full(20, 2.5)))  # degenerate member
    assert models[2].degenerate
    bank = MeanBank(models)
    for probe in (random_lhd(7, 3, seed=2), np.array([0.3, 0.6, 0.1])):
        got = bank.means(probe)
        assert got.shape == (len(np.atleast_2d(probe)), len(models))
        for k, model in enumerate(models):
            assert np.array_equal(got[:, k], predict_batch(model, probe)[0])


def test_mean_bank_extraction_grid_peak_memory():
    # the extraction grid at n=120, d=5 with 24 models, as in a bliznyuk run
    X = random_lhd(120, 5, seed=0)
    rng = np.random.default_rng(0)
    models = [build_gp_model(X, rng.normal(size=120), 10 ** rng.uniform(-1, 1, 5),
                             nugget=1e-6) for _ in range(24)]
    grid = np.vstack([random_lhd(10_000, 5, seed=1), X])
    bank = MeanBank(models)
    tracemalloc.start()
    try:
        bank.means(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 75e6


def test_predict_batch_peak_memory():
    # a late easom-hm stage: 215 training points, the 5000-point sweep
    X = random_lhd(215, 2, seed=0)
    model = build_gp_model(X, np.sin(5 * X[:, 0]) + X[:, 1] ** 2, np.array([3.0, 8.0]),
                           nugget=1e-6)
    cands = random_lhd(5000, 2, seed=1)
    predict_batch(model, cands[:3])  # binds the LAPACK routines outside the trace
    tracemalloc.start()
    try:
        predict_batch(model, cands)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 30e6


@settings(max_examples=300, deadline=None)
@given(n_a=st.integers(1, 12), n_b=st.integers(1, 12), d=st.integers(1, 5),
       seed=st.integers(0, 2**31))
@example(n_a=1, n_b=1, d=1, seed=0)
@example(n_a=1, n_b=7, d=5, seed=1)
@example(n_a=7, n_b=1, d=3, seed=2)
def test_powered_bit_equal_to_broadcast_reference(n_a, n_b, d, seed):
    rng = np.random.default_rng(seed)
    A = rng.uniform(size=(n_a, d))
    B = rng.uniform(-0.5, 1.5, size=(n_b, d))
    B[0, :] = A[-1, :]  # a zero distance in every coordinate
    got = _powered(A, B)
    assert got.shape == (n_a, n_b, d)
    assert got.flags.c_contiguous
    assert np.array_equal(got, np.abs(A[:, None, :] - B[None, :, :]) ** 1.95)


def broadcast_predict(model, X_star):
    """BLUP mean and variance written with fresh arrays: broadcast powered
    distances, one flat matrix-vector product, and a triangular solve that
    copies r, squared into a new array."""
    powered = np.abs(model.X[:, None, :] - X_star[None, :, :]) ** SMOOTHNESS
    n, m, d = powered.shape
    if model.degenerate:
        return np.full(m, model.mu_hat), np.zeros(m)
    r = np.exp(powered.reshape(-1, d) @ -model.theta).reshape(n, m)
    means = model.y_mean + model.y_scale * (model.mu_std + r.T @ model.alpha)
    v, _ = dtrtrs(model.chol, r, lower=1)
    quad = np.sum(v * v, axis=0)
    s2 = model.y_scale ** 2 * (model.sigma2_std * np.maximum(1.0 - quad, 0.0))
    return means, s2


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("m", [1, 2, 7, 5000])
def test_predict_batch_bit_equal_to_broadcast_formulas(m, d):
    X = random_lhd(9 * d, d, seed=m)
    model = fit_gp(X, np.sin(5 * X[:, 0]) + X[:, -1] ** 2)
    X_star = random_lhd(m, d, seed=m + 1)
    X_star[0] = X[3]  # a training point, where the variance clamps at zero
    got, want = predict_batch(model, X_star), broadcast_predict(model, X_star)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_shared_sweep_bit_equal_to_per_model_predictions():
    X = random_lhd(60, 2, seed=4)
    models = [fit_gp(X, np.sin((k + 3) * X[:, 0]) + k * X[:, 1]) for k in range(3)]
    models.insert(1, fit_gp(X, np.full(60, -1.5)))  # degenerate member
    assert models[1].degenerate
    test = random_lhd(5000, 2, seed=5)
    means, s2 = MeanBank(models).predict(test)
    assert means.shape == s2.shape == (4, 5000)
    for k, model in enumerate(models):
        alone = predict_batch(model, test)
        assert np.array_equal(means[k], alone[0])
        assert np.array_equal(s2[k], alone[1])
        assert np.array_equal(s2[k], broadcast_predict(model, test)[1])
    assert not s2[1].any()


def test_mean_bank_rejects_mismatched_models():
    X1 = random_lhd(8, 2, seed=3)
    X2 = random_lhd(8, 2, seed=4)
    m1 = fit_gp(X1, X1[:, 0] ** 2)
    m2 = fit_gp(X2, X2[:, 1])
    with pytest.raises(ValueError):
        MeanBank([m1, m2])
    with pytest.raises(ValueError):
        MeanBank([])


def test_build_at_fitted_spec_reproduces_predictions():
    X = random_lhd(9, 3, seed=9)
    y = X @ np.array([1.0, -2.0, 0.5]) + np.sin(6 * X[:, 0])
    model = fit_gp(X, y)
    clone = build_gp_model(X, y, model.theta.copy(), model.nugget)
    probe = random_lhd(7, 3, seed=10)
    m0, s0 = predict_batch(model, probe)
    m1, s1 = predict_batch(clone, probe)
    assert np.array_equal(m0, m1)
    assert np.array_equal(s0, s1)
    assert clone.nugget == model.nugget


def dense_profile(R, y):
    """Profile estimates and n log s2 + log|R| by an explicit inverse."""
    n = len(y)
    Ri = np.linalg.inv(R)
    ones = np.ones(n)
    mu = (ones @ Ri @ y) / (ones @ Ri @ ones)
    sigma2 = (y - mu) @ Ri @ (y - mu) / n
    sign, logdet = np.linalg.slogdet(R)
    assert sign > 0
    return mu, sigma2, logdet, n * np.log(sigma2) + logdet


@pytest.mark.parametrize("n,d", [(8, 1), (30, 2), (60, 5)])
def test_profile_matches_dense_inverse_oracle(n, d):
    X = random_lhd(n, d, seed=n)
    y = np.sin(4 * X[:, 0]) + X[:, -1] ** 2
    y_std = (y - y.mean()) / y.std()
    theta = np.full(d, 10.0)
    R = correlation_matrix(theta, X)
    want_mu, want_s2, want_logdet, want_nll = dense_profile(
        R + NUGGET_START * np.eye(n), y_std)

    ws = _Workspace(_powered(X, X), y_std)
    L, nugget = _factor(ws, theta, NUGGET_START, NUGGET_CAP)
    assert nugget == NUGGET_START
    mu, sigma2, logdet, _ = _profile(L, ws.rhs)
    assert mu == pytest.approx(want_mu, rel=1e-10)
    assert sigma2 == pytest.approx(want_s2, rel=1e-10)
    assert logdet == pytest.approx(want_logdet, rel=1e-10)
    nll = _profile_nll(theta, ws)
    assert nll == pytest.approx(want_nll, rel=1e-10)


def _escalate_reference(R, start, cap):
    """The nugget escalation rule written with numpy's Cholesky."""
    nugget = start
    while True:
        try:
            np.linalg.cholesky(R + nugget * np.eye(len(R)))
            return nugget
        except np.linalg.LinAlgError:
            if nugget >= cap:
                return None
            nugget = min(nugget * 10.0, cap)


def _near_duplicate_design():
    # three points repeated 1e-9 away: their correlations round to exactly 1,
    # so R + nugget*I stays singular until 1 + nugget differs from 1
    X = random_lhd(8, 2, seed=0)
    return np.vstack([X, X[:3] + 1e-9])


def test_factor_escalates_nugget_on_near_duplicate_design():
    X = _near_duplicate_design()
    theta = np.ones(2)
    R = correlation_matrix(theta, X)
    start, cap = 1e-20, 1e-4
    ws = _Workspace(_powered(X, X), np.zeros(len(X)))

    want = _escalate_reference(R, start, cap)
    assert want is not None and want > start
    L, nugget = _factor(ws, theta, start, cap)
    assert nugget == want
    assert np.allclose(L @ L.T, R + nugget * np.eye(len(R)), rtol=0, atol=1e-14)

    low_cap = want / 100.0
    assert _escalate_reference(R, start, low_cap) is None
    L, nugget = _factor(ws, theta, start, low_cap)
    assert L is None and nugget == low_cap


def test_build_alpha_solves_nugget_system():
    X = random_lhd(30, 2, seed=4)
    y = np.cos(3 * X[:, 0]) * X[:, 1] + X[:, 0]
    theta = np.array([3.0, 5.0])
    nugget = 1e-8
    model = build_gp_model(X, y, theta, nugget)
    y_std = (y - model.y_mean) / model.y_scale
    A = correlation_matrix(theta, X) + nugget * np.eye(len(y))
    rhs = y_std - model.mu_std
    assert np.linalg.norm(A @ model.alpha - rhs) <= 1e-10 * np.linalg.norm(rhs)


def _reference_nll_log10(log_theta, powered, y_std):
    """The fitting objective written out with fresh arrays for every evaluation:
    a new R, a cleaned potrf factor, a new [y, 1] right-hand side. The box
    and the nugget rule are read from dyncal.gp at the call, as the objective
    reads them."""
    lo, hi = np.log10(THETA_BOUNDS)
    if np.any(log_theta < lo) or np.any(log_theta > hi):
        return _NLL_BAD
    theta = 10.0 ** log_theta
    n, _, d = powered.shape
    R = np.exp(-(powered.reshape(-1, d) @ theta)).reshape(n, n)
    base = R.diagonal().copy()
    nugget = gp.NUGGET_START
    while True:
        R.flat[::n + 1] = base + nugget
        L, info = dpotrf(R, lower=1)
        if info == 0:
            break
        if nugget >= gp.NUGGET_CAP:
            return _NLL_BAD
        nugget = min(nugget * 10.0, gp.NUGGET_CAP)
    rhs = np.empty((n, 2), order="F")
    rhs[:, 0] = y_std
    rhs[:, 1] = 1.0
    ab, _ = dtrtrs(L, rhs, lower=1)
    a, b = ab[:, 0], ab[:, 1]
    mu = (b @ a) / (b @ b)
    w = a - mu * b
    sigma2 = (w @ w) / n
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    if not sigma2 > 0:
        return _NLL_BAD
    return n * np.log(sigma2) + logdet


def _box_points(d, seed):
    """log10 theta at 12 random points of the fitting box, its two corners on
    the diagonal, then two points just outside it."""
    lo, hi = np.log10(THETA_BOUNDS)
    points = list(lo + (hi - lo) * np.random.default_rng(seed).uniform(size=(12, d)))
    return points + [np.full(d, v) for v in (lo, hi, lo - 1e-9, hi + 0.5)]


def _objective_cases(X):
    """(objective, reference) at every box point, all on one workspace."""
    y = np.sin(4 * X[:, 0]) + X[:, -1] ** 2
    y_std = (y - y.mean()) / y.std()
    powered = _powered(X, X)
    ws = _Workspace(powered, y_std)
    lo, hi = np.log10(THETA_BOUNDS)
    return [(_nll_log10(lt, ws, float(lo), float(hi)),
             _reference_nll_log10(lt, powered, y_std))
            for lt in _box_points(X.shape[1], len(X))]


def _set_nugget_rule(monkeypatch, start, cap=NUGGET_CAP):
    """Patch the nugget escalation's start and cap, so that the objective and
    the fit escalate on designs that the fixed 1e-8 start would factor at once."""
    monkeypatch.setattr(gp, "NUGGET_START", start)
    monkeypatch.setattr(gp, "NUGGET_CAP", cap)


@pytest.mark.parametrize("n,d", [(8, 1), (30, 2), (60, 5)])
def test_objective_bit_equal_to_fresh_array_reference(n, d):
    cases = _objective_cases(random_lhd(n, d, seed=n))
    assert all(got == want for got, want in cases)
    assert [want for _, want in cases[-2:]] == [_NLL_BAD, _NLL_BAD]  # outside the box
    assert all(want != _NLL_BAD for _, want in cases[:-2])


def test_objective_bit_equal_to_reference_when_nugget_escalates(monkeypatch):
    X = _near_duplicate_design()
    _set_nugget_rule(monkeypatch, 1e-20)
    cases = _objective_cases(X)
    assert all(got == want for got, want in cases)
    # the nugget escalates at some of the points, and a low cap makes those fail
    ws = _Workspace(_powered(X, X), np.zeros(len(X)))
    nuggets = [_factor(ws, 10.0 ** lt, 1e-20, NUGGET_CAP)[1]
               for lt in _box_points(2, len(X))[:-2]]
    assert any(v > 1e-20 for v in nuggets)
    assert any(v == 1e-20 for v in nuggets)
    _set_nugget_rule(monkeypatch, 1e-20, 1e-18)
    cases = _objective_cases(X)
    assert all(got == want for got, want in cases)
    assert any(want == _NLL_BAD for _, want in cases[:-2])


def test_objective_bit_equal_to_reference_over_many_escalation_steps(monkeypatch):
    # powered distances (d = 1) whose correlations at theta = 1 form a 3 x 3
    # matrix with smallest eigenvalue -3.8e-11: potrf needs a nugget of 1e-10
    a = 0.9
    b = 2 * a * a - 1 - 1e-10  # [[1, a, b], [a, 1, a], [b, a, 1]] is singular at 2a^2 - 1
    powered = -np.log(np.array([[1, a, b], [a, 1, a], [b, a, 1]]))[:, :, None]
    y_std = np.array([0.3, -1.0, 0.7])
    _set_nugget_rule(monkeypatch, 1e-16, 1e-6)
    ws = _Workspace(powered, y_std)
    assert _factor(ws, np.ones(1), 1e-16, 1e-6)[1] > 1e-11
    lo, hi = np.log10(THETA_BOUNDS)
    for lt in (0.0, -1e-3, 1e-3):  # escalates 6 times; fails at the cap; no escalation
        lt = np.array([lt])
        want = _reference_nll_log10(lt, powered, y_std)
        assert _nll_log10(lt, ws, float(lo), float(hi)) == want
        assert (want == _NLL_BAD) == (lt[0] < 0)


def _reference_model_parts(X, y, theta, start, cap):
    """(nugget, chol, alpha, mu_std, sigma2_std) written with fresh arrays:
    R = exp(-(powered @ theta)) in C order, the nugget added to a copy of its
    diagonal, a copying and cleaning potrf, keyword f2py arguments."""
    n, d = X.shape
    y_std = (y - np.mean(y)) / np.std(y)
    R = np.exp(-(_powered(X, X).reshape(-1, d) @ theta)).reshape(n, n)
    base = R.diagonal().copy()
    nugget = start
    while True:
        R.flat[::n + 1] = base + nugget
        L, info = dpotrf(R, lower=1, clean=1)
        if info == 0:
            break
        assert nugget < cap
        nugget = min(nugget * 10.0, cap)
    rhs = np.empty((n, 2), order="F")
    rhs[:, 0] = y_std
    rhs[:, 1] = 1.0
    ab, _ = dtrtrs(L, rhs, lower=1)
    a, b = ab[:, 0], ab[:, 1]
    mu = (b @ a) / (b @ b)
    w = a - mu * b
    alpha, _ = dtrtrs(L, w, lower=1, trans=1)
    return nugget, L, alpha, mu, (w @ w) / n


def test_fit_bit_equal_to_reference_with_a_duplicated_row(monkeypatch):
    # exactly repeated training rows make R singular until 1 + nugget > 1,
    # so the nugget escalates from 1e-20 both in the fit and in its objective
    X = random_lhd(14, 2, seed=0)
    X = np.vstack([X, X[[0, 3]]])
    y = np.sin(5 * X[:, 0]) + X[:, 1]
    _set_nugget_rule(monkeypatch, 1e-20)
    cases = _objective_cases(X)
    assert all(got == want for got, want in cases)
    assert all(want != _NLL_BAD for _, want in cases[:-2])

    model = fit_gp(X, y)
    nugget, L, alpha, mu_std, sigma2_std = _reference_model_parts(
        X, y, model.theta, 1e-20, NUGGET_CAP)
    assert nugget > 1e-20
    assert model.nugget == nugget
    assert np.array_equal(model.chol, L)
    assert np.array_equal(model.alpha, alpha)
    assert (model.mu_std, model.sigma2_std) == (mu_std, sigma2_std)
    x_star = random_lhd(50, 2, seed=8)
    means, _ = predict_batch(model, x_star)
    r = np.exp(-(_powered(X, x_star).reshape(-1, 2) @ model.theta))
    r = r.reshape(len(X), -1)
    assert np.array_equal(means, model.y_mean + model.y_scale * (mu_std + r.T @ alpha))


def _quadratic(x, center):
    return float(np.sum(np.arange(1, len(x) + 1) * (x - center) ** 2))


def _bumpy(x, center):
    return float(np.sum(np.sin(9.0 * (x - center)) + (x - center) ** 2))


def _boxed(x, center):
    """`_polish`'s penalty: a constant plateau outside the unit box."""
    if np.any(x < 0.0) or np.any(x > 1.0):
        return 1e30
    return _bumpy(x, center)


@given(d=st.integers(1, 5), seed=st.integers(0, 2**31), zero_mask=st.integers(0, 31),
       objective=st.sampled_from(["quadratic", "bumpy", "boxed", "nll"]),
       polish=st.booleans(), maxfev=st.one_of(st.integers(1, 60), st.just(500)))
@example(d=2, seed=0, zero_mask=0, objective="nll", polish=False, maxfev=500)
@example(d=3, seed=1, zero_mask=5, objective="boxed", polish=True, maxfev=0)
@settings(max_examples=200, deadline=None)
def test_nelder_mead_bit_equal_to_scipy(d, seed, zero_mask, objective, polish, maxfev):
    """fun, x and nfev equal scipy's Nelder-Mead bit for bit, also when the
    budget runs out mid-step and when vertex values tie (plateaus)."""
    rng = np.random.default_rng(seed)
    if objective == "nll":  # the fitting objective, starts inside and outside its box
        n = int(rng.integers(8, 41))
        X = random_lhd(n, d, rng)
        y = np.sin(X @ rng.normal(size=d) * 3.0) + 0.1 * rng.normal(size=n)
        ws = _Workspace(_powered(X, X), (y - y.mean()) / y.std())
        fun, args = _nll_log10, (ws, -2.0, 2.0)
        x0 = rng.uniform(-2.5, 2.5, d)
    else:
        fun, args = {"quadratic": _quadratic, "bumpy": _bumpy, "boxed": _boxed}[objective], \
            (rng.uniform(0.0, 1.0, d),)
        x0 = rng.uniform(-0.2, 1.2, d)
    x0[[k for k in range(d) if zero_mask >> k & 1]] = 0.0
    xatol, fatol = (1e-10, 0.0) if polish else (1e-3, 1e-8)
    want = scipy.optimize.minimize(fun, x0, args=args, method="Nelder-Mead",
                                   options={"maxfev": maxfev, "xatol": xatol,
                                            "fatol": fatol})
    got = minimize(fun, x0, args=args, maxfev=maxfev, xatol=xatol, fatol=fatol)
    assert got.nfev == want.nfev
    assert np.array_equal(got.x, want.x)
    assert got.fun == want.fun


def test_first_fit_binds_scipy_routines():
    """Importing dyncal loads no scipy. The first fit binds scipy's own LAPACK
    routines to dyncal.gp, so later likelihood evaluations call them with no
    wrapper in between, and the first EI sweep loads scipy.special."""
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from dyncal import acquisition, gp
        assert not any(m.split(".")[0] == "scipy" for m in sys.modules)
        X = np.random.default_rng(0).uniform(size=(8, 2))
        gp.fit_gp(X, np.sin(3.0 * X[:, 0]) + X[:, 1])
        assert "scipy.special" not in sys.modules
        target = acquisition.ContourTarget(0.0, 0.67)
        acquisition.expected_improvement([0.1, 0.4], [0.2, 0.3], target)
        import scipy.linalg.lapack
        print(gp.dpotrf is scipy.linalg.lapack.dpotrf, gp.dtrtrs is scipy.linalg.lapack.dtrtrs,
              "scipy.special" in sys.modules)
    """)
    assert run_fresh_python(code).split() == ["True", "True", "True"]
