import json
import math

import numpy as np
import pytest

from dyncal.designs import random_lhd
from dyncal.gp import (CorrelationSpec, FitConfig, FitError, build_gp_model,
                       correlation, correlation_matrix, fit_gp, model_from_dict,
                       model_to_dict, predict, predict_batch, _factor, _profile,
                       _profile_nll, _pairwise_powered)
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


def fixed_theta_model(X, y, theta, p=1.95, nugget=0.0):
    """Build a model at fixed correlation parameters, skipping optimization."""
    return model_from_dict({
        "theta": list(np.atleast_1d(theta)), "p": p, "mu_hat": 0.0,
        "sigma2_hat": 0.0, "nugget": nugget,
        "X": np.atleast_2d(X).tolist(), "y": list(y),
    })


def test_correlation_zero_distance_is_one():
    spec = CorrelationSpec(theta=np.array([1.0, 3.0]))
    x = np.array([0.3, 0.7])
    assert correlation(spec, x, x) == 1.0


def test_correlation_symmetric_and_value():
    spec = CorrelationSpec(theta=np.array([2.0]), p=1.95)
    a, b = np.array([0.1]), np.array([0.6])
    expected = math.exp(-2.0 * 0.5 ** 1.95)
    assert correlation(spec, a, b) == pytest.approx(expected, rel=1e-14)
    assert correlation(spec, a, b) == correlation(spec, b, a)
    assert expected == pytest.approx(0.5959, abs=5e-5)


def test_correlation_zero_theta_constant():
    spec = CorrelationSpec(theta=np.zeros(3))
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, y = rng.uniform(size=3), rng.uniform(size=3)
        assert correlation(spec, x, y) == 1.0


def test_correlation_spec_validation():
    with pytest.raises(ValueError):
        CorrelationSpec(theta=np.array([-1.0]))
    with pytest.raises(ValueError):
        CorrelationSpec(theta=np.array([1.0]), p=2.5)


def test_two_point_hand_oracle():
    X = np.array([[0.2], [0.9]])
    y = np.array([1.0, 3.0])
    theta = np.array([1.5])
    model = fixed_theta_model(X, y, theta)
    for xs in (0.2, 0.5, 0.75, 0.9):
        mean, s2 = predict(model, [xs])
        om, os2 = dense_oracle(X, y, theta, 1.95, np.array([xs]))
        assert mean == pytest.approx(om, rel=1e-10, abs=1e-12)
        assert s2 == pytest.approx(max(os2, 0.0), rel=1e-8, abs=1e-12)


def test_five_point_dense_solve_oracle():
    rng = np.random.default_rng(42)
    X = np.sort(rng.uniform(size=5)).reshape(-1, 1)
    y = np.sin(3 * X[:, 0]) + 0.5 * X[:, 0]
    theta = np.array([4.0])
    model = fixed_theta_model(X, y, theta)
    for xs in rng.uniform(size=10):
        mean, s2 = predict(model, [xs])
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
    model = fixed_theta_model(X, y, np.array([100.0, 100.0]), nugget=1e-10)
    mean, s2 = predict(model, [0.0, 0.0])
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


def test_fit_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fit_gp(np.array([[0.1]]), np.array([1.0]))
    with pytest.raises(ValueError):
        fit_gp(np.array([[0.1], [0.2]]), np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        fit_gp(np.array([[0.1], [0.2]]), np.array([1.0]))


def test_fit_error_when_nugget_cannot_save():
    # duplicated rows make R exactly singular; a zero nugget cap forces failure
    X = np.array([[0.3, 0.3], [0.3, 0.3], [0.7, 0.1]])
    y = np.array([1.0, 2.0, 3.0])
    cfg = FitConfig(nugget_start=0.0, nugget_cap=0.0)
    with pytest.raises(FitError):
        fit_gp(X, y, cfg)


def test_permutation_invariance_fixed_theta():
    rng = np.random.default_rng(5)
    X = random_lhd(8, 2, seed=5)
    y = np.sin(4 * X[:, 0]) + X[:, 1] ** 2
    theta = np.array([3.0, 1.0])
    probe = random_lhd(6, 2, seed=6)
    base = predict_batch(fixed_theta_model(X, y, theta, nugget=1e-9), probe)
    perm = rng.permutation(8)
    shuffled = predict_batch(fixed_theta_model(X[perm], y[perm], theta, nugget=1e-9), probe)
    assert np.allclose(base[0], shuffled[0], rtol=1e-9, atol=1e-12)
    assert np.allclose(base[1], shuffled[1], rtol=1e-7, atol=1e-12)


def test_multistart_dominance():
    X = random_lhd(10, 2, seed=8)
    y = np.cos(5 * X[:, 0]) * X[:, 1]
    cfg = FitConfig()
    model = fit_gp(X, y, cfg)

    y_std = (y - y.mean()) / y.std()
    powered = _pairwise_powered(X, cfg.p)
    final = _profile_nll(model.spec.theta, powered, y_std, cfg)
    lo, hi = np.log10(cfg.theta_bounds[0]), np.log10(cfg.theta_bounds[1])
    starts = lo + (hi - lo) * random_lhd(cfg.n_starts, 2, seed=cfg.seed)
    for s in starts:
        assert final <= _profile_nll(10.0 ** s, powered, y_std, cfg) + 1e-9


def test_mean_bank_matches_per_model_predictions():
    from dyncal.gp import MeanBank
    X = random_lhd(20, 3, seed=1)
    models = [fit_gp(X, np.sin((k + 2) * X[:, 0]) + k * X[:, 1]) for k in range(4)]
    models.append(fit_gp(X, np.full(20, 3.3)))  # degenerate member
    bank = MeanBank(models)
    probe = random_lhd(7, 3, seed=2)
    got_m, got_s2 = bank.means_and_vars(probe)
    want_m = np.stack([predict_batch(m, probe)[0] for m in models], axis=1)
    want_s2 = np.stack([predict_batch(m, probe)[1] for m in models], axis=1)
    assert np.allclose(got_m, want_m, rtol=1e-12, atol=1e-12)
    assert np.allclose(got_s2, want_s2, rtol=1e-10, atol=1e-14)
    assert np.allclose(bank.means(probe), want_m, rtol=1e-12, atol=1e-12)


def test_mean_bank_rejects_mismatched_models():
    from dyncal.gp import MeanBank
    X1 = random_lhd(8, 2, seed=3)
    X2 = random_lhd(8, 2, seed=4)
    m1 = fit_gp(X1, X1[:, 0] ** 2)
    m2 = fit_gp(X2, X2[:, 1])
    with pytest.raises(ValueError):
        MeanBank([m1, m2])
    with pytest.raises(ValueError):
        MeanBank([])


def test_serialization_round_trip(tmp_path):
    X = random_lhd(9, 3, seed=9)
    y = X @ np.array([1.0, -2.0, 0.5]) + np.sin(6 * X[:, 0])
    model = fit_gp(X, y)
    payload = json.loads(json.dumps(model_to_dict(model)))
    clone = model_from_dict(payload)
    probe = random_lhd(7, 3, seed=10)
    m0, s0 = predict_batch(model, probe)
    m1, s1 = predict_batch(clone, probe)
    assert np.allclose(m0, m1, rtol=1e-12, atol=1e-14)
    assert np.allclose(s0, s1, rtol=1e-10, atol=1e-14)
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
    cfg = FitConfig()
    X = random_lhd(n, d, seed=n)
    y = np.sin(4 * X[:, 0]) + X[:, -1] ** 2
    y_std = (y - y.mean()) / y.std()
    theta = np.full(d, 10.0)
    R = correlation_matrix(CorrelationSpec(theta, cfg.p), X)
    want_mu, want_s2, want_logdet, want_nll = dense_profile(
        R + cfg.nugget_start * np.eye(n), y_std)

    L, nugget = _factor(R.copy(), cfg.nugget_start, cfg.nugget_cap)
    assert nugget == cfg.nugget_start
    mu, sigma2, logdet, _ = _profile(L, y_std)
    assert mu == pytest.approx(want_mu, rel=1e-10)
    assert sigma2 == pytest.approx(want_s2, rel=1e-10)
    assert logdet == pytest.approx(want_logdet, rel=1e-10)
    nll = _profile_nll(theta, _pairwise_powered(X, cfg.p), y_std, cfg)
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


def test_factor_escalates_nugget_on_near_duplicate_design():
    # three points repeated 1e-9 away: their correlations round to exactly 1,
    # so R + nugget*I stays singular until 1 + nugget differs from 1
    X = random_lhd(8, 2, seed=0)
    X = np.vstack([X, X[:3] + 1e-9])
    R = correlation_matrix(CorrelationSpec(np.ones(2)), X)
    start, cap = 1e-20, 1e-4

    want = _escalate_reference(R, start, cap)
    assert want is not None and want > start
    L, nugget = _factor(R.copy(), start, cap)
    assert nugget == want
    assert np.allclose(L @ L.T, R + nugget * np.eye(len(R)), rtol=0, atol=1e-14)

    low_cap = want / 100.0
    assert _escalate_reference(R, start, low_cap) is None
    L, nugget = _factor(R.copy(), start, low_cap)
    assert L is None and nugget == low_cap


def test_build_alpha_solves_nugget_system():
    X = random_lhd(30, 2, seed=4)
    y = np.cos(3 * X[:, 0]) * X[:, 1] + X[:, 0]
    spec = CorrelationSpec(np.array([3.0, 5.0]))
    nugget = 1e-8
    model = build_gp_model(X, y, spec, nugget)
    y_std = (y - model.y_mean) / model.y_scale
    A = correlation_matrix(spec, X) + nugget * np.eye(len(y))
    rhs = y_std - model.mu_std
    assert np.linalg.norm(A @ model.alpha - rhs) <= 1e-10 * np.linalg.norm(rhs)
