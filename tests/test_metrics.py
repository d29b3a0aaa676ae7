import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncal.metrics import ConstantTargetError, evaluate_all, norm_d, r_squared, rmse


def test_rmse_identical_series():
    a = np.array([1.0, 2.0, 3.0])
    assert rmse(a, a) == 0.0


def test_rmse_constant_offset():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    assert rmse(a + 2.5, a) == pytest.approx(2.5)
    assert rmse(a - 2.5, a) == pytest.approx(2.5)


def test_rmse_hand_example():
    assert rmse([1.0, 2.0], [2.0, 4.0]) == pytest.approx(math.sqrt(2.5))


def test_rmse_length_mismatch():
    with pytest.raises(ValueError):
        rmse([1.0, 2.0], [1.0])


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
       st.floats(-1e6, 1e6))
@settings(max_examples=60, deadline=None)
def test_rmse_symmetric_and_shift_invariant(values, shift):
    a = np.asarray(values)
    b = np.sin(a) + 1.0
    assert rmse(a, b) == pytest.approx(rmse(b, a), rel=1e-12, abs=1e-12)
    assert rmse(a + shift, b + shift) == pytest.approx(rmse(a, b), rel=1e-6, abs=1e-6)


def test_r_squared_perfect_linear_relation():
    g_hat = np.linspace(0, 1, 20)
    g0 = 3.0 * g_hat + 1.0
    assert r_squared(g_hat, g0) == pytest.approx(1.0)


def test_r_squared_zero_correlation():
    g_hat = np.array([1.0, -1.0, 1.0, -1.0])
    g0 = np.array([1.0, 1.0, -1.0, -1.0])
    assert r_squared(g_hat, g0) == pytest.approx(0.0, abs=1e-15)


def test_r_squared_matches_correlation_oracle():
    rng = np.random.default_rng(4)
    g_hat = rng.normal(size=10)
    g0 = rng.normal(size=10)
    corr = np.corrcoef(g_hat, g0)[0, 1]
    assert r_squared(g_hat, g0) == pytest.approx(corr ** 2, rel=1e-12)


def test_r_squared_affine_invariant_in_predictor():
    rng = np.random.default_rng(5)
    g_hat = rng.normal(size=15)
    g0 = rng.normal(size=15)
    base = r_squared(g_hat, g0)
    assert r_squared(-2.0 * g_hat + 7.0, g0) == pytest.approx(base, rel=1e-10)


def test_r_squared_constant_predictor_undefined():
    assert r_squared(np.ones(5), np.arange(5.0)) is None


def test_r_squared_needs_three_points():
    with pytest.raises(ValueError):
        r_squared([1.0, 2.0], [1.0, 2.0])


def test_norm_d_constant_mean_predictor():
    g0 = np.array([1.0, 2.0, 3.0, 6.0])
    g_hat = np.full(4, g0.mean())
    nd = norm_d(g_hat, g0)
    assert nd.ratio == pytest.approx(1.0)
    assert nd.log == pytest.approx(0.0)
    assert evaluate_all(g_hat, g0)["nse"] == pytest.approx(0.0)


def test_norm_d_perfect_match_flagged():
    g0 = np.array([1.0, 2.0, 3.0])
    nd = norm_d(g0, g0)
    assert nd.ratio == 0.0
    assert nd.log == -math.inf
    assert nd.perfect
    assert evaluate_all(g0, g0)["nse"] == 1.0


def test_norm_d_matches_direct_arithmetic():
    rng = np.random.default_rng(6)
    g0 = rng.normal(size=12)
    g_hat = g0 + rng.normal(scale=0.1, size=12)
    nd = norm_d(g_hat, g0)
    want = np.sum((g0 - g_hat) ** 2) / np.sum((g0 - g0.mean()) ** 2)
    assert nd.ratio == pytest.approx(want, rel=1e-12)
    assert nd.log == pytest.approx(math.log(want), rel=1e-12)


def test_norm_d_constant_target_error():
    with pytest.raises(ConstantTargetError):
        norm_d(np.arange(4.0), np.ones(4))


def test_nse_identity_with_norm_d():
    rng = np.random.default_rng(7)
    g0 = rng.normal(size=25)
    g_hat = g0 + rng.normal(scale=0.3, size=25)
    nd = norm_d(g_hat, g0)
    assert evaluate_all(g_hat, g0)["nse"] == pytest.approx(1.0 - math.exp(nd.log), rel=1e-12)


def test_evaluate_all_payload():
    rng = np.random.default_rng(8)
    g0 = rng.normal(size=10)
    g_hat = g0 + 0.01
    payload = evaluate_all(g_hat, g0)
    assert set(payload) == {"rmse", "r2", "normd_ratio", "normd_log", "nse"}
    assert payload["rmse"] == pytest.approx(0.01)
    assert payload["nse"] == pytest.approx(1.0 - payload["normd_ratio"])
