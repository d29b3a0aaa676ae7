import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncal.acquisition import ContourTarget, expected_improvement, implausibility_max


def improvement(y: float, pred_sd: float, target: ContourTarget) -> float:
    """Realized improvement of a response draw y inside the band eps = alpha*s,
    the quantity whose expectation `expected_improvement` gives."""
    if pred_sd < 0:
        raise ValueError("predictive sd must be nonnegative")
    eps2 = (target.alpha * pred_sd) ** 2
    return eps2 - min((y - target.a) ** 2, eps2)


def mc_expected_improvement(pred_mean, pred_sd, target, n_draws, seed):
    """Monte Carlo estimate of E[I] and its standard error."""
    rng = np.random.default_rng(seed)
    draws = rng.normal(pred_mean, pred_sd, size=n_draws)
    eps2 = (target.alpha * pred_sd) ** 2
    imp = eps2 - np.minimum((draws - target.a) ** 2, eps2)
    return float(np.mean(imp)), float(np.std(imp) / np.sqrt(n_draws))


def test_improvement_exact_hit():
    target = ContourTarget(a=1.0, alpha=0.67)
    eps2 = (0.67 * 2.0) ** 2
    assert improvement(1.0, 2.0, target) == pytest.approx(eps2)


def test_improvement_outside_band_is_zero():
    target = ContourTarget(a=0.0, alpha=0.67)
    eps = 0.67 * 1.5
    assert improvement(eps, 1.5, target) == 0.0
    assert improvement(10.0, 1.5, target) == 0.0


def test_improvement_half_band():
    target = ContourTarget(a=0.0, alpha=1.0)
    eps = 1.0 * 2.0
    got = improvement(eps / 2, 2.0, target)
    assert got == pytest.approx(0.75 * eps ** 2)


def test_improvement_rejects_negative_sd():
    with pytest.raises(ValueError):
        improvement(0.0, -1.0, ContourTarget(a=0.0, alpha=0.67))


def test_contour_target_validation():
    with pytest.raises(ValueError):
        ContourTarget(a=0.0, alpha=0.0)


def test_ei_zero_sd():
    target = ContourTarget(a=3.0, alpha=0.67)
    assert expected_improvement(5.0, 0.0, target) == 0.0
    assert expected_improvement(3.0, 0.0, target) == 0.0


def test_ei_matches_monte_carlo_at_center():
    target = ContourTarget(a=0.0, alpha=0.67)
    analytic = expected_improvement(0.0, 1.0, target)
    mc, se = mc_expected_improvement(0.0, 1.0, target, 10_000_000, seed=0)
    assert abs(analytic - mc) <= 3 * se


@pytest.mark.parametrize("case", range(6))
def test_ei_matches_monte_carlo_spot_checks(case):
    # deep-tail tuples can have a band probability below 1/n_draws, where the
    # MC oracle resolves nothing; allow the corresponding sliver of eps^2
    n_draws = 2_000_000
    rng = np.random.default_rng(100 + case)
    yhat = rng.uniform(-5, 5)
    a = yhat + rng.uniform(-3, 3)
    s = rng.uniform(0.05, 4.0)
    alpha = rng.uniform(0.3, 2.0)
    target = ContourTarget(a=a, alpha=alpha)
    analytic = expected_improvement(yhat, s, target)
    mc, se = mc_expected_improvement(yhat, s, target, n_draws, seed=case)
    assert abs(analytic - mc) <= 3 * se + (10.0 / n_draws) * (alpha * s) ** 2


def test_ei_numerically_stable_in_far_tail():
    target = ContourTarget(a=0.0, alpha=0.67)
    for u in (20.0, 40.0, 80.0):
        val = expected_improvement(u * 1.0, 1.0, target)
        assert np.isfinite(val)
        assert val >= 0.0
    assert expected_improvement(40.0, 1.0, target) == 0.0


def test_ei_decays_to_zero_with_distance():
    target = ContourTarget(a=0.0, alpha=0.67)
    vals = [expected_improvement(m, 1.0, target) for m in (0.0, 1.0, 2.0, 5.0, 10.0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-20


@given(yhat=st.floats(-10, 10), s=st.floats(0.01, 10), a=st.floats(-10, 10),
       alpha=st.floats(0.1, 3.0))
@settings(max_examples=150, deadline=None)
def test_ei_scaling_invariance(yhat, s, a, alpha):
    # deep in the tail the closed form loses digits to cancellation while the
    # value itself underflows far past relevance; below 1e-30 * eps^2 only
    # agreement in magnitude matters
    left = expected_improvement(yhat, s, ContourTarget(a=a, alpha=alpha))
    right = s ** 2 * expected_improvement((yhat - a) / s, 1.0,
                                          ContourTarget(a=0.0, alpha=alpha))
    assert left == pytest.approx(right, rel=1e-9, abs=1e-30 * (alpha * s) ** 2)


def test_ei_vectorized_matches_scalar():
    target = ContourTarget(a=0.5, alpha=0.67)
    means = np.array([0.0, 0.5, 1.2, 3.0])
    sds = np.array([1.0, 0.0, 0.3, 2.0])
    vec = expected_improvement(means, sds, target)
    for i in range(4):
        assert vec[i] == expected_improvement(float(means[i]), float(sds[i]), target)


def implausibility(mean, sd, target):
    """The implausibility of one candidate at one DPS index."""
    return float(implausibility_max([[mean]], [[sd]], [target])[0])


def test_implausibility_basic():
    assert implausibility(2.0, 1.5, 2.0) == 0.0
    assert implausibility(3.0, 0.5, 2.0) == pytest.approx(2.0)


def test_implausibility_sd_floor():
    assert implausibility(2.0, 0.0, 2.0) == 0.0
    assert implausibility(3.0, 0.0, 2.0) == np.inf
    assert implausibility(3.0, 1e-13, 2.0) == np.inf


@given(mean=st.floats(-100, 100), sd=st.floats(1e-6, 100),
       target=st.floats(-100, 100), c=st.floats(0.01, 1000))
@settings(max_examples=100, deadline=None)
def test_implausibility_scale_equivariance(mean, sd, target, c):
    base = implausibility(mean, sd, target)
    scaled = implausibility(c * mean, c * sd, c * target)
    assert scaled == pytest.approx(base, rel=1e-9, abs=1e-9)


def test_implausibility_max_cases():
    assert implausibility_max([[2.0]], [[1.0]], [1.0]).tolist() == [1.0]
    means = np.array([[1.3], [4.1], [2.9]])  # (k=3, m=1)
    sds = np.ones((3, 1))
    targets = np.array([1.0, 2.0, 2.0])
    assert implausibility_max(means, sds, targets) == pytest.approx([2.1])
    assert implausibility_max(targets[:, None], sds, targets).tolist() == [0.0]


def test_implausibility_max_batched():
    means = np.array([[1.0, 2.0], [3.0, 3.0]])  # (k=2, m=2)
    sds = np.ones((2, 2))
    targets = np.array([1.0, 3.0])
    out = implausibility_max(means, sds, targets)
    assert out.shape == (2,)
    assert out[0] == 0.0
    assert out[1] == 1.0


def test_implausibility_max_mixes_the_sd_floor_with_ordinary_ratios():
    """Below the sd floor an exact match counts 0 and a miss inf; above it the
    ratio counts, and the max over the DPS takes whichever is largest."""
    means = np.array([[2.0, 2.5, 5.0], [1.0, 3.0, 1.0]])  # (k=2, m=3)
    sds = np.array([[0.0, 1e-13, 2.0], [0.5, 1.0, 0.0]])
    targets = np.array([2.0, 1.0])
    out = implausibility_max(means, sds, targets)
    assert out.tolist() == [0.0, np.inf, 1.5]
