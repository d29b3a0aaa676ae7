"""Acquisition criteria: contour expected improvement and implausibility.

The contour EI rewards predicted proximity to a target level a inside an
uncertainty band eps = alpha * s. Its closed form follows from integrating
the improvement I = eps^2 - min{(y-a)^2, eps^2} against a Normal(yhat, s^2)
predictive; the printed middle term in some references disagrees with the
direct derivation, so the difference form used here is pinned by a Monte
Carlo oracle in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

IM_SD_FLOOR = 1e-12
ALPHA_MAX = 10.0


def check_alpha(alpha):
    """alpha itself; ValueError unless 0 < alpha <= ALPHA_MAX. ndtr rounds to 1
    from about 8.3 standard deviations up, so a wider band only risks overflow."""
    if not 0 < alpha <= ALPHA_MAX:
        raise ValueError(f"alpha must be in (0, {ALPHA_MAX:g}], got {alpha!r}")
    return alpha


@dataclass
class ContourTarget:
    """Target level a with credibility multiplier alpha (MsceConfig.alpha in a run)."""

    a: float
    alpha: float

    def __post_init__(self):
        check_alpha(self.alpha)


def _norm_pdf(u):
    """Standard normal density, the expression scipy.stats.norm.pdf uses."""
    return np.exp(-u ** 2 / 2.0) / np.sqrt(2.0 * np.pi)


def expected_improvement(pred_mean, pred_sd, target: ContourTarget):
    """Closed-form E[I(x)] for y ~ Normal(pred_mean, pred_sd^2).

    Vectorized over pred_mean/pred_sd. Zero wherever pred_sd is zero, and
    numerically safe far from the target (underflows to 0, never NaN).
    """
    mean = np.asarray(pred_mean, dtype=float)
    sd = np.asarray(pred_sd, dtype=float)
    scalar = mean.ndim == 0 and sd.ndim == 0
    mean, sd = np.atleast_1d(mean), np.atleast_1d(sd)
    mean, sd = np.broadcast_arrays(mean, sd)

    out = np.zeros(mean.shape)
    active = sd > 0
    if np.any(active):
        # imported here, so that importing dyncal loads no scipy.special
        from scipy.special import ndtr
        m = mean[active] - target.a
        s = sd[active]
        eps = target.alpha * s
        u1 = (-m - eps) / s
        u2 = (-m + eps) / s
        dPhi = ndtr(u2) - ndtr(u1)
        phi1, phi2 = _norm_pdf(u1), _norm_pdf(u2)
        ei = ((eps ** 2 - m ** 2) * dPhi
              + s ** 2 * ((u2 * phi2 - u1 * phi1) - dPhi)
              + 2.0 * m * s * (phi2 - phi1))
        out[active] = np.maximum(ei, 0.0)
    return float(out[0]) if scalar else out


def implausibility_max(pred_means, pred_sds, target_values):
    """Max over the DPS of the standardized distances |ghat - g0| / s.

    pred_means/pred_sds: arrays of shape (k, m) for m candidates;
    target_values: length-k targets. Returns a length-m array. Below the sd
    floor a distance is taken as 0 for an (effectively) exact match and +inf
    otherwise, so interpolated training points never divide by zero.
    """
    sd = np.asarray(pred_sds, dtype=float)
    num = np.abs(np.asarray(pred_means, dtype=float)
                 - np.asarray(target_values, dtype=float)[:, None])
    tiny = sd < IM_SD_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(tiny, np.where(num < IM_SD_FLOOR, 0.0, np.inf), num / np.where(tiny, 1.0, sd))
    return np.max(out, axis=0)
