"""Goodness-of-fit measures between a candidate response and the target series."""
from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np


class ConstantTargetError(ValueError):
    """Target series has zero variance, so normalized discrepancy is undefined."""


def _pair(g_hat, g0):
    a = np.asarray(g_hat, dtype=float).ravel()
    b = np.asarray(g0, dtype=float).ravel()
    if len(a) != len(b):
        raise ValueError(f"series lengths differ: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValueError("series are empty")
    return a, b


def rmse(g_hat, g0) -> float:
    """Root mean squared error between two equal-length series."""
    a, b = _pair(g_hat, g0)
    return float(np.sqrt(np.mean((a - b) ** 2)))


def r_squared(g_hat, g0) -> Optional[float]:
    """R^2 of the simple linear regression of the target on the candidate.

    Equals the squared Pearson correlation. Returns None (undefined) when the
    candidate series is constant.
    """
    a, b = _pair(g_hat, g0)
    if len(a) < 3:
        raise ValueError("R^2 needs at least 3 points")
    va = a - a.mean()
    vb = b - b.mean()
    denom = np.sum(va ** 2) * np.sum(vb ** 2)
    if np.sum(va ** 2) == 0.0:
        return None
    if denom == 0.0:
        return 0.0
    return float(np.sum(va * vb) ** 2 / denom)


class NormD(NamedTuple):
    """Normalized squared discrepancy: raw ratio and its natural log."""

    ratio: float
    log: float
    perfect: bool


def norm_d(g_hat, g0) -> NormD:
    """Normalized discrepancy ||g0 - g_hat||^2 / ||g0 - mean(g0)||^2.

    Returns both the raw ratio and its natural log; a perfect match gives
    ratio 0 and log -inf, flagged via .perfect.
    """
    a, b = _pair(g_hat, g0)
    denom = float(np.sum((b - b.mean()) ** 2))
    if denom == 0.0:
        raise ConstantTargetError("target series is constant")
    num = float(np.sum((b - a) ** 2))
    ratio = num / denom
    if num == 0.0:
        return NormD(ratio=0.0, log=-math.inf, perfect=True)
    return NormD(ratio=ratio, log=math.log(ratio), perfect=False)


def evaluate_all(g_hat, g0) -> dict:
    """Bundle of all measures, JSON-ready (None/inf-safe). "nse" is the
    Nash-Sutcliffe efficiency 1 - normd_ratio, 1 for a perfect match."""
    nd = norm_d(g_hat, g0)
    return {
        "rmse": rmse(g_hat, g0),
        "r2": r_squared(g_hat, g0),
        "normd_ratio": nd.ratio,
        "normd_log": None if nd.perfect else nd.log,
        "nse": 1.0 - nd.ratio,
    }
