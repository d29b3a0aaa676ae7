"""Ordinary-kriging Gaussian process surrogate for scalar simulator output.

Model: y(x) = mu + Z(x) with Z a zero-mean stationary GP whose correlation is
power-exponential,

    R(x_i, x_j) = prod_k exp(-theta_k |x_ik - x_jk|^p_k),

with smoothness fixed at p = 1.95 by default. Fitting maximizes the profile
log-likelihood over theta on a bounded log-scale box; mu and sigma^2 have
closed-form profile estimates. Predictions use the BLUP mean and the
classical kriging variance s^2(x) = sigma2 * (1 - r' R^-1 r).

Every likelihood evaluation and every model assembly goes through one path:
`_factor` takes the lower Cholesky factor L of R + nugget*I (LAPACK potrf,
escalating the nugget tenfold on failure), and `_profile` makes one forward
triangular solve on the two columns [y, 1]. With a = L^-1 y and b = L^-1 1,
the concentrated likelihood (Roustant, Ginsbourger & Deville 2012) needs only

    mu = b'a / b'b,   w = a - mu b,   sigma2 = w'w / n,   log|R| = 2 sum log diag L,

and the prediction weights are alpha = L^-T w, one more triangular solve.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dtrtrs
from scipy.optimize import minimize

from .designs import random_lhd

DEFAULT_P = 1.95


class FitError(RuntimeError):
    """Correlation matrix could not be factorized even at the maximum nugget."""


@dataclass
class CorrelationSpec:
    """Power-exponential correlation parameters.

    theta: length-d vector of nonnegative decay rates (per scaled-input unit).
    p: smoothness exponent in (0, 2], scalar applied to every dimension.
    """

    theta: np.ndarray
    p: float = DEFAULT_P

    def __post_init__(self):
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        if np.any(self.theta < 0):
            raise ValueError("correlation decay rates must be nonnegative")
        if not (0.0 < self.p <= 2.0):
            raise ValueError(f"smoothness exponent must be in (0, 2], got {self.p}")


def correlation(spec: CorrelationSpec, x_i, x_j) -> float:
    """Correlation between the process at two points; 1 at zero distance."""
    x_i = np.asarray(x_i, dtype=float)
    x_j = np.asarray(x_j, dtype=float)
    return float(np.exp(-np.sum(spec.theta * np.abs(x_i - x_j) ** spec.p)))


def _pairwise_powered(X: np.ndarray, p: float) -> np.ndarray:
    """|x_ik - x_jk|^p for all pairs, shape (n, n, d)."""
    return np.abs(X[:, None, :] - X[None, :, :]) ** p


def _correlation_from_powered(powered: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Correlation matrix from the (n, n, d) powered distances."""
    n = powered.shape[0]
    return np.exp(-(powered.reshape(n * n, -1) @ theta)).reshape(n, n)


def correlation_matrix(spec: CorrelationSpec, X: np.ndarray) -> np.ndarray:
    return _correlation_from_powered(_pairwise_powered(np.asarray(X, float), spec.p),
                                     spec.theta)


def cross_correlation(spec: CorrelationSpec, X: np.ndarray, X_star: np.ndarray) -> np.ndarray:
    """Correlations between training points and query points, shape (n, m)."""
    X = np.asarray(X, dtype=float)
    X_star = np.atleast_2d(np.asarray(X_star, dtype=float))
    D = np.abs(X[:, None, :] - X_star[None, :, :]) ** spec.p
    return np.exp(-np.tensordot(D, spec.theta, axes=(2, 0)))


@dataclass
class FitConfig:
    """Knobs for the profile-likelihood search."""

    theta_bounds: tuple[float, float] = (1e-2, 1e2)
    n_starts: int = 5
    max_evals_per_start: int = 500
    p: float = DEFAULT_P
    nugget_start: float = 1e-8
    nugget_cap: float = 1e-4
    seed: int = 0


@dataclass
class GpModel:
    """Fitted ordinary-kriging surrogate. Immutable after fit_gp."""

    X: np.ndarray
    y: np.ndarray
    spec: CorrelationSpec
    mu_hat: float
    sigma2_hat: float
    nugget: float
    chol: np.ndarray | None
    # internals for fast prediction, in standardized response units
    y_mean: float = 0.0
    y_scale: float = 1.0
    mu_std: float = 0.0
    sigma2_std: float = 0.0
    alpha: np.ndarray | None = None  # R~^-1 (y_std - mu_std 1)
    degenerate: bool = False

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def _factor(R: np.ndarray, start: float, cap: float):
    """Lower Cholesky factor of R + nugget*I, escalating the nugget tenfold up to cap.

    Writes the nugget into R's diagonal in place. Returns (L, nugget), with
    L None when R is not positive definite even at the cap.
    """
    n = R.shape[0]
    base = R.diagonal().copy()
    nugget = start
    while True:
        R.flat[::n + 1] = base + nugget
        L, info = dpotrf(R, lower=1)
        if info == 0:
            return L, nugget
        if nugget >= cap:
            return None, nugget
        nugget = min(nugget * 10.0, cap)


def _profile(L: np.ndarray, y_std: np.ndarray):
    """Profile estimates from the Cholesky factor L of the correlation matrix.

    Returns (mu, sigma2, logdet, w): the generalized-least-squares mean, the
    profile variance, log|R| and the whitened residual w = L^-1 (y - mu 1).
    """
    n = len(y_std)
    rhs = np.empty((n, 2), order="F")
    rhs[:, 0] = y_std
    rhs[:, 1] = 1.0
    ab, _ = dtrtrs(L, rhs, lower=1)
    a, b = ab[:, 0], ab[:, 1]
    mu = (b @ a) / (b @ b)
    w = a - mu * b
    sigma2 = (w @ w) / n
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    return mu, sigma2, logdet, w


_NLL_BAD = 1e25  # finite sentinel so simplex arithmetic stays warning-free


def _profile_nll(theta, powered, y_std, cfg):
    """Negative profile log-likelihood (up to constants): n log s2 + log|R|."""
    L, _ = _factor(_correlation_from_powered(powered, theta),
                   cfg.nugget_start, cfg.nugget_cap)
    if L is None:
        return _NLL_BAD
    _, sigma2, logdet, _ = _profile(L, y_std)
    if not sigma2 > 0:  # also rejects NaN
        return _NLL_BAD
    return len(y_std) * np.log(sigma2) + logdet


def build_gp_model(X: np.ndarray, y: np.ndarray, spec: CorrelationSpec,
                   nugget: float) -> GpModel:
    """Assemble a model at fixed correlation parameters (no optimization).

    The profile estimates mu_hat and sigma2_hat are computed from the data;
    a constant response gives the degenerate constant model.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    y_mean = float(np.mean(y))
    y_scale = float(np.std(y))
    if y_scale == 0.0:
        return GpModel(X=X, y=y, spec=spec, mu_hat=y_mean, sigma2_hat=0.0,
                       nugget=0.0, chol=None, y_mean=y_mean, y_scale=1.0,
                       degenerate=True)
    y_std = (y - y_mean) / y_scale
    L, _ = _factor(correlation_matrix(spec, X), nugget, nugget)
    if L is None:
        raise FitError(f"correlation matrix not positive definite at nugget {nugget}")
    mu_std, sigma2_std, _, w = _profile(L, y_std)
    alpha, _ = dtrtrs(L, w, lower=1, trans=1)
    return GpModel(
        X=X, y=y, spec=spec,
        mu_hat=y_mean + y_scale * mu_std,
        sigma2_hat=y_scale ** 2 * sigma2_std,
        nugget=nugget, chol=L,
        y_mean=y_mean, y_scale=y_scale,
        mu_std=mu_std, sigma2_std=sigma2_std, alpha=alpha,
    )


def fit_gp(X: np.ndarray, y: np.ndarray, config: FitConfig | None = None) -> GpModel:
    """Fit the surrogate by multistart profile-likelihood maximization.

    Responses are standardized to zero mean / unit variance internally; the
    returned mu_hat and sigma2_hat are in original units. A constant response
    yields a degenerate model (sigma2_hat = 0, predictions equal the constant)
    rather than an error.

    Raises
    ------
    FitError
        If the correlation matrix stays non-positive-definite at the final
        theta even with the maximum allowed nugget.
    """
    cfg = config or FitConfig()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n, d = X.shape
    if n < 2:
        raise ValueError("need at least 2 training points")
    if len(y) != n:
        raise ValueError(f"response length {len(y)} does not match {n} inputs")
    if not np.all(np.isfinite(y)):
        raise ValueError("responses must be finite")

    y_mean = float(np.mean(y))
    y_scale = float(np.std(y))
    if y_scale == 0.0:
        return build_gp_model(X, y, CorrelationSpec(np.zeros(d), cfg.p), 0.0)
    y_std = (y - y_mean) / y_scale

    powered = _pairwise_powered(X, cfg.p)
    lo, hi = np.log10(cfg.theta_bounds[0]), np.log10(cfg.theta_bounds[1])

    def nll_log10(lt):
        if np.any(lt < lo) or np.any(lt > hi):
            return _NLL_BAD
        return _profile_nll(10.0 ** lt, powered, y_std, cfg)

    starts = lo + (hi - lo) * random_lhd(cfg.n_starts, d, seed=cfg.seed)
    best = None
    for idx, s in enumerate(starts):
        res = minimize(nll_log10, s, method="Nelder-Mead",
                       options={"maxfev": cfg.max_evals_per_start,
                                "xatol": 1e-3, "fatol": 1e-8})
        cand = (res.fun, idx, res.x)
        if best is None or cand[0] < best[0]:
            best = cand

    theta = 10.0 ** np.clip(best[2], lo, hi)
    spec = CorrelationSpec(theta, cfg.p)

    _, nugget = _factor(_correlation_from_powered(powered, theta),
                        cfg.nugget_start, cfg.nugget_cap)
    return build_gp_model(X, y, spec, nugget)


def predict_batch(model: GpModel, X_star: np.ndarray):
    """BLUP mean and variance at many points.

    Returns (means, s2) arrays of length m; s2 is clamped at zero against
    floating-point undershoot.
    """
    X_star = np.atleast_2d(np.asarray(X_star, dtype=float))
    m = X_star.shape[0]
    if model.degenerate:
        return np.full(m, model.mu_hat), np.zeros(m)
    r = cross_correlation(model.spec, model.X, X_star)  # (n, m)
    mean_std = model.mu_std + r.T @ model.alpha
    # r' R~^-1 r via the triangular factor
    v = solve_triangular(model.chol, r, lower=True)
    quad = np.sum(v * v, axis=0)
    s2_std = model.sigma2_std * np.maximum(1.0 - quad, 0.0)
    means = model.y_mean + model.y_scale * mean_std
    s2 = model.y_scale ** 2 * s2_std
    return means, s2


def predict(model: GpModel, x_star) -> tuple[float, float]:
    """BLUP mean and variance at a single point."""
    means, s2 = predict_batch(model, np.atleast_2d(x_star))
    return float(means[0]), float(s2[0])


class MeanBank:
    """Fast mean-only prediction across models sharing one training design.

    Stacks the per-model correlation parameters and prediction weights so a
    whole bank of surrogates is evaluated with a single matrix product per
    query batch. Used by the inner loops of solution extraction, where only
    posterior means are needed and per-call overhead dominates.
    """

    def __init__(self, models: list[GpModel]):
        if not models:
            raise ValueError("need at least one model")
        self.X = models[0].X
        self.p = models[0].spec.p
        for m in models:
            if m.X is not self.X and not np.array_equal(m.X, self.X):
                raise ValueError("models must share training inputs")
            if m.spec.p != self.p:
                raise ValueError("models must share the smoothness exponent")
        self.models = models
        d = self.X.shape[1]
        n = self.X.shape[0]
        self.thetas = np.stack([
            np.zeros(d) if m.degenerate else m.spec.theta for m in models
        ], axis=1)  # (d, M)
        self.alphas = np.stack([
            np.zeros(n) if m.degenerate else m.alpha for m in models
        ], axis=1)  # (n, M)
        self.offset = np.array([
            m.mu_hat if m.degenerate else m.y_mean + m.y_scale * m.mu_std
            for m in models
        ])
        self.scale = np.array([0.0 if m.degenerate else m.y_scale for m in models])

    def _cross(self, x_batch: np.ndarray) -> np.ndarray:
        x_batch = np.atleast_2d(np.asarray(x_batch, dtype=float))
        D = np.abs(self.X[:, None, :] - x_batch[None, :, :]) ** self.p  # (n, B, d)
        return np.exp(-np.einsum("nbd,dm->nbm", D, self.thetas))  # (n, B, M)

    def means(self, x_batch: np.ndarray) -> np.ndarray:
        """Posterior means, shape (batch, n_models)."""
        R = self._cross(x_batch)
        contrib = np.einsum("nbm,nm->bm", R, self.alphas)
        return self.offset[None, :] + self.scale[None, :] * contrib

    def means_and_vars(self, x_batch: np.ndarray):
        """Posterior means and variances, each shape (batch, n_models)."""
        R = self._cross(x_batch)
        means = self.offset[None, :] + self.scale[None, :] * np.einsum(
            "nbm,nm->bm", R, self.alphas)
        B = R.shape[1]
        s2 = np.zeros((B, len(self.models)))
        for k, m in enumerate(self.models):
            if m.degenerate:
                continue
            v = solve_triangular(m.chol, R[:, :, k], lower=True)
            quad = np.sum(v * v, axis=0)
            s2[:, k] = m.y_scale ** 2 * m.sigma2_std * np.maximum(1.0 - quad, 0.0)
        return means, s2


def model_to_dict(model: GpModel) -> dict:
    """JSON-ready snapshot sufficient to rebuild the model."""
    return {
        "theta": [float(v) for v in model.spec.theta],
        "p": model.spec.p,
        "mu_hat": model.mu_hat,
        "sigma2_hat": model.sigma2_hat,
        "nugget": model.nugget,
        "X": [[float(v) for v in row] for row in model.X],
        "y": [float(v) for v in model.y],
    }


def model_from_dict(payload: dict) -> GpModel:
    """Rebuild a fitted model from its JSON snapshot (no re-optimization).

    Profile estimates are recomputed from the stored data and parameters, so
    a hand-written payload only needs theta, p, nugget, X and y.
    """
    spec = CorrelationSpec(np.asarray(payload["theta"], dtype=float), payload["p"])
    return build_gp_model(np.asarray(payload["X"], dtype=float),
                          np.asarray(payload["y"], dtype=float),
                          spec, payload["nugget"])
