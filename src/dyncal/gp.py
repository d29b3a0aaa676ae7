"""Ordinary-kriging Gaussian process surrogate for scalar simulator output.

Model: y(x) = mu + Z(x) with Z a zero-mean stationary GP whose correlation is
power-exponential,

    R(x_i, x_j) = prod_k exp(-theta_k |x_ik - x_jk|^p).

Fitting maximizes the profile log-likelihood over theta on a bounded
log-scale box; mu and sigma^2 have closed-form profile estimates.
Predictions use the BLUP mean and the classical kriging variance
s^2(x) = sigma2 * (1 - r' R^-1 r).

Every surrogate is fitted with one fixed setup, held in module constants:
the smoothness p = 1.95 (`SMOOTHNESS`) in every dimension, the theta box
[1e-2, 1e2] (`THETA_BOUNDS`), 5 Nelder-Mead starts from a random LHD of
seed 0 (`N_STARTS`, `START_SEED`) with 500 evaluations each
(`EVALS_PER_START`), and a nugget of 1e-8 escalated tenfold up to 1e-4
when R is not positive definite (`NUGGET_START`, `NUGGET_CAP`).

Every likelihood evaluation and every model assembly goes through one path:
`_factor` takes the lower Cholesky factor L of R + nugget*I (LAPACK potrf,
escalating the nugget tenfold on failure), and `_profile` makes one forward
triangular solve on the two columns [y, 1]. With a = L^-1 y and b = L^-1 1,
the concentrated likelihood (Roustant, Ginsbourger & Deville 2012) needs only

    mu = b'a / b'b,   w = a - mu b,   sigma2 = w'w / n,   log|R| = 2 sum log diag L,

and the prediction weights are alpha = L^-T w, one more triangular solve.
A fit allocates one `_Workspace` and every likelihood evaluation reuses it:
R is refilled in place in Fortran order through a flat view made once, 1 +
nugget goes into a view of its diagonal, potrf factors it in place, and the
right-hand side [y, 1] is written once, so an evaluation reshapes nothing.

The kernel is written once: `_powered` gives |a_k - b_k|^p for every pair of
rows, and `_corr` turns those, flattened to one pair per row, into
correlations for one theta. Fitting, model assembly, `predict_batch` and
`MeanBank` all go through this pair, and the BLUP mean
y_mean + y_scale (mu_std + r' alpha) is written once, in `_mean`, which also
holds the only branch for a constant (degenerate) response.

Prediction sweeps (5000 candidates per sequential step) are written to
allocate little. `_powered` fills one output array a coordinate at a time
and takes the absolute value and the power in place; the kriging variance
(`_variance`) copies r into a Fortran-order buffer that trtrs solves in
place and squares it there. Models that share their training inputs, as the
k per-index models of a history-matching stage do, share one set of powered
distances (`MeanBank.predict`), and `predict_batch` is that sweep with one
model. The query batch is deliberately not split into chunks, though that
would bound the memory: the r' alpha product rounds differently with the
number of rows, so chunked means differ in their last bits, and the
answers of a calibration can move on such differences.

`fit_gp` searches with `minimize`, scipy's non-adaptive Nelder-Mead step for
step on Python floats: bit-equal to scipy's at less than half the overhead
per evaluation. It calls it through the module global, where a tracer counts
the evaluations.

The LAPACK routines `dpotrf` and `dtrtrs` come from `scipy.linalg`, which
takes about a quarter of a second to import. A process that fits no
surrogate (the knot scan, `evaluate`, `simulate`, a simulator wrapper)
should not pay that, so this module binds them at the first call: until
then its globals `dpotrf` and `dtrtrs` are stubs that import scipy's
routines, rebind the globals to them and forward the call. From then on
every call site reaches scipy's own routine with no extra frame.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .designs import random_lhd

SMOOTHNESS = 1.95  # the exponent p of the kernel, in every dimension
THETA_BOUNDS = (1e-2, 1e2)  # the box of the likelihood search
N_STARTS = 5  # Nelder-Mead starts, a random LHD on the log10 box
START_SEED = 0  # the seed of that LHD
EVALS_PER_START = 500
NUGGET_START = 1e-8  # escalated tenfold while R + nugget*I is not positive definite
NUGGET_CAP = 1e-4


def _bind_lapack():
    """Replace the stubs below by scipy's routines of the same names."""
    global dpotrf, dtrtrs
    from scipy.linalg.lapack import dpotrf, dtrtrs


def dpotrf(*args, **kwargs):
    """scipy's LAPACK potrf, imported at the first call."""
    _bind_lapack()
    return dpotrf(*args, **kwargs)


def dtrtrs(*args, **kwargs):
    """scipy's LAPACK trtrs, imported at the first call."""
    _bind_lapack()
    return dtrtrs(*args, **kwargs)


class FitError(RuntimeError):
    """Correlation matrix could not be factorized even at the maximum nugget."""


def _powered(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """|a_k - b_k|^p for every row a of A and b of B, shape (n_A, n_B, d),
    with p = SMOOTHNESS.

    Bit-equal to np.abs(A[:, None, :] - B[None, :, :]) ** p, in one array:
    the differences go in one coordinate at a time, so numpy's inner loop
    runs over the n_B rows of B rather than over the d coordinates, and the
    absolute value and the power are taken in place.
    """
    out = np.empty((A.shape[0], B.shape[0], A.shape[1]))
    for k in range(A.shape[1]):
        np.subtract(A[:, k, None], B[None, :, k], out=out[:, :, k])
    np.abs(out, out=out)
    out **= SMOOTHNESS
    return out


def _corr(flat: np.ndarray, theta: np.ndarray,
          out: np.ndarray | None = None) -> np.ndarray:
    """Power-exponential correlations from powered distances given as rows.

    flat holds one pair's powered distances per row, shape (N, d), as
    `_powered(A, B).reshape(-1, d)` gives them; the result has shape (N,)
    and is written into out when it is given. The sign goes into theta:
    negation is exact and rounding is symmetric in sign, so flat @ -theta is
    bit-equal to -(flat @ theta).
    """
    out = np.matmul(flat, -theta, out=out)
    np.exp(out, out=out)
    return out


@dataclass
class GpModel:
    """Fitted ordinary-kriging surrogate. Immutable after fit_gp."""

    X: np.ndarray
    theta: np.ndarray  # the length-d nonnegative decay rates (per scaled-input unit)
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
    def d(self) -> int:
        return self.X.shape[1]


class _Workspace:
    """Buffers and views for the likelihood evaluations of one fit, made once,
    so that an evaluation allocates nothing of size n^2 and reshapes nothing.

    n: the number of training points.
    powered: the powered distances of the training inputs, given as an
        (n, n, d) array and kept as its flat (n^2, d) view.
    R: the n x n correlation matrix in Fortran order, refilled for every theta
        and overwritten by its Cholesky factor (potrf needs no copy of it).
    R_flat: R as a flat array, row-major over R's transpose; R is symmetric,
        so `_corr` fills it as it fills any correlation matrix.
    diagonal: a writable strided view of R's diagonal, where 1 + nugget goes.
    rhs: the right-hand side [y, 1] of the triangular solve, Fortran order.
    """

    def __init__(self, powered: np.ndarray, y_std: np.ndarray):
        n = len(y_std)
        self.n = n
        self.powered = powered.reshape(n * n, powered.shape[2])
        self.R = np.empty((n, n), order="F")
        self.R_flat = self.R.T.reshape(-1)
        self.diagonal = self.R_flat[::n + 1]
        self.rhs = np.empty((n, 2), order="F")
        self.rhs[:, 0] = y_std
        self.rhs[:, 1] = 1.0


def _factor(ws: _Workspace, theta: np.ndarray, start: float, cap: float,
            clean: bool = True):
    """Lower Cholesky factor of R(theta) + nugget*I, escalating the nugget tenfold up to cap.

    Fills ws.R with the correlations, writes 1 + nugget into its diagonal (a
    correlation at zero distance is exactly 1) and factors it in place, so
    the L returned is ws.R itself; a failed factorization leaves R partly
    overwritten, and R is refilled before the next nugget. The powered
    distances are symmetric, so R fills as its own transpose. Returns
    (L, nugget), with L None when R is not positive definite even at the cap.
    With clean=False the upper triangle of L is left as potrf leaves it,
    which only the triangular solves of the fit ever read past.
    """
    nugget = start
    while True:
        _corr(ws.powered, theta, out=ws.R_flat)
        ws.diagonal.fill(1.0 + nugget)
        # lower, clean, overwrite_a, given positionally: f2py parses keywords slowly
        L, info = dpotrf(ws.R, 1, clean, 1)
        if info == 0:
            return L, nugget
        if nugget >= cap:
            return None, nugget
        nugget = min(nugget * 10.0, cap)


def _profile(L: np.ndarray, rhs: np.ndarray):
    """Profile estimates from the Cholesky factor L of the correlation matrix.

    rhs is the workspace's [y, 1]. Returns (mu, sigma2, logdet, w): the
    generalized-least-squares mean, the profile variance, log|R| and the
    whitened residual w = L^-1 (y - mu 1).
    """
    ab, _ = dtrtrs(L, rhs, 1)
    a, b = ab[:, 0], ab[:, 1]
    mu = (b @ a) / (b @ b)
    w = a - mu * b
    sigma2 = (w @ w) / len(w)
    logdet = 2.0 * np.add.reduce(np.log(L.diagonal()))
    return mu, sigma2, logdet, w


_NLL_BAD = 1e25  # finite sentinel so simplex arithmetic stays warning-free


def _profile_nll(theta, ws: _Workspace):
    """Negative profile log-likelihood (up to constants): n log s2 + log|R|."""
    L, _ = _factor(ws, theta, NUGGET_START, NUGGET_CAP, clean=False)
    if L is None:
        return _NLL_BAD
    _, sigma2, logdet, _ = _profile(L, ws.rhs)
    if not sigma2 > 0:  # also rejects NaN
        return _NLL_BAD
    return ws.n * np.log(sigma2) + logdet


def _nll_log10(log_theta, ws: _Workspace, lo: float, hi: float):
    """The fitting objective: `_profile_nll` at theta = 10^log_theta, and
    `_NLL_BAD` when a coordinate lies outside the box [lo, hi]."""
    for v in log_theta.tolist():
        if v < lo or v > hi:
            return _NLL_BAD
    return _profile_nll(10.0 ** log_theta, ws)


@dataclass
class MinimizeResult:
    """What `minimize` found: the best vertex x, its value fun, and nfev evaluations."""

    x: np.ndarray
    fun: float
    nfev: int


class _BudgetSpent(Exception):
    """An evaluation was asked for after maxfev had been spent."""


def _sort_simplex(sim: list, fsim: list) -> None:
    """Order the vertices by value in place, as `np.argsort` orders them.

    A plain sort when the values are distinct; `np.argsort` itself when some
    values tie or are NaN, so that tied vertices keep numpy's order.
    """
    order = sorted(range(len(fsim)), key=fsim.__getitem__)
    if not all(fsim[a] < fsim[b] for a, b in zip(order, order[1:])):
        order = np.argsort(fsim).tolist()
    sim[:] = [sim[i] for i in order]
    fsim[:] = [fsim[i] for i in order]


def minimize(fun, x0, args=(), *, maxfev: int, xatol: float,
             fatol: float) -> MinimizeResult:
    """Nelder-Mead minimization of fun(x, *args) from x0, on Python floats.

    Step for step the non-adaptive, unbounded method of
    `scipy.optimize.minimize(fun, x0, args, method="Nelder-Mead",
    options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol})`, so x, fun
    and nfev are bit-equal to scipy's:
    - the initial simplex is x0 and, for each k, x0 with x_k scaled by 1.05
      (set to 0.00025 where x_k = 0);
    - with the centroid c of all but the worst vertex w (summed row by row),
      the trial points are 2c - w (reflect), 3c - 2w (expand), 1.5c - 0.5w
      (contract) and 0.5c + 0.5w (inside contract); a shrink moves every
      vertex halfway to the best;
    - it stops when every vertex lies within xatol of the best in every
      coordinate and every value within fatol of the best value;
    - once maxfev evaluations are spent, the next evaluation asked for ends
      the step there, keeping what the step has done so far.
    fun gets a fresh float64 array and must return a real scalar.
    """
    start = np.asarray(x0, dtype=float).ravel().tolist()
    n = len(start)
    nfev = 0

    def evaluate(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return float(fun(np.array(x), *args))

    sim = [start]
    for k in range(n):
        vertex = list(start)
        vertex[k] = 1.05 * vertex[k] if vertex[k] != 0 else 0.00025
        sim.append(vertex)
    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = evaluate(sim[k])
    except _BudgetSpent:
        pass
    _sort_simplex(sim, fsim)
    _sort_simplex(sim, fsim)  # scipy sorts twice here; it matters only for ties

    while nfev < maxfev:
        try:
            best, fbest = sim[0], fsim[0]
            if (all(abs(v - b) <= xatol for vertex in sim[1:]
                    for v, b in zip(vertex, best))
                    and all(abs(fbest - f) <= fatol for f in fsim[1:])):
                break
            total = list(sim[0])  # not sum(), which compensates from Python 3.12 on
            for vertex in sim[1:-1]:
                total = [t + v for t, v in zip(total, vertex)]
            worst = sim[-1]
            centroid = [t / n for t in total]
            xr = [2.0 * c - w for c, w in zip(centroid, worst)]
            fxr = evaluate(xr)
            if fxr < fbest:
                xe = [3.0 * c - 2.0 * w for c, w in zip(centroid, worst)]
                fxe = evaluate(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                shrink = False
                if fxr < fsim[-1]:
                    xc = [1.5 * c - 0.5 * w for c, w in zip(centroid, worst)]
                    fxc = evaluate(xc)
                    if fxc <= fxr:
                        sim[-1], fsim[-1] = xc, fxc
                    else:
                        shrink = True
                else:
                    xcc = [0.5 * c + 0.5 * w for c, w in zip(centroid, worst)]
                    fxcc = evaluate(xcc)
                    if fxcc < fsim[-1]:
                        sim[-1], fsim[-1] = xcc, fxcc
                    else:
                        shrink = True
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = [b + 0.5 * (v - b) for v, b in zip(sim[j], best)]
                        fsim[j] = evaluate(sim[j])
        except _BudgetSpent:
            pass
        _sort_simplex(sim, fsim)

    return MinimizeResult(x=np.array(sim[0]), fun=float(np.min(fsim)), nfev=nfev)


def build_gp_model(X: np.ndarray, y: np.ndarray, theta, nugget: float) -> GpModel:
    """Assemble a model at fixed decay rates theta (no optimization).

    The profile estimates mu_hat and sigma2_hat are computed from the data;
    a constant response gives the degenerate constant model. ValueError when
    a decay rate is negative.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if np.any(theta < 0):
        raise ValueError("correlation decay rates must be nonnegative")
    if y.max() == y.min():  # np.std of a constant can be an ulp above zero
        return GpModel(X=X, theta=theta, mu_hat=float(y[0]), sigma2_hat=0.0,
                       nugget=0.0, chol=None, y_mean=float(y[0]), y_scale=1.0,
                       degenerate=True)
    y_mean = float(np.mean(y))
    y_scale = float(np.std(y))
    y_std = (y - y_mean) / y_scale
    ws = _Workspace(_powered(X, X), y_std)
    L, _ = _factor(ws, theta, nugget, nugget)
    if L is None:
        raise FitError(f"correlation matrix not positive definite at nugget {nugget}")
    mu_std, sigma2_std, _, w = _profile(L, ws.rhs)
    alpha, _ = dtrtrs(L, w, lower=1, trans=1)
    return GpModel(
        X=X, theta=theta,
        mu_hat=y_mean + y_scale * mu_std,
        sigma2_hat=y_scale ** 2 * sigma2_std,
        nugget=nugget, chol=L,
        y_mean=y_mean, y_scale=y_scale,
        mu_std=mu_std, sigma2_std=sigma2_std, alpha=alpha,
    )


def fit_gp(X: np.ndarray, y: np.ndarray) -> GpModel:
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
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n, d = X.shape
    if n < 2:
        raise ValueError("need at least 2 training points")
    if len(y) != n:
        raise ValueError(f"response length {len(y)} does not match {n} inputs")
    if not np.all(np.isfinite(y)):
        raise ValueError("responses must be finite")

    if y.max() == y.min():
        return build_gp_model(X, y, np.zeros(d), 0.0)
    y_mean = float(np.mean(y))
    y_scale = float(np.std(y))
    y_std = (y - y_mean) / y_scale

    ws = _Workspace(_powered(X, X), y_std)
    lo, hi = np.log10(THETA_BOUNDS[0]), np.log10(THETA_BOUNDS[1])

    starts = lo + (hi - lo) * random_lhd(N_STARTS, d, seed=START_SEED)
    best = None
    for s in starts:
        res = minimize(_nll_log10, s, args=(ws, float(lo), float(hi)),
                       maxfev=EVALS_PER_START, xatol=1e-3, fatol=1e-8)
        if best is None or res.fun < best.fun:
            best = res

    theta = 10.0 ** np.clip(best.x, lo, hi)
    _, nugget = _factor(ws, theta, NUGGET_START, NUGGET_CAP, clean=False)
    return build_gp_model(X, y, theta, nugget)


def _mean(model: GpModel, powered: np.ndarray):
    """BLUP mean at the query points whose powered distances to model.X are given.

    Returns (means, r) with r the (n, m) cross-correlations, or None for a
    degenerate model, whose mean is its constant.
    """
    n, m, d = powered.shape
    if model.degenerate:
        return np.full(m, model.mu_hat), None
    r = _corr(powered.reshape(n * m, d), model.theta).reshape(n, m)
    return model.y_mean + model.y_scale * (model.mu_std + r.T @ model.alpha), r


def _variance(model: GpModel, r: np.ndarray | None):
    """Kriging variance at the query points whose cross-correlations r `_mean`
    gave, clamped at zero against floating-point undershoot; 0 for a
    degenerate model (r None).

    r' R~^-1 r is the squared norm of each column of v = L^-1 r. r is copied
    into a Fortran-order buffer that trtrs solves in place (f2py would make
    its own copy of a C-order r), which is then squared in place; the column
    sums run over the same Fortran layout as a copying solve would return.
    """
    if r is None:
        return 0.0
    v = np.empty(r.shape, order="F")
    v[...] = r
    v, _ = dtrtrs(model.chol, v, lower=1, overwrite_b=1)
    np.multiply(v, v, out=v)
    quad = np.sum(v, axis=0)
    return model.y_scale ** 2 * (model.sigma2_std * np.maximum(1.0 - quad, 0.0))


def predict_batch(model: GpModel, X_star: np.ndarray):
    """BLUP mean and variance at many points.

    Returns (means, s2) arrays of length m; s2 is clamped at zero against
    floating-point undershoot.
    """
    means, s2 = MeanBank([model]).predict(X_star)
    return means[0], s2[0]


class MeanBank:
    """Prediction across models sharing one training design.

    The powered distances from the shared inputs to a query batch are
    computed once per batch and reused by every model. `means` serves the
    grid sweep of solution extraction, where only posterior means are
    needed; `predict` adds the variances, for the history-matching sweep and,
    with a single model, for `predict_batch`.
    """

    def __init__(self, models: list[GpModel]):
        if not models:
            raise ValueError("need at least one model")
        self.X = models[0].X
        for m in models:
            if m.X is not self.X and not np.array_equal(m.X, self.X):
                raise ValueError("models must share training inputs")
        self.models = models

    def means(self, x_batch: np.ndarray) -> np.ndarray:
        """Posterior means, shape (batch, n_models)."""
        powered = _powered(self.X, np.atleast_2d(np.asarray(x_batch, dtype=float)))
        out = np.empty((powered.shape[1], len(self.models)))
        for k, model in enumerate(self.models):
            out[:, k] = _mean(model, powered)[0]
        return out

    def predict(self, x_batch: np.ndarray):
        """Posterior means and variances, each of shape (n_models, batch).

        Row k is bit-equal to model k's own `predict_batch`. At most one set
        of cross-correlations is alive at a time, and the powered distances
        are dropped before the last model's variance, so with one model the
        sweep never holds the distances and the solve's buffer at once.
        """
        powered = _powered(self.X, np.atleast_2d(np.asarray(x_batch, dtype=float)))
        shape = (len(self.models), powered.shape[1])
        means, s2 = np.empty(shape), np.empty(shape)
        for k, model in enumerate(self.models):
            means[k], r = _mean(model, powered)
            if k == len(self.models) - 1:
                del powered
            s2[k] = _variance(model, r)
            del r
        return means, s2
