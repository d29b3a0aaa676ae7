"""Discretization-point-set construction by greedy spline-knot selection.

The target series is fit with least-squares cubic B-splines whose interior
knots are chosen one at a time: each stage scans every admissible time index
and keeps the knot that minimizes the mean squared error given all previously
selected knots. The number of points to keep is then read off the MSE-vs-knots
curve at its elbow. Knots are indexed on the integer grid 1..L; conversion to
physical times is presentation only.

The B-spline basis is built here, in numpy, by the Cox-de Boor recursion
vectorized over all time indices (`_design_matrix`); it is bit-equal to
scipy's `BSpline.design_matrix`, which dyncal does not import because
`scipy.interpolate` alone would take about a third of the process start-up.

A stage does not refit the spline once per admissible index. Adding knot c
adds the one direction p = (t - c)_+^3 to the spline space, so with Q an
orthonormal basis of the current space and r the residual, an index's score
needs only r'p, Q'p and p'p: cubic moments of the rows of [r, Q] from c on,
carried block by block, so a stage costs O(L (k + 5)) where projecting every
direction would cost O(L^2 (k + 4)). Left of the middle the direction is
taken as (c - t)_+^3, which is (t' - c')_+^3 on the mirrored grid
t' = L + 1 - t, so one routine scores the right half of the series and the
right half of its mirror image. Next to a chosen knot p nearly lies in the
current space and its projected norm cancels; those few indices are
projected explicitly instead. The scores are still rounded, so the indices
whose score is within a small tolerance of the best are refit exactly with
`fit_cubic_spline`, and the exact fits decide: the knots and MSE path are
those of refitting every index. Each spline basis is built once, by the fit
that needs it: a stage scores with the basis of the previous stage's winning
refit (of the knot-free fit, for stage 1), which `SplineFit` carries.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simulators import _numbers, check_integer


@dataclass
class TargetSeries:
    """Target response g0 on a fixed time grid of length L, indexed 1..L: a
    flat sequence of at least 5 finite numbers."""

    values: np.ndarray

    def __post_init__(self):
        self.values = _numbers(self.values, "target")
        if len(self.values) < 5:
            raise ValueError("target series needs at least 5 points")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("target series must be finite")

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class SplineFit:
    fitted: np.ndarray
    mse: float
    basis: np.ndarray  # the design matrix of the fit (`_design_matrix`)


@dataclass
class DpsResult:
    """Greedy knot sequence, its MSE path, and the elbow-selected prefix."""

    ordered_knots: list[int]
    mse_path: np.ndarray  # MSE after 0, 1, ..., k_max knots
    k_selected: int
    elbow_warning: bool = False

    @property
    def dps(self) -> list[int]:
        """The DPS: the first k_selected knots of the greedy sequence."""
        return list(self.ordered_knots[: self.k_selected])

    def to_dict(self) -> dict:
        """JSON-ready form, as written to dps.json and to result.json's dps block."""
        return {
            "ordered_knots": [int(v) for v in self.ordered_knots],
            "mse_path": [float(v) for v in self.mse_path],
            "k_selected": self.k_selected,
            "dps": [int(v) for v in self.dps],
            "elbow_warning": self.elbow_warning,
        }


def _design_matrix(n: int, interior_knots) -> np.ndarray:
    """Regression matrix for a cubic spline on indices 1..n.

    Columns are an intercept plus the cubic B-spline basis on boundary knots
    {1, n} (multiplicity 4) with the first basis function dropped, so the
    matrix is full rank while spanning the complete spline space.

    The basis is the Cox-de Boor recursion (de Boor 1978, *A Practical Guide
    to Splines*), run for all n points at once. Each point x gets the interval
    l with t[l] <= x < t[l + 1], clipped to [3, nb - 1] so that x = n falls in
    the last one. Stage j = 1, 2, 3 turns the j values of degree j - 1 into
    j + 1 values of degree j with the operations of scipy's `_deBoor_D`, in
    its order: w = h[m-1] / (xb - xa), h[m-1] += w (xb - x), h[m] = w (x - xa),
    and w = 0 where xb == xa. The matrix is therefore bit-equal to
    `BSpline.design_matrix(x, t, 3).toarray()` with its first column replaced.
    """
    x = np.arange(1.0, n + 1.0)
    knots = np.sort(np.asarray(interior_knots, dtype=float))
    t = np.concatenate([[1.0] * 4, knots, [float(n)] * 4])
    nb = len(t) - 4
    ell = np.clip(np.searchsorted(t, x, side="right") - 1, 3, nb - 1)
    h = np.zeros((4, n))
    h[0] = 1.0
    for j in range(1, 4):
        prev = h[:j].copy()
        h[0] = 0.0
        for m in range(1, j + 1):
            xb, xa = t[ell + m], t[ell + m - j]
            span = xb - xa
            w = np.divide(prev[m - 1], span, out=np.zeros(n), where=span != 0.0)
            h[m - 1] += w * (xb - x)
            h[m] = w * (x - xa)
    A = np.zeros((n, nb))
    rows = np.arange(n)
    for i in range(4):
        A[rows, ell - 3 + i] = h[i]
    A[:, 0] = 1.0
    return A


def fit_cubic_spline(series: TargetSeries, interior_knots) -> SplineFit:
    """Least-squares cubic spline fit with the given interior knots.

    Knots are integer time indices strictly inside (1, L), distinct. If the
    design is numerically rank deficient, the normal equations are solved
    with a 1e-10 ridge instead. Runs of adjacent knots next to t = 1 do that:
    on L = 200, the knots 2, 3, ..., 24 already leave lstsq one rank short.
    """
    L = len(series)
    knots = sorted(int(check_integer(k, "interior knot")) for k in interior_knots)
    if len(set(knots)) != len(knots):
        raise ValueError("interior knots must be distinct")
    if knots and (knots[0] <= 1 or knots[-1] >= L):
        raise ValueError("interior knots must lie strictly inside (1, L)")
    if len(knots) > L - 5:
        raise ValueError(f"too many knots ({len(knots)}) for series length {L}")

    A = _design_matrix(L, knots)
    y = series.values
    coef, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < A.shape[1]:
        G = A.T @ A + 1e-10 * np.eye(A.shape[1])
        coef = np.linalg.solve(G, A.T @ y)
    fitted = A @ coef
    mse = float(np.mean((y - fitted) ** 2))
    return SplineFit(fitted=fitted, mse=mse, basis=A)


_SCAN_BLOCK = 32  # grid rows per moment block, and candidate columns per guard block
_GUARD_RTOL = 1e-8  # q'q below this share of p'p is recomputed by explicit projection
_SHORTLIST_RTOL = 1e-6  # relative slack of a score over the best exact MSE
_SHORTLIST_FLOOR = 1e-14  # absolute slack, in units of mean(y^2)


def _moment_operators(B: int):
    """The fixed matrices of the blocked moment recursion for blocks of B rows.

    Within a block, row i lies B - i rows before the block's end a. K[i, u] =
    (u - i)_+^3 weights the block's own rows, W[i, j] = C(3, j) (B - i)^(3-j)
    turns the tail moments at a into the cubic moment at row i, V[j, u] = u^j
    takes a block's own moments about its first row, and SHIFT[j, l] =
    C(j, l) B^(j-l) moves moments B rows to the left. All entries are >= 0.
    """
    u = np.arange(B, dtype=float)
    K = np.maximum(u[None, :] - u[:, None], 0.0) ** 3
    j = np.arange(4)
    binom = np.array([[1, 0, 0, 0], [1, 1, 0, 0], [1, 2, 1, 0], [1, 3, 3, 1]], dtype=float)
    W = binom[3] * (B - u)[:, None] ** (3 - j)
    V = u[None, :] ** j[:, None]
    shift = binom * float(B) ** np.maximum(j[:, None] - j, 0)
    return K, W, V, shift


_BLOCK_K, _BLOCK_W, _BLOCK_V, _BLOCK_SHIFT = _moment_operators(_SCAN_BLOCK)


def _cubic_tail_moments(G: np.ndarray) -> np.ndarray:
    """S[i] = sum over u >= i of G[u] (u - i)^3, for every row i, in O(rows x cols).

    The rows are cut into blocks of _SCAN_BLOCK. Row i's sum splits at the
    end a of its block: the rows before a give one small kernel product
    (_BLOCK_K), the same for every block, and the rows from a on give
    sum_j C(3, j) (a - i)^(3-j) T_j with T_j = sum over u >= a of G[u] (u - a)^j.
    The tail moments T are carried from the last block to the first by the
    binomial shift, so no array is larger than G padded to whole blocks. The
    weights of both steps are positive: cancellation comes only from the
    signs of G, as in a direct sum.
    """
    n, m = G.shape
    B = _SCAN_BLOCK
    nb = -(-n // B)
    blocks = np.zeros((nb * B, m))
    blocks[:n] = G
    blocks = blocks.reshape(nb, B, m)
    own = np.matmul(_BLOCK_V, blocks)
    tail = np.empty((nb, 4, m))
    tail[-1] = 0.0
    for b in range(nb - 1, 0, -1):
        tail[b - 1] = own[b] + _BLOCK_SHIFT @ tail[b]
    S = np.matmul(_BLOCK_K, blocks)
    S += np.matmul(_BLOCK_W, tail)
    return S.reshape(nb * B, m)[:n]


def _projected_gains(Q: np.ndarray, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(r'q)^2 / q'q for each knot in c, with q the direction (t - c)_+^3
    projected off Q explicitly, in blocks of _SCAN_BLOCK columns written in place.
    A mirrored (reversed) Q or r is copied once: BLAS takes neither as it is."""
    Q, r = np.ascontiguousarray(Q), np.ascontiguousarray(r)
    t = np.arange(1.0, len(r) + 1.0)[:, None]
    V = np.empty((len(r), min(len(c), _SCAN_BLOCK)))
    W = np.empty_like(V)
    gain = np.empty(len(c))
    for start in range(0, len(c), _SCAN_BLOCK):
        cc = c[start:start + _SCAN_BLOCK].astype(float)
        P, T = V[:, :len(cc)], W[:, :len(cc)]
        np.subtract(t, cc, out=P)
        np.maximum(P, 0.0, out=P)
        np.multiply(P, P, out=T)
        np.multiply(T, P, out=P)
        for _ in range(2):  # the second pass restores orthogonality lost to rounding
            np.matmul(Q, Q.T @ P, out=T)
            np.subtract(P, T, out=P)
        norm = np.sqrt(np.einsum("ij,ij->j", P, P))
        gain[start:start + len(cc)] = np.square((r @ P) / np.where(norm > 0.0, norm, np.inf))
    return gain


def _gains(Q: np.ndarray, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(r'q)^2 / q'q for the direction p = (t - c)_+^3 of each increasing,
    1-based knot in c, with q = p projected off Q.

    r'p and Q'p are the moments about c of the rows of [r, Q] from c on
    (`_cubic_tail_moments`). p'p is the closed form of the sum of s^6, which
    rounds about six times less than a cumulative sum does at L = 20,000.
    Knots with q'q below _GUARD_RTOL * p'p are projected explicitly.
    """
    if not len(c):
        return np.empty(0)
    S = _cubic_tail_moments(np.column_stack([r[c[0] - 1:], Q[c[0] - 1:]]))[c - c[0]]
    n = (len(r) - c).astype(float)  # p'p = sum of s^6 for s = 1..n
    pp = n * (n + 1) * (2 * n + 1) * (3 * n**4 + 6 * n**3 - 3 * n + 1) / 42
    qq = pp - np.einsum("ij,ij->i", S[:, 1:], S[:, 1:])
    guard = qq < _GUARD_RTOL * pp
    gain = np.divide(np.square(S[:, 0]), qq, out=np.empty(len(c)), where=~guard)
    if guard.any():
        gain[guard] = _projected_gains(Q, r, c[guard])
    return gain


def _insertion_scores(y: np.ndarray, basis: np.ndarray, free: np.ndarray) -> np.ndarray:
    """MSE of the least-squares fit after adding each free knot, in O(L (k + 5)).

    basis is the design matrix of the current spline space (`_design_matrix`).
    With Q an orthonormal basis of that space and r = y - QQ'y, knot c leaves
    the residual sum of squares RSS - (r'p)^2 / q'q, where p is the direction
    it adds and q'q = p'p - |Q'p|^2 its squared norm projected off Q
    (`_gains`). p is taken on its shorter side, which keeps p'p and hence the
    cancellation small: (t - c)_+^3 right of the middle, and left of it
    (c - t)_+^3, equal to (t - c)_+^3 up to a cubic. That is (t' - c')_+^3 on
    the mirrored grid t' = L + 1 - t, so the left half is scored as the right
    half of the reversed series, in the reversed basis.

    Next to a chosen knot q'q cancels and the rounding of |Q'p|^2 grows by
    p'p / q'q, so knots with q'q below _GUARD_RTOL * p'p are projected
    explicitly (`_projected_gains`); about 3% of them are. Above the guard a
    score can still be off by a few 1e-8 of the current MSE, while the
    shortlist of `greedy_knot_search` admits 1e-6 of the best MSE: the scores
    only choose which knots it refits, and the exact refits decide.
    """
    L = len(y)
    Q = np.linalg.qr(basis)[0]
    r = y - Q @ (Q.T @ y)
    mid = int(np.searchsorted(free, (L + 1) / 2.0))
    left = _gains(Q[::-1], r[::-1], L + 1 - free[:mid][::-1])[::-1]
    gain = np.concatenate([left, _gains(Q, r, free[mid:])])
    return np.maximum(float(r @ r) - gain, 0.0) / L


class DpsTargetError(ValueError):
    """The target series cannot carry a DPS: it is too short, or a cubic
    without knots fits it exactly, so no knot lowers its MSE."""


def greedy_knot_search(series: TargetSeries, k_max: int):
    """Select up to k_max knots, each minimizing the MSE given its predecessors.

    Admissible positions are the interior indices {2, ..., L-1} not already
    chosen; ties go to the smallest index. Returns (ordered_knots, mse_path)
    where mse_path[0] is the knot-free cubic fit.

    ValueError unless k_max is an integer with 1 <= k_max <= L - 5.
    DpsTargetError when the knot-free fit already reaches the shortlist's
    absolute slack: on a constant, linear or cubic series every score ties
    within it, so every stage would refit every index and return knots chosen
    by rounding. The checks run in that order: k_max an integer >= 1, the
    cubic fit, then k_max <= L - 5.

    Each stage scores every admissible index at once (`_insertion_scores`),
    then refits with `fit_cubic_spline` every index whose score lies within
    _SHORTLIST_RTOL relative plus _SHORTLIST_FLOOR * mean(y^2) of the best
    exact MSE found so far, taking them in order of score. The stage keeps the
    smallest exact MSE, the smallest index among equal ones, and that exact
    MSE enters mse_path, so the result is that of refitting every index.

    The scores of a stage are taken in the basis of the previous stage's
    winning refit, the knot-free fit's for stage 1, so the scan builds no
    basis of its own: `_design_matrix` runs once per `fit_cubic_spline`.
    """
    if check_integer(k_max, "k_max") < 1:
        raise ValueError("k_max must be at least 1")
    y = series.values
    floor = _SHORTLIST_FLOOR * float(np.mean(y * y))
    fit = fit_cubic_spline(series, [])
    if fit.mse <= floor:
        raise DpsTargetError("target series is fit exactly by a cubic without knots "
                             "(constant, linear or cubic), so no knot can lower its MSE")
    L = len(series)
    if k_max > L - 5:
        raise ValueError(f"k_max={k_max} exceeds {L - 5}, the fit limit for length {L}")

    knots: list[int] = []
    mse_path = [fit.mse]
    admissible = np.arange(L) >= 2  # by index: the knots 2..L-1 not yet chosen
    for _ in range(k_max):
        free = np.flatnonzero(admissible)
        scores = _insertion_scores(y, fit.basis, free)
        best_idx, best_mse = None, np.inf
        for j in np.argsort(scores, kind="stable"):
            if scores[j] > best_mse * (1.0 + _SHORTLIST_RTOL) + floor:
                break
            cand = int(free[j])
            refit = fit_cubic_spline(series, knots + [cand])
            if refit.mse < best_mse or (refit.mse == best_mse and cand < best_idx):
                best_mse, best_idx, best = refit.mse, cand, refit
        knots.append(best_idx)
        admissible[best_idx] = False
        mse_path.append(best_mse)
        fit = best
    return knots, np.asarray(mse_path)


def select_k_elbow(mse_path) -> tuple[int, bool]:
    """Pick the knot count at the elbow of the MSE path.

    Works on the per-knot-count curve (stage 0 excluded): the elbow is the
    right edge of the first window whose discrete second difference is
    positive, i.e. the count at which the curve has visibly flattened.
    Returns (k_selected, warned); warned is True when no positive curvature
    exists and k_max is returned instead.
    """
    mse_path = np.asarray(mse_path, dtype=float)
    if len(mse_path) < 3:
        raise ValueError("mse_path needs at least 3 entries")
    q = mse_path[1:]  # MSE after 1..k_max knots
    k_max = len(q)
    for i in range(k_max - 2):
        if q[i] - 2.0 * q[i + 1] + q[i + 2] > 0.0:
            return i + 3, False
    return k_max, True


K_MAX_DEFAULT = 10
K_MAX_LEAST = 2  # the elbow cut compares the MSE after at least two knot counts


def build_dps(series: TargetSeries, k_max: int | None = None) -> DpsResult:
    """Full pipeline: greedy knot sequence, MSE path, elbow cut.

    k_max None is the default knot budget, K_MAX_DEFAULT or L - 5 when that
    is smaller. ValueError first unless k_max is None or an integer; then
    DpsTargetError on a series shorter than K_MAX_LEAST + 5 points, which no
    budget fits; then ValueError unless k_max >= K_MAX_LEAST, the least the
    elbow cut reads. The other refusals, k_max above L - 5 and
    the DpsTargetError of a series that a knot-free cubic fits, are
    `greedy_knot_search`'s.
    """
    if k_max is not None:
        check_integer(k_max, "k_max")
    least = K_MAX_LEAST + 5
    if len(series) < least:
        raise DpsTargetError(f"a DPS needs a series of at least {least} points, "
                             f"got {len(series)}")
    if k_max is None:
        k_max = min(K_MAX_DEFAULT, len(series) - 5)
    if k_max < K_MAX_LEAST:
        raise ValueError(f"k_max must be at least {K_MAX_LEAST}, got {k_max}")
    ordered, path = greedy_knot_search(series, k_max)
    k, warned = select_k_elbow(path)
    return DpsResult(ordered_knots=ordered, mse_path=path, k_selected=k,
                     elbow_warning=warned)
