"""Multivariate normal orthant probabilities by randomized lattice rules.

Sequential separation-of-variables (Genz-style) evaluation on a Richtmyer
lattice with random shifts.  `mvn_logcdf` runs in log space, so
probabilities deep in the joint tail keep relative accuracy; the returned
error estimate is on the natural probability scale.  `GenzTailCache` sums
its final coordinate on the natural scale, relative to each row's largest
head term, and reads 0 (log -inf) below about 1e-308 of that term.

A row's value depends on its own limits, the covariance and the lattice
alone: each row orders its own variables, +inf limits are marginalized per
row, and rows are blocked by a count fixed by the lattice size.  Each
lattice is computed once per (points, dim, seed, shifts) and shared
read-only.
"""
import functools

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri_exp

from .utils import DomainError, ParameterError, logsumexp

_PRIMES = np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47], dtype=float)
_BLOCK_ENTRIES = 2_000_000   # rows x lattice points per block: bounds memory


def _corr_cholesky(cov):
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ParameterError("covariance must be a square matrix")
    sd = np.sqrt(np.diag(cov))
    if np.any(sd <= 0):
        raise ParameterError("covariance has nonpositive diagonal")
    corr = cov / np.outer(sd, sd)
    try:
        chol = np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        # near-singular correlation: clip tiny negative eigenvalues
        w, v = np.linalg.eigh(corr)
        if w.min() < -1e-8:
            raise ParameterError("covariance is not positive semi-definite")
        w = np.clip(w, 1e-12, None)
        corr = (v * w) @ v.T
        chol = np.linalg.cholesky(corr)
    return sd, corr, chol


# a run uses a few (points, dim, seed, shifts) settings; the bound keeps a
# sweep over seeds from holding every lattice it has seen
@functools.lru_cache(maxsize=64)
def _log_lattices(points, dim, seed, shifts=1):
    """Logs of `shifts` Richtmyer lattices (points, dim), each randomly shifted
    by the next `dim` draws of the stream of `seed`; computed once per
    argument tuple and returned read-only."""
    m = np.arange(1, points + 1)[:, None]
    base = np.mod(m * np.sqrt(_PRIMES[:dim])[None, :], 1.0)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(shifts):
        logw = np.log(np.clip(np.mod(base + rng.random(dim), 1.0), 1e-16, 1.0 - 1e-16))
        logw.flags.writeable = False
        out.append(logw)
    return tuple(out)


def _genz_head(b, chol, logw):
    """Sequential conditioning over the h columns of `b` (B, h), with per-row
    Cholesky factors `chol` (B, h + 1, h + 1), on lattice logs `logw`
    (M, >= h): the log product of the h conditional probabilities (B, M) and
    the conditional mean of coordinate h given the h draws (B, M)."""
    n_b, h = b.shape
    logprod = np.zeros((n_b, logw.shape[0]))
    mean = np.zeros((n_b, logw.shape[0]))
    y = np.empty((n_b, logw.shape[0], h))
    for i in range(h):
        loge = log_ndtr((b[:, i][:, None] - mean) / chol[:, i, i][:, None])
        logprod = logprod + loge
        y[:, :, i] = ndtri_exp(logw[None, :, i] + loge)
        mean = np.einsum("bj,bmj->bm", chol[:, i + 1, :i + 1], y[:, :, :i + 1])
    return logprod, mean


def _genz_pass(b, chol, logw):
    """One pass over fixed limits `b` (B, d) on lattice logs `logw`; returns
    (B,) log estimates."""
    step = max(1, _BLOCK_ENTRIES // logw.shape[0])
    out = np.empty(b.shape[0])
    for start in range(0, b.shape[0], step):
        blk, c = b[start:start + step], chol[start:start + step]
        logprod, mean = _genz_head(blk[:, :-1], c, logw)
        logprod = logprod + log_ndtr((blk[:, -1][:, None] - mean) / c[:, -1, -1][:, None])
        out[start:start + step] = logsumexp(logprod, axis=1)
    return out - np.log(logw.shape[0])


def _finite_logcdf(b, corr, points, shifts, seed):
    """(log P, error) for rows of finite standardized limits `b` (B, d) under
    correlation `corr`.  Each row takes its variables most-truncating first,
    in the order of its own limits (Genz & Bretz's simple reordering), with
    its own Cholesky factor."""
    if b.shape[1] == 1:
        return log_ndtr(b[:, 0]), np.zeros(b.shape[0])
    order = np.argsort(b, axis=1, kind="stable")
    b = np.take_along_axis(b, order, axis=1)
    chol = np.linalg.cholesky(corr[order[:, :, None], order[:, None, :]])
    # (rows, shifts), C-ordered: each row reduces its own shifts contiguously
    per_shift = np.stack([_genz_pass(b, chol, logw)
                          for logw in _log_lattices(points, b.shape[1] - 1, seed, shifts)],
                         axis=1)
    logp = logsumexp(per_shift, axis=1) - np.log(shifts)
    if shifts < 2:
        return logp, np.full(b.shape[0], np.nan)
    return logp, 3.5 * np.exp(per_shift).std(axis=1, ddof=1) / np.sqrt(shifts)


def mvn_logcdf(upper, cov, points=2048, shifts=8, seed=0):
    """log P(Z <= upper) for Z ~ N(0, cov), batched over leading axes; each
    row's result is independent of the other rows.

    Parameters
    ----------
    upper : array (..., d); +inf entries are marginalized out of their row,
        and a row with a -inf entry has log-probability -inf
    cov : (d, d) positive definite
    points, shifts : lattice size and number of random shifts
    seed : seed of the shift stream; a fixed seed makes the value a
        deterministic smooth function of `upper`

    Returns
    -------
    (logp, err) with shapes (...,); `err` estimates the absolute error of
    exp(logp) as 3.5 standard errors over the random shifts (NaN with one
    shift, 0 where the value is exact).
    """
    upper = np.asarray(upper, dtype=float)
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    d = cov.shape[0]
    if upper.shape[-1:] != (d,):
        raise DomainError(f"upper must have last dimension {d}")
    if np.any(np.isnan(upper)):
        raise DomainError("upper contains NaN")
    sd, corr, _ = _corr_cholesky(cov)

    batch_shape = upper.shape[:-1]
    b2 = upper.reshape(-1, d) / sd
    logp = np.zeros(b2.shape[0])
    err = np.zeros(b2.shape[0])
    empty = np.isneginf(b2).any(axis=1)
    logp[empty] = -np.inf
    free = np.isposinf(b2)
    # rows sharing a +inf pattern are evaluated together on their margin
    pattern = np.where(empty, -1, free @ (1 << np.arange(d)))
    for code in np.unique(pattern[~empty]):
        rows = np.where(pattern == code)[0]
        keep = np.where(~free[rows[0]])[0]
        if keep.size:
            logp[rows], err[rows] = _finite_logcdf(b2[np.ix_(rows, keep)],
                                                   corr[np.ix_(keep, keep)],
                                                   points, shifts, seed)
    return logp.reshape(batch_shape), err.reshape(batch_shape)


def mvn_cdf(upper, cov, points=2048, shifts=8, seed=0):
    """Natural-scale wrapper around :func:`mvn_logcdf`."""
    logp, err = mvn_logcdf(upper, cov, points=points, shifts=shifts, seed=seed)
    return np.exp(logp), err


class GenzTailCache:
    """Partial Genz integration leaving the final coordinate free.

    For Phi_d(v; C) with v = (v_head, v_last): integrate coordinates
    0..d-2 once for fixed per-row `v_head`, then evaluate cheaply for many
    `v_last` vectors.  Transition-kernel inversion uses this: only the
    candidate next-state coordinate moves between root-finding iterations.

    A call sums exp(log_head - top) * Phi(final limit) over a row's lattice
    points, `top` being the row's largest head term (0 if all are -inf):
    positive terms, so a few ulp of relative error.  A row below about
    1e-308 * exp(top), hence below 1e-308 of its value at v_last = +inf,
    underflows to -inf.
    """

    def __init__(self, cov, v_head, points=96, seed=0):
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        self.d = cov.shape[0]
        sd, _, chol = _corr_cholesky(cov)
        self.sd = sd
        self.chol = chol
        if self.d == 1:
            self.log_head = None
            return
        b = np.asarray(v_head, dtype=float) / sd[:-1]
        (logw,) = _log_lattices(points, self.d - 1, seed)
        self.log_head, self.mean_last = _genz_head(                 # (B, M) each
            b, np.broadcast_to(chol, (b.shape[0],) + chol.shape), logw)
        # a point of zero weight keeps a finite mean, so that a limit of
        # +-inf never meets an infinite mean there
        self.mean_last[np.isneginf(self.log_head)] = 0.0
        top = self.log_head.max(axis=1)
        self.top = np.where(np.isneginf(top), 0.0, top)              # (B,)
        self.n_points = points

    def logcdf(self, v_last, rows=None):
        """Final-coordinate limits -> log Phi_d values, optionally row-subset."""
        v = np.asarray(v_last, dtype=float) / self.sd[-1]
        if self.d == 1:
            return log_ndtr(v)
        if rows is None:
            head, mean, top = self.log_head, self.mean_last, self.top
        else:
            head, mean, top = self.log_head[rows], self.mean_last[rows], self.top[rows]
        w = np.exp(head - top[:, None])
        s = (w * ndtr((v[:, None] - mean) / self.chol[-1, -1])).sum(axis=1)
        with np.errstate(divide="ignore"):
            return np.log(s) + top - np.log(self.n_points)
