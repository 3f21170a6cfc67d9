"""Multivariate normal orthant probabilities by randomized lattice rules.

Sequential separation-of-variables (Genz-style) evaluation on a Richtmyer
lattice with random shifts.  Everything runs in log space so probabilities
deep in the joint tail keep relative accuracy; the returned error estimate
is on the natural probability scale.
"""
import numpy as np
from scipy.special import log_ndtr, ndtri_exp

from .utils import DomainError, ParameterError, logsumexp

_PRIMES = np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47], dtype=float)


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
    return sd, chol


def _lattice(n_points, dim, rng):
    m = np.arange(1, n_points + 1)[:, None]
    base = np.mod(m * np.sqrt(_PRIMES[:dim])[None, :], 1.0)
    shift = rng.random(dim)
    return np.clip(np.mod(base + shift, 1.0), 1e-16, 1.0 - 1e-16)


def _genz_head(b, chol, logw):
    """Sequential conditioning over the h columns of `b` (B, h) on lattice logs
    `logw` (M, >= h): the log product of the h conditional probabilities
    (B, M) and the h conditioned normal draws (B, M, h)."""
    n_b, h = b.shape
    loge = np.broadcast_to(log_ndtr(b[:, 0] / chol[0, 0])[:, None],
                           (n_b, logw.shape[0])).copy()
    logprod = loge.copy()
    y = np.empty((n_b, logw.shape[0], h))
    y[:, :, 0] = ndtri_exp(logw[None, :, 0] + loge)
    for i in range(1, h):
        mean_i = np.einsum("j,bmj->bm", chol[i, :i], y[:, :, :i])
        loge = log_ndtr((b[:, i][:, None] - mean_i) / chol[i, i])
        logprod = logprod + loge
        y[:, :, i] = ndtri_exp(logw[None, :, i] + loge)
    return logprod, y


def _genz_pass(b, chol, w):
    """One lattice pass over fixed limits `b` (B, d); returns (B,) log estimates."""
    n_b = b.shape[0]
    total = np.full(n_b, -np.inf)
    step = max(1, int(2_000_000 / max(n_b, 1)))
    for start in range(0, w.shape[0], step):
        logprod, y = _genz_head(b[:, :-1], chol, np.log(w[start:start + step]))
        mean_last = np.einsum("j,bmj->bm", chol[-1, :-1], y)
        logprod = logprod + log_ndtr((b[:, -1][:, None] - mean_last) / chol[-1, -1])
        total = np.logaddexp(total, logsumexp(logprod, axis=1))
    return total - np.log(w.shape[0])


def mvn_logcdf(upper, cov, points=2048, shifts=8, seed=0, target_error=None,
               max_points=131072):
    """log P(Z <= upper) for Z ~ N(0, cov), batched over leading axes.

    Parameters
    ----------
    upper : array (..., d); entries may be +inf (marginalized out when the
        whole batch shares them)
    cov : (d, d) positive definite
    points, shifts : lattice size and number of random shifts
    seed : seed of the shift stream; a fixed seed makes the value a
        deterministic smooth function of `upper`
    target_error : optional absolute accuracy; the lattice is refined
        (up to `max_points`) until the estimate drops below it

    Returns
    -------
    (logp, err) with shapes (...,); `err` estimates the absolute error of
    exp(logp) as 3.5 standard errors over the random shifts.
    """
    upper = np.asarray(upper, dtype=float)
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    d = cov.shape[0]
    if upper.shape[-1:] != (d,):
        raise DomainError(f"upper must have last dimension {d}")
    if np.any(np.isnan(upper)):
        raise DomainError("upper contains NaN")

    batch_shape = upper.shape[:-1]
    b2 = upper.reshape(-1, d)
    at_inf = np.all(np.isposinf(b2), axis=0)
    if np.any(at_inf):
        keep = np.where(~at_inf)[0]
        if keep.size == 0:
            z = np.zeros(batch_shape)
            return z, np.zeros(batch_shape)
        logp, err = mvn_logcdf(b2[:, keep], cov[np.ix_(keep, keep)],
                               points=points, shifts=shifts, seed=seed,
                               target_error=target_error, max_points=max_points)
        return logp.reshape(batch_shape), err.reshape(batch_shape)

    sd, chol = _corr_cholesky(cov)
    b2 = b2 / sd
    if d == 1:
        logp = log_ndtr(b2[:, 0])
        return logp.reshape(batch_shape), np.zeros(batch_shape)

    # most-truncating variables first (mean-limit ordering across the batch)
    perm = np.argsort(np.where(np.isposinf(b2), 40.0, b2).mean(axis=0))
    corr = (cov / np.outer(sd, sd))[np.ix_(perm, perm)]
    chol = _corr_cholesky(corr)[1]
    b2 = b2[:, perm]

    while True:
        rng = np.random.default_rng(seed)
        per_shift = np.empty((shifts, b2.shape[0]))
        for s in range(shifts):
            per_shift[s] = _genz_pass(b2, chol, _lattice(points, d - 1, rng))
        logp = logsumexp(per_shift, axis=0) - np.log(shifts)
        if shifts > 1:
            vals = np.exp(per_shift)
            err = 3.5 * vals.std(axis=0, ddof=1) / np.sqrt(shifts)
        else:
            err = np.full(b2.shape[0], np.nan)
        if (target_error is None or shifts < 2 or points >= max_points
                or np.all(err <= target_error)):
            break
        points *= 4
    return logp.reshape(batch_shape), err.reshape(batch_shape)


def mvn_cdf(upper, cov, points=2048, shifts=8, seed=0, target_error=None,
            max_points=131072):
    """Natural-scale wrapper around :func:`mvn_logcdf`."""
    logp, err = mvn_logcdf(upper, cov, points=points, shifts=shifts, seed=seed,
                           target_error=target_error, max_points=max_points)
    return np.exp(logp), err


class GenzTailCache:
    """Partial Genz integration leaving the final coordinate free.

    For Phi_d(v; C) with v = (v_head, v_last): integrate coordinates
    0..d-2 once for fixed per-row `v_head`, then evaluate cheaply for many
    `v_last` vectors.  Transition-kernel inversion uses this: only the
    candidate next-state coordinate moves between root-finding iterations.
    """

    def __init__(self, cov, v_head, points=96, seed=0):
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        self.d = cov.shape[0]
        sd, chol = _corr_cholesky(cov)
        self.sd = sd
        self.chol = chol
        if self.d == 1:
            self.log_head = None
            return
        b = np.asarray(v_head, dtype=float) / sd[:-1]
        logw = np.log(_lattice(points, self.d - 1, np.random.default_rng(seed)))
        self.log_head, y = _genz_head(b, chol, logw)                # (B, M)
        self.mean_last = np.einsum("j,bmj->bm", chol[-1, :-1], y)  # (B, M)
        self.n_points = points

    def logcdf(self, v_last, rows=None):
        """Final-coordinate limits -> log Phi_d values, optionally row-subset."""
        v = np.asarray(v_last, dtype=float) / self.sd[-1]
        if self.d == 1:
            return log_ndtr(v)
        head = self.log_head if rows is None else self.log_head[rows]
        mean = self.mean_last if rows is None else self.mean_last[rows]
        final = log_ndtr((v[:, None] - mean) / self.chol[-1, -1])
        return logsumexp(head + final, axis=1) - np.log(self.n_points)
