"""Marginal transforms between exponential, uniform, Frechet and Gaussian scales.

All chains in this package carry unit-exponential margins.  Copula kernels
evaluate in other scales, so these maps must stay accurate far into both
tails; every route goes through log-space primitives (`log1p`, `expm1`,
`ndtri_exp`, `log_ndtr`) instead of composing raw CDFs.
"""
import numpy as np
from scipy.special import log_ndtr, ndtri_exp

from .utils import DomainError

# above this point exp(-x) is far below the relative rounding of log1p,
# so the two-term series for -1/log(1 - e^-x) is exact to double precision
_LARGE_X = 30.0
_LN2 = np.log(2.0)


def _log1mexp(x):
    """log(1 - e^-x) for x > 0, to full relative precision.

    Formed as log(-expm1(-x)) below log 2, which stays exact as x -> 0, and
    as log1p(-e^-x) above it (Maechler 2012).
    """
    with np.errstate(divide="ignore"):     # log1p(-1) on the unused branch below 1e-16
        return np.where(x < _LN2, np.log(-np.expm1(-x)), np.log1p(-np.exp(-x)))


def exp_to_frechet(x):
    """Map a unit-exponential value to the heavy-tailed working scale.

    Computes -1/log(1 - e^(-x)), which behaves like e^x - 1/2 for large x.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("exponential-scale argument must be positive")
    small = x <= _LARGE_X
    out = np.empty_like(x)
    xs = np.where(small, x, 1.0)
    out_small = -1.0 / _log1mexp(xs)
    with np.errstate(over="ignore"):
        out_large = np.exp(x) - 0.5
    out[...] = np.where(small, out_small, out_large)
    return out if out.shape else float(out)


def log_exp_to_frechet(x):
    """log of :func:`exp_to_frechet`, stable for arbitrarily large x."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("exponential-scale argument must be positive")
    small = x <= _LARGE_X
    xs = np.where(small, x, 1.0)
    out_small = -np.log(-_log1mexp(xs))
    out_large = x + np.log1p(-0.5 * np.exp(-np.where(small, 1.0, x)))
    out = np.where(small, out_small, out_large)
    return out if out.shape else float(out)


def frechet_to_exp(y):
    """Inverse of :func:`exp_to_frechet`: -log(1 - e^(-1/y))."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise DomainError("argument must be positive")
    out = -np.log(-np.expm1(-1.0 / y))
    return out if out.shape else float(out)


def exp_to_uniform(x):
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("exponential-scale argument must be nonnegative")
    out = -np.expm1(-x)
    return out if out.shape else float(out)


def uniform_to_exp(u):
    u = np.asarray(u, dtype=float)
    if np.any((u < 0) | (u >= 1)):
        raise DomainError("uniform argument must lie in [0, 1)")
    out = -np.log1p(-u)
    return out if out.shape else float(out)


def exp_to_gauss(x):
    """Standard-normal score of a unit-exponential value: ndtri(1 - e^(-x))."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("exponential-scale argument must be positive")
    out = -ndtri_exp(-x)
    return out if out.shape else float(out)


def gauss_to_exp(z):
    """Inverse of :func:`exp_to_gauss`: -log(Phi(-z))."""
    z = np.asarray(z, dtype=float)
    out = -log_ndtr(-z)
    return out if out.shape else float(out)

