"""Shared plumbing: error types, seed splitting, small array helpers."""
import numpy as np


class ParameterError(ValueError):
    """Model or distribution parameters violate their constraints."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class BracketError(RuntimeError):
    """Numerical inversion could not bracket the target probability."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge."""


class RootClusterAmbiguity(RuntimeError):
    """Root multiplicity detection found two plausible groupings.

    Carries both candidate groupings so the caller can decide.
    """

    def __init__(self, message, groupings):
        super().__init__(message)
        self.groupings = groupings


def replicate_rng(master_seed, r):
    """Generator for replicate/chunk index `r` under `master_seed`."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(r,)))


def logsumexp(a, axis):
    """log(sum(exp(a))) along `axis`: scipy.special.logsumexp's arithmetic for
    real input step for step, so bit-identical, without its array-API
    dispatch, which costs more than the sums on the kernels' batches."""
    a = np.asarray(a, dtype=float)
    a_max = a.max(axis=axis, keepdims=True)
    top = a == a_max
    m = top.sum(axis=axis, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.exp(np.where(top, -np.inf, a) - a_max).sum(axis=axis, keepdims=True)
        out = np.log1p(np.where(s == 0, s, s / m)) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if bad.any():
            out = np.where(bad, np.log(np.exp(a).sum(axis=axis, keepdims=True)), out)
    return np.squeeze(out, axis=axis)[()]


def as_batch(x, width):
    """Coerce `x` to a 2-d float array with `width` columns.

    Returns (arr, was_1d) where arr has shape (n, width).
    """
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        if a.shape[0] != width:
            raise DomainError(f"expected a length-{width} state, got {a.shape[0]}")
        return a[None, :], True
    if a.ndim != 2 or a.shape[1] != width:
        raise DomainError(f"expected shape (n, {width}), got {a.shape}")
    return a, False


def format_float(x):
    """Fixed CSV float format: 17 significant digits."""
    return f"{float(x):.17g}"
