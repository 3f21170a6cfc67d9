"""Monte Carlo validation connecting conditioned chains to their tail limits.

Renormalization of conditioned ensembles, Kolmogorov-Smirnov distances,
quantile bands, tail-dependence coefficient estimation, and the
convergence-in-threshold diagnostics that compare finite-threshold
conditioned chains against the limiting hidden tail chains.
"""
import json
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .kernels import kernel_cdf, simulate_conditioned_chain
from .tail_chain import simulate_hidden_tail_chain
from .transforms import uniform_to_exp
from .utils import DomainError, ParameterError


def renormalize(ensemble, tail_model):
    """Map a conditioned ensemble onto the tail chain's scale.

    Column 0 becomes X_0 - u (exactly unit exponential); column t becomes
    (X_t - alpha_t X_0) / X_0^beta_t with the tail model's norming
    sequences.  Difference norming (alpha_t = 1, beta_t = 0) gives X_t - X_0
    and scale-only norming (alpha_t = 0) X_t / X_0^beta_t, exactly in
    floating point.
    """
    if ensemble.u is None:
        raise DomainError("ensemble must be conditioned (carry a threshold u)")
    if ensemble.norming != "none":
        raise DomainError("ensemble is already renormalized")
    data = ensemble.data
    T = data.shape[1] - 1
    x0 = data[:, 0]
    out = np.empty_like(data)
    out[:, 0] = x0 - ensemble.u
    t = np.arange(1, T + 1)
    kind = tail_model.norming
    if kind not in ("location-scale", "difference", "scale-only"):
        raise ParameterError(f"unknown norming type {kind!r}")
    alpha = tail_model.alpha_seq(T)[t]
    beta = tail_model.beta_seq(T)[t]
    out[:, 1:] = (data[:, 1:] - alpha[None, :] * x0[:, None]) \
        / x0[:, None] ** beta[None, :]
    res = ensemble.with_data(out, norming=kind)
    res.extras["renormalized_against"] = tail_model.descriptor()
    return res


def ks_distance(sample, reference):
    """Sup-norm distance between an empirical CDF and a reference.

    `reference` is either a callable CDF (one-sample) or a second sample
    (two-sample, evaluated on the pooled grid).
    """
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.shape[0]
    if n == 0:
        raise DomainError("empty sample")
    if callable(reference):
        f = np.asarray(reference(x), dtype=float)
        up = np.arange(1, n + 1) / n
        dn = np.arange(0, n) / n
        return float(max(np.max(up - f), np.max(f - dn)))
    y = np.sort(np.asarray(reference, dtype=float))
    m = y.shape[0]
    if m == 0:
        raise DomainError("empty reference sample")
    pooled = np.concatenate([x, y])
    fx = np.searchsorted(x, pooled, side="right") / n
    fy = np.searchsorted(y, pooled, side="right") / m
    return float(np.max(np.abs(fx - fy)))


def quantile_bands(ensemble, probs=(0.025, 0.5, 0.975)):
    """Per-time-lag empirical quantiles and mean (finite values only).

    Returns a dict with keys "t", "mean", "q{prob}", and, when the ensemble
    carries mode bookkeeping, "atom_mass" (the per-lag fraction of active
    replicates whose location view sits at an infinite atom).
    """
    probs = tuple(float(p) for p in probs)
    if any(not (0.0 < p < 1.0) for p in probs):
        raise DomainError("band probabilities must lie in (0,1)")
    data = ensemble.data
    T = data.shape[1] - 1
    out = {"t": np.arange(T + 1, dtype=float)}
    mean = np.full(T + 1, np.nan)
    qs = np.full((len(probs), T + 1), np.nan)
    for t in range(T + 1):
        col = data[:, t]
        col = col[np.isfinite(col)]
        if col.size:
            mean[t] = col.mean()
            qs[:, t] = np.quantile(col, probs)
    out["mean"] = mean
    for i, p in enumerate(probs):
        out[f"q{p:g}"] = qs[i]
    if "atom_flag" in ensemble.extras:
        flags = ensemble.extras["atom_flag"]
        modes = ensemble.extras.get("modes")
        active = modes >= 0 if modes is not None else np.isfinite(data)
        with np.errstate(invalid="ignore"):
            out["atom_mass"] = np.where(active.sum(axis=0) > 0,
                                        (flags == 1).sum(axis=0)
                                        / np.maximum(active.sum(axis=0), 1), np.nan)
    return out


@dataclass
class ChiEstimate:
    """Monte Carlo estimate of a joint tail-dependence coefficient."""

    value: float
    se: float
    n: int
    lags: tuple
    level: float

    def to_dict(self):
        return {"chi": self.value, "se": self.se, "n": self.n,
                "lags": list(self.lags), "level": self.level}


def chi_from_paths(paths, lags, level):
    """chi estimated from paths already conditioned on column 0 exceeding."""
    paths = np.asarray(paths, dtype=float)
    lags = tuple(int(j) for j in lags)
    if not lags or min(lags) < 1:
        raise DomainError("lag set must be nonempty with lags >= 1")
    x_u = uniform_to_exp(level)
    sel = paths[:, 0] > x_u
    if not np.any(sel):
        raise DomainError("no replicate exceeds the threshold in column 0")
    joint = np.all(paths[sel][:, list(lags)] > x_u, axis=1)
    n = int(joint.shape[0])
    p = float(joint.mean())
    if n * p < 50:
        warnings.warn(f"only {n * p:.0f} expected joint exceedances at level "
                      f"{level}; chi estimate is unstable")
    se = float(np.sqrt(max(p * (1 - p), 1e-300) / n))
    return ChiEstimate(value=p, se=se, n=n, lags=lags, level=level)


def chi_estimate(model, lags, level, n, seed):
    """MC estimate of P(all lagged exceedances | initial exceedance).

    Levels are uniform-scale quantiles near 1; conditioned starts make the
    initial exceedance exact, so `n` replicates all contribute.
    """
    if not (0.0 < level < 1.0):
        raise DomainError("level must lie in (0,1)")
    lags = tuple(int(j) for j in lags)
    T = max(max(lags), model.k)
    x_u = uniform_to_exp(level)
    ens = simulate_conditioned_chain(model, x_u, T, n, seed)
    return chi_from_paths(ens.data, lags, level)


@dataclass
class ConvergenceReport:
    """Two-sample KS distances between renormalized and limiting ensembles.

    `decreasing` is the strict per-lag monotone-decay flag.  Two-sample KS
    values cannot fall below the Monte Carlo floor ~1.36 sqrt(2/n), so once
    a family has converged the strict flag compares noise against noise;
    `decreasing_tol` therefore allows increases up to half the 95% KS band
    and is the sharpest decay statement testable at this sample size.
    """

    model: str
    tail_model: str
    u_grid: tuple
    lags: tuple
    ks: np.ndarray                 # shape (len(u_grid), len(lags))
    n: int
    seed: int
    tolerance: float
    runtime_s: float
    decreasing: np.ndarray = field(init=False)       # per lag, strict
    decreasing_tol: np.ndarray = field(init=False)   # per lag, noise-tolerant
    final_pass: np.ndarray = field(init=False)       # per lag

    def __post_init__(self):
        self.decreasing = np.all(np.diff(self.ks, axis=0) < 0, axis=0)
        band = 0.5 * 1.358 * np.sqrt(2.0 / self.n)
        self.decreasing_tol = np.all(np.diff(self.ks, axis=0) < band, axis=0)
        self.final_pass = self.ks[-1] < self.tolerance

    def to_dict(self):
        return {"model": self.model, "tail_model": self.tail_model,
                "u_grid": list(self.u_grid), "lags": list(self.lags),
                "ks": self.ks.tolist(),
                "decreasing": self.decreasing.astype(bool).tolist(),
                "decreasing_tol": self.decreasing_tol.astype(bool).tolist(),
                "final_pass": self.final_pass.astype(bool).tolist(),
                "n": self.n, "seed": self.seed, "tolerance": self.tolerance,
                "runtime_s": self.runtime_s}

    def to_json(self, **kw):
        return json.dumps(self.to_dict(), **kw)


def convergence_diagnostic(model, tail_model, u_grid=(3.0, 6.0, 9.0), lags=None,
                           n=10_000, seed=0, tolerance=0.05):
    """Simulate, renormalize, and compare against the tail chain per threshold.

    For each u in the grid the conditioned ensemble is renormalized with the
    tail model's norming and compared lag by lag (two-sample KS) against a
    hidden-tail-chain ensemble of the same size.
    """
    lags = tuple(range(1, 2 * model.k + 1)) if lags is None else tuple(lags)
    T = max(lags)
    t0 = time.perf_counter()
    limit = simulate_hidden_tail_chain(tail_model, T, n, seed=seed + 1)
    ks = np.empty((len(u_grid), len(lags)))
    for i, u in enumerate(u_grid):
        ens = simulate_conditioned_chain(model, u, T, n, seed)
        ren = renormalize(ens, tail_model)
        for j, lag in enumerate(lags):
            ks[i, j] = ks_distance(ren.data[:, lag], limit.data[:, lag])
    return ConvergenceReport(model=model.descriptor(),
                             tail_model=tail_model.descriptor(),
                             u_grid=tuple(u_grid), lags=lags, ks=ks, n=n,
                             seed=seed, tolerance=tolerance,
                             runtime_s=time.perf_counter() - t0)


def kernel_limit_gap(model, tail_model, u, x_grid):
    """Sup gap between the finite-level renormalized kernel CDF and its limit.

    Conditions the kernel on states pinned at the norming curve at the
    theorem's anchor (limit-scale value 0 for location normings, 1 for pure
    scale norming), evaluates at the limit-scale grid, and compares against
    the innovation law's CDF.
    """
    k = model.k
    x_grid = np.asarray(x_grid, dtype=float)
    t = np.arange(k)
    anchor = 1.0 if tail_model.norming == "scale-only" else 0.0
    states = tail_model.alpha_seq(k)[t] * u + u ** tail_model.beta_seq(k)[t] * anchor
    states[0] = u
    eval_pts = tail_model.a_fn(states) + tail_model.b_fn(states) * x_grid
    fin = kernel_cdf(model, np.tile(states, (x_grid.size, 1)), eval_pts)
    lim = tail_model.innovation.cdf(x_grid)
    return float(np.max(np.abs(fin - lim))), np.asarray(fin), np.asarray(lim)
