"""Transition kernels of k-th order Markov chains in unit-exponential margins.

Three kernel constructions share one public surface:

* Gaussian copula driven by a Toeplitz correlation (closed-form conditionals),
* max-stable copulas built from an exponent measure (conditional CDFs are
  ratios of partition sums of the measure's mixed partials),
* inverted max-stable copulas (the same partition ratio at the argument map
  x -> -log x, complemented).

Both max-stable kinds share one slice, `_PartitionSlice`; its denominator is
the numerator at next state +inf, evaluated exactly.  Partition sums run
entirely in log space: every partition term is nonnegative because mixed
partials of valid exponent measures are nonpositive, so the sums are
cancellation-free, and a zero partial's -inf log term needs no mask.  The
measure supplies the sum and V in one evaluator (`partition_tail_evaluator`):
the logistic families collapse the Bell-number sum over partitions to k
terms, one per block count, and the other two add every partition's terms
by `_PartitionScheme`, Husler-Reiss taking V from the sum's singletons.  A
slice's CDF value for a row depends on that row's states and argument
alone, so the slice builds its evaluator once per distinct state row: a
batch that repeats one state, as `mc_lab.kernel_limit_gap` does, costs one
row to build.
Every slice has `cdf(x, rows=None)` and `quantile(prob, tol)`: sampling is
inverse-CDF.  Each row's bracket comes from a binary search over a fixed
grid (at most 4 CDF row-evaluations), then vectorized Chandrupatla steps
(inverse-quadratic interpolation safeguarded by bisection) in log x and
logit F refine it, from the CDF values the search already holds; both fail
loudly on non-finite CDF values.  The Gaussian kernel inverts exactly.
Chains are simulated serially in chunks of CHUNK_SIZE replicates, each with
its own RNG stream.
"""
import numpy as np
from scipy.linalg import toeplitz
from scipy.special import ndtr, ndtri

from .measures import (AsymLogisticMeasure, HuslerReissMeasure, LogisticMeasure)
from .paths import PathEnsemble
from .transforms import exp_to_gauss, gauss_to_exp, log_exp_to_frechet
from .utils import (BracketError, DomainError, NumericalError, ParameterError,
                    as_batch, replicate_rng)

MAX_ORDER = 6          # Bell-number growth of the partition sums
BRACKET_HIGH = 60.0    # exponential margins: P(X > 60) < 1e-26
DEFAULT_PROB_TOL = 1e-10
CHUNK_SIZE = 2048      # replicates per RNG stream; sampled values depend on it
# ensemble inversion tolerance: far below any ensemble statistic's resolution
ENSEMBLE_PROB_TOL = 1e-5

# quadrature accuracy by use: ensemble sampling tolerates coarse lattices,
# direct CDF evaluation gets the measure's full configured accuracy
_GRADES = {"sampling": dict(kernel_points=24),
           "accurate": dict(kernel_points=1024)}


def _graded(measure, grade):
    if grade not in _GRADES:
        raise ParameterError(f"unknown accuracy grade {grade!r}")
    return measure.with_accuracy(**_GRADES[grade])


# ---------------------------------------------------------------------------
# models

class MarkovModel:
    """Base class: a stationary k-th order chain in unit-exponential margins."""

    k = None

    def kernel_slice(self, states):
        """Conditional-CDF evaluator of the next state given `states` (n, k)."""
        raise NotImplementedError

    def initial_slice(self, j, states):
        """Conditional-CDF evaluator of X_j given X_0..X_{j-1} (initial copula)."""
        raise NotImplementedError

    def descriptor(self):
        raise NotImplementedError


class _GaussianSlice:
    def __init__(self, weights, sd, states):
        z = exp_to_gauss(states)
        # a column sum in fixed order, so a row's mean ignores the rest of the batch
        self.mean = sum(z[:, j] * w for j, w in enumerate(weights))
        self.sd = sd

    def cdf(self, x, rows=None):
        mean = self.mean if rows is None else self.mean[rows]
        out = np.zeros(np.shape(x))
        pos = np.asarray(x) > 0
        if np.any(pos):
            zx = exp_to_gauss(np.asarray(x, dtype=float)[pos])
            out[pos] = ndtr((zx - mean[pos]) / self.sd)
        return out

    def quantile(self, prob, tol=DEFAULT_PROB_TOL):
        # exact inverse; `tol` is accepted for the common slice interface
        z = self.mean + self.sd * ndtri(np.clip(prob, 1e-300, 1 - 1e-16))
        return gauss_to_exp(z)


class GaussianCopulaModel(MarkovModel):
    """Gaussian-copula kernel from a Toeplitz correlation (1, rho_1..rho_k).

    Kernel arithmetic happens in Gaussian margins via stable quantile maps,
    never by composing the exponential-scale CDFs directly.
    """

    def __init__(self, rho):
        rho = np.asarray(rho, dtype=float)
        if rho.ndim != 1 or rho.size < 1:
            raise ParameterError("rho must be a nonempty vector rho_1..rho_k")
        if np.any(rho <= 0):
            raise ParameterError("all rho_i must be positive")
        self.rho = rho
        self.k = rho.size
        self.sigma = toeplitz(np.concatenate([[1.0], rho]))
        try:
            np.linalg.cholesky(self.sigma)
        except np.linalg.LinAlgError:
            raise ParameterError("Toeplitz correlation is not positive definite")
        self.precision = np.linalg.inv(self.sigma)
        q = self.precision
        self._weights = -q[:-1, -1] / q[-1, -1]
        self._sd = 1.0 / np.sqrt(q[-1, -1])
        self._init = []
        for j in range(1, self.k):
            sub = self.sigma[:j + 1, :j + 1]
            w = np.linalg.solve(sub[:j, :j], sub[:j, j])
            var = sub[j, j] - sub[j, :j] @ w
            self._init.append((w, np.sqrt(var)))

    def kernel_slice(self, states, grade="accurate"):
        states, _ = as_batch(states, self.k)
        return _GaussianSlice(self._weights, self._sd, states)

    def initial_slice(self, j, states, grade="accurate"):
        w, sd = self._init[j - 1]
        states, _ = as_batch(states, j)
        return _GaussianSlice(w, sd, states)

    def descriptor(self):
        return f"gaussian(rho={np.array2string(self.rho, separator=',')})"


class _PartitionSlice:
    """P(X_k <= x | states) as a log-space ratio of partition sums.

    The slice's one evaluator, the measure's `partition_tail_evaluator`,
    gives the numerator, the log partition sum of the mixed partials over
    the k conditioning coordinates as the next coordinate varies, and V.
    The denominator and `v_marg` are its values at next coordinate +inf,
    taken exactly, so quadrature bias largely cancels in the ratio.
    Subclasses supply `_arg`, the map from the exponential scale to the
    measure's log coordinates.

    The evaluator, `log_den` and `v_marg` hold each distinct state row once
    (rows equal byte for byte), and input row i reads their row
    `distinct[i]`; `n`, `state_max` and the `rows` of `cdf` count input rows.

    `perfbench/spans.py` instruments the slices by name, so these must hold:
    `_MaxStableSlice`, `_InvertedSlice` and `_GaussianSlice` each define their
    own `__init__` and `cdf` (it patches the class `__dict__`, plus
    `_GaussianSlice.quantile`); a slice's row count is `self.n`
    (`len(self.mean)` for `_GaussianSlice`); `quantile` reaches
    `_invert_slice` as a module global; and `ExponentMeasure` and
    `HuslerReissMeasure` define `partial_tail_evaluator` (which the default
    `partition_tail_evaluator` calls) and `value_tail_evaluator`, whose
    evaluators take the last-coordinate logs as their first argument.
    """

    def __init__(self, measure, states):
        self.k = k = measure.dim - 1
        states, _ = as_batch(states, k)
        self.n = states.shape[0]
        self.state_max = states.max(axis=1)
        # rows compared by their bytes, so -0.0 and 0.0 stay apart
        as_bytes = np.ascontiguousarray(states).view(np.dtype((np.void, states.itemsize * k)))
        _, first, self.distinct = np.unique(as_bytes[:, 0], return_index=True,
                                            return_inverse=True)
        self.tail_ev = measure.partition_tail_evaluator(self._arg(states[first]))
        self.log_den, self.v_marg = self.tail_ev(np.full(first.size, np.inf))

    def _log_ratio(self, x, rows):
        """Unclipped log of the ratio at positive `x` for the index array `rows`
        of input rows."""
        logy_k = self._arg(x)
        rows = self.distinct[rows]
        log_num, v_full = self.tail_ev(logy_k, rows=rows)
        return log_num - self.log_den[rows] + (self.v_marg[rows] - v_full)

    def _ratio(self, x, rows):
        x = np.asarray(x, dtype=float)
        out = np.zeros(self.n if rows is None else len(rows))
        pos = x > 0
        if not np.any(pos):
            return out
        sub = np.where(pos)[0]
        rsub = sub if rows is None else np.asarray(rows)[sub]
        ratio = np.exp(np.minimum(self._log_ratio(x[sub], rsub), 0.0))
        out[pos] = 1.0 - ratio if self.complement else ratio
        return out

    def quantile(self, prob, tol=DEFAULT_PROB_TOL):
        return _invert_slice(self, prob, tol=tol)


class _MaxStableSlice(_PartitionSlice):
    """Max-stable kernel: the measure at log-Frechet coordinates."""

    complement = False

    def __init__(self, measure, states):
        super().__init__(measure, states)

    def _arg(self, x):
        return log_exp_to_frechet(x)

    def cdf(self, x, rows=None):
        return self._ratio(x, rows)


class _InvertedSlice(_PartitionSlice):
    """Inverted max-stable kernel, through W(x) = V(1/x).

    The survivor function's partition sums share the max-stable structure at
    coordinates -log x (the Jacobian, -2 log x per differentiated coordinate,
    is the same in every partition and cancels in the ratio); the ratio is
    the conditional survivor and the CDF its complement.  The limit
    x_k -> 0+ (coordinate +inf) marginalizes the next coordinate out of the
    survivor.
    """

    complement = True

    def __init__(self, measure, states):
        super().__init__(measure, states)

    def _arg(self, x):
        return -np.log(x)

    def cdf(self, x, rows=None):
        return self._ratio(x, rows)


class MaxStableModel(MarkovModel):
    """Markov kernel induced by a (k+1)-dimensional max-stable copula."""

    slice_class = _MaxStableSlice
    kind = "max_stable"

    def __init__(self, measure):
        k = measure.dim - 1
        if k < 1:
            raise ParameterError("measure dimension must be at least 2")
        if k > MAX_ORDER:
            raise ParameterError(
                f"order {k} exceeds the cap {MAX_ORDER} (partition count "
                "grows like Bell numbers)")
        self.measure = measure
        self.k = k

    def kernel_slice(self, states, grade="accurate"):
        return self.slice_class(_graded(self.measure, grade), states)

    def initial_slice(self, j, states, grade="accurate"):
        return self.slice_class(_graded(self.measure, grade).margin(range(j + 1)), states)

    def descriptor(self):
        return f"{self.kind}({self.measure.descriptor()})"


class InvertedMaxStableModel(MaxStableModel):
    """Markov kernel of an inverted max-stable distribution."""

    slice_class = _InvertedSlice
    kind = "inverted_max_stable"


# convenience constructors ---------------------------------------------------

def gaussian_model(rho):
    return GaussianCopulaModel(rho)


def logistic_model(alpha, k):
    return MaxStableModel(LogisticMeasure(alpha, k + 1))


def husler_reiss_model(cov):
    return MaxStableModel(HuslerReissMeasure(cov))


def inverted_logistic_model(alpha, k):
    return InvertedMaxStableModel(LogisticMeasure(alpha, k + 1))


def asym_logistic_model(params):
    return MaxStableModel(AsymLogisticMeasure(params=params))


# ---------------------------------------------------------------------------
# operations

def _per_row(v, n, name):
    """`v` as one value per state row: a scalar or length-1 `v` is repeated."""
    v = np.asarray(v, dtype=float)
    if v.size == 1 and v.ndim <= 1:
        return np.full(n, v.item())
    if v.shape != (n,):
        raise DomainError(f"{name} must be a scalar or have one entry per state "
                          f"row ({n}), got shape {v.shape}")
    return v


def kernel_cdf(model, states, x, grade="accurate"):
    """P(X_k <= x | previous k states); batched over rows of `states`."""
    states_b, squeeze = as_batch(states, model.k)
    x = _per_row(x, states_b.shape[0], "x")
    sl = model.kernel_slice(states_b, grade=grade)
    out = sl.cdf(x)
    return float(out[0]) if squeeze and out.shape[0] == 1 else out


_GRID_FRACTIONS = np.array([0.4, 1.2, 2.5, 4.0, 6.0, 8.5, 11.5, 15.0, 20.0,
                            28.0, 42.0, BRACKET_HIGH]) / BRACKET_HIGH
_LOW_END = 1e-12       # lower end below the first grid point, as a fraction of it
_STEP_CLIP = 1e-3      # refinement steps keep this fraction of the bracket off its ends
_MAX_ITER = 200        # refinement steps before inversion fails loudly


def _logit(f):
    with np.errstate(divide="ignore"):
        return np.log(f) - np.log1p(-f)


def _invert_slice(sl, prob, tol=DEFAULT_PROB_TOL):
    """Vectorized inverse CDF: a grid bracket, then Chandrupatla steps.

    Each row's root is first bracketed by a binary search over a fixed grid
    of 12 points, at most 4 CDF row-evaluations per row.  Chandrupatla's
    method (1997, Adv. Eng. Softw. 28) then refines the bracket in log x
    and logit F, where kernel CDFs are close to linear: a secant step from
    the ends the search already evaluated, then inverse-quadratic steps
    where Chandrupatla's criterion allows and bisection otherwise (always
    next to an end with F = 0 or 1), each kept _STEP_CLIP of the bracket
    off its ends.  A row stops once |F - prob| <= tol or its bracket is
    narrower than 1e-13 (relative above 1).  Each row's upper bracket is
    BRACKET_HIGH above its own largest conditioning state (the conditional
    mass beyond that is below 1e-26 for every implemented family); failure
    there signals parameter pathology.  Below the first grid point, log x
    needs a positive lower end: _LOW_END times that point, evaluated once,
    which is the answer within tol of the target and raises BracketError
    above it.  Non-finite CDF values and rows unconverged after _MAX_ITER
    steps raise NumericalError.  Evaluations cover only the rows still
    searching, and a row's quantile depends on that row alone.
    """
    def finite(f):
        if not np.all(np.isfinite(f)):
            raise NumericalError("kernel CDF returned non-finite values")
        return f

    prob = np.clip(np.asarray(prob, dtype=float), 1e-300, 1.0 - 1e-16)
    n = prob.shape[0]
    size = _GRID_FRACTIONS.size
    grid = np.outer(BRACKET_HIGH + sl.state_max, _GRID_FRACTIONS)
    # grid indices with F(grid[i_lo]) < prob <= F(grid[i_hi]); index -1 lies
    # below the grid and index `size` past it
    i_lo = np.full(n, -1)
    i_hi = np.full(n, size)
    f_lo = np.zeros(n)
    f_hi = np.zeros(n)
    rows = np.arange(n)
    while rows.size:
        mid = (i_lo[rows] + i_hi[rows]) // 2
        f = finite(sl.cdf(grid[rows, mid], rows=rows))
        below = f < prob[rows]
        i_lo[rows[below]] = mid[below]
        f_lo[rows[below]] = f[below]
        i_hi[rows[~below]] = mid[~below]
        f_hi[rows[~below]] = f[~below]
        rows = rows[i_hi[rows] - i_lo[rows] > 1]
    if np.any(i_hi == size):
        bad = int(np.sum(i_hi == size))
        raise BracketError(
            f"{bad} target probabilities not bracketed by the upper bracket; "
            "kernel parameters are pathological")
    every = np.arange(n)
    lo = grid[every, i_lo]
    hi = grid[every, i_hi]
    rows = np.where(i_lo < 0)[0]
    if rows.size:
        lo[rows] = _LOW_END * grid[rows, 0]
        f_lo[rows] = finite(sl.cdf(lo[rows], rows=rows))
        bad = int(np.sum(f_lo[rows] > prob[rows] + tol))
        if bad:
            raise BracketError(
                f"{bad} target probabilities lie below the kernel CDF at the "
                "lower bracket end")
    err_lo = np.abs(f_lo - prob)
    err_hi = np.abs(f_hi - prob)
    x = np.where(err_hi <= err_lo, hi, lo)
    rows = np.where(np.minimum(err_lo, err_hi) > tol)[0]
    # Chandrupatla's points in (y, g) = (log x, logit F - logit prob), per
    # row still refining: 1 the newest, 2 the bracket end across the root
    # from it, 3 the point dropped last (none before the first, secant, step)
    p = prob[rows]
    logit_p = _logit(p)
    y1, y2 = np.log(lo[rows]), np.log(hi[rows])
    f1 = f_lo[rows]
    g1, g2 = _logit(f1) - logit_p, _logit(f_hi[rows]) - logit_p
    y3, g3 = y2, g2
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(np.isfinite(g1 + g2), g1 / (g1 - g2), 0.5)
    for _ in range(_MAX_ITER):
        if not rows.size:
            break
        yt = y1 + np.clip(t, _STEP_CLIP, 1.0 - _STEP_CLIP) * (y2 - y1)
        xt = np.exp(yt)
        ft = finite(sl.cdf(xt, rows=rows))
        x[rows] = xt
        same = (ft < p) == (f1 < p)
        y3, g3 = np.where(same, y1, y2), np.where(same, g1, g2)
        y2, g2 = np.where(same, y2, y1), np.where(same, g2, g1)
        y1, g1, f1 = yt, _logit(ft) - logit_p, ft
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (y1 - y2) / (y3 - y2)
            phi = (g1 - g2) / (g3 - g2)
            iqi = ((1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
                   & np.isfinite(g1 + g2 + g3))
            t = np.where(iqi, g1 / (g1 - g2) * g3 / (g3 - g2)
                         - (y3 - y1) / (y2 - y1) * g1 / (g3 - g1) * g2 / (g2 - g3), 0.5)
        tiny = np.abs(y2 - y1) * xt < 1e-13 * np.maximum(1.0, xt)
        keep = (np.abs(ft - p) > tol) & ~tiny
        rows, p, logit_p, f1, y1, y2, y3, g1, g2, g3, t = (
            a[keep] for a in (rows, p, logit_p, f1, y1, y2, y3, g1, g2, g3, t))
    if rows.size:
        raise NumericalError("kernel inversion did not converge")
    return x


def kernel_quantile(model, states, prob, tol=DEFAULT_PROB_TOL, grade="accurate"):
    """x with kernel_cdf(model, states, x) = prob (per row)."""
    states_b, squeeze = as_batch(states, model.k)
    prob = _per_row(prob, states_b.shape[0], "prob")
    sl = model.kernel_slice(states_b, grade=grade)
    out = sl.quantile(prob, tol)
    return float(out[0]) if squeeze and out.shape[0] == 1 else out


def kernel_sample(model, states, rng, tol=DEFAULT_PROB_TOL, grade="accurate"):
    """Draw the next state by inverse-CDF sampling, one per state row."""
    states_b, squeeze = as_batch(states, model.k)
    u = rng.uniform(size=states_b.shape[0])
    out = kernel_quantile(model, states_b, u, tol=tol, grade=grade)
    out = np.atleast_1d(out)
    return float(out[0]) if squeeze else out


def sample_initial_conditioned(model, u, rng, n, tol=DEFAULT_PROB_TOL,
                               grade="accurate"):
    """Initial block X_0..X_{k-1} given the exceedance X_0 > u.

    X_0 - u is exactly unit exponential by memorylessness; the remaining
    coordinates come from sequential inversion of the initial copula's
    conditional CDFs (exponent measures are closed under margins, so the
    j-th conditional uses the (j+1)-dimensional marginal model).
    """
    if u < 0:
        raise ParameterError("threshold u must be nonnegative")
    cols = [u + rng.exponential(size=n)]
    for j in range(1, model.k):
        states = np.stack(cols, axis=1)
        sl = model.initial_slice(j, states, grade=grade)
        prob = rng.uniform(size=n)
        cols.append(sl.quantile(prob, tol))
    return np.stack(cols, axis=1)


def _simulate_chunk(model, u, T, n, rng, burn_in=0):
    k = model.k
    paths = np.empty((n, T + burn_in + 1))
    paths[:, :k] = sample_initial_conditioned(model, u, rng, n, tol=ENSEMBLE_PROB_TOL,
                                              grade="sampling")
    for t in range(k, T + burn_in + 1):
        sl = model.kernel_slice(paths[:, t - k:t], grade="sampling")
        prob = rng.uniform(size=n)
        paths[:, t] = sl.quantile(prob, ENSEMBLE_PROB_TOL)
    return paths[:, burn_in:]


def simulate_conditioned_chain(model, u, T, n_rep, seed, burn_in=0):
    """Ensemble of chains started from X_0 > u; returns a PathEnsemble.

    Replicates are simulated in chunks of CHUNK_SIZE whose RNG streams are
    spawned from (seed, chunk index), so results depend on (model, u, T,
    n_rep, seed) only.  Draws use the "sampling" quadrature grade and the
    inversion tolerance ENSEMBLE_PROB_TOL, both far below any ensemble
    statistic's resolution; `kernel_sample` draws at the single-draw
    contract.
    """
    if T < model.k:
        raise ParameterError("horizon T must be at least the order k")
    n_chunks = (n_rep + CHUNK_SIZE - 1) // CHUNK_SIZE
    blocks = [_simulate_chunk(model, u, T, min(CHUNK_SIZE, n_rep - i * CHUNK_SIZE),
                              replicate_rng(seed, i), burn_in=burn_in)
              for i in range(n_chunks)]
    data = np.concatenate(blocks, axis=0)
    return PathEnsemble(data=data, u=u, seed=seed, model=model.descriptor(),
                        norming="none")


def simulate_stationary_chain(model, T, n_rep, seed, burn_in=100):
    """Unconditioned stationary runs (exceedance threshold 0) after burn-in,
    at the sampling grade and inversion tolerance of
    :func:`simulate_conditioned_chain`."""
    ens = simulate_conditioned_chain(model, 0.0, T, n_rep, seed, burn_in=burn_in)
    ens.u = None
    return ens
