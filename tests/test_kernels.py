import numpy as np
import pytest
from scipy.stats import expon, kstest

from tailchain import kernels
from tailchain.kernels import (BRACKET_HIGH, DEFAULT_PROB_TOL, MAX_ORDER,
                               _GRID_FRACTIONS, _invert_slice,
                               asym_logistic_model, gaussian_model, husler_reiss_model,
                               inverted_logistic_model, kernel_cdf,
                               kernel_quantile, kernel_sample, logistic_model,
                               sample_initial_conditioned, simulate_conditioned_chain,
                               simulate_stationary_chain)
from tailchain.measures import AsymLogisticMeasure, AsymLogisticParams, set_partitions
from tailchain.transforms import exp_to_frechet, exp_to_gauss
from tailchain.utils import BracketError, DomainError, NumericalError, ParameterError

from conftest import FIG1_HR, FIG1_INVERTED_ALPHA, FIG1_LOGISTIC_ALPHA, FIG1_RHO

FIG2_PARAMS = AsymLogisticParams(0.3, 0.3, 0.3, 0.3, 0.3, 0.1, 0.5, 0.5, 0.5)


def test_set_partitions_bell_counts():
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)]:
        parts = set_partitions(n)
        assert len(parts) == bell
        for p in parts:
            assert sorted(j for blk in p for j in blk) == list(range(n))


def test_order_cap():
    with pytest.raises(ParameterError):
        logistic_model(0.5, MAX_ORDER + 1)


def test_logistic_first_order_kernel_against_direct_derivative():
    a = 0.35
    m = logistic_model(a, 1)

    def oracle(x0, x1):
        y0, y1 = exp_to_frechet(x0), exp_to_frechet(x1)
        s = y0 ** (-1 / a) + y1 ** (-1 / a)
        v0 = -s ** (a - 1) * y0 ** (-1 / a - 1)
        return (-v0) * np.exp(-s ** a) / ((1 / y0 ** 2) * np.exp(-1 / y0))

    for x0 in (1.0, 3.0, 8.0):
        for x1 in (0.5, 2.0, 7.0):
            assert kernel_cdf(m, [x0], x1) == pytest.approx(oracle(x0, x1),
                                                            abs=1e-10)


def test_gaussian_median_preservation():
    from tailchain.transforms import gauss_to_exp
    m = gaussian_model(np.array([0.7]))
    mean = m.kernel_slice([2.0]).mean[0]     # next-state mean in Gaussian margins
    assert kernel_cdf(m, [2.0], gauss_to_exp(np.array([mean]))[0]) == \
        pytest.approx(0.5, abs=1e-12)


def test_kernel_cdf_is_valid_cdf(rng):
    # nondecreasing on a grid plus tail limits, across random models/states
    grid = np.linspace(0.01, 50.0, 200)
    models = [gaussian_model(np.array([0.6, 0.3])),
              logistic_model(0.45, 2),
              inverted_logistic_model(0.35, 2),
              husler_reiss_model(np.array([[1.0, 0.7, 0.4],
                                           [0.7, 1.0, 0.7],
                                           [0.4, 0.7, 1.0]]))]
    for m in models:
        for _ in range(6):
            state = rng.uniform(0.5, 9.0, size=m.k)
            vals = kernel_cdf(m, np.tile(state, (grid.size, 1)), grid,
                              grade="sampling")
            assert np.all(np.diff(vals) >= -1e-9)
            assert kernel_cdf(m, state, -50.0) < 1e-10
            assert kernel_cdf(m, state, 50.0) > 1 - 1e-10


def test_inversion_round_trip(rng):
    state = np.array([3.0, 2.0])
    models = [logistic_model(0.5, 2), inverted_logistic_model(0.35, 2),
              gaussian_model(np.array([0.6, 0.3]))]
    for m in models:
        u = rng.uniform(size=40)
        states = np.tile(state, (40, 1))
        x = kernel_quantile(m, states, u)
        back = kernel_cdf(m, states, x)
        assert np.max(np.abs(back - u)) < 1e-8


def test_quantile_monotone_in_probability():
    m = logistic_model(0.5, 2)
    state = np.array([3.0, 2.0])
    xs = [kernel_quantile(m, state, p) for p in (0.25, 0.5, 0.75)]
    assert xs[0] < xs[1] < xs[2]


def test_sample_empirical_cdf_matches_kernel():
    m = gaussian_model(FIG1_RHO)
    state = np.array([9.5, 6.0, 5.0, 4.2, 3.5])
    n = 100_000
    xs = kernel_sample(m, np.tile(state, (n, 1)), np.random.default_rng(2))
    stat = kstest(xs, lambda q: kernel_cdf(m, np.tile(state, (q.size, 1)),
                                           q)).statistic
    assert stat < 0.006  # 99% one-sample band at n = 1e5


def test_sample_logistic_ks_against_kernel():
    m = logistic_model(0.45, 2)
    state = np.array([6.0, 4.0])
    n = 20_000
    xs = kernel_sample(m, np.tile(state, (n, 1)), np.random.default_rng(3),
                       grade="sampling")
    grid = np.linspace(0.01, 30, 400)
    ref = kernel_cdf(m, np.tile(state, (grid.size, 1)), grid)
    emp = np.searchsorted(np.sort(xs), grid, side="right") / n
    assert np.max(np.abs(emp - ref)) < 1.63 / np.sqrt(n) + 2e-3


def test_gaussian_sampling_has_exact_conditional_law():
    m = gaussian_model(FIG1_RHO)
    state = np.array([9.0, 6.0, 5.0, 4.0, 3.5])
    n = 50_000
    xs = kernel_sample(m, np.tile(state, (n, 1)), np.random.default_rng(5))
    sl = m.kernel_slice(state)
    mean, sd = sl.mean[0], sl.sd
    z = exp_to_gauss(xs)
    assert abs(z.mean() - mean) < 3 * sd / np.sqrt(n)
    assert abs(z.var(ddof=1) - sd ** 2) < 3 * sd ** 2 * np.sqrt(2.0 / n)


def test_initial_conditioned_memorylessness():
    m = gaussian_model(FIG1_RHO)
    init = sample_initial_conditioned(m, 9.0, np.random.default_rng(6), 100_000)
    assert kstest(init[:, 0] - 9.0, expon.cdf).statistic < 0.006
    m1 = gaussian_model(np.array([0.7]))
    assert sample_initial_conditioned(m1, 5.0, np.random.default_rng(0), 7).shape == (7, 1)


def test_initial_conditioned_centred_limit():
    # the renormalized lag-1 value is centred in the limit; its finite-level
    # mean drifts like log(u)/sqrt(u), so the 3-standard-error check is run
    # at a threshold deep enough for the drift to clear the Monte Carlo floor
    m = gaussian_model(FIG1_RHO)
    rho1sq = FIG1_RHO[0] ** 2
    means = []
    n = 20_000
    for u in (9.0, 1e4, 1e8):
        init = sample_initial_conditioned(m, u, np.random.default_rng(7), n)
        w = (init[:, 1] - rho1sq * init[:, 0]) / np.sqrt(init[:, 0])
        means.append(w.mean())
    assert abs(means[0]) > abs(means[1]) > abs(means[2])
    sd = 0.75  # conservative bound on sd(W)
    assert abs(means[-1]) < 3 * sd / np.sqrt(n)


def test_initial_conditioned_sequential_families(rng):
    # sequential inversion runs for every non-Gaussian family and respects
    # the threshold on the first coordinate
    for m in [logistic_model(0.4, 3), inverted_logistic_model(0.35, 2),
              asym_logistic_model(FIG2_PARAMS)]:
        init = sample_initial_conditioned(m, 6.0, rng, 200, grade="sampling")
        assert init.shape == (200, m.k)
        assert np.all(init[:, 0] > 6.0)
        assert np.all(np.isfinite(init))


def test_simulate_conditioned_chain_basics():
    m = gaussian_model(FIG1_RHO)
    ens = simulate_conditioned_chain(m, 9.0, 12, 500, seed=11)
    assert ens.data.shape == (500, 13)
    assert np.all(ens.data[:, 0] > 9.0)
    assert np.all(np.isfinite(ens.data))
    again = simulate_conditioned_chain(m, 9.0, 12, 500, seed=11)
    assert np.array_equal(ens.data, again.data)


def test_gaussian_stationary_autocorrelation():
    rho = 0.7
    m = gaussian_model(np.array([rho]))
    ens = simulate_stationary_chain(m, 10_000, 1, seed=13, burn_in=100)
    z = exp_to_gauss(ens.data[0])
    corr = np.corrcoef(z[:-1], z[1:])[0, 1]
    assert abs(corr - rho) < 0.02


@pytest.mark.slow
@pytest.mark.parametrize("maker", [
    lambda: gaussian_model(np.array([0.6, 0.3])),
    lambda: logistic_model(0.45, 2),
    lambda: inverted_logistic_model(0.35, 2),
    lambda: husler_reiss_model(np.array([[1.0, 0.7, 0.4], [0.7, 1.0, 0.7],
                                         [0.4, 0.7, 1.0]])),
])
def test_stationarity_smoke(maker):
    # exceedance threshold zero is an exact stationary start, so every kernel
    # step must preserve the unit-exponential marginal.  Columns are iid
    # across replicates only (within-chain values are serially dependent),
    # and at n = 1e4 the 0.01 band sits below the null KS distribution's
    # 79th percentile, so the check runs at n = 4e4 where it has power.
    m = maker()
    ens = simulate_stationary_chain(m, m.k + 1, 40_000, seed=17, burn_in=10)
    stat = kstest(ens.data[:, m.k], expon.cdf).statistic
    assert stat < 0.01


# k = 5 (k = 2 for the asymmetric logistic) models of every family
_CONTRACT_MODELS = {
    "gaussian": lambda: gaussian_model(FIG1_RHO),
    "logistic": lambda: logistic_model(FIG1_LOGISTIC_ALPHA, 5),
    "inverted-logistic": lambda: inverted_logistic_model(FIG1_INVERTED_ALPHA, 5),
    "husler-reiss": lambda: husler_reiss_model(FIG1_HR),
    "asym-logistic": lambda: asym_logistic_model(FIG2_PARAMS),
}


def _contract_inputs(m, n, seed):
    rng = np.random.default_rng(seed)
    states = 3.0 + 2.0 * rng.exponential(size=(n, m.k))
    return rng, states, 0.05 + 2.0 * rng.exponential(size=n)


@pytest.mark.parametrize("grade", ["sampling", "accurate"])
@pytest.mark.parametrize("family", list(_CONTRACT_MODELS))
def test_slice_rows_do_not_depend_on_their_batch(family, grade):
    # a row subset of a slice gives that subset's rows of the whole batch, as
    # the bracket search and the refinement of _invert_slice evaluate only
    # the rows still searching or still active
    m = _CONTRACT_MODELS[family]()
    rng, states, x = _contract_inputs(m, 40, 1)
    sl = m.kernel_slice(states, grade=grade)
    full = sl.cdf(x)
    for size in (1, 7, 23):
        sub = np.sort(rng.choice(40, size=size, replace=False))
        assert np.array_equal(sl.cdf(x[sub], rows=sub), full[sub])
    # a partition slice builds each distinct state row once: a shuffled mix
    # of repeated and distinct rows, and one row tiled, read as those rows
    # of the distinct batch
    mix = rng.permutation(np.concatenate([np.repeat(np.arange(5), 6), np.arange(5, 15)]))
    sl_mix = m.kernel_slice(states[mix], grade=grade)
    assert np.array_equal(sl_mix.cdf(x[mix]), full[mix])
    sub = np.sort(rng.choice(mix.size, size=11, replace=False))
    assert np.array_equal(sl_mix.cdf(x[mix][sub], rows=sub), full[mix][sub])
    tiled = m.kernel_slice(np.tile(states[0], (21, 1)), grade=grade)
    x_tiled = np.geomspace(0.05, 20.0, 21)
    assert np.array_equal(tiled.cdf(x_tiled),
                          sl.cdf(x_tiled, rows=np.zeros(21, dtype=int)))


@pytest.mark.parametrize("grade", ["sampling", "accurate"])
@pytest.mark.parametrize("family", list(_CONTRACT_MODELS))
def test_kernel_cdf_and_quantile_row_by_row_equal_the_batch(family, grade):
    m = _CONTRACT_MODELS[family]()
    rng, states, x = _contract_inputs(m, 12, 2)
    batch = kernel_cdf(m, states, x, grade=grade)
    assert np.array_equal([kernel_cdf(m, s, xi, grade=grade) for s, xi in zip(states, x)],
                          batch)
    p = rng.uniform(size=12)
    tol = 1e-5 if grade == "sampling" else DEFAULT_PROB_TOL
    q = kernel_quantile(m, states, p, tol=tol, grade=grade)
    assert np.array_equal([kernel_quantile(m, s, pi, tol=tol, grade=grade)
                           for s, pi in zip(states, p)], q)
    # repeated rows, shuffled among distinct ones, and one state tiled
    mix = rng.permutation(np.concatenate([np.repeat(np.arange(3), 4), np.arange(3, 12)]))
    assert np.array_equal(kernel_cdf(m, states[mix], x[mix], grade=grade), batch[mix])
    assert np.array_equal(kernel_quantile(m, states[mix], p[mix], tol=tol, grade=grade),
                          q[mix])
    tiled = np.tile(states[0], (5, 1))
    x_tiled = np.geomspace(0.05, 20.0, 5)
    p_tiled = np.array([1e-6, 0.05, 0.5, 0.95, 1 - 1e-6])
    assert np.array_equal(kernel_cdf(m, tiled, x_tiled, grade=grade),
                          [kernel_cdf(m, states[0], xi, grade=grade) for xi in x_tiled])
    assert np.array_equal(kernel_quantile(m, tiled, p_tiled, tol=tol, grade=grade),
                          [kernel_quantile(m, states[0], pi, tol=tol, grade=grade)
                           for pi in p_tiled])


def test_log_space_partition_sums_match_naive():
    # direct signed products of the mixed partials, no log-space tricks
    for m in [logistic_model(0.4, 3), asym_logistic_model(FIG2_PARAMS)]:
        k = m.k
        y = exp_to_frechet(np.concatenate([np.linspace(2.0, 4.0, k), [2.5]]))
        naive = 0.0
        for p in set_partitions(k):
            term = (-1.0) ** len(p)
            for J in p:
                term *= m.measure.partial(J, y)
            naive += term
        logy = np.log(y)[None, :]
        log_sum = m.measure.partition_tail_evaluator(logy[:, :k])(logy[:, k])
        assert np.exp(log_sum[0]) == pytest.approx(naive, rel=1e-9)


@pytest.mark.parametrize("alpha", [0.05, 0.32, 0.95])
@pytest.mark.parametrize("k", range(1, 7))
def test_logistic_ratios_need_no_clip(k, alpha):
    # the conditional ratio's unclipped log stays at or below 0 for both
    # logistic kernels, so the clip in _PartitionSlice._ratio acts on the
    # Husler-Reiss quadrature only
    rng = np.random.default_rng(k)
    states = np.exp(rng.uniform(np.log(1e-6), np.log(200.0), size=(30, k)))
    x = np.exp(rng.uniform(np.log(1e-6), np.log(200.0), size=30))
    rows = np.arange(30)
    for model in (logistic_model(alpha, k), inverted_logistic_model(alpha, k)):
        sl = model.kernel_slice(states, grade="sampling")
        assert np.max(sl._log_ratio(x, rows)) <= 1e-12


def test_logsumexp_matches_scipy_bit_for_bit():
    from scipy.special import logsumexp as scipy_logsumexp
    from tailchain.utils import logsumexp
    rng = np.random.default_rng(4)
    a = rng.normal(scale=30.0, size=(6, 40))
    ties = np.round(a / 10.0)
    edge = a.copy()
    edge[0, :] = -np.inf
    edge[1, 3] = np.inf
    edge[2, 5] = np.nan
    for arr in (a, ties, edge, a[0]):
        for axis in range(arr.ndim):
            with np.errstate(all="ignore"):
                ref = scipy_logsumexp(arr, axis=axis)
            out = logsumexp(arr, axis=axis)
            assert np.shape(out) == np.shape(ref)
            assert np.asarray(out).tobytes() == np.asarray(ref).tobytes()


def test_bracket_failure_is_signalled():
    class Stub:
        state_max = np.zeros(1)

        def cdf(self, x, rows=None):
            return np.minimum(np.asarray(x, float) * 0 + 0.5, 0.5)

    with pytest.raises(BracketError):
        _invert_slice(Stub(), np.array([0.9]))


def test_non_finite_cdf_fails_loudly():
    class Stub:
        state_max = np.zeros(2)

        def cdf(self, x, rows=None):
            return np.full(np.shape(x), np.nan)

    with pytest.raises(NumericalError):
        _invert_slice(Stub(), np.array([0.3, 0.9]))


def _rational_cdf(x, scale):
    # increasing from 0 to 1 and curved in (log x, logit F), so refinement
    # takes several steps; arithmetic only, so it rounds alike in any batch
    r = x / (x + scale)
    return r * r


class _LoggedSlice:
    """A slice with F_r(x) = x / (x + scale_r) per row that logs each call."""

    def __init__(self, scale, state_max):
        self.scale = scale
        self.state_max = state_max
        self.calls = []

    def cdf(self, x, rows=None):
        rows = np.arange(self.scale.size) if rows is None else np.asarray(rows)
        x = np.asarray(x, dtype=float)
        self.calls.append((rows, x))
        return _rational_cdf(x, self.scale[rows])


def _logit(f):
    with np.errstate(divide="ignore"):
        return np.log(f) - np.log1p(-f)


def _grid_sweep_quantile(scale, state_max, p, tol):
    """One row's quantile by the full grid sweep and count rule, then
    Chandrupatla's method in (log x, logit F) written out for one row."""
    grid = (BRACKET_HIGH + state_max) * _GRID_FRACTIONS
    grid_f = _rational_cdf(grid, scale)
    pos = int(np.sum(grid_f < p))
    lo = grid[0] * 1e-12 if pos == 0 else grid[pos - 1]
    hi, f_hi = grid[pos], grid_f[pos]
    f_lo = _rational_cdf(lo, scale)
    if min(abs(f_lo - p), abs(f_hi - p)) <= tol:
        return hi if abs(f_hi - p) <= abs(f_lo - p) else lo
    logit_p = _logit(p)
    # points in (log x, logit F - logit p): 1 the newest, 2 the bracket end
    # across the root from it, 3 the point dropped last
    y1, g1, f1 = np.log(lo), _logit(f_lo) - logit_p, f_lo
    y2, g2 = np.log(hi), _logit(f_hi) - logit_p
    t = g1 / (g1 - g2) if np.isfinite(g1 + g2) else 0.5   # secant first
    while True:
        y = y1 + min(max(t, 1e-3), 1.0 - 1e-3) * (y2 - y1)
        x = np.exp(y)
        f = _rational_cdf(x, scale)
        if (f < p) == (f1 < p):
            y3, g3 = y1, g1
        else:
            y3, g3 = y2, g2
            y2, g2 = y1, g1
        y1, g1, f1 = y, _logit(f) - logit_p, f
        if abs(f - p) <= tol or abs(y2 - y1) * x < 1e-13 * max(1.0, x):
            return x
        xi, phi = (y1 - y2) / (y3 - y2), (g1 - g2) / (g3 - g2)
        if np.isfinite(g1 + g2 + g3) and 1.0 - np.sqrt(1.0 - xi) < phi < np.sqrt(xi):
            # inverse-quadratic interpolation through the three points
            t = (g1 / (g1 - g2) * g3 / (g3 - g2)
                 - (y3 - y1) / (y2 - y1) * g1 / (g3 - g1) * g2 / (g2 - g3))
        else:
            t = 0.5


@pytest.mark.parametrize("tol", [1e-5, DEFAULT_PROB_TOL])
def test_bracket_search_matches_the_grid_sweep(tol):
    rng = np.random.default_rng(8)
    n = 24
    scale = rng.uniform(0.5, 8.0, size=n)
    state_max = rng.uniform(0.0, 20.0, size=n)
    grid = np.outer(BRACKET_HIGH + state_max, _GRID_FRACTIONS)
    grid_f = _rational_cdf(grid, scale[:, None])
    p = rng.uniform(0.0, grid_f[:, -1])
    p[0] = 0.5 * grid_f[0, 0]                      # below the first grid point
    p[1] = 0.5 * (grid_f[1, -2] + grid_f[1, -1])   # in the last grid interval
    p[2] = grid_f[2, 6]                            # on grid values, where the
    p[3] = grid_f[3, 0]                            # `<` of the count rule
    p[4] = grid_f[4, -1]                           # picks the bracket
    sl = _LoggedSlice(scale, state_max)
    q = _invert_slice(sl, p, tol=tol)
    ref = [_grid_sweep_quantile(*args, tol) for args in zip(scale, state_max, p)]
    assert q.tobytes() == np.array(ref).tobytes()
    on_grid = np.zeros(n, dtype=int)
    for rows, x in sl.calls:
        np.add.at(on_grid, rows, np.any(x[:, None] == grid[rows], axis=1))
    assert on_grid.max() <= 4

    p[5] = 0.5 * (grid_f[5, -1] + 1.0)             # past the last grid point
    with pytest.raises(BracketError):
        _invert_slice(_LoggedSlice(scale, state_max), p, tol=tol)


class _StubSlice:
    """A slice on zero states whose CDF is `fn` in every row."""

    def __init__(self, fn, n):
        self.fn = fn
        self.state_max = np.zeros(n)

    def cdf(self, x, rows=None):
        return self.fn(np.asarray(x, dtype=float))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tol", [1e-5, DEFAULT_PROB_TOL])
def test_targets_below_the_first_grid_point(tol):
    # the lower end grid[0] * 1e-12 is evaluated and, within tol of the
    # target, is the answer; below it the refinement runs in log x from there
    grid0 = BRACKET_HIGH * _GRID_FRACTIONS[0]
    p = np.array([1e-300, 1e-12, 1e-9, 1e-4, 0.5 * _rational_cdf(grid0, 2.0)])
    q = _invert_slice(_StubSlice(lambda x: _rational_cdf(x, 2.0), p.size), p, tol=tol)
    assert np.all(np.abs(_rational_cdf(q, 2.0) - p) <= tol)
    assert np.all(q < grid0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tol", [1e-5, DEFAULT_PROB_TOL])
def test_lower_end_above_the_target_fails_loudly(tol):
    # F jumps to 0.3 at x = 0, so F at the lower end exceeds a target below 0.3
    def fn(x):
        return 0.3 + 0.7 * _rational_cdf(x, 1.0)

    p = np.array([0.5, 0.3 + 0.5 * tol])
    q = _invert_slice(_StubSlice(fn, 2), p, tol=tol)
    assert np.all(np.abs(fn(q) - p) <= tol)
    with pytest.raises(BracketError):
        _invert_slice(_StubSlice(fn, 3), np.array([0.5, 0.1, 0.9]), tol=tol)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tol", [1e-5, DEFAULT_PROB_TOL])
def test_cdf_values_of_exactly_0_and_1_converge(tol):
    # F is exactly 0 below x = 0.1 and exactly 1 from x = 10.1, so bracket
    # ends and steps meet infinite logits at both ends of the support
    def fn(x):
        return np.clip((x - 0.1) / 10.0, 0.0, 1.0)

    p = np.array([1.0 - 1e-16, 1.0, 0.999, 0.98, 0.5, 0.01, 0.001, 1e-300])
    q = _invert_slice(_StubSlice(fn, p.size), p, tol=tol)
    assert np.all(np.isfinite(q))
    assert np.all(np.abs(fn(q) - np.minimum(p, 1.0 - 1e-16)) <= tol)
    for m in (logistic_model(0.5, 2), inverted_logistic_model(0.35, 2)):
        states = np.array([[3.0, 2.0], [0.01, 0.5], [20.0, 9.0]])
        q = kernel_quantile(m, states, 1.0 - 1e-16, tol=tol)
        assert np.all(np.abs(kernel_cdf(m, states, q) - (1.0 - 1e-16)) <= tol)


@pytest.mark.parametrize("family, bound", [("logistic", 10.0), ("inverted-logistic", 8.0)])
def test_cdf_row_evaluations_per_draw(family, bound, monkeypatch):
    # grid search plus refinement; 14.3 and 11.6 per draw under the former
    # regula falsi, about 8.1 and 6.8 with Chandrupatla steps
    m = _CONTRACT_MODELS[family]()
    counts = {"rows": 0, "draws": 0}
    cdf, invert = m.slice_class.cdf, kernels._invert_slice

    def counted_cdf(sl, x, rows=None):
        counts["rows"] += np.size(x)
        return cdf(sl, x, rows=rows)

    def counted_invert(sl, prob, tol=DEFAULT_PROB_TOL):
        counts["draws"] += len(prob)
        return invert(sl, prob, tol=tol)

    monkeypatch.setattr(m.slice_class, "cdf", counted_cdf)
    monkeypatch.setattr(kernels, "_invert_slice", counted_invert)
    simulate_conditioned_chain(m, 9.0, 8, 1024, 3)
    assert counts["draws"] == 8 * 1024      # 4 initial and 4 chain columns
    assert counts["rows"] / counts["draws"] <= bound


@pytest.mark.parametrize("tol", [1e-5, DEFAULT_PROB_TOL])
@pytest.mark.parametrize("family", [f for f in _CONTRACT_MODELS if f != "gaussian"])
def test_quantiles_meet_the_probability_tolerance(family, tol):
    m = _CONTRACT_MODELS[family]()
    rng, states, _ = _contract_inputs(m, 200, 5)
    p = rng.uniform(size=200)
    p[:3] = [1e-9, 1e-4, 1.0 - 1e-9]
    q = kernel_quantile(m, states, p, tol=tol, grade="sampling")
    assert np.all(np.abs(kernel_cdf(m, states, q, grade="sampling") - p) <= tol)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("grade", ["sampling", "accurate"])
@pytest.mark.parametrize("u", [3.0, 20.0, 100.0])
def test_husler_reiss_kernel_over_the_inversion_range(u, grade):
    # the lattice sums run on the natural scale, where a partial below about
    # 1e-308 of its value at +inf underflows to 0; the kernel stays a CDF
    # from the inversion's lowest point to its last grid point
    m = husler_reiss_model(FIG1_HR)
    states = u + np.random.default_rng(3).exponential(size=(6, m.k))
    sl = m.kernel_slice(states, grade=grade)
    grid = np.outer(BRACKET_HIGH + sl.state_max, _GRID_FRACTIONS)
    x = np.geomspace(1e-12 * grid[:, 0], grid[:, -1], 80, axis=1)
    f = np.stack([sl.cdf(col) for col in x.T], axis=1)
    assert np.all(np.isfinite(f)) and np.all((f >= 0.0) & (f <= 1.0))
    assert np.all(np.diff(f, axis=1) >= 0.0)
    for p in (1e-6, 0.05, 0.5, 0.95, 1.0 - 1e-6):
        q = kernel_quantile(m, states, p, tol=1e-10, grade=grade)
        assert np.all(np.abs(kernel_cdf(m, states, q, grade=grade) - p) <= 1e-10)


def test_zero_mixed_partials_give_the_independence_kernel():
    # all mixed partials of order two and more vanish, so the partition sums
    # hold -inf log terms; the kernel is the unit-exponential CDF whatever
    # the states
    from tailchain.kernels import MaxStableModel
    m = MaxStableModel(AsymLogisticMeasure(
        faces=[((0,), 1.0, None), ((1,), 1.0, None), ((2,), 1.0, None)], dim=3))
    states = np.array([[0.7, 2.0], [3.0, 0.2], [9.0, 5.0], [1.0, 1.0], [4.0, 12.0]])
    x = np.array([0.1, 0.5, 1.0, 3.0, 10.0])
    assert np.max(np.abs(kernel_cdf(m, states, x) + np.expm1(-x))) < 1e-12
    p = np.array([0.05, 0.3, 0.5, 0.8, 0.99])
    q = kernel_quantile(m, states, p)
    assert np.max(np.abs(kernel_cdf(m, states, q) - p)) < 1e-9


def test_per_row_arguments_must_match_the_state_rows():
    m = logistic_model(0.5, 2)
    states = np.tile([3.0, 2.0], (5, 1))
    with pytest.raises(DomainError):
        kernel_cdf(m, states, [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        kernel_quantile(m, states, [0.2, 0.5, 0.7])
    assert kernel_cdf(m, states, [2.0]).shape == (5,)


def test_alog_one_step_and_two_step_kernels():
    # both the order-2 kernel and the first-order kernel of the pair margin
    # are exposed through the same machinery
    from tailchain.kernels import MaxStableModel
    m2 = asym_logistic_model(FIG2_PARAMS)
    m1 = MaxStableModel(m2.measure.margin((0, 1)))
    assert m1.k == 1
    c2 = kernel_cdf(m2, [15.0, 14.0], 2.0)
    c1 = kernel_cdf(m1, [15.0], 2.0)
    assert 0.0 < c2 < 1.0 and 0.0 < c1 < 1.0
