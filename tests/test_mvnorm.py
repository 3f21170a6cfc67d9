import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.special import log_ndtr, logsumexp
from scipy.stats import multivariate_normal

from tailchain.mvnorm import GenzTailCache, mvn_cdf, mvn_logcdf
from tailchain.utils import ParameterError


def _random_corr(rng, d):
    a = rng.standard_normal((d, d))
    c = a @ a.T + d * np.eye(d)
    s = np.sqrt(np.diag(c))
    return c / np.outer(s, s)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_against_scipy(rng, d):
    cov = _random_corr(rng, d)
    b = rng.standard_normal((6, d)) * 1.3
    p, err = mvn_cdf(b, cov, points=65536, shifts=8)
    ref = np.array([multivariate_normal.cdf(row, mean=np.zeros(d), cov=cov,
                                            abseps=1e-10, maxpts=2_000_000 * d)
                    for row in b])
    assert np.max(np.abs(p - ref)) < 5e-6
    # reported error estimates should roughly bound the actual error
    assert np.all(np.abs(p - ref) < np.maximum(5 * err, 5e-6))


def _scipy_margin_cdf(b, cov):
    keep = np.where(~np.isposinf(b))[0]
    return multivariate_normal.cdf(b[keep], mean=np.zeros(keep.size),
                                   cov=cov[np.ix_(keep, keep)],
                                   abseps=1e-10, maxpts=1_000_000)


def test_marginalizes_infinite_limits(rng):
    cov = _random_corr(rng, 4)
    b = np.array([0.3, np.inf, -0.2, np.inf])
    p, _ = mvn_cdf(b, cov, points=4096, shifts=8)
    assert p == pytest.approx(_scipy_margin_cdf(b, cov), abs=5e-6)
    p_all, _ = mvn_cdf(np.full(4, np.inf), cov)
    assert p_all == pytest.approx(1.0)
    # each row is marginalized over its own +inf coordinates
    mixed = np.array([[0.3, np.inf, -0.2, np.inf],
                      [np.inf, 0.5, 0.1, -0.4],
                      [0.2, -0.1, 0.4, 0.0],
                      [np.inf, np.inf, np.inf, 0.7],
                      [np.inf, np.inf, np.inf, np.inf],
                      [-0.3, np.inf, -0.2, np.inf]])
    p_mixed, _ = mvn_cdf(mixed, cov, points=4096, shifts=8)
    for row, got in zip(mixed, p_mixed):
        want = 1.0 if np.all(np.isposinf(row)) else _scipy_margin_cdf(row, cov)
        assert got == pytest.approx(want, abs=5e-6)


def test_minus_infinite_limit_gives_zero_probability():
    # exactly -inf per row; through the Genz recursion a -inf limit gives NaN
    # for the negatively correlated case
    for cov in (toeplitz([1.0, -0.5, 0.25]), toeplitz([1.0, 0.5, 0.25])):
        logp, err = mvn_logcdf([-np.inf, 0.0, 0.0], cov)
        assert logp == -np.inf and err == 0.0
        logp, _ = mvn_logcdf([[0.0, np.inf, -np.inf], [0.1, 0.2, 0.3]], cov)
        assert logp[0] == -np.inf and np.isfinite(logp[1])


@pytest.mark.parametrize("shifts", [1, 8])
def test_rows_do_not_depend_on_their_batch(rng, shifts):
    cov = _random_corr(rng, 5)
    b = rng.standard_normal((40, 5)) * 1.5
    b[3, 1] = b[7, [0, 4]] = b[11] = np.inf
    b[5, 2] = b[9, 0] = -np.inf
    b[13, [1, 3]] = np.inf, -np.inf
    logp, err = mvn_logcdf(b, cov, points=512, shifts=shifts)
    one = [mvn_logcdf(row, cov, points=512, shifts=shifts) for row in b]
    assert np.array_equal(logp, [lp for lp, _ in one])
    assert np.array_equal(err, [e for _, e in one], equal_nan=True)
    sub = np.sort(rng.choice(40, size=17, replace=False))
    assert np.array_equal(mvn_logcdf(b[sub], cov, points=512, shifts=shifts)[0], logp[sub])


def test_log_scale_deep_tail(rng):
    cov = _random_corr(rng, 3)
    b = np.array([-8.0, -7.0, -9.0])
    logp, _ = mvn_logcdf(b, cov, points=8192, shifts=8)
    assert -200 < logp < np.log(1e-10)  # far below absolute resolution, still finite


def test_deterministic_given_seed(rng):
    cov = _random_corr(rng, 4)
    b = rng.standard_normal((3, 4))
    p1, _ = mvn_logcdf(b, cov, points=512, shifts=4, seed=7)
    p2, _ = mvn_logcdf(b, cov, points=512, shifts=4, seed=7)
    assert np.array_equal(p1, p2)


def test_tail_cache_matches_full_evaluation(rng):
    d = 4
    cov = _random_corr(rng, d)
    v_head = rng.standard_normal((9, d - 1))
    v_last = rng.standard_normal(9)
    cache = GenzTailCache(cov, v_head, points=4096, seed=3)
    got = np.exp(cache.logcdf(v_last))
    want, _ = mvn_cdf(np.concatenate([v_head, v_last[:, None]], axis=1), cov,
                      points=8192, shifts=8)
    assert np.max(np.abs(got - want)) < 2e-4
    rows = np.array([1, 4, 7])
    sub = np.exp(cache.logcdf(v_last[rows], rows=rows))
    assert np.array_equal(sub, got[rows])


def _log_space_tail_logcdf(cache, v_last):
    # the lattice sum in log space: log-mean of exp(log_head + log Phi)
    z = (v_last[:, None] / cache.sd[-1] - cache.mean_last) / cache.chol[-1, -1]
    return logsumexp(cache.log_head + log_ndtr(z), axis=1) - np.log(cache.n_points)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d", [2, 4])
def test_tail_cache_matches_the_log_space_sum(rng, d):
    # heads from about 0 down to log Phi(-30) = -454 nats; below -512 nats
    # two doubles' spacing exceeds 1e-13, and that is the bound there
    cov = _random_corr(rng, d)
    v_head = rng.uniform(-1.0, 3.0, size=(40, d - 1))
    v_head[:, 0] = np.linspace(0.0, -30.0, 40)
    cache = GenzTailCache(cov, v_head, points=1024, seed=5)
    for v in (-8.0, 0.0, 8.0, np.inf):
        v_last = np.full(40, v)
        got = cache.logcdf(v_last)
        ref = _log_space_tail_logcdf(cache, v_last)
        finite = ref > cache.log_head.max(axis=1) - 700.0
        assert finite.sum() >= 30
        bound = np.maximum(1e-13, 2.0 * np.spacing(np.abs(ref)))
        assert np.all((np.abs(got - ref) <= bound)[finite])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tail_cache_underflow_gives_minus_infinity(rng):
    # below about 1e-308 times a row's largest head term the natural-scale
    # sum underflows to 0: log-probability -inf, never NaN or a warning
    cov = _random_corr(rng, 4)
    v_head = np.array([[0.5, -1.0, 2.0], [-np.inf, 0.0, 1.0], [1.0, 2.0, -np.inf],
                       [-30.0, 0.0, 0.0]])
    cache = GenzTailCache(cov, v_head, points=256, seed=1)
    deep = cache.logcdf(np.full(4, -1e3))
    assert np.all(np.isneginf(deep))
    assert np.all(np.isfinite(_log_space_tail_logcdf(cache, np.full(4, -1e3))[[0, 3]]))
    for v in (-8.0, 0.0, 8.0, np.inf, -np.inf):
        out = cache.logcdf(np.full(4, v))
        assert np.all(np.isneginf(out[1:3]))
        assert not np.any(np.isnan(out))


def test_rejects_bad_covariance():
    with pytest.raises(ParameterError):
        mvn_cdf(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
