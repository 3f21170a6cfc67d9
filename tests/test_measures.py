import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad, quad
from scipy.linalg import toeplitz
from scipy.stats import norm

from tailchain import kernels
from tailchain.measures import (AsymLogisticMeasure, AsymLogisticParams, ExponentMeasure,
                                HuslerReissMeasure, LogisticMeasure)
from tailchain.mvnorm import mvn_logcdf
from tailchain.transforms import log_exp_to_frechet
from tailchain.utils import DomainError, ParameterError

from conftest import FIG1_HR, finite_difference_partial

FIG2_PARAMS = AsymLogisticParams(0.3, 0.3, 0.3, 0.3, 0.3, 0.1, 0.5, 0.5, 0.5)


# ---------------------------------------------------------------------------
# logistic

def test_logistic_unit_point_values():
    assert LogisticMeasure(0.5, 2).value([1.0, 1.0]) == pytest.approx(np.sqrt(2.0), abs=1e-14)
    # V(s, s, s) = 3^alpha / s by homogeneity
    for s, a in [(2.5, 0.3), (0.2, 0.8)]:
        assert LogisticMeasure(a, 3).value([s, s, s]) == pytest.approx(3.0 ** a / s, rel=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.05, max_value=0.95))
def test_logistic_homogeneity(s, alpha):
    y = np.array([1.3, 0.7, 2.1, 0.9])
    v = LogisticMeasure(alpha, y.size).value(y)
    assert abs(s * LogisticMeasure(alpha, y.size).value(s * y) - v) / v < 1e-10


def test_logistic_margins():
    m = LogisticMeasure(0.4, 3)
    y = np.array([1e12, 0.8, 1e12])
    assert m.value(y) == pytest.approx(1.0 / 0.8, rel=1e-6)
    # infinite coordinates resolve analytically through the margin closure
    assert m.value(np.array([np.inf, 0.8, np.inf])) == pytest.approx(1.0 / 0.8,
                                                                     rel=1e-14)


def test_logistic_independence_limit():
    y = np.array([1.4, 0.6, 2.2])
    v = LogisticMeasure(0.999, y.size).value(y)
    assert abs(v - np.sum(1.0 / y)) < 1e-2


def _logistic_spectral_density_2d(w, alpha):
    # classical bivariate logistic spectral density on the L1 simplex
    return (1.0 / alpha - 1.0) * (w * (1 - w)) ** (-1.0 - 1.0 / alpha) \
        * (w ** (-1.0 / alpha) + (1 - w) ** (-1.0 / alpha)) ** (alpha - 2.0)


def test_logistic_matches_simplex_quadrature_bivariate():
    alpha, y = 0.44, np.array([1.3, 0.6])

    def integrand(w):
        return max(w / y[0], (1 - w) / y[1]) * _logistic_spectral_density_2d(w, alpha)

    val, err = quad(integrand, 0.0, 1.0, limit=200)
    assert LogisticMeasure(alpha, y.size).value(y) == pytest.approx(val, rel=1e-8)


def test_logistic_matches_simplex_quadrature_trivariate():
    # spectral density equals -V_{012} restricted to the simplex
    alpha, y = 0.55, np.array([1.1, 0.7, 1.6])
    m = LogisticMeasure(alpha, 3)

    def h(w0, w1):
        w = np.array([w0, w1, 1.0 - w0 - w1])
        return -m.partial((0, 1, 2), w)

    def integrand(w1, w0):
        w2 = 1.0 - w0 - w1
        return max(w0 / y[0], w1 / y[1], w2 / y[2]) * h(w0, w1)

    val, err = dblquad(integrand, 0.0, 1.0, 0.0, lambda w0: 1.0 - w0,
                       epsabs=1e-9, epsrel=1e-9)
    assert m.value(y) == pytest.approx(val, rel=1e-6)


def test_logistic_partial_unit_point():
    for alpha in (0.3, 0.62):
        m = LogisticMeasure(alpha, 2)
        assert m.partial((0,), [1.0, 1.0]) == pytest.approx(-(2.0 ** (alpha - 1)),
                                                            rel=1e-13)


@pytest.mark.parametrize("alpha", [0.05, 0.32, 0.95])
@pytest.mark.parametrize("k", range(1, 7))
def test_logistic_tail_evaluators_match_the_generic_path(k, alpha):
    # the k-term partition sum and the cached value against the base class's
    # per-subset partials and _PartitionScheme, the oracle; exponential-scale
    # states from 1e-6 to 200 go through both kernel argument maps
    # (log-Frechet and -log x), and a few last coordinates are +inf
    m = LogisticMeasure(alpha, k + 1)
    rng = np.random.default_rng(k)
    x = np.exp(rng.uniform(np.log(1e-6), np.log(200.0), size=(30, k + 1)))
    logy = np.concatenate([log_exp_to_frechet(x), -np.log(x)])
    logy[::7, k] = np.inf
    head, last = logy[:, :k], logy[:, k]
    rows = np.arange(3, head.shape[0], 4)
    for name in ("partition_tail_evaluator", "value_tail_evaluator"):
        fast = getattr(m, name)(head)
        expected = getattr(ExponentMeasure, name)(m, head)(last)
        np.testing.assert_allclose(fast(last), expected, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(fast(last[rows], rows=rows), expected[rows],
                                   rtol=1e-12, atol=1e-12)


def test_partials_match_finite_differences():
    rng = np.random.default_rng(5)
    worst = 0.0
    m = None
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        alpha = float(rng.uniform(0.2, 0.9))
        m = LogisticMeasure(alpha, dim)
        y = rng.uniform(0.5, 2.0, size=dim)
        size = int(rng.integers(1, min(dim, 3) + 1))
        J = tuple(sorted(rng.choice(dim, size=size, replace=False)))
        cf = m.partial(J, y)
        fd = finite_difference_partial(lambda yy: m.value(yy), J, y)
        worst = max(worst, abs(cf - fd) / abs(fd))
    assert worst < 1e-5


def test_partial_signs():
    # Mixed partials of valid exponent measures are negative for every
    # nonempty J (so every partition term in kernel numerators is positive);
    # the classical alternating-sign pattern holds only for odd orders.
    rng = np.random.default_rng(6)
    measures = [LogisticMeasure(0.35, 4),
                HuslerReissMeasure(toeplitz([1.0, 0.8, 0.55, 0.35]),
                                   qmc_points=512, qmc_shifts=2),
                AsymLogisticMeasure(params=FIG2_PARAMS)]
    for m in measures:
        for _ in range(5):
            y = rng.uniform(0.5, 2.0, size=m.dim)
            size = int(rng.integers(1, m.dim + 1))
            J = tuple(sorted(rng.choice(m.dim, size=size, replace=False)))
            assert m.partial(J, y) < 0


def test_partial_domain_errors():
    m = LogisticMeasure(0.5, 3)
    with pytest.raises(DomainError):
        m.partial((), [1.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        m.partial((0, 3), [1.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        m.partial((0,), [1.0, -1.0, 1.0])


# ---------------------------------------------------------------------------
# Husler-Reiss

def _hr_bivariate_closed_form(y0, y1, s2_minus_s01):
    lam = np.sqrt(2.0 * s2_minus_s01)
    a = np.log(y1 / y0) / lam + lam / 2.0
    b = np.log(y0 / y1) / lam + lam / 2.0
    return norm.cdf(a) / y0 + norm.cdf(b) / y1


def _anchor_blocks(cov, logy):
    """(i, w_i, Sigma^(i)) per anchor coordinate i of V(y) = sum_i y_i^(-1)
    Phi_{d-1}(w_i; Sigma^(i)): w_i = log(y_j/y_i) + s^2 - s_ij over j != i,
    and Sigma^(i) the covariance of the differences against coordinate i."""
    d = cov.shape[0]
    for i in range(d):
        others = [j for j in range(d) if j != i]
        T = np.eye(d)[others] - np.eye(d)[i]
        yield i, logy[:, others] - logy[:, [i]] + cov[i, i] - cov[i, others], T @ cov @ T.T


def _anchor_sum_error(cov, y):
    """sum_i err_i / y_i, with err_i the mvn_logcdf error of anchor block i on
    the lattice of the measure's default accuracy (2048 points, 8 shifts)."""
    logy = np.log(y)[None, :]
    return float(sum(mvn_logcdf(w, sig, points=2048, shifts=8)[1][0] / y[i]
                     for i, w, sig in _anchor_blocks(cov, logy)))


@pytest.mark.parametrize("d", range(1, 7))
def test_hr_value_is_the_anchor_sum(d):
    # the value is computed from the single-coordinate partials (Euler's
    # identity); the anchor sum is written out here on the same lattice
    cov = FIG1_HR[:d, :d]
    logy = np.random.default_rng(d).normal(0.0, 1.5, size=(20, d))
    want = np.zeros(20)
    for i, w, sig in _anchor_blocks(cov, logy):
        logphi = mvn_logcdf(w, sig, points=2048, shifts=8)[0] if d > 1 else 0.0
        want += np.exp(-logy[:, i] + logphi)
    np.testing.assert_allclose(HuslerReissMeasure(cov).value(np.exp(logy)), want, rtol=1e-13)


@pytest.mark.parametrize("grade", ["sampling", "accurate"])
def test_hr_value_tail_evaluator_matches_the_value(grade):
    # the kernels' graded evaluator against the default-accuracy value, row by
    # row (+inf last coordinates go through the margin); the two sides use
    # different lattices.  On these rows the largest relative gap is 3.1e-2
    # (sampling) and 9.4e-3 (accurate); over seeds 0-11 it was 6.1e-2 and 1.0e-2
    rtol = {"sampling": 0.1, "accurate": 0.02}[grade]
    rng = np.random.default_rng(7)
    for d in range(2, 7):
        m = HuslerReissMeasure(FIG1_HR[:d, :d])
        logy = rng.normal(0.0, 1.5, size=(24, d))
        logy[::5, -1] = np.inf
        want = np.array([m.value(row) for row in np.exp(logy)])
        ev = m.with_accuracy(**kernels._GRADES[grade]).value_tail_evaluator(logy[:, :-1])
        got = ev(logy[:, -1])
        np.testing.assert_allclose(got, want, rtol=rtol)
        rows = np.arange(1, 24, 3)
        assert np.array_equal(ev(logy[rows, -1], rows=rows), got[rows])


def test_hr_bivariate_two_ways():
    cov = np.array([[1.0, 0.6], [0.6, 1.0]])
    m = HuslerReissMeasure(cov)
    for y0, y1 in [(1.0, 1.0), (0.5, 2.0), (3.0, 0.3)]:
        direct = m.value(np.array([y0, y1]))
        closed = _hr_bivariate_closed_form(y0, y1, 1.0 - 0.6)
        assert direct == pytest.approx(closed, abs=1e-12)


def test_hr_margins_and_homogeneity(rng):
    cov = toeplitz([1.0, 0.8, 0.55, 0.35])
    m = HuslerReissMeasure(cov, qmc_points=4096, qmc_shifts=8)
    y = np.array([1.3, 1e12, 1e12, 1e12])
    assert m.value(y) == pytest.approx(1.0 / 1.3, rel=1e-6)
    y = rng.uniform(0.5, 2.0, size=4)
    s = 3.1
    assert s * m.value(s * y) == pytest.approx(m.value(y), rel=1e-5)


def test_hr_against_spectral_monte_carlo(rng):
    # V(y) = E[max_i exp(W_i - s^2/2) / y_i] for W ~ N(0, cov): an exact,
    # fully independent construction of the same measure
    cov = toeplitz([1.0, 0.8, 0.55, 0.35])
    m = HuslerReissMeasure(cov)
    y = np.array([1.3, 0.7, 2.1, 0.9])
    w = rng.multivariate_normal(np.zeros(4), cov, size=400_000)
    mc = np.mean(np.max(np.exp(w - np.diag(cov) / 2.0) / y, axis=1))
    assert m.value(y) == pytest.approx(mc, rel=1e-2)
    assert _anchor_sum_error(cov, y) < 1e-4


def test_hr_partials_match_finite_differences():
    # FD noise is dominated by the quadrature inside V, so no Richardson
    cov = toeplitz([1.0, 0.7, 0.45])
    m = HuslerReissMeasure(cov, qmc_points=4096, qmc_shifts=8)
    y = np.array([1.3, 0.7, 2.1])
    for J in [(0,), (1,), (0, 1), (1, 2), (0, 1, 2)]:
        cf = m.partial(J, y)
        fd = finite_difference_partial(lambda yy: m.value(yy), J, y,
                                       base_step=3e-3 if len(J) > 1 else 1e-4,
                                       richardson=False)
        assert cf == pytest.approx(fd, rel=5e-3)


def test_hr_parameter_validation():
    with pytest.raises(ParameterError):
        HuslerReissMeasure(np.array([[1.0, 2.0], [2.0, 1.0]]))   # not PD
    with pytest.raises(ParameterError):
        HuslerReissMeasure(np.array([[1.0, 0.1], [0.1, 2.0]]))   # diagonal differs


def test_hr_quadrature_error_reported():
    err = _anchor_sum_error(toeplitz([1.0, 0.8, 0.55, 0.35]), np.array([1.3, 0.7, 2.1, 0.9]))
    assert 0.0 < err < 1e-4


# ---------------------------------------------------------------------------
# asymmetric logistic

def test_alog_constraint_validation():
    with pytest.raises(ParameterError):
        AsymLogisticParams(0.4, 0.3, 0.3, 0.3, 0.3, 0.1, 0.5, 0.5, 0.5)
    with pytest.raises(ParameterError):
        AsymLogisticParams(0.3, 0.3, 0.3, 0.3, 0.3, 0.1, 0.5, 0.5, 1.2)


def test_alog_homogeneity_and_margin():
    m = AsymLogisticMeasure(params=FIG2_PARAMS)
    y = np.array([1.3, 0.7, 2.1])
    s = 2.7
    assert s * m.value(s * y) == pytest.approx(m.value(y), rel=1e-12)
    y2 = np.array([1e12, 1e12, 0.7])
    assert m.value(y2) == pytest.approx(1.0 / 0.7, rel=1e-6)


def test_alog_reference_point_value():
    # independent term-by-term evaluation at the unit point
    p = FIG2_PARAMS
    expected = (p.theta0 + p.theta1 + p.theta2
                + p.theta01 * ((1 + 1) ** p.nu01 + (1 + 1) ** p.nu01)
                + p.theta02 * (1 + 1) ** p.nu02
                + p.theta012 * (1 + 1 + 1) ** p.nu012)
    assert AsymLogisticMeasure(params=FIG2_PARAMS).value([1.0, 1.0, 1.0]) == \
        pytest.approx(expected, abs=1e-14)
    assert expected == pytest.approx(0.9 + 0.6 * np.sqrt(2) + 0.3 * np.sqrt(2)
                                     + 0.1 * np.sqrt(3), abs=1e-14)


def test_alog_partials_match_finite_differences():
    m = AsymLogisticMeasure(params=FIG2_PARAMS)
    y = np.array([1.3, 0.7, 2.1])
    for J in [(0,), (2,), (0, 1), (0, 2), (0, 1, 2)]:
        cf = m.partial(J, y)
        fd = finite_difference_partial(lambda yy: m.value(yy), J, y)
        assert cf == pytest.approx(fd, rel=2e-5)


def test_alog_margin_is_face_measure():
    m = AsymLogisticMeasure(params=FIG2_PARAMS)
    sub = m.margin((0, 1))
    y = np.array([1.1, 0.9])
    big = m.value(np.array([y[0], y[1], 1e14]))
    assert sub.value(y) == pytest.approx(big, rel=1e-12)
