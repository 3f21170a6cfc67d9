import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tailchain.transforms import (exp_to_frechet, exp_to_gauss, exp_to_uniform,
                                  frechet_to_exp, gauss_to_exp, log_exp_to_frechet,
                                  uniform_to_exp)
from tailchain.utils import DomainError


def test_heavy_scale_exact_point():
    # -1/log(1 - exp(-log 2)) = 1/log 2
    assert exp_to_frechet(np.log(2.0)) == pytest.approx(1.0 / np.log(2.0), abs=1e-15)


@pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 25.0])
def test_heavy_scale_round_trip(x):
    assert frechet_to_exp(exp_to_frechet(x)) == pytest.approx(x, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.01, max_value=30.0))
def test_round_trips_on_working_range(x):
    assert frechet_to_exp(exp_to_frechet(x)) == pytest.approx(x, abs=1e-12)
    # the uniform scale stores 1 - e^(-x), whose last-bit rounding maps back
    # to an e^x-sized absolute perturbation; 1e-12 holds where representable
    assert uniform_to_exp(exp_to_uniform(x)) == pytest.approx(
        x, abs=1e-12 + 4 * np.finfo(float).eps * np.exp(x))
    assert gauss_to_exp(exp_to_gauss(x)) == pytest.approx(x, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1 - 1e-9))
def test_uniform_scale_round_trip(u):
    assert exp_to_uniform(uniform_to_exp(u)) == pytest.approx(u, rel=1e-12, abs=1e-15)


def test_large_argument_asymptotics():
    ratio = exp_to_frechet(40.0) / np.exp(40.0)
    assert 1 - 1e-10 < ratio < 1 + 1e-10
    # log variant stays exact far beyond float overflow of exp(x)
    assert log_exp_to_frechet(1000.0) == pytest.approx(1000.0, abs=1e-12)
    assert np.isclose(log_exp_to_frechet(35.0), np.log(exp_to_frechet(35.0)),
                      atol=1e-13)


def test_frechet_keeps_relative_precision_near_zero():
    # log(1 - e^-x) = log x - x/2 + x^2/24 + O(x^4), exact to rounding for x <= 1e-4
    x = np.array([1e-300, 1e-16, 1e-12, 1e-9, 1e-6, 1e-4])
    ref = -np.log(-(np.log(x) - x / 2 + x ** 2 / 24))
    np.testing.assert_allclose(log_exp_to_frechet(x), ref, rtol=1e-15)
    np.testing.assert_allclose(exp_to_frechet(x), np.exp(ref), rtol=4e-15)
    # the two branches of log(1 - e^-x) meet at log 2
    edge = np.log(2.0) * np.array([1 - 1e-15, 1.0, 1 + 1e-15])
    assert np.ptp(log_exp_to_frechet(edge)) < 1e-14
    with pytest.raises(DomainError):
        log_exp_to_frechet(np.array([1.0, 0.0]))


def test_gauss_scale_extreme_arguments():
    # stable far into the tail (used by large-threshold Gaussian experiments)
    x = 1e8
    z = exp_to_gauss(x)
    assert gauss_to_exp(z) == pytest.approx(x, rel=1e-12)
    assert 14000 < z < 15000


def test_domain_errors():
    with pytest.raises(DomainError):
        exp_to_frechet(-1.0)
    with pytest.raises(DomainError):
        frechet_to_exp(0.0)
    with pytest.raises(DomainError):
        uniform_to_exp(1.0)
