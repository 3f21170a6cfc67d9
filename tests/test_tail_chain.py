import hashlib

import numpy as np
import pytest
from scipy.stats import kstest, norm

from tailchain.kernels import asym_logistic_model, gaussian_model, kernel_cdf
from tailchain.mc_lab import renormalize
from tailchain.measures import AsymLogisticMeasure, AsymLogisticParams
from tailchain import tail_chain
from tailchain.tail_chain import (GaussianARTailChain, HuslerReissLocationTailChain,
                                  InvertedLogisticScaleTailChain,
                                  LogisticLocationTailChain,
                                  RegimeSwitchingTailChain, finite_level_remainder,
                                  simulate_hidden_tail_chain,
                                  simulate_regime_tail_chain)
from tailchain.transforms import exp_to_frechet
from tailchain.utils import DomainError, NumericalError, ParameterError

from conftest import (FIG1_HR, FIG1_INVERTED_ALPHA, FIG1_LOGISTIC_ALPHA, FIG1_RHO,
                      finite_difference_partial)

FIG2_PARAMS = AsymLogisticParams(0.3, 0.3, 0.3, 0.3, 0.3, 0.1, 0.5, 0.5, 0.5)
SKEW_PARAMS = AsymLogisticParams(0.4, 0.35, 0.4, 0.25, 0.2, 0.15, 0.35, 0.6, 0.55)


# ---------------------------------------------------------------------------
# update functions

def test_update_requires_t_at_least_k():
    model = LogisticLocationTailChain(0.4, 3)
    with pytest.raises(DomainError):
        model.update_functions(2)


def test_location_updates_are_translation_equivariant():
    m = np.array([0.3, -1.0, 0.5, -0.2, 0.1])
    for model in [LogisticLocationTailChain(FIG1_LOGISTIC_ALPHA, 5),
                  HuslerReissLocationTailChain(FIG1_HR)]:
        psi_a, psi_b = model.update_functions(7)
        shift = psi_a(m + 3.3) - (psi_a(m) + 3.3)
        assert abs(shift) < 1e-12
        assert psi_b(m) == pytest.approx(1.0, abs=0)


def test_husler_reiss_unit_row_identity():
    model = HuslerReissLocationTailChain(FIG1_HR)
    assert model.coef.sum() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("make", [
    lambda: LogisticLocationTailChain(0.4, 0),
    lambda: InvertedLogisticScaleTailChain(0.4, 0),
    lambda: GaussianARTailChain(np.array([])),
    lambda: HuslerReissLocationTailChain(np.eye(1)),                      # k = 0
    lambda: HuslerReissLocationTailChain(np.ones((2, 3))),                # not square
    lambda: HuslerReissLocationTailChain(np.array([[1.0, 0.5], [0.2, 1.0]])),
    lambda: HuslerReissLocationTailChain(np.array([[1.0, 2.0], [2.0, 1.0]])),  # not PD
])
def test_constructors_reject_invalid_parameters(make):
    with pytest.raises(ParameterError):
        make()


def test_first_order_reduction():
    # at k = 1 the kernel functionals coincide with the base normings, so
    # psi_a vanishes at the anchor and psi_b is unity
    pa, pb = LogisticLocationTailChain(0.4, 1).update_functions(1)
    assert pa(np.array([0.0])) == pytest.approx(0.0, abs=0)
    assert pb(np.array([0.0])) == pytest.approx(1.0, abs=0)
    pa, pb = HuslerReissLocationTailChain(
        np.array([[1.0, 0.6], [0.6, 1.0]])).update_functions(1)
    assert pa(np.array([0.0])) == pytest.approx(0.0, abs=0)
    assert pb(np.array([0.0])) == pytest.approx(1.0, abs=0)
    pa, pb = InvertedLogisticScaleTailChain(0.4, 1).update_functions(1)
    assert pa(np.array([1.0])) == pytest.approx(0.0, abs=0)
    assert pb(np.array([1.0])) == pytest.approx(1.0, abs=0)


def test_gaussian_ar1_update():
    # psi_a(m) = rho^2 m and psi_b = rho^t: the first-order specialization
    # of rho_t sum_i (phi_i/rho_{t-i}) m_{t-i} with rho_t = rho^t
    rho = 0.7
    model = GaussianARTailChain(np.array([rho]))
    for t in (1, 5):
        pa, pb = model.update_functions(t)
        assert pa(np.array([2.0])) == pytest.approx(rho ** 2 * 2.0, rel=1e-12)
        assert pb(np.array([2.0])) == pytest.approx(rho ** t, rel=1e-12)


def test_gaussian_gradient_form_matches_generic():
    # psi_a is the gradient of the location functional at the slope window
    # (finite differences as the oracle) and psi_b its scale functional there
    model = GaussianARTailChain(FIG1_RHO)
    t = 7
    alpha_window = model.alpha_seq(t)[t - 5:t]
    grad = np.array([finite_difference_partial(model.a_fn, (i,), alpha_window)
                     for i in range(5)])
    pa, pb = model.update_functions(t)
    m = np.array([0.3, -1.0, 0.5, -0.2, 0.1])
    assert pa(m) == pytest.approx(grad @ m, rel=1e-5)
    assert pb(m) == pytest.approx(float(model.b_fn(alpha_window)), rel=1e-10)


def test_inverted_scale_update_case_split():
    a = FIG1_INVERTED_ALPHA
    model = InvertedLogisticScaleTailChain(a, 5)
    m = np.array([0.5, 1.2, 0.8, 1.5, 0.9])

    def b(u):
        return np.sum(u ** (1 / a)) ** (a * (1 - a))

    _, pb = model.update_functions(6)     # mod 1: all five
    assert pb(m) == pytest.approx(b(m), rel=1e-12)
    _, pb = model.update_functions(8)     # mod 3: oldest three
    assert pb(m) == pytest.approx(b(m[:3]), rel=1e-12)
    _, pb = model.update_functions(10)    # mod 0: oldest one
    assert pb(m) == pytest.approx(b(m[:1]), rel=1e-12)


# ---------------------------------------------------------------------------
# innovation and initial laws

@pytest.mark.parametrize("law", [
    GaussianARTailChain(FIG1_RHO).innovation,
    LogisticLocationTailChain(FIG1_LOGISTIC_ALPHA, 5).innovation,
    HuslerReissLocationTailChain(FIG1_HR).innovation,
    InvertedLogisticScaleTailChain(FIG1_INVERTED_ALPHA, 5).innovation,
])
def test_innovation_quantile_cdf_round_trip(law):
    p = np.array([1e-6, 1e-3, 0.2, 0.5, 0.8, 1 - 1e-3, 1 - 1e-6])
    assert np.max(np.abs(law.cdf(law.quantile(p)) - p)) < 1e-10


def test_profile_quantile_stays_finite_where_expm1_overflows():
    # at alpha - m = -1e-13, log(p)/(alpha - m) exceeds log(DBL_MAX) for every p <= 0.5
    law = tail_chain.LogisticProfileLaw(1 - 1e-13, 1)
    q = law.quantile(np.geomspace(1e-300, 0.5, 200))
    assert np.all(np.isfinite(q)) and np.all(np.diff(q) > 0)


def test_initial_samplers_match_their_cdfs(rng):
    li = LogisticLocationTailChain(FIG1_LOGISTIC_ALPHA, 5).initial
    smp = li.sample(rng, 20_000)
    a = FIG1_LOGISTIC_ALPHA
    assert kstest(smp[:, 0],
                  lambda x: np.exp((a - 1) * np.logaddexp(0, -x / a))).statistic < 0.02
    pt = np.array([0.5, 0.3, 0.8, -0.2])
    emp = np.mean(np.all(smp <= pt, axis=1))
    assert li.cdf(pt)[0] == pytest.approx(emp, abs=4 * np.sqrt(0.25 / 20_000))

    hr = HuslerReissLocationTailChain(FIG1_HR).initial
    smp = hr.sample(rng, 20_000)
    for j in range(smp.shape[1]):
        stat = kstest(smp[:, j], lambda x: norm.cdf(
            x, loc=hr.mean[j], scale=np.sqrt(hr.cov[j, j]))).statistic
        assert stat < 0.02

    iv = InvertedLogisticScaleTailChain(FIG1_INVERTED_ALPHA, 5).initial
    smp = iv.sample(rng, 20_000)
    a = FIG1_INVERTED_ALPHA
    for j in range(smp.shape[1]):
        assert kstest(smp[:, j],
                      lambda x: -np.expm1(-a * np.clip(x, 0, None) ** (1 / a))
                      ).statistic < 0.02


def test_gaussian_initial_covariance_matches_sample():
    model = GaussianARTailChain(FIG1_RHO)
    ens = simulate_hidden_tail_chain(model, 10, 20_000, seed=1)
    emp = np.cov(ens.data[:, 1:5].T)
    ref = model.initial.cov
    se = np.sqrt((np.outer(np.diag(ref), np.diag(ref)) + ref ** 2) / 20_000)
    assert np.all(np.abs(emp - ref) < 3.5 * se)


# ---------------------------------------------------------------------------
# remainders

def test_gaussian_remainders_decay():
    model = GaussianARTailChain(FIG1_RHO)
    x = np.array([0.3, -1.0, 0.5, -0.2, 0.1])
    vals_a, vals_b = [], []
    for v in (1e2, 1e4, 1e6):
        ra, rb = finite_level_remainder(model, 6, x, v)
        vals_a.append(abs(float(ra)))
        vals_b.append(abs(float(rb)))
    assert vals_a[0] > vals_a[1] > vals_a[2]
    assert vals_b[0] > vals_b[1] > vals_b[2]
    assert vals_a[-1] < 1e-2 and vals_b[-1] < 1e-2


def test_logistic_remainder_identically_zero():
    # exactly zero in real arithmetic; in floats the v - a(v + x) difference
    # carries rounding proportional to v
    model = LogisticLocationTailChain(FIG1_LOGISTIC_ALPHA, 5)
    x = np.array([0.3, -1.0, 0.5, -0.2, 0.1])
    for v in (1e2, 1e4, 1e6):
        ra, _ = finite_level_remainder(model, 6, x, v)
        assert abs(float(ra)) < 500 * np.finfo(float).eps * v


def test_husler_reiss_remainder_identically_zero():
    model = HuslerReissLocationTailChain(FIG1_HR)
    x = np.array([0.3, -1.0, 0.5, -0.2, 0.1])
    ra, rb = finite_level_remainder(model, 6, x, 1e4)
    assert abs(float(ra)) < 1e-10 and abs(float(rb)) < 1e-12


def test_inverted_scale_remainder_decays_across_blocks():
    model = InvertedLogisticScaleTailChain(FIG1_INVERTED_ALPHA, 5)
    x = np.array([0.5, 1.2, 0.8, 1.5, 0.9])
    # windows straddling a scale-block boundary carry the nonzero remainder
    vals = []
    for v in (1e2, 1e3, 1e4, 1e5, 1e6):
        _, rb = finite_level_remainder(model, 8, x, v)
        vals.append(abs(float(rb)))
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-2
    # within a single block the scale composition is exactly homogeneous
    _, rb = finite_level_remainder(model, 6, x, 1e3)
    assert abs(float(rb)) < 1e-12


# ---------------------------------------------------------------------------
# simulation

def test_gaussian_tail_chain_is_centred_and_contracts():
    model = GaussianARTailChain(FIG1_RHO)
    ens = simulate_hidden_tail_chain(model, 50, 20_000, seed=2)
    sds = ens.data.std(axis=0)
    means = ens.data.mean(axis=0)
    assert np.all(np.abs(means[1:]) < 3.5 * sds[1:] / np.sqrt(20_000))
    assert ens.data[:, 50].var() < ens.data[:, 5].var()


def test_inverted_tail_chain_block_monotonicity():
    model = InvertedLogisticScaleTailChain(FIG1_INVERTED_ALPHA, 5)
    ens = simulate_hidden_tail_chain(model, 30, 20_000, seed=3)
    means = ens.data.mean(axis=0)
    for start in (6, 11, 16):   # block positions mod 5 = 1, 2, 3, 4, 0
        block = means[start:start + 5]
        assert np.all(np.diff(block) < 0)


def test_simulation_is_deterministic():
    model = LogisticLocationTailChain(0.4, 2)
    a = simulate_hidden_tail_chain(model, 10, 50, seed=4)
    b = simulate_hidden_tail_chain(model, 10, 50, seed=4)
    assert np.array_equal(a.data, b.data)


# ---------------------------------------------------------------------------
# transforms

def test_lamperti_location_only_dynamics():
    # with b = a^beta the transformed chain has a t-free innovation scale
    # 1/b(1_k): residual spread after the location update, put on the
    # transformed scale, should not vary with t
    model = GaussianARTailChain(FIG1_RHO)
    ens = simulate_hidden_tail_chain(model, 40, 40_000, seed=6)
    alpha = model.alpha_seq(40)
    b1 = float(model.b_fn(np.ones(5)))
    scales = []
    for t in range(6, 38):
        psi_a, _ = model.update_functions(t)
        resid = (ens.data[:, t] - psi_a(ens.data[:, t - 5:t])) \
            * alpha[t] ** (-model.beta) / b1
        scales.append(resid.std())
    scales = np.array(scales)
    assert scales.max() / scales.min() < 1.05
    assert scales.mean() == pytest.approx(model.innovation.sd / b1, rel=0.05)


# ---------------------------------------------------------------------------
# regime-switching chain

def test_regime_mode_probabilities():
    model = RegimeSwitchingTailChain(FIG2_PARAMS)
    assert model.m10 == pytest.approx(0.5, abs=0)
    assert model.m01 == pytest.approx(0.5, abs=0)
    # equal pair exponents make the double-tracked probability constant
    x = np.linspace(-2, 2, 7)
    m11 = model.m11(x, x[::-1])
    assert np.allclose(m11, 0.75, atol=1e-12)
    skew = RegimeSwitchingTailChain(SKEW_PARAMS)
    vals = skew.m11(np.array([-1.0, 0.0, 2.0]), np.array([0.5, 0.0, -2.0]))
    assert np.all((vals > 0) & (vals < 1))
    assert np.ptp(vals) > 1e-3   # genuinely state-dependent


def test_regime_value_laws_are_proper_cdfs():
    model = RegimeSwitchingTailChain(SKEW_PARAMS)
    grid = np.linspace(-25.0, 25.0, 301)
    for A in ((1, 1), (1, 0), (0, 1)):
        # at the smallest positive level log(u)/(nu - m) is beyond expm1's range
        u = np.concatenate([[5e-324], np.linspace(1e-6, 1 - 1e-6, 99)])
        q = model.tracked_quantile(A, u)
        assert np.all(np.isfinite(q)) and np.all(np.diff(q) > 0)
    pos = np.linspace(1e-3, 50.0, 301)
    for A in ((1, 1), (1, 0), (0, 1)):
        c = model.body_cdf(A, pos, prev_body=1.3)
        assert np.all(np.diff(c) >= -1e-12)
        assert c[0] < 1e-2 and c[-1] > 1 - 1e-6


# the injected -inf tracked values make m11 warn before the final check raises
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_regime_simulation_rejects_non_finite_values(monkeypatch):
    monkeypatch.setattr(tail_chain.LogisticProfileLaw, "quantile",
                        lambda self, p: np.full(np.shape(p), -np.inf))
    with pytest.raises(NumericalError):
        simulate_regime_tail_chain(FIG2_PARAMS, 5, 50, seed=1)


def test_regime_body_law_matches_finite_level_kernel():
    # the body-mode transition law scaled by the drop probability should
    # reproduce the finite-level second-order kernel from an extreme state
    params = SKEW_PARAMS
    model = RegimeSwitchingTailChain(params)
    chain = asym_logistic_model(params)
    u = 15.0
    x1 = 1.3
    grid = np.linspace(0.3, 6.0, 9)
    fin = kernel_cdf(chain, np.tile([u, x1], (grid.size, 1)), grid)
    lim = model.m10 * model.body_cdf((1, 0), grid, prev_body=x1)
    assert np.max(np.abs(fin - lim)) < 5e-3
    # double-tracked regime: kernel mass at finite levels equals
    # m11(x0, x1) by the same degeneration
    x0, x1 = 0.4, -0.3
    states = np.array([[u + x0, u + x1]])
    body_mass = kernel_cdf(chain, states, 8.0)
    assert body_mass == pytest.approx(
        model.m11(np.array([x0]), np.array([x1])).item(), abs=5e-3)


# coordinates of the body neighbour and the new value in the 3-d measure, per regime
_BODY_MARGIN = {(1, 0): (1, 2), (0, 1): (0, 2)}


@pytest.mark.parametrize("params", [FIG2_PARAMS, SKEW_PARAMS], ids=["fig2", "skew"])
@pytest.mark.parametrize("A", [(1, 0), (0, 1)])
def test_body_cdf_matches_the_asym_logistic_margin(params, A):
    # G(y | x) = -x^2 V_x(x, y) exp(1/x - V(x, y)) on the Frechet scale, with V
    # the bivariate margin of the generic face-list measure
    model = RegimeSwitchingTailChain(params)
    margin = AsymLogisticMeasure(params=params).margin(_BODY_MARGIN[A])
    for prev in (0.05, 0.4, 1.3, 4.0, 12.0):
        y = np.array([0.01, 0.2, 1.0, 3.0, 8.0, 20.0, 35.0])
        tx, ty = exp_to_frechet(prev), exp_to_frechet(y)
        pair = np.column_stack([np.full(y.size, tx), ty])
        oracle = -tx ** 2 * margin.partial((0,), pair) * np.exp(1.0 / tx - margin.value(pair))
        np.testing.assert_allclose(model.body_cdf(A, y, prev), oracle, rtol=1e-13, atol=0)


@pytest.mark.parametrize("params", [FIG2_PARAMS, SKEW_PARAMS], ids=["fig2", "skew"])
@pytest.mark.parametrize("A", [(1, 0), (0, 1)])
def test_body_density_matches_finite_differences(params, A):
    model = RegimeSwitchingTailChain(params)
    y = np.geomspace(1e-6, 8.0, 25)
    for prev in (1e-3, 0.7, 6.0):
        log_cdf, dlog = model.body_log_cdf(A, y, prev)
        h = 1e-5 * y
        fd = (model.body_cdf(A, y + h, prev) - model.body_cdf(A, y - h, prev)) / (2 * h)
        np.testing.assert_allclose(np.exp(log_cdf) * dlog, fd, rtol=1e-6)


@pytest.mark.parametrize("params", [FIG2_PARAMS, SKEW_PARAMS], ids=["fig2", "skew"])
@pytest.mark.parametrize("A", [(1, 0), (0, 1)])
def test_body_quantile_round_trip(params, A):
    # u = 1e-12 lies below G at the bottom of a fixed [1e-9, 60] bracket
    model = RegimeSwitchingTailChain(params)
    u = np.tile([1e-12, 1e-9, 0.5, 1 - 1e-12], 4)
    prev = np.repeat([1e-4, 0.3, 2.0, 15.0], 4)
    q = model.body_quantile(A, u, prev)
    assert np.all(np.abs(model.body_cdf(A, q, prev) - u) <= 1e-12)


def test_body_law_fails_loudly():
    model = RegimeSwitchingTailChain(SKEW_PARAMS)
    with pytest.raises(NumericalError):
        model.body_cdf((1, 0), 1.0, prev_body=np.nan)
    with pytest.raises(NumericalError):
        model.body_quantile((0, 1), np.array([0.3, 0.6]), prev_body=np.array([1.0, np.nan]))
    with pytest.raises(DomainError):
        model.body_quantile((0, 1), np.array([0.3, 0.0]), prev_body=1.0)


def test_body_quantile_returns_when_the_last_allowed_step_converges(monkeypatch):
    model = RegimeSwitchingTailChain(SKEW_PARAMS)
    steps = []
    log_cdf = model.body_log_cdf
    monkeypatch.setattr(model, "body_log_cdf", lambda *a: steps.append(1) or log_cdf(*a))
    q = model.body_quantile((1, 0), np.array([0.3]), prev_body=1.3)
    n = len(steps)
    assert n > 2
    monkeypatch.setattr(tail_chain, "_NEWTON_MAX_ITER", n)
    assert np.array_equal(model.body_quantile((1, 0), np.array([0.3]), prev_body=1.3), q)
    monkeypatch.setattr(tail_chain, "_NEWTON_MAX_ITER", n - 1)
    with pytest.raises(NumericalError):
        model.body_quantile((1, 0), np.array([0.3]), prev_body=1.3)


def test_regime_simulation_accepts_uniform_draws_of_zero(monkeypatch):
    # rng.uniform draws from [0, 1); a level of exactly 0 must not abort the run
    class ZeroLevels:
        def __init__(self, rng):
            self.rng, self.calls = rng, 0

        def uniform(self, size):
            u = self.rng.uniform(size=size)
            self.calls += 1
            if self.calls > 2 and self.calls % 2 == 0:   # the value levels of t >= 2
                u[::3] = 0.0
            return u

    real = tail_chain.replicate_rng
    monkeypatch.setattr(tail_chain, "replicate_rng", lambda *a: ZeroLevels(real(*a)))
    ens = simulate_regime_tail_chain(FIG2_PARAMS, 20, 600, seed=5)
    body = ens.extras["modes"][:, 2:] == 0
    vals = ens.data[:, 2:][body]
    assert np.all(vals > 0) and np.all(np.isfinite(vals))
    assert np.any(vals == np.nextafter(0.0, 1.0))


# sha256 of (modes, termination as int64, atom flags) and the sum of the path
# values of simulate_regime_tail_chain(params, 40, 2000, seed), as sampled by
# the 80-step bisection on [1e-9, 60] that the Newton inversion replaced
_REGIME_REFERENCE = [
    (FIG2_PARAMS, 3, "1decc9e16f801fceb27126d6527aab737b553a00d9e41da0cf6d0cbc403822f8",
     -18174.17902439227),
    (SKEW_PARAMS, 17, "2c41746aa5ca1648b7aa5af230d744595a1dedc78ac8e6aaf212e1bcff32493b",
     -38812.10023629941),
]


@pytest.mark.parametrize("params, seed, digest, total", _REGIME_REFERENCE,
                         ids=["fig2", "skew"])
def test_regime_modes_match_the_bisection_reference(params, seed, digest, total):
    # modes and termination depend on the tracked values and the uniforms only,
    # so a change of body-law inversion leaves them bit for bit
    ens = simulate_regime_tail_chain(params, 40, 2000, seed)
    h = hashlib.sha256()
    for a in (ens.extras["modes"], ens.extras["termination"].astype(np.int64),
              ens.extras["atom_flag"]):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == digest
    assert np.nansum(ens.data) == pytest.approx(total, rel=1e-13)


def test_regime_simulation_bookkeeping():
    ens = simulate_regime_tail_chain(FIG2_PARAMS, 120, 4000, seed=8)
    modes = ens.extras["modes"]
    tb = ens.extras["termination"]
    assert np.all(modes[:, 0] == 1)
    done = tb[tb > 0]
    assert done.min() >= 2
    assert abs(done.mean() - 8.42) < 0.4
    # values are finite until termination and blank after it
    t_end = np.where(tb > 0, tb, 120)
    after = np.arange(121) > t_end[:, None]
    assert np.array_equal(np.isnan(ens.data), after)
    assert np.all(modes[after] == -1) and np.all(modes[~after] >= 0)
    atom = ens.extras["atom_flag"]
    assert np.all(atom[after] == 0)
    live = modes >= 0
    assert np.array_equal(atom[live] == 1, modes[live] == 0)


def test_regime_value_distribution_at_first_step():
    # M_1 given a tracked first mode follows the normalized profile mixture
    p = FIG2_PARAMS
    ens = simulate_regime_tail_chain(p, 5, 30_000, seed=9)
    modes = ens.extras["modes"]
    vals = ens.data[modes[:, 1] == 1, 1]

    def cdf(x):
        w = p.theta01 / (p.theta01 + p.theta012)
        g01 = (1 + np.exp(-x / p.nu01)) ** (p.nu01 - 1)
        g012 = (1 + np.exp(-x / p.nu012)) ** (p.nu012 - 1)
        return w * g01 + (1 - w) * g012

    assert kstest(vals, cdf).statistic < 0.015
    body = ens.data[modes[:, 1] == 0, 1]
    assert kstest(body, lambda x: -np.expm1(-x)).statistic < 0.015
