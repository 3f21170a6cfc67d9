import json

import numpy as np
import pytest
from scipy.stats import expon, kstest, norm

from tailchain.kernels import (gaussian_model, husler_reiss_model,
                               inverted_logistic_model, logistic_model,
                               simulate_conditioned_chain)
from tailchain.mc_lab import (ChiEstimate, chi_estimate, chi_from_paths,
                              convergence_diagnostic, kernel_limit_gap, ks_distance,
                              quantile_bands, renormalize)
from tailchain.paths import PathEnsemble
from tailchain.tail_chain import (GaussianARTailChain, HuslerReissLocationTailChain,
                                  InvertedLogisticScaleTailChain, LogisticLocationTailChain,
                                  simulate_hidden_tail_chain)
from tailchain.utils import DomainError

from conftest import FIG1_HR, FIG1_RHO


class _IdentityNorming:
    """Stub with zero location and unit scale: renormalization is a no-op."""

    k = 1
    norming = "location-scale"

    def alpha_seq(self, T):
        return np.zeros(T + 1)

    def beta_seq(self, T):
        return np.zeros(T + 1)

    def descriptor(self):
        return "identity"


def test_renormalize_identity_stub():
    data = np.abs(np.random.default_rng(0).standard_normal((50, 4))) + 0.2
    ens = PathEnsemble(data=data.copy(), u=0.1, model="stub")
    out = renormalize(ens, _IdentityNorming())
    assert np.allclose(out.data[:, 1:], data[:, 1:])
    assert np.allclose(out.data[:, 0], data[:, 0] - 0.1)
    with pytest.raises(DomainError):
        renormalize(out, _IdentityNorming())


def test_renormalized_first_column_is_exponential():
    m = gaussian_model(FIG1_RHO)
    ens = simulate_conditioned_chain(m, 9.0, 6, 100_000, seed=3)
    ren = renormalize(ens, GaussianARTailChain(FIG1_RHO))
    assert kstest(ren.data[:, 0], expon.cdf).statistic < 0.006


def test_initial_exceedance_independent_of_later_columns():
    # the conditioned exceedance and the renormalized states decouple
    m = gaussian_model(FIG1_RHO)
    ens = simulate_conditioned_chain(m, 9.0, 10, 10_000, seed=4)
    ren = renormalize(ens, GaussianARTailChain(FIG1_RHO))
    e0 = ren.data[:, 0]
    for t in range(1, 6):
        corr = np.corrcoef(e0, ren.data[:, t])[0, 1]
        assert abs(corr) < 3.5 / np.sqrt(ren.n_rep)


def test_ks_distance_properties(rng):
    x = rng.normal(size=100_000)
    assert ks_distance(x, norm.cdf) < 0.006
    assert ks_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    # sup_x |Phi(x) - Phi(x-1)| computed on a dense grid as the oracle
    grid = np.linspace(-8, 8, 400_001)
    oracle = np.max(np.abs(norm.cdf(grid) - norm.cdf(grid - 1.0)))
    val = ks_distance(x, lambda q: norm.cdf(q - 1.0))
    assert val == pytest.approx(oracle, abs=0.01)
    assert oracle == pytest.approx(2 * norm.cdf(0.5) - 1, abs=1e-10)
    with pytest.raises(DomainError):
        ks_distance([], norm.cdf)


def test_quantile_bands_constant_and_centred():
    const = PathEnsemble(data=np.full((40, 5), 2.5))
    bands = quantile_bands(const)
    for key in ("q0.025", "q0.5", "q0.975", "mean"):
        assert np.allclose(bands[key], 2.5)
    with pytest.raises(DomainError):
        quantile_bands(const, probs=(0.0, 0.5))

    model = GaussianARTailChain(FIG1_RHO)
    ens = simulate_hidden_tail_chain(model, 30, 20_000, seed=5)
    bands = quantile_bands(ens)
    sds = ens.data.std(axis=0)
    assert np.all(np.abs(bands["q0.5"][1:]) < 4 * 1.25 * sds[1:] / np.sqrt(20_000))


def test_chi_perfect_dependence_and_iid(rng):
    level = 0.95
    x0 = -np.log(1 - level) + rng.exponential(size=100_000)
    perfect = np.tile(x0[:, None], (1, 4))
    for lags in [(1,), (1, 2), (1, 2, 3)]:
        assert chi_from_paths(perfect, lags, level).value == 1.0
    iid = np.concatenate([x0[:, None], rng.exponential(size=(100_000, 3))], axis=1)
    for lags in [(1,), (1, 2)]:
        est = chi_from_paths(iid, lags, level)
        expected = (1 - level) ** len(lags)
        assert abs(est.value - expected) < 3 * max(est.se, 1e-4)


def test_chi_warns_when_starved(rng):
    x0 = -np.log(1 - 0.999) + rng.exponential(size=500)
    iid = np.concatenate([x0[:, None], rng.exponential(size=(500, 1))], axis=1)
    with pytest.warns(UserWarning):
        chi_from_paths(iid, (1,), 0.999)


def test_chi_gaussian_decreases_with_level():
    m = gaussian_model(np.array([0.7]))
    values = []
    for level in (0.9, 0.99, 0.999):
        est = chi_estimate(m, (1,), level, 40_000, seed=6)
        values.append(est.value)
        assert isinstance(est, ChiEstimate) and est.se > 0
    assert values[0] > values[1] > values[2]


def test_convergence_report_round_trip():
    m = gaussian_model(np.array([0.7]))
    t = GaussianARTailChain(np.array([0.7]))
    rep = convergence_diagnostic(m, t, u_grid=(3.0, 6.0), lags=(1, 2), n=2000,
                                 seed=7)
    blob = json.loads(rep.to_json())
    assert blob["ks"] == rep.ks.tolist()
    assert blob["model"].startswith("gaussian")
    assert rep.ks.shape == (2, 2)
    assert rep.runtime_s > 0
    assert rep.decreasing_tol.shape == (2,)


def test_kernel_limit_gap_logistic_tight():
    gap, fin, lim = kernel_limit_gap(logistic_model(0.32, 5),
                                     LogisticLocationTailChain(0.32, 5),
                                     20.0, np.linspace(-5, 5, 21))
    assert gap < 1e-6
    assert fin.shape == lim.shape == (21,)


@pytest.mark.parametrize("u", [60.0, 100.0, 1e3])
def test_kernel_limit_gap_logistic_at_high_thresholds(u):
    # states far above any fixed log-scale cut-off: the kernel's denominator
    # must still marginalize the next coordinate out exactly
    gap, _, _ = kernel_limit_gap(logistic_model(0.32, 5), LogisticLocationTailChain(0.32, 5),
                                 u, np.linspace(-5, 5, 21))
    assert gap < 1e-3


def test_kernel_limit_gap_inverted_logistic_scale_only():
    # scale-only norming pins the states at u^beta_t and compares on x > 0
    gaps = [kernel_limit_gap(inverted_logistic_model(0.27, 3),
                             InvertedLogisticScaleTailChain(0.27, 3),
                             u, np.linspace(0.1, 5.0, 21))[0] for u in (30.0, 100.0, 400.0)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-2


@pytest.mark.parametrize("make_model, make_tail", [
    (lambda: husler_reiss_model(FIG1_HR), lambda: HuslerReissLocationTailChain(FIG1_HR)),
    (lambda: logistic_model(0.32, 5), lambda: LogisticLocationTailChain(0.32, 5))],
    ids=["husler-reiss", "logistic"])
def test_kernel_limit_gap_reads_one_state_row(make_model, make_tail):
    # every grid point conditions on the same state row, which the slice
    # builds once: the gap's CDF values are a one-row slice's, bit for bit
    model, tail, u = make_model(), make_tail(), 20.0
    x = np.linspace(-5, 5, 21)
    _, fin, _ = kernel_limit_gap(model, tail, u, x)
    state = tail.alpha_seq(5)[:5] * u
    state[0] = u
    one = model.kernel_slice(state[None, :])
    pts = tail.a_fn(state) + tail.b_fn(state) * x
    assert np.array_equal(fin, one.cdf(pts, rows=np.zeros(x.size, dtype=int)))


@pytest.mark.parametrize("u", [62.0, 100.0])
def test_kernel_limit_gap_husler_reiss_at_high_thresholds(u):
    gap, _, _ = kernel_limit_gap(husler_reiss_model(FIG1_HR),
                                 HuslerReissLocationTailChain(FIG1_HR),
                                 u, np.linspace(-5, 5, 21))
    assert gap < 1e-2
