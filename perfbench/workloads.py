"""The benchmark's workloads: inputs drawn from the seed, operations, output checks.

A workload is a fixed list of operations (`Op`).  The runner repeats that list
in rounds; every round uses the same inputs, so counts repeat exactly and the
share of failed operations is the same in every run.  `call` is the timed
program call; `check` is untimed, verifies the result against an independent
computation or a property the method must have, raises `CheckFailed` when the
output is wrong, and returns the number of path values the call produced.

Program functions are looked up through their modules at call time
(`kernels.simulate_conditioned_chain`, `cli.main`, ...), so the tracer's
replacements are the ones called in a traced round.
"""
import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy.linalg import toeplitz
from scipy.special import logsumexp, ndtr

from tailchain import cli, kernels, mc_lab, recurrence, tail_chain
from tailchain.measures import AsymLogisticParams

FIG1_HR_ROW = (1.0, 0.9, 0.7, 0.5, 0.3, 0.1)
FIG1_RHO = np.array([0.70, 0.57, 0.47, 0.39, 0.33])
LOGISTIC_ALPHA = 0.32
INVERTED_ALPHA = 0.27
FIG2_PARAMS = AsymLogisticParams(0.3, 0.3, 0.3, 0.3, 0.3, 0.1, 0.5, 0.5, 0.5)

ORDER = 5
CHAIN_T = ORDER            # the initial block plus one kernel step per replicate
# replicate counts are kept small so that a run repeats every operation
# several times; the sampling-grade batches stay wide next to the probes' few rows
HR_REPLICATES = 256
CLOSED_FORM_REPLICATES = 512
PROBE_X = np.linspace(-5.0, 5.0, 21)
PROBE_P = np.array([0.05, 0.25, 0.5, 0.75, 0.95])
PROBE_TOL = 1e-10
# kernels._MaxStableSlice evaluates its denominator at the log-scale sentinel
# _LOG_BIG = 60, so every max-stable probe with states at or above 61 collapses
# (CDF 1 everywhere); those probes are kept and fail on every run
COLLAPSE_U = 61.0
# false-alarm rate of each one-sample KS check: a correct program practically never trips it
KS_FALSE_ALARM = 1e-9
RECURRENCE_QUERIES = 200


class CheckFailed(Exception):
    """The program's output is wrong."""


@dataclass
class Op:
    kind: str                      # "sample", "query", "report" or "command"
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], int]
    may_fail: bool = False         # a kept-failing operation


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def interleave(heavy, light):
    """Spread the light ops evenly after the heavy ones, so that their timings
    sample the whole round and not one stretch of it."""
    chunks = np.array_split(np.arange(len(light)), len(heavy))
    return [op for h, idx in zip(heavy, chunks) for op in [h] + [light[i] for i in idx]]


def ks_uniform(u, what):
    """One-sample KS of `u` against U(0, 1) at false-alarm rate KS_FALSE_ALARM."""
    u = np.sort(np.ravel(u))
    n = u.size
    d = max(np.max(np.arange(1, n + 1) / n - u), np.max(u - np.arange(n) / n))
    crit = np.sqrt(np.log(2.0 / KS_FALSE_ALARM) / (2.0 * n))
    require(d < crit, f"{what}: KS {d:.4f} >= {crit:.4f} at n={n}")


def frechet(x):
    """Unit-exponential to unit-Frechet scale, written out independently."""
    return -1.0 / np.log1p(-np.exp(-x))


class Repeatable:
    """Checks that a same-seed call gives the same bytes in every round."""

    def __init__(self):
        self.first = {}

    def __call__(self, name, blob):
        digest = hashlib.sha256(blob).hexdigest()
        require(self.first.setdefault(name, digest) == digest,
                f"{name}: output differs from the first round with the same seed")


# ---------------------------------------------------------------------------
# chain workloads

def conditioned_op(name, model, u, n, seed, same):
    """Sampling op: a conditioned ensemble, checked by memorylessness and PIT."""
    def call():
        return kernels.simulate_conditioned_chain(model, u, CHAIN_T, n, seed)

    def check(ens):
        x = ens.data
        require(x.shape == (n, CHAIN_T + 1) and np.all(np.isfinite(x)) and np.all(x > 0),
                f"{name}: paths not finite and positive with shape {(n, CHAIN_T + 1)}")
        ks_uniform(-np.expm1(-(x[:, 0] - u)), f"{name}: X0 - u ~ Exp(1)")
        k = model.k
        for j in range(1, k):
            sl = model.initial_slice(j, x[:, :j], grade="sampling")
            ks_uniform(sl.cdf(x[:, j]), f"{name}: PIT of X{j}")
        for t in range(k, CHAIN_T + 1):
            ks_uniform(kernels.kernel_cdf(model, x[:, t - k:t], x[:, t], grade="sampling"),
                       f"{name}: PIT of X{t}")
        same(name, x.tobytes())
        return x.size

    return Op("sample", name, call, check)


def probe_ops(prefix, model, tail, us, tol):
    """Accurate-grade query ops: the kernel-limit gap and tol-1e-10 quantiles."""
    ops = []
    k = model.k
    for u in us:
        state = tail.alpha_seq(k)[:k] * u
        state[0] = u
        states = np.tile(state, (PROBE_P.size, 1))
        may_fail = u >= COLLAPSE_U

        def gap_call(u=u):
            return mc_lab.kernel_limit_gap(model, tail, u, PROBE_X)[0]

        def gap_check(gap, u=u):
            require(gap < tol, f"{prefix} gap at u={u:g}: {gap:.3g} >= {tol:g}")
            return 0

        def q_call(states=states):
            return kernels.kernel_quantile(model, states, PROBE_P, tol=PROBE_TOL,
                                           grade="accurate")

        def q_check(q, u=u, states=states):
            z = (q - tail.a_fn(states)) / tail.b_fn(states)
            err = float(np.max(np.abs(tail.innovation.cdf(z) - PROBE_P)))
            require(err < tol, f"{prefix} quantile at u={u:g}: limit-law error {err:.3g}")
            return 0

        ops.append(Op("query", f"{prefix}-gap-u{u:g}", gap_call, gap_check, may_fail))
        ops.append(Op("query", f"{prefix}-quantile-u{u:g}", q_call, q_check, may_fail))
    return ops


def first_order_op(name, model1, closed_form, rng):
    """Query op: the k=1 kernel CDF against its bivariate closed form."""
    s = rng.uniform(0.5, 20.0, 64)
    x = rng.uniform(0.2, 25.0, 64)

    def call():
        return kernels.kernel_cdf(model1, s[:, None], x)

    def check(out):
        err = float(np.max(np.abs(out - closed_form(frechet(s), frechet(x)))))
        require(err < 1e-12, f"{name}: closed-form mismatch {err:.3g}")
        return 0

    return Op("query", name, call, check)


def hr_first_order_cdf(rho):
    lam = np.sqrt(2.0 * (1.0 - rho))

    def cdf(x, y):
        v = ndtr(lam / 2 + np.log(y / x) / lam) / x + ndtr(lam / 2 + np.log(x / y) / lam) / y
        return ndtr(lam / 2 + np.log(y / x) / lam) * np.exp(1.0 / x - v)
    return cdf


def logistic_first_order_cdf(a):
    def cdf(x, y):
        v = (x ** (-1.0 / a) + y ** (-1.0 / a)) ** a
        return (1.0 + (x / y) ** (1.0 / a)) ** (a - 1.0) * np.exp(1.0 / x - v)
    return cdf


def report_op(name, model, tail, u_grid, n, seed):
    """Report op: convergence_diagnostic, KS at the last threshold within bounds."""
    lags = tuple(range(1, model.k + 1))

    def call():
        return mc_lab.convergence_diagnostic(model, tail, u_grid=u_grid, lags=lags, n=n,
                                             seed=seed)

    def check(rep):
        limit = 0.05 + 1.358 * np.sqrt(2.0 / n)
        require(rep.ks.shape == (len(u_grid), len(lags)) and np.all(np.isfinite(rep.ks)),
                f"{name}: malformed KS table")
        require(np.all(rep.ks[-1] < limit),
                f"{name}: KS at u={u_grid[-1]:g} {np.array2string(rep.ks[-1], precision=3)}"
                f" exceeds {limit:.3f}")
        return 0

    return Op("report", name, call, check)


class HrChain:
    """Husler-Reiss k=5 chain: mvnorm lattice work in two batch regimes."""

    name = "hr-chain"

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        cov = toeplitz(FIG1_HR_ROW)
        model = kernels.husler_reiss_model(cov)
        tail = tail_chain.HuslerReissLocationTailChain(cov)
        model1 = kernels.husler_reiss_model(toeplitz(FIG1_HR_ROW[:2]))
        kernels.simulate_conditioned_chain(model, 3.0, CHAIN_T, 8, 0)
        kernels.kernel_cdf(model, np.full(ORDER, 20.0), 20.0)
        same = Repeatable()
        heavy = [conditioned_op(f"hr-u{u:g}", model, u, HR_REPLICATES,
                                int(rng.integers(2 ** 31)), same)
                 for u in (3.0, 9.0)]
        light = probe_ops("hr", model, tail, (20.0, 40.0, 62.0, 100.0), 1e-2)
        light.append(first_order_op("hr-k1", model1, hr_first_order_cdf(FIG1_HR_ROW[1]), rng))
        self.ops = interleave(heavy, light)


class ClosedFormChain:
    """Logistic, inverted-logistic and Gaussian k=5 chains: partition sums, no mvnorm."""

    name = "closed-form-chain"

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        families = [
            ("logistic", kernels.logistic_model(LOGISTIC_ALPHA, ORDER),
             tail_chain.LogisticLocationTailChain(LOGISTIC_ALPHA, ORDER), (3.0, 6.0, 9.0)),
            ("inverted", kernels.inverted_logistic_model(INVERTED_ALPHA, ORDER),
             tail_chain.InvertedLogisticScaleTailChain(INVERTED_ALPHA, ORDER),
             (30.0, 100.0, 400.0)),
            ("gaussian", kernels.gaussian_model(FIG1_RHO),
             tail_chain.GaussianARTailChain(FIG1_RHO), (1e2, 1e4, 1e8)),
        ]
        model1 = kernels.logistic_model(LOGISTIC_ALPHA, 1)
        for _, model, _, u_grid in families:
            kernels.simulate_conditioned_chain(model, u_grid[0], CHAIN_T, 8, 0)
        kernels.kernel_cdf(families[0][1], np.full(ORDER, 20.0), 20.0)
        same = Repeatable()
        n = CLOSED_FORM_REPLICATES
        heavy = []
        for name, model, tail, u_grid in families:
            heavy.append(conditioned_op(f"{name}-u{u_grid[-1]:g}", model, u_grid[-1], n,
                                        int(rng.integers(2 ** 31)), same))
            heavy.append(report_op(f"{name}-report", model, tail, u_grid, n,
                                   int(rng.integers(2 ** 31))))
        light = probe_ops("logistic", families[0][1], families[0][2],
                          (20.0, 50.0, 80.0, 200.0), 1e-3)
        light.append(first_order_op("logistic-k1", model1,
                                    logistic_first_order_cdf(LOGISTIC_ALPHA), rng))
        self.ops = interleave(heavy, light)


# ---------------------------------------------------------------------------
# limit side and command line

TAIL_T = 50
TAIL_REPLICATES = 5000     # simulate-tail-chain writes n*(T+1) = 255,000 CSV rows
FIG2_HORIZON = 50          # every seed runs all 50 steps; ~10-20 in 1e4 episodes outlast it
REGIME_T = 20
REGIME_REPLICATES = 500


def run_cli(argv):
    """In-process CLI run with its stdout and stderr captured; returns (code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def dir_bytes(path):
    blob = b""
    for f in sorted(os.listdir(path)):
        with open(os.path.join(path, f), "rb") as fh:
            blob += f.encode() + fh.read()
    return blob


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def own_iteration(c, gamma, delta, a0, T):
    """Forward iteration of alpha_t = c (sum g_i (g_i x_i)^delta)^(1/delta)."""
    g = np.asarray(gamma)
    k = g.size
    alpha = np.empty(T + 1)
    alpha[:k] = a0
    for t in range(k, T + 1):
        x = alpha[t - k:t]
        if delta == 0.0:
            alpha[t] = c * np.prod((g * x) ** g)
        else:
            alpha[t] = c * np.sum(g * (g * x) ** delta) ** (1.0 / delta)
    return alpha


def draw_family(rng, k, delta_zero):
    gamma = tuple(float(g) for g in rng.dirichlet(np.ones(k)))
    c = float(rng.uniform(0.5, 1.0))
    a0 = [1.0] + [float(v) for v in rng.uniform(0.2, 0.9, size=k - 1)]
    delta = 0.0 if delta_zero else float(rng.choice([-1, 1]) * rng.uniform(0.2, 2.0))
    return c, gamma, delta, a0


class LimitCli:
    """Tail chains, the regime chain, recurrences and in-process CLI commands."""

    name = "limit-cli"

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        same = Repeatable()
        a = LOGISTIC_ALPHA
        tail = tail_chain.LogisticLocationTailChain(a, ORDER)
        cli_seed = int(rng.integers(2 ** 31))
        regime_seed = int(rng.integers(2 ** 31))
        tail_chain.simulate_hidden_tail_chain(tail, ORDER, 8, 0)
        tail_chain.simulate_regime_tail_chain(FIG2_PARAMS, 4, 8, 0)
        recurrence.solve_closed_form(recurrence.HomogeneousFamily(0.8, (0.4, 0.6), 0.5),
                                     [1.0, 0.5])
        shared = {}

        def hidden_call():
            return tail_chain.simulate_hidden_tail_chain(tail, TAIL_T, TAIL_REPLICATES, cli_seed)

        def hidden_check(ens):
            m = ens.data
            require(m.shape == (TAIL_REPLICATES, TAIL_T + 1) and np.all(m[:, 0] == 0.0),
                    "hidden chain: bad shape or M0 != 0")
            win = np.lib.stride_tricks.sliding_window_view(m[:, :-1], ORDER, axis=1)
            eps = m[:, ORDER:] - (-a * logsumexp(-win / a, axis=-1))
            ks_uniform(np.exp((a - ORDER) * np.logaddexp(0.0, -eps / a)),
                       "hidden chain: innovation PIT")
            shared["hidden"] = m
            return m.size

        def regime_call():
            return tail_chain.simulate_regime_tail_chain(FIG2_PARAMS, REGIME_T,
                                                         REGIME_REPLICATES, regime_seed)

        def regime_check(ens):
            modes, term = ens.extras["modes"], ens.extras["termination"]
            active = modes >= 0
            require(np.array_equal(np.isfinite(ens.data), active),
                    "regime chain: values not finite exactly while active")
            require(np.all(ens.data[:, 0] == 0.0) and np.all(modes[:, 0] == 1),
                    "regime chain: bad start")
            require(np.array_equal(ens.extras["atom_flag"],
                                   (active & (modes == 0)).astype(np.int8)),
                    "regime chain: atom flags differ from body modes")
            body_pair = (modes[:, 1:] == 0) & (modes[:, :-1] == 0)
            first = np.where(body_pair.any(axis=1), body_pair.argmax(axis=1) + 1, 0)
            require(np.array_equal(first, term),
                    "regime chain: termination is not the first body-body pair")
            same("regime", ens.data.tobytes())
            return int(active.sum())

        heavy = [Op("sample", "hidden-logistic-rw", hidden_call, hidden_check),
                 Op("sample", "regime", regime_call, regime_check)]

        def command(name, argv, check):
            path = os.path.join(out_dir, name)

            def call():
                return run_cli(["--seed", str(cli_seed), "--out", path] + argv)

            def checked(result):
                code, err = result
                require(code == 0, f"{name}: exit code {code}: {err.strip()}")
                check(path)
                same(name, dir_bytes(path))
                return 0

            heavy.append(Op("command", name, call, checked))

        def fig1_check(panel):
            def check(path):
                header, bands = read_csv(os.path.join(path, f"fig1{panel}_bands.csv"))
                require(header == ["t", "mean", "q0.025", "q0.5", "q0.975"]
                        and bands.shape == (TAIL_T + 1, 5) and np.all(np.isfinite(bands)),
                        f"fig1{panel}: bands malformed")
                _, one = read_csv(os.path.join(path, f"fig1{panel}_path.csv"))
                require(one.shape == (TAIL_T + 1, 3), f"fig1{panel}: path malformed")
            return check

        for panel in "abcd":
            command(f"fig1{panel}", ["fig1", "--panel", panel], fig1_check(panel))

        def fig2_check(path):
            with open(os.path.join(path, "fig2_summary.json")) as fh:
                summary = json.load(fh)
            require(8.0 <= summary["mean_tb"] <= 8.9,
                    f"fig2: mean termination time {summary['mean_tb']} not in [8.0, 8.9]")
            require(summary["n_terminated"] >= 0.99 * summary["n_rep"],
                    f"fig2: only {summary['n_terminated']} episodes terminated")
            _, hist = read_csv(os.path.join(path, "fig2_tb_hist.csv"))
            require(hist[:, 1].sum() == summary["n_terminated"], "fig2: histogram total")

        command("fig2", ["fig2", "--horizon", str(FIG2_HORIZON)], fig2_check)

        def tail_check(path):
            _, rows = read_csv(os.path.join(path, "tail_chain_paths.csv"))
            require("hidden" in shared, "simulate-tail-chain: no library run to compare with")
            m = shared["hidden"]
            n, width = m.shape
            require(rows.shape == (n * width, 3), f"simulate-tail-chain: {rows.shape[0]} rows,"
                    f" expected n*(T+1) = {n * width}")
            require(np.array_equal(rows[:, 0], np.repeat(np.arange(n), width))
                    and np.array_equal(rows[:, 1], np.tile(np.arange(width), n)),
                    "simulate-tail-chain: replicate/t columns out of order")
            require(np.array_equal(rows[:, 2], m.ravel()),
                    "simulate-tail-chain: CSV differs from the same-seed library call")

        command("simulate-tail-chain",
                ["simulate-tail-chain", "--kind", "logistic-rw", "--alpha", str(a),
                 "--k", str(ORDER), "--horizon", str(TAIL_T),
                 "--n-rep", str(TAIL_REPLICATES)], tail_check)

        c, gamma, delta, a0 = draw_family(rng, int(rng.integers(1, 6)), delta_zero=False)

        def solve_check(path):
            with open(os.path.join(path, "recurrence.json")) as fh:
                info = json.load(fh)
            require(info["max_abs_diff_vs_iteration"] < 1e-8,
                    "solve-recurrence: closed form departs from its own iteration")
            _, rows = read_csv(os.path.join(path, "recurrence.csv"))
            diff = np.max(np.abs(rows[:, 1] - own_iteration(c, gamma, delta, a0, TAIL_T)))
            require(rows.shape[0] == TAIL_T + 1 and diff < 1e-8,
                    f"solve-recurrence: differs from forward iteration by {diff:.3g}")

        command("solve-recurrence",
                ["solve-recurrence", "--c", repr(c), "--delta", repr(delta),
                 "--gamma", ",".join(map(repr, gamma)),
                 "--alpha-init", ",".join(map(repr, a0)), "--horizon", str(TAIL_T)],
                solve_check)

        beta = float(rng.uniform(0.3, 0.9))
        k_beta = int(rng.integers(1, 7))

        def beta_check(path):
            _, rows = read_csv(os.path.join(path, "beta_seq.csv"))
            rec = np.empty(TAIL_T + 1)
            rec[0] = 1.0
            rec[1:k_beta] = beta
            for t in range(k_beta, TAIL_T + 1):
                rec[t] = beta * np.max(rec[max(t - k_beta, 0):t])
            require(np.allclose(rows[:, 1], rec, rtol=1e-12, atol=0),
                    "beta-seq: differs from the max recursion")

        command("beta-seq", ["beta-seq", "--beta", repr(beta), "--k", str(k_beta),
                             "--horizon", str(TAIL_T)], beta_check)

        # every order and regime appears equally often, so the mix is the same for all seeds
        light = [self.solve_op(i, *draw_family(rng, i % 5 + 1, delta_zero=i % 2 == 1))
                 for i in range(RECURRENCE_QUERIES)]
        light.append(self.yule_walker_op())
        self.ops = interleave(heavy, light)

    @staticmethod
    def solve_op(i, c, gamma, delta, a0):
        fam = recurrence.HomogeneousFamily(c, gamma, delta)
        solver = "solve_delta_zero" if delta == 0.0 else "solve_closed_form"

        def call():
            return getattr(recurrence, solver)(fam, a0).evaluate(np.arange(TAIL_T + 1))

        def check(alpha):
            ref = own_iteration(c, gamma, delta, a0, TAIL_T)
            diff = np.max(np.abs(np.log(alpha) - np.log(ref)) if delta == 0.0
                          else np.abs(alpha - ref))
            require(diff < 1e-8, f"recurrence {i} (k={len(gamma)}, delta={delta:.3g}):"
                    f" closed form differs from iteration by {diff:.3g}")
            return 0

        return Op("query", f"recurrence-{i}", call, check)

    @staticmethod
    def yule_walker_op():
        def call():
            yw = recurrence.gaussian_yule_walker(FIG1_RHO)
            rho = yw.extend(100)
            return recurrence.iterate_alpha(yw.location_functional(), rho[:ORDER] ** 2, 100), rho

        def check(result):
            alpha, rho = result
            diff = float(np.max(np.abs(alpha - rho ** 2)))
            require(diff < 1e-12, f"Yule-Walker: |alpha_t - rho_t^2| = {diff:.3g}")
            return 0

        return Op("query", "yule-walker", call, check)


WORKLOADS = {w.name: w for w in (HrChain, ClosedFormChain, LimitCli)}
