"""Limiting tail chains of conditioned Markov chains.

Each model couples three ingredients: update maps (psi_a, psi_b) driving
``M_t = psi_a(M_{t-k:t-1}) + psi_b(M_{t-k:t-1}) eps_t``, an innovation law
for the eps_t, and an initial law for (M_1..M_{k-1}).  Four closed-form
families are implemented (Gaussian autoregressive, logistic and
Husler-Reiss random walks, inverted-logistic pure-scale chain) plus the
regime-switching chain driven by latent Bernoulli mode indicators.
`TailChainModel.update_functions` holds the one t >= k check.  The two
difference-normed families share `_DifferenceTailChain`, whose update maps
are the location functional itself and psi_b = 1, and the scalar
innovation laws share inverse-CDF sampling.  The logistic profile law is the
one quantile behind the logistic initial law, its innovation and the regime
chain's tracked transitions.  Both simulators raise NumericalError on
non-finite path values.

Windows are ordered oldest to newest throughout, matching
:mod:`tailchain.recurrence`.
"""
import numpy as np
from scipy.linalg import toeplitz
from scipy.special import expit, ndtr, ndtri

from .measures import husler_reiss_covariance
from .paths import PathEnsemble
from .recurrence import beta_sequence, gaussian_yule_walker
from .transforms import log_exp_to_frechet
from .utils import DomainError, NumericalError, ParameterError, logsumexp, replicate_rng


# ---------------------------------------------------------------------------
# innovation and initial laws (inverse-CDF sampling throughout)

_LOG_DBL_MAX = np.log(np.finfo(float).max)


def _log_expm1(z):
    """log(e^z - 1) for z > 0; z itself where expm1 overflows, since there
    log(e^z - 1) = z + log1p(-e^-z) rounds to z (Maechler 2012)."""
    with np.errstate(over="ignore"):
        return np.where(z > _LOG_DBL_MAX, z, np.log(np.expm1(z)))


class _ScalarLaw:
    """Inverse-CDF sampling for the scalar innovation laws."""

    def sample(self, rng, n):
        return self.quantile(rng.uniform(size=n))


class NormalLaw(_ScalarLaw):
    def __init__(self, mean, sd):
        self.mean = float(mean)
        self.sd = float(sd)

    def cdf(self, x):
        return ndtr((np.asarray(x, dtype=float) - self.mean) / self.sd)

    def quantile(self, p):
        return self.mean + self.sd * ndtri(np.asarray(p, dtype=float))


class LogisticProfileLaw(_ScalarLaw):
    """CDF (1 + exp(-x/alpha))^(alpha - m) on R; the logistic kernel limit."""

    def __init__(self, alpha, m):
        self.alpha = float(alpha)
        self.m = float(m)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp((self.alpha - self.m) * np.logaddexp(0.0, -x / self.alpha))

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        return -self.alpha * _log_expm1(np.log(p) / (self.alpha - self.m))


class WeibullScaleLaw(_ScalarLaw):
    """CDF 1 - exp(-alpha x^(1/alpha)) on (0, inf); the inverted-logistic limit."""

    def __init__(self, alpha):
        self.alpha = float(alpha)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(np.shape(x))
        pos = x > 0
        out[pos] = -np.expm1(-self.alpha * x[pos] ** (1.0 / self.alpha))
        return out

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        return (-np.log1p(-p) / self.alpha) ** self.alpha


class MultivariateNormalLaw:
    """Initial law sampled coordinatewise by inverse CDF through a Cholesky map."""

    def __init__(self, mean, cov):
        self.mean = np.asarray(mean, dtype=float)
        self.cov = np.asarray(cov, dtype=float)
        self.chol = np.linalg.cholesky(self.cov)

    @property
    def dim(self):
        return self.mean.shape[0]

    def sample(self, rng, n):
        z = ndtri(rng.uniform(size=(n, self.dim)))
        return self.mean[None, :] + z @ self.chol.T


class LogisticProfileInitial:
    """Joint initial law with CDF (1 + sum exp(-x_i/alpha))^(alpha-1) on R^(k-1).

    Sequential conditionals are again of logistic-profile type, so sampling
    is exact coordinatewise inversion.
    """

    def __init__(self, alpha, k):
        self.alpha = float(alpha)
        self.k = int(k)

    @property
    def dim(self):
        return self.k - 1

    def cdf(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        s = logsumexp(np.concatenate(
            [np.zeros((x.shape[0], 1)), -x / self.alpha], axis=1), axis=1)
        return np.exp((self.alpha - 1.0) * s)

    def sample(self, rng, n):
        a = self.alpha
        out = np.empty((n, self.dim))
        log_s = np.zeros(n)  # log(1 + sum of previous exp(-x/alpha))
        for j in range(1, self.dim + 1):
            u = rng.uniform(size=n)
            out[:, j - 1] = -a * (log_s + _log_expm1(np.log(u) / (a - j)))
            log_s = np.logaddexp(log_s, -out[:, j - 1] / a)
        return out


class IIDLaw:
    def __init__(self, law, dim):
        self.law = law
        self.dim = int(dim)

    def sample(self, rng, n):
        # one row per coordinate: the same stream as dim successive draws of n
        return self.law.quantile(rng.uniform(size=(self.dim, n))).T


# ---------------------------------------------------------------------------
# tail-chain models

def _order(k):
    if k < 1:
        raise ParameterError("the order k must be at least 1")
    return int(k)


def _logistic_alpha(alpha):
    if not (0.0 < alpha < 1.0):
        raise ParameterError("alpha must lie in (0,1)")
    return float(alpha)


class TailChainModel:
    """Base: norming descriptors plus update maps, innovation, initial law."""

    k = None
    m0 = 0.0
    norming = None            # "location-scale" | "difference" | "scale-only"

    def update_functions(self, t):
        """(psi_a, psi_b) at time t >= k; windows run oldest to newest."""
        if t < self.k:
            raise DomainError("update functions are defined for t >= k")
        return self._updates(t)

    def _updates(self, t):
        raise NotImplementedError

    def alpha_seq(self, T):
        """Location slopes alpha_0..alpha_T (1s for difference norming)."""
        raise NotImplementedError

    def beta_seq(self, T):
        """Scale exponents beta_0..beta_T."""
        raise NotImplementedError

    def a_fn(self, window):
        """The location functional of the kernel limit (0 if none)."""
        raise NotImplementedError

    def b_fn(self, window):
        """The scale functional of the kernel limit (1 if none)."""
        raise NotImplementedError


class GaussianARTailChain(TailChainModel):
    """Scaled autoregressive limit of the Gaussian-copula chain.

    Norming: a_t(v) = rho_t^2 v, b_t(v) = v^(1/2).  The update maps are the
    gradient of the location functional at the slope window:
    psi_a(m) = rho_t sum_i (phi_i / rho_{t-i}) m_{t-i}, psi_b = rho_t.
    """

    norming = "location-scale"
    beta = 0.5

    def __init__(self, rho):
        rho = np.asarray(rho, dtype=float)
        self.k = _order(rho.shape[0])
        self.yw = gaussian_yule_walker(rho)
        self.rho_seq = self.yw.extend(self.k)
        q = self.yw.precision
        self.q_kk = q[-1, -1]
        self.innovation = NormalLaw(0.0, np.sqrt(2.0 / self.q_kk))
        ri = self.rho_seq[1:self.k]
        cov = 2.0 * np.outer(ri, ri) * (toeplitz(self.rho_seq[:self.k - 1])
                                        - np.outer(ri, ri))
        self.initial = MultivariateNormalLaw(np.zeros(self.k - 1), cov)

    def _rho(self, t):
        if t >= len(self.rho_seq):
            self.rho_seq = self.yw.extend(max(t + 1, 2 * len(self.rho_seq)))
        return self.rho_seq[t]

    def _updates(self, t):
        k = self.k
        rho_t = self._rho(t)
        coef = np.array([rho_t * self.yw.phi[k - pos - 1] / self._rho(t - k + pos)
                         for pos in range(k)])

        def psi_a(window):
            return np.asarray(window, dtype=float) @ coef

        def psi_b(window):
            w = np.asarray(window, dtype=float)
            return np.full(w.shape[:-1], rho_t)

        return psi_a, psi_b

    def alpha_seq(self, T):
        return self.yw.extend(T) ** 2

    def beta_seq(self, T):
        b = np.full(int(T) + 1, self.beta)
        b[0] = 1.0
        return b

    def a_fn(self, window):
        w = self.yw.phi[::-1]
        return np.square(np.sum(w * np.sqrt(np.asarray(window, dtype=float)), axis=-1))

    def b_fn(self, window):
        return np.sqrt(self.a_fn(window))

    def descriptor(self):
        return f"gaussian_ar(rho={np.array2string(self.yw.rho, separator=',')})"


class _DifferenceTailChain(TailChainModel):
    """Difference norming (alpha_t = 1, beta_t = 0 for t >= 1): the location
    update psi_a is the location functional `a_fn` itself and psi_b = 1."""

    norming = "difference"

    def _updates(self, t):
        return self.a_fn, self.b_fn

    def alpha_seq(self, T):
        return np.ones(int(T) + 1)

    def beta_seq(self, T):
        b = np.zeros(int(T) + 1)
        b[0] = 1.0
        return b

    def b_fn(self, window):
        w = np.asarray(window, dtype=float)
        return np.ones(w.shape[:-1])


class LogisticLocationTailChain(_DifferenceTailChain):
    """Random walk with a profile correction; limit of the logistic MEV chain."""

    def __init__(self, alpha, k):
        self.alpha = _logistic_alpha(alpha)
        self.k = _order(k)
        self.innovation = LogisticProfileLaw(alpha, k)
        self.initial = LogisticProfileInitial(alpha, k)

    def a_fn(self, window):
        w = np.asarray(window, dtype=float)
        return -self.alpha * logsumexp(-w / self.alpha, axis=-1)

    def descriptor(self):
        return f"logistic_rw(alpha={self.alpha}, k={self.k})"


class HuslerReissLocationTailChain(_DifferenceTailChain):
    """Linear random walk on the profile; limit of the Husler-Reiss MEV chain."""

    def __init__(self, cov):
        cov = husler_reiss_covariance(cov)
        d = cov.shape[0]
        self.k = _order(d - 1)
        self.cov = cov
        q = np.linalg.inv(cov)
        qvec = q @ np.ones(d)
        self.amat = q - np.outer(qvec, qvec) / qvec.sum()
        self.tau = 1.0 / self.amat[-1, -1]
        self.coef = -self.tau * self.amat[-1, :-1]     # position order 0..k-1
        # innovation variance equals tau (not tau^2): the exact full
        # conditional is Gaussian-shaped with precision A_kk on this scale
        self.innovation = NormalLaw(-self.tau * qvec[-1] / qvec.sum(),
                                    np.sqrt(self.tau))
        sub = cov[:self.k, :self.k]
        T0 = np.zeros((self.k - 1, self.k))
        for r in range(self.k - 1):
            T0[r, r + 1] = 1.0
            T0[r, 0] = -1.0
        sig0 = T0 @ sub @ T0.T
        shift = np.array([cov[0, 0] - cov[0, j] for j in range(1, self.k)])
        self.initial = MultivariateNormalLaw(-shift, sig0)

    def a_fn(self, window):
        return np.asarray(window, dtype=float) @ self.coef

    def descriptor(self):
        return f"husler_reiss_rw(k={self.k})"


class InvertedLogisticScaleTailChain(TailChainModel):
    """Pure-scale chain; limit of the inverted-logistic survival copula.

    The scale exponent drops a geometric step every k lags, so the update at
    time t only sees the window entries old enough to share the current
    scale block: with j = t mod k the newest j-1 entries are zeroed.
    """

    norming = "scale-only"
    m0 = 1.0

    def __init__(self, alpha, k):
        self.alpha = _logistic_alpha(alpha)
        self.k = _order(k)
        self.beta = 1.0 - alpha
        self.innovation = WeibullScaleLaw(alpha)
        self.initial = IIDLaw(self.innovation, k - 1)

    def _updates(self, t):
        k = self.k
        j = t % k
        keep = k if j == 1 else (1 if j == 0 else k - j + 1)

        def psi_a(window):
            w = np.asarray(window, dtype=float)
            return np.zeros(w.shape[:-1])

        def psi_b(window):
            w = np.asarray(window, dtype=float)
            return self.b_fn(w[..., :keep])

        return psi_a, psi_b

    def alpha_seq(self, T):
        return np.zeros(int(T) + 1)

    def beta_seq(self, T):
        return beta_sequence(self.beta, self.k, T)

    def a_fn(self, window):
        w = np.asarray(window, dtype=float)
        return np.zeros(w.shape[:-1])

    def b_fn(self, window):
        w = np.asarray(window, dtype=float)
        return np.sum(w ** (1.0 / self.alpha), axis=-1) ** (self.alpha * (1.0 - self.alpha))

    def descriptor(self):
        return f"inverted_logistic_scale(alpha={self.alpha}, k={self.k})"


# ---------------------------------------------------------------------------
# operations

def finite_level_remainder(model, t, x, v):
    """Remainder of the affine update approximation at finite level v.

    Evaluates how far the exact norming composition at level v sits from its
    limit: r_a compares locations, r_b compares scales.  Both vanish as
    v -> inf; for exactly translation-compatible location functionals
    (logistic, Husler-Reiss) r_a is identically zero.  Defined for t >= k.
    """
    x = np.asarray(x, dtype=float)
    psi_a, psi_b = model.update_functions(t)
    alpha = model.alpha_seq(t)
    beta = model.beta_seq(t)
    window_t = np.arange(t - model.k, t)
    arg = alpha[window_t] * v + v ** beta[window_t] * x
    a_t = alpha[t] * v
    b_t = v ** beta[t]
    bfn = model.b_fn(arg)
    r_a = (a_t - model.a_fn(arg) + b_t * psi_a(x)) / bfn
    r_b = 1.0 - b_t * psi_b(x) / bfn
    return r_a, r_b


def simulate_hidden_tail_chain(model, T, n_rep, seed):
    """Ensemble of the limiting chain: M_t = psi_a(window) + psi_b(window) eps_t.

    Raises NumericalError when a path value is not finite.
    """
    if T < model.k:
        raise ParameterError("horizon T must be at least the order k")
    rng = replicate_rng(seed, 0)
    k = model.k
    data = np.empty((n_rep, T + 1))
    data[:, 0] = model.m0
    data[:, 1:k] = model.initial.sample(rng, n_rep)
    for t in range(k, T + 1):
        psi_a, psi_b = model.update_functions(t)
        eps = model.innovation.sample(rng, n_rep)
        window = data[:, t - k:t]
        data[:, t] = psi_a(window) + psi_b(window) * eps
    if not np.all(np.isfinite(data)):
        raise NumericalError(f"{model.descriptor()} produced non-finite path values")
    return PathEnsemble(data=data, u=None, seed=seed, model=model.descriptor(),
                        norming=model.norming, extras={"limit": True})


# ---------------------------------------------------------------------------
# regime-switching chain (asymmetric logistic, order 2)

# log G above 0 by more than this is not rounding
_LOG_CDF_SLACK = 1e-15
# Newton's error after a step s is O(s^2), so a relative step of 1e-12 already
# leaves the root at rounding; the evaluated log G carries up to ~5e-14 relative
# noise in y (y near 1e-12 beside a body neighbour near 15), which a 1e-14 test
# would chase without end
_NEWTON_RTOL = 1e-12
_NEWTON_MAX_ITER = 100
# rng.uniform draws from [0, 1) and the transition laws take levels in (0, 1),
# so a draw of exactly 0 is lifted to the smallest positive double
_SMALLEST_LEVEL = np.nextafter(0.0, 1.0)


class RegimeSwitchingTailChain:
    """Hidden tail chain with latent extreme/body mode indicators B_t.

    The mode pair (B_{t-2}, B_{t-1}) selects one of six transition laws:
    staying in the tracked mode shifts a closed-form profile law by the
    matching location functional, while dropping to the body realizes the
    infinite atom of the location view and draws an absolute body value.
    The chain terminates at the first pair of consecutive body states.

    The body law after a (1, 0) or (0, 1) pair is the conditional law of the
    new value given the body neighbour x under the bivariate margin of the
    asymmetric logistic (Tawn 1990, Biometrika 77).  On the Frechet scale,
    with r = y/x, each face (theta, nu) that spans both coordinates adds
    theta (x^(-1/nu) + y^(-1/nu))^nu = (theta/x) (1 + r^(-1/nu))^nu, and the
    single-coordinate faces carry the rest, m = 1 - sum theta, by the
    marginal constraints.  So
        G(y) = [1 - sum theta (1 - w)] exp(-m/y - sum theta ((1 + q)^nu - 1)/x)
    with q = r^(-1/nu) and w = (1 + q)^(nu - 1): closed in r, and each regime
    supplies only its two faces.  It is inverted by safeguarded Newton on
    log G (below the median) or log(1 - G) (above it).
    """

    k = 2

    def __init__(self, params):
        self.params = params
        p = params
        self.m10 = p.theta0 / (p.theta0 + p.theta02)
        self.m01 = p.theta1 / (p.theta1 + p.theta01)
        # latent-mode start: complement of the pair mass theta01 + theta012,
        # calibrated against the reported episode-length statistics
        self.p1_initial = p.theta0 + p.theta02
        # tracked-mode transition laws, shifted by `location_shift`
        self.tracked = {(1, 1): LogisticProfileLaw(p.nu012, 2.0),
                        (1, 0): LogisticProfileLaw(p.nu02, 1.0),
                        (0, 1): LogisticProfileLaw(p.nu01, 1.0)}

    def m11(self, x0, x1):
        """Mode-continuation probability given both previous states tracked."""
        p = self.params
        x0 = np.asarray(x0, dtype=float)
        x1 = np.asarray(x1, dtype=float)
        kap = np.log((p.theta012 * (1 - p.nu012) / p.nu012)
                     / (p.theta01 * (1 - p.nu01) / p.nu01))
        s012 = np.logaddexp(-x0 / p.nu012, -x1 / p.nu012)
        s01 = np.logaddexp(-x0 / p.nu01, -x1 / p.nu01)
        logratio = kap + (x0 + x1) * (1.0 / p.nu01 - 1.0 / p.nu012) \
            + (p.nu012 - 2.0) * s012 - (p.nu01 - 2.0) * s01
        return expit(-logratio)

    # --- profile laws -------------------------------------------------
    def location_shift(self, A, x0, x1):
        """a_{A,1}: the location functional of the tracked-mode transition."""
        p = self.params
        if A == (1, 1):
            return -p.nu012 * np.logaddexp(-x0 / p.nu012, -x1 / p.nu012)
        if A == (1, 0):
            return x0
        if A == (0, 1):
            return x1
        raise DomainError(f"no tracked-mode transition from regime {A}")

    def tracked_quantile(self, A, u):
        if A not in self.tracked:
            raise DomainError(f"no tracked-mode transition from regime {A}")
        return self.tracked[A].quantile(u)

    # --- body laws ----------------------------------------------------
    def _body_faces(self, A):
        """(theta, nu) of the two faces joining the body neighbour and the new value."""
        p = self.params
        if A == (1, 0):
            return ((p.theta01, p.nu01), (p.theta012, p.nu012))
        if A == (0, 1):
            return ((p.theta02, p.nu02), (p.theta012, p.nu012))
        raise DomainError(f"no body transition from regime {A}")

    def body_log_cdf(self, A, y, prev_body):
        """(log G_{A,0}(y), d log G_{A,0}/dy) for y > 0 and A in {(1,0), (0,1)}.

        Every face adds a nonnegative correction, so log G <= 0 holds by
        construction.  A NaN argument raises NumericalError before any
        arithmetic, and so does a value that is NaN or above _LOG_CDF_SLACK.
        """
        faces = self._body_faces(A)
        log_tx = log_exp_to_frechet(prev_body)
        log_ty = log_exp_to_frechet(y)
        if np.isnan(log_tx).any() or np.isnan(log_ty).any():
            raise NumericalError(f"regime {A} body law given a NaN argument")
        m = 1.0
        deficit = 0.0       # sum theta (1 - w): 1 minus the conditional mass -x^2 V_x
        expo = 0.0          # sum theta ((1 + q)^nu - 1)
        dy = 0.0            # sum theta (1 + 1/q)^(nu - 1): the weights of -y^2 V_y
        cross = 0.0         # sum theta (1 - nu)/nu q (1 + q)^(nu - 2): the weights of -x y V_xy
        for theta, nu in faces:
            log_q = (log_tx - log_ty) / nu
            log1q = np.logaddexp(0.0, log_q)
            m -= theta
            deficit = deficit - theta * np.expm1((nu - 1.0) * log1q)
            expo = expo + theta * np.expm1(nu * log1q)
            dy = dy + theta * np.exp((nu - 1.0) * np.logaddexp(0.0, -log_q))
            cross = cross + theta * (1.0 - nu) / nu * np.exp(log_q + (nu - 2.0) * log1q)
        with np.errstate(over="ignore"):
            ty = np.exp(log_ty)
            log_cdf = np.log1p(-deficit) - m / ty - expo * np.exp(-log_tx)
            # d/dy of log G: (d log G / d ty) ty^2 / expm1(y), the Jacobian of the scale map
            dlog = (m + dy + ty * cross / (1.0 - deficit)) / np.expm1(y)
        if not np.all(log_cdf <= _LOG_CDF_SLACK):
            raise NumericalError(f"regime {A} body CDF is NaN or above 1 beyond rounding")
        return np.minimum(log_cdf, 0.0), dlog

    def body_cdf(self, A, y, prev_body):
        """G_{A,0}: absolute body-value law; depends on the body neighbour."""
        y = np.asarray(y, dtype=float)
        pos = np.where(y > 0, y, 1.0)
        if A == (1, 1):
            out = -np.expm1(-pos)
        else:
            out = np.exp(self.body_log_cdf(A, pos, prev_body)[0])
        return np.where(y > 0, out, 0.0)

    def body_quantile(self, A, u, prev_body):
        """Inverse of :meth:`body_cdf` for u in (0, 1), row by row.

        Starts from the unit-exponential quantile, which is exact for (1, 1).
        Otherwise each row takes Newton steps in log y on log G - log u when
        u < 1/2 and in y on log(1 - G) - log(1 - u) when u >= 1/2 (both close
        to linear in the tails).  Every evaluation narrows the row's bracket
        lo < y* <= hi.  A step that leaves it (while hi is not yet found,
        that means going past 2 lo + 1), or that is longer than half the
        row's step two iterations before (rtsafe's rule, Numerical Recipes
        sec. 9.4: Newton steps can cycle across the root inside the
        bracket), is replaced by expansion (hi not yet found: 2 lo + 1; lo
        not yet found: hi / 16) or by the geometric midpoint.  Only rows
        whose last step exceeded _NEWTON_RTOL relative are iterated again; a
        row still moving after _NEWTON_MAX_ITER steps raises NumericalError.
        """
        u = np.asarray(u, dtype=float)
        if not np.all((u > 0) & (u < 1)):
            raise DomainError("body quantile levels must lie in (0, 1)")
        y = -np.log1p(-u)
        if A == (1, 1):
            return y
        shape = u.shape
        u, y = u.ravel(), y.ravel()
        prev = np.broadcast_to(np.asarray(prev_body, dtype=float), shape).ravel()
        upper = u >= 0.5
        log_target = np.where(upper, np.log1p(-u), np.log(u))
        lo = np.zeros(u.size)
        hi = np.full(u.size, np.inf)
        # each row's last two step lengths; there is none before the first step
        step = np.full(u.size, np.inf)
        step_before = np.full(u.size, np.inf)
        rows = np.arange(u.size)
        for _ in range(_NEWTON_MAX_ITER):
            yr, up, target = y[rows], upper[rows], log_target[rows]
            log_cdf, dlog = self.body_log_cdf(A, yr, prev[rows])
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                sf = -np.expm1(log_cdf)
                log_sf = np.log(sf)
                below = np.where(up, log_sf > target, log_cdf < target)
                l = lo[rows] = np.where(below, yr, lo[rows])
                h = hi[rows] = np.where(below, hi[rows], yr)
                new = np.where(up, yr + (log_sf - target) * sf / (np.exp(log_cdf) * dlog),
                               yr * np.exp((target - log_cdf) / (yr * dlog)))
                top = np.where(np.isinf(h), 2.0 * l + 1.0, h)
                fallback = np.where(np.isinf(h), top,
                                    np.where(l == 0.0, h / 16.0, np.sqrt(l * h)))
                ok = ((new >= l) & (new <= top) & (new > 0)
                      & (np.abs(new - yr) <= 0.5 * step_before[rows]))
                new = np.where(ok, new, fallback)
            y[rows] = new
            moved = np.abs(new - yr)
            step_before[rows], step[rows] = step[rows], moved
            rows = rows[moved > _NEWTON_RTOL * new]
            if rows.size == 0:
                return y.reshape(shape)
        raise NumericalError(f"regime {A} body quantile: {rows.size} rows not bracketed "
                             f"or not converged after {_NEWTON_MAX_ITER} steps")

    def initial_value_quantile(self, u, mode):
        """M_1 given the first latent mode: profile mixture or body exponential."""
        p = self.params
        u = np.asarray(u, dtype=float)
        out = np.empty(u.shape)
        tracked = mode == 1
        if np.any(tracked):
            w = p.theta01 / (p.theta01 + p.theta012)
            ut = u[tracked]
            pick01 = ut < w          # deterministic composition split
            vals = np.empty(ut.shape)
            law012 = LogisticProfileLaw(p.nu012, 1.0)
            vals[pick01] = self.tracked[(0, 1)].quantile(ut[pick01] / w)
            vals[~pick01] = law012.quantile((ut[~pick01] - w) / (1 - w))
            out[tracked] = vals
        if np.any(~tracked):
            out[~tracked] = -np.log1p(-u[~tracked])
        return out


def simulate_regime_tail_chain(params, T, n_rep, seed):
    """Ensemble of the regime-switching chain with full mode bookkeeping.

    Returns a PathEnsemble whose extras carry the latent modes (int8, -1
    after termination), the termination times, and atom flags marking steps
    whose location-normalized view sits at an infinite atom (body-mode
    steps).  Path values are NaN after termination; NumericalError is raised
    when a value before termination is not finite.
    """
    model = RegimeSwitchingTailChain(params)
    rng = replicate_rng(seed, 0)
    n = int(n_rep)
    values = np.full((n, T + 1), np.nan)
    modes = np.full((n, T + 1), -1, dtype=np.int8)
    term = np.zeros(n, dtype=int)

    values[:, 0] = 0.0
    modes[:, 0] = 1
    b1 = (rng.uniform(size=n) < model.p1_initial).astype(np.int8)
    modes[:, 1] = b1
    values[:, 1] = model.initial_value_quantile(rng.uniform(size=n), b1)

    alive = np.ones(n, dtype=bool)
    for t in range(2, T + 1):
        if not np.any(alive):
            break
        a2 = modes[:, t - 2]
        a1 = modes[:, t - 1]
        v2 = values[:, t - 2]
        v1 = values[:, t - 1]
        p_stay = np.zeros(n)
        both = alive & (a2 == 1) & (a1 == 1)
        p_stay[both] = model.m11(v2[both], v1[both])
        hot_cold = alive & (a2 == 1) & (a1 == 0)
        p_stay[hot_cold] = model.m10
        cold_hot = alive & (a2 == 0) & (a1 == 1)
        p_stay[cold_hot] = model.m01
        b = (rng.uniform(size=n) < p_stay).astype(np.int8)
        u = np.maximum(rng.uniform(size=n), _SMALLEST_LEVEL)
        for A, mask in ((((1, 1)), both), (((1, 0)), hot_cold), (((0, 1)), cold_hot)):
            if not np.any(mask):
                continue
            stay = mask & (b == 1)
            drop = mask & (b == 0)
            if np.any(stay):
                shift = model.location_shift(A, v2[stay], v1[stay])
                values[stay, t] = shift + model.tracked_quantile(A, u[stay])
            if np.any(drop):
                prev_body = v1[drop] if A == (1, 0) else v2[drop]
                values[drop, t] = model.body_quantile(A, u[drop], prev_body)
        modes[alive, t] = b[alive]
        died = alive & (modes[:, t - 1] == 0) & (b == 0)
        term[died] = t
        alive = alive & ~died
    term[alive] = 0  # 0 marks "did not terminate within the horizon"
    if not np.all(np.isfinite(values[modes >= 0])):
        raise NumericalError("regime_switching(asym_logistic) produced non-finite path values")

    # every write above is masked by `alive`, so steps after termination
    # keep their NaN values and -1 modes
    atom = (modes == 0).astype(np.int8)
    ens = PathEnsemble(data=values, u=None, seed=seed,
                       model=f"regime_switching(asym_logistic)",
                       norming="difference",
                       extras={"modes": modes, "termination": term,
                               "atom_flag": atom, "limit": True})
    return ens

