"""Norming-sequence recurrences and their closed-form solutions.

The location-norming slopes of a conditioned chain satisfy
``alpha_t = a(alpha_{t-k}, ..., alpha_{t-1})`` for a k-ary functional `a`
that is homogeneous of order one.  For the parametric family

    f(x; c, gamma, delta) = c * (sum_i gamma_i (gamma_i x_i)^delta)^(1/delta)

the recurrence linearizes and admits closed forms in every delta regime:
power transform for finite nonzero delta, log-linear with drift at
delta = 0, and extremal forward substitution at delta = +-inf.

Convention: window vectors run oldest to newest, and `gamma[i]` weights the
i-th oldest entry.  (Equivalently the lag-j coefficient is `gamma[k-j]`.)

Scale normings follow the stepwise-geometric sequence `beta_sequence`, and
`gaussian_yule_walker` covers the classical autoregressive case whose
squared autocorrelations solve the extremal recurrence.
"""
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_toeplitz, toeplitz

from .utils import DomainError, NumericalError, ParameterError, RootClusterAmbiguity, logsumexp

_SIMPLEX_TOL = 1e-12
_CLUSTER_TOL = 1e-6
_COND_LIMIT = 1e12


@dataclass(frozen=True)
class HomogeneousFamily:
    """Order-one homogeneous k-ary functional with weights on the simplex."""

    c: float
    gamma: tuple
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))
        if self.c <= 0:
            raise ParameterError("c must be positive")
        if any(g <= 0 for g in self.gamma):
            raise ParameterError("gamma entries must be positive")
        if abs(sum(self.gamma) - 1.0) > _SIMPLEX_TOL:
            raise ParameterError("gamma must lie on the unit simplex")
        if np.isnan(self.delta):
            raise ParameterError("delta must be in [-inf, inf]")

    @property
    def k(self):
        return len(self.gamma)

    def entropy_term(self):
        """I(gamma) = -sum gamma_i log gamma_i."""
        g = np.asarray(self.gamma)
        return float(-np.sum(g * np.log(g)))

    def __call__(self, window):
        """Evaluate f on windows ordered oldest to newest; shape (..., k)."""
        x = np.asarray(window, dtype=float)
        if x.shape[-1] != self.k:
            raise DomainError(f"window must have length {self.k}")
        g = np.asarray(self.gamma)
        if np.isinf(self.delta):
            vals = g * x
            return self.c * (vals.max(axis=-1) if self.delta > 0 else vals.min(axis=-1))
        if np.any(x <= 0):
            raise DomainError("window entries must be positive")
        logx = np.log(x)
        if self.delta == 0.0:
            return self.c * np.exp(-self.entropy_term() + np.sum(g * logx, axis=-1))
        logg = np.log(g)
        s = logsumexp(logg + self.delta * (logg + logx), axis=-1)
        return self.c * np.exp(s / self.delta)

    def lag_coefficients(self):
        """Linear-recurrence coefficients c_j on lag j = 1..k (transformed scale)."""
        g = np.asarray(self.gamma)[::-1]
        if self.delta == 0.0:
            return g
        return self.c ** self.delta * g ** (1.0 + self.delta)


def _check_alpha_init(alpha_init, k):
    a0 = np.asarray(alpha_init, dtype=float)
    if a0.shape != (k,):
        raise ParameterError(f"alpha_init must have length k={k} (alpha_0 first)")
    if abs(a0[0] - 1.0) > 1e-12:
        raise ParameterError("alpha_0 must equal 1")
    if k > 1 and (np.any(a0[1:] <= 0.0) or np.any(a0[1:] >= 1.0)):
        raise ParameterError("alpha_1..alpha_{k-1} must lie in (0,1)")
    return a0


def iterate_alpha(a, alpha_init, T):
    """Forward iteration alpha_t = a(alpha_{t-k:t-1}), t = k..T.

    `a` is any k-ary functional on windows ordered oldest to newest; k is
    `a.k` when `a` has one and the length of `alpha_init` otherwise.
    Returns the full sequence alpha_0..alpha_T.
    """
    k = getattr(a, "k", len(np.atleast_1d(alpha_init)))
    alpha = np.empty(int(T) + 1)
    alpha[:k] = _check_alpha_init(alpha_init, k)
    delta = getattr(a, "delta", None)
    for t in range(k, int(T) + 1):
        val = float(a(alpha[t - k:t]))
        if val <= 0 and delta is not None and delta <= 0:
            raise NumericalError(f"nonpositive value alpha_{t}={val} in a delta<=0 family")
        alpha[t] = val
    return alpha


def _cluster_roots(roots, tol):
    """Greedy grouping of near-identical roots; returns (reps, multiplicities)."""
    order = np.lexsort((roots.imag, roots.real))
    groups = []
    for r in roots[order]:
        for g in groups:
            rep = np.mean(g)
            if abs(r - rep) <= tol * max(1.0, abs(rep)):
                g.append(r)
                break
        else:
            groups.append([r])
    reps = np.array([np.mean(g) for g in groups])
    mult = np.array([len(g) for g in groups], dtype=int)
    return reps, mult


def _detect_multiplicities(roots):
    reps, mult = _cluster_roots(roots, _CLUSTER_TOL)
    reps10, mult10 = _cluster_roots(roots, _CLUSTER_TOL / 10.0)
    if len(mult) != len(mult10):
        raise RootClusterAmbiguity(
            "root clustering is ambiguous near the tolerance",
            groupings=((reps, mult), (reps10, mult10)))
    return reps, mult


def _confluent_fit(reps, mult, y_init):
    """Solve for constants C_{i,j} from y_t = sum_ij C_ij t^j r_i^t, t=0..k-1."""
    k = int(mult.sum())
    cols = []
    for r, m in zip(reps, mult):
        for j in range(m):
            t = np.arange(k, dtype=float)
            cols.append(t ** j * r ** t)
    M = np.stack(cols, axis=1)
    cond = float(np.linalg.cond(M))
    coeffs = np.linalg.solve(M, y_init.astype(complex))
    return coeffs, cond


@dataclass
class RecurrenceSolution:
    """Closed-form solution of the norming recurrence in one delta regime."""

    regime: str
    delta: float
    roots: np.ndarray
    multiplicities: np.ndarray
    constants: np.ndarray
    drift: float = 0.0
    condition: float = 0.0
    messages: list = field(default_factory=list)

    def _linear_part(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        pos = 0
        for r, m in zip(self.roots, self.multiplicities):
            powers = r ** t
            for j in range(m):
                out += self.constants[pos] * t ** j * powers
                pos += 1
        return out

    def evaluate(self, t):
        """alpha_t for integer (array) t >= 0."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        y = self._linear_part(t)
        # conjugate pairs must cancel; residual scales with the largest term
        scale = max(1.0, float(np.abs(y.real).max()))
        if float(np.abs(y.imag).max()) > 1e-9 * scale:
            raise NumericalError("evaluator lost realness; conjugate pairs do not cancel")
        yr = y.real
        if self.regime == "delta_zero":
            out = np.exp(yr + self.drift * t)
        else:
            if np.any(yr <= 0):
                raise NumericalError("transformed sequence left the positive cone")
            out = yr ** (1.0 / self.delta)
        return out if out.shape[0] > 1 else float(out[0])


def _solve_linear(regime, delta, coeffs, y_init, drift=0.0):
    """Roots of x^k - c_1 x^(k-1) - ... - c_k (c_j the lag-j coefficient) and
    the constants pinning y_0..y_{k-1}; warns when that system is ill
    conditioned."""
    roots = np.roots(np.concatenate([[1.0], -coeffs]))
    reps, mult = _detect_multiplicities(roots)
    constants, cond = _confluent_fit(reps, mult, y_init)
    sol = RecurrenceSolution(regime=regime, delta=delta, roots=reps,
                             multiplicities=mult, constants=constants,
                             drift=drift, condition=cond)
    if cond > _COND_LIMIT:
        msg = f"confluent Vandermonde condition {cond:.3g} exceeds {_COND_LIMIT:.0e}"
        warnings.warn(msg)
        sol.messages.append(msg)
    return sol


def solve_closed_form(fam, alpha_init):
    """Characteristic-polynomial solution for finite nonzero delta.

    Roots come from the companion matrix of
    x^k - c_1 x^(k-1) - ... - c_k  (c_j the lag-j coefficient), repeated
    roots are detected by relative clustering, and the constants solve the
    confluent Vandermonde system pinned to alpha_0..alpha_{k-1} on the
    transformed scale y_t = alpha_t^delta.
    """
    if fam.delta == 0.0 or np.isinf(fam.delta):
        raise DomainError("use solve_delta_zero / solve_delta_inf for this regime")
    a0 = _check_alpha_init(alpha_init, fam.k)
    return _solve_linear("general_delta", fam.delta, fam.lag_coefficients(),
                         a0 ** fam.delta)


def solve_delta_zero(fam, alpha_init):
    """Log-linear solution with drift for the delta = 0 regime.

    log alpha_t follows a linear recurrence with constant forcing
    log(c) - I(gamma); since the weights sum to one, x = 1 is always a
    simple characteristic root and the particular solution is a linear
    drift with coefficient (log c - I(gamma)) / sum_j j c_j.
    """
    if fam.delta != 0.0:
        raise DomainError("family must have delta = 0")
    a0 = _check_alpha_init(alpha_init, fam.k)
    coeffs = fam.lag_coefficients()
    forcing = np.log(fam.c) - fam.entropy_term()
    drift = forcing / float(np.sum(np.arange(1, fam.k + 1) * coeffs))
    return _solve_linear("delta_zero", 0.0, coeffs,
                         np.log(a0) - drift * np.arange(fam.k), drift=drift)


def solve_delta_inf(fam, alpha_init, T):
    """Forward substitution for delta = +inf (max) or -inf (min).

    The limiting functional is c * extremum_i(gamma_i x_i), which the family
    evaluates itself, so the solution is the forward iteration.
    """
    if not np.isinf(fam.delta):
        raise DomainError("family must have delta = +-inf")
    return iterate_alpha(fam, alpha_init, T)


def beta_sequence(beta, k, T):
    """Scale-norming exponents: log beta_t = floor(1 + (t-1)/k) log beta.

    Returns beta_0..beta_T (beta_0 = 1).  Equivalent to the recurrence
    log beta_t = log beta + log max(beta_{t-1}, ..., beta_{t-k}).
    """
    if not (0.0 < beta < 1.0):
        raise ParameterError("beta must lie in (0,1)")
    if k < 1:
        raise ParameterError("k must be >= 1")
    t = np.arange(int(T) + 1)
    steps = np.floor(1.0 + (t - 1.0) / k)
    return beta ** steps


@dataclass
class YuleWalkerFit:
    """Autoregressive coefficients fitted to lagged autocorrelations."""

    rho: np.ndarray              # rho_1..rho_k
    phi: np.ndarray              # lag coefficients from the Toeplitz system
    phi_from_precision: np.ndarray  # same, via the (k+1)-precision matrix
    precision: np.ndarray        # inverse of the (k+1) Toeplitz correlation

    @property
    def k(self):
        return len(self.phi)

    def extend(self, T):
        """rho_0..rho_T via rho_t = sum_i phi_i rho_{t-i}."""
        T = int(T)
        k = self.k
        rho = np.empty(T + 1)
        rho[0] = 1.0
        m = min(k, T)
        rho[1:m + 1] = self.rho[:m]
        for t in range(k + 1, T + 1):
            rho[t] = float(np.dot(self.phi, rho[t - 1:t - k - 1:-1]))
        return rho

    def location_functional(self):
        """The order-one homogeneous map driving the extremal recurrence.

        Windows are ordered oldest to newest, so position i carries the
        lag-(k-i) coefficient.
        """
        w = self.phi[::-1].copy()

        def a(window):
            x = np.asarray(window, dtype=float)
            return np.square(np.sum(w * np.sqrt(x), axis=-1))

        a.k = self.k
        return a


def gaussian_yule_walker(rho):
    """Fit AR coefficients to rho_1..rho_k, cross-checked two ways.

    Solves the k x k Toeplitz system and independently reads the
    coefficients off the precision matrix of the (k+1)-dimensional
    correlation; both are returned for comparison.
    """
    rho = np.asarray(rho, dtype=float)
    k = rho.shape[0]
    full = toeplitz(np.concatenate([[1.0], rho]))
    try:
        np.linalg.cholesky(full)
    except np.linalg.LinAlgError:
        raise ParameterError("Toeplitz correlation built from rho is not positive definite")
    if k == 1:
        phi = rho.copy()
    else:
        phi = solve_toeplitz(np.concatenate([[1.0], rho[:-1]]), rho)
    q = np.linalg.inv(full)
    phi_q = np.array([-q[k - i, k] / q[k, k] for i in range(1, k + 1)])
    return YuleWalkerFit(rho=rho.copy(), phi=phi, phi_from_precision=phi_q, precision=q)


def gaussian_family(phi):
    """Express the Gaussian location functional in the homogeneous family.

    (sum_i w_i x_i^(1/2))^2 equals f(x; c, gamma, 1/2) with
    gamma_i = w_i^(2/3)/sum w^(2/3) and c = (sum w^(2/3))^3, where w are
    the position-ordered weights.
    """
    w = np.asarray(phi, dtype=float)[::-1]
    if np.any(w <= 0):
        raise ParameterError("all coefficients must be positive for the family form")
    s = np.sum(w ** (2.0 / 3.0))
    return HomogeneousFamily(c=float(s ** 3), gamma=tuple(w ** (2.0 / 3.0) / s), delta=0.5)
