"""Exponent measures of max-stable dependence families and their derivatives.

Three parametric families are implemented: symmetric logistic,
Husler-Reiss, and (for three dimensions) the asymmetric logistic built
from a list of weighted faces.  Each measure exposes

* ``value`` / ``log_value``        -- V(y), homogeneous of order -1, so
  V = sum_i y_i |V_i(y)| by Euler's identity (Husler-Reiss computes it so)
* ``partial`` / ``log_abs_partial`` -- mixed partials V_J; V_J < 0 for every
  nonempty J, so magnitudes are carried in log space and the sign is implicit
* ``partition_tail_evaluator``     -- log sum over the partitions of the
  leading coordinates of the products of |V_J|, as the last coordinate
  varies (the kernels' conditional CDFs); the logistic sums dim - 1 terms
* ``margin``                       -- the lower-dimensional measure obtained
  by sending a subset of coordinates to infinity (all families are closed
  under margins, which is also how +inf arguments are resolved)

Arguments called ``logy`` are natural logs of the heavy-tailed-scale
coordinates with shape (batch, dim); plain ``y`` entry points accept
+inf coordinates as exact sentinels.
"""
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .mvnorm import GenzTailCache, mvn_logcdf
from .utils import DomainError, ParameterError, logsumexp


def _check_subset(J, dim):
    J = tuple(sorted(int(j) for j in J))
    if len(J) == 0:
        raise DomainError("J must be a nonempty index set")
    if len(set(J)) != len(J):
        raise DomainError("J has repeated indices")
    if len(J) > dim or J[0] < 0 or J[-1] >= dim:
        raise DomainError(f"J={J} is not a subset of range({dim})")
    return J


def _as_logy(y, dim):
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[None, :]
    if y.ndim != 2 or y.shape[1] != dim:
        raise DomainError(f"expected coordinates of dimension {dim}")
    if np.any(y <= 0) or np.any(np.isnan(y)):
        raise DomainError("coordinates must be positive")
    with np.errstate(divide="ignore"):
        return np.log(y)


# ---------------------------------------------------------------------------
# partition sums of mixed partials

@functools.lru_cache(maxsize=None)
def set_partitions(n):
    """All set partitions of {0..n-1} as tuples of sorted tuples.

    Enumerated via restricted-growth strings; cached per n.
    """
    if n == 0:
        return ((),)
    out = []

    def grow(prefix, m):
        i = len(prefix)
        if i == n:
            blocks = [[] for _ in range(m)]
            for pos, b in enumerate(prefix):
                blocks[b].append(pos)
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in range(m + 1):
            grow(prefix + [b], max(m, b + 1))

    grow([], 0)
    return tuple(out)


class _PartitionScheme:
    """Partitions of {0..k-1} as rows of indices into `subsets`, padded with
    len(subsets), an exact-zero term in `log_sum`."""

    def __init__(self, k):
        self.k = k
        self.partitions = set_partitions(k)
        subsets = sorted({j for p in self.partitions for j in p})
        self.subsets = tuple(subsets)
        index = {j: i for i, j in enumerate(subsets)}
        pad = max(len(p) for p in self.partitions)
        self.blocks = np.full((len(self.partitions), pad), len(subsets))
        for r, p in enumerate(self.partitions):
            self.blocks[r, :len(p)] = [index[j] for j in p]

    def log_sum(self, log_terms):
        """log sum over partitions of prod_{J in p} |V_J| for `log_terms`
        (n_subsets, rows).  Each partition adds its block terms in a fixed
        order (a zero partial's -inf log term stays -inf, so nothing is
        masked), and each row then reduces its own partition terms along a
        C-ordered last axis, which numpy sums in the same order for one row
        as for many: a row's sum does not depend on the other rows."""
        padded = np.concatenate([log_terms, np.zeros((1, log_terms.shape[1]))])
        log_parts = padded[self.blocks[:, 0]]
        for b in range(1, self.blocks.shape[1]):
            log_parts += padded[self.blocks[:, b]]
        return logsumexp(np.ascontiguousarray(log_parts.T), axis=1)


@functools.lru_cache(maxsize=None)
def _scheme(k):
    return _PartitionScheme(k)


class ExponentMeasure:
    """Base class; subclasses define log_value / log_abs_partial / margin."""

    dim = None

    def _finite_margin(self, y):
        """(margin over the columns of `y` free of +inf, those columns), or
        (self, None) when every column is finite."""
        finite = ~np.isposinf(y).any(axis=0)
        if finite.all():
            return self, None
        keep = np.where(finite)[0]
        if keep.size == 0:
            raise DomainError("V at all-infinite coordinates is 0; not a valid query")
        return self.margin(keep), keep

    def value(self, y):
        """V(y); +inf coordinates are marginalized out analytically."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        sub, keep = self._finite_margin(y)
        if keep is not None:
            return sub.value(y[:, keep])
        out = np.exp(self.log_value(_as_logy(y, self.dim)))
        return out if out.shape[0] > 1 else float(out[0])

    def partial(self, J, y):
        """Mixed partial derivative of V with respect to the coordinates in J."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        J = _check_subset(J, self.dim)
        sub, keep = self._finite_margin(y)
        if keep is not None:
            remap = {c: i for i, c in enumerate(keep.tolist())}
            if any(j not in remap for j in J):
                raise DomainError("cannot differentiate in a coordinate held at infinity")
            return sub.partial(tuple(remap[j] for j in J), y[:, keep])
        out = -np.exp(self.log_abs_partial(J, _as_logy(y, self.dim)))
        return out if out.shape[0] > 1 else float(out[0])

    def partial_tail_evaluator(self, J, logy_head):
        """Callable giving log|V_J| as the last coordinate varies.

        `logy_head` fixes coordinates 0..dim-2 (batched); the callable maps a
        vector of last-coordinate logs (optionally a row subset of the batch)
        to log magnitudes.  Subclasses override this when part of the
        computation can be cached across calls.
        """
        def evaluate(logy_last, rows=None):
            head = logy_head if rows is None else logy_head[rows]
            logy = np.concatenate([head, logy_last[:, None]], axis=1)
            return self.log_abs_partial(J, logy)
        return evaluate

    def value_tail_evaluator(self, logy_head):
        """Callable giving V as the last coordinate varies (natural scale)."""
        def evaluate(logy_last, rows=None):
            head = logy_head if rows is None else logy_head[rows]
            logy = np.concatenate([head, logy_last[:, None]], axis=1)
            return np.exp(self.log_value(logy))
        return evaluate

    def partition_tail_evaluator(self, logy_head):
        """Callable giving log sum_P prod_{J in P} |V_J| as the last
        coordinate varies, P running over the partitions of the head
        coordinates 0..dim-2; same call convention as the evaluators above.

        By default every subset gets a `partial_tail_evaluator` and
        `_PartitionScheme.log_sum` adds the partitions' terms.
        """
        scheme = _scheme(self.dim - 1)
        evs = [self.partial_tail_evaluator(J, logy_head) for J in scheme.subsets]

        def evaluate(logy_last, rows=None):
            return scheme.log_sum(np.stack([ev(logy_last, rows=rows) for ev in evs], axis=0))
        return evaluate

    def with_accuracy(self, **kw):
        """Copy with adjusted quadrature settings; no-op for closed forms."""
        return self


# ---------------------------------------------------------------------------
# logistic-type faces

def _face_log_value(coords, weight, nu, logy):
    if len(coords) == 1:
        return math.log(weight) - logy[:, coords[0]]
    s = logsumexp(-logy[:, coords] / nu, axis=1)
    return math.log(weight) + nu * s


def _face_log_abs_partial(coords, weight, nu, J, logy):
    """log |d^|J| face / dy_J| for one face; -inf if J is not inside the face."""
    n = logy.shape[0]
    if any(j not in coords for j in J):
        return np.full(n, -np.inf)
    m = len(J)
    if len(coords) == 1:
        # weight / y_i differentiates once and no further
        if m > 1:
            return np.full(n, -np.inf)
        return math.log(weight) - 2.0 * logy[:, coords[0]]
    s = logsumexp(-logy[:, coords] / nu, axis=1)
    const = math.log(weight) + (1.0 - m) * math.log(nu)
    const += sum(math.log(i - nu) for i in range(1, m))
    return const + (nu - m) * s + (-1.0 / nu - 1.0) * logy[:, J].sum(axis=1)


@functools.lru_cache(maxsize=None)
def _logistic_partition_log_coefs(alpha, k):
    """C_1..C_k: C_m = log sum over the partitions of {0..k-1} into m blocks
    of prod_J exp(c_|J|), with c_n = (1 - n) log alpha + sum_{i<n} log(i - alpha)
    the constant of an n-fold logistic partial; every term is positive."""
    c = [(1.0 - n) * math.log(alpha) + sum(math.log(i - alpha) for i in range(1, n))
         for n in range(k + 1)]
    terms = [[] for _ in range(k + 1)]
    for p in set_partitions(k):
        terms[len(p)].append(sum(c[len(J)] for J in p))
    return tuple(float(logsumexp(np.array(t), axis=0)) for t in terms[1:])


class LogisticMeasure(ExponentMeasure):
    """Symmetric logistic: V(y) = (sum_i y_i^(-1/alpha))^alpha, alpha in (0,1)."""

    def __init__(self, alpha, dim):
        if not (0.0 < alpha < 1.0):
            raise ParameterError("logistic dependence parameter must lie in (0,1)")
        if dim < 1:
            raise ParameterError("dimension must be >= 1")
        self.alpha = float(alpha)
        self.dim = int(dim)
        self._coords = tuple(range(dim))

    def log_value(self, logy):
        return _face_log_value(self._coords, 1.0, self.alpha, logy)

    def log_abs_partial(self, J, logy):
        J = _check_subset(J, self.dim)
        return _face_log_abs_partial(self._coords, 1.0, self.alpha, J, logy)

    def partition_tail_evaluator(self, logy_head):
        """The partition sum in k = dim - 1 terms (Shi 1995).

        log|V_J| = c_|J| + (alpha - |J|) s + (-1/alpha - 1) sum_{j in J} log y_j
        with s = logsumexp(-log y / alpha), so the sum over the partitions of
        the head is (-1/alpha - 1) sum_j log y_j + logsumexp_m [C_m + (m alpha - k) s]
        with C_m from `_logistic_partition_log_coefs`.  s of the head is
        computed once; a +inf last coordinate leaves it exact.
        """
        a, k = self.alpha, self.dim - 1
        log_coefs = np.array(_logistic_partition_log_coefs(a, k))
        slopes = a * np.arange(1, k + 1) - k
        s_head = logsumexp(-logy_head / a, axis=1)
        base = (-1.0 / a - 1.0) * logy_head.sum(axis=1)

        def evaluate(logy_last, rows=None):
            sh, b = (s_head, base) if rows is None else (s_head[rows], base[rows])
            s = np.logaddexp(sh, -logy_last / a)
            return b + logsumexp(log_coefs + s[:, None] * slopes, axis=1)
        return evaluate

    def value_tail_evaluator(self, logy_head):
        """V = exp(alpha s), with s of the head computed once."""
        a = self.alpha
        s_head = logsumexp(-logy_head / a, axis=1)

        def evaluate(logy_last, rows=None):
            sh = s_head if rows is None else s_head[rows]
            return np.exp(a * np.logaddexp(sh, -logy_last / a))
        return evaluate

    def margin(self, coords):
        return LogisticMeasure(self.alpha, len(tuple(coords)))

    def descriptor(self):
        return f"logistic(alpha={self.alpha}, dim={self.dim})"


@dataclass(frozen=True)
class AsymLogisticParams:
    """Face weights and dependence parameters of the 3-d asymmetric logistic.

    theta_* must be positive and satisfy the three marginal constraints;
    nu_* lie in (0,1).  theta_01 weights both consecutive-pair faces.
    """

    theta0: float
    theta1: float
    theta2: float
    theta01: float
    theta02: float
    theta012: float
    nu01: float
    nu02: float
    nu012: float

    def __post_init__(self):
        th = [self.theta0, self.theta1, self.theta2,
              self.theta01, self.theta02, self.theta012]
        if any(t <= 0 for t in th):
            raise ParameterError("all face weights must be positive")
        for nu in (self.nu01, self.nu02, self.nu012):
            if not (0.0 < nu < 1.0):
                raise ParameterError("face dependence parameters must lie in (0,1)")
        c1 = self.theta0 + self.theta01 + self.theta02 + self.theta012
        c2 = self.theta1 + 2.0 * self.theta01 + self.theta012
        c3 = self.theta2 + self.theta01 + self.theta02 + self.theta012
        if max(abs(c1 - 1), abs(c2 - 1), abs(c3 - 1)) > 1e-10:
            raise ParameterError(
                f"marginal constraints violated: sums are ({c1}, {c2}, {c3}), expected 1")


class AsymLogisticMeasure(ExponentMeasure):
    """Asymmetric logistic exponent measure as a weighted face list.

    Constructed either from :class:`AsymLogisticParams` (the stationary 3-d
    family) or from an explicit ``faces`` list of (coords, weight, nu)
    triples, which is how margins are represented.
    """

    def __init__(self, params=None, faces=None, dim=3):
        if params is not None:
            p = params
            faces = [((0,), p.theta0, None), ((1,), p.theta1, None), ((2,), p.theta2, None),
                     ((0, 1), p.theta01, p.nu01), ((1, 2), p.theta01, p.nu01),
                     ((0, 2), p.theta02, p.nu02), ((0, 1, 2), p.theta012, p.nu012)]
            dim = 3
        self.params = params
        self.faces = [(tuple(sorted(c)), float(w), nu) for c, w, nu in faces]
        self.dim = int(dim)

    def log_value(self, logy):
        parts = [_face_log_value(c, w, nu, logy) for c, w, nu in self.faces]
        return logsumexp(np.stack(parts, axis=0), axis=0)

    def log_abs_partial(self, J, logy):
        J = _check_subset(J, self.dim)
        parts = [_face_log_abs_partial(c, w, nu, J, logy) for c, w, nu in self.faces]
        with np.errstate(divide="ignore"):
            return logsumexp(np.stack(parts, axis=0), axis=0)

    def margin(self, coords):
        coords = tuple(coords)
        remap = {c: i for i, c in enumerate(coords)}
        faces = []
        for c, w, nu in self.faces:
            kept = tuple(sorted(remap[j] for j in c if j in remap))
            if not kept:
                continue
            faces.append((kept, w, nu if len(kept) > 1 else None))
        return AsymLogisticMeasure(faces=faces, dim=len(coords))

    def descriptor(self):
        return f"asym_logistic(dim={self.dim}, faces={len(self.faces)})"


# ---------------------------------------------------------------------------
# Husler-Reiss

def husler_reiss_covariance(cov):
    """`cov` as a float array; ParameterError unless it is square, symmetric,
    positive definite and has a common diagonal (stationary margins)."""
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ParameterError("covariance must be square")
    d = cov.shape[0]
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise ParameterError("covariance must be symmetric")
    if d > 1 and np.ptp(np.diag(cov)) > 1e-10:
        raise ParameterError("covariance must have a common diagonal")
    try:
        np.linalg.cholesky(cov + 1e-13 * np.eye(d))
    except np.linalg.LinAlgError:
        raise ParameterError("covariance must be positive definite")
    return cov


class HuslerReissMeasure(ExponentMeasure):
    """Husler-Reiss exponent measure driven by a covariance matrix.

    V(y) = sum_i y_i^(-1) Phi_{d-1}( log(y_j/y_i) + s^2 - s_ij ; Sigma^(i) )
    with Sigma^(i) the covariance of the differences against coordinate i.
    Mixed partials have closed Gaussian forms: a normal density in the
    differentiated coordinates times a conditional normal CDF in the rest.
    The i-th term of V is y_i |V_i| (Euler's identity), and V is summed so.
    Normal CDFs are evaluated by the randomized-lattice rule in
    :mod:`tailchain.mvnorm` with the accuracy settings carried here.
    """

    def __init__(self, cov, qmc_points=2048, qmc_shifts=8, kernel_points=96):
        self.cov = husler_reiss_covariance(cov)
        self.dim = self.cov.shape[0]
        self.qmc_points = int(qmc_points)
        self.qmc_shifts = int(qmc_shifts)
        self.kernel_points = int(kernel_points)
        self._blocks = {}
        self._partial_caches = {}

    def _block(self, i):
        """Difference covariance and shift vector for anchor coordinate i."""
        if i not in self._blocks:
            idx = [j for j in range(self.dim) if j != i]
            T = np.zeros((self.dim - 1, self.dim))
            for r, j in enumerate(idx):
                T[r, j] = 1.0
                T[r, i] = -1.0
            sig = T @ self.cov @ T.T
            shift = np.array([self.cov[i, i] - self.cov[i, j] for j in idx])
            self._blocks[i] = (idx, sig, shift)
        return self._blocks[i]

    def log_value(self, logy):
        """log V = logsumexp_i (log y_i + log|V_i|), by Euler's identity."""
        parts = [logy[:, i] + self.log_abs_partial((i,), logy) for i in range(self.dim)]
        return logsumexp(np.stack(parts, axis=0), axis=0)

    def _partial_setup(self, J):
        """Cached linear algebra for the J-partial: anchor i0, density block,
        conditional CDF block."""
        if J in self._partial_caches:
            return self._partial_caches[J]
        i0 = J[0]
        idx, sig, shift = self._block(i0)
        pos = {j: r for r, j in enumerate(idx)}
        jp = [pos[j] for j in J[1:]]
        rest = [r for r in range(self.dim - 1) if r not in jp]
        entry = {"i0": i0, "idx": idx, "shift": shift, "jp": jp, "rest": rest}
        if jp:
            sjj = sig[np.ix_(jp, jp)]
            cf = cho_factor(sjj)
            entry["cho"] = cf
            entry["logdet"] = 2.0 * np.sum(np.log(np.diag(cf[0])))
            if rest:
                srj = sig[np.ix_(rest, jp)]
                entry["cmap"] = cho_solve(cf, srj.T).T
                entry["cond_cov"] = sig[np.ix_(rest, rest)] - entry["cmap"] @ srj.T
        elif rest:
            entry["cond_cov"] = sig[np.ix_(rest, rest)]
        self._partial_caches[J] = entry
        return entry

    def _partial_parts(self, J, logy):
        """Pieces of log|V_J|: (constant-plus-density part, differences w
        against the anchor, conditional mean shift of the CDF block's limits
        (zero when J has one coordinate), cached set-up)."""
        c = self._partial_setup(J)
        w = logy[:, c["idx"]] - logy[:, [c["i0"]]] + c["shift"][None, :]
        out = -2.0 * logy[:, c["i0"]]
        for j in J[1:]:
            out = out - logy[:, j]
        shift_v = np.zeros((logy.shape[0], len(c["rest"])))
        if c["jp"]:
            wj = w[:, c["jp"]]
            sol = cho_solve(c["cho"], wj.T).T
            m = len(c["jp"])
            out = out - 0.5 * (m * np.log(2 * np.pi) + c["logdet"]) \
                      - 0.5 * np.sum(wj * sol, axis=1)
            if c["rest"]:
                # wj @ cmap.T in a fixed order (BLAS rounding varies with rows)
                shift_v = sum(wj[:, [r]] * c["cmap"][:, r] for r in range(m))
        return out, w, shift_v, c

    def log_abs_partial(self, J, logy):
        J = _check_subset(J, self.dim)
        out, w, shift_v, c = self._partial_parts(J, logy)
        if c["rest"]:
            logphi, _ = mvn_logcdf(w[:, c["rest"]] - shift_v, c["cond_cov"],
                                   points=self.qmc_points, shifts=self.qmc_shifts)
            out = out + logphi
        return out

    def partial_tail_evaluator(self, J, logy_head):
        """Cached evaluator; the final coordinate must not belong to J."""
        J = _check_subset(J, self.dim)
        if self.dim - 1 in J:
            return super().partial_tail_evaluator(J, logy_head)
        # the final coordinate is a placeholder: neither the density part nor
        # the shift reads it, and its CDF limit is formed per call below
        n = logy_head.shape[0]
        base, w, shift_v, c = self._partial_parts(
            J, np.concatenate([logy_head, np.zeros((n, 1))], axis=1))
        rest_coords = [c["idx"][r] for r in c["rest"]]
        last_row = rest_coords.index(self.dim - 1)
        head_rows = [r for r in range(len(rest_coords)) if r != last_row]
        perm = head_rows + [last_row]
        v_head = w[:, [c["rest"][r] for r in head_rows]] - shift_v[:, head_rows]
        cache = GenzTailCache(c["cond_cov"][np.ix_(perm, perm)], v_head,
                              points=self.kernel_points)
        anchor = logy_head[:, c["i0"]]
        shift_last = c["shift"][c["rest"][last_row]]
        shift_v_last = shift_v[:, last_row]

        def evaluate(logy_last, rows=None):
            if rows is None:
                v_last = logy_last - anchor + shift_last - shift_v_last
                return base + cache.logcdf(v_last)
            v_last = logy_last - anchor[rows] + shift_last - shift_v_last[rows]
            return base[rows] + cache.logcdf(v_last, rows=rows)
        return evaluate

    def value_tail_evaluator(self, logy_head):
        """V(y) with the final coordinate varying, by Euler's identity.

        The terms y_i |V_i| of the head coordinates come from the singleton
        `partial_tail_evaluator`s; the block anchored at the final coordinate
        shifts all arguments together and is re-evaluated with a small
        lattice each call.
        """
        d = self.dim
        evs = [self.partial_tail_evaluator((i,), logy_head) for i in range(d - 1)]
        idx_l, sig_l, shift_l = self._block(d - 1)

        def evaluate(logy_last, rows=None):
            head = logy_head if rows is None else logy_head[rows]
            total = np.zeros(logy_last.shape[0])
            for i, ev in enumerate(evs):
                total += np.exp(head[:, i] + ev(logy_last, rows=rows))
            # a +inf final coordinate gives -inf limits, so this term is 0
            w = head[:, idx_l] - logy_last[:, None] + shift_l[None, :]
            logphi, _ = mvn_logcdf(w, sig_l, points=max(self.kernel_points // 2, 32),
                                   shifts=1)
            return total + np.exp(-logy_last + logphi)
        return evaluate

    def _copy(self, cov, **changes):
        """The measure of `cov` with these quadrature settings, except the
        non-None `changes`."""
        settings = dict(qmc_points=self.qmc_points, qmc_shifts=self.qmc_shifts,
                        kernel_points=self.kernel_points)
        settings.update((k, v) for k, v in changes.items() if v is not None)
        return HuslerReissMeasure(cov, **settings)

    def margin(self, coords):
        coords = list(coords)
        return self._copy(self.cov[np.ix_(coords, coords)])

    def with_accuracy(self, qmc_points=None, qmc_shifts=None, kernel_points=None):
        return self._copy(self.cov, qmc_points=qmc_points, qmc_shifts=qmc_shifts,
                          kernel_points=kernel_points)

    def descriptor(self):
        return f"husler_reiss(dim={self.dim})"

