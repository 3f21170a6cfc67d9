"""Exponent measures of max-stable dependence families and their derivatives.

Three parametric families are implemented: symmetric logistic,
Husler-Reiss, and (for three dimensions) the asymmetric logistic built
from a list of weighted faces.  Each measure exposes

* ``value`` / ``log_value``        -- V(y), homogeneous of order -1
* ``partial`` / ``log_abs_partial`` -- mixed partials V_J; V_J < 0 for every
  nonempty J, so magnitudes are carried in log space and the sign is implicit
* ``margin``                       -- the lower-dimensional measure obtained
  by sending a subset of coordinates to infinity (all families are closed
  under margins, which is also how +inf arguments are resolved)

Arguments called ``logy`` are natural logs of the heavy-tailed-scale
coordinates with shape (batch, dim); plain ``y`` entry points accept
+inf coordinates as exact sentinels.
"""
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
    Normal CDFs are evaluated by the randomized-lattice rule in
    :mod:`tailchain.mvnorm` with the accuracy settings carried here.
    """

    def __init__(self, cov, qmc_points=2048, qmc_shifts=8, qmc_seed=0,
                 kernel_points=96):
        self.cov = husler_reiss_covariance(cov)
        self.dim = self.cov.shape[0]
        self.qmc_points = int(qmc_points)
        self.qmc_shifts = int(qmc_shifts)
        self.qmc_seed = int(qmc_seed)
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

    def _anchor_terms(self, logy):
        """Per anchor coordinate i: (-log y_i, log Phi_{d-1} of the differences
        against i, that CDF's quadrature error)."""
        if self.dim == 1:
            return [(-logy[:, 0], 0.0, 0.0)]
        terms = []
        for i in range(self.dim):
            idx, sig, shift = self._block(i)
            w = logy[:, idx] - logy[:, [i]] + shift[None, :]
            logphi, err = mvn_logcdf(w, sig, points=self.qmc_points,
                                     shifts=self.qmc_shifts, seed=self.qmc_seed)
            terms.append((-logy[:, i], logphi, err))
        return terms

    def log_value(self, logy):
        parts = [a + logphi for a, logphi, _ in self._anchor_terms(logy)]
        return logsumexp(np.stack(parts, axis=0), axis=0)

    def value_with_error(self, y):
        """(V(y), quadrature error estimate)."""
        logy = _as_logy(np.atleast_2d(np.asarray(y, float)), self.dim)
        vals = np.zeros(logy.shape[0])
        errs = np.zeros(logy.shape[0])
        for a, logphi, err in self._anchor_terms(logy):
            vals += np.exp(a + logphi)
            errs += np.exp(a) * err
        if vals.shape[0] == 1:
            return float(vals[0]), float(errs[0])
        return vals, errs

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
                                   points=self.qmc_points, shifts=self.qmc_shifts,
                                   seed=self.qmc_seed)
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
                              points=self.kernel_points, seed=self.qmc_seed)
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
        """V(y) with the final coordinate varying, cached per anchor block.

        Blocks anchored at head coordinates only see the final coordinate in
        one CDF argument, so they reuse :class:`GenzTailCache`; the block
        anchored at the final coordinate shifts all arguments together and is
        re-evaluated with a small lattice each call.
        """
        d = self.dim
        caches = []
        for i in range(d - 1):
            idx, sig, shift = self._block(i)
            pos_last = idx.index(d - 1)
            head_rows = [r for r in range(d - 1) if r != pos_last]
            perm = head_rows + [pos_last]
            v_head = (logy_head[:, [idx[r] for r in head_rows]] - logy_head[:, [i]]
                      + shift[head_rows])
            cache = GenzTailCache(sig[np.ix_(perm, perm)], v_head,
                                  points=self.kernel_points, seed=self.qmc_seed)
            caches.append((i, cache, shift[pos_last]))
        idx_l, sig_l, shift_l = self._block(d - 1)

        def evaluate(logy_last, rows=None):
            head = logy_head if rows is None else logy_head[rows]
            total = np.zeros(logy_last.shape[0])
            for i, cache, sh in caches:
                anchor = head[:, i]
                lc = cache.logcdf(logy_last - anchor + sh, rows=rows)
                total += np.exp(-anchor + lc)
            # a +inf final coordinate gives -inf limits, so this term is 0
            w = head[:, idx_l] - logy_last[:, None] + shift_l[None, :]
            logphi, _ = mvn_logcdf(w, sig_l, points=max(self.kernel_points // 2, 32),
                                   shifts=1, seed=self.qmc_seed)
            return total + np.exp(-logy_last + logphi)
        return evaluate

    def _copy(self, cov, **changes):
        """The measure of `cov` with these quadrature settings, except the
        non-None `changes`."""
        settings = dict(qmc_points=self.qmc_points, qmc_shifts=self.qmc_shifts,
                        qmc_seed=self.qmc_seed, kernel_points=self.kernel_points)
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


# ---------------------------------------------------------------------------
# module-level operations

def finite_difference_partial(fn, J, y, base_step=None, richardson=True):
    """Adaptive central finite differences; the independent derivative oracle.

    `fn` maps a coordinate vector to a scalar.  The step is
    eps^(1/(|J|+2)) * scale per differentiated coordinate, which balances
    truncation against rounding for mixed stencils; one Richardson
    extrapolation level (on by default) removes the leading h^2 term.
    """
    y = np.asarray(y, dtype=float)
    J = list(J)
    m = len(J)
    if base_step is None:
        # with extrapolation the truncation is O(h^4), so the optimum step
        # balancing rounding ~ eps/h^m sits higher than the plain stencil's
        base_step = np.finfo(float).eps ** (1.0 / (m + 4 if richardson else m + 2))

    def stencil(step):
        def rec(point, pending):
            if not pending:
                return fn(point)
            j = pending[0]
            h = step * max(1.0, abs(point[j]))
            up = point.copy()
            up[j] += h
            dn = point.copy()
            dn[j] -= h
            return (rec(up, pending[1:]) - rec(dn, pending[1:])) / (2.0 * h)
        return rec(y.copy(), J)

    if not richardson:
        return stencil(base_step)
    coarse = stencil(base_step)
    fine = stencil(base_step / 2.0)
    return (4.0 * fine - coarse) / 3.0
