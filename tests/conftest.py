import numpy as np
import pytest
from scipy.linalg import toeplitz

from tailchain import cli

# parameter sets used by the figure-reproduction material
FIG1_RHO = np.array(cli.FIG1_GAUSS_RHO)
FIG1_HR = toeplitz(cli.FIG1_HR_TOEPLITZ)
FIG1_LOGISTIC_ALPHA = cli.FIG1_LOGISTIC_ALPHA
FIG1_INVERTED_ALPHA = cli.FIG1_INVERTED_ALPHA


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


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
