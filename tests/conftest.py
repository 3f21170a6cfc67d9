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
