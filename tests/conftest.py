import os

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import anisoq
from anisoq import construction
from anisoq.energy import PsiConfig

EPS_GRID = (0.02, 0.05, 0.1, 0.15, 0.2)


def cli_env(out_dir):
    """Environment for an `anisoq.cli` subprocess: outputs to out_dir, and the
    package the tests import first on its path, installed or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(anisoq.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, ANISOQ_OUT=str(out_dir), PYTHONPATH=path)


def g_metric_hungarian(p, q):
    """Matching metric between two (Q, d) Q-points (any Q) by the Hungarian
    method alone: the oracle that g_metric is compared with."""
    cost = np.sum((p[:, None, :] - q[None, :, :]) ** 2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].sum()))


def projected_mass_h(T):
    """Mass of the h-plane pushforward of a current T, no cancellation (positive tangents)."""
    u1, u2 = T.edge_vectors()
    det = u1[:, 0] * u2[:, 1] - u1[:, 1] * u2[:, 0]
    return float(np.sum(T.mults * 0.5 * np.abs(det)))


@pytest.fixture(scope="session")
def bundle01():
    return construction.build(0.1)


@pytest.fixture(scope="session")
def cfg01():
    return PsiConfig.for_eps(0.1)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
