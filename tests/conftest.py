import os

import numpy as np
import pytest

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


@pytest.fixture(scope="session")
def bundle01():
    return construction.build(0.1)


@pytest.fixture(scope="session")
def cfg01():
    return PsiConfig.for_eps(0.1)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
