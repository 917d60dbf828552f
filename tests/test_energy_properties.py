"""Property test: psi's e12 screen keeps every row near a ray.

A unit 2-vector within the angle T = DEFAULT_RAY_TOL + RAY_SCREEN_MARGIN of
a unit ray differs from it by at most 2 sin(T / 2) <= T in its e12
coefficient, so the screen must keep it; the exact-angle checks are in
test_energy.
"""

import numpy as np
import pytest

from anisoq import energy
from tests.conftest import EPS_GRID

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                               database=None)
REACH = energy.DEFAULT_RAY_TOL + energy.RAY_SCREEN_MARGIN
CFGS = {eps: energy.PsiConfig.for_eps(eps) for eps in EPS_GRID}


@SETTINGS
@hypothesis.given(eps=st.sampled_from(EPS_GRID), ray=st.integers(0, 2),
                  theta=st.floats(0.0, REACH), scale=st.floats(1e-3, 1e6),
                  seed=st.integers(0, 2**32 - 1))
def test_rows_within_reach_of_a_ray_pass_the_screen(eps, ray, theta, scale, seed):
    cfg = CFGS[eps]
    rho = cfg.rays[ray]
    w = np.random.default_rng(seed).normal(size=6)
    w -= (w @ rho) * rho
    w /= np.linalg.norm(w)
    ws = scale * (np.cos(theta) * rho + np.sin(theta) * w)[None, :]
    assert list(energy._screened(ws[:, 0], np.linalg.norm(ws, axis=1), cfg)) == [0]
