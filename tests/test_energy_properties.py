"""Property test: psi's e12 screen keeps every row near a ray.

A unit 2-vector within the angle T = DEFAULT_RAY_TOL + RAY_SCREEN_MARGIN of
a unit ray differs from it by at most 2 sin(T / 2) <= T in its e12
coefficient, so the screen must keep it, and scaled to e12 coefficient 1
its norm is at or above psi_entries' norm floor; the exact-angle checks are
in test_energy.
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


def _near_ray(cfg, ray, theta, seed):
    """A unit 2-vector at the angle theta from the ray, in a random direction."""
    rho = cfg.rays[ray]
    w = np.random.default_rng(seed).normal(size=6)
    w -= (w @ rho) * rho
    w /= np.linalg.norm(w)
    return np.cos(theta) * rho + np.sin(theta) * w


@SETTINGS
@hypothesis.given(eps=st.sampled_from(EPS_GRID), ray=st.integers(0, 2),
                  theta=st.floats(0.0, REACH), scale=st.floats(1e-3, 1e6),
                  seed=st.integers(0, 2**32 - 1))
def test_rows_within_reach_of_a_ray_pass_the_screen(eps, ray, theta, scale, seed):
    cfg = CFGS[eps]
    ws = scale * _near_ray(cfg, ray, theta, seed)[None, :]
    assert list(energy._screened(ws[:, 0], np.linalg.norm(ws, axis=1), cfg)) == [0]


@SETTINGS
@hypothesis.given(eps=st.sampled_from(EPS_GRID), ray=st.integers(0, 2),
                  theta=st.floats(0.0, REACH), seed=st.integers(0, 2**32 - 1))
def test_rows_within_reach_of_a_ray_clear_the_norm_floor(eps, ray, theta, seed):
    # LambdaM(X) has e12 coefficient 1: scaled to it, a 2-vector within reach
    # of a ray has a norm at or above psi_entries' floor, so the floor drops
    # no row that the screen would keep
    cfg = CFGS[eps]
    u = _near_ray(cfg, ray, theta, seed)
    hypothesis.assume(u[0] > 0.0)
    assert np.linalg.norm(u / u[0]) >= cfg.floor
