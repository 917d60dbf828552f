"""Property tests: the slicing, ball-mass and boundary kernels are geometric."""

import numpy as np
import pytest

from anisoq import currents

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                               database=None)


def _random_current(seed, n):
    rng = np.random.default_rng(seed)
    return currents.TriangulatedCurrent(rng.normal(size=(n, 3, 4)),
                                        rng.integers(1, 4, size=n)), rng


def _rotated(seed, n):
    """A random current, centre and orthogonal map, and the mapped current and centre."""
    T, rng = _random_current(seed, n)
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    p = rng.normal(size=4) * 0.5
    return T, p, T.pushforward(Q), Q @ p


@SETTINGS
@hypothesis.given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
                  rho=st.floats(0.05, 4.0))
def test_slice_mass_orthogonal_invariance(seed, n, rho):
    T, p, TQ, pQ = _rotated(seed, n)
    assert TQ.slice_mass(pQ, rho) == pytest.approx(T.slice_mass(p, rho), rel=1e-12, abs=1e-12)


@SETTINGS
@hypothesis.given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
                  rho=st.floats(0.05, 4.0), subdiv=st.integers(1, 12))
def test_mass_in_ball_orthogonal_invariance(seed, n, rho, subdiv):
    T, p, TQ, pQ = _rotated(seed, n)
    assert TQ.mass_in_ball(pQ, rho, subdiv) == pytest.approx(T.mass_in_ball(p, rho, subdiv),
                                                             rel=1e-12, abs=1e-12)


CHAIN_CURRENTS = {
    "random_q2": currents.triangulate(
        currents.random_lipschitz_graph(5, 2.0, 2, currents.Mesh((0.0, 0.0), 1.0, 3))),
    "branched": currents.branched_graph(2, 0.8, 1.0, n_r=3, n_theta=6),
}


@SETTINGS
@hypothesis.given(name=st.sampled_from(sorted(CHAIN_CURRENTS)), data=st.data())
def test_boundary_permutation_invariance(name, data):
    T = CHAIN_CURRENTS[name]
    perm = data.draw(st.permutations(range(T.n_triangles)))
    shuffled = currents.TriangulatedCurrent(T.verts[perm], T.mults[perm])
    assert shuffled.boundary() == T.boundary()
