"""Property tests: the construction identities hold at every eps of the small-eps regime.

eps is drawn from [1e-8, 0.2]; the fixed-grid checks are in test_construction.
"""

import numpy as np
import pytest

from anisoq import construction as con
from anisoq import exterior

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                               database=None)
EPS = st.floats(min_value=1e-8, max_value=con.BUILD_EPS_MAX)
E12 = np.array([1.0, 0, 0, 0, 0, 0])


@SETTINGS
@hypothesis.given(eps=EPS)
def test_atoms_sum_to_horizontal(eps):
    b = con.build(eps)
    assert np.linalg.norm(b.v.sum(axis=0) - 2 * b.delta**2 * E12) <= 1e-12


@SETTINGS
@hypothesis.given(eps=EPS)
def test_atoms_are_simple_lifts(eps):
    b = con.build(eps)
    lam = exterior.lambda_m_batch(b.X)
    for i in range(3):
        assert np.linalg.norm(b.v[i] - b.c[i] * lam[i]) <= 1e-10
        assert abs(exterior.plucker(b.v[i])) <= 1e-12


@SETTINGS
@hypothesis.given(eps=EPS)
def test_closed_forms_match_wedges(eps):
    b = con.build(eps)
    cf = con.closed_forms(eps, b.delta)
    assert abs(b.v[0] @ b.v[0] - cf["norm_v1_sq"]) <= 1e-12
    assert abs(b.v[2] @ b.v[2] - cf["norm_v3_sq"]) <= 1e-12
    assert abs(b.w[0] @ b.w[0] - cf["norm_w1_sq"]) <= 1e-12
    assert abs(b.w[2] @ b.w[2] - cf["norm_w3_sq"]) <= 1e-12
    assert abs(b.c[0] - cf["c1"]) <= 1e-12
    assert abs(b.c[2] - cf["c3"]) <= 1e-12
