"""Property tests: the sink-cycle transport solver agrees with the LP on small problems.

Costs and masses are drawn directly (no atoms), so ties, repeated rows and
zero costs that merging would remove on Grassmann measures still occur.
"""

import numpy as np
import pytest

from anisoq import gmeasures as gm

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                               database=None)


@st.composite
def problems(draw):
    """(cost, a_w, b_w) with n >= m sources and sinks and equal total masses."""
    m = draw(st.integers(1, gm.CERT_MAX_SINKS))
    n = draw(st.one_of(st.just(m), st.integers(m, m + 30)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "zero", "tied", "repeated-rows"]))
    if kind == "random":
        cost = rng.uniform(0.0, 2.0, (n, m))
    elif kind == "zero":
        cost = np.zeros((n, m))
    elif kind == "tied":  # three cost levels: many optimal plans
        cost = 0.5 * rng.integers(0, 3, (n, m))
    else:
        rows = rng.uniform(0.0, 2.0, (max(1, n // 3), m))
        cost = rows[rng.integers(0, rows.shape[0], n)]
    if draw(st.booleans()):
        a_w, b_w = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
    else:
        a_w, b_w = rng.uniform(0.05, 1.0, n), rng.uniform(0.05, 1.0, m)
        a_w, b_w = a_w / a_w.sum(), b_w / b_w.sum()
    return cost, a_w, b_w


@SETTINGS
@hypothesis.given(problem=problems())
def test_sink_cycle_transport_matches_lp(problem):
    v = gm._sink_cycle_transport(*problem)
    assert v is not None
    assert abs(v - gm._transport_lp(*problem)) <= gm.CERT_RTOL * max(1.0, abs(v))
