import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from anisoq import multipoint as mp


def brute_force_g(xs, ys):
    best = np.inf
    for perm in itertools.permutations(range(len(xs))):
        c = sum(np.sum((xs[i] - ys[p]) ** 2) for i, p in enumerate(perm))
        best = min(best, c)
    return np.sqrt(best)


def _jet(values, grads):
    """(Q, 6) Q-jet rows (a_x, a_y, X00, X01, X10, X11)."""
    return np.concatenate([np.reshape(values, (-1, 2)), np.reshape(grads, (-1, 4))], axis=1)


def test_full_multiplicity_translation():
    for q in (1, 2, 5):
        p = np.tile([0.0, 0.0], (q, 1))
        r = np.tile([3.0, 4.0], (q, 1))
        assert abs(mp.g_metric(p, r) - np.sqrt(q) * 5.0) < 1e-12


def test_metric_zero_on_equal():
    p = np.array([[0.0, 1.0], [2.0, -1.0]])
    assert mp.g_metric(p, p) == 0.0


def test_three_point_collapse_brute_force():
    p = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    q = np.zeros((3, 2))
    assert abs(mp.g_metric(p, q) - np.sqrt(2.0)) < 1e-14
    assert abs(brute_force_g(p, q) - np.sqrt(2.0)) < 1e-14


def test_mismatched_q_raises():
    with pytest.raises(ValueError):
        mp.g_metric(np.zeros((2, 2)), np.zeros((3, 2)))


def test_metric_axioms(rng):
    for _ in range(200):
        q = int(rng.integers(1, 5))
        a = rng.normal(size=(q, 2))
        b = rng.normal(size=(q, 2))
        c = rng.normal(size=(q, 2))
        dab, dba = mp.g_metric(a, b), mp.g_metric(b, a)
        assert dab >= 0
        assert abs(dab - dba) < 1e-10
        assert dab <= mp.g_metric(a, c) + mp.g_metric(c, b) + 1e-10


def test_hungarian_equals_exhaustive(rng):
    for _ in range(500):
        q = int(rng.integers(2, 7))
        xs = rng.normal(size=(q, 2)) * rng.uniform(0.1, 10)
        ys = rng.normal(size=(q, 2)) * rng.uniform(0.1, 10)
        d_exh = mp.g_metric(xs, ys)  # exhaustive for Q <= 6
        d_hun = mp.g_metric_hungarian(xs, ys)
        d_ora = brute_force_g(xs, ys)
        assert abs(d_exh - d_hun) < 1e-10
        assert abs(d_exh - d_ora) < 1e-10


def test_hungarian_used_above_threshold(rng):
    q = 8
    xs, ys = rng.normal(size=(q, 2)), rng.normal(size=(q, 2))
    d = mp.g_metric(xs, ys)
    assert abs(d - mp.g_metric_hungarian(xs, ys)) < 1e-12


def test_qpoint_order_independence(rng):
    # a Q-point is its rows as a multiset: every row permutation is at distance 0
    for q, d in ((4, 2), (3, 6), (7, 2)):
        pts = rng.normal(size=(q, d))
        pts[1] = pts[0]  # a repeated row
        perms = pts[np.array(list(itertools.permutations(range(q))))]
        assert np.array_equal(mp.g_metric(pts, perms), np.zeros(perms.shape[0]))
        assert mp.g_metric(perms[-1], pts) == 0.0


def test_maximal_decomposition_full_point():
    jet = _jet(np.tile([1.0, 2.0], (3, 1)), np.tile(np.eye(2), (3, 1, 1)))
    md = mp.maximal_decomposition(jet)
    assert len(md.parts) == 1
    assert md.parts[0][0] == 3
    assert not md.ambiguous


def test_maximal_decomposition_two_parts():
    jet = _jet(np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros((2, 2, 2)))
    md = mp.maximal_decomposition(jet, tol=1e-6)
    assert md.multiplicities == [1, 1]
    assert not md.ambiguous


def test_maximal_decomposition_ambiguous_flag():
    jet = _jet(np.array([[0.0, 0.0], [1e-6, 0.0]]), np.zeros((2, 2, 2)))
    md = mp.maximal_decomposition(jet, tol=1e-6)
    assert md.ambiguous


def test_decomposition_reconstruction_roundtrip(rng):
    for _ in range(50):
        j = int(rng.integers(1, 4))
        parts = []
        total = 0
        for _i in range(j):
            m = int(rng.integers(1, 3))
            total += m
            parts.append((m, rng.normal(size=2) * 5, rng.normal(size=(2, 2))))
        md = mp.MaximalDecomposition(parts=parts, tol=1e-9)
        rows = md.reconstruct()
        assert rows.shape == (total, 6)
        want = np.repeat([np.concatenate([a, X.ravel()]) for _m, a, X in parts],
                         [m for m, _a, _X in parts], axis=0)
        assert np.array_equal(rows, want[np.lexsort(want.T[::-1])])  # canonical order
        back = mp.maximal_decomposition(rows, tol=1e-9)
        assert back.q == total
        assert back.multiplicities == md.multiplicities or back.ambiguous
        if not back.ambiguous:
            assert np.array_equal(back.reconstruct(), rows)


def test_same_maximal_multiplicities_distinct_vs_collapsed(rng):
    q = 3
    distinct = _jet(rng.normal(size=(q, 2)) * 10, np.zeros((q, 2, 2)))
    collapsed = _jet(np.zeros((q, 2)), np.zeros((q, 2, 2)))
    md_d = mp.maximal_decomposition(distinct)
    md_c = mp.maximal_decomposition(collapsed)
    assert md_d.multiplicities == [1, 1, 1]
    assert md_c.multiplicities == [3]
    assert md_d.multiplicities != md_c.multiplicities


def _pairwise_g_metric(p, q):
    """One pair at a time: canonical sort, then permutations or Hungarian."""
    xs, ys = (np.asarray(v, float)[np.lexsort(np.asarray(v, float).T[::-1])] for v in (p, q))
    cost = np.sum((xs[:, None, :] - ys[None, :, :]) ** 2, axis=2)
    n = xs.shape[0]
    if n > mp.EXHAUSTIVE_MAX_Q:
        rows, cols = linear_sum_assignment(cost)
        return float(np.sqrt(float(cost[rows, cols].sum())))
    best = np.inf
    idx = np.arange(n)
    for perm in itertools.permutations(range(n)):
        c = float(cost[idx, list(perm)].sum())
        if c < best:
            best = c
    return float(np.sqrt(best))


@pytest.mark.parametrize("q", range(1, 8))
def test_stacked_metric_matches_pairwise(q):
    rng = np.random.default_rng(100 + q)
    for d in (2, 6):
        P = rng.normal(size=(4, 30, q, d)) * 10.0 ** rng.uniform(-6, 6, (4, 30, 1, 1))
        Q = rng.normal(size=(4, 30, q, d))
        P[:, ::3, 1:] = P[:, ::3, :1]  # repeated rows
        Q[:, ::4] = P[:, ::4, ::-1]  # equal multisets in another order
        Q[:, 1::5] = Q[:, 1::5, :1]
        if q <= mp.EXHAUSTIVE_MAX_Q:
            P[1, 2, 0, 0] = np.nan  # every matching's sum is NaN: the pair gives inf
        want = np.array([[_pairwise_g_metric(a, b) for a, b in zip(pa, qa)]
                         for pa, qa in zip(P, Q)])
        got = mp.g_metric(P, Q)
        assert got.shape == (4, 30)
        assert np.array_equal(got, want)
        # a single Q-point broadcasts against a stack; one pair gives a float
        assert np.array_equal(mp.g_metric(P[0], Q[0, 0]),
                              [_pairwise_g_metric(a, Q[0, 0]) for a in P[0]])
        one = mp.g_metric(P[0, 0], Q[0, 0])
        assert type(one) is float and one == want[0, 0]
    with pytest.raises(ValueError):
        mp.g_metric(np.zeros((3, q, 2)), np.zeros((3, q + 1, 2)))
