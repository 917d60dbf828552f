import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from anisoq import multipoint as mp
from tests.conftest import g_metric_hungarian


def brute_force_g(xs, ys):
    """Exhaustive matching: the least squared-distance sum over the array of
    every permutation of the rows of ys."""
    perms = np.array(list(itertools.permutations(range(len(xs)))))
    return np.sqrt(np.min(np.sum((xs - ys[perms]) ** 2, axis=(1, 2))))


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
    with pytest.raises(ValueError, match=r"expected a \(\.\.\., Q, d\) array"):
        mp.g_metric(np.zeros(2), np.zeros(2))


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
        d_hun = g_metric_hungarian(xs, ys)
        d_ora = brute_force_g(xs, ys)
        assert abs(d_exh - d_hun) < 1e-10
        assert abs(d_exh - d_ora) < 1e-10


def test_hungarian_used_above_threshold(rng):
    q = 8
    xs, ys = rng.normal(size=(q, 2)), rng.normal(size=(q, 2))
    d = mp.g_metric(xs, ys)
    assert abs(d - g_metric_hungarian(xs, ys)) < 1e-12


def test_qpoint_order_independence(rng):
    # a Q-point is its rows as a multiset: every row permutation is at distance 0
    for q, d in ((4, 2), (3, 6), (7, 2)):
        pts = rng.normal(size=(q, d))
        pts[1] = pts[0]  # a repeated row
        perms = pts[np.array(list(itertools.permutations(range(q))))]
        assert np.array_equal(mp.g_metric(pts, perms), np.zeros(perms.shape[0]))
        assert mp.g_metric(perms[-1], pts) == 0.0


def _canonical_cost(p, q):
    """Squared-distance cost matrix between the canonical forms of two Q-points."""
    xs, ys = (np.asarray(v, float)[np.lexsort(np.asarray(v, float).T[::-1])] for v in (p, q))
    return np.sum((xs[:, None, :] - ys[None, :, :]) ** 2, axis=2)


def _exhaustive_g(p, q):
    """Every permutation in turn; a NaN sum never wins."""
    cost = _canonical_cost(p, q)
    best = np.inf
    idx = np.arange(cost.shape[0])
    for perm in itertools.permutations(range(cost.shape[0])):
        c = float(cost[idx, list(perm)].sum())
        if c < best:
            best = c
    return float(np.sqrt(best))


def _hungarian_g(p, q):
    cost = _canonical_cost(p, q)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(float(cost[rows, cols].sum())))


def _pairwise_g_metric(p, q):
    """One pair at a time: canonical sort, then permutations or Hungarian."""
    if np.shape(p)[0] > mp.EXHAUSTIVE_MAX_Q:
        return _hungarian_g(p, q)
    return _exhaustive_g(p, q)


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


@pytest.mark.parametrize("q", range(1, 9))
def test_constant_qpoint_closed_form(q, monkeypatch):
    """A constant second Q-point takes the closed form, with the bits of
    both matchings; a constant first one keeps the matching path."""
    rng = np.random.default_rng(200 + q)
    for d in (2, 6):
        P = rng.normal(size=(8, q, d)) * 10.0 ** rng.uniform(-6, 6, (8, 1, 1))
        P[::3, 1:] = P[::3, :1]  # repeated rows
        P[4, 0, -1] = np.nan  # a NaN row: the pair gives inf
        fin = np.all(np.isfinite(P), axis=(1, 2))  # scipy's Hungarian rejects NaN costs
        consts = np.repeat(rng.normal(size=(8, 1, d)), q, axis=1)
        c = consts[0]
        exh = np.array([_exhaustive_g(a, c) for a in P])
        assert exh[4] == np.inf
        with monkeypatch.context() as m:
            m.setattr(mp, "_match_cost_sq", None)  # the closed form needs no matching
            got = mp.g_metric(P, c)
            assert np.array_equal(got, exh)
            assert np.array_equal(got[fin], [_hungarian_g(a, c) for a in P[fin]])
            # a single Q-point broadcast against a stack of constants, and one pair
            assert np.array_equal(mp.g_metric(P[0], consts),
                                  [_hungarian_g(P[0], k) for k in consts])
            assert mp.g_metric(P[1], c) == exh[1]
        # first constant: each matching sums the terms in its own order
        assert np.array_equal(mp.g_metric(c, P[fin]),
                              [_pairwise_g_metric(c, a) for a in P[fin]])


def test_single_point_skips_the_sort(monkeypatch):
    """At Q = 1, NaN rows included, the unsorted closed form has the bits of
    the general path: canonical forms, then matching."""
    rng = np.random.default_rng(300)
    for d in (2, 6):
        P = rng.normal(size=(5, 7, 1, d)) * 10.0 ** rng.uniform(-6, 6, (5, 7, 1, 1))
        Q = rng.normal(size=(5, 7, 1, d))
        Q[4, ::2] = P[4, ::2]  # equal points
        P[1, 2, 0, 0] = Q[3, 4, 0, -1] = np.nan  # a NaN row: the pair gives inf
        P[2, 5] = Q[2, 5] = np.nan
        pairs = [(P, Q), (P[0], Q[0, 0]), (Q[0, 0], P[0])]
        want = [np.sqrt(mp._match_cost_sq(*np.broadcast_arrays(mp._canonical(p),
                                                                mp._canonical(q))))
                for p, q in pairs]
        assert np.isinf(want[0][[1, 3, 2], [2, 4, 5]]).all() and (want[0][4, ::2] == 0).all()
        with monkeypatch.context() as m:
            m.setattr(mp, "_canonical", None)
            m.setattr(mp, "_match_cost_sq", None)
            for (p, q), w in zip(pairs, want):
                assert np.array_equal(mp.g_metric(p, q), w)
            one = mp.g_metric(P[0, 0], Q[0, 0])
            assert type(one) is float and one == want[0][0, 0]
