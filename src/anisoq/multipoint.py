"""The matching metric on Q-points.

A Q-point is an unordered multiset of Q points of R^d (d = 2 for values,
d = 6 for jets, i.e. (value, 2x2 gradient) pairs flattened), held as a
(Q, d) array whose row order carries no meaning; a (..., Q, d) array is a
stack of them.  Its canonical form sorts the rows lexicographically.  The
metric is the min-cost perfect matching with squared Euclidean costs,
square-rooted.  When every row of the second Q-point is the same point,
every matching costs the same, and that sum is returned in closed form;
otherwise matching is solved exhaustively for Q <= 6 and with the
Hungarian method (scipy's linear_sum_assignment) above.  The three agree on
their overlaps, which the test suite asserts.  g_metric matches stacks of
Q-points pair by pair.
"""

from __future__ import annotations

import itertools

import numpy as np

EXHAUSTIVE_MAX_Q = 6


def _canonical(points):
    """Sort the rows of each Q-point lexicographically: the multiset's representative.

    points is one (Q, d) float Q-point or a (..., Q, d) stack, sorted point
    by point.
    """
    order = np.lexsort(np.moveaxis(points, -1, 0)[::-1], axis=-1)
    return np.take_along_axis(points, order[..., None], axis=-2)


def _match_cost_sq(xs, ys):
    """Minimal sum of squared distances over perfect matchings, pair by pair.

    xs, ys: (..., Q, d) stacks of canonical Q-points.  Below the threshold
    each permutation's sum runs over the rows in canonical order, for the
    whole stack at once; one permutation at a time keeps the memory at the
    stack's size rather than q! times it.  A NaN sum never wins.
    """
    cost = np.sum((xs[..., :, None, :] - ys[..., None, :, :]) ** 2, axis=-1)
    q = cost.shape[-1]
    if q <= EXHAUSTIVE_MAX_Q:
        idx = np.arange(q)
        best = np.full(cost.shape[:-2], np.inf)
        for perm in itertools.permutations(range(q)):
            c = cost[..., idx, list(perm)].sum(axis=-1)
            best = np.where(c < best, c, best)
        return best
    from scipy.optimize import linear_sum_assignment

    best = np.empty(cost.shape[:-2])
    for idx in np.ndindex(best.shape):
        rows, cols = linear_sum_assignment(cost[idx])
        best[idx] = cost[idx][rows, cols].sum()
    return best


def _constant_cost_sq(xs, y):
    """_match_cost_sq against Q-points whose rows all equal y (..., 1, d).

    Every permutation there sums the same terms ||x_i - y||^2 in the same
    row order, so this one sum has its bits, and a NaN sum gives inf.  (With
    the constant side first, each permutation sums the terms in its own
    order and the least sum can round lower, so that side keeps matching.)
    """
    c = np.sum((xs - y) ** 2, axis=-1).sum(axis=-1)
    return np.where(np.isnan(c), np.inf, c)


def g_metric(p, q):
    """Matching metric between Q-points with equal Q and d.

    p and q are (..., Q, d) arrays of Q-points, broadcast against each
    other: a float for one pair, an array over the stack otherwise.  At
    Q = 1 a Q-point is its own canonical form and the one matching is the
    closed form's sum, so neither is sorted.
    """
    xs, ys = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if min(xs.ndim, ys.ndim) < 2:
        raise ValueError("expected a (..., Q, d) array of points")
    if xs.shape[-2:] != ys.shape[-2:]:
        raise ValueError("Q-points have mismatched cardinality or dimension")
    if xs.shape[-2] > 1:
        xs, ys = _canonical(xs), _canonical(ys)
    if xs.shape[-2] == 1 or np.all(ys == ys[..., :1, :]):
        dist = np.sqrt(_constant_cost_sq(xs, ys[..., :1, :]))
    else:
        dist = np.sqrt(_match_cost_sq(*np.broadcast_arrays(xs, ys)))
    return float(dist) if dist.ndim == 0 else dist
