"""The matching metric on Q-points, and maximal decompositions.

A Q-point is an unordered multiset of Q points of R^d (d = 2 for values,
d = 6 for jets, i.e. (value, 2x2 gradient) pairs flattened), held as a
(Q, d) array whose row order carries no meaning; a (..., Q, d) array is a
stack of them.  Its canonical form sorts the rows lexicographically.  The
metric is the min-cost perfect matching with squared Euclidean costs,
square-rooted.  Matching is solved exhaustively for Q <= 6 and with the
Hungarian method (scipy's linear_sum_assignment) above; the two agree on
the overlap, which the test suite asserts.  g_metric matches stacks of
Q-points pair by pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

EXHAUSTIVE_MAX_Q = 6
DEFAULT_CLUSTER_TOL = 1e-9


def _canonical(points):
    """Sort the rows of each Q-point lexicographically: the multiset's representative.

    points is one (Q, d) Q-point or a (..., Q, d) stack, sorted point by point.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim < 2:
        raise ValueError("expected a (..., Q, d) array of points")
    order = np.lexsort(np.moveaxis(pts, -1, 0)[::-1], axis=-1)
    return np.take_along_axis(pts, order[..., None], axis=-2)


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


def g_metric(p, q):
    """Matching metric between Q-points with equal Q and d.

    p and q are (..., Q, d) arrays of Q-points, broadcast against each
    other: a float for one pair, an array over the stack otherwise.
    """
    xs, ys = _canonical(p), _canonical(q)
    if xs.shape[-2:] != ys.shape[-2:]:
        raise ValueError("Q-points have mismatched cardinality or dimension")
    dist = np.sqrt(_match_cost_sq(*np.broadcast_arrays(xs, ys)))
    return float(dist) if dist.ndim == 0 else dist


def g_metric_hungarian(p, q):
    """Hungarian-only evaluation of the matching metric between two (Q, d)
    Q-points (any Q); test hook."""
    from scipy.optimize import linear_sum_assignment

    xs, ys = _canonical(p), _canonical(q)
    cost = np.sum((xs[:, None, :] - ys[None, :, :]) ** 2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].sum()))


@dataclass
class MaximalDecomposition:
    """Grouping of a Q-jet into distinct (multiplicity, value, gradient) parts."""

    parts: list  # list of (q_j: int, a_j: (2,) array, X_j: (2,2) array)
    tol: float
    ambiguous: bool = False

    @property
    def q(self):
        return sum(p[0] for p in self.parts)

    @property
    def multiplicities(self):
        return sorted(p[0] for p in self.parts)

    def reconstruct(self):
        """The canonical (Q, 6) Q-jet: each part's (a, X) row, multiplicity times."""
        rows = [np.concatenate([np.asarray(a, dtype=float), np.asarray(X, dtype=float).ravel()])
                for _m, a, X in self.parts]
        return _canonical(np.repeat(rows, [m for m, _a, _X in self.parts], axis=0))

    @classmethod
    def single(cls, q, a, X):
        a = np.asarray(a, dtype=float).reshape(2)
        X = np.asarray(X, dtype=float).reshape(2, 2)
        return cls(parts=[(int(q), a, X)], tol=DEFAULT_CLUSTER_TOL)

    def to_json_obj(self):
        return {
            "parts": [
                {"q": int(m), "a": np.asarray(a).tolist(), "X": np.asarray(X).tolist()}
                for (m, a, X) in self.parts
            ],
            "tol": self.tol,
            "ambiguous": self.ambiguous,
        }


def maximal_decomposition(p, tol=DEFAULT_CLUSTER_TOL):
    """Single-linkage clustering of a (Q, d) Q-point at radius tol.

    Exact whenever all pairwise distances are either below tol/4 or above
    4*tol; if some pairwise distance falls inside [tol/4, 4*tol] the result
    is flagged ambiguous (not an error).  Part representatives are cluster
    means; reconstructing returns the input multiset up to tol.  A Q-jet
    (d = 6) gives parts (q_j, a_j, X_j); for d = 2 every X_j is zero.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    pts = _canonical(p)
    if pts.ndim != 2:
        raise ValueError("expected a (Q, d) array of points")
    q = pts.shape[0]
    d2 = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2))
    ambiguous = False
    off_diag = d2[~np.eye(q, dtype=bool)]
    if off_diag.size and np.any((off_diag >= tol / 4.0) & (off_diag <= 4.0 * tol)):
        ambiguous = True
    # union-find single linkage at radius tol
    parent = list(range(q))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(q):
        for j in range(i + 1, q):
            if d2[i, j] <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups = {}
    for i in range(q):
        groups.setdefault(find(i), []).append(i)
    parts = []
    for idxs in groups.values():
        rep = pts[idxs].mean(axis=0)
        a = rep[:2]
        X = rep[2:].reshape(2, 2) if rep.size >= 6 else np.zeros((2, 2))
        parts.append((len(idxs), a, X))
    parts.sort(key=lambda t: (-t[0], tuple(t[1]), tuple(np.asarray(t[2]).ravel())))
    return MaximalDecomposition(parts=parts, tol=tol, ambiguous=ambiguous)
