"""Unordered Q-points, the matching metric, and maximal decompositions.

A Q-point is an unordered multiset of Q points of R^d (d = 2 for values,
d = 6 for jets, i.e. (value, 2x2 gradient) pairs flattened).  The metric is
the min-cost perfect matching with squared Euclidean costs, square-rooted.
Matching is solved exhaustively for Q <= 6 and with the Hungarian method
(scipy's linear_sum_assignment) above; the two agree on the overlap, which
the test suite asserts.  g_metric also takes stacks of Q-points and matches
them pair by pair.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

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


class QPoint:
    """Unordered multiset of Q points in R^d, stored in canonical order."""

    __slots__ = ("points",)

    def __init__(self, points):
        self.points = _canonical(points)
        if self.points.ndim != 2:
            raise ValueError("expected a (Q, d) array of points")

    @property
    def q(self):
        return self.points.shape[0]

    @classmethod
    def full(cls, x, q):
        """Q copies of a single point."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return cls(np.tile(x, (q, 1)))

    def __eq__(self, other):
        if not isinstance(other, QPoint):
            return NotImplemented
        return self.points.shape == other.points.shape and bool(
            np.array_equal(self.points, other.points)
        )

    def __repr__(self):
        return f"QPoint({self.points.tolist()})"

    def to_json(self):
        return json.dumps(self.points.tolist())

    @classmethod
    def from_json(cls, s):
        return cls(json.loads(s))


class QJet(QPoint):
    """Q-point of (value, gradient) pairs; rows are (a_x, a_y, X00, X01, X10, X11)."""

    @classmethod
    def from_parts(cls, values, grads):
        values = np.asarray(values, dtype=float).reshape(-1, 2)
        grads = np.asarray(grads, dtype=float).reshape(-1, 2, 2)
        rows = np.concatenate([values, grads.reshape(-1, 4)], axis=1)
        return cls(rows)

    def values(self):
        return self.points[:, :2]

    def grads(self):
        return self.points[:, 2:].reshape(-1, 2, 2)


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


def _points(p):
    return p.points if isinstance(p, QPoint) else _canonical(p)


def g_metric(p, q):
    """Matching metric between Q-points with equal Q and d.

    p and q are QPoints or (..., Q, d) arrays of Q-points, broadcast against
    each other: a float for one pair, an array over the stack otherwise.
    """
    xs, ys = _points(p), _points(q)
    if xs.shape[-2:] != ys.shape[-2:]:
        raise ValueError("Q-points have mismatched cardinality or dimension")
    dist = np.sqrt(_match_cost_sq(*np.broadcast_arrays(xs, ys)))
    return float(dist) if dist.ndim == 0 else dist


def g_metric_hungarian(p, q):
    """Hungarian-only evaluation of the matching metric (any Q); test hook."""
    if not isinstance(p, QPoint):
        p = QPoint(p)
    if not isinstance(q, QPoint):
        q = QPoint(q)
    from scipy.optimize import linear_sum_assignment

    cost = np.sum((p.points[:, None, :] - q.points[None, :, :]) ** 2, axis=2)
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
        rows = []
        for mult, a, X in self.parts:
            row = np.concatenate([np.asarray(a, dtype=float), np.asarray(X, dtype=float).ravel()])
            rows.extend([row] * mult)
        return QJet(np.array(rows))

    def same_maximal_multiplicities(self, other):
        return self.multiplicities == other.multiplicities

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
    """Single-linkage clustering of a Q-jet at radius tol.

    Exact whenever all pairwise distances are either below tol/4 or above
    4*tol; if some pairwise distance falls inside [tol/4, 4*tol] the result
    is flagged ambiguous (not an error).  Part representatives are cluster
    means; reconstructing returns the input multiset up to tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not isinstance(p, QPoint):
        p = QJet(p)
    pts = p.points
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


@dataclass
class CompetitorClassDescriptor:
    """A competitor class: affine parts to match on the boundary of a square.

    Candidate maps on D(x0, r) must decompose as a sum over parts, the j-th
    summand agreeing with q_j [a_j + X_j (x - x0)] on the boundary.
    """

    target: MaximalDecomposition
    x0: np.ndarray = field(default_factory=lambda: np.zeros(2))
    r: float = 1.0

    def boundary_value(self, x):
        """The prescribed Q-point trace at a boundary point x."""
        rows = []
        rel = np.asarray(x, dtype=float) - self.x0
        for mult, a, X in self.target.parts:
            val = np.asarray(a) + np.asarray(X) @ rel
            rows.extend([val] * mult)
        return QPoint(np.array(rows))
