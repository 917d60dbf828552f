"""Discrete measures on the oriented Grassmannian of 2-planes in R^4.

Atoms live on unit simple 2-vectors (length-6 coefficient arrays in the
fixed basis).  The ground metric for transport is the ambient Euclidean
metric of the coefficient space restricted to the unit simple locus; any
bi-Lipschitz equivalent choice induces the same weak-* topology, so nothing
downstream depends on this choice.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from . import exterior

UNIT_SIMPLE_TOL = 1e-10
MASS_MATCH_RTOL = 1e-9


class GrassmannMeasure:
    """Weighted atoms on unit simple 2-vectors."""

    __slots__ = ("points", "weights")

    def __init__(self, points, weights, validate=True):
        self.points = np.asarray(points, dtype=float).reshape(-1, 6)
        self.weights = np.asarray(weights, dtype=float).reshape(-1)
        if self.points.shape[0] != self.weights.shape[0]:
            raise ValueError("points and weights length mismatch")
        if validate:
            self.check()

    def check(self):
        if self.points.shape[0] == 0:
            return
        if np.any(self.weights <= 0.0):
            raise ValueError("atom weights must be positive")
        nrm = np.linalg.norm(self.points, axis=1)
        if np.max(np.abs(nrm - 1.0)) > UNIT_SIMPLE_TOL:
            raise ValueError("atoms must be unit 2-vectors")
        pl = np.abs(
            self.points[:, 0] * self.points[:, 5]
            - self.points[:, 1] * self.points[:, 4]
            + self.points[:, 2] * self.points[:, 3]
        )
        if np.max(pl) > UNIT_SIMPLE_TOL:
            raise ValueError("atoms must be simple 2-vectors")

    @property
    def n_atoms(self):
        return self.points.shape[0]

    def total_mass(self):
        return float(self.weights.sum())

    def barycenter(self):
        """Weighted sum of the atom 2-vectors (a length-6 array)."""
        if self.n_atoms == 0:
            return np.zeros(6)
        return self.weights @ self.points

    def mass_by_class(self, eps, strict=True):
        """Masses on the horizontal / vertical / mixed classifier sets.

        Classifier sets are realised with strict singular-value inequalities
        (open sets); boundary cases count as mixed.
        """
        labels = exterior.classify_bivector(self.points, eps, strict=strict)
        codes = (labels == exterior.VERTICAL) + 2 * (labels == exterior.MIXED)
        # codes index CLASS_LABELS; bincount adds the weights in atom order,
        # like a running sum
        m = np.bincount(codes, weights=self.weights, minlength=3)
        return {c: float(x) for c, x in zip(exterior.CLASS_LABELS, m)}

    def normalized(self):
        m = self.total_mass()
        if m <= 0:
            raise ValueError("cannot normalise an empty measure")
        return GrassmannMeasure(self.points, self.weights / m, validate=False)

    def scaled(self, factor):
        return GrassmannMeasure(self.points, self.weights * factor, validate=False)

    def merged(self, decimals=12):
        """Merge coinciding atoms (rounded coordinates) summing weights."""
        if self.n_atoms == 0:
            return self
        key = np.round(self.points, decimals)
        _, inv = np.unique(key, axis=0, return_inverse=True)
        n = inv.max() + 1
        pts = np.zeros((n, 6))
        wts = np.zeros(n)
        for i, g in enumerate(inv):
            wts[g] += self.weights[i]
            pts[g] = self.points[i]
        return GrassmannMeasure(pts, wts, validate=False)

    def to_json_obj(self):
        return [[p.tolist(), float(w)] for p, w in zip(self.points, self.weights)]

    def to_json(self):
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj):
        pts = [a[0] for a in obj]
        wts = [a[1] for a in obj]
        return cls(np.array(pts), np.array(wts))

    @classmethod
    def from_json(cls, s):
        return cls.from_json_obj(json.loads(s))


def barycenter(mu):
    return mu.barycenter()


def transport_distance(mu, nu):
    """Exact 1-Wasserstein distance between two atomic Grassmann measures.

    Solves the transport linear program on the bipartite atom graph with
    Euclidean ground costs.  Requires equal total masses up to relative
    tolerance 1e-9; otherwise the measures are normalised to the smaller
    mass and the mass difference is added as a penalty term (documented
    convention; ground distances on the unit locus are bounded by 2, so the
    penalty dominates any redistribution of the excess).
    """
    if mu.n_atoms == 0 or nu.n_atoms == 0:
        raise ValueError("transport distance needs non-empty measures")
    m1, m2 = mu.total_mass(), nu.total_mass()
    penalty = 0.0
    if abs(m1 - m2) > MASS_MATCH_RTOL * max(m1, m2):
        m = min(m1, m2)
        penalty = abs(m1 - m2)
        mu = mu.normalized().scaled(m)
        nu = nu.normalized().scaled(m)
    a = mu.merged()
    b = nu.merged()
    na, nb = a.n_atoms, b.n_atoms
    cost = np.sqrt(
        np.maximum(
            np.sum((a.points[:, None, :] - b.points[None, :, :]) ** 2, axis=2), 0.0
        )
    )
    # LP: minimise c.x subject to row sums = a.weights, col sums = b.weights
    A_eq = sparse.vstack(
        [
            sparse.kron(sparse.eye(na), np.ones((1, nb))),
            sparse.kron(np.ones((1, na)), sparse.eye(nb)),
        ]
    )
    res = linprog(
        cost.ravel(),
        A_eq=A_eq,
        b_eq=np.concatenate([a.weights, b.weights]),
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun) + penalty


def obstruction_report(graph_or_current, eps, mu0=None, normalized=True,
                       boundary_loop=None, q=None):
    """Classifier masses, mixed/vertical ratio and transport gap to mu0.

    Accepts a zero-boundary FunctionalQGraph (verified) or a
    TriangulatedCurrent (boundary verified against boundary_loop when given,
    otherwise the boundary chain must lie at height zero).  The transport
    distance compares the Gaussian image with mu0, both normalised to
    probability measures when `normalized` (the default), raw otherwise.
    """
    from . import construction, currents

    if isinstance(graph_or_current, currents.FunctionalQGraph):
        g = graph_or_current
        if not g.is_zero_boundary():
            raise ValueError("obstruction report requires a zero-boundary graph")
        T = currents.triangulate(g)
        q = g.q
    else:
        T = graph_or_current
        if q is None:
            raise ValueError("q is required for a raw current")
        if boundary_loop is not None:
            if not T.boundary_equals_loop(boundary_loop, q):
                raise ValueError("current boundary is not q times the given loop")
        else:
            for (ka, kb) in T.boundary():
                if ka[2:] != (0, 0) or kb[2:] != (0, 0):
                    raise ValueError("current boundary does not lie at height zero")
    if mu0 is None:
        mu0 = construction.make_mu0(eps)
    gamma = T.gaussian_image()
    masses = gamma.mass_by_class(eps, strict=True)
    m_h = masses["horizontal"]
    m_v = masses["vertical"]
    m_m = masses["mixed"]
    ratio = math.inf if m_v == 0.0 else m_m / m_v
    if normalized:
        dist = transport_distance(gamma.normalized(), mu0.normalized())
    else:
        dist = transport_distance(gamma, mu0)
    return {
        "Q": int(q),
        "eps": eps,
        "mH": m_h,
        "mV": m_v,
        "mM": m_m,
        "ratio": ratio,
        "w1_dist_mu0": dist,
        "total_mass": gamma.total_mass(),
    }
