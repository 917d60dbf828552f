"""Discrete measures on the oriented Grassmannian of 2-planes in R^4.

Atoms live on unit simple 2-vectors (length-6 coefficient arrays in the
fixed basis).  The ground metric for transport is the ambient Euclidean
metric of the coefficient space restricted to the unit simple locus; any
bi-Lipschitz equivalent choice induces the same weak-* topology, so nothing
downstream depends on this choice.
"""

from __future__ import annotations

import math

import numpy as np

from . import exterior

UNIT_SIMPLE_TOL = 1e-10
MASS_MATCH_RTOL = 1e-9
# merged() treats atoms as one when their coordinates agree to this many
# decimals.  The closest atoms of mu0 lie 2.8 eps apart, so they stay apart
# down to the smallest eps the command line accepts, 1e-12.
MERGE_DECIMALS = 12

# Certified transport (see _certified_transport): used when the larger side
# has at least CERT_MIN_ATOMS atoms and the smaller side 2 to CERT_MAX_SINKS;
# a value is accepted when primal - dual <= CERT_RTOL * max(1, |primal|).
CERT_MIN_ATOMS = 256
CERT_MAX_SINKS = 16
CERT_RTOL = 1e-12
BALANCE_SWEEPS = 3
NEAR_FRACTIONS = (0.01, 0.05, 0.2)
# HiGHS's default dual feasibility tolerance, 1e-7, can stop a degenerate
# transport LP at a basis whose primal and dual values are 1e-12 apart
LP_DUAL_FEAS_TOL = 1e-10


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
        if not np.all(np.isfinite(self.points)):
            raise ValueError("atom coordinates must be finite")
        if not np.all((self.weights > 0.0) & np.isfinite(self.weights)):
            raise ValueError("atom weights must be positive and finite")
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

    def merged(self):
        """Merge coinciding atoms (coordinates rounded to MERGE_DECIMALS)
        summing weights.

        Groups come in the order of their rounded coordinates; each sums its
        weights in atom order and keeps the point of its last atom.
        """
        if self.n_atoms == 0:
            return self
        key = np.round(self.points, MERGE_DECIMALS)
        _, inv = np.unique(key, axis=0, return_inverse=True)
        inv = inv.reshape(-1)  # numpy 2.0.0 returns it as (n, 1)
        n = inv.max() + 1
        wts = np.zeros(n)
        np.add.at(wts, inv, self.weights)  # unbuffered: adds in atom order
        last = np.full(n, -1)
        np.maximum.at(last, inv, np.arange(self.n_atoms))
        return GrassmannMeasure(self.points[last], wts, validate=False)

    def to_json_obj(self):
        return [[p.tolist(), float(w)] for p, w in zip(self.points, self.weights)]

    @classmethod
    def from_json_obj(cls, obj):
        pts = [a[0] for a in obj]
        wts = [a[1] for a in obj]
        return cls(np.array(pts), np.array(wts))

def transport_distance(mu, nu):
    """Exact 1-Wasserstein distance between two atomic Grassmann measures.

    Solves the transport linear program on the bipartite atom graph with
    Euclidean ground costs.  The total masses must agree to relative
    tolerance MASS_MATCH_RTOL, else ValueError; callers normalise both
    measures first.

    When one side has many atoms and the other few, the value comes from
    `_certified_transport` (a primal plan and a dual bound that agree to
    CERT_RTOL); the full LP runs when that certificate fails, and otherwise
    for every other shape.
    """
    if mu.n_atoms == 0 or nu.n_atoms == 0:
        raise ValueError("transport distance needs non-empty measures")
    m1, m2 = mu.total_mass(), nu.total_mass()
    if abs(m1 - m2) > MASS_MATCH_RTOL * max(m1, m2):
        raise ValueError(f"transport distance needs equal masses; got {m1!r} and {m2!r}")
    a = mu.merged()
    b = nu.merged()
    cost = np.sqrt(
        np.maximum(
            np.sum((a.points[:, None, :] - b.points[None, :, :]) ** 2, axis=2), 0.0
        )
    )
    a_w, b_w = a.weights, b.weights
    if a.n_atoms < b.n_atoms:  # sources: the larger side, either argument order
        cost, a_w, b_w = cost.T, b_w, a_w
    value = None
    if cost.shape[0] >= CERT_MIN_ATOMS and 2 <= cost.shape[1] <= CERT_MAX_SINKS:
        value = _certified_transport(cost, a_w, b_w)
    if value is None:
        value = _transport_lp(cost, a_w, b_w)[0]
    return value


def _transport_lp(cost, a_w, b_w):
    """HiGHS on min <cost, x> over x >= 0 with row sums a_w and column sums b_w.

    Returns the optimal value and the column duals g (with the row duals f,
    f_i + g_j <= cost_ij).  Raises RuntimeError when the solve fails.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    n, m = cost.shape
    # variable i*m + j has a one in row i (row sum) and in row n + j (column sum)
    rows = np.stack([np.repeat(np.arange(n), m), n + np.tile(np.arange(m), n)], axis=1)
    A_eq = sparse.csc_matrix(
        (np.ones(2 * n * m), rows.ravel(), np.arange(0, 2 * n * m + 1, 2)),
        shape=(n + m, n * m),
    )
    res = linprog(
        cost.ravel(),
        A_eq=A_eq,
        b_eq=np.concatenate([a_w, b_w]),
        bounds=(0, None),
        method="highs",
        options={"dual_feasibility_tolerance": LP_DUAL_FEAS_TOL},
    )
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun), res.eqlin.marginals[n:]


def _dual_bound(cost, a_w, b_w, g):
    """The c-transform value sum_i a_i min_j (c_ij - g_j) + sum_j b_j g_j.

    For every g it is the value of a feasible dual, so a lower bound on the
    transport cost (masses equal); fsum makes it independent of the order.
    """
    return math.fsum(np.concatenate([a_w * np.min(cost - g, axis=1), b_w * g]))


def _balanced_duals(cost, a_w, b_w):
    """Sink potentials g from BALANCE_SWEEPS sweeps of coordinate ascent on
    the dual bound, from g = 0.

    Each step maximises the bound over one g_j: sink j wins atom i once
    g_j > t_i = c_ij - min_{k != j}(c_ik - g_k), so g_j goes to the smallest
    t_i at which the atoms it wins carry the mass b_j.
    """
    n, m = cost.shape
    g = np.zeros(m)
    for _ in range(BALANCE_SWEEPS):
        for j in range(m):
            t = cost[:, j] - np.delete(cost - g, j, axis=1).min(axis=1)
            order = np.argsort(t, kind="stable")
            k = np.searchsorted(np.cumsum(a_w[order]), b_w[j])
            g[j] = t[order[min(k, n - 1)]]
    return g


def _certified_transport(cost, a_w, b_w):
    """Optimal transport cost for many sources and few sinks, or None.

    With sink potentials g, every source whose reduced cost c_ij - g_j has a
    clear winner is sent whole to it; HiGHS solves only the near-tie
    sources, the fraction NEAR_FRACTIONS[k] with the smallest lead, against
    the sink masses left over.  That plan's cost is an upper bound, and the
    dual bound at the restricted LP's sink duals a lower one: the plan's cost
    is returned once they agree to CERT_RTOL.  Otherwise the next, wider
    fraction runs from the better of the two g.  None when no fraction
    certifies or a restricted LP fails.
    """
    n, m = cost.shape
    g = _balanced_duals(cost, a_w, b_w)
    bound = _dual_bound(cost, a_w, b_w, g)
    for frac in NEAR_FRACTIONS:
        red = cost - g
        best = red.argmin(axis=1)
        two = np.partition(red, 1, axis=1)
        lead = two[:, 1] - two[:, 0]
        k = max(m, math.ceil(frac * n))
        near = lead <= np.partition(lead, k - 1)[k - 1]
        far = ~near
        left = b_w - np.bincount(best[far], weights=a_w[far], minlength=m)
        if left.min() < 0.0:  # the clear winners overfill a sink: widen
            continue
        try:
            near_cost, g_near = _transport_lp(cost[near], a_w[near], left)
        except RuntimeError:
            return None
        primal = math.fsum(np.append(a_w[far] * cost[far, best[far]], near_cost))
        near_bound = _dual_bound(cost, a_w, b_w, g_near)
        if near_bound > bound:
            g, bound = g_near, near_bound
        if primal - bound <= CERT_RTOL * max(1.0, abs(primal)):
            return primal
    return None


def obstruction_report(graph_or_current, eps, mu0=None, boundary_loop=None, q=None):
    """Classifier masses, mixed/vertical ratio and transport gap to mu0.

    Accepts a zero-boundary FunctionalQGraph (verified) or a
    TriangulatedCurrent with its multiplicity q and boundary_loop (its
    boundary verified to be q times the loop).  The transport
    distance compares the Gaussian image with mu0, both normalised to
    probability measures.
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
        if q is None or boundary_loop is None:
            raise ValueError("a raw current needs q and boundary_loop")
        if not T.boundary_equals_loop(boundary_loop, q):
            raise ValueError("current boundary is not q times the given loop")
    if mu0 is None:
        mu0 = construction.make_mu0(eps)
    gamma = T.gaussian_image()
    masses = gamma.mass_by_class(eps, strict=True)
    m_h = masses["horizontal"]
    m_v = masses["vertical"]
    m_m = masses["mixed"]
    ratio = math.inf if m_v == 0.0 else m_m / m_v
    dist = transport_distance(gamma.normalized(), mu0.normalized())
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
