"""Discrete measures on the oriented Grassmannian of 2-planes in R^4.

Atoms live on unit simple 2-vectors (length-6 coefficient arrays in the
fixed basis).  The ground metric for transport is the ambient Euclidean
metric of the coefficient space restricted to the unit simple locus; any
bi-Lipschitz equivalent choice induces the same weak-* topology, so nothing
downstream depends on this choice.

obstruction_report reads a Gaussian image against the construction's mu0;
the caller checks the current's boundary and builds mu0 once per eps, so
this module depends on exterior alone.
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

# Exact transport for at most CERT_MAX_SINKS sinks (_sink_cycle_transport): a
# value is accepted when primal - dual <= CERT_RTOL * max(1, |primal|).
CERT_MAX_SINKS = 16
CERT_RTOL = 1e-12
BALANCE_SWEEPS = 3
# A sink cycle counts as negative, and a potential as lowered, only past this
# much: cost differences of unit 2-vectors carry rounding of about 4e-16 each,
# so a cycle that is zero in exact arithmetic stays above it, and the
# potentials it leaves cost the dual bound at most this times the mass.
CYCLE_TOL = 1e-14
# Cycle pushes before the LP takes over.  Gaussian images of 400-1,100 atoms
# took at most 4 against mu0 and at most 489 (0.4 ms each) against 4-16
# random atoms; twice that is a plan cycling on rounding, or slower than HiGHS.
MAX_PUSHES = 1000
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
        if np.max(np.abs(exterior.plucker(self.points))) > UNIT_SIMPLE_TOL:
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
        order = np.lexsort(key.T[::-1])  # stable: each group lists its atoms in order
        key = key[order]
        start = np.ones(self.n_atoms, dtype=bool)
        start[1:] = np.any(key[1:] != key[:-1], axis=1)
        inv = np.empty(self.n_atoms, dtype=np.intp)
        inv[order] = np.cumsum(start) - 1
        wts = np.zeros(np.count_nonzero(start))
        np.add.at(wts, inv, self.weights)  # unbuffered: adds in atom order
        last = order[np.append(start[1:], True)]  # each group's last atom
        return GrassmannMeasure(self.points[last], wts, validate=False)


def transport_distance(mu, nu):
    """Exact 1-Wasserstein distance between two atomic Grassmann measures.

    Solves the transport problem on the bipartite atom graph with Euclidean
    ground costs.  The total masses must agree to relative tolerance
    MASS_MATCH_RTOL, else ValueError; callers normalise both measures first.

    The atoms of the smaller side are the sinks.  With at most CERT_MAX_SINKS
    of them the value comes from `_sink_cycle_transport` (a primal plan and a
    dual bound that agree to CERT_RTOL); HiGHS solves the linear program only
    when that certificate fails, and for more sinks.
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
    if cost.shape[1] <= CERT_MAX_SINKS:
        value = _sink_cycle_transport(cost, a_w, b_w)
    if value is None:
        value = _transport_lp(cost, a_w, b_w)
    return value


def _transport_lp(cost, a_w, b_w):
    """HiGHS on min <cost, x> over x >= 0 with row sums a_w and column sums b_w.

    Returns the optimal value.  Raises RuntimeError when the solve fails.
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
    return float(res.fun)


def _dual_bound(cost, a_w, b_w, g):
    """The c-transform value sum_i a_i min_j (c_ij - g_j) + sum_j b_j g_j.

    For every g it is the value of a feasible dual, so a lower bound on the
    transport cost (masses equal); fsum makes it independent of the order.
    """
    return math.fsum(np.concatenate([a_w * np.min(cost - g, axis=1), b_w * g]))


def _balanced_duals(cost, a_w, b_w):
    """Sink potentials g from BALANCE_SWEEPS sweeps of coordinate ascent on
    the dual bound, from g = 0 (two sinks or more).

    Each step maximises the bound over one g_j: sink j wins atom i once
    g_j > t_i = c_ij - min_{k != j}(c_ik - g_k), so g_j goes to the smallest
    t_i at which the atoms it wins carry the mass b_j.
    """
    n, m = cost.shape
    cols = np.ascontiguousarray(cost.T)  # sink-major: the min over sinks is elementwise
    g = np.zeros(m)
    red = np.empty_like(cols)
    for _ in range(BALANCE_SWEEPS):
        for j in range(m):
            np.subtract(cols, g[:, None], out=red)
            red[j] = np.inf
            t = cols[j] - red.min(axis=0)
            order = np.argsort(t)
            k = np.searchsorted(np.cumsum(a_w[order]), b_w[j])
            g[j] = t[order[min(k, n - 1)]]
    return g


def _northwest_plan(red, a_w, b_w):
    """A transport plan (n, m) with row sums a_w and column sums b_w.

    The north-west corner rule on the sources ordered by their best sink
    under the reduced costs red: sources and sinks fill the same mass axis
    in order, and every stretch between two of their cumulative masses is
    one cell.  The last sink takes what is left of the sources' mass.
    """
    m = red.shape[1]
    order = np.argsort(red.argmin(axis=1), kind="stable")
    src_end, snk_end = np.cumsum(a_w[order]), np.cumsum(b_w)
    cuts = np.unique(np.concatenate([src_end[:-1], snk_end[:-1]]))
    lo = np.concatenate([[0.0], cuts[cuts < src_end[-1]]])
    hi = np.append(lo[1:], src_end[-1])
    src = np.searchsorted(src_end, lo, side="right")
    snk = np.minimum(np.searchsorted(snk_end, lo, side="right"), m - 1)
    x = np.zeros(red.shape)
    x[order[src], snk] = hi - lo
    return x


def _negative_cycle(w):
    """Bellman-Ford on the sink graph with edge weights w (m, m), zero on
    the diagonal, from a root joined to every sink at cost 0.

    Returns (None, d) with potentials d such that d_k <= d_j + w_jk +
    CYCLE_TOL for every edge, or (cycle, None) with the sinks of a cycle of
    weight below -CYCLE_TOL in order; (None, None) when the m-th round still
    lowers a potential but no such cycle shows.
    """
    m = w.shape[0]
    d = np.zeros(m)
    pred = np.arange(m)  # a sink never lowered is its own zero-weight loop
    for _ in range(m):
        cand = d[:, None] + w
        via = cand.argmin(axis=0)
        best = cand[via, np.arange(m)]
        lower = best < d - CYCLE_TOL
        if not lower.any():
            return None, d
        d[lower] = best[lower]
        pred[lower] = via[lower]
    k = np.flatnonzero(lower)[0]
    for _ in range(m):  # m steps back along pred end on a cycle
        k = pred[k]
    cycle = [k]
    while pred[cycle[-1]] != k:
        cycle.append(pred[cycle[-1]])
    cycle = cycle[::-1]
    if math.fsum(w[cycle, np.roll(cycle, -1)]) >= -CYCLE_TOL:
        return None, None
    return cycle, None


def _sink_cycle_transport(cost, a_w, b_w):
    """Optimal transport cost for few sinks, or None.

    A north-west corner plan under the balanced sink potentials is improved
    by negative cycles on the m sinks: edge j -> k costs the cheapest move
    of mass from sink j to sink k within one source's row, min over the
    sources i with x_ij > 0 of c_ik - c_ij, and a push moves the least mass
    on the cycle.  Once no cycle is negative, the Bellman-Ford distances d
    leave every used cell at zero reduced cost, so the dual bound at d
    equals the plan's cost; the plan's cost is returned when they agree to
    CERT_RTOL.  None when they do not, when a sink gets no cell of the
    starting plan, or after MAX_PUSHES pushes.
    """
    m = cost.shape[1]
    if m == 1:
        return math.fsum(a_w * cost[:, 0])
    x = _northwest_plan(cost - _balanced_duals(cost, a_w, b_w), a_w, b_w)
    if not x.any(axis=0).all():  # the masses differ by more than a sink's
        return None
    w = np.empty((m, m))
    via = np.empty((m, m), dtype=int)  # the source of each edge
    stale = range(m)
    for pushes in range(MAX_PUSHES + 1):
        for j in stale:
            rows = np.flatnonzero(x[:, j])
            step = cost[rows] - cost[rows, j, None]
            best = step.argmin(axis=0)
            w[j], via[j] = step[best, np.arange(m)], rows[best]
        cycle, d = _negative_cycle(w)
        if cycle is None or pushes == MAX_PUSHES:
            break
        nxt = np.roll(cycle, -1)
        src = via[cycle, nxt]
        push = x[src, cycle].min()
        x[src, cycle] -= push
        x[src, nxt] += push
        stale = cycle
    if d is None:
        return None
    used = x > 0.0
    primal = math.fsum(x[used] * cost[used])
    if primal - _dual_bound(cost, a_w, b_w, d) <= CERT_RTOL * max(1.0, abs(primal)):
        return primal
    return None


def obstruction_report(gamma, eps, mu0):
    """Classifier masses, mixed/vertical ratio and transport gap to mu0 of
    the Gaussian image gamma of a current whose boundary the caller has
    checked.  The transport distance compares gamma with mu0, both
    normalised to probability measures.
    """
    masses = gamma.mass_by_class(eps, strict=True)
    m_v, m_m = masses["vertical"], masses["mixed"]
    return {
        "mH": masses["horizontal"],
        "mV": m_v,
        "mM": m_m,
        "ratio": math.inf if m_v == 0.0 else m_m / m_v,
        "w1_dist_mu0": transport_distance(gamma.normalized(), mu0.normalized()),
    }
