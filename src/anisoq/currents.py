"""Discretised rectifiable 2-currents in R^4 and piecewise-affine Q-graphs.

A FunctionalQGraph is a Q-valued map on a uniform square mesh, affine on
each half-cell triangle (every cell is split along the same SW-NE diagonal).
Sheets are affine on triangles rather than on full cells because a
continuous map that is affine on every full square cell is necessarily of
the separable form phi(x) + chi(y), which admits no nontrivial zero-boundary
instances; the triangle space is the usual P1 space and supports the random
zero-boundary families used throughout the test harness.

The graph is stored as its nodal values: sheet multiplicities (J,) and
values (J, n+1, n+1, 2) at the mesh nodes, so every sheet is continuous by
construction.  Its per-triangle gradients (T, J, 2, 2), T = 2 n^2 triangles
numbered 2 (i n + j) + t (t = 0 lower, t = 1 upper half of cell (i, j)),
are derived from them by p1_gradients, the one P1 gradient kernel;
triangle_nodes gives the node indices of the triangles.

A TriangulatedCurrent is an (N, 3, 4) array of oriented 2-simplices in R^4
with N integer multiplicities; mass, boundary chain, Gaussian image,
classification partition, linear pushforward and distance-sphere slicing
are exact for affine data.  Each is one array kernel over all N triangles:
slice_mass intersects every sphere circle with every edge line at once
((N, 6) critical angles), mass_in_ball screens whole triangles in or out
of the ball before counting sub-triangle centroids, boundary and the
expected loop chain of boundary_equals_loop share one vertex-key kernel
(_vertex_keys) and one edge-chain kernel (_edge_chain), and to_json_obj
merges vertices with _merge_keys, which holds at any finite scale.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import exterior
from .construction import build
from .gmeasures import GrassmannMeasure
from .multipoint import g_metric

MIN_TRIANGLE_AREA = 1e-14
ZERO_BOUNDARY_TOL = 1e-9
VERTEX_KEY_DECIMALS = 9
# distance margin of mass_in_ball's screen, relative to the coordinate scale
# of a triangle, the centre and rho; the centroid distances round by about
# 1e-15 of that scale, however small rho is
BALL_SCREEN_MARGIN = 1e-10
# rows per array pass: they bound the temporaries of slice_mass and
# mass_in_ball to about 2 MiB, whatever the number of triangles
SLICE_CHUNK_TRIANGLES = 1 << 10
BALL_CHUNK_POINTS = 1 << 12
# random_lipschitz_graph: product-sine modes per sheet.  The obstruction
# CSVs and the chain and Stokes suites draw their graphs at this count.
N_MODES = 3
# plateau graphs: the plateau's side and the ramp's width as fractions of
# the mesh side.  The plateau holds about 12 % of the domain, and the ramp
# ring ends 0.125 of the side inside the boundary, so the boundary stays zero.
PLATEAU_FRAC = 0.35
RAMP_FRAC = 0.2
# chain_report: a triangle counts as an exact w_i atom when its unit tangent
# lies within ATOM_TOL of the unit w_i, far above the rounding of the
# squeeze pushforward, so every plateau triangle of ray_plateau_graph counts
ATOM_TOL = 1e-8


@dataclass(frozen=True)
class Mesh:
    """Uniform n x n square mesh over the axis cube D(x0, r)."""

    x0: tuple
    r: float
    n: int

    @property
    def h(self):
        return self.r / self.n

    @property
    def origin(self):
        return np.array(self.x0, dtype=float) - 0.5 * self.r

    def node(self, i, j):
        """Node (i, j); i and j may be index arrays of one shape."""
        return self.origin + self.h * np.stack([i, j], axis=-1).astype(float)

    def nodes_array(self):
        idx = np.arange(self.n + 1)
        gx, gy = np.meshgrid(idx, idx, indexing="ij")
        return self.origin[None, None, :] + self.h * np.stack([gx, gy], axis=-1)

    def locate(self, x):
        """Cell indices (i, j) containing x (..., 2), clamped to the mesh."""
        rel = (np.asarray(x, dtype=float) - self.origin) / self.h
        ij = np.clip(np.floor(rel), 0, self.n - 1).astype(np.int64)
        return ij[..., 0], ij[..., 1]

    def boundary_nodes(self):
        """Boundary nodes in counterclockwise order starting at the SW corner."""
        n = self.n
        out = []
        for i in range(n):
            out.append((i, 0))
        for j in range(n):
            out.append((n, j))
        for i in range(n, 0, -1):
            out.append((i, n))
        for j in range(n, 0, -1):
            out.append((0, j))
        return [self.node(i, j) for (i, j) in out]


# triangle-local node offsets: lower (t=0) and upper (t=1) of each cell,
# both counterclockwise in the base plane
TRI_NODES = (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))


def triangle_nodes(n):
    """Node indices (i, j) of the 2 n^2 triangles of an n x n mesh, shape (2 n^2, 3, 2).

    Triangle 2 (i n + j) + t is the lower (t = 0) or upper (t = 1) half of
    cell (i, j); its nodes are listed as in TRI_NODES.
    """
    idx = np.arange(n)
    cells = np.stack(np.meshgrid(idx, idx, indexing="ij"), axis=-1)
    return (cells.reshape(-1, 1, 1, 2) + np.array(TRI_NODES)).reshape(-1, 3, 2)


def p1_gradients(vals, h, tris):
    """Gradients of the P1 interpolants of nodal values on mesh triangles.

    vals: (..., n+1, n+1, 2) nodal values on a mesh of spacing h; tris:
    (K, 3, 2) node indices, rows of triangle_nodes.  Returns (..., K, 2, 2):
    per triangle the X with X (p_m - p_0) = f_m - f_0 for m = 1, 2.
    """
    f = vals[..., tris[..., 0], tris[..., 1], :]
    F = np.stack([f[..., 1, :] - f[..., 0, :], f[..., 2, :] - f[..., 0, :]], axis=-1)
    E = h * np.swapaxes(tris[:, 1:] - tris[:, :1], 1, 2)
    return F @ np.linalg.inv(E)


class FunctionalQGraph:
    """Continuous piecewise-affine Q-valued map on a mesh, given by its nodal values.

    mults (J,) holds the sheet multiplicities, so q = mults.sum(), and vals
    (J, n+1, n+1, 2) each sheet's values at the nodes (i, j).  Each sheet is
    the P1 interpolant of its nodal values, so it is continuous by
    construction.  X (T, J, 2, 2) holds each sheet's gradient on each
    triangle, T = 2 n^2, triangle id 2 (i n + j) + t as in triangle_nodes,
    derived from vals once, on construction.
    """

    def __init__(self, mesh, mults, vals):
        self.mesh = mesh
        self.mults = np.asarray(mults, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=float)
        if self.vals.shape != (self.mults.shape[0], mesh.n + 1, mesh.n + 1, 2):
            raise ValueError("nodal values do not match the mesh and the multiplicities")
        self.q = int(self.mults.sum())
        self.X = p1_gradients(self.vals, mesh.h, triangle_nodes(mesh.n)).swapaxes(0, 1)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def affine(cls, mesh, parts):
        """Graph of the affine map  sum_j q_j [a_j + X_j (x - x0)]."""
        mults = [int(m) for m, _a, _X in parts]
        a = np.array([np.asarray(a, float) for _m, a, _X in parts])
        X = np.array([np.asarray(X, float) for _m, _a, X in parts])
        d = mesh.nodes_array() - np.array(mesh.x0, dtype=float)
        vals = a[:, None, None] + (X[:, None, None] @ d[..., None])[..., 0]
        return cls.from_nodal_sheets(mesh, list(zip(mults, vals)))

    @classmethod
    def from_nodal_sheets(cls, mesh, nodal_list):
        """Build from per-sheet nodal values; each sheet is P1 on the triangles.

        nodal_list: list of (multiplicity, values) with values of shape
        (n+1, n+1, 2) indexed by node (i, j).
        """
        return cls(mesh, [int(m) for m, _v in nodal_list], [v for _m, v in nodal_list])

    # -- evaluation ------------------------------------------------------------

    def values_at(self, x):
        """Q-point values (..., Q, 2) at points x (..., 2), located as in locate."""
        x = np.asarray(x, float)
        i, j = self.mesh.locate(x)
        # node (i, j) is node 0 of both triangles of cell (i, j)
        d = x - self.mesh.node(i, j)
        k = 2 * (i * self.mesh.n + j) + ~(d[..., 1] <= d[..., 0])
        v = np.moveaxis(self.vals[:, i, j], 0, -2) + (self.X[k] @ d[..., None, :, None])[..., 0]
        return np.repeat(v, self.mults, axis=-2)

    def is_zero_boundary(self):
        vals = self.values_at(np.array(self.mesh.boundary_nodes()))
        return not np.any(g_metric(vals, np.zeros((self.q, 2))) > ZERO_BOUNDARY_TOL)


@dataclass
class PartitionMasses:
    """Masses of the horizontal / vertical / mixed parts of a current."""

    mH: float
    mV: float
    mM: float
    eps: float

    def total(self):
        return self.mH + self.mV + self.mM


class TriangulatedCurrent:
    """Oriented 2-simplices in R^4 with positive integer multiplicities."""

    def __init__(self, verts, mults, validate=True):
        self.verts = np.asarray(verts, dtype=float).reshape(-1, 3, 4)
        self.mults = np.asarray(mults, dtype=np.int64).reshape(-1)
        if self.verts.shape[0] != self.mults.shape[0]:
            raise ValueError("vertex and multiplicity counts differ")
        if validate:
            if not np.all(np.isfinite(self.verts)):
                raise ValueError("vertex coordinates must be finite")
            if np.any(self.mults < 1):
                raise ValueError("multiplicities must be positive integers")
            if np.any(self.areas() <= MIN_TRIANGLE_AREA):
                raise ValueError("degenerate triangle (area below 1e-14)")

    # -- per-triangle geometry ---------------------------------------------------

    def edge_vectors(self):
        return self.verts[:, 1] - self.verts[:, 0], self.verts[:, 2] - self.verts[:, 0]

    def tangent_wedges(self):
        return exterior.wedge(*self.edge_vectors())

    def areas(self):
        return 0.5 * np.linalg.norm(self.tangent_wedges(), axis=1)

    def unit_tangents(self):
        w = self.tangent_wedges()
        return w / np.linalg.norm(w, axis=1, keepdims=True)

    def mass(self):
        return float(np.sum(self.mults * self.areas()))

    @property
    def n_triangles(self):
        return self.verts.shape[0]

    # -- operations ---------------------------------------------------------------

    def concatenated(self, other):
        return TriangulatedCurrent(
            np.concatenate([self.verts, other.verts]),
            np.concatenate([self.mults, other.mults]),
            validate=False,
        )

    def restrict(self, mask):
        return TriangulatedCurrent(self.verts[mask], self.mults[mask], validate=False)

    def boundary(self):
        """Signed edge chain after cancellation: {(key_a, key_b): count}."""
        keys = _vertex_keys(self.verts)
        return _edge_chain(keys, np.roll(keys, -1, axis=1), np.repeat(self.mults, 3))

    def boundary_equals_loop(self, loop_points, multiplicity, height=(0.0, 0.0)):
        """Check the boundary chain equals `multiplicity` times the closed loop.

        loop_points: (N, 2) planar vertices in traversal order (closed
        implicitly); the loop is lifted to R^4 at the given height.
        """
        pts = np.asarray(loop_points, dtype=float)
        lift = np.concatenate(
            [pts, np.tile(np.asarray(height, float), (pts.shape[0], 1))], axis=1
        )
        keys = _vertex_keys(lift)
        expected = _edge_chain(keys, np.roll(keys, -1, axis=0),
                               np.full(pts.shape[0], int(multiplicity)))
        return self.boundary() == expected

    def gaussian_image(self):
        return GrassmannMeasure(
            self.unit_tangents(), self.mults * self.areas(), validate=False
        )

    def classify_triangles(self, eps, strict=False):
        u1, u2 = self.edge_vectors()
        return exterior.classify_batch(u1, u2, eps, strict=strict)

    def partition(self, eps, strict=False):
        """Per-triangle horizontal/vertical/mixed split; masses and sub-currents."""
        if not (0.0 < eps < 1.0):
            raise ValueError("eps must be in (0, 1)")
        labels = self.classify_triangles(eps, strict=strict)
        w = self.mults * self.areas()
        parts = {}
        masses = {}
        for lab in (exterior.HORIZONTAL, exterior.VERTICAL, exterior.MIXED):
            mask = labels == lab
            masses[lab] = float(w[mask].sum())
            parts[lab] = self.restrict(mask)
        pm = PartitionMasses(
            mH=masses[exterior.HORIZONTAL],
            mV=masses[exterior.VERTICAL],
            mM=masses[exterior.MIXED],
            eps=eps,
        )
        return pm, parts

    def pushforward(self, L):
        L = np.asarray(L, dtype=float)
        if abs(np.linalg.det(L)) < 1e-300:
            raise ValueError("pushforward map is singular")
        return TriangulatedCurrent(
            np.einsum("ab,tvb->tva", L, self.verts), self.mults, validate=False
        )

    def projected_mass_h(self):
        """Mass of the h-plane pushforward, no cancellation (positive tangents)."""
        u1, u2 = self.edge_vectors()
        det = u1[:, 0] * u2[:, 1] - u1[:, 1] * u2[:, 0]
        return float(np.sum(self.mults * 0.5 * np.abs(det)))

    # -- slicing -------------------------------------------------------------------

    def slice_mass(self, p, rho):
        """Weighted length of the intersection with the sphere of radius rho at p.

        Per triangle the sphere meets the triangle plane in a circle (or not
        at all); the part of that circle inside the triangle is a union of
        arcs computed exactly from the critical angles at the edge lines.
        """
        if not (0.0 < rho < math.inf):
            raise ValueError("rho must be positive and finite")
        p = np.asarray(p, dtype=float)
        arcs = np.zeros(self.n_triangles)
        for lo in range(0, self.n_triangles, SLICE_CHUNK_TRIANGLES):
            arcs[lo:lo + SLICE_CHUNK_TRIANGLES] = _sphere_arcs(
                self.verts[lo:lo + SLICE_CHUNK_TRIANGLES], p, rho)
        return float(np.sum(self.mults * arcs))

    def mass_in_ball(self, p, rho, subdiv=16):
        """Quadrature estimate of the mass inside the closed ball B_rho(p).

        Midpoint rule on subdiv^2 congruent sub-triangles per triangle.
        Triangles wholly inside or outside the ball, by BALL_SCREEN_MARGIN
        of their coordinate scale, count all or none of their centroids;
        only the others evaluate them.
        """
        if not (0.0 < rho < math.inf):
            raise ValueError("rho must be positive and finite")
        if subdiv < 1:
            raise ValueError("subdiv must be at least 1")
        p = np.asarray(p, dtype=float)
        cents, frac = _subtriangle_centroids(subdiv)
        rel = self.verts - p
        far = np.sqrt(_rowdot(rel, rel).max(axis=1))
        # bounding sphere: the vertex mean and the largest distance from it
        centre = self.verts.mean(axis=1)
        spread = self.verts - centre[:, None, :]
        off = centre - p
        gap = np.sqrt(_rowdot(off, off)) - np.sqrt(_rowdot(spread, spread).max(axis=1))
        pad = BALL_SCREEN_MARGIN * (np.abs(self.verts).max(axis=(1, 2)) + np.abs(p).max() + rho)
        whole = far < rho - pad
        none = gap > rho + pad
        counts = np.where(whole, cents.shape[0], 0)
        near = np.flatnonzero(~whole & ~none)
        chunk = max(1, BALL_CHUNK_POINTS // cents.shape[0])
        for lo in range(0, near.shape[0], chunk):
            tri = self.verts[near[lo:lo + chunk]]
            pts = (
                tri[:, None, 0]
                + cents[None, :, 0:1] * (tri[:, 1] - tri[:, 0])[:, None]
                + cents[None, :, 1:2] * (tri[:, 2] - tri[:, 0])[:, None]
            )
            counts[near[lo:lo + chunk]] = np.count_nonzero(
                np.sum((pts - p) ** 2, axis=2) <= rho * rho, axis=1
            )
        return float(np.sum(self.mults * self.areas() * frac * counts))

    # -- serialization ----------------------------------------------------------------

    def to_json_obj(self):
        """Shared vertices in first-seen order (merged by _merge_keys) and
        triangles as [i, j, k, multiplicity]."""
        flat = self.verts.reshape(-1, 4)
        _, first, inv = np.unique(_merge_keys(flat), axis=0, return_index=True,
                                  return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.shape[0])
        ids = rank[inv.reshape(-1)].reshape(-1, 3)
        triangles = np.concatenate([ids, self.mults[:, None]], axis=1)
        return {"vertices": flat[first[order]].tolist(), "triangles": triangles.tolist()}

    @classmethod
    def from_json_obj(cls, obj):
        vertices = np.array(obj["vertices"], dtype=float)
        tris = obj["triangles"]
        verts = np.array([[vertices[a], vertices[b], vertices[c]] for (a, b, c, _m) in tris])
        mults = np.array([m for (_a, _b, _c, m) in tris], dtype=np.int64)
        return cls(verts, mults)

    def to_json(self):
        return json.dumps(self.to_json_obj(), sort_keys=True)


def _subtriangle_centroids(k):
    """Barycentric (alpha, beta) centroids of the k^2 standard sub-triangles."""
    cents = []
    for i in range(k):
        for j in range(k - i):
            cents.append(((i + 1.0 / 3.0) / k, (j + 1.0 / 3.0) / k))
            if i + j <= k - 2:
                cents.append(((i + 2.0 / 3.0) / k, (j + 2.0 / 3.0) / k))
    return np.array(cents), 1.0 / (k * k)


def _sphere_arcs(verts, p, rho):
    """Length of the sphere S_rho(p) inside each triangle of verts (n, 3, 4).

    The sphere meets each triangle plane in a circle of radius rr, or not at
    all; up to six critical angles where it crosses the three edge lines
    split it into arcs, and an arc counts when its midpoint is inside the
    triangle (_in_triangle).
    """
    arcs = np.zeros(verts.shape[0])
    # orthonormal frame (e1, e2) of each triangle plane at vertex 0
    v0 = verts[:, 0]
    u1, u2 = verts[:, 1] - v0, verts[:, 2] - v0
    n1 = np.sqrt(_rowdot(u1, u1))
    e1 = u1 / n1[:, None]
    t2x = _rowdot(u2, e1)
    w = u2 - t2x[:, None] * e1
    e2 = w / np.sqrt(_rowdot(w, w))[:, None]
    q = p - v0
    a, b = _rowdot(q, e1), _rowdot(q, e2)
    rr2 = rho * rho - (_rowdot(q, q) - a * a - b * b)
    hit = np.flatnonzero(rr2 > 0.0)
    rr = np.sqrt(rr2[hit])
    # the plane picture: circle centre C and radius rr, triangle T (K, 3, 2)
    C = np.stack([a[hit], b[hit]], axis=-1)
    T = np.zeros((hit.shape[0], 3, 2))
    T[:, 1, 0] = n1[hit]
    T[:, 2, 0], T[:, 2, 1] = t2x[hit], _rowdot(u2[hit], e2[hit])
    # critical angles where the circle crosses the edge lines T[s] T[s+1]
    d = np.roll(T, -1, axis=1) - T
    f = T - C[:, None, :]
    dd, df, ff = _rowdot(d, d), _rowdot(d, f), _rowdot(f, f)
    disc = df**2 - dd * (ff - (rr * rr)[:, None])
    cut = (disc > 0.0) & (dd != 0.0)
    root = np.sqrt(np.where(cut, disc, np.nan))
    t = (-df[..., None] + np.array([-1.0, 1.0]) * root[..., None]) / dd[..., None]
    pt = T[:, :, None, :] + t[..., None] * d[:, :, None, :] - C[:, None, None, :]
    crit = np.sort(np.arctan2(pt[..., 1], pt[..., 0]).reshape(-1, 6) % (2.0 * math.pi),
                   axis=1)
    # arcs between consecutive critical angles, the last one wrapping round
    n_crit = np.count_nonzero(~np.isnan(crit), axis=1)
    k = np.arange(6)
    last = k + 1 == n_crit[:, None]
    th1 = np.where(last, crit[:, :1] + 2.0 * math.pi, np.roll(crit, -1, axis=1))
    span = th1 - crit
    arc = (k < n_crit[:, None]) & (span > 0.0)
    mid = crit + 0.5 * span
    inside = _in_triangle(T, C[:, None, :] + rr[:, None, None]
                          * np.stack([np.cos(mid), np.sin(mid)], axis=-1))
    on_arcs = np.where(arc & inside, span * rr[:, None], 0.0).sum(axis=1)
    # a circle that crosses no edge line lies wholly inside or outside
    east = C + np.stack([rr, np.zeros_like(rr)], axis=-1)
    whole = (n_crit == 0) & _in_triangle(T, east[:, None, :])[:, 0]
    arcs[hit] = np.where(whole, 2.0 * math.pi * rr, on_arcs)
    return arcs


def _rowdot(u, v):
    """Dot products of u and v along the last axis, rounded as u @ v rounds one pair."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _in_triangle(T, pts):
    """Points pts (K, M, 2) inside the plane triangles T (K, 3, 2).

    Each edge sign test allows 1e-12 of the edge length times the point's
    distance from the edge's start, the largest the cross product can be,
    so the test reads the same at every scale of the picture.
    """
    d = np.roll(T, -1, axis=1) - T
    rel = pts[:, None] - T[:, :, None]
    side = d[:, :, None, 0] * rel[..., 1] - d[:, :, None, 1] * rel[..., 0]
    reach = np.sqrt(_rowdot(d, d))[:, :, None] * np.sqrt(_rowdot(rel, rel))
    return np.all(side >= -1e-12 * reach, axis=1)


def _vertex_keys(points):
    """Integer keys (..., 4) of points: coordinates rounded to VERTEX_KEY_DECIMALS.

    np.rint rounds half to even, as Python's round does.
    """
    points = np.asarray(points, dtype=float)
    scaled = points * 10.0**VERTEX_KEY_DECIMALS
    if not np.all(np.abs(scaled) < 2.0**63):
        raise ValueError("vertex coordinates must be finite and below 9.2e9 in size; "
                         f"the largest |coordinate| is {np.max(np.abs(points)):.6g}")
    return np.rint(scaled).astype(np.int64)


def _merge_keys(points):
    """Keys (N, 8) under which points equal to VERTEX_KEY_DECIMALS decimals
    coincide, at any finite scale.

    A coordinate within the range of _vertex_keys keys by the same rounded
    integer (held as a float, which keeps the classes); a larger one, where
    the float spacing exceeds the key resolution, keys by its own value.  The
    last four columns flag the large ones, so the two ranges never meet.
    """
    scaled = points * 10.0**VERTEX_KEY_DECIMALS
    large = ~(np.abs(scaled) < 2.0**63)
    return np.concatenate([np.where(large, points, np.rint(scaled)), large], axis=1)


def _edge_chain(start, end, weights):
    """Signed edge chain {(key_a, key_b): count} of weighted edges start -> end.

    start, end: (..., 4) vertex keys; weights: (...,) integers.  Each edge
    is stored with its lexicographically smaller key first, its weight
    negated when that reverses it; edges whose counts cancel are dropped.
    """
    start, end = start.reshape(-1, 4), end.reshape(-1, 4)
    # compare the keys at their first differing coordinate (any, if equal)
    i = np.argmax(start != end, axis=1)[:, None]
    fwd = np.take_along_axis(start, i, 1)[:, 0] <= np.take_along_axis(end, i, 1)[:, 0]
    edges = np.where(fwd[:, None], np.concatenate([start, end], axis=1),
                     np.concatenate([end, start], axis=1))
    signed = np.where(fwd, 1, -1) * np.asarray(weights, dtype=np.int64).reshape(-1)
    uniq, inv = np.unique(edges, axis=0, return_inverse=True)
    counts = np.zeros(uniq.shape[0], dtype=np.int64)
    np.add.at(counts, inv.reshape(-1), signed)
    keep = np.flatnonzero(counts)
    return {(tuple(e[:4]), tuple(e[4:])): c
            for e, c in zip(uniq[keep].tolist(), counts[keep].tolist())}


def triangulate(g):
    """Integral current carried by the graph of a FunctionalQGraph.

    Each half-cell triangle contributes one oriented 2-simplex per sheet,
    with the sheet multiplicity, whose vertices are the nodal values; for
    affine sheets the triangle mass equals the area-formula value
    ||LambdaM(X)|| * base area exactly.
    """
    tris = triangle_nodes(g.mesh.n)
    base = g.mesh.nodes_array()[tris[..., 0], tris[..., 1]]
    lift = g.vals[:, tris[..., 0], tris[..., 1]].swapaxes(0, 1)
    n_tri, n_sheets = lift.shape[:2]
    verts = np.concatenate(
        [np.broadcast_to(base[:, None], (n_tri, n_sheets, 3, 2)), lift], axis=-1
    )
    return TriangulatedCurrent(verts.reshape(-1, 3, 4), np.tile(g.mults, n_tri))


def graph_boundary_is_q_square(g):
    """Check the graph current boundary equals Q times the mesh boundary square."""
    T = triangulate(g)
    loop = np.array(g.mesh.boundary_nodes())
    return T.boundary_equals_loop(loop, g.q, height=(0.0, 0.0))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def affine_graph(mesh, parts):
    """Graph of sum_j q_j [a_j + X_j (x - x0)] over the mesh."""
    return FunctionalQGraph.affine(mesh, parts)


def random_lipschitz_graph(seed, lip, q, mesh):
    """Reproducible random zero-boundary Q-graph with Lipschitz constant <= lip.

    Each sheet is a superposition of low-frequency product-sine modes
    (vanishing on the boundary) P1-interpolated on the mesh and rescaled so
    the largest per-triangle gradient norm stays below 0.9 * lip.
    """
    rng = np.random.default_rng(seed)
    n = mesh.n
    nodes = mesh.nodes_array()
    xi = (nodes[..., 0] - mesh.origin[0]) / mesh.r
    eta = (nodes[..., 1] - mesh.origin[1]) / mesh.r
    nodal = []
    for _ in range(q):
        vals = np.zeros((n + 1, n + 1, 2))
        for _m in range(N_MODES):
            kx, ky = rng.integers(1, 4, size=2)
            coef = rng.normal(size=2)
            mode = np.sin(math.pi * kx * xi) * np.sin(math.pi * ky * eta)
            vals += mode[..., None] * coef[None, None, :]
        grad_bound = _max_nodal_gradient(vals, mesh.h)
        if grad_bound > 0:
            vals *= 0.9 * lip / max(grad_bound, 0.9 * lip)
        nodal.append((1, vals))
    return FunctionalQGraph.from_nodal_sheets(mesh, nodal)


def steep_plateau_graph(t_slope, q, mesh):
    """Zero-boundary graph with an interior plateau of gradient t * [[0,1],[1,0]].

    On the plateau the tangent plane is eps-vertical once
    t^2 >= 1 / ((1+eps)^2 - 1); the ramp ring contributes mixed and
    horizontal mass.  All Q sheets coincide.
    """
    return ray_plateau_graph(t_slope * np.array([[0.0, 1.0], [1.0, 0.0]]), q, mesh)


def _max_nodal_gradient(vals, h):
    gx = (vals[1:, :, :] - vals[:-1, :, :]) / h
    gy = (vals[:, 1:, :] - vals[:, :-1, :]) / h
    m = 0.0
    if gx.size:
        m = max(m, float(np.sqrt(np.sum(gx**2, axis=-1)).max()))
    if gy.size:
        m = max(m, float(np.sqrt(np.sum(gy**2, axis=-1)).max()))
    return m * math.sqrt(2.0)


def branched_graph(q, amplitude, cutoff, n_r=24, n_theta=32, p=None):
    """q-valued branched graph over the unit disk as a triangulated current.

    The map sends z to the q points amplitude * prof(|z|) * w^p over the
    roots w^q = z, with prof(r) = min(1 - r, cutoff); it vanishes on the
    boundary circle, so the boundary chain is q times the unit circle at
    height zero.  Triangulated in polar coordinates on the q-fold cover.
    """
    if p is None:
        p = q + 1
    if p < q:
        raise ValueError("exponent p must be >= q for a Lipschitz profile")
    m_phi = q * n_theta
    # scalar Python arithmetic per radius and per angle: np.power and the
    # array cos/sin need not round as float.__pow__ and math do
    radii = np.linspace(0.0, 1.0, n_r + 1)
    rad = np.array([r ** (p / q) * (amplitude * min(1.0 - r, cutoff)) for r in radii])
    phi = [2.0 * math.pi * q * k / m_phi for k in range(m_phi)]
    base = np.array([[math.cos(f), math.sin(f)] for f in phi])
    lift = np.array([[math.cos(p * f / q), math.sin(p * f / q)] for f in phi])
    V = np.concatenate([radii[:, None, None] * base, rad[:, None, None] * lift], axis=-1)
    # quad (ir, k) has corners v00 = V[ir, k], v10 = V[ir+1, k],
    # v11 = V[ir+1, k+1] and v01 = V[ir, k+1], angles taken mod m_phi
    k1 = np.roll(np.arange(m_phi), -1)
    v00, v10, v11, v01 = V[:-1], V[1:], V[1:, k1], V[:-1, k1]
    lower = np.stack([v00, v10, v11], axis=2)
    upper = np.stack([v00, v11, v01], axis=2)
    # one fan triangle per angle at the centre, then two per quad
    quads = np.stack([lower[1:], upper[1:]], axis=2).reshape(-1, 3, 4)
    verts = np.concatenate([lower[0], quads])
    return TriangulatedCurrent(verts, np.ones(verts.shape[0], dtype=np.int64))


def flat_disk_current(n_r=24, n_theta=64):
    """Unit flat disk at height zero (multiplicity one)."""
    return branched_graph(1, 0.0, 1.0, n_r=n_r, n_theta=n_theta, p=2)


def disk_boundary_loop(n_theta):
    """Vertices of the discretised unit circle matching branched_graph's seam."""
    ang = 2.0 * math.pi * np.arange(n_theta) / n_theta
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def polygon_disk_area(n_theta):
    """Area of the inscribed n_theta-gon: the base area of the disk currents."""
    return 0.5 * n_theta * math.sin(2.0 * math.pi / n_theta)


def ray_plateau_graph(X, q, mesh):
    """Zero-boundary graph whose plateau has the prescribed gradient X.

    With X one of the three lift matrices, the squeeze pushforward of the
    plateau triangles lands exactly on the corresponding special plane.
    """
    X = np.asarray(X, dtype=float)
    nodes = mesh.nodes_array()
    c = np.array(mesh.x0, dtype=float)
    s_in = PLATEAU_FRAC * mesh.r / 2.0
    s_out = s_in + RAMP_FRAC * mesh.r
    dist = np.maximum(np.abs(nodes[..., 0] - c[0]), np.abs(nodes[..., 1] - c[1]))
    ramp = np.clip((s_out - dist) / (s_out - s_in), 0.0, 1.0)
    rel = nodes - c[None, None, :]
    vals = ramp[..., None] * np.einsum("ab,ijb->ija", X, rel)
    return FunctionalQGraph.from_nodal_sheets(mesh, [(1, vals)] * q)


# ---------------------------------------------------------------------------
# chain inequality report
# ---------------------------------------------------------------------------


def chain_report(T, q, eps, domain_area=1.0):
    """Flux-balance and mass inequalities for a zero-boundary graph current.

    The current is pushed forward by the squeeze diag(1, 1, eps, eps), whose
    action takes the three special v-planes onto the w-planes.  Exact-atom
    masses m_i collect triangles whose unit tangent coincides with the unit
    w_i (within ATOM_TOL); the non-special mass is the complement.  The
    reported inequality uses the vertical class mass (an upper bound for the
    exact w3 atom mass, which is also reported) in the vertical term:

        (2||w1||/||w3||) m_V  - (m1 + m2)  + (4||w1||/eps^2) m_NS  >= 0

    together with  q * |D| <= total mass (projection without cancellation).
    """
    b = build(eps)
    R = np.diag([1.0, 1.0, eps, eps])
    G = T.pushforward(R)
    what = b.unit_planes_w()
    ut = G.unit_tangents()
    wts = G.mults * G.areas()
    atom_mass = []
    atom_mask = np.zeros(G.n_triangles, dtype=bool)
    for i in range(3):
        mask = np.linalg.norm(ut - what[i][None, :], axis=1) <= ATOM_TOL
        atom_mass.append(float(wts[mask].sum()))
        atom_mask |= mask
    total = float(wts.sum())
    m_ns = float(wts[~atom_mask].sum())
    pm, _ = G.partition(eps)
    w1n = float(np.linalg.norm(b.w[0]))
    w3n = float(np.linalg.norm(b.w[2]))
    est0_class_vertical = (
        (2.0 * w1n / w3n) * pm.mV - (atom_mass[0] + atom_mass[1]) + (4.0 * w1n / eps**2) * m_ns
    )
    est0_exact = (
        (2.0 * w1n / w3n) * atom_mass[2]
        - (atom_mass[0] + atom_mass[1])
        + (4.0 * w1n / eps**2) * m_ns
    )
    return {
        "eps": eps,
        "q": q,
        "domain_area": domain_area,
        "total_mass_after_squeeze": total,
        "atom_masses": atom_mass,
        "non_special_mass": m_ns,
        "class_masses": {"H": pm.mH, "V": pm.mV, "M": pm.mM},
        "est0_value": est0_class_vertical,
        "est0_exact_atoms": est0_exact,
        "est1_slack": total - q * domain_area,
    }
