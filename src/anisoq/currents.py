"""Discretised rectifiable 2-currents in R^4 and piecewise-affine Q-graphs.

A FunctionalQGraph is a Q-valued map on a uniform square mesh, affine on
each half-cell triangle (every cell is split along the same SW-NE diagonal).
Sheets are affine on triangles rather than on full cells because a
continuous map that is affine on every full square cell is necessarily of
the separable form phi(x) + chi(y), which admits no nontrivial zero-boundary
instances; the triangle space is the usual P1 space and supports the random
zero-boundary families used throughout the test harness.

The graph is its nodal values: sheet multiplicities (J,) and values
(J, n+1, n+1, 2) at the mesh nodes, so every sheet is continuous by
construction.  Its T = 2 n^2 triangles are numbered 2 (i n + j) + t (t = 0
lower, t = 1 upper half of cell (i, j)); triangle_nodes gives their node
indices, and triangulate lifts the nodal values to them.  What depends on
the mesh alone, the triangle nodes, the base triangles and the boundary
nodes, is its MeshFrame, computed once per mesh value and shared by every
graph on an equal mesh.  A P1 sheet equals its nodal value at a node, so
the zero-boundary check reads the boundary nodal values.

A TriangulatedCurrent is an (N, 3, 4) array of oriented 2-simplices in R^4
with N integer multiplicities; mass, boundary chain, Gaussian image,
classification partition, linear pushforward and distance-sphere slicing
are exact for affine data.  Each is one array kernel over all N triangles.
slice_mass and mass_in_ball share one ball screen (_ball_screen, on
bounding spheres each current computes once): a triangle wholly inside the
open ball or wholly outside the closed one carries no arc of the sphere
and counts all or none of its sub-triangle centroids, so slice_mass
intersects sphere circles with edge lines ((K, 6) critical angles) and
mass_in_ball counts centroids only on the K triangles the sphere may
cross.  boundary and the expected loop chain of boundary_equals_loop share
one edge-chain kernel (_edge_chain), and these and to_json_obj share one
vertex key (_vertex_keys), which holds at every finite scale, and one
numbering of the distinct keys in key order (_vertex_ids), so an edge is
one integer code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

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
# distinct meshes whose MeshFrame stays cached (Mesh.frame)
MESH_FRAMES = 8
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


class MeshFrame(NamedTuple):
    """The arrays of a mesh that every graph on it shares (Mesh.frame)."""

    tris: np.ndarray  # (T, 3, 2) node indices, triangle_nodes(n)
    base: np.ndarray  # (T, 3, 2) node coordinates of the triangles
    boundary: np.ndarray  # (4 n, 2) node indices in boundary_nodes order


@dataclass(frozen=True)
class Mesh:
    """Uniform n x n square mesh over the axis cube D(x0, r)."""

    x0: tuple
    r: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "x0", tuple(self.x0))  # hashable, so frames are shared

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

    def boundary_nodes(self):
        """Boundary nodes (4 n, 2) in counterclockwise order starting at the SW corner."""
        ij = self.frame.boundary
        return self.node(ij[:, 0], ij[:, 1])

    @property
    def frame(self):
        """The mesh's MeshFrame: equal meshes share one, computed on first use
        (up to MESH_FRAMES distinct meshes stay cached); its arrays are read-only."""
        return _mesh_frame(self)


@lru_cache(maxsize=MESH_FRAMES)
def _mesh_frame(mesh):
    tris = triangle_nodes(mesh.n)
    frame = MeshFrame(
        tris=tris,
        base=mesh.nodes_array()[tris[..., 0], tris[..., 1]],
        boundary=_boundary_node_indices(mesh.n),
    )
    for arr in frame:
        arr.flags.writeable = False
    return frame


def _boundary_node_indices(n):
    """Node indices (4 n, 2) of the mesh boundary, counterclockwise from (0, 0):
    the south side from west to east, then the east, north and west sides,
    each ending before the next corner."""
    k = np.arange(n)
    side = np.full(n, n)
    zero = np.zeros(n, dtype=k.dtype)
    i = np.concatenate([k, side, n - k, zero])
    j = np.concatenate([zero, k, side, n - k])
    return np.stack([i, j], axis=-1)


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


class FunctionalQGraph:
    """Continuous piecewise-affine Q-valued map on a mesh, given by its nodal values.

    mults (J,) holds the sheet multiplicities, so q = mults.sum(), and vals
    (J, n+1, n+1, 2) each sheet's values at the nodes (i, j).  Each sheet is
    the P1 interpolant of its nodal values, so it is continuous by
    construction.
    """

    def __init__(self, mesh, mults, vals):
        self.mesh = mesh
        self.mults = np.asarray(mults, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=float)
        if self.vals.shape != (self.mults.shape[0], mesh.n + 1, mesh.n + 1, 2):
            raise ValueError("nodal values do not match the mesh and the multiplicities")
        self.q = int(self.mults.sum())

    # -- construction helpers -------------------------------------------------

    @classmethod
    def affine(cls, mesh, mults, a, X):
        """Graph of the affine map  sum_j q_j [a_j + X_j (x - x0)]: mults (J,),
        a (J, 2), X (J, 2, 2)."""
        a, X = np.asarray(a, dtype=float), np.asarray(X, dtype=float)
        d = mesh.nodes_array() - np.array(mesh.x0, dtype=float)
        vals = a[:, None, None] + (X[:, None, None] @ d[..., None])[..., 0]
        return cls.from_nodal_sheets(mesh, mults, vals)

    @classmethod
    def from_nodal_sheets(cls, mesh, mults, vals):
        """Build from sheet multiplicities (J,) and nodal values (J, n+1, n+1, 2);
        each sheet is P1 on the triangles."""
        return cls(mesh, mults, vals)

    def is_zero_boundary(self):
        """Whether every boundary node's Q-point lies within ZERO_BOUNDARY_TOL
        of Q times 0: each P1 sheet equals its nodal value at a node."""
        ij = self.mesh.frame.boundary
        vals = np.repeat(np.moveaxis(self.vals[:, ij[:, 0], ij[:, 1]], 0, -2), self.mults,
                         axis=-2)
        return not np.any(g_metric(vals, np.zeros((self.q, 2))) > ZERO_BOUNDARY_TOL)


@dataclass
class PartitionMasses:
    """Masses of the horizontal / vertical / mixed parts of a current."""

    mH: float
    mV: float
    mM: float


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

    @cached_property
    def tangent_wedges(self):
        """Per-triangle wedges (n, 6) of the edge vectors, computed once."""
        return exterior.wedge(*self.edge_vectors())

    @cached_property
    def _bounds(self):
        """Per-triangle bounding spheres for _ball_screen, computed once: the
        vertex means (n, 4), the largest vertex distance from them (n,) and
        the largest absolute coordinate (n,)."""
        centre = self.verts.mean(axis=1)
        spread = self.verts - centre[:, None, :]
        return (centre, np.sqrt(_rowdot(spread, spread).max(axis=1)),
                np.abs(self.verts).max(axis=(1, 2)))

    def areas(self):
        return 0.5 * np.linalg.norm(self.tangent_wedges, axis=1)

    def unit_tangents(self):
        w = self.tangent_wedges
        return w / np.linalg.norm(w, axis=1, keepdims=True)

    def mass(self):
        return float(np.sum(self.mults * self.areas()))

    @property
    def n_triangles(self):
        return self.verts.shape[0]

    # -- operations ---------------------------------------------------------------

    def restrict(self, mask):
        return TriangulatedCurrent(self.verts[mask], self.mults[mask], validate=False)

    def boundary(self):
        """Signed edge chain after cancellation: {(key_a, key_b): count}."""
        return _edge_chain(_vertex_keys(self.verts), self.mults)

    def boundary_equals_loop(self, loop_points, multiplicity):
        """Check the boundary chain equals `multiplicity` times the closed loop.

        loop_points: (N, 2) planar vertices in traversal order (closed
        implicitly); the loop is lifted to R^4 at height zero.
        """
        pts = np.asarray(loop_points, dtype=float)
        keys = _vertex_keys(np.pad(pts, ((0, 0), (0, 2))))
        return self.boundary() == _edge_chain(keys[None], np.array([int(multiplicity)]))

    def gaussian_image(self):
        w = self.tangent_wedges
        nrm = np.linalg.norm(w, axis=1)
        return GrassmannMeasure(w / nrm[:, None], self.mults * (0.5 * nrm), validate=False)

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
        )
        return pm, parts

    def pushforward(self, L):
        L = np.asarray(L, dtype=float)
        if abs(np.linalg.det(L)) < 1e-300:
            raise ValueError("pushforward map is singular")
        return TriangulatedCurrent(
            np.einsum("ab,tvb->tva", L, self.verts), self.mults, validate=False
        )

    # -- slicing -------------------------------------------------------------------

    def slice_mass(self, p, rho):
        """Weighted length of the intersection with the sphere of radius rho at p.

        Per triangle the sphere meets the triangle plane in a circle (or not
        at all); the part of that circle inside the triangle is a union of
        arcs computed exactly from the critical angles at the edge lines.
        Only the triangles that _ball_screen leaves near the sphere are
        intersected: one wholly inside the open ball or wholly outside the
        closed one carries no arc.
        """
        p, _inside, near = _ball_screen(self, p, rho)
        arcs = np.zeros(self.n_triangles)
        for lo in range(0, near.shape[0], SLICE_CHUNK_TRIANGLES):
            at = near[lo:lo + SLICE_CHUNK_TRIANGLES]
            arcs[at] = _sphere_arcs(self.verts[at], p, rho)
        return float(np.sum(self.mults * arcs))

    def mass_in_ball(self, p, rho, subdiv=16):
        """Quadrature estimate of the mass inside the closed ball B_rho(p).

        Midpoint rule on subdiv^2 congruent sub-triangles per triangle.
        Triangles that _ball_screen puts wholly inside or outside the ball
        count all or none of their centroids; only the others evaluate them.
        """
        if subdiv < 1:
            raise ValueError("subdiv must be at least 1")
        p, inside, near = _ball_screen(self, p, rho)
        cents, frac = _subtriangle_centroids(subdiv)
        counts = np.where(inside, cents.shape[0], 0)
        chunk = max(1, BALL_CHUNK_POINTS // cents.shape[0])
        for lo in range(0, near.shape[0], chunk):
            tri = self.verts[near[lo:lo + chunk]]
            d = (
                tri[:, None, 0]
                + cents[None, :, 0:1] * (tri[:, 1] - tri[:, 0])[:, None]
                + cents[None, :, 1:2] * (tri[:, 2] - tri[:, 0])[:, None]
            ) - p
            d *= d
            # squared distances summed entry by entry, in np.sum's order
            dist2 = ((d[..., 0] + d[..., 1]) + d[..., 2]) + d[..., 3]
            counts[near[lo:lo + chunk]] = np.count_nonzero(dist2 <= rho * rho, axis=1)
        return float(np.sum(self.mults * self.areas() * frac * counts))

    # -- serialization ----------------------------------------------------------------

    def to_json_obj(self):
        """Shared vertices in first-seen order (merged by _vertex_keys) and
        triangles as [i, j, k, multiplicity]."""
        flat = self.verts.reshape(-1, 4)
        key_ids, first = _vertex_ids(_vertex_keys(flat))
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.shape[0])
        ids = rank[key_ids].reshape(-1, 3)
        triangles = np.concatenate([ids, self.mults[:, None]], axis=1)
        return {"vertices": flat[first[order]].tolist(), "triangles": triangles.tolist()}

    @classmethod
    def from_json_obj(cls, obj):
        vertices = np.array(obj["vertices"], dtype=float).reshape(-1, 4)
        tris = np.array(obj["triangles"], dtype=np.int64).reshape(-1, 4)
        return cls(vertices[tris[:, :3]], tris[:, 3])


def _subtriangle_centroids(k):
    """Barycentric (alpha, beta) centroids of the k^2 standard sub-triangles."""
    cents = []
    for i in range(k):
        for j in range(k - i):
            cents.append(((i + 1.0 / 3.0) / k, (j + 1.0 / 3.0) / k))
            if i + j <= k - 2:
                cents.append(((i + 2.0 / 3.0) / k, (j + 2.0 / 3.0) / k))
    return np.array(cents), 1.0 / (k * k)


def _ball_screen(current, p, rho):
    """Screen the triangles of a TriangulatedCurrent against the sphere S_rho(p).

    Returns p as an array, the mask (N,) of triangles wholly inside the
    open ball and the indices of the near ones, neither inside nor wholly
    outside the closed ball.  A triangle is inside when every vertex lies
    within rho - pad of p, and outside when its bounding sphere (the vertex
    mean and the largest distance from it) lies beyond rho + pad, where pad
    is BALL_SCREEN_MARGIN of the largest coordinate of the triangle and p,
    plus rho.  p must be a finite point of R^4 and rho positive and finite.
    """
    if not (0.0 < rho < math.inf):
        raise ValueError("rho must be positive and finite")
    p = np.asarray(p, dtype=float)
    if p.shape != (4,) or not np.all(np.isfinite(p)):
        raise ValueError("p must be a finite point of R^4")
    centre, radius, scale = current._bounds
    rel = current.verts - p
    d2 = _rowdot(rel, rel)
    far = np.sqrt(np.maximum(np.maximum(d2[:, 0], d2[:, 1]), d2[:, 2]))
    off = centre - p
    gap = np.sqrt(_rowdot(off, off)) - radius
    pad = BALL_SCREEN_MARGIN * (scale + np.abs(p).max() + rho)
    inside = far < rho - pad
    return p, inside, np.flatnonzero(~inside & ~(gap > rho + pad))


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
    """Keys (..., 4) of points: coordinates rounded to VERTEX_KEY_DECIMALS,
    held as floats.

    np.rint rounds half to even, as Python's round does.  Past 2^53 every
    float is an integer, so there the key is the scaled coordinate itself,
    which coordinates within about one float spacing may share; the key is
    monotone in the coordinate at every scale.
    """
    scaled = np.asarray(points, dtype=float) * 10.0**VERTEX_KEY_DECIMALS
    if not np.all(np.isfinite(scaled)):
        raise ValueError("vertex coordinates must be finite, and below 1.8e299 in size")
    return np.rint(scaled)


def _vertex_ids(keys):
    """Number the distinct rows of keys (N, 4) in lexicographic order.

    Returns ids (N,) and first (K,), the row where each id first occurs:
    the inverse and the first indices that a row-wise np.unique returns,
    from one stable lexsort.  Keys compare as numbers, so -0.0 and 0.0
    share an id.
    """
    order = np.lexsort(keys.T[::-1])  # stable: each group lists its rows in order
    ranked = keys[order]
    start = np.ones(keys.shape[0], dtype=bool)
    start[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    ids = np.empty(keys.shape[0], dtype=np.int64)
    ids[order] = np.cumsum(start) - 1
    return ids, order[start]


def _edge_chain(loops, weights):
    """Signed edge chain {(key_a, key_b): count} of weighted closed polygons.

    loops: (N, L, 4) vertex keys, polygon i running through loops[i, 0], ...,
    loops[i, L-1] and back to loops[i, 0]; weights: (N,) integers.  Each edge
    is stored with its lexicographically smaller key first, its weight
    negated when that reverses it; edges whose counts cancel are dropped.
    The keys of the chain are tuples of Python ints, in key order.
    """
    keys = loops.reshape(-1, 4)
    ids, first = _vertex_ids(keys)
    n_ids = first.shape[0]
    # ids follow the key order, so an edge runs forward when its start id is
    # the smaller, and the code a * n_ids + b orders edges as their key pairs
    a = ids.reshape(loops.shape[:2])
    b = np.roll(a, -1, axis=1)
    fwd = a <= b
    codes = np.where(fwd, a * n_ids + b, b * n_ids + a).reshape(-1)
    signed = (np.where(fwd, 1, -1) * np.asarray(weights, dtype=np.int64)[:, None]).reshape(-1)
    uniq, inv = np.unique(codes, return_inverse=True)
    counts = np.zeros(uniq.shape[0], dtype=np.int64)
    np.add.at(counts, inv, signed)
    keep = np.flatnonzero(counts)
    lo, hi = np.divmod(uniq[keep], n_ids)
    return {(tuple(map(int, ka)), tuple(map(int, kb))): c
            for ka, kb, c in zip(keys[first[lo]].tolist(), keys[first[hi]].tolist(),
                                 counts[keep].tolist())}


def triangulate(g):
    """Integral current carried by the graph of a FunctionalQGraph.

    Each half-cell triangle contributes one oriented 2-simplex per sheet,
    with the sheet multiplicity, whose vertices are the nodal values; for
    affine sheets the triangle mass equals the area-formula value
    ||LambdaM(X)|| * base area exactly.
    """
    tris, base = g.mesh.frame.tris, g.mesh.frame.base
    lift = g.vals[:, tris[..., 0], tris[..., 1]].swapaxes(0, 1)
    n_tri, n_sheets = lift.shape[:2]
    verts = np.concatenate(
        [np.broadcast_to(base[:, None], (n_tri, n_sheets, 3, 2)), lift], axis=-1
    )
    return TriangulatedCurrent(verts.reshape(-1, 3, 4), np.tile(g.mults, n_tri))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def random_lipschitz_graph(seed, lip, q, mesh):
    """Reproducible random zero-boundary Q-graph with Lipschitz constant <= lip.

    Each sheet is a superposition of low-frequency product-sine modes
    (vanishing on the boundary) P1-interpolated on the mesh and rescaled so
    the largest per-triangle gradient norm stays below 0.9 * lip.  Each
    mode's sines are taken on one node line per axis.
    """
    if not (0.0 < lip < math.inf):
        raise ValueError("lip must be positive and finite")
    rng = np.random.default_rng(seed)
    n = mesh.n
    # node (i, i) has node (i, j)'s x and node (j, i)'s y: the two node lines
    diag = mesh.node(np.arange(n + 1), np.arange(n + 1))
    origin = mesh.origin
    xi = ((diag[:, 0] - origin[0]) / mesh.r)[:, None]
    eta = ((diag[:, 1] - origin[1]) / mesh.r)[None, :]
    vals = np.zeros((q, n + 1, n + 1, 2))
    for sheet in vals:
        for _m in range(N_MODES):
            kx, ky = rng.integers(1, 4, size=2)
            coef = rng.normal(size=2)
            mode = np.sin(math.pi * kx * xi) * np.sin(math.pi * ky * eta)
            sheet += mode[..., None] * coef[None, None, :]
        grad_bound = _max_nodal_gradient(sheet, mesh.h)
        if grad_bound > 0:
            sheet *= 0.9 * lip / max(grad_bound, 0.9 * lip)
    return FunctionalQGraph.from_nodal_sheets(mesh, np.ones(q, int), vals)


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


def branched_graph(q, amplitude, cutoff, n_r=24, n_theta=32):
    """q-valued branched graph over the unit disk as a triangulated current.

    The map sends z to the q points amplitude * prof(|z|) * w^p, p = q + 1,
    over the roots w^q = z, with prof(r) = min(1 - r, cutoff); it vanishes on
    the boundary circle, so the boundary chain is q times the unit circle at
    height zero.  Triangulated in polar coordinates on the q-fold cover.
    """
    p = q + 1
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
    return branched_graph(1, 0.0, 1.0, n_r=n_r, n_theta=n_theta)


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
    return FunctionalQGraph.from_nodal_sheets(mesh, np.ones(q, int), np.stack([vals] * q))


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
    G = T.pushforward(b.R)
    what = b.mu0().points
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
    vertical, non_special = b.chain_coefficients()
    est0_class_vertical = vertical * pm.mV - (atom_mass[0] + atom_mass[1]) + non_special * m_ns
    est0_exact = vertical * atom_mass[2] - (atom_mass[0] + atom_mass[1]) + non_special * m_ns
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
