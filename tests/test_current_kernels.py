"""The array kernels of TriangulatedCurrent against the per-triangle loops they replaced.

The reference functions below are the former implementations of
slice_mass, mass_in_ball, boundary, boundary_equals_loop, to_json_obj,
branched_graph and random_lipschitz_graph, kept here verbatim in their
arithmetic, the former large-coordinate vertex merge key of to_json_obj,
and the former edge-chain and JSON kernels on np.unique(..., axis=0) rows.
"""

import json
import math

import numpy as np
import pytest

from anisoq import currents, energy


def unit_mesh(n):
    return currents.Mesh(x0=(0.0, 0.0), r=1.0, n=n)


# -- reference: the per-triangle loops -------------------------------------------------


def _ref_arclength(tri, p, rho):
    v0 = tri[0]
    u1 = tri[1] - v0
    u2 = tri[2] - v0
    e1 = u1 / np.linalg.norm(u1)
    w = u2 - (u2 @ e1) * e1
    e2 = w / np.linalg.norm(w)
    q = p - v0
    a, b = q @ e1, q @ e2
    d2 = q @ q - a * a - b * b
    rr2 = rho * rho - d2
    if rr2 <= 0.0:
        return 0.0
    rr = math.sqrt(rr2)
    C = np.array([a, b])
    T = np.array([[0.0, 0.0], [np.linalg.norm(u1), 0.0], [u2 @ e1, u2 @ e2]])
    crit = []
    for s in range(3):
        A, B = T[s], T[(s + 1) % 3]
        d = B - A
        dd = d @ d
        f = A - C
        disc = (d @ f) ** 2 - dd * (f @ f - rr * rr)
        if disc <= 0.0 or dd == 0.0:
            continue
        root = math.sqrt(disc)
        for sgn in (-1.0, 1.0):
            t = (-(d @ f) + sgn * root) / dd
            pt = A + t * d - C
            crit.append(math.atan2(pt[1], pt[0]))
    if not crit:
        mid = C + np.array([rr, 0.0])
        return 2.0 * math.pi * rr if _ref_point_in_tri(mid, T) else 0.0
    crit = sorted(th % (2.0 * math.pi) for th in crit)
    total = 0.0
    for k in range(len(crit)):
        th0 = crit[k]
        th1 = crit[(k + 1) % len(crit)] + (2.0 * math.pi if k + 1 == len(crit) else 0.0)
        span = th1 - th0
        if span <= 0.0:
            continue
        mid_th = th0 + 0.5 * span
        mid = C + rr * np.array([math.cos(mid_th), math.sin(mid_th)])
        if _ref_point_in_tri(mid, T):
            total += span * rr
    return total


def _ref_point_in_tri(pt, T, tol=1e-12):
    def cross2(u, v):
        return u[0] * v[1] - u[1] * v[0]

    s0 = cross2(T[1] - T[0], pt - T[0])
    s1 = cross2(T[2] - T[1], pt - T[1])
    s2 = cross2(T[0] - T[2], pt - T[2])
    return (s0 >= -tol) and (s1 >= -tol) and (s2 >= -tol)


def _ref_slice_mass(T, p, rho):
    total = 0.0
    for tri, m in zip(T.verts, T.mults):
        total += m * _ref_arclength(tri, np.asarray(p, float), rho)
    return float(total)


def _ref_mass_in_ball(T, p, rho, subdiv=16):
    p = np.asarray(p, dtype=float)
    cents, frac = currents._subtriangle_centroids(subdiv)
    total = 0.0
    for tri, m, area in zip(T.verts, T.mults, T.areas()):
        pts = (
            tri[0][None, :]
            + cents[:, 0:1] * (tri[1] - tri[0])[None, :]
            + cents[:, 1:2] * (tri[2] - tri[0])[None, :]
        )
        inside = np.sum((pts - p) ** 2, axis=1) <= rho * rho
        total += m * area * frac * np.count_nonzero(inside)
    return float(total)


def _ref_key(v):
    return tuple(int(round(c * 10.0**currents.VERTEX_KEY_DECIMALS)) for c in v)


def _ref_chain(loops):
    """Edge chain of (vertex list, weight) closed loops, as the old boundary loops built it."""
    chain = {}
    for vs, m in loops:
        ks = [_ref_key(v) for v in vs]
        for a in range(len(ks)):
            ka, kb = ks[a], ks[(a + 1) % len(ks)]
            if ka <= kb:
                chain[(ka, kb)] = chain.get((ka, kb), 0) + int(m)
            else:
                chain[(kb, ka)] = chain.get((kb, ka), 0) - int(m)
    return {e: c for e, c in chain.items() if c != 0}


def _ref_boundary(T):
    return _ref_chain(zip(T.verts, T.mults))


def _ref_to_json_obj(T):
    index, vertices, triangles = {}, [], []
    for tri, m in zip(T.verts, T.mults):
        ids = []
        for v in tri:
            k = _ref_key(v)
            if k not in index:
                index[k] = len(vertices)
                vertices.append([float(c) for c in v])
            ids.append(index[k])
        triangles.append([ids[0], ids[1], ids[2], int(m)])
    return {"vertices": vertices, "triangles": triangles}


def _old_merge_keys(points):
    """Keys (N, 8) of the former to_json_obj: a coordinate below 9.2e9 keys
    by its rounded scaled value, a larger one by its own value, and the last
    four columns flag the large ones, so the two ranges never meet."""
    scaled = points * 10.0**currents.VERTEX_KEY_DECIMALS
    large = ~(np.abs(scaled) < 2.0**63)
    return np.concatenate([np.where(large, points, np.rint(scaled)), large], axis=1)


def _json_by_old_merge_keys(T):
    """to_json_obj's form, its vertices grouped by _old_merge_keys in first-seen order."""
    flat = T.verts.reshape(-1, 4)
    index, vertices, ids = {}, [], []
    for key, v in zip(map(tuple, _old_merge_keys(flat).tolist()), flat.tolist()):
        if key not in index:
            index[key] = len(vertices)
            vertices.append(v)
        ids.append(index[key])
    triangles = np.concatenate([np.reshape(ids, (-1, 3)), T.mults[:, None]], axis=1)
    return {"vertices": vertices, "triangles": triangles.tolist()}


def _far_currents():
    """Currents whose coordinates straddle 9.2e9, where 1e9 times a
    coordinate passes 2^63: the ray-3 envelope competitor at eps 1e-8, whose
    lift reaches 1e16, and a branched graph scaled across that range, its
    small coordinates shaken below the key resolution."""
    rng = np.random.default_rng(19)
    _br, competitor = energy.envelope_bracket(1e-8, 2, "ray3")
    out = [competitor]
    B = currents.branched_graph(2, 1.0, 1.0, n_r=4, n_theta=12)
    for scale in (1e10, 3e10):
        verts = B.verts * scale
        shaken = verts + rng.uniform(-1e-11, 1e-11, size=verts.shape)
        out += [currents.TriangulatedCurrent(verts, B.mults),
                currents.TriangulatedCurrent(shaken, B.mults + 1)]
    assert all(np.max(np.abs(T.verts)) > 9.2e9 for T in out)
    return out


def _ref_branched_verts(q, amplitude, cutoff, n_r=24, n_theta=32):
    p = q + 1
    m_phi = q * n_theta
    radii = np.linspace(0.0, 1.0, n_r + 1)

    def vertex(ir, k):
        r = radii[ir]
        phi = 2.0 * math.pi * q * (k % m_phi) / m_phi
        z = np.array([r * math.cos(phi), r * math.sin(phi)])
        prof = amplitude * min(1.0 - r, cutoff)
        rad = r ** (p / q) * prof
        ang = p * phi / q
        return np.array([z[0], z[1], rad * math.cos(ang), rad * math.sin(ang)])

    verts = []
    for ir in range(n_r):
        for k in range(m_phi):
            v00, v10 = vertex(ir, k), vertex(ir + 1, k)
            v11, v01 = vertex(ir + 1, k + 1), vertex(ir, k + 1)
            verts.append([v00, v10, v11])
            if ir > 0:
                verts.append([v00, v11, v01])
    return np.array(verts)


def _old_edge_chain(start, end, weights):
    """The edge-chain kernel on np.unique rows of (E, 8) float key pairs."""
    start, end = start.reshape(-1, 4), end.reshape(-1, 4)
    i = np.argmax(start != end, axis=1)[:, None]
    fwd = np.take_along_axis(start, i, 1)[:, 0] <= np.take_along_axis(end, i, 1)[:, 0]
    edges = np.where(fwd[:, None], np.concatenate([start, end], axis=1),
                     np.concatenate([end, start], axis=1))
    signed = np.where(fwd, 1, -1) * np.asarray(weights, dtype=np.int64).reshape(-1)
    uniq, inv = np.unique(edges, axis=0, return_inverse=True)
    counts = np.zeros(uniq.shape[0], dtype=np.int64)
    np.add.at(counts, inv.reshape(-1), signed)
    keep = np.flatnonzero(counts)
    return {(tuple(map(int, e[:4])), tuple(map(int, e[4:]))): c
            for e, c in zip(uniq[keep].tolist(), counts[keep].tolist())}


def _old_boundary(T):
    keys = currents._vertex_keys(T.verts)
    return _old_edge_chain(keys, np.roll(keys, -1, axis=1), np.repeat(T.mults, 3))


def _old_loop_chain(loop_points, multiplicity):
    pts = np.asarray(loop_points, dtype=float)
    keys = currents._vertex_keys(np.pad(pts, ((0, 0), (0, 2))))
    return _old_edge_chain(keys, np.roll(keys, -1, axis=0),
                           np.full(pts.shape[0], int(multiplicity)))


def _old_unique_json(T):
    """to_json_obj with its vertex keys numbered by np.unique(..., axis=0)."""
    flat = T.verts.reshape(-1, 4)
    _, first, inv = np.unique(currents._vertex_keys(flat), axis=0, return_index=True,
                              return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    ids = rank[inv.reshape(-1)].reshape(-1, 3)
    triangles = np.concatenate([ids, T.mults[:, None]], axis=1)
    return {"vertices": flat[first[order]].tolist(), "triangles": triangles.tolist()}


def _ref_random_lipschitz_vals(seed, lip, q, mesh):
    """random_lipschitz_graph's nodal values, each mode's sines on the full node grid."""
    rng = np.random.default_rng(seed)
    n = mesh.n
    nodes = mesh.nodes_array()
    xi = (nodes[..., 0] - mesh.origin[0]) / mesh.r
    eta = (nodes[..., 1] - mesh.origin[1]) / mesh.r
    vals = np.zeros((q, n + 1, n + 1, 2))
    for sheet in vals:
        for _m in range(currents.N_MODES):
            kx, ky = rng.integers(1, 4, size=2)
            coef = rng.normal(size=2)
            mode = np.sin(math.pi * kx * xi) * np.sin(math.pi * ky * eta)
            sheet += mode[..., None] * coef[None, None, :]
        grad_bound = currents._max_nodal_gradient(sheet, mesh.h)
        if grad_bound > 0:
            sheet *= 0.9 * lip / max(grad_bound, 0.9 * lip)
    return vals


# -- inputs ---------------------------------------------------------------------------


def _random_triangles(rng, n):
    return currents.TriangulatedCurrent(rng.normal(size=(n, 3, 4)), rng.integers(1, 4, size=n))


def _single(tri):
    return currents.TriangulatedCurrent(np.asarray(tri, float)[None], [1])


def _frame(rng):
    """Orthonormal 4 x 2 frame of a random plane through a random point."""
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    return rng.normal(size=4), Q[:, :2]


def _embed(origin, frame, pts2):
    return origin + np.asarray(pts2, float) @ frame.T


def _ulps(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


def _assert_close(value, ref, rtol=1e-13):
    assert abs(value - ref) <= rtol * abs(ref), (value, ref)


# -- slice_mass -----------------------------------------------------------------------


def test_slice_mass_matches_loop_on_random_triangles(monkeypatch):
    monkeypatch.setattr(currents, "SLICE_CHUNK_TRIANGLES", 64)  # several chunks
    rng = np.random.default_rng(11)
    for n in (1, 40, 300):
        T = _random_triangles(rng, n)
        for p in (np.zeros(4), rng.normal(size=4)):
            for rho in (0.3, 0.8, 1.5, 2.5, 4.0):
                _assert_close(T.slice_mass(p, rho), _ref_slice_mass(T, p, rho))


def test_slice_mass_matches_loop_on_disk_currents():
    for T in (currents.flat_disk_current(n_r=8, n_theta=24),
              currents.branched_graph(2, 1.0, 1.0, n_r=8, n_theta=24),
              currents.branched_graph(3, 4.0, 0.3, n_r=6, n_theta=16)):
        for p in (np.zeros(4), np.array([0.1, -0.2, 0.05, 0.0])):
            for rho in np.linspace(0.05, 1.6, 12):
                _assert_close(T.slice_mass(p, rho), _ref_slice_mass(T, p, rho))


def test_slice_mass_matches_loop_at_degenerate_circles():
    rng = np.random.default_rng(12)
    origin, frame = _frame(rng)
    tri2 = np.array([[0.0, 0.0], [2.0, 0.1], [0.3, 1.7]])
    tri = _embed(origin, frame, tri2)
    T = _single(tri)
    normal = np.linalg.qr(np.concatenate([frame, rng.normal(size=(4, 2))], axis=1))[0][:, 2]
    cases = []
    # the sphere through a vertex, centre in the plane and off it: the two
    # edge lines at that vertex give the same critical angle twice
    for c2, lift in (([0.7, 0.5], 0.0), ([0.7, 0.5], 0.2), ([-0.4, 0.3], 0.1)):
        p = _embed(origin, frame, [c2])[0] + lift * normal
        for v in tri:
            cases += [(p, rho) for rho in _ulps(float(np.linalg.norm(v - p)))]
    # tangency to each edge line, from inside and from outside the triangle
    for s in range(3):
        A, B = tri2[s], tri2[(s + 1) % 3]
        n2 = np.array([B[1] - A[1], A[0] - B[0]]) / np.linalg.norm(B - A)
        foot = A + 0.4 * (B - A)
        for side in (-0.2, 0.2):
            p = _embed(origin, frame, [foot + side * n2])[0]
            cases += [(p, rho) for rho in _ulps(0.2)]
            p_off = p + 0.05 * normal
            cases += [(p_off, rho) for rho in _ulps(math.hypot(0.2, 0.05))]
    # a circle wholly inside the triangle, and a sphere missing the plane
    inner = _embed(origin, frame, [[0.7, 0.5]])[0]
    cases += [(inner, 0.1), (inner + 0.05 * normal, 0.1), (inner + 0.5 * normal, 0.3)]
    for p, rho in cases:
        # relative to the circle length 2 pi rho, the most one triangle can
        # carry: at a tangency both values are round-off of the same zero arc
        value, ref = T.slice_mass(p, rho), _ref_slice_mass(T, p, rho)
        assert abs(value - ref) <= 1e-13 * 2.0 * math.pi * rho, (p, rho, value, ref)
    assert T.slice_mass(inner, 0.1) == pytest.approx(2.0 * math.pi * 0.1, rel=1e-13)
    assert T.slice_mass(inner + 0.5 * normal, 0.3) == 0.0


# -- mass_in_ball ---------------------------------------------------------------------


def _screen_cut(T, p, inside):
    """Smallest rho at which T's one triangle is screened wholly in (or not wholly out)."""
    v = T.verts[0]
    c = v.mean(axis=0)

    def screened(rho):
        pad = currents.BALL_SCREEN_MARGIN * (np.abs(v).max() + np.abs(p).max() + rho)
        if inside:
            return math.sqrt(np.sum((v - p) ** 2, axis=1).max()) < rho - pad
        gap = math.sqrt(np.sum((c - p) ** 2)) - math.sqrt(np.sum((v - c) ** 2, axis=1).max())
        return not gap > rho + pad

    lo, hi = 0.0, 1e4
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if screened(mid) else (mid, hi)
    return hi


def test_mass_in_ball_matches_loop_on_single_triangles():
    rng = np.random.default_rng(13)
    for _ in range(12):
        tri = rng.normal(size=(3, 4))
        T = _single(tri)
        p = rng.normal(size=4) * 0.5
        rhos = [0.1, 0.7, 1.3, 2.0, 5.0]
        for v in tri:
            rhos += _ulps(float(np.linalg.norm(v - p)))
        for inside in (True, False):
            rhos += _ulps(_screen_cut(T, p, inside))
        for rho in filter(lambda r: r > 0.0, rhos):
            for subdiv in (1, 3, 8):
                assert T.mass_in_ball(p, rho, subdiv) == _ref_mass_in_ball(T, p, rho, subdiv)


def test_mass_in_ball_small_ball_on_far_coordinates():
    # a 1e-6 ball on a triangle whose coordinates are of size 1e3
    rng = np.random.default_rng(14)
    origin, frame = _frame(rng)
    origin = origin * 1e3
    tri = _embed(origin, frame, [[0.0, 0.0], [3e-6, 0.0], [0.0, 2.5e-6]])
    T = _single(tri)
    for c2 in ([1e-6, 1e-6], [0.2e-6, 0.3e-6], [5e-6, 5e-6], [0.0, 0.0]):
        p = _embed(origin, frame, [c2])[0]
        rhos = [1e-6, 0.5e-6, 4e-6]
        for v in tri:
            rhos += _ulps(float(np.linalg.norm(v - p)))
        for inside in (True, False):
            rhos += _ulps(_screen_cut(T, p, inside))
        for rho in filter(lambda r: r > 0.0, rhos):
            assert T.mass_in_ball(p, rho, 12) == _ref_mass_in_ball(T, p, rho, 12)


def test_mass_in_ball_screen_margin_at_far_coordinates():
    # small triangles just inside the unit sphere, at coordinates of size
    # 1e5..1e9: the centroid distances round by more than their depth, so a
    # screen margin at rho's scale would count centroids the loop drops
    rng = np.random.default_rng(18)
    rounded_out = 0
    for _ in range(80):
        p = 10.0 ** rng.uniform(5, 9) * rng.normal(size=4)
        Q, _r = np.linalg.qr(rng.normal(size=(4, 4)))
        dirs = Q[:, 0] + 10.0 ** rng.uniform(-5, -2) * (rng.normal(size=(3, 2)) @ Q[:, 1:3].T)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        T = _single(p + (1.0 - 10.0 ** rng.uniform(-12, -6)) * dirs)
        for subdiv in (1, 2, 4):
            ref = _ref_mass_in_ball(T, p, 1.0, subdiv)
            assert T.mass_in_ball(p, 1.0, subdiv) == ref
            far = np.sqrt(np.sum((T.verts[0] - p) ** 2, axis=1)).max()
            rounded_out += far < 1.0 - 1e-10 and ref != T.areas()[0]
    assert rounded_out > 0


def test_mass_in_ball_matches_loop_on_currents(monkeypatch):
    monkeypatch.setattr(currents, "BALL_CHUNK_POINTS", 500)  # five triangles a chunk
    rng = np.random.default_rng(15)
    for T in (currents.branched_graph(2, 1.0, 1.0, n_r=8, n_theta=24),
              _random_triangles(rng, 200)):
        for rho in (0.2, 0.5, 0.9, 1.7):
            _assert_close(T.mass_in_ball(np.zeros(4), rho, 10),
                          _ref_mass_in_ball(T, np.zeros(4), rho, 10))


# centres that are not a finite point of R^4: NaN and infinite coordinates,
# too few or too many, and the wrong shape
BAD_CENTRES = ([math.nan, 0.0, 0.0, 0.0], [0.0, math.inf, 0.0, 0.0],
               [0.0, 0.0, -math.inf, 0.0], [0.0, 0.0, 0.0], np.zeros(5), np.zeros((1, 4)),
               0.0, None)


def test_mass_in_ball_rejects_bad_inputs():
    D = currents.flat_disk_current(8, 32)
    for rho in (-0.5, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="rho"):
            D.mass_in_ball(np.zeros(4), rho)
    for subdiv in (0, -2):
        with pytest.raises(ValueError, match="subdiv"):
            D.mass_in_ball(np.zeros(4), 0.5, subdiv=subdiv)


def test_mass_in_ball_rejects_bad_centre():
    D = currents.flat_disk_current(8, 32)
    for p in BAD_CENTRES:
        with pytest.raises(ValueError, match=r"^p must be a finite point of R\^4$"):
            D.mass_in_ball(p, 0.5)


def test_slice_mass_rejects_bad_radius():
    D = currents.flat_disk_current(8, 32)
    for rho in (-0.5, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^rho must be positive and finite$"):
            D.slice_mass(np.zeros(4), rho)


def test_slice_mass_rejects_bad_centre():
    D = currents.flat_disk_current(8, 32)
    for p in BAD_CENTRES:
        with pytest.raises(ValueError, match=r"^p must be a finite point of R\^4$"):
            D.slice_mass(p, 0.5)


# -- the ball screen of slice_mass ----------------------------------------------------


def _unscreened_slice(T, p, rho):
    """slice_mass without the screen: _sphere_arcs on every triangle, weighted and summed."""
    p = np.asarray(p, dtype=float)
    step = currents.SLICE_CHUNK_TRIANGLES
    arcs = np.concatenate([currents._sphere_arcs(T.verts[lo:lo + step], p, rho)
                           for lo in range(0, T.n_triangles, step)])
    return float(np.sum(T.mults * arcs))


def _assert_screen_changes_no_bit(T, p, rho):
    """The screened slice_mass is the unscreened sum, and every triangle the
    screen drops carries exactly no arc; returns how many it dropped."""
    assert T.slice_mass(p, rho).hex() == _unscreened_slice(T, p, rho).hex(), (p, rho)
    _p, _inside, near = currents._ball_screen(T, p, rho)
    dropped = np.setdiff1d(np.arange(T.n_triangles), near)
    if dropped.size:
        arcs = currents._sphere_arcs(T.verts[dropped], np.asarray(p, dtype=float), rho)
        assert np.all(arcs == 0.0), (p, rho)
    return dropped.size


def _coarea_currents():
    """The two currents of the coarea identity check, at its size."""
    return (currents.flat_disk_current(n_r=16, n_theta=48),
            currents.branched_graph(2, 1.0, 1.0, n_r=16, n_theta=48))


def test_slice_screen_changes_no_bit_on_coarea_currents():
    dropped = 0
    for T in _coarea_currents():
        for p in (np.zeros(4), np.array([0.1, -0.2, 0.05, 0.0])):
            # the coarea radii; at 0.5 a vertex ring of each current lies on the sphere
            for rho in list(np.linspace(0.25, 0.5, 5)) + [0.05, 0.9, 1.2]:
                dropped += _assert_screen_changes_no_bit(T, p, rho)
    assert dropped > 0


def test_slice_screen_changes_no_bit_at_far_coordinates():
    rng = np.random.default_rng(20)
    disk = currents.flat_disk_current(n_r=6, n_theta=16)
    for scale in (1e5, 1e7, 1e9):
        offset = scale * rng.normal(size=4)
        T = currents.TriangulatedCurrent(disk.verts + offset, disk.mults)
        for rho in (0.3, 0.5, 0.99, 1.0):
            _assert_screen_changes_no_bit(T, offset, rho)
    # small triangles just inside the unit sphere, as in the ball-mass margin test
    for _ in range(40):
        p = 10.0 ** rng.uniform(5, 9) * rng.normal(size=4)
        Q, _r = np.linalg.qr(rng.normal(size=(4, 4)))
        dirs = Q[:, 0] + 10.0 ** rng.uniform(-5, -2) * (rng.normal(size=(3, 2)) @ Q[:, 1:3].T)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        T = _single(p + (1.0 - 10.0 ** rng.uniform(-12, -6)) * dirs)
        _assert_screen_changes_no_bit(T, p, 1.0)


def _tight_triangles(rng, n):
    """Triangles (with their centres p) whose bounding sphere touches the
    triangle: p lies in the triangle's plane, on the ray from the vertex mean
    through the vertex farthest from it, so the bounding sphere's gap to p is
    the triangle's distance to p."""
    out = []
    for _ in range(n):
        origin, frame = _frame(rng)
        angle = rng.uniform(0.2, 0.8)
        tri2 = np.array([[1.0, 0.0], [-0.5, angle], [-0.5, -angle]]) * rng.uniform(0.1, 2.0)
        tri2 -= tri2.mean(axis=0)
        out.append((_embed(origin, frame, tri2), _embed(origin, frame, [[3.0, 0.0]])[0]))
    return out


def test_slice_screen_changes_no_bit_at_screen_cuts():
    rng = np.random.default_rng(21)
    cases = [(T.verts[i], p) for T in _coarea_currents()
             for i in rng.choice(T.n_triangles, size=12, replace=False)
             for p in (np.zeros(4), rng.normal(size=4) * 0.5)]
    cases += [(tri, rng.normal(size=4) * 0.5) for tri in rng.normal(size=(12, 3, 4))]
    cases += _tight_triangles(rng, 12)
    dropped = 0
    for tri, p in cases:
        T = _single(tri)
        dist = np.linalg.norm(tri - p, axis=1)
        centre = tri.mean(axis=0)
        gap = np.linalg.norm(centre - p) - np.linalg.norm(tri - centre, axis=1).max()
        # radii a few ulps from each cut, and across the screen's margin about
        # the farthest vertex and the bounding sphere
        rhos = []
        for cut in (_screen_cut(T, p, True), _screen_cut(T, p, False)):
            rhos += [cut]
            for _ in range(3):
                rhos = [np.nextafter(rhos[0], -np.inf)] + rhos + [np.nextafter(rhos[-1], np.inf)]
        for edge in (dist.max(), gap):
            rhos += [edge * (1.0 + f * currents.BALL_SCREEN_MARGIN) for f in (-3, -0.5, 0.5, 3)]
        for rho in filter(lambda r: r > 0.0, rhos):
            dropped += _assert_screen_changes_no_bit(T, p, float(rho))
    assert dropped > 0


def test_slice_screen_intersects_only_the_crossed_rings(monkeypatch):
    T = currents.flat_disk_current(n_r=16, n_theta=48)
    seen = []
    sphere_arcs = currents._sphere_arcs

    def counted(verts, p, rho):
        seen.append(verts)
        return sphere_arcs(verts, p, rho)

    monkeypatch.setattr(currents, "_sphere_arcs", counted)
    T.slice_mass(np.zeros(4), 0.3)
    radii = np.linalg.norm(np.concatenate(seen)[..., :2], axis=2)
    # every triangle the sphere crosses is intersected: ring 4 of 16, between
    # radii 0.25 and 0.3125, two triangles per angle step; the others lie
    # beside it, within one ring spacing of the sphere
    crossed = np.linalg.norm(T.verts[..., :2], axis=2)
    crossed = np.count_nonzero((crossed.min(axis=1) < 0.3) & (crossed.max(axis=1) > 0.3))
    assert crossed == 2 * 48
    assert np.all((radii.min(axis=1) < 0.3 + 1 / 16) & (radii.max(axis=1) > 0.3 - 1 / 16))
    assert crossed <= radii.shape[0] <= 3 * 48 < T.n_triangles


# -- boundary chains, vertex keys and JSON ----------------------------------------------


def _half_point_coordinates():
    """Coordinates c with c * 1e9 exactly halfway between two integers."""
    out = []
    for base in (0.0, 1.0, -1.0, 0.25):
        for k in range(2, 60):
            c = base + (k + 0.5) * 1e-9
            if (c * 1e9) % 1.0 == 0.5:
                out.append(c)
    return out


def _chain_currents():
    """Currents whose boundary chains the tests compare: random graphs, disk
    graphs, a closed current, keys rounded half to even and a sliver."""
    rng = np.random.default_rng(16)
    currents_ = [currents.triangulate(currents.random_lipschitz_graph(60 + q, 2.0, q,
                                                                      unit_mesh(n)))
                 for q in (1, 2, 3) for n in (2, 5)]
    currents_ += [currents.branched_graph(2, 0.8, 1.0, n_r=6, n_theta=12),
                  currents.branched_graph(3, 1.0, 0.4, n_r=4, n_theta=10)]
    g = currents.FunctionalQGraph.affine(unit_mesh(2), [1], np.zeros((1, 2)),
                                         np.zeros((1, 2, 2)))
    T = currents.triangulate(g)
    closed = currents.TriangulatedCurrent(np.concatenate([T.verts, T.verts[:, [0, 2, 1], :]]),
                                          np.concatenate([T.mults, T.mults]))
    currents_.append(closed)
    half = _half_point_coordinates()
    assert len(half) >= 20
    verts = rng.choice(half, size=(40, 3, 4))
    verts[:, 1, 0] += 1.0
    verts[:, 2, 1] += 1.0
    verts[::3] = verts[::3, [0, 2, 1]]
    currents_.append(currents.TriangulatedCurrent(verts, rng.integers(1, 3, size=40)))
    # two vertices closer than the key resolution: an edge from a key to itself
    sliver = np.array([[[0.0, 0, 0, 0], [1e-11, 0, 0, 0], [0, 1, 0, 0]],
                       [[1, 0, 0, 0], [0, 1, 0, 0], [1e-11, 0, 0, 0]]])
    currents_.append(currents.TriangulatedCurrent(sliver, [2, 1]))
    # keys -0.0 beside 0.0: coordinates just below and above zero
    signed = np.array([[[-1e-11, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]],
                       [[1e-11, 0, 0, 0], [0, -1e-11, 0, 0], [1, 0, 0, 0]]])
    currents_.append(currents.TriangulatedCurrent(signed, [1, 3]))
    return currents_, closed


def test_boundary_matches_loop():
    currents_, closed = _chain_currents()
    for cur in currents_:
        chain = cur.boundary()
        assert chain == _ref_boundary(cur)
        assert all(type(c) is int for c in chain.values())
        assert all(type(k) is int for e in chain for v in e for k in v)
    assert closed.boundary() == {}


def test_boundary_equals_loop_matches_loop():
    B = currents.branched_graph(2, 0.8, 1.0, n_r=6, n_theta=24)
    loop = currents.disk_boundary_loop(24)
    lift = np.concatenate([loop, np.zeros_like(loop)], axis=1)
    for mult, expected in ((2, True), (1, False), (-2, False)):
        assert (B.boundary() == _ref_chain([(lift, mult)])) is expected
        assert B.boundary_equals_loop(loop, mult) is expected
    # the current off the loop's height
    raised = currents.TriangulatedCurrent(B.verts + [0.0, 0.0, 0.0, 1e-3], B.mults)
    assert not raised.boundary_equals_loop(loop, 2)
    for q in (1, 3):
        g = currents.random_lipschitz_graph(70 + q, 1.5, q, unit_mesh(4))
        assert currents.triangulate(g).boundary_equals_loop(g.mesh.boundary_nodes(), g.q)


def test_vertex_keys_round_half_to_even():
    half = np.array(_half_point_coordinates())
    keys = currents._vertex_keys(half)
    assert keys.tolist() == [round(c * 1e9) for c in half]
    assert all(k % 2 == 0 for k in keys.tolist())
    with pytest.raises(ValueError, match="finite"):
        currents._vertex_keys([0.0, np.nan, 0.0, 0.0])
    # a coordinate whose scaled value passes 2^63 keys to that value
    assert currents._vertex_keys([0.0, 1e10, 0.0, 0.0]).tolist() == [0.0, 1e19, 0.0, 0.0]


def test_far_boundary_matches_loop():
    far = _far_currents()
    for cur in far:
        chain = cur.boundary()
        assert chain == _ref_boundary(cur)
        assert all(type(k) is int for e in chain for v in e for k in v)
    assert len(far[0].boundary()) == 4  # the competitor's unit square


def _unique_rows_cases():
    """Vertex key arrays (N, 4): heavy repeats, -0.0 beside 0.0, keys past
    2^53 (coordinates of 1e16), a single row and no rows."""
    rng = np.random.default_rng(22)
    repeats = rng.integers(-2, 3, size=(500, 4)).astype(float)
    zeros = np.where(rng.random(size=(80, 4)) < 0.5, -0.0, 0.0)
    zeros[::7, 1] = 1.0
    far = currents._vertex_keys(1e16 * rng.integers(-2, 3, size=(200, 4))
                                + 2.0 * rng.integers(0, 3, size=(200, 4)))
    assert np.abs(far).max() > 2.0**53
    disk = currents._vertex_keys(currents.branched_graph(2, 1.0, 1.0, 6, 12).verts)
    return [repeats, zeros, far, disk.reshape(-1, 4), np.array([[1.0, -0.0, 3.0, 2.0]]),
            np.zeros((0, 4))]


def test_vertex_ids_match_unique_rows():
    for keys in _unique_rows_cases():
        uniq, first, inv = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        ids, first_ids = currents._vertex_ids(keys)
        assert np.array_equal(ids, inv.reshape(-1))
        assert np.array_equal(first_ids, first)
        got = keys[first_ids]
        assert np.array_equal(got, uniq) and np.array_equal(np.signbit(got), np.signbit(uniq))


def test_edge_chains_match_unique_row_kernel():
    currents_, _closed = _chain_currents()
    for cur in currents_ + _far_currents():
        assert list(cur.boundary().items()) == list(_old_boundary(cur).items())
    loops = [(currents.disk_boundary_loop(24), currents.branched_graph(2, 0.8, 1.0, 6, 24))]
    for q in (1, 3):
        g = currents.random_lipschitz_graph(70 + q, 1.5, q, unit_mesh(4))
        loops.append((g.mesh.boundary_nodes(), currents.triangulate(g)))
    for loop, T in loops:
        keys = currents._vertex_keys(np.pad(loop, ((0, 0), (0, 2))))
        for mult in (1, 2, 3, -2):
            expected = currents._edge_chain(keys[None], np.array([mult]))
            assert list(expected.items()) == list(_old_loop_chain(loop, mult).items())
            assert T.boundary_equals_loop(loop, mult) == \
                (_old_boundary(T) == _old_loop_chain(loop, mult))


def test_current_json_matches_unique_row_kernel():
    rng = np.random.default_rng(23)
    B = currents.branched_graph(2, 0.5, 1.0, n_r=4, n_theta=12)
    shaken = currents.TriangulatedCurrent(B.verts + rng.uniform(-1e-11, 1e-11, B.verts.shape),
                                          B.mults)
    # the first of the far currents is the ray-3 envelope competitor at eps 1e-8
    for cur in _far_currents() + [B, shaken, _random_triangles(rng, 5)]:
        assert json.dumps(cur.to_json_obj()) == json.dumps(_old_unique_json(cur))


def test_far_current_json_matches_old_merge_keys():
    for cur in _far_currents():
        assert json.dumps(cur.to_json_obj(), sort_keys=True) == \
            json.dumps(_json_by_old_merge_keys(cur), sort_keys=True)


def test_current_json_matches_loop():
    rng = np.random.default_rng(17)
    T = currents.branched_graph(2, 0.5, 1.0, n_r=4, n_theta=12)
    # vertices that differ below the key resolution merge into the first seen
    shaken = T.verts + rng.uniform(-1e-11, 1e-11, size=T.verts.shape)
    for cur in (T, currents.TriangulatedCurrent(shaken, T.mults + 1), _random_triangles(rng, 5)):
        assert json.dumps(cur.to_json_obj(), sort_keys=True) == \
            json.dumps(_ref_to_json_obj(cur), sort_keys=True)


# -- generators ----------------------------------------------------------------------


@pytest.mark.parametrize("mesh", [unit_mesh(1), unit_mesh(5), unit_mesh(12),
                                  currents.Mesh(x0=(0.2, -0.1), r=1.3, n=7)])
def test_random_lipschitz_graph_matches_full_grid_sines(mesh):
    for seed, lip, q in ((0, 2.0, 1), (7, 0.5, 3), (2**31 - 1, 2.0, 2)):
        g = currents.random_lipschitz_graph(seed, lip, q, mesh)
        assert np.array_equal(g.vals, _ref_random_lipschitz_vals(seed, lip, q, mesh))



@pytest.mark.parametrize("args", [
    (2, 1.0, 1.0, 16, 48),
    (2, 8.0, 1.0, 10, 24),
    (3, 0.3, 1.0, 7, 20),
    (2, 1.0, 0.25, 5, 12),
    (1, 0.0, 1.0, 16, 48),
    (4, 1.5, 1, 3, 8),
])
def test_branched_graph_matches_loop(args):
    q, amp, cutoff, n_r, n_theta = args
    T = currents.branched_graph(q, amp, cutoff, n_r=n_r, n_theta=n_theta)
    assert np.array_equal(T.verts, _ref_branched_verts(q, amp, cutoff, n_r, n_theta))
    assert T.mults.tolist() == [1] * T.n_triangles
