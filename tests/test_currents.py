import math

import numpy as np
import pytest

from anisoq import currents, energy, exterior
from anisoq.multipoint import g_metric

E12 = np.array([1.0, 0, 0, 0, 0, 0])


def unit_mesh(n):
    return currents.Mesh(x0=(0.0, 0.0), r=1.0, n=n)


def test_flat_graph_mass_and_tangents():
    g = currents.affine_graph(unit_mesh(4), [(1, np.zeros(2), np.zeros((2, 2)))])
    T = currents.triangulate(g)
    assert abs(T.mass() - 1.0) < 1e-12
    assert np.allclose(T.unit_tangents(), E12[None, :])


def test_affine_graph_area_formula(rng):
    for _ in range(10):
        X = rng.normal(size=(2, 2))
        g = currents.affine_graph(unit_mesh(3), [(1, rng.normal(size=2), X)])
        T = currents.triangulate(g)
        expected = np.linalg.norm(exterior.lambda_m(X))
        assert abs(T.mass() - expected) < 1e-10
        gam = T.gaussian_image().merged()
        assert gam.n_atoms == 1
        lam = exterior.lambda_m(X)
        assert np.allclose(gam.points[0], lam / np.linalg.norm(lam), atol=1e-12)
        assert abs(gam.total_mass() - expected) < 1e-10


def test_two_parallel_sheets():
    parts = [(1, np.array([0.0, 1.0]), np.zeros((2, 2))), (1, np.array([0.0, -1.0]), np.zeros((2, 2)))]
    g = currents.affine_graph(unit_mesh(3), parts)
    T = currents.triangulate(g)
    assert abs(T.mass() - 2.0) < 1e-12
    # boundary: one square loop at each of the two heights
    chain = T.boundary()
    assert len(chain) == 2 * 4 * 3  # two squares, 4 sides, 3 edges per side
    assert all(abs(c) == 1 for c in chain.values())


def test_zero_boundary_chain_is_q_square():
    for q in (1, 2):
        g = currents.random_lipschitz_graph(7 + q, 1.5, q, unit_mesh(5))
        assert g.is_zero_boundary()
        assert currents.graph_boundary_is_q_square(g)


def test_closed_surface_empty_boundary():
    # a flat square traversed with opposite orientations cancels entirely
    g = currents.affine_graph(unit_mesh(2), [(1, np.zeros(2), np.zeros((2, 2)))])
    T = currents.triangulate(g)
    reversed_T = currents.TriangulatedCurrent(T.verts[:, [0, 2, 1], :], T.mults)
    both = T.concatenated(reversed_T)
    assert both.boundary() == {}


def test_branched_boundary_two_circles():
    B = currents.branched_graph(2, 0.8, 1.0, n_r=8, n_theta=24)
    loop = currents.disk_boundary_loop(24)
    assert B.boundary_equals_loop(loop, 2)
    assert not B.boundary_equals_loop(loop, 1)


def test_gaussian_barycenter_stokes(rng):
    # zero-boundary graphs: barycenter of the Gaussian image is Q |D| e12
    for q in (1, 2, 3):
        g = currents.random_lipschitz_graph(int(rng.integers(1e6)), 2.0, q, unit_mesh(5))
        T = currents.triangulate(g)
        bary = T.gaussian_image().barycenter()
        assert np.linalg.norm(bary - q * E12) <= 1e-8


def test_partition_flat_all_horizontal():
    g = currents.affine_graph(unit_mesh(3), [(2, np.zeros(2), np.zeros((2, 2)))])
    T = currents.triangulate(g)
    pm, parts = T.partition(0.1)
    assert pm.mH == pytest.approx(T.mass())
    assert pm.mV == 0.0 and pm.mM == 0.0
    assert parts[exterior.HORIZONTAL].n_triangles == T.n_triangles


def test_partition_additivity(rng):
    g = currents.random_lipschitz_graph(99, 3.0, 2, unit_mesh(6))
    T = currents.triangulate(g)
    pm, _ = T.partition(0.1)
    assert abs(pm.total() - T.mass()) <= 1e-10


def test_partition_x1_affine_classification(bundle01):
    # the v1-plane at eps = 0.1: check against a direct SVD of the blocks
    g = currents.affine_graph(unit_mesh(2), [(1, np.zeros(2), bundle01.X[0])])
    T = currents.triangulate(g)
    labels = set(T.classify_triangles(0.1))
    expected = exterior.classify_bivector(bundle01.v[0], 0.1)
    assert labels == {expected}


def test_partition_vertical_after_squeeze(bundle01):
    # plateau with the third lift gradient: after the squeeze the plateau
    # tangents coincide with the vertical w3-plane
    g = currents.ray_plateau_graph(bundle01.X[2], 1, unit_mesh(12))
    T = currents.triangulate(g).pushforward(np.diag([1, 1, 0.1, 0.1]))
    pm, _ = T.partition(0.1)
    assert pm.mV > 0.0


def test_pushforward_identity(rng):
    g = currents.random_lipschitz_graph(5, 1.0, 1, unit_mesh(4))
    T = currents.triangulate(g)
    T2 = T.pushforward(np.eye(4))
    assert np.allclose(T.verts, T2.verts)
    with pytest.raises(ValueError):
        T.pushforward(np.zeros((4, 4)))


def test_tangential_jacobian_identity(bundle01):
    R = np.diag([1.0, 1.0, 0.1, 0.1])
    nv = np.linalg.norm(bundle01.v, axis=1)
    nw = np.linalg.norm(bundle01.w, axis=1)
    for i in range(3):
        tri = np.array([np.zeros(4), bundle01.u[i, 0], bundle01.u[i, 0] + bundle01.u[i, 1]])
        T = currents.TriangulatedCurrent(tri[None, :, :], [1])
        ratio = T.pushforward(R).mass() / T.mass()
        assert abs(ratio - nw[i] / nv[i]) <= 1e-12


def test_squeeze_pushforward_is_scaled_graph(rng):
    # the squeeze of the graph of f is the graph of eps * f
    eps = 0.1
    mesh = unit_mesh(4)
    nodal = rng.normal(size=(5, 5, 2)) * 0.5
    nodal[0, :, :] = nodal[-1, :, :] = nodal[:, 0, :] = nodal[:, -1, :] = 0.0
    g1 = currents.FunctionalQGraph.from_nodal_sheets(mesh, [(1, nodal)])
    g2 = currents.FunctionalQGraph.from_nodal_sheets(mesh, [(1, eps * nodal)])
    T1 = currents.triangulate(g1).pushforward(np.diag([1, 1, eps, eps]))
    T2 = currents.triangulate(g2)
    assert abs(T1.mass() - T2.mass()) <= 1e-10
    assert np.allclose(np.sort(T1.verts, axis=0), np.sort(T2.verts, axis=0), atol=1e-12)


def test_gauss_image_pushforward_identity(rng):
    # atomwise: gamma_{L T} = L_sharp gamma_{(J_T L) T}
    g = currents.random_lipschitz_graph(11, 1.0, 1, unit_mesh(3))
    T = currents.triangulate(g)
    L = np.diag([1.0, 1.0, 0.3, 0.3])
    lhs = T.pushforward(L).gaussian_image()
    wedge_action = np.array([1.0, 0.3, 0.3, 0.3, 0.3, 0.09])
    tw = T.tangent_wedges() * wedge_action[None, :]
    nrm = np.linalg.norm(tw, axis=1)
    jac = nrm / (2.0 * T.areas())
    rhs_points = tw / nrm[:, None]
    rhs_weights = jac * T.mults * T.areas()
    assert np.allclose(lhs.points, rhs_points, atol=1e-10)
    assert np.allclose(lhs.weights, rhs_weights, atol=1e-10)


def test_slice_flat_disk():
    D = currents.flat_disk_current(n_r=16, n_theta=96)
    assert abs(D.slice_mass(np.zeros(4), 0.5) - math.pi) < 1e-10
    assert D.slice_mass(np.zeros(4), 5.0) == 0.0


def test_slice_respects_multiplicity():
    D = currents.flat_disk_current(n_r=8, n_theta=32)
    D2 = currents.TriangulatedCurrent(D.verts, D.mults * 3)
    assert abs(D2.slice_mass(np.zeros(4), 0.5) - 3 * D.slice_mass(np.zeros(4), 0.5)) < 1e-12


def test_coarea_inequality_flat_and_branched():
    r = 0.25
    for T in (
        currents.flat_disk_current(n_r=16, n_theta=48),
        currents.branched_graph(2, 1.0, 1.0, n_r=16, n_theta=48),
    ):
        rhos = np.linspace(r, 2 * r, 41)
        vals = [T.slice_mass(np.zeros(4), rho) for rho in rhos]
        integral = np.trapezoid(vals, rhos)
        ball = T.mass_in_ball(np.zeros(4), 2 * r, subdiv=24)
        assert integral <= ball * 1.02 + 1e-8


def test_projection_multiplicity_bound(rng):
    for q in (1, 2, 3):
        g = currents.random_lipschitz_graph(200 + q, 2.0, q, unit_mesh(5))
        T = currents.triangulate(g)
        pm, parts = T.partition(0.1)
        proj = parts[exterior.HORIZONTAL].projected_mass_h()
        assert proj <= q * 1.0 + 1e-8


def test_generator_determinism():
    a = currents.random_lipschitz_graph(42, 2.0, 2, unit_mesh(5))
    b = currents.random_lipschitz_graph(42, 2.0, 2, unit_mesh(5))
    Ta, Tb = currents.triangulate(a), currents.triangulate(b)
    assert np.array_equal(Ta.verts, Tb.verts)


def test_degenerate_triangle_rejected():
    tri = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [2, 0, 0, 0]], dtype=float)
    with pytest.raises(ValueError):
        currents.TriangulatedCurrent(tri[None, :, :], [1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertices_rejected(bad):
    tri = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
    tri[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        currents.TriangulatedCurrent(tri[None, :, :], [1])
    currents.TriangulatedCurrent(tri[None, :, :], [1], validate=False)


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6])
def test_slice_mass_outside_circle_at_every_scale(scale):
    # the circle of radius 0.4 about (-0.5, 0.3) misses the unit triangle
    tri = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
    T = currents.TriangulatedCurrent(scale * tri[None, :, :], [1])
    assert T.slice_mass(scale * np.array([-0.5, 0.3, 0.0, 0.0]), 0.4 * scale) == 0.0
    inside = T.slice_mass(scale * np.array([0.3, 0.3, 0.0, 0.0]), 0.2 * scale)
    assert inside == pytest.approx(2 * math.pi * 0.2 * scale, rel=1e-12)


def test_chain_report_on_suites(bundle01):
    eps = 0.1
    worst0 = worst1 = np.inf
    suite = []
    for q in (1, 2):
        suite.append((q, currents.triangulate(
            currents.random_lipschitz_graph(300 + q, 2.0, q, unit_mesh(6))), 1.0))
    suite.append((1, currents.triangulate(
        currents.steep_plateau_graph(4.0, 1, unit_mesh(12))), 1.0))
    for i in range(3):
        suite.append((1, currents.triangulate(
            currents.ray_plateau_graph(bundle01.X[i], 1, unit_mesh(12))), 1.0))
    A = currents.polygon_disk_area(24)
    suite.append((2, currents.branched_graph(2, 1.0, 1.0, n_r=8, n_theta=24), A))
    for q, T, area in suite:
        rep = currents.chain_report(T, q, eps, domain_area=area)
        worst0 = min(worst0, rep["est0_value"], rep["est0_exact_atoms"])
        worst1 = min(worst1, rep["est1_slack"])
    assert worst0 >= -1e-8
    assert worst1 >= -1e-8


@pytest.mark.parametrize("t", [2.5, 3.0, 4.0, 6.0])
def test_steep_plateau_nodal_values(t):
    # t * ramp * (y - c_y, x - c_x): the plateau gradient t [[0, 1], [1, 0]]
    # faded out over the ramp ring; two roundings each way, so 2 ulp apart
    mesh = currents.Mesh(x0=(0.2, -0.1), r=1.3, n=9)
    g = currents.steep_plateau_graph(t, 2, mesh)
    nodes, c = mesh.nodes_array(), np.array(mesh.x0)
    s_in = 0.35 * mesh.r / 2.0
    s_out = s_in + 0.2 * mesh.r
    dist = np.maximum(np.abs(nodes[..., 0] - c[0]), np.abs(nodes[..., 1] - c[1]))
    ramp = np.clip((s_out - dist) / (s_out - s_in), 0.0, 1.0)
    expected = t * ramp[..., None] * np.stack([nodes[..., 1] - c[1], nodes[..., 0] - c[0]], -1)
    assert np.array_equal(g.mults, [1, 1])
    assert np.allclose(g.vals, expected, rtol=2.0**-51, atol=0.0)
    assert np.count_nonzero(g.vals) > 0


def test_ratio_lower_bound_where_vertical(bundle01):
    eps = 0.1
    for T in (
        currents.triangulate(currents.steep_plateau_graph(4.0, 1, unit_mesh(12))),
        currents.triangulate(currents.steep_plateau_graph(3.0, 2, unit_mesh(16))),
        currents.branched_graph(2, 8.0, 1.0, n_r=12, n_theta=24),
    ):
        pm, _ = T.partition(eps)
        if pm.mV > 0:
            assert pm.mM / pm.mV >= 1.0 / 200.0 - 1e-8


def test_graph_evaluation_and_trace():
    mesh = unit_mesh(3)
    X = np.array([[0.5, 0.0], [0.0, -0.25]])
    g = currents.affine_graph(mesh, [(2, np.array([1.0, 2.0]), X)])
    x = np.array([0.21, -0.37])
    expected = np.tile(np.array([1.0, 2.0]) + X @ x, (2, 1))
    assert g_metric(g.values_at(x), expected) < 1e-12


# -- reference: per-node, per-triangle and per-point loops ---------------------


def _ref_affine_vals(mesh, parts):
    x0 = np.array(mesh.x0, dtype=float)
    vals = np.zeros((len(parts), mesh.n + 1, mesh.n + 1, 2))
    for s, (_m, a, X) in enumerate(parts):
        a, X = np.asarray(a, float), np.asarray(X, float)
        for i in range(mesh.n + 1):
            for j in range(mesh.n + 1):
                vals[s, i, j] = a + X @ (mesh.node(i, j) - x0)
    return vals


def _ref_gradients(mesh, vals):
    """Per triangle (T, J, 2, 2): X with X (p_m - p_0) = f_m - f_0, as F @ inv(E)."""
    h = mesh.h
    grads = []
    for i in range(mesh.n):
        for j in range(mesh.n):
            for t in (0, 1):
                (o0, o1, o2) = currents.TRI_NODES[t]
                E = np.array(
                    [
                        [(o1[0] - o0[0]) * h, (o2[0] - o0[0]) * h],
                        [(o1[1] - o0[1]) * h, (o2[1] - o0[1]) * h],
                    ]
                )
                row = []
                for v in vals:
                    f0 = v[i + o0[0], j + o0[1]]
                    F = np.stack([v[i + o1[0], j + o1[1]] - f0, v[i + o2[0], j + o2[1]] - f0],
                                 axis=1)
                    row.append(F @ np.linalg.inv(E))
                grads.append(row)
    return np.array(grads)


def _ref_triangulate(mesh, mults, vals):
    verts = []
    tri_mults = []
    for k in range(2 * mesh.n * mesh.n):
        i, j, t = k // 2 // mesh.n, k // 2 % mesh.n, k % 2
        nodes = [(i + o[0], j + o[1]) for o in currents.TRI_NODES[t]]
        for mult, v in zip(mults, vals):
            verts.append(np.array([np.concatenate([mesh.node(*nd), v[nd]]) for nd in nodes]))
            tri_mults.append(mult)
    return np.array(verts), np.array(tri_mults)


def _ref_psi_bar(mesh, mults, grads, cfg):
    tri_area = 0.5 * mesh.h * mesh.h
    Xs = [X for row in grads for X in row]
    wts = [m * tri_area for _row in grads for m in mults]
    return float(np.array(wts) @ energy.psi_batch(np.array(Xs), cfg))


def _ref_values_at(mesh, mults, vals, x):
    """P1 interpolation point by point: barycentric weights in the cell's triangle."""
    out = []
    for p in x:
        rel = (p - mesh.origin) / mesh.h
        i, j = (int(min(max(math.floor(c), 0), mesh.n - 1)) for c in rel)
        u, v = rel[0] - i, rel[1] - j
        sheets = []
        for m, f in zip(mults, vals):
            f00, f10, f11, f01 = f[i, j], f[i + 1, j], f[i + 1, j + 1], f[i, j + 1]
            if v <= u:
                val = f00 + u * (f10 - f00) + v * (f11 - f10)
            else:
                val = f00 + u * (f11 - f01) + v * (f01 - f00)
            sheets += [val] * m
        out.append(sheets)
    return np.array(out)


def _assert_matches_reference(g, mults, vals, cfg):
    assert np.array_equal(g.mults, mults)
    assert np.array_equal(g.vals, vals)
    grads = _ref_gradients(g.mesh, vals)
    assert np.array_equal(g.X, grads)
    T = currents.triangulate(g)
    verts, tri_mults = _ref_triangulate(g.mesh, mults, vals)
    assert np.array_equal(T.verts, verts) and np.array_equal(T.mults, tri_mults)
    assert energy.psi_bar_energy(g, cfg) == _ref_psi_bar(g.mesh, mults, grads, cfg)
    # the nodes themselves, then random points of the domain and a margin
    # outside it (located in the nearest cell)
    x = np.concatenate([g.mesh.nodes_array().reshape(-1, 2),
                        g.mesh.origin + g.mesh.r * np.random.default_rng(3).uniform(
                            -0.1, 1.1, size=(200, 2))])
    scale = max(1.0, float(np.abs(vals).max()))
    assert np.allclose(g.values_at(x), _ref_values_at(g.mesh, mults, vals, x),
                       rtol=0.0, atol=1e-13 * scale)


@pytest.fixture
def nodal_calls(monkeypatch):
    """Record the nodal values of every from_nodal_sheets call."""
    calls = []
    build = currents.FunctionalQGraph.from_nodal_sheets.__func__

    def recording(cls, mesh, nodal_list):
        calls.append(nodal_list)
        return build(cls, mesh, nodal_list)

    monkeypatch.setattr(currents.FunctionalQGraph, "from_nodal_sheets", classmethod(recording))
    return calls


def test_array_layout_matches_triangle_loops(bundle01, cfg01, nodal_calls):
    graphs = [
        currents.random_lipschitz_graph(40 + q + n, 2.0, q, unit_mesh(n))
        for q in (1, 2, 4)
        for n in (3, 6)
    ]
    graphs.append(currents.steep_plateau_graph(4.0, 2, unit_mesh(6)))
    graphs.append(currents.ray_plateau_graph(bundle01.X[2], 1, unit_mesh(6)))
    assert len(nodal_calls) == len(graphs)
    for g, nodal in zip(graphs, nodal_calls):
        _assert_matches_reference(g, [m for m, _v in nodal], np.array([v for _m, v in nodal]),
                                  cfg01)


def test_affine_layout_matches_triangle_loops(cfg01, rng):
    mesh = currents.Mesh(x0=(0.3, -0.2), r=1.5, n=5)
    parts = [(int(m), rng.normal(size=2), rng.normal(size=(2, 2))) for m in (1, 3)]
    _assert_matches_reference(currents.affine_graph(mesh, parts), [m for m, _a, _X in parts],
                              _ref_affine_vals(mesh, parts), cfg01)


@pytest.mark.parametrize(
    "shape, mults",
    [((2, 4, 4, 2), [1, 1]), ((1, 5, 5, 2), [1, 1]), ((2, 5, 5, 3), [1, 1]), ((5, 5, 2), [1])],
    ids=["mesh-size", "sheet-count", "value-dim", "no-sheet-axis"],
)
def test_nodal_values_must_match_mesh_and_mults(shape, mults):
    with pytest.raises(ValueError, match="do not match the mesh and the multiplicities"):
        currents.FunctionalQGraph(unit_mesh(4), mults, np.zeros(shape))


def test_current_json_roundtrip():
    T = currents.branched_graph(2, 0.5, 1.0, n_r=4, n_theta=12)
    T2 = currents.TriangulatedCurrent.from_json_obj(T.to_json_obj())
    assert abs(T.mass() - T2.mass()) < 1e-9
    assert T2.boundary() == T.boundary()
