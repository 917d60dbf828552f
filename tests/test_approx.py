import dataclasses
import math

import numpy as np
import pytest

from anisoq import approx as ap
from anisoq.multipoint import QJet, QPoint, g_metric
from tests.test_multipoint import _pairwise_g_metric


def test_profiles_lipschitz_increments():
    for f in (ap.smooth_profile(), ap.twosheet_profile(), ap.branched_profile()):
        assert f.check_increments(seed=11)


def test_profile_jets_match_fd():
    f = ap.smooth_profile()
    x = np.array([0.17, -0.23])
    jet = f.jet(x)
    h = 1e-6
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        fd = (f.parts[0][1](x + e) - f.parts[0][1](x - e)) / (2 * h)
        assert np.allclose(jet.grads()[0][:, k], fd, atol=1e-8)


def test_branched_profile_matched_fd_jet():
    f = ap.branched_profile()
    jet = f.jet(np.array([0.2, 0.1]))
    assert isinstance(jet, QJet)
    assert jet.values().shape == (2, 2)


def test_interpolant_same_constant():
    const = np.array([0.7, -0.3])
    inner = [(2, (const, np.zeros((2, 2))))]
    outer = [(2, (const, np.zeros((2, 2))))]
    I = ap.interpolate_annulus(inner, outer, np.zeros(2), 0.4, 0.5)
    for x in (np.array([0.21, 0.05]), np.array([-0.28, 0.28])):
        assert np.allclose(I.part_value(x, 0), const)


def test_interpolant_affine_both_sides():
    a, X = np.array([1.0, 2.0]), np.array([[0.3, -0.1], [0.2, 0.5]])
    I = ap.interpolate_annulus(
        [(1, (a, X))], [(1, (a, X))], np.zeros(2), 0.5, 0.4
    )
    for x in (np.array([0.3, 0.1]), np.array([-0.33, 0.2])):
        assert np.allclose(I.part_value(x, 0), a + X @ x, atol=1e-14)
    assert I.trace_error() <= 1e-12


def test_interpolant_trace_and_lipschitz_families():
    f = ap.smooth_profile()
    r, sigma = 0.5, 0.3
    cases = []
    # smooth inner against a perturbed affine outer at several gap sizes
    for s in (0.0, 0.1, 0.4):
        outer = [(1, (np.array([s, 0.2]), np.array([[0.1, 0.0], [0.0, -0.1]])))]
        cases.append((([(1, f.parts[0][1])]), outer, f.lipschitz, 0.1 * np.sqrt(2)))
    for inner, outer, lf, lg in cases:
        I = ap.interpolate_annulus(inner, outer, np.zeros(2), r, sigma)
        assert I.trace_error() <= 1e-12
        gap = I.boundary_gap()
        bound = 10.0 * (lf + lg + gap / (sigma * r))
        assert I.measured_lipschitz() <= bound


def test_interpolant_multiplicity_mismatch():
    with pytest.raises(ValueError, match="not sheetwise-decomposable"):
        ap.interpolate_annulus(
            [(1, (np.zeros(2), np.zeros((2, 2))))],
            [(2, (np.zeros(2), np.zeros((2, 2))))],
            np.zeros(2), 0.5, 0.3,
        )


def _affine_profile(a, X):
    a = np.asarray(a, float)
    X = np.asarray(X, float)

    def fn(x):
        x = np.asarray(x, dtype=float)
        return a + np.einsum("ab,...b->...a", X, x)

    def grad(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(X, x.shape[:-1] + (2, 2)).copy()

    return ap.SampledLipschitzQMap(
        q=1, lipschitz=float(np.linalg.norm(X, 2)) + 0.1,
        domain_center=np.zeros(2), domain_side=1.0, parts=[(1, fn, grad)],
    )


def test_subdivision_affine_exact():
    f = _affine_profile([0.5, -1.0], [[0.2, 0.1], [0.0, -0.3]])
    sub = ap.cubic_subdivision(f, 0.25)
    assert sub.ok
    assert sub.dropped == 0
    assert sub.uncovered <= 0.25 * 1.0
    # every cube model is exact
    assert np.allclose(sub.part_X, np.array([[0.2, 0.1], [0.0, -0.3]]), atol=1e-12)
    # single pass: no halving beyond the first attempt
    assert len(sub.diagnostics["attempts"]) == 1


def test_subdivision_smooth_taylor_remainder():
    f = ap.smooth_profile()
    delta = 0.2
    sub = ap.cubic_subdivision(f, delta)
    assert sub.ok and sub.dropped == 0
    # Taylor remainder oracle: sup gap per cube <= 0.5 * ||H|| * (2r)^2 with
    # the Hessian bound ||H|| <= amp * pi^2 * 2
    hess = 0.2 * np.pi**2 * 2.0
    assert 0.5 * hess * (2 * sub.r) ** 2 <= delta * sub.r or sub.r < delta / 2


def test_subdivision_models_match_jets():
    f = ap.smooth_profile()
    sub = ap.cubic_subdivision(f, 0.2)
    row = sub.n_cubes // 2
    z = sub.centers[row]
    jet = f.jet(z)
    assert np.allclose(sub.part_a[row, 0], jet.values()[0], atol=1e-3)
    assert np.allclose(sub.part_X[row, 0], jet.grads()[0], atol=1e-2)


def test_subdivision_twosheet_multiplicities():
    f = ap.twosheet_profile()
    sub = ap.cubic_subdivision(f, 0.25)
    assert sub.ok
    assert tuple(sub.part_mults) == (1, 1)
    md = ap.decomposition_of_cube(sub, 0, tol=1e-6)
    assert md.multiplicities == [1, 1]


def test_subdivision_lattice_margin():
    f = ap.smooth_profile()
    sub = ap.cubic_subdivision(f, 0.2)
    # every cube keeps the 3r margin inside the domain
    for z in sub.centers:
        assert np.max(np.abs(z)) + 1.5 * sub.r <= 0.5 + 1e-12


def test_subdivision_rejects_bad_delta():
    with pytest.raises(ValueError):
        ap.cubic_subdivision(ap.smooth_profile(), 1.5)


def test_sequence_affine_energy_exact(cfg01):
    f = _affine_profile([0.0, 0.0], [[0.3, 0.0], [0.0, 0.2]])
    e_ref = ap.energy_of_map(f, cfg01)
    g, rep = ap.piecewise_affine_sequence(f, 4, cfg01)
    assert abs(rep["energy_psi_bar"] - e_ref) <= 1e-9
    assert rep["boundary_trace_error"] <= 1e-9


def test_sequence_smooth_bounds_and_convergence(cfg01):
    f = ap.smooth_profile()
    e_ref = ap.energy_of_map(f, cfg01)
    errs = []
    lips = []
    for k in (4, 8, 16):
        g, rep = ap.piecewise_affine_sequence(f, k, cfg01)
        assert rep["bad_set_full"] <= 2.0 / k
        assert rep["bad_set_shrunk"] <= 3.0 / k
        assert rep["boundary_trace_error"] <= 1e-9
        assert rep["lipschitz"] <= rep["lip_bound"]
        errs.append(abs(rep["energy_psi_bar"] - e_ref))
        lips.append(rep["lipschitz"])
    assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    # uniform Lipschitz across k
    assert max(lips) <= 10.0 * (f.lipschitz + 2.0)


def test_sequence_region_structure(cfg01):
    f = ap.twosheet_profile()
    g, rep = ap.piecewise_affine_sequence(f, 4, cfg01)
    row = g.sub.n_cubes // 3
    z = g.sub.centers[row]
    assert g.region_of(z)[0] == "cube"
    edge = z + np.array([0.5 * g.sub.r * (1 - 0.5 / g.k), 0.0])
    assert g.region_of(edge)[0] == "collar"
    corner = g.sub.domain_center + 0.499 * g.sub.domain_side * np.ones(2)
    assert g.region_of(corner)[0] == "outside"
    # continuity across the collar: values at the cube face agree with f
    face = z + np.array([0.5 * g.sub.r, 0.0])
    assert g_metric(g(face), f(face)) <= 1e-9


def test_hybrid_requires_parts(cfg01):
    f = ap.branched_profile()
    with pytest.raises((ValueError, RuntimeError)):
        ap.piecewise_affine_sequence(f, 4, cfg01)


# -- the scalar evaluation path that part_values and the stacked Lipschitz
# checks replaced, kept here as a reference --------------------------------


def _old_sup_radius(x, c):
    d = np.asarray(x, dtype=float) - c
    return float(max(abs(d[0]), abs(d[1])))


class _OldHybrid:
    """g_k evaluated one point at a time through a dict of kept lattice cells."""

    def __init__(self, g):
        self.g, self.sub = g, g.sub
        self.kept = {(int(a), int(b)): int(self.sub.lattice[a, b])
                     for a, b in np.argwhere(self.sub.lattice >= 0)}

    def region_of(self, x):
        sub = self.sub
        rel = (np.asarray(x, dtype=float) - sub.lattice_origin) / sub.r
        row = self.kept.get((int(math.floor(rel[0])), int(math.floor(rel[1]))))
        if row is None or _old_sup_radius(x, sub.centers[row]) > 0.5 * sub.r:
            return "outside", None
        if _old_sup_radius(x, sub.centers[row]) <= 0.5 * self.g.shrink * sub.r:
            return "cube", row
        return "collar", row

    def part_value(self, x, j):
        g, x = self.g, np.asarray(x, dtype=float)
        where, row = self.region_of(x)
        if where == "outside":
            return np.asarray(g.f.parts[j][1](x), dtype=float)
        z = g.sub.centers[row]
        model = g.sub.part_a[row, j] + g.sub.part_X[row, j] @ (x - z)
        if where == "cube":
            return model
        s_in = 0.5 * g.shrink * g.sub.r
        s_out = 0.5 * g.sub.r
        t = np.clip((_old_sup_radius(x, z) - s_in) / (s_out - s_in), 0.0, 1.0)
        outer = np.asarray(g.f.parts[j][1](x), dtype=float)
        return t * outer + (1.0 - t) * model

    def __call__(self, x):
        rows = []
        for j, (m, _fn, _g) in enumerate(self.g.f.parts):
            rows.extend([self.part_value(x, j)] * m)
        return np.array(rows)


def _hybrid(f, k, drop=()):
    """g_k on f's subdivision at delta = 1/k, with the listed lattice cells dropped."""
    sub = ap.cubic_subdivision(f, 1.0 / k)
    lattice = sub.lattice.copy()
    for i, j in drop:
        lattice[i, j] = -1
    return ap.HybridQMap(f, dataclasses.replace(sub, lattice=lattice), k)


@pytest.mark.parametrize("profile", [ap.smooth_profile, ap.twosheet_profile])
def test_part_values_match_scalar_regions(profile):
    g = _hybrid(profile(), 4, drop=[(0, 0), (2, 3)])
    sub = g.sub
    r, m, o = sub.r, sub.lattice_m, sub.lattice_origin
    s_in = 0.5 * g.shrink * r
    rng = np.random.default_rng(5)
    z = sub.centers[[1, sub.n_cubes // 2, sub.n_cubes - 1]]
    dropped = o + r * (np.array([[0.5, 0.5], [2.5, 3.5], [2.1, 3.9]]))
    edges = o + r * np.array([[0, 0], [1, 2], [m, m], [m, 1], [3, m - 1], [m / 2, 0]], float)
    pts = np.concatenate([
        z,  # cube centres
        # shrunken-cube faces, collar, full-cube faces
        (z[:, None] + [[s_in, 0.0], [0.0, -s_in], [s_in * (1 + 1e-12), s_in], [0.5 * r, 0.0],
                       [-0.5 * r, 0.5 * r]]).reshape(-1, 2),
        z + 0.5 * r * rng.uniform(-1, 1, (3, 2)),
        dropped,
        edges, edges - 1e-15, edges + 1e-15,  # lattice lines and the lattice's edge
        [[0.5, 0.5], [-0.5, 0.1], [0.49, -0.49], [0.0, 0.0]],  # domain boundary, outside
        rng.uniform(-0.5, 0.5, (200, 2)),
    ])
    old = _OldHybrid(g)
    regions = [old.region_of(x) for x in pts]
    assert {w for w, _row in regions} == {"cube", "collar", "outside"}
    assert [g.region_of(x) for x in pts] == regions
    ref = [[old.part_value(x, j) for j in range(len(g.f.parts))] for x in pts]
    assert np.array_equal(g.part_values(pts), np.array(ref))
    assert np.array_equal(g.values_at(pts), np.array([old(x) for x in pts]))
    assert g(pts[0]) == QPoint(old(pts[0]))


@pytest.mark.parametrize("k", [4, 8])
@pytest.mark.parametrize("profile", [ap.smooth_profile, ap.twosheet_profile])
def test_measured_lipschitz_matches_double_loop(profile, k):
    g = _hybrid(profile(), k)
    old = _OldHybrid(g)
    grid_m = 64
    c, s = g.sub.domain_center, g.sub.domain_side
    xs = np.linspace(-0.5, 0.5, grid_m + 1) * s
    vals = [[old(c + np.array([a, b])) for b in xs] for a in xs]
    h = s / grid_m
    best = 0.0
    for i in range(grid_m + 1):
        for j in range(grid_m + 1):
            if i + 1 <= grid_m:
                best = max(best, _pairwise_g_metric(vals[i][j], vals[i + 1][j]) / h)
            if j + 1 <= grid_m:
                best = max(best, _pairwise_g_metric(vals[i][j], vals[i][j + 1]) / h)
    assert g.measured_lipschitz(grid_m) == best


def _old_annulus_lipschitz(I, n_perim=96, n_rad=8):
    best = 0.0
    radii = np.linspace(I.s_in, I.s_out, n_rad + 1)
    taus = np.arange(n_perim) / n_perim
    pts = np.empty((n_rad + 1, n_perim, 2))
    for a, s in enumerate(radii):
        for b, tau in enumerate(taus):
            pts[a, b] = I._perimeter_point(s, tau)
    vals = [[I(pts[a, b]).points for b in range(n_perim)] for a in range(n_rad + 1)]
    for a in range(n_rad + 1):
        for b in range(n_perim):
            nb = (b + 1) % n_perim
            d = np.linalg.norm(pts[a, b] - pts[a, nb])
            if d > 1e-14:
                best = max(best, _pairwise_g_metric(vals[a][b], vals[a][nb]) / d)
            if a + 1 <= n_rad:
                d = np.linalg.norm(pts[a, b] - pts[a + 1, b])
                if d > 1e-14:
                    best = max(best, _pairwise_g_metric(vals[a][b], vals[a + 1][b]) / d)
    return best


def test_annulus_lipschitz_matches_double_loop():
    f = ap.smooth_profile()
    const, a, X = np.array([0.7, -0.3]), np.array([1.0, 2.0]), np.array([[0.3, -0.1], [0.2, 0.5]])
    cases = [
        ([(2, (const, np.zeros((2, 2))))], [(2, (const, np.zeros((2, 2))))], 0.4, 0.5),
        ([(1, (a, X))], [(1, (a, X))], 0.5, 0.4),
    ]
    for s in (0.0, 0.1, 0.4):
        outer = [(1, (np.array([s, 0.2]), np.array([[0.1, 0.0], [0.0, -0.1]])))]
        cases.append(([(1, f.parts[0][1])], outer, 0.5, 0.3))
    cases.append(([(1, f.parts[0][1]), (1, (a, X))], [(1, (const, X)), (1, f.parts[0][1])],
                  0.5, 0.3))
    for inner, outer, r, sigma in cases:
        I = ap.interpolate_annulus(inner, outer, np.zeros(2), r, sigma)
        assert I.measured_lipschitz() == _old_annulus_lipschitz(I)
    # a degenerate ring whose neighbours coincide is skipped, not divided by
    I = ap.interpolate_annulus(*cases[2][:2], np.zeros(2), 0.5, 0.3)
    assert I.measured_lipschitz(n_perim=1, n_rad=2) == _old_annulus_lipschitz(I, 1, 2)
