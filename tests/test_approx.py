import dataclasses
import math

import numpy as np
import pytest

from anisoq import approx as ap
from anisoq.multipoint import g_metric
from tests.test_multipoint import _pairwise_g_metric


def test_profiles_lipschitz_increments():
    for f in (ap.smooth_profile(), ap.twosheet_profile()):
        assert f.check_increments(seed=11)


def _old_check_increments(f, seed, n_pairs=200, tol=1e-9):
    """The per-pair loop that the stacked check_increments replaced."""
    rng = np.random.default_rng(seed)
    c, s = f.domain_center, f.domain_side
    for _ in range(n_pairs):
        x, y = c + s * (rng.random((2, 2)) - 0.5)
        if _pairwise_g_metric(f.values_at(x), f.values_at(y)) > \
                f.lipschitz * np.linalg.norm(x - y) + tol:
            return False
    return True


@pytest.mark.parametrize("profile", [ap.smooth_profile, ap.twosheet_profile])
def test_check_increments_matches_pairwise_loop(profile):
    f = profile()
    for seed in (0, 11):
        for n_pairs in (1, 3, 200):
            # the largest increment ratio over the pairs, in the loop's draw order:
            # constants just above it pass, just below it fail
            rng = np.random.default_rng(seed)
            pairs = [f.domain_center + f.domain_side * (rng.random((2, 2)) - 0.5)
                     for _ in range(n_pairs)]
            crit = max(_pairwise_g_metric(f.values_at(x), f.values_at(y))
                       / np.linalg.norm(x - y) for x, y in pairs)
            verdicts = []
            for lip in (f.lipschitz, 1.001 * crit, 0.999 * crit, 0.0):
                g = dataclasses.replace(f, lipschitz=lip)
                verdicts.append(g.check_increments(seed, n_pairs))
                assert verdicts[-1] == _old_check_increments(g, seed, n_pairs)
            assert verdicts == [True, True, False, False]


def test_profile_jets_match_fd():
    f = ap.smooth_profile()
    x = np.array([0.17, -0.23])
    grad = f.part_grads(x)[0]
    h = 1e-6
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        fd = (f.parts[0][1](x + e) - f.parts[0][1](x - e)) / (2 * h)
        assert np.allclose(grad[:, k], fd, atol=1e-8)


def test_interpolant_same_constant():
    const = np.array([0.7, -0.3])
    inner = [(2, (const, np.zeros((2, 2))))]
    outer = [(2, (const, np.zeros((2, 2))))]
    I = ap.interpolate_annulus(inner, outer, np.zeros(2), 0.4, 0.5)
    for x in (np.array([0.21, 0.05]), np.array([-0.28, 0.28])):
        assert np.allclose(I.part_values(x)[0], const)


def test_interpolant_affine_both_sides():
    a, X = np.array([1.0, 2.0]), np.array([[0.3, -0.1], [0.2, 0.5]])
    I = ap.interpolate_annulus(
        [(1, (a, X))], [(1, (a, X))], np.zeros(2), 0.5, 0.4
    )
    for x in (np.array([0.3, 0.1]), np.array([-0.33, 0.2])):
        assert np.allclose(I.part_values(x)[0], a + X @ x, atol=1e-14)
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
    assert np.allclose(sub.part_a[row, 0], f.part_values(z)[0], atol=1e-3)
    assert np.allclose(sub.part_X[row, 0], f.part_grads(z)[0], atol=1e-2)


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
    assert g_metric(g.values_at(face), f.values_at(face)) <= 1e-9


def test_hybrid_requires_parts():
    sub = ap.cubic_subdivision(ap.twosheet_profile(), 0.25)
    with pytest.raises(ValueError, match="^cube model multiplicities do not match the map parts$"):
        ap.HybridQMap(ap.smooth_profile(), sub, 4)


def test_map_requires_parts_with_gradients():
    f = ap.twosheet_profile()
    fields = dict(q=2, lipschitz=1.0, domain_center=np.zeros(2), domain_side=1.0)
    for parts in (None, []):
        with pytest.raises(ValueError,
                           match="^not sheetwise-decomposable: the map carries no parts$"):
            ap.SampledLipschitzQMap(**fields, parts=parts)
    with pytest.raises(ValueError, match="^not sheetwise-decomposable: the map carries no parts$"):
        ap.SampledLipschitzQMap(**fields)
    no_grad = [f.parts[0], (1, f.parts[1][1], None)]
    with pytest.raises(ValueError,
                       match="^not sheetwise-decomposable: part 1 carries no gradient$"):
        ap.SampledLipschitzQMap(**fields, parts=no_grad)


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
    assert np.array_equal(g.values_at(pts[0]), old(pts[0]))


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
            pts[a, b] = ap._square_perimeter(I.center, s, tau)
    vals = [[I.values_at(pts[a, b]) for b in range(n_perim)] for a in range(n_rad + 1)]
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


# -- the scalar annulus path that part_values and the stacked diagnostics
# replaced, kept here as a reference ----------------------------------------


def _old_radial_project(x, c, s_half):
    d = np.asarray(x, dtype=float) - c
    nrm = max(abs(d[0]), abs(d[1]))
    if nrm == 0.0:
        return c + np.array([s_half, 0.0])
    return c + d * (s_half / nrm)


def _old_square_perimeter(c, s_half, tau):
    side, u = divmod(tau * 4.0, 1.0)
    side = int(side) % 4
    w = (2.0 * u - 1.0) * s_half
    if side == 0:
        return c + np.array([w, -s_half])
    if side == 1:
        return c + np.array([s_half, w])
    if side == 2:
        return c + np.array([-w, s_half])
    return c + np.array([-s_half, -w])


def _old_extend(datum, x):
    if datum.affine is not None:
        a, X = datum.affine
        return a + X @ (np.asarray(x, dtype=float) - datum.center)
    return np.asarray(datum.fn(_old_radial_project(x, datum.center, datum.s_half)), dtype=float)


def _old_annulus_part_value(I, x, j):
    t = float(np.clip((_old_sup_radius(x, I.center) - I.s_in) / (I.s_out - I.s_in), 0.0, 1.0))
    return t * _old_extend(I.outer[j], x) + (1.0 - t) * _old_extend(I.inner[j], x)


def _old_rows(data, mults, x):
    return np.array([_old_extend(d, x) for d, m in zip(data, mults) for _ in range(m)])


def _annulus_cases():
    f = ap.smooth_profile()
    const, a, X = np.array([0.7, -0.3]), np.array([1.0, 2.0]), np.array([[0.3, -0.1], [0.2, 0.5]])
    c = np.array([0.013, -0.021])
    return [
        ap.interpolate_annulus([(1, (a, X))], [(1, (const, 0.5 * X))], np.zeros(2), 0.5, 0.4),
        ap.interpolate_annulus([(1, f.parts[0][1])], [(1, (a, X))], c, 0.5, 0.3),
        ap.interpolate_annulus([(1, f.parts[0][1]), (2, (a, X))],
                               [(1, (const, X)), (2, f.parts[0][1])], c, 0.4, 0.5),
    ]


def _annulus_points(I, rng):
    taus = np.concatenate([np.arange(5) / 4, np.arange(96) / 96, rng.random(20)])
    return np.concatenate([
        [I.center],
        I.center + I.s_out * rng.uniform(-1.2, 1.2, (300, 2)),  # inside, annulus, outside
        *(I.center + s * np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]])
          for s in (I.s_in, I.s_out)),  # corners of both squares
        *(ap._square_perimeter(I.center, s, taus) for s in (I.s_in, I.s_out)),
    ])


def test_square_perimeter_and_radial_project_match_scalar_code():
    rng = np.random.default_rng(3)
    c = np.array([0.013, -0.021])
    taus = np.concatenate([np.arange(9) / 4, np.arange(64) / 64, rng.random(50)])
    for s in (0.2, 0.35, 0.5):
        ref = np.array([_old_square_perimeter(c, s, t) for t in taus])
        assert np.array_equal(ap._square_perimeter(c, s, taus), ref)
        assert np.array_equal(ap._square_perimeter(c, s, taus[5]), ref[5])
        pts = np.concatenate([[c], ref, c + rng.uniform(-1, 1, (200, 2)), c + [[s, 0], [0, -s]]])
        ref = np.array([_old_radial_project(x, c, s) for x in pts])
        assert np.array_equal(ap._radial_project(pts, c, s), ref)
        assert np.array_equal(ap._radial_project(pts[0], c, s), ref[0])
        assert np.array_equal(ap._radial_project(c, c, s), c + [s, 0.0])


def test_annulus_part_values_match_scalar_code():
    rng = np.random.default_rng(4)
    for I in _annulus_cases():
        pts = _annulus_points(I, rng)
        ref = np.array([[_old_annulus_part_value(I, x, j) for j in range(len(I.mults))]
                        for x in pts])
        assert np.array_equal(I.part_values(pts), ref)
        assert np.array_equal(I.part_values(pts.reshape(-1, 1, 2))[:, 0], ref)
        assert np.array_equal(I.values_at(pts), np.repeat(ref, I.mults, axis=-2))
        for row in (0, 7, len(pts) - 1):
            assert np.array_equal(I.part_values(pts[row]), ref[row])
            assert np.array_equal(I.values_at(pts[row]), np.repeat(ref[row], I.mults, axis=0))


def test_annulus_trace_error_and_gap_match_scalar_loops():
    for I in _annulus_cases():
        for n in (1, 4, 32, 64):
            err = gap = 0.0
            for k in range(n):
                xi = _old_square_perimeter(I.center, I.s_in, k / n)
                xo = _old_square_perimeter(I.center, I.s_out, k / n)
                for j in range(len(I.mults)):
                    err = max(
                        err,
                        float(np.linalg.norm(_old_annulus_part_value(I, xi, j)
                                             - _old_extend(I.inner[j], xi))),
                        float(np.linalg.norm(_old_annulus_part_value(I, xo, j)
                                             - _old_extend(I.outer[j], xo))),
                    )
                gap = max(gap, _pairwise_g_metric(_old_rows(I.inner, I.mults, xi),
                                                  _old_rows(I.outer, I.mults, xo)))
            assert I.trace_error(n) == err
            assert I.boundary_gap(n) == gap
