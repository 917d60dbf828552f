import itertools

import numpy as np
import pytest

from anisoq import construction, currents, exterior
from anisoq import gmeasures as gm

E12 = np.array([1.0, 0, 0, 0, 0, 0])
E34 = np.array([0.0, 0, 0, 0, 0, 1])


def random_unit_simple(rng):
    while True:
        w = exterior.wedge(rng.normal(size=4), rng.normal(size=4))
        n = np.linalg.norm(w)
        if n > 1e-6:
            return w / n


def exhaustive_equal_weight_distance(a, b, w):
    best = np.inf
    for perm in itertools.permutations(range(a.shape[0])):
        c = sum(w * np.linalg.norm(a[i] - b[p]) for i, p in enumerate(perm))
        best = min(best, c)
    return best


def test_barycenter_single_atom():
    mu = gm.GrassmannMeasure(E12[None, :], [1.0])
    assert np.allclose(mu.barycenter(), E12)


def test_barycenter_opposite_atoms():
    mu = gm.GrassmannMeasure(np.stack([E12, -E12]), [1.0, 1.0])
    assert np.allclose(mu.barycenter(), 0.0)


def test_barycenter_linear(rng):
    pts = np.stack([random_unit_simple(rng) for _ in range(4)])
    w1, w2 = rng.uniform(0.1, 2, size=4), rng.uniform(0.1, 2, size=4)
    m1 = gm.GrassmannMeasure(pts, w1)
    m2 = gm.GrassmannMeasure(pts, w2)
    m12 = gm.GrassmannMeasure(pts, w1 + w2)
    assert np.allclose(m1.barycenter() + m2.barycenter(), m12.barycenter())


def test_mu_barycenter(bundle01):
    mu = bundle01.mu()
    bary = mu.barycenter()
    assert np.linalg.norm(bary - 2 * bundle01.delta**2 * E12) < 1e-12


def test_atom_validation():
    with pytest.raises(ValueError):
        gm.GrassmannMeasure((2 * E12)[None, :], [1.0])  # not unit
    with pytest.raises(ValueError):
        bad = (E12 + E34) / np.sqrt(2)
        gm.GrassmannMeasure(bad[None, :], [1.0])  # not simple
    with pytest.raises(ValueError):
        gm.GrassmannMeasure(E12[None, :], [-1.0])  # negative weight


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_atoms_and_weights_rejected(bad):
    good = np.stack([E12, E34])
    atoms = good.copy()
    atoms[1, 2] = bad
    with pytest.raises(ValueError, match="^atom coordinates must be finite$"):
        gm.GrassmannMeasure(atoms, [1.0, 1.0])
    with pytest.raises(ValueError, match="^atom weights must be positive and finite$"):
        gm.GrassmannMeasure(good, [1.0, bad])


def test_transport_identical_measures(rng):
    pts = np.stack([random_unit_simple(rng) for _ in range(3)])
    mu = gm.GrassmannMeasure(pts, [1.0, 2.0, 0.5])
    assert gm.transport_distance(mu, mu) < 1e-12


def test_transport_two_basis_atoms():
    mu = gm.GrassmannMeasure(E12[None, :], [1.0])
    nu = gm.GrassmannMeasure(E34[None, :], [1.0])
    assert abs(gm.transport_distance(mu, nu) - np.sqrt(2.0)) < 1e-12


def test_transport_matches_assignment_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = np.stack([random_unit_simple(rng) for _ in range(n)])
        b = np.stack([random_unit_simple(rng) for _ in range(n)])
        w = float(rng.uniform(0.5, 2.0))
        mu = gm.GrassmannMeasure(a, [w] * n)
        nu = gm.GrassmannMeasure(b, [w] * n)
        d = gm.transport_distance(mu, nu)
        oracle = exhaustive_equal_weight_distance(a, b, w)
        assert d <= oracle + 1e-10
        assert abs(d - oracle) < 1e-8  # equal weights: an optimal plan is a matching


def test_transport_metric_axioms(rng):
    for _ in range(15):
        pts = [np.stack([random_unit_simple(rng) for _ in range(3)]) for _ in range(3)]
        ms = [gm.GrassmannMeasure(p, [1.0, 1.0, 1.0]) for p in pts]
        d01, d10 = gm.transport_distance(ms[0], ms[1]), gm.transport_distance(ms[1], ms[0])
        assert abs(d01 - d10) < 1e-8
        d02 = gm.transport_distance(ms[0], ms[2])
        d12 = gm.transport_distance(ms[1], ms[2])
        assert d01 <= d02 + d12 + 1e-8


def test_transport_empty_raises():
    mu = gm.GrassmannMeasure(np.zeros((0, 6)), np.zeros(0))
    nu = gm.GrassmannMeasure(E12[None, :], [1.0])
    with pytest.raises(ValueError):
        gm.transport_distance(mu, nu)


def test_transport_rejects_mass_mismatch():
    mu = gm.GrassmannMeasure(E12[None, :], [1.0])
    with pytest.raises(ValueError,
                       match="^transport distance needs equal masses; got 1.0 and 1.5$"):
        gm.transport_distance(mu, gm.GrassmannMeasure(E12[None, :], [1.5]))
    # masses equal to MASS_MATCH_RTOL are transported
    assert gm.transport_distance(mu, gm.GrassmannMeasure(E12[None, :], [1.0 + 1e-12])) == 0.0
    # also when a sink is lighter than the difference, so that the north-west
    # corner plan leaves it empty and the LP solves the problem
    two = gm.GrassmannMeasure(np.stack([E12, np.eye(6)[1]]), [0.5, 0.5])
    light = gm.GrassmannMeasure(np.stack([E34, E12]), [1.0, 1e-12])
    assert abs(gm.transport_distance(two, light) - np.sqrt(2.0)) < 1e-9


def test_mass_by_class(bundle01):
    mu0 = construction.make_mu0(0.1)
    masses = mu0.mass_by_class(0.1)
    assert masses[exterior.MIXED] == 0.0
    assert masses[exterior.VERTICAL] > 0.0
    w = np.linalg.norm(bundle01.w, axis=1)
    assert abs(masses[exterior.HORIZONTAL] - (w[0] + w[1])) < 1e-12
    assert abs(masses[exterior.VERTICAL] - w[2]) < 1e-12


def test_mass_by_class_matches_atom_loop():
    mesh = currents.Mesh(x0=(0.0, 0.0), r=1.0, n=8)
    for q in (2, 4):
        g = currents.random_lipschitz_graph(q, 2.0, q, mesh)
        gamma = currents.triangulate(g).gaussian_image()
        mu0 = construction.make_mu0(0.2)  # adds a vertical atom
        gamma = gm.GrassmannMeasure(np.concatenate([gamma.points, mu0.points]),
                                    np.concatenate([gamma.weights, mu0.weights]))
        for strict in (False, True):
            ref = {exterior.HORIZONTAL: 0.0, exterior.VERTICAL: 0.0, exterior.MIXED: 0.0}
            for p, w in zip(gamma.points, gamma.weights):
                ref[exterior.classify_bivector(p, 0.2, strict=strict)] += float(w)
            assert ref[exterior.VERTICAL] > 0.0
            assert gamma.mass_by_class(0.2, strict=strict) == ref  # same bits
    empty = gm.GrassmannMeasure(np.zeros((0, 6)), [])
    assert empty.mass_by_class(0.2) == {exterior.HORIZONTAL: 0.0, exterior.VERTICAL: 0.0,
                                        exterior.MIXED: 0.0}


def test_merged_sums_weights():
    mu = gm.GrassmannMeasure(np.stack([E12, E12, E34]), [1.0, 2.0, 3.0])
    m = mu.merged()
    assert m.n_atoms == 2
    assert abs(m.total_mass() - 6.0) < 1e-14


def _old_merged(mu, decimals=12):
    """The per-atom loop that merged() replaced."""
    _, inv = np.unique(np.round(mu.points, decimals), axis=0, return_inverse=True)
    n = inv.max() + 1
    pts, wts = np.zeros((n, 6)), np.zeros(n)
    for i, g in enumerate(inv):
        wts[g] += mu.weights[i]
        pts[g] = mu.points[i]
    return pts, wts


def test_merged_matches_atom_loop(rng):
    pts = np.stack([random_unit_simple(rng) for _ in range(40)])
    near = pts[:6] + 1e-15 * rng.normal(size=(6, 6))  # same rounded key, other point
    atoms = np.concatenate([pts, pts[::3], near, [E12, E12, E34, E12]])
    mesh = currents.Mesh(x0=(0.0, 0.0), r=1.0, n=12)
    images = [
        gm.GrassmannMeasure(atoms, rng.uniform(0.1, 2.0, atoms.shape[0]), validate=False),
        currents.triangulate(currents.random_lipschitz_graph(3, 1.5, 4, mesh)).gaussian_image(),
        currents.branched_graph(2, 0.3, 0.4, n_r=8, n_theta=12).gaussian_image(),
    ]
    assert images[0].merged().n_atoms == 42  # the 40 random planes, E12 and E34
    for mu in images:
        m = mu.merged()
        ref_pts, ref_wts = _old_merged(mu)
        assert np.array_equal(m.points, ref_pts) and np.array_equal(m.weights, ref_wts)


def _unique_merged(mu, decimals=gm.MERGE_DECIMALS):
    """The np.unique(axis=0) grouping that merged() replaced."""
    _, inv = np.unique(np.round(mu.points, decimals), axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    n = inv.max() + 1
    wts = np.zeros(n)
    np.add.at(wts, inv, mu.weights)
    last = np.full(n, -1)
    np.maximum.at(last, inv, np.arange(mu.n_atoms))
    return mu.points[last], wts


def test_merged_matches_unique_oracle(rng):
    pts = np.stack([random_unit_simple(rng) for _ in range(30)])
    on_grid = np.round(pts[:8], gm.MERGE_DECIMALS)
    # rows that tie after rounding, and rows that differ only in the sign of zero
    ties = on_grid + rng.choice([-2e-13, 0.0, 2e-13], size=(3, 8, 6))
    zeros = np.array([[0.0, 0.0, 1.0, 0.0, -0.0, 0.0], [-0.0, 0.0, 1.0, 0.0, 0.0, -0.0],
                      [-1e-14, 0.0, 1.0, 1e-14, 0.0, -0.0], [0.0, -0.0, 1.0, 0.0, 0.0, 0.0]])
    atoms = np.concatenate([pts, ties.reshape(-1, 6), zeros, pts[::-4], zeros[::-1]])
    mesh = currents.Mesh(x0=(0.0, 0.0), r=1.0, n=64)
    images = [
        gm.GrassmannMeasure(atoms, rng.uniform(0.1, 2.0, atoms.shape[0]), validate=False),
        currents.triangulate(currents.random_lipschitz_graph(0, 2.0, 8, mesh)).gaussian_image(),
    ]
    assert images[0].merged().n_atoms == 31  # the 30 random planes and e13
    assert images[1].n_atoms == 65_536
    for mu in images:
        m = mu.merged()
        ref_pts, ref_wts = _unique_merged(mu)
        assert np.array_equal(m.points, ref_pts) and np.array_equal(m.weights, ref_wts)


def test_obstruction_report_flat_graph():
    mesh = currents.Mesh(x0=(0.0, 0.0), r=1.0, n=4)
    g = currents.FunctionalQGraph.affine(mesh, [1], np.zeros((1, 2)), np.zeros((1, 2, 2)))
    rep = gm.obstruction_report(currents.triangulate(g).gaussian_image(), 0.1,
                                construction.make_mu0(0.1))
    assert rep["mV"] == 0.0 and rep["mM"] == 0.0
    assert rep["ratio"] == float("inf")
    # the flat atom sits at distance >= the gap to the closest mu0 atom
    mu0 = construction.make_mu0(0.1).normalized()
    min_sep = min(np.linalg.norm(E12 - p) for p in mu0.points)
    assert rep["w1_dist_mu0"] >= min_sep - 1e-9


def test_obstruction_report_ratio_on_vertical_family():
    mesh = currents.Mesh(x0=(0.0, 0.0), r=1.0, n=12)
    g = currents.steep_plateau_graph(4.0, 1, mesh)
    rep = gm.obstruction_report(currents.triangulate(g).gaussian_image(), 0.1,
                                construction.make_mu0(0.1))
    assert rep["mV"] > 0.0
    assert rep["ratio"] >= 1.0 / 200.0 - 1e-8


def test_obstruction_report_mixed_current_distance_bound():
    # all tangents mixed: the transport gap dominates the support separation
    T = currents.branched_graph(2, 2.0, 1.0, n_r=10, n_theta=24)
    gamma = T.gaussian_image()
    mu0 = construction.make_mu0(0.1)
    rep = gm.obstruction_report(gamma, 0.1, mu0)
    assert rep["mH"] == 0.0 and rep["mV"] == 0.0
    min_sep = min(
        np.linalg.norm(p - q) for p in gamma.points for q in mu0.points
    )
    assert rep["w1_dist_mu0"] >= min_sep - 1e-9


def _gaussian_image(seed, q=2, n=12):
    mesh = currents.Mesh(x0=(0.0, 0.0), r=1.0, n=n)
    g = currents.random_lipschitz_graph(seed, 2.0, q, mesh)
    return currents.triangulate(g).gaussian_image().normalized()


def _full_lp_distance(monkeypatch, mu, nu):
    with monkeypatch.context() as m:
        m.setattr(gm, "CERT_MAX_SINKS", 0)
        return gm.transport_distance(mu, nu)


def _spy_certified(monkeypatch):
    """Record the result of every sink-cycle solve."""
    results = []
    solve = gm._sink_cycle_transport

    def spy(*args):
        results.append(solve(*args))
        return results[-1]

    monkeypatch.setattr(gm, "_sink_cycle_transport", spy)
    return results


def _twelve_atoms(seed):
    rng = np.random.default_rng(seed)
    pts = np.stack([random_unit_simple(rng) for _ in range(12)])
    return gm.GrassmannMeasure(pts, rng.uniform(0.5, 2.0, 12)).normalized()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_certified_transport_matches_full_lp(monkeypatch, seed):
    mu = _gaussian_image(seed)  # about 400-570 atoms
    for nu in (construction.make_mu0(0.1).normalized(), _twelve_atoms(seed)):
        full = _full_lp_distance(monkeypatch, mu, nu)
        certified = _spy_certified(monkeypatch)
        v = gm.transport_distance(mu, nu)
        assert abs(v - full) <= gm.CERT_RTOL * max(1.0, abs(full))
        assert certified == [v]  # the certificate held, and its value is returned


def test_certified_transport_argument_order(monkeypatch):
    mu = _gaussian_image(5, q=3)
    for nu in (construction.make_mu0(0.05).normalized(),
               gm.GrassmannMeasure(np.stack([E12, E34]), [0.25, 0.75])):
        certified = _spy_certified(monkeypatch)
        d1, d2 = gm.transport_distance(mu, nu), gm.transport_distance(nu, mu)
        assert certified == [d1, d2] and d1 == d2


@pytest.mark.parametrize("name, value", [("CERT_RTOL", -1.0), ("MAX_PUSHES", 0)],
                         ids=["tolerance", "push-cap"])
def test_failed_certificate_returns_full_lp(monkeypatch, name, value):
    mu = _gaussian_image(4)  # takes 2 pushes against mu0
    for nu in (construction.make_mu0(0.1).normalized(), _twelve_atoms(4)):
        full = _full_lp_distance(monkeypatch, mu, nu)
        monkeypatch.setattr(gm, name, value)
        certified = _spy_certified(monkeypatch)
        assert gm.transport_distance(mu, nu) == full
        assert certified == [None]
        monkeypatch.undo()


def test_more_sinks_than_the_cap_take_the_lp(monkeypatch):
    rng = np.random.default_rng(7)
    n = gm.CERT_MAX_SINKS + 1
    mu = gm.GrassmannMeasure(np.stack([random_unit_simple(rng) for _ in range(n)]),
                             np.full(n, 1.0 / n))
    nu = gm.GrassmannMeasure(np.stack([random_unit_simple(rng) for _ in range(n)]),
                             rng.dirichlet(np.ones(n)))
    certified = _spy_certified(monkeypatch)
    lps = []
    solve = gm._transport_lp

    def spy(*args):
        lps.append(solve(*args))
        return lps[-1]

    monkeypatch.setattr(gm, "_transport_lp", spy)
    v = gm.transport_distance(mu, nu)
    assert lps == [v] and certified == []
