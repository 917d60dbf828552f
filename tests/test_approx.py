import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from anisoq import approx as ap
from anisoq.exterior import lambda_m_batch
from anisoq.multipoint import g_metric
from tests.test_energy import _full_psi_of_unit_tangents
from tests.test_multipoint import _pairwise_g_metric


def test_profiles_lipschitz_increments():
    for f in (ap.smooth_profile(), ap.twosheet_profile()):
        assert f.check_increments(seed=11)


def _old_check_increments(f, seed, n_pairs=200, tol=1e-9):
    """The per-pair loop that the stacked check_increments replaced."""
    rng = np.random.default_rng(seed)
    for _ in range(n_pairs):
        x, y = rng.random((2, 2)) - 0.5  # a pair in the unit square
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
            pairs = [rng.random((2, 2)) - 0.5 for _ in range(n_pairs)]
            crit = max(_pairwise_g_metric(f.values_at(x), f.values_at(y))
                       / np.linalg.norm(x - y) for x, y in pairs)
            verdicts = []
            for lip in (f.lipschitz, 1.001 * crit, 0.999 * crit, 0.0):
                g = dataclasses.replace(f, lipschitz=lip)
                verdicts.append(g.check_increments(seed, n_pairs))
                assert verdicts[-1] == _old_check_increments(g, seed, n_pairs)
            assert verdicts == [True, True, False, False]


# -- the per-part value and gradient callables (..., 2) -> (..., 2) and
# (..., 2) -> (..., 2, 2) that the jets replaced, kept here as a reference ----


def _old_smooth_parts(amp=0.2):
    def fn(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
        out[..., 1] = np.cos(np.pi * x[..., 0]) + np.sin(np.pi * x[..., 1])
        return amp * out

    def grad(x):
        x = np.asarray(x, dtype=float)
        g = np.empty(x.shape[:-1] + (2, 2))
        c1, s1 = np.cos(np.pi * x[..., 0]), np.sin(np.pi * x[..., 0])
        c2, s2 = np.cos(np.pi * x[..., 1]), np.sin(np.pi * x[..., 1])
        g[..., 0, 0] = c1 * s2
        g[..., 0, 1] = s1 * c2
        g[..., 1, 0] = -s1
        g[..., 1, 1] = c2
        return amp * np.pi * g

    return [(fn, grad)]


def _old_twosheet_parts(sep=1.2, amp=0.15):
    def f1(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = amp * np.sin(np.pi * x[..., 0])
        out[..., 1] = 0.5 * sep + amp * np.cos(np.pi * x[..., 1])
        return out

    def g1(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape[:-1] + (2, 2))
        g[..., 0, 0] = np.cos(np.pi * x[..., 0])
        g[..., 1, 1] = -np.sin(np.pi * x[..., 1])
        return amp * np.pi * g

    def f2(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = 0.7 * amp * np.cos(np.pi * x[..., 1])
        out[..., 1] = -0.5 * sep + 0.7 * amp * np.sin(np.pi * x[..., 0])
        return out

    def g2(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape[:-1] + (2, 2))
        g[..., 0, 1] = -np.sin(np.pi * x[..., 1])
        g[..., 1, 0] = np.cos(np.pi * x[..., 0])
        return 0.7 * amp * np.pi * g

    return [(f1, g1), (f2, g2)]


def _old_affine_parts(a, X):
    a = np.asarray(a, float)
    X = np.asarray(X, float)

    def fn(x):
        x = np.asarray(x, dtype=float)
        return a + np.einsum("ab,...b->...a", X, x)

    def grad(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(X, x.shape[:-1] + (2, 2)).copy()

    return [(fn, grad)]


def _old_kinked_parts():
    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.stack([3.0 * np.abs(x[..., 0] - 0.1), 0.2 * x[..., 1]], axis=-1)

    def grad(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape[:-1] + (2, 2))
        g[..., 0, 0] = 3.0 * np.sign(x[..., 0] - 0.1)
        g[..., 1, 1] = 0.2
        return g

    return [(fn, grad)]


_AFFINE_A, _AFFINE_X = [0.5, -1.0], [[0.2, 0.1], [0.0, -0.3]]


def _jet_cases():
    """(map, the old (fn, grad) of each of its parts) for every test map."""
    return [
        (ap.smooth_profile(), _old_smooth_parts()),
        (ap.twosheet_profile(), _old_twosheet_parts()),
        (_affine_profile(_AFFINE_A, _AFFINE_X), _old_affine_parts(_AFFINE_A, _AFFINE_X)),
        (_affine_profile([0.0, 0.0], [[0.3, 0.0], [0.0, 0.2]]),
         _old_affine_parts([0.0, 0.0], [[0.3, 0.0], [0.0, 0.2]])),
        (_kinked_profile(), _old_kinked_parts()),
    ]


def test_profile_jets_match_fd():
    # a 41 x 41 grid over the domain and its edges, plus points off the grid
    rng = np.random.default_rng(9)
    pts = np.concatenate([ap._grid(np.linspace(-0.5, 0.5, 41)), rng.uniform(-0.5, 0.5, (50, 2)),
                          [[0.1, 0.0], [0.1 + 1e-9, 0.3]]])
    h = 1e-6
    for f, old in _jet_cases():
        vals, grads = f.part_values(pts), f.part_grads(pts)
        assert vals.shape == (len(pts), len(f.mults), 2)
        assert grads.shape == (len(pts), len(f.mults), 2, 2)
        grid = pts[:41 * 41].reshape(41, 41, 2)
        jets, grid_jets = f.jet(pts[:, 0], pts[:, 1]), f.jet(grid[..., 0], grid[..., 1])
        assert len(jets) == len(grid_jets) == len(old) == len(f.mults)
        for j, (fn, gfn) in enumerate(old):
            # part j of the map's jet is the old closed forms to the bit, at any one shape
            ref = np.concatenate([fn(pts), gfn(pts).reshape(-1, 4)], axis=1)
            assert np.array_equal(np.stack(jets[j], axis=1), ref)
            assert np.array_equal(np.stack(grid_jets[j], axis=-1),
                                  ref[:41 * 41].reshape(41, 41, 6))
            assert np.array_equal(vals[:, j], fn(pts)) and np.array_equal(grads[:, j], gfn(pts))
            assert np.array_equal(f.part_grads(pts[7])[j], gfn(pts[7]))
            # the gradient is the central difference of the jet's own values,
            # away from the kinked map's crease at x0 = 0.1
            smooth = np.abs(pts[:, 0] - 0.1) > 1e-3
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                fd = (f.part_values(pts + e)[:, j] - f.part_values(pts - e)[:, j]) / (2 * h)
                assert np.allclose(grads[smooth, j, :, k], fd[smooth], rtol=0.0, atol=1e-8)


def _affine_profile(a, X):
    a = np.asarray(a, float)
    X = np.asarray(X, float)

    def jet(x0, x1):
        return ((a[0] + (X[0, 0] * x0 + X[0, 1] * x1), a[1] + (X[1, 0] * x0 + X[1, 1] * x1),
                 *(np.full_like(x0, x) for x in X.ravel())),)

    return ap.SampledLipschitzQMap(mults=(1,), jet=jet,
                                   lipschitz=float(np.linalg.norm(X, 2)) + 0.1)


def test_subdivision_affine_exact():
    f = _affine_profile([0.5, -1.0], [[0.2, 0.1], [0.0, -0.3]])
    sub = ap.cubic_subdivision(f, 0.25)
    last = sub.diagnostics["attempts"][-1]
    assert last["dropped"] == 0
    assert last["uncovered"] <= 0.25 * 1.0
    # every cube model is exact
    assert np.allclose(sub.part_X, np.array([[0.2, 0.1], [0.0, -0.3]]), atol=1e-12)
    # single pass: no halving beyond the first attempt
    assert len(sub.diagnostics["attempts"]) == 1


def test_subdivision_smooth_taylor_remainder():
    f = ap.smooth_profile()
    delta = 0.2
    sub = ap.cubic_subdivision(f, delta)
    assert sub.diagnostics["attempts"][-1]["dropped"] == 0
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
    # one model per part of f, whose multiplicities are (1, 1)
    assert f.mults == (1, 1)
    assert sub.part_a.shape == (sub.n_cubes, 2, 2)
    assert sub.part_X.shape == (sub.n_cubes, 2, 2, 2)
    # the two sheets' model jets on a cube stay distinct parts
    jets = np.concatenate([sub.part_a[0], sub.part_X[0].reshape(-1, 4)], axis=1)
    assert np.linalg.norm(jets[0] - jets[1]) > 1e-6


def test_subdivision_lattice_margin():
    f = ap.smooth_profile()
    sub = ap.cubic_subdivision(f, 0.2)
    # every cube keeps the 3r margin inside the domain
    for z in sub.centers:
        assert np.max(np.abs(z)) + 1.5 * sub.r <= 0.5 + 1e-12


def test_subdivision_rejects_bad_delta():
    with pytest.raises(ValueError):
        ap.cubic_subdivision(ap.smooth_profile(), 1.5)


def _kinked_profile():
    """A map with a crease along x = 0.1: the cubes across it fail validation."""

    def jet(x0, x1):
        zero = np.zeros_like(x0)
        return ((3.0 * np.abs(x0 - 0.1), 0.2 * x1, 3.0 * np.sign(x0 - 0.1), zero, zero,
                 np.full_like(x0, 0.2)),)

    return ap.SampledLipschitzQMap(mults=(1,), jet=jet, lipschitz=3.1)


def _blocked_run(monkeypatch, f, k, cfg, block):
    monkeypatch.setattr(ap, "BLOCK_CUBES", block)
    sub = ap.cubic_subdivision(f, 1.0 / k)
    return sub, ap.energy_of_hybrid(ap.HybridQMap(f, sub, k), cfg, ap.energy_of_map(f, cfg))


@pytest.mark.parametrize("profile, k", [(ap.smooth_profile, 4), (ap.smooth_profile, 8),
                                        (ap.twosheet_profile, 4), (ap.twosheet_profile, 8),
                                        (_kinked_profile, 4)])
def test_blocked_cube_loop_matches_one_block(monkeypatch, cfg01, profile, k):
    f = profile()
    one, e_one = _blocked_run(monkeypatch, f, k, cfg01, 10**9)
    # 1000 divides neither 2,025 nor 8,649 cubes, so the last block is short
    sub, e = _blocked_run(monkeypatch, f, k, cfg01, 1000)
    assert one.n_cubes > 1000 and e == e_one
    for name in ("lattice", "lattice_origin", "centers", "part_a", "part_X"):
        assert np.array_equal(getattr(sub, name), getattr(one, name))
    assert sub.r == one.r and sub.diagnostics == one.diagnostics
    if profile is _kinked_profile:
        # dropped cubes: the kept models are moved forward across blocks
        assert sub.diagnostics["attempts"][-1]["dropped"] > 0
        assert np.array_equal(sub.lattice[sub.lattice >= 0], np.arange(sub.n_cubes))


def _oracle_psi_bar(grads, mults, cfg):
    """Summed psi with np.linalg.norm row norms, unscreened ray angles and
    np.sum over the parts."""
    lams = lambda_m_batch(grads.reshape(-1, 2, 2))
    vals = np.linalg.norm(lams, axis=1) * _full_psi_of_unit_tangents(lams, cfg)
    return np.sum(vals.reshape(grads.shape[:-2]) * np.asarray(mults, dtype=float), axis=-1)


def _oracle_fit(f, centers, r):
    """The least-squares stencil fit with one einsum over the stacked part values."""
    span = 0.45 * r
    off = ap._grid([-span, 0.0, span])
    P = np.linalg.pinv(np.column_stack([np.ones(9), off[:, 0], off[:, 1]]))
    coef = np.einsum("ks,nsjd->njkd", P, f.part_values(centers[:, None, :] + off[None, :, :]))
    return coef[:, :, 0, :], np.swapaxes(coef[:, :, 1:, :], -2, -1)


def _oracle_validate(f, centers, r, part_a, part_X, delta):
    """The validation keep mask with einsum models and np.sum reductions."""
    off = ap._grid(np.linspace(-0.499, 0.499, ap.N_VALID) * r)
    pts = centers[:, None, :] + off[None, :, :]
    gap2 = np.zeros(pts.shape[:2])
    grad2 = np.zeros(pts.shape[:2])
    vals, grads = f.part_values(pts), f.part_grads(pts)
    for j, mult in enumerate(f.mults):
        model = part_a[:, j][:, None, :] + np.einsum("nab,sb->nsa", part_X[:, j], off)
        gap2 += float(mult) * np.sum((vals[:, :, j] - model) ** 2, axis=-1)
        grad2 += float(mult) * np.sum((grads[:, :, j] - part_X[:, j][:, None]) ** 2,
                                      axis=(-2, -1))
    keep = np.sqrt(np.max(gap2, axis=1)) <= delta * r
    for alpha in (delta, 2.0 * delta, 4.0 * delta):
        keep &= np.count_nonzero(np.sqrt(grad2) > alpha, axis=1) / off.shape[0] <= delta / alpha
    return keep


def _oracle_energy_of_hybrid(g, cfg):
    """energy_of_hybrid over all cubes at once, with einsum collar models and
    the oracle summed psi."""
    f, sub, sh = g.f, g.sub, g.shrink
    m = ap.ENERGY_GRID_M
    pts = ap._grid((np.arange(m) + 0.5) / m - 0.5)
    e_ref = float(np.sum(_oracle_psi_bar(f.part_grads(pts), f.mults, cfg))) * (1.0 / m) ** 2
    r, centers, mults = sub.r, sub.centers, f.mults
    s_in, w = 0.5 * sh * r, 0.5 * r - 0.5 * sh * r
    gp, gw = ap._GAUSS3
    offs = ap._grid(gp) * s_in
    table = np.stack([_oracle_psi_bar(f.part_grads(centers + o), mults, cfg) for o in offs],
                     axis=1) * (np.prod(ap._grid(gw), axis=1) * s_in**2)
    cube_f = float(np.sum(table))
    cube_model = float(np.sum(_oracle_psi_bar(sub.part_X, mults, cfg)) * (sh * r) ** 2)
    collar_g = collar_f = 0.0
    for turns in range(4):
        rot = np.linalg.matrix_power(np.array([[0.0, -1.0], [1.0, 0.0]]), turns)
        grad_t = (rot @ np.array([1.0, 0.0])) / w
        for vnode, wv in zip(gp, 0.5 * gw):
            v = 0.5 * (vnode + 1.0)
            xi = s_in + v * w
            for u, wu in zip(gp, gw):
                ry = rot @ np.array([xi, u * xi])
                F, Gf = f.part_values(centers + ry), f.part_grads(centers + ry)
                M = sub.part_a + np.einsum("njab,b->nja", sub.part_X, ry)
                Gg = (F - M)[..., None] * grad_t + v * Gf + (1.0 - v) * sub.part_X
                jac = w * xi * wv * wu
                collar_g += float(np.sum(_oracle_psi_bar(Gg, mults, cfg))) * jac
                collar_f += float(np.sum(_oracle_psi_bar(Gf, mults, cfg))) * jac
    return e_ref + ((cube_model - cube_f) + (collar_g - collar_f))


@pytest.mark.parametrize("profile, k", [(ap.smooth_profile, 4), (ap.smooth_profile, 8),
                                        (ap.twosheet_profile, 4), (ap.twosheet_profile, 8),
                                        (_kinked_profile, 4)])
def test_cube_kernels_match_einsum_and_norm_oracle(cfg01, profile, k):
    # the component-wise stencil sums, contractions and row norms of the cube
    # kernels are the einsum, np.sum and np.linalg.norm arithmetic to the bit
    f = profile()
    delta = 1.0 / k
    r = delta / 12.0  # the search's first lattice
    m = int(math.floor((1.0 - 3.0 * r) / r))
    centers = -0.5 * m * r + r * ap._grid(np.arange(m) + 0.5)
    a, X = ap._fit_parts_batched(f, centers, r)
    a_ref, X_ref = _oracle_fit(f, centers, r)
    assert np.array_equal(a, a_ref) and np.array_equal(X, X_ref)
    keep = ap._validate_batched(f, centers, r, a, X, delta)
    assert np.array_equal(keep, _oracle_validate(f, centers, r, a, X, delta))
    assert keep.any() and (profile is not _kinked_profile or not keep.all())
    g = ap.HybridQMap(f, ap.cubic_subdivision(f, delta), k)
    assert ap.energy_of_hybrid(g, cfg01, ap.energy_of_map(f, cfg01)) == \
        _oracle_energy_of_hybrid(g, cfg01)


def _counted(f):
    """f with its jet wrapped in a counter of the points it evaluates."""
    count = [0]

    def counted(x0, x1):
        count[0] += np.size(x0)
        return f.jet(x0, x1)

    return dataclasses.replace(f, jet=counted), count


@pytest.mark.parametrize("profile", [ap.smooth_profile, ap.twosheet_profile])
def test_cube_kernels_evaluate_each_point_once(cfg01, profile):
    # one jet call gives every part's values and gradient at a point: per
    # lattice cube the 3x3 fit stencil and the N_VALID^2 validation samples,
    # per kept cube the 3x3 Gauss points and the 4 x 3 x 3 collar nodes,
    # whatever the number of parts; the reference energy is the caller's
    f, count = _counted(profile())
    sub = ap.cubic_subdivision(f, 1.0 / 4)
    lattice = sum(t["kept"] + t["dropped"] for t in sub.diagnostics["attempts"])
    assert count == [lattice * (9 + ap.N_VALID**2)]
    e_ref = ap.energy_of_map(f, cfg01)
    count[0] = 0
    ap.energy_of_hybrid(ap.HybridQMap(f, sub, 4), cfg01, e_ref)
    assert count == [sub.n_cubes * (9 + 36)]


def test_cube_loop_memory_is_bounded(cfg01):
    # holding every cube's temporaries at once peaks at 138 MiB here
    f = ap.smooth_profile()
    tracemalloc.start()
    try:
        sub = ap.cubic_subdivision(f, 1.0 / 16)
        ap.energy_of_hybrid(ap.HybridQMap(f, sub, 16), cfg01, ap.energy_of_map(f, cfg01))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2**20


def test_smooth_abs_err_at_k64_is_pinned(cfg01):
    f = ap.smooth_profile()
    e_ref = ap.energy_of_map(f, cfg01)
    _g, rep = ap.piecewise_affine_sequence(f, 64, cfg01, e_ref)
    assert rep["bad_set_full"] <= 2.0 / 64 and rep["bad_set_shrunk"] <= 3.0 / 64
    assert rep["lipschitz"] <= rep["lip_bound"]
    # the quadrature sums over 585,225 cubes: allow rounding far above one ulp
    err = abs(rep["energy_psi_bar"] - e_ref)
    assert err == pytest.approx(1.1815780324608838e-05, rel=0.0, abs=1e-13)


@pytest.mark.slow
@pytest.mark.parametrize("profile, pin", [(ap.smooth_profile, 6.096594844295922e-06),
                                          (ap.twosheet_profile, 1.7595968242467563e-06)])
def test_abs_err_at_k128_is_pinned(cfg01, profile, pin):
    # about a minute each: run with -m slow
    f = profile()
    e_ref = ap.energy_of_map(f, cfg01)
    _g, rep = ap.piecewise_affine_sequence(f, 128, cfg01, e_ref)
    assert rep["bad_set_full"] <= 2.0 / 128 and rep["bad_set_shrunk"] <= 3.0 / 128
    assert rep["lipschitz"] <= rep["lip_bound"]
    err = abs(rep["energy_psi_bar"] - e_ref)
    assert err == pytest.approx(pin, rel=0.0, abs=1e-13)


def test_sequence_affine_energy_exact(cfg01):
    f = _affine_profile([0.0, 0.0], [[0.3, 0.0], [0.0, 0.2]])
    e_ref = ap.energy_of_map(f, cfg01)
    g, rep = ap.piecewise_affine_sequence(f, 4, cfg01, e_ref)
    assert abs(rep["energy_psi_bar"] - e_ref) <= 1e-9
    assert rep["boundary_trace_error"] <= 1e-9


def test_sequence_smooth_bounds_and_convergence(cfg01):
    f = ap.smooth_profile()
    e_ref = ap.energy_of_map(f, cfg01)
    errs = []
    lips = []
    for k in (4, 8, 16):
        g, rep = ap.piecewise_affine_sequence(f, k, cfg01, e_ref)
        assert rep["bad_set_full"] <= 2.0 / k
        assert rep["bad_set_shrunk"] <= 3.0 / k
        assert rep["boundary_trace_error"] <= 1e-9
        assert rep["lipschitz"] <= rep["lip_bound"]
        errs.append(abs(rep["energy_psi_bar"] - e_ref))
        lips.append(rep["lipschitz"])
    assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    # uniform Lipschitz across k
    assert max(lips) <= 10.0 * (f.lipschitz + 2.0)


def _region_of(g, x):
    """Region ("cube", "collar" or "outside") of g_k at one point x, with its cube row."""
    x = np.asarray(x, dtype=float)
    row = g.sub.locate(x[None])[0]
    if row < 0:
        return "outside", None
    if np.max(np.abs(x - g.sub.centers[row])) <= 0.5 * g.shrink * g.sub.r:
        return "cube", int(row)
    return "collar", int(row)


def test_sequence_region_structure(cfg01):
    f = ap.twosheet_profile()
    g, rep = ap.piecewise_affine_sequence(f, 4, cfg01, ap.energy_of_map(f, cfg01))
    row = g.sub.n_cubes // 3
    z = g.sub.centers[row]
    assert _region_of(g, z)[0] == "cube"
    edge = z + np.array([0.5 * g.sub.r * (1 - 0.5 / g.k), 0.0])
    assert _region_of(g, edge)[0] == "collar"
    corner = 0.499 * np.ones(2)
    assert _region_of(g, corner)[0] == "outside"
    # continuity across the collar: values at the cube face agree with f
    face = z + np.array([0.5 * g.sub.r, 0.0])
    assert g_metric(g.values_at(face), f.values_at(face)) <= 1e-9


def test_hybrid_requires_parts():
    sub = ap.cubic_subdivision(ap.twosheet_profile(), 0.25)
    with pytest.raises(ValueError, match="^cube model multiplicities do not match the map parts$"):
        ap.HybridQMap(ap.smooth_profile(), sub, 4)


def test_map_requires_parts_with_gradients(cfg01):
    f = ap.twosheet_profile()
    assert [fd.name for fd in dataclasses.fields(f)] == ["mults", "jet", "lipschitz"]
    for mults in ((), []):
        with pytest.raises(ValueError,
                           match="^not sheetwise-decomposable: the map carries no parts$"):
            ap.SampledLipschitzQMap(mults=mults, jet=f.jet, lipschitz=1.0)
    with pytest.raises(ValueError, match="^not sheetwise-decomposable: the map carries no jet$"):
        ap.SampledLipschitzQMap(mults=(1, 1), jet=None, lipschitz=1.0)
    # a jet with fewer parts than multiplicities raises instead of leaving
    # unwritten rows, in every cube kernel and every point evaluation
    short = dataclasses.replace(f, jet=lambda x0, x1: f.jet(x0, x1)[:1])
    sub = ap.cubic_subdivision(f, 0.25)
    calls = [lambda: ap._fit_parts_batched(short, sub.centers, sub.r),
             lambda: ap._validate_batched(short, sub.centers, sub.r, sub.part_a, sub.part_X, 0.25),
             lambda: ap.cubic_subdivision(short, 0.25),
             lambda: ap.energy_of_hybrid(ap.HybridQMap(short, sub, 4), cfg01, 0.0),
             lambda: short.part_values(sub.centers), lambda: short.part_grads(sub.centers)]
    for call in calls:
        with pytest.raises(ValueError):
            call()


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
            return g.f.part_values(x)[j]
        z = g.sub.centers[row]
        model = g.sub.part_a[row, j] + g.sub.part_X[row, j] @ (x - z)
        if where == "cube":
            return model
        s_in = 0.5 * g.shrink * g.sub.r
        s_out = 0.5 * g.sub.r
        t = np.clip((_old_sup_radius(x, z) - s_in) / (s_out - s_in), 0.0, 1.0)
        outer = g.f.part_values(x)[j]
        return t * outer + (1.0 - t) * model

    def __call__(self, x):
        rows = []
        for j, m in enumerate(self.g.f.mults):
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
    r, m, o = sub.r, sub.lattice.shape[0], sub.lattice_origin
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
    assert [_region_of(g, x) for x in pts] == regions
    ref = [[old.part_value(x, j) for j in range(len(g.f.mults))] for x in pts]
    assert np.array_equal(g.part_values(pts), np.array(ref))
    assert np.array_equal(g.values_at(pts), np.array([old(x) for x in pts]))
    assert np.array_equal(g.values_at(pts[0]), old(pts[0]))


@pytest.mark.parametrize("k", [4, 8])
@pytest.mark.parametrize("profile", [ap.smooth_profile, ap.twosheet_profile])
def test_measured_lipschitz_matches_double_loop(profile, k):
    g = _hybrid(profile(), k)
    old = _OldHybrid(g)
    grid_m = 64
    xs = np.linspace(-0.5, 0.5, grid_m + 1)  # over the unit square
    vals = [[old(np.array([a, b])) for b in xs] for a in xs]
    h = 1.0 / grid_m
    best = 0.0
    for i in range(grid_m + 1):
        for j in range(grid_m + 1):
            if i + 1 <= grid_m:
                best = max(best, _pairwise_g_metric(vals[i][j], vals[i + 1][j]) / h)
            if j + 1 <= grid_m:
                best = max(best, _pairwise_g_metric(vals[i][j], vals[i][j + 1]) / h)
    assert g.measured_lipschitz(grid_m) == best


# -- the scalar perimeter walk that _square_perimeter replaced, kept here as
# a reference --------------------------------------------------------------


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


def test_square_perimeter_matches_scalar_code():
    rng = np.random.default_rng(3)
    c = np.array([0.013, -0.021])
    taus = np.concatenate([np.arange(9) / 4, np.arange(64) / 64, rng.random(50)])
    for s in (0.2, 0.35, 0.5):
        ref = np.array([_old_square_perimeter(c, s, t) for t in taus])
        assert np.array_equal(ap._square_perimeter(c, s, taus), ref)
        assert np.array_equal(ap._square_perimeter(c, s, taus[5]), ref[5])
