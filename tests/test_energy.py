import json
import pathlib

import numpy as np
import pytest

from anisoq import construction, currents, energy
from anisoq.exterior import lambda_m_batch
from tests.conftest import EPS_GRID

SCHEMAS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schemas"


def unit_mesh(n):
    return currents.Mesh(x0=(0.0, 0.0), r=1.0, n=n)


def test_psi_at_zero_and_rays(bundle01, cfg01):
    assert energy.psi(np.zeros((2, 2)), cfg01) == 1.0
    for i in range(3):
        assert energy.psi(bundle01.X[i], cfg01) == 0.0


def test_psi_off_ray_rotated_direction(bundle01, cfg01):
    # build a matrix whose lift points ~pi/6 away from the first ray inside
    # the plane spanned by the ray and an orthogonal direction, then verify
    # the angle with the inner-product oracle
    ray = cfg01.rays[0]
    other = np.array([0.0, 1.0, 0, 0, 0, 0.0])
    other = other - (other @ ray) * ray
    other /= np.linalg.norm(other)
    direction = np.cos(np.pi / 6) * ray + np.sin(np.pi / 6) * other
    # lift: normalise the e12-coefficient and read the matrix off the display
    p = direction / direction[0]
    Y = np.array([[-p[3], p[1]], [-p[4], p[2]]])
    lam = lambda_m_batch(Y[None])[0]
    cosang = lam @ ray / np.linalg.norm(lam)
    angle = np.arccos(np.clip(cosang, -1, 1))
    assert angle > energy.DEFAULT_RAY_TOL
    assert energy.psi(Y, cfg01) == pytest.approx(np.linalg.norm(lam))


def test_psi_lower_bound_off_rays(cfg01, rng):
    # e12-coefficient of every lift is 1, so psi >= 1 off the rays
    for _ in range(300):
        X = rng.normal(size=(2, 2)) * rng.uniform(0.1, 5)
        val = energy.psi(X, cfg01)
        assert val == 0.0 or val >= 1.0


def _p1_gradients(g):
    """Per-triangle sheet gradients (T, J, 2, 2) of a graph: on each triangle
    the X with X (p_m - p_0) = f_m - f_0 for its nodes p_0, p_1, p_2."""
    tris = g.mesh.frame.tris
    f = g.vals[:, tris[..., 0], tris[..., 1]]
    F = np.stack([f[..., 1, :] - f[..., 0, :], f[..., 2, :] - f[..., 0, :]], axis=-1)
    E = g.mesh.h * np.swapaxes(tris[:, 1:] - tris[:, :1], 1, 2)
    return (F @ np.linalg.inv(E)).swapaxes(0, 1)


def _psi_bar_energy(g, cfg):
    """Integral over the domain of sum_sheets psi(gradient), exactly per triangle."""
    tri_area = 0.5 * g.mesh.h * g.mesh.h
    X = _p1_gradients(g)
    wts = np.tile(g.mults * tri_area, X.shape[0])
    return float(wts @ energy.psi_batch(X.reshape(-1, 2, 2), cfg))


def test_psi_bar_energy_cases(bundle01, cfg01):
    g = currents.FunctionalQGraph.affine(unit_mesh(3), [1], np.zeros((1, 2)), bundle01.X[:1])
    assert _psi_bar_energy(g, cfg01) == 0.0
    assert energy.psi_mass_of_current(currents.triangulate(g), cfg01) == 0.0
    for q in (1, 3):
        flat = currents.FunctionalQGraph.affine(unit_mesh(3), [q], np.zeros((1, 2)),
                                                np.zeros((1, 2, 2)))
        assert _psi_bar_energy(flat, cfg01) == pytest.approx(float(q))
        assert energy.psi_mass_of_current(currents.triangulate(flat), cfg01) == \
            pytest.approx(float(q))


def test_psi_bar_energy_equals_current_mass(cfg01, rng):
    g = currents.random_lipschitz_graph(17, 1.5, 2, unit_mesh(4))
    e_graph = _psi_bar_energy(g, cfg01)
    e_curr = energy.psi_mass_of_current(currents.triangulate(g), cfg01)
    assert abs(e_graph - e_curr) <= 1e-10


def test_envelope_upper_rays_exact_zero(bundle01, cfg01):
    for q in (1, 2):
        for X in bundle01.X:
            val, comp, meta = energy.envelope_upper((q, X), cfg01)
            assert val == 0.0
            assert meta["parts"][0]["method"] == "affine-ray"
            assert energy.psi_mass_of_current(comp, cfg01) == 0.0


def test_envelope_upper_zero_target_bound(cfg01):
    for q in (1, 2):
        val, comp, _ = energy.envelope_upper((q, np.zeros((2, 2))), cfg01)
        assert val <= q + 1e-12
        # the reported value is the exact psi-energy of the reported competitor
        assert energy.psi_mass_of_current(comp, cfg01) <= val + 1e-9


def test_envelope_upper_affine_bound(cfg01, rng):
    # never worse than the explicit affine competitor
    for _ in range(3):
        X = rng.normal(size=(2, 2))
        val, _, _ = energy.envelope_upper((2, X), cfg01)
        assert val <= energy.affine_competitor_bound((2, X), cfg01) + 1e-12


def test_envelope_upper_ray_ring_beats_affine_near_ray():
    # X is 1e-3 from the lift X3 (||X3|| ~ 1131): the ray-3 ring puts all but
    # a 1e-6 band of the domain on the ray, where psi is exactly zero
    eps = 0.05
    cfg = energy.PsiConfig.for_eps(eps)
    X = construction.build(eps).X[2] + np.diag([1e-3, 0.0])
    val, comp, meta = energy.envelope_upper((1, X), cfg)
    assert energy.affine_competitor_bound((1, X), cfg) == pytest.approx(639_999.0, rel=1e-6)
    assert val < 10.0
    (part,) = meta["parts"]
    assert (part["method"], part["ray"], part["width"]) == ("ray-ring", 3,
                                                            energy.RAY_RING_WIDTH)
    assert energy.psi_mass_of_current(comp, cfg) == val
    assert comp.n_triangles == 10
    affine = currents.triangulate(
        currents.FunctionalQGraph.affine(energy.UNIT_DOMAIN, [1], np.zeros((1, 2)), [X]))
    assert comp.boundary() == affine.boundary()


def test_envelope_upper_exact_targets_on_grid():
    jsonschema = pytest.importorskip("jsonschema")
    with open(SCHEMAS / "triangulated_current.schema.json") as fh:
        schema = json.load(fh)
    for eps in EPS_GRID:
        cfg = energy.PsiConfig.for_eps(eps)
        X = construction.build(eps).X
        for q in (1, 2, 3):
            for Y in (X[0], X[1], X[2], np.zeros((2, 2))):
                val, comp, meta = energy.envelope_upper((q, Y), cfg)
                if Y.any():
                    assert val == 0.0
                else:
                    assert val == q and meta["parts"][0]["method"] == "affine"
                obj = json.loads(json.dumps(comp.to_json_obj()))
                jsonschema.validate(obj, schema)
                back = currents.TriangulatedCurrent.from_json_obj(obj)
                assert energy.psi_mass_of_current(back, cfg) == pytest.approx(val, rel=1e-12)


def test_ray_ring_boundary_mismatch_is_an_assertion(cfg01, monkeypatch):
    ring = energy._ray_ring

    def shifted(affine, X_ray):
        T = ring(affine, X_ray)
        T.verts[0] += 1e-3  # one trapezoid triangle leaves the boundary data
        return T

    monkeypatch.setattr(energy, "_ray_ring", shifted)
    # every ring beats the affine graph
    monkeypatch.setattr(energy, "psi_mass_of_current", lambda T, cfg: -float(T.n_triangles))
    with pytest.raises(AssertionError, match="boundary"):
        energy.envelope_upper((1, np.diag([1e-3, 0.0])), cfg01)


def test_envelope_lower_positive_on_grid():
    for eps in EPS_GRID:
        for q in (1, 2, 3):
            val, trace = energy.envelope_lower_at_zero(construction.build(eps), q)
            assert val > 0.0
            assert trace["denominator"] > 0.0


def test_envelope_lower_linear_in_q(bundle01):
    v1, _ = energy.envelope_lower_at_zero(bundle01, 1)
    v3, _ = energy.envelope_lower_at_zero(bundle01, 3)
    assert abs(v3 - 3 * v1) <= 1e-18


def test_envelope_lower_two_norm_routes(bundle01):
    val, trace = energy.envelope_lower_at_zero(bundle01, 1)
    assert abs(trace["norm_w1"] - trace["norm_w1_closed_form"]) <= 1e-12
    assert abs(trace["norm_w3"] - trace["norm_w3_closed_form"]) <= 1e-12
    # direct recomputation of the closed form
    w1 = np.linalg.norm(bundle01.w[0])
    w3 = np.linalg.norm(bundle01.w[2])
    expected = 0.1**2 / (200.0 * (1 + 2 * w1 / w3) + 1 + 4 * w1 / 0.1**2)
    assert abs(val - expected) <= 1e-18


def test_bracket_ordering(cfg01):
    br, _ = energy.envelope_bracket(0.1, 1, "zero")
    assert br["lower"] > 0
    assert br["lower"] <= br["upper"] + 1e-9
    br_ray, _ = energy.envelope_bracket(0.1, 1, "ray2")
    assert br_ray["upper"] == 0.0 and br_ray["lower"] == 0.0
    with pytest.raises(ValueError):
        energy.envelope_bracket(0.1, 1, "ray9")


def _full_ray_angles(lams, cfg):
    """The unscreened kernel: projection-residual angles for every row."""
    unit = lams / np.linalg.norm(lams, axis=1, keepdims=True)
    cosang = unit @ cfg.rays.T
    resid = unit[:, None, :] - cosang[:, :, None] * cfg.rays[None, :, :]
    return np.arctan2(np.linalg.norm(resid, axis=2), cosang).min(axis=1)


def _full_psi_of_unit_tangents(ws, cfg):
    ang = _full_ray_angles(np.asarray(ws, dtype=float), cfg)
    out = np.ones(ang.shape[0])
    out[ang <= energy.DEFAULT_RAY_TOL] = 0.0
    return out


def test_screened_psi_matches_full_ray_angles(bundle01, cfg01):
    rng = np.random.default_rng(31)
    tol = energy.DEFAULT_RAY_TOL
    reach = tol + energy.RAY_SCREEN_MARGIN
    angles = [0.0, np.pi, reach, reach * (1 - 1e-12), reach * (1 + 1e-12), 2 * reach,
              tol, tol * (1 - 1e-6), tol * (1 + 1e-6)]
    rows = []
    for ray in cfg01.rays:
        for theta in angles:
            w = rng.normal(size=6)
            w -= (w @ ray) * ray
            w /= np.linalg.norm(w)
            rows.append(rng.uniform(0.1, 10) * (np.cos(theta) * ray + np.sin(theta) * w))
    # rows whose largest cosine is the screen's cut, give or take an ulp; the
    # screen compares raw inner products with the cut times the row norm, so
    # the same rows also come at norms 1e-3 and 1e6
    cut = np.cos(reach)
    for ray in cfg01.rays:
        w = rng.normal(size=6)
        w -= (w @ ray) * ray
        w /= np.linalg.norm(w)
        for c in (np.nextafter(cut, -1), cut, np.nextafter(cut, 2)):
            for scale in (1.0, 1e-3, 1e6):
                rows.append(scale * (c * ray + np.sqrt(1 - c * c) * w))
    nan_rows = np.full((2, 6), np.nan)
    nan_rows[1, 1:] = rng.normal(size=5)
    # +-inf rows: an infinite first coordinate puts every inner product at
    # +-inf (all ray coordinates e12 are positive), others mix inf with finite
    inf_rows = np.tile(rng.normal(size=6), (6, 1))
    for row, (col, sign) in enumerate([(0, 1.0), (0, -1.0), (3, 1.0), (5, -1.0)]):
        inf_rows[row, col] = sign * np.inf
    inf_rows[4] = np.inf
    inf_rows[5] = np.copysign(np.inf, cfg01.rays[2])
    ws = np.concatenate([np.array(rows), rng.normal(size=(500, 6)), nan_rows, inf_rows])
    with np.errstate(invalid="ignore"):
        assert np.array_equal(energy.psi_of_unit_tangents(ws, cfg01),
                              _full_psi_of_unit_tangents(ws, cfg01), equal_nan=True)
    # gradients on and near the lift matrices, and far from them; psi_batch
    # sums the squared columns itself, so 40,000 rows over six decades check
    # its norms against np.linalg.norm's bit for bit
    E = rng.normal(size=(2, 2))
    grads = [bundle01.X[i] + t * E for i in range(3) for t in (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.1)]
    scales = rng.uniform(1e-3, 1e3, size=(40_000, 1, 1))
    for Xs in (np.concatenate([np.array(grads), rng.normal(size=(2000, 2, 2)) * 3]),
               rng.normal(size=(40_000, 2, 2)) * scales, np.zeros((0, 2, 2))):
        lams = lambda_m_batch(Xs)
        full = np.linalg.norm(lams, axis=1) * _full_psi_of_unit_tangents(lams, cfg01)
        assert np.array_equal(energy.psi_batch(Xs, cfg01), full)
        # the same gradients through their four entries
        entries = (Xs[:, 0, 0], Xs[:, 0, 1], Xs[:, 1, 0], Xs[:, 1, 1])
        assert np.array_equal(energy.psi_entries(*entries, cfg01), full)
        # broadcast entries: a scalar 0.0 entry, and lines (S, b, 1) x (1, m)
        for k in range(4):
            zeroed = Xs.copy()
            zeroed[:, k // 2, k % 2] = 0.0
            lams = lambda_m_batch(zeroed)
            full0 = np.linalg.norm(lams, axis=1) * _full_psi_of_unit_tangents(lams, cfg01)
            args = list(entries)
            args[k] = 0.0
            assert np.array_equal(energy.psi_entries(*args, cfg01), full0)
    # entries on lines: x00 and x10 vary along the rows, x01 and x11 along
    # the columns, and the lift matrices sit on the lines
    col = np.concatenate([bundle01.X[:, :, 1], rng.normal(size=(5, 2))])  # (m, 2)
    row = np.concatenate([bundle01.X[:, :, 0], rng.normal(size=(4, 2))])  # (b, 2)
    row = np.stack([row, row + 1e-12, 3 * row])  # (S, b, 2)
    Xs = np.stack(np.broadcast_arrays(row[:, :, None, :], col[None, None, :, :]), axis=-1)
    lams = lambda_m_batch(Xs.reshape(-1, 2, 2))
    full = np.linalg.norm(lams, axis=1) * _full_psi_of_unit_tangents(lams, cfg01)
    got = energy.psi_entries(row[:, :, None, 0], col[None, :, 0], row[:, :, None, 1],
                             col[None, :, 1], cfg01)
    assert got.shape == Xs.shape[:3] and np.array_equal(got.reshape(-1), full)
    assert np.count_nonzero(got == 0.0) >= 3
    assert energy.psi_entries(np.zeros((0, 1)), np.zeros((1, 0)), 0.0, 0.0, cfg01).shape == (0, 0)
    # a norm that overflows puts the e12 coefficient at 0, within the screen's
    # reach of ray 3's small one; such rows are off the rays, not divided by inf
    with np.errstate(over="ignore"):
        assert energy.psi_batch(np.diag([1e155, 0.0])[None], cfg01)[0] == np.inf
        assert energy.psi_entries(0.0, 0.0, 0.0, 1e155, cfg01) == np.inf
        assert energy.psi_of_unit_tangents([[0.0, 0.0, 0.0, 1e200, 0.0, 0.0]], cfg01)[0] == 1.0


def test_psi_of_identity_skips_the_exact_angle(bundle01, cfg01, monkeypatch):
    # I has norm 2 and passes the e12 screen near rays 1 and 2, but its e13
    # coefficient 0 is 0.0025 from theirs at eps 0.1, past the screen's width
    ray_angles, seen = energy._ray_angles, []

    def counted(unit, cfg):
        seen.append(len(unit))
        return ray_angles(unit, cfg)

    monkeypatch.setattr(energy, "_ray_angles", counted)
    assert list(energy._screened(1.0, np.array([2.0]), cfg01)) == [0]
    assert energy.psi(np.eye(2), cfg01) == 2.0
    assert seen == []
    # the lift matrices pass both screens and read 0
    assert list(energy.psi_batch(bundle01.X, cfg01)) == [0.0, 0.0, 0.0]
    assert seen == [3]


def test_norm_floor_sits_at_the_screen_edge(bundle01, cfg01):
    # diag(s, 0) has ||LambdaM|| = sqrt(1 + s^2): rows just below and just
    # above psi_entries' norm floor lie just outside and just inside the
    # screen; the lift matrices clear the floor and read 0
    norms = cfg01.floor * np.array([1.0 - 1e-9, 1.0 + 1e-9])
    Xs = np.concatenate([np.stack([np.diag([s, 0.0]) for s in np.sqrt(norms**2 - 1.0)]),
                         bundle01.X])
    lams = lambda_m_batch(Xs)
    lo, hi = np.linalg.norm(lams[:2], axis=1)
    assert lo < cfg01.floor <= hi
    assert list(energy._screened(1.0, np.array([lo, hi]), cfg01)) == [1]
    full = np.linalg.norm(lams, axis=1) * _full_psi_of_unit_tangents(lams, cfg01)
    got = energy.psi_entries(Xs[:, 0, 0], Xs[:, 0, 1], Xs[:, 1, 0], Xs[:, 1, 1], cfg01)
    assert np.array_equal(got, full) and list(got[2:]) == [0.0, 0.0, 0.0]
