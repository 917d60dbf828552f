import warnings

import numpy as np
import pytest

from anisoq import exterior as ext
from anisoq.construction import build, spanning_vectors

E = np.eye(4)


def random_simple(rng, scale=1.0):
    while True:
        u = rng.normal(size=4) * scale
        v = rng.normal(size=4) * scale
        w = ext.wedge(u, v)
        if np.linalg.norm(w) > 1e-6:
            return w


def test_wedge_basis_case():
    assert np.allclose(ext.wedge(E[0], E[1]), [1, 0, 0, 0, 0, 0])
    assert np.allclose(ext.wedge(E[2], E[3]), [0, 0, 0, 0, 0, 1])


def test_wedge_antisymmetry():
    u = np.array([1.0, -2.0, 0.5, 3.0])
    assert np.allclose(ext.wedge(u, u), 0.0)
    v = np.array([0.3, 0.7, -1.1, 0.2])
    assert np.allclose(ext.wedge(u, v), -ext.wedge(v, u))


def test_wedge_construction_leading_coefficient():
    # e12-coefficient of the first construction 2-vector is delta^2 (1 - eps^4/4)
    eps, delta = 0.1, 0.5000125005859702
    u = delta * E[0] + 0.5 * (E[2] + eps**2 * delta * E[1])
    v = delta * E[1] + 0.5 * (E[3] + eps**2 * delta * E[0])
    w = ext.wedge(u, v)
    assert abs(w[0] - delta**2 * (1 - eps**4 / 4)) < 1e-15


def test_plucker_vanishes_on_wedges(rng):
    for _ in range(1000):
        w = random_simple(rng, scale=rng.uniform(0.1, 5.0))
        assert abs(ext.plucker(w)) <= 1e-10 * (1.0 + w @ w)


def test_gram_identity(rng):
    for _ in range(1000):
        u1, u2, v1, v2 = rng.normal(size=(4, 4))
        lhs = ext.wedge(u1, u2) @ ext.wedge(v1, v2)
        gram = np.array([[u1 @ v1, u1 @ v2], [u2 @ v1, u2 @ v2]])
        assert abs(lhs - np.linalg.det(gram)) <= 1e-10 * (1 + abs(lhs))


def test_lambda_m_zero_and_leading_one(rng):
    assert np.allclose(ext.lambda_m(np.zeros((2, 2))), [1, 0, 0, 0, 0, 0])
    for _ in range(200):
        X = rng.normal(size=(2, 2)) * 3.0
        lam = ext.lambda_m(X)
        assert lam[0] == 1.0
        nrm2 = 1.0 + np.sum(X * X) + np.linalg.det(X) ** 2
        assert abs(lam @ lam - nrm2) <= 1e-10 * nrm2


def test_lambda_m_x1_display(bundle01):
    # coefficients of the lift of X1 in closed form
    eps, d = 0.1, bundle01.delta
    lam = ext.lambda_m(bundle01.X[0])
    k = 1.0 / (d * (4 - eps**4))
    expected = np.array([1.0, -eps**2 * k, 2 * k, -2 * k, eps**2 * k, k / d])
    assert np.allclose(lam, expected, atol=1e-13)


def test_lambda_m_diagonal_symbolic():
    for t in (0.3, -1.7, 2.0):
        lam = ext.lambda_m(np.diag([t, t]))
        assert np.allclose(lam, [1, 0, t, -t, 0, t * t])
        assert abs(ext.plucker(lam)) < 1e-14
        # cross-check against the column wedge
        cols = np.array([[1, 0], [0, 1], [t, 0], [0, t]], dtype=float)
        assert np.allclose(lam, ext.wedge(cols[:, 0], cols[:, 1]))


def test_ad_cases(bundle01):
    assert np.allclose(ext.ad(np.zeros((2, 2))), 0.0)
    assert np.allclose(ext.ad(np.eye(2)), [1, 0, 0, 1, 1])
    X1 = bundle01.X[0]
    # brute-force determinant oracle
    det = X1[0, 0] * X1[1, 1] - X1[0, 1] * X1[1, 0]
    assert abs(ext.ad(X1)[4] - det) < 1e-14


def test_ad_matches_lambda_m_signs(rng):
    # (e13, e14, e23, e24, e34) <-> (+X01, +X11, -X00, -X10, +det)
    for _ in range(50):
        X = rng.normal(size=(2, 2))
        lam = ext.lambda_m(X)
        a = ext.ad(X)
        assert np.allclose(lam[1:], [a[1], a[3], -a[0], -a[2], a[4]])


def test_is_simple():
    assert ext.is_simple(np.array([1, 0, 0, 0, 0, 0.0]))
    assert not ext.is_simple(np.array([1, 0, 0, 0, 0, 1.0]))  # Pl = 1
    with pytest.raises(ValueError):
        ext.is_simple(np.zeros(6), tol=0.0)


def test_is_simple_v3():
    b = build(0.1)
    assert ext.is_simple(b.v[2])


def test_principal_angles_same_and_orthogonal():
    p = ext.OrientedPlane.from_basis(E[0], E[1])
    q = ext.OrientedPlane.from_basis(E[2], E[3])
    assert ext.principal_angles(p, p) == (0.0, 0.0)
    th = ext.principal_angles(p, q)
    assert np.allclose(th, [np.pi / 2, np.pi / 2])


def test_principal_angles_cosine_product(bundle01):
    w1 = bundle01.w[0]
    pw1 = ext.OrientedPlane.from_bivector(w1 / np.linalg.norm(w1))
    h = ext.OrientedPlane.from_basis(E[0], E[1])
    t1, t2 = ext.principal_angles(pw1, h)
    assert abs(np.cos(t1) * np.cos(t2) - w1[0] / np.linalg.norm(w1)) < 1e-12


def test_principal_angles_rejects_bad_basis():
    with pytest.raises(ValueError, match="non-orthonormal basis"):
        ext.OrientedPlane.from_basis(E[0], E[0])


def test_classify_plane_basic(bundle01):
    h = ext.OrientedPlane.from_basis(E[0], E[1])
    assert ext.classify_plane(h, 0.1) == ext.HORIZONTAL
    assert ext.classify_bivector(bundle01.w[2], 0.1) == ext.VERTICAL
    # the plane of lambda_m(diag(1,1)) has projection singular values 1/sqrt(2)
    lam = ext.lambda_m(np.eye(2))
    assert ext.classify_bivector(lam, 0.1) == ext.MIXED


def test_classify_mixed_svd_oracle():
    # direct SVD of the projection blocks for the diag(1,1) lift plane
    b1 = np.array([1, 0, 1, 0]) / np.sqrt(2)
    b2 = np.array([0, 1, 0, 1]) / np.sqrt(2)
    s = np.linalg.svd(np.stack([b1[:2], b2[:2]], axis=1), compute_uv=False)
    assert s[-1] < 1 / 1.1  # fails the horizontal criterion at eps = 0.1


def test_classify_invariant_under_oriented_reparam(rng):
    for _ in range(100):
        w = random_simple(rng)
        p = ext.OrientedPlane.from_bivector(w / np.linalg.norm(w))
        th = rng.uniform(0, 2 * np.pi)
        c, s = np.cos(th), np.sin(th)
        b1 = c * p.basis[:, 0] + s * p.basis[:, 1]
        b2 = -s * p.basis[:, 0] + c * p.basis[:, 1]
        q = ext.OrientedPlane.from_basis(b1, b2)
        for eps in (0.05, 0.1, 0.3):
            assert ext.classify_plane(p, eps) == ext.classify_plane(q, eps)


def _mixed_sampler(rng, n):
    """Half generic simple 2-vectors, half perturbations of the h/v planes."""
    out = []
    for i in range(n):
        if i % 2 == 0:
            out.append(random_simple(rng))
        else:
            base = (E[0], E[1]) if i % 4 == 1 else (E[3], E[2])
            u = base[0] + 0.2 * rng.normal(size=4)
            v = base[1] + 0.2 * rng.normal(size=4)
            out.append(ext.wedge(u, v))
    return out


def test_scalar_test_implies_classification(rng):
    n_checked = 0
    for w in _mixed_sampler(rng, 10_000):
        for eps in (0.1,):
            if ext.scalar_horizontal_test(w, eps):
                assert ext.classify_bivector(w, eps) == ext.HORIZONTAL
                n_checked += 1
            if ext.scalar_vertical_test(w, eps):
                assert ext.classify_bivector(w, eps) == ext.VERTICAL
                n_checked += 1
    assert n_checked > 100  # the sampler must actually exercise the test


def _svd_oracle(b1, b2, eps, strict):
    """Reference classifier: Gram-Schmidt basis, SVD of the two 2x2 blocks."""
    e1 = b1 / np.linalg.norm(b1)
    w = b2 - (b2 @ e1) * e1
    B = np.stack([e1, w / np.linalg.norm(w)], axis=1)
    thresh = 1.0 / (1.0 + eps)
    above = (lambda s: s > thresh) if strict else (lambda s: s >= thresh)
    mh, mv = B[:2], B[2:]
    if np.linalg.det(mh) > 0.0 and above(np.linalg.svd(mh, compute_uv=False)[-1]):
        return ext.HORIZONTAL
    if np.linalg.det(mv) < 0.0 and above(np.linalg.svd(mv, compute_uv=False)[-1]):
        return ext.VERTICAL
    return ext.MIXED


def _isoclinic_pair(rng, sigma, vertical):
    """Spanning vectors of a plane whose h (or v) block has both singular values sigma."""
    th, a, b = rng.uniform(0.0, 2.0 * np.pi, size=3)
    t = np.sqrt(1.0 / sigma**2 - 1.0)
    X = t * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    Q = np.zeros((4, 4))
    Q[:2, :2] = [[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]
    Q[2:, 2:] = [[np.cos(b), -np.sin(b)], [np.sin(b), np.cos(b)]]
    B = Q @ np.vstack([np.eye(2), X])
    if vertical:  # e1, e2 -> e4, e3: the v block gets the h block reversed
        B = B[[2, 3, 1, 0]]
    return B[:, 0], B[:, 1]


def test_classify_batch_matches_svd_oracle(rng):
    pairs = []
    for i in range(600):  # generic planes, and perturbed h and v planes
        u, v = rng.normal(size=(2, 4))
        if i % 2:
            u, v = u * 0.2 + E[0], v * 0.2 + E[1]
            if i % 4 == 3:
                u, v = u[[3, 2, 0, 1]], v[[3, 2, 0, 1]]
        pairs.append((u, v))
    for eps in (0.05, 0.1, 0.2):
        for k in range(100):
            sigma = (1.0 + (-1) ** k * 1e-6) / (1.0 + eps)
            pairs.append(_isoclinic_pair(rng, sigma, vertical=k % 4 < 2))
    b1s, b2s = map(np.array, zip(*pairs))
    for eps in (0.05, 0.1, 0.2):
        for strict in (False, True):
            labels = ext.classify_batch(b1s, b2s, eps, strict=strict)
            expected = [_svd_oracle(u, v, eps, strict) for u, v in pairs]
            assert labels.tolist() == expected
            assert set(expected) == {ext.HORIZONTAL, ext.VERTICAL, ext.MIXED}


@pytest.mark.parametrize("rel", [1e-12, -1e-12])
def test_classify_at_threshold(rel):
    eps = 0.1
    thresh = 1.0 / (1.0 + eps)
    c = thresh * (1.0 + rel)
    s = np.sqrt(1.0 - c * c)
    # isoclinic (both singular values c) and non-isoclinic (c and 1) planes
    h_pairs = [(c * E[0] + s * E[2], c * E[1] + s * E[3]), (c * E[0] + s * E[2], E[1])]
    v_pairs = [(c * E[3] + s * E[0], c * E[2] + s * E[1]), (c * E[3] + s * E[0], E[2])]
    for pairs, label in ((h_pairs, ext.HORIZONTAL), (v_pairs, ext.VERTICAL)):
        for u, v in pairs:
            w = ext.wedge(u, v)
            for strict in (False, True):
                expected = label if (c > thresh if strict else c >= thresh) else ext.MIXED
                assert ext.classify_bivector(w, eps, strict=strict) == expected
            # reversing the orientation flips the sign of the determinant
            assert ext.classify_bivector(-w, eps) == ext.MIXED


def test_classify_coordinate_planes_without_warnings():
    rows = np.array([ext.E12, -ext.E12, ext.E34, -ext.E34, ext.wedge(E[0], E[2])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        labels = ext.classify_bivector(rows, 0.1)
        assert [ext.classify_bivector(r, 0.1) for r in rows] == labels.tolist()
    assert labels.tolist() == [ext.HORIZONTAL, ext.MIXED, ext.MIXED, ext.VERTICAL, ext.MIXED]


def test_classify_input_errors():
    with pytest.raises(ValueError, match="eps"):
        ext.classify_bivector(ext.E12, 1.0)
    with pytest.raises(ValueError, match="zero 2-vector"):
        ext.classify_bivector(np.stack([ext.E12, np.zeros(6)]), 0.1)
    with pytest.raises(ValueError, match="not simple"):
        ext.classify_bivector(ext.E12 + ext.E34, 0.1)


def test_plane_roundtrip_through_bivector(rng):
    for _ in range(50):
        w = random_simple(rng)
        w = w / np.linalg.norm(w)
        p = ext.OrientedPlane.from_bivector(w)
        assert np.allclose(p.vector, w, atol=1e-10)


def test_construction_spanning_vectors_match_wedges(bundle01):
    u = spanning_vectors(0.1, bundle01.delta)
    for i in range(3):
        assert np.allclose(ext.wedge(u[i, 0], u[i, 1]), bundle01.v[i], atol=1e-15)
