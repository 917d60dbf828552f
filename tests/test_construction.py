import numpy as np
import pytest

from anisoq import construction as con
from anisoq import exterior
from tests.conftest import EPS_GRID

E12 = np.array([1.0, 0, 0, 0, 0, 0])


def bisection_delta(eps, lo=0.0, hi=1.0, iters=200):
    """Independent oracle: bisection for delta^2 on the norm-equalising quadratic."""
    A, B, C = con.delta_quadratic_coeffs(eps)

    def f(t):
        return A * t * t + B * t + C

    assert f(lo) < 0 < f(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return np.sqrt(0.5 * (lo + hi))


def test_delta_small_eps_limit():
    assert abs(con.delta_of_eps(1e-6) - 0.5) <= 1e-6


def test_delta_domain_errors():
    for bad in (0.0, -0.1, (4.0 / 3.0) ** 0.25, 1.2):
        with pytest.raises(ValueError):
            con.delta_of_eps(bad)


def test_delta_bisection_oracle():
    for eps in (0.1, 0.3, 0.8):
        assert abs(con.delta_of_eps(eps) - bisection_delta(eps)) < 1e-12


def test_delta_quadratic_residual_grid():
    for eps in EPS_GRID:
        t = con.delta_of_eps(eps) ** 2
        A, B, C = con.delta_quadratic_coeffs(eps)
        assert abs(A * t * t + B * t + C) <= 1e-12


def test_build_domain():
    with pytest.raises(ValueError):
        con.build(0.25)
    with pytest.raises(ValueError):
        con.build(-1.0)


def test_bundle_invariants_on_grid():
    for eps in EPS_GRID:
        b = con.build(eps)
        b.validate()
        nrm = np.linalg.norm(b.v, axis=1)
        assert abs(nrm[0] - nrm[2]) <= 1e-12
        assert np.linalg.norm(b.v.sum(axis=0) - 2 * b.delta**2 * E12) <= 1e-12
        lam = exterior.lambda_m_batch(b.X)
        for i in range(3):
            assert abs(exterior.plucker(b.v[i])) <= 1e-12
            assert np.linalg.norm(b.v[i] - b.c[i] * lam[i]) <= 1e-10


def test_closed_forms_on_grid():
    for eps in EPS_GRID:
        b = con.build(eps)
        cf = con.closed_forms(eps, b.delta)
        assert abs(b.v[0] @ b.v[0] - cf["norm_v1_sq"]) <= 1e-12
        assert abs(b.v[2] @ b.v[2] - cf["norm_v3_sq"]) <= 1e-12
        assert abs(b.w[0, 0] - cf["w1_dot_e12"]) <= 1e-12
        assert abs(b.w[0] @ b.w[0] - cf["norm_w1_sq"]) <= 1e-12
        assert abs(b.w[2, 5] - cf["w3_dot_e34"]) <= 1e-12
        assert abs(b.w[2] @ b.w[2] - cf["norm_w3_sq"]) <= 1e-12


def test_lift_constants_derived_values():
    for eps in EPS_GRID:
        b = con.build(eps)
        t = b.delta**2
        assert abs(b.c[0] - t * (4 - eps**4) / 4.0) <= 1e-13
        assert abs(b.c[1] - b.c[0]) <= 1e-13
        assert abs(b.c[2] - eps**4 * t / 2.0) <= 1e-15
        # equivalently, the lift of X1 is (4 / (delta^2 (4 - eps^4))) v1
        k = 4.0 / (t * (4 - eps**4))
        assert np.linalg.norm(exterior.lambda_m_batch(b.X)[0] - k * b.v[0]) <= 1e-10


def test_classification_on_grid():
    for eps in EPS_GRID:
        b = con.build(eps)
        assert exterior.classify_bivector(b.w[0], eps) == exterior.HORIZONTAL
        assert exterior.classify_bivector(b.w[1], eps) == exterior.HORIZONTAL
        assert exterior.classify_bivector(b.w[2], eps) == exterior.VERTICAL
        # scalar sufficient tests from the closed-form inner products
        assert exterior.scalar_horizontal_test(b.w[0], eps)
        assert exterior.scalar_vertical_test(b.w[2], eps)


def test_make_mu_properties(bundle01):
    mu = bundle01.mu()
    bary = mu.barycenter()
    assert np.linalg.norm(bary - bary[0] * E12) <= 1e-12
    assert bary[0] > 0
    nrm = np.linalg.norm(bundle01.v[0])
    assert abs(mu.total_mass() - 3 * nrm) <= 1e-12
    wts = mu.weights
    assert np.max(np.abs(wts - wts[0])) <= 1e-14


def test_make_mu0_masses(bundle01):
    mu0 = con.make_mu0(0.1)
    masses = mu0.mass_by_class(0.1)
    assert masses[exterior.MIXED] == 0.0
    assert masses[exterior.VERTICAL] > 0.0


def test_verification_report_all_pass():
    rep = con.verification_report(0.1)
    assert rep["all_passed"], [c for c in rep["checks"] if not c["passed"]]
    assert len(rep["notes"]) == 3


def test_validate_names_the_first_failing_identity():
    # the report lists the bundle's identity rows, and validate raises on the
    # first of them that fails
    b = con.build(0.1)
    names = [name for name, _r, _t in b.identities()]
    report = [ch["name"] for ch in con.verification_report(0.1)["checks"]]
    assert report[1:1 + len(names)] == names
    b.c = b.c * np.array([1.0, 1.0, 1.0 + 1e-6])
    with pytest.raises(AssertionError, match="lift_v3"):
        b.validate()


def test_certificate_weights(bundle01):
    cert = con.certificate(bundle01, [0.0, 0.0, 0.0], 1e-6)
    assert np.all(np.asarray(cert["lambda"]) > 0)
    assert cert["residual_sum"] <= 1e-12
    assert cert["residual_affine"] <= 1e-10
    assert cert["valid"]
    assert cert["gap"] > 0
    # e34-coordinate identity: sum lambda_i det X_i = 0
    dets = [np.linalg.det(bundle01.X[i]) for i in range(3)]
    assert abs(sum(cert["lambda"][i] * dets[i] for i in range(3))) <= 1e-10


def test_certificate_degenerate_lower_bound(bundle01):
    cert = con.certificate(bundle01, [0.0, 0.0, 0.0], 0.0)
    assert not cert["valid"]  # no error: just an invalid certificate


def test_certificate_rejects_negative_lower(bundle01):
    with pytest.raises(ValueError):
        con.certificate(bundle01, [0.0, 0.0, 0.0], -1.0)


def test_certificate_json(bundle01):
    obj = con.certificate(bundle01, [0.0, 0.0, 0.0], 1e-7)
    assert obj["valid"] is True
    assert len(obj["lambda"]) == 3
