"""The explicit three-atom construction and its verification.

Builds, for a small parameter eps, the three simple 2-vectors v1, v2, v3
whose sum is the horizontal 2-vector 2 delta^2 e12, their images w1, w2, w3
under the squeeze map R = diag(1, 1, eps, eps), the lift matrices X1, X2, X3
with v_i = c_i * LambdaM(X_i), the two atomic Grassmann measures carried by
the v- and w-planes (ConstructionBundle.mu and mu0), and the convexity-
violation certificate assembled from envelope bounds.  A command builds the
bundle once and hands it down: energy.PsiConfig holds it, the certificate
reads its weights, and gmeasures.obstruction_report is passed its mu0.

All constants are derived from the wedge expansions and re-checked against
independent closed forms; where a derived constant differs from a commonly
miswritten variant, the verification report carries an explicit note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exterior
from .exterior import E12, ad, lambda_m_batch, plucker, wedge
from .gmeasures import GrassmannMeasure

EPS_DOMAIN_MAX = (4.0 / 3.0) ** 0.25
BUILD_EPS_MAX = 0.2
# Below this the construction no longer separates the classes in floating
# point: `construct` passes every check down to eps = 1e-15, fails
# mu0_mass_on_mixed (residual 0.5) from 1e-16 on, and divides by zero once
# eps**4 underflows (1e-100).  1e-12 keeps three decades of margin.
BUILD_EPS_MIN = 1e-12
EPS_GRID = (0.02, 0.05, 0.1, 0.15, 0.2)


def delta_quadratic_coeffs(eps):
    """Coefficients (A, B, C) of the norm-equalising quadratic A t^2 + B t + C."""
    e4 = eps**4
    e8 = eps**8
    return 16.0 - 8.0 * e4 - 3.0 * e8, 8.0 - 6.0 * e4, -3.0


def delta_of_eps(eps):
    """The unique delta > 0 equalising ||v1|| = ||v3||; delta(0+) = 1/2.

    delta^2 is the positive root of (16 - 8 eps^4 - 3 eps^8) t^2
    + (8 - 6 eps^4) t - 3 = 0, which exists iff 0 < eps < (4/3)^(1/4).
    """
    if not (0.0 < eps < EPS_DOMAIN_MAX):
        raise ValueError(f"eps must lie in (0, (4/3)^(1/4)); got {eps}")
    A, B, C = delta_quadratic_coeffs(eps)
    disc = B * B - 4.0 * A * C
    t = (-B + math.sqrt(disc)) / (2.0 * A)
    resid = abs(A * t * t + B * t + C)
    if resid > 1e-12:
        raise ArithmeticError(f"quadratic residual {resid} exceeds 1e-12")
    return math.sqrt(t)


@dataclass
class ConstructionBundle:
    """All explicit objects of the construction at a given eps."""

    eps: float
    delta: float
    v: np.ndarray  # (3, 6) simple 2-vectors of equal norm
    w: np.ndarray  # (3, 6) images under R acting on wedges
    X: np.ndarray  # (3, 2, 2) lift matrices with v_i = c_i * LambdaM(X_i)
    c: np.ndarray  # (3,) positive lift constants
    R: np.ndarray  # 4x4 squeeze diag(1, 1, eps, eps)
    u: np.ndarray  # (3, 2, 4) spanning vector pairs with v_i = u_i1 ^ u_i2

    def identities(self):
        """(name, residual, tol) rows of the defining identities: equal norms,
        the barycenter, simplicity (Pluecker) and the lift v_i = c_i LambdaM(X_i)."""
        nrm = np.linalg.norm(self.v, axis=1)
        pl, lam = plucker(self.v), lambda_m_batch(self.X)
        rows = [("equal_norms_v1_v2", abs(nrm[0] - nrm[1]), 1e-12),
                ("equal_norms_v1_v3", abs(nrm[0] - nrm[2]), 1e-12),
                ("barycenter_sum",
                 np.linalg.norm(self.v.sum(axis=0) - 2.0 * self.delta**2 * E12), 1e-12)]
        for i in range(3):
            rows.append((f"plucker_v{i + 1}", abs(pl[i]), 1e-12))
            rows.append((f"lift_v{i + 1}", np.linalg.norm(self.v[i] - self.c[i] * lam[i]),
                         1e-10))
        return rows

    def validate(self):
        for name, residual, tol in self.identities():
            if not residual <= tol:
                raise AssertionError(f"construction identity {name} failed: "
                                     f"residual {residual:.3e} > {tol:.1e}")
        if not np.all(self.c > 0):
            raise AssertionError(f"lift constants c = {self.c.tolist()} are not all positive")
        rw = _wedge_squeeze(self.eps)
        if np.max(np.abs(self.w - self.v * rw[None, :])) > 1e-10:
            raise AssertionError("w_i != R v_i")

    def chain_coefficients(self):
        """The flux-balance chain's coefficients 2||w1||/||w3|| of the vertical
        mass and 4||w1||/eps^2 of the non-special mass."""
        w1 = float(np.linalg.norm(self.w[0]))
        w3 = float(np.linalg.norm(self.w[2]))
        return 2.0 * w1 / w3, 4.0 * w1 / self.eps**2

    def mu(self):
        """Three equal-weight atoms ||v_i|| at the unit v-planes; barycenter || e12."""
        nrm = np.linalg.norm(self.v, axis=1, keepdims=True)
        return GrassmannMeasure(self.v / nrm, nrm)

    def mu0(self):
        """Atoms ||w_i|| at the unit w-planes (two horizontal, one vertical)."""
        nrm = np.linalg.norm(self.w, axis=1, keepdims=True)
        return GrassmannMeasure(self.w / nrm, nrm)


def _wedge_squeeze(eps):
    """Action of diag(1,1,eps,eps) on the six wedge coordinates."""
    return np.array([1.0, eps, eps, eps, eps, eps * eps])


def spanning_vectors(eps, delta):
    """The three spanning pairs (u_i1, u_i2) of the 2-vectors v_i."""
    e = np.eye(4)
    h = 0.5 * (e[2] + eps**2 * delta * e[1])
    k = 0.5 * (e[3] + eps**2 * delta * e[0])
    u = np.empty((3, 2, 4))
    u[0, 0] = delta * e[0] + h
    u[0, 1] = delta * e[1] + k
    u[1, 0] = delta * e[0] - h
    u[1, 1] = delta * e[1] - k
    u[2, 0] = k
    u[2, 1] = 2.0 * h
    return u


def build(eps):
    """Construct the full bundle; requires 1e-12 <= eps <= 0.2 (small-eps regime)."""
    if not (BUILD_EPS_MIN <= eps <= BUILD_EPS_MAX):
        raise ValueError(f"eps must lie in [{BUILD_EPS_MIN}, {BUILD_EPS_MAX}]; got {eps}")
    delta = delta_of_eps(eps)
    u = spanning_vectors(eps, delta)
    v = np.stack([wedge(u[i, 0], u[i, 1]) for i in range(3)])
    # read the lift off the e12-normalised coordinates:
    # LambdaM(X) = (1, X01, X11, -X00, -X10, det X)
    c = v[:, 0].copy()
    X = np.empty((3, 2, 2))
    for i in range(3):
        p = v[i] / c[i]
        X[i] = np.array([[-p[3], p[1]], [-p[4], p[2]]])
        det = X[i, 0, 0] * X[i, 1, 1] - X[i, 0, 1] * X[i, 1, 0]
        if abs(det - p[5]) > 1e-9 * max(1.0, abs(p[5])):
            raise AssertionError(f"minor consistency failed for X{i + 1}")
    w = v * _wedge_squeeze(eps)[None, :]
    bundle = ConstructionBundle(
        eps=eps, delta=delta, v=v, w=w, X=X, c=c, R=np.diag([1.0, 1.0, eps, eps]), u=u
    )
    bundle.validate()
    return bundle


def closed_forms(eps, delta):
    """Independent closed-form expressions used to cross-check the wedges."""
    t = delta * delta
    e2, e4, e6, e8 = eps**2, eps**4, eps**6, eps**8
    return {
        "norm_v1_sq": (1.0 - e4 / 4.0) ** 2 * t * t + (0.5 + e4 / 8.0) * t + 1.0 / 16.0,
        "norm_v3_sq": 0.25 * (e8 * t * t + 2.0 * e4 * t + 1.0),
        "w1_dot_e12": t * (1.0 - e4 / 4.0),
        "norm_w1_sq": (1.0 - e4 / 4.0) ** 2 * t * t + (e2 / 2.0 + e6 / 8.0) * t + e4 / 16.0,
        "w3_dot_e34": -e2 / 2.0,
        "norm_w3_sq": 0.25 * (e2 + e4 * t) ** 2,
        "c1": t * (4.0 - e4) / 4.0,
        "c3": e4 * t / 2.0,
    }


def make_mu0(eps):
    """The construction's mu0 at eps, for a caller that holds no bundle."""
    return build(eps).mu0()


# notes attached to derived constants in the verification report; each states
# the derivation that fixes the value and the variant that fails it
DERIVATION_NOTES = [
    "barycenter: v1+v2+v3 = 2*delta^2*e12; the coefficient is quadratic in "
    "delta (the delta-linear variant does not close under the wedge expansion).",
    "lift constant c1 = c2 = delta^2*(4-eps^4)/4, the e12 coefficient of v1; "
    "equivalently LambdaM(X1) = (4/(delta^2*(4-eps^4))) * v1. Variants with "
    "(4-eps^2), or with the constant on the wrong side of the identity, fail "
    "||v1 - c1*LambdaM(X1)|| <= 1e-10.",
    "lift constant c3 = eps^4*delta^2/2, the e12 coefficient of v3; the "
    "eps^2*delta^2/2 variant fails the lift identity.",
]


def verification_report(eps):
    """Check every construction identity at eps; returns a JSON-ready dict."""
    b = build(eps)
    cf = closed_forms(eps, b.delta)
    A, B, C = delta_quadratic_coeffs(eps)
    t = b.delta**2
    checks = []

    def add(name, residual, tol):
        checks.append(
            {
                "name": name,
                "residual": float(residual),
                "tol": float(tol),
                "passed": bool(residual <= tol),
            }
        )

    add("delta_quadratic_residual", abs(A * t * t + B * t + C), 1e-12)
    for row in b.identities():
        add(*row)
    nrm = np.linalg.norm(b.v, axis=1)
    add("norm_v1_closed_form", abs(nrm[0] ** 2 - cf["norm_v1_sq"]), 1e-12)
    add("norm_v3_closed_form", abs(nrm[2] ** 2 - cf["norm_v3_sq"]), 1e-12)
    add("w1_dot_e12_closed_form", abs(b.w[0, 0] - cf["w1_dot_e12"]), 1e-12)
    add("norm_w1_closed_form", abs(b.w[0] @ b.w[0] - cf["norm_w1_sq"]), 1e-12)
    add("w3_dot_e34_closed_form", abs(b.w[2, 5] - cf["w3_dot_e34"]), 1e-12)
    add("norm_w3_closed_form", abs(b.w[2] @ b.w[2] - cf["norm_w3_sq"]), 1e-12)
    add("c1_closed_form", abs(b.c[0] - cf["c1"]), 1e-12)
    add("c3_closed_form", abs(b.c[2] - cf["c3"]), 1e-12)
    # classification of the w-planes
    labels = [exterior.classify_bivector(b.w[i], eps) for i in range(3)]
    expected = [exterior.HORIZONTAL, exterior.HORIZONTAL, exterior.VERTICAL]
    for i in range(3):
        add(f"classify_w{i + 1}_{expected[i]}", 0.0 if labels[i] == expected[i] else 1.0, 0.5)
    # scalar sufficient tests from the inner products
    add(
        "scalar_test_w1_horizontal",
        0.0 if exterior.scalar_horizontal_test(b.w[0], eps) else 1.0,
        0.5,
    )
    add(
        "scalar_test_w3_vertical",
        0.0 if exterior.scalar_vertical_test(b.w[2], eps) else 1.0,
        0.5,
    )
    mu = b.mu()
    bary = mu.barycenter()
    add("mu_barycenter_off_e12", np.linalg.norm(bary - bary[0] * E12), 1e-12)
    add("mu_total_mass_three_atoms", abs(mu.total_mass() - 3.0 * nrm[0]), 1e-12)
    mu0 = b.mu0()
    add("mu0_mass_on_mixed", mu0.mass_by_class(eps)[exterior.MIXED], 0.0 + 1e-15)
    return {
        "eps": eps,
        "delta": b.delta,
        "checks": checks,
        "all_passed": all(ch["passed"] for ch in checks),
        "notes": DERIVATION_NOTES,
    }


def certificate(b, uppers, lower):
    """The bundle b's convexity-violation certificate, as the
    certificate.schema.json object less its chain_trace, from envelope bounds:
    uppers, three upper bounds for the envelope at the targets (q, X_i), and
    lower, a lower bound at the zero target (q, 0), for one q.

    It is valid when the weights lambda_i > 0 combine the lift matrices
    affinely to zero (sum lambda_i = 1 and sum lambda_i ad(X_i) = ad(0) up to
    1e-10) while the upper bounds vanish and the lower bound is strictly
    positive; gap is lower - sum lambda_i uppers_i.
    """
    uppers = np.asarray(uppers, dtype=float)
    lower = float(lower)
    if uppers.shape != (3,):
        raise ValueError("uppers must have exactly three entries")
    if lower < 0.0:
        raise ValueError("envelope lower bound must be nonnegative")
    lam = b.c / (2.0 * b.delta**2)
    residual_sum = abs(float(lam.sum()) - 1.0)
    residual_affine = float(np.linalg.norm(sum(lam[i] * ad(b.X[i]) for i in range(3))))
    valid = bool(np.all(lam > 0.0) and residual_affine <= 1e-10 and residual_sum <= 1e-10
                 and np.all(uppers <= 1e-12) and lower > 0.0)
    return {
        "lambda": lam.tolist(),
        "residual_affine": residual_affine,
        "residual_sum": residual_sum,
        "envelope_values": uppers.tolist(),
        "envelope_lower_at_zero": lower,
        "gap": lower - float(lam @ uppers),
        "valid": valid,
    }
