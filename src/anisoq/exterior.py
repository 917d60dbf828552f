"""Exact exterior algebra on 2-vectors in R^4.

Everything in this package uses one fixed coordinate convention for
Lambda^2 R^4, declared here once and used bit-exactly everywhere:

* ordered basis  (e12, e13, e14, e23, e24, e34); a 2-vector is the
  length-6 array of its coefficients, and an (N, 6) array a stack of them,
* wedge coefficients  p_ij = u_i v_j - u_j v_i,
* Pluecker form  Pl(p) = p12*p34 - p13*p24 + p14*p23, which vanishes
  exactly on simple (decomposable) 2-vectors,
* graph lift  LambdaM(X) = wedge of the two columns of (id_2; X):

      LambdaM(X) = e12 + X[0,1] e13 + X[1,1] e14
                       - X[0,0] e23 - X[1,0] e24 + det(X) e34,

* minors vector  ad(X) = (X[0,0], X[0,1], X[1,0], X[1,1], det X).

The map between ad(X) and the non-e12 coefficients of LambdaM(X) is
therefore (e13, e14, e23, e24, e34) <-> (+X01, +X11, -X00, -X10, +det).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# index pairs (i, j) of the ordered basis e_i ^ e_j
BASIS_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PAIR_I, _PAIR_J = np.array(BASIS_PAIRS).T

E12 = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
E34 = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])

HORIZONTAL = "horizontal"
VERTICAL = "vertical"
MIXED = "mixed"
CLASS_LABELS = np.array([HORIZONTAL, VERTICAL, MIXED], dtype=object)

DEFAULT_SIMPLE_TOL = 1e-10


def wedge(u, v):
    """Wedge product of two vectors of R^4 (or of the rows of two (N, 4) stacks)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return u[..., _PAIR_I] * v[..., _PAIR_J] - u[..., _PAIR_J] * v[..., _PAIR_I]


def plucker(v):
    """Pluecker quadratic form; zero exactly on simple 2-vectors."""
    p = np.asarray(v, dtype=float)
    return float(p[0] * p[5] - p[1] * p[4] + p[2] * p[3])


def is_simple(v, tol=DEFAULT_SIMPLE_TOL):
    """Relative simplicity test: |Pl(v)| <= tol * (1 + ||v||^2)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    p = np.asarray(v, dtype=float)
    return bool(abs(plucker(p)) <= tol * (1.0 + float(p @ p)))


def lambda_m(X):
    """Tangent 2-vector of the graph of x -> X x, i.e. wedge of the columns of (id; X).

    The e12 coefficient is identically 1; the remaining coefficients are the
    signed 1x1 minors of X and det(X), per the module sign table.
    """
    X = np.asarray(X, dtype=float)
    return np.array(
        [1.0, X[0, 1], X[1, 1], -X[0, 0], -X[1, 0], X[0, 0] * X[1, 1] - X[0, 1] * X[1, 0]]
    )


def lambda_m_batch(Xs):
    """Vectorised lambda_m for an (N, 2, 2) stack of matrices."""
    Xs = np.asarray(Xs, dtype=float)
    n = Xs.shape[0]
    out = np.empty((n, 6))
    out[:, 0] = 1.0
    out[:, 1] = Xs[:, 0, 1]
    out[:, 2] = Xs[:, 1, 1]
    out[:, 3] = -Xs[:, 0, 0]
    out[:, 4] = -Xs[:, 1, 0]
    out[:, 5] = Xs[:, 0, 0] * Xs[:, 1, 1] - Xs[:, 0, 1] * Xs[:, 1, 0]
    return out


def ad(X):
    """Minors vector (X00, X01, X10, X11, det X) of a 2x2 matrix."""
    X = np.asarray(X, dtype=float)
    return np.array(
        [X[0, 0], X[0, 1], X[1, 0], X[1, 1], X[0, 0] * X[1, 1] - X[0, 1] * X[1, 0]]
    )


@dataclass(frozen=True)
class OrientedPlane:
    """Oriented 2-plane in R^4: an orthonormal basis plus its unit wedge.

    basis is a (4, 2) array whose columns b1, b2 are orthonormal; vector is
    the length-6 coefficient array of b1 ^ b2 (unit and simple).
    """

    basis: np.ndarray
    vector: np.ndarray

    @classmethod
    def from_basis(cls, b1, b2, tol=1e-12):
        b1 = np.asarray(b1, dtype=float)
        b2 = np.asarray(b2, dtype=float)
        g = np.array([[b1 @ b1, b1 @ b2], [b1 @ b2, b2 @ b2]])
        if np.max(np.abs(g - np.eye(2))) > tol:
            raise ValueError("non-orthonormal basis")
        return cls(basis=np.stack([b1, b2], axis=1), vector=wedge(b1, b2))

    @classmethod
    def from_bivector(cls, v, tol=1e-9):
        """Recover the oriented plane of a unit simple 2-vector.

        The 2-vector is viewed as the antisymmetric contraction matrix
        A x = sum_ij p_ij (e_i <e_j, x> - e_j <e_i, x>); for a simple
        2-vector the range of A is the plane, recovered by SVD.
        """
        p = np.asarray(v, dtype=float)
        nrm = float(np.linalg.norm(p))
        if nrm == 0.0:
            raise ValueError("zero 2-vector has no plane")
        if not is_simple(p / nrm, tol):
            raise ValueError("2-vector is not simple")
        A = np.zeros((4, 4))
        for k, (i, j) in enumerate(BASIS_PAIRS):
            A[i, j] = p[k]
            A[j, i] = -p[k]
        U, _, _ = np.linalg.svd(A)
        b1, b2 = U[:, 0], U[:, 1]
        if wedge(b1, b2) @ p < 0.0:
            b1, b2 = b2, b1
        return cls.from_basis(b1, b2)

    def check(self, tol=1e-12):
        g = self.basis.T @ self.basis
        if np.max(np.abs(g - np.eye(2))) > tol:
            raise ValueError("non-orthonormal basis")
        if abs(plucker(self.vector)) > tol:
            raise ValueError("plane 2-vector is not simple")
        if abs(np.linalg.norm(self.vector) - 1.0) > tol:
            raise ValueError("plane 2-vector is not unit")


def principal_angles(p, q):
    """Principal angles (theta1 <= theta2) between two oriented planes, radians.

    The cosines are the singular values of the 2x2 matrix of pairwise basis
    inner products; for compatibly oriented planes their product equals the
    inner product of the two unit wedges.
    """
    p.check()
    q.check()
    g = p.basis.T @ q.basis
    s = np.linalg.svd(g, compute_uv=False)
    s = np.clip(s, -1.0, 1.0)
    th = np.sort(np.arccos(s))
    return float(th[0]), float(th[1])


def classify_plane(plane, eps, strict=False):
    """eps-horizontal / eps-vertical / mixed decision for an oriented plane.

    Horizontal: the projection onto the e12-plane restricted to the plane is
    orientation-preserving with (1+eps)-Lipschitz inverse, i.e. both singular
    values of the projection block are >= 1/(1+eps) and its determinant is
    positive.  Vertical is the analogue for the e34-plane with the reversed
    orientation e4 ^ e3 (so the determinant of the e34 block is negative).
    `strict` uses strict inequalities on the singular values, assigning
    boundary cases to mixed (used for open classifier sets).

    Both blocks are read off the unit 2-vector p in closed form.  The
    horizontal block has determinant p12 and squared singular values
    summing to 2 p12^2 + m, with m = p13^2 + p14^2 + p23^2 + p24^2; their
    difference sigma1^2 - sigma2^2 is

        r = sqrt(((p13 - p24)^2 + (p14 + p23)^2) ((p13 + p24)^2 + (p14 - p23)^2)),

    since the product equals m^2 - 4 (p13 p24 - p14 p23)^2 = m^2 - 4 p12^2 p34^2
    by the Pluecker relation.  Hence sigma_min^2 = 2 p12^2 / (2 p12^2 + m + r).
    Every term is a sum of squares, so nothing cancels, not even for
    isoclinic planes where sigma1 = sigma2 and r = 0.  The vertical block
    has determinant p34 and the same formula with p12 and p34 swapped.

    The decision is by singular values directly; the scalar inner-product
    test <v, e12> >= ||v||/(1+eps) is only a sufficient condition for
    horizontal and is deliberately not used here.
    """
    plane.check(tol=1e-9)
    return classify_bivector(plane.vector, eps, strict)


def classify_bivector(v, eps, strict=False):
    """Classify the plane of a simple 2-vector (need not be unit), per classify_plane.

    Takes one 2-vector (a label is returned) or an (N, 6) stack (an array
    of labels is returned).
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    p = np.asarray(v, dtype=float)
    nrm = np.linalg.norm(p, axis=-1, keepdims=True)
    if np.any(nrm == 0.0):
        raise ValueError("zero 2-vector has no plane")
    p = p / nrm
    p12, p13, p14, p23, p24, p34 = np.moveaxis(p, -1, 0)
    pl = p12 * p34 - p13 * p24 + p14 * p23
    if np.any(np.abs(pl) > 1e-9 * (1.0 + np.sum(p * p, axis=-1))):
        raise ValueError("2-vector is not simple")
    m = p13**2 + p14**2 + p23**2 + p24**2
    r = np.sqrt(((p13 - p24) ** 2 + (p14 + p23) ** 2) * ((p13 + p24) ** 2 + (p14 - p23) ** 2))
    thresh_sq = (1.0 / (1.0 + eps)) ** 2
    above = np.greater if strict else np.greater_equal

    def passes(det):
        # the denominator vanishes only when det = 0, which fails the sign test
        den = 2.0 * det**2 + m + r
        return above(2.0 * det**2 / np.where(den > 0.0, den, 1.0), thresh_sq)

    horiz = (p12 > 0.0) & passes(p12)
    vert = (p34 < 0.0) & passes(p34)
    labels = CLASS_LABELS[np.where(horiz, 0, np.where(vert, 1, 2))]
    return labels if p.ndim > 1 else str(labels)


def classify_batch(b1s, b2s, eps, strict=False):
    """Classify the planes spanned by the rows of two (N, 4) arrays (not nec. orthonormal)."""
    return classify_bivector(wedge(b1s, b2s), eps, strict)


def scalar_horizontal_test(v, eps):
    """Sufficient scalar test for eps-horizontal: <v, e12> >= ||v||/(1+eps)."""
    p = np.asarray(v, dtype=float)
    return bool(p[0] >= np.linalg.norm(p) / (1.0 + eps))


def scalar_vertical_test(v, eps):
    """Sufficient scalar test for eps-vertical: <v, e43> >= ||v||/(1+eps)."""
    p = np.asarray(v, dtype=float)
    return bool(-p[5] >= np.linalg.norm(p) / (1.0 + eps))
