"""The degenerate anisotropic integrand psi and the envelope bracket.

psi vanishes exactly on the three lift matrices X1, X2, X3 (equivalently,
where the graph tangent LambdaM(X) is positively proportional to one of the
three construction rays) and equals ||LambdaM(X)|| elsewhere; psi_entries
evaluates exactly this integrand from the four entries of the gradients,
zero within the angle DEFAULT_RAY_TOL of a ray, psi_batch on a stack of
gradients and psi_mass_of_current its mass on a triangulated current.  All
of them go through one screen on the e12 coefficient of the unit 2-vector:
only a row whose e12 coefficient is within DEFAULT_RAY_TOL +
RAY_SCREEN_MARGIN of some ray's gets an exact angle, and psi_entries tests
the e13 coefficient of those rows the same way first; every other row is
off the rays.  The envelope of the induced Q-integrand is bracketed
numerically at a target (q, X), q copies of the linear map x -> X x:

* upper bound: the exact psi-mass of a concrete competitor current with
  the target's affine boundary, the least of closed-form families (the
  affine graph and one graded ray ring per ray) -- a sound upper bound by
  construction;
* lower bound at the zero target: the quantitative chain combining the
  flux-balance inequality, the no-cancellation projection bound and the
  empirical mixed/vertical mass ratio constant 1/200.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import construction
from .currents import FunctionalQGraph, Mesh, TriangulatedCurrent, triangulate
from .exterior import lambda_m_batch

# angle (rad) to a ray within which psi is 0
DEFAULT_RAY_TOL = 1e-9
# angle (rad) added to psi's cut-off before rows are screened off by their
# e12 coefficient
RAY_SCREEN_MARGIN = 1e-3
# the screen's width on the e12 coefficient, shared by _screened's cut and
# PsiConfig.floor, whose soundness rests on the two being the same
_SCREEN_WIDTH = DEFAULT_RAY_TOL + RAY_SCREEN_MARGIN
LOWER_BOUND_RATIO_CONSTANT = 1.0 / 200.0


@dataclass
class PsiConfig:
    """Zero rays LambdaM(X_i) / ||.|| of the bundle's integrand, with their
    distinct e12 and e13 coefficients for the screens and the norm floor of
    psi_entries: a row whose norm ||LambdaM(X)|| is below the floor has e12
    coefficient 1 / ||LambdaM(X)|| above every ray's by more than the screen's
    width (the factor 1 - 1e-12 dwarfs the rounding of both sides)."""

    bundle: construction.ConstructionBundle
    rays: np.ndarray = field(init=False, repr=False, compare=False)  # (3, 6)
    screen: tuple = field(init=False, repr=False, compare=False)
    screen13: tuple = field(init=False, repr=False, compare=False)
    floor: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rays = lambda_m_batch(self.bundle.X)
        self.rays = rays / np.linalg.norm(rays, axis=1, keepdims=True)
        self.screen = tuple(sorted(set(self.rays[:, 0].tolist())))
        self.screen13 = tuple(sorted(set(self.rays[:, 1].tolist())))
        self.floor = (1.0 - 1e-12) / (self.screen[-1] + _SCREEN_WIDTH)

    @classmethod
    def for_eps(cls, eps):
        return cls(construction.build(eps))


def _screened(e12, norms, cfg):
    """Flat indices of the rows whose unit 2-vector, with e12 coefficient
    e12 / norms, is within DEFAULT_RAY_TOL + RAY_SCREEN_MARGIN of some ray's
    in that coefficient, NaN rows included.

    A unit 2-vector within the angle T of a unit ray differs from it by at
    most 2 sin(T / 2) <= T in every coordinate, so no row left out is within
    T of a ray.  The margin dwarfs the rounding of the coefficient and of the
    exact angle, so the screen never drops a row that _ray_angles would put
    inside DEFAULT_RAY_TOL.  A row whose norm overflowed to inf is left out
    too: dividing it by its norm would give no direction.
    """
    near = np.flatnonzero(_within_screen(e12 / norms, cfg.screen))
    if near.size:
        near = near[~np.isinf(np.ravel(norms)[near])]
    return near


def _within_screen(coef, values):
    """Mask of the coefficients within DEFAULT_RAY_TOL + RAY_SCREEN_MARGIN of
    one of values, NaN included."""
    dist = None
    for rho in values:
        d = np.abs(coef - rho)
        dist = d if dist is None else np.minimum(dist, d)  # NaN stays NaN
    return ~(dist > _SCREEN_WIDTH)


def _ray_angles(unit, cfg):
    """Smallest angle from each unit 2-vector (n, 6) to the ray set.

    Evaluated through the projection residual (sine) rather than arccos of
    the cosine, which would lose all resolution below ~1e-8; with this
    formula angles resolve down to machine precision, so the 1e-9
    DEFAULT_RAY_TOL is meaningful.  psi reads the angle only up to
    DEFAULT_RAY_TOL: beyond it psi is the norm whatever the angle, so the
    psi kernels call this only on rows that _screened keeps.
    """
    cosang = unit @ cfg.rays.T
    resid = unit[:, None, :] - cosang[:, :, None] * cfg.rays[None, :, :]
    sinang = np.linalg.norm(resid, axis=2)
    ang = np.arctan2(sinang, cosang)
    return ang.min(axis=1)


def psi_entries(x00, x01, x10, x11, cfg):
    """psi of the gradients with entries x00, x01, x10, x11 (arrays that
    broadcast together), in their broadcast shape.

    The norm ||LambdaM(X)||^2 = 1 + x01^2 + x11^2 + x00^2 + x10^2 + det^2 is
    summed in the column order of lambda_m_batch, and so to the bit of
    np.linalg.norm of its rows.  The e12 coefficient of the unit tangent is
    1 / ||LambdaM(X)||, so _screened keeps every row of norm near 2, X = I
    among them, whatever its direction; the rows it keeps are screened again
    on their e13 coefficient x01 / ||LambdaM(X)||, sound by the same
    every-coordinate argument.  Only rows that pass both are lifted (their
    own entries and det stacked as lambda_m_batch's columns) and get an
    exact angle; every other row is its norm.  A row below cfg.floor is off
    the screen, so a batch whose norms are all below it is not screened: it
    costs one comparison.
    """
    det = x00 * x11 - x01 * x10
    norms = np.sqrt(1.0 + x01 * x01 + x11 * x11 + x00 * x00 + x10 * x10 + det * det)
    out = norms.reshape(-1)
    if (out < cfg.floor).all():
        return out.reshape(norms.shape)
    near = _screened(1.0, out, cfg)
    if near.size:
        x00, x01, x10, x11, det = (np.ravel(x)[near]
                                   for x in np.broadcast_arrays(x00, x01, x10, x11, det))
        on = _within_screen(x01 / out[near], cfg.screen13)
        near = near[on]
        if near.size:
            lifted = np.stack([np.ones(near.size), x01[on], x11[on], -x00[on], -x10[on],
                               det[on]], axis=-1)
            unit = lifted / out[near, None]
            out[near[_ray_angles(unit, cfg) <= DEFAULT_RAY_TOL]] = 0.0
    return out.reshape(norms.shape)


def psi_batch(Xs, cfg):
    """psi on an (N, 2, 2) stack of gradients."""
    Xs = np.asarray(Xs, dtype=float)
    return psi_entries(Xs[:, 0, 0], Xs[:, 0, 1], Xs[:, 1, 0], Xs[:, 1, 1], cfg)


def psi(X, cfg):
    """psi of a single 2x2 gradient."""
    return float(psi_batch(np.asarray(X, dtype=float)[None, :, :], cfg)[0])


def psi_of_unit_tangents(unit_ws, cfg):
    """The 1-homogeneous extension evaluated on unit tangents: 0 on rays, 1 off.

    Only the direction of each row is used, so the rows need not be unit.
    The screen reads the e12 coefficient ws[:, 0] / norm of each row; only
    the rows it keeps are normalised and get the exact angle of _ray_angles,
    and every other row is exactly 1.
    """
    ws = np.asarray(unit_ws, dtype=float)
    norms = np.linalg.norm(ws, axis=1)
    near = _screened(ws[:, 0], norms, cfg)
    out = np.ones(ws.shape[0])
    if near.size:
        unit = ws[near] / norms[near, None]
        out[near[_ray_angles(unit, cfg) <= DEFAULT_RAY_TOL]] = 0.0
    return out


def psi_mass_of_current(T, cfg):
    """Anisotropic mass: integral of the extension over the current."""
    w = T.mults * T.areas()
    return float(w @ psi_of_unit_tangents(T.unit_tangents(), cfg))


# ---------------------------------------------------------------------------
# envelope upper bound: closed-form competitors
# ---------------------------------------------------------------------------

# Width of the graded ray ring, as a fraction of the domain side.  The
# ring's psi-mass grows like 4 w ||LambdaM(X_i)|| (at eps 0.05 and
# X3 + 1e-3 E11 it is 2557, 2.56 and 0.80 at w = 1e-3, 1e-6 and 1e-9); at
# 1e-6 the inner and outer corners stay 1000 units apart in the 1e-9 vertex
# keys of to_json_obj, so the written competitor keeps every triangle.
RAY_RING_WIDTH = 1e-6
# Offset of the near-ray target nearray3 from X3, along E11.  At eps 0.05 and
# q 1 the affine graph pays psi(X) = 639,999 there and the ray-3 ring 2.56;
# from eps 0.02 down the offset is within DEFAULT_RAY_TOL of the ray.
NEAR_RAY_OFFSET = 1e-3
UNIT_DOMAIN = Mesh(x0=(0.0, 0.0), r=1.0, n=1)


def _ray_ring(affine, X_ray):
    """Graded ray ring: the affine current's corners joined to a ray square.

    The inner square is (1 - 2 RAY_RING_WIDTH) times the unit domain and
    carries X_ray x; four trapezoids of two triangles join its corners
    to the outer corners, which are the affine current's own vertices, so
    the two boundary chains agree key for key.  10 triangles in all.
    """
    # corners SW, SE, NE, NW: the lower triangle, then the upper one's last
    outer = np.concatenate([affine.verts[0], affine.verts[1, 2:]])
    base = (1.0 - 2.0 * RAY_RING_WIDTH) * outer[:, :2]
    verts = np.concatenate([outer, np.concatenate([base, base @ X_ray.T], axis=1)])
    k = np.arange(4)
    k1 = (k + 1) % 4
    tris = np.concatenate([np.stack([k, k1, k1 + 4], axis=1),
                           np.stack([k, k1 + 4, k + 4], axis=1),
                           [[4, 5, 6], [4, 6, 7]]])
    return TriangulatedCurrent(verts[tris], np.full(10, affine.mults[0]))


def envelope_upper(target, cfg):
    """Upper bound for the envelope at the target (q, X), with the achieving
    competitor and {"parts": [the winner's entry]}.

    The exact minimum over closed-form competitor currents on the unit
    domain, one psi evaluation per family.  The families are the affine
    graph of q [X x] ("affine-ray" when psi(X) = 0, else "affine") and, when
    psi(X) > 0, one graded ray ring per ray ("ray-ring").  For a P1 sheet
    with affine boundary data the area-weighted sum of LambdaM(grad) over
    its triangles is LambdaM(X), so by the triangle inequality no competitor
    without a triangle in a ray cone beats the affine graph; a ring puts all
    but a thin band of the domain on a ray.  Ties keep the first family, so
    the affine graph wins them.
    """
    q, X = target
    affine = triangulate(FunctionalQGraph.affine(UNIT_DOMAIN, [q], np.zeros((1, 2)), [X]))
    best, value = affine, psi_mass_of_current(affine, cfg)
    if psi(X, cfg) == 0.0:
        entry = {"method": "affine-ray"}
    else:
        entry = {"method": "affine"}
        for i, X_ray in enumerate(cfg.bundle.X, start=1):
            ring = _ray_ring(affine, X_ray)
            ring_value = psi_mass_of_current(ring, cfg)
            if ring_value < value:
                best, value = ring, ring_value
                entry = {"method": "ray-ring", "ray": i, "width": RAY_RING_WIDTH}
    # the affine graph has the affine boundary by definition
    if best is not affine and best.boundary() != affine.boundary():
        raise AssertionError(
            f"{entry['method']} competitor boundary differs from the affine boundary")
    return value, best, {"parts": [{"q": int(q), "value": value, **entry}]}


def envelope_lower_at_zero(b, q):
    """Quantitative lower bound for the envelope of b at the zero target (q, 0).

    Chain (per unit domain area): the energy of any competitor dominates the
    mass of the graph part whose tangent avoids the three rays; after the
    squeeze diag(1,1,eps,eps) that mass dominates eps^2 times the non-special
    mass m_NS; the flux balance and the projection bound force

        q <= [ (1/C) (1 + 2||w1||/||w3||) + 1 + 4||w1||/eps^2 ] * m_NS

    with C = 1/200, so the energy is at least q * eps^2 / [ ... ].  The two
    norms are evaluated twice (wedge coordinates and closed forms) and must
    agree to 1e-12.
    """
    eps = b.eps
    cf = construction.closed_forms(eps, b.delta)
    w1_a = float(np.linalg.norm(b.w[0]))
    w3_a = float(np.linalg.norm(b.w[2]))
    w1_b = math.sqrt(cf["norm_w1_sq"])
    w3_b = math.sqrt(cf["norm_w3_sq"])
    if abs(w1_a - w1_b) > 1e-12 or abs(w3_a - w3_b) > 1e-12:
        raise AssertionError("independent norm evaluations disagree beyond 1e-12")
    C = LOWER_BOUND_RATIO_CONSTANT
    vertical, non_special = b.chain_coefficients()
    term_vertical = (1.0 / C) * (1.0 + vertical)
    term_ns = 1.0 + non_special
    denom = term_vertical + term_ns
    value = q * eps**2 / denom
    trace = {
        "C_ratio": C,
        "norm_w1": w1_a,
        "norm_w3": w3_a,
        "norm_w1_closed_form": w1_b,
        "norm_w3_closed_form": w3_b,
        "step1_energy_geq": "mass of off-ray part of the graph current",
        "step2_squeeze_factor": eps**2,
        "term_vertical": term_vertical,
        "term_non_special": term_ns,
        "denominator": denom,
        "value": value,
    }
    return float(value), trace


def envelope_bracket(eps, q, target_kind):
    """Bracket for one of the named targets: zero, ray1/ray2/ray3 or nearray3,
    which is X3 + NEAR_RAY_OFFSET E11, as (result, competitor): result is the
    envelope_result.schema.json object less its competitor_file, competitor
    the current achieving the upper bound.  Raises AssertionError when the
    lower bound exceeds the upper one by more than 1e-9."""
    cfg = PsiConfig.for_eps(eps)
    b = cfg.bundle
    if target_kind == "zero":
        X = np.zeros((2, 2))
        lower, trace = envelope_lower_at_zero(b, q)
    elif target_kind in ("ray1", "ray2", "ray3", "nearray3"):
        X = b.X[int(target_kind[-1]) - 1]
        if target_kind == "nearray3":
            X = X + np.diag([NEAR_RAY_OFFSET, 0.0])
        lower, trace = 0.0, {"note": "psi >= 0 gives the trivial lower bound"}
    else:
        raise ValueError(f"unknown target {target_kind!r}")
    upper, competitor, meta = envelope_upper((q, X), cfg)
    if lower > upper + 1e-9:
        raise AssertionError("bracket ordering violated: lower > upper")
    # the target as envelope_result.schema.json has it: one part, of value
    # a = 0, with the tol below which two parts would be one
    target = {"parts": [{"q": q, "a": [0.0, 0.0], "X": X.tolist()}],
              "tol": 1e-9, "ambiguous": False}
    result = {"target": target, "eps": eps, "Q": q, "upper": upper, "lower": lower,
              "gap": upper - lower, "chain_trace": trace, "upper_meta": meta}
    return result, competitor


def affine_competitor_bound(target, cfg):
    """The explicit affine-competitor value q psi(X) at the target (q, X)."""
    q, X = target
    return q * psi(X, cfg)
