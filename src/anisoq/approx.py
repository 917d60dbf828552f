"""Constructive interpolation and piecewise-affine approximation.

Two building blocks:

* interpolate_annulus joins sheetwise-decomposable boundary data across a
  square annulus by the convex sup-norm blend of the two radial extensions;
  the trace is matched exactly on both boundaries and the measured Lipschitz
  constant is controlled by L_inner + L_outer + gap / (annulus width).

* cubic_subdivision / piecewise_affine_sequence implement a verified-search
  version of the almost-piecewise-affine approximation: per cube an affine
  model fitted by least squares at an interior sample point, validated by a
  sup condition and a gradient measure condition; cubes failing validation
  are dropped, and the sequence g_k glues the models on shrunken cubes to
  the map itself through the annulus blend.

Almost-everywhere objects (differentiability points, Lebesgue points) are
replaced by sampled interior points with validation and retry, so the
pipeline is a verified search, not a proof transcription.  Part callables
are numpy-vectorised ((..., 2) -> (..., 2)) so the subdivision runs batched
over all cubes at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import psi_batch
from .multipoint import QJet, QPoint, g_metric, maximal_decomposition

FD_STEP_FRACTION = 1.0 / 64.0


# ---------------------------------------------------------------------------
# sampled Lipschitz Q-valued maps (analytic test families)
# ---------------------------------------------------------------------------


@dataclass
class SampledLipschitzQMap:
    """Q-valued map given by an evaluator, with declared Lipschitz constant.

    parts, when present, is a sheetwise decomposition: a list of
    (multiplicity, value_callable, grad_callable or None) with vectorised
    callables; the evaluator is derived from it.  Maps without parts
    (genuinely branched samples) supply only the multiset evaluator.
    """

    q: int
    lipschitz: float
    domain_center: np.ndarray
    domain_side: float
    parts: list = None
    evaluator: object = None

    def __post_init__(self):
        self.domain_center = np.asarray(self.domain_center, dtype=float)
        if self.evaluator is None:
            if self.parts is None:
                raise ValueError("need parts or an evaluator")
            self.evaluator = self._eval_from_parts

    def part_values(self, x):
        """Values (..., J, 2) of every part at points x (..., 2)."""
        x = np.asarray(x, dtype=float)
        return np.stack([np.asarray(fn(x), dtype=float) for _m, fn, _g in self.parts], axis=-2)

    def _eval_from_parts(self, x):
        mults = [m for m, _f, _g in self.parts]
        return QPoint(np.repeat(self.part_values(x), mults, axis=0))

    def __call__(self, x):
        return self.evaluator(np.asarray(x, dtype=float))

    def part_grad(self, x, idx):
        _mult, fn, gfn = self.parts[idx]
        x = np.asarray(x, dtype=float)
        if gfn is not None:
            return np.asarray(gfn(x), dtype=float)
        h = FD_STEP_FRACTION * self.domain_side / 8.0
        g = np.empty(x.shape[:-1] + (2, 2))
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            g[..., :, k] = (np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2.0 * h)
        return g

    def jet(self, x):
        """QJet of (value, gradient) rows; gradients matched by sheets."""
        x = np.asarray(x, dtype=float)
        if self.parts is not None:
            vals, grads = [], []
            for idx, (mult, fn, _g) in enumerate(self.parts):
                v = np.asarray(fn(x), dtype=float)
                g = self.part_grad(x, idx)
                vals.extend([v] * mult)
                grads.extend([g] * mult)
            return QJet.from_parts(np.array(vals), np.array(grads))
        return _matched_fd_jet(self, x)

    def check_increments(self, seed, n_pairs=200, tol=1e-9):
        rng = np.random.default_rng(seed)
        c, s = self.domain_center, self.domain_side
        for _ in range(n_pairs):
            x, y = c + s * (rng.random((2, 2)) - 0.5)
            if g_metric(self(x), self(y)) > self.lipschitz * np.linalg.norm(x - y) + tol:
                return False
        return True


def _matched_fd_jet(f, x, h=None):
    """Finite-difference jet for a multiset-only evaluator, sheets matched."""
    from scipy.optimize import linear_sum_assignment

    if h is None:
        h = FD_STEP_FRACTION * f.domain_side / 8.0
    base = f(x).points
    q = base.shape[0]
    grads = np.zeros((q, 2, 2))
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        plus = f(x + e).points
        minus = f(x - e).points
        cp = np.sum((base[:, None, :] - plus[None, :, :]) ** 2, axis=2)
        cm = np.sum((base[:, None, :] - minus[None, :, :]) ** 2, axis=2)
        rp = linear_sum_assignment(cp)[1]
        rm = linear_sum_assignment(cm)[1]
        grads[:, :, k] = (plus[rp] - minus[rm]) / (2.0 * h)
    return QJet.from_parts(base, grads)


def smooth_profile(amp=0.2):
    """Single-valued smooth test map on the unit square."""

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

    lip = amp * math.pi * 2.1
    return SampledLipschitzQMap(
        q=1, lipschitz=lip, domain_center=np.zeros(2), domain_side=1.0,
        parts=[(1, fn, grad)],
    )


def twosheet_profile(sep=1.2, amp=0.15):
    """Two separated smooth sheets (maximal multiplicities (1, 1))."""

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

    lip = amp * math.pi * 1.6
    return SampledLipschitzQMap(
        q=2, lipschitz=lip, domain_center=np.zeros(2), domain_side=1.0,
        parts=[(1, f1, g1), (1, f2, g2)],
    )


def branched_profile(amp=0.4, clip_r=0.7):
    """Two-valued branched sample (clipped square-root profile), no parts."""

    def evaluator(x):
        x = np.asarray(x, dtype=float)
        z = complex(x[0], x[1])
        w = np.sqrt(abs(z)) * np.exp(1j * np.angle(z) / 2.0)
        c = amp * max(0.0, clip_r - abs(z))
        rows = np.array([[c * w.real, c * w.imag], [-c * w.real, -c * w.imag]])
        return QPoint(rows)

    return SampledLipschitzQMap(
        q=2, lipschitz=amp * (clip_r + 2.0), domain_center=np.zeros(2),
        domain_side=1.0, parts=None, evaluator=evaluator,
    )


# ---------------------------------------------------------------------------
# annulus interpolation
# ---------------------------------------------------------------------------


def _sup_radius(x, c):
    return np.max(np.abs(np.asarray(x, dtype=float) - c), axis=-1)


def _radial_project(x, c, s_half):
    """Sup-norm radial projection onto the square of half-side s_half."""
    d = np.asarray(x, dtype=float) - c
    nrm = max(abs(d[0]), abs(d[1]))
    if nrm == 0.0:
        return c + np.array([s_half, 0.0])
    return c + d * (s_half / nrm)


class _PartDatum:
    """Boundary datum of one part: affine (a, X relative to center) or callable."""

    def __init__(self, datum, center, s_half):
        self.center = center
        self.s_half = s_half
        if callable(datum):
            self.fn = datum
            self.affine = None
        else:
            a, X = datum
            self.affine = (np.asarray(a, dtype=float), np.asarray(X, dtype=float))
            self.fn = None

    def extend(self, x):
        """Lipschitz extension to the annulus: affine data extend as
        themselves, callables through the radial projection onto their
        boundary square."""
        if self.affine is not None:
            a, X = self.affine
            return a + X @ (np.asarray(x, dtype=float) - self.center)
        return np.asarray(
            self.fn(_radial_project(x, self.center, self.s_half)), dtype=float
        )


class AnnulusInterpolant:
    """Sheetwise blend between inner and outer boundary data on a square annulus.

    Each part's value is t(x) * outer_extension + (1 - t(x)) * inner_extension
    with t the normalised sup-norm radius; traces match both boundaries
    exactly.
    """

    def __init__(self, inner_parts, outer_parts, center, r, sigma):
        if not (0.0 < sigma < 1.0):
            raise ValueError("sigma must be in (0, 1)")
        if [m for m, _ in inner_parts] != [m for m, _ in outer_parts]:
            raise ValueError("not sheetwise-decomposable: part multiplicities differ")
        self.center = np.asarray(center, dtype=float)
        self.r = float(r)
        self.sigma = float(sigma)
        self.s_in = 0.5 * r
        self.s_out = 0.5 * (1.0 + sigma) * r
        self.mults = [int(m) for m, _ in inner_parts]
        self.inner = [_PartDatum(d, self.center, self.s_in) for _, d in inner_parts]
        self.outer = [_PartDatum(d, self.center, self.s_out) for _, d in outer_parts]

    def weight(self, x):
        t = (_sup_radius(x, self.center) - self.s_in) / (self.s_out - self.s_in)
        return float(np.clip(t, 0.0, 1.0))

    def part_value(self, x, j):
        t = self.weight(x)
        return t * self.outer[j].extend(x) + (1.0 - t) * self.inner[j].extend(x)

    def __call__(self, x):
        rows = []
        for j, m in enumerate(self.mults):
            v = self.part_value(x, j)
            rows.extend([v] * m)
        return QPoint(np.array(rows))

    # -- diagnostics --------------------------------------------------------

    def _perimeter_point(self, s_half, tau):
        return _square_perimeter(self.center, s_half, tau)

    def trace_error(self, n_nodes=32):
        """Max mismatch against the prescribed data at boundary mesh nodes."""
        err = 0.0
        for k in range(n_nodes):
            tau = k / n_nodes
            xi = self._perimeter_point(self.s_in, tau)
            xo = self._perimeter_point(self.s_out, tau)
            for j in range(len(self.mults)):
                err = max(
                    err,
                    float(np.linalg.norm(self.part_value(xi, j) - self.inner[j].extend(xi))),
                    float(np.linalg.norm(self.part_value(xo, j) - self.outer[j].extend(xo))),
                )
        return err

    def measured_lipschitz(self, n_perim=96, n_rad=8):
        """Finite-difference Lipschitz estimate over a fine annulus grid.

        Difference quotients between ring neighbours (cyclic in the perimeter
        parameter) and radial neighbours, skipping coincident points.
        """
        radii = np.linspace(self.s_in, self.s_out, n_rad + 1)
        taus = np.arange(n_perim) / n_perim
        pts = np.array([[self._perimeter_point(s, tau) for tau in taus] for s in radii])
        vals = np.array([[self(x).points for x in ring] for ring in pts])
        best = 0.0
        for x, y, vx, vy in (
            (pts, np.roll(pts, -1, axis=1), vals, np.roll(vals, -1, axis=1)),
            (pts[:-1], pts[1:], vals[:-1], vals[1:]),
        ):
            diff = x - y
            # the dot product np.linalg.norm takes of a single vector
            d = np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])
            far = d > 1e-14
            if far.any():
                best = max(best, float(np.max(g_metric(vx[far], vy[far]) / d[far])))
        return best

    def boundary_gap(self, n_nodes=64):
        """sup over matching boundary points of the Q-point data gap."""
        gap = 0.0
        for k in range(n_nodes):
            tau = k / n_nodes
            xi = self._perimeter_point(self.s_in, tau)
            xo = self._perimeter_point(self.s_out, tau)
            rows_i, rows_o = [], []
            for j, m in enumerate(self.mults):
                rows_i.extend([self.inner[j].extend(xi)] * m)
                rows_o.extend([self.outer[j].extend(xo)] * m)
            gap = max(gap, g_metric(QPoint(np.array(rows_i)), QPoint(np.array(rows_o))))
        return gap


def interpolate_annulus(inner_parts, outer_parts, center, r, sigma):
    """Interpolant across D_{(1+sigma)r} minus D_r matching both traces exactly.

    inner_parts / outer_parts: lists of (multiplicity, datum), a datum being
    either a callable x -> R^2 defined (at least) on its boundary square, or
    a pair (a, X) for the affine map a + X (x - center).  Multiplicity
    vectors must match part by part, else ValueError
    ("not sheetwise-decomposable").
    """
    return AnnulusInterpolant(inner_parts, outer_parts, center, r, sigma)


# ---------------------------------------------------------------------------
# cubic subdivision with validated affine models
# ---------------------------------------------------------------------------


@dataclass
class CubicSubdivision:
    """Lattice of disjoint validated cubes covering all but delta of the domain.

    Kept cubes live on a regular m x m lattice of pitch r; per-cube model
    parts are stored as arrays (n_cubes, J, ...) sharing one multiplicity
    vector.  `lattice` (m, m) holds the row index of the cube at each
    lattice position, -1 where the cube was dropped.
    """

    ok: bool
    r: float
    delta: float
    domain_center: np.ndarray
    domain_side: float
    lattice_m: int = 0
    lattice_origin: np.ndarray = None
    lattice: np.ndarray = None
    part_mults: tuple = ()
    centers: np.ndarray = None
    part_a: np.ndarray = None  # (n_cubes, J, 2)
    part_X: np.ndarray = None  # (n_cubes, J, 2, 2)
    taylor_points: np.ndarray = None
    dropped: int = 0
    uncovered: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_cubes(self):
        return 0 if self.centers is None else self.centers.shape[0]

    @property
    def covered(self):
        return self.n_cubes * self.r * self.r

    def locate(self, x):
        """Row index of the cube containing each point x (..., 2), -1 where none."""
        x = np.asarray(x, dtype=float)
        rows = np.full(x.shape[:-1], -1)
        if self.n_cubes == 0:
            return rows
        cell = np.floor((x - self.lattice_origin) / self.r)
        on = np.all((cell >= 0) & (cell < self.lattice_m), axis=-1)
        i, j = cell[on].astype(np.int64).T
        rows[on] = self.lattice[i, j]
        hit = rows >= 0
        inside = _sup_radius(x[hit], self.centers[rows[hit]]) <= 0.5 * self.r
        rows[hit] = np.where(inside, rows[hit], -1)
        return rows

    def psi_bar_values(self, cfg):
        """(n_cubes,) summed-psi value of each cube model."""
        n, J = self.part_a.shape[0], len(self.part_mults)
        vals = psi_batch(self.part_X.reshape(n * J, 2, 2), cfg).reshape(n, J)
        return vals @ np.asarray(self.part_mults, dtype=float)


def _lattice(c, s, r):
    m = int(math.floor((s - 3.0 * r) / r))
    if m <= 0:
        return 0, None, None
    origin = c - 0.5 * m * r
    ii, jj = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    centers = origin[None, None, :] + r * (
        np.stack([ii, jj], axis=-1).astype(float) + 0.5
    )
    return m, origin, centers.reshape(-1, 2)


def _fit_parts_batched(f, centers, r):
    """Least-squares affine model per part over a 3x3 stencil, all cubes at once."""
    span = 0.45 * r
    ts = np.array([-span, 0.0, span])
    off = np.array([[a, b] for a in ts for b in ts])  # (9, 2)
    design = np.column_stack([np.ones(9), off[:, 0], off[:, 1]])
    P = np.linalg.pinv(design)  # (3, 9)
    pts = centers[:, None, :] + off[None, :, :]  # (N, 9, 2)
    As, Xs = [], []
    for _mult, fn, _g in f.parts:
        Y = np.asarray(fn(pts), dtype=float)  # (N, 9, 2)
        coef = np.einsum("ks,nsd->nkd", P, Y)  # (N, 3, 2)
        As.append(coef[:, 0, :])
        Xs.append(np.transpose(coef[:, 1:, :], (0, 2, 1)))
    return np.stack(As, axis=1), np.stack(Xs, axis=1)  # (N, J, 2), (N, J, 2, 2)


def _validate_batched(f, centers, r, part_a, part_X, delta, n_valid):
    """Sup and gradient-measure validation; returns a keep mask.

    Part-wise distances upper-bound the matching metric, so validation is
    conservative: every kept cube genuinely satisfies both conditions.
    """
    ts = np.linspace(-0.499, 0.499, n_valid) * r
    off = np.array([[a, b] for a in ts for b in ts])  # (S, 2)
    S = off.shape[0]
    pts = centers[:, None, :] + off[None, :, :]  # (N, S, 2)
    mults = np.array([m for m, _f, _g in f.parts], dtype=float)
    gap2 = np.zeros(pts.shape[:2])
    grad2 = np.zeros(pts.shape[:2])
    for j, (mult, fn, _g) in enumerate(f.parts):
        vals = np.asarray(fn(pts), dtype=float)
        model = part_a[:, j][:, None, :] + np.einsum(
            "nab,nsb->nsa", part_X[:, j], off[None, :, :] * np.ones_like(pts)
        )
        gap2 += mults[j] * np.sum((vals - model) ** 2, axis=-1)
        gf = f.part_grad(pts, j)  # (N, S, 2, 2)
        grad2 += mults[j] * np.sum(
            (gf - part_X[:, j][:, None, :, :]) ** 2, axis=(-2, -1)
        )
    sup_ok = np.sqrt(np.max(gap2, axis=1)) <= delta * r
    gd = np.sqrt(grad2)
    meas_ok = np.ones(centers.shape[0], dtype=bool)
    for alpha in (delta, 2.0 * delta, 4.0 * delta):
        frac = np.count_nonzero(gd > alpha, axis=1) / S
        meas_ok &= frac <= delta / alpha
    return sup_ok & meas_ok


def cubic_subdivision(f, delta, n_valid=5, r_min_frac=1.0 / 1024.0,
                      cluster_tol=1e-3):
    """Halving search for a validated r-cubic subdivision of f's domain.

    Per cube the affine model is fitted at the cube center (least squares
    over a stencil when a sheetwise decomposition is available, matched
    finite differences otherwise) and validated against
    sup 𝒢(f, model) <= delta * r  and the gradient measure condition
    |{𝒢(grad f, grad model) > alpha}| <= (delta/alpha) r^2 sampled on an
    n_valid x n_valid grid at alpha in {delta, 2 delta, 4 delta}.  Cubes
    failing validation are dropped; the search halves r until the uncovered
    measure is at most delta |U|, or reports failure when r falls below
    r_min.  Every kept cube satisfies D(z, 3r) inside the domain.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    c, s = f.domain_center, f.domain_side
    area = s * s
    r = delta * s / 12.0
    r_min = s * r_min_frac
    attempts = []
    while r >= r_min:
        m, origin, centers = _lattice(c, s, r)
        if m == 0:
            r *= 0.5
            continue
        if f.parts is not None:
            part_a, part_X = _fit_parts_batched(f, centers, r)
            keep = _validate_batched(f, centers, r, part_a, part_X, delta, n_valid)
            mults = tuple(int(m_) for m_, _f, _g in f.parts)
            kept_rows = np.flatnonzero(keep)
            lattice = np.full(m * m, -1)
            lattice[kept_rows] = np.arange(kept_rows.size)
            n_drop = centers.shape[0] - kept_rows.size
            uncovered = area - kept_rows.size * r * r
            attempts.append({"r": r, "kept": int(kept_rows.size), "dropped": int(n_drop),
                             "uncovered": float(uncovered)})
            if uncovered <= delta * area:
                return CubicSubdivision(
                    ok=True, r=r, delta=delta, domain_center=c, domain_side=s,
                    lattice_m=m, lattice_origin=origin, lattice=lattice.reshape(m, m),
                    part_mults=mults, centers=centers[kept_rows],
                    part_a=part_a[kept_rows], part_X=part_X[kept_rows],
                    taylor_points=centers[kept_rows].copy(),
                    dropped=int(n_drop), uncovered=float(uncovered),
                    diagnostics={"attempts": attempts},
                )
        else:
            result = _subdivide_multiset(f, delta, r, m, origin, centers,
                                         n_valid, cluster_tol, attempts)
            if result is not None:
                return result
        r *= 0.5
    return CubicSubdivision(
        ok=False, r=r, delta=delta, domain_center=c, domain_side=s,
        uncovered=area,
        diagnostics={"attempts": attempts, "reason": "r fell below r_min"},
    )


def _subdivide_multiset(f, delta, r, m, origin, centers, n_valid, cluster_tol,
                        attempts):
    """Loop fallback for multiset-only maps: Q mult-one sheets per cube."""
    area = f.domain_side**2
    q = f.q
    lattice = np.full(m * m, -1)
    rows_a, rows_X, rows_c = [], [], []
    dropped = 0
    ts = np.linspace(-0.499, 0.499, n_valid) * r
    for row, z in enumerate(centers):
        try:
            jet = f.jet(z)
        except Exception:
            dropped += 1
            continue
        a_s = jet.values()
        X_s = jet.grads()
        ok = True
        for aoff in ts:
            for boff in ts:
                x = z + np.array([aoff, boff])
                model_rows = a_s + np.einsum("qab,b->qa", X_s, x - z)
                if g_metric(f(x), QPoint(model_rows)) > delta * r:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            dropped += 1
            continue
        lattice[row] = len(rows_c)
        rows_a.append(a_s)
        rows_X.append(X_s)
        rows_c.append(z)
    uncovered = area - len(rows_c) * r * r
    attempts.append({"r": r, "kept": len(rows_c), "dropped": dropped,
                     "uncovered": float(uncovered)})
    if uncovered > delta * area:
        return None
    return CubicSubdivision(
        ok=True, r=r, delta=delta, domain_center=f.domain_center,
        domain_side=f.domain_side, lattice_m=m, lattice_origin=origin,
        lattice=lattice.reshape(m, m), part_mults=tuple([1] * q),
        centers=np.array(rows_c), part_a=np.array(rows_a),
        part_X=np.array(rows_X), taylor_points=np.array(rows_c),
        dropped=dropped, uncovered=float(uncovered),
        diagnostics={"attempts": attempts},
    )


def decomposition_of_cube(sub, row, tol=1e-9):
    """Maximal decomposition of the model jet of one cube."""
    vals = sub.part_a[row]
    grads = sub.part_X[row]
    rows = []
    for j, m in enumerate(sub.part_mults):
        rows.extend([np.concatenate([vals[j], grads[j].ravel()])] * m)
    return maximal_decomposition(QJet(np.array(rows)), tol=tol)


# ---------------------------------------------------------------------------
# the almost piecewise-affine sequence g_k
# ---------------------------------------------------------------------------


class HybridQMap:
    """g_k: affine models on shrunken cubes, annulus blend on collars, f outside.

    The collar value is the annulus blend with t the normalised sup-radius
    between the shrunken and the full cube: part j takes
    t * f_j(x) + (1 - t) * model_j(x).  Since f is defined on the whole
    domain it serves as its own outer extension (same trace, same Lipschitz
    constant), and the blend reduces to f exactly when f is affine.
    """

    def __init__(self, f, sub, k):
        if f.parts is None:
            raise ValueError("not sheetwise-decomposable: the map carries no parts")
        if tuple(int(m) for m, _f, _g in f.parts) != tuple(sub.part_mults):
            raise ValueError("cube model multiplicities do not match the map parts")
        self.f = f
        self.sub = sub
        self.k = int(k)
        self.shrink = 1.0 - 1.0 / k

    def _cubes_of(self, x):
        """Cube rows of points x (N, 2) (-1 outside) and sup-radii to their centres."""
        rows = self.sub.locate(x)
        d = np.full(rows.shape, np.inf)
        inn = rows >= 0
        d[inn] = _sup_radius(x[inn], self.sub.centers[rows[inn]])
        return rows, d

    def region_of(self, x):
        rows, d = self._cubes_of(np.asarray(x, dtype=float)[None])
        if rows[0] < 0:
            return "outside", None
        if d[0] <= 0.5 * self.shrink * self.sub.r:
            return "cube", int(rows[0])
        return "collar", int(rows[0])

    def part_values(self, x):
        """Values (..., J, 2) of every part at points x (..., 2)."""
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1, 2)
        rows, d = self._cubes_of(flat)
        out = self.f.part_values(flat)
        inn = rows >= 0
        rows, d = rows[inn], d[inn]
        model = self.sub.part_a[rows] + (
            self.sub.part_X[rows] @ (flat[inn] - self.sub.centers[rows])[:, None, :, None]
        )[..., 0]
        s_in = 0.5 * self.shrink * self.sub.r
        s_out = 0.5 * self.sub.r
        t = np.clip((d - s_in) / (s_out - s_in), 0.0, 1.0)[:, None, None]
        cube = (d <= s_in)[:, None, None]
        out[inn] = np.where(cube, model, t * out[inn] + (1.0 - t) * model)
        return out.reshape(x.shape[:-1] + out.shape[-2:])

    def part_value(self, x, j):
        return self.part_values(x)[j]

    def values_at(self, x):
        """Q-point values (..., Q, 2) at points x (..., 2)."""
        return np.repeat(self.part_values(x), self.sub.part_mults, axis=-2)

    def __call__(self, x):
        return QPoint(self.values_at(x))

    def measured_lipschitz(self, grid_m=64):
        """Largest difference quotient between neighbouring nodes of a
        (grid_m + 1)^2 grid over the domain."""
        c, s = self.sub.domain_center, self.sub.domain_side
        xs = np.linspace(-0.5, 0.5, grid_m + 1) * s
        vals = self.values_at(c + np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1))
        h = s / grid_m
        steps = (g_metric(vals[:-1], vals[1:]), g_metric(vals[:, :-1], vals[:, 1:]))
        return max(0.0, *(float(np.max(step / h)) for step in steps))


def energy_of_map(f, cfg, grid_m=97):
    """Midpoint-rule quadrature of the summed-psi energy over the domain."""
    c, s = f.domain_center, f.domain_side
    xs = (np.arange(grid_m) + 0.5) / grid_m - 0.5
    cell = (s / grid_m) ** 2
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = c[None, :] + s * np.stack([gx.ravel(), gy.ravel()], axis=-1)
    total = 0.0
    for j, (mult, _fn, _g) in enumerate(f.parts):
        grads = f.part_grad(pts, j).reshape(-1, 2, 2)
        total += mult * float(psi_batch(grads, cfg).sum()) * cell
    return total


_GAUSS3 = (
    np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)]),
    np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0]),
)

_ROT4 = [
    np.array([[1.0, 0.0], [0.0, 1.0]]),
    np.array([[0.0, -1.0], [1.0, 0.0]]),
    np.array([[-1.0, 0.0], [0.0, -1.0]]),
    np.array([[0.0, 1.0], [-1.0, 0.0]]),
]


def _psi_bar_of_grads(grads_by_part, mults, cfg):
    """sum_j mult_j * psi(grad_j); grads (J, N, 2, 2)."""
    total = np.zeros(grads_by_part[0].shape[0])
    for j, g in enumerate(grads_by_part):
        total += mults[j] * psi_batch(g, cfg)
    return total


def energy_of_hybrid(g, cfg, e_ref=None, grid_m=97):
    """Region-aware quadrature of the summed-psi energy of g_k.

    Outside the cubes g_k equals f, so the outside contribution reuses the
    reference-rule value of f and only the difference over cubes and collars
    is quadratured: the shrunken cubes exactly (affine models), f on them by
    a per-cube 3x3 Gauss rule, and the collar rings by a Gauss rule on their
    four trapezoids with the analytic blend gradient

        grad Phi = (f - M) otimes grad t + t grad f + (1 - t) X.

    This keeps the 1/k-scale collar contribution fully resolved instead of
    relying on a global grid that samples the thin rings noisily.
    """
    f = g.f
    if e_ref is None:
        e_ref = energy_of_map(f, cfg, grid_m)
    sub = g.sub
    n = sub.n_cubes
    if n == 0:
        return e_ref
    r = sub.r
    sh = g.shrink
    s_in, s_out = 0.5 * sh * r, 0.5 * r
    w = s_out - s_in
    centers = sub.centers
    mults = np.asarray(sub.part_mults, dtype=float)
    J = len(sub.part_mults)

    # exact model energy on the shrunken cubes
    cube_model = float(np.sum(sub.psi_bar_values(cfg)) * (sh * r) ** 2)

    # f on the shrunken cubes: tensor Gauss 3x3 per cube
    gp, gw = _GAUSS3
    offs = np.array([[a, b] for a in gp for b in gp]) * s_in  # (9, 2)
    # Gauss weights on [-1,1]^2 sum to 4; scaled by s_in^2 they total (2 s_in)^2
    wts = np.array([wa * wb for wa in gw for wb in gw]) * (s_in**2)
    pts = centers[:, None, :] + offs[None, :, :]
    flat = pts.reshape(-1, 2)
    grads_by_part = [f.part_grad(flat, j).reshape(-1, 2, 2) for j in range(J)]
    vals = _psi_bar_of_grads(grads_by_part, mults, cfg)
    cube_f = float(np.sum(vals.reshape(n, -1) * wts[None, :]))

    # collar rings: per face, Gauss rule in (u, v); area element w * xi du dv
    collar_g = 0.0
    collar_f = 0.0
    for rot in _ROT4:
        for iv, vnode in enumerate(gp):
            v = 0.5 * (vnode + 1.0)
            xi = s_in + v * w
            wv = 0.5 * gw[iv]
            for iu, unode in enumerate(gp):
                u = unode  # in [-1, 1]
                wu = gw[iu]
                jac = w * xi * wv * wu
                y = np.array([xi, u * xi])
                x_pts = centers + (rot @ y)[None, :]
                grad_t = (rot @ np.array([1.0, 0.0])) / w
                grads_g, grads_f = [], []
                for j in range(J):
                    F = np.asarray(f.parts[j][1](x_pts), dtype=float)  # (N, 2)
                    Gf = f.part_grad(x_pts, j)  # (N, 2, 2)
                    a = sub.part_a[:, j]
                    X = sub.part_X[:, j]
                    M = a + np.einsum("nab,b->na", X, rot @ y)
                    gr = (
                        (F - M)[:, :, None] * grad_t[None, None, :]
                        + v * Gf
                        + (1.0 - v) * X
                    )
                    grads_g.append(gr)
                    grads_f.append(Gf)
                collar_g += float(np.sum(_psi_bar_of_grads(grads_g, mults, cfg))) * jac
                collar_f += float(np.sum(_psi_bar_of_grads(grads_f, mults, cfg))) * jac
    delta = (cube_model - cube_f) + (collar_g - collar_f)
    return e_ref + delta


def piecewise_affine_sequence(f, k, cfg, grid_m=97):
    """One member g_k of the approximating sequence plus its report.

    Report keys: k, r, n_cubes, bad_set_full (measure not covered by the
    full cubes, target <= 2/k), bad_set_shrunk (not covered by the shrunken
    cubes, target <= 3/k), covered, lipschitz (sampled), lip_bound
    (10 (L + 2), uniform in k), energy_psi_bar, boundary_trace_error.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    sub = cubic_subdivision(f, 1.0 / k)
    if not sub.ok:
        raise RuntimeError(f"cubic subdivision search failed: {sub.diagnostics}")
    g = HybridQMap(f, sub, k)
    area = f.domain_side**2
    bad_full = area - sub.covered
    bad_shrunk = area - sub.n_cubes * (g.shrink * sub.r) ** 2
    energy = energy_of_hybrid(g, cfg, grid_m=grid_m)
    x = np.array([_square_perimeter(f.domain_center, 0.5 * f.domain_side, tau)
                  for tau in np.linspace(0.0, 1.0, 33)[:-1]])
    f_vals = np.repeat(f.part_values(x), sub.part_mults, axis=-2)
    trace_err = max(0.0, float(np.max(g_metric(g.values_at(x), f_vals))))
    report = {
        "k": k,
        "r": sub.r,
        "n_cubes": sub.n_cubes,
        "bad_set_full": bad_full,
        "bad_set_shrunk": bad_shrunk,
        "covered": sub.covered,
        "lipschitz": g.measured_lipschitz(),
        "lip_bound": 10.0 * (f.lipschitz + 2.0),
        "energy_psi_bar": energy,
        "boundary_trace_error": trace_err,
    }
    return g, report


def _square_perimeter(c, s_half, tau):
    """Point on the square of half-side s_half at perimeter parameter tau in [0,1)."""
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
