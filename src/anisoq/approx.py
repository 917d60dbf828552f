"""Constructive interpolation and piecewise-affine approximation.

Two building blocks:

* interpolate_annulus joins sheetwise-decomposable boundary data across a
  square annulus by the convex sup-norm blend of the two radial extensions;
  the trace is matched exactly on both boundaries and the measured Lipschitz
  constant is controlled by L_inner + L_outer + gap / (annulus width).

* cubic_subdivision / piecewise_affine_sequence implement a verified-search
  version of the almost-piecewise-affine approximation of a sheetwise
  decomposable map: per cube and per sheet an affine model fitted by least
  squares around the cube centre, validated by a sup condition and a
  gradient measure condition; cubes failing validation are dropped, and the
  sequence g_k glues the models on shrunken cubes to the map itself through
  the annulus blend.  The kept cubes are one record, CubicSubdivision (a
  lattice of row indices and per-cube model arrays); a search that finds no
  subdivision raises RuntimeError.

Almost-everywhere objects (differentiability points, Lebesgue points) are
replaced by sampled interior points with validation and retry, so the
pipeline is a verified search, not a proof transcription.  Only
sheetwise-decomposable maps are handled: a Q-map is its list of parts, each
a multiplicity and a jet, one call that returns the part's values and
analytic gradient entries at coordinate arrays.  The cube kernels (fit,
validation, Gauss table and collar) call each jet once per sample point and
work on component arrays, one array per coordinate, value or gradient
entry.  Every Q-map here (SampledLipschitzQMap, AnnulusInterpolant,
HybridQMap) also evaluates arrays of points through part_values
((..., 2) -> (..., J, 2)) and values_at ((..., 2) -> (..., Q, 2), the parts
repeated by multiplicity).  Both annulus blends go through _blend, every
tensor grid of offsets through _grid, and every summed-psi energy through
the one kernel _psi_bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import psi_batch
from .multipoint import g_metric

# Validation samples per cube side: N_VALID x N_VALID points out to
# +-0.499 r, so the centre and the four corners are sampled.  On the smooth
# and twosheet profiles at k = 4..32, 3, 5 and 9 keep the same cubes, while
# the validation time grows as N_VALID^2.
N_VALID = 5
# The halving search gives up below r = R_MIN_FRAC * side.  The cube loop runs
# in blocks, so what bounds the search is the kept record itself: at 1/2048 the
# finest lattice holds about 4.2M cubes, 120 B each at Q = 2 (centre, a, X and
# lattice index), about 0.5 GB.
R_MIN_FRAC = 1.0 / 2048.0
# The largest k whose first lattice, at pitch side / (12 k), is not below that
# floor; a larger k would end the search before it tries a single lattice.
K_MAX = int(1.0 / (12.0 * R_MIN_FRAC))
# Cubes per block of the one cube loop (_blocks) in cubic_subdivision and
# energy_of_hybrid.  A block's temporaries take about 4 KiB per cube, mostly
# the validation's N_VALID^2 sample points, values and gradients (traced at
# Q = 1 and 2), so a block holds about 16 MiB whatever the lattice; only the
# per-cube records and sums outlive it.
BLOCK_CUBES = 4096
# Midpoint-rule cells per side of the reference energy energy_of_map, which
# energy_of_hybrid also reuses outside the cubes.  Every caller uses this one
# grid, and the energy_ref and energy_psi_bar columns of the approx CSV (and
# the benchmark's reference values) are pinned at it.
ENERGY_GRID_M = 97


# ---------------------------------------------------------------------------
# sampled Lipschitz Q-valued maps (analytic test families)
# ---------------------------------------------------------------------------


@dataclass
class SampledLipschitzQMap:
    """Sheetwise-decomposable Q-valued map with declared Lipschitz constant.

    parts is a list of (multiplicity, jet).  A jet takes the two coordinate
    arrays x0, x1 of some points (one shape) and returns six arrays of that
    shape, the part's values and gradient entries (v0, v1, g00, g01, g10,
    g11) with g_ab = d v_a / d x_b, so one call computes the transcendentals
    of a point once.  The cube kernels call the jets on component arrays;
    part_values, part_grads and values_at stack them for point arrays
    (..., 2).  mults is the tuple of the part multiplicities.
    """

    q: int
    lipschitz: float
    domain_center: np.ndarray
    domain_side: float
    parts: list = None

    def __post_init__(self):
        self.domain_center = np.asarray(self.domain_center, dtype=float)
        if not self.parts:
            raise ValueError("not sheetwise-decomposable: the map carries no parts")
        for j, (_m, jet) in enumerate(self.parts):
            if not callable(jet):
                raise ValueError(f"not sheetwise-decomposable: part {j} carries no jet")
        self.mults = tuple(int(m) for m, _jet in self.parts)

    def _jets(self, x):
        """Every part's jet at points x (..., 2): per part, six (...) arrays."""
        x = np.asarray(x, dtype=float)
        return [jet(x[..., 0], x[..., 1]) for _m, jet in self.parts]

    def part_values(self, x):
        """Values (..., J, 2) of every part at points x (..., 2)."""
        return np.stack([np.stack(jt[:2], axis=-1) for jt in self._jets(x)], axis=-2)

    def part_grads(self, x):
        """Gradients (..., J, 2, 2) of every part at points x (..., 2)."""
        g = np.stack([np.stack(jt[2:], axis=-1) for jt in self._jets(x)], axis=-2)
        return g.reshape(g.shape[:-1] + (2, 2))

    def values_at(self, x):
        """Q-point values (..., Q, 2) at points x (..., 2)."""
        return np.repeat(self.part_values(x), self.mults, axis=-2)

    def check_increments(self, seed, n_pairs=200, tol=1e-9):
        """Whether 𝒢(f(x), f(y)) <= L |x - y| + tol on n_pairs random pairs."""
        rng = np.random.default_rng(seed)
        xy = self.domain_center + self.domain_side * (rng.random((n_pairs, 2, 2)) - 0.5)
        vals = self.values_at(xy)
        dist = np.linalg.norm(xy[:, 0] - xy[:, 1], axis=-1)
        return not np.any(g_metric(vals[:, 0], vals[:, 1]) > self.lipschitz * dist + tol)


def smooth_profile(amp=0.2):
    """Single-valued smooth test map on the unit square."""
    k = amp * np.pi

    def jet(x0, x1):
        t0, t1 = np.pi * x0, np.pi * x1
        s0, c0, s1, c1 = np.sin(t0), np.cos(t0), np.sin(t1), np.cos(t1)
        return amp * (s0 * s1), amp * (c0 + s1), k * (c0 * s1), k * (s0 * c1), k * -s0, k * c1

    lip = amp * math.pi * 2.1
    return SampledLipschitzQMap(
        q=1, lipschitz=lip, domain_center=np.zeros(2), domain_side=1.0,
        parts=[(1, jet)],
    )


def twosheet_profile(sep=1.2, amp=0.15):
    """Two separated smooth sheets (maximal multiplicities (1, 1))."""
    amp2 = 0.7 * amp
    k1, k2 = amp * np.pi, amp2 * np.pi

    def jet1(x0, x1):
        t0, t1 = np.pi * x0, np.pi * x1
        zero = np.zeros_like(t0)
        return (amp * np.sin(t0), 0.5 * sep + amp * np.cos(t1),
                k1 * np.cos(t0), zero, zero, k1 * -np.sin(t1))

    def jet2(x0, x1):
        t0, t1 = np.pi * x0, np.pi * x1
        zero = np.zeros_like(t0)
        return (amp2 * np.cos(t1), -0.5 * sep + amp2 * np.sin(t0),
                zero, k2 * -np.sin(t1), k2 * np.cos(t0), zero)

    lip = amp * math.pi * 1.6
    return SampledLipschitzQMap(
        q=2, lipschitz=lip, domain_center=np.zeros(2), domain_side=1.0,
        parts=[(1, jet1), (1, jet2)],
    )


# ---------------------------------------------------------------------------
# annulus interpolation
# ---------------------------------------------------------------------------


def _sup_radius(x, c):
    return np.max(np.abs(np.asarray(x, dtype=float) - c), axis=-1)


def _grid(ts):
    """Tensor grid (n^2, 2) of the offsets ts (n): the pairs (a, b) for a in
    ts, b in ts, b running fastest."""
    return np.stack(np.meshgrid(ts, ts, indexing="ij"), axis=-1).reshape(-1, 2)


def _blend(d, s_in, s_out, outer, inner):
    """Annulus blend t * outer + (1 - t) * inner of part values (..., J, 2),
    t the sup-radius d (...) normalised from [s_in, s_out] and clipped to
    [0, 1]: inner up to s_in, outer from s_out on."""
    t = np.clip((d - s_in) / (s_out - s_in), 0.0, 1.0)[..., None, None]
    return t * outer + (1.0 - t) * inner


def _radial_project(x, c, s_half):
    """Sup-norm radial projection of points x (..., 2) onto the square of
    half-side s_half; the centre itself goes to c + (s_half, 0)."""
    d = np.asarray(x, dtype=float) - c
    nrm = np.max(np.abs(d), axis=-1, keepdims=True)
    at_c = nrm == 0.0
    return c + np.where(at_c, [s_half, 0.0], d * (s_half / np.where(at_c, 1.0, nrm)))


def _square_perimeter(c, s_half, tau):
    """Points (..., 2) on the square of half-side s_half at perimeter
    parameters tau (...) in [0, 1), counter-clockwise from the corner
    c + (-s_half, -s_half)."""
    side, u = np.divmod(np.asarray(tau, dtype=float) * 4.0, 1.0)
    side = side.astype(int) % 4
    w = (2.0 * u - 1.0) * s_half
    h = np.full(w.shape, s_half)
    return c + np.stack([np.choose(side, [w, h, -w, -h]),
                         np.choose(side, [-h, w, h, -w])], axis=-1)


def _extension(datum, center, s_half):
    """Lipschitz extension (..., 2) -> (..., 2) of one part's boundary datum:
    an affine datum (a, X relative to center) extends as itself, a callable
    through the radial projection onto its boundary square."""
    if callable(datum):
        return lambda x: np.asarray(datum(_radial_project(x, center, s_half)), dtype=float)
    a, X = (np.asarray(v, dtype=float) for v in datum)
    return lambda x: a + (X @ (np.asarray(x, dtype=float) - center)[..., None])[..., 0]


def _extensions(data, x):
    """Extensions (..., J, 2) of the part data at points x (..., 2)."""
    return np.stack([extend(x) for extend in data], axis=-2)


class AnnulusInterpolant:
    """Sheetwise blend between inner and outer boundary data on a square annulus.

    Each part's value is t(x) * outer_extension + (1 - t(x)) * inner_extension
    with t the normalised sup-norm radius; traces match both boundaries
    exactly.  inner and outer hold the part extensions.
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
        self.inner = [_extension(d, self.center, self.s_in) for _, d in inner_parts]
        self.outer = [_extension(d, self.center, self.s_out) for _, d in outer_parts]

    def part_values(self, x):
        """Values (..., J, 2) of every part at points x (..., 2)."""
        x = np.asarray(x, dtype=float)
        return _blend(_sup_radius(x, self.center), self.s_in, self.s_out,
                      _extensions(self.outer, x), _extensions(self.inner, x))

    def values_at(self, x):
        """Q-point values (..., Q, 2) at points x (..., 2)."""
        return np.repeat(self.part_values(x), self.mults, axis=-2)

    # -- diagnostics --------------------------------------------------------

    def _rings(self, n_nodes):
        """n_nodes matching points (n_nodes, 2) on the inner and the outer square."""
        taus = np.arange(n_nodes) / n_nodes
        return tuple(_square_perimeter(self.center, s, taus) for s in (self.s_in, self.s_out))

    def trace_error(self, n_nodes=32):
        """Max mismatch against the prescribed data at boundary mesh nodes."""
        xi, xo = self._rings(n_nodes)
        diff = self.part_values(np.stack([xi, xo])) - np.stack(
            [_extensions(self.inner, xi), _extensions(self.outer, xo)])
        # the dot product np.linalg.norm takes of a single vector
        d = np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])
        return float(np.max(d, initial=0.0))

    def measured_lipschitz(self, n_perim=96, n_rad=8):
        """Finite-difference Lipschitz estimate over a fine annulus grid.

        Difference quotients between ring neighbours (cyclic in the perimeter
        parameter) and radial neighbours, skipping coincident points.
        """
        radii = np.linspace(self.s_in, self.s_out, n_rad + 1)
        taus = np.arange(n_perim) / n_perim
        pts = np.stack([_square_perimeter(self.center, s, taus) for s in radii])
        vals = self.values_at(pts)
        # ring-neighbour pairs stacked over radial-neighbour pairs
        x, vx = (np.concatenate([v, v[:-1]]) for v in (pts, vals))
        y, vy = (np.concatenate([np.roll(v, -1, axis=1), v[1:]]) for v in (pts, vals))
        diff = x - y
        d = np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])
        far = d > 1e-14
        return float(np.max(g_metric(vx[far], vy[far]) / d[far], initial=0.0))

    def boundary_gap(self, n_nodes=64):
        """sup over matching boundary points of the Q-point data gap."""
        xi, xo = self._rings(n_nodes)
        gaps = g_metric(np.repeat(_extensions(self.inner, xi), self.mults, axis=-2),
                        np.repeat(_extensions(self.outer, xo), self.mults, axis=-2))
        return float(np.max(gaps, initial=0.0))


def interpolate_annulus(inner_parts, outer_parts, center, r, sigma):
    """Interpolant across D_{(1+sigma)r} minus D_r matching both traces exactly.

    inner_parts / outer_parts: lists of (multiplicity, datum), a datum being
    either a vectorised callable (..., 2) -> (..., 2) defined (at least) on
    its boundary square, or a pair (a, X) for the affine map
    a + X (x - center).  Multiplicity vectors must match part by part, else
    ValueError ("not sheetwise-decomposable").
    """
    return AnnulusInterpolant(inner_parts, outer_parts, center, r, sigma)


# ---------------------------------------------------------------------------
# cubic subdivision with validated affine models
# ---------------------------------------------------------------------------


@dataclass
class CubicSubdivision:
    """Validated cubes of side r on a regular m x m lattice.

    `lattice` (m, m) holds the row index of the cube at each lattice
    position, -1 where the cube was dropped; per-cube model parts are arrays
    (n_cubes, J, ...) in the part order of the subdivided map.  The search
    record is diagnostics["attempts"]: r, kept, dropped and uncovered per
    lattice tried, the last one kept.
    """

    r: float
    lattice_origin: np.ndarray
    lattice: np.ndarray
    centers: np.ndarray
    part_a: np.ndarray  # (n_cubes, J, 2)
    part_X: np.ndarray  # (n_cubes, J, 2, 2)
    diagnostics: dict

    @property
    def n_cubes(self):
        return self.centers.shape[0]

    def locate(self, x):
        """Row index of the cube containing each point x (..., 2), -1 where none."""
        x = np.asarray(x, dtype=float)
        rows = np.full(x.shape[:-1], -1)
        cell = np.floor((x - self.lattice_origin) / self.r)
        on = np.all((cell >= 0) & (cell < self.lattice.shape[0]), axis=-1)
        i, j = cell[on].astype(np.int64).T
        rows[on] = self.lattice[i, j]
        hit = rows >= 0
        inside = _sup_radius(x[hit], self.centers[rows[hit]]) <= 0.5 * self.r
        rows[hit] = np.where(inside, rows[hit], -1)
        return rows


def _stencil_points(centers, off):
    """Coordinate arrays x0, x1 (S, N) of the offsets off (S, 2) around the
    centres (N, 2): one row per offset."""
    return off[:, 0, None] + centers[:, 0], off[:, 1, None] + centers[:, 1]


def _fit_parts_batched(f, centers, r):
    """Least-squares affine model per part over a 3x3 stencil, per cube centre."""
    span = 0.45 * r
    off = _grid([-span, 0.0, span])  # (9, 2)
    P = np.linalg.pinv(np.column_stack([np.ones(9), off]))  # (3, 9)
    x0, x1 = _stencil_points(centers, off)
    a = np.empty((centers.shape[0], len(f.parts), 2))
    X = np.empty((centers.shape[0], len(f.parts), 2, 2))
    for j, (_m, jet) in enumerate(f.parts):
        V = np.stack(jet(x0, x1)[:2], axis=1)  # (9, 2, N)
        # coef (3, 2, N) = P V, summed over the stencil in stencil order,
        # which is einsum's order and so its bits
        coef = P[:, 0, None, None] * V[0]
        for s in range(1, 9):
            coef = coef + P[:, s, None, None] * V[s]
        a[:, j] = coef[0].T
        X[:, j] = coef[1:].transpose(2, 1, 0)
    return a, X


def _validate_batched(f, centers, r, part_a, part_X, delta):
    """Sup and gradient-measure validation; returns a keep mask.

    Part-wise distances upper-bound the matching metric, so validation is
    conservative: every kept cube genuinely satisfies both conditions.
    """
    off = _grid(np.linspace(-0.499, 0.499, N_VALID) * r)  # (S, 2)
    o0, o1 = off[:, 0, None], off[:, 1, None]  # (S, 1)
    x0, x1 = _stencil_points(centers, off)
    gap2 = grad2 = 0.0
    # Component arrays (S, N), one jet call per part: the contractions and
    # the length-2 and length-4 sums are written out entry by entry, in the
    # order (and so to the bit) of einsum and np.sum, which spend several
    # times the arithmetic on axes this short.
    for j, (mult, jet) in enumerate(f.parts):
        v0, v1, g00, g01, g10, g11 = jet(x0, x1)
        a, X = part_a[:, j], part_X[:, j]
        X00, X01, X10, X11 = X[:, 0, 0], X[:, 0, 1], X[:, 1, 0], X[:, 1, 1]
        d0 = v0 - (a[:, 0] + (X00 * o0 + X01 * o1))
        d1 = v1 - (a[:, 1] + (X10 * o0 + X11 * o1))
        gap2 = gap2 + float(mult) * (d0**2 + d1**2)
        e = (((g00 - X00) ** 2 + (g01 - X01) ** 2) + (g10 - X10) ** 2) + (g11 - X11) ** 2
        grad2 = grad2 + float(mult) * e
    sup_ok = np.sqrt(np.max(gap2, axis=0)) <= delta * r
    gd = np.sqrt(grad2)
    meas_ok = np.ones(centers.shape[0], dtype=bool)
    for alpha in (delta, 2.0 * delta, 4.0 * delta):
        frac = np.count_nonzero(gd > alpha, axis=0) / off.shape[0]
        meas_ok &= frac <= delta / alpha
    return sup_ok & meas_ok


def _blocks(n):
    """Slices of at most BLOCK_CUBES consecutive rows covering range(n)."""
    return (slice(lo, min(lo + BLOCK_CUBES, n)) for lo in range(0, n, BLOCK_CUBES))


def cubic_subdivision(f, delta):
    """Halving search for a validated r-cubic subdivision of f's domain.

    Per cube and per part the affine model is fitted by least squares over a
    3x3 stencil around the cube centre and validated against
    sup 𝒢(f, model) <= delta * r  and the gradient measure condition
    |{𝒢(grad f, grad model) > alpha}| <= (delta/alpha) r^2 sampled on an
    N_VALID x N_VALID grid at alpha in {delta, 2 delta, 4 delta}, one block
    of BLOCK_CUBES cubes at a time; the kept cubes' models are moved to the
    front of the lattice-sized record as each block is validated.  Cubes
    failing validation are dropped; the search halves r until the uncovered
    measure is at most delta |U|, and raises RuntimeError when r falls below
    R_MIN_FRAC times the side.  Every kept cube satisfies D(z, 3r) inside
    the domain.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    c, s = f.domain_center, f.domain_side
    area = s * s
    r = delta * s / 12.0
    r_min = s * R_MIN_FRAC
    n_parts = len(f.mults)
    attempts = []
    while r >= r_min:
        m = int(math.floor((s - 3.0 * r) / r))
        if m > 0:
            origin = c - 0.5 * m * r
            centers = origin + r * _grid(np.arange(m) + 0.5)
            n = centers.shape[0]
            part_a = np.empty((n, n_parts, 2))
            part_X = np.empty((n, n_parts, 2, 2))
            lattice = np.full(n, -1)
            kept = 0
            for blk in _blocks(n):
                z = centers[blk]
                a, X = _fit_parts_batched(f, z, r)
                keep = np.flatnonzero(_validate_batched(f, z, r, a, X, delta))
                # kept <= blk.start: the kept rows move forward, over rows already read
                rows = slice(kept, kept + keep.size)
                lattice[blk.start + keep] = np.arange(rows.start, rows.stop)
                centers[rows], part_a[rows], part_X[rows] = z[keep], a[keep], X[keep]
                kept = rows.stop
            uncovered = area - kept * r * r
            attempts.append({"r": r, "kept": kept, "dropped": n - kept,
                             "uncovered": float(uncovered)})
            if uncovered <= delta * area:
                # the views keep the dropped rows' memory, at most a delta share
                return CubicSubdivision(
                    r=r, lattice_origin=origin, lattice=lattice.reshape(m, m),
                    centers=centers[:kept], part_a=part_a[:kept],
                    part_X=part_X[:kept], diagnostics={"attempts": attempts},
                )
        r *= 0.5
    diagnostics = {"attempts": attempts, "reason": "r fell below r_min"}
    raise RuntimeError(f"cubic subdivision search failed: {diagnostics}")


# ---------------------------------------------------------------------------
# the almost piecewise-affine sequence g_k
# ---------------------------------------------------------------------------


class HybridQMap:
    """g_k: affine models on shrunken cubes, annulus blend on collars, f outside.

    The collar value is the annulus blend with t the normalised sup-radius
    between the shrunken and the full cube: part j takes
    t * f_j(x) + (1 - t) * model_j(x), which is the model itself on the
    shrunken cube (t = 0).  Since f is defined on the whole domain it serves
    as its own outer extension (same trace, same Lipschitz constant), and
    the blend reduces to f exactly when f is affine.
    """

    def __init__(self, f, sub, k):
        if sub.part_a.shape[1] != len(f.mults):
            raise ValueError("cube model multiplicities do not match the map parts")
        self.f = f
        self.sub = sub
        self.k = int(k)
        self.shrink = 1.0 - 1.0 / k

    def part_values(self, x):
        """Values (..., J, 2) of every part at points x (..., 2)."""
        x = np.asarray(x, dtype=float)
        sub = self.sub
        flat = x.reshape(-1, 2)
        rows = sub.locate(flat)
        out = self.f.part_values(flat)
        inn = rows >= 0
        rows, rel = rows[inn], flat[inn] - sub.centers[rows[inn]]
        model = sub.part_a[rows] + (sub.part_X[rows] @ rel[:, None, :, None])[..., 0]
        out[inn] = _blend(np.max(np.abs(rel), axis=-1), 0.5 * self.shrink * sub.r,
                          0.5 * sub.r, out[inn], model)
        return out.reshape(x.shape[:-1] + out.shape[-2:])

    def values_at(self, x):
        """Q-point values (..., Q, 2) at points x (..., 2)."""
        return np.repeat(self.part_values(x), self.f.mults, axis=-2)

    def measured_lipschitz(self, grid_m=64):
        """Largest difference quotient between neighbouring nodes of a
        (grid_m + 1)^2 grid over the domain."""
        c, s = self.f.domain_center, self.f.domain_side
        xs = np.linspace(-0.5, 0.5, grid_m + 1) * s
        vals = self.values_at(c + _grid(xs).reshape(grid_m + 1, grid_m + 1, 2))
        h = s / grid_m
        steps = (g_metric(vals[:-1], vals[1:]), g_metric(vals[:, :-1], vals[:, 1:]))
        return max(0.0, *(float(np.max(step / h)) for step in steps))


def energy_of_map(f, cfg):
    """Midpoint-rule quadrature of the summed-psi energy over the domain."""
    c, s = f.domain_center, f.domain_side
    cell = (s / ENERGY_GRID_M) ** 2
    pts = c[None, :] + s * _grid((np.arange(ENERGY_GRID_M) + 0.5) / ENERGY_GRID_M - 0.5)
    return float(np.sum(_psi_bar(f.part_grads(pts), f.mults, cfg))) * cell


_GAUSS3 = (
    np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)]),
    np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0]),
)


def _psi_bar(grads, mults, cfg):
    """Summed psi, sum_j mults_j psi(grads_j), of gradients (..., J, 2, 2)
    with one psi_batch call; shape (...)."""
    vals = psi_batch(grads.reshape(-1, 2, 2), cfg).reshape(grads.shape[:-2])
    # the J-sum column by column, in np.sum's order (psi >= 0, so the leading
    # 0 + is exact)
    return sum(vals[..., j] * float(m) for j, m in enumerate(mults))


def energy_of_hybrid(g, cfg):
    """Region-aware quadrature of the summed-psi energy of g_k.

    Outside the cubes g_k equals f, so the outside contribution reuses the
    reference-rule value of f and only the difference over cubes and collars
    is quadratured: the shrunken cubes exactly (affine models), f on them by
    a per-cube 3x3 Gauss rule, and the collar rings by a Gauss rule on their
    four trapezoids (the quarter turns of the right-hand one) with the
    analytic blend gradient

        grad Phi = (f - M) otimes grad t + t grad f + (1 - t) X.

    This keeps the 1/k-scale collar contribution fully resolved instead of
    relying on a global grid that samples the thin rings noisily.
    """
    f, sub, sh = g.f, g.sub, g.shrink
    e_ref = energy_of_map(f, cfg)
    r, centers, mults = sub.r, sub.centers, f.mults
    s_in, s_out = 0.5 * sh * r, 0.5 * r
    w = s_out - s_in
    n = sub.n_cubes
    # Every term runs one block of cubes at a time and writes its per-cube psi
    # values into a full-length vector (the cube_f Gauss table for f on the
    # shrunken cubes), which is summed once: the sums do not depend on the
    # block size.
    gp, gw = _GAUSS3
    offs = _grid(gp) * s_in  # (9, 2)
    # Gauss weights on [-1,1]^2 sum to 4; scaled by s_in^2 they total (2 s_in)^2
    wts = np.prod(_grid(gw), axis=1) * (s_in**2)
    per_cube_g, per_cube_f = np.empty(n), np.empty(n)
    table = np.empty((n, offs.shape[0]))
    for blk in _blocks(n):
        # exact model energy on the shrunken cubes
        per_cube_g[blk] = _psi_bar(sub.part_X[blk], mults, cfg)
        # f on the shrunken cubes: tensor Gauss 3x3 per cube
        for i, o in enumerate(offs):
            table[blk, i] = _psi_bar(f.part_grads(centers[blk] + o), mults, cfg)
    cube_model = float(np.sum(per_cube_g) * (sh * r) ** 2)
    table *= wts
    cube_f = float(np.sum(table))
    del table

    # collar rings: per face, Gauss rule in (u, v); area element w * xi du dv;
    # one jet call per part gives F and Gf at a node, and one psi_batch call
    # takes Gg and Gf
    collar_g = collar_f = 0.0
    for turns in range(4):
        rot = np.linalg.matrix_power(np.array([[0.0, -1.0], [1.0, 0.0]]), turns)
        grad_t = (rot @ np.array([1.0, 0.0])) / w
        for vnode, wv in zip(gp, 0.5 * gw):
            v = 0.5 * (vnode + 1.0)
            xi = s_in + v * w
            for u, wu in zip(gp, gw):  # u in [-1, 1]
                jac = w * xi * wv * wu
                ry = rot @ np.array([xi, u * xi])
                for blk in _blocks(n):
                    z, A, X = centers[blk], sub.part_a[blk], sub.part_X[blk]
                    # G[c, b, 0] = Gg and G[c, b, 1] = Gf, entry (c, b) for every
                    # cube and part, so that psi_batch reads each entry as one run
                    G = np.empty((2, 2, 2, z.shape[0], len(mults)))
                    for j, (_m, jet) in enumerate(f.parts):
                        v0, v1, *gf = jet(z[:, 0] + ry[0], z[:, 1] + ry[1])
                        for c, F in enumerate((v0, v1)):
                            # Gg = (F - M) (x) grad t + v Gf + (1 - v) X, row c,
                            # M = a + X (x - z) the model
                            Xc = X[:, j, c]
                            dF = F - (A[:, j, c] + (Xc[:, 0] * ry[0] + Xc[:, 1] * ry[1]))
                            for b in range(2):
                                np.add(dF * grad_t[b] + v * gf[2 * c + b], (1.0 - v) * Xc[:, b],
                                       out=G[c, b, 0, :, j])
                                G[c, b, 1, :, j] = gf[2 * c + b]
                    per_cube_g[blk], per_cube_f[blk] = _psi_bar(G.transpose(2, 3, 4, 0, 1),
                                                                mults, cfg)
                collar_g += float(np.sum(per_cube_g)) * jac
                collar_f += float(np.sum(per_cube_f)) * jac
    return e_ref + ((cube_model - cube_f) + (collar_g - collar_f))


def piecewise_affine_sequence(f, k, cfg):
    """One member g_k of the approximating sequence plus its report.

    Report keys: k, r, n_cubes, bad_set_full (measure not covered by the
    full cubes, target <= 2/k), bad_set_shrunk (not covered by the shrunken
    cubes, target <= 3/k), covered, lipschitz (sampled), lip_bound
    (10 (L + 2), uniform in k), energy_psi_bar, boundary_trace_error.
    Raises RuntimeError when the cubic subdivision search fails.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    sub = cubic_subdivision(f, 1.0 / k)
    g = HybridQMap(f, sub, k)
    area = f.domain_side**2
    covered = sub.n_cubes * sub.r * sub.r
    bad_shrunk = area - sub.n_cubes * (g.shrink * sub.r) ** 2
    energy = energy_of_hybrid(g, cfg)
    x = _square_perimeter(f.domain_center, 0.5 * f.domain_side,
                          np.linspace(0.0, 1.0, 33)[:-1])
    trace_err = max(0.0, float(np.max(g_metric(g.values_at(x), f.values_at(x)))))
    report = {
        "k": k,
        "r": sub.r,
        "n_cubes": sub.n_cubes,
        "bad_set_full": area - covered,
        "bad_set_shrunk": bad_shrunk,
        "covered": covered,
        "lipschitz": g.measured_lipschitz(),
        "lip_bound": 10.0 * (f.lipschitz + 2.0),
        "energy_psi_bar": energy,
        "boundary_trace_error": trace_err,
    }
    return g, report
