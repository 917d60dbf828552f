"""Constructive piecewise-affine approximation of sheetwise-decomposable maps.

cubic_subdivision / piecewise_affine_sequence implement a verified-search
version of the almost-piecewise-affine approximation of a sheetwise
decomposable map: per cube and per sheet an affine model fitted by least
squares around the cube centre, validated by a sup condition and a gradient
measure condition; cubes failing validation are dropped, and the sequence
g_k glues the models on shrunken cubes to the map itself through the
annulus blend on each collar (see HybridQMap), the one annulus
interpolation here.  The kept cubes are one record, CubicSubdivision (a
lattice of row indices and per-cube model arrays); a search that finds no
subdivision raises RuntimeError.

Almost-everywhere objects (differentiability points, Lebesgue points) are
replaced by sampled interior points with validation and retry, so the
pipeline is a verified search, not a proof transcription.  Only
sheetwise-decomposable maps on the unit square centred at the origin are
handled: a Q-map is its part multiplicities, one jet and its Lipschitz
constant, the jet being one call that returns every part's values and
analytic gradient entries at coordinate arrays that broadcast together.
The cube kernels (fit, validation, Gauss table and collar) run one band of
whole lattice rows at a time and call the jet on the band's lattice lines,
one coordinate line per row and one per column for each sample offset;
they work on component arrays, one array per value or gradient entry, and
hand the gradient entries to psi_entries.  Both Q-maps here
(SampledLipschitzQMap and HybridQMap) also evaluate arrays of points
through part_values ((..., 2) -> (..., J, 2)) and values_at
((..., 2) -> (..., Q, 2), the parts repeated by multiplicity).  The
collar blend goes through _blend, every tensor grid of offsets through
_grid, and every multiplicity-weighted sum over the parts (summed psi, the
validation's squared gaps) through _summed, or its in-place step _add_part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import psi_batch, psi_entries
from .multipoint import g_metric

# Validation samples per cube side: N_VALID x N_VALID points out to
# +-0.499 r, so the centre and the four corners are sampled.  On the smooth
# and twosheet profiles at k = 4..32, 3, 5 and 9 keep the same cubes, while
# the validation time grows as N_VALID^2.
N_VALID = 5
# The halving search gives up below r = R_MIN_FRAC * side.  The cube loop runs
# in bands, so what bounds the search is the kept record itself: at 1/2048 the
# finest lattice holds about 4.2M cubes, 120 B each at Q = 2 (centre, a, X and
# lattice index), about 0.5 GB.
R_MIN_FRAC = 1.0 / 2048.0
# The largest k whose first lattice, at pitch side / (12 k), is not below that
# floor; a larger k would end the search before it tries a single lattice.
K_MAX = int(1.0 / (12.0 * R_MIN_FRAC))
# Most sample points per band array of the cube loops (_bands).  The search
# (cubic_subdivision) and the two terms of energy_of_hybrid each run their
# m x m lattice in bands of whole rows, as many rows as keep the loop's
# points per cube (9 + N_VALID^2 in the search, the 9 Gauss points and the 3
# collar nodes of a call in the energy) times the band's cubes within
# BAND_POINTS, and at least one row, which exceeds it only on lattices wider
# than BAND_POINTS / 34 = 963 cubes in the search.  A float band array then
# takes at most 256 KiB, and the validation writes into four of them
# (_validate_band), so a band reuses heap memory instead of faulting in
# fresh pages: on a 2-core x86 host an approx benchmark pass takes about
# 1.5k minor page faults at 2^15 and 20k at 2^17, while at 2^13 the search's
# many bands cost more Python overhead than the faults saved.  Only the
# per-cube records and sums outlive a band.
BAND_POINTS = 2**15
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
    """Sheetwise-decomposable Q-valued map on the unit square centred at the
    origin, with declared Lipschitz constant.

    mults is the tuple of the part multiplicities.  jet takes two
    coordinate arrays x0, x1 that broadcast together, the points being their
    broadcast, and returns, per part, a six-tuple of arrays that broadcast
    to that common shape: the part's values and gradient entries
    (v0, v1, g00, g01, g10, g11) with g_ab = d v_a / d x_b.  One call covers
    every part, so the transcendentals of a point are computed once.  The
    cube kernels call the jet on lattice lines, x0 (..., b, 1) and x1
    (..., 1, m), so that a transcendental of one coordinate runs on b + m
    values rather than b m; part_values, part_grads and values_at call it on
    the components of point arrays (..., 2) and stack it.
    """

    mults: tuple
    jet: object
    lipschitz: float

    def __post_init__(self):
        self.mults = tuple(int(m) for m in self.mults)
        if not self.mults:
            raise ValueError("not sheetwise-decomposable: the map carries no parts")
        if not callable(self.jet):
            raise ValueError("not sheetwise-decomposable: the map carries no jet")

    def _jet_at(self, x):
        """The jet at points x (..., 2): per part, six (...) arrays; a part
        count other than len(mults) raises ValueError."""
        x = np.asarray(x, dtype=float)
        return [[np.broadcast_to(v, x.shape[:-1]) for v in jt]
                for _m, jt in zip(self.mults, self.jet(x[..., 0], x[..., 1]), strict=True)]

    def part_values(self, x):
        """Values (..., J, 2) of every part at points x (..., 2)."""
        return np.stack([np.stack(jt[:2], axis=-1) for jt in self._jet_at(x)], axis=-2)

    def part_grads(self, x):
        """Gradients (..., J, 2, 2) of every part at points x (..., 2)."""
        g = np.stack([np.stack(jt[2:], axis=-1) for jt in self._jet_at(x)], axis=-2)
        return g.reshape(g.shape[:-1] + (2, 2))

    def values_at(self, x):
        """Q-point values (..., Q, 2) at points x (..., 2)."""
        return np.repeat(self.part_values(x), self.mults, axis=-2)

    def check_increments(self, seed, n_pairs=200, tol=1e-9):
        """Whether 𝒢(f(x), f(y)) <= L |x - y| + tol on n_pairs random pairs."""
        rng = np.random.default_rng(seed)
        xy = rng.random((n_pairs, 2, 2)) - 0.5
        vals = self.values_at(xy)
        dist = np.linalg.norm(xy[:, 0] - xy[:, 1], axis=-1)
        return not np.any(g_metric(vals[:, 0], vals[:, 1]) > self.lipschitz * dist + tol)


def smooth_profile(amp=0.2):
    """Single-valued smooth test map on the unit square."""
    k = amp * np.pi

    def jet(x0, x1):
        t0, t1 = np.pi * x0, np.pi * x1
        s0, c0, s1, c1 = np.sin(t0), np.cos(t0), np.sin(t1), np.cos(t1)
        return ((amp * (s0 * s1), amp * (c0 + s1), k * (c0 * s1), k * (s0 * c1), k * -s0,
                 k * c1),)

    return SampledLipschitzQMap(mults=(1,), jet=jet, lipschitz=amp * math.pi * 2.1)


def twosheet_profile(sep=1.2, amp=0.15):
    """Two separated smooth sheets (maximal multiplicities (1, 1))."""
    amp2 = 0.7 * amp
    k1, k2 = amp * np.pi, amp2 * np.pi

    def jet(x0, x1):
        t0, t1 = np.pi * x0, np.pi * x1
        s0, c0, s1, c1 = np.sin(t0), np.cos(t0), np.sin(t1), np.cos(t1)
        zero = np.zeros_like(t0)
        return ((amp * s0, 0.5 * sep + amp * c1, k1 * c0, zero, zero, k1 * -s1),
                (amp2 * c1, -0.5 * sep + amp2 * s0, zero, k2 * -s1, k2 * c0, zero))

    return SampledLipschitzQMap(mults=(1, 1), jet=jet, lipschitz=amp * math.pi * 1.6)


# ---------------------------------------------------------------------------
# squares, grids and the collar blend
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


# ---------------------------------------------------------------------------
# cubic subdivision with validated affine models
# ---------------------------------------------------------------------------


@dataclass
class CubicSubdivision:
    """Validated cubes of side r on a regular m x m lattice.

    `lattice` (m, m) holds the row index of the cube at each lattice
    position, -1 where the cube was dropped, the rows numbered in lattice
    order; position (i, j) is centred at (lines[0, i], lines[1, j]) with
    lines = _lattice_lines(lattice_origin, r, m).  Per-cube model parts are
    arrays (n_cubes, J, ...) in the part order of the subdivided map.  The
    search record is diagnostics["attempts"]: r, kept, dropped and uncovered
    per lattice tried, the last one kept.
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


def _lattice_lines(origin, r, m):
    """Coordinates (2, m) of the lattice centres along each axis: centre
    (i, j) is (lines[0, i], lines[1, j])."""
    return origin[:, None] + r * (np.arange(m) + 0.5)


def _bands(m, per_cube=9):
    """Slices of consecutive lattice rows covering range(m), each as many
    rows as keep per_cube sample points per cube within BAND_POINTS, and at
    least one; per_cube defaults to the 9 points of a 3x3 stencil."""
    b = max(1, BAND_POINTS // (per_cube * m))
    return [slice(lo, min(lo + b, m)) for lo in range(0, m, b)]


def _band_lines(off, c0, c1):
    """The jet's arguments at the offsets off (S, 2) or (2,) around the
    centres of a band: x0 (S, b, 1) from its b row coordinates c0 and x1
    (S, 1, m) from the m column coordinates c1 ((b, 1) and (1, m) for one
    offset), lines whose broadcast is the stencil in lattice order."""
    return off[..., 0, None, None] + c0[:, None], off[..., 1, None, None] + c1


def _fit_band(f, c0, c1, r):
    """Least-squares affine model per part over a 3x3 stencil, per cube of a
    band (rows c0, columns c1), the cubes in lattice order."""
    span = 0.45 * r
    off = _grid([-span, 0.0, span])  # (9, 2)
    P = np.linalg.pinv(np.column_stack([np.ones(9), off]))  # (3, 9)
    n = c0.size * c1.size
    a = np.empty((n, len(f.mults), 2))
    X = np.empty((n, len(f.mults), 2, 2))
    V = np.empty((9, 2, c0.size, c1.size))
    coef, term = np.empty((3, 2, n)), np.empty((3, 2, n))
    for j, (_m, jt) in enumerate(zip(f.mults, f.jet(*_band_lines(off, c0, c1)), strict=True)):
        V[:, 0], V[:, 1] = jt[:2]
        # coef (3, 2, n) = P V, summed over the stencil in stencil order,
        # which is einsum's order and so its bits
        np.multiply(P[:, 0, None, None], V[0].reshape(2, n), out=coef)
        for s in range(1, 9):
            coef += np.multiply(P[:, s, None, None], V[s].reshape(2, n), out=term)
        a[:, j] = coef[0].T
        X[:, j] = coef[1:].transpose(2, 1, 0)
    return a, X


def _validate_band(f, c0, c1, r, part_a, part_X, delta):
    """Sup and gradient-measure validation of a band's cubes (rows c0,
    columns c1) in lattice order; returns a keep mask.

    Part-wise distances upper-bound the matching metric, so validation is
    conservative: every kept cube genuinely satisfies both conditions.
    """
    ts = np.linspace(-0.499, 0.499, N_VALID) * r
    o = ts[:, None, None]  # (N_VALID, 1, 1), the distinct offsets of an axis
    shape = (c0.size, c1.size)
    # Component arrays (S, b, m), one jet call on lines: the contractions and
    # the length-2 and length-4 sums are written out entry by entry, in the
    # order (and so to the bit) of einsum and np.sum, which spend several
    # times the arithmetic on axes this short.  The model offsets X o take
    # N_VALID products per entry, one per distinct offset of each axis, and
    # are broadcast to the (N_VALID, N_VALID) samples, the second running
    # fastest as in _grid.  A part's gap d0^2 + d1^2, with
    # d_c = v_c - (a_c + (X_c0 o + X_c1 o)), and its gradient gap
    # (((g00 - X00)^2 + (g01 - X01)^2) + (g10 - X10)^2) + (g11 - X11)^2 are
    # computed step by step, and summed over the parts as by _summed, in four
    # band arrays made here, never in a jet output (a jet may return one
    # array for several entries): the same steps, so the same bits.
    gap, grad, part, tmp = (np.empty((N_VALID**2,) + shape) for _ in range(4))
    jets = f.jet(*_band_lines(_grid(ts), c0, c1))
    for j, (mult, jt) in enumerate(zip(f.mults, jets, strict=True)):
        v0, v1, g00, g01, g10, g11 = jt
        a0, a1 = (part_a[:, j, c].reshape(shape) for c in range(2))
        X00, X01, X10, X11 = (part_X[:, j, c, b].reshape(shape) for c in range(2)
                              for b in range(2))
        out, scratch = (gap, part) if j == 0 else (part, tmp)
        for d, v, a, Xa, Xb in ((out, v0, a0, X00, X01), (scratch, v1, a1, X10, X11)):
            np.add((Xa * o)[:, None], (Xb * o)[None], out=d.reshape((N_VALID, N_VALID) + shape))
            d += a
            np.square(np.subtract(v, d, out=d), out=d)
        out += scratch
        _add_part(gap, out, mult, j)
        out, scratch = (grad, part) if j == 0 else (part, tmp)
        np.square(np.subtract(g00, X00, out=out), out=out)
        for g, X in ((g01, X01), (g10, X10), (g11, X11)):
            out += np.square(np.subtract(g, X, out=scratch), out=scratch)
        _add_part(grad, out, mult, j)
    keep = np.sqrt(np.max(gap, axis=0)) <= delta * r
    np.sqrt(grad, out=grad)
    # at alpha = delta the condition count / S <= 1 holds for every count
    for alpha in (2.0 * delta, 4.0 * delta):
        keep &= np.count_nonzero(grad > alpha, axis=0) / grad.shape[0] <= delta / alpha
    return keep.reshape(-1)


def cubic_subdivision(f, delta):
    """Halving search for a validated r-cubic subdivision of the unit square.

    Per cube and per part the affine model is fitted by least squares over a
    3x3 stencil around the cube centre and validated against
    sup 𝒢(f, model) <= delta * r  and the gradient measure condition
    |{𝒢(grad f, grad model) > alpha}| <= (delta/alpha) r^2 sampled on an
    N_VALID x N_VALID grid at alpha in {delta, 2 delta, 4 delta} (the
    condition at alpha = delta bounds the share by 1 and so always holds,
    and only 2 delta and 4 delta are tested), one band
    of whole lattice rows (_bands) at a time; the kept cubes' models are
    written to the front of the lattice-sized record, in lattice order, as
    each band is validated.  Cubes failing validation are dropped; the
    search halves r until the uncovered area is at most delta, and raises
    RuntimeError when r falls below R_MIN_FRAC.  Every kept cube satisfies
    D(z, 3r) inside the square.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    r = delta / 12.0
    n_parts = len(f.mults)
    attempts = []
    while r >= R_MIN_FRAC:
        m = int(math.floor((1.0 - 3.0 * r) / r))
        if m > 0:
            origin = np.full(2, -0.5 * m * r)
            lines = _lattice_lines(origin, r, m)
            n = m * m
            centers = np.empty((n, 2))
            part_a = np.empty((n, n_parts, 2))
            part_X = np.empty((n, n_parts, 2, 2))
            lattice = np.full(n, -1)
            kept = 0
            # a band's fit stencil and validation samples
            for band in _bands(m, 9 + N_VALID**2):
                c0 = lines[0, band]
                a, X = _fit_band(f, c0, lines[1], r)
                keep = np.flatnonzero(_validate_band(f, c0, lines[1], r, a, X, delta))
                rows = slice(kept, kept + keep.size)
                lattice[band.start * m + keep] = np.arange(rows.start, rows.stop)
                i, j = np.divmod(keep, m)
                centers[rows, 0], centers[rows, 1] = c0[i], lines[1, j]
                part_a[rows], part_X[rows] = a[keep], X[keep]
                kept = rows.stop
            uncovered = 1.0 - kept * r * r
            attempts.append({"r": r, "kept": kept, "dropped": n - kept,
                             "uncovered": float(uncovered)})
            if uncovered <= delta:
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
    shrunken cube (t = 0) and f on the full cube's square (t = 1).  Since f
    is defined on the whole domain it serves as its own outer extension (same
    trace, same Lipschitz constant), and the blend reduces to f exactly when
    f is affine.  These collars are the lab's one annulus interpolation;
    acceptance C08 checks both traces and the Lipschitz bound
    10 (L_f + |X| + gap / (collar width)) on them.
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
        (grid_m + 1)^2 grid over the unit square."""
        xs = np.linspace(-0.5, 0.5, grid_m + 1)
        vals = self.values_at(_grid(xs).reshape(grid_m + 1, grid_m + 1, 2))
        h = 1.0 / grid_m
        steps = (g_metric(vals[:-1], vals[1:]), g_metric(vals[:, :-1], vals[:, 1:]))
        return max(0.0, *(float(np.max(step / h)) for step in steps))


def energy_of_map(f, cfg):
    """Midpoint-rule quadrature of the summed-psi energy over the unit square."""
    cell = (1.0 / ENERGY_GRID_M) ** 2
    pts = _grid((np.arange(ENERGY_GRID_M) + 0.5) / ENERGY_GRID_M - 0.5)
    return float(np.sum(_psi_bar(f.part_grads(pts), f.mults, cfg))) * cell


_GAUSS3 = (
    np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)]),
    np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0]),
)


def _psi_bar(grads, mults, cfg):
    """Summed psi, sum_j mults_j psi(grads_j), of gradients (..., J, 2, 2)
    with one psi_batch call; shape (...)."""
    vals = psi_batch(grads.reshape(-1, 2, 2), cfg).reshape(grads.shape[:-2])
    return _summed([vals[..., j] for j in range(len(mults))], mults)


def _psi_bar_entries(entries, mults, cfg):
    """Summed psi of per-part gradient entries (x00, x01, x10, x11), one
    psi_entries call per part; the entries' broadcast shape."""
    return _summed([psi_entries(*e, cfg) for e in entries], mults)


def _summed(vals, mults):
    """sum_j mults_j vals_j of arrays vals_j >= +0 (psi values, squares),
    part by part in np.sum's order; a multiplicity-1 part is taken as it is.
    Neither the leading 0 + of np.sum nor a factor 1.0 changes such a value,
    so the bits are np.sum's."""
    total = None
    for v, m in zip(vals, mults, strict=True):
        term = v if m == 1 else v * float(m)
        total = term if total is None else total + term
    return total


def _add_part(total, term, mult, j):
    """_summed in place, part j's term given: term is scaled by its
    multiplicity and added to total, the sum so far, unless j is the first
    part, whose term is total itself."""
    if mult != 1:
        term *= float(mult)
    if j:
        total += term


def _kept_bands(lattice, per_cube):
    """The bands (_bands) of a subdivision's lattice that hold a kept cube,
    as (band, keep, rows, at): keep the kept positions in the band's lattice
    order, rows their record rows, and at the rows of a model per position.
    A band whose cubes are all kept (rows are numbered in lattice order)
    reads its rows and their models as slices, 4 % off a benchmark pass
    against gathering every band; at any other band a dropped position
    borrows row 0's model, whose values are computed and discarded."""
    bands = []
    for band in _bands(lattice.shape[0], per_cube):
        at = lattice[band].reshape(-1)
        keep = np.flatnonzero(at >= 0)
        if keep.size == at.size:
            rows = slice(at[0], at[0] + at.size)
            bands.append((band, slice(None), rows, rows))
        elif keep.size:
            bands.append((band, keep, at[keep], np.maximum(at, 0)))
    return bands


def energy_of_hybrid(g, cfg, e_ref):
    """Region-aware quadrature of the summed-psi energy of g_k.

    Outside the cubes g_k equals f, so the outside contribution reuses the
    reference-rule value e_ref = energy_of_map(f, cfg), which the caller
    computes once for every k, and only the difference over cubes and collars
    is quadratured: the shrunken cubes exactly (affine models), f on them by
    a per-cube 3x3 Gauss rule, and the collar rings by a Gauss rule on their
    four trapezoids (the quarter turns of the right-hand one) with the
    analytic blend gradient

        grad Phi = (f - M) otimes grad t + t grad f + (1 - t) X.

    This keeps the 1/k-scale collar contribution fully resolved instead of
    relying on a global grid that samples the thin rings noisily.  The
    collar loop runs turn by turn, then v by v, then band by band, the
    three u nodes of a (turn, v) stacked in one call; each node's sum is
    one row of two (3, n_cubes) node tables and is added in the order
    turn, v, u.
    """
    f, sub, sh = g.f, g.sub, g.shrink
    r, mults = sub.r, f.mults
    s_in, s_out = 0.5 * sh * r, 0.5 * r
    w = s_out - s_in
    n, m = sub.n_cubes, sub.lattice.shape[0]
    lines = _lattice_lines(sub.lattice_origin, r, m)
    # Every term runs one band of lattice rows at a time (_kept_bands, sized
    # by the term's points per cube: the 9 Gauss points, the 3 u nodes of a
    # collar call), with f's jet on the band's lines, and writes the psi
    # values of the band's kept cubes, in row order, into a full-length
    # vector (the cube_f Gauss table for f on the shrunken cubes, a node
    # table's row on the collar), which is summed once: the sums do not
    # depend on the band size.
    gp, gw = _GAUSS3
    offs = _grid(gp) * s_in  # (9, 2)
    # Gauss weights on [-1,1]^2 sum to 4; scaled by s_in^2 they total (2 s_in)^2
    wts = np.prod(_grid(gw), axis=1) * (s_in**2)
    per_cube = np.empty(n)
    table = np.empty((n, offs.shape[0]))
    for band, keep, rows, _at in _kept_bands(sub.lattice, offs.shape[0]):
        c0 = lines[0, band]
        # exact model energy on the shrunken cubes
        per_cube[rows] = _psi_bar(sub.part_X[rows], mults, cfg)
        # f on the shrunken cubes: tensor Gauss 3x3 per cube
        jets = f.jet(*_band_lines(offs, c0, lines[1]))
        vals = _psi_bar_entries([jt[2:] for jt in jets], mults, cfg)
        vals = np.broadcast_to(vals, (offs.shape[0], c0.size, m)).reshape(offs.shape[0], -1)
        table[rows] = vals[:, keep].T
    cube_model = float(np.sum(per_cube) * (sh * r) ** 2)
    table *= wts
    cube_f = float(np.sum(table))
    del table, per_cube

    # collar rings: per face, Gauss rule in (u, v); area element w * xi du dv.
    # Per turn and v, each band makes one jet call at the three u nodes,
    # stacked on a leading axis, which gives F and Gf of every part there,
    # and hands the entries of Gg and Gf to psi_entries; (1 - v) X is formed
    # once per band and v, and dF (x) grad t is left out of the column where
    # grad t is 0 (for finite f that term is +-0 there, so an entry differs
    # at most in the sign of a zero, which no psi value sees).  Row i of the
    # node tables holds u node i's per-cube values; each row is summed on its
    # own, so a node's sum is the one of a call per node.
    collar_g = collar_f = 0.0
    node_g, node_f = np.empty((3, n)), np.empty((3, n))
    bands = [(lines[0, band], keep, rows, sub.part_a[at], sub.part_X[at])
             for band, keep, rows, at in _kept_bands(sub.lattice, len(gp))]
    for turns in range(4):
        rot = np.linalg.matrix_power(np.array([[0.0, -1.0], [1.0, 0.0]]), turns)
        grad_t = (rot @ np.array([1.0, 0.0])) / w
        for vnode, wv in zip(gp, 0.5 * gw):
            v = 0.5 * (vnode + 1.0)
            xi = s_in + v * w
            ry = np.stack([rot @ np.array([xi, u * xi]) for u in gp])  # (3, 2), u in [-1, 1]
            r0, r1 = ry[:, 0, None, None], ry[:, 1, None, None]
            for c0, keep, rows, A, X in bands:
                shape = (c0.size, m)
                jets = f.jet(*_band_lines(ry, c0, lines[1]))
                gg, gf = [], []
                for j, (_m, (v0, v1, *grad)) in enumerate(zip(mults, jets, strict=True)):
                    part = []
                    for c, F in enumerate((v0, v1)):
                        # Gg = (F - M) (x) grad t + v Gf + (1 - v) X, row c,
                        # M = a + X (x - z) the model
                        Xc = [X[:, j, c, b].reshape(shape) for b in range(2)]
                        dF = F - (A[:, j, c].reshape(shape) + (Xc[0] * r0 + Xc[1] * r1))
                        for b in range(2):
                            term = v * grad[2 * c + b]
                            if grad_t[b] != 0.0:
                                term = dF * grad_t[b] + term
                            part.append(term + (1.0 - v) * Xc[b])
                    gg.append(part)
                    gf.append(grad)
                for node, entries in ((node_g, gg), (node_f, gf)):
                    vals = _psi_bar_entries(entries, mults, cfg)
                    node[:, rows] = np.broadcast_to(vals, (3,) + shape).reshape(3, -1)[:, keep]
            for i, wu in enumerate(gw):
                jac = w * xi * wv * wu
                collar_g += float(np.sum(node_g[i])) * jac
                collar_f += float(np.sum(node_f[i])) * jac
    return e_ref + ((cube_model - cube_f) + (collar_g - collar_f))


def piecewise_affine_sequence(f, k, cfg, e_ref):
    """One member g_k of the approximating sequence plus its report;
    e_ref = energy_of_map(f, cfg) (see energy_of_hybrid).

    Report keys: r, bad_set_full (measure not covered by the full cubes,
    target <= 2/k), bad_set_shrunk (not covered by the shrunken cubes,
    target <= 3/k), covered, lipschitz (sampled), lip_bound (10 (L + 2),
    uniform in k), energy_psi_bar, boundary_trace_error.
    Raises RuntimeError when the cubic subdivision search fails.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    sub = cubic_subdivision(f, 1.0 / k)
    g = HybridQMap(f, sub, k)
    covered = sub.n_cubes * sub.r * sub.r
    bad_shrunk = 1.0 - sub.n_cubes * (g.shrink * sub.r) ** 2
    energy = energy_of_hybrid(g, cfg, e_ref)
    x = _square_perimeter(np.zeros(2), 0.5, np.linspace(0.0, 1.0, 33)[:-1])
    trace_err = max(0.0, float(np.max(g_metric(g.values_at(x), f.values_at(x)))))
    report = {
        "r": sub.r,
        "bad_set_full": 1.0 - covered,
        "bad_set_shrunk": bad_shrunk,
        "covered": covered,
        "lipschitz": g.measured_lipschitz(),
        "lip_bound": 10.0 * (f.lipschitz + 2.0),
        "energy_psi_bar": energy,
        "boundary_trace_error": trace_err,
    }
    return g, report
