"""Monte Carlo oracle for ball-intersection bodies.

A body is represented by its generating centers: a finite point set
plus circular arcs, the body being the intersection of all unit balls
centered there.  Membership therefore reduces to one distance per point
center and one farthest distance per arc, the arcs tested only on the
points inside every point ball.  An arc's farthest point from a point
is one of its endpoints, themselves point centers, unless the point
lies in the arc's wedge, so each arc computes a distance only there:
`polytope._arc_survivors`, the arc half of `_inside`, which screens
`support`'s candidates.

The volume estimate samples the (x, y) rectangle of an axis box that
holds the body: along each axis, the least support over every pair of
point balls of their lens.  Each sample scores the body's exact chord
on its z line.  Sampling is chunked, with each chunk driven by its own
counter-based generator keyed by (seed, chunk index), so results are
reproducible bit for bit regardless of how chunks are scheduled.

Each chunk is stratified and antithetic.  It splits the rectangle into
equal column cells and sorts them before any sample is drawn: a cell
whose every z line misses the point balls' common span lies outside
the body.  Only the other cells get samples, pairs mirrored through
their cell's center dealt to them in turn, two pairs or more each.

A chord is found in two steps.  The point balls meet a z line in one
segment [a, b], the greatest low end and the least high end of their
spans, in closed form.  Within them an arc cuts the line only where it
runs through the arc's wedge, and there the arc's farthest point is
the far point of its whole circle, at squared distance
G = |w|^2 + r^2 + 2 r rho: w the offset from the circle's center, r the
radius, rho the length of w's projection on the circle's plane.  G is
a maximum of squared distances, so it is convex (the convexity of the
arc's ball body, Kupitz, Martini and Perles), and it exceeds one on at
most one piece at each end of [a, b].  Where the line enters the wedge
inside [a, b] the far point is an arc endpoint, within the endpoint
gap of a point center, so no cut starts there.  Newton's method from an
end where G exceeds one finds where that piece stops without passing
it, since a convex function lies above its tangents.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import ArgumentError, EmptySystem, GeometryError, NoIntersection
from .polytope import Arc, MeissnerPolyhedron, _NORM_FLOOR, _arc_survivors, _cross, _dot, _pairs

__all__ = [
    "CHUNK",
    "BallSystem",
    "McResult",
    "mc_volume",
    "support",
    "width_samples",
]

CHUNK = 1 << 16
# support candidates are computed on the balls' boundaries and land outside them by rounding
_SUPPORT_SLACK = 1e-9
# an `_edge_arc` endpoint lies off its vertex by up to its plane slack, 4 tol / |c2 - c1|, and a
# like radial gap; 1e-4 holds that for sets validated at tol up to 1e-5
_ENDPOINT_TOL = 1e-4
# how far a direction's norm may stray from one; `width_samples` normalizes to within a few ulps
_UNIT_TOL = 1e-12
# a column this far outside a point ball is outside it for `_inside` too, whose rounding is near 1e-15
_CELL_MARGIN = 1e-9
# Newton stops once its step along z falls below this; at a simple root the error left is about the
# step's square, and only where a line grazes an arc's ball body, converging linearly, does it near the step
_ROOT_STEP = 1e-9
# a grazing line only halves Newton's step, 31 steps from a box side of 2 to `_ROOT_STEP`; more is a fault
_NEWTON_STEPS = 64
# chord ends in arcs' wedges cut together: enough that numpy's cost per call fades, few enough that a
# chunk's cuts add little to the memory of its rows
_CUT_BATCH = CHUNK // 16
# squared center distance below which two spheres coincide and share no circle
_COINCIDENT_SQ = 1e-30
_NO_ARCS = Arc(np.empty((0, 3)), np.empty(0), np.empty((0, 3)), np.empty((0, 3)), np.empty(0))


@dataclass(frozen=True, slots=True)
class BallSystem:
    """Generating centers of an intersection of unit balls.

    The centers must be a finite (m, 3) array with m >= 1 (ArgumentError
    otherwise, EmptySystem for m = 0).  The membership test relies on two
    properties of the arcs, checked here (ArgumentError otherwise): every
    arc endpoint is a point center, to within `_ENDPOINT_TOL`, and every
    sweep lies in [0, pi].  `gap` keeps the largest distance from an arc
    endpoint to its nearest point center, 0.0 without arcs; `support`
    widens its screen by it.
    """

    centers: np.ndarray
    arcs: Arc  # one row per arc; none for a points-only system
    gap: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shape = np.shape(self.centers)
        if len(shape) != 2 or shape[1] != 3:
            raise ArgumentError(f"centers must have shape (m, 3), got {shape}")
        if shape[0] == 0:
            raise EmptySystem("no point centers")
        if not np.isfinite(self.centers).all():
            raise ArgumentError("centers must be finite")
        arcs = self.arcs
        bad = np.flatnonzero(~((arcs.sweep >= 0.0) & (arcs.sweep <= math.pi)))
        if len(bad):
            raise ArgumentError(f"arc {bad[0]} sweeps {arcs.sweep[bad[0]]!r}, outside [0, pi]")
        gap = _endpoint_gaps(self.centers, arcs)
        bad = np.flatnonzero(~(gap <= _ENDPOINT_TOL))
        if len(bad):
            raise ArgumentError(
                f"arc {bad[0] // 2} ends {gap[bad[0]]:.3g} from the nearest point center, "
                f"over {_ENDPOINT_TOL:g}"
            )
        object.__setattr__(self, "gap", float(gap.max(initial=0.0)))

    @classmethod
    def from_meissner(cls, poly: MeissnerPolyhedron) -> "BallSystem":
        """Vertices plus one retained edge arc per dual pair."""
        return cls(np.array(poly.vertices.points, dtype=float), poly.retained_arcs())

    @classmethod
    def from_points(cls, points: np.ndarray) -> "BallSystem":
        return cls(np.array(points, dtype=float), _NO_ARCS)


@dataclass(frozen=True, slots=True)
class McResult:
    volume: float
    std_error: float
    samples: int
    seed: int
    hits: int


def mc_volume(system: BallSystem, samples: int, seed: int, threads: int = 1) -> McResult:
    """Stratified antithetic sampling of the (x, y) rectangle of the point centers' lens box, each sample scored by its chord.

    Along each axis direction the box reaches the least support, over
    every pair of point balls, of their lens, widened by the support
    slack (`_sampling_box`).  The body lies in every lens, so the box
    holds it.  A single ball is sampled in its cube.  When there is no
    box, two balls missing each other or the box empty, the balls share
    no point: the result is volume 0, standard error 0 and no hits, with
    no sample drawn.

    A chunk of n samples splits the box's (x, y) rectangle into L^2 equal
    column cells and sorts them once per call and chunk size
    (`_exterior`): exterior cells, whose every z line misses the point
    balls' common span, and the B sampled cells.  L is the largest side
    with 2 B <= ceil(n / 2), so each sampled cell gets two pairs, or 1
    (`_strata`); it depends on the body and n alone, not on the samples.
    The chunk draws ceil(n / 2) points q_p uniform in the unit square.
    Pair p goes to the (p mod B)-th sampled cell, its two samples at
    (cell corner + q_p) / L and (cell corner + 1 - q_p) / L, mirrored
    through the cell's center; for an odd n the last pair keeps only its
    first sample.

    A sample's score is the length of the body's chord on its z line
    over the box's z size, a number in [0, 1] (`_chords`).  It is exact
    up to rounding, so only (x, y) is sampled: the point balls' ends are
    closed-form square roots, good to about 1e-16, and an arc's cut ends
    once Newton's step falls below `_ROOT_STEP`, the steps never passing
    the root.  It stops short by about the square of that last step at a
    simple root, and by up to about the step itself only where the line
    grazes the arc's ball body and Newton converges linearly.

    A sampled cell's mean score p_c is the mean of its k_c pair means,
    with variance the unbiased spread of those pair means over k_c, a
    cell of one pair adding none.  The chunk's share of the box in the
    body is the sum of the p_c over L^2, with variance the p_c's
    variances' sum over L^4; when every cell is exterior it is 0 exactly
    and the chunk draws no sample.  Chunks combine weighted by their
    share of the samples; volume and standard error scale with the box's
    volume, and `hits` counts the samples whose chord is not empty.

    Deterministic for fixed (samples, seed): the sample stream is a pure
    function of the chunk index and chunks combine in chunk order, so
    the thread count cannot change the estimate.
    """
    _check_integer(samples, "sample count", 1)
    _check_integer(threads, "thread count", 1)
    _check_integer(seed, "seed", 0)
    box = _sampling_box(system.centers)
    if box is None:
        return McResult(0.0, 0.0, samples, seed, 0)
    lo, size = box
    nchunks = (samples + CHUNK - 1) // CHUNK
    # the cells of each chunk size, sorted once and shared by every chunk of that size
    sizes = {min(CHUNK, samples - c * CHUNK) for c in (0, nchunks - 1)}
    strata_of = {n: _strata(system, lo, size, n) for n in sizes}

    def run(chunk: int) -> tuple[int, float, float]:
        strata = strata_of[min(CHUNK, samples - chunk * CHUNK)]
        if not len(strata.count):
            # every cell is exterior: the body is empty and the chunk draws nothing
            return 0, 0.0, 0.0
        hits, scores = _scores(system, strata, lo, size, _stream(seed, chunk))
        return hits, *strata.estimate(scores)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, range(nchunks)))
    else:
        parts = [run(c) for c in range(nchunks)]
    frac = var = 0.0
    for chunk, (_, f, v) in enumerate(parts):
        w = min(CHUNK, samples - chunk * CHUNK) / samples
        frac += w * f
        var += w * w * v
    hits = sum(h for h, _, _ in parts)
    region = float(np.prod(size))
    return McResult(region * frac, region * math.sqrt(var), samples, seed, hits)


@dataclass(frozen=True, slots=True)
class _Strata:
    """A chunk's column cells over one body: L per side, ceil(n / 2) antithetic pairs dealt to the B cells that
    are not exterior, pair p to the (p mod B)-th of them, each sample scored in [0, 1]."""

    side: int  # L
    samples: int  # n
    corners: np.ndarray  # (2, pairs) int32: the low corner (x, y) of pair p's cell, x * L + y its index
    count: np.ndarray  # (B,) pairs per sampled cell
    spread: np.ndarray  # (B,) 1 / (4 count^2 (count - 1)), 0 for a cell of one pair

    @classmethod
    def deal(cls, side: int, samples: int, sampled: np.ndarray) -> "_Strata":
        """Deal the pairs of n samples round-robin to the sampled cells, given by index x * L + y."""
        pairs = (samples + 1) // 2
        rounds, extra = divmod(pairs, len(sampled)) if len(sampled) else (0, 0)
        corners = np.tile(np.stack(divmod(sampled, side)).astype(np.int32), rounds + 1)[:, :pairs]
        count = np.full(len(sampled), float(rounds))
        count[:extra] += 1.0
        spread = np.where(count > 1.0, 1.0 / (4.0 * count * count * np.maximum(count - 1.0, 1.0)), 0.0)
        return cls(side, samples, corners, count, spread)

    def place(self, q: np.ndarray) -> np.ndarray:
        """Points (2, n) of [0, L)^2, in cell units, from uniform q of shape (2, pairs).

        Pair p's samples are columns p and pairs + p: its cell's corner + q_p
        and the mirror, corner + 1 - q_p; an odd n's last pair has no mirror.
        """
        pairs = self.corners.shape[1]
        mirrors = self.samples - pairs
        v = np.empty((2, self.samples))
        np.add(self.corners, q, out=v[:, :pairs])
        np.subtract(self.corners[:, :mirrors], q[:, :mirrors], out=v[:, pairs:])
        v[:, pairs:] += 1.0
        return v

    def estimate(self, scores: np.ndarray) -> tuple[float, float]:
        """The chunk's fraction of the box in the body and its variance, from the [0, 1] scores of `place`'s columns."""
        dealt = len(self.count)
        pairs = self.corners.shape[1]
        mirrors = self.samples - pairs
        # twice each pair's mean: its two scores, or twice the score of an odd n's lone last sample
        twice = np.zeros(-(-pairs // dealt) * dealt)
        twice[:pairs] = scores[:pairs]
        twice[:mirrors] += scores[pairs:]
        twice[mirrors:pairs] *= 2.0
        twice = twice.reshape(-1, dealt)
        s1 = twice.sum(axis=0)
        s2 = (twice * twice).sum(axis=0)
        # k s2 - s1^2 is 4 k^2 (k - 1) times the variance of the cell's mean;
        # an elementwise sum, not np.dot: a BLAS call here wakes BLAS's own thread pool inside every worker
        cells = self.side**2
        var = float(((self.count * s2 - s1 * s1) * self.spread).sum()) / cells**2
        return float((s1 / self.count).sum()) / 2.0 / cells, var


def _scores(system: BallSystem, strata: _Strata, lo: np.ndarray, size: np.ndarray, rng) -> tuple[int, np.ndarray]:
    """The [0, 1] scores of `place`'s columns for q drawn from rng, as `mc_volume` defines them, and how many
    of their chords are not empty."""
    v = strata.place(rng.random((2, strata.corners.shape[1])))
    # the expression that places the cell edges in `_exterior`, so every sample lies in its closed cell
    v *= (size[:2] / strata.side)[:, None]
    v += lo[:2, None]
    low, high = _chords(system, *v)
    scores = np.subtract(high, low, out=high)
    # an empty chord is reversed, or NaN where a ball misses the line
    np.fmax(scores, 0.0, out=scores)
    hits = int(np.count_nonzero(scores))
    scores /= size[2]
    return hits, scores


def _chords(system: BallSystem, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Ends (2, n) of the body's chord on each z line (x, y), low then high; a chord is empty unless low < high.

    The point balls give the segment [a, b] in closed form: the greatest
    low end and the least high end of their spans over (x, y), NaN both
    when a ball misses the line.  The arcs then cut it at its ends
    (`_arc_cuts`).
    """
    n = len(x)
    ends = np.empty((2, n))
    low, high = ends
    low.fill(-np.inf)
    high.fill(np.inf)
    # scratch rows shared by every center, and then by every arc, so none allocates a temporary per operation
    scratch = np.empty((2, n))
    acc, tmp = scratch
    # a ball that misses the line reaches NaN, which maximum and minimum pass on
    with np.errstate(invalid="ignore"):
        for cx, cy, cz in system.centers.tolist():
            np.subtract(x, cx, out=acc)
            acc *= acc
            np.subtract(y, cy, out=tmp)
            acc += np.multiply(tmp, tmp, out=tmp)
            np.sqrt(np.subtract(1.0, acc, out=acc), out=acc)
            np.maximum(low, np.subtract(cz, acc, out=tmp), out=low)
            acc += cz
            np.minimum(high, acc, out=high)
    if system.arcs:
        # both ends NaN on an empty segment, so that no arc finds an end of it in its wedge
        ends[:, ~(high > low)] = np.nan
        _arc_cuts(system.arcs, x, y, ends, scratch)
    return ends


def _arc_cuts(arcs: Arc, x: np.ndarray, y: np.ndarray, ends: np.ndarray, scratch: np.ndarray) -> None:
    """Cut each segment of the point balls on the z lines (x, y), ends (2, n), to its points within 1 of every arc.

    An arc cuts a segment only from an end in its wedge where G > 1
    (module docstring): up to where G falls to 1, or to the wedge's far
    side on the segment when G never does (`_newton`).  Every arc is
    tested on the segments as the point balls give them, and the cuts
    then combine: the chord runs from the highest low cut to the lowest
    high cut, empty when those cross.  NaN ends, of empty segments, lie
    in no wedge.  The ends in the wedges are cut in batches of about
    `_CUT_BATCH`, so no array holds a row per (sample, arc).  `scratch` is
    two rows of n, overwritten.
    """
    n = len(x)
    # the wedge is w . v <= 0 and w . e >= 0, e = cos(sweep) v - sin(sweep) u (`_arc_survivors`), both
    # written as normal . p <= offset
    end = np.cos(arcs.sweep)[:, None] * arcs.v - np.sin(arcs.sweep)[:, None] * arcs.u
    planes = list(zip(
        arcs.v.tolist(), _dot(arcs.center, arcs.v).tolist(), (-end).tolist(), (-_dot(arcs.center, end)).tolist()
    ))
    # each arc's center, its circle's unit axis and its radius, one row per arc
    table = np.column_stack((arcs.center, _cross(arcs.u, arcs.v), arcs.radius))
    first, second = scratch
    at, ok = np.empty((2, n), dtype=bool), np.empty((2, n), dtype=bool)
    found, cuts = [], []
    for k, (v, v_offset, e, e_offset) in enumerate(planes):
        # each half-space holds a line below or above a limit on z; the wedge, between its top and bottom
        top = bottom = None
        for normal, offset, out in ((v, v_offset, first), (e, e_offset, second)):
            limit, upper = _line_limit(x, y, normal, offset, out)
            if upper:
                top = limit if top is None else np.minimum(top, limit, out=first)
            else:
                bottom = limit if bottom is None else np.maximum(bottom, limit, out=first)
        if top is None:
            np.greater_equal(ends, bottom, out=at)
        else:
            np.less_equal(ends, top, out=at)
            if bottom is not None:
                at &= np.greater_equal(ends, bottom, out=ok)
        # index i < n is row i's low end, n + i its high end; each gets the wedge's other side on its line
        hits = np.flatnonzero(at)
        rows = hits % n
        bound = np.where(
            hits < n,
            np.inf if top is None else top.take(rows),
            -np.inf if bottom is None else bottom.take(rows),
        )
        found.append((np.full(len(hits), k), hits, bound))
        if sum(len(part[1]) for part in found) >= _CUT_BATCH or k == len(planes) - 1:
            rows, z, sign, params = _cut_starts(table, x, y, ends, *(np.concatenate(part) for part in zip(*found)))
            z += sign * _newton(params)
            cuts.append((rows, z, sign))
            found = []
    rows, z, sign = (np.concatenate(part) for part in zip(*cuts))
    up = sign > 0.0
    np.maximum.at(ends[0], rows[up], z[up])
    np.minimum.at(ends[1], rows[~up], z[~up])


def _line_limit(x: np.ndarray, y: np.ndarray, normal: list[float], offset: float, out: np.ndarray) -> tuple[np.ndarray, bool]:
    """Where each z line (x, y) lies in the half-space normal . p <= offset: below the returned limit when the
    flag is True, above it when False.  A plane parallel to the lines holds all of a line or none of it,
    limit +inf or -inf below."""
    nx, ny, nz = normal
    if nz == 0.0:
        return np.where(_combine(x, y, nx, ny, out) <= offset, np.inf, -np.inf), True
    _combine(x, y, -nx / nz, -ny / nz, out)
    out += offset / nz
    return out, nz > 0.0


def _combine(x: np.ndarray, y: np.ndarray, a: float, b: float, out: np.ndarray) -> np.ndarray:
    """x a + y b into out with no temporary, factored on the larger coefficient."""
    if abs(a) < abs(b):
        x, y, a, b = y, x, b, a
    if a == 0.0:
        out.fill(0.0)
        return out
    np.multiply(y, b / a, out=out)
    out += x
    out *= a
    return out


def _cut_starts(
    table: np.ndarray, x: np.ndarray, y: np.ndarray, ends: np.ndarray, arc: np.ndarray, hits: np.ndarray,
    bound: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The chord ends `hits` in the wedges of arcs `arc`: their rows, z, the sign of a cut's direction along z
    (+1 up from a low end) and the columns of `_newton`'s params; an end where G <= 1 cuts nothing.

    `table` holds each arc's center, unit axis a and radius; `ends` is
    (2, n), the low ends then the high ends, and `bound` the wedge's other
    side on each end's line.  Along the cut, at t from the end, w moves
    by s t e_z: |w|^2 grows by t (2 s w_z + t), and rho^2 = R + t (2 P +
    S t) with P = s (w_z - h a_z) and S = 1 - a_z^2, h = w . a.
    """
    n = ends.shape[1]
    rows = hits % n
    z = ends.ravel()[hits]
    cx, cy, cz, ax, ay, az, r = table.T.take(arc, axis=1)
    wx, wy, wz = x[rows] - cx, y[rows] - cy, z - cz
    ww = wx * wx + wy * wy + wz * wz
    h = wx * ax + wy * ay + wz * az
    sign = np.where(hits < n, 1.0, -1.0)
    far = np.where(sign > 0.0, np.minimum(ends[1, rows], bound) - z, z - np.maximum(ends[0, rows], bound))
    # rho^2 at the end, which rounding may push below 0 on the axis, and q = |w|^2 + r^2 - 1
    params = np.stack((
        sign * (wz - h * az), 1.0 - az * az, np.maximum(ww - h * h, 0.0), 2.0 * sign * wz, ww + (r * r - 1.0), 2.0 * r, far,
    ))
    return rows, z, sign, params


def _newton(params: np.ndarray) -> np.ndarray:
    """How far each cut runs from its chord end, by Newton's method on G - 1 along the line.

    A column of params holds P, S, R, 2 s w_z, q, 2 r and the distance to
    the wedge's far side, as `_cut_starts` defines them.  At t along the
    cut, G - 1 = q + t (2 s w_z + t) + 2 r rho, and its slope is 2 s w_z +
    2 t + 2 r (P + S t) / rho; on the circle's axis, rho = 0, the slope
    keeps P + S t, 0 up to rounding and a valid subgradient.  A cut whose
    end has G <= 1 stops at t = 0.  The tangent of a convex function lies
    below it, so each step stops short of the root; a slope that does not
    descend, or a step past the far side, means G exceeds one all the way
    there.  GeometryError after `_NEWTON_STEPS` steps.
    """
    out = np.empty(params.shape[1])
    live = np.arange(params.shape[1])
    finished = np.zeros(params.shape[1], dtype=bool)
    state = np.vstack((params, np.zeros(params.shape[1])))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            p, s, r0, alpha2, q, r2, far, t = state
            lean = s * t
            lean += p
            rho = lean + p
            rho *= t
            rho += r0
            np.sqrt(np.maximum(rho, 0.0, out=rho), out=rho)
            excess = alpha2 + t
            excess *= t
            excess += q
            excess += r2 * rho
            np.divide(lean, rho, out=lean, where=rho > 0.0)
            lean *= r2
            lean += alpha2
            lean += t
            lean += t
            # the step to the tangent's root: +inf where the slope does not descend, 0 at a root reached by rounding
            step = np.fmax(excess / np.fmax(np.negative(lean, out=lean), 0.0), 0.0)
            nxt = np.minimum(t + step, far)
            done = (nxt >= far) | (step <= _ROOT_STEP)
            # a cut keeps the end it finished at, so each one's result is its own, whatever else runs with it
            np.copyto(nxt, t, where=finished)
            finished |= done
            out[live] = nxt
            left = len(live) - np.count_nonzero(finished)
            if not left:
                return out
            # the live ones are gathered once a quarter of them are finished
            if 4 * left <= 3 * len(live):
                keep = np.flatnonzero(~finished)
                live, state, nxt, finished = live[keep], state.take(keep, axis=1), nxt[keep], finished[keep]
            state[7] = nxt
    raise GeometryError(f"Newton found no chord end in {_NEWTON_STEPS} steps for {len(live)} cuts")


def _exterior(system: BallSystem, lo: np.ndarray, size: np.ndarray, side: int) -> np.ndarray:
    """Exterior mask of the L^2 column cells of the box's (x, y) rectangle, cell (x, y) at x * L + y.

    The cell edges are lo + (size / L) i, the expression that places the
    samples, so every sample lies in its closed cell.  A ball meets a z
    line in one span, as high as the ball is over the line, and over a
    cell it reaches no higher than over the cell's point nearest its
    center.  So a cell is exterior when, at those nearest points, within
    1 + `_CELL_MARGIN` of every center, the spans share no point: then
    no z line in the cell meets the body, and the margin covers the
    rounding of the square roots.  The cells are taken a block of rows
    at a time, about a chunk's worth of (center, cell) numbers each.
    """
    edges = lo[:2, None] + (size[:2] / side)[:, None] * np.arange(side + 1.0)
    # (centers, axis, L): the squared distance from each center to each cell's span along x and y
    off = edges[None] - system.centers[:, :2, None]
    near = np.maximum(np.maximum(off[:, :, :-1], -off[:, :, 1:]), 0.0) ** 2
    z = system.centers[:, 2, None, None]
    exterior = np.empty((side, side), dtype=bool)
    step = max(1, CHUNK // (len(z) * side))
    # a ball that misses a cell reaches NaN, which max and min pass on, so the cell counts as exterior
    with np.errstate(invalid="ignore"):
        for i in range(0, side, step):
            reach = np.subtract((1.0 + _CELL_MARGIN) ** 2 - near[:, 0, i : i + step, None], near[:, 1, None, :])
            np.sqrt(reach, out=reach)
            low = np.subtract(z, reach).max(axis=0)
            reach += z
            exterior[i : i + step] = ~(low <= reach.min(axis=0))
    return exterior.ravel()


def _strata(system: BallSystem, lo: np.ndarray, size: np.ndarray, n: int) -> _Strata:
    """The column cells of a chunk of n samples over the box, sorted for the system.

    L is the largest side with 2 B <= ceil(n / 2), so each of the B
    sampled cells gets two pairs or more and its spread is estimated; 1
    when no side passes.  Every side up to sqrt(ceil(n / 2) / 2) passes,
    since B <= L^2, and the body's cells grow about as L^2, so the count
    at that side predicts the answer.  The search steps down from one
    over that prediction and classifies at most a few sides.
    """
    pairs = (n + 1) // 2
    side = max(1, math.isqrt(pairs // 2))
    exterior = _exterior(system, lo, size, side)
    sampled = len(exterior) - int(np.count_nonzero(exterior))
    if sampled:
        for finer in range(int(side * math.sqrt(pairs / (2 * sampled))) + 1, side, -1):
            ext = _exterior(system, lo, size, finer)
            if 2 * (len(ext) - np.count_nonzero(ext)) <= pairs:
                side, exterior = finer, ext
                break
    return _Strata.deal(side, n, np.flatnonzero(~exterior))



def width_samples(
    system: BallSystem, directions: int, seed: int
) -> tuple[float, float]:
    """Min and max width h(u) + h(-u) over random unit directions."""
    _check_integer(directions, "direction count", 1)
    dirs = _stream(seed).normal(size=(directions, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    h = support(system, np.concatenate((dirs, -dirs)))
    widths = h[:directions] + h[directions:]
    return float(widths.min()), float(widths.max())


def support(system: BallSystem, direction: np.ndarray) -> float | np.ndarray:
    """Support function of the body in unit directions.

    Takes one direction, shape (3,), and returns a float, or n directions,
    shape (n, 3), and returns shape (n,); ArgumentError unless every
    direction is finite with a norm within `_UNIT_TOL` of one, since h(u)
    is not homogeneous in u.  The support point of an
    intersection of unit balls lies on a sphere patch, a sharp edge or a
    corner (Kupitz, Martini and Perles), so per direction u it is one of:

    - center + u for every point center (a sphere patch);
    - the highest point of every intersection circle of two of the spheres;
    - every arc's peak, its point where u . x is greatest (its sharp edge);
    - every arc's trough + u, the trough its point where u . x is least
      (the spindle its balls sweep);
    - a corner: a point center or a point where three of the spheres meet.

    No other arc point can win.  An endpoint is a point center, which
    stands for it.  c(t) + u lies in every ball around the arc only if
    u . c(s) >= u . c(t) + |c(s) - c(t)|^2 / 2 for every s, so t is the
    trough.  An arc point below the peak is dominated by the peak, or by
    an endpoint where the peak is off the arc.  A peak or trough off its
    arc is NaN and fails the screen.

    The candidates are screened against the balls with a slack, the
    larger of `_SUPPORT_SLACK` and the largest distance from an arc
    endpoint to its point center: a center at distance one from that
    point center lies up to that distance outside the endpoint's ball.
    The best survivor is exact up to the slack.
    """
    u = np.asarray(direction, dtype=float)
    if u.ndim not in (1, 2) or u.shape[-1] != 3:
        raise ArgumentError(f"directions must have shape (3,) or (n, 3), got {u.shape}")
    dirs = u.reshape(-1, 3)
    off = np.flatnonzero(~(np.abs(np.sqrt(np.einsum("nj,nj->n", dirs, dirs)) - 1.0) <= _UNIT_TOL))
    if len(off):
        raise ArgumentError(f"direction {off[0]} is not a finite unit vector: {dirs[off[0]].tolist()}")
    centers = system.centers
    peak, trough = _arc_extremes(system.arcs, dirs)
    pts = np.concatenate(
        (centers + dirs[:, None], _circle_tops(centers, dirs), peak, trough + dirs[:, None]), axis=1
    )
    n, k = pts.shape[:2]
    # corners do not move with the direction, so they are screened once
    corners = np.concatenate((centers, _sphere_corners(centers)))
    slack = max(_SUPPORT_SLACK, system.gap)
    ok = _inside(system, np.concatenate((pts.reshape(-1, 3), corners)), slack=slack)
    ok = np.concatenate(
        (ok[: n * k].reshape(n, k), np.broadcast_to(ok[n * k :], (n, len(corners)))), axis=1
    )
    if not ok.any(axis=1).all():
        raise NoIntersection("no feasible support candidate; the balls may not intersect")
    # einsum, not a matrix product: BLAS would wake its own thread pool
    heights = np.concatenate(
        (np.einsum("nkj,nj->nk", pts, dirs), np.einsum("nj,cj->nc", dirs, corners)), axis=1
    )
    h = np.where(ok, heights, -np.inf).max(axis=1)
    return float(h[0]) if u.ndim == 1 else h


def _check_integer(value: int, name: str, least: int) -> None:
    """Raise ArgumentError unless value is an integer of at least `least`: 0 for a seed, 1 for a count.

    A bool is refused although Python counts it an int: True would pass as 1 sample, thread or restart.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ArgumentError(f"{name} must be an integer of at least {least}, got {value!r}")


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, key); the seed must be a non-negative integer."""
    _check_integer(seed, "seed", 0)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def _sampling_box(centers: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Low corner and edge lengths of an axis box that holds the centers' ball polytope.

    Along each axis direction e the bound is the least support over every
    pair of balls of their lens.  That is c . e + 1 for the pair's lower
    center c when its cap point c + e lies in the other ball, which holds
    when |d|^2 <= 2 |d . e| for d the centers' difference, and otherwise
    the top of the spheres' intersection circle: its center's height plus
    its radius sqrt(1 - |d|^2 / 4) times sqrt(1 - (d . e)^2 / |d|^2).  The
    polytope lies in every lens, so the box, widened by the support
    slack, holds it.  A single ball is paired with a copy of itself, so
    its box is its cube.  None when two of the balls miss each other or
    the box is empty, so the polytope is.
    """
    if len(centers) == 1:
        centers = np.repeat(centers, 2, axis=0)
    i, j = _pairs(len(centers))
    d = centers[j] - centers[i]
    d2 = np.einsum("pj,pj->p", d, d)[:, None]
    if (d2 > 4.0).any():
        return None
    # coincident centers take the cap, so the circle's division never meets |d| = 0
    cap = d2 <= 2.0 * np.abs(d)
    rim = np.sqrt((1.0 - 0.25 * d2) * np.maximum(1.0 - d * d / np.where(cap, 1.0, d2), 0.0))
    mid = (centers[i] + centers[j]) / 2.0
    hi = np.where(cap, np.minimum(centers[i], centers[j]) + 1.0, mid + rim).min(axis=0)
    lo = np.where(cap, np.maximum(centers[i], centers[j]) - 1.0, mid - rim).max(axis=0)
    lo = lo - _SUPPORT_SLACK
    size = hi + _SUPPORT_SLACK - lo
    return (lo, size) if size.min() > 0.0 else None


def _endpoint_gaps(centers: np.ndarray, arcs: Arc) -> np.ndarray:
    """Distance from each arc endpoint to the nearest point center: arc i's ends are rows 2i, 2i + 1."""
    ends = arcs.point(np.stack((np.zeros(len(arcs)), arcs.sweep), axis=1)).reshape(-1, 1, 3)
    return np.linalg.norm(ends - centers, axis=-1).min(axis=1)


def _arc_extremes(arcs: Arc, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per direction, every arc's peak and trough: its points where u . x is greatest and least.

    Two arrays of shape (n, len(arcs), 3); NaN, which `_inside` rejects,
    where the point of the arc's circle falls off the arc.
    """
    peak = np.arctan2(np.einsum("nj,kj->nk", dirs, arcs.v), np.einsum("nj,kj->nk", dirs, arcs.u))
    peak %= 2.0 * math.pi
    # both parameters of every direction, one row per arc, (k, 2n); the points back to (2n, k, 3)
    ts = np.concatenate((peak, (peak + math.pi) % (2.0 * math.pi))).T
    pts = np.where((ts < arcs.sweep[:, None])[..., None], arcs.point(ts), np.nan).transpose(1, 0, 2)
    return pts[: len(dirs)], pts[len(dirs) :]


def _circle_tops(centers: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Highest point along each direction of every pair's intersection circle.

    Shape (n, pairs, 3); NaN, which `_inside` rejects, where there is no
    such point: the two spheres must meet in a circle, and the direction
    must not be parallel to the centers' axis.
    """
    i, j = _pairs(len(centers))
    d = centers[j] - centers[i]
    d2 = np.einsum("pj,pj->p", d, d)
    meets = (d2 < 4.0) & (d2 >= _COINCIDENT_SQ)
    radius = np.sqrt(1.0 - 0.25 * np.where(meets, d2, 0.0))
    axial = np.einsum("nj,pj->np", dirs, d) / np.where(meets, d2, 1.0)
    perp = dirs[:, None] - axial[..., None] * d
    norm = np.linalg.norm(perp, axis=-1)
    ok = meets & (norm >= _NORM_FLOOR)
    tops = (centers[i] + centers[j]) / 2.0 + (radius / np.where(ok, norm, 1.0))[..., None] * perp
    return np.where(ok[..., None], tops, np.nan)


@lru_cache(maxsize=16)
def _triples(m: int) -> np.ndarray:
    """Rows i, j and k of every index triple i < j < k of m centers; read-only, built once per m."""
    triples = np.array(list(combinations(range(m), 3)), dtype=np.intp).reshape(-1, 3).T.copy()
    triples.flags.writeable = False
    return triples


def _sphere_corners(centers: np.ndarray) -> np.ndarray:
    """The points where three of the unit spheres meet, two per triple that meets."""
    i, j, k = _triples(len(centers))
    a = centers[j] - centers[i]
    b = centers[k] - centers[i]
    normal = _cross(a, b)
    nn = np.einsum("tj,tj->t", normal, normal)
    # circumcenter of the triple, relative to centers[i]; collinear triples have none
    rel = (
        np.einsum("tj,tj->t", a, a)[:, None] * _cross(b, normal)
        + np.einsum("tj,tj->t", b, b)[:, None] * _cross(normal, a)
    ) / (2.0 * np.where(nn > 0.0, nn, 1.0))[:, None]
    rise_sq = 1.0 - np.einsum("tj,tj->t", rel, rel)
    meets = (nn > 0.0) & (rise_sq >= 0.0)
    mid = centers[i][meets] + rel[meets]
    rise = (np.sqrt(rise_sq[meets]) / np.sqrt(nn[meets]))[:, None] * normal[meets]
    return np.concatenate((mid + rise, mid - rise))


def _inside(system: BallSystem, pts: np.ndarray, slack: float = 0.0) -> np.ndarray:
    """Membership of (n, 3) points: every point ball, then the arcs on the rows still inside (`_arc_survivors`)."""
    limit = (1.0 + slack) ** 2
    x, y, z = np.ascontiguousarray(pts.T)
    n = len(x)
    # scratch rows shared by every center, so no center allocates a temporary per operation
    acc, tmp, ok = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    mask = np.ones(n, dtype=bool)
    for cx, cy, cz in system.centers.tolist():
        np.subtract(x, cx, out=acc)
        acc *= acc
        np.subtract(y, cy, out=tmp)
        acc += np.multiply(tmp, tmp, out=tmp)
        np.subtract(z, cz, out=tmp)
        acc += np.multiply(tmp, tmp, out=tmp)
        mask &= np.less_equal(acc, limit, out=ok)
    if not system.arcs:
        return mask
    rows = np.flatnonzero(mask)
    inside = np.zeros(n, dtype=bool)
    inside[rows[_arc_survivors(system.arcs, x[rows], y[rows], z[rows], limit)]] = True
    return inside
