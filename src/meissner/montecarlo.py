"""Monte Carlo oracle for ball-intersection bodies.

A body is represented by its generating centers: a finite point set
plus circular arcs, the body being the intersection of all unit balls
centered there.  Membership therefore reduces to one distance per point
center and one farthest distance per arc, the arcs tested only on the
points inside every point ball.  An arc's farthest point from a sample
is one of its endpoints, themselves point centers, unless the sample
lies in the arc's wedge, so each arc computes a distance only there.
That arc test, `polytope._arc_survivors`, is the one for scored points,
lattice corners and support candidates alike.
The volume estimate samples an axis box that holds the body: along each
axis, the least support over every pair of point balls of their lens.
Sampling is chunked, with each chunk driven by its own counter-based
generator keyed by (seed, chunk index), so results are reproducible bit
for bit regardless of how chunks are scheduled.

Each chunk is stratified and antithetic.  It splits the unit cube into
equal cells, mapped affinely onto the box, and sorts them before any
sample is drawn: a cell that misses a point ball is outside the body,
and a cell whose eight corners lie inside it, with a margin, is inside,
since the body is convex.  Only the cells that the boundary crosses get
samples, pairs mirrored through their cell's center dealt to them in
turn.  The cells are as fine as the chunk allows: no more corners than
samples, and two pairs or more for each cell the boundary crosses.

A sample is scored, not hit or missed.  The point balls alone fix in
closed form the span of its cell's z range that they hold over its
(x, y), and the arcs can only cut that span further.  So the sample
places one point in the span, at its in-cell z fraction, and scores the
span's share of the cell's z range if that point passes the arcs, 0
otherwise: conditional Monte Carlo along z, unbiased, with the point
balls' share exact.  The chunk's estimate counts each interior cell
whole and each boundary cell by its mean score, and its variance is the
spread of the pair means inside the boundary cells alone.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import ArgumentError, EmptySystem, NoIntersection
from .polytope import Arc, MeissnerPolyhedron, _NORM_FLOOR, _arc_survivors, _cross, _pairs

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
# a cell this far inside or outside is so for `_inside` too, whose rounding is near 1e-15
_CELL_MARGIN = 1e-9
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
    endpoint to its nearest point center, 0.0 without arcs.
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
    """Stratified antithetic sampling of the boundary cells of the point centers' lens box, scored along z.

    Along each axis direction the box reaches the least support, over
    every pair of point balls, of their lens, widened by the support
    slack (`_sampling_box`).  The body lies in every lens, so the box
    holds it.  A single ball is sampled in its cube.  When there is no
    box, two balls missing each other or the box empty, the balls share
    no point: the result is volume 0, standard error 0 and no hits, with
    no sample drawn.

    A chunk of n samples splits the unit cube into L^3 equal cells, mapped
    affinely onto the box, and sorts them once per call and chunk size
    (`_classify`): I interior cells, which lie inside the body, exterior
    cells, which miss a point ball, and the B cells between, which the
    boundary crosses.  L is the largest side whose (L + 1)^3 cell corners
    fit in n and whose B boundary cells get two pairs each, 2 B <=
    ceil(n / 2), or 1 (`_strata`); it depends on the body and n alone, not
    on the samples.  The chunk draws ceil(n / 2) points q_p uniform in the
    unit cube.  Pair p goes to the (p mod B)-th boundary cell, its two
    samples at (cell corner + q_p) / L and (cell corner + 1 - q_p) / L,
    mirrored through the cell's center; for an odd n the last pair keeps
    only its first sample.

    A sample's score is a number in [0, 1] (`_scores`).  It keeps the
    sample's x and y, and clips the cell's z range [z0, z0 + h] to every
    point ball's z span over (x, y) to get [a, b].  Its scored point lies
    at z = a + f (b - a), f the sample's in-cell z fraction (q, or 1 - q
    for the mirror), and it scores (b - a) / h if that point passes the
    arcs, 0 otherwise or when [a, b] is empty.  Given (x, y), f is uniform,
    so the mean score is the share of the cell's z segment in the body:
    the point balls' share is exact and the arcs cut it only where they
    reject the point.  The scored point's membership of the point balls
    is decided by the span, as its square roots round (about 1e-16), and
    only the arcs are tested at it.

    A boundary cell's mean score p_c is the mean of its k_c pair means,
    with variance the unbiased spread of those pair means over k_c, a cell
    of one pair adding none.  The chunk's share of the box in the body is
    (I + sum of the p_c) / L^3, with variance the p_c's variances' sum over
    (L^3)^2; when no cell is a boundary cell, it is I / L^3 exactly and
    the chunk draws no sample.  Chunks combine weighted by their share of
    the samples; volume and standard error scale with the box's volume,
    and `hits` counts the scored points that pass the arcs, all in
    boundary cells.

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
            # no cell is crossed by the boundary: the estimate is exact and draws nothing
            return 0, strata.interior / strata.side**3, 0.0
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
    """A chunk's cells over one body: L per side, `interior` of them inside it, ceil(n / 2) antithetic pairs
    dealt to the B cells the boundary crosses, pair p to the (p mod B)-th of them, each sample scored in [0, 1]."""

    side: int  # L
    samples: int  # n
    interior: int  # cells wholly inside the body
    # (3, pairs): the low corner (x, y, z) of pair p's cell, (x * L + y) * L + z its index
    corners: np.ndarray
    count: np.ndarray  # (B,) pairs per boundary cell
    spread: np.ndarray  # (B,) 1 / (4 count^2 (count - 1)), 0 for a cell of one pair

    @classmethod
    def deal(cls, side: int, samples: int, interior: int, boundary: np.ndarray) -> "_Strata":
        """Deal the pairs of n samples round-robin to the boundary cells, given by index (x * L + y) * L + z."""
        pairs = (samples + 1) // 2
        rounds, extra = divmod(pairs, len(boundary)) if len(boundary) else (0, 0)
        corners = np.stack((boundary // (side * side), boundary // side % side, boundary % side)).astype(float)
        corners = np.tile(corners, rounds + 1)[:, :pairs]
        count = np.full(len(boundary), float(rounds))
        count[:extra] += 1.0
        spread = np.where(count > 1.0, 1.0 / (4.0 * count * count * np.maximum(count - 1.0, 1.0)), 0.0)
        return cls(side, samples, interior, corners, count, spread)

    def place(self, q: np.ndarray) -> np.ndarray:
        """Points (3, n) of [0, L)^3, in cell units, from uniform q of shape (3, pairs).

        Pair p's samples are columns p and pairs + p: its cell's corner + q_p
        and the mirror, corner + 1 - q_p; an odd n's last pair has no mirror.
        """
        pairs = self.corners.shape[1]
        mirrors = self.samples - pairs
        v = np.empty((3, self.samples))
        np.add(self.corners, q, out=v[:, :pairs])
        np.subtract(self.corners[:, :mirrors] + 1.0, q[:, :mirrors], out=v[:, pairs:])
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
        cells = self.side**3
        var = float(((self.count * s2 - s1 * s1) * self.spread).sum()) / cells**2
        return (self.interior + float((s1 / self.count).sum()) / 2.0) / cells, var


def _scores(system: BallSystem, strata: _Strata, lo: np.ndarray, size: np.ndarray, rng) -> tuple[int, np.ndarray]:
    """The [0, 1] scores of `place`'s columns for q drawn from rng, as `mc_volume` defines them, and how many
    scored points pass the arcs."""
    rows, x, y, z, width = _scored_points(system, strata, lo, size, rng)
    if system.arcs:
        passed = _arc_survivors(system.arcs, x, y, z, 1.0)
        rows, width = rows[passed], width[passed]
    scores = np.zeros(strata.samples)
    scores[rows] = width / (size[2] / strata.side)
    return len(rows), scores


def _scored_points(
    system: BallSystem, strata: _Strata, lo: np.ndarray, size: np.ndarray, rng
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The columns of `place` with a nonempty span [a, b], their scored points x, y, z and their widths b - a.

    [a, b] is the cell's z range [z0, z0 + h] clipped to every point
    ball's z span over (x, y), `_z_spans`' formula at one column, and z =
    a + f (b - a), f the in-cell z fraction: q for each pair's first
    sample, 1 - q for the mirror.  The chunk's rows live in a few scratch
    rows, all freed on return, so the arc test that follows holds little
    more than the scored points.
    """
    n = strata.samples
    q = rng.random((3, strata.corners.shape[1]))
    pairs, mirrors = q.shape[1], n - q.shape[1]
    step = size / strata.side
    # rows x, y and the cell's low z edge, each the expression that places the cell edges in `_classify`
    v = strata.place(q)
    v[2, :pairs] = strata.corners[2]
    v[2, pairs:] = strata.corners[2, :mirrors]
    v *= step[:, None]
    v += lo[:, None]
    x, y, low = v
    high = low + step[2]
    # the in-cell z fractions, written over q's x and y rows, which `place` has used
    f = q.reshape(-1)[:n]
    f[:pairs] = q[2]
    np.subtract(1.0, q[2, :mirrors], out=f[pairs:])
    # scratch rows shared by every center, so no center allocates a temporary per operation
    acc, tmp = np.empty(n), np.empty(n)
    # a ball that misses the column reaches NaN, which maximum and minimum pass on: the span is empty
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
    rows = np.flatnonzero(high > low)
    high -= low
    np.multiply(f, high, out=acc)
    acc += low
    return rows, x[rows], y[rows], acc[rows], high[rows]


def _classify(
    system: BallSystem, lo: np.ndarray, size: np.ndarray, side: int
) -> tuple[np.ndarray, np.ndarray]:
    """Interior and exterior masks of the L^3 cells of the box, cell (x, y, z) at (x * L + y) * L + z.

    The cell edges are lo + (size / L) i, the expression that places the
    samples, so every sample lies in its closed cell.  A cell is exterior
    when its nearest point lies over 1 + `_CELL_MARGIN` from a point
    center, and interior when its 8 corners pass `_inside` at slack
    -(`_CELL_MARGIN` + g), g the largest arc endpoint gap.  A point that
    passes there lies within 1 - `_CELL_MARGIN` of every center and every
    arc point: off an arc's wedge its farthest arc point is an endpoint,
    at most g from the point center tested in its stead.  Those points
    are an intersection of balls, so convex, and hold the whole cell,
    whose every point `_inside` then accepts.

    The point balls are tested per (x, y) column of the lattice, not per
    corner or cell.  A ball meets a column's z line in one span, so the
    column's corners that pass every point ball are those between the
    spans' greatest low end and least high end (`_z_spans`), and its
    cells that no point ball misses are those that reach into the like
    span at 1 + margin; the margin covers the rounding of the square
    roots.  The corners that pass every point ball then go through the
    arcs as rows (`_arc_survivors`), and those that fail are cleared.
    """
    limit = (1.0 - (_CELL_MARGIN + system.gap)) ** 2
    edges = lo[:, None] + (size / side)[:, None] * np.arange(side + 1.0)
    # (centers, axis, L + 1): each center's offset from each edge along each axis
    off = edges[None] - system.centers[:, :, None]
    z = system.centers[:, 2]
    sq = off[:, :2] ** 2
    low, high = _z_spans(z, sq[:, 0, :, None] + sq[:, 1, None, :], limit)
    ok = (edges[2] >= low) & (edges[2] <= high)
    if system.arcs:
        i, j, k = np.nonzero(ok)
        ok[i, j, k] = False
        kept = _arc_survivors(system.arcs, edges[0][i], edges[1][j], edges[2][k], limit)
        ok[i[kept], j[kept], k[kept]] = True
    # a cell's corners pass when both ends of each of its edges along x, then y, then z do
    ok = ok[:-1] & ok[1:]
    ok = ok[:, :-1] & ok[:, 1:]
    interior = ok[:, :, :-1] & ok[:, :, 1:]
    # along x and y, the squared distance from each center to each cell's span: a cell meets every
    # ball within 1 + margin when its z span meets every ball's span over its column
    near = np.maximum(np.maximum(off[:, :2, :-1], -off[:, :2, 1:]), 0.0) ** 2
    low, high = _z_spans(z, near[:, 0, :, None] + near[:, 1, None, :], (1.0 + _CELL_MARGIN) ** 2)
    exterior = (edges[2][:-1] > high) | (edges[2][1:] < low)
    return interior.ravel(), exterior.ravel()


def _z_spans(z: np.ndarray, across: np.ndarray, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """Low and high ends, (X, Y, 1), of each column's z span within sqrt(bound) of every center.

    `across` (centers, X, Y) holds each column's squared distance to each
    center in x and y, z the centers' heights.  A column that some ball
    misses gets an empty span, low +inf and high -inf.
    """
    rest = bound - across
    reach = np.sqrt(np.maximum(rest, 0.0))
    reach[rest < 0.0] = -np.inf
    return (z[:, None, None] - reach).max(axis=0)[..., None], (z[:, None, None] + reach).min(axis=0)[..., None]


def _strata(system: BallSystem, lo: np.ndarray, size: np.ndarray, n: int) -> _Strata:
    """The cells of a chunk of n samples over the box, sorted for the system.

    L is the largest side with (L + 1)^3 <= n, so the corner lattice is no
    bigger than the chunk, and 2 B <= ceil(n / 2), so each of the B
    boundary cells gets two pairs or more and its spread is estimated; 1
    when no side passes both.  The search classifies down from the
    largest side that passes the first, where most bodies already pass
    the second.
    """
    pairs = (n + 1) // 2
    side = 1
    while (side + 2) ** 3 <= n:
        side += 1
    while True:
        interior, exterior = _classify(system, lo, size, side)
        boundary = np.flatnonzero(~(interior | exterior))
        if side == 1 or 2 * len(boundary) <= pairs:
            return _Strata.deal(side, n, int(np.count_nonzero(interior)), boundary)
        side -= 1


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
    """Raise ArgumentError unless value is an integer of at least `least`: 0 for a seed, 1 for a count."""
    if not isinstance(value, (int, np.integer)) or value < least:
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
