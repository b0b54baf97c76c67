"""Monte Carlo oracle for ball-intersection bodies.

A body is represented by its generating centers: a finite point set
plus circular arcs, the body being the intersection of all unit balls
centered there.  Membership therefore reduces to one distance per point
center and one farthest distance per arc, the arcs tested only on the
points inside every point ball.  An arc's farthest point from a sample
is one of its endpoints, themselves point centers, unless the sample
lies in the arc's wedge, so each arc computes a distance only there.
The volume estimate samples an axis box that holds the body: along each
axis, the least support over every pair of point balls of their lens.
Sampling is chunked, with each chunk driven by its own counter-based
generator keyed by (seed, chunk index), so results are reproducible bit
for bit regardless of how chunks are scheduled.

Each chunk is stratified and antithetic: it splits the unit cube into
equal cells, deals pairs of samples mirrored through their cell's center
to the cells in turn and maps the cube affinely onto the box.  The
chunk's estimate is the mean hit fraction of its cells and its variance
comes from the spread of the pair means inside each cell, so a cell
wholly inside or outside the body adds none; only the cells that the
boundary crosses do.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import ArgumentError, EmptySystem, NoIntersection
from .polytope import Arc, MeissnerPolyhedron, _NORM_FLOOR, _cross

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
# squared center distance below which two spheres coincide and share no circle
_COINCIDENT_SQ = 1e-30
_NO_ARCS = Arc(np.empty((0, 3)), np.empty(0), np.empty((0, 3)), np.empty((0, 3)), np.empty(0))


@dataclass(frozen=True, slots=True)
class BallSystem:
    """Generating centers of an intersection of unit balls.

    The membership test relies on two properties of the arcs, checked
    here (ArgumentError otherwise): every arc endpoint is a point center,
    to within `_ENDPOINT_TOL`, and every sweep lies in [0, pi].
    """

    centers: np.ndarray
    arcs: Arc  # one row per arc; none for a points-only system

    def __post_init__(self) -> None:
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
    """Stratified antithetic rejection sampling of the point centers' lens box.

    Along each axis direction the box reaches the least support, over
    every pair of point balls, of their lens, widened by the support
    slack (`_sampling_box`).  The body lies in every lens, so the box
    holds it, and bodies on the same centers share one sample stream.  A
    single ball is sampled in its cube.  When there is no box, two balls
    missing each other or the box empty, the balls share no point: the
    result is volume 0, standard error 0 and no hits, with no sample drawn.

    A chunk of n samples splits the unit cube into L^3 equal cells, L the
    largest integer with 4 L^3 <= n (at least 1), and draws ceil(n / 2)
    points q_p uniform in the unit cube.  Pair p goes to cell p mod L^3,
    its two samples at (cell corner + q_p) / L and (cell corner + 1 - q_p)
    / L, mirrored through the cell's center; for an odd n the last pair
    keeps only its first sample.  The cube point is then mapped affinely
    onto the box, so the cells are of equal volume.  A cell's hit
    fraction p_c is the mean of its k_c pair means, with variance the
    unbiased spread of those pair means over k_c, a cell of one pair
    adding none.  The chunk's hit fraction is the mean of the p_c, with
    variance their variances' sum over (L^3)^2.  Chunks combine weighted
    by their share of the samples; volume and standard error scale with
    the box's volume, and `hits` is the total count of accepted samples.

    Deterministic for fixed (samples, seed): the sample stream is a pure
    function of the chunk index and chunks combine in chunk order, so
    the thread count cannot change the estimate.
    """
    if len(system.centers) == 0:
        raise EmptySystem("no point centers to bound the sampling box")
    if samples < 1:
        raise ArgumentError(f"sample count must be positive, got {samples}")
    if threads < 1:
        raise ArgumentError(f"thread count must be positive, got {threads}")
    _check_seed(seed)
    box = _sampling_box(system.centers)
    if box is None:
        return McResult(0.0, 0.0, samples, seed, 0)
    lo, size = box
    nchunks = (samples + CHUNK - 1) // CHUNK

    def run(chunk: int) -> tuple[int, float, float]:
        n = min(CHUNK, samples - chunk * CHUNK)
        strata = _strata(n)
        # (3, n) rows x, y, z, which `_inside` takes without a copy
        v = strata.place(_stream(seed, chunk).random((3, strata.corners.shape[1])))
        pts = lo[:, None] + (size / strata.side)[:, None] * v
        inside = _inside(system, pts.T)
        return int(np.count_nonzero(inside)), *strata.estimate(inside)

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
    """The cells of a chunk of n samples: L per side, ceil(n / 2) antithetic pairs, pair p in cell p mod L^3."""

    side: int  # L
    samples: int  # n
    # (3, pairs): the low corner (x, y, z) of pair p's cell, (x * L + y) * L + z = p mod L^3
    corners: np.ndarray
    count: np.ndarray  # (L^3,) pairs per cell
    spread: np.ndarray  # (L^3,) 1 / (4 count^2 (count - 1)), 0 for a cell of one pair

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

    def estimate(self, inside: np.ndarray) -> tuple[float, float]:
        """The chunk's hit fraction and its variance, from the membership mask of `place`'s columns."""
        cells = len(self.count)
        pairs = self.corners.shape[1]
        mirrors = self.samples - pairs
        # twice each pair's mean: its two hits, or twice the hit of an odd n's lone last sample
        twice = np.zeros(-(-pairs // cells) * cells, dtype=np.uint8)
        twice[:pairs] = inside[:pairs]
        twice[:mirrors] += inside[pairs:]
        twice[mirrors:pairs] *= 2
        twice = twice.reshape(-1, cells)
        # 4 (L + 1)^3 > n leaves at most 16 pairs per cell, so the uint8 sums of twice (at most 32)
        # and of its squares (at most 64) cannot wrap
        s1 = twice.sum(axis=0, dtype=np.uint8).astype(float)
        s2 = (twice * twice).sum(axis=0, dtype=np.uint8)
        # k s2 - s1^2 is an exact integer, 4 k^2 (k - 1) times the variance of the cell's mean;
        # an elementwise sum, not np.dot: a BLAS call here wakes BLAS's own thread pool inside every worker
        var = float(((self.count * s2 - s1 * s1) * self.spread).sum()) / cells**2
        return float((s1 / self.count).mean()) / 2.0, var


@lru_cache(maxsize=4)
def _strata(n: int) -> _Strata:
    """The cells of a chunk of n samples, L the largest integer with 4 L^3 <= n (at least 1).

    ceil(n / 2) pairs over L^3 cells give each cell at least two pairs once
    n >= 4, and 4 (L + 1)^3 > n gives it at most 16, which keeps
    `_Strata.estimate`'s uint8 sums from wrapping.
    """
    side = 1
    while 4 * (side + 1) ** 3 <= n:
        side += 1
    cells = side**3
    cell = np.arange((n + 1) // 2) % cells
    corners = np.stack((cell // (side * side), cell // side % side, cell % side)).astype(float)
    count = np.bincount(cell, minlength=cells).astype(float)
    spread = np.where(count > 1.0, 1.0 / (4.0 * count * count * np.maximum(count - 1.0, 1.0)), 0.0)
    for a in (corners, count, spread):
        a.flags.writeable = False
    return _Strata(side, n, corners, count, spread)


def width_samples(
    system: BallSystem, directions: int, seed: int
) -> tuple[float, float]:
    """Min and max width h(u) + h(-u) over random unit directions."""
    if len(system.centers) == 0:
        raise EmptySystem("no point centers")
    if directions < 1:
        raise ArgumentError(f"direction count must be positive, got {directions}")
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
    slack = max(_SUPPORT_SLACK, float(_endpoint_gaps(centers, system.arcs).max(initial=0.0)))
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


def _check_seed(seed: int) -> None:
    """Raise ArgumentError unless the seed is a non-negative integer, as every stream needs."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ArgumentError(f"seed must be a non-negative integer, got {seed!r}")


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, key); the seed must be a non-negative integer."""
    _check_seed(seed)
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
    return np.linalg.norm(ends - centers, axis=-1).min(axis=1, initial=np.inf)


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
def _pairs(m: int) -> np.ndarray:
    """Rows i and j of every index pair i < j of m centers; read-only, built once per m."""
    pairs = np.array(np.triu_indices(m, 1))
    pairs.flags.writeable = False
    return pairs


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
    """Membership of (n, 3) points: every point ball, then each arc on the rows still inside.

    With w a row's offset from an arc's center, the arc's farthest point
    from the row is the antipode of w's projection (wu, wv) on the arc's
    circle when (-wu, -wv) lies at an angle in [0, sweep], the arc's
    wedge, and an endpoint otherwise.  Every endpoint is a point center,
    already tested, so an arc computes the far distance only on the rows
    in its wedge, and a row that fails leaves the survivors at once.
    """
    limit = (1.0 + slack) ** 2
    x, y, z = np.ascontiguousarray(pts.T)
    n = len(x)
    # scratch rows shared by every test, so no test allocates a temporary per operation
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
    x, y, z = x[rows], y[rows], z[rows]
    arcs = system.arcs
    for center, u, v, r, sweep in zip(
        arcs.center.tolist(), arcs.u.tolist(), arcs.v.tolist(), arcs.radius.tolist(), arcs.sweep.tolist()
    ):
        k = len(rows)
        # the wedge is wv <= 0 and wv cos(sweep) - wu sin(sweep) >= 0, two half-planes that
        # meet in that angle for sweep <= pi; as half-spaces of the rows they need no w
        end = [math.cos(sweep) * b - math.sin(sweep) * a for a, b in zip(u, v)]
        below = np.less_equal(_project(x, y, z, v, acc[:k], tmp[:k]), _dot(center, v), out=ok[:k])
        wedge = np.flatnonzero(below & (_project(x, y, z, end, acc[:k], tmp[:k]) >= _dot(center, end)))
        wx, wy, wz = x[wedge] - center[0], y[wedge] - center[1], z[wedge] - center[2]
        wu = wx * u[0] + wy * u[1] + wz * u[2]
        wv = wx * v[0] + wy * v[1] + wz * v[2]
        far = wx * wx + wy * wy + wz * wz + r * r + 2.0 * r * np.sqrt(wu * wu + wv * wv)
        out = wedge[far > limit]
        if len(out):
            keep = np.ones(k, dtype=bool)
            keep[out] = False
            rows, x, y, z = rows[keep], x[keep], y[keep], z[keep]
    inside = np.zeros(n, dtype=bool)
    inside[rows] = True
    return inside


def _project(
    x: np.ndarray, y: np.ndarray, z: np.ndarray, a: list[float], out: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """x a_0 + y a_1 + z a_2 into out, tmp as scratch."""
    np.multiply(x, a[0], out=out)
    out += np.multiply(y, a[1], out=tmp)
    out += np.multiply(z, a[2], out=tmp)
    return out


def _dot(a: list[float], b: list[float]) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
