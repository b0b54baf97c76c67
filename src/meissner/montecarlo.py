"""Monte Carlo oracle for ball-intersection bodies.

A body is represented by its generating centers: a finite point set
plus circular arcs, the body being the intersection of all unit balls
centered there.  Membership therefore reduces to one distance per point
center and one farthest distance per arc, the arcs tested only on the
points inside every point ball.  An arc's farthest point from a sample
is one of its endpoints, themselves point centers, unless the sample
lies in the arc's wedge, so each arc computes a distance only there.
The volume estimate
samples the axis box of the point centers' ball polytope, which holds
the body; it samples the unit ball around the first point center
instead when that ball is the smaller region, or when the balls share
no point.  Sampling is chunked, with each chunk driven by its own
counter-based generator keyed by (seed, chunk index), so results are
reproducible bit for bit regardless of how chunks are scheduled.

Each chunk is stratified: it splits the unit cube into equal cells,
deals its samples to the cells in turn and maps the cube onto the
sampled region by a volume-preserving map.  The chunk's estimate is the
mean hit fraction of its cells and its variance comes from the spread
inside each cell, so a cell wholly inside or outside the body adds
none; only the cells that the boundary crosses do.
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
_BALL_VOLUME = 4.0 * math.pi / 3.0
# support candidates are computed on the balls' boundaries and land outside them by rounding
_SUPPORT_SLACK = 1e-9
# an `_edge_arc` endpoint lies off its vertex by up to its plane slack, 4 tol / |c2 - c1|, and a
# like radial gap; 1e-4 holds that for sets validated at tol up to 1e-5
_ENDPOINT_TOL = 1e-4
# squared center distance below which two spheres coincide and share no circle
_COINCIDENT_SQ = 1e-30
_AXES = np.concatenate((np.eye(3), -np.eye(3)))
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
        if not arcs:
            return
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
    """Stratified rejection sampling of the axis box of the point centers' ball polytope.

    The box comes from `support` of the point centers alone in the six
    axis directions, widened by the support slack; arcs only cut that
    polytope down, so the box holds the body, and bodies on the same
    centers share one sample stream.  When the box is no smaller than
    the unit ball around the first point center, or the balls share no
    point, that ball is sampled instead.

    A chunk of n samples splits the unit cube into L^3 equal cells, L
    the largest integer with 2 L^3 <= n (at least 1), and sample i goes
    to cell i mod L^3 at (cell corner + q_i) / L, q_i uniform in the
    unit cube.  The cube point is then mapped onto the box by an affine
    map, or onto the ball by the volume-preserving (z, azimuth, cube
    root of the radius) map, so the cells are of equal volume either
    way.  The chunk's hit fraction is the mean of its cells' fractions
    p_c = h_c / n_c, with variance sum_c p_c (1 - p_c) / (n_c - 1)
    over (L^3)^2, a cell of one sample adding none.  Chunks combine
    weighted by their share of the samples; volume and standard error
    scale with the volume of the sampled region, and `hits` is the total
    count of accepted samples.

    Deterministic for fixed (samples, seed): the sample stream is a pure
    function of the chunk index and chunks combine in chunk order, so
    the thread count cannot change the estimate.
    """
    if len(system.centers) == 0:
        raise EmptySystem("no point centers to anchor the sampling ball")
    if samples < 1:
        raise ArgumentError(f"sample count must be positive, got {samples}")
    if threads < 1:
        raise ArgumentError(f"thread count must be positive, got {threads}")
    _check_seed(seed)
    base = system.centers[0]
    box = _sampling_box(system.centers)
    region = _BALL_VOLUME if box is None else float(np.prod(box[1]))
    nchunks = (samples + CHUNK - 1) // CHUNK

    def run(chunk: int) -> tuple[int, float, float]:
        n = min(CHUNK, samples - chunk * CHUNK)
        strata = _strata(n)
        v = strata.place(_stream(seed, chunk).random((3, n)))
        if box is not None:
            # column-major like v, so `_inside` takes its x, y, z columns without a copy
            pts = box[0] + (box[1] / strata.side) * v
        else:
            u = v / strata.side
            z = 1.0 - 2.0 * u[:, 0]
            azimuth = 2.0 * math.pi * u[:, 1]
            radius = np.cbrt(u[:, 2])
            s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
            pts = base + radius[:, None] * np.stack(
                (s * np.cos(azimuth), s * np.sin(azimuth), z), axis=1
            )
        inside = _inside(system, pts)
        p = strata.fractions(inside)
        # an elementwise sum, not np.dot: a BLAS call here wakes BLAS's own thread pool inside every worker
        var = float((p * (1.0 - p) * strata.spread).sum()) / len(p) ** 2
        return int(np.count_nonzero(inside)), float(p.mean()), var

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
    return McResult(region * frac, region * math.sqrt(var), samples, seed, hits)


@dataclass(frozen=True, slots=True)
class _Strata:
    """The cells of a chunk of n samples: L per side, sample i in cell i mod L^3."""

    side: int  # L
    # (n, 3) column-major: the low corner (x, y, z) of sample i's cell, (x * L + y) * L + z = i mod L^3
    corners: np.ndarray
    count: np.ndarray  # (L^3,) samples per cell
    spread: np.ndarray  # (L^3,) 1 / (count - 1), 0 for a cell of one sample

    def place(self, q: np.ndarray) -> np.ndarray:
        """Points (n, 3) of [0, L)^3, in cell units, from uniform q of shape (3, n): each in its cell."""
        return self.corners + q.T

    def fractions(self, inside: np.ndarray) -> np.ndarray:
        """Each cell's hit fraction, from the samples' membership mask."""
        cells = len(self.count)
        padded = np.zeros(-(-len(inside) // cells) * cells, dtype=np.uint8)
        padded[: len(inside)] = inside
        # 2 (L + 1)^3 > n leaves at most 15 samples per cell, so uint8 sums cannot wrap
        return padded.reshape(-1, cells).sum(axis=0, dtype=np.uint8) / self.count


@lru_cache(maxsize=4)
def _strata(n: int) -> _Strata:
    side = 1
    while 2 * (side + 1) ** 3 <= n:
        side += 1
    cells = side**3
    cell = np.arange(n) % cells
    # column-major like q.T, which it is added to; in C order that sum is several times slower
    corners = np.asfortranarray(
        np.stack((cell // (side * side), cell // side % side, cell % side), axis=1), dtype=float
    )
    count = np.bincount(cell, minlength=cells).astype(float)
    spread = np.where(count > 1.0, 1.0 / np.maximum(count - 1.0, 1.0), 0.0)
    for a in (corners, count, spread):
        a.flags.writeable = False
    return _Strata(side, corners, count, spread)


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
    shape (n, 3), and returns shape (n,).  The support point of an
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
    dirs = u.reshape(-1, 3)
    centers = system.centers
    cands = [centers + dirs[:, None], _circle_tops(centers, dirs)]
    if system.arcs:
        peak, trough = _arc_extremes(system.arcs, dirs)
        cands += [peak, trough + dirs[:, None]]
    pts = np.concatenate(cands, axis=1)
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
    """Low corner and edge lengths of the axis box around the centers' ball polytope.

    None when the polytope is empty or the box is no smaller than a unit ball.
    """
    try:
        h = support(BallSystem(centers, _NO_ARCS), _AXES)
    except NoIntersection:
        return None
    lo = -h[3:] - _SUPPORT_SLACK
    size = h[:3] + _SUPPORT_SLACK - lo
    return (lo, size) if float(np.prod(size)) < _BALL_VOLUME else None


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
