"""Rejection sampling oracle and direction width sampling."""

import math
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meissner import (
    Arc,
    ArgumentError,
    BallSystem,
    EmptySystem,
    NoIntersection,
    SmoothingChoice,
    build_meissner,
    mc_volume,
    meissner_volume,
    random_feasible_pyramid,
    regular_pyramid,
    regular_tetrahedron,
    tessellate,
    tessellate_reuleaux,
    validate_vertex_set,
    width_samples,
)
from meissner.montecarlo import (
    _COINCIDENT_SQ,
    _ENDPOINT_TOL,
    _NORM_FLOOR,
    _SUPPORT_SLACK,
    _inside,
    _sampling_box,
    _sphere_corners,
    _strata,
    _stream,
    support,
)
from conftest import max_dist_sq, noisy_tetrahedron, triangle_center_set


@pytest.fixture(scope="module")
def tetra_system(tetra_poly):
    return BallSystem.from_meissner(tetra_poly)


@pytest.fixture(scope="module")
def reuleaux_system(tetra_vs):
    return BallSystem.from_points(np.array(tetra_vs.points))


def test_max_dist_point_to_arc_matches_brute_force(tetra_poly):
    rng = np.random.default_rng(11)
    arcs = tetra_poly.retained_arcs()
    all_samples = arcs.point(arcs.sweep[:, None] * np.linspace(0.0, 1.0, 4001))
    for i, samples in enumerate(all_samples):
        pts = np.stack([rng.normal(scale=1.5, size=3) for _ in range(20)])
        brute = np.array([np.max(np.linalg.norm(samples - p, axis=1)) for p in pts])
        exact = np.sqrt(max_dist_sq(arcs, i, pts))
        assert np.all(brute <= exact + 1e-12)
        assert np.all(exact <= brute + 1e-6)


def reference_inside(system: BallSystem, pts: np.ndarray, slack: float) -> np.ndarray:
    """Every center and every arc's farthest point within 1 + slack, by the reference arc distance."""
    limit = (1.0 + slack) ** 2
    far = np.max([np.einsum("ij,ij->i", pts - c, pts - c) for c in system.centers], axis=0)
    for i in range(len(system.arcs)):
        far = np.maximum(far, max_dist_sq(system.arcs, i, pts))
    return far <= limit


def near_far_sphere(arcs: Arc, ts: np.ndarray, dist: np.ndarray, lift: np.ndarray) -> np.ndarray:
    """Points at distance dist from the arc points at ts, each that arc's farthest point from them.

    Row i of ts, dist and lift is arc i.  Each point's projection on the
    arc's circle points away from the arc point at ts, so the point lies
    in the arc's wedge; lift, in (-1, 1), sets its height off the
    circle's plane as a share of the most that dist allows.
    """
    axis = np.cross(arcs.u, arcs.v)
    r = arcs.radius[:, None]
    height = lift * np.sqrt(dist * dist - r * r)
    rho = np.sqrt(dist * dist - height * height) - r
    radial = np.cos(ts)[..., None] * arcs.u[:, None] + np.sin(ts)[..., None] * arcs.v[:, None]
    pts = arcs.center[:, None] - rho[..., None] * radial + height[..., None] * axis[:, None]
    return pts.reshape(-1, 3)


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        st.just(regular_tetrahedron()),
        st.builds(random_feasible_pyramid, st.integers(1, 5), st.integers(0, 10_000)),
    ),
    st.integers(0, 2**32 - 1),
)
def test_wedge_first_arc_test_matches_the_reference(vs, seed):
    system = BallSystem.from_meissner(build_meissner(vs))
    arcs = system.arcs
    rng = np.random.default_rng(seed)
    lo, size = _sampling_box(system.centers)
    box = lo + size * rng.random((2048, 3))
    shape = (len(arcs), 64)
    # each arc's wedge edges and its interior, just inside and just outside the far-point sphere
    sweep = np.broadcast_to(arcs.sweep[:, None], shape)
    ts = np.concatenate((np.zeros(shape), sweep, sweep * rng.random(shape)), axis=1)
    offset = np.where(rng.random(ts.shape) < 0.5, -1e-7, 1e-7)
    lift = rng.uniform(-0.9, 0.9, ts.shape)
    for slack in (0.0, _SUPPORT_SLACK):
        near = near_far_sphere(arcs, ts, (1.0 + slack) * (1.0 + offset), lift)
        near_inside = reference_inside(system, near, slack)
        assert near_inside.any() and not near_inside.all()
        assert np.array_equal(_inside(system, near, slack=slack), near_inside)
        assert np.array_equal(_inside(system, box, slack=slack), reference_inside(system, box, slack))


def test_ball_system_rejects_a_sweep_past_pi(tetra_poly, tetra_system):
    half_turn = Arc(np.zeros((1, 3)), np.array([0.5]), np.eye(3)[:1], np.eye(3)[1:2], np.array([math.pi]))
    BallSystem(np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]]), half_turn)
    arcs = tetra_system.arcs
    centers = tetra_poly.vertices.points
    for sweep in (math.pi + 1e-12, -1e-12, math.nan):
        bent = Arc(arcs.center, arcs.radius, arcs.u, arcs.v, np.r_[arcs.sweep[:-1], sweep])
        with pytest.raises(ArgumentError, match="arc 2 sweeps"):
            BallSystem(centers, bent)


def test_ball_system_rejects_an_arc_that_ends_off_every_center(tetra_poly, tetra_system):
    arcs = tetra_system.arcs
    centers = tetra_poly.vertices.points
    nudge = np.zeros_like(arcs.center)
    nudge[1] = np.cross(arcs.u[1], arcs.v[1])  # along the circle's axis, so both endpoints move
    for step, ok in ((0.5, True), (2.0, False)):
        moved = Arc(arcs.center + step * _ENDPOINT_TOL * nudge, arcs.radius, arcs.u, arcs.v, arcs.sweep)
        if ok:
            BallSystem(centers, moved)
        else:
            with pytest.raises(ArgumentError, match="arc 1 ends"):
                BallSystem(centers, moved)
    with pytest.raises(ArgumentError, match="arc 0 ends"):
        BallSystem(np.empty((0, 3)), arcs)


def test_ball_systems_of_sets_validated_at_a_loose_tolerance():
    # at tol=1e-5 these sets' arcs end up to 1.9e-6 off their vertices: inside _ENDPOINT_TOL, and
    # far over _SUPPORT_SLACK, at which slack alone the support rejected the true candidates and
    # read widths down to 0.143
    for seed in range(30):
        vs = validate_vertex_set(noisy_tetrahedron(seed), tol=1e-5)
        lo, hi = width_samples(BallSystem.from_meissner(build_meissner(vs)), 500, seed=1)
        assert 1.0 - 1e-5 <= lo <= hi <= 1.0 + 1e-5


def test_contains(tetra_poly, tetra_system):
    pts = tetra_poly.vertices.points
    # the vertices lie on the boundary, where squared distances read up
    # to 1 + 2.2e-16, so they are inside only up to rounding
    assert _inside(tetra_system, pts, slack=1e-12).all()
    probes = np.stack([pts.mean(axis=0), pts[0] + np.array([1.01, 0.0, 0.0])])
    assert _inside(tetra_system, probes).tolist() == [True, False]


@pytest.mark.parametrize("copies", [1, 2], ids=["one", "coincident"])
def test_a_single_ball_is_sampled_in_its_cube(copies):
    center = np.array([0.3, -1.0, 2.0])
    system = BallSystem.from_points(np.tile(center, (copies, 1)))
    lo, size = _sampling_box(system.centers)
    assert np.array_equal(lo, center - 1.0 - _SUPPORT_SLACK)
    assert np.prod(size) == pytest.approx(8.0, rel=1e-8)
    result = mc_volume(system, 1 << 16, seed=4)
    assert result.std_error > 0.0
    assert abs(result.volume - 4.0 * math.pi / 3.0) <= 4.0 * result.std_error


def test_empty_system_rejected():
    system = BallSystem.from_points(np.empty((0, 3)))
    with pytest.raises(EmptySystem):
        mc_volume(system, 100, seed=0)
    with pytest.raises(EmptySystem):
        width_samples(system, 10, seed=0)


def test_bad_sample_count(tetra_system):
    with pytest.raises(ValueError):
        mc_volume(tetra_system, 0, seed=0)


def test_reproducible_and_thread_invariant(tetra_system):
    base = mc_volume(tetra_system, 200_000, seed=7)
    again = mc_volume(tetra_system, 200_000, seed=7)
    assert (base.volume, base.hits) == (again.volume, again.hits)
    for threads in (2, 3):
        threaded = mc_volume(tetra_system, 200_000, seed=7, threads=threads)
        assert (threaded.volume, threaded.hits) == (base.volume, base.hits)
    other = mc_volume(tetra_system, 200_000, seed=8)
    assert other.hits != base.hits
    # the last chunk, 3,395 samples, deals 1,698 pairs to 9^3 cells, 2 or 3 per cell, and keeps
    # the last pair's first sample alone
    uneven = mc_volume(tetra_system, 200_003, seed=7)
    for threads in (2, 3):
        assert mc_volume(tetra_system, 200_003, seed=7, threads=threads) == uneven


def test_one_thread_uses_one_core(tetra_system):
    # a one-thread call runs in the calling thread, so the CPU time of every other thread of the
    # process is what a woken BLAS thread pool spends; unlike CPU per wall second, it stays near 0
    # whether or not other work keeps the spare cores busy.
    # The first call also outlasts the spinning of BLAS threads woken by earlier tests.
    mc_volume(tetra_system, 2**20, seed=11)
    cpu, own = time.process_time(), time.thread_time()
    mc_volume(tetra_system, 2**20, seed=11)
    cpu, own = time.process_time() - cpu, time.thread_time() - own
    assert cpu - own <= 0.1 * own


def test_width_samples_use_one_core():
    # as above: support's products are elementwise, so no BLAS pool wakes for 2,000 directions
    system = BallSystem.from_meissner(build_meissner(random_feasible_pyramid(5, 1)))
    width_samples(system, 1000, seed=5)
    cpu, own = time.process_time(), time.thread_time()
    for _ in range(2):
        width_samples(system, 1000, seed=5)
    cpu, own = time.process_time() - cpu, time.thread_time() - own
    assert cpu - own <= 0.1 * own


@pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 31, 32, 1001, 3392, 3395, 8192, 65536])
def test_each_sample_lies_in_its_own_cell(n):
    strata = _strata(n)
    side = strata.side
    assert side == 1 or 4 * side**3 <= n
    assert 4 * (side + 1) ** 3 > n
    cells = side**3
    pairs = (n + 1) // 2
    cell = np.arange(pairs) % cells
    v = strata.place(_stream(5, 0).random((3, pairs)))
    assert v.shape == (3, n)
    corner = np.floor(v[:, :pairs]).astype(int)
    assert ((corner >= 0) & (corner < side)).all()
    assert np.array_equal((corner[0] * side + corner[1]) * side + corner[2], cell)
    # each pair's second sample mirrors its first through their cell's center; an odd n's last has none
    mirrors = n - pairs
    assert mirrors == pairs - n % 2
    assert np.abs(v[:, :mirrors] + v[:, pairs:] - (2.0 * corner[:, :mirrors] + 1.0)).max(initial=0.0) <= 1e-12
    assert np.array_equal(strata.count, np.bincount(cell, minlength=cells))
    assert set(strata.count.tolist()) <= {pairs // cells, pairs // cells + 1}
    # the estimate: each cell's mean pair mean, and the unbiased spread of its pair means over their count
    inside = _stream(6, 0).random(n) < 0.4
    pair_means = inside[:pairs].astype(float)
    pair_means[:mirrors] = (pair_means[:mirrors] + inside[pairs:]) / 2.0
    frac, var = strata.estimate(inside)
    count = np.bincount(cell, minlength=cells)
    means = np.bincount(cell, pair_means, minlength=cells) / count
    squares = np.bincount(cell, (pair_means - means[cell]) ** 2, minlength=cells)
    spread = np.where(count > 1, squares / np.maximum(count - 1, 1) / count, 0.0)
    assert frac == pytest.approx(means.mean(), rel=1e-12)
    assert var == pytest.approx(spread.sum() / cells**2, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("samples", [1, 2, 3])
def test_a_few_samples_give_a_finite_estimate(tetra_system, samples):
    result = mc_volume(tetra_system, samples, seed=0)
    assert math.isfinite(result.volume) and math.isfinite(result.std_error)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_strata_halve_the_standard_error_of_plain_sampling(k):
    # plain sampling's error at the same hit rate; the cells cut it to about a quarter
    system = BallSystem.from_meissner(build_meissner(random_feasible_pyramid(k, 0)))
    result = mc_volume(system, 1 << 16, seed=0)
    _, size = _sampling_box(system.centers)
    p = result.hits / result.samples
    assert result.std_error <= 0.5 * float(np.prod(size)) * math.sqrt(p * (1.0 - p) / result.samples)


def test_arcs_only_shrink_the_body(tetra_system, reuleaux_system):
    # same centers, same seed, same sample stream: each accepted point
    # of the smoothed body is also accepted by the unsmoothed one
    smoothed = mc_volume(tetra_system, 100_000, seed=19)
    plain = mc_volume(reuleaux_system, 100_000, seed=19)
    assert smoothed.hits <= plain.hits


def test_estimate_brackets_closed_form(tetra_poly, tetra_system):
    result = mc_volume(tetra_system, 400_000, seed=2)
    closed = meissner_volume(tetra_poly)
    assert abs(result.volume - closed) <= 5.0 * result.std_error
    assert result.std_error < 3e-3


def test_constant_width_samples(tetra_system):
    lo, hi = width_samples(tetra_system, 200, seed=3)
    assert lo >= 1.0 - 1e-6
    assert hi <= 1.0 + 1e-6


def test_unsmoothed_body_is_wider(reuleaux_system):
    lo, hi = width_samples(reuleaux_system, 500, seed=3)
    assert hi > 1.0 + 1e-3
    assert lo >= 1.0 - 1e-9


def test_support_along_edge_axis(tetra_vs, reuleaux_system):
    # the bulge over a pair of opposite edge arcs: sqrt(3) - sqrt(2)/2
    pts = tetra_vs.points
    u = (pts[0] + pts[1]) / 2.0 - (pts[2] + pts[3]) / 2.0
    u /= np.linalg.norm(u)
    width = support(reuleaux_system, u) + support(reuleaux_system, -u)
    assert width == pytest.approx(math.sqrt(3.0) - math.sqrt(2.0) / 2.0, abs=1e-9)


def test_support_takes_only_finite_unit_directions(tetra_system):
    # the support is not homogeneous: h(2u) is in general neither h(u) nor 2 h(u), and h(0) is 0
    u = _stream(9).normal(size=(2000, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    support(tetra_system, u * (1.0 + 1e-13))
    nan_row = np.array([[1.0, 0.0, 0.0], [math.nan, 0.0, 0.0]])
    for bad in (2.0 * u, [0.0, 0.0, 0.0], nan_row, [[math.inf, 0.0, 0.0]]):
        with pytest.raises(ArgumentError, match="not a finite unit vector"):
            support(tetra_system, bad)
    for bad in (np.ones((1, 4)), np.ones((2, 3, 3)), [1.0, 0.0], 1.0):
        with pytest.raises(ArgumentError, match="shape"):
            support(tetra_system, bad)


def test_width_of_a_single_ball():
    system = BallSystem.from_points(np.array([[0.0, 0.0, 0.0]]))
    lo, hi = width_samples(system, 50, seed=0)
    assert lo == pytest.approx(2.0, abs=1e-12)
    assert hi == pytest.approx(2.0, abs=1e-12)


def _arc_parameters(arcs: Arc, i: int, ts: np.ndarray) -> np.ndarray:
    """Points of arc i at the (n, s) parameters ts, every arc evaluated there and the others' rows dropped."""
    n, s = ts.shape
    return arcs.point(np.broadcast_to(ts.reshape(1, -1), (len(arcs), n * s)))[i].reshape(n, s, 3)


def _peak_parameters(arcs: Arc, i: int, dirs: np.ndarray) -> np.ndarray:
    """Per direction, the parameter of the point of arc i's circle where u . x is greatest."""
    return np.array([math.atan2(float(u @ arcs.v[i]), float(u @ arcs.u[i])) % (2.0 * math.pi) for u in dirs])


def _reference_arc_criticals(arcs: Arc, i: int, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arc i's support candidates along each direction: its peak, and its trough + u; each (n, 1, 3),
    NaN where the point is off the arc."""
    peak = _peak_parameters(arcs, i, dirs)
    ts = np.stack((peak, (peak + math.pi) % (2.0 * math.pi)), axis=1)
    pts = np.where((ts < arcs.sweep[i])[..., None], _arc_parameters(arcs, i, ts), np.nan)
    return pts[:, :1], pts[:, 1:]


def _eight_arc_criticals(arcs: Arc, i: int, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The superset rule: both endpoints, the peak and the trough (or else the start), each as
    an arc point and as a sphere point."""
    sweep = arcs.sweep[i]
    peak = _peak_parameters(arcs, i, dirs)
    ts = np.stack([np.zeros(len(dirs)), np.full(len(dirs), sweep)] + [
        np.where(t < sweep, t, 0.0) for t in (peak, (peak + math.pi) % (2.0 * math.pi))
    ], axis=1)
    pts = _arc_parameters(arcs, i, ts)
    return pts, pts


def _reference_circle_top(c1: np.ndarray, c2: np.ndarray, dirs: np.ndarray) -> np.ndarray | None:
    """Highest point along each direction of the unit spheres' intersection circle, (n, 3);
    NaN where the direction is along the centers' axis, None when the spheres meet in no circle."""
    d = c2 - c1
    d2 = float(d @ d)
    if d2 >= 4.0 or d2 < _COINCIDENT_SQ:
        return None
    radius = math.sqrt(1.0 - 0.25 * d2)
    axial = (dirs @ d) / d2
    perp = dirs - axial[:, None] * d
    norm = np.linalg.norm(perp, axis=1)
    ok = norm >= _NORM_FLOOR
    tops = (c1 + c2) / 2.0 + (radius / np.where(ok, norm, 1.0))[:, None] * perp
    return np.where(ok[:, None], tops, np.nan)


def _reference_corners(centers: np.ndarray) -> list[np.ndarray]:
    """Points where three unit spheres meet, one triple of centers at a time."""
    corners = []
    for i, j, k in combinations(range(len(centers)), 3):
        a, b = centers[j] - centers[i], centers[k] - centers[i]
        normal = np.cross(a, b)
        nn = float(normal @ normal)
        if nn == 0.0:
            continue
        rel = (float(a @ a) * np.cross(b, normal) + float(b @ b) * np.cross(normal, a)) / (2.0 * nn)
        rise_sq = 1.0 - float(rel @ rel)
        if rise_sq < 0.0:
            continue
        rise = math.sqrt(rise_sq) / math.sqrt(nn) * normal
        corners += [centers[i] + rel + rise, centers[i] + rel - rise]
    return corners


def _max_endpoint_gap(system: BallSystem) -> float:
    """The farthest any arc endpoint lies from its nearest point center; 0 without arcs."""
    arcs = system.arcs
    ends = arcs.point(np.stack((np.zeros(len(arcs)), arcs.sweep), axis=1)).reshape(-1, 3).tolist()
    return max((min(math.dist(end, c) for c in system.centers.tolist()) for end in ends), default=0.0)


def _reference_support(
    system: BallSystem,
    dirs: np.ndarray,
    corners: list[np.ndarray],
    slack: float,
    arc_criticals=_reference_arc_criticals,
) -> np.ndarray:
    """Support in each direction, its candidates built one arc and one point pair at a time.

    The candidates of every direction are screened in one `_inside` call, which tests each
    row alone; the point centers and the corners do not move with the direction, so they
    are screened once.
    """
    centers = system.centers
    fixed = np.concatenate([centers] + [c[None] for c in corners])
    fixed = fixed[_inside(system, fixed, slack=slack)]
    cands = [centers + dirs[:, None]]
    for i in range(len(system.arcs)):
        edge, spindle = arc_criticals(system.arcs, i, dirs)
        cands += [edge, spindle + dirs[:, None]]
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            top = _reference_circle_top(centers[i], centers[j], dirs)
            if top is not None:
                cands.append(top[:, None])
    pts = np.concatenate(cands, axis=1)
    ok = _inside(system, pts.reshape(-1, 3), slack=slack).reshape(pts.shape[:2])
    heights = []
    for u, row, keep in zip(dirs, pts, ok):
        feasible = np.concatenate((row[keep], fixed))
        if not len(feasible):
            raise NoIntersection("no feasible support candidate")
        heights.append(float((feasible @ u).max()))
    return np.array(heights)


def _support_systems(tetra_vs) -> list[BallSystem]:
    """A single ball; the tetrahedron, regular and random pyramids, each smoothed and unsmoothed;
    two tetrahedra validated at tol=1e-5, whose arcs end 1.3e-6 and 4.9e-7 off their vertices."""
    point_sets = [tetra_vs, regular_pyramid(2), regular_pyramid(3)]
    point_sets += [random_feasible_pyramid(k, 0) for k in range(1, 6)]
    systems = [BallSystem.from_points(np.array([[0.3, -0.2, 0.1]]))]
    for vs in point_sets:
        systems += [BallSystem.from_meissner(build_meissner(vs)), BallSystem.from_points(vs.points)]
    for seed in (5, 29):
        loose = validate_vertex_set(noisy_tetrahedron(seed), tol=1e-5)
        systems.append(BallSystem.from_meissner(build_meissner(loose)))
    return systems


def _support_directions(tetra_vs, count: int) -> np.ndarray:
    """The axes, a tetrahedron edge axis both ways, then count random unit directions."""
    pts = tetra_vs.points
    edge_axis = (pts[0] + pts[1]) / 2.0 - (pts[2] + pts[3]) / 2.0
    dirs = np.random.default_rng(23).normal(size=(count, 3))
    dirs = np.concatenate((np.eye(3), -np.eye(3), [edge_axis, -edge_axis], dirs))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def test_batched_support_matches_the_per_direction_reference(tetra_vs):
    dirs = _support_directions(tetra_vs, 200)
    for system in _support_systems(tetra_vs):
        batched = support(system, dirs)
        assert batched.shape == (len(dirs),)
        corners = _reference_corners(system.centers)
        slack = max(_SUPPORT_SLACK, _max_endpoint_gap(system))
        reference = _reference_support(system, dirs, corners, slack)
        assert np.abs(batched - reference).max() <= 1e-15
        single = support(system, dirs[7])
        assert isinstance(single, float)
        assert abs(single - reference[7]) <= 1e-15


def test_support_is_the_eight_candidate_support_up_to_the_endpoint_gaps(tetra_vs):
    # the superset also screens each arc's endpoints, its peak + u and its trough: the endpoints lie
    # within the gap of point centers, and the other two never win
    dirs = _support_directions(tetra_vs, 64)
    for system in _support_systems(tetra_vs):
        corners = _reference_corners(system.centers)
        gap = _max_endpoint_gap(system)
        slack = max(_SUPPORT_SLACK, gap)
        superset = _reference_support(system, dirs, corners, slack, _eight_arc_criticals)
        below = superset - support(system, dirs)
        assert below.min() >= -1e-15
        assert below.max() <= gap + 1e-15


@pytest.mark.parametrize("vs", [regular_tetrahedron()] + [random_feasible_pyramid(k, 0) for k in range(1, 6)])
def test_support_meets_the_tessellated_surface(vs):
    # the mesh vertices lie on the surface, so none rises above the support; between them the
    # mesh sags below it by O(h^2): 2.5e-3 at refinement 3, 6.1e-4 at refinement 4
    refinement, sag = 3, 6e-3
    dirs = np.random.default_rng(0).normal(size=(500, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    poly = build_meissner(vs)
    other = build_meissner(vs, SmoothingChoice(tuple(not bit for bit in poly.choice.bits)))
    bodies = [(BallSystem.from_meissner(p), tessellate(p, refinement)) for p in (poly, other)]
    bodies.append((BallSystem.from_points(vs.points), tessellate_reuleaux(vs, poly.pairs, refinement)))
    for system, mesh in bodies:
        h = support(system, dirs)
        top = np.einsum("vj,nj->nv", mesh.vertices, dirs).max(axis=1)
        assert (top - h).max() <= 1e-12
        assert (h - top).max() < sag


def test_sphere_corners_of_the_tetrahedron(tetra_vs):
    # each triple's spheres meet at the fourth vertex and at its mirror image
    # through the triple's plane, which lies outside the fourth ball
    corners = _sphere_corners(tetra_vs.points)
    assert corners.shape == (8, 3)
    dist = np.linalg.norm(corners[:, None] - tetra_vs.points[None], axis=-1)
    assert (np.count_nonzero(np.abs(dist - 1.0) <= 1e-12, axis=1) >= 3).all()
    vertices = corners[_inside(BallSystem.from_points(tetra_vs.points), corners, slack=1e-12)]
    assert np.abs(np.sort(vertices, axis=0) - np.sort(tetra_vs.points, axis=0)).max() <= 1e-15


def test_disjoint_balls_have_no_support_and_no_volume():
    system = BallSystem.from_points(np.array([[0.0, 0.0, 0.0], [2.5, 0.0, 0.0]]))
    with pytest.raises(NoIntersection):
        support(system, np.eye(3))
    result = mc_volume(system, 1000, seed=0)
    assert (result.hits, result.volume, result.std_error) == (0, 0.0, 0.0)
    with pytest.raises(ArgumentError, match="seed"):
        mc_volume(system, 1000, seed=-1)


@pytest.mark.parametrize("side", [1.75, 1.9])
def test_balls_that_meet_pairwise_but_share_no_point_have_no_volume(side):
    # an equilateral triangle of circumradius side / sqrt(3), 1.01 or 1.10: every two balls meet,
    # all three do not
    angles = 2.0 * math.pi / 3.0 * np.arange(3)
    centers = side / math.sqrt(3.0) * np.stack((np.cos(angles), np.sin(angles), np.zeros(3)), axis=1)
    system = BallSystem.from_points(centers)
    result = mc_volume(system, 5000, seed=1)
    assert (result.volume, result.std_error, result.hits) == (0.0, 0.0, 0)
    with pytest.raises(ArgumentError, match="seed"):
        mc_volume(system, 5000, seed=-1)


def test_sampling_box_holds_a_body_whose_corners_are_not_centers():
    # a unit triangle and its centroid: the body's top and bottom are where
    # the triangle's three spheres meet, at height sqrt(2/3), not at a center;
    # every pair's lens reaches higher, so the box holds them with room to spare
    system = BallSystem.from_points(triangle_center_set())
    top = math.sqrt(2.0 / 3.0)
    up = np.array([0.0, 0.0, 1.0])
    assert support(system, np.stack((up, -up))) == pytest.approx([top, top], abs=1e-12)
    lo, size = _sampling_box(system.centers)
    assert lo[2] <= -top and lo[2] + size[2] >= top
    # uniform points of the first center's ball that the body keeps
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1.0, 1.0, size=(400_000, 3))
    pts = system.centers[0] + pts[np.einsum("ij,ij->i", pts, pts) <= 1.0]
    kept = pts[_inside(system, pts)]
    assert len(kept) > 10_000
    assert (kept >= lo).all() and (kept <= lo + size).all()
    p = len(kept) / len(pts)
    ball = 4.0 * math.pi / 3.0 * p
    ball_se = 4.0 * math.pi / 3.0 * math.sqrt(p * (1.0 - p) / len(pts))
    result = mc_volume(system, 1 << 18, seed=3)
    assert abs(result.volume - ball) <= 5.0 * math.hypot(result.std_error, ball_se)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10_000))
def test_random_pyramids_have_constant_width_inside_the_sampling_box(k, seed):
    vs = random_feasible_pyramid(k, seed)
    poly = build_meissner(vs)
    narrowest, widest = width_samples(BallSystem.from_meissner(poly), 64, seed=seed)
    assert 1.0 - 1e-6 <= narrowest <= widest <= 1.0 + 1e-6
    lo, size = _sampling_box(vs.points)
    for mesh in (tessellate(poly, 2), tessellate_reuleaux(vs, poly.pairs, 2)):
        assert (mesh.vertices >= lo).all() and (mesh.vertices <= lo + size).all()


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.builds(lambda k, seed: random_feasible_pyramid(k, seed).points, st.integers(1, 5), st.integers(0, 10_000)),
        st.builds(lambda seed: validate_vertex_set(noisy_tetrahedron(seed), tol=1e-5).points, st.integers(0, 10_000)),
        st.just(np.concatenate((regular_tetrahedron().points, regular_tetrahedron().points[:1]))),
    )
)
def test_lens_box_holds_the_ball_polytope(centers):
    h = support(BallSystem.from_points(centers), np.concatenate((np.eye(3), -np.eye(3))))
    lo, size = _sampling_box(centers)
    assert (lo <= -h[3:]).all() and (lo + size >= h[:3]).all()


@pytest.mark.parametrize("k, samples", [(1, 1 << 13), (3, 1 << 13), (5, 1 << 13), (3, 1001)])
def test_estimates_center_on_the_closed_form_with_honest_errors(k, samples):
    # over 200 seeds: the mean estimate within 4 sigma of the closed form, and the estimates'
    # spread matching the mean reported standard error
    poly = build_meissner(random_feasible_pyramid(k, 11))
    system = BallSystem.from_meissner(poly)
    results = [mc_volume(system, samples, seed=seed) for seed in range(200)]
    volumes = np.array([r.volume for r in results])
    spread = volumes.std(ddof=1)
    assert abs(volumes.mean() - meissner_volume(poly)) <= 4.0 * spread / math.sqrt(len(volumes))
    assert 0.8 <= spread / np.mean([r.std_error for r in results]) <= 1.25


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_estimate_brackets_closed_form_on_random_pyramids(k, seed):
    poly = build_meissner(random_feasible_pyramid(k, seed))
    result = mc_volume(BallSystem.from_meissner(poly), 1 << 16, seed=seed)
    assert abs(result.volume - meissner_volume(poly)) <= 5.0 * result.std_error


def test_unkeyed_stream_is_the_plain_seed_sequence_stream():
    # width_samples and random_feasible_pyramid drew from SeedSequence(seed) before the keyed helper
    for seed in (0, 7, np.int64(11)):
        plain = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        assert np.array_equal(_stream(seed).random(16), plain.random(16))
