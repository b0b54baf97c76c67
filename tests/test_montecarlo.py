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
from meissner import montecarlo
from meissner.errors import GeometryError
from meissner.montecarlo import (
    CHUNK,
    _CELL_MARGIN,
    _COINCIDENT_SQ,
    _ENDPOINT_TOL,
    _NORM_FLOOR,
    _SUPPORT_SLACK,
    _Strata,
    _chords,
    _endpoint_gaps,
    _exterior,
    _inside,
    _newton,
    _sampling_box,
    _scores,
    _sphere_corners,
    _strata,
    _stream,
    support,
)
from meissner.polytope import _arc_survivors
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
        BallSystem(centers[:1] + 5.0, arcs)


def test_gap_is_the_largest_endpoint_gap(tetra_vs):
    # the largest endpoint gap is kept at construction for `support`
    for system in _support_systems(tetra_vs):
        assert system.gap == _endpoint_gaps(system.centers, system.arcs).max(initial=0.0)
    assert BallSystem.from_points(tetra_vs.points).gap == 0.0


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


def test_empty_system_rejected(tetra_system):
    # before any sampling: EmptySystem is an ArgumentError raised by the constructor
    with pytest.raises(EmptySystem, match="no point centers"):
        BallSystem.from_points(np.empty((0, 3)))
    with pytest.raises(EmptySystem):
        BallSystem(np.empty((0, 3)), tetra_system.arcs)
    assert issubclass(EmptySystem, ArgumentError)


@pytest.mark.parametrize(
    "centers",
    [np.array([[0.0, 0.0, math.nan]]), np.array([[0.0, math.inf, 0.0], [0.5, 0.0, 0.0]]), np.zeros((1, 4)),
     np.zeros(3), np.zeros((2, 3, 1))],
    ids=["nan", "inf", "four-columns", "flat", "three-dims"],
)
def test_ball_system_rejects_centers_that_are_not_finite_rows_of_three(centers):
    # a NaN center used to give volume 0, and a (1, 4) array numpy's bare ValueError
    with pytest.raises(ArgumentError, match="centers must"):
        BallSystem.from_points(centers)


def test_bad_sample_count(tetra_system):
    with pytest.raises(ValueError):
        mc_volume(tetra_system, 0, seed=0)


def test_reproducible_and_thread_invariant(tetra_system):
    base = mc_volume(tetra_system, 200_000, seed=7)
    again = mc_volume(tetra_system, 200_000, seed=7)
    assert (base.volume, base.hits) == (again.volume, again.hits)
    for threads in (2, 3, 4):
        threaded = mc_volume(tetra_system, 200_000, seed=7, threads=threads)
        assert (threaded.volume, threaded.hits) == (base.volume, base.hits)
    other = mc_volume(tetra_system, 200_000, seed=8)
    assert other.hits != base.hits
    # the last chunk, 3,395 samples, deals 1,698 pairs to the sampled cells of its 33^2 columns, and
    # keeps the last pair's first sample alone
    uneven = mc_volume(tetra_system, 200_003, seed=7)
    for threads in (2, 3, 4):
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


def reference_estimate(strata: _Strata, scores: np.ndarray) -> tuple[float, float]:
    """Each sampled cell's mean pair mean summed over L^2, and the unbiased spread of the pair means over their
    count, summed over the sampled cells and divided by (L^2)^2; pair p in cell p mod B."""
    n, cells, dealt = strata.samples, strata.side**2, len(strata.count)
    pairs = (n + 1) // 2
    mirrors = n - pairs
    pair_means = scores[:pairs].astype(float)
    pair_means[:mirrors] = (pair_means[:mirrors] + scores[pairs:]) / 2.0
    cell = np.arange(pairs) % dealt
    count = np.bincount(cell, minlength=dealt)
    means = np.bincount(cell, pair_means, minlength=dealt) / count
    squares = np.bincount(cell, (pair_means - means[cell]) ** 2, minlength=dealt)
    spread = np.where(count > 1, squares / np.maximum(count - 1, 1) / count, 0.0)
    return means.sum() / cells, spread.sum() / cells**2


def _fits(system: BallSystem, lo: np.ndarray, size: np.ndarray, side: int, pairs: int) -> bool:
    """Whether the B column cells that are not exterior at side L get two pairs each: 2 B <= pairs."""
    return 2 * np.count_nonzero(~_exterior(system, lo, size, side)) <= pairs


def assert_column_rule(system: BallSystem, n: int) -> None:
    """L is the largest side whose B sampled column cells get two pairs each, 2 B <= ceil(n / 2), or 1."""
    lo, size = _sampling_box(system.centers)
    side, pairs = _strata(system, lo, size, n).side, (n + 1) // 2
    assert side == 1 or _fits(system, lo, size, side, pairs)
    assert not _fits(system, lo, size, side + 1, pairs)


@pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 31, 32, 1001, 3392, 3395, 8192, 65536])
def test_each_sample_lies_in_its_own_cell(tetra_system, n):
    # its column cell is the sampled cell its pair is dealt to, the pairs dealt to them in turn
    lo, size = _sampling_box(tetra_system.centers)
    strata = _strata(tetra_system, lo, size, n)
    side = strata.side
    assert_column_rule(tetra_system, n)
    sampled = np.flatnonzero(~_exterior(tetra_system, lo, size, side))
    pairs = (n + 1) // 2
    cell = sampled[np.arange(pairs) % len(sampled)]
    v = strata.place(_stream(5, 0).random((2, pairs)))
    assert v.shape == (2, n)
    corner = np.floor(v[:, :pairs]).astype(int)
    assert ((corner >= 0) & (corner < side)).all()
    assert np.array_equal(corner[0] * side + corner[1], cell)
    # each pair's second sample mirrors its first through their cell's center; an odd n's last has none
    mirrors = n - pairs
    assert mirrors == pairs - n % 2
    assert np.abs(v[:, :mirrors] + v[:, pairs:] - (2.0 * corner[:, :mirrors] + 1.0)).max(initial=0.0) <= 1e-12
    # placed in the box as `_scores` places them, every sample lies in its cell's closed rectangle as
    # `_exterior` draws the edges
    step = size[:2] / side
    xy = v * step[:, None]
    xy += lo[:2, None]
    edges = lo[:2, None] + step[:, None] * np.arange(side + 1.0)
    i, j = np.concatenate((corner, corner[:, :mirrors]), axis=1)
    assert ((edges[0][i] <= xy[0]) & (xy[0] <= edges[0][i + 1])).all()
    assert ((edges[1][j] <= xy[1]) & (xy[1] <= edges[1][j + 1])).all()
    # the sampled cells share the pairs evenly, two or more each once n >= 4
    assert np.array_equal(strata.count, np.bincount(np.arange(pairs) % len(sampled)))
    assert set(strata.count.tolist()) <= {pairs // len(sampled), pairs // len(sampled) + 1}
    assert n < 4 or strata.count.min() >= 2
    scores = _scores_like_a_chunk(_stream(6, 0), n, 0.4)
    frac, var = strata.estimate(scores)
    ref_frac, ref_var = reference_estimate(strata, scores)
    assert frac == pytest.approx(ref_frac, rel=1e-12)
    assert var == pytest.approx(ref_var, rel=1e-12, abs=1e-300)


def _scores_like_a_chunk(rng, n: int, rate: float) -> np.ndarray:
    """n scores in [0, 1]: a share rate of them a whole column's 1, the rest 0 or a fraction, half each."""
    u, share = rng.random(n), rng.random(n)
    return np.where(u < rate, 1.0, np.where(u < (1.0 + rate) / 2.0, 0.0, share))


@pytest.mark.parametrize("rate", [0.5, 0.95, 1.0])
def test_the_estimate_sums_many_pairs_per_cell(rate):
    # three sampled cells of nine share 501 pairs, 167 each; at rate 1 every score is 1, and the
    # cells' spread is 0 exactly
    strata = _Strata.deal(3, 1001, np.array([0, 5, 6]))
    assert strata.count.min() >= 64
    scores = _scores_like_a_chunk(_stream(7, 0), 1001, rate)
    frac, var = strata.estimate(scores)
    ref_frac, ref_var = reference_estimate(strata, scores)
    assert (var == 0.0) == (rate == 1.0)
    assert frac == pytest.approx(ref_frac, rel=1e-12)
    assert var == pytest.approx(ref_var, rel=1e-12, abs=1e-300)


def _cell_columns(lo: np.ndarray, size: np.ndarray, side: int, cells: np.ndarray, rng) -> np.ndarray:
    """Each column cell's 4 corners, then 4 uniform columns per cell, placed by `mc_volume`'s expression: (2, 8 cells)."""
    corner = np.stack(np.divmod(cells, side)).astype(float)
    offsets = np.concatenate((np.array(list(np.ndindex(2, 2)), dtype=float).T, rng.random((2, 4))), axis=1)
    v = (corner[:, None, :] + offsets[:, :, None]).reshape(2, -1)
    return lo[:2, None] + (size[:2] / side)[:, None] * v


def _near_the_rim(system: BallSystem, rng, count: int) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """Small rectangles (lo, size, side) around the columns with the shortest chords of 4096 random ones,
    where the body's silhouette runs, so that some of their fine cells are exterior and some are not."""
    lo, size = _sampling_box(system.centers)
    x, y = lo[:2, None] + size[:2, None] * rng.random((2, 4096))
    low, high = _chords(system, x, y)
    length = np.where(high > low, high - low, np.inf)
    boxes = []
    for i in np.argsort(length)[:count]:
        side = size * 10.0 ** rng.uniform(-6.0, -2.0)
        boxes.append((np.array([x[i], y[i], lo[2]]) - side * rng.random(3), side, int(rng.integers(1, 40))))
    return boxes


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.builds(
            lambda k, seed: BallSystem.from_meissner(build_meissner(random_feasible_pyramid(k, seed))),
            st.integers(1, 5), st.integers(0, 10_000),
        ),
        st.builds(
            lambda seed: BallSystem.from_meissner(build_meissner(validate_vertex_set(noisy_tetrahedron(seed), tol=1e-5))),
            st.integers(0, 10_000),
        ),
        st.builds(lambda k, seed: BallSystem.from_points(random_feasible_pyramid(k, seed).points),
                  st.integers(1, 5), st.integers(0, 10_000)),
        st.just(BallSystem.from_points(regular_tetrahedron().points)),
        st.just(BallSystem.from_points(np.array([[0.3, -1.0, 2.0]]))),
    ),
    st.integers(0, 2**32 - 1),
)
def test_exterior_cells_hold_no_inside_point(system, seed):
    # the sampling box at a random side, and small rectangles across the silhouette: every column of an
    # exterior cell, its corners included, has an empty chord and no point that `_inside` accepts on a
    # 16-point grid over the box's heights, while the other cells hold columns with chords
    rng = np.random.default_rng(seed)
    box_lo, box_size = _sampling_box(system.centers)
    heights = box_lo[2] + box_size[2] * np.linspace(0.0, 1.0, 16)
    sampled_chords = 0
    for lo, size, side in [(box_lo, box_size, int(rng.integers(1, 60)))] + _near_the_rim(system, rng, 3):
        exterior = _exterior(system, lo, size, side)
        x, y = _cell_columns(lo, size, side, np.flatnonzero(exterior), rng)
        low, high = _chords(system, x, y)
        assert not (high > low).any()
        pts = np.stack(np.broadcast_arrays(x[:, None], y[:, None], heights), axis=-1).reshape(-1, 3)
        assert not _inside(system, pts).any()
        low, high = _chords(system, *_cell_columns(lo, size, side, np.flatnonzero(~exterior), rng))
        sampled_chords += np.count_nonzero(high > low)
    assert sampled_chords


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.builds(
            lambda k, seed: BallSystem.from_meissner(build_meissner(random_feasible_pyramid(k, seed))),
            st.integers(1, 5), st.integers(0, 10_000),
        ),
        st.builds(
            lambda seed: BallSystem.from_meissner(build_meissner(validate_vertex_set(noisy_tetrahedron(seed), tol=1e-5))),
            st.integers(0, 10_000),
        ),
        st.builds(lambda k, seed: BallSystem.from_points(random_feasible_pyramid(k, seed).points),
                  st.integers(1, 5), st.integers(0, 10_000)),
    ),
    st.integers(1, 3 * CHUNK),
)
def test_every_chunk_size_takes_the_finest_side_the_rule_allows(system, samples):
    # the full chunks and the last one, which `mc_volume` sorts separately
    for n in {min(CHUNK, samples), samples - (samples - 1) // CHUNK * CHUNK}:
        assert_column_rule(system, n)


@pytest.mark.parametrize("samples", [1 << 13, CHUNK])
def test_the_side_search_classifies_at_most_three_sides(tetra_poly, pyr2_poly, pyr3_poly, samples, monkeypatch):
    # the first classification, at sqrt(ceil(n / 2) / 2), predicts the side from B growing as L^2; the
    # search then steps down from one past the prediction, where these bodies stop at once or a step later
    calls = []

    def counted(system, lo, size, side):
        calls.append(side)
        return _exterior(system, lo, size, side)

    monkeypatch.setattr(montecarlo, "_exterior", counted)
    for poly in (tetra_poly, pyr2_poly, pyr3_poly):
        calls.clear()
        mc_volume(BallSystem.from_meissner(poly), samples, seed=0)
        assert 2 <= len(calls) <= 3
        assert calls[0] == math.isqrt((samples + 1) // 2 // 2)
        assert calls[1:] == sorted(calls[1:], reverse=True) and min(calls[1:]) > calls[0]


def _flat_arc_system(sweep: float) -> BallSystem:
    """One arc in the plane z = 0, so both of its wedge's bounding planes are vertical, and its two ends."""
    arc = Arc(np.zeros((1, 3)), np.array([0.5]), np.eye(3)[:1], np.eye(3)[1:2], np.array([sweep]))
    return BallSystem(arc.point(np.array([[0.0, sweep]]))[0], arc)


_LATTICE_SYSTEMS = pytest.mark.parametrize(
    "system",
    [
        pytest.param(BallSystem.from_meissner(build_meissner(regular_tetrahedron())), id="tetra"),
        pytest.param(BallSystem.from_meissner(build_meissner(random_feasible_pyramid(5, 0))), id="pyramid-5"),
        pytest.param(BallSystem.from_meissner(build_meissner(validate_vertex_set(noisy_tetrahedron(3), tol=1e-5))), id="noisy"),
        pytest.param(_flat_arc_system(math.pi / 3.0), id="flat-arc"),
        pytest.param(_flat_arc_system(math.pi), id="flat-half-turn"),
    ],
)


@_LATTICE_SYSTEMS
@pytest.mark.parametrize("side", [5, 19, 39])
def test_interior_cells_are_those_whose_corners_pass_inside(system, side):
    # a cell of the box's L^3 lattice lies in the body when its 8 corners do, the body being convex.  The
    # chords of the (L + 1)^2 corner columns, read at the lattice heights, hold every corner that `_inside`
    # keeps 1e-9 inward and none that it drops 1e-9 outward, so they find the interior cells that
    # `_inside` finds; no interior cell lies under an exterior column cell
    lo, size = _sampling_box(system.centers)
    edges = lo[:, None] + (size / side)[:, None] * np.arange(side + 1.0)
    x, y = (a.ravel() for a in np.meshgrid(edges[0], edges[1], indexing="ij"))
    low, high = _chords(system, x, y)
    held = ((low[:, None] <= edges[2]) & (edges[2] <= high[:, None])).ravel()
    corners = np.stack(np.meshgrid(*edges, indexing="ij"), axis=-1).reshape(-1, 3)
    inner, outer = _inside(system, corners, slack=-1e-9), _inside(system, corners, slack=1e-9)
    assert not (inner & ~held).any() and not (held & ~outer).any()

    def interior(ok: np.ndarray) -> np.ndarray:
        ok = ok.reshape((side + 1,) * 3)
        ok = ok[:-1] & ok[1:]
        ok = ok[:, :-1] & ok[:, 1:]
        return ok[:, :, :-1] & ok[:, :, 1:]

    cells = interior(held)
    assert interior(inner).any() and np.array_equal(cells, interior(_inside(system, corners)))
    assert not (_exterior(system, lo, size, side) & cells.any(axis=2).ravel()).any()


@_LATTICE_SYSTEMS
@pytest.mark.parametrize("side", [5, 19, 39])
def test_exterior_cells_match_the_per_center_reference(system, side):
    # one cell and one center at a time in Python floats: the point of the cell nearest the center, the
    # ball's span over it at 1 + margin, and whether the spans share a point
    lo, size = _sampling_box(system.centers)
    edges = (lo[:2, None] + (size[:2] / side)[:, None] * np.arange(side + 1.0)).tolist()
    bound = (1.0 + _CELL_MARGIN) ** 2
    reference = []
    for i in range(side):
        for j in range(side):
            low, high = -math.inf, math.inf
            for cx, cy, cz in system.centers.tolist():
                dx = max(edges[0][i] - cx, cx - edges[0][i + 1], 0.0)
                dy = max(edges[1][j] - cy, cy - edges[1][j + 1], 0.0)
                rest = bound - dx * dx - dy * dy
                if rest < 0.0:
                    low, high = math.inf, -math.inf
                    break
                low, high = max(low, cz - math.sqrt(rest)), min(high, cz + math.sqrt(rest))
            reference.append(not low <= high)
    exterior = _exterior(system, lo, size, side)
    assert not exterior.all() and (side < 19 or exterior.any())
    assert exterior.tolist() == reference


def _reference_segments(system: BallSystem, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column, one center at a time in Python floats: every point ball's z span over (x, y) clipped to the
    others as [a, b], a > b when empty."""
    rows = []
    for xk, yk in zip(x.tolist(), y.tolist()):
        a, b = -math.inf, math.inf
        for cx, cy, cz in system.centers.tolist():
            dx, dy = xk - cx, yk - cy
            rest = 1.0 - (dx * dx + dy * dy)
            if rest < 0.0:
                a, b = math.inf, -math.inf
                break
            reach = math.sqrt(rest)
            a, b = max(a, cz - reach), min(b, cz + reach)
        rows.append((a, b))
    return np.array(rows).T


_SPAN_SYSTEMS = [
    *(BallSystem.from_meissner(build_meissner(random_feasible_pyramid(k, s))) for k, s in ((1, 0), (3, 7), (5, 2))),
    *(BallSystem.from_meissner(build_meissner(validate_vertex_set(noisy_tetrahedron(s), tol=1e-5))) for s in (3, 5)),
    *(BallSystem.from_points(random_feasible_pyramid(k, 4).points) for k in (2, 4)),
    BallSystem.from_points(np.array([[0.3, -1.0, 2.0]])),
]


@pytest.mark.parametrize("system", _SPAN_SYSTEMS, ids=["pyr1", "pyr3", "pyr5", "noisy3", "noisy5", "points2", "points4", "ball"])
@pytest.mark.parametrize("n", [1001, 4096])
def test_scored_spans_match_the_per_center_reference(system, n):
    # the samples of a chunk of n: the point balls' segment on each one's z line, the chord the arcs leave
    # of it, and its score.  Inside the segment every point ball holds the line's points, outside it one
    # misses them, both up to the rounding of the square roots
    rng = np.random.default_rng(n)
    lo, size = _sampling_box(system.centers)
    strata = _strata(system, lo, size, n)
    x, y = strata.place(_stream(3, 0).random((2, strata.corners.shape[1]))) * (size[:2] / strata.side)[:, None] + lo[:2, None]
    a, b = _reference_segments(system, x, y)
    points = BallSystem.from_points(system.centers)
    low, high = _chords(points, x, y)
    rows = np.flatnonzero(b > a)
    assert 0 < len(rows) < n
    assert np.array_equal(np.flatnonzero(high > low), rows)
    assert np.array_equal(low[rows], a[rows]) and np.array_equal(high[rows], b[rows])
    # the arcs only cut the segment, and the scores are the chords over the box's height
    chord_low, chord_high = _chords(system, x, y)
    kept = np.flatnonzero(chord_high > chord_low)
    assert np.isin(kept, rows).all()
    assert (chord_low[kept] >= a[kept]).all() and (chord_high[kept] <= b[kept]).all()
    hits, scores = _scores(system, strata, lo, size, _stream(3, 0))
    assert hits == len(kept)
    expected = np.zeros(n)
    expected[kept] = (chord_high - chord_low)[kept] / size[2]
    assert np.array_equal(scores, expected)
    width = (b - a)[rows]
    inner = np.stack((x[rows], y[rows], a[rows] + rng.random(len(rows)) * width), axis=1)
    assert reference_inside(points, inner, 1e-12).all()
    # points of the box's height below a or above b, and the whole height where the segment is empty
    z0, z1 = lo[2], lo[2] + size[2]
    empty = ~(b > a)
    a, b = np.where(empty, z1, a), np.where(empty, z1, b)
    below, above = a - z0, z1 - b
    u = rng.random(n) * (below + above)
    outer = np.stack((x, y, np.where(u < below, z0 + u, b + (u - below))), axis=1)[below + above > 0.0]
    assert len(outer) and not reference_inside(points, outer, -1e-12).any()


_CHORD_STEP = 1e-9


def _assert_chords_agree_with_inside(system: BallSystem, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each chord end passes `_inside` _CHORD_STEP inward and fails as far outward, on chords over 1e-6 long,
    whose every end ball reaches well over the rounding of a squared distance; an empty chord holds no inside
    point on a 50-point grid over the box's heights."""
    low, high = _chords(system, x, y)
    long = np.flatnonzero(high - low > 1e-6)
    for end, inward in ((low, _CHORD_STEP), (high, -_CHORD_STEP)):
        assert _inside(system, np.stack((x[long], y[long], end[long] + inward), axis=1)).all()
        assert not _inside(system, np.stack((x[long], y[long], end[long] - inward), axis=1)).any()
    empty = np.flatnonzero(~(high > low))
    lo, size = _sampling_box(system.centers)
    heights = lo[2] + size[2] * np.linspace(0.0, 1.0, 50)
    grid = np.stack(np.broadcast_arrays(x[empty, None], y[empty, None], heights), axis=-1).reshape(-1, 3)
    assert not _inside(system, grid).any()
    return low, high


_CHORD_BODIES = [regular_tetrahedron()] + [regular_pyramid(k) for k in range(2, 6)]


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.sampled_from(_CHORD_BODIES).map(lambda vs: BallSystem.from_meissner(build_meissner(vs))),
        st.builds(
            lambda k, seed: BallSystem.from_meissner(build_meissner(random_feasible_pyramid(k, seed))),
            st.integers(1, 5), st.integers(0, 10_000),
        ),
        st.builds(
            lambda seed: BallSystem.from_meissner(build_meissner(validate_vertex_set(noisy_tetrahedron(seed), tol=1e-5))),
            st.integers(0, 10_000),
        ),
        st.builds(lambda k, seed: BallSystem.from_points(random_feasible_pyramid(k, seed).points),
                  st.integers(1, 5), st.integers(0, 10_000)),
        st.just(BallSystem.from_points(np.array([[0.3, -1.0, 2.0]]))),
    ),
    st.integers(0, 2**32 - 1),
)
def test_chord_ends_are_where_inside_changes(system, seed):
    # columns uniform over the box's rectangle; points-only systems and a single ball have no arc and
    # no cut.  The arcs cut some chords of every smoothed body
    rng = np.random.default_rng(seed)
    lo, size = _sampling_box(system.centers)
    x, y = lo[:2, None] + size[:2, None] * rng.random((2, 3000))
    low, high = _assert_chords_agree_with_inside(system, x, y)
    segment_low, segment_high = _chords(BallSystem.from_points(system.centers), x, y)
    cut = (low > segment_low) | (high < segment_high) | ((segment_high > segment_low) & ~(high > low))
    assert cut.any() == bool(system.arcs)


def test_flat_arc_chords_match_the_closed_form():
    # both wedge planes of an arc in the plane z = 0 are parallel to the lines, so a line in the wedge
    # lies in it whole, and there G = (rho + r)^2 + z^2: the arc keeps |z| <= sqrt(1 - (rho + r)^2), and
    # cuts the whole chord where rho + r > 1.  Off the wedge it cuts nothing
    system = _flat_arc_system(math.pi / 3.0)
    rng = np.random.default_rng(2)
    angle = math.pi + math.pi / 3.0 * rng.random(4000)
    rho = 0.6 * rng.random(4000)
    x, y = rho * np.cos(angle), rho * np.sin(angle)
    low, high = _assert_chords_agree_with_inside(system, x, y)
    a, b = _chords(BallSystem.from_points(system.centers), x, y)
    reach = np.sqrt(np.maximum(1.0 - (rho + 0.5) ** 2, 0.0))
    keep = (rho + 0.5 < 1.0) & (reach < b)
    assert keep.any() and (~keep & (b > a)).any()
    assert np.abs(low[keep] + reach[keep]).max() <= 1e-12 and np.abs(high[keep] - reach[keep]).max() <= 1e-12
    # the arc cuts its whole wedge part: lines past rho = 0.5 whose segment is not empty have no chord
    whole = (rho + 0.5 > 1.0) & (b > a)
    assert whole.any() and not (high[whole] > low[whole]).any()
    off = np.array([0.1, -0.1, 0.3]), np.array([0.2, 0.05, 0.1])
    assert np.array_equal(np.stack(_chords(system, *off)), np.stack(_chords(BallSystem.from_points(system.centers), *off)))


def test_a_line_on_a_circle_axis_keeps_its_segment():
    # the line through the flat arc's center runs along its circle's axis, rho = 0: its far distance
    # there is its ends', as much as the point balls allow, so the arc cuts nothing
    system = _flat_arc_system(math.pi / 3.0)
    x, y = np.zeros(1), np.zeros(1)
    low, high = _assert_chords_agree_with_inside(system, x, y)
    assert low[0] == pytest.approx(-math.sqrt(0.75), abs=1e-15) and high[0] == pytest.approx(math.sqrt(0.75), abs=1e-15)


def test_newton_steps_along_and_across_a_circle_axis():
    # three cuts up from z0 = -0.5 on circles of radius r about the x axis: one along the axis (rho = 0
    # throughout, S = 0), and two across it at height h, where rho = |z| passes 0 at t = 0.5.  Along the
    # axis G = z^2 + r^2; across it G = (|z| + r)^2 + h^2, so the cut at h = 0.3 stops at
    # |z| = sqrt(1 - h^2) - r, and at h = 0.5, where G > 1 on the axis too, runs on to the far side
    z0, far = -0.5, 1.0
    r, h = np.array([0.9, 0.9, 0.9]), np.array([0.0, 0.3, 0.5])
    along = np.array([0.0, 1.0, 1.0])
    params = np.stack((
        along * z0, along, along * z0 * z0, np.full(3, 2.0 * z0), h * h + z0 * z0 + r * r - 1.0, 2.0 * r, np.full(3, far),
    ))
    t = _newton(params)
    assert t[0] == pytest.approx(-z0 - math.sqrt(1.0 - 0.81), abs=1e-12)
    assert t[1] == pytest.approx(-z0 - (math.sqrt(1.0 - 0.09) - 0.9), abs=1e-12)
    assert t[2] == far


def _two_arc_system(arcs: list[int]) -> BallSystem:
    """Two arcs of radius 0.5 about the z axis, one in the plane z = 0 over angles [0, pi/3], one in the
    plane z = 0.05 over [pi/6, pi/2], with the ends of both as point centers; `arcs` picks which arcs
    the system keeps."""
    start = np.array([0.0, math.pi / 6.0])
    u = np.stack((np.cos(start), np.sin(start), np.zeros(2)), axis=1)
    v = np.stack((-np.sin(start), np.cos(start), np.zeros(2)), axis=1)
    both = Arc(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.05]]), np.full(2, 0.5), u, v, np.full(2, math.pi / 3.0))
    centers = both.point(np.array([[0.0, math.pi / 3.0]] * 2)).reshape(-1, 3)
    return BallSystem(centers, Arc(*(field[arcs] for field in (both.center, both.radius, both.u, both.v, both.sweep))))


def test_two_arcs_cutting_the_same_chord_end():
    # lines in both arcs' wedges, angles [7 pi/6, 4 pi/3]: on some of them both arcs cut the low end, the
    # raised arc deeper, and together the chord is the tighter of the two cuts at each end
    rng = np.random.default_rng(4)
    angle = 7.0 * math.pi / 6.0 + math.pi / 6.0 * rng.random(500)
    rho = 0.4 * rng.random(500)
    x, y = rho * np.cos(angle), rho * np.sin(angle)
    both = _assert_chords_agree_with_inside(_two_arc_system([0, 1]), x, y)
    a, b = _chords(BallSystem.from_points(_two_arc_system([]).centers), x, y)
    first, second = (_chords(_two_arc_system([k]), x, y) for k in (0, 1))
    assert ((first[0] > a) & (second[0] > first[0])).any()
    assert np.array_equal(both[0], np.maximum(first[0], second[0]))
    assert np.array_equal(both[1], np.minimum(first[1], second[1]))


def test_newton_raises_at_its_step_cap(tetra_system, monkeypatch):
    # the tetrahedron's cuts take three steps or more; at a cap of one Newton raises rather than returns
    # a chord end it has not found
    monkeypatch.setattr(montecarlo, "_NEWTON_STEPS", 1)
    with pytest.raises(GeometryError, match="Newton"):
        mc_volume(tetra_system, 1 << 13, seed=0)


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        st.just(regular_tetrahedron()),
        st.builds(random_feasible_pyramid, st.integers(1, 5), st.integers(0, 10_000)),
        st.builds(lambda seed: validate_vertex_set(noisy_tetrahedron(seed), tol=1e-5), st.integers(0, 10_000)),
    ),
    st.integers(0, 2**32 - 1),
)
def test_the_arc_kernel_is_inside_on_rows_in_every_point_ball(vs, seed):
    # `_inside` tests the point balls and hands the rows in all of them to `_arc_survivors`, its arc
    # half, which screens `support`'s candidates
    system = BallSystem.from_meissner(build_meissner(vs))
    rng = np.random.default_rng(seed)
    lo, size = _sampling_box(system.centers)
    shape = (len(system.arcs), 32)
    near = near_far_sphere(system.arcs, system.arcs.sweep[:, None] * rng.random(shape), 1.0 + rng.uniform(-1e-3, 1e-3, shape), rng.uniform(-0.9, 0.9, shape))
    pts = np.concatenate((lo + size * rng.random((4096, 3)), near))
    for slack in (0.0, _SUPPORT_SLACK):
        rows = np.flatnonzero(_inside(BallSystem.from_points(system.centers), pts, slack=slack))
        kernel = np.zeros(len(rows), dtype=bool)
        kernel[_arc_survivors(system.arcs, *pts[rows].T.copy(), (1.0 + slack) ** 2)] = True
        inside = _inside(system, pts, slack=slack)
        assert not inside[np.setdiff1d(np.arange(len(pts)), rows)].any()
        assert np.array_equal(kernel, inside[rows])
        assert kernel.any() and not kernel.all()


@pytest.mark.parametrize("samples", [1, 2, 3])
def test_a_few_samples_give_a_finite_estimate(tetra_system, samples):
    result = mc_volume(tetra_system, samples, seed=0)
    assert math.isfinite(result.volume) and math.isfinite(result.std_error)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_strata_halve_the_standard_error_of_plain_sampling(k):
    # plain sampling's error at the body's share of the box; the sorted columns and exact chords cut it
    # to under a two-hundredth
    poly = build_meissner(random_feasible_pyramid(k, 0))
    system = BallSystem.from_meissner(poly)
    result = mc_volume(system, 1 << 16, seed=0)
    region = float(np.prod(_sampling_box(system.centers)[1]))
    p = meissner_volume(poly) / region
    assert result.std_error <= 0.5 * region * math.sqrt(p * (1.0 - p) / result.samples)


def test_arcs_only_shrink_the_body(tetra_system, reuleaux_system):
    # the same centers: each point of the smoothed body is a point of the unsmoothed one, and its
    # volume is no larger, to within the two estimates' combined error
    lo, size = _sampling_box(tetra_system.centers)
    pts = lo + size * _stream(19).random((100_000, 3))
    smoothed, plain = _inside(tetra_system, pts), _inside(reuleaux_system, pts)
    assert smoothed.any() and (plain & ~smoothed).any()
    assert not (smoothed & ~plain).any()
    smoothed = mc_volume(tetra_system, 100_000, seed=19)
    plain = mc_volume(reuleaux_system, 100_000, seed=19)
    assert smoothed.volume <= plain.volume + 3.0 * math.hypot(smoothed.std_error, plain.std_error)


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


def test_a_box_whose_cells_each_miss_a_ball_draws_no_sample():
    # every two of these balls meet and their lens box is not empty, yet the four share no point: at
    # 2^13, 2^16 and 1001 samples no z line of any column cell meets all four and the chunk draws
    # nothing, while at 11 and 3 a few coarse cells touch all four and share every pair, none of which hits
    centers = np.array([[-1.091, 0.223, 0.773], [0.839, 0.334, 0.558], [-0.166, -0.561, -0.26], [-0.622, -0.545, 0.037]])
    system = BallSystem.from_points(centers)
    with pytest.raises(NoIntersection):
        support(system, np.eye(3))
    lo, size = _sampling_box(centers)
    assert len(_strata(system, lo, size, CHUNK).count) == len(_strata(system, lo, size, 1 << 13).count) == 0
    assert len(_strata(system, lo, size, 1001).count) == 0
    assert len(_strata(system, lo, size, 11).count) > 0 and len(_strata(system, lo, size, 3).count) > 0
    for samples in (CHUNK, 1 << 13, 1001, CHUNK + 1001, 11, 3):
        result = mc_volume(system, samples, seed=1)
        assert (result.volume, result.std_error, result.hits) == (0.0, 0.0, 0)


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


@pytest.mark.parametrize("k, samples", [(1, 1 << 13), (3, 1 << 13), (5, 1 << 13), (3, 1001), (3, CHUNK + 1001)])
def test_estimates_center_on_the_closed_form_with_honest_errors(k, samples):
    # over 200 seeds, 100 for the two chunks of the last size, whose cells are sorted per chunk size:
    # the mean estimate within 4 sigma of the closed form, and the estimates' spread matching the
    # mean reported standard error.
    # 2^13 and the full chunk of CHUNK + 1001 take 50-52 and 143-150 column cells a side, 1001 takes 16-17
    poly = build_meissner(random_feasible_pyramid(k, 11))
    system = BallSystem.from_meissner(poly)
    results = [mc_volume(system, samples, seed=seed) for seed in range(200 if samples <= CHUNK else 100)]
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
