"""Diameter graphs, dual pairs, smoothings, and closed-form areas."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meissner import (
    ValidationError,
    CoincidentPoints,
    DiameterViolation,
    FaceCycleError,
    GeometryError,
    NotExtremal,
    SmoothingChoice,
    TooManyPairs,
    WrongPairCount,
    build_diameter_graph,
    build_meissner,
    direction_sphere_partition,
    enumerate_smoothings,
    find_dual_pairs,
    meissner_area,
    meissner_volume,
    optimal_smoothing,
    optimize_pyramid,
    random_feasible_pyramid,
    regular_pyramid,
    regular_tetrahedron,
    reuleaux_area,
    surface_decomposition,
    tessellate,
    tessellate_reuleaux,
    validate_vertex_set,
)
from meissner import polytope
from meissner.cli import main
from meissner.polytope import _ARC_PLANE_SLACK_PER_TOL, _NORM_FLOOR, _arc_survivors, _by_vertex, _cross, _edge_arc
from meissner.sphere import dihedral_angle, f_pair

from conftest import (
    ACOS_THIRD,
    FACE_TRIANGLE_AREA,
    PI3,
    PYR2_AREA,
    PYR2_VOLUME,
    PYR3_AREA,
    PYR3_VOLUME,
    PYR4_AREA,
    REULEAUX_TETRA_AREA,
    TETRA_AREA,
    TETRA_VOLUME,
    doubled_point_set,
    noisy_tetrahedron,
    triangle_center_set,
)


def test_tetrahedron_validates(tetra_vs):
    assert tetra_vs.m == 4
    assert tetra_vs.diameter_count == 6
    assert tetra_vs.max_distance == pytest.approx(1.0, abs=1e-12)


def test_tetrahedron_graph_and_pairs(tetra_vs, tetra_pairs):
    graph = build_diameter_graph(tetra_vs)
    assert len(graph.edges) == 6
    assert np.bincount(np.ravel(graph.edges)).tolist() == [3, 3, 3, 3]
    assert len(tetra_pairs) == 3
    for pair in tetra_pairs:
        assert pair.lengths.theta == pytest.approx(PI3, abs=1e-12)
        assert pair.lengths.theta_dual == pytest.approx(PI3, abs=1e-12)
        assert pair.phi == pytest.approx(ACOS_THIRD, abs=1e-12)


def test_pair_count_is_m_minus_one(tetra_vs, pyr2_vs, pyr3_vs):
    for vs in (tetra_vs, pyr2_vs, pyr3_vs):
        pairs = find_dual_pairs(build_diameter_graph(vs), vs)
        assert len(pairs) == vs.m - 1


def test_tetrahedron_closed_forms(tetra_poly):
    assert meissner_area(tetra_poly) == pytest.approx(TETRA_AREA, abs=1e-12)
    assert meissner_volume(tetra_poly) == pytest.approx(TETRA_VOLUME, abs=1e-12)
    analytic = 2.0 * math.pi - (math.sqrt(3.0) / 2.0) * math.pi * math.acos(1.0 / 3.0)
    assert meissner_area(tetra_poly) == pytest.approx(analytic, abs=1e-12)


def test_pyramid_closed_forms(pyr2_poly, pyr3_poly):
    assert meissner_area(pyr2_poly) == pytest.approx(PYR2_AREA, abs=1e-12)
    assert meissner_volume(pyr2_poly) == pytest.approx(PYR2_VOLUME, abs=1e-12)
    assert meissner_area(pyr3_poly) == pytest.approx(PYR3_AREA, abs=1e-12)
    assert meissner_volume(pyr3_poly) == pytest.approx(PYR3_VOLUME, abs=1e-12)


def test_pyramid_k4_closed_form():
    from meissner import regular_pyramid

    poly = build_meissner(regular_pyramid(4))
    assert meissner_area(poly) == pytest.approx(PYR4_AREA, abs=1e-12)


def test_surface_decomposition(tetra_poly):
    dec = surface_decomposition(tetra_poly)
    kinds = Counter(p.kind for p in dec.patches)
    assert kinds == {"face": 4, "wedge": 3, "spindle": 3}
    assert abs(dec.total - meissner_area(tetra_poly)) < 1e-12
    faces = [p.area for p in dec.patches if p.kind == "face"]
    for area in faces:
        assert area == pytest.approx(FACE_TRIANGLE_AREA, abs=1e-12)


def test_decomposition_matches_area_for_pyramids(pyr2_poly, pyr3_poly):
    for poly in (pyr2_poly, pyr3_poly):
        dec = surface_decomposition(poly)
        assert abs(dec.total - meissner_area(poly)) < 1e-9


def test_direction_sphere_partition(tetra_poly, pyr2_poly, pyr3_poly):
    for poly in (tetra_poly, pyr2_poly, pyr3_poly):
        assert abs(direction_sphere_partition(poly) - 2.0 * math.pi) < 1e-12


def test_enumerate_smoothings_tetrahedron(tetra_vs, tetra_pairs):
    table = enumerate_smoothings(tetra_vs, tetra_pairs)
    assert len(table) == 8
    # every tetrahedron edge has the same arc, so all choices tie
    areas = [area for _, area in table]
    assert max(areas) - min(areas) < 1e-12
    assert areas[0] == pytest.approx(TETRA_AREA, abs=1e-12)


def test_optimal_smoothing_is_argmin(pyr2_vs):
    pairs = find_dual_pairs(build_diameter_graph(pyr2_vs), pyr2_vs)
    table = enumerate_smoothings(pyr2_vs, pairs)
    best_choice, best_area = min(table, key=lambda row: row[1])
    assert optimal_smoothing(pairs).bits == best_choice.bits
    assert best_area == pytest.approx(PYR2_AREA, abs=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_smoothing_table_matches_each_built_body(k, seed):
    vs = random_feasible_pyramid(k, seed)
    pairs = find_dual_pairs(build_diameter_graph(vs), vs)
    for pair in pairs:
        assert pair.gain[True] == f_pair(pair.lengths)
        assert pair.gain[False] == f_pair(pair.lengths.swapped())
    table = enumerate_smoothings(vs, pairs)
    assert len(table) == 2 ** (vs.m - 1)
    for choice, area in table:
        assert area == meissner_area(build_meissner(vs, choice))


def _summed_area(pairs, bits) -> float:
    """The area rule written out: 2*pi less the fsum of the chosen gains, in pair order."""
    return 2.0 * math.pi - math.fsum(p.gain[b] for p, b in zip(pairs, bits))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_smoothing_table_at_twelve_points(seed):
    # m = 12, 2048 rows: every row's order and area, and the built body on a fixed spread of rows
    vs = random_feasible_pyramid(5, seed)
    pairs = find_dual_pairs(build_diameter_graph(vs), vs)
    table = enumerate_smoothings(vs, pairs)
    n = len(pairs)
    assert len(table) == 2**n == 2048
    for r, (choice, area) in enumerate(table):
        assert choice.bits == tuple(bool(r >> i & 1) for i in range(n))
        assert area == _summed_area(pairs, choice.bits)
    for r in sorted({*range(0, len(table), 97), len(table) - 1}):
        choice, area = table[r]
        assert area == meissner_area(build_meissner(vs, choice))


def test_enumerate_command_prints_the_summed_areas(tmp_path, capsys):
    path = str(tmp_path / "pyr3.txt")
    assert main(["gen", "pyramid:3", "--out", path]) == 0
    csv = tmp_path / "table.csv"
    assert main(["enumerate", path, "--csv", str(csv)]) == 0
    capsys.readouterr()
    pairs = build_meissner(regular_pyramid(3)).pairs
    rows = [tuple(bool(r >> i & 1) for i in range(len(pairs))) for r in range(2 ** len(pairs))]
    expected = ["bits,area"] + [
        "".join("1" if b else "0" for b in bits) + f",{_summed_area(pairs, bits):.17g}" for bits in rows
    ]
    assert csv.read_text().splitlines() == expected


def test_flipping_any_bit_never_improves(pyr2_vs):
    pairs = find_dual_pairs(build_diameter_graph(pyr2_vs), pyr2_vs)
    choice = optimal_smoothing(pairs)
    base = meissner_area(build_meissner(pyr2_vs, choice))
    for i in range(len(pairs)):
        bits = tuple(not b if j == i else b for j, b in enumerate(choice.bits))
        flipped = meissner_area(build_meissner(pyr2_vs, SmoothingChoice(bits)))
        assert flipped >= base - 1e-12


def test_smoothing_choice_length_checked(tetra_vs):
    with pytest.raises(ValueError):
        build_meissner(tetra_vs, SmoothingChoice((True,)))


def test_reuleaux_area(tetra_vs, tetra_pairs):
    r = reuleaux_area(tetra_vs, tetra_pairs)
    assert r == pytest.approx(REULEAUX_TETRA_AREA, abs=1e-12)
    # keeping every wedge costs at least 0.04 over the best smoothing
    assert r - TETRA_AREA > 0.04


def test_reuleaux_dominates_every_smoothing(pyr2_vs):
    pairs = find_dual_pairs(build_diameter_graph(pyr2_vs), pyr2_vs)
    r = reuleaux_area(pyr2_vs, pairs)
    for _, area in enumerate_smoothings(pyr2_vs, pairs):
        assert r >= area - 1e-12


def test_retained_arc_geometry(tetra_poly, pyr2_vs):
    # every smoothing of the k=2 pyramid: bit 1 retains the pair's first edge and smooths its dual, bit 0 the reverse
    pyr2_pairs = find_dual_pairs(build_diameter_graph(pyr2_vs), pyr2_vs)
    polys = [tetra_poly] + [build_meissner(pyr2_vs, choice) for choice, _ in enumerate_smoothings(pyr2_vs, pyr2_pairs)]
    for poly in polys:
        pts = poly.vertices.points
        arcs = poly.retained_arcs()
        assert len(arcs) == len(poly.pairs)
        ends = arcs.point(np.stack((np.zeros_like(arcs.sweep), arcs.sweep), axis=1))
        inner = arcs.point(np.broadcast_to([0.0, 0.25, 0.5, 0.75, 1.0], (len(arcs), 5)))
        retained, smoothed = poly.oriented_edges()
        assert retained.shape == smoothed.shape == (len(poly.pairs), 2)
        for i, (pair, keep_first) in enumerate(zip(poly.pairs, poly.choice.bits)):
            e, es = (pair.edge, pair.edge_dual) if keep_first else (pair.edge_dual, pair.edge)
            assert (tuple(retained[i]), tuple(smoothed[i])) == (e, es)
            lengths = pair.lengths if keep_first else pair.lengths.swapped()
            assert arcs.radius[i] == pytest.approx(math.cos(lengths.theta_dual / 2), abs=1e-12)
            assert arcs.sweep[i] == pytest.approx(dihedral_angle(lengths.swapped()), abs=1e-12)
            # the arc runs from one end of the retained edge to the other
            a, b = ends[i]
            d_a = min(np.linalg.norm(a - pts[e[0]]), np.linalg.norm(a - pts[e[1]]))
            d_b = min(np.linalg.norm(b - pts[e[0]]), np.linalg.norm(b - pts[e[1]]))
            assert max(d_a, d_b) < 1e-12
            assert np.linalg.norm(a - b) > 0.1
            # every arc point stays at unit distance from the smoothed edge
            for p in inner[i]:
                assert np.linalg.norm(p - pts[es[0]]) == pytest.approx(1.0, abs=1e-12)
                assert np.linalg.norm(p - pts[es[1]]) == pytest.approx(1.0, abs=1e-12)


def pair_arcs(vs, pairs):
    """Both edge arcs of every pair in one batch: the edge's arc, then the dual edge's."""
    edge = np.array([p.edge for p in pairs])
    dual = np.array([p.edge_dual for p in pairs])
    ends = np.stack((edge, dual), axis=1).reshape(-1, 2)
    centers = np.stack((dual, edge), axis=1).reshape(-1, 2)
    pts = vs.points
    return ends, centers, _edge_arc(pts[ends[:, 0]], pts[ends[:, 1]], pts[centers[:, 0]], pts[centers[:, 1]], vs.tol)


def _reference_edge_arc(a, b, c1, c2, tol):
    """Center, radius, u, v and sweep of the arc from a to b around the axis c1 -> c2, one arc at a time."""
    center = (c1 + c2) / 2.0
    axis = c2 - c1
    axis_norm = float(np.linalg.norm(axis))
    if axis_norm < _NORM_FLOOR:
        raise GeometryError("coincident sphere centers give no circle")
    axis = axis / axis_norm
    ra = a - center
    if abs(float(ra @ axis)) > _ARC_PLANE_SLACK_PER_TOL * tol / axis_norm:
        raise GeometryError("arc endpoint off the circle plane")
    radial = ra - (ra @ axis) * axis
    radius = float(np.linalg.norm(radial))
    if radius < _NORM_FLOOR:
        raise GeometryError("arc endpoint on the circle axis")
    u = radial / radius
    v = np.cross(axis, u)
    rb = b - center
    t = math.atan2(float(rb @ v), float(rb @ u))
    if t < 0.0:
        v = -v
        t = -t
    return center, radius, u, v, t


ARC_BODIES = [
    ("tetra", regular_tetrahedron),
    *((f"pyramid{k}", lambda k=k: regular_pyramid(k)) for k in range(2, 6)),
    *((f"random{k}-{s}", lambda k=k, s=s: random_feasible_pyramid(k, s)) for k in range(1, 6) for s in range(3)),
]


@pytest.mark.parametrize("make", [make for _, make in ARC_BODIES], ids=[name for name, _ in ARC_BODIES])
def test_batched_arcs_match_the_per_arc_reference(make):
    vs = make()
    poly = build_meissner(vs)
    pts = vs.points
    ends, centers, arcs = pair_arcs(vs, poly.pairs)
    assert len(arcs) == 2 * (vs.m - 1)
    fields = (arcs.center, arcs.radius, arcs.u, arcs.v, arcs.sweep)
    for row, ((a, b), (c1, c2)) in enumerate(zip(ends, centers)):
        reference = _reference_edge_arc(pts[a], pts[b], pts[c1], pts[c2], vs.tol)
        for got, want in zip(fields, reference):
            assert np.abs(got[row] - want).max() <= 1e-15
    # the retained arcs are the rows of the retained orientation
    retained = poly.retained_arcs()
    rows = 2 * np.arange(len(poly.pairs)) + np.logical_not(poly.choice.bits)
    for got, want in zip((retained.center, retained.radius, retained.u, retained.v, retained.sweep), fields):
        assert np.array_equal(got, want[rows])


@settings(max_examples=40, deadline=None)
@given(st.builds(random_feasible_pyramid, st.integers(1, 5), st.integers(0, 10_000)))
@example(regular_tetrahedron())
@example(regular_pyramid(2))
@example(regular_pyramid(3))
@example(regular_pyramid(4))
@example(regular_pyramid(5))
def test_every_vertex_survives_both_arcs_of_every_pair(vs):
    # an exact pair rule keeps a 4-cycle candidate when every vertex lies in the balls around both of
    # its arcs, so on these bodies, whose candidates are all pairs, no vertex may fail.  The vertices
    # lie in every point ball within tol, so the arcs are tested at that slack: at slack 0 the
    # rounding of the arcs cuts a vertex on 171 of 205 such bodies tried, at 1e-12 on none
    _, _, arcs = pair_arcs(vs, find_dual_pairs(build_diameter_graph(vs), vs))
    survivors = _arc_survivors(arcs, *vs.points.T.copy(), (1.0 + vs.tol) ** 2)
    assert np.array_equal(survivors, np.arange(vs.m))


def face_cycles(vs):
    """Each vertex's face ring as a list of neighbors."""
    return _by_vertex(vs.faces.owner, vs.faces.ring)


def test_face_cycles(tetra_vs, pyr2_vs):
    assert sorted(len(c) for c in face_cycles(tetra_vs)) == [3, 3, 3, 3]
    graph2 = build_diameter_graph(pyr2_vs)
    cycles = sorted(len(c) for c in face_cycles(pyr2_vs))
    assert cycles == [3, 3, 3, 3, 3, 5]
    # Euler characteristic of the cell complex
    assert pyr2_vs.m - len(graph2.edges) + len(cycles) == 2


# face cycles of the regular pyramids, pinned: where a cycle starts sets the numbering of every mesh vertex
PINNED_FACE_CYCLES = {
    2: [[5, 1, 2, 3, 4], [3, 0, 4], [0, 5, 4], [1, 5, 0], [2, 1, 0], [2, 0, 3]],
    3: [[7, 1, 2, 3, 4, 5, 6], [4, 0, 5], [6, 5, 0], [7, 6, 0], [1, 7, 0], [2, 1, 0], [2, 0, 3], [4, 3, 0]],
}


@pytest.mark.parametrize("k", [2, 3])
def test_face_cycles_of_regular_pyramids_are_pinned(k):
    vs = regular_pyramid(k)
    assert face_cycles(vs) == PINNED_FACE_CYCLES[k]


def test_digon_vertex_is_rejected(tetra_vs):
    # arc insertion: a fifth point mid-arc on edge (0, 1), at distance one from 2 and 3, sees only those two
    pts = tetra_vs.points
    arc = _edge_arc(pts[:1], pts[1:2], pts[2:3], pts[3:4], tetra_vs.tol)
    vs5 = validate_vertex_set(np.vstack([pts, arc.point(arc.sweep[:, None] / 2)[0]]))
    assert vs5.diameter_count == 8
    with pytest.raises(FaceCycleError, match="vertex 4 has only 2 neighbors"):
        vs5.faces


@pytest.fixture
def face_builds(monkeypatch):
    """The vertex sets whose faces are built while the test runs, one entry per build."""
    built = []
    build = polytope._build_faces

    def counted(vs):
        built.append(vs)
        return build(vs)

    monkeypatch.setattr(polytope, "_build_faces", counted)
    return built


def test_faces_are_built_once_per_body(face_builds):
    vs = random_feasible_pyramid(3, 0)
    poly = build_meissner(vs)
    assert face_builds == []
    dec = surface_decomposition(poly)
    direction_sphere_partition(poly)
    tessellate(poly, 1)
    tessellate_reuleaux(vs, poly.pairs, 1)
    assert len(face_builds) == 1 and face_builds[0] is vs
    assert vs.faces is vs.faces and not vs.faces.ring.flags.writeable
    assert [p.area for p in dec.patches if p.kind == "face"] == list(vs.faces.areas)


def test_faces_are_not_built_where_nothing_reads_them(face_builds, tmp_path):
    optimize_pyramid(5)
    path = str(tmp_path / "pyr2.txt")
    assert main(["gen", "pyramid:2", "--out", path]) == 0
    for command in ("analyze", "validate", "enumerate"):
        assert main([command, path]) == 0
    assert face_builds == []


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_closed_form_checks_on_random_bodies(k, seed):
    vs = random_feasible_pyramid(k, seed)
    poly = build_meissner(vs)
    dec = surface_decomposition(poly)
    assert Counter(p.kind for p in dec.patches) == {"face": vs.m, "wedge": vs.m - 1, "spindle": vs.m - 1}
    assert abs(dec.total - meissner_area(poly)) <= 1e-12
    assert abs(direction_sphere_partition(poly) - 2.0 * math.pi) <= 1e-9
    table = enumerate_smoothings(vs, poly.pairs)
    best = min(area for _, area in table)
    # every m = 4 body ties all its smoothings exactly; the longest-edge rule must pick one of the minimizers
    assert optimal_smoothing(poly.pairs).bits in {choice.bits for choice, area in table if area == best}


def _reference_face_cycle(pts: np.ndarray, neighbors: list[int], i: int) -> list[int]:
    """One vertex's neighbors sorted by angle around its outward axis."""
    x = pts[i]
    axis = pts[neighbors].mean(axis=0) - x
    axis = axis / np.linalg.norm(axis)
    t1 = np.cross(axis, np.eye(3)[np.argmin(np.abs(axis))])
    t1 = t1 / np.linalg.norm(t1)
    t2 = np.cross(axis, t1)
    return [n for _, n in sorted((math.atan2((pts[n] - x) @ t2, (pts[n] - x) @ t1), n) for n in neighbors)]


def _reference_face_area(pts: np.ndarray, i: int, cycle: list[int]) -> float:
    """Spherical excess of one face, one corner at a time."""
    units = [(pts[n] - pts[i]) / np.linalg.norm(pts[n] - pts[i]) for n in cycle]
    angles = []
    for j, b in enumerate(units):
        prev, nxt = units[j - 1], units[(j + 1) % len(units)]
        tp = prev - (prev @ b) * b
        tn = nxt - (nxt @ b) * b
        angles.append(math.acos(min(1.0, max(-1.0, (tp @ tn) / (np.linalg.norm(tp) * np.linalg.norm(tn))))))
    return math.fsum(angles) - (len(cycle) - 2) * math.pi


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_face_cycles_and_areas_match_the_per_vertex_reference(k, seed):
    vs = random_feasible_pyramid(k, seed)
    neighbors = [sorted({v for e in vs.edges if i in e for v in e} - {i}) for i in range(vs.m)]
    cycles = face_cycles(vs)
    assert cycles == [_reference_face_cycle(vs.points, neighbors[i], i) for i in range(vs.m)]
    # the batched angles round differently from the per-corner ones: a few ulps per face
    reference = [_reference_face_area(vs.points, i, cycle) for i, cycle in enumerate(cycles)]
    assert np.abs(np.array(vs.faces.areas) - reference).max() <= 1e-13


def test_cross_is_bitwise_numpy_cross():
    rng = np.random.default_rng(7)
    a = np.vstack([rng.normal(size=(200, 3)), np.eye(3), -np.eye(3), np.zeros((1, 3))])
    b = np.vstack([rng.normal(size=(200, 3)), -np.eye(3), np.eye(3), np.zeros((1, 3))])
    cases = [(a, b), (a, b[0]), (a[5], b), (a[:, None], b[None, :30]), (a[3], b[4]), (a[:1], b[::-1])]
    for x, y in cases:
        want = np.cross(x, y)
        got = _cross(x, y)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_rejects_coincident_points():
    # the eight unit distances of the doubled set pass the extremal count, and the pair search then
    # found 5 candidates for 4 pairs
    pts = doubled_point_set()
    assert np.count_nonzero(np.abs(np.linalg.norm(pts[:, None] - pts[None], axis=-1) - 1.0) <= 1e-12) == 2 * 8
    with pytest.raises(CoincidentPoints, match="points 1 and 4 lie 0.0 apart"):
        validate_vertex_set(pts)
    assert issubclass(CoincidentPoints, ValidationError)
    # the check is at tol.  Off the copy along the normal of a - c and a - d, its distances to e, c and d
    # move by at most 0.86 of the step, so a step of 1.1 tol validates, with 5 pair candidates
    a, c, d = pts[1:4]
    normal = np.cross(a - c, a - d)
    for step, error in ((1.1e-9, WrongPairCount), (0.9e-9, CoincidentPoints)):
        pts[4] = a + step / np.linalg.norm(normal) * normal
        with pytest.raises(error):
            build_meissner(validate_vertex_set(pts))


def test_too_many_pairs_are_refused_before_any_work(tetra_vs, tetra_pairs):
    with pytest.raises(TooManyPairs, match="21 pairs"):
        enumerate_smoothings(tetra_vs, tetra_pairs * 7)


def test_rejects_non_extremal_sets():
    with pytest.raises(NotExtremal):
        validate_vertex_set(triangle_center_set())


def test_rejects_diameter_violation(tetra_vs):
    pts = np.array(tetra_vs.points)
    pts[0] += 0.01 * (pts[0] - pts[1])
    with pytest.raises(DiameterViolation):
        validate_vertex_set(pts)


def test_rejects_too_few_points():
    with pytest.raises(ValueError):
        validate_vertex_set(np.zeros((3, 3)))


def test_tolerance_threshold():
    # noise of 5e-8 fails the default 1e-9 tolerance, either because a
    # distance drifts past one or because too few stay at exactly one
    rng = np.random.default_rng(5)
    pts = regular_tetrahedron().points + 5e-8 * rng.normal(size=(4, 3))
    with pytest.raises(ValidationError):
        validate_vertex_set(pts)
    assert validate_vertex_set(pts, tol=1e-6).diameter_count == 6


def test_arcs_of_sets_validated_at_a_loose_tolerance():
    # an arc endpoint sits up to 2 * tol / |c2 - c1| off its circle's plane,
    # so a fixed plane slack of 1e-6 rejected 99 of these 200 sets
    for seed in range(200):
        vs = validate_vertex_set(noisy_tetrahedron(seed), tol=1e-5)
        poly = build_meissner(vs)
        assert meissner_volume(poly) == pytest.approx(TETRA_VOLUME, abs=1e-4)
        _, _, arcs = pair_arcs(vs, poly.pairs)
        assert len(arcs) == 6 and (arcs.sweep > 0.0).all()


def test_arc_endpoint_off_the_plane_is_rejected(tetra_vs):
    a, b, c1, c2 = tetra_vs.points[:, None]
    slack = 4.0 * 1e-9 / float(np.linalg.norm(c2 - c1))
    axis = (c2 - c1) / np.linalg.norm(c2 - c1)
    _edge_arc(a + 0.5 * slack * axis, b, c1, c2, 1e-9)
    with pytest.raises(GeometryError, match="off the circle plane"):
        _edge_arc(a + 2.0 * slack * axis, b, c1, c2, 1e-9)


@pytest.mark.parametrize(
    "spoil, message",
    [
        (lambda a, b, c1, c2, slack: (a, b, c1, c1), "coincident sphere centers give no circle"),
        (lambda a, b, c1, c2, slack: (a + 2.0 * slack * (c2 - c1), b, c1, c2), "arc endpoint off the circle plane"),
        (lambda a, b, c1, c2, slack: ((c1 + c2) / 2.0, b, c1, c2), "arc endpoint on the circle axis"),
    ],
    ids=["coincident", "off-plane", "on-axis"],
)
def test_each_arc_guard_reports_its_row_in_a_batch(tetra_vs, spoil, message):
    ends, centers, _ = pair_arcs(tetra_vs, find_dual_pairs(build_diameter_graph(tetra_vs), tetra_vs))
    pts = tetra_vs.points
    rows = [pts[ends[:, 0]], pts[ends[:, 1]], pts[centers[:, 0]], pts[centers[:, 1]]]
    # every tetrahedron edge has unit length, so 4 * tol is the plane slack of every row
    bad = spoil(*(r[3] for r in rows), 4.0 * tetra_vs.tol)
    for r, value in zip(rows, bad):
        r[3] = value
    with pytest.raises(GeometryError, match=rf"^{message} \(row 3\)$"):
        _edge_arc(*rows, tetra_vs.tol)


def test_extra_point_breaks_pair_count(tetra_vs):
    # a fifth point on the circle at unit distance from the first edge's
    # endpoints keeps the unit-distance count extremal but spoils the
    # dual pairing
    pts = tetra_vs.points
    mid = (pts[0] + pts[1]) / 2
    axis = pts[1] - pts[0]
    axis = axis / np.linalg.norm(axis)
    u = pts[2] - mid
    u = u - axis * (u @ axis)
    r = np.linalg.norm(u)
    u = u / r
    w = np.cross(axis, u)
    rel = pts[3] - mid
    half = 0.5 * math.atan2(rel @ w, rel @ u)
    extra = mid + r * (math.cos(half) * u + math.sin(half) * w)
    vs5 = validate_vertex_set(np.vstack([pts, extra]))
    assert vs5.diameter_count == 8
    with pytest.raises(WrongPairCount):
        find_dual_pairs(build_diameter_graph(vs5), vs5)


def test_dual_pairs_are_diagonals(tetra_vs, pyr2_vs):
    for vs in (tetra_vs, pyr2_vs):
        graph = build_diameter_graph(vs)
        edges = set(graph.edges)
        for pair in find_dual_pairs(graph, vs):
            # the four cycle vertices alternate between the two edges
            i, j = pair.edge
            k, l = pair.edge_dual
            assert len({i, j, k, l}) == 4
            cycle_edges = {tuple(sorted(p)) for p in ((i, k), (k, j), (j, l), (l, i))}
            assert cycle_edges <= edges
