"""Tessellation: watertightness, convergence, and file output."""

from collections import Counter

import numpy as np
import pytest

from meissner import (
    TriangleMesh,
    build_meissner,
    euler_characteristic,
    mesh_area,
    meissner_area,
    meissner_volume,
    random_feasible_pyramid,
    regular_tetrahedron,
    reuleaux_area,
    tessellate,
    tessellate_reuleaux,
    write_mesh,
)
from meissner.montecarlo import BallSystem
from meissner.polytope import _by_vertex
from conftest import REULEAUX_TETRA_AREA, max_dist_sq


def edge_counts(mesh: TriangleMesh) -> Counter:
    c: Counter = Counter()
    for a, b, d in mesh.faces:
        c[frozenset((int(a), int(b)))] += 1
        c[frozenset((int(b), int(d)))] += 1
        c[frozenset((int(d), int(a)))] += 1
    return c


def assert_watertight(mesh: TriangleMesh) -> None:
    counts = edge_counts(mesh)
    assert set(counts.values()) == {2}
    assert euler_characteristic(mesh) == 2


def signed_volume(mesh: TriangleMesh) -> float:
    v, f = mesh.vertices, mesh.faces
    return float(
        np.einsum("ij,ij->i", v[f[:, 0]], np.cross(v[f[:, 1]], v[f[:, 2]])).sum() / 6.0
    )


def test_single_triangle_mesh():
    mesh = TriangleMesh(
        np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        np.array([[0, 1, 2]]),
        ("only",),
        np.array([0]),
    )
    assert mesh_area(mesh) == pytest.approx(0.5, abs=1e-15)
    # open surface: V - E + F = 3 - 3 + 1
    assert euler_characteristic(mesh) == 1


def test_meissner_mesh_watertight(tetra_poly):
    mesh = tessellate(tetra_poly, 2)
    assert_watertight(mesh)
    assert len(mesh.group_names) == 10
    names = set(mesh.group_names)
    assert {"face_0", "face_3", "wedge_0", "wedge_2", "spindle_0", "spindle_2"} <= names
    assert len(mesh.face_groups) == len(mesh.faces)
    assert set(np.unique(mesh.face_groups)) == set(range(10))


def farthest_generator(system: BallSystem, pts: np.ndarray) -> np.ndarray:
    far = np.zeros(len(pts))
    for c in system.centers:
        far = np.maximum(far, ((pts - c) ** 2).sum(axis=1))
    for i in range(len(system.arcs)):
        far = np.maximum(far, max_dist_sq(system.arcs, i, pts))
    return np.sqrt(far)


def test_meissner_mesh_vertices_on_surface(tetra_poly):
    mesh = tessellate(tetra_poly, 2)
    # every mesh vertex lies on the boundary: farthest generator at distance 1
    far = farthest_generator(BallSystem.from_meissner(tetra_poly), mesh.vertices)
    assert far == pytest.approx(1.0, abs=1e-9)


def test_meissner_mesh_area_converges(tetra_poly):
    exact = meissner_area(tetra_poly)
    errors = [abs(mesh_area(tessellate(tetra_poly, r)) - exact) for r in (2, 3, 4)]
    assert errors[0] > errors[1] > errors[2]
    # quadratic convergence: each refinement divides the error by about 4
    assert 3.0 < errors[0] / errors[1] < 5.0
    assert 3.0 < errors[1] / errors[2] < 5.0
    assert errors[2] / exact < 2e-3


def test_meissner_mesh_signed_volume(tetra_poly):
    # outward winding everywhere: divergence-theorem volume matches the body
    mesh = tessellate(tetra_poly, 3)
    assert signed_volume(mesh) == pytest.approx(meissner_volume(tetra_poly), rel=2e-2)


def test_pyramid_mesh(pyr2_poly):
    mesh = tessellate(pyr2_poly, 3)
    assert_watertight(mesh)
    assert mesh_area(mesh) == pytest.approx(meissner_area(pyr2_poly), rel=1e-2)


def test_reuleaux_mesh(tetra_vs, tetra_pairs):
    mesh = tessellate_reuleaux(tetra_vs, tetra_pairs, 3)
    assert_watertight(mesh)
    names = set(mesh.group_names)
    assert {"face_0", "wedge_0", "wedge_dual_0", "wedge_dual_2"} <= names
    assert "spindle_0" not in names
    assert mesh_area(mesh) == pytest.approx(REULEAUX_TETRA_AREA, rel=1e-2)
    assert mesh_area(mesh) == pytest.approx(reuleaux_area(tetra_vs, tetra_pairs), rel=1e-2)
    # all boundary spheres are centered at the vertices
    far = np.zeros(len(mesh.vertices))
    for c in tetra_vs.points:
        far = np.maximum(far, ((mesh.vertices - c) ** 2).sum(axis=1))
    assert np.sqrt(far) == pytest.approx(1.0, abs=1e-9)


def test_write_obj_round_trip(tetra_poly, tmp_path):
    mesh = tessellate(tetra_poly, 1)
    path = tmp_path / "tetra.obj"
    write_mesh(mesh, path)
    verts = []
    faces = []
    groups = []
    for line in path.read_text().splitlines():
        head, *rest = line.split()
        if head == "v":
            verts.append([float(x) for x in rest])
        elif head == "f":
            faces.append([int(x) - 1 for x in rest])
        elif head == "g":
            groups.append(rest[0])
    assert np.array_equal(np.array(verts), mesh.vertices)
    assert np.array_equal(np.array(faces), mesh.faces)
    assert groups == list(mesh.group_names)


def test_write_ply_counts(tetra_poly, tmp_path):
    mesh = tessellate(tetra_poly, 1)
    path = tmp_path / "tetra.ply"
    write_mesh(mesh, path, fmt="ply")
    lines = path.read_text().splitlines()
    assert lines[0] == "ply"
    header = lines[: lines.index("end_header")]
    assert f"element vertex {len(mesh.vertices)}" in header
    assert f"element face {len(mesh.faces)}" in header
    body = lines[lines.index("end_header") + 1 :]
    assert len(body) == len(mesh.vertices) + len(mesh.faces)
    assert all(row.startswith("3 ") for row in body[len(mesh.vertices) :])


def _reference_mesh_text(mesh: TriangleMesh, fmt: str) -> str:
    """The mesh file written one vertex and one face at a time."""
    if fmt == "obj":
        lines = [f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}" for p in mesh.vertices]
        current = -1
        for face, grp in zip(mesh.faces, mesh.face_groups):
            if grp != current:
                lines.append(f"g {mesh.group_names[grp]}")
                current = int(grp)
            lines.append(f"f {face[0] + 1} {face[1] + 1} {face[2] + 1}")
    else:
        lines = [
            "ply",
            "format ascii 1.0",
            f"element vertex {len(mesh.vertices)}",
            "property double x",
            "property double y",
            "property double z",
            f"element face {len(mesh.faces)}",
            "property list uchar int vertex_indices",
            "end_header",
        ]
        lines += [f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}" for p in mesh.vertices]
        lines += [f"3 {face[0]} {face[1]} {face[2]}" for face in mesh.faces]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["obj", "ply"])
def test_write_mesh_matches_the_line_by_line_writer(tetra_poly, pyr2_poly, fmt, tmp_path):
    for poly in (tetra_poly, pyr2_poly):
        for refine in range(4):
            mesh = tessellate(poly, refine)
            path = tmp_path / f"mesh.{fmt}"
            write_mesh(mesh, path, fmt=fmt)
            assert path.read_bytes() == _reference_mesh_text(mesh, fmt).encode()


def test_bad_arguments(tetra_poly, tmp_path):
    with pytest.raises(ValueError, match="refinement"):
        tessellate(tetra_poly, -1)
    with pytest.raises(ValueError, match="refinement"):
        tessellate(tetra_poly, 9)
    with pytest.raises(ValueError, match="format"):
        write_mesh(tessellate(tetra_poly, 0), tmp_path / "x.stl", fmt="stl")


@pytest.mark.parametrize("seed", [3, 17, 40])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_mesh_invariants_on_random_bodies(k, seed):
    vs = random_feasible_pyramid(k, seed)
    poly = build_meissner(vs)
    for refinement in range(4):
        n = 2**refinement
        meshes = (
            (tessellate(poly, refinement), 10 * n * n - 6 * n, BallSystem.from_meissner(poly)),
            (
                tessellate_reuleaux(vs, poly.pairs, refinement),
                12 * n * n - 8 * n,
                BallSystem.from_points(vs.points),
            ),
        )
        for mesh, faces_per_pair, system in meshes:
            assert_watertight(mesh)
            assert len(mesh.faces) == (vs.m - 1) * faces_per_pair
            # a closed triangulated sphere has 3F = 2E, so chi = 2 gives V = 2 + F/2
            assert len(mesh.vertices) == 2 + len(mesh.faces) // 2
            far = farthest_generator(system, mesh.vertices)
            assert far == pytest.approx(1.0, abs=1e-9)
            assert signed_volume(mesh) > 0.0


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_mesh_groups_and_convergence_on_random_bodies(k):
    vs = random_feasible_pyramid(k, 0)
    poly = build_meissner(vs)
    degrees = [len(c) for c in _by_vertex(vs.faces.owner, vs.faces.ring)]
    faces = [f"face_{i}" for i in range(vs.m)]
    # pair groups' triangles in units of n^2 - n: a wedge half or a spindle loses two of its 2n^2 per row at its pinched sides
    families = (
        (lambda r: tessellate(poly, r), ("wedge", "spindle"), (4, 2), meissner_area(poly)),
        (lambda r: tessellate_reuleaux(vs, poly.pairs, r), ("wedge", "wedge_dual"), (4, 4), reuleaux_area(vs, poly.pairs)),
    )
    for mesh_at, kinds, sizes, exact in families:
        names = faces + [f"{kind}_{i}" for i in range(vs.m - 1) for kind in kinds]
        errors = {}
        for refinement in range(6):
            n = 2**refinement
            mesh = mesh_at(refinement)
            assert mesh.group_names == tuple(names)
            # groups in order, one run each: a fan of n * n triangles per neighbor, then the pairs' patches
            assert (np.diff(mesh.face_groups) >= 0).all()
            per_group = [d * n * n for d in degrees] + [s * (n * n - n) for _ in range(vs.m - 1) for s in sizes]
            assert np.bincount(mesh.face_groups, minlength=len(names)).tolist() == per_group
            errors[refinement] = abs(mesh_area(mesh) - exact)
        # criterion 9's rule
        assert errors[5] / exact <= 5e-3
        assert 3.0 < errors[4] / errors[5] < 5.0
