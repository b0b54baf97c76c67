"""Watertight triangle meshes of Meissner and Reuleaux polyhedra.

Every patch (the fan of a spherical face, one half of a wedge, a
spindle) is a structured grid with dyadic parameters, evaluated and
triangulated in one pass.  Vertices are merged by exact coordinates,
with no tolerance, so the mesh closes only because neighboring patches
produce bitwise equal points on every curve they share.  That holds
because both sides evaluate a shared curve through the same expressions
on the same floats: `_slerp` reproduces its endpoints exactly and is
symmetric under a <-> b, t <-> 1 - t, which is exact for the dyadic
parameters l / 2**refinement, and dot products are summed in one fixed
order whatever the array shape.  Points that other expressions would
only approximate are snapped: grid corners to the polytope vertices,
and each wedge's arc row to the arc's own points.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ArgumentError, GeometryError
from .polytope import (
    Arc,
    DualEdgePair,
    MeissnerPolyhedron,
    VertexSet,
    build_diameter_graph,
    face_cycles,
)

__all__ = [
    "TriangleMesh",
    "tessellate",
    "tessellate_reuleaux",
    "mesh_area",
    "euler_characteristic",
    "write_mesh",
]


@dataclass(frozen=True, slots=True)
class TriangleMesh:
    vertices: np.ndarray  # (V, 3)
    faces: np.ndarray  # (F, 3) vertex indices
    group_names: tuple[str, ...]
    face_groups: np.ndarray  # (F,) index into group_names


class _Builder:
    def __init__(self) -> None:
        self.group_names: list[str] = []
        self._points: list[np.ndarray] = []
        self._triangles: list[np.ndarray] = []
        self._refs: list[np.ndarray] = []
        self._groups: list[np.ndarray] = []
        self._count = 0

    def group(self, name: str) -> None:
        self.group_names.append(name)

    def patch(self, points: np.ndarray, tris: np.ndarray, outward_ref: np.ndarray) -> None:
        """Add a grid of points and its triangles, indexed into the flattened grid.

        On build, each triangle is wound so its normal points away from
        outward_ref, one point for the patch or one per triangle.
        """
        points = points.reshape(-1, 3)
        self._points.append(points)
        self._triangles.append(tris + self._count)
        self._refs.append(np.broadcast_to(outward_ref, tris.shape))
        self._groups.append(np.full(len(tris), len(self.group_names) - 1))
        self._count += len(points)

    def build(self) -> TriangleMesh:
        """Merge equal points, drop collapsed triangles and fix the winding."""
        points = np.concatenate(self._points)
        _, first, ids = np.unique(points, axis=0, return_index=True, return_inverse=True)
        # number the vertices in order of first appearance
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        tris = rank[ids.ravel()][np.concatenate(self._triangles)]
        a, b, c = tris.T
        keep = (a != b) & (b != c) & (a != c)
        tris = tris[keep]
        vertices = points[first[order]]
        pa, pb, pc = vertices[tris.T]
        normal = np.cross(pb - pa, pc - pa)
        centroid = (pa + pb + pc) / 3.0
        inward = _dot(normal, centroid - np.concatenate(self._refs)[keep]) < 0.0
        tris[inward] = tris[inward][:, (0, 2, 1)]
        return TriangleMesh(
            vertices,
            tris,
            tuple(self.group_names),
            np.concatenate(self._groups)[keep],
        )


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the last axis, summed in the same order for every shape."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _udir(p: np.ndarray, origin: np.ndarray) -> np.ndarray:
    d = p - origin
    return d / np.sqrt(_dot(d, d))[..., None]


def _slerp(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Great-circle interpolation of unit vectors a, b (..., 3) at parameters t (...).

    Exactly reproduces the endpoints at t = 0 and t = 1, and evaluates
    symmetrically: _slerp(a, b, t) and _slerp(b, a, 1 - t) give bitwise
    equal results, which the watertight gluing relies on.
    """
    t = np.asarray(t, dtype=float)[..., None]
    cross = np.cross(a, b)
    omega = np.arctan2(np.sqrt(_dot(cross, cross)), _dot(a, b))[..., None]
    degenerate = omega < 1e-12
    s = np.sin(np.where(degenerate, 1.0, omega))
    blend = (np.sin((1.0 - t) * omega) * a + np.sin(t * omega) * b) / s
    out = np.where(degenerate, a, blend)
    out = np.where(t == 1.0, b, out)
    return np.where(t == 0.0, a, out)


def tessellate(poly: MeissnerPolyhedron, refinement: int) -> TriangleMesh:
    """Triangulate the Meissner surface at grid resolution 2**refinement.

    Groups are named face_<vertex>, wedge_<pair> and spindle_<pair>.
    """
    n = _grid_size(refinement)
    vs = poly.vertices
    builder = _Builder()
    _face_patches(builder, vs, n)
    for i in range(len(poly.pairs)):
        retained = poly.retained_edge(i)
        smoothed = poly.smoothed_edge(i)
        arc = poly.retained_arc(i)
        builder.group(f"wedge_{i}")
        for s_idx in smoothed:
            _wedge_half(builder, vs.points, retained, s_idx, arc, n)
        builder.group(f"spindle_{i}")
        _spindle_patch(builder, vs.points, retained, smoothed, arc, n)
    return builder.build()


def tessellate_reuleaux(
    vs: VertexSet, pairs: tuple[DualEdgePair, ...], refinement: int
) -> TriangleMesh:
    """Triangulate the unsmoothed ball polytope: faces plus both wedges per pair."""
    n = _grid_size(refinement)
    builder = _Builder()
    _face_patches(builder, vs, n)
    for i, pair in enumerate(pairs):
        builder.group(f"wedge_{i}")
        for s_idx in pair.edge_dual:
            _wedge_half(builder, vs.points, pair.edge, s_idx, pair.geometry.arc, n)
        builder.group(f"wedge_dual_{i}")
        for s_idx in pair.edge:
            _wedge_half(builder, vs.points, pair.edge_dual, s_idx, pair.geometry.arc_dual, n)
    return builder.build()


def mesh_area(mesh: TriangleMesh) -> float:
    """Total area of the triangles."""
    v = mesh.vertices
    a, b, c = v[mesh.faces[:, 0]], v[mesh.faces[:, 1]], v[mesh.faces[:, 2]]
    cross = np.cross(b - a, c - a)
    return float(0.5 * np.linalg.norm(cross, axis=1).sum())


def euler_characteristic(mesh: TriangleMesh) -> int:
    """V - E + F with edges counted once per undirected pair."""
    f = mesh.faces
    edges = np.concatenate([f[:, (0, 1)], f[:, (1, 2)], f[:, (2, 0)]])
    edges = np.sort(edges, axis=1).astype(np.int64, copy=False)
    # one int64 key per undirected edge; a 1-D unique is far cheaper than unique rows
    unique = np.unique(edges[:, 0] * len(mesh.vertices) + edges[:, 1])
    return int(len(mesh.vertices) - len(unique) + len(f))


def write_mesh(mesh: TriangleMesh, path: str | Path, fmt: str = "obj") -> None:
    """Write ASCII OBJ (with group markers) or PLY."""
    path = Path(path)
    if fmt == "obj":
        parts = [_rows("v %.17g %.17g %.17g\n", mesh.vertices)]
        groups = np.asarray(mesh.face_groups)
        # one "g" line before each run of faces in the same group
        starts = np.flatnonzero(np.diff(groups, prepend=-1))
        for start, stop in zip(starts, np.r_[starts[1:], len(groups)]):
            parts.append(f"g {mesh.group_names[groups[start]]}\n")
            parts.append(_rows("f %d %d %d\n", mesh.faces[start:stop] + 1))
    elif fmt == "ply":
        parts = [
            "ply\nformat ascii 1.0\n",
            f"element vertex {len(mesh.vertices)}\n",
            "property double x\nproperty double y\nproperty double z\n",
            f"element face {len(mesh.faces)}\n",
            "property list uchar int vertex_indices\nend_header\n",
            _rows("%.17g %.17g %.17g\n", mesh.vertices),
            _rows("3 %d %d %d\n", mesh.faces),
        ]
    else:
        raise ArgumentError(f"unknown mesh format {fmt!r}")
    # an empty OBJ is one empty line
    path.write_text("".join(parts) or "\n")


def _rows(line: str, array: np.ndarray) -> str:
    """`line % row` for every row of a 2-D array, in one formatting call."""
    return (line * len(array)) % tuple(np.ravel(array).tolist())


def _grid_size(refinement: int) -> int:
    if not 0 <= refinement <= 8:
        raise ArgumentError(f"refinement {refinement} outside [0, 8]")
    return 1 << refinement


def _face_patches(builder: _Builder, vs: VertexSet, n: int) -> None:
    """Each spherical face as a fan of geodesic triangles around an interior apex.

    Fan triangle j is a triangular grid whose row i runs from
    slerp(apex, u_j, i/n) to slerp(apex, u_j+1, i/n), with u_j the unit
    direction to the j-th neighbor; its last row samples the polygon
    edge itself, with the two corners snapped to the polytope vertices.
    """
    pts = vs.points
    cycles = face_cycles(vs, build_diameter_graph(vs))
    row, col = _fan_grid(n)
    tris = _fan_triangles(n)
    for i, cycle in enumerate(cycles):
        builder.group(f"face_{i}")
        x = pts[i]
        units = _udir(pts[cycle], x)
        centroid = units.sum(axis=0)
        norm = float(np.linalg.norm(centroid))
        if norm < 1e-9:
            raise GeometryError(f"face {i} has no interior point")
        left = _slerp(centroid / norm, units[:, None], np.arange(n + 1) / n)
        right = np.roll(left, -1, axis=0)
        grid = x + _slerp(left[:, row], right[:, row], col / np.maximum(row, 1))
        # grid points (n, 0) and (n, n) of every fan triangle
        grid[:, -1 - n] = pts[cycle]
        grid[:, -1] = pts[np.roll(cycle, -1)]
        offsets = len(row) * np.arange(len(cycle))[:, None, None]
        builder.patch(grid, (tris + offsets).reshape(-1, 3), x)


def _wedge_half(
    builder: _Builder,
    pts: np.ndarray,
    retained: tuple[int, int],
    sphere_idx: int,
    arc: Arc,
    n: int,
) -> None:
    """Lune between the geodesic and the edge arc on one supporting sphere.

    Row t blends from the geodesic (t = 0) to the arc (t = n); the arc
    row is the arc's own points so both halves emit identical floats.
    """
    s_c = pts[sphere_idx]
    steps = np.arange(n + 1) / n
    gp, gq = _udir(pts[list(retained)], s_c)
    arc_row = arc.point(arc.sweep * steps)
    grid = s_c + _slerp(_slerp(gp, gq, steps), _udir(arc_row, s_c), steps[:, None])
    grid[n] = arc_row
    grid[:, 0] = pts[retained[0]]
    grid[:, n] = pts[retained[1]]
    builder.patch(grid, _rect_triangles(n), s_c)


def _spindle_patch(
    builder: _Builder,
    pts: np.ndarray,
    retained: tuple[int, int],
    smoothed: tuple[int, int],
    arc: Arc,
    n: int,
) -> None:
    """Surface swept by geodesic profiles as the ball center runs along the arc.

    For each center c on the retained edge's arc, the profile is the
    geodesic from one smoothed-edge endpoint to the other on the unit
    sphere around c; the sweep pinches at those two endpoints.
    """
    steps = np.arange(n + 1) / n
    centers = arc.point(arc.sweep * steps)
    centers[0] = pts[retained[0]]
    centers[n] = pts[retained[1]]
    sp, sq = pts[smoothed[0]], pts[smoothed[1]]
    d0 = _udir(sp, centers)[:, None]
    d1 = _udir(sq, centers)[:, None]
    grid = centers[:, None] + _slerp(d0, d1, steps)
    grid[:, 0] = sp
    grid[:, n] = sq
    # row t of cells lies on the spheres around centers t and t + 1
    builder.patch(grid, _rect_triangles(n), np.repeat(centers[:-1], 2 * n, axis=0))


def _rect_triangles(n: int) -> np.ndarray:
    """Two triangles per cell of a row-major (n + 1) x (n + 1) grid."""
    idx = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)
    a, b, c, d = idx[:-1, :-1], idx[1:, :-1], idx[1:, 1:], idx[:-1, 1:]
    return np.stack((a, b, c, a, c, d), axis=-1).reshape(-1, 3)


def _fan_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each point of a row-major triangular grid whose row i holds i + 1 points."""
    row = np.repeat(np.arange(n + 1), np.arange(1, n + 2))
    return row, np.arange(len(row)) - row * (row + 1) // 2


def _fan_triangles(n: int) -> np.ndarray:
    """Triangles of `_fan_grid(n)`, in row-major order of the point (i, l) they hang from.

    Point (i, l) with l < i carries the triangle it forms with (i, l + 1)
    and (i - 1, l) and, for l < i - 1, the one to the right of that.
    """
    row, col = _fan_grid(n)
    here = np.flatnonzero(col < row)
    i, l = row[here], col[here]
    above = here - i  # point (i - 1, l)
    up = np.stack((here, here + 1, above), axis=1)
    down = np.stack((above, here + 1, above + 1), axis=1)
    keep = np.ones((len(here), 2), dtype=bool)
    keep[:, 1] = l < i - 1
    return np.stack((up, down), axis=1)[keep]
