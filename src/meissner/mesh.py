"""Watertight triangle meshes of Meissner and Reuleaux polyhedra.

Every patch (a fan triangle of a spherical face, one half of a wedge, a
spindle) is a structured grid with dyadic parameters.  Each kind of
patch is evaluated for the whole body at once, one grid per patch kind:
all fan triangles of all faces go through one `_slerp` chain, all wedge
halves through another and all spindles through a third, and the
triangles of every patch are indexed in one array.  Vertices are merged
by exact coordinates, with no tolerance, so the mesh closes only because
neighboring patches produce bitwise equal points on every curve they
share.  That holds because both sides evaluate a shared curve through
the same elementwise expressions on the same floats: `_slerp` reproduces
its endpoints exactly and is symmetric under a <-> b, t <-> 1 - t, which
is exact for the dyadic parameters l / 2**refinement, and dot and cross
products are computed in one fixed order whatever the array shape.
Points that other expressions would only approximate are snapped: grid
corners to the polytope vertices, and each wedge's arc row to the arc's
own points.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ArgumentError, GeometryError
from .polytope import (
    DualEdgePair,
    MeissnerPolyhedron,
    VertexSet,
    _cross,
    _dot,
    _edge_arc,
)

__all__ = [
    "TriangleMesh",
    "tessellate",
    "tessellate_reuleaux",
    "mesh_area",
    "euler_characteristic",
    "write_mesh",
]

# unit directions to a face's neighbors that sum to less than this leave its fan apex undefined
_APEX_FLOOR = 1e-9
# endpoints closer than this angle are one point; dividing by sin(omega) would only amplify their rounding
_SLERP_ANGLE_FLOOR = 1e-12


@dataclass(frozen=True, slots=True)
class TriangleMesh:
    vertices: np.ndarray  # (V, 3)
    faces: np.ndarray  # (F, 3) vertex indices
    group_names: tuple[str, ...]
    face_groups: np.ndarray  # (F,) index into group_names


def tessellate(poly: MeissnerPolyhedron, refinement: int) -> TriangleMesh:
    """Triangulate the Meissner surface at grid resolution 2**refinement.

    Groups are named face_<vertex>, wedge_<pair> and spindle_<pair>.
    """
    steps = _steps(refinement)
    vs = poly.vertices
    pts = vs.points
    count = len(poly.pairs)
    retained, smoothed = poly.oriented_edges()
    arcs = poly.retained_arcs()
    rows = arcs.point(arcs.sweep[:, None] * steps)
    # per pair: the wedge half on each smoothed-edge sphere, then the spindle
    halves = _wedge_halves(pts, smoothed.ravel(), retained.repeat(2, axis=0), rows.repeat(2, axis=0), steps)
    spindles, spindle_refs = _spindles(pts, retained, smoothed, rows, steps)
    grids = np.concatenate((halves.reshape(count, 2, -1, 3), spindles[:, None]), axis=1)
    refs = np.concatenate(
        (np.broadcast_to(pts[smoothed][:, :, None], (count, 2) + spindle_refs.shape[1:]), spindle_refs[:, None]),
        axis=1,
    )
    names = [f"face_{i}" for i in range(vs.m)]
    names += [f"{kind}_{i}" for i in range(count) for kind in ("wedge", "spindle")]
    groups = vs.m + np.repeat(np.arange(2 * count), (2, 1) * count)
    return _build(
        names,
        _face_fans(vs, steps),
        (grids.reshape(3 * count, -1, 3), _rect_triangles(len(steps) - 1), refs.reshape(3 * count, -1, 3), groups),
    )


def tessellate_reuleaux(
    vs: VertexSet, pairs: tuple[DualEdgePair, ...], refinement: int
) -> TriangleMesh:
    """Triangulate the unsmoothed ball polytope: faces plus both wedges per pair."""
    steps = _steps(refinement)
    pts = vs.points
    # per pair: the edge's arc, on the dual edge's spheres, then the dual edge's arc
    ends = np.array([e for p in pairs for e in (p.edge, p.edge_dual)]).reshape(-1, 2)
    centers = ends.reshape(-1, 2, 2)[:, ::-1].reshape(-1, 2)
    arcs = _edge_arc(pts[ends[:, 0]], pts[ends[:, 1]], pts[centers[:, 0]], pts[centers[:, 1]], vs.tol)
    rows = arcs.point(arcs.sweep[:, None] * steps)
    # per pair: the edge's half on each dual-edge sphere, then the dual edge's on each edge sphere
    spheres = centers.ravel()
    retained = ends.repeat(2, axis=0)
    halves = _wedge_halves(pts, spheres, retained, rows.repeat(2, axis=0), steps)
    names = [f"face_{i}" for i in range(vs.m)]
    names += [f"{kind}_{i}" for i in range(len(pairs)) for kind in ("wedge", "wedge_dual")]
    groups = vs.m + np.arange(2 * len(pairs)).repeat(2)
    return _build(
        names,
        _face_fans(vs, steps),
        (halves, _rect_triangles(len(steps) - 1), pts[spheres][:, None], groups),
    )


def mesh_area(mesh: TriangleMesh) -> float:
    """Total area of the triangles."""
    v = mesh.vertices
    a, b, c = v[mesh.faces[:, 0]], v[mesh.faces[:, 1]], v[mesh.faces[:, 2]]
    cross = _cross(b - a, c - a)
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


def _steps(refinement: int) -> np.ndarray:
    """The dyadic grid parameters l / 2**refinement, l = 0 .. 2**refinement."""
    if not 0 <= refinement <= 8:
        raise ArgumentError(f"refinement {refinement} outside [0, 8]")
    n = 1 << refinement
    return np.arange(n + 1) / n


def _build(group_names: list[str], *kinds: tuple[np.ndarray, ...]) -> TriangleMesh:
    """Merge equal points, drop collapsed triangles and fix the winding.

    Each kind is (grids, tris, refs, groups) for p same-shaped patches:
    grids (p, k, 3), the triangles of one patch indexed into its k
    points, the outward reference of each patch or of each of its
    triangles, and each patch's index into group_names.  Patches enter
    in order, and each triangle is wound so its normal points away from
    its reference.
    """
    points, tris, refs, groups = [], [], [], []
    count = 0
    for grid, local, ref, group in kinds:
        p, k = grid.shape[:2]
        points.append(grid.reshape(-1, 3))
        tris.append((local + (count + k * np.arange(p))[:, None, None]).reshape(-1, 3))
        refs.append(np.broadcast_to(ref, (p, len(local), 3)).reshape(-1, 3))
        groups.append(np.repeat(group, len(local)))
        count += p * k
    points = np.concatenate(points)
    # runs of equal points in lexicographic order; the sort is stable, so each run starts at its first point
    order = np.lexsort(points.T[::-1])
    ranked = points[order]
    new = np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)]
    first = order[new]
    # number the vertices in order of first appearance
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    vertex = np.empty_like(order)
    vertex[order] = rank[np.cumsum(new) - 1]
    tris = vertex[np.concatenate(tris)]
    a, b, c = tris.T
    keep = (a != b) & (b != c) & (a != c)
    tris = tris[keep]
    vertices = points[np.sort(first)]
    pa, pb, pc = vertices[tris.T]
    normal = _cross(pb - pa, pc - pa)
    centroid = (pa + pb + pc) / 3.0
    inward = _dot(normal, centroid - np.concatenate(refs)[keep]) < 0.0
    tris[inward] = tris[inward][:, (0, 2, 1)]
    return TriangleMesh(vertices, tris, tuple(group_names), np.concatenate(groups)[keep])


def _slerp(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Great-circle interpolation of unit vectors a, b (..., 3) at parameters t (...).

    Exactly reproduces the endpoints at t = 0 and t = 1, and evaluates
    symmetrically: _slerp(a, b, t) and _slerp(b, a, 1 - t) give bitwise
    equal results, which the watertight gluing relies on.
    """
    t = np.asarray(t, dtype=float)[..., None]
    cross = _cross(a, b)
    omega = np.arctan2(np.sqrt(_dot(cross, cross)), _dot(a, b))[..., None]
    degenerate = omega < _SLERP_ANGLE_FLOOR
    s = np.sin(np.where(degenerate, 1.0, omega))
    blend = (np.sin((1.0 - t) * omega) * a + np.sin(t * omega) * b) / s
    out = np.where(degenerate, a, blend)
    out = np.where(t == 1.0, b, out)
    return np.where(t == 0.0, a, out)


def _udir(p: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """Unit direction from origin to p over the last axis."""
    d = p - origin
    return d / np.sqrt(_dot(d, d))[..., None]


def _face_fans(vs: VertexSet, steps: np.ndarray) -> tuple[np.ndarray, ...]:
    """All fan triangles of all spherical faces, face by face in cyclic order.

    Each face is a fan of geodesic triangles around an interior apex.
    Fan triangle e is a triangular grid whose row i runs from
    slerp(apex, u_e, i/n) to slerp(apex, u_e+1, i/n), with u_e the unit
    direction to the e-th neighbor; its last row samples the polygon
    edge itself, with the two corners snapped to the polytope vertices.
    Returns them as a patch kind for `_build`.
    """
    pts, faces = vs.points, vs.faces
    owner, ring, after, units = faces.owner, faces.ring, faces.after, faces.units
    x = pts[owner]
    # summed slot by slot, in cycle order
    centroid = np.zeros((vs.m, 3))
    np.add.at(centroid, owner, units)
    norm = np.sqrt(_dot(centroid, centroid))
    if (norm < _APEX_FLOOR).any():
        raise GeometryError(f"face {np.argmax(norm < _APEX_FLOOR)} has no interior point")
    apex = centroid / norm[:, None]
    n = len(steps) - 1
    spokes = _slerp(apex[owner][:, None], units[:, None], steps)
    row, col = _fan_grid(n)
    grids = x[:, None] + _slerp(spokes[:, row], spokes[after][:, row], col / np.maximum(row, 1))
    # grid points (n, 0) and (n, n) of every fan triangle
    grids[:, -1 - n] = pts[ring]
    grids[:, -1] = pts[ring[after]]
    return grids, _fan_triangles(n), x[:, None], owner


def _wedge_halves(
    pts: np.ndarray, spheres: np.ndarray, retained: np.ndarray, rows: np.ndarray, steps: np.ndarray
) -> np.ndarray:
    """Lunes between the geodesic and the edge arc, one per supporting sphere.

    Half h lies on the sphere around pts[spheres[h]], between the
    geodesic from one end of the retained edge retained[h] to the other
    and the edge arc sampled in rows[h].  Row t blends from the geodesic
    (t = 0) to the arc (t = n); the arc row is the arc's own points so
    both halves of a wedge emit identical floats.
    """
    n = len(steps) - 1
    s_c = pts[spheres][:, None]
    geodesic = _slerp(_udir(pts[retained[:, :1]], s_c), _udir(pts[retained[:, 1:]], s_c), steps)
    grids = s_c[:, None] + _slerp(geodesic[:, None], _udir(rows, s_c)[:, None], steps[:, None])
    grids[:, n] = rows
    grids[:, :, 0] = pts[retained[:, :1]]
    grids[:, :, n] = pts[retained[:, 1:]]
    return grids.reshape(len(spheres), -1, 3)


def _spindles(
    pts: np.ndarray, retained: np.ndarray, smoothed: np.ndarray, rows: np.ndarray, steps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Surfaces swept by geodesic profiles as the ball center runs along each retained arc.

    For each center c in rows[s], the profile is the geodesic from one
    smoothed-edge endpoint to the other on the unit sphere around c; the
    sweep pinches at those two endpoints.  Returns the grids and the
    outward reference of each of their triangles.
    """
    n = len(steps) - 1
    centers = rows.copy()
    centers[:, 0] = pts[retained[:, 0]]
    centers[:, n] = pts[retained[:, 1]]
    sp, sq = pts[smoothed[:, :1]], pts[smoothed[:, 1:]]
    grids = centers[:, :, None] + _slerp(_udir(sp, centers)[:, :, None], _udir(sq, centers)[:, :, None], steps)
    grids[:, :, 0] = sp
    grids[:, :, n] = sq
    # row t of cells lies on the spheres around centers t and t + 1
    return grids.reshape(len(rows), -1, 3), np.repeat(centers[:, :-1], 2 * n, axis=1)


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
