"""Ball polytopes over extremal point sets and their Meissner smoothings.

An extremal set is a diameter-one point set of m points realizing
exactly 2m - 2 unit distances.  Its ball polytope has m - 1 dual edge
pairs, found as the diagonals of 4-cycles of the diameter graph; each
pair must have one of its two edges smoothed to produce a body of
constant width one.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product

import numpy as np

from .errors import (
    ArgumentError,
    CoincidentPoints,
    DiameterViolation,
    FaceCycleError,
    GeometryError,
    NotExtremal,
    TooManyPairs,
    WrongPairCount,
)
from .sphere import (
    PairLengths,
    chord_to_arc,
    dihedral_angle,
    f_pair,
    geodesic_polygon_area,
    rect_area,
    spindle_area,
    wedge_angle,
    wedge_area,
)

__all__ = [
    "DEFAULT_TOL",
    "VertexSet",
    "Faces",
    "DiameterGraph",
    "Arc",
    "DualEdgePair",
    "SmoothingChoice",
    "MeissnerPolyhedron",
    "SurfacePatch",
    "SurfaceDecomposition",
    "validate_vertex_set",
    "build_diameter_graph",
    "find_dual_pairs",
    "optimal_smoothing",
    "enumerate_smoothings",
    "build_meissner",
    "meissner_area",
    "meissner_volume",
    "reuleaux_area",
    "surface_decomposition",
    "direction_sphere_partition",
]

DEFAULT_TOL = 1e-9
# a vector shorter than this is rounding noise on unit-scale coordinates and has no direction
_NORM_FLOOR = 1e-12
# an endpoint within tol of distance one from both centers c1, c2 lies within 2*tol/|c2 - c1|
# of their bisector plane; twice that bound leaves room for rounding
_ARC_PLANE_SLACK_PER_TOL = 4.0
# points within this many tolerances of each other are one vertex listed twice, its unit distances counted twice
_SEPARATION_PER_TOL = 1.0
# an outward axis or an angular gap between a face's neighbors under this leaves their order open
_FACE_CYCLE_TOL = 1e-9

Edge = tuple[int, int]


@dataclass(frozen=True, slots=True)
class Faces:
    """Every vertex's spherical face, over (vertex, neighbor) slots: vertex by vertex, neighbors in cyclic order."""

    owner: np.ndarray  # the vertex of each slot
    ring: np.ndarray  # the neighbor of each slot
    after: np.ndarray  # the slot of the next neighbor around the same vertex
    units: np.ndarray  # (slots, 3) unit direction from the vertex to the neighbor
    areas: tuple[float, ...]  # geodesic area of each vertex's face


@dataclass(frozen=True)
class VertexSet:
    """A validated extremal set of diameter one and its unit-distance edges; built only by `validate_vertex_set`."""

    points: np.ndarray
    tol: float
    max_distance: float
    edges: tuple[Edge, ...]  # sorted index pairs at distance one within tol

    @property
    def m(self) -> int:
        return int(self.points.shape[0])

    @property
    def diameter_count(self) -> int:
        return len(self.edges)

    @cached_property
    def faces(self) -> Faces:
        """The spherical faces, built on first use: validation and the closed forms never need them."""
        return _build_faces(self)


@dataclass(frozen=True, slots=True)
class DiameterGraph:
    """Unit-distance graph of a vertex set; edges are sorted index pairs."""

    m: int
    edges: tuple[Edge, ...]


@dataclass(frozen=True, slots=True)
class Arc:
    """Arcs center + radius*(cos(t)*u + sin(t)*v), t in [0, sweep]: center, u, v are (k, 3), radius, sweep (k,)."""

    center: np.ndarray
    radius: np.ndarray
    u: np.ndarray
    v: np.ndarray
    sweep: np.ndarray

    def __len__(self) -> int:
        return len(self.sweep)

    def point(self, t: np.ndarray) -> np.ndarray:
        """Points at parameters t, one row of parameters per arc: (k, s) -> (k, s, 3)."""
        t = np.asarray(t, dtype=float)[..., None]
        offset = np.cos(t) * self.u[:, None] + np.sin(t) * self.v[:, None]
        return self.center[:, None] + self.radius[:, None, None] * offset


@dataclass(frozen=True, slots=True)
class DualEdgePair:
    """One dual edge pair: its two edges, their arc lengths, angles and smoothing gains."""

    edge: Edge
    edge_dual: Edge
    lengths: PairLengths
    phi: float
    phi_dual: float
    alpha: float
    gain: tuple[float, float]  # f by smoothing bit: (f_pair(lengths.swapped()), f_pair(lengths))


@dataclass(frozen=True, slots=True)
class SmoothingChoice:
    """One boolean per dual pair; True smooths the pair's second edge."""

    bits: tuple[bool, ...]


@dataclass(frozen=True, slots=True)
class MeissnerPolyhedron:
    vertices: VertexSet
    pairs: tuple[DualEdgePair, ...]
    choice: SmoothingChoice

    def oriented_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The (k, 2) vertex indices of every pair's retained edge and of its smoothed edge."""
        edges = np.array([(p.edge, p.edge_dual) for p in self.pairs], dtype=np.intp).reshape(-1, 2, 2)
        smoothed = np.array(self.choice.bits, dtype=np.intp)
        rows = np.arange(len(edges))
        return edges[rows, 1 - smoothed], edges[rows, smoothed]

    def retained_arcs(self) -> Arc:
        """The retained edge arc of every pair, on the spheres around the smoothed edge's endpoints."""
        retained, smoothed = self.oriented_edges()
        a, b = self.vertices.points[retained].transpose(1, 0, 2)
        c1, c2 = self.vertices.points[smoothed].transpose(1, 0, 2)
        return _edge_arc(a, b, c1, c2, self.vertices.tol)


@dataclass(frozen=True, slots=True)
class SurfacePatch:
    kind: str  # 'face' | 'wedge' | 'spindle'
    index: int  # vertex index for faces, pair index otherwise
    area: float


@dataclass(frozen=True, slots=True)
class SurfaceDecomposition:
    patches: tuple[SurfacePatch, ...]
    total: float


def validate_vertex_set(points: np.ndarray, tol: float = DEFAULT_TOL) -> VertexSet:
    """Check distinct points, diameter one and the extremal count of 2m - 2 unit distances within tol, 0 < tol < 1."""
    if not 0.0 < tol < 1.0:
        raise ArgumentError(f"tol must be in (0, 1), got {tol!r}")
    pts = np.array(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ArgumentError(f"expected an (m, 3) array, got shape {pts.shape}")
    m = pts.shape[0]
    if m < 4:
        raise ArgumentError(f"at least four points required, got {m}")
    i, j = _pairs(m)
    upper = _pairwise(pts)[i, j]
    near = int(np.argmin(upper))
    if upper[near] <= _SEPARATION_PER_TOL * tol:
        raise CoincidentPoints(f"points {i[near]} and {j[near]} lie {float(upper[near])!r} apart, within tol {tol!r}")
    max_distance = float(upper.max())
    if max_distance > 1.0 + tol:
        raise DiameterViolation(f"max pairwise distance {max_distance!r} exceeds one")
    unit = np.abs(upper - 1.0) <= tol
    count = int(np.count_nonzero(unit))
    if count != 2 * m - 2:
        raise NotExtremal(f"{count} unit distances, an extremal set of {m} points needs {2 * m - 2}")
    pts.setflags(write=False)
    return VertexSet(pts, tol, max_distance, tuple(zip(i[unit].tolist(), j[unit].tolist())))


def build_diameter_graph(vs: VertexSet) -> DiameterGraph:
    """Edges of the unit-distance graph, sorted lexicographically."""
    return DiameterGraph(vs.m, vs.edges)


def find_dual_pairs(graph: DiameterGraph, vs: VertexSet) -> tuple[DualEdgePair, ...]:
    """Dual pairs as the diagonal pairs of 4-cycles of the graph, sorted, with their arc lengths, angles and gains.

    The pairing is purely combinatorial and the one rule for dual pairs
    in this package; raises WrongPairCount unless exactly m - 1 distinct
    pairs are found.  The coordinates of vs fill in the rest.
    """
    adj: list[set[int]] = [set() for _ in range(graph.m)]
    for i, j in graph.edges:
        adj[i].add(j)
        adj[j].add(i)
    found: set[tuple[Edge, Edge]] = set()
    for p in range(graph.m):
        for q in range(p + 1, graph.m):
            common = sorted(adj[p] & adj[q])
            for r, s in combinations(common, 2):
                d1, d2 = (p, q), (r, s)
                found.add((min(d1, d2), max(d1, d2)))
    if len(found) != graph.m - 1:
        raise WrongPairCount(f"{len(found)} dual pairs, expected {graph.m - 1}")
    return tuple(_dual_pair(vs, e, e_dual) for e, e_dual in sorted(found))


def optimal_smoothing(pairs: tuple[DualEdgePair, ...]) -> SmoothingChoice:
    """Area-minimizing choice: smooth the longer edge of every pair.

    Ties retain the pair's first edge, which carries the lower vertex
    indices by construction.
    """
    return SmoothingChoice(tuple(p.lengths.theta <= p.lengths.theta_dual for p in pairs))


def enumerate_smoothings(
    vs: VertexSet, pairs: tuple[DualEdgePair, ...]
) -> list[tuple[SmoothingChoice, float]]:
    """All 2^(m-1) smoothings with their areas; pair i's bit is bit i of the row index.

    A row's area is one `math.fsum` over its row of the product of the
    pairs' gain pairs.  fsum is correctly rounded, so the order of the
    terms cannot change it: each area equals `meissner_area` of its
    choice bit for bit.
    """
    n = len(pairs)
    if n > 20:
        raise TooManyPairs(f"{n} pairs gives 2^{n} smoothings; refusing beyond 20")
    # each row's slot is set through its descriptor: a frozen dataclass's __init__ per row costs
    # more than the row's fsum
    new, set_bits = object.__new__, SmoothingChoice.bits.__set__
    choices = [new(SmoothingChoice) for _ in range(1 << n)]
    # product varies its last factor fastest, so reversing the pairs makes pair 0 the lowest bit
    for choice, bits in zip(choices, product((False, True), repeat=n)):
        set_bits(choice, bits[::-1])
    return list(zip(choices, map(_smoothed_area, product(*[p.gain for p in reversed(pairs)]))))


def build_meissner(vs: VertexSet, choice: SmoothingChoice | None = None) -> MeissnerPolyhedron:
    """Full pipeline: graph, dual pairs, then the given or optimal smoothing."""
    pairs = find_dual_pairs(build_diameter_graph(vs), vs)
    if choice is None:
        choice = optimal_smoothing(pairs)
    elif len(choice.bits) != len(pairs):
        raise ArgumentError(f"{len(choice.bits)} smoothing bits for {len(pairs)} pairs")
    return MeissnerPolyhedron(vs, pairs, choice)


def meissner_area(poly: MeissnerPolyhedron) -> float:
    """Surface area 2*pi - sum of f over the smoothed pairs."""
    return _smoothed_area(p.gain[b] for p, b in zip(poly.pairs, poly.choice.bits))


def meissner_volume(poly: MeissnerPolyhedron) -> float:
    """Volume area/2 - pi/3, the Blaschke identity at constant width one."""
    return meissner_area(poly) / 2.0 - math.pi / 3.0


def reuleaux_area(vs: VertexSet, pairs: tuple[DualEdgePair, ...]) -> float:
    """Surface area of the unsmoothed ball polytope.

    2*pi + sum over pairs of 4*alpha - 2*sin(theta/2)*phi - 2*sin(theta'/2)*phi'.
    """
    return 2.0 * math.pi + math.fsum(
        4.0 * p.alpha - 2.0 * math.sin(p.lengths.theta / 2) * p.phi - 2.0 * math.sin(p.lengths.theta_dual / 2) * p.phi_dual
        for p in pairs
    )


def surface_decomposition(poly: MeissnerPolyhedron) -> SurfaceDecomposition:
    """Per-patch areas: one spherical face per vertex, a wedge and a spindle per pair."""
    patches = [SurfacePatch("face", i, area) for i, area in enumerate(poly.vertices.faces.areas)]
    for i, (pair, keep_first) in enumerate(zip(poly.pairs, poly.choice.bits)):
        lengths = pair.lengths if keep_first else pair.lengths.swapped()
        patches.append(SurfacePatch("wedge", i, wedge_area(lengths)))
        phi_smoothed = dihedral_angle(lengths.swapped())
        patches.append(
            SurfacePatch("spindle", i, spindle_area(lengths.theta_dual, phi_smoothed))
        )
    return SurfaceDecomposition(tuple(patches), math.fsum(p.area for p in patches))


def direction_sphere_partition(poly: MeissnerPolyhedron) -> float:
    """Sum of face areas and rectangle areas over the sphere of directions.

    The faces and the rectangles R(theta, theta') of the dual pairs tile
    half the directions once, so the sum must be 2*pi.
    """
    rects = [rect_area(p.lengths.theta, p.lengths.theta_dual) for p in poly.pairs]
    return math.fsum(poly.vertices.faces.areas) + math.fsum(rects)


def _build_faces(vs: VertexSet) -> Faces:
    """The face rings of `_face_rings` and the geodesic area of every face, all interior angles in one pass."""
    owner, ring, after, units = _face_rings(vs)
    before = np.empty_like(after)
    before[after] = np.arange(len(after))
    prev, nxt = units[before], units[after]
    # the two sides of each corner, as tangents of the unit sphere at the corner
    tp = prev - _dot(prev, units)[:, None] * units
    tn = nxt - _dot(nxt, units)[:, None] * units
    np_, nn = np.sqrt(_dot(tp, tp)), np.sqrt(_dot(tn, tn))
    degenerate = (np_ < _NORM_FLOOR) | (nn < _NORM_FLOOR)
    if degenerate.any():
        raise GeometryError(f"degenerate corner at vertex {owner[np.argmax(degenerate)]}")
    angles = np.arccos(np.clip(_dot(tp, tn) / (np_ * nn), -1.0, 1.0))
    for shared in (owner, ring, after, units):
        shared.setflags(write=False)
    return Faces(owner, ring, after, units, tuple(geodesic_polygon_area(c) for c in _by_vertex(owner, angles)))


def _smoothed_area(gains: Iterable[float]) -> float:
    """2*pi less the gains of the smoothed pairs."""
    return 2.0 * math.pi - math.fsum(gains)


@lru_cache(maxsize=16)
def _pairs(m: int) -> np.ndarray:
    """Rows i and j of every index pair i < j of m points; read-only, built once per m."""
    pairs = np.array(np.triu_indices(m, 1))
    pairs.flags.writeable = False
    return pairs


def _pairwise(pts: np.ndarray) -> np.ndarray:
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def _dual_pair(vs: VertexSet, e: Edge, e_dual: Edge) -> DualEdgePair:
    pts = vs.points
    theta, theta_dual = (chord_to_arc(float(np.linalg.norm(pts[j] - pts[i])), vs.tol) for i, j in (e, e_dual))
    lengths = PairLengths(theta, theta_dual)
    swapped = lengths.swapped()
    phi = dihedral_angle(lengths)
    phi_dual = dihedral_angle(swapped)
    alpha = wedge_angle(lengths)
    gain = (f_pair(swapped), f_pair(lengths))
    return DualEdgePair(e, e_dual, lengths, phi, phi_dual, alpha, gain)


def _edge_arc(a: np.ndarray, b: np.ndarray, c1: np.ndarray, c2: np.ndarray, tol: float) -> Arc:
    """Arcs from a to b on the circles of points at distance one from c1 and c2, all (k, 3) rows at once.

    a and b lie within tol of distance one from both centers.  A failing
    guard reports its first failing row.
    """
    center = (c1 + c2) / 2.0
    axis = c2 - c1
    axis_norm = np.sqrt(_dot(axis, axis))
    _guard(axis_norm < _NORM_FLOOR, "coincident sphere centers give no circle")
    axis = axis / axis_norm[:, None]
    ra = a - center
    height = _dot(ra, axis)
    _guard(np.abs(height) > _ARC_PLANE_SLACK_PER_TOL * tol / axis_norm, "arc endpoint off the circle plane")
    radial = ra - height[:, None] * axis
    radius = np.sqrt(_dot(radial, radial))
    _guard(radius < _NORM_FLOOR, "arc endpoint on the circle axis")
    u = radial / radius[:, None]
    v = _cross(axis, u)
    rb = b - center
    t = np.arctan2(_dot(rb, v), _dot(rb, u))
    # an arc that runs clockwise is the same arc run counterclockwise around -v
    return Arc(center, radius, u, np.where(t[:, None] < 0.0, -v, v), np.abs(t))


def _guard(bad: np.ndarray, message: str) -> None:
    if bad.any():
        raise GeometryError(f"{message} (row {int(np.argmax(bad))})")


def _face_rings(vs: VertexSet) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every vertex's neighbors in cyclic order around its outward axis, all vertices in one pass.

    Each vertex gets a frame around the axis from it to its neighbors'
    mean, and its neighbors are sorted by angle in that frame.  Returns
    the slot arrays `owner`, `ring`, `after` and `units` of `Faces`.
    """
    pts, m = vs.points, vs.m
    edges = np.array(vs.edges, dtype=np.intp).reshape(-1, 2)
    owner, nbr = np.concatenate((edges, edges[:, ::-1])).T
    order = np.lexsort((nbr, owner))
    owner, nbr = owner[order], nbr[order]
    degree = np.bincount(owner, minlength=m)
    # neighbors summed one at a time in ascending order
    total = np.zeros((m, 3))
    np.add.at(total, owner, pts[nbr])
    axis = total / np.maximum(degree, 1)[:, None] - pts
    norm = np.sqrt(_dot(axis, axis))
    flat = norm < _FACE_CYCLE_TOL
    axis = np.where(flat[:, None], 1.0, axis / np.where(flat, 1.0, norm)[:, None])
    t1 = _cross(axis, np.eye(3)[np.argmin(np.abs(axis), axis=1)])
    t1 = t1 / np.sqrt(_dot(t1, t1))[:, None]
    t2 = _cross(axis, t1)
    d = pts[nbr] - pts[owner]
    # + 0.0 turns a zero coordinate into +0.0, so a neighbor on the cut behind the frame reads +pi
    angle = np.arctan2(_dot(d, t2[owner]) + 0.0, _dot(d, t1[owner]) + 0.0)
    # by vertex, then angle, ties by neighbor index
    order = np.lexsort((nbr, angle, owner))
    ring, angle, d = nbr[order], angle[order], d[order]
    start = (np.cumsum(degree) - degree)[owner]
    slot = np.arange(len(owner)) - start
    last = slot + 1 == degree[owner]
    after = np.where(last, start, start + slot + 1)
    gap = angle[after] + np.where(last, 2 * math.pi, 0.0) - angle
    short = degree < 3
    coincident = gap < _FACE_CYCLE_TOL
    bad = short | flat | (np.bincount(owner, weights=coincident, minlength=m) > 0)
    if bad.any():
        i = int(np.argmax(bad))
        if short[i]:
            raise FaceCycleError(f"vertex {i} has only {degree[i]} neighbors")
        if flat[i]:
            raise FaceCycleError(f"neighbors of vertex {i} have no outward axis")
        e = int(np.argmax(coincident & (owner == i)))
        raise FaceCycleError(f"neighbors {ring[e]} and {ring[after[e]]} of vertex {i} are angularly coincident")
    return owner, ring, after, d / np.sqrt(_dot(d, d))[:, None]


def _by_vertex(owner: np.ndarray, values: np.ndarray) -> list[list]:
    """Split values over the face slots (see `Faces`) into one list per vertex."""
    bounds = [0, *(np.flatnonzero(np.diff(owner)) + 1).tolist(), len(owner)]
    values = values.tolist()
    return [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the last axis, summed in the same order for every shape."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the last axis, bitwise equal to `np.cross` without its axis handling."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=-1)
