"""Monte Carlo oracle for ball-intersection bodies.

A body is represented by its generating centers: a finite point set
plus circular arcs, the body being the intersection of all unit balls
centered there.  Membership therefore reduces to one farthest-distance
computation per arc, and the volume estimate needs no geometry beyond
that.  Sampling is chunked, with each chunk driven by its own
counter-based generator keyed by (seed, chunk index), so results are
reproducible bit for bit regardless of how chunks are scheduled.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, EmptySystem, NoIntersection
from .polytope import Arc, MeissnerPolyhedron

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
# squared center distance below which two spheres coincide and share no circle
_COINCIDENT_SQ = 1e-30
# a direction whose part off the centers' axis is under this meets a level circle with no single top
_NORM_FLOOR = 1e-12


@dataclass(frozen=True, slots=True)
class BallSystem:
    """Generating centers of an intersection of unit balls."""

    centers: np.ndarray
    arcs: tuple[Arc, ...]

    @classmethod
    def from_meissner(cls, poly: MeissnerPolyhedron) -> "BallSystem":
        """Vertices plus one retained edge arc per dual pair."""
        arcs = tuple(poly.retained_arc(i) for i in range(len(poly.pairs)))
        return cls(np.array(poly.vertices.points, dtype=float), arcs)

    @classmethod
    def from_points(cls, points: np.ndarray) -> "BallSystem":
        return cls(np.array(points, dtype=float), ())


@dataclass(frozen=True, slots=True)
class McResult:
    volume: float
    std_error: float
    samples: int
    seed: int
    hits: int


def mc_volume(system: BallSystem, samples: int, seed: int, threads: int = 1) -> McResult:
    """Rejection-sample the unit ball around the first point center.

    Deterministic for fixed (samples, seed): the sample stream is a pure
    function of the chunk index, so the thread count cannot change the
    estimate.
    """
    if len(system.centers) == 0:
        raise EmptySystem("no point centers to anchor the sampling ball")
    if samples < 1:
        raise ArgumentError(f"sample count must be positive, got {samples}")
    if threads < 1:
        raise ArgumentError(f"thread count must be positive, got {threads}")
    base = system.centers[0]
    nchunks = (samples + CHUNK - 1) // CHUNK

    def run(chunk: int) -> int:
        n = min(CHUNK, samples - chunk * CHUNK)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(chunk,))))
        q = rng.random((3, n))
        z = 1.0 - 2.0 * q[0]
        azimuth = 2.0 * math.pi * q[1]
        radius = np.cbrt(q[2])
        s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        pts = base + radius[:, None] * np.stack(
            (s * np.cos(azimuth), s * np.sin(azimuth), z), axis=1
        )
        return int(np.count_nonzero(_inside(system, pts)))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            hits = sum(pool.map(run, range(nchunks)))
    else:
        hits = sum(run(c) for c in range(nchunks))
    p = hits / samples
    volume = _BALL_VOLUME * p
    std_error = _BALL_VOLUME * math.sqrt(p * (1.0 - p) / samples)
    return McResult(volume, std_error, samples, seed, hits)


def width_samples(
    system: BallSystem, directions: int, seed: int
) -> tuple[float, float]:
    """Min and max width h(u) + h(-u) over random unit directions."""
    if len(system.centers) == 0:
        raise EmptySystem("no point centers")
    if directions < 1:
        raise ArgumentError(f"direction count must be positive, got {directions}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    dirs = rng.normal(size=(directions, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    widths = [support(system, u) + support(system, -u) for u in dirs]
    return min(widths), max(widths)


def support(system: BallSystem, direction: np.ndarray) -> float:
    """Support function of the body in a unit direction.

    The support point of an intersection of unit balls is either on a
    sphere patch (center + direction for the generating center), on a
    sharp edge (a generator arc, or the intersection circle of two of
    the spheres), or at a corner, which for these bodies is always a
    generating point.  All such candidates are screened against the
    ball constraints with a small slack; the best survivor is exact up
    to that slack.
    """
    u = np.asarray(direction, dtype=float)
    centers = system.centers
    cands = [centers + u, centers]
    for arc in system.arcs:
        pts = arc.point(_arc_criticals(arc, u))
        cands.append(pts + u)
        cands.append(pts)
    tops = []
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            top = _circle_top(centers[i], centers[j], u)
            if top is not None:
                tops.append(top)
    if tops:
        cands.append(np.stack(tops))
    pts = np.concatenate(cands, axis=0)
    ok = _inside(system, pts, slack=_SUPPORT_SLACK)
    if not ok.any():
        raise NoIntersection("no feasible support candidate; the balls may not intersect")
    return float((pts[ok] @ u).max())


def _arc_criticals(arc: Arc, u: np.ndarray) -> np.ndarray:
    """Parameters where u . arc.point(t) can be extremal on [0, sweep]."""
    ts = [0.0, arc.sweep]
    peak = math.atan2(float(u @ arc.v), float(u @ arc.u)) % (2.0 * math.pi)
    for t in (peak, (peak + math.pi) % (2.0 * math.pi)):
        if t < arc.sweep:
            ts.append(t)
    return np.array(ts)


def _circle_top(c1: np.ndarray, c2: np.ndarray, u: np.ndarray) -> np.ndarray | None:
    """Highest point along u of the unit spheres' intersection circle."""
    d = c2 - c1
    d2 = float(d @ d)
    if d2 >= 4.0 or d2 < _COINCIDENT_SQ:
        return None
    radius = math.sqrt(1.0 - 0.25 * d2)
    axial = float(u @ d) / d2
    perp = u - axial * d
    norm = float(np.linalg.norm(perp))
    if norm < _NORM_FLOOR:
        return None
    return (c1 + c2) / 2.0 + radius / norm * perp


def _inside(system: BallSystem, pts: np.ndarray, slack: float = 0.0) -> np.ndarray:
    limit = (1.0 + slack) ** 2
    mask = np.ones(len(pts), dtype=bool)
    for c in system.centers:
        d = pts - c
        mask &= np.einsum("ij,ij->i", d, d) <= limit
    for arc in system.arcs:
        mask &= _max_dist_sq(arc, pts) <= limit
    return mask


def _max_dist_sq(arc: Arc, pts: np.ndarray) -> np.ndarray:
    w = pts - arc.center
    wu = w @ arc.u
    wv = w @ arc.v
    w2 = np.einsum("ij,ij->i", w, w)
    r = arc.radius
    rho = np.hypot(wu, wv)
    t = np.arctan2(-wv, -wu) % (2.0 * math.pi)
    far = w2 + r * r + 2.0 * r * rho
    d0 = w2 + r * r - 2.0 * r * wu
    d1 = w2 + r * r - 2.0 * r * (wu * math.cos(arc.sweep) + wv * math.sin(arc.sweep))
    return np.where(t <= arc.sweep, far, np.maximum(d0, d1))
