"""Closed-form spherical trigonometry for unit-ball intersection bodies.

All angles are radians.  Edge arcs are angular measures of chords of
length at most one, so they live in [0, pi/3]; dihedral angles live in
[0, arccos(1/3)].  Within those ranges, which PairLengths enforces up
to CLAMP_TOL, the pair formulas take arcsin of at most about tan(pi/6)
and need no clamping.  rect_area, whose parameters run to pi, and
chord_to_arc clamp spill within CLAMP_TOL and raise GeometryError
beyond it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DiameterViolation, GeometryError

__all__ = [
    "CLAMP_TOL",
    "EDGE_ARC_MAX",
    "PairLengths",
    "chord_to_arc",
    "dihedral_angle",
    "wedge_angle",
    "rect_area",
    "wedge_area",
    "spindle_area",
    "f_pair",
    "f_partial_x",
    "f_property_check",
    "geodesic_polygon_area",
]

CLAMP_TOL = 1e-9
EDGE_ARC_MAX = math.pi / 3
# f is increasing, convex and swap-dominant exactly; its O(1) grid values may break that by rounding
_F_GRID_SLACK = 1e-12
# central differences at step _F_DIFF_STEP carry about 1e-10 of rounding, well inside _F_DERIVATIVE_TOL
_F_DIFF_STEP = 1e-6
_F_DERIVATIVE_TOL = 1e-6
# a face's angles are arccos values a few ulps off; an excess below minus this is a real error
_POLYGON_AREA_SLACK = 1e-9


def _clamped(value: float) -> float:
    if value > 1.0 + CLAMP_TOL or value < -1.0 - CLAMP_TOL:
        raise GeometryError(f"trig argument {value!r} outside [-1, 1]")
    return min(1.0, max(-1.0, value))


@dataclass(frozen=True, slots=True)
class PairLengths:
    """Arc lengths (theta, theta_dual) of a dual edge pair, each in [0, pi/3] up to CLAMP_TOL.

    By convention the first entry is the retained (wedge) edge and the
    second the smoothed (spindle) edge whenever a smoothing is in play.
    """

    theta: float
    theta_dual: float

    def __post_init__(self) -> None:
        for value in (self.theta, self.theta_dual):
            if not -CLAMP_TOL <= value <= EDGE_ARC_MAX + CLAMP_TOL:
                raise GeometryError(f"edge arc {value!r} outside [0, pi/3]")

    def swapped(self) -> "PairLengths":
        return PairLengths(self.theta_dual, self.theta)


def chord_to_arc(chord: float, tol: float = CLAMP_TOL) -> float:
    """Angular measure 2*arcsin(chord/2) of a chord of a unit-radius arc."""
    if chord > 1.0 + tol:
        raise DiameterViolation(f"chord {chord!r} exceeds one")
    if chord < 0.0:
        if chord < -tol:
            raise GeometryError(f"negative chord {chord!r}")
        chord = 0.0
    return 2.0 * math.asin(min(chord, 1.0) / 2.0)


def dihedral_angle(lengths: PairLengths) -> float:
    """Dihedral angle phi(e) of the first edge: sin(phi/2) = sin(theta'/2)/cos(theta/2)."""
    s = math.sin(lengths.theta_dual / 2) / math.cos(lengths.theta / 2)
    return 2.0 * math.asin(s)


def wedge_angle(lengths: PairLengths) -> float:
    """Crossing angle alpha(e): cos(alpha)*cos(theta'/2) = cos(phi(e)/2).

    Symmetric under swapping the pair.  Computed through the equivalent
    alpha = arcsin(tan(theta/2)*tan(theta'/2)), which keeps absolute
    precision when alpha is small; the arccos form loses half the digits
    there.
    """
    t = math.tan(lengths.theta / 2) * math.tan(lengths.theta_dual / 2)
    return math.asin(t)


def rect_area(theta: float, theta_dual: float) -> float:
    """Area 4*arcsin(tan(theta/2)*tan(theta_dual/2)) of a spherical rectangle R(theta, theta')."""
    for value in (theta, theta_dual):
        # the same rounding slack as the trig arguments, below zero only
        if not -CLAMP_TOL <= value < math.pi:
            raise GeometryError(f"rectangle parameter {value!r} outside [0, pi)")
    t = math.tan(theta / 2) * math.tan(theta_dual / 2)
    return 4.0 * math.asin(_clamped(t))


def wedge_area(lengths: PairLengths) -> float:
    """Area of the wedge W(e) left uncovered at the retained edge.

    |W(e)| = 4*alpha(e) - 2*sin(theta(e')/2)*phi(e').
    """
    phi_dual = dihedral_angle(lengths.swapped())
    return 4.0 * wedge_angle(lengths) - 2.0 * math.sin(lengths.theta_dual / 2) * phi_dual


def spindle_area(theta: float, phi: float) -> float:
    """Area 2*phi*(sin(theta/2) - (theta/2)*cos(theta/2)) of a spindle patch.

    theta is the arc of the smoothed edge, phi the dihedral angle swept by
    the rotation of its profile.
    """
    if not -CLAMP_TOL <= theta <= EDGE_ARC_MAX + CLAMP_TOL:
        raise GeometryError(f"spindle arc {theta!r} outside [0, pi/3]")
    if phi < -CLAMP_TOL:
        raise GeometryError(f"negative spindle sweep {phi!r}")
    return 2.0 * phi * (math.sin(theta / 2) - (theta / 2) * math.cos(theta / 2))


def f_pair(lengths: PairLengths) -> float:
    """Surface area lost by smoothing the second edge of a dual pair.

    f(x, y) = 2*y*cos(y/2)*arcsin(sin(x/2)/cos(y/2)) with x the retained
    arc and y the smoothed arc; equivalently y*cos(y/2)*phi(e'), and also
    rect_area(x, y) - wedge_area - spindle_area.  The Meissner surface
    area is 2*pi minus the sum of f over all dual pairs.  phi(e') is
    inlined with `dihedral_angle`'s operations, so f is bitwise
    y*cos(y/2)*dihedral_angle(lengths.swapped()) without building and
    revalidating the swapped pair.
    """
    x, y = lengths.theta, lengths.theta_dual
    cos_half = math.cos(y / 2)
    return y * cos_half * (2.0 * math.asin(math.sin(x / 2) / cos_half))


def f_partial_x(lengths: PairLengths) -> float:
    """Partial derivative of f_pair in its first argument.

    df/dx = y*cos(x/2)*cos(y/2) / sqrt(1 - sin^2(x/2) - sin^2(y/2)),
    whose radicand is at least 1/2 - 2e-9 on PairLengths' range.
    """
    x, y = lengths.theta, lengths.theta_dual
    rad = 1.0 - math.sin(x / 2) ** 2 - math.sin(y / 2) ** 2
    return y * math.cos(x / 2) * math.cos(y / 2) / math.sqrt(rad)


def f_property_check(grid: int) -> tuple[list[float], np.ndarray, dict[str, bool]]:
    """Tabulate f on a grid x grid lattice of [0, pi/3]^2 and check its properties.

    Returns the angles xs, values[yi, xi] = f(xs[xi], xs[yi]) and six named
    verdicts: f increasing and convex along each axis, f(x, y) >= f(y, x)
    for y >= x, and f_partial_x matching central differences of f on a
    fixed 3 x 3 set and on every tenth interior point of a 200-point grid.
    """
    if grid < 2:
        raise ArgumentError(f"grid must be at least 2, got {grid}")
    xs = [EDGE_ARC_MAX * i / (grid - 1) for i in range(grid)]
    values = np.array([[f_pair(PairLengths(x, y)) for x in xs] for y in xs])
    fine = np.linspace(0.0, EDGE_ARC_MAX, 200)[5:-5:10]
    points = [(x, y) for x in (0.1, 0.5, 0.9) for y in (0.2, 0.6, 1.0)] + [(x, y) for x in fine for y in fine]
    h = _F_DIFF_STEP
    fd = np.array([f_pair(PairLengths(x + h, y)) - f_pair(PairLengths(x - h, y)) for x, y in points]) / (2 * h)
    exact = np.array([f_partial_x(PairLengths(x, y)) for x, y in points])
    return xs, values, {
        "increasing_x": bool((np.diff(values, axis=1) >= -_F_GRID_SLACK).all()),
        "increasing_y": bool((np.diff(values, axis=0) >= -_F_GRID_SLACK).all()),
        "convex_x": bool((np.diff(values, 2, axis=1) >= -_F_GRID_SLACK).all()),
        "convex_y": bool((np.diff(values, 2, axis=0) >= -_F_GRID_SLACK).all()),
        "swap_dominance": bool(((values - values.T)[np.tril_indices(grid)] >= -_F_GRID_SLACK).all()),
        "derivative_match": bool((abs(fd - exact) <= _F_DERIVATIVE_TOL * np.maximum(1.0, abs(exact))).all()),
    }


def geodesic_polygon_area(angles: list[float] | tuple[float, ...]) -> float:
    """Spherical excess sum(angles) - (k - 2)*pi of a geodesic polygon.

    angles are the interior angles; k = len(angles) must be at least 3.
    """
    k = len(angles)
    if k < 3:
        raise GeometryError(f"polygon needs at least 3 vertices, got {k}")
    area = math.fsum(angles) - (k - 2) * math.pi
    if area < -_POLYGON_AREA_SLACK:
        raise GeometryError(f"negative polygon area {area!r}")
    return max(area, 0.0)
