"""Reference extremal sets and the plain-text vertex file format.

A vertex file holds the point count on its first line, one point per
line as three floats, and optionally a line reading EDGES followed by
the 0-based index pairs of the diameter graph.  Coordinates are written
with 17 significant digits so a save/load round trip is bitwise exact.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import ArgumentError, ParseError, ValidationMismatch
from .polytope import DEFAULT_TOL, VertexSet, validate_vertex_set

__all__ = [
    "regular_tetrahedron",
    "regular_pyramid",
    "load_vertex_file",
    "save_vertex_file",
]


def regular_tetrahedron() -> VertexSet:
    """Four points with all six pairwise distances equal to one."""
    points = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.5, math.sqrt(3.0) / 2.0, 0.0],
            [0.5, math.sqrt(3.0) / 6.0, math.sqrt(6.0) / 3.0],
        ]
    )
    return validate_vertex_set(points)


def regular_pyramid(k: int) -> VertexSet:
    """Wheel pyramid: apex plus n = 2k + 1 points on the unit sphere around it.

    Base points sit on a circle of spherical radius r with
    sin(r) = 1/(2*sin(pi*k/n)), which puts every k-step base diagonal at
    distance exactly one.  k = 1 reproduces the regular tetrahedron up
    to a rigid motion.
    """
    if k < 1:
        raise ArgumentError(f"pyramid parameter k must be positive, got {k}")
    n = 2 * k + 1
    sin_r = 1.0 / (2.0 * math.sin(math.pi * k / n))
    cos_r = math.sqrt(1.0 - sin_r * sin_r)
    points = [np.zeros(3)]
    for i in range(n):
        psi = 2.0 * math.pi * i / n
        points.append(np.array([sin_r * math.cos(psi), sin_r * math.sin(psi), cos_r]))
    return validate_vertex_set(np.array(points))


def save_vertex_file(vs: VertexSet, path: str | Path, edges: bool = False) -> None:
    """Write a vertex set, optionally with its diameter graph appended."""
    lines = [str(vs.m)]
    for p in vs.points:
        lines.append(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}")
    if edges:
        lines.append("EDGES")
        for i, j in vs.edges:
            lines.append(f"{i} {j}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_vertex_file(path: str | Path, tol: float = DEFAULT_TOL) -> VertexSet:
    """Parse and validate a vertex file; cross-check any declared edges."""
    try:
        raw = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None
    lines = [(k + 1, line.strip()) for k, line in enumerate(raw) if line.strip()]
    if not lines:
        raise ParseError(f"{path}: empty file")
    lineno, head = lines[0]
    try:
        m = int(head)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: expected a point count, got {head!r}") from None
    if m < 4:
        raise ParseError(f"{path}:{lineno}: at least 4 points required, got {m}")
    if len(lines) < m + 1:
        raise ParseError(f"{path}: expected {m} coordinate lines, found {len(lines) - 1}")
    points = np.empty((m, 3))
    for row, (lineno, line) in enumerate(lines[1 : m + 1]):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 coordinates, got {len(parts)}")
        try:
            points[row] = [float(p) for p in parts]
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad coordinate in {line!r}") from None
    vs = validate_vertex_set(points, tol)
    rest = lines[m + 1 :]
    if rest:
        lineno, marker = rest[0]
        if marker != "EDGES":
            raise ParseError(f"{path}:{lineno}: expected EDGES, got {marker!r}")
        declared = set()
        for lineno, line in rest[1:]:
            parts = line.split()
            try:
                i, j = (int(p) for p in parts)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad edge line {line!r}") from None
            if not (0 <= i < m and 0 <= j < m) or i == j:
                raise ParseError(f"{path}:{lineno}: edge ({i}, {j}) out of range")
            declared.add((min(i, j), max(i, j)))
        computed = set(vs.edges)
        if declared != computed:
            missing = sorted(computed - declared)
            extra = sorted(declared - computed)
            raise ValidationMismatch(
                f"{path}: declared edges disagree with the diameter graph"
                f" (missing {missing}, extra {extra})"
            )
    return vs
