"""Shared fixtures and frozen reference values.

The constants below were computed once with 30-digit arithmetic from
the closed forms and rounded to double precision; tests compare against
them instead of re-deriving them, so a regression in any formula shows
up as a plain numeric mismatch.  `max_dist_sq` is the reference for the
Monte Carlo oracle's arc test.
"""

import math

import numpy as np
import pytest

from meissner import (
    Arc,
    build_diameter_graph,
    build_meissner,
    find_dual_pairs,
    regular_pyramid,
    regular_tetrahedron,
)

ACOS_THIRD = 1.23095941734077468

# tetrahedron, all dual pairs at (pi/3, pi/3)
F_TETRA_PAIR = 1.11635670428541018
F_TRIPLE = 3.34907011285623054  # total smoothing gain of the three pairs
RECT_TETRA = 1.35934763781648775
WEDGE_TETRA = 0.12838822047571307
SPINDLE_TETRA = 0.11460271305536450
FACE_TRIANGLE_AREA = 0.55128559843253081
TETRA_AREA = 2.93411519432335594
TETRA_VOLUME = 0.41986004596508022
REULEAUX_TETRA_AREA = 2.97547171658440163

# wheel pyramids over n = 2k + 1 base vertices, optimal smoothing
PYRAMID_OBJECTIVE_MAX = 3.19812637933440517
PYR2_OBJECTIVE = 3.15981344068315290
PYR2_AREA = 2.97423640985809279
PYR2_VOLUME = 0.43992065373244865
PYR3_OBJECTIVE = 3.15063239359745826
PYR3_AREA = 2.98385077988365288
PYR3_VOLUME = 0.44472783874522869
PYR4_AREA = 2.98765462600641013

CHORD_HALF_ARC = 0.50536051028415731

PI3 = math.pi / 3


@pytest.fixture(scope="session")
def tetra_vs():
    return regular_tetrahedron()


@pytest.fixture(scope="session")
def tetra_pairs(tetra_vs):
    return find_dual_pairs(build_diameter_graph(tetra_vs), tetra_vs)


@pytest.fixture(scope="session")
def tetra_poly(tetra_vs):
    return build_meissner(tetra_vs)


@pytest.fixture(scope="session")
def pyr2_vs():
    return regular_pyramid(2)


@pytest.fixture(scope="session")
def pyr2_poly(pyr2_vs):
    return build_meissner(pyr2_vs)


@pytest.fixture(scope="session")
def pyr3_vs():
    return regular_pyramid(3)


@pytest.fixture(scope="session")
def pyr3_poly(pyr3_vs):
    return build_meissner(pyr3_vs)


def triangle_center_set() -> np.ndarray:
    """Four coplanar points of diameter one with only three unit distances."""
    h = math.sqrt(3.0) / 2.0
    return np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.5, h, 0.0],
            [0.5, h / 3.0, 0.0],
        ]
    )


def doubled_point_set() -> np.ndarray:
    """e = 0, a = (0, 0, 1), c = (sin 60°, 0, 1/2), d = c turned about z to |cd| = 1/2, and a again.

    Eight unit distances, 2m - 2 for m = 5, so only the repeated point
    keeps it from being an extremal set.
    """
    c = np.array([math.sin(math.pi / 3.0), 0.0, 0.5])
    turn = 2.0 * math.asin(0.25 / c[0])
    d = np.array([c[0] * math.cos(turn), c[0] * math.sin(turn), 0.5])
    a = np.array([0.0, 0.0, 1.0])
    return np.array([np.zeros(3), a, c, d, a])


def noisy_tetrahedron(seed: int) -> np.ndarray:
    """Regular tetrahedron with 4e-7 noise: inside tol=1e-5, outside the default."""
    return regular_tetrahedron().points + np.random.default_rng(seed).normal(scale=4e-7, size=(4, 3))


def max_dist_sq(arcs: Arc, i: int, pts: np.ndarray) -> np.ndarray:
    """Squared distance from each point to the farthest point of arc i.

    The farthest point is where the arc meets the ray opposite the
    point's projection on the arc's circle when that ray crosses the
    arc, found by angle, and otherwise an endpoint.
    """
    w = pts - arcs.center[i]
    wu = w @ arcs.u[i]
    wv = w @ arcs.v[i]
    w2 = np.einsum("ij,ij->i", w, w)
    r = float(arcs.radius[i])
    sweep = float(arcs.sweep[i])
    t = np.arctan2(-wv, -wu) % (2.0 * math.pi)
    far = w2 + r * r + 2.0 * r * np.hypot(wu, wv)
    d0 = w2 + r * r - 2.0 * r * wu
    d1 = w2 + r * r - 2.0 * r * (wu * math.cos(sweep) + wv * math.sin(sweep))
    return np.where(t <= sweep, far, np.maximum(d0, d1))
