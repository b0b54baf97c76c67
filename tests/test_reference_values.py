"""The frozen constants of conftest, re-derived from their closed forms at 30 digits."""

import math

import pytest
from mpmath import acos, asin, cos, fsum, mp, mpf, pi, sin, sqrt, tan

import conftest


def f(x, y):
    """Smoothing gain, retained arc x, smoothed arc y."""
    return 2 * y * cos(y / 2) * asin(sin(x / 2) / cos(y / 2))


def dihedral(x, y):
    """Dihedral angle of the edge with arc x, its dual with arc y."""
    return 2 * asin(sin(y / 2) / cos(x / 2))


def crossing(x, y):
    return asin(tan(x / 2) * tan(y / 2))


def pyramid_gain(k):
    """Total gain of the regular wheel pyramid with 2k + 1 base points, pair lengths from its coordinates.

    Apex edge (0, b_i) pairs with the base diagonal (b_{i-k}, b_{i+k});
    the optimal smoothing smooths the longer arc of each pair.
    """
    n = 2 * k + 1
    sin_r = 1 / (2 * sin(pi * k / n))
    base = [(sin_r * cos(2 * pi * i / n), sin_r * sin(2 * pi * i / n), sqrt(1 - sin_r**2)) for i in range(n)]
    gains = []
    for i in range(n):
        diagonal = sqrt(fsum((p - q) ** 2 for p, q in zip(base[(i - k) % n], base[(i + k) % n])))
        apex = sqrt(fsum(p**2 for p in base[i]))
        gains.append(f(*sorted((2 * asin(diagonal / 2), 2 * asin(apex / 2)))))
    return fsum(gains)


def _reference() -> dict:
    with mp.workdps(30):
        third = pi / 3  # the arc of a unit chord, so of every tetrahedron edge
        rect, side = 4 * crossing(third, third), 2 * sin(third / 2) * dihedral(third, third)
        gains = {"TETRA": 3 * f(third, third)} | {f"PYR{k}": pyramid_gain(k) for k in (1, 2, 3, 4)}
        areas = {body: 2 * pi - gain for body, gain in gains.items()}
        return {
            "ACOS_THIRD": acos(mpf(1) / 3),
            "F_TETRA_PAIR": f(third, third),
            "F_TRIPLE": gains["TETRA"],
            "RECT_TETRA": rect,
            "WEDGE_TETRA": rect - side,
            "SPINDLE_TETRA": 2 * dihedral(third, third) * (sin(third / 2) - third / 2 * cos(third / 2)),
            # equilateral spherical triangle of side pi/3: its corner angles are arccos(1/3)
            "FACE_TRIANGLE_AREA": 3 * acos(mpf(1) / 3) - pi,
            "TETRA_AREA": areas["TETRA"],
            "TETRA_VOLUME": areas["TETRA"] / 2 - pi / 3,
            "REULEAUX_TETRA_AREA": 2 * pi + 3 * (rect - 2 * side),
            # the optimizer's objective in units of pi/3; k = 1 is the tetrahedron
            "PYRAMID_OBJECTIVE_MAX": gains["PYR1"] / third,
            "PYR2_OBJECTIVE": gains["PYR2"] / third,
            "PYR2_AREA": areas["PYR2"],
            "PYR2_VOLUME": areas["PYR2"] / 2 - pi / 3,
            "PYR3_OBJECTIVE": gains["PYR3"] / third,
            "PYR3_AREA": areas["PYR3"],
            "PYR3_VOLUME": areas["PYR3"] / 2 - pi / 3,
            "PYR4_AREA": areas["PYR4"],
            "CHORD_HALF_ARC": 2 * asin(mpf(1) / 4),
        }


REFERENCE = _reference()


def test_every_frozen_constant_has_a_derivation():
    pasted = {name for name, value in vars(conftest).items() if name.isupper() and isinstance(value, float)}
    # PI3 is computed in conftest, not pasted
    assert set(REFERENCE) == pasted - {"PI3"}


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_frozen_constant_matches_its_closed_form(name):
    pasted = getattr(conftest, name)
    assert abs(float(REFERENCE[name]) - pasted) <= math.ulp(pasted)
