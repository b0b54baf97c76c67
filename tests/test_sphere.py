"""Closed-form spherical trigonometry checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meissner import (
    DiameterViolation,
    GeometryError,
    PairLengths,
    chord_to_arc,
    dihedral_angle,
    f_pair,
    f_partial_x,
    rect_area,
    spindle_area,
    wedge_angle,
    wedge_area,
)
from meissner import sphere
from meissner.sphere import f_property_check, geodesic_polygon_area

from conftest import (
    ACOS_THIRD,
    CHORD_HALF_ARC,
    F_TETRA_PAIR,
    PI3,
    RECT_TETRA,
    SPINDLE_TETRA,
    WEDGE_TETRA,
)

arc = st.floats(min_value=0.0, max_value=PI3, allow_nan=False)
# strictly interior arcs, so derivative and division formulas stay away
# from the removable singularities at 0
arc_interior = st.floats(min_value=1e-3, max_value=PI3 - 1e-3, allow_nan=False)


def test_chord_to_arc_values():
    assert chord_to_arc(1.0) == pytest.approx(PI3, abs=1e-15)
    assert chord_to_arc(0.5) == pytest.approx(CHORD_HALF_ARC, abs=1e-15)
    assert chord_to_arc(0.0) == 0.0


def test_chord_to_arc_clamping():
    # spill inside the tolerance clamps to pi/3, beyond it raises
    assert chord_to_arc(1.0 + 5e-10) == pytest.approx(PI3, abs=1e-9)
    assert chord_to_arc(-1e-10) == 0.0
    with pytest.raises(DiameterViolation):
        chord_to_arc(1.0 + 2e-9)
    with pytest.raises(GeometryError):
        chord_to_arc(-1e-8)


def test_pair_lengths_range_check():
    PairLengths(0.0, 0.0)
    PairLengths(PI3, PI3)
    with pytest.raises(GeometryError):
        PairLengths(PI3 + 1e-6, 0.1)
    with pytest.raises(GeometryError):
        PairLengths(0.1, -1e-6)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: rect_area(math.pi, 0.1), "rectangle parameter"),
        (lambda: rect_area(-1e-3, 0.1), "rectangle parameter"),
        # both parameters in range, but tan(3/2)^2 = 198.85 is no sine
        (lambda: rect_area(3.0, 3.0), "trig argument"),
        (lambda: spindle_area(2.0, 0.1), "spindle arc"),
        (lambda: spindle_area(0.5, -0.1), "negative spindle sweep"),
    ],
)
def test_public_closed_forms_refuse_out_of_range_arguments(call, message):
    with pytest.raises(GeometryError, match=message):
        call()


def test_tetrahedron_pair_values():
    lengths = PairLengths(PI3, PI3)
    assert dihedral_angle(lengths) == pytest.approx(ACOS_THIRD, abs=1e-15)
    assert rect_area(PI3, PI3) == pytest.approx(RECT_TETRA, abs=1e-14)
    assert wedge_area(lengths) == pytest.approx(WEDGE_TETRA, abs=1e-14)
    assert spindle_area(PI3, ACOS_THIRD) == pytest.approx(SPINDLE_TETRA, abs=1e-14)
    assert f_pair(lengths) == pytest.approx(F_TETRA_PAIR, abs=1e-14)


@given(arc, arc)
def test_f_equals_rect_minus_wedge_minus_spindle(x, y):
    lengths = PairLengths(x, y)
    phi_dual = dihedral_angle(lengths.swapped())
    direct = f_pair(lengths)
    composed = rect_area(x, y) - wedge_area(lengths) - spindle_area(y, phi_dual)
    assert abs(direct - composed) < 1e-12


def test_f_is_bitwise_the_dual_dihedral_form():
    # f = y * cos(y/2) * phi(e'), with phi(e') taken from the swapped pair
    xs = np.linspace(0.0, PI3, 200).tolist()
    for x in xs:
        for y in xs:
            lengths = PairLengths(x, y)
            assert f_pair(lengths) == y * math.cos(y / 2) * dihedral_angle(lengths.swapped()), (x, y)


@given(arc, arc)
def test_rect_area_is_four_wedge_angles(x, y):
    assert abs(rect_area(x, y) - 4.0 * wedge_angle(PairLengths(x, y))) < 1e-12


@given(arc, arc)
def test_pair_symmetries(x, y):
    lengths = PairLengths(x, y)
    assert abs(wedge_angle(lengths) - wedge_angle(lengths.swapped())) < 1e-14


@given(arc, arc)
def test_dihedral_angle_range(x, y):
    phi = dihedral_angle(PairLengths(x, y))
    assert 0.0 <= phi <= ACOS_THIRD + 1e-12


@given(arc)
def test_degenerate_pair_loses_nothing(x):
    # a zero-length edge on either side means no smoothing gain
    assert f_pair(PairLengths(x, 0.0)) == 0.0
    assert f_pair(PairLengths(0.0, x)) == 0.0


@given(arc_interior, arc_interior)
def test_smoothing_longer_edge_gains_more(x, y):
    lo, hi = sorted((x, y))
    assert f_pair(PairLengths(lo, hi)) >= f_pair(PairLengths(hi, lo)) - 1e-12


@given(arc_interior, arc_interior)
@settings(max_examples=60)
def test_f_partial_x_matches_finite_differences(x, y):
    h = 1e-6
    fd = (f_pair(PairLengths(x + h, y)) - f_pair(PairLengths(x - h, y))) / (2.0 * h)
    exact = f_partial_x(PairLengths(x, y))
    assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_geodesic_polygon_area():
    # equilateral spherical triangle of the tetrahedron face normals
    area = geodesic_polygon_area([ACOS_THIRD] * 3)
    assert area == pytest.approx(3.0 * ACOS_THIRD - math.pi, abs=1e-15)
    with pytest.raises(GeometryError):
        geodesic_polygon_area([1.0, 2.0])
    with pytest.raises(GeometryError):
        geodesic_polygon_area([0.1, 0.1, 0.1])


@pytest.mark.parametrize(
    "dent, failing",
    [
        (1e-4, {"convex_x", "convex_y"}),
        (-1e-4, {"convex_x", "convex_y", "swap_dominance"}),
        (-1.0, {"increasing_x", "increasing_y", "convex_x", "convex_y", "swap_dominance"}),
    ],
)
def test_f_property_check_flags_one_dented_value(monkeypatch, dent, failing):
    xs, clean, verdicts = f_property_check(12)
    assert all(verdicts.values())
    # an interior grid point with y > x, where f(x, y) > f(y, x)
    target = (xs[3], xs[7])

    def dented(lengths):
        value = f_pair(lengths)
        return value + dent if (lengths.theta, lengths.theta_dual) == target else value

    monkeypatch.setattr(sphere, "f_pair", dented)
    _, values, verdicts = f_property_check(12)
    assert np.flatnonzero(values != clean).tolist() == [7 * 12 + 3]
    assert {name for name, ok in verdicts.items() if not ok} == failing
