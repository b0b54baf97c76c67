"""Rejection sampling oracle and direction width sampling."""

import math

import numpy as np
import pytest

from meissner import (
    BallSystem,
    EmptySystem,
    build_meissner,
    mc_volume,
    meissner_volume,
    regular_tetrahedron,
    width_samples,
)
from meissner.montecarlo import _inside, _max_dist_sq, support


@pytest.fixture(scope="module")
def tetra_system(tetra_poly):
    return BallSystem.from_meissner(tetra_poly)


@pytest.fixture(scope="module")
def reuleaux_system(tetra_vs):
    return BallSystem.from_points(np.array(tetra_vs.points))


def test_max_dist_point_to_arc_matches_brute_force(tetra_poly):
    rng = np.random.default_rng(11)
    for i in range(len(tetra_poly.pairs)):
        arc = tetra_poly.retained_arc(i)
        ts = np.linspace(0.0, arc.sweep, 4001)
        samples = np.stack([arc.point(t) for t in ts])
        pts = np.stack([rng.normal(scale=1.5, size=3) for _ in range(20)])
        brute = np.array([np.max(np.linalg.norm(samples - p, axis=1)) for p in pts])
        exact = np.sqrt(_max_dist_sq(arc, pts))
        assert np.all(brute <= exact + 1e-12)
        assert np.all(exact <= brute + 1e-6)


def test_contains(tetra_poly, tetra_system):
    pts = tetra_poly.vertices.points
    # the vertices lie on the boundary, where squared distances read up
    # to 1 + 2.2e-16, so they are inside only up to rounding
    assert _inside(tetra_system, pts, slack=1e-12).all()
    probes = np.stack([pts.mean(axis=0), pts[0] + np.array([1.01, 0.0, 0.0])])
    assert _inside(tetra_system, probes).tolist() == [True, False]


def test_single_ball_is_exact():
    system = BallSystem.from_points(np.array([[0.3, -1.0, 2.0]]))
    result = mc_volume(system, 10_000, seed=4)
    assert result.volume == pytest.approx(4.0 * math.pi / 3.0, abs=1e-12)
    assert result.std_error == 0.0
    assert result.hits == result.samples == 10_000


def test_empty_system_rejected():
    system = BallSystem.from_points(np.empty((0, 3)))
    with pytest.raises(EmptySystem):
        mc_volume(system, 100, seed=0)
    with pytest.raises(EmptySystem):
        width_samples(system, 10, seed=0)


def test_bad_sample_count(tetra_system):
    with pytest.raises(ValueError):
        mc_volume(tetra_system, 0, seed=0)


def test_reproducible_and_thread_invariant(tetra_system):
    base = mc_volume(tetra_system, 200_000, seed=7)
    again = mc_volume(tetra_system, 200_000, seed=7)
    assert (base.volume, base.hits) == (again.volume, again.hits)
    for threads in (2, 3):
        threaded = mc_volume(tetra_system, 200_000, seed=7, threads=threads)
        assert (threaded.volume, threaded.hits) == (base.volume, base.hits)
    other = mc_volume(tetra_system, 200_000, seed=8)
    assert other.hits != base.hits


def test_arcs_only_shrink_the_body(tetra_system, reuleaux_system):
    # same centers, same seed, same sample stream: each accepted point
    # of the smoothed body is also accepted by the unsmoothed one
    smoothed = mc_volume(tetra_system, 100_000, seed=19)
    plain = mc_volume(reuleaux_system, 100_000, seed=19)
    assert smoothed.hits <= plain.hits


def test_estimate_brackets_closed_form(tetra_poly, tetra_system):
    result = mc_volume(tetra_system, 400_000, seed=2)
    closed = meissner_volume(tetra_poly)
    assert abs(result.volume - closed) <= 5.0 * result.std_error
    assert result.std_error < 3e-3


def test_constant_width_samples(tetra_system):
    lo, hi = width_samples(tetra_system, 200, seed=3)
    assert lo >= 1.0 - 1e-6
    assert hi <= 1.0 + 1e-6


def test_unsmoothed_body_is_wider(reuleaux_system):
    lo, hi = width_samples(reuleaux_system, 500, seed=3)
    assert hi > 1.0 + 1e-3
    assert lo >= 1.0 - 1e-9


def test_support_along_edge_axis(tetra_vs, reuleaux_system):
    # the bulge over a pair of opposite edge arcs: sqrt(3) - sqrt(2)/2
    pts = tetra_vs.points
    u = (pts[0] + pts[1]) / 2.0 - (pts[2] + pts[3]) / 2.0
    u /= np.linalg.norm(u)
    width = support(reuleaux_system, u) + support(reuleaux_system, -u)
    assert width == pytest.approx(math.sqrt(3.0) - math.sqrt(2.0) / 2.0, abs=1e-9)


def test_width_of_a_single_ball():
    system = BallSystem.from_points(np.array([[0.0, 0.0, 0.0]]))
    lo, hi = width_samples(system, 50, seed=0)
    assert lo == pytest.approx(2.0, abs=1e-12)
    assert hi == pytest.approx(2.0, abs=1e-12)
