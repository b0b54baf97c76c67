"""Constrained area optimization over wheels and general configurations."""

import math

import numpy as np
import pytest

from meissner import (
    InfeasibleStart,
    NotAWheel,
    OptimizationProblem,
    TETRAHEDRON_AREA,
    TETRAHEDRON_VOLUME,
    build_diameter_graph,
    build_meissner,
    dual_pair_indices,
    meissner_area,
    optimize_meissner,
    optimize_pyramid,
    pyramid_objective,
    random_feasible_pyramid,
    regular_pyramid,
    regular_tetrahedron,
    validate_vertex_set,
)
from meissner.optimize import (
    FEASIBILITY_TOL,
    _gauge_coords,
    _general_kernel,
    _pyramid_kernel,
    _regular_angles,
)

from conftest import (
    PYR2_OBJECTIVE,
    PYR3_OBJECTIVE,
    PYRAMID_OBJECTIVE_MAX,
    TETRA_AREA,
)

F_TRIPLE = 3.34907011285623054  # total smoothing gain of the tetrahedron


def test_tetrahedron_bound_constants():
    assert TETRAHEDRON_AREA == pytest.approx(TETRA_AREA, abs=1e-15)
    assert TETRAHEDRON_VOLUME == pytest.approx(TETRAHEDRON_AREA / 2 - math.pi / 3, abs=1e-15)


def test_pyramid_objective_regular_values():
    assert pyramid_objective(regular_tetrahedron()) == pytest.approx(
        PYRAMID_OBJECTIVE_MAX, abs=1e-12
    )
    assert pyramid_objective(regular_pyramid(2)) == pytest.approx(PYR2_OBJECTIVE, abs=1e-12)
    assert pyramid_objective(regular_pyramid(3)) == pytest.approx(PYR3_OBJECTIVE, abs=1e-12)


def test_objective_ties_out_to_the_area(pyr2_poly):
    from meissner import meissner_area

    objective = pyramid_objective(pyr2_poly.vertices)
    assert meissner_area(pyr2_poly) == pytest.approx(
        2.0 * math.pi - math.pi / 3.0 * objective, abs=1e-12
    )


def test_objective_is_gauge_invariant():
    rng = np.random.default_rng(21)
    vs = regular_pyramid(2)
    base = pyramid_objective(vs)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    moved = validate_vertex_set(vs.points @ q.T + rng.normal(size=3))
    assert pyramid_objective(moved) == pytest.approx(base, abs=1e-10)


def test_non_wheel_raises(tetra_vs):
    # a fifth point with only two unit distances cannot be a wheel rim
    pts = tetra_vs.points
    mid = (pts[0] + pts[1]) / 2
    axis = pts[1] - pts[0]
    axis = axis / np.linalg.norm(axis)
    u = pts[2] - mid
    u = u - axis * (u @ axis)
    r = np.linalg.norm(u)
    u = u / r
    w = np.cross(axis, u)
    rel = pts[3] - mid
    half = 0.5 * math.atan2(rel @ w, rel @ u)
    extra = mid + r * (math.cos(half) * u + math.sin(half) * w)
    vs5 = validate_vertex_set(np.vstack([pts, extra]))
    with pytest.raises(NotAWheel):
        pyramid_objective(vs5)


def test_optimize_pyramid_rejects_bad_n():
    for n in (2, 4, 1, 21):
        with pytest.raises(ValueError):
            optimize_pyramid(n)


def test_optimize_pyramid_n3_hits_the_corner():
    report = optimize_pyramid(3)
    assert report.best_objective == pytest.approx(PYRAMID_OBJECTIVE_MAX, abs=1e-9)
    assert report.best_area == pytest.approx(TETRA_AREA, abs=1e-9)
    rec = report.records[0]
    assert rec.converged and rec.validated and rec.meets_tetrahedron_bound
    assert rec.residual <= FEASIBILITY_TOL


def test_optimize_pyramid_n5():
    report = optimize_pyramid(5, restarts=2, seed=1)
    for rec in report.records:
        assert rec.converged
        assert rec.residual <= FEASIBILITY_TOL
        assert rec.area >= TETRAHEDRON_AREA - 1e-6
    assert report.best_objective >= PYR2_OBJECTIVE - 1e-9
    assert report.best_area == pytest.approx(
        2.0 * math.pi - math.pi / 3.0 * report.best_objective, abs=1e-9
    )
    assert report.best_volume == pytest.approx(
        report.best_area / 2.0 - math.pi / 3.0, abs=1e-12
    )
    finite = [v for v in report.trajectory if math.isfinite(v)]
    assert finite == sorted(finite)
    # the winning configuration is a genuine extremal set
    validate_vertex_set(report.best_points, tol=1e-6)


def test_optimize_meissner_tetrahedron_is_rigid():
    problem = OptimizationProblem.from_vertex_set(regular_tetrahedron())
    report = optimize_meissner(problem, restarts=1, seed=0)
    assert report.best_objective == pytest.approx(F_TRIPLE, abs=1e-9)
    assert report.best_area == pytest.approx(TETRA_AREA, abs=1e-9)
    assert report.records[0].converged
    assert report.best_residual <= FEASIBILITY_TOL


def test_infeasible_start_rejected():
    vs = regular_tetrahedron()
    problem = OptimizationProblem(
        OptimizationProblem.from_vertex_set(vs).graph, 0.5 * np.array(vs.points)
    )
    with pytest.raises(InfeasibleStart):
        optimize_meissner(problem)


def test_random_feasible_pyramid():
    for seed in (0, 1, 2):
        vs = random_feasible_pyramid(2, seed=seed)
        assert vs.m == 6
        objective = pyramid_objective(vs)
        assert objective <= PYRAMID_OBJECTIVE_MAX + 1e-9
        # perturbations sit near, and generically below, the regular value
        assert abs(objective - PYR2_OBJECTIVE) < 0.05


def _soft_f(c_retained, c_smoothed):
    y = 2.0 * math.asin(min(max(c_smoothed / 2.0, 0.0), 1.0))
    cos_half = math.cos(y / 2.0)
    return y * cos_half * 2.0 * math.asin(min(max(c_retained / 2.0, 0.0) / cos_half, 1.0))


def _reference_pyramid(angles, k):
    """Soft objective, penalty and residual of the pyramid search, by loops."""
    n = 2 * k + 1
    base = [
        (math.sin(rho) * math.cos(psi), math.sin(rho) * math.sin(psi), math.cos(rho))
        for rho, psi in zip(angles[0::2], angles[1::2])
    ]
    soft = penalty = residual = 0.0
    for step in range(1, k + 1):
        for b in range(n):
            c = math.dist(base[b], base[(b + step) % n])
            if step == 1:
                soft += math.cos(math.pi / 6) * 2.0 * math.asin(min(c / 2.0 / math.cos(math.pi / 6), 1.0))
            if step == k:  # the base edges of the diameter graph
                penalty += (c * c - 1.0) ** 2
                residual = max(residual, abs(c - 1.0))
            else:
                penalty += max(0.0, c * c - 1.0) ** 2
                residual = max(residual, c - 1.0)
    return soft, penalty, residual


def _reference_general(coords, graph):
    """Soft objective, penalty and residual of the general search, by loops."""
    pts = [(0.0, 0.0, 0.0), (coords[0], 0.0, 0.0), (coords[1], coords[2], 0.0)]
    pts += [tuple(coords[3 * i - 6 : 3 * i - 3]) for i in range(3, graph.m)]
    soft = 0.0
    for e, e_dual in dual_pair_indices(graph):
        c1, c2 = math.dist(*(pts[v] for v in e)), math.dist(*(pts[v] for v in e_dual))
        soft += max(_soft_f(c1, c2), _soft_f(c2, c1))
    penalty = residual = 0.0
    for i in range(graph.m):
        for j in range(i + 1, graph.m):
            c = math.dist(pts[i], pts[j])
            if (i, j) in graph.edges:
                penalty += (c * c - 1.0) ** 2
                residual = max(residual, abs(c - 1.0))
            else:
                penalty += max(0.0, c * c - 1.0) ** 2
                residual = max(residual, c - 1.0)
    return soft, penalty, residual


def _general_starts():
    sets = [regular_tetrahedron()] + [random_feasible_pyramid(k, seed=k) for k in (1, 2, 3)]
    return [(build_diameter_graph(vs), vs) for vs in sets]


def _check_kernel(kernel, x, reference):
    soft, penalty, residual = reference
    for mu in (0.0, 1.0, 1e4):
        assert kernel.merit(x, mu) == pytest.approx(-soft + mu * penalty, rel=1e-12, abs=1e-12)
    assert kernel.residual(x) == pytest.approx(residual, rel=1e-12, abs=1e-12)


def test_merit_kernels_match_the_loop_reference():
    rng = np.random.default_rng(5)
    for k in (1, 2, 3, 4):
        angles = _regular_angles(k) + 0.05 * rng.normal(size=4 * k + 2)
        _check_kernel(_pyramid_kernel(k), angles, _reference_pyramid(angles, k))
    for graph, vs in _general_starts():
        coords = _gauge_coords(vs.points) + 0.05 * rng.normal(size=3 * vs.m - 6)
        _check_kernel(_general_kernel(graph), coords, _reference_general(coords, graph))


def test_merit_kernels_at_feasible_points():
    for k in (1, 2, 3, 4):
        vs = random_feasible_pyramid(k, seed=k)
        base = vs.points[1:]
        angles = np.ravel(np.column_stack((np.arccos(base[:, 2]), np.arctan2(base[:, 1], base[:, 0]))))
        kernel = _pyramid_kernel(k)
        assert -kernel.merit(angles, 0.0) == pytest.approx(pyramid_objective(vs), abs=1e-12)
        assert kernel.merit(angles, 1.0) - kernel.merit(angles, 0.0) == pytest.approx(0.0, abs=1e-15)
    for graph, vs in _general_starts():
        coords = _gauge_coords(vs.points)
        kernel = _general_kernel(graph)
        expected = 2.0 * math.pi - meissner_area(build_meissner(vs))
        assert -kernel.merit(coords, 0.0) == pytest.approx(expected, abs=1e-12)
        assert kernel.merit(coords, 1.0) - kernel.merit(coords, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_optimizers_are_deterministic():
    problem = OptimizationProblem.from_vertex_set(regular_tetrahedron())
    for search in (lambda: optimize_pyramid(3, restarts=2), lambda: optimize_meissner(problem, restarts=3)):
        first, second = search(), search()
        assert first.records == second.records
        assert np.array_equal(first.best_points, second.best_points)
        assert all(r.evaluations > r.rounds for r in first.records)
