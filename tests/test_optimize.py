"""Constrained area optimization over wheels and general configurations."""

import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import meissner.optimize
from meissner import (
    InfeasibleStart,
    NotExtremal,
    OptimizationProblem,
    RestartRecord,
    TETRAHEDRON_AREA,
    TETRAHEDRON_VOLUME,
    ValidationError,
    build_meissner,
    meissner_area,
    optimize_meissner,
    optimize_pyramid,
    random_feasible_pyramid,
    regular_pyramid,
    regular_tetrahedron,
    validate_vertex_set,
)
from meissner.optimize import (
    FEASIBILITY_TOL,
    MERGE_TOL,
    VALIDATION_TOL,
    _LBFGSB_OPTIONS,
    _assemble_report,
    _Kernel,
    _lbfgsb,
    _least_norm_step,
    _merged_distinct,
    _rigid,
)

from conftest import (
    F_TRIPLE,
    PI3,
    PYR2_OBJECTIVE,
    PYR3_OBJECTIVE,
    PYRAMID_OBJECTIVE_MAX,
    TETRA_AREA,
)


def test_tetrahedron_bound_constants():
    assert TETRAHEDRON_AREA == pytest.approx(TETRA_AREA, abs=1e-15)
    assert TETRAHEDRON_VOLUME == pytest.approx(TETRAHEDRON_AREA / 2 - math.pi / 3, abs=1e-15)


def _kernel_at_regular_pyramid(k):
    vs = regular_pyramid(k)
    return _Kernel(vs), vs.points.ravel()


def test_pyramid_objective_regular_values():
    # k = 1 is the regular tetrahedron; every smoothed apex edge has arc pi/3
    for k, expected in ((1, PYRAMID_OBJECTIVE_MAX), (2, PYR2_OBJECTIVE), (3, PYR3_OBJECTIVE)):
        kernel, x = _kernel_at_regular_pyramid(k)
        assert -kernel.merit(x, 0.0)[0] == pytest.approx(PI3 * expected, abs=1e-12)
        objective, _, validated, on_domain = kernel.evaluate(x)
        assert objective == pytest.approx(PI3 * expected, abs=1e-12)
        assert validated and on_domain


def test_objective_ties_out_to_the_area(pyr2_poly):
    kernel, x = _kernel_at_regular_pyramid(2)
    objective = -kernel.merit(x, 0.0)[0]
    assert meissner_area(pyr2_poly) == pytest.approx(2.0 * math.pi - objective, abs=1e-12)


def _moved(vs, rng):
    """vs under a random proper rotation and a random translation, validated again."""
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return validate_vertex_set(vs.points @ q.T + rng.normal(size=3))


def test_objective_is_gauge_invariant():
    rng = np.random.default_rng(21)
    vs = regular_pyramid(2)
    base = meissner_area(build_meissner(vs))
    assert meissner_area(build_meissner(_moved(vs, rng))) == pytest.approx(base, abs=1e-10)


def test_squared_jacobian_has_the_rigid_motions_as_null_directions():
    # the search fixes no frame, so its steps rely on the Jacobian ignoring the six rigid motions
    for k in range(1, 6):
        for s in range(3):
            vs = random_feasible_pyramid(k, s)
            jac = _Kernel(vs).squared_jacobian(vs.points.ravel())[1]
            translations = [np.tile(e, vs.m) for e in np.eye(3)]
            rotations = [np.cross(e, vs.points).ravel() for e in np.eye(3)]
            assert np.abs(jac @ np.array(translations + rotations).T).max() <= 1e-12
    # and no other direction keeps the tetrahedron's six distances, wherever it sits
    moved = _moved(regular_tetrahedron(), np.random.default_rng(3))
    kernel, x = _Kernel(moved), moved.points.ravel()
    assert np.linalg.matrix_rank(kernel.squared_jacobian(x)[1][kernel.floor < 0.0]) == 3 * moved.m - 6
    assert _rigid(kernel, x)


def test_search_keeps_the_start_frame():
    rng = np.random.default_rng(29)
    moved = _moved(regular_tetrahedron(), rng)
    assert np.array_equal(optimize_meissner(OptimizationProblem.from_vertex_set(moved)).best_points, moved.points)
    for k in (1, 2, 3):
        vs = regular_pyramid(k)
        problems = (OptimizationProblem.from_vertex_set(v) for v in (vs, _moved(vs, rng)))
        here, there = (optimize_meissner(problem).records[0] for problem in problems)
        assert abs(here.area - there.area) <= 1e-12
        assert (here.converged, here.validated) == (there.converged, there.validated)


def test_collapsed_wheel_is_scored_as_the_tetrahedron():
    # base vertices paired onto a triangle: strict validation fails, the merged set is a tetrahedron
    collapsed = regular_pyramid(1).points[[0, 1, 2, 3, 1, 2]]
    kernel = _Kernel(regular_pyramid(2))
    objective, area, validated, on_domain = kernel.evaluate(collapsed.ravel())
    assert objective == pytest.approx(F_TRIPLE, abs=1e-12)
    assert area == pytest.approx(TETRA_AREA, abs=1e-12)
    assert not validated and on_domain


def test_merge_drops_every_vertex_near_an_earlier_one():
    # a chain a ~ b ~ c with a and c apart: b and c both go, though c is near no kept vertex
    step = 0.6 * MERGE_TOL
    pts = np.array([[0.0, 0.0, 0.0], [step, 0.0, 0.0], [2 * step, 0.0, 0.0], [0.5, 0.5, 0.0]])
    assert np.array_equal(_merged_distinct(pts), pts[[0, 3]])
    assert _merged_distinct(pts[[0, 2, 3]]) is None
    assert np.array_equal(_merged_distinct(pts[[3, 0, 3]]), pts[[3, 0]])


def test_optimize_pyramid_rejects_bad_n():
    for n in (2, 4, 1, 21):
        with pytest.raises(ValueError):
            optimize_pyramid(n)


def test_optimize_pyramid_n3_hits_the_corner():
    report = optimize_pyramid(3)
    assert report.best_objective == pytest.approx(F_TRIPLE, abs=1e-9)
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
    assert report.best_objective >= PI3 * PYR2_OBJECTIVE - 1e-9
    assert report.best_area == 2.0 * math.pi - report.best_objective
    assert report.best_volume == pytest.approx(
        report.best_area / 2.0 - math.pi / 3.0, abs=1e-12
    )
    # the winning configuration is a genuine extremal set
    validate_vertex_set(report.best_points, tol=1e-6)
    # every round of the regular start ends at its convergence test
    assert report.records[0].capped_rounds == 0


def test_unconverged_rounds_are_counted(monkeypatch):
    # cap the first penalty round at one iteration; the later rounds converge
    results = []
    solve = meissner.optimize._lbfgsb

    def first_round_capped(*args, **kwargs):
        with monkeypatch.context() as patch:
            if not results:
                patch.setattr(meissner.optimize, "_LBFGSB_MAXITER", 1)
            results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(meissner.optimize, "_lbfgsb", first_round_capped)
    rec = optimize_pyramid(5).records[0]
    assert [success for *_, success in results] == [False] + [True] * (rec.rounds - 1)
    assert rec.capped_rounds == 1


def test_restart_without_an_accepted_iterate_reports_its_final_point(monkeypatch):
    # no iterate validates, so none is ever accepted: the restart falls back to its last round's point
    def never_extremal(*args, **kwargs):
        raise NotExtremal("rejected")

    results = []
    solve = meissner.optimize._lbfgsb

    def recorded(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(meissner.optimize, "validate_vertex_set", never_extremal)
    monkeypatch.setattr(meissner.optimize, "_lbfgsb", recorded)
    report = optimize_pyramid(3)
    rec = report.records[0]
    assert not rec.converged and not rec.validated
    assert rec.area == 2.0 * math.pi - rec.objective
    assert rec.rounds == len(results)
    kernel, _ = _kernel_at_regular_pyramid(1)
    last = results[-1][0]
    final = kernel.project(last)
    final = last if final is None else final
    assert np.array_equal(report.best_points, kernel.points(final))
    assert report.best_objective == rec.objective and report.best_residual == kernel.residual(final)


def _check_lbfgsb_is_minimize(fun, x0, args, **options):
    """`_lbfgsb` against scipy's minimize, bitwise in x, value, evaluations and success: both results.

    options go to scipy alone, for caps that the caller has set on the driver's constants.
    """
    expected = minimize(fun, x0, args=args, jac=True, method="L-BFGS-B", options={**_LBFGSB_OPTIONS, **options})
    solved = _lbfgsb(fun, x0, args, **_LBFGSB_OPTIONS)
    x, f, nfev, success = solved
    assert np.array_equal(x, expected.x)
    assert (f, nfev, success) == (expected.fun, expected.nfev, expected.success)
    return expected, solved


def test_lbfgsb_matches_minimize_on_every_round_of_a_search(monkeypatch):
    solves = []

    def checked(fun, x0, args, **options):
        assert options == _LBFGSB_OPTIONS
        expected, solved = _check_lbfgsb_is_minimize(fun, x0, args)
        solves.append(expected)
        return solved

    monkeypatch.setattr(meissner.optimize, "_lbfgsb", checked)
    report = optimize_pyramid(5, restarts=20, seed=0)
    assert len(solves) == sum(r.rounds for r in report.records)


@pytest.mark.parametrize(
    ("cap", "value", "option"), [("_LBFGSB_MAXITER", 1, "maxiter"), ("_LBFGSB_MAXFUN", 5, "maxfun")]
)
def test_lbfgsb_matches_minimize_at_its_caps(monkeypatch, cap, value, option):
    kernel, x0 = _kernel_at_regular_pyramid(2)
    monkeypatch.setattr(meissner.optimize, cap, value)
    expected, _ = _check_lbfgsb_is_minimize(kernel.merit, x0 + 0.01, (1e2,), **{option: value})
    assert not expected.success and expected.status == 1


def test_lbfgsb_matches_minimize_when_the_line_search_fails():
    # the gradient's entries in reverse order: the line search fails twice, and each time setulb
    # restores its previous iterate and gradient (writing into g); the second time it stops abnormally
    kernel, x0 = _kernel_at_regular_pyramid(2)

    def reversed_gradient(x, mu):
        f, g = kernel.merit(x, mu)
        return f, g[::-1].copy()

    x0 = x0 + 0.01 * np.random.default_rng(0).normal(size=x0.shape)
    expected, _ = _check_lbfgsb_is_minimize(reversed_gradient, x0, (1e2,))
    assert expected.message.startswith("ABNORMAL") and expected.nit == 1


def test_tied_restarts_report_the_lowest_index():
    def record(restart, objective, converged=True):
        area = 2.0 * math.pi - objective
        return RestartRecord(restart, objective, area, 0.0, 7, 100, 0, converged, converged, True)

    def winner(records):
        points = [np.full((4, 3), float(r.restart)) for r in records]
        report = _assemble_report(records, points)
        assert report.best_objective == records[int(report.best_points[0, 0])].objective
        return int(report.best_points[0, 0])

    top = F_TRIPLE
    # one ulp apart: the same body reached by rounding-different paths
    tied = [record(0, 1.0), record(1, top - 4.4e-16), record(2, top + 4.4e-16), record(3, top)]
    assert winner(tied) == 1
    assert winner(tied + [record(4, top + 1e-9)]) == 4
    # a larger objective that did not converge never wins over a converged restart
    assert winner([record(0, 1.0), record(1, top, converged=False)]) == 0


def test_optimize_meissner_tetrahedron_is_rigid():
    problem = OptimizationProblem.from_vertex_set(regular_tetrahedron())
    report = optimize_meissner(problem, restarts=1, seed=0)
    assert report.best_objective == pytest.approx(F_TRIPLE, abs=1e-9)
    assert report.best_area == pytest.approx(TETRA_AREA, abs=1e-9)
    assert report.records[0].converged
    assert report.best_residual <= FEASIBILITY_TOL


def test_infeasible_start_rejected():
    # a loose tolerance validates edges of length 1.15, a residual of 0.15 over START_RESIDUAL_MAX
    vs = validate_vertex_set(1.15 * regular_tetrahedron().points, tol=0.2)
    with pytest.raises(InfeasibleStart):
        optimize_meissner(OptimizationProblem.from_vertex_set(vs))


def test_random_feasible_pyramid():
    for seed in (0, 1, 2):
        vs = random_feasible_pyramid(2, seed=seed)
        assert vs.m == 6
        objective = 2.0 * math.pi - meissner_area(build_meissner(vs))
        assert objective <= F_TRIPLE + 1e-9
        # perturbations sit near, and generically below, the regular value
        assert abs(objective - PI3 * PYR2_OBJECTIVE) < PI3 * 0.05


_SCIPY_ON_DEMAND = """
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[2])
from meissner import cli, optimize_pyramid

out = Path(sys.argv[1])
tetra = str(out / "tetra.txt")
commands = [
    ["gen", "tetra", "--out", tetra],
    ["validate", tetra],
    ["analyze", tetra],
    ["enumerate", tetra],
    ["mc-check", tetra, "--samples", "4096"],
    ["f-table", "--grid", "5", "--csv", str(out / "f.csv")],
    ["mesh", tetra, "--refine", "0", "--out", str(out / "tetra.obj")],
]
for argv in commands:
    assert cli.main(argv) == 0, argv
loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
assert not loaded, loaded[:3]
# the triangular pyramid is the rigid tetrahedron: its restart returns the start and runs no round
assert optimize_pyramid(3).records[0].converged
assert "scipy" not in sys.modules
assert optimize_pyramid(5).records[0].converged
assert "scipy.optimize" in sys.modules
"""


def test_scipy_is_loaded_only_by_a_search(tmp_path):
    # in a fresh interpreter, because this module imports scipy itself
    package_root = str(Path(meissner.optimize.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_ON_DEMAND, str(tmp_path), package_root],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def _soft_f(c_retained, c_smoothed):
    y = 2.0 * math.asin(min(max(c_smoothed / 2.0, 0.0), 1.0))
    cos_half = math.cos(y / 2.0)
    return y * cos_half * 2.0 * math.asin(min(max(c_retained / 2.0, 0.0) / cos_half, 1.0))


def _reference_general(coords, vs):
    """Soft objective, penalty and residual of the general search from start vs, by loops."""
    pts = [tuple(coords[3 * i : 3 * i + 3]) for i in range(vs.m)]
    soft = 0.0
    for pair in build_meissner(vs).pairs:
        c1, c2 = math.dist(*(pts[v] for v in pair.edge)), math.dist(*(pts[v] for v in pair.edge_dual))
        soft += max(_soft_f(c1, c2), _soft_f(c2, c1))
    penalty = residual = 0.0
    for i in range(vs.m):
        for j in range(i + 1, vs.m):
            c = math.dist(pts[i], pts[j])
            if (i, j) in vs.edges:
                penalty += (c * c - 1.0) ** 2
                residual = max(residual, abs(c - 1.0))
            else:
                penalty += max(0.0, c * c - 1.0) ** 2
                residual = max(residual, c - 1.0)
    return soft, penalty, residual


def _general_starts():
    # the last start is labeled with its apex at vertex 5, not 0
    relabeled = validate_vertex_set(random_feasible_pyramid(3, seed=3).points[[2, 4, 3, 6, 5, 0, 1, 7]])
    return [regular_tetrahedron()] + [random_feasible_pyramid(k, seed=k) for k in (1, 2, 3)] + [relabeled]


def _check_kernel(kernel, x, reference):
    soft, penalty, residual = reference
    for mu in (0.0, 1.0, 1e4):
        assert kernel.merit(x, mu)[0] == pytest.approx(-soft + mu * penalty, rel=1e-12, abs=1e-12)
    assert kernel.residual(x) == pytest.approx(residual, rel=1e-12, abs=1e-12)


def _reference_soft(kernel, d2):
    """Soft objective and its gradient by the array formula over (2, m - 1) rows that `_Kernel.soft` replaced."""
    ends = np.array(kernel.ends).T
    half = np.sqrt(d2[ends]) / 2.0
    sin_arc = np.minimum(half, 1.0)[::-1]
    half_arc = np.arcsin(sin_arc)
    cos_half = np.cos(half_arc)
    t = half / cos_half
    inner = np.arcsin(np.minimum(t, 1.0))
    f = 2.0 * half_arc * cos_half * 2.0 * inner
    dinner = np.divide(1.0, np.sqrt(np.maximum(1.0 - t * t, 0.0)), out=np.zeros_like(t), where=t < 1.0)
    df_retained = 4.0 * half_arc * dinner
    df_arc = 4.0 * (cos_half * inner - half_arc * sin_arc * inner + half_arc * sin_arc * t * dinner)
    df_smoothed = np.divide(df_arc, cos_half, out=np.zeros_like(t), where=sin_arc < 1.0)
    dh = np.divide(1.0, 8.0 * half, out=np.zeros_like(half), where=half > 0.0)
    pick = f[1] > f[0]
    grad = np.zeros_like(d2)
    grad[ends] = np.where(pick == np.arange(2)[:, None], df_retained * dh, (df_smoothed * dh[::-1])[::-1])
    return float(np.maximum(f[0], f[1]).sum()), grad


def _check_soft(kernel, d2):
    value, grad = kernel.soft(d2)
    ref_value, ref_grad = _reference_soft(kernel, d2)
    # relative: a sum of gains above 4 has an ulp over 1e-15
    assert value == pytest.approx(ref_value, rel=1e-15, abs=1e-15)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-15, atol=1e-15)


def test_soft_matches_the_array_reference():
    rng = np.random.default_rng(17)
    for vs in _general_starts():
        kernel = _Kernel(vs)
        for _ in range(20):
            _check_soft(kernel, kernel.squared(vs.points.ravel() + 0.05 * rng.normal(size=3 * vs.m)))


def test_soft_matches_the_array_reference_where_it_clamps():
    # half chords (first edge, dual edge) of a pair: t >= 1 in both orientations; a smoothed half chord
    # of at least one in one or both orientations; coincident endpoints, half == 0, as after a collapse
    halves = [(0.9, 0.6), (0.6, 0.9), (1.2, 0.3), (0.3, 1.2), (1.2, 1.5), (0.0, 0.4), (0.4, 0.0), (0.0, 0.0)]
    for vs in _general_starts():
        kernel = _Kernel(vs)
        for shift in range(len(halves)):
            d2 = kernel.squared(vs.points.ravel())
            rows = np.array([halves[(p + shift) % len(halves)] for p in range(len(kernel.ends))]).T
            d2[np.array(kernel.ends).T] = (2.0 * rows) ** 2
            _check_soft(kernel, d2)


def _reference_evaluate(kernel, x):
    """`_Kernel.evaluate` by the full path: every validated point goes through `build_meissner`."""
    pts = kernel.points(x)
    for merge in (False, True):
        candidate = _merged_distinct(pts) if merge else pts
        if candidate is None:
            break
        try:
            area = meissner_area(build_meissner(validate_vertex_set(candidate, tol=VALIDATION_TOL)))
        except ValidationError:
            continue
        return 2.0 * math.pi - area, area, not merge, True
    objective, _ = kernel.soft(kernel.squared(x))
    return objective, 2.0 * math.pi - objective, False, False


def _counted_builds(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_meissner(*args, **kwargs)

    monkeypatch.setattr(meissner.optimize, "build_meissner", counted)
    return calls


def _check_evaluate(kernel, x):
    objective, area, validated, on_domain = kernel.evaluate(x)
    ref_objective, ref_area, ref_validated, ref_on_domain = _reference_evaluate(kernel, x)
    assert abs(objective - ref_objective) <= 1e-15 and abs(area - ref_area) <= 1e-15
    assert (validated, on_domain) == (ref_validated, ref_on_domain)
    return validated


def test_evaluate_scores_its_own_pairs_as_the_closed_form(monkeypatch):
    # random pyramids and points projected from noise around them: those that validate with the
    # kernel's edges are scored from its pairs, without building the body
    builds = _counted_builds(monkeypatch)
    rng = np.random.default_rng(23)
    scored = 0
    for k in range(1, 6):
        kernel = _Kernel(regular_pyramid(k))
        for s in range(10):
            x0 = random_feasible_pyramid(k, s).points.ravel()
            projected = (kernel.project(x0 + scale * rng.normal(size=x0.shape)) for scale in (0.01, 0.1))
            for x in [x0, *(x for x in projected if x is not None)]:
                before = len(builds)
                if _check_evaluate(kernel, x):
                    assert len(builds) == before
                    scored += 1
    assert scored >= 100


def test_evaluate_builds_the_body_of_another_edge_set(monkeypatch):
    # the same body with two vertices relabeled validates with other edges than the kernel's graph
    vs = random_feasible_pyramid(2, seed=0)
    kernel = _Kernel(vs)
    # counted after the kernel is built, which builds its start's body once
    builds = _counted_builds(monkeypatch)
    x = vs.points[[0, 3, 2, 1, 4, 5]].ravel()
    assert validate_vertex_set(kernel.points(x), tol=VALIDATION_TOL).edges != kernel.edges
    assert _check_evaluate(kernel, x)
    assert len(builds) == 1
    assert kernel.evaluate(x)[1] == pytest.approx(meissner_area(build_meissner(vs)), abs=1e-12)


def test_merit_kernels_match_the_loop_reference():
    rng = np.random.default_rng(5)
    for vs in _general_starts():
        coords = vs.points.ravel() + 0.05 * rng.normal(size=3 * vs.m)
        _check_kernel(_Kernel(vs), coords, _reference_general(coords, vs))


def test_merit_kernels_at_feasible_points():
    for vs in _general_starts():
        coords = vs.points.ravel()
        kernel = _Kernel(vs)
        expected = 2.0 * math.pi - meissner_area(build_meissner(vs))
        assert -kernel.merit(coords, 0.0)[0] == pytest.approx(expected, abs=1e-12)
        assert kernel.merit(coords, 1.0)[0] - kernel.merit(coords, 0.0)[0] == pytest.approx(0.0, abs=1e-15)


def test_optimizers_are_deterministic():
    problem = OptimizationProblem.from_vertex_set(regular_tetrahedron())
    for search, rigid in (
        (lambda: optimize_pyramid(5, restarts=2), False),
        (lambda: optimize_meissner(problem, restarts=3), True),
    ):
        first, second = search(), search()
        assert first.records == second.records
        assert np.array_equal(first.best_points, second.best_points)
        if rigid:
            assert all(r.rounds == r.evaluations == 0 for r in first.records)
        else:
            assert all(r.evaluations > r.rounds for r in first.records)


def _without_search_counts(records):
    return [dataclasses.replace(r, rounds=0, evaluations=0, capped_rounds=0) for r in records]


def test_rigid_start_returns_what_the_search_returns(monkeypatch):
    problem = OptimizationProblem.from_vertex_set(regular_tetrahedron())
    searches = (lambda: optimize_meissner(problem, restarts=4), lambda: optimize_pyramid(3, restarts=3))
    skipped = [search() for search in searches]
    for report in skipped:
        assert all(r.rounds == r.evaluations == r.capped_rounds == 0 and r.converged for r in report.records)
    monkeypatch.setattr(meissner.optimize, "_rigid", lambda kernel, x: False)
    for search, skip in zip(searches, skipped):
        report = search()
        assert all(r.rounds >= 1 for r in report.records)
        assert _without_search_counts(report.records) == _without_search_counts(skip.records)
        assert np.array_equal(report.best_points, skip.best_points)


def test_flexible_starts_always_search():
    for vs in (regular_pyramid(2), random_feasible_pyramid(2, seed=0)):
        kernel, x = _Kernel(vs), vs.points.ravel()
        assert not _rigid(kernel, x)
        report = optimize_meissner(OptimizationProblem.from_vertex_set(vs), restarts=2, seed=0)
        assert all(r.rounds >= 1 for r in report.records)


def _central_difference(fn, x, h=1e-6):
    """Columns (fn(x + h e_p) - fn(x - h e_p)) / 2h, one per parameter."""
    steps = h * np.eye(len(x))
    return np.stack([(fn(x + e) - fn(x - e)) / (2.0 * h) for e in steps], axis=-1)


def _perturbed_kernels():
    """Each kernel at a perturbed point and at a stretched one, where inequalities are violated too."""
    rng = np.random.default_rng(11)
    sets = [regular_tetrahedron(), regular_pyramid(2)] + [random_feasible_pyramid(k, seed=k) for k in (1, 2, 3)]
    for vs in sets:
        near = vs.points.ravel() + 0.05 * rng.normal(size=3 * vs.m)
        yield _Kernel(vs), (near, 1.7 * near)


def test_edge_rows_lead_the_squared_jacobian():
    for kernel, points in _perturbed_kernels():
        edges = len(kernel.edges)
        for x in points:
            d2, jac = kernel.squared_jacobian(x)
            d2_edges, jac_edges = kernel.squared_jacobian(x, edges_only=True)
            assert np.array_equal(d2_edges, d2[:edges]) and np.array_equal(jac_edges, jac[:edges])


def test_merit_gradient_and_jacobian_match_finite_differences():
    for kernel, points in _perturbed_kernels():
        inequality = kernel.floor == 0.0
        assert not inequality.any() or (kernel.squared(points[1])[inequality] > 1.0).any()
        for x in points:
            d2, jac = kernel.squared_jacobian(x)
            assert np.array_equal(d2, kernel.squared(x))
            np.testing.assert_allclose(jac, _central_difference(kernel.squared, x), rtol=0, atol=1e-8)
            assert kernel.residual(x) > 1e-3
            for mu in (0.0, 1e2, 1e8):
                _, grad = kernel.merit(x, mu)
                expected = _central_difference(lambda v: kernel.merit(v, mu)[0], x)
                np.testing.assert_allclose(grad, expected, rtol=0, atol=1e-7 * max(1.0, np.abs(expected).max()))


def test_least_norm_step_matches_lstsq():
    for kernel, points in _perturbed_kernels():
        for x in points:
            d2, jac = kernel.squared_jacobian(x, edges_only=True)
            r = d2 - 1.0
            reference = np.linalg.lstsq(jac, r, rcond=None)[0]
            step = _least_norm_step(jac, r)
            assert np.linalg.norm(step - reference) <= 1e-12 * np.linalg.norm(reference)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_project_gives_up_on_a_collapsed_edge(k):
    # an edge whose endpoints coincide has a zero Jacobian row, so the Gram matrix is singular at once;
    # a RuntimeWarning would fail the suite
    vs = regular_pyramid(k)
    kernel = _Kernel(vs)
    i, j = vs.edges[0]
    pts = vs.points.copy()
    pts[j] = pts[i]
    d2, jac = kernel.squared_jacobian(pts.ravel(), edges_only=True)
    assert _least_norm_step(jac, d2 - 1.0) is None
    assert kernel.project(pts.ravel()) is None


def test_merit_gradient_is_the_jacobian_transpose_times_the_weights():
    # merit carries 2 w d to the points through the signed incidence: J^T w up to the order of the sum
    for kernel, points in _perturbed_kernels():
        for x in points:
            d2, jac = kernel.squared_jacobian(x)
            violation = np.maximum(d2 - 1.0, kernel.floor)
            for mu in (0.0, 1e2, 1e8):
                grad = kernel.merit(x, mu)[1]
                expected = jac.T @ (2.0 * mu * violation - kernel.soft(d2)[1])
                assert np.abs(grad - expected).max() <= 1e-14 * max(1.0, np.abs(grad).max())


def test_kernel_constants_are_read_only():
    kernel = _Kernel(regular_pyramid(2))
    for constant in (kernel.i, kernel.j, kernel.floor, kernel.sign):
        with pytest.raises(ValueError, match="read-only"):
            constant[0] = 0
    assert (np.abs(kernel.sign).sum(axis=1) == 2.0).all() and (kernel.sign.sum(axis=1) == 0.0).all()


def test_merit_and_jacobian_outputs_own_their_memory():
    # the kernel keeps only constants; nothing returned may alias them or change with a later call
    for kernel, (x1, x2) in _perturbed_kernels():
        first = kernel.merit(x1, 1e4)
        d2, jac = kernel.squared_jacobian(x1)
        edges = kernel.squared_jacobian(x1, edges_only=True)
        kept = [first[1], d2, jac, *edges]
        snapshots = [a.copy() for a in kept]
        kernel.merit(x2, 1e4)
        kernel.squared_jacobian(x2, edges_only=True)
        kernel.project(x2)
        again = kernel.merit(x1, 1e4)
        assert again[0] == first[0] and np.array_equal(again[1], first[1])
        for array, snapshot in zip(kept, snapshots):
            assert np.array_equal(array, snapshot)
            assert not np.shares_memory(array, kernel.sign)
