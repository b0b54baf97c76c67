"""Ten release gates, one test per criterion.

Each test prints a single "criterion N: PASS/FAIL" line (visible with
pytest -s, or in the captured output on failure) and then asserts, so
the whole gate can be read at a glance.
"""

import math

import numpy as np
import pytest

from meissner import (
    PairLengths,
    build_meissner,
    dihedral_angle,
    direction_sphere_partition,
    enumerate_smoothings,
    f_pair,
    find_dual_pairs,
    build_diameter_graph,
    mc_volume,
    mesh_area,
    meissner_area,
    meissner_volume,
    optimal_smoothing,
    optimize_pyramid,
    rect_area,
    regular_pyramid,
    regular_tetrahedron,
    reuleaux_area,
    spindle_area,
    tessellate,
    wedge_area,
    width_samples,
)
from meissner.montecarlo import BallSystem
from meissner.sphere import f_property_check
from conftest import PI3, TETRA_AREA


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def pairs_of(vs):
    return find_dual_pairs(build_diameter_graph(vs), vs)


def optimal_poly(vs):
    return build_meissner(vs, optimal_smoothing(pairs_of(vs)))


def test_criterion_1_golden_closed_form(tetra_poly):
    acos_third = math.acos(1.0 / 3.0)
    area_exact = 2.0 * math.pi - (math.sqrt(3.0) / 2.0) * math.pi * acos_third
    volume_exact = math.pi * (2.0 / 3.0 - (math.sqrt(3.0) / 4.0) * acos_third)
    area_err = abs(meissner_area(tetra_poly) - area_exact)
    volume_err = abs(meissner_volume(tetra_poly) - volume_exact)
    report(
        1,
        area_err <= 1e-12 and volume_err <= 1e-12,
        f"area err {area_err:.2e}, volume err {volume_err:.2e}",
    )


def test_criterion_2_f_definition(tetra_poly):
    gap = abs(3.0 * f_pair(PairLengths(PI3, PI3)) + meissner_area(tetra_poly) - 2.0 * math.pi)

    rng = np.random.Generator(np.random.Philox(2))
    worst = 0.0
    for x, y in rng.uniform(0.0, PI3, size=(10_000, 2)):
        lengths = PairLengths(x, y)
        composed = (
            rect_area(x, y)
            - wedge_area(lengths)
            - spindle_area(y, dihedral_angle(lengths.swapped()))
        )
        worst = max(worst, abs(f_pair(lengths) - composed))
    report(
        2,
        gap <= 1e-12 and worst <= 1e-12,
        f"tetra identity gap {gap:.2e}, worst decomposition gap {worst:.2e}",
    )


def test_criterion_3_oracle_equivalence(tetra_poly, pyr2_poly, pyr3_poly):
    details = []
    ok = True
    for name, poly in (("tetra", tetra_poly), ("pyr2", pyr2_poly), ("pyr3", pyr3_poly)):
        system = BallSystem.from_meissner(poly)
        result = mc_volume(system, 10_000_000, seed=11, threads=4)
        gap = abs(result.volume - meissner_volume(poly))
        ok = ok and gap <= 3.0 * result.std_error
        details.append(f"{name} {gap / result.std_error:.2f} sigma")
    report(3, ok, ", ".join(details))


def test_criterion_4_partition_identity(tetra_poly, pyr2_poly, pyr3_poly):
    gaps = {
        poly.vertices.m: abs(direction_sphere_partition(poly) - 2.0 * math.pi)
        for poly in (tetra_poly, pyr2_poly, pyr3_poly)
    }
    report(
        4,
        set(gaps) == {4, 6, 8} and all(g <= 1e-9 for g in gaps.values()),
        "gaps " + ", ".join(f"m={m}: {g:.2e}" for m, g in sorted(gaps.items())),
    )


def test_criterion_5_smoothing_rule(pyr2_vs):
    from meissner import random_feasible_pyramid

    checked = 0
    for vs in [pyr2_vs] + [random_feasible_pyramid(2, seed) for seed in range(10)]:
        pairs = pairs_of(vs)
        table = enumerate_smoothings(vs, pairs)
        best = min(table, key=lambda entry: entry[1])[0]
        assert best.bits == optimal_smoothing(pairs).bits
        checked += 1
    report(5, checked == 11, f"{checked} bodies, argmin matched the longest-edge rule")


def test_criterion_6_f_property_grid():
    # the 200-point grid; the 1e-12 slack and the 1e-6 derivative tolerance are sphere's
    _, values, verdicts = f_property_check(200)
    report(
        6,
        values.shape == (200, 200) and all(verdicts.values()),
        ", ".join(f"{name} {ok}" for name, ok in verdicts.items()),
    )


def test_criterion_7_pyramid_bound():
    # a restart attains an area only where the formula measures a body:
    # records flagged converged or validated; the rest carry diagnostics
    bound = 2.934115 - 1e-6
    worst = math.inf
    failed = 0
    for n in (5, 7):
        rep = optimize_pyramid(n, restarts=20, seed=0)
        assert rep.best_area >= bound
        for r in rep.records:
            if r.converged or r.validated:
                worst = min(worst, r.area)
            else:
                failed += 1
    regular = [meissner_area(optimal_poly(regular_pyramid(k))) for k in (2, 3, 4)]
    strict = all(a > TETRA_AREA for a in regular)
    report(
        7,
        worst >= bound and strict,
        f"worst feasible restart area {worst:.9f} vs bound {bound:.9f}, "
        f"{failed} non-converged restarts flagged, regular pyramids exceed tetra: {strict}",
    )


def test_criterion_8_width_spot_check(tetra_poly, tetra_vs):
    lo, hi = width_samples(BallSystem.from_meissner(tetra_poly), 1000, seed=5)
    r_lo, r_hi = width_samples(BallSystem.from_points(tetra_vs.points), 1000, seed=5)
    report(
        8,
        1.0 - 1e-6 <= lo <= hi <= 1.0 + 1e-6 and r_hi > 1.0,
        f"meissner [{lo:.9f}, {hi:.9f}], reuleaux max {r_hi:.9f}",
    )


def test_criterion_9_mesh_convergence(tetra_poly, pyr2_poly):
    details = []
    ok = True
    for name, poly in (("tetra", tetra_poly), ("pyr2", pyr2_poly)):
        exact = meissner_area(poly)
        err4 = abs(mesh_area(tessellate(poly, 4)) - exact)
        err5 = abs(mesh_area(tessellate(poly, 5)) - exact)
        rel = err5 / exact
        ratio = err4 / err5
        ok = ok and rel <= 5e-3 and 3.0 < ratio < 5.0
        details.append(f"{name} rel {rel:.2e} ratio {ratio:.2f}")
    report(9, ok, ", ".join(details))


def test_criterion_10_reuleaux_dominates(tetra_vs, pyr2_vs, pyr3_vs):
    margins = {}
    for name, vs in (("tetra", tetra_vs), ("pyr2", pyr2_vs), ("pyr3", pyr3_vs)):
        pairs = pairs_of(vs)
        upper = reuleaux_area(vs, pairs)
        worst = max(area for _, area in enumerate_smoothings(vs, pairs))
        margins[name] = upper - worst
    report(
        10,
        all(m >= 0.0 for m in margins.values()) and margins["tetra"] >= 0.04,
        ", ".join(f"{k} margin {v:.4f}" for k, v in margins.items()),
    )
