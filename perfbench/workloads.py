"""The benchmark's workloads: fixed job lists built from a seed, with checks.

Every job checks its own outputs against the closed forms with the
acceptance tests' tolerances and returns the checks that failed; a job
that raises counts as failed too.  Nothing here aborts a run.

Each workload also names the traced calls its jobs make (`uses`).  The
same calls, on small inputs, make up `small_calls`: the warm-up runs
the ones a workload uses, and the probe between the timed passes runs
the rest, so that every layer metric is a measured value on every workload.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import meissner as M
from meissner import cli
from meissner.montecarlo import BallSystem
from spans import Tracer

# Tolerances of tests/test_acceptance.py, by criterion.
CLOSED_FORM_TOL = 1e-12  # 1 and 2: patch decomposition against meissner_area
PARTITION_TOL = 1e-9  # 4: direction-sphere partition against 2*pi
WIDTH_TOL = 1e-6  # 8: sampled widths within 1 +- WIDTH_TOL
AREA_BOUND = 2.934115 - 1e-6  # 7: no feasible restart below the tetrahedron
F_GRID_TOL = 1e-12  # 6: monotonicity, convexity and swap slack of f
F_DERIVATIVE_TOL = 1e-6  # 6: finite difference against f_partial_x
# Criterion 3 allows 3 sigma at one fixed seed.  Here every run draws
# fresh seeds and makes a few hundred MC checks, so a correct program
# would fail a 3-sigma check in about half of the sweep runs.  The
# two-sided normal tail beyond 6 sigma is 2e-9 per check, below 1e-3
# over the ~1e5 checks of a full measurement campaign.  At sweep's 2^13
# samples the check catches gross faults, such as a broken membership
# test, rather than small biases.
MC_SIGMA_BOUND = 6.0

SWEEP_KS = (1, 2, 3, 4, 5)  # m = 2k + 2 runs 4..12; 2^11 smoothings at m = 12
SWEEP_PER_K = 20
SWEEP_DIRECTIONS = 16
SWEEP_REFINE = 1
SWEEP_SAMPLES = 1 << 13
SWEEP_GRID = 200

# (n, restarts) and (start, restarts).  One restart costs about 3 s at
# n=5, 7 s at n=7, 3-4 s from the k=2 pyramid and 0.5 s from the
# tetrahedron, so a pass takes about 17 s and a run times three of them.
# With four restarts from the tetrahedron among seven, the median
# restart is always one of them, never the boundary between two
# optimizer calls whose times differ.
SEARCH_PYRAMIDS = ((5, 1), (7, 1))
SEARCH_STARTS = (("pyr2", 1), ("tetra", 4))


@dataclass
class Records:
    """What the end-to-end metrics are computed from, for one pass or probe."""

    cal: list[float] = field(default_factory=list)  # calibration kernel seconds
    # per job (in a probe, per call) name, one entry per run: seconds, net
    # of the calibration kernel; the calibration factor around the run;
    # while the pass runs, its (start, end)
    job_s: dict[str, list[float]] = field(default_factory=dict)
    job_scale: dict[str, list[float]] = field(default_factory=dict)
    windows: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    mc_se: dict[str, float] = field(default_factory=dict)  # std_error of the job's mc_volume call
    restarts: dict[str, int] = field(default_factory=dict)  # restarts of the job's optimizer call
    attempted: int = 0
    failed: int = 0  # jobs with at least one failed check
    failures: list[str] = field(default_factory=list)


class Context:
    """What the jobs share: the tracer, a scratch directory and the records."""

    def __init__(self, tracer: Tracer, tmp: Path, threads: int) -> None:
        self.tracer = tracer
        self.tmp = tmp
        self.threads = threads
        self.rec = Records()

    def call(self, fn, *args, counts=None, **kwargs):
        """Call into meissner as the span `<module>.<function>`."""
        return self.tracer.call(layer_name(fn), fn, *args, counts=counts, **kwargs)


def layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


@dataclass
class Job:
    name: str  # a job may run more than once per pass; it is taken at its fastest run
    body: str | None  # the body whose time, for body_ms_*, this job is part of
    run: Callable[[Context], list[str]]


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    uses: frozenset[str]
    sizes: dict


class _Checks:
    def __init__(self) -> None:
        self.failed: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed.append(what)


# Calls that feed counts or end-to-end records, shared by jobs and small calls.


def mc_volume(ctx: Context, system, samples: int, seed: int, threads: int):
    r = ctx.call(
        M.mc_volume, system, samples, seed=seed, threads=threads,
        counts=lambda r: {"samples": r.samples, "hits": r.hits},
    )
    ctx.rec.mc_se[ctx.tracer.job] = r.std_error
    return r


def width_samples(ctx: Context, system, directions: int, seed: int):
    return ctx.call(M.width_samples, system, directions, seed=seed, counts=lambda _: {"directions": directions})


def tessellate(ctx: Context, poly, refine: int):
    return ctx.call(
        M.tessellate, poly, refine, counts=lambda m: {"triangles": len(m.faces), "vertices": len(m.vertices)}
    )


def write_mesh(ctx: Context, mesh, path: Path) -> None:
    ctx.call(M.write_mesh, mesh, path, counts=lambda _: {"bytes": path.stat().st_size})


def enumerate_smoothings(ctx: Context, vs, pairs):
    return ctx.call(M.enumerate_smoothings, vs, pairs, counts=lambda t: {"smoothings": len(t)})


def optimize(ctx: Context, fn, start, restarts: int, seed: int):
    rep = ctx.call(
        fn, start, restarts=restarts, seed=seed,
        counts=lambda rep: {
            "restarts": len(rep.records),
            "rounds": sum(r.rounds for r in rep.records),
            "converged": sum(r.converged for r in rep.records),
            "best_area": rep.best_area,
        },
    )
    ctx.rec.restarts[ctx.tracer.job] = restarts
    return rep


def run_cli(ctx: Context, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ctx.tracer.call(f"cli.main.{argv[0]}", cli.main, argv)
    return code, out.getvalue(), err.getvalue()


# sweep.  A body's work is split into several jobs so that each part is
# taken at its own fastest pass.


def _mc_job(system, samples: int, volume: float, seed: int, ctx: Context) -> list[str]:
    r = mc_volume(ctx, system, samples, seed, 1)
    gap = abs(r.volume - volume)
    if gap > MC_SIGMA_BOUND * r.std_error:
        return [f"mc gap {gap / r.std_error:.2f} sigma > {MC_SIGMA_BOUND}"]
    return []


def _widths_job(system, directions: int, seed: int, ctx: Context) -> list[str]:
    lo, hi = width_samples(ctx, system, directions, seed)
    if not 1.0 - WIDTH_TOL <= lo <= hi <= 1.0 + WIDTH_TOL:
        return [f"widths [{lo!r}, {hi!r}] outside 1 +- {WIDTH_TOL}"]
    return []


def _sweep_closed_forms(points, area: float, volume: float, ctx: Context) -> list[str]:
    ok = _Checks()
    vs = ctx.call(M.validate_vertex_set, points)
    pairs = ctx.call(M.find_dual_pairs, ctx.call(M.build_diameter_graph, vs), vs)
    poly = ctx.call(M.build_meissner, vs)
    same = (ctx.call(M.meissner_area, poly), ctx.call(M.meissner_volume, poly)) == (area, volume)
    ok.expect(same, "area or volume differs from the set-up's value for the same points")
    reuleaux = ctx.call(M.reuleaux_area, vs, pairs)

    table = enumerate_smoothings(ctx, vs, pairs)
    optimal = ctx.call(M.optimal_smoothing, pairs)
    argmin, least = min(table, key=lambda entry: entry[1])
    # the m = 4 bodies are regular tetrahedra, whose smoothings all tie,
    # so a different argmin passes when its area ties with the optimal one
    tied = dict((c.bits, a) for c, a in table)[optimal.bits] - least <= CLOSED_FORM_TOL
    ok.expect(argmin.bits == optimal.bits or tied, "argmin smoothing differs from optimal_smoothing")
    worst = max(a for _, a in table)
    ok.expect(reuleaux >= worst, f"reuleaux area {reuleaux!r} below smoothing area {worst!r}")
    gap = abs(ctx.call(M.direction_sphere_partition, poly) - 2.0 * math.pi)
    ok.expect(gap <= PARTITION_TOL, f"partition gap {gap:.2e}")
    gap = abs(ctx.call(M.surface_decomposition, poly).total - area)
    ok.expect(gap <= CLOSED_FORM_TOL, f"decomposition gap {gap:.2e}")
    return ok.failed


def _sweep_files(vs, path: Path, area: float, volume: float, ctx: Context) -> list[str]:
    ok = _Checks()
    ctx.call(M.save_vertex_file, vs, path)
    loaded = ctx.call(M.load_vertex_file, path)
    ok.expect(loaded.points.tobytes() == vs.points.tobytes(), "vertex file round trip is not bitwise")
    code, out, err = run_cli(ctx, ["analyze", str(path)])
    ok.expect(code == 0, f"analyze exit code {code}: {err.strip()}")
    rows = dict(line.split(",", 1) for line in out.splitlines())
    ok.expect(rows.get("meissner_area") == f"{area:.17g}", "analyze area differs from meissner_area")
    ok.expect(rows.get("meissner_volume") == f"{volume:.17g}", "analyze volume differs from meissner_volume")
    return ok.failed


def _sweep_mesh(poly, ctx: Context) -> list[str]:
    chi = ctx.call(M.euler_characteristic, tessellate(ctx, poly, SWEEP_REFINE))
    return [] if chi == 2 else [f"euler characteristic {chi}"]


def _f_grid(ctx: Context) -> list[str]:
    """Acceptance criterion 6 over a SWEEP_GRID x SWEEP_GRID grid."""
    ok = _Checks()
    xs = np.linspace(0.0, math.pi / 3.0, SWEEP_GRID)

    def grid():
        return np.array([[M.f_pair(M.PairLengths(x, y)) for x in xs] for y in xs])

    values = ctx.tracer.call("sphere.f_pair", grid, counts=lambda _: {"calls": SWEEP_GRID * SWEEP_GRID})
    for axis in (0, 1):
        ok.expect((np.diff(values, axis=axis) >= -F_GRID_TOL).all(), f"f not increasing along axis {axis}")
        ok.expect((np.diff(values, 2, axis=axis) >= -F_GRID_TOL).all(), f"f not convex along axis {axis}")
    lower = np.tril_indices(SWEEP_GRID)
    ok.expect(((values - values.T)[lower] >= -F_GRID_TOL).all(), "f(x, y) < f(y, x) for some y >= x")

    h = 1e-6
    points = [(x, y) for x in xs[5:-5:10] for y in xs[5:-5:10]]

    def finite_differences():
        return [(M.f_pair(M.PairLengths(x + h, y)) - M.f_pair(M.PairLengths(x - h, y))) / (2 * h) for x, y in points]

    def exact():
        return [M.f_partial_x(M.PairLengths(x, y)) for x, y in points]

    fd = ctx.tracer.call("sphere.f_pair", finite_differences, counts=lambda _: {"calls": 2 * len(points)})
    ex = ctx.tracer.call("sphere.f_partial_x", exact, counts=lambda _: {"calls": len(points)})
    worst = max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(fd, ex))
    ok.expect(worst <= F_DERIVATIVE_TOL, f"f_partial_x off by {worst:.2e}")
    return ok.failed


def sweep(seed: int, ctx: Context) -> Workload:
    # stratified by k in a fixed order, so the percentiles of the mixed
    # body sizes land on the same strata from seed to seed
    bodies = [
        M.random_feasible_pyramid(k, seed * 100 + i) for i in range(SWEEP_PER_K) for k in SWEEP_KS
    ]
    jobs = []
    for i, vs in enumerate(bodies):
        poly = M.build_meissner(vs)
        system = BallSystem.from_meissner(poly)
        area, volume = M.meissner_area(poly), M.meissner_volume(poly)
        body, body_seed = f"body{i}-m{vs.m}", seed * 1000 + i
        jobs += [
            Job(f"{body}-closed-forms", body, partial(_sweep_closed_forms, vs.points, area, volume)),
            Job(f"{body}-files", body, partial(_sweep_files, vs, ctx.tmp / f"{body}.txt", area, volume)),
            Job(f"{body}-widths", body, partial(_widths_job, system, SWEEP_DIRECTIONS, body_seed)),
            Job(f"{body}-mesh", body, partial(_sweep_mesh, poly)),
            Job(f"{body}-mc", body, partial(_mc_job, system, SWEEP_SAMPLES, volume, body_seed)),
        ]
    jobs.append(Job("f-grid", None, _f_grid))
    uses = {
        "polytope.validate_vertex_set", "polytope.build_diameter_graph", "polytope.find_dual_pairs",
        "polytope.build_meissner", "polytope.meissner_area", "polytope.meissner_volume",
        "polytope.reuleaux_area", "polytope.enumerate_smoothings", "polytope.optimal_smoothing",
        "polytope.direction_sphere_partition", "polytope.surface_decomposition",
        "generate.save_vertex_file", "generate.load_vertex_file", "cli.main.analyze",
        "montecarlo.width_samples", "mesh.tessellate", "mesh.euler_characteristic",
        "montecarlo.mc_volume", "sphere.f_pair", "sphere.f_partial_x",
    }
    sizes = {
        "bodies": len(bodies), "ks": list(SWEEP_KS), "per_k": SWEEP_PER_K, "directions": SWEEP_DIRECTIONS,
        "refine": SWEEP_REFINE, "mc_samples": SWEEP_SAMPLES, "f_grid": SWEEP_GRID,
    }
    return Workload("sweep", jobs, frozenset(uses), sizes)


# search


def _search_job(fn, start, restarts: int, seed: int, ctx: Context) -> list[str]:
    ok = _Checks()
    rep = optimize(ctx, fn, start, restarts, seed)
    for r in rep.records:
        ok.expect(r.converged or r.validated, f"restart {r.restart} neither converged nor validated")
        ok.expect(r.area >= AREA_BOUND, f"restart {r.restart} area {r.area!r} below {AREA_BOUND!r}")
    return ok.failed


def search(seed: int, ctx: Context) -> Workload:
    starts = {"pyr2": M.regular_pyramid(2), "tetra": M.regular_tetrahedron()}
    pyramids = [
        Job(f"pyramid{n}", f"pyramid{n}", partial(_search_job, M.optimize_pyramid, n, restarts, seed))
        for n, restarts in SEARCH_PYRAMIDS
    ]
    general = [
        Job(f"meissner-{name}", f"meissner-{name}", partial(
            _search_job, M.optimize_meissner, M.OptimizationProblem.from_vertex_set(starts[name]), restarts, seed
        ))
        for name, restarts in SEARCH_STARTS
    ]
    (p5, p7), (pyr2, tetra) = pyramids, general
    # the tetrahedron job sets restart_s_p50 and is the shortest, so it
    # runs twice per pass, about half a pass apart, for more samples
    jobs = [tetra, p5, pyr2, tetra, p7]
    sizes = {
        "pyramids": [list(p) for p in SEARCH_PYRAMIDS], "starts": [list(s) for s in SEARCH_STARTS],
        "order": [job.name for job in jobs],
    }
    return Workload("search", jobs, frozenset({"optimize.optimize_pyramid", "optimize.optimize_meissner"}), sizes)


WORKLOADS = {"sweep": sweep, "search": search}


def small_calls(seed: int, ctx: Context) -> dict[str, Callable[[], object]]:
    """One small call per traced name, on the tetrahedron."""
    vs = M.regular_tetrahedron()
    graph = M.build_diameter_graph(vs)
    pairs = M.find_dual_pairs(graph, vs)
    poly = M.build_meissner(vs)
    system = BallSystem.from_meissner(poly)
    mesh = M.tessellate(poly, 1)
    path, obj = ctx.tmp / "small.txt", ctx.tmp / "small.obj"
    M.save_vertex_file(vs, path)
    problem = M.OptimizationProblem.from_vertex_set(vs)
    simple = [
        (M.validate_vertex_set, vs.points), (M.build_diameter_graph, vs), (M.find_dual_pairs, graph, vs),
        (M.build_meissner, vs), (M.meissner_area, poly), (M.meissner_volume, poly),
        (M.reuleaux_area, vs, pairs), (M.optimal_smoothing, pairs), (M.direction_sphere_partition, poly),
        (M.surface_decomposition, poly), (M.f_pair, M.PairLengths(0.5, 0.6)),
        (M.f_partial_x, M.PairLengths(0.5, 0.6)), (M.save_vertex_file, vs, path),
        (M.load_vertex_file, path), (M.mesh_area, mesh), (M.euler_characteristic, mesh),
    ]
    calls = {layer_name(fn): partial(ctx.call, fn, *args) for fn, *args in simple}
    calls.update({
        "polytope.enumerate_smoothings": partial(enumerate_smoothings, ctx, vs, pairs),
        # one thread: how much a second thread helps swings with the load
        # the machine's other tenants put on the second core
        "montecarlo.mc_volume": partial(mc_volume, ctx, system, 1 << 18, seed, 1),
        "montecarlo.width_samples": partial(width_samples, ctx, system, SWEEP_DIRECTIONS, seed),
        "mesh.tessellate": partial(tessellate, ctx, poly, 1),
        "mesh.write_mesh": partial(write_mesh, ctx, mesh, obj),
        "optimize.optimize_pyramid": partial(optimize, ctx, M.optimize_pyramid, 3, 1, seed),
        "optimize.optimize_meissner": partial(optimize, ctx, M.optimize_meissner, problem, 1, seed),
        "cli.main.analyze": partial(run_cli, ctx, ["analyze", str(path)]),
        "cli.main.mesh": partial(run_cli, ctx, ["mesh", str(path), "--refine", "1", "--out", str(obj)]),
    })
    return calls
