"""Command line front end.

Exit codes: 0 success, 2 input validation failure, 1 internal error,
64 usage error.  The commands that load a vertex file (validate,
analyze, enumerate, mc-check, mesh and search) validate it at a
unit-distance tolerance of 1e-9, overridden through the MEISSNER_TOL
environment variable.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import MeissnerError, ParseError, ValidationError
from .generate import load_vertex_file, regular_pyramid, regular_tetrahedron, save_vertex_file
from .mesh import mesh_area, tessellate, tessellate_reuleaux, write_mesh
from .montecarlo import BallSystem, mc_volume
from .optimize import (
    TETRAHEDRON_AREA,
    OptimizationProblem,
    optimize_meissner,
    optimize_pyramid,
)
from .polytope import (
    DEFAULT_TOL,
    MeissnerPolyhedron,
    SmoothingChoice,
    build_meissner,
    enumerate_smoothings,
    meissner_area,
    meissner_volume,
    reuleaux_area,
)
from .sphere import f_property_check

__all__ = ["main", "entry"]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="meissner", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="validate a vertex file and report counts")
    p.add_argument("file")
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser(
        "analyze",
        help="per-pair angles and closed-form area/volume",
        epilog="CSV schema: pair,e_i,e_j,dual_i,dual_j,theta,theta_dual,phi,phi_dual,alpha,f"
        " followed by meissner_area, meissner_volume and reuleaux_area summary rows.",
    )
    p.add_argument("file")
    p.add_argument("--smoothing", default="optimal", help="'optimal' or 'bits:<01...>', 1 smooths the pair's second edge")
    p.add_argument("--csv", help="also write the report as CSV to this path")
    p.set_defaults(run=_cmd_analyze)

    p = sub.add_parser("enumerate", help="areas of all smoothing choices", epilog="CSV schema: bits,area.")
    p.add_argument("file")
    p.add_argument("--csv", help="write bits,area rows to this path")
    p.set_defaults(run=_cmd_enumerate)

    p = sub.add_parser(
        "mc-check",
        help="Monte Carlo volume check against the closed form",
        epilog="Prints one CSV row: volume,std_error,samples,seed,closed_form,sigmas.",
    )
    p.add_argument("file")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--smoothing", default="optimal")
    p.set_defaults(run=_cmd_mc_check)

    p = sub.add_parser("gen", help="write a reference vertex file")
    p.add_argument("spec", help="'tetra' or 'pyramid:<k>'")
    p.add_argument("--out", required=True)
    p.add_argument("--edges", action="store_true", help="append the diameter graph")
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser(
        "pyramid",
        help="optimize pyramids with n base vertices",
        epilog="CSV schema: restart,objective,area,residual,rounds,converged,validated,meets_bound.",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="write one CSV row per restart to this path")
    p.set_defaults(run=_cmd_pyramid)

    p = sub.add_parser("search", help="optimize a configuration from a vertex file")
    p.add_argument("file")
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_search)

    p = sub.add_parser(
        "f-table",
        help="tabulate f over a grid and check its properties",
        epilog="CSV schema: x,y,f with both angles sweeping [0, pi/3].",
    )
    p.add_argument("--grid", type=int, default=50)
    p.add_argument("--csv", required=True, help="CSV path for x,y,f rows")
    p.set_defaults(run=_cmd_f_table)

    p = sub.add_parser("mesh", help="tessellate to an OBJ or PLY file")
    p.add_argument("file")
    p.add_argument("--refine", type=int, default=4)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("obj", "ply"), default="obj")
    p.add_argument("--smoothing", default="optimal")
    p.add_argument("--body", choices=("meissner", "reuleaux"), default="meissner")
    p.set_defaults(run=_cmd_mesh)
    return parser


def _tolerance() -> float:
    raw = os.environ.get("MEISSNER_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise ParseError(f"MEISSNER_TOL is not a number: {raw!r}") from None
    if not 0.0 < tol < 1.0:
        raise ParseError(f"MEISSNER_TOL out of range: {tol!r}")
    return tol


def _smoothing_choice(spec: str) -> SmoothingChoice | None:
    if spec == "optimal":
        return None
    bits = spec.removeprefix("bits:")
    if bits == spec or not bits or any(c not in "01" for c in bits):
        raise ParseError(f"smoothing must be 'optimal' or 'bits:<0/1...>', got {spec!r}")
    return SmoothingChoice(tuple(c == "1" for c in bits))


def _load_meissner(path: str, smoothing: str = "optimal") -> MeissnerPolyhedron:
    return build_meissner(load_vertex_file(path, _tolerance()), _smoothing_choice(smoothing))


def _cmd_validate(args) -> int:
    poly = _load_meissner(args.file)
    vs = poly.vertices
    print(f"points: {vs.m}")
    print(f"unit distances: {vs.diameter_count}")
    print(f"max distance: {vs.max_distance:.17g}")
    print(f"dual pairs: {len(poly.pairs)}")
    print("valid extremal set")
    return 0


def _cmd_analyze(args) -> int:
    poly = _load_meissner(args.file, args.smoothing)
    table = ["pair,e_i,e_j,dual_i,dual_j,theta,theta_dual,phi,phi_dual,alpha,f"]
    for i, pair in enumerate(poly.pairs):
        row = (
            i,
            pair.edge[0],
            pair.edge[1],
            pair.edge_dual[0],
            pair.edge_dual[1],
            pair.lengths.theta,
            pair.lengths.theta_dual,
            pair.phi,
            pair.phi_dual,
            pair.alpha,
            pair.gain[poly.choice.bits[i]],
        )
        table.append(",".join(_fmt(v) for v in row))
    summary = [
        f"meissner_area,{meissner_area(poly):.17g}",
        f"meissner_volume,{meissner_volume(poly):.17g}",
        f"reuleaux_area,{reuleaux_area(poly.vertices, poly.pairs):.17g}",
    ]
    print("\n".join(table))
    print(f"smoothing,{_bits(poly.choice)}")
    print("\n".join(summary))
    if args.csv:
        _write_lines(args.csv, table + summary)
    return 0


def _cmd_enumerate(args) -> int:
    poly = _load_meissner(args.file)
    table = enumerate_smoothings(poly.vertices, poly.pairs)
    best = min(range(len(table)), key=lambda i: table[i][1])
    lines = ["bits,area"]
    for choice, area in table:
        lines.append(f"{_bits(choice)},{area:.17g}")
    print("\n".join(lines))
    print(f"minimum,{_bits(table[best][0])},{table[best][1]:.17g}")
    if args.csv:
        _write_lines(args.csv, lines)
    return 0


def _cmd_mc_check(args) -> int:
    if args.samples < 1:
        raise ParseError(f"--samples must be positive, got {args.samples}")
    if args.threads < 1:
        raise ParseError(f"--threads must be positive, got {args.threads}")
    poly = _load_meissner(args.file, args.smoothing)
    system = BallSystem.from_meissner(poly)
    result = mc_volume(system, args.samples, args.seed, threads=args.threads)
    closed = meissner_volume(poly)
    gap = abs(result.volume - closed)
    # with no spread a miss is infinitely many sigmas, and an exact hit has no sigma count
    sigmas = gap / result.std_error if result.std_error > 0 else math.inf if gap > 0 else math.nan
    print("volume,std_error,samples,seed,closed_form,sigmas")
    print(
        f"{result.volume:.17g},{result.std_error:.17g},{result.samples},"
        f"{result.seed},{closed:.17g},{sigmas:.17g}"
    )
    return 0


def _cmd_gen(args) -> int:
    if args.spec == "tetra":
        vs = regular_tetrahedron()
    elif args.spec.startswith("pyramid:"):
        try:
            k = int(args.spec.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"bad pyramid parameter in {args.spec!r}") from None
        vs = regular_pyramid(k)
    else:
        raise ParseError(f"unknown generator {args.spec!r}, expected 'tetra' or 'pyramid:<k>'")
    save_vertex_file(vs, args.out, edges=args.edges)
    print(f"wrote {vs.m} points to {args.out}")
    return 0


def _cmd_pyramid(args) -> int:
    report = optimize_pyramid(args.n, restarts=args.restarts, seed=args.seed)
    _print_best(report)
    print(f"tetrahedron area bound: {TETRAHEDRON_AREA:.12f}")
    bound = all(r.meets_tetrahedron_bound for r in report.records)
    print(f"all restarts at or above the bound: {'yes' if bound else 'NO'}")
    if args.csv:
        lines = ["restart,objective,area,residual,rounds,converged,validated,meets_bound"]
        for r in report.records:
            lines.append(
                f"{r.restart},{r.objective:.17g},{r.area:.17g},{r.residual:.3e},"
                f"{r.rounds},{int(r.converged)},{int(r.validated)},{int(r.meets_tetrahedron_bound)}"
            )
        _write_lines(args.csv, lines)
    return 0


def _cmd_search(args) -> int:
    vs = load_vertex_file(args.file, _tolerance())
    problem = OptimizationProblem.from_vertex_set(vs)
    report = optimize_meissner(problem, restarts=args.restarts, seed=args.seed)
    _print_best(report)
    for r in report.records:
        flag = "ok" if r.meets_tetrahedron_bound else "BELOW TETRAHEDRON"
        print(
            f"restart {r.restart}: objective {r.objective:.12f} area {r.area:.12f} "
            f"residual {r.residual:.3e} {flag}"
        )
    return 0


def _cmd_f_table(args) -> int:
    if args.grid < 2:
        raise ParseError(f"--grid must be at least 2, got {args.grid}")
    xs, values, checks = f_property_check(args.grid)
    lines = ["x,y,f"]
    for yi, y in enumerate(xs):
        for xi, x in enumerate(xs):
            lines.append(f"{x:.17g},{y:.17g},{values[yi, xi]:.17g}")
    _write_lines(args.csv, lines)
    for name, ok in checks.items():
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    print(f"wrote {args.grid * args.grid} rows to {args.csv}")
    return 0 if all(checks.values()) else 1


def _cmd_mesh(args) -> int:
    if not 0 <= args.refine <= 8:
        raise ParseError(f"--refine must be in [0, 8], got {args.refine}")
    poly = _load_meissner(args.file, args.smoothing)
    if args.body == "meissner":
        mesh = tessellate(poly, args.refine)
        closed = meissner_area(poly)
    else:
        mesh = tessellate_reuleaux(poly.vertices, poly.pairs, args.refine)
        closed = reuleaux_area(poly.vertices, poly.pairs)
    write_mesh(mesh, args.out, args.format)
    area = mesh_area(mesh)
    print(f"vertices: {len(mesh.vertices)}")
    print(f"triangles: {len(mesh.faces)}")
    print(f"mesh area: {area:.12f}")
    print(f"closed form: {closed:.12f}")
    print(f"relative gap: {abs(area - closed) / closed:.3e}")
    return 0


def _print_best(report) -> None:
    print(f"best objective: {report.best_objective:.12f}")
    print(f"best area: {report.best_area:.12f}")
    print(f"best volume: {report.best_volume:.12f}")
    print(f"residual: {report.best_residual:.3e}")


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _bits(choice: SmoothingChoice) -> str:
    return "".join("1" if b else "0" for b in choice.bits)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MeissnerError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
