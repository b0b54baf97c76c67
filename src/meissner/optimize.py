"""Area minimization over extremal configurations with fixed combinatorics.

Both searches maximize the total smoothing gain (equivalently minimize
the closed-form surface area) under the unit-distance constraints of a
diameter graph, using Nelder-Mead inside a quadratic penalty loop whose
weight grows tenfold per round until the worst constraint residual
drops below FEASIBILITY_TOL.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import InfeasibleStart, NotAWheel, ValidationError
from .polytope import (
    DiameterGraph,
    VertexSet,
    build_diameter_graph,
    build_meissner,
    dual_pair_indices,
    meissner_area,
    validate_vertex_set,
)
from .sphere import PairLengths, chord_to_arc, dihedral_angle

__all__ = [
    "FEASIBILITY_TOL",
    "TETRAHEDRON_AREA",
    "TETRAHEDRON_VOLUME",
    "OptimizationProblem",
    "RestartRecord",
    "OptimizationReport",
    "pyramid_objective",
    "optimize_pyramid",
    "optimize_meissner",
    "random_feasible_pyramid",
]

FEASIBILITY_TOL = 1e-8
START_RESIDUAL_MAX = 0.1
# vertices this close are one: a restart collapsing onto a smaller wheel leaves them ~1e-8 apart
MERGE_TOL = 1e-5
# 100x FEASIBILITY_TOL: iterates accepted as feasible, merged or not, must pass validation
VALIDATION_TOL = 1e-6
_MAX_ROUNDS = 18
_STALL_ROUNDS = 3
_COS30 = math.cos(math.pi / 6)

TETRAHEDRON_AREA = 2.0 * math.pi - (math.sqrt(3.0) / 2.0) * math.pi * math.acos(1.0 / 3.0)
TETRAHEDRON_VOLUME = TETRAHEDRON_AREA / 2.0 - math.pi / 3.0


@dataclass(frozen=True, slots=True)
class OptimizationProblem:
    """Fixed diameter-graph combinatorics plus a starting configuration."""

    graph: DiameterGraph
    start: np.ndarray

    @classmethod
    def from_vertex_set(cls, vs: VertexSet) -> "OptimizationProblem":
        return cls(build_diameter_graph(vs), np.array(vs.points))


@dataclass(frozen=True, slots=True)
class RestartRecord:
    restart: int
    objective: float
    area: float
    residual: float
    rounds: int
    evaluations: int
    converged: bool
    validated: bool
    meets_tetrahedron_bound: bool


@dataclass(frozen=True, slots=True)
class OptimizationReport:
    best_objective: float
    best_area: float
    best_volume: float
    best_points: np.ndarray
    best_residual: float
    records: tuple[RestartRecord, ...]
    trajectory: tuple[float, ...]


def pyramid_objective(vs: VertexSet) -> float:
    """Sum over dual pairs of cos(theta(e')/2)*phi(e') with e' the apex edge.

    Requires wheel combinatorics; the Meissner area of the pyramid is
    then 2*pi - (pi/3) times this value, so larger is better.  The value
    never exceeds 3*(sqrt(3)/2)*arccos(1/3), attained by tetrahedra.
    """
    graph = build_diameter_graph(vs)
    hub = _wheel_hub(graph)
    total = []
    for e, e_dual in dual_pair_indices(graph):
        apex, base = (e, e_dual) if hub in e else (e_dual, e)
        if hub not in apex or hub in base:
            raise NotAWheel(f"pair {(e, e_dual)} does not split into apex and base edges")
        pts = vs.points
        theta_apex = chord_to_arc(float(np.linalg.norm(pts[apex[0]] - pts[apex[1]])), vs.tol)
        theta_base = chord_to_arc(float(np.linalg.norm(pts[base[0]] - pts[base[1]])), vs.tol)
        phi_apex = dihedral_angle(PairLengths(theta_apex, theta_base))
        total.append(math.cos(theta_apex / 2) * phi_apex)
    return math.fsum(total)


def optimize_pyramid(n: int, restarts: int = 1, seed: int = 0) -> OptimizationReport:
    """Search wheel pyramids with n base vertices for minimal Meissner area.

    Base points stay on the unit sphere around the apex, parametrized by
    spherical angles, so only the base diagonal constraints are penalized.
    Restart 0 starts from the regular pyramid; later restarts perturb it.
    """
    if n < 3 or n % 2 == 0 or n > 19:
        raise ValueError(f"base count must be odd and in [3, 19], got {n}")
    k = (n - 1) // 2
    kernel = _pyramid_kernel(k)
    angles0 = _regular_angles(k)
    if kernel.residual(angles0) > START_RESIDUAL_MAX:
        raise InfeasibleStart("regular pyramid start violates its own constraints")
    # widen the spread with the restart index; the interesting
    # degenerate corners sit far from the regular configuration
    return _search(kernel, angles0, restarts, seed, lambda run: min(0.03 + 0.02 * (run - 1), 0.3))


def optimize_meissner(problem: OptimizationProblem, restarts: int = 1, seed: int = 0) -> OptimizationReport:
    """Search configurations with the problem's diameter graph for minimal area.

    Coordinates are gauge-fixed (first vertex pinned, second on the x
    axis, third in the xy plane); graph edges are equality constraints
    at distance one, non-edges inequality constraints at most one.  The
    objective for each dual pair takes the better smoothing orientation.
    """
    kernel = _general_kernel(problem.graph)
    x0 = _gauge_coords(np.array(problem.start, dtype=float))
    if kernel.residual(x0) > START_RESIDUAL_MAX:
        raise InfeasibleStart("start configuration violates the distance constraints")
    return _search(kernel, x0, restarts, seed, lambda run: min(0.01 + 0.01 * (run - 1), 0.1))


def random_feasible_pyramid(k: int, seed: int, scale: float = 0.05) -> VertexSet:
    """Random extremal wheel pyramid near the regular one.

    Perturbs the spherical angles and projects back onto the diagonal
    constraints by Gauss-Newton, so the result validates at the default
    tolerance.
    """
    n = 2 * k + 1
    kernel = _pyramid_kernel(k)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    for _ in range(20):
        angles = _regular_angles(k) + scale * rng.normal(size=2 * n)
        angles = kernel.project(angles)
        if angles is None:
            continue
        try:
            return validate_vertex_set(_pyramid_points(angles))
        except ValidationError:
            continue
    raise InfeasibleStart(f"no feasible perturbed pyramid found for k={k}, seed={seed}")


@dataclass(frozen=True, slots=True)
class _Kernel:
    """Merit, residual, projection and scoring of one problem.

    Every evaluation gathers the point pairs (i, j) in one difference and
    reads the soft objective and every constraint from the resulting
    squared distances.  Those come from direct differences, not from a
    Gram matrix: restarts collapse toward coincident vertices, where a
    Gram matrix loses short distances to cancellation.  Every pair is
    constrained; its violation (length minus one) is floored at `floor`,
    -inf for the equalities at distance one and 0 for the inequalities
    at most one.
    """

    points: Callable[[np.ndarray], np.ndarray]  # parameters -> (m, 3) points
    i: np.ndarray
    j: np.ndarray
    floor: np.ndarray
    soft: Callable[[np.ndarray], float]  # squared distances -> soft objective
    exact: Callable[[VertexSet], float]  # objective of a validated set
    area: Callable[[float], float]  # area at an objective value

    def squared(self, x: np.ndarray) -> np.ndarray:
        pts = self.points(x)
        d = pts.take(self.i, axis=0) - pts.take(self.j, axis=0)
        return (d * d).sum(axis=1)

    def merit(self, x: np.ndarray, mu: float) -> float:
        """-objective + mu * penalty, the function Nelder-Mead minimizes."""
        d2 = self.squared(x)
        violation = np.maximum(d2 - 1.0, self.floor)
        return -self.soft(d2) + mu * float(violation @ violation)

    def residual(self, x: np.ndarray) -> float:
        """Worst constraint violation, measured in distance."""
        return float(np.abs(np.maximum(np.sqrt(self.squared(x)) - 1.0, self.floor)).max())

    def project(self, x: np.ndarray) -> np.ndarray | None:
        """Restore the equality constraints; None when Gauss-Newton fails."""
        eq = self.floor < 0.0
        return _gauss_newton(x, lambda v: self.squared(v)[eq] - 1.0)

    def evaluate(self, x: np.ndarray) -> tuple[float, float, bool, bool]:
        """Objective, area, strict-validity flag, on-domain flag.

        Points that fail strict validation get a second chance after
        merging coincident vertices: the collapse of a pyramid onto a
        smaller wheel (the tetrahedron, in the limit) is then scored by
        the closed form of the merged body.  The soft objective applied
        to anything else no longer measures an area, so such points are
        flagged off-domain and only ever reported for runs that found
        nothing better.
        """
        pts = self.points(x)
        for candidate in (pts, _merged_distinct(pts)):
            if candidate is None or len(candidate) < 4:
                continue
            try:
                objective = self.exact(validate_vertex_set(candidate, tol=VALIDATION_TOL))
            except (ValidationError, ValueError):
                continue
            return objective, self.area(objective), candidate is pts, True
        objective = self.soft(self.squared(x))
        return objective, self.area(objective), False, False


def _pyramid_kernel(k: int) -> _Kernel:
    """Base chords of every step 1..k; row s - 1 joins base vertex b to b + s.

    The step-k chords are the base edges of the diameter graph, the
    shorter steps its base non-edges, and the step-1 chords fix the
    dihedral angles at the apex edges, which the soft objective sums.
    """
    n = 2 * k + 1
    base = np.arange(n)
    partner = (base + np.arange(1, k + 1)[:, None]) % n

    def soft(d2: np.ndarray) -> float:
        phi = 2.0 * np.arcsin(np.minimum(np.sqrt(d2[:n]) / 2.0 / _COS30, 1.0))
        return float(_COS30 * phi.sum())

    # point 0 is the apex, base vertex b is point b + 1
    return _Kernel(
        _pyramid_points,
        np.tile(base + 1, k),
        partner.ravel() + 1,
        floor=np.r_[np.zeros((k - 1) * n), np.full(n, -np.inf)],
        soft=soft,
        exact=pyramid_objective,
        area=lambda objective: 2.0 * math.pi - (math.pi / 3.0) * objective,
    )


def _general_kernel(graph: DiameterGraph) -> _Kernel:
    """Every point pair in gauge-fixed coordinates, graph edges first."""
    m, n_edges = graph.m, len(graph.edges)
    non_edges = [(i, j) for i in range(m) for j in range(i + 1, m) if (i, j) not in graph.edges]
    pairs = list(graph.edges) + non_edges
    position = {pair: p for p, pair in enumerate(pairs)}
    i, j = np.array(pairs).T
    # row 0: each dual pair's first edge, row 1: its dual
    ends = np.array([[position[e] for e in pair] for pair in dual_pair_indices(graph)]).T
    # flat slots of the 3m - 6 free coordinates, see _gauge_coords
    gauge = np.r_[3, 6, 7, 9 : 3 * m]

    def points(coords: np.ndarray) -> np.ndarray:
        flat = np.zeros(3 * m)
        flat[gauge] = coords
        return flat.reshape(m, 3)

    def soft(d2: np.ndarray) -> float:
        # smoothing gain f(retained, smoothed) of both orientations of
        # every pair, from half chords and half arcs; the pair takes the
        # better orientation
        half = np.sqrt(d2[ends]) / 2.0
        half_arc = np.arcsin(np.minimum(half, 1.0))[::-1]
        cos_half = np.cos(half_arc)
        f = 2.0 * half_arc * cos_half * 2.0 * np.arcsin(np.minimum(half / cos_half, 1.0))
        return float(np.maximum(f[0], f[1]).sum())

    return _Kernel(
        points,
        i,
        j,
        floor=np.r_[np.full(n_edges, -np.inf), np.zeros(len(pairs) - n_edges)],
        soft=soft,
        exact=lambda vs: 2.0 * math.pi - meissner_area(build_meissner(vs)),
        area=lambda objective: 2.0 * math.pi - objective,
    )


def _search(
    kernel: _Kernel, x0: np.ndarray, restarts: int, seed: int, spread: Callable[[int], float]
) -> OptimizationReport:
    """Restart 0 starts at x0, restart r from x0 plus spread(r) noise, projected."""
    records: list[RestartRecord] = []
    trajectories: list[tuple[float, ...]] = []
    points: list[np.ndarray] = []
    for run in range(restarts):
        if run == 0:
            x = x0.copy()
        else:
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(run,))))
            x = x0 + spread(run) * rng.normal(size=x0.shape)
            projected = kernel.project(x)
            if projected is not None:
                x = projected
        final, rounds, evaluations, traj, best = _penalty_loop(x, kernel)
        if best is not None:
            objective, area, validated, final, residual = best
        else:
            objective, area, validated, _ = kernel.evaluate(final)
            residual = kernel.residual(final)
        records.append(
            RestartRecord(
                restart=run,
                objective=objective,
                area=area,
                residual=residual,
                rounds=rounds,
                evaluations=evaluations,
                converged=best is not None,
                validated=validated,
                meets_tetrahedron_bound=area >= TETRAHEDRON_AREA - 1e-6,
            )
        )
        trajectories.append(traj)
        points.append(kernel.points(final))
    return _assemble_report(records, trajectories, points)


def _regular_angles(k: int) -> np.ndarray:
    n = 2 * k + 1
    rho = math.asin(1.0 / (2.0 * math.sin(math.pi * k / n)))
    angles = np.empty(2 * n)
    angles[0::2] = rho
    angles[1::2] = [2.0 * math.pi * i / n for i in range(n)]
    return angles


def _pyramid_points(angles: np.ndarray) -> np.ndarray:
    """Apex at the origin, then base points at polar angle rho, azimuth psi."""
    sin, cos = np.sin(angles), np.cos(angles)
    pts = np.zeros((len(angles) // 2 + 1, 3))
    pts[1:, 0] = sin[0::2] * cos[1::2]
    pts[1:, 1] = sin[0::2] * sin[1::2]
    pts[1:, 2] = cos[0::2]
    return pts


def _merged_distinct(pts: np.ndarray) -> np.ndarray | None:
    """Drop vertices within MERGE_TOL of an earlier one; None when none merge."""
    reps: list[np.ndarray] = []
    for p in pts:
        if all(float(np.linalg.norm(p - r)) > MERGE_TOL for r in reps):
            reps.append(p)
    if len(reps) == len(pts):
        return None
    return np.array(reps)


def _gauss_newton(v: np.ndarray, constraints, iters: int = 60) -> np.ndarray | None:
    """Least-squares Newton iteration driving the constraint vector to zero."""
    v = v.copy()
    h = 1e-7
    for _ in range(iters):
        r = constraints(v)
        if float(np.abs(r).max()) <= 1e-13:
            return v
        jac = np.empty((len(r), len(v)))
        for j in range(len(v)):
            vp = v.copy()
            vp[j] += h
            jac[:, j] = (constraints(vp) - r) / h
        step, *_ = np.linalg.lstsq(jac, r, rcond=None)
        v = v - step
    return None


def _gauge_coords(points: np.ndarray) -> np.ndarray:
    """Rigid-motion-normalized coordinates with 3m - 6 free entries."""
    pts = points - points[0]
    e1 = pts[1]
    n1 = np.linalg.norm(e1)
    if n1 < 1e-9:
        raise InfeasibleStart("first two start points coincide")
    e1 = e1 / n1
    helper = pts[2] - (pts[2] @ e1) * e1
    n2 = np.linalg.norm(helper)
    if n2 < 1e-9:
        # collinear start; any frame orthogonal to e1 works
        helper = np.eye(3)[int(np.argmin(np.abs(e1)))]
        helper = helper - (helper @ e1) * e1
        n2 = np.linalg.norm(helper)
    e2 = helper / n2
    e3 = np.cross(e1, e2)
    frame = np.stack((e1, e2, e3), axis=1)
    local = pts @ frame
    coords = [local[1, 0], local[2, 0], local[2, 1]]
    for i in range(3, len(pts)):
        coords.extend(local[i])
    return np.array(coords)


_Best = tuple[float, float, bool, np.ndarray, float]


def _penalty_loop(x: np.ndarray, kernel: _Kernel) -> tuple[np.ndarray, int, int, tuple[float, ...], _Best | None]:
    """Nelder-Mead rounds with a tenfold penalty ramp; keeps the best iterate.

    Nelder-Mead can tunnel through an infeasible valley into a spurious
    branch of the constraint set where the soft objective stops meaning
    anything, so the final simplex point is never trusted blindly.
    Round results are restored to the equality manifold by projection
    when it succeeds, then scored by `kernel.evaluate`, which rejects
    off-domain points; the best accepted iterate (the start competes
    too) is returned as (objective, area, validated, x, residual), after
    the final point, the round count and the merit evaluation count.
    """
    mu = 1e2
    trajectory: list[float] = []
    rounds = 0
    evaluations = 0
    improved_at = 0
    best: _Best | None = None

    def consider(v: np.ndarray, r: float) -> bool:
        nonlocal best
        if r > FEASIBILITY_TOL:
            return False
        obj, area, validated, on_domain = kernel.evaluate(v)
        if on_domain and (best is None or obj > best[0] + 1e-12):
            best = (obj, area, validated, v.copy(), r)
            return True
        return False

    consider(x, kernel.residual(x))
    for _ in range(_MAX_ROUNDS):
        rounds += 1
        result = minimize(
            kernel.merit,
            x,
            args=(mu,),
            method="Nelder-Mead",
            options={
                "maxfev": 600 * len(x),
                "xatol": 1e-11,
                "fatol": 1e-13,
                "adaptive": True,
                "initial_simplex": _simplex(x, 0.05),
            },
        )
        evaluations += result.nfev
        x = result.x
        restored = kernel.project(x)
        if restored is not None:
            x = restored
        r = kernel.residual(x)
        if consider(x, r):
            improved_at = rounds
        trajectory.append(best[0] if best is not None else -math.inf)
        # ramp to full stiffness first, then keep restarting the simplex
        # until progress stalls
        if mu >= 1e8 and r <= FEASIBILITY_TOL and rounds - improved_at >= _STALL_ROUNDS:
            break
        mu = min(mu * 10.0, 1e8)
    return x, rounds, evaluations, tuple(trajectory), best


def _simplex(x: np.ndarray, scale: float) -> np.ndarray:
    simplex = np.tile(x, (len(x) + 1, 1))
    for i in range(len(x)):
        simplex[i + 1, i] += scale
    return simplex


def _assemble_report(records, trajectories, points) -> OptimizationReport:
    order = sorted(
        range(len(records)),
        key=lambda i: (records[i].converged, records[i].objective),
        reverse=True,
    )
    best = order[0]
    rec = records[best]
    return OptimizationReport(
        best_objective=rec.objective,
        best_area=rec.area,
        best_volume=rec.area / 2.0 - math.pi / 3.0,
        best_points=points[best],
        best_residual=rec.residual,
        records=tuple(records),
        trajectory=trajectories[best],
    )


def _wheel_hub(graph: DiameterGraph) -> int:
    degrees = graph.degrees()
    m = graph.m
    hubs = [i for i, d in enumerate(degrees) if d == m - 1]
    if not hubs:
        raise NotAWheel("no vertex is adjacent to all others")
    hub = hubs[0]
    rest = [i for i in range(m) if i != hub]
    if any(degrees[i] != 3 for i in rest):
        raise NotAWheel("base vertices must have degree 3")
    adj = graph.adjacency()
    base_adj = {i: sorted((adj[i] - {hub})) for i in rest}
    if any(len(v) != 2 for v in base_adj.values()):
        raise NotAWheel("base vertices must have exactly two base neighbors")
    # base must be one single cycle
    start = rest[0]
    prev, cur = None, start
    visited = 0
    while True:
        visited += 1
        a, b = base_adj[cur]
        nxt = b if a == prev else a
        prev, cur = cur, nxt
        if cur == start:
            break
        if visited > m:
            raise NotAWheel("base neighbors do not close a cycle")
    if visited != m - 1:
        raise NotAWheel("base splits into more than one cycle")
    return hub
