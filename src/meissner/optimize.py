"""Area minimization over extremal configurations with fixed combinatorics.

One search maximizes the total smoothing gain, objective = 2*pi - area,
under the unit-distance constraints of a validated start's diameter
graph, over the start's vertex coordinates as given.  Wheel pyramids
are one such graph: `optimize_pyramid` starts the same search from the
regular pyramid.
Each round of a quadratic penalty loop, whose weight grows tenfold per
round until the worst constraint residual drops below FEASIBILITY_TOL,
is solved by L-BFGS-B on the merit and its analytic gradient: the chain
rule from the squared pair distances through the closed-form soft
objective and penalty.  `_lbfgsb` runs scipy's L-BFGS-B routine directly:
the loop of `scipy.optimize.minimize` without its wrapping, with bitwise
the same results.  A restart whose start is accepted and rigid (its
unit distances fix it, as six fix the regular tetrahedron) runs no round:
no other feasible point lies near it, so the start is its result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, InfeasibleStart, ValidationError
from .generate import regular_pyramid
from .montecarlo import _check_integer, _stream
from .polytope import VertexSet, build_meissner, meissner_area, validate_vertex_set

__all__ = [
    "FEASIBILITY_TOL",
    "TETRAHEDRON_AREA",
    "TETRAHEDRON_VOLUME",
    "OptimizationProblem",
    "RestartRecord",
    "OptimizationReport",
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
# criterion 7's slack: a restart meets the tetrahedron bound within the validation tolerance
BOUND_SLACK = 1e-6
# objectives this close are one: restarts reaching the same body differ by rounding, ~1e-15
TIE_TOL = 1e-12
# a round's minimizer misses the constraints by about 0.3 / mu (measured on wheel pyramids): the ramp
# starts a short projection away, at 3e-3, and stops at the first decade whose miss is under FEASIBILITY_TOL
_MU_START = 1e2
_MU_MAX = 1e8
_MAX_ROUNDS = 18
_STALL_ROUNDS = 3
# a round ends when a step gains under 1e-10 relative or the projected gradient drops under 1e-8;
# at ftol 1e-15, gtol 1e-10 the stiff mu = 1e8 rounds end in failed line searches instead
_LBFGSB_OPTIONS = {"ftol": 1e-10, "gtol": 1e-8}
# scipy's L-BFGS-B defaults: stored corrections, line-search steps per iteration, iteration and evaluation caps
_LBFGSB_MAXCOR = 10
_LBFGSB_MAXLS = 20
_LBFGSB_MAXITER = 15000
_LBFGSB_MAXFUN = 15000
# projection target in squared edge length, far inside FEASIBILITY_TOL and a few hundred ulps
# above rounding; Gauss-Newton converges quadratically, so one still short after 60 steps has failed
_PROJECT_TOL = 1e-13
_PROJECT_STEPS = 60
# restart noise spread: 0.01 at restart 1, 0.01 wider each restart up to 0.1, so early restarts search near the start
_NOISE_FIRST, _NOISE_STEP, _NOISE_MAX = 0.01, 0.01, 0.1
# a start is rigid when the smallest singular value of its unit-distance Jacobian exceeds this fraction
# of the largest: a rank-deficient Jacobian keeps it at rounding level, and the regular tetrahedron's is 0.5
_RIGID_TOL = 1e-6
# per-coordinate spread of random_feasible_pyramid: far enough from the
# regular pyramid to vary every closed form, near enough to project back
_PERTURBATION = 0.05

TETRAHEDRON_AREA = 2.0 * math.pi - (math.sqrt(3.0) / 2.0) * math.pi * math.acos(1.0 / 3.0)
TETRAHEDRON_VOLUME = TETRAHEDRON_AREA / 2.0 - math.pi / 3.0


def _lbfgsb(
    fun, x0: np.ndarray, args: tuple, *, ftol: float, gtol: float
) -> tuple[np.ndarray, float, int, bool]:
    """Unbounded L-BFGS-B on fun(x, *args) -> (value, gradient): final x, value, evaluations, success.

    The loop of scipy's `_minimize_lbfgsb` (Zhu, Byrd, Lu and Nocedal,
    Algorithm 778), driving its `setulb` directly, so each round pays
    none of `minimize`'s per-call and per-evaluation wrapping.  Like
    scipy's `ScalarFunction`, it evaluates fun at x0 first and caches
    the last point it evaluated, so an evaluation request at that point
    counts and costs nothing; iteration and evaluation caps are checked
    when an iteration completes.  Success is convergence by ftol or
    gtol; a cap or a failed line search is not.  Bitwise equal to
    `scipy.optimize.minimize(fun, x0, args, jac=True, method="L-BFGS-B")`
    with the same ftol and gtol.  scipy is imported on the first call:
    that import takes 0.34-0.55 s on a 2-core x86 host.
    """
    from scipy.optimize._lbfgsb import setulb

    n, m = x0.size, _LBFGSB_MAXCOR
    x = np.array(x0, dtype=np.float64)
    at = x.copy()
    f, grad = fun(x, *args)
    g = grad.copy()  # after a failed line search setulb writes a restored gradient into g, never into the cached one
    bound = np.zeros(n)
    no_bounds = np.zeros(n, np.int32)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task, lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    factr = ftol / np.finfo(float).eps
    nfev, iterations = 1, 0
    while True:
        setulb(
            m, x, bound, bound, no_bounds, f, g, factr, gtol, wa, iwa, task, lsave, isave, dsave, _LBFGSB_MAXLS, ln_task
        )
        if task[0] == 3:  # f and g wanted at x
            if not np.array_equal(x, at):
                at = x.copy()
                f, grad = fun(x, *args)
                nfev += 1
            g = grad.copy()
        elif task[0] == 1:  # an iteration completed
            iterations += 1
            if iterations >= _LBFGSB_MAXITER:
                task[:] = 5, 504
            elif nfev > _LBFGSB_MAXFUN:
                task[:] = 5, 502
        else:
            return x, f, nfev, bool(task[0] == 4)


@dataclass(frozen=True, slots=True)
class OptimizationProblem:
    """A validated start; its unit-distance edges and dual pairs fix the combinatorics of the search."""

    start: VertexSet

    @classmethod
    def from_vertex_set(cls, vs: VertexSet) -> "OptimizationProblem":
        return cls(vs)


@dataclass(frozen=True, slots=True)
class RestartRecord:
    restart: int
    objective: float
    area: float
    residual: float
    rounds: int  # 0 marks a rigid start, returned without a search
    evaluations: int
    capped_rounds: int  # rounds whose solve missed its convergence test: a cap or a failed line search
    converged: bool
    validated: bool
    meets_tetrahedron_bound: bool


@dataclass(frozen=True, slots=True)
class OptimizationReport:
    best_objective: float
    best_area: float
    best_volume: float
    best_points: np.ndarray  # plain coordinates in the start's own frame: the search fixes no rigid motion
    best_residual: float
    records: tuple[RestartRecord, ...]


def optimize_pyramid(n: int, restarts: int = 1, seed: int = 0) -> OptimizationReport:
    """Search wheel pyramids with n base vertices for minimal Meissner area.

    The general search on the diameter graph of `regular_pyramid`,
    which restart 0 starts from and later restarts perturb.
    """
    if n < 3 or n % 2 == 0 or n > 19:
        raise ArgumentError(f"base count must be odd and in [3, 19], got {n}")
    return optimize_meissner(OptimizationProblem.from_vertex_set(regular_pyramid((n - 1) // 2)), restarts, seed)


def optimize_meissner(problem: OptimizationProblem, restarts: int = 1, seed: int = 0) -> OptimizationReport:
    """Search configurations with the start's diameter graph for minimal area.

    The parameters are the 3m coordinates of the start's points as
    given, in the start's own frame: no rigid motion is fixed, since
    the objective and the constraints do not change under one.  Graph
    edges are equality constraints at distance one, non-edges
    inequality constraints at most one.  The objective for each dual
    pair takes the better smoothing orientation.  Restart 0 starts at
    the problem's start; restart r adds noise, whose spread grows with
    r, to those coordinates and projects back onto the equalities.  A
    restart whose start is feasible, validates and is rigid (the
    tetrahedron, and so `optimize_pyramid(3)`) returns that start with
    no penalty round, so it neither searches nor imports scipy.
    """
    _check_integer(restarts, "restarts", 1)
    if restarts > 1:
        _check_integer(seed, "seed", 0)
    kernel = _Kernel(problem.start)
    x0 = problem.start.points.ravel()
    if kernel.residual(x0) > START_RESIDUAL_MAX:
        raise InfeasibleStart("start configuration violates the distance constraints")
    records: list[RestartRecord] = []
    points: list[np.ndarray] = []
    for run in range(restarts):
        if run == 0:
            x = x0.copy()
        else:
            x = x0 + min(_NOISE_FIRST + _NOISE_STEP * (run - 1), _NOISE_MAX) * _stream(seed, run).normal(size=x0.shape)
            projected = kernel.project(x)
            if projected is not None:
                x = projected
        record, pts = _restart(run, x, kernel)
        records.append(record)
        points.append(pts)
    return _assemble_report(records, points)


def random_feasible_pyramid(k: int, seed: int) -> VertexSet:
    """Random extremal wheel pyramid near the regular one.

    Perturbs the coordinates of `regular_pyramid(k)` as given and
    projects them back onto the edge constraints by Gauss-Newton, so the
    result validates at the default tolerance.
    """
    regular = regular_pyramid(k)
    kernel = _Kernel(regular)
    x0 = regular.points.ravel()
    rng = _stream(seed)
    for _ in range(20):
        x = kernel.project(x0 + _PERTURBATION * rng.normal(size=x0.shape))
        if x is None:
            continue
        try:
            return validate_vertex_set(kernel.points(x))
        except ValidationError:
            continue
    raise InfeasibleStart(f"no feasible perturbed pyramid found for k={k}, seed={seed}")


class _Kernel:
    """Merit, residual, projection and scoring of the combinatorics of one validated start.

    The start fixes the unit-distance edges and, through `build_meissner`,
    the dual pairs; the kernel never computes pairs itself.  The
    parameters are the 3m point coordinates, flattened row by row, with
    no rigid motion fixed: a rigidly moved parameter vector has the same
    merit.  Every evaluation gathers all point pairs (i, j), graph edges
    first, in one difference and reads the soft objective and every
    constraint from the resulting squared distances.  Those come
    from direct differences, not from a Gram matrix: restarts collapse
    toward coincident vertices, where a Gram matrix loses short distances
    to cancellation.  Every pair is constrained; its violation (length
    minus one) is floored at `floor`, -inf for the equalities at distance
    one and 0 for the inequalities at most one.  Derivatives run through
    the same squared distances: the soft objective returns its gradient
    w with respect to them, and the pairs' signed incidence `sign`, +1 at
    point i and -1 at point j, carries them to the points, each pair
    adding 2 w d to point i and subtracting it from point j, with no
    Jacobian formed.  `squared_jacobian` builds the Jacobian from `sign`
    when asked, for the projection and the rigidity test.  After
    construction the kernel holds only constants, its arrays read-only.
    """

    def __init__(self, start: VertexSet):
        m, n_edges = start.m, len(start.edges)
        non_edges = [(i, j) for i in range(m) for j in range(i + 1, m) if (i, j) not in start.edges]
        pairs = list(start.edges) + non_edges
        position = {pair: p for p, pair in enumerate(pairs)}
        self.i, self.j = np.array(pairs).T
        self.floor = np.r_[np.full(n_edges, -np.inf), np.zeros(len(pairs) - n_edges)]
        rows = np.arange(len(pairs))
        self.sign = np.zeros((len(pairs), m))
        self.sign[rows, self.i], self.sign[rows, self.j] = 1.0, -1.0
        for constant in (self.i, self.j, self.floor, self.sign):
            constant.flags.writeable = False
        # per dual pair: the rows of its first edge and of its dual
        self.ends = [(position[p.edge], position[p.edge_dual]) for p in build_meissner(start).pairs]
        self.m = m
        self.edges = start.edges

    def points(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(self.m, 3)

    def _differences(self, x: np.ndarray, count: int | None = None) -> np.ndarray:
        """Point i minus point j of the first count pairs, all of them by default."""
        pts = self.points(x)
        return pts.take(self.i[:count], axis=0) - pts.take(self.j[:count], axis=0)

    def squared(self, x: np.ndarray) -> np.ndarray:
        d = self._differences(x)
        return (d * d).sum(axis=1)

    def squared_jacobian(self, x: np.ndarray, edges_only: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Squared pair distances and their Jacobian: 2d in the columns of point i, -2d in those of point j.

        With edges_only, the rows of the graph edges alone: the equality
        constraints, which lead the pairs.
        """
        count = len(self.edges) if edges_only else len(self.i)
        d = self._differences(x, count)
        return (d * d).sum(axis=1), (2.0 * self.sign[:count, :, None] * d[:, None]).reshape(count, -1)

    def soft(self, d2: np.ndarray) -> tuple[float, np.ndarray]:
        """Soft objective of the squared distances and its gradient in them.

        The smoothing gain f(retained, smoothed) of both orientations of
        every dual pair, from half chords and half arcs; the pair takes
        the better orientation, orientation 0 on a tie, and the gains are
        summed by `math.fsum`.  One pass of scalar math per pair, with
        derivatives for the taken orientation only: on the 3 to 11 pairs
        of a wheel it is three (m = 12) to ten (m = 4) times faster than
        numpy calls on (2, m - 1) arrays, 4-15 against 41-48 us per call
        on a 2-core x86 host.
        """
        asin, cos, sqrt = math.asin, math.cos, math.sqrt
        sq = d2.tolist()
        grad = [0.0] * len(sq)
        gains = []
        for e0, e1 in self.ends:
            h0, h1 = sqrt(sq[e0]) / 2.0, sqrt(sq[e1]) / 2.0
            # f = 4 a cos(a) asin(t), a = asin(h_smoothed), t = h_retained / cos(a), arcsines clamped at one;
            # orientation 0 retains edge row 0 and smooths row 1, orientation 1 the reverse
            sin0 = 1.0 if 1.0 < h1 else h1
            arc0 = asin(sin0)
            cos0 = cos(arc0)
            t0 = h0 / cos0
            inner0 = asin(1.0 if 1.0 < t0 else t0)
            f0 = 4.0 * arc0 * cos0 * inner0
            sin1 = 1.0 if 1.0 < h0 else h0
            arc1 = asin(sin1)
            cos1 = cos(arc1)
            t1 = h1 / cos1
            inner1 = asin(1.0 if 1.0 < t1 else t1)
            f1 = 4.0 * arc1 * cos1 * inner1
            flip = f1 > f0
            if flip:
                f, sin_arc, arc, cos_arc, t, inner = f1, sin1, arc1, cos1, t1, inner1
            else:
                f, sin_arc, arc, cos_arc, t, inner = f0, sin0, arc0, cos0, t0, inner0
            # each derivative is 0 where its arcsine is clamped
            dinner = 1.0 / sqrt(1.0 - t * t) if t < 1.0 else 0.0
            lever = arc * sin_arc
            df_arc = 4.0 * (cos_arc * inner - lever * inner + lever * t * dinner)
            df_retained = 4.0 * arc * dinner
            df_smoothed = df_arc / cos_arc if sin_arc < 1.0 else 0.0
            df0, df1 = (df_smoothed, df_retained) if flip else (df_retained, df_smoothed)
            # dh/d(d2) = 1 / (8h)
            if h0 > 0.0:
                grad[e0] += df0 * (1.0 / (8.0 * h0))
            if h1 > 0.0:
                grad[e1] += df1 * (1.0 / (8.0 * h1))
            gains.append(f)
        return math.fsum(gains), np.array(grad)

    def merit(self, x: np.ndarray, mu: float) -> tuple[float, np.ndarray]:
        """-objective + mu * penalty and its gradient, what L-BFGS-B minimizes."""
        d = self._differences(x)
        d2 = (d * d).sum(axis=1)
        violation = np.maximum(d2 - 1.0, self.floor)
        soft, dsoft = self.soft(d2)
        # d(violation^2)/d(d2) = 2 * violation, also where the floor holds it at 0; d(d2)/d(point i) = 2d
        w = 2.0 * mu * violation - dsoft
        return -soft + mu * float(violation @ violation), (self.sign.T @ (2.0 * w[:, None] * d)).ravel()

    def residual(self, x: np.ndarray) -> float:
        """Worst constraint violation, measured in distance."""
        return float(np.abs(np.maximum(np.sqrt(self.squared(x)) - 1.0, self.floor)).max())

    def project(self, x: np.ndarray) -> np.ndarray | None:
        """Restore the equality constraints by Gauss-Newton steps of least norm.

        Returns None when a step fails, because the Gram matrix of the edge
        rows is singular (as when an edge's endpoints coincide) or the step
        is not finite, or when _PROJECT_STEPS steps leave a squared edge
        length further than _PROJECT_TOL from one.
        """
        x = x.copy()
        for _ in range(_PROJECT_STEPS):
            d2, jac = self.squared_jacobian(x, edges_only=True)
            r = d2 - 1.0
            if float(np.abs(r).max()) <= _PROJECT_TOL:
                return x
            step = _least_norm_step(jac, r)
            if step is None:
                return None
            x = x - step
        return None

    def evaluate(self, x: np.ndarray) -> tuple[float, float, bool, bool]:
        """Objective, area, strict-validity flag, on-domain flag.

        A point whose unit distances are the start's edges has the
        start's dual pairs, so it is scored from them without
        building the body: its area is
        2*pi minus the `soft` objective of its squared distances, with
        chords clamped at one as `chord_to_arc` clamps them, which is the
        closed form `meissner_area` up to rounding.  A point that
        validates with other edges is scored by `meissner_area` of the
        body `build_meissner` makes from it.  Either way the objective
        is read back from the area.  Points that fail strict validation
        get a second chance after merging coincident vertices: the
        collapse of a pyramid onto a smaller wheel (the tetrahedron, in
        the limit) is then scored by the closed form of the merged body.
        The soft objective applied to anything else no longer measures an
        area, so such points are flagged off-domain and only ever
        reported for runs that found nothing better.
        """
        pts = self.points(x)
        for merge in (False, True):
            candidate = _merged_distinct(pts) if merge else pts
            if candidate is None:
                break
            try:
                vs = validate_vertex_set(candidate, tol=VALIDATION_TOL)
                if vs.edges == self.edges:
                    area = 2.0 * math.pi - self.soft(np.minimum(self.squared(x), 1.0))[0]
                else:
                    area = meissner_area(build_meissner(vs))
            except ValidationError:
                continue
            return 2.0 * math.pi - area, area, not merge, True
        objective, _ = self.soft(self.squared(x))
        return objective, 2.0 * math.pi - objective, False, False


def _least_norm_step(jac: np.ndarray, r: np.ndarray) -> np.ndarray | None:
    """The least-norm solution jac.T @ solve(jac @ jac.T, r) of jac @ step = r.

    The Gram matrix jac @ jac.T has one row per edge, 2m - 2 at most,
    against 3m columns of jac; while jac has full row rank the step is the
    least-squares one.  None when the Gram matrix is singular or the step
    is not finite.
    """
    try:
        step = jac.T @ np.linalg.solve(jac @ jac.T, r)
    except np.linalg.LinAlgError:
        return None
    return step if np.isfinite(step).all() else None


def _merged_distinct(pts: np.ndarray) -> np.ndarray | None:
    """Drop every vertex within MERGE_TOL of an earlier one, dropped or not; None when none merge.

    A chain a ~ b ~ c with a and c apart loses both b and c, where a
    greedy pass that compared only with kept vertices would keep c.
    """
    diff = pts[:, None] - pts[None]
    near = np.tril((diff * diff).sum(axis=2) <= MERGE_TOL**2, k=-1).any(axis=1)
    return pts[~near] if near.any() else None


def _rigid(kernel: _Kernel, x: np.ndarray) -> bool:
    """Whether the unit-distance Jacobian at x has rank 3m - 6.

    The six infinitesimal rigid motions keep every distance, so they lie
    in its null space and no rank above 3m - 6 is possible.  At that
    rank x is an isolated solution of the equalities up to a rigid motion
    (inverse function theorem).  A diameter graph has at most 2m - 2
    edges, fewer than 3m - 6 for m > 4, so only four-point starts, with
    exactly six rows, reach the SVD.
    """
    if len(kernel.edges) < 3 * kernel.m - 6:
        return False
    singular = np.linalg.svd(kernel.squared_jacobian(x, edges_only=True)[1], compute_uv=False)
    return bool(singular[-1] > _RIGID_TOL * singular[0])


def _restart(run: int, x: np.ndarray, kernel: _Kernel) -> tuple[RestartRecord, np.ndarray]:
    """One restart from x: L-BFGS-B rounds with a tenfold penalty ramp, reported at its best iterate.

    A penalty round can end in a spurious branch of the constraint set
    where the soft objective stops meaning anything, so its final point
    is never trusted blindly.  Round results are restored to the
    equality manifold by projection when it succeeds, then scored by
    `kernel.evaluate`, which rejects off-domain points; the best accepted
    iterate (the start competes too) is the restart's result.  A restart
    that accepts none is not converged and reports its final point as
    `evaluate` scores it.  An accepted start that `_rigid` finds rigid is
    the result at once, with no round run: every feasible point near it
    is the start itself.  Returns the record and the result's points.
    """
    mu = _MU_START
    evaluations = capped_rounds = improved_at = 0
    best = None  # objective, area, validated flag, residual and parameters of the best accepted iterate

    def consider(v: np.ndarray, r: float) -> bool:
        nonlocal best
        if r <= FEASIBILITY_TOL:
            obj, area, validated, on_domain = kernel.evaluate(v)
            if on_domain and (best is None or obj > best[0] + TIE_TOL):
                best = (obj, area, validated, r, v.copy())
                return True
        return False

    rounds = 0
    if not (consider(x, kernel.residual(x)) and _rigid(kernel, x)):
        for rounds in range(1, _MAX_ROUNDS + 1):
            x, _, nfev, success = _lbfgsb(kernel.merit, x, (mu,), **_LBFGSB_OPTIONS)
            evaluations += nfev
            # an iteration or evaluation cap, or a line search that found no descent
            capped_rounds += not success
            restored = kernel.project(x)
            if restored is not None:
                x = restored
            r = kernel.residual(x)
            if consider(x, r):
                improved_at = rounds
            # ramp to full stiffness first, then keep restarting the solve
            # until progress stalls
            if mu >= _MU_MAX and r <= FEASIBILITY_TOL and rounds - improved_at >= _STALL_ROUNDS:
                break
            mu = min(mu * 10.0, _MU_MAX)
    if best is not None:
        objective, area, validated, residual, x = best
    else:
        objective, area, validated, _ = kernel.evaluate(x)
        residual = kernel.residual(x)
    record = RestartRecord(
        restart=run,
        objective=objective,
        area=area,
        residual=residual,
        rounds=rounds,
        evaluations=evaluations,
        capped_rounds=capped_rounds,
        converged=best is not None,
        validated=validated,
        meets_tetrahedron_bound=area >= TETRAHEDRON_AREA - BOUND_SLACK,
    )
    return record, kernel.points(x)


def _assemble_report(records: list[RestartRecord], points: list[np.ndarray]) -> OptimizationReport:
    """Converged restarts first, then the largest objective; ties go to the lowest restart."""
    top = max(records, key=lambda r: (r.converged, r.objective))
    best = next(
        i for i, r in enumerate(records) if r.converged == top.converged and r.objective >= top.objective - TIE_TOL
    )
    rec = records[best]
    return OptimizationReport(
        best_objective=rec.objective,
        best_area=rec.area,
        best_volume=rec.area / 2.0 - math.pi / 3.0,
        best_points=points[best],
        best_residual=rec.residual,
        records=tuple(records),
    )

