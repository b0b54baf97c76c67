"""One workload in a process of its own: set up, run timed passes, probe.

Started by run.py, which pins the BLAS and OpenMP pools to one thread in
its environment.  The report goes to --out as JSON.  Set-up time runs
from the start of main, before meissner is imported, to the end of the
warm-up, and is calibrated like every other time (see CAL_REFERENCE_S);
with --setup-only the worker stops there.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import signal
import statistics
import sys
import tempfile
import time
import traceback
from functools import partial
from pathlib import Path

from spans import CallStats, Tracer, call_stats, children, nesting_problems, roots, self_seconds

ROOT = Path(__file__).resolve().parent.parent
THREAD_PROBE_SAMPLES = 1 << 20
PROBE_REPEATS = 4
MIN_PASSES = 2
# Speed calibration.  The other tenants of a shared host can slow all
# code by 15-60% for a minute or more, longer than a run, so raw times
# depend on when a run happened.  During set-up and every pass and probe
# a timer signal times a fixed pure-Python kernel every CAL_INTERVAL_S,
# and each job's time is scaled by CAL_REFERENCE_S over the median
# kernel time while the job ran (the CAL_WINDOW samples around a shorter
# job): end-to-end times read as seconds on a machine that runs the
# kernel in CAL_REFERENCE_S.  The kernel's own time is taken out of the
# job times.  On a 2-core Xeon host the kernel's slowdown tracked that
# of `sweep` passes to within 5% (standard deviation of the log-ratio
# over 26 passes, against 16% for raw pass times); a numpy kernel
# tracked it worse.  Raw times stay in the result file.
CAL_REFERENCE_S = 1e-4
CAL_INTERVAL_S = 0.02
CAL_WINDOW = 100  # samples, about 2 s


def main() -> None:
    t0 = time.perf_counter()
    with Calibration() as cal:
        p = argparse.ArgumentParser()
        p.add_argument("--workload", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--seconds", type=float, required=True)
        p.add_argument("--trace", type=int, choices=(0, 1), required=True)
        p.add_argument("--setup-only", action="store_true")
        p.add_argument("--out", required=True)
        args = p.parse_args()

        sys.path.insert(0, str(ROOT / "src"))
        import workloads as W  # imports meissner, numpy and scipy

        if not Path(W.M.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"meissner imported from {W.M.__file__}, not from this checkout's src/")

        scratch = ROOT / "perfbench" / "results"
        scratch.mkdir(parents=True, exist_ok=True)
        tmp = tempfile.TemporaryDirectory(dir=scratch, prefix="tmp-")
        ctx = W.Context(Tracer(), Path(tmp.name), threads=min(2, len(os.sched_getaffinity(0))))
        wl = W.WORKLOADS[args.workload](args.seed, ctx)
        small = W.small_calls(args.seed, ctx)
        for name in sorted(wl.uses):
            small[name]()
        raw_setup_s = time.perf_counter() - t0 - cal.spent
    report = {"setup_s": raw_setup_s * CAL_REFERENCE_S / statistics.median(cal.samples), "raw_setup_s": raw_setup_s}
    try:
        if not args.setup_only:
            report.update(measure(W, wl, ctx, small, args))
    finally:
        tmp.cleanup()
    Path(args.out).write_text(json.dumps(report))


def calibration_kernel() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(2000):
        total += i * i
    return time.perf_counter() - start


class Calibration:
    """Kernel times sampled from a timer signal while the block runs."""

    def __init__(self) -> None:
        self.at: list[float] = []  # when each sample started
        self.samples: list[float] = []
        self.spent = 0.0  # seconds the kernel took from the code it interrupted

    def _tick(self, signum, frame) -> None:
        self.at.append(time.perf_counter())
        t = calibration_kernel()
        self.samples.append(t)
        self.spent += t

    def __enter__(self) -> "Calibration":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        while len(self.samples) < 5:  # a block shorter than a few ticks
            self._tick(None, None)

    def timed(self, rec, name: str, fn):
        """Run fn and record its seconds, net of the kernel, and its scale."""
        spent, start = self.spent, time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            rec.job_s.setdefault(name, []).append(end - start - (self.spent - spent))
            rec.windows.setdefault(name, []).append((start, end))

    def scale(self, start: float, end: float) -> float:
        """CAL_REFERENCE_S over the median of the samples taken from start to
        end, widened to the CAL_WINDOW samples around it for short calls."""
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        if hi - lo < CAL_WINDOW:
            mid = (lo + hi) // 2
            lo = max(0, min(mid - CAL_WINDOW // 2, len(self.at) - CAL_WINDOW))
            hi = lo + CAL_WINDOW
        return CAL_REFERENCE_S / statistics.median(self.samples[lo:hi])


def scale(rec) -> float:
    """Factor that turns the raw times of a whole pass or probe into calibrated ones."""
    return CAL_REFERENCE_S / statistics.median(rec.cal)


def run_pass(W, wl, ctx, traced: bool, index: int):
    ctx.rec = W.Records()
    ctx.tracer.enabled = traced
    start = time.perf_counter()
    with Calibration() as cal, ctx.tracer.root(f"workload.{wl.name}", f"pass{index}"):
        for job in wl.jobs:
            ctx.tracer.job = job.name
            try:
                failed = cal.timed(ctx.rec, job.name, partial(job.run, ctx))
            except Exception:
                failed = [traceback.format_exc(limit=4)]
            ctx.rec.attempted += 1
            ctx.rec.failed += bool(failed)
            ctx.rec.failures += [f"{job.name}: {f}" for f in failed]
    ctx.tracer.enabled = False
    finish(ctx.rec, cal)
    return time.perf_counter() - start - cal.spent, ctx.rec


def run_probe(W, ctx, calls: list, traced: bool, index: int):
    """One small call of each traced function the workload's passes leave out."""
    ctx.rec = W.Records()
    ctx.tracer.enabled = traced
    start = time.perf_counter()
    with Calibration() as cal, ctx.tracer.root("probe", f"probe{index}"):
        for name, call in calls:
            ctx.tracer.job = name
            cal.timed(ctx.rec, name, call)
    ctx.tracer.enabled = False
    finish(ctx.rec, cal)
    return time.perf_counter() - start - cal.spent, ctx.rec


def finish(rec, cal: Calibration) -> None:
    rec.cal = cal.samples
    rec.job_scale = {name: [cal.scale(*w) for w in ws] for name, ws in rec.windows.items()}
    rec.windows = {}


def measure(W, wl, ctx, small, args) -> dict:
    # closed loop: passes run back to back until the next pass and probe
    # would take the run past --seconds, but at least MIN_PASSES of them,
    # so every job has a fastest pass to be taken at; a traced run
    # alternates untraced and traced passes.  A probe follows every pass
    # (and more follow the last, up to PROBE_REPEATS), so that a probe
    # call, like a job, is taken at its fastest across the run.
    modes = (False, True) if args.trace else (False,)
    passes: list[tuple[bool, float, W.Records]] = []
    calls = [(name, small[name]) for name in sorted(set(small) - wl.uses)]
    probes: list[tuple[float, W.Records]] = []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        for traced in modes:
            passes.append((traced, *run_pass(W, wl, ctx, traced, len(passes))))
        if peak_rss_mb is None:
            # every pass allocates alike; read before any probe allocates
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probes.append(run_probe(W, ctx, calls, bool(args.trace), len(probes)))
        cycle = sum(statistics.median(w for t, w, _ in passes if t == mode) for mode in modes)
        cycle += statistics.median(w for w, _ in probes)
        enough = args.trace or len(passes) >= MIN_PASSES
        if enough and time.perf_counter() - start + cycle > args.seconds:
            break
    while len(probes) < PROBE_REPEATS:
        probes.append(run_probe(W, ctx, calls, bool(args.trace), len(probes)))
    probes = [rec for _, rec in probes]

    plain = [rec for traced, _, rec in passes if not traced]
    out = {
        "e2e": end_to_end(plain, {job.name: job.body for job in wl.jobs}, probes, peak_rss_mb),
        "attempted": sum(rec.attempted for _, _, rec in passes),
        "failed": sum(rec.failed for _, _, rec in passes),
        "failures": [f for _, _, rec in passes for f in rec.failures],
        "passes": [{"traced": t, "wall_s": w, "scale": scale(rec)} for t, w, rec in passes],
        "sizes": wl.sizes,
        "probed": [name for name, _ in calls],
        "versions": versions(),
    }
    if args.trace:
        best = [min(w * scale(rec) for t, w, rec in passes if t == mode) for mode in (True, False)]
        overhead = best[0] / best[1] - 1.0
        out["per_layer"], out["trace_problems"] = per_layer(
            ctx.tracer.spans, wl, set(small), thread_speedup(W, ctx, args.seed), overhead
        )
        out["spans"] = ctx.tracer.to_json()
    return out


def end_to_end(plain, bodies: dict[str, str | None], probes, peak_rss_mb: float) -> dict:
    """End-to-end metrics over the untraced passes, each job at its fastest.

    Times are calibrated (see CAL_REFERENCE_S).  A job's time only grows
    when the machine's other tenants slow it down, so its fastest run is
    the steadiest estimate of its cost.  `bodies` maps each job name to
    the body its time counts towards.  Metrics of layers a workload's
    passes never call come from the probe.
    """
    def fastest(recs, name: str) -> float:
        return min(t * sc for rec in recs for t, sc in zip(rec.job_s[name], rec.job_scale[name]))

    jobs = {name: fastest(plain, name) for name in bodies}
    raw_jobs = {name: min(t for rec in plain for t in rec.job_s[name]) for name in bodies}
    body_s: dict[str, float] = {}
    for name, body in bodies.items():
        if body is not None:
            body_s[body] = body_s.get(body, 0.0) + jobs[name]
    bodies_ms = [t * 1e3 for t in body_s.values()]
    mc_source = plain if plain[0].mc_se else probes
    # seconds to reach a standard error of 1e-4, mean over the calls; each
    # call makes up its job, whose other work is a comparison
    mc_at_1e4 = statistics.fmean(
        fastest(mc_source, name) * (se / 1e-4) ** 2 for name, se in mc_source[0].mc_se.items()
    )
    restart_source = plain if plain[0].restarts else probes
    restarts = []
    for name, n in restart_source[0].restarts.items():
        restarts += [fastest(restart_source, name) / n] * n
    return {
        "wall_s": sum(jobs.values()),
        "raw_wall_s": sum(raw_jobs.values()),
        "mc_s_at_se1e-4": mc_at_1e4,
        "body_ms_p50": statistics.median(bodies_ms),
        "body_ms_p90": statistics.quantiles(bodies_ms, n=10, method="inclusive")[8],
        "body_samples": len(bodies_ms),
        "restart_s_p50": statistics.median(restarts),
        "restart_samples": len(restarts),
        "mc_source": "pass" if mc_source is plain else "probe",
        "restart_source": "pass" if restart_source is plain else "probe",
        "peak_rss_mb": peak_rss_mb,
    }


def thread_speedup(W, ctx, seed: int) -> float:
    """mc_volume time at one thread over its time at ctx.threads, same input."""
    system = W.BallSystem.from_meissner(W.M.build_meissner(W.M.regular_pyramid(2)))
    times = []
    for threads in (1, ctx.threads):
        t = time.perf_counter()
        W.M.mc_volume(system, THREAD_PROBE_SAMPLES, seed=seed, threads=threads)
        times.append(time.perf_counter() - t)
    return times[0] / times[1]


def per_layer(spans, wl, names: set[str], speedup: float, overhead: float) -> tuple[dict, list[str]]:
    pass_roots = roots(spans, f"workload.{wl.name}")
    in_pass = call_stats(spans, pass_roots)
    probe_roots = roots(spans, "probe")
    in_probe = call_stats(spans, probe_roots)

    problems = nesting_problems(spans)
    for r in pass_roots:
        covered = sum(s.seconds for s in children(spans, r))
        if covered > spans[r].seconds:
            problems.append(f"layer busy {covered} s exceeds pass {r} wall {spans[r].seconds} s")
    if set(in_pass) != wl.uses:
        problems.append(f"passes called {sorted(set(in_pass))}, workload declares {sorted(wl.uses)}")

    def pick(name: str) -> tuple[CallStats, int]:
        """Totals from the traced passes, else from the probes; and their count."""
        if name in in_pass:
            return in_pass[name], len(pass_roots)
        return in_probe.get(name, CallStats()), len(probe_roots)

    def busy(name):
        st, n = pick(name)
        return st.busy / n

    m: dict[str, float] = {}
    for module in sorted({name.split(".")[0] for name in names}):
        m[f"{module}.busy_s"] = sum(busy(name) for name in names if name.split(".")[0] == module)
    mc, _ = pick("montecarlo.mc_volume")
    m["montecarlo.mc_volume.busy_s"] = busy("montecarlo.mc_volume")
    m["montecarlo.mc_volume.samples_per_s"] = mc.total("samples") / mc.busy
    m["montecarlo.mc_volume.accept_frac"] = mc.total("hits") / mc.total("samples")
    m["montecarlo.mc_volume.thread_speedup"] = speedup
    ws, _ = pick("montecarlo.width_samples")
    m["montecarlo.width_samples.busy_s"] = busy("montecarlo.width_samples")
    m["montecarlo.width_samples.directions_per_s"] = ws.total("directions") / ws.busy
    ts, n = pick("mesh.tessellate")
    m["mesh.tessellate.busy_s"] = ts.busy / n
    m["mesh.tessellate.triangles"] = ts.total("triangles") / n
    m["mesh.tessellate.vertices"] = ts.total("vertices") / n
    m["mesh.tessellate.triangles_per_s"] = ts.total("triangles") / ts.busy
    m["mesh.mesh_area.busy_s"] = busy("mesh.mesh_area")
    wm, n = pick("mesh.write_mesh")
    m["mesh.write_mesh.busy_s"] = wm.busy / n
    m["mesh.write_mesh.bytes"] = wm.total("bytes") / n
    for fn in ("validate_vertex_set", "find_dual_pairs", "build_meissner", "meissner_area", "direction_sphere_partition"):
        st, n = pick(f"polytope.{fn}")
        m[f"polytope.{fn}.calls"] = st.calls / n
        m[f"polytope.{fn}.busy_s"] = st.busy / n
    es, _ = pick("polytope.enumerate_smoothings")
    m["polytope.enumerate_smoothings.busy_s"] = busy("polytope.enumerate_smoothings")
    m["polytope.enumerate_smoothings.smoothings_per_s"] = es.total("smoothings") / es.busy
    fp, n = pick("sphere.f_pair")
    m["sphere.f_pair.calls"] = fp.calls / n
    m["sphere.f_pair.us_per_call"] = fp.busy / fp.calls * 1e6
    for name in ("generate.save_vertex_file", "generate.load_vertex_file", "cli.main.analyze", "cli.main.mesh"):
        m[f"{name}.busy_s"] = busy(name)
    opt = [pick("optimize.optimize_pyramid")[0], pick("optimize.optimize_meissner")[0]]
    restarts = sum(st.total("restarts") for st in opt)
    m["optimize.optimize_pyramid.busy_s"] = busy("optimize.optimize_pyramid")
    m["optimize.optimize_meissner.busy_s"] = busy("optimize.optimize_meissner")
    m["optimize.s_per_restart"] = sum(st.busy for st in opt) / restarts
    m["optimize.rounds_per_restart"] = sum(st.total("rounds") for st in opt) / restarts
    m["optimize.converged_frac"] = sum(st.total("converged") for st in opt) / restarts
    m["optimize.best_area"] = min(a for st in opt for a in st.counts["best_area"])
    m["trace.overhead_frac"] = overhead
    m["trace.self_s"] = statistics.fmean(self_seconds(spans, r) for r in pass_roots)
    return m, problems


def versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}


if __name__ == "__main__":
    main()
