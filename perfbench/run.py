"""Run a benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all    # sweep and search in turn

Each workload runs in worker processes of its own (worker.py), with the
BLAS and OpenMP pools pinned to one thread.  An untraced run sets up
SETUPS times, in separate processes, and reports the median as setup_s;
the last of those processes also runs the timed passes.  A traced run
(--trace 1) reports the per-layer metrics instead.

The metric names and units come from BENCHMARK.json.  Every run writes
a result file, with its run record, and a traced run also a span file,
to perfbench/results/.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUPS = 3
RUN_LIMIT_S = 170.0
PINNED_POOLS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        return max(run(spec, name, args) for name in (names if args.workload == "all" else [args.workload]))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


def run(spec: dict, workload: str, args) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    record = run_record(workload, args)
    RESULTS.mkdir(parents=True, exist_ok=True)
    setups = [] if args.trace else [worker(workload, args, deadline, setup_only=True) for _ in range(SETUPS - 1)]
    rep = worker(workload, args, deadline, setup_only=False)
    setups.append(rep)

    failed = rep["failed"]
    e2e = dict(
        rep["e2e"],
        setup_s=statistics.median(s["setup_s"] for s in setups),
        raw_setup_s=statistics.median(s["raw_setup_s"] for s in setups),
        fail_frac=failed / rep["attempted"],
    )
    kind, values = ("per_layer", rep["per_layer"]) if args.trace else ("end_to_end", e2e)
    missing = [m["name"] for m in spec[kind] if m["name"] not in values]
    if missing:
        raise ValueError(f"the run produced no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    problems = rep.get("trace_problems", [])

    record.update(rep["versions"], sizes=rep["sizes"])
    stem = f"{workload}-seed{args.seed}-trace{args.trace}-{record['started_utc']}-{os.getpid()}"
    result = {
        "record": record,
        "setup_runs_s": [s["setup_s"] for s in setups],
        "e2e": e2e,
        "per_layer": rep.get("per_layer"),
        "attempted": rep["attempted"],
        "failed": failed,
        "failures": rep["failures"],
        "trace_problems": problems,
        "passes": rep["passes"],
        "probed": rep["probed"],
    }
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1))
    if args.trace:
        (RESULTS / f"{stem}.spans.json").write_text(json.dumps(rep["spans"]))

    passes = rep["passes"]
    print(f"# {workload} seed {args.seed} trace {args.trace}: {len(passes)} passes, {rep['attempted']} jobs")
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:>16.6g} {m['unit']}")
    print(f"{'fail_frac':<48} {e2e['fail_frac']:>16.6g} ratio ({failed} of {rep['attempted']} jobs failed)")
    for line in rep["failures"][:20] + problems:
        print(f"FAILED {line}")
    print(f"result file: {path.relative_to(ROOT)}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": rep["attempted"], "failed": failed, "metrics": metrics}))
    return 0


def worker(workload: str, args, deadline: float, setup_only: bool) -> dict:
    out = RESULTS / f"worker-{os.getpid()}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
    ] + (["--setup-only"] if setup_only else [])
    # the worker's own output never reaches stdout, whose last line is the result
    subprocess.run(
        cmd, env=dict(os.environ, **PINNED_POOLS), stdout=sys.stderr, check=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    try:
        return json.loads(out.read_text())
    finally:
        out.unlink()


def run_record(workload: str, args) -> dict:
    """What makes two result files comparable like for like."""
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_start": os.getloadavg(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over src/, which identifies the code when there is no git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
