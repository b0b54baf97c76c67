"""Compare two sets of benchmark result files, parent against change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are directories of result files written by run.py (or
single files).  Prints one row per (workload, metric): each side's
median and quartiles, the change in the median, how many pairs the
change wins, and a verdict.  Runs pair up by seed; ties win for neither.

  better      the change wins at least 90% of the pairs and the medians
              differ by more than the parent's interquartile spread
  worse       an end-to-end metric's median got worse by more than its
              bound in BENCHMARK.json; a per-layer metric (no bound) lost
              90% of the pairs by more than the parent's spread
  unresolved  the parent's spread is wider than the bound and the change
              does not read better in every run than the parent in every run;
              for a per-layer metric, a move neither better nor worse that
              exceeds the parent's spread
  unchanged   otherwise

End-to-end metrics come from untraced runs, per-layer ones from traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load(where: str) -> dict[tuple[str, int], dict[int, dict]]:
    """(workload, trace) -> seed -> result."""
    path = Path(where)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out: dict[tuple[str, int], dict[int, dict]] = {}
    for f in files:
        if f.name.endswith(".spans.json"):
            continue
        result = json.loads(f.read_text())
        rec = result["record"]
        out.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = result
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], higher_better: bool, bound: float | None) -> tuple[str, int]:
    """Verdict and number of pairs the change wins; parent[i] pairs with change[i]."""
    sign = 1.0 if higher_better else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    q1, med, q3 = quartiles(parent)
    spread = q3 - q1
    gain = sign * (statistics.median(change) - med)
    if wins >= WIN_SHARE * len(parent) and gain > spread:
        return "better", wins
    if bound is None:
        if losses >= WIN_SHARE * len(parent) and -gain > spread:
            return "worse", wins
        return ("unchanged" if abs(gain) <= spread else "unresolved"), wins
    if -gain > bound * abs(med):
        return "worse", wins
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound * abs(med) and not every_run_better:
        return "unresolved", wins
    return "unchanged", wins


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent")
    p.add_argument("change")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)

    print("workload  metric  unit  parent median [q1, q3]  change median [q1, q3]  delta  wins/pairs  verdict")
    for w in spec["workloads"]:
        for trace, kind, field in ((0, "end_to_end", "e2e"), (1, "per_layer", "per_layer")):
            a, b = parent.get((w["name"], trace), {}), change.get((w["name"], trace), {})
            seeds = sorted(set(a) & set(b))
            if not seeds:
                continue
            for m in spec[kind]:
                pv = [a[s][field][m["name"]] for s in seeds]
                cv = [b[s][field][m["name"]] for s in seeds]
                word, wins = verdict(pv, cv, m["better"] == "higher", m.get("bound"))
                pq, cq = quartiles(pv), quartiles(cv)
                delta = (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else float("nan")
                print(
                    f"{w['name']}  {m['name']}  {m['unit']}  {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                    f"  {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  {delta:+.1%}  {wins}/{len(seeds)}  {word}"
                )
            if kind == "end_to_end":
                pf = sum(a[s]["failed"] for s in seeds)
                cf = sum(b[s]["failed"] for s in seeds)
                print(f"{w['name']}  failed_jobs  count  {pf}  {cf}" + ("  worse" if cf > pf else ""))


if __name__ == "__main__":
    main()
