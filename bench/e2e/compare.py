#!/usr/bin/env python3
"""Compares two sets of magic_bench result files, metric by metric.

    python3 bench/e2e/compare.py --base A1.json A2.json ... --head B1.json ...

Each side takes untraced result files, or directories standing for the
RESULT_*_trace0.json files run.py writes into them, with at least 5 runs
of every workload it compares. For every (metric, workload) pair of the
end-to-end metrics in BENCHMARK.json it prints the median and quartiles of
each side and a verdict:

  unresolved  the spread (interquartile range over median) of either side is
              wider than the metric's bound, unless every head run is better
              than every base run (then: improved);
  regressed   the head median is worse than the base median by more than
              the bound;
  improved    the head median is better by more than the bound;
  unchanged   otherwise.

It refuses files whose host blocks differ (the git sha aside) and exits 1
on any regression or when the head's share of failed operations is higher
than the base's; 2 on bad input.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_RUNS = 5


def fail(message: str) -> None:
    print(f"compare.py: {message}", file=sys.stderr)
    sys.exit(2)


def expand(paths):
    files = []
    for p in map(Path, paths):
        files.extend(sorted(p.glob("RESULT_*_trace0.json")) if p.is_dir() else [p])
    return files


def load_side(name, paths):
    """Returns (host, runs): runs maps workload -> list of workload results."""
    host = None
    runs = {}
    files = expand(paths)
    for path in files:
        try:
            result = json.loads(path.read_text())
        except (OSError, ValueError) as e:
            fail(f"{path}: {e}")
        if result.get("trace"):
            fail(f"{path}: traced runs carry no end-to-end metrics")
        this_host = {k: v for k, v in result["host"].items() if k != "git_sha"}
        if host is None:
            host = this_host
        elif this_host != host:
            fail(f"{path}: host block differs from the other {name} files")
        for workload, r in result["workloads"].items():
            runs.setdefault(workload, []).append(r)
    if not files:
        fail(f"{name}: no result files")
    return host, runs


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]"


def verdict(base, head, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    base_med, head_med = statistics.median(base), statistics.median(head)
    worse = sign * (head_med - base_med) / base_med
    if max(spread(base), spread(head)) > bound:
        all_better = (max(head) < min(base)) if better == "lower" else (min(head) > max(base))
        return ("improved" if all_better else "unresolved"), worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "unchanged", worse


def failure_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True, help="parent result files or dirs")
    parser.add_argument("--head", nargs="+", required=True, help="change result files or dirs")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args()

    metrics = json.loads(Path(args.benchmark).read_text())["end_to_end"]
    base_host, base = load_side("base", args.base)
    head_host, head = load_side("head", args.head)
    if base_host != head_host:
        diff = {k: (base_host.get(k), head_host.get(k))
                for k in set(base_host) | set(head_host) if base_host.get(k) != head_host.get(k)}
        fail(f"host blocks differ: {diff}")

    bad = False
    print(f"{'metric':14} {'workload':12} {'base median [q1, q3]':30} "
          f"{'head median [q1, q3]':30} {'worse':>8} {'bound':>6}  verdict")
    for workload in sorted(set(base) | set(head)):
        if workload not in base or workload not in head:
            print(f"{workload}: only on one side, skipped")
            continue
        if min(len(base[workload]), len(head[workload])) < MIN_RUNS:
            fail(f"{workload}: {len(base[workload])} base and {len(head[workload])} head runs, "
                 f"need at least {MIN_RUNS} each")
        for m in metrics:
            b = [r["metrics"][m["name"]]["value"] for r in base[workload]]
            h = [r["metrics"][m["name"]]["value"] for r in head[workload]]
            label, worse = verdict(b, h, m["better"], m["bound"])
            bad = bad or label == "regressed"
            print(f"{m['name']:14} {workload:12} {summary(b):30} {summary(h):30} "
                  f"{worse:+8.3f} {m['bound']:6.3f}  {label}")
        share_b, share_h = failure_share(base[workload]), failure_share(head[workload])
        incorrect = sum(not r["correct"] for r in head[workload])
        if share_h > share_b or incorrect:
            bad = True
            print(f"{'failures':14} {workload:12} base {share_b:.3g} head {share_h:.3g}, "
                  f"{incorrect} head runs failed a gate  regressed")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
