#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark results against the bounds in BENCHMARK.json.

    python3 bench/e2e/compare.py BASE_DIR NEW_DIR

Each directory holds the result files run.sh writes (build-e2e/e2e_<workload>.json), one per
run: copy them aside between runs, under any name ending in .json. Files without end-to-end
metrics (the traced runs' .layers.json, the Chrome traces) are skipped. The metrics and
their bounds come from the repository's BENCHMARK.json.

For every workload and end-to-end metric it prints each side's median and quartiles, and
marks the pair:
  agree       the new median is not worse than the base median by more than the bound;
  regressed   it is worse by more than the bound, and both spreads are within the bound;
  unresolved  a side's spread (quartile distance over median) is wider than the bound,
              unless every new run reads better than every base run.
Exits 1 when any pair regressed or is unresolved, 2 on bad input.
"""
import argparse
import json
import pathlib
import statistics
import sys


def load_runs(directory, metric_names):
    """Returns {workload: {metric: [values]}} from every result JSON in `directory`."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        try:
            result = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(result, dict) or "workload" not in result:
            continue
        metrics = result.get("metrics", {})
        if not any(name in metrics for name in metric_names):
            continue
        per_metric = runs.setdefault(result["workload"], {})
        for name in metric_names:
            if name in metrics:
                per_metric.setdefault(name, []).append(float(metrics[name]["value"]))
    return runs


def summary(values):
    """(median, q1, q3, spread): spread is the quartile distance as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def verdict(base, new, better, bound):
    base_median, _, _, base_spread = summary(base)
    new_median, _, _, new_spread = summary(new)
    lower = better == "lower"
    if lower:
        worse = (new_median - base_median) / base_median if base_median else 0.0
        all_better = max(new) < min(base)
    else:
        worse = (base_median - new_median) / base_median if base_median else 0.0
        all_better = min(new) > max(base)
    if base_spread > bound or new_spread > bound:
        return "agree" if all_better else "unresolved"
    return "regressed" if worse > bound else "agree"


def main():
    benchmark = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_dir")
    parser.add_argument("new_dir")
    args = parser.parse_args()

    try:
        metrics = json.loads(benchmark.read_text())["end_to_end"]
    except (OSError, ValueError, KeyError) as e:
        print(f"cannot read end-to-end metrics from {benchmark}: {e}", file=sys.stderr)
        return 2
    names = [m["name"] for m in metrics]
    base_runs = load_runs(args.base_dir, names)
    new_runs = load_runs(args.new_dir, names)
    if not base_runs or not new_runs:
        print("no result files in one of the directories", file=sys.stderr)
        return 2

    bad = 0
    print(f"{'workload':26} {'metric':15} {'base median [q1, q3]':>35} "
          f"{'new median [q1, q3]':>35} {'change':>8} {'bound':>6}  verdict")
    for workload in sorted(set(base_runs) | set(new_runs)):
        for m in metrics:
            base = base_runs.get(workload, {}).get(m["name"], [])
            new = new_runs.get(workload, {}).get(m["name"], [])
            if not base or not new:
                print(f"{workload:26} {m['name']:15} missing on one side  unresolved")
                bad += 1
                continue
            b = summary(base)
            n = summary(new)
            change = (n[0] - b[0]) / b[0] if b[0] else 0.0
            v = verdict(base, new, m["better"], m["bound"])
            bad += v != "agree"
            print(f"{workload:26} {m['name']:15} "
                  f"{b[0]:12.5g} [{b[1]:9.5g}, {b[2]:9.5g}] "
                  f"{n[0]:12.5g} [{n[1]:9.5g}, {n[2]:9.5g}] "
                  f"{change:+8.2%} {m['bound']:6.0%}  {v}  (n={len(base)}/{len(new)})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
