"""Summarize one result set, or compare a parent set with a change set.

    python3 perfbench/compare.py .perfbench/sets/parent
    python3 perfbench/compare.py .perfbench/sets/parent .perfbench/sets/change

A result set is a directory of run records written by run.py (`--out`),
usually by suite.py. Runs are paired by (workload, seed).

For each workload and end-to-end metric the comparison prints each side's
median and quartiles, the pairs the change won, and a verdict:

- `unresolved` when either side's spread (interquartile distance over
  median) exceeds the metric's bound, unless every change run beats
  every parent run;
- `better` when the change wins at least 9/10 of the pairs and the medians
  differ by more than the parent's interquartile distance;
- `worse` when the change's median is worse than the parent's by more
  than the bound;
- `same` otherwise.

It also reports whether the two sets' output digests agree for every
shared (workload, seed, op).
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def end_to_end() -> list[dict]:
    return json.loads(BENCHMARK.read_text())["end_to_end"]


def load_set(directory: Path, trace: int = 0) -> dict:
    """{workload: {seed: record}} for the set's runs with the given trace flag."""
    runs: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record["trace"] == trace:
            runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median


def value(record: dict, metric: str) -> float:
    return record["metrics"][metric]["value"]


def summarize(runs: dict) -> bool:
    """Print each metric's quartiles and spread; True if every spread is
    below a third of its bound (setup_s is exempt, as it is pooled)."""
    steady = True
    print(f"{'workload':<14} {'metric':<12} {'unit':<5} {'n':>3} {'q1':>10} {'median':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6}")
    for workload, by_seed in runs.items():
        records = list(by_seed.values())
        for metric in end_to_end():
            values = [value(r, metric["name"]) for r in records]
            q1, median, q3 = quartiles(values)
            share = (q3 - q1) / median
            flag = ""
            if metric["name"] != "setup_s" and share > metric["bound"] / 3:
                steady, flag = False, "  <- spread above bound/3"
            print(f"{workload:<14} {metric['name']:<12} {metric['unit']:<5} {len(values):>3} "
                  f"{q1:>10.4g} {median:>10.4g} {q3:>10.4g} {share:>7.3f} "
                  f"{metric['bound']:>6.2f}{flag}")
        failed = sum(1 for r in records for op in r["ops"] if op["error"])
        attempted = sum(len(r["ops"]) for r in records)
        print(f"{workload:<14} {'fail_ratio':<12} {'1':<5} {len(records):>3} "
              f"{failed / attempted:>32.3g}  ({failed}/{attempted} ops)")
    return steady


def verdict(parent: list[float], change: list[float], pairs, metric: dict) -> tuple[str, int]:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    loss = sign * (statistics.median(change) - p_med)  # > 0: the change is worse
    every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if max(spread(parent), spread(change)) > metric["bound"] and not every_run_better:
        return "unresolved", wins
    if pairs and wins >= 0.9 * len(pairs) and -loss > p_q3 - p_q1:
        return "better", wins
    if loss > metric["bound"] * abs(p_med):
        return "worse", wins
    return "same", wins


def compare(parent_runs: dict, change_runs: dict) -> None:
    print(f"{'workload':<14} {'metric':<12} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} "
          f"{'wins':>6}  verdict")
    for workload in sorted(set(parent_runs) & set(change_runs)):
        seeds = sorted(set(parent_runs[workload]) & set(change_runs[workload]))
        for metric in end_to_end():
            name = metric["name"]
            parent = [value(r, name) for r in parent_runs[workload].values()]
            change = [value(r, name) for r in change_runs[workload].values()]
            pairs = [(value(parent_runs[workload][s], name), value(change_runs[workload][s], name))
                     for s in seeds]
            result, wins = verdict(parent, change, pairs, metric)
            p, c = quartiles(parent), quartiles(change)
            print(f"{workload:<14} {name:<12} {'/'.join(f'{v:.4g}' for v in p):>30} "
                  f"{'/'.join(f'{v:.4g}' for v in c):>30} {wins:>3}/{len(pairs):<2}  {result}")

    differing = []
    for workload in sorted(set(parent_runs) & set(change_runs)):
        for seed in sorted(set(parent_runs[workload]) & set(change_runs[workload])):
            a = parent_runs[workload][seed]["ops"]
            b = change_runs[workload][seed]["ops"]
            for op_a, op_b in zip(a, b):
                if op_a["digest"] != op_b["digest"]:
                    differing.append(f"{workload} seed {seed} op {op_a['op']}")
    if differing:
        print(f"outputs differ in {len(differing)} ops: " + ", ".join(differing[:10]))
    else:
        print("outputs identical in every shared op")


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        return 0 if summarize(load_set(Path(argv[0]))) else 1
    if len(argv) == 2:
        compare(load_set(Path(argv[0])), load_set(Path(argv[1])))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
