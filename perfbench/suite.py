"""Run every workload for several seeds into one result set, then summarize.

    python3 perfbench/suite.py --label parent --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/suite.py --label parent --seeds 1 --trace

Runs go one at a time, each workload in turn for one seed, so at most one
worker process exists. Records land in .perfbench/sets/<label>; the
summary prints each end-to-end metric's quartiles and spread per workload
(see compare.py). With --trace it runs the traced pass instead and prints
the layer table of each run.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from compare import load_set, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def print_layers(directory: Path) -> None:
    for workload, by_seed in load_set(directory, trace=1).items():
        for seed, record in sorted(by_seed.items()):
            op_s = record["layers"]["cli"]["s"]
            print(f"\n{workload} seed {seed}: {len(record['traced_ops'])} traced ops, "
                  f"{op_s:.3f} s; overhead "
                  f"{record['metrics']['trace.overhead_s']['value']:+.3f} s")
            print(f"  {'layer':<20} {'calls':>8} {'s':>9} {'self_s':>9} {'share':>6}")
            rows = sorted(record["layers"].items(), key=lambda item: -item[1]["s"])
            for name, row in rows:
                print(f"  {name:<20} {row['calls']:>8} {row['s']:>9.3f} {row['self_s']:>9.3f} "
                      f"{row['s'] / op_s:>6.1%}")
            for name, metric in record["metrics"].items():
                print(f"  {name} = {metric['value']:.6g} {metric['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]
    out = Path(".perfbench/sets") / args.label

    failed = False
    for seed in args.seeds:
        for workload in args.workloads:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(int(args.trace)), "--out", str(out)],
                capture_output=True, text=True,
            )
            line = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
            result = json.loads(line)
            ok = done.returncode == 0 and result.get("correct")
            failed |= not ok
            print(f"{workload} seed {seed}: exit {done.returncode}, correct {result.get('correct')}, "
                  f"{result.get('failed')}/{result.get('attempted')} ops failed", flush=True)
            if not ok:
                print(done.stderr[-2000:], file=sys.stderr)
    print()
    if args.trace:
        print_layers(out)
    else:
        summarize(load_set(out))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
