"""iaspec benchmark: time to a splitting estimate, per workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload ias_corrected --seed 1 --seconds 20 --trace 0

One run measures one workload (see workloads.py and BENCHMARK.json):

1. `setup_s`: `import iaspec` is timed in a fresh interpreter before the
   worker, in the worker itself, and in a fresh interpreter after it, with
   bytecode already compiled; the median of the three is reported. Spacing
   the samples over the run keeps one short slow spell of the machine from
   setting the value.
2. A fresh worker process (worker.py) runs the ops, one thread, with
   OMP/OpenBLAS/MKL threads pinned to 1. Only one worker runs at a time.

With `--trace 0` the last stdout line carries the end-to-end metrics:
`setup_s`, `op_s.p50` (median op time over every op of the run), `wall_s`
(summed time of the workload's fixed batch of ops, first call included)
and `peak_rss_mb` (the worker's ru_maxrss). With `--trace 1` it carries
the per-layer metrics of a traced pass over the batch, plus
`trace.overhead_s`, the traced minus the untraced summed batch time.

Every op's outputs are checked (see workloads.check); a failed op counts
in `failed` and makes `correct` false. A full record with run metadata,
per-op times and output digests is written to `--out`
(default .perfbench/runs).
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

IMPORT_PROBE = "import time; t = time.perf_counter(); import iaspec; print(time.perf_counter() - t)"
RUN_TIMEOUT_S = 170.0


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "src"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git directly (None outside a git tree)."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = Path(".git") / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def metadata() -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "src_lines": sum(
            len(path.read_text().splitlines()) for path in sorted(Path("src").rglob("*.py"))
        ),
        "generation": WORKLOADS,
    }


def time_import(env: dict, deadline: float) -> float:
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()), check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def tail_percentile(times: list[float]) -> dict | None:
    """Highest percentile with at least ten ops beyond it."""
    if len(times) < 11:
        return None
    ordered = sorted(times)
    return {"percentile": 100 * (len(ordered) - 10) // len(ordered), "s": ordered[-11]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=Path(".perfbench/runs"),
                        help="directory for the full run record")
    args = parser.parse_args()

    if not Path("src/iaspec/__init__.py").is_file():
        print("error: run from the root of an iaspec source checkout (src/iaspec missing)",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    meta = metadata()
    env = worker_env()
    # Bytecode is compiled first, as an installed package would have it.
    compileall.compile_dir("src", quiet=1)
    setup_samples = [time_import(env, deadline)]

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    args.out.mkdir(parents=True, exist_ok=True)
    Path(".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="ops-", dir=".perfbench"))
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scratch", str(scratch),
    ]
    if args.trace:
        command += ["--spans", str(args.out / f"{stem}.spans.csv")]
    try:
        done = subprocess.run(
            command, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if done.returncode != 0:
        print(f"error: worker exited with {done.returncode}\n{done.stderr[-2000:]}",
              file=sys.stderr)
        return 1
    worker = json.loads(done.stdout.strip().splitlines()[-1])
    setup_samples += [worker["setup_s"], time_import(env, deadline)]

    ops = worker["ops"]
    batch = WORKLOADS[args.workload]["batch"]
    all_ops = ops + worker.get("traced_ops", [])
    failures = [op for op in all_ops if op["error"]]
    times = [op["s"] for op in ops]
    untraced_wall = sum(op["s"] for op in ops[:batch])
    correct = not failures

    if args.trace:
        traced = worker["traced_ops"]
        traced_wall = sum(op["s"] for op in traced)
        mismatched = [
            a["op"] for a, b in zip(ops, traced) if a["digest"] != b["digest"]
        ]
        correct = correct and not mismatched
        values = dict(worker["layer_metrics"])
        values["trace.overhead_s"] = traced_wall - untraced_wall
        values["trace.overhead_share"] = (traced_wall - untraced_wall) / untraced_wall
    else:
        mismatched = []
        values = {
            "setup_s": statistics.median(setup_samples),
            "op_s.p50": statistics.median(times),
            "wall_s": untraced_wall,
            "peak_rss_mb": worker["peak_rss_mb"],
        }
    benchmark = json.loads(Path("BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in benchmark["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": {**meta, "versions": worker["versions"]},
        "setup_samples_s": setup_samples,
        "batch": batch,
        "ops": ops,
        "traced_ops": worker.get("traced_ops"),
        "layers": worker.get("layers"),
        "op_s_tail": tail_percentile(times),
        "fail_ratio": len(failures) / len(all_ops),
        "digest_mismatches": mismatched,
        "metrics": metrics,
    }
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for op in failures:
        print(f"op {op['op']} failed: {op['error']}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    if record["op_s_tail"]:
        tail = record["op_s_tail"]
        print(f"{args.workload} op_s.p{tail['percentile']} = {tail['s']:.6g} s "
              f"({len(times)} ops)", file=sys.stderr)
    print(f"{args.workload} fail_ratio = {record['fail_ratio']:.3g} "
          f"({len(failures)}/{len(all_ops)} ops)", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(all_ops),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
