"""One benchmark run in a fresh process; started by run.py, not by hand.

Times `import iaspec`, then runs ops back to back (a closed loop with one
client): each op writes its generated input file, then calls
`iaspec.cli.main([...])` in-process with outputs going to a scratch
directory, then checks and digests those outputs outside the timer.

Untraced, ops run until the fixed batch is done and `--seconds` would be
exceeded by one more op of median length. Traced, the batch runs once
untraced and once traced on the same inputs; the difference in summed op
time is the tracing overhead, and both passes must give identical outputs.

The last stdout line is a JSON object for run.py.
"""
import time

_start = time.perf_counter()
import iaspec  # noqa: E402

SETUP_S = time.perf_counter() - _start

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
from iaspec import cli  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, check, output_digest, write_input  # noqa: E402


def run_op(workload: str, seed: int, index: int, scratch: Path, main) -> dict:
    directory = scratch / f"op{index:04d}"
    directory.mkdir(parents=True)
    argv, expect = write_input(workload, seed, index, directory)
    output = io.StringIO()
    error = None
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # an op that raises counts as failed
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    if error is None and code != 0:
        error = f"exit code {code}: {output.getvalue().strip()[-300:]}"
    out = directory / "out"
    if error is None:
        try:
            error = check(argv[0], out, expect)
        except (OSError, KeyError, ValueError) as exc:
            error = f"output check: {type(exc).__name__}: {exc}"
    digest = output_digest(out) if error is None else None
    shutil.rmtree(directory)
    return {"op": index, "s": seconds, "error": error, "digest": digest}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()
    batch = WORKLOADS[args.workload]["batch"]

    def run(index, main_fn=cli.main):
        return run_op(args.workload, args.seed, index, args.scratch, main_fn)

    def another_op_fits(ops, loop_start) -> bool:
        if len(ops) < batch:
            return True
        if args.trace:
            return False
        elapsed = time.perf_counter() - loop_start
        return elapsed + statistics.median(op["s"] for op in ops) <= args.seconds

    result = {"setup_s": SETUP_S}
    loop_start = time.perf_counter()
    ops = []
    while another_op_fits(ops, loop_start):
        ops.append(run(len(ops)))
    result["ops"] = ops

    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced_main = tracer.wrap("cli", cli.main)
        traced = []
        for index in range(batch):
            tracer.op = index
            traced.append(run(index, traced_main))
        result["traced_ops"] = traced
        result["layers"] = tracer.layers()
        result["layer_metrics"] = tracer.layer_metrics()
        if args.spans is not None:
            tracer.write(args.spans)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "iaspec": iaspec.__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
