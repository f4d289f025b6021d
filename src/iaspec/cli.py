"""Command line front end.

One scenario file per invocation; every run emits tidy CSV/JSON files for
external plotting plus a manifest with checksums of everything written.
Exit codes: 0 success, 1 malformed input or invalid scenario, 2 fit error,
3 no usable fringe peak (also a trace too incomplete to read).
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConfigurationError,
    DomainError,
    FitError,
    IasRunError,
    NoPeakError,
    TraceError,
)
from .estimator import fringe_sweep, ias_run
from .model import SpectroscopyData, fit_avoided_crossing
from .pulse import build_sequence_waveform, apply_bandwidth_filter
from .scenario import Scenario, load_scenario
from .sensing import reference_comparison, run_perturbation_experiment

TWO_PI = 2.0 * math.pi


def _json_default(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value)}")


class Emission:
    """Writes a run's output files and the manifest that lists them.

    The directory is created on the first write, so a run that fails before
    writing anything leaves nothing behind.
    """

    def __init__(self, out: str | None, default_name: str):
        self.out_dir = Path(out) if out is not None else Path("out") / default_name
        self.files: dict[str, str] = {}

    def _save(self, name: str, text: str) -> None:
        data = text.encode()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        (self.out_dir / name).write_bytes(data)
        self.files[name] = hashlib.sha256(data).hexdigest()

    def write_json(self, name: str, payload) -> None:
        text = json.dumps(payload, sort_keys=True, indent=2, default=_json_default)
        self._save(name, text + "\n")

    def write_rows(self, name: str, header, rows) -> None:
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(header)
        writer.writerows(rows)
        self._save(name, text.getvalue())

    def write_manifest(self, scenario_name: str, source: str | Path, seed: int) -> None:
        self.write_json("manifest.json", {
            "version": __version__,
            "scenario_name": scenario_name,
            "scenario_sha256": hashlib.sha256(Path(source).read_bytes()).hexdigest(),
            "seed": seed,
            "wall_clock_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "files": dict(sorted(self.files.items())),
        })


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _float_rows(*columns):
    return [[_fmt(float(v)) for v in row] for row in zip(*columns)]


def _scenario_command(kind: str | None):
    """Wrap `body(args, scenario, seed, emission)` into a subcommand.

    The wrapper loads the scenario (of `kind`, or any kind for None),
    resolves the seed and the output directory, and writes the manifest
    after the body. `load_scenario` and what the bodies call are looked up
    as module globals at call time, so replacing them on this module (as a
    tracer does) takes effect.
    """
    def wrap(body):
        def command(args) -> int:
            scenario = load_scenario(args.scenario, repeats_override=args.repeats)
            if kind is not None and scenario.kind != kind:
                raise ConfigurationError(
                    f"{args.scenario}: scenario kind is {scenario.kind!r}, "
                    f"this subcommand needs {kind!r}"
                )
            if args.seed is not None and args.seed < 0:
                raise ConfigurationError("--seed must be a non-negative integer")
            seed = scenario.seed if args.seed is None else args.seed
            emission = Emission(args.out, scenario.name)
            code = body(args, scenario, seed, emission)
            emission.write_manifest(scenario.name, args.scenario, seed)
            return code
        return command
    return wrap


def cmd_fit_spectrum(args) -> int:
    data = SpectroscopyData.from_csv(args.input)
    try:
        model, report = fit_avoided_crossing(data)
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 2
    payload = {
        "model": {
            "oop_center_hz": model.oop.center_frequency / TWO_PI,
            "ip_center_hz": model.ip.center_frequency / TWO_PI,
            "oop_coefficient_hz_per_v2": model.oop.coefficient / TWO_PI,
            "ip_coefficient_hz_per_v2": model.ip.coefficient / TWO_PI,
            "center_voltage_v": model.oop.center_voltage,
            "splitting_hz": model.splitting / TWO_PI,
        },
        "report": {
            "residual_rms_hz": report.residual_rms_hz,
            "stderr": report.stderr,
            "n_points": report.n_points,
            "n_iterations": report.n_iterations,
            "converged": report.converged,
            "assignments": report.assignments,
        },
    }
    emission = Emission(args.out, "fit_spectrum")
    emission.write_json("fit.json", payload)
    emission.write_manifest(Path(args.input).stem, args.input, 0)
    print(
        f"fit converged: splitting {payload['model']['splitting_hz']:.6g} Hz, "
        f"residual rms {report.residual_rms_hz:.3g} Hz"
    )
    return 0


@_scenario_command("ias")
def cmd_run_ias(args, scenario: Scenario, seed: int, emission: Emission) -> int:
    max_iterations = (
        args.max_iterations if args.max_iterations is not None else scenario.max_iterations
    )
    if max_iterations == 0:
        return 0
    try:
        result = ias_run(
            scenario.design,
            prior=scenario.prior,
            seed=seed,
            max_iterations=max_iterations,
            options=scenario.processing,
        )
        records = result.records
        payload = {"scenario": scenario.name, "seed": seed, "result": result.summary()}
        print(
            f"estimate {result.estimate_hz:.6g} Hz "
            f"+- {result.uncertainty / TWO_PI:.3g} Hz after {result.iterations} "
            f"iterations (converged: {result.converged})"
        )
        exit_code = 0
    except IasRunError as exc:
        records = exc.records
        payload = {
            "scenario": scenario.name,
            "seed": seed,
            "error": str(exc),
            "records": [r.summary() for r in records],
        }
        print(f"run aborted: {exc}", file=sys.stderr)
        exit_code = 3
    for rec in records:
        stem = f"iteration_{rec.iteration:02d}"
        if rec.trace is not None:
            trace = rec.trace
            emission.write_rows(f"{stem}_trace.csv", ["t_w_s", "p_return", "p_std"],
                                _float_rows(trace.t_w, trace.p_return, trace.p_std))
            emission.write_json(f"{stem}_trace.json", trace.metadata)
        if rec.record is not None and rec.record.frequency_grid_hz is not None:
            emission.write_rows(f"{stem}_spectrum.csv", ["frequency_hz", "magnitude"],
                                _float_rows(rec.record.frequency_grid_hz, rec.record.magnitude))
    emission.write_json("records.json", payload)
    return exit_code


@_scenario_command("fringe_sweep")
def cmd_fringe_sweep(args, scenario: Scenario, seed: int, emission: Emission) -> int:
    counts = args.fringes if args.fringes else scenario.sweep_fringe_counts
    rows = fringe_sweep(
        scenario.design,
        prior=scenario.prior,
        fringe_counts=counts,
        seed=seed,
        iterations=scenario.sweep_iterations,
        options=scenario.processing,
    )
    header = [
        "fringes",
        "iterations",
        "raw_hz",
        "raw_std_hz",
        "raw_bin_hz",
        "processed_hz",
        "processed_std_hz",
        "processed_bin_hz",
        "processed_error",
    ]
    emission.write_rows(
        "sweep.csv", header, [[_fmt(row[key]) for key in header] for row in rows]
    )
    emission.write_json("sweep.json", {"scenario": scenario.name, "seed": seed, "rows": rows})
    for row in rows:
        processed = (
            f"{row['processed_hz']:.6g} Hz" if row["processed_hz"] is not None
            else f"({row['processed_error']})"
        )
        print(f"n={row['fringes']:>3d}  raw {row['raw_hz']:.6g} Hz  processed {processed}")
    return 0


@_scenario_command("perturbation")
def cmd_sense(args, scenario: Scenario, seed: int, emission: Emission) -> int:
    report = run_perturbation_experiment(
        scenario.perturbation, seed=seed, options=scenario.processing
    )
    report["reference_comparison"] = reference_comparison(scenario.charge)
    telegraph = scenario.telegraph
    if telegraph is not None and telegraph.enabled:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(99,)))
        times = telegraph.trace_times()
        report["telegraph_trace"] = "telegraph_switching.csv"
        emission.write_rows("telegraph_switching.csv", ["time_s", "offset_hz"],
                            _float_rows(times, telegraph.sample(times, rng)))
    emission.write_json("report.json", report)
    print(
        f"shift {report['shift_hz']:.6g} Hz -> "
        f"{report['charge_density_C_per_m3']:.6g} C/m^3, "
        f"{report['electron_equivalent']:.6g} elementary charges"
    )
    for flag in report["flags"]:
        print(f"flag: {flag}")
    return 0


@_scenario_command(None)
def cmd_show_pulse(args, scenario: Scenario, seed: int, emission: Emission) -> int:
    design = scenario.design
    wait = args.wait_fringes * TWO_PI / scenario.prior
    info: dict = {"scenario": scenario.name, "prior_hz": scenario.prior_hz}
    # soft first: its sample count, which the corrections do not change, is
    # checked against the cap before the correction search runs
    kinds = [design.kind] if design.kind != "corrected" else ["soft", "corrected"]
    for kind in kinds:
        if kind == "ideal":
            continue
        lead = trail = None
        if kind == "corrected":
            lead, trail = design.optimize_edges(scenario.prior)
            info["correction"] = {
                "lead": {"c": lead.c, "d": lead.d, "infidelity": lead.infidelity,
                         "soft_infidelity": lead.soft_infidelity},
                "trail": {"c": trail.c, "d": trail.d, "infidelity": trail.infidelity,
                          "soft_infidelity": trail.soft_infidelity},
            }
        # kind "soft" on a corrected design: the uncorrected ramp, relabelled
        shaped = replace(design.ramp_for(scenario.prior, lead, trail), kind=kind).with_wait(wait)
        sample_period = shaped.edge_duration / 2000.0
        waveform = build_sequence_waveform(
            shaped, design.tuning, sample_period, margin=0.25 * shaped.edge_duration
        )
        waveforms = {f"pulse_{kind}.csv": waveform}
        if design.bandwidth_filter is not None:
            waveforms[f"pulse_{kind}_filtered.csv"] = apply_bandwidth_filter(
                waveform, design.bandwidth_filter, design.tuning
            )
        for name, wf in waveforms.items():
            emission.write_rows(name, ["time_s", "voltage_V", "detuning_rad_s"],
                                _float_rows(wf.time, wf.voltage, wf.detuning))
        info[f"ramp_{kind}"] = asdict(shaped)
    emission.write_json("pulse.json", info)
    print(f"wrote waveforms for {scenario.name} to {emission.out_dir}")
    return 0


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it reports unknown options under its own usage line.

    Plain argparse hands a subcommand's leftovers back to the top-level
    parser, whose error names neither the subcommand nor its options.
    """

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, metavar="U64",
                        help="master seed; overrides the scenario's seed")
    common.add_argument("--out", type=str, default=None, metavar="DIR",
                        help="output directory (default: out/<scenario name>)")
    common.add_argument("--repeats", type=int, default=None, metavar="K",
                        help="override the scenario's repeats per grid point")

    parser = argparse.ArgumentParser(
        prog="iaspec",
        description="Simulate and estimate the splitting of a voltage-tunable "
                    "two-mode resonator.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                parser_class=_SubcommandParser)

    p = sub.add_parser("fit-spectrum",
                       help="fit the avoided-crossing tuning model to a spectroscopy CSV")
    p.add_argument("--out", type=str, default=None, metavar="DIR",
                   help="output directory (default: out/fit_spectrum)")
    p.add_argument("input", help="CSV with columns voltage_V,frequency_Hz,branch")
    p.set_defaults(func=cmd_fit_spectrum)

    p = sub.add_parser("run-ias", parents=[common],
                       help="run the iterative splitting estimation on a scenario")
    p.add_argument("scenario", help="scenario JSON file of kind 'ias'")
    p.add_argument("--max-iterations", type=int, default=None,
                   help="override the scenario's iteration cap")
    p.set_defaults(func=cmd_run_ias)

    p = sub.add_parser("fringe-sweep", parents=[common],
                       help="estimate quality versus number of measured fringes")
    p.add_argument("scenario", help="scenario JSON file of kind 'fringe_sweep'")
    p.add_argument("--fringes", type=int, nargs="*", default=None,
                   help="fringe counts to sweep (default: scenario's sweep section)")
    p.set_defaults(func=cmd_fringe_sweep)

    p = sub.add_parser("sense", parents=[common],
                       help="run a charge-step perturbation experiment")
    p.add_argument("scenario", help="scenario JSON file of kind 'perturbation'")
    p.set_defaults(func=cmd_sense)

    p = sub.add_parser("show-pulse", parents=[common],
                       help="dump the scenario's pulse waveform(s) as CSV")
    p.add_argument("scenario", help="any scenario JSON file")
    p.add_argument("--wait-fringes", type=float, default=1.0,
                   help="plateau length in expected fringe periods (default 1)")
    p.set_defaults(func=cmd_show_pulse)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, the fit-error code here
        return 1 if exc.code else 0
    if not hasattr(args, "func"):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except (ConfigurationError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 2
    except (NoPeakError, IasRunError, TraceError) as exc:
        print(f"no usable fringe peak: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
