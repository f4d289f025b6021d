"""Seeded input generation and per-op output checks for the four workloads.

Every op gets its own input file, derived from a bundled scenario (or, for
`fit_spectrum`, synthesized branch data) and written before the op's timer
starts. The program under test sees only that file.

Inputs depend on the workload seed and the op index only. Continuous
parameters are Latin-hypercube stratified over consecutive blocks of
`batch` ops, so every block covers its parameter range evenly and runs
with different seeds do comparable work.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
SCENARIO_DIR = Path("src/iaspec/scenarios")

# Generation parameters. `batch` is the fixed number of ops whose summed
# time is `wall_s`; `ranges` are drawn per op, stratified within a batch.
# For scenario workloads, keys are dotted paths into the scenario JSON.
# Priors of 40091-45209 Hz are 0.94-1.06 x the true 42650 Hz splitting.
# sense_repeat keeps the bundled prior and caps each estimation run at two
# iterations, so every op runs the same number of correction searches; with
# one op per run, a varying iteration count would dominate the spread.
WORKLOADS = {
    "ias_corrected": {
        "command": "run-ias",
        "base": "baseline_run.json",
        "batch": 5,
        "fixed": {"system.repeats": 30, "sequence.fringes": 4, "sequence.ramp_kind": "corrected"},
        "ranges": {"run.prior_hz": [40091.0, 45209.0]},
    },
    "sense_repeat": {
        "command": "sense",
        "base": "charge_step.json",
        "batch": 1,
        "fixed": {
            "run.prior_hz": 41300.0,
            "run.max_iterations": 2,
            "perturbation.n_runs": 2,
            "telegraph.enabled": True,
        },
        "ranges": {"telegraph.rate_hz": [0.1, 0.3]},
    },
    "shots_soft": {
        "command": "run-ias",
        "base": "baseline_run.json",
        "batch": 4,
        "fixed": {"system.repeats": 200, "sequence.fringes": 16, "sequence.ramp_kind": "soft"},
        "ranges": {"run.prior_hz": [40091.0, 45209.0]},
    },
    "fit_spectrum": {
        "command": "fit-spectrum",
        "base": None,
        "batch": 35,
        "fixed": {"voltage_span_v": [-11.5, -4.5], "unlabelled_share": 0.5},
        "ranges": {
            "n_voltages": [40, 120],
            "noise_hz": [200.0, 1500.0],
            "gap_halfwidth_v": [0.0, 0.5],
            "splitting_hz": [38000.0, 46000.0],
            "label_draw": [0.0, 1.0],
        },
    },
}
WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}


def _rng(seed: int, workload: str, *key: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(WORKLOAD_IDS[workload], *key))
    )


def _unit_draws(seed: int, workload: str, op: int) -> tuple[dict, int]:
    """Stratified uniforms in [0, 1) per range name, plus a 32-bit op seed."""
    spec = WORKLOADS[workload]
    batch = spec["batch"]
    block, slot = divmod(op, batch)
    block_rng = _rng(seed, workload, 0, block)
    op_rng = _rng(seed, workload, 1, op)
    units = {}
    for name in spec["ranges"]:
        stratum = block_rng.permutation(batch)[slot]
        units[name] = (stratum + op_rng.random()) / batch
    return units, int(op_rng.integers(2**32))


def _scale(bounds, unit: float) -> float:
    lo, hi = bounds
    return lo + (hi - lo) * unit


def write_input(workload: str, seed: int, op: int, directory: Path) -> tuple[list[str], dict]:
    """Write op `op`'s input into `directory`; return (cli argv, expectation).

    The expectation holds what `check` needs to judge the op's outputs.
    """
    spec = WORKLOADS[workload]
    units, op_seed = _unit_draws(seed, workload, op)
    ranges, fixed = spec["ranges"], spec["fixed"]
    name = f"{workload}_{op:04d}"
    out = directory / "out"
    if spec["command"] == "fit-spectrum":
        return _write_spectrum(name, units, op_seed, ranges, fixed, directory, out)

    raw = json.loads((SCENARIO_DIR / spec["base"]).read_text())
    raw["name"] = name
    raw["seed"] = op_seed
    values = {**fixed, **{key: _scale(bounds, units[key]) for key, bounds in ranges.items()}}
    for key, value in values.items():
        section, field = key.split(".")
        raw[section][field] = value
    path = directory / f"{name}.json"
    path.write_text(json.dumps(raw, indent=2) + "\n")
    expect = {"splitting_true_hz": raw["system"]["splitting_true_hz"]}
    return [spec["command"], str(path), "--out", str(out)], expect


def _write_spectrum(name, units, op_seed, ranges, fixed, directory, out):
    import iaspec

    n_voltages = int(round(_scale(ranges["n_voltages"], units["n_voltages"])))
    splitting_hz = _scale(ranges["splitting_hz"], units["splitting_hz"])
    rng = np.random.default_rng(op_seed)
    labelled = units["label_draw"] >= fixed["unlabelled_share"]
    raw = json.loads((SCENARIO_DIR / "baseline_run.json").read_text())["tuning"]
    tuning = iaspec.TuningModel(
        oop=iaspec.ModeTuning(TWO_PI * raw["oop_center_hz"], TWO_PI * raw["oop_coefficient_hz_per_v2"]),
        ip=iaspec.ModeTuning(TWO_PI * raw["ip_center_hz"], TWO_PI * raw["ip_coefficient_hz_per_v2"]),
        splitting=TWO_PI * splitting_hz,
    )
    data = iaspec.synthesize_branch_data(
        tuning,
        np.linspace(*fixed["voltage_span_v"], n_voltages),
        noise_std_hz=_scale(ranges["noise_hz"], units["noise_hz"]),
        rng=rng,
        gap_halfwidth_v=_scale(ranges["gap_halfwidth_v"], units["gap_halfwidth_v"]),
        labelled=labelled,
    )
    path = directory / f"{name}.csv"
    data.to_csv(path)
    return ["fit-spectrum", str(path), "--out", str(out)], {"data": path, "truth": tuning}


def check(command: str, out: Path, expect: dict) -> str | None:
    """None when the op's outputs pass its check, else the reason it failed."""
    if command == "run-ias":
        result = json.loads((out / "records.json").read_text())["result"]
        bin_width = result["records"][-1]["bin_width_rad_s"]
        error = abs(result["estimate_rad_s"] - TWO_PI * expect["splitting_true_hz"])
        if error > bin_width:
            return f"estimate off by {error / TWO_PI:.4g} Hz > one padded bin"
    elif command == "sense":
        report = json.loads((out / "report.json").read_text())
        error = abs(report["shift_hz"] - report["true_shift_hz"])
        if error > report["bin_width_hz"]:
            return f"shift off by {error:.4g} Hz > bin width {report['bin_width_hz']:.4g} Hz"
    else:
        return _check_fit(json.loads((out / "fit.json").read_text()), expect)
    return None


def _sum_of_squares(model, data) -> float:
    """The fit's objective: squared residuals to each point's labelled
    branch, or to the nearer branch for an unassigned point."""
    import iaspec

    f_up, f_lo = iaspec.branch_frequencies(model, data.voltage)
    res_up, res_lo = data.frequency_hz - f_up, data.frequency_hz - f_lo
    branch = np.array(data.branch)
    nearer = np.minimum(np.abs(res_up), np.abs(res_lo))
    res = np.where(branch == "upper", res_up, np.where(branch == "lower", res_lo, nearer))
    return float(np.dot(res, res))


def _check_fit(fit: dict, expect: dict) -> str | None:
    """A least-squares fit must fit the data at least as well as the model
    that generated them, and its splitting must lie within five of its own
    reported standard errors of the generating value. A fixed relative
    bound would not do: at the workload's highest noise and fewest
    voltages one standard error is about 2.5% of the splitting."""
    import iaspec

    p = fit["model"]
    fitted = iaspec.TuningModel(
        oop=iaspec.ModeTuning(TWO_PI * p["oop_center_hz"], TWO_PI * p["oop_coefficient_hz_per_v2"],
                              p["center_voltage_v"]),
        ip=iaspec.ModeTuning(TWO_PI * p["ip_center_hz"], TWO_PI * p["ip_coefficient_hz_per_v2"],
                             p["center_voltage_v"]),
        splitting=TWO_PI * p["splitting_hz"],
    )
    data = iaspec.SpectroscopyData.from_csv(expect["data"])
    fitted_ss, true_ss = _sum_of_squares(fitted, data), _sum_of_squares(expect["truth"], data)
    if not fitted_ss <= true_ss:
        return f"fit's sum of squares {fitted_ss:.6g} Hz^2 above the generating model's {true_ss:.6g}"
    error = p["splitting_hz"] - expect["truth"].splitting / TWO_PI
    stderr = fit["report"]["stderr"]["splitting_Hz"]
    if not abs(error) <= 5.0 * stderr:
        return f"fitted splitting off by {error:.4g} Hz, more than 5 x its stderr {stderr:.4g} Hz"
    return None


def output_digest(out: Path) -> str:
    """SHA-256 over every output file, the manifest's wall clock left out."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_clock_utc", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(data).digest())
    return digest.hexdigest()
