"""Scenario files: one JSON document describes one reproducible run.

`SCHEMA` below lists every section's keys, types and defaults; README.md
shows a full example. Frequencies are in Hz (keys ending in _hz), voltages
in V and times in s. `kind` (ias | fringe_sweep | perturbation | pulse)
picks the subcommand. tuning, system, sequence and run are required;
processing and charge default to their built-in values, filter and
telegraph are off when absent. `sweep` belongs to fringe_sweep scenarios
and `perturbation` (required there) to perturbation scenarios; on any
other kind either is an unknown key, like any key the schema does not list.

Every number must be finite: NaN, Infinity and integers beyond the float
range are rejected. null is accepted only where the default is null
(`name`: the file stem, `dephasing_time_s`: no dephasing,
`ringdown_duration_s`: derived, `filter` and `telegraph`: off). A section
that is present is read in full, even when empty: "filter": {} is the
default filter, and "telegraph": {} lacks its required rate.

Every referenced sub-configuration is constructed, and therefore
validated, at parse time; nothing runs on a scenario that does not fully
validate. Two resource caps are checked in closed form, before anything
is simulated: the integration steps one edge may plan, bounded over every
correction the search may try (`pulse.MAX_EDGE_STEPS`), and the padded FFT
length, pad_factor x trace points (`estimator.MAX_FFT_LENGTH`).
"""
from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .errors import ConfigurationError, DomainError
from .estimator import MIN_FRINGES_WINDOWED, ProcessingOptions
from .model import ModeTuning, TuningModel
from .pulse import MAX_EDGE_STEPS, FilterModel, edge_steps_bound
from .ramsey import SequenceDesign
from .sensing import DEFAULT_DIMENSIONS_M, ChargeModel, PerturbationScenario, TelegraphNoise

TWO_PI = 2.0 * math.pi

SCENARIO_KINDS = ("ias", "fringe_sweep", "perturbation", "pulse")

DEFAULT_SEED = 20260814

_REQUIRED = object()

# Each section's fields as (key, type, default); the top level is the
# section "scenario", whose dict fields are the other sections. `float`
# takes any finite JSON number, `int` a JSON integer within the float range,
# `[t]` a list of t, and a tuple of strings one of those strings.
SCHEMA = {
    "scenario": (
        ("name", str, None), ("description", str, ""),
        ("kind", SCENARIO_KINDS, _REQUIRED), ("seed", int, DEFAULT_SEED),
        ("tuning", dict, _REQUIRED), ("system", dict, _REQUIRED),
        ("sequence", dict, _REQUIRED), ("run", dict, _REQUIRED),
        ("processing", dict, {}), ("charge", dict, {}),
        ("filter", dict, None), ("telegraph", dict, None),
    ),
    "tuning": tuple((key, float, _REQUIRED) for key in (
        "oop_center_hz", "ip_center_hz", "oop_coefficient_hz_per_v2",
        "ip_coefficient_hz_per_v2", "center_voltage_v", "splitting_hz",
    )),
    "system": (
        ("splitting_true_hz", float, _REQUIRED), ("gamma_per_s", float, 0.0),
        ("dephasing_time_s", float, None), ("readout_noise_std", float, 0.0),
        ("repeats", int, 30),
    ),
    "sequence": (
        ("u_initial_v", float, _REQUIRED), ("u_readout_v", float, _REQUIRED),
        ("ramp_kind", str, "corrected"), ("fringes", int, 4),
        ("samples_per_fringe", int, 10), ("edge_cycles", float, 1.0),
        ("steps_per_period", int, 200), ("optimizer_steps_per_period", int, 50),
        ("ringdown_duration_s", float, None), ("ringdown_samples", int, 50),
    ),
    "run": (("prior_hz", float, _REQUIRED), ("max_iterations", int, 6)),
    "processing": (
        ("window", str, "hann"), ("window_fraction", float, 0.5),
        ("pad_factor", int, 16), ("interpolate", bool, True),
    ),
    "charge": (
        ("response_hz_per_density", float, 26.0),
        ("dimensions_m", [float], list(DEFAULT_DIMENSIONS_M)),
    ),
    "filter": (("passband_gain_db", float, -0.4), ("corner_hz", float, 1e5)),
    "telegraph": (
        ("rate_hz", float, _REQUIRED), ("amplitude_hz", float, _REQUIRED),
        ("enabled", bool, False),
    ),
    "sweep": (("fringe_counts", [int], [2, 4, 8, 16, 32]), ("iterations", int, 3)),
    "perturbation": (("shift_true_hz", float, _REQUIRED), ("n_runs", int, 5)),
}

# Top-level sections that belong to one kind; any other kind rejects them.
KIND_SECTIONS = {
    "fringe_sweep": ("sweep", dict, {}),
    "perturbation": ("perturbation", dict, _REQUIRED),
}

_EXPECTED = {float: "a finite number", int: "an integer", str: "a string",
             bool: "true/false", dict: "a JSON object"}


def _value(value, kind, where: str):
    """One JSON value checked against a schema type."""
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigurationError(f"{where}: must be one of {kind}, got {value!r:.40}")
        return value
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigurationError(f"{where}: expected a list, got {value!r:.40}")
        return [_value(item, kind[0], f"{where}[{i}]") for i, item in enumerate(value)]
    if kind in (float, int):
        number = isinstance(value, (int, float) if kind is float else int)
        if number and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
            return kind(value)
    elif isinstance(value, kind):
        return value
    raise ConfigurationError(f"{where}: expected {_EXPECTED[kind]}, got {value!r:.40}")


def _fields(section: dict, path: str, fields) -> dict:
    """Every field of one section, type-checked or defaulted; no other keys."""
    rest = dict(section)
    values = {}
    for key, kind, default in fields:
        if key not in rest:
            if default is _REQUIRED:
                raise ConfigurationError(f"{path}.{key}: missing")
            values[key] = default
        elif rest[key] is None and default is None:
            values[key] = rest.pop(key)
        else:
            values[key] = _value(rest.pop(key), kind, f"{path}.{key}")
    if rest:
        raise ConfigurationError(f"{path}: unknown keys {sorted(rest)}")
    return values


@contextmanager
def _prefixed(path: str):
    """Report a constructor's ConfigurationError or DomainError under `path`."""
    try:
        yield
    except (ConfigurationError, DomainError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


@dataclass
class Scenario:
    """A fully validated run description."""

    name: str
    kind: str
    design: SequenceDesign
    processing: ProcessingOptions
    prior: float
    max_iterations: int
    charge: ChargeModel
    seed: int
    sweep_fringe_counts: list[int] | None = None
    sweep_iterations: int = 3
    perturbation: PerturbationScenario | None = None
    telegraph: TelegraphNoise | None = None

    @property
    def prior_hz(self) -> float:
        return self.prior / TWO_PI


def parse_scenario(
    raw: dict,
    name: str | None = None,
    repeats_override: int | None = None,
) -> Scenario:
    """Validate a scenario document and construct every sub-configuration.

    Raises ConfigurationError with a dotted-path message on the first
    problem found; no simulation state is touched.
    """
    if not isinstance(raw, dict):
        raise ConfigurationError("scenario: top level must be a JSON object")
    own = tuple(field for kind, field in KIND_SECTIONS.items() if kind == raw.get("kind"))
    top = _fields(raw, "scenario", SCHEMA["scenario"] + own)
    kind, seed = top["kind"], top["seed"]
    if seed < 0:
        raise ConfigurationError("seed: must be a non-negative integer")
    sections = {key: _fields(value, key, SCHEMA[key])
         for key, value in top.items() if key in SCHEMA and value is not None}

    t, system, sequence, run = (sections[key] for key in ("tuning", "system", "sequence", "run"))
    with _prefixed("tuning"):
        tuning = TuningModel(
            oop=ModeTuning(TWO_PI * t["oop_center_hz"], TWO_PI * t["oop_coefficient_hz_per_v2"],
                           t["center_voltage_v"]),
            ip=ModeTuning(TWO_PI * t["ip_center_hz"], TWO_PI * t["ip_coefficient_hz_per_v2"],
                          t["center_voltage_v"]),
            splitting=TWO_PI * t["splitting_hz"],
        )
    with _prefixed("filter"):
        bandwidth_filter = FilterModel(**sections["filter"]) if "filter" in sections else None
    dephasing = system["dephasing_time_s"]
    with _prefixed("sequence/system"):
        design = SequenceDesign(
            tuning=tuning,
            u_initial=sequence["u_initial_v"],
            u_readout=sequence["u_readout_v"],
            omega0_true=TWO_PI * system["splitting_true_hz"],
            gamma=system["gamma_per_s"],
            dephasing_time=math.inf if dephasing is None else dephasing,
            noise_std=system["readout_noise_std"],
            repeats=system["repeats"] if repeats_override is None else repeats_override,
            kind=sequence["ramp_kind"],
            fringes=sequence["fringes"],
            samples_per_fringe=sequence["samples_per_fringe"],
            edge_cycles=sequence["edge_cycles"],
            steps_per_period=sequence["steps_per_period"],
            optimizer_steps_per_period=sequence["optimizer_steps_per_period"],
            ringdown_duration=sequence["ringdown_duration_s"],
            ringdown_samples=sequence["ringdown_samples"],
            bandwidth_filter=bandwidth_filter,
        )
    dims = sections["charge"]["dimensions_m"]
    if len(dims) != 3:
        raise ConfigurationError("charge.dimensions_m: must be a list of three numbers")
    with _prefixed("charge"):
        charge = ChargeModel.from_dimensions(
            *dims, response_hz_per_density=sections["charge"]["response_hz_per_density"]
        )
    with _prefixed("processing"):
        processing = ProcessingOptions(**sections["processing"])
    with _prefixed("telegraph"):
        telegraph = TelegraphNoise(**sections["telegraph"]) if "telegraph" in sections else None

    if run["prior_hz"] <= 0.0:
        raise ConfigurationError("run.prior_hz: must be positive")
    if run["max_iterations"] < 0:
        raise ConfigurationError("run.max_iterations: must be non-negative")
    prior = TWO_PI * run["prior_hz"]

    sweep_counts = None
    sweep_iterations = 3
    longest = design
    if kind == "fringe_sweep":
        sweep_counts = list(sections["sweep"]["fringe_counts"])
        sweep_iterations = sections["sweep"]["iterations"]
        if not sweep_counts or not all(2 <= v <= 64 for v in sweep_counts):
            raise ConfigurationError(
                f"sweep.fringe_counts: must be a non-empty list of integers in [2, 64], "
                f"got {sweep_counts!r:.40}"
            )
        if sweep_iterations < 2:
            raise ConfigurationError(
                "sweep.iterations: must be >= 2 (first pass is the coarse bootstrap)"
            )
        with _prefixed("sweep.fringe_counts"):
            longest = replace(design, fringes=max(sweep_counts))

    perturbation = None
    if kind == "perturbation":
        with _prefixed("perturbation"):
            perturbation = PerturbationScenario(
                design=design,
                prior=prior,
                shift_true=TWO_PI * sections["perturbation"]["shift_true_hz"],
                n_runs=sections["perturbation"]["n_runs"],
                max_iterations=max(run["max_iterations"], 1),
                charge=charge,
            )

    if (
        kind in ("ias", "perturbation")
        and processing.window != "none"
        and design.fringes < MIN_FRINGES_WINDOWED
    ):
        raise ConfigurationError(
            f"sequence.fringes: windowed processing needs >= {MIN_FRINGES_WINDOWED} fringes"
        )

    # Force the derived configurations that a run would build, so invalid
    # combinations surface here and not mid-simulation.
    with _prefixed("scenario: derived configuration invalid"):
        ramp = design.ramp_for(prior)
    spp = max(design.steps_per_period, design.optimizer_steps_per_period)
    if design.kind != "ideal" and not edge_steps_bound(ramp, tuning, spp) <= MAX_EDGE_STEPS:
        raise ConfigurationError(
            f"sequence: an edge may plan more than {MAX_EDGE_STEPS} integration steps"
        )
    with _prefixed("processing"):
        processing.check_fft_length(longest)

    return Scenario(
        name=(name or "scenario") if top["name"] is None else top["name"],
        kind=kind,
        design=design,
        processing=processing,
        prior=prior,
        max_iterations=run["max_iterations"],
        charge=charge,
        seed=seed,
        sweep_fringe_counts=sweep_counts,
        sweep_iterations=sweep_iterations,
        perturbation=perturbation,
        telegraph=telegraph,
    )


def load_scenario(path, repeats_override: int | None = None) -> Scenario:
    """Parse a scenario JSON file; bad JSON reports the line number."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"{path}: cannot read scenario file: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}:{exc.lineno}: invalid JSON: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
    return parse_scenario(raw, name=path.stem, repeats_override=repeats_override)


def bundled_scenario_names() -> list[str]:
    root = resources.files("iaspec") / "scenarios"
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))


def bundled_path(filename: str) -> Path:
    """Filesystem path of a bundled scenario or data file."""
    candidate = resources.files("iaspec") / "scenarios" / filename
    with resources.as_file(candidate) as concrete:
        if not concrete.exists():
            raise ConfigurationError(f"no bundled file named {filename!r}")
        return Path(concrete)
