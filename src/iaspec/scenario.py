"""Scenario files: one JSON document describes one reproducible run.

Schema (all frequencies in Hz, voltages in V, times in s; sections marked
optional may be omitted):

    {
      "name": "baseline_run",             // optional, defaults to file stem
      "description": "...",               // optional free text
      "kind": "ias",                      // ias | fringe_sweep | perturbation | pulse
      "seed": 1234,                       // optional master seed (u64)
      "tuning": {
        "oop_center_hz": ..., "ip_center_hz": ...,
        "oop_coefficient_hz_per_v2": ...,   // > 0, stiffening
        "ip_coefficient_hz_per_v2": ...,    // < 0, softening
        "center_voltage_v": ...,
        "splitting_hz": ...                 // fitted minimal splitting
      },
      "system": {
        "splitting_true_hz": ...,           // hidden truth
        "gamma_per_s": ...,                 // energy decay rate, >= 0
        "dephasing_time_s": ...,            // optional, default inf
        "readout_noise_std": ...,           // optional, default 0
        "repeats": ...                      // optional, default 30
      },
      "sequence": {
        "u_initial_v": ..., "u_readout_v": ...,
        "ramp_kind": "corrected",           // soft | corrected | ideal
        "fringes": 4, "samples_per_fringe": 10,        // optional
        "edge_cycles": 1.0,                            // optional
        "steps_per_period": 800,                       // optional
        "optimizer_steps_per_period": 200,             // optional
        "ringdown_duration_s": null, "ringdown_samples": 50  // optional
      },
      "processing": {                       // optional
        "window": "hann", "window_fraction": 0.5,
        "pad_factor": 16, "interpolate": true
      },
      "run": {"prior_hz": ..., "max_iterations": 6},
      "sweep": {"fringe_counts": [2,4,8,16,32], "iterations": 3},  // fringe_sweep
      "perturbation": {"shift_true_hz": ..., "n_runs": 5},         // perturbation
      "filter": {"passband_gain_db": -0.4, "corner_hz": 1e5},      // optional, off when absent
      "charge": {                           // optional
        "response_hz_per_density": 26.0,
        "dimensions_m": [55e-6, 250e-9, 100e-9]
      },
      "telegraph": {"rate_hz": ..., "amplitude_hz": ..., "enabled": false}  // optional
    }

Every referenced sub-configuration is constructed, and therefore
validated, at parse time; nothing runs on a scenario that does not fully
validate.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ConfigurationError, DomainError
from .estimator import MIN_FRINGES_WINDOWED, ProcessingOptions
from .model import ModeTuning, TuningModel
from .pulse import FilterModel
from .ramsey import SequenceDesign
from .sensing import ChargeModel, PerturbationScenario, TelegraphNoise

TWO_PI = 2.0 * math.pi

SCENARIO_KINDS = ("ias", "fringe_sweep", "perturbation", "pulse")

DEFAULT_SEED = 20260814

_REQUIRED = object()


def _section(raw: dict, key: str, required: bool = True) -> dict:
    value = raw.pop(key, None)
    if value is None:
        if required:
            raise ConfigurationError(f"{key}: section missing")
        return {}
    if not isinstance(value, dict):
        raise ConfigurationError(f"{key}: must be a JSON object")
    return dict(value)


def _number(section: dict, key: str, path: str, default=_REQUIRED, allow_none: bool = False):
    if key not in section:
        if default is _REQUIRED:
            raise ConfigurationError(f"{path}.{key}: missing")
        return default
    value = section.pop(key)
    if value is None and allow_none:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{path}.{key}: expected a number, got {value!r}")
    return float(value)


def _integer(section: dict, key: str, path: str, default=_REQUIRED):
    if key not in section:
        if default is _REQUIRED:
            raise ConfigurationError(f"{path}.{key}: missing")
        return default
    value = section.pop(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{path}.{key}: expected an integer, got {value!r}")
    return value


def _string(section: dict, key: str, path: str, default=_REQUIRED):
    if key not in section:
        if default is _REQUIRED:
            raise ConfigurationError(f"{path}.{key}: missing")
        return default
    value = section.pop(key)
    if not isinstance(value, str):
        raise ConfigurationError(f"{path}.{key}: expected a string, got {value!r}")
    return value


def _boolean(section: dict, key: str, path: str, default=_REQUIRED):
    if key not in section:
        if default is _REQUIRED:
            raise ConfigurationError(f"{path}.{key}: missing")
        return default
    value = section.pop(key)
    if not isinstance(value, bool):
        raise ConfigurationError(f"{path}.{key}: expected true/false, got {value!r}")
    return value


def _ensure_empty(section: dict, path: str) -> None:
    if section:
        raise ConfigurationError(f"{path}: unknown keys {sorted(section)}")


@dataclass
class Scenario:
    """A fully validated run description."""

    name: str
    kind: str
    tuning: TuningModel
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
    description: str = ""

    @property
    def prior_hz(self) -> float:
        return self.prior / TWO_PI


def _build_tuning(raw: dict) -> TuningModel:
    section = _section(raw, "tuning")
    oop_center = _number(section, "oop_center_hz", "tuning")
    ip_center = _number(section, "ip_center_hz", "tuning")
    oop_coeff = _number(section, "oop_coefficient_hz_per_v2", "tuning")
    ip_coeff = _number(section, "ip_coefficient_hz_per_v2", "tuning")
    center_v = _number(section, "center_voltage_v", "tuning")
    splitting = _number(section, "splitting_hz", "tuning")
    _ensure_empty(section, "tuning")
    try:
        return TuningModel(
            oop=ModeTuning(TWO_PI * oop_center, TWO_PI * oop_coeff, center_v),
            ip=ModeTuning(TWO_PI * ip_center, TWO_PI * ip_coeff, center_v),
            splitting=TWO_PI * splitting,
        )
    except (ConfigurationError, DomainError) as exc:
        raise ConfigurationError(f"tuning: {exc}") from exc


def _build_design(raw: dict, tuning: TuningModel, repeats_override: int | None) -> SequenceDesign:
    system = _section(raw, "system")
    splitting_true = _number(system, "splitting_true_hz", "system")
    gamma = _number(system, "gamma_per_s", "system", default=0.0)
    dephasing = _number(system, "dephasing_time_s", "system", default=math.inf, allow_none=True)
    noise_std = _number(system, "readout_noise_std", "system", default=0.0)
    repeats = _integer(system, "repeats", "system", default=30)
    _ensure_empty(system, "system")
    if repeats_override is not None:
        repeats = repeats_override
    if dephasing is None:
        dephasing = math.inf

    sequence = _section(raw, "sequence")
    u_initial = _number(sequence, "u_initial_v", "sequence")
    u_readout = _number(sequence, "u_readout_v", "sequence")
    ramp_kind = _string(sequence, "ramp_kind", "sequence", default="corrected")
    fringes = _integer(sequence, "fringes", "sequence", default=4)
    spf = _integer(sequence, "samples_per_fringe", "sequence", default=10)
    edge_cycles = _number(sequence, "edge_cycles", "sequence", default=1.0)
    spp = _integer(sequence, "steps_per_period", "sequence", default=800)
    opt_spp = _integer(sequence, "optimizer_steps_per_period", "sequence", default=200)
    ringdown_duration = _number(
        sequence, "ringdown_duration_s", "sequence", default=None, allow_none=True
    )
    ringdown_samples = _integer(sequence, "ringdown_samples", "sequence", default=50)
    _ensure_empty(sequence, "sequence")

    filter_section = _section(raw, "filter", required=False)
    bandwidth_filter = None
    if filter_section:
        gain = _number(filter_section, "passband_gain_db", "filter", default=-0.4)
        corner = _number(filter_section, "corner_hz", "filter", default=1e5)
        _ensure_empty(filter_section, "filter")
        bandwidth_filter = FilterModel(passband_gain_db=gain, corner_hz=corner)

    try:
        return SequenceDesign(
            tuning=tuning,
            u_initial=u_initial,
            u_readout=u_readout,
            omega0_true=TWO_PI * splitting_true,
            gamma=gamma,
            dephasing_time=dephasing,
            noise_std=noise_std,
            repeats=repeats,
            kind=ramp_kind,
            fringes=fringes,
            samples_per_fringe=spf,
            edge_cycles=edge_cycles,
            steps_per_period=spp,
            optimizer_steps_per_period=opt_spp,
            ringdown_duration=ringdown_duration,
            ringdown_samples=ringdown_samples,
            bandwidth_filter=bandwidth_filter,
        )
    except (ConfigurationError, DomainError) as exc:
        raise ConfigurationError(f"sequence/system: {exc}") from exc


def _build_processing(raw: dict) -> ProcessingOptions:
    section = _section(raw, "processing", required=False)
    if not section:
        return ProcessingOptions()
    window = _string(section, "window", "processing", default="hann")
    fraction = _number(section, "window_fraction", "processing", default=0.5)
    pad = _integer(section, "pad_factor", "processing", default=16)
    interpolate = _boolean(section, "interpolate", "processing", default=True)
    _ensure_empty(section, "processing")
    try:
        return ProcessingOptions(window, fraction, pad, interpolate)
    except (ConfigurationError, DomainError) as exc:
        raise ConfigurationError(f"processing: {exc}") from exc


def _build_charge(raw: dict) -> ChargeModel:
    section = _section(raw, "charge", required=False)
    if not section:
        return ChargeModel()
    response = _number(section, "response_hz_per_density", "charge", default=26.0)
    dims = section.pop("dimensions_m", None)
    _ensure_empty(section, "charge")
    try:
        if dims is None:
            return ChargeModel(response_hz_per_density=response)
        if not (isinstance(dims, list) and len(dims) == 3):
            raise ConfigurationError("dimensions_m must be a list of three numbers")
        return ChargeModel.from_dimensions(*[float(v) for v in dims],
                                           response_hz_per_density=response)
    except (ConfigurationError, DomainError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"charge: {exc}") from exc


def _build_telegraph(raw: dict) -> TelegraphNoise | None:
    section = _section(raw, "telegraph", required=False)
    if not section:
        return None
    rate = _number(section, "rate_hz", "telegraph")
    amplitude = _number(section, "amplitude_hz", "telegraph")
    enabled = _boolean(section, "enabled", "telegraph", default=False)
    _ensure_empty(section, "telegraph")
    try:
        return TelegraphNoise(rate_hz=rate, amplitude_hz=amplitude, enabled=enabled)
    except (ConfigurationError, DomainError) as exc:
        raise ConfigurationError(f"telegraph: {exc}") from exc


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
    work = dict(raw)
    scenario_name = _string(work, "name", "scenario", default=name or "scenario")
    description = _string(work, "description", "scenario", default="")
    kind = _string(work, "kind", "scenario")
    if kind not in SCENARIO_KINDS:
        raise ConfigurationError(f"kind: must be one of {SCENARIO_KINDS}, got {kind!r}")
    seed = _integer(work, "seed", "scenario", default=DEFAULT_SEED)
    if seed < 0:
        raise ConfigurationError("seed: must be a non-negative integer")

    tuning = _build_tuning(work)
    design = _build_design(work, tuning, repeats_override)
    processing = _build_processing(work)
    charge = _build_charge(work)
    telegraph = _build_telegraph(work)

    run = _section(work, "run")
    prior_hz = _number(run, "prior_hz", "run")
    max_iterations = _integer(run, "max_iterations", "run", default=6)
    _ensure_empty(run, "run")
    if prior_hz <= 0.0:
        raise ConfigurationError("run.prior_hz: must be positive")
    if max_iterations < 0:
        raise ConfigurationError("run.max_iterations: must be non-negative")
    prior = TWO_PI * prior_hz

    sweep_counts = None
    sweep_iterations = 3
    if kind == "fringe_sweep":
        sweep = _section(work, "sweep", required=False)
        counts = sweep.pop("fringe_counts", [2, 4, 8, 16, 32])
        sweep_iterations = _integer(sweep, "iterations", "sweep", default=3)
        _ensure_empty(sweep, "sweep")
        if not (isinstance(counts, list) and counts):
            raise ConfigurationError("sweep.fringe_counts: must be a non-empty list")
        for v in counts:
            if isinstance(v, bool) or not isinstance(v, int) or not 2 <= v <= 64:
                raise ConfigurationError(
                    f"sweep.fringe_counts: entries must be integers in [2, 64], got {v!r}"
                )
        if sweep_iterations < 2:
            raise ConfigurationError(
                "sweep.iterations: must be >= 2 (first pass is the coarse bootstrap)"
            )
        sweep_counts = [int(v) for v in counts]
    else:
        work.pop("sweep", None)

    perturbation = None
    if kind == "perturbation":
        section = _section(work, "perturbation")
        shift_hz = _number(section, "shift_true_hz", "perturbation")
        n_runs = _integer(section, "n_runs", "perturbation", default=5)
        _ensure_empty(section, "perturbation")
        try:
            perturbation = PerturbationScenario(
                design=design,
                prior=prior,
                shift_true=TWO_PI * shift_hz,
                n_runs=n_runs,
                max_iterations=max(max_iterations, 1),
                charge=charge,
            )
        except (ConfigurationError, DomainError) as exc:
            raise ConfigurationError(f"perturbation: {exc}") from exc
    else:
        work.pop("perturbation", None)

    _ensure_empty(work, "scenario")

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
    try:
        design.system()
        design.ramp_for(prior)
    except (ConfigurationError, DomainError) as exc:
        raise ConfigurationError(f"scenario: derived configuration invalid: {exc}") from exc

    return Scenario(
        name=scenario_name,
        kind=kind,
        tuning=tuning,
        design=design,
        processing=processing,
        prior=prior,
        max_iterations=max_iterations,
        charge=charge,
        seed=seed,
        sweep_fringe_counts=sweep_counts,
        sweep_iterations=sweep_iterations,
        perturbation=perturbation,
        telegraph=telegraph,
        description=description,
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
