"""Charge sensing on top of splitting shifts.

A change in trapped charge shifts the minimal splitting; the conversion
chain is shift (Hz) -> volume charge density (C/m^3) -> equivalent number
of elementary charges in the beam volume. The module also carries a table
of published reference points whose quoted values disagree with their own
conversion chain; both numbers are reported side by side with a flag
rather than silently reconciled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, DomainError
from .estimator import ProcessingOptions, child_seed, estimate_frequency, ias_run
from .ramsey import SequenceDesign, acquire_trace

TWO_PI = 2.0 * math.pi

# Elementary charge, C (exact in the SI since 2019).
ELEMENTARY_CHARGE = 1.602176634e-19

# Splitting response to volume charge density, Hz per (C/m^3).
DEFAULT_RESPONSE_HZ_PER_DENSITY = 26.0

# Beam volume: 55 um x 250 nm x 100 nm.
DEFAULT_DIMENSIONS_M = (55e-6, 250e-9, 100e-9)

# Quoted conversions are flagged when they disagree with the chain by more
# than this relative amount.
DISCREPANCY_THRESHOLD = 0.05


@dataclass(frozen=True)
class ChargeModel:
    """Linear splitting-to-charge conversion for one beam geometry."""

    response_hz_per_density: float = DEFAULT_RESPONSE_HZ_PER_DENSITY
    volume_m3: float = math.prod(DEFAULT_DIMENSIONS_M)

    def __post_init__(self):
        if self.response_hz_per_density <= 0.0:
            raise ConfigurationError("response must be positive")
        if self.volume_m3 <= 0.0:
            raise ConfigurationError("volume must be positive")

    @classmethod
    def from_dimensions(cls, length_m: float, width_m: float, thickness_m: float,
                        response_hz_per_density: float = DEFAULT_RESPONSE_HZ_PER_DENSITY):
        if min(length_m, width_m, thickness_m) <= 0.0:
            raise DomainError("all dimensions must be positive")
        return cls(response_hz_per_density, length_m * width_m * thickness_m)

    def shift_to_charge_density(self, shift_hz: float) -> float:
        return shift_hz / self.response_hz_per_density

    def density_to_electrons(self, density: float) -> float:
        return density * self.volume_m3 / ELEMENTARY_CHARGE

    def shift_to_electrons(self, shift_hz: float) -> float:
        return self.density_to_electrons(self.shift_to_charge_density(shift_hz))


def reference_comparison(model: ChargeModel | None = None) -> list[dict]:
    """Published conversion examples recomputed through the chain.

    Each row carries the computed value, the quoted value, their relative
    gap, and a flag when the two disagree beyond 5%. The quoted values are
    reported as-is; no attempt is made to force agreement.
    """
    model = model or ChargeModel()
    cases = [
        {
            "quantity": "charge_density_C_per_m3",
            "input": {"shift_hz": 3435.0},
            "computed": model.shift_to_charge_density(3435.0),
            "quoted": 180.0,
        },
        {
            "quantity": "electron_equivalent",
            "input": {"charge_density_C_per_m3": 180.0},
            "computed": model.density_to_electrons(180.0),
            "quoted": 1400.0,
        },
        {
            "quantity": "electron_equivalent",
            "input": {"charge_density_C_per_m3": 5.65},
            "computed": model.density_to_electrons(5.65),
            "quoted": 43.0,
        },
    ]
    for case in cases:
        gap = abs(case["computed"] - case["quoted"]) / abs(case["quoted"])
        case["relative_gap"] = gap
        case["flagged"] = gap > DISCREPANCY_THRESHOLD
    return cases


@dataclass(frozen=True)
class TelegraphNoise:
    """Two-level random telegraph process in the splitting frequency.

    Symmetric levels +-amplitude/2 with exponentially distributed dwell
    times of mean 1/rate. Disabled instances sample to zero offset.
    """

    rate_hz: float
    amplitude_hz: float
    enabled: bool = False

    def __post_init__(self):
        if self.rate_hz <= 0.0:
            raise ConfigurationError("switching rate must be positive")
        if self.amplitude_hz < 0.0:
            raise ConfigurationError("amplitude must be non-negative")

    def sample(self, times, rng: np.random.Generator) -> np.ndarray:
        """Frequency offsets (Hz) at the given times."""
        times = np.asarray(times, dtype=float)
        if not self.enabled:
            return np.zeros_like(times)
        level = 0.5 * self.amplitude_hz * (1.0 if rng.random() < 0.5 else -1.0)
        horizon = float(times.max()) if len(times) else 0.0
        switch_times = []
        t = 0.0
        while t <= horizon:
            t += rng.exponential(1.0 / self.rate_hz)
            switch_times.append(t)
        flips = np.searchsorted(np.asarray(switch_times), times, side="right")
        return level * np.where(flips % 2 == 0, 1.0, -1.0)


@dataclass(frozen=True)
class PerturbationScenario:
    """A charge step sensed by comparing splitting estimates.

    `design` describes the unperturbed system; `perturbed`, built and
    validated on construction, is the same design with the true splitting
    shifted by `shift_true` (rad/s). `prior` is the initial spectroscopic
    guess fed to the refinement loop.
    """

    design: SequenceDesign
    prior: float
    shift_true: float
    n_runs: int = 5
    max_iterations: int = 6
    charge: ChargeModel = ChargeModel()
    perturbed: SequenceDesign = field(init=False, repr=False)

    def __post_init__(self):
        if self.prior <= 0.0:
            raise DomainError("prior must be positive")
        if self.n_runs < 1:
            raise ConfigurationError("need at least one run per side")
        # the design validates its system, so the shifted splitting must stay valid
        perturbed = replace(self.design, omega0_true=self.design.omega0_true + self.shift_true)
        object.__setattr__(self, "perturbed", perturbed)


def _two_fringe_estimate(design: SequenceDesign, prior: float, seed: int) -> float:
    """Single unwindowed two-fringe pass, the conventional quick measurement."""
    config = design.config_for(prior, fringes=2)
    trace = acquire_trace(config, seed=seed)
    record = estimate_frequency(trace, ProcessingOptions(window="none"))
    return record.omega_rad_s


def run_perturbation_experiment(
    scenario: PerturbationScenario,
    seed: int,
    options: ProcessingOptions = ProcessingOptions(),
) -> dict:
    """Estimate a splitting step and convert it to charge.

    Baseline runs start from the spectroscopic prior; perturbed runs start
    from the baseline mean, mimicking tracking of a step. A conventional
    two-fringe measurement runs alongside for comparison; its shift is
    flagged when it misses the refined shift by more than 5%.
    """
    design, perturbed_design = scenario.design, scenario.perturbed
    sides = {}
    bins = []
    for side_index, (label, side_design, side_prior) in enumerate(
        (("baseline", design, scenario.prior), ("perturbed", perturbed_design, None))
    ):
        estimates = []
        uncertainties = []
        for run in range(scenario.n_runs):
            prior = side_prior if side_prior is not None else sides["baseline"]["mean_rad_s"]
            result = ias_run(
                side_design,
                prior=prior,
                seed=child_seed(seed, side_index, run),
                max_iterations=scenario.max_iterations,
                options=options,
                keep_traces=False,
            )
            estimates.append(result.estimate)
            uncertainties.append(result.uncertainty)
            bins.append(result.records[-1].bin_width)
        estimates = np.asarray(estimates)
        sides[label] = {
            "estimates_hz": [v / TWO_PI for v in estimates],
            "mean_rad_s": float(estimates.mean()),
            "mean_hz": float(estimates.mean() / TWO_PI),
            "std_hz": float(estimates.std(ddof=1) / TWO_PI) if len(estimates) > 1 else 0.0,
            "mean_uncertainty_hz": float(np.mean(uncertainties) / TWO_PI),
        }
    shift = sides["perturbed"]["mean_rad_s"] - sides["baseline"]["mean_rad_s"]
    shift_hz = shift / TWO_PI
    n2_baseline = _two_fringe_estimate(design, scenario.prior, child_seed(seed, 2, 0))
    n2_perturbed = _two_fringe_estimate(
        perturbed_design, n2_baseline, child_seed(seed, 3, 0)
    )
    n2_shift_hz = (n2_perturbed - n2_baseline) / TWO_PI
    flags = []
    true_shift_hz = scenario.shift_true / TWO_PI
    bin_hz = float(np.median(bins)) / TWO_PI
    if abs(shift_hz - true_shift_hz) > bin_hz:
        flags.append(
            f"refined shift {shift_hz:.4g} Hz misses true {true_shift_hz:.4g} Hz "
            f"by more than one padded bin ({bin_hz:.4g} Hz)"
        )
    if true_shift_hz != 0.0 and abs(n2_shift_hz - true_shift_hz) / abs(true_shift_hz) > 0.05:
        flags.append(
            f"two-fringe shift {n2_shift_hz:.4g} Hz deviates more than 5% "
            f"from true {true_shift_hz:.4g} Hz"
        )
    density = scenario.charge.shift_to_charge_density(shift_hz)
    for key in ("mean_rad_s",):
        sides["baseline"].pop(key)
        sides["perturbed"].pop(key)
    return {
        "baseline": sides["baseline"],
        "perturbed": sides["perturbed"],
        "shift_hz": shift_hz,
        "true_shift_hz": true_shift_hz,
        "bin_width_hz": bin_hz,
        "n2_baseline_hz": n2_baseline / TWO_PI,
        "n2_perturbed_hz": n2_perturbed / TWO_PI,
        "n2_shift_hz": n2_shift_hz,
        "charge_density_C_per_m3": density,
        "electron_equivalent": scenario.charge.density_to_electrons(density),
        "flags": flags,
    }
