"""Five-step interference sequence and trace acquisition.

One sequence: (i) initialize the in-plane mode far from the crossing,
(ii) sweep the voltage to the crossing (leading edge), (iii) wait t_w while
the normal modes beat, (iv) sweep back out (trailing edge), (v) read the
in-plane envelope out of a ringdown and extrapolate the damping away. A
trace samples the return probability on a uniform t_w grid spanning a fixed
number of expected fringes of the prior splitting.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import dynamics, pulse
from .dynamics import SystemParams
from .errors import (
    ConfigurationError,
    TraceError,
    UndefinedVisibilityError,
)
from .model import TuningModel
from .pulse import CorrectionResult, FilterModel, RampSpec

TWO_PI = 2.0 * math.pi

# A trace with more than this fraction of grid points unreadable is rejected.
MAX_MISSING_FRACTION = 0.2

# Fraction of points entering each robust extremum of the visibility.
VISIBILITY_TAIL_FRACTION = 0.05

# Caps on simulated ringdown samples. A grid point's repeats are simulated
# as one (repeats, ringdown_samples) array, 8 MB at the cap; a trace's
# total bounds its run time. Both sit over 10x above every bundled scenario
# (at most 321 points x 30 x 50) and benchmark workload (161 x 200 x 50).
MAX_POINT_SAMPLES = 1_000_000
MAX_TRACE_SAMPLES = 50_000_000


@dataclass(frozen=True)
class RamseyConfig:
    """Everything needed to acquire one trace.

    The ramp is a zero-wait template; each grid point stretches its plateau
    to that point's wait time. `prior` (rad/s) fixes both the grid span
    2*pi*fringes/prior and the sample spacing.
    """

    fringes: int
    samples_per_fringe: int
    prior: float
    ramp: RampSpec
    system: SystemParams
    tuning: TuningModel
    steps_per_period: int = 200
    ringdown_duration: float | None = None
    ringdown_samples: int = dynamics.DEFAULT_RINGDOWN_SAMPLES
    bandwidth_filter: FilterModel | None = None

    def __post_init__(self):
        if self.fringes < 2:
            raise ConfigurationError("need at least 2 expected fringes")
        if self.samples_per_fringe < 2:
            raise ConfigurationError("need at least 2 samples per fringe")
        if self.prior <= 0.0:
            raise ConfigurationError("prior splitting must be positive")

    def wait_grid(self) -> np.ndarray:
        """Uniform t_w grid on [0, 2*pi*fringes/prior], fringes*spf+1 points."""
        t_max = TWO_PI * self.fringes / self.prior
        return np.linspace(0.0, t_max, self.fringes * self.samples_per_fringe + 1)


@dataclass
class RamseyTrace:
    """Acquired return-probability trace with per-repeat detail."""

    t_w: np.ndarray
    p_return: np.ndarray
    p_std: np.ndarray
    per_repeat: np.ndarray = field(repr=False)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.t_w = np.asarray(self.t_w, dtype=float)
        self.p_return = np.asarray(self.p_return, dtype=float)
        self.p_std = np.asarray(self.p_std, dtype=float)

    def __len__(self):
        return len(self.t_w)


def _edge_propagators(config: RamseyConfig):
    """(K_lead, K_trail, edge_time). Identity pair for ideal edges."""
    if config.ramp.kind == "ideal":
        eye = np.eye(2, dtype=complex)
        return eye, eye, 0.0
    n_steps = pulse.plan_edge_steps(
        config.ramp, config.tuning, config.system.omega0_true, config.steps_per_period
    )
    template = config.ramp.with_wait(0.0)
    kmats = []
    for edge in ("leading", "trailing"):
        waveform = pulse.build_edge_waveform(template, config.tuning, edge, n_steps)
        if config.bandwidth_filter is not None:
            waveform = pulse.apply_bandwidth_filter(
                waveform, config.bandwidth_filter, config.tuning
            )
        kmats.append(dynamics.edge_propagator(waveform, config.system))
    return kmats[0], kmats[1], config.ramp.edge_duration


def _measure_points(config: RamseyConfig, t_w_values: np.ndarray, seed: int) -> np.ndarray:
    """Raw extrapolated envelopes, shape (n_points, repeats); NaN = lost readout.

    Every (point, repeat) pair draws from its own seed stream, spawn key
    (point, repeat), so points are independent and the acquisition order
    cannot change any value. A point's repeats are simulated as one batch;
    a point whose shots draw nothing is simulated once.
    """
    k_lead, k_trail, edge_time = _edge_propagators(config)
    params = config.system
    a_cross = k_lead[:, 1]  # the in-plane mode (0, 1) after the leading edge
    out = np.empty((len(t_w_values), params.repeats))
    for i, t_w in enumerate(t_w_values):
        point_seed = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
        kicks, noise = dynamics.draw_shots(point_seed, t_w, params, config.ringdown_samples)
        a = dynamics.crossing_rotations(a_cross, t_w, params, kicks)
        a_ip = k_trail[1, 0] * a[0] + k_trail[1, 1] * a[1]
        # |a|^2 by hypot, which rounds like scalar abs; np.abs on arrays may not.
        envelope = np.minimum(np.hypot(a_ip.real, a_ip.imag) ** 2, 1.0)
        out[i] = dynamics.ringdown_readouts(
            envelope,
            params,
            duration=config.ringdown_duration,
            noise=noise,
            start_time=2.0 * edge_time + t_w,
            n_samples=config.ringdown_samples,
        ).fitted_amplitude
    return out


def acquire_trace(config: RamseyConfig, seed: int) -> RamseyTrace:
    """Measure the full wait-time grid, normalize, and assemble a trace.

    The t_w = 0 point of the same seed batch serves as the normalization
    reference; probabilities are clipped to [0, 1] with the clip count
    recorded in the metadata rather than silently applied. Points whose
    repeats are all lost become gaps; more than 20% gaps raise TraceError.
    """
    grid = config.wait_grid()
    raw = _measure_points(config, grid, seed)
    lost = int(np.count_nonzero(np.isnan(raw)))
    reference = float(np.nanmean(raw[0])) if np.any(np.isfinite(raw[0])) else math.nan
    if not math.isfinite(reference) or reference <= 0.0:
        raise TraceError("t_w = 0 reference point unreadable; cannot normalize")
    prob = raw / reference
    clipped = int(np.sum(prob[np.isfinite(prob)] > 1.0) + np.sum(prob[np.isfinite(prob)] < 0.0))
    prob = np.clip(prob, 0.0, 1.0)
    finite = np.isfinite(prob)
    counts = finite.sum(axis=1)
    point_missing = counts == 0
    if np.mean(point_missing) > MAX_MISSING_FRACTION:
        raise TraceError(
            f"{int(point_missing.sum())} of {len(grid)} points missing "
            f"(> {MAX_MISSING_FRACTION:.0%})"
        )
    filled = np.where(finite, prob, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        p_mean = filled.sum(axis=1) / counts
        dev = np.where(finite, prob - p_mean[:, None], 0.0)
        p_std = np.sqrt((dev**2).sum(axis=1) / np.maximum(counts - 1, 1))
    p_mean[point_missing] = np.nan
    p_std[point_missing] = np.nan
    metadata = {
        "fringes": config.fringes,
        "samples_per_fringe": config.samples_per_fringe,
        "prior_rad_s": config.prior,
        "ramp_kind": config.ramp.kind,
        "correction": [config.ramp.c, config.ramp.d, config.ramp.c_trail, config.ramp.d_trail],
        "repeats": config.system.repeats,
        "seed": int(seed),
        "reference": reference,
        "clipped_values": clipped,
        "missing_points": int(point_missing.sum()),
        "lost_readouts": lost,
    }
    return RamseyTrace(grid, p_mean, p_std, per_repeat=prob, metadata=metadata)


def visibility(trace: RamseyTrace) -> float:
    """Robust fringe visibility (P_max - P_min) / (P_max + P_min).

    Extrema are means of the top and bottom 5% of finite points, which
    tolerates single-point outliers. A trace whose range does not exceed
    three times its mean per-point std is considered flat.
    """
    p = trace.p_return[np.isfinite(trace.p_return)]
    if len(p) < 4:
        raise UndefinedVisibilityError("too few readable points for a visibility")
    std = trace.p_std[np.isfinite(trace.p_return)]
    k = max(1, int(round(VISIBILITY_TAIL_FRACTION * len(p))))
    ordered = np.sort(p)
    p_min = float(ordered[:k].mean())
    p_max = float(ordered[-k:].mean())
    mean_std = float(np.nanmean(std)) if len(std) else 0.0
    if (p_max - p_min) <= 3.0 * mean_std:
        raise UndefinedVisibilityError(
            f"trace range {p_max - p_min:.3g} within noise (3x mean std {3 * mean_std:.3g})"
        )
    return (p_max - p_min) / (p_max + p_min)


@dataclass(frozen=True)
class SequenceDesign:
    """Scenario geometry from which per-prior configurations are derived.

    Holds what an experimenter controls (voltages, ramp family, grid
    density) plus the hidden truth of the simulated system. Edge durations
    follow the sweep-time rule edge_cycles * 2*pi/prior and therefore change
    whenever the prior is updated, as do re-optimized correction
    coefficients.
    """

    tuning: TuningModel
    u_initial: float
    u_readout: float
    omega0_true: float
    gamma: float = 0.0
    dephasing_time: float = math.inf
    noise_std: float = 0.0
    repeats: int = 30
    kind: str = "corrected"
    fringes: int = 4
    samples_per_fringe: int = 10
    edge_cycles: float = 1.0
    steps_per_period: int = 200
    optimizer_steps_per_period: int = 50
    ringdown_duration: float | None = None
    ringdown_samples: int = dynamics.DEFAULT_RINGDOWN_SAMPLES
    bandwidth_filter: FilterModel | None = None

    def __post_init__(self):
        if self.kind not in pulse.RAMP_KINDS:
            raise ConfigurationError(f"ramp kind must be one of {pulse.RAMP_KINDS}")
        if self.edge_cycles <= 0.0:
            raise ConfigurationError("edge_cycles must be positive")
        if self.fringes < 2:
            raise ConfigurationError("fringes must be at least 2")
        if self.samples_per_fringe < 2:
            raise ConfigurationError("samples_per_fringe must be at least 2")
        if self.ringdown_samples < 4:
            raise ConfigurationError("ringdown_samples must be at least 4")
        if self.ringdown_duration is not None and not self.ringdown_duration > 0.0:
            raise ConfigurationError("ringdown_duration must be positive")
        floor = dynamics.MIN_STEPS_PER_PERIOD
        if min(self.steps_per_period, self.optimizer_steps_per_period) < floor:
            raise ConfigurationError(
                f"steps_per_period and optimizer_steps_per_period must be at least {floor}"
            )
        point = self.repeats * self.ringdown_samples
        if point > MAX_POINT_SAMPLES:
            raise ConfigurationError(
                f"repeats x ringdown_samples = {point} exceeds {MAX_POINT_SAMPLES} per grid point"
            )
        trace = (self.fringes * self.samples_per_fringe + 1) * point
        if trace > MAX_TRACE_SAMPLES:
            raise ConfigurationError(
                f"trace of {trace} ringdown samples exceeds {MAX_TRACE_SAMPLES}"
            )
        self.system()  # the derived system must validate too

    def delta0(self) -> float:
        return float(self.tuning.detuning(self.u_initial))

    def system(self) -> SystemParams:
        return SystemParams(
            omega0_true=self.omega0_true,
            delta0=self.delta0(),
            gamma=self.gamma,
            dephasing_time=self.dephasing_time,
            noise_std=self.noise_std,
            repeats=self.repeats,
        )

    def ramp_for(
        self,
        prior: float,
        lead: CorrectionResult | None = None,
        trail: CorrectionResult | None = None,
    ) -> RampSpec:
        """Zero-wait pulse template for the given prior splitting."""
        edge = self.edge_cycles * pulse.edge_duration_for_prior(prior)
        u_final = self.tuning.crossing_voltage(near=self.u_initial)
        return RampSpec(
            t0=0.0,
            ts=edge,
            tf=edge,
            tr=2.0 * edge,
            u_initial=self.u_initial,
            u_final=u_final,
            u_readout=self.u_readout,
            c=lead.c if lead else 0.0,
            d=lead.d if lead else 0.0,
            c_trail=trail.c if trail else 0.0,
            d_trail=trail.d if trail else 0.0,
            kind=self.kind,
        )

    def optimize_edges(self, prior: float) -> tuple[CorrectionResult, CorrectionResult]:
        """Correction pairs for both edges, tuned against the prior-based model."""
        template = self.ramp_for(prior)
        # the system as the experimenter models it: splitting = prior
        assumed = replace(self.system(), omega0_true=prior)
        lead = pulse.optimize_correction(
            assumed, template, self.tuning, "leading",
            steps_per_period=self.optimizer_steps_per_period,
        )
        trail = pulse.optimize_correction(
            assumed, template, self.tuning, "trailing",
            steps_per_period=self.optimizer_steps_per_period,
        )
        return lead, trail

    def config_for(self, prior: float, fringes: int | None = None) -> RamseyConfig:
        """Acquisition config for one prior; re-optimizes corrected edges."""
        lead = trail = None
        if self.kind == "corrected":
            lead, trail = self.optimize_edges(prior)
        return RamseyConfig(
            fringes=self.fringes if fringes is None else fringes,
            samples_per_fringe=self.samples_per_fringe,
            prior=prior,
            ramp=self.ramp_for(prior, lead, trail),
            system=self.system(),
            tuning=self.tuning,
            steps_per_period=self.steps_per_period,
            ringdown_duration=self.ringdown_duration,
            ringdown_samples=self.ringdown_samples,
            bandwidth_filter=self.bandwidth_filter,
        )
