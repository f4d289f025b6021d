"""Voltage pulse construction: ramp shapes, waveform sampling, hardware filter.

The five-step sequence is driven by a trapezoid-like voltage pulse whose
edges are half-cosine ("soft") ramps, optionally augmented with a
first-harmonic correction that cancels the leading non-adiabatic error of
the sweep. Correction coefficients are found by direct numerical
minimization of the end-of-edge leakage, not analytically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DomainError
from .model import TuningModel

TWO_PI = 2.0 * math.pi

# Time-alignment tolerance for the equal-edge-duration invariant (relative).
_EDGE_TOL = 1e-9

RAMP_KINDS = ("soft", "corrected", "ideal")

# Minimum waveform samples per period of the highest correction harmonic.
MIN_SAMPLES_PER_HARMONIC = 50

# Coefficient search box for the correction optimizer, and the points per
# axis of the coarse grid that seeds its refinement.
CORRECTION_BOUND = 1.0
CORRECTION_GRID_POINTS = 5

# Cap on the integration steps one edge may plan, checked against
# `edge_steps_bound` before a scenario runs. The edge kernel holds about
# 0.15 kB per step, 72 MB at the cap; bundled scenarios plan about 2.6e3
# steps per edge and bound 1.6e4.
MAX_EDGE_STEPS = 500_000

# Cap on the samples of one `build_sequence_waveform` pulse, checked before
# any is allocated: 24 MB for its three arrays. show-pulse samples each
# edge duration 2000 times and writes 7001 samples by default.
MAX_WAVEFORM_SAMPLES = 1_000_000

# Above this end-of-edge infidelity the optimizer result carries a warning.
STAGNATION_INFIDELITY = 0.2


@dataclass(frozen=True)
class RampSpec:
    """Timing, voltage levels and shape coefficients of one pulse.

    Time layout: leading edge on [t0, ts], wait plateau on [ts, tf],
    trailing edge on [tf, tr]; both edges last equally long. u_initial is
    held before t0, u_final during the plateau, u_readout after tr.

    c, d are the first-harmonic correction coefficients of the leading edge;
    c_trail, d_trail the independent pair of the trailing edge. kind 'soft'
    ignores all four, 'ideal' marks an edge treated as an exact identity in
    the sequence simulation (no waveform exists for it).
    """

    t0: float
    ts: float
    tf: float
    tr: float
    u_initial: float
    u_final: float
    u_readout: float
    c: float = 0.0
    d: float = 0.0
    c_trail: float = 0.0
    d_trail: float = 0.0
    kind: str = "soft"

    def __post_init__(self):
        if self.kind not in RAMP_KINDS:
            raise ConfigurationError(f"ramp kind must be one of {RAMP_KINDS}, got {self.kind!r}")
        if not (self.t0 < self.ts <= self.tf < self.tr):
            raise ConfigurationError("ramp times must satisfy t0 < ts <= tf < tr")
        lead, trail = self.ts - self.t0, self.tr - self.tf
        if abs(lead - trail) > _EDGE_TOL * max(lead, trail):
            raise ConfigurationError("leading and trailing edges must last equally long")
        if self.u_final == self.u_initial:
            raise ConfigurationError("u_final must differ from u_initial")
        if self.u_final == self.u_readout:
            raise ConfigurationError("u_final must differ from u_readout")

    @property
    def edge_duration(self) -> float:
        return self.ts - self.t0

    def edge_span(self, edge: str) -> tuple[float, float, float, float]:
        """(start time, end time, start voltage, end voltage) of one edge."""
        if edge == "leading":
            return self.t0, self.ts, self.u_initial, self.u_final
        if edge == "trailing":
            return self.tf, self.tr, self.u_final, self.u_readout
        raise ConfigurationError(f"edge must be 'leading' or 'trailing', got {edge!r}")

    def edge_coefficients(self, edge: str) -> tuple[float, float]:
        """Correction pair (c, d) that shapes one edge.

        Only a corrected ramp uses its own coefficients; soft and ideal
        ramps shape with zero coefficients.
        """
        if self.kind != "corrected":
            return 0.0, 0.0
        return (self.c, self.d) if edge == "leading" else (self.c_trail, self.d_trail)

    def with_wait(self, t_w: float) -> "RampSpec":
        """Same pulse with the plateau stretched to wait time t_w >= 0."""
        if t_w < 0.0:
            raise DomainError("wait time must be non-negative")
        tf = self.ts + t_w
        return replace(self, tf=tf, tr=tf + self.edge_duration)


def edge_duration_for_prior(prior: float) -> float:
    """Edge duration from the sweep-time rule, seconds.

    The conventionally quoted sweep time is half an exchange period,
    ts = pi/prior; the edge spans twice that, so its soft half-cosine
    component sits at prior/(4*pi) Hz and the correction harmonic at twice
    that, both well inside a 100 kHz line bandwidth for ~40 kHz splittings.
    """
    if prior <= 0.0:
        raise DomainError("prior splitting must be positive")
    return TWO_PI / prior


def edge_shape(x, c: float = 0.0, d: float = 0.0):
    """Normalized edge shape at edge phase x in [0, 1].

    g(x) = (1 - cos(pi x)) / 2 + c (1 - cos(2 pi x)) + d sin(2 pi x): a soft
    half-cosine plus the first-harmonic correction (c, d). Both correction
    terms vanish at x = 0 and x = 1, so g runs 0 -> 1 for any (c, d) and the
    plateau levels never move.
    """
    x = np.asarray(x, dtype=float)
    # Double angles from one cos/sin pair: 1 - cos 2 pi x = 2 sin^2 pi x and
    # sin 2 pi x = 2 sin pi x cos pi x.
    cos, sin = np.cos(math.pi * x), np.sin(math.pi * x)
    return 0.5 * (1.0 - cos) + 2.0 * sin * (c * sin + d * cos)


def _edge_voltage(spec: RampSpec, edge: str, t) -> np.ndarray:
    """Shaped voltage of one edge at times t, clamped to the edge's span."""
    start, end, u_start, u_end = spec.edge_span(edge)
    x = np.clip((t - start) / (end - start), 0.0, 1.0)
    return u_start + (u_end - u_start) * edge_shape(x, *spec.edge_coefficients(edge))


@dataclass
class PulseWaveform:
    """Uniformly sampled voltage and detuning of one pulse segment."""

    time: np.ndarray
    voltage: np.ndarray
    detuning: np.ndarray
    sample_period: float

    def __post_init__(self):
        self.time = np.asarray(self.time, dtype=float)
        self.voltage = np.asarray(self.voltage, dtype=float)
        self.detuning = np.asarray(self.detuning, dtype=float)
        n = len(self.time)
        if n < 3 or len(self.voltage) != n or len(self.detuning) != n:
            raise ConfigurationError("waveform arrays must share a length of at least 3")
        steps = np.diff(self.time)
        if np.any(np.abs(steps - self.sample_period) > 1e-9 * self.sample_period):
            raise ConfigurationError("waveform must be uniformly sampled")


def build_edge_waveform(spec: RampSpec, tuning: TuningModel, edge: str, n_steps: int) -> PulseWaveform:
    """Sample one edge at 2*n_steps+1 points (integration midpoints included).

    The voltage follows the ramp shape; the detuning is the tuning model
    evaluated along it.
    """
    if spec.kind == "ideal":
        raise ConfigurationError("an ideal edge has no waveform")
    if n_steps < 1:
        raise ConfigurationError("need at least one integration step per edge")
    n_samples = 2 * n_steps + 1
    # The correction harmonic completes one cycle per edge, so >= 50 samples
    # per edge keeps the sample rate at 50x that harmonic.
    if n_samples - 1 < MIN_SAMPLES_PER_HARMONIC:
        raise ConfigurationError("waveform sample rate below 50x the correction harmonic")
    start, end, u_start, u_end = spec.edge_span(edge)
    t = np.linspace(start, end, n_samples)
    u = _edge_voltage(spec, edge, t)
    # Trig at the endpoints is analytically exact; remove rounding so the
    # plateau-match invariant holds bit-for-bit.
    u[0], u[-1] = u_start, u_end
    # Not t[1] - t[0]: late in the pulse that difference loses digits, and
    # the integrator scales every step by the sample period.
    return PulseWaveform(t, u, tuning.detuning(u), sample_period=(end - start) / (n_samples - 1))


def _peak_detuning_sq(spec: RampSpec, tuning: TuningModel, edge: str) -> float:
    """Largest squared detuning along one shaped edge, from a 257-sample probe."""
    probe = build_edge_waveform(spec, tuning, edge, 128)
    return float(np.max(probe.detuning**2))


def plan_edge_steps(
    spec: RampSpec, tuning: TuningModel, omega0: float, steps_per_period: int = 200,
    peaks_sq: dict[str, float] | None = None,
) -> int:
    """Integration step count giving >= steps_per_period per shortest period.

    The shortest dynamical period is 2*pi over the largest instantaneous
    generalized precession rate sqrt(Delta^2 + omega0^2). Correction
    harmonics can push the voltage outside the endpoint interval, so the
    probe samples the actual shaped edges, with a small margin absorbing
    the probe's own discretization.

    The plan covers both edges; `peaks_sq` maps an already probed edge to
    its peak squared detuning, so that edge is not probed again.
    """
    peaks_sq = peaks_sq or {}
    delta_sq_max = max(
        peaks_sq[edge] if edge in peaks_sq else _peak_detuning_sq(spec, tuning, edge)
        for edge in ("leading", "trailing")
    )
    n = int(math.ceil(_edge_steps(spec, delta_sq_max, omega0, steps_per_period)))
    return max(n, MIN_SAMPLES_PER_HARMONIC)


def _edge_steps(spec: RampSpec, delta_sq_max: float, omega0: float, steps_per_period) -> float:
    w_max = math.sqrt(delta_sq_max + omega0**2)
    t_min = TWO_PI / w_max
    return 1.05 * spec.edge_duration / t_min * steps_per_period


def edge_steps_bound(spec: RampSpec, tuning: TuningModel, steps_per_period: int) -> float:
    """Closed-form bound on `plan_edge_steps` over every correction the search may try.

    A correction term c (1 - cos 2 pi x) + d sin 2 pi x stays within 3 B for
    |c|, |d| <= B = CORRECTION_BOUND, so each edge's voltage stays within its
    span widened by 3 B spans at both ends. The detuning is quadratic in the
    voltage, so its peak there sits at an end or at the shared tuning center
    (which a ramp's crossing voltage requires). A valid system's splitting
    is at most 1/MIN_DETUNING_RATIO of the initial detuning, which lies on
    the leading edge.
    """
    from .dynamics import MIN_DETUNING_RATIO

    widen, peaks_sq = 3.0 * CORRECTION_BOUND, []
    for edge in ("leading", "trailing"):
        _, _, u_start, u_end = spec.edge_span(edge)
        lo, hi = sorted((u_start - widen * (u_end - u_start), u_end + widen * (u_end - u_start)))
        # Scalar detunings and their products overflow to inf, not to a warning.
        for u in (lo, hi, min(max(tuning.oop.center_voltage, lo), hi)):
            delta = tuning.detuning(u)
            peaks_sq.append(delta * delta)
    if not all(math.isfinite(2.0 * p) for p in peaks_sq):  # w_max itself would overflow
        return math.inf
    peak_sq = max(peaks_sq)
    return _edge_steps(spec, peak_sq, math.sqrt(peak_sq) / MIN_DETUNING_RATIO, steps_per_period)


def build_sequence_waveform(
    spec: RampSpec, tuning: TuningModel, sample_period: float, margin: float = 0.0
) -> PulseWaveform:
    """Full pulse U(t) including plateaus, for inspection and export."""
    if sample_period <= 0.0:
        raise ConfigurationError("sample period must be positive")
    start, stop = spec.t0 - margin, spec.tr + margin + 0.5 * sample_period
    # np.arange makes ceil((stop - start) / step) samples.
    if not (stop - start) / sample_period <= MAX_WAVEFORM_SAMPLES:
        raise ConfigurationError(f"pulse waveform would exceed {MAX_WAVEFORM_SAMPLES} samples")
    t = np.arange(start, stop, sample_period)
    u = np.select(
        [t <= spec.t0, t < spec.ts, t <= spec.tf, t < spec.tr],
        [
            spec.u_initial,
            _edge_voltage(spec, "leading", t),
            spec.u_final,
            _edge_voltage(spec, "trailing", t),
        ],
        spec.u_readout,
    )
    return PulseWaveform(t, u, tuning.detuning(u), sample_period=sample_period)


@dataclass(frozen=True)
class FilterModel:
    """First-order low-pass line model applied to the programmed voltage.

    passband_gain_db is the flat insertion loss, corner_hz the -3 dB point
    (relative to the passband). Off by default in every scenario.
    """

    passband_gain_db: float = -0.4
    corner_hz: float = 1.0e5

    def __post_init__(self):
        if self.corner_hz <= 0.0:
            raise ConfigurationError("filter corner frequency must be positive")

    @property
    def passband_gain(self) -> float:
        return 10.0 ** (self.passband_gain_db / 20.0)


def filter_signal(values, sample_period: float, filt: FilterModel) -> np.ndarray:
    """Run one signal through the first-order low pass, time domain.

    The filter starts in steady state with the first sample, so a constant
    input maps to gain*input exactly from sample 0. Linear by construction.
    """
    from scipy.signal import lfilter

    x = np.asarray(values, dtype=float)
    alpha = 1.0 - math.exp(-TWO_PI * filt.corner_hz * sample_period)
    g = filt.passband_gain
    zi = np.array([(1.0 - alpha) * g * x[0]])
    y, _ = lfilter([alpha * g], [1.0, -(1.0 - alpha)], x, zi=zi)
    return y


def apply_bandwidth_filter(
    waveform: PulseWaveform, filt: FilterModel, tuning: TuningModel
) -> PulseWaveform:
    """Filter the voltage channel and re-derive the detuning from it."""
    voltage = filter_signal(waveform.voltage, waveform.sample_period, filt)
    return PulseWaveform(waveform.time, voltage, tuning.detuning(voltage), waveform.sample_period)


@dataclass(frozen=True)
class CorrectionResult:
    """Output of the correction-coefficient search for one edge."""

    c: float
    d: float
    infidelity: float
    soft_infidelity: float
    warning: str | None = None


def edge_infidelity(
    system,
    spec: RampSpec,
    tuning: TuningModel,
    edge: str,
    steps_per_period: int = 200,
    peaks_sq: dict[str, float] | None = None,
) -> float:
    """Leakage 1 - |<target|U_edge|start>|^2 of one edge, damping off.

    Start and target are both the in-plane mode: a perfect edge acts as an
    identity on the mode basis (up to phases), which is what preserves the
    sensing superposition at the crossing. `peaks_sq` goes to `plan_edge_steps`.
    """
    from . import dynamics

    # step count planned per call: large correction harmonics raise the peak
    # detuning and with it the integration-rate floor
    n_steps = plan_edge_steps(spec, tuning, system.omega0_true, steps_per_period, peaks_sq)
    waveform = build_edge_waveform(spec, tuning, edge, n_steps)
    lossless = replace(system, gamma=0.0)
    kmat = dynamics.edge_propagator(waveform, lossless)
    amp_ip = kmat[1, 1]  # start (0,1), project back on (0,1)
    return float(1.0 - abs(amp_ip) ** 2)


def optimize_correction(
    system,
    spec: RampSpec,
    tuning: TuningModel,
    edge: str,
    steps_per_period: int = 50,
) -> CorrectionResult:
    """Find first-harmonic coefficients minimizing end-of-edge leakage.

    A coarse grid, CORRECTION_GRID_POINTS per axis over the box |c|, |d| <= 1,
    seeds a Nelder-Mead refinement; the soft ramp (0, 0) is always among the
    candidates, so the optimized edge never does worse than the soft one.
    Results above infidelity 0.2 carry a warning (value still returned).

    The objective is evaluated against the splitting stored in `system`:
    pass the current prior-based parameters, not the hidden truth, to mimic
    calibrating against one's best knowledge.
    """
    from scipy.optimize import minimize

    base = replace(spec, kind="corrected")
    # Only `edge` changes shape during the search: probe the other edge once.
    fixed = "trailing" if edge == "leading" else "leading"
    fixed_peak_sq = {fixed: _peak_detuning_sq(base, tuning, fixed)}

    def infidelity(cd) -> float:
        c, d = cd
        if abs(c) > CORRECTION_BOUND or abs(d) > CORRECTION_BOUND:
            return 1.0 + (abs(c) + abs(d))
        if edge == "leading":
            trial = replace(base, c=c, d=d)
        else:
            trial = replace(base, c_trail=c, d_trail=d)
        return edge_infidelity(system, trial, tuning, edge, steps_per_period, fixed_peak_sq)

    grid = np.linspace(-CORRECTION_BOUND, CORRECTION_BOUND, CORRECTION_GRID_POINTS)
    if 0.0 not in grid:
        grid = np.sort(np.append(grid, 0.0))
    soft_inf = infidelity((0.0, 0.0))
    best_cd, best_val = (0.0, 0.0), soft_inf
    for c in grid:
        for d in grid:
            val = infidelity((c, d))
            if val < best_val:
                best_cd, best_val = (float(c), float(d)), val

    result = minimize(
        infidelity,
        np.array(best_cd),
        method="Nelder-Mead",
        options={"xatol": 1e-6, "fatol": 1e-12, "maxiter": 600},
    )
    if result.fun <= best_val:
        best_cd, best_val = (float(result.x[0]), float(result.x[1])), float(result.fun)

    warning = None
    if best_val > STAGNATION_INFIDELITY:
        warning = (
            f"correction search stagnated at infidelity {best_val:.3g}; "
            "edge remains strongly non-adiabatic"
        )
    return CorrectionResult(
        c=best_cd[0],
        d=best_cd[1],
        infidelity=best_val,
        soft_infidelity=soft_inf,
        warning=warning,
    )
