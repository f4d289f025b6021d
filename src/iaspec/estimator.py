"""Splitting estimation from interference traces.

The splitting appears as a single tone in the return-probability trace.
Estimation is spectral: detrend, optionally taper a central segment to
suppress leakage from the finite observation window, zero-pad, and locate
the dominant interior peak of the magnitude spectrum with sub-bin
refinement. The iterative loop feeds each estimate back as the prior that
sets the next trace's grid span and ramp durations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, DomainError, IasRunError, NoPeakError
from .ramsey import RamseyTrace, SequenceDesign, acquire_trace

TWO_PI = 2.0 * math.pi

WINDOW_FUNCTIONS = {
    "hann": np.hanning,
    "hamming": np.hamming,
    "blackman": np.blackman,
}

# Windowed processing keeps this central fraction of the trace by default,
# which halves the fringe count entering the transform.
DEFAULT_WINDOW_FRACTION = 0.5

DEFAULT_PAD_FACTOR = 16

# Minimum expected fringes for windowed processing: halving must leave >= 2.
MIN_FRINGES_WINDOWED = 4

# Cap on the zero-padded FFT length, pad_factor x trace points: 16 MB of
# complex spectrum, 200x the largest bundled or benchmark trace (321 x 16).
MAX_FFT_LENGTH = 1 << 20


@dataclass(frozen=True)
class ProcessingOptions:
    """Knobs of the spectral pipeline."""

    window: str = "hann"
    window_fraction: float = DEFAULT_WINDOW_FRACTION
    pad_factor: int = DEFAULT_PAD_FACTOR
    interpolate: bool = True

    def __post_init__(self):
        if self.window not in WINDOW_FUNCTIONS and self.window != "none":
            raise ConfigurationError(
                f"window must be 'none' or one of {sorted(WINDOW_FUNCTIONS)}"
            )
        if not 0.0 < self.window_fraction <= 1.0:
            raise ConfigurationError("window_fraction must lie in (0, 1]")
        if self.pad_factor < 1:
            raise ConfigurationError("pad_factor must be >= 1")

    def check_fft_length(self, design: SequenceDesign) -> None:
        """Reject a design whose padded trace FFT would exceed MAX_FFT_LENGTH."""
        points = design.fringes * design.samples_per_fringe + 1
        if self.pad_factor * points > MAX_FFT_LENGTH:
            raise ConfigurationError(
                f"pad_factor x {points} trace points exceeds the FFT cap of {MAX_FFT_LENGTH}"
            )


@dataclass(frozen=True)
class EstimateRecord:
    """One spectral estimate with enough context to judge it."""

    omega_rad_s: float
    frequency_hz: float
    bin_width_rad_s: float
    peak_index: int
    frequency_grid_hz: np.ndarray | None = field(default=None, repr=False, compare=False)
    magnitude: np.ndarray | None = field(default=None, repr=False, compare=False)


def _fill_gaps(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Linear interpolation across NaN gaps; endpoints extend nearest value."""
    mask = np.isfinite(y)
    if mask.all():
        return y
    if mask.sum() < 2:
        raise NoPeakError("fewer than 2 readable samples in trace")
    return np.interp(t, t[mask], y[mask])


def _preprocess(t, y, options: ProcessingOptions = ProcessingOptions()):
    """Detrended, gap-filled, optionally tapered central segment.

    Returns (t_segment, y_processed). With a window the segment is the
    central window_fraction of the input and carries a multiplicative
    taper; without one the full detrended trace passes through.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise DomainError("trace arrays must be 1-d and equally long")
    if len(y) < 4:
        raise DomainError("need at least 4 samples")
    y = _fill_gaps(t, y)
    y = y - y.mean()
    if options.window == "none":
        return t, y
    n = len(y)
    # fraction applies to the spanned duration (n - 1 intervals), so the
    # default keeps an odd-length segment covering exactly half the trace
    length = int(round(options.window_fraction * (n - 1))) + 1
    length = max(4, min(n, length))
    start = (n - length) // 2
    segment = y[start : start + length]
    segment = segment - segment.mean()
    taper = WINDOW_FUNCTIONS[options.window](length)
    return t[start : start + length], segment * taper


def _spectral_peak(y: np.ndarray, dt: float, options: ProcessingOptions):
    """Locate the dominant interior peak.

    Returns (omega, bin_width, k, magnitude_spectrum). The leakage
    skirt around zero frequency is excluded by walking to the first local
    minimum before searching for the maximum.
    """
    nfft = options.pad_factor * len(y)
    magnitude = np.abs(np.fft.rfft(y, n=nfft))
    d_omega = TWO_PI / (nfft * dt)
    if len(magnitude) < 3:
        raise NoPeakError("spectrum too short for an interior peak")
    i0 = 0
    while i0 + 1 < len(magnitude) and magnitude[i0 + 1] <= magnitude[i0]:
        i0 += 1
    search = magnitude[i0:]
    if len(search) < 3:
        raise NoPeakError("no spectral content beyond the zero-frequency lobe")
    k = i0 + int(np.argmax(search))
    if k == 0 or k >= len(magnitude) - 1:
        raise NoPeakError("dominant peak sits on the spectrum boundary")
    if not (magnitude[k] > magnitude[k - 1] and magnitude[k] >= magnitude[k + 1]):
        raise NoPeakError("no strictly local spectral maximum found")
    if magnitude[k] <= 0.0:
        raise NoPeakError("spectrum is identically zero")
    omega = k * d_omega
    if options.interpolate:
        left, center, right = magnitude[k - 1 : k + 2]
        if left > 0.0 and right > 0.0:
            la, lc, lb = math.log(left), math.log(center), math.log(right)
            denom = la - 2.0 * lc + lb
            if denom < 0.0:
                delta = 0.5 * (la - lb) / denom
                omega = (k + delta) * d_omega
    return omega, d_omega, k, magnitude


def estimate_peak(
    t, y, options: ProcessingOptions = ProcessingOptions()
) -> EstimateRecord:
    """Full pipeline on raw arrays: preprocess then pick the spectral peak."""
    t_seg, y_proc = _preprocess(t, y, options)
    if len(y_proc) < 8:
        raise DomainError("need at least 8 processed samples for an estimate")
    dt = float(t_seg[1] - t_seg[0])
    omega, d_omega, k, spectrum = _spectral_peak(y_proc, dt, options)
    nfft = options.pad_factor * len(y_proc)
    return EstimateRecord(
        omega_rad_s=omega,
        frequency_hz=omega / TWO_PI,
        bin_width_rad_s=d_omega,
        peak_index=k,
        frequency_grid_hz=np.fft.rfftfreq(nfft, d=dt),
        magnitude=spectrum,
    )


def estimate_frequency(
    trace: RamseyTrace, options: ProcessingOptions = ProcessingOptions()
) -> EstimateRecord:
    """Estimate the splitting behind a trace's fringes."""
    if options.window != "none":
        fringes = trace.metadata.get("fringes")
        if fringes is not None and fringes < MIN_FRINGES_WINDOWED:
            raise ConfigurationError(
                f"windowed processing needs >= {MIN_FRINGES_WINDOWED} expected fringes"
            )
    return estimate_peak(trace.t_w, trace.p_return, options)


def _per_repeat_estimates(trace: RamseyTrace, options: ProcessingOptions) -> np.ndarray:
    """Independent estimate per repeat column, dropping unusable repeats."""
    values = []
    for column in trace.per_repeat.T:
        if np.isfinite(column).sum() < 4:
            continue
        try:
            record = estimate_peak(trace.t_w, column, options)
        except NoPeakError:
            continue
        values.append(record.omega_rad_s)
    return np.asarray(values)


@dataclass
class IterationRecord:
    """Outcome of one refine step, spectrum snapshot included."""

    iteration: int
    prior: float
    fringes: int
    window: str
    estimate: float
    uncertainty: float
    bin_width: float
    n_repeat_estimates: int
    converged: bool
    record: EstimateRecord | None = field(default=None, repr=False)
    trace: RamseyTrace | None = field(default=None, repr=False)

    def summary(self) -> dict:
        return {
            "iteration": self.iteration,
            "prior_rad_s": self.prior,
            "prior_hz": self.prior / TWO_PI,
            "fringes": self.fringes,
            "window": self.window,
            "estimate_rad_s": self.estimate,
            "estimate_hz": self.estimate / TWO_PI,
            "uncertainty_rad_s": self.uncertainty,
            "uncertainty_hz": self.uncertainty / TWO_PI,
            "bin_width_rad_s": self.bin_width,
            "n_repeat_estimates": self.n_repeat_estimates,
            "converged": self.converged,
        }


@dataclass
class IasResult:
    """Final estimate plus the full iteration history."""

    estimate: float
    uncertainty: float
    converged: bool
    records: list[IterationRecord]

    @property
    def estimate_hz(self) -> float:
        return self.estimate / TWO_PI

    @property
    def iterations(self) -> int:
        return len(self.records)

    def summary(self) -> dict:
        return {
            "estimate_rad_s": self.estimate,
            "estimate_hz": self.estimate_hz,
            "uncertainty_rad_s": self.uncertainty,
            "uncertainty_hz": self.uncertainty / TWO_PI,
            "converged": self.converged,
            "iterations": self.iterations,
            "records": [r.summary() for r in self.records],
        }


def child_seed(seed: int, *key: int) -> int:
    """A run seed derived from `seed` through the spawn key `key`."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


def ias_run(
    design: SequenceDesign,
    prior: float,
    seed: int,
    max_iterations: int = 6,
    tolerance: float | None = None,
    options: ProcessingOptions = ProcessingOptions(),
    keep_traces: bool = True,
) -> IasResult:
    """Iteratively refine a splitting prior until self-consistent.

    The first pass is a deliberately coarse bootstrap: two expected
    fringes, no windowing, so that a badly wrong prior still leaves a
    usable tone. Later passes use the design's fringe count and the full
    processing pipeline, regenerating grid spans, edge durations, and
    correction coefficients from the running prior each time. Convergence
    means the new estimate moved the prior by less than half a padded
    frequency bin (or `tolerance`, if given).
    """
    if prior <= 0.0:
        raise DomainError("prior splitting must be positive")
    if max_iterations < 0:
        raise ConfigurationError("max_iterations must be non-negative")
    if design.fringes < MIN_FRINGES_WINDOWED and options.window != "none":
        raise ConfigurationError(
            f"design must request >= {MIN_FRINGES_WINDOWED} fringes for windowed passes"
        )
    if max_iterations == 0:
        return IasResult(estimate=prior, uncertainty=0.0, converged=False, records=[])
    records: list[IterationRecord] = []
    current = prior
    converged = False
    for m in range(1, max_iterations + 1):
        bootstrap = m == 1
        fringes = 2 if bootstrap else design.fringes
        pass_options = replace(options, window="none") if bootstrap else options
        config = design.config_for(current, fringes=fringes)
        trace = acquire_trace(config, seed=child_seed(seed, m))
        try:
            record = estimate_frequency(trace, pass_options)
        except NoPeakError as exc:
            raise IasRunError(
                f"no fringe peak at iteration {m} (prior {current / TWO_PI:.6g} Hz): {exc}",
                records=records,
            ) from exc
        # The update is driven by the repeat-averaged trace; per-repeat
        # estimates only quantify the single-shot spread.
        estimate = record.omega_rad_s
        repeat_estimates = _per_repeat_estimates(trace, pass_options)
        uncertainty = (
            float(repeat_estimates.std(ddof=1)) if len(repeat_estimates) > 1 else 0.0
        )
        threshold = tolerance if tolerance is not None else 0.5 * record.bin_width_rad_s
        converged = (not bootstrap) and abs(estimate - current) < threshold
        records.append(
            IterationRecord(
                iteration=m,
                prior=current,
                fringes=fringes,
                window=pass_options.window,
                estimate=estimate,
                uncertainty=uncertainty,
                bin_width=record.bin_width_rad_s,
                n_repeat_estimates=len(repeat_estimates),
                converged=converged,
                record=record,
                trace=trace if keep_traces else None,
            )
        )
        current = estimate
        if converged:
            break
    last = records[-1]
    return IasResult(
        estimate=last.estimate,
        uncertainty=last.uncertainty,
        converged=converged,
        records=records,
    )


def fringe_sweep(
    design: SequenceDesign,
    prior: float,
    fringe_counts,
    seed: int,
    iterations: int = 3,
    options: ProcessingOptions = ProcessingOptions(),
) -> list[dict]:
    """Estimate quality versus trace length.

    For each fringe count the refinement loop runs a fixed number of
    iterations (no early stop); its final trace is estimated (a) raw and
    (b) through the processing pipeline where the fringe count allows
    windowing. The last pass already made whichever of the two it ran, so
    only a windowed row estimates its trace once more, raw. Rows report Hz
    and carry a per-row error string instead of failing the whole sweep
    when windowing is impossible.

    At least two iterations are required: the first pass is always the
    coarse two-fringe bootstrap, so a single-iteration sweep would compare
    identical bootstrap traces no matter the requested fringe count.
    """
    if iterations < 2:
        raise ConfigurationError(
            "need at least 2 iterations (the first pass is the coarse bootstrap)"
        )
    fringe_counts = [int(n) for n in fringe_counts]
    if not fringe_counts:
        raise DomainError("fringe count list is empty")
    if any(n < 2 or n > 64 for n in fringe_counts):
        raise DomainError("fringe counts must lie in [2, 64]")
    designs = [replace(design, fringes=n) for n in fringe_counts]  # validates each first
    for design_n in designs:
        options.check_fft_length(design_n)
    raw_options = replace(options, window="none")
    rows = []
    for n, design_n in zip(fringe_counts, designs):
        windowable = n >= MIN_FRINGES_WINDOWED and options.window != "none"
        pass_options = options if windowable else raw_options
        last = ias_run(
            design_n,
            prior=prior,
            seed=child_seed(seed, n),
            max_iterations=iterations,
            tolerance=0.0,
            options=pass_options,
            keep_traces=windowable,
        ).records[-1]
        passed = (last.estimate, last.uncertainty, last.bin_width)
        raw = passed
        if windowable:
            raw_record = estimate_frequency(last.trace, raw_options)
            raw_repeats = _per_repeat_estimates(last.trace, raw_options)
            raw_std = float(raw_repeats.std(ddof=1)) if len(raw_repeats) > 1 else 0.0
            raw = (raw_record.omega_rad_s, raw_std, raw_record.bin_width_rad_s)
        processed = passed if windowable or options.window == "none" else (None,) * 3
        row = {"fringes": n, "iterations": iterations}
        for prefix, values in (("raw", raw), ("processed", processed)):
            for suffix, value in zip(("hz", "std_hz", "bin_hz"), values):
                row[f"{prefix}_{suffix}"] = None if value is None else value / TWO_PI
        row["processed_error"] = None if processed[0] is not None else (
            f"windowed processing needs >= {MIN_FRINGES_WINDOWED} fringes"
        )
        rows.append(row)
    return rows
