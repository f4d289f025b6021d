"""Spectral splitting estimation and the iterative refinement loop."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import iaspec as ia

from conftest import PRIOR, SEED, TRUTH, TRUTH_HZ, TWO_PI, make_design

TONE_HZ = 40000.0


@pytest.fixture(scope="module")
def tone():
    t = np.linspace(0.0, 4.0 / TONE_HZ, 81)
    return t, 0.5 + 0.5 * np.cos(TWO_PI * TONE_HZ * t)


@pytest.fixture(scope="module")
def offgrid_tone():
    # 4.5 periods: the tone falls between unpadded FFT bins.
    t = np.linspace(0.0, 4.5 / TONE_HZ, 91)
    return t, 0.5 + 0.5 * np.cos(TWO_PI * TONE_HZ * t)


@pytest.fixture(scope="module")
def clean_design(tuning):
    return make_design(tuning, repeats=2)


def sidelobe_ratio(record: ia.EstimateRecord) -> float:
    mag = record.magnitude
    k = record.peak_index
    j = k
    while j + 1 < len(mag) and mag[j + 1] <= mag[j]:
        j += 1
    return float(mag[j:].max() / mag[k]) if j < len(mag) else 0.0


def test_windowing_keeps_the_central_fraction(tone):
    t, y = tone
    record = ia.estimate_peak(t, y)
    # central half of 81 samples is 41, zero-padded 16x before the real FFT
    assert len(record.magnitude) == 16 * 41 // 2 + 1


def test_tone_recovery_within_half_a_padded_bin(tone):
    t, y = tone
    hann = ia.estimate_peak(t, y, ia.ProcessingOptions(window="hann"))
    assert abs(hann.omega_rad_s - TWO_PI * TONE_HZ) / hann.bin_width_rad_s < 0.5
    rect = ia.estimate_peak(
        t, y, ia.ProcessingOptions(window="none", interpolate=False)
    )
    assert abs(rect.omega_rad_s - TWO_PI * TONE_HZ) / rect.bin_width_rad_s < 0.5


def random_tone(fringes, samples_per_fringe, frequency_hz, phase, amplitude, offset):
    """`fringes` periods of a tone, sampled at both ends like a wait grid."""
    t = np.linspace(0.0, fringes / frequency_hz, round(fringes * samples_per_fringe) + 1)
    return t, offset + amplitude * np.cos(TWO_PI * frequency_hz * t + phase)


TONES = dict(
    samples_per_fringe=st.integers(8, 32),
    frequency_hz=st.floats(1e4, 1e5),
    phase=st.floats(0.0, TWO_PI),
    amplitude=st.floats(0.1, 1.0),
    offset=st.floats(-1.0, 1.0),
)
PIPELINES = {"windowed": ia.ProcessingOptions(), "raw": ia.ProcessingOptions(window="none")}


@given(fringes=st.floats(4.0, 16.0), pipeline=st.sampled_from(sorted(PIPELINES)),
       scale=st.floats(1e-2, 1e2), shift=st.floats(-10.0, 10.0),
       noise=st.floats(0.0, 0.2), noise_seed=st.integers(0, 2**32 - 1), **TONES)
def test_estimate_ignores_scale_and_offset(fringes, pipeline, scale, shift, noise, noise_seed,
                                           amplitude, **tone_args):
    t, y = random_tone(fringes, amplitude=amplitude, **tone_args)
    y = y + noise * amplitude * np.random.default_rng(noise_seed).standard_normal(len(y))
    base = ia.estimate_peak(t, y, PIPELINES[pipeline])
    moved = ia.estimate_peak(t, scale * y + shift, PIPELINES[pipeline])
    assert moved.peak_index == base.peak_index
    assert moved.omega_rad_s == pytest.approx(base.omega_rad_s, rel=1e-9, abs=0.0)


# The raw spectrum's peak is pulled by the tone's negative-frequency image:
# at 4 fringes by up to 0.6 padded bins, at 6 by at most 0.42 (scanned over
# phase and sampling), so its property starts at 6 fringes.
@pytest.mark.parametrize("pipeline, min_fringes", [("windowed", 4.0), ("raw", 6.0)])
@given(data=st.data(), **TONES)
def test_random_tone_recovery_within_half_a_padded_bin(pipeline, min_fringes, data,
                                                       frequency_hz, **tone_args):
    fringes = data.draw(st.floats(min_fringes, 16.0), label="fringes")
    t, y = random_tone(fringes, frequency_hz=frequency_hz, **tone_args)
    record = ia.estimate_peak(t, y, PIPELINES[pipeline])
    assert abs(record.omega_rad_s - TWO_PI * frequency_hz) < 0.5 * record.bin_width_rad_s


def test_constant_trace_has_no_peak(tone):
    t, _ = tone
    with pytest.raises(ia.NoPeakError, match="zero-frequency"):
        ia.estimate_peak(t, np.full_like(t, 0.3))


def test_window_suppresses_side_lobes(offgrid_tone):
    t, y = offgrid_tone
    rect = ia.estimate_peak(t, y, ia.ProcessingOptions(window="none"))
    hann = ia.estimate_peak(
        t, y, ia.ProcessingOptions(window="hann", window_fraction=1.0)
    )
    assert sidelobe_ratio(hann) < 0.10 < sidelobe_ratio(rect)


def test_padding_refines_the_grid(offgrid_tone):
    t, y = offgrid_tone
    coarse = ia.estimate_peak(
        t, y, ia.ProcessingOptions(window="none", pad_factor=1, interpolate=False)
    )
    padded = ia.estimate_peak(
        t, y, ia.ProcessingOptions(window="none", pad_factor=16, interpolate=False)
    )
    err_coarse = abs(coarse.omega_rad_s - TWO_PI * TONE_HZ)
    err_padded = abs(padded.omega_rad_s - TWO_PI * TONE_HZ)
    assert err_padded < 0.25 * err_coarse


def test_estimate_invariant_under_scale_and_offset(offgrid_tone):
    t, y = offgrid_tone
    base = ia.estimate_peak(t, y)
    scaled = ia.estimate_peak(t, 2.0 * y + 0.5)
    assert abs(base.omega_rad_s - scaled.omega_rad_s) < 1e-6


def test_estimates_track_the_true_splitting_monotonically(tuning):
    estimates = []
    for rel in (-0.10, -0.05, 0.0, 0.05, 0.10):
        truth = PRIOR * (1.0 + rel)
        design = make_design(tuning, omega0_true=truth)
        trace = ia.acquire_trace(design.config_for(PRIOR), seed=7)
        record = ia.estimate_frequency(trace, ia.ProcessingOptions())
        assert abs(record.omega_rad_s - truth) / record.bin_width_rad_s < 0.5
        estimates.append(record.omega_rad_s)
    assert np.all(np.diff(estimates) > 0.0)


def test_nan_gaps_are_tolerated(offgrid_tone):
    t, y = offgrid_tone
    gappy = y.copy()
    gappy[10] = np.nan
    gappy[40:43] = np.nan
    record = ia.estimate_peak(t, gappy)
    assert abs(record.omega_rad_s - TWO_PI * TONE_HZ) / record.bin_width_rad_s < 0.5


def test_too_few_samples_rejected():
    with pytest.raises(ia.DomainError, match="at least 8 processed samples"):
        ia.estimate_peak(
            np.linspace(0.0, 1e-4, 6), np.full(6, 0.5),
            ia.ProcessingOptions(window="none"),
        )


def test_windowed_estimation_needs_enough_fringes(clean_design):
    trace = ia.acquire_trace(clean_design.config_for(TRUTH, fringes=2), seed=8)
    with pytest.raises(ia.ConfigurationError, match="windowed processing"):
        ia.estimate_frequency(trace, ia.ProcessingOptions(window="hann"))
    record = ia.estimate_frequency(trace, ia.ProcessingOptions(window="none"))
    assert abs(record.frequency_hz - TRUTH_HZ) / TRUTH_HZ < 0.05


def test_noiseless_refinement_converges_immediately(clean_design):
    result = ia.ias_run(clean_design, PRIOR, seed=SEED)
    assert result.converged
    assert result.iterations == 2
    assert abs(result.estimate_hz - TRUTH_HZ) / TRUTH_HZ < 1e-3


def test_first_pass_is_a_coarse_bootstrap(clean_design):
    result = ia.ias_run(clean_design, PRIOR, seed=SEED)
    first = result.records[0]
    assert first.fringes == 2
    assert first.window == "none"
    assert first.trace is not None
    later = result.records[1]
    assert later.fringes == clean_design.fringes
    assert later.window == "hann"


def test_traces_can_be_dropped(clean_design):
    result = ia.ias_run(clean_design, PRIOR, seed=SEED, max_iterations=2,
                        keep_traces=False)
    assert all(r.trace is None for r in result.records)


def test_zero_iterations_returns_the_prior(clean_design):
    result = ia.ias_run(clean_design, PRIOR, seed=1, max_iterations=0)
    assert result.records == []
    assert not result.converged
    assert result.estimate == PRIOR


def test_zero_tolerance_never_converges(clean_design):
    result = ia.ias_run(clean_design, PRIOR, seed=1, max_iterations=3, tolerance=0.0)
    assert result.iterations == 3
    assert not result.converged


def test_run_validation(clean_design):
    with pytest.raises(ia.DomainError):
        ia.ias_run(clean_design, prior=0.0, seed=1)
    with pytest.raises(ia.ConfigurationError):
        ia.ias_run(clean_design, PRIOR, seed=1, max_iterations=-1)
    narrow = make_design(clean_design.tuning, repeats=2, fringes=3)
    with pytest.raises(ia.ConfigurationError, match="windowed passes"):
        ia.ias_run(narrow, PRIOR, seed=1)


def test_sweep_reports_low_counts_as_row_errors(clean_design):
    rows = ia.fringe_sweep(clean_design, PRIOR, [2, 4], seed=SEED, iterations=2)
    low, high = rows
    assert low["fringes"] == 2
    assert low["raw_hz"] > 0.0
    assert low["processed_hz"] is None
    assert "needs >= 4 fringes" in low["processed_error"]
    assert high["processed_hz"] is not None
    assert high["processed_error"] is None
    assert abs(high["processed_hz"] - TRUTH_HZ) / TRUTH_HZ < 0.02


def test_sweep_validation(clean_design):
    with pytest.raises(ia.DomainError, match="empty"):
        ia.fringe_sweep(clean_design, PRIOR, [], seed=1)
    with pytest.raises(ia.DomainError, match=r"\[2, 64\]"):
        ia.fringe_sweep(clean_design, PRIOR, [1, 4], seed=1)
    with pytest.raises(ia.ConfigurationError, match="at least 2 iterations"):
        ia.fringe_sweep(clean_design, PRIOR, [4], seed=1, iterations=1)


def test_iteration_estimates_are_deterministic(clean_design):
    a = ia.ias_run(clean_design, PRIOR, seed=42, max_iterations=2)
    b = ia.ias_run(clean_design, PRIOR, seed=42, max_iterations=2)
    assert a.estimate == b.estimate
    assert [r.estimate for r in a.records] == [r.estimate for r in b.records]
