"""The five-step measurement sequence and fringe-trace acquisition."""
import math

import numpy as np
import pytest

import iaspec as ia

from conftest import PRIOR, SEED, TRUTH, TRUTH_HZ, make_design


@pytest.fixture(scope="module")
def ideal_trace(ideal_design):
    return ia.acquire_trace(ideal_design.config_for(TRUTH), seed=1)


def synthetic_trace(p_return: np.ndarray, t_w: np.ndarray) -> ia.RamseyTrace:
    return ia.RamseyTrace(
        t_w=t_w,
        p_return=p_return,
        p_std=np.zeros_like(p_return),
        per_repeat=p_return[:, None],
        metadata={},
    )


def test_config_validation(ideal_design):
    with pytest.raises(ia.ConfigurationError, match="at least 2 expected fringes"):
        ideal_design.config_for(TRUTH, fringes=1)
    with pytest.raises(ia.ConfigurationError, match="at least 2 samples per fringe"):
        ia.RamseyConfig(
            fringes=4, samples_per_fringe=1, prior=TRUTH,
            ramp=ideal_design.ramp_for(TRUTH), system=ideal_design.system(),
            tuning=ideal_design.tuning,
        )


def test_initialization_detuning_is_large(ideal_design):
    assert ideal_design.delta0() / TRUTH > 10.0


def test_ideal_trace_follows_the_fringe_law(ideal_trace):
    expected = np.cos(0.5 * TRUTH * ideal_trace.t_w) ** 2
    assert np.max(np.abs(ideal_trace.p_return - expected)) < 1e-12


def test_trace_shape_and_metadata(ideal_trace):
    assert len(ideal_trace) == 41  # 4 fringes x 10 samples + 1
    assert ideal_trace.p_return[0] == pytest.approx(1.0, abs=1e-12)
    assert ideal_trace.metadata["reference"] == pytest.approx(1.0, abs=1e-12)
    assert ideal_trace.metadata["clipped_values"] == 0
    assert ideal_trace.metadata["missing_points"] == 0
    assert ideal_trace.metadata["fringes"] == 4
    assert ideal_trace.metadata["samples_per_fringe"] == 10
    assert ideal_trace.metadata["ramp_kind"] == "ideal"
    assert ideal_trace.metadata["prior_rad_s"] == pytest.approx(TRUTH, rel=1e-12)
    assert np.all(ideal_trace.p_std == 0.0)  # noiseless acquisition
    assert ideal_trace.per_repeat.shape == (41, 1)


def test_low_prior_still_covers_the_requested_fringes(ideal_design):
    config = ideal_design.config_for(0.97 * TRUTH)
    trace = ia.acquire_trace(config, seed=2)
    fringes_spanned = TRUTH_HZ * trace.t_w[-1]
    assert fringes_spanned > config.fringes
    record = ia.estimate_frequency(trace, ia.ProcessingOptions())
    assert abs(record.frequency_hz - TRUTH_HZ) / TRUTH_HZ < 5e-3


def test_half_period_sequence_returns_nothing(ideal_trace):
    # With the prior at the truth, grid index 5 of 4 x 10 samples is t_w = pi/Omega0.
    assert ideal_trace.t_w[5] == pytest.approx(math.pi / TRUTH, rel=1e-12)
    assert ideal_trace.p_return[5] < 1e-12


def test_visibility_of_a_synthetic_fringe():
    t = np.linspace(0.0, 1e-4, 81)
    trace = synthetic_trace(0.5 + 0.25 * np.cos(2 * math.pi * 40000.0 * t), t)
    assert ia.visibility(trace) == pytest.approx(0.5, rel=1e-12)


def test_visibility_undefined_for_flat_or_sparse_traces():
    t = np.linspace(0.0, 1e-4, 81)
    with pytest.raises(ia.UndefinedVisibilityError):
        ia.visibility(synthetic_trace(np.full_like(t, 0.7), t))
    sparse = synthetic_trace(np.array([0.1, np.nan, np.nan, 0.9, np.nan]), t[:5])
    with pytest.raises(ia.UndefinedVisibilityError):
        ia.visibility(sparse)


def test_unreadable_trace_raises(tuning):
    # Overdamped, very noisy readout: most points fail the ringdown fit.
    design = make_design(tuning, gamma=1.6e5, noise_std=0.2, repeats=2)
    with pytest.raises(ia.TraceError, match="missing"):
        ia.acquire_trace(design.config_for(TRUTH), seed=0)


def test_corrected_ramp_preserves_visibility(calibrated_design, corrections):
    lead, trail = corrections
    system = calibrated_design.system()
    ramp_corr = calibrated_design.ramp_for(PRIOR, lead, trail)
    ramp_soft = ia.RampSpec(
        t0=ramp_corr.t0, ts=ramp_corr.ts, tf=ramp_corr.tf, tr=ramp_corr.tr,
        u_initial=ramp_corr.u_initial, u_final=ramp_corr.u_final,
        u_readout=ramp_corr.u_readout, kind="soft",
    )
    config_corr = ia.RamseyConfig(
        fringes=4, samples_per_fringe=10, prior=PRIOR, ramp=ramp_corr,
        system=system, tuning=calibrated_design.tuning,
    )
    config_soft = ia.RamseyConfig(
        fringes=4, samples_per_fringe=10, prior=PRIOR, ramp=ramp_soft,
        system=system, tuning=calibrated_design.tuning,
    )
    vis_corr = ia.visibility(ia.acquire_trace(config_corr, seed=SEED))
    trace_soft = ia.acquire_trace(config_soft, seed=SEED)
    try:
        vis_soft = ia.visibility(trace_soft)
    except ia.UndefinedVisibilityError:
        vis_soft = 0.0
    assert vis_corr > 0.5
    assert vis_soft < 0.2
    assert vis_corr > vis_soft


def test_trace_csv_and_sidecar(ideal_trace, tmp_path):
    csv_path = tmp_path / "trace.csv"
    ideal_trace.to_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t_w_s,p_return,p_std"
    assert len(lines) == 1 + len(ideal_trace)
    sidecar = tmp_path / "trace.json"
    ideal_trace.write_sidecar(sidecar)
    import json

    meta = json.loads(sidecar.read_text())
    assert meta["fringes"] == 4
    assert meta["ramp_kind"] == "ideal"


def test_per_shot_noise_populates_p_std(tuning):
    design = make_design(tuning, noise_std=0.05, repeats=8)
    trace = ia.acquire_trace(design.config_for(TRUTH), seed=5)
    assert trace.per_repeat.shape == (41, 8)
    assert np.nanmax(trace.p_std) > 0.0
    assert trace.metadata["repeats"] == 8
