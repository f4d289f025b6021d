"""The five-step measurement sequence and fringe-trace acquisition."""
import json
import math

import numpy as np
import pytest

import iaspec as ia
from iaspec.cli import main
from iaspec.ramsey import _edge_propagators

from conftest import PRIOR, SEED, TRUTH, TRUTH_HZ, make_design, write_scenario


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


def test_edge_propagators_apply_the_bandwidth_filter(tuning):
    filt = ia.FilterModel()
    config = make_design(tuning, kind="soft", bandwidth_filter=filt).config_for(PRIOR)
    k_lead, k_trail, _ = _edge_propagators(config)
    n_steps = ia.plan_edge_steps(
        config.ramp, tuning, config.system.omega0_true, config.steps_per_period
    )
    for edge, kmat in (("leading", k_lead), ("trailing", k_trail)):
        waveform = ia.build_edge_waveform(config.ramp, tuning, edge, n_steps)
        filtered = ia.apply_bandwidth_filter(waveform, filt, tuning)
        np.testing.assert_array_equal(kmat, ia.edge_propagator(filtered, config.system))
        unfiltered = ia.edge_propagator(waveform, config.system)
        assert np.max(np.abs(kmat - unfiltered)) > 1e-3


def test_trace_csv_and_sidecar(tmp_path):
    out = tmp_path / "out"
    assert main(["run-ias", str(write_scenario(tmp_path)), "--out", str(out)]) == 0
    # Each iteration's trace CSV holds the samples its sidecar describes.
    for stem in ("iteration_01", "iteration_02"):
        lines = (out / f"{stem}_trace.csv").read_text().splitlines()
        meta = json.loads((out / f"{stem}_trace.json").read_text())
        assert lines[0] == "t_w_s,p_return,p_std"
        assert len(lines) == 1 + meta["fringes"] * meta["samples_per_fringe"] + 1
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert rows[0, 0] == 0.0 and np.all(np.diff(rows[:, 0]) > 0)
        assert np.all((rows[:, 1] >= 0.0) & (rows[:, 1] <= 1.0))
    assert meta["fringes"] == 4
    assert meta["ramp_kind"] == "ideal"


def test_per_shot_noise_populates_p_std(tuning):
    design = make_design(tuning, noise_std=0.05, repeats=8)
    trace = ia.acquire_trace(design.config_for(TRUTH), seed=5)
    assert trace.per_repeat.shape == (41, 8)
    assert np.nanmax(trace.p_std) > 0.0
    assert trace.metadata["repeats"] == 8


def reference_ringdown(amplitude, params, duration, rng, start_time, n_samples):
    """One readout fitted sample by sample; NaN when lost."""
    tau = 1.0 / params.gamma if params.gamma > 0.0 else math.inf
    if duration is None:
        duration = tau if math.isfinite(tau) else 1e-3
    t_local = np.linspace(0.0, duration, n_samples)
    decay = np.exp(-t_local / tau) if math.isfinite(tau) else np.ones_like(t_local)
    signal = amplitude * decay
    sigma = params.noise_std
    if sigma > 0.0:
        signal = signal + rng.normal(0.0, sigma, size=signal.shape)
    mask = signal > 3.0 * sigma
    if np.count_nonzero(mask) < 2:
        if sigma == 0.0:
            return amplitude * (math.exp(start_time / tau) if math.isfinite(tau) else 1.0)
        return math.nan
    t_fit = (start_time + t_local)[mask]
    y_fit = np.log(signal[mask])
    t_mean, y_mean = t_fit.mean(), y_fit.mean()
    denom = float(np.sum((t_fit - t_mean) ** 2))
    if denom == 0.0:
        return math.nan
    slope = float(np.sum((t_fit - t_mean) * (y_fit - y_mean))) / denom
    return math.exp(y_mean - slope * t_mean)


def reference_measure_points(config, t_w_values, seed):
    """The shot loop one (point, repeat) at a time, with scalar physics."""
    k_lead, k_trail, edge_time = ia.ramsey._edge_propagators(config)
    params = config.system
    a_cross = k_lead @ np.array([0.0, 1.0], dtype=complex)
    out = np.full((len(t_w_values), params.repeats), np.nan)
    for i, t_w in enumerate(t_w_values):
        for r in range(params.repeats):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i, r)))
            chi = params.omega0_true * t_w
            if math.isfinite(params.dephasing_time) and t_w > 0.0:
                chi += rng.normal(0.0, math.sqrt(2.0 * t_w / params.dephasing_time))
            cos, sin = math.cos(0.5 * chi), math.sin(0.5 * chi)
            a = math.exp(-0.5 * params.gamma * t_w) * np.array(
                [cos * a_cross[0] - 1.0j * sin * a_cross[1],
                 cos * a_cross[1] - 1.0j * sin * a_cross[0]]
            )
            envelope = min(abs((k_trail @ a)[1]) ** 2, 1.0)
            out[i, r] = reference_ringdown(
                envelope, params, config.ringdown_duration, rng,
                2.0 * edge_time + t_w, config.ringdown_samples,
            )
    return out


@pytest.mark.parametrize(
    "overrides",
    [
        dict(gamma=1.6e4, noise_std=0.05, repeats=6),
        dict(gamma=150.0, noise_std=0.025, dephasing_time=5e-5, repeats=5),
        dict(gamma=150.0, dephasing_time=5e-5, repeats=4),
        dict(gamma=150.0, repeats=3, ringdown_duration=3000.0 / 150.0, ringdown_samples=4),
        dict(noise_std=0.02, repeats=4),
        dict(gamma=150.0, noise_std=0.02, repeats=4, ringdown_duration=2e-3,
             ringdown_samples=17),
        dict(gamma=150.0, noise_std=0.025, repeats=1),
        dict(gamma=150.0, noise_std=0.025, repeats=8, kind="soft"),
    ],
    ids=["lossy_noise", "dephasing_noise", "dephasing_only", "noiseless_underflow",
         "gamma_0", "explicit_duration", "one_repeat", "soft_edges"],
)
def test_batched_shots_match_the_per_shot_reference(tuning, overrides):
    config = make_design(tuning, **overrides).config_for(PRIOR)
    grid = config.wait_grid()
    batched = ia.ramsey._measure_points(config, grid, 77)
    reference = reference_measure_points(config, grid, 77)
    np.testing.assert_allclose(batched, reference, rtol=1e-12, atol=0.0)


def test_noiseless_readouts_of_zero_amplitude_take_the_analytic_value():
    params = ia.SystemParams(omega0_true=TRUTH, delta0=20 * TRUTH, gamma=150.0)
    amplitudes = np.array([0.0, 0.3, 0.0, 1.0])
    batch = ia.ringdown_readouts(amplitudes, params, start_time=1e-4)
    reference = [reference_ringdown(a, params, None, None, 1e-4, 50) for a in amplitudes]
    np.testing.assert_allclose(batch.fitted_amplitude, reference, rtol=1e-12, atol=0.0)
    assert batch.fitted_amplitude[0] == 0.0


def test_one_shot_readout_equals_its_batched_row():
    params = ia.SystemParams(omega0_true=TRUTH, delta0=20 * TRUTH, gamma=1.6e4,
                             noise_std=0.05, repeats=12)
    point_seed = np.random.SeedSequence(entropy=3, spawn_key=(5,))
    kicks, noise = ia.draw_shots(point_seed, 1e-5, params, 50)
    assert kicks is None
    amplitudes = np.linspace(0.0, 1.0, params.repeats)
    batch = ia.ringdown_readouts(amplitudes, params, noise=noise, start_time=1e-4)
    assert np.isnan(batch.fitted_amplitude).any()
    for r, amplitude in enumerate(amplitudes):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=3, spawn_key=(5, r)))
        try:
            value = ia.simulate_ringdown(amplitude, params, rng=rng, start_time=1e-4)
        except ia.ReadoutError:
            assert math.isnan(batch.fitted_amplitude[r])
            continue
        assert value.fitted_amplitude == batch.fitted_amplitude[r]
        assert value.fitted_tau == batch.fitted_tau[r]
        assert value.n_used == batch.n_used[r]


def test_lost_readouts_are_counted_in_the_metadata(tuning):
    design = make_design(tuning, gamma=1.6e4, noise_std=0.05, repeats=6)
    trace = ia.acquire_trace(design.config_for(PRIOR), seed=77)
    lost = int(np.isnan(trace.per_repeat).sum())
    assert lost > 0
    assert trace.metadata["lost_readouts"] == lost
