"""Ramp shapes, waveform assembly, edge corrections, and the line filter."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import iaspec as ia
from iaspec.cli import main
from iaspec.pulse import edge_steps_bound

from conftest import PRIOR, TRUTH, TWO_PI, make_design, write_scenario


@pytest.fixture(scope="module")
def soft_design(tuning):
    return make_design(tuning, kind="soft")


@pytest.fixture(scope="module")
def soft_ramp_spec(soft_design):
    return soft_design.ramp_for(PRIOR)


def test_ramp_spec_rejects_bad_time_order():
    with pytest.raises(ia.ConfigurationError, match="t0 < ts <= tf < tr"):
        ia.RampSpec(t0=0.0, ts=-1e-6, tf=1e-5, tr=2e-5,
                    u_initial=-11.5, u_final=-8.0, u_readout=-11.2)
    with pytest.raises(ia.ConfigurationError, match="t0 < ts <= tf < tr"):
        ia.RampSpec(t0=0.0, ts=1e-5, tf=5e-6, tr=2e-5,
                    u_initial=-11.5, u_final=-8.0, u_readout=-11.2)


def test_ramp_spec_requires_equal_edges():
    with pytest.raises(ia.ConfigurationError, match="equally long"):
        ia.RampSpec(t0=0.0, ts=1e-5, tf=2e-5, tr=2.5e-5,
                    u_initial=-11.5, u_final=-8.0, u_readout=-11.2)


def test_edge_duration_is_one_prior_period():
    assert ia.edge_duration_for_prior(PRIOR) == pytest.approx(
        TWO_PI / PRIOR, rel=1e-14
    )


def test_soft_edge_hits_endpoints_and_is_monotone():
    g = ia.edge_shape(np.linspace(0.0, 1.0, 501))  # 0 at the start, 1 at the end
    assert g[0] == pytest.approx(0.0, abs=1e-12)
    assert g[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(g) >= -1e-12)


def test_corrected_ramp_reduces_to_soft_at_zero_coefficients(soft_ramp_spec, tuning):
    zero = replace(soft_ramp_spec, kind="corrected")
    # A soft ramp ignores its coefficients; a corrected one uses them.
    shaped = replace(soft_ramp_spec, c=0.3, d=-0.2, c_trail=0.1, d_trail=0.4)
    for edge in ("leading", "trailing"):
        soft = ia.build_edge_waveform(soft_ramp_spec, tuning, edge, 150).voltage
        assert np.array_equal(ia.build_edge_waveform(zero, tuning, edge, 150).voltage, soft)
        assert np.array_equal(ia.build_edge_waveform(shaped, tuning, edge, 150).voltage, soft)
        corrected = replace(shaped, kind="corrected")
        assert not np.array_equal(
            ia.build_edge_waveform(corrected, tuning, edge, 150).voltage, soft
        )


@given(
    c=st.floats(-1.0, 1.0, allow_nan=False),
    d=st.floats(-1.0, 1.0, allow_nan=False),
)
def test_corrected_edges_pin_endpoints_for_any_coefficients(c, d):
    # The harmonic corrections vanish at both ends, so the shape always
    # runs 0 -> 1 whatever the coefficients (at x = 1 up to the rounding
    # of sin(2 pi) in floating point).
    assert ia.edge_shape(0.0, c, d) == 0.0
    assert ia.edge_shape(1.0, c, d) == pytest.approx(1.0, abs=1e-12)


def test_edge_waveform_snaps_endpoint_voltages(soft_ramp_spec, tuning):
    wf = ia.build_edge_waveform(soft_ramp_spec, tuning, "leading", 100)
    assert wf.voltage[0] == soft_ramp_spec.u_initial
    assert wf.voltage[-1] == soft_ramp_spec.u_final
    assert len(wf.time) == 201  # odd sample count for midpoint stepping


@pytest.mark.parametrize("edge", ["leading", "trailing"])
def test_edge_waveform_sample_period_spans_the_edge(soft_ramp_spec, tuning, edge):
    # The integrator scales every step by the sample period, so the steps
    # must add up to the edge duration; late in the pulse the difference of
    # two sample times would miss it by parts in 1e12.
    n_steps = ia.plan_edge_steps(soft_ramp_spec, tuning, TRUTH)
    wf = ia.build_edge_waveform(soft_ramp_spec, tuning, edge, n_steps)
    span = wf.sample_period * (len(wf.time) - 1)
    assert span == pytest.approx(soft_ramp_spec.edge_duration, rel=1e-15, abs=0.0)


def test_ideal_edge_has_no_waveform(soft_ramp_spec, tuning):
    ideal = ia.RampSpec(t0=soft_ramp_spec.t0, ts=soft_ramp_spec.ts,
                        tf=soft_ramp_spec.tf, tr=soft_ramp_spec.tr,
                        u_initial=-11.5, u_final=soft_ramp_spec.u_final,
                        u_readout=-11.2, kind="ideal")
    with pytest.raises(ia.ConfigurationError, match="ideal edge has no waveform"):
        ia.build_edge_waveform(ideal, tuning, "leading", 100)


def test_sequence_waveform_structure(soft_ramp_spec, tuning):
    spec = soft_ramp_spec.with_wait(2.0e-5)
    sample_period = spec.edge_duration / 2000.0
    wf = ia.build_sequence_waveform(
        spec, tuning, sample_period=sample_period, margin=0.25 * spec.edge_duration
    )
    assert wf.voltage[0] == spec.u_initial
    assert wf.voltage[-1] == spec.u_readout
    mid = 0.5 * (spec.ts + spec.tf)
    i_mid = int(np.argmin(np.abs(wf.time - mid)))
    assert wf.voltage[i_mid] == spec.u_final  # plateau at the crossing voltage
    assert len(wf.time) % 2 == 1


def test_sequence_waveform_sample_cap_is_exact(soft_ramp_spec, tuning, monkeypatch):
    spec = soft_ramp_spec.with_wait(2.0e-5)
    sample_period, margin = spec.edge_duration / 2000.0, 0.25 * spec.edge_duration
    n = len(ia.build_sequence_waveform(spec, tuning, sample_period, margin).time)
    monkeypatch.setattr(ia.pulse, "MAX_WAVEFORM_SAMPLES", n)
    assert len(ia.build_sequence_waveform(spec, tuning, sample_period, margin).time) == n
    monkeypatch.setattr(ia.pulse, "MAX_WAVEFORM_SAMPLES", n - 1)
    with pytest.raises(ia.ConfigurationError, match=f"exceed {n - 1} samples"):
        ia.build_sequence_waveform(spec, tuning, sample_period, margin)


def test_plan_edge_steps_resolves_fastest_scale(soft_ramp_spec, tuning):
    # Soft edges stay inside the endpoint interval, so the fastest precession
    # rate hypot(detuning, splitting) occurs at one of the plateau voltages.
    spec = soft_ramp_spec
    d_max = max(
        abs(tuning.detuning(u)) for u in (spec.u_initial, spec.u_final, spec.u_readout)
    )
    t_min = TWO_PI / math.hypot(d_max, TRUTH)
    expected = max(50, math.ceil(1.05 * spec.edge_duration / t_min * 200))
    assert ia.plan_edge_steps(spec, tuning, TRUTH) == expected
    assert ia.plan_edge_steps(spec, tuning, TRUTH, steps_per_period=1) == 50


def test_planned_steps_satisfy_the_integrator(soft_ramp_spec, tuning):
    params = ia.SystemParams(omega0_true=TRUTH, delta0=20 * TRUTH)
    n = ia.plan_edge_steps(soft_ramp_spec, tuning, TRUTH, steps_per_period=200)
    wf = ia.build_edge_waveform(soft_ramp_spec, tuning, "leading", n)
    propagator = ia.edge_propagator(wf, params)
    dev = np.max(np.abs(propagator @ propagator.conj().T - np.eye(2)))
    assert dev < 1e-9  # unitary when undamped


def with_edge_coefficients(spec, edge, c, d):
    if edge == "leading":
        return replace(spec, c=c, d=d)
    return replace(spec, c_trail=c, d_trail=d)


@given(
    c=st.floats(-1.0, 1.0),
    d=st.floats(-1.0, 1.0),
    fixed_c=st.floats(-1.0, 1.0),
    fixed_d=st.floats(-1.0, 1.0),
    edge=st.sampled_from(["leading", "trailing"]),
)
def test_one_edge_probe_plans_like_both_edges(
    soft_ramp_spec, tuning, c, d, fixed_c, fixed_d, edge
):
    # The correction search probes the edge it keeps fixed once and then
    # only the edge it shapes; the plan must not change.
    fixed = "trailing" if edge == "leading" else "leading"
    corrected = replace(soft_ramp_spec, kind="corrected")
    base = with_edge_coefficients(corrected, fixed, fixed_c, fixed_d)
    trial = with_edge_coefficients(base, edge, c, d)
    peak_sq = ia.pulse._peak_detuning_sq(base, tuning, fixed)
    hoisted = ia.plan_edge_steps(trial, tuning, PRIOR, 200, {fixed: peak_sq})
    assert hoisted == ia.plan_edge_steps(trial, tuning, PRIOR, 200)


def test_correction_search_plans_every_evaluation_over_both_edges(
    soft_ramp_spec, tuning, monkeypatch
):
    plan = ia.pulse.plan_edge_steps
    plans = []

    def checked_plan(spec, tuning, omega0, steps_per_period=200, peaks_sq=None):
        n = plan(spec, tuning, omega0, steps_per_period, peaks_sq)
        plans.append((n, plan(spec, tuning, omega0, steps_per_period)))
        return n

    monkeypatch.setattr(ia.pulse, "plan_edge_steps", checked_plan)
    monkeypatch.setattr(ia.pulse, "CORRECTION_GRID_POINTS", 3)
    # A strongly shaped leading edge sets the peak detuning the trailing
    # search has to keep honouring.
    spec = replace(soft_ramp_spec, c=1.0, d=-1.0)
    system = ia.SystemParams(omega0_true=PRIOR, delta0=20 * PRIOR)
    ia.optimize_correction(system, spec, tuning, "trailing")
    assert len(plans) > 10
    assert all(hoisted == both for hoisted, both in plans)
    assert len({both for _, both in plans}) > 1  # the searched edge decides some plans


def sine_gain(filt: ia.FilterModel, frequency_hz: float) -> float:
    """Steady-state amplitude of a unit sine after `filter_signal`."""
    samples_per_period, periods = 2000, 40
    dt = 1.0 / (frequency_hz * samples_per_period)
    phase = TWO_PI * frequency_hz * dt * np.arange(periods * samples_per_period)
    out = ia.filter_signal(np.sin(phase), dt, filt)
    settled = slice(periods // 2 * samples_per_period, None)  # whole periods, transient gone
    return 2.0 * float(np.abs(np.mean(out[settled] * np.exp(-1j * phase[settled]))))


def test_filter_dc_gain_and_corner():
    filt = ia.FilterModel()
    dc_gain = ia.filter_signal(np.ones(8), 1e-7, filt)[-1]
    assert 20.0 * math.log10(dc_gain) == pytest.approx(-0.4, abs=1e-12)
    assert sine_gain(filt, filt.corner_hz) / dc_gain == pytest.approx(
        1.0 / math.sqrt(2.0), rel=1e-5
    )


def test_filter_passes_sequence_fundamental():
    # The slowest spectral content of a one-period edge sits well inside
    # the passband of the reference line filter.
    filt = ia.FilterModel(passband_gain_db=0.0, corner_hz=100e3)
    fundamental_hz = 0.5 / ia.edge_duration_for_prior(PRIOR)
    droop_db = 20.0 * math.log10(sine_gain(filt, fundamental_hz))
    assert -0.2 < droop_db < 0.0


def test_filter_signal_is_linear():
    filt = ia.FilterModel()
    rng = np.random.default_rng(0)
    x = rng.normal(size=400)
    y = rng.normal(size=400)
    dt = 1e-7
    combined = ia.filter_signal(2.0 * x + 3.0 * y, dt, filt)
    separate = 2.0 * ia.filter_signal(x, dt, filt) + 3.0 * ia.filter_signal(y, dt, filt)
    assert np.max(np.abs(combined - separate)) < 1e-12


def test_filter_constant_reaches_dc_gain():
    filt = ia.FilterModel()
    out = ia.filter_signal(np.full(64, 0.7), 1e-7, filt)
    assert np.max(np.abs(out - 0.7 * filt.passband_gain)) == 0.0


def test_filter_rejects_nonpositive_corner():
    with pytest.raises(ia.ConfigurationError, match="corner frequency"):
        ia.FilterModel(passband_gain_db=-0.4, corner_hz=0.0)


def test_optimized_corrections_beat_the_soft_edge(calibrated_design, corrections):
    lead, trail = corrections
    assert lead.warning is None
    assert trail.warning is None
    assert lead.infidelity < 0.02 < lead.soft_infidelity
    assert trail.infidelity < 0.02 < trail.soft_infidelity
    assert abs(lead.c) <= 1.0 and abs(lead.d) <= 1.0
    assert abs(trail.c) <= 1.0 and abs(trail.d) <= 1.0


def test_corrected_edge_infidelity_lower_at_true_system(
    calibrated_design, tuning, corrections
):
    lead, trail = corrections
    true_system = calibrated_design.system()
    ramp_corr = calibrated_design.ramp_for(PRIOR, lead, trail)
    ramp_soft = ia.RampSpec(
        t0=ramp_corr.t0, ts=ramp_corr.ts, tf=ramp_corr.tf, tr=ramp_corr.tr,
        u_initial=ramp_corr.u_initial, u_final=ramp_corr.u_final,
        u_readout=ramp_corr.u_readout, kind="soft",
    )
    for edge in ("leading", "trailing"):
        corrected = ia.edge_infidelity(true_system, ramp_corr, tuning, edge)
        soft = ia.edge_infidelity(true_system, ramp_soft, tuning, edge)
        assert corrected < soft


def test_waveform_csv_header(tmp_path):
    scenario = write_scenario(tmp_path, sequence={"ramp_kind": "soft"}, filter={})
    out = tmp_path / "out"
    assert main(["show-pulse", str(scenario), "--out", str(out)]) == 0
    # The raw and the filtered waveform share the header and the time axis.
    columns = []
    for name in ("pulse_soft.csv", "pulse_soft_filtered.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "time_s,voltage_V,detuning_rad_s"
        columns.append(np.array([[float(v) for v in line.split(",")] for line in lines[1:]]))
    raw, filtered = columns
    assert raw.shape == filtered.shape and raw.shape[1] == 3
    assert np.array_equal(raw[:, 0], filtered[:, 0])
    assert np.all(np.diff(raw[:, 0]) > 0)


@given(
    cd=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    ratio=st.floats(0.0, 1.0),
    steps_per_period=st.integers(ia.dynamics.MIN_STEPS_PER_PERIOD, 2000),
)
def test_edge_step_bound_covers_every_correction(soft_ramp_spec, tuning, cd, ratio,
                                                  steps_per_period):
    spec = replace(soft_ramp_spec, kind="corrected", c=cd[0], d=cd[1],
                   c_trail=cd[2], d_trail=cd[3])
    # any valid system: splitting at most a tenth of the initial detuning
    omega0 = ratio * tuning.detuning(spec.u_initial) / 10.0
    bound = edge_steps_bound(spec, tuning, steps_per_period)
    assert ia.plan_edge_steps(spec, tuning, omega0, steps_per_period) <= math.ceil(bound)
