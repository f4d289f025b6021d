"""Two-mode propagation, free evolution, dephasing, and ringdown readout.

States are plain complex amplitude vectors (a_oop, a_ip). Edge propagation
is checked against two oracles kept here: classical RK4 (a sequential loop
and a batched matrix form for fine steps) and a sequential fourth-order
Magnus loop that exponentiates each step numerically.
"""
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.linalg import expm

import iaspec as ia

from conftest import PRIOR, TRUTH, TWO_PI, make_design

OMEGA0 = TWO_PI * 42650.0
PARAMS = ia.SystemParams(omega0_true=OMEGA0, delta0=20 * OMEGA0)
IN_PLANE = np.array([0.0, 1.0], dtype=complex)
OUT_OF_PLANE = np.array([1.0, 0.0], dtype=complex)


@dataclass
class TrajectoryRecord:
    """Sampled populations along one edge integration."""

    time: np.ndarray
    population_oop: np.ndarray
    population_ip: np.ndarray
    final_state: np.ndarray


def evolve_trajectory(
    state: np.ndarray, waveform: ia.PulseWaveform, params: ia.SystemParams
) -> TrajectoryRecord:
    """Plain sequential RK4 loop recording every step.

    Independent of the batched propagator construction in
    `ia.edge_propagator`, against which it serves as the reference.
    """
    dt = 2.0 * waveform.sample_period
    delta = waveform.detuning
    gamma = params.gamma
    omega0 = params.omega0_true

    def deriv(idx, vec):
        d = delta[idx]
        return np.array(
            [
                (-0.5j * d - 0.5 * gamma) * vec[0] - 0.5j * omega0 * vec[1],
                (+0.5j * d - 0.5 * gamma) * vec[1] - 0.5j * omega0 * vec[0],
            ]
        )

    a = np.array(state, dtype=complex)
    n_steps = (len(waveform.time) - 1) // 2
    samples = [a.copy()]
    for k in range(n_steps):
        i0 = 2 * k
        k1 = deriv(i0, a)
        k2 = deriv(i0 + 1, a + 0.5 * dt * k1)
        k3 = deriv(i0 + 1, a + 0.5 * dt * k2)
        k4 = deriv(i0 + 2, a + dt * k3)
        a = a + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        samples.append(a.copy())
    arr = np.array(samples)
    return TrajectoryRecord(
        time=waveform.time[::2],
        population_oop=np.abs(arr[:, 0]) ** 2,
        population_ip=np.abs(arr[:, 1]) ** 2,
        final_state=arr[-1],
    )


def generator(delta, params: ia.SystemParams) -> np.ndarray:
    """A = -(i/2)(Delta sigma_z + Omega0 sigma_x) - gamma/2 per detuning sample, (2, 2, n)."""
    delta = np.asarray(delta, dtype=float)
    sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]])[:, :, None]
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])[:, :, None]
    return (-0.5j * (delta * sigma_z + params.omega0_true * sigma_x)
            - 0.5 * params.gamma * np.eye(2)[:, :, None])


def stacked_product(x, y):
    """x @ y for stacks of 2x2 matrices along the last axis."""
    return (x[:, :, None] * y[None]).sum(axis=1)


def rk4_propagator(waveform: ia.PulseWaveform, params: ia.SystemParams) -> np.ndarray:
    """Classical RK4 on the same sample layout, as stacked 2x2 matrices.

    The fine-step oracle: fast enough for 1e5 steps, and pinned to the
    sequential `evolve_trajectory` loop below.
    """
    h = 2.0 * waveform.sample_period
    a = generator(waveform.detuning, params)
    eye = np.eye(2)[:, :, None]
    k1 = a[..., 0:-1:2]
    k2 = stacked_product(a[..., 1::2], eye + 0.5 * h * k1)
    k3 = stacked_product(a[..., 1::2], eye + 0.5 * h * k2)
    k4 = stacked_product(a[..., 2::2], eye + h * k3)
    steps = eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    while steps.shape[-1] > 1:  # later steps multiply from the left
        merged = stacked_product(steps[..., 1::2], steps[..., 0:-1:2])
        odd = steps.shape[-1] % 2
        steps = np.concatenate((merged, steps[..., -1:]), axis=-1) if odd else merged
    return steps[..., 0]


def magnus_loop(
    state: np.ndarray, waveform: ia.PulseWaveform, params: ia.SystemParams
) -> np.ndarray:
    """Plain sequential fourth-order Magnus loop; returns the final state.

    Each step exponentiates (h/6)(A1 + 4 A2 + A3) + (h^2/12)[A3, A1] with
    scipy's expm, independent of the closed-form SU(2) exponential and the
    pairwise product in `ia.edge_propagator`.
    """
    h = 2.0 * waveform.sample_period
    a = generator(waveform.detuning, params)
    vec = np.array(state, dtype=complex)
    for k in range(0, a.shape[-1] - 1, 2):
        a1, a2, a3 = a[..., k], a[..., k + 1], a[..., k + 2]
        omega = (h / 6.0) * (a1 + 4.0 * a2 + a3) + (h * h / 12.0) * (a3 @ a1 - a1 @ a3)
        vec = expm(omega) @ vec
    return vec


def const_waveform(delta: float, duration: float, n_steps: int) -> ia.PulseWaveform:
    t = np.linspace(0.0, duration, 2 * n_steps + 1)
    d = np.full_like(t, delta)
    return ia.PulseWaveform(t, np.zeros_like(t), d, sample_period=float(t[1] - t[0]))


def shaped_waveform(n_steps: int = 3000, duration: float = 30e-6):
    t = np.linspace(0.0, duration, 2 * n_steps + 1)
    x = t / t[-1]
    delta = 10 * OMEGA0 * (1 - x) ** 2 * np.cos(3 * x) + 0.5 * OMEGA0 * np.sin(7 * x)
    return ia.PulseWaveform(t, np.zeros_like(t), delta,
                            sample_period=float(t[1] - t[0]))


def test_system_params_validation():
    with pytest.raises(ia.DomainError):
        ia.SystemParams(omega0_true=0.0, delta0=1.0)
    with pytest.raises(ia.DomainError, match="initialization detuning too small"):
        ia.SystemParams(omega0_true=OMEGA0, delta0=5 * OMEGA0)
    with pytest.raises(ia.DomainError):
        ia.SystemParams(omega0_true=OMEGA0, delta0=20 * OMEGA0, gamma=-1.0)
    with pytest.raises(ia.DomainError):
        ia.SystemParams(omega0_true=OMEGA0, delta0=20 * OMEGA0, dephasing_time=0.0)
    with pytest.raises(ia.DomainError):
        ia.SystemParams(omega0_true=OMEGA0, delta0=20 * OMEGA0, noise_std=-0.1)
    with pytest.raises(ia.DomainError):
        ia.SystemParams(omega0_true=OMEGA0, delta0=20 * OMEGA0, repeats=0)


def test_detuned_exchange_follows_the_closed_form():
    # Constant detuning: population transfer is sinusoidal at the
    # generalized frequency with visibility (splitting/generalized)^2.
    delta = 3.0 * OMEGA0
    w_gen = math.hypot(delta, OMEGA0)
    duration = 3 * TWO_PI / w_gen
    wf = const_waveform(delta, duration, 1200)
    record = evolve_trajectory(IN_PLANE, wf, PARAMS)
    visibility = OMEGA0**2 / w_gen**2
    expected = visibility * np.sin(0.5 * w_gen * record.time) ** 2
    assert np.max(np.abs(record.population_oop - expected)) < 1e-9


def test_resonant_full_and_half_period_exchange():
    full = ia.edge_propagator(const_waveform(0.0, TWO_PI / OMEGA0, 400), PARAMS) @ IN_PLANE
    assert abs(full[1]) ** 2 == pytest.approx(1.0, abs=1e-9)
    assert abs(full[0]) ** 2 < 1e-9
    half = ia.edge_propagator(const_waveform(0.0, math.pi / OMEGA0, 200), PARAMS) @ IN_PLANE
    assert abs(half[0]) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_integrator_is_fourth_order():
    # A constant detuning makes each Magnus step exact, so the order shows
    # only on a time-varying one: halving the step cuts the error 16x.
    exact = rk4_propagator(shaped_waveform(48000), PARAMS) @ IN_PLANE
    errors = []
    for n in (700, 1400):  # 700 steps sit just inside the step floor
        final = ia.edge_propagator(shaped_waveform(n), PARAMS) @ IN_PLANE
        errors.append(np.linalg.norm(final - exact))
    assert 15.0 < errors[0] / errors[1] < 17.0


def test_time_reversal_with_conjugation_returns_the_start():
    wf = shaped_waveform()
    wf_rev = ia.PulseWaveform(wf.time, wf.voltage, wf.detuning[::-1].copy(),
                              sample_period=wf.sample_period)
    mid = ia.edge_propagator(wf, PARAMS) @ IN_PLANE
    back = ia.edge_propagator(wf_rev, PARAMS) @ np.conj(mid)
    assert np.linalg.norm(back - np.conj(IN_PLANE)) < 1e-8


def test_undamped_evolution_preserves_the_norm():
    final = ia.edge_propagator(shaped_waveform(), PARAMS) @ IN_PLANE
    assert abs(np.linalg.norm(final) - 1.0) < 1e-9


def test_damped_norm_decreases_monotonically():
    damped = ia.SystemParams(omega0_true=OMEGA0, delta0=20 * OMEGA0, gamma=800.0)
    record = evolve_trajectory(IN_PLANE, shaped_waveform(), damped)
    norms = np.sqrt(record.population_oop + record.population_ip)
    assert np.all(np.diff(norms) <= 1e-10)


def test_diagonal_phase_accumulates_the_detuning_integral():
    # With a negligible splitting the in-plane amplitude only picks up
    # the phase (1/2) * integral of the detuning.
    tiny = ia.SystemParams(omega0_true=1e-4, delta0=1e-2)
    t = np.linspace(0.0, 30e-6, 2 * 3000 + 1)
    x = t / t[-1]
    delta = 2 * OMEGA0 * (0.5 + 0.4 * np.sin(5 * x))
    wf = ia.PulseWaveform(t, np.zeros_like(t), delta, sample_period=float(t[1] - t[0]))
    final = ia.edge_propagator(wf, tiny) @ IN_PLANE
    expected_phase = 0.5 * simpson(delta, x=t)
    dphi = (np.angle(final[1]) - expected_phase + math.pi) % TWO_PI - math.pi
    assert abs(dphi) < 1e-9
    assert abs(abs(final[1]) ** 2 - 1.0) < 1e-9


def test_trajectory_final_state_matches_direct_evolution():
    wf = shaped_waveform()
    direct = ia.edge_propagator(wf, PARAMS) @ IN_PLANE
    assert np.linalg.norm(magnus_loop(IN_PLANE, wf, PARAMS) - direct) < 1e-12


def floor_waveform(n_steps: int) -> ia.PulseWaveform:
    """`shaped_waveform`'s detuning, n_steps at 0.9 of the step floor.

    Up to 30 us the steps follow `shaped_waveform`'s time axis; longer
    waveforms stretch the shape over their span, keeping |detuning| <= 10.5 OMEGA0.
    """
    w_bound = math.hypot(10.5 * OMEGA0, OMEGA0)
    dt = 0.9 * TWO_PI / (w_bound * ia.dynamics.MIN_STEPS_PER_PERIOD)
    t = 0.5 * dt * np.arange(2 * n_steps + 1)
    x = t / max(30e-6, t[-1])
    delta = 10 * OMEGA0 * (1 - x) ** 2 * np.cos(3 * x) + 0.5 * OMEGA0 * np.sin(7 * x)
    return ia.PulseWaveform(t, np.zeros_like(t), delta, sample_period=0.5 * dt)


# Odd step counts (3, 7, 2549) make the pairwise reduction carry a tail step.
STEP_COUNTS = pytest.mark.parametrize("n_steps", [1, 2, 3, 7, 2549])
GAMMAS = pytest.mark.parametrize("gamma", [0.0, 2.0e4])
STARTS = pytest.mark.parametrize("start", [IN_PLANE, OUT_OF_PLANE],
                                 ids=["in_plane", "out_of_plane"])


@STEP_COUNTS
@GAMMAS
@STARTS
def test_evolve_matches_the_sequential_rk4_reference(n_steps, gamma, start):
    # The batched RK4 oracle is the plain sequential loop, product order and
    # odd-tail carry included.
    params = ia.SystemParams(omega0_true=OMEGA0, delta0=20 * OMEGA0, gamma=gamma)
    wf = floor_waveform(n_steps)
    batched = rk4_propagator(wf, params) @ start
    reference = evolve_trajectory(start, wf, params).final_state
    assert np.linalg.norm(batched - reference) <= 1e-12


@STEP_COUNTS
@GAMMAS
@STARTS
def test_propagator_matches_the_sequential_magnus_loop(n_steps, gamma, start):
    params = ia.SystemParams(omega0_true=OMEGA0, delta0=20 * OMEGA0, gamma=gamma)
    wf = floor_waveform(n_steps)
    direct = ia.edge_propagator(wf, params) @ start
    reference = magnus_loop(start, wf, params)
    assert np.linalg.norm(direct - reference) <= 1e-12


@given(
    c=st.floats(-1.0, 1.0),
    d=st.floats(-1.0, 1.0),
    edge=st.sampled_from(["leading", "trailing"]),
    prior_scale=st.floats(0.8, 1.2),
    steps_per_period=st.integers(ia.dynamics.MIN_STEPS_PER_PERIOD, 400),
)
@settings(max_examples=40)
def test_lossless_edge_propagator_is_unitary_to_rounding(
    tuning, c, d, edge, prior_scale, steps_per_period
):
    design = make_design(tuning, kind="corrected")
    spec = replace(design.ramp_for(prior_scale * PRIOR), c=c, d=d, c_trail=c, d_trail=d)
    n_steps = ia.plan_edge_steps(spec, tuning, TRUTH, steps_per_period)
    wf = ia.build_edge_waveform(spec, tuning, edge, n_steps)
    u = ia.edge_propagator(wf, ia.SystemParams(omega0_true=TRUTH, delta0=20 * TRUTH))
    # Every Magnus step is an exact SU(2) exponential, so the only unitarity
    # defect is rounding, of order 1e-15 per step.
    assert np.linalg.norm(u.conj().T @ u - np.eye(2), 2) <= n_steps * 1e-15


def test_step_floor_keeps_magnus_as_accurate_as_rk4_at_200(tuning):
    # At MIN_STEPS_PER_PERIOD the Magnus edge must be at least as accurate
    # as RK4 at 200 steps per period, the floor it replaced: the |U11|
    # error (what the leakage objective reads), maximized over the
    # correction-box corners and three inner points, both edges and priors
    # 6% either side of the truth, each against RK4 at 800 steps per period.
    # The inner point (0.3, -0.2) sets the Magnus maximum; a floor of 25
    # fails here.
    design = make_design(tuning, kind="corrected")
    errors = {"magnus": [], "rk4": []}
    for prior in (0.94 * TRUTH, 1.06 * TRUTH):
        system = ia.SystemParams(omega0_true=prior, delta0=20 * prior)
        for c, d in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0),
                     (0.0, 0.0), (0.3, -0.2), (-1.0, 0.7)):
            spec = replace(design.ramp_for(prior), c=c, d=d, c_trail=c, d_trail=d)

            def waveform(steps_per_period, edge):
                n_steps = ia.plan_edge_steps(spec, tuning, prior, steps_per_period)
                return ia.build_edge_waveform(spec, tuning, edge, n_steps)

            for edge in ("leading", "trailing"):
                exact = abs(rk4_propagator(waveform(800, edge), system)[1, 1])
                floor = waveform(ia.dynamics.MIN_STEPS_PER_PERIOD, edge)
                magnus = ia.edge_propagator(floor, system)
                rk4 = rk4_propagator(waveform(200, edge), system)
                errors["magnus"].append(abs(abs(magnus[1, 1]) - exact))
                errors["rk4"].append(abs(abs(rk4[1, 1]) - exact))
    assert max(errors["magnus"]) <= max(errors["rk4"])


def test_free_evolution_exchange_periods():
    full = ia.crossing_rotations(IN_PLANE, TWO_PI / OMEGA0, PARAMS)[:, 0]
    assert abs(np.vdot(IN_PLANE, full)) == pytest.approx(1.0, abs=1e-12)
    half = ia.crossing_rotations(IN_PLANE, math.pi / OMEGA0, PARAMS)[:, 0]
    assert abs(half[0]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_zero_wait_draws_no_dephasing_kick():
    params = ia.SystemParams(omega0_true=OMEGA0, delta0=20 * OMEGA0, dephasing_time=50e-6,
                             noise_std=0.01, repeats=4)
    kicks, noise = ia.draw_shots(np.random.SeedSequence(7), 0.0, params, 50)
    assert kicks is None
    # Without a kick, each repeat's noise row starts its stream.
    stream = np.random.SeedSequence(7).spawn(1)[0]
    np.testing.assert_array_equal(noise[0], np.random.default_rng(stream).standard_normal(50))
    kicks, _ = ia.draw_shots(np.random.SeedSequence(7), 1e-6, params, 50)
    assert kicks.shape == (4,)
    assert np.all(ia.crossing_rotations(IN_PLANE, 0.0, params) == IN_PLANE[:, None])


@given(
    entropy=st.one_of(st.integers(0, 2**256),
                      st.lists(st.integers(0, 2**64), min_size=1, max_size=6)),
    spawn_key=st.lists(st.integers(0, 2**40), max_size=3).map(tuple),
    spawned=st.one_of(st.just(0), st.integers(1, 2**31)),
    repeats=st.integers(1, 24),
    kicked=st.booleans(),
    n_noise=st.integers(0, 9),
)
@settings(max_examples=60)
def test_shot_streams_are_numpys_spawned_children(entropy, spawn_key, spawned, repeats,
                                                   kicked, n_noise):
    # draw_shots derives its children's seed words itself; every value must
    # equal what numpy's own spawn + default_rng draws, bit for bit.
    params = ia.SystemParams(omega0_true=OMEGA0, delta0=20 * OMEGA0,
                             dephasing_time=50e-6 if kicked else math.inf,
                             noise_std=0.01 if n_noise else 0.0, repeats=repeats)
    parent = np.random.SeedSequence(entropy, spawn_key=spawn_key, n_children_spawned=spawned)
    kicks, noise = ia.draw_shots(parent, 1e-6, params, n_noise)
    assert parent.n_children_spawned == spawned
    expected = np.array([np.random.default_rng(child).standard_normal(int(kicked) + n_noise)
                         for child in parent.spawn(repeats)])
    if kicked:
        assert np.array_equal(kicks, expected[:, 0])
    else:
        assert kicks is None
    if n_noise:
        assert np.array_equal(noise, expected[:, int(kicked):])
    else:
        assert noise is None


def test_dephasing_envelope_decays_at_the_stated_rate():
    t_d = 50e-6
    params = ia.SystemParams(omega0_true=OMEGA0, delta0=20 * OMEGA0,
                             dephasing_time=t_d)
    waits = np.array([1, 2, 3, 4]) * TWO_PI / OMEGA0
    envelope = []
    for k, t_w in enumerate(waits):
        kicks = np.random.default_rng(1000 + k).standard_normal(3000)
        a = ia.crossing_rotations(IN_PLANE, float(t_w), params, kicks)
        envelope.append(1.0 - 2.0 * float(np.mean(np.abs(a[0]) ** 2)))
    slope = np.polyfit(waits, np.log(envelope), 1)[0]
    fitted_t_d = -1.0 / slope
    assert abs(fitted_t_d - t_d) / t_d < 0.15


def test_noiseless_ringdown_recovers_amplitude_and_tau():
    params = ia.SystemParams(omega0_true=OMEGA0, delta0=20 * OMEGA0, gamma=500.0)
    record = ia.simulate_ringdown(0.8, params)
    assert record.fitted_amplitude == pytest.approx(0.8, rel=1e-9)
    assert record.fitted_tau == pytest.approx(1.0 / 500.0, rel=1e-9)


def test_ringdown_extrapolates_back_to_the_start_time():
    params = ia.SystemParams(omega0_true=OMEGA0, delta0=20 * OMEGA0, gamma=500.0)
    for start in (0.0, 1e-3, 3e-3):
        amplitude_at_readout = 0.9 * math.exp(-start * 500.0)
        record = ia.simulate_ringdown(amplitude_at_readout, params, start_time=start)
        assert record.fitted_amplitude == pytest.approx(0.9, rel=1e-6)


def test_noisy_ringdown_statistics():
    params = ia.SystemParams(omega0_true=OMEGA0, delta0=20 * OMEGA0, gamma=500.0,
                             noise_std=0.01)
    values = [
        ia.simulate_ringdown(0.8, params, rng=np.random.default_rng(500 + r))
        .fitted_amplitude
        for r in range(30)
    ]
    assert float(np.mean(values)) == pytest.approx(0.8, abs=0.01)
    assert 0.0 < float(np.std(values)) < 0.02


def test_ringdown_raises_when_signal_is_buried():
    params = ia.SystemParams(omega0_true=OMEGA0, delta0=20 * OMEGA0, gamma=500.0,
                             noise_std=0.2)
    with pytest.raises(ia.ReadoutError):
        ia.simulate_ringdown(0.001, params, rng=np.random.default_rng(0))


def test_ringdown_input_validation():
    params = ia.SystemParams(omega0_true=OMEGA0, delta0=20 * OMEGA0, gamma=500.0)
    with pytest.raises(ia.DomainError):
        ia.simulate_ringdown(1.5, params)
    with pytest.raises(ia.DomainError):
        ia.simulate_ringdown(0.5, params, start_time=-1.0)
    with pytest.raises(ia.DomainError):
        ia.simulate_ringdown(0.5, params, n_samples=3)
    with pytest.raises(ia.DomainError):
        ia.simulate_ringdown(0.5, params, duration=0.0)


def test_waveform_step_size_is_validated():
    t = np.linspace(0.0, 1e-2, 21)
    coarse = ia.PulseWaveform(t, np.zeros_like(t), np.full_like(t, 30 * OMEGA0),
                              sample_period=float(t[1] - t[0]))
    with pytest.raises(ia.ConfigurationError, match="integration step"):
        ia.edge_propagator(coarse, PARAMS)


def test_waveform_needs_odd_sample_count():
    t = np.linspace(0.0, 1e-5, 400)
    wf = ia.PulseWaveform(t, np.zeros_like(t), np.zeros_like(t),
                          sample_period=float(t[1] - t[0]))
    with pytest.raises(ia.ConfigurationError, match="odd sample count"):
        ia.edge_propagator(wf, PARAMS)
