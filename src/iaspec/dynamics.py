"""Two-level dynamics of the coupled mode pair near its avoided crossing.

The complex mode amplitudes a = (a_oop, a_ip) obey

    i da/dt = [H(t) - i (gamma/2) I] a,
    H(t) = Delta(t)/2 sigma_z + Omega0/2 sigma_x,

with Delta(t) the instantaneous bare-mode detuning along the voltage pulse
and Omega0 the (true) minimal splitting. Edges are integrated with
fixed-step classical 4th-order Runge-Kutta; the wait at the crossing and the
ringdown readout have closed forms.

The edge integrator carries each 2x2 matrix as its four entries (00, 01,
10, 11), each an array over the steps, so the RK4 step propagators and
their ordered product are built with elementwise arithmetic alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, ReadoutError
from .pulse import PulseWaveform

TWO_PI = 2.0 * math.pi

# Hard floor on integration steps per shortest dynamical period.
MIN_STEPS_PER_PERIOD = 200

# Initialization must be strongly detuned for the mode basis to be (nearly)
# the energy basis; the sequence contract requires at least this ratio.
MIN_DETUNING_RATIO = 10.0

# Readout samples below 3 sigma of the measurement noise are excluded from
# the ringdown fit.
NOISE_FLOOR_SIGMAS = 3.0

DEFAULT_RINGDOWN_SAMPLES = 50


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of one simulated system.

    Parameters
    ----------
    omega0_true : float
        True minimal splitting (rad/s); the estimation target.
    delta0 : float
        Initialization detuning (rad/s); must be >= 10x the splitting.
    gamma : float
        Mode energy decay rate (1/s); amplitudes damp at gamma/2.
    dephasing_time : float
        Coherence time T_d (s) of the splitting during the wait;
        math.inf switches dephasing off.
    noise_std : float
        Std of the readout signal noise per ringdown sample.
    repeats : int
        Monte-Carlo repetitions per trace point.
    """

    omega0_true: float
    delta0: float
    gamma: float = 0.0
    dephasing_time: float = math.inf
    noise_std: float = 0.0
    repeats: int = 30

    def __post_init__(self):
        if self.omega0_true <= 0.0:
            raise DomainError("splitting must be positive")
        if self.delta0 < MIN_DETUNING_RATIO * self.omega0_true:
            raise DomainError(
                "initialization detuning too small: "
                f"delta0/omega0 = {self.delta0 / self.omega0_true:.3g} < {MIN_DETUNING_RATIO:g}"
            )
        if self.gamma < 0.0:
            raise DomainError("energy decay rate must be non-negative")
        if not self.dephasing_time > 0.0:
            raise DomainError("dephasing time must be positive (math.inf allowed)")
        if self.noise_std < 0.0:
            raise DomainError("noise std must be non-negative")
        if self.repeats < 1:
            raise DomainError("repeats must be at least 1")


@dataclass
class ModeState:
    """Complex amplitude pair (out-of-plane, in-plane); norm <= 1."""

    a_oop: complex
    a_ip: complex

    def __post_init__(self):
        if self.norm() > 1.0 + 1e-9:
            raise DomainError(f"state norm {self.norm():.12g} exceeds 1")

    @classmethod
    def in_plane(cls) -> "ModeState":
        return cls(0.0 + 0.0j, 1.0 + 0.0j)

    @classmethod
    def out_of_plane(cls) -> "ModeState":
        return cls(1.0 + 0.0j, 0.0 + 0.0j)

    def vector(self) -> np.ndarray:
        return np.array([self.a_oop, self.a_ip], dtype=complex)

    def norm(self) -> float:
        return math.sqrt(abs(self.a_oop) ** 2 + abs(self.a_ip) ** 2)

    @property
    def population_oop(self) -> float:
        return abs(self.a_oop) ** 2

    @property
    def population_ip(self) -> float:
        return abs(self.a_ip) ** 2


def _validate_step(waveform: PulseWaveform, params: SystemParams) -> float:
    dt = 2.0 * waveform.sample_period
    w_max = math.sqrt(float(np.max(waveform.detuning**2)) + params.omega0_true**2)
    shortest_period = TWO_PI / w_max
    if dt > shortest_period / MIN_STEPS_PER_PERIOD * (1.0 + 1e-12):
        raise ConfigurationError(
            f"integration step {dt:.3g} s exceeds 1/{MIN_STEPS_PER_PERIOD} of the "
            f"shortest dynamical period {shortest_period:.3g} s"
        )
    if len(waveform.time) % 2 == 0:
        raise ConfigurationError("waveform needs an odd sample count (step midpoints)")
    return dt


def _product(x, y):
    """Entries (00, 01, 10, 11) of the 2x2 product x @ y, elementwise over arrays."""
    x00, x01, x10, x11 = x
    y00, y01, y10, y11 = y
    return (x00 * y00 + x01 * y10, x00 * y01 + x01 * y11,
            x10 * y00 + x11 * y10, x10 * y01 + x11 * y11)


def _step_propagators(waveform: PulseWaveform, params: SystemParams):
    """Per-step RK4 propagators R_k over pairs of waveform samples.

    For the linear system da/dt = A(t) a the classical RK4 update is itself
    a matrix polynomial in A evaluated at the step start, midpoint and end,
    so applying R_k to the state is the RK4 state update. With A(t) =
    [[p, q], [q, s]], p, s = -/+ 0.5j Delta - gamma/2 per sample and the
    scalar q = -0.5j Omega0, R_k is built entry by entry; returns the
    entries (r00, r01, r10, r11), each an array over the steps.
    """
    dt = _validate_step(waveform, params)
    p = -0.5j * waveform.detuning - 0.5 * params.gamma
    s = +0.5j * waveform.detuning - 0.5 * params.gamma
    q = -0.5j * params.omega0_true
    am = (p[1::2], q, q, s[1::2])
    a1 = (p[2::2], q, q, s[2::2])

    def shifted(m, h):  # entries of I + h m
        return (1.0 + h * m[0], h * m[1], h * m[2], 1.0 + h * m[3])

    m1 = (p[0:-1:2], q, q, s[0:-1:2])
    m2 = _product(am, shifted(m1, 0.5 * dt))
    m3 = _product(am, shifted(m2, 0.5 * dt))
    m4 = _product(a1, shifted(m3, dt))
    r = [k1 + 2.0 * k2 + 2.0 * k3 + k4 for k1, k2, k3, k4 in zip(m1, m2, m3, m4)]
    return shifted(r, dt / 6.0)


def edge_propagator(waveform: PulseWaveform, params: SystemParams) -> np.ndarray:
    """Total 2x2 propagator of one edge: ordered product of the RK4 steps.

    The product is reduced pairwise on the four entry arrays: later times
    multiply from the left, and an odd last step is carried unchanged into
    the next round. That costs O(log n) elementwise passes over the steps.
    """
    steps = _step_propagators(waveform, params)
    while len(steps[0]) > 1:
        merged = _product([r[1::2] for r in steps], [r[0:-1:2] for r in steps])
        if len(steps[0]) % 2 == 1:
            merged = [np.concatenate((m, r[-1:])) for m, r in zip(merged, steps)]
        steps = merged
    return np.array([r[0] for r in steps]).reshape(2, 2)


def evolve(state: ModeState, waveform: PulseWaveform, params: SystemParams) -> ModeState:
    """Propagate a state through one sampled edge (fixed-step RK4).

    Raises ConfigurationError before integrating if the waveform sampling
    violates the steps-per-period floor.
    """
    a = edge_propagator(waveform, params) @ state.vector()
    return ModeState(complex(a[0]), complex(a[1]))


def crossing_rotation(
    a: np.ndarray, t_w: float, params: SystemParams, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Amplitude vector after waiting t_w seconds at the crossing (Delta = 0).

    The exchange rotation around the normal-mode axis has the closed form
    exp(-i chi/2 sigma_x) with chi = omega0 t_w; amplitudes damp by
    exp(-gamma t_w / 2). Dephasing between the normal modes is modeled as a
    Gaussian random phase kick on chi with variance 2 t_w / T_d per shot,
    whose ensemble average reproduces the exp(-t_w/T_d) coherence decay.
    The kick is drawn only for t_w > 0 and a finite T_d; deterministic
    callers (rng None) get the kick-free rotation.
    """
    if t_w < 0.0:
        raise DomainError("wait time must be non-negative")
    chi = params.omega0_true * t_w
    if rng is not None and math.isfinite(params.dephasing_time) and t_w > 0.0:
        chi += rng.normal(0.0, math.sqrt(2.0 * t_w / params.dephasing_time))
    damp = math.exp(-0.5 * params.gamma * t_w)
    cos, sin = math.cos(0.5 * chi), math.sin(0.5 * chi)
    return damp * np.array([cos * a[0] - 1.0j * sin * a[1], cos * a[1] - 1.0j * sin * a[0]])


def free_evolution(
    state: ModeState, t_w: float, params: SystemParams, rng: np.random.Generator | None = None
) -> ModeState:
    """Wait at the crossing for t_w seconds; see `crossing_rotation`."""
    a = crossing_rotation(state.vector(), t_w, params, rng)
    return ModeState(complex(a[0]), complex(a[1]))


@dataclass
class RingdownRecord:
    """One readout: sampled decay envelope plus its exponential fit.

    `signal` is the demodulated energy-proportional envelope, which decays
    with time constant 1/gamma; `fitted_amplitude` is the fit extrapolated
    back to the protocol origin t = 0, compensating the damping accumulated
    during the whole sequence.
    """

    time: np.ndarray
    signal: np.ndarray
    fitted_amplitude: float
    fitted_tau: float
    n_used: int
    start_time: float


def simulate_ringdown(
    amplitude: float,
    params: SystemParams,
    duration: float | None = None,
    rng: np.random.Generator | None = None,
    start_time: float = 0.0,
    n_samples: int = DEFAULT_RINGDOWN_SAMPLES,
) -> RingdownRecord:
    """Simulate and fit one ringdown readout.

    Generates amplitude * exp(-t/tau) with tau = 1/gamma starting at
    `start_time` on the protocol clock, adds Gaussian noise of std
    params.noise_std per sample, excludes samples below the noise floor
    (3 sigma), least-squares fits the log envelope and extrapolates to the
    protocol origin.

    Raises
    ------
    ReadoutError
        Fewer than two noisy samples survive above the noise floor.
    """
    if amplitude < 0.0 or amplitude > 1.0 + 1e-9:
        raise DomainError("readout amplitude must lie in [0, 1]")
    if start_time < 0.0:
        raise DomainError("start time must be non-negative")
    if n_samples < 4:
        raise DomainError("need at least 4 ringdown samples")
    tau = 1.0 / params.gamma if params.gamma > 0.0 else math.inf
    if duration is None:
        duration = tau if math.isfinite(tau) else 1e-3
    if duration <= 0.0:
        raise DomainError("ringdown duration must be positive")

    t_local = np.linspace(0.0, duration, n_samples)
    decay = np.exp(-t_local / tau) if math.isfinite(tau) else np.ones_like(t_local)
    signal = amplitude * decay
    sigma = params.noise_std
    if sigma > 0.0:
        if rng is None:
            rng = np.random.default_rng()
        signal = signal + rng.normal(0.0, sigma, size=signal.shape)

    t_protocol = start_time + t_local
    floor = NOISE_FLOOR_SIGMAS * sigma
    mask = signal > floor
    if np.count_nonzero(mask) < 2:
        if sigma == 0.0:
            # Exact noiseless model: the fit is analytic (covers amplitude 0).
            boost = math.exp(start_time / tau) if math.isfinite(tau) else 1.0
            return RingdownRecord(
                time=t_protocol,
                signal=signal,
                fitted_amplitude=amplitude * boost,
                fitted_tau=tau,
                n_used=n_samples,
                start_time=start_time,
            )
        raise ReadoutError(
            f"ringdown lost below the noise floor ({np.count_nonzero(mask)} usable samples)"
        )

    t_fit = t_protocol[mask]
    y_fit = np.log(signal[mask])
    t_mean = t_fit.mean()
    y_mean = y_fit.mean()
    denom = float(np.sum((t_fit - t_mean) ** 2))
    if denom == 0.0:
        raise ReadoutError("ringdown samples degenerate in time")
    slope = float(np.sum((t_fit - t_mean) * (y_fit - y_mean))) / denom
    intercept = y_mean - slope * t_mean
    fitted_tau = -1.0 / slope if slope < 0.0 else math.inf
    return RingdownRecord(
        time=t_protocol,
        signal=signal,
        fitted_amplitude=float(math.exp(intercept)),
        fitted_tau=fitted_tau,
        n_used=int(np.count_nonzero(mask)),
        start_time=start_time,
    )
