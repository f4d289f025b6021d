"""Two-level dynamics of the coupled mode pair near its avoided crossing.

The complex mode amplitudes a = (a_oop, a_ip) obey

    i da/dt = [H(t) - i (gamma/2) I] a,
    H(t) = Delta(t)/2 sigma_z + Omega0/2 sigma_x,

with Delta(t) the instantaneous bare-mode detuning along the voltage pulse
and Omega0 the (true) minimal splitting. Edges are integrated with
fixed-step fourth-order Magnus steps, each exponentiated exactly in closed
form; the wait at the crossing and the ringdown readout have closed forms.

The edge integrator carries each 2x2 matrix as its four entries (00, 01,
10, 11), each an array over the steps, so the step propagators and their
ordered product are built with elementwise arithmetic alone.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, ReadoutError
from .pulse import PulseWaveform

TWO_PI = 2.0 * math.pi

# Hard floor on integration steps per shortest dynamical period. At 50 the
# Magnus edges are at least as accurate as RK4 was at its floor of 200.
MIN_STEPS_PER_PERIOD = 50

# Initialization must be strongly detuned for the mode basis to be (nearly)
# the energy basis; the sequence contract requires at least this ratio.
MIN_DETUNING_RATIO = 10.0

# Readout samples below 3 sigma of the measurement noise are excluded from
# the ringdown fit.
NOISE_FLOOR_SIGMAS = 3.0

DEFAULT_RINGDOWN_SAMPLES = 50

# Hash constants of numpy's SeedSequence (fixed by numpy's stream-compatibility
# policy): INIT_A/MULT_A drive the entropy mix, INIT_B/MULT_B generate_state.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


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
        if not math.isfinite(self.delta0):
            raise DomainError(f"initialization detuning {self.delta0} rad/s is not finite")
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
    """Per-step fourth-order Magnus propagators over pairs of waveform samples.

    With A(t) = -(i/2)(Delta sigma_z + Omega0 sigma_x) and the detuning
    sampled at each step's start, midpoint and end (Delta1, Delta2, Delta3),
    the Simpson-node Magnus exponent (h/6)(A1 + 4 A2 + A3) + (h^2/12)[A3, A1]
    is -i a.sigma with a_x = h Omega0/2, a_z = h (Delta1 + 4 Delta2 +
    Delta3)/12 and a_y = (h^2/24) Omega0 (Delta3 - Delta1). Its exponential
    cos|a| I - i (sin|a|/|a|) a.sigma is exact and unitary. The damping
    -gamma/2 commutes with everything and is left to the caller. Returns the
    entries (r00, r01, r10, r11), each an array over the steps.
    """
    h = _validate_step(waveform, params)
    delta = waveform.detuning
    start, end = delta[0:-1:2], delta[2::2]
    a_x = 0.5 * h * params.omega0_true
    a_y = (h * h * params.omega0_true / 24.0) * (end - start)
    a_z = (h / 12.0) * (start + 4.0 * delta[1::2] + end)
    norm = np.sqrt(a_x * a_x + a_y * a_y + a_z * a_z)
    cos, sinc = np.cos(norm), np.sin(norm) / norm
    i_z, i_x, y = 1j * (sinc * a_z), (-1j * a_x) * sinc, sinc * a_y
    return cos - i_z, i_x - y, i_x + y, cos + i_z


def edge_propagator(waveform: PulseWaveform, params: SystemParams) -> np.ndarray:
    """Total 2x2 propagator of one edge: ordered product of the Magnus steps.

    The product is reduced pairwise on the four entry arrays: later times
    multiply from the left, and an odd last step is carried unchanged into
    the next round. That costs O(log n) elementwise passes over the steps.
    The damping exp(-gamma t/2) over the whole edge scales the result.
    """
    steps = _step_propagators(waveform, params)
    while len(steps[0]) > 1:
        merged = _product([r[1::2] for r in steps], [r[0:-1:2] for r in steps])
        if len(steps[0]) % 2 == 1:
            merged = [np.concatenate((m, r[-1:])) for m, r in zip(merged, steps)]
        steps = merged
    duration = waveform.time[-1] - waveform.time[0]
    return math.exp(-0.5 * params.gamma * duration) * np.array([r[0] for r in steps]).reshape(2, 2)


@functools.cache
def _seed_words_type() -> type:
    """An ISeedSequence holding precomputed seed words, for a bit generator's
    native seeding. Built on first use: `import iaspec` leaves numpy.random
    unloaded."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def _word_count(value) -> int:
    """uint32 words SeedSequence assembles from an int or a sequence of ints."""
    if isinstance(value, (int, np.integer)):
        return max(1, -(-int(value).bit_length() // 32))
    return sum(_word_count(v) for v in value)


@functools.cache
def _hash_constants(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = first, ..., first + count - 1 (read-only)."""
    out = np.array([init * pow(mult, first + k, 1 << 32) & 0xFFFFFFFF for k in range(count)],
                   dtype=np.uint32)
    out.setflags(write=False)
    return out


def _child_state_words(point_seed: np.random.SeedSequence, n_children: int) -> np.ndarray:
    """PCG64 seed words of point_seed.spawn(n_children), shape (n_children, 4) uint64.

    Row r equals point_seed.spawn(n_children)[r].generate_state(4, np.uint64).
    A child's entropy is its parent's plus one word, its spawn index, so its
    pool is the parent's pool mixed with that word, with the hash constant
    continuing after the parent's mixes: pool_size per entropy word, the
    entropy counted as at least pool_size words. generate_state then hashes
    the pool into 8 words. The parent's spawn counter is not advanced.
    """
    size = point_seed.pool_size
    first = point_seed.n_children_spawned
    if first + n_children > 1 << 32:
        raise DomainError("spawn index beyond one 32-bit word")
    mixes = size * (max(_word_count(point_seed.entropy), size) + _word_count(point_seed.spawn_key))
    a = _hash_constants(_INIT_A, _MULT_A, mixes, size + 1)
    index = np.arange(first, first + n_children, dtype=np.uint32)[:, None]
    h = (index ^ a[:-1]) * a[1:]
    h ^= h >> 16
    pool = point_seed.pool * np.uint32(_MIX_MULT_L) - h * np.uint32(_MIX_MULT_R)
    pool ^= pool >> 16
    b = _hash_constants(_INIT_B, _MULT_B, 0, 9)
    state = (pool[:, np.arange(8) % size] ^ b[:-1]) * b[1:]
    state ^= state >> 16
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


def draw_shots(
    point_seed: np.random.SeedSequence, t_w: float, params: SystemParams, n_samples: int
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Standard-normal draws of the params.repeats shots at one wait time.

    Repeat r draws from its own stream, child r of `point_seed` (what
    `default_rng(point_seed.spawn(repeats)[r])` draws): first the dephasing
    kick (only for t_w > 0 and a finite T_d), then n_samples readout noise
    values (only for a positive noise std). The children's seed words are
    derived in one batch and each PCG64 is seeded natively from its words;
    `point_seed` is left unchanged. Returns (kicks, noise), shapes (repeats,)
    and (repeats, n_samples), None for a draw no shot makes; when neither is
    made no stream is built.
    """
    kicked = int(math.isfinite(params.dephasing_time) and t_w > 0.0)
    n_noise = n_samples if params.noise_std > 0.0 else 0
    if not kicked + n_noise:
        return None, None
    draws = np.empty((params.repeats, kicked + n_noise))
    seed_words = _seed_words_type()
    for words, row in zip(_child_state_words(point_seed, params.repeats), draws):
        np.random.Generator(np.random.PCG64(seed_words(words))).standard_normal(out=row)
    return (draws[:, 0] if kicked else None), (draws[:, kicked:] if n_noise else None)


def crossing_rotations(
    a: np.ndarray, t_w: float, params: SystemParams, kicks: np.ndarray | None = None
) -> np.ndarray:
    """Amplitude vectors after waiting t_w seconds at the crossing (Delta = 0).

    The exchange rotation around the normal-mode axis has the closed form
    exp(-i chi/2 sigma_x) with chi = omega0 t_w; amplitudes damp by
    exp(-gamma t_w / 2). Dephasing between the normal modes is modeled as a
    Gaussian random phase kick on chi with variance 2 t_w / T_d per shot,
    whose ensemble average reproduces the exp(-t_w/T_d) coherence decay.
    `kicks` holds one standard-normal draw per shot, scaled here to that
    variance; without kicks the single kick-free rotation is returned.
    Returns shape (2, shots), one column per shot.
    """
    if t_w < 0.0:
        raise DomainError("wait time must be non-negative")
    chi = np.atleast_1d(params.omega0_true * t_w)
    if kicks is not None:
        chi = chi + math.sqrt(2.0 * t_w / params.dephasing_time) * kicks
    damp = math.exp(-0.5 * params.gamma * t_w)
    cos, sin = np.cos(0.5 * chi), np.sin(0.5 * chi)
    return damp * np.array([cos * a[0] - 1.0j * sin * a[1], cos * a[1] - 1.0j * sin * a[0]])


@dataclass
class RingdownRecord:
    """Ringdown readouts: sampled decay envelopes plus their exponential fits.

    `signal` is the demodulated energy-proportional envelope, which decays
    with time constant 1/gamma; `fitted_amplitude` is the fit extrapolated
    back to the protocol origin t = 0, compensating the damping accumulated
    during the whole sequence. From `ringdown_readouts` the signal has one
    row per shot and the fit fields are arrays over the shots, NaN where
    the readout was lost; from `simulate_ringdown` they describe one shot.
    """

    time: np.ndarray
    signal: np.ndarray
    fitted_amplitude: float | np.ndarray
    fitted_tau: float | np.ndarray
    n_used: int | np.ndarray
    start_time: float


def ringdown_readouts(
    amplitudes: np.ndarray,
    params: SystemParams,
    duration: float | None = None,
    noise: np.ndarray | None = None,
    start_time: float = 0.0,
    n_samples: int = DEFAULT_RINGDOWN_SAMPLES,
) -> RingdownRecord:
    """Simulate and fit one ringdown readout per amplitude.

    Generates amplitude * exp(-t/tau) with tau = 1/gamma starting at
    `start_time` on the protocol clock, adds Gaussian noise of std
    params.noise_std per sample (`noise`: standard-normal draws, one row
    of n_samples per shot, needed when the std is positive), excludes
    samples below the noise floor (3 sigma), least-squares fits the log
    envelope and extrapolates to the protocol origin. A readout is lost
    (NaN) when fewer than two noisy samples survive the floor or its
    samples are degenerate in time; a noiseless readout that keeps fewer
    than two (amplitude 0) takes the exact analytic value instead.
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    if np.any(amplitudes < 0.0) or np.any(amplitudes > 1.0 + 1e-9):
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
    signal = amplitudes[:, None] * decay
    sigma = params.noise_std
    if sigma > 0.0:
        signal = signal + sigma * noise

    t = start_time + t_local
    mask = signal > NOISE_FLOOR_SIGMAS * sigma
    n_used = np.count_nonzero(mask, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.log(np.where(mask, signal, 1.0))
        t_mean = np.where(mask, t, 0.0).sum(axis=1) / n_used
        y_mean = y.sum(axis=1) / n_used
        dt = np.where(mask, t - t_mean[:, None], 0.0)
        denom = (dt**2).sum(axis=1)
        slope = (dt * (y - y_mean[:, None])).sum(axis=1) / denom
        intercept = y_mean - slope * t_mean
        # math.exp, not np.exp: numpy's vectorized exp misses the correctly
        # rounded value by an ulp on a few percent of inputs, and the t_w = 0
        # readouts normalize a whole trace. min() keeps an overflowing
        # extrapolation finite instead of raising OverflowError.
        fitted = np.array([math.exp(min(v, 709.0)) for v in intercept.tolist()])
        fitted[denom == 0.0] = np.nan
        fitted_tau = np.where(slope < 0.0, -1.0 / slope, math.inf)
    short = n_used < 2
    if sigma == 0.0:
        # Exact noiseless model: the fit is analytic (covers amplitude 0).
        boost = math.exp(start_time / tau) if math.isfinite(tau) else 1.0
        fitted = np.where(short, amplitudes * boost, fitted)
        fitted_tau = np.where(short, tau, fitted_tau)
        n_used = np.where(short, n_samples, n_used)
    else:
        fitted = np.where(short, np.nan, fitted)
    fitted_tau = np.where(np.isnan(fitted), np.nan, fitted_tau)
    return RingdownRecord(
        time=t,
        signal=signal,
        fitted_amplitude=fitted,
        fitted_tau=fitted_tau,
        n_used=n_used,
        start_time=start_time,
    )


def simulate_ringdown(
    amplitude: float,
    params: SystemParams,
    duration: float | None = None,
    rng: np.random.Generator | None = None,
    start_time: float = 0.0,
    n_samples: int = DEFAULT_RINGDOWN_SAMPLES,
) -> RingdownRecord:
    """One shot of `ringdown_readouts`, its noise drawn from rng.

    Raises
    ------
    ReadoutError
        The readout is lost: fewer than two noisy samples survive above
        the noise floor, or they are degenerate in time.
    """
    noise = None
    if params.noise_std > 0.0 and n_samples >= 4:  # bad counts fail in ringdown_readouts
        noise = (rng if rng is not None else np.random.default_rng()).standard_normal(
            (1, n_samples)
        )
    batch = ringdown_readouts(np.array([amplitude]), params, duration, noise, start_time, n_samples)
    n_used = int(batch.n_used[0])
    if n_used < 2:
        raise ReadoutError(f"ringdown lost below the noise floor ({n_used} usable samples)")
    if math.isnan(batch.fitted_amplitude[0]):
        raise ReadoutError("ringdown samples degenerate in time")
    return RingdownRecord(
        time=batch.time,
        signal=batch.signal[0],
        fitted_amplitude=float(batch.fitted_amplitude[0]),
        fitted_tau=float(batch.fitted_tau[0]),
        n_used=n_used,
        start_time=start_time,
    )
