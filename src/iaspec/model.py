"""Coupled two-mode model: normal modes, voltage tuning law, avoided-crossing fit.

Works with two flexural modes of a shared structure whose bare angular
frequencies obey a quadratic voltage tuning law; their linear coupling opens
an avoided crossing whose minimal splitting is the quantity every other part
of the toolkit estimates.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError, FitError, UnderdeterminedFitError

TWO_PI = 2.0 * math.pi

BRANCH_LABELS = ("upper", "lower", "unassigned")


@dataclass(frozen=True)
class BareModes:
    """Uncoupled mode pair plus coupling strength, all angular (rad/s).

    Parameters
    ----------
    omega1 : float
        Bare angular frequency of the out-of-plane mode.
    omega2 : float
        Bare angular frequency of the in-plane mode.
    omega_kappa : float
        Coupling frequency scale sqrt(kappa/m); zero allowed.
    """

    omega1: float
    omega2: float
    omega_kappa: float = 0.0

    def __post_init__(self):
        if self.omega1 <= 0.0 or self.omega2 <= 0.0:
            raise DomainError("bare mode frequencies must be positive")
        if self.omega_kappa < 0.0:
            raise DomainError("coupling frequency scale must be non-negative")


def normal_mode_frequencies(bare: BareModes) -> tuple[float, float]:
    """Exact normal-mode angular frequencies (omega_plus, omega_minus).

    Closed form for the eigenfrequencies of two linearly coupled oscillators:

        omega_pm^2 = (w1^2 + w2^2 + 2 wk^2 +- sqrt((w1^2 - w2^2)^2 + 4 wk^4)) / 2

    Returns
    -------
    (omega_plus, omega_minus) : tuple of float
        Upper and lower normal-mode angular frequencies, rad/s.
    """
    w1sq = bare.omega1**2
    w2sq = bare.omega2**2
    wksq = bare.omega_kappa**2
    root = math.hypot(w1sq - w2sq, 2.0 * wksq)
    plus_sq = 0.5 * (w1sq + w2sq + 2.0 * wksq + root)
    minus_sq = 0.5 * (w1sq + w2sq + 2.0 * wksq - root)
    return math.sqrt(plus_sq), math.sqrt(minus_sq)


@dataclass(frozen=True)
class ModeTuning:
    """Quadratic voltage tuning law of one bare mode.

    omega(U) = center_frequency + coefficient * (U - center_voltage)**2
    with center_frequency in rad/s and coefficient in rad/s/V^2.
    """

    center_frequency: float
    coefficient: float
    center_voltage: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.center_frequency < math.inf and math.isfinite(self.coefficient)):
            raise DomainError("tuning center frequency must be positive, both finite")

    def frequency(self, voltage):
        """Bare angular frequency at the given voltage(s).

        A scalar is evaluated in Python floats, which overflow to inf
        without a RuntimeWarning; validators reject the non-finite value.
        """
        if np.isscalar(voltage):
            du = float(voltage) - self.center_voltage
            return float(self.center_frequency + self.coefficient * du * du)
        du = np.asarray(voltage, dtype=float) - self.center_voltage
        return self.center_frequency + self.coefficient * du * du


@dataclass(frozen=True)
class TuningModel:
    """Voltage-tuned two-mode model with a shared coupling splitting.

    The out-of-plane mode stiffens (coefficient > 0), the in-plane mode
    softens (coefficient < 0), so the bare curves cross; the splitting
    Omega0 (rad/s) opens the avoided crossing between the dressed branches.
    The fit constrains both parabola vertices to a shared center voltage, so
    one "crossing center" parameter plus five frequency parameters fully
    specify the model.
    """

    oop: ModeTuning
    ip: ModeTuning
    splitting: float

    def __post_init__(self):
        if self.splitting < 0.0:
            raise DomainError("splitting must be non-negative")
        if self.oop.coefficient <= 0.0:
            raise DomainError("out-of-plane tuning coefficient must be positive (stiffening)")
        if self.ip.coefficient >= 0.0:
            raise DomainError("in-plane tuning coefficient must be negative (softening)")

    def bare_frequencies(self, voltage):
        """Bare (uncoupled) angular frequencies (omega_oop, omega_ip) at voltage."""
        return self.oop.frequency(voltage), self.ip.frequency(voltage)

    def detuning(self, voltage):
        """Angular detuning Delta(U) = omega_oop(U) - omega_ip(U), rad/s."""
        w_oop, w_ip = self.bare_frequencies(voltage)
        return w_oop - w_ip

    def crossing_voltage(self, near: float) -> float:
        """The bare-curve crossing (Delta = 0) closest to `near` (V)."""
        if self.oop.center_voltage != self.ip.center_voltage:
            raise DomainError("crossing voltages defined only for a shared tuning center")
        u0 = self.oop.center_voltage
        gap = self.ip.center_frequency - self.oop.center_frequency
        slope = self.oop.coefficient - self.ip.coefficient
        if gap / slope < 0.0:
            raise DomainError("tuning law has no bare-curve crossing")
        du = math.sqrt(gap / slope)
        return min((u0 - du, u0 + du), key=lambda u: abs(u - near))


def branch_frequencies(model: TuningModel, voltage):
    """Dressed branch frequencies (f_upper, f_lower) in Hz at voltage(s).

    Evaluates the bare quadratic tuning laws, then the coupled-branch form
    parameterized by the minimal splitting:

        w_pm^2 = (w1^2 + w2^2 + 2 W0 sqrt(w1 w2)
                  +- sqrt((w1^2 - w2^2)^2 + 4 W0^2 w1 w2)) / 2
    """
    w1, w2 = model.bare_frequencies(voltage)
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    if np.any(w1 <= 0.0) or np.any(w2 <= 0.0):
        raise DomainError("tuning law produced non-positive bare frequency")
    w0 = model.splitting
    s = w1 * w1 + w2 * w2 + 2.0 * w0 * np.sqrt(w1 * w2)
    root = np.sqrt((w1 * w1 - w2 * w2) ** 2 + 4.0 * w0 * w0 * w1 * w2)
    f_upper = np.sqrt(0.5 * (s + root)) / TWO_PI
    f_lower = np.sqrt(0.5 * (s - root)) / TWO_PI
    if np.isscalar(voltage):
        return float(f_upper), float(f_lower)
    return f_upper, f_lower


@dataclass
class SpectroscopyData:
    """Measured branch frequencies versus DC voltage.

    branch labels are 'upper', 'lower' or 'unassigned'. The CSV interface is
    a header line `voltage_V,frequency_Hz,branch` followed by one row per
    point.
    """

    voltage: np.ndarray
    frequency_hz: np.ndarray
    branch: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.voltage = np.asarray(self.voltage, dtype=float)
        self.frequency_hz = np.asarray(self.frequency_hz, dtype=float)
        if not self.branch:
            self.branch = ["unassigned"] * len(self.voltage)
        if len(self.voltage) != len(self.frequency_hz) or len(self.voltage) != len(self.branch):
            raise DomainError("voltage, frequency and branch columns must have equal length")
        if len(self.voltage) < 6:
            raise DomainError("need at least 6 spectroscopy points")
        if np.any(self.frequency_hz <= 0.0):
            raise DomainError("measured frequencies must be positive")
        for label in self.branch:
            if label not in BRANCH_LABELS:
                raise DomainError(f"unknown branch label {label!r}")

    def __len__(self):
        return len(self.voltage)

    @classmethod
    def from_csv(cls, path) -> "SpectroscopyData":
        path = Path(path)
        voltage, frequency, branch = [], [], []
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["voltage_V", "frequency_Hz", "branch"]:
                raise DomainError(
                    f"{path}:1: expected header 'voltage_V,frequency_Hz,branch', got {header!r}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) != 3:
                    raise DomainError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
                try:
                    voltage.append(float(row[0]))
                    frequency.append(float(row[1]))
                except ValueError as exc:
                    raise DomainError(f"{path}:{lineno}: non-numeric value: {exc}") from exc
                label = row[2].strip()
                if label not in BRANCH_LABELS:
                    raise DomainError(f"{path}:{lineno}: unknown branch label {label!r}")
                branch.append(label)
        return cls(np.array(voltage), np.array(frequency), branch)

    def to_csv(self, path) -> None:
        path = Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["voltage_V", "frequency_Hz", "branch"])
            for u, f, b in zip(self.voltage, self.frequency_hz, self.branch):
                writer.writerow([f"{u:.9g}", f"{f:.12g}", b])


@dataclass
class FitReport:
    """Quality record of an avoided-crossing fit."""

    residual_rms_hz: float
    stderr: dict[str, float]
    n_points: int
    n_iterations: int
    converged: bool
    assignments: list[str]


_PARAM_NAMES = (
    "oop_center_Hz",
    "ip_center_Hz",
    "oop_coeff_Hz_per_V2",
    "ip_coeff_Hz_per_V2",
    "center_voltage_V",
    "splitting_Hz",
)


def _model_from_vector(p) -> TuningModel:
    return TuningModel(
        oop=ModeTuning(TWO_PI * p[0], TWO_PI * p[2], p[4]),
        ip=ModeTuning(TWO_PI * p[1], TWO_PI * p[3], p[4]),
        splitting=TWO_PI * p[5],
    )


def _vector_from_model(model: TuningModel) -> np.ndarray:
    return np.array(
        [
            model.oop.center_frequency / TWO_PI,
            model.ip.center_frequency / TWO_PI,
            model.oop.coefficient / TWO_PI,
            model.ip.coefficient / TWO_PI,
            model.oop.center_voltage,
            model.splitting / TWO_PI,
        ]
    )


def _residuals(p, voltage, frequency_hz, branch_idx):
    """Per-point residuals (Hz). branch_idx: 0 upper, 1 lower, -1 nearest."""
    try:
        model = _model_from_vector(p)
        f_up, f_lo = branch_frequencies(model, voltage)
    except (DomainError, ValueError):
        return np.full(len(voltage), 1e9)
    res_up = frequency_hz - f_up
    res_lo = frequency_hz - f_lo
    res = np.where(branch_idx == 0, res_up, res_lo)
    nearest = np.where(np.abs(res_up) < np.abs(res_lo), res_up, res_lo)
    return np.where(branch_idx < 0, nearest, res)


def _assign_branches(model: TuningModel, data: SpectroscopyData) -> list[str]:
    """Nearest-branch labels for every point; ties go to the lower branch."""
    f_up, f_lo = branch_frequencies(model, data.voltage)
    labels = []
    for f, up, lo in zip(data.frequency_hz, f_up, f_lo):
        labels.append("lower" if abs(f - lo) <= abs(f - up) else "upper")
    return labels


def _branch_indices(labels) -> np.ndarray:
    lut = {"upper": 0, "lower": 1, "unassigned": -1}
    return np.array([lut[b] for b in labels], dtype=int)


def _initial_guess(data: SpectroscopyData) -> TuningModel:
    """Starting model from envelope geometry, no labels needed.

    Voltages carrying both branches give a gap curve; its minimum locates
    the crossing and bounds the splitting. With the symmetric-curvature
    assumption (stiffening and softening coefficients of equal size) the
    gaps at the two voltage extremes then fix the shared parabola vertex
    and the curvature in closed form. Falls back to coarse range-based
    values when the data lack per-voltage pairs.
    """
    volts = np.unique(data.voltage)
    upper = np.array([data.frequency_hz[data.voltage == u].max() for u in volts])
    lower = np.array([data.frequency_hz[data.voltage == u].min() for u in volts])
    gap = upper - lower
    f_mid = float(np.median(data.frequency_hz))
    u_lo, u_hi = float(volts[0]), float(volts[-1])
    span_u = max(u_hi - u_lo, 1.0)

    def fallback() -> TuningModel:
        f_span = float(data.frequency_hz.max() - data.frequency_hz.min())
        beta = max(f_span, 1.0) / span_u**2
        u_c = 0.5 * (u_lo + u_hi)
        vertex = u_c + span_u
        return TuningModel(
            oop=ModeTuning(TWO_PI * (f_mid - beta * span_u**2), TWO_PI * beta, vertex),
            ip=ModeTuning(TWO_PI * (f_mid + beta * span_u**2), -TWO_PI * beta, vertex),
            splitting=TWO_PI * 0.01 * f_mid,
        )

    paired = gap > 0.0
    if paired.sum() < 3:
        return fallback()
    i_c = int(np.argmin(np.where(paired, gap, np.inf)))
    u_c = float(volts[i_c])
    f_c = 0.5 * float(upper[i_c] + lower[i_c])
    omega_guess = max(float(gap[i_c]), 1e-6 * f_c)
    gap_lo, gap_hi = float(gap[0]), float(gap[-1])
    a = u_lo - u_c
    b = u_hi - u_c
    if gap_lo <= 0.0 or gap_hi <= 0.0 or abs(a) < 1e-12 or abs(b) < 1e-12:
        return fallback()
    for sign in (-1.0, 1.0):
        # opposite-sign detunings at the extremes (crossing inside the
        # window) first, same-sign (crossing near an edge) second
        ratio_term = sign * (gap_lo / gap_hi) * b
        denom = 2.0 * (a - ratio_term)
        if abs(denom) < 1e-12:
            continue
        vertex = (a * (u_lo + u_c) - ratio_term * (u_hi + u_c)) / denom
        lever = 2.0 * a * (u_lo + u_c - 2.0 * vertex)
        if abs(lever) < 1e-12:
            continue
        beta = gap_lo / lever
        if beta > 0.0 and math.isfinite(beta):
            offset = beta * (u_c - vertex) ** 2
            return TuningModel(
                oop=ModeTuning(TWO_PI * (f_c - offset), TWO_PI * beta, vertex),
                ip=ModeTuning(TWO_PI * (f_c + offset), -TWO_PI * beta, vertex),
                splitting=TWO_PI * omega_guess,
            )
    return fallback()


def fit_avoided_crossing(data: SpectroscopyData) -> tuple[TuningModel, FitReport]:
    """Least-squares fit of the tuning model to branch spectroscopy data.

    Derivative-free simplex refinement seeded by a coarse grid over
    (crossing center, splitting); points labelled 'unassigned' are attached
    to the nearest model branch and the assignment is refined once after a
    first fit pass. Gaps (e.g. missing upper-branch points near the
    crossing) are tolerated: the fit simply uses the points present.
    The starting model is constructed from the data envelope.

    Returns
    -------
    (model, report) : (TuningModel, FitReport)

    Raises
    ------
    DomainError
        Fewer points than free parameters.
    UnderdeterminedFitError
        All points lie on a single branch.
    FitError
        Optimizer failed to converge; carries the best model so far.
    """
    from scipy.optimize import minimize

    if len(data) < len(_PARAM_NAMES):
        raise DomainError(
            f"need at least {len(_PARAM_NAMES)} points to fit, got {len(data)}"
        )
    labelled = [b for b in data.branch if b != "unassigned"]
    if labelled and len(set(labelled)) == 1 and len(labelled) == len(data):
        raise UnderdeterminedFitError(
            f"all points on the {labelled[0]!r} branch: splitting is unconstrained"
        )

    p0 = _vector_from_model(_initial_guess(data))
    scale = np.array([abs(p0[0]), abs(p0[1]), abs(p0[2]) or 1.0, abs(p0[3]) or 1.0, 1.0, abs(p0[5]) or 1.0])

    def objective(q, branch_idx):
        res = _residuals(q * scale, data.voltage, data.frequency_hz, branch_idx)
        return float(np.dot(res, res))

    # Coarse grid over (center voltage, splitting) around the guess. A noisy
    # envelope can mislead the guess badly enough that one basin traps the
    # simplex at splitting ~ 0, so refinement multi-starts from the leading
    # grid candidates and keeps the best optimum.
    u_span = max(1.0, 0.25 * (data.voltage.max() - data.voltage.min()))
    candidates = []
    branch_idx = _branch_indices(data.branch)
    for du in (-u_span, -0.5 * u_span, 0.0, 0.5 * u_span, u_span):
        for fac in (0.25, 0.5, 1.0, 2.0, 4.0):
            q = p0.copy()
            q[4] = p0[4] + du
            q[5] = p0[5] * fac
            candidates.append((objective(q / scale, branch_idx), du, fac, q))
    candidates.sort(key=lambda item: item[0])

    n_iter_total = 0
    best = None
    for _val, _du, _fac, start in candidates[:3]:
        seed = start
        labels = list(data.branch)
        prev_fun = None
        chain_converged = False
        chain_best = None
        result = None
        for _attempt in range(4):
            branch_idx = _branch_indices(labels)
            seed_val = objective(seed / scale, branch_idx)
            result = minimize(
                objective,
                seed / scale,
                args=(branch_idx,),
                method="Nelder-Mead",
                options={
                    "maxiter": 4000,
                    # tolerances follow the objective's scale: with noisy data
                    # the sum of squares bottoms out at the noise floor, far
                    # above any absolute threshold; convergence is judged by
                    # restart stability below, not by one simplex collapse
                    "xatol": 1e-8,
                    "fatol": max(1e-12, 1e-6 * seed_val),
                    "adaptive": True,
                },
            )
            n_iter_total += int(result.nit)
            seed = result.x * scale
            model = _model_from_vector(seed)
            # Refine assignment of unassigned points against the fitted model.
            new_labels = [
                b if b != "unassigned" else nb
                for b, nb in zip(data.branch, _assign_branches(model, data))
            ]
            stable_labels = new_labels == labels
            labels = new_labels
            if chain_best is None or result.fun < chain_best[0]:
                chain_best = (float(result.fun), np.array(result.x), list(labels))
            improved = prev_fun is None or prev_fun - result.fun > 1e-8 * (1.0 + abs(prev_fun))
            prev_fun = float(result.fun)
            if stable_labels and not improved:
                # a restarted simplex no longer lowers the objective and the
                # branch assignment reproduces itself: stationary answer
                chain_converged = True
                break
        if not chain_converged:
            chain_converged = bool(result.success)
        if best is None or chain_best[0] < best[0]:
            best = (*chain_best, chain_converged)
    _fun_best, x_best, labels, converged = best

    model = _model_from_vector(x_best * scale)
    if len(set(labels)) == 1:
        raise UnderdeterminedFitError(
            f"all points assigned to the {labels[0]!r} branch: splitting is unconstrained",
            model=model,
        )

    branch_idx = _branch_indices(labels)
    res = _residuals(x_best * scale, data.voltage, data.frequency_hz, branch_idx)
    rms = float(np.sqrt(np.mean(res**2)))
    stderr = _parameter_stderr(x_best * scale, data, branch_idx, res)
    report = FitReport(
        residual_rms_hz=rms,
        stderr=stderr,
        n_points=len(data),
        n_iterations=n_iter_total,
        converged=converged,
        assignments=labels,
    )
    if not converged:
        raise FitError("avoided-crossing fit did not converge", model=model, report=report)
    return model, report


def _parameter_stderr(p, data, branch_idx, res) -> dict[str, float]:
    """1-sigma parameter confidence from the numerical Jacobian at the optimum."""
    n, k = len(data), len(p)
    jac = np.empty((n, k))
    for j in range(k):
        h = 1e-7 * max(abs(p[j]), 1e-3)
        pp, pm = p.copy(), p.copy()
        pp[j] += h
        pm[j] -= h
        jac[:, j] = (
            _residuals(pp, data.voltage, data.frequency_hz, branch_idx)
            - _residuals(pm, data.voltage, data.frequency_hz, branch_idx)
        ) / (2.0 * h)
    dof = max(n - k, 1)
    sigma_sq = float(np.dot(res, res)) / dof
    try:
        cov = sigma_sq * np.linalg.pinv(jac.T @ jac)
        err = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError:
        err = np.full(k, math.nan)
    return dict(zip(_PARAM_NAMES, (float(e) for e in err)))


def synthesize_branch_data(
    model: TuningModel,
    voltages,
    noise_std_hz: float = 0.0,
    rng=None,
    gap_halfwidth_v: float = 0.0,
    labelled: bool = True,
) -> SpectroscopyData:
    """Generate branch spectroscopy data from a tuning model.

    Optionally drops upper-branch points within `gap_halfwidth_v` of the
    crossing (mimicking the response vanishing where the driven branch
    loses transduction) and adds Gaussian frequency noise.
    """
    voltages = np.asarray(voltages, dtype=float)
    f_up, f_lo = branch_frequencies(model, voltages)
    u_cross = model.crossing_voltage(near=float(np.mean(voltages)))
    rows_u, rows_f, rows_b = [], [], []
    for u, fu, fl in zip(voltages, f_up, f_lo):
        keep_upper = abs(u - u_cross) >= gap_halfwidth_v
        if keep_upper:
            rows_u.append(u)
            rows_f.append(fu)
            rows_b.append("upper" if labelled else "unassigned")
        rows_u.append(u)
        rows_f.append(fl)
        rows_b.append("lower" if labelled else "unassigned")
    freq = np.array(rows_f)
    if noise_std_hz > 0.0:
        if rng is None:
            rng = np.random.default_rng()
        freq = freq + rng.normal(0.0, noise_std_hz, size=freq.shape)
    return SpectroscopyData(np.array(rows_u), freq, rows_b)
