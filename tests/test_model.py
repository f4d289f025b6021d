"""Tuning law, normal modes, and the avoided-crossing fit."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iaspec as ia
from iaspec.model import _PARAM_NAMES, _branch_indices, _initial_guess, _residuals, _vector_from_model

from conftest import PRIOR, PRIOR_HZ, TWO_PI, make_tuning

CROSSING_V = 8.0


def test_mode_tuning_is_quadratic_in_voltage():
    mt = ia.ModeTuning(center_frequency=2.0e6, coefficient=300.0, center_voltage=-1.0)
    assert mt.frequency(-1.0) == 2.0e6
    assert mt.frequency(3.0) == pytest.approx(2.0e6 + 300.0 * 16.0, rel=1e-14)
    volts = np.array([-2.0, 0.0, 5.0])
    np.testing.assert_allclose(
        mt.frequency(volts), 2.0e6 + 300.0 * (volts + 1.0) ** 2, rtol=1e-14
    )


def test_mode_tuning_rejects_nonpositive_center():
    with pytest.raises(ia.DomainError):
        ia.ModeTuning(center_frequency=0.0, coefficient=10.0)


@pytest.mark.parametrize("center, coefficient", [(math.inf, 10.0), (1.0, math.inf),
                                                 (1.0, -math.inf), (1.0, math.nan)])
def test_mode_tuning_rejects_non_finite_parameters(center, coefficient):
    with pytest.raises(ia.DomainError):
        ia.ModeTuning(center_frequency=center, coefficient=coefficient)


def test_crossing_voltages_solve_exactly(tuning):
    lo = tuning.crossing_voltage(near=-20.0)
    hi = tuning.crossing_voltage(near=3.0)
    assert lo == pytest.approx(-CROSSING_V, abs=1e-9)
    assert hi == pytest.approx(CROSSING_V, abs=1e-9)
    assert tuning.crossing_voltage(near=-3.0) == lo
    assert tuning.detuning(lo) == pytest.approx(0.0, abs=1e-3)


def test_lower_branch_equals_bare_frequency_at_crossing(tuning):
    uc = tuning.crossing_voltage(near=10.0)
    _, f_lower = ia.branch_frequencies(tuning, uc)
    w_bare, _ = tuning.bare_frequencies(uc)
    assert f_lower == pytest.approx(w_bare / TWO_PI, rel=1e-12)


def test_crossing_gap_matches_splitting_to_first_order():
    # The gap at the crossing equals the splitting parameter up to a
    # relative correction of order splitting/frequency, so shrinking the
    # splitting tenfold must shrink the deviation tenfold.
    deviations = []
    for split_hz in (PRIOR_HZ, PRIOR_HZ / 10.0):
        model = make_tuning(split_hz)
        uc = model.crossing_voltage(near=10.0)
        f_up, f_lo = ia.branch_frequencies(model, uc)
        deviations.append(abs((f_up - f_lo) - split_hz) / split_hz)
    assert deviations[0] < 5e-3
    assert deviations[1] == pytest.approx(deviations[0] / 10.0, rel=0.05)


def test_branch_offsets_bounded_by_splitting(tuning):
    volts = np.linspace(-20.0, 20.0, 401)
    f_up, f_lo = ia.branch_frequencies(tuning, volts)
    w1, w2 = tuning.bare_frequencies(volts)
    bare_hi = np.maximum(w1, w2) / TWO_PI
    bare_lo = np.minimum(w1, w2) / TWO_PI
    assert np.max(np.abs(f_up - bare_hi)) < PRIOR_HZ
    assert np.max(np.abs(f_lo - bare_lo)) < PRIOR_HZ


def test_gap_minimum_sits_at_the_crossing(tuning):
    volts = np.linspace(-9.0, -7.0, 2001)
    f_up, f_lo = ia.branch_frequencies(tuning, volts)
    gap = f_up - f_lo
    u_min = volts[int(np.argmin(gap))]
    assert u_min == pytest.approx(-CROSSING_V, abs=2e-3)
    assert gap.min() > 0.0


def test_branch_frequencies_vectorized_matches_scalar(tuning):
    rng = np.random.default_rng(7)
    volts = rng.uniform(-15.0, 15.0, size=64)
    f_up, f_lo = ia.branch_frequencies(tuning, volts)
    for i, u in enumerate(volts):
        su, sl = ia.branch_frequencies(tuning, float(u))
        assert su == pytest.approx(f_up[i], rel=1e-12)
        assert sl == pytest.approx(f_lo[i], rel=1e-12)


def test_normal_mode_frequencies_match_coupling_matrix():
    w1, w2 = 4.4e7, 4.7e7
    wk = 0.1 * math.sqrt(w1 * w2)
    modes = ia.BareModes(omega1=w1, omega2=w2, omega_kappa=wk)
    plus, minus = ia.normal_mode_frequencies(modes)
    kk = wk * wk
    mat = np.array([[w1 * w1 + kk, -kk], [-kk, w2 * w2 + kk]])
    ev = np.sqrt(np.linalg.eigvalsh(mat))
    assert minus == pytest.approx(ev[0], rel=1e-12)
    assert plus == pytest.approx(ev[1], rel=1e-12)


def test_bare_modes_validation():
    with pytest.raises(ia.DomainError):
        ia.BareModes(omega1=0.0, omega2=1e6, omega_kappa=0.0)
    with pytest.raises(ia.DomainError):
        ia.BareModes(omega1=1e6, omega2=1e6, omega_kappa=-1.0)


def test_noiseless_synthesis_fit_roundtrip(tuning):
    volts = np.linspace(-12.0, -4.0, 25)
    data = ia.synthesize_branch_data(tuning, volts)
    model, report = ia.fit_avoided_crossing(data)
    assert report.converged
    assert abs(model.splitting - PRIOR) / PRIOR < 1e-9
    assert report.residual_rms_hz < 1e-3


def test_noisy_fit_recovers_splitting(tuning):
    rng = np.random.default_rng(7)
    noisy = ia.synthesize_branch_data(
        tuning, np.linspace(-12.0, -4.0, 25), noise_std_hz=100.0, rng=rng,
        gap_halfwidth_v=0.6,
    )
    model, report = ia.fit_avoided_crossing(noisy)
    assert report.converged
    assert abs(model.splitting - PRIOR) / PRIOR < 1e-2


def test_fit_handles_unlabeled_points(tuning):
    data = ia.synthesize_branch_data(
        tuning, np.linspace(-12.0, -4.0, 25), labelled=False
    )
    assert set(data.branch) == {"unassigned"}
    model, report = ia.fit_avoided_crossing(data)
    assert report.converged
    assert abs(model.splitting - PRIOR) / PRIOR < 1e-9
    assert set(report.assignments) <= {"upper", "lower"}


def test_bundled_spectroscopy_fixture_fit():
    data = ia.SpectroscopyData.from_csv(ia.bundled_path("crossing_data.csv"))
    model, report = ia.fit_avoided_crossing(data)
    assert report.converged
    assert model.splitting / TWO_PI == pytest.approx(41304.4, abs=0.5)
    assert report.residual_rms_hz < 15.0


def central_difference_stderr(model, data, labels):
    """Reference 1-sigma errors from a central-difference Jacobian of the
    residuals at the fitted model, scaled by the residual variance."""
    p = _vector_from_model(model)
    branch_idx = _branch_indices(labels)
    jac = np.empty((len(data), len(p)))
    for j in range(len(p)):
        h = 1e-7 * max(abs(p[j]), 1e-3)
        pp, pm = p.copy(), p.copy()
        pp[j] += h
        pm[j] -= h
        jac[:, j] = (
            _residuals(pp, data.voltage, data.frequency_hz, branch_idx)
            - _residuals(pm, data.voltage, data.frequency_hz, branch_idx)
        ) / (2.0 * h)
    res = _residuals(p, data.voltage, data.frequency_hz, branch_idx)
    sigma_sq = float(np.dot(res, res)) / (len(data) - len(p))
    return dict(zip(_PARAM_NAMES, np.sqrt(np.diag(sigma_sq * np.linalg.pinv(jac.T @ jac)))))


@pytest.mark.parametrize("source", ["crossing_data.csv", "noisy_unlabelled"])
def test_stderr_matches_the_central_difference_oracle(source):
    if source == "noisy_unlabelled":
        data = ia.synthesize_branch_data(
            make_tuning(), np.linspace(-11.5, -4.5, 60), noise_std_hz=800.0,
            rng=np.random.default_rng(3), gap_halfwidth_v=0.3, labelled=False,
        )
    else:
        data = ia.SpectroscopyData.from_csv(ia.bundled_path(source))
    model, report = ia.fit_avoided_crossing(data)
    oracle = central_difference_stderr(model, data, report.assignments)
    for name in _PARAM_NAMES:
        assert report.stderr[name] == pytest.approx(oracle[name], rel=1e-3), name


def sum_of_squares(model, data):
    """Squared residuals to each point's labelled branch, or to the nearer
    branch for an unassigned point."""
    f_up, f_lo = ia.branch_frequencies(model, data.voltage)
    res_up, res_lo = data.frequency_hz - f_up, data.frequency_hz - f_lo
    branch = np.array(data.branch)
    nearer = np.minimum(np.abs(res_up), np.abs(res_lo))
    res = np.where(branch == "upper", res_up, np.where(branch == "lower", res_lo, nearer))
    return float(np.dot(res, res))


@settings(max_examples=10, derandomize=True)
@given(
    labelled=st.booleans(),
    gap_halfwidth_v=st.floats(0.0, 0.5),
    noise_hz=st.floats(200.0, 1500.0),
    n_voltages=st.integers(40, 120),
    splitting_hz=st.floats(38000.0, 46000.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_beats_the_generating_model(labelled, gap_halfwidth_v, noise_hz, n_voltages,
                                        splitting_hz, seed):
    truth = make_tuning(splitting_hz)
    data = ia.synthesize_branch_data(
        truth, np.linspace(-11.5, -4.5, n_voltages), noise_std_hz=noise_hz,
        rng=np.random.default_rng(seed), gap_halfwidth_v=gap_halfwidth_v, labelled=labelled,
    )
    model, report = ia.fit_avoided_crossing(data)
    assert sum_of_squares(model, data) <= sum_of_squares(truth, data)
    error_hz = (model.splitting - truth.splitting) / TWO_PI
    assert abs(error_hz) <= 5.0 * report.stderr["splitting_Hz"]


def test_single_branch_fit_is_underdetermined(tuning):
    volts = np.linspace(-12.0, -4.0, 12)
    data = ia.synthesize_branch_data(tuning, volts)
    keep = [i for i, b in enumerate(data.branch) if b == "lower"]
    lower_only = ia.SpectroscopyData(
        data.voltage[keep], data.frequency_hz[keep], [data.branch[i] for i in keep]
    )
    with pytest.raises(ia.UnderdeterminedFitError):
        ia.fit_avoided_crossing(lower_only)


def test_spectroscopy_csv_roundtrip(tuning, tmp_path):
    data = ia.synthesize_branch_data(tuning, np.linspace(-12.0, -4.0, 10))
    path = tmp_path / "spectrum.csv"
    data.to_csv(path)
    assert path.read_text().splitlines()[0] == "voltage_V,frequency_Hz,branch"
    back = ia.SpectroscopyData.from_csv(path)
    # Writer keeps 9 significant digits for voltage, 12 for frequency.
    np.testing.assert_allclose(back.voltage, data.voltage, rtol=1e-8)
    np.testing.assert_allclose(back.frequency_hz, data.frequency_hz, rtol=1e-11)
    assert list(back.branch) == list(data.branch)


def test_spectroscopy_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("volts,freq\n1,2\n")
    with pytest.raises(ia.DomainError, match="expected header"):
        ia.SpectroscopyData.from_csv(path)


def test_spectroscopy_data_validation():
    with pytest.raises(ia.DomainError, match="at least 6"):
        ia.SpectroscopyData(
            np.array([1.0, 2.0]), np.array([1e6, 2e6]), ["upper", "lower"]
        )
    with pytest.raises(ia.DomainError, match="positive"):
        ia.SpectroscopyData(np.linspace(0, 5, 6), np.full(6, -1.0), ["upper"] * 6)
    with pytest.raises(ia.DomainError, match="unknown branch label"):
        ia.SpectroscopyData(np.linspace(0, 5, 6), np.full(6, 1e6), ["weird"] * 6)


@pytest.mark.parametrize("column", ["voltage", "frequency"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e200, -1e200])
def test_spectroscopy_data_rejects_non_finite_values(column, value):
    voltage, frequency = np.linspace(0, 5, 6), np.full(6, 1e6)
    (voltage if column == "voltage" else frequency)[2] = value
    with pytest.raises(ia.DomainError, match="finite"):
        ia.SpectroscopyData(voltage, frequency, ["lower"] * 6)


def test_initial_guess_is_usable(tuning):
    data = ia.synthesize_branch_data(tuning, np.linspace(-12.0, -4.0, 25))
    guess = _initial_guess(data)
    assert guess.splitting > 0.0
    assert guess.oop.center_frequency > 0.0
