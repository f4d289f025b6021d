"""Splitting-shift-to-charge conversion and the perturbation experiment."""
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.constants import e as ELEMENTARY_CHARGE

import iaspec as ia
from iaspec.cli import main

from conftest import PRIOR, TWO_PI, make_design, write_scenario

VOLUME_M3 = 55e-6 * 250e-9 * 100e-9
RESPONSE = 26.0


def test_default_charge_model_geometry():
    model = ia.ChargeModel()
    assert model.volume_m3 == pytest.approx(VOLUME_M3, rel=1e-12)
    assert model.response_hz_per_density == RESPONSE
    built = ia.ChargeModel.from_dimensions(55e-6, 250e-9, 100e-9)
    assert built.volume_m3 == pytest.approx(VOLUME_M3, rel=1e-12)


def test_conversion_chain_is_exact_and_invertible():
    model = ia.ChargeModel()
    assert model.shift_to_charge_density(3435.0) == pytest.approx(
        3435.0 / RESPONSE, rel=1e-12
    )
    assert model.density_to_electrons(1.0) == pytest.approx(
        VOLUME_M3 / ELEMENTARY_CHARGE, rel=1e-12
    )
    for value in (0.1, 7.7, 1234.5):
        assert model.shift_to_electrons(value) == pytest.approx(
            value / RESPONSE * VOLUME_M3 / ELEMENTARY_CHARGE, rel=1e-12
        )


def test_charge_model_validation():
    with pytest.raises(ia.ConfigurationError):
        ia.ChargeModel(response_hz_per_density=0.0)
    with pytest.raises(ia.ConfigurationError):
        ia.ChargeModel(volume_m3=-1.0)
    with pytest.raises(ia.DomainError):
        ia.ChargeModel.from_dimensions(0.0, 1e-9, 1e-9)


def test_reference_rows_recompute_and_flag():
    model = ia.ChargeModel()
    rows = ia.reference_comparison(model)
    assert len(rows) == 3
    expected = [
        3435.0 / RESPONSE,
        180.0 * VOLUME_M3 / ELEMENTARY_CHARGE,
        5.65 * VOLUME_M3 / ELEMENTARY_CHARGE,
    ]
    for row, value in zip(rows, expected):
        assert row["computed"] == pytest.approx(value, rel=1e-12)
        gap = abs(row["computed"] - row["quoted"]) / abs(row["quoted"])
        assert row["relative_gap"] == pytest.approx(gap, rel=1e-12)
        assert row["flagged"] is (gap > 0.05)
    assert all(row["flagged"] for row in rows)


def test_telegraph_levels_and_determinism():
    noise = ia.TelegraphNoise(rate_hz=0.2, amplitude_hz=3440.0, enabled=True)
    times = np.linspace(0.0, 100.0, 400)
    a = noise.sample(times, np.random.default_rng(3))
    b = noise.sample(times, np.random.default_rng(3))
    np.testing.assert_array_equal(a, b)
    assert set(np.unique(a)) <= {-1720.0, 1720.0}
    assert len(np.unique(a)) == 2  # it actually switches over 20 mean dwells
    disabled = ia.TelegraphNoise(rate_hz=0.2, amplitude_hz=3440.0)
    assert np.all(disabled.sample(times, np.random.default_rng(3)) == 0.0)


def test_telegraph_validation():
    with pytest.raises(ia.ConfigurationError):
        ia.TelegraphNoise(rate_hz=0.0, amplitude_hz=1.0)
    with pytest.raises(ia.ConfigurationError):
        ia.TelegraphNoise(rate_hz=1.0, amplitude_hz=-1.0)


def test_telegraph_trace_file(tmp_path):
    scenario = write_scenario(
        tmp_path, kind="perturbation",
        perturbation={"shift_true_hz": 3440.0, "n_runs": 1},
        telegraph={"rate_hz": 0.2, "amplitude_hz": 3440.0, "enabled": True},
    )
    out = tmp_path / "out"
    assert main(["sense", str(scenario), "--out", str(out)]) == 0
    lines = (out / "telegraph_switching.csv").read_text().splitlines()
    assert lines[0] == "time_s,offset_hz"
    assert len(lines) == 1 + 400
    # 20 mean dwells (100 s at 0.2 Hz) sampled every 0.25 s
    times = np.array([float(line.split(",")[0]) for line in lines[1:]])
    assert times[0] == 0.0
    assert np.allclose(np.diff(times), 0.25)


def test_perturbation_scenario_validation(tuning):
    design = make_design(tuning, repeats=2)
    with pytest.raises(ia.DomainError):
        ia.PerturbationScenario(design=design, prior=0.0, shift_true=0.0)
    with pytest.raises(ia.ConfigurationError):
        ia.PerturbationScenario(design=design, prior=PRIOR, shift_true=0.0, n_runs=0)
    shifted = ia.PerturbationScenario(design=design, prior=PRIOR, shift_true=TWO_PI * 3440.0)
    assert shifted.perturbed == replace(design, omega0_true=design.omega0_true + TWO_PI * 3440.0)
    # The perturbed system is validated on construction, not when its side runs.
    with pytest.raises(ia.DomainError, match="splitting must be positive"):
        ia.PerturbationScenario(design=design, prior=PRIOR, shift_true=-design.omega0_true)


def test_zero_shift_reports_nothing_spurious(tuning):
    design = make_design(tuning, repeats=2)
    scenario = ia.PerturbationScenario(
        design=design, prior=PRIOR, shift_true=0.0, n_runs=2, max_iterations=2
    )
    report = ia.run_perturbation_experiment(scenario, seed=5)
    assert report["flags"] == []
    assert abs(report["shift_hz"]) < 0.5 * report["bin_width_hz"]
    again = ia.run_perturbation_experiment(scenario, seed=5)
    assert again["shift_hz"] == report["shift_hz"]


def test_report_structure_and_charge_chain(tuning):
    design = make_design(tuning, repeats=2)
    shift_hz = 3440.0
    scenario = ia.PerturbationScenario(
        design=design, prior=PRIOR, shift_true=TWO_PI * shift_hz,
        n_runs=2, max_iterations=2,
    )
    report = ia.run_perturbation_experiment(scenario, seed=5)
    assert sorted(report) == [
        "baseline", "bin_width_hz", "charge_density_C_per_m3",
        "electron_equivalent", "flags", "n2_baseline_hz", "n2_perturbed_hz",
        "n2_shift_hz", "perturbed", "shift_hz", "true_shift_hz",
    ]
    assert report["true_shift_hz"] == pytest.approx(shift_hz, rel=1e-12)
    assert report["charge_density_C_per_m3"] == pytest.approx(
        report["shift_hz"] / RESPONSE, rel=1e-12
    )
    assert report["electron_equivalent"] == pytest.approx(
        report["charge_density_C_per_m3"] * VOLUME_M3 / ELEMENTARY_CHARGE, rel=1e-12
    )
    assert report["n2_shift_hz"] == pytest.approx(
        report["n2_perturbed_hz"] - report["n2_baseline_hz"], rel=1e-9
    )
    for side in ("baseline", "perturbed"):
        assert len(report[side]["estimates_hz"]) == 2
        assert report[side]["std_hz"] >= 0.0
