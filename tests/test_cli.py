"""End-to-end command-line behavior: outputs, determinism, exit codes."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iaspec as ia
from iaspec.cli import main
from iaspec.scenario import SCHEMA

from conftest import write_scenario


def test_run_ias_writes_the_full_artifact_set(tmp_path):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run-ias", str(scenario), "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "iteration_01_spectrum.csv", "iteration_01_trace.csv",
        "iteration_01_trace.json", "iteration_02_spectrum.csv",
        "iteration_02_trace.csv", "iteration_02_trace.json",
        "manifest.json", "records.json",
    ]
    records = json.loads((out / "records.json").read_text())
    assert records["result"]["converged"] is True
    assert records["result"]["estimate_hz"] == pytest.approx(42615.2, abs=0.5)
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest) == [
        "files", "scenario_name", "scenario_sha256", "seed", "version",
        "wall_clock_utc",
    ]
    assert manifest["seed"] == 11
    assert set(manifest["files"]) == set(names) - {"manifest.json"}
    # The first pass is the two-fringe bootstrap; the second uses the design's four.
    lines = (out / "iteration_02_trace.csv").read_text().splitlines()
    assert lines[0] == "t_w_s,p_return,p_std"
    assert len(lines) == 1 + 4 * 10 + 1
    meta = json.loads((out / "iteration_02_trace.json").read_text())
    assert meta["fringes"] == 4
    assert meta["ramp_kind"] == "ideal"


def test_reruns_are_byte_identical_modulo_wall_clock(tmp_path):
    scenario = write_scenario(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run-ias", str(scenario), "--out", str(out_a)]) == 0
    assert main(["run-ias", str(scenario), "--out", str(out_b)]) == 0
    for path_a in out_a.iterdir():
        path_b = out_b / path_a.name
        if path_a.name == "manifest.json":
            doc_a = json.loads(path_a.read_text())
            doc_b = json.loads(path_b.read_text())
            doc_a.pop("wall_clock_utc")
            doc_b.pop("wall_clock_utc")
            assert doc_a == doc_b
        else:
            assert path_a.read_bytes() == path_b.read_bytes()


def test_flat_trace_aborts_with_partial_records(tmp_path, capsys):
    scenario = write_scenario(
        tmp_path, system={"splitting_true_hz": 1e-9, "gamma_per_s": 150.0,
                          "readout_noise_std": 0.0, "repeats": 2}
    )
    out = tmp_path / "out"
    assert main(["run-ias", str(scenario), "--out", str(out)]) == 3
    assert "run aborted" in capsys.readouterr().err
    payload = json.loads((out / "records.json").read_text())
    assert "error" in payload
    assert len(payload["records"]) == 1
    assert (out / "iteration_01_trace.csv").exists()


def test_zero_iterations_writes_only_the_manifest(tmp_path):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run-ias", str(scenario), "--out", str(out),
                 "--max-iterations", "0"]) == 0
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_bad_inputs_exit_one(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    assert main(["run-ias", str(scenario), "--seed", "-4",
                 "--out", str(tmp_path / "x1")]) == 1
    assert "non-negative" in capsys.readouterr().err

    broken = write_scenario(tmp_path, name="broken")
    broken.write_text(broken.read_text().replace('"seed"', '"sneed"'))
    out = tmp_path / "x2"
    assert main(["run-ias", str(broken), "--out", str(out)]) == 1
    assert "unknown keys" in capsys.readouterr().err
    assert not out.exists()  # nothing written for an invalid scenario

    assert main(["fringe-sweep", str(scenario), "--out", str(tmp_path / "x3")]) == 1
    assert "needs 'fringe_sweep'" in capsys.readouterr().err

    assert main(["run-ias", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x4")]) == 1
    capsys.readouterr()

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{\n  broken\n")
    assert main(["run-ias", str(bad_json), "--out", str(tmp_path / "x5")]) == 1
    assert ":2: invalid JSON" in capsys.readouterr().err

    # usage errors exit 1 too, not argparse's 2 (the fit-error code)
    assert main(["run-ias", "--bogus", str(scenario)]) == 1
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    fixture = str(ia.bundled_path("crossing_data.csv"))
    assert main(["fit-spectrum", fixture, "--seed", "1", "--out", str(tmp_path / "x6")]) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not (tmp_path / "x6").exists()

    assert main([]) == 1
    assert main(["--version"]) == 0


@pytest.mark.parametrize(
    "command, edits",
    [
        ("run-ias", {"sequence": {"fringes": 1}}),
        ("run-ias", {"sequence": {"fringes": 3}}),
        ("run-ias", {"sequence": {"samples_per_fringe": 1}}),
        ("run-ias", {"sequence": {"ringdown_samples": 2}}),
        ("run-ias", {"sequence": {"ringdown_duration_s": -1}}),
        ("run-ias", {"sequence": {"steps_per_period": 10}}),
        ("run-ias", {"sequence": {"optimizer_steps_per_period": 1}}),
        ("sense", {"kind": "perturbation", "sequence": {"fringes": 2},
                   "perturbation": {"shift_true_hz": 3440.0}}),
        ("run-ias", {"system": {"repeats": 1000000000}}),
        ("run-ias", {"sequence": {"ringdown_samples": 100000000}}),
        ("run-ias", {"sequence": {"samples_per_fringe": 1000000}}),
        ("fringe-sweep", {"kind": "fringe_sweep", "system": {"repeats": 1600},
                          "sweep": {"fringe_counts": [4, 64]}}),
        ("run-ias", {"system": {"gamma_per_s": math.nan}}),
        ("run-ias", {"system": {"gamma_per_s": math.inf}}),
        ("run-ias", {"sequence": {"u_readout_v": -math.inf}}),
        ("run-ias", {"system": {"gamma_per_s": 10**400}}),
        ("run-ias", {"system": {"readout_noise_std": math.nan}}),
        ("run-ias", {"sequence": {"u_initial_v": math.nan}}),
        ("run-ias", {"tuning": {"splitting_hz": math.nan}}),
        ("run-ias", {"filter": {"corner_hz": math.nan}}),
        ("run-ias", {"telegraph": {"rate_hz": math.nan, "amplitude_hz": 1.0}}),
        ("run-ias", {"telegraph": {}}),
        ("run-ias", {"sweep": {"fringe_counts": [4]}}),
        ("run-ias", {"perturbation": {"shift_true_hz": 3440.0}}),
        ("run-ias", {"sequence": {"ramp_kind": "soft", "steps_per_period": 10**9}}),
        ("run-ias", {"sequence": {"ramp_kind": "soft", "optimizer_steps_per_period": 10**9}}),
        ("run-ias", {"sequence": {"ramp_kind": "soft", "edge_cycles": 1e300}}),
        ("run-ias", {"sequence": {"ramp_kind": "soft"}, "processing": {"pad_factor": 10**9}}),
        ("fringe-sweep", {"kind": "fringe_sweep", "sequence": {"ramp_kind": "soft"},
                          "sweep": {"fringe_counts": [4, 64]},
                          "processing": {"pad_factor": 2000}}),
        ("run-ias", {"sequence": {"ramp_kind": "soft"},
                     "tuning": {"oop_coefficient_hz_per_v2": 1e308}}),
        ("run-ias", {"tuning": {"oop_coefficient_hz_per_v2": 1e307}}),
        ("sense", {"kind": "perturbation", "perturbation": {"shift_true_hz": 10000.0}}),
        ("sense", {"kind": "perturbation", "perturbation": {"shift_true_hz": -42650.0}}),
    ],
    ids=[
        "fringes_1", "windowed_fringes_3", "samples_per_fringe_1", "ringdown_samples_2",
        "ringdown_duration_negative", "steps_per_period_10",
        "optimizer_steps_per_period_1", "windowed_perturbation_fringes_2",
        "repeats_1e9", "ringdown_samples_1e8", "trace_samples_over_cap",
        "sweep_trace_samples_over_cap",
        "gamma_nan", "gamma_infinity", "u_readout_minus_infinity", "gamma_1e400",
        "readout_noise_std_nan", "u_initial_nan", "splitting_nan", "filter_corner_nan",
        "telegraph_rate_nan", "telegraph_empty", "sweep_on_ias", "perturbation_on_ias",
        "steps_per_period_1e9", "optimizer_steps_per_period_1e9", "edge_cycles_1e300",
        "pad_factor_1e9", "sweep_fft_over_cap", "oop_coefficient_overflows_rad_s",
        "oop_coefficient_overflows_detuning", "perturbed_detuning_ratio_below_10",
        "perturbed_splitting_zero",
    ],
)
def test_invalid_sequences_fail_before_running(tmp_path, capsys, command, edits):
    scenario = write_scenario(tmp_path, **edits)
    out = tmp_path / "out"
    assert main([command, str(scenario), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_overrides_are_held_to_the_shot_caps(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run-ias", str(scenario), "--out", str(out), "--repeats", "1000000000"]) == 1
    assert "per grid point" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ia.ConfigurationError, match="per grid point"):
        ia.parse_scenario(json.loads(scenario.read_text()), repeats_override=20001)
    ia.parse_scenario(json.loads(scenario.read_text()), repeats_override=20000)  # at the cap

    sweep = write_scenario(tmp_path, name="sweep", kind="fringe_sweep")
    assert main(["fringe-sweep", str(sweep), "--out", str(out), "--repeats", "1600",
                 "--fringes", "4", "64"]) == 1
    assert "exceeds 50000000" in capsys.readouterr().err
    assert not out.exists()


def test_fringe_override_is_held_to_the_fft_cap(tmp_path, capsys):
    scenario = write_scenario(tmp_path, kind="fringe_sweep", sweep={"fringe_counts": [4]},
                              processing={"pad_factor": 2000})
    out = tmp_path / "out"
    assert main(["fringe-sweep", str(scenario), "--out", str(out), "--fringes", "4", "64"]) == 1
    assert "FFT cap" in capsys.readouterr().err
    assert not out.exists()


def test_present_sections_are_read_in_full(tmp_path):
    doc = json.loads(write_scenario(tmp_path).read_text())
    assert ia.parse_scenario(doc).design.bandwidth_filter is None
    assert ia.parse_scenario({**doc, "filter": {}}).design.bandwidth_filter == ia.FilterModel()
    assert ia.parse_scenario({**doc, "processing": {}}).processing == ia.ProcessingOptions()
    assert ia.parse_scenario({**doc, "telegraph": None}).telegraph is None
    with pytest.raises(ia.ConfigurationError, match="processing: expected a JSON object"):
        ia.parse_scenario({**doc, "processing": None})
    with pytest.raises(ia.ConfigurationError, match=r"unknown keys \['sweep'\]"):
        ia.parse_scenario({**doc, "kind": "perturbation", "sweep": {},
                           "perturbation": {"shift_true_hz": 3440.0}})


def test_unreadable_json_exits_one(tmp_path, capsys):
    for name, text in [("digits", "{\"seed\": " + "1" * 5000 + "}"),
                       ("nested", "[" * 100_000 + "]" * 100_000)]:
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        out = tmp_path / name
        assert main(["run-ias", str(path), "--out", str(out)]) == 1
        assert "invalid JSON" in capsys.readouterr().err
        assert not out.exists()


def _json_values():
    special = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -10**400, 2**64, 1e308])
    leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    nested = st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=6), children, max_size=3),
        max_leaves=6,
    )
    return special | leaves | nested


def _paths(doc, prefix=()):
    """Every (container path, key) in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


_SCHEMA_KEYS = sorted(set(SCHEMA) | {key for fields in SCHEMA.values() for key, _, _ in fields})


@pytest.mark.parametrize("name", ["baseline_run.json", "charge_step.json",
                                  "fringe_sweep.json", "ramp_comparison.json"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_scenarios_parse_or_raise_configuration_error(name, data):
    doc = json.loads(ia.bundled_path(name).read_text())
    for _ in range(data.draw(st.integers(1, 3))):
        prefix, key = data.draw(st.sampled_from(list(_paths(doc))))
        container = doc
        for step in prefix:
            container = container[step]
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            container[key] = data.draw(_json_values())
        elif action == "delete":
            del container[key]
        elif isinstance(container, dict):
            new_key = data.draw(st.sampled_from(_SCHEMA_KEYS) | st.text(max_size=6))
            container[new_key] = data.draw(_json_values())
        if not isinstance(doc, dict) or not doc:
            break
    try:
        assert isinstance(ia.parse_scenario(doc), ia.Scenario)
    except ia.ConfigurationError:
        pass


def test_fit_spectrum_on_the_bundled_fixture(tmp_path):
    out = tmp_path / "fit"
    assert main(["fit-spectrum", str(ia.bundled_path("crossing_data.csv")),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "fit.json").read_text())
    assert doc["model"]["splitting_hz"] == pytest.approx(41304.4, abs=0.5)
    assert doc["report"]["converged"] is True


def test_fit_spectrum_error_paths(tmp_path, capsys):
    single = tmp_path / "single.csv"
    rows = ["voltage_V,frequency_Hz,branch"]
    rows += [f"{u},{7.3e6 + 1000.0 * u * u},lower" for u in range(-3, 4)]
    single.write_text("\n".join(rows) + "\n")
    assert main(["fit-spectrum", str(single), "--out", str(tmp_path / "f1")]) == 2
    assert "unconstrained" in capsys.readouterr().err

    malformed = tmp_path / "malformed.csv"
    malformed.write_text("volts,freq\n1,2\n")
    assert main(["fit-spectrum", str(malformed), "--out", str(tmp_path / "f2")]) == 1
    assert "expected header" in capsys.readouterr().err

    assert main(["fit-spectrum", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "f3")]) == 1


def test_fringe_sweep_rows_and_override(tmp_path):
    scenario = write_scenario(
        tmp_path, kind="fringe_sweep",
        sweep={"fringe_counts": [2, 4], "iterations": 2},
    )
    out = tmp_path / "sweep"
    assert main(["fringe-sweep", str(scenario), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == ("fringes,iterations,raw_hz,raw_std_hz,raw_bin_hz,"
                        "processed_hz,processed_std_hz,processed_bin_hz,"
                        "processed_error")
    assert len(lines) == 3
    assert lines[1].startswith("2,2,")
    assert "needs >= 4 fringes" in lines[1]
    doc = json.loads((out / "sweep.json").read_text())
    assert doc["rows"][1]["processed_hz"] == pytest.approx(42615.2, abs=0.5)

    out2 = tmp_path / "sweep2"
    assert main(["fringe-sweep", str(scenario), "--fringes", "4",
                 "--out", str(out2)]) == 0
    assert len((out2 / "sweep.csv").read_text().strip().splitlines()) == 2


def test_fringe_sweep_rejects_single_iteration(tmp_path, capsys):
    scenario = write_scenario(
        tmp_path, kind="fringe_sweep",
        sweep={"fringe_counts": [4], "iterations": 1},
    )
    assert main(["fringe-sweep", str(scenario), "--out", str(tmp_path / "s")]) == 1
    assert "must be >= 2" in capsys.readouterr().err


def test_sense_writes_report_and_telegraph_trace(tmp_path):
    scenario = write_scenario(
        tmp_path, kind="perturbation",
        perturbation={"shift_true_hz": 3440.0, "n_runs": 2},
        telegraph={"rate_hz": 0.2, "amplitude_hz": 3440.0, "enabled": True},
    )
    out = tmp_path / "sense"
    assert main(["sense", str(scenario), "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["manifest.json", "report.json", "telegraph_switching.csv"]
    report = json.loads((out / "report.json").read_text())
    assert report["true_shift_hz"] == pytest.approx(3440.0)
    assert report["telegraph_trace"] == "telegraph_switching.csv"
    assert "reference_comparison" in report
    lines = (out / "telegraph_switching.csv").read_text().strip().splitlines()
    assert lines[0] == "time_s,offset_hz"
    assert len(lines) == 1 + 400  # 20 mean dwells sampled at dt = 0.05/rate
    levels = {float(line.split(",")[1]) for line in lines[1:]}
    assert levels <= {-1720.0, 1720.0}


def test_show_pulse_file_sets_by_ramp_kind(tmp_path):
    soft = write_scenario(tmp_path, name="soft", sequence={"ramp_kind": "soft"})
    out_soft = tmp_path / "soft_out"
    assert main(["show-pulse", str(soft), "--out", str(out_soft)]) == 0
    assert sorted(p.name for p in out_soft.iterdir()) == [
        "manifest.json", "pulse.json", "pulse_soft.csv",
    ]
    doc = json.loads((out_soft / "pulse.json").read_text())
    assert "ramp_soft" in doc and "prior_hz" in doc
    header = (out_soft / "pulse_soft.csv").read_text().splitlines()[0]
    assert header == "time_s,voltage_V,detuning_rad_s"

    ideal = write_scenario(tmp_path, name="ideal")
    out_ideal = tmp_path / "ideal_out"
    assert main(["show-pulse", str(ideal), "--out", str(out_ideal)]) == 0
    assert sorted(p.name for p in out_ideal.iterdir()) == [
        "manifest.json", "pulse.json",
    ]


def test_show_pulse_is_held_to_the_waveform_sample_cap(tmp_path, capsys, monkeypatch):
    def search(*args):
        raise AssertionError("the correction search ran before the sample cap was checked")

    monkeypatch.setattr(ia.SequenceDesign, "optimize_edges", search)
    for kind in ("soft", "corrected"):
        scenario = write_scenario(tmp_path, name=kind, sequence={"ramp_kind": kind})
        out = tmp_path / f"{kind}_out"
        assert main(["show-pulse", str(scenario), "--out", str(out), "--wait-fringes", "1e6"]) == 1
        assert f"exceed {ia.pulse.MAX_WAVEFORM_SAMPLES} samples" in capsys.readouterr().err
        assert not out.exists()


def test_show_pulse_on_the_bundled_comparison_scenario(tmp_path):
    out = tmp_path / "pulse"
    assert main(["show-pulse", str(ia.bundled_path("ramp_comparison.json")),
                 "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "manifest.json", "pulse.json", "pulse_corrected.csv",
        "pulse_corrected_filtered.csv", "pulse_soft.csv",
        "pulse_soft_filtered.csv",
    ]
    header = (out / "pulse_corrected.csv").read_text().splitlines()[0]
    assert header == "time_s,voltage_V,detuning_rad_s"
    doc = json.loads((out / "pulse.json").read_text())
    assert "correction" in doc

    # The soft companion of a corrected scenario is the soft scenario's pulse.
    soft_doc = json.loads(ia.bundled_path("ramp_comparison.json").read_text())
    soft_doc["sequence"]["ramp_kind"] = "soft"
    soft = tmp_path / "ramp_soft.json"
    soft.write_text(json.dumps(soft_doc))
    out_soft = tmp_path / "pulse_soft"
    assert main(["show-pulse", str(soft), "--out", str(out_soft)]) == 0
    for name in ("pulse_soft.csv", "pulse_soft_filtered.csv"):
        assert (out_soft / name).read_bytes() == (out / name).read_bytes()
    assert json.loads((out_soft / "pulse.json").read_text())["ramp_soft"] == doc["ramp_soft"]


def test_import_leaves_scipy_optimize_unloaded():
    # Only fitting and the correction search need the optimizer; every
    # command pays for the package import.
    src = str(Path(ia.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = "import sys, iaspec; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_bundled_scenarios_all_load():
    names = ia.bundled_scenario_names()
    assert {
        "baseline_run.json",
        "charge_step.json",
        "fringe_sweep.json",
        "ramp_comparison.json",
    } <= set(names)
    for name in names:
        scenario = ia.load_scenario(ia.bundled_path(name))
        assert scenario.seed == 20260814
