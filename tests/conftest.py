"""Shared fixtures: the reference tuning law and measurement designs.

All numbers are angular frequencies (rad/s) unless a name says Hz. The
reference configuration places the avoided crossing at -8 V, initializes
at -11.5 V, and reads out at -11.2 V; the true splitting (42.65 kHz) sits
about 3% above the spectroscopic prior (41.3 kHz).
"""
import json
import math

import pytest
from hypothesis import settings

import iaspec as ia

# No per-example deadline: on a small shared host a slow example says
# nothing about correctness.
settings.register_profile("iaspec", deadline=None)
settings.load_profile("iaspec")

TWO_PI = 2.0 * math.pi
SEED = 20260814

TRUTH_HZ = 42650.0
PRIOR_HZ = 41300.0
TRUTH = TWO_PI * TRUTH_HZ
PRIOR = TWO_PI * PRIOR_HZ

U_INITIAL = -11.5
U_READOUT = -11.2


# A fast ideal-ramp scenario file for the command-line tests.
BASE_SCENARIO = {
    "name": "fast",
    "kind": "ias",
    "seed": 11,
    "tuning": {
        "oop_center_hz": 7045520.0,
        "ip_center_hz": 7514000.0,
        "oop_coefficient_hz_per_v2": 3660.0,
        "ip_coefficient_hz_per_v2": -3660.0,
        "center_voltage_v": 0.0,
        "splitting_hz": 41300.0,
    },
    "system": {
        "splitting_true_hz": 42650.0,
        "gamma_per_s": 150.0,
        "readout_noise_std": 0.0,
        "repeats": 2,
    },
    "sequence": {
        "u_initial_v": -11.5,
        "u_readout_v": -11.2,
        "ramp_kind": "ideal",
        "fringes": 4,
        "samples_per_fringe": 10,
    },
    "run": {"prior_hz": 41300.0, "max_iterations": 2},
}


def write_scenario(tmp_path, name="scenario", **edits):
    doc = json.loads(json.dumps(BASE_SCENARIO))
    for key, value in edits.items():
        if isinstance(value, dict) and key in doc:
            doc[key].update(value)
        else:
            doc[key] = value
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2))
    return path


def make_tuning(splitting_hz: float = PRIOR_HZ) -> ia.TuningModel:
    return ia.TuningModel(
        oop=ia.ModeTuning(TWO_PI * 7045520.0, TWO_PI * 3660.0),
        ip=ia.ModeTuning(TWO_PI * 7514000.0, TWO_PI * -3660.0),
        splitting=TWO_PI * splitting_hz,
    )


def make_design(tuning: ia.TuningModel, **overrides) -> ia.SequenceDesign:
    kwargs = dict(
        tuning=tuning,
        u_initial=U_INITIAL,
        u_readout=U_READOUT,
        omega0_true=TRUTH,
        kind="ideal",
        repeats=1,
    )
    kwargs.update(overrides)
    return ia.SequenceDesign(**kwargs)


@pytest.fixture(autouse=True)
def fresh_search_memo():
    """Start every test without stored correction searches.

    Tests that patch the search's collaborators must see it run, and a
    result found under a patch must not reach a later test.
    """
    ia.optimize_correction.cache_clear()


@pytest.fixture(scope="session")
def tuning() -> ia.TuningModel:
    return make_tuning()


@pytest.fixture(scope="session")
def ideal_design(tuning) -> ia.SequenceDesign:
    """Noiseless instantaneous-ramp design: traces follow the closed form."""
    return make_design(tuning)


@pytest.fixture(scope="session")
def calibrated_design(tuning) -> ia.SequenceDesign:
    """Realistic design: damping, per-shot readout noise, corrected ramps."""
    return make_design(
        tuning, gamma=150.0, noise_std=0.025, repeats=30, kind="corrected"
    )


@pytest.fixture(scope="session")
def corrections(calibrated_design):
    """Optimized (leading, trailing) edge corrections at the prior."""
    return calibrated_design.optimize_edges(PRIOR)
