"""Simulation and estimation toolkit for iterative adaptive spectroscopy
of a voltage-tunable two-mode resonator.

The package simulates the five-step interference sequence of a coupled
nanobeam resonator pair (initialize far from the avoided crossing, sweep
in, wait, sweep out, ring down), estimates the minimal normal-mode
splitting from as few as four fringes, and converts splitting shifts into
charge-sensing quantities.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    DomainError,
    FitError,
    IasRunError,
    NoPeakError,
    ReadoutError,
    TraceError,
    UnderdeterminedFitError,
    UndefinedVisibilityError,
)
from .model import (
    BareModes,
    FitReport,
    ModeTuning,
    SpectroscopyData,
    TuningModel,
    branch_frequencies,
    fit_avoided_crossing,
    normal_mode_frequencies,
    synthesize_branch_data,
)
from .pulse import (
    CorrectionResult,
    FilterModel,
    PulseWaveform,
    RampSpec,
    apply_bandwidth_filter,
    build_edge_waveform,
    build_sequence_waveform,
    edge_duration_for_prior,
    edge_infidelity,
    edge_shape,
    filter_signal,
    optimize_correction,
    plan_edge_steps,
)
from .dynamics import (
    RingdownRecord,
    SystemParams,
    crossing_rotations,
    draw_shots,
    edge_propagator,
    ringdown_readouts,
    simulate_ringdown,
)
from .ramsey import (
    RamseyConfig,
    RamseyTrace,
    SequenceDesign,
    acquire_trace,
    visibility,
)
from .estimator import (
    EstimateRecord,
    IasResult,
    IterationRecord,
    ProcessingOptions,
    estimate_frequency,
    estimate_peak,
    fringe_sweep,
    ias_run,
)
from .sensing import (
    ChargeModel,
    PerturbationScenario,
    TelegraphNoise,
    reference_comparison,
    run_perturbation_experiment,
)
from .scenario import Scenario, bundled_path, bundled_scenario_names, load_scenario, parse_scenario
