"""Chirp-based channel sounding for asynchronous multi-user MIMO systems.

The package covers the full sounding chain:

* ``waveform`` -- the chirp waveform family, its periodic auto/cross
  correlation identities, PAPR, and the per-scenario design constraints.
* ``channel`` -- multipath links with integer and fractional clock offsets,
  raised-cosine pulse shaping, AWGN, and scenario synthesis.
* ``estimator`` -- Toeplitz sounding matrices, matched filters, the joint
  (offset, taps) estimator, and segment analysis of full-period outputs.
* ``metrics`` -- MSE, the estimator variance bound, frequency responses,
  and synchronous vs asynchronous capacity.
* ``harness`` -- seeded Monte-Carlo experiments with CSV/record output.
* ``cli`` -- the ``chirpsounder`` command-line front end.
"""

from .channel import (
    LinkChannel,
    MimoScenario,
    PulseShape,
    awgn,
    build_pulse,
    draw_fractional_offsets,
    noise_variance_for_snr,
    raised_cosine,
    receive_fractional,
    receive_integer,
    synthesize_channels,
    with_fractional_offsets,
)
from .config import PRESETS, ScenarioConfig, from_dict, from_json, load, preset
from .errors import (
    ChirpSounderError,
    ConfigError,
    ConstraintViolationError,
    DimensionMismatchError,
    IllConditionedError,
    NumericalError,
    UndefinedResultError,
)
from .estimator import (
    EstimateReport,
    SegmentedOutput,
    SoundingMatrix,
    average_segments,
    build_shaping_matrix,
    build_sounding_matrix,
    joint_estimate,
    matched_filter_fractional,
    matched_filter_integer,
    segmented_output,
)
from .harness import (
    RunResult,
    derive_rng,
    emit_results,
    run_capacity_experiment,
    run_mse_experiment,
    run_sounding,
)
from .metrics import (
    CapacityResult,
    FrequencyGrid,
    capacity,
    capacity_equivalence_report,
    crb,
    frequency_response,
    mse,
)
from .waveform import (
    ConstraintReport,
    ScenarioKind,
    SoundingWaveform,
    check_design_constraints,
    closed_form_autocorrelation,
    cyclic_correlation,
    generate_chirp,
    papr,
    periodic_autocorrelation,
    periodic_crosscorrelation,
)

__version__ = "0.1.0"
