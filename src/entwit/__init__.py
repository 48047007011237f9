"""Entanglement detection from nonequilibrium work statistics on spin chains.

The package compares relative-entropy distances between a reference entangled
state and candidate thermal states; because the relevant distances reduce to
free-energy differences and exponential work averages, the whole test can be
phrased in quantities a two-point-measurement experiment produces.
"""

import atexit
import gc
import os

# OpenBLAS reads OPENBLAS_THREAD_TIMEOUT once, when numpy loads it: after each
# multithreaded call its idle worker spins for 2**value cycles before it
# sleeps.  The default, 28, is about 0.13 s of spinning (2.1 GHz) after the
# library loads and after every call on a 64x64 or larger matrix, so a run
# used 1.6-1.7 times its wall time in CPU.  At 24 (about 8 ms) the CPU time
# of every benchmark workload fell by 27-40% with wall time unchanged, and
# the worker still spins through the gaps of a compute loop: a non-commuting
# Trotter product at n = 9 (1000 steps) or n = 10 (300 steps) puts it to
# sleep 0 times, against 760-970 times at 20 (0.5 ms), where each wake cost
# about 1 ms and the product ran 15-30% slower.  The thread count and the
# split of the work do not change, so no output byte does.  A value the
# caller set wins; a process that imported numpy first keeps the default.
BLAS_THREAD_TIMEOUT = "24"
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", BLAS_THREAD_TIMEOUT)

# Finalization otherwise runs full collections over the ~22k objects that
# numpy leaves behind, which takes as long as a small run itself; frozen
# objects are skipped.  Registered on import, so the CLI and every API
# caller exit the same way; an object still held in a reference cycle at
# exit is then not finalized, so close files before exit.
atexit.register(gc.freeze)

from .errors import ConfigError, EntwitError, NumericalCheckError
from .open_system import (
    CompositeSystem,
    decoupled,
    effective_hamiltonian,
    full_hamiltonian,
    log_bath_partition,
    open_trotter_evolution,
    open_witness,
    reduced_state,
    split_chain,
)
from .operators import (
    DensityMatrix,
    HermitianOperator,
    QubitRegister,
    SpectralDecomposition,
    UnitaryOperator,
    density_from_json,
    matrix_from_json,
    matrix_to_json,
    spectral_decompose,
    unitary_from_json,
)
from .spin_models import (
    DrivingSchedule,
    XXZParams,
    build_xxz,
    params_at,
    schedule_from_config,
    xxz_params_from_config,
)
from .thermo import (
    ThermalSpec,
    delta_beta_f,
    gibbs_relative_entropy,
    relative_entropy,
    thermal_state,
)
from .witness import (
    DetectionProtocol,
    GridAxis,
    SweepGrid,
    SweepReference,
    WitnessReport,
    build_css,
    build_w_state,
    detection_protocol,
    reference_params,
    reference_state,
    state_checksum,
    sweep_detection,
    sweep_metadata,
    sweep_reference,
    witness_evaluate,
    write_sweep_csv,
)
from .work_stats import (
    EstimatorSummary,
    TrajectoryBatch,
    TransitionMatrix,
    WorkDistribution,
    exact_evolution,
    log_work_average,
    relative_entropy_via_work,
    sample_tpm,
    transition_matrix,
    trotter_evolution,
    work_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "CompositeSystem",
    "ConfigError",
    "DensityMatrix",
    "DetectionProtocol",
    "DrivingSchedule",
    "EntwitError",
    "EstimatorSummary",
    "GridAxis",
    "HermitianOperator",
    "NumericalCheckError",
    "QubitRegister",
    "SpectralDecomposition",
    "SweepGrid",
    "SweepReference",
    "ThermalSpec",
    "TrajectoryBatch",
    "TransitionMatrix",
    "UnitaryOperator",
    "WitnessReport",
    "WorkDistribution",
    "XXZParams",
    "build_css",
    "build_w_state",
    "build_xxz",
    "decoupled",
    "delta_beta_f",
    "density_from_json",
    "detection_protocol",
    "effective_hamiltonian",
    "exact_evolution",
    "full_hamiltonian",
    "gibbs_relative_entropy",
    "log_bath_partition",
    "log_work_average",
    "matrix_from_json",
    "matrix_to_json",
    "open_trotter_evolution",
    "open_witness",
    "params_at",
    "reduced_state",
    "reference_params",
    "reference_state",
    "relative_entropy",
    "relative_entropy_via_work",
    "sample_tpm",
    "schedule_from_config",
    "spectral_decompose",
    "split_chain",
    "state_checksum",
    "sweep_detection",
    "sweep_metadata",
    "sweep_reference",
    "thermal_state",
    "transition_matrix",
    "trotter_evolution",
    "unitary_from_json",
    "witness_evaluate",
    "work_distribution",
    "write_sweep_csv",
    "xxz_params_from_config",
]
