"""Skew information, local quantum uncertainty, and steering toolkit.

Computes information-content metrics of finite-dimensional quantum
states (skew information, variance, total and local uncertainty, local
quantum uncertainty, exact on a qubit side) and steering-induced
quantities, and verifies the channel/steering inequalities between them
by seeded Monte Carlo sampling with machine-readable reports.
"""

from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    InvalidChannel,
    InvalidState,
    NoConvergence,
    NotHermitian,
    NotPSD,
    ParseError,
    SkewInfoError,
    UsageError,
)
from .linalg import (
    HermitianEigenSystem,
    commutator,
    hermitian_eig,
    kron,
    partial_trace,
    sqrtm_psd,
    trace_inner,
)
from .metrics import (
    LquResult,
    lqu,
    lqu_2xd,
    q_local,
    q_total,
    skew_information,
    variance,
)
from .optim import OptimizerOptions
from .rand import (
    commuting_kraus_channel,
    default_spectrum,
    ginibre_state,
    haar_unitaries,
    haar_unitary,
    random_cptp,
    random_nondegenerate_observable,
    stream,
)
from .states import (
    BipartiteState,
    DensityMatrix,
    KrausChannel,
    NondegenerateObservable,
    Observable,
    apply_channel,
)
from .steering import (
    MeasurementBasis,
    SteeringEnsemble,
    SteeringSearchResult,
    average_steering_induced_q,
    steer,
    steered_q_sum,
    steered_skew_sum,
    steering_induced_skew,
)
from .verify import (
    TrialRecord,
    VerificationReport,
    read_records,
    summary_text,
    verify_avg_bound,
    verify_claim1,
    verify_claim2,
    write_report,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteState",
    "DegenerateSpectrum",
    "DensityMatrix",
    "DimensionMismatch",
    "HermitianEigenSystem",
    "InvalidChannel",
    "InvalidState",
    "KrausChannel",
    "LquResult",
    "MeasurementBasis",
    "NoConvergence",
    "NondegenerateObservable",
    "NotHermitian",
    "NotPSD",
    "Observable",
    "OptimizerOptions",
    "ParseError",
    "SkewInfoError",
    "SteeringEnsemble",
    "SteeringSearchResult",
    "TrialRecord",
    "UsageError",
    "VerificationReport",
    "apply_channel",
    "average_steering_induced_q",
    "commutator",
    "commuting_kraus_channel",
    "default_spectrum",
    "ginibre_state",
    "haar_unitaries",
    "haar_unitary",
    "hermitian_eig",
    "kron",
    "lqu",
    "lqu_2xd",
    "partial_trace",
    "q_local",
    "q_total",
    "random_cptp",
    "random_nondegenerate_observable",
    "read_records",
    "skew_information",
    "sqrtm_psd",
    "steer",
    "steered_q_sum",
    "steered_skew_sum",
    "steering_induced_skew",
    "stream",
    "summary_text",
    "trace_inner",
    "variance",
    "verify_avg_bound",
    "verify_claim1",
    "verify_claim2",
    "write_report",
]
