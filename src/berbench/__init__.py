"""Deterministic BER test-campaign engine for modem traffic interfaces.

A simulated bench (pattern generator, fault channel, modem loopback,
converter chains, BER meter) plus the orchestration that sweeps bit
rates, tuning frequencies, and interface types into a verdict table.
"""

import os

# berbench calls no BLAS routine, yet numpy's OpenBLAS starts a worker
# thread per CPU when numpy loads.  One thread is enough; a value the user
# set is kept, and the environment is as it was once numpy is loaded.
_BLAS_THREADS = "OPENBLAS_NUM_THREADS"
_user_blas_threads = os.environ.get(_BLAS_THREADS)
os.environ.setdefault(_BLAS_THREADS, "1")
try:
    import numpy  # noqa: F401
finally:
    if _user_blas_threads is None:
        del os.environ[_BLAS_THREADS]

from .channel import Bsc, FixedMask, GilbertElliott, Ideal
from .core import (
    BerValue,
    InterfaceKind,
    Outcome,
    REPORT_ORDER,
    Verdict,
    format_ber,
    format_duration,
    parse_interface,
)
from .meter import BerMeasurement, MeasurementConfig, measure, required_bits, required_duration
from .prbs import PrbsSpec, SyncState, count_errors, generate, synchronize
from .procedure import (
    CampaignConfig,
    CampaignReport,
    FrequencyPoints,
    InterfaceResult,
    VerdictPolicy,
    apply_verdict,
    compute_frequencies,
    run_campaign,
)
from .testbed import (
    AnalyzerProfile,
    ConverterSpec,
    DutProfile,
    default_catalog,
    default_profile,
    dut_open_session,
    loopback,
    resolve_chain,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyzerProfile",
    "BerMeasurement",
    "BerValue",
    "Bsc",
    "CampaignConfig",
    "CampaignReport",
    "ConverterSpec",
    "DutProfile",
    "FixedMask",
    "FrequencyPoints",
    "GilbertElliott",
    "Ideal",
    "InterfaceKind",
    "InterfaceResult",
    "MeasurementConfig",
    "Outcome",
    "PrbsSpec",
    "REPORT_ORDER",
    "SyncState",
    "Verdict",
    "VerdictPolicy",
    "apply_verdict",
    "compute_frequencies",
    "count_errors",
    "default_catalog",
    "default_profile",
    "dut_open_session",
    "format_ber",
    "format_duration",
    "generate",
    "loopback",
    "measure",
    "parse_interface",
    "required_bits",
    "required_duration",
    "resolve_chain",
    "run_campaign",
    "synchronize",
    "__version__",
]
