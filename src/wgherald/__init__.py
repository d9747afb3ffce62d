"""Heralded preparation of collective atomic excitations in waveguide QED.

Simulators for the double-mirrors (dissipative) and finite-range bandgap
configurations, the exact and linearized symmetric-subspace representations,
closed-form benchmark formulas, and a sweep/fit command-line harness.
"""

import numpy as _np

# glibc's malloc serves blocks above its mmap threshold (128 KiB at process
# start) by mmap and returns heap-top memory past its trim threshold, so the
# few hundred KiB that each step allocates and frees would be paged in again
# at every step: 12% more page faults in a process that runs one list of the
# `accumulate-exact` benchmark, and 2% more time over its jobs (slower in 10
# of 12 fresh-process pairs on each of two seeds).  Freeing one 1 MiB mmapped
# block at import raises both thresholds (mallopt(3), dynamic mmap
# threshold).  Its pages are never touched; other allocators just allocate
# and free it.
_np.empty(1 << 17)

from .basis import (
    BasisLabel,
    BasisSet,
    HPMode,
    build_basis,
    goal_state,
)
from .bandgap import (
    BandgapParams,
    TransferRecord,
    ideal_step_probability,
    run_transfer,
)
from .dissipative import DissipativeParams, optimal_time
from .linalg import Propagator, norm_sq, overlap
from .protocol import (
    AccumulationResult,
    StepResult,
    run_accumulation,
    run_step,
    run_step_continuous_drive,
    run_step_fixed_ratio,
    run_step_fresh_level,
)
from . import formulas

__all__ = [
    "AccumulationResult", "BandgapParams", "BasisLabel", "BasisSet",
    "DissipativeParams", "HPMode", "Propagator", "StepResult",
    "TransferRecord", "build_basis", "formulas", "goal_state",
    "ideal_step_probability", "norm_sq", "optimal_time", "overlap",
    "run_accumulation", "run_step", "run_step_continuous_drive",
    "run_step_fixed_ratio", "run_step_fresh_level", "run_transfer",
]

__version__ = "0.1.0"
