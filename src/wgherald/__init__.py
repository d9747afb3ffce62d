"""Heralded preparation of collective atomic excitations in waveguide QED.

Simulators for the double-mirrors (dissipative) and finite-range bandgap
configurations, the exact and linearized symmetric-subspace representations,
closed-form benchmark formulas, and a sweep/fit command-line harness.
"""

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
    build_H_bandgap,
    ideal_step_probability,
    run_transfer,
)
from .dissipative import (
    DissipativeParams,
    JumpChannel,
    build_H_coherent,
    build_H_nh,
    build_jump_operators,
    optimal_time,
)
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
    "DissipativeParams", "HPMode", "JumpChannel", "Propagator",
    "StepResult", "TransferRecord", "build_H_bandgap", "build_H_coherent",
    "build_H_nh", "build_basis", "build_jump_operators", "formulas",
    "goal_state", "ideal_step_probability", "norm_sq", "optimal_time",
    "overlap", "run_accumulation", "run_step", "run_step_continuous_drive",
    "run_step_fixed_ratio", "run_step_fresh_level", "run_transfer",
]

__version__ = "0.1.0"
