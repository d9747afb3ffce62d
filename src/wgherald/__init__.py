"""Heralded preparation of collective atomic excitations in waveguide QED.

Simulators for the double-mirrors (dissipative) and finite-range bandgap
configurations, the exact and linearized symmetric-subspace representations,
closed-form benchmark formulas, and a sweep/fit command-line harness.
"""

from .basis import (
    BasisLabel,
    BasisSet,
    CollectiveOperator,
    HPMode,
    build_basis,
    goal_state,
)
from .bandgap import (
    BandgapParams,
    LambShifts,
    TransferRecord,
    build_H_bandgap,
    ideal_step_probability,
    lamb_shift_compensation,
    run_transfer,
)
from .dissipative import (
    DissipativeParams,
    JumpChannel,
    OptimalParams,
    build_H_coherent,
    build_H_nh,
    build_jump_operators,
    optimal_parameters,
)
from .linalg import Propagator, expm_apply, is_dissipative, norm_sq, overlap
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
    "CollectiveOperator", "DissipativeParams", "HPMode", "JumpChannel",
    "LambShifts", "OptimalParams", "Propagator", "StepResult",
    "TransferRecord", "build_H_bandgap", "build_H_coherent", "build_H_nh",
    "build_basis", "build_jump_operators", "expm_apply",
    "formulas", "goal_state", "ideal_step_probability", "is_dissipative",
    "lamb_shift_compensation", "norm_sq", "optimal_parameters", "overlap",
    "run_accumulation", "run_step", "run_step_continuous_drive",
    "run_step_fixed_ratio", "run_step_fresh_level", "run_transfer",
]

__version__ = "0.1.0"
