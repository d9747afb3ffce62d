"""The package's public names."""

import wgherald

PUBLIC = [
    "AccumulationResult", "BandgapParams", "BasisLabel", "BasisSet",
    "DissipativeParams", "HPMode", "JumpChannel", "OptimalParams",
    "Propagator", "StepResult", "TransferRecord", "build_H_bandgap",
    "build_H_coherent", "build_H_nh", "build_basis", "build_jump_operators",
    "formulas", "goal_state", "ideal_step_probability", "norm_sq",
    "optimal_parameters", "overlap", "run_accumulation", "run_step",
    "run_step_continuous_drive", "run_step_fixed_ratio",
    "run_step_fresh_level", "run_transfer",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(wgherald.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(wgherald, name)
