"""The package's public names and the parameters of its entry points."""

import inspect

import wgherald
from wgherald import formulas, protocol

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

# Rates are in units of gamma_g = 1, so no entry point takes gamma_g.
PARAMETERS = {
    wgherald.run_step: ["p", "mode", "input_target_state", "T"],
    wgherald.run_step_fixed_ratio: ["N", "m", "p1d", "mode", "input_target_state"],
    wgherald.run_step_fresh_level: ["N", "p1d"],
    wgherald.run_step_continuous_drive: ["N", "m", "p1d", "omega", "T", "zero_decay"],
    protocol.run_step_pulsed: ["N", "m", "p1d", "omega_pulse", "T"],
    wgherald.run_accumulation: ["N", "m_target", "p1d", "mode", "refine_T"],
    wgherald.run_transfer: ["p", "n_grid"],
    wgherald.DissipativeParams.from_purcell: ["N", "m", "p1d", "gamma_s", "drive_omega"],
    wgherald.build_H_bandgap: ["p"],
    formulas.table1_compare: ["m", "N", "p1d", "xi", "eta", "x"],
}


def test_public_names_are_pinned_and_resolve():
    assert sorted(wgherald.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(wgherald, name)


def test_entry_point_parameters_are_pinned():
    for fn, names in PARAMETERS.items():
        assert list(inspect.signature(fn).parameters) == names, fn.__qualname__
