"""The package's public names and the parameters of its entry points."""

import dataclasses
import inspect

import wgherald
from wgherald import formulas, linalg, protocol

PUBLIC = [
    "AccumulationResult", "BandgapParams", "BasisLabel", "BasisSet",
    "DissipativeParams", "HPMode", "JumpChannel", "Propagator",
    "StepResult", "TransferRecord", "build_H_bandgap", "build_H_coherent",
    "build_H_nh", "build_basis", "build_jump_operators", "formulas",
    "goal_state", "ideal_step_probability", "norm_sq", "optimal_time",
    "overlap", "run_accumulation", "run_step", "run_step_continuous_drive",
    "run_step_fixed_ratio", "run_step_fresh_level", "run_transfer",
]

# Rates are in units of gamma_g = 1, so no entry point or model takes gamma_g.
PARAMETERS = {
    wgherald.run_step: ["p", "mode", "input_target_state", "T"],
    wgherald.run_step_fixed_ratio: ["N", "m", "p1d", "mode"],
    wgherald.run_step_fresh_level: ["N", "p1d"],
    wgherald.run_step_continuous_drive: ["N", "m", "p1d", "omega", "T", "zero_decay"],
    wgherald.run_accumulation: ["N", "m_target", "p1d", "mode", "refine_T"],
    wgherald.run_transfer: ["p"],
    wgherald.DissipativeParams.from_purcell: ["N", "m", "p1d", "gamma_s"],
    wgherald.build_H_bandgap: ["p"],
    formulas.table1_compare: ["m", "N", "p1d", "xi", "eta", "x"],
    # a Propagator takes its one state when it is built
    linalg.Propagator.__init__: ["self", "h", "v0", "frame"],
    linalg.Propagator.apply: ["self", "t"],
    linalg.Propagator.population: ["self", "times", "index"],
    linalg.Propagator.integrated_expectation: ["self", "ops", "t"],
}

# Every public callable of the protocol module is an entry point some caller
# outside the tests uses: the package exports, the sweep table or the CLI.
PROTOCOL_CALLABLES = [
    "AccumulationResult", "ProtocolError", "StepDiagnostics", "StepResult",
    "run_accumulation", "run_step", "run_step_continuous_drive",
    "run_step_fixed_ratio", "run_step_fresh_level",
]

# A model object describes the undriven model; a drive is a term a protocol
# step adds to its generator, so no params field carries one.
FIELDS = {
    wgherald.DissipativeParams: ["N", "m", "gamma_s", "gamma_star"],
    wgherald.BandgapParams: ["N", "xi", "m", "gamma_star"],
}


def test_public_names_are_pinned_and_resolve():
    assert sorted(wgherald.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(wgherald, name)


def test_entry_point_parameters_are_pinned():
    for fn, names in PARAMETERS.items():
        assert list(inspect.signature(fn).parameters) == names, fn.__qualname__


def test_protocol_callables_are_pinned():
    defined = sorted(name for name, obj in vars(protocol).items()
                     if callable(obj) and not name.startswith("_")
                     and getattr(obj, "__module__", None) == protocol.__name__)
    assert defined == PROTOCOL_CALLABLES


def test_model_fields_are_pinned():
    for cls, names in FIELDS.items():
        assert [f.name for f in dataclasses.fields(cls)] == names, cls.__name__
