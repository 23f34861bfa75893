"""The package's public surface: its export list and the README's example."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import balchain
from balchain import (
    BALANCING,
    BETA,
    ParameterError,
    QuadInt,
    SequenceKind,
    StochasticMatrix,
    abs_bound,
    balancing_chain,
    beta_power_row,
    build,
    closed_form,
    infinite_recursion_identity,
    infinite_steady_state,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    n_step,
    power_iteration,
    sequence,
    silver_ratio_gap,
    simulate,
    solve_exact,
    sqrt2_bounds,
    term,
    unnormalized_recursion_check,
    validate,
    verify_family,
)

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("chains", "quadratic", "sequences", "steady", "verify")


def test_package_exports_exactly_the_layers_exports():
    expected = [name for layer in LAYERS for name in getattr(balchain, layer).__all__]
    assert balchain.__all__ == expected
    assert len(set(expected)) == len(expected)
    for name in expected:
        assert hasattr(balchain, name), name
    assert not hasattr(balchain, "family")


def test_every_traced_name_is_a_public_function_of_its_layer():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, names in spans.TRACED.items():
        public = spans.public_functions(importlib.import_module(f"balchain.{layer}"))
        for name in names:
            assert name in public, f"{layer}.{name}"


def test_readme_library_sketch_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library sketch", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})


M = build(balancing_chain(4))
# each public int-taking argument, called with one value; every other
# argument is small, so no value starts a large case
INT_ARGUMENTS = {
    "term": lambda v: term(BALANCING, v),
    "sequence": lambda v: sequence(BALANCING, v),
    "infinite_steady_state": infinite_steady_state,
    "infinite_recursion_identity": infinite_recursion_identity,
    "unnormalized_recursion_check.n": lambda v: unnormalized_recursion_check(v, 1),
    "unnormalized_recursion_check.count": lambda v: unnormalized_recursion_check(10, v),
    "n_step": lambda v: n_step(M, v),
    "simulate.steps": lambda v: simulate(M, v, 1),
    "simulate.seed": lambda v: simulate(M, 10, v),
    "simulate.start": lambda v: simulate(M, 10, 1, v),
    "power_iteration.max_iter": lambda v: power_iteration(M, max_iter=v),
    "power_iteration.tol": lambda v: power_iteration(M, tol=v),
    "sqrt2_bounds": sqrt2_bounds,
    "abs_bound.s": lambda v: abs_bound(1, v),
    "abs_bound.digits": lambda v: abs_bound(1, -1, v),
    "silver_ratio_gap.n": silver_ratio_gap,
    "silver_ratio_gap.digits": lambda v: silver_ratio_gap(5, v),
    "beta_power_row": beta_power_row,
    "StochasticMatrix.from_cells.n": lambda v: StochasticMatrix.from_cells(v, {}),
    "QuadInt.__pow__": lambda v: BETA**v,
    "QuadInt.a": lambda v: QuadInt(v, 0),
    "QuadInt.b": lambda v: QuadInt(0, v),
}


# each public entry point that takes a matrix or a family, called with one value
MATRIX_ARGUMENTS = {
    "validate": validate,
    "solve_exact": solve_exact,
    "power_iteration": power_iteration,
    "n_step": lambda v: n_step(v, 2),
    "simulate": lambda v: simulate(v, 10, 1),
    "matrix_to_json": matrix_to_json,
    "matrix_to_csv": matrix_to_csv,
    "matrix_from_json": matrix_from_json,
    "build": build,
    "closed_form": closed_form,
    "verify_family": verify_family,
}


# each public entry point that takes a sequence kind, called with one value
KIND_ARGUMENTS = {
    "term": lambda v: term(v, 3),
    "sequence": lambda v: sequence(v, 3),
}


@pytest.mark.parametrize("value", [None, "balancing", [[1]]], ids=repr)
@pytest.mark.parametrize("entry", MATRIX_ARGUMENTS)
def test_matrix_and_family_arguments_raise_parameter_error(entry, value):
    # before, validate(None) raised a bare AttributeError and
    # matrix_from_json(None) a bare TypeError
    with pytest.raises(ParameterError):
        MATRIX_ARGUMENTS[entry](value)


@pytest.mark.parametrize("value", [None, "balancing", BALANCING.recurrence], ids=repr)
@pytest.mark.parametrize("entry", KIND_ARGUMENTS)
def test_kind_arguments_raise_value_error(entry, value):
    # before, term(None, 3) and sequence(None, 3) raised a bare AttributeError
    with pytest.raises(ValueError, match="^kind must be a SequenceKind, got "):
        KIND_ARGUMENTS[entry](value)


def test_sequence_kind_fields_raise_value_error():
    # before, SequenceKind("x", None) was accepted and term on it raised a
    # bare AttributeError
    with pytest.raises(ValueError, match="^recurrence must be a RecurrenceSpec, got None$"):
        SequenceKind("x", None)
    with pytest.raises(ValueError, match="^recurrence must be a RecurrenceSpec, got "):
        SequenceKind("x", BALANCING)
    with pytest.raises(ValueError, match="^name must be a str, got None$"):
        SequenceKind(None, BALANCING.recurrence)


@pytest.mark.parametrize("value", [1.5, True, None, "3", -1, 0], ids=repr)
@pytest.mark.parametrize("argument", INT_ARGUMENTS)
def test_int_arguments_raise_only_value_error(argument, value):
    # before, infinite_steady_state(2.5) raised a bare TypeError,
    # infinite_steady_state(True) returned one entry and tol=True ran
    is_int = isinstance(value, int) and not isinstance(value, bool)
    takes_float = argument == "power_iteration.tol" and isinstance(value, float)
    if is_int or takes_float:
        try:
            INT_ARGUMENTS[argument](value)
        except ValueError:
            pass
    else:
        with pytest.raises(ValueError):
            INT_ARGUMENTS[argument](value)
