"""Config validation over non-finite and edge-case values, and the CLI's exit code.

Each property states exactly which values a field accepts, so NaN, the
infinities, zero, negative zero, subnormals and huge values are all held to
it; the explicit examples make sure the non-finite ones are always tried.
"""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gathersim import FieldConfig, NodeState, RadioParams, SimConfig
from gathersim.cli import main


def over_all_floats(test):
    """Run ``test`` over hypothesis floats, always including NaN, ±inf and -0.0."""
    for value in (math.nan, math.inf, -math.inf, -0.0):
        test = example(value)(test)
    return given(st.floats())(test)


def accepted(config) -> bool:
    try:
        config.validate()
    except ValueError:
        return False
    return True


@over_all_floats
def test_field_dimensions_accepted_iff_finite_and_positive(x):
    ok = math.isfinite(x) and x > 0
    assert accepted(FieldConfig(width=x)) == ok
    assert accepted(FieldConfig(height=x)) == ok


@over_all_floats
def test_sink_position_accepted_iff_finite(x):
    ok = math.isfinite(x)
    assert accepted(FieldConfig(sink_position=(x, 300.0))) == ok
    assert accepted(FieldConfig(sink_position=(50.0, x))) == ok


@over_all_floats
def test_radio_constants_accepted_iff_finite_and_non_negative(x):
    ok = math.isfinite(x) and x >= 0
    for name in ("e_elec", "eps_amp", "e_fuse"):
        assert accepted(RadioParams(**{name: x})) == ok, name


@over_all_floats
def test_range_accepted_iff_finite_and_positive(x):
    assert accepted(SimConfig(range_m=x)) == (math.isfinite(x) and x > 0)


@over_all_floats
def test_initial_energy_accepted_iff_finite_and_non_negative(x):
    assert accepted(SimConfig(initial_energy=x)) == (math.isfinite(x) and x >= 0)


@example([0, 1, 2])
@example([0, 0, 1])
@example([1, 0])
@given(st.lists(st.integers(min_value=-1, max_value=4), min_size=1, max_size=5))
def test_nodes_override_ids_must_equal_their_index(ids):
    nodes = tuple(NodeState(i, (float(k), 1.0), 1.0) for k, i in enumerate(ids))
    config = SimConfig(field=FieldConfig(node_count=len(ids)), nodes_override=nodes)
    assert accepted(config) == (ids == list(range(len(ids))))


@pytest.mark.parametrize("argv", [
    ["--range", "nan"], ["--range", "inf"], ["--initial-energy", "inf"],
    ["--width", "nan"], ["--sink-y=-inf"], ["--e-elec", "nan"],
    ["--sweep", "20,nan"], ["--sweep", "-5"]])
def test_cli_rejects_non_finite_input_with_exit_2(argv, capsys):
    assert main(argv + ["--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gathersim: error:")
