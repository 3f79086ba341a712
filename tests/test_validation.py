"""Input validation over non-finite and edge-case values, and the CLI's exit code.

Each property states exactly which values a field accepts, so NaN, the
infinities, zero, negative zero, subnormals and huge values are all held to
it; the explicit examples make sure the non-finite ones are always tried.
"""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gathersim import FieldConfig, NodeState, RadioParams, SimConfig, build_graph, read_placement
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


@over_all_floats
def test_nodes_override_values_accepted_iff_finite_and_energy_non_negative(x):
    for position, energy in (((x, 1.0), 1.0), ((1.0, x), 1.0), ((1.0, 1.0), x)):
        nodes = (NodeState(0, (0.0, 0.0), 1.0), NodeState(1, position, energy))
        config = SimConfig(field=FieldConfig(node_count=2), nodes_override=nodes)
        ok = math.isfinite(x) and (energy is not x or x >= 0)
        assert accepted(config) == ok, (position, energy)


@over_all_floats
def test_build_graph_rejects_non_finite_alive_position_naming_the_node(x):
    nodes = [NodeState(0, (0.0, 0.0), 1.0), NodeState(1, (x, 5.0), 1.0),
             NodeState(2, (5.0, 5.0), 1.0)]
    if math.isfinite(x):
        assert len(build_graph(nodes, 10.0).adjacency) == 3
    else:
        with pytest.raises(ValueError, match="node 1 "):
            build_graph(nodes, 10.0)


def test_build_graph_ignores_non_finite_dead_position():
    nodes = [NodeState(0, (0.0, 0.0), 1.0), NodeState(1, (math.nan, 5.0), 1.0, alive=False),
             NodeState(2, (5.0, 5.0), 1.0)]
    assert build_graph(nodes, 10.0).adjacency == ((2,), (), (0,))


@pytest.mark.parametrize("line", [
    "1 nan 2.0 1.0", "1 2.0 inf 1.0", "1 2.0 3.0 nan", "1 -inf 3.0 1.0",
    "1 2.0 3.0 inf", "1 2.0 3.0 -1.0"])
def test_read_placement_rejects_bad_values_with_path_and_line(line, tmp_path):
    path = tmp_path / "layout.txt"
    path.write_text(f"0 1.0 1.0 1.0\n\n{line}\n")
    with pytest.raises(ValueError) as info:
        read_placement(path)
    assert str(info.value).startswith(f"{path}:3: ")


def test_build_graph_rejects_nan_range_and_coordinates_spanning_past_the_float_range():
    nodes = [NodeState(0, (0.0, 0.0), 1.0), NodeState(1, (5.0, 5.0), 1.0)]
    with pytest.raises(ValueError, match="range must be positive"):
        build_graph(nodes, math.nan)
    far = [NodeState(0, (-1e308, 0.0), 1.0), NodeState(1, (1e308, 0.0), 1.0)]
    with pytest.raises(ValueError, match="span more than the float range"):
        build_graph(far, 25.0)
