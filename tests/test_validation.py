"""Input validation over non-finite and edge-case values, and the CLI's exit code.

Each property states exactly which values a field accepts, so NaN, the
infinities, zero, negative zero, subnormals and huge values are all held to
it; the explicit examples make sure the non-finite ones are always tried.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import gathersim
from gathersim import (FieldConfig, Nodes, NodeState, RadioParams, SimConfig, build_chain,
                       build_graph, direct_round, leach_elect, leach_round, pegasis_cdma_round,
                       pegasis_tdma_round, read_placement)
from gathersim.baselines import MIN_LEACH_P
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


@pytest.mark.parametrize("sink", [(), (50.0,), (50.0, 300.0, 0.0), "ab", (10**400, 0.0),
                                  (0.0, -10**400), ((1.0, 2.0), 3.0), [[1.0], [2.0, 3.0]]])
def test_sink_position_must_be_two_numbers(sink):
    with pytest.raises(ValueError, match="sink_position"):
        FieldConfig(sink_position=sink).validate()


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


# Each numeric field with more values its rule rejects: below its bound, too large
# for a float, or for a count two floats.
OUT_OF_BOUNDS = {
    FieldConfig: dict(width=(0.0, 2**1024), height=(-1.0,), node_count=(0, 2.5, 2.0)),
    RadioParams: dict(e_elec=(-1e-9,), eps_amp=(-5e-324,), e_fuse=(-1.0,),
                      packet_bits=(0, 2.5, 2.0)),
    SimConfig: dict(range_m=(0.0, -0.0), initial_energy=(-1.0,), max_rounds=(0, 2.5, 2.0),
                    trials=(-1, 2.5, 2.0), rebuild_period=(0, 2.5, 2.0), master_seed=(2.5, 2.0),
                    leach_p=(MIN_LEACH_P / 2, 1.5)),
}


@pytest.mark.parametrize("record, name, value", [
    pytest.param(record, name, value, id=f"{record.__name__}.{name}={value!r:.12}")
    for record, fields in OUT_OF_BOUNDS.items() for name, outside in fields.items()
    for value in (None, "x", math.nan, math.inf, -math.inf, *outside)])
def test_bad_number_raises_value_error_naming_its_field(record, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        record(**{name: value}).validate()


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


@pytest.mark.parametrize("argv", [["--packet-bits", "1" + "0" * 400], ["--sink-x", "1e200"],
                                  ["--eps-amp", "1e300", "--protocol", "leach"]])
def test_cli_rejects_costs_that_overflow_with_exit_2(argv):
    # finite inputs whose round debit is not a finite float: a usage error,
    # with no traceback and no numpy warning
    src = str(Path(gathersim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "gathersim", *argv, "--trials", "1"],
                          capture_output=True, text=True, timeout=120, env=env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("gathersim: error: node_count, width")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


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
        assert len(build_graph(Nodes.from_states(nodes), 10.0).adjacency) == 3
    else:
        with pytest.raises(ValueError, match="node 1 "):
            build_graph(Nodes.from_states(nodes), 10.0)


def test_build_graph_ignores_non_finite_dead_position():
    nodes = [NodeState(0, (0.0, 0.0), 1.0), NodeState(1, (math.nan, 5.0), 1.0, alive=False),
             NodeState(2, (5.0, 5.0), 1.0)]
    assert build_graph(Nodes.from_states(nodes), 10.0).adjacency == ((2,), (), (0,))


@pytest.mark.parametrize("line", [
    "1 nan 2.0 1.0", "1 2.0 inf 1.0", "1 2.0 3.0 nan", "1 -inf 3.0 1.0",
    "1 2.0 3.0 inf", "1 2.0 3.0 -1.0", "1.5 3.0 4.0 1.0", "1 abc 4.0 1.0"])
def test_read_placement_rejects_bad_values_with_path_and_line(line, tmp_path):
    path = tmp_path / "layout.txt"
    path.write_text(f"0 1.0 1.0 1.0\n\n{line}\n")
    with pytest.raises(ValueError) as info:
        read_placement(path)
    assert str(info.value).startswith(f"{path}:3: ")


def test_build_graph_rejects_nan_range_and_coordinates_spanning_past_the_float_range():
    nodes = Nodes.from_states([NodeState(0, (0.0, 0.0), 1.0), NodeState(1, (5.0, 5.0), 1.0)])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="range must be positive"):
            build_graph(nodes, bad)
    far = Nodes.from_states([NodeState(0, (-1e308, 0.0), 1.0),
                             NodeState(1, (1e308, 0.0), 1.0)])
    with pytest.raises(ValueError, match="span more than the float range"):
        build_graph(far, 25.0)


def three_nodes(positions=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)), energies=(1.0, 1.0, 1.0),
                alive=(True, True, True)):
    return Nodes(np.array(positions), np.array(energies), np.array(alive))


@pytest.mark.parametrize("positions, energies, alive", [
    (np.zeros((3, 3)), np.ones(3), np.ones(3, dtype=bool)),
    (np.zeros((3, 2)), np.ones(2), np.ones(3, dtype=bool)),
    (np.zeros((3, 2)), np.ones(3), np.ones(4, dtype=bool)),
    (np.zeros(6), np.ones(3), np.ones(3, dtype=bool)),
    (np.zeros((3, 2)), np.ones((3, 1)), np.ones(3, dtype=bool))])
def test_node_record_rejects_arrays_whose_shapes_disagree(positions, energies, alive):
    with pytest.raises(ValueError, match="node arrays disagree"):
        Nodes(positions, energies, alive)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_node_record_rejects_non_finite_alive_position_but_not_dead_one(bad):
    with pytest.raises(ValueError, match="^node 2 is alive but has a non-finite position"):
        three_nodes(positions=((0.0, 0.0), (1.0, 0.0), (bad, 0.0)))
    three_nodes(positions=((0.0, 0.0), (1.0, 0.0), (bad, 0.0)), alive=(True, True, False))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_node_record_rejects_non_finite_energy(bad):
    for alive in ((True, True, True), (True, False, True)):
        with pytest.raises(ValueError, match="^node 1 has an energy"):
            three_nodes(energies=(1.0, bad, 1.0), alive=alive)


@pytest.mark.parametrize("bad", [-1.0, -5e-324])
def test_node_record_rejects_negative_energy(bad):
    with pytest.raises(ValueError, match="^node 0 has an energy"):
        three_nodes(energies=(bad, 1.0, 1.0))
    assert three_nodes(energies=(0.0, -0.0, 1.0)).energies[1] == 0.0


@pytest.mark.parametrize("ids, named", [([0, 2, 1], 2), ([1], 1), ([0, 0], 0), ([-1, 1], -1)])
def test_node_record_from_states_needs_ids_zero_to_n_minus_one_in_order(ids, named):
    states = [NodeState(i, (float(k), 0.0), 1.0) for k, i in enumerate(ids)]
    with pytest.raises(ValueError, match=f"^node {named} is at index"):
        Nodes.from_states(states)


BASELINE_POSITIONS = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])
BASELINE_SINK = (50.0, 300.0)


@pytest.mark.parametrize("head_of, match", [
    ([0, 2, -1, -1], "must be one of the heads"),   # the head of node 1 is no head
    ([1, 2, 0, 1], "at least one cluster head"),    # nobody heads themselves
    ([-1, -1, -1, -1], "at least one cluster head"),
])
def test_leach_round_rejects_inconsistent_roles(head_of, match):
    with pytest.raises(ValueError, match=match):
        leach_round(head_of, BASELINE_POSITIONS, BASELINE_SINK, RadioParams())


@pytest.mark.parametrize("head_of", [
    [0, 1, 2, 4], [0, 1, 2, -2], [0, 0, 0, 9], [0, -5, 0, 0]])
def test_leach_round_rejects_ids_outside_the_node_range(head_of):
    with pytest.raises(ValueError, match="node ids below 4"):
        leach_round(head_of, BASELINE_POSITIONS, BASELINE_SINK, RadioParams())


@pytest.mark.parametrize("head_of", [
    [0, 0, 0], [0, 0, 0, 0, 0], [[0, 0, 0, 0]], [0.0, 0.0, 0.0, 0.0]])
def test_leach_round_rejects_a_row_of_another_shape_or_type(head_of):
    with pytest.raises(ValueError, match="expected 4 integer head ids"):
        leach_round(head_of, BASELINE_POSITIONS, BASELINE_SINK, RadioParams())


@pytest.mark.parametrize("order", [(0, 0, 0, 0), (1, 2, 1), (0, -1)])
def test_chain_rejects_repeated_or_negative_ids(order):
    for round_fn in (pegasis_tdma_round, pegasis_cdma_round):
        with pytest.raises(ValueError, match="distinct non-negative"):
            round_fn(order, [True] * 4, 1, BASELINE_POSITIONS, BASELINE_SINK, RadioParams())


@pytest.mark.parametrize("alive", [[True] * 3, [True] * 5])
def test_baselines_reject_alive_flags_of_another_length(alive):
    chain = [0, 1, 2, 3]
    calls = (
        lambda: build_chain(BASELINE_POSITIONS, BASELINE_SINK, alive),
        lambda: leach_elect(BASELINE_POSITIONS, alive, 0, 0.5, 1),
        lambda: pegasis_tdma_round(chain, alive, 1, BASELINE_POSITIONS, BASELINE_SINK,
                                   RadioParams()),
        lambda: pegasis_cdma_round(chain, alive, 1, BASELINE_POSITIONS, BASELINE_SINK,
                                   RadioParams()),
        lambda: direct_round(alive, BASELINE_POSITIONS, BASELINE_SINK, RadioParams()),
    )
    for call in calls:
        with pytest.raises(ValueError, match="expected 4 alive flags"):
            call()


@pytest.mark.parametrize("served", [[True] * 3, [False] * 5, [[True]] * 4, frozenset({1})])
def test_leach_elect_rejects_a_served_mask_of_another_shape(served):
    with pytest.raises(ValueError, match="served must be a mask of 4 flags"):
        leach_elect(BASELINE_POSITIONS, [True] * 4, 1, 0.5, 1, served)


def test_pegasis_rejects_chain_ids_beyond_the_node_count():
    chain = [0, 1, 2, 3, 4]
    for round_fn in (pegasis_tdma_round, pegasis_cdma_round):
        with pytest.raises(ValueError, match="below the node count"):
            round_fn(chain, [True] * 4, 1, BASELINE_POSITIONS, BASELINE_SINK, RadioParams())
