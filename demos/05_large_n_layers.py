#!/usr/bin/env python3
"""Time the structure-building layers and round 1 of every protocol on large deployments.

Runs round 1 of all five protocols once at the default density (100 nodes
per hectare, a square field, the sink 200 m beyond the middle of the top
edge) and range 25 m, for 2,000, 8,000 and 20,000 nodes. It prints the time
of ``deploy``, ``build_graph``, ``is_connected``, ``construct_tree``,
``leach_elect`` and ``build_chain``, and the total of round 1 for all five
protocols: every layer above plus each protocol's round function. One call
per layer is a single sample: on a busy host, run the script a few times
and take the smaller figures. Pass node counts as arguments to time others,
for example ``python demos/05_large_n_layers.py 500 2000``.
"""

import math
import sys
from time import perf_counter

from gathersim import (FieldConfig, RadioParams, build_chain, build_graph, compute_delay,
                       construct_tree, deploy, direct_round, energies_of, is_connected,
                       leach_elect, leach_round, pegasis_cdma_round, pegasis_tdma_round,
                       positions_of, tree_round_energy)

LAYERS = ("deploy", "build_graph", "is_connected", "construct_tree", "leach_elect",
          "build_chain")


def survey(n):
    """Run round 1 of every protocol on n nodes; return the layer times,
    the round-1 total and the promotions."""
    side = 10.0 * math.sqrt(n)
    field = FieldConfig(width=side, height=side, node_count=n,
                        sink_position=(side / 2, side + 200.0))
    sink, radio = field.sink_position, RadioParams()
    times = {}

    def timed(name, fn, *args):
        t0 = perf_counter()
        result = fn(*args)
        times[name] = perf_counter() - t0
        return result

    nodes = timed("deploy", deploy, field, 3)
    graph = timed("build_graph", build_graph, nodes, 25.0)
    timed("is_connected", is_connected, graph)
    positions, alive = positions_of(nodes), graph.alive
    tree = timed("construct_tree", construct_tree, graph, energies_of(nodes), 11)
    if tree is not None:
        timed("tree_round_energy", tree_round_energy, tree, positions, sink, radio)
        timed("compute_delay", compute_delay, tree)
    head_of, _ = timed("leach_elect", leach_elect, positions, alive, 0, 0.05, 5)
    timed("leach_round", leach_round, head_of, positions, sink, radio)
    chain = timed("build_chain", build_chain, positions, sink, alive)
    timed("pegasis_tdma_round", pegasis_tdma_round, chain, alive, 7, positions, sink, radio)
    timed("pegasis_cdma_round", pegasis_cdma_round, chain, alive, 7, positions, sink, radio)
    timed("direct_round", direct_round, alive, positions, sink, radio)
    promotions = "disconn." if tree is None else str(len(tree.intermediate_set))
    return times, sum(times.values()), promotions


counts = [int(a) for a in sys.argv[1:]] or [2_000, 8_000, 20_000]
survey(100)  # warm up: the first calls pay for imports and caches
print(f"{'n':>7} " + " ".join(f"{name:>14}" for name in LAYERS)
      + f" {'(promotions)':>12} {'round 1, all':>13}")
for n in counts:
    times, total, promotions = survey(n)
    cells = " ".join(f"{times[name] * 1e3:>11.1f} ms" for name in LAYERS)
    print(f"{n:>7} {cells} {promotions:>12} {total * 1e3:>10.1f} ms")
