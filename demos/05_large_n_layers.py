#!/usr/bin/env python3
"""Time the structure-building layers and round 1 of every protocol on large deployments.

Runs round 1 of all five protocols once at the default density (100 nodes
per hectare, a square field, the sink 200 m beyond the middle of the top
edge) and range 25 m, for 2,000, 8,000 and 20,000 nodes. It prints the time
of ``deploy``, ``build_graph``, ``is_connected``, ``construct_tree``,
``leach_elect`` and ``build_chain``, and the total of round 1 for all five
protocols: every layer above plus each protocol's round function. One call
per layer is a single sample: on a busy host, run the script a few times
and take the smaller figures.

A second table splits the range search behind ``build_graph`` and
``build_chain``, best of three calls each: the grid search at the range
(``_pairs_within``, what ``build_graph`` runs), the grid search at the
chain's list radius, the sort of those pairs into neighbour lists
(``_neighbour_lists`` less that search), and the chain walk
(``build_chain`` less the lists) with its count of fallback scans, the
steps whose list holds no unvisited node. Pass node counts as arguments
to time others, for example ``python demos/05_large_n_layers.py 500 2000``.
"""

import math
import sys
from time import perf_counter

from gathersim import (FieldConfig, RadioParams, build_chain, build_graph, compute_delay,
                       construct_tree, deploy, direct_round, energies_of, is_connected,
                       leach_elect, leach_round, pegasis_cdma_round, pegasis_tdma_round,
                       positions_of, tree_round_energy)
from gathersim.baselines import CHAIN_CANDIDATES_PER_NODE, _list_radius, _neighbour_lists
from gathersim.network import _pairs_within

LAYERS = ("deploy", "build_graph", "is_connected", "construct_tree", "leach_elect",
          "build_chain")
SUB_LAYERS = ("pairs @ range", "pairs @ lists", "list sort", "chain walk")


def field_of(n):
    """A square field at 100 nodes per hectare, the sink 200 m beyond its top edge."""
    side = 10.0 * math.sqrt(n)
    return FieldConfig(width=side, height=side, node_count=n,
                       sink_position=(side / 2, side + 200.0))


def survey(n):
    """Run round 1 of every protocol on n nodes; return the layer times,
    the round-1 total and the promotions."""
    field = field_of(n)
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


def best_of_three(fn, *args):
    """The smallest time of three calls, and the last call's result."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        result = fn(*args)
        times.append(perf_counter() - t0)
    return min(times), result


def range_search(n):
    """Split the range search of ``build_graph`` and ``build_chain`` on n
    deployed nodes (all alive); return the sub-layer times and the number of
    fallback scans in the chain walk."""
    field = field_of(n)
    pos = positions_of(deploy(field, 3))
    radius, count = _list_radius(pos), len(pos)
    pairs_at_range, _ = best_of_three(_pairs_within, pos, 25.0)
    pairs_at_lists, _ = best_of_three(_pairs_within, pos, radius,
                                      CHAIN_CANDIDATES_PER_NODE * count)
    lists, (bounds, nbrs) = best_of_three(_neighbour_lists, pos)
    chain, order = best_of_three(build_chain, pos, field.sink_position)
    # a step falls back exactly when its successor is not on its list
    bounds, nbrs, order = list(bounds), list(nbrs), order.tolist()
    scans = sum(v not in nbrs[bounds[u]:bounds[u + 1]] for u, v in zip(order, order[1:]))
    times = dict(zip(SUB_LAYERS, (pairs_at_range, pairs_at_lists, lists - pairs_at_lists,
                                  chain - lists)))
    return times, scans


counts = [int(a) for a in sys.argv[1:]] or [2_000, 8_000, 20_000]
survey(100)  # warm up: the first calls pay for imports and caches
print(f"{'n':>7} " + " ".join(f"{name:>14}" for name in LAYERS)
      + f" {'(promotions)':>12} {'round 1, all':>13}")
for n in counts:
    times, total, promotions = survey(n)
    cells = " ".join(f"{times[name] * 1e3:>11.1f} ms" for name in LAYERS)
    print(f"{n:>7} {cells} {promotions:>12} {total * 1e3:>10.1f} ms")
print()
print(f"{'n':>7} " + " ".join(f"{name:>14}" for name in SUB_LAYERS) + f" {'(fallbacks)':>12}")
for n in counts:
    times, scans = range_search(n)
    cells = " ".join(f"{times[name] * 1e3:>11.2f} ms" for name in SUB_LAYERS)
    print(f"{n:>7} {cells} {scans:>12}")
