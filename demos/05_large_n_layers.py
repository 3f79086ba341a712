#!/usr/bin/env python3
"""Time the structure-building layers on large deployments.

Runs one call each of ``deploy``, ``build_graph``, ``construct_tree``,
``leach_elect`` and ``build_chain`` at the default density (100 nodes per
hectare, a square field, the sink 200 m beyond the middle of the top edge)
and range 25 m, for 2,000, 8,000 and 20,000 nodes. One call per layer is a
single sample: on a busy host, run the script a few times and take the
smaller figures. Pass node counts as arguments to time others, for example
``python demos/05_large_n_layers.py 500 2000``.
"""

import math
import sys
from time import perf_counter

import numpy as np

from gathersim import (FieldConfig, build_chain, build_graph, construct_tree, deploy,
                       leach_elect, positions_of)


def timed(fn, *args):
    t0 = perf_counter()
    result = fn(*args)
    return result, perf_counter() - t0


def survey(n):
    """Time each layer once on n nodes; return the times and the promotions."""
    side = 10.0 * math.sqrt(n)
    field = FieldConfig(width=side, height=side, node_count=n,
                        sink_position=(side / 2, side + 200.0))
    nodes, t_deploy = timed(deploy, field, 3)
    graph, t_graph = timed(build_graph, nodes, 25.0)
    positions, alive = positions_of(nodes), graph.alive
    tree, t_tree = timed(construct_tree, graph, np.ones(n), 11)
    _, t_leach = timed(leach_elect, positions, alive, 0, 0.05, 5)
    _, t_chain = timed(build_chain, positions, field.sink_position, alive)
    promotions = "disconn." if tree is None else str(len(tree.intermediate_set))
    return (t_deploy, t_graph, t_tree, t_leach, t_chain), promotions


counts = [int(a) for a in sys.argv[1:]] or [2_000, 8_000, 20_000]
survey(100)  # warm up: the first calls pay for imports and caches
print(f"{'n':>7} {'deploy':>9} {'build_graph':>12} {'construct_tree':>15} "
      f"{'(promotions)':>12} {'leach_elect':>12} {'build_chain':>12}")
for n in counts:
    times, promotions = survey(n)
    ms = [f"{t * 1e3:.1f} ms" for t in times]
    print(f"{n:>7} {ms[0]:>9} {ms[1]:>12} {ms[2]:>15} {promotions:>12} {ms[3]:>12} {ms[4]:>12}")
