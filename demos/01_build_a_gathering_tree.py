#!/usr/bin/env python3
"""Walk through one round of tree-based gathering on a random deployment.

Deploys 100 sensors on a 100 m x 100 m field, connects every pair within
the 25 m transmission range, grows the energy-aware maximal-leaf gathering
tree, and prices one data-collection round with the first-order radio
model.
"""

import numpy as np

import gathersim as gs

SEED = 42

field = gs.FieldConfig()  # 100 nodes, 100x100 m, sink at (50, 300)
nodes = gs.deploy(field, seed=SEED)
graph = gs.build_graph(nodes, range_m=25.0)

print(f"deployed {field.node_count} nodes, transmission range 25 m")
print(f"mean degree {graph.degrees.mean():.2f}, connected: {gs.is_connected(graph)}")

tree = gs.construct_tree(graph, gs.energies_of(nodes), tie_seed=SEED)
assert tree is not None, "this seed gives a connected deployment"
print(f"\ntree root: node {tree.root} (highest uncovered-neighbors x energy weight)")
print(f"intermediate nodes: {len(tree.intermediate_set)}  "
      f"leaves: {len(tree.leaf_set)}  height: {tree.height}")
print(f"valid by the structural checker: {gs.validate_tree(tree, graph)}")

delay = gs.compute_delay(tree)
print(f"\nround delay: {delay} slots "
      f"(children of one parent are serialized, parents work in parallel)")

ledger = gs.tree_round_energy(tree, gs.positions_of(nodes), field.sink_position,
                              gs.RadioParams())
print(f"round energy: {ledger.total * 1e3:.2f} mJ total")
busiest = int(np.argmax(ledger.per_node))
print(f"busiest node: {busiest} paying {ledger.per_node[busiest] * 1e3:.2f} mJ "
      f"(tx {ledger.tx[busiest] * 1e3:.2f}, rx {ledger.rx[busiest] * 1e3:.2f}, "
      f"fuse {ledger.fuse[busiest] * 1e3:.3f})")

print("\nfirst ten lines of the tree dump (id level parent role):")
print("\n".join(gs.dump_tree(tree).splitlines()[:10]))
