"""Round-based wireless-sensor-network data-gathering simulator.

Core pieces: random geometric deployments (network), the energy-aware
maximal-leaf gathering tree with its delay model (emln), a first-order
radio energy model (radio), the LEACH/PEGASIS/direct baselines
(baselines), and the round/lifetime simulation engine (engine). The cli
module exposes the same machinery as a command-line tool.
"""

from .baselines import (build_chain, direct_round, leach_elect, leach_round, pegasis_cdma_round,
                        pegasis_tdma_round)
from .cli import emit_results, main, parse_config
from .emln import GatherTree, compute_delay, construct_tree, dump_tree, validate_tree
from .engine import (PROTOCOLS, STOP_RULES, ExperimentAggregate, ExperimentResult,
                     SimConfig, SimulationReport, run_experiment, run_grid, run_trial)
from .network import (FieldConfig, NetworkSnapshot, Nodes, NodeState, alive_of, build_graph,
                      deploy, energies_of, is_connected, positions_of, read_placement,
                      write_placement)
from .radio import EnergyLedger, RadioParams, tree_round_energy, tx_cost
from .seeding import derive_seed, make_rng, splitmix64

__version__ = "0.1.0"

__all__ = [
    "PROTOCOLS", "STOP_RULES", "EnergyLedger", "ExperimentAggregate", "ExperimentResult",
    "FieldConfig", "GatherTree", "NetworkSnapshot", "NodeState", "Nodes", "RadioParams",
    "SimConfig", "SimulationReport", "alive_of", "build_chain", "build_graph", "compute_delay",
    "construct_tree", "deploy", "derive_seed", "direct_round", "dump_tree", "emit_results",
    "energies_of", "is_connected", "leach_elect", "leach_round", "main", "make_rng",
    "parse_config", "pegasis_cdma_round", "pegasis_tdma_round", "positions_of", "read_placement",
    "run_experiment", "run_grid", "run_trial", "splitmix64", "tree_round_energy", "tx_cost",
    "validate_tree", "write_placement",
]
