"""The per-round engine loop, kept as the reference for tests.

``run_trial`` below is the round loop the engine ran before it debited
rounds in blocks, copied unchanged; only the imports differ: the baseline
round functions are the loop versions in tests/reference_baselines.py, the
chain is the loop ``build_chain`` of tests/reference_network.py, and the
tree, its delay and its ledger come from the loop ``construct_tree``,
``compute_delay`` and ``tree_round_energy`` of tests/reference_emln.py, so
nothing here runs the block or lockstep functions it is checked against,
and ``round_rngs`` below seeds a fresh generator per attempt, as the engine
once did, so no ``RoundStream`` code runs here either. The
engine must give the same ``SimulationReport``, field for field and byte
for byte (tests/test_engine_reference.py).
"""

from __future__ import annotations

from itertools import count

import numpy as np

from reference_baselines import (direct_round, leach_elect, leach_round, pegasis_cdma_round,
                                 pegasis_tdma_round)
from reference_emln import compute_delay, construct_tree, tree_round_energy
from reference_network import build_chain

from gathersim.engine import SimConfig, SimulationReport
from gathersim.network import Nodes, build_graph, deploy
from gathersim.seeding import derive_seed, make_rng


def round_rngs(trial_seed: int):
    """Yield ``make_rng(derive_seed(trial_seed, a))`` for a = 1, 2, 3, ..."""
    return (make_rng(derive_seed(trial_seed, a)) for a in count(1))


def _lifetime_mean(values, lifetime: int) -> float:
    return float(np.mean(values[:lifetime])) if lifetime else float("nan")


def run_trial(config: SimConfig, trial_seed: int) -> SimulationReport:
    """Simulate one deployment until first death, exhaustion, or the cap.

    A round counts as completed only if every participant can pay its
    debit. A round in which any node would be driven below zero is
    abandoned without applying debits: the nodes that could not pay are
    declared dead there, which under the default first-death rule ends the
    trial; under energy-exhausted the survivors carry on (the tree or
    election structures are rebuilt without the dead) until nobody is left,
    the gathering structure disconnects, or ``max_rounds`` is reached.

    A tree-protocol trial whose graph is disconnected in round 1 runs no
    rounds and is flagged ``connected=False``; aggregation excludes it from
    everything except the connectivity fraction.
    """
    config.validate()
    if config.nodes_override is not None:
        nodes = Nodes.from_states(config.nodes_override)
    else:
        nodes = deploy(config.field, derive_seed(trial_seed, 0), config.initial_energy)
    # the round loop debits energies and clears alive flags in place
    positions, energies, alive = nodes.positions, nodes.energies, nodes.alive
    sink = np.asarray(config.field.sink_position, dtype=float)
    initial_total = float(energies.sum())

    emln = config.protocol == "emln"
    chain = build_chain(positions, sink, alive) if config.protocol.startswith("pegasis") else None

    tree = None
    cached_round = None  # (ledger, delay) reused while the tree is reused
    rounds_on_tree = 0
    alive_dirty = True
    served: frozenset[int] = frozenset()
    connected = True

    energy_hist: list[float] = []
    delay_hist: list[int] = []
    alive_hist: list[int] = []
    residual_hist: list[float] = []
    leaf_hist: list[int] = []
    first_death_at: int | None = None
    completed = 0
    attempt = 0
    rngs = round_rngs(trial_seed)  # baselines: one per attempt, abandoned ones too

    while completed < config.max_rounds:
        n_alive = int(alive.sum())
        if n_alive == 0:
            break
        attempt += 1
        served_before = served

        if emln:
            if tree is None or rounds_on_tree >= config.rebuild_period:
                if alive_dirty:
                    graph = build_graph(nodes, config.range_m)
                    alive_dirty = False
                tree = construct_tree(graph, energies, tie_seed=derive_seed(trial_seed, attempt))
                rounds_on_tree = 0
                if tree is None:
                    if completed == 0:
                        connected = False
                    break  # no spanning structure left to gather over
                cached_round = (tree_round_energy(tree, positions, sink, config.radio),
                                compute_delay(tree))
            ledger, delay = cached_round
            rounds_on_tree += 1
        elif config.protocol == "leach":
            assignment, served = leach_elect(positions, alive, completed,
                                             config.leach_p, next(rngs), served)
            ledger, delay = leach_round(assignment, positions, sink, config.radio)
        elif config.protocol == "pegasis-tdma":
            ledger, delay = pegasis_tdma_round(chain, alive, next(rngs), positions,
                                               sink, config.radio)
        elif config.protocol == "pegasis-cdma":
            ledger, delay = pegasis_cdma_round(chain, alive, next(rngs), positions,
                                               sink, config.radio)
        else:
            ledger, delay = direct_round(alive, positions, sink, config.radio)

        debit = ledger.per_node
        dying = alive & (energies < debit)
        if dying.any():
            # abandon the round: no debits are applied, the broke nodes die
            if first_death_at is None:
                first_death_at = completed
            if config.stop_rule == "first-death":
                break
            alive[dying] = False
            alive_dirty = True
            tree = None
            served = served_before  # the abandoned election does not count
            continue

        energies -= debit
        completed += 1
        energy_hist.append(float(debit.sum()))
        delay_hist.append(delay)
        alive_hist.append(n_alive)
        residual_hist.append(float(energies.sum()))
        if emln:
            leaf_hist.append(len(tree.leaf_set))

    lifetime = first_death_at if first_death_at is not None else completed
    energy_arr = np.asarray(energy_hist, dtype=float)
    delay_arr = np.asarray(delay_hist, dtype=np.int64)
    leaf_arr = np.asarray(leaf_hist, dtype=np.int64) if emln else None
    return SimulationReport(
        protocol=config.protocol,
        connected=connected,
        lifetime=lifetime,
        energy_per_round=energy_arr,
        delay_per_round=delay_arr,
        alive_per_round=np.asarray(alive_hist, dtype=np.int64),
        residual_total_per_round=np.asarray(residual_hist, dtype=float),
        initial_total=initial_total,
        final_energies=energies,
        leaf_per_round=leaf_arr,
        mean_energy_per_round=_lifetime_mean(energy_arr, lifetime),
        mean_delay_per_round=_lifetime_mean(delay_arr, lifetime),
        mean_energy_delay=_lifetime_mean(energy_arr * delay_arr, lifetime),
        mean_leaf_count=_lifetime_mean(leaf_arr, lifetime) if emln else None,
    )
