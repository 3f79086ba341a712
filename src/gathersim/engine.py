"""Round loop, lifetime determination, and multi-trial aggregation."""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from .baselines import (PROTOCOLS, build_chain, direct_round, leach_elect,
                        leach_round, pegasis_cdma_round, pegasis_tdma_round)
from .emln import compute_delay, construct_tree
from .network import FieldConfig, NodeState, build_graph, deploy, positions_of
from .radio import RadioParams, tree_round_energy
from .seeding import derive_seed

STOP_RULES = ("first-death", "energy-exhausted")


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce an experiment bit-exactly."""

    field: FieldConfig = dataclass_field(default_factory=FieldConfig)
    radio: RadioParams = dataclass_field(default_factory=RadioParams)
    protocol: str = "emln"
    range_m: float = 25.0
    initial_energy: float = 1.0
    max_rounds: int = 100_000
    trials: int = 1
    master_seed: int = 1
    rebuild_period: int = 1
    stop_rule: str = "first-death"
    leach_p: float = 0.05
    nodes_override: tuple[NodeState, ...] | None = None

    def validate(self) -> None:
        self.field.validate()
        self.radio.validate()
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.stop_rule not in STOP_RULES:
            raise ValueError(f"unknown stop rule {self.stop_rule!r}")
        if not (math.isfinite(self.range_m) and math.isfinite(self.initial_energy)):
            raise ValueError("range and initial_energy must be finite")
        if self.range_m <= 0:
            raise ValueError("range must be positive")
        if self.initial_energy < 0:
            raise ValueError("initial_energy must be >= 0")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.rebuild_period < 1:
            raise ValueError("rebuild_period must be >= 1")
        if not 0 < self.leach_p <= 1:
            raise ValueError("leach_p must be in (0, 1]")
        if self.nodes_override is not None:
            if len(self.nodes_override) != self.field.node_count:
                raise ValueError("nodes_override must match field.node_count")
            # ids equal to their index are also free of duplicates
            for index, node in enumerate(self.nodes_override):
                if node.id != index:
                    raise ValueError(f"nodes_override[{index}] has id {node.id}; "
                                     "node ids must be 0..n-1 in order")
                if not all(map(math.isfinite, (*node.position, node.energy))):
                    raise ValueError(f"nodes_override[{index}] has a non-finite "
                                     "position or energy")
                if node.energy < 0:
                    raise ValueError(f"nodes_override[{index}] has negative energy")


@dataclass(frozen=True)
class RoundMetrics:
    round_index: int
    energy_lost: float
    delay: int
    energy_delay: float
    alive: int


@dataclass
class SimulationReport:
    """Per-trial outcome: lifetime plus per-completed-round traces.

    ``lifetime`` counts the rounds completed before the first node failure.
    The headline means are taken over exactly those rounds. The per-round
    arrays cover all completed rounds, which can extend past the lifetime
    under the energy-exhausted stop rule. ``leaf_per_round`` and
    ``mean_leaf_count`` are tree-protocol only, None otherwise.
    """

    protocol: str
    connected: bool
    lifetime: int
    energy_per_round: np.ndarray
    delay_per_round: np.ndarray
    alive_per_round: np.ndarray
    residual_total_per_round: np.ndarray
    initial_total: float
    final_energies: np.ndarray
    leaf_per_round: np.ndarray | None
    mean_energy_per_round: float
    mean_delay_per_round: float
    mean_energy_delay: float
    mean_leaf_count: float | None

    @property
    def completed_rounds(self) -> int:
        return len(self.energy_per_round)

    def round_metrics(self) -> list[RoundMetrics]:
        return [
            RoundMetrics(i + 1, float(e), int(d), float(e) * int(d), int(a))
            for i, (e, d, a) in enumerate(
                zip(self.energy_per_round, self.delay_per_round, self.alive_per_round))
        ]


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
        nodes = list(config.nodes_override)
    else:
        nodes = deploy(config.field, derive_seed(trial_seed, 0), config.initial_energy)
    n = len(nodes)
    positions = positions_of(nodes)
    energies = np.array([nd.energy for nd in nodes], dtype=float)
    alive = np.array([nd.alive for nd in nodes], dtype=bool)
    sink = np.asarray(config.field.sink_position, dtype=float)
    initial_total = float(energies.sum())

    emln = config.protocol == "emln"
    chain = None
    if config.protocol.startswith("pegasis"):
        chain = build_chain(positions, sink, alive)

    graph = None
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

    while completed < config.max_rounds:
        n_alive = int(alive.sum())
        if n_alive == 0:
            break
        attempt += 1
        round_seed = derive_seed(trial_seed, attempt)
        served_before = served

        if emln:
            if tree is None or rounds_on_tree >= config.rebuild_period:
                if graph is None or alive_dirty:
                    node_objs = [
                        NodeState(i, (float(positions[i, 0]), float(positions[i, 1])),
                                  float(energies[i]), bool(alive[i]))
                        for i in range(n)
                    ]
                    graph = build_graph(node_objs, config.range_m)
                    alive_dirty = False
                tree = construct_tree(graph, energies, tie_seed=round_seed)
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
                                             config.leach_p, round_seed, served)
            ledger, delay = leach_round(assignment, positions, sink, config.radio)
        elif config.protocol == "pegasis-tdma":
            ledger, delay = pegasis_tdma_round(chain, alive, round_seed, positions,
                                               sink, config.radio)
        elif config.protocol == "pegasis-cdma":
            ledger, delay = pegasis_cdma_round(chain, alive, round_seed, positions,
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


@dataclass(frozen=True)
class ExperimentAggregate:
    """Across-trial summary; one row of the aggregate output schema."""

    protocol: str
    range_m: float
    trials: int
    connectivity: float
    mean_lifetime: float
    sd_lifetime: float
    mean_energy_per_round: float
    mean_delay_per_round: float
    mean_energy_delay: float
    mean_leaf_fraction: float | None


@dataclass
class ExperimentResult:
    aggregate: ExperimentAggregate
    reports: list[SimulationReport] | None


def _trial_task(args: tuple[SimConfig, int]) -> SimulationReport:
    return run_trial(*args)


def run_experiment(config: SimConfig, workers: int = 1,
                   keep_reports: bool = False) -> ExperimentResult:
    """Run ``config.trials`` independent trials and aggregate them.

    Trial i uses seed derive_seed(master_seed, i), so any subset of trials
    reproduces identically and protocols compared under one master seed see
    identical deployments. Reduction runs in ascending trial order whatever
    the execution order or degree of parallelism, keeping aggregates
    bit-stable. Disconnected trials count only toward the connectivity
    fraction.
    """
    config.validate()
    seeds = [derive_seed(config.master_seed, i) for i in range(config.trials)]
    if workers > 1:
        chunk = max(1, config.trials // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_trial_task, [(config, s) for s in seeds], chunksize=chunk))
    else:
        reports = [run_trial(config, s) for s in seeds]

    usable = [r for r in reports if r.connected]
    connectivity = len(usable) / len(reports)
    if usable:
        lifetimes = np.array([r.lifetime for r in usable], dtype=float)
        mean_lifetime = float(lifetimes.mean())
        sd_lifetime = float(lifetimes.std(ddof=1)) if len(usable) > 1 else 0.0
        mean_energy = float(np.mean([r.mean_energy_per_round for r in usable]))
        mean_delay = float(np.mean([r.mean_delay_per_round for r in usable]))
        mean_ed = float(np.mean([r.mean_energy_delay for r in usable]))
        if config.protocol == "emln":
            leaf_fraction = float(np.mean([r.mean_leaf_count for r in usable])
                                  / config.field.node_count)
        else:
            leaf_fraction = None
    else:
        mean_lifetime = sd_lifetime = mean_energy = mean_delay = mean_ed = float("nan")
        leaf_fraction = float("nan") if config.protocol == "emln" else None

    aggregate = ExperimentAggregate(
        protocol=config.protocol,
        range_m=config.range_m,
        trials=config.trials,
        connectivity=connectivity,
        mean_lifetime=mean_lifetime,
        sd_lifetime=sd_lifetime,
        mean_energy_per_round=mean_energy,
        mean_delay_per_round=mean_delay,
        mean_energy_delay=mean_ed,
        mean_leaf_fraction=leaf_fraction,
    )
    return ExperimentResult(aggregate, reports if keep_reports else None)


def range_sweep(config: SimConfig, ranges, workers: int = 1) -> list[ExperimentAggregate]:
    """One experiment per transmission range, all under identical seeds."""
    ranges = list(ranges)
    if not ranges:
        raise ValueError("range list must be nonempty")
    return [
        run_experiment(replace(config, range_m=float(r)), workers=workers).aggregate
        for r in ranges
    ]
