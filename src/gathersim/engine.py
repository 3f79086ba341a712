"""Protocol table, round loop in blocks, trials in lockstep, lifetime, multi-trial aggregation."""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from itertools import chain, islice

import numpy as np

from .baselines import (MIN_LEACH_P, AliveChain, build_chain, chain_to_nodes, cluster_block,
                        cluster_rows, direct_round, elect_heads, pegasis_cdma_block,
                        pegasis_tdma_block)
from .emln import compute_delays, construct_trees
from .network import (FieldConfig, Nodes, NodeState, build_graph, check_numbers, deploy,
                      stack_graphs)
from .radio import RadioParams, trees_round_energy
from .seeding import RoundStream, derive_seed, hash_rounds

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
        check_numbers(self, "range_m", gt=0)
        check_numbers(self, "initial_energy", ge=0)
        check_numbers(self, "max_rounds", "trials", "rebuild_period", integer=True, ge=1)
        check_numbers(self, "master_seed", integer=True)
        check_numbers(self, "leach_p", ge=MIN_LEACH_P, le=1)
        if self.nodes_override is not None:
            if len(self.nodes_override) != self.field.node_count:
                raise ValueError("nodes_override must match field.node_count")
            Nodes.from_states(self.nodes_override)


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


def _lifetime_mean(values, lifetime: int) -> float:
    return float(np.mean(values[:lifetime])) if lifetime else float("nan")


# A baseline's rounds are computed up to BLOCK_ROUNDS at a time, fewer where a
# block's (rounds, nodes) arrays would hold more than BLOCK_ENTRIES entries.
# The rounds of a block after an abandoned one are computed for nothing, so
# blocks pay off when many rounds pass between deaths.
BLOCK_ROUNDS = 64
BLOCK_ENTRIES = 1 << 10
# Trials are stepped together in groups of at most LOCKSTEP_ENTRIES nodes
# (trials times nodes per trial, at least one trial).
LOCKSTEP_ENTRIES = 1 << 15
# A group's EMLN trees wait in its queue until it holds FOLD_NODES nodes, and
# their delays and leaf counts are then folded in one call, which spreads the
# fold's fixed numpy call cost over many steps; a larger queue spends more
# memory on the fold's temporaries than it saves.
FOLD_NODES = 1 << 13


def _alike(items: list, key) -> dict:
    """The indices of ``items`` by ``key(item)``, in first-seen order."""
    groups: dict = {}
    for i, item in enumerate(items):
        groups.setdefault(key(item), []).append(i)
    return groups


def _hash_streams(trials: list) -> None:
    """Hash the round seeds of every trial's next block in one call (``hash_rounds``)."""
    hash_rounds([t.stream for t in trials], [t.attempt + 1 for t in trials],
                [t.rows for t in trials])


class _Trial:
    """One cell of the runner: a trial's node state, protocol state and histories.

    Each protocol's subclass is its entry of ``PROTOCOL_TRIALS``, and
    constructing one deploys the trial and prepares the protocol. The
    class's ``blocks(trials, memo)`` gives each of ``trials``, the live
    trials of a group (one protocol on one node count, sink and radio), its
    next block: the per-node debits (rows, n) and the delays of its next
    ``rows`` rounds, the first being attempt ``attempt + 1`` and completed
    round ``completed``, as if all complete; or None when no gathering
    structure is left, upon which the trial ``end``s. ``memo`` is a dict the
    group keeps from step to step. The runner debits the block (``_debit``,
    together with the group's other blocks of its row count) and the trial
    applies the outcome with ``apply``; ``abandon(row)`` says that round
    ``row`` of the last block was abandoned and nodes died, so the rounds
    after it were not attempted. ``live`` says whether there is a next block.
    """

    builds_tree = False  # a tree protocol's reports count leaves

    def __init__(self, config: SimConfig, trial_seed: int):
        if config.nodes_override is not None:
            nodes = Nodes.from_states(config.nodes_override)
        else:
            nodes = deploy(config.field, derive_seed(trial_seed, 0), config.initial_energy)
        self.config, self.trial_seed, self.nodes = config, trial_seed, nodes
        # views: the round loop debits energies and clears alive flags in place
        self.positions, self.energies, self.alive = nodes.positions, nodes.energies, nodes.alive
        self.sink = np.asarray(config.field.sink_position, dtype=float)
        self.block = max(1, min(BLOCK_ROUNDS, BLOCK_ENTRIES // len(self.alive)))
        self.initial_total = float(self.energies.sum())
        self.connected = True
        self.energy_hist: list[float] = []
        self.delay_hist: list[int] = []
        self.alive_hist: list[int] = []
        self.residual_hist: list[float] = []
        self.leaf_hist: list[int] = []
        self.first_death_at: int | None = None
        self.completed = 0
        self.attempt = 0  # abandoned rounds consume their attempt too
        self.n_alive = int(self.alive.sum())
        self.live = self.n_alive > 0

    @property
    def rows(self) -> int:
        """The number of rounds in the trial's next block."""
        return min(self.block, self.config.max_rounds - self.completed)

    def end(self) -> None:
        """End the trial: its protocol found no structure to gather over."""
        if self.completed == 0:
            self.connected = False
        self.live = False

    def apply(self, block, done: int, spent: list, residual: list, levels, dying) -> None:
        """Take the first ``done`` rounds of ``block``, and abandon the next if there is one.

        ``spent`` and ``residual`` are the block's per-round debit and
        residual totals, ``levels`` the energies after round ``done`` and
        ``dying`` the (rows, n) flags of the nodes that could not pay.
        """
        config = self.config
        self.energy_hist += spent[:done]
        self.residual_hist += residual[:done]
        self.delay_hist.extend(block[1][:done])
        self.alive_hist += [self.n_alive] * done
        self.energies[:] = levels
        self.completed += done
        self.attempt += done
        if done < len(spent):
            # abandon the round: no debits are applied, the broke nodes die
            self.attempt += 1
            if self.first_death_at is None:
                self.first_death_at = self.completed
            if config.stop_rule == "first-death":
                self.live = False
                return
            self.alive[dying[done]] = False
            self.n_alive = int(self.alive.sum())
            self.abandon(done)
        self.live = self.completed < config.max_rounds and self.n_alive > 0

    def report(self) -> SimulationReport:
        completed, builds_tree = self.completed, self.builds_tree
        lifetime = self.first_death_at if self.first_death_at is not None else completed
        energy_arr = np.asarray(self.energy_hist, dtype=float)
        delay_arr = np.asarray(self.delay_hist, dtype=np.int64)
        leaf_arr = np.asarray(self.leaf_hist, dtype=np.int64) if builds_tree else None
        return SimulationReport(
            protocol=self.config.protocol,
            connected=self.connected,
            lifetime=lifetime,
            energy_per_round=energy_arr,
            delay_per_round=delay_arr,
            alive_per_round=np.asarray(self.alive_hist, dtype=np.int64),
            residual_total_per_round=np.asarray(self.residual_hist, dtype=float),
            initial_total=self.initial_total,
            final_energies=self.energies,
            leaf_per_round=leaf_arr,
            mean_energy_per_round=_lifetime_mean(energy_arr, lifetime),
            mean_delay_per_round=_lifetime_mean(delay_arr, lifetime),
            mean_energy_delay=_lifetime_mean(energy_arr * delay_arr, lifetime),
            mean_leaf_count=_lifetime_mean(leaf_arr, lifetime) if builds_tree else None,
        )


class _EmlnTrial(_Trial):
    """One round per block: each tree depends on the energies left by the last.

    A round's delay is its tree's ``_TreeRecord``, set when the tree's
    ``queue`` is folded: the trial's delay history holds records from round
    ``resolved`` on, and ``resolve`` turns them into delays and leaf counts.
    """

    builds_tree = True

    def __init__(self, *args):
        super().__init__(*args)
        self.block = 1
        self.graph = self.round = self.queue = None
        self.rounds_on_tree = self.config.rebuild_period
        self.resolved = 0

    @staticmethod
    def blocks(trials: list, memo: dict) -> list:
        """Grow the next tree of each trial whose tree is stale, and give every trial its round.

        A round is its tree's debits and record, or None if the graph is
        disconnected. The stale trials grow their trees together
        (``construct_trees``), however few they are. ``memo["stack"]`` keeps
        the last stacked graph and its members' graphs; it is stacked again
        only when a member's graph differs. The trees go into the group's
        ``_TreeQueue``, ``memo["queue"]``, which folds their delays and leaf
        counts later.
        """
        stale = [t for t in trials if t.rounds_on_tree >= t.config.rebuild_period]
        if stale:
            for trial in stale:
                if trial.graph is None:
                    trial.graph = build_graph(trial.nodes, trial.config.range_m)
            graphs = [t.graph for t in stale]
            members, stacked = memo.get("stack", ((), None))
            if len(members) != len(graphs) or any(a is not b for a, b in zip(members, graphs)):
                stacked = stack_graphs(graphs)
                memo["stack"] = graphs, stacked
            seeds = [derive_seed(t.trial_seed, t.attempt + 1) for t in stale]
            trees = construct_trees(stacked, np.array([t.energies for t in stale]), seeds)
            roots, parent, _, intermediate = trees
            debits = trees_round_energy(roots, parent, intermediate, stacked.positions,
                                        stale[0].sink, stale[0].config.radio).per_node
            records = [_TreeRecord() for _ in stale]
            queue = memo.setdefault("queue", _TreeQueue())
            for t, (trial, root, record) in enumerate(zip(stale, roots.tolist(), records)):
                trial.round = (debits[t:t + 1], [record]) if root >= 0 else None
                trial.rounds_on_tree, trial.queue = 0, queue
            queue.push(trees, records, stale)
        for trial in trials:
            trial.rounds_on_tree += 1
        return [trial.round for trial in trials]

    def resolve(self) -> None:
        """Turn the records of the trial's folded rounds into its delays and leaf counts."""
        records = self.delay_hist[self.resolved:]
        self.delay_hist[self.resolved:] = [record.delay for record in records]
        self.leaf_hist += [record.leaves for record in records]
        self.resolved = len(self.delay_hist)

    def report(self) -> SimulationReport:
        if self.queue is not None:  # the first of its trials to report folds the rest
            self.queue.fold()
        self.resolve()
        return super().report()

    def abandon(self, row: int) -> None:
        self.graph = None
        self.rounds_on_tree = self.config.rebuild_period


class _TreeRecord:
    """The delay and leaf count of a queued EMLN tree, set when its queue is folded."""

    __slots__ = ("delay", "leaves")


class _TreeQueue:
    """A group's EMLN trees whose delays and leaf counts wait.

    ``push`` queues one ``construct_trees`` output with each row's record
    and trial, and folds once the queue holds FOLD_NODES nodes. ``fold``
    stacks the queued rows for one ``compute_delays`` call and one leaf
    count, sets every record, has each trial of the queue resolve its
    histories and empties the queue.
    """

    def __init__(self):
        self.trees, self.records, self.trials, self.nodes = [], [], [], 0

    def push(self, trees: tuple, records: list, trials: list) -> None:
        self.trees.append(trees)
        self.records += records
        self.trials += trials
        self.nodes += trees[1].size
        if self.nodes >= FOLD_NODES:
            self.fold()

    def fold(self) -> None:
        if not self.trees:
            return
        trees, records, trials = self.trees, self.records, self.trials
        self.trees, self.records, self.trials, self.nodes = [], [], [], 0
        roots, parent, level, intermediate = map(np.concatenate, zip(*trees))
        del trees  # copied: free the queued rows before the fold's temporaries
        leaves = (np.count_nonzero(level >= 0, axis=1)
                  - np.count_nonzero(intermediate, axis=1)).tolist()
        delays = compute_delays(roots, parent, level).tolist()
        for record, delay, count in zip(records, delays, leaves):
            record.delay, record.leaves = delay, count
        for trial in dict.fromkeys(trials):
            trial.resolve()


class _LeachTrial(_Trial):
    """Elections one by one, then the nearest heads and ledgers of each trial's block at once.

    A group's trials hash their round seeds together; ``cluster_block``
    runs once per trial, since over the stacked rows of ten trials it
    measured no faster.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.stream = RoundStream(self.trial_seed)
        self.served = np.zeros(len(self.alive), dtype=bool)
        self.served_before = None
        # a head's forward to the sink costs what a direct node's send does
        self.sink_tx = direct_round(self.alive, self.positions, self.sink, self.config.radio)[0].tx

    def elect(self) -> np.ndarray:
        """The ``head_of`` rows of the elections of the trial's next block."""
        attempt, rows = self.attempt + 1, self.rows
        self.served_before = np.empty((rows, len(self.alive)), dtype=bool)
        heads = []
        for row in range(rows):
            self.served_before[row] = self.served
            heads.append(elect_heads(self.alive, self.served, self.completed + row,
                                     self.config.leach_p, self.stream(attempt + row)))
        return cluster_rows(self.positions, self.alive, heads)

    @staticmethod
    def blocks(trials: list, memo: dict) -> list:
        _hash_streams(trials)
        out = []
        for trial in trials:
            ledger, delays = cluster_block(trial.elect(), trial.positions, trial.sink_tx,
                                           trial.config.radio)
            out.append((ledger.per_node, delays.tolist()))
        return out

    def abandon(self, row: int) -> None:
        self.served = self.served_before[row].copy()  # the abandoned election does not count


class _ChainTrial(_Trial):
    """Leaders drawn trial by trial, then the blocks' ledgers in closed form by ``ledgers``.

    A group's trials hash their round seeds together, and the trials whose
    alive chains have one size (and whose blocks one row count) take one
    ``ledgers`` call over their stacked chains. A trial with no alive node
    has no chain.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.stream = RoundStream(self.trial_seed)
        self.chain = build_chain(self.positions, self.sink, self.alive) if self.live else None
        self.links = None

    @classmethod
    def blocks(cls, trials: list, memo: dict) -> list:
        _hash_streams(trials)
        leaders = []
        for trial in trials:
            if trial.links is None:
                trial.links = AliveChain(trial.chain, trial.alive, trial.positions, trial.sink,
                                         trial.config.radio)
            leaders.append(trial.stream.integers(trial.attempt + 1, trial.rows,
                                                 trial.links.sub.size))
        out: list = [None] * len(trials)
        for group in _alike(trials, lambda t: (t.links.sub.size, t.rows)).values():
            chains = [trials[i].links for i in group]
            ledger, delays = cls.ledgers(chains, [leaders[i] for i in group])
            per_position = ledger.per_node
            del ledger  # peak memory: its (T, rows, m) parts need not outlive their sum
            debits = chain_to_nodes(chains, per_position)
            for i, trial_debits, trial_delays in zip(group, debits, delays.tolist()):
                out[i] = trial_debits, trial_delays
        return out

    def abandon(self, row: int) -> None:
        self.links = None


class _TdmaTrial(_ChainTrial):
    ledgers = staticmethod(pegasis_tdma_block)


class _CdmaTrial(_ChainTrial):
    ledgers = staticmethod(pegasis_cdma_block)


class _DirectTrial(_Trial):
    """The same ledger every round until a node dies."""

    debit = None

    @staticmethod
    def blocks(trials: list, memo: dict) -> list:
        out = []
        for trial in trials:
            if trial.debit is None:
                ledger, trial.delay = direct_round(trial.alive, trial.positions, trial.sink,
                                                   trial.config.radio)
                trial.debit = ledger.per_node
            out.append((np.broadcast_to(trial.debit, (trial.rows, len(trial.debit))),
                        [trial.delay] * trial.rows))
        return out

    def abandon(self, row: int) -> None:
        self.debit = None


PROTOCOL_TRIALS = {
    "emln": _EmlnTrial,
    "leach": _LeachTrial,
    "pegasis-tdma": _TdmaTrial,
    "pegasis-cdma": _CdmaTrial,
    "direct": _DirectTrial,
}
PROTOCOLS = tuple(PROTOCOL_TRIALS)


def _debit(trials: tuple[_Trial, ...], blocks: tuple) -> None:
    """Debit each trial's block, all of one shape (rows, n), and have each trial apply its own.

    The energies and debits are stacked into one C-ordered (rows + 1, T, n)
    array, round by round: one ``np.subtract.accumulate`` down the rounds
    gives every trial's energies after each round, the same floats as
    debiting round by round, and one ``np.add.reduce`` over the last axis
    every round's debit and residual totals (row sums of another layout can
    differ in the last bit). A trial's first round in which an alive node
    cannot pay is abandoned. Whole experiments read only 1.002-1.006x
    faster with per-round subtractions (README, "Trials in lockstep"): too
    small a gain to pay for their loop.
    """
    rows, n = blocks[0][0].shape
    stack = np.empty((2, rows + 1, len(trials), n))  # [0]: energies, debits; [1]: levels
    stack[0, 0] = [t.energies for t in trials]
    stack[0, 1:].transpose(1, 0, 2)[...] = [block[0] for block in blocks]
    levels = np.subtract.accumulate(stack[0], axis=0, out=stack[1])
    dying = (levels[:-1] < stack[0, 1:]) & np.array([t.alive for t in trials])
    broke = dying.any(axis=2)
    done = np.where(broke.any(axis=0), broke.argmax(axis=0), rows).tolist()
    spent, residual = np.add.reduce(stack[:, 1:], axis=3).transpose(0, 2, 1).tolist()
    for t, trial in enumerate(trials):
        trial.apply(blocks[t], done[t], spent[t], residual[t], levels[done[t], t], dying[:, t])


def _run_group(cells: list[tuple[SimConfig, int]]) -> list[SimulationReport]:
    """Step the trials of (config, trial seed) cells together until every one has ended.

    The cells run one protocol on one node count, sink and radio. A step
    asks the protocol for the next blocks of all live trials in one
    ``blocks`` call and debits the blocks of each row count together.
    """
    kind = PROTOCOL_TRIALS[cells[0][0].protocol]
    trials = [kind(config, seed) for config, seed in cells]
    memo: dict = {}
    live = [t for t in trials if t.live]
    while live:
        pending: dict = {}
        for trial, block in zip(live, kind.blocks(live, memo)):
            if block is None:
                trial.end()
            else:
                pending.setdefault(len(block[0]), []).append((trial, block))
        for pairs in pending.values():
            _debit(*zip(*pairs))
        live = [t for t in live if t.live]
    return [t.report() for t in trials]


def _run(cells: list[tuple[SimConfig, int]], workers: int) -> list[SimulationReport]:
    """The cells' reports, in order, their lockstep groups run by ``workers`` processes.

    A group takes the next cells of one protocol, node count, sink and radio:
    at most LOCKSTEP_ENTRIES nodes (at least one cell), and at most a
    ``workers``-th of that kind's cells, so that every worker gets groups.
    """
    workers = max(1, min(workers, len(cells)))  # a pool may start all its workers at once
    groups = []
    kinds = _alike(cells, lambda cell: (cell[0].protocol, cell[0].field.node_count,
                                        tuple(cell[0].field.sink_position), cell[0].radio))
    for kind in kinds.values():
        size = max(1, min(LOCKSTEP_ENTRIES // cells[kind[0]][0].field.node_count,
                          -(-len(kind) // workers)))
        groups += [kind[i:i + size] for i in range(0, len(kind), size)]
    tasks = [[cells[i] for i in group] for group in groups]
    if workers == 1:
        parts = map(_run_group, tasks)
    else:
        # imported here: the pool's modules take about 2 MB that a serial run never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_group, tasks))
    reports = dict(zip(chain.from_iterable(groups), chain.from_iterable(parts)))
    return [reports[i] for i in range(len(cells))]


def run_trial(config: SimConfig, trial_seed: int) -> SimulationReport:
    """Simulate one deployment until first death, exhaustion, or the cap.

    A round counts as completed only if every participant can pay its
    debit. A round in which any node would be driven below zero is
    abandoned without applying debits: the nodes that could not pay are
    declared dead there, which under the default first-death rule ends the
    trial; under energy-exhausted the survivors carry on (the tree or
    election structures are rebuilt without the dead) until nobody is left,
    the gathering structure disconnects, or ``max_rounds`` is reached.

    Rounds are debited a block at a time: ``np.subtract.accumulate`` over
    the energies and the block's debits gives the energies after each
    round, the same floats as debiting round by round, and the first round
    some alive node cannot pay is the abandoned one. The runner debits the
    blocks of one row count of all the trials it steps together in one such
    call (``_debit``).

    A tree-protocol trial whose graph is disconnected in round 1 runs no
    rounds and is flagged ``connected=False``; aggregation excludes it from
    everything except the connectivity fraction.

    This is the runner's group of one: ``run_grid`` steps many trials
    together and gives the same reports.
    """
    config.validate()
    return _run_group([(config, trial_seed)])[0]


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


def _aggregate(config: SimConfig, reports: list[SimulationReport]) -> ExperimentAggregate:
    """Reduce trial reports, in ascending trial order, to one aggregate row."""
    builds_tree = PROTOCOL_TRIALS[config.protocol].builds_tree
    usable = [r for r in reports if r.connected]
    connectivity = len(usable) / len(reports)
    if usable:
        lifetimes = np.array([r.lifetime for r in usable], dtype=float)
        mean_lifetime = float(lifetimes.mean())
        sd_lifetime = float(lifetimes.std(ddof=1)) if len(usable) > 1 else 0.0
        mean_energy = float(np.mean([r.mean_energy_per_round for r in usable]))
        mean_delay = float(np.mean([r.mean_delay_per_round for r in usable]))
        mean_ed = float(np.mean([r.mean_energy_delay for r in usable]))
        if builds_tree:
            leaf_fraction = float(np.mean([r.mean_leaf_count for r in usable])
                                  / config.field.node_count)
        else:
            leaf_fraction = None
    else:
        mean_lifetime = sd_lifetime = mean_energy = mean_delay = mean_ed = float("nan")
        leaf_fraction = float("nan") if builds_tree else None

    return ExperimentAggregate(
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


def run_grid(configs: list[SimConfig], workers: int = 1,
             keep_reports: bool = False) -> list[ExperimentResult]:
    """Run every config's ``trials`` independent trials in one run, and aggregate each.

    Trial i of a config uses seed derive_seed(master_seed, i), so any subset
    of trials reproduces identically, and configs that differ only in
    protocol or range see identical deployments. All the configs' trials
    are the runner's cells, stepped in groups of one protocol on one node
    count, sink and radio (``run_trial`` gives each one's report alone).
    Each config's reduction runs in ascending trial order whatever the
    execution order or degree of parallelism, keeping aggregates
    bit-stable. Disconnected trials count only toward the
    connectivity fraction. Returns one result per config, in order.
    """
    for config in configs:
        config.validate()
    reports = iter(_run([(config, derive_seed(config.master_seed, i))
                         for config in configs for i in range(config.trials)], workers))
    grouped = [list(islice(reports, config.trials)) for config in configs]
    return [ExperimentResult(_aggregate(config, trials), trials if keep_reports else None)
            for config, trials in zip(configs, grouped)]


def run_experiment(config: SimConfig, workers: int = 1,
                   keep_reports: bool = False) -> ExperimentResult:
    """Run ``config.trials`` independent trials and aggregate them: ``run_grid`` of one config."""
    return run_grid([config], workers, keep_reports)[0]
