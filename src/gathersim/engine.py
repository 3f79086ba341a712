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
# their delays and leaf counts are then folded in one call; a larger queue
# only spends memory: a fold costs about 25 ns per node at any size.
FOLD_NODES = 1 << 13


def _alike(items: list, key) -> dict:
    """The indices of ``items`` by ``key(item)``, in first-seen order."""
    groups: dict = {}
    for i, item in enumerate(items):
        groups.setdefault(key(item), []).append(i)
    return groups


def _next_blocks(trials: list) -> tuple[list, list, list]:
    """Each trial's completed rounds, and its next block's first attempt and row count."""
    group, index = trials[0].group, [t.index for t in trials]
    completed = group.completed[index]
    attempts = (completed + group.abandoned[index] + 1).tolist()
    completed = completed.tolist()
    return completed, attempts, [min(t.block, t.config.max_rounds - done)
                                 for t, done in zip(trials, completed)]


def _parts(blocks: list) -> list:
    """Per-trial blocks, each ``(debits, delays)`` or None, as ``blocks`` parts of one row count."""
    by_rows = _alike([i for i, block in enumerate(blocks) if block is not None],
                     lambda i: len(blocks[i][0]))
    return [(np.array(ids), np.array([blocks[i][0] for i in ids]),
             np.array([blocks[i][1] for i in ids])) for ids in by_rows.values()]


class _Group:
    """A lockstep group's trials and their state's arrays, row i for trial i: (T, n)
    ``energies`` and ``alive``, whose rows the trials view; (T,) round
    counts ``completed`` and ``abandoned`` and ``n_alive``; (T, capacity)
    histories, round r at [i, r], grown by doubling and filled only as rounds
    complete; with ``reuse``, -1 marks the rounds on a reused tree."""

    def __init__(self, cells: list[tuple[SimConfig, int]]):
        kind, n = PROTOCOL_TRIALS[cells[0][0].protocol], cells[0][0].field.node_count
        self.energies, self.alive = np.empty((len(cells), n)), np.empty((len(cells), n), bool)
        self.completed = np.zeros(len(cells), dtype=np.int64)
        self.abandoned = np.zeros(len(cells), dtype=np.int64)  # each consumed an attempt
        self.memo: dict = {}
        self.trials = [kind(self, i, *cell) for i, cell in enumerate(cells)]
        self.initial = np.add.reduce(self.energies, axis=1)  # each row's 1-D sum
        self.n_alive = np.count_nonzero(self.alive, axis=1)
        self.least_cap = min(config.max_rounds for config, _ in cells)
        self.reuse = kind.builds_tree and any(config.rebuild_period > 1 for config, _ in cells)
        self.histories = [("spent", float), ("residual", float), ("alive_counts", np.int64),
                          ("delays", np.int64)] + [("leaves", np.int64)] * kind.builds_tree
        self.capacity = 0
        self.reserve(BLOCK_ROUNDS)

    def reserve(self, rounds: int) -> None:
        """Make room for ``rounds`` rounds per trial, at least doubling the histories."""
        if rounds > self.capacity:
            capacity = max(rounds, 2 * self.capacity)
            for name, dtype in self.histories:  # one history at a time: the old one is freed
                grown = np.empty((len(self.trials), capacity), dtype=dtype)
                if self.reuse:
                    grown.fill(-1)
                if self.capacity:
                    grown[:, :self.capacity] = getattr(self, name)
                setattr(self, name, grown)
            self.capacity = capacity


class _Trial:
    """One cell of the runner: a trial's protocol state, its node state a row of its group's.

    Each protocol's subclass is its entry of ``PROTOCOL_TRIALS``; one
    deploys the trial into row ``index`` of its ``_Group``. The class's
    ``blocks(trials, memo)`` gives a group's live trials the debits and
    delays of their next blocks (``_next_blocks``) as if all complete, in
    parts ``(positions, debits, delays)``: k trials' positions in
    ``trials``, their (k, rows, n) debits and (k, rows) delays, None where
    a tree queue writes them. A trial in no part has no structure left and
    ``end``s. A trial that cannot pay for a round ``fail``s, and its
    ``abandon(row)`` hears that round ``row`` of its last block was abandoned.
    """

    builds_tree = False  # a tree protocol's reports count leaves
    first_death_at: int | None = None
    connected = running = True
    completed = property(lambda self: int(self.group.completed[self.index]))
    live = property(lambda self: self.running and self.completed < self.config.max_rounds)

    def __init__(self, group: _Group, index: int, config: SimConfig, trial_seed: int):
        if config.nodes_override is not None:
            nodes = Nodes.from_states(config.nodes_override)
        else:
            nodes = deploy(config.field, derive_seed(trial_seed, 0), config.initial_energy)
        group.energies[index], group.alive[index] = nodes.energies, nodes.alive
        self.group, self.index, self.config, self.trial_seed = group, index, config, trial_seed
        # views: the runner debits energies and clears alive flags in the group's rows
        self.positions, self.energies, self.alive = (nodes.positions, group.energies[index],
                                                     group.alive[index])
        self.sink = np.asarray(config.field.sink_position, dtype=float)
        self.block = max(1, min(BLOCK_ROUNDS, BLOCK_ENTRIES // len(self.alive)))
        self.running = bool(self.alive.any())

    def end(self) -> None:
        """End the trial: its protocol found no structure to gather over."""
        self.connected, self.running = self.completed > 0, False

    def fail(self, row: int, dying: np.ndarray) -> None:
        """Abandon round ``row`` of the last block: no debits are applied, the ``dying`` die."""
        self.group.abandoned[self.index] += 1
        if self.first_death_at is None:
            self.first_death_at = self.completed
        if self.config.stop_rule == "first-death":
            self.running = False
            return
        self.alive[dying] = False
        self.group.n_alive[self.index] = n_alive = np.count_nonzero(self.alive)
        self.abandon(row)
        self.running = n_alive > 0

    def report(self) -> SimulationReport:  # its arrays are views of the group's rows
        group, i, completed, builds_tree = self.group, self.index, self.completed, self.builds_tree
        lifetime = self.first_death_at if self.first_death_at is not None else completed
        energy, delay = group.spent[i, :completed], group.delays[i, :completed]
        leaves = group.leaves[i, :completed] if builds_tree else None
        return SimulationReport(
            self.config.protocol, self.connected, lifetime, energy, delay,
            group.alive_counts[i, :completed], group.residual[i, :completed],
            float(group.initial[i]), self.energies, leaves, _lifetime_mean(energy, lifetime),
            _lifetime_mean(delay, lifetime), _lifetime_mean(energy * delay, lifetime),
            _lifetime_mean(leaves, lifetime) if builds_tree else None)


class _EmlnTrial(_Trial):
    """One round per block: each tree depends on the energies left by the last.

    A tree serves ``rebuild_period`` rounds. The group's ``_TreeQueue``
    writes its delay and leaf count at the round it was grown for; a report
    gives the later rounds on it, which hold -1, the values before them.
    """

    builds_tree = True

    def __init__(self, *args):
        super().__init__(*args)
        self.block, self.graph, self.debits = 1, None, None
        self.rounds_on_tree = self.config.rebuild_period
        self.group.memo["queue"] = self.group.memo.get("queue") or _TreeQueue(self.group)

    @staticmethod
    def blocks(trials: list, memo: dict) -> list:
        """Grow the trees of the trials whose tree is stale together, and give each its round.

        A round is its tree's debits, none on a disconnected graph; when
        every trial grew a connected tree, ``trees_round_energy``'s (T, n)
        debits are the one part as they are. ``memo["stack"]`` keeps the
        stacked graph, its members' graphs and group indices until a
        member's graph differs. The trees go into ``memo["queue"]``. Without
        the group's ``reuse``, every tree serves one round and every trial is stale.
        """
        reuse = trials[0].group.reuse
        stale = [] if reuse else trials
        for trial in trials if reuse else ():
            trial.rounds_on_tree += 1
            if trial.rounds_on_tree > trial.config.rebuild_period:
                trial.rounds_on_tree = 1
                stale.append(trial)
        if stale:
            graphs, group = [t.graph for t in stale], stale[0].group
            if None in graphs:  # first, and after a death
                graphs = [t.graph or build_graph(Nodes(t.positions, t.energies, t.alive),
                                                 t.config.range_m) for t in stale]
                for trial, graph in zip(stale, graphs):
                    trial.graph = graph
            members, stacked, index, seeds = memo.get("stack", ((), None, None, None))
            if len(members) != len(graphs) or any(a is not b for a, b in zip(members, graphs)):
                stacked, index = stack_graphs(graphs), np.array([t.index for t in stale])
                memo["stack"] = graphs, stacked, index, [t.trial_seed for t in stale]
                seeds = memo["stack"][3]
            attempts = (group.completed[index] + group.abandoned[index]).tolist()
            trees = construct_trees(stacked, group.energies[index],
                                    [derive_seed(s, a + 1) for s, a in zip(seeds, attempts)])
            roots, parent, _, intermediate = trees
            debits = trees_round_energy(roots, parent, intermediate, stacked.positions,
                                        stale[0].sink, stale[0].config.radio).per_node[:, None]
            memo["queue"].push(trees, index)
            if len(stale) == len(trials) and not reuse and roots.min() >= 0:
                return [(np.arange(len(trials)), debits, None)]
            for trial, row, root in zip(stale, debits, roots.tolist()):
                trial.debits = row if root >= 0 else None
        ready = [p for p, trial in enumerate(trials) if trial.debits is not None]
        return ([(np.array(ready), np.array([trials[p].debits for p in ready]), None)]
                if ready else [])

    def report(self) -> SimulationReport:
        self.group.memo["queue"].fold()  # the first of the group's trials to report folds all
        if self.config.rebuild_period > 1:
            n = self.completed
            for rounds in (self.group.delays[self.index, :n], self.group.leaves[self.index, :n]):
                rounds[:] = rounds[np.maximum.accumulate(np.where(rounds >= 0, np.arange(n), 0))]
        return super().report()

    def abandon(self, row: int) -> None:
        self.graph = None
        self.rounds_on_tree = self.config.rebuild_period


class _TreeQueue:
    """A group's EMLN trees, each with its trial and round, folded at FOLD_NODES nodes.

    ``fold`` writes one ``compute_delays`` call's delays and one leaf count
    at each tree's (trial, round); of a round's trees, an abandoned one's
    and the next's, the later is written.
    """

    def __init__(self, group: _Group):
        self.group, self.trees, self.targets, self.nodes = group, [], [], 0

    def push(self, trees: tuple, index: np.ndarray) -> None:
        self.trees.append(trees)
        self.targets.append((index, self.group.completed[index]))
        self.nodes += trees[1].size
        if self.nodes >= FOLD_NODES:
            self.fold()

    def fold(self) -> None:
        if not self.trees:
            return
        roots, parent, level, intermediate = map(np.concatenate, zip(*self.trees))
        trials, rounds = map(np.concatenate, zip(*self.targets))
        self.trees, self.targets, self.nodes = [], [], 0
        leaves = np.count_nonzero(level >= 0, axis=1) - np.count_nonzero(intermediate, axis=1)
        delays = compute_delays(roots, parent, level)
        keys = trials * self.group.capacity + rounds
        _, last = np.unique(keys[::-1], return_index=True)  # each (trial, round)'s last tree
        last = keys.size - 1 - last
        at = trials[last], rounds[last]
        self.group.delays[at], self.group.leaves[at] = delays[last], leaves[last]


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

    def elect(self, completed: int, attempt: int, rows: int) -> np.ndarray:
        """The ``head_of`` rows of the elections of the trial's next block."""
        self.served_before = np.empty((rows, len(self.alive)), dtype=bool)
        heads = []
        for row in range(rows):
            self.served_before[row] = self.served
            heads.append(elect_heads(self.alive, self.served, completed + row,
                                     self.config.leach_p, self.stream(attempt + row)))
        return cluster_rows(self.positions, self.alive, heads)

    @staticmethod
    def blocks(trials: list, memo: dict) -> list:
        steps = _next_blocks(trials)
        hash_rounds([t.stream for t in trials], *steps[1:])
        out = []
        for trial, *step in zip(trials, *steps):
            ledger, delays = cluster_block(trial.elect(*step), trial.positions, trial.sink_tx,
                                           trial.config.radio)
            out.append((ledger.per_node, delays))
        return _parts(out)

    def abandon(self, row: int) -> None:
        self.served = self.served_before[row].copy()  # the abandoned election does not count


class _ChainTrial(_Trial):
    """Leaders drawn trial by trial, then the blocks' ledgers in closed form by ``ledgers``.

    A group's trials hash their round seeds together, and the trials whose
    alive chains have one size (and whose blocks one row count) take one
    ``ledgers`` call over their stacked chains, which gives their part. A
    trial with no alive node has no chain.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.stream = RoundStream(self.trial_seed)
        self.chain = build_chain(self.positions, self.sink, self.alive) if self.live else None
        self.links = None

    @classmethod
    def blocks(cls, trials: list, memo: dict) -> list:
        _, attempts, rows = _next_blocks(trials)
        hash_rounds([t.stream for t in trials], attempts, rows)
        leaders = []
        for trial, attempt, count in zip(trials, attempts, rows):
            if trial.links is None:
                trial.links = AliveChain(trial.chain, trial.alive, trial.positions, trial.sink,
                                         trial.config.radio)
            leaders.append(trial.stream.integers(attempt, count, trial.links.sub.size))
        parts = []
        for group in _alike(list(zip(trials, rows)),
                            lambda step: (step[0].links.sub.size, step[1])).values():
            chains = [trials[i].links for i in group]
            ledger, delays = cls.ledgers(chains, [leaders[i] for i in group])
            per_position = ledger.per_node
            del ledger  # peak memory: its (T, rows, m) parts need not outlive their sum
            parts.append((np.array(group), chain_to_nodes(chains, per_position), delays))
        return parts

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
        for trial, rows in zip(trials, _next_blocks(trials)[2]):
            if trial.debit is None:
                ledger, trial.delay = direct_round(trial.alive, trial.positions, trial.sink,
                                                   trial.config.radio)
                trial.debit = ledger.per_node
            out.append((np.broadcast_to(trial.debit, (rows, len(trial.debit))),
                        [trial.delay] * rows))
        return _parts(out)

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


def _debit(group: _Group, members: np.ndarray, debits: np.ndarray, delays) -> bool:
    """Debit the (k, rows, n) blocks of the group's trials ``members``; True if one failed.

    ``np.subtract`` (one round) or ``np.subtract.accumulate`` gives the
    levels after each round, the floats of a round-by-round loop; an alive
    node's level below zero abandons the round. ``np.add.reduce`` over the
    node axis gives the totals with the bits of 1-D sums. Each history takes
    all members' rows in one write (rows past a trial's end are rewritten
    or unread). Only a trial that fails a round runs Python of its own.
    """
    rows = debits.shape[1]
    energies, start = group.energies[members], group.completed[members]
    if rows == 1:
        levels = energies[:, None] - debits
    else:  # round-major, where the accumulate runs about 1.35 times as fast
        stack = np.concatenate((energies[None], debits.transpose(1, 0, 2)))
        levels = np.subtract.accumulate(stack, axis=0)[1:].transpose(1, 0, 2)
    dying = levels < 0
    dying &= group.alive[members, None]
    last = int(start.max()) + rows
    if last >= group.capacity:
        group.reserve(last + 1)  # and one more round, which a tree queue may write
    at = members[:, None], start[:, None] + np.arange(rows)
    group.spent[at] = np.add.reduce(debits, axis=2)
    group.residual[at] = np.add.reduce(levels, axis=2)
    group.alive_counts[at] = group.n_alive[members, None]
    if delays is not None:
        group.delays[at] = delays
    failed = dying.any()
    if not failed:
        group.energies[members] = levels[:, -1]
        group.completed[members] = start + rows
    else:
        broke = dying.any(axis=2)
        done = np.where(broke.any(axis=1), broke.argmax(axis=1), rows)
        group.energies[members] = np.concatenate((energies[:, None], levels),
                                                 axis=1)[np.arange(len(members)), done]
        group.completed[members] = start + done
        for p in np.flatnonzero(done < rows).tolist():
            group.trials[members[p]].fail(int(done[p]), dying[p, done[p]])
    return bool(failed) or last >= group.least_cap  # near a cap, trials may have ended


def _run_group(cells: list[tuple[SimConfig, int]]) -> list[SimulationReport]:
    """Step the trials of (config, trial seed) cells, a ``_Group``, until every one has ended.

    The cells run one protocol on one node count, sink and radio. A step
    makes one ``blocks`` call for all live trials and debits each part; the
    live trials are listed again only after a step that may have ended one.
    """
    group = _Group(cells)
    kind = type(group.trials[0])
    trials = [t for t in group.trials if t.live]
    while trials:
        index = np.array([t.index for t in trials])
        changed = False
        while not changed:
            parts = kind.blocks(trials, group.memo)
            for positions, debits, delays in parts:
                changed |= _debit(group, index[positions], debits, delays)
            if sum(len(part[0]) for part in parts) < len(trials):  # the rest have no structure
                for p in set(range(len(trials))).difference(*(part[0].tolist() for part in parts)):
                    trials[p].end()
                changed = True
        trials = [t for t in trials if t.live]
    reports = [t.report() for t in group.trials]
    group.trials, group.memo = [], {}  # break the trial-group cycles: free the group now
    return reports


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
    abandoned without debits, and the nodes that could not pay die there:
    under first-death that ends the trial; under energy-exhausted the
    survivors carry on, their structures rebuilt, until nobody is left, the
    structure disconnects, or ``max_rounds`` is reached. A trial whose
    structure is missing in round 1 runs no rounds and is flagged
    ``connected=False``; aggregation counts it only in the connectivity
    fraction. This is the runner's group of one (``run_grid``).
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
        leaf_fraction = (float(np.mean([r.mean_leaf_count for r in usable])
                               / config.field.node_count) if builds_tree else None)
    else:
        mean_lifetime = sd_lifetime = mean_energy = mean_delay = mean_ed = float("nan")
        leaf_fraction = float("nan") if builds_tree else None

    return ExperimentAggregate(config.protocol, config.range_m, config.trials, connectivity,
                               mean_lifetime, sd_lifetime, mean_energy, mean_delay, mean_ed,
                               leaf_fraction)


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
