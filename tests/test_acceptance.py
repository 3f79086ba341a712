"""End-to-end acceptance checks at their stated tolerances.

One test per criterion; each prints one line per sub-check and fails loudly
if any band is missed. Heavy simulations are shared via module-scoped
fixtures: lifetime experiments run 48 trials per configuration (32 for the
energy-growth ranges), statistical geometry checks use the full 1000
deployments. Two worker processes keep the whole module within a few
minutes.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_connected_adjacency, snapshot_from_adjacency
from helpers_oracles import (cdma_schedule, optimal_leaf_count,
                             pair_within_range_probability, random_gather_tree,
                             recount_relay_ledger, tdma_schedule, tree_delay_bruteforce)

import gathersim as gs
from gathersim import (FieldConfig, RadioParams, SimConfig,
                       build_chain, build_graph, compute_delay, construct_tree,
                       deploy, derive_seed, direct_round, energies_of, is_connected,
                       leach_elect, leach_round, pegasis_cdma_round,
                       pegasis_tdma_round, run_grid, validate_tree)

ACCEPT_SEED = 20260810
N_LIFE = 48
N_GROWTH = 32
WORKERS = 2
FIELD = FieldConfig()
SINK = np.array(FIELD.sink_position)
PARAMS = RadioParams()


def check(criterion, subchecks):
    """Print one line per sub-check, then fail if any missed its band."""
    failed = []
    for label, ok, detail in subchecks:
        status = "PASS" if ok else "FAIL"
        print(f"[criterion {criterion}] {label}: {status} ({detail})")
        if not ok:
            failed.append(f"{label}: {detail}")
    assert not failed, f"criterion {criterion} failed: " + "; ".join(failed)


@pytest.fixture(scope="module")
def graphs_25m():
    """1000 seeded deployments with their range-25 graphs, plus build time."""
    t0 = time.perf_counter()
    deployments, graphs = [], []
    for i in range(1000):
        nodes = deploy(FIELD, derive_seed(ACCEPT_SEED, i))
        deployments.append(nodes)
        graphs.append(build_graph(nodes, 25.0))
    elapsed_build = time.perf_counter() - t0
    return deployments, graphs, elapsed_build


@pytest.fixture(scope="module")
def emln_experiments():
    # one grid: every range's trials are stepped together
    configs = [SimConfig(field=FIELD, radio=PARAMS, protocol="emln", range_m=r,
                         trials=trials, master_seed=ACCEPT_SEED)
               for r, trials in ((25.0, N_LIFE), (35.0, N_LIFE), (50.0, N_LIFE),
                                 (15.0, N_GROWTH), (30.0, N_GROWTH), (45.0, N_GROWTH))]
    results = run_grid(configs, workers=WORKERS, keep_reports=True)
    return {cfg.range_m: result for cfg, result in zip(configs, results)}


@pytest.fixture(scope="module")
def baseline_experiments():
    configs = [SimConfig(field=FIELD, radio=PARAMS, protocol=proto,
                         trials=N_LIFE, master_seed=ACCEPT_SEED)
               for proto in ("leach", "pegasis-tdma", "pegasis-cdma", "direct")]
    results = run_grid(configs, workers=WORKERS, keep_reports=True)
    return {cfg.protocol: result for cfg, result in zip(configs, results)}


@pytest.fixture(scope="module")
def round1_stats(graphs_25m):
    """Round-1 energy of every protocol on the same 1000 deployments."""
    deployments, graphs, _ = graphs_25m
    energy = {p: [] for p in ("emln", "leach", "pegasis-tdma", "pegasis-cdma", "direct")}
    for i, (nodes, graph) in enumerate(zip(deployments, graphs)):
        tree = construct_tree(graph, energies_of(nodes),
                              tie_seed=derive_seed(ACCEPT_SEED, 10_000 + i))
        if tree is None:
            continue
        pos, alive = graph.positions, graph.alive
        energy["emln"].append(gs.tree_round_energy(tree, pos, SINK, PARAMS).total)
        chain = build_chain(pos, SINK, alive)
        seed = derive_seed(ACCEPT_SEED, 20_000 + i)
        energy["pegasis-tdma"].append(
            pegasis_tdma_round(chain, alive, seed, pos, SINK, PARAMS)[0].total)
        energy["pegasis-cdma"].append(
            pegasis_cdma_round(chain, alive, seed, pos, SINK, PARAMS)[0].total)
        assignment, _ = leach_elect(pos, alive, 0, 0.05, derive_seed(ACCEPT_SEED, 30_000 + i))
        energy["leach"].append(leach_round(assignment, pos, SINK, PARAMS)[0].total)
        energy["direct"].append(direct_round(alive, pos, SINK, PARAMS)[0].total)
    return {p: float(np.mean(v)) for p, v in energy.items()}


def test_criterion_01_connectivity(graphs_25m):
    _, graphs, elapsed_build = graphs_25m
    t0 = time.perf_counter()
    conn25 = float(np.mean([is_connected(g) for g in graphs]))
    conn35 = 0
    for i in range(1000):
        nodes = deploy(FIELD, derive_seed(ACCEPT_SEED, i))
        conn35 += is_connected(build_graph(nodes, 35.0))
    conn35 = conn35 / 1000
    elapsed = elapsed_build + (time.perf_counter() - t0)
    check(1, [
        ("connectivity @25m in [0.984, 1.0]", 0.984 <= conn25 <= 1.0, f"{conn25:.4f}"),
        ("connectivity @35m >= 0.995", conn35 >= 0.995, f"{conn35:.4f}"),
        ("runtime < 10 s", elapsed < 10.0, f"{elapsed:.1f} s"),
    ])


def test_criterion_02_mean_degree(graphs_25m):
    _, graphs, _ = graphs_25m
    degrees = np.concatenate([g.degrees[g.alive] for g in graphs])
    mean_degree = float(degrees.mean())
    # deploy draws on a bounded rectangle, so disks near its edges are cut off
    expected = (FIELD.node_count - 1) * pair_within_range_probability(
        FIELD.width, FIELD.height, 25.0)
    idealised = FIELD.node_count * np.pi * 25.0**2 / (FIELD.width * FIELD.height)
    check(2, [
        (f"mean degree @25m = bounded-field expectation {expected:.3f} +/- 1.0",
         abs(mean_degree - expected) <= 1.0,
         f"measured {mean_degree:.3f}; unbounded-plane n*pi*r^2/A = {idealised:.1f}, "
         f"for reference only"),
    ])


def test_criterion_03_intermediate_fractions(graphs_25m):
    deployments, graphs25, _ = graphs_25m
    fractions = {}
    for r in (15.0, 25.0, 50.0):
        vals = []
        for i in range(1000):
            nodes = deployments[i]
            graph = graphs25[i] if r == 25.0 else build_graph(nodes, r)
            tree = construct_tree(graph, energies_of(nodes),
                                  tie_seed=derive_seed(ACCEPT_SEED, 40_000 + i))
            if tree is not None:
                vals.append(len(tree.intermediate_set) / FIELD.node_count)
        fractions[r] = float(np.mean(vals))
    check(3, [
        ("intermediate fraction @15m < 35%", fractions[15.0] < 0.35, f"{fractions[15.0]:.4f}"),
        ("intermediate fraction @25m < 15%", fractions[25.0] < 0.15, f"{fractions[25.0]:.4f}"),
        ("intermediate fraction @50m < 4%", fractions[50.0] < 0.04, f"{fractions[50.0]:.4f}"),
    ])


def test_criterion_04_energy_growth_with_range(emln_experiments):
    e15 = emln_experiments[15.0].aggregate.mean_energy_per_round
    e30 = emln_experiments[30.0].aggregate.mean_energy_per_round
    e45 = emln_experiments[45.0].aggregate.mean_energy_per_round
    check(4, [
        ("energy @30m <= 1.28x @15m", e30 / e15 <= 1.28, f"ratio {e30 / e15:.3f}"),
        ("energy @45m <= 1.60x @15m", e45 / e15 <= 1.60, f"ratio {e45 / e15:.3f}"),
    ])


def test_criterion_05_lifetime_vs_range(emln_experiments):
    l25 = emln_experiments[25.0].aggregate.mean_lifetime
    l35 = emln_experiments[35.0].aggregate.mean_lifetime
    l50 = emln_experiments[50.0].aggregate.mean_lifetime
    check(5, [
        ("lifetime @35m in [0.80, 0.95]x @25m", 0.80 <= l35 / l25 <= 0.95,
         f"ratio {l35 / l25:.3f}"),
        ("lifetime @50m in [0.55, 0.75]x @25m", 0.55 <= l50 / l25 <= 0.75,
         f"ratio {l50 / l25:.3f}"),
    ])


def test_criterion_06_per_round_energy_ordering(round1_stats):
    e = round1_stats
    order_ok = e["pegasis-tdma"] < e["emln"] < e["pegasis-cdma"] < e["leach"]
    check(6, [
        ("ordering PEGASIS-TDMA < EMLN < PEGASIS-CDMA < LEACH", order_ok,
         "PT {pegasis-tdma:.5f} EMLN {emln:.5f} PC {pegasis-cdma:.5f} LEACH {leach:.5f}".format(**e)),
        ("EMLN/LEACH in [0.25, 0.55]", 0.25 <= e["emln"] / e["leach"] <= 0.55,
         f"{e['emln'] / e['leach']:.3f}"),
        ("EMLN/PEGASIS-TDMA in [1.0, 1.25]", 1.0 <= e["emln"] / e["pegasis-tdma"] <= 1.25,
         f"{e['emln'] / e['pegasis-tdma']:.3f}"),
        ("EMLN/PEGASIS-CDMA in [0.80, 1.0]", 0.80 <= e["emln"] / e["pegasis-cdma"] <= 1.0,
         f"{e['emln'] / e['pegasis-cdma']:.3f}"),
    ])


def test_direct_round_energy_multiple(round1_stats):
    # direct transmission burns at least 30x the tree protocol's round energy
    ratio = round1_stats["direct"] / round1_stats["emln"]
    print(f"[module example] direct/EMLN per-round energy: {ratio:.1f}")
    assert ratio >= 30.0


def test_criterion_07_lifetime_ordering(emln_experiments, baseline_experiments):
    emln = emln_experiments[25.0].aggregate.mean_lifetime
    life = {p: r.aggregate.mean_lifetime for p, r in baseline_experiments.items()}
    pegasis_pooled = (life["pegasis-tdma"] + life["pegasis-cdma"]) / 2
    check(7, [
        ("EMLN > both PEGASIS variants > direct",
         emln > life["pegasis-tdma"] > life["direct"]
         and emln > life["pegasis-cdma"] > life["direct"],
         f"EMLN {emln:.0f}, PT {life['pegasis-tdma']:.0f}, "
         f"PC {life['pegasis-cdma']:.0f}, direct {life['direct']:.0f}"),
        ("EMLN > LEACH", emln > life["leach"], f"LEACH {life['leach']:.0f}"),
        ("EMLN/LEACH in [2.3, 4.5]", 2.3 <= emln / life["leach"] <= 4.5,
         f"{emln / life['leach']:.2f}"),
        ("EMLN/PEGASIS (pooled mean of both variants) in [1.7, 3.0]",
         1.7 <= emln / pegasis_pooled <= 3.0,
         f"pooled {emln / pegasis_pooled:.2f}; per variant: "
         f"TDMA {emln / life['pegasis-tdma']:.2f}, CDMA {emln / life['pegasis-cdma']:.2f}"),
        ("direct lifetime < EMLN/20", life["direct"] < emln / 20,
         f"direct {life['direct']:.0f} vs bound {emln / 20:.0f}"),
    ])


def test_criterion_08_delay_ordering(emln_experiments, baseline_experiments):
    emln = emln_experiments[25.0].aggregate.mean_delay_per_round
    delay = {p: r.aggregate.mean_delay_per_round for p, r in baseline_experiments.items()}
    pc_exact = all(np.all(rep.delay_per_round == 7)
                   for rep in baseline_experiments["pegasis-cdma"].reports)
    ordering = delay["pegasis-cdma"] < emln < delay["leach"] < delay["pegasis-tdma"]
    check(8, [
        ("PEGASIS-CDMA delay == 7 exactly at 100 alive nodes", pc_exact,
         f"mean {delay['pegasis-cdma']:.4f}"),
        ("delay ordering PEGASIS-CDMA < EMLN < LEACH < PEGASIS-TDMA", ordering,
         f"PC {delay['pegasis-cdma']:.1f} EMLN {emln:.1f} "
         f"LEACH {delay['leach']:.1f} PT {delay['pegasis-tdma']:.1f}"),
        ("EMLN/PEGASIS-CDMA in [2.0, 3.5]", 2.0 <= emln / 7 <= 3.5, f"{emln / 7:.2f}"),
        ("PEGASIS-TDMA/EMLN in [3.0, 4.7]", 3.0 <= delay["pegasis-tdma"] / emln <= 4.7,
         f"{delay['pegasis-tdma'] / emln:.2f}"),
        ("LEACH/EMLN in [1.2, 2.2]", 1.2 <= delay["leach"] / emln <= 2.2,
         f"{delay['leach'] / emln:.2f}"),
    ])


def test_criterion_09_energy_delay(emln_experiments, baseline_experiments):
    emln = emln_experiments[25.0].aggregate.mean_energy_delay
    ed = {p: r.aggregate.mean_energy_delay for p, r in baseline_experiments.items()}
    check(9, [
        ("direct energy*delay >= 50x EMLN", ed["direct"] >= 50 * emln,
         f"ratio {ed['direct'] / emln:.0f}"),
        ("EMLN/PEGASIS-CDMA energy*delay in [1.8, 3.2]",
         1.8 <= emln / ed["pegasis-cdma"] <= 3.2,
         f"{emln / ed['pegasis-cdma']:.2f}"),
    ])


def test_criterion_10_oracle_equivalence(emln_experiments, baseline_experiments):
    rng = np.random.default_rng(ACCEPT_SEED)
    subchecks = []

    # (a) exhaustive internal-set search on 200 random connected graphs <= 8 nodes
    leaf_ok = validate_ok = True
    for i in range(200):
        n = int(rng.integers(1, 9))
        adj = random_connected_adjacency(rng, n)
        snap = snapshot_from_adjacency(adj)
        energies = rng.choice([0.25, 0.5, 1.0, 2.0], size=n)
        tree = construct_tree(snap, energies, tie_seed=i)
        validate_ok &= tree is not None and validate_tree(tree, snap)
        leaf_ok &= len(tree.leaf_set) <= optimal_leaf_count(adj)
    subchecks.append(("leaf count <= brute-force optimum on 200 graphs", leaf_ok, "n <= 8"))
    subchecks.append(("validate_tree passes on all 200", validate_ok, "n <= 8"))

    # (b) delay equals the minimum over child-permutation schedules
    delay_ok = True
    for i in range(200):
        n = int(rng.integers(1, 26))
        tree = random_gather_tree(rng, n)
        children = {u: list(tree.children[u]) for u in range(n)}
        delay_ok &= compute_delay(tree) == tree_delay_bruteforce(children, tree.root)
    subchecks.append(("delay == min over child permutations on 200 trees", delay_ok,
                      "<= 6 children per node"))

    # (c) PEGASIS delays and ledgers vs the slot-by-slot schedule simulator
    peg_ok = True
    for m in range(1, 11):
        nodes = deploy(FieldConfig(node_count=m), derive_seed(ACCEPT_SEED, 50_000 + m))
        pos = gs.positions_of(nodes)
        chain = build_chain(pos, SINK)
        alive = np.ones(m, bool)
        for leader_pos in range(m):
            seed = next(s for s in range(20_000)
                        if int(gs.make_rng(s).integers(m)) == leader_pos)
            leader = int(chain[leader_pos])
            ledger, delay = pegasis_tdma_round(chain, alive, seed, pos, SINK, PARAMS)
            slots, txs = tdma_schedule(chain.tolist(), leader_pos)
            ref = recount_relay_ledger(txs, leader, pos, SINK, PARAMS)
            peg_ok &= delay == slots == max(leader_pos, m - 1 - leader_pos)
            peg_ok &= all(np.allclose(a, b, rtol=1e-12, atol=0)
                          for a, b in zip((ledger.tx, ledger.rx, ledger.fuse), ref))
            ledger, delay = pegasis_cdma_round(chain, alive, seed, pos, SINK, PARAMS)
            levels, txs = cdma_schedule(chain.tolist(), leader)
            ref = recount_relay_ledger(txs, leader, pos, SINK, PARAMS)
            peg_ok &= delay == levels == int(np.ceil(np.log2(m))) and len(txs) == m - 1
            peg_ok &= all(np.allclose(a, b, rtol=1e-12, atol=0)
                          for a, b in zip((ledger.tx, ledger.rx, ledger.fuse), ref))
    subchecks.append(("PEGASIS delays match schedule simulation on <= 10-node chains",
                      peg_ok, "all leader positions, both variants"))

    # (d) energy conservation every round of every lifetime trial
    cons_ok = True
    worst = 0.0
    all_results = list(emln_experiments.values()) + list(baseline_experiments.values())
    for result in all_results:
        for report in result.reports:
            if report.completed_rounds == 0:
                continue
            spent = np.cumsum(report.energy_per_round)
            drained = report.initial_total - report.residual_total_per_round
            gap = np.abs(drained - spent)
            bound = 1e-9 * np.arange(1, report.completed_rounds + 1)
            cons_ok &= bool(np.all(gap <= bound))
            worst = max(worst, float((gap / bound).max()))
    subchecks.append(("energy conservation <= 1e-9 J/round, every round of every trial",
                      cons_ok, f"worst fraction of bound {worst:.2e}"))

    check(10, subchecks)


def test_criterion_12_energy_balance(emln_experiments, baseline_experiments):
    # the abstract's claim that EMLN-DG balances the energy level across the
    # nodes, read as: at the first death it leaves the least of the network's
    # initial energy unspent; an ordering, no band
    results = {"emln": emln_experiments[25.0], **baseline_experiments}
    unspent = {p: np.array([r.final_energies.sum() / r.initial_total for r in result.reports
                            if r.connected]) for p, result in results.items()}
    for protocol, fractions in unspent.items():
        print(f"[criterion 12] {protocol}: unspent fraction at first death "
              f"{fractions.mean():.3f} (sd {fractions.std(ddof=1):.3f}, "
              f"{fractions.min():.3f}-{fractions.max():.3f}, {fractions.size} trials)")
    means = {p: fractions.mean() for p, fractions in unspent.items()}
    check(12, [("EMLN leaves the smallest unspent fraction of the five protocols",
                min(means, key=means.get) == "emln",
                ", ".join(f"{p} {m:.3f}" for p, m in means.items()))])


def test_criterion_11_byte_identical_csv(tmp_path):
    args = ["--nodes", "60", "--trials", "3", "--max-rounds", "60", "--seed", "7"]
    # the child imports the same gathersim as this process, installed or not
    src = str(Path(gs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    outs = []
    for tag in ("a", "b"):
        agg = tmp_path / f"agg_{tag}.csv"
        rounds = tmp_path / f"rounds_{tag}.csv"
        for extra, path in ((
                [], agg), (["--per-round"], rounds)):
            proc = subprocess.run(
                [sys.executable, "-m", "gathersim", *args, *extra, "--out", str(path)],
                capture_output=True, text=True, timeout=600, env=env)
            assert proc.returncode == 0, proc.stderr
        outs.append((agg.read_bytes(), rounds.read_bytes()))
    check(11, [
        ("aggregate CSV byte-identical across runs", outs[0][0] == outs[1][0],
         f"{len(outs[0][0])} bytes"),
        ("per-round CSV byte-identical across runs", outs[0][1] == outs[1][1],
         f"{len(outs[0][1])} bytes"),
    ])
