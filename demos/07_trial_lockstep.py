#!/usr/bin/env python3
"""Time trials run one by one against trials run in lockstep, EMLN and baselines.

``construct_tree`` is the one-row case of ``construct_trees``: one call
grows one tree, through the loop that keeps its pick as a Python int. The
engine grows the trees of the trials that need one in the same step
together, with one ``construct_trees`` call over their stacked graphs,
however few they are. A lockstep step makes about as many numpy calls for
one tree as for ten, so this script shows what T trees cost as T one-row
calls ("separate") and as one T-row call ("lockstep"). For
T = 1, 2, 3, 4, 6, 10 and 48 trials of 100 nodes (default density, range
25 m) with mid-lifetime residual energies, it checks that every row of the
T-row call is the tree of the one-row call, and prints the time per tree of
both, and of lockstep with the graphs stacked anew and their neighbor table
built anew (which the engine does only when a member's graph or the set of
members changes). The one-row calls reuse each graph's cached table.

The engine folds the delays of a group's trees over many steps at once:
its trees wait in a queue until it holds ``engine.FOLD_NODES`` nodes. For
40 steps of 10 trees, each step's trees grown from other residual
energies, the script checks that ``compute_delays`` over queues of that
many nodes gives the delays of one call per step, and prints the time per
tree of both.

The baselines step in lockstep too: each step hashes the round seeds of
all of a protocol's live trials in one call, and the PEGASIS trials whose
alive chains have one size build their ledgers in one call. For LEACH,
PEGASIS-TDMA, PEGASIS-CDMA and direct transmission at 0.1 J (first death),
and T = 1, 10 and 48 trials, the script checks that the reports of one
T-trial ``run_experiment`` equal those of T ``run_trial`` calls byte for
byte, and prints the time per round of both.

Each figure is the minimum over alternating samples. Pass a node count to
time another size, for example ``python demos/07_trial_lockstep.py 2000``.
"""

import dataclasses
import math
import sys
from time import perf_counter

import numpy as np

from gathersim import (FieldConfig, SimConfig, build_graph, construct_tree, deploy, derive_seed,
                       run_experiment, run_trial)
from gathersim.emln import compute_delays, construct_trees
from gathersim.engine import FOLD_NODES
from gathersim.network import stack_graphs

WIDTHS = (1, 2, 3, 4, 6, 10, 48)
FOLD_STEPS, FOLD_WIDTH = 40, 10
BASELINE_WIDTHS = (1, 10, 48)
BASELINES = ("leach", "pegasis-tdma", "pegasis-cdma", "direct")
SAMPLES = 7


def timed(fn, calls: int) -> float:
    t0 = perf_counter()
    for _ in range(calls):
        fn()
    return (perf_counter() - t0) / calls


def main(n: int) -> None:
    side = 10.0 * math.sqrt(n)
    field = FieldConfig(width=side, height=side, node_count=n,
                        sink_position=(side / 2, side + 200.0))
    rng = np.random.default_rng(7)
    print(f"{n} nodes, range 25 m")
    print(f"{'trees':>5} {'separate':>12} {'lockstep':>12} {'+ stacking':>12} {'speed':>6}")
    for width in WIDTHS:
        graphs = [build_graph(deploy(field, derive_seed(width, t)), 25.0) for t in range(width)]
        # residual energies partway through a 0.03 J lifetime: no two alike
        energies = 0.03 - 0.01 * rng.random((width, n))
        seeds = [derive_seed(width, 1000 + t) for t in range(width)]
        stacked = stack_graphs(graphs)

        roots, parent, level, intermediate = construct_trees(stacked, energies, seeds)
        for t in range(width):
            tree = construct_tree(graphs[t], energies[t], seeds[t])
            assert tree is not None and roots[t] == tree.root
            assert np.array_equal(parent[t], tree.parent)
            assert np.array_equal(level[t], tree.level)
            assert np.array_equal(intermediate[t], tree.intermediate)

        def separate():
            for t in range(width):
                construct_tree(graphs[t], energies[t], seeds[t])

        def lockstep():
            construct_trees(stacked, energies, seeds)

        def restacked():
            construct_trees(stack_graphs(graphs), energies, seeds)

        calls = max(1, 2000 // (width * n))
        best = {"separate": math.inf, "lockstep": math.inf, "restacked": math.inf}
        for _ in range(SAMPLES):
            for name, fn in (("separate", separate), ("lockstep", lockstep),
                             ("restacked", restacked)):
                best[name] = min(best[name], timed(fn, calls) / width)
        print(f"{width:>5} {best['separate'] * 1e6:>9.1f} us {best['lockstep'] * 1e6:>9.1f} us "
              f"{best['restacked'] * 1e6:>9.1f} us {best['separate'] / best['lockstep']:>5.2f}x")
    folds(field, n)
    baselines(field)


def folds(field: FieldConfig, n: int) -> None:
    """Delays of FOLD_STEPS steps of trees: one call per step against folded queues."""
    rng = np.random.default_rng(11)
    graphs = [build_graph(deploy(field, derive_seed(FOLD_WIDTH, t)), 25.0)
              for t in range(FOLD_WIDTH)]
    stacked = stack_graphs(graphs)
    steps = [construct_trees(stacked, 0.03 - 0.01 * rng.random((FOLD_WIDTH, n)),
                             [derive_seed(step, t) for t in range(FOLD_WIDTH)])[:3]
             for step in range(FOLD_STEPS)]
    per_queue = -(-FOLD_NODES // (FOLD_WIDTH * n))  # steps until the engine's queue folds
    queues = [tuple(map(np.concatenate, zip(*steps[i:i + per_queue])))
              for i in range(0, FOLD_STEPS, per_queue)]

    def per_step():
        return np.concatenate([compute_delays(*step) for step in steps])

    def folded():
        return np.concatenate([compute_delays(*queue) for queue in queues])

    assert np.array_equal(per_step(), folded())
    trees = FOLD_STEPS * FOLD_WIDTH
    best = {"per step": math.inf, "folded": math.inf}
    for _ in range(SAMPLES):
        for name, fn in (("per step", per_step), ("folded", folded)):
            best[name] = min(best[name], timed(fn, 3) / trees)
    print(f"\ndelays of {trees} trees, {FOLD_WIDTH} a step, queues of {per_queue} steps "
          f"(FOLD_NODES = {FOLD_NODES}): time per tree")
    print(f"{'per step':>12} {'folded':>12} {'speed':>6}")
    print(f"{best['per step'] * 1e6:>9.1f} us {best['folded'] * 1e6:>9.1f} us "
          f"{best['per step'] / best['folded']:>5.2f}x")


def same_reports(got, want) -> bool:
    """Every field equal, arrays by dtype, shape and bytes, floats by their spelling."""
    for a, b in zip(got, want, strict=True):
        for f in dataclasses.fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(x, np.ndarray):
                if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
                    return False
            elif repr(x) != repr(y):
                return False
    return True


def baselines(field: FieldConfig) -> None:
    print("\nbaselines at 0.1 J, first death: time per round")
    print(f"{'protocol':>12} {'trials':>6} {'separate':>12} {'lockstep':>12} {'speed':>6}")
    for protocol in BASELINES:
        for width in BASELINE_WIDTHS:
            config = SimConfig(field=field, protocol=protocol, initial_energy=0.1,
                               trials=width, master_seed=width)
            seeds = [derive_seed(config.master_seed, t) for t in range(width)]

            def separate():
                return [run_trial(config, seed) for seed in seeds]

            def lockstep():
                return run_experiment(config, keep_reports=True).reports

            reports = lockstep()
            assert same_reports(reports, separate()), (protocol, width)
            rounds = sum(r.completed_rounds for r in reports)
            best = {"separate": math.inf, "lockstep": math.inf}
            calls = max(1, 2000 // rounds)
            for _ in range(SAMPLES):
                for name, fn in (("separate", separate), ("lockstep", lockstep)):
                    best[name] = min(best[name], timed(fn, calls) / rounds)
            print(f"{protocol:>12} {width:>6} {best['separate'] * 1e6:>9.1f} us "
                  f"{best['lockstep'] * 1e6:>9.1f} us {best['separate'] / best['lockstep']:>5.2f}x")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 100)
