"""First-order radio energy model and per-round tree energy accounting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .emln import GatherTree
from .network import check_numbers


@dataclass(frozen=True)
class RadioParams:
    e_elec: float = 50e-9       # J/bit, transmitter/receiver electronics
    eps_amp: float = 100e-12    # J/bit/m^2, transmit amplifier (r^2 loss)
    e_fuse: float = 5e-9        # J/bit per fused signal
    packet_bits: int = 2000     # bits per data packet; aggregates keep this size

    def validate(self) -> None:
        check_numbers(self, "e_elec", "eps_amp", "e_fuse", ge=0)
        check_numbers(self, "packet_bits", integer=True, ge=1)


def tx_cost(params: RadioParams, bits: int, distance):
    """Energy to transmit ``bits`` over ``distance`` meters, elementwise.

    The one transmit-cost formula: ``distance`` may be a number or an array
    of hop lengths, and nothing is validated.
    """
    return params.e_elec * bits + params.eps_amp * bits * distance * distance


def hop_lengths(a, b) -> np.ndarray:
    """Row-wise Euclidean distances between positions ``a`` and ``b``.

    The values ``np.linalg.norm(a - b, axis=1)`` gives for positions in the
    plane, without its overhead: dx² + dy² as one addition, which is what a
    reduction over two columns adds, only without its per-row loop.
    """
    diff = a - b
    diff *= diff
    return np.sqrt(diff[:, 0] + diff[:, 1])


def dot_hop_lengths(a, b) -> np.ndarray:
    """Row-wise Euclidean distances with the bits of ``np.linalg.norm(a[i] - b[i])``.

    One stacked dot product runs norm's 1-D path (the BLAS dot) for every
    row at once. Tree roots and PEGASIS leaders take their hop to the sink
    from it, with the bits the recorded outputs hold: ``hop_lengths``' sum
    of squares differs in the last bit for about one row in ten.
    """
    diff = a - b
    return np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])


@dataclass
class EnergyLedger:
    """Per-node energy debits for one round, split by activity.

    The split keeps every accounting component separately inspectable, e.g.
    that leaves are never debited for reception or fusion. A block of
    rounds holds (rounds, n) arrays, one row per round.
    """

    tx: np.ndarray
    rx: np.ndarray
    fuse: np.ndarray

    @classmethod
    def empty(cls, shape: int | tuple[int, int]) -> "EnergyLedger":
        return cls(np.zeros(shape), np.zeros(shape), np.zeros(shape))

    @property
    def per_node(self) -> np.ndarray:
        return self.tx + self.rx + self.fuse

    @property
    def total(self) -> float:
        return float(self.per_node.sum())


def tree_round_energy(tree: GatherTree, positions, sink, params: RadioParams) -> EnergyLedger:
    """Debit one gathering round over ``tree``.

    A leaf pays only the transmission to its parent. An intermediate node
    with c children pays c receptions, fusion of c + 1 signals (children's
    packets plus its own reading), and one transmission to its parent; for
    the root the upstream hop goes to the sink. All hop distances are the
    actual Euclidean separations. The ledger is row 0 of
    ``trees_round_energy`` over the tree as a batch of one.
    """
    positions = np.asarray(positions, dtype=float)
    if tree.parent.shape != (len(positions),):
        raise ValueError("tree does not match the node set")
    batch = trees_round_energy(np.array([tree.root]), tree.parent[None], tree.intermediate[None],
                               positions, sink, params)
    return EnergyLedger(batch.tx[0], batch.rx[0], batch.fuse[0])


def trees_round_energy(roots, parent, intermediate, positions, sink,
                       params: RadioParams) -> EnergyLedger:
    """``tree_round_energy`` of each row of ``construct_trees``' output, as (T, n) rows.

    ``positions`` are the T·n positions of the stacked graph; one
    ``bincount`` counts the children of all trees. A disconnected row
    (root -1) holds no meaningful debits.
    """
    trials, n = parent.shape
    k = params.packet_bits
    parent = parent.ravel()
    non_root = np.flatnonzero(parent >= 0)
    parents = parent[non_root] + non_root // n * n
    tx = np.zeros(trials * n)
    # take: a fancy index of (n, 2) rows costs about ten times as much
    tx[non_root] = tx_cost(params, k, hop_lengths(positions.take(non_root, axis=0),
                                                  positions.take(parents, axis=0)))
    tops = np.flatnonzero(roots >= 0) * n + roots[roots >= 0]
    tx[tops] = tx_cost(params, k, dot_hop_lengths(positions.take(tops, axis=0),
                                                  np.asarray(sink, dtype=float)))

    child_count = np.bincount(parents, minlength=trials * n)
    rx = child_count * (params.e_elec * k)
    fuse = np.where(intermediate.ravel(), params.e_fuse * k * (child_count + 1), 0.0)
    return EnergyLedger(*(a.reshape(trials, n) for a in (tx, rx, fuse)))
