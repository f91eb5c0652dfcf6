"""Pauli attacks on graph states: syndromes and outcome sampling.

An attack is described by X/Z error masks on both vertex sets. Phases never
matter here; only commutation patterns against the graph stabilizers and the
induced measurement statistics do.
"""

from __future__ import annotations

import random

from ._record import record
from .gf2 import BitVector, _xor_rows, mat_vec
from .graphs import BipartiteGraphState

__all__ = [
    "BlockPauli",
    "BlockClass",
    "syndromes",
    "syndrome_masks",
    "sample_outcomes",
]


@record
class BlockPauli:
    """Per-copy error masks: u_* are X-error masks, v_* are Z-error masks."""

    u_b: BitVector
    u_w: BitVector
    v_b: BitVector
    v_w: BitVector

    def __post_init__(self) -> None:
        if self.u_b.n != self.v_b.n or self.u_w.n != self.v_w.n:
            raise ValueError("mask lengths disagree between X and Z parts")

    def __xor__(self, other: "BlockPauli") -> "BlockPauli":
        return BlockPauli(
            self.u_b ^ other.u_b,
            self.u_w ^ other.u_w,
            self.v_b ^ other.v_b,
            self.v_w ^ other.v_w,
        )


@record
class BlockClass:
    """Syndrome visibility pair: s = group-1 visible, t = group-2 visible."""

    s: int
    t: int

    def __post_init__(self) -> None:
        if self.s not in (0, 1) or self.t not in (0, 1):
            raise ValueError("class bits must be 0 or 1")


def _check_dims(g: BipartiteGraphState, p: BlockPauli) -> None:
    if p.u_b.n != g.n_b or p.u_w.n != g.n_w:
        raise ValueError(
            f"attack masks sized ({p.u_b.n}, {p.u_w.n}) do not fit graph "
            f"({g.n_b}, {g.n_w})"
        )


def syndromes(g: BipartiteGraphState, p: BlockPauli) -> tuple[BitVector, BitVector]:
    """Anticommutation bits against the graph stabilizers.

    sigma1[j] flags the B-vertex stabilizer X_j Z_N(j) and is what a group-1
    test observes; sigma2[i] flags the W-vertex stabilizer and is what a
    group-2 test observes.
    """
    _check_dims(g, p)
    sigma1, sigma2 = syndrome_masks(g, p.u_b.bits, p.u_w.bits, p.v_b.bits, p.v_w.bits)
    return BitVector(g.n_b, sigma1), BitVector(g.n_w, sigma2)


def syndrome_masks(g: BipartiteGraphState, u_b: int, u_w: int, v_b: int, v_w: int) -> tuple[int, int]:
    """syndromes() on raw bit masks, without dimension checks.

    A·u_w XORs the columns of A over the set bits of u_w, and Aᵀ·u_b the rows,
    both by gf2._xor_rows: one top-bit step per set bit, on a shrinking mask.
    """
    return v_b ^ _xor_rows(g.adjacency_t.rows, u_w), v_w ^ _xor_rows(g.adjacency.rows, u_b)


def sample_outcomes(
    g: BipartiteGraphState,
    p: BlockPauli,
    group: int,
    rng: random.Random,
) -> tuple[BitVector, BitVector]:
    """Sample one block's (x_outcomes, z_outcomes) under the attack, on the
    sides g.check_matrix(group) names. The Z record is uniform; the X record is
    pinned so that the relation-failure pattern equals the relevant syndrome.
    """
    _check_dims(g, p)
    m = g.check_matrix(group)
    base = BitVector(m.n_cols, rng.getrandbits(m.n_cols))
    x_flip, z_flip = (p.v_b, p.u_w) if group == 1 else (p.v_w, p.u_b)
    return mat_vec(m, base) ^ x_flip, base ^ z_flip
