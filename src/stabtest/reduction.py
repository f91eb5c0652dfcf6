"""Local-conversion view of a bipartite graph state.

Builds invertible matrices C (over the B side) and D (over the W side) such
that C^-1 A D = [[I, 0], [0, 0]] with an identity block of size rank(A). In
that frame the state splits into maximally entangled pairs plus isolated
plus states, and the stabilizer test becomes coordinate-wise comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import BitMatrix, BitVector, _rref, _rref_kernel, extend_to_basis, mat_inverse, mat_mul, mat_vec
# perfbench/spans.py patches these by getattr; without them `--trace 1` dies with AttributeError.
from .gf2 import column_space_basis, kernel_basis  # noqa: F401
from .graphs import BipartiteGraphState

__all__ = [
    "Reduction",
    "CheckRelation",
    "compute_reduction",
    "convert_group1",
    "convert_group2",
    "check_relations",
    "relation_failures",
    "relations_hold",
    "converted_checks_hold",
    "converted_relations",
]


@dataclass(frozen=True)
class Reduction:
    """Conversion data for one graph: C, D, rank, and cached derived matrices."""

    c_mat: BitMatrix
    d_mat: BitMatrix
    n_prime: int
    c_inv: BitMatrix
    d_inv: BitMatrix
    c_t: BitMatrix
    d_t: BitMatrix


@dataclass(frozen=True)
class CheckRelation:
    """One parity check: XOR of x over x_mask must equal XOR of z over z_mask."""

    x_mask: BitVector
    z_mask: BitVector
    group: int


def compute_reduction(g: BipartiteGraphState) -> Reduction:
    """Construct C and D with the deterministic basis rules and verify the block form.

    Columns of C are the kept columns of A (its leftmost independent ones)
    followed by the standard-vector completion; columns of D are the unit
    vectors of the kept columns followed by a kernel basis. All of it comes
    from one RREF of A, whose pivots are the kept columns. D^-1 is read off
    that RREF too: in the (pivot, free) frame D = [e_p | e_f + sum R e_p],
    so D^-1 is the RREF rows followed by e_f for each free column f. Only C
    is inverted by elimination.
    """
    a = g.adjacency
    rows, pivots = _rref(a)
    n_prime = len(pivots)
    columns = g.adjacency_t.rows
    c_basis = [BitVector(g.n_b, columns[p]) for p in pivots]
    # Rows of C^T and D^T are the columns of C and D.
    c_t = BitMatrix(g.n_b, g.n_b, tuple(v.bits for v in c_basis + extend_to_basis(c_basis, g.n_b)))
    d_t = BitMatrix(g.n_w, g.n_w, tuple([1 << p for p in pivots] + _rref_kernel(rows, pivots, g.n_w)))
    c_mat = c_t.transpose()
    d_mat = d_t.transpose()
    c_inv = mat_inverse(c_mat)
    pivot_set = set(pivots)
    d_inv = BitMatrix(g.n_w, g.n_w, tuple(rows + [1 << f for f in range(g.n_w) if f not in pivot_set]))
    a_prime = mat_mul(c_inv, mat_mul(a, d_mat))
    for i in range(g.n_b):
        expected = (1 << i) if i < n_prime else 0
        if a_prime.rows[i] != expected:
            raise RuntimeError("internal error: block form not achieved")
    return Reduction(
        c_mat=c_mat,
        d_mat=d_mat,
        n_prime=n_prime,
        c_inv=c_inv,
        d_inv=d_inv,
        c_t=c_t,
        d_t=d_t,
    )


def convert_group1(r: Reduction, x_b: BitVector, z_w: BitVector) -> tuple[BitVector, BitVector]:
    """Classical data conversion for a group-1 test: (C^-1 x, D^-1 z)."""
    if x_b.n != r.c_inv.n_cols or z_w.n != r.d_inv.n_cols:
        raise ValueError("outcome length mismatch")
    return mat_vec(r.c_inv, x_b), mat_vec(r.d_inv, z_w)


def convert_group2(r: Reduction, z_b: BitVector, x_w: BitVector) -> tuple[BitVector, BitVector]:
    """Classical data conversion for a group-2 test: (C^T z, D^T x)."""
    if z_b.n != r.c_t.n_cols or x_w.n != r.d_t.n_cols:
        raise ValueError("outcome length mismatch")
    return mat_vec(r.c_t, z_b), mat_vec(r.d_t, x_w)


def check_relations(g: BipartiteGraphState, group: int) -> list[CheckRelation]:
    """Full stabilizer relation set for one test group.

    Group 1 (X on B, Z on W): one relation per B vertex j, X_j = XOR of Z over
    the neighborhood of j. Group 2 (Z on B, X on W): one relation per W vertex
    i, X_i = XOR of Z over the neighborhood of i.
    """
    if group == 1:
        return [
            CheckRelation(BitVector.unit(g.n_b, j), g.adjacency.row(j), 1)
            for j in range(g.n_b)
        ]
    if group == 2:
        return [
            CheckRelation(BitVector.unit(g.n_w, i), g.adjacency_t.row(i), 2)
            for i in range(g.n_w)
        ]
    raise ValueError("group must be 1 or 2")


def relation_failures(g: BipartiteGraphState, group: int, x: BitVector, z: BitVector) -> BitVector:
    """Failure bit per relation; zero means every check passed."""
    if group == 1:
        return x ^ mat_vec(g.adjacency, z)
    if group == 2:
        return x ^ mat_vec(g.adjacency_t, z)
    raise ValueError("group must be 1 or 2")


def relations_hold(g: BipartiteGraphState, group: int, x: BitVector, z: BitVector) -> bool:
    return relation_failures(g, group, x, z).is_zero()


def converted_checks_hold(r: Reduction, group: int, x: BitVector, z: BitVector) -> bool:
    """Evaluate the converted test: equality on the first n_prime coordinates
    and zero on the remaining converted x coordinates."""
    if group == 1:
        xp, zp = convert_group1(r, x, z)
    elif group == 2:
        zp, xp = convert_group2(r, z, x)
    else:
        raise ValueError("group must be 1 or 2")
    low = (1 << r.n_prime) - 1
    if (xp.bits ^ zp.bits) & low:
        return False
    return xp.bits & ~low == 0


def converted_relations(r: Reduction, group: int) -> list[CheckRelation]:
    """The converted test as explicit parity checks on raw outcomes.

    Group 1: relation i compares the XOR of X outcomes over row i of C^-1
    with the XOR of Z outcomes over row i of D^-1; rows past n_prime are
    pure X parity checks (empty z side). Group 2 mirrors this with D^T rows
    on the X side and C^T rows on the Z side.
    """
    out = []
    if group == 1:
        for i in range(r.c_inv.n_rows):
            z_mask = r.d_inv.row(i) if i < r.n_prime else BitVector.zero(r.d_inv.n_cols)
            out.append(CheckRelation(r.c_inv.row(i), z_mask, 1))
        return out
    if group == 2:
        for i in range(r.d_t.n_rows):
            z_mask = r.c_t.row(i) if i < r.n_prime else BitVector.zero(r.c_t.n_cols)
            out.append(CheckRelation(r.d_t.row(i), z_mask, 2))
        return out
    raise ValueError("group must be 1 or 2")
