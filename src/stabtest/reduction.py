"""Local-conversion view of a bipartite graph state.

Builds invertible matrices C (over the B side) and D (over the W side) such
that C^-1 A D = [[I, 0], [0, 0]] with an identity block of size rank(A). In
that frame the state splits into maximally entangled pairs plus isolated
plus states, and the stabilizer test becomes coordinate-wise comparison.
C, D and D^-1 come from one elimination pass over the columns of A; only C
is inverted by a second one.
"""

from __future__ import annotations

from ._record import record
from .gf2 import BitMatrix, BitVector, _column_pass, _extend, _frame, mat_inverse, mat_mul, mat_vec
# perfbench/spans.py patches these by getattr; without them `--trace 1` dies with AttributeError.
from .gf2 import column_space_basis, kernel_basis  # noqa: F401
from .graphs import BipartiteGraphState

__all__ = [
    "Reduction",
    "CheckRelation",
    "compute_reduction",
    "convert",
    "relation_failures",
    "relations_hold",
    "converted_checks_hold",
    "converted_relations",
]


@record
class Reduction:
    """Conversion data for one graph: C, D, rank, and cached derived matrices."""

    c_mat: BitMatrix
    d_mat: BitMatrix
    n_prime: int
    c_inv: BitMatrix
    d_inv: BitMatrix
    c_t: BitMatrix
    d_t: BitMatrix


@record
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
    from one pass over the columns of A: the columns that stay independent
    are the kept ones, the tag each other column is left with is its kernel
    vector, and inserting e_0, e_1, ... into the same echelon completes C.
    D and D^-1 are read off the kernel vectors: in the (pivot, free) frame
    D = [e_p | e_f + sum R e_p], so D^-1 is the RREF rows of A followed by
    e_f for each free column f. Only C is inverted by elimination.

    The check is C C^-1 = I and (A D)_i = C_i & (2^n' - 1) for every row i,
    that is A D = C [[I, 0], [0, 0]]: it implies C^-1 A D = [[I, 0], [0, 0]]
    and also checks C^-1 against C.
    """
    columns = g.adjacency_t.rows
    echelon, pivots, kernel = _column_pass(columns)
    n_prime = len(pivots)
    # Rows of C^T and D^T are the columns of C and D.
    completion = [1 << i for i in _extend(echelon, g.n_b, g.n_w)]
    c_t = BitMatrix(g.n_b, g.n_b, tuple([columns[p] for p in pivots] + completion))
    d_t = BitMatrix(g.n_w, g.n_w, tuple([1 << p for p in pivots] + kernel))
    d_rows, rref = _frame(pivots, kernel)
    c_mat = c_t.transpose()
    d_mat = BitMatrix(g.n_w, g.n_w, tuple(d_rows))
    c_inv = mat_inverse(c_mat)
    d_inv = BitMatrix(g.n_w, g.n_w, tuple(rref + [1 << (v.bit_length() - 1) for v in kernel]))
    block = (1 << n_prime) - 1
    a_d = mat_mul(g.adjacency, d_mat)
    if mat_mul(c_mat, c_inv) != BitMatrix.identity(g.n_b) or any(
        ad != c & block for ad, c in zip(a_d.rows, c_mat.rows)
    ):
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


def _conversion(r: Reduction, group: int) -> tuple[BitMatrix, BitMatrix]:
    """(X-side, Z-side) conversion matrices of one test group.

        group 1: (C^-1, D^-1)
        group 2: (D^T, C^T)
    """
    if group == 1:
        return r.c_inv, r.d_inv
    if group == 2:
        return r.d_t, r.c_t
    raise ValueError("group must be 1 or 2")


def convert(r: Reduction, group: int, x: BitVector, z: BitVector) -> tuple[BitVector, BitVector]:
    """Classical data conversion for one test group: (x', z') from raw (x, z)."""
    x_mat, z_mat = _conversion(r, group)
    return mat_vec(x_mat, x), mat_vec(z_mat, z)


def relation_failures(g: BipartiteGraphState, group: int, x: BitVector, z: BitVector) -> BitVector:
    """Failure bit per relation; zero means every check passed."""
    return x ^ mat_vec(g.check_matrix(group), z)


def relations_hold(g: BipartiteGraphState, group: int, x: BitVector, z: BitVector) -> bool:
    return relation_failures(g, group, x, z).is_zero()


def converted_checks_hold(r: Reduction, group: int, x: BitVector, z: BitVector) -> bool:
    """Evaluate the converted test: equality on the first n_prime coordinates
    and zero on the remaining converted x coordinates."""
    xp, zp = convert(r, group, x, z)
    return xp.bits == zp.bits & ((1 << r.n_prime) - 1)


def converted_relations(r: Reduction, group: int) -> list[CheckRelation]:
    """The converted test as parity checks on raw outcomes: row i of the X-side
    conversion matrix against row i of the Z-side one, empty past n_prime."""
    x_mat, z_mat = _conversion(r, group)
    empty = BitVector.zero(z_mat.n_cols)
    return [
        CheckRelation(x_mat.row(i), z_mat.row(i) if i < r.n_prime else empty, group)
        for i in range(x_mat.n_rows)
    ]
