"""Exact linear algebra over GF(2) with bit-packed rows.

Vectors and matrix rows are stored as Python ints (bit i = coordinate i), so
products and eliminations reduce to XOR/AND plus popcounts. Set bits are walked
top bit first by `_ones` (their indices) and `_xor_rows` (products).
"""

from __future__ import annotations

from typing import Sequence

from ._record import record

__all__ = [
    "BitVector",
    "BitMatrix",
    "SingularMatrix",
    "mat_mul",
    "mat_vec",
    "mat_inverse",
    "rank",
    "kernel_basis",
    "column_space_basis",
]


class SingularMatrix(ValueError):
    """Raised when an inverse is requested for a rank-deficient matrix."""


def _ones(x: int) -> list[int]:
    """Set-bit indices of x, ascending."""
    out = []
    while x:
        out.append(j := x.bit_length() - 1)
        x ^= 1 << j
    return out[::-1]


def _xor_rows(rows: Sequence[int], x: int) -> int:
    """XOR of rows[j] over the set bits j of x: x·M for M's packed rows."""
    acc = 0
    while x:
        j = x.bit_length() - 1
        acc ^= rows[j]
        x ^= 1 << j
    return acc


@record
class BitVector:
    """Vector over GF(2): ``n`` coordinates packed into the int ``bits``."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("negative vector length")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bits out of range for length {self.n}")

    @classmethod
    def zero(cls, n: int) -> "BitVector":
        return cls(n, 0)

    @classmethod
    def unit(cls, n: int, i: int) -> "BitVector":
        """Standard basis vector e_i (0-indexed)."""
        if not 0 <= i < n:
            raise ValueError("unit index out of range")
        return cls(n, 1 << i)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BitVector(self.n, self.bits ^ other.bits)

    def is_zero(self) -> bool:
        return self.bits == 0

    def support(self) -> tuple[int, ...]:
        """Set coordinates, ascending."""
        return tuple(_ones(self.bits))

    def to_tuple(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.n))


@record
class BitMatrix:
    """Dense GF(2) matrix; ``rows[i]`` packs row i, bit j = entry (i, j)."""

    n_rows: int
    n_cols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("negative matrix dimension")
        if len(self.rows) != self.n_rows:
            raise ValueError("row count does not match n_rows")
        limit = 1 << self.n_cols
        for r in self.rows:
            if not 0 <= r < limit:
                raise ValueError("row bits out of range")

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "BitMatrix":
        return cls(n_rows, n_cols, (0,) * n_rows)

    def row(self, i: int) -> BitVector:
        return BitVector(self.n_cols, self.rows[i])

    def transpose(self) -> "BitMatrix":
        rows = [0] * self.n_cols
        for i, r in enumerate(self.rows):
            bit = 1 << i
            # Scatter stays inline: through _ones, transpose of rhg:6x6x6 takes 1.34x as long.
            while r:
                j = r.bit_length() - 1
                rows[j] |= bit
                r ^= 1 << j
        return BitMatrix(self.n_cols, self.n_rows, tuple(rows))

    def to_lists(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.n_cols)] for r in self.rows]


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product over GF(2): row i is _xor_rows(b.rows, a.rows[i])."""
    if a.n_cols != b.n_rows:
        raise ValueError(f"dimension mismatch: {a.n_cols} vs {b.n_rows}")
    return BitMatrix(a.n_rows, b.n_cols, tuple(_xor_rows(b.rows, ra) for ra in a.rows))


def mat_vec(m: BitMatrix, v: BitVector) -> BitVector:
    """Matrix-vector product m.v over GF(2)."""
    if m.n_cols != v.n:
        raise ValueError(f"dimension mismatch: {m.n_cols} vs {v.n}")
    bits = 0
    for i, r in enumerate(m.rows):
        bits |= ((r & v.bits).bit_count() & 1) << i
    return BitVector(m.n_rows, bits)


def _insert(v: int, echelon: dict[int, int], low: int = 0) -> int:
    """Reduce v against rows keyed by their highest set bit until its top bit
    has no row, which stores v there, or lies in the low `low` bits.

    Returns the remainder: ``_insert(...) >> low`` is nonzero exactly when v
    was independent of the echelon above the low bits and was stored.
    """
    while (top := v.bit_length()) > low:
        pivot = echelon.get(top)
        if pivot is None:
            echelon[top] = v
            break
        v ^= pivot
    return v


def rank(m: BitMatrix) -> int:
    echelon: dict[int, int] = {}
    return sum(1 for row in m.rows if _insert(row, echelon))


def _extend(echelon: dict[int, int], dim: int, low: int) -> list[int]:
    """Insert e_0, e_1, ... (shifted past the low `low` bits) until the
    echelon spans all dim coordinates; returns the indices that were kept."""
    kept = []
    for i in range(dim):
        if len(echelon) == dim:
            break
        if _insert(1 << (i + low), echelon, low) >> low:
            kept.append(i)
    return kept


def _column_pass(columns: Sequence[int]) -> tuple[dict[int, int], list[int], list[int]]:
    """Insert a matrix's columns left to right, column f tagged in the low
    bits as ``(col << n) | (1 << f)`` for n columns.

    Returns the echelon, the pivots (the columns that stay independent, which
    are the leftmost independent ones) and one kernel vector per other column
    f, ascending: the tag it is left with, e_f plus earlier pivots only, which
    is the kernel vector supported on the pivots and f.
    """
    n = len(columns)
    echelon: dict[int, int] = {}
    pivots, kernel = [], []
    for f, col in enumerate(columns):
        v = _insert((col << n) | (1 << f), echelon, n)
        if v >> n:
            pivots.append(f)
        else:
            kernel.append(v)
    return echelon, pivots, kernel


def _frame(pivots: list[int], kernel: list[int]) -> tuple[list[int], list[int]]:
    """From `_column_pass`'s pivots and kernel vectors: the rows of
    D = [e_p ... | kernel vectors] (its columns in that order) and the RREF
    rows in pivot order, both from one walk over the kernel vectors' bits.
    The kernel vector of free column f holds pivot p where RREF row p holds f.
    """
    n = len(pivots) + len(kernel)
    d_rows = [0] * n
    rref = [0] * n
    for j, p in enumerate(pivots):
        d_rows[p] = 1 << j
        rref[p] = 1 << p
    for j, v in enumerate(kernel, len(pivots)):
        f = v.bit_length() - 1
        col, free = 1 << j, 1 << f
        d_rows[f] = col
        v ^= free
        # Scatter stays inline: through _ones, this takes 1.12x and compute_reduction 1.09x on rhg:6x6x6.
        while v:
            p = v.bit_length() - 1
            d_rows[p] |= col
            rref[p] |= free
            v ^= 1 << p
    return d_rows, [rref[p] for p in pivots]


def mat_inverse(m: BitMatrix) -> BitMatrix:
    """Inverse by row-reducing [m | I] to [I | m^-1]; raises SingularMatrix if rank < n."""
    if m.n_rows != m.n_cols:
        raise ValueError("matrix not square")
    n = m.n_rows
    # m sits in the high bits, so a row whose high part reduces to zero shows
    # that m is singular.
    echelon: dict[int, int] = {}
    for i, r in enumerate(m.rows):
        if not _insert((r << n) | (1 << i), echelon, n) >> n:
            raise SingularMatrix(f"matrix is singular (rank < {n})")
    # Every column of m is a pivot. Back-substitute lowest pivot first: the
    # rows below are then reduced, so XORing one in to clear its pivot brings
    # in no other pivot bit.
    rows = []
    done = 0  # pivot bits of the rows reduced so far
    for top in range(n + 1, 2 * n + 1):
        row = echelon[top]
        while hits := row & done:
            row ^= echelon[hits.bit_length()]
        echelon[top] = row
        pivot = 1 << (top - 1)
        done |= pivot
        rows.append(row ^ pivot)
    return BitMatrix(n, n, tuple(rows))


def kernel_basis(m: BitMatrix) -> list[BitVector]:
    """Basis of {x : m.x = 0}, one vector per free column, ascending index."""
    return [BitVector(m.n_cols, v) for v in _column_pass(m.transpose().rows)[2]]


def column_space_basis(m: BitMatrix) -> tuple[list[BitVector], list[BitVector]]:
    """Basis of the column space with preimages: the kept columns are the
    pivots of the column pass, m's leftmost independent columns.

    Returns (c_basis, d_preimages) where c_basis[i] is a kept column of m,
    d_preimages[i] is the standard basis vector of the kept column index,
    so m . d_preimages[i] = c_basis[i].
    """
    columns = m.transpose().rows
    pivots = _column_pass(columns)[1]
    return [BitVector(m.n_rows, columns[p]) for p in pivots], [BitVector.unit(m.n_cols, p) for p in pivots]

