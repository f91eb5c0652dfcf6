"""Exact linear algebra over GF(2) with bit-packed rows.

Vectors and matrix rows are stored as Python ints (bit i = coordinate i),
so products and eliminations reduce to XOR/AND plus popcounts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "BitVector",
    "BitMatrix",
    "SingularMatrix",
    "DependentInput",
    "mat_mul",
    "mat_vec",
    "mat_inverse",
    "rank",
    "kernel_basis",
    "column_space_basis",
    "extend_to_basis",
]


class SingularMatrix(ValueError):
    """Raised when an inverse is requested for a rank-deficient matrix."""


class DependentInput(ValueError):
    """Raised when vectors that must be linearly independent are not."""


@dataclass(frozen=True)
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
    def from_bits(cls, coords: Iterable[int]) -> "BitVector":
        bits = 0
        n = 0
        for c in coords:
            if c not in (0, 1):
                raise ValueError("coordinates must be 0 or 1")
            bits |= c << n
            n += 1
        return cls(n, bits)

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

    def weight(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if (self.bits >> i) & 1)

    def to_tuple(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.n))


@dataclass(frozen=True)
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
    def from_columns(cls, cols: Sequence[BitVector], n_rows: int) -> "BitMatrix":
        if any(c.n != n_rows for c in cols):
            raise ValueError("column length mismatch")
        return cls(len(cols), n_rows, tuple(c.bits for c in cols)).transpose()

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "BitMatrix":
        return cls(n_rows, n_cols, (0,) * n_rows)

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.n_rows and 0 <= j < self.n_cols):
            raise IndexError((i, j))
        return (self.rows[i] >> j) & 1

    def row(self, i: int) -> BitVector:
        return BitVector(self.n_cols, self.rows[i])

    def transpose(self) -> "BitMatrix":
        rows = [0] * self.n_cols
        for i, r in enumerate(self.rows):
            while r:
                j = r & -r
                rows[j.bit_length() - 1] |= 1 << i
                r ^= j
        return BitMatrix(self.n_cols, self.n_rows, tuple(rows))

    def to_lists(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.n_cols)] for r in self.rows]


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product over GF(2): row i is the XOR of the rows of b picked by
    the set bits of row i of a."""
    if a.n_cols != b.n_rows:
        raise ValueError(f"dimension mismatch: {a.n_cols} vs {b.n_rows}")
    rows = []
    for ra in a.rows:
        bits = 0
        while ra:
            low = ra & -ra
            bits ^= b.rows[low.bit_length() - 1]
            ra ^= low
        rows.append(bits)
    return BitMatrix(a.n_rows, b.n_cols, tuple(rows))


def mat_vec(m: BitMatrix, v: BitVector) -> BitVector:
    """Matrix-vector product m.v over GF(2)."""
    if m.n_cols != v.n:
        raise ValueError(f"dimension mismatch: {m.n_cols} vs {v.n}")
    bits = 0
    for i, r in enumerate(m.rows):
        bits |= ((r & v.bits).bit_count() & 1) << i
    return BitVector(m.n_rows, bits)


def _insert(v: int, echelon: dict[int, int]) -> bool:
    """Reduce v against rows keyed by their lowest set bit; store the
    remainder and return True if it is nonzero."""
    while v:
        low = v & -v
        pivot = echelon.get(low)
        if pivot is None:
            echelon[low] = v
            return True
        v ^= pivot
    return False


def rank(m: BitMatrix) -> int:
    echelon: dict[int, int] = {}
    return sum(_insert(row, echelon) for row in m.rows)


def _rref(m: BitMatrix) -> tuple[list[int], list[int]]:
    """Nonzero rows of the reduced row echelon form and their pivot columns,
    both in ascending pivot order."""
    echelon: dict[int, int] = {}
    for row in m.rows:
        _insert(row, echelon)
    lows = sorted(echelon)
    # Back-substitute highest pivot first: rows with higher pivots are then
    # already reduced, so XORing one in to clear its pivot brings in no other.
    done = 0
    for low in reversed(lows):
        row = echelon[low]
        hits = row & done
        while hits:
            bit = hits & -hits
            row ^= echelon[bit]
            hits ^= bit
        echelon[low] = row
        done |= low
    return [echelon[low] for low in lows], [low.bit_length() - 1 for low in lows]


def mat_inverse(m: BitMatrix) -> BitMatrix:
    """Inverse by row-reducing [m | I] to [I | m^-1]; raises SingularMatrix if rank < n."""
    if m.n_rows != m.n_cols:
        raise ValueError("matrix not square")
    n = m.n_rows
    # The identity block sits in the high bits, so m's columns pivot first.
    augmented = BitMatrix(n, 2 * n, tuple(r | (1 << (n + i)) for i, r in enumerate(m.rows)))
    rows, pivots = _rref(augmented)
    if pivots != list(range(n)):
        raise SingularMatrix(f"matrix is singular (rank < {n})")
    return BitMatrix(n, n, tuple(r >> n for r in rows))


def _rref_kernel(rows: list[int], pivots: list[int], n_cols: int) -> list[int]:
    """Kernel vectors of a matrix from its `_rref`, one per free column,
    ascending index: e_f plus the pivots of the rows that hold bit f."""
    placed = [0] * n_cols
    for r, p in zip(rows, pivots):
        placed[p] = r
    # Column f of the RREF, with row r moved to bit pivots[r], is the pivot
    # part of the kernel vector for free column f.
    columns = BitMatrix(n_cols, n_cols, tuple(placed)).transpose().rows
    pivot_set = set(pivots)
    return [(1 << f) | c for f, c in enumerate(columns) if f not in pivot_set]


def kernel_basis(m: BitMatrix) -> list[BitVector]:
    """Basis of {x : m.x = 0}, one vector per free column, ascending index."""
    return [BitVector(m.n_cols, v) for v in _rref_kernel(*_rref(m), m.n_cols)]


def column_space_basis(m: BitMatrix) -> tuple[list[BitVector], list[BitVector]]:
    """Basis of the column space with preimages: the kept columns are the
    pivot columns of m's RREF, which are its leftmost independent columns.

    Returns (c_basis, d_preimages) where c_basis[i] is a kept column of m,
    d_preimages[i] is the standard basis vector of the kept column index,
    so m . d_preimages[i] = c_basis[i].
    """
    columns = m.transpose().rows
    pivots = _rref(m)[1]
    return [BitVector(m.n_rows, columns[p]) for p in pivots], [BitVector.unit(m.n_cols, p) for p in pivots]


def extend_to_basis(partial: Sequence[BitVector], dim: int) -> list[BitVector]:
    """Complete independent vectors to a basis of GF(2)^dim.

    Appends standard basis vectors e_0, e_1, ... in index order, keeping each
    one that is independent of the running set. Returns only the appended
    vectors.
    """
    echelon: dict[int, int] = {}
    for v in partial:
        if v.n != dim:
            raise ValueError("vector length does not match dim")
        if not _insert(v.bits, echelon):
            raise DependentInput("partial set is linearly dependent")
    appended = []
    for i in range(dim):
        if len(echelon) == dim:
            break
        if _insert(1 << i, echelon):
            appended.append(BitVector.unit(dim, i))
    return appended
