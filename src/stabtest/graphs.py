"""Bipartite graph states: builders and JSON import/export.

A graph state lives on a bipartite graph whose vertices are split into a
black set B and a white set W. The adjacency matrix A has one row per B
vertex and one column per W vertex; entry (j, i) = 1 means B vertex j is
joined to W vertex i. Vertex numbering within each color class follows
position order (row-major for lattices), so constructions are reproducible.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, product
from math import prod

from ._record import record
from .gf2 import BitMatrix, _ones

__all__ = [
    "MAX_QUBITS",
    "BipartiteGraphState",
    "path_graph",
    "grid_graph",
    "rhg_lattice",
    "edgeless_graph",
    "edges",
    "to_json",
    "from_json",
]


@record
class BipartiteGraphState:
    """Graph state data: B/W sizes and the n_b x n_w adjacency."""

    n_b: int
    n_w: int
    adjacency: BitMatrix

    def __post_init__(self) -> None:
        if self.n_b < 0 or self.n_w < 0:
            raise ValueError("negative vertex count")
        if self.adjacency.n_rows != self.n_b or self.adjacency.n_cols != self.n_w:
            raise ValueError(
                f"adjacency is {self.adjacency.n_rows}x{self.adjacency.n_cols}, "
                f"declared n_b={self.n_b}, n_w={self.n_w}"
            )

    @property
    def n(self) -> int:
        return self.n_b + self.n_w

    @cached_property
    def adjacency_t(self) -> BitMatrix:
        return self.adjacency.transpose()

    def check_matrix(self, group: int) -> BitMatrix:
        """Parity checks x = M·z of one test group; row j of M is the Z-support
        of the check on X-measured vertex j.

            group 1: X on B, Z on W -> M = A
            group 2: Z on B, X on W -> M = Aᵀ
        """
        if group == 1:
            return self.adjacency
        if group == 2:
            return self.adjacency_t
        raise ValueError("group must be 1 or 2")


# Largest graph, in qubits, that the builders and from_json accept. An
# adjacency row is an int as wide as the highest W index it touches, so on
# path: the rows take about n**2 / 64 bytes: about 70 MB at the cap, but
# 16 GB at a million qubits.
MAX_QUBITS = 2**16


def _shown(x: object) -> str:
    """x for an error message: an int of 10**30 or more by its bit length, as
    Python prints no int past 4300 digits, and a Fraction as p/q (p alone
    when q = 1) with p and q shown so; anything else as its repr, cut after
    40 characters and followed by its length when past 100."""
    if isinstance(x, int) and abs(x) >= 10**30:
        return f"<{x.bit_length()}-bit number>"
    if isinstance(x, Fraction):
        return _shown(x.numerator) + (f"/{_shown(x.denominator)}" if x.denominator != 1 else "")
    return _cut(repr(x))


def _cut(text: str, longest: int = 100) -> str:
    """text, or past longest characters its first 40 followed by its length."""
    return text if len(text) <= longest else f"{text[:40]}... ({len(text)} characters)"


def _check_size(field: str, n: int) -> None:
    """Reject a graph of more than MAX_QUBITS qubits before allocating anything."""
    if n > MAX_QUBITS:
        raise ValueError(f"{field} is too large: {_shown(n)} (at most {MAX_QUBITS} qubits)")


def path_graph(n: int) -> BipartiteGraphState:
    """Linear chain on n vertices, odd positions (1-indexed) black: the n x 1
    grid, so vertex pos of either color is number pos // 2."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    _check_size("path length", n)
    return grid_graph(n, 1)


def grid_graph(w: int, h: int) -> BipartiteGraphState:
    """w x h square lattice with checkerboard bipartition ((row+col) even -> B).
    Row-major, cell (r, c) is number (r*w + c) // 2 within its color."""
    if w < 1 or h < 1:
        raise ValueError("grid dimensions must be positive")
    _check_size("grid w*h", w * h)
    rows = []
    append = rows.append
    for r in range(h):
        up, down = r > 0, r + 1 < h
        for c in range(r % 2, w, 2):
            i = r * w + c
            row = 0
            if c > 0:
                row |= 1 << ((i - 1) >> 1)
            if c + 1 < w:
                row |= 1 << ((i + 1) >> 1)
            if up:
                row |= 1 << ((i - w) >> 1)
            if down:
                row |= 1 << ((i + w) >> 1)
            append(row)
    n_b, n_w = (w * h + 1) // 2, w * h // 2
    return BipartiteGraphState(n_b, n_w, BitMatrix(n_b, n_w, tuple(rows)))


def rhg_lattice(lx: int, ly: int, lz: int) -> BipartiteGraphState:
    """Cluster state on the faces and edges of an lx x ly x lz cubic complex.

    Open boundaries. One qubit per face (black) and per edge (white); a face
    qubit is joined to the four edge qubits on its boundary. Faces and edges
    are numbered by sorted (axis, x, y, z) keys, where axis is the face normal
    or the edge direction: edges of axis a span (sx, sy, sz) = dims + 1 off
    axis a, so edge (a, x, y, z) is number base[a] + x·sy·sz + y·sz + z, where
    base[a] counts the edges of lower axes.
    """
    if lx < 1 or ly < 1 or lz < 1:
        raise ValueError("lattice dimensions must be positive")
    dims = (lx, ly, lz)
    edge_sizes = [[n + (d != a) for d, n in enumerate(dims)] for a in range(3)]
    face_sizes = [[n + (d == a) for d, n in enumerate(dims)] for a in range(3)]
    base = list(accumulate(map(prod, edge_sizes), initial=0))
    n_b, n_w = sum(map(prod, face_sizes)), base[3]
    _check_size("rhg faces + edges", n_b + n_w)
    strides = [(sy * sz, sz, 1) for _, sy, sz in edge_sizes]

    rows = []
    append = rows.append
    for a, sizes in enumerate(face_sizes):
        t1, t2 = (d for d in range(3) if d != a)
        (sx1, sy1, _), (sx2, sy2, _) = strides[t1], strides[t2]
        b1, b2, step1, step2 = base[t1], base[t2], strides[t1][t2], strides[t2][t1]
        for x, y, z in product(*map(range, sizes)):
            i1 = b1 + x * sx1 + y * sy1 + z
            i2 = b2 + x * sx2 + y * sy2 + z
            append(1 << i1 | 1 << (i1 + step1) | 1 << i2 | 1 << (i2 + step2))
    return BipartiteGraphState(n_b, n_w, BitMatrix(n_b, n_w, tuple(rows)))


def edgeless_graph(n: int) -> BipartiteGraphState:
    """n isolated vertices with the same alternating coloring as path_graph."""
    if n < 1:
        raise ValueError("need at least one vertex")
    _check_size("vertex count", n)
    n_b = (n + 1) // 2
    n_w = n // 2
    return BipartiteGraphState(n_b, n_w, BitMatrix.zeros(n_b, n_w))


def edges(g: BipartiteGraphState) -> list[tuple[int, int]]:
    """Sorted (B index, W index) pairs."""
    return [(j, i) for j, row in enumerate(g.adjacency.rows) for i in _ones(row)]


def to_json(g: BipartiteGraphState) -> str:
    """n_b, n_w and the edge list; from_json reads it back."""
    return json.dumps({"n_b": g.n_b, "n_w": g.n_w, "edges": edges(g)})


class _LongInt(str):
    """The text of a JSON integer past Python's 4300-digit limit on reading
    one. It is not an int, so no count or size takes it, and a fraction
    refuses it for its digits; its repr gives only its length."""

    def __repr__(self) -> str:
        return f"<{len(self.lstrip('-'))}-digit integer, too long to read>"


def _json_int(text: str) -> int | _LongInt:
    try:
        return int(text)
    except ValueError:
        return _LongInt(text)


def _read_json(text: str, what: str):
    """json.loads of a graph or mixture document; ``what`` names it in errors."""
    try:
        return json.loads(text, parse_int=_json_int)
    except RecursionError as exc:
        raise ValueError(f"{what} document nests too deeply to parse") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} document is not valid JSON: {exc}") from exc


def from_json(text: str) -> BipartiteGraphState:
    """Inverse of to_json. Counts and indices must be JSON integers: floats,
    strings and booleans are refused rather than truncated."""
    doc = _read_json(text, "graph")
    try:
        n_b, n_w, edge_list = doc["n_b"], doc["n_w"], doc["edges"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph document: {exc}") from exc
    for field, n in (("n_b", n_b), ("n_w", n_w)):
        if type(n) is not int or n < 0:
            raise ValueError(f"graph field '{field}' must be a non-negative integer, got {_shown(n)}")
    _check_size("graph fields 'n_b' + 'n_w'", n_b + n_w)
    if not isinstance(edge_list, list):
        raise ValueError("graph field 'edges' must be a list of [b, w] index pairs")
    rows = [0] * n_b
    for item in edge_list:
        if not isinstance(item, list) or len(item) != 2:
            raise ValueError(f"graph field 'edges' has entry {_shown(item)}, expected a [b, w] index pair")
        j, i = item
        if type(j) is not int or type(i) is not int:
            raise ValueError(f"graph field 'edges' has entry {_shown(item)} with non-integer indices")
        if not (0 <= j < n_b and 0 <= i < n_w):
            raise ValueError(f"edge ({_shown(j)}, {_shown(i)}) out of range")
        rows[j] |= 1 << i
    return BipartiteGraphState(n_b, n_w, BitMatrix(n_b, n_w, tuple(rows)))
