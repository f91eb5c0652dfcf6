import itertools
import json
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from stabtest.gf2 import BitMatrix
from stabtest.graphs import (
    MAX_QUBITS,
    BipartiteGraphState,
    edgeless_graph,
    edges,
    from_json,
    grid_graph,
    path_graph,
    rhg_lattice,
    to_json,
)
from stabtest.graphs import _cut, _shown


def test_path_graph_small_cases():
    assert path_graph(2).adjacency.to_lists() == [[1]]
    assert path_graph(3).adjacency.to_lists() == [[1], [1]]
    assert path_graph(5).adjacency.to_lists() == [[1, 0], [1, 1], [0, 1]]


def test_path_graph_sizes():
    for n in range(2, 12):
        g = path_graph(n)
        assert g.n_b + g.n_w == n
        assert g.n_b == (n + 1) // 2
        # endpoints have degree 1, interior vertices degree 2
        degrees = sorted(g.adjacency.row(j).bits.bit_count() for j in range(g.n_b))
        interior = [d for d in degrees if d == 2]
        assert degrees.count(1) + len(interior) == g.n_b


def test_path_graph_degenerate_and_error():
    g = path_graph(1)
    assert (g.n_b, g.n_w) == (1, 0)
    with pytest.raises(ValueError):
        path_graph(0)


def _path_oracle(n):
    """(n_b, n_w, rows) from the edges (pos, pos + 1); the even 0-indexed end
    of each edge is black, and each color is numbered in position order."""
    rows = [0] * ((n + 1) // 2)
    for pos in range(n - 1):
        b, w = (pos, pos + 1) if pos % 2 == 0 else (pos + 1, pos)
        rows[b // 2] |= 1 << (w // 2)
    return (n + 1) // 2, n // 2, rows


def _grid_oracle(w, h):
    """(n_b, n_w, rows) cell by cell from (r, c) coordinates: each color is
    numbered by counting its cells in row-major order, and a B cell is joined
    to every 4-neighbour that is a W cell."""
    cells = [(r, c) for r in range(h) for c in range(w)]
    black = [cell for cell in cells if sum(cell) % 2 == 0]
    white = {cell: i for i, cell in enumerate(cell for cell in cells if sum(cell) % 2 == 1)}
    rows = []
    for r, c in black:
        bits = 0
        for cell in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if cell in white:
                bits |= 1 << white[cell]
        rows.append(bits)
    return len(black), len(white), rows


def test_path_matches_edge_oracle():
    for n in [*range(1, 201), 4097, MAX_QUBITS]:
        g = path_graph(n)
        assert (g.n_b, g.n_w, list(g.adjacency.rows)) == _path_oracle(n), n


def test_grid_matches_cell_oracle():
    for w, h in itertools.product(range(1, 31), repeat=2):
        g = grid_graph(w, h)
        assert (g.n_b, g.n_w, list(g.adjacency.rows)) == _grid_oracle(w, h), (w, h)


def test_grid_1xn_matches_path():
    assert grid_graph(1, 5).adjacency == path_graph(5).adjacency


def test_grid_2x2():
    g = grid_graph(2, 2)
    assert (g.n_b, g.n_w) == (2, 2)
    assert g.adjacency.to_lists() == [[1, 1], [1, 1]]


def test_grid_3x3_adjacency():
    # checkerboard: B cells at (r+c) even, row-major per color.
    # B = (0,0),(0,2),(1,1),(2,0),(2,2); W = (0,1),(1,0),(1,2),(2,1).
    g = grid_graph(3, 3)
    assert (g.n_b, g.n_w) == (5, 4)
    assert g.adjacency.to_lists() == [
        [1, 1, 0, 0],
        [1, 0, 1, 0],
        [1, 1, 1, 1],
        [0, 1, 0, 1],
        [0, 0, 1, 1],
    ]


def test_grid_edge_count():
    for w, h in [(2, 3), (3, 4), (4, 4), (5, 2)]:
        g = grid_graph(w, h)
        expected = w * (h - 1) + h * (w - 1)
        assert sum(g.adjacency.row(j).bits.bit_count() for j in range(g.n_b)) == expected


def _rhg_oracle(lx, ly, lz):
    """Independent cell-complex construction from scaled center coordinates.

    On the doubled lattice, a face center and an edge center are incident
    exactly when their L1 distance is 1.
    """
    dims = (lx, ly, lz)

    def axis_keys(cell_dim):
        # cell_dim 1 -> edges, 2 -> faces
        keys = []
        for axis in range(3):
            ranges = []
            for other in range(3):
                if (other == axis) == (cell_dim == 1):
                    ranges.append(range(dims[other]))
                else:
                    ranges.append(range(dims[other] + 1))
            for x, y, z in itertools.product(*ranges):
                keys.append((axis, x, y, z))
        return sorted(keys)

    def center(key, cell_dim):
        axis, *v = key
        doubled = [2 * c for c in v]
        if cell_dim == 1:
            doubled[axis] += 1
        else:
            for other in range(3):
                if other != axis:
                    doubled[other] += 1
        return tuple(doubled)

    face_keys = axis_keys(2)
    edge_keys = axis_keys(1)
    face_centers = [center(k, 2) for k in face_keys]
    edge_centers = [center(k, 1) for k in edge_keys]
    rows = []
    for fc in face_centers:
        bits = 0
        for i, ec in enumerate(edge_centers):
            if sum(abs(a - b) for a, b in zip(fc, ec)) == 1:
                bits |= 1 << i
        rows.append(bits)
    return BitMatrix(len(face_keys), len(edge_keys), tuple(rows))


# Each axis is the longest at least once, so every per-axis block and stride is checked.
@pytest.mark.parametrize(
    "dims",
    [(1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 2, 2), (3, 2, 1), (1, 1, 3), (1, 3, 1), (3, 1, 1), (2, 3, 4), (4, 2, 3)],
)
def test_rhg_matches_geometric_oracle(dims):
    g = rhg_lattice(*dims)
    assert g.adjacency == _rhg_oracle(*dims)


def test_rhg_1x1x1_shape():
    g = rhg_lattice(1, 1, 1)
    assert (g.n_b, g.n_w) == (6, 12)
    assert all(g.adjacency.row(j).bits.bit_count() == 4 for j in range(6))
    assert all(g.adjacency.transpose().row(i).bits.bit_count() == 2 for i in range(12))
    assert sum(g.adjacency.row(j).bits.bit_count() for j in range(6)) == 24


def test_rhg_counts_match_formula():
    # (1, 4, 1637) is the largest 1 x 4 x lz lattice under MAX_QUBITS; the oracle is too slow there.
    for dims in [(1, 1, 1), (2, 1, 1), (2, 2, 2), (3, 1, 2), (1, 4, 1637)]:
        g = rhg_lattice(*dims)
        faces = sum(
            (dims[a] + 1) * dims[(a + 1) % 3] * dims[(a + 2) % 3] for a in range(3)
        )
        per_edge = lambda a: dims[a] * (dims[(a + 1) % 3] + 1) * (dims[(a + 2) % 3] + 1)
        assert g.n_b == faces
        assert g.n_w == sum(per_edge(a) for a in range(3))
        assert all(row.bit_count() == 4 for row in g.adjacency.rows)


def test_rhg_rejects_empty():
    for dims in [(0, 1, 1), (1, 0, 1), (1, 1, 0), (-2, 3, 3)]:
        with pytest.raises(ValueError, match="lattice dimensions must be positive"):
            rhg_lattice(*dims)


def test_graph_size_cap():
    assert edgeless_graph(MAX_QUBITS).n == MAX_QUBITS
    assert from_json(json.dumps({"n_b": MAX_QUBITS - 1, "n_w": 1, "edges": []})).n == MAX_QUBITS
    past = MAX_QUBITS + 1
    for build, args in [
        (path_graph, (past,)),
        (edgeless_graph, (past,)),
        (grid_graph, (past, 1)),
        (rhg_lattice, (1, 4, 1638)),  # exactly past qubits by the face and edge counts
    ]:
        with pytest.raises(ValueError, match=f"too large: {past} "):
            build(*args)
    with pytest.raises(ValueError, match="'n_b' \\+ 'n_w'"):
        from_json(json.dumps({"n_b": MAX_QUBITS, "n_w": 1, "edges": []}))


def test_edges_listing():
    assert edges(path_graph(5)) == [(0, 0), (1, 0), (1, 1), (2, 1)]


def test_edges_match_per_entry_reference():
    rng = random.Random(65)
    n_b, n_w = 40, 130
    rows = [rng.getrandbits(n_w) & rng.getrandbits(n_w) for _ in range(n_b - 2)] + [0, (1 << n_w) - 1]
    g = BipartiteGraphState(n_b, n_w, BitMatrix(n_b, n_w, tuple(rows)))
    assert edges(g) == [(j, i) for j in range(n_b) for i in range(n_w) if (g.adjacency.rows[j] >> i) & 1]


def test_json_round_trip():
    for g in (path_graph(7), grid_graph(3, 3), rhg_lattice(1, 1, 1)):
        doc = to_json(g)
        back = from_json(doc)
        assert (back.n_b, back.n_w) == (g.n_b, g.n_w)
        assert back.adjacency == g.adjacency
    parsed = json.loads(to_json(path_graph(3)))
    assert set(parsed) == {"n_b", "n_w", "edges"}


def test_from_json_rejects_bad_documents():
    with pytest.raises(ValueError):
        from_json('{"n_b": 1}')
    with pytest.raises(ValueError):
        from_json('{"n_b": 1, "n_w": 1, "edges": [[0, 5]]}')
    for edges in ("null", "3", "[1, 2]", "[[0]]", "[[0, 0, 0]]", '[[[0], 0]]', '[["a", 0]]'):
        with pytest.raises(ValueError, match="edges"):
            from_json('{"n_b": 1, "n_w": 1, "edges": %s}' % edges)


def test_from_json_refuses_deeply_nested_documents():
    with pytest.raises(ValueError, match="nests too deeply"):
        from_json("[" * 200000)
    with pytest.raises(ValueError, match="nests too deeply"):
        from_json('{"n_b": 1, "n_w": 1, "edges": %s}' % ("[" * 200000 + "]" * 200000))


def test_graph_state_validation():
    with pytest.raises(ValueError):
        BipartiteGraphState(2, 1, BitMatrix(1, 1, (1,)))
    for n_b, n_w in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="negative vertex count"):
            BipartiteGraphState(n_b, n_w, BitMatrix.zeros(0, 0))


def test_adjacency_transpose_cached():
    g = grid_graph(3, 2)
    assert g.adjacency_t == g.adjacency.transpose()
    assert g.n == g.n_b + g.n_w


@pytest.mark.parametrize("value, text", [
    (12345, "12345"),
    (10**30 - 1, "999999999999999999999999999999"),
    (10**30, "<100-bit number>"),
    (-(10**30), "<100-bit number>"),
    (-42, "-42"),
    (True, "True"),
    (Fraction(3), "3"),
    (Fraction(-7, 2), "-7/2"),
    (Fraction(10**39 + 7, 3), "<130-bit number>/3"),
    (Decimal("1.5"), "Decimal('1.5')"),
    (0.1, "0.1"),
    (float("nan"), "nan"),
    ("abcde", "'abcde'"),
    ("x" * 150, "'" + "x" * 39 + "... (152 characters)"),
    (None, "None"),
    (list(range(60)), "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1... (230 characters)"),
])
def test_shown_texts_are_pinned(value, text):
    # Every refusal message shows its values by this rule; the texts were
    # taken from the rule as it stood in graphs, which still names it.
    assert _shown(value) == text


def test_cut_texts_are_pinned():
    assert _cut("y" * 100) == "y" * 100
    assert _cut("y" * 101) == "y" * 40 + "... (101 characters)"
    assert _cut("z" * 20, 20) == "z" * 20
    assert _cut("z" * 30, 20) == "z" * 30 + "... (30 characters)"
