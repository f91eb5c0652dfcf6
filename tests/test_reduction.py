import itertools
import random

import pytest

from stabtest.gf2 import (
    BitMatrix,
    BitVector,
    column_space_basis,
    extend_to_basis,
    kernel_basis,
    mat_inverse,
    mat_mul,
    mat_vec,
    rank,
)
from stabtest.graphs import BipartiteGraphState, edgeless_graph, path_graph, grid_graph, rhg_lattice
from stabtest.reduction import (
    Reduction,
    check_relations,
    compute_reduction,
    convert_group1,
    convert_group2,
    converted_checks_hold,
    converted_relations,
    relation_failures,
    relations_hold,
)


def _random_graph(rng, max_b=10, max_w=10):
    n_b = rng.randrange(1, max_b + 1)
    n_w = rng.randrange(1, max_w + 1)
    rows = tuple(rng.getrandbits(n_w) for _ in range(n_b))
    return BipartiteGraphState(n_b, n_w, BitMatrix(n_b, n_w, rows))


def _block_form(n_rows, n_cols, n_prime):
    rows = tuple((1 << i) if i < n_prime else 0 for i in range(n_rows))
    return BitMatrix(n_rows, n_cols, rows)


def _rel_masks(rels):
    return [(r.x_mask.to_tuple(), r.z_mask.to_tuple()) for r in rels]


def _span_rank(packed_rows, width):
    if not packed_rows:
        return 0
    return rank(BitMatrix(len(packed_rows), width, tuple(packed_rows)))


def _same_span(rels_a, rels_b, n_x, n_z):
    pack = lambda r: r[0] | (r[1] << n_x)
    rows_a = [pack(r) for r in rels_a]
    rows_b = [pack(r) for r in rels_b]
    width = n_x + n_z
    ra = _span_rank(rows_a, width)
    rb = _span_rank(rows_b, width)
    return ra == rb == _span_rank(rows_a + rows_b, width)


def test_path3_worked_example():
    g = path_graph(3)
    r = compute_reduction(g)
    assert r.n_prime == 1
    assert r.c_mat.to_lists() == [[1, 1], [1, 0]]
    assert r.c_inv.to_lists() == [[0, 1], [1, 1]]
    assert r.d_mat.to_lists() == [[1]]
    # group 1: X2 = Z1 plus the parity check X1 + X2 = 0
    assert _rel_masks(converted_relations(r, 1)) == [((0, 1), (1,)), ((1, 1), (0,))]
    # group 2: X1 = Z1 + Z2
    assert _rel_masks(converted_relations(r, 2)) == [((1,), (1, 1))]


def test_path4_worked_example():
    g = path_graph(4)
    r = compute_reduction(g)
    assert r.n_prime == 2
    assert r.c_mat == g.adjacency
    assert r.c_inv.to_lists() == [[1, 0], [1, 1]]
    assert r.d_mat == BitMatrix.identity(2)
    group1 = _rel_masks(converted_relations(r, 1))
    group2 = _rel_masks(converted_relations(r, 2))
    assert group1 == [((1, 0), (1, 0)), ((1, 1), (0, 1))]
    assert group2 == [((1, 0), (1, 1)), ((0, 1), (0, 1))]
    # row form is equivalent to the solved sets X1=Z1, X2=Z1+Z2 / X1=Z1+Z2, X2=Z2
    assert _same_span(
        [(0b01, 0b01), (0b11, 0b10)], [(0b01, 0b01), (0b10, 0b11)], 2, 2
    )
    assert _same_span(
        [(0b01, 0b11), (0b10, 0b10)], [(0b01, 0b11), (0b10, 0b10)], 2, 2
    )


def test_edgeless_reduction_is_trivial():
    g = edgeless_graph(5)
    r = compute_reduction(g)
    assert r.n_prime == 0
    assert r.c_mat == BitMatrix.identity(g.n_b)
    assert r.d_mat == BitMatrix.identity(g.n_w)
    # every converted relation is a bare parity constraint
    assert all(rel.z_mask.is_zero() for rel in converted_relations(r, 1))
    assert all(rel.z_mask.is_zero() for rel in converted_relations(r, 2))


def test_block_form_on_random_graphs():
    rng = random.Random(42)
    for _ in range(200):
        g = _random_graph(rng)
        r = compute_reduction(g)
        assert r.n_prime == rank(g.adjacency)
        a_prime = mat_mul(mat_mul(r.c_inv, g.adjacency), r.d_mat)
        assert a_prime == _block_form(g.n_b, g.n_w, r.n_prime)
        assert mat_mul(r.c_mat, r.c_inv) == BitMatrix.identity(g.n_b)
        assert mat_mul(r.d_mat, r.d_inv) == BitMatrix.identity(g.n_w)
        assert r.c_t == r.c_mat.transpose()
        assert r.d_t == r.d_mat.transpose()


def _reference_reduction(g):
    """The construction compute_reduction used before it was built from one
    RREF of A: three eliminations of A (kept columns, completion, kernel),
    C and D from their columns, and both inverses by elimination."""
    a = g.adjacency
    c_basis, d_pre = column_space_basis(a)
    c_mat = BitMatrix.from_columns(list(c_basis) + extend_to_basis(c_basis, g.n_b), g.n_b)
    d_mat = BitMatrix.from_columns(list(d_pre) + kernel_basis(a), g.n_w)
    return Reduction(
        c_mat=c_mat,
        d_mat=d_mat,
        n_prime=len(c_basis),
        c_inv=mat_inverse(c_mat),
        d_inv=mat_inverse(d_mat),
        c_t=c_mat.transpose(),
        d_t=d_mat.transpose(),
    )


def _reference_cases():
    """600 random graphs with 0..12 vertices a side, dense to sparse, then
    the lattices the benchmark reduces and two larger structured graphs."""
    rng = random.Random(909)
    for _ in range(600):
        n_b, n_w = rng.randrange(13), rng.randrange(13)
        density = rng.random()
        rows = tuple(sum((rng.random() < density) << j for j in range(n_w)) for _ in range(n_b))
        yield BipartiteGraphState(n_b, n_w, BitMatrix(n_b, n_w, rows))
    for size in (4, 5, 6):
        yield rhg_lattice(size, size, size)
    yield grid_graph(9, 7)
    yield path_graph(40)


def test_reduction_matches_reference_construction():
    for g in _reference_cases():
        r = compute_reduction(g)
        assert r == _reference_reduction(g), (g.n_b, g.n_w)
        assert mat_mul(r.d_inv, r.d_mat) == BitMatrix.identity(g.n_w)
        assert mat_mul(r.c_inv, r.c_mat) == BitMatrix.identity(g.n_b)
        assert r.c_t == r.c_mat.transpose()
        assert r.d_t == r.d_mat.transpose()


def test_conversions_are_linear_bijections():
    rng = random.Random(3)
    g = _random_graph(rng, 6, 6)
    r = compute_reduction(g)
    x = BitVector(g.n_b, rng.getrandbits(g.n_b))
    z = BitVector(g.n_w, rng.getrandbits(g.n_w))
    xp, zp = convert_group1(r, x, z)
    assert mat_vec(r.c_mat, xp) == x
    assert mat_vec(r.d_mat, zp) == z
    z_b = BitVector(g.n_b, rng.getrandbits(g.n_b))
    x_w = BitVector(g.n_w, rng.getrandbits(g.n_w))
    zq, xq = convert_group2(r, z_b, x_w)
    assert zq == mat_vec(r.c_t, z_b)
    assert xq == mat_vec(r.d_t, x_w)


def test_convert_rejects_wrong_lengths():
    r = compute_reduction(path_graph(5))
    with pytest.raises(ValueError):
        convert_group1(r, BitVector.zero(1), BitVector.zero(2))
    with pytest.raises(ValueError):
        convert_group2(r, BitVector.zero(3), BitVector.zero(5))


@pytest.mark.parametrize("builder", [lambda: path_graph(5), lambda: path_graph(6), lambda: grid_graph(2, 3)])
def test_converted_equals_direct_exhaustively(builder):
    g = builder()
    r = compute_reduction(g)
    for x_bits in range(1 << g.n_b):
        for z_bits in range(1 << g.n_w):
            x = BitVector(g.n_b, x_bits)
            z = BitVector(g.n_w, z_bits)
            assert converted_checks_hold(r, 1, x, z) == relations_hold(g, 1, x, z)
    for z_bits in range(1 << g.n_b):
        for x_bits in range(1 << g.n_w):
            z = BitVector(g.n_b, z_bits)
            x = BitVector(g.n_w, x_bits)
            assert converted_checks_hold(r, 2, x, z) == relations_hold(g, 2, x, z)


def test_converted_equals_direct_sampled():
    rng = random.Random(17)
    for _ in range(20):
        g = _random_graph(rng, 9, 9)
        r = compute_reduction(g)
        for _ in range(50):
            x1 = BitVector(g.n_b, rng.getrandbits(g.n_b))
            z1 = BitVector(g.n_w, rng.getrandbits(g.n_w))
            assert converted_checks_hold(r, 1, x1, z1) == relations_hold(g, 1, x1, z1)
            x2 = BitVector(g.n_w, rng.getrandbits(g.n_w))
            z2 = BitVector(g.n_b, rng.getrandbits(g.n_b))
            assert converted_checks_hold(r, 2, x2, z2) == relations_hold(g, 2, x2, z2)


def test_check_relations_structure():
    g = path_graph(5)
    rel1 = check_relations(g, 1)
    assert len(rel1) == g.n_b
    for j, rel in enumerate(rel1):
        assert rel.group == 1
        assert rel.x_mask == BitVector.unit(g.n_b, j)
        assert rel.z_mask == g.adjacency.row(j)
    rel2 = check_relations(g, 2)
    assert len(rel2) == g.n_w
    for i, rel in enumerate(rel2):
        assert rel.group == 2
        assert rel.x_mask == BitVector.unit(g.n_w, i)
        assert rel.z_mask == g.adjacency.transpose().row(i)
    with pytest.raises(ValueError):
        check_relations(g, 3)


def test_relation_failures_pinpoint_breaks():
    g = path_graph(5)
    z = BitVector(g.n_w, 0b01)
    x = mat_vec(g.adjacency, z)
    assert relations_hold(g, 1, x, z)
    broken = x ^ BitVector.unit(g.n_b, 1)
    fails = relation_failures(g, 1, broken, z)
    assert fails.support() == (1,)
