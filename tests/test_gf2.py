import random

import pytest

from stabtest.gf2 import (
    BitMatrix,
    BitVector,
    SingularMatrix,
    column_space_basis,
    kernel_basis,
    mat_inverse,
    mat_mul,
    mat_vec,
    rank,
    _column_pass,
    _extend,
    _frame,
    _insert,
    _xor_rows,
)


def _random_matrix(rng, n_rows, n_cols):
    return BitMatrix(n_rows, n_cols, tuple(rng.getrandbits(n_cols) for _ in range(n_rows)))


def _random_invertible(rng, n):
    """Random row operations applied to the identity stay invertible."""
    rows = list(BitMatrix.identity(n).rows)
    for _ in range(4 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            rows[i] ^= rows[j]
    rng.shuffle(rows)
    return BitMatrix(n, n, tuple(rows))


def _naive_mul(a, b):
    rows = []
    for i in range(a.n_rows):
        bits = 0
        for j in range(b.n_cols):
            acc = 0
            for l in range(a.n_cols):
                acc ^= (a.rows[i] >> l) & (b.rows[l] >> j) & 1
            bits |= acc << j
        rows.append(bits)
    return BitMatrix(a.n_rows, b.n_cols, tuple(rows))


def test_bitvector_basics():
    v = BitVector(4, 0b1101)
    assert len(v) == 4
    assert v.to_tuple() == (1, 0, 1, 1)
    assert v.support() == (0, 2, 3)
    assert v[1] == 0 and v[3] == 1
    assert (v ^ v).is_zero()
    assert BitVector.unit(4, 2).bits == 4
    assert BitVector.zero(3) == BitVector(3, 0)


def test_support_matches_per_coordinate_reference():
    rng = random.Random(612)
    for n in (0, 1, 2, 31, 63, 64, 65, 200):
        cases = [0, (1 << n) - 1]
        for density in (0.05, 0.5, 0.95):
            cases += [sum(1 << i for i in range(n) if rng.random() < density) for _ in range(10)]
        for bits in cases:
            v = BitVector(n, bits)
            assert v.support() == tuple(i for i in range(n) if (bits >> i) & 1), (n, bits)


def test_xor_rows_matches_per_bit_reference():
    rng = random.Random(613)
    for n in (0, 1, 63, 64, 65, 200, 4096):
        rows = [rng.getrandbits(70) for _ in range(n)]
        cases = [0, (1 << n) - 1]
        for density in (0.01, 0.5, 0.99):
            cases += [sum(1 << i for i in range(n) if rng.random() < density) for _ in range(4)]
        for x in cases:
            expected = 0
            for i in range(n):
                if (x >> i) & 1:
                    expected ^= rows[i]
            assert _xor_rows(rows, x) == expected, (n, x)


def test_bitvector_rejects_out_of_range_bits():
    with pytest.raises(ValueError):
        BitVector(2, 4)
    with pytest.raises(ValueError):
        BitVector(-1, 0)
    for n in (0, 1, 5, 64):
        assert BitVector(n, (1 << n) - 1).bits == (1 << n) - 1
        with pytest.raises(ValueError, match="out of range"):
            BitVector(n, 1 << n)


def test_bitvector_refuses_indices_past_its_length():
    for i in (-1, 4):
        with pytest.raises(ValueError, match="unit index out of range"):
            BitVector.unit(4, i)
        with pytest.raises(IndexError):
            BitVector(4, 0b1111)[i]
    with pytest.raises(ValueError, match="length mismatch"):
        BitVector(3, 1) ^ BitVector(4, 1)


def test_bitmatrix_refuses_bad_shapes():
    with pytest.raises(ValueError, match="negative matrix dimension"):
        BitMatrix(-1, 2, ())
    with pytest.raises(ValueError, match="negative matrix dimension"):
        BitMatrix(1, -2, (0,))
    for rows in ((0,), (0, 0, 0)):
        with pytest.raises(ValueError, match="row count does not match n_rows"):
            BitMatrix(2, 2, rows)


@pytest.mark.parametrize("n_cols", [0, 1, 5, 64])
def test_bitmatrix_rows_stop_just_below_one_shifted_by_n_cols(n_cols):
    top = (1 << n_cols) - 1
    assert BitMatrix(2, n_cols, (0, top)).rows == (0, top)
    for row in (1 << n_cols, -1):
        with pytest.raises(ValueError, match="row bits out of range"):
            BitMatrix(2, n_cols, (0, row))


def test_bitmatrix_construction_round_trip():
    m = BitMatrix(3, 2, (0b01, 0b11, 0b10))
    assert m.to_lists() == [[1, 0], [1, 1], [0, 1]]
    assert m.transpose().to_lists() == [[1, 1, 0], [0, 1, 1]]
    assert m.transpose().transpose() == m
    assert m.row(1) == BitVector(2, 0b11)


def test_identity_and_zero_shapes():
    assert BitMatrix.identity(3).to_lists() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    z = BitMatrix.zeros(2, 3)
    assert z.n_rows == 2 and z.n_cols == 3 and all(r == 0 for r in z.rows)


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 3, 2), (4, 4, 4), (5, 2, 7)])
def test_mat_mul_matches_naive(dims):
    rng = random.Random(str(dims))
    a = _random_matrix(rng, dims[0], dims[1])
    b = _random_matrix(rng, dims[1], dims[2])
    assert mat_mul(a, b) == _naive_mul(a, b)


def test_mat_mul_shape_mismatch():
    with pytest.raises(ValueError):
        mat_mul(BitMatrix.identity(2), BitMatrix.identity(3))


def test_mat_vec_agrees_with_mat_mul():
    rng = random.Random(11)
    a = _random_matrix(rng, 4, 6)
    v = BitVector(6, rng.getrandbits(6))
    col = BitMatrix(1, 6, (v.bits,)).transpose()
    assert mat_vec(a, v) == mat_mul(a, col).transpose().row(0)


def test_transpose_of_product():
    rng = random.Random(5)
    for _ in range(20):
        a = _random_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6))
        b = _random_matrix(rng, a.n_cols, rng.randrange(1, 6))
        assert mat_mul(a, b).transpose() == mat_mul(b.transpose(), a.transpose())


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_inverse_round_trip(n):
    rng = random.Random(n)
    m = _random_invertible(rng, n)
    inv = mat_inverse(m)
    assert mat_mul(m, inv) == BitMatrix.identity(n)
    assert mat_mul(inv, m) == BitMatrix.identity(n)


def test_inverse_of_singular_raises():
    m = BitMatrix(2, 2, (0b11, 0b11))
    with pytest.raises(SingularMatrix):
        mat_inverse(m)
    with pytest.raises(SingularMatrix):
        mat_inverse(BitMatrix.zeros(1, 1))


def test_inverse_requires_square():
    with pytest.raises(ValueError):
        mat_inverse(BitMatrix.zeros(2, 3))


def test_rank_examples():
    assert rank(BitMatrix.identity(4)) == 4
    assert rank(BitMatrix.zeros(3, 5)) == 0
    assert rank(BitMatrix(3, 2, (0b11, 0b11, 0b01))) == 2


def test_rank_invariant_under_transpose():
    rng = random.Random(23)
    for _ in range(30):
        m = _random_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 8))
        assert rank(m) == rank(m.transpose())


def test_kernel_basis_spans_kernel():
    rng = random.Random(7)
    for _ in range(30):
        m = _random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7))
        basis = kernel_basis(m)
        assert len(basis) == m.n_cols - rank(m)
        for v in basis:
            assert mat_vec(m, v).is_zero()
        if basis:
            stacked = BitMatrix(len(basis), m.n_cols, tuple(v.bits for v in basis))
            assert rank(stacked) == len(basis)


def test_kernel_of_injective_map_is_empty():
    assert kernel_basis(BitMatrix.identity(3)) == []


def test_column_space_basis_preimages():
    rng = random.Random(13)
    for _ in range(30):
        m = _random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7))
        c_basis, d_pre = column_space_basis(m)
        assert len(c_basis) == len(d_pre) == rank(m)
        for col, pre in zip(c_basis, d_pre):
            assert pre.bits.bit_count() == 1  # standard vector pointing at the kept column
            assert mat_vec(m, pre) == col
        if c_basis:
            stacked = BitMatrix(len(c_basis), m.n_rows, tuple(v.bits for v in c_basis))
            assert rank(stacked) == len(c_basis)


def test_column_space_basis_keeps_leftmost_columns():
    # second column duplicates the first, so it is skipped
    m = BitMatrix(3, 3, (0b011, 0b011, 0b100))
    c_basis, d_pre = column_space_basis(m)
    assert [p.support()[0] for p in d_pre] == [0, 2]


def _extended(partial, dim, low=0):
    """Indices _extend keeps after the partial vectors went into an empty
    echelon, each shifted past the low `low` bits over a tag there."""
    echelon = {}
    for j, v in enumerate(partial):
        tag = j % (1 << low)
        assert _insert((v << low) | tag, echelon, low) >> low, "partial vectors must be independent"
    return _extend(echelon, dim, low)


def test_extend_to_basis_completes_and_validates():
    partial = [0b011, 0b110]
    appended = _extended(partial, 3)
    assert appended == [0]
    stacked = BitMatrix(3, 3, tuple(partial + [1 << i for i in appended]))
    assert rank(stacked) == 3


def test_extend_to_basis_from_empty():
    assert _extended([], 2) == [0, 1]
    assert _extended([], 0) == []


# Reference implementations: plain column-scan Gauss-Jordan elimination and
# greedy "keep it if the rank grows" selection, checked against the echelon
# code bit for bit.


def _reference_rref(m):
    """For each column, swap up the first remaining row with a 1 there and
    clear that column from every other row. Returns all rows and the pivots."""
    rows = list(m.rows)
    pivots = []
    for col in range(m.n_cols):
        r = len(pivots)
        sel = next((i for i in range(r, m.n_rows) if (rows[i] >> col) & 1), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        for i in range(m.n_rows):
            if i != r and (rows[i] >> col) & 1:
                rows[i] ^= rows[r]
        pivots.append(col)
    return rows, pivots


def _reference_rank(vectors, width):
    return len(_reference_rref(BitMatrix(len(vectors), width, tuple(vectors)))[1])


def _reference_kernel(m):
    rows, pivots = _reference_rref(m)
    basis = []
    for free in range(m.n_cols):
        if free in pivots:
            continue
        bits = 1 << free
        for r, p in enumerate(pivots):
            bits |= ((rows[r] >> free) & 1) << p
        basis.append(BitVector(m.n_cols, bits))
    return basis


def _reference_inverse(m):
    n = m.n_rows
    augmented = BitMatrix(n, 2 * n, tuple(r | (1 << (n + i)) for i, r in enumerate(m.rows)))
    rows, pivots = _reference_rref(augmented)
    if pivots != list(range(n)):
        return None
    return BitMatrix(n, n, tuple(r >> n for r in rows))


def _reference_greedy(vectors, width, kept=()):
    """Indices of the vectors that raise the reference rank of kept + picked."""
    picked = list(kept)
    indices = []
    for i, v in enumerate(vectors):
        if _reference_rank(picked + [v], width) > len(picked):
            picked.append(v)
            indices.append(i)
    return indices


def _reference_cases():
    """Empty shapes, then random dense, low-rank and invertible matrices up to
    20x20, then the same kinds with 31 to 70 columns: rows past one 30-bit
    int digit, where the order of the elimination steps matters."""
    rng = random.Random(606)
    cases = [BitMatrix.zeros(0, 0), BitMatrix.zeros(0, 4), BitMatrix.zeros(5, 0), BitMatrix.zeros(3, 3)]
    for _ in range(150):
        n_rows, n_cols = rng.randrange(0, 21), rng.randrange(0, 21)
        cases.append(_random_matrix(rng, n_rows, n_cols))
        inner = rng.randrange(0, 6)
        cases.append(mat_mul(_random_matrix(rng, n_rows, inner), _random_matrix(rng, inner, n_cols)))
        n = rng.randrange(1, 21)
        cases.append(_random_invertible(rng, n))
        cases.append(mat_mul(_random_matrix(rng, n, n - 1), _random_matrix(rng, n - 1, n)))
    for _ in range(30):
        n_rows, n_cols = rng.randrange(0, 71), rng.randrange(31, 71)
        cases.append(_random_matrix(rng, n_rows, n_cols))
        inner = rng.randrange(0, 16)
        cases.append(mat_mul(_random_matrix(rng, n_rows, inner), _random_matrix(rng, inner, n_cols)))
        n = rng.randrange(31, 71)
        cases.append(_random_invertible(rng, n))
        cases.append(mat_mul(_random_matrix(rng, n, n - 1), _random_matrix(rng, n - 1, n)))
    return cases


REFERENCE_CASES = _reference_cases()


def test_rref_rank_and_kernel_match_reference():
    for m in REFERENCE_CASES:
        ref_rows, ref_pivots = _reference_rref(m)
        _, pivots, kernel = _column_pass(m.transpose().rows)
        rows = _frame(pivots, kernel)[1]
        assert pivots == ref_pivots, m
        assert rows == ref_rows[: len(ref_pivots)], m
        assert not any(ref_rows[len(ref_pivots):]), m
        assert rank(m) == len(ref_pivots), m
        assert kernel_basis(m) == _reference_kernel(m), m


def test_mat_inverse_matches_reference():
    singular = invertible = 0
    for m in REFERENCE_CASES:
        if m.n_rows != m.n_cols:
            continue
        expected = _reference_inverse(m)
        if expected is None:
            singular += 1
            with pytest.raises(SingularMatrix):
                mat_inverse(m)
        else:
            invertible += 1
            assert mat_inverse(m) == expected, m
    assert singular > 50 and invertible > 50


def test_column_space_basis_matches_greedy_reference():
    for m in REFERENCE_CASES:
        columns = [sum(((m.rows[i] >> j) & 1) << i for i in range(m.n_rows)) for j in range(m.n_cols)]
        kept = _reference_greedy(columns, m.n_rows)
        c_basis, d_pre = column_space_basis(m)
        assert c_basis == [BitVector(m.n_rows, columns[j]) for j in kept], m
        assert d_pre == [BitVector.unit(m.n_cols, j) for j in kept], m


def _check_extend_to_basis(vectors, dim):
    """Compare _extend, after the vectors' independent subset, with the greedy
    reference; True if the vectors were dependent."""
    independent = [vectors[i] for i in _reference_greedy(vectors, dim)]
    units = [1 << i for i in range(dim)]
    expected = _reference_greedy(units, dim, independent)
    # Tags in the low bits ride along, as in compute_reduction's echelon.
    for low in (0, 3):
        assert _extended(independent, dim, low) == expected, (dim, vectors, low)
    return len(independent) < len(vectors)


def test_extend_to_basis_matches_greedy_reference():
    rng = random.Random(607)
    dependent = 0
    for _ in range(300):
        dim = rng.randrange(0, 21)
        vectors = [rng.getrandbits(dim) for _ in range(rng.randrange(0, dim + 2))]
        dependent += _check_extend_to_basis(vectors, dim)
    assert dependent > 20


def test_extend_to_basis_matches_greedy_reference_past_one_digit():
    # Independent starts are rows of an invertible matrix (random rows of
    # 31+ bits are almost never dependent); low-rank products supply the
    # dependent ones.
    rng = random.Random(608)
    dependent = 0
    for _ in range(40):
        dim = rng.randrange(31, 71)
        count = rng.randrange(0, dim + 1)
        vectors = list(_random_invertible(rng, dim).rows[:count])
        assert not _check_extend_to_basis(vectors, dim)
        inner = rng.randrange(0, 16)
        low_rank = mat_mul(_random_matrix(rng, rng.randrange(0, 24), inner), _random_matrix(rng, inner, dim))
        dependent += _check_extend_to_basis(list(low_rank.rows), dim)
    assert dependent > 10
