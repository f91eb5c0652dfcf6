import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabtest.gf2 import BitMatrix, BitVector, mat_vec
from stabtest.graphs import BipartiteGraphState, edgeless_graph, grid_graph, path_graph, rhg_lattice
from stabtest.pauli import (
    BlockClass,
    BlockPauli,
    sample_outcomes,
    syndrome_masks,
    syndromes,
)


def _attack(g, u_b=0, u_w=0, v_b=0, v_w=0):
    return BlockPauli(
        BitVector(g.n_b, u_b),
        BitVector(g.n_w, u_w),
        BitVector(g.n_b, v_b),
        BitVector(g.n_w, v_w),
    )


def test_identity_attack_is_clean():
    g = path_graph(5)
    s1, s2 = syndromes(g, _attack(g))
    assert s1 == BitVector.zero(g.n_b) and s2 == BitVector.zero(g.n_w)


def test_syndromes_of_plain_z_errors():
    g = path_graph(5)
    # Z on a B vertex trips only the group-1 side
    p = _attack(g, v_b=0b001)
    s1, s2 = syndromes(g, p)
    assert s1 == BitVector(g.n_b, 0b001) and s2.is_zero()
    # Z on a W vertex trips only the group-2 side
    q = _attack(g, v_w=0b10)
    s1, s2 = syndromes(g, q)
    assert s1.is_zero() and s2 == BitVector(g.n_w, 0b10)


def test_x_errors_enter_through_the_adjacency():
    g = path_graph(5)
    u_w = BitVector(g.n_w, 0b01)
    p = BlockPauli(BitVector.zero(g.n_b), u_w, BitVector.zero(g.n_b), BitVector.zero(g.n_w))
    s1, s2 = syndromes(g, p)
    assert s1 == mat_vec(g.adjacency, u_w)
    assert s2.is_zero()


def test_stabilizer_shaped_attack_is_invisible():
    # X_j together with Z on the neighborhood of j acts like a stabilizer:
    # both syndromes stay zero and the copy counts as clean.
    g = grid_graph(3, 3)
    for j in range(g.n_b):
        p = BlockPauli(
            BitVector.unit(g.n_b, j),
            BitVector.zero(g.n_w),
            BitVector.zero(g.n_b),
            g.adjacency.row(j),
        )
        s1, s2 = syndromes(g, p)
        assert s1.is_zero() and s2.is_zero()


def test_xor_of_attacks_xors_syndromes():
    rng = random.Random(8)
    g = grid_graph(3, 3)
    for _ in range(50):
        p = _attack(g, rng.getrandbits(g.n_b), rng.getrandbits(g.n_w),
                    rng.getrandbits(g.n_b), rng.getrandbits(g.n_w))
        q = _attack(g, rng.getrandbits(g.n_b), rng.getrandbits(g.n_w),
                    rng.getrandbits(g.n_b), rng.getrandbits(g.n_w))
        sp = syndromes(g, p)
        sq = syndromes(g, q)
        spq = syndromes(g, p ^ q)
        assert spq == (sp[0] ^ sq[0], sp[1] ^ sq[1])


@pytest.mark.parametrize("g", [path_graph(1), grid_graph(3, 3), rhg_lattice(2, 2, 2)])
def test_column_xor_syndromes_equal_dense_mat_vec(g):
    rng = random.Random(13)
    for density in (0.0, 0.02, 0.5, 1.0):
        for _ in range(30):
            u_b, u_w, v_b, v_w = (
                sum(1 << i for i in range(n) if rng.random() < density)
                for n in (g.n_b, g.n_w, g.n_b, g.n_w)
            )
            expected = (
                v_b ^ mat_vec(g.adjacency, BitVector(g.n_w, u_w)).bits,
                v_w ^ mat_vec(g.adjacency_t, BitVector(g.n_b, u_b)).bits,
            )
            assert syndrome_masks(g, u_b, u_w, v_b, v_w) == expected
            p = _attack(g, u_b, u_w, v_b, v_w)
            assert syndromes(g, p) == (BitVector(g.n_b, expected[0]), BitVector(g.n_w, expected[1]))


@pytest.mark.parametrize("g", [path_graph(4097), edgeless_graph(4097)], ids=["path:4097", "edgeless:4097"])
def test_syndrome_masks_match_mat_vec_on_wide_masks(g):
    # Masks thousands of bits wide, most bits set: the set-bit walk runs over
    # ints of many digits, which small graphs never reach.
    rng = random.Random(4097)
    for density in (0.5, 0.9, 1.0):
        u_b, u_w, v_b, v_w = (
            sum(1 << i for i in range(n) if rng.random() < density) for n in (g.n_b, g.n_w, g.n_b, g.n_w)
        )
        expected = (
            v_b ^ mat_vec(g.adjacency, BitVector(g.n_w, u_w)).bits,
            v_w ^ mat_vec(g.adjacency_t, BitVector(g.n_b, u_b)).bits,
        )
        assert syndrome_masks(g, u_b, u_w, v_b, v_w) == expected


def test_syndromes_reject_mismatched_attack():
    with pytest.raises(ValueError):
        syndromes(path_graph(5), _attack(path_graph(3)))


def test_block_pauli_validates_lengths():
    with pytest.raises(ValueError):
        BlockPauli(BitVector.zero(2), BitVector.zero(1), BitVector.zero(3), BitVector.zero(1))


def test_block_class_validates_bits():
    with pytest.raises(ValueError):
        BlockClass(2, 0)


def test_honest_samples_satisfy_all_relations():
    g = grid_graph(3, 3)
    rng = random.Random(5)
    p = _attack(g)
    for _ in range(200):
        x, z = sample_outcomes(g, p, 1, rng)
        assert x == mat_vec(g.adjacency, z)
        x, z = sample_outcomes(g, p, 2, rng)
        assert x == mat_vec(g.adjacency_t, z)


def test_attacked_samples_show_exactly_the_syndrome():
    g = grid_graph(3, 3)
    rng = random.Random(6)
    for trial in range(100):
        p = _attack(g, rng.getrandbits(g.n_b), rng.getrandbits(g.n_w),
                    rng.getrandbits(g.n_b), rng.getrandbits(g.n_w))
        s1, s2 = syndromes(g, p)
        x, z = sample_outcomes(g, p, 1, rng)
        assert x ^ mat_vec(g.adjacency, z) == s1
        x, z = sample_outcomes(g, p, 2, rng)
        assert x ^ mat_vec(g.adjacency_t, z) == s2


def test_sample_outcomes_z_marginal_is_uniform():
    # with 2 white qubits the group-1 z outcome takes each of 4 values;
    # a fixed seed keeps the distribution check deterministic
    g = path_graph(5)
    rng = random.Random(9)
    counts = [0] * 4
    for _ in range(4000):
        _, z = sample_outcomes(g, _attack(g), 1, rng)
        counts[z.bits] += 1
    assert min(counts) > 800  # fair coin would put 1000 in each bin


def test_sample_outcomes_rejects_bad_group():
    g = path_graph(3)
    with pytest.raises(ValueError):
        sample_outcomes(g, _attack(g), 3, random.Random(0))


@st.composite
def _graph_and_attack(draw):
    n_b = draw(st.integers(1, 5))
    n_w = draw(st.integers(1, 5))
    rows = tuple(draw(st.integers(0, (1 << n_w) - 1)) for _ in range(n_b))
    g = BipartiteGraphState(n_b, n_w, BitMatrix(n_b, n_w, rows))
    bits = lambda n: st.integers(0, (1 << n) - 1)
    p = BlockPauli(
        BitVector(n_b, draw(bits(n_b))),
        BitVector(n_w, draw(bits(n_w))),
        BitVector(n_b, draw(bits(n_b))),
        BitVector(n_w, draw(bits(n_w))),
    )
    return g, p


@given(_graph_and_attack(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_syndrome_is_all_that_outcomes_reveal(ga, seed):
    """Two attacks with equal syndromes produce identically distributed data."""
    g, p = ga
    s1, s2 = syndromes(g, p)
    # canonical attack with the same syndromes: pure Z errors
    q = BlockPauli(BitVector.zero(g.n_b), BitVector.zero(g.n_w), s1, s2)
    assert syndromes(g, q) == (s1, s2)
    for group in (1, 2):
        x_p, z_p = sample_outcomes(g, p, group, random.Random(seed))
        x_q, z_q = sample_outcomes(g, q, group, random.Random(seed))
        a = g.adjacency if group == 1 else g.adjacency_t
        assert x_p ^ mat_vec(a, z_p) == x_q ^ mat_vec(a, z_q)


@given(_graph_and_attack())
@settings(max_examples=200, deadline=None)
def test_column_xor_syndromes_equal_mat_vec_on_random_graphs(ga):
    g, p = ga
    assert syndromes(g, p) == (
        p.v_b ^ mat_vec(g.adjacency, p.u_w),
        p.v_w ^ mat_vec(g.adjacency_t, p.u_b),
    )
