"""The value classes are frozen records that behave as the frozen dataclasses
they replace: construction, equality, hash, repr, immutability, pickling."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from stabtest.analytics import ClassCounts, ClassMixture, LemmaVerdict, Profile
from stabtest.gf2 import BitMatrix, BitVector
from stabtest.graphs import BipartiteGraphState, path_graph
from stabtest.pauli import BlockClass, BlockPauli
from stabtest.protocol import EstimateResult, Explicit, Honest, IidPauli, SingleBadCopy, Transcript
from stabtest.reduction import CheckRelation, Reduction, compute_reduction

F = Fraction
V1, V0 = BitVector(1, 1), BitVector(1, 0)
ONE = (((0, 0), F(1)),)

# Two unequal instances of every record class (one for Honest, which has no fields).
CASES = {
    BitVector: (BitVector(3, 5), BitVector(3, 6)),
    BitMatrix: (BitMatrix(2, 2, (1, 2)), BitMatrix(2, 2, (1, 3))),
    BipartiteGraphState: (path_graph(3), path_graph(4)),
    ClassCounts: (ClassCounts(1, 0, 0, 1), ClassCounts(0, 1, 0, 1)),
    LemmaVerdict: (LemmaVerdict(F(1, 2), None, None, False, True), LemmaVerdict(F(1), F(1), F(2, 3), True, True)),
    Profile: (Profile(F(1), F(1), F(1)), Profile(F(1, 2), F(1, 4), F(1, 2))),
    ClassMixture: (ClassMixture(F(1, 2), ONE, ONE), ClassMixture(F(1), ONE, ONE)),
    BlockPauli: (BlockPauli(V0, V0, V0, V0), BlockPauli(V1, V0, V0, V0)),
    BlockClass: (BlockClass(0, 1), BlockClass(1, 0)),
    Honest: (Honest(),),
    SingleBadCopy: (SingleBadCopy(BlockClass(1, 1)), SingleBadCopy(BlockClass(0, 1))),
    IidPauli: (IidPauli(0.1, 0.2), IidPauli(0.2, 0.1)),
    Explicit: (Explicit((((1.0, BlockPauli(V0, V0, V0, V0)),),)), Explicit((((1.0, BlockPauli(V1, V0, V0, V0)),),))),
    Transcript: (Transcript(1, 7, (1, 2, 3), (BlockClass(0, 0),) * 3, True, 1),
                 Transcript(1, 7, (1, 2, 3), (BlockClass(0, 0),) * 3, True, 1, ((0, V0, V1),))),
    EstimateResult: (EstimateResult.from_counts(4, 2, 1), EstimateResult.from_counts(4, 0, 0)),
    Reduction: (compute_reduction(path_graph(3)), compute_reduction(path_graph(4))),
    CheckRelation: (CheckRelation(BitVector(2, 1), BitVector(2, 2), 1), CheckRelation(BitVector(2, 1), BitVector(2, 2), 2)),
}
PARAMS = pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)


def _fields(cls):
    return tuple(cls.__annotations__)


def _values(x):
    return tuple(getattr(x, name) for name in _fields(type(x)))


def _twin(x):
    """x rebuilt as an instance of a frozen dataclass with the same name and fields."""
    twin = dataclasses.make_dataclass(type(x).__name__, _fields(type(x)), frozen=True)
    return twin(*_values(x))


@PARAMS
def test_equality_hash_and_repr_are_those_of_a_frozen_dataclass(cls):
    x, *others = CASES[cls]
    same = cls(*_values(x))
    twin = _twin(x)
    assert same == x and not same != x
    assert all(y != x and not y == x for y in others)
    # An instance of another class, even with equal fields, is never equal.
    assert x != twin and x.__eq__(twin) is NotImplemented
    assert repr(x) == repr(twin)
    try:
        expected = hash(twin)
    except TypeError:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(same) == expected == hash(_values(x))


@PARAMS
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    x = CASES[cls][0]
    before = _values(x)
    for name in (*_fields(cls), "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert _values(x) == before


@PARAMS
def test_pickle_and_copy_round_trip(cls):
    for x in CASES[cls]:
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert type(y) is cls and y == x and repr(y) == repr(x)


@PARAMS
def test_construction_by_position_or_keyword(cls):
    x = CASES[cls][0]
    names = _fields(cls)
    assert cls.__match_args__ == names
    values = _values(x)
    assert cls(*values) == cls(**dict(zip(names, values))) == x
    with pytest.raises(TypeError, match="positional argument"):
        cls(*values, 0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'other'"):
        cls(*values, other=0)
    if names:
        with pytest.raises(TypeError, match="missing"):
            cls()
        with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
            cls(*values, **{names[0]: values[0]})


def test_a_record_without_fields():
    assert Honest() == Honest() and hash(Honest()) == hash(())
    assert repr(Honest()) == "Honest()" and Honest.__match_args__ == ()
    with pytest.raises(TypeError):
        Honest(1)


def test_a_default_is_taken_when_its_field_is_left_out():
    t = Transcript(k=1, seed=7, partition=(1, 2, 3), classes=(BlockClass(0, 0),) * 3, accepted=True,
                   third_fidelity=1)
    assert t.raw_outcomes is None and t == CASES[Transcript][0]
    assert repr(t).endswith(", raw_outcomes=None)")


def test_match_binds_fields_by_position():
    match BlockClass(1, 0):
        case BlockClass(s, t):
            assert (s, t) == (1, 0)


def test_post_init_rewrites_fields_and_validates():
    # ClassMixture rewrites beta and its atoms through object.__setattr__.
    m = ClassMixture("1/2", {(0, 0): "1"}, [((0, 0), 1)])
    assert m == CASES[ClassMixture][0] and hash(m) == hash(CASES[ClassMixture][0])
    assert m.beta == F(1, 2) and type(m.beta) is F and m.q0 == m.q1 == ONE
    sorted_mixture = ClassMixture.from_weights(1, {(1, 0): F(1, 2), (0, 0): F(1, 2)}, ONE)
    assert sorted_mixture.q0 == (((0, 0), F(1, 2)), ((1, 0), F(1, 2)))
    with pytest.raises(ValueError, match="bits out of range"):
        BitVector(2, 4)


def test_a_cached_property_lives_beside_the_fields():
    g = path_graph(5)
    fresh = BipartiteGraphState(g.n_b, g.n_w, g.adjacency)
    t = g.adjacency_t
    assert g.adjacency_t is t and g.__dict__["adjacency_t"] is t
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    assert pickle.loads(pickle.dumps(g)) == g
