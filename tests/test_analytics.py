import hashlib
import math
import random
import re
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from stabtest.analytics import (
    MAX_DIGITS,
    ClassCounts,
    DomainError,
    Profile,
    _expected,
    bounds_rows,
    conditional_fidelity,
    joint_prob,
    lemma_check,
    oracle,
    pass_prob,
    profile,
    t_functionals,
    theorem1_bound,
    theorem1_verdict,
    trace_bound,
    xi,
)
from test_acceptance import SWEEP_KS, _random_weights

F = Fraction


def test_class_counts_validation():
    ClassCounts(2, 2, 1, 2)
    with pytest.raises(DomainError):
        ClassCounts(-1, 0, 0, 2)
    with pytest.raises(DomainError):
        ClassCounts(3, 3, 0, 1)
    with pytest.raises(DomainError):
        ClassCounts(0, 0, 0, 0)


def test_pass_prob_hand_values():
    assert pass_prob(ClassCounts(0, 0, 0, 2)) == 1
    assert pass_prob(ClassCounts(0, 0, 1, 2)) == F(1, 5)
    assert pass_prob(ClassCounts(1, 1, 0, 2)) == F(2, 5)
    assert pass_prob(ClassCounts(1, 1, 1, 2)) == F(1, 15)
    assert pass_prob(ClassCounts(0, 0, 2, 2)) == 0
    assert pass_prob(ClassCounts(0, 0, 1, 1)) == F(1, 3)


def test_pass_prob_vanishes_out_of_range():
    # a copies of class (1,0) cannot all dodge group 1 once a > k+1
    assert pass_prob(ClassCounts(4, 0, 0, 2)) == 0
    assert pass_prob(ClassCounts(3, 0, 0, 2)) > 0
    # with a (1,1) copy present the cap tightens to k
    assert pass_prob(ClassCounts(3, 0, 1, 2)) == 0


def test_single_bad_copy_rates():
    for k in (1, 2, 5, 10):
        assert pass_prob(ClassCounts(0, 0, 1, k)) == F(1, 2 * k + 1)
        assert pass_prob(ClassCounts(1, 0, 0, k)) == F(k + 1, 2 * k + 1)


def test_joint_prob_hand_values():
    assert joint_prob(1, 1, 2) == F(1, 5)
    assert joint_prob(0, 0, 3) == 1
    assert joint_prob(3, 0, 2) == 0
    assert joint_prob(2, 2, 2) == F(2, 2) * F(2, 1) * F(2, 1) / F(5 * 4 * 3 * 2)


def test_joint_prob_validates_budget():
    with pytest.raises(DomainError):
        joint_prob(3, 3, 1)


def test_conditional_fidelity_values():
    assert conditional_fidelity(1, 1, 2) == F(1, 2)
    assert conditional_fidelity(0, 0, 4) == 1
    assert conditional_fidelity(3, 0, 2) == 0  # a = k+1 forces a bad third copy
    with pytest.raises(DomainError):
        conditional_fidelity(4, 0, 2)


def test_conditional_equals_joint_over_pass():
    for k in (1, 2, 3, 4):
        for a in range(k + 2):
            for b in range(k + 2):
                if a + b > 2 * k + 1:
                    continue
                p = pass_prob(ClassCounts(a, b, 0, k))
                if p == 0:
                    continue
                assert conditional_fidelity(a, b, k) == joint_prob(a, b, k) / p


def test_theorem1_bound_exact_and_float():
    assert theorem1_bound(F(3, 10), 2) == F(1, 3)
    assert isinstance(theorem1_bound(F(1, 2), 2), Fraction)
    val = theorem1_bound(1 / math.sqrt(5), 2)
    assert isinstance(val, float)
    assert abs(val - (1 - 1 / math.sqrt(5))) < 1e-12


def test_theorem1_bound_domain():
    with pytest.raises(DomainError):
        theorem1_bound(F(1, 5), 2)
    with pytest.raises(DomainError):
        theorem1_bound(F(1, 10), 2)
    with pytest.raises(DomainError):
        theorem1_bound(F(1, 2), 0)


def test_trace_bound_values_and_domain():
    assert trace_bound(F(1, 5), 2) == 1.0
    assert abs(trace_bound(F(1, 2), 2) - (1 / math.sqrt(2.5))) < 1e-12
    with pytest.raises(DomainError):
        trace_bound(1, 0)
    with pytest.raises(DomainError):
        trace_bound(F(1, 6), 2)
    # tighter alpha means a smaller ceiling
    assert trace_bound(F(9, 10), 4) < trace_bound(F(1, 2), 4)


@pytest.mark.parametrize("alpha, k", [(F(1, 2), 10**5000), (F(1, 2), 2**1100), (10**400, 1), (2 * 10**400, 1)],
                         ids=["k-10e5000", "k-2e1100", "alpha-10e400", "alpha-2e400"])
def test_trace_bound_past_the_largest_float(alpha, k):
    # alpha(2k+1) is past the largest float here, as 2k+1 or as alpha; the
    # reference is 1/sqrt(alpha(2k+1)) in 28-digit decimals, read as a float.
    # In the last case the bit lengths of alpha(2k+1) and 1 differ by an odd
    # number, which the scaling rounds down to an even power of two.
    exact = F(alpha)
    expected = float(1 / (Decimal(exact.numerator) * (2 * k + 1) / exact.denominator).sqrt())
    value = trace_bound(alpha, k)
    assert value >= 0.0
    assert math.isclose(value, expected, rel_tol=1e-12, abs_tol=0.0), (value, expected)


def test_xi_exact_zeros():
    for k in range(1, 30):
        assert xi(1, 0, k) == 0
        assert xi(0, 1, k) == 0
        assert xi(1, 1, k) == 0
        assert xi(2, 0, k) == 0
        assert xi(0, 2, k) == 0


def test_xi_tabulated_expressions():
    for k in range(1, 25):
        assert xi(0, 0, k) == F((k + 1) ** 2, 2 * k + 1)
        if k >= 2:
            assert xi(2, 1, k) == k - 1
            assert xi(2, 2, k) == F(4 * (k - 1) ** 2, k)
            assert xi(3, 0, k) == F((k + 1) ** 2, k - 1)
            assert xi(3, 1, k) == 4 * k - 2
            assert xi(3, 2, k) == F(11 * k * k - 25 * k + 12, k)
        if k >= 3:
            num = 2 * (k - 2) * (13 * k * k - 29 * k + 12)
            assert xi(3, 3, k) == F(num, k * (k - 1))


def test_xi_at_maximal_a():
    # a = k+1 collapses to a Catalan-number expression
    for k in range(1, 12):
        catalan = F(math.comb(2 * k, k), k + 1)
        for b in range(k + 2):
            if k + 1 + b > 2 * k + 1:
                continue
            assert xi(k + 1, b, k) == (k + 1) * (k + 1 - b) * (catalan - 1)


def test_xi_symmetry_and_domain():
    for k in (1, 2, 3, 5):
        for a in range(k + 2):
            for b in range(k + 2):
                if a + b > 2 * k + 1:
                    continue
                assert xi(a, b, k) == xi(b, a, k)
    with pytest.raises(DomainError):
        xi(4, 0, 2)


def test_xi_matches_bound_slack():
    """xi is exactly the scaled gap between the conditional fidelity and the
    acceptance-rate bound, so the two formulations agree row by row."""
    for k in (1, 2, 3, 6):
        for a in range(k + 2):
            for b in range(k + 2):
                if a + b > 2 * k + 1:
                    continue
                p = pass_prob(ClassCounts(a, b, 0, k))
                if p == 0:
                    continue
                lhs = conditional_fidelity(a, b, k) - (1 - F(1, (2 * k + 1) * p))
                assert lhs == xi(a, b, k) / ((k + 1) ** 2 - a * b)


def test_t_functionals_hand_case():
    t1, t2, t3 = t_functionals(F(1, 2), {(1, 1): 1}, {(0, 0): 1}, 2)
    assert t1 == F(2, 5)
    assert t2 == F(1, 5)
    assert t3 == F(1, 5)


def test_t_functionals_mixture_of_atoms():
    q0 = {(0, 0): F(1, 2), (1, 1): F(1, 2)}
    q1 = {(0, 0): F(1, 4), (1, 0): F(3, 4)}
    t1, t2, t3 = t_functionals(F(2, 3), q0, q1, 2)
    assert t1 == F(1, 2) * 1 + F(1, 2) * F(2, 5)
    assert t2 == F(1, 4) * F(1, 5) + F(3, 4) * pass_prob(ClassCounts(1, 0, 1, 2))
    assert t3 == F(1, 2) * 1 + F(1, 2) * F(1, 5)


def test_t_functionals_validation():
    with pytest.raises(DomainError):
        t_functionals(F(3, 2), {(0, 0): 1}, {(0, 0): 1}, 2)
    with pytest.raises(DomainError):
        t_functionals(F(1, 2), {(0, 0): F(1, 2)}, {(0, 0): 1}, 2)
    with pytest.raises(DomainError):
        t_functionals(F(1, 2), {(6, 0): 1}, {(0, 0): 1}, 2)
    with pytest.raises(DomainError):
        t_functionals(F(1, 2), {(0, 0): 1}, {(5, 0): 1}, 2)
    with pytest.raises(DomainError, match="k must be at least 1"):
        t_functionals(F(1, 2), {(0, 0): 1}, {(0, 0): 1}, 0)
    # Counts must be exact ints: 0.5 used to end in a TypeError from math.perm
    # and True to run as 1.
    for count in (0.5, True):
        with pytest.raises(DomainError, match="'q0'.*non-integer"):
            t_functionals(1, [((count, 0), 1)], [((0, 0), 1)], 1)


# Python prints no int past 4300 digits, so a huge count or weight is shown
# by its bit length, and long text is cut; short values print as they read.
@pytest.mark.parametrize("q0, message", [
    ([((10**5000, 0), 1)], "q0 atom (<16610-bit number>, 0) exceeds the copy budget"),
    ([((-(10**5000), 0), 1)], "q0 atom (<16610-bit number>, 0) has negative counts"),
    ([(("1" * 4000, 0), 1)], "mixture field 'q0' has atom ('" + "1" * 39 + "... (4002 characters), 0) "
                              "with non-integer counts"),
    ([((0, 0), F(10**5000 + 1, 10**5000))], "q0 weights sum to <16610-bit number>/<16610-bit number>, expected 1"),
    ([((0, 0), F(1, 2))], "q0 weights sum to 1/2, expected 1"),
    ([((0, 0), 2)], "q0 weights sum to 2, expected 1"),
], ids=["huge-count", "huge-negative-count", "long-text-count", "huge-weights", "half", "two"])
def test_refused_mixture_values_are_shown_short(q0, message):
    with pytest.raises(DomainError) as info:
        t_functionals(1, q0, [((0, 0), 1)], 1)
    assert str(info.value) == message


# An exact input that is not a number is refused as a DomainError naming its
# field, never as Python's own error echoing the value whole.
_LONG_Z = "'" + "z" * 39 + "... (5002 characters)"
_LONG_X = "'" + "x" * 39 + "... (5002 characters)"


@pytest.mark.parametrize("call, message", [
    (lambda: t_functionals(1, [((0, 0), "z" * 5000)], [((0, 0), 1)], 1),
     f"q0 weight for (0, 0) must be a fraction p/q or a decimal, got {_LONG_Z}"),
    (lambda: t_functionals(1, [((0, 0), None)], [((0, 0), 1)], 1),
     "q0 weight for (0, 0) must be a finite real number, got None"),
    (lambda: t_functionals("z" * 5000, [((0, 0), 1)], [((0, 0), 1)], 1),
     f"beta must be a fraction p/q or a decimal, got {_LONG_Z}"),
    (lambda: t_functionals(None, [((0, 0), 1)], [((0, 0), 1)], 1),
     "beta must be a finite real number, got None"),
    (lambda: theorem1_bound("x" * 5000, 1), f"alpha must be a fraction p/q or a decimal, got {_LONG_X}"),
    (lambda: theorem1_verdict(F(1), F(1), "x" * 5000, 1), f"alpha must be a fraction p/q or a decimal, got {_LONG_X}"),
    (lambda: lemma_check(1, {(0, 0): 1}, {(0, 0): 1}, 1, "x" * 5000),
     f"alpha must be a fraction p/q or a decimal, got {_LONG_X}"),
    (lambda: lemma_check(1, {(0, 0): 1}, {(0, 0): 1}, 1, float("nan")), "alpha must be a finite real number, got nan"),
], ids=["text-weight", "none-weight", "text-beta", "none-beta", "bound-alpha", "verdict-alpha", "lemma-alpha",
        "nan-alpha"])
def test_refused_non_numbers_are_domain_errors(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message
    assert len(f"error: {info.value}") < 200


@pytest.mark.parametrize("call", [
    lambda value: theorem1_bound(value, 1),
    lambda value: t_functionals(1, {(0, 0): 1}, {(0, 0): value}, 1),
], ids=["alpha", "weight"])
def test_decimal_inputs_get_the_digit_cap_of_text(call):
    # A Decimal's exponent expands into a power of ten, as text's does:
    # Decimal("1e4000000") took seconds before the cap applied to it.
    for value in (Decimal(f"1e{MAX_DIGITS + 1}"), Decimal(f"1e-{MAX_DIGITS + 1}")):
        with pytest.raises(DomainError, match=f"needs more than {MAX_DIGITS} digits"):
            call(value)
    assert theorem1_bound(Decimal("0.5"), 1) == F(1, 3)


def test_exact_inputs_keep_their_value():
    # Text is read as its decimal, a float as its binary value, as before.
    assert theorem1_bound("1/2", 1) == F(1, 3)
    assert theorem1_bound(0.5, 1) == 1.0 - 1.0 / 1.5
    assert trace_bound(0.4, 1) == 1.0 / math.sqrt(0.4 * 3)
    assert trace_bound("2/5", 1) == trace_bound(F(2, 5), 1) == 1.0 / math.sqrt(float(F(2, 5)) * 3)
    assert t_functionals("1/2", {(0, 0): "0.5", (1, 0): 0.5}, {(0, 0): 1}, 1) == t_functionals(
        F(1, 2), {(0, 0): F(1, 2), (1, 0): F(1, 2)}, {(0, 0): 1}, 1)
    with pytest.raises(DomainError, match="sum to"):
        t_functionals(1, {(0, 0): 0.1, (1, 0): "0.9"}, {(0, 0): 1}, 1)


def test_lemma_check_equality_case():
    verdict = lemma_check(F(1, 2), {(1, 1): 1}, {(0, 0): 1}, 2, F(3, 10))
    assert verdict.premise
    assert verdict.passing == F(3, 10)
    assert verdict.conditional == F(1, 3)
    assert verdict.bound == F(1, 3)
    assert verdict.holds


def test_lemma_check_vacuous_when_premise_fails():
    # acceptance below alpha: nothing to check
    verdict = lemma_check(F(1, 2), {(2, 2): 1}, {(1, 1): 1}, 2, F(9, 10))
    assert not verdict.premise
    assert verdict.holds
    # alpha at the threshold is excluded by the premise
    verdict = lemma_check(1, {(0, 0): 1}, {(0, 0): 1}, 2, F(1, 5))
    assert not verdict.premise and verdict.holds


def test_lemma_check_rejects_nonpositive_alpha():
    with pytest.raises(DomainError):
        lemma_check(F(1, 2), {(0, 0): 1}, {(0, 0): 1}, 2, 0)


def test_lemma_check_has_no_bound_where_the_floor_is_undefined():
    verdict = lemma_check(1, {(0, 0): 1}, {(0, 0): 1}, 2, F(1, 5))
    assert verdict.bound is None
    assert lemma_check(1, {(0, 0): 1}, {(0, 0): 1}, 2, F(1, 10)).bound is None


def test_theorem1_verdict_cases():
    # premise holds: the floor is compared, and may fail for empirical rates
    assert theorem1_verdict(F(1, 2), F(1, 3), F(3, 10), 2).holds
    verdict = theorem1_verdict(F(1, 2), F(1, 4), F(1, 2), 2)
    assert verdict.premise and not verdict.holds and verdict.bound == F(3, 5)
    # passing below alpha: vacuously true, bound still reported
    verdict = theorem1_verdict(F(9, 25), F(0), F(1, 2), 1)
    assert (verdict.bound, verdict.premise, verdict.holds) == (F(1, 3), False, True)
    # nothing accepted
    verdict = theorem1_verdict(F(0), None, F(1, 2), 1)
    assert not verdict.premise and verdict.holds
    # alpha(2k+1) <= 1: no floor at all
    for alpha in (0, F(1, 3)):
        verdict = theorem1_verdict(F(1, 2), F(0), alpha, 1)
        assert (verdict.bound, verdict.premise, verdict.holds) == (None, False, True)
    assert theorem1_verdict(F(1, 2), F(1, 3), F(3, 10), 2).bound == theorem1_bound(F(3, 10), 2)
    with pytest.raises(DomainError):
        theorem1_verdict(F(1, 2), F(1, 2), F(1, 2), 0)


def test_oracle_spot_values():
    res = oracle(ClassCounts(1, 1, 1, 2))
    assert res.passing == F(1, 15)
    assert res.joint == 0
    assert res.conditional == 0
    res = oracle(ClassCounts(0, 0, 1, 2))
    assert res.passing == F(1, 5)
    res = oracle(ClassCounts(1, 1, 0, 2))
    assert res.passing == F(2, 5)
    assert res.joint == F(1, 5)
    assert res.conditional == F(1, 2)


def test_oracle_none_conditional_when_rejected():
    res = oracle(ClassCounts(0, 0, 2, 1))
    assert res.passing == 0 and res.conditional is None


def test_oracle_k_cap():
    with pytest.raises(DomainError):
        oracle(ClassCounts(0, 0, 0, 6))


def test_oracle_matches_profile_at_its_largest_k():
    # Criterion 3 compares every profile up to k = 4; this covers the last k the oracle allows.
    k = 5
    n = 2 * k + 1
    checked = 0
    for a in range(n + 1):
        for b in range(n + 1 - a):
            for c in range(n + 1 - a - b):
                cc = ClassCounts(a, b, c, k)
                assert oracle(cc) == profile(cc), (a, b, c)
                checked += 1
    assert checked == 364


def test_oracle_matches_closed_forms_on_random_profiles():
    rng = random.Random(31)
    for _ in range(40):
        k = rng.randrange(1, 4)
        while True:
            a, b, c = rng.randrange(0, 5), rng.randrange(0, 5), rng.randrange(0, 3)
            if a + b + c <= 2 * k + 1:
                break
        cc = ClassCounts(a, b, c, k)
        res = oracle(cc)
        assert res.passing == pass_prob(cc)
        if c == 0:
            assert res.joint == joint_prob(a, b, k)


def test_bounds_rows_match_profile_and_xi():
    # The table-driven sweep against the Fraction closed forms, row by row.
    # Its range and order are those of the nested loops below.
    rows = list(bounds_rows(20))
    expected_keys = [
        (k, a, b, c)
        for k in range(1, 21)
        for c in (0, 1)
        for a in range(k + 2 - c)
        for b in range(k + 2 - c)
        if a + b + c <= 2 * k + 1
    ]
    assert [row[:4] for row in rows] == expected_keys
    for k, a, b, c, passing, joint, conditional, xi_val, ok in rows:
        pairs = [passing, joint, conditional] + ([] if c else [xi_val])
        assert all(type(n) is int and type(d) is int and d > 0 for n, d in pairs)
        ref = profile(ClassCounts(a, b, c, k))
        assert Fraction(*passing) == ref.passing
        assert Fraction(*joint) == ref.joint
        assert Fraction(*conditional) == ref.conditional
        ref_xi = None if c else xi(a, b, k)
        assert (xi_val is None) == (ref_xi is None)
        if ref_xi is not None:
            assert Fraction(*xi_val) == ref_xi
        assert ok == (ref.joint >= ref.passing - Fraction(1, 2 * k + 1)
                      and (ref_xi is None or ref_xi >= 0))


@pytest.mark.parametrize("k_max, message", [
    (0, "k-max must be at least 1"),
    (-3, "k-max must be at least 1"),
    (True, "k-max must be an int, got True"),
    (2.0, "k-max must be an int, got 2.0"),
    ("3", "k-max must be an int, got '3'"),
    (None, "k-max must be an int, got None"),
], ids=["zero", "negative", "bool", "float", "str", "none"])
def test_bounds_rows_refuses_a_bad_k_max_when_called(k_max, message):
    # These used to yield no rows, k = 1's rows for True, or a raw TypeError
    # at the first row. Now the call refuses, in verify-bounds --k-max's words.
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        bounds_rows(k_max)


def test_bounds_rows_are_symmetric_in_a_and_b():
    # Swapping the test groups swaps classes (1,0) and (0,1), so row (k, a, b, c)
    # carries the same int pairs and verdict as row (k, b, a, c), which the sweep
    # yields first when a > b; the verify-bounds writer reuses that row's text.
    position = {}
    values = {}
    for i, (k, a, b, c, *rest) in enumerate(bounds_rows(40)):
        position[k, a, b, c] = i
        values[k, a, b, c] = tuple(rest)
    mirrored = 0
    for (k, a, b, c), row_values in values.items():
        if a > b:
            assert row_values == values[k, b, a, c]
            assert position[k, b, a, c] < position[k, a, b, c]
            mirrored += 1
    # (k+2)(k+1)/2 pairs with a > b at c = 0 and (k+1)k/2 at c = 1.
    assert mirrored == sum((k + 1) ** 2 for k in range(1, 41))


def test_bounds_rows_lie_on_or_above_the_supporting_line():
    # k * joint >= (k + 1) * pass - 1, the line through the honest profile
    # (pass, joint) = (1, 1) and a single one-sided bad copy,
    # ((k + 1) / (2k + 1), k / (2k + 1)). Every row lies on or above it and
    # only those three profiles lie on it. Cross-multiplied by the positive
    # denominators of pass and joint.
    rows = on_line = 0
    for k, a, b, c, (pass_num, pass_den), (joint_num, joint_den), *_ in bounds_rows(60):
        lhs = k * joint_num * pass_den
        rhs = ((k + 1) * pass_num - pass_den) * joint_den
        assert lhs >= rhs, (k, a, b, c)
        assert (lhs == rhs) == ((a, b, c) in {(0, 0, 0), (1, 0, 0), (0, 1, 0)}), (k, a, b, c)
        rows += 1
        on_line += lhs == rhs
    assert rows == 158840
    assert on_line == 3 * 60


def test_bounds_rows_xi_numerator_is_the_cross_multiplied_floor():
    # bound_ok at c = 0 decides only xi >= 0. That is exact because the row's xi
    # numerator equals joint - pass + 1/n multiplied through by n (k+1)^2 P(n, a+b),
    # where kk = (k+1)^2 is pass's denominator over joint's.
    rows = 0
    for k, a, b, c, (pass_num, pass_den), (joint_num, joint_den), _, xi_val, ok in bounds_rows(60):
        if c == 0:
            n, kk = 2 * k + 1, pass_den // joint_den
            assert n * (kk * joint_num - pass_num) + pass_den == xi_val[0], (k, a, b)
            assert ok == (xi_val[0] >= 0)
            rows += 1
    assert rows == sum((k + 2) ** 2 - 1 for k in range(1, 61))


def test_bounds_rows_count_per_k():
    counts = Counter(row[0] for row in bounds_rows(40))
    assert counts == {k: (k + 2) ** 2 - 1 + (k + 1) ** 2 for k in range(1, 41)}
    assert sum(counts.values()) == 49360


# A count that is not an exact int is refused as ClassMixture's atoms are:
# 0.5 and 2.0 used to escape from math.perm as TypeError, '1' from a
# comparison, and True ran as 1.
@pytest.mark.parametrize("value", [0.5, 2.0, "1", None, True, "1" * 5000], ids=["float", "float-int", "str", "none",
                                                                              "bool", "long-str"])
@pytest.mark.parametrize("call", [
    lambda v: ClassCounts(v, 0, 0, 2),
    lambda v: ClassCounts(1, 0, 0, v),
    lambda v: pass_prob(ClassCounts(0, v, 0, 2)),
    lambda v: joint_prob(v, 0, 2),
    lambda v: joint_prob(0, 0, v),
    lambda v: conditional_fidelity(0, v, 2),
    lambda v: xi(v, 0, 2),
], ids=["counts-a", "counts-k", "pass-b", "joint-a", "joint-k", "conditional-b", "xi-a"])
def test_class_counts_refuse_counts_that_are_not_ints(call, value):
    with pytest.raises(DomainError, match="class count [abck] must be an int, got ") as info:
        call(value)
    assert "\n" not in str(info.value)
    assert len(f"error: {info.value}") < 200


def _random_counts(rng, k):
    """A count distribution at k: one to four (a, b, c) atoms, c up to 3, with
    positive Fraction weights summing to 1."""
    n = 2 * k + 1
    atoms = []
    for _ in range(rng.randrange(1, 5)):
        c = rng.randrange(0, min(3, n) + 1)
        a = rng.randrange(0, n - c + 1)
        atoms.append([(a, rng.randrange(0, n - c - a + 1), c), rng.randrange(1, 10)])
    total = sum(w for _, w in atoms)
    return [(counts, F(w, total)) for counts, w in atoms]


def test_expected_is_the_weighted_sum_of_oracle_values():
    rng = random.Random(13)
    with_c2 = 0
    for k in (1, 2, 3, 4):
        for _ in range(25):
            dist = _random_counts(rng, k)
            with_c2 += any(c >= 2 for (_, _, c), _ in dist)
            passing = sum((w * oracle(ClassCounts(*counts, k)).passing for counts, w in dist), F(0))
            joint = sum((w * oracle(ClassCounts(*counts, k)).joint for counts, w in dist), F(0))
            assert _expected(dist, k) == Profile(passing, joint, joint / passing if passing else None), (k, dist)
    assert with_c2 >= 20


def test_profile_conditional_is_the_closed_form():
    # profile reads conditional as joint/pass; this pins it to
    # conditional_fidelity past criterion 3's k <= 4.
    checked = 0
    for k in range(1, 9):
        for a in range(2 * k + 2):
            for b in range(2 * k + 2 - a):
                got = profile(ClassCounts(a, b, 0, k))
                if got.passing:
                    assert got.conditional == conditional_fidelity(a, b, k), (a, b, k)
                    checked += 1
                else:
                    assert got.conditional is None
    assert checked == sum((k + 2) ** 2 - 1 for k in range(1, 9))


def test_lemma_check_is_the_beta_weighted_t_functionals():
    rng = random.Random(17)
    cases = [(1, {(3, 0): 1}, {(0, 0): 1}, 1), (0, {(0, 0): 1}, {(2, 0): 1}, 1)]  # pass 0 on the branch drawn
    for _ in range(150):
        k = rng.randrange(1, 6)
        beta = rng.choice([0, 1, F(rng.randrange(1, 100), 100)])
        # a up to k + 2 and b up to k + 1 admit atoms that never pass, within each branch's budget.
        a0, a1 = rng.randrange(0, k + 3), rng.randrange(0, k + 2)
        q0 = [((a0, rng.randrange(0, min(k + 1, 2 * k + 1 - a0) + 1)), F(1, 3)), ((0, rng.randrange(0, k + 2)), F(2, 3))]
        q1 = [((a1, rng.randrange(0, min(k + 1, 2 * k - a1) + 1)), 1)]
        cases.append((beta, q0, q1, k))
    nones = 0
    for beta, q0, q1, k in cases:
        t1, t2, t3 = t_functionals(beta, q0, q1, k)
        passing = beta * t1 + (1 - beta) * t2
        verdict = lemma_check(beta, q0, q1, k, F(1, 2))
        assert verdict.passing == passing, (beta, q0, q1, k)
        assert verdict.conditional == (beta * t3 / passing if passing else None), (beta, q0, q1, k)
        nones += verdict.conditional is None
    assert nones >= 2


# SHA-256 of the exact half's values, taken when _expected still summed
# pass_prob and joint_prob over a ClassCounts per atom. A rewrite of the
# closed forms must give the same Fractions, so the same reprs.
_PROFILE_DIGEST = "791943e9fe0cd6dbfa8657ee5fd5f27a2d8717804b795a59669f88fc4661a64a"
_LEMMA_DIGEST = "bb5d55d6cb179315b40bf05ff8e655e8b0d189a557fcd863912393d190f5afd9"


def test_exact_half_is_pinned():
    # profile over every (a, b, c) with a + b + c <= 2k + 1, for k <= 8.
    digest = hashlib.sha256()
    count = 0
    for k in range(1, 9):
        for a in range(2 * k + 2):
            for b in range(2 * k + 2 - a):
                for c in range(2 * k + 2 - a - b):
                    digest.update(repr(profile(ClassCounts(a, b, c, k))).encode())
                    count += 1
    assert (count, digest.hexdigest()) == (3296, _PROFILE_DIGEST)
    # (t_functionals, lemma_check) over the first 500 rows per k of the
    # acceptance criterion 5 sweep, drawn as its _lemma_sweep draws them.
    digest = hashlib.sha256()
    for k in SWEEP_KS:
        rng = random.Random(1000 + k)
        n = 2 * k + 1
        for _ in range(500):
            beta = F(rng.randrange(0, 1001), 1000)
            q0 = _random_weights(rng, k + 2, 2 * k + 1, favor_clean=True)
            q1 = _random_weights(rng, k + 1, 2 * k, favor_clean=True)
            alpha = F(1, n) + (1 - F(1, n)) * F(rng.randrange(1, 1001), 1000) ** 2
            digest.update(repr((t_functionals(beta, q0, q1, k), lemma_check(beta, q0, q1, k, alpha))).encode())
    assert digest.hexdigest() == _LEMMA_DIGEST
