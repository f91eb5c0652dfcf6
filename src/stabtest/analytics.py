"""Exact acceptance and fidelity analytics for the 2k+1-copy test.

All probabilities are computed exactly, as Fractions or, in the
verify-bounds sweep, as integer (numerator, denominator) pairs, so every
identity checked against these functions is exact. Counts (a, b, c) say how
many of the 2k+1 copies carry attacks of class (1,0), (0,1) and (1,1); the
remaining copies are clean. Falling factorials absorb the out-of-range cases: a count
that cannot be hidden from its test group makes math.perm return 0 and the
probability collapses to 0 without special casing.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Union

from ._record import record
from ._text import _shown

__all__ = [
    "DomainError",
    "MAX_DIGITS",
    "ClassCounts",
    "ClassMixture",
    "LemmaVerdict",
    "Profile",
    "pass_prob",
    "joint_prob",
    "conditional_fidelity",
    "profile",
    "t_functionals",
    "theorem1_bound",
    "theorem1_verdict",
    "trace_bound",
    "xi",
    "bounds_rows",
    "lemma_check",
    "oracle",
]

Rational = Union[int, Fraction]
Weights = Union[Mapping[tuple[int, int], Rational], Iterable[tuple[tuple[int, int], Rational]]]
# Checked mixture atoms: ((a, b), weight) in the order given.
Atoms = tuple[tuple[tuple[int, int], Fraction], ...]


class DomainError(ValueError):
    """An argument lies outside the domain of the requested formula."""


def _positive(value, name: str) -> int:
    """value, if it is an int of at least 1: the one rule for k, trials and
    k-max. Anything else ends in one DomainError line; a bool, float, text
    or None is not an int, and k is named as the class count ClassCounts holds."""
    if type(value) is not int:  # bool is an int subclass
        raise DomainError(f"{'class count k' if name == 'k' else name} must be an int, got {_shown(value)}")
    if value < 1:
        raise DomainError(f"{name} must be at least 1")
    return value


@record
class ClassCounts:
    """Attack profile over 2k+1 copies: a, b, c copies of class (1,0), (0,1), (1,1)."""

    a: int
    b: int
    c: int
    k: int

    def __post_init__(self):
        for name, value in zip("abc", (self.a, self.b, self.c)):
            if type(value) is not int:  # bool is an int subclass; a float would reach math.perm
                raise DomainError(f"class count {name} must be an int, got {_shown(value)}")
        _positive(self.k, "k")
        if min(self.a, self.b, self.c) < 0:
            raise DomainError("class counts must be nonnegative")
        if self.a + self.b + self.c > 2 * self.k + 1:
            raise DomainError("class counts exceed the number of copies")


@record
class LemmaVerdict:
    """Theorem 1 at one threshold alpha (see theorem1_verdict)."""

    passing: Fraction
    conditional: Fraction | None
    bound: Fraction | None
    premise: bool
    holds: bool


@record
class Profile:
    """Acceptance, acceptance with a clean kept copy, and their ratio for one profile."""

    passing: Fraction
    joint: Fraction
    conditional: Fraction | None


def pass_prob(cc: ClassCounts) -> Fraction:
    """Probability that a uniformly partitioned run accepts the profile: profile(cc).passing."""
    return profile(cc).passing


def joint_prob(a: int, b: int, k: int) -> Fraction:
    """Probability of accepting AND leaving the third copy clean (c = 0
    profile): profile(ClassCounts(a, b, 0, k)).joint."""
    return profile(ClassCounts(a, b, 0, k)).joint


def conditional_fidelity(a: int, b: int, k: int) -> Fraction:
    """Third-copy fidelity conditioned on acceptance, for a c = 0 profile."""
    ClassCounts(a, b, 0, k)
    if a > k + 1 or b > k + 1:
        raise DomainError("conditioning on acceptance, which has probability zero")
    return Fraction((k + 1 - a) * (k + 1 - b), (k + 1) ** 2 - a * b)


def _expected(dist: Iterable[tuple[tuple[int, int, int], Rational]], k: int) -> Profile:
    """Profile of a state whose class counts at k follow dist's ((a, b, c), weight)
    atoms, which the caller has checked (a ClassCounts, or a ClassMixture's
    check_budget at a checked k), so every denominator below is positive.

    A copy of class (1,0) must avoid group 1, class (0,1) must avoid group 2,
    and class (1,1) must land on the unmeasured third copy, which is possible
    for at most one such copy: a c > 0 atom adds 0 to joint and a c >= 2 atom
    0 to pass. conditional is joint/pass, None if pass is 0."""
    n, kk = 2 * k + 1, (k + 1) ** 2
    passing = joint = Fraction(0)
    for (a, b, c), w in dist:
        if c == 1:
            passing += w * Fraction(math.perm(k, a) * math.perm(k, b), math.perm(n, a + b + 1))
        elif not c:
            s = math.perm(n, a + b)
            passing += w * Fraction((kk - a * b) * math.perm(k + 1, a) * math.perm(k + 1, b), kk * s)
            joint += w * Fraction(math.perm(k, a) * math.perm(k, b), s)
    return Profile(passing, joint, joint / passing if passing else None)


def profile(cc: ClassCounts) -> Profile:
    """Closed-form twin of oracle: the one-atom _expected, so for c = 0 and
    pass > 0 conditional is conditional_fidelity(a, b, k)."""
    return _expected([((cc.a, cc.b, cc.c), 1)], cc.k)


# Most digits of a numerator or denominator read from text: below Python's
# 4300-digit limit for printing an int, with room for the bound
# 1 - 1/(alpha(2k+1)), whose denominator is alpha's numerator times 2k+1.
MAX_DIGITS = 4000


def _fraction(value, field: str) -> Fraction:
    """str(value) read as an exact fraction p/q or decimal with at most
    MAX_DIGITS digits in its numerator and denominator."""
    text = str(value)
    _, e, exp = text.lower().partition("e")
    # Fraction reads each run of digits (underscores dropped) as one int, which
    # Python refuses past 4300 digits, and expands a decimal exponent into a
    # power of ten, which takes seconds for 1e-10000000. Both are refused for
    # their digits before Fraction runs.
    too_long = max(map(len, re.split(r"\D+", text.replace("_", "")))) > 4300
    try:
        too_long = too_long or bool(e) and abs(int(exp)) > MAX_DIGITS
        x = None if too_long else Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"{field} must be a fraction p/q or a decimal, got {_shown(value)}") from exc
    # 10**MAX_DIGITS exceeds 2**(3 * MAX_DIGITS), so only a longer value pays
    # for computing the power of ten.
    big = None if too_long else max(abs(x.numerator), x.denominator)
    if too_long or big.bit_length() > 3 * MAX_DIGITS and big >= 10**MAX_DIGITS:
        raise DomainError(f"{field} needs more than {MAX_DIGITS} digits in its numerator or denominator")
    return x


def _exact(value, field: str) -> Fraction:
    """A library input read exactly: text and Decimal through _fraction, whose
    digit cap a Decimal's exponent would otherwise pass, any other value as
    Fraction(value), so a float keeps its binary value."""
    if isinstance(value, (str, Decimal)):
        return _fraction(value, field)
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{field} must be a finite real number, got {_shown(value)}") from None


def _checked_atoms(name: str, q: Weights) -> Atoms:
    """The atoms of mixture field name as ((a, b), Fraction) pairs, in the order given.

    Checks every rule that does not depend on k: counts are exact
    nonnegative ints, and weights are nonnegative and sum to exactly 1.
    """
    out = []
    for (a, b), w in q.items() if isinstance(q, Mapping) else q:
        # bool is an int subclass, and int() would truncate 0.5 and parse "2".
        if type(a) is not int or type(b) is not int:
            raise DomainError(f"mixture field '{name}' has atom ({_shown(a)}, {_shown(b)}) with non-integer counts")
        if a < 0 or b < 0:
            raise DomainError(f"{name} atom ({_shown(a)}, {_shown(b)}) has negative counts")
        w = _exact(w, f"{name} weight for ({_shown(a)}, {_shown(b)})")
        if w < 0:
            raise DomainError(f"{name} weight for ({_shown(a)}, {_shown(b)}) is negative")
        out.append(((a, b), w))
    total = sum((w for _, w in out), Fraction(0))
    if total != 1:
        raise DomainError(f"{name} weights sum to {_shown(total)}, expected 1")
    return tuple(out)


@record
class ClassMixture:
    """Permutation-invariant adversary described by (beta, Q0, Q1).

    With probability beta the bad-copy counts (a, b) of classes (1,0) and
    (0,1) are drawn from Q0 and no (1,1) copy is sent; otherwise (a, b) comes
    from Q1 and exactly one (1,1) copy is added. Placements are uniform.

    Construction checks every rule that does not need k, once: beta is read
    exactly and lies in [0, 1], and each field passes _checked_atoms. It
    stores beta as a Fraction and each field as ((a, b), Fraction) atoms in
    the order given. The copy budget needs k; check_budget applies it.

    The protocol draws the atom by comparing one random() with float running
    totals of the weights, so a realized atom probability can differ from its
    stated weight by float rounding, about 2**-53 per atom.
    """

    beta: Fraction
    q0: Atoms
    q1: Atoms

    def __post_init__(self):
        beta = _exact(self.beta, "beta")
        if not 0 <= beta <= 1:
            raise DomainError("beta must be in [0, 1]")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "q0", _checked_atoms("q0", self.q0))
        object.__setattr__(self, "q1", _checked_atoms("q1", self.q1))

    @classmethod
    def from_weights(cls, beta, q0: Weights, q1: Weights) -> "ClassMixture":
        """The mixture with each field's checked atoms sorted by (a, b); a
        stable sort, so repeated (a, b) atoms keep their order."""
        mixture = cls(beta, q0, q1)
        for name in ("q0", "q1"):
            object.__setattr__(mixture, name, tuple(sorted(getattr(mixture, name), key=lambda atom: atom[0])))
        return mixture

    def check_budget(self, k: int) -> None:
        """Refuse an atom with more bad copies than its branch holds at k:
        Q0 spreads over all 2k+1 copies, Q1 over the 2k beside the (1,1) one."""
        for name, q, budget in (("q0", self.q0, 2 * k + 1), ("q1", self.q1, 2 * k)):
            for (a, b), _ in q:
                if a + b > budget:
                    raise DomainError(f"{name} atom ({_shown(a)}, {_shown(b)}) exceeds the copy budget")


def t_functionals(
    beta: Rational, q0: Weights, q1: Weights, k: int
) -> tuple[Fraction, Fraction, Fraction]:
    """(T1, T2, T3) for the mixture adversary (beta, Q0, Q1).

    T1 and T3 average acceptance and joint acceptance-and-clean over Q0
    (profiles without a (1,1) copy); T2 averages acceptance over Q1, where
    one (1,1) copy rides along.
    """
    _positive(k, "k")
    mixture = ClassMixture(beta, q0, q1)
    mixture.check_budget(k)
    branch0 = _expected((((a, b, 0), w) for (a, b), w in mixture.q0), k)
    branch1 = _expected((((a, b, 1), w) for (a, b), w in mixture.q1), k)
    return branch0.passing, branch1.passing, branch0.joint


def theorem1_bound(alpha, k: int):
    """Fidelity floor 1 - 1/(alpha(2k+1)); DomainError unless alpha > 1/(2k+1).

    Exact inputs give an exact Fraction; float input gives a float.
    """
    _positive(k, "k")
    n = 2 * k + 1
    exact = _exact(alpha, "alpha")
    if exact * n <= 1:
        raise DomainError("alpha must exceed 1/(2k+1)")
    if isinstance(alpha, float):
        return 1.0 - 1.0 / (alpha * n)
    return 1 - Fraction(1, exact * n)


def theorem1_verdict(passing: Fraction, conditional: Fraction | None, alpha: Rational, k: int) -> LemmaVerdict:
    """Theorem 1 at threshold alpha for a state that passes with probability
    passing and then keeps a copy of fidelity conditional (None if never).

    bound is the floor, None where alpha(2k+1) <= 1. Premise: bound is defined
    and passing >= alpha; then holds says conditional >= bound, and otherwise
    holds is vacuously True. lemma_check passes exact values, simulate rates.
    """
    _positive(k, "k")
    alpha = _exact(alpha, "alpha")
    bound = theorem1_bound(alpha, k) if alpha * (2 * k + 1) > 1 else None
    premise = bound is not None and passing >= alpha
    # The premise forces passing >= alpha > 0, so conditional is defined.
    return LemmaVerdict(passing, conditional, bound, premise, not premise or conditional >= bound)


def trace_bound(alpha, k: int) -> float:
    """Trace-distance ceiling 1/sqrt(alpha(2k+1)) for alpha >= 1/(2k+1).

    Where alpha(2k+1) is past the largest float, it is divided by 4**s so
    that it fits, and the root of the quotient is scaled by 2**-s: a huge
    alpha or k gives a tiny float, or 0.0 once that underflows, and never an
    OverflowError."""
    _positive(k, "k")
    n = 2 * k + 1
    exact = _exact(alpha, "alpha")
    x = exact * n
    if x < 1:
        raise DomainError("alpha must be at least 1/(2k+1)")
    try:
        product = float(exact) * n
    except OverflowError:  # alpha or 2k+1 is past the largest float
        product = math.inf
    if product < math.inf:
        return 1.0 / math.sqrt(product)
    shift = (x.numerator.bit_length() - x.denominator.bit_length()) & ~1
    return math.ldexp(1.0 / math.sqrt(x.numerator / (x.denominator << shift)), -shift // 2)


def xi(a: int, b: int, k: int) -> Fraction:
    """Slack of the per-profile fidelity bound, scaled by (k+1)^2 - ab.

    For a c = 0 profile with positive acceptance probability p,
    conditional_fidelity - (1 - 1/((2k+1) p)) equals xi / ((k+1)^2 - ab),
    so xi >= 0 is the per-profile form of the fidelity floor.
    """
    ClassCounts(a, b, 0, k)
    if a > k + 1 or b > k + 1:
        raise DomainError("profile is never accepted, slack is undefined")
    ratio = Fraction(
        (k + 1) ** 2 * math.perm(2 * k + 1, a + b),
        (2 * k + 1) * math.perm(k + 1, a) * math.perm(k + 1, b),
    )
    return (k + 1 - a) * (k + 1 - b) - (k + 1) ** 2 + a * b + ratio


def _falling(n: int, count: int) -> list[int]:
    """[P(n, 0), ..., P(n, count - 1)] by a running product; P(n, j) = 0 for j > n."""
    out = [1]
    for j in range(count - 1):
        out.append(out[-1] * (n - j))
    return out


def bounds_rows(k_max: int) -> Iterator[tuple]:
    """Rows (k, a, b, c, pass, joint, conditional, xi, bound_ok) for k <= k_max,
    c in {0, 1} and a, b <= k + 1 - c, in that order.

    Every rational is an exact (numerator, denominator) pair of ints with a
    positive denominator, not reduced; xi is None for c = 1. bound_ok is
    joint >= pass - 1/(2k+1), decided by integer cross-multiplication. For
    c = 0 that is xi >= 0: the row's xi numerator is the condition multiplied
    through by (2k+1)(k+1)^2 P(2k+1, a+b) > 0. Each k builds one table of
    falling factorials, so no ClassCounts, Profile or Fraction is built per
    row; `profile` and `xi` give the same values as Fractions and are the
    reference for this sweep. k_max is checked when it is called, by the
    rule and in the words of `verify-bounds --k-max`.
    """
    _positive(k_max, "k-max")
    return (row for k in range(1, k_max + 1) for row in _bounds_rows_at(k))


def _bounds_rows_at(k: int) -> Iterator[tuple]:
    """The rows of bounds_rows with this k, in the same order: a forked
    verify-bounds worker asks for its own k values only."""
    n = 2 * k + 1
    kk = (k + 1) ** 2
    # P(k+1, j), P(k, j) for j <= k+1; P(2k+1, j) for j <= 2k+1.
    pk1 = _falling(k + 1, k + 2)
    pk = _falling(k, k + 2)
    p2k1 = _falling(n, n + 1)
    # c = 0: pass = (kk - ab) P(k+1,a) P(k+1,b) / (kk P(2k+1,a+b)),
    # joint = P(k,a) P(k,b) / P(2k+1,a+b), conditional = (k+1-a)(k+1-b) / (kk - ab),
    # xi = (k+1-a)(k+1-b) - (kk - ab) + kk P(2k+1,a+b) / (n P(k+1,a) P(k+1,b)).
    for a in range(k + 2):
        pk1_a, pk_a = pk1[a], pk[a]
        for b in range(k + 2 if a <= k else k + 1):
            s = p2k1[a + b]
            perms = pk1_a * pk1[b]
            cond_num = (k + 1 - a) * (k + 1 - b)
            cond_den = kk - a * b
            pass_num = cond_den * perms
            pass_den = kk * s
            joint_num = pk_a * pk[b]
            xi_den = n * perms
            xi_num = (cond_num - cond_den) * xi_den + pass_den
            # joint >= pass - 1/n, multiplied through by n * kk * s > 0, is
            # xi_num >= 0: kk P(k,a) P(k,b) = (k+1-a)(k+1-b) P(k+1,a) P(k+1,b).
            yield (k, a, b, 0, (pass_num, pass_den), (joint_num, s), (cond_num, cond_den),
                   (xi_num, xi_den), xi_num >= 0)
    # c = 1: pass = P(k,a) P(k,b) / (n P(2k,a+b)), and n P(2k,a+b) = P(2k+1,a+b+1);
    # joint and conditional are 0.
    for a in range(k + 1):
        pk_a = pk[a]
        for b in range(k + 1):
            pass_num = pk_a * pk[b]
            pass_den = p2k1[a + b + 1]
            # 0 >= pass - 1/n, multiplied through by pass_den > 0.
            yield (k, a, b, 1, (pass_num, pass_den), (0, 1), (0, 1), None,
                   pass_den >= n * pass_num)


def lemma_check(beta: Rational, q0: Weights, q1: Weights, k: int, alpha: Rational) -> LemmaVerdict:
    """theorem1_verdict for the mixture adversary (beta, Q0, Q1) at a positive
    threshold alpha, from its exact acceptance probability and conditional fidelity."""
    if _exact(alpha, "alpha") <= 0:
        raise DomainError("alpha must be positive")
    _positive(k, "k")
    mixture = ClassMixture(beta, q0, q1)
    mixture.check_budget(k)
    state = _expected([((a, b, 0), mixture.beta * w) for (a, b), w in mixture.q0]
                      + [((a, b, 1), (1 - mixture.beta) * w) for (a, b), w in mixture.q1], k)
    return theorem1_verdict(state.passing, state.conditional, alpha, k)


def oracle(cc: ClassCounts) -> Profile:
    """Brute-force check of pass_prob / joint_prob by enumerating partitions.

    The bad copies sit at fixed places: copies 0..a-1 are of class (1,0), the
    next b of (0,1), the next c of (1,1), the rest clean. Every (k, k, 1)
    partition is counted once: group 1, then the kept copy among the k+1
    copies left, group 2 being the other k. That is the uniform partition of
    pass_prob. Limited to k <= 5 to keep enumeration instant.
    """
    if cc.k > 5:
        raise DomainError("brute-force oracle is limited to k <= 5")
    a, b, c, k = cc.a, cc.b, cc.c, cc.k
    n = 2 * k + 1
    bad = a + b + c
    # Copies group 1's test flags, classes (1,0) and (1,1), and group 2's, (0,1) and (1,1).
    flagged1 = {*range(a), *range(a + b, bad)}
    flagged2 = set(range(a, bad))
    total = passing = joint = 0
    for group1 in combinations(range(n), k):
        left = set(range(n)).difference(group1)
        for kept in left:
            total += 1
            if flagged1.isdisjoint(group1) and flagged2.isdisjoint(left - {kept}):
                passing += 1
                joint += kept >= bad
    return Profile(
        passing=Fraction(passing, total),
        joint=Fraction(joint, total),
        conditional=Fraction(joint, passing) if passing else None,
    )
