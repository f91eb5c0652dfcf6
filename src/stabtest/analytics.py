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
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Union

from .graphs import _shown

__all__ = [
    "DomainError",
    "ClassCounts",
    "LemmaVerdict",
    "Profile",
    "pass_prob",
    "joint_prob",
    "conditional_fidelity",
    "profile",
    "checked_mixture",
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


@dataclass(frozen=True)
class ClassCounts:
    """Attack profile over 2k+1 copies: a, b, c copies of class (1,0), (0,1), (1,1)."""

    a: int
    b: int
    c: int
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise DomainError("k must be at least 1")
        if min(self.a, self.b, self.c) < 0:
            raise DomainError("class counts must be nonnegative")
        if self.a + self.b + self.c > 2 * self.k + 1:
            raise DomainError("class counts exceed the number of copies")


@dataclass(frozen=True)
class LemmaVerdict:
    """Theorem 1 at one threshold alpha (see theorem1_verdict)."""

    passing: Fraction
    conditional: Fraction | None
    bound: Fraction | None
    premise: bool
    holds: bool


@dataclass(frozen=True)
class Profile:
    """Acceptance, acceptance with a clean kept copy, and their ratio for one profile."""

    passing: Fraction
    joint: Fraction
    conditional: Fraction | None


def pass_prob(cc: ClassCounts) -> Fraction:
    """Probability that a uniformly partitioned run accepts the profile.

    A copy of class (1,0) must avoid group 1, class (0,1) must avoid group 2,
    and class (1,1) must land on the unmeasured third copy, which is possible
    for at most one such copy.
    """
    a, b, c, k = cc.a, cc.b, cc.c, cc.k
    if c >= 2:
        return Fraction(0)
    if c == 1:
        num = math.perm(k, a) * math.perm(k, b)
        return Fraction(num, (2 * k + 1) * math.perm(2 * k, a + b))
    num = ((k + 1) ** 2 - a * b) * math.perm(k + 1, a) * math.perm(k + 1, b)
    return Fraction(num, (k + 1) ** 2 * math.perm(2 * k + 1, a + b))


def joint_prob(a: int, b: int, k: int) -> Fraction:
    """Probability of accepting AND leaving the third copy clean (c = 0 profile)."""
    ClassCounts(a, b, 0, k)
    return Fraction(math.perm(k, a) * math.perm(k, b), math.perm(2 * k + 1, a + b))


def conditional_fidelity(a: int, b: int, k: int) -> Fraction:
    """Third-copy fidelity conditioned on acceptance, for a c = 0 profile."""
    ClassCounts(a, b, 0, k)
    if a > k + 1 or b > k + 1:
        raise DomainError("conditioning on acceptance, which has probability zero")
    return Fraction((k + 1 - a) * (k + 1 - b), (k + 1) ** 2 - a * b)


def profile(cc: ClassCounts) -> Profile:
    """Closed-form twin of oracle. A (1,1) copy passes only as the kept copy,
    so c > 0 leaves no clean kept copy; conditional is None if never accepted."""
    p = pass_prob(cc)
    if cc.c:
        return Profile(p, Fraction(0), Fraction(0) if p else None)
    joint = joint_prob(cc.a, cc.b, cc.k)
    return Profile(p, joint, conditional_fidelity(cc.a, cc.b, cc.k) if p else None)


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
        w = Fraction(w)
        if w < 0:
            raise DomainError(f"{name} weight for ({_shown(a)}, {_shown(b)}) is negative")
        out.append(((a, b), w))
    total = sum((w for _, w in out), Fraction(0))
    if total != 1:
        raise DomainError(f"{name} weights sum to {_shown(total)}, expected 1")
    return tuple(out)


def checked_mixture(beta: Rational, q0: Weights, q1: Weights, k: int) -> tuple[Atoms, Atoms]:
    """Validate the mixture adversary (beta, Q0, Q1) at k >= 1.

    Returns the ((a, b), weight) atoms of Q0, which spread over all 2k+1
    copies, and of Q1, which spread over the 2k copies beside the (1,1) one.
    """
    if not 0 <= Fraction(beta) <= 1:
        raise DomainError("beta must be in [0, 1]")
    checked = []
    for name, q, budget in (("q0", q0, 2 * k + 1), ("q1", q1, 2 * k)):
        atoms = _checked_atoms(name, q)
        for (a, b), _ in atoms:
            if a + b > budget:
                raise DomainError(f"{name} atom ({_shown(a)}, {_shown(b)}) exceeds the copy budget")
        checked.append(atoms)
    return checked[0], checked[1]


def t_functionals(
    beta: Rational, q0: Weights, q1: Weights, k: int
) -> tuple[Fraction, Fraction, Fraction]:
    """(T1, T2, T3) for the mixture adversary (beta, Q0, Q1).

    T1 and T3 average acceptance and joint acceptance-and-clean over Q0
    (profiles without a (1,1) copy); T2 averages acceptance over Q1, where
    one (1,1) copy rides along.
    """
    if k < 1:
        raise DomainError("k must be at least 1")
    atoms0, atoms1 = checked_mixture(beta, q0, q1, k)
    t1 = sum((w * pass_prob(ClassCounts(a, b, 0, k)) for (a, b), w in atoms0), Fraction(0))
    t2 = sum((w * pass_prob(ClassCounts(a, b, 1, k)) for (a, b), w in atoms1), Fraction(0))
    t3 = sum((w * joint_prob(a, b, k) for (a, b), w in atoms0), Fraction(0))
    return t1, t2, t3


def theorem1_bound(alpha, k: int):
    """Fidelity floor 1 - 1/(alpha(2k+1)); DomainError unless alpha > 1/(2k+1).

    Exact inputs give an exact Fraction; float input gives a float.
    """
    if k < 1:
        raise DomainError("k must be at least 1")
    n = 2 * k + 1
    exact = Fraction(alpha)
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
    if k < 1:
        raise DomainError("k must be at least 1")
    alpha = Fraction(alpha)
    bound = theorem1_bound(alpha, k) if alpha * (2 * k + 1) > 1 else None
    premise = bound is not None and passing >= alpha
    # The premise forces passing >= alpha > 0, so conditional is defined.
    return LemmaVerdict(passing, conditional, bound, premise, not premise or conditional >= bound)


def trace_bound(alpha, k: int) -> float:
    """Trace-distance ceiling 1/sqrt(alpha(2k+1)) for alpha >= 1/(2k+1)."""
    if k < 1:
        raise DomainError("k must be at least 1")
    n = 2 * k + 1
    if Fraction(alpha) * n < 1:
        raise DomainError("alpha must be at least 1/(2k+1)")
    return 1.0 / math.sqrt(float(alpha) * n)


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
    reference for this sweep.
    """
    for k in range(1, k_max + 1):
        n = 2 * k + 1
        kk = (k + 1) ** 2
        # P(k+1, j), P(k, j) for j <= k+1; P(2k+1, j) for j <= 2k+1; P(2k, j) for j <= 2k.
        pk1 = _falling(k + 1, k + 2)
        pk = _falling(k, k + 2)
        p2k1 = _falling(n, n + 1)
        p2k = _falling(2 * k, n)
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
        # c = 1: pass = P(k,a) P(k,b) / (n P(2k,a+b)); joint and conditional are 0.
        for a in range(k + 1):
            pk_a = pk[a]
            for b in range(k + 1):
                pass_num = pk_a * pk[b]
                pass_den = n * p2k[a + b]
                # 0 >= pass - 1/n, multiplied through by pass_den > 0.
                yield (k, a, b, 1, (pass_num, pass_den), (0, 1), (0, 1), None,
                       pass_den >= n * pass_num)


def lemma_check(beta: Rational, q0: Weights, q1: Weights, k: int, alpha: Rational) -> LemmaVerdict:
    """theorem1_verdict for the mixture adversary (beta, Q0, Q1) at a positive
    threshold alpha, from its exact acceptance probability and conditional fidelity."""
    if Fraction(alpha) <= 0:
        raise DomainError("alpha must be positive")
    beta = Fraction(beta)
    t1, t2, t3 = t_functionals(beta, q0, q1, k)
    passing = beta * t1 + (1 - beta) * t2
    return theorem1_verdict(passing, beta * t3 / passing if passing else None, alpha, k)


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
