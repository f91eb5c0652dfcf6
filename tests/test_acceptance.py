"""Acceptance gate: eight criteria, one printed PASS/FAIL line each.

Every tolerance is pinned here. Monte Carlo comparisons use three binomial
standard errors around the exact closed-form value; everything labeled exact
is compared with rational arithmetic and no tolerance at all.
"""

import math
import random
import time
from fractions import Fraction

from stabtest.analytics import (
    ClassCounts,
    conditional_fidelity,
    joint_prob,
    lemma_check,
    oracle,
    pass_prob,
    profile,
    t_functionals,
    trace_bound,
    xi,
)
from stabtest.gf2 import BitMatrix, BitVector, mat_mul, rank
from stabtest.graphs import BipartiteGraphState, grid_graph, path_graph, rhg_lattice
from stabtest.pauli import BlockClass
from stabtest.protocol import ClassMixture, Honest, SingleBadCopy, estimate
from stabtest.reduction import (
    compute_reduction,
    converted_checks_hold,
    converted_relations,
    relations_hold,
)

F = Fraction

SWEEP_KS = (2, 3, 5, 8)
SWEEP_SIZE = 10_000
_SWEEP_CACHE: dict[int, list] = {}


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _random_weights(rng, a_hi, budget, favor_clean=False):
    atoms = {}
    for _ in range(rng.randrange(1, 4)):
        while True:
            a = rng.randrange(0, a_hi + 1)
            b = rng.randrange(0, a_hi + 1)
            if a + b <= budget:
                break
        atoms[(a, b)] = atoms.get((a, b), 0) + rng.randrange(1, 10)
    if favor_clean and rng.random() < 0.6:
        atoms[(0, 0)] = atoms.get((0, 0), 0) + rng.randrange(3, 12)
    total = sum(atoms.values())
    return {ab: F(w, total) for ab, w in atoms.items()}


def _lemma_sweep(k):
    """Shared randomized (beta, Q0, Q1, alpha) rows for criteria 5 and 8."""
    if k in _SWEEP_CACHE:
        return _SWEEP_CACHE[k]
    rng = random.Random(1000 + k)
    n = 2 * k + 1
    rows = []
    for _ in range(SWEEP_SIZE):
        beta = F(rng.randrange(0, 1001), 1000)
        q0 = _random_weights(rng, k + 2, 2 * k + 1, favor_clean=True)  # k+2 admits zero-pass atoms
        q1 = _random_weights(rng, k + 1, 2 * k, favor_clean=True)
        # squaring skews alpha toward its lower limit so the premise fires often
        alpha = F(1, n) + (1 - F(1, n)) * F(rng.randrange(1, 1001), 1000) ** 2
        t1, t2, t3 = t_functionals(beta, q0, q1, k)
        passing = beta * t1 + (1 - beta) * t2
        conditional = beta * t3 / passing if passing else None
        rows.append((beta, q0, q1, alpha, passing, conditional))
    _SWEEP_CACHE[k] = rows
    return rows


def test_criterion_1_honest_completeness(capsys):
    graphs = {"path:5": path_graph(5), "grid:3x3": grid_graph(3, 3), "rhg:1x1x1": rhg_lattice(1, 1, 1)}
    started = time.perf_counter()
    for name, g in graphs.items():
        for k in (1, 2, 5):
            res = estimate(g, k, Honest(), 10_000, 101)
            assert res.pass_rate == 1, (name, k)
            assert res.conditional_fidelity == 1, (name, k)
    elapsed = time.perf_counter() - started
    ok = elapsed < 10.0
    _report(capsys, 1, ok, f"pass_rate exactly 1 on 9 graph/k combos, {elapsed:.1f}s < 10s")
    assert ok


def test_criterion_2_single_bad_copy_rate(capsys):
    model = SingleBadCopy(BlockClass(1, 1))
    trials = 100_000
    worst = 0.0
    for k in (1, 2, 5, 10):
        p = 1.0 / (2 * k + 1)
        se = math.sqrt(p * (1 - p) / trials)
        res = estimate(path_graph(5), k, model, trials, 1205)
        z = abs(float(res.pass_rate) - p) / se
        worst = max(worst, z)
        assert z <= 3.0, (k, z)
        assert res.counts["accepted"] > 0
        assert res.conditional_fidelity == 0, k
    _report(capsys, 2, True, f"pass rate within 3 SE of 1/(2k+1) (max |z|={worst:.2f}); conditional fidelity exactly 0")


def test_criterion_3_oracle_equality(capsys):
    started = time.perf_counter()
    checked = 0
    for k in (1, 2, 3, 4):
        n = 2 * k + 1
        for a in range(n + 1):
            for b in range(n + 1 - a):
                for c in range(n + 1 - a - b):
                    cc = ClassCounts(a, b, c, k)
                    res = oracle(cc)
                    p = pass_prob(cc)
                    joint = joint_prob(a, b, k) if c == 0 else F(0)
                    assert res.passing == p, (a, b, c, k)
                    assert res.joint == joint, (a, b, c, k)
                    if p:
                        assert res.conditional == joint / p, (a, b, c, k)
                        if c == 0 and a <= k + 1 and b <= k + 1:
                            assert res.conditional == conditional_fidelity(a, b, k)
                    else:
                        assert res.conditional is None
                    assert profile(cc) == res, (a, b, c, k)
                    checked += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 60.0
    _report(capsys, 3, ok, f"{checked} profiles match enumeration exactly, {elapsed:.1f}s < 60s")
    assert ok


def test_criterion_4_xi_nonnegativity(capsys):
    checked = 0
    for k in range(1, 61):
        for a in range(k + 2):
            for b in range(k + 2):
                if a + b > 2 * k + 1:
                    continue
                assert xi(a, b, k) >= 0, (a, b, k)
                checked += 1
        assert xi(1, 0, k) == 0 and xi(1, 1, k) == 0 and xi(2, 0, k) == 0
        assert xi(0, 0, k) == F((k + 1) ** 2, 2 * k + 1)
        if k >= 2:
            assert xi(2, 1, k) == k - 1
            assert xi(2, 2, k) == F(4 * (k - 1) ** 2, k)
            assert xi(3, 0, k) == F((k + 1) ** 2, k - 1)
            assert xi(3, 1, k) == 4 * k - 2
            assert xi(3, 2, k) == F(11 * k * k - 25 * k + 12, k)
        if k >= 3:
            assert xi(3, 3, k) == F(2 * (k - 2) * (13 * k * k - 29 * k + 12), k * (k - 1))
        catalan = F(math.comb(2 * k, k), k + 1)
        for b in range(k + 1):
            assert xi(k + 1, b, k) == (k + 1) * (k + 1 - b) * (catalan - 1)
    _report(capsys, 4, True, f"xi >= 0 on {checked} grid points up to k=60; zeros and tabulated forms exact")


def test_criterion_5_lemma_property_sweep(capsys):
    triggered = 0
    for k in SWEEP_KS:
        n = 2 * k + 1
        hits = 0
        for i, (beta, q0, q1, alpha, passing, conditional) in enumerate(_lemma_sweep(k)):
            if passing >= alpha:
                hits += 1
                assert conditional >= 1 - F(1, alpha * n), (k, i)
            if i % 200 == 0:
                assert lemma_check(beta, q0, q1, k, alpha).holds, (k, i)
        assert hits > 500, f"sweep at k={k} barely triggers the premise"
        triggered += hits
    verdict = lemma_check(F(1, 2), {(1, 1): 1}, {(0, 0): 1}, 2, F(3, 10))
    assert verdict.premise and verdict.holds
    assert verdict.passing == F(3, 10)
    assert verdict.conditional == verdict.bound == F(1, 3)
    _report(capsys, 5, True,
            f"no violations on {len(SWEEP_KS) * SWEEP_SIZE} random adversaries ({triggered} premise hits); equality case exact")


def test_criterion_6_monte_carlo_matches_analytics(capsys):
    rng = random.Random(606)
    g = path_graph(5)
    trials = 100_000
    worst = 0.0
    for i in range(20):
        while True:
            k = rng.choice((1, 2, 3))
            beta = F(rng.randrange(0, 1001), 1000)
            q0 = _random_weights(rng, k + 1, 2 * k + 1)
            q1 = _random_weights(rng, k, 2 * k)
            t1, t2, t3 = t_functionals(beta, q0, q1, k)
            p = beta * t1 + (1 - beta) * t2
            if p >= F(1, 20):
                break
        model = ClassMixture.from_weights(beta, q0, q1)
        res = estimate(g, k, model, trials, 7000 + i)
        cond_true = beta * t3 / p
        if p == 1:
            assert res.pass_rate == 1, i
        else:
            se = math.sqrt(float(p * (1 - p)) / trials)
            z = abs(float(res.pass_rate - p)) / se
            worst = max(worst, z)
            assert z <= 3.0, (i, k, z)
        n_acc = res.counts["accepted"]
        assert n_acc >= 1000, i
        if cond_true in (0, 1):
            assert res.conditional_fidelity == cond_true, i
        else:
            se = math.sqrt(float(cond_true * (1 - cond_true)) / n_acc)
            z = abs(float(res.conditional_fidelity - cond_true)) / se
            worst = max(worst, z)
            assert z <= 3.0, (i, k, z)
    _report(capsys, 6, True, f"20 mixtures at 1e5 trials within 3 SE of exact values (max |z|={worst:.2f})")


def _random_graph(rng):
    n_b = rng.randrange(1, 13)
    n_w = rng.randrange(1, 13)
    rows = tuple(rng.getrandbits(n_w) for _ in range(n_b))
    return BipartiteGraphState(n_b, n_w, BitMatrix(n_b, n_w, rows))


def _block_form(n_rows, n_cols, n_prime):
    return BitMatrix(n_rows, n_cols, tuple((1 << i) if i < n_prime else 0 for i in range(n_rows)))


def _checks_agree(g, r, group, x_bits, z_bits):
    if group == 1:
        x = BitVector(g.n_b, x_bits)
        z = BitVector(g.n_w, z_bits)
    else:
        x = BitVector(g.n_w, x_bits)
        z = BitVector(g.n_b, z_bits)
    return converted_checks_hold(r, group, x, z) == relations_hold(g, group, x, z)


def test_criterion_7_reduction_goldens_and_random_graphs(capsys):
    # worked three-qubit example
    r3 = compute_reduction(path_graph(3))
    assert r3.n_prime == 1
    assert r3.c_mat.to_lists() == [[1, 1], [1, 0]]
    assert r3.c_inv.to_lists() == [[0, 1], [1, 1]]
    assert r3.d_mat.to_lists() == [[1]]
    rel1 = [(rel.x_mask.to_tuple(), rel.z_mask.to_tuple()) for rel in converted_relations(r3, 1)]
    assert rel1 == [((0, 1), (1,)), ((1, 1), (0,))]
    assert [(rel.x_mask.to_tuple(), rel.z_mask.to_tuple()) for rel in converted_relations(r3, 2)] == [((1,), (1, 1))]
    # worked four-qubit example
    r4 = compute_reduction(path_graph(4))
    assert r4.n_prime == 2
    assert r4.c_mat.to_lists() == [[1, 0], [1, 1]]
    assert r4.c_inv.to_lists() == [[1, 0], [1, 1]]
    assert r4.d_mat == BitMatrix.identity(2)
    assert [(rel.x_mask.to_tuple(), rel.z_mask.to_tuple()) for rel in converted_relations(r4, 1)] == [
        ((1, 0), (1, 0)), ((1, 1), (0, 1))]
    assert [(rel.x_mask.to_tuple(), rel.z_mask.to_tuple()) for rel in converted_relations(r4, 2)] == [
        ((1, 0), (1, 1)), ((0, 1), (0, 1))]

    rng = random.Random(707)
    exhaustive = sampled = 0
    for _ in range(500):
        g = _random_graph(rng)
        r = compute_reduction(g)
        assert r.n_prime == rank(g.adjacency)
        assert mat_mul(mat_mul(r.c_inv, g.adjacency), r.d_mat) == _block_form(g.n_b, g.n_w, r.n_prime)
        if g.n_b + g.n_w <= 6:
            exhaustive += 1
            for group, nx, nz in ((1, g.n_b, g.n_w), (2, g.n_w, g.n_b)):
                for x_bits in range(1 << nx):
                    for z_bits in range(1 << nz):
                        assert _checks_agree(g, r, group, x_bits, z_bits)
        else:
            sampled += 1
            for group, nx, nz in ((1, g.n_b, g.n_w), (2, g.n_w, g.n_b)):
                for _ in range(20):
                    assert _checks_agree(g, r, group, rng.getrandbits(nx), rng.getrandbits(nz))
    _report(capsys, 7, True,
            f"goldens exact; block form on 500 random graphs ({exhaustive} exhaustive, {sampled} sampled outcome checks)")


def test_criterion_8_trace_bound(capsys):
    checked = 0
    for k in SWEEP_KS:
        n = 2 * k + 1
        for i, (beta, q0, q1, alpha, passing, conditional) in enumerate(_lemma_sweep(k)):
            if passing < alpha:
                continue
            checked += 1
            # exact square of 1 - P(clean) <= 1/(alpha(2k+1))
            assert (1 - conditional) ** 2 * alpha * n <= 1, (k, i)
            if i % 200 == 0:
                assert float(1 - conditional) <= trace_bound(alpha, k) + 1e-12, (k, i)
    _report(capsys, 8, True, f"trace-distance ceiling holds exactly on {checked} premise-satisfying sweep rows")
