"""The 2k+1-copy test protocol against configurable adversaries.

A trial draws per-copy Pauli attacks from the adversary model, partitions the
copies uniformly into groups of sizes (k, k, 1), tests group 1 against the
B-side syndromes and group 2 against the W-side syndromes, and records the
third copy's fidelity indicator. Everything is driven by a single seeded RNG
per trial; per-trial seeds derive from a master seed via SHA-256, so results
are reproducible regardless of execution order. A trial loop reseeds one
generator per trial to the state random.Random(seed) would start from (see
_rounds).

RNG consumption order within a trial: adversary draw first, then the
partition shuffle, then (only when requested) raw outcome sampling. An IID
draw takes every copy's words at draw time and decodes a copy only when the
trial or a caller first reads it; decoding draws nothing, so reading fewer
copies leaves the stream as it is.

The partition shuffle, a mixture's bad-copy placements and a single bad
copy's place are drawn by the kernel's own loops over rng.getrandbits. Each
loop consumes the same Mersenne-Twister words in the same order as the
CPython 3.11 random.Random method it stands for (shuffle, sample(range(n), m)
and randrange(n)), returns the same result and leaves the generator in the
same state; tests/test_protocol.py compares them. Transcripts therefore do not
depend on the random.py of the running Python: if a later CPython changes
those methods, the comparison tests fail and the transcripts stay as they are.
"""

from __future__ import annotations

import _random
import math
import random
import struct
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence, Union

# hashlib loads OpenSSL; CPython's built-in module gives the same digest. It
# is _sha2 from 3.12 on and _sha256 before, and hashlib stands in for both.
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

from ._record import record
from ._text import _shown
from .analytics import ClassMixture, DomainError, _exact, _positive
from .gf2 import BitVector
from .graphs import BipartiteGraphState
from .pauli import BlockClass, BlockPauli, sample_outcomes, syndrome_masks, syndromes

__all__ = [
    "MAX_COPIES",
    "Honest",
    "SingleBadCopy",
    "IidPauli",
    "ClassMixture",
    "Explicit",
    "AdversaryModel",
    "Transcript",
    "EstimateResult",
    "trial_seed",
    "run_protocol",
    "run_trials",
    "transcript_lines",
    "estimate",
    "transcript_to_json",
]

# Each class's persisted spelling, as json.dumps writes [s, t], by a nested
# [s][t] index (a bool index finds the same entry as 0 or 1), and the class
# each fragment spells.
_FRAGMENTS = [[f"[{s}, {t}]" for t in (0, 1)] for s in (0, 1)]
_CLASS = {_FRAGMENTS[s][t]: BlockClass(s, t) for s in (0, 1) for t in (0, 1)}

# Bulk IID draws. random() is x / 2**53 with x = (w0 >> 5) * 2**26 + (w1 >> 6)
# over two consecutive Mersenne-Twister words, and getrandbits(64 * m) returns
# the words of m random() calls low word first, so 64-bit lane i of the draw
# holds the words of the i-th call and leaves the generator in the same state.
# Big-endian, a lane is w1 then w0, and its byte 4, the top byte of w0, is
# bits 45-52 of x.
_LANE_WORDS = struct.Struct(">II")


def _lane_table(p) -> tuple[int, bytes]:
    """T = ceil(p * 2**53), so that random() < p exactly when x < T, and a
    translate table from a lane's top byte b to b"1" (b < T >> 45, so x < T),
    b"0" (b > T >> 45, so x >= T) or b"?" (a tie, settled by x < T).
    The product is taken in Fraction, which keeps it exact for a Decimal p,
    whose own product would round to its context; _Plan passes the Fraction
    that analytics._exact read."""
    T = math.ceil(Fraction(p) * (1 << 53))
    t = T >> 45
    return T, (b"1" * t + b"?" + b"0" * 255)[:256]


@record
class Honest:
    """Sends 2k+1 clean copies."""


@record
class SingleBadCopy:
    """One uniformly placed copy of the given class, the rest clean."""

    bad_class: BlockClass


@record
class IidPauli:
    """Independent per-qubit X flips (prob p_x) and Z flips (prob p_z) on every copy."""

    p_x: float
    p_z: float


@record
class Explicit:
    """Fully explicit adversary: one attack distribution per copy.

    Each entry of ``copies`` is a tuple of (probability, BlockPauli) atoms.
    A probability is read exactly, as IidPauli's are, and must not be
    negative. Atoms are drawn as for ClassMixture, from float running totals,
    so a realized probability can differ from the stated one by float
    rounding, about 2**-53 per atom. The totals need only come within 1e-9
    of 1; when they stop short of 1, the last atom absorbs the shortfall, and
    when they pass 1, the atoms beyond 1 lose the excess.
    """

    copies: tuple[tuple[tuple[float, BlockPauli], ...], ...]


AdversaryModel = Union[Honest, SingleBadCopy, IidPauli, ClassMixture, Explicit]

# One copy in a trial: (sigma1, sigma2, (u_b, u_w, v_b, v_w), fragment); see _Plan.
_Record = tuple[int, int, tuple[int, int, int, int], str]


class _IidRecords:
    """The records of one IID draw, each decoded the first time it is read.

    Holds every copy's drawn word; indexing copy j replaces its word with the
    record decode(word) makes, so a copy is decoded at most once and a copy
    that is never read is never decoded. len() is the number of copies, and
    iteration decodes every copy not yet read, then yields the records in
    copy order.
    """

    __slots__ = ("_items", "_decode")

    def __init__(self, words: list[int], decode: Callable[[int], _Record]):
        self._items = words
        self._decode = decode

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, j: int) -> _Record:
        item = self._items[j]
        if item.__class__ is int:
            item = self._items[j] = self._decode(item)
        return item

    def __iter__(self) -> Iterator[_Record]:
        decode = self._decode
        self._items = items = [decode(item) if item.__class__ is int else item for item in self._items]
        return iter(items)


@record
class Transcript:
    """Record of one protocol run."""

    k: int
    seed: int
    partition: tuple[int, ...]
    classes: tuple[BlockClass, ...]
    accepted: bool
    third_fidelity: int
    raw_outcomes: tuple[tuple[int, BitVector, BitVector], ...] | None = None


@record
class EstimateResult:
    """Aggregate of a Monte Carlo run: pass rate, conditional fidelity and the counts behind them."""

    pass_rate: Fraction
    conditional_fidelity: Fraction | None
    counts: dict[str, int]

    @classmethod
    def from_counts(cls, trials: int, accepted: int, clean: int) -> "EstimateResult":
        """pass_rate is accepted/trials; conditional_fidelity is the clean
        fraction among accepted trials, or None when nothing was accepted."""
        return cls(
            pass_rate=Fraction(accepted, trials),
            conditional_fidelity=Fraction(clean, accepted) if accepted else None,
            counts={"trials": trials, "accepted": accepted, "accepted_clean": clean},
        )


# Largest number of copies, 2k+1, that a run accepts. Every trial builds
# records, an order and a shuffle of that length, so the cap bounds a trial's
# memory the way graphs.MAX_QUBITS bounds a graph's.
MAX_COPIES = 2**16

# Largest (2k+1)·(n_b + n_w) of an IidPauli run. A trial holds every copy's
# drawn words, 16 bytes a qubit, from the draw on, so the cap bounds that
# memory the way MAX_COPIES bounds the records'.
_MAX_IID_QUBITS = 2**23


def trial_seed(master_seed: int, index: int) -> int:
    """Derived per-trial seed: top 8 bytes of SHA-256('{master_seed}:{index}')."""
    digest = _sha256(f"{master_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class _Plan:
    """Per-(graph, k, model) preparation shared across trials.

    A copy's record is (sigma1, sigma2, attack, fragment): the syndrome masks
    a group-1 and a group-2 test observe, the raw (u_b, u_w, v_b, v_w) masks
    of the attack, and the _FRAGMENTS spelling of the copy's class
    (bool(sigma1), bool(sigma2)). The class is decided when the record is
    made, and nowhere else. Each adversary model is prepared once, in its
    own branch below, into ``draw(rng)``, which returns one record per copy.
    Records of fixed attacks (the clean copy, the class representatives,
    explicit atoms) are built here once and shared by every trial, and draw
    returns them in a list. IID copies are drawn fresh in every trial, and
    draw returns an _IidRecords, which makes a copy's record, and so decides
    its class, when the copy is first read. ``micros`` prices a trial for
    cli._workers: 10 us plus a price a copy, set beside the draw it prices.
    """

    def __init__(self, g: BipartiteGraphState, k: int, model: AdversaryModel):
        _positive(k, "k")
        n = 2 * k + 1
        if n > MAX_COPIES:
            raise DomainError(f"k={_shown(k)} is too large: {_shown(n)} copies (at most {MAX_COPIES})")
        self.g = g
        self.k = k
        self.copies = list(range(n))
        self.steps = _shuffle_steps(n)
        clean = self._class_record(0, 0)
        # A copy that is a fixed record (honest, single-bad, mixture, explicit).
        # Best of 5 over transcript_lines on 2 vCPUs, in us a trial: 10.6 on
        # path:5 at k = 2, 13.1 for a mixture on grid:5x5 at k = 5, 16.9 for
        # single-bad at k = 20.
        per_copy = 0.2

        if isinstance(model, Honest):
            def draw(rng: random.Random) -> list[_Record]:
                return [clean] * n
        elif isinstance(model, SingleBadCopy):
            bad = self._class_record(model.bad_class.s, model.bad_class.t)

            def draw(rng: random.Random) -> list[_Record]:
                records = [clean] * n
                # The words and the value of random.Random.randrange(n).
                records[_sample(rng.getrandbits, n, 1)[0]] = bad
                return records
        elif isinstance(model, ClassMixture):
            model.check_budget(k)
            beta = float(model.beta)
            # random() < beta can hold only if beta > 0 and fail only if beta < 1.
            # Only the classes a reachable branch places must fit the graph.
            reachable = (model.q0 if beta > 0 else ()) + (model.q1 if beta < 1 else ())
            rep10 = self._class_record(1, 0) if any(a for (a, _), _ in reachable) else None
            rep01 = self._class_record(0, 1) if any(b for (_, b), _ in reachable) else None
            rep11 = self._class_record(1, 1) if beta < 1 else None
            # Per branch, Q0 (c = 0) then Q1 (c = 1): each atom's counts
            # (a, b, c), and the running totals of the weights.
            tables = [
                ([(a, b, c) for (a, b), _ in q], _running_totals(w for _, w in q))
                for c, q in enumerate((model.q0, model.q1))
            ]

            def draw(rng: random.Random) -> list[_Record]:
                counts, totals = tables[0 if rng.random() < beta else 1]
                a, b, c = counts[_pick(totals, rng.random())]
                # The words and the values of random.Random.sample(range(n), a + b + c),
                # in placement order: a (1,0) copies, b (0,1) copies, then the (1,1) copy.
                places = _sample(rng.getrandbits, n, a + b + c)
                records = [clean] * n
                for pos in places[:a]:
                    records[pos] = rep10
                for pos in places[a : a + b]:
                    records[pos] = rep01
                if c:
                    records[places[-1]] = rep11
                return records
        elif isinstance(model, IidPauli):
            # Read once, exactly: analytics._exact refuses a NaN, a value that
            # is not a number and a Decimal past the digit cap in one line.
            p_x = _exact(model.p_x, "flip probability")
            p_z = _exact(model.p_z, "flip probability")
            if not (0 <= p_x <= 1 and 0 <= p_z <= 1):
                raise ValueError("flip probabilities must be in [0, 1]")
            n_b, n_w = g.n_b, g.n_w
            half = n_b + n_w
            # A copy draws and decodes every qubit. At k = 2, in us a trial:
            # 26.3 on grid:5x5, 87.4 on rhg:3x3x3 and 173 on rhg:4x4x4.
            per_copy = 2 + half / 16
            if n * half > _MAX_IID_QUBITS:
                raise ValueError(
                    f"iid draws too large: {_shown(n)} copies x {_shown(half)} qubits = {_shown(n * half)}"
                    f" qubit draws per trial (at most 2**23 = {_MAX_IID_QUBITS})"
                )
            # Per copy, one bulk draw covers exactly the Mersenne-Twister words
            # of one random() call per qubit, in lane order u_b, u_w (prob
            # p_x), then v_b, v_w (p_z), and leaves the generator in the state
            # those calls would; bit i of a mask is set iff that random() call
            # falls below its flip probability. A trial draws every copy's
            # word first, in copy order, and decodes a copy only when it is
            # read (_IidRecords). A lane's top byte decides its flip; only a
            # tie (about one lane in 256) reads the lane's 8 bytes for the
            # exact compare x < T.
            n_bits = 128 * half
            n_bytes = 16 * half
            # Big-endian, so the last lane comes first: the p_z half, then p_x.
            z_tops = slice(4, 8 * half, 8)
            x_tops = slice(8 * half + 4, None, 8)
            tz, table_z = _lane_table(p_z)
            tx, table_x = _lane_table(p_x)
            b_mask = (1 << n_b) - 1
            w_mask = (1 << n_w) - 1
            unpack_lane = _LANE_WORDS.unpack_from

            def decode(word: int) -> _Record:
                raw = word.to_bytes(n_bytes, "big")
                # Digit d is lane 2 * half - 1 - d, so bit i of the parse is lane i.
                digits = bytearray(raw[z_tops].translate(table_z) + raw[x_tops].translate(table_x))
                d = digits.find(b"?")
                while d >= 0:
                    w1, w0 = unpack_lane(raw, 8 * d)
                    # In place: a tie costs O(1), not a copy of the digits.
                    digits[d] = b"01"[((w0 >> 5) << 26 | w1 >> 6) < (tz if d < half else tx)]
                    d = digits.find(b"?", d + 1)
                flips = int(digits or b"0", 2)
                u_b = flips & b_mask
                u_w = (flips >> n_b) & w_mask
                v_b = (flips >> half) & b_mask
                v_w = flips >> (half + n_b)
                sigma1, sigma2 = syndrome_masks(g, u_b, u_w, v_b, v_w)
                return sigma1, sigma2, (u_b, u_w, v_b, v_w), _FRAGMENTS[not not sigma1][not not sigma2]

            def draw(rng: random.Random) -> _IidRecords:
                return _IidRecords(list(map(rng.getrandbits, repeat(n_bits, n))), decode)
        elif isinstance(model, Explicit):
            if len(model.copies) != n:
                raise ValueError(
                    f"explicit model has {len(model.copies)} copies, needs {n}"
                )
            # Per copy, (records, running totals) in atom order.
            tables = []
            for atoms in model.copies:
                records, probs = [], []
                for prob, attack in atoms:
                    # Read once, exactly, as IidPauli's: analytics._exact refuses
                    # a NaN or a value that is not a number in one line.
                    exact = _exact(prob, "explicit probability")
                    if exact < 0:
                        raise ValueError(f"explicit probabilities must be nonnegative, got {_shown(prob)}")
                    probs.append(exact)
                    # syndromes() also checks that the attack fits the graph.
                    sigma1, sigma2 = (sigma.bits for sigma in syndromes(g, attack))
                    masks = (attack.u_b.bits, attack.u_w.bits, attack.v_b.bits, attack.v_w.bits)
                    records.append((sigma1, sigma2, masks, _FRAGMENTS[not not sigma1][not not sigma2]))
                # float(Fraction(x)) == float(x) for a float, Fraction or Decimal x.
                totals = _running_totals(probs)
                if not totals or abs(totals[-1] - 1.0) > 1e-9:
                    raise ValueError("explicit copy distribution is not normalized")
                tables.append((records, totals))

            def draw(rng: random.Random) -> list[_Record]:
                return [records[_pick(totals, rng.random())] for records, totals in tables]
        else:
            raise ValueError(f"unknown adversary model: {_shown(model)}")
        self.draw = draw
        self.micros = 10 + per_copy * n

    def _class_record(self, s: int, t: int) -> _Record:
        """Canonical attack of class (s, t): Z on the first vertex of each flagged side."""
        g = self.g
        if s and g.n_b == 0:
            raise ValueError("class with s=1 is not realizable: graph has no B vertices")
        if t and g.n_w == 0:
            raise ValueError("class with t=1 is not realizable: graph has no W vertices")
        return s, t, (0, 0, s, t), _FRAGMENTS[s][t]


def _running_totals(weights: Iterable) -> list[float]:
    """Float running totals of the weights, left to right."""
    return list(accumulate(map(float, weights)))


def _pick(totals: list[float], x: float) -> int:
    """The categorical draw of both weighted-atom adversaries: the index of
    the first running total above x, or the last index when none is."""
    return min(bisect_right(totals, x), len(totals) - 1)


def _shuffle_steps(n: int) -> list[tuple[int, int]]:
    """The steps of random.Random.shuffle over n items, last position first:
    (i, width), where position i swaps with a draw below i + 1 taken
    width = (i + 1).bit_length() bits at a time."""
    return [(i, (i + 1).bit_length()) for i in reversed(range(1, n))]


def _shuffle(getrandbits: Callable[[int], int], order: list[int], steps: list[tuple[int, int]]) -> None:
    """random.Random.shuffle(order) drawn from getrandbits, over the
    _shuffle_steps of len(order)."""
    for i, width in steps:
        j = getrandbits(width)
        while j > i:
            j = getrandbits(width)
        order[i], order[j] = order[j], order[i]


def _sample(getrandbits: Callable[[int], int], n: int, m: int) -> list[int]:
    """random.Random.sample(range(n), m) for 0 <= m <= n, drawn from getrandbits.

    Both of sample's branches, with its choice between them: a pool of the
    unpicked values while n is at most setsize, else redraws of values
    already picked.
    """
    setsize = 21
    if m > 5:
        setsize += 4 ** math.ceil(math.log(m * 3, 4))
    chosen = []
    if n <= setsize:
        pool = list(range(n))
        for left in range(n, n - m, -1):
            width = left.bit_length()
            j = getrandbits(width)
            while j >= left:
                j = getrandbits(width)
            chosen.append(pool[j])
            pool[j] = pool[left - 1]
    else:
        width = n.bit_length()
        selected = set()
        for _ in range(m):
            j = getrandbits(width)
            while j >= n or j in selected:
                j = getrandbits(width)
            selected.add(j)
            chosen.append(j)
    return chosen


# A record's class fragment: its transcript spelling, and through _CLASS its BlockClass.
_fragment = itemgetter(3)

# What _trial returns: (records, order, accepted). records is a list, or an
# _IidRecords for IidPauli, whose copies are decoded as they are read.
_Round = tuple[Sequence[_Record], list[int], bool]


def _trial(plan: _Plan, rng: random.Random) -> _Round:
    """One round from a freshly seeded generator: draw the copies, partition
    them, test them. rng is left where the shuffle left it.

    order[:k] is group 1, order[k:2k] group 2 and order[-1] the kept copy.
    The test reads copies only up to the first that fails, and not the kept
    copy: whether it is clean is _kept_clean's to read, for the callers that
    need it. An IID round decodes only the copies that are read.
    """
    records = plan.draw(rng)
    order = plan.copies[:]
    _shuffle(rng.getrandbits, order, plan.steps)
    k = plan.k
    accepted = True
    for j in order[:k]:
        if records[j][0]:
            accepted = False
            break
    else:
        for j in order[k : 2 * k]:
            if records[j][1]:
                accepted = False
                break
    return records, order, accepted


def _kept_clean(records: Sequence[_Record], order: list[int]) -> int:
    """The round's third_fidelity: 1 iff the kept copy, order[-1], is clean,
    so that neither test group would see it."""
    kept = records[order[-1]]
    return int(not (kept[0] or kept[1]))


def _plan(g: BipartiteGraphState, k: int, model: AdversaryModel, trials: int) -> _Plan:
    """The plan of a run of `trials` trials, built once the trial count is
    checked: what every trial entry point asks for before its first trial,
    so a refused run is refused before anything is drawn or written."""
    _positive(trials, "trials")
    return _Plan(g, k, model)


def _rounds(plan: _Plan, indices: range, master_seed: int) -> Iterator[tuple[int, _Round]]:
    """(seed, _trial's round) for the trials in indices: the one trial loop
    behind run_trials, transcript_lines, estimate and each block of a forked
    `simulate`. It keeps one generator and reseeds it for every trial with
    the C seeding that random.Random(seed) runs for an int seed, which
    leaves the same state. trial_seed is looked up on the module at every
    trial, as a traced run replaces it there.
    """
    rng = random.Random()
    reseed = _random.Random.seed
    for index in indices:
        seed = trial_seed(master_seed, index)
        reseed(rng, seed)
        yield seed, _trial(plan, rng)


def _partition(order: list[int], k: int) -> list[str]:
    """Group label of each copy ("1", "2", or "3" for the kept one) from
    _trial's order."""
    partition = ["2"] * len(order)
    for i in order[:k]:
        partition[i] = "1"
    partition[order[-1]] = "3"
    return partition


def _transcript(
    g: BipartiteGraphState, k: int, seed: int, round_: _Round, rng: random.Random | None = None
) -> Transcript:
    """The transcript of one round. Given rng, the generator the round was
    drawn from, it also samples the raw outcomes of both test groups from
    rng, where the round left it."""
    records, order, accepted = round_
    raw = None
    if rng is not None:
        outcomes = []
        for group, members in ((1, order[:k]), (2, order[k : 2 * k])):
            for i in sorted(members):
                u_b, u_w, v_b, v_w = records[i][2]
                attack = BlockPauli(
                    BitVector(g.n_b, u_b), BitVector(g.n_w, u_w), BitVector(g.n_b, v_b), BitVector(g.n_w, v_w)
                )
                outcomes.append((i, *sample_outcomes(g, attack, group, rng)))
        raw = tuple(sorted(outcomes, key=lambda item: item[0]))
    return Transcript(
        k=k,
        seed=seed,
        partition=tuple(map(int, _partition(order, k))),
        classes=tuple(_CLASS[fragment] for fragment in map(_fragment, records)),
        accepted=accepted,
        third_fidelity=_kept_clean(records, order),
        raw_outcomes=raw,
    )


def run_protocol(
    g: BipartiteGraphState,
    k: int,
    model: AdversaryModel,
    seed: int,
    record_outcomes: bool = False,
) -> Transcript:
    """Run one full protocol round and return its transcript."""
    rng = random.Random(seed)
    return _transcript(g, k, seed, _trial(_Plan(g, k, model), rng), rng if record_outcomes else None)


def run_trials(
    g: BipartiteGraphState,
    k: int,
    model: AdversaryModel,
    trials: int,
    master_seed: int,
) -> Iterator[Transcript]:
    """Stream transcripts for trials 0..trials-1 under derived per-trial seeds.
    The arguments are checked when it is called, as transcript_lines' are."""
    rounds = _rounds(_plan(g, k, model, trials), range(trials), master_seed)
    return (_transcript(g, k, seed, round_) for seed, round_ in rounds)


def transcript_lines(
    g: BipartiteGraphState,
    k: int,
    model: AdversaryModel,
    trials: int,
    master_seed: int,
) -> Iterator[tuple[str, bool, int]]:
    """Stream (line, accepted, third_fidelity) for trials 0..trials-1.

    Each line is transcript_to_json of the matching run_trials transcript,
    formatted straight from the trial kernel without building the transcript:
    the classes are the fragments the records carry, so no copy's class is
    looked up again. The arguments are checked when it is called, before
    the first line is asked for, so a caller can be refused before it makes
    anything to write the lines into.
    """
    return _lines(_plan(g, k, model, trials), range(trials), master_seed)


def _lines(plan: _Plan, indices: range, master_seed: int) -> Iterator[tuple[str, bool, int]]:
    """transcript_lines' stream for the trials in indices, the trial numbers
    its lines carry. `simulate` formats its whole run, or each block of a
    forked run, through this one loop."""
    k = plan.k
    for index, (seed, (records, order, accepted)) in zip(indices, _rounds(plan, indices, master_seed)):
        third = _kept_clean(records, order)
        classes = map(_fragment, records)
        yield _json_line(index, seed, _partition(order, k), classes, accepted, third), accepted, third


def estimate(
    g: BipartiteGraphState,
    k: int,
    model: AdversaryModel,
    trials: int,
    master_seed: int,
) -> EstimateResult:
    """Monte Carlo aggregate over derived per-trial seeds, through
    EstimateResult.from_counts. Aggregates equal those of run_trials with the
    same arguments. Only an accepted trial's kept copy is read, since a
    rejected trial's fidelity does not count."""
    accepted = 0
    clean = 0
    for _, (records, order, ok) in _rounds(_plan(g, k, model, trials), range(trials), master_seed):
        if ok:
            accepted += 1
            clean += _kept_clean(records, order)
        # A rejected IID round keeps most of its words undecoded: let them go
        # before the loop draws the next round's.
        del records
    return EstimateResult.from_counts(trials, accepted, clean)


def _json_line(
    trial: int,
    seed: int,
    partition: Iterable[str],
    classes: Iterable[str],
    accepted: bool,
    third_fidelity: int,
) -> str:
    """One line of the persisted transcript schema: json.dumps of the dict
    {"trial", "seed", "partition", "classes", "accepted", "third_fidelity"},
    with its default separators. ``partition`` holds the group labels of
    _partition and ``classes`` the _FRAGMENTS spellings."""
    return (
        f'{{"trial": {trial}, "seed": {seed}, "partition": [{", ".join(partition)}], '
        f'"classes": [{", ".join(classes)}], "accepted": {"true" if accepted else "false"}, '
        f'"third_fidelity": {third_fidelity}}}'
    )


def transcript_to_json(t: Transcript, trial: int) -> str:
    """One JSON line in the persisted transcript schema."""
    classes = [_FRAGMENTS[not not c.s][not not c.t] for c in t.classes]
    return _json_line(trial, t.seed, map(str, t.partition), classes, t.accepted, t.third_fidelity)
