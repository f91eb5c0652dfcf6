"""Batch front-end: run simulations, print reductions, sweep bounds, dump oracle tables.

Outputs are deterministic: the same flags and seed produce byte-identical
files. Rational quantities are printed as p/q with a decimal in parentheses;
CSV files carry decimals, JSON lines carry exact values.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import contextmanager, nullcontext
from typing import TYPE_CHECKING

from . import _lazy
from ._text import _cut, _shown

# Each command imports the layers it runs, and pathlib, when it runs: none compiles another.
if TYPE_CHECKING:
    from fractions import Fraction
    from pathlib import Path

    from .analytics import ClassMixture
    from .gf2 import BitMatrix
    from .graphs import BipartiteGraphState
    from .protocol import AdversaryModel

__all__ = [
    "MAX_BOUNDS_K",
    "MAX_DIGITS",
    "parse_graph",
    "parse_adversary",
    "cmd_simulate",
    "cmd_reduce",
    "cmd_verify_bounds",
    "cmd_oracle",
    "main",
]

SUMMARY_HEADER = ["k", "adversary", "trials", "pass_rate", "cond_fidelity", "bound_alpha", "bound_value"]
BOUNDS_HEADER = ["k", "a", "b", "c", "pass", "joint", "conditional", "xi", "bound_ok"]

# Largest --k-max whose rows all print as floats. At each k the largest xi is
# that of row (a, b, c) = (0, k+1, 0), and it grows with k: about 1.43e308 at
# k = 510, past the largest float from k = 511 on.
MAX_BOUNDS_K = 510


def _count(text: str) -> int:
    """int(text) for a graph spec. A well-formed count that int() refuses,
    which it does only past Python's 4300 digits, is refused for its size;
    other text in int()'s own words, with the text shown by _shown."""
    try:
        return int(text)
    except ValueError:
        if not re.fullmatch(r"\s*[+-]?\d+(_\d+)*\s*", text):
            raise ValueError(f"invalid literal for int() with base 10: {_shown(text)}") from None
        from .graphs import MAX_QUBITS

        digits = len(re.sub(r"\D", "", text))
        raise ValueError(f"a count of {digits} digits is out of range (at most {MAX_QUBITS} qubits)") from None


def _sides(arg: str, n: int, form: str) -> list[int]:
    """The n counts of an x-separated graph spec, refused by the spec's form
    when there are not n of them."""
    parts = arg.split("x")
    if len(parts) != n:
        raise ValueError(f"expected {form}")
    return [_count(part) for part in parts]


def _integer(text: str) -> int:
    """argparse type of the integer options: int(text), refused in the words
    argparse uses for int, with the text shown by _shown."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)}") from None


def _document(path: Path, what: str) -> str:
    """The text of a graph or mixture file; ``what`` names it if the bytes do not decode."""
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{what} document is not valid text: {exc}") from exc


def parse_graph(spec: str) -> BipartiteGraphState:
    """Builtin graph specs (path:N, grid:WxH, rhg:XxYxZ, edgeless:N) or a JSON file path."""
    from .graphs import edgeless_graph, from_json, grid_graph, path_graph, rhg_lattice

    kind, _, arg = spec.partition(":")
    try:
        if kind == "path":
            return path_graph(_count(arg))
        if kind == "grid":
            return grid_graph(*_sides(arg, 2, "grid:WxH"))
        if kind == "rhg":
            return rhg_lattice(*_sides(arg, 3, "rhg:XxYxZ"))
        if kind == "edgeless":
            return edgeless_graph(_count(arg))
    except ValueError as exc:
        raise ValueError(f"bad graph spec {_shown(spec)}: {exc}") from exc
    from pathlib import Path

    path = Path(spec)
    if not path.is_file():
        raise ValueError(f"unknown graph spec {_shown(spec)} (not a builtin, not a file)")
    return from_json(_document(path, "graph"))


def probability(text: str) -> Fraction:
    """argparse type of --alpha: an exact fraction in [0, 1].

    Errors are raised as ArgumentTypeError, whose message argparse prints;
    for a ValueError it prints only "invalid probability value"."""
    from .analytics import _fraction

    try:
        p = _fraction(text, "alpha")
        if not 0 <= p <= 1:
            raise ValueError(f"alpha must lie in [0, 1], got {_shown(text)}")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return p


def _load_mixture(path: str) -> ClassMixture:
    from pathlib import Path

    from .analytics import ClassMixture, _fraction
    from .graphs import _read_json

    data = _read_json(_document(Path(path), "mixture"), "mixture")
    if not isinstance(data, dict) or not {"beta", "q0", "q1"} <= data.keys():
        raise ValueError("mixture JSON must be an object with beta, q0 and q1")

    def convert(rows, name):
        if not isinstance(rows, list):
            raise ValueError(f"mixture field '{name}' must be a list of [a, b, weight] rows")
        atoms = []
        for row in rows:
            if not isinstance(row, list) or len(row) != 3:
                raise ValueError(f"mixture field '{name}' has row {_shown(row)}, expected [a, b, weight]")
            a, b, w = row
            atoms.append(((a, b), _fraction(w, f"mixture field '{name}' weight")))
        total = sum(w for _, w in atoms)
        if total <= 0:
            raise ValueError(f"{name} weights must have positive total")
        return [(ab, w / total) for ab, w in atoms]

    return ClassMixture.from_weights(
        _fraction(data["beta"], "mixture field 'beta'"), convert(data["q0"], "q0"), convert(data["q1"], "q1")
    )


def parse_adversary(spec: str) -> AdversaryModel:
    """Mini-grammar: honest | single-bad:s,t | iid:px,pz | mixture:<json file>."""
    from .pauli import BlockClass
    from .protocol import Honest, IidPauli, SingleBadCopy

    kind, _, arg = spec.partition(":")
    if kind == "honest":
        if arg:
            raise ValueError("honest takes no arguments")
        return Honest()
    if kind == "single-bad":
        try:
            s, t = (int(part) for part in arg.split(","))
        except ValueError as exc:
            raise ValueError(f"bad adversary spec {_shown(spec)}: expected single-bad:s,t") from exc
        return SingleBadCopy(BlockClass(s, t))
    if kind == "iid":
        try:
            p_x, p_z = (float(part) for part in arg.split(","))
        except ValueError as exc:
            raise ValueError(f"bad adversary spec {_shown(spec)}: expected iid:px,pz") from exc
        return IidPauli(p_x, p_z)
    if kind == "mixture":
        if not arg:
            raise ValueError("mixture needs a JSON file path")
        return _load_mixture(arg)
    raise ValueError(f"unknown adversary spec {_shown(spec)}")


def _fmt_rat(x: Fraction | None) -> str:
    if x is None:
        return "undefined"
    return f"{x} ({float(x):.6g})"


def _fmt_pair(x: tuple[int, int] | None) -> str:
    # int / int is correctly rounded, as is float(Fraction), so this prints
    # exactly what f"{float(q):.12g}" prints for the Fraction q = num/den.
    # The denominator is positive, so a zero numerator is +0.0, which .12g
    # prints as "0".
    if x is None:
        return ""
    num, den = x
    return f"{num / den:.12g}"


def _matrix_lines(m: BitMatrix) -> list[str]:
    if m.n_rows == 0 or m.n_cols == 0:
        return [f"  (empty {m.n_rows}x{m.n_cols})"]
    return ["  [" + " ".join(format(r, f"0{m.n_cols}b")[::-1]) + "]" for r in m.rows]


def _relation_line(rel) -> str:
    lhs = " + ".join(f"X{i + 1}" for i in rel.x_mask.support()) or "0"
    rhs = " + ".join(f"Z{i + 1}" for i in rel.z_mask.support()) or "0"
    return f"{lhs} = {rhs}"


@contextmanager
def _naming(path: Path):
    """Re-raise an OSError as one about path: the temp file beside it is not
    what was asked for, and its name changes from run to run."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None


@contextmanager
def _atomic_write(path: str | Path):
    """Write to a temp file beside path and move it over path only if the
    block completes, so a failed run leaves the previous output untouched.
    A symlink is followed, so the file it names is replaced and the link
    stays; a path that names anything else but a regular file (a directory,
    a FIFO, a device) is refused before anything is written. newline=""
    keeps the bytes the same on every platform."""
    from pathlib import Path

    target = Path(os.path.realpath(path))
    with _naming(path):
        if target.exists() and not target.is_file():
            raise ValueError(f"not a regular file, so not replaced: {_shown(str(path))}")
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with _naming(path):
            fh = open(tmp, "w", newline="")
        with fh:
            yield fh
        with _naming(path):
            os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def _transcript_lines(lines, write) -> tuple[int, int]:
    """Write the lines of protocol._lines through write, one a line; return
    how many trials were accepted and how many of those kept a clean copy."""
    accepted = clean = 0
    for line, ok, third in lines:
        write(line + "\n")
        if ok:
            accepted += 1
            clean += third
    return accepted, clean


# Least estimated one-process work, in microseconds, of a run that is split
# over forked workers: the break-even of forking, the one for both commands.
# One process's time over that of two workers (median of 21 alternating runs
# of cli.main on 2 vCPUs) crossed 1.0
# - for simulate, at an estimate of 7.3-9.8 ms for a mixture on grid:5x5 at
#   k = 5 (600 trials 0.98, 800 trials 1.12), 7.4-9.9 ms for IID flips on
#   rhg:3x3x3 at k = 2 (75 trials 0.93, 100 trials 1.04) and 8.8 ms for
#   honest copies on path:5 at k = 2 (800 trials 1.00);
# - for verify-bounds, between k_max = 16 (3,872 rows, 0.75-0.90) and
#   k_max = 20 (7,080 rows, 0.99-1.16); k_max = 25 gave 1.07-1.39.
_MIN_FORKED_MICROS = 9_000
# Weight of a verify-bounds row in that estimate, set by the crossover: at
# 1.3 us a row the sweep forks from k_max = 20 and stays in one process at
# 19. A row takes about 1.5 us in one process (best of 9 at k_max = 40), and
# with that the crossover still lies between k_max = 17 and 20.
_ROW_MICROS = 1.3
# Most copies a block of simulate holds, at about 11 bytes of transcript text
# a copy: the text a forked worker formats and sends at once.
_BLOCK_COPIES = 2**16
# Blocks per worker, so that the parent writes one block while the workers
# format the next ones.
_BLOCKS_PER_WORKER = 4


def _usable_cpus() -> list[int | None]:
    """The CPUs this process may run on, in order; where the platform does
    not tell them, os.cpu_count() times None, a CPU no worker can keep to."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return [None] * (os.cpu_count() or 1)


def _workers(micros: float, most: int) -> list[int | None]:
    """The CPUs that the processes sharing a run keep to, one process a CPU,
    for work that splits into `most` parts and is estimated at `micros`
    microseconds in one process: one process, kept to none ([None]), below
    _MIN_FORKED_MICROS or where os.fork is missing, else the usable CPUs, at
    most os.cpu_count() and `most` of them."""
    if micros < _MIN_FORKED_MICROS or not hasattr(os, "fork"):
        return [None]
    return _usable_cpus()[: min(os.cpu_count() or 1, most)]


def _trial_blocks(trials: int, copies: int, workers: int) -> tuple[int, int]:
    """(block size, block count) of a simulate run by `workers` processes:
    blocks of consecutive trials, _BLOCKS_PER_WORKER per worker, but none of
    more than _BLOCK_COPIES copies unless a trial alone has more."""
    size = max(1, min(-(-trials // (_BLOCKS_PER_WORKER * workers)), _BLOCK_COPIES // copies))
    return size, -(-trials // size)


def _write_blocks(blocks: range, cpus: list, block, write, name, unit: str) -> list[int]:
    """Write every block in blocks, in order, through write; return each of
    the counts summed over them, the one place where block counts are added.
    block(number, write) writes one block's text and returns its counts, a
    tuple of ints of one length. With more than one CPU in cpus (from
    _workers) the blocks are formatted by forked processes, one kept to each
    CPU (_forked.sweep, whose failures name a block by name(number) and its
    text by unit); with one, or when a fork is refused, this process writes
    them, streaming each block's text."""
    counts = None
    if len(cpus) > 1:
        from ._forked import sweep

        counts = sweep(blocks, cpus, block, write, name, unit)
    if counts is None:
        counts = [block(number, write) for number in blocks]
    return [sum(column) for column in zip(*counts)]


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run --trials trials of the 2k+1-copy test; write transcripts.jsonl and
    summary.csv to --outdir and print the report.

    Trials share nothing, each drawn from its own seed, so _write_blocks
    writes the blocks of consecutive trials of _trial_blocks in trial order:
    with P > 1 CPUs from _workers, each trial priced at the plan's micros,
    they are striped over P forked workers, and below the break-even of
    forking, or when a fork is refused, one process writes them. The files,
    the report and the exit status are the same bytes either way.
    """
    import csv
    from pathlib import Path

    from . import analytics
    from .protocol import EstimateResult, _lines, _plan

    if not args.outdir:
        # Path("") is ".", so the files would land in the working directory.
        raise ValueError("an empty --outdir (or $STABTEST_OUTDIR) names no directory")
    g = parse_graph(args.graph)
    model = parse_adversary(args.adversary)
    # Checks k, the trial count and the model's fit at k before anything is
    # written, so a refused run leaves no output directory behind.
    plan = _plan(g, args.k, model, args.trials)
    cpus = _workers(args.trials * plan.micros, args.trials)
    size, count = _trial_blocks(args.trials, 2 * args.k + 1, len(cpus))

    def trials_of(number: int) -> range:
        return range(number * size, min((number + 1) * size, args.trials))

    def block(number: int, write) -> tuple[int, int]:
        return _transcript_lines(_lines(plan, trials_of(number), args.seed), write)

    def name(number: int) -> str:
        return f"simulate worker for trials {trials_of(number)[0]}..{trials_of(number)[-1]}"

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    transcript_path = outdir / "transcripts.jsonl"
    summary_path = outdir / "summary.csv"

    # Both files are replaced at the end and the report is formatted before
    # that, so a run that fails keeps the old pair. The inner block exits
    # first: transcripts.jsonl is moved first and summary.csv last.
    with _atomic_write(summary_path) as summary, _atomic_write(transcript_path) as fh:
        accepted, clean = _write_blocks(range(count), cpus, block, fh.write, name, "transcripts")

        result = EstimateResult.from_counts(args.trials, accepted, clean)
        pass_rate, cond = result.pass_rate, result.conditional_fidelity
        alpha = args.alpha if args.alpha is not None else pass_rate
        verdict = analytics.theorem1_verdict(pass_rate, cond, alpha, args.k)
        bound = verdict.bound

        writer = csv.writer(summary, lineterminator="\n")
        writer.writerow(SUMMARY_HEADER)
        decimals = [_fmt_pair(None if x is None else x.as_integer_ratio()) for x in (pass_rate, cond, alpha, bound)]
        writer.writerow([args.k, args.adversary, args.trials, *decimals])

        if bound is None:
            floor, respected = "not applicable (alpha <= 1/(2k+1))", "n/a"
        elif verdict.premise:
            floor, respected = _fmt_rat(bound), "yes" if verdict.holds else "no"
        else:
            floor = _fmt_rat(bound)
            respected = "n/a (no accepted trials)" if cond is None else "n/a (pass rate below alpha)"
        source = "--alpha" if args.alpha is not None else "empirical pass rate"
        report = [
            f"graph: {args.graph} (n_b={g.n_b}, n_w={g.n_w})",
            f"k: {args.k} ({2 * args.k + 1} copies per trial)",
            f"adversary: {args.adversary}",
            f"trials: {args.trials} (master seed {args.seed})",
            f"pass_rate: {_fmt_rat(pass_rate)} [{accepted}/{args.trials} accepted]",
            f"conditional_fidelity: {_fmt_rat(cond)}",
            f"alpha: {_fmt_rat(alpha)} [{source}]",
            f"fidelity_bound: {floor}",
            f"bound respected: {respected}",
            f"wrote {transcript_path} and {summary_path}",
        ]
    print("\n".join(report))
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    from .reduction import compute_reduction, converted_relations

    g = parse_graph(args.graph)
    r = compute_reduction(g)
    print(f"graph: {args.graph} (n_b={g.n_b}, n_w={g.n_w})")
    print("A =")
    print("\n".join(_matrix_lines(g.adjacency)))
    print(f"n_prime = {r.n_prime}")
    for name, mat in (("C", r.c_mat), ("C^-1", r.c_inv), ("D", r.d_mat), ("D^-1", r.d_inv)):
        print(f"{name} =")
        print("\n".join(_matrix_lines(mat)))
    for group, header in (
        (1, "group 1 checks (X measured on B, Z on W):"),
        (2, "group 2 checks (Z measured on B, X on W; X labels are W vertices):"),
    ):
        print(header)
        for rel in converted_relations(r, group):
            print(f"  {_relation_line(rel)}")
    return 0


def _bounds_lines(k: int, rows, write) -> tuple[int, int]:
    """Write the rows of analytics.bounds_rows with this k, whose a and b are
    at most k + 1, as CSV lines through write; return how many rows there
    were and how many of them fail bound_ok.

    The decimals are the bytes _fmt_pair writes: "%.12g" % x and
    f"{x:.12g}" format a float alike, num / den is the correctly rounded
    quotient, and a zero numerator over a positive denominator is +0.0,
    which both print as "0". An xi of None is an empty field."""
    count = violations = 0
    # Every field is an int, a .12g decimal, "" or true/false, none of which a
    # CSV writer would quote, so rows are plain joins: the text of k, a, b and
    # c is made once for the k, and each row is heads[a] + mids[c][b] + tail.
    # Every value of a row is symmetric in (a, b), and row (b, a, c) comes
    # first when a > b, so its tail is kept in `tails` and reused.
    heads = [f"{k},{a}," for a in range(k + 2)]
    mids = [[f"{b},{c}," for b in range(k + 2)] for c in (0, 1)]
    tails: dict[tuple[int, int, int], str] = {}
    for _, a, b, c, p, joint, conditional, xi_val, ok in rows:
        count += 1
        if not ok:
            violations += 1
        if a > b:
            tail = tails[b, a, c]
        else:
            ok_text = "true" if ok else "false"
            if xi_val is None:
                tail = "%.12g,%.12g,%.12g,,%s\n" % (p[0] / p[1], joint[0] / joint[1],
                                                     conditional[0] / conditional[1], ok_text)
            else:
                tail = "%.12g,%.12g,%.12g,%.12g,%s\n" % (p[0] / p[1], joint[0] / joint[1],
                                                          conditional[0] / conditional[1],
                                                          xi_val[0] / xi_val[1], ok_text)
            tails[a, b, c] = tail
        write(heads[a] + mids[c][b] + tail)
    return count, violations


def cmd_verify_bounds(args: argparse.Namespace) -> int:
    """Write the analytics.bounds_rows sweep as CSV; exit 1 if a row fails bound_ok.

    Exit 0 at --k-max K certifies Theorem 1 for every ClassMixture with
    k <= K. bound_ok requires joint >= pass - 1/(2k+1) on every profile (for
    c = 0 it is xi >= 0, the same condition times a positive integer), and
    the profiles the sweep leaves out have pass = joint = 0. A mixture's pass
    and joint are the weighted means of its profiles' values and the
    condition is affine, so it holds for the mixture; with pass >= alpha it
    gives a conditional fidelity joint/pass >= 1 - 1/((2k+1) alpha). Nothing
    is claimed for states outside class mixtures.

    The rows of different k share nothing, so each k is a block of
    _write_blocks, written in k order: with P > 1 CPUs from _workers, at
    _ROW_MICROS a row (2k^2 + 6k + 4 rows per k), worker i of P forked
    workers takes the k with k = i + 1 (mod P), and below the break-even of
    forking, or when a fork is refused, one process writes them. The file,
    the summary line and the exit status are the same bytes either way.
    """
    from . import analytics

    analytics._positive(args.k_max, "k-max")
    if args.k_max > MAX_BOUNDS_K:
        raise ValueError(f"k-max={_shown(args.k_max)} is too large: xi overflows a float past k={MAX_BOUNDS_K}")
    cpus = _workers(_ROW_MICROS * sum(2 * k * k + 6 * k + 4 for k in range(1, args.k_max + 1)), args.k_max)
    # An empty --out names no file: _atomic_write refuses it as the directory
    # it resolves to, rather than the CSV going to stdout.
    with _atomic_write(args.out) if args.out is not None else nullcontext(sys.stdout) as out:
        out.write(",".join(BOUNDS_HEADER) + "\n")
        rows, violations = _write_blocks(range(1, args.k_max + 1), cpus,
                                         lambda k, write: _bounds_lines(k, analytics._bounds_rows_at(k), write),
                                         out.write, lambda k: f"verify-bounds worker for k={k}", "rows")
    if args.out is not None:
        print(f"wrote {args.out}: {rows} rows, {violations} violations")
    return 1 if violations else 0


def cmd_oracle(args: argparse.Namespace) -> int:
    from . import analytics

    cc = analytics.ClassCounts(args.a, args.b, args.c, args.k)
    result = analytics.oracle(cc)
    closed = analytics.profile(cc)
    print(f"profile: a={args.a} b={args.b} c={args.c} k={args.k} ({2 * args.k + 1} copies)")
    print(f"{'':14}{'enumeration':<24}closed form")
    print(f"{'pass':<14}{_fmt_rat(result.passing):<24}{_fmt_rat(closed.passing)}")
    print(f"{'joint':<14}{_fmt_rat(result.joint):<24}{_fmt_rat(closed.joint)}")
    print(f"{'conditional':<14}{_fmt_rat(result.conditional):<24}{_fmt_rat(closed.conditional)}")
    match = result == closed
    print(f"match: {'yes' if match else 'no'}")
    return 0 if match else 1


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose own errors, which quote a refused argument whole,
    are cut by _cut. Its usual messages, an invalid choice with the choices
    listed included, stay under 200 characters and are left as they are."""

    def error(self, message):
        super().error(_cut(message, 200))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stabtest",
        description="Simulator and exact analytics for the stabilizer test protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run Monte Carlo trials of the test")
    sim.add_argument("--graph", required=True, help="path:N | grid:WxH | rhg:XxYxZ | edgeless:N | JSON file")
    sim.add_argument("--k", type=_integer, required=True, help="test group size; 2k+1 copies per trial")
    sim.add_argument("--adversary", required=True, help="honest | single-bad:s,t | iid:px,pz | mixture:FILE")
    sim.add_argument("--trials", type=_integer, default=1000)
    sim.add_argument("--seed", type=_integer, default=0, help="master seed; per-trial seeds derive from it")
    sim.add_argument("--alpha", type=probability, default=None,
                     help="significance threshold (default: empirical pass rate)")
    sim.add_argument("--outdir", default=os.environ.get("STABTEST_OUTDIR", "."),
                     help="output directory (default: $STABTEST_OUTDIR or .)")
    sim.set_defaults(func=cmd_simulate)

    red = sub.add_parser("reduce", help="print the C/D conversion data for a graph")
    red.add_argument("--graph", required=True)
    red.set_defaults(func=cmd_reduce)

    ver = sub.add_parser("verify-bounds", help="sweep the exact per-profile bounds")
    ver.add_argument("--k-max", type=_integer, required=True)
    ver.add_argument("--out", default=None, help="CSV path (default: stdout)")
    ver.set_defaults(func=cmd_verify_bounds)

    orc = sub.add_parser("oracle", help="compare closed forms against brute-force enumeration")
    orc.add_argument("a", type=_integer)
    orc.add_argument("b", type=_integer)
    orc.add_argument("c", type=_integer)
    orc.add_argument("k", type=_integer)
    orc.set_defaults(func=cmd_oracle)

    return parser


# Names this module serves without importing their layer with it: the protocol
# names that perfbench/spans.py reads by getattr and patches here (ROADMAP item
# 11 deletes them with item 4, which retargets those spans), and analytics with
# its MAX_DIGITS (in __all__) and _fraction.
_LAZY = {"run_trials": "protocol", "transcript_to_json": "protocol",
         **dict.fromkeys(("analytics", "MAX_DIGITS", "_fraction"), "analytics")}
__getattr__ = _lazy(__name__, _LAZY, globals())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError) and exc.filename is None:
            # The reader of stdout stopped early, as `| head` does. End
            # quietly, with stdout on devnull so that the interpreter's final
            # flush has somewhere to go, and with the status a shell gives a
            # command killed by SIGPIPE: 128 + 13.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141
        if isinstance(exc, OSError) and exc.filename is not None:
            # The path may be anything given on the command line.
            exc = f"[Errno {exc.errno}] {exc.strerror}: {_shown(exc.filename)}"
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
