"""Batch front-end: run simulations, print reductions, sweep bounds, dump oracle tables.

Outputs are deterministic: the same flags and seed produce byte-identical
files. Rational quantities are printed as p/q with a decimal in parentheses;
CSV files carry decimals, JSON lines carry exact values.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path

from . import analytics
from .analytics import ClassCounts, DomainError
from .gf2 import BitMatrix
from .graphs import (
    BipartiteGraphState,
    edgeless_graph,
    from_json,
    grid_graph,
    path_graph,
    rhg_lattice,
)
from .pauli import BlockClass
from .protocol import (
    AdversaryModel,
    ClassMixture,
    Honest,
    IidPauli,
    SingleBadCopy,
    transcript_lines,
)
# perfbench/spans.py patches these by getattr; without them `--trace 1` dies with AttributeError.
from .protocol import run_trials, transcript_to_json  # noqa: F401
from .reduction import compute_reduction, converted_relations

__all__ = [
    "MAX_BOUNDS_K",
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


def parse_graph(spec: str) -> BipartiteGraphState:
    """Builtin graph specs (path:N, grid:WxH, rhg:XxYxZ, edgeless:N) or a JSON file path."""
    kind, _, arg = spec.partition(":")
    try:
        if kind == "path":
            return path_graph(int(arg))
        if kind == "grid":
            w, h = (int(part) for part in arg.split("x"))
            return grid_graph(w, h)
        if kind == "rhg":
            lx, ly, lz = (int(part) for part in arg.split("x"))
            return rhg_lattice(lx, ly, lz)
        if kind == "edgeless":
            return edgeless_graph(int(arg))
    except ValueError as exc:
        raise ValueError(f"bad graph spec {spec!r}: {exc}") from exc
    path = Path(spec)
    if not path.is_file():
        raise ValueError(f"unknown graph spec {spec!r} (not a builtin, not a file)")
    return from_json(path.read_text())


def _fraction(value, field: str) -> Fraction:
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{field} must be a fraction p/q or a decimal, got {value!r}") from exc


def probability(text: str) -> Fraction:
    """argparse type of --alpha: an exact fraction in [0, 1]."""
    p = _fraction(text, "alpha")
    if not 0 <= p <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {text!r}")
    return p


def _load_mixture(path: str) -> ClassMixture:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or not {"beta", "q0", "q1"} <= data.keys():
        raise ValueError("mixture JSON must be an object with beta, q0 and q1")

    def convert(rows, name):
        if not isinstance(rows, list):
            raise ValueError(f"mixture field {name!r} must be a list of [a, b, weight] rows")
        atoms = []
        for row in rows:
            if not isinstance(row, list) or len(row) != 3:
                raise ValueError(f"mixture field {name!r} has row {row!r}, expected [a, b, weight]")
            a, b, w = row
            # Exact JSON integers: bool is an int subclass, and int() truncates 0.5 and parses "1".
            if type(a) is not int or type(b) is not int:
                raise ValueError(f"mixture field {name!r} has row {row!r} with non-integer counts")
            atoms.append(((a, b), _fraction(w, f"mixture field {name!r} weight")))
        total = sum(w for _, w in atoms)
        if total <= 0:
            raise ValueError(f"{name} weights must have positive total")
        return [(ab, w / total) for ab, w in atoms]

    return ClassMixture.from_weights(
        _fraction(data["beta"], "mixture field 'beta'"), convert(data["q0"], "q0"), convert(data["q1"], "q1")
    )


def parse_adversary(spec: str) -> AdversaryModel:
    """Mini-grammar: honest | single-bad:s,t | iid:px,pz | mixture:<json file>."""
    kind, _, arg = spec.partition(":")
    if kind == "honest":
        if arg:
            raise ValueError("honest takes no arguments")
        return Honest()
    if kind == "single-bad":
        try:
            s, t = (int(part) for part in arg.split(","))
        except ValueError as exc:
            raise ValueError(f"bad adversary spec {spec!r}: expected single-bad:s,t") from exc
        return SingleBadCopy(BlockClass(s, t))
    if kind == "iid":
        try:
            p_x, p_z = (float(part) for part in arg.split(","))
        except ValueError as exc:
            raise ValueError(f"bad adversary spec {spec!r}: expected iid:px,pz") from exc
        return IidPauli(p_x, p_z)
    if kind == "mixture":
        if not arg:
            raise ValueError("mixture needs a JSON file path")
        return _load_mixture(arg)
    raise ValueError(f"unknown adversary spec {spec!r}")


def _fmt_rat(x: Fraction | None) -> str:
    if x is None:
        return "undefined"
    return f"{x} ({float(x):.6g})"


def _fmt_dec(x: Fraction | None) -> str:
    return "" if x is None else f"{float(x):.12g}"


def _fmt_pair(x: tuple[int, int] | None) -> str:
    # int / int is correctly rounded, as is float(Fraction), so this prints
    # exactly what _fmt_dec prints for the same rational.
    return "" if x is None else f"{x[0] / x[1]:.12g}"


def _matrix_lines(m: BitMatrix) -> list[str]:
    if m.n_rows == 0 or m.n_cols == 0:
        return [f"  (empty {m.n_rows}x{m.n_cols})"]
    return ["  [" + " ".join(format(r, f"0{m.n_cols}b")[::-1]) + "]" for r in m.rows]


def _relation_line(rel) -> str:
    lhs = " + ".join(f"X{i + 1}" for i in rel.x_mask.support()) or "0"
    rhs = " + ".join(f"Z{i + 1}" for i in rel.z_mask.support()) or "0"
    return f"{lhs} = {rhs}"


@contextmanager
def _atomic_write(path: Path, newline: str | None = None):
    """Write to a temp file beside path and move it over path only if the
    block completes, so a failed run leaves the previous output untouched."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _default_outdir() -> str:
    return os.environ.get("STABTEST_OUTDIR", ".")


def cmd_simulate(args: argparse.Namespace) -> int:
    g = parse_graph(args.graph)
    model = parse_adversary(args.adversary)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    transcript_path = outdir / "transcripts.jsonl"
    summary_path = outdir / "summary.csv"

    accepted = 0
    clean = 0
    # Both files are replaced at the end, so a failed run keeps the old pair.
    with _atomic_write(transcript_path) as fh, _atomic_write(summary_path, newline="") as summary:
        for line, ok, third in transcript_lines(g, args.k, model, args.trials, args.seed):
            fh.write(line + "\n")
            if ok:
                accepted += 1
                clean += third

        pass_rate = Fraction(accepted, args.trials)
        cond = Fraction(clean, accepted) if accepted else None
        alpha = args.alpha if args.alpha is not None else pass_rate
        try:
            bound = analytics.theorem1_bound(alpha, args.k)
        except DomainError:
            bound = None

        writer = csv.writer(summary, lineterminator="\n")
        writer.writerow(SUMMARY_HEADER)
        writer.writerow(
            [
                args.k,
                args.adversary,
                args.trials,
                _fmt_dec(pass_rate),
                _fmt_dec(cond),
                _fmt_dec(alpha),
                _fmt_dec(bound),
            ]
        )

    print(f"graph: {args.graph} (n_b={g.n_b}, n_w={g.n_w})")
    print(f"k: {args.k} ({2 * args.k + 1} copies per trial)")
    print(f"adversary: {args.adversary}")
    print(f"trials: {args.trials} (master seed {args.seed})")
    print(f"pass_rate: {_fmt_rat(pass_rate)} [{accepted}/{args.trials} accepted]")
    print(f"conditional_fidelity: {_fmt_rat(cond)}")
    source = "--alpha" if args.alpha is not None else "empirical pass rate"
    print(f"alpha: {_fmt_rat(alpha)} [{source}]")
    if bound is None:
        print("fidelity_bound: not applicable (alpha <= 1/(2k+1))")
        print("bound respected: n/a")
    else:
        print(f"fidelity_bound: {_fmt_rat(bound)}")
        if cond is None:
            print("bound respected: n/a (no accepted trials)")
        else:
            print(f"bound respected: {'yes' if cond >= bound else 'no'}")
    print(f"wrote {transcript_path} and {summary_path}")
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    g = parse_graph(args.graph)
    r = compute_reduction(g)
    print(f"graph: {args.graph} (n_b={g.n_b}, n_w={g.n_w})")
    print("A =")
    print("\n".join(_matrix_lines(g.adjacency)))
    print(f"n_prime = {r.n_prime}")
    for name, mat in (("C", r.c_mat), ("C^-1", r.c_inv), ("D", r.d_mat), ("D^-1", r.d_inv)):
        print(f"{name} =")
        print("\n".join(_matrix_lines(mat)))
    print("group 1 checks (X measured on B, Z on W):")
    for rel in converted_relations(r, 1):
        print(f"  {_relation_line(rel)}")
    print("group 2 checks (Z measured on B, X on W; X labels are W vertices):")
    for rel in converted_relations(r, 2):
        print(f"  {_relation_line(rel)}")
    return 0


def cmd_verify_bounds(args: argparse.Namespace) -> int:
    if args.k_max < 1:
        raise ValueError("k-max must be at least 1")
    if args.k_max > MAX_BOUNDS_K:
        raise ValueError(f"k-max={args.k_max} is too large: xi overflows a float past k={MAX_BOUNDS_K}")
    rows = 0
    violations = 0
    with _atomic_write(Path(args.out), newline="") if args.out else nullcontext(sys.stdout) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(BOUNDS_HEADER)
        for k, a, b, c, p, joint, conditional, xi_val, ok in analytics.bounds_rows(args.k_max):
            rows += 1
            if not ok:
                violations += 1
            writer.writerow(
                [k, a, b, c, _fmt_pair(p), _fmt_pair(joint), _fmt_pair(conditional),
                 _fmt_pair(xi_val), str(ok).lower()]
            )
    if args.out:
        print(f"wrote {args.out}: {rows} rows, {violations} violations")
    return 1 if violations else 0


def cmd_oracle(args: argparse.Namespace) -> int:
    cc = ClassCounts(args.a, args.b, args.c, args.k)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabtest",
        description="Simulator and exact analytics for the stabilizer test protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run Monte Carlo trials of the test")
    sim.add_argument("--graph", required=True, help="path:N | grid:WxH | rhg:XxYxZ | edgeless:N | JSON file")
    sim.add_argument("--k", type=int, required=True, help="test group size; 2k+1 copies per trial")
    sim.add_argument("--adversary", required=True, help="honest | single-bad:s,t | iid:px,pz | mixture:FILE")
    sim.add_argument("--trials", type=int, default=1000)
    sim.add_argument("--seed", type=int, default=0, help="master seed; per-trial seeds derive from it")
    sim.add_argument("--alpha", type=probability, default=None,
                     help="significance threshold (default: empirical pass rate)")
    sim.add_argument("--outdir", default=_default_outdir(),
                     help="output directory (default: $STABTEST_OUTDIR or .)")
    sim.set_defaults(func=cmd_simulate)

    red = sub.add_parser("reduce", help="print the C/D conversion data for a graph")
    red.add_argument("--graph", required=True)
    red.set_defaults(func=cmd_reduce)

    ver = sub.add_parser("verify-bounds", help="sweep the exact per-profile bounds")
    ver.add_argument("--k-max", type=int, required=True)
    ver.add_argument("--out", default=None, help="CSV path (default: stdout)")
    ver.set_defaults(func=cmd_verify_bounds)

    orc = sub.add_parser("oracle", help="compare closed forms against brute-force enumeration")
    orc.add_argument("a", type=int)
    orc.add_argument("b", type=int)
    orc.add_argument("c", type=int)
    orc.add_argument("k", type=int)
    orc.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
