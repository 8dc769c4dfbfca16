"""Command-line interface.

Exit codes: 0 on success (and on PASS for verify/golden), 1 when a
verification run reports a failure, 2 on usage or input errors, each told
in one ``error:`` or ``refused:`` line on stderr, of at most 200 characters:
a longer one keeps its first and last 80.  A reader that closes stdout
early (``| head``) ends the command quietly, with exit code 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import islice

from .action import BalanceStatus, is_canonical, orbit, prune, serialize_pruned
from .counts import GAMMA_ROUTES, c_polynomial_enum
from .errors import (
    ChainTooLargeError,
    DomainError,
    FamilyTooLargeError,
    GammaExtractionError,
    ParseError,
    TreeValidationError,
)
from .grammar import (
    c_polynomial_grammar,
    chain_cost,
    derive_chain,
    uvz_rules,
    uvz_seed,
    xyz_rules,
)
from .harness import (
    CHECKS,
    FamilySpec,
    admit_enumeration,
    golden_examples,
    verify,
)
from .multiset import Multiset
from .poly import XYZ, Poly3
from .stirling import (
    StirlingPermutation,
    count_stirling,
    enumerate_stirling,
    parse_word,
    statistics,
    word_text,
)
from .trees import gessel_forward, gessel_inverse, parse_tree, serialize

# The most grammar.chain_cost a command may ask for: {1^2, ..., 120^2}
# (3.5 million, under a second) is admitted.
GRAMMAR_COST_CAP = 5_000_000


class _Parser(argparse.ArgumentParser):
    """Raises ParseError on a usage error, which ``main`` reports in one line."""

    def error(self, message: str):
        raise ParseError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; ``parse_args`` keeps
    no state between calls, and a build takes milliseconds."""
    parser = _Parser(
        prog="gesselgamma",
        description="Stirling permutations, Gessel trees and gamma expansions, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all Stirling permutations of a multiset")
    p.add_argument("--multiset", required=True, help="multiplicity list, e.g. 2,2")
    p.add_argument("--stats", action="store_true", help="include per-word statistics")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("tree", help="map a permutation to its tree")
    p.add_argument("--perm", required=True,
                   help="word, e.g. '1 2 2 1', '1,2,2,1' or digits '1221'")

    p = sub.add_parser("perm", help="map a tree back to its permutation")
    p.add_argument("--tree", required=True, help="tree text, e.g. '(1 * (2 * *) *)'")

    p = sub.add_parser("poly", help="the (asc, des, plat) polynomial of a multiset")
    p.add_argument("--multiset", required=True)
    p.add_argument("--via", choices=["enum", "grammar"], required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("gamma", help="the gamma table of a multiset, by any route")
    p.add_argument("--multiset", required=True)
    p.add_argument("--via", required=True, choices=list(GAMMA_ROUTES))

    p = sub.add_parser("orbit", help="the flip orbit of a permutation's tree")
    p.add_argument("--perm", required=True)

    p = sub.add_parser("prune", help="prune a tree and report its (u, v)-weight")
    p.add_argument("--tree", required=True)

    p = sub.add_parser("grammar-derive", help="stream a derivative chain step by step")
    p.add_argument("--rules", choices=["xyz", "uvz"], required=True)
    p.add_argument("--k-seq", required=True, help="multiplicities, e.g. 2,2,2")

    p = sub.add_parser("verify", help="run theorem checks over a family of multisets")
    p.add_argument("--check", required=True,
                   help="a check id or 'all'; ids: " + ", ".join(sorted(CHECKS)))
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    p.add_argument("--max-k", type=int, default=None, dest="max_k")
    p.add_argument("--max-K", type=int, default=None, dest="max_total",
                   help="bound on the total size K")
    p.add_argument("--multisets", default=None,
                   help="explicit family, semicolon-separated: '2,2;1,2,1'")
    p.add_argument("--jobs", type=int, default=1)

    sub.add_parser("golden", help="replay the worked examples with frozen expected values")

    return parser


def _refuse_enumeration(m: Multiset, via: str = "enum") -> None:
    """Refuse, before listing a word or tree, a multiset that
    ``harness.admit_enumeration`` refuses; the grammar routes list none, and
    are refused above GRAMMAR_COST_CAP instead, or for a K of more digits
    than Python writes as text, since their output writes K."""
    if via == "grammar":
        if (cost := chain_cost(m)) > GRAMMAR_COST_CAP:
            raise ChainTooLargeError(cost, GRAMMAR_COST_CAP)
        # 10^digits has more than 3 * digits bits: test that before building it.
        digits = sys.get_int_max_str_digits()
        if digits and m.K.bit_length() > 3 * digits and m.K >= 10**digits:
            raise DomainError(f"K has more than {digits} digits, too long to write out")
    else:
        admit_enumeration([m])


# Rows ``enumerate --format json`` encodes with one ``json.dumps`` call; a
# call per row made the command slower than the one dump of all rows.
_ROW_BATCH = 1024


def _word_row(word: tuple[int, ...], n: int, stats: bool) -> dict:
    """One word of ``enumerate``, over 1..n, with its statistics under ``--stats``."""
    row = {"word": word}
    if stats:
        prof = statistics(word, n)
        row.update({
            "asc": prof.asc, "des": prof.des, "plat": prof.plat,
            "plat_by_j": {str(j): c for j, c in sorted(prof.plat_by_j.items())},
            "dfall": prof.dfall, "aplat": prof.aplat, "dplat": prof.dplat,
        })
    return row


def _cmd_enumerate(args) -> int:
    """Write each row as soon as it is built; the output is the text of one
    ``json.dumps`` (or CSV table) of all rows, without holding them."""
    m = Multiset.parse(args.multiset)
    _refuse_enumeration(m)
    write = sys.stdout.write
    words = enumerate_stirling(m)
    if args.format == "json":
        rows = (_word_row(word, m.n, args.stats) for word in words)
        write(f'{{"multiset": {json.dumps(list(m.mults))}, '
              f'"count": {count_stirling(m)}, "words": [')
        sep = ""
        while batch := list(islice(rows, _ROW_BATCH)):
            write(sep + json.dumps(batch)[1:-1])  # the rows, without the brackets
            sep = ", "
        write("]}\n")
    elif args.stats:
        write("word,asc,des,plat,dfall,aplat,dplat\n")
        for word in words:
            p = statistics(word, m.n)
            write(f"{word_text(word)},{p.asc},{p.des},{p.plat},{p.dfall},{p.aplat},{p.dplat}\n")
    else:
        write("word\n")
        for word in words:
            write(word_text(word) + "\n")
    return 0


def _cmd_tree(args) -> int:
    s = StirlingPermutation.from_word(parse_word(args.perm))
    print(serialize(gessel_forward(s)))
    return 0


def _cmd_perm(args) -> int:
    t = parse_tree(args.tree)
    print(str(gessel_inverse(t)))
    return 0


def _cmd_poly(args) -> int:
    m = Multiset.parse(args.multiset)
    _refuse_enumeration(m, args.via)
    p = c_polynomial_enum(m) if args.via == "enum" else c_polynomial_grammar(m)
    if args.format == "json":
        print(p.to_json())
    else:
        sys.stdout.write(p.to_csv())
    return 0


def _cmd_gamma(args) -> int:
    m = Multiset.parse(args.multiset)
    _refuse_enumeration(m, args.via)
    print(GAMMA_ROUTES[args.via](m).to_json())
    return 0


def _cmd_orbit(args) -> int:
    s = StirlingPermutation.from_word(parse_word(args.perm))
    members = orbit(gessel_forward(s))
    canonical = None
    rows = []
    for t in members:
        text = serialize(t)
        word = str(gessel_inverse(t))
        rows.append({"tree": text, "perm": word})
        if is_canonical(t):
            canonical = text
    rows.sort(key=lambda r: r["tree"])
    print(json.dumps({"canonical": canonical, "size": len(rows), "members": rows}))
    return 0


def _cmd_prune(args) -> int:
    t = parse_tree(args.tree)
    p = prune(t)
    y_vertices = sorted(v for v, ty in p.types.items() if ty is BalanceStatus.UNBALANCED_Y)
    out = {
        "pruned": serialize_pruned(p),
        "zleaf": p.zleaf,
        "weight": None if y_vertices else {"u": p.u_count, "v": p.v_count},
    }
    if y_vertices:
        out["y_vertices"] = y_vertices
    print(json.dumps(out))
    return 0


def _cmd_grammar_derive(args) -> int:
    m = Multiset.parse(args.k_seq)
    if not m.mults:
        raise ParseError("--k-seq needs one or more multiplicities")
    _refuse_enumeration(m, "grammar")
    if args.rules == "xyz":
        steps = derive_chain(Poly3.variable("x", XYZ), map(xyz_rules, m.mults))
    else:
        seed = uvz_seed(m.mults[0])
        print(seed.to_json())
        steps = derive_chain(seed, map(uvz_rules, m.mults[1:]))
    for p in steps:
        print(p.to_json())
    return 0


def _cmd_verify(args) -> int:
    bounds = {k: v for k in ("max_n", "max_k", "max_total")
              if (v := getattr(args, k)) is not None}
    if args.multisets is not None and bounds:
        raise DomainError("--multisets cannot be combined with --max-n/--max-k/--max-K")
    # Listed lazily, so that admission stops at the first member past a cap.
    members = FamilySpec(**bounds) if bounds else None
    if args.multisets is not None:
        members = [Multiset.parse(spec) for spec in args.multisets.split(";")]
        members = sorted(set(members), key=lambda m: m.mults)
    report = verify(args.check, members, jobs=args.jobs)
    print(json.dumps(report.to_json_dict(), indent=2))
    return 0 if report.passed else 1


def _cmd_golden(_args) -> int:
    report = golden_examples()
    print(json.dumps(report.to_json_dict(), indent=2))
    return 0 if report.passed else 1


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "tree": _cmd_tree,
    "perm": _cmd_perm,
    "poly": _cmd_poly,
    "gamma": _cmd_gamma,
    "orbit": _cmd_orbit,
    "prune": _cmd_prune,
    "grammar-derive": _cmd_grammar_derive,
    "verify": _cmd_verify,
    "golden": _cmd_golden,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help, after which argparse exits
        return exc.code if isinstance(exc.code, int) else 2
    except FamilyTooLargeError as exc:
        line = f"refused: {exc}"
    except (ParseError, DomainError, TreeValidationError, GammaExtractionError) as exc:
        line = f"error: {exc}"
    line = " ".join(line.splitlines())  # an echoed token may hold a line break
    if len(line) > 200:  # keep a reason at either end, name what is cut between
        line = f"{line[:80]} [{len(line) - 160} characters] {line[-80:]}"
    print(line, file=sys.stderr)
    return 2


def entrypoint() -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  The interpreter flushes stdout once more
        # at exit; pointing it at os.devnull keeps that flush quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
