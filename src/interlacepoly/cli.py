"""Command-line front end.

Subcommands:

    poly       compute the interlace polynomial of a graph file
    euler      Euler-circuit counting / circuit partition analysis of a word
    enumerate  stream every labeled graph of an order with its polynomial
    verify     run a verification suite (identities | extremal | conjectures)

Exit codes: 0 all checks passed / output produced, 1 violations found,
2 usage error (bad arguments or malformed input).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import enumeration as en
from .euler import (
    DoubleOccurrenceWord,
    circuit_partition_polynomial,
    circuit_transposition_orbit,
    digraph_from_word,
    euler_circuit_count_best,
    martin_polynomial,
)
from .graphs import Graph, from_graph6, parse_edge_list, to_graph6
from .interlace import interlace_polynomial
from .polynomials import IntPolynomial
from .suites import (
    ORBIT_MAX_SYMBOLS,
    run_conjecture_suite,
    run_extremal_suite,
    run_identity_suite,
    run_orbit_suite,
)

def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _load_graph(text: str, fmt: str) -> Graph:
    if fmt == "graph6":
        return from_graph6(text)
    return parse_edge_list(text)


def cmd_poly(args: argparse.Namespace) -> int:
    g = _load_graph(_read_input(args.input), args.format)
    q = interlace_polynomial(g)
    if args.json:
        print(json.dumps(q.to_json_dict()))
    else:
        print(q)
    return 0


def cmd_euler(args: argparse.Namespace) -> int:
    w = DoubleOccurrenceWord.parse(_read_input(args.input))
    if w.n == 0:
        raise ValueError("the word is empty: it has no symbols")
    d = digraph_from_word(w)
    if args.action == "count":
        count = euler_circuit_count_best(d)
        print(json.dumps({"euler_circuits": str(count)}) if args.json else count)
    elif args.action == "partitions":
        r = circuit_partition_polynomial(d)
        print(json.dumps(r.to_json_dict()) if args.json else r)
    elif args.action == "martin":
        m = martin_polynomial(d)
        print(json.dumps(m.to_json_dict()) if args.json else m)
    else:  # orbit
        orbit = circuit_transposition_orbit(w)
        words = sorted({str(v) for v in orbit.values()})
        if args.json:
            print(json.dumps({"euler_circuits": len(orbit), "words": words}))
        else:
            print(f"euler circuits (circuit orbit size): {len(orbit)}")
            print(f"distinct visit words: {len(words)}")
            for v in words:
                print(v)
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    n = args.n
    rows, index = en.distinct(n)
    masks = np.arange(len(index))
    if args.connected:
        masks = masks[en.component_count_table(n) <= 1]

    def poly_and_graph6(mask):
        q = IntPolynomial(tuple(map(int, rows[index[mask]])))
        return q, to_graph6(en.graph_of_mask(n, int(mask)))

    if args.distinct:
        _, first, counts = np.unique(
            index[masks], return_index=True, return_counts=True
        )
        for i in np.argsort(first):  # in order of each polynomial's first mask
            mask = masks[first[i]]
            q, g6 = poly_and_graph6(mask)
            count = int(counts[i])
            if args.json:
                print(json.dumps({"count": count, "graph6": g6, **q.to_json_dict()}))
            else:
                print(f"{count}\t{g6}\t{q}")
    else:
        for mask in masks:
            q, g6 = poly_and_graph6(mask)
            if args.json:
                print(json.dumps({"graph6": g6, **q.to_json_dict()}))
            else:
                print(f"{g6}\t{q}")
    return 0


# the verify flags that not every suite reads: each one's default and readers
_SUITE_FLAGS = {
    "words_n_max": (5, ("identities",)),
    "samples": (500, ("identities", "conjectures")),
    "seed": (20, ("identities", "conjectures")),
}


def cmd_verify(args: argparse.Namespace) -> int:
    for flag, (default, readers) in _SUITE_FLAGS.items():
        name = "--" + flag.replace("_", "-")
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif args.suite not in readers:
            raise ValueError(f"{name} has no effect on the {args.suite} suite")
    for flag in ("n_max", "words_n_max", "samples"):
        value = getattr(args, flag)
        if value < 0:
            raise ValueError(
                f"--{flag.replace('_', '-')} must be at least 0, got {value}"
            )
    if args.words_n_max > ORBIT_MAX_SYMBOLS:
        raise ValueError(
            f"--words-n-max must be at most {ORBIT_MAX_SYMBOLS}, got {args.words_n_max}"
        )
    reports = []
    if args.suite == "identities":
        reports.append(
            run_identity_suite(
                n_max=args.n_max, word_samples=args.samples, seed=args.seed
            )
        )
        reports.append(run_orbit_suite(max_symbols=args.words_n_max))
    elif args.suite == "extremal":
        reports.append(run_extremal_suite(n_max=args.n_max))
    else:
        reports.append(
            run_conjecture_suite(
                n_max=args.n_max, random_samples=args.samples, seed=args.seed
            )
        )
    failed = False
    for rep in reports:
        if args.json:
            print(json.dumps(rep.to_json_dict()))
        else:
            status = "PASS" if rep.passed else f"FAIL ({len(rep.violations)} stored)"
            print(
                f"[{status}] suite={rep.suite} n_max={rep.n_max}"
                f" checked={rep.checked} elapsed_ms={rep.elapsed_ms}"
            )
            for v in rep.violations[:10]:
                print(f"    {v['graph6']}: {v['detail']}")
            if len(rep.violations) > 10:
                print(f"    ... {len(rep.violations) - 10} more stored")
        failed |= not rep.passed
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interlacepoly",
        description="Exact interlace / circuit-partition polynomial toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="interlace polynomial of a graph")
    p.add_argument("input", help="graph file, or - for stdin")
    p.add_argument(
        "--format",
        choices=["edgelist", "graph6"],
        default="edgelist",
        help="input format (default edgelist)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("euler", help="Euler circuit analysis of a word")
    p.add_argument(
        "action", choices=["count", "partitions", "martin", "orbit"]
    )
    p.add_argument("input", help="double occurrence word file, or - for stdin")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("enumerate", help="stream labeled graphs + polynomials")
    p.add_argument("n", type=int, help="graph order")
    p.add_argument("--connected", action="store_true", help="connected graphs only")
    p.add_argument(
        "--distinct",
        action="store_true",
        help="one line per distinct polynomial, with its count",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=["identities", "extremal", "conjectures"])
    p.add_argument("--n-max", type=int, default=6, help="graph order bound")
    p.add_argument(
        "--words-n-max",
        type=int,
        help="word-symbol bound for the orbit laws (identities suite)",
    )
    p.add_argument(
        "--samples", type=int, help="random word / random graph sample count"
    )
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
