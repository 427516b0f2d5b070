#!/usr/bin/env python3
"""Classify every built-in example table and report wall-clock timings.

Runs the associativity-status cascade over the zoo (or a chosen subset) and
prints one line per table: size, verdict, the key evidence, and elapsed
time, at the library's default limits.  Useful for eyeballing how the cost
grows with table size.

    python scripts/classify_zoo.py
    python scripts/classify_zoo.py --only pre_sl2 --only s4
"""

import argparse
import sys
import time

from assocf import magmas, zoo


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only",
        action="append",
        choices=sorted(zoo.BUILTINS),
        metavar="NAME",
        help="restrict to this builtin (repeatable); default: all",
    )
    args = parser.parse_args(argv)
    args.only = args.only or sorted(zoo.BUILTINS)
    return args


def evidence_summary(status):
    ev = status.evidence
    if status.kind == "full_f" and status.reason == "solvable":
        return f"chain {list(ev['chain_sizes'])}, constant {ev['zero']!r}"
    if status.kind == "trivial_certified":
        return f"identity {ev['identity']!r}, counterexample {ev['counterexample']}"
    if status.kind == "contains_commutator":
        return f"expansion {ev['expansion']}" if "expansion" in ev else "on the nose"
    if status.kind == "no_law_up_to":
        return f"arity <= {ev['arity']}"
    if status.kind == "unknown":
        laws = ", ".join(magmas.format_law(law) for law in ev["laws"])
        return f"arity <= {ev['searched_up_to']}: {laws}"
    return ""


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    width = max(len(n) for n in args.only)
    for name in args.only:
        m = zoo.BUILTINS[name]()
        start = time.perf_counter()
        status = magmas.assoc_status(m)
        elapsed = time.perf_counter() - start
        print(
            f"{name:<{width}}  |S|={len(m.elements):<3} "
            f"{status.kind} ({status.reason})  [{elapsed:6.2f}s]"
        )
        summary = evidence_summary(status)
        if summary:
            print(f"{'':<{width}}  {summary}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
