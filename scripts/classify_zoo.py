#!/usr/bin/env python3
"""Classify every built-in example table and report wall-clock timings.

Runs the associativity-status cascade over the zoo (or a chosen subset) and
prints one line per table: size, verdict, the key evidence, and elapsed
time.  Useful for eyeballing how the limits behave as table size grows.

    python scripts/classify_zoo.py
    python scripts/classify_zoo.py --only pre_sl2 --arity-cap 6
"""

import argparse
import dataclasses
import sys
import time

from assocf import magmas, zoo


@dataclasses.dataclass(frozen=True)
class RunConfig:
    names: tuple
    budget: int
    arity_cap: int | None
    threads: int

    def __post_init__(self):
        if self.threads < 1:
            raise ValueError(f"thread count must be >= 1, got {self.threads}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        help="restrict to this builtin (repeatable); default: all",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=6,
        help="largest five-variable-law witness, in added carets, to report",
    )
    parser.add_argument("--arity-cap", type=int, default=None)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    names = tuple(args.only) if args.only else tuple(sorted(zoo.BUILTINS))
    unknown = [n for n in names if n not in zoo.BUILTINS]
    if unknown:
        parser.error(f"unknown builtin(s): {', '.join(unknown)}")
    return RunConfig(names, args.budget, args.arity_cap, args.threads)


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
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
    except ValueError as err:  # malformed input exits 2, as in the CLI
        print(f"error: {err}")
        return 2
    width = max(len(n) for n in cfg.names)
    for name in cfg.names:
        m = zoo.BUILTINS[name]()
        start = time.perf_counter()
        try:
            status = magmas.assoc_status(
                m,
                eventual_carets=cfg.budget,
                arity_cap=cfg.arity_cap,
                threads=cfg.threads,
            )
        except ValueError as err:  # a malformed limit, rejected before any work
            print(f"error: {err}")
            return 2
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
