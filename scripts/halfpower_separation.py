#!/usr/bin/env python3
"""The two faces of the x1-law rewriting system.

Take the variety with the single law whose reduced pair is the generator
x1, and the five-leaf trees r1 = ((xx)(x(xx))) and r2 = ((x(xx))(xx)).
Rewriting never turns r1 into r2 — not directly, and not after any
simultaneous expansion within the caret budget.  The group-side explanation
is visible in the piecewise-linear model: the element <r1, r2> moves some
half-power 1/2^n off the set {1/2^k}, while x1 and everything generated
from its shifted copies stabilizes that set.

    python scripts/halfpower_separation.py
"""

import argparse
import sys
import time

from assocf import plmaps, rewriting, thompson
from assocf.magmas import parse_law
from assocf.plmaps import decimal_str, dyadic_str, first_moved_halfpower, to_pl
from assocf.trees import parse_tree

X1_LAW_TEXT = "(. ((. .) .)) = (. (. (. .)))"
R1_TEXT = "((. .) (. (. .)))"
R2_TEXT = "((. (. .)) (. .))"
# added carets for the eventual search (eventually_derivable's default) and
# the closure depth on the x1 side
BUDGET = 3
DEPTH = 3


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(
        sys.argv[1:] if argv is None else argv
    )
    variety = rewriting.VarietyPresentation((parse_law(X1_LAW_TEXT),))
    r1, r2 = parse_tree(R1_TEXT), parse_tree(R2_TEXT)

    print(f"law      {X1_LAW_TEXT}")
    print(f"r1       {R1_TEXT}")
    print(f"r2       {R2_TEXT}")

    proof = rewriting.derivable(r1, r2, variety)
    print(f"derivable(r1, r2): {'yes' if proof is not None else 'no'}")
    res = rewriting.eventually_derivable(r1, r2, variety, budget=BUDGET)
    print(
        f"eventually derivable within {BUDGET} added carets: "
        f"{'yes' if res else 'no'} ({res.pairs_checked} expansion pairs checked)"
    )

    g = thompson.reduce_pair(r1, r2)
    print(f"\n<r1, r2> as a map: {plmaps.format_pl_map(to_pl(g))}")
    moved = first_moved_halfpower(g)
    if moved is None:
        print("stabilizes the half-powers (unexpected)")
    else:
        n, image = moved
        print(
            f"moves 1/2^{n} to {dyadic_str(image)} = {decimal_str(image)} — "
            "not a half-power, so <r1, r2> fails the stabilizer test"
        )

    x1 = thompson.generators()["x1"]
    start = time.perf_counter()
    members = rewriting.closure_generate([x1], DEPTH)
    built = time.perf_counter() - start
    failing = sum(1 for h in members if not plmaps.stabilizes_halfpowers(h))
    checked = time.perf_counter() - start - built
    print(
        f"\nclosure of x1 at depth {DEPTH}: {len(members)} elements "
        f"(built in {built:.2f}s)"
    )
    print(
        f"half-power stabilizer failures: {failing} "
        f"(checked in {checked:.2f}s)"
    )
    return 0 if failing == 0 and proof is None else 1


if __name__ == "__main__":
    raise SystemExit(main())
