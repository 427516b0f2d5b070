#!/usr/bin/env python3
"""Layer benchmark of the magma sweeps, the rewrite search and the PL model
of F, written to one JSON file.

Times eleven kinds of row, each over several repeats:

* ``search_laws`` by table size and arity, on cyclic groups (associative:
  every tree stays in one class, so the whole space is swept) and on seeded
  random tables (the trees part within the first blocks), and at arity 4
  on a5_commutator, as its status searches it, from an empty level store;
* ``satisfies`` of associativity on a5_commutator, which stops at an early
  counterexample, and on the cyclic group of 60 elements, which sweeps the
  whole space;
* the five-variable-law (FVL) core check of ``satisfies_eventually`` on
  a5_commutator and on pre_sl2 x Z_16, where it answers ``never``;
* ``assocf magma status --json`` on every fixture, in process;
* the rewrite search: ``derivable`` on a 12-leaf x1 negative, whose class
  has 1,430 trees, and on a 10-leaf associativity positive, and
  ``eventually_derivable`` of r1/r2 under the x1 law at 3 carets;
* ``zoo.permutation_group`` of the symmetric group S6, closure and
  composition table;
* ``rewriting.closure_generate`` of x1 to depth 3, 6,505 elements;
* ``plmaps.stabilizes_halfpowers`` on each of those elements;
* ``thompson.power`` of x0 and of x1 to the 120th;
* ``thompson.multiply`` along a fixed list of 40-letter words over x0, x1
  and their inverses, letter by letter;
* the PL round trip ``from_pl(to_pl(g))`` on the elements of those words.

A row builds its input (tables, parsed trees and words, the x1 closure)
when it is measured, outside the timing, so a run of a few rows builds
only theirs.

Each row records its parameters, the median and min wall time, raw and
scaled to a reference host speed by bench/hostspeed.py, and a work counter:
tree evaluations (the count EVALUATION_GUARD bounds) for the law search,
but level values built (those of the trees below the top arity) for the
a5_commutator search,
tuples read for ``satisfies`` and the core check, elements for a status,
BFS states (trees put on a search's frontier) for the rewrite rows,
table entries for the group table, elements for the closure and the PL
rows, powers for the power rows and products for the multiply row.

    python scripts/bench.py --quick --out BENCH.json
    python scripts/bench.py --quick --out BENCH.json --before PARENT/src

This checkout's timings are stored under ``after``.  ``--before`` names
another checkout's assocf sources, timed under ``before`` in the same
process: the two sides take turns call by call, the first side changing
from one repeat to the next, so host drift falls on both alike.  Rows
already in ``--out`` are kept.  ``--quick`` takes 10 repeats a side
instead of 40; a row stops after 3 once it has taken 2 s a side, and its
console line names the repeats its medians are taken over.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
import pathlib
import random
import statistics
import sys

import numpy

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "bench"))

import hostspeed  # noqa: E402
from run import machine  # noqa: E402

SLOW_ROW_S = 2.0
# (kind, |S|, arity): the arity caps assoc_status uses for 4, 13 and 60
# elements, plus the next size up at arity 4
SEARCHES = (
    ("cyclic", 4, 6),
    ("cyclic", 13, 4),
    ("cyclic", 30, 4),
    ("cyclic", 60, 3),
    ("random", 4, 6),
    ("random", 13, 4),
    ("random", 60, 4),
)
# the arity of the a5_commutator search, the one its status makes
A5_ARITY = 4
X1_LAW = "(. ((. .) .)) = (. (. (. .)))"
COMB_9 = "(. (. (. (. (. (. (. (. .))))))))"
# (name, law, lhs, rhs, budget or None for derivable).  The x1 class of a
# tree is fixed by the right subtrees along its left arm, so the x1
# negative's class is the 1,430 shapes of its 9-leaf subtree, which sits at
# depth 3 as in the rewrite benchmark's widest signatures.
REWRITES = (
    ("derivable", X1_LAW,
     f"(((. {COMB_9}) .) .)", "(((((((((((. .) .) .) .) .) .) .) .) .) .) .)", None),
    ("derivable", "((. .) .) = (. (. .))",
     "((. .) (((. .) (((. .) .) (. .))) .))", "(((. (. (. .))) (((. .) .) (. .))) .)", None),
    ("eventually_derivable", X1_LAW, "((. .) (. (. .)))", "((. (. .)) (. .))", 3),
)
# the closure depth of the closure and half-power rows, as in the group
# benchmark, the power rows' exponent, and the multiply and round-trip rows'
# words
CLOSURE_DEPTH = 3
POWER = 120
WORDS, LETTERS = 20, 40


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="10 repeats a row, not 40")
    parser.add_argument("--out", default="BENCH.json", help="JSON file to update")
    parser.add_argument("--before", help="assocf sources to time against this checkout's")
    return parser.parse_args(argv)


def load(src, name):
    """The assocf package under src, imported as `name` with the modules the
    rows use, so two checkouts can be loaded side by side."""
    spec = importlib.util.spec_from_file_location(
        name, src / "assocf" / "__init__.py", submodule_search_locations=[str(src / "assocf")]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("cli", "magmas", "plmaps", "rewriting", "thompson", "trees", "zoo"):
        importlib.import_module(f"{name}.{module}")
    return package


def product(a, b, magmas):
    """The direct product a x b, element (x, y) at index x * |b| + y."""
    table = (a.table.astype(int) * len(b))[:, None, :, None] + b.table[None, :, None, :]
    names = [f"{x}.{y}" for x in a.elements for y in b.elements]
    return magmas.Magma(names, table.reshape(len(names), len(names)))


def random_table(size, magmas):
    table = numpy.random.default_rng(size).integers(0, size, (size, size))
    return magmas.Magma([str(i) for i in range(size)], table)


def tuples_read(magmas, sweep):
    """Run sweep() and count the tuples of the blocks it lays out through
    magmas._block_axes: the size of the broadcast shape of each block's leaf
    arrays, whatever arguments describe the block."""
    read = []
    block_axes = magmas._block_axes

    def counted(*block):
        axes = block_axes(*block)
        read.append(math.prod(numpy.broadcast_shapes(*(numpy.shape(a) for a in axes))))
        return axes

    magmas._block_axes = counted
    try:
        sweep()
    finally:
        magmas._block_axes = block_axes
    return sum(read)


def level_values(magmas, m, n):
    """Search m, whose level store is empty, at arity n and count the values
    of the levels below n that the search builds: the whole levels it leaves
    in m's store, and the
    columns a small block joins for itself through magmas._joined.  Sources
    with no level store build every level from 2 to n - 1 whole through
    magmas._levels."""
    built = []
    if hasattr(magmas, "_joined"):
        name, original = "_joined", magmas._joined

        def counted(store, k, *block):
            rows = original(store, k, *block)
            if k < n:
                built.append(rows.size)
            return rows

    else:
        name, original = "_levels", magmas._levels

        def counted(table, top):
            levels = original(table, top)
            built.extend(level.size for level in levels[2:])
            return levels

    setattr(magmas, name, counted)
    try:
        magmas.search_laws(m, n)
    finally:
        setattr(magmas, name, original)
    return sum(built) + sum(level.size for level in getattr(m, "_levels", ())[2:])


def bfs_states(rewriting, search):
    """Run search() and count the trees its breadth-first searches put on
    their frontiers: each frontier is a deque that starts with the search's
    source and takes every tree found after it but a target returned on."""
    states = []

    class Frontier(rewriting.deque):
        def __init__(self, trees):
            super().__init__(trees)
            states.append(len(self))

        def append(self, tree):
            states.append(1)
            super().append(tree)

    frontier = rewriting.deque
    rewriting.deque = Frontier
    try:
        search()
    finally:
        rewriting.deque = frontier
    return sum(states)


def rows(assocf):
    """(name, params, work unit, setup) for every row.  setup() builds the
    row's input when the row is measured, outside the timing, and returns
    its call; call() returns its work count."""
    magmas, cli, cyclic = assocf.magmas, assocf.cli, assocf.zoo.cyclic_addition
    fixtures = sorted((REPO / "fixtures").glob("*.magma"))

    def fixture(stem):
        return magmas.load_magma((REPO / "fixtures" / f"{stem}.magma").read_text())

    def fresh(m):
        # a copy of the table whose level store starts empty, so every
        # search call builds its levels, as a status on a loaded file does
        return magmas.Magma(m.elements, m.table)

    out = []
    for kind, size, n in SEARCHES:

        def setup(kind=kind, size=size, n=n):
            m = cyclic(size) if kind == "cyclic" else random_table(size, magmas)
            evaluations = math.comb(2 * n - 2, n - 1) // n * size**n

            def search():
                magmas.search_laws(fresh(m), n)
                return evaluations

            return search

        params = {"table": kind, "size": size, "arity": n}
        out.append(("magmas.search_laws", params, "tree evaluations", setup))

    def setup():
        a5 = fixture("a5_commutator")
        # counted in a run of its own, so no timed run pays for the counter
        built = level_values(magmas, fresh(a5), A5_ARITY)

        def search():
            magmas.search_laws(fresh(a5), A5_ARITY)
            return built

        return search

    params = {"table": "a5_commutator", "size": 60, "arity": A5_ARITY}
    out.append(("magmas.search_laws", params, "level values built", setup))
    for name, size, make in (
        ("a5_commutator", 60, lambda: fixture("a5_commutator")),
        ("cyclic", 60, lambda: cyclic(60)),
    ):

        def setup(make=make):
            m = make()
            return lambda: tuples_read(
                magmas, lambda: magmas.satisfies(m, magmas.associative_law())
            )

        params = {"table": name, "size": size, "law": "associativity"}
        out.append(("magmas.satisfies", params, "tuples read", setup))
    for name, size, make in (
        ("a5_commutator", 60, lambda: fixture("a5_commutator")),
        ("pre_sl2 x Z_16", 64, lambda: product(fixture("pre_sl2"), cyclic(16), magmas)),
    ):

        def setup(make=make):
            m, fvl = make(), magmas.five_variable_law()
            return lambda: tuples_read(magmas, lambda: magmas.satisfies_eventually(m, fvl))

        params = {"table": name, "size": size}
        out.append(("magmas.fvl_core_check", params, "tuples read", setup))
    for path in fixtures:

        def setup(path=path):
            size = len(fixture(path.stem))

            def status():
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.run(["magma", "status", str(path), "--json"])
                if code != 0:
                    raise RuntimeError(f"magma status {path.name} exited {code}")
                return size

            return status

        out.append(("e2e.magma_status", {"table": path.stem}, "elements", setup))
    rewriting, parse = assocf.rewriting, assocf.trees.parse_tree
    for verb, law, lhs, rhs, budget in REWRITES:

        def setup(verb=getattr(rewriting, verb), law=law, lhs=lhs, rhs=rhs, budget=budget):
            variety = rewriting.VarietyPresentation((magmas.parse_law(law),))
            args = (parse(lhs), parse(rhs), variety) + (() if budget is None else (budget,))
            # counted in a run of its own, so no timed run pays for the counter
            states = bfs_states(rewriting, lambda: verb(*args))

            def timed():
                verb(*args)
                return states

            return timed

        params = {"law": law, "lhs": lhs, "rhs": rhs}
        if budget is not None:
            params["budget"] = budget
        out.append((f"rewriting.{verb}", params, "BFS states", setup))
    zoo = assocf.zoo

    def setup():
        perm = zoo.Permutation
        s6 = (perm.from_cycles(6, (1, 2)), perm.from_cycles(6, (1, 2, 3, 4, 5, 6)))
        return lambda: len(zoo.permutation_group(s6)) ** 2

    out.append(("zoo.permutation_group", {"group": "S6"}, "table entries", setup))
    plmaps, thompson = assocf.plmaps, assocf.thompson

    def setup():
        x1 = thompson.generators()["x1"]
        return lambda: len(rewriting.closure_generate([x1], CLOSURE_DEPTH))

    params = {"closure": "x1", "depth": CLOSURE_DEPTH}
    out.append(("rewriting.closure_generate", params, "elements", setup))

    def setup():
        x1 = thompson.generators()["x1"]
        members = list(rewriting.closure_generate([x1], CLOSURE_DEPTH))

        def halfpower():
            for g in members:
                plmaps.stabilizes_halfpowers(g)
            return len(members)

        return halfpower

    params = {"closure": "x1", "depth": CLOSURE_DEPTH}
    out.append(("plmaps.stabilizes_halfpowers", params, "elements", setup))
    for name in ("x0", "x1"):

        def setup(name=name):
            g = thompson.generators()[name]

            def power():
                thompson.power(g, POWER)
                return 1

            return power

        out.append(("thompson.power", {"element": name, "k": POWER}, "powers", setup))

    def words():
        rng = random.Random(LETTERS)
        letters = ("x0", "x1", "x0^-1", "x1^-1")
        return [rng.choices(letters, k=LETTERS) for _ in range(WORDS)]

    def setup():
        letters = [[thompson.parse_element(a) for a in word] for word in words()]

        def products():
            for word in letters:
                g = word[0]
                for h in word[1:]:
                    g = thompson.multiply(g, h)
            return WORDS * (LETTERS - 1)

        return products

    params = {"words": WORDS, "letters": LETTERS}
    out.append(("thompson.multiply", params, "products", setup))

    def setup():
        elements = [thompson.parse_element(" * ".join(word)) for word in words()]

        def round_trip():
            for g in elements:
                plmaps.from_pl(plmaps.to_pl(g))
            return len(elements)

        return round_trip

    params = {"words": WORDS, "letters": LETTERS}
    out.append(("plmaps.round_trip", params, "elements", setup))
    return out


def measure(calls, repeats, clock):
    """Median and min of up to `repeats` timed calls a side, raw and in
    reference seconds, with the call's work count (the same on every call).

    `calls` maps each side's label to its call.  The sides take turns, and
    the side that goes first rotates from one repeat to the next.
    """
    labels = list(calls)
    raw = {label: [] for label in labels}
    scaled = {label: [] for label in labels}
    work = {}
    clock.restart()
    for turn in range(repeats):
        shift = turn % len(labels)
        for label in labels[shift:] + labels[:shift]:
            clock.start()
            work[label] = calls[label]()
            seconds, reference = clock.stop()
            raw[label].append(seconds)
            scaled[label].append(reference)
        if turn >= 2 and min(sum(times) for times in raw.values()) > SLOW_ROW_S:
            break
    return {
        label: {
            "repeats": len(raw[label]),
            "median_s": statistics.median(raw[label]),
            "min_s": min(raw[label]),
            "median_ref_s": statistics.median(scaled[label]),
            "min_ref_s": min(scaled[label]),
            "work": work[label],
        }
        for label in labels
    }


def key(name, params):
    return json.dumps([name, params], sort_keys=True)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sources = {"after": REPO / "src"}
    if args.before is not None:
        sources["before"] = pathlib.Path(args.before).resolve()
    for src in sources.values():
        if not (src / "assocf" / "__init__.py").is_file():
            print(f"error: no assocf sources under {src}")
            return 2
    side_rows = {
        label: {key(name, params): (name, params, unit, setup)
                for name, params, unit, setup in rows(load(src, f"assocf_{label}"))}
        for label, src in sources.items()
    }

    out = pathlib.Path(args.out)
    report = json.loads(out.read_text()) if out.is_file() else {"rows": []}
    report["machine"] = machine()
    table = {key(r["name"], r["params"]): r for r in report["rows"]}
    clock = hostspeed.HostClock()
    repeats = 10 if args.quick else 40
    for row_key, (name, params, unit, _) in side_rows["after"].items():
        calls = {label: found[row_key][3]() for label, found in side_rows.items() if row_key in found}
        row = table.setdefault(
            row_key,
            {"name": name, "layer": name.split(".")[0], "params": params, "unit": unit},
        )
        row.update(measure(calls, repeats, clock))
        times = ", ".join(f"{label} {row[label]['median_s'] * 1e3:.2f} ms" for label in calls)
        print(name, params, times, f"(median of {row['after']['repeats']} repeats)")
    report["rows"] = list(table.values())
    out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
