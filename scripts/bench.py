#!/usr/bin/env python3
"""Layer benchmark of the magma sweeps, written to one JSON file.

Times four kinds of row, each over several repeats:

* ``search_laws`` by table size and arity, on cyclic groups (associative:
  every tree stays in one class, so the whole space is swept) and on seeded
  random tables (the trees part within the first blocks);
* ``satisfies`` of associativity on a5_commutator, which stops at an early
  counterexample, and on the cyclic group of 60 elements, which sweeps the
  whole space;
* the five-variable-law (FVL) core check of ``satisfies_eventually`` on
  a5_commutator and on pre_sl2 x Z_16, where it answers ``never``;
* ``assocf magma status --json`` on every fixture, in process.

Each row records its parameters, the median and min wall time, raw and
scaled to a reference host speed by bench/hostspeed.py, and a work counter:
tree evaluations (the count EVALUATION_GUARD bounds) for the law search,
tuples read for ``satisfies`` and the core check, and elements for a status.

    python scripts/bench.py --quick --out BENCH.json
    python scripts/bench.py --quick --out BENCH.json --src PARENT/src --label before

A row's timings are stored under ``--label`` (default ``after``), and the
rows already in ``--out`` are kept, so measuring two checkouts in turn
gives before/after rows in one file.  ``--src`` picks the assocf sources
to measure (default: this checkout's).  ``--quick`` takes 10 repeats a row
instead of 40; a row stops after 3 once it has taken 2 s.
"""

import argparse
import contextlib
import io
import json
import math
import pathlib
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


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="10 repeats a row, not 40")
    parser.add_argument("--out", default="BENCH.json", help="JSON file to update")
    parser.add_argument("--label", default="after", help="key for this run's timings")
    parser.add_argument("--src", default=str(REPO / "src"), help="assocf sources to time")
    return parser.parse_args(argv)


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
    magmas._block_axes."""
    read = []
    block_axes = magmas._block_axes

    def counted(domains, prefix_vars, lo, hi):
        read.append((hi - lo) * math.prod(len(d) for d in domains[prefix_vars:]))
        return block_axes(domains, prefix_vars, lo, hi)

    magmas._block_axes = counted
    try:
        sweep()
    finally:
        magmas._block_axes = block_axes
    return sum(read)


def rows(assocf):
    """(name, params, work unit, call) for every row; call() returns its
    work count."""
    magmas, cli, cyclic = assocf.magmas, assocf.cli, assocf.zoo.cyclic_addition
    fixtures = sorted((REPO / "fixtures").glob("*.magma"))
    load = {p.stem: magmas.load_magma(p.read_text()) for p in fixtures}
    out = []
    for kind, size, n in SEARCHES:
        m = cyclic(size) if kind == "cyclic" else random_table(size, magmas)
        evaluations = math.comb(2 * n - 2, n - 1) // n * size**n

        def search(m=m, n=n, evaluations=evaluations):
            magmas.search_laws(m, n)
            return evaluations

        params = {"table": kind, "size": size, "arity": n}
        out.append(("magmas.search_laws", params, "tree evaluations", search))
    for name, m in (("a5_commutator", load["a5_commutator"]), ("cyclic", cyclic(60))):

        def check(m=m):
            return tuples_read(magmas, lambda: magmas.satisfies(m, magmas.associative_law()))

        params = {"table": name, "size": len(m), "law": "associativity"}
        out.append(("magmas.satisfies", params, "tuples read", check))
    z16 = cyclic(16)
    for name, m in (
        ("a5_commutator", load["a5_commutator"]),
        ("pre_sl2 x Z_16", product(load["pre_sl2"], z16, magmas)),
    ):

        def core_check(m=m):
            fvl = magmas.five_variable_law()
            return tuples_read(magmas, lambda: magmas.satisfies_eventually(m, fvl))

        params = {"table": name, "size": len(m)}
        out.append(("magmas.fvl_core_check", params, "tuples read", core_check))
    for path in fixtures:

        def status(path=path, size=len(load[path.stem])):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run(["magma", "status", str(path), "--json"])
            if code != 0:
                raise RuntimeError(f"magma status {path.name} exited {code}")
            return size

        out.append(("e2e.magma_status", {"table": path.stem}, "elements", status))
    return out


def measure(call, repeats, clock):
    """Median and min of up to `repeats` timed calls, raw and in reference
    seconds, with the call's work count (the same on every call)."""
    raw, scaled = [], []
    clock.restart()
    while len(raw) < repeats:
        clock.start()
        work = call()
        seconds, reference = clock.stop()
        raw.append(seconds)
        scaled.append(reference)
        if len(raw) >= 3 and sum(raw) > SLOW_ROW_S:
            break
    return {
        "repeats": len(raw),
        "median_s": statistics.median(raw),
        "min_s": min(raw),
        "median_ref_s": statistics.median(scaled),
        "min_ref_s": min(scaled),
        "work": work,
    }


def key(name, params):
    return json.dumps([name, params], sort_keys=True)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = pathlib.Path(args.src).resolve()
    if not (src / "assocf" / "__init__.py").is_file():
        print(f"error: no assocf sources under {src}")
        return 2
    sys.path.insert(0, str(src))
    import assocf.cli
    import assocf.magmas
    import assocf.zoo

    out = pathlib.Path(args.out)
    report = json.loads(out.read_text()) if out.is_file() else {"rows": []}
    report["machine"] = machine()
    table = {key(r["name"], r["params"]): r for r in report["rows"]}
    clock = hostspeed.HostClock()
    repeats = 10 if args.quick else 40
    for name, params, unit, call in rows(assocf):
        row = table.setdefault(
            key(name, params),
            {"name": name, "layer": name.split(".")[0], "params": params, "unit": unit},
        )
        row[args.label] = measure(call, repeats, clock)
        print(name, params, f"{row[args.label]['median_s'] * 1e3:.2f} ms")
    report["rows"] = list(table.values())
    out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
