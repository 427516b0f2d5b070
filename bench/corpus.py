"""Seeded inputs for the three workloads.

``build(workload, seed, root)`` returns a corpus: a JSON-ready dict with the
input files (written by the client just before the query that reads them),
the workload parameters, and ``rounds``, a list of rounds of queries.  The
closed loop in run.py sends the rounds in order and stops at the end of the
first round that finishes after the run's seconds are up.

Every round has the same mix of query classes and the same ladder of sizes;
the seed draws the contents (tables, words, trees, exponents within a
band).  Holding the mix fixed is what keeps queries/s, the median and the
tail steady from seed to seed while the inputs still change.  Nothing here
imports ``assocf``: the program sees only the generated inputs.

Why each workload exists, and which known cost it shows:

* ``classify`` -- ``magma status`` on every fixture and on random 3-8 element
  tables.  It is the only workload that drives the ``magmas`` sweep kernel,
  the eventual five-variable-law (FVL) search and the law search.  It shows
  the budget blow-up of the eventual search: each added caret multiplies the
  tuple space by |S|, so at budget 3 a non-surjective table costs about
  0.1 s at 3 elements, 0.2 s at 4 and 0.45 s at 5 (1.8 s at 6, and 8-41 s at
  budget 4).  Non-surjective tables therefore stop at 5 elements, and the
  budget is fixed at 3 rather than the default 6, at which one table runs
  for minutes.  ``sl2_signed_basis`` still runs into the 100M-tuple guard
  (about 4 s).
* ``group`` -- F arithmetic on few, large elements: words, commutators and
  conjugates through ``f word|ab|pl|normal-member``, the PL round trip,
  powers ``x0^k``/``x1^k`` up to k = 120, whose cost grows roughly as k^4
  (0.06 s at k = 50, 1.3 s at k = 120), and the depth-3 closure of x1
  (6,505 elements) followed by the half-power test on every member.  It
  loads ``trees``, ``thompson`` and ``plmaps`` with trees of hundreds of
  leaves and never runs a magma sweep or a rewrite search.
* ``rewrite`` -- ``variety derivable``, ``variety member`` and
  ``eventually_derivable`` on many small trees (at most 12 leaves) under
  associativity and the x1 law.  Same ``trees`` layer as ``group``, but as
  many small hashed nested tuples with subtree surgery, so a tree
  representation that speeds up ``group`` can slow this one.  Most queries
  repeat a (variety, leaf count) pair, the property a per-class labelling
  cache would exploit; the share is recorded in the parameters.

Every CLI query also pays the argument parser, which ``assocf.cli.run``
rebuilds on every call (about 7 ms); on ``group`` and ``classify`` that is
most of the median query.  Two costs are deliberately not workloads: BFS
states/s inside ``derivable`` cannot be seen from outside the function until
the search reports its own diagnostics, and tier-1 wall time (about 51 s) is
test time, not user traffic.
"""

from __future__ import annotations

import functools
import json
import math
import random
from pathlib import Path

import checks

# Rounds generated per workload, about 1.5x what one 30 s run sends at the
# commit that defined the benchmark; a faster program cycles through them
# again.  classify writes one file per table, so it keeps fewer rounds.
ROUNDS = {"classify": 32, "group": 32, "rewrite": 64}
# queries_per_s is taken over the first QPS_ROUNDS rounds, a fixed set of
# queries (about 24 s of work on a 2-vCPU Intel Xeon), so a faster host or
# program does not also change the mix it is averaged over; the run goes on
# at least that far.
QPS_ROUNDS = {"classify": 13, "group": 8, "rewrite": 38}
CARET_BUDGET = 3
THREADS = 1

# --- classify -----------------------------------------------------------------


def _names(n):
    return [f"e{i}" for i in range(n)]


def _random_table(rng, n, values):
    return [[rng.choice(values) for _ in range(n)] for _ in range(n)]


def _surjective(rng, n):
    """Every element is a product; not associative, no identity."""
    while True:
        t = _random_table(rng, n, range(n))
        if len({v for row in t for v in row}) < n:
            continue
        if checks.table_is_associative(t) or checks.table_identity(t) is not None:
            continue
        return t


def _non_surjective(rng, n):
    """Image of n-1 elements, not associative, not solvable (so no identity)."""
    while True:
        t = _random_table(rng, n, rng.sample(range(n), n - 1))
        if checks.table_is_associative(t) or checks.table_is_solvable(t):
            continue
        return t


def _planted_associative(rng, n):
    """A relabelled cyclic group, left-zero band or max-semilattice."""
    perm = list(range(n))
    rng.shuffle(perm)
    inv = {v: i for i, v in enumerate(perm)}
    kind = rng.randrange(3)
    if kind == 0:
        return [[inv[(perm[a] + perm[b]) % n] for b in range(n)] for a in range(n)]
    if kind == 1:
        return [[a for _ in range(n)] for a in range(n)]
    return [[inv[max(perm[a], perm[b])] for b in range(n)] for a in range(n)]


def _planted_identity(rng, n):
    while True:
        e = rng.randrange(n)
        t = _random_table(rng, n, range(n))
        for x in range(n):
            t[e][x] = x
            t[x][e] = x
        if not checks.table_is_associative(t):
            return t


def _planted_solvable(rng, n):
    """Products land in D1, and D1 x D1 lands on one zero: D2 = {zero}."""
    while True:
        d1 = rng.sample(range(n), rng.randint(2, n - 1))
        zero = d1[0]
        t = _random_table(rng, n, d1)
        for a in d1:
            for b in d1:
                t[a][b] = zero
        if not checks.table_is_associative(t) and checks.table_is_solvable(t):
            return t


def _magma_text(table):
    names = _names(len(table))
    rows = [" ".join(names[v] for v in row) for row in table]
    return "\n".join([" ".join(names)] + rows) + "\n"


def _load_magma_text(text):
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    names = lines[0]
    index = {name: i for i, name in enumerate(names)}
    return names, [[index[v] for v in row] for row in lines[1:]]


def _fixture_goldens(root):
    """fixture path -> (extra status args, expected verdict kind)."""
    out = {}
    for path in sorted((root / "tests" / "golden").glob("magma_status_*.json")):
        doc = json.loads(path.read_text())
        argv = doc["argv"]
        out[argv[2]] = (argv[3:], checks.golden_kind(doc["stdout"]))
    return out


def _status_query(qid, cls, path, names, table, extra=(), expect=None):
    return {
        "id": qid,
        "class": cls,
        "op": "cli",
        "check": "status",
        "argv": ["magma", "status", path, *extra, "--budget", str(CARET_BUDGET)],
        "elements": names,
        "table": table,
        "expect_kind": expect,
    }


# (class, generator, size ladder, expected verdict kind)
CLASSIFY_MIX = (
    ("planted-associative", _planted_associative, (3, 4, 5, 6, 7, 8), "full_f"),
    ("planted-identity", _planted_identity, (3, 4, 5, 6, 7, 8), "trivial_certified"),
    ("planted-solvable", _planted_solvable, (3, 4, 5, 6, 7, 8), "full_f"),
    ("planted-associative", _planted_associative, (8, 7, 6, 5, 4, 3), "full_f"),
    ("planted-identity", _planted_identity, (8, 7, 6, 5, 4, 3), "trivial_certified"),
    ("planted-solvable", _planted_solvable, (8, 7, 6, 5, 4, 3), "full_f"),
    ("surjective", _surjective, (3,), None),
    ("surjective", _surjective, (4,), None),
    ("surjective", _surjective, (5, 6, 7, 8), None),
    ("surjective", _surjective, (7, 8, 5, 6), None),
    ("non-surjective", _non_surjective, (3,), None),
    ("non-surjective", _non_surjective, (4,), None),
    ("non-surjective", _non_surjective, (5,), None),
    ("non-surjective", _non_surjective, (5,), None),
)


def _classify(rng, root):
    files, rounds = {}, []
    fixtures = []
    goldens = _fixture_goldens(root)
    for path in sorted((root / "fixtures").glob("*.magma")):
        rel = path.relative_to(root).as_posix()
        names, table = _load_magma_text(path.read_text())
        extra, expect = goldens.get(rel, ((), None))
        fixtures.append(
            _status_query(f"fixture/{path.stem}", "fixture", rel, names, table, extra, expect)
        )
    for r in range(ROUNDS["classify"]):
        queries = list(fixtures) if r == 0 else []
        for k, (cls, make, sizes, expect) in enumerate(CLASSIFY_MIX):
            n = sizes[r % len(sizes)]
            table = make(rng, n)
            name = f"t{r:02d}_{k:02d}.magma"
            files[name] = _magma_text(table)
            query = _status_query(f"r{r}/{k}", cls, "{work}/" + name, _names(n), table, (), expect)
            query["file"] = name
            queries.append(query)
        rounds.append(queries)
    params = {"caret_budget": CARET_BUDGET, "fixtures": len(fixtures)}
    return files, rounds, params


# --- group --------------------------------------------------------------------

LETTERS = ("x0", "x1", "x2")


def _word(rng, length):
    parts = []
    for _ in range(length):
        gen = ("gen", rng.choice(LETTERS))
        parts.append(gen if rng.random() < 0.5 else ("pow", gen, -1))
    return ("mul", parts)


def word_text(expr):
    """Print a word AST in the CLI's grammar ('^' binds tighter than '*')."""
    tag = expr[0]
    if tag == "gen":
        return expr[1]
    if tag == "pow":
        base = expr[1]
        inner = word_text(base) if base[0] == "gen" else f"({word_text(base)})"
        return f"{inner}^{expr[2]}"
    if tag == "mul":
        return " * ".join(
            f"({word_text(p)})" if p[0] == "mul" else word_text(p) for p in expr[1]
        )
    if tag == "comm":
        return f"[{word_text(expr[1])},{word_text(expr[2])}]"
    return f"({word_text(expr[1])})^({word_text(expr[2])})"


def _f_query(qid, cls, action, expr, spec=None):
    argv = ["f", action, word_text(expr)]
    if spec is not None:
        argv += [str(spec[0]), str(spec[1])]
    return {
        "id": qid,
        "class": cls,
        "op": "cli",
        "check": "f",
        "action": action,
        "argv": argv,
        "expr": expr,
        "spec": spec,
    }


# Word lengths by band; the four CLI actions rotate over the bands by round.
WORD_BANDS = ((5, 12), (13, 22), (23, 32), (33, 40))
ACTIONS = ("word", "ab", "pl", "normal-member")
SMALL_POWER = (10, 60)
LARGE_POWER = (105, 120)


def _group(rng, root):
    rounds = []
    for r in range(ROUNDS["group"]):
        queries = []
        if r == 0:
            queries.append(
                {
                    "id": "closure",
                    "class": "closure",
                    "op": "cli",
                    "check": "closure",
                    "argv": ["variety", "closure", "fixtures/x1_law.variety", "3"],
                }
            )
            queries.append({"id": "halfpowers", "class": "halfpower", "op": "halfpower"})
        for k, (lo, hi) in enumerate(WORD_BANDS):
            action = ACTIONS[(r + k) % len(ACTIONS)]
            spec = (rng.randint(0, 3), rng.randint(0, 3)) if action == "normal-member" else None
            expr = _word(rng, rng.randint(lo, hi))
            queries.append(_f_query(f"r{r}/w{k}", f"word-{lo}-{hi}", action, expr, spec))
        # two commutators and two conjugates a round put the median query
        # inside the cluster of short words rather than on the gap above it,
        # where it flipped between 7 and 8.3 ms from seed to seed
        for j in range(2):
            a, b = _word(rng, rng.randint(3, 8)), _word(rng, rng.randint(3, 8))
            queries.append(_f_query(f"r{r}/comm{j}", "commutator", "word", ("comm", a, b)))
            a, b = _word(rng, rng.randint(3, 8)), _word(rng, rng.randint(3, 8))
            queries.append(_f_query(f"r{r}/conj{j}", "conjugate", "word", ("conj", a, b)))
        expr = _word(rng, rng.randint(5, 40))
        queries.append(
            {"id": f"r{r}/roundtrip", "class": "pl-round-trip", "op": "roundtrip",
             "word": word_text(expr), "expr": expr}
        )
        # exponents walk their band in a fixed stride so every run holds the
        # same spread of sizes; the seed moves each one by at most 1.  Two
        # large powers a round keep the tail inside their block.
        span = SMALL_POWER[1] - SMALL_POWER[0]
        k_small = SMALL_POWER[0] + (r * 13) % span + rng.randint(0, 1)
        expr = ("pow", ("gen", rng.choice(("x0", "x1"))), k_small)
        queries.append(_f_query(f"r{r}/pow-small", "power-small", "word", expr))
        span = LARGE_POWER[1] - LARGE_POWER[0]
        for gen, offset in (("x0", 0), ("x1", span // 2)):
            k = LARGE_POWER[0] + (r * 7 + offset) % span + rng.randint(0, 1)
            expr = ("pow", ("gen", gen), k)
            queries.append(_f_query(f"r{r}/pow-{gen}", "power-large", "word", expr))
        rounds.append(queries)
    params = {"small_powers": list(SMALL_POWER), "large_powers": list(LARGE_POWER),
              "closure_depth": 3}
    return {}, rounds, params


# --- rewrite --------------------------------------------------------------------

VARIETY_FILES = {"assoc": "fixtures/associativity.variety", "x1": "fixtures/x1_law.variety"}
R1 = "((. .) (. (. .)))"
R2 = "((. (. .)) (. .))"
# closure seeds sigma_{1^j}(x1) = x_{j+1}, written as words
SEEDS = (("gen", "x1"), ("gen", "x2"),
         ("conj", ("gen", "x1"), ("pow", ("gen", "x0"), 2)),
         ("conj", ("gen", "x1"), ("pow", ("gen", "x0"), 3)))


def _random_tree(rng, n):
    if n == 1:
        return checks.LEAF
    k = rng.randint(1, n - 1)
    return (_random_tree(rng, k), _random_tree(rng, n - k))


def _rewrites(t, laws):
    """Every tree one law application away from t."""
    out = []
    for lhs, rhs in laws:
        for src, dst in ((lhs, rhs), (rhs, lhs)):
            captured = []
            if checks.match(src, t, captured):
                out.append(checks.instantiate(dst, captured))
    if t != checks.LEAF:
        out += [(s, t[1]) for s in _rewrites(t[0], laws)]
        out += [(t[0], s) for s in _rewrites(t[1], laws)]
    return out


def _walk(rng, t, laws, steps):
    """A tree `steps` random law applications away from t, never t itself."""
    while True:
        q = t
        for _ in range(steps):
            q = rng.choice(_rewrites(q, laws))
        if q != t:
            return q


def _with_signature(rng, sig):
    """A random tree whose left arm carries right subtrees of sizes sig."""
    t = checks.LEAF
    for k in reversed(sig):
        t = (t, _random_tree(rng, k))
    return t


def _derivable_query(qid, cls, variety, p, q):
    return {
        "id": qid,
        "class": cls,
        "op": "cli",
        "check": "derivable",
        "variety": variety,
        "lhs": checks.format_tree(p),
        "rhs": checks.format_tree(q),
        "argv": ["variety", "derivable", VARIETY_FILES[variety],
                 checks.format_tree(p), checks.format_tree(q)],
        "key": [variety, checks.leaves(p)],
    }


def _eventual_query(qid, cls, p, q):
    return {
        "id": qid,
        "class": cls,
        "op": "eventual",
        "lhs": p,
        "rhs": q,
        "budget": CARET_BUDGET,
        "key": ["x1", checks.leaves(checks.parse_tree(p))],
    }


def _member_query(qid, cls, expr):
    src, _ = checks.map_to_pair(checks.word_map(expr))
    return {
        "id": qid,
        "class": cls,
        "op": "cli",
        "check": "member",
        "argv": ["variety", "member", VARIETY_FILES["x1"], word_text(expr),
                 "--budget", str(CARET_BUDGET)],
        "expr": expr,
        "key": ["x1", checks.leaves(src)],
    }


@functools.lru_cache(maxsize=4096)
def _x1_search_work(p):
    """Trees a failing eventual x1 search from p visits: the x1 class of
    every expansion of p within the caret budget, each class a product of
    Catalan numbers over the tree's signature (see checks.py)."""
    total = 0
    for a, _ in checks.simultaneous_expansions(p, p, CARET_BUDGET):
        size = 1
        for k in checks.x1_signature(a):
            size *= math.comb(2 * k - 2, k - 1) // k
        total += size
    return total


# Failing eventual searches are kept to this band of visited trees (r1/r2
# visits 1800), so no single query dwarfs the rest of its class: one
# unchecked 6-leaf element can take 20 s.
EVENTUAL_WORK = (1200, 2500)


def _in_band(p):
    return EVENTUAL_WORK[0] <= _x1_search_work(p) <= EVENTUAL_WORK[1]


def _halfpower_failure(rng):
    """A short word whose element moves some 1/2^n off the half-powers."""
    while True:
        expr = _word(rng, rng.randint(1, 3))
        f = checks.word_map(expr)
        if not checks.stabilizes_halfpowers(f) and _in_band(checks.map_to_pair(f)[0]):
            return expr


def _rewrite(rng, root):
    assoc, x1 = checks.VARIETY_LAWS["assoc"], checks.VARIETY_LAWS["x1"]
    rounds = []
    for r in range(ROUNDS["rewrite"]):
        queries = []
        for k, n in enumerate((6, 8, 10)):
            n += r % 2
            p = _random_tree(rng, n)
            queries.append(_derivable_query(f"r{r}/assoc{k}", "assoc-positive", "assoc",
                                            p, _walk(rng, p, assoc, 3)))
        for k, n in enumerate((8, 10, 12)):
            n -= r % 2
            p = _random_tree(rng, n)
            while not _rewrites(p, x1):  # an x1 class of one tree
                p = _random_tree(rng, n)
            queries.append(_derivable_query(f"r{r}/x1pos{k}", "x1-positive", "x1",
                                            p, _walk(rng, p, x1, 3)))
        # the class of p has C(8) = 1430 trees: one right subtree of 9 leaves
        sig = [9] + [1] * (r % 3)
        rng.shuffle(sig)
        p = _with_signature(rng, sig)
        n = checks.leaves(p)
        q = _random_tree(rng, n)
        while checks.x1_signature(q) == tuple(sig):
            q = _random_tree(rng, n)
        queries.append(_derivable_query(f"r{r}/x1neg", "x1-negative", "x1", p, q))
        queries.append(_eventual_query(f"r{r}/r1r2", "eventual-r1r2", R1, R2))
        n = 5 + r % 2
        while True:
            p, q = _random_tree(rng, n), _random_tree(rng, n)
            if checks.x1_signature(p) != checks.x1_signature(q) and _in_band(p):
                break
        queries.append(_eventual_query(f"r{r}/pair", "eventual-pair",
                                       checks.format_tree(p), checks.format_tree(q)))
        parts = [rng.choice(SEEDS) for _ in range(rng.randint(1, 3))]
        parts = [s if rng.random() < 0.5 else ("pow", s, -1) for s in parts]
        queries.append(_member_query(f"r{r}/member-in", "member-closure", ("mul", parts)))
        queries.append(_member_query(f"r{r}/member-out", "member-halfpower-failure",
                                     _halfpower_failure(rng)))
        rounds.append(queries)
    return {}, rounds, {"caret_budget": CARET_BUDGET, "max_leaves": 12}


BUILDERS = {"classify": _classify, "group": _group, "rewrite": _rewrite}


def build(workload, seed, root):
    rng = random.Random(f"{workload}:{seed}")
    _x1_search_work.cache_clear()  # every set-up pays for its whole corpus
    files, rounds, params = BUILDERS[workload](rng, Path(root))
    params.update(
        {"seed": seed, "rounds": len(rounds), "qps_rounds": QPS_ROUNDS[workload],
         "threads": THREADS, "queries": sum(len(r) for r in rounds)}
    )
    return {"workload": workload, "params": params, "files": files, "rounds": rounds}


def repeated_share(queries):
    """Share of queries whose (variety, leaf count) pair came earlier."""
    seen, repeats, keyed = set(), 0, 0
    for q in queries:
        key = q.get("key")
        if key is None:
            continue
        keyed += 1
        repeats += tuple(key) in seen
        seen.add(tuple(key))
    return repeats / keyed if keyed else 0.0
