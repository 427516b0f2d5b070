"""Acceptance gate: twelve numbered end-to-end criteria.

Each test prints exactly one line

    ACCEPTANCE <n> (<name>): PASS | FAIL

and then asserts, so a failing criterion is visible both in the printed
line and in the pytest outcome.  Every criterion is self-contained and
runnable standalone.
"""

import itertools
import random
import time

import numpy as np
import pytest

from conftest import one_sided_identities, random_element

from assocf import magmas, rewriting, thompson, trees, zoo
from assocf.magmas import (
    associative_law,
    derived_chain,
    evaluate,
    five_variable_law,
    parse_law,
    satisfies,
    satisfies_eventually,
    search_laws,
)
from assocf.plmaps import compose_pl, from_pl, stabilizes_halfpowers, to_pl
from assocf.rewriting import VarietyPresentation, closure_generate, derivable
from assocf.thompson import (
    abelianize,
    commutator,
    conjugate,
    generators,
    invert,
    multiply,
    normal_membership,
    reduce_pair,
    shift_endo,
    NormalSubgroupSpec,
)
from assocf.trees import complete_tree, enumerate_trees, expand, leaf_count, parse_tree

X1_LAW = parse_law("(. ((. .) .)) = (. (. (. .)))")


def report(num, name, failures, elapsed=None):
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {verdict}")
    if failures:
        detail = "\n".join(f"  - {f}" for f in failures)
        timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
        pytest.fail(f"criterion {num} ({name}) failed{timing}:\n{detail}")


def s0(g):
    return shift_endo(g, "left")


def s1(g):
    return shift_endo(g, "right")


# ---------------------------------------------------------------------------


def test_criterion_01_generator_identities():
    t0 = time.perf_counter()
    failures = []
    gens = generators()
    x0, x1, x2 = gens["x0"], gens["x1"], gens["x2"]

    if s1(x0) != x1:
        failures.append("s1(x0) != x1")
    if s1(x1) != conjugate(x1, x0):
        failures.append("s1(x1) != x1^x0")
    if s0(x0) != conjugate(multiply(x0, invert(x1)), invert(x0)):
        failures.append("s0(x0) != (x0 x1^-1)^(x0^-1)")
    if s0(x1) != conjugate(multiply(x1, invert(x2)), invert(multiply(x0, x1))):
        failures.append("s0(x1) != (x1 x2^-1)^((x0 x1)^-1)")

    rng = random.Random(101)
    samples = [x0, x1] + [random_element(rng) for _ in range(100)]
    for i, g in enumerate(samples):
        if thompson.reflect(s1(thompson.reflect(g))) != s0(g):
            failures.append(f"R.s1.R != s0 on sample {i}")
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, bound is 1s")
    report(1, "generator-identities", failures, elapsed)


def test_criterion_02_abelianization():
    t0 = time.perf_counter()
    failures = []
    gens = generators()
    if abelianize(gens["x0"]) != (1, 0):
        failures.append("ab(x0) != (1,0)")
    if abelianize(gens["x1"]) != (0, 1):
        failures.append("ab(x1) != (0,1)")

    rng = random.Random(202)
    samples = [random_element(rng) for _ in range(1000)]
    for i, g in enumerate(samples):
        m, n = abelianize(g)
        if abelianize(s0(g)) != (m, -m):
            failures.append(f"ab(s0(g)) != (m,-m) on sample {i}")
            break
        if abelianize(s1(g)) != (0, m + n):
            failures.append(f"ab(s1(g)) != (0,m+n) on sample {i}")
            break
    for i in range(0, 1000, 2):
        g, h = samples[i], samples[i + 1]
        gm, gn = abelianize(g)
        hm, hn = abelianize(h)
        if abelianize(multiply(g, h)) != (gm + hm, gn + hn):
            failures.append(f"ab not additive on pair {i}")
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f}s, bound is 5s")
    report(2, "abelianization", failures, elapsed)


def test_criterion_03_five_variable_law_element():
    failures = []
    gens = generators()
    c0 = commutator(gens["x0"], gens["x1"])
    if leaf_count(c0.source) != 5 or leaf_count(c0.target) != 5:
        failures.append(
            f"[x0,x1] has {leaf_count(c0.source)}/{leaf_count(c0.target)} "
            "leaves per side, expected 5/5"
        )
    if gens["c0"] != c0:
        failures.append("named c0 is not [x0,x1]")
    if gens["c1"] != commutator(c0, s1(c0)):
        failures.append("c1 != [c0, s1(c0)]")

    def pl_endpoint_test(g):
        f = to_pl(g)
        return f.initial_slope_log2() == 0 and f.final_slope_log2() == 0

    if not (abelianize(c0) == (0, 0) and pl_endpoint_test(c0)):
        failures.append("c0 not in F' under both membership tests")
    rng = random.Random(303)
    for i in range(1000):
        g = random_element(rng)
        if (abelianize(g) == (0, 0)) != pl_endpoint_test(g):
            failures.append(f"F' membership tests disagree on sample {i}")
            break
    report(3, "five-variable-law-element", failures)


def test_criterion_04_pl_model_consistency():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(404)
    samples = [random_element(rng) for _ in range(500)]
    for i, g in enumerate(samples):
        if from_pl(to_pl(g)) != g:
            failures.append(f"from_pl(to_pl(g)) != g on sample {i}")
            break
    for i in range(0, 500, 2):
        g, h = samples[i], samples[i + 1]
        if to_pl(multiply(g, h)) != compose_pl(to_pl(h), to_pl(g)):
            failures.append(f"to_pl does not reverse the product on pair {i}")
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f}s, bound is 10s")
    report(4, "pl-model-consistency", failures, elapsed)


def test_criterion_05_pre_sl2_laws():
    t0 = time.perf_counter()
    failures = []
    m = zoo.pre_sl2()
    for arity in range(2, 7):
        laws = search_laws(m, arity)
        if laws:
            failures.append(f"found {len(laws)} law(s) at arity {arity}")
    if derived_chain(m).sizes != (len(m),):
        failures.append("operation is not onto")
    nonzero = [x for x in m.elements if x != "0"]
    for x, y in itertools.permutations(nonzero, 2):
        found = magmas.centralizer(m, (x, y), "0")
        if found != {"0"}:
            failures.append(f"centralizer of ({x},{y}) is {sorted(found)}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.2f}s, bound is 60s")
    report(5, "pre-sl2-laws", failures, elapsed)


def cycle_type(name):
    if name == "e":
        return ()
    return tuple(sorted(part.count(",") + 1 for part in name[1:-1].split(")(")))


def test_criterion_06_a5_commutator():
    t0 = time.perf_counter()
    failures = []
    m = zoo.a5_commutator()
    for arity in range(2, 5):
        laws = search_laws(m, arity)
        if laws:
            failures.append(f"found {len(laws)} law(s) at arity {arity}")

    # Image of x -> [x, v] for a fixed v, grouped by the cycle type of v (the
    # two 5-cycle classes of A5 share one cycle type).  [x, v] = x v x^-1 v^-1,
    # so the image is class(v)·v^-1, of size |class(v)| = 60 / |C(v)|: two
    # elements give the same commutator iff they lie in one coset of C(v).
    # A5's class equation is 60 = 1 + 12 + 12 + 15 + 20, so the sizes are 12
    # for 5-cycles, 15 for double transpositions and 20 for 3-cycles.
    table = np.asarray(m.table)
    e = m.index("e")
    sizes_by_type = {}
    for j, name in enumerate(m.elements):
        if j == e:
            continue
        column = table[:, j]
        size = len(set(column))
        centralizer = int(np.count_nonzero(column == e))
        if size != 60 // centralizer:
            failures.append(
                f"image of x -> [x, {name}] has {size} elements, "
                f"but |A5| / |C({name})| = 60 / {centralizer}"
            )
        sizes_by_type.setdefault(cycle_type(name), set()).add(size)
    expected = {(5,): {12}, (2, 2): {15}, (3,): {20}}
    if sizes_by_type != expected:
        failures.append(
            "restricted-image cardinalities by cycle type are "
            f"{ {k: sorted(v) for k, v in sorted(sizes_by_type.items())} }, "
            f"expected { {k: sorted(v) for k, v in sorted(expected.items())} }"
        )
    elapsed = time.perf_counter() - t0
    if elapsed >= 600.0:
        failures.append(f"took {elapsed:.2f}s, bound is 600s")
    report(6, "a5-commutator", failures, elapsed)


def test_criterion_07_s4_example():
    failures = []
    m = zoo.s4_example()
    left_ids, right_ids = one_sided_identities(m)
    if right_ids != ("1",):
        failures.append(f"right identities are {right_ids}")
    if left_ids != ():
        failures.append(f"left identities are {left_ids}")

    left = evaluate(m, parse_tree("((. .) .)"), ("1", "1", "a"))
    right = evaluate(m, parse_tree("(. (. .))"), ("1", "1", "a"))
    if (left, right) != ("b", "c"):
        failures.append(f"counterexample (1,1,a) gives {left} vs {right}")

    x1_check = satisfies(m, X1_LAW)
    tuple_space = len(m.elements) ** X1_LAW.arity
    if not x1_check.holds or tuple_space != 256:
        failures.append(
            f"x1-law: holds={x1_check.holds} over {tuple_space} tuples"
        )
    if derived_chain(m).sizes != (len(m),):
        failures.append("operation is not onto")
    fvl = satisfies_eventually(m, five_variable_law())
    if fvl.kind != "never" or fvl.holds:
        failures.append(f"five-variable law: kind={fvl.kind} holds={fvl.holds}")

    status = magmas.assoc_status(m)
    if status.kind != "unknown":
        failures.append(f"status kind is {status.kind}")
    else:
        sides = {frozenset((trees.format_tree(l.lhs), trees.format_tree(l.rhs)))
                 for l in status.evidence["laws"]}
        x1_sides = frozenset(
            (trees.format_tree(X1_LAW.lhs), trees.format_tree(X1_LAW.rhs))
        )
        if x1_sides not in sides:
            failures.append("status does not carry the x1-law")
    report(7, "s4-example", failures)


def test_criterion_08_octonion_loop():
    t0 = time.perf_counter()
    failures = []
    m = zoo.octonion_unit_loop()
    table = np.asarray(m.table)
    full = np.arange(len(m.elements))
    latin = all(
        np.array_equal(np.sort(table[k, :]), full)
        and np.array_equal(np.sort(table[:, k]), full)
        for k in range(len(m.elements))
    )
    if not latin:
        failures.append("operation table is not a Latin square")
    if m.two_sided_identity != "e0":
        failures.append(f"two-sided identity is {m.two_sided_identity!r}")
    if m.associativity.holds:
        failures.append("table is associative")
    status = magmas.assoc_status(m)
    if (status.kind, status.reason) != ("trivial_certified", "identity-theorem"):
        failures.append(f"status is {status.kind} ({status.reason})")
    for arity in range(2, 6):
        laws = search_laws(m, arity)
        if laws:
            failures.append(f"found {len(laws)} law(s) at arity {arity}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.2f}s, bound is 60s")
    report(8, "octonion-loop", failures, elapsed)


def brute_has_constant_tree(m, max_leaves):
    """Is some tree's induced operation constant?  Direct enumeration."""
    for n in range(2, max_leaves + 1):
        for tree in enumerate_trees(n):
            tuples = itertools.product(m.elements, repeat=n)
            first = evaluate(m, tree, next(tuples))
            if all(evaluate(m, tree, args) == first for args in tuples):
                return True
    return False


def test_criterion_09_solvability():
    failures = []
    s3c = zoo.s3_commutator()
    chain = magmas.derived_chain(s3c)
    if chain.sizes != (6, 3, 1):
        failures.append(f"derived chain sizes are {chain.sizes}")
    status = magmas.assoc_status(s3c)
    if (status.kind, status.reason) != ("full_f", "solvable"):
        failures.append(f"s3 status is {status.kind} ({status.reason})")
    witness = magmas.is_solvable(s3c)
    if witness is None:
        failures.append("no solvability witness found")
    else:
        if witness.depth != 2 or witness.tree != complete_tree(2):
            failures.append(
                f"witness is depth {witness.depth} tree "
                f"{trees.format_tree(witness.tree)}, expected complete depth 2"
            )
        rng = random.Random(909)
        n = leaf_count(witness.tree)
        for _ in range(1000):
            args = tuple(rng.choice(s3c.elements) for _ in range(n))
            if evaluate(s3c, witness.tree, args) != witness.zero:
                failures.append(f"witness tree not constant at {args}")
                break

    z4 = zoo.cyclic_addition(4)
    z4_status = magmas.assoc_status(z4)
    if (z4_status.kind, z4_status.reason) != ("full_f", "associative"):
        failures.append(f"z4 status is {z4_status.kind} ({z4_status.reason})")

    for name in ("pre_sl2", "s4", "s3_commutator", "z4_addition"):
        m = zoo.BUILTINS[name]()
        if len(m.elements) > 6:
            continue
        chain_says = magmas.is_solvable(m) is not None
        brute_says = brute_has_constant_tree(m, 6)
        if chain_says != brute_says:
            failures.append(
                f"{name}: derived chain says {chain_says}, "
                f"brute-force constant-tree search says {brute_says}"
            )
    report(9, "solvability", failures)


def test_criterion_10_x1_law_suite():
    t0 = time.perf_counter()
    failures = []
    variety = VarietyPresentation((X1_LAW,))
    r1 = parse_tree("((. .) (. (. .)))")
    r2 = parse_tree("((. (. .)) (. .))")

    if derivable(r1, r2, variety) is not None:
        failures.append("r1 rewrites to r2 directly")
    # the same verdict across T_6: expand both sides at each leaf in turn
    for i in range(1, leaf_count(r1) + 1):
        if derivable(expand(r1, i), expand(r2, i), variety) is not None:
            failures.append(f"r1 rewrites to r2 after expanding leaf {i}")
    eventual = rewriting.eventually_derivable(r1, r2, variety, budget=3)
    if eventual.kind != "fails-up-to" or bool(eventual):
        failures.append(f"eventual derivability: {eventual.kind}")

    g = reduce_pair(r1, r2)
    if stabilizes_halfpowers(g):
        failures.append("the r1/r2 element stabilizes the half-powers")
    x1 = generators()["x1"]
    if not stabilizes_halfpowers(x1):
        failures.append("x1 does not stabilize the half-powers")
    members = closure_generate([x1], 3)
    bad = sum(1 for h in members if not stabilizes_halfpowers(h))
    if bad:
        failures.append(f"{bad} of {len(members)} closure members fail")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.2f}s, bound is 30s")
    report(10, "x1-law-suite", failures, elapsed)


def lattice_membership_oracle(g, spec):
    """Integer-linear membership: ab(g) = s*(m,-m) + t*(0,n) for integers
    s, t.  Eliminating coordinates: A = s*m and A + B = t*n."""
    if spec.m == 0 and spec.n == 0:
        return g == thompson.IDENTITY
    a, b = abelianize(g)
    first_ok = a == 0 if spec.m == 0 else a % spec.m == 0
    second_ok = (a + b) == 0 if spec.n == 0 else (a + b) % spec.n == 0
    return first_ok and second_ok


def test_criterion_11_normal_classification():
    failures = []
    # sanity-check the oracle itself against brute lattice enumeration
    for m, n in [(1, 1), (2, 1), (2, 3), (0, 2), (3, 0)]:
        lattice = {
            (s * m, -s * m + t * n)
            for s in range(-12, 13)
            for t in range(-12, 13)
        }
        for a in range(-6, 7):
            for b in range(-6, 7):
                expected = (a, b) in lattice
                first_ok = a == 0 if m == 0 else a % m == 0
                second_ok = (a + b) == 0 if n == 0 else (a + b) % n == 0
                if (first_ok and second_ok) != expected:
                    failures.append(
                        f"oracle disagrees with lattice at ab=({a},{b}), "
                        f"spec=({m},{n})"
                    )

    rng = random.Random(1111)
    for i in range(1000):
        g = random_element(rng, max_factors=12)
        spec = NormalSubgroupSpec(rng.randint(0, 4), rng.randint(0, 4))
        if normal_membership(g, spec) != lattice_membership_oracle(g, spec):
            failures.append(
                f"disagreement on sample {i}: ab={abelianize(g)}, "
                f"spec=({spec.m},{spec.n})"
            )
            break

    gens = generators()
    commutators = [gens["c0"], gens["c1"]] + [
        commutator(random_element(rng, 8), random_element(rng, 8))
        for _ in range(200)
    ]
    specs = [
        NormalSubgroupSpec(m, n)
        for m in range(0, 4)
        for n in range(0, 4)
        if (m, n) != (0, 0)
    ]
    for g in commutators:
        for spec in specs:
            if not normal_membership(g, spec):
                failures.append(
                    f"commutator with ab={abelianize(g)} rejected by "
                    f"spec=({spec.m},{spec.n})"
                )
                break
    x0 = gens["x0"]
    if not normal_membership(x0, NormalSubgroupSpec(1, 1)):
        failures.append("x0 not in spec(1,1)")
    if normal_membership(x0, NormalSubgroupSpec(2, 1)):
        failures.append("x0 in spec(2,1)")
    report(11, "normal-classification", failures)


def test_criterion_12_rewriting_sanity():
    failures = []
    catalan = {1: 1, 2: 1, 3: 2, 4: 5, 5: 14, 6: 42}
    variety = VarietyPresentation((associative_law(),))
    for n in range(1, 7):
        all_trees = enumerate_trees(n)
        if len(all_trees) != catalan[n]:
            failures.append(f"{len(all_trees)} trees with {n} leaves")
        base = all_trees[0]
        strays = [
            trees.format_tree(t)
            for t in all_trees
            if derivable(base, t, variety) is None
        ]
        if strays:
            failures.append(f"{len(strays)} trees at n={n} outside the class")
    report(12, "rewriting-sanity", failures)
