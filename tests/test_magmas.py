"""Finite operation tables: law checking against brute-force oracles."""

import contextlib
import itertools
import math
import pathlib
import random
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    expand_both,
    one_sided_identities,
    random_magma,
    random_tree,
    right_comb,
)

from assocf import magmas, rewriting, trees, zoo
from assocf.errors import BudgetExceeded, ParseError
from assocf.magmas import (
    Law,
    Magma,
    assoc_status,
    associative_law,
    centralizer,
    derived_chain,
    dump_magma,
    evaluate,
    five_variable_law,
    format_law,
    is_solvable,
    load_magma,
    parse_law,
    restricted_image,
    satisfies,
    satisfies_eventually,
    search_laws,
)

# three-element tables exercising both commutator-certificate branches,
# found by exhaustive search over all 3^9 tables
FVL_DIRECT = Magma(("p", "q", "r"), np.array([0, 0, 0, 0, 2, 1, 0, 2, 1]).reshape(3, 3))
FVL_EVENTUAL = Magma(("p", "q", "r"), np.array([0, 0, 0, 0, 0, 0, 2, 0, 2]).reshape(3, 3))

X1_LAW = parse_law("(. ((. .) .)) = (. (. (. .)))")

magma_strategy = st.tuples(st.integers(2, 4), st.integers(0, 2**31)).map(
    lambda p: random_magma(p[1], p[0])
)


def law_strategy(max_arity):
    def build(draw_tuple):
        arity, i, j = draw_tuple
        shapes = trees.enumerate_trees(arity)
        return Law(shapes[i % len(shapes)], shapes[j % len(shapes)])

    return st.tuples(
        st.integers(2, max_arity), st.integers(0, 100), st.integers(0, 100)
    ).map(build)


def oracle_evaluate(m, t, args):
    """Independent recursive evaluation via the public op() lookup."""
    stack = iter(args)

    def walk(node):
        if trees.is_leaf(node):
            return next(stack)
        return m.op(walk(node[0]), walk(node[1]))

    return walk(t)


def oracle_first_counterexample(m, law):
    for combo in itertools.product(m.elements, repeat=law.arity):
        lhs = oracle_evaluate(m, law.lhs, combo)
        rhs = oracle_evaluate(m, law.rhs, combo)
        if lhs != rhs:
            return combo, lhs, rhs
    return None


def oracle_grid(m, t):
    """All values of the tree operation as one numpy array."""
    n = trees.leaf_count(t)
    axes = np.indices((len(m),) * n).reshape(n, -1)
    return magmas._tree_values(m.table, t, list(axes))


def reference_satisfies_eventually(m, law, budget):
    """The per-pair search the shortest path over images replaced: sweep
    every expansion-frontier pair within the budget in full, in frontier
    order, and return the first witness, or None."""
    frontier = rewriting.expansion_frontier(law.lhs, law.rhs, budget)
    for _, lhs, rhs, applied in frontier:
        if satisfies(m, Law(lhs, rhs)).holds:
            return trees.ExpansionWord.from_applied(applied)
    return None


def reference_search_laws(m, n):
    """The pairwise search the partition refinement replaced: every pair of
    distinct n-leaf trees in (i, j) order, each swept in full."""
    shapes = trees.enumerate_trees(n)
    return tuple(
        Law(shapes[i], shapes[j])
        for i in range(len(shapes))
        for j in range(i + 1, len(shapes))
        if satisfies(m, Law(shapes[i], shapes[j])).holds
    )


def small_tables(max_size):
    """Random tables of 2..max_size elements whose entries are drawn from
    the first k elements, so k < |S| gives non-surjective tables and small k
    gives tables with many laws."""

    def build(p):
        size, k, seed = p
        values = np.random.default_rng(seed).integers(0, min(k, size), (size, size))
        return Magma(tuple(f"g{i}" for i in range(size)), values)

    return st.tuples(
        st.integers(2, max_size), st.integers(1, max_size), st.integers(0, 2**31)
    ).map(build)


# --- construction and serialization ------------------------------------------------


def test_magma_validation():
    with pytest.raises(ValueError):
        Magma(("a", "a"), [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        Magma((), np.zeros((0, 0), dtype=int))
    with pytest.raises(ValueError):
        Magma(("a", "b"), [[0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        Magma(("a", "b"), [[0, 2], [0, 0]])
    with pytest.raises(ValueError):
        Magma(("a", "b"), [[0.5, 0], [0, 0]])


def test_from_rows_and_op():
    m = Magma.from_rows(("e", "g"), (("e", "g"), ("g", "e")))
    assert m.op("g", "g") == "e"
    assert m.op("e", "g") == "g"
    with pytest.raises(ValueError):
        m.op("h", "g")
    assert m.index("g") == 1


def test_table_is_read_only():
    m = Magma.from_rows(("e", "g"), (("e", "g"), ("g", "e")))
    with pytest.raises(ValueError):
        m.table[0, 0] = 1


@given(magma_strategy)
def test_dump_load_round_trip(m):
    assert load_magma(dump_magma(m)) == m


def test_load_magma_accepts_comments_and_blanks():
    text = "# a group\n\ne g  # names\ne g\ng e\n"
    m = load_magma(text)
    assert m.elements == ("e", "g")


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("a a\na a\na a", 1),
        ("a b\na b b\nb a", 2),
        ("a b\na c\nb a", 2),
        ("a b\na b\nb a\na b", 4),
        ("a b\na b", 2),
    ],
)
def test_load_magma_errors_carry_line_numbers(text, lineno):
    try:
        load_magma(text)
    except ParseError as err:
        assert err.location == lineno
    else:
        pytest.fail("expected ParseError")


def test_load_magma_rejects_an_unknown_element_on_the_last_row():
    with pytest.raises(ParseError) as err:
        load_magma("a b\na b\nb c\n")
    assert str(err.value) == "unknown element 'c' (at 3)"
    assert err.value.location == 3


@pytest.mark.parametrize(
    "text,message",
    [
        ("a a\na a\na a", "duplicate element names (at 1)"),
        ("a b c\na b c\nc d e b\nb a c", "expected 3 entries per row, got 4 (at 3)"),
        ("a b\nx y\nb a", "unknown element 'x' (at 2)"),
        ("a b # c\n\n# x\na b\nb q  # z\n", "unknown element 'q' (at 5)"),
        ("a\na\na", "too many table rows (at 3)"),
        ("a b\nb a\n\n", "expected 2 table rows, got 1 (at 2)"),
        ("# nothing here\n", "empty magma file"),
    ],
)
def test_load_magma_error_messages(text, message):
    with pytest.raises(ParseError) as err:
        load_magma(text)
    assert str(err.value) == message


def test_the_readme_magma_sample_loads_as_its_fixture():
    repo = pathlib.Path(__file__).resolve().parent.parent
    readme = (repo / "README.md").read_text()
    section = readme.split("## File formats", 1)[1]
    sample = section.split("```\n", 2)[1]
    fixture = (repo / "fixtures" / "pre_sl2.magma").read_text()
    assert load_magma(sample) == load_magma(fixture)


def test_load_magma_rejects_empty():
    with pytest.raises(ParseError):
        load_magma("# nothing here\n")


# --- evaluation -----------------------------------------------------------------------


@given(magma_strategy, st.integers(1, 5), st.integers(0, 2**31))
def test_evaluate_matches_recursive_oracle(m, n, seed):
    gen = random.Random(seed)
    t = random_tree(gen, n)
    args = tuple(gen.choice(m.elements) for _ in range(n))
    assert evaluate(m, t, args) == oracle_evaluate(m, t, args)


def test_evaluate_validates_argument_count():
    m = Magma.from_rows(("a",), (("a",),))
    with pytest.raises(ValueError):
        evaluate(m, trees.parse_tree("(. .)"), ("a",))


# --- laws -----------------------------------------------------------------------------


def test_law_validation_and_round_trip():
    law = associative_law()
    assert law.arity == 3
    assert not law.is_trivial
    assert parse_law(format_law(law)) == law
    with pytest.raises(ValueError):
        Law(trees.parse_tree("(. .)"), trees.parse_tree("."))
    for bad in ("", "(. .)", "(. .) = (. .) = (. .)", "(. .) = ."):
        with pytest.raises(ParseError):
            parse_law(bad)


def test_law_expansion():
    law = associative_law()
    word = trees.ExpansionWord((2,))
    grown = expand_both(law, word)
    assert grown.arity == 4
    assert grown.lhs == trees.expand(law.lhs, 2)
    assert grown.rhs == trees.expand(law.rhs, 2)


# --- exhaustive checking vs oracle ------------------------------------------------------


@given(magma_strategy, law_strategy(4))
def test_satisfies_matches_bruteforce(m, law):
    check = satisfies(m, law)
    expected = oracle_first_counterexample(m, law)
    if expected is None:
        assert check.holds
        assert check.counterexample is None
    else:
        combo, lhs, rhs = expected
        assert not check.holds
        assert check.counterexample == combo
        assert (check.lhs_value, check.rhs_value) == (lhs, rhs)


@given(magma_strategy, law_strategy(4), st.integers(2, 9))
def test_blocked_sweep_is_invariant(m, law, block):
    baseline = satisfies(m, law)
    saved = magmas._BLOCK_ELEMENTS
    magmas._BLOCK_ELEMENTS = block
    try:
        blocked = satisfies(m, law)
    finally:
        magmas._BLOCK_ELEMENTS = saved
    assert blocked == baseline


@given(
    magma_strategy,
    law_strategy(5),
    st.integers(1, 9),
    st.integers(0, 200),
)
def test_growing_blocks_keep_the_first_counterexample(m, law, start, extra):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(magmas, "_SMALL_BLOCK", start)
        patch.setattr(magmas, "_BLOCK_ELEMENTS", start + extra)
        check = satisfies(m, law)
    expected = oracle_first_counterexample(m, law)
    assert check.counterexample == (None if expected is None else expected[0])


@given(
    st.lists(st.integers(1, 7), min_size=1, max_size=5),
    st.integers(1, 50),
    st.integers(0, 400),
)
def test_growing_blocks_tile_the_space_in_order(sizes, start, extra):
    domains = [np.arange(k) for k in sizes]
    pos = 0
    for prefix_vars, lo, hi in magmas._growing_blocks(domains, start, start + extra):
        width = math.prod(sizes[prefix_vars:])
        assert lo * width == pos and hi > lo
        assert hi <= math.prod(sizes[:prefix_vars])
        assert (hi - lo) * width <= max(start + extra, sizes[-1])
        pos = hi * width
    assert pos == math.prod(sizes)


@given(magma_strategy, law_strategy(4))
def test_satisfies_is_symmetric_in_the_sides(m, law):
    flipped = Law(law.rhs, law.lhs)
    assert satisfies(m, law).holds == satisfies(m, flipped).holds


@given(magma_strategy, st.integers(1, 5))
def test_trivial_laws_always_hold(m, n):
    t = random_tree(random.Random(n), n + 1)
    assert satisfies(m, Law(t, t)).holds


@given(magma_strategy, law_strategy(3), st.lists(st.integers(1, 4), max_size=2))
def test_held_laws_transfer_to_expansions(m, law, letters):
    # the expanded sides evaluate through the originals on a subset of S
    if satisfies(m, law).holds:
        word = trees.ExpansionWord(letters)
        assert satisfies(m, expand_both(law, word)).holds


# --- eventual satisfaction ---------------------------------------------------------------


def test_fvl_direct_fixture():
    assert satisfies(FVL_DIRECT, five_variable_law()).holds
    status = assoc_status(FVL_DIRECT)
    assert status.kind == "contains_commutator"
    assert status.reason == "fvl-on-the-nose"


def test_fvl_eventual_fixture():
    fvl = five_variable_law()
    assert not satisfies(FVL_EVENTUAL, fvl).holds
    res = satisfies_eventually(FVL_EVENTUAL, fvl)
    assert res.kind == "holds"
    assert res.witness == trees.ExpansionWord((2,))
    assert res.holds
    # the found expansion really does hold on the nose
    assert satisfies(FVL_EVENTUAL, expand_both(fvl, res.witness)).holds
    status = assoc_status(FVL_EVENTUAL)
    assert status.kind == "contains_commutator"
    assert status.reason == "fvl-at-expansion"
    assert status.evidence["expansion"] == res.witness


def test_fvl_on_the_nose_follows_the_witness_not_surjectivity():
    # every product is b or c, yet x op y depends on y alone, so both sides
    # of the law read their last variable through the same two steps: it
    # holds on the nose although the table is not simply perfect
    m = load_magma("a b c\nb c b\nb c b\nb c b\n")
    assert derived_chain(m).sizes != (len(m),)
    assert satisfies(m, five_variable_law()).holds
    assert satisfies_eventually(m, five_variable_law()).witness == trees.ExpansionWord()
    status = assoc_status(m)
    assert (status.reason, status.evidence) == ("fvl-on-the-nose", {"law": five_variable_law()})


def test_eventual_for_associativity_of_s3_commutator(builtins):
    res = satisfies_eventually(builtins["s3_commutator"], associative_law())
    assert res.kind == "holds"
    assert res.witness == trees.ExpansionWord((2,))


def test_eventual_decided_by_perfection(builtins):
    # surjective: the derived core is the whole table, so the law decides
    pre = builtins["pre_sl2"]
    assert derived_chain(pre).sizes == (len(pre),)
    res = satisfies_eventually(pre, associative_law())
    assert res.kind == "never"
    assert not res.holds
    assert res.witness is None


def test_eventual_never_on_sl2_without_a_search(builtins):
    # the five-variable law fails on sl2's derived core
    res = satisfies_eventually(builtins["sl2_signed_basis"], five_variable_law())
    assert (res.kind, res.holds, res.witness) == ("never", False, None)


# Arity <= 4 on up to 5 elements, the five-variable law on up to 3, so the
# reference sweeps at most 5^8 or 3^9 tuples a pair.
eventual_cases = st.one_of(
    st.tuples(small_tables(5), law_strategy(4)),
    st.tuples(small_tables(3), st.just(five_variable_law())),
)


def table_of(rows):
    return Magma(tuple(f"g{i}" for i in range(len(rows))), np.array(rows))


@settings(max_examples=80)
@given(eventual_cases, st.sampled_from([None, 2, 9]))
# found by enumeration: the first verdict turns on a graft whose two
# subtrees have different images, the second on the image at the last leaf
@example(
    (
        table_of([[1, 1, 0, 1], [1, 1, 1, 1], [1, 0, 0, 0], [1, 1, 2, 1]]),
        parse_law("(. (. (. .))) = (. ((. .) .))"),
    ),
    None,
)
@example(
    (
        table_of([[0, 0, 0, 1], [0, 0, 0, 1], [1, 1, 1, 0], [1, 0, 1, 0]]),
        parse_law("(. (. .)) = ((. .) .)"),
    ),
    None,
)
def test_eventual_matches_the_per_pair_reference(case, block):
    # the reference walks every expansion within 4 carets, fewest first; a
    # small block makes the image-tuple sweep loop over leading variables
    m, law = case
    saved = magmas._PARTITION_BLOCK
    magmas._PARTITION_BLOCK = block or saved
    try:
        res = satisfies_eventually(m, law)
    finally:
        magmas._PARTITION_BLOCK = saved
    witness = reference_satisfies_eventually(m, law, 4)
    assert res.holds == (res.kind == "holds") == (res.witness is not None)
    if witness is not None:
        assert res.witness == witness
    elif res.holds:
        assert len(res.witness) > 4
    if res.holds:
        assert satisfies(m, expand_both(law, res.witness)).holds


def complete_expansion(law, depth):
    """The law with the complete tree of the given depth grafted at every
    leaf of both sides."""
    graft = trees.complete_tree(depth)

    def grow(t):
        if trees.is_leaf(t):
            return graft
        return (grow(t[0]), grow(t[1]))

    return Law(grow(law.lhs), grow(law.rhs))


@settings(max_examples=150)
@given(small_tables(3), law_strategy(3))
def test_eventual_core_decision_matches_its_certificates(m, law):
    # Holds on the core: the complete trees of the chain's depth, whose
    # image is the core, are a witness, so the least one is no larger.
    # Never: no expansion within 3 carets holds.
    res = satisfies_eventually(m, law)
    reference = reference_satisfies_eventually(m, law, 3)
    if res.kind == "never":
        assert reference is None
    else:
        depth = len(derived_chain(m).subsets) - 1
        assert satisfies(m, complete_expansion(law, depth)).holds
        assert len(res.witness) <= law.arity * (2**depth - 1)
        assert reference in (None, res.witness)


@settings(max_examples=30)
@given(small_tables(4), st.integers(3, 5), st.sampled_from([5, 40]))
def test_results_do_not_depend_on_block_size(m, n, block):
    laws = search_laws(m, n)
    eventual = satisfies_eventually(m, X1_LAW)
    saved = magmas._BLOCK_ELEMENTS
    magmas._BLOCK_ELEMENTS = block
    try:
        assert search_laws(m, n) == laws
        assert satisfies_eventually(m, X1_LAW) == eventual
    finally:
        magmas._BLOCK_ELEMENTS = saved


@given(st.integers(0, 2**31), law_strategy(3))
def test_shortcut_agrees_with_direct_on_surjective_tables(seed, law):
    gen = np.random.default_rng(seed)
    size = int(gen.integers(2, 5))
    # a Latin square (shuffled cyclic shifts) is always surjective
    perm = gen.permutation(size)
    rows = [np.roll(perm, k) for k in range(size)]
    m = Magma(tuple(f"g{i}" for i in range(size)), np.array(rows)[gen.permutation(size)])
    assert derived_chain(m).sizes == (size,)
    # on a surjective table every image is S: the law decides on the nose
    res = satisfies_eventually(m, law)
    direct = satisfies(m, law)
    assert res.holds == direct.holds


# --- structure detectors ------------------------------------------------------------------


def test_identity_detectors(builtins):
    s4 = builtins["s4"]
    assert one_sided_identities(s4) == ((), ("1",))
    assert s4.two_sided_identity is None
    oct_ = builtins["octonion_units"]
    assert oct_.two_sided_identity == "e0"
    z4 = builtins["z4_addition"]
    assert z4.two_sided_identity == "0"


@given(small_tables(6), st.sets(st.integers(0, 5)), st.sets(st.integers(0, 5)))
def test_identities_match_a_per_row_oracle(m, rows, cols):
    # rows, then columns, set to the identity map; a later column can spoil
    # an earlier row
    size, table = len(m), m.table.astype(int)
    for i in rows:
        table[i % size, :] = range(size)
    for j in cols:
        table[:, j % size] = range(size)
    m = Magma(m.elements, table)
    left, right = one_sided_identities(m)
    both = set(left) & set(right)
    # e = e op f = f for two two-sided identities e and f
    assert len(both) <= 1
    assert m.two_sided_identity == (both.pop() if both else None)


def test_simply_perfect_flags(builtins):
    # a surjective operation: the derived chain stops at S
    def onto(name):
        return derived_chain(builtins[name]).sizes == (len(builtins[name]),)

    assert onto("pre_sl2")
    assert onto("s4")
    assert onto("octonion_units")
    assert onto("a5_commutator")
    assert not onto("sl2_signed_basis")
    assert not onto("s3_commutator")


def test_derived_chains(builtins):
    assert derived_chain(builtins["s3_commutator"]).sizes == (6, 3, 1)
    assert derived_chain(builtins["z4_addition"]).sizes == (4,)
    assert derived_chain(builtins["pre_sl2"]).sizes == (4,)
    assert derived_chain(builtins["a5_commutator"]).sizes == (60,)


def test_solvability_witness_verifies(builtins):
    s3c = builtins["s3_commutator"]
    witness = is_solvable(s3c)
    assert witness is not None
    assert witness.depth == 2
    assert witness.tree == trees.complete_tree(2)
    values = oracle_grid(s3c, witness.tree)
    zero_index = s3c.index(witness.zero)
    assert (values == zero_index).all()


def test_not_solvable(builtins):
    for name in ("z4_addition", "pre_sl2", "a5_commutator", "octonion_units"):
        assert is_solvable(builtins[name]) is None


def test_solvability_agrees_with_bruteforce_constant_trees(builtins):
    for name, m in builtins.items():
        if len(m) > 6:
            continue
        brute = any(
            (values == values.flat[0]).all()
            for n in range(2, 7)
            for t in trees.enumerate_trees(n)
            for values in (oracle_grid(m, t),)
        )
        assert brute == (is_solvable(m) is not None), name


# --- images and centralizers ----------------------------------------------------------------


@given(magma_strategy, st.integers(0, 2**31))
def test_restricted_image_matches_bruteforce(m, seed):
    gen = random.Random(seed)
    n = gen.randint(1, 4)
    t = random_tree(gen, n)
    fixed = {
        pos: gen.choice(m.elements)
        for pos in range(1, n + 1)
        if gen.random() < 0.5
    }
    got = restricted_image(m, t, fixed)
    expected = set()
    free = [pos for pos in range(1, n + 1) if pos not in fixed]
    for combo in itertools.product(m.elements, repeat=len(free)):
        args = [
            fixed[pos] if pos in fixed else combo[free.index(pos)]
            for pos in range(1, n + 1)
        ]
        expected.add(oracle_evaluate(m, t, args))
    assert got == expected


def test_restricted_image_validates_positions():
    m = Magma.from_rows(("a", "b"), (("a", "b"), ("b", "a")))
    with pytest.raises(ValueError):
        restricted_image(m, trees.parse_tree("(. .)"), {3: "a"})


@given(magma_strategy)
def test_centralizer_matches_bruteforce(m):
    zero = m.elements[0]
    for subset in (m.elements[:1], m.elements[:2], m.elements, ()):
        got = centralizer(m, subset, zero)
        expected = {
            x for x in m.elements if all(m.op(x, y) == zero for y in subset)
        }
        assert got == expected


def test_centralizer_of_pre_sl2_pairs(builtins):
    pre = builtins["pre_sl2"]
    nonzero = [x for x in pre.elements if x != "0"]
    for a, b in itertools.combinations(nonzero, 2):
        assert centralizer(pre, (a, b), "0") == {"0"}
    # single elements have bigger centralizers: the slice is sharp
    assert centralizer(pre, ("a",), "0") == {"0", "a"}


# --- law search --------------------------------------------------------------------------------


def same_sides(a, b):
    return {a.lhs, a.rhs} == {b.lhs, b.rhs}


def test_search_finds_associativity_in_groups(builtins):
    laws = search_laws(builtins["z4_addition"], 3)
    assert len(laws) == 1 and same_sides(laws[0], associative_law())


def test_search_finds_the_x1_law_for_s4(builtins):
    laws = search_laws(builtins["s4"], 4)
    wanted = {X1_LAW.lhs, X1_LAW.rhs}
    assert any({law.lhs, law.rhs} == wanted for law in laws)


def test_search_returns_no_trivial_or_duplicate_laws(builtins):
    laws = search_laws(builtins["s4"], 4)
    seen = set()
    for law in laws:
        assert law.lhs != law.rhs
        key = frozenset((law.lhs, law.rhs))
        assert key not in seen
        seen.add(key)


@settings(max_examples=60)
@given(small_tables(5), st.integers(3, 5))
def test_search_matches_the_pairwise_reference(m, n):
    assert search_laws(m, n) == reference_search_laws(m, n)


def test_search_tuple_space_guard(builtins, monkeypatch):
    z4 = builtins["z4_addition"]
    monkeypatch.setattr(magmas, "EVALUATION_GUARD", 10)
    with pytest.raises(BudgetExceeded):
        search_laws(z4, 3)


def test_search_guard_counts_every_tree_on_every_tuple(builtins, monkeypatch):
    # arity 3 evaluates Catalan(2) = 2 trees on each of the 4^3 tuples
    z4 = builtins["z4_addition"]
    monkeypatch.setattr(magmas, "EVALUATION_GUARD", 128)
    assert search_laws(z4, 3)
    monkeypatch.setattr(magmas, "EVALUATION_GUARD", 127)
    with pytest.raises(BudgetExceeded, match=r"^2 trees on 4\^3 tuples = 128 "):
        search_laws(z4, 3)


def test_law_guard_counts_the_laws_before_building_them(builtins, monkeypatch):
    # z4 is associative: its 5 four-leaf trees share one class, C(5, 2) laws
    z4 = builtins["z4_addition"]
    built = []
    unchecked = magmas._law  # the constructor search_laws builds its laws with
    monkeypatch.setattr(
        magmas, "_law", lambda *sides: built.append(sides) or unchecked(*sides)
    )
    monkeypatch.setattr(magmas, "LAW_GUARD", 10)
    assert len(search_laws(z4, 4)) == 10
    built.clear()
    monkeypatch.setattr(magmas, "LAW_GUARD", 9)
    with pytest.raises(BudgetExceeded, match=r"^10 laws of arity 4 exceed guard 9$"):
        search_laws(z4, 4)
    assert built == []


def test_search_laws_builds_laws_equal_to_checked_ones(builtins):
    # the search skips the leaf recount; the public constructor keeps it
    laws = search_laws(builtins["z4_addition"], 4)
    assert laws == tuple(Law(law.lhs, law.rhs) for law in laws)
    assert {law.arity for law in laws} == {4}
    with pytest.raises(ValueError, match="^law sides must have equal leaf counts$"):
        Law(laws[0].lhs, trees.LEAF)


def test_law_guard_passes_arity_9_and_stops_arity_10():
    # on an associative table every tree of an arity shares one class
    assert math.comb(1430, 2) <= magmas.LAW_GUARD < math.comb(4862, 2)


def test_default_guard_stops_arity_3_from_369_elements():
    # tables of more than 60 elements search to arity 3: 2 trees on 369^3
    # tuples pass the default 10^8 evaluations, 2 * 368^3 do not; a guard on
    # tuples alone stopped at 465 elements
    assert 2 * 368**3 <= magmas.EVALUATION_GUARD < 2 * 369**3
    big = Magma([str(i) for i in range(369)], np.zeros((369, 369), dtype=int))
    with pytest.raises(BudgetExceeded, match=r"^2 trees on 369\^3 tuples = 100486818 "):
        search_laws(big, 3)


def test_search_refines_across_many_blocks(builtins, monkeypatch):
    # s4 and z4 keep classes of several trees to the last block, pre_sl2
    # parts every tree early
    for name, n in (("s4", 4), ("z4_addition", 5), ("pre_sl2", 5)):
        m = builtins[name]
        expected = reference_search_laws(m, n)
        assert (len(expected) > 0) == (name != "pre_sl2")
        for block in (7, 64):
            monkeypatch.setattr(magmas, "_BLOCK_ELEMENTS", block)
            per_tree = block // len(trees.enumerate_trees(n))
            assert len(magmas._layout(magmas._whole(m, n), per_tree)[1]) > 1
            assert search_laws(m, n) == expected, (name, block)


def grid_laws(m, n):
    """Laws of arity n read off the oracle grids: the pairs of trees, in
    enumeration order, whose values agree on every tuple."""
    shapes = trees.enumerate_trees(n)
    grids = [oracle_grid(m, t).tobytes() for t in shapes]
    return tuple(
        Law(shapes[i], shapes[j])
        for i, j in itertools.combinations(range(len(shapes)), 2)
        if grids[i] == grids[j]
    )


def fresh(m):
    """The same table with an empty level store."""
    return Magma(m.elements, m.table)


def block_values(m, n, prefix_vars, lo, hi):
    """Every n-leaf tree's values on a _layout block, one row per tree."""
    domains = magmas._whole(m, n)
    axes = magmas._block_axes(domains, prefix_vars, lo, hi)
    return [magmas._tree_values(m.table, t, axes).ravel() for t in trees.enumerate_trees(n)]


@settings(max_examples=60)
@given(small_tables(6), st.integers(1, 6), st.integers(1, 40), st.booleans())
# 3^5 tuples in blocks of 3 * 3^2: two leading variables, so the 1-leaf
# left subtree reads its level by combo and the others slice theirs
@example(table_of([[0, 1, 2], [1, 1, 0], [2, 0, 0]]), 5, 3, False)
@example(table_of([[0, 1, 2], [1, 1, 0], [2, 0, 0]]), 5, 3, True)
def test_level_rows_are_the_tree_values(m, n, block, small):
    shapes = trees.enumerate_trees(n)
    store = fresh(m)
    for k in range(1, n + 1):
        expected = [oracle_grid(m, t).ravel() for t in trees.enumerate_trees(k)]
        assert np.array_equal(magmas._level(store, k), expected)
    # at most |S|^3 blocks, so both branches of _joined run, in few calls
    block *= len(m) ** max(0, n - 3)
    prefix_vars, starts = magmas._layout(magmas._whole(m, n), block)
    # one leaf has no split: search_laws answers n = 1 with no law
    for lo in starts if n > 1 else ():
        hi = min(lo + starts.step, starts.stop)
        # a small block joins from an empty store, a large one from a kept one
        store = fresh(m) if small else store
        got = magmas._joined(store, n, prefix_vars, range(lo, hi), small)
        assert np.array_equal(got, block_values(m, n, prefix_vars, lo, hi))
        if small:
            # a small block builds no level wider than one combo's tuples
            widest = max(level.shape[1] for level in store._levels[1:])
            assert widest <= max(len(m), len(m) ** (n - prefix_vars))
    store = fresh(m)
    saved = magmas._PARTITION_BLOCK
    magmas._PARTITION_BLOCK = block
    try:
        assert search_laws(store, n) == grid_laws(m, n)
    finally:
        magmas._PARTITION_BLOCK = saved
    if n > 1:
        # the levels a search keeps hold at most 1/|S| of its evaluations
        kept = sum(level.size for level in store._levels[1:])
        assert kept * len(m) <= len(shapes) * len(m) ** n


@settings(max_examples=60)
@given(small_tables(6), st.integers(1, 6), st.integers(5, 12))
# 3^5 tuples: two small blocks of 9, then blocks of 3^4 on one variable
@example(table_of([[0, 1, 2], [1, 1, 0], [2, 0, 0]]), 5, 9)
def test_a_search_reads_the_tree_values_on_every_block(m, n, small):
    # small blocks so that both passes of the partition span many blocks;
    # every block the search reads, from either pass, is checked
    joined = magmas._joined
    served = []

    def spy(store, k, prefix_vars, combos, small):
        rows = joined(store, k, prefix_vars, combos, small)
        if k == n:
            served.append(small)
            expected = block_values(m, n, prefix_vars, combos.start, combos.stop)
            assert np.array_equal(rows, expected)
        return rows

    with small_blocks(small), pytest.MonkeyPatch.context() as patch:
        patch.setattr(magmas, "_joined", spy)
        assert search_laws(fresh(m), n) == grid_laws(m, n)
    assert (n <= 2) == (not served)


@settings(max_examples=30)
@given(small_tables(4))
def test_searches_on_one_table_share_its_levels(m):
    # assoc_status searches arities 4 to 6 on tables of up to 4 elements
    shared = fresh(m)
    for n in (4, 5, 6):
        laws = search_laws(shared, n)
        assert laws == search_laws(fresh(m), n) == grid_laws(m, n)
    # levels 1 to 5, each built once: a second round keeps the same arrays
    built = list(shared._levels)
    assert len(built) == 6
    for n in (4, 5, 6):
        search_laws(shared, n)
    assert len(shared._levels) == 6
    assert all(a is b for a, b in zip(built, shared._levels))


def level_values_built(m, n):
    """Values of the levels below n that search_laws(m, n) builds: the whole
    levels it adds to m's store, and the columns small blocks join for
    themselves."""
    joined, built = magmas._joined, []

    def count(store, k, *block):
        rows = joined(store, k, *block)
        if k < n:
            built.append(rows.size)
        return rows

    store = m._levels
    before = sum(level.size for level in store[2:])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(magmas, "_joined", count)
        search_laws(m, n)
    return sum(built) + sum(level.size for level in store[2:]) - before


def test_a5_search_builds_a_tenth_of_level_3(builtins):
    # the arity-4 trees part in the two small blocks, which read 7,200 of
    # 60^4 tuples, so level 3 (2 trees x 60^3 values) is never built whole
    m = fresh(builtins["a5_commutator"])
    assert search_laws(m, 4) == ()
    built = level_values_built(fresh(m), 4)
    assert 0 < built <= 2 * 60**3 / 10
    assert len(m._levels) <= 3
    # a whole sweep builds every level once, after the small blocks join
    # fewer lower-level values than the top values they read, at most an
    # eighth of the space; cyclic addition holds every law
    z = zoo.cyclic_addition(20)
    whole = sum(len(trees.enumerate_trees(k)) * 20**k for k in (2, 3))
    assert whole <= level_values_built(z, 4) <= whole + 5 * 20**4 / 8
    # a second search on the table joins no level again
    assert level_values_built(z, 4) == 0


def test_top_rows_on_a_table_of_two_byte_entries():
    # 300 elements: the table is uint16 and the flat cell numbers the last
    # block reads pass 2^16
    size = 300
    table = np.random.default_rng(3).integers(0, size, (size, size))
    m = Magma([str(i) for i in range(size)], table)
    assert m.table.dtype == np.uint16
    prefix_vars, starts = magmas._layout(magmas._whole(m, 3), magmas._PARTITION_BLOCK)
    assert prefix_vars == 2
    for lo in (starts[0], starts[-1]):
        hi = min(lo + starts.step, starts.stop)
        for small in (True, False):
            got = magmas._joined(fresh(m), 3, prefix_vars, range(lo, hi), small)
            assert np.array_equal(got, block_values(m, 3, prefix_vars, lo, hi))


def test_core_check_parts_a_power_of_two_product_in_a_few_blocks(builtins, monkeypatch):
    # pre_sl2 x Z_16: 64 elements, core = S, and the five-variable law fails
    # on few tuples; a bit-reversed block order read 4,163 of 16,384 blocks
    pre = builtins["pre_sl2"]
    cyclic = np.add.outer(np.arange(16), np.arange(16)) % 16
    table = np.add.outer(pre.table.astype(int) * 16, cyclic).transpose(0, 2, 1, 3)
    m = Magma([f"{x}{i}" for x in pre.elements for i in range(16)], table.reshape(64, 64))
    read = []
    block_axes = magmas._block_axes
    monkeypatch.setattr(
        magmas, "_block_axes", lambda *block: read.append(block) or block_axes(*block)
    )
    assert satisfies_eventually(m, five_variable_law()).kind == "never"
    assert 1 <= len(read) <= 8


@contextlib.contextmanager
def small_blocks(small):
    """Blocks of `small` and 16 * `small` tuples, the ratio of the module's
    own constants, so that both passes of a partition span many blocks."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(magmas, "_SMALL_BLOCK", small)
        patch.setattr(magmas, "_PARTITION_BLOCK", 16 * small)
        yield


@settings(max_examples=60)
@given(
    small_tables(5),
    st.integers(2, 5),
    st.integers(0, 2**31),
    st.integers(5, 12),
)
# five variables of up to 5 elements, in blocks of up to 80 tuples after two
# of up to 5
@example(table_of([[0, 1, 0, 2, 0]] * 5), 5, 1, 5)
def test_partition_matches_grouping_by_value_vectors(m, n, seed, small):
    gen = random.Random(seed)
    shapes = [random_tree(gen, n) for _ in range(gen.randint(1, 5))]
    # a repeated tree keeps one class to the end: the sweep reads every block
    shapes.append(shapes[0])
    # each variable ranges over its own subset, as the core check's do
    domains = [
        np.array(sorted(gen.sample(range(len(m)), gen.randint(1, len(m)))), m.table.dtype)
        for _ in range(n)
    ]

    def rows(*block):
        axes = magmas._block_axes(domains, *block)
        return [magmas._tree_values(m.table, t, axes).ravel() for t in shapes]

    with small_blocks(small):
        classes = magmas._partition(rows, len(shapes), domains)
    grid = list(np.ix_(*domains))
    groups = defaultdict(list)
    for i, t in enumerate(shapes):
        groups[magmas._tree_values(m.table, t, grid).tobytes()].append(i)
    expected = [g for g in groups.values() if len(g) > 1]
    assert sorted(map(list, classes)) == sorted(expected)


@settings(max_examples=40)
@given(st.integers(2, 6), st.integers(2, 5), st.integers(6, 12))
# 6^5 tuples: 108 blocks of 72, after two of the 1,296 blocks of 6
@example(6, 5, 6)
def test_a_sweep_where_every_law_holds_rereads_at_most_an_eighth(size, n, small):
    # on a cyclic group every law of equal leaf count holds, so each sweep
    # runs to the end
    m = zoo.cyclic_addition(size)
    shapes = trees.enumerate_trees(n)
    law = Law(shapes[0], shapes[-1])
    read = []
    block_axes, joined = magmas._block_axes, magmas._joined

    def count(domains, prefix_vars, lo, hi):
        read.append((hi - lo) * math.prod(len(d) for d in domains[prefix_vars:]))

    with small_blocks(small), pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            magmas,
            "_block_axes",
            lambda domains, *block: count(domains, *block) or block_axes(domains, *block),
        )
        # the search's blocks are its n-leaf rows; the lower levels it
        # joins are not tuples read
        patch.setattr(
            magmas,
            "_joined",
            lambda store, k, p, combos, small: (
                k == n and count([m.table] * n, p, combos.start, combos.stop)
            )
            or joined(store, k, p, combos, small),
        )
        sweeps = [
            lambda: satisfies(m, law),
            lambda: satisfies_eventually(m, law),
            # one tree of two leaves parts from nothing: that search stops
            *([lambda: search_laws(m, n)] if n > 2 else []),
        ]
        totals = []
        for sweep in sweeps:
            read.clear()
            sweep()
            totals.append(sum(read))
    # a counterexample sweep reads each tuple once, a partition at most 1/8
    # of them twice
    assert totals[0] == size**n
    assert all(size**n <= total <= size**n * 9 / 8 for total in totals)


@given(st.integers(1, 5000))
def test_spread_order_visits_every_block_once(count):
    order = list(magmas._spread(count))
    assert sorted(order) == list(range(count))
    assert order[0] == 0


# --- the classifier -----------------------------------------------------------------------------


def test_status_of_the_associative_group(builtins):
    status = assoc_status(builtins["z4_addition"])
    assert status.kind == "full_f"
    assert status.reason == "associative"


def test_status_of_the_solvable_magma(builtins):
    status = assoc_status(builtins["s3_commutator"])
    assert status.kind == "full_f"
    assert status.reason == "solvable"
    assert status.evidence["chain_sizes"] == (6, 3, 1)
    assert status.evidence["zero"] == "e"


def test_status_of_the_loop(builtins):
    status = assoc_status(builtins["octonion_units"])
    assert status.kind == "trivial_certified"
    assert status.reason == "identity-theorem"
    assert status.evidence["identity"] == "e0"
    # the attached counterexample is a real one
    combo = status.evidence["counterexample"]
    m = builtins["octonion_units"]
    lhs = oracle_evaluate(m, associative_law().lhs, combo)
    rhs = oracle_evaluate(m, associative_law().rhs, combo)
    assert lhs != rhs
    assert (status.evidence["lhs_value"], status.evidence["rhs_value"]) == (lhs, rhs)


def test_status_of_s4_is_unknown_with_the_x1_law(builtins):
    status = assoc_status(builtins["s4"])
    assert status.kind == "unknown"
    assert status.reason == "laws-found"
    wanted = {X1_LAW.lhs, X1_LAW.rhs}
    assert any({law.lhs, law.rhs} == wanted for law in status.evidence["laws"])


def test_status_of_pre_sl2_exhausts_the_law_search(builtins):
    status = assoc_status(builtins["pre_sl2"])
    assert status.kind == "no_law_up_to"
    assert status.evidence["arity"] == 6


def test_status_of_sl2_decides_the_fvl_exactly(builtins):
    status = assoc_status(builtins["sl2_signed_basis"])
    assert status.kind == "no_law_up_to"
    assert status.evidence == {"arity": 4}


def direct_product(a, b):
    """The table of (x, y) op (u, v) = (x op u, y op v), pairs in row-major
    order."""
    na, nb = len(a), len(b)
    names = [f"{x}.{y}" for x in a.elements for y in b.elements]
    rows, cols = a.table.astype(int), b.table.astype(int)
    table = rows[:, None, :, None] * nb + cols[None, :, None, :]
    return Magma(names, table.reshape(na * nb, na * nb))


def test_default_arity_cap_falls_with_table_size(builtins):
    # s4's arity-4 law holds on s4 x Z_k, an associative factor; the search
    # reaches arity 4 at 60 elements and stops at arity 3 past them
    s4 = builtins["s4"]
    at_60 = assoc_status(direct_product(s4, zoo.cyclic_addition(15)))
    assert (at_60.reason, at_60.evidence["searched_up_to"]) == ("laws-found", 4)
    at_64 = assoc_status(direct_product(s4, zoo.cyclic_addition(16)))
    assert (at_64.kind, at_64.evidence) == ("no_law_up_to", {"arity": 3})


def test_status_skips_the_arity_3_search_and_names_the_cap(builtins, monkeypatch):
    # the only arity-3 law is associativity, which fails before the law
    # search; the evidence reads the cap, 6 on four elements
    searched = []
    search = magmas.search_laws
    monkeypatch.setattr(
        magmas, "search_laws", lambda m, n: searched.append(n) or search(m, n)
    )
    status = assoc_status(builtins["pre_sl2"])
    assert (status.kind, status.evidence) == ("no_law_up_to", {"arity": 6})
    assert searched == [4, 5, 6]


@pytest.mark.parametrize(
    "limits,message",
    [({"eventual_carets": -1}, "caret budget must be >= 0, got -1")],
)
def test_status_checks_its_limits(builtins, limits, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        assoc_status(builtins["z4_addition"], **limits)


def test_status_takes_no_arity_cap(builtins):
    # the law-search depth is the size rule alone; `magma search` picks one
    with pytest.raises(TypeError, match="arity_cap"):
        assoc_status(builtins["pre_sl2"], arity_cap=4)


def comb_law(n):
    return Law(right_comb(n), trees.reflect(right_comb(n)))


@pytest.mark.parametrize(
    "table,check",
    [
        ("s4", satisfies),
        # s4 is onto: the eventual check partitions S^38 itself
        ("s4", satisfies_eventually),
        # the law holds on s3_commutator's one-element core, so every
        # product of images is swept, 6^38 tuples
        ("s3_commutator", satisfies_eventually),
    ],
    ids=["satisfies", "partition", "holding-tuples"],
)
def test_sweeps_past_numpys_index_type_exit_as_budget(builtins, table, check):
    message = rf"^block indices over {len(builtins[table])}\^38 tuples "
    with pytest.raises(BudgetExceeded, match=message):
        check(builtins[table], comb_law(38))


def test_witness_sweep_past_the_guard_exits_as_budget(builtins):
    # the comb law holds on s3_commutator's one-element core; its witness
    # sweep would read 6^n tuples, answered at 10 leaves and refused at 11
    s3c = builtins["s3_commutator"]
    assert satisfies_eventually(s3c, comb_law(4)).holds
    message = r"^witness sweep over 6\^11 = 362797056 tuples exceeds guard 100000000$"
    with pytest.raises(BudgetExceeded, match=message):
        satisfies_eventually(s3c, comb_law(11))


def test_witness_sweep_guard_counts_the_image_tuples(monkeypatch):
    # five tree images on four elements: the grid of image tuples is the
    # larger count, 5^3 against 4^3 tuples
    m = table_of([[2, 2, 2, 1], [0, 0, 2, 2], [2, 2, 2, 1], [2, 1, 1, 1]])
    law = associative_law()
    assert len(magmas._least_trees(m.table)) == 5
    assert satisfies_eventually(m, law).witness == trees.ExpansionWord((7, 5, 3, 1, 1))
    monkeypatch.setattr(magmas, "EVALUATION_GUARD", 4**3)
    message = r"^witness sweep over 5\^3 = 125 image tuples exceeds guard 64$"
    with pytest.raises(BudgetExceeded, match=message):
        satisfies_eventually(m, law)


def product_with_constant(m, k):
    """m x T, T of k elements where every product is the first: the laws
    and the eventual verdicts of m, on k times the elements."""
    table = (m.table.astype(int) * k)[:, None, :, None] + np.zeros((1, k, 1, k), int)
    names = [f"{x}{i}" for x in m.elements for i in range(k)]
    return Magma(names, table.reshape(len(names), len(names)))


def test_status_leaves_a_witness_past_the_guard_to_the_law_search():
    # the five-variable law holds after one caret on FVL_EVENTUAL and so on
    # its products; from 40 elements on its witness sweep passes the guard
    under = assoc_status(product_with_constant(FVL_EVENTUAL, 2))
    assert (under.reason, under.evidence["expansion"]) == (
        "fvl-at-expansion", trees.ExpansionWord((2,))
    )
    over = product_with_constant(FVL_EVENTUAL, 14)
    assert len(over) ** 5 > magmas.EVALUATION_GUARD
    status = assoc_status(over)
    assert (status.reason, status.evidence["searched_up_to"]) == ("laws-found", 4)
    assert status.evidence["laws"] == search_laws(FVL_EVENTUAL, 4)


def test_status_reports_a_witness_within_the_caret_budget():
    # FVL_EVENTUAL's least witness has one caret
    assert assoc_status(FVL_EVENTUAL, eventual_carets=1).reason == "fvl-at-expansion"
    # past the budget the witness is left to the law search
    status = assoc_status(FVL_EVENTUAL, eventual_carets=0)
    assert (status.reason, status.evidence["searched_up_to"]) == ("laws-found", 4)


@pytest.mark.parametrize("n", [0, -1])
def test_search_needs_a_positive_arity(builtins, n):
    with pytest.raises(ValueError, match=f"^search arity must be >= 1, got {n}$"):
        search_laws(builtins["z4_addition"], n)
