"""Law rewriting, derivability classes, and shift-closed subgroups."""

import itertools
import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nodes, random_tree, right_comb, support_interval

from assocf import rewriting, thompson as th, trees, zoo
from assocf.errors import BudgetExceeded, ParseError
from assocf.magmas import (
    Law,
    associative_law,
    evaluate,
    format_law,
    parse_law,
)
from assocf.plmaps import compose_pl, from_pl, to_pl
from assocf.rewriting import (
    LEAF_CAP,
    RewriteStep,
    VarietyPresentation,
    apply_step,
    closure_generate,
    derivable,
    eventually_derivable,
    expansion_frontier,
    format_proof,
    instantiate,
    load_variety,
    membership_semidecide,
    shift_at_vertex,
)

GENS = th.generators()
X1_LAW = parse_law("(. ((. .) .)) = (. (. (. .)))")
X1_VARIETY = VarietyPresentation((X1_LAW,))
ASSOC = VarietyPresentation((associative_law(),))
R1 = trees.parse_tree("((. .) (. (. .)))")
R2 = trees.parse_tree("((. (. .)) (. .))")

tree_strategy = st.integers(1, 6).flatmap(
    lambda n: st.integers(0, 2**31).map(
        lambda s: random_tree(random.Random(s), n)
    )
)


# --- presentations -------------------------------------------------------------


def test_presentation_validates_laws():
    with pytest.raises(TypeError):
        VarietyPresentation(("not a law",))
    assert len(X1_VARIETY.laws) == 1


def test_presentation_from_elements():
    v = VarietyPresentation.from_elements([GENS["x1"]])
    assert v.laws == (Law(GENS["x1"].source, GENS["x1"].target),)


def test_variety_file_round_trip():
    text = "".join(format_law(law) + "\n" for law in X1_VARIETY.laws)
    assert load_variety(text).laws == X1_VARIETY.laws
    commented = "# generator\n\n" + text
    assert load_variety(commented).laws == X1_VARIETY.laws


def test_load_variety_errors_carry_line_numbers():
    try:
        load_variety("((. .) .) = (. (. .))\n(. .) = bad\n")
    except ParseError as err:
        assert err.location == 2
    else:
        pytest.fail("expected ParseError")
    with pytest.raises(ParseError):
        load_variety("# only comments\n")


# --- matching and instantiation ----------------------------------------------------


@given(tree_strategy, st.lists(tree_strategy, min_size=1, max_size=6))
def test_match_inverts_instantiate(pattern, subs):
    n = trees.leaf_count(pattern)
    if len(subs) < n:
        subs = (subs * n)[:n]
    subs = tuple(subs[:n])
    grown = instantiate(pattern, subs)
    captured = trees.capture(trees.preorder_shape(pattern), grown)
    assert captured is not None
    assert instantiate(pattern, captured) == grown


def test_match_captures_in_leaf_order():
    pattern = trees.parse_tree("(. (. .))")
    target = trees.parse_tree("((. .) ((. .) .))")
    captured = trees.capture(trees.preorder_shape(pattern), target)
    assert captured == (
        trees.parse_tree("(. .)"),
        trees.parse_tree("(. .)"),
        trees.parse_tree("."),
    )


def test_match_rejects_shallow_targets():
    pattern = trees.preorder_shape(trees.parse_tree("(. (. .))"))
    assert trees.capture(pattern, trees.parse_tree("(. .)")) is None


def test_instantiate_validates_count():
    with pytest.raises(ValueError, match="has 2 variables, substitution has 1"):
        instantiate(trees.parse_tree("(. .)"), (trees.LEAF,))
    with pytest.raises(ValueError, match="has 2 variables, substitution has 3"):
        instantiate(trees.parse_tree("(. .)"), (trees.LEAF,) * 3)


# --- single steps ---------------------------------------------------------------------


def test_apply_step_forward_and_back():
    t = trees.parse_tree("(((. .) .) .)")
    law = associative_law()
    captured = trees.capture(trees.preorder_shape(law.lhs), t)
    step = RewriteStep("", law, 0, True, captured)
    out = apply_step(t, step)
    assert out == trees.parse_tree("(((. .) .) .)") or out == instantiate(
        law.rhs, captured
    )
    back_captured = trees.capture(trees.preorder_shape(law.rhs), out)
    back = RewriteStep("", law, 0, False, back_captured)
    assert apply_step(out, back) == t


def test_apply_step_rejects_mismatch():
    t = trees.parse_tree("(. (. .))")
    law = associative_law()
    step = RewriteStep("", law, 0, True, (trees.LEAF,) * 3)
    with pytest.raises(ValueError):
        apply_step(t, step)


def test_step_str_names_vertex_and_direction():
    law = associative_law()
    step = RewriteStep("01", law, 2, True, (trees.LEAF,) * 3)
    assert "01" in str(step)
    assert "#3" in str(step)
    assert "left-to-right" in str(step)
    assert "root" in str(RewriteStep("", law, 0, False, (trees.LEAF,) * 3))


# --- derivability ----------------------------------------------------------------------


def test_derivable_is_reflexive():
    assert derivable(R1, R1, X1_VARIETY) == ()


def test_derivable_validates_leaf_counts():
    with pytest.raises(ValueError):
        derivable(trees.LEAF, trees.parse_tree("(. .)"), ASSOC)


def test_derivable_enforces_leaf_cap(monkeypatch):
    big = right_comb(LEAF_CAP + 1)
    with pytest.raises(BudgetExceeded):
        derivable(big, trees.reflect(big), ASSOC)
    # the cap is read when the search starts
    small = right_comb(8)
    monkeypatch.setattr(rewriting, "LEAF_CAP", 7)
    with pytest.raises(BudgetExceeded, match="^8 leaves exceeds the search cap 7$"):
        derivable(small, trees.reflect(small), ASSOC)
    monkeypatch.setattr(rewriting, "LEAF_CAP", 8)
    assert derivable(small, trees.reflect(small), ASSOC)


@pytest.mark.parametrize("n", range(1, 7))
def test_associativity_gives_one_class_per_leaf_count(n):
    comb = right_comb(n)
    others = trees.enumerate_trees(n)
    proofs = [derivable(comb, t, ASSOC) for t in others]
    assert all(p is not None for p in proofs)


def test_proofs_replay_to_the_target():
    for t in trees.enumerate_trees(5):
        steps = derivable(R1, t, ASSOC)
        at = R1
        for step in steps:
            at = apply_step(at, step)
        assert at == t


def test_derivable_is_symmetric_with_reversed_proofs():
    forward = derivable(R1, R2, ASSOC)
    backward = derivable(R2, R1, ASSOC)
    assert forward is not None and backward is not None
    assert len(forward) == len(backward)


def test_derivable_respects_models():
    # whatever rewriting proves must hold in a magma satisfying the variety
    z4 = zoo.cyclic_addition(4)
    gen = random.Random(7)
    for t in trees.enumerate_trees(4):
        assert derivable(right_comb(4), t, ASSOC) is not None
        for _ in range(5):
            args = tuple(gen.choice(z4.elements) for _ in range(4))
            assert evaluate(z4, right_comb(4), args) == evaluate(z4, t, args)


def test_x1_classes_are_finer_than_associative_ones():
    assert derivable(R1, R2, X1_VARIETY) is None
    assert derivable(R1, R2, ASSOC) is not None


def test_format_proof_lists_each_step():
    steps = derivable(R1, R2, ASSOC)
    text = format_proof(R1, steps)
    lines = text.splitlines()
    assert lines[0] == f"start {trees.format_tree(R1)}"
    assert len(lines) == len(steps) + 1
    assert lines[-1].endswith(trees.format_tree(R2))


# --- eventual derivability ----------------------------------------------------------------


def test_expansion_frontier_is_breadth_first_and_distinct():
    t = trees.parse_tree("(. .)")
    listed = list(expansion_frontier(t, t, 2))
    assert [level for level, *_ in listed] == [0, 1, 1, 2, 2, 2, 2, 2]
    assert listed[0] == (0, t, t, ())
    for level, lhs, rhs, applied in listed:
        assert len(applied) == level
        assert trees.ExpansionWord.from_applied(applied).apply(t) == lhs == rhs
    pairs = [(lhs, rhs) for _, lhs, rhs, _ in listed]
    assert len(set(pairs)) == len(pairs)
    # level 2 holds each 4-leaf tree once, in the order it grew; (2, 1)
    # repeats (1, 3)
    assert [a for *_, a in listed[3:]] == [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)]


def test_expansion_frontier_rejects_a_negative_budget_when_called():
    with pytest.raises(ValueError, match="caret budget"):
        expansion_frontier(trees.LEAF, trees.LEAF, -1)
    leaf = trees.LEAF
    assert list(expansion_frontier(leaf, leaf, 0)) == [(0, leaf, leaf, ())]


def test_eventually_derivable_fails_up_to_budget():
    res = eventually_derivable(R1, R2, X1_VARIETY, 3)
    assert not res
    assert res.kind == "fails-up-to"
    assert res.pairs_checked == 101


def test_eventually_derivable_finds_expansions():
    # the law is an unreduced image of the 4-leaf pair, so the base pair
    # cannot match it; one expansion reproduces the law's sides exactly
    unreduced = Law(
        trees.parse_tree("((. .) ((. .) .))"), trees.parse_tree("((. .) (. (. .)))")
    )
    variety = VarietyPresentation((unreduced,))
    p = trees.parse_tree("(. ((. .) .))")
    q = trees.parse_tree("(. (. (. .)))")
    assert derivable(p, q, variety) is None
    res = eventually_derivable(p, q, variety, 2)
    assert res
    assert res.kind == "holds"
    assert res.expansion == trees.ExpansionWord((1,))
    assert res.pairs_checked == 2
    assert len(res.proof) == 1
    # the proof replays on the expanded pair
    assert apply_step(res.expansion.apply(p), res.proof[0]) == res.expansion.apply(q)


def test_eventually_derivable_holds_immediately_for_derivable_pairs():
    res = eventually_derivable(R1, R2, ASSOC, 1)
    assert res
    assert res.expansion == trees.ExpansionWord(())
    assert res.pairs_checked == 1


def test_eventually_derivable_searches_each_class_once(monkeypatch):
    # of the 101 expanded pairs of R1/R2 at 3 carets, only the 26 whose lhs
    # lies in no class walked before run a BFS
    searches = []
    search = rewriting._search

    def counted(p, q, *args):
        searches.append(p)
        return search(p, q, *args)

    monkeypatch.setattr(rewriting, "_search", counted)
    res = eventually_derivable(R1, R2, X1_VARIETY, 3)
    assert (res.kind, res.pairs_checked) == ("fails-up-to", 101)
    assert len(searches) == 26


def test_eventually_derivable_rejects_a_negative_budget():
    with pytest.raises(ValueError, match="caret budget"):
        eventually_derivable(R1, R2, X1_VARIETY, -1)


# --- reference search -------------------------------------------------------------
#
# The search as first written: every vertex re-walked from the root, a
# recursive matcher and grafter, a RewriteStep per neighbour, and a fresh
# BFS for every expanded pair.  The fast search must agree with it exactly.

TWO_LAWS = VarietyPresentation(
    (X1_LAW, parse_law("(((. .) .) .) = ((. .) (. .))"))
)
VARIETIES = {"assoc": ASSOC, "x1": X1_VARIETY, "two-law": TWO_LAWS}


def reference_match(pattern, t):
    captured = []

    def rec(node, sub):
        if trees.is_leaf(node):
            captured.append(sub)
            return True
        if trees.is_leaf(sub):
            return False
        return rec(node[0], sub[0]) and rec(node[1], sub[1])

    return tuple(captured) if rec(pattern, t) else None


def reference_instantiate(pattern, substitution):
    leaves = iter(substitution)

    def rec(node):
        if trees.is_leaf(node):
            return next(leaves)
        return (rec(node[0]), rec(node[1]))

    return rec(pattern)


def reference_neighbors(t, variety):
    out = []
    for vertex in trees.vertices(t):
        sub = trees.subtree_at(t, vertex)
        for law_index, law in enumerate(variety.laws):
            if law.is_trivial:
                continue
            for forward in (True, False):
                src, dst = (law.lhs, law.rhs) if forward else (law.rhs, law.lhs)
                captured = reference_match(src, sub)
                if captured is None:
                    continue
                step = RewriteStep(vertex, law, law_index, forward, captured)
                grown = reference_instantiate(dst, captured)
                out.append((trees.replace_at(t, vertex, grown), step))
    return out


def reference_derivable(p, q, variety):
    if p == q:
        return ()
    parents = {p: None}
    frontier = deque([p])
    while frontier:
        t = frontier.popleft()
        for neighbor, step in reference_neighbors(t, variety):
            if neighbor in parents:
                continue
            parents[neighbor] = (t, step)
            if neighbor == q:
                steps = []
                at = neighbor
                while parents[at] is not None:
                    at, step = parents[at]
                    steps.append(step)
                return tuple(reversed(steps))
            frontier.append(neighbor)
    return None


def reference_eventually_derivable(p, q, variety, budget):
    seen = {(p, q)}
    frontier = [(p, q, ())]
    checked = 0
    for level in range(budget + 1):
        for lhs, rhs, applied in frontier:
            checked += 1
            proof = reference_derivable(lhs, rhs, variety)
            if proof is not None:
                expansion = trees.ExpansionWord.from_applied(applied)
                return ("holds", expansion, proof, checked)
        if level == budget:
            break
        grown = []
        for lhs, rhs, applied in frontier:
            for i in range(1, trees.leaf_count(lhs) + 1):
                key = (trees.expand(lhs, i), trees.expand(rhs, i))
                if key not in seen:
                    seen.add(key)
                    grown.append((key[0], key[1], applied + (i,)))
        frontier = grown
    return ("fails-up-to", None, None, checked)


def sized_trees(lo, hi):
    return st.integers(lo, hi).flatmap(
        lambda n: st.tuples(st.integers(0, 2**31), st.integers(0, 2**31)).map(
            lambda seeds: tuple(
                random_tree(random.Random(s), n) for s in seeds
            )
        )
    )


@given(st.sampled_from(sorted(VARIETIES)), sized_trees(1, 9))
def test_neighbors_match_the_reference(name, pair):
    variety = VARIETIES[name]
    rules = rewriting._rules(variety)
    for t in pair:
        hops = reference_neighbors(t, variety)
        assert rewriting._neighbors(t, rules, {})[0] == [grown for grown, _ in hops]
        # a proof step is the first rewrite that reaches its tree
        first = {}
        for grown, step in hops:
            first.setdefault(grown, step)
        for grown, step in first.items():
            assert rewriting._step(t, grown, rules) == step


def random_laws(seeds):
    laws = []
    for n, a, b in seeds:
        lhs = random_tree(random.Random(a), n)
        rhs = random_tree(random.Random(b), n)
        laws.append(Law(lhs, rhs))
    return VarietyPresentation(tuple(laws))


random_law_varieties = st.lists(
    st.tuples(st.integers(3, 5), st.integers(0, 2**31), st.integers(0, 2**31)),
    min_size=1,
    max_size=2,
).map(random_laws)

# one memo per rule set for the whole run, so every tree drawn reads the
# entries the trees before it left
NEIGHBOR_MEMOS = {}


@settings(max_examples=150)
@given(
    st.one_of(st.sampled_from(sorted(VARIETIES)).map(VARIETIES.get), random_law_varieties),
    st.lists(sized_trees(1, 12), min_size=1, max_size=3),
)
def test_memoised_neighbors_match_the_reference(variety, pairs):
    rules = rewriting._rules(variety)
    memo = NEIGHBOR_MEMOS.setdefault(rules, {})
    for t in itertools.chain.from_iterable(pairs):
        # t's neighbours share most subtrees with t, so they read its entries
        grown = [u for u, _ in reference_neighbors(t, variety)]
        for u in [t] + grown:
            expected = [v for v, _ in reference_neighbors(u, variety)]
            assert rewriting._neighbors(u, rules, memo) == (expected, trees.leaf_count(u))


def test_a_search_keeps_only_small_subtrees_in_its_memo():
    # the x1 class of p is the 1,430 shapes of its 9-leaf subtree, and q,
    # a left comb, lies outside it
    p = trees.parse_tree("(((. (. (. (. (. (. (. (. (. .))))))))) .) .)")
    q = trees.reflect(right_comb(12))
    memo = {}
    proof, walked = rewriting._search(p, q, rewriting._rules(X1_VARIETY), memo)
    assert proof is None and len(walked) == 1430
    assert memo and max(map(trees.leaf_count, memo)) == rewriting.MEMO_LEAVES


@settings(max_examples=60)
@given(st.sampled_from(sorted(VARIETIES)), sized_trees(1, 8))
def test_derivable_proofs_match_the_reference(name, pair):
    variety = VARIETIES[name]
    p, q = pair
    assert derivable(p, q, variety) == reference_derivable(p, q, variety)


@settings(max_examples=80)
@given(
    st.sampled_from(sorted(VARIETIES)),
    sized_trees(1, 5),
    st.integers(0, 3),
)
def test_eventually_derivable_matches_the_reference(name, pair, budget):
    variety = VARIETIES[name]
    p, q = pair
    res = eventually_derivable(p, q, variety, budget)
    expected = reference_eventually_derivable(p, q, variety, budget)
    assert (res.kind, res.expansion, res.proof, res.pairs_checked) == expected


@settings(max_examples=80)
@given(
    random_law_varieties,
    sized_trees(2, 5),
    st.integers(0, 2),
)
def test_eventually_derivable_matches_the_reference_on_random_laws(
    variety, pair, budget
):
    p, q = pair
    res = eventually_derivable(p, q, variety, budget)
    expected = reference_eventually_derivable(p, q, variety, budget)
    assert (res.kind, res.expansion, res.proof, res.pairs_checked) == expected


def test_a_pair_inside_a_labelled_class_is_still_searched():
    # b[2] fails and labels the class of the law's two sides; b[4] expands
    # the pair onto exactly those sides, so it holds inside that class
    variety = VarietyPresentation(
        (parse_law("((. .) (. (. .))) = ((. (. .)) (. .))"),)
    )
    p, q = trees.parse_tree("((. .) (. .))"), trees.parse_tree("((. (. .)) .)")
    res = eventually_derivable(p, q, variety, 1)
    assert (res.kind, res.expansion, res.pairs_checked) == (
        "holds",
        trees.ExpansionWord((4,)),
        5,
    )
    expected = reference_eventually_derivable(p, q, variety, 1)
    assert (res.kind, res.expansion, res.proof, res.pairs_checked) == expected


@pytest.mark.parametrize("name", sorted(VARIETIES))
def test_eventually_derivable_matches_the_reference_on_all_5_leaf_pairs(name):
    variety = VARIETIES[name]
    for p, q in itertools.combinations(trees.enumerate_trees(5), 2):
        res = eventually_derivable(p, q, variety, 2)
        expected = reference_eventually_derivable(p, q, variety, 2)
        assert (res.kind, res.expansion, res.proof, res.pairs_checked) == expected


def test_eventually_derivable_matches_the_reference_on_the_example_pair():
    res = eventually_derivable(R1, R2, X1_VARIETY, 3)
    expected = reference_eventually_derivable(R1, R2, X1_VARIETY, 3)
    assert (res.kind, res.expansion, res.proof, res.pairs_checked) == expected


@pytest.mark.parametrize(
    "p, q",
    [
        ("((. .) ((. .) .))", "(. (. ((. .) .)))"),
        ("((. (. (. .))) .)", "(. (((. .) .) .))"),
        ("(((. .) .) (. (. .)))", "(((. (. .)) .) (. .))"),
        ("(((. .) .) ((. .) .))", "((. .) (((. .) .) .))"),
    ],
)
def test_eventually_derivable_matches_the_reference_on_x1_pairs_at_budget_3(p, q):
    # 5- and 6-leaf pairs whose failing x1 searches walk 1,200-2,500 trees
    # through one memo, as the pairs of the rewrite benchmark do
    p, q = trees.parse_tree(p), trees.parse_tree(q)
    res = eventually_derivable(p, q, X1_VARIETY, 3)
    expected = reference_eventually_derivable(p, q, X1_VARIETY, 3)
    assert (res.kind, res.expansion, res.proof, res.pairs_checked) == expected


# --- shifts and closure ---------------------------------------------------------------------


def test_shift_at_vertex_composes_inner_letters_first():
    g = GENS["x1"]
    assert shift_at_vertex(g, "") == g
    assert shift_at_vertex(g, "01") == th.shift_endo(th.shift_endo(g, "right"), "left")
    with pytest.raises(ParseError):
        shift_at_vertex(g, "02")


def test_shift_at_vertex_moves_support_into_the_addressed_interval():
    g = GENS["x0"]
    lo, hi = support_interval(shift_at_vertex(g, "01"))
    assert lo >= Fraction(1, 4) and hi <= Fraction(1, 2)
    lo, hi = support_interval(shift_at_vertex(g, "11"))
    assert lo >= Fraction(3, 4)


def test_closure_counts_for_the_x1_generator():
    assert closure_generate([GENS["x1"]], 0) == frozenset({th.IDENTITY})
    assert len(closure_generate([GENS["x1"]], 1)) == 7
    assert len(closure_generate([GENS["x1"]], 2)) == 129


def test_closure_is_monotone_in_depth():
    d1 = closure_generate([GENS["x1"]], 1)
    d2 = closure_generate([GENS["x1"]], 2)
    assert d1 <= d2
    assert th.IDENTITY in d1


def test_closure_contains_inverses_and_shifts_of_generators():
    d1 = closure_generate([GENS["x1"]], 1)
    assert GENS["x1"] in d1
    assert th.invert(GENS["x1"]) in d1
    assert th.shift_endo(GENS["x1"], "left") in d1
    assert th.shift_endo(GENS["x1"], "right") in d1


def unshared_closure(generators, depth):
    """closure_generate as it is specified, keeping the products as built."""
    words = [
        "".join(w) for n in range(depth + 1) for w in itertools.product("01", repeat=n)
    ]
    seeds = {th.IDENTITY}
    for g in generators:
        for word in words:
            seeds |= {shift_at_vertex(g, word), shift_at_vertex(th.invert(g), word)}
    current = frozenset(seeds)
    for _ in range(depth - 1):
        current = frozenset(th.multiply(a, b) for a in current for b in seeds)
    return current


def test_closure_keeps_one_node_per_distinct_subtree(monkeypatch):
    # a fresh table holds every node of the closure (4,820 < SHARE_CAP)
    monkeypatch.setattr(trees, "_SHARED", {})
    members = closure_generate([GENS["x1"]], 3)
    assert members == unshared_closure([GENS["x1"]], 3)
    assert len(members) == 6505
    kept = nodes(t for g in members for t in (g.source, g.target))
    assert len(kept) == len(set(kept.values()))


def pl_closure(generators, depth):
    """closure_generate as it is specified, with every product taken in the
    PL model: g*h acts as g first, then h."""
    words = [
        "".join(w) for n in range(depth + 1) for w in itertools.product("01", repeat=n)
    ]
    seeds = {th.IDENTITY}
    for g in generators:
        for word in words:
            seeds |= {shift_at_vertex(g, word), shift_at_vertex(th.invert(g), word)}
    current = seeds
    for _ in range(depth - 1):
        current = {
            from_pl(compose_pl(to_pl(b), to_pl(a))) for a in current for b in seeds
        }
    return current


short_words = st.lists(
    st.lists(st.sampled_from(["x0", "x1", "x0^-1", "x1^-1"]), min_size=1, max_size=3),
    min_size=1,
    max_size=2,
)


@settings(max_examples=10)
@given(short_words)
def test_closure_matches_the_closure_by_pl_products(words):
    generators = [th.parse_word(" * ".join(word)) for word in words]
    assert closure_generate(generators, 2) == pl_closure(generators, 2)


def test_closure_shares_each_element_once(monkeypatch):
    # the seeds but the identity, then each new product: a product the
    # level already holds is not rebuilt
    shared = []
    share = th.share
    monkeypatch.setattr(th, "share", lambda g: shared.append(g) or share(g))
    members = closure_generate([GENS["x1"]], 3)
    assert len(shared) == len(members) - 1 == 6504
    assert set(shared) == members - {th.IDENTITY}


def test_closure_keeps_the_caret_cap_of_multiply():
    # a generator of 260 carets: two of its seeds pass the 500-caret cap
    left_comb = trees.LEAF
    for _ in range(260):
        left_comb = (left_comb, trees.LEAF)
    g = th.FElement(left_comb, right_comb(261))
    assert len(closure_generate([g], 1)) == 7
    with pytest.raises(BudgetExceeded, match="carets could nest deeper than 500 levels$"):
        closure_generate([g], 2)


@pytest.mark.parametrize("depth", [-1, -2])
def test_closure_rejects_negative_depths(depth):
    with pytest.raises(ValueError, match=f"^closure depth must be >= 0, got {depth}$"):
        closure_generate([GENS["x1"]], depth)


@pytest.mark.parametrize(
    "generators,depth,count",
    [
        (["x1"], 4, "63^4"),
        (["x1", "x0"], 3, "61^3"),
        # the seed words alone pass the guard: counted to its bit length only
        (["x1"], 10**9, "over 524287^1000000000"),
    ],
)
def test_closure_guard_counts_products_before_building_seeds(
    generators, depth, count, monkeypatch
):
    def refuse(*args):
        raise AssertionError("a seed was built")

    monkeypatch.setattr(rewriting, "shift_at_vertex", refuse)
    with pytest.raises(BudgetExceeded) as err:
        closure_generate([GENS[g] for g in generators], depth)
    assert str(err.value) == (
        f"closure to depth {depth} may build {count} products, past the guard of 100000"
    )


def test_closure_guard_stops_depth_3_just_below_its_count(monkeypatch):
    # 31^3 = 29,791 products at depth 3; a guard just below that stops it
    monkeypatch.setattr(rewriting, "CLOSURE_GUARD", 29_790)
    with pytest.raises(BudgetExceeded, match="31\\^3 products"):
        closure_generate([GENS["x1"]], 3)
    assert len(closure_generate([GENS["x1"]], 2)) == 129


# --- membership ----------------------------------------------------------------------------


def test_membership_of_the_identity():
    res = membership_semidecide(th.IDENTITY, [GENS["x1"]])
    assert res
    assert res.kind == "in"
    assert res.proof == ()


def test_membership_of_a_shifted_generator():
    res = membership_semidecide(th.shift_endo(GENS["x1"], "right"), [GENS["x1"]])
    assert res
    assert len(res.proof) >= 1


def test_membership_rejects_the_example_pair():
    g = th.reduce_pair(R1, R2)
    res = membership_semidecide(g, [GENS["x1"]], budget=3)
    assert not res
    assert res.kind == "not-derivable-up-to"


def test_membership_rejects_x0_in_the_x1_subgroup():
    res = membership_semidecide(GENS["x0"], [GENS["x1"]], budget=2)
    assert not res
