"""Group arithmetic on reduced tree pairs."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_element, random_tree

from assocf import thompson as th
from assocf import trees
from assocf.errors import BudgetExceeded, ParseError
from assocf.plmaps import compose_pl, to_pl
from assocf.thompson import (
    IDENTITY,
    FElement,
    NormalSubgroupSpec,
    abelianize,
    commutator,
    conjugate,
    generators,
    invert,
    multiply,
    normal_membership,
    parse_element,
    parse_pair_literal,
    parse_word,
    power,
    reduce_pair,
    reflect,
    shift_endo,
)

elements = st.integers(0, 2**31).map(
    lambda s: random_element(random.Random(s))
)
GENS = generators()
# deep, comb-like trees as well as random words
large_elements = elements | st.builds(
    power, st.sampled_from(sorted(GENS.values(), key=str)), st.integers(-60, 60)
)


def reference_reduce(p, q):
    """Cancel the leftmost common free caret until none remains."""
    while common := trees.free_carets(p) & trees.free_carets(q):
        i = min(common)
        p, q = trees.remove_caret(p, i), trees.remove_caret(q, i)
    return FElement(p, q)


def reference_multiply(g, h):
    """g*h by expansion words: carry each tree of the join to the pair's
    other tree with the canonical word of trees.expansion_path."""
    middle = trees.join(g.target, h.source)
    expand_g = trees.expansion_path(middle, g.target)
    expand_h = trees.expansion_path(middle, h.source)
    return reference_reduce(expand_g.apply(g.source), expand_h.apply(h.target))


# --- construction -------------------------------------------------------------


def test_felement_requires_equal_leaf_counts():
    with pytest.raises(ValueError):
        FElement(trees.parse_tree("(. .)"), trees.parse_tree("."))


def test_felement_requires_reduced_pairs():
    both = trees.parse_tree("(. (. .))")
    with pytest.raises(ValueError):
        FElement(both, both)
    assert reduce_pair(both, both) == IDENTITY


@given(elements, st.lists(st.integers(1, 6), max_size=5))
def test_reduce_pair_collapses_simultaneous_expansion(g, letters):
    word = trees.ExpansionWord(letters)
    assert reduce_pair(word.apply(g.source), word.apply(g.target)) == g


@given(
    st.integers(1, 12), st.integers(0, 2**31), st.lists(st.integers(1, 14), max_size=8)
)
def test_reduce_pair_matches_caret_by_caret_cancellation(n, seed, letters):
    rng = random.Random(seed)
    word = trees.ExpansionWord(letters)
    p, q = word.apply(random_tree(rng, n)), word.apply(random_tree(rng, n))
    assert reduce_pair(p, q) == reference_reduce(p, q)


@given(elements)
def test_reduce_pair_returns_a_reduced_pair_as_given(g):
    # no common free caret: the very trees come back, with their node
    # sharing, and no leaf-interval walk is made
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trees, "leaf_intervals", None)
        reduced = reduce_pair(g.source, g.target)
    assert reduced.source is g.source and reduced.target is g.target


def test_reduce_pair_requires_equal_leaf_counts():
    with pytest.raises(ValueError, match="^tree pair must have equal leaf counts$"):
        reduce_pair(trees.parse_tree("(. .)"), trees.parse_tree("((. .) .)"))


# --- group axioms ---------------------------------------------------------------


@given(large_elements, large_elements)
def test_multiply_matches_the_expansion_word_product(g, h):
    gh = multiply(g, h)
    assert gh == reference_multiply(g, h)
    assert to_pl(gh) == compose_pl(to_pl(h), to_pl(g))


def test_multiply_does_not_walk_expansion_words(monkeypatch):
    expected = reference_multiply(GENS["x0"], GENS["x1"])
    monkeypatch.setattr(trees, "expansion_path", None)
    assert multiply(GENS["x0"], GENS["x1"]) == expected


@given(elements, elements, elements)
def test_multiplication_is_associative(a, b, c):
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@given(elements)
def test_identity_and_inverse(g):
    assert multiply(g, IDENTITY) == g
    assert multiply(IDENTITY, g) == g
    assert multiply(g, invert(g)) == IDENTITY
    assert multiply(invert(g), g) == IDENTITY
    assert invert(invert(g)) == g


@given(elements, st.integers(-40, 40))
def test_power_matches_repeated_multiplication(g, k):
    by_hand = IDENTITY
    step = g if k >= 0 else invert(g)
    for _ in range(abs(k)):
        by_hand = multiply(by_hand, step)
    assert power(g, k) == by_hand
    a, b = abelianize(g)
    assert abelianize(by_hand) == (k * a, k * b)


def test_powers_up_to_the_exponent_cap():
    for name in ("x0", "x1", "c1"):
        g = GENS[name]
        top = power(g, th.EXPONENT_CAP)
        assert top == multiply(power(g, th.EXPONENT_CAP - 1), g)
        assert multiply(top, power(g, -th.EXPONENT_CAP)) == IDENTITY
    # x0^k is the pair of combs with k + 2 leaves
    assert power(GENS["x0"], th.EXPONENT_CAP).leaves == th.EXPONENT_CAP + 2


@given(elements, elements)
def test_conjugate_and_commutator_definitions(g, h):
    assert conjugate(g, h) == multiply(multiply(invert(h), g), h)
    assert commutator(g, h) == multiply(
        multiply(g, h), multiply(invert(g), invert(h))
    )


# --- abelianization ---------------------------------------------------------------


def test_abelianization_of_generators():
    assert abelianize(GENS["x0"]) == (1, 0)
    assert abelianize(GENS["x1"]) == (0, 1)
    assert abelianize(IDENTITY) == (0, 0)


@given(elements, elements)
def test_abelianization_is_additive(g, h):
    ga, ha = abelianize(g), abelianize(h)
    assert abelianize(multiply(g, h)) == (ga[0] + ha[0], ga[1] + ha[1])
    assert abelianize(invert(g)) == (-ga[0], -ga[1])
    assert abelianize(conjugate(g, h)) == ga


@given(elements, elements)
def test_commutator_subgroup_test_is_vanishing_abelianization(g, h):
    assert abelianize(commutator(g, h)) == (0, 0)


# --- shift endomorphisms ------------------------------------------------------------


@given(elements)
def test_shifts_act_by_grafting(g):
    assert shift_endo(g, "left") == reduce_pair(
        trees.shift(g.source, "left"), trees.shift(g.target, "left")
    )
    assert shift_endo(g, "right") == reduce_pair(
        trees.shift(g.source, "right"), trees.shift(g.target, "right")
    )


@given(elements, elements)
def test_shifts_are_homomorphisms(g, h):
    for side in ("left", "right"):
        assert shift_endo(multiply(g, h), side) == multiply(
            shift_endo(g, side), shift_endo(h, side)
        )


@given(elements, elements)
def test_reflect_is_an_automorphism_swapping_the_shifts(g, h):
    assert reflect(reflect(g)) == g
    assert reflect(multiply(g, h)) == multiply(reflect(g), reflect(h))
    assert reflect(shift_endo(reflect(g), "right")) == shift_endo(g, "left")


def test_generator_tower():
    assert GENS["x2"] == shift_endo(GENS["x1"], "right")
    assert GENS["c0"] == commutator(GENS["x0"], GENS["x1"])
    assert GENS["c1"] == commutator(GENS["c0"], shift_endo(GENS["c0"], "right"))
    assert GENS["c0"].leaves == 5


# --- parsing --------------------------------------------------------------------


@given(elements)
def test_pair_literal_round_trip(g):
    assert parse_pair_literal(str(g)) == g
    assert parse_element(str(g)) == g


def test_pair_literal_reduces_input():
    assert parse_pair_literal("pair (. (. .)) (. (. .))") == IDENTITY


@pytest.mark.parametrize(
    "text,expected",
    [
        ("x0", GENS["x0"]),
        ("x1 * x0", multiply(GENS["x1"], GENS["x0"])),
        ("x0^-1", invert(GENS["x0"])),
        ("x0^3", power(GENS["x0"], 3)),
        ("x1^x0", conjugate(GENS["x1"], GENS["x0"])),
        ("[x0,x1]", GENS["c0"]),
        ("(x0 * x1)^-1", invert(multiply(GENS["x0"], GENS["x1"]))),
        ("[x0,x1]^2", power(GENS["c0"], 2)),
        ("x2", shift_endo(GENS["x1"], "right")),
    ],
)
def test_word_grammar(text, expected):
    assert parse_word(text) == expected


@pytest.mark.parametrize(
    "text",
    ["", "x3", "x0 *", "x0^", "[x0;x1]", "[x0,x1", "(x0", "x0 x1", "x0^^2"],
)
def test_word_grammar_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_word(text)


@pytest.mark.parametrize("k", [121, th.EXPONENT_CAP, -th.EXPONENT_CAP])
def test_exponents_within_the_cap_reach_power(monkeypatch, k):
    calls = []
    monkeypatch.setattr(th, "power", lambda g, k: calls.append(k) or IDENTITY)
    assert parse_word(f"x0^{k}") == IDENTITY
    assert calls == [k]


@pytest.mark.parametrize("k", [th.EXPONENT_CAP + 1, -th.EXPONENT_CAP - 1, -99999999999])
def test_exponents_past_the_cap_stop_before_any_multiply(monkeypatch, k):
    calls = []
    monkeypatch.setattr(th, "multiply", lambda g, h: calls.append(1))
    with pytest.raises(BudgetExceeded):
        parse_word(f"x0^{k}")
    assert calls == []


def nested_word(opener, depth):
    if opener == "(":
        return "(" * depth + "x0" + ")" * depth
    return "[x0," * depth + "x1" + "]" * depth


def test_words_nest_to_the_depth_cap():
    cap = th.WORD_DEPTH_CAP
    assert parse_word(nested_word("(", cap)) == GENS["x0"]
    # the parser spends one frame a level, so a product as deep as multiply
    # allows still fits under the innermost group
    deep = "(" * cap + "x0^200 * x0^200" + ")" * cap
    assert parse_word(deep) == power(GENS["x0"], 400)
    # nested commutators outgrow multiply's cap long before the word's
    with pytest.raises(BudgetExceeded, match="carets could nest deeper"):
        parse_word(nested_word("[", cap))


@pytest.mark.parametrize("opener", ["(", "["])
def test_words_past_the_depth_cap_stop_before_any_product(monkeypatch, opener):
    calls = []
    monkeypatch.setattr(th, "multiply", lambda g, h: calls.append(1))
    with pytest.raises(BudgetExceeded, match=f"deeper than {th.WORD_DEPTH_CAP} "):
        parse_word(nested_word(opener, th.WORD_DEPTH_CAP + 1))
    assert calls == []


@pytest.mark.parametrize(
    "text", ["pair . (. .)", "pair (. .)", "pair x y", "tree . ."]
)
def test_pair_literal_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_element(text)


def test_parse_element_dispatches_on_prefix():
    assert parse_element("[x0,x1]") == GENS["c0"]
    assert parse_element("pair . .") == IDENTITY


# --- normal subgroup specs -----------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        NormalSubgroupSpec(-1, 0)


def test_zero_spec_is_the_trivial_subgroup():
    spec = NormalSubgroupSpec(0, 0)
    assert normal_membership(IDENTITY, spec)
    assert not normal_membership(GENS["x0"], spec)
    assert not normal_membership(GENS["c0"], spec)


def test_membership_spot_checks():
    assert normal_membership(GENS["x0"], NormalSubgroupSpec(1, 1))
    assert not normal_membership(GENS["x0"], NormalSubgroupSpec(2, 1))
    assert normal_membership(GENS["c0"], NormalSubgroupSpec(2, 1))
    assert normal_membership(GENS["c1"], NormalSubgroupSpec(5, 3))


@given(elements, elements, st.integers(1, 5), st.integers(1, 5))
def test_nonzero_specs_contain_the_commutator_subgroup(g, h, m, n):
    assert normal_membership(commutator(g, h), NormalSubgroupSpec(m, n))


def test_random_element_is_reproducible():
    a = random_element(random.Random(99))
    b = random_element(random.Random(99))
    assert a == b
