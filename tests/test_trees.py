"""Binary trees, expansions, and the expansion monoid."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import nodes, random_tree, right_comb

from assocf import trees
from assocf.errors import BudgetExceeded, ParseError
from assocf.trees import (
    LEAF,
    ExpansionWord,
    complete_tree,
    enumerate_trees,
    expand,
    expansion_path,
    format_tree,
    free_carets,
    is_expansion,
    join,
    leaf_count,
    parse_tree,
    reflect,
    remove_caret,
    replace_at,
    shift,
    subtree_at,
    vertices,
)

tree_strategy = st.deferred(
    lambda: st.just(LEAF) | st.tuples(tree_strategy, tree_strategy)
)
small_trees = st.integers(2, 9).flatmap(
    lambda n: st.integers(0, 2**31).map(
        lambda s: random_tree(random.Random(s), n)
    )
)


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


# --- parsing and formatting -------------------------------------------------


@given(tree_strategy)
def test_parse_format_round_trip(t):
    assert parse_tree(format_tree(t)) == t


@pytest.mark.parametrize(
    "text",
    ["", "(. .", "(. .))", "()", "(.)", "(. . .)", "x", "(. y)", "((. .)"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_tree(text)


def test_parse_error_carries_location():
    try:
        parse_tree("(. ?)")
    except ParseError as err:
        assert err.location == 3
    else:
        pytest.fail("expected ParseError")


def test_parse_accepts_loose_whitespace():
    assert parse_tree("  ( .   ( . . ) ) ") == (LEAF, (LEAF, LEAF))


def left_comb_literal(depth):
    return "(" * depth + "." + " .)" * depth


def test_parse_accepts_literals_at_the_depth_cap():
    t = parse_tree(left_comb_literal(trees.PARSE_DEPTH_CAP))
    assert leaf_count(t) == trees.PARSE_DEPTH_CAP + 1
    assert trees.leftmost_leaf_depth(t) == trees.PARSE_DEPTH_CAP


def test_parse_rejects_literals_past_the_depth_cap():
    with pytest.raises(BudgetExceeded):
        parse_tree(left_comb_literal(trees.PARSE_DEPTH_CAP + 1))
    # the cap is on nesting, not on size
    wide = parse_tree(format_tree(random_tree(random.Random(3), 3000)))
    assert leaf_count(wide) == 3000


# --- the sharing table ---------------------------------------------------------


@pytest.fixture
def empty_table(monkeypatch):
    # the test starts from an empty sharing table and leaves the real one alone
    monkeypatch.setattr(trees, "_SHARED", {})


def test_parse_returns_the_kept_node_for_an_equal_literal(empty_table):
    rng = random.Random(7)
    for n in range(1, 40):
        t = random_tree(rng, n)
        first = parse_tree(format_tree(t))
        assert parse_tree(" " + format_tree(t).replace(" ", "  ")) is first
        assert trees.share(t) is first
        # one node per distinct subtree
        kept = nodes([first])
        assert len(kept) == len(set(kept.values()))


def test_parse_after_the_sharing_table_fills(empty_table):
    # all trees of up to 11 leaves: 23,713 distinct nodes, past SHARE_CAP
    for t in enumerate_trees(11):
        assert parse_tree(format_tree(t)) == t
    assert 0 < len(trees._SHARED) <= trees.SHARE_CAP < 23_713
    first = parse_tree("((. .) (. .))")
    assert parse_tree("((. .) (. .))") is first
    for text in ("(. .", "(. . .)", "x"):
        with pytest.raises(ParseError):
            parse_tree(text)
    deep = parse_tree(left_comb_literal(trees.PARSE_DEPTH_CAP))
    assert trees.leftmost_leaf_depth(deep) == trees.PARSE_DEPTH_CAP
    with pytest.raises(BudgetExceeded):
        parse_tree(left_comb_literal(trees.PARSE_DEPTH_CAP + 1))


# --- counting ----------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_enumerate_trees_matches_catalan(n):
    listed = enumerate_trees(n)
    assert len(listed) == catalan(n - 1)
    assert len(set(listed)) == len(listed)
    assert all(leaf_count(t) == n for t in listed)


def test_enumerate_trees_caps():
    with pytest.raises(BudgetExceeded):
        enumerate_trees(200)
    with pytest.raises(ValueError):
        enumerate_trees(0)


@given(tree_strategy)
def test_leaf_and_vertex_counts(t):
    n = leaf_count(t)
    # n leaves force n-1 interior vertices
    assert len(vertices(t)) == 2 * n - 1


# --- addressing --------------------------------------------------------------


@given(tree_strategy)
def test_vertices_are_prefix_closed_and_sorted(t):
    vs = vertices(t)
    assert list(vs) == sorted(vs)
    have = set(vs)
    assert "" in have
    for v in vs:
        assert v[:-1] in have or v == ""


@given(tree_strategy, tree_strategy)
def test_replace_round_trip(t, sub):
    for addr in vertices(t):
        patched = replace_at(t, addr, sub)
        assert subtree_at(patched, addr) == sub
        assert replace_at(patched, addr, subtree_at(t, addr)) == t


# --- expansion ---------------------------------------------------------------


@given(small_trees, st.integers(1, 12))
def test_expand_adds_one_caret_within_range(t, i):
    n = leaf_count(t)
    out = expand(t, i)
    if i <= n:
        assert leaf_count(out) == n + 1
        assert is_expansion(out, t)
        assert i in free_carets(out)
        assert remove_caret(out, i) == t
    else:  # identity past the leaf count
        assert out == t


def test_expand_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        expand(LEAF, 0)


@given(small_trees)
def test_remove_caret_rejects_non_caret_positions(t):
    carets = free_carets(t)
    for i in range(1, leaf_count(t)):
        if i in carets:
            assert expand(remove_caret(t, i), i) == t
        else:
            with pytest.raises(ValueError):
                remove_caret(t, i)


@given(small_trees, small_trees)
def test_join_is_least_common_expansion(a, b):
    j = join(a, b)
    assert is_expansion(j, a) and is_expansion(j, b)
    assert join(a, a) == a
    assert join(a, b) == join(b, a)
    # least: the common vertex union has no smaller common expansion
    assert set(vertices(j)) == set(vertices(a)) | set(vertices(b))


def test_join_universal_property_small():
    pool = [t for n in range(1, 6) for t in enumerate_trees(n)]
    for a in pool:
        for b in pool:
            j = join(a, b)
            for c in pool:
                if is_expansion(c, a) and is_expansion(c, b):
                    assert is_expansion(c, j)


# --- basic shapes ------------------------------------------------------------


def test_comb_and_complete_shapes():
    assert right_comb(1) == LEAF
    assert right_comb(3) == (LEAF, (LEAF, LEAF))
    assert leaf_count(right_comb(7)) == 7
    assert trees.rightmost_leaf_depth(right_comb(7)) == 6
    assert trees.leftmost_leaf_depth(right_comb(7)) == 1
    assert leaf_count(complete_tree(3)) == 8
    assert complete_tree(0) == LEAF


@given(tree_strategy)
def test_reflect_is_an_involution(t):
    assert reflect(reflect(t)) == t
    assert leaf_count(reflect(t)) == leaf_count(t)


def test_reflect_swaps_combs():
    assert reflect(right_comb(5)) == ((((LEAF, LEAF), LEAF), LEAF), LEAF)


@given(tree_strategy)
def test_shift_grafts_under_a_new_root(t):
    assert shift(t, "left") == (t, LEAF)
    assert shift(t, "right") == (LEAF, t)
    with pytest.raises(ValueError):
        shift(t, "up")


@given(st.integers(0, 2**31), st.integers(1, 40))
def test_random_tree_has_requested_leaves(seed, n):
    assert leaf_count(random_tree(random.Random(seed), n)) == n


# --- expansion monoid ---------------------------------------------------------

letters_strategy = st.lists(st.integers(1, 9), max_size=8)


@given(letters_strategy, small_trees)
def test_normal_form_preserves_action(letters, t):
    word = ExpansionWord(letters)
    raw = t
    for i in reversed(letters):
        raw = expand(raw, i)
    assert word.apply(t) == raw
    # canonical: no letter strictly smaller than its right neighbour
    assert all(a >= b for a, b in zip(word.letters, word.letters[1:]))


@given(letters_strategy, letters_strategy, small_trees)
def test_monoid_compose_acts_right_factor_first(u, v, t):
    a, b = ExpansionWord(u), ExpansionWord(v)
    assert ExpansionWord(a.letters + b.letters).apply(t) == a.apply(b.apply(t))


@given(letters_strategy)
def test_canonical_form_is_stable(letters):
    word = ExpansionWord(letters)
    assert ExpansionWord(word.letters).letters == word.letters
    assert ExpansionWord.from_applied(reversed(word.letters)) == word


def test_expansion_word_rejects_bad_input():
    with pytest.raises(ParseError):
        ExpansionWord((0,))
    with pytest.raises(AttributeError):
        ExpansionWord().letters = (1,)


@given(small_trees, letters_strategy)
def test_expansion_path_recovers_applied_word(base, letters):
    target = ExpansionWord(letters).apply(base)
    word = expansion_path(target, base)
    assert word is not None
    assert word.apply(base) == target


@given(tree_strategy)
def test_leaf_intervals_determine_the_tree(t):
    intervals = trees.leaf_intervals(t)
    assert len(intervals) == leaf_count(t)
    # the leaves tile [0, 1]: each starts where the one before it ends
    top = max(d for _, d in intervals)
    ends = [(k + 1) << (top - d) for k, d in intervals]
    assert [k << (top - d) for k, d in intervals] == [0] + ends[:-1]
    assert ends[-1] == 1 << top
    assert trees.from_leaf_intervals(intervals) == t


@given(small_trees, letters_strategy)
def test_graft_hangs_back_the_subtrees_under_the_leaves(base, letters):
    big = ExpansionWord(letters).apply(base)
    shape = trees.preorder_shape(base)
    under = trees.capture(shape, big)
    assert len(under) == leaf_count(base)
    assert trees.graft(shape, under) == big
    if big != base:
        assert trees.capture(trees.preorder_shape(big), base) is None


def test_expansion_path_none_when_not_an_expansion():
    assert expansion_path(LEAF, (LEAF, LEAF)) is None
    assert expansion_path(((LEAF, LEAF), LEAF), (LEAF, (LEAF, LEAF))) is None
