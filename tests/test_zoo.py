"""Tests for the example-table zoo: permutation machinery, group tables,
commutator magmas and the derived series they model, the signed sl2 bracket
table and its collapse, and the octonion unit loop (checked against an
independent Cayley-Dickson oracle).
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_sided_identities

from assocf import zoo
from assocf.errors import BudgetExceeded
from assocf.magmas import (
    Magma,
    derived_chain,
    dump_magma,
    is_solvable,
    load_magma,
    restricted_image,
)
from assocf.trees import complete_tree, parse_tree
from assocf.zoo import (
    BUILTINS,
    Permutation,
    a5_commutator,
    commutator_magma,
    cyclic_addition,
    octonion_unit_loop,
    permutation_group,
    pre_sl2,
    s3_commutator,
    s4_example,
    sl2_table,
)

S3_GENS = (
    Permutation.from_cycles(3, (1, 2)),
    Permutation.from_cycles(3, (1, 2, 3)),
)
A5_GENS = (
    Permutation.from_cycles(5, (1, 2, 3, 4, 5)),
    Permutation.from_cycles(5, (1, 2, 3)),
)


# ---------------------------------------------------------------------------
# permutations


def test_identity_permutation():
    e = Permutation.identity(4)
    assert e.images == (0, 1, 2, 3)
    assert str(e) == "e"


def test_from_cycles_one_based():
    p = Permutation.from_cycles(5, (1, 2, 3))
    assert p.images == (1, 2, 0, 3, 4)
    q = Permutation.from_cycles(5, (4, 5), (1, 2, 3))
    assert q.images == (1, 2, 0, 4, 3)


def test_from_cycles_rejects_overlapping_cycles():
    with pytest.raises(ValueError):
        Permutation.from_cycles(4, (1, 2), (2, 3))


def test_multiplication_applies_right_factor_first():
    rng = random.Random(7)
    for _ in range(50):
        a = list(range(6))
        b = list(range(6))
        rng.shuffle(a)
        rng.shuffle(b)
        p, q = Permutation(tuple(a)), Permutation(tuple(b))
        prod = p * q
        for x in range(6):
            assert prod.images[x] == p.images[q.images[x]]


def test_inverse():
    rng = random.Random(8)
    for _ in range(25):
        a = list(range(7))
        rng.shuffle(a)
        p = Permutation(tuple(a))
        e = Permutation.identity(7)
        assert p * p.inverse() == e
        assert p.inverse() * p == e


def test_cycle_notation():
    assert str(Permutation.from_cycles(5, (1, 2, 3))) == "(1,2,3)"
    assert str(Permutation.from_cycles(5, (1, 2), (3, 5))) == "(1,2)(3,5)"
    assert str(Permutation.identity(3)) == "e"


# ---------------------------------------------------------------------------
# group tables and closures


def test_permutation_group_s3():
    g = permutation_group(S3_GENS)
    assert len(g) == 6
    assert g.elements[0] == "e"
    assert set(g.elements) == {"e", "(1,2)", "(1,3)", "(2,3)", "(1,2,3)", "(1,3,2)"}


def test_permutation_group_table_matches_composition():
    g = permutation_group(S3_GENS)
    ordered = sorted(itertools.permutations(range(3)))
    index = {images: i for i, images in enumerate(ordered)}
    for i, p in enumerate(ordered):
        for j, q in enumerate(ordered):
            prod = tuple(p[v] for v in q)  # q acts first
            assert g.table[i, j] == index[prod]


def test_permutation_group_cyclic():
    g = permutation_group([Permutation.from_cycles(5, (1, 2, 3, 4, 5))])
    assert len(g) == 5


def test_permutation_group_a5_size():
    assert len(permutation_group(A5_GENS)) == 60


def test_permutation_group_cap(monkeypatch):
    monkeypatch.setattr(zoo, "PERMUTATION_CAP", 30)
    with pytest.raises(BudgetExceeded, match="group closure exceeds cap 30"):
        permutation_group(A5_GENS)


def test_permutation_group_tables_match_pairwise_composition(monkeypatch):
    # the oracle closes each group with its own products and composes every
    # pair through Permutation.__mul__
    rng = random.Random(21)
    seeded = [
        tuple(Permutation(tuple(rng.sample(range(n), n))) for _ in range(2))
        for n in (2, 3, 4, 4, 5, 5, 6)
    ]
    s4 = (Permutation.from_cycles(4, (1, 2)), Permutation.from_cycles(4, (1, 2, 3, 4)))
    for gens in (S3_GENS, s4, A5_GENS, *seeded):
        group = sorted(closure(gens, len(gens[0].images)), key=lambda p: p.images)
        index = {p: i for i, p in enumerate(group)}
        g = permutation_group(gens)
        assert g.elements == tuple(str(p) for p in group)
        assert g.table.tolist() == [[index[p * q] for q in group] for p in group]
    # 2,000 point images: at most 20 elements of degree 5, 25 of degree 3
    monkeypatch.setattr(zoo, "PERMUTATION_CAP", 2000)
    assert len(permutation_group(S3_GENS)) == 6

    def gather(*args, **kwargs):
        raise AssertionError("the table was built")

    monkeypatch.setattr(np, "take", gather)
    with pytest.raises(BudgetExceeded, match="group closure exceeds cap 2000"):
        permutation_group(A5_GENS)


def test_permutation_group_input_validation():
    with pytest.raises(ValueError):
        permutation_group([])
    with pytest.raises(ValueError):
        permutation_group([Permutation.identity(3), Permutation.identity(4)])


def test_group_table_identity_and_inverses():
    g = permutation_group(S3_GENS)
    assert isinstance(g, Magma)
    assert g.two_sided_identity == "e"
    assert g.associativity.holds
    m = commutator_magma(g)
    for x in g.elements:
        (inverse,) = [y for y in g.elements if g.op(x, y) == "e"]
        assert g.op(inverse, x) == "e"
        assert m.op(x, inverse) == m.op(x, x) == "e"


def test_group_table_rejects_no_identity():
    with pytest.raises(ValueError, match="table has no two-sided identity"):
        commutator_magma(Magma(("x", "y"), [[0, 0], [0, 0]]))


def test_group_table_rejects_non_invertible():
    with pytest.raises(ValueError, match="table has a non-invertible element"):
        commutator_magma(Magma(("x", "y"), [[0, 1], [1, 1]]))
    # every row holds the identity, but a's right inverse b has b a = a
    one_sided = Magma(("e", "a", "b"), [[0, 1, 2], [1, 1, 0], [2, 1, 0]])
    with pytest.raises(ValueError, match="table has a non-invertible element"):
        commutator_magma(one_sided)


# ---------------------------------------------------------------------------
# commutator magmas


def brute_commutator_table(degree, even_only):
    """Rebuild the commutator table from raw permutations."""
    ordered = [Permutation(images) for images in sorted(
        tuple(p) for p in itertools.permutations(range(degree))
        if not even_only or cycle_parity_even(p)
    )]
    index = {p.images: i for i, p in enumerate(ordered)}
    out = np.zeros((len(ordered), len(ordered)), dtype=int)
    for i, p in enumerate(ordered):
        for j, q in enumerate(ordered):
            comm = p * q * p.inverse() * q.inverse()
            out[i, j] = index[comm.images]
    return out


def cycle_parity_even(images):
    seen = [False] * len(images)
    parity = 0
    for start in range(len(images)):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = images[cur]
            length += 1
        parity ^= (length - 1) & 1
    return parity == 0


def test_commutator_magma_matches_brute_force_s3():
    m = s3_commutator()
    assert np.array_equal(np.asarray(m.table), brute_commutator_table(3, False))


def test_commutator_magma_matches_brute_force_a5():
    m = a5_commutator()
    assert np.array_equal(np.asarray(m.table), brute_commutator_table(5, True))


def test_commutator_with_identity_is_identity():
    for m in (s3_commutator(), a5_commutator()):
        e = m.index("e")
        table = np.asarray(m.table)
        assert (table[:, e] == e).all()
        assert (table[e, :] == e).all()


def test_commutator_magma_rebuild_equals_cached():
    assert commutator_magma(permutation_group(S3_GENS)) == s3_commutator()


# ---------------------------------------------------------------------------
# the derived chain of a commutator magma is the derived series


def closure(gens, degree):
    """The subgroup the permutations generate, by breadth-first products."""
    group = frontier = {Permutation.identity(degree)}
    while frontier:
        frontier = {p * g for p in frontier for g in gens} - group
        group = group | frontier
    return group


def derived_length(gens, degree):
    """Least k with G^(k) trivial, G^(k+1) generated by the commutators of
    G^(k); None when the series stops at a nontrivial subgroup."""
    group, k = closure(gens, degree), 0
    while len(group) > 1:
        commutators = {x * y * x.inverse() * y.inverse() for x in group for y in group}
        derived = closure(commutators, degree)
        if derived == group:
            return None
        group, k = derived, k + 1
    return k


permutation_lists = st.integers(1, 5).flatmap(
    lambda degree: st.lists(
        st.permutations(range(degree)).map(lambda p: Permutation(tuple(p))),
        min_size=1,
        max_size=3,
    )
)


@settings(max_examples=40)
@given(permutation_lists)
def test_derived_chain_reaches_a_point_at_the_derived_length(gens):
    # D_k is the value set of the k-fold derived word, which generates G^(k)
    # and holds the identity, so D_k is a point exactly when G^(k) is trivial
    m = commutator_magma(permutation_group(gens))
    length = derived_length(gens, len(gens[0].images))
    assert derived_chain(m).solvable_depth == length
    assert (is_solvable(m) is not None) == (length is not None)


def test_complete_tree_images_are_the_derived_chain(builtins):
    # Im of the complete tree of depth k is D_k, the chain's last level past
    # its fixpoint; at k = 3 the tree has 8 leaves, 60^8 tuples on a5
    for name, m in builtins.items():
        chain = derived_chain(m).subsets
        for k in (1, 2, 3):
            image = restricted_image(m, complete_tree(k), {})
            assert image == set(chain[min(k, len(chain) - 1)]), (name, k)


# ---------------------------------------------------------------------------
# small hand-built tables


def test_pre_sl2_exact_table():
    expected = Magma.from_rows(
        ("0", "a", "b", "c"),
        (
            ("0", "0", "0", "0"),
            ("0", "0", "a", "b"),
            ("0", "a", "0", "c"),
            ("0", "b", "c", "0"),
        ),
    )
    assert pre_sl2() == expected


def test_s4_right_identity_structure():
    m = s4_example()
    assert one_sided_identities(m) == ((), ("1",))
    for x in m.elements:
        assert m.op(x, "1") == x
        assert m.op(x, "a") == "b"
        assert m.op(x, "b") == "c"
        assert m.op(x, "c") == "c"


def test_cyclic_addition():
    m = cyclic_addition(5)
    assert m.elements == ("0", "1", "2", "3", "4")
    for i in range(5):
        for j in range(5):
            assert m.op(str(i), str(j)) == str((i + j) % 5)
    assert m.associativity.holds
    assert m.two_sided_identity == "0"


# ---------------------------------------------------------------------------
# the signed sl2 bracket table and its collapse


def negate_name(name):
    return name[1:] if name.startswith("-") else "-" + name


def test_sl2_table_shape_and_names():
    m = sl2_table()
    assert len(m) == 13
    coefs = ("", "2", "-", "-2")
    expected = {"0"} | {f"{c}e{b}" for c in coefs for b in (-1, 0, 1)}
    assert set(m.elements) == expected


def test_sl2_bracket_is_antisymmetric_and_alternating():
    m = sl2_table()
    for x in m.elements:
        assert m.op(x, x) == "0"
        assert m.op("0", x) == "0"
        assert m.op(x, "0") == "0"
        for y in m.elements:
            lhs, rhs = m.op(x, y), m.op(y, x)
            if lhs == "0":
                assert rhs == "0"
            else:
                assert rhs == negate_name(lhs)


def test_sl2_spot_brackets():
    m = sl2_table()
    # cross-basis products land on the third basis line with the capped
    # coefficients recorded in the construction
    assert m.op("e-1", "e1") == "-2e0"
    assert m.op("e1", "e-1") == "2e0"
    assert m.op("e0", "e1") == "-e1"
    assert m.op("e0", "e-1") == "e-1"
    # capping: doubling both inputs would give coefficient 4, capped to 2
    assert m.op("2e-1", "2e1") == "-2e0"


def test_sl2_is_not_simply_perfect():
    m = sl2_table()
    assert derived_chain(m).sizes != (len(m),)
    reached = {m.elements[v] for v in np.asarray(m.table).ravel()}
    assert set(m.elements) - reached == {"e0", "-e0"}


def sl2_collapse(name):
    """Quotient map of the signed sl2 table onto pre_sl2's elements: drop
    the coefficient, keep the basis vector."""
    if name == "0":
        return "0"
    basis = name.split("e")[1]
    return {"-1": "a", "0": "b", "1": "c"}[basis]


def test_sl2_collapse_is_a_homomorphism_onto_pre_sl2():
    m = sl2_table()
    pre = pre_sl2()
    assert {sl2_collapse(x) for x in m.elements} == set(pre.elements)
    for x in m.elements:
        for y in m.elements:
            assert sl2_collapse(m.op(x, y)) == pre.op(sl2_collapse(x), sl2_collapse(y))


# ---------------------------------------------------------------------------
# octonion units, checked against a vector Cayley-Dickson oracle


def cd_conj(v):
    return (v[0],) + tuple(-x for x in v[1:])


def cd_mul(u, v):
    """(a,b)(c,d) = (ac - conj(d) b, d a + b conj(c)) on power-of-two vectors."""
    n = len(u)
    if n == 1:
        return (u[0] * v[0],)
    h = n // 2
    a, b = u[:h], u[h:]
    c, d = v[:h], v[h:]
    left = tuple(x - y for x, y in zip(cd_mul(a, c), cd_mul(cd_conj(d), b)))
    right = tuple(x + y for x, y in zip(cd_mul(d, a), cd_mul(b, cd_conj(c))))
    return left + right


def unit_vector(i, sign=1):
    v = [0] * 8
    v[i] = sign
    return tuple(v)


def vector_to_name(v):
    nonzero = [(i, x) for i, x in enumerate(v) if x]
    assert len(nonzero) == 1, f"product is not a signed unit: {v}"
    i, x = nonzero[0]
    assert x in (1, -1)
    return f"e{i}" if x == 1 else f"-e{i}"


def oct_name(k):
    return f"e{k}" if k < 8 else f"-e{k - 8}"


def test_octonion_table_matches_cayley_dickson_oracle():
    m = octonion_unit_loop()
    for x in range(16):
        for y in range(16):
            u = unit_vector(x % 8, 1 if x < 8 else -1)
            v = unit_vector(y % 8, 1 if y < 8 else -1)
            assert m.op(oct_name(x), oct_name(y)) == vector_to_name(cd_mul(u, v))


def test_octonion_names_and_identity():
    m = octonion_unit_loop()
    assert m.elements == tuple(f"e{i}" for i in range(8)) + tuple(
        f"-e{i}" for i in range(8)
    )
    assert m.two_sided_identity == "e0"


def test_octonion_rows_and_columns_are_permutations():
    table = np.asarray(octonion_unit_loop().table)
    full = np.arange(16)
    for k in range(16):
        assert np.array_equal(np.sort(table[k, :]), full)
        assert np.array_equal(np.sort(table[:, k]), full)


def test_octonion_squares_and_anticommutativity():
    m = octonion_unit_loop()
    for i in range(1, 8):
        assert m.op(f"e{i}", f"e{i}") == "-e0"
        for j in range(1, 8):
            if i != j:
                assert m.op(f"e{i}", f"e{j}") == negate_name(m.op(f"e{j}", f"e{i}"))


def test_octonion_is_not_associative():
    m = octonion_unit_loop()
    check = m.associativity
    assert not check.holds
    x, y, z = check.counterexample
    assert m.op(m.op(x, y), z) != m.op(x, m.op(y, z))


# ---------------------------------------------------------------------------
# measured facts about the alternating-group commutator table


def cycle_type_from_name(name):
    """Cycle lengths from a cycle-notation element name, e.g. '(1,2)(3,4)'."""
    if name == "e":
        return ()
    return tuple(
        sorted(part.count(",") + 1 for part in name[1:-1].split(")("))
    )


def test_a5_commutator_image_sizes_by_cycle_type():
    m = a5_commutator()
    table = np.asarray(m.table)
    by_type = {}
    for j, name in enumerate(m.elements):
        if name == "e":
            continue
        size = len(set(table[:, j]))
        by_type.setdefault(cycle_type_from_name(name), []).append(size)
    # the image of x -> [x, v] depends only on the conjugacy class of v
    assert {t: set(sizes) for t, sizes in by_type.items()} == {
        (5,): {12},
        (2, 2): {15},
        (3,): {20},
    }
    assert {t: len(sizes) for t, sizes in by_type.items()} == {
        (5,): 24,
        (2, 2): 15,
        (3,): 20,
    }


def test_a5_commutator_restricted_image_agrees_with_columns():
    m = a5_commutator()
    table = np.asarray(m.table)
    pair = parse_tree("(. .)")
    for name in ("(1,2,3)", "(1,2)(3,4)", "(1,2,3,4,5)"):
        image = restricted_image(m, pair, {2: name})
        assert set(image) == {m.elements[v] for v in set(table[:, m.index(name)])}


# ---------------------------------------------------------------------------
# registry


def test_builtins_registry():
    assert set(BUILTINS) == {
        "pre_sl2",
        "s4",
        "s3_commutator",
        "a5_commutator",
        "octonion_units",
        "sl2_signed_basis",
        "z4_addition",
    }
    for name, build in BUILTINS.items():
        m = build()
        assert isinstance(m, Magma)
        assert build() == m


def test_builtins_survive_serialization(tmp_path):
    for name, build in BUILTINS.items():
        path = tmp_path / f"{name}.magma"
        path.write_text(dump_magma(build()))
        assert load_magma(path.read_text()) == build()
