"""The exact PL-homeomorphism model over dyadic fractions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_element, support_interval

from assocf import thompson as th
from assocf.plmaps import (
    PLMap,
    compose_pl,
    decimal_str,
    eval_pl,
    first_moved_halfpower,
    format_pl_map,
    from_pl,
    stabilizes_halfpowers,
    svg_document,
    to_pl,
)
from assocf.trees import LEAF, leaf_count

GENS = th.generators()
IDENTITY_MAP = PLMap(((0, 0), (1, 1)))
dyadics = st.tuples(st.integers(-200, 200), st.integers(0, 12)).map(
    lambda p: Fraction(p[0], 2 ** p[1])
)
unit_dyadics = st.tuples(st.integers(0, 256), st.integers(0, 8)).map(
    lambda p: Fraction(min(p[0], 2 ** p[1]), 2 ** p[1])
)
elements = st.integers(0, 2**31).map(
    lambda s: random_element(random.Random(s))
)


# --- formatting ------------------------------------------------------------------


@given(dyadics)
def test_decimal_str_is_exact(d):
    assert Fraction(decimal_str(d)) == d


# --- PLMap validation ------------------------------------------------------------


def test_plmap_requires_unit_endpoints():
    with pytest.raises(ValueError):
        PLMap(((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))))


def test_plmap_requires_monotonicity():
    with pytest.raises(ValueError):
        PLMap(
            (
                (Fraction(0), Fraction(0)),
                (Fraction(1, 2), Fraction(1, 2)),
                (Fraction(1, 4), Fraction(3, 4)),
                (Fraction(1), Fraction(1)),
            )
        )


def test_plmap_requires_power_of_two_slopes():
    # segment from (0,0) to (1/4, 3/4) has slope 3
    with pytest.raises(ValueError):
        PLMap(
            (
                (Fraction(0), Fraction(0)),
                (Fraction(1, 4), Fraction(3, 4)),
                (Fraction(1), Fraction(1)),
            )
        )


def test_plmap_prunes_collinear_points():
    f = PLMap(
        (
            (Fraction(0), Fraction(0)),
            (Fraction(1, 4), Fraction(1, 4)),
            (Fraction(1), Fraction(1)),
        )
    )
    assert f == IDENTITY_MAP
    assert len(f.points) == 2


def test_plmap_requires_dyadic_coordinates():
    # slope 1 on both segments, but 1/3 is not dyadic
    with pytest.raises(ValueError):
        PLMap(((0, 0), (Fraction(1, 3), Fraction(1, 3)), (1, 1)))


@pytest.mark.parametrize("x", [Fraction(1, 3), 0.5, Fraction(3, 2), Fraction(-1, 4)])
def test_eval_requires_a_dyadic_in_the_unit_interval(x):
    with pytest.raises(ValueError):
        eval_pl(to_pl(GENS["x0"]), x)


# --- evaluation and composition -----------------------------------------------------


@given(elements, unit_dyadics)
def test_eval_matches_fraction_interpolation(g, x):
    f = to_pl(g)
    y = eval_pl(f, x)
    for (x0, y0), (x1, y1) in zip(f.points, f.points[1:]):
        if x0 <= x <= x1:
            assert y == y0 + (y1 - y0) * (x - x0) / (x1 - x0)
            break
    else:
        pytest.fail("sample point outside [0,1]")


@given(elements)
def test_endpoints_are_fixed(g):
    f = to_pl(g)
    assert eval_pl(f, Fraction(0)) == Fraction(0)
    assert eval_pl(f, Fraction(1)) == Fraction(1)


@given(elements, elements, unit_dyadics)
def test_composition_evaluates_pointwise(g, h, x):
    fg, fh = to_pl(g), to_pl(h)
    assert eval_pl(compose_pl(fg, fh), x) == eval_pl(fg, eval_pl(fh, x))


@given(elements)
def test_inverse_map(g):
    f = to_pl(g)
    assert compose_pl(f, f.invert()) == IDENTITY_MAP
    assert f.invert() == to_pl(th.invert(g))


# --- the correspondence ---------------------------------------------------------------


@given(elements)
def test_from_pl_round_trip(g):
    assert from_pl(to_pl(g)) == g


@given(elements, elements)
def test_to_pl_reverses_products(g, h):
    assert to_pl(th.multiply(g, h)) == compose_pl(to_pl(h), to_pl(g))


def test_identity_map_corresponds_to_identity():
    assert to_pl(th.IDENTITY) == IDENTITY_MAP
    assert from_pl(IDENTITY_MAP) == th.IDENTITY


def test_generator_maps():
    assert format_pl_map(to_pl(GENS["x0"])) == (
        "pl (0/2^0 -> 0/2^0) (1/2^2 -> 1/2^1) (1/2^1 -> 3/2^2) (1/2^0 -> 1/2^0)"
    )
    # x1 is x0 squeezed into the right half
    assert format_pl_map(to_pl(GENS["x1"])) == (
        "pl (0/2^0 -> 0/2^0) (1/2^1 -> 1/2^1) (5/2^3 -> 3/2^2) "
        "(3/2^2 -> 7/2^3) (1/2^0 -> 1/2^0)"
    )


# --- support and stabilizers ------------------------------------------------------------


def test_support_intervals():
    assert support_interval(th.IDENTITY) == (Fraction(0), Fraction(0))
    assert support_interval(GENS["x0"]) == (Fraction(0), Fraction(1))
    assert support_interval(GENS["x1"]) == (Fraction(1, 2), Fraction(1))
    assert support_interval(GENS["c0"]) == (Fraction(1, 4), Fraction(3, 4))
    assert support_interval(GENS["c1"]) == (Fraction(1, 2), Fraction(3, 4))


@given(elements)
def test_identity_outside_support(g):
    lo, hi = support_interval(g)
    f = to_pl(g)
    for x in (lo, hi, Fraction(0), Fraction(1)):
        assert eval_pl(f, x) == x


def test_stabilizes_halfpowers_spot_checks():
    assert stabilizes_halfpowers(th.IDENTITY)
    assert stabilizes_halfpowers(GENS["x1"])
    assert stabilizes_halfpowers(GENS["c1"])
    assert not stabilizes_halfpowers(GENS["x0"])
    # x0 fails because it moves 1/2 to 3/4, off the half-power set
    assert first_moved_halfpower(GENS["x0"]) == (1, Fraction(3, 4))
    # x0^-1 maps every 1/2^n to 1/2^(n+1), onto a proper subset: only the
    # inverse, x0, shows the failure
    assert first_moved_halfpower(th.invert(GENS["x0"])) == (1, Fraction(3, 4))


@given(elements)
def test_halfpower_stabilizer_is_closed_under_product_with_x1(g):
    # elements fixing [0,1/2] pointwise always stabilize
    shifted = th.shift_endo(g, "right")
    assert stabilizes_halfpowers(shifted)


def left_arm_signature(t):
    """Leaf counts of the right subtrees along the left arm of t, root first."""
    out = []
    while t != LEAF:
        out.append(leaf_count(t[1]))
        t = t[0]
    return out


def right_shift(g):
    return th.shift_endo(g, "right")


@given(
    st.one_of(
        elements,
        elements.map(right_shift),
        st.tuples(elements, elements).map(
            lambda p: th.multiply(right_shift(p[0]), right_shift(p[1]))
        ),
    )
)
def test_halfpower_test_matches_left_arm_signatures(g):
    # An increasing bijection of {1/2^n} onto itself is the identity, and g
    # fixes every 1/2^n exactly when source and target cut [0, 1] at the
    # same half-powers after the same numbers of leaves.
    expected = left_arm_signature(g.source) == left_arm_signature(g.target)
    assert stabilizes_halfpowers(g) == expected


# --- serialization ----------------------------------------------------------------------


def test_svg_document_is_deterministic():
    f = to_pl(GENS["c0"])
    doc = svg_document(f)
    assert doc == svg_document(f)
    assert doc.startswith("<svg")
    assert doc.rstrip().endswith("</svg>")
    assert doc.count("<polyline") == 1
    assert doc.count("<circle") == len(f.points)
