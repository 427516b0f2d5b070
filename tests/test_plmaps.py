"""Exact dyadic arithmetic and the PL-homeomorphism model."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_element, support_interval

from assocf import thompson as th
from assocf.plmaps import (
    ONE,
    ZERO,
    Dyadic,
    PLMap,
    compose_pl,
    decimal_str,
    eval_pl,
    format_pl_map,
    from_pl,
    stabilizes_halfpowers,
    svg_document,
    to_pl,
)

GENS = th.generators()
IDENTITY_MAP = PLMap(((ZERO, ZERO), (ONE, ONE)))
dyadics = st.tuples(st.integers(-200, 200), st.integers(0, 12)).map(
    lambda p: Dyadic(p[0], p[1])
)
unit_dyadics = st.tuples(st.integers(0, 256), st.integers(0, 8)).map(
    lambda p: Dyadic(min(p[0], 2 ** p[1]), p[1])
)
elements = st.integers(0, 2**31).map(
    lambda s: random_element(random.Random(s))
)


def as_fraction(d):
    return Fraction(d.num, 2**d.exp)


# --- dyadic arithmetic ----------------------------------------------------------


@given(dyadics, dyadics)
def test_dyadic_arithmetic_matches_fractions(a, b):
    assert as_fraction(a + b) == as_fraction(a) + as_fraction(b)
    assert as_fraction(a - b) == as_fraction(a) - as_fraction(b)
    assert as_fraction(a * b) == as_fraction(a) * as_fraction(b)
    assert (a < b) == (as_fraction(a) < as_fraction(b))
    assert (a == b) == (as_fraction(a) == as_fraction(b))
    assert (a <= b) == (as_fraction(a) <= as_fraction(b))


@given(dyadics)
def test_dyadic_is_normalized(d):
    # canonical form: odd numerator, or exponent 0
    assert d.num % 2 == 1 or d.exp == 0


@given(dyadics)
def test_decimal_str_is_exact(d):
    assert Fraction(decimal_str(d)) == as_fraction(d)


def test_halfpower_predicate():
    assert Dyadic(1, 3).is_halfpower()
    assert not Dyadic(3, 2).is_halfpower()
    assert Dyadic(1, 0).is_halfpower()  # 1 = 1/2^0 counts
    assert not Dyadic(0, 0).is_halfpower()
    assert not Dyadic(-1, 2).is_halfpower()


# --- PLMap validation ------------------------------------------------------------


def test_plmap_requires_unit_endpoints():
    with pytest.raises(ValueError):
        PLMap(((Dyadic(0, 0), Dyadic(0, 0)), (Dyadic(1, 1), Dyadic(1, 1))))


def test_plmap_requires_monotonicity():
    with pytest.raises(ValueError):
        PLMap(
            (
                (Dyadic(0, 0), Dyadic(0, 0)),
                (Dyadic(1, 1), Dyadic(1, 1)),
                (Dyadic(1, 2), Dyadic(3, 2)),
                (Dyadic(1, 0), Dyadic(1, 0)),
            )
        )


def test_plmap_requires_power_of_two_slopes():
    # segment from (0,0) to (1/4, 3/4) has slope 3
    with pytest.raises(ValueError):
        PLMap(
            (
                (Dyadic(0, 0), Dyadic(0, 0)),
                (Dyadic(1, 2), Dyadic(3, 2)),
                (Dyadic(1, 0), Dyadic(1, 0)),
            )
        )


def test_plmap_prunes_collinear_points():
    f = PLMap(
        (
            (Dyadic(0, 0), Dyadic(0, 0)),
            (Dyadic(1, 2), Dyadic(1, 2)),
            (Dyadic(1, 0), Dyadic(1, 0)),
        )
    )
    assert f == IDENTITY_MAP
    assert len(f.points) == 2


# --- evaluation and composition -----------------------------------------------------


@given(elements, unit_dyadics)
def test_eval_matches_fraction_interpolation(g, x):
    f = to_pl(g)
    y = as_fraction(eval_pl(f, x))
    pts = [(as_fraction(a), as_fraction(b)) for a, b in f.points]
    fx = as_fraction(x)
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x0 <= fx <= x1:
            assert y == y0 + (y1 - y0) * (fx - x0) / (x1 - x0)
            break
    else:
        pytest.fail("sample point outside [0,1]")


@given(elements)
def test_endpoints_are_fixed(g):
    f = to_pl(g)
    assert eval_pl(f, Dyadic(0, 0)) == Dyadic(0, 0)
    assert eval_pl(f, Dyadic(1, 0)) == Dyadic(1, 0)


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
    assert support_interval(th.IDENTITY) == (Dyadic(0, 0), Dyadic(0, 0))
    assert support_interval(GENS["x0"]) == (Dyadic(0, 0), Dyadic(1, 0))
    assert support_interval(GENS["x1"]) == (Dyadic(1, 1), Dyadic(1, 0))
    assert support_interval(GENS["c0"]) == (Dyadic(1, 2), Dyadic(3, 2))
    assert support_interval(GENS["c1"]) == (Dyadic(1, 1), Dyadic(3, 2))


@given(elements)
def test_identity_outside_support(g):
    lo, hi = support_interval(g)
    f = to_pl(g)
    for x in (lo, hi, Dyadic(0, 0), Dyadic(1, 0)):
        assert eval_pl(f, x) == x


def test_stabilizes_halfpowers_spot_checks():
    assert stabilizes_halfpowers(th.IDENTITY)
    assert stabilizes_halfpowers(GENS["x1"])
    assert stabilizes_halfpowers(GENS["c1"])
    assert not stabilizes_halfpowers(GENS["x0"])
    # x0 fails because it moves 1/2 to 3/4, off the half-power set
    assert eval_pl(to_pl(GENS["x0"]), Dyadic(1, 1)) == Dyadic(3, 2)


@given(elements)
def test_halfpower_stabilizer_is_closed_under_product_with_x1(g):
    # elements fixing [0,1/2] pointwise always stabilize
    shifted = th.shift_endo(g, "right")
    assert stabilizes_halfpowers(shifted)


# --- serialization ----------------------------------------------------------------------


def test_svg_document_is_deterministic():
    f = to_pl(GENS["c0"])
    doc = svg_document(f)
    assert doc == svg_document(f)
    assert doc.startswith("<svg")
    assert doc.rstrip().endswith("</svg>")
    assert doc.count("<polyline") == 1
    assert doc.count("<circle") == len(f.points)
