"""Exact dyadic piecewise-linear model of Thompson's group F.

Every element of F acts on [0, 1] as an increasing PL homeomorphism with
dyadic breakpoints and power-of-two slopes.  This module converts tree pairs
to and from that model, composes and evaluates maps exactly, and answers
whether an element permutes the half-powers 1/2^n.

Coordinates are ``fractions.Fraction`` values with power-of-two
denominators.  No floating point anywhere: text output writes a coordinate
as num/2^exp and SVG output uses exact decimal strings.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from . import trees
from .thompson import reduce_pair


def _dyadic(v):
    """v as a Fraction when it is an int or a Fraction with a power-of-two
    denominator, else None."""
    if isinstance(v, Fraction):
        return v if v.denominator & (v.denominator - 1) == 0 else None
    if isinstance(v, int):
        return Fraction(v)
    return None


def _exponent(v):
    """e with v = num / 2^e in lowest terms."""
    return v.denominator.bit_length() - 1


def _slope_log2(p0, p1):
    """log2 of the positive segment slope, or None if it is not a power of 2."""
    slope = (p1[1] - p0[1]) / (p1[0] - p0[0])
    num, den = slope.numerator, slope.denominator
    if num & (num - 1) or den & (den - 1):
        return None
    return num.bit_length() - den.bit_length()


class PLMap:
    """Increasing PL self-homeomorphism of [0, 1].

    Breakpoints are (x, y) pairs of dyadics from (0,0) to (1,1), strictly
    increasing in both coordinates, every slope a power of 2, and no point
    collinear with its neighbours.  The constructor validates, drops
    collinear points and keeps the log2 slope of each remaining segment.
    """

    __slots__ = ("points", "_xs", "_slopes")

    def __init__(self, points):
        pts = []
        for x, y in points:
            x, y = _dyadic(x), _dyadic(y)
            if x is None or y is None:
                raise ValueError("breakpoint coordinates must be dyadic rationals")
            pts.append((x, y))
        if len(pts) < 2 or pts[0] != (0, 0) or pts[-1] != (1, 1):
            raise ValueError("breakpoints must run from (0,0) to (1,1)")
        slopes = []
        for a, b in zip(pts, pts[1:]):
            if not (a[0] < b[0] and a[1] < b[1]):
                raise ValueError("breakpoints must be strictly increasing")
            s = _slope_log2(a, b)
            if s is None:
                raise ValueError("segment slope is not a power of 2")
            slopes.append(s)
        # the segments that start a new slope; the points between are collinear
        starts = [0] + [i for i in range(1, len(slopes)) if slopes[i - 1] != slopes[i]]
        kept = tuple(pts[i] for i in starts) + (pts[-1],)
        object.__setattr__(self, "points", kept)
        object.__setattr__(self, "_xs", [p[0] for p in kept])
        object.__setattr__(self, "_slopes", [slopes[i] for i in starts])

    def __setattr__(self, name, value):
        raise AttributeError("PLMap is immutable")

    def __eq__(self, other):
        if not isinstance(other, PLMap):
            return NotImplemented
        return self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def invert(self):
        return PLMap((y, x) for x, y in self.points)

    def initial_slope_log2(self):
        return self._slopes[0]

    def final_slope_log2(self):
        return self._slopes[-1]

    def max_breakpoint_exponent(self):
        """Max exponent over all coordinates (covers the inverse map too)."""
        return max(_exponent(c) for p in self.points for c in p)

    def __str__(self):
        return format_pl_map(self)

    def __repr__(self):
        return f"<PLMap {format_pl_map(self)}>"


def eval_pl(f, x):
    """Exact value of f at a dyadic x in [0, 1]."""
    x = _dyadic(x)
    if x is None or not 0 <= x <= 1:
        raise ValueError("argument must be a dyadic in [0, 1]")
    i = bisect_right(f._xs, x) - 1
    if i == len(f._slopes):
        i -= 1
    x0, y0 = f.points[i]
    s = f._slopes[i]
    return y0 + ((x - x0) * (1 << s) if s >= 0 else (x - x0) / (1 << -s))


def compose_pl(f, g):
    """Exact composition f after g (x maps to f(g(x)))."""
    xs = set(g._xs)
    ginv = g.invert()
    for x, _ in f.points:
        xs.add(eval_pl(ginv, x))
    return PLMap((x, eval_pl(f, eval_pl(g, x))) for x in sorted(xs))


def _boundaries(t):
    """The dyadic endpoints of the leaf intervals of t, from 0 to 1."""
    return [Fraction(0)] + [Fraction(k + 1, 1 << d) for k, d in trees.leaf_intervals(t)]


def to_pl(g):
    """PL map of a tree pair: source leaf intervals carried affinely onto
    target leaf intervals, in order."""
    return PLMap(zip(_boundaries(g.source), _boundaries(g.target)))


def from_pl(f):
    """The unique reduced tree pair whose PL map is f.

    Recursively halve standard dyadic intervals until each piece contains no
    interior breakpoint and has a standard image.  That terminates: once a
    piece [k/2^n, (k+1)/2^n] is inside one affine segment of slope 2^s with
    intercept c = f(x) - 2^s x, the image endpoint f(k/2^n) = c + k 2^(s-n)
    is a multiple of 2^(s-n) as soon as n >= exp(c) + s.  The ordered pieces
    are the source leaves, their images the target leaves, and any partition
    of [0,1] into standard intervals is cut by a unique binary tree (no
    standard interval straddles a midpoint).
    """
    interior = f._xs[1:-1]
    pieces = []

    def split(lo, hi):
        if not any(lo < x < hi for x in interior):
            ylo, yhi = eval_pl(f, lo), eval_pl(f, hi)
            length = yhi - ylo
            # a half-power length, and ylo a multiple of it
            if length.numerator == 1 and ylo.denominator <= length.denominator:
                pieces.append((lo, hi))
                return
        mid = (lo + hi) / 2
        split(lo, mid)
        split(mid, hi)

    split(Fraction(0), Fraction(1))
    src_cuts = [p[0] for p in pieces] + [Fraction(1)]
    tgt_cuts = [eval_pl(f, x) for x in src_cuts]
    return reduce_pair(_tree_from_cuts(src_cuts), _tree_from_cuts(tgt_cuts))


def _tree_from_cuts(cuts):
    # Consecutive cuts bound standard intervals [k/2^d, (k+1)/2^d].
    def interval(lo, hi):
        width = (hi - lo).denominator
        return lo.numerator * width // lo.denominator, width.bit_length() - 1

    return trees.from_leaf_intervals(
        interval(lo, hi) for lo, hi in zip(cuts, cuts[1:])
    )


def first_moved_halfpower(g):
    """The first (n, image) such that g, or else g^-1, maps 1/2^n to an image
    outside {1/2^k}; None when g permutes the set {1/2^n : n >= 1}.

    Checked for n = 1 .. N0 with N0 = (max breakpoint exponent over g and
    g^-1) + |log2 initial slope| + 1.  Beyond that every 1/2^n sits strictly
    inside the first segment of both maps, where f(x) = 2^a x, so
    f(1/2^n) = 1/2^(n-a) with n - a >= 1: membership is automatic and cannot
    change the verdict.
    """
    f = to_pl(g)
    finv = f.invert()
    n0 = f.max_breakpoint_exponent() + abs(f.initial_slope_log2()) + 1
    for n in range(1, n0 + 1):
        x = Fraction(1, 1 << n)
        for h in (f, finv):
            image = eval_pl(h, x)
            if image.numerator != 1:
                return n, image
    return None


def stabilizes_halfpowers(g):
    """Does g permute the set {1/2^n : n >= 1}?  See first_moved_halfpower."""
    return first_moved_halfpower(g) is None


def dyadic_str(v):
    """A dyadic as num/2^exp in lowest terms; 0 is 0/2^0."""
    return f"{v.numerator}/2^{_exponent(v)}"


def format_pl_map(f):
    return "pl " + " ".join(f"({dyadic_str(x)} -> {dyadic_str(y)})" for x, y in f.points)


def decimal_str(d):
    """Exact decimal string for a dyadic (n/2^e = n*5^e / 10^e)."""
    exp = _exponent(d)
    scaled = d.numerator * 5**exp
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    unit = 10**exp
    whole, frac = divmod(scaled, unit)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}." + str(frac).rjust(exp, "0").rstrip("0")


def svg_document(f):
    """Standalone 480-pixel SVG plotting the PL map f on the unit square.

    Coordinates are exact decimal strings derived from the dyadic data; no
    floating point is involved.
    """
    size, margin, color = 480, 20, "#1f6feb"
    inner = size - 2 * margin

    def px(v):
        return decimal_str(margin + v * inner)

    def py(v):
        return decimal_str(margin + (1 - v) * inner)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="{margin}" y="{margin}" width="{inner}" height="{inner}" '
        'fill="white" stroke="#888"/>',
    ]
    for i in (1, 2, 3):
        v = Fraction(i, 4)
        parts.append(
            f'<line x1="{px(v)}" y1="{py(0)}" x2="{px(v)}" y2="{py(1)}" '
            'stroke="#ddd"/>'
        )
        parts.append(
            f'<line x1="{px(0)}" y1="{py(v)}" x2="{px(1)}" y2="{py(v)}" '
            'stroke="#ddd"/>'
        )
    parts.append(
        f'<line x1="{px(0)}" y1="{py(0)}" x2="{px(1)}" y2="{py(1)}" '
        'stroke="#bbb" stroke-dasharray="4 3"/>'
    )
    coords = " ".join(f"{px(x)},{py(y)}" for x, y in f.points)
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        'stroke-width="2"/>'
    )
    for x, y in f.points:
        parts.append(f'<circle cx="{px(x)}" cy="{py(y)}" r="3" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts)
