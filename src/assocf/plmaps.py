"""Exact dyadic piecewise-linear model of Thompson's group F.

Every element of F acts on [0, 1] as an increasing PL homeomorphism with
dyadic breakpoints and power-of-two slopes.  This module converts tree pairs
to and from that model, composes and evaluates maps exactly, and answers
whether an element permutes the half-powers 1/2^n.

No floating point anywhere.  SVG output uses exact decimal strings.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import total_ordering

from . import trees
from .thompson import reduce_pair


@total_ordering
class Dyadic:
    """Rational with power-of-two denominator: num / 2^exp, lowest terms.

    exp is never negative; a value in lowest terms has odd num or exp == 0.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num, exp=0):
        if exp < 0:
            num <<= -exp
            exp = 0
        if num == 0:
            exp = 0
        elif exp:
            tz = (num & -num).bit_length() - 1
            if tz:
                shift = tz if tz < exp else exp
                num >>= shift
                exp -= shift
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    @staticmethod
    def _coerce(v):
        if isinstance(v, Dyadic):
            return v
        if isinstance(v, int):
            return Dyadic(v)
        return None

    def __add__(self, other):
        other = Dyadic._coerce(other)
        if other is None:
            return NotImplemented
        e = max(self.exp, other.exp)
        return Dyadic((self.num << (e - self.exp)) + (other.num << (e - other.exp)), e)

    __radd__ = __add__

    def __sub__(self, other):
        other = Dyadic._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = Dyadic._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = Dyadic._coerce(other)
        if other is None:
            return NotImplemented
        return Dyadic(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def __neg__(self):
        return Dyadic(-self.num, self.exp)

    def __eq__(self, other):
        other = Dyadic._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __lt__(self, other):
        other = Dyadic._coerce(other)
        if other is None:
            return NotImplemented
        e = max(self.exp, other.exp)
        return (self.num << (e - self.exp)) < (other.num << (e - other.exp))

    def __hash__(self):
        return hash((self.num, self.exp))

    def __bool__(self):
        return self.num != 0

    def times_pow2(self, k):
        """Exact value * 2^k for any integer k."""
        return Dyadic(self.num, self.exp - k)

    def is_halfpower(self):
        """True iff the value is 1/2^m for some m >= 0."""
        return self.num == 1

    def __str__(self):
        return f"{self.num}/2^{self.exp}"

    def __repr__(self):
        return f"Dyadic({self.num}, {self.exp})"


ZERO = Dyadic(0)
ONE = Dyadic(1)

def _slope_log2(p0, p1):
    """log2 of the segment slope, or None if it is not a power of 2."""
    dx = p1[0] - p0[0]
    dy = p1[1] - p0[1]
    nx, ny = dx.num, dy.num
    tx = (nx & -nx).bit_length() - 1
    ty = (ny & -ny).bit_length() - 1
    if (nx >> tx) != (ny >> ty):
        return None
    return (ty - dy.exp) - (tx - dx.exp)


class PLMap:
    """Increasing PL self-homeomorphism of [0, 1].

    Breakpoints are (x, y) pairs of dyadics from (0,0) to (1,1), strictly
    increasing in both coordinates, every slope a power of 2, and no point
    collinear with its neighbours.  The constructor validates and drops collinear points.
    """

    __slots__ = ("points", "_xs")

    def __init__(self, points):
        pts = []
        for x, y in points:
            x = Dyadic._coerce(x)
            y = Dyadic._coerce(y)
            if x is None or y is None:
                raise ValueError("breakpoint coordinates must be Dyadic")
            pts.append((x, y))
        if len(pts) < 2 or pts[0] != (ZERO, ZERO) or pts[-1] != (ONE, ONE):
            raise ValueError("breakpoints must run from (0,0) to (1,1)")
        slopes = []
        for a, b in zip(pts, pts[1:]):
            if not (a[0] < b[0] and a[1] < b[1]):
                raise ValueError("breakpoints must be strictly increasing")
            s = _slope_log2(a, b)
            if s is None:
                raise ValueError("segment slope is not a power of 2")
            slopes.append(s)
        kept = [pts[0]]
        for i in range(1, len(pts) - 1):
            if slopes[i - 1] != slopes[i]:
                kept.append(pts[i])
        kept.append(pts[-1])
        object.__setattr__(self, "points", tuple(kept))
        object.__setattr__(self, "_xs", [p[0] for p in kept])

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
        return _slope_log2(self.points[0], self.points[1])

    def final_slope_log2(self):
        return _slope_log2(self.points[-2], self.points[-1])

    def max_breakpoint_exponent(self):
        """Max exponent over all coordinates (covers the inverse map too)."""
        return max(c.exp for p in self.points for c in p)

    def __str__(self):
        return format_pl_map(self)

    def __repr__(self):
        return f"<PLMap {format_pl_map(self)}>"


def eval_pl(f, x):
    """Exact value of f at a dyadic x in [0, 1]."""
    x = Dyadic._coerce(x)
    if x is None or x < ZERO or x > ONE:
        raise ValueError("argument must be a dyadic in [0, 1]")
    i = bisect_right(f._xs, x) - 1
    if i == len(f.points) - 1:
        i -= 1
    x0, y0 = f.points[i]
    s = _slope_log2(f.points[i], f.points[i + 1])
    return y0 + (x - x0).times_pow2(s)


def compose_pl(f, g):
    """Exact composition f after g (x maps to f(g(x)))."""
    xs = set(g._xs)
    ginv = g.invert()
    for x, _ in f.points:
        xs.add(eval_pl(ginv, x))
    return PLMap((x, eval_pl(f, eval_pl(g, x))) for x in sorted(xs))


def _boundaries(t):
    """Dyadic endpoints of the leaf intervals of t, from 0 to 1."""
    return [ZERO] + [Dyadic(k + 1, d) for k, d in trees.leaf_intervals(t)]


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
            if length.is_halfpower() and ylo.exp <= length.exp:
                pieces.append((lo, hi))
                return
        mid = (lo + hi).times_pow2(-1)
        split(lo, mid)
        split(mid, hi)

    split(ZERO, ONE)
    src_cuts = [p[0] for p in pieces] + [ONE]
    tgt_cuts = [eval_pl(f, x) for x in src_cuts]
    return reduce_pair(_tree_from_cuts(src_cuts), _tree_from_cuts(tgt_cuts))


def _tree_from_cuts(cuts):
    # Consecutive cuts bound standard intervals [k/2^d, (k+1)/2^d].
    def interval(lo, hi):
        d = (hi - lo).exp
        return lo.num << (d - lo.exp), d

    return trees.from_leaf_intervals(
        interval(lo, hi) for lo, hi in zip(cuts, cuts[1:])
    )


def stabilizes_halfpowers(g):
    """Does g permute the set {1/2^n : n >= 1}?

    Checked for n = 1 .. N0 with N0 = (max breakpoint exponent over g and
    g^-1) + |log2 initial slope| + 1, in both directions.  Beyond that every
    1/2^n sits strictly inside the first segment of both maps, where
    f(x) = 2^a x, so f(1/2^n) = 1/2^(n-a) with n - a >= 1: membership is
    automatic and cannot change the verdict.
    """
    f = to_pl(g)
    finv = f.invert()
    n0 = f.max_breakpoint_exponent() + abs(f.initial_slope_log2()) + 1
    for n in range(1, n0 + 1):
        x = Dyadic(1, n)
        if not eval_pl(f, x).is_halfpower():
            return False
        if not eval_pl(finv, x).is_halfpower():
            return False
    return True


def format_pl_map(f):
    return "pl " + " ".join(f"({x} -> {y})" for x, y in f.points)


def decimal_str(d):
    """Exact decimal string for a dyadic (n/2^e = n*5^e / 10^e)."""
    scaled = d.num * 5**d.exp
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    unit = 10**d.exp
    whole, frac = divmod(scaled, unit)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}." + str(frac).rjust(d.exp, "0").rstrip("0")


def svg_document(f):
    """Standalone 480-pixel SVG plotting the PL map f on the unit square.

    Coordinates are exact decimal strings derived from the dyadic data; no
    floating point is involved.
    """
    size, margin, color = 480, 20, "#1f6feb"
    inner = size - 2 * margin
    scale = Dyadic(inner)

    def px(v):
        return decimal_str(margin + v * scale)

    def py(v):
        return decimal_str(margin + (ONE - v) * scale)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="{margin}" y="{margin}" width="{inner}" height="{inner}" '
        'fill="white" stroke="#888"/>',
    ]
    for i in (1, 2, 3):
        v = Dyadic(i, 2)
        parts.append(
            f'<line x1="{px(v)}" y1="{py(ZERO)}" x2="{px(v)}" y2="{py(ONE)}" '
            'stroke="#ddd"/>'
        )
        parts.append(
            f'<line x1="{px(ZERO)}" y1="{py(v)}" x2="{px(ONE)}" y2="{py(v)}" '
            'stroke="#ddd"/>'
        )
    parts.append(
        f'<line x1="{px(ZERO)}" y1="{py(ZERO)}" x2="{px(ONE)}" y2="{py(ONE)}" '
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
