"""Thompson's group F as reduced tree pairs.

An element is a pair of binary trees with the same leaf count.  The pair
(source, target) acts on [0,1] as the piecewise-linear map carrying the
leaf intervals of the source tree affinely onto the leaf intervals of
the target tree, in order.  Two pairs represent the same element when
they have a common simultaneous expansion; every class contains a
unique reduced pair (no caret can be cancelled from both trees at the
same leaf position), which is what ``FElement`` stores.

Products compose left factor first: the map of g*h is "do g, then h".
Conventions used throughout:

    conjugation  g^h      = h^-1 * g * h
    commutator   [g, h]   = g * h * g^-1 * h^-1

The standard generators are

    x0 = pair ((. .) .) (. (. .))      (slope 2 at the origin)
    x1 = s1(x0)                        (x0 squeezed into [1/2, 1])

and satisfy s1(x1) = x1^x0 =: x2.  The elements c0 = [x0, x1] and
c1 = [c0, s1(c0)] generate the copy of F supported on [1/4, 3/4].
"""

from dataclasses import dataclass
from functools import cache

from . import trees
from .errors import BudgetExceeded, ParseError
from .trees import LEAF, format_tree, free_carets, leaf_count, parse_tree


@dataclass(frozen=True)
class FElement:
    """A reduced tree pair. Construct via reduce_pair unless known reduced."""

    source: tuple
    target: tuple

    def __post_init__(self):
        if leaf_count(self.source) != leaf_count(self.target):
            raise ValueError("tree pair must have equal leaf counts")
        if free_carets(self.source) & free_carets(self.target):
            raise ValueError("tree pair is not reduced")

    def __str__(self):
        return f"pair {format_tree(self.source)} {format_tree(self.target)}"

    @property
    def leaves(self):
        return leaf_count(self.source)


def reduce_pair(p, q):
    """Cancel common free carets until none remain."""
    if leaf_count(p) != leaf_count(q):
        raise ValueError("tree pair must have equal leaf counts")
    while True:
        common = free_carets(p) & free_carets(q)
        if not common:
            return FElement(p, q)
        i = min(common)
        p = trees.remove_caret(p, i)
        q = trees.remove_caret(q, i)


IDENTITY = FElement(LEAF, LEAF)


def multiply(g, h):
    """g*h: the element acting as g first, then h."""
    middle = trees.join(g.target, h.source)
    expand_g = trees.expansion_path(middle, g.target)
    expand_h = trees.expansion_path(middle, h.source)
    return reduce_pair(expand_g.apply(g.source), expand_h.apply(h.target))


def invert(g):
    return FElement(g.target, g.source)


def power(g, k):
    if k < 0:
        g, k = invert(g), -k
    out = IDENTITY
    for _ in range(k):
        out = multiply(out, g)
    return out


def conjugate(g, h):
    """g^h = h^-1 g h."""
    return multiply(multiply(invert(h), g), h)


def commutator(g, h):
    """[g, h] = g h g^-1 h^-1."""
    return multiply(multiply(g, h), multiply(invert(g), invert(h)))


def shift_endo(g, side):
    """Squeeze g into the left or right half of [0,1].

    Both trees of the pair are hung under a fresh root caret on the given
    side; on the other half the result acts as the identity.
    """
    return reduce_pair(trees.shift(g.source, side), trees.shift(g.target, side))


def reflect(g):
    """Conjugation by t -> 1-t: mirror both trees."""
    return FElement(trees.reflect(g.source), trees.reflect(g.target))


@cache
def generators():
    """The named elements x0, x1, x2, c0, c1."""
    x0 = FElement(parse_tree("((. .) .)"), parse_tree("(. (. .))"))
    x1 = shift_endo(x0, "right")
    x2 = conjugate(x1, x0)
    c0 = commutator(x0, x1)
    c1 = commutator(c0, shift_endo(c0, "right"))
    return {"x0": x0, "x1": x1, "x2": x2, "c0": c0, "c1": c1}


def abelianize(g):
    """Image of g in F/[F,F], identified with Z x Z.

    The quotient is computed from the endpoint slopes of the PL map of
    g: with a = log2 of the slope at 0 and b = log2 of the slope at 1,
    the pair (a, b) is additive under products and the normalization
    (m, n) = (a, -(a+b)) sends x0 to (1,0) and x1 to (0,1).  Endpoint
    slopes come straight from the extreme leaf depths of the two trees.
    """
    a = trees.leftmost_leaf_depth(g.source) - trees.leftmost_leaf_depth(g.target)
    b = trees.rightmost_leaf_depth(g.source) - trees.rightmost_leaf_depth(g.target)
    return (a, -(a + b))


def in_commutator_subgroup(g):
    return abelianize(g) == (0, 0)


@dataclass(frozen=True)
class NormalSubgroupSpec:
    """Normal subgroup named by its abelianized image.

    A nonzero spec (m, n) denotes the preimage in F of the subgroup of
    Z x Z generated by (m, -m) and (0, n).  The zero spec (0, 0) denotes
    the trivial subgroup.
    """

    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError("spec components must be nonnegative")


def normal_membership(g, spec):
    m, n = spec.m, spec.n
    if m == 0 and n == 0:
        return g == IDENTITY
    big_m, big_n = abelianize(g)
    if m == 0:
        if big_m != 0:
            return False
        return big_n == 0 if n == 0 else big_n % n == 0
    if big_m % m != 0:
        return False
    a = big_m // m
    rest = big_n + a * m
    return rest == 0 if n == 0 else rest % n == 0


def random_element(rng, max_factors=20):
    """Product of up to max_factors random generator letters."""
    gens = generators()
    letters = [gens["x0"], gens["x1"], invert(gens["x0"]), invert(gens["x1"])]
    out = IDENTITY
    for _ in range(rng.randint(1, max_factors)):
        out = multiply(out, rng.choice(letters))
    return out


# --- word and pair literals ---------------------------------------------

_nonletter = frozenset("*^[](),")

# Largest |k| parse_word raises to.  power multiplies k times and each
# product costs about k^3, so x0^k grows as k^4: x0^100 takes 0.46 s,
# x0^200 6.7 s and x0^400 91 s on a 2-vCPU Xeon under Python 3.11.
EXPONENT_CAP = 200


def parse_word(text):
    """Parse a word over x0, x1, x2, c0, c1.

    Grammar: '*' concatenates, '^' raises to an integer power or
    conjugates by another element, '[g,h]' is the commutator, and
    parentheses group.  '^' binds tighter than '*'.  An exponent beyond
    EXPONENT_CAP in absolute value raises BudgetExceeded before its power
    is computed.
    """
    gens = generators()
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def peek():
        skip_ws()
        return text[pos] if pos < n else ""

    def parse_int():
        nonlocal pos
        skip_ws()
        start = pos
        if pos < n and text[pos] in "+-":
            pos += 1
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start or not text[start:pos].lstrip("+-"):
            raise ParseError("expected an integer exponent", start)
        return int(text[start:pos])

    def parse_atom():
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise ParseError("unexpected end of word", pos)
        ch = text[pos]
        if ch == "(":
            pos += 1
            inner = parse_expr()
            if peek() != ")":
                raise ParseError("expected ')'", pos)
            pos += 1
            return inner
        if ch == "[":
            pos += 1
            left = parse_expr()
            if peek() != ",":
                raise ParseError("expected ',' in commutator", pos)
            pos += 1
            right = parse_expr()
            if peek() != "]":
                raise ParseError("expected ']'", pos)
            pos += 1
            return commutator(left, right)
        start = pos
        while pos < n and not text[pos].isspace() and text[pos] not in _nonletter:
            pos += 1
        name = text[start:pos]
        if name not in gens:
            raise ParseError(f"unknown generator {name!r}", start)
        return gens[name]

    def parse_factor():
        nonlocal pos
        value = parse_atom()
        while peek() == "^":
            pos += 1
            skip_ws()
            if pos < n and (text[pos].isdigit() or text[pos] in "+-"):
                k = parse_int()
                if abs(k) > EXPONENT_CAP:
                    raise BudgetExceeded(
                        f"exponent {k} exceeds the cap of {EXPONENT_CAP}"
                    )
                value = power(value, k)
            else:
                value = conjugate(value, parse_atom())
        return value

    def parse_expr():
        value = parse_factor()
        while peek() == "*":
            nonlocal pos
            pos += 1
            value = multiply(value, parse_factor())
        return value

    out = parse_expr()
    skip_ws()
    if pos != n:
        raise ParseError("trailing input after word", pos)
    return out


def parse_pair_literal(text):
    """Parse the serialized form "pair <tree> <tree>"."""
    body = text.strip()
    if not body.startswith("pair"):
        raise ParseError("pair literal must start with 'pair'", 0)
    body = body[4:]
    # Split into two balanced tree literals.
    depth = 0
    split = None
    for idx, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                split = idx + 1
                break
        elif ch == "." and depth == 0:
            split = idx + 1
            break
    if split is None:
        raise ParseError("could not split pair literal into two trees", 4)
    p = parse_tree(body[:split])
    q = parse_tree(body[split:])
    try:
        return reduce_pair(p, q)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_element(text):
    """Accept either a word or a "pair <tree> <tree>" literal."""
    if text.strip().startswith("pair"):
        return parse_pair_literal(text)
    return parse_word(text)
