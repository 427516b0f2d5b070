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


@dataclass(frozen=True, slots=True)
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
    """Cancel common free carets until none remain.

    One pass over the leaves, as dyadic intervals of both trees: each goes
    on a stack and merges with the one below it while the two are sibling
    halves in both trees, which cancels their caret.  A stacked pair is
    compared once both entries are final, so no common caret is left, and
    the reduced pair is unique.  A pair with no caret free at the same
    leaves in both trees has nothing to cancel: it is returned as it is,
    without the walk, and keeps its trees and with them any node sharing.
    """
    p_free, p_count = trees.free_carets_and_leaves(p)
    q_free, q_count = trees.free_carets_and_leaves(q)
    if p_count != q_count:
        raise ValueError("tree pair must have equal leaf counts")
    if not p_free & q_free:
        return _checked(p, q)
    p_leaves, q_leaves = trees.leaf_intervals(p), trees.leaf_intervals(q)
    stack = []
    for (pk, pd), (qk, qd) in zip(p_leaves, q_leaves):
        while stack:
            (lpk, lpd), (lqk, lqd) = stack[-1]
            if (lpd, lqd) != (pd, qd) or lpk % 2 or lqk % 2:
                break
            stack.pop()
            pk, pd, qk, qd = lpk >> 1, pd - 1, lqk >> 1, qd - 1
        stack.append(((pk, pd), (qk, qd)))
    return _checked(
        trees.from_leaf_intervals(a for a, _ in stack),
        trees.from_leaf_intervals(b for _, b in stack),
    )


def _checked(p, q):
    # An FElement whose leaf counts and free carets the caller has checked.
    g = object.__new__(FElement)
    object.__setattr__(g, "source", p)
    object.__setattr__(g, "target", q)
    return g


def share(g):
    """g with both trees rebuilt from the sharing table of ``trees``."""
    return _checked(trees.share(g.source), trees.share(g.target))


IDENTITY = FElement(LEAF, LEAF)


def multiply(g, h):
    """g*h: the element acting as g first, then h.

    Both pairs are expanded to meet at the smallest common expansion of
    g's target and h's source: the carets it adds under a leaf of either
    tree are carried to the same leaf of the other tree of its pair.  The
    expanded pair has at most the carets of g and h together, so at most
    that many levels; past trees.PARSE_DEPTH_CAP carets it raises
    BudgetExceeded, since the tree routines recurse once per level.
    """
    _check_carets(g.leaves - 1, h.leaves - 1)
    return _product(g, _shapes(g), h, _shapes(h))


def _check_carets(g_carets, h_carets):
    if g_carets + h_carets > trees.PARSE_DEPTH_CAP:
        raise BudgetExceeded(
            f"a product of {g_carets} and {h_carets} carets could nest "
            f"deeper than {trees.PARSE_DEPTH_CAP} levels"
        )


def _shapes(g):
    # the preorder shapes of g's source and target; a shape of c carets has
    # 2c + 1 entries
    return trees.preorder_shape(g.source), trees.preorder_shape(g.target)


def _product(g, g_shapes, h, h_shapes):
    # multiply(g, h), given _shapes(g) and _shapes(h), for factors that
    # passed _check_carets
    middle = trees.join(g.target, h.source)
    # each outer tree gets the subtrees that middle hangs under its
    # partner's leaves
    source = trees.graft(g_shapes[0], trees.capture(g_shapes[1], middle))
    target = trees.graft(h_shapes[1], trees.capture(h_shapes[0], middle))
    return reduce_pair(source, target)


def invert(g):
    return FElement(g.target, g.source)


def power(g, k):
    if k < 0:
        g, k = invert(g), -k
    out = IDENTITY
    while k:  # by repeated squaring
        if k & 1:
            out = multiply(out, g)
        k >>= 1
        if k:
            g = multiply(g, g)
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
        return big_m == 0 and big_n % n == 0
    if big_m % m != 0:
        return False
    a = big_m // m
    rest = big_n + a * m
    return rest == 0 if n == 0 else rest % n == 0


# --- word and pair literals ---------------------------------------------

_nonletter = frozenset("*^[](),")

# Largest |k| parse_word raises to, checked before any product is made.
# power squares and each product is linear in the trees, so x0^200 takes
# 1 ms on a 2-vCPU Xeon under Python 3.11; depth is bounded by multiply.
EXPONENT_CAP = 200

# Deepest nesting of '(' and '[' parse_word accepts.  The parser recurses
# once per level, and a product made at the innermost level recurses up to
# trees.PARSE_DEPTH_CAP (500) levels through the tree routines, so this
# leaves 200 of Python's default 1000 frames to the callers.
WORD_DEPTH_CAP = 300


def parse_word(text):
    """Parse a word over x0, x1, x2, c0, c1.

    Grammar: '*' concatenates, '^' raises to an integer power or
    conjugates by another element, '[g,h]' is the commutator, and
    parentheses group.  '^' binds tighter than '*'.  An exponent beyond
    EXPONENT_CAP in absolute value raises BudgetExceeded before its power
    is computed, and a '(' or '[' deeper than WORD_DEPTH_CAP before its
    group is read.
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

    def expect(ch, message):
        nonlocal pos
        if peek() != ch:
            raise ParseError(message, pos)
        pos += 1

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

    def parse_expr(depth):
        # expr := factor ('*' factor)*, factor := atom ('^' (int | atom))*.
        # Every atom, a conjugating one too, is read in this loop, so only a
        # group recurses: one frame per level of nesting.
        nonlocal pos
        product = factor = None
        while True:
            skip_ws()
            if pos >= n:
                raise ParseError("unexpected end of word", pos)
            opener = text[pos]
            if opener in "([":
                if depth == WORD_DEPTH_CAP:
                    raise BudgetExceeded(
                        f"word nests deeper than {WORD_DEPTH_CAP} levels"
                    )
                pos += 1
                atom = parse_expr(depth + 1)
                if opener == "[":
                    expect(",", "expected ',' in commutator")
                    right = parse_expr(depth + 1)
                    expect("]", "expected ']'")
                    atom = commutator(atom, right)
                else:
                    expect(")", "expected ')'")
            else:
                start = pos
                while pos < n and not (text[pos].isspace() or text[pos] in _nonletter):
                    pos += 1
                name = text[start:pos]
                if name not in gens:
                    raise ParseError(f"unknown generator {name!r}", start)
                atom = gens[name]
            factor = atom if factor is None else conjugate(factor, atom)
            while peek() == "^":
                pos += 1
                skip_ws()
                if not (pos < n and (text[pos].isdigit() or text[pos] in "+-")):
                    break  # the next atom conjugates the factor
                k = parse_int()
                if abs(k) > EXPONENT_CAP:
                    raise BudgetExceeded(
                        f"exponent {k} exceeds the cap of {EXPONENT_CAP}"
                    )
                factor = power(factor, k)
            else:
                product = factor if product is None else multiply(product, factor)
                factor = None
                if peek() != "*":
                    return product
                pos += 1

    out = parse_expr(0)
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
