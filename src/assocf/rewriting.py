"""Equational rewriting for leaf-order-preserving laws.

Laws here keep every variable exactly once, in order, on both sides, so a
rewrite step never changes the leaf count of the host tree.  That makes
derivability at a fixed leaf count a finite breadth-first search, and
"derivable after some simultaneous expansion" a bounded outer search over
expanded pairs.  There is one search, with nothing to switch on: every
negative at a fixed leaf count is the whole rewrite class of the first
tree, exhausted without meeting the second.  On top of that sit the shift
operators and a bounded closure generator for shift-invariant subgroups of
F, which turn subgroup membership questions into derivability questions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from . import thompson, trees
from .errors import BudgetExceeded, ParseError
from .magmas import Law, parse_law
from .trees import LEAF, ExpansionWord, format_tree, leaf_count

# BFS state space at n leaves is the Catalan number C(n-1); 14 leaves
# (742900 trees) is the largest desk-sized slice.
LEAF_CAP = 14

# Most products closure_generate may build, counted as |seeds|^depth.  The x1
# closure passes at depth 3 (31^3 = 29,791; it builds 15,728 products and
# takes about 0.3 s on a 2-vCPU Xeon under Python 3.11) and stops at depth 4
# (63^4 = 15,752,961), which did not finish in 40 s when depth 3 took a
# second.
CLOSURE_GUARD = 100_000

# Most leaves of a subtree whose neighbour list a search keeps.  Small
# subtrees recur in many trees of a rewrite class, while a large one is
# mostly new in each, so its list would be kept for nothing.  The memo
# holds at most one list per tree of up to 6 leaves, 65 in all, however
# large the search.
MEMO_LEAVES = 6


@dataclass(frozen=True)
class VarietyPresentation:
    """A finite set of laws, fixed in presentation order."""

    laws: tuple

    def __post_init__(self):
        object.__setattr__(self, "laws", tuple(self.laws))
        for law in self.laws:
            if not isinstance(law, Law):
                raise TypeError(f"expected Law, got {type(law).__name__}")

    @staticmethod
    def from_elements(elements):
        """Laws read off the reduced tree pairs of group elements."""
        return VarietyPresentation(
            tuple(Law(g.source, g.target) for g in elements)
        )


def load_variety(text):
    """One law per line; '#' comments and blank lines are skipped."""
    laws = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            laws.append(parse_law(line))
        except (ParseError, ValueError) as err:
            message = err.args[0] if err.args else str(err)
            raise ParseError(message, location=lineno) from err
    if not laws:
        raise ParseError("no laws in variety file")
    return VarietyPresentation(tuple(laws))


@dataclass(frozen=True)
class RewriteStep:
    """One application of a law at a vertex.

    substitution[i] is the subtree standing for the law's i-th variable;
    the step is self-contained (carries its Law), law_index names it in the
    presentation for display.
    """

    vertex: str
    law: Law
    law_index: int
    forward: bool
    substitution: tuple

    def __str__(self):
        arrow = "left-to-right" if self.forward else "right-to-left"
        where = self.vertex or "root"
        return f"at {where}: law #{self.law_index + 1} {arrow}"


def instantiate(pattern, substitution):
    """Graft substitution subtrees onto the pattern's leaves, in order."""
    shape = trees.preorder_shape(pattern)
    used = shape.count(False)
    if used != len(substitution):
        raise ValueError(
            f"pattern has {used} variables, substitution has {len(substitution)}"
        )
    return trees.graft(shape, substitution)


def apply_step(t, step):
    src, dst = (
        (step.law.lhs, step.law.rhs)
        if step.forward
        else (step.law.rhs, step.law.lhs)
    )
    here = trees.subtree_at(t, step.vertex)
    if here != instantiate(src, step.substitution):
        raise ValueError(f"law does not match at vertex {step.vertex!r}")
    return trees.replace_at(t, step.vertex, instantiate(dst, step.substitution))


class _Rule(NamedTuple):
    """One direction of a law, compiled for the search."""

    src: tuple  # preorder shape of the side that must match
    rewrite: object  # t -> the rewrite of t at its root, or None (_compile)
    law: Law
    law_index: int
    forward: bool


# Distinct law directions whose compiled code a process keeps.
COMPILE_CACHE = 256


@lru_cache(maxsize=COMPILE_CACHE)
def _compile(src, dst):
    """A function of t that is graft(dst, capture(src, t)), or None where
    capture gives None, as straight-line code: one statement per caret.

    The match side unpacks t along src in preorder and returns None at
    the first leaf where src has a caret; the build side joins the
    captured subtrees along dst read back to front, as graft does.  No
    statement nests another, so a law of any depth compiles.  The source
    is made from the two shapes alone: it holds only generated names (nK
    for matched subtrees, bK for built ones) and tuple syntax, never text
    read from a variety file.
    """
    lines = ["def rewrite(n0):"]
    captured = []
    pending = ["n0"]
    made = 0
    for caret in src:
        name = pending.pop()
        if not caret:
            captured.append(name)
            continue
        left, right = f"n{made + 1}", f"n{made + 2}"
        made += 2
        # a leaf is (), the one falsy tree
        lines.append(f"    if not {name}: return None")
        lines.append(f"    {left}, {right} = {name}")
        pending += [right, left]
    built = []
    for caret in reversed(dst):
        if caret:
            name = f"b{len(lines)}"
            lines.append(f"    {name} = ({built.pop()}, {built.pop()})")
            built.append(name)
        else:
            built.append(captured.pop())
    lines.append(f"    return {built[0]}")
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["rewrite"]


def _rules(variety):
    """Every non-trivial law direction, by law index, forward first."""
    out = []
    for law_index, law in enumerate(variety.laws):
        if law.is_trivial:
            continue
        for forward in (True, False):
            src, dst = (law.lhs, law.rhs) if forward else (law.rhs, law.lhs)
            src, dst = trees.preorder_shape(src), trees.preorder_shape(dst)
            out.append(_Rule(src, _compile(src, dst), law, law_index, forward))
    return tuple(out)


def _neighbors(t, rules, memo):
    """(every rewrite of t, t's leaf count).

    The rewritten trees come in canonical order: vertex preorder, then law
    index, then forward before backward, and a tree two rewrites reach
    comes twice.  A rewrite below the root happens inside one child, so
    t's list is its root rewrites, then the left child's list under
    (., right), then the right child's under (left, .).  memo serves one
    set of rules and keeps the answers for trees of at most MEMO_LEAVES
    leaves.

    A leaf matches no rule: a non-trivial law has a caret at the root of
    both sides, since its sides have equal leaf counts.
    """
    if t == LEAF:
        return [], 1
    known = memo.get(t)
    if known is not None:
        return known
    out = []
    for rule in rules:
        new = rule.rewrite(t)
        if new is not None:
            out.append(new)
    left, right = t
    below, left_leaves = _neighbors(left, rules, memo)
    out += [(new, right) for new in below]
    below, right_leaves = _neighbors(right, rules, memo)
    out += [(left, new) for new in below]
    leaves = left_leaves + right_leaves
    if leaves <= MEMO_LEAVES:
        memo[t] = out, leaves
    return out, leaves


def _leaves(p, q):
    """The leaf count p and q share."""
    leaves = leaf_count(p)
    if leaves != leaf_count(q):
        raise ValueError("derivability needs equal leaf counts")
    return leaves


def _check_cap(leaves):
    if leaves > LEAF_CAP:
        raise BudgetExceeded(f"{leaves} leaves exceeds the search cap {LEAF_CAP}")


def _search(p, q, rules, memo):
    """(proof or None, the rewrite class of p when the BFS exhausted it).

    The class is None when p == q or a proof was found.  memo holds
    neighbour lists for these rules (see _neighbors).
    """
    if p == q:
        return (), None
    # parents[t] is the tree whose rewrite first reached t; the steps are
    # recovered only along the proof that is returned
    parents = {p: None}
    frontier = deque([p])
    while frontier:
        t = frontier.popleft()
        for neighbor in _neighbors(t, rules, memo)[0]:
            if neighbor in parents:
                continue
            parents[neighbor] = t
            if neighbor == q:
                return _proof(parents, q, rules), None
            frontier.append(neighbor)
    return None, parents


def _proof(parents, q, rules):
    """The steps along the parents chain from its root to q."""
    steps = []
    at = q
    while parents[at] is not None:
        steps.append(_step(parents[at], at, rules))
        at = parents[at]
    return tuple(reversed(steps))


def _step(prev, nxt, rules):
    """The first rewrite of prev into nxt in canonical order.

    A rewrite changes only the subtree at its vertex, so it can give nxt
    only at a vertex whose subtree holds every place where prev and nxt
    differ.  Those vertices lie on one path down from the root, and
    preorder meets them from the root down.
    """
    vertex = ""
    while True:
        for rule in rules:
            if rule.rewrite(prev) == nxt:
                captured = trees.capture(rule.src, prev)
                return RewriteStep(
                    vertex, rule.law, rule.law_index, rule.forward, captured
                )
        # nothing gives nxt here, so the rewrite lies inside the one child
        # in which the two trees differ
        side = 0 if prev[1] == nxt[1] else 1
        vertex += "01"[side]
        prev, nxt = prev[side], nxt[side]


def derivable(p, q, variety):
    """Proof (tuple of RewriteStep) rewriting p into q, or None.

    The proof is the first shortest one in canonical order, compared step
    by step: vertex preorder, then law index, then forward before
    backward.  The search space is all trees with p's leaf count, so
    exhaustion of the reachable class certifies non-derivability at this
    leaf count (not at expansions; see eventually_derivable).
    """
    _check_cap(_leaves(p, q))
    proof, _ = _search(p, q, _rules(variety), {})
    return proof


def format_proof(p, steps):
    """Numbered steps with every intermediate tree."""
    lines = [f"start {format_tree(p)}"]
    t = p
    for k, step in enumerate(steps, 1):
        t = apply_step(t, step)
        lines.append(f"{k}. {step} -> {format_tree(t)}")
    return "\n".join(lines)


def expansion_frontier(lhs, rhs, budget):
    """Simultaneous expansions of the pair (lhs, rhs), breadth first by
    added carets: yields (level, lhs', rhs', applied) for every distinct
    pair within `budget` added carets, where `applied` lists the expanded
    leaf indices in application order.  Within a level, pairs come in the
    order of the pairs they grew from, then by leaf index.

    The budget is checked when this is called, not when it is iterated.
    """
    if budget < 0:
        raise ValueError(f"caret budget must be >= 0, got {budget}")
    return _frontier(lhs, rhs, budget)


def _frontier(lhs, rhs, budget):
    leaves = leaf_count(lhs)  # each level adds one leaf
    seen = {(lhs, rhs)}
    frontier = [(lhs, rhs, ())]
    for level in range(budget + 1):
        for lhs, rhs, applied in frontier:
            yield level, lhs, rhs, applied
        if level == budget:
            return
        grown = []
        for lhs, rhs, applied in frontier:
            for i in range(1, leaves + level + 1):
                key = (trees.expand(lhs, i), trees.expand(rhs, i))
                if key not in seen:
                    seen.add(key)
                    grown.append((key[0], key[1], applied + (i,)))
        frontier = grown


@dataclass(frozen=True)
class DerivabilityResult:
    """Outcome of the bounded eventual-derivability search.

    kind "holds": proof found for the pair expanded by `expansion`.
    kind "fails-up-to": every simultaneous expansion within the caret
    budget was exhausted without a proof.
    """

    kind: str
    expansion: object = None
    proof: object = None
    pairs_checked: int = 0

    def __bool__(self):
        return self.kind == "holds"


def eventually_derivable(p, q, variety, budget=3):
    """Run derivable on every simultaneous expansion of (p, q), breadth
    first by added carets, up to the budget.

    A failed search has walked the whole rewrite class of its lhs, so each
    such class is labelled for the rest of this call: a later pair whose lhs
    lies in a labelled class and whose rhs does not is answered without a
    search.  Such an lhs passed the leaf cap when its class was searched.
    """
    leaves = _leaves(p, q)
    pairs = expansion_frontier(p, q, budget)
    rules = _rules(variety)
    memo = {}  # neighbour lists, shared by every pair: the rules are fixed
    labels = {}  # tree -> number of its exhausted rewrite class
    classes = 0
    checked = 0
    for level, lhs, rhs, applied in pairs:
        checked += 1
        label = labels.get(lhs)
        if label is not None and labels.get(rhs) != label:
            continue
        _check_cap(leaves + level)
        proof, exhausted = _search(lhs, rhs, rules, memo)
        if proof is not None:
            return DerivabilityResult(
                "holds",
                expansion=ExpansionWord.from_applied(applied),
                proof=proof,
                pairs_checked=checked,
            )
        if exhausted is not None:
            classes += 1
            labels.update(dict.fromkeys(exhausted, classes))
    return DerivabilityResult("fails-up-to", pairs_checked=checked)


def shift_at_vertex(g, word):
    """Iterated shift endomorphism along a vertex word.

    The letters name nested halves of [0,1]; the innermost (last) letter is
    applied first, so the result is supported in the subinterval the whole
    word addresses.
    """
    out = g
    for ch in reversed(word):
        if ch not in "01":
            raise ParseError(f"bad vertex word character {ch!r}")
        out = thompson.shift_endo(out, "left" if ch == "0" else "right")
    return out


def _vertex_words(depth):
    for length in range(depth + 1):
        yield from ("".join(w) for w in product("01", repeat=length))


def closure_generate(generators, depth):
    """Bounded slice of the smallest shift-invariant subgroup containing
    the generators.

    Seeds are sigma_w(g) and sigma_w(g^-1) for vertex words with |w| up to
    depth; the result is every product of at most `depth` seeds, deduplicated
    by reduced pair.  Always contains the identity; an under-approximation
    that only grows with depth.  A negative depth raises ValueError, and a
    closure that may build more than CLOSURE_GUARD products raises
    BudgetExceeded before any seed is built.

    Each level adds the products of the elements new at the level before
    with every seed but the identity (a*1 = a, and a product of older
    elements is in the level already).  A product the level already holds
    is dropped before it is shared, and the shapes of a factor's trees are
    read once per level, not once per product.  A product past multiply's
    caret cap raises BudgetExceeded, as multiply does.
    """
    if depth < 0:
        raise ValueError(f"closure depth must be >= 0, got {depth}")
    # seeds: the identity, and g and g^-1 along each of the 2^(depth+1) - 1
    # vertex words; from the guard's bit length on, the words alone pass the
    # guard, so they are counted to that length only
    length = min(depth, CLOSURE_GUARD.bit_length())
    count = 1 + 2 * len(generators) * (2 ** (length + 1) - 1)
    if count > CLOSURE_GUARD or count**depth > CLOSURE_GUARD:
        over = "" if length == depth else "over "
        raise BudgetExceeded(
            f"closure to depth {depth} may build {over}{count}^{depth} "
            f"products, past the guard of {CLOSURE_GUARD}"
        )
    if depth < 1:
        return frozenset({thompson.IDENTITY})
    seeds = set()
    for g in generators:
        for word in _vertex_words(depth):
            seeds.add(shift_at_vertex(g, word))
            seeds.add(shift_at_vertex(thompson.invert(g), word))
    seeds.discard(thompson.IDENTITY)
    # every element kept is rebuilt from shared nodes as soon as it is made
    seeds = [thompson.share(b) for b in seeds]
    level = {thompson.IDENTITY, *seeds}
    factors = [(b, thompson._shapes(b)) for b in seeds]
    widest = max((len(shapes[0]) // 2 for _, shapes in factors), default=0)
    fresh = seeds
    for _ in range(depth - 1):
        made = []
        for a in fresh:
            a_shapes = thompson._shapes(a)
            # multiply's cap, checked against the seed with the most carets
            thompson._check_carets(len(a_shapes[0]) // 2, widest)
            for b, b_shapes in factors:
                g = thompson._product(a, a_shapes, b, b_shapes)
                if g not in level:
                    g = thompson.share(g)
                    level.add(g)
                    made.append(g)
        fresh = made
    return frozenset(level)


@dataclass(frozen=True)
class MembershipResult:
    """Semidecision for membership in a shift-invariant subgroup.

    kind "in" carries the expansion and rewrite proof; "not-derivable-up-to"
    is a bounded negative, never an absolute one.
    """

    kind: str
    expansion: object = None
    proof: object = None

    def __bool__(self):
        return self.kind == "in"


def membership_semidecide(g, generators, *, budget=3):
    """Test g against the subgroup generated by `generators` under both
    shifts, via eventual derivability of g's reduced pair in the variety
    presented by the generators' pairs."""
    variety = VarietyPresentation.from_elements(generators)
    result = eventually_derivable(g.source, g.target, variety, budget)
    if result:
        return MembershipResult("in", result.expansion, result.proof)
    return MembershipResult("not-derivable-up-to")
