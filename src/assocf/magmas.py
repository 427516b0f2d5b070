"""Finite magmas and their equational structure.

A magma is a finite set with one binary operation, given as a table.  Binary
trees act as n-ary operations by recursive evaluation, laws are pairs of
trees with the same leaf count (variables are positional, occurring exactly
once per side and in order, so every law here is strongly regular by
construction), and the functions below decide law satisfaction exhaustively,
search for laws, detect solvability through the derived chain, and assemble
the associativity-spectrum classifier.

Sweeps over tuple spaces are vectorized with numpy and run blockwise, and a
sweep that can stop early starts with small blocks.  A counterexample sweep
reads its blocks in canonical (lexicographic) order, growing from
_SMALL_BLOCK tuples, so the first counterexample reported is deterministic
regardless of block size, and an early one costs a small sweep.  A check
that needs only the verdict partitions trees by value, in any block order:
two small blocks, then blocks of _PARTITION_BLOCK tuples.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cache, cached_property, partial

import numpy as np

from . import thompson, trees
from .errors import BudgetExceeded, ParseError
from .trees import ExpansionWord, leaf_count

_BLOCK_ELEMENTS = 1 << 24
# Tuples per block when trees are partitioned by value: numpy's per-call
# cost is still small at this size, and a space of many blocks is visited in
# spread order, so trees that differ somewhere part within a few blocks.
_PARTITION_BLOCK = 1 << 16
# Tuples in the first blocks of a sweep that can stop early (satisfies and
# _partition), so that an early answer costs 1/16 of a large block.
_SMALL_BLOCK = 1 << 12

# Most tree evaluations (trees x tuples) one arity of search_laws makes:
# Catalan(n-1) * |S|^n, so the arity-3 search stops from 369 elements on.
EVALUATION_GUARD = 100_000_000
# Most laws one search_laws call returns: all C(1430, 2) laws of arity 9 on
# an associative table still fit, all C(4862, 2) of arity 10 do not.
LAW_GUARD = 2_000_000


def _dtype_for(size):
    return np.uint8 if size <= 256 else np.uint16


class Magma:
    """Ordered element names plus the operation table (row op column)."""

    def __init__(self, elements, table):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise ValueError("duplicate element names")
        if not elements:
            raise ValueError("magma needs at least one element")
        arr = np.asarray(table)
        n = len(elements)
        if arr.shape != (n, n):
            raise ValueError(f"table must be {n}x{n}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("table entries must be integer indices")
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValueError("table entry out of range")
        self.elements = elements
        self.table = arr.astype(_dtype_for(n))
        self.table.setflags(write=False)
        self._index = {name: i for i, name in enumerate(elements)}

    @classmethod
    def from_rows(cls, elements, rows):
        """Build from rows of element names instead of indices."""
        elements = tuple(elements)
        index = {name: i for i, name in enumerate(elements)}
        table = [[index[name] for name in row] for row in rows]
        return cls(elements, table)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        if not isinstance(other, Magma):
            return NotImplemented
        return self.elements == other.elements and np.array_equal(
            self.table, other.table
        )

    __hash__ = None

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown element {name!r}") from None

    def op(self, x, y):
        return self.elements[int(self.table[self.index(x), self.index(y)])]

    @cached_property
    def two_sided_identity(self):
        # row e and column e are the identity map; at most one e is, since
        # e = e op f = f for any two
        ids = np.arange(len(self.elements))
        rows = (self.table == ids).all(axis=1)
        cols = (self.table == ids[:, None]).all(axis=0)
        found = np.flatnonzero(rows & cols)
        return self.elements[found[0]] if len(found) else None

    @cached_property
    def associativity(self):
        return satisfies(self, associative_law())

    @cached_property
    def _levels(self):
        # the level store of the law search: _level(self, k) builds level k
        return [None, np.arange(len(self.elements), dtype=self.table.dtype)[None]]

    @cached_property
    def _derived(self):
        chain = [tuple(range(len(self.elements)))]
        while (nxt := _product_image(self.table, chain[-1], chain[-1])) != chain[-1]:
            chain.append(nxt)
        return DerivedChain(
            tuple(tuple(self.elements[i] for i in level) for level in chain)
        )

    def __repr__(self):
        return f"<Magma {len(self.elements)} elements>"


@dataclass(frozen=True)
class Law:
    """A strongly regular law: two trees over the same positional variables."""

    lhs: tuple
    rhs: tuple

    def __post_init__(self):
        if leaf_count(self.lhs) != leaf_count(self.rhs):
            raise ValueError("law sides must have equal leaf counts")

    @property
    def arity(self):
        return leaf_count(self.lhs)

    @property
    def is_trivial(self):
        return self.lhs == self.rhs

    def __str__(self):
        return format_law(self)


def _law(lhs, rhs):
    # A Law whose sides the caller knows to have equal leaf counts.
    law = object.__new__(Law)
    object.__setattr__(law, "lhs", lhs)
    object.__setattr__(law, "rhs", rhs)
    return law


def format_law(law):
    return f"{trees.format_tree(law.lhs)} = {trees.format_tree(law.rhs)}"


def parse_law(text):
    """Parse "TREE = TREE"."""
    if text.count("=") != 1:
        raise ParseError("law literal must contain exactly one '='")
    left, right = text.split("=")
    try:
        lhs = trees.parse_tree(left)
    except ParseError as exc:
        raise ParseError(exc.args[0]) from None
    offset = len(left) + 1
    try:
        rhs = trees.parse_tree(right)
    except ParseError as exc:
        loc = exc.location
        raise ParseError(
            "bad right side of law",
            location=None if loc is None else loc + offset,
        ) from None
    try:
        return Law(lhs, rhs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


@cache
def associative_law():
    return Law(trees.parse_tree("((. .) .)"), trees.parse_tree("(. (. .))"))


@cache
def five_variable_law():
    """The law whose two sides are the reduced tree pair of [x0, x1].

    Satisfying it eventually is exactly what puts the commutator subgroup
    inside the stable-associativity group of a magma; law satisfaction is
    symmetric in the two sides, so the pair's orientation does not matter.
    """
    c0 = thompson.generators()["c0"]
    return Law(c0.source, c0.target)


@dataclass(frozen=True)
class LawCheck:
    """Outcome of an exhaustive law check, falsy when a counterexample exists.

    The counterexample is the lexicographically first failing tuple in
    element order.
    """

    law: Law
    holds: bool
    counterexample: tuple = None
    lhs_value: str = None
    rhs_value: str = None

    def __bool__(self):
        return self.holds


@dataclass(frozen=True)
class EventualResult:
    """Outcome of satisfies_eventually, exact either way: "holds" with a
    caret-minimal witness, or "never" (no expansion holds)."""

    kind: str  # "holds" | "never"
    law: Law
    witness: ExpansionWord = None

    @property
    def holds(self):
        return self.kind == "holds"


@dataclass(frozen=True)
class DerivedChain:
    """Subsets S = D_0 ⊇ D_1 ⊇ ... with D_{k+1} = op(D_k x D_k), to fixpoint."""

    subsets: tuple

    @property
    def sizes(self):
        return tuple(len(level) for level in self.subsets)

    @property
    def solvable_depth(self):
        for k, level in enumerate(self.subsets):
            if len(level) == 1:
                return k
        return None


@dataclass(frozen=True)
class SolvabilityWitness:
    """A zero element and a complete tree of the certified depth: evaluating
    that tree on any arguments lands on the zero."""

    zero: str
    depth: int
    tree: tuple


@dataclass(frozen=True)
class AssocStatus:
    """Classifier verdict with machine-checkable evidence attached."""

    kind: str  # full_f | trivial_certified | contains_commutator | no_law_up_to | unknown
    reason: str
    evidence: dict = field(default_factory=dict)


def evaluate(m, tree, args):
    """Value of the tree operation at a tuple of element names."""
    if len(args) != leaf_count(tree):
        raise ValueError("argument count must match leaf count")
    idx = [m.index(a) for a in args]
    return m.elements[int(_tree_values(m.table, tree, idx))]


def _tree_values(table, tree, leaf_arrays):
    """Vectorized evaluation: leaf i reads leaf_arrays[i], nodes look up the
    table with broadcasting."""

    def rec(node, start):
        if trees.is_leaf(node):
            return leaf_arrays[start], start + 1
        left, after = rec(node[0], start)
        right, after = rec(node[1], after)
        return table[left, right], after

    value, _ = rec(tree, 0)
    return value


def _product_image(table, left, right):
    """op(A x B) for sorted index tuples A and B, as a sorted index tuple."""
    return tuple(int(v) for v in np.unique(table[np.ix_(left, right)]))


def _check_indexable(sizes, prefix_vars):
    # blocks index the combos of the leading variables with numpy's intp
    if math.prod(sizes[:prefix_vars]) > np.iinfo(np.intp).max:
        raise BudgetExceeded(
            f"block indices over {sizes[0]}^{len(sizes)} tuples do not fit numpy's intp"
        )


def _layout(domains, budget):
    """Blocks of at most `budget` tuples over `domains`, the sorted index
    array of each variable.  The trailing variables whose joint size fits
    (at least one) get full broadcast axes, and a block is a range [lo, hi)
    of combos of the leading ones, so blocks in order visit the tuples in
    lexicographic order.  Returns the number of leading variables and the
    range of block starts: the block at lo ends at min(lo + step, stop)."""
    sizes = [len(d) for d in domains]
    prefix_vars = len(sizes) - 1
    while prefix_vars and math.prod(sizes[prefix_vars - 1 :]) <= budget:
        prefix_vars -= 1
    _check_indexable(sizes, prefix_vars)
    combos = math.prod(sizes[:prefix_vars])
    step = max(1, budget // math.prod(sizes[prefix_vars:]))
    return prefix_vars, range(0, combos, step)


def _growing_blocks(domains, start, cap):
    """Blocks (prefix_vars, lo, hi), as in _layout, that visit the tuples in
    lexicographic order with sizes from `start` tuples doubling up to `cap`.
    A block ends on a multiple of the largest trailing space its size holds
    and takes the fewest leading variables its ends allow: large blocks get
    the broad layout, which is the cheaper one to evaluate."""
    sizes = [len(d) for d in domains]
    # tuples per combo of the first p variables, for p = 0 .. n-1
    widths = [math.prod(sizes[p:]) for p in range(len(sizes))]
    # a block spans at least the last variable
    cap = max(cap, widths[-1])
    pos, size = 0, min(max(start, widths[-1]), cap)
    while pos < widths[0]:
        fit = next(w for w in widths if w <= size)
        end = min((pos + size) // fit * fit, widths[0])
        p = next(p for p, w in enumerate(widths) if pos % w == end % w == 0)
        _check_indexable(sizes, p)
        yield p, pos // widths[p], end // widths[p]
        pos, size = end, min(2 * size, cap)


def _block_axes(domains, prefix_vars, lo, hi):
    """Leaf arrays for the block [lo, hi) of _layout."""
    axes = []
    if prefix_vars:
        sizes = [len(d) for d in domains[:prefix_vars]]
        shape = [hi - lo] + [1] * (len(domains) - prefix_vars)
        coords = np.unravel_index(np.arange(lo, hi), sizes)
        axes = [d[c].reshape(shape) for d, c in zip(domains, coords)]
    return axes + list(np.ix_(range(1), *domains[prefix_vars:])[1:])


def _spread(count):
    """0..count-1, lazily, by a stride near count / golden ratio and coprime
    to count: every prefix of the order is spread over the range, without a
    bit-reversed order's lean to multiples of large powers of two (on
    pre_sl2 x Z_16 that order read 4,163 blocks before the trees parted,
    this one reads 2)."""
    step = max(1, round(count * (5**0.5 - 1) / 2))
    while math.gcd(step, count) != 1:
        step += 1
    return (i * step % count for i in range(count))


def _in_spread_order(prefix_vars, starts):
    """The blocks (prefix_vars, lo, hi) of a _layout, in _spread order."""
    for i in _spread(len(starts)):
        yield prefix_vars, starts[i], min(starts[i] + starts.step, starts.stop)


def _partition(rows, count, domains, first=None):
    """Classes, of two or more of `count` trees, that agree on every tuple
    over the domains.  rows(prefix_vars, lo, hi) gives every tree's values on
    the block [lo, hi) of _layout, one row per tree (first(...) on the
    blocks of the small first pass, if given), and classes split as
    blocks disagree, until every tree is alone.  The result does not depend
    on block order, so blocks of at most _PARTITION_BLOCK tuples (and
    _BLOCK_ELEMENTS values over all trees) go in spread order.  When the
    space holds more than one of them, a first pass reads two blocks of at
    most 1/16 of their size (_SMALL_BLOCK tuples), in spread order too:
    trees that part early part there, and a sweep that runs to the end
    re-reads at most 1/8 of the space."""
    budget = min(_PARTITION_BLOCK, _BLOCK_ELEMENTS // count)
    prefix_vars, starts = _layout(domains, budget)
    passes = [(rows, _in_spread_order(prefix_vars, starts))]
    if len(starts) > 1:
        small = _layout(domains, min(_SMALL_BLOCK, budget // 16))
        passes.insert(0, (first or rows, itertools.islice(_in_spread_order(*small), 2)))
    classes = [range(count)]
    for rows_of, blocks in passes:
        for block in blocks:
            values = rows_of(*block)
            split = defaultdict(list)
            for k, c in enumerate(classes):
                for t in c:
                    split[k, values[t].tobytes()].append(t)
            classes = [c for c in split.values() if len(c) > 1]
            if not classes:
                return classes
    return classes


def _join(table, left, right):
    """op of every row of `left` (trees, L) with every row of `right`
    (trees, L or 1, R) on every pair of their tuples: rows left-major,
    tuples (l, r) in lexicographic order."""
    if right.shape[1] == 1:
        # the same right tuples after every left one: gather the table rows
        # of the left values and read them at the right values, a gather
        # with no index array as large as the result
        joined = table[left].take(right[:, 0], axis=2).transpose(0, 2, 1, 3)
    else:
        # indexing by a flat cell number: below |S|^2, so it fits in the
        # unsigned type twice as wide as the table's, and numpy's indexing
        # casts it in chunks where take would copy it whole as intp
        cell = np.uint16 if table.dtype == np.uint8 else np.uint32
        index = left.astype(cell)[:, None, :, None] * len(table) + right[None]
        joined = table.ravel()[index]
    return joined.reshape(len(left) * len(right), -1)


def _level(m, k):
    """Level k of m's store: the (Catalan(k-1), |S|^k) array of every k-leaf
    tree's values on S^k, trees in enumerate_trees order and tuples in
    lexicographic order.  It is joined from the levels below on first use
    and kept, so the searches of every arity on one table build it once."""
    levels = m._levels
    while len(levels) <= k:
        j = len(levels)
        levels.append(
            np.concatenate(
                [_join(m.table, levels[a], levels[j - a][:, None]) for a in range(1, j)]
            )
        )
    return levels[k]


def _joined(m, k, p, combos, small):
    """Every k-leaf tree's values on the tuples of S^k whose first p
    variables form one of the combos (a range or an index array), combo by
    combo and each combo's tuples in lexicographic order: the trees with
    a-leaf left subtrees, a = 1 .. k-1, each split one _join.  A left
    subtree that covers the leading variables reads the same combos of its
    level, and its right subtree the whole of its own; a shorter one reads
    the columns of each combo's first variables, and its right subtree
    those of the combo's rest."""
    index = combos
    if p > 1 and isinstance(combos, range):
        index = np.arange(combos.start, combos.stop)
    parts = []
    for a in range(1, k):
        if a >= p:
            left, right = _rows(m, a, p, combos, small), _level(m, k - a)[:, None]
        else:
            split = len(m.table) ** (p - a)
            left = _rows(m, a, a, index // split, small)
            right = _rows(m, k - a, p - a, index % split, small)
            right = right.reshape(len(right), len(index), -1)
        parts.append(_join(m.table, left, right))
    return np.concatenate(parts)


def _rows(m, k, p, combos, small):
    """Level k's columns for the combos of its first p variables: a slice
    of the stored level for a range of combos, a gather for an index
    array.  In a small block, while level k is not built, they are joined
    for those combos alone instead, so the block builds no level wider
    than one combo's tuples."""
    if small and len(m._levels) <= k:
        return _joined(m, k, p, combos, small)
    level, width = _level(m, k), len(m.table) ** (k - p)
    if isinstance(combos, range):
        return level[:, combos.start * width : combos.stop * width]
    return level.reshape(len(level), -1, width)[:, combos].reshape(len(level), -1)


def _whole(m, n):
    """Domains for a sweep over all |S|^n tuples."""
    return [np.arange(len(m), dtype=m.table.dtype)] * n


def satisfies(m, law):
    """Exhaustive check of a law over all |S|^n tuples, early exit.  Blocks
    are read in lexicographic order, so the counterexample is the first one;
    they start at _SMALL_BLOCK tuples and double up to _BLOCK_ELEMENTS, so an
    early counterexample costs a small sweep, and a law that holds reads
    every tuple once."""
    domains = _whole(m, law.arity)
    table, lhs, rhs = m.table, law.lhs, law.rhs
    for block in _growing_blocks(domains, _SMALL_BLOCK, _BLOCK_ELEMENTS):
        prefix_vars, lo, _ = block
        axes = _block_axes(domains, *block)
        mismatch = _tree_values(table, lhs, axes) != _tree_values(table, rhs, axes)
        if mismatch.any():
            at = np.unravel_index(int(np.argmax(mismatch)), mismatch.shape)
            prefix = np.unravel_index(lo + int(at[0]), (len(m),) * prefix_vars)
            names = tuple(m.elements[int(i)] for i in (*prefix, *at[1:]))
            return LawCheck(
                law,
                False,
                counterexample=names,
                lhs_value=evaluate(m, law.lhs, names),
                rhs_value=evaluate(m, law.rhs, names),
            )
    return LawCheck(law, True)


def _graft(blocks):
    """Expansion word, in application order, grafting a tree at each leaf
    1, 2, ... of a tree.  A tree is (carets, word), its word from a single
    leaf, shifted here to its leaf; lowest-leaf-first words stay so."""
    applied, offset = [], 0
    for carets, word in blocks:
        applied.extend(i + offset for i in word)
        offset += carets + 1
    return tuple(applied)


def _least_trees(table):
    """Every image of a tree operation, mapped to the least (carets, word),
    as in _graft, of a tree with that image.

    Im(leaf) = S costs no caret, and Im((L R)) = op(Im L x Im R) one more
    than L and R.  A combined (carets, word) exceeds both parts and grows
    with each, so Knuth's generalisation of Dijkstra's algorithm (IPL 6,
    1977) applies: the least open image is final."""
    best = {tuple(range(len(table))): (0, ())}
    done = {}
    while len(done) < len(best):
        image = min(best.keys() - done.keys(), key=best.__getitem__)
        done[image] = best[image]
        for left, right in {(image, o) for o in done} | {(o, image) for o in done}:
            carets = done[left][0] + done[right][0] + 1
            value = (carets, (1,) + _graft((done[left], done[right])))
            product = _product_image(table, left, right)
            if product not in best or value < best[product]:
                best[product] = value
    return done


def _holding_tuples(m, law, images):
    """Whether the law holds on the product of each tuple of the images
    (sorted index tuples): a boolean array of shape (len(images),) * n.

    S^n is swept once, a block of the trailing variables (as in _layout)
    per combination of the leading ones; contracting a block's mismatches
    with the images' membership vectors, one variable at a time, counts
    them inside every product of images.  Raises BudgetExceeded before it
    allocates when |S|^n or len(images)^n passes EVALUATION_GUARD."""
    n, table, lhs, rhs = law.arity, m.table, law.lhs, law.rhs
    domains = _whole(m, n)
    lead, _ = _layout(domains, _PARTITION_BLOCK)
    # the sweep reads |S|^n tuples and sums its counts in a float grid of
    # one cell per tuple of images
    for base, what in ((len(m), "tuples"), (len(images), "image tuples")):
        if base**n > EVALUATION_GUARD:
            raise BudgetExceeded(
                f"witness sweep over {base}^{n} = {base**n} {what} "
                f"exceeds guard {EVALUATION_GUARD}"
            )
    member = np.array([np.isin(np.arange(len(m)), image) for image in images], float)
    trailing = list(np.ix_(*domains[lead:]))
    counts = 0
    for prefix in itertools.product(*domains[:lead]):
        axes = [*prefix, *trailing]
        grid = 1.0 * (_tree_values(table, lhs, axes) != _tree_values(table, rhs, axes))
        for _ in range(n - lead):
            # contracts the first variable left and appends its image axis
            grid = np.tensordot(grid, member, axes=([0], [1]))
        for x in reversed(prefix):
            grid = np.multiply.outer(member[:, x], grid)
        counts = counts + grid
    return counts == 0


def satisfies_eventually(m, law):
    """Decide whether some simultaneous expansion of the law holds, with a
    caret-minimal witness when one does; both kinds are exact.

    An expansion grafts the same tree T_j at leaf j of both sides, so it
    holds iff the law holds on the product of the images Im(T_j).  Every
    image contains the derived core D, the last level of the derived chain
    (the sandwich of is_solvable), and a complete tree of the chain's depth
    has image D, so some expansion holds iff the law holds on D^n; if not,
    the kind is "never".  Otherwise the witness is the tuple of images on
    whose product the law holds that is least by total carets
    (_least_trees), then by grafted word: the first least witness that a
    breadth-first walk of rewriting.expansion_frontier meets.
    """
    core = np.array(
        [m.index(x) for x in derived_chain(m).subsets[-1]], dtype=m.table.dtype
    )
    domains = [core] * law.arity

    def rows(*block):
        axes = _block_axes(domains, *block)
        return [_tree_values(m.table, t, axes) for t in (law.lhs, law.rhs)]

    if not _partition(rows, 2, domains):
        return EventualResult("never", law)
    if len(core) == len(m):
        # the only image is S: the law holds on the nose
        return EventualResult("holds", law, ExpansionWord())
    least = _least_trees(m.table)
    images = list(least)
    ranked = []
    for index in zip(*np.nonzero(_holding_tuples(m, law, images))):
        blocks = [least[images[i]] for i in index]
        ranked.append((sum(c for c, _ in blocks), _graft(blocks)))
    # the law holds on (core, ..., core), so ranked is not empty
    witness = ExpansionWord.from_applied(min(ranked)[1])
    return EventualResult("holds", law, witness)


def derived_chain(m):
    return m._derived


def is_solvable(m):
    """Witness (zero, depth, complete tree) if some D_k is a singleton.

    The chain decides solvability because the image of any tree operation is
    sandwiched: D_{max leaf depth} ⊆ image ⊆ D_{min leaf depth}, so a
    constant-image tree exists iff the chain reaches a singleton, and then
    the complete tree of that depth is a witness.
    """
    chain = derived_chain(m)
    depth = chain.solvable_depth
    if depth is None:
        return None
    zero = chain.subsets[depth][0]
    return SolvabilityWitness(zero=zero, depth=depth, tree=trees.complete_tree(depth))


def restricted_image(m, tree, fixed):
    """Image of the tree operation with some leaf positions (1-based) pinned
    to fixed elements and the rest ranging over the whole magma.

    A free leaf has image S and a pinned one {x}; the two subtrees of a
    caret read disjoint leaves, so Im((L R)) = op(Im L x Im R) exactly."""
    n = leaf_count(tree)
    for pos in fixed:
        if not 1 <= pos <= n:
            raise ValueError(f"leaf position {pos} out of range 1..{n}")
    pinned = {pos: (m.index(fixed[pos]),) for pos in sorted(fixed)}
    whole = tuple(range(len(m)))

    def rec(node, start):
        if trees.is_leaf(node):
            return pinned.get(start, whole), start + 1
        left, after = rec(node[0], start)
        right, after = rec(node[1], after)
        return _product_image(m.table, left, right), after

    image, _ = rec(tree, 1)
    return frozenset(m.elements[i] for i in image)


def centralizer(m, subset, zero):
    """Elements x with x op u = zero for every u in the subset."""
    z = m.index(zero)
    cols = [m.index(u) for u in subset]
    mask = (m.table[:, cols] == z).all(axis=1)
    return frozenset(m.elements[int(i)] for i in np.nonzero(mask)[0])


def search_laws(m, n):
    """All nontrivial laws of arity n that hold, exhaustively verified.

    The n-leaf trees are partitioned by their values on every tuple, and
    the laws are the pairs (i, j), i < j in enumeration order, that share a
    class.  Their values are joined one block at a time from the levels
    below n, the values of every tree with fewer leaves, which m keeps in
    a store (_level) that the searches of every arity on m share; a level
    is built the first time a block reads it whole.  The two small blocks
    the partition reads first join only the columns their combos touch
    (_rows), so a search whose trees part there builds no level wider than
    one combo's tuples.  Guarded by the tree evaluations it makes,
    Catalan(n-1) trees on |S|^n tuples, against EVALUATION_GUARD (the kept
    levels then hold at most EVALUATION_GUARD / |S| values), and by the
    laws it would return, counted from the classes before any is built,
    against LAW_GUARD.
    """
    if n < 1:
        raise ValueError(f"search arity must be >= 1, got {n}")
    size = len(m)
    n_trees = math.comb(2 * n - 2, n - 1) // n
    work = n_trees * size**n
    if work > EVALUATION_GUARD:
        raise BudgetExceeded(
            f"{n_trees} trees on {size}^{n} tuples = {work} evaluations "
            f"exceed guard {EVALUATION_GUARD}"
        )
    if n_trees == 1:
        # one tree, no law
        return ()

    def rows(prefix_vars, lo, hi, small=False):
        return _joined(m, n, prefix_vars, range(lo, hi), small)

    classes = _partition(rows, n_trees, _whole(m, n), partial(rows, small=True))
    count = sum(math.comb(len(c), 2) for c in classes)
    if count > LAW_GUARD:
        raise BudgetExceeded(f"{count} laws of arity {n} exceed guard {LAW_GUARD}")
    pairs = sorted(p for c in classes for p in itertools.combinations(c, 2))
    # every side has n leaves, so no Law needs its leaf counts checked
    shapes = trees.enumerate_trees(n)
    return tuple(_law(shapes[i], shapes[j]) for i, j in pairs)


def assoc_status(m, *, eventual_carets=6):
    """Cascade classifier for the stable-associativity group of a magma.

    Associative or solvable certifies the full group; a two-sided identity
    on a non-associative table certifies the trivial group; the five
    variable law holding after some expansion certifies containing the
    commutator subgroup (on the nose when its caret-minimal expansion is
    empty, else with that expansion, reported when it has at most
    `eventual_carets` carets and the sweep that finds it stays inside
    EVALUATION_GUARD); failing all that, law search up to an
    arity set by the table's size (6 up to 4 elements, 4 up to 60, else 3)
    reports either exhaustion bounds or the laws it found.  Unknown never
    claims triviality: that would need no-law-at-every-arity, which bounded
    search cannot certify.  The arity rule keeps the search inside both
    guards: at most 5 * 60^4 evaluations and C(42, 2) laws.
    """
    if eventual_carets < 0:
        raise ValueError(f"caret budget must be >= 0, got {eventual_carets}")
    assoc = m.associativity
    if assoc:
        return AssocStatus("full_f", "associative", {"law": assoc.law})
    witness = is_solvable(m)
    if witness is not None:
        return AssocStatus(
            "full_f",
            "solvable",
            {
                "zero": witness.zero,
                "depth": witness.depth,
                "tree": witness.tree,
                "chain_sizes": derived_chain(m).sizes,
            },
        )
    identity = m.two_sided_identity
    if identity is not None:
        return AssocStatus(
            "trivial_certified",
            "identity-theorem",
            {
                "identity": identity,
                "counterexample": assoc.counterexample,
                "lhs_value": assoc.lhs_value,
                "rhs_value": assoc.rhs_value,
            },
        )
    fvl = five_variable_law()
    try:
        witness = satisfies_eventually(m, fvl).witness
    except BudgetExceeded:
        # past the witness sweep's guard: the law may hold, but its witness
        # is not known
        witness = None
    # a witness past the caret budget is left to the law search too
    if witness is not None and len(witness) <= eventual_carets:
        if not witness.letters:
            return AssocStatus("contains_commutator", "fvl-on-the-nose", {"law": fvl})
        return AssocStatus(
            "contains_commutator",
            "fvl-at-expansion",
            {"law": fvl, "expansion": witness},
        )
    # the only law of arity 3 is associativity, which fails here; small
    # tables afford deeper arities
    deepest = 6 if len(m) <= 4 else 4 if len(m) <= 60 else 3
    for arity in range(4, deepest + 1):
        laws = search_laws(m, arity)
        if laws:
            return AssocStatus(
                "unknown", "laws-found", {"laws": laws, "searched_up_to": arity}
            )
    return AssocStatus("no_law_up_to", "law-search-exhausted", {"arity": deepest})


def load_magma(text):
    """Parse the magma file format: a names line, then |S| rows of names.

    '#' starts a comment, blank lines are skipped, errors carry 1-based line
    numbers.
    """
    names = None
    rows = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        last_line = lineno
        if names is None:
            if len(set(parts)) != len(parts):
                raise ParseError("duplicate element names", location=lineno)
            names, index = parts, {name: i for i, name in enumerate(parts)}
            continue
        if len(parts) != len(names):
            raise ParseError(
                f"expected {len(names)} entries per row, got {len(parts)}",
                location=lineno,
            )
        try:
            rows.append([index[name] for name in parts])
        except KeyError as exc:
            raise ParseError(f"unknown element {exc.args[0]!r}", location=lineno) from None
        if len(rows) > len(names):
            raise ParseError("too many table rows", location=lineno)
    if names is None:
        raise ParseError("empty magma file")
    if len(rows) != len(names):
        raise ParseError(
            f"expected {len(names)} table rows, got {len(rows)}",
            location=last_line,
        )
    return Magma(names, rows)


def dump_magma(m):
    """Inverse of load_magma, bit-exact on round trip."""
    lines = [" ".join(m.elements)]
    for i in range(len(m)):
        lines.append(" ".join(m.elements[int(v)] for v in m.table[i]))
    return "\n".join(lines) + "\n"
