"""Rooted ordered binary trees and the monoid of leaf expansions.

A tree is an immutable nested structure: the empty tuple ``()`` is the
single-leaf tree, and a pair ``(left, right)`` is an interior node with
two subtrees.  parse_tree and share build their nodes through a bounded
sharing table, so equal subtrees of the trees the program keeps are mostly
one object.  Only memory depends on that: every routine compares trees by
value.  Leaves are numbered 1..n from left to right.  Vertices
are addressed by words over {0,1} ("" is the root, 0 = left child,
1 = right child), so the leaf addresses of a tree read in left-to-right
order are exactly its leaf numbering.

The text form of a tree is "." for a leaf and "(L R)" for a node, with
whitespace free between tokens: "((. .) .)" is the three-leaf tree whose
first two leaves hang off a common caret.

``ExpansionWord`` models words in the monoid generated by the elementary
expansions beta^i (replace leaf i by a caret, identity when i exceeds
the current leaf count), subject to

    beta^i beta^j = beta^{j+1} beta^i     for i < j,

where the right factor of a product acts first.
"""

from .errors import BudgetExceeded, ParseError

# A leaf is (), a node is a 2-tuple of trees.
LEAF = ()

# Most leaves enumerate_trees lists: Catalan(13) = 742,900 trees at 14.
TREE_ENUMERATION_CAP = 14

# Deepest literal parse_tree accepts.  Every tree routine recurses once per
# level, and a tree command adds at most one level (expand, shift), so this
# leaves half of Python's default recursion limit to the callers.
PARSE_DEPTH_CAP = 500

# Most nodes the sharing table holds; it starts over empty when full.
SHARE_CAP = 1 << 14

# (id(left), id(right)) -> the one node kept with those two children.  Nodes
# built through it share their equal subtrees, so the trees the program
# keeps cost one node per distinct subtree (Filliatre-Conchon hash-consing,
# with a bounded table).  A kept node holds its children, so the ids in a
# key stay unique while its entry lives, and the entries go all at once.
_SHARED = {}


def _node(left, right):
    key = (id(left), id(right))
    kept = _SHARED.get(key)
    if kept is None:
        if len(_SHARED) >= SHARE_CAP:
            _SHARED.clear()
        _SHARED[key] = kept = (left, right)
    return kept


def share(t):
    """The tree equal to t built from the sharing table's nodes."""
    if t == LEAF:
        return LEAF
    left, right = t
    if _SHARED.get((id(left), id(right))) is t:
        return t
    return _node(share(left), share(right))


def is_leaf(t):
    return t == LEAF


def leaf_count(t):
    if t == LEAF:
        return 1
    return leaf_count(t[0]) + leaf_count(t[1])


def parse_tree(text):
    """Parse the "." / "(L R)" literal form. Whitespace is ignored.

    Every node comes from the sharing table, so an equal literal parsed
    while the table still holds it gives back the same object.  Nesting
    deeper than PARSE_DEPTH_CAP raises BudgetExceeded: the other
    tree routines recurse once per level.
    """
    open_carets = []  # children parsed so far of each open caret, innermost last
    tree = None
    for pos, ch in enumerate(text):
        if ch.isspace():
            continue
        if tree is not None:
            raise ParseError("trailing input after tree literal", pos)
        if open_carets and len(open_carets[-1]) == 2:
            if ch != ")":
                raise ParseError("expected ')'", pos)
            node = _node(*open_carets.pop())
        elif ch == "(":
            if len(open_carets) == PARSE_DEPTH_CAP:
                raise BudgetExceeded(
                    f"tree literal nests deeper than {PARSE_DEPTH_CAP} levels"
                )
            open_carets.append([])
            continue
        elif ch == ".":
            node = LEAF
        else:
            raise ParseError(f"unexpected character {ch!r}", pos)
        if open_carets:
            open_carets[-1].append(node)
        else:
            tree = node
    if tree is None:
        if open_carets and len(open_carets[-1]) == 2:
            raise ParseError("expected ')'", len(text))
        raise ParseError("unexpected end of tree literal", len(text))
    return tree


def format_tree(t):
    if t == LEAF:
        return "."
    return f"({format_tree(t[0])} {format_tree(t[1])})"


def expand(t, i):
    """Replace leaf i by a caret; identity when i exceeds the leaf count."""
    if i < 1:
        raise ParseError(f"leaf index must be >= 1, got {i}")
    return _expand(t, i)[0]


def _expand(t, i):
    """(t with its leaf i expanded, 0), or (t, i - leaf count of t) when t
    has fewer than i leaves: one left-to-right walk that stops at leaf i."""
    if t == LEAF:
        return ((LEAF, LEAF), 0) if i == 1 else (t, i - 1)
    left, i = _expand(t[0], i)
    if i == 0:
        return (left, t[1]), 0
    right, i = _expand(t[1], i)
    return (t, i) if i else ((t[0], right), 0)


def shift(t, side):
    """Hang t under a fresh root caret, on the given side."""
    if side == "left":
        return (t, LEAF)
    if side == "right":
        return (LEAF, t)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def reflect(t):
    """Mirror image: swap children at every interior vertex."""
    if t == LEAF:
        return LEAF
    return (reflect(t[1]), reflect(t[0]))


def vertices(t):
    """All vertex addresses in preorder, which is lexicographic order."""
    out = []

    def walk(t, prefix):
        out.append(prefix)
        if t != LEAF:
            walk(t[0], prefix + "0")
            walk(t[1], prefix + "1")

    walk(t, "")
    return tuple(out)


def subtree_at(t, address):
    for ch in address:
        if t == LEAF:
            raise ValueError(f"no vertex {address!r} in tree")
        if ch == "0":
            t = t[0]
        elif ch == "1":
            t = t[1]
        else:
            raise ParseError(f"bad vertex word character {ch!r}")
    return t


def replace_at(t, address, sub):
    if address == "":
        return sub
    if t == LEAF:
        raise ValueError(f"no vertex {address!r} in tree")
    if address[0] == "0":
        return (replace_at(t[0], address[1:], sub), t[1])
    return (t[0], replace_at(t[1], address[1:], sub))


def free_carets(t):
    """Leaf indices i such that leaves i and i+1 are children of one node."""
    return free_carets_and_leaves(t)[0]


def free_carets_and_leaves(t):
    """(free_carets(t), leaf_count(t)), from one walk."""
    found = set()

    def walk(t, offset):
        if t == LEAF:
            return 1
        left, right = t
        if left == LEAF and right == LEAF:
            found.add(offset + 1)
            return 2
        nl = walk(left, offset)
        return nl + walk(right, offset + nl)

    return found, walk(t, 0)


def remove_caret(t, i):
    """Collapse the caret whose leaves are i and i+1 back to a leaf."""
    if t == LEAF:
        raise ValueError("no caret to remove in a leaf")
    left, right = t
    if left == LEAF and right == LEAF:
        if i != 1:
            raise ValueError(f"leaves {i},{i + 1} do not form a caret")
        return LEAF
    nl = leaf_count(left)
    if i + 1 <= nl:
        return (remove_caret(left, i), right)
    if i > nl:
        return (left, remove_caret(right, i - nl))
    raise ValueError(f"leaves {i},{i + 1} do not form a caret")


def join(a, b):
    """Smallest common expansion: union of the two vertex sets."""
    if a == LEAF:
        return b
    if b == LEAF:
        return a
    return (join(a[0], b[0]), join(a[1], b[1]))


def preorder_shape(t):
    """t's vertices in preorder: True for a caret, False for a leaf."""
    out = []
    pending = [t]
    while pending:
        node = pending.pop()
        if node == LEAF:
            out.append(False)
        else:
            out.append(True)
            pending.append(node[1])
            pending.append(node[0])
    return tuple(out)


def capture(shape, t):
    """The subtrees of t under the leaves of the tree of this preorder
    shape, in leaf order, or None when t is not an expansion of it."""
    captured = []
    pending = [t]
    for caret in shape:
        sub = pending.pop()
        if not caret:
            captured.append(sub)
        elif sub == LEAF:
            return None
        else:
            pending.append(sub[1])
            pending.append(sub[0])
    return tuple(captured)


def graft(shape, subtrees):
    """The tree of this preorder shape with the i-th of `subtrees` hung at
    its i-th leaf; `subtrees` holds one tree per leaf."""
    # Read back to front, the shape meets the last leaf and each right
    # subtree first, so every caret pops its (left, right) children.
    built = []
    k = len(subtrees)
    for caret in reversed(shape):
        if caret:
            built.append((built.pop(), built.pop()))
        else:
            k -= 1
            built.append(subtrees[k])
    return built[0]


def leaf_intervals(t):
    """(k, d) for each leaf, left to right: the leaf spans [k/2^d, (k+1)/2^d]."""
    out = []

    def walk(t, k, d):
        if t == LEAF:
            out.append((k, d))
        else:
            walk(t[0], 2 * k, d + 1)
            walk(t[1], 2 * k + 1, d + 1)

    walk(t, 0, 0)
    return out


def from_leaf_intervals(intervals):
    """The tree whose leaf_intervals are `intervals`: each leaf goes on a
    stack and merges with the one below it while the two are the halves
    of one standard interval."""
    stack = []
    for k, d in intervals:
        t = LEAF
        while stack and stack[-1][2] == d and stack[-1][1] % 2 == 0:
            left, k, d = stack.pop()
            t, k, d = (left, t), k >> 1, d - 1
        stack.append((t, k, d))
    [(t, _, _)] = stack
    return t


def is_expansion(big, small):
    """True when big can be obtained from small by expanding leaves."""
    if small == LEAF:
        return True
    if big == LEAF:
        return False
    return is_expansion(big[0], small[0]) and is_expansion(big[1], small[1])


def leftmost_leaf_depth(t):
    d = 0
    while t != LEAF:
        t = t[0]
        d += 1
    return d


def rightmost_leaf_depth(t):
    d = 0
    while t != LEAF:
        t = t[1]
        d += 1
    return d


def complete_tree(depth):
    t = LEAF
    for _ in range(depth):
        t = (t, t)
    return t


_TREE_LISTS = {1: (LEAF,)}


def enumerate_trees(n):
    """All trees with n leaves.

    Canonical order: by leaf count of the left subtree, then recursively
    by the same order on the left and the right subtree.
    """
    if n < 1:
        raise ValueError(f"leaf count must be >= 1, got {n}")
    if n > TREE_ENUMERATION_CAP:
        raise BudgetExceeded(
            f"tree enumeration for n={n} exceeds cap {TREE_ENUMERATION_CAP}"
        )
    for m in range(2, n + 1):
        if m not in _TREE_LISTS:
            _TREE_LISTS[m] = tuple(
                (left, right)
                for k in range(1, m)
                for left in _TREE_LISTS[k]
                for right in _TREE_LISTS[m - k]
            )
    return list(_TREE_LISTS[n])


class ExpansionWord:
    """A word in the expansion monoid, kept in canonical form.

    ``letters`` are stored in composition order: the last letter of the
    tuple acts first.  Canonical form is reached by rewriting adjacent
    pairs with beta^i beta^j -> beta^{j+1} beta^i whenever i < j, so in
    a canonical word no letter is strictly smaller than its right
    neighbour.  The canonical word is independent of rewrite order.
    """

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        letters = tuple(letters)
        for x in letters:
            if not isinstance(x, int) or x < 1:
                raise ParseError(f"expansion index must be a positive integer, got {x!r}")
        object.__setattr__(self, "letters", _normal_form(letters))

    @classmethod
    def from_applied(cls, letters_in_application_order):
        return cls(tuple(reversed(tuple(letters_in_application_order))))

    def apply(self, t):
        for i in reversed(self.letters):
            t = expand(t, i)
        return t

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, ExpansionWord) and self.letters == other.letters

    def __hash__(self):
        return hash(("ExpansionWord", self.letters))

    def __repr__(self):
        return f"ExpansionWord({self.letters!r})"

    def __str__(self):
        return "b[" + ",".join(str(i) for i in self.letters) + "]"

    def __setattr__(self, name, value):
        raise AttributeError("ExpansionWord is immutable")


def _normal_form(letters):
    word = ()
    for x in reversed(letters):
        word = _prepend(x, word)
    return word


def _prepend(x, word):
    # Compose beta^x on the left of a canonical word.
    if not word or x >= word[0]:
        return (x,) + word
    return (word[0] + 1,) + _prepend(x, word[1:])


def expansion_path(target, base):
    """Canonical word carrying base to target, or None.

    Greedy: always expand the lowest-index leaf of the current tree that
    is an interior vertex of the target.
    """
    if not is_expansion(target, base):
        return None
    # a leaf of t is a leaf of the target iff the two span the same interval
    kept = set(leaf_intervals(target))
    applied = []
    t = base
    while t != target:
        i = next(
            i for i, leaf in enumerate(leaf_intervals(t), 1) if leaf not in kept
        )
        applied.append(i)
        t = expand(t, i)
    return ExpansionWord.from_applied(applied)
