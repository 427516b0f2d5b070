"""Output oracles for the benchmark, written apart from the code under test.

Nothing here imports ``assocf``.  Trees are nested tuples (``()`` is a leaf,
``(left, right)`` a caret) parsed from the text the CLI prints; maps of
Thompson's group F are lists of integer breakpoints over 2^SCALE; operation tables
are numpy integer arrays.  Each ``check_*`` function takes a query and the
answer the program gave, and returns ``None`` when the answer is right or a
one-line reason when it is not.

Decision procedures used as oracles:

* x1-law rewriting.  The law ``(. ((. .) .)) = (. (. (. .)))`` is a rotation
  at a vertex that is a right child.  Such rotations never touch the left
  arm of a tree (the root, its left child, its left child, ...) nor move a
  leaf between the right subtrees hanging off that arm, and inside one of
  those subtrees they reach every shape (rotate at its root until its left
  child is a leaf, then recurse into its right child, which is again a right
  child).  So two trees are x1-equivalent exactly when their *signatures*,
  the leaf counts of the right subtrees along the left arm, agree.
* Associativity rewriting connects every pair of trees with equal leaf
  counts.
* A tree operation on a table has image op(im L x im R) at each caret, since
  every leaf is its own variable; a solvability tree is right when that
  image is one element.
"""

from __future__ import annotations

import json
from bisect import bisect_right

import numpy as np

LEAF = ()

# --- trees --------------------------------------------------------------------


def parse_tree(text):
    """Iterative parser for the "." / "(L R)" literal form."""
    stack = [[]]
    for ch in text:
        if ch == ".":
            stack[-1].append(LEAF)
        elif ch == "(":
            stack.append([])
        elif ch == ")":
            children = stack.pop()
            if len(children) != 2:
                raise ValueError(f"caret with {len(children)} children in {text!r}")
            stack[-1].append(tuple(children))
        elif not ch.isspace():
            raise ValueError(f"unexpected {ch!r} in tree literal")
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError(f"unbalanced tree literal {text!r}")
    return stack[0][0]


def format_tree(t):
    if t == LEAF:
        return "."
    return f"({format_tree(t[0])} {format_tree(t[1])})"


def leaves(t):
    count = 0
    stack = [t]
    while stack:
        node = stack.pop()
        if node == LEAF:
            count += 1
        else:
            stack.extend(node)
    return count


def expand_leaf(t, i):
    """Replace leaf i (1-based) by a caret; unchanged when i is too large."""
    return _expand(t, i)[0]


def _expand(t, i):
    # i counts down the leaves still to pass; 0 once the caret is placed
    if i == 0:
        return t, 0
    if t == LEAF:
        return ((LEAF, LEAF), 0) if i == 1 else (LEAF, i - 1)
    left, i = _expand(t[0], i)
    right, i = _expand(t[1], i)
    return (left, right), i


def apply_word(t, word_text):
    """Apply an expansion word printed as "b[i,j,...]": last letter first."""
    body = word_text.strip()
    if not (body.startswith("b[") and body.endswith("]")):
        raise ValueError(f"bad expansion word {word_text!r}")
    letters = [int(x) for x in body[2:-1].split(",") if x.strip()]
    for i in reversed(letters):
        t = expand_leaf(t, i)
    return t


def subtree(t, vertex):
    for ch in vertex:
        if t == LEAF:
            raise ValueError(f"no vertex {vertex!r}")
        t = t[int(ch)]
    return t


def replace(t, vertex, sub):
    if not vertex:
        return sub
    if t == LEAF:
        raise ValueError(f"no vertex {vertex!r}")
    if vertex[0] == "0":
        return (replace(t[0], vertex[1:], sub), t[1])
    return (t[0], replace(t[1], vertex[1:], sub))


def match(pattern, t, out):
    if pattern == LEAF:
        out.append(t)
        return True
    if t == LEAF:
        return False
    return match(pattern[0], t[0], out) and match(pattern[1], t[1], out)


def instantiate(pattern, subs):
    it = iter(subs)

    def build(node):
        return next(it) if node == LEAF else (build(node[0]), build(node[1]))

    return build(pattern)


def free_carets(t):
    """Leaf indices i whose leaves i, i+1 share a parent."""
    found = set()
    offset = 0
    stack = [t]
    while stack:
        node = stack.pop()
        if node == LEAF:
            offset += 1
        elif node == (LEAF, LEAF):
            found.add(offset + 1)
            offset += 2
        else:
            stack.append(node[1])
            stack.append(node[0])
    return found


def is_reduced_pair(src, tgt):
    return leaves(src) == leaves(tgt) and not (free_carets(src) & free_carets(tgt))


def x1_signature(t):
    """Leaf counts of the right subtrees hanging off the left arm."""
    sig = []
    while t != LEAF:
        sig.append(leaves(t[1]))
        t = t[0]
    return tuple(sig)


def parse_law(text):
    left, right = text.split("=")
    return parse_tree(left), parse_tree(right)


def replay(start, steps, laws):
    """Apply each (vertex, law_text, forward) step; return the final tree.

    Raises ValueError when a step names a law outside `laws` or its side
    does not match at the vertex.
    """
    t = start
    for vertex, law_text, forward in steps:
        law = parse_law(law_text)
        if law not in laws:
            raise ValueError(f"proof uses a law outside the variety: {law_text}")
        src, dst = law if forward else law[::-1]
        captured = []
        if not match(src, subtree(t, vertex), captured):
            raise ValueError(f"law does not match at vertex {vertex!r}")
        t = replace(t, vertex, instantiate(dst, captured))
    return t


def simultaneous_expansions(p, q, budget):
    """Every pair reached from (p, q) by at most `budget` shared expansions."""
    seen = {(p, q)}
    frontier = [(p, q)]
    for _ in range(budget):
        grown = []
        for a, b in frontier:
            for i in range(1, leaves(a) + 1):
                key = (expand_leaf(a, i), expand_leaf(b, i))
                if key not in seen:
                    seen.add(key)
                    grown.append(key)
        frontier = grown
    return seen


# --- the dyadic PL model, as integers over one fixed power of two -----------------
#
# A coordinate x in [0, 1] is held as the integer x * 2^SCALE.  Breakpoints in
# the workloads have denominators far below 2^SCALE (x0^120 reaches 2^121);
# a value that would need more bits raises ValueError instead of rounding.

SCALE = 512
UNIT = 1 << SCALE
IDENTITY = [(0, 0), (UNIT, UNIT)]


def _half(v):
    if v & 1:
        raise ValueError("dyadic value deeper than the oracle's scale")
    return v >> 1


def cuts(t):
    """Endpoints of the leaf intervals of t, from 0 to 1."""
    out = [0]
    stack = [(t, 0, UNIT)]
    while stack:
        node, lo, hi = stack.pop()
        if node == LEAF:
            out.append(hi)
        else:
            mid = _half(lo + hi)
            stack.append((node[1], mid, hi))
            stack.append((node[0], lo, mid))
    return out


def _prune(points):
    kept = [points[0]]
    for a, b, c in zip(points, points[1:], points[2:]):
        if (b[1] - a[1]) * (c[0] - b[0]) != (c[1] - b[1]) * (b[0] - a[0]):
            kept.append(b)
    kept.append(points[-1])
    return kept


def pair_map(src, tgt):
    return _prune(list(zip(cuts(src), cuts(tgt))))


def evaluator(f):
    """The map as a function on [0, UNIT]."""
    xs = [p[0] for p in f]
    last = len(f) - 2

    def at(x):
        i = min(bisect_right(xs, x) - 1, last)
        (x0, y0), (x1, y1) = f[i], f[i + 1]
        rise, rem = divmod((x - x0) * (y1 - y0), x1 - x0)
        if rem:
            raise ValueError("dyadic value deeper than the oracle's scale")
        return y0 + rise

    return at


def inverse(f):
    return [(y, x) for x, y in f]


def then(f, g):
    """The map x -> g(f(x)): f first, as in the product f*g of F."""
    f_at, finv_at, g_at = evaluator(f), evaluator(inverse(f)), evaluator(g)
    xs = {x for x, _ in f} | {finv_at(x) for x, _ in g}
    return _prune([(x, g_at(f_at(x))) for x in sorted(xs)])


def shift_right(f):
    """f squeezed into [1/2, 1], the identity on [0, 1/2]."""
    half = UNIT >> 1
    return [(0, 0)] + [(half + _half(x), half + _half(y)) for x, y in f]


def slope_log2(a, b):
    dx, dy = b[0] - a[0], b[1] - a[1]
    k = dy.bit_length() - dx.bit_length()
    if (dx << k if k >= 0 else dx >> -k) != dy or (k < 0 and dy << -k != dx):
        raise ValueError("segment slope is not a power of 2")
    return k


def abelianization(f):
    a = slope_log2(f[0], f[1])
    b = slope_log2(f[-2], f[-1])
    return (a, -(a + b))


def _is_halfpower(v):
    return 0 < v <= UNIT >> 1 and v & (v - 1) == 0


def _exponent(v):
    """e with v / 2^SCALE = odd / 2^e (0 for 0 and 1)."""
    return max(SCALE - ((v & -v).bit_length() - 1), 0) if v else 0


def stabilizes_halfpowers(f):
    """Does f permute {1/2^n : n >= 1}?

    Past the largest exponent E among all breakpoint coordinates, 1/2^n lies
    in the first segment of f and of f^-1, where the map is 2^a x, so only
    n <= E + |a| + 1 can decide the answer.
    """
    f_at, finv_at = evaluator(f), evaluator(inverse(f))
    top = max(_exponent(c) for point in f for c in point)
    a = abs(slope_log2(f[0], f[1]))
    for n in range(1, top + a + 2):
        x = UNIT >> n
        if not (_is_halfpower(f_at(x)) and _is_halfpower(finv_at(x))):
            return False
    return True


def map_to_pair(f):
    """The reduced tree pair of a PL map (independent of assocf.plmaps)."""
    interior = [x for x, _ in f[1:-1]]
    at = evaluator(f)
    src_cuts = []

    def split(lo, hi):
        if not any(lo < x < hi for x in interior):
            ylo, yhi = at(lo), at(hi)
            width = yhi - ylo
            if width & (width - 1) == 0 and ylo % width == 0:
                src_cuts.append(lo)
                return
        mid = _half(lo + hi)
        split(lo, mid)
        split(mid, hi)

    split(0, UNIT)
    src_cuts.append(UNIT)
    tgt_cuts = [at(x) for x in src_cuts]
    src, tgt = _tree_from_cuts(src_cuts), _tree_from_cuts(tgt_cuts)
    while True:
        common = free_carets(src) & free_carets(tgt)
        if not common:
            return src, tgt
        i = min(common)
        src, tgt = _collapse(src, i), _collapse(tgt, i)


def _tree_from_cuts(points):
    cut_set = set(points)

    def build(lo, hi):
        mid = _half(lo + hi)
        if mid in cut_set:
            return (build(lo, mid), build(mid, hi))
        return LEAF

    return build(0, UNIT)


def _collapse(t, i):
    if t == (LEAF, LEAF):
        return LEAF
    nl = leaves(t[0])
    if i < nl:
        return (_collapse(t[0], i), t[1])
    return (t[0], _collapse(t[1], i - nl))


# --- words over the generators, evaluated to PL maps --------------------------------

X0 = pair_map(parse_tree("((. .) .)"), parse_tree("(. (. .))"))
X1 = shift_right(X0)
X2 = then(then(inverse(X0), X1), X0)
C0 = then(then(then(X0, X1), inverse(X0)), inverse(X1))
GENERATOR_MAPS = {"x0": X0, "x1": X1, "x2": X2, "c0": C0}


def word_map(expr):
    """PL map of a word AST built by corpus.py.

    ("gen", name) | ("pow", expr, k) | ("mul", [expr, ...])
    | ("comm", a, b) = a b a^-1 b^-1 | ("conj", a, b) = b^-1 a b
    """
    tag = expr[0]
    if tag == "gen":
        return GENERATOR_MAPS[expr[1]]
    if tag == "pow":
        base, k = word_map(expr[1]), expr[2]
        if k < 0:
            base, k = inverse(base), -k
        out = IDENTITY
        while k:
            if k & 1:
                out = then(out, base)
            base, k = then(base, base), k >> 1
        return out
    if tag == "mul":
        out = IDENTITY
        for part in expr[1]:
            out = then(out, word_map(part))
        return out
    a, b = word_map(expr[1]), word_map(expr[2])
    if tag == "comm":
        return then(then(then(a, b), inverse(a)), inverse(b))
    if tag == "conj":
        return then(then(inverse(b), a), b)
    raise ValueError(f"unknown word node {tag!r}")


def parse_dyadic(text):
    """"num/2^exp" (or a bare integer) on the oracle's scale."""
    num, _, exp = text.partition("/2^")
    shift = SCALE - int(exp or 0)
    if shift < 0:
        raise ValueError(f"{text} is deeper than the oracle's scale")
    return int(num) << shift


def normal_member(ab, m, n):
    """Is (M, N) in the subgroup of Z^2 spanned by (m, -m) and (0, n)?

    The spec (0, 0) names the trivial subgroup of F, which the caller
    decides from the element itself.
    """
    big_m, big_n = ab
    if m == 0:
        return big_m == 0 and (big_n == 0 if n == 0 else big_n % n == 0)
    if big_m % m:
        return False
    rest = big_n + big_m
    return rest == 0 if n == 0 else rest % n == 0


# --- operation tables -------------------------------------------------------------


def table_is_associative(table):
    t = np.asarray(table)
    return bool(np.array_equal(t[t], t[:, t]))


def table_identity(table):
    t = np.asarray(table)
    ident = np.arange(len(t))
    for e in range(len(t)):
        if np.array_equal(t[e], ident) and np.array_equal(t[:, e], ident):
            return e
    return None


def derived_chain(table):
    t = np.asarray(table)
    level = tuple(range(len(t)))
    chain = [level]
    while True:
        nxt = tuple(sorted({int(t[a, b]) for a in level for b in level}))
        if nxt == level:
            return chain
        chain.append(nxt)
        level = nxt


def table_is_solvable(table):
    return len(derived_chain(table)[-1]) == 1


def tree_image(table, t):
    """Image of the tree operation: op(im L x im R) at every caret."""
    if t == LEAF:
        return set(range(len(table)))
    left, right = tree_image(table, t[0]), tree_image(table, t[1])
    return {int(table[a][b]) for a in left for b in right}


def tree_value(table, t, args):
    it = iter(args)

    def ev(node):
        if node == LEAF:
            return next(it)
        left = ev(node[0])
        return int(table[left][ev(node[1])])

    return ev(t)


EXHAUSTIVE_LIMIT = 4_000_000


def law_holds(table, lhs, rhs):
    """Exhaustive broadcast check over every tuple (at most EXHAUSTIVE_LIMIT)."""
    t = np.asarray(table)
    size, arity = len(t), leaves(lhs)
    if size**arity > EXHAUSTIVE_LIMIT:
        raise ValueError(f"{size}^{arity} tuples is past the oracle's limit")
    axes = [
        np.arange(size).reshape([size if j == i else 1 for j in range(arity)])
        for i in range(arity)
    ]

    def ev(node, it):
        if node == LEAF:
            return next(it)
        left = ev(node[0], it)
        return t[left, ev(node[1], it)]

    return bool(np.array_equal(ev(lhs, iter(axes)), ev(rhs, iter(axes))))


# --- the checks -----------------------------------------------------------------

ASSOC_LAW = (parse_tree("((. .) .)"), parse_tree("(. (. .))"))
X1_LAW = (parse_tree("(. ((. .) .))"), parse_tree("(. (. (. .)))"))
VARIETY_LAWS = {"assoc": [ASSOC_LAW], "x1": [X1_LAW]}

EXACT_KINDS = {"full_f", "trivial_certified", "contains_commutator"}
GOLDEN_TAGS = {
    "FullF": "full_f",
    "TrivialCertified": "trivial_certified",
    "ContainsCommutator": "contains_commutator",
    "NoLawUpTo": "no_law_up_to",
    "Unknown": "unknown",
}


def _cascade_passed(table, names):
    """Why a verdict past the first three stages is wrong, or None."""
    if table_is_associative(table):
        return "table is associative"
    if table_is_solvable(table):
        return "table is solvable"
    e = table_identity(table)
    if e is not None:
        return f"table has identity {names[e]}"
    return None


def _check_fvl(law_text):
    lhs, rhs = parse_law(law_text)
    f = pair_map(lhs, rhs)
    if f not in (C0, inverse(C0)):
        return f"law {law_text} is not the five-variable law"
    return None


def check_status(query, code, payload):
    """Re-verify a `magma status` verdict and its evidence on the table."""
    if code != 0:
        return f"exit code {code} on a valid table"
    names, table = query["elements"], np.asarray(query["table"])
    index = {name: i for i, name in enumerate(names)}
    kind, reason, ev = payload["kind"], payload["reason"], payload["evidence"]
    expected = query.get("expect_kind")
    if expected is not None and kind != expected:
        return f"verdict {kind}, expected {expected}"
    if reason == "associative":
        return None if table_is_associative(table) else "table is not associative"
    if table_is_associative(table):
        return f"verdict {reason} on an associative table"
    if reason == "solvable":
        tree = parse_tree(ev["tree"])
        image = tree_image(table, tree)
        if image != {index[ev["zero"]]}:
            return f"solvability tree has image {sorted(image)}"
        sizes = [len(level) for level in derived_chain(table)]
        return None if sizes == ev["chain_sizes"] else f"chain sizes {sizes}"
    if table_is_solvable(table):
        return f"verdict {reason} on a solvable table"
    if reason == "identity-theorem":
        e = index[ev["identity"]]
        if table_identity(table) != e:
            return f"{ev['identity']} is not a two-sided identity"
        args = [index[x] for x in ev["counterexample"]]
        lhs = tree_value(table, ASSOC_LAW[0], args)
        rhs = tree_value(table, ASSOC_LAW[1], args)
        if lhs == rhs or (names[lhs], names[rhs]) != (ev["lhs_value"], ev["rhs_value"]):
            return "associativity counterexample does not fail as reported"
        return None
    why = _cascade_passed(table, names)
    if why:
        return why
    if reason == "fvl-on-the-nose":
        bad = _check_fvl(ev["law"])
        if bad:
            return bad
        lhs, rhs = parse_law(ev["law"])
        return None if law_holds(table, lhs, rhs) else "five-variable law fails"
    if reason == "fvl-at-expansion":
        bad = _check_fvl(ev["law"])
        if bad:
            return bad
        lhs, rhs = parse_law(ev["law"])
        word = ev["expansion"]
        if not law_holds(table, apply_word(lhs, word), apply_word(rhs, word)):
            return f"five-variable law fails at expansion {word}"
        return None
    if reason == "laws-found":
        for law_text in ev["laws"]:
            lhs, rhs = parse_law(law_text)
            if lhs == rhs or not law_holds(table, lhs, rhs):
                return f"reported law {law_text} does not hold"
        return None
    if reason == "law-search-exhausted":
        return None
    return f"unknown verdict reason {reason!r}"


def golden_kind(stdout):
    return GOLDEN_TAGS[stdout.split("(", 1)[0].strip()]


def status_is_exact(payload):
    if payload["kind"] not in EXACT_KINDS:
        return False
    return not any(
        isinstance(v, str) and v.startswith("aborted")
        for v in payload["evidence"].values()
    )


def _element_problem(element, expected_map):
    src, tgt = parse_tree(element["source"]), parse_tree(element["target"])
    if not is_reduced_pair(src, tgt):
        return "tree pair is not reduced"
    if element["leaves"] != leaves(src):
        return f"leaf count {element['leaves']} != {leaves(src)}"
    if pair_map(src, tgt) != expected_map:
        return "tree pair does not act as the word's PL map"
    return None


def check_f(query, code, payload):
    """Check an `f word|ab|pl|normal-member` answer against the word's map."""
    if code != 0:
        return f"exit code {code} on a valid word"
    f = word_map(query["expr"])
    action = query["action"]
    if action == "word":
        return _element_problem(payload, f)
    if action == "ab":
        bad = _element_problem(payload["element"], f)
        if bad:
            return bad
        return None if tuple(payload["ab"]) == abelianization(f) else "wrong ab"
    if action == "pl":
        got = [(parse_dyadic(x), parse_dyadic(y)) for x, y in payload["breakpoints"]]
        if got != f:
            return "breakpoints differ from the composed PL map"
        if payload["initial_slope_log2"] != slope_log2(f[0], f[1]):
            return "wrong initial slope"
        if payload["final_slope_log2"] != slope_log2(f[-2], f[-1]):
            return "wrong final slope"
        return None
    # normal-member
    m, n = query["spec"]
    if (m, n) == (0, 0):
        member = len(f) == 2
    else:
        member = normal_member(abelianization(f), m, n)
    return None if payload["member"] == member else f"member should be {member}"


def check_from_pl(query, src_text, tgt_text):
    """The PL round trip of a word's element gives back its reduced pair."""
    f = word_map(query["expr"])
    got = (parse_tree(src_text), parse_tree(tgt_text))
    if got != map_to_pair(f):
        return "from_pl(to_pl(g)) != g"
    return None


CLOSURE_X1_DEPTH3 = 6505


def check_closure(code, payload):
    if code != 0:
        return f"exit code {code}"
    members = payload["members"]
    if payload["count"] != CLOSURE_X1_DEPTH3 or len(set(members)) != len(members):
        return f"closure has {payload['count']} members, expected {CLOSURE_X1_DEPTH3}"
    for text in members:
        if not is_reduced_pair(*split_pair_literal(text)):
            return f"closure member {text} is not a reduced pair"
    return None


def check_halfpowers(member_texts, verdicts):
    """Every closure member passes the half-power test, by both oracles."""
    if len(verdicts) != CLOSURE_X1_DEPTH3 or not all(verdicts):
        return f"{verdicts.count(False)} closure members fail the half-power test"
    for text in member_texts:
        src, tgt = split_pair_literal(text)
        if not stabilizes_halfpowers(pair_map(src, tgt)):
            return f"{text} fails the half-power test"
    return None


def split_pair_literal(text):
    body = text.strip()
    if not body.startswith("pair"):
        raise ValueError(f"not a pair literal: {text!r}")
    body = body[4:].strip()
    depth = 0
    for i, ch in enumerate(body):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if depth == 0 and ch in ".)":
            return parse_tree(body[: i + 1]), parse_tree(body[i + 1 :])
    raise ValueError(f"cannot split {text!r}")


def _steps(proof):
    return [(s["vertex"], s["law"], s["forward"]) for s in proof]


def check_derivable(query, code, payload):
    if code != 0:
        return f"exit code {code}"
    p, q = parse_tree(query["lhs"]), parse_tree(query["rhs"])
    laws = VARIETY_LAWS[query["variety"]]
    if payload["derivable"]:
        try:
            end = replay(p, _steps(payload["proof"]), laws)
        except ValueError as err:
            return f"proof does not replay: {err}"
        trail = [parse_tree(s["result"]) for s in payload["proof"]]
        if trail and trail[-1] != end:
            return "proof's printed trees disagree with its steps"
        return None if end == q else "proof does not end at the target"
    if query["variety"] == "assoc":
        return "associativity pair reported not derivable"
    if x1_signature(p) == x1_signature(q):
        return "x1-equivalent pair reported not derivable"
    return None


def _eventual_problem(p, q, kind, expansion, steps, budget, laws):
    if kind in ("holds", "in"):
        start, goal = apply_word(p, expansion), apply_word(q, expansion)
        try:
            end = replay(start, steps, laws)
        except ValueError as err:
            return f"proof does not replay: {err}"
        return None if end == goal else "proof does not end at the expanded target"
    for a, b in simultaneous_expansions(p, q, budget):
        if x1_signature(a) == x1_signature(b):
            return f"derivable at {format_tree(a)} but reported {kind}"
    return None


def check_member(query, code, payload):
    """`variety member` under the x1 law: replay positives, decide negatives."""
    f = word_map(query["expr"])
    src, tgt = map_to_pair(f)
    if payload["kind"] == "in":
        if code != 0:
            return f"exit code {code} on an 'in' answer"
        if not stabilizes_halfpowers(f):
            return "element failing the half-power test reported in"
        return _eventual_problem(
            src, tgt, "in", payload["expansion"], _steps(payload["proof"]),
            payload["budget"], VARIETY_LAWS["x1"],
        )
    if code != 3:
        return f"exit code {code} on a bounded answer"
    return _eventual_problem(
        src, tgt, payload["kind"], None, None, payload["budget"], VARIETY_LAWS["x1"]
    )


def check_eventual(query, result):
    """eventually_derivable(p, q, x1 law, budget) through the library."""
    p, q = parse_tree(query["lhs"]), parse_tree(query["rhs"])
    return _eventual_problem(
        p, q, result["kind"], result["expansion"], result["proof"], query["budget"],
        VARIETY_LAWS["x1"],
    )


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))

