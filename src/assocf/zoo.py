"""Built-in example algebras and a small permutation-group engine.

Everything here returns an immutable Magma built from scratch: the
four-element tables, permutation groups and their commutator magmas,
the sixteen signed octonion units, the signed sl2 basis fragment, and cyclic
addition.  BUILTINS maps stable names to builders for the CLI.

A permutation group's table is one numpy gather of |G|^2 x degree point
images, bounded by PERMUTATION_CAP: the closure stops before a group
whose gather would pass it, so no larger table is ever allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import isqrt

import numpy as np

from .errors import BudgetExceeded
from .magmas import Magma

# Most point images a permutation group's table may compose, |G|^2 x degree
# (2^24, 16.8 M), so a table holds at most 2^24 / degree entries.  S6 (720
# elements of degree 6, 518,400 entries) composes 3.1 M; at degree 8 the
# bound allows 1,448 elements.
PERMUTATION_CAP = 1 << 24


@dataclass(frozen=True)
class Permutation:
    """Bijection of {0..n-1}, displayed in 1-based cycle notation."""

    images: tuple

    @staticmethod
    def identity(n):
        return Permutation(tuple(range(n)))

    @staticmethod
    def from_cycles(n, *cycles):
        """Cycles given with 1-based points, e.g. from_cycles(5, (1,2,3))."""
        images = list(range(n))
        for cycle in cycles:
            for at, nxt in zip(cycle, cycle[1:] + cycle[:1]):
                images[at - 1] = nxt - 1
        p = Permutation(tuple(images))
        if sorted(p.images) != list(range(n)):
            raise ValueError("cycles do not describe a bijection")
        return p

    def __mul__(self, other):
        # apply other first, then self (function composition)
        return Permutation(tuple(self.images[v] for v in other.images))

    def inverse(self):
        out = [0] * len(self.images)
        for i, v in enumerate(self.images):
            out[v] = i
        return Permutation(tuple(out))

    def __str__(self):
        return cycle_notation(self.images)


def cycle_notation(images):
    """"(1,2,3)(4,5)" style; the identity prints as "e"."""
    seen = [False] * len(images)
    parts = []
    for start in range(len(images)):
        if seen[start] or images[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        cur = images[start]
        while cur != start:
            cycle.append(cur)
            seen[cur] = True
            cur = images[cur]
        parts.append("(" + ",".join(str(v + 1) for v in cycle) + ")")
    return "".join(parts) or "e"


def permutation_group(generators):
    """Closure of the generators, as the Magma of its composition table
    with cycle-notation names.

    Elements are ordered lexicographically by image tuple, which puts the
    identity first.  A group whose |G|^2 x degree passes PERMUTATION_CAP
    raises BudgetExceeded while it is closed, before its table is built.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    degree = len(gens[0].images)
    if any(len(g.images) != degree for g in gens):
        raise ValueError("generators must act on the same set")
    most = isqrt(PERMUTATION_CAP // degree)  # elements
    ident = Permutation.identity(degree)
    seen = {ident.images}
    queue = [ident]
    while queue:
        p = queue.pop()
        for g in gens:
            q = p * g
            if q.images not in seen:
                if len(seen) >= most:
                    raise BudgetExceeded(
                        f"group closure exceeds cap {PERMUTATION_CAP} "
                        f"point images ({most} elements of degree {degree})"
                    )
                seen.add(q.images)
                queue.append(q)
    ordered = sorted(seen)
    # big-endian points, so each row's bytes compare as its image tuple does
    points = np.array(ordered, np.min_scalar_type(degree - 1).newbyteorder(">"))
    rows = points.view(f"V{points.itemsize * degree}").ravel()
    composed = np.take(points, points, axis=1)  # [p, q] is p after q
    table = np.searchsorted(rows, composed.view(rows.dtype)[..., 0])
    return Magma([cycle_notation(images) for images in ordered], table)


def commutator_magma(group):
    """The magma x, y -> x y x^-1 y^-1 over a group's Magma.

    The table is taken to be associative, as a permutation group's is."""
    identity = group.two_sided_identity
    if identity is None:
        raise ValueError("table has no two-sided identity")
    a, e = group.table, group.index(identity)
    inv = np.argmax(a == e, axis=1)  # the first right inverse, or 0
    each = np.arange(len(a))
    if not ((a[each, inv] == e) & (a[inv, each] == e)).all():
        raise ValueError("table has a non-invertible element")
    xy_xi = a[a, inv[:, None]]
    table = a[xy_xi, inv[None, :]]
    return Magma(group.elements, table)


@cache
def pre_sl2():
    """Four-element table whose only strongly regular laws are trivial."""
    return Magma.from_rows(
        ("0", "a", "b", "c"),
        (
            ("0", "0", "0", "0"),
            ("0", "0", "a", "b"),
            ("0", "a", "0", "c"),
            ("0", "b", "c", "0"),
        ),
    )


@cache
def s4_example():
    """Four elements with [x,1]=x, [x,a]=b, [x,b]=c, [x,c]=c: a right
    identity but no left one."""
    names = ("1", "a", "b", "c")
    return Magma.from_rows(names, tuple((x, "b", "c", "c") for x in names))


@cache
def s3_commutator():
    gens = (
        Permutation.from_cycles(3, (1, 2)),
        Permutation.from_cycles(3, (1, 2, 3)),
    )
    return commutator_magma(permutation_group(gens))


@cache
def a5_commutator():
    gens = (
        Permutation.from_cycles(5, (1, 2, 3, 4, 5)),
        Permutation.from_cycles(5, (1, 2, 3)),
    )
    return commutator_magma(permutation_group(gens))


def _octonion_unit_mul(i, j, level=3):
    """Sign and index of e_i * e_j in the level-fold Cayley-Dickson double
    of the reals: (a,b)(c,d) = (ac - d*b, da + bc*)."""
    if level == 0:
        return 1, 0
    half = 1 << (level - 1)
    ihi, jhi = i >= half, j >= half
    il, jl = i % half, j % half
    if not ihi and not jhi:
        return _octonion_unit_mul(il, jl, level - 1)
    if not ihi and jhi:
        sign, k = _octonion_unit_mul(jl, il, level - 1)  # d a
        return sign, k + half
    if ihi and not jhi:
        sign, k = _octonion_unit_mul(il, jl, level - 1)  # b c*
        return sign * (1 if jl == 0 else -1), k + half
    sign, k = _octonion_unit_mul(jl, il, level - 1)  # -(d* b)
    return -sign * (1 if jl == 0 else -1), k


@cache
def octonion_unit_loop():
    """The sixteen signed octonion basis units under multiplication."""
    names = tuple(f"e{i}" for i in range(8)) + tuple(f"-e{i}" for i in range(8))

    def mul(x, y):
        sx, ix = (1, x) if x < 8 else (-1, x - 8)
        sy, iy = (1, y) if y < 8 else (-1, y - 8)
        sign, k = _octonion_unit_mul(ix, iy)
        return k if sx * sy * sign > 0 else k + 8

    table = [[mul(x, y) for y in range(16)] for x in range(16)]
    return Magma(names, table)


_SL2_BASE = {
    (-1, 0): (-1, -1),
    (0, -1): (1, -1),
    (-1, 1): (-2, 0),
    (1, -1): (2, 0),
    (0, 1): (-1, 1),
    (1, 0): (1, 1),
}


def _sl2_name(coef, basis):
    prefix = {1: "", 2: "2", -1: "-", -2: "-2"}[coef]
    return f"{prefix}e{basis}"


@cache
def sl2_table():
    """Signed multiples of the sl2 basis under the bracket, coefficients
    capped at 2 (the true closure is infinite; the cap keeps the table
    finite and never changes which basis line a bracket lands on, so the
    collapse onto pre_sl2 stays a quotient)."""
    members = [None] + [
        (coef, basis) for coef in (1, 2, -1, -2) for basis in (-1, 0, 1)
    ]
    names = ["0"] + [_sl2_name(c, b) for c, b in members[1:]]
    index = {m: i for i, m in enumerate(members)}

    def bracket(x, y):
        if x is None or y is None or x[1] == y[1]:
            return None
        scale, basis = _SL2_BASE[(x[1], y[1])]
        coef = x[0] * y[0] * scale
        coef = max(-2, min(2, coef))
        return (coef, basis)

    table = [[index[bracket(x, y)] for y in members] for x in members]
    return Magma(names, table)


@cache
def cyclic_addition(n):
    """Addition mod n, the stock associative example."""
    names = tuple(str(i) for i in range(n))
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return Magma(names, table)


BUILTINS = {
    "pre_sl2": pre_sl2,
    "s4": s4_example,
    "s3_commutator": s3_commutator,
    "a5_commutator": a5_commutator,
    "octonion_units": octonion_unit_loop,
    "sl2_signed_basis": sl2_table,
    "z4_addition": lambda: cyclic_addition(4),
}
