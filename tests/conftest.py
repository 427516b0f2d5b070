import random

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from assocf import thompson, zoo
from assocf.magmas import Law
from assocf.plmaps import to_pl

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def builtins():
    return {name: builder() for name, builder in zoo.BUILTINS.items()}


@pytest.fixture
def rng():
    return random.Random(20260817)


def random_tree(rng, n):
    """A random tree with n leaves (random splits, not uniform on shapes)."""
    if n == 1:
        return ()
    k = rng.randint(1, n - 1)
    return (random_tree(rng, k), random_tree(rng, n - k))


def random_element(rng, max_factors=20):
    """Product of up to max_factors random generator letters."""
    gens = thompson.generators()
    x0, x1 = gens["x0"], gens["x1"]
    letters = [x0, x1, thompson.invert(x0), thompson.invert(x1)]
    out = thompson.IDENTITY
    for _ in range(rng.randint(1, max_factors)):
        out = thompson.multiply(out, rng.choice(letters))
    return out


def expand_both(law, word):
    """The law with both sides expanded by the same word."""
    return Law(word.apply(law.lhs), word.apply(law.rhs))


def one_sided_identities(m):
    """(left, right): the elements whose row, or column, is the identity
    map, read product by product."""
    names = list(m.elements)
    left = tuple(x for x in names if [m.op(x, y) for y in names] == names)
    right = tuple(y for y in names if [m.op(x, y) for x in names] == names)
    return left, right


def right_comb(n):
    t = ()
    for _ in range(n - 1):
        t = ((), t)
    return t


def nodes(trees):
    """Every interior node of the given trees, keyed by object identity."""
    out, stack = {}, list(trees)
    while stack:
        t = stack.pop()
        if t != () and id(t) not in out:
            out[id(t)] = t
            stack.extend(t)
    return out


def support_interval(g):
    """Smallest closed dyadic interval outside which g acts as the identity,
    read off its PL map; the identity element gets (0, 0)."""
    pts = to_pl(g).points
    moved = [i for i, (x, y) in enumerate(pts) if x != y]
    if not moved:
        return (0, 0)
    return (pts[moved[0] - 1][0], pts[moved[-1] + 1][0])


def random_magma(seed, size):
    """A uniformly random operation table, stdlib-seeded for reproducibility."""
    gen = np.random.default_rng(seed)
    names = tuple(f"g{i}" for i in range(size))
    from assocf.magmas import Magma

    return Magma(names, gen.integers(0, size, size=(size, size)))
