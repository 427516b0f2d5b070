"""Stable associativity of binary operations, measured inside Thompson's
group F.

A finite binary operation need not be associative, yet some bracketings of
a product may still agree — possibly only after both sides are refined by
expansions.  This package makes that residue of associativity computable:

- :mod:`assocf.trees` — binary trees as bracketings, expansions, and the
  expansion monoid.
- :mod:`assocf.thompson` — tree-pair elements of Thompson's group F: the
  group operations, shift endomorphisms, the reflection automorphism,
  abelianization, and the normal-subgroup classification.
- :mod:`assocf.plmaps` — the exact piecewise-linear model on [0, 1], with
  dyadic rationals as ``fractions.Fraction`` values.
- :mod:`assocf.magmas` — finite operation tables, exhaustive law checking,
  law search, solvability, and the associativity-status classifier.
- :mod:`assocf.rewriting` — equational derivability between bracketings,
  eventual derivability, and subgroup membership semidecision.
- :mod:`assocf.zoo` — worked example tables (permutation-group commutator
  magmas, signed octonion units, a signed sl2 bracket table, ...).
- :mod:`assocf.cli` — the ``assocf`` command-line interface.
"""

from .errors import BudgetExceeded, ParseError
from .magmas import Magma, assoc_status, dump_magma, load_magma, parse_law
from .thompson import FElement, generators, multiply, reduce_pair
from .trees import format_tree, parse_tree

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "FElement",
    "Magma",
    "ParseError",
    "assoc_status",
    "dump_magma",
    "format_tree",
    "generators",
    "load_magma",
    "multiply",
    "parse_law",
    "parse_tree",
    "reduce_pair",
    "__version__",
]
