"""Spans around calls into assocf's modules, installed at run time.

Nothing under ``src/`` is edited: ``Tracer.install`` rebinds each traced
function, in every assocf module that holds a reference to it, to a wrapper
that times the call, and ``uninstall`` puts the originals back.  Because the
defining module's own binding is replaced too, calls inside a module (for
example ``assoc_status`` -> ``satisfies_eventually`` -> ``satisfies``) are
traced as well.

A span's self time is its duration minus the time of the spans it caused, so
each module's self time is what that module's own code cost.  A function
already on the stack is not spanned again (recursive ``join`` or
``format_tree`` is one span), which keeps call counts equal to calls from
outside.  Two tiny, very hot functions are counted but not timed:
``trees.leaf_count`` (about 10.9M calls in one depth-3 closure, recursion
included) and ``plmaps.eval_pl``; ``trees.is_leaf`` is left alone, so its
few nanoseconds land in the caller.  Spans are aggregated in memory per
function, not kept one by one: a closure alone opens over a million.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import checks

SPANNED = {
    "cli": ("run",),
    "magmas": (
        "load_magma", "parse_law", "format_law", "satisfies",
        "satisfies_eventually", "search_laws", "assoc_status", "is_solvable",
    ),
    "trees": (
        "parse_tree", "format_tree", "expand", "join", "expansion_path",
        "subtree_at", "replace_at", "vertices", "free_carets", "remove_caret",
        "enumerate_trees", "shift", "reflect", "leftmost_leaf_depth",
        "rightmost_leaf_depth", "complete_tree",
    ),
    "thompson": (
        "parse_element", "multiply", "reduce_pair", "invert", "shift_endo",
        "abelianize", "normal_membership",
    ),
    "plmaps": ("to_pl", "from_pl", "stabilizes_halfpowers", "compose_pl", "format_pl_map"),
    "rewriting": (
        "load_variety", "derivable", "eventually_derivable",
        "membership_semidecide", "closure_generate", "apply_step",
        "format_proof", "shift_at_vertex",
    ),
}
COUNTED = {"trees": ("leaf_count",), "plmaps": ("eval_pl",)}
MODULES = tuple(SPANNED)

DECIDED_REASONS = (
    "associative", "solvable", "identity-theorem", "fvl-on-the-nose",
    "fvl-at-expansion", "laws-found", "law-search-exhausted",
)


class Stat:
    __slots__ = ("calls", "own", "active", "extra")

    def __init__(self):
        self.calls = 0
        self.own = 0.0
        self.active = False
        self.extra = defaultdict(int)


# --- per-function counters read off arguments and results ----------------------
#
# An `after` hook runs when a span closes, with the call's result, or with the
# exception it raised; a `before` hook returns a token handed to `after`.


def _on_success(hook):
    def after(tracer, st, args, result, error, token):
        if error is None:
            hook(st, args, result)

    return after


@_on_success
def _satisfies(st, args, result):
    magma, law = args[0], args[1]
    size, arity = len(magma.elements), checks.leaves(law.lhs)
    if result.holds:
        st.extra["tuples"] += size**arity
        return
    # tuples swept in lexicographic order up to the counterexample
    rank = 0
    for name in result.counterexample:
        rank = rank * size + magma.elements.index(name)
    st.extra["tuples"] += rank + 1


def _nested_calls(counter, key):
    """Count the calls of `counter` made while the spanned function runs."""

    def before(tracer):
        return tracer.stats[counter].calls

    def after(tracer, st, args, result, error, token):
        st.extra[key] += tracer.stats[counter].calls - token
        if type(error).__name__ == "BudgetExceeded":
            st.extra["guard_aborts"] += 1

    return before, after


@_on_success
def _search_laws(st, args, result):
    st.extra["laws_found"] += len(result)


@_on_success
def _assoc_status(st, args, result):
    st.extra["decided." + result.reason] += 1


@_on_success
def _multiply(st, args, result):
    st.extra["leaves"] += checks.leaves(result.source)


@_on_success
def _reduce_pair(st, args, result):
    st.extra["carets_cancelled"] += checks.leaves(args[0]) - checks.leaves(result.source)


@_on_success
def _to_pl(st, args, result):
    st.extra["breakpoints"] += len(result.points)


@_on_success
def _derivable(st, args, result):
    if result is None:
        st.extra["negatives"] += 1
    else:
        st.extra["positives"] += 1
        st.extra["proof_steps"] += len(result)


@_on_success
def _eventually_derivable(st, args, result):
    st.extra["pairs_checked"] += result.pairs_checked


@_on_success
def _membership(st, args, result):
    st.extra["in" if result.kind == "in" else "bounded"] += 1


@_on_success
def _closure(st, args, result):
    st.extra["elements"] += len(result)


# span name -> (before, after)
HOOKS = {
    "magmas.satisfies": (None, _satisfies),
    "magmas.satisfies_eventually": _nested_calls("magmas.satisfies", "pairs_checked"),
    "magmas.search_laws": (None, _search_laws),
    "magmas.assoc_status": (None, _assoc_status),
    "thompson.multiply": (None, _multiply),
    "thompson.reduce_pair": (None, _reduce_pair),
    "plmaps.to_pl": (None, _to_pl),
    "plmaps.stabilizes_halfpowers": _nested_calls("plmaps.eval_pl", "halfpowers_tested"),
    "rewriting.derivable": (None, _derivable),
    "rewriting.eventually_derivable": (None, _eventually_derivable),
    "rewriting.membership_semidecide": (None, _membership),
    "rewriting.closure_generate": (None, _closure),
}


class Tracer:
    """Aggregated spans; `enabled` gates recording while installed."""

    def __init__(self):
        self.enabled = False
        self.child = 0.0  # time of finished child spans of the open span
        self.hook_s = 0.0  # time spent in the counters above, excluded
        self.stats = defaultdict(Stat)
        self.module_self = defaultdict(float)
        self._undo = []

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "assocf" or name.startswith("assocf.")]
        for short, names in SPANNED.items():
            mod = sys.modules[f"assocf.{short}"]
            for fname in names:
                fn = getattr(mod, fname)
                self._rebind(modules, fn, self._span(f"{short}.{fname}", short, fn))
        for short, names in COUNTED.items():
            mod = sys.modules[f"assocf.{short}"]
            for fname in names:
                fn = getattr(mod, fname)
                self._rebind(modules, fn, self._count(f"{short}.{fname}", fn))

    def uninstall(self):
        for mod, name, fn in reversed(self._undo):
            setattr(mod, name, fn)
        self._undo.clear()

    def _rebind(self, modules, fn, wrapper):
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, name, fn))
                    setattr(mod, name, wrapper)

    def _count(self, name, fn):
        st = self.stats[name]
        tracer = self

        def counted(*args):
            if tracer.enabled:
                st.calls += 1
            return fn(*args)

        return counted

    def _span(self, name, module, fn):
        st = self.stats[name]
        before, after = HOOKS.get(name, (None, None))
        tracer = self
        clock = time.perf_counter

        def span(*args, **kwargs):
            if st.active or not tracer.enabled:
                return fn(*args, **kwargs)
            token = before(tracer) if before else None
            st.active = True
            outer = tracer.child
            tracer.child = 0.0
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                elapsed = clock() - start
                st.active = False
                own = elapsed - tracer.child
                st.calls += 1
                st.own += own
                tracer.module_self[module] += own
                tracer.child = outer + elapsed
                if after is not None:
                    hook_start = clock()
                    after(tracer, st, args, result, error, token)
                    spent = clock() - hook_start
                    tracer.child += spent
                    tracer.hook_s += spent

        return span

    def per_layer(self, wall_s):
        """Per-layer metrics over `wall_s` seconds of traced queries."""
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        def stat(name):
            return self.stats[name]

        run = stat("cli.run")
        put("cli.run.calls", run.calls, "count")
        put("cli.run.self_ms", 1000 * run.own / run.calls if run.calls else 0.0, "ms")

        sat = stat("magmas.satisfies")
        put("magmas.satisfies.calls", sat.calls, "count")
        put("magmas.satisfies.tuples", sat.extra["tuples"], "count")
        put("magmas.satisfies.self_s", sat.own, "s")
        put("magmas.satisfies.tuples_per_s",
            sat.extra["tuples"] / sat.own if sat.own else 0.0, "1/s")
        ev = stat("magmas.satisfies_eventually")
        put("magmas.satisfies_eventually.calls", ev.calls, "count")
        put("magmas.satisfies_eventually.pairs_checked", ev.extra["pairs_checked"], "count")
        put("magmas.satisfies_eventually.guard_aborts", ev.extra["guard_aborts"], "count")
        put("magmas.satisfies_eventually.self_s", ev.own, "s")
        laws = stat("magmas.search_laws")
        put("magmas.search_laws.calls", laws.calls, "count")
        put("magmas.search_laws.laws_found", laws.extra["laws_found"], "count")
        put("magmas.search_laws.self_s", laws.own, "s")
        status = stat("magmas.assoc_status")
        for reason in DECIDED_REASONS:
            put(f"magmas.assoc_status.decided.{reason}",
                status.extra["decided." + reason], "count")

        for fname in ("expand", "join", "expansion_path"):
            st = stat(f"trees.{fname}")
            put(f"trees.{fname}.calls", st.calls, "count")
            put(f"trees.{fname}.self_s", st.own, "s")
        put("trees.leaf_count.calls", stat("trees.leaf_count").calls, "count")

        mul = stat("thompson.multiply")
        put("thompson.multiply.calls", mul.calls, "count")
        put("thompson.multiply.self_s", mul.own, "s")
        put("thompson.multiply.leaves", mul.extra["leaves"], "count")
        red = stat("thompson.reduce_pair")
        put("thompson.reduce_pair.calls", red.calls, "count")
        put("thompson.reduce_pair.carets_cancelled", red.extra["carets_cancelled"], "count")
        parse = stat("thompson.parse_element")
        put("thompson.parse_element.calls", parse.calls, "count")
        put("thompson.parse_element.self_s", parse.own, "s")

        to_pl = stat("plmaps.to_pl")
        put("plmaps.to_pl.calls", to_pl.calls, "count")
        put("plmaps.to_pl.self_s", to_pl.own, "s")
        put("plmaps.to_pl.breakpoints", to_pl.extra["breakpoints"], "count")
        half = stat("plmaps.stabilizes_halfpowers")
        put("plmaps.stabilizes_halfpowers.calls", half.calls, "count")
        put("plmaps.stabilizes_halfpowers.self_s", half.own, "s")
        put("plmaps.stabilizes_halfpowers.halfpowers_tested",
            half.extra["halfpowers_tested"], "count")
        from_pl = stat("plmaps.from_pl")
        put("plmaps.from_pl.calls", from_pl.calls, "count")
        put("plmaps.from_pl.self_s", from_pl.own, "s")

        der = stat("rewriting.derivable")
        put("rewriting.derivable.calls", der.calls, "count")
        for key in ("positives", "negatives", "proof_steps"):
            put(f"rewriting.derivable.{key}", der.extra[key], "count")
        put("rewriting.derivable.self_s", der.own, "s")
        evd = stat("rewriting.eventually_derivable")
        put("rewriting.eventually_derivable.calls", evd.calls, "count")
        put("rewriting.eventually_derivable.pairs_checked", evd.extra["pairs_checked"], "count")
        put("rewriting.eventually_derivable.self_s", evd.own, "s")
        mem = stat("rewriting.membership_semidecide")
        put("rewriting.membership_semidecide.calls", mem.calls, "count")
        put("rewriting.membership_semidecide.in", mem.extra["in"], "count")
        put("rewriting.membership_semidecide.bounded", mem.extra["bounded"], "count")
        put("rewriting.membership_semidecide.self_s", mem.own, "s")
        clo = stat("rewriting.closure_generate")
        put("rewriting.closure_generate.calls", clo.calls, "count")
        put("rewriting.closure_generate.elements", clo.extra["elements"], "count")
        put("rewriting.closure_generate.self_s", clo.own, "s")

        for module in MODULES:
            put(f"{module}.self_share",
                self.module_self[module] / wall_s if wall_s else 0.0, "fraction")
        return out
