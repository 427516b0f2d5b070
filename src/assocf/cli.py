"""Command line surface for trees, group elements, magmas, and varieties.

Every subcommand prints a human-readable report by default and a stable
JSON object with --json (keys sorted, sets sorted, identical across runs).
Exit codes: 0 success, 1 usage, 2 malformed input, 3 budget exhausted with
the partial report still printed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

from . import magmas, plmaps, rewriting, thompson, trees, zoo
from .errors import BudgetExceeded, ParseError
from .magmas import format_law, parse_law
from .trees import format_tree, parse_tree

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


@dataclass
class CommandResult:
    status: str
    payload: object
    diagnostics: tuple = ()
    exit_code: int = EXIT_OK
    text: str = ""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through our own codes
    def error(self, message):
        raise _UsageError(message)


def _element_payload(g):
    return {
        "source": format_tree(g.source),
        "target": format_tree(g.target),
        "leaves": g.leaves,
    }


def _map_payload(f):
    return {
        "breakpoints": [
            [plmaps.dyadic_str(x), plmaps.dyadic_str(y)] for x, y in f.points
        ],
        "initial_slope_log2": f.initial_slope_log2(),
        "final_slope_log2": f.final_slope_log2(),
    }


def _law_check_payload(check):
    out = {"law": format_law(check.law), "holds": check.holds}
    if check.counterexample is not None:
        out["counterexample"] = list(check.counterexample)
        out["lhs_value"] = check.lhs_value
        out["rhs_value"] = check.rhs_value
    return out


_STATUS_TAGS = {
    "full_f": "FullF",
    "trivial_certified": "TrivialCertified",
    "contains_commutator": "ContainsCommutator",
    "no_law_up_to": "NoLawUpTo",
    "unknown": "Unknown",
}


def _format_status(status):
    tag = _STATUS_TAGS[status.kind]
    if status.kind == "no_law_up_to":
        inner = str(status.evidence["arity"])
    elif status.kind == "unknown":
        laws = status.evidence["laws"]
        noun = "law" if len(laws) == 1 else "laws"
        inner = f"{len(laws)} {noun} at arity <= {status.evidence['searched_up_to']}"
    elif status.kind == "contains_commutator":
        inner = status.reason.removeprefix("fvl-")
    else:
        inner = status.reason
    return f"{tag}({inner})"


# how each kind of evidence is written; the rest are names and numbers
_EVIDENCE_FORMATS = {
    "law": format_law,
    "laws": lambda laws: [format_law(law) for law in laws],
    "tree": format_tree,
    "expansion": str,
    "chain_sizes": list,
    "counterexample": list,
}


def _status_payload(status):
    evidence = {
        key: _EVIDENCE_FORMATS.get(key, lambda v: v)(value)
        for key, value in status.evidence.items()
    }
    return {"kind": status.kind, "reason": status.reason, "evidence": evidence}


def _eventual_payload(res):
    return {
        "kind": res.kind,
        "law": format_law(res.law),
        "holds": res.holds,
        "witness": None if res.witness is None else str(res.witness),
    }


def _proof_payload(start, proof):
    steps = []
    t = start
    for step in proof:
        t = rewriting.apply_step(t, step)
        steps.append(
            {
                "vertex": step.vertex,
                "law": format_law(step.law),
                "law_index": step.law_index,
                "forward": step.forward,
                "result": format_tree(t),
            }
        )
    return steps


def _read_file(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err.strerror or err}") from err


def _write_file(path, text):
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise ParseError(f"cannot write {path}: {err.strerror or err}") from err


def _load_magma_file(path):
    return magmas.load_magma(_read_file(path))


def _load_variety_file(path):
    return rewriting.load_variety(_read_file(path))


# --- tree ----------------------------------------------------------------


def _cmd_tree(args):
    if args.action == "parse":
        t = parse_tree(args.tree)
    elif args.action == "expand":
        t = trees.expand(parse_tree(args.tree), args.leaf)
    elif args.action == "shift":
        t = trees.shift(parse_tree(args.tree), args.side)
    elif args.action == "reflect":
        t = trees.reflect(parse_tree(args.tree))
    else:
        t = trees.join(parse_tree(args.tree), parse_tree(args.other))
    payload = {"tree": format_tree(t), "leaves": trees.leaf_count(t)}
    return CommandResult("ok", payload, text=format_tree(t))


# --- f ---------------------------------------------------------------------


def _format_ab(pair):
    return f"({pair[0]},{pair[1]})"


def _cmd_f(args):
    if args.action == "mul":
        g = thompson.multiply(
            thompson.parse_element(args.left), thompson.parse_element(args.right)
        )
    elif args.action == "inv":
        g = thompson.invert(thompson.parse_element(args.element))
    elif args.action in ("word", "ab", "pl", "shifts", "normal-member"):
        g = thompson.parse_element(args.element)
    else:  # reduce
        g = thompson.reduce_pair(parse_tree(args.source), parse_tree(args.target))

    if args.action == "ab":
        ab = thompson.abelianize(g)
        payload = {"ab": list(ab), "element": _element_payload(g)}
        return CommandResult("ok", payload, text=_format_ab(ab))
    if args.action == "pl":
        f = plmaps.to_pl(g)
        payload = _map_payload(f)
        if args.svg:
            _write_file(args.svg, plmaps.svg_document(f))
            payload["svg"] = args.svg
        return CommandResult("ok", payload, text=plmaps.format_pl_map(f))
    if args.action == "shifts":
        left = thompson.shift_endo(g, "left")
        right = thompson.shift_endo(g, "right")
        payload = {"s0": _element_payload(left), "s1": _element_payload(right)}
        return CommandResult(
            "ok", payload, text=f"s0: {left}\ns1: {right}"
        )
    if args.action == "normal-member":
        spec = thompson.NormalSubgroupSpec(args.m, args.n)
        member = thompson.normal_membership(g, spec)
        payload = {
            "member": member,
            "spec": [args.m, args.n],
            "ab": list(thompson.abelianize(g)),
        }
        return CommandResult("ok", payload, text="yes" if member else "no")
    payload = _element_payload(g)
    return CommandResult("ok", payload, text=str(g))


# --- magma -----------------------------------------------------------------


def _cmd_magma(args):
    m = _load_magma_file(args.file)
    if args.action == "check":
        check = magmas.satisfies(m, parse_law(args.law))
        text = "holds" if check else (
            f"fails at ({', '.join(check.counterexample)}): "
            f"{check.lhs_value} != {check.rhs_value}"
        )
        return CommandResult("ok", _law_check_payload(check), text=text)
    if args.action == "eventual":
        res = magmas.satisfies_eventually(m, parse_law(args.law))
        if res.kind == "never":
            text = "never holds (exact: fails on the derived core)"
        elif res.witness.letters:
            text = f"holds at expansion {res.witness}"
        else:
            text = "holds on the nose"
        return CommandResult("ok", _eventual_payload(res), text=text)
    if args.action == "solvable":
        witness = magmas.is_solvable(m)
        chain = magmas.derived_chain(m)
        payload = {"chain_sizes": list(chain.sizes), "solvable": witness is not None}
        if witness is None:
            return CommandResult("ok", payload, text="not solvable")
        payload["zero"] = witness.zero
        payload["depth"] = witness.depth
        payload["tree"] = format_tree(witness.tree)
        return CommandResult(
            "ok",
            payload,
            text=f"solvable: depth {witness.depth} tree is constant {witness.zero}",
        )
    if args.action == "status":
        status = magmas.assoc_status(m, eventual_carets=args.budget)
        return CommandResult(
            "ok", _status_payload(status), text=_format_status(status)
        )
    if args.action == "search":
        laws = [format_law(law) for law in magmas.search_laws(m, args.arity)]
        payload = {"arity": args.arity, "laws": laws}
        return CommandResult("ok", payload, text="\n".join(laws) or "no laws")
    if args.action == "centralizer":
        found = magmas.centralizer(m, tuple(args.names), args.zero)
        payload = {"zero": args.zero, "subset": args.names, "centralizer": sorted(found)}
        return CommandResult("ok", payload, text=" ".join(sorted(found)))
    # image
    fixed = {}
    for item in args.fixed:
        pos, _, name = item.partition("=")
        if not _ or not pos.isdigit():
            raise ParseError(f"fixed assignment must be POS=NAME, got {item!r}")
        if int(pos) in fixed:
            raise ParseError(f"leaf position {int(pos)} is pinned twice")
        fixed[int(pos)] = name
    image = magmas.restricted_image(m, parse_tree(args.tree), fixed)
    payload = {"tree": args.tree, "fixed": args.fixed, "image": sorted(image)}
    return CommandResult(
        "ok", payload, text=f"{len(image)} elements: {' '.join(sorted(image))}"
    )


# --- variety -----------------------------------------------------------------


def _cmd_variety(args):
    variety = _load_variety_file(args.file)
    if args.action == "derivable":
        p, q = parse_tree(args.lhs), parse_tree(args.rhs)
        proof = rewriting.derivable(p, q, variety)
        payload = {"derivable": proof is not None}
        if proof is not None:
            payload["proof"] = _proof_payload(p, proof)
            text = rewriting.format_proof(p, proof)
        else:
            text = f"not derivable at {trees.leaf_count(p)} leaves"
        return CommandResult("ok", payload, text=text)
    if args.action == "member":
        g = thompson.parse_element(args.element)
        gens = [thompson.reduce_pair(law.lhs, law.rhs) for law in variety.laws]
        res = rewriting.membership_semidecide(g, gens, budget=args.budget)
        payload = {
            "kind": res.kind,
            "budget": args.budget,
            "leaf_cap": rewriting.LEAF_CAP,
        }
        if res:
            payload["expansion"] = str(res.expansion)
            src = res.expansion.apply(g.source)
            payload["proof"] = _proof_payload(src, res.proof)
            return CommandResult(
                "ok", payload, text=f"in (expansion {res.expansion})"
            )
        return CommandResult(
            "ok",
            payload,
            exit_code=EXIT_BUDGET,
            text=f"not derivable within {args.budget} added carets",
        )
    # closure
    gens = [thompson.reduce_pair(law.lhs, law.rhs) for law in variety.laws]
    members = rewriting.closure_generate(gens, args.depth)
    listed = sorted(str(g) for g in members)
    payload = {"depth": args.depth, "count": len(members), "members": listed}
    return CommandResult(
        "ok", payload, text="\n".join([f"{len(members)} elements"] + listed)
    )


# --- zoo ---------------------------------------------------------------------


def _cmd_zoo(args):
    if args.action == "list":
        names = sorted(zoo.BUILTINS)
        return CommandResult("ok", {"builtins": names}, text="\n".join(names))
    try:
        builder = zoo.BUILTINS[args.name]
    except KeyError:
        raise ParseError(
            f"unknown builtin {args.name!r}; see `zoo list`"
        ) from None
    text = magmas.dump_magma(builder())
    return CommandResult(
        "ok", {"name": args.name, "text": text}, text=text.rstrip("\n")
    )


def _add_common(parser):
    parser.add_argument("--json", action="store_true", help="structured output")


@functools.cache
def build_parser():
    # built on first use, not at import, and kept: building costs more than
    # answering most queries
    parser = _Parser(prog="assocf", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)

    tree = top.add_parser("tree", help="binary tree toolkit").add_subparsers(
        dest="action", required=True
    )
    sub = tree.add_parser("parse")
    sub.add_argument("tree")
    _add_common(sub)
    sub = tree.add_parser("expand")
    sub.add_argument("tree")
    sub.add_argument("leaf", type=int)
    _add_common(sub)
    sub = tree.add_parser("shift")
    sub.add_argument("tree")
    sub.add_argument("side", choices=("left", "right"))
    _add_common(sub)
    sub = tree.add_parser("reflect")
    sub.add_argument("tree")
    _add_common(sub)
    sub = tree.add_parser("join")
    sub.add_argument("tree")
    sub.add_argument("other")
    _add_common(sub)

    f = top.add_parser("f", help="Thompson group elements").add_subparsers(
        dest="action", required=True
    )
    sub = f.add_parser("mul")
    sub.add_argument("left")
    sub.add_argument("right")
    _add_common(sub)
    sub = f.add_parser("inv")
    sub.add_argument("element")
    _add_common(sub)
    sub = f.add_parser("word")
    sub.add_argument("element")
    _add_common(sub)
    sub = f.add_parser("ab")
    sub.add_argument("element")
    _add_common(sub)
    sub = f.add_parser("pl")
    sub.add_argument("element")
    sub.add_argument("--svg", help="write a plot of the map to this path")
    _add_common(sub)
    sub = f.add_parser("reduce")
    sub.add_argument("source")
    sub.add_argument("target")
    _add_common(sub)
    sub = f.add_parser("shifts")
    sub.add_argument("element")
    _add_common(sub)
    sub = f.add_parser("normal-member")
    sub.add_argument("element")
    sub.add_argument("m", type=int)
    sub.add_argument("n", type=int)
    _add_common(sub)

    magma = top.add_parser("magma", help="finite bracket algebras").add_subparsers(
        dest="action", required=True
    )
    sub = magma.add_parser("check")
    sub.add_argument("file")
    sub.add_argument("law")
    _add_common(sub)
    sub = magma.add_parser("eventual")
    sub.add_argument("file")
    sub.add_argument("law")
    _add_common(sub)
    sub = magma.add_parser("solvable")
    sub.add_argument("file")
    _add_common(sub)
    sub = magma.add_parser("status")
    sub.add_argument("file")
    sub.add_argument(
        "--budget",
        type=int,
        default=6,
        help="largest five-variable-law witness, in added carets, to report",
    )
    _add_common(sub)
    sub = magma.add_parser("search")
    sub.add_argument("file")
    sub.add_argument("arity", type=int)
    _add_common(sub)
    sub = magma.add_parser("centralizer")
    sub.add_argument("file")
    sub.add_argument("zero")
    sub.add_argument("names", nargs="*")
    _add_common(sub)
    sub = magma.add_parser("image")
    sub.add_argument("file")
    sub.add_argument("tree")
    sub.add_argument("fixed", nargs="*", help="leaf assignments POS=NAME")
    _add_common(sub)

    variety = top.add_parser("variety", help="equational derivability").add_subparsers(
        dest="action", required=True
    )
    sub = variety.add_parser("derivable")
    sub.add_argument("file")
    sub.add_argument("lhs")
    sub.add_argument("rhs")
    _add_common(sub)
    sub = variety.add_parser("member")
    sub.add_argument("file", help="variety file; each law is a generator pair")
    sub.add_argument("element")
    sub.add_argument("--budget", type=int, default=3, help="max added carets")
    _add_common(sub)
    sub = variety.add_parser("closure")
    sub.add_argument("file", help="variety file; each law is a generator pair")
    sub.add_argument("depth", type=int)
    _add_common(sub)

    zoo_parser = top.add_parser("zoo", help="built-in examples").add_subparsers(
        dest="action", required=True
    )
    sub = zoo_parser.add_parser("list")
    _add_common(sub)
    sub = zoo_parser.add_parser("emit")
    sub.add_argument("name")
    _add_common(sub)

    return parser


_HANDLERS = {
    "tree": _cmd_tree,
    "f": _cmd_f,
    "magma": _cmd_magma,
    "variety": _cmd_variety,
    "zoo": _cmd_zoo,
}


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = _HANDLERS[args.command](args)
    except ValueError as err:  # ParseError included
        result = CommandResult(
            "error", {"error": str(err)}, exit_code=EXIT_INPUT, text=f"error: {err}"
        )
    except BudgetExceeded as err:
        result = CommandResult(
            "error",
            {"error": str(err)},
            exit_code=EXIT_BUDGET,
            text=f"budget exhausted: {err}",
        )
    if getattr(args, "json", False):
        document = {
            "status": result.status,
            "payload": result.payload,
            "diagnostics": list(result.diagnostics),
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(result.text)
    return result.exit_code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
