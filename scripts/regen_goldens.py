#!/usr/bin/env python3
"""Regenerate the CLI golden files under tests/golden/.

Each golden records argv, the exit code, and the exact stdout of one CLI
invocation; tests/test_cli.py replays them byte-for-byte.  Run this after
any deliberate change to CLI output, then review the diff.
"""

import contextlib
import io
import json
import os
import pathlib

from assocf import cli

ASSOC = "((. .) .) = (. (. .))"

CASES = [
    ("tree_parse", ["tree", "parse", "((. .) (. .))"]),
    ("tree_expand", ["tree", "expand", "(. .)", "1"]),
    ("tree_shift", ["tree", "shift", "((. .) .)", "right"]),
    ("tree_reflect", ["tree", "reflect", "((. .) .)"]),
    ("tree_join", ["tree", "join", "((. .) .)", "(. (. .))"]),
    ("f_mul", ["f", "mul", "x0", "x1"]),
    ("f_inv", ["f", "inv", "[x0,x1]"]),
    ("f_word", ["f", "word", "x1^x0"]),
    ("f_ab", ["f", "ab", "x0 * x1"]),
    ("f_pl", ["f", "pl", "x0"]),
    ("f_reduce", ["f", "reduce", "((. .) .)", "(. (. .))"]),
    ("f_shifts", ["f", "shifts", "x0"]),
    ("f_normal_member_in", ["f", "normal-member", "x0", "1", "1"]),
    ("f_normal_member_out", ["f", "normal-member", "x0", "2", "1"]),
    ("magma_check_holds", ["magma", "check", "fixtures/z4_addition.magma", ASSOC]),
    ("magma_check_fails", ["magma", "check", "fixtures/s4.magma", ASSOC]),
    ("magma_eventual_holds", ["magma", "eventual", "fixtures/s3_commutator.magma", ASSOC]),
    ("magma_eventual_exact_fail", ["magma", "eventual", "fixtures/pre_sl2.magma", ASSOC]),
    ("magma_eventual_budget", ["magma", "eventual", "fixtures/sl2_signed_basis.magma", ASSOC]),
    ("magma_eventual_two_carets", ["magma", "eventual", "fixtures/s3_commutator.magma", "(. (. (. .))) = (((. .) .) .)"]),
    ("magma_solvable", ["magma", "solvable", "fixtures/s3_commutator.magma"]),
    ("magma_solvable_not", ["magma", "solvable", "fixtures/pre_sl2.magma"]),
    ("magma_status_z4", ["magma", "status", "fixtures/z4_addition.magma"]),
    ("magma_status_s4", ["magma", "status", "fixtures/s4.magma"]),
    ("magma_status_s3c", ["magma", "status", "fixtures/s3_commutator.magma"]),
    ("magma_status_octonions", ["magma", "status", "fixtures/octonion_units.magma"]),
    ("magma_status_pre_sl2_cap4", ["magma", "status", "fixtures/pre_sl2.magma", "--arity-cap", "4"]),
    ("magma_search_z4", ["magma", "search", "fixtures/z4_addition.magma", "3"]),
    ("magma_search_s4", ["magma", "search", "fixtures/s4.magma", "4"]),
    ("magma_centralizer_pair", ["magma", "centralizer", "fixtures/pre_sl2.magma", "0", "a", "b"]),
    ("magma_centralizer_single", ["magma", "centralizer", "fixtures/pre_sl2.magma", "0", "a"]),
    ("magma_image", ["magma", "image", "fixtures/s4.magma", "(. .)", "2=a"]),
    ("variety_derivable_yes", ["variety", "derivable", "fixtures/associativity.variety", "((. .) (. .))", "(. (. (. .)))"]),
    ("variety_derivable_no", ["variety", "derivable", "fixtures/x1_law.variety", "((. .) (. (. .)))", "((. (. .)) (. .))"]),
    ("variety_member_in", ["variety", "member", "fixtures/x1_law.variety", "x1"]),
    ("variety_member_out", ["variety", "member", "fixtures/x1_law.variety", "x0", "--budget", "1"]),
    ("variety_closure", ["variety", "closure", "fixtures/x1_law.variety", "1"]),
    ("zoo_list", ["zoo", "list"]),
    ("zoo_emit", ["zoo", "emit", "pre_sl2"]),
]


def capture(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def main():
    root = pathlib.Path(__file__).resolve().parent.parent
    os.chdir(root)
    dest = pathlib.Path("tests/golden")
    dest.mkdir(parents=True, exist_ok=True)
    names = set()
    for name, argv in CASES:
        assert name not in names, name
        names.add(name)
        code, stdout = capture(argv)
        doc = {"argv": argv, "exit_code": code, "stdout": stdout}
        (dest / f"{name}.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        first = stdout.splitlines()[0] if stdout else "<empty>"
        print(f"{name}: exit {code}: {first}")


if __name__ == "__main__":
    main()
