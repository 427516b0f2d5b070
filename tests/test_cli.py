"""CLI surface tests.

Every subcommand has a golden file under tests/golden/ recording argv, exit
code, and exact stdout; the suite replays each one, then re-runs it with
--json and checks the structured document round-trips through json exactly.
Error paths pin the exit-code contract: 1 usage, 2 bad input, 3 budget.
"""

import contextlib
import io
import json
import pathlib
import random
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_tree

from assocf import cli
from assocf.magmas import five_variable_law, format_law, load_magma
from assocf.thompson import WORD_DEPTH_CAP
from assocf.trees import PARSE_DEPTH_CAP, format_tree
from assocf.zoo import BUILTINS

REPO = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = sorted((REPO / "tests" / "golden").glob("*.json"))
ASSOC = "((. .) .) = (. (. .))"


@pytest.fixture(autouse=True)
def _run_from_repo_root(monkeypatch):
    monkeypatch.chdir(REPO)


def run_capture(argv, capsys):
    code = cli.run(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden(path, capsys):
    doc = json.loads(path.read_text())
    code, out = run_capture(doc["argv"], capsys)
    assert code == doc["exit_code"]
    assert out == doc["stdout"]


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden_json_round_trip(path, capsys):
    doc = json.loads(path.read_text())
    code, out = run_capture(doc["argv"] + ["--json"], capsys)
    assert code == doc["exit_code"]
    parsed = json.loads(out)
    assert set(parsed) == {"status", "payload", "diagnostics"}
    assert isinstance(parsed["payload"], dict)
    # the document re-serializes to exactly what was printed
    assert out == json.dumps(parsed, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_1(capsys):
    assert cli.run(["frobnicate"]) == 1
    assert cli.run(["tree", "parse"]) == 1
    assert cli.run(["tree"]) == 1
    assert cli.run([]) == 1
    assert cli.run(["magma", "search", "fixtures/s4.magma"]) == 1
    # eventual satisfaction is decided exactly: there is no budget to give
    assert cli.run(
        ["magma", "eventual", "fixtures/s4.magma", ASSOC, "--budget", "1"]
    ) == 1


def test_bad_input_exits_2(capsys):
    cases = [
        ["tree", "parse", "((. .)"],
        ["magma", "check", "no_such_file.magma", ASSOC],
        ["magma", "check", "fixtures/s4.magma", "((. .) .) = "],
        ["magma", "centralizer", "fixtures/s4.magma", "zz"],
        ["magma", "image", "fixtures/s4.magma", "(. .)", "x=a"],
        ["magma", "image", "fixtures/s4.magma", "(. .)", "9=a"],
        ["zoo", "emit", "no_such_builtin"],
        ["f", "word", "x0 +"],
        ["f", "reduce", "(. .)", "((. .) .)"],
        ["variety", "derivable", "fixtures/x1_law.variety", "(. .)", "((. .) .)"],
    ]
    for argv in cases:
        code, out = cli.run(argv), capsys.readouterr().out
        assert code == 2, argv
        assert out.startswith("error:"), argv


def test_budget_exits_3(capsys):
    # 14 trees on 60^5 tuples trip the cost guard before any work happens
    code, out = run_capture(
        ["magma", "search", "fixtures/a5_commutator.magma", "5"], capsys
    )
    assert code == 3
    assert out.startswith("budget exhausted:")


def test_budget_error_in_json_mode(capsys):
    code, out = run_capture(
        ["magma", "search", "fixtures/a5_commutator.magma", "5", "--json"], capsys
    )
    assert code == 3
    parsed = json.loads(out)
    assert parsed["status"] == "error"
    assert "guard" in parsed["payload"]["error"]


def test_search_under_the_guard_answers(capsys):
    code, out = run_capture(
        ["magma", "search", "fixtures/pre_sl2.magma", "5"], capsys
    )
    assert code == 0  # 4^5 is under the guard
    assert out == "no laws\n"


def test_search_past_the_law_guard_exits_3(tmp_path, capsys):
    # Z_2 is associative: all 4,862 ten-leaf trees agree, 4862 * 2^10
    # evaluations pass the evaluation guard, and C(4862, 2) laws do not
    z2 = tmp_path / "z2.magma"
    z2.write_text("0 1\n0 1\n1 0\n")
    code, out = run_capture(["magma", "search", str(z2), "10"], capsys)
    assert (code, out) == (
        3, "budget exhausted: 11817091 laws of arity 10 exceed guard 2000000\n"
    )


def test_a_law_that_holds_on_the_nose_is_reported_so(tmp_path, capsys):
    # a table that is not simply perfect can hold the five-variable law on
    # the nose; status and eventual agree on it
    table = tmp_path / "t.magma"
    table.write_text("a b c\nb c b\nb c b\nb c b\n")
    code, out = run_capture(["magma", "status", str(table)], capsys)
    assert (code, out) == (0, "ContainsCommutator(on-the-nose)\n")
    law = format_law(five_variable_law())
    code, out = run_capture(["magma", "eventual", str(table), law], capsys)
    assert (code, out) == (0, "holds on the nose\n")


# ---------------------------------------------------------------------------
# behaviors that write or spawn


def test_pl_svg_writes_file(tmp_path, capsys):
    dest = tmp_path / "map.svg"
    code, out = run_capture(["f", "pl", "[x0,x1]", "--svg", str(dest)], capsys)
    assert code == 0
    text = dest.read_text()
    assert text.startswith("<svg")
    assert "</svg>" in text


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_an_svg_path_that_cannot_be_written_exits_2(tmp_path, json_flag, capsys):
    dest = tmp_path / "no_such_dir" / "x.svg"
    code = cli.run(["f", "pl", "x0", "--svg", str(dest), *json_flag])
    captured = capsys.readouterr()
    message = f"cannot write {dest}: No such file or directory"
    assert code == 2
    assert "Traceback" not in captured.err
    if json_flag:
        parsed = json.loads(captured.out)
        assert (parsed["status"], parsed["payload"]) == ("error", {"error": message})
    else:
        assert captured.out == f"error: {message}\n"


def test_zoo_emit_round_trips_through_loader(capsys):
    for name, build in BUILTINS.items():
        code, out = run_capture(["zoo", "emit", name], capsys)
        assert code == 0
        assert load_magma(out) == build()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "assocf.cli", "zoo", "list"],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 0
    assert "pre_sl2" in proc.stdout


def test_main_raises_system_exit(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["assocf", "tree", "parse", "(. .)"])
    with pytest.raises(SystemExit) as info:
        cli.main()
    assert info.value.code == 0


# ---------------------------------------------------------------------------
# flags shared across subcommands


@pytest.mark.parametrize(
    "action",
    [["search", "fixtures/s4.magma", "4"], ["status", "fixtures/s4.magma"]],
    ids=["search", "status"],
)
def test_seed_flag_is_a_usage_error(action, capsys):
    # the law search is exhaustive and deterministic: nothing to seed
    code = cli.run(["magma", *action, "--seed", "7"])
    assert code == 1
    assert "--seed" in capsys.readouterr().err


def test_status_budget_flag(capsys):
    code, out = run_capture(
        ["magma", "status", "fixtures/s3_commutator.magma", "--budget", "1"], capsys
    )
    assert code == 0
    assert out == "FullF(solvable)\n"


# ---------------------------------------------------------------------------
# the parser is built once and reused


def test_parser_is_built_once_and_survives_usage_errors(capsys):
    assert cli.build_parser() is cli.build_parser()
    assert cli.run(["tree", "expand", "(. .)", "not-a-number"]) == 1
    capsys.readouterr()
    code, out = run_capture(["tree", "expand", "(. .)", "2"], capsys)
    assert (code, out) == (0, "(. (. .))\n")


# ---------------------------------------------------------------------------
# caret budgets


@pytest.mark.parametrize(
    "argv",
    [
        ["variety", "member", "fixtures/x1_law.variety", "x0", "--budget", "-2"],
        ["magma", "status", "fixtures/s4.magma", "--budget", "-1"],
    ],
    ids=["variety-member", "magma-status"],
)
def test_negative_caret_budgets_exit_2(argv, capsys):
    code, out = run_capture(argv, capsys)
    assert code == 2
    assert out == "error: caret budget must be >= 0, got %s\n" % argv[-1]


@pytest.mark.parametrize("arity", ["0", "-2"])
def test_search_arity_below_1_exits_2(arity, capsys):
    argv = ["magma", "search", "fixtures/s4.magma", arity]
    code, out = run_capture(argv, capsys)
    assert (code, out) == (2, f"error: search arity must be >= 1, got {arity}\n")


def test_a_leaf_position_pinned_twice_exits_2(capsys):
    argv = ["magma", "image", "fixtures/s4.magma", "((. .) .)", "1=a", "1=b"]
    code, out = run_capture(argv, capsys)
    assert (code, out) == (2, "error: leaf position 1 is pinned twice\n")
    # one pin per position still answers
    assert run_capture([*argv[:4], "1=a", "2=b"], capsys)[0] == 0


SIX_LEAVES = "(((. .) .) ((. .) .))"


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "tree", [SIX_LEAVES, f"({SIX_LEAVES} {SIX_LEAVES})"], ids=["6-leaves", "12-leaves"]
)
def test_images_of_large_trees_answer_in_bounded_memory(tree, json_flag, capsys):
    # a5 is perfect and every element is a commutator, so every tree's image
    # is all 60 elements; a sweep of the 60^6 tuples would ask for 43.5 GiB,
    # which the 1.5 GB address-space limit turns into a failure
    argv = ["magma", "image", "fixtures/a5_commutator.magma", tree, *json_flag]
    limit = 1_500_000 * 1024
    proc = subprocess.run(
        [sys.executable, "-m", "assocf.cli", *argv],
        capture_output=True,
        text=True,
        cwd=REPO,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    start = time.perf_counter()
    code, out = run_capture(argv, capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (0, proc.stdout)
    if json_flag:
        assert len(json.loads(out)["payload"]["image"]) == 60
    else:
        assert out.startswith("60 elements: ")


@pytest.mark.parametrize(
    "argv,message",
    [(["fixtures/x1_law.variety", "-1"], "closure depth must be >= 0, got -1")],
    ids=["depth"],
)
def test_negative_closure_bounds_exit_2(argv, message, capsys):
    code, out = run_capture(["variety", "closure", *argv], capsys)
    assert (code, out) == (2, f"error: {message}\n")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_a_closure_past_its_guard_exits_3_at_once(json_flag, capsys):
    # 127 seeds at depth 5: the guard counts 127^5 products before any is built
    start = time.perf_counter()
    code, out = run_capture(
        ["variety", "closure", "fixtures/x1_law.variety", "5", *json_flag], capsys
    )
    assert time.perf_counter() - start < 1
    message = "closure to depth 5 may build 127^5 products, past the guard of 100000"
    assert code == 3
    if json_flag:
        assert json.loads(out)["payload"] == {"error": message}
    else:
        assert out == f"budget exhausted: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["magma", "status", "fixtures/s4.magma", "--threads", "2"],
        ["variety", "member", "fixtures/x1_law.variety", "x1", "--cap", "5"],
        ["variety", "closure", "fixtures/x1_law.variety", "1", "--word-cap", "1"],
        ["f", "word", "x0", "--ab"],
        [
            "variety", "derivable", "fixtures/x1_law.variety",
            "((. .) (. (. .)))", "((. (. .)) (. .))", "--prune",
        ],
        ["magma", "search", "fixtures/s4.magma", "5", "--force"],
        ["magma", "status", "fixtures/pre_sl2.magma", "--arity-cap", "4"],
    ],
    ids=["threads", "cap", "word-cap", "ab", "prune", "force", "arity-cap"],
)
def test_removed_flags_are_usage_errors(argv, capsys):
    code, captured = cli.run(argv), capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage error: unrecognized arguments: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("cap", ["-1", "0", "1"])
def test_law_arity_cap_is_a_usage_error(cap, capsys):
    # the caps the old >= 2 check refused with exit 2 now stop at the parser
    argv = ["magma", "status", "fixtures/s4.magma", "--arity-cap", cap]
    code, captured = cli.run(argv), capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage error: unrecognized arguments: --arity-cap")
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# exponent cap


def test_exponent_past_the_cap_exits_3_at_once(capsys):
    code, out = run_capture(["f", "word", "x0^-99999999999"], capsys)
    assert code == 3
    assert out.startswith("budget exhausted: exponent -99999999999")


def test_a_power_of_a_power_too_deep_to_build_exits_3(capsys):
    # each exponent is within the cap, but x0^40000 is about 40000 levels deep;
    # power stops at x0^400 * x0^400
    code, out = run_capture(["f", "word", "(x0^200)^200"], capsys)
    assert (code, out) == (
        3, "budget exhausted: a product of 401 and 401 carets could nest deeper "
        "than 500 levels\n"
    )
    code, out = run_capture(["f", "word", "(x0^200)^2"], capsys)
    assert code == 0 and out.startswith("pair ")


@pytest.mark.parametrize(
    "argv",
    [
        ["f", "word", "(" * 330 + "x0" + ")" * 330],
        ["f", "word", "[x0," * 330 + "x1" + "]" * 330],
        ["variety", "member", "fixtures/x1_law.variety", "(" * 330 + "x0" + ")" * 330],
    ],
    ids=["parentheses", "commutators", "member"],
)
def test_a_word_nested_past_the_cap_exits_3(argv, capsys):
    code, captured = cli.run(argv), capsys.readouterr()
    assert code == 3
    message = f"word nests deeper than {WORD_DEPTH_CAP} levels"
    assert captured.out == f"budget exhausted: {message}\n"
    assert captured.err == ""


# ---------------------------------------------------------------------------
# sweeps past numpy's index type


def comb_law(n):
    """Right comb = left comb, on n leaves."""
    right, left = ".", "."
    for _ in range(n - 1):
        right, left = f"(. {right})", f"({left} .)"
    return f"{right} = {left}"


@pytest.mark.parametrize("action", ["check", "eventual"])
def test_a_sweep_whose_block_indices_overflow_exits_3(action, capsys):
    argv = ["magma", action, "fixtures/s4.magma", comb_law(38)]
    code, captured = cli.run(argv), capsys.readouterr()
    assert (code, captured.err) == (3, "")
    assert captured.out == (
        "budget exhausted: block indices over 4^38 tuples do not fit numpy's intp\n"
    )


def test_a_sweep_at_36_leaves_still_answers(capsys):
    argv = ["magma", "eventual", "fixtures/s4.magma", comb_law(36)]
    assert run_capture(argv, capsys) == (
        0, "never holds (exact: fails on the derived core)\n"
    )
    code, out = run_capture(["magma", "check", *argv[2:]], capsys)
    assert (code, out) == (0, f"fails at ({'1, ' * 35}a): c != b\n")


def test_a_witness_sweep_past_the_guard_exits_3(capsys):
    # the 30-leaf comb law holds on s3_commutator's one-element core; its
    # witness sweep would read 6^30 tuples into a 3^30 grid
    argv = ["magma", "eventual", "fixtures/s3_commutator.magma", comb_law(30)]
    code, captured = cli.run(argv), capsys.readouterr()
    assert (code, captured.err) == (3, "")
    assert captured.out.startswith("budget exhausted: witness sweep over 6^30 = ")


# ---------------------------------------------------------------------------
# deep tree literals


def left_comb_literal(depth):
    return "(" * depth + "." + " .)" * depth


TREE_COMMANDS = {
    "parse": lambda t: ["tree", "parse", t],
    "reflect": lambda t: ["tree", "reflect", t],
    "expand-first": lambda t: ["tree", "expand", t, "1"],
    "expand-last": lambda t: ["tree", "expand", t, str(PARSE_DEPTH_CAP + 1)],
    "shift-left": lambda t: ["tree", "shift", t, "left"],
    "shift-right": lambda t: ["tree", "shift", t, "right"],
    "join": lambda t: ["tree", "join", t, t],
}


@pytest.mark.parametrize("command", sorted(TREE_COMMANDS))
def test_tree_commands_answer_at_the_depth_cap(command, capsys):
    code, out = run_capture(
        TREE_COMMANDS[command](left_comb_literal(PARSE_DEPTH_CAP)) + ["--json"],
        capsys,
    )
    assert code == 0
    leaves = json.loads(out)["payload"]["leaves"]
    assert leaves in (PARSE_DEPTH_CAP + 1, PARSE_DEPTH_CAP + 2)


@pytest.mark.parametrize("command", sorted(TREE_COMMANDS))
def test_tree_commands_reject_literals_past_the_depth_cap(command, capsys):
    argv = TREE_COMMANDS[command](left_comb_literal(PARSE_DEPTH_CAP + 1))
    code, captured = cli.run(argv), capsys.readouterr()
    assert code == 3
    assert captured.out.startswith("budget exhausted: tree literal nests deeper")
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# the exit-code contract on generated argv

GOOD_TREES = st.integers(1, 6).flatmap(
    lambda n: st.integers(0, 2**16).map(
        lambda s: format_tree(random_tree(random.Random(s), n))
    )
)
BAD_TREES = st.sampled_from(
    ["", "(", "(. .", "(. .))", "x", "(. y)", ")(", "((. .) .) ."]
)
DEEP_TREES = st.integers(PARSE_DEPTH_CAP - 1, PARSE_DEPTH_CAP + 1).map(
    left_comb_literal
)
SHALLOW_TREES = GOOD_TREES | BAD_TREES
TREES = GOOD_TREES | BAD_TREES | DEEP_TREES
# nested to one level either side of the cap, around a plain or a commutator
DEEP_WORDS = st.builds(
    lambda depth, wrap: wrap[0] * depth + wrap[1] + wrap[2] * depth,
    st.integers(WORD_DEPTH_CAP - 1, WORD_DEPTH_CAP + 1),
    st.sampled_from([("(", "x0", ")"), ("[x0,", "x1", "]"), ("[", "x0", ",x1]")]),
)
WORDS = st.lists(
    st.tuples(st.sampled_from(["x0", "x1", "x2"]), st.integers(-3, 3)),
    min_size=1,
    max_size=4,
).map(lambda factors: "*".join(f"{g}^{e}" for g, e in factors)) | st.sampled_from(
    ["[x0,x1]", "x0 +", "x9", "x0^", "[x0", "", "pair (. .) (. .)", "pair (. .)"]
) | DEEP_WORDS
BUDGETS = st.integers(-3, 2).map(str)
SMALL_INTS = st.integers(-2, 5).map(str)
MAGMAS = st.sampled_from(
    [
        "fixtures/z4_addition.magma",
        "fixtures/s3_commutator.magma",
        "fixtures/s4.magma",
        "fixtures/octonion_units.magma",
        "no_such_file.magma",
    ]
)
VARIETIES = st.sampled_from(
    ["fixtures/x1_law.variety", "fixtures/associativity.variety", "no_such.variety"]
)
LAWS = st.sampled_from(
    [ASSOC, "(. ((. .) .)) = (. (. (. .)))", "(. .) = .", "((. .) .) =", "= ."]
) | st.integers(38, 40).map(comb_law)
TOKENS = st.sampled_from(
    ["tree", "f", "magma", "variety", "zoo", "parse", "word", "--budget", "-1",
     "--json", "(. .)", "x0", "fixtures/s4.magma", "status", "member", "--cap"]
)


def argv_of(*parts):
    return st.tuples(
        *(st.just(p) if isinstance(p, str) else p for p in parts)
    ).map(list)


ARGV = st.one_of(
    argv_of("tree", st.sampled_from(["parse", "reflect"]), TREES),
    argv_of("tree", "expand", TREES, SMALL_INTS),
    argv_of("tree", "shift", TREES, st.sampled_from(["left", "right", "up"])),
    argv_of("tree", "join", TREES, TREES),
    argv_of("f", st.sampled_from(["word", "inv", "ab", "shifts", "pl"]), WORDS),
    argv_of("f", "mul", WORDS, WORDS),
    argv_of("f", "reduce", SHALLOW_TREES, SHALLOW_TREES),
    argv_of("f", "normal-member", WORDS, SMALL_INTS, SMALL_INTS),
    argv_of("magma", "eventual", MAGMAS, LAWS),
    # comb laws whose witness sweep on s3_commutator passes the guard
    argv_of(
        "magma", "eventual", "fixtures/s3_commutator.magma",
        st.integers(12, 30).map(comb_law),
    ),
    argv_of("magma", "status", MAGMAS, "--budget", BUDGETS),
    argv_of("magma", "check", MAGMAS, LAWS),
    argv_of("magma", "image", MAGMAS, GOOD_TREES.filter(lambda t: t.count(".") <= 4)),
    argv_of("variety", "derivable", VARIETIES, TREES, TREES),
    argv_of("variety", "member", VARIETIES, WORDS, "--budget", BUDGETS),
    argv_of("zoo", "emit", st.sampled_from(sorted(BUILTINS) + ["nope"])),
    st.lists(TOKENS, max_size=6),
)


@settings(max_examples=150)
@given(ARGV, st.booleans())
def test_cli_keeps_the_exit_code_contract(argv, as_json):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv + (["--json"] if as_json else []))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
