"""Smoke tests for the scripts under scripts/: each runs end to end through
the library's current API, so a changed signature shows up here."""

import importlib.util
import json
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_classify_zoo_prints_the_verdicts(capsys):
    script = load_script("classify_zoo")
    assert script.main(["--only", "s4", "--only", "pre_sl2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("s4       |S|=4   unknown (laws-found)  [")
    assert lines[1].strip() == "arity <= 4: (. (. (. .))) = (. ((. .) .))"
    assert lines[2].startswith("pre_sl2  |S|=4   no_law_up_to (law-search-exhausted)  [")
    assert lines[3].strip() == "arity <= 6"


def test_classify_zoo_decides_sl2_without_an_abort(capsys):
    script = load_script("classify_zoo")
    assert script.main(["--only", "sl2_signed_basis"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(
        "sl2_signed_basis  |S|=13  no_law_up_to (law-search-exhausted)  ["
    )
    assert lines[1].strip() == "arity <= 4"


def test_bench_measures_one_row():
    # a smoke test of the row list and the timer: no timing is checked
    import assocf.cli
    import assocf.magmas
    import assocf.rewriting
    import assocf.trees
    import assocf.zoo

    script = load_script("bench")
    # a row builds its input only when set up, so listing them is cheap
    rows = {(name, json.dumps(params)): setup for name, params, _, setup in script.rows(assocf)}
    clock = script.hostspeed.HostClock()
    call = rows["magmas.fvl_core_check", json.dumps({"table": "pre_sl2 x Z_16", "size": 64})]()
    row = script.measure({"after": call}, 1, clock)["after"]
    # the work is tuples read: at most 8 blocks of 2^16
    assert row["repeats"] == 1 and 1 <= row["work"] <= 8 * 2**16
    assert 0 < row["min_s"] <= row["median_s"] and row["min_ref_s"] > 0
    # the x1 negative walks its whole class, the 1,430 shapes of a 9-leaf
    # subtree, and two sides take turns for the same number of repeats
    (negative,) = [
        setup() for (name, params), setup in rows.items()
        if name == "rewriting.derivable" and json.loads(params)["law"] == script.X1_LAW
    ]
    sides = script.measure({"before": negative, "after": negative}, 2, clock)
    assert [(side["repeats"], side["work"]) for side in sides.values()] == [(2, 1430)] * 2
    # the S6 row builds the whole 720 x 720 table
    group = rows["zoo.permutation_group", json.dumps({"group": "S6"})]()
    assert script.measure({"after": group}, 1, clock)["after"]["work"] == 720**2
    # the PL round trip runs over its 20 fixed words
    trip = rows["plmaps.round_trip", json.dumps({"words": 20, "letters": 40})]()
    assert script.measure({"after": trip}, 1, clock)["after"]["work"] == 20
    # the multiply row folds each word letter by letter
    fold = rows["thompson.multiply", json.dumps({"words": 20, "letters": 40})]()
    assert script.measure({"after": fold}, 1, clock)["after"]["work"] == 20 * 39
    # a5_commutator's arity-4 trees part in the small blocks, which build
    # at most a tenth of level 3's 2 x 60^3 values
    a5 = {"table": "a5_commutator", "size": 60, "arity": 4}
    search = rows["magmas.search_laws", json.dumps(a5)]()
    assert 0 < script.measure({"after": search}, 1, clock)["after"]["work"] <= 2 * 60**3 / 10
    power = rows["thompson.power", json.dumps({"element": "x1", "k": 120})]()
    assert script.measure({"after": power}, 1, clock)["after"]["work"] == 1


def test_halfpower_separation_finds_the_moved_halfpower(capsys):
    script = load_script("halfpower_separation")
    assert script.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert (
        "moves 1/2^1 to 3/2^3 = 0.375 — not a half-power, so <r1, r2> fails "
        "the stabilizer test"
    ) in lines
    assert any(line.startswith("half-power stabilizer failures: 0 ") for line in lines)
