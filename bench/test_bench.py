"""Tests of the benchmark itself: corpus determinism, oracles, traced output.

    python -m pytest bench/test_bench.py

Each oracle is first shown to accept the program's real answer, then to
reject the same answer with one planted fault.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import corpus  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from assocf import cli, plmaps, rewriting, thompson  # noqa: E402


@pytest.fixture(autouse=True)
def _from_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def cli_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv + ["--json"])
    return code, json.loads(out.getvalue())["payload"]


# --- corpus -----------------------------------------------------------------------


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_byte_identical_corpus(workload):
    first = checks.canonical_json(corpus.build(workload, 7, ROOT))
    again = checks.canonical_json(corpus.build(workload, 7, ROOT))
    other = checks.canonical_json(corpus.build(workload, 8, ROOT))
    assert first.encode() == again.encode()
    assert first != other


def test_rounds_hold_a_fixed_mix_of_classes():
    data = corpus.build("classify", 3, ROOT)
    mixes = {tuple(q["class"] for q in r) for r in data["rounds"][1:]}
    assert len(mixes) == 1


# --- oracles: classify ------------------------------------------------------------


@pytest.fixture
def status_case():
    work = run.WORK_PARENT / "test"
    work.mkdir(parents=True, exist_ok=True)

    def answer(name, table):
        path = work / f"{name}.magma"
        path.write_text(corpus._magma_text(table))
        query = corpus._status_query(name, "test", str(path), corpus._names(len(table)), table)
        code, payload = cli_json(query["argv"])
        return query, code, payload

    yield answer
    shutil.rmtree(run.WORK_PARENT)


def fixture_query(stem):
    data = corpus.build("classify", 0, ROOT)
    return next(q for q in data["rounds"][0] if q["id"] == f"fixture/{stem}")


def test_status_oracle_rejects_a_corrupted_counterexample(status_case):
    table = [[0, 1, 2], [1, 1, 0], [2, 0, 2]]  # identity e0, not associative
    query, code, payload = status_case("identity", table)
    assert payload["reason"] == "identity-theorem"
    assert checks.check_status(query, code, payload) is None
    bad = copy.deepcopy(payload)
    bad["evidence"]["counterexample"] = ["e0", "e0", "e0"]
    assert "counterexample" in checks.check_status(query, code, bad)
    bad = copy.deepcopy(payload)
    bad["evidence"]["identity"] = "e1"
    assert checks.check_status(query, code, bad)


def test_status_oracle_rejects_a_wrong_solvability_zero(status_case):
    table = [[1, 1, 1], [1, 1, 1], [2, 1, 1]]
    query, code, payload = status_case("solvable", table)
    assert payload["reason"] == "solvable"
    assert checks.check_status(query, code, payload) is None
    bad = copy.deepcopy(payload)
    bad["evidence"]["zero"] = "e2"
    assert "image" in checks.check_status(query, code, bad)


def test_status_oracle_rejects_a_law_that_does_not_hold():
    query = fixture_query("s4")
    code, payload = cli_json(query["argv"])
    assert payload["reason"] == "laws-found"
    assert checks.check_status(query, code, payload) is None
    bad = copy.deepcopy(payload)
    bad["evidence"]["laws"] = ["((. .) (. .)) = (((. .) .) .)"]
    assert "does not hold" in checks.check_status(query, code, bad)


def test_status_oracle_rejects_a_wrong_fvl_witness(status_case):
    query, code, payload = status_case("fvl", [[1, 2, 2], [2, 2, 2], [2, 1, 1]])
    assert payload["reason"] == "fvl-at-expansion"
    assert checks.check_status(query, code, payload) is None
    bad = copy.deepcopy(payload)
    bad["evidence"]["expansion"] = "b[]"
    assert "fails at expansion" in checks.check_status(query, code, bad)
    bad = copy.deepcopy(payload)
    bad["evidence"]["law"] = "((. .) .) = (. (. .))"
    assert "five-variable" in checks.check_status(query, code, bad)


def test_status_oracle_checks_verdict_kind_against_golden():
    data = corpus.build("classify", 0, ROOT)
    fixtures = [q for q in data["rounds"][0] if q["class"] == "fixture"]
    assert sum(q["expect_kind"] is not None for q in fixtures) >= 5
    query = next(q for q in fixtures if q["expect_kind"] == "full_f")
    code, payload = cli_json(query["argv"])
    assert checks.check_status(query, code, payload) is None
    bad = dict(payload, kind="unknown")
    assert "expected" in checks.check_status(query, code, bad)


# --- oracles: group -----------------------------------------------------------------


def f_query(action, expr, spec=None):
    return corpus._f_query("t", "test", action, expr, spec)


WORD = ("mul", [("gen", "x0"), ("pow", ("gen", "x1"), -1), ("gen", "x2")])


def test_product_oracle_rejects_a_wrong_product():
    query = f_query("word", WORD)
    code, payload = cli_json(query["argv"])
    assert checks.check_f(query, code, payload) is None
    _, other = cli_json(["f", "word", "x0 * x1 * x2"])
    assert checks.check_f(query, code, other)


@pytest.mark.parametrize("action", ["ab", "pl", "normal-member"])
def test_f_oracles_reject_a_planted_fault(action):
    query = f_query(action, WORD, (1, 2) if action == "normal-member" else None)
    code, payload = cli_json(query["argv"])
    assert checks.check_f(query, code, payload) is None
    bad = copy.deepcopy(payload)
    if action == "ab":
        bad["ab"][0] += 1
    elif action == "pl":
        bad["breakpoints"][1][1] = "1/2^3"
    else:
        bad["member"] = not bad["member"]
    assert checks.check_f(query, code, bad)


def test_power_oracle_matches_and_rejects():
    query = f_query("word", ("pow", ("gen", "x0"), 30))
    code, payload = cli_json(query["argv"])
    assert checks.check_f(query, code, payload) is None
    _, off_by_one = cli_json(["f", "word", "x0^29"])
    assert checks.check_f(query, code, off_by_one)


def test_round_trip_oracle_rejects_another_pair():
    query = {"expr": WORD}
    g = thompson.parse_element(corpus.word_text(WORD))
    back = plmaps.from_pl(plmaps.to_pl(g))
    fmt = checks.format_tree
    assert checks.check_from_pl(query, fmt(back.source), fmt(back.target)) is None
    assert checks.check_from_pl(query, fmt(back.target), fmt(back.source))


def test_closure_and_halfpower_oracles_reject_planted_faults():
    members = [str(g) for g in rewriting.closure_generate([thompson.generators()["x1"]], 2)]
    payload = {"count": checks.CLOSURE_X1_DEPTH3, "members": members}
    assert "members" in checks.check_closure(0, dict(payload, count=6504))
    # a member that fails the half-power test is caught by the independent check
    faulty = members[:-1] + [str(thompson.generators()["x0"])]
    verdicts = [True] * checks.CLOSURE_X1_DEPTH3
    assert "half-power" in checks.check_halfpowers(faulty, verdicts)
    assert checks.check_halfpowers(members, verdicts[:-1] + [False])


# --- oracles: rewrite ------------------------------------------------------------

X1_VARIETY = rewriting.VarietyPresentation((rewriting.Law(*checks.X1_LAW),))


def test_derivable_oracle_rejects_a_truncated_proof():
    p, q = "((. .) ((. .) (. .)))", "(. (. (. (. (. .)))))"
    query = corpus._derivable_query("t", "test", "assoc", checks.parse_tree(p), checks.parse_tree(q))
    code, payload = cli_json(query["argv"])
    assert checks.check_derivable(query, code, payload) is None
    bad = dict(payload, proof=payload["proof"][:-1])
    assert "target" in checks.check_derivable(query, code, bad)
    assert "associativity" in checks.check_derivable(query, code, {"derivable": False})


def test_derivable_oracle_decides_x1_negatives():
    p = checks.parse_tree("(. ((. .) (. .)))")
    q = checks.parse_tree("(. (. (. (. .))))")
    assert checks.x1_signature(p) == checks.x1_signature(q)
    query = corpus._derivable_query("t", "test", "x1", p, q)
    code, payload = cli_json(query["argv"])
    assert payload["derivable"] and checks.check_derivable(query, code, payload) is None
    assert "x1-equivalent" in checks.check_derivable(query, code, {"derivable": False})


def test_x1_signature_decides_derivability():
    trees = all_trees(6)
    for p in trees[::7]:
        for q in trees[::5]:
            found = rewriting.derivable(p, q, X1_VARIETY) is not None
            assert found == (checks.x1_signature(p) == checks.x1_signature(q))


def all_trees(n):
    if n == 1:
        return [checks.LEAF]
    return [(a, b) for k in range(1, n) for a in all_trees(k) for b in all_trees(n - k)]


def test_member_oracle_rejects_in_for_a_halfpower_failure():
    out_query = corpus._member_query("t", "test", ("gen", "x0"))
    code, payload = cli_json(out_query["argv"])
    assert payload["kind"] == "not-derivable-up-to" and code == 3
    assert checks.check_member(out_query, code, payload) is None
    in_query = corpus._member_query("t", "test", ("gen", "x1"))
    code_in, payload_in = cli_json(in_query["argv"])
    assert checks.check_member(in_query, code_in, payload_in) is None
    assert "half-power" in checks.check_member(out_query, 0, payload_in)


def test_eventual_oracle_rejects_a_missed_derivation_and_a_truncated_proof():
    query = {"lhs": "((. .) (. (. .)))", "rhs": "((. .) ((. .) .))", "budget": 2}
    p, q = checks.parse_tree(query["lhs"]), checks.parse_tree(query["rhs"])
    res = rewriting.eventually_derivable(p, q, X1_VARIETY, 2)
    fmt = checks.format_tree
    proof = [(s.vertex, f"{fmt(s.law.lhs)} = {fmt(s.law.rhs)}", s.forward) for s in res.proof]
    answer = {"kind": res.kind, "expansion": str(res.expansion), "proof": proof}
    assert proof and checks.check_eventual(query, answer) is None
    assert "target" in checks.check_eventual(query, dict(answer, proof=proof[:-1]))
    bounded = {"kind": "fails-up-to", "expansion": None, "proof": []}
    assert "derivable" in checks.check_eventual(query, bounded)
    r1r2 = {"lhs": corpus.R1, "rhs": corpus.R2, "budget": 2}
    assert checks.check_eventual(r1r2, bounded) is None


# --- traced and untraced output ---------------------------------------------------


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "0", "--seconds", "0.5",
                         "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = run_benchmark(workload, 1)
    assert result["correct"] and result["failed"] == 0
    named = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == named


def test_untraced_run_reports_every_end_to_end_metric():
    result = run_benchmark("rewrite", 0)
    named = {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == named
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tracer_restores_the_original_functions():
    # run.main re-imports assocf, so take the modules the tracer will patch
    cli, magmas, thompson, trees = (
        sys.modules[f"assocf.{m}"] for m in ("cli", "magmas", "thompson", "trees")
    )
    before = (trees.leaf_count, magmas.satisfies, cli.run, thompson.multiply)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert trees.leaf_count is not before[0]
        tracer.enabled = True
        thompson.multiply(thompson.generators()["x0"], thompson.generators()["x1"])
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert (trees.leaf_count, magmas.satisfies, cli.run, thompson.multiply) == before
    assert tracer.stats["thompson.multiply"].calls == 1
    assert tracer.stats["trees.leaf_count"].calls > 0


def test_host_clock_scales_each_piece_by_the_probes_at_its_ends(monkeypatch):
    probes = iter([0.002, 0.001, 0.003])
    # start at 10 s, a tick at 11 s whose probe ends at 11.5 s, stop at 13.5 s
    clock_reads = iter([10.0, 11.0, 11.5, 13.5])
    monkeypatch.setattr(hostspeed, "probe", lambda: next(probes))
    monkeypatch.setattr(hostspeed, "time", SimpleNamespace(perf_counter=lambda: next(clock_reads)))
    clock = hostspeed.HostClock()
    clock.start()
    clock._tick(None, None)
    raw, scaled = clock.stop()
    assert raw == 3.0  # the probe inside the section is left out
    assert scaled == pytest.approx(hostspeed.REFERENCE_S * (1.0 / 0.0015 + 2.0 / 0.002))
    assert clock.probes == [0.002, 0.001, 0.003]
