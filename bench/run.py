#!/usr/bin/env python3
"""Closed-loop benchmark for assocf.

    python3 bench/run.py --workload classify|group|rewrite --seed N \\
        --seconds S --trace 0|1

One process, one client, one sweep thread: each query is sent after the
previous one returns.  Queries enter through ``assocf.cli.run(argv)`` with
``--json``, in process, wherever the CLI offers the operation; the half-power
test, the PL round trip and eventual derivability of a bare pair call the
library directly.  Every answer is checked afterwards by the oracles in
checks.py, which share no code with assocf.

With ``--trace 0`` the loop runs for S seconds (to the end of the round in
progress, and at least through the rounds queries_per_s is taken over) and
the end-to-end metrics are printed.  With ``--trace 1`` it runs untraced for
S/2 seconds, then replays the same queries with spans installed (spans.py)
and prints the per-layer metrics, including the tracing overhead.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Lines before it describe the machine, the workload parameters, the tail
percentile, the time per query class, and any failing query.

``setup_s`` is the median of several set-ups, each of which imports assocf
afresh, builds every zoo table, generates the corpus and writes it as one
JSON file; numpy is imported once before them.  The magma files classify's
queries read are written by the client just before the first query that
reads each, outside its timing: creating and deleting some 450 files a
set-up made setup_s follow the disk, not the program, by up to 3x.

Every reported time (query latencies, queries_per_s, setup_s and the tracing
overhead) is scaled to a reference host speed by hostspeed.py, because this
kind of shared host drifts by a third within a minute; the unscaled figures
are printed on ``raw`` lines.  Per-layer self times are left unscaled.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy

import checks
import corpus
import hostspeed
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_PARENT = ROOT / ".bench_work"
SETUP_REPS = 9
WORKLOADS = ("classify", "group", "rewrite")
MODULES = ("cli", "magmas", "trees", "thompson", "plmaps", "rewriting", "zoo")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="assocf closed-loop benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fresh_import():
    """Import assocf from scratch and return its modules by short name."""
    for name in [n for n in sys.modules if n == "assocf" or n.startswith("assocf.")]:
        del sys.modules[name]
    importlib.import_module("assocf.cli")
    return {short: sys.modules[f"assocf.{short}"] for short in MODULES}


def setup_once(workload, seed, work, clock):
    """One set-up; its raw and reference seconds come first."""
    clock.start()
    try:
        mods = fresh_import()
        zoo_start = time.perf_counter()
        for build in mods["zoo"].BUILTINS.values():
            build()
        zoo_s = time.perf_counter() - zoo_start
        data = corpus.build(workload, seed, ROOT)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        text = checks.canonical_json(data)
        (work / "corpus.json").write_text(text)
    finally:
        raw_s, setup_s = clock.stop()
    return raw_s, setup_s, zoo_s, json.loads(text), mods


class Runner:
    """Sends one query and keeps the client-side state between queries."""

    def __init__(self, mods, work, files, clock, tracer=None):
        self.mods = mods
        self.work = str(work)
        self.files = files
        self.written = set()
        self.clock = clock
        self.tracer = tracer
        self.members = None  # closure members, input of the half-power query
        self.member_texts = None
        rewriting, magmas = mods["rewriting"], mods["magmas"]
        self.x1_variety = rewriting.VarietyPresentation(
            (magmas.parse_law("(. ((. .) .)) = (. (. (. .)))"),)
        )

    def run(self, query):
        """(scaled latency_s, raw latency_s, exit code, answer, error) for
        one query."""
        op = query["op"]
        call = getattr(self, "_" + op)
        args = self._prepare(query)
        tracer = self.tracer
        hook_before = tracer.hook_s if tracer else 0.0
        self.clock.start()
        if tracer:
            tracer.enabled = True
        try:
            raw = call(*args)
            error = None
        except Exception:  # a traceback is a failed query, not a crash
            raw, error = None, traceback.format_exc()
        finally:
            if tracer:
                tracer.enabled = False
            latency, scaled = self.clock.stop()
        if tracer and latency > 0:
            hooks = tracer.hook_s - hook_before
            scaled *= (latency - hooks) / latency
            latency -= hooks
        if error:
            return scaled, latency, None, None, error
        code, answer = self._finish(query, raw)
        return scaled, latency, code, answer, None

    def _prepare(self, query):
        name = query.get("file")
        if name is not None and name not in self.written:
            Path(self.work, name).write_text(self.files[name])
            self.written.add(name)
        if query["op"] == "cli":
            argv = [a.replace("{work}", self.work) for a in query["argv"]]
            return (argv + ["--json"],)
        if query["op"] == "eventual":
            p, q = checks.parse_tree(query["lhs"]), checks.parse_tree(query["rhs"])
            return (p, q, query["budget"])
        if query["op"] == "roundtrip":
            return (query["word"],)
        return ()

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.mods["cli"].run(argv)
        return code, out.getvalue()

    def _halfpower(self):
        if self.members is None:
            raise RuntimeError("half-power query before a closure answer")
        stabilizes = self.mods["plmaps"].stabilizes_halfpowers
        return [stabilizes(g) for g in self.members]

    def _eventual(self, p, q, budget):
        return self.mods["rewriting"].eventually_derivable(p, q, self.x1_variety, budget)

    def _roundtrip(self, word):
        g = self.mods["thompson"].parse_element(word)
        plmaps = self.mods["plmaps"]
        return g, plmaps.from_pl(plmaps.to_pl(g))

    def _finish(self, query, raw):
        """Turn a raw result into (exit code, JSON-ready answer); untimed."""
        op = query["op"]
        if op == "cli":
            code, text = raw
            try:
                payload = json.loads(text)["payload"]
            except (ValueError, KeyError):
                payload = None
            if query.get("check") == "closure" and payload and code == 0:
                parse = self.mods["thompson"].parse_pair_literal
                self.members = [parse(m) for m in payload["members"]]
                self.member_texts = payload["members"]
            return code, payload
        if op == "halfpower":
            return 0, {"verdicts": raw, "members": self.member_texts}
        if op == "roundtrip":
            g, back = raw
            return 0, {
                "source": checks.format_tree(back.source),
                "target": checks.format_tree(back.target),
                "same": back == g,
            }
        # eventual
        fmt = checks.format_tree
        proof = [
            (s.vertex, f"{fmt(s.law.lhs)} = {fmt(s.law.rhs)}", s.forward)
            for s in (raw.proof or ())
        ]
        expansion = None if raw.expansion is None else str(raw.expansion)
        return 0, {"kind": raw.kind, "expansion": expansion, "proof": proof}


def closed_loop(runner, rounds, seconds=None, count=None, min_rounds=0):
    """Send rounds in order until `seconds` have passed at the end of round
    `min_rounds` or later, or until `count` queries have been sent.  Records
    are (query, round, scaled latency_s, raw latency_s, exit code, answer,
    error)."""
    records = []
    runner.clock.restart()
    start = time.perf_counter()
    r = 0
    while True:
        for query in rounds[r % len(rounds)]:
            if count is not None and len(records) == count:
                return records
            records.append((query, r) + runner.run(query))
        r += 1
        if count is None and r >= min_rounds and time.perf_counter() - start >= seconds:
            return records


class Verdicts:
    """Oracle verdicts, cached per (query, answer) so replays cost nothing."""

    def __init__(self):
        self.cache = {}

    def problem(self, query, code, answer, error):
        if error is not None:
            return "traceback: " + error.strip().splitlines()[-1]
        if code not in (0, 1, 2, 3):
            return f"exit code {code} outside the 0-3 contract"
        if answer is None:
            return f"no JSON answer (exit code {code})"
        key = (query["id"], code, checks.canonical_json(answer))
        if key not in self.cache:
            self.cache[key] = _check(query, code, answer)
        return self.cache[key]


def _check(query, code, answer):
    op = query["op"]
    if op == "cli":
        kind = query["check"]
        if kind == "closure":
            return checks.check_closure(code, answer)
        return getattr(checks, "check_" + kind)(query, code, answer)
    if op == "halfpower":
        return checks.check_halfpowers(answer["members"], answer["verdicts"])
    if op == "roundtrip":
        if not answer["same"]:
            return "from_pl(to_pl(g)) != g"
        return checks.check_from_pl(query, answer["source"], answer["target"])
    return checks.check_eventual(query, answer)


def is_exact(query, code, answer):
    """Exact verdict, as opposed to one bounded by a budget or guard."""
    if code == 3:
        return False
    if query.get("check") == "status":
        return checks.status_is_exact(answer)
    if query.get("check") == "member":
        return answer["kind"] == "in"
    if query["op"] == "eventual":
        return answer["kind"] == "holds"
    return True


def grade(records, verdicts):
    """(failures, exact answered count, answered count)."""
    failures, exact, answered = [], 0, 0
    for query, _, _, _, code, answer, error in records:
        problem = verdicts.problem(query, code, answer, error)
        if problem:
            failures.append((query["id"], query["class"], problem))
            continue
        answered += 1
        exact += is_exact(query, code, answer)
    return failures, exact, answered


def tail(latencies):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def machine():
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "assocf" / "__init__.py").is_file():
        print(f"no assocf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    os.chdir(ROOT)
    work = WORK_PARENT / f"run-{os.getpid()}"
    try:
        clock = hostspeed.HostClock()
        setups, raw_setups, zoos = [], [], []
        for _ in range(SETUP_REPS):
            raw_s, setup_s, zoo_s, data, mods = setup_once(
                args.workload, args.seed, work, clock
            )
            setups.append(setup_s)
            raw_setups.append(raw_s)
            zoos.append(zoo_s)
        rounds, files = data["rounds"], data["files"]
        qps_rounds = data["params"]["qps_rounds"]
        verdicts = Verdicts()
        # the client's corpus and set-up garbage stay out of every later
        # collection, so they do not slow the program's own allocations
        gc.collect()
        gc.freeze()
        if args.trace:
            records = closed_loop(
                Runner(mods, work, files, clock), rounds, seconds=args.seconds / 2
            )
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = closed_loop(
                    Runner(mods, work, files, clock, tracer), rounds, count=len(records)
                )
            finally:
                tracer.uninstall()
        else:
            records = closed_loop(
                Runner(mods, work, files, clock), rounds, seconds=args.seconds,
                min_rounds=qps_rounds,
            )
            traced = []
        failures, exact, answered = grade(records + traced, verdicts)
    finally:
        gc.unfreeze()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_PARENT.rmdir()

    latencies = [rec[2] for rec in records]
    value, percentile, samples = tail(latencies)
    attempted = len(records) + len(traced)
    params = dict(data["params"])
    params["repeated_variety_n_share"] = corpus.repeated_share(rec[0] for rec in records)
    params["queries_sent"] = len(records)
    print("machine " + json.dumps(machine(), sort_keys=True))
    print(f"workload {args.workload} " + json.dumps(params, sort_keys=True))
    print(f"tail percentile p{percentile:.2f} over {samples} samples")
    print(f"failed_fraction {len(failures) / attempted:.6f} ({len(failures)}/{attempted})")
    probes = clock.probes
    print(f"host probe ms: median {1000 * statistics.median(probes):.4f} "
          f"min {1000 * min(probes):.4f} max {1000 * max(probes):.4f} "
          f"(reference {1000 * hostspeed.REFERENCE_S:.4f}, {len(probes)} probes)")
    by_class = {}
    for query, _, latency, *_ in records:
        by_class.setdefault(query["class"], []).append(1000 * latency)
    for cls, values in sorted(by_class.items()):
        print(f"class {cls}: n={len(values)} median={statistics.median(values):.2f} ms "
              f"max={max(values):.2f} ms total={sum(values) / 1000:.2f} s")
    for qid, cls, problem in failures:
        print(f"failed query {qid} [{cls}]: {problem}")

    if args.trace:
        metrics = tracer.per_layer(sum(rec[3] for rec in traced))
        metrics["zoo.build_s"] = metric(statistics.median(zoos), "s")
        metrics["trace.overhead_fraction"] = metric(
            sum(rec[2] for rec in traced) / sum(latencies) - 1, "fraction"
        )
    else:
        # a fixed set of queries, so a faster run does not change the mix
        counted = [rec[2] for rec in records if rec[1] < qps_rounds]
        raw = [rec[3] for rec in records]
        raw_counted = [rec[3] for rec in records if rec[1] < qps_rounds]
        print(f"raw queries_per_s {len(raw_counted) / sum(raw_counted)} "
              f"latency_p50_ms {1000 * statistics.median(raw)} "
              f"latency_tail_ms {1000 * tail(raw)[0]} "
              f"setup_s {statistics.median(raw_setups)}")
        metrics = {
            "queries_per_s": metric(len(counted) / sum(counted), "1/s"),
            "latency_p50_ms": metric(1000 * statistics.median(latencies), "ms"),
            "latency_tail_ms": metric(1000 * value, "ms"),
            "exact_fraction": metric(exact / answered if answered else 0.0, "fraction"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
        }
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
