"""Tests of the benchmark itself.  Run with ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans


@pytest.fixture
def fs():
    finspace, _ = run.setup("iso-pairs", 1)
    return finspace


def test_ladder_point_counts_match_roadmap_baseline(fs):
    # Sizes from the ROADMAP baseline table, independent of run.LADDER.
    assert {spec: pts for spec, (_, pts, _) in run.LADDER.items()} == {
        "cyclic:12": 528, "cyclic:24": 1056, "cyclic:48": 2112, "symmetric:4": 2352,
    }
    cli = sys.modules["finspace.cli"]
    for spec, (order, points, _) in run.LADDER.items():
        group = cli.parse_group_spec(spec)
        assert (group.order, fs.predicted_point_count(group)) == (order, points)
    assert run.check_verify(*run.LADDER["cyclic:12"])(run.run_cli(cli, ["verify", "cyclic:12"])) is None


def test_checkers_flag_wrong_answers(fs):
    p = fs.build_realization(fs.cyclic(3)).poset
    q = run.relabel(fs, p, random.Random(7))
    good = fs.isomorphic(p, q)
    assert run.check_iso(p, q, True)(good) is None
    a, b = p.points[0], p.points[1]
    corrupted = dict(good, **{a: good[b], b: good[a]})
    assert run.check_iso(p, q, True)(corrupted) == "does not carry covers onto covers"
    assert run.check_iso(p, q, True)(dict(good, **{a: good[b]})) is not None
    assert run.check_iso(p, q, True)(None) == "missed an isomorphism"
    assert run.check_iso(p, q, False)(good) is not None

    ok = "points: 528, covers: 2340\norder(Aut) = 12 = |G| : PASS\n"
    check = run.check_verify(12, 528, 2340)
    assert check(run.CliResult(0, ok, "")) is None
    assert check(run.CliResult(1, ok, "")) is not None
    assert check(run.CliResult(0, ok.replace("= 12 =", "= 24 =", 1), "")) is not None
    assert check(run.CliResult(0, ok.replace("528", "529"), "")) is not None
    assert check(run.CliResult(0, ok.replace("2340", "2341"), "")) is not None
    assert run.check_build(2, 1)(run.CliResult(0, '{"points": ["a", "a"], "covers": [["a", "b"]]}', "")) is not None
    assert run.check_over_budget(run.CliResult(0, "", "over the engine budget")) is not None
    assert run.check_over_budget(run.CliResult(1, "", "error: ... over the engine budget of 2000")) is None


def test_count_check_flags_wrong_orders_and_drift():
    good = dict(run.EXPECTED_COUNTS["verify-ladder"], **{"automorphisms.classes": 230})
    orders = {spec: [order] for spec, (order, _, _) in run.LADDER.items()}
    assert run.check_counts("verify-ladder", [good, dict(good)], orders) == []
    # A wrong order for one group is caught even when the sum is unchanged.
    swapped = dict(orders, **{"cyclic:12": [24], "cyclic:24": [12]})
    assert len(run.check_counts("verify-ladder", [good], swapped)) == 2
    more = dict(good, **{"automorphisms.order": 109})
    assert run.check_counts("verify-ladder", [more], orders) != []
    drift = dict(good, **{"automorphisms.classes": 231})
    assert run.check_counts("verify-ladder", [good, drift], orders) != []


def test_crash_counts_as_failed_op():
    record = run.Run()
    run.run_op(run.Op("boom", lambda: 1 / 0, lambda r: None), record, None, None)
    assert record.errors == ["boom: ZeroDivisionError: division by zero"]
    assert len(record.op_seconds) == 1


def test_traced_spans_nest_and_wrappers_are_removed():
    finspace, ops = run.setup("construct", 3)
    modules = spans.caller_modules(finspace)
    before = {(w, a): getattr(modules[w], a) for _, w, attrs, _ in spans.LAYERS for a in attrs}
    tracer, record = spans.Tracer(), run.Run()
    saved = spans.install(tracer, finspace)
    try:
        run.run_pass(ops, random.Random(3), record, tracer, modules["engine"])
    finally:
        spans.uninstall(saved)
    assert not record.errors
    assert all(getattr(modules[w], a) is f for (w, a), f in before.items())

    by_id = {s.id: s for s in tracer.spans}
    own = spans.self_ns(tracer.spans)
    for s in tracer.spans:
        assert 0 <= own[s.id] <= s.ns
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.op == s.op and parent.start <= s.start <= s.end <= parent.end
            assert s.ns <= parent.ns
    names = {s.name for s in tracer.spans}
    assert {"groups.tabulate", "assembly.build", "blocks.block", "poset.make",
            "poset.to_json"} <= names
    assert "automorphisms.aut" not in names


def test_missing_layer_fails_loudly(monkeypatch):
    finspace, _ = run.setup("construct", 1)
    cli = spans.caller_modules(finspace)["cli"]
    original = cli.cyclic
    monkeypatch.delattr(cli, "poset_to_json")
    with pytest.raises(LookupError, match="poset_to_json"):
        spans.install(spans.Tracer(), finspace)
    assert cli.cyclic is original


def test_counts_and_verify_output_repeat_across_seeds():
    def counts(seed):
        result, report = run.benchmark("iso-pairs", seed, 0, True)
        assert result["correct"] and report["fail_ratio"] == 0
        return {k: v["value"] for k, v in result["metrics"].items()
                if k in run.COUNTS or k.endswith("_calls")}

    first = counts(1)
    assert first == counts(2)
    assert first["automorphisms.iso_calls"] == 5 and first["automorphisms.aut_calls"] == 0

    _, ops = run.setup("verify-ladder", 1)
    op = next(o for o in ops if o.label == "cyclic:12")
    assert op.call().out == op.call().out


def test_exits_nonzero_without_the_program(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "construct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_host_speed_samples_within_a_step():
    host = run.HostSpeed()
    with host.during():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        inside_ns = host.sample_ns
    # One sample before, several from the timer, one after.
    assert len(host.speeds) >= 5
    assert 0 < inside_ns < 0.3e9 and host.scale > 0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
