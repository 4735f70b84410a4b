"""finspace benchmark: verify ladder, isomorphism pairs and construction.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 40 --trace 0

One single-threaded client issues ops in a closed loop against the public
API, in this process.  A pass runs every op of the workload once, in an
order drawn from the seed; passes repeat until the next one would end
after ``--seconds``.  Every op's output is checked against an answer held
here, never one computed by finspace itself.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (see spans.py) and prints the per-layer metrics
of the traced ones.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
reports the pass count, the fail ratio, the hash of each verify op's
stdout and, traced, the order of Aut found for each ladder group.  Exits 2
without a result when finspace cannot be imported from ``src/`` next to
this directory.

``--setup-only`` imports finspace, builds the workload's inputs, prints
``ready`` and exits: the untraced run times this in fresh processes for
``setup_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = Path(__file__).resolve().parent / "out"

# Expected answers.  (|G|, points, covers) of each ladder group's
# realization space.
LADDER = {
    "cyclic:12": (12, 528, 2340),
    "cyclic:24": (24, 1056, 4680),
    "cyclic:48": (48, 2112, 9360),
    "symmetric:4": (24, 2352, 12984),
}
LADDER_BUDGET = "2400"
# (points, covers) of the realization spaces emitted by build-space.
BUILDS = {
    "symmetric:5": (11760, 64920),
    "dihedral:48": (4704, 25968),
    "cyclic:96": (4224, 18720),
}
# S6 on two generators needs 70560 points: verify must refuse it.
OVER_BUDGET = ("symmetric:6", "perm:[[1,0,2,3,4,5],[1,2,3,4,5,0]]")

# Fresh processes timed for setup_s; the median is reported.
SETUP_SAMPLES = 9
COUNTS = (
    "automorphisms.classes",
    "automorphisms.order",
    "automorphisms.generators",
    "groups.elements",
    "assembly.points",
    "assembly.covers",
)
# Per traced pass, the counts fixed by the inputs: group elements tabulated
# from cli, points and covers of every space built, sum of the orders of
# Aut found.  classes and generators depend on the engine's algorithm, so
# they are only required to repeat from pass to pass.
EXPECTED_COUNTS = {
    "verify-ladder": {
        "automorphisms.order": sum(o for o, _, _ in LADDER.values()),
        "groups.elements": sum(o for o, _, _ in LADDER.values()),
        "assembly.points": sum(p for _, p, _ in LADDER.values()),
        "assembly.covers": sum(c for _, _, c in LADDER.values()),
    },
    "iso-pairs": {
        "automorphisms.order": 0,
        "groups.elements": 0,
        "assembly.points": 0,
        "assembly.covers": 0,
    },
    "construct": {
        "automorphisms.order": 0,
        # S5, D48, C96 and the two S6 tables: 120 + 48 + 96 + 720 + 720.
        "groups.elements": 1704,
        "assembly.points": sum(p for p, _ in BUILDS.values()),
        "assembly.covers": sum(c for _, c in BUILDS.values()),
    },
}


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    # Returns an error message, or None when the result is right.
    check: Callable[[object], str | None]
    is_verify: bool = False


def run_cli(cli, argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


# -- checkers -----------------------------------------------------------


def check_verify(order: int, points: int, covers: int):
    def check(r: CliResult) -> str | None:
        if r.code != 0:
            return f"exit {r.code}: {r.err.strip()}"
        lines = r.out.splitlines()
        if f"points: {points}, covers: {covers}" not in lines:
            return f"expected {points} points and {covers} covers"
        if lines[-1:] != [f"order(Aut) = {order} = |G| : PASS"]:
            return f"verdict {lines[-1:]!r}"
        return None

    return check


def check_build(points: int, covers: int):
    def check(r: CliResult) -> str | None:
        if r.code != 0:
            return f"exit {r.code}: {r.err.strip()}"
        data = json.loads(r.out)
        if len(set(data["points"])) != points or len(data["points"]) != points:
            return f"{len(data['points'])} points, expected {points} distinct"
        if len(data["covers"]) != covers:
            return f"{len(data['covers'])} covers, expected {covers}"
        return None

    return check


def check_over_budget(r: CliResult) -> str | None:
    if r.code != 1 or r.out or "budget" not in r.err:
        return f"exit {r.code}, stdout {r.out[:60]!r}, stderr {r.err.strip()!r}"
    return None


def check_iso(p, q, isomorphic: bool):
    def check(m) -> str | None:
        if not isomorphic:
            return None if m is None else "mapped spaces that are not isomorphic"
        if m is None:
            return "missed an isomorphism"
        if set(m) != set(p.points) or sorted(m.values()) != sorted(q.points):
            return "not a bijection between the point sets"
        if {(m[a], m[b]) for a, b in p.covers} != set(q.covers):
            return "does not carry covers onto covers"
        return None

    return check


# -- workloads ----------------------------------------------------------


def relabel(fs, p, rng: random.Random):
    """p with its points renamed and listed in a random order."""
    names = [f"x{i}" for i in range(len(p.points))]
    rng.shuffle(names)
    new = dict(zip(p.points, names))
    rng.shuffle(names)
    return fs.make_poset(names, {(new[a], new[b]) for a, b in p.covers})


def ladder_ops(fs, cli, rng) -> list[Op]:
    return [
        Op(spec, lambda s=spec: run_cli(cli, ["verify", s, "--budget", LADDER_BUDGET]),
           check_verify(*expected), is_verify=True)
        for spec, expected in LADDER.items()
    ]


def iso_ops(fs, cli, rng) -> list[Op]:
    c4 = fs.group_from_permutations([[1, 2, 3, 0], [3, 0, 1, 2]])
    same = {
        "cyclic:12": fs.cyclic(12),
        "dihedral:8": fs.dihedral(8),
        "symmetric:3": fs.symmetric(3),
    }
    # Equal point and cover counts, but Aut(C2xC4) is not D8 and V4 is not C4.
    different = {
        "C2xC4|D8": (fs.direct_product(fs.cyclic(2), fs.cyclic(4)), fs.dihedral(8)),
        "V4|C4": (fs.klein_four(), c4),
    }
    pairs = []
    for label, g in same.items():
        p = fs.build_realization(g).poset
        pairs.append((label, p, relabel(fs, p, rng), True))
    for label, (g, h) in different.items():
        p, q = fs.build_realization(g).poset, fs.build_realization(h).poset
        if (len(p.points), len(p.covers)) != (len(q.points), len(q.covers)):
            raise RuntimeError(f"{label}: sizes differ, the pair tests nothing")
        pairs.append((label, p, relabel(fs, q, rng), False))
    return [
        Op(label, lambda p=p, q=q: fs.isomorphic(p, q), check_iso(p, q, iso))
        for label, p, q, iso in pairs
    ]


def construct_ops(fs, cli, rng) -> list[Op]:
    ops = [
        Op(spec, lambda s=spec: run_cli(cli, ["build-space", s, "--format", "json"]),
           check_build(*expected))
        for spec, expected in BUILDS.items()
    ]
    ops += [
        Op(spec, lambda s=spec: run_cli(cli, ["verify", s]), check_over_budget,
           is_verify=True)
        for spec in OVER_BUDGET
    ]
    return ops


WORKLOADS = {
    "verify-ladder": ladder_ops,
    "iso-pairs": iso_ops,
    "construct": construct_ops,
}


def setup(workload: str, seed: int):
    """Import finspace from src/ and build the workload's ops."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    fs = importlib.import_module("finspace")
    if Path(fs.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"finspace came from {fs.__file__}, not from {SRC}")
    cli = importlib.import_module("finspace.cli")
    return fs, WORKLOADS[workload](fs, cli, random.Random(seed))


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process until its first op is due,
    host-scaled."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    # Sampled around the child only, as samples during it would share its
    # vCPU: ten samples, about 14 ms, on each side.
    host = HostSpeed()
    for _ in range(10):
        host.sample()
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        ready = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        _, err = proc.communicate(timeout=120)
    if ready != "ready\n" or proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}: {err.strip()}")
    for _ in range(10):
        host.sample()
    return seconds * host.scale


# -- measurement --------------------------------------------------------

# The host's CPU speed moves by up to half within seconds, and its slow and
# fast phases last minutes, as other tenants come and go; every op slows
# alike.  So each timed step is scaled by the speed of a fixed task of this
# file's own, sampled just before the step, every SAMPLE_EVERY_S during it
# (from a timer signal; the samples' own time is taken out of the step's)
# and just after it.  A step time t is reported as t * mean(REFERENCE_S /
# sample time), i.e. in seconds at the speed at which the task takes
# REFERENCE_S (about its median on the host of the README's numbers).
# finspace's code does not run in the task, so a change to finspace moves
# only t.  Span times of the traced run are plain seconds, and include the
# samples taken within them.
REFERENCE_S = 0.00135
REFERENCE_N = 100
SAMPLE_EVERY_S = 0.05


def reference_task() -> int:
    """Build an n x n table of small ints and look entries up through it,
    the kind of work group tabulation and refinement do."""
    n = REFERENCE_N
    table = [[(i * j + i) % n for j in range(n)] for i in range(n)]
    total = 0
    for row in table:
        for j in range(0, n, 3):
            total += table[row[j]][j]
    return total


class HostSpeed:
    """Speed samples of the reference task, relative to REFERENCE_S."""

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self.sample_ns = 0

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter_ns()
        reference_task()
        ns = time.perf_counter_ns() - t0
        self.speeds.append(REFERENCE_S * 1e9 / ns)
        self.sample_ns += ns

    @contextlib.contextmanager
    def during(self):
        """Sample before, periodically within and after the block.

        Inside the block, ``sample_ns`` is the time spent in samples taken
        within it so far."""
        self.sample()
        self.sample_ns = 0
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    @property
    def scale(self) -> float:
        return statistics.fmean(self.speeds)


@dataclass
class Run:
    op_seconds: list[tuple[str, float]] = field(default_factory=list)
    pass_seconds: list[float] = field(default_factory=list)
    pass_p50_seconds: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    hashes: dict[str, set[str]] = field(default_factory=dict)
    scales: list[float] = field(default_factory=list)


def run_op(op: Op, run: Run, tracer: spans.Tracer | None, engine) -> float:
    """Run and check one op; returns its host-scaled time."""
    gc.collect()
    result, error = None, None
    with HostSpeed().during() as host:
        span = None if tracer is None else tracer.begin_op(op.label)
        t0 = time.perf_counter_ns()
        try:
            result = op.call()
        except Exception as exc:  # a crash is a failed op, not a dead benchmark
            error = f"{type(exc).__name__}: {exc}"
        ns = time.perf_counter_ns() - t0
        if tracer is not None:
            tracer.end(span)
            ns = span.ns
        ns -= host.sample_ns
    run.scales.append(host.scale)
    if tracer is not None:
        # Outside the op's span: split engine time into refinement and search.
        for d in tracer.digraphs:
            r = tracer.call("automorphisms.refine", engine.refine, d)
            tracer.add("automorphisms.classes", len(set(r.vertex_class.values())))
        tracer.digraphs.clear()
    if error is None:
        try:
            error = op.check(result)
        except Exception as exc:
            error = f"unreadable result: {type(exc).__name__}: {exc}"
    if op.is_verify and isinstance(result, CliResult):
        digest = hashlib.sha256(result.out.encode()).hexdigest()
        run.hashes.setdefault(op.label, set()).add(digest)
    if error is not None:
        run.errors.append(f"{op.label}: {error}")
    seconds = ns / 1e9 * host.scale
    run.op_seconds.append((op.label, seconds))
    return seconds


def run_pass(ops, rng, run: Run, tracer=None, engine=None) -> None:
    """Every op once, in an order drawn from ``rng``."""
    order = list(ops)
    rng.shuffle(order)
    times = [run_op(op, run, tracer, engine) for op in order]
    run.pass_seconds.append(sum(times))
    run.pass_p50_seconds.append(statistics.median(times))


def repeat_for(seconds: float, step) -> int:
    """Call ``step`` until the next call would end after ``seconds``."""
    start = time.perf_counter()
    done = 0
    while True:
        step()
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return done


def end_to_end(run: Run, setup_seconds: list[float]) -> dict:
    by_label: dict[str, list[float]] = {}
    for label, seconds in run.op_seconds:
        by_label.setdefault(label, []).append(seconds)
    return {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "wall_s": (statistics.median(run.pass_seconds), "s"),
        # Per pass, then over passes: with few, unequal ops a pooled
        # median is one extreme sample.
        "op_p50_s": (statistics.median(run.pass_p50_seconds), "s"),
        # The slowest kind of op, by its median: a single slowest sample
        # would measure the machine's worst moment, not the program.
        "op_max_s": (max(map(statistics.median, by_label.values())), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def check_counts(workload: str, pass_counts: list[dict], orders: dict) -> list[str]:
    """Counts that differ from the inputs' facts or between traced passes."""
    errors = []
    for i, counts in enumerate(pass_counts, 1):
        for key in COUNTS:
            want = EXPECTED_COUNTS[workload].get(key, pass_counts[0].get(key, 0))
            if counts.get(key, 0) != want:
                errors.append(f"{key}: {counts.get(key, 0)} in traced pass {i}, expected {want}")
    for label, found in sorted(orders.items()):
        want = LADDER[label][0] if label in LADDER else None
        if any(order != want for order in found):
            errors.append(f"{label}: order(Aut) {sorted(set(found))}, expected |G| = {want}")
    return errors


def per_layer(tracer: spans.Tracer, passes: int, counts: dict, untraced_pass_s: float,
              traced_pass_s: list[float]) -> dict:
    """Per-pass span times and counts of the traced passes."""
    own = spans.self_ns(tracer.spans)
    totals = {name: [0, 0, 0] for name in spans.SPAN_NAMES}
    aut_by_label: dict[str, list[int]] = {}
    for s in tracer.spans:
        t = totals[s.name]
        t[0] += s.ns
        t[1] += own[s.id]
        t[2] += 1
        if s.name == "automorphisms.aut":
            aut_by_label.setdefault(tracer.labels[s.op], []).append(s.ns)
    metrics = {}
    for name, (ns, self_ns, calls) in totals.items():
        metrics[f"{name}_s"] = (ns / 1e9 / passes, "s")
        metrics[f"{name}_self_s"] = (self_ns / 1e9 / passes, "s")
        metrics[f"{name}_calls"] = (calls / passes, "count")
    engine_s = metrics["automorphisms.aut_s"][0] + metrics["automorphisms.iso_s"][0]
    metrics["automorphisms.search_s"] = (engine_s - metrics["automorphisms.refine_s"][0], "s")
    growth = 0.0
    if "cyclic:24" in aut_by_label and "cyclic:48" in aut_by_label:
        growth = math.log2(statistics.median(aut_by_label["cyclic:48"])
                           / statistics.median(aut_by_label["cyclic:24"]))
    metrics["automorphisms.growth_exp"] = (growth, "log2")
    for key in COUNTS:
        metrics[key] = (counts.get(key, 0), "count")
    metrics["tracing.overhead_s"] = (
        statistics.median(traced_pass_s) - untraced_pass_s, "s")
    return metrics


def write_spans(tracer: spans.Tracer, workload: str, seed: int) -> None:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{workload}-{seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({"name": s.name, "op": s.op, "label": tracer.labels[s.op],
                                 "id": s.id, "parent": s.parent,
                                 "start_ns": s.start, "end_ns": s.end}) + "\n")


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run: returns (result line, report line)."""
    fs, ops = setup(workload, seed)
    rng = random.Random(f"order-{seed}")
    run = Run()
    count_errors, orders = [], {}
    if not trace:
        setup_seconds = [time_setup(workload, seed) for _ in range(SETUP_SAMPLES)]
        passes = repeat_for(seconds, lambda: run_pass(ops, rng, run))
        metrics = end_to_end(run, setup_seconds)
    else:
        tracer = spans.Tracer()
        engine = spans.caller_modules(fs)["engine"]
        untraced, traced, pass_counts = [], [], []

        # Untraced and traced passes alternate, so that the tracing overhead
        # compares passes run under the same machine conditions.
        def step():
            run_pass(ops, rng, run)
            untraced.append(run.pass_seconds[-1])
            saved = spans.install(tracer, fs)
            try:
                run_pass(ops, rng, run, tracer, engine)
            finally:
                spans.uninstall(saved)
            traced.append(run.pass_seconds[-1])
            pass_counts.append(tracer.counts)
            tracer.counts = {}

        passes = repeat_for(seconds, step)
        orders = tracer.orders
        count_errors = check_counts(workload, pass_counts, orders)
        metrics = per_layer(tracer, passes, pass_counts[0], statistics.median(untraced), traced)
        write_spans(tracer, workload, seed)
    unstable = sorted(label for label, h in run.hashes.items() if len(h) != 1)
    errors = run.errors + [f"{label}: verify stdout differs between passes" for label in unstable]
    errors += count_errors
    attempted = len(run.op_seconds)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(run.errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "workload": workload,
        "seed": seed,
        "passes": passes,
        "ops": attempted,
        "fail_ratio": len(run.errors) / attempted,
        "host_scale_median": statistics.median(run.scales),
        "errors": errors[:10],
        "verify_stdout_sha256": {k: sorted(v) for k, v in sorted(run.hashes.items())},
    }
    if trace:
        report["aut_order_by_group"] = {k: sorted(set(v)) for k, v in sorted(orders.items())}
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="finspace benchmark")
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "finspace" / "__init__.py").is_file():
        print(f"perfbench: no finspace package under {SRC}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # One vCPU for the whole run, so the reference task measures the
        # CPU the ops run on; the set-up children inherit it.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.setup_only:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    try:
        result, report = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"perfbench: cannot import finspace: {exc}", file=sys.stderr)
        return 2
    for error in report["errors"]:
        print(f"perfbench: failed op {error}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
