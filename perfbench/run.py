"""infodist benchmark: one closed-loop client, one op at a time, four workloads.

    python3 perfbench/run.py --workload search --seed 1 --seconds 24 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-module metrics of a separately traced run.  The last
stdout line is one JSON object {correct, attempted, failed, metrics}; the
lines before it are the same numbers for people.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import ladders
import tracer as tr
import workloads as w

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
IMPORT_REPEATS = 5
# Nominal time of one reference loop (`reference_s`): the speed-adjusted
# times below are wall times rescaled to a machine that runs it this fast.
NOMINAL_REF_S = 0.0015


class OpTimeout(BaseException):
    """Raised by the interval timer inside an op that overran its limit.

    A BaseException so that no ``except Exception`` in library code can
    swallow it.
    """


def _alarm(_signum, _frame):
    raise OpTimeout


def reference_s() -> float:
    """Wall time of a fixed pure-Python graph search, taken around each in-process op.

    The shared VM this was tuned on ran it anywhere from 1.0 to 1.8 times its
    fastest time within a minute.  Scaling an op's wall time by NOMINAL_REF_S
    over the mean of the searches before and after it cancels most of that
    drift.  Dict, set and list work like the library's tracks the library's
    slowdowns more closely than an arithmetic loop does.  A subprocess may
    run on the other CPU, which this process's reference says nothing about,
    so CLI calls and set-up keep their wall times.
    """
    start = perf_counter()
    succ = {v: [(7 * v + j) % 400 for j in range(3)] for v in range(400)}
    for source in range(0, 400, 40):
        seen, stack = {source}, [source]
        while stack:
            for u in succ[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return perf_counter() - start


def execute(op, rnd: int, tracer=None) -> tuple[float, float, str | None, object]:
    """Run one op under the per-op limit.

    Returns (wall seconds, speed-adjusted seconds, failure, result).
    """
    ref_before = reference_s() if op.in_process else None
    if tracer is not None:
        tracer.op = f"{op.id}#{rnd}"
    if op.in_process:  # a CLI op is bounded by its subprocess timeout instead
        signal.setitimer(signal.ITIMER_REAL, ladders.OP_LIMIT_S)
    start = perf_counter()
    failure, result = None, None
    try:
        result = op.run(rnd)
        elapsed = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        elapsed = perf_counter() - start
        failure = "timeout"
    except subprocess.TimeoutExpired:
        elapsed = perf_counter() - start
        failure = "timeout"
    except Exception as exc:  # the loop must go on; the failure is counted and named
        elapsed = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        failure = f"raised {type(exc).__name__}: {str(exc)[:80]}"
    finally:
        if tracer is not None:
            tracer.op = None
    if ref_before is None:
        return elapsed, elapsed, failure, result
    return elapsed, elapsed * 2 * NOMINAL_REF_S / (ref_before + reference_s()), failure, result


class Checker:
    """Untimed answer checks, cached per (op, summary) for repeated identical answers."""

    def __init__(self):
        self.cache: dict[tuple[str, str], str | None] = {}

    def __call__(self, op, result) -> str | None:
        facts = op.summary(result)
        if not op.cacheable:
            return op.check(facts)
        key = (op.id, json.dumps(facts, sort_keys=True))
        if key not in self.cache:
            self.cache[key] = op.check(facts)
        return self.cache[key]


def run_rounds(ops, seconds: float, seed: int, checker, tracer=None, max_rounds=None, first_round=0):
    """Closed loop in whole rounds: every op once per round, in a seeded order,
    starting rounds until `seconds` of wall time have passed."""
    records = []
    start = perf_counter()
    rnd = first_round
    while perf_counter() - start < seconds and (max_rounds is None or rnd < first_round + max_rounds):
        order = list(ops)
        random.Random(f"{seed}:order:{rnd}").shuffle(order)
        for op in order:
            elapsed, adjusted, failure, result = execute(op, rnd, tracer)
            wrong = None
            if failure is None:
                wrong = checker(op, result)
                failure = f"wrong: {wrong}" if wrong else None
            records.append(Record(op, elapsed, adjusted, failure, bool(wrong)))
        rnd += 1
    return records, rnd - first_round


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with at least ten ops above it:
    (value, percentile, op count)."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n


def setup_times(workload: str, workdir: Path) -> list[float]:
    """Set-up times from a fresh interpreter to ready, repeated; inputs are pre-generated."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(workdir)],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-300:]}")
    return times


def import_times() -> tuple[float, float]:
    """Median cumulative import time of infodist.cli and of numpy, via -X importtime."""
    cli, numpy = [], []
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import infodist.cli"],
                              capture_output=True, text=True, cwd=ROOT, env=env, timeout=60)
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                found[parts[2].strip()] = int(parts[1]) / 1e6
        cli.append(found.get("infodist.cli", 0.0))
        numpy.append(found.get("numpy", 0.0))
    return statistics.median(cli), statistics.median(numpy)


def build_ops(workload, inputs, known, state, workdir, traced_dir=None):
    if workload == "search":
        return w.search_ops(inputs, known)
    if workload == "rate-lp":
        return w.rate_ops(inputs, known)
    if workload == "code-audit":
        return w.audit_ops(inputs, known, state)
    return w.cli_ops(inputs, known, workdir, traced_dir), []


class Record(NamedTuple):
    op: w.Op
    wall_s: float
    adjusted_s: float  # wall_s scaled to the nominal machine speed
    failure: str | None
    wrong: bool


def summarize(records: list[Record]) -> tuple[int, int, int]:
    """(attempted, failed, wrong)"""
    return len(records), sum(1 for r in records if r.failure), sum(1 for r in records if r.wrong)


def untraced(workload, seed, seconds, workdir, inputs, known):
    state = w.setup(workload, inputs, workdir)
    steps, probes = build_ops(workload, inputs, known, state, workdir)
    checker = Checker()
    records, rounds = run_rounds(steps, seconds, seed, checker)
    usage = resource.RUSAGE_CHILDREN if workload == "cli-corpus" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    # After the peak is read: on cli-corpus the set-up children would count in it.
    setups = setup_times(workload, workdir)
    probe_records, _ = run_rounds(probes, float("inf"), seed, checker, max_rounds=1)
    attempted, failed, wrong = summarize(records)

    def time_metrics(key):
        """(ops_per_s, op_p50_s, op_tail_s, tail percentile, ops) over one kind of time.

        Rate and median are taken per round, then their median over rounds:
        that drops rounds a noisy neighbour slowed, and the median of a
        round with an even number of steps falls between two steps' typical
        times, not between the fastest and slowest runs of two steps.
        """
        rates, medians = [], []
        for k in range(0, len(records), len(steps)):
            part = records[k:k + len(steps)]
            r_att, r_failed, _ = summarize(part)
            rates.append((r_att - r_failed) / sum(key(r) for r in part))
            medians.append(statistics.median(key(r) for r in part))
        return (statistics.median(rates), statistics.median(medians), *tail([key(r) for r in records]))

    per_s, p50, tail_s, tail_pct, n = time_metrics(lambda r: r.adjusted_s)
    decided = [r.op.size for r in records + probe_records if not r.failure and r.op.size]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (per_s, "1/s"),
        "op_p50_s": (p50, "s"),
        "op_tail_s": (tail_s, "s"),
        "correct_share": ((attempted - failed) / attempted, "share"),
        "peak_rss_mb": (peak_mb, "MB"),
        "max_size_decided": (max(decided, default=0), "edges"),
    }
    wall = sum(r.wall_s for r in records)
    slow = statistics.median(r.wall_s / r.adjusted_s for r in records)
    print(f"workload {workload}  seed {seed}  rounds {rounds}  ops {attempted}  busy {wall:.3f} s wall  "
          f"machine {slow:.3f}x nominal time (median over ops; 1 when nothing is speed-adjusted)")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_tail_s":
            note = f"  (p{tail_pct:.1f} of {n} ops)"
        elif name == "setup_s":
            note = f"  (median of {len(setups)} fresh interpreters)"
        print(f"  {name:18s} {value:12.6g} {unit}{note}")
    print(f"  {'failed_share':18s} {failed / attempted:12.6g} share  ({failed} of {attempted} timed ops)")
    print(f"  {'wrong_share':18s} {wrong / attempted:12.6g} share  ({wrong} of {attempted} timed ops)")
    wall_per_s, wall_p50, wall_tail, _, _ = time_metrics(lambda r: r.wall_s)
    print(f"  unadjusted wall clock: ops_per_s {wall_per_s:.6g}, op_p50_s {wall_p50:.6g}, "
          f"op_tail_s {wall_tail:.6g}")
    if probe_records:
        p_att, p_failed, p_wrong = summarize(probe_records)
        both = attempted + p_att
        print(f"  with probes: failed_share {(failed + p_failed) / both:.4g}, "
              f"wrong_share {(wrong + p_wrong) / both:.4g} of {both} ops")
        for r in probe_records:
            print(f"    probe {r.op.id:12s} {r.wall_s:8.3f} s  {r.failure or 'correct'}")
    for r in records:
        if r.failure:
            print(f"    FAILED {r.op.id}: {r.failure}")
    result = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return wrong == 0, attempted, failed, result


def traced(workload, seed, seconds, workdir, inputs, known):
    """Per-module run: rounds alternate untraced and traced, so the tracing
    overhead is priced against untraced rounds of the same run."""
    state = w.setup(workload, inputs, workdir)
    tracer = tr.Tracer()
    child_dir = workdir / "child-traces" if workload == "cli-corpus" else None
    plain, _ = build_ops(workload, inputs, known, state, workdir)
    traced_ops = plain
    if child_dir is not None:
        child_dir.mkdir()
        traced_ops, _ = build_ops(workload, inputs, known, state, workdir, traced_dir=child_dir)
    checker = Checker()
    base, records, missing = [], [], []
    start = perf_counter()
    rnd = 0
    while rnd % 2 or rnd < 4 or perf_counter() - start < seconds:
        on = rnd % 2 == 1
        pairs = []
        if on and child_dir is None:
            pairs, missing = tr.install(tracer)
        round_records, _ = run_rounds(traced_ops if on else plain, float("inf"), seed, checker,
                                      tracer if on else None, max_rounds=1, first_round=rnd)
        tr.uninstall(pairs)
        for dump in sorted(child_dir.glob("*.json")) if child_dir is not None else []:
            tracer.merge(json.loads(dump.read_text(encoding="utf-8")))
            dump.unlink()
        (records if on else base).extend(round_records)
        rnd += 1
    busy = sum(r.wall_s for r in records)
    # Equal numbers of whole rounds on each side; speed-adjusted, so machine
    # drift between the rounds does not count as overhead.
    overhead = sum(r.adjusted_s for r in records) / sum(r.adjusted_s for r in base) - 1.0
    import_s, numpy_s = import_times()
    extra = {"cli.import_s": import_s, "cli.import_numpy_s": numpy_s, "startup.share": 0.0}
    if child_dir is not None:
        extra["startup.share"] = (busy - tracer.total("cli.main")) / busy
    values = tracer.layer_metrics(busy, overhead, extra)
    spans_file = ROOT / ".perfbench_work" / f"spans-{workload}.jsonl"
    tracer.write_spans(spans_file)
    print(f"workload {workload}  seed {seed}  rounds {rnd} (half traced)  traced ops {len(records)}  "
          f"busy {busy:.3f} s  tracing overhead {overhead:+.1%}")
    print(f"  spans kept {len(tracer.spans)} of {tracer.next_id}, written to {spans_file.relative_to(ROOT)}")
    if missing:
        print(f"  not found in the library (reported as 0): {', '.join(missing)}")
    shares = {m: values[f"{m}.share"] for m in tr.SHARES}
    print("  self-time share of op time: " + ", ".join(f"{m} {v:.1%}" for m, v in shares.items()))
    metrics = {}
    for name, unit, _better in tr.metric_specs():
        metrics[name] = {"value": values.get(name, 0), "unit": unit}
        print(f"  {name:52s} {values.get(name, 0):14.6g} {unit}")
    for r in base + records:
        if r.failure:
            print(f"    FAILED {r.op.id}: {r.failure}")
    attempted, failed, wrong = summarize(base + records)
    return wrong == 0, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=w.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "infodist" / "__init__.py").is_file():
        print(f"perfbench: no infodist sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _alarm)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        known = w.known_answers()
        inputs = w.prepare(args.workload, args.seed)
        (workdir / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")
        run = traced if args.trace else untraced
        correct, attempted, failed, metrics = run(args.workload, args.seed, args.seconds,
                                                  workdir, inputs, known)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
