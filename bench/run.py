"""The holcheck benchmark: time to verdict on the corpus, chain and library
workloads.

Run from the repository root:

    python3 bench/run.py --workload corpus --seed 1 --seconds 50 --trace 0

Load is a closed loop with one client in one thread: a job is one
in-process `holcheck.cli.main(argv)` call with its output captured, and
each job starts when the previous one has returned.  The loop runs whole
passes over the workload's jobs, each pass in a seeded order, until
`--seconds` have passed and the tail has ten jobs beyond it.  Every verdict
is checked against the oracle (see oracle.py).

A job's time is its best wall time over the passes of the run: the CPU is
shared with other tenants, whose load slows whole stretches of a run, and
the best of several passes filters that out.  Before each job the cyclic
garbage collector is run outside the timed region, so that every job
starts from the same collector state, as a fresh process would.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs the workload
untraced and then traced, prints the per-layer metrics and the tracing
overhead, and writes the spans and the per-job exact counts under
bench/out/.  The last line of output is one JSON object; the exit code is
0 only when every verdict matched.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

# The tail percentile of job time per workload: the highest at which a
# 50-second run has at least ten jobs beyond it (a run goes on until it
# has).
TAIL_PERCENTILE = {"corpus": 95, "chain": 85, "library": 95}
TAIL_BEYOND = 10
MIN_PASSES = 3  # a job's best time is taken over at least this many runs

HASH_SEED = "0"

# Every run stops starting jobs after this long, whatever the pass.
DEADLINE_S = 150.0

SETUP_SAMPLES = 15
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import holcheck.cli
from holcheck.kernel import Session
from holcheck.signature import builtin_signature
Session(builtin_signature())
print(time.perf_counter() - t0)
"""

clock = time.perf_counter


def probe_setup():
    """Seconds from a fresh interpreter's first statement to a ready Session."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_PROBE, SRC],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class SetupProbe:
    """Set-up time samples, taken between jobs and spread over the run, so
    that a stretch of load from other tenants does not decide all of them.
    The first sample also writes the bytecode cache and is not counted."""

    def __init__(self, seconds):
        self.every = seconds / SETUP_SAMPLES
        self.due = clock()
        self.samples = []

    def __call__(self):
        if clock() >= self.due and len(self.samples) <= SETUP_SAMPLES:
            self.samples.append(probe_setup())
            self.due = clock() + self.every

    def median(self):
        while len(self.samples) <= SETUP_SAMPLES:
            self.samples.append(probe_setup())
        return statistics.median(self.samples[1:])


class Loop:
    """The outcome of one closed-loop run over a workload's jobs."""

    def __init__(self):
        self.passes = []  # one {label: seconds} per pass
        self.failed = []  # (label, expected, outcome)
        self.elapsed = 0.0
        self.cut = False  # stopped mid-pass at the deadline
        self.job_counts = {}  # label -> exact counts, traced runs only
        self.counts_repeat = True

    @property
    def attempted(self):
        return sum(len(p) for p in self.passes)

    def best(self):
        """Each job's best wall time over the passes, in seconds."""
        best = {}
        for times in self.passes:
            for label, t in times.items():
                best[label] = min(t, best.get(label, t))
        return best

    def runs(self, label):
        return sum(label in p for p in self.passes)


def run_job(cli, job):
    """Run one job; return (outcome, seconds).  An escaping exception is
    an outcome too, named by its type."""
    sink = io.StringIO()
    gc.collect()
    start = clock()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            outcome = cli.main(list(job.argv))
    except (Exception, SystemExit) as e:
        outcome = f"{type(e).__name__}: {e}"
    return outcome, clock() - start


def run_step(cli, oracle, job, loop, tracer):
    """Run, time and judge one job; return whether its verdict matched."""
    if tracer is not None:
        tracer.job += 1
        before = tracer.job_counts()
    outcome, seconds = run_job(cli, job)
    loop.passes[-1][job.label] = seconds
    ok = oracle.judge(job, outcome)
    if not ok:
        loop.failed.append((job.label, job.expect, outcome))
    if tracer is not None:
        after = tracer.job_counts()
        counts = {k: after[k] - before[k] for k in after}
        loop.counts_repeat &= loop.job_counts.setdefault(job.label, counts) == counts
    return ok


def run_loop(cli, oracle, jobs, rng, seconds, done, started, tracer=None, between=None):
    """Whole passes in seeded order: at least one, and until `seconds`
    have passed and `done(loop)` holds.  `between` is called before each
    job, outside its timed region."""
    loop = Loop()
    start = clock()
    while not loop.passes or loop.elapsed < seconds or not done(loop):
        order = list(jobs)
        rng.shuffle(order)
        loop.passes.append({})
        for job in order:
            if clock() - started > DEADLINE_S:
                loop.cut = True
                loop.elapsed = clock() - start
                return loop
            if between is not None:
                between()
            if job.output is not None:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(job.output)  # a stale output must not re-check
            ok = run_step(cli, oracle, job, loop, tracer)
            if job.recheck is not None:
                if not run_step(cli, oracle, job.recheck, loop, tracer) and ok:
                    loop.failed.append((job.label, job.expect, "output did not re-check"))
        loop.elapsed = clock() - start
    return loop


def tail(loop, p):
    """(p-th percentile of the best job times in ms, jobs of the run beyond it)."""
    best = loop.best()
    value = statistics.quantiles(best.values(), n=100, method="inclusive")[p - 1]
    beyond = sum(loop.runs(label) for label, t in best.items() if t > value)
    return value * 1e3, beyond


def end_to_end(loop, workload, setup_s):
    p = TAIL_PERCENTILE[workload]
    best = loop.best()
    tail_ms, beyond = tail(loop, p)
    k, n = len(loop.passes), loop.attempted
    return [
        ("setup_s", setup_s, "s", f"median of {SETUP_SAMPLES} fresh interpreters over the run"),
        ("job_ms_p50", statistics.median(best.values()) * 1e3, "ms", f"{len(best)} jobs, best of {k} passes"),
        ("job_ms_tail", tail_ms, "ms", f"p{p} of the same, {beyond} of {n} jobs beyond it"),
        ("jobs_per_s", len(best) / sum(best.values()), "1/s", "one pass at the best job times"),
        ("mismatch_rate", len(loop.failed) / n, "share", f"{len(loop.failed)} of {n} jobs"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "this process"),
    ]


def per_layer(tracer, loop):
    """Per-layer metrics, per pass over the workload's jobs."""
    n = max(len(loop.passes), 1)

    def ms(layer):
        return tracer.self_s[layer] * 1e3 / n

    def per(key):
        return tracer.counts[key] / n

    def calls(layer):
        return tracer.calls[layer] / n

    matches = tracer.counts["kernel.match_calls"]
    return [
        ("syntax.parse_ms", ms("syntax.parse"), "ms"),
        ("syntax.tokens", per("syntax.tokens"), "count"),
        ("syntax.format_ms", ms("syntax.format"), "ms"),
        ("infer.elaborate_ms", ms("infer.elaborate"), "ms"),
        ("infer.elaborate_calls", calls("infer.elaborate"), "count"),
        ("terms.normalize_ms", ms("terms.normalize"), "ms"),
        ("terms.normalize_calls", calls("terms.normalize"), "count"),
        ("terms.subst_ms", ms("terms.subst"), "ms"),
        ("terms.subst_calls", calls("terms.subst"), "count"),
        ("terms.scan_ms", ms("terms.scan"), "ms"),
        ("terms.scan_calls", calls("terms.scan"), "count"),
        ("kernel.check_ms", tracer.total_s["kernel.check"] * 1e3 / n, "ms"),
        ("kernel.self_ms", ms("kernel.check"), "ms"),
        ("kernel.steps", per("kernel.steps"), "count"),
        ("kernel.match_calls", per("kernel.match_calls"), "count"),
        ("kernel.match_hit_ratio", tracer.counts["kernel.match_hits"] / matches if matches else 0.0, "ratio"),
        ("kernel.bind_calls", per("kernel.bind_calls"), "count"),
        ("kernel.bind_refused", per("kernel.bind_refused"), "count"),
        ("kernel.max_store_depth", tracer.max_store_depth, "count"),
        ("kernel.clauses_added", per("kernel.clauses_added"), "count"),
        ("kernel.solve_calls", per("kernel.solve_calls"), "count"),
        ("kernel.solve_store_calls", per("kernel.solve_store_calls"), "count"),
        ("kernel.backchain_calls", per("kernel.backchain_calls"), "count"),
        ("library.install_ms", ms("library.install"), "ms"),
        ("library.install_calls", calls("library.install"), "count"),
        ("library.package_ms", ms("library.package"), "ms"),
        ("transform.expand_ms", ms("transform.expand"), "ms"),
        ("cli.self_ms", ms("cli"), "ms"),
    ]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "chain", "library"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    started = clock()
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashes are randomized per process, and some jobs run up to
        # 20% faster or slower under one hash seed than another; a fixed
        # seed keeps that out of the run-to-run spread.
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    for need in ("src/holcheck/cli.py", "corpus/lib_full.hol", "tests/negatives.py"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"bench: {need} not found; run from a holcheck checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)
    import oracle
    import workloads
    from holcheck import cli

    work = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        jobs = workloads.build(args.workload, ROOT, work, args.seed)
        rng = random.Random(f"{args.workload}-{args.seed}")
        if args.trace:
            return traced_run(args, cli, oracle, jobs, rng, started)
        setup = SetupProbe(args.seconds)
        p = TAIL_PERCENTILE[args.workload]

        def done(loop):
            return len(loop.passes) >= MIN_PASSES and tail(loop, p)[1] >= TAIL_BEYOND

        loop = run_loop(cli, oracle, jobs, rng, args.seconds, done, started, between=setup)
        rows = end_to_end(loop, args.workload, setup.median())
        for name, value, unit, note in rows:
            print(f"{name:<14} {value:12.4f} {unit:<6} {note}")
        metrics = {
            name: {"value": value, "unit": unit}
            for name, value, unit, _ in rows
            if name != "mismatch_rate"  # reported as `failed` of `attempted`
        }
        return report(loop, metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced_run(args, cli, oracle, jobs, rng, started):
    """Untraced then traced passes; per-layer metrics from the traced ones."""
    from tracer import Tracer

    half = args.seconds / 2
    plain = run_loop(cli, oracle, jobs, rng, half, lambda loop: True, started)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_loop(cli, oracle, jobs, rng, half, lambda loop: True, started, tracer)
    finally:
        tracer.uninstall()
    p50 = [statistics.median(loop.best().values()) * 1e3 for loop in (plain, traced)]
    rows = per_layer(tracer, traced)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    tracer.write_spans(stem + ".spans.csv")
    with open(stem + ".counts.json", "w", encoding="utf-8") as f:
        json.dump(traced.job_counts, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"per pass of {len(traced.passes[0])} jobs, {len(traced.passes)} traced passes")
    for name, value, unit in rows:
        print(f"{name:<24} {value:14.4f} {unit}")
    print(
        f"tracing overhead: {p50[1] - p50[0]:.3f} ms; job_ms_p50 {p50[0]:.3f} ms "
        f"untraced ({len(plain.passes)} passes), {p50[1]:.3f} ms traced"
    )
    print(
        f"spans: {len(tracer.spans)} written to {stem}.spans.csv, {tracer.dropped} "
        f"beyond the cap; counts repeat across passes: {traced.counts_repeat}"
    )
    plain.failed += traced.failed
    plain.passes += traced.passes
    metrics = {name: {"value": value, "unit": unit} for name, value, unit in rows}
    return report(plain, metrics)


def report(loop, metrics):
    if loop.cut:
        print(f"bench: stopped mid-pass after {DEADLINE_S:.0f} s", file=sys.stderr)
    for label, expected, outcome in loop.failed:
        print(f"bench: mismatch: {label}: expected {expected}, got {outcome}", file=sys.stderr)
    result = {
        "correct": not loop.failed,
        "attempted": loop.attempted,
        "failed": len(loop.failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not loop.failed else 1


if __name__ == "__main__":
    sys.exit(main())
