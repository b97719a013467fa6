"""Time two holcheck checkouts against each other, interleaved.

    python tests/ab.py A_ROOT B_ROOT [--what parse|corpus|library|setup] [--rounds N]

Loads `A_ROOT/src/holcheck` as the package `holcheck_a` and
`B_ROOT/src/holcheck` as `holcheck_b`, side by side, and runs the same
work on each in turn, round after round, the side that goes first
alternating.  Back-to-back processes on a shared host can differ in speed
by up to 2x; two sides timed in one process, interleaved, meet the same
load, so a gain of a few percent shows.

`--what parse` (the default) times `parse_source` over the 13 corpus
files, a `_via_lib` file against the declarations of `lib_full.hol`.
`corpus` and `library` time one pass over the jobs of that benchmark
workload (`bench/workloads.py` of the checkout this script is in), each an
in-process `cli.main` call with its output discarded.  Every round prints
each side's time; the summary gives each side's best, B's best relative
to A's, and the rounds B won.

`--what setup` times start-up instead, out of process: each round runs
the benchmark's `setup_s` probe (a fresh `python -I` that imports
`holcheck.cli` and builds a `Session`) once on each checkout, the side that
goes first alternating, and the summary gives each side's median and
interquartile range, B's median relative to A's, and the rounds B won.
Not a test: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The statements of `SETUP_PROBE` in `bench/run.py`, copied so that this
# script times what the benchmark's `setup_s` times without importing it.
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


def load(root, name):
    """The `holcheck` package of checkout `root`, imported as `name`."""
    pkg = os.path.join(root, "src", "holcheck")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def parse_work(pkg):
    """One call parses every corpus file with package `pkg`."""
    syntax = importlib.import_module(f"{pkg.__name__}.syntax")
    corpus = os.path.join(HERE, "corpus")
    names = sorted(n for n in os.listdir(corpus) if n.endswith(".hol"))
    texts = []
    for n in names:
        with open(os.path.join(corpus, n), encoding="utf-8") as f:
            texts.append((f.read(), n))
    sig = pkg.builtin_signature()
    lib = sig.copy()  # declared here: an older checkout's parse returns no signature
    for st in syntax.parse_source(texts[names.index("lib_full.hol")][0], sig).statements:
        if isinstance(st, syntax.TypeDecl):
            lib.declare(st.name, st.mt, st.pos)
        elif isinstance(st, syntax.InfixDecl):
            lib.declare_infix(st.name, st.assoc, st.prec, st.pos)

    def run():
        for text, n in texts:
            syntax.parse_source(text, lib if n.endswith("_via_lib.hol") else sig, n)

    return run


def job_work(pkg, workload, work):
    """One call runs a pass over the benchmark workload's jobs with `pkg`."""
    if os.path.join(HERE, "bench") not in sys.path:
        sys.path.insert(0, os.path.join(HERE, "bench"))
    import workloads

    cli = importlib.import_module(f"{pkg.__name__}.cli")
    jobs = workloads.build(workload, HERE, work, 1)

    def run():
        for job in jobs:
            for j in (job, job.recheck):
                if j is None:
                    continue
                if j.output is not None:
                    with contextlib.suppress(FileNotFoundError):
                        os.remove(j.output)
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.main(list(j.argv))
                if code != j.expect:
                    sys.exit(f"ab: {pkg.__name__}: {j.label} exited {code}, expected {j.expect}")

    return run


def setup_work(root):
    """One call times one fresh interpreter's start-up on checkout `root`."""
    src = os.path.join(root, "src")

    def run():
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, src],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        return float(done.stdout.split()[-1])

    return run


def compare_setup(roots, rounds):
    """Alternate start-up probes of the two checkouts; print the summary."""
    runs = [setup_work(root) for root in roots]
    for run in runs:  # the first probe also writes the bytecode cache
        run()
    took = [[], []]
    wins = 0
    for r in range(rounds):
        for k in (0, 1) if r % 2 == 0 else (1, 0):
            took[k].append(runs[k]())
        wins += took[1][-1] < took[0][-1]
        print(f"round {r + 1:3d}: A {took[0][-1] * 1e3:7.3f} ms  B {took[1][-1] * 1e3:7.3f} ms")
    medians = [statistics.median(t) for t in took]
    iqrs = [_iqr(t) for t in took]
    ratio = medians[1] / medians[0]
    print(
        f"setup, median of {rounds}: A {medians[0] * 1e3:.3f} ms (IQR {iqrs[0] * 1e3:.3f}), "
        f"B {medians[1] * 1e3:.3f} ms (IQR {iqrs[1] * 1e3:.3f}), "
        f"B/A {ratio:.3f} ({(ratio - 1) * 100:+.1f}%); B won {wins} of {rounds}"
    )


def _iqr(samples):
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q3 - q1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a_root")
    ap.add_argument("b_root")
    ap.add_argument("--what", choices=("parse", "corpus", "library", "setup"), default="parse")
    ap.add_argument("--rounds", type=int, default=40)
    args = ap.parse_args(argv)
    if args.what == "setup":
        compare_setup([os.path.abspath(args.a_root), os.path.abspath(args.b_root)], args.rounds)
        return 0
    roots = {"holcheck_a": args.a_root, "holcheck_b": args.b_root}
    sides = [load(os.path.abspath(root), name) for name, root in roots.items()]
    with tempfile.TemporaryDirectory() as work:
        if args.what == "parse":
            runs = [parse_work(pkg) for pkg in sides]
        else:
            runs = [job_work(pkg, args.what, os.path.join(work, pkg.__name__)) for pkg in sides]
        for run in runs:  # warm up: bytecode, caches
            run()
        best = [float("inf")] * 2
        wins = 0
        for r in range(args.rounds):
            took = [0.0, 0.0]
            for k in (0, 1) if r % 2 == 0 else (1, 0):
                gc.collect()
                start = time.perf_counter()
                runs[k]()
                took[k] = time.perf_counter() - start
                best[k] = min(best[k], took[k])
            wins += took[1] < took[0]
            print(f"round {r + 1:3d}: A {took[0] * 1e3:9.3f} ms  B {took[1] * 1e3:9.3f} ms")
    ratio = best[1] / best[0]
    print(
        f"{args.what}, best of {args.rounds}: A {best[0] * 1e3:.3f} ms, B {best[1] * 1e3:.3f} ms, "
        f"B/A {ratio:.3f} ({(ratio - 1) * 100:+.1f}%); B won {wins} of {args.rounds}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
