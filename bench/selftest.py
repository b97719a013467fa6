"""Self-test of the benchmark's exact counts and inputs.

Run from the repository root:

    python3 bench/selftest.py

It asserts that two traced passes over the corpus give identical per-job
counts (interpreter steps, top-level match attempts, clauses added,
tokens), that the corpus reproduces the baseline step counts of
assoc_def_atomic.hol (7257) and assoc_def.hol (5322), and that the chain
generator writes the same files for the same seed.  Exit 0 when all hold.
"""

from __future__ import annotations

import os
import random
import shutil
import sys

import run

BASELINE_STEPS = {"check assoc_def_atomic.hol": 7257, "check assoc_def.hol": 5322}


def traced_pass(cli, oracle, jobs, seed):
    from tracer import Tracer

    tracer = Tracer(span_cap=0)
    tracer.install()
    try:
        loop = run.run_loop(
            cli, oracle, jobs, random.Random(seed), 0, lambda loop: True, run.clock(), tracer
        )
    finally:
        tracer.uninstall()
    assert not loop.failed, f"verdict mismatches: {loop.failed}"
    return loop.job_counts


def read_tree(path):
    return {
        name: open(os.path.join(path, name), encoding="utf-8").read()
        for name in sorted(os.listdir(path))
    }


def main():
    sys.path.insert(0, run.SRC)
    import chain
    import oracle
    import workloads
    from holcheck import cli

    work = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    try:
        jobs = workloads.build("corpus", run.ROOT, work, 0)
        first = traced_pass(cli, oracle, jobs, 1)
        second = traced_pass(cli, oracle, jobs, 2)
        assert first == second, "per-job counts differ between two runs"
        for label, steps in BASELINE_STEPS.items():
            got = first[label]["kernel.steps"]
            assert got == steps, f"{label}: {got} steps, baseline {steps}"
        print(f"counts identical over two runs of {len(first)} corpus jobs; baseline steps hold")

        a, b = os.path.join(work, "a"), os.path.join(work, "b")
        chain.generate(7, a)
        chain.generate(7, b)
        assert read_tree(a) == read_tree(b), "the chain generator is not deterministic"
        print(f"chain generator: seed 7 writes the same {len(os.listdir(a))} files twice")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
