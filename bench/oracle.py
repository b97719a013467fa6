"""The verdict oracle shared by every workload.

A job is one in-process `holcheck.cli.main(argv)` call.  Its expected exit
code is fixed when the job is built, from knowledge that does not come
from running the checker:

  * a corpus theorem is a worked, accepted proof: exit 0;
  * a hand-labelled negative case carries its code in the table of
    `tests/negatives.py`;
  * a generated chain case carries the code its generator derived;
  * a rewrite (`expand`, `package`, `fmt`) exits 0, and its output must
    re-check with exit 0 (the re-check is a job of its own).

An exception escaping `main` is a mismatch; it is recorded, not raised.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Job:
    label: str
    argv: list
    expect: int
    reason: str
    recheck: "Job | None" = None  # run next; a non-zero exit fails this job too
    output: "str | None" = None  # written by the job, removed before it runs


def theorem(label, argv):
    return Job(label, argv, 0, "corpus theorem: a worked proof the checker accepts")


def negative(label, argv, code):
    return Job(label, argv, code, "hand-labelled negative case, code from its table")


def rewrite(label, argv, output):
    """A rewrite job writing `output`, followed by a re-check of that file."""
    recheck = Job(
        f"recheck {label}",
        ["check", "--trace", "quiet", output],
        0,
        "the output of a successful rewrite must check without libraries",
    )
    return Job(label, argv, 0, "rewrites succeed on checked input", recheck, output)


def judge(job, outcome):
    """True when an outcome (an exit code, or the name of an escaped
    exception) is the job's expected verdict."""
    return outcome == job.expect
