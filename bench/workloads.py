"""The benchmark's workloads, each a list of jobs.

The seed shuffles the order of the jobs in every pass and, for `chain`,
generates the inputs; the checker sees only the files.  A rewrite job
carries the re-check of its output, which runs right after it.
"""

from __future__ import annotations

import os
import runpy

import chain
import oracle

QUIET = ["--trace", "quiet"]


def _corpus_files(root):
    corpus = os.path.join(root, "corpus")
    names = sorted(n for n in os.listdir(corpus) if n.endswith(".hol"))
    return corpus, names


def _lib_args(corpus, name):
    return ["--lib", os.path.join(corpus, "lib_full.hol")] if name.endswith("_via_lib.hol") else []


def corpus_jobs(root, work):
    """Every corpus theorem, then the hand-labelled negative cases."""
    corpus, names = _corpus_files(root)
    jobs = []
    for name in names:
        if name.startswith("lib_"):
            continue  # libraries, not theorems
        argv = ["check", *QUIET, *_lib_args(corpus, name), os.path.join(corpus, name)]
        jobs.append(oracle.theorem(f"check {name}", argv))
    cases = runpy.run_path(os.path.join(root, "tests", "negatives.py"))["CASES"]
    for k, (name, source, libs, code) in enumerate(cases):
        path = os.path.join(work, f"negative_{k:02d}.hol")
        with open(path, "w", encoding="utf-8") as f:
            f.write(source)
        lib_args = [a for lib in libs for a in ("--lib", os.path.join(corpus, lib))]
        argv = ["check", *QUIET, *lib_args, path]
        jobs.append(oracle.negative(f"negative: {name}", argv, code))
    return jobs


def chain_jobs(work, seed):
    jobs = []
    for case in chain.generate(seed, os.path.join(work, "chain")):
        label = f"check {os.path.basename(case['path'])}"
        argv = ["check", *QUIET, case["path"]]
        jobs.append(oracle.Job(label, argv, case["exit"], case["reason"]))
    return jobs


# Several inputs after one --lib: the library is installed once per file.
LIB_BATCHES = (
    ("symm_via_lib.hol", "assoc_via_lib.hol", "symm_basic.hol"),
    ("symm_lemma.hol", "symm_implicit.hol", "and_def.hol"),
)
PACKAGE_INPUTS = ("symm_via_lib.hol", "assoc_via_lib.hol")
EXPAND_INPUTS = (
    "symm_lemma.hol",
    "symm_implicit.hol",
    "symm_trans.hol",
    "poly_lemmas.hol",
    "assoc_def.hol",
    "assoc_def_speclemma.hol",
)
FMT_INPUTS = ("lib_full.hol", "lib_basic.hol", "assoc_def.hol", "poly_lemmas.hol")


def library_jobs(root, work):
    """The library round trip: multi-file --lib checks, package, expand, fmt."""
    corpus = os.path.join(root, "corpus")
    lib = ["--lib", os.path.join(corpus, "lib_full.hol")]
    jobs = []
    for batch in LIB_BATCHES:
        argv = ["check", *QUIET, *lib, *(os.path.join(corpus, n) for n in batch)]
        jobs.append(oracle.theorem(f"check --lib lib_full.hol {' '.join(batch)}", argv))
    for command, inputs, extra in (
        ("package", PACKAGE_INPUTS, lib),
        ("expand", EXPAND_INPUTS, []),
        ("fmt", FMT_INPUTS, []),
    ):
        for name in inputs:
            out = os.path.join(work, f"{command}_{name}")
            argv = [command, *QUIET, *extra, os.path.join(corpus, name), "-o", out]
            jobs.append(oracle.rewrite(f"{command} {name}", argv, out))
    return jobs


def build(name, root, work, seed):
    """The jobs of workload `name`; inputs are written under `work`."""
    os.makedirs(work, exist_ok=True)
    if name == "corpus":
        return corpus_jobs(root, work)
    if name == "chain":
        return chain_jobs(work, seed)
    if name == "library":
        return library_jobs(root, work)
    raise ValueError(f"unknown workload {name!r}")
