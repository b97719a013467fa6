"""Exact interpreter step counts for every corpus statement.

`holcheck check` reports steps, clauses added and maximum store depth for
each statement.  They are deterministic, so they are pinned here exactly:
a change to search order, to what counts as a step or to which clauses
are pushed shows up as a failure.  Re-baseline on purpose, never silently.
"""

import pytest

from conftest import CORPUS

from holcheck.cli import main

LIB = ("--lib", str(CORPUS / "lib_full.hol"))

# (extra arguments, corpus file, exit code, statement lines without the path)
PINNED = [
    ((), "and_def.hol", 0, ["3: goal: success (steps=78, clauses=7, depth=7)"]),
    ((), "assoc_def.hol", 0, ["5: goal: success (steps=5322, clauses=46, depth=46)"]),
    ((), "assoc_def_atomic.hol", 0, ["7: goal: success (steps=7257, clauses=61, depth=61)"]),
    ((), "assoc_def_speclemma.hol", 0, ["5: goal: success (steps=5771, clauses=48, depth=48)"]),
    # without the library the file does not elaborate: no statement lines
    ((), "assoc_via_lib.hol", 2, []),
    (
        (),
        "lib_basic.hol",
        0,
        [
            "5: symm: success (steps=44, clauses=1, depth=1)",
            "13: assoc: success (steps=85, clauses=4, depth=5)",
        ],
    ),
    (
        (),
        "lib_full.hol",
        0,
        [
            "5: symm: success (steps=44, clauses=1, depth=1)",
            "13: trans: success (steps=129, clauses=1, depth=2)",
            "22: def_i: success (steps=84, clauses=1, depth=3)",
            "31: def_e: success (steps=128, clauses=1, depth=4)",
            "41: assoc: success (steps=85, clauses=4, depth=8)",
            "50: assoc_inst: success (steps=830, clauses=12, depth=18)",
        ],
    ),
    ((), "poly_lemmas.hol", 0, ["5: goal: success (steps=541, clauses=19, depth=19)"]),
    ((), "symm_basic.hol", 0, ["2: goal: success (steps=94, clauses=5, depth=5)"]),
    ((), "symm_implicit.hol", 0, ["3: goal: success (steps=153, clauses=7, depth=7)"]),
    ((), "symm_lemma.hol", 0, ["4: goal: success (steps=149, clauses=7, depth=7)"]),
    ((), "symm_trans.hol", 0, ["4: goal: success (steps=467, clauses=12, depth=12)"]),
    ((), "symm_via_lib.hol", 2, []),
    (LIB, "assoc_via_lib.hol", 0, ["3: goal: success (steps=1327, clauses=19, depth=26)"]),
    (LIB, "symm_via_lib.hol", 0, ["2: goal: success (steps=181, clauses=5, depth=12)"]),
]


def test_pin_covers_every_corpus_file():
    assert {name for _, name, _, _ in PINNED} == {p.name for p in CORPUS.glob("*.hol")}


@pytest.mark.parametrize(
    "extra,name,code,lines",
    PINNED,
    ids=[("lib:" if extra else "") + name for extra, name, _, _ in PINNED],
)
def test_corpus_step_counts(extra, name, code, lines, capsys):
    path = str(CORPUS / name)
    assert main(["check", *extra, path]) == code
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{path}:{line}" for line in lines]
