import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
# the property helpers assert too; rewritten, they also hold under python -O
pytest.register_assert_rewrite("props")

from holcheck.kernel import Session
from holcheck.signature import builtin_signature
from holcheck.syntax import parse_source
from props import goal_spine, plain_spine

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
# the benchmark's chain generator and tracer are imported, never edited
sys.path.append(str(ROOT / "bench"))

THEOREM_FILES = [
    "symm_basic.hol",
    "symm_lemma.hol",
    "symm_implicit.hol",
    "symm_trans.hol",
    "poly_lemmas.hol",
    "assoc_def.hol",
]

EXTRA_THEOREM_FILES = ["assoc_def_speclemma.hol", "assoc_def_atomic.hol", "and_def.hol"]


@pytest.fixture
def sig():
    return builtin_signature()


@pytest.fixture
def session(sig):
    return Session(sig)


@pytest.fixture(scope="session")
def corpus_dir():
    return CORPUS


def load_corpus_goal(name, sig=None):
    """Parse a single-statement corpus file, returning its goal."""
    sig = sig if sig is not None else builtin_signature()
    src = parse_source((CORPUS / name).read_text(), sig, name)
    (st,) = src.statements
    return st.goal


def atom_args(atom):
    """The arguments of an atom, its predicate applied to them."""
    return plain_spine(atom)[1]


def goal_atom(goal):
    """The atom a goal ends in, under its `pi` binders and the goal sides
    of its implications."""
    name, args = goal_spine(goal)
    while name in ("pi", "=>"):
        goal = args[0].body if name == "pi" else args[1]
        name, args = goal_spine(goal)
    return goal


def load_full_library():
    """Signature, checked session, and registry for corpus/lib_full.hol."""
    from holcheck.library import load_library

    sig = builtin_signature()
    src = parse_source((CORPUS / "lib_full.hol").read_text(), sig, "lib_full.hol")
    sig = src.sig
    registry, ses = {}, Session(sig)
    for name, report in load_library(src, registry, ses):
        assert report.ok, f"library entry {name} failed"
    return sig, ses, registry
