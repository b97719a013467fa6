"""Lemma expansion and proof metrics."""

import pytest

from conftest import CORPUS, atom_args, goal_atom, load_corpus_goal
from props import goal_spine, plain_spine

from holcheck.cli import _library_signature, main
from holcheck.kernel import Session
from holcheck.library import walk
from holcheck.signature import builtin_signature
from holcheck.syntax import Solve, format_goal, parse_source, parse_term
from holcheck.terms import (
    PROVES,
    Const,
    Lam,
    alpha_beta_eq,
    app,
    map_children,
    map_proves,
    normalize,
)
from holcheck.transform import (
    ProofStats,
    expand_lemmas,
    expand_statement_goal,
    proof_stats,
)


def count_const(t, name):
    return sum(1 for n in walk(t) if isinstance(n, Const) and n.name == name)


def test_expansion_of_single_lemma_gives_direct_proof():
    with_lemma = load_corpus_goal("symm_lemma.hol")
    direct = load_corpus_goal("symm_basic.hol")
    expanded = expand_lemmas(atom_args(with_lemma)[0])
    assert normalize(expanded) == normalize(atom_args(direct)[0])
    assert alpha_beta_eq(expanded, atom_args(direct)[0])


def test_expansion_is_identity_on_lemma_free_proofs():
    direct = load_corpus_goal("symm_basic.hol")
    proof = atom_args(direct)[0]
    assert expand_lemmas(proof) is proof


def test_expansion_duplicates_reused_lemma_body():
    goal = load_corpus_goal("symm_trans.hol")
    proof = atom_args(goal)[0]
    expanded = expand_lemmas(proof)
    # one congruence node per stated lemma proof before; afterwards the
    # symmetry body appears twice (in the former transitivity body and in
    # the main body) next to the transitivity congruence
    assert count_const(proof, "congr") == 2
    assert count_const(expanded, "congr") == 3
    assert count_const(expanded, "lemma_pf") == 0


def test_expanded_proofs_recheck():
    for name in ("symm_lemma.hol", "symm_trans.hol", "poly_lemmas.hol", "assoc_def.hol"):
        goal = load_corpus_goal(name)
        expanded = expand_statement_goal(goal)
        report = Session(builtin_signature()).check_goal(expanded)
        assert report.ok, name


def test_expansion_idempotent():
    goal = load_corpus_goal("assoc_def.hol")
    e1 = expand_statement_goal(goal)
    e2 = expand_statement_goal(e1)
    assert e1 == e2


def test_definition_nodes_survive_expansion():
    goal = load_corpus_goal("assoc_def.hol")
    expanded = expand_statement_goal(goal)
    proof = atom_args(goal_atom(expanded))[0]
    stats = proof_stats(proof)
    assert stats.def_count == 1 and stats.lemma_count == 0


def test_stats_on_single_constructor():
    sig = builtin_signature()
    s = proof_stats(parse_term("refl", sig))
    assert s.shared_nodes == s.tree_nodes == 1
    assert s.lemma_count == 0 and s.def_count == 0 and s.max_depth == 1


def test_lemma_and_definition_counts():
    trans_goal = load_corpus_goal("symm_trans.hol")
    assert proof_stats(atom_args(trans_goal)[0]).lemma_count == 2
    poly_goal = load_corpus_goal("poly_lemmas.hol")
    assert proof_stats(atom_args(poly_goal)[0]).lemma_count == 3
    assoc_goal = load_corpus_goal("assoc_def.hol")
    proof = atom_args(goal_atom(assoc_goal))[0]
    s = proof_stats(proof)
    assert s.lemma_count == 5 and s.def_count == 1


def test_tree_size_grows_when_lemmas_are_reused():
    cases = {
        "symm_trans.hol": lambda g: atom_args(g)[0],
        "poly_lemmas.hol": lambda g: atom_args(g)[0],
        "assoc_def.hol": lambda g: atom_args(goal_atom(g))[0],
    }
    for name, select in cases.items():
        goal = load_corpus_goal(name)
        before = proof_stats(select(goal))
        after = proof_stats(select(expand_statement_goal(goal)))
        assert after.tree_nodes > before.tree_nodes, name
        assert after.lemma_count == 0


def test_shared_count_never_exceeds_tree_count():
    for name in ("symm_trans.hol", "assoc_def.hol", "poly_lemmas.hol"):
        goal = load_corpus_goal(name)
        if goal_spine(goal)[0] != "proves":
            continue  # an open proof under binders
        proof = atom_args(goal)[0]
        s = proof_stats(proof)
        assert s.shared_nodes <= s.tree_nodes
        expanded = expand_lemmas(proof)
        se = proof_stats(expanded)
        # expansion duplicates subproofs by reference, so the shared count
        # stays below the tree count
        assert se.shared_nodes <= se.tree_nodes


def test_expansion_inlines_specialized_definitions():
    # expanding the variants that introduce their definition through a
    # lemma substitutes the body for the defined name and the reflexivity
    # proof for its equality name; the result still checks
    for name in ("assoc_def_speclemma.hol", "assoc_def_atomic.hol"):
        goal = load_corpus_goal(name)
        expanded = expand_statement_goal(goal)
        report = Session(builtin_signature()).check_goal(expanded)
        assert report.ok, name
        assert proof_stats(atom_args(goal_atom(expanded))[0]).lemma_count == 0


# `holcheck stats` lines of every corpus theorem, after the "path:line: "
STATS_LINES = {
    "and_def.hol": "nodes=36 tree_nodes=36 lemmas=0 defs=1 depth=12",
    "assoc_def.hol": "nodes=519 tree_nodes=519 lemmas=5 defs=1 depth=45",
    "assoc_def_atomic.hol": "nodes=1188 tree_nodes=1188 lemmas=6 defs=0 depth=54",
    "assoc_def_speclemma.hol": "nodes=526 tree_nodes=526 lemmas=6 defs=0 depth=48",
    "assoc_via_lib.hol": "nodes=100 tree_nodes=100 lemmas=0 defs=0 depth=21",
    "poly_lemmas.hol": "nodes=182 tree_nodes=182 lemmas=3 defs=0 depth=25",
    "symm_basic.hol": "nodes=26 tree_nodes=26 lemmas=0 defs=0 depth=13",
    "symm_implicit.hol": "nodes=56 tree_nodes=56 lemmas=1 defs=0 depth=17",
    "symm_lemma.hol": "nodes=46 tree_nodes=46 lemmas=1 defs=0 depth=13",
    "symm_trans.hol": "nodes=116 tree_nodes=116 lemmas=2 defs=0 depth=21",
    "symm_via_lib.hol": "nodes=12 tree_nodes=12 lemmas=0 defs=0 depth=8",
}


@pytest.mark.parametrize("name", sorted(STATS_LINES))
def test_stats_lines_are_pinned(name, capsys):
    path = str(CORPUS / name)
    lib = ["--lib", str(CORPUS / "lib_full.hol")] if name.endswith("_via_lib.hol") else []
    assert main(["stats", *lib, path]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    prefix, _, rest = line.rpartition(": ")
    assert prefix.startswith(path + ":")
    assert rest == STATS_LINES[name]


def test_stats_of_shared_subterms_are_pinned():
    # a parsed proof shares nothing; these share lemma and definition
    # subproofs, which the tree metrics count once per occurrence
    lemma = atom_args(load_corpus_goal("symm_lemma.hol"))[0]
    defn = atom_args(load_corpus_goal("and_def.hol"))[0]
    imp_e = parse_term("imp_e false refl refl", builtin_signature()).head
    shared = app(app(app(imp_e, lemma), defn), app(defn, lemma))
    assert proof_stats(shared) == ProofStats(
        shared_nodes=87, tree_nodes=169, lemma_count=2, def_count=2, max_depth=16
    )
    expanded = expand_lemmas(atom_args(load_corpus_goal("symm_trans.hol"))[0])
    assert proof_stats(expanded) == ProofStats(
        shared_nodes=101, tree_nodes=130, lemma_count=0, def_count=0, max_depth=34
    )


def _expand_by_normalizing(t, env, _=None):
    """The reference expansion: each `lemma_pf I L R`, its parts expanded
    first, becomes `R L` normalized whole."""
    if isinstance(t, Lam):
        body = _expand_by_normalizing(t.body, (t.mt,) + env)
        t = t if body is t.body else Lam(t.mt, body, t.hint)
    else:
        t = map_children(t, _expand_by_normalizing, env, None)
    head, args = plain_spine(t)
    if isinstance(head, Const) and head.name == "lemma_pf" and len(args) == 3:
        return normalize(app(args[2], args[1]), env)
    return t


def _expand_atom_by_normalizing(atom, env):
    proof, formula = plain_spine(atom)[1]
    return app(PROVES, _expand_by_normalizing(proof, tuple(env)), formula)


THEOREMS = sorted(f.name for f in CORPUS.glob("*.hol") if not f.name.startswith("lib_"))


@pytest.mark.parametrize("name", THEOREMS)
def test_expansion_equals_normalizing_each_lemma_node_whole(name):
    libs = [CORPUS / "lib_full.hol"] if name.endswith("_via_lib.hol") else []
    sig = _library_signature(libs)
    goals = 0
    src = parse_source((CORPUS / name).read_text(), sig, name)
    sig = src.sig
    for st in src.statements:
        if not isinstance(st, Solve):
            continue
        got = expand_statement_goal(st.goal)
        want = map_proves(st.goal, _expand_atom_by_normalizing)
        assert got == want
        assert format_goal(got, sig) == format_goal(want, sig)
        goals += 1
    assert goals
