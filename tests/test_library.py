"""Registry loading, library checking, and proof packaging."""

import pytest

from conftest import CORPUS, atom_args, goal_atom, load_corpus_goal, load_full_library

from holcheck.errors import LibraryError
from holcheck.kernel import Session
from holcheck.library import (
    DefinitionEntry,
    LemmaEntry,
    check_library,
    const_names,
    dependencies,
    load_library,
    package,
)
from holcheck.signature import builtin_signature
from holcheck.syntax import apply_declarations, parse_source
from holcheck.terms import PF, TM, TP, alpha_beta_eq, arrow


def parse_lib(text, sig=None):
    sig = sig if sig is not None else builtin_signature()
    src = parse_source(text, sig, "lib")
    apply_declarations(src.statements, sig)
    return load_library(src), sig


SYMM_DECL = "type symm pf -> pf.\n"
SYMM_DEF = (
    "def_lemma symm\n"
    "  (Symm\\ pi T\\ pi A\\ pi B\\ pi P\\\n"
    "    proves (Symm P) (eq T A B) <<==\n"
    "        hastype A T, hastype B T, proves P (eq T B A))\n"
    "  (P\\ elam T\\ elam A\\ elam B\\\n"
    "    (extract (eq T A B) (congr T B A (eq T A) P refl))).\n"
)
TRANS_DECL = "type trans tm -> pf -> pf -> pf.\n"
TRANS_DEF = (
    "def_lemma trans\n"
    "  (Trans\\ pi T\\ pi A\\ pi B\\ pi C\\ pi Q1\\ pi Q2\\\n"
    "    proves (Trans C Q1 Q2) (eq T A B) <<==\n"
    "        hastype A T, hastype B T, hastype C T,\n"
    "        proves Q1 (eq T A C), proves Q2 (eq T C B))\n"
    "  (C\\Q1\\Q2\\ elam A\\ elam B\\ elam T\\\n"
    "    (extract (eq T A B) (congr T B C (eq T A) (symm Q2) Q1))).\n"
)


def test_load_basic_library_entry_shapes():
    reg, _ = parse_lib((CORPUS / "lib_basic.hol").read_text())
    assert [type(e) for e in reg.entries] == [LemmaEntry, DefinitionEntry]
    symm, assoc = reg.entries
    assert symm.name == "symm" and symm.meta_type == arrow(PF, PF)
    assert assoc.name == "assoc" and assoc.meta_type == arrow(
        arrow(TM, TM, TM), TP, TM
    )


def test_empty_file_empty_registry():
    reg, _ = parse_lib("")
    assert reg.entries == []


def test_check_library_succeeds_on_basic():
    reg, sig = parse_lib((CORPUS / "lib_basic.hol").read_text())
    results = check_library(reg, Session(sig))
    assert [name for name, _ in results] == ["symm", "assoc"]
    assert all(r.ok for _, r in results)


def test_check_library_order_of_independent_entries_is_irrelevant():
    text = (CORPUS / "lib_basic.hol").read_text()
    # definition first, lemma second: both orders succeed
    parts = text.split("type  assoc")
    swapped = "type  assoc" + parts[1] + "\n" + parts[0]
    for variant in (text, swapped):
        reg, sig = parse_lib(variant)
        assert all(r.ok for _, r in check_library(reg, Session(sig)))


def test_reordered_dependent_lemmas_fail_at_trans():
    ordered = SYMM_DECL + TRANS_DECL + SYMM_DEF + TRANS_DEF
    reg, sig = parse_lib(ordered)
    assert all(r.ok for _, r in check_library(reg, Session(sig)))

    reordered = SYMM_DECL + TRANS_DECL + TRANS_DEF + SYMM_DEF
    reg2, sig2 = parse_lib(reordered)
    results = check_library(reg2, Session(sig2))
    assert results[0][0] == "trans" and not results[0][1].ok
    assert len(results) == 1  # checking stops at the first failure


def test_broken_symm_proof_fails_at_symm():
    broken = SYMM_DEF.replace("(congr T B A (eq T A) P refl)", "refl")
    reg, sig = parse_lib(SYMM_DECL + broken)
    results = check_library(reg, Session(sig))
    assert results == [("symm", results[0][1])] and not results[0][1].ok


def test_duplicate_names_rejected():
    with pytest.raises(Exception):
        parse_lib(SYMM_DECL + SYMM_DEF + SYMM_DEF)


def test_forward_reference_in_definition_body():
    assoc = (
        "type  assoc           (tm -> tm -> tm) -> tp -> tm.\n"
        "def_definition form assoc\n"
        "  (Assoc\\ pi F\\ pi T\\\n"
        "    hastype (Assoc F T) form <<==\n"
        "    pi X\\ pi Y\\ (hastype X T ==>> hastype Y T ==>> hastype (F X Y) T))\n"
        "  (F\\T\\ (forall T X\\ forall T Y\\ forall T Z\\\n"
        "   (eq T (F X (F Y Z)) (F (F X Y) Z)))).\n"
    )
    uses_assoc = (
        "type  assoc2          tp -> tm.\n"
        "def_definition form assoc2\n"
        "  (Assoc2\\ pi T\\ hastype (Assoc2 T) form <<== hastype false form)\n"
        "  (T\\ (assoc (X\\Y\\ X) T)).\n"
    )
    decls = (
        "type  assoc           (tm -> tm -> tm) -> tp -> tm.\n"
        "type  assoc2          tp -> tm.\n"
    )
    # declared order works; defining the dependent entry first does not
    parse_lib(assoc + uses_assoc)
    with pytest.raises(LibraryError) as exc:
        sig = builtin_signature()
        src = parse_source(decls + uses_assoc.split(".\n", 1)[1] + assoc.split(".\n", 1)[1], sig, "lib")
        apply_declarations(src.statements, sig)
        load_library(src)
    assert "assoc" in str(exc.value)


def test_forward_reference_in_lemma_template():
    # the template of `symm2` names `symm`, defined after it
    symm2 = (
        "type symm2 pf -> pf.\n"
        "def_lemma symm2\n"
        "  (Symm2\\ pi T\\ pi A\\ pi B\\ pi P\\\n"
        "    proves (Symm2 P) (eq T A B) <<== proves (symm P) (eq T A B))\n"
        "  (P\\ symm P).\n"
    )
    parse_lib(SYMM_DECL + SYMM_DEF + symm2)
    with pytest.raises(LibraryError) as exc:
        parse_lib(SYMM_DECL + symm2 + SYMM_DEF)
    assert str(exc.value) == "entry 'symm2' references not-yet-defined name(s): symm"


def test_forward_reference_in_lemma_proof_is_loaded():
    # proofs are checked by running them, so `trans`, whose proof names
    # `symm`, loads before it; checking it is what fails
    reg, _ = parse_lib(SYMM_DECL + TRANS_DECL + TRANS_DEF + SYMM_DEF)
    assert [e.name for e in reg.entries] == ["trans", "symm"]
    assert "symm" in const_names(reg.by_name["trans"].proof)


def test_library_file_may_not_contain_goals():
    sig = builtin_signature()
    src = parse_source("proves refl (forall intty X\\ eq intty X X).", sig)
    with pytest.raises(LibraryError):
        load_library(src)


# ---------------------------------------------------------------------------
# Packaging
# ---------------------------------------------------------------------------


def test_package_without_registry_references_is_identity():
    sig, ses, reg = load_full_library()
    goal = load_corpus_goal("symm_basic.hol", builtin_signature())
    proof, formula = atom_args(goal)
    assert package(formula, proof, reg) is proof


def test_package_reproduces_in_proof_display():
    sig, ses, reg = load_full_library()
    goal = load_corpus_goal("symm_via_lib.hol", sig)
    proof, formula = atom_args(goal)
    packaged = package(formula, proof, reg)
    display = load_corpus_goal("symm_implicit.hol", builtin_signature())
    assert alpha_beta_eq(packaged, atom_args(display)[0])


def test_packaged_output_is_registry_closed():
    sig, ses, reg = load_full_library()
    goal = load_corpus_goal("assoc_via_lib.hol", sig)
    proof, formula = atom_args(goal_atom(goal))
    packaged = package(formula, proof, reg)
    assert not (const_names(packaged) & reg.by_name.keys())
    assert [e.name for e in dependencies(proof, reg)] == [
        "symm",
        "trans",
        "def_i",
        "def_e",
        "assoc",
        "assoc_inst",
    ]


def test_packaged_proof_checks_in_empty_registry():
    sig, ses, reg = load_full_library()
    goal = load_corpus_goal("assoc_via_lib.hol", sig)
    proof, formula = atom_args(goal_atom(goal))
    packaged = package(formula, proof, reg)
    from holcheck.terms import IMP, PROVES, TM as _TM, app, pi

    # goal: pi f\ pi t\ (clause ==>> proves proof formula)
    clause = goal.args[0].body.args[0].body.args[0]
    rebuilt = app(IMP, clause, app(PROVES, packaged, formula))
    rebuilt = pi(TP, rebuilt, hint="t")
    rebuilt = pi(arrow(_TM, _TM, _TM), rebuilt, hint="f")
    fresh = Session(builtin_signature())
    report = fresh.check_goal(rebuilt)
    assert report.ok


def test_in_registry_and_packaged_verdicts_agree():
    sig, ses, reg = load_full_library()
    for name in ("symm_via_lib.hol", "assoc_via_lib.hol"):
        goal = load_corpus_goal(name, sig)
        in_reg = ses.check_goal(goal)
        assert in_reg.ok


def test_package_rejects_unchecked_registry():
    reg, sig = parse_lib((CORPUS / "lib_basic.hol").read_text())
    goal = load_corpus_goal("symm_via_lib.hol", sig)
    proof, formula = atom_args(goal)
    with pytest.raises(LibraryError):
        package(formula, proof, reg)


def test_package_rejects_registry_names_in_formula():
    sig, ses, reg = load_full_library()
    from holcheck.syntax import parse_goal

    g = parse_goal(
        r"pi f\ pi t\ (proves def (eq form (assoc f t) (assoc f t)))", sig
    )
    proof, formula = atom_args(goal_atom(g))
    with pytest.raises(LibraryError):
        package(formula, proof, reg)


def test_lemma_that_never_mentions_its_name_is_dead_weight():
    # legal but useless: the clause does not involve the new name, so the
    # lemma can be stored and checked yet never be applied
    reg, sig = parse_lib(
        "type dead pf.\n"
        "def_lemma dead\n"
        "  (Dead\\ pi T\\ pi X\\ (proves refl (eq T X X)))\n"
        "  refl.\n"
    )
    ses = Session(sig)
    results = check_library(reg, ses)
    assert all(r.ok for _, r in results)
    from holcheck.syntax import parse_goal

    use = parse_goal(r"pi C\ (hastype C intty ==>> proves dead (eq intty C C))", sig)
    assert not ses.check_goal(use).ok
