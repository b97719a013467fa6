"""The trusted core: rules, matching, backchaining, lemma/definition nodes."""

import pytest

from conftest import CORPUS, THEOREM_FILES, EXTRA_THEOREM_FILES, load_corpus_goal

from holcheck import cli

from holcheck.errors import PatternError, StructuralError, ValidityError
from holcheck.kernel import Session, augment_goal, def_to_eqclause, valid_clause
from holcheck.signature import builtin_signature
from holcheck.syntax import parse_goal, parse_term
from holcheck.terms import (
    App,
    Arrow,
    Atom,
    Const,
    Meta,
    MetaCell,
    PF,
    TM,
    TP,
    alpha_beta_eq,
    arrow,
    normalize,
    normalize_goal,
    walk,
)
from negatives import CASES


def check(text, sig=None, augment=True, budget=None):
    sig = sig if sig is not None else builtin_signature()
    ses = Session(sig, budget) if budget else Session(sig)
    return ses.check_goal(parse_goal(text, sig), augment=augment)


# ---------------------------------------------------------------------------
# Built-in rules
# ---------------------------------------------------------------------------


def test_refl_under_universal():
    r = check(r"pi X\ (hastype X intty ==>> proves refl (eq intty X X))")
    assert r.ok


def test_refl_requires_identical_sides():
    r = check(
        r"pi C\ pi D\ (hastype C intty ==>> (hastype D intty ==>>"
        r" proves refl (eq intty C D)))"
    )
    assert not r.ok and r.error is None  # plain failure, not an error


def test_assumption_discharge_round_trip():
    # the implication-introduction body adds an assumption that the bound
    # proof variable then satisfies
    r = check(r"pi A\ (hastype A form ==>> proves (imp_i q\ q) (A imp A))")
    assert r.ok


def test_identity_function_typing():
    r = check(r"hastype (lam x\ x) (intty arrow intty)")
    assert r.ok


def test_object_level_beta_rule():
    r = check(
        r"pi C\ (hastype C intty ==>> proves beta (eq intty (app intty (lam x\ x) C) C))"
    )
    assert r.ok


def test_pair_projection_rules():
    assert check(
        r"pi X\ pi Y\ (hastype X intty ==>> (hastype Y form ==>>"
        r" proves fstpair (eq intty (fst form (mkpair X Y)) X)))"
    ).ok
    assert check(
        r"pi X\ pi Y\ (hastype X intty ==>> (hastype Y form ==>>"
        r" proves sndpair (eq form (snd intty (mkpair X Y)) Y)))"
    ).ok


def test_surjective_pairing_instance():
    r = check(
        r"pi Z\ (hastype Z (pair intty form) ==>>"
        r" proves surjpair (eq (pair intty form) (mkpair (fst form Z) (snd intty Z)) Z))"
    )
    assert r.ok


def test_forall_elim_rule():
    r = check(
        r"pi P\ (assump (proves P (forall intty (x\ eq intty x x))) ==>>"
        r" pi C\ (hastype C intty ==>>"
        r" proves (forall_e intty (x\ eq intty x x) P C) (eq intty C C)))"
    )
    assert r.ok


def test_no_store_fallthrough_for_builtin_heads():
    # even with a clause that states the goal verbatim, a proof headed by a
    # built-in constructor is checked only by its own rule
    r = check(
        r"pi C\ pi D\ (hastype C intty ==>> (hastype D intty ==>>"
        r" (proves refl (eq intty C D) ==>> proves refl (eq intty C D))))"
    )
    assert not r.ok and r.error is None


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def test_match_first_order_decomposition(session, sig):
    for n in ("i", "j"):
        sig.declare(n, TM)
    t_cell = MetaCell(TP, 0)
    a_cell = MetaCell(TM, 0)
    b_cell = MetaCell(TM, 0)
    eq = parse_term("eq", sig)
    pattern = App(App(App(eq, Meta(t_cell)), Meta(a_cell)), Meta(b_cell))
    target = normalize(parse_term("eq intty i j", sig))
    assert session.match(normalize(pattern), target)
    assert t_cell.value == parse_term("intty", sig)
    assert alpha_beta_eq(a_cell.value, parse_term("i", sig))
    assert alpha_beta_eq(b_cell.value, parse_term("j", sig))


def test_match_pattern_applied_to_eigenvariable(session, sig):
    x = session.fresh_eigen(TM, "x")
    h = MetaCell(Arrow(TM, TM), birth=session.counter + 10)
    session.counter += 10
    pattern = App(Meta(h), x)
    eq = parse_term("eq", sig)
    target = normalize(App(App(App(eq, Const("intty", TP)), x), x))
    assert session.match(normalize(pattern), target)
    expected = parse_term(r"z\ eq intty z z", sig)
    assert alpha_beta_eq(h.value, expected)
    # the matcher applied to the argument reproduces the target
    assert alpha_beta_eq(App(Meta(h), x), target)


def test_match_flex_on_plain_constant_is_pattern_error(session, sig):
    sig.declare("c", TM)
    f = MetaCell(Arrow(TM, TM), 0)
    pattern = App(Meta(f), parse_term("c", sig))
    target = normalize(parse_term("c", sig))
    with pytest.raises(PatternError):
        session.match(normalize(pattern), target)


def test_match_scope_violation_fails_without_error(session, sig):
    b = session.fresh_meta(TM)  # born now
    young = session.fresh_eigen(TM, "y")  # born later than b
    assert not session.match(Meta(b.cell), young)
    assert b.cell.value is None


def test_match_repeated_argument_is_pattern_error(session):
    x = session.fresh_eigen(TM, "x")
    h = MetaCell(Arrow(TM, Arrow(TM, TM)), birth=session.counter)
    pattern = App(App(Meta(h), x), x)
    with pytest.raises(PatternError):
        session.match(normalize(pattern), x)


# ---------------------------------------------------------------------------
# Backchaining against stored clauses
# ---------------------------------------------------------------------------

SYMM_CLAUSE_GOAL = (
    r"pi S\ ("
    r"  (pi T\ pi A\ pi B\ pi P\ "
    r"    (proves (S T A B P) (eq T A B) <<=="
    r"      (hastype A T, hastype B T, proves P (eq T B A))))"
    r"  ==>> pi I\ pi J\ pi Q\ "
    r"    (hastype I intty ==>> (hastype J intty ==>>"
    r"     (assump (proves Q (eq intty I J)) ==>>"
    r"      proves (S intty J I Q) (eq intty J I)))))"
)


def test_backchain_solves_symm_subgoals():
    assert check(SYMM_CLAUSE_GOAL).ok


def test_backchain_fails_without_needed_fact():
    broken = SYMM_CLAUSE_GOAL.replace("hastype J intty ==>>", "hastype J form ==>>")
    r = check(broken)
    assert not r.ok and r.error is None


def test_backchain_mismatched_head_fails_finitely():
    # a stored typing clause is never tried for a proof obligation
    clause = r"(pi X\ (hastype (mkpair X X) (pair intty intty) <<== hastype X intty))"
    r = check(
        clause + r" ==>> pi P\ (assump (proves P false) ==>> proves P false)"
    )
    assert r.ok  # found via the assumption, not the clause
    r2 = check(clause + r" ==>> pi P\ (proves P false)")
    assert not r2.ok and r2.error is None


# ---------------------------------------------------------------------------
# valid_clause and clause store hygiene
# ---------------------------------------------------------------------------


def test_valid_clause_accepts_rule_shaped_goals(sig):
    g = parse_goal(
        r"pi T\ pi A\ pi B\ pi P\ "
        r"(proves (congr T B A (eq T A) P refl) (eq T A B) <<== (hastype A T, hastype B T))",
        sig,
    )
    assert valid_clause(g)


def test_valid_clause_rejects_foreign_predicates():
    from holcheck.terms import O

    sig = builtin_signature()
    sig.declare("noisy", Arrow(TM, O))
    g = parse_goal(r"pi X\ (hastype X form, noisy X)", sig)
    assert not valid_clause(g)


def test_valid_clause_rejects_assumption_around_typing(sig):
    g = parse_goal(r"pi X\ pi T\ (assump (hastype X T))", sig)
    assert not valid_clause(g)


def _assert_rejected_not_raised(sig, bad):
    # outside the grammar; as a stored clause it gets no head check and
    # does not match a real assumption
    assert valid_clause(bad) is False
    ses = Session(sig)
    ses.push_clause(bad)
    assumed = Atom("proves", (Const("refl", PF), Const("false", TM)))
    assert ses.check_goal(Atom("assump", (assumed,)), augment=False).failed


def test_assumption_of_a_non_goal_is_rejected_not_raised(sig):
    # an o-typed atom argument is a goal; a hand-built one may not be
    _assert_rejected_not_raised(sig, Atom("assump", (Const("c", TM),)))


@pytest.mark.parametrize(
    "atom",
    [
        Atom("assump", ()),
        Atom("assump", (Atom("proves", ()),)),
        Atom("proves", ()),
        Atom("proves", (Const("refl", PF),)),
        Atom("hastype", (Const("false", TM),)),
    ],
    ids=repr,
)
def test_atom_of_the_wrong_arity_is_rejected_not_raised(sig, atom):
    # a hand-built atom need not respect its predicate's arity
    _assert_rejected_not_raised(sig, atom)


def test_variable_clause_heads_rejected_on_push(sig):
    ses = Session(sig)
    g = parse_goal(r"pi P\ (proves P false <<== proves P false)", sig)
    with pytest.raises(ValidityError):
        ses.push_clause(g)


# ---------------------------------------------------------------------------
# Lemma and definition constructors
# ---------------------------------------------------------------------------


def test_lemma_with_carried_arguments_checks():
    assert Session(builtin_signature()).check_goal(
        load_corpus_goal("symm_lemma.hol")
    ).ok


def test_nested_lemmas_check():
    assert Session(builtin_signature()).check_goal(
        load_corpus_goal("symm_trans.hol")
    ).ok


def test_invalid_lemma_clause_is_a_validity_error(sig):
    from holcheck.terms import O

    sig.declare("noisy", Arrow(TM, O))
    text = r"""proves
      (lemma_pf
        (Symm\ pi T\ pi A\ pi B\ pi P\
          proves (Symm T A B P) (eq T A B) <<==
            (noisy A, hastype B T, proves P (eq T B A)))
        (T\A\B\P\ (congr T B A (eq T A) P refl))
        (symm\ refl))
      (forall intty X\ eq intty X X)"""
    r = Session(sig).check_goal(parse_goal(text, sig))
    assert not r.ok and r.error == "validity"


def test_implicit_argument_lemma_checks():
    assert Session(builtin_signature()).check_goal(
        load_corpus_goal("symm_implicit.hol")
    ).ok


def test_extract_as_identity_wrapper():
    r = check(
        r"pi C\ (hastype C intty ==>>"
        r" proves (extract (eq intty C C) refl) (eq intty C C))"
    )
    assert r.ok


def test_unconstrained_matching_variable_fails():
    # the binder never reaches a matching site, so checking its body blocks
    r = check(
        r"pi C\ (hastype C intty ==>>"
        r" proves (elam b\ (congr intty b b (eq intty b) refl refl)) (eq intty C C))"
    )
    assert not r.ok and r.error is None


def test_elam_restricted_to_types_and_terms():
    r = check(
        r"pi C\ (hastype C intty ==>>"
        r" proves (elam q\ (extract (eq intty C C) q)) (eq intty C C))"
    )
    assert not r.ok and r.error == "validity"


def test_eigenvariable_capture_is_rejected():
    # the matching variable is older than the universal it would capture
    r = check(
        r"proves (elam b\ (forall_i x\ (extract (eq intty x b) refl)))"
        r" (forall intty x\ eq intty x x)"
    )
    assert not r.ok and r.error is None


def test_extract_goal_runs_whitelisted_code():
    r = check(
        r"pi C\ (hastype C intty ==>>"
        r" proves (extractGoal (hastype C intty) refl) (eq intty C C))"
    )
    assert r.ok


def test_extract_goal_validity_gate(sig):
    from holcheck.terms import O

    sig.declare("noisy", Arrow(TM, O))
    r = Session(sig).check_goal(
        parse_goal(
            r"pi C\ (hastype C intty ==>>"
            r" proves (extractGoal (noisy C) refl) (eq intty C C))",
            sig,
        )
    )
    assert not r.ok and r.error == "validity"


def test_definition_node_body_typing_failure():
    # the definition body has the wrong meta-type for its typing template
    text = r"""proves
      (def_pf form
        (And\ pi A\ pi B\
          hastype (And A B) form <<== (hastype A form, hastype B form))
        (A\B\ (eq intty A B))
        (and\ (forall_i c\ (imp_i q\ q))))
      (forall form c\ (c imp c))"""
    sig = builtin_signature()
    r = Session(sig).check_goal(parse_goal(text, sig))
    assert not r.ok and r.error is None


def test_conjunction_definition_checks():
    assert Session(builtin_signature()).check_goal(
        load_corpus_goal("and_def.hol")
    ).ok


# ---------------------------------------------------------------------------
# def_to_eqclause
# ---------------------------------------------------------------------------


def test_eqclause_for_assoc_matches_display(sig):
    sig.declare("assoc", arrow(arrow(TM, TM, TM), TP, TM))
    name = parse_term("assoc", sig)
    body = parse_term(
        r"F\T\ (forall T X\ forall T Y\ forall T Z\ (eq T (F X (F Y Z)) (F (F X Y) Z)))",
        sig,
    )
    clause = def_to_eqclause(parse_term("form", sig), name, body)
    expected = parse_goal(
        r"pi F\ pi T\ (proves def (eq form (assoc F T)"
        r" (forall T X\ forall T Y\ forall T Z\ (eq T (F X (F Y Z)) (F (F X Y) Z)))))",
        sig,
    )
    from holcheck.terms import normalize_goal

    assert clause == normalize_goal(expected)


def test_eqclause_zero_arrows(sig):
    sig.declare("c0", TM)
    sig.declare("d0", TM)
    clause = def_to_eqclause(
        parse_term("intty", sig), parse_term("d0", sig), parse_term("c0", sig)
    )
    assert isinstance(clause, Atom) and clause.pred == "proves"


def test_eqclause_requires_tm_base(sig):
    sig.declare("oddity", TP)
    with pytest.raises(StructuralError):
        def_to_eqclause(
            parse_term("form", sig), parse_term("oddity", sig), parse_term("oddity", sig)
        )


# ---------------------------------------------------------------------------
# Session discipline, budget, determinism
# ---------------------------------------------------------------------------


def test_budget_exhaustion_is_a_resource_error():
    r = check(SYMM_CLAUSE_GOAL, budget=20)
    assert not r.ok and r.error == "budget"


def test_store_and_trail_restored_after_success_and_failure(sig):
    ses = Session(sig)
    ses.push_clause(
        parse_goal(r"pi X\ (hastype (mkpair X X) (pair intty intty) <<== hastype X intty)", sig)
    )
    depth = len(ses.store)
    ok = ses.check_goal(parse_goal(r"hastype false form", sig))
    bad = ses.check_goal(parse_goal(r"hastype false intty", sig))
    assert ok.ok and not bad.ok
    assert len(ses.store) == depth and len(ses.trail) == 0


def test_leaked_clause_is_a_structural_error(sig):
    """The store/trail check survives `python -O`: it raises, not asserts."""

    class LeakySession(Session):
        def tick(self):
            super().tick()
            if self.steps == 1:  # outside every scope that pops the store
                self.store.append(parse_goal("hastype false form", sig))

    with pytest.raises(StructuralError, match="stack discipline"):
        LeakySession(sig).check_goal(parse_goal("hastype false form", sig))


def test_deterministic_replay():
    g = load_corpus_goal("symm_trans.hol")
    r1 = Session(builtin_signature()).check_goal(g)
    r2 = Session(builtin_signature()).check_goal(g)
    assert (r1.ok, r1.stats) == (r2.ok, r2.stats)


def test_sessions_are_independent(sig):
    a, b = Session(sig), Session(sig)
    a.push_clause(parse_goal("hastype false form", sig))
    assert len(b.store) == 0


def test_failure_report_carries_goal_stack():
    r = check(
        r"pi C\ pi D\ (hastype C intty ==>> (hastype D intty ==>>"
        r" proves refl (eq intty C D)))"
    )
    assert not r.ok and r.failure_stack
    assert any("proves refl" in line for line in r.failure_stack)


def test_augment_types_formulas_first(sig):
    g = parse_goal(r"pi P\ (assump (proves P false) ==>> proves P false)", sig)
    g2 = augment_goal(g)
    text = str(g2)
    assert "hastype" in text


@pytest.mark.parametrize("name", THEOREM_FILES + EXTRA_THEOREM_FILES)
def test_corpus_checks_with_stack_discipline(name):
    sig = builtin_signature()
    ses = Session(sig)
    r = ses.check_goal(load_corpus_goal(name, sig))
    assert r.ok, f"{name}: {r.error or 'failure'} {r.message}"
    assert len(ses.store) == 0 and len(ses.trail) == 0


def test_chronological_backtracking_across_store_clauses():
    # the newer clause matches the head but its body fails; the solver
    # must fall back to the older clause
    r = check(
        r"pi w\ pi c\ (hastype c intty ==>>"
        r" ((proves w (eq intty c c) <<== hastype c intty) ==>>"
        r"  ((proves w (eq intty c c) <<== hastype c form) ==>>"
        r"   proves w (eq intty c c))))",
        augment=False,
    )
    assert r.ok


def test_backtracking_undoes_bindings_between_alternatives():
    # both alternatives of the stored conjunction match the head; only the
    # second one's body is provable, and the first try must not leave its
    # bindings behind
    r = check(
        r"pi w\ pi c\ pi d\ (hastype c intty ==>> (hastype d form ==>>"
        r" ((pi X\ (proves w (eq intty X X) <<== hastype X form),"
        r"   pi Y\ (proves w (eq intty Y Y) <<== hastype Y intty)) ==>>"
        r"  proves w (eq intty c c))))",
        augment=False,
    )
    assert r.ok


# ---------------------------------------------------------------------------
# The normal-form invariant
# ---------------------------------------------------------------------------


class NormalFormSession(Session):
    """Asserts that every dispatched atom is already beta-normal eta-long:
    the kernel normalizes goals on entry and atoms only when they hold a
    bound matching variable.  Also asserts that the argument of every
    `assump` atom of a stored clause is an atom."""

    def _dispatch(self, atom):
        assert normalize_goal(atom) == atom, f"atom not normal: {atom!r}"
        return super()._dispatch(atom)

    def push_clause(self, g):
        for node in walk(g):
            if isinstance(node, Atom) and node.pred == "assump":
                assert isinstance(node.args[0], Atom), repr(node)
        super().push_clause(g)


def _check_files(monkeypatch, session_cls, *args):
    monkeypatch.setattr(cli, "Session", session_cls)
    return cli.main(["check", *map(str, args)])


CORPUS_RUNS = [
    (f.name, ("--lib", CORPUS / "lib_full.hol") if "via_lib" in f.name else ())
    for f in sorted(CORPUS.glob("*.hol"))
]


@pytest.mark.parametrize("name,libs", CORPUS_RUNS, ids=[n for n, _ in CORPUS_RUNS])
def test_dispatched_atoms_are_normal_on_corpus(name, libs, monkeypatch, capsys):
    plain = _check_files(monkeypatch, Session, *libs, CORPUS / name)
    plain_out = capsys.readouterr().out
    assert _check_files(monkeypatch, NormalFormSession, *libs, CORPUS / name) == plain
    assert capsys.readouterr().out == plain_out


@pytest.mark.parametrize("name,text,libs,expected", CASES, ids=[c[0] for c in CASES])
def test_dispatched_atoms_are_normal_on_negatives(
    name, text, libs, expected, monkeypatch, tmp_path, capsys
):
    f = tmp_path / "case.hol"
    f.write_text(text)
    lib_args = [a for lib in libs for a in ("--lib", CORPUS / lib)]
    assert _check_files(monkeypatch, NormalFormSession, *lib_args, f) == expected
