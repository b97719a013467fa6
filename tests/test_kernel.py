"""The trusted core: rules, matching, backchaining, lemma/definition nodes."""

import ast
import itertools
import random
import sys

import pytest

import props
from conftest import CORPUS, ROOT, THEOREM_FILES, EXTRA_THEOREM_FILES, load_corpus_goal
from props import goal_spine, plain_spine

from holcheck import cli, kernel, syntax
from holcheck.cli import TracingSession

from holcheck.errors import PatternError, StructuralError, ValidityError
from holcheck.kernel import (
    CheckReport,
    Session,
    Stats,
    augment_goal,
    def_to_eqclause,
    valid_clause,
)
from holcheck.library import walk
from holcheck.signature import builtin_signature
from holcheck.syntax import format_goal, parse_goal, parse_source, parse_term
from holcheck.terms import (
    AND,
    ASSUMP,
    HASTYPE,
    IMP,
    PROVES,
    App,
    Arrow,
    Bound,
    Const,
    Lam,
    Meta,
    META_FREE,
    MetaCell,
    O,
    PF,
    TM,
    TP,
    alpha_beta_eq,
    app,
    arrow,
    has_unbound_meta,
    normalize,
    normalize_goal,
    pi,
    subst_goal,
)
from negatives import CASES
from test_cli import _chain_text


def check(text, sig=None, augment=True, budget=None):
    sig = sig if sig is not None else builtin_signature()
    ses = Session(sig, budget) if budget else Session(sig)
    return ses.check_goal(parse_goal(text, sig), augment=augment)


# ---------------------------------------------------------------------------
# Built-in rules
# ---------------------------------------------------------------------------


# The built-in rules in lambda-Prolog.  The kernel builds them from
# constructors; this text is their reference.
_RULES_SRC = r"""
% typing
pi T\ pi X\ pi Y\ (hastype (eq T X Y) form <<== (hastype X T, hastype Y T)).
pi A\ pi B\ (hastype (A imp B) form <<== (hastype A form, hastype B form)).
pi T\ pi A\ (hastype (forall T A) form <<== pi X\ (hastype X T ==>> hastype (A X) form)).
hastype false form.
pi T1\ pi T2\ pi F\
  (hastype (lam F) (T1 arrow T2) <<== pi X\ (hastype X T1 ==>> hastype (F X) T2)).
pi T1\ pi T2\ pi F\ pi X\
  (hastype (app T1 F X) T2 <<== (hastype F (T1 arrow T2), hastype X T1)).
pi T1\ pi T2\ pi X\ pi Y\
  (hastype (mkpair X Y) (pair T1 T2) <<== (hastype X T1, hastype Y T2)).
pi T1\ pi T2\ pi X\ (hastype (fst T2 X) T1 <<== hastype X (pair T1 T2)).
pi T1\ pi T2\ pi X\ (hastype (snd T1 X) T2 <<== hastype X (pair T1 T2)).

% proof checking
pi T\ pi X\ (proves refl (eq T X X)).
pi T1\ pi T2\ pi F\ pi X\ (proves beta (eq T2 (app T1 (lam F) X) (F X))).
pi T1\ pi T2\ pi X\ pi Y\ (proves fstpair (eq T1 (fst T2 (mkpair X Y)) X)).
pi T1\ pi T2\ pi X\ pi Y\ (proves sndpair (eq T2 (snd T1 (mkpair X Y)) Y)).
pi T1\ pi T2\ pi Z\ (proves surjpair (eq (pair T1 T2) (mkpair (fst T2 Z) (snd T1 Z)) Z)).
pi T\ pi X\ pi Z\ pi H\ pi P1\ pi P2\
  (proves (congr T X Z H P1 P2) (H X) <<==
     (hastype X T, hastype Z T, proves P1 (eq T X Z), proves P2 (H Z))).
pi A\ pi B\ pi Q\
  (proves (imp_i Q) (A imp B) <<== pi P\ (assump (proves P A) ==>> proves (Q P) B)).
pi A\ pi B\ pi Q1\ pi Q2\
  (proves (imp_e A Q1 Q2) B <<== (hastype A form, proves Q1 (A imp B), proves Q2 A)).
pi T\ pi A\ pi Q\
  (proves (forall_i Q) (forall T A) <<== pi Y\ (hastype Y T ==>> proves (Q Y) (A Y))).
pi T\ pi A\ pi Q\ pi X\
  (proves (forall_e T A Q X) (A X) <<==
     (pi Y\ (hastype Y T ==>> hastype (A Y) form), hastype X T, proves Q (forall T A))).
"""


def _same(a, b):
    """`a == b`, and each binder hint equal too (`==` ignores hints)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Lam):
        return a.hint == b.hint and a.mt == b.mt and _same(a.body, b.body)
    if isinstance(a, App):
        same_args = len(a.args) == len(b.args) and all(map(_same, a.args, b.args))
        return same_args and _same(a.head, b.head)
    return a == b


def test_the_built_in_rules_are_the_parse_of_their_lambda_prolog_text():
    tables = {"proves": kernel.PROVES_RULES, "hastype": kernel.HASTYPE_RULES}
    statements = parse_source(_RULES_SRC, builtin_signature()).statements
    assert len(statements) == sum(map(len, tables.values())) == 19
    for st in statements:
        clause = normalize_goal(st.goal)
        keys = []
        kernel._index_clause(clause, keys)
        ((pred, name, _),) = keys
        assert _same(tables[pred][name], clause), name


TRUSTED_CORE = ("kernel", "terms", "signature", "errors")


@pytest.mark.parametrize("module", TRUSTED_CORE)
def test_the_trusted_core_imports_only_itself_and_the_standard_library(module):
    """The verdict rests on four modules: no parser, printer or inference."""
    tree = ast.parse((ROOT / "src" / "holcheck" / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [a.name for a in node.names]
            assert set(names) <= set(TRUSTED_CORE), (module, names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            assert {n.split(".")[0] for n in names} <= sys.stdlib_module_names, (module, names)
    if module == "kernel":  # nor does it read a signature
        assert not any(isinstance(n, ast.Attribute) and n.attr == "sig" for n in ast.walk(tree))


def test_check_goal_prints_nothing(sig, monkeypatch):
    """The kernel returns terms: with the printer broken, a failure with a
    goal stack and an extractGoal validity error still come back as reports."""
    sig.declare("noisy", Arrow(TM, O))
    failing, invalid = (
        parse_goal(rf"pi C\ pi D\ (hastype C intty ==>> (hastype D intty ==>> {proof}))", sig)
        for proof in (
            "proves refl (eq intty C D)",
            "proves (extractGoal (noisy C) refl) (eq intty C C)",
        )
    )

    def no_printing(*args):
        raise AssertionError("the kernel printed a term")

    monkeypatch.setattr(syntax, "_fmt", no_printing)
    ses = TracingSession(sig)
    r = ses.check_goal(failing)
    assert r.failed and ses.deepest
    r = Session(sig).check_goal(invalid)
    assert (r.error, r.message) == ("validity", "extractGoal argument outside the allowed grammar")
    assert r.goal is not None


def test_refl_under_universal():
    r = check(r"pi X\ (hastype X intty ==>> proves refl (eq intty X X))")
    assert r.ok


def test_refl_requires_identical_sides():
    r = check(
        r"pi C\ pi D\ (hastype C intty ==>> (hastype D intty ==>>"
        r" proves refl (eq intty C D)))"
    )
    assert not r.ok and r.error is None  # plain failure, not an error


def test_a_clause_pushed_by_an_implication_is_out_of_scope_after_its_goal():
    sig = builtin_signature()
    sig.declare("ax", PF)
    assert check("proves ax false", sig).failed
    r = check("(proves ax false ==>> proves ax false), proves ax false", sig)
    assert r.failed  # the second conjunct has no clause to use


# The lemma clause `l_3` (two `pi` binders) and the hypothesis `Y_5` of its
# proof are out of scope when the second conjunct searches the store at step 17.
OUT_OF_SCOPE_LEMMA = r"""pi c\ pi q\ (hastype c intty ==>>
  (proves (lemma_pf (l\ pi X\ pi Y\ (proves (l X Y) (eq intty X X) <<== hastype Y intty))
                    (x\ y\ refl) (l\ refl)) (eq intty c c),
   proves q (eq intty c c)))"""


@pytest.mark.parametrize("budget,counter", [(18, 10), (19, 11), (None, 13)])
def test_the_budget_runs_out_inside_the_charge_of_an_out_of_scope_lemma_clause(
    budget, counter, sig
):
    """An out-of-scope clause is charged as a miss: the budget runs out at
    the step, with the matching variables born, where backchaining it on an
    atom that no head matches would run out.  The numbers are those of a
    store that keeps the clause in scope, whose keys cannot match."""
    ses = Session(sig, budget) if budget else Session(sig)
    r = ses.check_goal(parse_goal(OUT_OF_SCOPE_LEMMA, sig), augment=False)
    if budget:
        assert (r.error, r.message) == ("budget", f"step budget exhausted after {budget} steps")
    else:
        assert r.failed and r.stats.steps == 29
    assert ses.counter == counter


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
    pattern = app(app(app(eq, Meta(t_cell)), Meta(a_cell)), Meta(b_cell))
    target = normalize(parse_term("eq intty i j", sig))
    assert session.match(normalize(pattern), target)
    assert t_cell.value == parse_term("intty", sig)
    assert alpha_beta_eq(a_cell.value, parse_term("i", sig))
    assert alpha_beta_eq(b_cell.value, parse_term("j", sig))


def test_match_pattern_applied_to_eigenvariable(session, sig):
    x = session.fresh_eigen(TM, "x")
    h = MetaCell(Arrow(TM, TM), birth=session.counter + 10)
    session.counter += 10
    pattern = app(Meta(h), x)
    eq = parse_term("eq", sig)
    target = normalize(app(app(app(eq, Const("intty", TP)), x), x))
    assert session.match(normalize(pattern), target)
    expected = parse_term(r"z\ eq intty z z", sig)
    assert alpha_beta_eq(h.value, expected)
    # the matcher applied to the argument reproduces the target
    assert alpha_beta_eq(app(Meta(h), x), target)


def test_match_flex_on_plain_constant_is_pattern_error(session, sig):
    sig.declare("c", TM)
    f = MetaCell(Arrow(TM, TM), 0)
    pattern = app(Meta(f), parse_term("c", sig))
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
    pattern = app(app(Meta(h), x), x)
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
    assumed = app(PROVES, Const("refl", PF), Const("false", TM))
    assert ses.check_goal(app(ASSUMP, assumed), augment=False).failed


def test_assumption_of_a_non_goal_is_rejected_not_raised(sig):
    # an o-typed atom argument is a goal; a hand-built one may not be
    _assert_rejected_not_raised(sig, app(ASSUMP, Const("c", TM)))


WRONG_ARITY = {
    "(assump)": ASSUMP,
    "(assump (proves))": app(ASSUMP, PROVES),
    "(proves)": PROVES,
    "(proves refl)": app(PROVES, Const("refl", PF)),
    "(hastype false)": app(HASTYPE, Const("false", TM)),
}


@pytest.mark.parametrize("atom", WRONG_ARITY.values(), ids=WRONG_ARITY.keys())
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
    assert cli.report_message(r, sig) == "extractGoal argument outside the allowed grammar: noisy C_1"


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
    assert goal_spine(clause)[0] == "proves"


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


def test_failure_report_carries_goal_stack(sig):
    # the recorder the CLI builds for `--trace trace` keeps the stack
    ses = TracingSession(sig)
    r = ses.check_goal(
        parse_goal(
            r"pi C\ pi D\ (hastype C intty ==>> (hastype D intty ==>>"
            r" proves refl (eq intty C D)))",
            sig,
        )
    )
    assert r.failed and ses.deepest
    assert any("proves refl" in format_goal(g, sig) for g in ses.deepest)


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
    """Asserts that every dispatched atom and every stored clause is
    already beta-normal eta-long: the kernel normalizes goals on entry,
    clauses from outside it when pushed, and atoms and its own clauses
    only by instantiating their bound matching variables.  Also asserts
    that the argument of every `assump` atom of a stored clause is an
    atom."""

    def _dispatch(self, atom):
        assert normalize_goal(atom) == atom, f"atom not normal: {atom!r}"
        return super()._dispatch(atom)

    def _push(self, g):
        assert normalize_goal(g) == g, f"stored clause not normal: {g!r}"
        for node in walk(g):
            name, args = goal_spine(node)
            if name == "assump":
                assert goal_spine(args[0])[0] not in (None, "pi", ",", "=>"), repr(node)
        super()._push(g)


def _tracing(session_cls):
    """`session_cls` under the recorder that `--trace trace` builds."""
    return type(f"Tracing{session_cls.__name__}", (TracingSession, session_cls), {})


def _check_files(monkeypatch, session_cls, *args):
    """`holcheck check` on `args` with `session_cls` as the CLI's session
    class, under the recorder in trace mode; fails unless the CLI builds it."""
    built = []

    class Built(session_cls):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            built.append(self)

    monkeypatch.setattr(cli, "Session", Built)
    monkeypatch.setattr(cli, "TracingSession", _tracing(Built))
    code = cli.main(["check", *map(str, args)])
    assert built, "the CLI never built the patched session class"
    return code


CORPUS_RUNS = [
    (f.name, ("--lib", CORPUS / "lib_full.hol") if "via_lib" in f.name else ())
    for f in sorted(CORPUS.glob("*.hol"))
]


THEOREM_RUNS = [run for run in CORPUS_RUNS if not run[0].startswith("lib_")]


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


# ---------------------------------------------------------------------------
# Clause selection: the charged skip against a full scan of the store
# ---------------------------------------------------------------------------


class FullScanSession(Session):
    """Backchains every stored clause, whether or not a head can match: the
    reference the charged skip of `Session.solve_store` must agree with."""

    def solve_store(self, atom):
        for clause, *_ in tuple(reversed(self.store)):
            yield from self.backchain(atom, clause)


def _recording(session_cls, log):
    """`session_cls`, appending each report and the counter after it to
    `log`, then the deepest failing stack of a failure under the recorder
    (None in a plain session), all printed over the builtin signature: the
    goals of two sessions hold matching variables of their own.  (The CLI
    prints them over the file's signature, in the output the callers also
    compare.)"""
    sig = builtin_signature()

    class Recording(session_cls):
        def check_goal(self, goal, augment=True):
            r = super().check_goal(goal, augment)
            stack = getattr(self, "deepest", None)
            if stack is not None:
                stack = tuple(format_goal(g, sig) for g in stack) if r.failed else ()
            log.append((r.ok, r.error, cli.report_message(r, sig), r.stats, self.counter, stack))
            return r

    return Recording


def _agree_with_full_scan(monkeypatch, capsys, *args):
    runs = []
    for cls in (Session, FullScanSession):
        log = []
        code = _check_files(monkeypatch, _recording(cls, log), "--trace", "trace", *args)
        runs.append((code, log, capsys.readouterr()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name,libs", CORPUS_RUNS, ids=[n for n, _ in CORPUS_RUNS])
def test_skip_agrees_with_full_scan_on_corpus(name, libs, monkeypatch, capsys):
    _agree_with_full_scan(monkeypatch, capsys, *libs, CORPUS / name)


@pytest.mark.parametrize("name,text,libs,expected", CASES, ids=[c[0] for c in CASES])
def test_skip_agrees_with_full_scan_on_negatives(
    name, text, libs, expected, monkeypatch, tmp_path, capsys
):
    f = tmp_path / "case.hol"
    f.write_text(text)
    lib_args = [a for lib in libs for a in ("--lib", CORPUS / lib)]
    _agree_with_full_scan(monkeypatch, capsys, *lib_args, f)


# Three clauses that cannot match `proves w (eq intty c c)`, the newest with
# three binders, in front of one that does.
SKIPPED_THEN_MATCHED = (
    r"pi w\ pi v\ pi c\ (hastype c intty ==>>"
    r" ((proves w (eq intty c c) <<== hastype c intty) ==>>"
    r"  ((pi A\ pi B\ (hastype (mkpair A B) (pair intty intty) <<== hastype A intty)) ==>>"
    r"   ((pi X\ pi Y\ pi Z\ (proves v (eq intty X Y) <<== hastype Z intty)) ==>>"
    r"    proves w (eq intty c c)))))"
)


def test_budget_that_runs_out_while_charging_skipped_clauses(sig):
    # every budget below the steps needed, so some fall inside a charge
    goal = parse_goal(SKIPPED_THEN_MATCHED, sig)
    total = Session(sig).check_goal(goal, augment=False).stats.steps
    for budget in range(1, total + 1):
        reports = []
        for cls in (Session, FullScanSession):
            ses = cls(sig, budget)
            r = ses.check_goal(goal, augment=False)
            reports.append((r.ok, r.error, r.message, r.stats, ses.counter))
        assert reports[0] == reports[1], budget
        assert reports[0][:2] == ((True, None) if budget == total else (False, "budget"))


# ---------------------------------------------------------------------------
# The `--trace trace` recorder solves an atom as the core does
# ---------------------------------------------------------------------------


def _recorder_agrees_with_the_core(monkeypatch, capsys, *args):
    """`check --trace summary` and `--trace trace` on `args` give one exit
    code, and each check one report and counter; only the second records."""
    runs = []
    for trace in ("summary", "trace"):
        log = []
        code = _check_files(monkeypatch, _recording(Session, log), "--trace", trace, *args)
        assert all((entry[-1] is not None) == (trace == "trace") for entry in log)
        runs.append((code, [entry[:-1] for entry in log]))
    capsys.readouterr()
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name,libs", THEOREM_RUNS, ids=[n for n, _ in THEOREM_RUNS])
def test_the_recorder_gives_the_core_s_reports_on_corpus(name, libs, monkeypatch, capsys):
    _recorder_agrees_with_the_core(monkeypatch, capsys, *libs, CORPUS / name)


@pytest.mark.parametrize("name,text,libs,expected", CASES, ids=[c[0] for c in CASES])
def test_the_recorder_gives_the_core_s_reports_on_negatives(
    name, text, libs, expected, monkeypatch, tmp_path, capsys
):
    f = tmp_path / "case.hol"
    f.write_text(text)
    lib_args = [a for lib in libs for a in ("--lib", CORPUS / lib)]
    _recorder_agrees_with_the_core(monkeypatch, capsys, *lib_args, f)


def _core_and_recorder(sig, goal, budget=kernel.DEFAULT_BUDGET, augment=True):
    """The report of `goal` and the counter after it, in a `Session` and in
    the recorder."""
    outcomes = []
    for cls in (Session, TracingSession):
        ses = cls(sig, budget)
        outcomes.append((ses.check_goal(goal, augment), ses.counter))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


@pytest.mark.parametrize("n", range(10, 61, 10))
def test_the_recorder_gives_the_core_s_reports_on_chains(n):
    # each a bench/chain.py statement with a deep clause store; every tenth
    # length, as all 51 from 10 to 60 take half a minute
    for reject, ok in ((None, True), ("left" if n % 20 else "right", False)):
        (st,) = parse_source(_chain_text(n, reject), builtin_signature(), "chain").statements
        assert _core_and_recorder(builtin_signature(), st.goal)[0].ok == ok


def test_the_recorder_gives_the_core_s_reports_at_every_budget(sig):
    goal = parse_goal(SKIPPED_THEN_MATCHED, sig)
    total = Session(sig).check_goal(goal, augment=False).stats.steps
    for budget in range(1, total + 1):
        report, _ = _core_and_recorder(sig, goal, budget, augment=False)
        assert report.ok == (budget == total), budget


class BackchainLog(Session):
    """Records the store positions of the clauses `solve_store` backchains."""

    def __init__(self, *args):
        super().__init__(*args)
        self.tried = []

    def backchain(self, atom, clause, vs=()):
        self.tried += [i for i, entry in enumerate(self.store) if entry[0] is clause]
        return super().backchain(atom, clause, vs)


def _backchained(sig, clauses, goal):
    """(verdict, store positions backchained) of `goal` with `clauses`
    stored; a full scan must give the same report and counter."""
    outcomes = []
    for cls in (BackchainLog, FullScanSession):
        ses = _tracing(cls)(sig)
        for c in clauses:
            ses.push_clause(c)
        r = ses.check_goal(goal, augment=False)
        outcomes.append((r.ok, r.error, r.stats, ses.deepest if r.failed else (), ses.counter))
        if cls is BackchainLog:
            tried = ses.tried
    assert outcomes[0] == outcomes[1]
    return outcomes[0][0], tried


def test_assumption_and_proof_clause_with_one_subject_are_told_apart(sig):
    p = Const("p", PF, birth=1)
    fact = app(PROVES, p, Const("false", TM))
    other = app(PROVES, p, parse_term("eq intty false false", sig))
    clauses = [app(ASSUMP, other), fact]
    # an assumption goal backchains only the assumption clause
    assert _backchained(sig, clauses, app(ASSUMP, fact)) == (False, [0])
    # a proof goal tries assumptions, then proof clauses; each pass
    # backchains only the clause of its own predicate
    assert _backchained(sig, clauses, fact) == (True, [0, 1])


def test_a_definition_clause_out_of_scope_is_charged_not_tried(sig):
    # the definition node stores `hastype d_2 intty` and the equality clause
    # `proves def (eq intty d_2 c_1)` at positions 1 and 2; once its formula
    # is proved they are out of scope, so the second conjunct's store search
    # does not backchain the equality clause, though its head key matches
    goal = parse_goal(
        r"pi c\ (hastype c intty ==>>"
        r" (proves (def_pf intty (d\ hastype d intty) c (d\ refl)) (eq intty c c),"
        r"  proves def (eq intty c c)))",
        sig,
    )
    assert _backchained(sig, [], goal) == (False, [0])


def test_conjunction_clause_with_one_matching_head_is_backchained(sig):
    c, d = Const("c", TM, birth=1), Const("d", TM, birth=2)
    intty, form = Const("intty", TP), Const("form", TP)
    refl = app(PROVES, Const("refl", PF), Const("false", TM))
    stored = [app(AND, refl, app(HASTYPE, c, intty))]
    assert _backchained(sig, stored, app(HASTYPE, c, intty)) == (True, [0])
    assert _backchained(sig, stored, app(HASTYPE, c, form)) == (False, [0])
    # no head has subject d
    assert _backchained(sig, stored, app(HASTYPE, d, intty)) == (False, [])


class ClauseLog(Session):
    """Records the stored clauses at each `solve_store` and the goals
    `solve` gets."""

    def __init__(self, *args):
        super().__init__(*args)
        self.stored, self.goals = [], []

    def solve_store(self, atom):
        self.stored += [entry[0] for entry in self.store]
        return super().solve_store(atom)

    def solve(self, g, vs=()):
        self.goals.append(g)
        return super().solve(g, vs)


@pytest.mark.parametrize("subject,matches", [("d", True), ("false", False)])
def test_a_clause_body_is_built_only_after_its_head_matches(subject, matches, sig, monkeypatch):
    sig.declare("w", PF)
    sig.declare("d", TM)
    ses = ClauseLog(sig)
    ses.push_clause(parse_goal(r"pi X\ (proves w (eq intty X X) <<== hastype X form)", sig))
    built = []
    real = kernel._hsubst
    monkeypatch.setattr(kernel, "_hsubst", lambda t, *rest: built.append(t) or real(t, *rest))
    goal = parse_goal(f"proves w (eq intty {subject} d)", sig)
    assert not ses.check_goal(goal, augment=False).ok  # `hastype d form` fails
    assert set(ses.stored) == {ses.store[0][0]}
    body = goal_spine(goal_spine(ses.store[0][0])[1][0].body)[1][0]
    assert any(g is body for g in ses.goals) == matches
    assert any(n is body for t in built for n in walk(t)) == matches


def _scans_refuse(value, cell):
    """What `bind` refused with two scans: a value that holds an unbound
    matching variable or an eigenvariable born after the cell."""
    births = [n.birth for n in walk(value) if isinstance(n, Const)]
    return has_unbound_meta(value) or max(births, default=0) > cell.birth


def test_bind_refuses_what_the_two_scans_refused(sig):
    rng = random.Random(0)
    env = (TM, Arrow(TM, TM))  # innermost first
    outcomes = set()
    for _ in range(500):
        values = []
        for mt in reversed(env):
            birth = rng.randrange(1, 6)
            eigen = Const("e", mt, birth=birth)
            kind = rng.randrange(3)
            if kind == 0:
                values.append(eigen)
                continue
            cell = MetaCell(mt, birth)
            if kind == 1:
                cell.value = eigen if mt == TM else Lam(TM, app(eigen, Bound(0)))
            values.append(Meta(cell))
        value = subst_goal(props.gen_term(rng, TM, env, 3), *values)
        cell = MetaCell(TM, rng.randrange(6))
        ses = Session(sig)
        refused = _scans_refuse(value, cell)
        assert ses.bind(cell, value) == (not refused)
        assert ses.trail == ([] if refused else [cell])
        assert cell.value is (None if refused else value)
        outcomes.add((refused, has_unbound_meta(value)))
    assert outcomes == {(False, False), (True, False), (True, True)}


def test_pi_binder_types_count_in_matching(sig):
    # the stored assumption and the goal differ only in the binder type of
    # a `pi` inside an o-typed argument of their subject
    def assumption(mt):
        inner = pi(mt, app(HASTYPE, Const("false", TM), Const("form", TP)))
        subject = app(Const("extractGoal", arrow(O, PF, PF)), inner, Const("refl", PF))
        return app(ASSUMP, app(PROVES, subject, Const("false", TM)))

    assert _backchained(sig, [assumption(TM)], assumption(TP)) == (False, [0])
    assert _backchained(sig, [assumption(TM)], assumption(TM)) == (True, [0])


# ---------------------------------------------------------------------------
# A clause head matched as a closure, against the head built first
# ---------------------------------------------------------------------------


def _heads(ses, clause, vs=()):
    """The heads of a clause, each with its `vs`, fresh matching variables
    made as `backchain` makes them."""
    name, args = goal_spine(clause)
    while name == "pi":
        vs += (ses.fresh_meta(args[0].mt),)
        clause = args[0].body
        name, args = goal_spine(clause)
    if name == ",":
        return _heads(ses, args[0], vs) + _heads(ses, args[1], vs)
    if name == "=>":
        return _heads(ses, args[1], vs)
    return [(clause, vs)]


def _attempt(ses, match):
    """What one match gives, a verdict or an exception's type, and the
    bindings it leaves on the trail, which are then undone."""
    m = ses.mark()
    try:
        result = match()
    except Exception as e:
        result = type(e)
    bound = [(cell, cell.value) for cell in ses.trail[m:]]
    ses.undo(m)
    return result, bound


def _agree_on(ses, head, atom, vs):
    """Assert that the head as a closure over `vs` and the head built give
    one outcome; return it."""
    closure = _attempt(ses, lambda: ses.match(head, atom, vs))
    built = _attempt(ses, lambda: ses.match(kernel._hsubst(head, 0, vs), atom))
    assert closure == built, (head, atom)
    return closure[0]


class CheckLog(Session):
    """Records the atoms it dispatches and the clauses it stores, each
    once, in every session made."""

    made = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.atoms, self.clauses = {}, {}
        CheckLog.made.append(self)

    def _dispatch(self, atom):
        self.atoms.setdefault(atom, atom)
        return super()._dispatch(atom)

    def _push(self, g):
        self.clauses.setdefault(g, g)
        super()._push(g)


@pytest.mark.parametrize("name,libs", THEOREM_RUNS, ids=[n for n, _ in THEOREM_RUNS])
def test_a_head_matched_as_a_closure_agrees_with_the_built_head(name, libs, monkeypatch, capsys):
    # every built-in rule and stored clause against every atom of a check
    CheckLog.made = []
    assert _check_files(monkeypatch, CheckLog, *libs, CORPUS / name) == 0
    capsys.readouterr()
    rules = [*kernel.PROVES_RULES.values(), *kernel.HASTYPE_RULES.values()]
    verdicts = set()
    for ses in CheckLog.made:
        for clause in rules + list(ses.clauses):
            for head, vs in _heads(ses, clause):
                for atom in ses.atoms:
                    verdicts.add(_agree_on(ses, head, atom, vs))
    assert {True, False} <= verdicts


class ShadowSession(Session):
    """Matches every head also built first, as the reference, and asserts
    the same outcome, at each state the check reaches."""

    def match_goal(self, head, atom, vs):
        _agree_on(self, head, atom, vs)
        return super().match_goal(head, atom, vs)


@pytest.mark.parametrize("name,libs", CORPUS_RUNS, ids=[n for n, _ in CORPUS_RUNS])
def test_each_head_attempt_of_a_check_agrees_with_the_built_head(name, libs, monkeypatch, capsys):
    plain = _check_files(monkeypatch, Session, "--trace", "trace", *libs, CORPUS / name)
    plain_out = capsys.readouterr()
    assert _check_files(monkeypatch, ShadowSession, "--trace", "trace", *libs, CORPUS / name) == plain
    assert capsys.readouterr() == plain_out


@pytest.mark.parametrize("name,text,libs,expected", CASES, ids=[c[0] for c in CASES])
def test_each_head_attempt_on_a_negative_agrees_with_the_built_head(
    name, text, libs, expected, monkeypatch, tmp_path, capsys
):
    f = tmp_path / "case.hol"
    f.write_text(text)
    lib_args = [a for lib in libs for a in ("--lib", CORPUS / lib)]
    assert _check_files(monkeypatch, ShadowSession, *lib_args, f) == expected


class BareVariableShadow(Session):
    """Replays each match of a bare index that reads an unbound matching
    variable against a closed target, which `match` binds at once, through
    the general path (the pattern built first), and records whether both
    give the same verdict and bind the same value object."""

    replays = []

    def match(self, pattern, target, vs=(), d=0):
        i = pattern.index - d if isinstance(pattern, Bound) else -1
        v = vs[-1 - i] if 0 <= i < len(vs) else None
        if not (isinstance(v, Meta) and v.cell.value is None and target.free == 0):
            return super().match(pattern, target, vs, d)
        built = kernel._hsubst(pattern, d, vs)
        general = _attempt(self, lambda: Session.match(self, built, target, (), d))
        m = self.mark()
        verdict = super().match(pattern, target, vs, d)
        bound = [(cell, cell.value) for cell in self.trail[m:]]
        same = (verdict, bound) == general and all(
            a is b for (_, a), (_, b) in zip(bound, general[1])
        )
        BareVariableShadow.replays.append(same)
        return verdict


def test_a_bare_matching_variable_binds_what_the_general_path_binds(
    monkeypatch, tmp_path, capsys
):
    BareVariableShadow.replays = []
    for name, libs in CORPUS_RUNS:
        plain = _check_files(monkeypatch, Session, *libs, CORPUS / name)
        assert _check_files(monkeypatch, BareVariableShadow, *libs, CORPUS / name) == plain
    for k, (name, text, libs, expected) in enumerate(CASES):
        f = tmp_path / f"case_{k}.hol"
        f.write_text(text)
        lib_args = [a for lib in libs for a in ("--lib", CORPUS / lib)]
        assert _check_files(monkeypatch, BareVariableShadow, *lib_args, f) == expected, name
    capsys.readouterr()
    replays = BareVariableShadow.replays
    assert len(replays) > 100 and all(replays), replays.count(False)


class FreeReadingShadow(Session):
    """At each site where dispatch asks whether a term holds an unbound
    matching variable, records `free`'s answer beside the scan's, as a
    pair per site, over every session made."""

    seen = {}

    def _record(self, site, x):
        FreeReadingShadow.seen.setdefault(site, set()).add(
            (x.free == META_FREE, has_unbound_meta(x))
        )

    def _dispatch(self, atom):
        pred, args = goal_spine(atom)
        if pred == "proves":
            p, a = args
            self._record("formula", a)
            h, hargs = plain_spine(p)
            own = isinstance(h, Const) and (
                (h.name, len(hargs)) in kernel._CONSTRUCTORS or h.name in kernel.PROVES_RULES
            )
            if a.free != META_FREE and not own:
                self._record("proof", p)  # before the store is searched
        elif pred in ("hastype", "assump"):
            self._record("atom", atom)
        return super()._dispatch(atom)

    def check_template_pf(self, *args):
        for x in args[:-1]:
            self._record("template argument", x)
        return super().check_template_pf(*args)


# goals that put an unbound matching variable at each site, with the steps
# and clauses added of their checks: each fails where dispatch meets it
_UNBOUND_AT_SITES = {
    # a stored clause whose body has a variable that is not in its head:
    # at the formula, and in a typing atom
    "formula": (
        r"(pi A\ pi B\ (proves (mylem A) A <<== proves myax B)) ==>> proves (mylem false) false",
        14,
        1,
    ),
    "atom": (
        r"(pi A\ pi T\ (proves (mylem A) A <<== hastype A T)) ==>> proves (mylem false) false",
        14,
        1,
    ),
    # an `elam` variable in a proof left to a store that holds a clause for
    # it, and in a lemma's witness
    "proof": (r"(pi Y\ proves (myax2 Y) false) ==>> proves (elam x\ myax2 x) false", 6, 1),
    "template argument": (
        r"proves (elam x\ lemma_pf (N\ proves N false) (myax2 x) (N\ N)) false",
        5,
        0,
    ),
}


@pytest.fixture
def sig_with_axioms(sig):
    for name, mt in (("mylem", Arrow(TM, PF)), ("myax", PF), ("myax2", Arrow(TM, PF))):
        sig.declare(name, mt)
    return sig


def test_free_tells_an_unbound_matching_variable_where_dispatch_asks(
    sig_with_axioms, monkeypatch, tmp_path, capsys
):
    FreeReadingShadow.seen = {}
    for name, libs in CORPUS_RUNS:
        plain = _check_files(monkeypatch, Session, *libs, CORPUS / name)
        assert _check_files(monkeypatch, FreeReadingShadow, *libs, CORPUS / name) == plain
    for k, (name, text, libs, expected) in enumerate(CASES):
        f = tmp_path / f"case_{k}.hol"
        f.write_text(text)
        lib_args = [a for lib in libs for a in ("--lib", CORPUS / lib)]
        assert _check_files(monkeypatch, FreeReadingShadow, *lib_args, f) == expected, name
    capsys.readouterr()
    # the corpus and the negatives reach every site, never with a variable
    assert all(pairs == {(False, False)} for pairs in FreeReadingShadow.seen.values())
    assert len(FreeReadingShadow.seen) == 4
    for text, _, _ in _UNBOUND_AT_SITES.values():
        r = FreeReadingShadow(sig_with_axioms).check_goal(parse_goal(text, sig_with_axioms))
        assert (r.ok, r.error) == (False, None), text
    for site in ("formula", "proof", "atom", "template argument"):
        assert FreeReadingShadow.seen[site] == {(False, False), (True, True)}, site


def test_an_earlier_mismatch_wins_over_a_later_pattern_error(sig):
    # `F c` is outside the pattern fragment, but the subject `w d` does not
    # match `w e`, and the subject is matched first
    sig.declare("w", Arrow(TM, PF))
    for n in ("c", "d", "e"):
        sig.declare(n, TM)
    ses = Session(sig)
    ses.push_clause(parse_goal(r"pi F\ proves (w d) (F c)", sig))
    ((head, vs),) = _heads(ses, ses.store[0][0])
    assert not ses.match(head, normalize_goal(parse_goal("proves (w e) c", sig)), vs)
    assert ses.trail == []
    with pytest.raises(PatternError):
        ses.match(head, normalize_goal(parse_goal("proves (w d) c", sig)), vs)
    ses.undo(0)
    r = ses.check_goal(parse_goal("proves (w e) c", sig), augment=False)
    assert (r.ok, r.error) == (False, None)


def test_a_head_of_another_spine_length_binds_nothing(session):
    f, a = Const("f", arrow(TM, TM, TM)), Const("a", TM)
    x, y = session.fresh_meta(TM), session.fresh_meta(TM)
    longer, shorter = app(f, Bound(1), Bound(0)), app(f, Bound(1))
    for pattern, target in ((longer, app(f, a)), (shorter, app(f, a, a))):
        # as a closure over (x, y), and built
        assert not session.match(pattern, target, (x, y))
        assert not session.match(subst_goal(pattern, x, y), target)
        assert session.trail == []
        assert x.cell.value is y.cell.value is None


# heads and arguments of the shapes `solve` and `backchain` may meet, goals
# and not: the formers at each arity, over a lambda or not, predicates, an
# eigenvariable named like a former, variables and a lambda
_FORMER_HEADS = (
    Const("pi", Arrow(Arrow(TM, O), O)),
    AND,
    IMP,
    PROVES,
    HASTYPE,
    ASSUMP,
    Const("p", O),
    Const("pi", O, birth=3),
    Bound(0),
    Meta(MetaCell(O, 0)),
    Lam(TM, Bound(0)),
)
_FORMER_ARGS = (
    Lam(TM, app(HASTYPE, Bound(0), Const("form", TP))),
    app(PROVES, Const("refl", PF), Const("false", TM)),
    Bound(0),
)


def test_goal_formers_read_off_the_node_as_goal_spine_reads_them():
    seen = set()
    for head in _FORMER_HEADS:
        for n in range(4):
            for args in itertools.product(_FORMER_ARGS, repeat=n):
                g = app(head, *args)
                name = goal_spine(g)[0]
                expected = name if name in ("pi", ",", "=>") else None
                assert kernel._former(g) == expected, g
                seen.add(expected)
    assert seen == {"pi", ",", "=>", None}


def test_an_index_past_vs_is_the_targets_index_lowered_by_len_vs(session):
    # under one local binder of the pattern, index 0 is local, 1 reads the
    # one matching variable of `vs` and 2 stands for the target's index 1
    g = Const("g", arrow(TM, TM, TM))
    (x,) = vs = (session.fresh_meta(TM),)
    pattern = Lam(TM, app(g, Bound(0), Bound(2)))
    for i, matches in ((1, True), (0, False), (2, False)):
        target = Lam(TM, app(g, Bound(0), Bound(i)))
        assert _agree_on(session, pattern, target, vs) is matches
    # the matching variable binds beside the outer index
    target = Lam(TM, app(g, Const("c", TM), Bound(1)))
    assert _agree_on(session, Lam(TM, app(g, Bound(1), Bound(2))), target, vs)
    assert x.cell.value is None


def test_a_flexible_argument_is_read_with_the_values_bound_before_it(session):
    # `p (x\ F x) (G (x\ F x))`: the first argument binds F to the
    # eigenvariable e, so the argument of G is `x\ e x`, the variable e
    e = session.fresh_eigen(Arrow(TM, TM), "e")
    vs = (session.fresh_meta(Arrow(TM, TM)), session.fresh_meta(Arrow(Arrow(TM, TM), TM)))
    p = Const("p", arrow(Arrow(TM, TM), TM, O))
    fx = Lam(TM, app(Bound(2), Bound(0)), "x")
    atom = app(p, Lam(TM, app(e, Bound(0)), "y"), app(e, Const("c", TM)))
    assert session.match(app(p, fx, app(Bound(0), fx)), atom, vs)
    assert vs[1].cell.value == Lam(Arrow(TM, TM), app(Bound(0), Const("c", TM)))


def test_a_report_failed_only_when_no_error_ended_the_check():
    assert CheckReport(False).failed and not CheckReport(True).failed
    assert not CheckReport(False, "budget").failed
    report = CheckReport(False)
    assert (report.error, report.message, report.goal) == (None, "", None)
    assert report.stats == Stats() == Stats(0, 0, 0)


# ---------------------------------------------------------------------------
# Guards that parsed input never reaches: terms built through the Python
# API, or an unbound matching variable where dispatch asks
# ---------------------------------------------------------------------------

REFL, FALSE = Const("refl", PF), Const("false", TM)


def _proves_node(name, mt, *args):
    """`proves (name args) false`, `name` a builtin constant at meta-type `mt`."""
    return app(PROVES, app(Const(name, mt), *args), FALSE)


MALFORMED_NODES = {
    "template body not a goal": (
        _proves_node(
            "lemma_pf",
            arrow(Arrow(PF, PF), PF, Arrow(PF, PF), PF),
            Lam(PF, REFL),
            REFL,
            Lam(PF, Bound(0)),
        ),
        "template application did not produce a goal",
    ),
    "template not an abstraction": (
        _proves_node("lemma_pf", arrow(PF, PF, Arrow(PF, PF), PF), REFL, REFL, Lam(PF, Bound(0))),
        "lemma or definition node is not eta-long",
    ),
    "scope not an abstraction": (
        _proves_node(
            "lemma_pf",
            arrow(Arrow(PF, O), PF, PF, PF),
            Lam(PF, app(PROVES, Bound(0), FALSE)),
            REFL,
            REFL,
        ),
        "lemma or definition node is not eta-long",
    ),
    "elam not an abstraction": (
        _proves_node("elam", arrow(PF, PF), REFL),
        "elam node is not eta-long",
    ),
    "witness of the wrong meta-type": (
        _proves_node(
            "lemma_pf",
            arrow(Arrow(TM, O), TM, Arrow(TM, PF), PF),
            Lam(TM, app(HASTYPE, Bound(0), Const("form", TP))),
            REFL,
            Lam(TM, REFL),
        ),
        "template application did not produce a goal",
    ),
}


@pytest.mark.parametrize("goal,message", MALFORMED_NODES.values(), ids=MALFORMED_NODES.keys())
def test_a_malformed_lemma_or_elam_node_is_a_structural_error(goal, message):
    r = Session().check_goal(goal, augment=False)
    assert (r.ok, r.error, r.message, r.stats.steps) == (False, "structural", message, 1)


def test_a_template_takes_a_witness_only_of_its_binders_meta_type():
    # `hastype refl form` would put a proof where a term belongs
    with pytest.raises(StructuralError, match="did not produce a goal"):
        kernel._goal_app(Lam(TM, app(HASTYPE, Bound(0), Const("form", TP))), REFL)


@pytest.mark.parametrize(
    "f_mt,body",
    [(TM, lambda f: f), (Arrow(TM, TM), lambda f: app(f, FALSE))],
    ids=["x\\ f", "x\\ f false"],  # too few arguments, and one that is no variable
)
def test_a_matching_variable_applied_to_a_non_eta_expansion_is_a_pattern_error(session, f_mt, body):
    # only `x\ f x` would count as the variable f
    f = session.fresh_eigen(f_mt, "f")
    cell = MetaCell(Arrow(Arrow(TM, TM), TM), birth=session.counter)
    with pytest.raises(PatternError, match="non-variable argument"):
        session.match(app(Meta(cell), Lam(TM, body(f))), FALSE)
    assert cell.value is None


@pytest.mark.parametrize(
    "text,steps,clauses", _UNBOUND_AT_SITES.values(), ids=_UNBOUND_AT_SITES.keys()
)
def test_an_unbound_matching_variable_fails_where_dispatch_asks(
    text, steps, clauses, sig_with_axioms
):
    r = check(text, sig_with_axioms)
    assert (r.ok, r.error, r.stats.steps, r.stats.clauses_added) == (False, None, steps, clauses)


def test_a_definition_body_left_unbound_stores_no_equality_clause(sig):
    # were it stored as `proves def (eq intty D ?1)`, the next goal would
    # bind ?1, so the body of D would be chosen after the fact
    r = check(
        r"proves (elam x\ def_pf intty (N\ hastype false form) x (D\ "
        r"extractGoal (proves def (eq intty D false)) refl)) (eq form false false)",
        sig,
    )
    assert (r.ok, r.error, r.stats.steps, r.stats.clauses_added) == (False, None, 14, 0)
