"""Substitution, normalization, equality and meta-type inference."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import props
from conftest import CORPUS
from holcheck import terms
from holcheck.errors import MetaTypeError
from holcheck.infer import infer_meta_type
from holcheck.kernel import Session
from holcheck.signature import builtin_signature
from holcheck.syntax import (
    DefDefinition,
    DefLemma,
    Solve,
    apply_declarations,
    parse_source,
    parse_term,
)
from holcheck.terms import (
    App,
    Arrow,
    Base,
    Bound,
    Const,
    Meta,
    MetaCell,
    O,
    PF,
    SVar,
    TM,
    TP,
    alpha_beta_eq,
    arrow,
    meta_type_of,
    normalize,
    normalize_goal,
    subst,
    subst_goal,
)


def tm_sig(*names):
    sig = builtin_signature()
    for n in names:
        sig.declare(n, TM)
    return sig


EQ = Const("eq", arrow(TP, TM, TM, TM))
INTTY = Const("intty", TP)


def test_subst_identity_binder():
    c = Const("c0", TM)
    assert subst(Bound(0), c) == c


def test_subst_duplicates_argument():
    j = Const("j", TM)
    body = App(App(App(EQ, INTTY), Bound(0)), Bound(0))
    out = subst(body, j)
    assert out == App(App(App(EQ, INTTY), j), j)


def test_subst_symm_template_by_hand_reduction():
    # applying the carried-argument symmetry proof template at intty, J, I, Q
    # must give the direct congruence proof
    sig = tm_sig("j", "i")
    sig.declare("q", PF)
    template = parse_term(r"T\A\B\P\ (congr T B A (eq T A) P refl)", sig)
    out = template
    for arg in ("intty", "j", "i", "q"):
        out = App(out, parse_term(arg, sig))
    expected = parse_term("congr intty i j (eq intty j) q refl", sig)
    assert alpha_beta_eq(out, expected)


def test_beta_normalize_identity_redex():
    sig = tm_sig("c")
    assert alpha_beta_eq(parse_term(r"(x\ x) c", sig), parse_term("c", sig))


def test_beta_normalize_proof_redex():
    sig = builtin_signature()
    sig.declare("p", PF)
    assert alpha_beta_eq(parse_term(r"(q\ q) p", sig), parse_term("p", sig))


def test_alpha_equivalence_of_binders():
    sig = builtin_signature()
    a = parse_term(r"x\ x", sig, expect=Arrow(TM, TM))
    b = parse_term(r"y\ y", sig, expect=Arrow(TM, TM))
    assert alpha_beta_eq(a, b)


def test_definition_fold_match_site():
    # (x\x) applied to a formula is beta-equal to the formula itself
    sig = builtin_signature()
    sig.declare("assoc", arrow(Arrow(TM, Arrow(TM, TM)), TP, TM))
    sig.declare("f", Arrow(TM, Arrow(TM, TM)))
    sig.declare("t", TP)
    a = parse_term(r"(x\x) (assoc f t)", sig)
    b = parse_term("assoc f t", sig)
    assert alpha_beta_eq(a, b)


def test_distinct_normal_forms_differ():
    sig = tm_sig("i", "j")
    assert not alpha_beta_eq(
        parse_term("eq intty i j", sig), parse_term("eq intty j i", sig)
    )


def test_eta_equates_partial_application():
    sig = tm_sig("c")
    a = parse_term("eq intty c", sig)
    b = parse_term(r"x\ eq intty c x", sig)
    assert alpha_beta_eq(a, b)


def test_infer_simple_formula():
    sig = tm_sig("i", "j")
    assert infer_meta_type(parse_term("eq intty i j", sig), sig) == TM


def test_infer_records_polymorphic_instance_on_node():
    sig = builtin_signature()
    text = r"""
      lemma_pf
        (Symm\ pi T\ pi A\ pi B\ pi P\
          proves (Symm T A B P) (eq T A B) <<==
            (hastype A T, hastype B T, proves P (eq T B A)))
        (T\A\B\P\ (congr T B A (eq T A) P refl))
        (symm\ refl)
    """
    t = parse_term(text, sig, expect=PF)
    head = t
    while isinstance(head, App):
        head = head.fn
    a = arrow(TP, TM, TM, PF, PF)
    from holcheck.terms import O

    assert head.name == "lemma_pf"
    assert head.mt == arrow(Arrow(a, O), a, Arrow(a, PF), PF)


def test_infer_assoc_body_meta_type():
    sig = builtin_signature()
    body = parse_term(
        r"F\T\ (forall T X\ forall T Y\ forall T Z\ (eq T (F X (F Y Z)) (F (F X Y) Z)))",
        sig,
    )
    assert infer_meta_type(body, sig) == arrow(arrow(TM, TM, TM), TP, TM)


def test_infer_undeclared_constant():
    sig = builtin_signature()
    with pytest.raises(Exception) as exc:
        parse_term("undeclared_thing", sig)
    assert "undeclared" in str(exc.value)


def test_infer_ill_typed_application():
    sig = builtin_signature()
    with pytest.raises(MetaTypeError):
        parse_term("eq intty refl refl", sig)


def test_infer_unresolvable_instance():
    sig = builtin_signature()
    with pytest.raises(MetaTypeError) as exc:
        parse_term(r"elam Q\ refl", sig)
    assert "ground" in str(exc.value)


def test_infer_stable_under_normalization():
    sig = tm_sig("c")
    t = parse_term(r"(x\ eq intty x) c c", sig)
    assert infer_meta_type(t, sig) == infer_meta_type(normalize(t), sig) == TM


def test_normalization_preserves_sharing():
    sig = tm_sig("c")
    shared = parse_term("eq intty c c", sig)
    f2 = parse_term(r"x\ y\ imp x y", sig)
    t = App(App(f2, shared), shared)
    out = normalize(t)
    # the two occurrences of the shared subterm normalize to one object
    assert out.fn.arg is out.arg


def test_eigenvariable_births_strictly_increase():
    ses = Session(builtin_signature())
    births = [ses.fresh_eigen(TM).birth for _ in range(50)]
    assert births == sorted(births) and len(set(births)) == 50


def test_meta_type_of_annotated_terms():
    sig = builtin_signature()
    t = parse_term(r"x\ eq intty x x", sig)
    assert meta_type_of(t) == Arrow(TM, TM)


def test_signature_rejects_builtin_redeclaration():
    sig = builtin_signature()
    with pytest.raises(Exception):
        sig.declare("eq", TM)
    with pytest.raises(Exception):
        sig.declare_infix("imp", "left", 3)


def test_elaboration_never_prints_applications(monkeypatch):
    # the "application ..." error text is built only when unification fails
    def no_repr(self):
        raise AssertionError("App.__repr__ called while elaborating")

    monkeypatch.setattr(App, "__repr__", no_repr)
    src = parse_source((CORPUS / "assoc_def_atomic.hol").read_text(), builtin_signature())
    assert src.statements


def _corpus_statements(name):
    sig = builtin_signature()
    if "via_lib" in name:
        lib = parse_source((CORPUS / "lib_full.hol").read_text(), sig)
        apply_declarations(lib.statements, sig)
    return parse_source((CORPUS / name).read_text(), sig, name).statements


CORPUS_NAMES = sorted(f.name for f in CORPUS.glob("*.hol"))


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_goals_are_terms_of_meta_type_o(name):
    # a goal is a term: typed, normalized and compared like any other
    stmts = _corpus_statements(name)
    for st in stmts:
        if isinstance(st, Solve):
            g = st.goal
            assert meta_type_of(g) == O
            assert normalize(g) == normalize_goal(g)
            assert alpha_beta_eq(g, normalize_goal(g))
        elif isinstance(st, (DefLemma, DefDefinition)):
            tpl = st.template if isinstance(st, DefLemma) else st.typeinf
            assert meta_type_of(tpl) == Arrow(st.meta_type, O)
    assert any(isinstance(st, (Solve, DefLemma, DefDefinition)) for st in stmts)


# ---------------------------------------------------------------------------
# Properties: cached meta-type hashes, normalization, one-pass substitution
# ---------------------------------------------------------------------------

# a meta-type shape: ("base", name), ("svar", name) or a (dom, cod) pair
_SHAPES = st.recursive(
    st.one_of(
        st.tuples(st.just("base"), st.sampled_from(["tp", "tm", "pf", "o"])),
        st.tuples(st.just("svar"), st.sampled_from(["A", "tm"])),
    ),
    lambda inner: st.tuples(inner, inner),
    max_leaves=10,
)


def _build(shape):
    if shape[0] == "base":
        return Base(shape[1])
    if shape[0] == "svar":
        return SVar(shape[1])
    return Arrow(_build(shape[0]), _build(shape[1]))


@given(_SHAPES, _SHAPES)
def test_separately_built_meta_types_hash_alike(a, b):
    x, y, z = _build(a), _build(a), _build(b)
    assert x is not y and x == y and hash(x) == hash(y)
    assert {x: 1}.get(y) == 1
    assert (x == z) == (a == b)
    if x == z:
        assert hash(x) == hash(z)


class _NoMemo(dict):
    """A normalization memo that never hits."""

    def get(self, key, default=None):
        return default


_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=200, deadline=None)
@given(_SEEDS)
def test_normalize_agrees_with_memo_free_normalization(seed):
    # meta-types key the memo; a memo that never hits is the reference
    rng = random.Random(seed)
    dom = rng.choice((TM, TP, PF, Arrow(TM, TM), Arrow(TM, Arrow(TM, PF))))
    cod = rng.choice((TM, PF, Arrow(TM, TM)))
    lam = props.gen_term(rng, Arrow(dom, cod), (), fuel=3)
    t = App(lam, props.gen_term(rng, dom, (), fuel=2))
    assert normalize(t) == terms._norm(t, cod, (), _NoMemo())


@settings(max_examples=200, deadline=None)
@given(_SEEDS)
def test_subst_goal_of_a_prefix_is_iterated_subst(seed):
    rng = random.Random(seed)
    env = (rng.choice((TM, PF)), rng.choice((TP, TM)), rng.choice((TM, PF)))
    body = props.gen_goal(rng, env, fuel=2)
    # closed values: matching variables, as a clause prefix gets them
    a, b, c = (Meta(MetaCell(mt, 0)) for mt in reversed(env))
    assert subst_goal(body, a, b, c) == subst(subst(subst(body, c), b), a)
