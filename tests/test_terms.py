"""Substitution, normalization, equality and meta-type inference."""

import copy
import pickle
import random
import signal
import sys

import pytest
from hypothesis import given, settings, strategies as st

import negatives
import props
from conftest import CORPUS
from holcheck import cli, terms
from holcheck.errors import MetaTypeError, StructuralError
from holcheck.kernel import Session, _abstract, _Escape, _goal_app
from holcheck.signature import BUILTIN_CONSTS, GOAL_FORMERS, Scheme, builtin_signature
from holcheck.syntax import (
    DefDefinition,
    DefLemma,
    Solve,
    apply_declarations,
    format_goal,
    parse_source,
    parse_term,
)
from holcheck.terms import (
    App,
    Arrow,
    Base,
    Bound,
    Const,
    Lam,
    META_FREE,
    Meta,
    MetaCell,
    O,
    PF,
    SVar,
    TM,
    TP,
    PROVES,
    _hsubst,
    _nf,
    _norm,
    alpha_beta_eq,
    app,
    arrow,
    has_unbound_meta,
    max_eigen_birth,
    meta_type_of,
    normalize,
    normalize_goal,
    shift,
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
    body = app(app(app(EQ, INTTY), Bound(0)), Bound(0))
    out = subst(body, j)
    assert out == app(app(app(EQ, INTTY), j), j)


def test_subst_reduces_a_lambda_put_at_an_applied_head():
    # hereditary substitution: the redex `(x\ x) c` is contracted as it forms
    c = Const("c", TM)
    assert subst(app(Bound(0), c), Lam(TM, Bound(0), "x")) == c
    # and so is each redex that the contraction makes
    s = Const("s", Arrow(TM, TM))
    twice = Lam(Arrow(TM, TM), Lam(TM, app(Bound(1), app(Bound(1), Bound(0)))))
    assert subst(app(Bound(0), Lam(TM, app(s, Bound(0))), c), twice) == app(s, app(s, c))


def test_subst_replaces_bound_matching_variables_and_keeps_unbound_ones():
    j, s = Const("j", TM), Const("s", Arrow(TM, TM))
    bound, unbound = MetaCell(TM, 0), MetaCell(TM, 0)
    bound.value = Const("c", TM)
    out = subst(app(EQ, INTTY, Meta(bound), Meta(unbound)), j)
    assert out == app(EQ, INTTY, bound.value, Meta(unbound))
    assert subst(app(EQ, INTTY, Meta(bound), Bound(0)), j) == app(EQ, INTTY, bound.value, j)
    # a bound matching variable at a head is reduced with its arguments
    f = MetaCell(Arrow(TM, TM), 0)
    f.value = Lam(TM, app(s, Bound(0)))
    assert subst(app(Meta(f), Bound(0)), j) == app(s, j)


def test_subst_symm_template_by_hand_reduction():
    # applying the carried-argument symmetry proof template at intty, J, I, Q
    # must give the direct congruence proof
    sig = tm_sig("j", "i")
    sig.declare("q", PF)
    template = parse_term(r"T\A\B\P\ (congr T B A (eq T A) P refl)", sig)
    out = template
    for arg in ("intty", "j", "i", "q"):
        out = app(out, parse_term(arg, sig))
    expected = parse_term("congr intty i j (eq intty j) q refl", sig)
    assert alpha_beta_eq(out, expected)


def test_beta_normalize_identity_redex():
    sig = tm_sig("c")
    assert alpha_beta_eq(parse_term(r"(x\ x) c", sig), parse_term("c", sig))


def test_beta_normalize_proof_redex():
    sig = builtin_signature()
    sig.declare("p", PF)
    assert alpha_beta_eq(parse_term(r"(q\ q) p", sig), parse_term("p", sig))


# an atom for the contraction-order pins
_ATOM = app(PROVES, Const("refl", PF), app(EQ, INTTY, Const("c0", TM), Const("c0", TM)))


def test_a_redex_at_type_o_is_contracted_before_its_head_is_checked():
    # the lambda's body, a bare variable, is no goal on its own
    assert normalize_goal(app(Lam(O, Bound(0)), _ATOM)) == _ATOM


def test_a_matching_variable_of_type_o_normalizes_to_its_value():
    cell = MetaCell(O, 0)
    cell.value = _ATOM
    assert normalize_goal(Meta(cell)) == _ATOM
    cell.value = Const("c_3", O, birth=3)  # an eigenvariable is no goal
    with pytest.raises(StructuralError, match="not a goal"):
        normalize_goal(Meta(cell))


def test_a_substituted_lambda_keeps_its_binder_name():
    # the function applied at the head is normalized first, which
    # eta-expands its parameter h under an unnamed binder; the lambda
    # substituted for h keeps its name there
    g = Const("g", arrow(Arrow(TM, TM), TM))
    arg = Lam(Arrow(TM, TM), app(g, Bound(0)), "h")
    use = Lam(arrow(Arrow(TM, TM), TM), app(Bound(0), Lam(TM, Bound(0), "x")), "l")
    out = normalize(app(use, arg))
    assert out == app(g, Lam(TM, Bound(0))) and out.args[-1].hint == "x"


def test_a_shared_argument_is_normalized_once():
    # (x\ f x x) applied 40 deep: a normal form of 2^40 leaves, shared in a
    # graph of 40 levels; a normalizer that walks the tree would not end
    f, z = Const("f", arrow(TM, TM, TM)), Const("z", TM)
    t = z
    for _ in range(40):
        t = app(Lam(TM, app(f, Bound(0), Bound(0)), "x"), t)

    def too_slow(*_):
        pytest.fail("normalization took over 10 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        out = normalize(t)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    for _ in range(40):
        assert out.head is f and out.args[0] is out.args[1]
        out = out.args[1]
    assert out is z


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
    assert meta_type_of(parse_term("eq intty i j", sig)) == TM


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
        head = head.head
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
    assert meta_type_of(body) == arrow(arrow(TM, TM, TM), TP, TM)


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
    assert meta_type_of(t) == meta_type_of(normalize(t)) == TM


def test_normalization_preserves_sharing():
    sig = tm_sig("c")
    shared = parse_term("eq intty c c", sig)
    f2 = parse_term(r"x\ y\ imp x y", sig)
    t = app(app(f2, shared), shared)
    out = normalize(t)
    # the two occurrences of the shared subterm normalize to one object
    assert out.args[0] is out.args[1]


def test_eigenvariable_births_strictly_increase():
    ses = Session(builtin_signature())
    births = [ses.fresh_eigen(TM).birth for _ in range(50)]
    assert births == sorted(births) and len(set(births)) == 50


def test_meta_type_of_annotated_terms():
    sig = builtin_signature()
    t = parse_term(r"x\ eq intty x x", sig)
    assert meta_type_of(t) == Arrow(TM, TM)


def test_predicates_are_the_monomorphic_constants_of_result_o():
    sig = builtin_signature()
    sig.declare("even", Arrow(TM, O))
    sig.declare("zero", TM)
    names = list(sig.consts) + ["pi", ",", "=>", "undeclared"]
    got = {n for n in names if sig.is_predicate(n)}
    assert got == {"proves", "hastype", "assump", "even"}
    assert sig.copy().is_predicate("even")


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
# Properties: meta-type hashes, normalization, one-pass substitution
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


_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=200, deadline=None)
@given(_SEEDS)
def test_normalize_agrees_with_memo_free_normalization(seed):
    rng = random.Random(seed)
    dom = rng.choice((TM, TP, PF, Arrow(TM, TM), Arrow(TM, Arrow(TM, PF))))
    cod = rng.choice((TM, PF, Arrow(TM, TM)))
    lam = props.gen_term(rng, Arrow(dom, cod), (), fuel=3)
    t = app(lam, props.gen_term(rng, dom, (), fuel=2))
    assert normalize(t) == props.ref_normalize(t, cod)


@settings(max_examples=200, deadline=None)
@given(_SEEDS)
def test_subst_goal_of_a_prefix_is_iterated_subst(seed):
    rng = random.Random(seed)
    env = (rng.choice((TM, PF)), rng.choice((TP, TM)), rng.choice((TM, PF)))
    body = props.gen_goal(rng, env, fuel=2)
    # closed values: matching variables, as a clause prefix gets them
    a, b, c = (Meta(MetaCell(mt, 0)) for mt in reversed(env))
    assert subst_goal(body, a, b, c) == subst(subst(subst(body, c), b), a)


@settings(max_examples=200, deadline=None)
@given(_SEEDS)
def test_subst_of_normal_terms_is_the_normal_form_of_the_redex(seed):
    rng = random.Random(seed)
    dom = rng.choice((TM, PF, Arrow(TM, TM), Arrow(TM, Arrow(TM, PF))))
    cod = rng.choice((TM, PF, Arrow(TM, TM)))
    lam = normalize(props.gen_term(rng, Arrow(dom, cod), (), fuel=3))
    arg = normalize(props.gen_term(rng, dom, (), fuel=2))
    out = subst(lam.body, arg)
    assert out == props.ref_hsubst(lam.body, 0, (arg,))
    assert normalize(out) is out and out == normalize(app(lam, arg))


# matching-variable types; the first two take a function argument, which
# the value applies, so instantiating them reduces hereditarily
_META_TYPES = (
    arrow(Arrow(TM, TM), TM, TM),
    arrow(Arrow(TM, PF), PF),
    arrow(TM, TM),
    TM,
)


def test_hsubst_of_no_values_returns_an_open_term_without_bound_variables_itself():
    # a pattern under binders, as `Session.match` re-instantiates it
    t = app(Const("s", Arrow(TM, TM)), Bound(0))
    assert _hsubst(t, 0, ()) is t


@settings(max_examples=300, deadline=None)
@given(_SEEDS)
def test_hsubst_of_no_values_is_normalization_of_a_normal_atom(seed):
    rng = random.Random(seed)
    env = (rng.choice(_META_TYPES), rng.choice(_META_TYPES))
    # a normal atom over two variables, which become matching variables
    # as a clause prefix is instantiated
    body = app(PROVES, props.gen_term(rng, PF, env, 3), props.gen_term(rng, TM, env, 3))
    cells = [MetaCell(mt, 0) for mt in reversed(env)]
    atom = normalize_goal(subst_goal(body, *(Meta(c) for c in cells)))
    assert _hsubst(atom, 0, ()) is atom
    for c in cells:
        c.value = normalize(props.gen_term(rng, c.mt, (), 2))
    assert _hsubst(atom, 0, ()) == props.ref_normalize(atom, O)


def _binder_value(rng, mt, i):
    """A value of a closure's binder, as `Session.solve` and `backchain`
    make them: an eigenvariable, or a matching variable, unbound or bound
    to a closed normal term."""
    kind = rng.randrange(3)
    if kind == 0:
        return Const(f"e{i}", mt, birth=i + 1)
    cell = MetaCell(mt, 0)
    if kind == 1:
        cell.value = normalize(props.gen_term(rng, mt, (), 2))
    return Meta(cell)


@settings(max_examples=300, deadline=None)
@given(_SEEDS)
def test_one_walk_builds_an_atom_as_substitution_then_instantiation(seed):
    # an atom of a closure over three binders, built as `solve_atom` does
    rng = random.Random(seed)
    env = tuple(rng.choice(_META_TYPES) for _ in range(3))  # innermost first
    body = app(PROVES, props.gen_term(rng, PF, env, 3), props.gen_term(rng, TM, env, 3))
    body = normalize_goal(body, env)
    vs = tuple(_binder_value(rng, mt, i) for i, mt in enumerate(reversed(env)))
    built = _hsubst(body, 0, vs)
    substituted = props.ref_subst(body, 0, vs)
    assert built == _hsubst(substituted, 0, ())
    # a value is meta-free, so `free` says whether the atom holds an
    # unbound matching variable; a bound one whose value discards its
    # argument may drop one that the substituted atom holds
    assert has_unbound_meta(built) == (built.free == META_FREE)
    assert has_unbound_meta(built) <= has_unbound_meta(substituted)


def _named(t, depth=0):
    """`t` with a name on every binder, as source text gives them."""
    if isinstance(t, App):
        return app(_named(t.head, depth), *(_named(a, depth) for a in t.args))
    if isinstance(t, Lam):
        return Lam(t.mt, _named(t.body, depth + 1), f"v{depth}")
    return t


@settings(max_examples=300, deadline=None)
@given(_SEEDS)
def test_template_application_is_normalization_binder_names_included(seed):
    # a normal template at a normal argument, as `check_template_pf` has them
    rng = random.Random(seed)
    mt = rng.choice(_META_TYPES + (arrow(TM, TM, TM),))
    formula = props.gen_term(rng, TM, (mt,), 3)
    if mt == Arrow(TM, TM) and rng.randrange(2):
        # the argument unapplied: normalization eta-expands it, unnamed
        formula = app(Const("lam", Arrow(mt, TM)), Bound(0))
    template = normalize(Lam(mt, app(PROVES, props.gen_term(rng, PF, (mt,), 3), formula), "t"))
    arg = _named(normalize(props.gen_term(rng, mt, (), 2)))
    built = _goal_app(template, arg)
    expected = normalize_goal(app(template, arg))
    assert built == expected
    assert format_goal(built, props.SIG) == format_goal(expected, props.SIG)


# ---------------------------------------------------------------------------
# Term nodes and their closedness annotation
# ---------------------------------------------------------------------------

_CELL = MetaCell(TM, 0)
_NODES = (
    Const("c", TM, birth=3),
    Bound(2),
    Meta(_CELL),
    app(Const("s", Arrow(TM, TM)), Bound(0)),
    Lam(TM, Bound(0), "x"),
)


@pytest.mark.parametrize("node", _NODES, ids=lambda t: type(t).__name__)
def test_term_nodes_are_immutable(node):
    for name in type(node).__slots__ + ("free", "other"):
        with pytest.raises(AttributeError):
            setattr(node, name, Bound(0))
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert not hasattr(node, "__dict__")


@pytest.mark.parametrize("node", _NODES, ids=lambda t: type(t).__name__)
def test_term_nodes_copy_and_pickle_to_equal_nodes(node):
    for twin in (copy.copy(node), copy.deepcopy(node)):
        assert twin == node or isinstance(node, Meta)  # a deep copy has a new cell
        assert twin.free == node.free
    if not isinstance(node, Meta):
        assert pickle.loads(pickle.dumps(node)) == node


_META_TYPE_SAMPLES = (TM, SVar("A"), Arrow(TM, O), arrow(Arrow(SVar("A"), O), SVar("A"), PF))


@pytest.mark.parametrize("mt", _META_TYPE_SAMPLES, ids=str)
def test_meta_types_are_immutable(mt):
    for name in ("name", "dom", "cod", "other"):
        with pytest.raises(AttributeError):
            setattr(mt, name, TM)
        with pytest.raises(AttributeError):
            delattr(mt, name)


@pytest.mark.parametrize("mt", _META_TYPE_SAMPLES, ids=str)
def test_meta_types_copy_and_pickle_to_equal_meta_types(mt):
    for twin in (copy.copy(mt), copy.deepcopy(mt), pickle.loads(pickle.dumps(mt))):
        assert twin == mt and hash(twin) == hash(mt) and str(twin) == str(mt)


def test_meta_types_are_equal_only_of_one_kind_with_equal_fields():
    assert Base("A") != SVar("A") and SVar("A") != Base("A")
    assert Arrow(TM, TM) != (TM, TM) and (TM, TM) != Arrow(TM, TM)
    assert Base("tm") == TM and hash(Base("tm")) == hash(TM)
    built = arrow(TM, TM, O)
    assert built == Arrow(Base("tm"), Arrow(Base("tm"), Base("o")))
    assert hash(built) == hash(Arrow(Base("tm"), Arrow(Base("tm"), Base("o"))))
    assert Arrow(TM, O) != Arrow(O, TM) and Arrow(TM, O) != TM


def test_schemes_copy_and_pickle_and_keep_their_predicate_flag():
    schemes = {**BUILTIN_CONSTS, **GOAL_FORMERS}
    # the names whose scheme is monomorphic with result o
    assert sorted(n for n, s in schemes.items() if s.predicate) == [
        ",",
        "=>",
        "assump",
        "hastype",
        "proves",
    ]
    assert Scheme(TM).poly is False and Scheme(TM) == Scheme(TM, False)
    assert Scheme(Arrow(TM, O)).predicate and not Scheme(Arrow(TM, O), poly=True).predicate
    for s in schemes.values():
        for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert twin == s and twin.predicate == s.predicate


def test_lambdas_differing_in_hint_only_are_equal_and_hash_alike():
    body = app(Const("s", Arrow(TM, TM)), Bound(0))
    a, b, c = Lam(TM, body, "x"), Lam(TM, body, "y"), Lam(TM, body)
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert Lam(TP, body) != a
    # nodes of different kinds with equal fields differ
    assert Const("x", TM) != Lam(None, Const("x", TM)) and Bound(0) != Meta(_CELL)


def _nodes(t):
    yield t
    if isinstance(t, App):
        for u in (t.head, *t.args):
            yield from _nodes(u)
    elif isinstance(t, Lam):
        yield from _nodes(t.body)


def _plant(rng, t, env):
    """`t` with some of its closed, unapplied subterms replaced by
    eigenvariables and by matching variables, bound or unbound."""
    spots = props.subterm_positions(t, env)
    table = {}
    for i, (nid, mt) in enumerate(rng.sample(spots, k=min(len(spots), rng.randrange(4)))):
        table[nid] = _binder_value(rng, mt, 10 + i)
    return props.replace_nodes(t, table)


def _value(rng, mt, i):
    """A closed value of a binder: as `_binder_value` makes them, or a
    closed normal term, which may be a lambda to reduce at a head."""
    if rng.randrange(3):
        return _binder_value(rng, mt, i)
    return normalize(props.gen_term(rng, mt, (), 2))


def _agree(out, ref, t):
    """`out` of a walk that skips equals `ref` of one that does not, and is
    `t` itself wherever `ref` is."""
    assert out == ref
    assert out is t or ref is not t


@settings(max_examples=400, deadline=None)
@given(_SEEDS)
def test_walks_that_skip_closed_subterms_agree_with_walks_that_do_not(seed):
    rng = random.Random(seed)
    env = tuple(rng.choice(_META_TYPES + (TP, PF)) for _ in range(rng.randrange(5)))
    mt = rng.choice((TM, PF, Arrow(TM, TM), Arrow(TM, PF)))
    t = _plant(rng, normalize(props.gen_term(rng, mt, env, 3), env), env)
    for u in _nodes(t):
        assert u.free == props.ref_free(u)
        assert has_unbound_meta(u) == (max_eigen_birth(u) < 0)

    # substitution of the binders d .. d + k - 1 (innermost first in env)
    d = rng.randrange(len(env) + 1)
    k = rng.randrange(len(env) - d + 1)
    vs = tuple(_value(rng, m, i) for i, m in enumerate(reversed(env[d : d + k])))
    by, cutoff = rng.randrange(3), rng.randrange(4)
    _agree(shift(t, by, cutoff), props.ref_shift(t, by, cutoff), t)
    built = _hsubst(t, d, vs)
    _agree(built, props.ref_hsubst(t, d, vs), t)
    assert has_unbound_meta(built) == (built.free == META_FREE)
    _agree(_hsubst(t, 0, ()), props.ref_hsubst(t, 0, ()), t)

    # abstraction over some loose indices and eigenvariables, as matching
    # a pattern variable's arguments makes them
    keys = [("b", i) for i in range(len(env) + 1)]
    keys += [("c", u.birth) for u in _nodes(t) if isinstance(u, Const) and u.birth]
    keys = rng.sample(sorted(set(keys)), k=rng.randrange(len(set(keys)) + 1))
    eigen = any(key[0] == "c" for key in keys)
    d = rng.randrange(3)
    try:
        ref = props.ref_abstract(t, d, keys)
    except _Escape:
        with pytest.raises(_Escape):
            _abstract(t, d, (keys, eigen))
    else:
        _agree(_abstract(t, d, (keys, eigen)), ref, t)


def test_a_matching_variable_under_binders_keeps_the_sentinel():
    t = Lam(TM, Lam(TM, app(app(Const("f", arrow(TM, TM, TM)), Bound(1)), Meta(MetaCell(TM, 0)))))
    assert t.free == t.body.free == META_FREE
    assert has_unbound_meta(t)
    assert Lam(TM, Lam(TM, Bound(3))).free == 2 and Lam(TM, Bound(0)).free == 0



# ---------------------------------------------------------------------------
# Normal terms checked in place
# ---------------------------------------------------------------------------


def _by_norm(t, mt, env):
    """`_norm` from the identity substitution: the result, or the exception."""
    try:
        return _norm(t, (), len(env), [], mt, env)
    except StructuralError as e:
        return e


def _agrees_with_norm(out, ref, t):
    """`out` equals `ref`, a result of `_norm`, and is `t` itself wherever
    `ref` is; or both are exceptions of one type and message."""
    if isinstance(ref, Exception) or isinstance(out, Exception):
        assert type(out) is type(ref) and str(out) == str(ref)
    else:
        assert out == ref and (out is t or ref is not t)


def test_normalize_agrees_with_norm_on_every_call_of_a_corpus_check(monkeypatch, tmp_path):
    # each normalization made while checking the corpus theorems and the
    # negatives, installs of corpus/lib_full.hol included, against `_norm`
    # on the same input at the same moment
    calls = []

    def recording(fn, mt_of):
        def normalize_and_record(t, env=()):
            env = tuple(env)
            ref = _by_norm(t, mt_of(t, env), env)
            try:
                out = fn(t, env)
            except StructuralError as e:
                out = e
            calls.append((t, out, ref))
            if isinstance(out, Exception):
                raise out
            return out

        return normalize_and_record

    for fn, mt_of in ((terms.normalize, meta_type_of), (terms.normalize_goal, lambda t, env: O)):
        for mod in [m for n, m in sys.modules.items() if n.startswith("holcheck")]:
            if getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, recording(fn, mt_of))
    lib = str(CORPUS / "lib_full.hol")
    runs = [
        (p.name, (["--lib", lib] if p.name.endswith("_via_lib.hol") else []) + [str(p)], 0)
        for p in sorted(CORPUS.glob("*.hol"))
        if not p.name.startswith("lib_")
    ]
    for k, (name, source, libs, code) in enumerate(negatives.CASES):
        path = tmp_path / f"negative_{k}.hol"
        path.write_text(source)
        lib_args = [a for n in libs for a in ("--lib", str(CORPUS / n))]
        runs.append((name, lib_args + [str(path)], code))
    assert len(runs) == 25
    for name, args, code in runs:
        assert cli.main(["check", "--trace", "quiet", *args]) == code, name
    assert any(out is t for t, out, _ in calls) and any(out is not t for t, out, _ in calls)
    for t, out, ref in calls:
        _agrees_with_norm(out, ref, t)


def test_no_application_is_built_with_an_application_at_its_head(monkeypatch, tmp_path):
    # spine form: `app` flattens, and every other construction puts at the
    # head a node that is no application; checked over the corpus commands
    # and the negatives
    built = []
    init = App.__init__

    def checked(self, head, args):
        built.append((type(head), type(args), len(args)))
        init(self, head, args)

    monkeypatch.setattr(App, "__init__", checked)
    lib = ["--lib", str(CORPUS / "lib_full.hol")]
    for p in sorted(CORPUS.glob("*.hol")):
        args = [*(lib if p.name.endswith("_via_lib.hol") else []), str(p)]
        cli.main(["check", "--trace", "quiet", *args])
        for command in ("expand", "fmt"):
            cli.main([command, *args, "-o", str(tmp_path / f"{command}.hol")])
    for k, (_, source, libs, _) in enumerate(negatives.CASES):
        path = tmp_path / f"negative_{k}.hol"
        path.write_text(source)
        lib_args = [a for n in libs for a in ("--lib", str(CORPUS / n))]
        cli.main(["check", "--trace", "quiet", *lib_args, str(path)])
    assert len(built) > 10_000
    assert all(h is not App and a is tuple and n > 0 for h, a, n in built)


def _gen(rng, mt, env, fuel):
    """`props.gen_term`, with goals at meta-type o."""
    if isinstance(mt, Arrow):
        return Lam(mt.dom, _gen(rng, mt.cod, (mt.dom,) + env, fuel))
    return props.gen_goal(rng, env, fuel - 1) if mt == O else props.gen_term(rng, mt, env, fuel)


def _planted(rng, t, mt, env):
    """A term to put where `t`, normal at meta-type `mt` under `env`, was:
    one that `_norm` must rebuild, or must refuse."""
    dom = rng.choice((TM, PF, Arrow(TM, TM)))
    kind = rng.randrange(11)
    if kind < 2:  # a redex
        return app(Lam(dom, _gen(rng, mt, (dom,) + env, 2), "r"), _gen(rng, dom, env, 1))
    if kind < 4:  # a bound matching variable at a head
        cell = MetaCell(Arrow(dom, mt), 0)
        cell.value = normalize(_gen(rng, Arrow(dom, mt), (), 2))
        return app(Meta(cell), _gen(rng, dom, env, 1))
    if kind < 6:  # an unbound matching variable, bare or at a variable
        if not env or rng.randrange(2):
            return Meta(MetaCell(mt, 0))
        i = rng.randrange(len(env))
        return app(Meta(MetaCell(Arrow(env[i], mt), 0)), Bound(i))
    if kind < 8:  # a variable: eta-short at an arrow type, a non-goal at o, out of scope
        same = [Bound(i) for i, m in enumerate(env) if m == mt]
        return rng.choice(same + [Const("e9", mt, 9), Bound(len(env))])
    if kind < 10:  # a bound matching variable
        cell = MetaCell(mt, 0)
        cell.value = normalize(_gen(rng, mt, (), 2))
        return Meta(cell)
    if isinstance(mt, Arrow):
        return Lam(None, t.body, t.hint)  # a lambda without its meta-type
    return app(t, Const("z", TM))  # an over-applied head


def _plant_spines(rng, t, mt, env, p, sites):
    """`t`, normal at meta-type `mt`, with each subterm that is no head
    replaced by `_planted` with probability `p`; each subterm of the result
    that is no head is appended to `sites` with its meta-type and `env`."""
    if rng.random() < p:
        t = _planted(rng, t, mt, env)
    elif isinstance(t, Lam):
        body = _plant_spines(rng, t.body, mt.cod, (mt.dom,) + env, p, sites)
        t = t if body is t.body else Lam(t.mt, body, t.hint)
    elif isinstance(t, App):
        h, args = props.plain_spine(t)
        hmt, new = meta_type_of(h, env), []
        for a in args:
            new.append(_plant_spines(rng, a, hmt.dom, env, p, sites))
            hmt = hmt.cod
        t = t if all(a is b for a, b in zip(new, args)) else app(h, *new)
    sites.append((t, mt, env))
    return t


@settings(max_examples=300, deadline=None)
@given(_SEEDS)
def test_normalize_checks_a_normal_term_in_place_and_hands_the_rest_to_norm(seed):
    # normal terms under binders, with redexes, bound and unbound matching
    # variables, eta-short variables, non-goals at o and over-applied heads
    # planted in them
    rng = random.Random(seed)
    binder_types = (TM, PF, O, Arrow(TM, TM), Arrow(TM, PF))
    env = tuple(rng.choice(binder_types) for _ in range(rng.randrange(4)))
    mt = rng.choice((TM, PF, O, Arrow(TM, TM), arrow(Arrow(TM, TM), TM, TM)))
    start = _norm(_gen(rng, mt, env, 3), (), len(env), [], mt, env)
    sites = []
    t = _plant_spines(rng, start, mt, env, rng.choice((0.0, 0.05, 0.2)), sites)
    assert sites[-1][0] is t
    for u, umt, uenv in sites:
        ref = _by_norm(u, umt, uenv)
        try:
            out = _nf(u, umt, uenv)
        except StructuralError as e:
            out = e
        _agrees_with_norm(out, ref, u)
        if not isinstance(ref, Exception):
            assert out == props.ref_normalize(u, umt, uenv)


def test_normalize_takes_one_frame_per_level_of_900_nested_applications():
    # a normal term is walked with a loop along each spine, so nesting,
    # not spine length, costs Python frames: both nestings stay below the
    # default recursion limit
    s, f, z = Const("s", Arrow(TM, TM)), Const("f", arrow(TM, TM, TM)), Const("z", TM)
    right, left = z, z
    for _ in range(900):
        right, left = app(s, right), app(f, left, z)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert normalize(right) is right and normalize(left) is left
        assert normalize(app(Lam(TM, Bound(0)), right)) is right
    finally:
        sys.setrecursionlimit(limit)
