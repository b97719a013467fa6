"""Lexer/parser/printer behavior and the `.hol` statement grammar."""

import random
import string

import pytest
from hypothesis import example, given, settings, strategies as st

import props
from conftest import CORPUS, THEOREM_FILES, EXTRA_THEOREM_FILES
from negatives import CASES, META_TYPE_ERROR

from holcheck.cli import main
from holcheck.errors import SourceError
from holcheck.signature import BUILTIN_INFIX, Scheme, builtin_signature
from holcheck.syntax import (
    DefDefinition,
    DefLemma,
    Solve,
    TypeDecl,
    format_goal,
    format_statement,
    format_term,
    parse_goal,
    parse_source,
    parse_term,
    tokenize,
)
from holcheck.terms import PF, TM, App, Bound, Const, Lam, alpha_beta_eq, arrow, normalize_goal


def test_lambda_extends_maximally_right():
    sig = builtin_signature()
    sugared = parse_goal(
        r"proves refl (forall intty X\ forall intty Y\ eq intty X Y imp eq intty Y X)",
        sig,
    )
    explicit = parse_goal(
        r"proves refl (forall intty (X\ forall intty (Y\ (eq intty X Y) imp (eq intty Y X))))",
        sig,
    )
    assert sugared == explicit


def test_backward_and_forward_arrows_agree():
    sig = builtin_signature()
    a = parse_goal(r"pi A\ (hastype A form :- hastype A form)", sig)
    b = parse_goal(r"pi A\ (hastype A form <<== hastype A form)", sig)
    c = parse_goal(r"pi A\ (hastype A form => hastype A form)", sig)
    d = parse_goal(r"pi A\ (hastype A form ==>> hastype A form)", sig)
    assert a == b == c == d


def test_undeclared_constant_is_positioned():
    sig = builtin_signature()
    with pytest.raises(SourceError) as exc:
        parse_source("proves refl (eq intty mystery mystery).", sig, "f.hol")
    e = exc.value
    assert "undeclared constant 'mystery'" in e.message
    assert e.line == 1 and e.col is not None


def test_free_capital_rejected_in_goal():
    sig = builtin_signature()
    with pytest.raises(SourceError) as exc:
        parse_goal("proves refl (eq intty X X)", sig)
    assert "capitalized" in exc.value.message


def test_kind_declaration_rejected_with_guidance():
    sig = builtin_signature()
    with pytest.raises(SourceError) as exc:
        parse_source("kind widget type.", sig)
    assert "kind" in exc.value.message


def test_comment_and_whitespace_handling():
    sig = builtin_signature()
    src = parse_source(
        "% a comment\nproves refl % trailing\n  (forall intty X\\ eq intty X X).\n",
        sig,
    )
    assert len(src.statements) == 1 and isinstance(src.statements[0], Solve)


def test_print_respects_infix_precedence():
    sig = builtin_signature()
    for n in ("a", "b", "c"):
        sig.declare(n, TM)
    t = parse_term("a imp b imp c", sig)
    assert format_term(t, sig) == "a imp b imp c"
    t2 = parse_term("(a imp b) imp c", sig)
    assert format_term(t2, sig) == "(a imp b) imp c"


def test_print_uses_binder_hints():
    sig = builtin_signature()
    t = parse_term(r"Nice\ eq intty Nice Nice", sig)
    assert format_term(t, sig) == r"Nice\ eq intty Nice Nice"


def test_type_declarations_extend_scope_in_file_order():
    sig = builtin_signature()
    src = parse_source(
        "type c tm.\nproves refl (eq intty c c).\n", sig
    )
    assert isinstance(src.statements[0], TypeDecl)
    assert src.statements[0].mt == TM
    # the original signature is untouched
    assert "c" not in sig.consts


def test_a_parsed_file_carries_the_signature_it_ends_with():
    sig = builtin_signature()
    before = (dict(sig.consts), dict(sig.infixes))
    src = parse_source("type c tm -> tm -> tm.\ninfixl c 6.\ntype d tm.\n", sig)
    assert (sig.consts, sig.infixes) == before  # the argument is unmodified
    assert src.sig is not sig
    assert src.sig.consts == {**before[0], "c": Scheme(arrow(TM, TM, TM)), "d": Scheme(TM)}
    assert src.sig.infixes == {**before[1], "c": ("left", 6)}
    # a file parsed against it may use its declarations
    (st,) = parse_source("proves refl (eq intty (d c d) (d c d)).\n", src.sig).statements
    assert format_goal(st.goal, src.sig) == "proves refl (eq intty (d c d) (d c d))"


def test_user_infix_declaration_round_trip():
    sig = builtin_signature()
    src = parse_source(
        "type oplus tm -> tm -> tm.\n"
        "infixl oplus 6.\n"
        "type a tm.\n"
        "type b tm.\n"
        "proves refl (eq intty (a oplus b oplus a) (a oplus b oplus a)).\n",
        sig,
    )
    st = src.statements[-1]
    text = format_statement(st, src.sig)
    assert "a oplus b oplus a" in text
    reparsed = parse_source(
        "type oplus tm -> tm -> tm.\ninfixl oplus 6.\ntype a tm.\ntype b tm.\n" + text,
        sig,
    )
    assert reparsed.statements[-1].goal == st.goal


_HIGH_PREC_GOALS = (
    "g (false f false)",
    "(g false) f false",
    "g (g false f false)",
    "(false f false) f false",
    "false f (false f false)",
    "g false f g false f false",
)


@pytest.mark.parametrize("assoc", ["infixl", "infixr"])
@pytest.mark.parametrize("prec", range(13))
def test_infix_of_any_precedence_prints_to_what_parses_back(assoc, prec):
    # application binds tighter than every infix, so an infix argument of an
    # application is printed in parentheses even at precedence 10 and above
    side = "left" if assoc == "infixl" else "right"
    decls = f"type f tm -> tm -> tm.\ntype g tm -> tm.\n{assoc} f {prec}.\n"
    body = "".join(f"proves refl (eq intty ({t}) ({t})).\n" for t in _HIGH_PREC_GOALS)
    if any(p == prec and a != side for a, p in BUILTIN_INFIX.values()):
        with pytest.raises(SourceError, match="associative"):
            parse_source(decls, builtin_signature())
        return
    src = parse_source(decls + body, builtin_signature())
    work = src.sig
    printed = "\n".join(format_statement(st, work) for st in src.statements)
    again = parse_source(printed, builtin_signature())
    assert [st.goal for st in again.statements[3:]] == [st.goal for st in src.statements[3:]]
    assert "\n".join(format_statement(st, work) for st in again.statements) == printed


def test_conflicting_precedence_assoc_rejected():
    sig = builtin_signature()
    with pytest.raises(SourceError) as exc:
        parse_source("type oplus tm -> tm -> tm.\ninfixr oplus 0.\n", sig)
    assert "associative" in exc.value.message


def test_def_lemma_statement_shape():
    sig = builtin_signature()
    src = parse_source((CORPUS / "lib_basic.hol").read_text(), sig, "lib_basic.hol")
    kinds = [type(st) for st in src.statements]
    assert kinds == [TypeDecl, DefLemma, TypeDecl, DefDefinition]
    lemma = src.statements[1]
    assert lemma.name == "symm" and lemma.meta_type == arrow(PF, PF)
    definition = src.statements[3]
    assert definition.name == "assoc"
    from holcheck.terms import TP

    assert definition.meta_type == arrow(arrow(TM, TM, TM), TP, TM)


def test_declared_and_inferred_meta_types_must_agree():
    sig = builtin_signature()
    bad = (
        "type symm pf -> pf.\n"
        "def_lemma symm\n"
        "  (Symm\\ pi T\\ pi A\\ pi B\\ pi P\\\n"
        "    proves (Symm T A B P) (eq T A B) <<== proves P (eq T B A))\n"
        "  (T\\A\\B\\P\\ (congr T B A (eq T A) P refl)).\n"
    )
    with pytest.raises(SourceError):
        parse_source(bad, sig)


@pytest.mark.parametrize("name", THEOREM_FILES + EXTRA_THEOREM_FILES)
def test_round_trip_corpus_statement(name):
    sig = builtin_signature()
    src = parse_source((CORPUS / name).read_text(), sig, name)
    (st,) = src.statements
    text = format_statement(st, sig)
    re_src = parse_source(text, sig, name + ":printed")
    (st2,) = re_src.statements
    assert normalize_goal(st.goal) == normalize_goal(st2.goal)


def test_round_trip_library_file():
    sig = builtin_signature()
    src = parse_source((CORPUS / "lib_full.hol").read_text(), sig, "lib_full.hol")
    text = "\n".join(format_statement(st, src.sig) for st in src.statements)
    re_src = parse_source(text, sig, "printed")
    for a, b in zip(src.statements, re_src.statements):
        if isinstance(a, DefLemma):
            assert alpha_beta_eq(a.template, b.template)
            assert alpha_beta_eq(a.proof, b.proof)
        elif isinstance(a, DefDefinition):
            assert alpha_beta_eq(a.typeinf, b.typeinf)
            assert alpha_beta_eq(a.body, b.body)


def _lexed(lex, text):
    """What a lexer makes of `text`: its tokens as tuples, or its error."""
    try:
        return [(t.kind, t.value, t.line, t.col) for t in lex(text, "f.hol")]
    except SourceError as e:
        return f"error {e}"


# the lexer's alphabet in pieces: tokens, prefixes of symbols, blanks,
# comments, and characters outside it
_LEX_PIECES = [
    "pi", "x", "X'", "_a1", "forall", "12", "0",
    "==>>", "<<==", "->", "=>", ":-", "(", ")", ".", ",", "\\",
    "=", "==", "==>", "<", "<<", "<<=", "-", ":", ">",
    " ", "  ", "\t", "\n", "\r\n", "\r", "%", "% note", "%%\n",
    "@", "é", "\f", " ", "٣",
]
_LEX_TEXTS = st.lists(
    st.sampled_from(_LEX_PIECES) | st.characters(codec="utf-8"), max_size=40
).map("".join)


@settings(max_examples=500, deadline=None)
@given(_LEX_TEXTS)
@example("proves refl x. % a comment at the end, no newline")
@example("a\r\n\tb %c\r\n  ==>> @")
@example("x.\n   % only a comment\n\t")
@example("  é")
def test_one_pattern_lexer_agrees_with_the_reference(text):
    assert _lexed(tokenize, text) == _lexed(props.ref_tokenize, text)


CORPUS_TOKEN_COUNTS = {
    "and_def.hol": 81,
    "assoc_def.hol": 987,
    "assoc_def_atomic.hol": 1580,
    "assoc_def_speclemma.hol": 1096,
    "assoc_via_lib.hol": 207,
    "lib_basic.hol": 190,
    "lib_full.hol": 853,
    "poly_lemmas.hol": 406,
    "symm_basic.hol": 52,
    "symm_implicit.hol": 129,
    "symm_lemma.hol": 123,
    "symm_trans.hol": 263,
    "symm_via_lib.hol": 43,
}


def test_corpus_token_counts_are_pinned():
    assert sorted(p.name for p in CORPUS.glob("*.hol")) == sorted(CORPUS_TOKEN_COUNTS)
    for name, count in CORPUS_TOKEN_COUNTS.items():
        text = (CORPUS / name).read_text()
        assert len(tokenize(text)) == count, name
        assert _lexed(tokenize, text) == _lexed(props.ref_tokenize, text), name


def test_parse_totality_on_fuzzed_input():
    rng = random.Random(7)
    alphabet = string.ascii_letters + string.digits + r" ()\.,%<>=-_'" + "\n"
    sig = builtin_signature()
    for _ in range(400):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 160)))
        try:
            parse_source(text, sig, "fuzz")
        except SourceError:
            pass  # a positioned diagnostic is the only acceptable rejection


def test_parse_totality_on_token_soup():
    rng = random.Random(8)
    toks = [
        "proves", "hastype", "refl", "eq", "intty", "pi", "(", ")", ".", ",",
        "\\", "X", "x", "imp", "<<==", "==>>", ":-", "=>", "form", "forall",
    ]
    sig = builtin_signature()
    for _ in range(400):
        text = " ".join(rng.choice(toks) for _ in range(rng.randrange(0, 40)))
        try:
            parse_source(text, sig, "soup")
        except SourceError:
            pass


def test_goal_expected_diagnostic():
    sig = builtin_signature()
    with pytest.raises(SourceError) as exc:
        parse_source("pi X\\ eq intty X X.", sig)
    assert "goal" in exc.value.message


def test_assump_argument_must_be_atomic():
    sig = builtin_signature()
    for arg in (r"(pi X\ proves P A)", "P"):  # a quantified goal, a bound variable
        with pytest.raises(SourceError, match="must be an atomic goal"):
            parse_goal(rf"pi P\ pi A\ (assump {arg} ==>> proves P A)", sig)
    g = parse_goal(r"pi P\ pi A\ (assump (proves P A) ==>> proves P A)", sig)
    assert g is not None


def test_impl_prints_with_head_first():
    sig = builtin_signature()
    g = parse_goal(r"pi A\ (hastype A form ==>> hastype A form)", sig)
    assert "<<==" in format_goal(g, sig)


# Inputs with exactly one error, and the exact diagnostic each gets.
SINGLE_ERROR_DIAGNOSTICS = {
    "pi X\\ eq intty X X.": "1:18: expected a goal here",
    "proves refl (eq intty false false), eq intty false false.":
        "1:52: expected a goal here",
    "pi P\\ pi A\\ (assump P ==>> proves P A).":
        "1:14: argument of 'assump' must be an atomic goal",
    "proves refl.": "1:1: predicate 'proves' expects 2 argument(s), got 1",
    # a predicate's arity is checked before its arguments' meta-types
    "proves refl refl refl.": "1:1: predicate 'proves' expects 2 argument(s), got 3",
    "hastype false form form.": "1:1: predicate 'hastype' expects 2 argument(s), got 3",
    "type rel tm -> tm -> o. infixr rel 5. "
    "proves (extractGoal (false rel false) refl) false.":
        "1:66: expected a goal here",
    "proves refl (eq intty mystery false).": "1:23: undeclared constant 'mystery'",
    "proves refl (eq intty X false).": "1:23: unbound capitalized identifier 'X'",
    # a meta-type error is reported at its own token: an application's at
    # its argument, however far below the statement's keyword it sits
    META_TYPE_ERROR: "2:23: meta-type mismatch in application eq intty refl: tm vs pf",
    "type s pf.\ndef_lemma s\n  (S\\ pi A\\\n    proves S (eq intty A A))\n"
    "  % the proof, four lines below the keyword\n    (congr intty refl refl).\n":
        "6:18: meta-type mismatch in application congr intty refl: tm vs pf",
    # an unsolved meta-type at the binder or constant that made it
    "proves (elam Q\\ refl) false.": "1:14: cannot infer a ground meta-type for binder 'Q'",
    "proves (elam elam) false.": "1:14: cannot infer a ground meta-type for constant 'elam'",
    # a definition's argument of the wrong meta-type at its first token
    "type s pf.\ndef_lemma s (S\\ proves (S refl) false) (refl).":
        "2:13: meta-type mismatch in declared meta-type: pf -> pf vs pf",
    "type s pf.\ndef_lemma s (S\\ proves S false) (false).":
        "2:33: meta-type mismatch in declared meta-type: tm vs pf",
}


@pytest.mark.parametrize("text", SINGLE_ERROR_DIAGNOSTICS)
def test_single_error_diagnostic_is_pinned(text):
    with pytest.raises(SourceError) as exc:
        parse_source(text, builtin_signature())
    assert str(exc.value) == SINGLE_ERROR_DIAGNOSTICS[text]


@pytest.mark.parametrize(
    "open_, close",
    [("(app form (lam X\\ X) ", ")"), ("(", " imp false)")],
    ids=["app", "imp"],
)
def test_deep_nesting_parses_without_recursion_error(open_, close):
    text = "hastype " + open_ * 300 + "false" + close * 300 + " form."
    (st,) = parse_source(text, builtin_signature()).statements
    assert isinstance(st, Solve)


# A statement reports its first error in reading order; a definition's name
# is checked, at its own token, before its arguments are read.
@pytest.mark.parametrize(
    "text, message",
    [
        ("tYgj (", "1:1: undeclared constant 'tYgj'"),
        ("(def_lemma a b c).", "1:2: undeclared constant 'def_lemma'"),
        ("(proves refl x) y.", "1:14: undeclared constant 'x'"),
        ("def_lemma a b c.", "1:11: def_lemma for undeclared name 'a'"),
        ("def_definition form b c d.", "1:21: def_definition for undeclared name 'b'"),
        ("type s pf. def_lemma s (S\\ proves S false).",
         "1:43: def_lemma expects: name, statement template, proof"),
        # an infix name reads as an operator unless parenthesized
        ("def_lemma imp (I\\ hastype (I false false) form) (a\\ b\\ a).",
         "1:11: def_lemma expects: name, statement template, proof"),
        # a mismatch inside a subterm comes before the checks where an
        # enclosing construct ends: here the infix application and the goal
        ("refl imp (eq intty refl false).",
         "1:20: meta-type mismatch in application eq intty refl: tm vs pf"),
    ],
)
def test_first_error_in_reading_order_is_reported(text, message):
    with pytest.raises(SourceError) as exc:
        parse_source(text, builtin_signature())
    assert str(exc.value) == message


def test_parentheses_around_a_predicate_head_are_transparent():
    sig = builtin_signature()
    plain = parse_goal("proves refl (eq intty false false)", sig)
    for text in ("(proves refl) (eq intty false false)", "((proves) refl) (eq intty false false)"):
        assert parse_goal(text, sig) == plain
    with pytest.raises(SourceError, match="1:2: predicate 'proves' expects 2 argument"):
        parse_goal("(proves refl) , proves refl false", sig)
    lib = "type s pf -> pf.\ndef_lemma {} (S\\ pi P\\ proves (S P) false) (P\\ P).\n"
    bare, paren = (parse_source(lib.format(n), sig).statements for n in ("s", "(s)"))
    assert repr(bare) == repr(paren)


def test_meta_type_error_names_its_site_by_source_text():
    # a variable bound outside the failing application keeps its name
    with pytest.raises(SourceError) as exc:
        parse_source(
            "proves (forall_i x\\ extract (eq intty x x) refl lemma_pf) false.",
            builtin_signature(),
        )
    assert "in application extract (eq intty x x) refl lemma_pf: pf vs" in str(exc.value)


@pytest.mark.parametrize("assoc", ["infixl", "infixr"])
def test_a_high_precedence_infix_is_bare_as_an_infix_operand_and_parenthesized_as_an_argument(
    assoc, tmp_path
):
    # precedence 12 binds tighter than any built-in infix but looser than
    # application: an operand of `f` needs no parentheses, an argument of
    # `g` does
    text = (
        f"type f tm -> tm -> tm.\ntype g tm -> tm.\n{assoc} f 12.\n"
        "proves refl (eq intty (false f false f false) (g (false f false))).\n"
    )
    src, once, twice = (tmp_path / n for n in ("in.hol", "once.hol", "twice.hol"))
    src.write_text(text)
    assert main(["fmt", str(src), "-o", str(once)]) == 0
    assert main(["fmt", str(once), "-o", str(twice)]) == 0
    assert once.read_text() == text
    assert twice.read_text() == text


# -- the front end against the reference in props.py -------------------------


def _shape(x):
    """`x` with every term spelled out, a binder's hint included (a `Lam`'s
    equality ignores it)."""
    if isinstance(x, Lam):
        return "lam", x.mt, x.hint, _shape(x.body)
    if isinstance(x, App):
        return "app", _shape(x.head), tuple(map(_shape, x.args))
    if isinstance(x, (Const, Bound)):
        return repr(x), x
    if isinstance(x, (tuple, list)):
        return type(x).__name__, tuple(map(_shape, x))
    return x


def _front_end(parse, text, sig):
    """What a front end makes of `text`: its statements, or its error."""
    try:
        return _shape(parse(text, sig, "m.hol").statements)
    except SourceError as e:
        return type(e), e.message, e.line, e.col, e.path


def _sources():
    """The corpus files and the negatives, each with its signature."""
    with_lib = parse_source((CORPUS / "lib_full.hol").read_text(), builtin_signature()).sig
    out = []
    for f in sorted(CORPUS.glob("*.hol")):
        sig = with_lib if f.name.endswith("_via_lib.hol") else builtin_signature()
        out.append((f.read_text(), sig))
    for _, text, libs, _ in CASES:
        out.append((text, with_lib if libs else builtin_signature()))
    return out


def _mutate(rng, text):
    """`text` with one token deleted, duplicated or swapped with the next,
    a parenthesis dropped, or an identifier renamed (a token deleted, if
    `text` has no parenthesis or no identifier)."""
    starts = [0]
    for line in text.split("\n"):
        starts.append(starts[-1] + len(line) + 1)
    toks = [(starts[t.line - 1] + t.col - 1, t) for t in tokenize(text)[:-1]]
    kind = rng.choice(("delete", "duplicate", "swap", "paren", "rename"))
    if kind == "paren":
        toks = [p for p in toks if p[1].value in "()"] or toks
    elif kind == "rename":
        idents = [p for p in toks if p[1].kind == "ident"]
        if idents:
            names = sorted({t.value for _, t in idents}) + ["Fresh", "fresh", "pi", "o"]
            off, t = rng.choice(idents)
            return text[:off] + rng.choice(names) + text[off + len(t.value) :]
        kind = "delete"
    k = rng.randrange(len(toks))
    off, t = toks[k]
    end = off + len(t.value)
    if kind == "duplicate":
        return text[:end] + " " + t.value + text[end:]
    if kind == "swap" and k + 1 < len(toks):
        off2, t2 = toks[k + 1]
        return text[:off] + t2.value + text[end:off2] + t.value + text[off2 + len(t2.value) :]
    return text[:off] + text[end:]


def test_the_front_end_agrees_with_the_reference_on_the_corpus_and_the_negatives():
    files = len(list(CORPUS.glob("*.hol")))  # `_sources` lists them first
    for k, (text, sig) in enumerate(_sources()):
        got = _front_end(parse_source, text, sig)
        assert got == _front_end(props.ref_parse_source, text, sig)
        assert k >= files or got[0] == "list"  # a corpus file parses


def test_the_front_end_agrees_with_the_reference_on_mutated_sources():
    rng = random.Random(24)
    sources = _sources()
    errors = 0
    for n in range(2000):
        text, sig = rng.choice(sources)
        text = _mutate(rng, text)
        got = _front_end(parse_source, text, sig)
        assert got == _front_end(props.ref_parse_source, text, sig), (n, text)
        errors += isinstance(got[0], type)
    assert 500 < errors < 2000  # both outcomes are exercised
