"""Concrete syntax: lexer, parser and printer for `.hol` files.

One grammar serves library files and check files.  Statements end with
`.`; `%` starts a line comment.  A statement is a goal unless it starts
with a keyword: `type`, `infixr`, `infixl`, `def_lemma` or
`def_definition`.  Backslash lambdas and `pi` binders extend maximally to
the right; the infix table drives both parsing and printing.  `=>` and
`:-` are accepted and normalized to the stored implication form.

The parser builds terms in one pass: it resolves each name as it reads
it, and checks goals and predicate applications where they end, so a
statement reports its first error in reading order.
"""

from __future__ import annotations

import re
from collections import namedtuple
from operator import attrgetter

from .errors import MetaTypeError, SourceError
from .infer import Inference, elaborate_goal, elaborate_term
from .signature import GOAL_FORMERS, Signature
from .terms import (
    App,
    Arrow,
    Base,
    Bound,
    Const,
    Lam,
    Meta,
    MetaType,
    O,
    Term,
    BASE_NAMES,
    app,
    arg_types,
    deref,
)

# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# One alternation, tried left to right after the blanks that lead each
# match: a newline, a `%` comment, the token kinds (a symbol before its
# prefixes), the end of the text, and any other character, which is `bad`.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<newline>\n)|(?P<comment>%[^\n]*)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_']*)|(?P<int>[0-9]+)"
    r"|(?P<sym>==>>|<<==|->|=>|:-|[().,\\])|\Z|(?P<bad>.))",
    re.DOTALL,
)
_KINDS = frozenset(("ident", "int", "sym"))


class Token:
    __slots__ = ("kind", "value", "line", "col")
    _key = attrgetter(*__slots__)

    def __init__(self, kind, value, line, col):
        self.kind = kind  # ident | int | sym | eof
        self.value = value
        self.line = line
        self.col = col

    def __eq__(self, other):
        return other.__class__ is Token and self._key(self) == other._key(other)

    def __repr__(self):
        return f"Token(kind={self.kind!r}, value={self.value!r}, line={self.line}, col={self.col})"


def tokenize(text, path=None):
    """The tokens of `text`, ending with one `eof`.  A token's column is one
    plus the number of characters before it on its line; a comment ending
    the text does not count toward `eof`'s."""
    toks = []
    line, start = 1, 0  # the current line and the offset it starts at
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind in _KINDS:
            toks.append(Token(kind, m.group(kind), line, m.start(kind) - start + 1))
        elif kind == "newline":
            line += 1
            start = m.end()
        elif kind == "bad":
            col = m.start(kind) - start + 1
            raise SourceError(f"unexpected character {m.group(kind)!r}", line, col, path)
    last = text[start:].partition("%")[0]  # the last line, up to its comment
    toks.append(Token("eof", "", line, len(last) + 1))
    return toks


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


TypeDecl = namedtuple("TypeDecl", "name mt pos")
InfixDecl = namedtuple("InfixDecl", "name assoc prec pos")
# `template` and `typeinf` abstract over the entry's name; their bodies are of meta-type o
DefLemma = namedtuple("DefLemma", "name meta_type template proof pos")
DefDefinition = namedtuple("DefDefinition", "name meta_type result_tp typeinf body pos")
Solve = namedtuple("Solve", "goal pos")
SourceFile = namedtuple("SourceFile", "statements path", defaults=(None,))


class Parser:
    """Reads statements, building and typing their terms as it goes, with an
    `Inference`, `self.inf`, per statement and per `def_*` argument.
    Expression methods take the binder scope ((name, meta-type) pairs,
    innermost first) and return `(term, meta-type, pos)`; `pos` names the
    expression in a diagnostic: an infix's operator, an application's last
    argument, or an identifier's or binder's token.  An application is
    unified where it is built, and a mismatch reported at its `pos`; but a
    predicate's application is checked where it ends, its meta-type being
    till then the list of its arguments' `(meta-type, pos)`.  With
    `head` set, one ending at `)` is left unchecked."""

    def __init__(self, tokens, sig: Signature):
        self.toks = tokens + tokens[-1:] * 2  # `peek` reads up to two past `eof`
        self.i = 0
        self.sig = sig  # working copy, extended by declarations
        self.inf = Inference()

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead=0):
        return self.toks[self.i + ahead]

    def next(self):
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def fail(self, msg, tok=None):
        tok = tok or self.peek()
        raise SourceError(msg, tok.line, tok.col)

    def expect_sym(self, s):
        t = self.next()
        if t.kind != "sym" or t.value != s:
            self.fail(f"expected '{s}', found '{t.value or 'end of input'}'", t)
        return t

    def expect_ident(self):
        t = self.next()
        if t.kind != "ident":
            self.fail(f"expected an identifier, found '{t.value or 'end of input'}'", t)
        return t

    # -- statements ----------------------------------------------------------

    def parse_file(self):
        stmts = []
        while self.peek().kind != "eof":
            stmts.append(self.parse_statement())
        return stmts

    def parse_statement(self):
        t = self.peek()
        if t.kind == "ident" and t.value == "type":
            return self.parse_type_decl()
        if t.kind == "ident" and t.value in ("infixr", "infixl"):
            return self.parse_infix_decl()
        if t.kind == "ident" and t.value in ("def_lemma", "def_definition"):
            return self.parse_def()
        if t.kind == "ident" and t.value == "kind":
            self.fail("kind declarations are not supported; the base meta-types are fixed")
        pos = (t.line, t.col)
        self.inf = Inference()
        g, _, gpos = self.parse_expr(0, [])
        self.expect_sym(".")
        self.check_goal(g, gpos)
        return Solve(elaborate_goal(g, self.inf), pos)

    def parse_type_decl(self):
        t0 = self.next()  # 'type'
        name = self.expect_ident()
        mt = self.parse_meta_type()
        self.expect_sym(".")
        pos = (t0.line, t0.col)
        self.sig.declare(name.value, mt, pos)
        return TypeDecl(name.value, mt, pos)

    def parse_infix_decl(self):
        t0 = self.next()
        assoc = "right" if t0.value == "infixr" else "left"
        name = self.expect_ident()
        prec = self.next()
        if prec.kind != "int":
            self.fail("expected a precedence number", prec)
        self.expect_sym(".")
        pos = (t0.line, t0.col)
        self.sig.declare_infix(name.value, assoc, int(prec.value), pos)
        return InfixDecl(name.value, assoc, int(prec.value), pos)

    def parse_meta_type(self):
        left = self.parse_meta_atom()
        if _is_sym(self.peek(), "->"):
            self.next()
            return Arrow(left, self.parse_meta_type())
        return left

    def parse_meta_atom(self):
        t = self.next()
        if t.kind == "sym" and t.value == "(":
            mt = self.parse_meta_type()
            self.expect_sym(")")
            return mt
        if t.kind == "ident" and t.value in BASE_NAMES:
            return Base(t.value)
        self.fail(f"expected a meta-type, found '{t.value or 'end of input'}'", t)

    def parse_def(self):
        """`def_lemma NAME TEMPLATE PROOF.` or `def_definition RESULT NAME TEMPLATE BODY.`"""
        t0 = self.next()
        kw, pos, lemma = t0.value, (t0.line, t0.col), t0.value == "def_lemma"
        usage = f"{kw} expects: " + (
            "name, statement template, proof"
            if lemma
            else "result type, name, typing template, body"
        )
        args = [] if lemma else [self.parse_arg()]
        parens = 0
        while _is_sym(self.peek(), "("):  # around the name
            parens += 1
            self.next()
        name = self.next()
        if name.kind != "ident" or not parens and self.sig.fixity(name.value):
            self.fail(usage, name)
        sch = self.sig.lookup(name.value)
        if sch is None or lemma and name.value in ("proves", "hastype", "assump"):
            self.fail(f"{kw} for undeclared name '{name.value}'", name)
        for _ in range(parens):
            self.expect_sym(")")
        while (arg := self.parse_arg()) is not None:
            args.append(arg)
        end = self.expect_sym(".")
        if None in args or len(args) != (2 if lemma else 3):
            self.fail(usage, end)
        a = sch.body
        expect = [Arrow(a, O), a] if lemma else [Base("tp"), Arrow(a, O), a]
        parts = [elaborate_term(t, mt, inf, e, apos) for (t, mt, inf, apos), e in zip(args, expect)]
        return (DefLemma if lemma else DefDefinition)(name.value, a, *parts, pos)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, min_prec, scope, head=False):
        left, mt, pos = self.parse_app(scope, head)
        while True:
            t = self.peek()
            fix = self.sig.fixity(t.value)
            if fix is None or fix[1] < min_prec:
                return left, mt, pos
            assoc, prec = fix
            op = self.next().value
            if self.sig.is_predicate(op):
                # infix syntax makes no atom, so this would be no goal
                self.fail("expected a goal here", t)
            former = op in (",", "==>>", "=>", "<<==", ":-")
            if former:
                self.check_goal(left, pos)
            right, rmt, rpos = self.parse_expr(prec + 1 if assoc == "left" else prec, scope)
            if former:  # a goal; `=>` takes the clause first
                self.check_goal(right, rpos)
                if op in ("<<==", ":-"):
                    left, mt, right, rmt = right, rmt, left, mt
                op = "," if op == "," else "=>"
            pos = (t.line, t.col)
            fmt = self.inf.instantiate(GOAL_FORMERS.get(op) or self.sig.lookup(op), pos)
            c = Const(op, fmt)
            fmt = self.apply(c, (left,), fmt, mt, pos, scope)
            left = App(c, (left, right))
            mt = self.apply(c, left.args, fmt, rmt, pos, scope)

    def at_binder(self):
        toks, i = self.toks, self.i
        t = toks[i]
        if t.kind != "ident":
            return False
        if t.value == "pi":
            return toks[i + 1].kind == "ident" and toks[i + 2].value == "\\"
        return toks[i + 1].value == "\\"

    def parse_binder(self, scope):
        t = self.next()
        pos, pi = (t.line, t.col), t.value == "pi"
        if pi:  # its instance is made before its binder's variable
            fmt = self.inf.instantiate(GOAL_FORMERS["pi"], pos)
            t = self.next()
        self.next()  # the backslash
        dom = self.inf.fresh((t.line, t.col))
        body, bmt, bpos = self.parse_expr(0, [(t.value, dom)] + scope)
        lam, lmt = Lam(dom, body, hint=t.value), Arrow(dom, bmt)
        if not pi:
            return lam, lmt, pos
        self.check_goal(body, bpos)
        g = App(Const("pi", fmt), (lam,))
        return g, self.apply(g.head, g.args, fmt, lmt, pos, scope), pos

    def parse_app(self, scope, head=False):
        if self.at_binder():
            return self.parse_binder(scope)
        start = self.i
        fn, mt, pos = self.parse_primary(scope, True)
        args = []
        while True:
            t = self.peek()
            if self.at_binder():
                # a trailing lambda swallows the rest of the expression
                arg, amt, pos = self.parse_binder(scope)
            elif t.kind == "ident" and not self.sig.fixity(t.value) or _is_sym(t, "("):
                arg, amt, _ = self.parse_primary(scope)
                pos = (t.line, t.col)
            else:
                break
            args.append(arg)
            if isinstance(mt, list):  # a predicate's arguments wait for its arity
                mt.append((amt, pos))
            else:
                mt = self.apply(fn, args, mt, amt, pos, scope)
        if args:
            fn = app(fn, *args)
        if head and _is_sym(t, ")"):
            return fn, mt, pos
        return *self.check_atom(fn, mt, start, scope), pos

    def parse_arg(self):
        """A statement keyword's argument as `(term, meta-type, its own
        Inference, pos of its first token)`, or None.  (`parse_app` reads its
        own inline: a call per argument would cost a frame per level.)"""
        t = self.peek()
        self.inf = Inference()
        if self.at_binder():
            e = self.parse_binder([])
        elif t.kind == "ident" and not self.sig.fixity(t.value) or _is_sym(t, "("):
            e = self.parse_primary([])
        else:
            return None
        return e[0], e[1], self.inf, (t.line, t.col)

    def parse_primary(self, scope, head=False):
        t = self.next()
        if _is_sym(t, "("):
            e = self.parse_expr(0, scope, head)
            self.expect_sym(")")
            return e
        if t.kind != "ident":
            self.fail(f"unexpected '{t.value or 'end of input'}'", t)
        name, pos = t.value, (t.line, t.col)
        for i, (n, mt) in enumerate(scope):
            if n == name:
                return Bound(i), mt, pos
        sch = self.sig.lookup(name)
        if sch is None:
            what = "unbound capitalized identifier" if name[0].isupper() else "undeclared constant"
            self.fail(f"{what} '{name}'", t)
        if self.sig.is_predicate(name):
            c = Const(name, sch.body)
            return (c, [], pos) if head else (*self.check_atom(c, [], self.i - 1, scope), pos)
        mt = self.inf.instantiate(sch, pos)
        return Const(name, mt), mt, pos

    # -- typing --------------------------------------------------------------

    def apply(self, head, args, fmt, amt, pos, scope):
        """The meta-type of `head` applied to `args`, whose last argument, of
        meta-type `amt`, is applied to a function of meta-type `fmt`; a
        mismatch is reported at `pos`, naming that application by its
        source text, which is built only then."""
        where = lambda: (
            f"application {format_term(app(head, *args), self.sig, [n for n, _ in scope])}"
        )
        return self.inf.apply(fmt, amt, where, pos)

    # -- checks where a construct ends ---------------------------------------

    def check_atom(self, t, mt, i, scope):
        """Check `t` where its application ends, if it applies a predicate
        (`mt` lists its applications): its arity and atomic-goal arguments,
        then each application's meta-type.  `i` indexes the first token of
        its head.  Returns `(t, meta-type)`."""
        if not isinstance(mt, list):
            return t, mt
        h, args = (t.head, t.args) if isinstance(t, App) else (t, ())
        while _is_sym(self.toks[i], "("):  # the head was parenthesized
            i += 1
        tok = self.toks[i]
        want = arg_types(h.mt)
        if len(args) != len(want):
            self.fail(f"predicate '{h.name}' expects {len(want)} argument(s), got {len(args)}", tok)
        for a, w in zip(args, want):
            if w == O and not self.sig.is_predicate(_head_name(a)):
                raise MetaTypeError(
                    f"argument of '{h.name}' must be an atomic goal", tok.line, tok.col
                )
        fmt = h.mt
        for k, (amt, pos) in enumerate(mt):
            fmt = self.apply(h, args[: k + 1], fmt, amt, pos, scope)
        return t, fmt

    def check_goal(self, t, pos):
        name = _head_name(t)
        if not (name in GOAL_FORMERS or self.sig.is_predicate(name)):
            raise SourceError("expected a goal here", *pos)


def _is_sym(tok, s):
    return tok.value == s  # no other kind of token has a symbol's text


def _head_name(t):
    # the name of the constant at the head of `t`, else None; a parsed
    # former or predicate is applied at its arity where it is built
    h = t.head if isinstance(t, App) else t
    return h.name if isinstance(h, Const) else None


# ---------------------------------------------------------------------------
# Public parsing entry points
# ---------------------------------------------------------------------------


def parse_source(text, sig: Signature, path=None) -> SourceFile:
    """Parse a whole `.hol` source.  `sig` itself is not modified."""
    p = Parser(tokenize(text, path), sig.copy())
    try:
        stmts = p.parse_file()
    except SourceError as e:
        if e.path is None:
            e.path = path
        raise
    return SourceFile(stmts, path)


def parse_term(text, sig: Signature, expect: MetaType = None) -> Term:
    """Parse and annotate a single term expression (testing convenience)."""
    p = Parser(tokenize(text), sig.copy())
    t, mt, pos = p.parse_expr(0, [])
    if p.peek().kind != "eof":
        p.fail("trailing input after term")
    return elaborate_term(t, mt, p.inf, expect, pos)


def parse_goal(text, sig: Signature) -> Term:
    p = Parser(tokenize(text), sig.copy())
    g, _, pos = p.parse_expr(0, [])
    if p.peek().kind != "eof":
        p.fail("trailing input after goal")
    p.check_goal(g, pos)
    return elaborate_goal(g, p.inf)


def apply_declarations(stmts, sig: Signature):
    """Replay the declarations of parsed statements onto `sig`."""
    for st in stmts:
        if isinstance(st, TypeDecl):
            sig.declare(st.name, st.mt, st.pos)
        elif isinstance(st, InfixDecl):
            sig.declare_infix(st.name, st.assoc, st.prec, st.pos)


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

_APP_PREC = 9
# the context of an application's head or argument: every infix, lambda and
# application there is parenthesized, whatever its precedence
_ARG = float("inf")


def _pick_name(hint, names, sig, depth):
    ok = (
        hint
        and hint not in names
        and sig.lookup(hint) is None
        and hint not in ("pi", "type", "infixr", "infixl", "def_lemma", "def_definition", "kind")
    )
    if ok:
        return hint
    n = depth + 1
    while True:
        cand = f"x{n}"
        if cand not in names and sig.lookup(cand) is None:
            return cand
        n += 1


def format_term(t, sig: Signature, names=(), prec=0) -> str:
    return _fmt(t, sig, list(names), prec)


def format_goal(g, sig: Signature, names=(), prec=0) -> str:
    # a function of its own, not an alias, so that bench/tracer.py can
    # wrap it and format_term separately
    return _fmt(g, sig, list(names), prec)


def _fmt(t, sig, names, req):
    t = deref(t)
    if isinstance(t, Const):
        return t.name
    if isinstance(t, Bound):
        return names[t.index] if t.index < len(names) else f"_{t.index}"
    if isinstance(t, Meta):
        return f"?{t.cell.birth}"
    if isinstance(t, Lam):
        return _fmt_binder("", t, sig, names, req)
    if not isinstance(t, App):
        return repr(t)
    head, args = t.head, t.args
    name = head.name if isinstance(head, Const) else None
    if name == "pi" and len(args) == 1 and isinstance(args[0], Lam):
        return _fmt_binder("pi ", args[0], sig, names, req)
    if name == "=>" and len(args) == 2:
        s = f"{_fmt(args[1], sig, names, 1)} <<== {_fmt(args[0], sig, names, 1)}"
        return f"({s})" if req > 0 else s
    fix = sig.fixity(name) if len(args) == 2 else None
    if fix:
        assoc, p = fix
        l = _fmt(args[0], sig, names, p + 1 if assoc == "right" else p)
        r = _fmt(args[1], sig, names, p if assoc == "right" else p + 1)
        s = f"{l}, {r}" if name == "," else f"{l} {name} {r}"
        return f"({s})" if req > p else s
    parts = [_fmt(head, sig, names, _ARG)]
    parts += [_fmt(a, sig, names, _ARG) for a in args]
    s = " ".join(parts)
    return f"({s})" if req > _APP_PREC else s


def _fmt_binder(keyword, lam, sig, names, req):
    name = _pick_name(lam.hint, names, sig, len(names))
    s = f"{keyword}{name}\\ {_fmt(lam.body, sig, [name] + names, 0)}"
    return f"({s})" if req > 0 else s


def format_statement(st, sig: Signature) -> str:
    if isinstance(st, TypeDecl):
        return f"type {st.name} {st.mt}."
    if isinstance(st, InfixDecl):
        kw = "infixr" if st.assoc == "right" else "infixl"
        return f"{kw} {st.name} {st.prec}."
    if isinstance(st, DefLemma):
        return (
            f"def_lemma {st.name}\n"
            f"  ({format_term(st.template, sig)})\n"
            f"  ({format_term(st.proof, sig)})."
        )
    if isinstance(st, DefDefinition):
        return (
            f"def_definition {format_term(st.result_tp, sig)} {st.name}\n"
            f"  ({format_term(st.typeinf, sig)})\n"
            f"  ({format_term(st.body, sig)})."
        )
    if isinstance(st, Solve):
        return f"{format_goal(st.goal, sig)}."
    raise TypeError(f"not a statement: {st!r}")
