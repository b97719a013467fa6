"""Concrete syntax: lexer, parser and printer for `.hol` files.

One grammar serves library files and check files.  Statements end with
`.`; `%` starts a line comment.  Backslash lambdas and `pi` binders
extend maximally to the right; the infix table drives both parsing and
printing.  `=>` and `:-` are accepted and normalized to the stored
implication form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .errors import SourceError
from .infer import elaborate_goal, elaborate_term
from .signature import Signature
from .terms import (
    All,
    App,
    Arrow,
    Atom,
    Base,
    Bound,
    Conj,
    Const,
    Goal,
    Impl,
    Lam,
    Meta,
    MetaType,
    O,
    Term,
    BASE_NAMES,
    arg_types,
    deref,
    plain_spine,
)

# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_SYMBOLS = ("==>>", "<<==", "->", "=>", ":-", "(", ")", ".", ",", "\\")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_INT = re.compile(r"[0-9]+")


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | sym | eof
    value: str
    line: int
    col: int


def tokenize(text, path=None):
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        m = _IDENT.match(text, i)
        if m:
            toks.append(Token("ident", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = _INT.match(text, i)
        if m:
            toks.append(Token("int", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        for s in _SYMBOLS:
            if text.startswith(s, i):
                toks.append(Token("sym", s, line, col))
                col += len(s)
                i += len(s)
                break
        else:
            raise SourceError(f"unexpected character {c!r}", line, col, path)
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Surface expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SId:
    name: str
    pos: tuple


@dataclass(frozen=True)
class SApp:
    fn: object
    arg: object
    pos: tuple


@dataclass(frozen=True)
class SLam:
    name: str
    body: object
    pos: tuple


@dataclass(frozen=True)
class SPi:
    name: str
    body: object
    pos: tuple


@dataclass(frozen=True)
class SOp:
    op: str
    left: object
    right: object
    pos: tuple


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class TypeDecl:
    name: str
    mt: MetaType
    pos: tuple


@dataclass
class InfixDecl:
    name: str
    assoc: str
    prec: int
    pos: tuple


@dataclass
class DefLemma:
    name: str
    meta_type: MetaType
    template: Term  # abstraction over the lemma name, body of meta-type o
    proof: Term
    pos: tuple


@dataclass
class DefDefinition:
    name: str
    meta_type: MetaType
    result_tp: Term
    typeinf: Term  # abstraction over the definition name, body of meta-type o
    body: Term
    pos: tuple


@dataclass
class Solve:
    goal: Goal
    pos: tuple


@dataclass
class SourceFile:
    statements: list
    path: Optional[str] = None


class Parser:
    def __init__(self, tokens, sig: Signature, path=None):
        self.toks = tokens
        self.i = 0
        self.sig = sig  # working copy, extended by declarations
        self.path = path

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead=0):
        j = min(self.i + ahead, len(self.toks) - 1)
        return self.toks[j]

    def next(self):
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def fail(self, msg, tok=None):
        tok = tok or self.peek()
        raise SourceError(msg, tok.line, tok.col, self.path)

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
        if t.kind == "ident" and t.value == "kind":
            self.fail("kind declarations are not supported; the base meta-types are fixed")
        pos = (t.line, t.col)
        expr = self.parse_expr(0)
        self.expect_sym(".")
        head, args = _sapp_spine(expr)
        if isinstance(head, SId) and head.name == "def_lemma":
            return self.build_def_lemma(head, args)
        if isinstance(head, SId) and head.name == "def_definition":
            return self.build_def_definition(head, args)
        g = self.resolve_goal(expr, [])
        g = elaborate_goal(g, self.sig, pos=pos)
        return Solve(g, pos)

    def parse_type_decl(self):
        t0 = self.next()  # 'type'
        name = self.expect_ident()
        mt = self.parse_meta_type()
        self.expect_sym(".")
        pos = (t0.line, t0.col)
        try:
            self.sig.declare(name.value, mt, pos)
        except SourceError as e:
            e.path = self.path
            raise
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
        try:
            self.sig.declare_infix(name.value, assoc, int(prec.value), pos)
        except SourceError as e:
            e.path = self.path
            raise
        return InfixDecl(name.value, assoc, int(prec.value), pos)

    def parse_meta_type(self):
        left = self.parse_meta_atom()
        t = self.peek()
        if t.kind == "sym" and t.value == "->":
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

    def build_def_lemma(self, head, args):
        if len(args) != 3 or not isinstance(args[0], SId):
            self.fail("def_lemma expects: name, statement template, proof", self.toks[self.i - 1])
        name = args[0].name
        sch = self.sig.lookup(name)
        if sch is None or name in ("proves", "hastype", "assump"):
            self.fail(f"def_lemma for undeclared name '{name}'", self.toks[self.i - 1])
        a = sch.body
        tpl = self.resolve_term(args[1], [])
        tpl, _ = elaborate_term(tpl, self.sig, expect=Arrow(a, O), pos=head.pos)
        prf = self.resolve_term(args[2], [])
        prf, _ = elaborate_term(prf, self.sig, expect=a, pos=head.pos)
        return DefLemma(name, a, tpl, prf, head.pos)

    def build_def_definition(self, head, args):
        if len(args) != 4 or not isinstance(args[1], SId):
            self.fail(
                "def_definition expects: result type, name, typing template, body",
                self.toks[self.i - 1],
            )
        name = args[1].name
        sch = self.sig.lookup(name)
        if sch is None:
            self.fail(f"def_definition for undeclared name '{name}'", self.toks[self.i - 1])
        a = sch.body
        res = self.resolve_term(args[0], [])
        res, _ = elaborate_term(res, self.sig, expect=Base("tp"), pos=head.pos)
        tpl = self.resolve_term(args[2], [])
        tpl, _ = elaborate_term(tpl, self.sig, expect=Arrow(a, O), pos=head.pos)
        body = self.resolve_term(args[3], [])
        body, _ = elaborate_term(body, self.sig, expect=a, pos=head.pos)
        return DefDefinition(name, a, res, tpl, body, head.pos)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, min_prec):
        left = self.parse_app()
        while True:
            fix = self.peek_fixity()
            if fix is None:
                return left
            opname, (assoc, prec, _kind) = fix
            if prec < min_prec:
                return left
            t = self.next()
            rhs = self.parse_expr(prec + 1 if assoc == "left" else prec)
            left = SOp(opname, left, rhs, (t.line, t.col))

    def peek_fixity(self):
        t = self.peek()
        if t.kind == "ident" and self.sig.fixity(t.value):
            return t.value, self.sig.fixity(t.value)
        if t.kind == "sym" and self.sig.fixity(t.value):
            return t.value, self.sig.fixity(t.value)
        return None

    def at_binder(self):
        t = self.peek()
        if t.kind != "ident":
            return False
        if t.value == "pi":
            return self.peek(1).kind == "ident" and _is_sym(self.peek(2), "\\")
        return _is_sym(self.peek(1), "\\")

    def parse_binder(self):
        t = self.next()
        if t.value == "pi":
            name = self.expect_ident()
            self.expect_sym("\\")
            body = self.parse_expr(0)
            return SPi(name.value, body, (t.line, t.col))
        self.expect_sym("\\")
        body = self.parse_expr(0)
        return SLam(t.value, body, (t.line, t.col))

    def parse_app(self):
        if self.at_binder():
            return self.parse_binder()
        out = self.parse_primary()
        while True:
            if self.at_binder():
                # a trailing lambda swallows the rest of the expression
                arg = self.parse_binder()
                return SApp(out, arg, arg.pos)
            t = self.peek()
            if t.kind == "ident" and not self.sig.fixity(t.value):
                self.next()
                out = SApp(out, SId(t.value, (t.line, t.col)), (t.line, t.col))
            elif _is_sym(t, "("):
                arg = self.parse_primary()
                out = SApp(out, arg, (t.line, t.col))
            else:
                return out

    def parse_primary(self):
        t = self.next()
        if _is_sym(t, "("):
            e = self.parse_expr(0)
            self.expect_sym(")")
            return e
        if t.kind == "ident":
            return SId(t.value, (t.line, t.col))
        self.fail(f"unexpected '{t.value or 'end of input'}'", t)

    # -- resolution to terms and goals ---------------------------------------

    def resolve_term(self, e, scope):
        """Resolve to a term; its syntactic shape tells whether it is a goal."""
        if isinstance(e, SOp):
            if e.op in ("==>>", "=>"):
                return Impl(self.resolve_goal(e.left, scope), self.resolve_goal(e.right, scope))
            if e.op in ("<<==", ":-"):
                return Impl(self.resolve_goal(e.right, scope), self.resolve_goal(e.left, scope))
            if e.op == ",":
                return Conj(self.resolve_goal(e.left, scope), self.resolve_goal(e.right, scope))
            # term-level infix operator
            op = Const(e.op, None)
            return App(
                App(op, self.resolve_term(e.left, scope)),
                self.resolve_term(e.right, scope),
            )
        if isinstance(e, SPi):
            return All(None, self.resolve_goal(e.body, [e.name] + scope), hint=e.name)
        if isinstance(e, SLam):
            return Lam(None, self.resolve_term(e.body, [e.name] + scope), hint=e.name)
        if isinstance(e, SApp):
            head, args = _sapp_spine(e)
            if isinstance(head, SId) and head.name not in scope and self.sig.is_predicate(head.name):
                return self.resolve_atom(head, args, scope)
            fn = self.resolve_term(head, scope)
            for a in args:
                fn = App(fn, self.resolve_term(a, scope))
            return fn
        if isinstance(e, SId):
            if e.name in scope:
                return Bound(scope.index(e.name))
            if self.sig.is_predicate(e.name):
                return self.resolve_atom(e, [], scope)
            if self.sig.lookup(e.name) is not None:
                return Const(e.name, None)
            if e.name[0].isupper():
                raise SourceError(
                    f"unbound capitalized identifier '{e.name}'", *e.pos, self.path
                )
            raise SourceError(f"undeclared constant '{e.name}'", *e.pos, self.path)
        raise SourceError("malformed expression", path=self.path)

    def resolve_atom(self, head, args, scope):
        name = head.name
        want = arg_types(self.sig.lookup(name).body)
        if len(args) != len(want):
            raise SourceError(
                f"predicate '{name}' expects {len(want)} argument(s), got {len(args)}",
                *head.pos,
                self.path,
            )
        return Atom(name, tuple(self.resolve_term(a, scope) for a in args))

    def resolve_goal(self, e, scope):
        r = self.resolve_term(e, scope)
        if not isinstance(r, Goal):
            pos = getattr(e, "pos", None) or ()
            raise SourceError("expected a goal here", *pos, self.path)
        return r


def _sapp_spine(e):
    args = []
    while isinstance(e, SApp):
        args.append(e.arg)
        e = e.fn
    args.reverse()
    return e, args


def _is_sym(tok, s):
    return tok.kind == "sym" and tok.value == s


# ---------------------------------------------------------------------------
# Public parsing entry points
# ---------------------------------------------------------------------------


def parse_source(text, sig: Signature, path=None) -> SourceFile:
    """Parse a whole `.hol` source.  `sig` itself is not modified."""
    p = Parser(tokenize(text, path), sig.copy(), path)
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
    e = p.parse_expr(0)
    if p.peek().kind != "eof":
        p.fail("trailing input after term")
    t = p.resolve_term(e, [])
    t, _ = elaborate_term(t, sig, expect=expect, pos=e.pos)
    return t


def parse_goal(text, sig: Signature) -> Goal:
    p = Parser(tokenize(text), sig.copy())
    e = p.parse_expr(0)
    if p.peek().kind != "eof":
        p.fail("trailing input after goal")
    return elaborate_goal(p.resolve_goal(e, []), sig, pos=e.pos)


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
        return f"?{t.cell.uid}"
    if isinstance(t, App):
        head, args = plain_spine(t)
        fix = sig.fixity(head.name) if isinstance(head, Const) else None
        if fix and fix[2] == "term" and len(args) == 2:
            assoc, p, _ = fix
            l = _fmt(args[0], sig, names, p + 1 if assoc == "right" else p)
            r = _fmt(args[1], sig, names, p if assoc == "right" else p + 1)
            s = f"{l} {head.name} {r}"
            return f"({s})" if req > p else s
        parts = [_fmt(head, sig, names, _APP_PREC + 1)]
        parts += [_fmt(a, sig, names, _APP_PREC + 1) for a in args]
        s = " ".join(parts)
        return f"({s})" if req > _APP_PREC else s
    if isinstance(t, (Lam, All)):
        name = _pick_name(t.hint, names, sig, len(names))
        body = _fmt(t.body, sig, [name] + names, 0)
        s = ("pi " if isinstance(t, All) else "") + f"{name}\\ {body}"
        return f"({s})" if req > 0 else s
    if isinstance(t, Atom):
        parts = [t.pred] + [_fmt(a, sig, names, _APP_PREC + 1) for a in t.args]
        s = " ".join(parts)
        return f"({s})" if req > _APP_PREC and len(parts) > 1 else s
    if isinstance(t, Conj):
        l = _fmt(t.left, sig, names, 3)
        r = _fmt(t.right, sig, names, 2)
        s = f"{l}, {r}"
        return f"({s})" if req > 2 else s
    if isinstance(t, Impl):
        l = _fmt(t.goal, sig, names, 1)
        r = _fmt(t.clause, sig, names, 1)
        s = f"{l} <<== {r}"
        return f"({s})" if req > 0 else s
    return repr(t)


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
