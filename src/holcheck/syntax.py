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
from .infer import Inference, UVar, _chase, elaborate_goal, elaborate_term
from .signature import GOAL_FORMERS, Signature
from .terms import (
    App,
    Arrow,
    Bound,
    Const,
    Lam,
    Meta,
    MetaType,
    O,
    PF,
    TM,
    TP,
    Term,
    app,
    arg_types,
    deref,
)

# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# One alternation, tried left to right after the blanks that lead each
# match: the token kinds, the most frequent first (a symbol before its
# prefixes), a newline, a `%` comment, the end of the text, and any other
# character, which is `bad`.  A comment and the end have no group.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_']*)|(?P<sym>==>>|<<==|->|=>|:-|[().,\\])"
    r"|(?P<newline>\n)|(?P<int>[0-9]+)|%[^\n]*|\Z|(?P<bad>.))",
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
# `sig` is the signature the file ends with: the one it was parsed against
# extended by its declarations
SourceFile = namedtuple("SourceFile", "statements sig path", defaults=(None,))


class Parser:
    """Reads statements, building and typing their terms as it goes, with an
    `Inference`, `self.inf`, per statement and per `def_*` argument.
    Expression methods return `(term, meta-type, pos)`; `pos` names the
    expression in a diagnostic: an infix's operator, an application's last
    argument, or an identifier's or binder's token.  An application is
    unified where it is built, and a mismatch reported at its `pos`; but a
    predicate's application is checked where it ends, its meta-type being
    till then the list of its arguments' `(meta-type, pos)`.  With
    `head` set, one ending at `)` is left unchecked.

    The binder scope is three fields: `levels` maps a bound name to the
    levels of its binders (the outermost binder in scope is level 0, the
    innermost of a name is last), and `names` and `mts` hold each level's
    name and meta-type (what its variable stands for, once solved).  A
    name resolves with one lookup, and entering a binder copies nothing.
    Each application `parse_expr` builds goes to `inf.ground`, which lets
    `_zonk` skip it if no binder variable and no polymorphic instance was
    made while it was built: it has no meta-type to ground."""

    def __init__(self, tokens, sig: Signature):
        self.toks = tokens + tokens[-1:] * 2  # `peek` reads up to two past `eof`
        self.i = 0
        self.sig = sig  # extended by each declaration read
        self.inf = Inference()
        self.levels, self.names, self.mts = {}, [], []
        self.site = None  # the application `apply` types: (head, args)

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
        g, _, gpos = self.parse_expr(0)
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
        if t.kind == "ident" and t.value in _BASES:
            return _BASES[t.value]  # the shared node, which `parse_expr` tests by identity
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
        if name.kind != "ident" or not parens and name.value in self.sig.infixes:
            self.fail(usage, name)
        sch = self.sig.consts.get(name.value)
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
        expect = [Arrow(a, O), a] if lemma else [TP, Arrow(a, O), a]
        parts = [elaborate_term(t, mt, inf, e, apos) for (t, mt, inf, apos), e in zip(args, expect)]
        return (DefLemma if lemma else DefDefinition)(name.value, a, *parts, pos)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, min_prec, head=False):
        """An application, then the infix operators of precedence `min_prec`
        or more that follow it; or a binder, whose body takes them all."""
        toks, inf = self.toks, self.inf
        start = i = self.i
        mark = inf.mark()
        t = toks[i]
        if t.kind != "ident":
            fn, mt, pos = self.parse_primary(True)  # parenthesized, or an error
        elif _binds(toks, i):
            return self.parse_binder()
        else:
            self.i = i + 1
            fn, mt = self.ident(t, i, True)
            pos = (t.line, t.col)
        # the arguments
        args = []
        infixes = self.sig.infixes
        while True:
            i = self.i
            t = toks[i]
            if t.kind == "ident":
                if _binds(toks, i):  # a trailing lambda swallows the rest of the expression
                    arg, amt, _ = self.parse_binder()
                elif t.value in infixes:
                    break
                else:
                    self.i = i + 1
                    arg, amt = self.ident(t, i)
            elif t.value == "(":
                arg, amt, _ = self.parse_primary()
            else:
                break
            args.append(arg)
            if mt.__class__ is Arrow and mt.dom is amt:  # nothing to unify
                mt = mt.cod
            elif mt.__class__ is list:  # a predicate's arguments wait for its arity
                mt.append((amt, (t.line, t.col)))
            else:
                mt = self.apply(fn, args, mt, amt, (t.line, t.col))
            last = t
        if args:  # one spine, as `app` builds it
            args = tuple(args)
            fn = App(fn.head, fn.args + args) if fn.__class__ is App else App(fn, args)
            inf.ground(fn, mark)
            pos = (last.line, last.col)
        if mt.__class__ is list:
            if head and t.value == ")":
                return fn, mt, pos
            fn, mt = self.check_atom(fn, mt, start)
        # the infix operators
        left = fn
        while True:
            t = toks[self.i]
            fix = infixes.get(t.value)
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
            right, rmt, rpos = self.parse_expr(prec + 1 if assoc == "left" else prec)
            if former:  # a goal; `=>` takes the clause first
                self.check_goal(right, rpos)
                if op in ("<<==", ":-"):
                    left, mt, right, rmt = right, rmt, left, mt
                op = "," if op == "," else "=>"
            pos = (t.line, t.col)
            fmt = inf.instantiate(GOAL_FORMERS.get(op) or self.sig.consts.get(op), pos)
            c = Const(op, fmt)
            fmt = self.apply(c, (left,), fmt, mt, pos)
            left = App(c, (left, right))
            mt = self.apply(c, left.args, fmt, rmt, pos)
            inf.ground(left, mark)

    def parse_binder(self):
        toks = self.toks
        t = toks[self.i]
        pos, pi = (t.line, t.col), t.value == "pi"
        if pi:  # its instance is made before its binder's variable
            fmt = self.inf.instantiate(GOAL_FORMERS["pi"], pos)
            self.i += 1
            t = toks[self.i]
        self.i += 2  # the name and the backslash
        name = t.value
        dom = self.inf.fresh((t.line, t.col))
        levels = self.levels.get(name)
        if levels is None:
            levels = self.levels[name] = []
        levels.append(len(self.mts))
        self.names.append(name)
        self.mts.append(dom)
        body, bmt, bpos = self.parse_expr(0)
        levels.pop()
        self.names.pop()
        self.mts.pop()
        lam, lmt = Lam(dom, body, hint=name), Arrow(dom, bmt)
        if not pi:
            return lam, lmt, pos
        self.check_goal(body, bpos)
        g = App(Const("pi", fmt), (lam,))
        return g, self.apply(g.head, g.args, fmt, lmt, pos), pos

    def parse_arg(self):
        """A statement keyword's argument as `(term, meta-type, its own
        Inference, pos of its first token)`, or None.  (`parse_expr` reads its
        own inline: a call per argument would cost a frame per level.)"""
        t = self.peek()
        self.inf = Inference()
        if t.kind == "ident" and _binds(self.toks, self.i):
            e = self.parse_binder()
        elif t.kind == "ident" and t.value not in self.sig.infixes or _is_sym(t, "("):
            e = self.parse_primary()
        else:
            return None
        return e[0], e[1], self.inf, (t.line, t.col)

    def parse_primary(self, head=False):
        t = self.next()
        if _is_sym(t, "("):
            e = self.parse_expr(0, head)
            self.expect_sym(")")
            return e
        if t.kind != "ident":
            self.fail(f"unexpected '{t.value or 'end of input'}'", t)
        return *self.ident(t, self.i - 1, head), (t.line, t.col)

    def ident(self, t, i, head=False):
        """`(term, meta-type)` of the identifier `t`, the `i`th token: a bound
        variable, else a constant.  A bound variable's meta-type is what its
        variable stands for, once solved, which is kept for its next use.
        A predicate is checked as an atom of its own, unless it is an
        application's head."""
        name = t.value
        bound = self.levels.get(name)
        if bound:
            mts = self.mts
            k = bound[-1]
            mt = mts[k]
            if mt.__class__ is UVar and mt.ref is not None:
                mt = mts[k] = _chase(mt)
            return Bound(len(mts) - 1 - k), mt
        sch = self.sig.consts.get(name)
        if sch is None:
            what = "unbound capitalized identifier" if name[0].isupper() else "undeclared constant"
            self.fail(f"{what} '{name}'", t)
        if sch.predicate:
            c = Const(name, sch.body)
            return (c, []) if head else self.check_atom(c, [], i)
        mt = self.inf.instantiate(sch, (t.line, t.col))
        return Const(name, mt), mt

    # -- typing --------------------------------------------------------------

    def apply(self, head, args, fmt, amt, pos):
        """The meta-type of `head` applied to `args`, whose last argument, of
        meta-type `amt`, is applied to a function of meta-type `fmt`; a
        mismatch is reported at `pos`, naming that application by its
        source text, which `_where` builds only then."""
        self.site = head, args
        return self.inf.apply(fmt, amt, self._where, pos)

    def _where(self):
        head, args = self.site
        return f"application {format_term(app(head, *args), self.sig, self.names[::-1])}"

    # -- checks where a construct ends ---------------------------------------

    def check_atom(self, t, mt, i):
        """Check `t`, which applies a predicate, where its application ends
        (`mt` lists its applications): its arity and atomic-goal arguments,
        then each application's meta-type.  `i` indexes the first token of
        its head.  Returns `(t, meta-type)`."""
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
            fmt = self.apply(h, args[: k + 1], fmt, amt, pos)
        return t, fmt

    def check_goal(self, t, pos):
        name = _head_name(t)
        if not (name in GOAL_FORMERS or self.sig.is_predicate(name)):
            raise SourceError("expected a goal here", *pos)


_BASES = {"tp": TP, "tm": TM, "pf": PF, "o": O}


def _binds(toks, i):
    """Whether the identifier `toks[i]` starts a binder: `x\\ ..` or `pi x\\ ..`."""
    if toks[i].value == "pi":
        return toks[i + 1].kind == "ident" and toks[i + 2].value == "\\"
    return toks[i + 1].value == "\\"


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
    """Parse a whole `.hol` source against `sig`, which is not modified:
    each declaration extends a copy of it, returned as the file's `sig`."""
    p = Parser(tokenize(text, path), sig.copy())
    try:
        stmts = p.parse_file()
    except SourceError as e:
        if e.path is None:
            e.path = path
        raise
    return SourceFile(stmts, p.sig, path)


def parse_term(text, sig: Signature, expect: MetaType = None) -> Term:
    """Parse and annotate a single term expression (testing convenience)."""
    p = Parser(tokenize(text), sig)  # an expression declares nothing
    t, mt, pos = p.parse_expr(0)
    if p.peek().kind != "eof":
        p.fail("trailing input after term")
    return elaborate_term(t, mt, p.inf, expect, pos)


def parse_goal(text, sig: Signature) -> Term:
    p = Parser(tokenize(text), sig)
    g, _, pos = p.parse_expr(0)
    if p.peek().kind != "eof":
        p.fail("trailing input after goal")
    p.check_goal(g, pos)
    return elaborate_goal(g, p.inf)


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
        and hint not in sig.consts
        and hint not in ("pi", "type", "infixr", "infixl", "def_lemma", "def_definition", "kind")
    )
    if ok:
        return hint
    n = depth + 1
    while True:
        cand = f"x{n}"
        if cand not in names and cand not in sig.consts:
            return cand
        n += 1


def format_term(t, sig: Signature, names=()) -> str:
    return _fmt(t, sig, list(names), 0)


def format_goal(g, sig: Signature) -> str:
    # a function of its own, not an alias, so that bench/tracer.py can
    # wrap it and format_term separately
    return _fmt(g, sig, [], 0)


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
    fix = sig.infixes.get(name) if len(args) == 2 else None
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
