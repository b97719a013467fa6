"""Shared generators and property runners for the randomized suites.

Everything is seeded and deterministic; the acceptance module runs each
property at >= 1000 cases.
"""

import itertools
import random
import re
from operator import is_

from holcheck.errors import MetaTypeError, SourceError
from holcheck.kernel import Session, _Escape, def_to_eqclause
from holcheck.signature import GOAL_FORMERS, builtin_signature
from holcheck.syntax import (
    DefDefinition,
    DefLemma,
    InfixDecl,
    Solve,
    SourceFile,
    Token,
    TypeDecl,
    format_term,
    parse_term,
)
from holcheck.terms import (
    AND,
    BASE_NAMES,
    HASTYPE,
    IMP,
    META_FREE,
    PROVES,
    App,
    Arrow,
    Base,
    Bound,
    Const,
    Lam,
    Meta,
    MetaCell,
    O,
    PF,
    SVar,
    TM,
    TP,
    _eta_index,
    alpha_beta_eq,
    arg_types,
    deref,
    meta_type_of,
    normalize,
    app,
    map_children,
    pi,
    result_base,
    shift,
    subst,
)

SIG = builtin_signature()

# monomorphic constants usable by the generator, keyed by result base
_HEAD_POOL = {}
for _n, _sch in SIG.consts.items():
    if _sch.poly or _n in ("proves", "hastype", "assump", "extractGoal"):
        continue
    _HEAD_POOL.setdefault(result_base(_sch.body), []).append((_n, _sch.body))


_REF_SYMBOLS = ("==>>", "<<==", "->", "=>", ":-", "(", ")", ".", ",", "\\")
_REF_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_REF_INT = re.compile(r"[0-9]+")


def ref_tokenize(text, path=None):
    """Reference lexer: reads `text` one character at a time, trying an
    identifier, a number, then each symbol in turn."""
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
        m = _REF_IDENT.match(text, i)
        if m:
            toks.append(Token("ident", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = _REF_INT.match(text, i)
        if m:
            toks.append(Token("int", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        for s in _REF_SYMBOLS:
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
# Reference front end: a plainer parser, inference and grounding, which
# `parse_source` must agree with on every input (statements, binder hints,
# error class, message and position).  Its scope is a list of (name,
# meta-type) pairs, copied at each binder and searched for each name; each
# application is typed through `RefInference.apply` with a message closure;
# grounding visits every node.
# ---------------------------------------------------------------------------


class _RefUVar:
    """Unification variable over meta-types (inference-internal), numbered
    from 1 within one elaboration."""

    __slots__ = ("uid", "ref")

    def __init__(self, uid):
        self.uid = uid
        self.ref = None

    def __repr__(self):
        return f"_{self.uid}"


def _ref_chase(mt):
    while isinstance(mt, _RefUVar) and mt.ref is not None:
        mt = mt.ref
    return mt


def _ref_occurs(v, mt):
    mt = _ref_chase(mt)
    if mt is v:
        return True
    if isinstance(mt, Arrow):
        return _ref_occurs(v, mt.dom) or _ref_occurs(v, mt.cod)
    return False


def _ref_unify(a, b, where, pos):
    """Unify two meta-types.  `where()` names the site for an error message,
    called only on failure, which is reported at `pos`."""
    if a is b:  # a declared meta-type met again: nothing to chase
        return
    a, b = _ref_chase(a), _ref_chase(b)
    if a is b:
        return
    if isinstance(a, _RefUVar):
        if _ref_occurs(a, b):
            raise MetaTypeError(f"circular meta-type in {where()}", *(pos or ()))
        a.ref = b
        return
    if isinstance(b, _RefUVar):
        _ref_unify(b, a, where, pos)
        return
    if isinstance(a, Base) and isinstance(b, Base) and a == b:
        return
    if isinstance(a, Arrow) and isinstance(b, Arrow):
        _ref_unify(a.dom, b.dom, where, pos)
        _ref_unify(a.cod, b.cod, where, pos)
        return
    raise MetaTypeError(
        f"meta-type mismatch in {where()}: {_ref_resolve(a, True)} vs {_ref_resolve(b, True)}",
        *(pos or ()),
    )


def _ref_resolve(mt, loose=False):
    """`mt` with its solved variables resolved, itself if it has none; None
    if one is unsolved, unless `loose`, which keeps it."""
    mt = _ref_chase(mt)
    if isinstance(mt, Arrow):
        dom, cod = _ref_resolve(mt.dom, loose), _ref_resolve(mt.cod, loose)
        if dom is None or cod is None:
            return None
        return mt if dom is mt.dom and cod is mt.cod else Arrow(dom, cod)
    return None if isinstance(mt, _RefUVar) and not loose else mt


def _ref_instance(mt, v):
    """`mt` with every type parameter replaced by `v`."""
    if isinstance(mt, SVar):
        return v
    if isinstance(mt, Arrow):
        return Arrow(_ref_instance(mt.dom, v), _ref_instance(mt.cod, v))
    return mt


class RefInference:
    """The unification variables of one elaboration.  `at` maps the `id` of
    the meta-type made for a binder or a polymorphic constant to that
    meta-type and its token; any other constant's meta-type is ground."""

    def __init__(self):
        self._uids = itertools.count(1)
        self.at = {}

    def fresh(self, pos=None):
        v = _RefUVar(next(self._uids))
        if pos is not None:
            self.at[id(v)] = v, pos
        return v

    def instantiate(self, scheme, pos):
        if not scheme.poly:
            return scheme.body
        mt = _ref_instance(scheme.body, self.fresh())
        self.at[id(mt)] = mt, pos  # a key of its own: it holds the fresh variable
        return mt

    def apply(self, fmt, amt, where, pos):
        """The meta-type of applying a function of meta-type `fmt` to an
        argument of meta-type `amt`; a mismatch is reported at `pos`."""
        fmt = _ref_chase(fmt)
        if isinstance(fmt, Arrow):  # as below, without a fresh variable
            _ref_unify(fmt.dom, amt, where, pos)
            return fmt.cod
        res = self.fresh()
        _ref_unify(fmt, Arrow(amt, res), where, pos)
        return res

def _ref_zonk(t, inf):
    """Ground every meta-type annotation of a term, keeping the nodes that
    are ground already."""
    if isinstance(t, App):
        # the arguments right to left, then the head: an unresolved binder
        # is named before the constant applied to its lambda, `pi` or `elam`
        args = []
        for a in reversed(t.args):
            args.append(_ref_zonk(a, inf))
        args.reverse()
        h = _ref_zonk(t.head, inf)
        return t if h is t.head and all(map(is_, args, t.args)) else App(h, tuple(args))
    if not isinstance(t, (Const, Lam)):
        return t
    made = inf.at.get(id(t.mt))
    mt = t.mt if made is None else _ref_resolve(t.mt)
    if mt is None:
        what = f"constant '{t.name}'" if isinstance(t, Const) else f"binder '{t.hint or '_'}'"
        raise MetaTypeError(f"cannot infer a ground meta-type for {what}", *made[1])
    if isinstance(t, Lam):
        return Lam(mt, _ref_zonk(t.body, inf), t.hint)
    return t if mt is t.mt else Const(t.name, mt, t.birth)



def _ref_elaborate(t, mt, inf, expect, pos):
    _ref_unify(mt, expect, lambda: "declared meta-type", pos)
    return _ref_zonk(t, inf)


class RefParser:
    """Reads statements, building and typing their terms as it goes, with an
    `RefInference`, `self.inf`, per statement and per `def_*` argument.
    Expression methods take the binder scope ((name, meta-type) pairs,
    innermost first) and return `(term, meta-type, pos)`; `pos` names the
    expression in a diagnostic: an infix's operator, an application's last
    argument, or an identifier's or binder's token.  An application is
    unified where it is built, and a mismatch reported at its `pos`; but a
    predicate's application is checked where it ends, its meta-type being
    till then the list of its arguments' `(meta-type, pos)`.  With
    `head` set, one ending at `)` is left unchecked."""

    def __init__(self, tokens, sig):
        self.toks = tokens + tokens[-1:] * 2  # `peek` reads up to two past `eof`
        self.i = 0
        self.sig = sig  # working copy, extended by declarations
        self.inf = RefInference()

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
        self.inf = RefInference()
        g, _, gpos = self.parse_expr(0, [])
        self.expect_sym(".")
        self.check_goal(g, gpos)
        return Solve(_ref_zonk(g, self.inf), pos)

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
        if _ref_is_sym(self.peek(), "->"):
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
        while _ref_is_sym(self.peek(), "("):  # around the name
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
        expect = [Arrow(a, O), a] if lemma else [Base("tp"), Arrow(a, O), a]
        parts = [_ref_elaborate(t, mt, inf, e, apos) for (t, mt, inf, apos), e in zip(args, expect)]
        return (DefLemma if lemma else DefDefinition)(name.value, a, *parts, pos)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, min_prec, scope, head=False):
        left, mt, pos = self.parse_app(scope, head)
        while True:
            t = self.peek()
            fix = self.sig.infixes.get(t.value)
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
            fmt = self.inf.instantiate(GOAL_FORMERS.get(op) or self.sig.consts.get(op), pos)
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
            elif t.kind == "ident" and t.value not in self.sig.infixes or _ref_is_sym(t, "("):
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
        if head and _ref_is_sym(t, ")"):
            return fn, mt, pos
        return *self.check_atom(fn, mt, start, scope), pos

    def parse_arg(self):
        """A statement keyword's argument as `(term, meta-type, its own
        RefInference, pos of its first token)`, or None.  (`parse_app` reads its
        own inline: a call per argument would cost a frame per level.)"""
        t = self.peek()
        self.inf = RefInference()
        if self.at_binder():
            e = self.parse_binder([])
        elif t.kind == "ident" and t.value not in self.sig.infixes or _ref_is_sym(t, "("):
            e = self.parse_primary([])
        else:
            return None
        return e[0], e[1], self.inf, (t.line, t.col)

    def parse_primary(self, scope, head=False):
        t = self.next()
        if _ref_is_sym(t, "("):
            e = self.parse_expr(0, scope, head)
            self.expect_sym(")")
            return e
        if t.kind != "ident":
            self.fail(f"unexpected '{t.value or 'end of input'}'", t)
        name, pos = t.value, (t.line, t.col)
        for i, (n, mt) in enumerate(scope):
            if n == name:
                return Bound(i), mt, pos
        sch = self.sig.consts.get(name)
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
        while _ref_is_sym(self.toks[i], "("):  # the head was parenthesized
            i += 1
        tok = self.toks[i]
        want = arg_types(h.mt)
        if len(args) != len(want):
            self.fail(f"predicate '{h.name}' expects {len(want)} argument(s), got {len(args)}", tok)
        for a, w in zip(args, want):
            if w == O and not self.sig.is_predicate(_ref_head_name(a)):
                raise MetaTypeError(
                    f"argument of '{h.name}' must be an atomic goal", tok.line, tok.col
                )
        fmt = h.mt
        for k, (amt, pos) in enumerate(mt):
            fmt = self.apply(h, args[: k + 1], fmt, amt, pos, scope)
        return t, fmt

    def check_goal(self, t, pos):
        name = _ref_head_name(t)
        if not (name in GOAL_FORMERS or self.sig.is_predicate(name)):
            raise SourceError("expected a goal here", *pos)


def _ref_is_sym(tok, s):
    return tok.value == s  # no other kind of token has a symbol's text


def _ref_head_name(t):
    # the name of the constant at the head of `t`, else None; a parsed
    # former or predicate is applied at its arity where it is built
    h = t.head if isinstance(t, App) else t
    return h.name if isinstance(h, Const) else None



def ref_parse_source(text, sig, path=None):
    """`parse_source` by the reference front end, over `ref_tokenize`."""
    p = RefParser(ref_tokenize(text, path), sig.copy())
    try:
        stmts = p.parse_file()
    except SourceError as e:
        if e.path is None:
            e.path = path
        raise
    return SourceFile(stmts, p.sig, path)


# Reference spine readers, independent of the ones in `src/`: a term's head
# and its arguments (a list), and a goal's name.

# arities of the goal formers and built-in predicates
ARITY = {"pi": 1, ",": 2, "=>": 2, "proves": 2, "hastype": 2, "assump": 1}


def plain_spine(t):
    """Head and arguments of an application, without contraction or
    dereferencing; a non-application is a head without arguments."""
    return (t.head, list(t.args)) if isinstance(t, App) else (t, [])


def goal_spine(g):
    """`(name, args)`: the name of the constant at the head of goal `g`
    and its arguments.  The name is None where the head is not a constant,
    or is a former or built-in predicate without its arity (or, for `pi`,
    without a lambda): a shape that is no goal."""
    h, args = plain_spine(g)
    name = h.name if isinstance(h, Const) else None
    if ARITY.get(name, len(args)) != len(args) or (
        name == "pi" and not isinstance(args[0], Lam)
    ):
        name = None
    return name, args


# Reference walks: the term walks without `Term.free`, visiting every node.
# Like the walks they stand for, each returns an unchanged subtree as the
# same object.


def ref_free(t, d=0):
    """`Term.free` from its definition: META_FREE if `t` holds a matching
    variable, else one more than its greatest index loose outside `d`
    binders, 0 if it has none."""
    if isinstance(t, Meta):
        return META_FREE
    if isinstance(t, Bound):
        return max(t.index - d + 1, 0)
    if isinstance(t, App):
        return max(ref_free(a, d) for a in (t.head, *t.args))
    if isinstance(t, Lam):
        return ref_free(t.body, d + 1)
    return 0


def ref_shift(t, by, cutoff=0):
    """`terms.shift`."""
    if by == 0:
        return t
    if isinstance(t, Bound):
        return Bound(t.index + by) if t.index >= cutoff else t
    return map_children(t, lambda u, c, _: ref_shift(u, by, c), cutoff, None)


def ref_subst(t, d, vs):
    """Plain substitution, `terms._hsubst`'s index case: replace the
    len(vs) binders outside `d` by `vs`, vs[-1] the innermost."""
    if isinstance(t, Bound):
        i = t.index - d
        if i < 0:
            return t
        if i < len(vs):
            return ref_shift(vs[-1 - i], d)
        return Bound(t.index - len(vs))
    return map_children(t, ref_subst, d, vs)


def ref_hsubst(t, d, vs):
    """`terms._hsubst`, reductions included."""
    if isinstance(t, App):
        h, args = plain_spine(t)
        new = [ref_hsubst(a, d, vs) for a in args]
        fn = ref_hsubst(h, d, vs)
        if fn is h and all(a is b for a, b in zip(new, args)):
            return t
        while new and isinstance(fn, Lam):
            n = 0
            while n < len(new) and isinstance(fn, Lam):
                fn, n = fn.body, n + 1
            fn, new = ref_hsubst(fn, 0, tuple(new[:n])), new[n:]
        return app(fn, *new)
    if isinstance(t, Bound):
        if not vs:
            return t
        t = ref_subst(t, d, vs)
        if not isinstance(t, Meta):
            return t
    if isinstance(t, Meta):
        return t if t.cell.value is None else t.cell.value
    if isinstance(t, Lam):
        i = _eta_index(t) - d if vs else -1
        if 0 <= i < len(vs) and isinstance(vs[-1 - i], Lam):
            return ref_shift(vs[-1 - i], d)
        body = ref_hsubst(t.body, d + 1, vs)
        return t if body is t.body else Lam(t.mt, body, t.hint)
    return t


def ref_abstract(t, d, keys):
    """`kernel._abstract`, with the keys alone."""
    t = deref(t)
    if isinstance(t, Meta):
        raise _Escape
    if isinstance(t, Bound) and t.index >= d:
        k = ("b", t.index - d)
    elif isinstance(t, Const) and t.birth > 0:
        k = ("c", t.birth)
    else:
        return map_children(t, ref_abstract, d, keys)
    if k in keys:
        return Bound(d + (len(keys) - 1 - keys.index(k)))
    if isinstance(t, Bound):
        raise _Escape
    return t


def gen_term(rng, mt, env=(), fuel=3):
    """A closed (under env), well-annotated term of meta-type mt."""
    if isinstance(mt, Arrow):
        return Lam(mt.dom, gen_term(rng, mt.cod, (mt.dom,) + tuple(env), fuel))
    heads = [(Bound(i), t) for i, t in enumerate(env) if result_base(t) == mt]
    heads += [(Const(n, t), t) for n, t in _HEAD_POOL.get(mt, ())]
    if fuel <= 0:
        leaves = [(h, t) for h, t in heads if t == mt]
        if leaves:
            h, _ = rng.choice(leaves)
            return h
        fuel = 1  # no leaf of this base type in scope; allow one application
    h, t = rng.choice(heads)
    out = h
    for dom in arg_types(t):
        out = app(out, gen_term(rng, dom, env, fuel - 1))
    return out


def gen_goal(rng, env=(), fuel=2):
    kind = rng.randrange(6)
    if kind == 0 and fuel > 0:
        mt = rng.choice((TP, TM, PF))
        return pi(mt, gen_goal(rng, (mt,) + tuple(env), fuel - 1))
    if kind == 1 and fuel > 0:
        return app(AND, gen_goal(rng, env, fuel - 1), gen_goal(rng, env, fuel - 1))
    if kind == 2 and fuel > 0:
        return app(IMP, gen_goal(rng, env, fuel - 1), gen_goal(rng, env, fuel - 1))
    if rng.randrange(2):
        return app(PROVES, gen_term(rng, PF, env, 2), gen_term(rng, TM, env, 2))
    return app(HASTYPE, gen_term(rng, TM, env, 2), gen_term(rng, TP, env, 2))


def subterm_positions(t, env=(), depth=0):
    """(node id, meta-type) of replaceable subterms: closed w.r.t. local
    binders and not in function position (a bare matching variable may not
    end up applied to arbitrary arguments)."""
    out = []

    def free_below(t, d):
        if isinstance(t, Bound):
            return t.index < d
        if isinstance(t, App):
            return any(free_below(a, d) for a in (t.head, *t.args))
        if isinstance(t, Lam):
            return free_below(t.body, d + 1)
        return False

    def walk(t, env, d, applied):
        if not applied and isinstance(t, (Const, App)) and not free_below(t, d):
            out.append((id(t), meta_type_of(t, env)))
        if isinstance(t, App):
            walk(t.head, env, d, True)
            for a in t.args:
                walk(a, env, d, False)
        elif isinstance(t, Lam):
            walk(t.body, (t.mt,) + tuple(env), d + 1, False)

    walk(t, env, depth, False)
    return out


def ref_normalize(t, mt, env=()):
    """Reference normalizer of `t` at meta-type `mt`: contract each head
    redex by plain substitution of its unnormalized argument, then
    normalize what is left, rebuilding every node."""
    args = []
    while True:
        t = deref(t)
        if isinstance(t, App):
            args.extend(reversed(t.args))  # a stack: the first argument last
            t = t.head
        elif isinstance(t, Lam) and args:
            t = ref_subst(t.body, 0, (args.pop(),))
        else:
            break
    args.reverse()
    if isinstance(mt, Arrow):
        if args or not isinstance(t, Lam):
            t = Lam(mt.dom, app(shift(app(t, *args), 1), Bound(0)))
        return Lam(mt.dom, ref_normalize(t.body, mt.cod, (mt.dom,) + tuple(env)), t.hint)
    hmt = meta_type_of(t, env)
    for a in args:
        t = app(t, ref_normalize(a, hmt.dom, env))
        hmt = hmt.cod
    return t


def replace_nodes(t, table):
    if id(t) in table:
        return table[id(t)]
    if isinstance(t, App):
        return app(replace_nodes(t.head, table), *(replace_nodes(a, table) for a in t.args))
    if isinstance(t, Lam):
        return Lam(t.mt, replace_nodes(t.body, table), t.hint)
    return t


# ---------------------------------------------------------------------------
# Property runners; each returns the number of cases exercised
# ---------------------------------------------------------------------------


def run_normalize_idempotent(n, seed=11):
    rng = random.Random(seed)
    for i in range(n):
        mt = rng.choice((TM, PF, TP, Arrow(TM, TM), Arrow(TM, Arrow(TM, PF))))
        t = gen_term(rng, mt, (), fuel=3)
        nt = normalize(t)
        assert normalize(nt) == nt, f"case {i}: normalization not idempotent"
    return n


def run_subst_vs_beta(n, seed=12):
    rng = random.Random(seed)
    for i in range(n):
        dom = rng.choice((TM, TP, PF, Arrow(TM, TM)))
        cod = rng.choice((TM, PF))
        lam = gen_term(rng, Arrow(dom, cod), (), fuel=3)
        arg = gen_term(rng, dom, (), fuel=2)
        a = normalize(app(lam, arg))
        b = normalize(subst(lam.body, arg))
        assert a == b, f"case {i}: beta step disagrees with substitution"
    return n


def run_parse_print_roundtrip(n, seed=13):
    # the concrete syntax carries no binder annotations, so reparsing gets
    # the same ambient meta-type the original position supplied
    rng = random.Random(seed)
    for i in range(n):
        mt = rng.choice((TM, PF, Arrow(TM, TM), Arrow(PF, Arrow(TM, TM))))
        t = gen_term(rng, mt, (), fuel=3)
        text = format_term(t, SIG)
        t2 = parse_term(text, SIG, expect=mt)
        assert alpha_beta_eq(t, t2), f"case {i}: round-trip broke {text!r}"
    return n


def run_match_soundness(n, seed=14):
    rng = random.Random(seed)
    cases = 0
    while cases < n:
        t = gen_term(rng, rng.choice((TM, PF)), (), fuel=3)
        t = normalize(t)
        spots = subterm_positions(t)
        if not spots:
            continue
        picked = rng.sample(spots, k=min(len(spots), rng.randrange(1, 3)))
        table = {nid: Meta(MetaCell(mt, birth=0)) for nid, mt in picked}
        pattern = replace_nodes(t, table)
        ses = Session(SIG)
        assert ses.match(normalize(pattern), t), f"case {cases}: match failed"
        assert alpha_beta_eq(pattern, t), (
            f"case {cases}: matcher does not reproduce the target"
        )
        cases += 1
    return cases


def run_eqclause_arity(n, seed=15):
    rng = random.Random(seed)
    doms_pool = (TM, TP, Arrow(TM, TM), Arrow(TM, Arrow(TM, TM)))
    for i in range(n):
        k = rng.randrange(0, 6)
        mt = TM
        for _ in range(k):
            mt = Arrow(rng.choice(doms_pool), mt)
        name = Const("d0", mt)
        body = gen_term(rng, mt, (), fuel=2)
        clause = def_to_eqclause(Const("form", TP), name, body)
        binders = 0
        name, args = goal_spine(clause)
        while name == "pi":
            binders += 1
            name, args = goal_spine(args[0].body)
        # independent oracle: count the arrows of the shared meta-type
        oracle = 0
        m = mt
        while isinstance(m, Arrow):
            oracle += 1
            m = m.cod
        assert binders == oracle, f"case {i}: binder count mismatch"
        assert name == "proves"
    return n
