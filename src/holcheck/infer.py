"""Meta-type inference and annotation.

Prenex-style inference over the four base meta-types: every binder gets a
unification variable, the polymorphic builtins are instantiated fresh per
occurrence, and after solving, every annotation must come out ground.  The
instantiation chosen for a polymorphic constant is recorded on the constant
node itself, where the kernel reads it back.
"""

from __future__ import annotations

import itertools

from .errors import MetaTypeError
from .terms import (
    All,
    App,
    Arrow,
    Atom,
    Base,
    Bound,
    Conj,
    Const,
    GoalTerm,
    Impl,
    Lam,
    MetaType,
    O,
    SVar,
    Term,
    arg_types,
    map_children,
)

_uvar_ids = itertools.count(1)


class UVar:
    """Unification variable over meta-types (inference-internal)."""

    __slots__ = ("uid", "ref")

    def __init__(self):
        self.uid = next(_uvar_ids)
        self.ref = None

    def __repr__(self):
        return f"_{self.uid}"


def _chase(mt):
    while isinstance(mt, UVar) and mt.ref is not None:
        mt = mt.ref
    return mt


def _occurs(v, mt):
    mt = _chase(mt)
    if mt is v:
        return True
    if isinstance(mt, Arrow):
        return _occurs(v, mt.dom) or _occurs(v, mt.cod)
    return False


def _unify(a, b, where, pos):
    """Unify two meta-types.  `where` names the site for an error message:
    a string, or a function that builds it, called only on failure."""
    a, b = _chase(a), _chase(b)
    if a is b:
        return
    if isinstance(a, UVar):
        if _occurs(a, b):
            raise MetaTypeError(f"circular meta-type in {_site(where)}", *(pos or ()))
        a.ref = b
        return
    if isinstance(b, UVar):
        _unify(b, a, where, pos)
        return
    if isinstance(a, Base) and isinstance(b, Base) and a == b:
        return
    if isinstance(a, Arrow) and isinstance(b, Arrow):
        _unify(a.dom, b.dom, where, pos)
        _unify(a.cod, b.cod, where, pos)
        return
    raise MetaTypeError(
        f"meta-type mismatch in {_site(where)}: {_zonk_loose(a)} vs {_zonk_loose(b)}",
        *(pos or ()),
    )


def _site(where):
    return where() if callable(where) else where


def _zonk_loose(mt):
    """Resolve as far as possible, keeping unsolved variables."""
    mt = _chase(mt)
    if isinstance(mt, Arrow):
        return Arrow(_zonk_loose(mt.dom), _zonk_loose(mt.cod))
    return mt


def _instantiate(scheme):
    if not scheme.poly:
        return scheme.body
    v = UVar()

    def go(mt):
        if isinstance(mt, SVar):
            return v
        if isinstance(mt, Arrow):
            return Arrow(go(mt.dom), go(mt.cod))
        return mt

    return go(scheme.body)


class _Inference:
    def __init__(self, sig, pos):
        self.sig = sig
        self.pos = pos

    # -- constraint generation; terms come back annotated with UVars ------

    def term(self, t, env):
        """Return (annotated term, meta-type with possible UVars)."""
        if isinstance(t, Const):
            sch = self.sig.lookup(t.name)
            if sch is None:
                raise MetaTypeError(f"undeclared constant '{t.name}'", *(self.pos or ()))
            mt = _instantiate(sch)
            return Const(t.name, mt, t.birth), mt
        if isinstance(t, Bound):
            return t, env[t.index]
        if isinstance(t, App):
            fn, fmt = self.term(t.fn, env)
            arg, amt = self.term(t.arg, env)
            res = UVar()
            _unify(fmt, Arrow(amt, res), lambda: f"application {t!r}", self.pos)
            return App(fn, arg), res
        if isinstance(t, Lam):
            dom = t.mt if t.mt is not None else UVar()
            body, bmt = self.term(t.body, (dom,) + env)
            return Lam(dom, body, t.hint), Arrow(dom, bmt)
        if isinstance(t, GoalTerm):
            return GoalTerm(self.goal(t.goal, env)), O
        raise MetaTypeError(f"not a term: {t!r}", *(self.pos or ()))

    def goal(self, g, env):
        if isinstance(g, Atom):
            sch = self.sig.lookup(g.pred)
            if sch is None:
                raise MetaTypeError(f"undeclared predicate '{g.pred}'", *(self.pos or ()))
            want = arg_types(sch.body)
            if len(want) != len(g.args):
                raise MetaTypeError(
                    f"predicate '{g.pred}' expects {len(want)} arguments",
                    *(self.pos or ()),
                )
            args = []
            for a, w in zip(g.args, want):
                if w == O and not (isinstance(a, GoalTerm) and isinstance(a.goal, Atom)):
                    raise MetaTypeError(
                        f"argument of '{g.pred}' must be an atomic goal",
                        *(self.pos or ()),
                    )
                at, amt = self.term(a, env)
                _unify(amt, w, f"argument of {g.pred}", self.pos)
                args.append(at)
            return Atom(g.pred, tuple(args))
        if isinstance(g, All):
            dom = g.mt if g.mt is not None else UVar()
            return All(dom, self.goal(g.body, (dom,) + env), g.hint)
        if isinstance(g, Conj):
            return Conj(self.goal(g.left, env), self.goal(g.right, env))
        if isinstance(g, Impl):
            return Impl(self.goal(g.clause, env), self.goal(g.goal, env))
        raise MetaTypeError(f"not a goal: {g!r}", *(self.pos or ()))

    # -- resolution ---------------------------------------------------------

    def zonk_mt(self, mt, where):
        mt = _chase(mt)
        if isinstance(mt, UVar):
            raise MetaTypeError(
                f"cannot infer a ground meta-type for {where}", *(self.pos or ())
            )
        if isinstance(mt, Arrow):
            return Arrow(self.zonk_mt(mt.dom, where), self.zonk_mt(mt.cod, where))
        return mt


def _zonk(t, d, inf):
    """Ground every meta-type annotation of a term or goal (`d` is unused)."""
    if isinstance(t, Const):
        return Const(t.name, inf.zonk_mt(t.mt, f"constant '{t.name}'"), t.birth)
    if isinstance(t, (Lam, All)):
        mt = inf.zonk_mt(t.mt, f"binder '{t.hint or '_'}'")
        return type(t)(mt, _zonk(t.body, d, inf), t.hint)
    return map_children(t, _zonk, d, inf)


def elaborate_term(t: Term, sig, expect: MetaType = None, pos=None):
    """Annotate a term, returning (term, ground meta-type)."""
    inf = _Inference(sig, pos)
    t2, mt = inf.term(t, ())
    if expect is not None:
        _unify(mt, expect, "declared meta-type", pos)
    t3 = _zonk(t2, 0, inf)
    return t3, inf.zonk_mt(mt, "the whole term")


def elaborate_goal(g, sig, pos=None):
    inf = _Inference(sig, pos)
    return _zonk(inf.goal(g, ()), 0, inf)


def infer_meta_type(t: Term, sig) -> MetaType:
    """The unique ground meta-type of a closed term over `sig`."""
    return elaborate_term(t, sig)[1]
