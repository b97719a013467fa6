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
from .signature import GOAL_FORMERS
from .terms import (
    App,
    Arrow,
    Base,
    Bound,
    Const,
    Lam,
    MetaType,
    O,
    SVar,
    Term,
)

class UVar:
    """Unification variable over meta-types (inference-internal), numbered
    from 1 within one elaboration."""

    __slots__ = ("uid", "ref")

    def __init__(self, uid):
        self.uid = uid
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


class _Inference:
    def __init__(self, sig, pos):
        self.sig = sig
        self.pos = pos
        self._uids = itertools.count(1)

    def fresh(self):
        return UVar(next(self._uids))

    def instantiate(self, scheme):
        if not scheme.poly:
            return scheme.body
        v = self.fresh()

        def go(mt):
            if isinstance(mt, SVar):
                return v
            if isinstance(mt, Arrow):
                return Arrow(go(mt.dom), go(mt.cod))
            return mt

        return go(scheme.body)

    # -- constraint generation; terms come back annotated with UVars ------

    def term(self, t, env):
        """Return (annotated term, meta-type with possible UVars).  `env`
        holds the enclosing binders' (meta-type, hint), innermost first."""
        if isinstance(t, Const):
            sch = self.sig.lookup(t.name) or GOAL_FORMERS.get(t.name)
            if sch is None:
                raise MetaTypeError(f"undeclared constant '{t.name}'", *(self.pos or ()))
            mt = self.instantiate(sch)
            return Const(t.name, mt, t.birth), mt
        if isinstance(t, Bound):
            return t, env[t.index][0]
        if isinstance(t, App):
            fn, fmt = self.term(t.fn, env)
            arg, amt = self.term(t.arg, env)
            fmt = _chase(fmt)
            if isinstance(fmt, Arrow):  # as below, without a fresh variable
                _unify(fmt.dom, amt, lambda: self.site(t, env), self.pos)
                return App(fn, arg), fmt.cod
            res = self.fresh()
            _unify(fmt, Arrow(amt, res), lambda: self.site(t, env), self.pos)
            return App(fn, arg), res
        if isinstance(t, Lam):
            dom = t.mt if t.mt is not None else self.fresh()
            body, bmt = self.term(t.body, ((dom, t.hint),) + env)
            return Lam(dom, body, t.hint), Arrow(dom, bmt)
        raise MetaTypeError(f"not a term: {t!r}", *(self.pos or ()))

    def site(self, t, env):
        from .syntax import format_term  # syntax imports this module

        return f"application {format_term(t, self.sig, [h or '_' for _, h in env])}"

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


def _zonk(t, inf):
    """Ground every meta-type annotation of a term."""
    if isinstance(t, Const):
        return Const(t.name, inf.zonk_mt(t.mt, f"constant '{t.name}'"), t.birth)
    if isinstance(t, Lam):
        mt = inf.zonk_mt(t.mt, f"binder '{t.hint or '_'}'")
        return Lam(mt, _zonk(t.body, inf), t.hint)
    if isinstance(t, App):
        # the argument first: an unresolved binder is named before the
        # constant applied to its lambda, `pi` or `elam`
        arg = _zonk(t.arg, inf)
        return App(_zonk(t.fn, inf), arg)
    return t


def elaborate_term(t: Term, sig, expect: MetaType = None, pos=None):
    """Annotate a term, returning (term, ground meta-type)."""
    return _elaborate(t, sig, expect, pos)


def elaborate_goal(g, sig, pos=None):
    """Annotate a goal, a term of meta-type o."""
    return _elaborate(g, sig, O, pos)[0]


def _elaborate(t, sig, expect, pos):
    inf = _Inference(sig, pos)
    t2, mt = inf.term(t, ())
    if expect is not None:
        _unify(mt, expect, "declared meta-type", pos)
    t3 = _zonk(t2, inf)
    return t3, inf.zonk_mt(mt, "the whole term")


def infer_meta_type(t: Term, sig) -> MetaType:
    """The unique ground meta-type of a closed term over `sig`."""
    return elaborate_term(t, sig)[1]
