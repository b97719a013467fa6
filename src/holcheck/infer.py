"""Meta-type inference: instantiation, unification and grounding.

The parser types each term as it builds it, with an `Inference` per
statement and per `def_*` argument: a binder gets a unification variable,
a polymorphic builtin a fresh instance per occurrence, and an application
is unified where it is built.  Elaboration then grounds every annotation;
an unsolved variable is reported at the token of the binder or constant
that made it.  The instance chosen for a polymorphic constant is recorded
on the constant node itself, where the kernel reads it back.
"""

from __future__ import annotations

import itertools
from operator import is_

from .errors import MetaTypeError
from .terms import App, Arrow, Base, Const, Lam, MetaType, SVar, Term


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
    while mt.__class__ is UVar and mt.ref is not None:  # `_chase`, inline
        mt = mt.ref
    if mt is v:
        return True
    if mt.__class__ is Arrow:
        return _occurs(v, mt.dom) or _occurs(v, mt.cod)
    return False


def _unify(a, b, where, pos):
    """Unify two meta-types.  `where()` names the site for an error message,
    called only on failure, which is reported at `pos`."""
    if a is b:  # a declared meta-type met again: nothing to chase
        return
    while a.__class__ is UVar and a.ref is not None:  # `_chase`, inline
        a = a.ref
    while b.__class__ is UVar and b.ref is not None:
        b = b.ref
    if a is b:
        return
    if b.__class__ is UVar and a.__class__ is not UVar:
        a, b = b, a
    if a.__class__ is UVar:
        if b.__class__ is Arrow and _occurs(a, b):
            raise MetaTypeError(f"circular meta-type in {where()}", *(pos or ()))
        a.ref = b
        return
    if a.__class__ is Base and b.__class__ is Base and a == b:
        return
    if a.__class__ is Arrow and b.__class__ is Arrow:
        _unify(a.dom, b.dom, where, pos)
        _unify(a.cod, b.cod, where, pos)
        return
    raise MetaTypeError(
        f"meta-type mismatch in {where()}: {_resolve(a, True)} vs {_resolve(b, True)}",
        *(pos or ()),
    )


def _resolve(mt, loose=False):
    """`mt` with its solved variables resolved, itself if it has none; None
    if one is unsolved, unless `loose`, which keeps it."""
    while mt.__class__ is UVar and mt.ref is not None:  # `_chase`, inline
        mt = mt.ref
    if mt.__class__ is Arrow:
        dom, cod = _resolve(mt.dom, loose), _resolve(mt.cod, loose)
        if dom is None or cod is None:
            return None
        return mt if dom is mt.dom and cod is mt.cod else Arrow(dom, cod)
    return None if mt.__class__ is UVar and not loose else mt


def _instance(mt, v):
    """`mt` with every type parameter replaced by `v`."""
    if isinstance(mt, SVar):
        return v
    if isinstance(mt, Arrow):
        return Arrow(_instance(mt.dom, v), _instance(mt.cod, v))
    return mt


class Inference:
    """The unification variables of one elaboration.  `at` maps the `id` of
    the meta-type made for a binder or a polymorphic constant to that
    meta-type and its token; any other constant's meta-type is ground.
    `plain` holds the applications that `ground` recorded, by `id`, and
    keeps them alive, so that no other node can take an `id` of theirs."""

    def __init__(self):
        self._uids = itertools.count(1)
        self.at = {}
        self.plain = {}

    def fresh(self, pos=None):
        v = UVar(next(self._uids))
        if pos is not None:
            self.at[id(v)] = v, pos
        return v

    def instantiate(self, scheme, pos):
        if not scheme.poly:
            return scheme.body
        mt = _instance(scheme.body, self.fresh())
        self.at[id(mt)] = mt, pos  # a key of its own: it holds the fresh variable
        return mt

    def mark(self):
        """A checkpoint for `ground`."""
        return len(self.at)

    def ground(self, t, mark):
        """Record the application `t`, built since `mark`, as ground whole
        if no binder variable and no polymorphic instance was made since:
        `_zonk` then returns it as it is."""
        if len(self.at) == mark:
            self.plain[id(t)] = t

    def apply(self, fmt, amt, where, pos):
        """The meta-type of applying a function of meta-type `fmt` to an
        argument of meta-type `amt`; a mismatch is reported at `pos`."""
        while fmt.__class__ is UVar and fmt.ref is not None:  # `_chase`, inline
            fmt = fmt.ref
        if fmt.__class__ is Arrow:  # as below, without a fresh variable
            _unify(fmt.dom, amt, where, pos)
            return fmt.cod
        res = self.fresh()
        _unify(fmt, Arrow(amt, res), where, pos)
        return res


def _zonk(t, inf):
    """Ground every meta-type annotation of a term, keeping the nodes that
    are ground already.  An application `inf.ground` recorded is ground
    whole, and so is a constant whose meta-type `inf.at` does not hold."""
    c = t.__class__
    if c is App:
        if id(t) in inf.plain:
            return t
        # the arguments right to left, then the head: an unresolved binder
        # is named before the constant applied to its lambda, `pi` or `elam`
        old = t.args
        args = [_zonk(a, inf) for a in reversed(old)]
        args.reverse()
        h = _zonk(t.head, inf)
        return t if h is t.head and all(map(is_, args, old)) else App(h, tuple(args))
    if c is not Const and c is not Lam:
        return t
    made = inf.at.get(id(t.mt))
    mt = t.mt if made is None else _resolve(t.mt)
    if mt is None:
        what = f"constant '{t.name}'" if c is Const else f"binder '{t.hint or '_'}'"
        raise MetaTypeError(f"cannot infer a ground meta-type for {what}", *made[1])
    if c is Lam:
        return Lam(mt, _zonk(t.body, inf), t.hint)
    return t if mt is t.mt else Const(t.name, mt, t.birth)


def elaborate_term(t: Term, mt, inf: Inference, expect: MetaType = None, pos=None):
    """Ground a term the parser typed as `mt` with `inf`, after unifying
    `mt` with `expect`, if given; a mismatch is reported at `pos`."""
    if expect is not None:
        _unify(mt, expect, lambda: "declared meta-type", pos)
    return _zonk(t, inf)


def elaborate_goal(g: Term, inf: Inference):
    """Ground a goal, which the parser typed with `inf` and checked."""
    return _zonk(g, inf)
