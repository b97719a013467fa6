"""Meta-types, terms and goals.

Terms are simply-typed lambda-terms over a signature of constants, with
de Bruijn indices for lambda-bound variables.  Goals and clauses are the
terms of meta-type `o`: `Atom`, `All`, `Conj` and `Impl` nodes, which may
stand wherever a term may, as an atom argument or a lambda body.

Kernel-generated eigenvariables are constants carrying a positive birth
timestamp; matching variables are Meta nodes around a mutable cell.
Everything else is immutable and freely shareable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .errors import StructuralError

# ---------------------------------------------------------------------------
# Meta-types
# ---------------------------------------------------------------------------

BASE_NAMES = ("tp", "tm", "pf", "o")


# Each meta-type node computes its hash once, from its children's cached
# hashes, so that hashing a normalization memo key is O(1) per meta-type
# instead of a walk of the type tree.  Equality stays structural.


@dataclass(frozen=True)
class Base:
    name: str

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self.name))

    def __hash__(self):
        return self._hash

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Arrow:
    dom: "MetaType"
    cod: "MetaType"

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.dom, self.cod)))

    def __hash__(self):
        return self._hash

    def __str__(self):
        d = f"({self.dom})" if isinstance(self.dom, Arrow) else str(self.dom)
        return f"{d} -> {self.cod}"


@dataclass(frozen=True)
class SVar:
    """Type parameter of a polymorphic constant scheme (never ground)."""

    name: str

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self.name))

    def __hash__(self):
        return self._hash

    def __str__(self):
        return self.name


MetaType = Union[Base, Arrow, SVar]

TP = Base("tp")
TM = Base("tm")
PF = Base("pf")
O = Base("o")


def arrow(*mts: MetaType) -> MetaType:
    """Right-associated arrow: arrow(a, b, c) is a -> (b -> c)."""
    out = mts[-1]
    for m in reversed(mts[:-1]):
        out = Arrow(m, out)
    return out


def arg_types(mt: MetaType) -> list:
    """Argument types of an arrow spine, outermost first."""
    out = []
    while isinstance(mt, Arrow):
        out.append(mt.dom)
        mt = mt.cod
    return out


def result_base(mt: MetaType) -> MetaType:
    while isinstance(mt, Arrow):
        mt = mt.cod
    return mt


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

_cell_ids = itertools.count(1)


class MetaCell:
    """Mutable instantiation cell of a matching variable.

    `birth` orders the cell against eigenvariables: a binding may never
    contain an eigenvariable born after the cell (the freshness proviso
    for universally introduced variables, in checkable form).
    """

    __slots__ = ("uid", "mt", "birth", "value")

    def __init__(self, mt, birth):
        self.uid = next(_cell_ids)
        self.mt = mt
        self.birth = birth
        self.value = None

    def __repr__(self):
        return f"?{self.uid}" + ("*" if self.value is not None else "")


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Term):
    name: str
    mt: MetaType
    birth: int = 0

    def __repr__(self):
        return self.name if self.birth == 0 else f"{self.name}#{self.birth}"


@dataclass(frozen=True)
class Bound(Term):
    index: int

    def __repr__(self):
        return f"'{self.index}"


@dataclass(frozen=True)
class Meta(Term):
    cell: MetaCell

    def __repr__(self):
        return repr(self.cell)


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term

    def __repr__(self):
        return f"({self.fn!r} {self.arg!r})"


@dataclass(frozen=True)
class Lam(Term):
    mt: Optional[MetaType]
    body: Term
    hint: Optional[str] = field(default=None, compare=False, repr=False)

    def __repr__(self):
        return f"(\\ {self.body!r})"


# ---------------------------------------------------------------------------
# Goals
# ---------------------------------------------------------------------------


class Goal(Term):
    """A term of meta-type o."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Goal):
    pred: str
    args: tuple  # Terms; an o-typed argument is itself a Goal

    def __repr__(self):
        return "(" + " ".join([self.pred] + [repr(a) for a in self.args]) + ")"


@dataclass(frozen=True)
class All(Goal):
    mt: Optional[MetaType]
    body: Goal
    hint: Optional[str] = field(default=None, compare=False, repr=False)

    def __repr__(self):
        return f"(pi\\ {self.body!r})"


@dataclass(frozen=True)
class Conj(Goal):
    left: Goal
    right: Goal

    def __repr__(self):
        return f"({self.left!r}, {self.right!r})"


@dataclass(frozen=True)
class Impl(Goal):
    """One clause/goal implication; covers both surface arrows.

    As a goal it means: push `clause`, solve `goal`.  Backchained as a
    clause it means: `goal` is the head, `clause` the body.
    """

    clause: Goal
    goal: Goal

    def __repr__(self):
        return f"({self.goal!r} <<== {self.clause!r})"


# ---------------------------------------------------------------------------
# Generic traversal
# ---------------------------------------------------------------------------


def map_children(t, f, d, x):
    """Rebuild a node with `f(child, depth, x)` on each child, left to right.

    `depth` is `d`, but `d + 1` for the body of a `Lam` or `All`.  If every
    child comes back as the same object, `t` itself is returned, so
    unchanged subtrees stay shared; leaves (`Const`, `Bound`, `Meta`, not
    dereferenced) are returned as they are.
    """
    if isinstance(t, App):
        fn, arg = f(t.fn, d, x), f(t.arg, d, x)
        return t if fn is t.fn and arg is t.arg else App(fn, arg)
    if isinstance(t, (Lam, All)):
        body = f(t.body, d + 1, x)
        return t if body is t.body else type(t)(t.mt, body, t.hint)
    if isinstance(t, Atom):
        args = tuple([f(a, d, x) for a in t.args])
        return t if all(a is b for a, b in zip(args, t.args)) else Atom(t.pred, args)
    if isinstance(t, Conj):
        l, r = f(t.left, d, x), f(t.right, d, x)
        return t if l is t.left and r is t.right else Conj(l, r)
    if isinstance(t, Impl):
        cl, g = f(t.clause, d, x), f(t.goal, d, x)
        return t if cl is t.clause and g is t.goal else Impl(cl, g)
    return t


# ---------------------------------------------------------------------------
# Dereferencing, shifting, substitution
# ---------------------------------------------------------------------------


def deref(t: Term) -> Term:
    while isinstance(t, Meta) and t.cell.value is not None:
        t = t.cell.value
    return t


def shift(t, by: int, cutoff: int = 0):
    """Shift free de Bruijn indices >= cutoff by `by` (terms and goals)."""
    if by == 0:
        return t
    return _shift(t, cutoff, by)


def _shift(t, c, by):
    if isinstance(t, Bound):
        return Bound(t.index + by) if t.index >= c else t
    return map_children(t, _shift, c, by)


def subst(body, arg):
    """Replace the outermost open binder of `body` by `arg`, capture-avoiding.

    Unchanged subtrees are returned as the same objects, so sharing in the
    input survives substitution.
    """
    return _subst(body, 0, (arg,))


def _subst(t, d, vs):
    # vs[-1] replaces the innermost of the len(vs) binders being removed;
    # applications and leaves, the hot cases, are handled here: through
    # map_children they cost twice as much
    if isinstance(t, App):
        fn, arg = _subst(t.fn, d, vs), _subst(t.arg, d, vs)
        return t if fn is t.fn and arg is t.arg else App(fn, arg)
    if isinstance(t, Bound):
        i = t.index - d
        if i < 0:
            return t
        if i < len(vs):
            return shift(vs[-1 - i], d)
        return Bound(t.index - len(vs))
    if isinstance(t, (Const, Meta)):
        return t
    return map_children(t, _subst, d, vs)


def subst_goal(body: Goal, *args: Term) -> Goal:
    """Replace the len(args) innermost open binders of `body` in one pass,
    `args[-1]` for the innermost (index 0); with closed arguments,
    `subst_goal(b, x, y)` is `subst(subst(b, y), x)`."""
    return _subst(body, 0, args)


# ---------------------------------------------------------------------------
# Meta-type computation (terms must be annotated)
# ---------------------------------------------------------------------------


def meta_type_of(t: Term, env=()) -> MetaType:
    """Meta-type of an annotated term; env lists binder types, innermost first."""
    t0 = t
    if isinstance(t, Meta):
        return t.cell.mt
    if isinstance(t, Const):
        return t.mt
    if isinstance(t, Bound):
        if t.index >= len(env):
            raise StructuralError(f"unbound index {t.index} outside environment")
        return env[t.index]
    if isinstance(t, App):
        fmt = meta_type_of(t.fn, env)
        if not isinstance(fmt, Arrow):
            raise StructuralError(f"application of non-function in {t0!r}")
        return fmt.cod
    if isinstance(t, Lam):
        if t.mt is None:
            raise StructuralError("unannotated binder")
        return Arrow(t.mt, meta_type_of(t.body, (t.mt,) + tuple(env)))
    if isinstance(t, Goal):
        return O
    raise StructuralError(f"not a term: {t0!r}")


# ---------------------------------------------------------------------------
# Normalization: beta-normal, eta-long
# ---------------------------------------------------------------------------


def spine(t: Term):
    """Head and arguments after top-level beta contraction and dereferencing."""
    args = []
    while True:
        t = deref(t)
        if isinstance(t, App):
            args.append(t.arg)
            t = t.fn
        elif isinstance(t, Lam) and args:
            t = subst(t.body, args.pop())
        else:
            break
    args.reverse()
    return t, args


def plain_spine(t: Term):
    """Head and arguments of an application, without contraction or
    dereferencing (for input that is already normal)."""
    args = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def _rebuild(head, args):
    for a in args:
        head = App(head, a)
    return head


def normalize(t: Term, env=()) -> Term:
    """Beta-normal eta-long form.  Terminates on all well-annotated input."""
    return _norm(t, meta_type_of(t, env), tuple(env), {})


def _norm(t, mt, env, memo):
    # the memo entry pins the keyed node: id() of a dead temporary could
    # otherwise be recycled for a different node mid-normalization
    key = (id(t), mt, env)
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    if isinstance(mt, Arrow):
        h, args = spine(t)
        if isinstance(h, Lam) and not args:
            out = Lam(mt.dom, _norm(h.body, mt.cod, (mt.dom,) + env, memo), h.hint)
        else:
            # eta-expand a partially applied head
            body = App(shift(_rebuild(h, args), 1), Bound(0))
            out = Lam(mt.dom, _norm(body, mt.cod, (mt.dom,) + env, memo))
    elif mt == O:
        h, args = spine(t)
        if not isinstance(h, Goal) or args:
            raise StructuralError(f"term of meta-type o is not a goal: {t!r}")
        out = _norm_goal(h, env, memo)
    else:
        h, args = spine(t)
        if not args:
            out = h
        else:
            hmt = meta_type_of(h, env)
            out = h
            for a in args:
                if not isinstance(hmt, Arrow):
                    raise StructuralError(f"over-applied head in {t!r}")
                out = App(out, _norm(a, hmt.dom, env, memo))
                hmt = hmt.cod
    memo[key] = (t, out)
    return out


def _norm_goal(g, env, memo):
    if isinstance(g, Atom):
        args = tuple(_norm(a, meta_type_of(a, env), env, memo) for a in g.args)
        return Atom(g.pred, args)
    if isinstance(g, All):
        return All(g.mt, _norm_goal(g.body, (g.mt,) + env, memo), g.hint)
    if isinstance(g, Conj):
        return Conj(_norm_goal(g.left, env, memo), _norm_goal(g.right, env, memo))
    if isinstance(g, Impl):
        return Impl(_norm_goal(g.clause, env, memo), _norm_goal(g.goal, env, memo))
    raise StructuralError(f"not a goal: {g!r}")


def normalize_goal(g: Goal, env=()) -> Goal:
    return _norm_goal(g, tuple(env), {})


def alpha_beta_eq(a, b, env=()) -> bool:
    """Equality modulo beta/eta and binder renaming."""
    return normalize(a, env) == normalize(b, env)


# ---------------------------------------------------------------------------
# Walks and measurements
# ---------------------------------------------------------------------------


def children(t):
    if isinstance(t, App):
        return (t.fn, t.arg)
    if isinstance(t, (Lam, All)):
        return (t.body,)
    if isinstance(t, Atom):
        return tuple(t.args)
    if isinstance(t, Conj):
        return (t.left, t.right)
    if isinstance(t, Impl):
        return (t.clause, t.goal)
    return ()


def walk(t) -> Iterator:
    """All nodes of a term/goal tree, dereferencing bound meta cells."""
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Meta) and t.cell.value is not None:
            stack.append(t.cell.value)
        else:
            yield t
            stack.extend(children(t))


def has_unbound_meta(t) -> bool:
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, App):
            stack.append(t.fn)
            stack.append(t.arg)
        elif isinstance(t, Meta):
            if t.cell.value is None:
                return True
            stack.append(t.cell.value)
        elif not isinstance(t, (Const, Bound)):
            stack.extend(children(t))
    return False


def has_bound_meta(t) -> bool:
    """Whether a bound matching variable occurs in `t` (values not entered):
    only such a term can hold a redex once its own parts are normal."""
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, App):
            stack.append(t.fn)
            stack.append(t.arg)
        elif isinstance(t, Meta):
            if t.cell.value is not None:
                return True
        elif not isinstance(t, (Const, Bound)):
            stack.extend(children(t))
    return False


def max_eigen_birth(t) -> int:
    best = 0
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, App):
            stack.append(t.fn)
            stack.append(t.arg)
        elif isinstance(t, Const):
            if t.birth > best:
                best = t.birth
        elif isinstance(t, Meta):
            if t.cell.value is not None:
                stack.append(t.cell.value)
        elif not isinstance(t, Bound):
            stack.extend(children(t))
    return best


def const_names(t) -> set:
    return {n.name for n in walk(t) if isinstance(n, Const)}


def replace_const(t, mapping, depth=0):
    """Replace constants by de Bruijn variables.

    `mapping` sends a constant name to the number of binders between the
    root of `t` and its binder; indices are adjusted under inner binders.
    """
    return _replace_const(t, depth, mapping)


def _replace_const(t, depth, mapping):
    if isinstance(t, Const):
        if t.name in mapping:
            return Bound(mapping[t.name] + depth)
        return t
    return map_children(t, _replace_const, depth, mapping)


def map_proves(g: Goal, fn, env=()) -> Goal:
    """Replace every positive `proves` atom of a goal by `fn(atom, env)`.

    Positive atoms are those reached through universals, conjunctions and
    the goal side of implications; `env` lists the binder meta-types
    entered so far, innermost first.  Clauses, which are hypotheses, and
    other atoms are kept.
    """
    if isinstance(g, Atom):
        return fn(g, env) if g.pred == "proves" else g
    if isinstance(g, All):
        return All(g.mt, map_proves(g.body, fn, (g.mt,) + tuple(env)), g.hint)
    if isinstance(g, Conj):
        return Conj(map_proves(g.left, fn, env), map_proves(g.right, fn, env))
    if isinstance(g, Impl):
        return Impl(g.clause, map_proves(g.goal, fn, env))
    return g
