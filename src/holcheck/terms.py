"""Meta-types and terms.

Terms are simply-typed lambda-terms over a signature of constants, with
de Bruijn indices for lambda-bound variables, in five node kinds: `Const`,
`Bound`, `Meta`, `App` and `Lam`.  Applications are in spine form, as in
the spine calculus of Cervesato & Pfenning (2003): an `App` holds a head,
never an `App`, and the tuple of all its arguments, so a walk reads a
head and its arguments off one node.  Goals and clauses are the terms of
meta-type `o`, as in lambda-Prolog: applications of a predicate (`proves`,
`hastype`, `assump` or a declared one) or of a goal former, `pi` to the
lambda of its binder, `,` and `=>` (clause first) to two goals.

Kernel-generated eigenvariables are constants carrying a positive birth
timestamp; matching variables are Meta nodes around a mutable cell.
Everything else is immutable and freely shareable.  Terms are acyclic: a
node refers only to nodes built before it, and the value bound to a cell
holds no Meta, so reference counting frees them without the cyclic GC.

Each node has `free`, set when it is built: `META_FREE` if the term holds
a Meta, else one more than its greatest loose index, 0 if none.  A term
with `free <= d` has no index loose outside `d` binders and no Meta, and
`_hsubst`, `shift` and the kernel's `_abstract` return it unwalked.  In a
term that `_hsubst` has just built every Meta is unbound, so there `free`
answers `has_unbound_meta`, which scans only a term that holds a Meta.

Normal forms are beta-normal and eta-long.  Object-level substitution is
a meta-level beta step.  `normalize` checks a normal term in place: a
lambda at an arrow type, or at a base type a head (a constant, in-scope
variable or unbound matching variable; at o a predicate or former) with
its arguments, each checked at the head's argument type; it returns `t`
itself if none changed.  Only a subterm that is not normal as it stands
(a redex, a bound matching variable at its head, an eta-short or
over-applied term, a non-goal at o) goes to `_norm`, which takes the
steps in one walk with an environment of the contracted redexes'
arguments, each normalized when its binder is first used and shared by
every use.  On normal terms they are taken by hereditary substitution
(`_hsubst`, as in the canonical forms of Watkins, Cervesato, Pfenning &
Walker, 2002): a lambda substituted at an applied head is reduced at
once, so normal terms substituted into a normal term give a normal term.
`_hsubst` is the only substitution walk: `subst` and `subst_goal` are
calls of it.
"""

from __future__ import annotations

from operator import attrgetter, is_

from .errors import FrozenInstanceError, StructuralError


class _Frozen:
    """Immutable; equal when of one class and equal `_key`; pickled by slots."""

    __slots__ = ()

    def __init__(self, *values):  # `Base`'s and `SVar`'s; the hot classes set slots directly
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):  # and `__delattr__`
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __repr__(self):  # a meta-type's, as written; each kind of term node has its own
        return str(self)


# ---------------------------------------------------------------------------
# Meta-types
# ---------------------------------------------------------------------------

BASE_NAMES = ("tp", "tm", "pf", "o")


class Base(_Frozen):
    __slots__ = ("name",)
    _key = attrgetter("name")

    def __str__(self):
        return self.name


class Arrow(_Frozen):
    __slots__ = ("dom", "cod")
    _key = attrgetter(*__slots__)

    def __init__(self, dom: MetaType, cod: MetaType):
        _set_dom(self, dom)
        _set_cod(self, cod)

    def __str__(self):
        d = f"({self.dom})" if isinstance(self.dom, Arrow) else str(self.dom)
        return f"{d} -> {self.cod}"


class SVar(_Frozen):
    """Type parameter of a polymorphic constant scheme (never ground)."""

    __slots__ = ("name",)
    _key = attrgetter("name")

    def __str__(self):
        return self.name


MetaType = Base | Arrow | SVar

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


class MetaCell:
    """Mutable instantiation cell of a matching variable.

    `birth` orders the cell against eigenvariables: a binding may never
    contain an eigenvariable born after the cell (the freshness proviso
    for universally introduced variables, in checkable form).  It also
    names the variable in printouts (`?birth`), so a name depends only on
    the session that made it, not on what ran before in the process.
    """

    __slots__ = ("mt", "birth", "value")

    def __init__(self, mt, birth):
        self.mt = mt
        self.birth = birth
        self.value = None

    def __repr__(self):
        return f"?{self.birth}" + ("*" if self.value is not None else "")


# `free` of a term holding a Meta: above any depth, and one CPython digit
META_FREE = (1 << 30) - 1


class Term(_Frozen):
    """A node.  Its `_key` is its fields but a `Lam`'s hint."""

    __slots__ = ("free",)  # a class attribute in `Const` and `Meta`


class Const(Term):
    __slots__ = ("name", "mt", "birth")
    _key = attrgetter(*__slots__)
    free = 0

    def __init__(self, name: str, mt: MetaType, birth: int = 0):
        _set_name(self, name)
        _set_const_mt(self, mt)
        _set_birth(self, birth)

    def __repr__(self):
        return self.name if self.birth == 0 else f"{self.name}#{self.birth}"


class Bound(Term):
    __slots__ = ("index",)
    _key = attrgetter("index")

    def __init__(self, index: int):
        _set_index(self, index)
        _set_free(self, index + 1)

    def __repr__(self):
        return f"'{self.index}"


class Meta(Term):
    __slots__ = ("cell",)
    _key = attrgetter("cell")
    free = META_FREE

    def __init__(self, cell: MetaCell):
        _set_cell(self, cell)

    def __repr__(self):
        return repr(self.cell)


class App(Term):
    """A head applied to a non-empty tuple of arguments.  The head is never
    an `App`: `app` flattens.  In a normal term it is a `Const`, `Bound`
    or `Meta`; a parsed term may also have a `Lam` there."""

    __slots__ = ("head", "args")
    _key = attrgetter(*__slots__)

    def __init__(self, head: Term, args: tuple):
        _set_head(self, head)
        _set_args(self, args)
        f = head.free
        for a in args:
            if a.free > f:
                f = a.free
        _set_free(self, f)

    def __repr__(self):  # as nested binary applications, `((f a) b)`
        return "(" * len(self.args) + repr(self.head) + "".join(f" {a!r})" for a in self.args)


class Lam(Term):
    __slots__ = ("mt", "body", "hint")
    _key = attrgetter("mt", "body")

    def __init__(self, mt: MetaType | None, body: Term, hint: str | None = None):
        _set_lam_mt(self, mt)
        _set_body(self, body)
        _set_hint(self, hint)
        f = body.free
        _set_free(self, f - 1 if 0 < f < META_FREE else f)  # a Meta's stays

    def __repr__(self):
        return f"(\\ {self.body!r})"


# the slot setters, which bypass `_Frozen.__setattr__`
_set_dom, _set_cod = Arrow.dom.__set__, Arrow.cod.__set__
_set_name, _set_const_mt, _set_birth = Const.name.__set__, Const.mt.__set__, Const.birth.__set__
_set_index, _set_cell, _set_free = Bound.index.__set__, Meta.cell.__set__, Term.free.__set__
_set_head, _set_args = App.head.__set__, App.args.__set__
_set_lam_mt, _set_body, _set_hint = Lam.mt.__set__, Lam.body.__set__, Lam.hint.__set__


# ---------------------------------------------------------------------------
# Goals
# ---------------------------------------------------------------------------

PROVES = Const("proves", arrow(PF, TM, O))
HASTYPE = Const("hastype", arrow(TM, TP, O))
ASSUMP = Const("assump", Arrow(O, O))
AND = Const(",", arrow(O, O, O))
IMP = Const("=>", arrow(O, O, O))  # clause first: push it, solve the goal


def app(head: Term, *args: Term) -> Term:
    """`head` applied to `args`, one spine: the arguments of an `App` head
    come first."""
    if not args:
        return head
    return App(head.head, head.args + args) if isinstance(head, App) else App(head, args)


def pi(mt: MetaType, body: Term, hint=None) -> Term:
    """The universal goal over a binder of meta-type `mt`."""
    return App(Const("pi", Arrow(Arrow(mt, O), O)), (Lam(mt, body, hint),))


# the built-in predicates and their arities
_PREDICATES = {"proves": 2, "hastype": 2, "assump": 1}


def _pred(atom):
    """The built-in predicate that `atom` applies at its arity, else None."""
    h = atom.head if isinstance(atom, App) else None
    return h.name if isinstance(h, Const) and _PREDICATES.get(h.name) == len(atom.args) else None


def _former(g):
    """The goal former that `g` applies, read off the node: `pi` over a
    lambda, or `,` or `=>` of two goals; None for an atom."""
    if isinstance(g, App) and isinstance(g.head, Const):
        name, args = g.head.name, g.args
        if name == "pi":
            return name if len(args) == 1 and isinstance(args[0], Lam) else None
        if (name == "," or name == "=>") and len(args) == 2:
            return name
    return None


# ---------------------------------------------------------------------------
# Generic traversal
# ---------------------------------------------------------------------------


def map_children(t, f, d, x):
    """Rebuild a node with `f(child, depth, x)` on each child, left to right
    (an `App`'s head, then its arguments).

    `depth` is `d`, but `d + 1` for the body of a `Lam`.  If every
    child comes back as the same object, `t` itself is returned, so
    unchanged subtrees stay shared; leaves (`Const`, `Bound`, `Meta`, not
    dereferenced) are returned as they are.
    """
    if isinstance(t, App):
        h, args = f(t.head, d, x), [f(a, d, x) for a in t.args]
        return t if h is t.head and all(map(is_, args, t.args)) else app(h, *args)
    if isinstance(t, Lam):
        body = f(t.body, d + 1, x)
        return t if body is t.body else Lam(t.mt, body, t.hint)
    return t


# ---------------------------------------------------------------------------
# Dereferencing, shifting, substitution
# ---------------------------------------------------------------------------


def deref(t: Term) -> Term:
    while isinstance(t, Meta) and t.cell.value is not None:
        t = t.cell.value
    return t


def shift(t, by: int):
    """Shift free de Bruijn indices by `by`."""
    if by == 0:
        return t
    return _shift(t, 0, by)


def _shift(t, c, by):
    if t.free <= c:
        return t
    if isinstance(t, Bound):
        return Bound(t.index + by)
    return map_children(t, _shift, c, by)


def subst(body, arg):
    """Replace the outermost open binder of `body` by `arg`, capture-avoiding,
    by hereditary substitution (`_hsubst`): bound matching variables are
    replaced by their values too, and a lambda put at a head is reduced.

    Unchanged subtrees are returned as the same objects, so sharing in the
    input survives substitution.
    """
    return _hsubst(body, 0, (arg,))


def subst_goal(body: Term, *args: Term) -> Term:
    """Replace the len(args) innermost open binders of `body` in one pass,
    `args[-1]` for the innermost (index 0); with closed arguments,
    `subst_goal(b, x, y)` is `subst(subst(b, y), x)`."""
    return _hsubst(body, 0, args)


# ---------------------------------------------------------------------------
# Meta-type computation (terms must be annotated)
# ---------------------------------------------------------------------------


def meta_type_of(t: Term, env=()) -> MetaType:
    """Meta-type of an annotated term; env lists binder types, innermost first."""
    if isinstance(t, Meta):
        return t.cell.mt
    if isinstance(t, Const):
        return t.mt
    if isinstance(t, Bound):
        if t.index >= len(env):
            raise StructuralError(f"unbound index {t.index} outside environment")
        return env[t.index]
    if isinstance(t, App):
        fmt = meta_type_of(t.head, env)
        for k in range(len(t.args)):
            if not isinstance(fmt, Arrow):  # named by its shortest such prefix
                part = app(t.head, *t.args[: k + 1])
                raise StructuralError(f"application of non-function in {part!r}")
            fmt = fmt.cod
        return fmt
    if isinstance(t, Lam):
        if t.mt is None:
            raise StructuralError("unannotated binder")
        return Arrow(t.mt, meta_type_of(t.body, (t.mt,) + tuple(env)))
    raise StructuralError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def normalize(t: Term, env=()) -> Term:
    """Beta-normal eta-long form.  Terminates on all well-annotated input.

    Unchanged subtrees, and `t` itself if it is normal, are returned as the
    same objects."""
    return _nf(t, meta_type_of(t, env), tuple(env))


def normalize_goal(g: Term, env=()) -> Term:
    """`normalize` of a term of meta-type o."""
    return _nf(g, O, tuple(env))


def _nf(t, mt, env):
    # `_norm(t, (), len(env), [], mt, env)`, a normal term checked in place
    # and any other subterm handed to `_norm` (see the module docstring)
    if isinstance(mt, Arrow):
        if not isinstance(t, Lam):
            return _norm(t, (), len(env), [], mt, env)
        body = _nf(t.body, mt.cod, (mt.dom,) + env)
        return t if body is t.body and t.mt == mt.dom else Lam(mt.dom, body, t.hint)
    h, args = (t.head, t.args) if isinstance(t, App) else (t, ())
    if isinstance(h, Const) and (h.birth == 0 or mt != O):
        hmt = h.mt
    elif isinstance(h, Bound) and h.index < len(env) and mt != O:
        hmt = env[h.index]
    elif isinstance(h, Meta) and h.cell.value is None and mt != O:
        hmt = h.cell.mt
    else:
        return _norm(t, (), len(env), [], mt, env)
    new = []
    for a in args:
        if not isinstance(hmt, Arrow):
            return _norm(t, (), len(env), [], mt, env)
        new.append(_nf(a, hmt.dom, env))
        hmt = hmt.cod
    return t if all(map(is_, new, args)) else App(h, tuple(new))


class _Arg:
    """The argument of a contracted redex, with its substitution: normalized
    when its binder is first used, then shared by every use."""

    __slots__ = ("term", "sub", "base", "mt", "env", "value")

    def __init__(self, term, sub, base, mt, env):
        self.term, self.sub, self.base, self.mt, self.env = term, sub, base, mt, env
        self.value = None

    def force(self, depth):
        if self.value is None:
            self.value = _norm(self.term, self.sub, self.base, [], self.mt, self.env)
        return shift(self.value, depth - len(self.env))


def _eta_index(t):
    # the index, outside `t`, of the variable that `t` is an unnamed
    # eta-expansion of, as normalization makes them; else -1
    n, b = 0, t
    while isinstance(b, Lam) and b.hint is None:
        n, b = n + 1, b.body
    if n and isinstance(b, App) and isinstance(b.head, Bound) and b.head.index >= n and (
        b.args == tuple(Bound(k) for k in range(n - 1, -1, -1))
    ):
        return b.head.index - n
    return -1


def _norm(t, sub, base, args, mt, env):
    # the normal form at meta-type `mt`, under binders of the types `env`,
    # of `t` applied to `args`, (term, sub, base) closures.  Index i of a
    # term stands for sub[i], an `_Arg` or the level of a binder of `env`,
    # and past `sub` for level base - 1 - (i - len(sub)).  A redex binds
    # its argument unnormalized, so an argument is normalized only if its
    # binder is used, once however often; the head is checked last
    d, orig = len(env), None if args else t
    while True:
        h = t
        if isinstance(t, App):
            h, args = t.head, [(a, sub, base) for a in t.args] + args
        if isinstance(h, Lam) and args:
            sub, t, args = (_Arg(*args[0], h.mt, env),) + sub, h.body, args[1:]
        elif isinstance(h, Meta) and h.cell.value is not None:
            t, sub, base = h.cell.value, (), d
        elif isinstance(h, Bound):
            v = sub[h.index] if h.index < len(sub) else base - 1 - h.index + len(sub)
            if isinstance(v, _Arg) and not args:
                return v.force(d)
            if isinstance(v, _Arg):
                t, sub, base = v.force(len(v.env)), (), len(v.env)
            elif v < 0:
                raise StructuralError(f"unbound index {h.index} outside environment")
            else:
                orig, h = (orig, h) if d - 1 - v == h.index else (None, Bound(d - 1 - v))
                break
        else:
            break
        orig = None
    if isinstance(mt, Arrow) and isinstance(h, Lam):
        # an unnamed eta-expansion of an argument is the argument's normal
        # form, binder names kept
        i = _eta_index(h)
        if 0 <= i < len(sub) and isinstance(sub[i], _Arg):
            return sub[i].force(d)
        body = _norm(h.body, (d,) + sub, base, [], mt.cod, (mt.dom,) + env)
        return h if body is h.body and h.mt == mt.dom else Lam(mt.dom, body, h.hint)
    if isinstance(mt, Arrow):  # eta-expand a partially applied head
        args = args + [(Bound(0), (d,), 0)]
        return Lam(mt.dom, _norm(h, (), d, args, mt.cod, (mt.dom,) + env))
    raw = [a for a, _, _ in args]
    # a goal applies a predicate or a goal former
    if mt == O and not (isinstance(h, Const) and h.birth == 0):
        raise StructuralError(f"term of meta-type o is not a goal: {app(h, *raw)!r}")
    hmt = env[h.index] if isinstance(h, Bound) else h.cell.mt if isinstance(h, Meta) else h.mt
    new = []
    for a in args:
        if not isinstance(hmt, Arrow):
            raise StructuralError(f"over-applied head in {app(h, *raw)!r}")
        new.append(_norm(*a, [], hmt.dom, env))
        hmt = hmt.cod
    return orig if orig is not None and all(map(is_, new, raw)) else app(h, *new)


def _hsubst(t, d, vs):
    # replace the len(vs) binders outside `d` by `vs` (vs[-1] the innermost)
    # and each bound matching variable by its value, and reduce a replaced
    # head with its arguments at once.  A value is meta-free, so if each of
    # `vs` is a matching variable or meta-free, a subterm of the result has
    # `free == META_FREE` exactly when it holds an unbound one
    if t.free <= d:
        return t
    if isinstance(t, App):
        h, args = t.head, t.args
        new = []  # a loop, not a comprehension: no frame of its own
        for a in args:
            new.append(a if a.free <= d else _hsubst(a, d, vs))
        fn = h if h.free <= d else _hsubst(h, d, vs)
        if fn is h:
            if all(map(is_, new, args)):
                return t
            if not isinstance(h, Lam):  # a rigid or unbound head reduces nothing
                return App(h, tuple(new))
        while new and isinstance(fn, Lam):  # the normal form of `fn` applied to `new`
            n = 0
            while n < len(new) and isinstance(fn, Lam):
                fn, n = fn.body, n + 1
            fn, new = _hsubst(fn, 0, tuple(new[:n])), new[n:]
        return app(fn, *new)
    if isinstance(t, Bound):
        i = t.index - d  # not negative: t.free > d
        if i >= len(vs):
            return Bound(t.index - len(vs)) if vs else t
        t = vs[-1 - i]
        if d:
            t = _shift(t, 0, d)
        if not isinstance(t, Meta):
            return t  # a value of `vs`: built already
    if isinstance(t, Meta):
        return t if t.cell.value is None else t.cell.value
    # a Lam (a Const is closed): an unnamed eta-expansion of a variable
    # whose value is a lambda is that value, binder names kept, as in `_norm`
    i = _eta_index(t) - d if vs else -1
    if 0 <= i < len(vs) and isinstance(vs[-1 - i], Lam):
        return shift(vs[-1 - i], d)
    body = _hsubst(t.body, d + 1, vs)
    return t if body is t.body else Lam(t.mt, body, t.hint)


def alpha_beta_eq(a, b, env=()) -> bool:
    """Equality modulo beta/eta and binder renaming."""
    return normalize(a, env) == normalize(b, env)


# ---------------------------------------------------------------------------
# Scans and the positive-atom map
# ---------------------------------------------------------------------------


def has_unbound_meta(t) -> bool:
    return t.free == META_FREE and _scan(t) < 0


def max_eigen_birth(t) -> int:
    """The latest birth of an eigenvariable in `t`, 0 if none; -1 if `t`
    holds an unbound matching variable."""
    return _scan(t)


def _scan(t) -> int:
    # one walk for both public scans; they do not call each other, so
    # that each call is counted once where they are wrapped
    best = 0
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, App):
            stack.extend(t.args)
            t = t.head  # never an `App`
        if isinstance(t, Const):
            if t.birth > best:
                best = t.birth
        elif isinstance(t, Meta):
            if t.cell.value is None:
                return -1
            stack.append(t.cell.value)
        elif isinstance(t, Lam):
            stack.append(t.body)
    return best


def map_proves(g: Term, fn, env=()) -> Term:
    """Replace every positive `proves` atom of a goal by `fn(atom, env)`.

    Positive atoms are those reached through universals, conjunctions and
    the goal side of implications; `env` lists the binder meta-types
    entered so far, innermost first.  Clauses, which are hypotheses, and
    other atoms are kept.
    """
    former = _former(g)
    if former == "pi":
        lam = g.args[0]
        args = (Lam(lam.mt, map_proves(lam.body, fn, (lam.mt,) + tuple(env)), lam.hint),)
    elif former == ",":
        args = tuple(map_proves(a, fn, env) for a in g.args)
    elif former == "=>":
        args = (g.args[0], map_proves(g.args[1], fn, env))
    else:
        return fn(g, env) if _pred(g) == "proves" else g
    return App(g.head, args)
