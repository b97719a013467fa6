"""The trusted checking core.

A Session owns the clause store, the matching-variable trail, the
eigenvariable timestamp counter and the step budget.  Goals, the terms of
meta-type o, are solved by a complete chronological-backtracking
interpreter that reads each goal's head constant and arguments off its
spine, one `App` node (see `terms`):

  * `pi` goals introduce fresh eigenvariables,
  * `,` goals solve both sides, left first,
  * `=>` goals push their clause for the scope of the subgoal,
  * atoms dispatch on the head constant of the proof (or typed term):
    built-in rules are syntax-directed, the in-proof lemma/definition
    constructors get dedicated handlers, and everything else is resolved
    against the dynamic clause store by backchaining.

Clause selection: the store is tried most recent clause first, as full
backtracking over every clause would.  Each stored clause carries the keys
of its heads (predicate and the constant at the head of the subject) and
its miss cost, the steps and matching variables that backchaining it
spends when no head matches.  A clause whose keys cannot hold the atom's
key is not backchained but charged its miss cost, so steps, births and
solution order are exactly those of trying it.

Matching is one-directional (goal side ground) over the pattern fragment:
a matching variable may appear bare or applied to distinct variables.
Anything outside that fragment is a hard error, never a search.  Rigid
spines match when heads and lengths agree, then argument by argument.

Invariant: every atom that reaches dispatch, and every stored clause, is
beta-normal and eta-long and holds no bound matching variable.  Terms are
normalized only where they enter: the goal of `check_goal`, a clause from
outside (`push_clause`), a definition's equality clause and the built-in
rules.  Inside, a goal or clause body is a closure: a normal term open over
`vs`, the values of the `pi` binders entered (eigenvariables in `solve`,
fresh matching variables in `backchain`), innermost last; entering a binder
substitutes nothing.  A clause head is matched as a closure, not built.
Other terms are built where they are used (an atom goal in `solve`, the
clause of an implication goal, a template at its argument) in one walk,
`terms._hsubst`, that substitutes `vs` and the bound matching variables and
reduces each redex as it forms.  So a built atom holds no bound matching
variable, and a subterm of it holds an unbound one exactly when its `free`
is `META_FREE`: dispatch reads that off the node and scans nothing.  Object
substitution is a meta-level beta step, and in an eta-long term a bound
variable is fully applied, so a name or a fresh matching variable put into
a normal term with `subst` (a call of `_hsubst`) keeps it normal and
reduces nothing: the handlers do so for `elam` and the rest of a lemma
node, whose parts they read as sub-terms of a built atom.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain

from .errors import BudgetError, PatternError, StructuralError, ValidityError
from .signature import BUILTIN_CONSTS, GOAL_FORMERS, builtin_signature
from .syntax import format_goal
from .terms import (
    AND,
    ASSUMP,
    HASTYPE,
    PROVES,
    App,
    Arrow,
    Bound,
    Const,
    Lam,
    META_FREE,
    Meta,
    MetaCell,
    O,
    PF,
    TM,
    TP,
    Term,
    _former,
    _hsubst,
    _pred,
    app,
    arg_types,
    arrow,
    deref,
    map_children,
    map_proves,
    max_eigen_birth,
    meta_type_of,
    normalize_goal,
    pi,
    result_base,
    shift,
    subst,
)

DEFAULT_BUDGET = 1_000_000

# `CheckReport.error` by the exact type of the exception (none is subclassed)
_ERROR_KINDS = {
    BudgetError: "budget",
    ValidityError: "validity",
    PatternError: "pattern",
    StructuralError: "structural",
}

# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


Stats = namedtuple("Stats", "steps clauses_added max_store_depth", defaults=(0, 0, 0))


class CheckReport(
    namedtuple("CheckReport", "ok error message stats failure_stack", defaults=(None, "", Stats(), ()))
):
    """`error` is None or what ended the check: validity, pattern, budget or structural."""

    __slots__ = ()
    failed = property(lambda report: not report.ok and report.error is None)


# ---------------------------------------------------------------------------
# Pure clause predicates
# ---------------------------------------------------------------------------


def valid_clause(g: Term) -> bool:
    """The whitelist grammar for clauses embedded in proofs."""
    former = _former(g)
    if former:  # `pi` over a lambda, or `,` or `=>` of two goals
        return all(valid_clause(a.body if former == "pi" else a) for a in g.args)
    pred = _pred(g)
    if pred == "assump":
        return _pred(g.args[0]) == "proves"
    return pred is not None


def def_to_eqclause(result_tp: Term, name: Term, body: Term) -> Term:
    """Universally quantified equality clause linking a name to its body.

    One binder per arrow of the shared meta-type; at the base (which must
    be tm) the clause asserts the definitional equality at `result_tp`.
    """
    mt = meta_type_of(name)
    if result_base(mt) != TM:
        raise StructuralError(f"definition must end at meta-type tm, found {result_base(mt)}")
    doms = arg_types(mt)
    k = len(doms)
    xs = [Bound(i) for i in reversed(range(k))]
    eq = app(Const("eq", arrow(TP, TM, TM, TM)), shift(result_tp, k))
    g = app(PROVES, Const("def", PF), app(eq, app(shift(name, k), *xs), app(shift(body, k), *xs)))
    for dom in reversed(doms):
        g = pi(dom, g)
    return normalize_goal(g)


def augment_goal(g: Term) -> Term:
    """Prefix every positive proves atom with the typing of its formula.

    Applied once to each top-level statement: a proper check types the
    formula before checking the proof.
    """
    # `a.args[1]` is the formula
    return map_proves(
        g, lambda a, env: App(AND, (App(HASTYPE, (a.args[1], Const("form", TP))), a))
    )


def _goal_app(fn: Term, arg: Term) -> Term:
    """A normal template applied to a normal argument of its binder's meta-type."""
    if meta_type_of(arg) != fn.mt or meta_type_of(App(fn, (arg,))) != O:
        raise StructuralError("template application did not produce a goal")
    return _hsubst(fn.body, 0, (arg,))


def instantiate(sig, template, name, witness, kind, result_tp=None):
    """Instantiate a normal lemma or definition template at `name` and at a
    normal `witness`; returns (goal, clauses).

    The template at `name` must be a whitelisted clause, else a
    ValidityError names it by `kind`, with an in-proof instance printed
    over `sig`.  Solve `goal`, the template at `witness`, first; then push
    `clauses()`: the instance and, for a definition (`result_tp` given),
    its equality clause, built only after `goal` succeeds so that an
    ill-typed body fails instead of raising.
    """
    inst = _goal_app(template, name)
    if not valid_clause(inst):
        # an in-proof name is an eigenvariable, shown through its clause
        detail = f": {format_goal(inst, sig)}" if name.birth else ""
        raise ValidityError(f"{kind} clause outside the allowed grammar{detail}")
    goal = _goal_app(template, witness)
    if result_tp is None:
        return goal, lambda: (inst,)
    return goal, lambda: (inst, def_to_eqclause(result_tp, name, witness))


def head_key(atom: Term):
    """`(pred, name, birth)` of the constant at the head of an atom's
    subject, its first argument; an assumption is keyed by the subject of
    the atom it holds.  None for any other shape.

    A clause head and an atom with different keys do not match: `match_goal`
    compares predicates, then the subject heads, before it binds anything.
    """
    if not (isinstance(atom, App) and isinstance(atom.head, Const)):
        return None
    pred, s = atom.head.name, atom.args[0]
    if pred == "assump":
        s = s.args[0] if isinstance(s, App) else None
    h = s.head if isinstance(s, App) else s
    return (pred, h.name, h.birth) if isinstance(h, Const) else None


def _index_clause(g, keys):
    """Walk the heads of a normal clause as `backchain` does when none of
    them matches: reject a variable subject head, append each head's key to
    `keys`, and return what the walk costs, (steps, matching variables).

    `backchain` ticks once per call and once per `pi` binder, for which it
    also makes a matching variable, and it reaches both sides of a
    conjunction and the head side of an implication.
    """
    binders = 0
    while _former(g) == "pi":
        g, binders = g.args[0].body, binders + 1
    former = _former(g)
    ticks, metas = 1 + binders, binders
    if former:
        for part in g.args if former == "," else g.args[1:]:
            t, m = _index_clause(part, keys)
            ticks, metas = ticks + t, metas + m
        return ticks, metas
    pred = _pred(g)
    if pred == "assump":
        _index_clause(g.args[0], [])  # the head check only
    elif pred:
        s = g.args[0]
        if isinstance(s.head if isinstance(s, App) else s, (Bound, Meta)):
            raise ValidityError("a stored clause may not have a variable at its head")
    keys.append(head_key(g))
    return ticks, metas


# ---------------------------------------------------------------------------
# Built-in rules, built from constructors; tests/test_kernel.py holds their lambda-Prolog text
# ---------------------------------------------------------------------------


def _build(x, d=0):
    """The term `x` describes under `d` binders: a str names a built-in constant or goal
    former, an int is the variable of the binder at that level (0 the outermost), a tuple
    applies its first item to the rest, and `lambda N=mt, ..: y` is `pi N\\ ..` (N: mt) around y."""
    if isinstance(x, int):
        return Bound(d - 1 - x)
    if isinstance(x, str):
        return Const(x, (BUILTIN_CONSTS.get(x) or GOAL_FORMERS[x]).body)
    if isinstance(x, tuple):
        return app(*(_build(a, d) for a in x))
    if isinstance(x, list):  # [H, B, ..]: `H <<== B, ..`, the clause first in `=>`
        body = x[-1]
        for b in reversed(x[1:-1]):
            body = (",", b, body)
        return _build(("=>", body, x[0]), d)
    g = _build(x(*range(d, d + len(x.__defaults__))), d + len(x.__defaults__))
    for name, mt in reversed(list(zip(x.__code__.co_varnames, x.__defaults__))):
        g = pi(mt, g, name)
    return g


_h = lambda x, t: ("hastype", x, t)  # the atoms `hastype x t` and `proves q a`
_p = lambda q, a: ("proves", q, a)
_F = Arrow(TM, TM)  # a formula or term with a hole
_RULES = (
    lambda T=TP, X=TM, Y=TM: [_h(("eq", T, X, Y), "form"), _h(X, T), _h(Y, T)],
    lambda A=TM, B=TM: [_h(("imp", A, B), "form"), _h(A, "form"), _h(B, "form")],
    lambda T=TP, A=_F: [
        _h(("forall", T, A), "form"), lambda X=TM: ("=>", _h(X, T), _h((A, X), "form"))],
    _h("false", "form"),
    lambda T1=TP, T2=TP, F=_F: [
        _h(("lam", F), ("arrow", T1, T2)), lambda X=TM: ("=>", _h(X, T1), _h((F, X), T2))],
    lambda T1=TP, T2=TP, F=TM, X=TM: [
        _h(("app", T1, F, X), T2), _h(F, ("arrow", T1, T2)), _h(X, T1)],
    lambda T1=TP, T2=TP, X=TM, Y=TM: [_h(("mkpair", X, Y), ("pair", T1, T2)), _h(X, T1), _h(Y, T2)],
    lambda T1=TP, T2=TP, X=TM: [_h(("fst", T2, X), T1), _h(X, ("pair", T1, T2))],
    lambda T1=TP, T2=TP, X=TM: [_h(("snd", T1, X), T2), _h(X, ("pair", T1, T2))],
    lambda T=TP, X=TM: _p("refl", ("eq", T, X, X)),
    lambda T1=TP, T2=TP, F=_F, X=TM: _p("beta", ("eq", T2, ("app", T1, ("lam", F), X), (F, X))),
    lambda T1=TP, T2=TP, X=TM, Y=TM: _p("fstpair", ("eq", T1, ("fst", T2, ("mkpair", X, Y)), X)),
    lambda T1=TP, T2=TP, X=TM, Y=TM: _p("sndpair", ("eq", T2, ("snd", T1, ("mkpair", X, Y)), Y)),
    lambda T1=TP, T2=TP, Z=TM: _p(
        "surjpair", ("eq", ("pair", T1, T2), ("mkpair", ("fst", T2, Z), ("snd", T1, Z)), Z)),
    lambda T=TP, X=TM, Z=TM, H=_F, P1=PF, P2=PF: [_p(("congr", T, X, Z, H, P1, P2), (H, X)),
        _h(X, T), _h(Z, T), _p(P1, ("eq", T, X, Z)), _p(P2, (H, Z))],
    lambda A=TM, B=TM, Q=Arrow(PF, PF): [
        _p(("imp_i", Q), ("imp", A, B)), lambda P=PF: ("=>", ("assump", _p(P, A)), _p((Q, P), B))],
    lambda A=TM, B=TM, Q1=PF, Q2=PF: [
        _p(("imp_e", A, Q1, Q2), B), _h(A, "form"), _p(Q1, ("imp", A, B)), _p(Q2, A)],
    lambda T=TP, A=_F, Q=Arrow(TM, PF): [
        _p(("forall_i", Q), ("forall", T, A)), lambda Y=TM: ("=>", _h(Y, T), _p((Q, Y), (A, Y)))],
    # `pi Y\` scopes over all three premises, as a lambda-Prolog binder extends as far
    # right as it can.  The rule's text reads so; keep it, do not narrow the scope
    lambda T=TP, A=_F, Q=PF, X=TM: [_p(("forall_e", T, A, Q, X), (A, X)), lambda Y=TM: (
        ",", ("=>", _h(Y, T), _h((A, Y), "form")), (",", _h(X, T), _p(Q, ("forall", T, A))))],
)


def _load_rules():
    rules = {"proves": {}, "hastype": {}}
    for rule in _RULES:
        clause = normalize_goal(_build(rule))
        keys = []
        _index_clause(clause, keys)
        key = keys[0] if len(keys) == 1 else None
        target = rules.get(key[0]) if key else None
        if target is None or key[1] in target:
            raise StructuralError("a built-in rule needs a subject constant of its own")
        target[key[1]] = clause
    return rules["proves"], rules["hastype"]


PROVES_RULES, HASTYPE_RULES = _load_rules()

# the proof constructors with handlers of their own, by name and arity; a
# handler gets the constructor's arguments and the formula
_CONSTRUCTORS = {
    ("lemma_pf", 3): "check_template_pf",
    ("def_pf", 4): "check_template_pf",
    ("elam", 1): "check_elam",
    ("extract", 2): "check_extract",
    ("extractGoal", 2): "check_extract_goal",
}


class _Escape(Exception):
    """A local variable of a matching target would escape its binding."""


def _abstract(t, d, x):
    """Rewrite occurrences of the keys `x[0]` in `t`, under `d` binders, to
    the binders of the value being built; raise _Escape on any other free
    variable.  `x[1]` is true if a key is an eigenvariable's."""
    keys, eigen = x
    if t.free <= d and not eigen:
        return t
    t = deref(t)
    if isinstance(t, Meta):
        raise _Escape
    if isinstance(t, Bound) and t.index >= d:
        k = ("b", t.index - d)
    elif isinstance(t, Const) and t.birth > 0:
        k = ("c", t.birth)
    else:
        return map_children(t, _abstract, d, x)
    if k in keys:
        return Bound(d + (len(keys) - 1 - keys.index(k)))
    if isinstance(t, Bound):
        raise _Escape
    return t


# ---------------------------------------------------------------------------
# Session
# ---------------------------------------------------------------------------


class Session:
    """One single-threaded checking session: store, trail, budget, counter."""

    def __init__(self, sig=None, budget=DEFAULT_BUDGET):
        self.sig = sig if sig is not None else builtin_signature()
        self.budget = budget
        # (clause, head keys or None, steps, matching variables) per
        # clause, most recently added last; see `_index_clause`
        self.store = []
        self.trail = []
        self.counter = 0
        self.steps = 0
        self.clauses_added = 0
        self.max_store_depth = 0
        self.goal_stack = []
        self.failure_snapshot = ()

    # -- resource accounting -------------------------------------------------

    def tick(self):
        if self.steps >= self.budget:
            raise BudgetError(self.steps)
        self.steps += 1

    # -- fresh names and binding ----------------------------------------------

    def fresh_eigen(self, mt, hint=None) -> Const:
        self.counter += 1
        return Const(f"{hint or 'c'}_{self.counter}", mt, birth=self.counter)

    def fresh_meta(self, mt) -> Meta:
        self.counter += 1
        return Meta(MetaCell(mt, birth=self.counter))

    def mark(self) -> int:
        return len(self.trail)

    def undo(self, mark):
        while len(self.trail) > mark:
            self.trail.pop().value = None

    def bind(self, cell, value) -> bool:
        """Commit a binding; refuse non-ground values and scope violations.

        The scope condition is the freshness proviso in checkable form: a
        value may not mention an eigenvariable younger than the cell.
        """
        if not 0 <= max_eigen_birth(value) <= cell.birth:
            return False  # -1: an unbound matching variable
        cell.value = value
        self.trail.append(cell)
        return True

    # -- clause store ----------------------------------------------------------

    def push_clause(self, g: Term):
        """Store a clause from outside the kernel, normalized first."""
        self._push(normalize_goal(g))

    def _push(self, g):
        """Store a normal clause."""
        keys = []
        ticks, metas = _index_clause(g, keys)
        self.store.append((g, None if None in keys else frozenset(keys), ticks, metas))
        self.clauses_added += 1
        if len(self.store) > self.max_store_depth:
            self.max_store_depth = len(self.store)

    # -- matching ----------------------------------------------------------------

    def match(self, pattern, target, vs=(), d=0) -> bool:
        """Match a normal closure against a ground normal target, committing
        bindings: under `d` local binders, a pattern index `i >= d` reads
        `vs[-1 - (i - d)]`, or past `vs` stands for index `i - len(vs)`.  A
        rigid pattern is walked beside the target and builds nothing; one
        headed by a matching variable is built by `terms._hsubst` with the
        values bound so far, then bound, or matched as rigid if its head reduced.
        A bare index that reads an unbound variable of `vs` is bound to a closed
        target at once.  Rigid spines are compared by head and length before
        any argument, then argument by argument, left to right.
        """
        h, args = (pattern.head, pattern.args) if isinstance(pattern, App) else (pattern, ())
        if isinstance(h, Meta) or isinstance(h, Bound) and 0 <= h.index - d < len(vs):
            v = vs[d - 1 - h.index] if h is pattern and isinstance(h, Bound) else None
            if isinstance(v, Meta) and v.cell.value is None and target.free == 0:
                return self.bind(v.cell, target)  # what building it would bind
            pattern, vs = _hsubst(pattern, d, vs), ()
            h, args = (pattern.head, pattern.args) if isinstance(pattern, App) else (pattern, ())
        t = target
        while isinstance(t, Meta):
            t = t.cell.value
            if t is None:
                return False  # target must be ground
        th, targs = (t.head, t.args) if isinstance(t, App) else (t, ())
        if isinstance(h, Const):
            if not (isinstance(th, Const) and th.name == h.name and th.birth == h.birth):
                return False
        elif isinstance(pattern, Lam):  # the binder type of a `pi` counts
            return isinstance(t, Lam) and pattern.mt == t.mt and (
                self.match(pattern.body, t.body, vs, d + 1)
            )
        elif isinstance(h, Meta):
            return self._bind_pattern(h.cell, args, t)
        elif not (isinstance(h, Bound) and isinstance(th, Bound)):
            return False
        elif th.index != (h.index if h.index < d else h.index - len(vs)):
            return False
        if len(targs) != len(args):
            return False
        for p, a in zip(args, targs):  # a closed argument shared with the target matches
            if not (p is a and p.free <= d or self.match(p, a, vs, d)):
                return False
        return True

    def _eta_var(self, t):
        """Contract an eta-expansion down to its head variable, or None.

        In eta-long form a functional variable argument shows up as
        `x1\\ .. xn\\ v x1 .. xn`; it counts as the variable v.
        """
        n, body = 0, deref(t)
        while isinstance(body, Lam):
            n, body = n + 1, body.body
        h, args = (body.head, body.args) if isinstance(body, App) else (body, ())
        if len(args) != n or any(self._eta_var(a) != Bound(n - 1 - i) for i, a in enumerate(args)):
            return None
        if isinstance(h, Bound):
            return Bound(h.index - n) if h.index >= n else None
        return h if isinstance(h, Const) and h.birth > 0 else None

    def _bind_pattern(self, cell, args, target):
        """The flexible case: cell applied to distinct variables."""
        keys = []
        for a in args:
            v = self._eta_var(a)
            if v is None:
                raise PatternError("matching variable applied to a non-variable argument")
            k = ("b", v.index) if isinstance(v, Bound) else ("c", v.birth)
            if k in keys:
                raise PatternError("matching variable applied to a repeated argument")
            keys.append(k)
        try:
            body = _abstract(target, 0, (keys, any(k[0] == "c" for k in keys)))
        except _Escape:
            return False
        doms = arg_types(cell.mt)[: len(keys)]
        value = body
        for mt in reversed(doms):
            value = Lam(mt, value)
        return self.bind(cell, value)

    def match_goal(self, head, atom, vs) -> bool:
        """One attempt of `backchain`: a clause head, open over `vs`, on an atom."""
        return self.match(head, atom, vs)

    # -- the interpreter ----------------------------------------------------------

    def solve(self, g: Term, vs=()):
        """Generator yielding once per solution, chronological order, for
        `g` open over `vs`, as the module docstring describes."""
        self.tick()
        former = _former(g)
        if former == ",":
            for _ in self.solve(g.args[0], vs):
                yield from self.solve(g.args[1], vs)
        elif former == "pi":
            lam = g.args[0]
            x = self.fresh_eigen(lam.mt, lam.hint)
            yield from self.solve(lam.body, vs + (x,))
        elif former == "=>":
            depth = len(self.store)
            self._push(_hsubst(g.args[0], 0, vs))
            try:
                yield from self.solve(g.args[1], vs)
            finally:
                del self.store[depth:]
        else:
            atom = _hsubst(g, 0, vs)
            self.goal_stack.append(atom)
            try:
                produced = False
                for _ in self._dispatch(atom):
                    produced = True
                    yield
                if not produced and len(self.goal_stack) >= len(self.failure_snapshot):
                    self.failure_snapshot = tuple(self.goal_stack)
            finally:
                self.goal_stack.pop()

    def _dispatch(self, atom: Term):
        """The solutions of a built atom: a handler's, a rule's, the store's or none."""
        # in a built atom, `free == META_FREE` means an unbound matching variable
        pred = _pred(atom)
        if pred == "proves":
            p, a = atom.args
            if a.free == META_FREE:
                return ()  # the formula side must be ground
            h, args = (p.head, p.args) if isinstance(p, App) else (p, ())
            if isinstance(h, Const):
                check = _CONSTRUCTORS.get((h.name, len(args)))
                if check is not None:
                    return getattr(self, check)(*args, a)
                rule = PROVES_RULES.get(h.name)
                if rule is not None:
                    # exactly one built-in rule per proof constructor
                    return self.backchain(atom, rule)
            if p.free == META_FREE:
                return ()  # unresolved matching variable at dispatch
            # lazily: the atom's own store search starts when the assumptions' ends
            return chain.from_iterable(map(self.solve_store, (App(ASSUMP, (atom,)), atom)))
        if pred:
            if atom.free == META_FREE:
                return ()
            s = atom.args[0]
            h = s.head if isinstance(s, App) else s
            rule = pred == "hastype" and isinstance(h, Const) and HASTYPE_RULES.get(h.name)
            return self.backchain(atom, rule) if rule else self.solve_store(atom)
        return ()  # unknown predicates have no rules: fail

    def solve_store(self, atom: Term):
        """Try the dynamic clauses, most recently added first.

        A clause none of whose heads can match `atom` is not backchained but
        charged the steps and matching variables backchaining it would
        spend, so steps and births are those of full backtracking.  Where
        the charge would pass the budget, the clause is backchained, so the
        budget runs out at the same step.
        """
        key = head_key(atom)
        for clause, keys, ticks, metas in tuple(reversed(self.store)):
            if key is None or keys is None or key in keys or self.steps + ticks > self.budget:
                yield from self.backchain(atom, clause)
            else:
                self.steps += ticks
                self.counter += metas

    def backchain(self, atom: Term, clause: Term, vs=()):
        """Try `clause`, open over `vs`, on `atom`: one step and one fresh
        matching variable per `pi` binder; a head is matched as a closure,
        not built."""
        self.tick()
        former = _former(clause)
        while former == "pi":
            lam = clause.args[0]
            vs += (self.fresh_meta(lam.mt),)
            clause = lam.body
            self.tick()
            former = _former(clause)
        if former == ",":
            for part in clause.args:
                m = self.mark()
                try:
                    yield from self.backchain(atom, part, vs)
                finally:
                    self.undo(m)
        elif former == "=>":
            for _ in self.backchain(atom, clause.args[1], vs):
                yield from self.solve(clause.args[0], vs)
        else:
            m = self.mark()
            try:
                if self.match_goal(clause, atom, vs):
                    yield
            finally:
                self.undo(m)

    # -- lemma and definition constructors -------------------------------------

    def check_template_pf(self, *args):
        """`lemma_pf I L R` and `def_pf T I B R`, then the formula: check the
        template I at the witness L (or B), then check R at a fresh name
        with the instance (and the definition's equality) as clauses in
        scope."""
        *args, formula = args
        if any(x.free == META_FREE for x in args):
            return
        result_tp = args[0] if len(args) == 4 else None
        template, witness, rest = args[-3:]
        if not (isinstance(template, Lam) and isinstance(rest, Lam)):
            raise StructuralError("lemma or definition node is not eta-long")
        name = self.fresh_eigen(template.mt, rest.hint)
        kind = "lemma" if result_tp is None else "definition typing"
        goal, clauses = instantiate(self.sig, template, name, witness, kind, result_tp)
        for _ in self.solve(goal):
            depth = len(self.store)
            for clause in clauses():
                self._push(clause)  # built from the atom: no matching variable
            try:
                yield from self.solve(app(PROVES, subst(rest.body, name), formula))
            finally:
                del self.store[depth:]

    def check_elam(self, q, formula):
        if not isinstance(q, Lam):
            raise StructuralError("elam node is not eta-long")
        if q.mt not in (TP, TM):
            raise ValidityError("elam may only quantify over tp or tm")
        b = self.fresh_meta(q.mt)
        return self.solve(app(PROVES, subst(q.body, b), formula))

    def check_extract(self, pat, sub, formula):
        m = self.mark()
        try:
            if self.match(pat, formula):
                yield from self.solve(app(PROVES, sub, formula))
        finally:
            self.undo(m)

    def check_extract_goal(self, g, sub, formula):
        if not valid_clause(g):
            raise ValidityError(
                f"extractGoal argument outside the allowed grammar: {format_goal(g, self.sig)}"
            )
        for _ in self.solve(g):
            yield from self.solve(app(PROVES, sub, formula))

    # -- checking entry point -----------------------------------------------------

    def check_goal(self, goal: Term, augment=True) -> CheckReport:
        """Solve a closed top-level goal and report verdict plus statistics.

        Stack discipline is checked: the store and trail must be restored
        to their entry state whatever the outcome, else StructuralError.
        """
        self.steps = 0
        clauses_before = self.clauses_added
        self.max_store_depth = len(self.store)
        self.failure_snapshot = ()
        depth, tmark = len(self.store), self.mark()
        g = augment_goal(goal) if augment else goal
        ok, error, message = False, None, ""
        try:
            gen = self.solve(normalize_goal(g))
            try:
                next(gen)
                ok = True
            except StopIteration:
                ok = False
            finally:
                gen.close()
        except tuple(_ERROR_KINDS) as e:
            error, message = _ERROR_KINDS[type(e)], str(e)
        if len(self.store) != depth or len(self.trail) != tmark:
            raise StructuralError("store/trail stack discipline violated")
        stats = Stats(
            steps=self.steps,
            clauses_added=self.clauses_added - clauses_before,
            max_store_depth=self.max_store_depth,
        )
        failure_stack = ()
        if not ok and error is None:
            failure_stack = tuple(
                format_goal(x, self.sig) for x in self.failure_snapshot
            )
        return CheckReport(ok, error, message, stats, failure_stack)
