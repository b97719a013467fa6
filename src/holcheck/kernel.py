"""The trusted checking core.

A Session owns the clause store, the matching-variable trail, the
eigenvariable timestamp counter and the step budget.  Goals are solved by
a complete chronological-backtracking interpreter:

  * universal goals introduce fresh eigenvariables,
  * implication goals push their clause for the scope of the subgoal,
  * atoms dispatch on the head constant of the proof (or typed term):
    built-in rules are syntax-directed, the in-proof lemma/definition
    constructors get dedicated handlers, and everything else is resolved
    against the dynamic clause store by backchaining.

Matching is one-directional (goal side ground) over the pattern fragment:
a matching variable may appear bare or applied to distinct variables.
Anything outside that fragment is a hard error, never a search.

Invariant: every atom that reaches dispatch is beta-normal and eta-long,
and holds no bound matching variable.  It is established once, not per
step: `check_goal` normalizes its goal on entry, `push_clause` normalizes
each clause (built-in rules are normalized when loaded), and `solve_atom`
normalizes an atom only when it holds a bound matching variable, the one
place a redex can appear (the variable's value is a lambda at an applied
head).  Everything else keeps terms normal by construction.  With higher-
order abstract syntax object substitution is a meta-level beta step, and
in an eta-long term every occurrence of a bound variable is fully applied.
So replacing a binder by an eigenvariable, or by a fresh matching variable
(closed, and unbound, so not a lambda), leaves the term normal: no redex
and no partial application appears.  Universal goals, clause prefixes,
the rest of a lemma or definition node and `elam` are instantiated that
way, with `subst` on the body of the lambda instead of an application
that would need normalizing.  The handlers read their arguments as
sub-terms of a normal atom.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetError, PatternError, StructuralError, ValidityError
from .signature import builtin_signature
from .terms import (
    All,
    App,
    Arrow,
    Atom,
    Bound,
    Conj,
    Const,
    Goal,
    Impl,
    Lam,
    Meta,
    MetaCell,
    PF,
    TM,
    TP,
    Term,
    arg_types,
    deref,
    has_bound_meta,
    has_unbound_meta,
    map_children,
    map_proves,
    max_eigen_birth,
    meta_type_of,
    normalize,
    normalize_goal,
    plain_spine,
    shift,
    spine,
    subst,
    subst_goal,
)

DEFAULT_BUDGET = 1_000_000

# ---------------------------------------------------------------------------
# Built-in rules, stated in the clause language itself
# ---------------------------------------------------------------------------

_RULES_SRC = """
% typing
pi T\\ pi X\\ pi Y\\ (hastype (eq T X Y) form <<== (hastype X T, hastype Y T)).
pi A\\ pi B\\ (hastype (A imp B) form <<== (hastype A form, hastype B form)).
pi T\\ pi A\\ (hastype (forall T A) form <<== pi X\\ (hastype X T ==>> hastype (A X) form)).
hastype false form.
pi T1\\ pi T2\\ pi F\\
  (hastype (lam F) (T1 arrow T2) <<== pi X\\ (hastype X T1 ==>> hastype (F X) T2)).
pi T1\\ pi T2\\ pi F\\ pi X\\
  (hastype (app T1 F X) T2 <<== (hastype F (T1 arrow T2), hastype X T1)).
pi T1\\ pi T2\\ pi X\\ pi Y\\
  (hastype (mkpair X Y) (pair T1 T2) <<== (hastype X T1, hastype Y T2)).
pi T1\\ pi T2\\ pi X\\ (hastype (fst T2 X) T1 <<== hastype X (pair T1 T2)).
pi T1\\ pi T2\\ pi X\\ (hastype (snd T1 X) T2 <<== hastype X (pair T1 T2)).

% proof checking
pi T\\ pi X\\ (proves refl (eq T X X)).
pi T1\\ pi T2\\ pi F\\ pi X\\ (proves beta (eq T2 (app T1 (lam F) X) (F X))).
pi T1\\ pi T2\\ pi X\\ pi Y\\ (proves fstpair (eq T1 (fst T2 (mkpair X Y)) X)).
pi T1\\ pi T2\\ pi X\\ pi Y\\ (proves sndpair (eq T2 (snd T1 (mkpair X Y)) Y)).
pi T1\\ pi T2\\ pi Z\\ (proves surjpair (eq (pair T1 T2) (mkpair (fst T2 Z) (snd T1 Z)) Z)).
pi T\\ pi X\\ pi Z\\ pi H\\ pi P1\\ pi P2\\
  (proves (congr T X Z H P1 P2) (H X) <<==
     (hastype X T, hastype Z T, proves P1 (eq T X Z), proves P2 (H Z))).
pi A\\ pi B\\ pi Q\\
  (proves (imp_i Q) (A imp B) <<== pi P\\ (assump (proves P A) ==>> proves (Q P) B)).
pi A\\ pi B\\ pi Q1\\ pi Q2\\
  (proves (imp_e A Q1 Q2) B <<== (hastype A form, proves Q1 (A imp B), proves Q2 A)).
pi T\\ pi A\\ pi Q\\
  (proves (forall_i Q) (forall T A) <<== pi Y\\ (hastype Y T ==>> proves (Q Y) (A Y))).
pi T\\ pi A\\ pi Q\\ pi X\\
  (proves (forall_e T A Q X) (A X) <<==
     (pi Y\\ (hastype Y T ==>> hastype (A Y) form), hastype X T, proves Q (forall T A))).
"""

def _load_rules():
    from .syntax import parse_source

    proves_rules, hastype_rules = {}, {}
    for st in parse_source(_RULES_SRC, builtin_signature()).statements:
        clause = normalize_goal(st.goal)
        g = clause
        while isinstance(g, All):
            g = g.body
        head = g.goal if isinstance(g, Impl) else g
        h, _ = spine(head.args[0])
        assert isinstance(h, Const), "rule subjects are headed by constants"
        target = proves_rules if head.pred == "proves" else hastype_rules
        assert h.name not in target
        target[h.name] = clause
    return proves_rules, hastype_rules


PROVES_RULES, HASTYPE_RULES = _load_rules()


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class Stats:
    steps: int = 0
    clauses_added: int = 0
    max_store_depth: int = 0


@dataclass
class CheckReport:
    ok: bool
    error: str = None  # None | validity | pattern | budget | structural
    message: str = ""
    stats: Stats = field(default_factory=Stats)
    failure_stack: tuple = ()

    @property
    def failed(self):
        return not self.ok and self.error is None


# ---------------------------------------------------------------------------
# Pure clause predicates
# ---------------------------------------------------------------------------


def valid_clause(g: Goal) -> bool:
    """The whitelist grammar for clauses embedded in proofs."""
    if isinstance(g, All):
        return valid_clause(g.body)
    if isinstance(g, Conj):
        return valid_clause(g.left) and valid_clause(g.right)
    if isinstance(g, Impl):
        return valid_clause(g.clause) and valid_clause(g.goal)
    if isinstance(g, Atom):
        if g.pred in ("proves", "hastype"):
            return len(g.args) == 2
        if g.pred == "assump" and len(g.args) == 1:
            a = g.args[0]
            return isinstance(a, Atom) and a.pred == "proves" and valid_clause(a)
    return False


def def_to_eqclause(result_tp: Term, name: Term, body: Term) -> Goal:
    """Universally quantified equality clause linking a name to its body.

    One binder per arrow of the shared meta-type; at the base (which must
    be tm) the clause asserts the definitional equality at `result_tp`.
    """
    mt = meta_type_of(name)

    def build(name_t, body_t, mt, depth):
        if isinstance(mt, Arrow):
            inner = build(
                App(shift(name_t, 1), Bound(0)),
                App(shift(body_t, 1), Bound(0)),
                mt.cod,
                depth + 1,
            )
            return All(mt.dom, inner)
        if mt != TM:
            raise StructuralError(
                f"definition must end at meta-type tm, found {mt}"
            )
        eq = Const("eq", Arrow(TP, Arrow(TM, Arrow(TM, TM))))
        eq_term = App(App(App(eq, shift(result_tp, depth)), name_t), body_t)
        return Atom("proves", (Const("def", PF), eq_term))

    return normalize_goal(build(name, body, mt, 0))


def augment_goal(g: Goal) -> Goal:
    """Prefix every positive proves atom with the typing of its formula.

    Applied once to each top-level statement: a proper check types the
    formula before checking the proof.
    """
    return map_proves(
        g, lambda a, env: Conj(Atom("hastype", (a.args[1], Const("form", TP))), a)
    )


def _goal_app(fn: Term, arg: Term) -> Goal:
    t = normalize(App(fn, arg))
    if not isinstance(t, Goal):
        raise StructuralError("template application did not produce a goal")
    return t


def instantiate(template, name, witness, kind, result_tp=None):
    """Instantiate a lemma or definition template; returns (goal, clauses).

    The template at `name` must be a whitelisted clause, else a
    ValidityError names it by `kind`.  Solve `goal`, the template at
    `witness`, first; then push `clauses()`: the instance and, for a
    definition (`result_tp` given), its equality clause, built only after
    `goal` succeeds so that an ill-typed body fails instead of raising.
    """
    inst = _goal_app(template, name)
    if not valid_clause(inst):
        # an in-proof name is an eigenvariable, shown through its clause
        detail = f": {inst!r}" if name.birth else ""
        raise ValidityError(f"{kind} clause outside the allowed grammar{detail}")
    goal = _goal_app(template, witness)
    if result_tp is None:
        return goal, lambda: (inst,)
    return goal, lambda: (inst, def_to_eqclause(result_tp, name, witness))


class _Escape(Exception):
    """A local variable of a matching target would escape its binding."""


def _abstract(t, d, keys):
    """Rewrite `keys` occurrences in `t`, under `d` binders, to the binders
    of the value being built; raise _Escape on any other free variable."""
    t = deref(t)
    if isinstance(t, Meta):
        raise _Escape
    if isinstance(t, Bound) and t.index >= d:
        k = ("b", t.index - d)
    elif isinstance(t, Const) and t.birth > 0:
        k = ("c", t.birth)
    else:
        return map_children(t, _abstract, d, keys)
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
        self.store = []  # most recently added clause last
        self.trail = []
        self.counter = 0
        self.steps = 0
        self.clauses_added = 0
        self.max_store_depth = 0
        self.goal_stack = []
        self.failure_snapshot = ()

    # -- resource accounting -------------------------------------------------

    def tick(self):
        self.steps += 1
        if self.steps > self.budget:
            raise BudgetError(self.steps)

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
        if has_unbound_meta(value):
            return False
        if max_eigen_birth(value) > cell.birth:
            return False
        cell.value = value
        self.trail.append(cell)
        return True

    # -- clause store ----------------------------------------------------------

    def push_clause(self, g: Goal):
        g = normalize_goal(g)
        self._check_head_shape(g)
        self.store.append(g)
        self.clauses_added += 1
        if len(self.store) > self.max_store_depth:
            self.max_store_depth = len(self.store)

    def _check_head_shape(self, g):
        if isinstance(g, All):
            self._check_head_shape(g.body)
        elif isinstance(g, Conj):
            self._check_head_shape(g.left)
            self._check_head_shape(g.right)
        elif isinstance(g, Impl):
            self._check_head_shape(g.goal)
        elif isinstance(g, Atom) and g.args:
            if g.pred == "assump":
                self._check_head_shape(g.args[0])
            elif g.pred in ("proves", "hastype"):
                h, _ = spine(g.args[0])
                if isinstance(h, (Bound, Meta)):
                    raise ValidityError(
                        "a stored clause may not have a variable at its head"
                    )

    # -- matching ----------------------------------------------------------------

    def match(self, pattern, target, env=()) -> bool:
        """Match a pattern against a ground target, committing bindings.

        Both sides are beta-normal and eta-long; binding a head mid-walk
        may expose a redex in the pattern, which is re-normalized on
        demand.  `env` lists the binder meta-types entered so far.
        """
        p = self._resolve_pattern(pattern, env)
        t = deref(target)
        if isinstance(t, Meta):
            return False  # target must be ground
        if isinstance(p, Lam):
            if not isinstance(t, Lam):
                return False
            return self.match(p.body, t.body, (p.mt,) + tuple(env))
        if isinstance(p, Goal):
            return self.match_goal(p, t, env)
        ph, pargs = plain_spine(p)
        if isinstance(ph, Meta):
            return self._bind_pattern(ph.cell, pargs, t)
        th, targs = plain_spine(t)
        if isinstance(ph, Const):
            if not (isinstance(th, Const) and th.name == ph.name and th.birth == ph.birth):
                return False
        elif isinstance(ph, Bound):
            if not (isinstance(th, Bound) and th.index == ph.index):
                return False
        else:
            return False
        if len(pargs) != len(targs):
            return False
        for pa, ta in zip(pargs, targs):
            if not self.match(pa, ta, env):
                return False
        return True

    def _resolve_pattern(self, p, env):
        h = p
        while isinstance(h, App):
            h = h.fn
        if isinstance(h, Meta) and h.cell.value is not None:
            return normalize(p, env)
        return p

    def _eta_var(self, t):
        """Contract an eta-expansion down to its head variable, or None.

        In eta-long form a functional variable argument shows up as
        `x1\\ .. xn\\ v x1 .. xn`; it counts as the variable v.
        """
        t = deref(t)
        n = 0
        body = t
        while isinstance(body, Lam):
            body = body.body
            n += 1
        if n == 0:
            if isinstance(t, Bound) or (isinstance(t, Const) and t.birth > 0):
                return t
            return None
        h, args = plain_spine(body)
        if len(args) != n:
            return None
        for i, a in enumerate(args):
            v = self._eta_var(a)
            if not (isinstance(v, Bound) and v.index == n - 1 - i):
                return None
        if isinstance(h, Bound):
            return Bound(h.index - n) if h.index >= n else None
        if isinstance(h, Const) and h.birth > 0:
            return h
        return None

    def _bind_pattern(self, cell, args, target):
        """The flexible case: cell applied to distinct variables."""
        keys = []
        for a in args:
            v = self._eta_var(a)
            if isinstance(v, Bound):
                k = ("b", v.index)
            elif isinstance(v, Const):
                k = ("c", v.birth)
            else:
                raise PatternError(
                    "matching variable applied to a non-variable argument"
                )
            if k in keys:
                raise PatternError(
                    "matching variable applied to a repeated argument"
                )
            keys.append(k)
        try:
            body = _abstract(target, 0, keys)
        except _Escape:
            return False
        doms = arg_types(cell.mt)[: len(keys)]
        value = body
        for mt in reversed(doms):
            value = Lam(mt, value)
        return self.bind(cell, value)

    def match_goal(self, pg, tg, env=()) -> bool:
        if isinstance(pg, Atom) and isinstance(tg, Atom):
            if pg.pred != tg.pred or len(pg.args) != len(tg.args):
                return False
            for pa, ta in zip(pg.args, tg.args):
                if not self.match(pa, ta, env):
                    return False
            return True
        if isinstance(pg, All) and isinstance(tg, All):
            if pg.mt != tg.mt:
                return False
            return self.match_goal(pg.body, tg.body, (pg.mt,) + tuple(env))
        if isinstance(pg, Conj) and isinstance(tg, Conj):
            return self.match_goal(pg.left, tg.left, env) and self.match_goal(
                pg.right, tg.right, env
            )
        if isinstance(pg, Impl) and isinstance(tg, Impl):
            return self.match_goal(pg.clause, tg.clause, env) and self.match_goal(
                pg.goal, tg.goal, env
            )
        return False

    # -- the interpreter ----------------------------------------------------------

    def solve(self, g: Goal):
        """Generator yielding once per solution, chronological order."""
        self.tick()
        if isinstance(g, Atom):
            yield from self.solve_atom(g)
        elif isinstance(g, Conj):
            for _ in self.solve(g.left):
                yield from self.solve(g.right)
        elif isinstance(g, All):
            x = self.fresh_eigen(g.mt, g.hint)
            yield from self.solve(subst_goal(g.body, x))
        elif isinstance(g, Impl):
            depth = len(self.store)
            self.push_clause(g.clause)
            try:
                yield from self.solve(g.goal)
            finally:
                del self.store[depth:]
        else:
            raise StructuralError(f"not a goal: {g!r}")

    def solve_atom(self, atom: Atom):
        if has_bound_meta(atom):
            atom = normalize_goal(atom)
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

    def _dispatch(self, atom: Atom):
        pred = atom.pred
        if pred == "proves":
            p, a = atom.args
            if has_unbound_meta(a):
                return  # the formula side must be ground
            h, args = plain_spine(p)
            if isinstance(h, Const):
                n = h.name
                if (n, len(args)) in (("lemma_pf", 3), ("def_pf", 4)):
                    yield from self.check_template_pf(args, a)
                    return
                if n == "elam" and len(args) == 1:
                    yield from self.check_elam(args[0], a)
                    return
                if n == "extract" and len(args) == 2:
                    yield from self.check_extract(args[0], args[1], a)
                    return
                if n == "extractGoal" and len(args) == 2:
                    yield from self.check_extract_goal(args[0], args[1], a)
                    return
                rule = PROVES_RULES.get(n)
                if rule is not None:
                    # exactly one built-in rule per proof constructor
                    yield from self.backchain(atom, rule)
                    return
            if isinstance(h, Meta) or has_unbound_meta(p):
                return  # unresolved matching variable at dispatch
            yield from self.solve_store(Atom("assump", (atom,)))
            yield from self.solve_store(atom)
        elif pred == "hastype":
            x, tp = atom.args
            if has_unbound_meta(x) or has_unbound_meta(tp):
                return
            h, _ = plain_spine(x)
            if isinstance(h, Const):
                rule = HASTYPE_RULES.get(h.name)
                if rule is not None:
                    yield from self.backchain(atom, rule)
                    return
            yield from self.solve_store(atom)
        elif pred == "assump":
            if has_unbound_meta(atom):
                return
            yield from self.solve_store(atom)
        # unknown predicates have no rules: fail

    def solve_store(self, atom: Atom):
        """Try the dynamic clauses, most recently added first."""
        for clause in tuple(reversed(self.store)):
            yield from self.backchain(atom, clause)

    def backchain(self, atom: Atom, clause: Goal):
        self.tick()
        if isinstance(clause, All):
            # the whole pi prefix in one substitution pass, one step and
            # one fresh matching variable per binder, outermost first
            metas = []
            while isinstance(clause, All):
                metas.append(self.fresh_meta(clause.mt))
                clause = clause.body
                self.tick()
            clause = subst_goal(clause, *metas)
        if isinstance(clause, Conj):
            m = self.mark()
            try:
                yield from self.backchain(atom, clause.left)
            finally:
                self.undo(m)
            m = self.mark()
            try:
                yield from self.backchain(atom, clause.right)
            finally:
                self.undo(m)
        elif isinstance(clause, Impl):
            for _ in self.backchain(atom, clause.goal):
                yield from self.solve(clause.clause)
        elif isinstance(clause, Atom):
            m = self.mark()
            try:
                if self.match_goal(clause, atom):
                    yield
            finally:
                self.undo(m)

    # -- lemma and definition constructors -------------------------------------

    def check_template_pf(self, args, formula):
        """`lemma_pf I L R` and `def_pf T I B R`: check the template I at
        the witness L (or B), then check R at a fresh name with the
        instance (and the definition's equality) as clauses in scope."""
        if any(has_unbound_meta(x) for x in args):
            return
        result_tp = args[0] if len(args) == 4 else None
        template, witness, rest = args[-3:]
        if not (isinstance(template, Lam) and isinstance(rest, Lam)):
            raise StructuralError("lemma or definition node is not eta-long")
        name = self.fresh_eigen(template.mt, rest.hint)
        kind = "lemma" if result_tp is None else "definition typing"
        goal, clauses = instantiate(template, name, witness, kind, result_tp)
        for _ in self.solve(goal):
            depth = len(self.store)
            for clause in clauses():
                self.push_clause(clause)
            try:
                yield from self.solve(Atom("proves", (subst(rest.body, name), formula)))
            finally:
                del self.store[depth:]

    def check_elam(self, q, formula):
        if not isinstance(q, Lam):
            raise StructuralError("elam node is not eta-long")
        if q.mt not in (TP, TM):
            raise ValidityError("elam may only quantify over tp or tm")
        b = self.fresh_meta(q.mt)
        yield from self.solve(Atom("proves", (subst(q.body, b), formula)))

    def check_extract(self, pat, sub, formula):
        m = self.mark()
        try:
            if self.match(pat, formula):
                yield from self.solve(Atom("proves", (sub, formula)))
        finally:
            self.undo(m)

    def check_extract_goal(self, g, sub, formula):
        if not isinstance(g, Goal):
            raise StructuralError("extractGoal expects a goal argument")
        if not valid_clause(g):
            raise ValidityError(f"extractGoal argument outside the allowed grammar: {g!r}")
        for _ in self.solve(g):
            yield from self.solve(Atom("proves", (sub, formula)))

    # -- checking entry point -----------------------------------------------------

    def check_goal(self, goal: Goal, augment=True) -> CheckReport:
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
        except BudgetError as e:
            error, message = "budget", str(e)
        except ValidityError as e:
            error, message = "validity", str(e)
        except PatternError as e:
            error, message = "pattern", str(e)
        except StructuralError as e:
            error, message = "structural", str(e)
        if len(self.store) != depth or len(self.trail) != tmark:
            raise StructuralError("store/trail stack discipline violated")
        stats = Stats(
            steps=self.steps,
            clauses_added=self.clauses_added - clauses_before,
            max_store_depth=self.max_store_depth,
        )
        failure_stack = ()
        if not ok and error is None:
            from .syntax import format_goal

            failure_stack = tuple(
                format_goal(x, self.sig) for x in self.failure_snapshot
            )
        return CheckReport(ok, error, message, stats, failure_stack)
