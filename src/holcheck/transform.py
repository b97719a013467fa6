"""Untrusted proof transformations: lemma expansion and proof metrics."""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (
    All,
    App,
    Atom,
    Conj,
    Const,
    Goal,
    GoalTerm,
    Impl,
    Lam,
    children,
    map_proves,
    normalize,
    plain_spine,
)


@dataclass
class ProofStats:
    shared_nodes: int
    tree_nodes: int
    lemma_count: int
    def_count: int
    max_depth: int


def expand_lemmas(proof, env=()):
    """Replace every in-proof lemma node by its inlined proof.

    Bottom-up: each `lemma_pf I L R` becomes the normal form of `R L`.
    Definition nodes are left intact.  Idempotent; the output mentions no
    lemma constructor.  `env` lists binder meta-types for open input.
    """
    return _expand(proof, tuple(env))


def _expand(t, env):
    if isinstance(t, App):
        fn, arg = _expand(t.fn, env), _expand(t.arg, env)
        t2 = t if fn is t.fn and arg is t.arg else App(fn, arg)
        head, args = plain_spine(t2)
        if isinstance(head, Const) and head.name == "lemma_pf" and len(args) == 3:
            return normalize(App(args[2], args[1]), env)
        return t2
    if isinstance(t, Lam):
        body = _expand(t.body, (t.mt,) + env)
        return t if body is t.body else Lam(t.mt, body, t.hint)
    if isinstance(t, GoalTerm):
        g = _expand_goal(t.goal, env)
        return t if g is t.goal else GoalTerm(g)
    return t


def _expand_goal(g, env):
    if isinstance(g, Atom):
        return Atom(
            g.pred,
            tuple(
                _expand_goal(a, env) if isinstance(a, Goal) else _expand(a, env)
                for a in g.args
            ),
        )
    if isinstance(g, All):
        return All(g.mt, _expand_goal(g.body, (g.mt,) + env), g.hint)
    if isinstance(g, Conj):
        return Conj(_expand_goal(g.left, env), _expand_goal(g.right, env))
    if isinstance(g, Impl):
        return Impl(_expand_goal(g.clause, env), _expand_goal(g.goal, env))
    return g


def expand_statement_goal(g, env=()):
    """Expand the proof argument of every positive proves atom in a goal."""
    return map_proves(g, _expand_atom, env)


def _expand_atom(atom, env):
    return Atom("proves", (expand_lemmas(atom.args[0], env), atom.args[1]))


def _skeleton_children(t):
    """Children for size metrics: an embedded clause template is a single
    leaf.  Templates state; only proof structure is measured."""
    if isinstance(t, GoalTerm):
        return ()
    return children(t)


def proof_stats(proof) -> ProofStats:
    """Size metrics of a proof term.

    `shared_nodes` counts distinct nodes of the in-memory graph (shared
    subterms once); `tree_nodes` counts the full tree expansion, which is
    the transmitted-size metric.  Embedded clause templates count as one
    node each.
    """
    seen = set()
    tree_memo = {}
    depth_memo = {}

    def visit(t):
        if id(t) in seen:
            return
        seen.add(id(t))
        for c in _skeleton_children(t):
            visit(c)

    def tree(t):
        k = id(t)
        if k in tree_memo:
            return tree_memo[k]
        n = 1 + sum(tree(c) for c in _skeleton_children(t))
        tree_memo[k] = n
        return n

    def depth(t):
        k = id(t)
        if k in depth_memo:
            return depth_memo[k]
        d = 1 + max((depth(c) for c in _skeleton_children(t)), default=0)
        depth_memo[k] = d
        return d

    head_memo = {}

    def count_heads(t):
        k = id(t)
        if k in head_memo:
            return head_memo[k]
        own = (0, 0)
        if isinstance(t, Const):
            own = (int(t.name == "lemma_pf"), int(t.name == "def_pf"))
        l, d = own
        for c in _skeleton_children(t):
            cl, cd = count_heads(c)
            l += cl
            d += cd
        head_memo[k] = (l, d)
        return l, d

    visit(proof)
    lemmas, defs = count_heads(proof)
    return ProofStats(
        shared_nodes=len(seen),
        tree_nodes=tree(proof),
        lemma_count=lemmas,
        def_count=defs,
        max_depth=depth(proof),
    )
