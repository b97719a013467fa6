"""Untrusted proof transformations: lemma expansion and proof metrics."""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (
    O,
    PROVES,
    App,
    Const,
    Lam,
    app,
    map_children,
    map_proves,
    normalize,
    plain_spine,
    result_base,
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
    return _expand(proof, tuple(env), None)


def _expand(t, env, _):
    # binders extend `env`, so they are rebuilt here, not by map_children
    if isinstance(t, Lam):
        body = _expand(t.body, (t.mt,) + env, None)
        t = t if body is t.body else Lam(t.mt, body, t.hint)
    else:
        t = map_children(t, _expand, env, None)
    head, args = plain_spine(t)
    if isinstance(head, Const) and head.name == "lemma_pf" and len(args) == 3:
        return normalize(App(args[2], args[1]), env)
    return t


def expand_statement_goal(g, env=()):
    """Expand the proof argument of every positive proves atom in a goal."""
    return map_proves(g, _expand_atom, env)


def _expand_atom(atom, env):
    proof, formula = plain_spine(atom)[1]
    return app(PROVES, expand_lemmas(proof, env), formula)


def children(t):
    if isinstance(t, App):
        return (t.fn, t.arg)
    if isinstance(t, Lam):
        return (t.body,)
    return ()


def _skeleton_children(t):
    """Children for size metrics: an embedded clause template is a single
    leaf.  Templates state; only proof structure is measured."""
    h, _ = plain_spine(t)
    if isinstance(h, Const) and result_base(h.mt) == O:
        return ()  # a goal: it applies a constant of result type o
    return children(t)


def proof_stats(proof) -> ProofStats:
    """Size metrics of a proof term.

    `shared_nodes` counts distinct nodes of the in-memory graph (shared
    subterms once); `tree_nodes` counts the full tree expansion, which is
    the transmitted-size metric.  Embedded clause templates count as one
    node each.
    """
    memo = {}  # id -> (tree nodes, depth, lemma heads, def heads)

    def visit(t):
        k = id(t)
        if k not in memo:
            tree, depth, lemmas, defs = 1, 0, 0, 0
            if isinstance(t, Const):
                lemmas, defs = int(t.name == "lemma_pf"), int(t.name == "def_pf")
            for c in _skeleton_children(t):
                ct, cd, cl, cf = visit(c)
                tree += ct
                depth = max(depth, cd)
                lemmas += cl
                defs += cf
            memo[k] = (tree, depth + 1, lemmas, defs)
        return memo[k]

    tree, depth, lemmas, defs = visit(proof)
    return ProofStats(
        shared_nodes=len(memo),
        tree_nodes=tree,
        lemma_count=lemmas,
        def_count=defs,
        max_depth=depth,
    )
