"""Untrusted proof transformations: lemma expansion and proof metrics."""

from __future__ import annotations

from collections import namedtuple

from .terms import (
    O,
    PROVES,
    App,
    Const,
    Lam,
    _hsubst,
    map_children,
    map_proves,
    normalize,
    result_base,
)


ProofStats = namedtuple("ProofStats", "shared_nodes tree_nodes lemma_count def_count max_depth")


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
    head = t.head if isinstance(t, App) else None
    if isinstance(head, Const) and head.name == "lemma_pf" and len(t.args) == 3:
        # the beta step of `R L` on normal parts, by hereditary substitution,
        # so the expansions already made inside them are not walked again
        rest, witness = normalize(t.args[2], env), normalize(t.args[1], env)
        return _hsubst(rest.body, 0, (witness,))
    return t


def expand_statement_goal(g, env=()):
    """Expand the proof argument of every positive proves atom in a goal."""
    return map_proves(g, _expand_atom, env)


def _expand_atom(atom, env):
    proof, formula = atom.args
    return App(PROVES, (expand_lemmas(proof, env), formula))


def _visit(t, memo):
    """(tree nodes, depth, lemma heads, def heads) of `t`, kept in `memo`
    by the `id` of each node visited.  A spine `h a1 .. an` counts as the
    n binary applications `h a1 .. ak`, each kept by the ids of `h` and
    `a1 .. ak`; a goal, which applies a constant of result type o, is a
    single leaf (templates state; only proof structure is measured)."""
    if isinstance(t, App):
        h, key = t.head, (id(t.head),)
        if isinstance(h, Const) and result_base(h.mt) == O:
            return memo.setdefault(key + tuple(map(id, t.args)), (1, 1, 0, 0))
        tree, depth, lemmas, defs = _visit(h, memo)
        for a in t.args:
            key += (id(a),)
            if key not in memo:
                ct, cd, cl, cf = _visit(a, memo)
                memo[key] = (tree + ct + 1, max(depth, cd) + 1, lemmas + cl, defs + cf)
            tree, depth, lemmas, defs = memo[key]
        return tree, depth, lemmas, defs
    k = id(t)
    if k not in memo:
        tree, depth, lemmas, defs = 1, 1, 0, 0
        if isinstance(t, Const):
            lemmas, defs = int(t.name == "lemma_pf"), int(t.name == "def_pf")
        elif isinstance(t, Lam):
            ct, cd, lemmas, defs = _visit(t.body, memo)
            tree, depth = ct + 1, cd + 1
        memo[k] = (tree, depth, lemmas, defs)
    return memo[k]


def proof_stats(proof) -> ProofStats:
    """Size metrics of a proof term, read as binary applications.

    `shared_nodes` counts distinct nodes of the in-memory graph (shared
    subterms once); `tree_nodes` counts the full tree expansion, which is
    the transmitted-size metric.  Embedded clause templates count as one
    node each.
    """
    memo = {}
    tree, depth, lemmas, defs = _visit(proof, memo)
    return ProofStats(
        shared_nodes=len(memo),
        tree_nodes=tree,
        lemma_count=lemmas,
        def_count=defs,
        max_depth=depth,
    )
