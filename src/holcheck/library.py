"""Named lemma/definition registry, library checking, and proof packaging.

Nothing here is trusted: packaged proofs are re-checked by the kernel, so
a registry bug can make checking fail but never admit a bad proof.
"""

from __future__ import annotations

from .errors import LibraryError
from .kernel import CheckReport, Session, instantiate
from .syntax import DefDefinition, DefLemma, Solve
from .terms import (
    App,
    Arrow,
    Bound,
    Const,
    Lam,
    Meta,
    O,
    PF,
    TP,
    Term,
    app,
    arrow,
    map_children,
    normalize,
    shift,
)


def _entry_parts(entry):
    """The arguments of the entry's `lemma_pf` or `def_pf` node before its
    scope: (template, proof) or (result type, typing template, body)."""
    if isinstance(entry, DefLemma):
        return (entry.template, entry.proof)
    return (entry.result_tp, entry.typeinf, entry.body)


def register(entry, registry):
    """Add a parsed `def_lemma` or `def_definition` to `registry`, a dict
    from name to statement in the order they were added."""
    if entry.name in registry:
        raise LibraryError(f"duplicate registry name '{entry.name}'")
    registry[entry.name] = entry


def load_library(source, registry, session: Session):
    """Check a library file's entries in file order and register each one
    once it is installed in `session`; stop at the first failure.

    The whole file is validated first: no goal statement, each entry's
    statement parts (a lemma's proof is excluded: it is verified by
    running it) referencing only earlier names or constants outside the
    registry, and no name registered twice.  Returns a list of
    (entry_name, CheckReport); clauses of installed entries persist in the
    session store.
    """
    entries = []
    for st in source.statements:
        if isinstance(st, Solve):
            raise LibraryError("a library file may not contain goal statements")
        if isinstance(st, (DefLemma, DefDefinition)):
            entries.append(st)
    later = {e.name for e in entries}
    names = dict(registry)  # the registry gets an entry once it is installed
    for entry in entries:
        later.discard(entry.name)
        parts = (entry.template,) if isinstance(entry, DefLemma) else _entry_parts(entry)
        for part in parts:
            fwd = const_names(part) & (later | {entry.name})
            if fwd:
                raise LibraryError(
                    f"entry '{entry.name}' references not-yet-defined name(s): "
                    + ", ".join(sorted(fwd))
                )
        register(entry, names)
    results = []
    for entry in entries:
        report = install_entry(entry, session)
        results.append((entry.name, report))
        if not report.ok:
            break
        register(entry, registry)
    return results


def install_entry(entry, session: Session) -> CheckReport:
    """Check one entry in the current session and push its clause(s).

    Lemmas: validate the clause, check the proof, push the clause.
    Definitions: validate the typing clause, check the body's typing, push
    both the typing clause and the equality clause.  Pushed clauses stay
    for the rest of the session (library scope).
    """
    *result_tp, template, witness = _entry_parts(entry)
    kind = f"definition '{entry.name}' typing" if result_tp else f"lemma '{entry.name}'"
    # `instantiate` takes a normal template and witness
    name = Const(entry.name, entry.meta_type)
    goal, clauses = instantiate(
        normalize(template), name, normalize(witness), kind, *result_tp
    )
    report = session.check_goal(goal, augment=False)
    if report.ok:
        for clause in clauses():
            session.push_clause(clause)
    return report


# ---------------------------------------------------------------------------
# Walks over terms
# ---------------------------------------------------------------------------


def walk(t):
    """All nodes of a term tree, dereferencing bound meta cells."""
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Meta) and t.cell.value is not None:
            stack.append(t.cell.value)
        else:
            yield t
            if isinstance(t, App):
                stack.append(t.head)
                stack.extend(t.args)
            elif isinstance(t, Lam):
                stack.append(t.body)


def const_names(t) -> set:
    return {n.name for n in walk(t) if isinstance(n, Const)}


def replace_const(t, depth, mapping):
    """Replace constants by de Bruijn variables: `mapping` sends a constant
    name to the number of binders between the root and its binder, and
    `depth` counts the binders between the root and `t`."""
    if isinstance(t, Const):
        return Bound(mapping[t.name] + depth) if t.name in mapping else t
    return map_children(t, replace_const, depth, mapping)


# ---------------------------------------------------------------------------
# Packaging
# ---------------------------------------------------------------------------


def dependencies(proof: Term, registry) -> list:
    """Transitive registry entries a proof depends on, by constant scanning."""
    needed = set()
    queue = [n for n in const_names(proof) if n in registry]
    while queue:
        n = queue.pop()
        if n in needed:
            continue
        needed.add(n)
        for part in _entry_parts(registry[n]):
            queue.extend(m for m in const_names(part) if m in registry)
    return [e for e in registry.values() if e.name in needed]


def package(goal_formula: Term, proof: Term, registry) -> Term:
    """Inline every registry entry the proof depends on.

    The result mentions no registry constant: definitions are wrapped
    first (registry order), then lemmas (registry order), each name
    becoming the binder of its wrapping node.  A proof with no registry
    references is returned unchanged.
    """
    stray = const_names(goal_formula) & registry.keys()
    if stray:
        raise LibraryError(
            "goal formula references registry name(s): " + ", ".join(sorted(stray))
        )
    needed = dependencies(proof, registry)
    if not needed:
        return proof
    defs = [e for e in needed if isinstance(e, DefDefinition)]
    lemmas = [e for e in needed if isinstance(e, DefLemma)]
    order = defs + lemmas  # outermost first
    # built innermost first: the core may reference binders of the enclosing
    # goal; its free variables cross every wrapper binder
    mapping = {e.name: len(order) - 1 - j for j, e in enumerate(order)}
    t = replace_const(shift(proof, len(order)), 0, mapping)
    for k in reversed(range(len(order))):
        entry = order[k]
        mapping = {e.name: k - 1 - j for j, e in enumerate(order[:k])}
        a = entry.meta_type
        rest = Lam(a, t, hint=entry.name)
        if isinstance(entry, DefLemma):
            head = Const("lemma_pf", arrow(Arrow(a, O), a, Arrow(a, PF), PF))
        else:
            head = Const("def_pf", arrow(TP, Arrow(a, O), a, Arrow(a, PF), PF))
        # `lemma_pf I L R` or `def_pf T I B R`, the entry's parts before R
        parts = [replace_const(p, 0, mapping) for p in _entry_parts(entry)]
        t = app(head, *parts, rest)
    return t
