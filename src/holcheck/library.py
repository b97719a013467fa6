"""Named lemma/definition registry, library checking, and proof packaging.

Nothing here is trusted: packaged proofs are re-checked by the kernel, so
a registry bug can make checking fail but never admit a bad proof.
"""

from __future__ import annotations

from .errors import LibraryError
from .kernel import CheckReport, Session, instantiate
from .syntax import DefDefinition, DefLemma, InfixDecl, Solve, TypeDecl
from .terms import (
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
from .transform import children


class LemmaEntry:
    def __init__(self, name, meta_type, template, proof):
        self.name = name
        self.meta_type = meta_type
        self.template = template  # abstraction over the name; body of meta-type o
        self.proof = proof
        self.checked = False


class DefinitionEntry:
    def __init__(self, name, meta_type, result_tp, typeinf, body):
        self.name = name
        self.meta_type = meta_type
        self.result_tp = result_tp
        self.typeinf = typeinf  # abstraction over the name; body of meta-type o
        self.body = body
        self.checked = False


class Registry:
    """The entries, in order and by name; the ones given are copied."""

    def __init__(self, entries=(), by_name=()):
        self.entries = list(entries)
        self.by_name = dict(by_name)

    def add(self, entry):
        if entry.name in self.by_name:
            raise LibraryError(f"duplicate registry name '{entry.name}'")
        self.by_name[entry.name] = entry
        self.entries.append(entry)


def entry_of(st):
    """The registry entry of a parsed `def_lemma` or `def_definition`."""
    if isinstance(st, DefLemma):
        return LemmaEntry(st.name, st.meta_type, st.template, st.proof)
    return DefinitionEntry(st.name, st.meta_type, st.result_tp, st.typeinf, st.body)


def _entry_parts(entry):
    """The arguments of the entry's `lemma_pf` or `def_pf` node before its
    scope: (template, proof) or (result type, typing template, body)."""
    if isinstance(entry, LemmaEntry):
        return (entry.template, entry.proof)
    return (entry.result_tp, entry.typeinf, entry.body)


def _statement_parts(entry):
    """The parts that must only reference earlier names (a lemma's proof
    is excluded: it is verified by running it)."""
    parts = _entry_parts(entry)
    return parts[:1] if isinstance(entry, LemmaEntry) else parts


def load_library(source, registry: Registry = None) -> Registry:
    """Build a Registry from parsed def_lemma/def_definition statements.

    File order is the dependency order: a statement part may reference only
    names defined earlier (or constants outside the registry).
    """
    registry = registry if registry is not None else Registry()
    pending = []
    for st in source.statements:
        if isinstance(st, (DefLemma, DefDefinition)):
            pending.append(entry_of(st))
        elif isinstance(st, Solve):
            raise LibraryError("a library file may not contain goal statements")
        elif not isinstance(st, (TypeDecl, InfixDecl)):
            raise LibraryError(f"unsupported library statement: {st!r}")
    later = {e.name for e in pending}
    for entry in pending:
        later.discard(entry.name)
        for part in _statement_parts(entry):
            fwd = const_names(part) & (later | {entry.name})
            if fwd:
                raise LibraryError(
                    f"entry '{entry.name}' references not-yet-defined name(s): "
                    + ", ".join(sorted(fwd))
                )
        registry.add(entry)
    return registry


def name_const(entry) -> Const:
    return Const(entry.name, entry.meta_type)


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
    goal, clauses = instantiate(
        normalize(template), name_const(entry), normalize(witness), kind, *result_tp
    )
    report = session.check_goal(goal, augment=False)
    if report.ok:
        for clause in clauses():
            session.push_clause(clause)
        entry.checked = True
    return report


def check_library(registry: Registry, session: Session):
    """Check entries in order; stop at the first failure.

    Returns a list of (entry_name, CheckReport).  Clauses of successful
    entries persist in the session store.
    """
    results = []
    for entry in registry.entries:
        if entry.checked:
            continue
        report = install_entry(entry, session)
        results.append((entry.name, report))
        if not report.ok:
            break
    return results


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
            stack.extend(children(t))


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


def dependencies(proof: Term, registry: Registry) -> list:
    """Transitive registry entries a proof depends on, by constant scanning."""
    needed = set()
    queue = [n for n in const_names(proof) if n in registry.by_name]
    while queue:
        n = queue.pop()
        if n in needed:
            continue
        needed.add(n)
        for part in _entry_parts(registry.by_name[n]):
            queue.extend(m for m in const_names(part) if m in registry.by_name)
    return [e for e in registry.entries if e.name in needed]


def package(goal_formula: Term, proof: Term, registry: Registry) -> Term:
    """Inline every registry entry the proof depends on.

    The result mentions no registry constant: definitions are wrapped
    first (registry order), then lemmas (registry order), each name
    becoming the binder of its wrapping node.  A proof with no registry
    references is returned unchanged.
    """
    for e in registry.entries:
        if not e.checked:
            raise LibraryError(f"registry entry '{e.name}' is not checked")
    stray = const_names(goal_formula) & registry.by_name.keys()
    if stray:
        raise LibraryError(
            "goal formula references registry name(s): " + ", ".join(sorted(stray))
        )
    needed = dependencies(proof, registry)
    if not needed:
        return proof
    defs = [e for e in needed if isinstance(e, DefinitionEntry)]
    lemmas = [e for e in needed if isinstance(e, LemmaEntry)]
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
        if isinstance(entry, LemmaEntry):
            head = Const("lemma_pf", arrow(Arrow(a, O), a, Arrow(a, PF), PF))
        else:
            head = Const("def_pf", arrow(TP, Arrow(a, O), a, Arrow(a, PF), PF))
        # `lemma_pf I L R` or `def_pf T I B R`, the entry's parts before R
        parts = [replace_const(p, 0, mapping) for p in _entry_parts(entry)]
        t = app(head, *parts, rest)
    return t
