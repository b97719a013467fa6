"""Batch front end: check, expand, package, stats and fmt over `.hol` files.

Exit status: 0 all statements succeed; 1 a check failed; 2 a parse,
meta-type, validity or pattern error; 3 the step budget or the Python
recursion depth was exhausted.
Structural problems (2) take precedence over resource errors (3), which
take precedence over plain failures (1).

`main` pauses Python's cyclic garbage collector while a command runs and
re-enables it after, only if it was enabled before.  Terms, clause
stores, trails and goal stacks are acyclic, so reference counting frees
all that a command makes, and a collector pass would only walk live terms.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys

from .errors import (
    BudgetError,
    LibraryError,
    PatternError,
    SourceError,
    StructuralError,
    ValidityError,
)
from .kernel import DEFAULT_BUDGET, Session
from .library import (
    Registry,
    check_library,
    entry_of,
    install_entry,
    load_library,
    package,
)
from .signature import builtin_signature
from .syntax import (
    DefDefinition,
    DefLemma,
    InfixDecl,
    Solve,
    TypeDecl,
    apply_declarations,
    format_statement,
    parse_source,
)
from .terms import PROVES, App, map_proves
from .transform import expand_statement_goal, proof_stats

EXIT_OK, EXIT_FAILED, EXIT_INVALID, EXIT_RESOURCE = 0, 1, 2, 3

_ERROR_EXIT = {
    None: EXIT_FAILED,
    "validity": EXIT_INVALID,
    "pattern": EXIT_INVALID,
    "structural": EXIT_INVALID,
    "budget": EXIT_RESOURCE,
}


def _read(path):
    with open(path, "r", encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as e:
            raise SourceError(f"not UTF-8 text ({e.reason})", path=path) from None


def _combine(codes):
    codes = set(codes)
    for code in (EXIT_INVALID, EXIT_RESOURCE, EXIT_FAILED):
        if code in codes:
            return code
    return EXIT_OK


def _declare_libraries(sig, lib_paths):
    """Parse each library file and add its declarations to `sig`, yielding
    `(path, source)` file by file."""
    for path in lib_paths:
        src = parse_source(_read(path), sig, path)
        apply_declarations(src.statements, sig)
        yield path, src


class Environment:
    """Signature + session + registry with the libraries loaded and checked."""

    def __init__(self, lib_paths, budget, trace="summary"):
        self.sig = builtin_signature()
        self.session = Session(self.sig, budget)
        self.registry = Registry()
        self.trace = trace
        self.codes = []
        for path, src in _declare_libraries(self.sig, lib_paths):
            load_library(src, self.registry)
            for name, report in check_library(self.registry, self.session):
                if not report.ok:
                    message = (
                        f"{path}: library entry '{name}' failed: "
                        f"{report.message or 'proof check failed'}"
                    )
                    if report.error == "budget":
                        raise BudgetError(report.stats.steps)
                    raise LibraryError(message)

    def fork(self):
        """A copy of this environment's state for one input file.

        The copy gets its own signature, registry and clause store, each
        holding what this environment holds, and an empty trail; nothing
        the copy declares, installs or pushes reaches this environment.
        """
        env = object.__new__(type(self))
        env.sig = self.sig.copy()
        env.session = Session(env.sig, self.session.budget)
        env.session.store = list(self.session.store)
        env.session.counter = self.session.counter
        env.session.clauses_added = self.session.clauses_added
        env.registry = Registry(self.registry.entries, self.registry.by_name)
        env.trace = self.trace
        env.codes = []
        return env

    def emit(self, line):
        if self.trace != "quiet":
            print(line)

    def run_statement(self, st, path):
        loc = f"{path}:{st.pos[0]}"
        if isinstance(st, (TypeDecl, InfixDecl)):
            apply_declarations([st], self.sig)
            return
        if isinstance(st, (DefLemma, DefDefinition)):
            self._install(entry_of(st), loc)
            return
        if isinstance(st, Solve):
            report = self.session.check_goal(st.goal, augment=True)
            self._report(report, loc, "goal")
            return
        raise StructuralError(f"unsupported statement at {loc}")

    def _install(self, entry, loc):
        self.registry.add(entry)
        report = install_entry(entry, self.session)
        self._report(report, loc, entry.name)

    def _report(self, report, loc, what):
        s = report.stats
        if report.ok:
            self.emit(
                f"{loc}: {what}: success "
                f"(steps={s.steps}, clauses={s.clauses_added}, depth={s.max_store_depth})"
            )
            self.codes.append(EXIT_OK)
            return
        kind = report.error or "failure"
        msg = f": {report.message}" if report.message else ""
        self.emit(f"{loc}: {what}: {kind}{msg} (steps={s.steps})")
        if self.trace == "trace" and report.failure_stack:
            for g in report.failure_stack:
                print(f"  | {g}", file=sys.stderr)
        self.codes.append(_ERROR_EXIT[report.error])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_check(args):
    library = Environment(args.lib, args.budget, args.trace)
    codes = []
    for path in args.inputs:
        env = library.fork()
        src = parse_source(_read(path), env.sig, path)
        for st in src.statements:
            env.run_statement(st, path)
        codes.extend(env.codes)
    return _combine(codes)


def _library_signature(lib_paths):
    """The signature with the declarations of the libraries, unchecked."""
    sig = builtin_signature()
    list(_declare_libraries(sig, lib_paths))
    return sig


def _rewrite_command(args, sig, rewrite, keep_definitions):
    (path,) = args.inputs
    src = parse_source(_read(path), sig, path)
    out_statements = []
    for st in src.statements:
        if isinstance(st, (TypeDecl, InfixDecl)):
            apply_declarations([st], sig)
            out_statements.append(st)
        elif isinstance(st, (DefLemma, DefDefinition)):
            if not keep_definitions:
                raise LibraryError(
                    "input for this command may not define lemmas; load them via --lib"
                )
            out_statements.append(st)
        elif isinstance(st, Solve):
            out_statements.append(Solve(rewrite(st.goal), st.pos))
    text = "\n".join(format_statement(st, sig) for st in out_statements) + "\n"
    with open(args.output, "w", encoding="utf-8") as f:
        f.write(text)
    return EXIT_OK


def cmd_expand(args):
    sig = _library_signature(args.lib)
    return _rewrite_command(args, sig, expand_statement_goal, keep_definitions=True)


def cmd_package(args):
    env = Environment(args.lib, args.budget, args.trace)

    def package_atom(atom, _binders):
        proof, formula = atom.args
        return App(PROVES, (package(formula, proof, env.registry), formula))

    return _rewrite_command(
        args, env.sig, lambda g: map_proves(g, package_atom), keep_definitions=False
    )


def cmd_fmt(args):
    sig = _library_signature(args.lib)
    return _rewrite_command(args, sig, lambda g: g, keep_definitions=True)


def cmd_stats(args):
    library = _library_signature(args.lib)
    for path in args.inputs:
        sig = library.copy()
        src = parse_source(_read(path), sig, path)
        for st in src.statements:
            if isinstance(st, (TypeDecl, InfixDecl)):
                apply_declarations([st], sig)
            elif isinstance(st, Solve):
                proofs = []
                map_proves(st.goal, lambda a, env: proofs.append(a.args[0]) or a)
                for proof in proofs:
                    s = proof_stats(proof)
                    print(
                        f"{path}:{st.pos[0]}: nodes={s.shared_nodes} "
                        f"tree_nodes={s.tree_nodes} lemmas={s.lemma_count} "
                        f"defs={s.def_count} depth={s.max_depth}"
                    )
    return EXIT_OK


def _positive_int(text):
    try:
        n = int(text)
        if n > 0:
            return n
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


@functools.cache
def build_arg_parser():
    """The argument parser, built once per process: parsing leaves it as
    it was, and each call gets a namespace of its own."""
    ap = argparse.ArgumentParser(
        prog="holcheck",
        description="Proof checker for a higher-order natural-deduction object logic.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, output=False):
        p.add_argument("inputs", nargs="+", help="input .hol file(s)")
        p.add_argument(
            "--lib",
            action="append",
            default=[],
            metavar="FILE",
            help="library file; repeatable, later files may use earlier ones",
        )
        p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET, metavar="N")
        p.add_argument(
            "--trace", choices=("quiet", "summary", "trace"), default="summary"
        )
        if output:
            p.add_argument("-o", "--output", required=True, metavar="FILE")

    p = sub.add_parser("check", help="check every statement")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("expand", help="inline all lemma uses in the proofs")
    common(p, output=True)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("package", help="make proofs self-contained")
    common(p, output=True)
    p.set_defaults(func=cmd_package)

    p = sub.add_parser("stats", help="print proof size metrics")
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("fmt", help="parse and reprint")
    common(p, output=True)
    p.set_defaults(func=cmd_fmt)

    return ap


def main(argv=None) -> int:
    enabled = gc.isenabled()  # see the module docstring
    gc.disable()
    try:
        return _run(build_arg_parser().parse_args(argv))
    finally:
        if enabled:
            gc.enable()


def _run(args):
    if args.command in ("expand", "package", "fmt") and len(args.inputs) != 1:
        print("holcheck: exactly one input file is required here", file=sys.stderr)
        return EXIT_INVALID
    try:
        return args.func(args)
    except (SourceError, ValidityError, PatternError, StructuralError, LibraryError, OSError) as e:
        print(f"holcheck: {e}", file=sys.stderr)
        return EXIT_INVALID
    except BudgetError as e:
        print(f"holcheck: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except RecursionError:
        print(
            "holcheck: input nested too deeply: Python recursion limit reached",
            file=sys.stderr,
        )
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
