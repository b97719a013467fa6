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

import gc
import sys
from types import SimpleNamespace

from .errors import (
    BudgetError,
    LibraryError,
    PatternError,
    SourceError,
    StructuralError,
    ValidityError,
)
from .kernel import DEFAULT_BUDGET, Session
from .library import install_entry, load_library, package, register
from .signature import builtin_signature
from .syntax import (
    DefDefinition,
    DefLemma,
    Solve,
    format_goal,
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


def report_message(report, sig):
    """A report's message as the CLI prints it: the kernel returns the
    clause or goal a validity error names as a term, printed here over `sig`."""
    if report.goal is None:
        return report.message
    return f"{report.message}: {format_goal(report.goal, sig)}"


class TracingSession(Session):
    """A session that keeps, for `--trace trace`, the atoms of each check's
    deepest failing branch in `deepest`, outermost first, the later of two
    as deep.  Its `_dispatch` records an atom's solutions at no step, so a
    check gives the report and counter of a `Session`, and at a frame per
    atom, which the core does not spend.  An atom is on `stack` while it is
    searched, off it while a solution is out: a stack is a failing goal and
    its ancestors.  A check solves its goal at step 0 and every other goal
    after a step, so `solve` at step 0 starts a record (overriding `check_goal` costs a frame)."""

    def solve(self, g, vs=()):
        if self.steps == 0:
            self.stack, self.deepest = [], ()
        return super().solve(g, vs)

    def _dispatch(self, atom):
        stack = self.stack
        stack.append(atom)
        on, produced = True, False  # `on`: whether `atom` is on the stack
        try:
            for _ in super()._dispatch(atom):
                stack.pop()
                on, produced = False, True
                yield
                stack.append(atom)
                on = True
            if not produced and len(stack) >= len(self.deepest):
                self.deepest = tuple(stack)
        finally:
            if on:
                stack.pop()


class Environment:
    """Signature + session + registry with the libraries loaded and checked."""

    def __init__(self, lib_paths, budget, trace):
        self.sig = builtin_signature()
        self.session = (TracingSession if trace == "trace" else Session)(budget=budget)
        self.registry = {}
        self.trace = trace
        self.codes = []
        for path in lib_paths:  # each against the signature the one before ends with
            src = parse_source(_read(path), self.sig, path)
            self.sig = src.sig
            for name, report in load_library(src, self.registry, self.session):
                if not report.ok:
                    message = (
                        f"{path}: library entry '{name}' failed: "
                        f"{report_message(report, self.sig) or 'proof check failed'}"
                    )
                    if report.error == "budget":
                        raise BudgetError(report.stats.steps)
                    raise LibraryError(message)

    def fork(self, sig):
        """A copy of this environment's state for one input file, whose
        parse against `self.sig` ended with signature `sig`.

        The copy gets its own registry and clause store, each holding what
        this environment holds, and an empty trail; nothing the copy
        installs or pushes reaches this environment.
        """
        env = object.__new__(type(self))
        env.sig = sig
        env.session = type(self.session)(budget=self.session.budget)
        env.session.store = list(self.session.store)
        env.session.counter = self.session.counter
        env.registry = dict(self.registry)
        env.trace = self.trace
        env.codes = []
        return env

    def emit(self, line):
        if self.trace != "quiet":
            print(line)

    def run_statement(self, st, path):
        """Check a goal or install an entry; a declaration was applied by
        the parse that read it."""
        loc = f"{path}:{st.pos[0]}"
        if isinstance(st, (DefLemma, DefDefinition)):
            self._install(st, loc)
        elif isinstance(st, Solve):
            report = self.session.check_goal(st.goal, augment=True)
            self._report(report, loc, "goal")

    def _install(self, entry, loc):
        register(entry, self.registry)
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
        message = report_message(report, self.sig)
        msg = f": {message}" if message else ""
        self.emit(f"{loc}: {what}: {kind}{msg} (steps={s.steps})")
        if report.failed and self.trace == "trace":
            for g in self.session.deepest:  # terms, printed only here
                print(f"  | {format_goal(g, self.sig)}", file=sys.stderr)
        self.codes.append(_ERROR_EXIT[report.error])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_check(args):
    library = Environment(args.lib, args.budget, args.trace)
    codes = []
    for path in args.inputs:
        src = parse_source(_read(path), library.sig, path)
        env = library.fork(src.sig)
        for st in src.statements:
            env.run_statement(st, path)
        codes.extend(env.codes)
    return _combine(codes)


def _library_signature(lib_paths):
    """The signature with the declarations of the libraries, unchecked."""
    sig = builtin_signature()
    for path in lib_paths:
        sig = parse_source(_read(path), sig, path).sig
    return sig


def _rewrite_command(args, sig, rewrite, keep_definitions):
    (path,) = args.inputs
    src = parse_source(_read(path), sig, path)
    out_statements = []
    for st in src.statements:
        if isinstance(st, (DefLemma, DefDefinition)) and not keep_definitions:
            raise LibraryError(
                "input for this command may not define lemmas; load them via --lib"
            )
        if isinstance(st, Solve):
            st = Solve(rewrite(st.goal), st.pos)
        out_statements.append(st)
    text = "\n".join(format_statement(st, src.sig) for st in out_statements) + "\n"
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
    sig = _library_signature(args.lib)
    for path in args.inputs:
        for st in parse_source(_read(path), sig, path).statements:
            if isinstance(st, Solve):
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


# Each command's function, and whether it writes one output file (`-o`).
_COMMANDS = {
    "check": (cmd_check, False),
    "expand": (cmd_expand, True),
    "package": (cmd_package, True),
    "stats": (cmd_stats, False),
    "fmt": (cmd_fmt, True),
}
_OPTIONS = {"--lib": "lib", "--budget": "budget", "--trace": "trace", "--output": "output"}
_TRACE_LEVELS = ("quiet", "summary", "trace")

_USAGE = "usage: holcheck COMMAND [--lib FILE]... [--budget N] [--trace LEVEL] [-o FILE] FILE...\n"
_HELP = f"""{_USAGE}
Proof checker for a higher-order natural-deduction object logic.

commands:
  check                   check every statement
  expand                  inline all lemma uses in the proofs
  package                 make proofs self-contained
  stats                   print proof size metrics
  fmt                     parse and reprint

options, in any order with the FILEs (--opt=VALUE also works; -- ends them):
  -h, --help              show this help message and exit
  --lib FILE              library file; repeatable, later files may use earlier ones
  --budget N              steps per statement, a positive integer (default {DEFAULT_BUDGET})
  --trace LEVEL           quiet, summary (default), or trace: adds the failing goal stack
  -o FILE, --output FILE  the output file, which expand, package and fmt require
"""


def _misuse(command, message):
    sys.stderr.write(f"{_USAGE}holcheck{' ' + command if command else ''}: error: {message}\n")
    raise SystemExit(2)


def parse_args(argv):
    """`argv`, without the program name, as a namespace of `command`, `func`,
    `inputs`, `lib`, `budget`, `trace` and `output`.  `-h` or `--help` exits 0,
    a usage error exits 2.  An option's value is the next argument before `--`."""
    argv = list(argv)
    end = argv.index("--") if "--" in argv else len(argv)
    if "-h" in argv[:end] or "--help" in argv[:end]:
        print(_HELP, end="")
        raise SystemExit(0)
    if not argv:
        _misuse(None, "the following arguments are required: command")
    if argv[0] not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _misuse(None, f"argument command: invalid choice: {argv[0]!r} (choose from {choices})")
    command, rest = argv[0], iter(argv[1:end])
    func, writes = _COMMANDS[command]
    args = SimpleNamespace(command=command, func=func, inputs=[], lib=[],
                           budget=DEFAULT_BUDGET, trace="summary", output=None)
    for arg in rest:
        if arg == "-" or not arg.startswith("-"):
            args.inputs.append(arg)
            continue
        name, eq, value = arg.partition("=") if arg.startswith("--") else (arg, "", None)
        field = _OPTIONS.get("--output" if name == "-o" else name)
        if field is None or (field == "output" and not writes):
            _misuse(command, f"unrecognized arguments: {arg}")
        if not eq:
            value = next(rest, None)
            if value is None:
                _misuse(command, f"argument {name}: expected one argument")
        if field == "budget":
            try:
                budget = int(value)
            except ValueError:
                budget = 0
            if budget <= 0:
                _misuse(command, f"argument {name}: expected a positive integer, got {value!r}")
            value = budget
        elif field == "trace" and value not in _TRACE_LEVELS:
            choices = ", ".join(map(repr, _TRACE_LEVELS))
            _misuse(command, f"argument {name}: invalid choice: {value!r} (choose from {choices})")
        if field == "lib":
            args.lib.append(value)
        else:
            setattr(args, field, value)
    args.inputs += argv[end + 1:]
    if not args.inputs:
        _misuse(command, "the following arguments are required: inputs")
    if writes and args.output is None:
        _misuse(command, "the following arguments are required: -o/--output")
    return args


def main(argv=None) -> int:
    enabled = gc.isenabled()  # see the module docstring
    gc.disable()
    try:
        return _run(parse_args(sys.argv[1:] if argv is None else argv))
    finally:
        if enabled:
            gc.enable()


def _run(args):
    if _COMMANDS[args.command][1] and len(args.inputs) != 1:  # a command that writes
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
