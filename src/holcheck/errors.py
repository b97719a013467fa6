"""Exception hierarchy shared by all holcheck modules.

Checking *failure* is not an exception: the kernel reports it through a
CheckReport verdict.  Exceptions are reserved for malformed input and for
resource exhaustion, and the CLI maps them onto exit codes.
"""


class HolError(Exception):
    """Base class for all holcheck errors."""


class SourceError(HolError):
    """Lexical or syntactic problem, with a source position."""

    def __init__(self, message, line=None, col=None, path=None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col
        self.path = path

    def __str__(self):
        loc = ""
        if self.path is not None:
            loc += f"{self.path}:"
        if self.line is not None:
            loc += f"{self.line}:"
            if self.col is not None:
                loc += f"{self.col}:"
        return f"{loc} {self.message}" if loc else self.message


class MetaTypeError(SourceError):
    """Ill-typed or un-inferable term or goal."""


class ValidityError(HolError):
    """A clause embedded in a proof falls outside the allowed grammar."""


class PatternError(HolError):
    """A matching problem is outside the solvable pattern fragment."""


class StructuralError(HolError):
    """An operation was applied to a term of the wrong shape."""


class LibraryError(HolError):
    """Registry problem: duplicate name, forward reference, unknown name."""


class BudgetError(HolError):
    """The per-statement step budget was exhausted (resource, not failure)."""

    def __init__(self, steps):
        super().__init__(f"step budget exhausted after {steps} steps")
        self.steps = steps


class FrozenInstanceError(AttributeError):
    """A field of an immutable term or meta-type was assigned or deleted."""
