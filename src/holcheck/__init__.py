"""holcheck: a proof checker for a higher-order natural-deduction object logic.

The trusted core is four modules, `holcheck.kernel`, `terms`, `signature`
and `errors`, which import only each other and the standard library;
everything else (parser, printer, inference, library, transformations,
CLI) sits outside it and is validated by re-checking.
"""

from .errors import (
    BudgetError,
    HolError,
    LibraryError,
    MetaTypeError,
    PatternError,
    SourceError,
    StructuralError,
    ValidityError,
)
from .infer import elaborate_goal, elaborate_term
from .kernel import (
    CheckReport,
    Session,
    Stats,
    augment_goal,
    def_to_eqclause,
    valid_clause,
)
from .library import install_entry, load_library, package
from .signature import Signature, builtin_signature
from .syntax import (
    format_goal,
    format_statement,
    format_term,
    parse_goal,
    parse_source,
    parse_term,
)
from .terms import alpha_beta_eq, normalize, normalize_goal, subst
from .transform import ProofStats, expand_lemmas, proof_stats

__version__ = "0.1.0"
