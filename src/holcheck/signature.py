"""Constant signature: meta-type schemes, fixity table, builtin constants."""

from __future__ import annotations

from collections import namedtuple

from .errors import SourceError
from .terms import Arrow, MetaType, O, PF, SVar, TM, TP, arg_types, arrow, result_base

A = SVar("A")


class Scheme(namedtuple("Scheme", "body poly predicate")):
    """Meta-type of a constant; `poly` schemes quantify over the parameter A.
    `predicate` is set when it is built: monomorphic with result o."""

    __slots__ = ()

    def __new__(cls, body, poly=False):
        return super().__new__(cls, body, poly, not poly and result_base(body) == O)

    __getnewargs__ = lambda sch: sch[:2]  # what `copy` and `pickle` build it from


# The trusted constant set.  User declarations may extend it but never
# shadow it.
BUILTIN_CONSTS = {
    # object-level type constructors
    "form": Scheme(TP),
    "intty": Scheme(TP),
    "arrow": Scheme(arrow(TP, TP, TP)),
    "pair": Scheme(arrow(TP, TP, TP)),
    # object-level terms and formulas
    "eq": Scheme(arrow(TP, TM, TM, TM)),
    "imp": Scheme(arrow(TM, TM, TM)),
    "forall": Scheme(arrow(TP, Arrow(TM, TM), TM)),
    "false": Scheme(TM),
    "lam": Scheme(arrow(Arrow(TM, TM), TM)),
    "app": Scheme(arrow(TP, TM, TM, TM)),
    "mkpair": Scheme(arrow(TM, TM, TM)),
    "fst": Scheme(arrow(TP, TM, TM)),
    "snd": Scheme(arrow(TP, TM, TM)),
    # predicates
    "proves": Scheme(arrow(PF, TM, O)),
    "hastype": Scheme(arrow(TM, TP, O)),
    "assump": Scheme(arrow(O, O)),
    # proof constructors of the core rules
    "refl": Scheme(PF),
    "beta": Scheme(PF),
    "fstpair": Scheme(PF),
    "sndpair": Scheme(PF),
    "surjpair": Scheme(PF),
    "congr": Scheme(arrow(TP, TM, TM, Arrow(TM, TM), PF, PF, PF)),
    "imp_i": Scheme(arrow(Arrow(PF, PF), PF)),
    "imp_e": Scheme(arrow(TM, PF, PF, PF)),
    "forall_i": Scheme(arrow(Arrow(TM, PF), PF)),
    "forall_e": Scheme(arrow(TP, Arrow(TM, TM), PF, TM, PF)),
    # in-proof lemma and definition machinery
    "lemma_pf": Scheme(arrow(Arrow(A, O), A, Arrow(A, PF), PF), poly=True),
    "def_pf": Scheme(arrow(TP, Arrow(A, O), A, Arrow(A, PF), PF), poly=True),
    "def": Scheme(PF),
    "elam": Scheme(arrow(Arrow(A, PF), PF), poly=True),
    "extract": Scheme(arrow(TM, PF, PF)),
    "extractGoal": Scheme(arrow(O, PF, PF)),
}

# The goal formers: a goal is an application of one of them or of a
# predicate.  The parser builds them from binder and infix syntax only, so
# they are not in the signature's constants, and `pi` cannot be declared.
GOAL_FORMERS = {
    "pi": Scheme(arrow(Arrow(A, O), O), poly=True),
    ",": Scheme(arrow(O, O, O)),
    "=>": Scheme(arrow(O, O, O)),  # clause first
}

# name -> (assoc, precedence); higher precedence binds tighter.  The goal
# formers' operators build `,` and `=>` goals, the others an application
# of the named constant.
BUILTIN_INFIX = {
    "arrow": ("right", 8),
    "imp": ("right", 7),
    "==>>": ("right", 4),
    "=>": ("right", 4),
    ",": ("right", 2),
    "<<==": ("left", 0),
    ":-": ("left", 0),
}

class Signature:
    """Mapping from constant names to schemes plus the infix table."""

    def __init__(self, consts=None, infixes=None):
        self.consts = dict(BUILTIN_CONSTS if consts is None else consts)
        self.infixes = dict(BUILTIN_INFIX if infixes is None else infixes)

    def copy(self) -> "Signature":
        return Signature(self.consts, self.infixes)

    def is_predicate(self, name) -> bool:
        sch = self.consts.get(name)
        return sch is not None and sch.predicate

    def declare(self, name, mt: MetaType, pos=None):
        if name in BUILTIN_CONSTS or name in GOAL_FORMERS:
            raise SourceError(f"cannot redeclare builtin constant '{name}'", *(pos or ()))
        if name in self.consts:
            raise SourceError(f"duplicate declaration of '{name}'", *(pos or ()))
        self.consts[name] = Scheme(mt)

    def declare_infix(self, name, assoc, prec, pos=None):
        if name in BUILTIN_INFIX:
            raise SourceError(f"cannot redeclare builtin fixity of '{name}'", *(pos or ()))
        if name in self.infixes:
            raise SourceError(f"duplicate fixity declaration for '{name}'", *(pos or ()))
        sch = self.consts.get(name)
        if sch is None:
            raise SourceError(f"fixity declaration for undeclared constant '{name}'", *(pos or ()))
        if len(arg_types(sch.body)) < 2:
            raise SourceError(f"'{name}' is not at least binary", *(pos or ()))
        for other, (a2, p2) in self.infixes.items():
            if p2 == prec and a2 != assoc:
                raise SourceError(
                    f"precedence {prec} already has {a2}-associative operator '{other}'",
                    *(pos or ()),
                )
        self.infixes[name] = (assoc, prec)


def builtin_signature() -> Signature:
    return Signature()
