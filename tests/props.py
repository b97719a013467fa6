"""Shared generators and property runners for the randomized suites.

Everything is seeded and deterministic; the acceptance module runs each
property at >= 1000 cases.
"""

import random
import re

from holcheck.errors import SourceError
from holcheck.kernel import Session, _Escape, def_to_eqclause
from holcheck.signature import builtin_signature
from holcheck.syntax import Token, format_term, parse_term
from holcheck.terms import (
    AND,
    HASTYPE,
    IMP,
    META_FREE,
    PROVES,
    App,
    Arrow,
    Bound,
    Const,
    Lam,
    Meta,
    MetaCell,
    PF,
    TM,
    TP,
    _eta_index,
    alpha_beta_eq,
    arg_types,
    deref,
    meta_type_of,
    normalize,
    app,
    goal_spine,
    map_children,
    pi,
    plain_spine,
    result_base,
    shift,
    subst,
)

SIG = builtin_signature()

# monomorphic constants usable by the generator, keyed by result base
_HEAD_POOL = {}
for _n, _sch in SIG.consts.items():
    if _sch.poly or _n in ("proves", "hastype", "assump", "extractGoal"):
        continue
    _HEAD_POOL.setdefault(result_base(_sch.body), []).append((_n, _sch.body))


_REF_SYMBOLS = ("==>>", "<<==", "->", "=>", ":-", "(", ")", ".", ",", "\\")
_REF_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_REF_INT = re.compile(r"[0-9]+")


def ref_tokenize(text, path=None):
    """Reference lexer: reads `text` one character at a time, trying an
    identifier, a number, then each symbol in turn."""
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        m = _REF_IDENT.match(text, i)
        if m:
            toks.append(Token("ident", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = _REF_INT.match(text, i)
        if m:
            toks.append(Token("int", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        for s in _REF_SYMBOLS:
            if text.startswith(s, i):
                toks.append(Token("sym", s, line, col))
                col += len(s)
                i += len(s)
                break
        else:
            raise SourceError(f"unexpected character {c!r}", line, col, path)
    toks.append(Token("eof", "", line, col))
    return toks


# Reference walks: the term walks without `Term.free`, visiting every node.
# Like the walks they stand for, each returns an unchanged subtree as the
# same object.


def ref_free(t, d=0):
    """`Term.free` from its definition: META_FREE if `t` holds a matching
    variable, else one more than its greatest index loose outside `d`
    binders, 0 if it has none."""
    if isinstance(t, Meta):
        return META_FREE
    if isinstance(t, Bound):
        return max(t.index - d + 1, 0)
    if isinstance(t, App):
        return max(ref_free(t.fn, d), ref_free(t.arg, d))
    if isinstance(t, Lam):
        return ref_free(t.body, d + 1)
    return 0


def ref_shift(t, by, cutoff=0):
    """`terms.shift`."""
    if by == 0:
        return t
    if isinstance(t, Bound):
        return Bound(t.index + by) if t.index >= cutoff else t
    return map_children(t, lambda u, c, _: ref_shift(u, by, c), cutoff, None)


def ref_subst(t, d, vs):
    """Plain substitution, `terms._hsubst`'s index case: replace the
    len(vs) binders outside `d` by `vs`, vs[-1] the innermost."""
    if isinstance(t, Bound):
        i = t.index - d
        if i < 0:
            return t
        if i < len(vs):
            return ref_shift(vs[-1 - i], d)
        return Bound(t.index - len(vs))
    return map_children(t, ref_subst, d, vs)


def ref_hsubst(t, d, vs):
    """`terms._hsubst`, reductions included."""
    if isinstance(t, App):
        h, args = plain_spine(t)
        new = [ref_hsubst(a, d, vs) for a in args]
        fn = ref_hsubst(h, d, vs)
        if fn is h and all(a is b for a, b in zip(new, args)):
            return t
        while new and isinstance(fn, Lam):
            n = 0
            while n < len(new) and isinstance(fn, Lam):
                fn, n = fn.body, n + 1
            fn, new = ref_hsubst(fn, 0, tuple(new[:n])), new[n:]
        return app(fn, *new)
    if isinstance(t, Bound):
        if not vs:
            return t
        t = ref_subst(t, d, vs)
        if not isinstance(t, Meta):
            return t
    if isinstance(t, Meta):
        return t if t.cell.value is None else t.cell.value
    if isinstance(t, Lam):
        i = _eta_index(t) - d if vs else -1
        if 0 <= i < len(vs) and isinstance(vs[-1 - i], Lam):
            return ref_shift(vs[-1 - i], d)
        body = ref_hsubst(t.body, d + 1, vs)
        return t if body is t.body else Lam(t.mt, body, t.hint)
    return t


def ref_abstract(t, d, keys):
    """`kernel._abstract`, with the keys alone."""
    t = deref(t)
    if isinstance(t, Meta):
        raise _Escape
    if isinstance(t, Bound) and t.index >= d:
        k = ("b", t.index - d)
    elif isinstance(t, Const) and t.birth > 0:
        k = ("c", t.birth)
    else:
        return map_children(t, ref_abstract, d, keys)
    if k in keys:
        return Bound(d + (len(keys) - 1 - keys.index(k)))
    if isinstance(t, Bound):
        raise _Escape
    return t


def gen_term(rng, mt, env=(), fuel=3):
    """A closed (under env), well-annotated term of meta-type mt."""
    if isinstance(mt, Arrow):
        return Lam(mt.dom, gen_term(rng, mt.cod, (mt.dom,) + tuple(env), fuel))
    heads = [(Bound(i), t) for i, t in enumerate(env) if result_base(t) == mt]
    heads += [(Const(n, t), t) for n, t in _HEAD_POOL.get(mt, ())]
    if fuel <= 0:
        leaves = [(h, t) for h, t in heads if t == mt]
        if leaves:
            h, _ = rng.choice(leaves)
            return h
        fuel = 1  # no leaf of this base type in scope; allow one application
    h, t = rng.choice(heads)
    out = h
    for dom in arg_types(t):
        out = App(out, gen_term(rng, dom, env, fuel - 1))
    return out


def gen_goal(rng, env=(), fuel=2):
    kind = rng.randrange(6)
    if kind == 0 and fuel > 0:
        mt = rng.choice((TP, TM, PF))
        return pi(mt, gen_goal(rng, (mt,) + tuple(env), fuel - 1))
    if kind == 1 and fuel > 0:
        return app(AND, gen_goal(rng, env, fuel - 1), gen_goal(rng, env, fuel - 1))
    if kind == 2 and fuel > 0:
        return app(IMP, gen_goal(rng, env, fuel - 1), gen_goal(rng, env, fuel - 1))
    if rng.randrange(2):
        return app(PROVES, gen_term(rng, PF, env, 2), gen_term(rng, TM, env, 2))
    return app(HASTYPE, gen_term(rng, TM, env, 2), gen_term(rng, TP, env, 2))


def subterm_positions(t, env=(), depth=0):
    """(node id, meta-type) of replaceable subterms: closed w.r.t. local
    binders and not in function position (a bare matching variable may not
    end up applied to arbitrary arguments)."""
    out = []

    def free_below(t, d):
        if isinstance(t, Bound):
            return t.index < d
        if isinstance(t, App):
            return free_below(t.fn, d) or free_below(t.arg, d)
        if isinstance(t, Lam):
            return free_below(t.body, d + 1)
        return False

    def walk(t, env, d, applied):
        if not applied and isinstance(t, (Const, App)) and not free_below(t, d):
            out.append((id(t), meta_type_of(t, env)))
        if isinstance(t, App):
            walk(t.fn, env, d, True)
            walk(t.arg, env, d, False)
        elif isinstance(t, Lam):
            walk(t.body, (t.mt,) + tuple(env), d + 1, False)

    walk(t, env, depth, False)
    return out


def ref_normalize(t, mt, env=()):
    """Reference normalizer of `t` at meta-type `mt`: contract each head
    redex by plain substitution of its unnormalized argument, then
    normalize what is left, rebuilding every node."""
    args = []
    while True:
        t = deref(t)
        if isinstance(t, App):
            args.append(t.arg)
            t = t.fn
        elif isinstance(t, Lam) and args:
            t = ref_subst(t.body, 0, (args.pop(),))
        else:
            break
    args.reverse()
    if isinstance(mt, Arrow):
        if args or not isinstance(t, Lam):
            t = Lam(mt.dom, App(shift(app(t, *args), 1), Bound(0)))
        return Lam(mt.dom, ref_normalize(t.body, mt.cod, (mt.dom,) + tuple(env)), t.hint)
    hmt = meta_type_of(t, env)
    for a in args:
        t = App(t, ref_normalize(a, hmt.dom, env))
        hmt = hmt.cod
    return t


def replace_nodes(t, table):
    if id(t) in table:
        return table[id(t)]
    if isinstance(t, App):
        return App(replace_nodes(t.fn, table), replace_nodes(t.arg, table))
    if isinstance(t, Lam):
        return Lam(t.mt, replace_nodes(t.body, table), t.hint)
    return t


# ---------------------------------------------------------------------------
# Property runners; each returns the number of cases exercised
# ---------------------------------------------------------------------------


def run_normalize_idempotent(n, seed=11):
    rng = random.Random(seed)
    for i in range(n):
        mt = rng.choice((TM, PF, TP, Arrow(TM, TM), Arrow(TM, Arrow(TM, PF))))
        t = gen_term(rng, mt, (), fuel=3)
        nt = normalize(t)
        assert normalize(nt) == nt, f"case {i}: normalization not idempotent"
    return n


def run_subst_vs_beta(n, seed=12):
    rng = random.Random(seed)
    for i in range(n):
        dom = rng.choice((TM, TP, PF, Arrow(TM, TM)))
        cod = rng.choice((TM, PF))
        lam = gen_term(rng, Arrow(dom, cod), (), fuel=3)
        arg = gen_term(rng, dom, (), fuel=2)
        a = normalize(App(lam, arg))
        b = normalize(subst(lam.body, arg))
        assert a == b, f"case {i}: beta step disagrees with substitution"
    return n


def run_parse_print_roundtrip(n, seed=13):
    # the concrete syntax carries no binder annotations, so reparsing gets
    # the same ambient meta-type the original position supplied
    rng = random.Random(seed)
    for i in range(n):
        mt = rng.choice((TM, PF, Arrow(TM, TM), Arrow(PF, Arrow(TM, TM))))
        t = gen_term(rng, mt, (), fuel=3)
        text = format_term(t, SIG)
        t2 = parse_term(text, SIG, expect=mt)
        assert alpha_beta_eq(t, t2), f"case {i}: round-trip broke {text!r}"
    return n


def run_match_soundness(n, seed=14):
    rng = random.Random(seed)
    cases = 0
    while cases < n:
        t = gen_term(rng, rng.choice((TM, PF)), (), fuel=3)
        t = normalize(t)
        spots = subterm_positions(t)
        if not spots:
            continue
        picked = rng.sample(spots, k=min(len(spots), rng.randrange(1, 3)))
        table = {nid: Meta(MetaCell(mt, birth=0)) for nid, mt in picked}
        pattern = replace_nodes(t, table)
        ses = Session(SIG)
        assert ses.match(normalize(pattern), t), f"case {cases}: match failed"
        assert alpha_beta_eq(pattern, t), (
            f"case {cases}: matcher does not reproduce the target"
        )
        cases += 1
    return cases


def run_eqclause_arity(n, seed=15):
    rng = random.Random(seed)
    doms_pool = (TM, TP, Arrow(TM, TM), Arrow(TM, Arrow(TM, TM)))
    for i in range(n):
        k = rng.randrange(0, 6)
        mt = TM
        for _ in range(k):
            mt = Arrow(rng.choice(doms_pool), mt)
        name = Const("d0", mt)
        body = gen_term(rng, mt, (), fuel=2)
        clause = def_to_eqclause(Const("form", TP), name, body)
        binders = 0
        name, args = goal_spine(clause)
        while name == "pi":
            binders += 1
            name, args = goal_spine(args[0].body)
        # independent oracle: count the arrows of the shared meta-type
        oracle = 0
        m = mt
        while isinstance(m, Arrow):
            oracle += 1
            m = m.cod
        assert binders == oracle, f"case {i}: binder count mismatch"
        assert name == "proves"
    return n
