"""Acceptance suite: one test per criterion, printing a verdict line each.

Tolerances are pinned here: per-statement wall time < 1 s and < 1,000,000
interpreter steps, whole golden corpus < 10 s, and every randomized
property runs at >= 1000 cases.
"""

import time

from conftest import CORPUS, THEOREM_FILES, atom_args, load_corpus_goal, load_full_library

import props
from negatives import CASES

from holcheck.cli import main
from holcheck.kernel import DEFAULT_BUDGET, Session, def_to_eqclause
from holcheck.library import load_library, package
from holcheck.signature import builtin_signature
from holcheck.syntax import parse_goal, parse_source, parse_term
from holcheck.terms import alpha_beta_eq, arrow, map_proves, normalize_goal, TM, TP
from holcheck.transform import expand_statement_goal, proof_stats


def report(line):
    print(line)


def proofs_with_env(goal):
    """(proof, binder env) for every positive proves atom of a goal."""
    out = []

    def collect(atom, env):
        out.append((atom_args(atom)[0], env))
        return atom

    map_proves(goal, collect)
    return out


def test_criterion_1_golden_corpus(tmp_path, capsys):
    """Theorems of the golden corpus check under the step and time limits."""
    total_start = time.monotonic()
    for name in THEOREM_FILES:
        sig = builtin_signature()
        goal = load_corpus_goal(name, sig)
        ses = Session(sig, DEFAULT_BUDGET)
        t0 = time.monotonic()
        r = ses.check_goal(goal)
        dt = time.monotonic() - t0
        assert r.ok, f"{name} failed: {r.error or 'failure'} {r.message}"
        assert r.stats.steps < 1_000_000, f"{name} used {r.stats.steps} steps"
        assert dt < 1.0, f"{name} took {dt:.2f}s"
    total = time.monotonic() - total_start
    assert total < 10.0, f"corpus took {total:.2f}s"

    # the same corpus as one file through the CLI: exit 0, one success
    # line per statement
    combined = tmp_path / "golden.hol"
    combined.write_text(
        "\n".join((CORPUS / name).read_text() for name in THEOREM_FILES)
    )
    assert main(["check", str(combined)]) == 0
    out = capsys.readouterr().out
    assert out.count("success") == len(THEOREM_FILES)
    report(f"PASS criterion 1: golden corpus checks ({total:.2f}s total)")


def test_criterion_2_library_checking():
    """The stored-library file loads and checks; reordering dependent
    lemmas fails at the dependent entry."""
    sig = builtin_signature()
    src = parse_source((CORPUS / "lib_basic.hol").read_text(), sig, "lib_basic.hol")
    sig = src.sig
    reg = {}
    results = load_library(src, reg, Session(sig))
    assert all(r.ok for _, r in results)
    names = [(name, type(e).__name__) for name, e in reg.items()]
    assert names == [("symm", "DefLemma"), ("assoc", "DefDefinition")]
    assert reg["symm"].meta_type == arrow(
        parse_term("refl", sig).mt, parse_term("refl", sig).mt
    )

    from test_library import SYMM_DECL, SYMM_DEF, TRANS_DECL, TRANS_DEF

    sig2 = builtin_signature()
    src2 = parse_source(SYMM_DECL + TRANS_DECL + TRANS_DEF + SYMM_DEF, sig2)
    sig2 = src2.sig
    reg2 = {}
    results2 = load_library(src2, reg2, Session(sig2))
    assert results2[0][0] == "trans" and not results2[0][1].ok and reg2 == {}
    report("PASS criterion 2: library checking and dependency-order failure")


def test_criterion_3_expansion_soundness():
    """Expanded proofs re-check, mention no lemma constructor, and grow
    strictly in tree size where a lemma is reused."""
    for name in THEOREM_FILES:
        goal = load_corpus_goal(name)
        expanded = expand_statement_goal(goal)
        r = Session(builtin_signature()).check_goal(expanded)
        assert r.ok, f"expanded {name} failed"
        for proof, _env in proofs_with_env(expanded):
            assert proof_stats(proof).lemma_count == 0, name
    for name in ("symm_trans.hol", "poly_lemmas.hol", "assoc_def.hol"):
        goal = load_corpus_goal(name)
        (orig,) = [p for p, _ in proofs_with_env(goal)]
        (expd,) = [p for p, _ in proofs_with_env(expand_statement_goal(goal))]
        before, after = proof_stats(orig).tree_nodes, proof_stats(expd).tree_nodes
        assert after > before, f"{name}: {before} -> {after}"
    report("PASS criterion 3: expansion soundness and strict tree growth")


def test_criterion_4_packaging_round_trip():
    """Packaged proofs check with zero libraries; packaging the stored
    symmetry lemma reproduces its in-proof display."""
    sig, ses, reg = load_full_library()

    goal = load_corpus_goal("symm_via_lib.hol", sig)
    proof, formula = atom_args(goal)
    packaged = package(formula, proof, reg)
    display = load_corpus_goal("symm_implicit.hol", builtin_signature())
    assert alpha_beta_eq(packaged, atom_args(display)[0])

    code = main(
        [
            "package",
            str(CORPUS / "assoc_via_lib.hol"),
            "--lib",
            str(CORPUS / "lib_full.hol"),
            "-o",
            "/tmp/acceptance_packaged.hol",
            "--trace",
            "quiet",
        ]
    )
    assert code == 0
    assert main(["check", "/tmp/acceptance_packaged.hol", "--trace", "quiet"]) == 0
    report("PASS criterion 4: packaging round-trip and display equivalence")


def test_criterion_5_negative_suite():
    """At least ten mutations are rejected with the right error class."""
    import tempfile, os

    assert len(CASES) >= 10
    failures = []
    for name, text, libs, expected in CASES:
        with tempfile.TemporaryDirectory() as d:
            f = os.path.join(d, "case.hol")
            with open(f, "w") as fh:
                fh.write(text)
            args = ["check", "--trace", "quiet"]
            for lib in libs:
                args += ["--lib", str(CORPUS / lib)]
            args.append(f)
            code = main(args)
            if code != expected:
                failures.append((name, expected, code))
    assert not failures, failures
    report(f"PASS criterion 5: {len(CASES)} mutations rejected with correct classes")


def test_criterion_6_property_suites():
    """Randomized properties, >= 1000 cases each."""
    n = 1000
    assert props.run_normalize_idempotent(n) == n
    assert props.run_subst_vs_beta(n) == n
    assert props.run_parse_print_roundtrip(n) == n
    assert props.run_match_soundness(n) == n
    assert props.run_eqclause_arity(n) == n
    # store discipline and binding-scope soundness are asserted inside
    # every kernel run; exercise them across the corpus once more
    for name in THEOREM_FILES:
        sig = builtin_signature()
        ses = Session(sig)
        assert ses.check_goal(load_corpus_goal(name, sig)).ok
        assert len(ses.store) == 0 and len(ses.trail) == 0
    report(f"PASS criterion 6: five property suites at {n} cases each")


def test_criterion_7_definition_mechanics():
    """The conjunction definition checks inside a definition node, and the
    associativity equality clause matches its displayed form."""
    r = Session(builtin_signature()).check_goal(load_corpus_goal("and_def.hol"))
    assert r.ok

    sig = builtin_signature()
    sig.declare("assoc", arrow(arrow(TM, TM, TM), TP, TM))
    clause = def_to_eqclause(
        parse_term("form", sig),
        parse_term("assoc", sig),
        parse_term(
            r"F\T\ (forall T X\ forall T Y\ forall T Z\ (eq T (F X (F Y Z)) (F (F X Y) Z)))",
            sig,
        ),
    )
    displayed = parse_goal(
        r"pi F\ pi T\ (proves def (eq form (assoc F T)"
        r" (forall T X\ forall T Y\ forall T Z\ (eq T (F X (F Y Z)) (F (F X Y) Z)))))",
        sig,
    )
    assert clause == normalize_goal(displayed)
    report("PASS criterion 7: definition mechanics and equality clause")
