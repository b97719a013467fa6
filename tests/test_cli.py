"""CLI commands, exit codes, and the rewrite pipelines."""

import pytest

from conftest import CORPUS, THEOREM_FILES

from holcheck.cli import main
from negatives import CASES


def run(*args):
    return main(list(args))


@pytest.mark.parametrize("name", THEOREM_FILES)
def test_check_succeeds_on_theorem_corpus(name, capsys):
    assert run("check", str(CORPUS / name)) == 0
    out = capsys.readouterr().out
    assert "success" in out


def test_check_with_libraries(capsys):
    assert (
        run(
            "check",
            "--lib",
            str(CORPUS / "lib_full.hol"),
            str(CORPUS / "assoc_via_lib.hol"),
            str(CORPUS / "symm_via_lib.hol"),
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.count("success") == 2


def test_repeatable_lib_flag_with_cross_references(tmp_path, capsys):
    extra = tmp_path / "uses_symm.hol"
    extra.write_text(
        "type flip pf -> pf.\n"
        "def_lemma flip\n"
        "  (Flip\\ pi T\\ pi A\\ pi B\\ pi P\\\n"
        "    proves (Flip P) (eq T A B) <<==\n"
        "      (hastype A T, hastype B T, proves P (eq T B A)))\n"
        "  (P\\ elam T\\ elam A\\ elam B\\\n"
        "    (extract (eq T A B) (symm P))).\n"
    )
    use = tmp_path / "use.hol"
    use.write_text(
        "proves (forall_i I\\ (forall_i J\\ (imp_i Q\\ (flip Q))))\n"
        "  (forall intty I\\ forall intty J\\ (eq intty I J imp eq intty J I)).\n"
    )
    code = run(
        "check",
        "--lib",
        str(CORPUS / "lib_basic.hol"),
        "--lib",
        str(extra),
        str(use),
    )
    assert code == 0


@pytest.mark.parametrize("name,text,libs,expected", CASES)
def test_negative_suite(name, text, libs, expected, tmp_path, capsys):
    f = tmp_path / "case.hol"
    f.write_text(text)
    args = ["check"]
    for lib in libs:
        args += ["--lib", str(CORPUS / lib)]
    args.append(str(f))
    code = run(*args)
    assert code == expected, f"{name}: expected exit {expected}, got {code}"


def test_budget_flag_gives_resource_exit(capsys):
    assert run("check", "--budget", "40", str(CORPUS / "symm_trans.hol")) == 3
    out = capsys.readouterr().out
    assert "budget" in out


def test_expand_then_check_pipeline(tmp_path, capsys):
    out = tmp_path / "expanded.hol"
    assert run("expand", str(CORPUS / "symm_trans.hol"), "-o", str(out)) == 0
    assert run("check", str(out)) == 0
    run("stats", str(out))
    stats_line = capsys.readouterr().out.splitlines()[-1]
    assert "lemmas=0" in stats_line


def test_package_then_check_without_libraries(tmp_path):
    out = tmp_path / "packaged.hol"
    assert (
        run(
            "package",
            str(CORPUS / "assoc_via_lib.hol"),
            "--lib",
            str(CORPUS / "lib_full.hol"),
            "-o",
            str(out),
        )
        == 0
    )
    assert run("check", str(out)) == 0


def test_fmt_round_trip_preserves_verdict(tmp_path):
    out = tmp_path / "fmt.hol"
    assert run("fmt", str(CORPUS / "assoc_def.hol"), "-o", str(out)) == 0
    assert run("check", str(out)) == 0


def test_stats_reports_lemma_and_def_counts(capsys):
    assert run("stats", str(CORPUS / "assoc_def.hol")) == 0
    out = capsys.readouterr().out
    assert "lemmas=5" in out and "defs=1" in out


def test_quiet_mode_suppresses_statement_lines(capsys):
    assert run("check", "--trace", "quiet", str(CORPUS / "symm_basic.hol")) == 0
    assert capsys.readouterr().out == ""


def test_trace_mode_prints_goal_stack_on_failure(tmp_path, capsys):
    f = tmp_path / "bad.hol"
    f.write_text(
        "pi c\\ pi d\\ (hastype c intty ==>> (hastype d intty ==>>\n"
        "  proves refl (eq intty c d))).\n"
    )
    assert run("check", "--trace", "trace", str(f)) == 1
    err = capsys.readouterr().err
    assert "proves refl" in err


FAILING_CASES = [c for c in CASES if c[3] == 1]


@pytest.mark.parametrize(
    "name,text,libs,expected", FAILING_CASES, ids=[c[0] for c in FAILING_CASES]
)
def test_failure_stack_does_not_depend_on_earlier_files(
    name, text, libs, expected, tmp_path, capsys
):
    # a matching variable is printed by its birth in the file's own session
    f = tmp_path / "case.hol"
    f.write_text(text)
    lib_args = [a for lib in libs for a in ("--lib", str(CORPUS / lib))]
    assert run("check", "--trace", "trace", *lib_args, str(f)) == expected
    alone = capsys.readouterr().err
    run("check", "--trace", "trace", *lib_args, str(CORPUS / "symm_basic.hol"), str(f))
    assert capsys.readouterr().err == alone


def test_missing_input_file_reports_cleanly(capsys):
    assert run("check", "/nonexistent/nowhere.hol") == 2
    assert "holcheck:" in capsys.readouterr().err


@pytest.mark.parametrize("as_lib", [False, True], ids=["input", "lib"])
def test_non_utf8_file_reports_cleanly(as_lib, tmp_path, capsys):
    bad = tmp_path / "bad.hol"
    bad.write_bytes(b"\xff\xfe")
    args = ["--lib", str(bad), str(CORPUS / "symm_basic.hol")] if as_lib else [str(bad)]
    assert run("check", *args) == 2
    err = capsys.readouterr().err
    assert err == f"holcheck: {bad}: not UTF-8 text (invalid start byte)\n"


def test_rewrite_commands_demand_single_input(capsys):
    code = run(
        "fmt", str(CORPUS / "symm_basic.hol"), str(CORPUS / "symm_lemma.hol"),
        "-o", "/tmp/ignored.hol",
    )
    assert code == 2


def test_library_failure_exits_like_its_cause(tmp_path, capsys):
    bad_lib = tmp_path / "bad_lib.hol"
    bad_lib.write_text(
        "type symm pf -> pf.\n"
        "def_lemma symm\n"
        "  (Symm\\ pi T\\ pi A\\ pi B\\ pi P\\\n"
        "    proves (Symm P) (eq T A B) <<==\n"
        "      (hastype A T, hastype B T, proves P (eq T B A)))\n"
        "  (P\\ elam T\\ elam A\\ elam B\\ (extract (eq T A B) refl)).\n"
    )
    code = run("check", "--lib", str(bad_lib), str(CORPUS / "symm_via_lib.hol"))
    assert code == 2  # the library is unusable: reported as invalid input


def test_stats_expand_and_fmt_read_only_library_declarations(
    tmp_path, capsys, monkeypatch
):
    # these commands need only the signature: no library entry is checked,
    # so a budget too small for the library does not stop them
    from holcheck.kernel import Session

    checked = []
    check_goal = Session.check_goal

    def counted(self, *args, **kwargs):
        checked.append(args)
        return check_goal(self, *args, **kwargs)

    monkeypatch.setattr(Session, "check_goal", counted)
    lib = ["--lib", str(CORPUS / "lib_full.hol"), "--budget", "10"]
    path = str(CORPUS / "symm_via_lib.hol")
    assert run("stats", *lib, path) == 0
    assert capsys.readouterr().out == (
        f"{path}:2: nodes=12 tree_nodes=12 lemmas=0 defs=0 depth=8\n"
    )
    for command in ("expand", "fmt"):
        assert run(command, *lib, path, "-o", str(tmp_path / f"{command}.hol")) == 0
    assert checked == []
    # the library itself is checked where it is used
    assert run("check", *lib, path) == 3


def test_multiple_files_process_in_order(capsys):
    assert (
        run("check", str(CORPUS / "symm_basic.hol"), str(CORPUS / "symm_lemma.hol"))
        == 0
    )
    out = capsys.readouterr().out.splitlines()
    assert "symm_basic" in out[0] and "symm_lemma" in out[1]


def test_fmt_round_trips_library_files(tmp_path):
    out = tmp_path / "lib_fmt.hol"
    assert run("fmt", str(CORPUS / "lib_full.hol"), "-o", str(out)) == 0
    assert (
        run("check", "--lib", str(out), str(CORPUS / "assoc_via_lib.hol"))
        == 0
    )


def test_exit_code_precedence_structural_beats_failure(tmp_path, capsys):
    from negatives import ASSUMPTION_AROUND_TYPING

    f = tmp_path / "mixed.hol"
    f.write_text(
        "pi c\\ pi d\\ (hastype c intty ==>> (hastype d intty ==>>\n"
        "  proves refl (eq intty c d))).\n"  # plain failure ...
        + ASSUMPTION_AROUND_TYPING  # ... then a validity error: 2 wins
    )
    assert run("check", str(f)) == 2
    out = capsys.readouterr().out
    assert "failure" in out and "validity" in out


def test_exit_code_precedence_resource_beats_failure(tmp_path, capsys):
    f = tmp_path / "mixed2.hol"
    f.write_text(
        "pi c\\ pi d\\ (hastype c intty ==>> (hastype d intty ==>>\n"
        "  proves refl (eq intty c d))).\n"
        + (CORPUS / "symm_trans.hol").read_text()
    )
    assert run("check", "--budget", "120", str(f)) == 3


CHURCH_TWO = "(f\\ x\\ f (f x))"
DEEP_INPUTS = {
    # 2 applied to itself four deep normalizes to 65536 nested applications
    "church numeral tower": f"(({CHURCH_TWO} {CHURCH_TWO} {CHURCH_TWO} {CHURCH_TWO}) s z)",
    "3000 nested applications": "(s " * 3000 + "z" + ")" * 3000,
}


@pytest.mark.parametrize("term", DEEP_INPUTS.values(), ids=DEEP_INPUTS.keys())
def test_recursion_limit_is_a_resource_exit(term, tmp_path, capsys):
    f = tmp_path / "deep.hol"
    f.write_text(f"type s tm -> tm.\ntype z tm.\nproves refl (eq intty {term} z).\n")
    assert run("check", str(f)) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("holcheck: ")
    assert "recursion" in err[0]


def test_thirty_link_chain_checks(tmp_path, capsys):
    """A 30-link transitivity chain fits in the default recursion limit.

    With one interpreter frame per clause binder and a normalization of
    every atom, 30 links exhausted it (exit 3); with this link mix the
    first failing length is now 47."""
    import random

    from chain import chain_statement

    n = 30
    rng = random.Random(n)
    backwards = [k < n // 2 for k in range(n)]
    rng.shuffle(backwards)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    f = tmp_path / "chain.hol"
    f.write_text(chain_statement(n, backwards, order))
    assert run("check", str(f)) == 0
    assert "success" in capsys.readouterr().out
