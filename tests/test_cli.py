"""CLI commands, exit codes, and the rewrite pipelines."""

import re
import subprocess
import sys

import pytest

from conftest import CORPUS, ROOT, THEOREM_FILES

from holcheck.cli import _COMMANDS, _HELP, _combine, main
from negatives import CASES
from test_library import SYMM_DECL, SYMM_DEF


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


# a lemma proved by the library lemma symm, and a goal that uses it
FLIP_LEMMA = (
    "type flip pf -> pf.\n"
    "def_lemma flip\n"
    "  (Flip\\ pi T\\ pi A\\ pi B\\ pi P\\\n"
    "    proves (Flip P) (eq T A B) <<==\n"
    "      (hastype A T, hastype B T, proves P (eq T B A)))\n"
    "  (P\\ elam T\\ elam A\\ elam B\\\n"
    "    (extract (eq T A B) (symm P))).\n"
)
FLIP_USE = (
    "proves (forall_i I\\ (forall_i J\\ (imp_i Q\\ (flip Q))))\n"
    "  (forall intty I\\ forall intty J\\ (eq intty I J imp eq intty J I)).\n"
)


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


@pytest.mark.parametrize("budget", ["0", "-1", "-40", "abc", ""])
def test_budget_must_be_a_positive_integer(budget, capsys):
    with pytest.raises(SystemExit) as exc:
        run("check", "--budget", budget, str(CORPUS / "symm_basic.hol"))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --budget: expected a positive integer, got {budget!r}" in captured.err


def test_budget_of_one_step_is_accepted(capsys):
    assert run("check", "--budget", "1", str(CORPUS / "symm_basic.hol")) == 3
    assert "step budget exhausted after 1 steps (steps=1)" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["symm_basic.hol", "symm_trans.hol", "assoc_def.hol"])
def test_a_budget_of_n_steps_runs_n_steps(name, capsys):
    path = str(CORPUS / name)
    assert run("check", path) == 0
    steps = max(int(n) for n in re.findall(r"steps=(\d+)", capsys.readouterr().out))
    assert run("check", "--budget", str(steps), path) == 0
    capsys.readouterr()
    assert run("check", "--budget", str(steps - 1), path) == 3
    out = capsys.readouterr().out
    assert f"step budget exhausted after {steps - 1} steps (steps={steps - 1})" in out


def test_a_budget_that_runs_out_in_a_library_reports_the_budget(capsys):
    lib, via_lib = str(CORPUS / "lib_full.hol"), str(CORPUS / "symm_via_lib.hol")
    assert run("check", "--budget", "40", "--lib", lib, via_lib) == 3
    assert capsys.readouterr().err == "holcheck: step budget exhausted after 40 steps\n"


def test_successive_calls_share_no_library_budget_trace_or_output(tmp_path, capsys):
    via_lib, lib = str(CORPUS / "symm_via_lib.hol"), str(CORPUS / "lib_full.hol")
    assert run("check", "--lib", lib, "--budget", "1000", "--trace", "quiet", via_lib) == 0
    assert capsys.readouterr().out == ""
    assert run("check", via_lib) == 2  # no library now: its lemma is undeclared
    assert "undeclared constant 'symm'" in capsys.readouterr().err
    assert run("check", "--budget", "40", str(CORPUS / "symm_trans.hol")) == 3
    assert run("check", str(CORPUS / "symm_trans.hol")) == 0  # the default budget again
    assert "success" in capsys.readouterr().out
    out = tmp_path / "out.hol"
    assert run("fmt", str(CORPUS / "symm_basic.hol"), "-o", str(out)) == 0
    with pytest.raises(SystemExit) as exc:
        run("fmt", str(CORPUS / "symm_basic.hol"))  # `-o` is required each time
    assert exc.value.code == 2
    assert "the following arguments are required: -o/--output" in capsys.readouterr().err


SYMM, TRANS = str(CORPUS / "symm_basic.hol"), str(CORPUS / "symm_trans.hol")
LIB_BASIC, LIB_FULL = str(CORPUS / "lib_basic.hol"), str(CORPUS / "lib_full.hol")
VIA_LIB = str(CORPUS / "symm_via_lib.hol")
USAGE = "usage: holcheck COMMAND "

# argv -> exit code, the stream that holds `text`, and `text`; a usage
# error also starts stderr with the usage line
COMMAND_LINES = {
    "no command": (
        [],
        2,
        "err",
        "holcheck: error: the following arguments are required: command\n",
    ),
    "an unknown command": (
        ["frob", SYMM],
        2,
        "err",
        "holcheck: error: argument command: invalid choice: 'frob' "
        "(choose from 'check', 'expand', 'package', 'stats', 'fmt')\n",
    ),
    "no inputs": (
        ["check", "--trace", "quiet"],
        2,
        "err",
        "holcheck check: error: the following arguments are required: inputs\n",
    ),
    "an unknown option": (
        ["check", "--verbose", SYMM],
        2,
        "err",
        "holcheck check: error: unrecognized arguments: --verbose\n",
    ),
    "an option without its value": (
        ["check", SYMM, "--lib"],
        2,
        "err",
        "holcheck check: error: argument --lib: expected one argument\n",
    ),
    "a value cut off by --": (
        ["check", "--budget", "--", SYMM],
        2,
        "err",
        "holcheck check: error: argument --budget: expected one argument\n",
    ),
    "-o given to check": (
        ["check", SYMM, "-o", "out.hol"],
        2,
        "err",
        "holcheck check: error: unrecognized arguments: -o\n",
    ),
    "--output given to stats": (
        ["stats", SYMM, "--output", "out.hol"],
        2,
        "err",
        "holcheck stats: error: unrecognized arguments: --output\n",
    ),
    "a bad --trace choice": (
        ["check", "--trace", "loud", SYMM],
        2,
        "err",
        "holcheck check: error: argument --trace: invalid choice: 'loud' "
        "(choose from 'quiet', 'summary', 'trace')\n",
    ),
    "--lib=F": (["check", "--trace", "quiet", f"--lib={LIB_FULL}", VIA_LIB], 0, "out", ""),
    "--budget=7": (["check", "--budget=7", SYMM], 3, "out", "step budget exhausted after 7 steps"),
    "--trace=quiet": (["check", "--trace=quiet", SYMM], 0, "out", ""),
    "a bad --budget=": (
        ["check", "--budget=", SYMM],
        2,
        "err",
        "holcheck check: error: argument --budget: expected a positive integer, got ''\n",
    ),
    "-- before an input": (["check", "--trace", "quiet", "--", SYMM], 0, "out", ""),
    "inputs keep their order across --": (
        ["check", TRANS, "--", SYMM],
        0,
        "out",
        f")\n{SYMM}:2: goal: success",
    ),
    "options after inputs": (
        ["check", VIA_LIB, "--lib", LIB_FULL, "--trace", "quiet"],
        0,
        "out",
        "",
    ),
    "two --lib, in order": (
        ["check", "--lib", LIB_BASIC, "--lib", LIB_FULL, VIA_LIB],
        2,
        "err",
        f"holcheck: {LIB_FULL}:4:1: duplicate declaration of 'symm'\n",
    ),
    "two --lib, the other order": (
        ["check", "--lib", LIB_FULL, "--lib", LIB_BASIC, VIA_LIB],
        2,
        "err",
        f"holcheck: {LIB_BASIC}:4:1: duplicate declaration of 'symm'\n",
    ),
    "the last --budget wins": (
        ["check", "--budget", "1", "--budget", "40", TRANS],
        3,
        "out",
        "step budget exhausted after 40 steps",
    ),
    "an earlier bad --budget is refused": (
        ["check", "--budget", "0", "--budget", "40", TRANS],
        2,
        "err",
        "holcheck check: error: argument --budget: expected a positive integer, got '0'\n",
    ),
    "check -h": (["check", "-h"], 0, "out", _HELP),
    "--help after an error": (["frob", "--lib", "--help"], 0, "out", _HELP),
    "--bud 5, an abbreviation": (
        ["check", "--bud", "5", SYMM],
        2,
        "err",
        "holcheck check: error: unrecognized arguments: --bud\n",
    ),
    "-oOUT, an attached value": (
        ["fmt", SYMM, "-oOUT"],
        2,
        "err",
        "holcheck fmt: error: unrecognized arguments: -oOUT\n",
    ),
}


@pytest.mark.parametrize(
    "argv,code,stream,text", COMMAND_LINES.values(), ids=COMMAND_LINES.keys()
)
def test_a_command_line_gives_its_exit_code_and_text(argv, code, stream, text, capsys):
    try:
        got = main(argv)
    except SystemExit as e:
        got = e.code
    captured = capsys.readouterr()
    assert got == code
    if "error:" in text:
        assert captured.out == ""
        assert captured.err == f"{captured.err.splitlines()[0]}\n{text}"
        assert captured.err.startswith(USAGE)
    elif text:
        assert text in getattr(captured, stream)
    else:
        assert getattr(captured, stream) == ""


def test_the_help_names_every_command_and_option():
    for word in [*_COMMANDS, "-h", "--help", "--lib", "--budget", "--trace", "-o", "--output"]:
        assert re.search(rf"(^  |, ){word}\b", _HELP, re.M), word
    assert _HELP.startswith(USAGE)


@pytest.mark.parametrize("command", ["expand", "package", "fmt"])
def test_a_rewrite_takes_exactly_one_input(command, tmp_path, capsys):
    out = tmp_path / "out.hol"
    assert run(command, SYMM, TRANS, "-o", str(out)) == 2
    assert capsys.readouterr().err == "holcheck: exactly one input file is required here\n"
    assert not out.exists()


def test_help_prints_the_same_usage_each_time(capsys):
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert helps[0].startswith("usage: holcheck ")


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


def test_a_failure_stack_is_printed_over_the_whole_file_s_signature(tmp_path, capsys):
    # as fmt prints the goal: with the fixity declared after it
    f = tmp_path / "late_infix.hol"
    f.write_text("type f tm -> tm -> tm.\ntype a tm.\npi x\\ hastype (f x a) intty.\ninfixr f 12.\n")
    assert run("check", "--trace", "trace", str(f)) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        f"{f}:3: goal: failure (steps=2)\n",
        "  | hastype (x_1 f a) intty\n",
    )


@pytest.mark.parametrize(
    "goal",
    ["(proves ax false ==>> proves ax false), proves ax false", "proves ax false"],
    ids=["after an implication that assumed it", "alone"],
)
def test_an_axiom_assumed_by_an_implication_is_gone_after_its_goal(goal, tmp_path, capsys):
    # the clause `proves ax false` is in scope for the implication's own goal only
    f = tmp_path / "scope.hol"
    f.write_text(f"type ax pf.\n{goal}.\n")
    assert run("check", str(f)) == 1


@pytest.mark.parametrize(
    "text,code,out,err",
    [
        ("type p tm -> o. type a tm. (p a ==>> p a).", 0, "success (steps=3, clauses=1, depth=1)", ""),
        ("type q o. (q ==>> q).", 0, "success (steps=3, clauses=1, depth=1)", ""),
        ("type p tm -> o. type a tm. p a.", 1, "failure (steps=1)", "  | p a\n"),
    ],
    ids=["predicate of a term", "proposition", "no clause"],
)
def test_an_atom_of_a_declared_predicate_is_solved_from_the_store(
    text, code, out, err, tmp_path, capsys
):
    # a pushed clause for an atom no built-in rule answers: it is found in the
    # clause store (an empty store fails after the one step of the atom)
    f = tmp_path / "own.hol"
    f.write_text(text + "\n")
    assert run("check", "--trace", "trace", str(f)) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (f"{f}:1: goal: {out}\n", err)


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


def test_of_two_equally_deep_failing_stacks_the_later_is_printed(tmp_path, capsys):
    # the later clause is tried first and fails on `hastype d form`; the
    # earlier one then fails as deep on `hastype c form`, and that stack wins
    f = tmp_path / "tie.hol"
    f.write_text(
        "pi c\\ pi d\\ pi q\\ ((proves q false <<== hastype c form) ==>>\n"
        "  ((proves q false <<== hastype d form) ==>> proves q false)).\n"
    )
    assert run("check", "--trace", "trace", str(f)) == 1
    assert capsys.readouterr().err.splitlines() == ["  | proves q_3 false", "  | hastype c_1 form"]


def test_a_failure_stack_holds_no_goal_that_succeeded(tmp_path, capsys):
    # the typing of the formula and the first conjunct succeed before the
    # second conjunct fails; only the failing goal and its ancestors print
    f = tmp_path / "solved.hol"
    f.write_text(
        "pi c\\ pi d\\ (hastype c intty ==>> (hastype d intty ==>>\n"
        "  (hastype c intty, proves refl (eq intty c d)))).\n"
    )
    assert run("check", "--trace", "trace", str(f)) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        f"{f}:1: goal: failure (steps=25)\n",
        "  | proves refl (eq intty c_1 d_2)\n",
    )


def test_each_check_of_a_file_prints_its_own_failing_stack(tmp_path, capsys):
    # the second goal fails at its first atom, less deep than the first did
    f = tmp_path / "two.hol"
    f.write_text(
        "type s tm -> tm.\ntype z tm.\n"
        "(pi X\\ (hastype (s X) intty <<== hastype X intty)) ==>> hastype (s (s z)) intty.\n"
        "hastype z intty.\n"
    )
    assert run("check", "--trace", "trace", str(f)) == 1
    captured = capsys.readouterr()
    assert captured.out == f"{f}:3: goal: failure (steps=13)\n{f}:4: goal: failure (steps=1)\n"
    assert captured.err.splitlines() == [
        "  | hastype (s (s z)) intty",
        "  | hastype (s z) intty",
        "  | hastype z intty",
        "  | hastype z intty",
    ]


# -- one checked library per invocation, forked for each input file ----------

LIB_FULL = ["--lib", str(CORPUS / "lib_full.hol")]
LIB_FULL_NEGATIVES = [c for c in CASES if c[2] == ["lib_full.hol"]]


def _batches():
    from workloads import LIB_BATCHES

    for batch in LIB_BATCHES:
        yield " ".join(batch), [str(CORPUS / n) for n in batch], {}
    for name, text, _libs, _code in CASES:
        # after the library even where the case needs none, since eigenvariable
        # names count on from the library's; the negative last, so that an
        # error that ends the run ends it here too
        files = [str(CORPUS / "symm_via_lib.hol"), str(CORPUS / "assoc_via_lib.hol"), "case.hol"]
        yield f"negative: {name}", files, {"case.hol": text}


@pytest.mark.parametrize("files,texts", [b[1:] for b in _batches()], ids=[b[0] for b in _batches()])
def test_multi_file_check_prints_what_one_call_per_file_prints(files, texts, tmp_path, capsys):
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    files = [f if f not in texts else str(tmp_path / f) for f in files]
    expected_out = expected_err = ""
    codes = []
    for f in files:
        codes.append(run("check", "--trace", "trace", *LIB_FULL, f))
        captured = capsys.readouterr()
        expected_out += captured.out
        expected_err += captured.err
    code = run("check", "--trace", "trace", *LIB_FULL, *files)
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected_out, expected_err)
    assert code == _combine(codes)


def test_inputs_may_declare_the_same_names(tmp_path, capsys):
    a, b = tmp_path / "a.hol", tmp_path / "b.hol"
    a.write_text(FLIP_LEMMA)
    b.write_text(FLIP_LEMMA + FLIP_USE)
    assert run("check", *LIB_FULL, str(a), str(b)) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3 and all("success" in line for line in out)


def test_a_lemma_of_one_input_does_not_reach_the_next(tmp_path, capsys):
    # the user declares flip, but its lemma clause is only in the file before
    defines, uses = tmp_path / "defines.hol", tmp_path / "uses.hol"
    defines.write_text(FLIP_LEMMA)
    uses.write_text("type flip pf -> pf.\n" + FLIP_USE)
    assert run("check", "--trace", "trace", *LIB_FULL, str(uses)) == 1
    alone = capsys.readouterr()
    assert "failure" in alone.out
    assert run("check", "--trace", "trace", *LIB_FULL, str(defines), str(uses)) == 1
    after = capsys.readouterr()
    assert after.out.splitlines()[1:] == alone.out.splitlines()
    assert after.err == alone.err


def test_a_failing_input_leaves_the_next_unchanged(tmp_path, capsys):
    ((_name, text, _libs, code),) = LIB_FULL_NEGATIVES
    bad, good = tmp_path / "bad.hol", str(CORPUS / "assoc_via_lib.hol")
    bad.write_text(text)
    assert run("check", "--trace", "trace", *LIB_FULL, good) == 0
    alone = capsys.readouterr().out
    assert run("check", "--trace", "trace", *LIB_FULL, str(bad), good) == code
    after = capsys.readouterr().out.splitlines()
    assert "failure" in after[0] and after[1:] == alone.splitlines()


def test_each_library_entry_is_checked_once_per_invocation(tmp_path, monkeypatch, capsys):
    import holcheck.cli
    import holcheck.library

    installed = []
    install_entry = holcheck.library.install_entry

    def counted(entry, session):
        installed.append(entry.name)
        return install_entry(entry, session)

    monkeypatch.setattr(holcheck.library, "install_entry", counted)
    monkeypatch.setattr(holcheck.cli, "install_entry", counted)
    flip = tmp_path / "flip.hol"
    flip.write_text(FLIP_LEMMA + FLIP_USE)
    inputs = [str(CORPUS / "symm_via_lib.hol"), str(flip), str(CORPUS / "assoc_via_lib.hol")]
    assert run("check", *LIB_FULL, *inputs) == 0
    library = ["symm", "trans", "def_i", "def_e", "assoc", "assoc_inst"]
    assert installed == library + ["flip"]


def test_stats_parses_each_library_once(monkeypatch, capsys):
    import holcheck.cli

    parsed = []
    parse_source = holcheck.cli.parse_source

    def counted(text, sig, path=None):
        parsed.append(path)
        return parse_source(text, sig, path)

    monkeypatch.setattr(holcheck.cli, "parse_source", counted)
    lib = str(CORPUS / "lib_full.hol")
    inputs = [str(CORPUS / "symm_via_lib.hol"), str(CORPUS / "assoc_via_lib.hol")]
    assert run("stats", "--lib", lib, *inputs) == 0
    assert parsed == [lib, *inputs]
    assert len(capsys.readouterr().out.splitlines()) == 2


# -- message texts ----------------------------------------------------------------

META_TYPE_MISMATCH = "hastype (f\\ x\\ f (f x)) form.\n"


def test_inference_variables_are_numbered_per_elaboration(tmp_path, capsys):
    f = tmp_path / "church.hol"
    f.write_text(META_TYPE_MISMATCH)
    errors = []
    for args in ([], [], [*LIB_FULL, str(CORPUS / "symm_basic.hol")]):
        assert run("check", *args, str(f)) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == errors[2]
    assert errors[0].endswith(": tm vs (_3 -> _3) -> _3 -> _3\n")
    # the site is named by its source text, at the token of its argument
    assert errors[0] == (
        f"holcheck: {f}:1:9: meta-type mismatch in application "
        "hastype (f\\ x\\ f (f x)): tm vs (_3 -> _3) -> _3 -> _3\n"
    )


VALIDITY_MESSAGES = {
    "assumption around a typing atom": (
        "lemma clause outside the allowed grammar: pi T\\ pi A\\ pi P\\ "
        "proves (bad_7 P) (eq T A A) <<== assump (hastype A T), proves P (eq T A A)"
    ),
    "foreign predicate inside a template": (
        "lemma clause outside the allowed grammar: pi T\\ pi A\\ pi P\\ "
        "proves (bad_7 P) (eq T A A) <<== noisy A, hastype A T, proves P (eq T A A)"
    ),
}


@pytest.mark.parametrize("name", VALIDITY_MESSAGES)
def test_validity_messages_print_source_text(name, tmp_path, capsys):
    (text,) = [c[1] for c in CASES if c[0] == name]
    f = tmp_path / "case.hol"
    f.write_text(text)
    assert run("check", str(f)) == 2
    (line,) = capsys.readouterr().out.splitlines()
    assert line.endswith(f": goal: validity: {VALIDITY_MESSAGES[name]} (steps=20)")


REPORTED_CASES = [c for c in CASES if c[3] == 1 or c[0] in VALIDITY_MESSAGES]


@pytest.mark.parametrize(
    "name,text,libs,expected", REPORTED_CASES, ids=[c[0] for c in REPORTED_CASES]
)
def test_an_input_starts_from_the_checked_library(name, text, libs, expected, tmp_path, capsys):
    # as if the library's text opened the input: the same steps, and the
    # same eigenvariable and matching-variable numbers in the messages
    case, inline = tmp_path / "case.hol", tmp_path / "inline.hol"
    case.write_text(text)
    inline.write_text((CORPUS / "lib_full.hol").read_text() + text)
    assert run("check", "--trace", "trace", *LIB_FULL, str(case)) == expected
    after = capsys.readouterr()
    assert run("check", "--trace", "trace", str(inline)) == expected
    inlined = capsys.readouterr()

    def verdicts(out):
        return [line.split(": ", 1)[1] for line in out.splitlines()]

    library = verdicts(inlined.out)[:6]  # lib_full's six entries
    assert all(": success (" in v for v in library)
    assert verdicts(inlined.out)[6:] == verdicts(after.out)
    assert inlined.err == after.err


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


# a library entry whose proof is not a proof of its clause, a lemma that
# checks but whose clause never mentions its own name, a goal, and a lemma
# whose clause names `symm`
BROKEN_SYMM = SYMM_DECL + SYMM_DEF.replace("(congr T B A (eq T A) P refl)", "refl")
DEAD = "def_lemma dead\n  (Dead\\ pi T\\ pi X\\ (proves refl (eq T X X)))\n  refl.\n"
REFL_GOAL = "proves refl (forall intty X\\ eq intty X X).\n"
SYMM2_USES_SYMM = (
    "type symm2 pf -> pf.\n"
    "def_lemma symm2\n"
    "  (Symm2\\ pi T\\ pi A\\ pi B\\ pi P\\\n"
    "    proves (Symm2 P) (eq T A B) <<== proves (symm P) (eq T A B))\n"
    "  (P\\ symm P).\n"
)

# library text (or None), input text (or None for symm_via_lib.hol), extra
# arguments -> stdout, stderr and exit code; {lib} and {input} stand for the
# paths of the files written
LIBRARY_OUTCOMES = {
    "duplicate_after_broken_entry": (
        BROKEN_SYMM + "type dead pf.\n" + DEAD + DEAD, None, [],
        "", "holcheck: duplicate registry name 'dead'\n", 2,
    ),
    "goal_statement": (
        SYMM_DECL + SYMM_DEF + REFL_GOAL, None, [],
        "", "holcheck: a library file may not contain goal statements\n", 2,
    ),
    "forward_reference": (
        SYMM_DECL + SYMM2_USES_SYMM + SYMM_DEF, None, [],
        "", "holcheck: entry 'symm2' references not-yet-defined name(s): symm\n", 2,
    ),
    "broken_proof": (
        BROKEN_SYMM, None, [],
        "", "holcheck: {lib}: library entry 'symm' failed: proof check failed\n", 2,
    ),
    "budget": (
        None, None, ["--budget", "5", "--lib", str(CORPUS / "lib_full.hol")],
        "", "holcheck: step budget exhausted after 5 steps\n", 3,
    ),
    "in_file_duplicate": (
        None, "type dead pf.\n" + DEAD + DEAD + REFL_GOAL, [],
        "{input}:2: dead: success (steps=6, clauses=0, depth=0)\n",
        "holcheck: duplicate registry name 'dead'\n", 2,
    ),
    "a_second_lib_using_the_first": (  # `flip` is proved by lib_basic's `symm`
        FLIP_LEMMA, FLIP_USE, ["--lib", str(CORPUS / "lib_basic.hol")],
        "{input}:1: goal: success (steps=116, clauses=5, depth=9)\n", "", 0,
    ),
}


@pytest.mark.parametrize(
    "lib,text,extra,out,err,code", LIBRARY_OUTCOMES.values(), ids=LIBRARY_OUTCOMES.keys()
)
def test_a_library_gives_its_exit_code_and_text(lib, text, extra, out, err, code, tmp_path, capsys):
    args = list(extra)
    paths = {"lib": tmp_path / "lib.hol", "input": tmp_path / "input.hol"}
    if lib is not None:
        paths["lib"].write_text(lib)
        args += ["--lib", str(paths["lib"])]
    if text is not None:
        paths["input"].write_text(text)
    else:
        paths["input"] = CORPUS / "symm_via_lib.hol"
    assert run("check", *args, str(paths["input"])) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out.format(**paths), err.format(**paths))


def test_a_library_failure_prints_the_goal_its_validity_error_names(tmp_path, capsys):
    bad_lib = tmp_path / "bad_lib.hol"
    bad_lib.write_text(
        "type noisy tm -> o.\n"
        "type mylem pf.\n"
        "def_lemma mylem\n"
        "  (L\\ pi X\\ (proves L (eq intty X X) <<== hastype X intty))\n"
        "  (extractGoal (noisy false) refl).\n"
    )
    assert run("check", "--lib", str(bad_lib), str(CORPUS / "symm_basic.hol")) == 2
    assert capsys.readouterr().err == (
        f"holcheck: {bad_lib}: library entry 'mylem' failed: "
        "extractGoal argument outside the allowed grammar: noisy false\n"
    )


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
    # five deep, to 2^65536
    "five-numeral church tower": f"(({' '.join([CHURCH_TWO] * 5)}) s z)",
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


def test_a_discarded_church_tower_is_never_normalized(tmp_path, capsys):
    # the argument of (y\ X) would normalize to 65536 nested applications
    f = tmp_path / "discard.hol"
    f.write_text(
        "type s tm -> tm.\ntype z tm.\nproves (forall_i X\\ refl) (forall intty X\\ "
        f"eq intty ((y\\ X) {DEEP_INPUTS['church numeral tower']}) X).\n"
    )
    assert run("check", str(f)) == 0
    assert "success" in capsys.readouterr().out


def _chain_text(n, reject=None):
    """A `bench/chain.py` statement of n links, its link mix seeded by n."""
    import random

    from chain import chain_statement

    rng = random.Random(n)
    backwards = [k < n // 2 for k in range(n)]
    rng.shuffle(backwards)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return chain_statement(n, backwards, order, reject)


def test_thirty_link_chain_checks(tmp_path, capsys):
    """A 30-link transitivity chain fits in the default recursion limit.

    With one interpreter frame per clause binder and a normalization of
    every atom, 30 links exhausted it (exit 3); with this link mix the
    first failing length is now 76 (99 on Python 3.12 and 3.13)."""
    f = tmp_path / "chain.hol"
    f.write_text(_chain_text(30))
    assert run("check", str(f)) == 0
    assert "success" in capsys.readouterr().out


def _typing_text(n):
    """Type `s^n z` against two pushed clauses: a derivation n levels deep."""
    return (
        "type s tm -> tm.\ntype z tm.\n"
        "hastype z intty ==>> (pi X\\ (hastype (s X) intty <<== hastype X intty)) ==>>\n"
        f"  hastype {'(s ' * n}z{')' * n} intty.\n"
    )


# `python -c` with the source directory as its first argument
_CHECK = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "from holcheck.cli import main; sys.exit(main(['check', *sys.argv[1:]]))"
)

DEEP_DERIVATIONS = {
    "typing s^250 z": (_typing_text(250), 0, []),
    "typing s^450 z": (_typing_text(450), 0, []),
    "typing s^300 z, --trace trace": (_typing_text(300), 0, ["--trace", "trace"]),
    "typing s^450 z, --trace trace": (_typing_text(450), 0, ["--trace", "trace"]),
    "60-link chain": (_chain_text(60), 0, []),
    "60-link chain, reject": (_chain_text(60, "left"), 1, []),
    "70-link chain": (_chain_text(70), 0, []),
    "70-link chain, reject": (_chain_text(70, "left"), 1, []),
    "a goal atom inside 300 nested parentheses": (
        "type z tm.\nhastype z intty ==>> " + "(" * 300 + "hastype z intty" + ")" * 300 + ".\n",
        0,
        [],
    ),
}


@pytest.mark.parametrize(
    "text,code,options", DEEP_DERIVATIONS.values(), ids=DEEP_DERIVATIONS.keys()
)
def test_deep_derivations_check_at_the_default_recursion_limit(text, code, options, tmp_path):
    """A level of a derivation costs no interpreter frame: `solve` runs one
    loop over an explicit goal list, and each candidate search
    (`solve_store` and `backchain`) yields before the next atom is
    dispatched.  Recursive walks over terms limit depth instead, under
    `--trace trace` too: on Python 3.11 typing first exits 3 at depth 494,
    in the parser, where a parenthesis costs two frames (`parse_expr` and
    `parse_primary`), and the chain at 77 links, in `kernel._abstract`.
    300 parentheses would check at three frames each as well."""
    f = tmp_path / "deep.hol"
    f.write_text(text)
    done = subprocess.run(
        [sys.executable, "-I", *["-O"] * sys.flags.optimize, "-c", _CHECK, str(ROOT / "src"),
         *options, f],
        capture_output=True,
        text=True,
    )
    assert (done.returncode, done.stderr) == (code, "")


def test_a_rejected_chain_goes_back_only_to_atoms_in_progress(tmp_path, capsys):
    # a solved atom is final, so the failing link's search does not resume
    # the links solved before it: 36744 steps under chronological backtracking
    f = tmp_path / "chain.hol"
    f.write_text(_chain_text(40, "left"))
    assert run("check", str(f)) == 1
    assert capsys.readouterr().out == f"{f}:1: goal: failure (steps=22981)\n"


SIGNATURE_REFUSALS = {
    # the kernel finds rules and handlers by a constant's name alone
    "builtin constant": (
        "type proves tm -> o.\n",
        "1:1: cannot redeclare builtin constant 'proves'",
    ),
    "goal former": ("type pi tm.\n", "1:1: cannot redeclare builtin constant 'pi'"),
    "duplicate declaration": ("type a tm.\ntype a tm.\n", "2:1: duplicate declaration of 'a'"),
    "builtin fixity": ("infixr imp 7.\n", "1:1: cannot redeclare builtin fixity of 'imp'"),
    "duplicate fixity": (
        "type op tm -> tm -> tm.\ninfixl op 5.\ninfixl op 5.\n",
        "3:1: duplicate fixity declaration for 'op'",
    ),
    "undeclared": ("infixl op 5.\n", "1:1: fixity declaration for undeclared constant 'op'"),
    "unary": ("type op tm -> tm.\ninfixl op 5.\n", "2:1: 'op' is not at least binary"),
}


@pytest.mark.parametrize(
    "text,message", SIGNATURE_REFUSALS.values(), ids=SIGNATURE_REFUSALS.keys()
)
def test_the_signature_refuses_a_declaration(text, message, tmp_path, capsys):
    f = tmp_path / "decl.hol"
    f.write_text(text)
    assert run("check", str(f)) == 2
    assert capsys.readouterr().err == f"holcheck: {f}:{message}\n"


# `-S`: a site `.pth` file may import `typing` before holcheck does.  The
# first line names each call of the front end's entry points, the second
# each of the modules that are loaded
_START_UP = """
import sys
sys.path.insert(0, sys.argv[1])
calls = []
def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_name in ("tokenize", "parse_source"):
        calls.append(f"{frame.f_globals['__name__']}.{code.co_name}")
sys.setprofile(profile)
import holcheck.cli
from holcheck.kernel import Session
from holcheck.signature import builtin_signature
Session(builtin_signature())
sys.setprofile(None)
print(" ".join(calls))
modules = ("argparse", "copy", "dataclasses", "gettext", "inspect", "typing")
print(" ".join(m for m in modules if m in sys.modules))
"""


def test_start_up_parses_nothing_and_imports_no_argparse_copy_dataclasses_gettext_inspect_or_typing():
    """Importing the CLI and making a session tokenizes and parses no
    source, built-in rules included, and loads none of these modules, which
    cost more to import than holcheck's own."""
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _START_UP, str(ROOT / "src")],
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.split("\n") == ["", "", ""]


# A command, then `--help`, in a fresh interpreter: the exit codes, then
# those of argparse and gettext that are loaded
_A_COMMAND_AND_HELP = """
import sys
sys.path.insert(0, sys.argv[1])
from holcheck.cli import main
code = main(["check", "--trace", "quiet", sys.argv[2]])
try:
    main(["--help"])
except SystemExit as e:
    print(code, e.code)
print(" ".join(m for m in ("argparse", "gettext") if m in sys.modules))
"""


def test_a_command_and_help_import_no_argparse_or_gettext():
    """Not even lazily: every process reads its command line."""
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _A_COMMAND_AND_HELP, str(ROOT / "src"), SYMM],
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == f"{_HELP}0 0\n\n"
