"""Commands make no reference cycles, and `cli.main` pauses the cyclic
collector while it runs and leaves it as it found it."""

import collections
import gc

import pytest

import holcheck.cli
import workloads
from conftest import CORPUS, ROOT
from holcheck.cli import main
from negatives import CASES

from test_cli import DEEP_INPUTS


def _benchmark_argvs(work):
    """The argument lists of the benchmark's corpus and library workloads,
    each rewrite followed by the re-check of its output."""
    argvs = []
    for name in ("corpus", "library"):
        for job in workloads.build(name, str(ROOT), str(work / name), 0):
            argvs.append(job.argv)
            if job.recheck is not None:
                argvs.append(job.recheck.argv)
    return argvs


def _cyclic_garbage(argv):
    """The objects of the reference cycles one `main(argv)` leaves behind,
    counted by type, with the collector paused while it runs."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        main(argv)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return collections.Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()
        if enabled:
            gc.enable()


def test_no_command_leaves_reference_cycles(tmp_path, capsys):
    argvs = _benchmark_argvs(tmp_path)
    theorems = sorted(f.name for f in CORPUS.glob("*.hol") if not f.name.startswith("lib_"))
    for name in theorems:
        lib = ["--lib", str(CORPUS / "lib_full.hol")] if name.endswith("_via_lib.hol") else []
        argvs.append(["stats", *lib, str(CORPUS / name)])
    # the resource exits: a budget, and the recursion limit in the parser
    # and in normalization
    argvs.append(["check", "--budget", "40", str(CORPUS / "symm_trans.hol")])
    for k, key in enumerate(("3000 nested applications", "church numeral tower")):
        deep = tmp_path / f"deep_{k}.hol"
        deep.write_text(f"type s tm -> tm.\ntype z tm.\nproves refl (eq intty {DEEP_INPUTS[key]} z).\n")
        argvs.append(["check", str(deep)])
    leaks = {}
    for argv in argvs:
        garbage = _cyclic_garbage(argv)
        if garbage:
            leaks[" ".join(argv)] = dict(garbage.most_common())
    capsys.readouterr()
    assert len(argvs) > 60
    assert not leaks


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector switched on or off for one test, and back after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def _exit_0(tmp_path):
    return ["check", str(CORPUS / "symm_basic.hol")], 0


def _exit_1(tmp_path):
    f = tmp_path / "failing.hol"
    f.write_text(next(text for _, text, libs, code in CASES if code == 1 and not libs))
    return ["check", str(f)], 1


def _exit_2(tmp_path):
    return ["check", str(tmp_path / "missing.hol")], 2


def _exit_3(tmp_path):
    return ["check", "--budget", "1", str(CORPUS / "symm_basic.hol")], 3


@pytest.mark.parametrize("call", [_exit_0, _exit_1, _exit_2, _exit_3])
def test_main_pauses_the_collector_and_restores_it(call, collector, tmp_path, monkeypatch, capsys):
    argv, code = call(tmp_path)
    seen = []
    read = holcheck.cli._read
    monkeypatch.setattr(holcheck.cli, "_read", lambda path: seen.append(gc.isenabled()) or read(path))
    assert main(argv) == code
    assert gc.isenabled() is collector
    assert seen and not any(seen)  # paused while the command ran
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["check", "--budget", "0", "x.hol"], ["--help"]])
def test_an_argument_error_restores_the_collector(argv, collector, capsys):
    with pytest.raises(SystemExit):
        main(argv)
    assert gc.isenabled() is collector
    capsys.readouterr()


def test_an_unexpected_exception_restores_the_collector(collector, monkeypatch):
    def broken(path):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(holcheck.cli, "_read", broken)
    with pytest.raises(RuntimeError, match="unexpected"):
        main(["check", str(CORPUS / "symm_basic.hol")])
    assert gc.isenabled() is collector
