"""CLI outputs pinned byte for byte.

Each run is one `holcheck.cli.main` call, made in a directory that holds
a copy of `corpus/` and the negative cases as `negatives/<name>.hol`: a
traced `check` of every corpus file and every negative case, `stats` of
every corpus file, and `expand`, `fmt` and (with a library) `package` of
every corpus file.  Its exit code, stdout, stderr and the file it writes
must equal `tests/golden/<run>.txt`.

To write the expected files again, after a change that is meant to alter
an output, run `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import os
import pathlib
import shutil
import sys

import pytest

from negatives import CASES

from holcheck.cli import main

TESTS = pathlib.Path(__file__).resolve().parent
CORPUS = TESTS.parent / "corpus"
GOLDEN = TESTS / "golden"
LIB = ["--lib", "corpus/lib_full.hol"]


def _runs():
    """`(name, argv, written file or None)`, paths relative to the run directory."""
    runs = []
    for f in sorted(CORPUS.glob("*.hol")):
        n, path = f.name, f"corpus/{f.name}"
        lib = LIB if n.endswith("_via_lib.hol") else []
        runs.append((f"check_{n}", ["check", "--trace", "trace", *lib, path], None))
        runs.append((f"stats_{n}", ["stats", *lib, path], None))
        for cmd in ("expand", "fmt", "package") if lib else ("expand", "fmt"):
            out = f"out/{cmd}_{n}"
            runs.append((f"{cmd}_{n}", [cmd, *lib, path, "-o", out], out))
    for name, _, libs, _ in CASES:
        slug = name.replace(" ", "_")
        lib = [a for x in libs for a in ("--lib", f"corpus/{x}")]
        path = f"negatives/{slug}.hol"
        runs.append((f"check_negative_{slug}", ["check", "--trace", "trace", *lib, path], None))
    return runs


RUNS = _runs()


def _prepare(workdir):
    shutil.copytree(CORPUS, workdir / "corpus")
    (workdir / "negatives").mkdir()
    (workdir / "out").mkdir()
    for name, text, _, _ in CASES:
        (workdir / "negatives" / f"{name.replace(' ', '_')}.hol").write_text(text)


def _record(argv, written):
    """What one run shows: its exit code, its stdout and stderr, and the
    file it writes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    if written is not None:
        with open(written, encoding="utf-8") as f:
            text += f"--- {written}\n{f.read()}"
    return text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    _prepare(d)
    return d


@pytest.mark.parametrize("name,argv,written", RUNS, ids=[r[0] for r in RUNS])
def test_cli_output_is_golden(name, argv, written, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert _record(argv, written) == want


def _write_all(workdir):
    GOLDEN.mkdir(exist_ok=True)
    _prepare(workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv, written in RUNS:
            (GOLDEN / f"{name}.txt").write_text(_record(argv, written), encoding="utf-8")
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        _write_all(pathlib.Path(d))
    print(f"wrote {len(RUNS)} files under {GOLDEN}", file=sys.stderr)
