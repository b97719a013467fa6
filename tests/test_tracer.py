"""The benchmark tracer's hold on holcheck: every function it wraps exists
and is still reached, so a kernel refactor cannot silently break
`bench/run.py --trace 1`."""

import importlib
import inspect

import pytest

from conftest import CORPUS

from holcheck import cli, kernel
from tracer import GENERATORS, SPANNED, Tracer


@pytest.mark.parametrize("layer,module,attr", SPANNED, ids=[s[2] for s in SPANNED])
def test_spanned_function_resolves(layer, module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


@pytest.mark.parametrize("name", GENERATORS)
def test_counted_generator_resolves(name):
    # the tracer counts a call of each by wrapping the `Session` method;
    # `solve` is a plain method that returns whether its goal holds; the
    # other two yield the goals each candidate's success needs
    method = getattr(kernel.Session, name)
    assert inspect.isfunction(method) and method.__qualname__ == f"Session.{name}"
    assert inspect.isgeneratorfunction(method) == (name != "solve")


def test_traced_check_reaches_every_kernel_layer(capsys):
    originals = {name: getattr(kernel.Session, name) for name in GENERATORS}
    tracer = Tracer()
    tracer.install()
    try:
        # looked up at call time, as bench/run.py does, so the span wraps it
        assert cli.main(["check", str(CORPUS / "symm_lemma.hol")]) == 0
    finally:
        tracer.uninstall()
    assert {name: getattr(kernel.Session, name) for name in GENERATORS} == originals
    for layer in (
        "cli", "syntax.parse", "infer.elaborate", "terms.normalize",
        "terms.subst", "terms.scan", "kernel.check",
    ):
        assert tracer.calls[layer] > 0, layer
    for name in GENERATORS:
        assert tracer.counts[f"kernel.{name}_calls"] > 0, name
    counts = tracer.job_counts()
    assert counts["kernel.steps"] > 0 and counts["kernel.match_calls"] > 0
    assert counts["syntax.tokens"] > 0
