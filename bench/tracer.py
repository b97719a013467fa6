"""Outside-in tracer: wraps holcheck's public functions at run time.

Each plain function listed in SPANNED gets a span (layer, start, end,
parent span, job id) every time it is called.  A function is wrapped
wherever callers look it up: in its own module and in every holcheck
module that imported it by name, and on the class for `Session` methods.
The generator methods `solve`, `solve_store` and `backchain` are counted,
not timed, since their frames outlive the call that creates them.

A layer's self time is its spans' duration minus the time their child
spans cover.  Spans are kept in memory, up to a cap, and written out at
the end; the aggregates count every span.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# (layer, module, attribute): plain functions that get spans.
SPANNED = (
    ("cli", "holcheck.cli", "main"),
    ("syntax.parse", "holcheck.syntax", "parse_source"),
    ("syntax.parse", "holcheck.syntax", "parse_term"),
    ("syntax.parse", "holcheck.syntax", "parse_goal"),
    ("syntax.format", "holcheck.syntax", "format_statement"),
    ("syntax.format", "holcheck.syntax", "format_goal"),
    ("syntax.format", "holcheck.syntax", "format_term"),
    ("infer.elaborate", "holcheck.infer", "elaborate_goal"),
    ("infer.elaborate", "holcheck.infer", "elaborate_term"),
    ("terms.normalize", "holcheck.terms", "normalize"),
    ("terms.normalize", "holcheck.terms", "normalize_goal"),
    ("terms.subst", "holcheck.terms", "subst"),
    ("terms.subst", "holcheck.terms", "subst_goal"),
    ("terms.scan", "holcheck.terms", "has_unbound_meta"),
    ("terms.scan", "holcheck.terms", "max_eigen_birth"),
    ("kernel.check", "holcheck.kernel", "Session.check_goal"),
    ("library.install", "holcheck.library", "install_entry"),
    ("library.package", "holcheck.library", "package"),
    ("transform.expand", "holcheck.transform", "expand_statement_goal"),
    ("transform.expand", "holcheck.transform", "expand_lemmas"),
)

# Session generator methods: counted under kernel.<name>_calls.
GENERATORS = ("solve", "solve_store", "backchain")

# Exact counts recorded per job.
JOB_COUNTS = ("kernel.steps", "kernel.match_calls", "kernel.clauses_added", "syntax.tokens")


class Tracer:
    def __init__(self, span_cap=100_000):
        self.span_cap = span_cap
        self.spans = []  # (span id, parent id, job id, layer, start, end)
        self.dropped = 0
        self.job = 0
        self.self_s = Counter()
        self.total_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.max_store_depth = 0
        self._stack = []  # open spans: [child seconds, span id]
        self._next_id = 0
        self._match_depth = 0
        self._patches = []  # (owner, name, original)
        self.epoch = 0.0  # span times are written relative to install()

    # -- wrappers ---------------------------------------------------------------

    def _span(self, layer, fn, after=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [0.0, self._next_id]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_s[layer] += duration - frame[0]
                self.total_s[layer] += duration
                self.calls[layer] += 1
                if stack:
                    stack[-1][0] += duration
                if len(spans) < self.span_cap:
                    spans.append((frame[1], parent, self.job, layer, start, end))
                else:
                    self.dropped += 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def _after_check(self, report):
        s = report.stats
        self.counts["kernel.steps"] += s.steps
        self.counts["kernel.clauses_added"] += s.clauses_added
        self.max_store_depth = max(self.max_store_depth, s.max_store_depth)

    def _tokenize(self, fn):
        def tokenize(*args, **kwargs):
            tokens = fn(*args, **kwargs)
            self.counts["syntax.tokens"] += len(tokens)
            return tokens

        return tokenize

    def _match_goal(self, fn):
        def match_goal(session, *args, **kwargs):
            self._match_depth += 1
            try:
                hit = fn(session, *args, **kwargs)
            finally:
                self._match_depth -= 1
            if self._match_depth == 0:  # a top-level attempt, not a sub-goal
                self.counts["kernel.match_calls"] += 1
                self.counts["kernel.match_hits"] += bool(hit)
            return hit

        return match_goal

    def _bind(self, fn):
        def bind(session, *args, **kwargs):
            ok = fn(session, *args, **kwargs)
            self.counts["kernel.bind_calls"] += 1
            self.counts["kernel.bind_refused"] += not ok
            return ok

        return bind

    def _generator(self, name, fn):
        key = f"kernel.{name}_calls"

        def counted(session, *args, **kwargs):
            self.counts[key] += 1
            return fn(session, *args, **kwargs)

        return counted

    # -- installing -------------------------------------------------------------

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _patch_everywhere(self, original, wrapper):
        """Replace `original` in every holcheck module that holds it."""
        for modname, module in list(sys.modules.items()):
            if modname != "holcheck" and not modname.startswith("holcheck."):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, name, wrapper)

    def install(self):
        self.epoch = time.perf_counter()
        kernel = importlib.import_module("holcheck.kernel")
        syntax = importlib.import_module("holcheck.syntax")
        for layer, modname, attr in SPANNED:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                after = self._after_check if meth == "check_goal" else None
                self._patch(cls, meth, self._span(layer, getattr(cls, meth), after))
            else:
                original = getattr(module, attr)
                self._patch_everywhere(original, self._span(layer, original))
        self._patch_everywhere(syntax.tokenize, self._tokenize(syntax.tokenize))
        session = kernel.Session
        self._patch(session, "match_goal", self._match_goal(session.match_goal))
        self._patch(session, "bind", self._bind(session.bind))
        for name in GENERATORS:
            self._patch(session, name, self._generator(name, getattr(session, name)))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- reading ----------------------------------------------------------------

    def job_counts(self):
        return {k: self.counts[k] for k in JOB_COUNTS}

    def write_spans(self, path):
        """Write the kept spans as CSV, times in microseconds."""
        t0 = self.epoch
        with open(path, "w", encoding="utf-8") as f:
            f.write("span,parent,job,layer,start_us,end_us\n")
            for sid, parent, job, layer, start, end in self.spans:
                f.write(
                    f"{sid},{parent},{job},{layer},"
                    f"{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f}\n"
                )
