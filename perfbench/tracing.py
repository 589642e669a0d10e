"""Per-layer spans recorded from outside the program.

The tracer replaces the public names of each layer with timing wrappers.
A function is wrapped in the module that defines it and in every module of
the package that imports it (``correlation.make_discrete_kernel``,
``optimizer.evaluate``, ``transition.maximize``, the package-level entry
points, ...); a class is traced through its methods.  A name that no
longer exists is skipped and its counts read 0, so a program whose
internals are reorganized still runs.

Spans are folded into per-name totals as they close, so memory stays flat
however many calls a run makes.  A span's self time is its duration minus
the part of it that its child spans cover.  Stacks are kept per thread; a
span opened on a thread with no open span (a worker started by the CLI)
is the child of the innermost span open on the thread that runs the
operation.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import threading
import time

# (defining module, attribute path, span name, layer, work counted from the result)
TARGETS = [
    ("fuzzycorr.kernel", "make_discrete_kernel", "kernel_build", "kernel", "weights"),
    ("fuzzycorr.kernel", "zeta_mean", "kernel_sum", "kernel", None),
    ("fuzzycorr.kernel", "reference_nodes", "kernel_nodes", "kernel", None),
    ("fuzzycorr.correlation", "Correlator.__init__", "construct", "correlation", None),
    ("fuzzycorr.correlation", "Correlator.matrix", "call", "correlation", None),
    ("fuzzycorr.correlation", "Correlator.diagonal", "call", "correlation", None),
    ("fuzzycorr.correlation", "Correlator.__call__", "call", "correlation", None),
    ("fuzzycorr.witness", "evaluate", "evaluate", "witness", None),
    ("fuzzycorr.optimizer", "maximize", "maximize", "optimizer", "iterations"),
    ("fuzzycorr.optimizer", "maximize_profile", "maximize_profile", "optimizer", None),
    ("fuzzycorr.transition", "find_critical_delta", "delta_sq", "transition", None),
    ("fuzzycorr.transition", "find_critical_Delta", "Delta_sq", "transition", None),
    ("fuzzycorr.transition", "find_critical_visibility", "p", "transition", None),
    ("fuzzycorr.cli", "main", "cli_run", "cli", None),
]

SEARCH_SPANS = ("delta_sq", "Delta_sq", "p")


def _work(result, attr):
    """Size of the work a call did, read from its result (0 if absent)."""
    if attr == "weights":
        return len(getattr(result, "weights", ()))
    if attr == "iterations":
        return int(getattr(result, "iterations", 0))
    return 0


def _covered(intervals, start, end):
    """Length of the union of `intervals` clipped to [start, end]."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


class _Span:
    __slots__ = ("name", "layer", "parent", "start", "children", "probes")

    def __init__(self, name, layer, parent):
        self.name, self.layer, self.parent = name, layer, parent
        self.children = []
        self.probes = 0
        self.start = time.perf_counter()


class _Totals:
    __slots__ = ("calls", "self_s", "work", "probes", "durations")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.work = 0
        self.probes = 0
        self.durations = []


class Tracer:
    """Installs the wrappers and accumulates per-name and per-layer totals."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op_stack = None
        self.totals = {}
        self.layer_self_s = {}
        self.missing = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self, targets=TARGETS):
        """Wrap every target that exists, wherever the package binds it; record the rest."""
        for module_name, path, name, layer, work in targets:
            try:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                func = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            traced = self._wrap(func, name, layer, work)
            if owners:  # a method: patch the class
                setattr(owner, attr, traced)
                continue
            package = module_name.split(".")[0]
            for mod_name, module in list(sys.modules.items()):
                if mod_name != package and not mod_name.startswith(package + "."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is func:
                        setattr(module, key, traced)
        return self

    def _wrap(self, func, name, layer, work):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer._open(name, layer)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                tracer._close(span, _work(result, work) if work else 0)

        return traced

    def _open(self, name, layer):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._op_stack:
            parent = self._op_stack[-1]
        else:
            parent = None
        span = _Span(name, layer, parent)
        if layer == "correlation" and name == "construct":
            # Each probe of a transition search builds one correlator.
            p = parent
            while p is not None and p.layer != "transition":
                p = p.parent
            if p is not None:
                p.probes += 1
        stack.append(span)
        return span

    def _close(self, span, work):
        end = time.perf_counter()
        self._stack().pop()
        duration = end - span.start
        self_s = duration - _covered(span.children, span.start, end)
        if span.parent is not None:
            span.parent.children.append((span.start, end))
        if span.layer == "op":
            return
        # A call nested directly in a span of the same name (Correlator.__call__
        # delegating to matrix) is part of that call, not a new one.
        nested = span.parent is not None and span.parent.name == span.name
        with self._lock:
            t = self.totals.get(span.name)
            if t is None:
                t = self.totals[span.name] = _Totals()
            t.calls += 0 if nested else 1
            t.self_s += self_s
            t.work += work
            t.probes += span.probes
            if span.layer == "transition":
                t.durations.append(duration)
            self.layer_self_s[span.layer] = self.layer_self_s.get(span.layer, 0.0) + self_s

    @contextlib.contextmanager
    def op(self):
        """Mark one benchmark operation as the root span of everything it calls."""
        self._op_stack = self._stack()
        span = self._open("op", "op")
        try:
            yield
        finally:
            self._close(span, 0)
            self._op_stack = None

    def unmeasured(self):
        """Probe metrics that read 0 only because no probe was seen.

        A probe is counted as a ``Correlator`` construction inside a search.
        A program that finds roots without constructing one per probe shows
        0 probes while searches ran: that is not measured, not none made.
        """
        searches = sum(self.totals[n].calls for n in SEARCH_SPANS if n in self.totals)
        probes = sum(self.totals[n].probes for n in SEARCH_SPANS if n in self.totals)
        if searches and not probes:
            return ["transition.probes", "transition.probes_per_search"]
        return []

    def metrics(self, ops):
        """Per-layer metrics by name, with their units."""
        empty = _Totals()

        def t(name):
            return self.totals.get(name, empty)

        def calls(name):
            return t(name).calls

        def p50_ms(name):
            d = t(name).durations
            return 1e3 * statistics.median(d) if d else 0.0

        searches = sum(calls(n) for n in SEARCH_SPANS)
        probes = sum(t(n).probes for n in SEARCH_SPANS)
        evaluations = calls("evaluate")
        layer = self.layer_self_s.get
        return {
            "optimizer.maximize_calls": (calls("maximize"), "count"),
            "optimizer.iterations": (t("maximize").work, "count"),
            "optimizer.self_s": (layer("optimizer", 0.0), "s"),
            "witness.evaluations": (evaluations, "count"),
            "witness.self_s": (layer("witness", 0.0), "s"),
            "witness.evaluations_per_op": (evaluations / ops if ops else 0.0, "ratio"),
            "transition.searches": (searches, "count"),
            "transition.probes": (probes, "count"),
            "transition.probes_per_search": (probes / searches if searches else 0.0, "ratio"),
            "transition.self_s": (layer("transition", 0.0), "s"),
            "transition.delta_sq_p50_ms": (p50_ms("delta_sq"), "ms"),
            "transition.Delta_sq_p50_ms": (p50_ms("Delta_sq"), "ms"),
            "transition.p_p50_ms": (p50_ms("p"), "ms"),
            "correlation.constructions": (calls("construct"), "count"),
            "correlation.construct_self_s": (t("construct").self_s, "s"),
            "correlation.calls": (calls("call"), "count"),
            "correlation.call_self_s": (t("call").self_s, "s"),
            "kernel.builds": (calls("kernel_build"), "count"),
            "kernel.weights_computed": (t("kernel_build").work, "count"),
            "kernel.self_s": (layer("kernel", 0.0), "s"),
            "cli.runs": (calls("cli_run"), "count"),
            "cli.self_s": (layer("cli", 0.0), "s"),
        }

