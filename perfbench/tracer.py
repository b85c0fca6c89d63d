"""Span tracing of eigenpert's public functions, installed from outside.

`Tracer.install` replaces every public module-level function of the traced
modules with a timing wrapper, in every eigenpert namespace that holds it
(so `from .symmat import jacobi_eig` in another module is traced too).
Each call records one span: name, start, end, parent and whether it raised.
Spans stay in memory and are written out once, at the end of a run.
Nothing under `src/` changes; `uninstall` restores the originals.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("harness", "symmat", "rankone", "bounds", "cli")


@dataclass(slots=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into Tracer.spans, -1 for a root span
    raised: bool
    phase: str

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)  # phase -> name -> value
    phase: str = "workload"
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def count(self, name: str, n=1) -> None:
        counters = self.counters.setdefault(self.phase, {})
        counters[name] = counters.get(name, 0) + n

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        on_result = _RESULT_HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            raised = True
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                span = spans[idx] = Span(name, t0, t1, parent, raised, tracer.phase)
            if on_result is not None:
                on_result(tracer, span, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Wrap the public functions of eigenpert.<layer> for every layer."""
        import importlib

        modules = [importlib.import_module(f"eigenpert.{layer}") for layer in LAYERS]
        namespaces = [sys.modules["eigenpert"], *modules]
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", obj)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            self._patched.append((ns, key, obj))
                            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, obj in reversed(self._patched):
            setattr(ns, key, obj)
        self._patched.clear()

    def write(self, path) -> None:
        """Spans as gzip'd CSV: index,name,start_ns,end_ns,parent,raised,phase."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,raised,phase\n")
            for i, s in enumerate(self.spans):
                fh.write(
                    f"{i},{s.name},{s.start_ns},{s.end_ns},{s.parent},"
                    f"{int(s.raised)},{s.phase}\n"
                )


def _count_deflated(tracer: Tracer, span: Span, sol) -> None:
    tracer.count("rankone.deflated", int(sol.deflated.sum()))


def _count_entries(tracer: Tracer, span: Span, report) -> None:
    tracer.count("bounds.entries", len(report.entries))


def _per_dimension(tracer: Tracer, span: Span, eig) -> None:
    tracer.count(f"symmat.jacobi_eig.d{eig.d}.calls")
    tracer.count(f"symmat.jacobi_eig.d{eig.d}.ms", span.ms)


# Counters read from the results of particular calls.
_RESULT_HOOKS = {
    "rankone.secular_eigenvalues": _count_deflated,
    "bounds.make_report": _count_entries,
    "symmat.jacobi_eig": _per_dimension,
}


def _merged(dicts) -> dict:
    out: dict = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(tracer: Tracer, phase: str | None = None) -> dict:
    """Aggregate spans into totals: per-name inclusive ms and calls, self ms,
    outermost-call ms per layer, and the counters.  With `phase`, only the
    spans and counts recorded in that phase count."""
    spans = tracer.spans
    child_ms = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_ms[s.parent] += s.ms
    keep = [phase is None or s.phase == phase for s in spans]
    total_ms: dict = {}
    self_ms: dict = {}
    calls: dict = {}
    raised: dict = {}
    layer_outer_ms: dict = {}
    for i, s in enumerate(spans):
        if not keep[i]:
            continue
        total_ms[s.name] = total_ms.get(s.name, 0.0) + s.ms
        self_ms[s.name] = self_ms.get(s.name, 0.0) + s.ms - child_ms[i]
        calls[s.name] = calls.get(s.name, 0) + 1
        raised[s.name] = raised.get(s.name, 0) + int(s.raised)
        layer = layer_of(s.name)
        if s.parent < 0 or layer_of(spans[s.parent].name) != layer:
            layer_outer_ms[layer] = layer_outer_ms.get(layer, 0.0) + s.ms
    return {
        "total_ms": total_ms,
        "self_ms": self_ms,
        "calls": calls,
        "raised": raised,
        "layer_outer_ms": layer_outer_ms,
        "counters": _merged(c for p, c in tracer.counters.items() if phase in (None, p)),
    }
