"""Span tracing of the dlmg package from outside it, and a traced CLI entry point.

    python3 perfbench/tracer.py SPANS.json steady --config c.cfg --out o --jobs 1

runs ``dlmg.cli.main`` in this process with every public function of the
package layers wrapped.  A wrapper replaces the function in every module
namespace that bound it (``cli`` imports ``steady_state`` and the like by
name), so calls made inside the package, such as ``steady_state`` calling
``liouvillian_matrix``, are traced too.  Each call records a span (name,
start, end, parent span); spans stay in memory and are written once, when
``main`` returns.  After ``main`` returns, and so outside every span, the
residual of each steady state ``steady_state`` returned is computed with
``lindblad.liouvillian_apply``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("operators", "models", "lindblad", "observables", "hp", "semiclassical", "spectrum", "cli")


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self.nnz = 0
        self._steady = []  # (spec, rho) pairs returned by steady_state
        self._apply = None  # the unwrapped lindblad.liouvillian_apply

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == "lindblad.liouvillian_matrix":
                self.nnz += int(result.nnz)
            elif name == "lindblad.steady_state":
                self._steady.append((args[0] if args else kwargs["spec"], result))
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer except ``cli``, in every namespace."""
        modules = [importlib.import_module(f"dlmg.{layer}") for layer in LAYERS]
        self._apply = importlib.import_module("dlmg.lindblad").liouvillian_apply
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.removeprefix("dlmg.")
                if layer not in LAYERS or layer == "cli" or obj.__name__.startswith("_"):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self.wrap(f"{layer}.{obj.__name__}", obj)
                setattr(module, attr, wrappers[obj])

    def max_residual(self) -> float:
        """Largest max-abs Liouvillian residual of the traced steady states."""
        return max((float(abs(self._apply(spec, rho)).max()) for spec, rho in self._steady),
                   default=0.0)

    def dump(self, path) -> None:
        record = {
            "trace_id": self.trace_id,
            "spans": [{"id": i, "name": n, "start": s, "end": e, "parent": p}
                      for i, (n, s, e, p) in enumerate(self.spans)],
            "nnz": self.nnz,
            "max_residual": self.max_residual(),
        }
        with open(path, "w") as fh:
            json.dump(record, fh)


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]].append((span["start"], span["end"]))
    out = []
    for span in spans:
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children[span["id"]]):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(span["end"] - span["start"] - covered)
    return out


def check_spans(spans: list, selfs: list) -> list:
    """Problems with the span tree: children outside their parent, negative self time."""
    problems = []
    for span, self_s in zip(spans, selfs):
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            if not parent["start"] <= span["start"] <= span["end"] <= parent["end"]:
                problems.append(f"span {span['id']} {span['name']} lies outside its parent")
        if self_s < -1e-9:
            problems.append(f"span {span['id']} {span['name']} has self time {self_s:.3e}")
    return problems


def main(argv: list) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer(trace_id=cli_argv[0])
    tracer.install()
    cli = importlib.import_module("dlmg.cli")
    try:
        return tracer.wrap("cli.main", cli.main)(cli_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
