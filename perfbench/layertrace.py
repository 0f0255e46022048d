"""Layer tracing for the benchmark, done entirely from outside `lpm`.

`Tracer.install()` replaces every public function of each layer module
(plus the kernel's recursive workers `_infer` and `_conv`) by a wrapper,
in the defining module and in every module that imported the function by
name: `from .terms import instantiate` binds the function object at import
time, so patching `lpm.terms` alone would miss the calls made by `kernel`
and `llproof`.

Every wrapped call is counted.  A span opens only when control enters a
layer from another layer or from the benchmark; a call back into the same
layer is counted but gets no span, which keeps the recursion inside
`normalize` or `instantiate` from flooding the trace.  A span's self time
is its duration minus the time covered by its child spans.  Spans are kept
in memory (up to a cap, the rest only aggregated) and written out as JSON
when the traced run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("terms", "kernel", "signature", "dkparse", "sexp", "tff", "embed", "llproof", "cli")
# private functions worth counting: the kernel's typing and conversion
# recursions sit behind thin public entry points
WORKERS = {"kernel": ("_infer", "_conv")}
BENCH = "bench"

# work measured at span entry: characters of text to parse and entries
# submitted for installation (taken before the call, which may fail) ...
_INPUT_AMOUNTS = {
    "dkparse.parse_file": lambda args: len(args[0]),
    "sexp.loads": lambda args: len(args[0]),
    "sexp.loads_one": lambda args: len(args[0]),
    "signature.install_entries": lambda args: len(args[1]),
}
# ... and characters of text printed
_OUTPUT_AMOUNTS = {"dkparse.print_file": len}


class Tracer:
    def __init__(self, max_spans: int = 20_000):
        self.calls: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        # span entries by (entry function, layer it was entered from)
        self.entries: dict[tuple[str, str], int] = defaultdict(int)
        self.amount: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.request = 0
        self.spans_total = 0
        self.max_spans = max_spans
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self._layer = [BENCH]
        self._stack: list[list] = []  # [span id, child time]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def call(self, key: str, layer: str, fn, *args, **kwargs):
        """Run `fn` inside a span named `key` charged to `layer`."""
        cur = self._layer
        parent_layer = cur[0]
        stack = self._stack
        span_id = self.spans_total
        self.spans_total += 1
        parent_id = stack[-1][0] if stack else -1
        frame = [span_id, 0.0]
        stack.append(frame)
        self.entries[(key, parent_layer)] += 1
        cur[0] = layer
        measure = _INPUT_AMOUNTS.get(key)
        if measure is not None:
            self.amount[key] += measure(args)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            measure = _OUTPUT_AMOUNTS.get(key)
            if measure is not None:
                self.amount[key] += measure(result)
            return result
        finally:
            end = perf_counter()
            cur[0] = parent_layer
            stack.pop()
            duration = end - start
            self.self_s[key] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            if len(self.spans) < self.max_spans:
                self.spans.append((span_id, parent_id, self.request, key, start, end))

    # -- patching ------------------------------------------------------

    def _wrap(self, key: str, layer: str, fn):
        calls, failed, cur, call = self.calls, self.failed, self._layer, self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            try:
                if cur[0] == layer:
                    return fn(*args, **kwargs)
                return call(key, layer, fn, *args, **kwargs)
            except BaseException:
                failed[key] += 1
                raise

        return wrapper

    def install(self) -> None:
        import lpm.cli  # noqa: F401 - the cli layer must be loaded to be patched
        from lpm import kernel

        replace: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"lpm.{layer}"]
            for name, fn in list(vars(module).items()):
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if name.startswith("_") and name not in WORKERS.get(layer, ()):
                    continue
                replace[id(fn)] = self._wrap(f"{layer}.{name}", layer, fn)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, name, value))
                    setattr(module, name, wrapper)

        # rewrite steps: every successful charge to any Fuel budget
        step = kernel.Fuel.step
        calls = self.calls

        def counted_step(fuel):
            step(fuel)
            calls["kernel.rewrite_steps"] += 1

        self._patches.append((kernel.Fuel, "step", step))
        kernel.Fuel.step = counted_step

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of the exact counters, for comparing two passes."""
        return {
            "calls": dict(self.calls),
            "failed": dict(self.failed),
            "entries": dict(self.entries),
            "amount": dict(self.amount),
        }

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for key, seconds in self.self_s.items():
            out[key.split(".", 1)[0]] += seconds
        return out

    def write(self, path) -> None:
        """Write the kept spans (ids, parent, request, name, start, end)."""
        doc = {
            "fields": ["id", "parent", "request", "name", "start", "end"],
            "spans_total": self.spans_total,
            "spans_kept": len(self.spans),
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
