"""In-memory call tracing of the fracppk layers, from outside the package.

Every public function of a layer module is replaced by a timing wrapper at
each module binding that refers to it (the defining module, the package
namespace, and every sibling module that imported it), so calls between
layers and calls from the benchmark all pass through the wrapper.  A span is
``(name, start, end, parent, request_id, extra)``; spans stay in memory and
are written out by :meth:`Tracer.write` when the pass ends.

Self time of a span is its duration minus the durations of its direct
children.  The package runs single-threaded under the benchmark
(``FRACPPK_THREADS=1``), so children never overlap and that difference is
exactly the part of the interval no child covers.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("combinatorics", "specfun", "subordinators", "processes", "fields", "verify", "cli")

# Sub-microsecond helpers called in inner loops; left unwrapped so their cost
# is part of the caller's self time rather than tracing overhead.
_UNWRAPPED = {"subordinators.as_generator", "processes.batch_pgf"}


def _variant_label(variant) -> str:
    return "ppok" if variant is None else {
        "TimeFractional": "tf",
        "SpaceFractional": "sf",
        "TemperedTimeSpace": "ttsf",
    }.get(type(variant).__name__, "other")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _size(result) -> int:
    return int(getattr(result, "size", 1))


# Per-function annotators: (args, kwargs, result) -> (name suffix, extra).
# extra is a count of values produced, or a hashable key for distinct-call
# counting; both are recorded on the span.
_ANNOTATE = {
    "processes.pmf_table": lambda a, k, r: (_variant_label(_arg(a, k, 3, "variant")), None),
    "processes.sample_fractional_counts": lambda a, k, r: (
        _variant_label(_arg(a, k, 1, "variant")),
        _size(r),
    ),
    "subordinators.sample_increment": lambda a, k, r: ("", _size(r)),
    "subordinators.sample_inverse_at": lambda a, k, r: ("", _size(r)),
    "specfun.ml_derivative": lambda a, k, r: ("", (int(a[0]), float(a[1]), float(a[2]))),
    "cli.main": lambda a, k, r: (str((_arg(a, k, 0, "argv") or ["?"])[0]), None),
}


class Tracer:
    """Wraps the layer functions once; ``active`` switches recording on and off."""

    def __init__(self) -> None:
        self.active = False
        self.request_id = -1
        self.spans: list = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {name: importlib.import_module(f"fracppk.{name}") for name in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module("fracppk")]
        for layer, module in modules.items():
            for fname in getattr(module, "__all__", ()):
                fn = getattr(module, fname, None)
                qual = f"{layer}.{fname}"
                if not inspect.isfunction(fn) or qual in _UNWRAPPED:
                    continue
                wrapper = self._wrap(qual, fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._originals.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._originals):
            setattr(ns, attr, fn)
        self._originals.clear()

    def _wrap(self, qual: str, fn):
        annotate = _ANNOTATE.get(qual)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                name, extra = qual, None
                if annotate is not None and result is not None:
                    suffix, extra = annotate(args, kwargs, result)
                    if suffix:
                        name = f"{qual}.{suffix}"
                spans[index] = (name, start, end, parent, self.request_id, extra)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def summary(self, scale: dict | None = None) -> dict:
        """Per span name: calls, inclusive and self seconds, values, distinct keys.

        ``scale`` maps a request id to the factor its span times are scaled by
        (the host speed correction); times are raw without it.
        """
        scale = scale or {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _rid, _extra in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "values": 0})
        keys: dict = defaultdict(set)
        for i, (name, start, end, parent, rid, extra) in enumerate(self.spans):
            row = out[name]
            factor = scale.get(rid, 1.0)
            row["calls"] += 1
            row["incl_s"] += (end - start) * factor
            row["self_s"] += (end - start - child_time[i]) * factor
            if isinstance(extra, int):
                row["values"] += extra
            elif extra is not None:
                keys[name].add(extra)
        for name, distinct in keys.items():
            out[name]["distinct"] = len(distinct)
        # first-crossing work: increments drawn directly inside sample_inverse_at
        nested = 0
        for name, _s, _e, parent, _rid, extra in self.spans:
            if name == "subordinators.sample_increment" and parent >= 0:
                if self.spans[parent][0] == "subordinators.sample_inverse_at":
                    nested += extra
        out["subordinators.sample_increment.in_first_crossing"]["values"] = nested
        return {name: dict(row) for name, row in out.items()}

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("index", "name", "start", "end", "parent", "request", "extra"))
            for i, (name, start, end, parent, rid, extra) in enumerate(self.spans):
                writer.writerow((i, name, repr(start), repr(end), parent, rid, extra))
