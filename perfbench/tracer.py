"""Span tracer for the calls into zerobound's layer modules.

`Tracer.install` wraps every public function of the six layer modules and
rebinds each name in every zerobound module that holds it, so calls that
cross modules (bounds -> selberg.derive_quantities) and calls inside one
module both pass through a wrapper.  Each call records a span (name, start,
end, parent span, operation id) in flat in-memory arrays; nothing is
written until `write_spans` at the end.  `restore` puts the original
bindings back and checks that they are back.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

PACKAGE = "zerobound"
LAYERS = ("selberg", "gammabounds", "bounds", "newform", "zeros", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        #: operation id stamped on new spans; -1 outside timed operations
        self.op_id = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap the public functions of every imported layer in every zerobound module."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for module in self._package_modules():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def restore(self) -> None:
        """Put every original binding back; raise if one did not come back."""
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        for module, attr, obj in self._saved:
            if getattr(module, attr) is not obj:
                raise RuntimeError(f"{module.__name__}.{attr} was not restored")
        self._saved.clear()

    @staticmethod
    def _package_modules():
        return [
            module for key, module in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        start, end, names, parent, op, stack = (
            self.start, self.end, self.name, self.parent, self.op, self._stack,
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(start)
            names.append(name_id)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_ns, and calls made from select_strip spans.

        Only spans stamped with an operation id (>= 0) are counted.  Self time
        is a span's duration minus the durations of its direct children.
        """
        count = len(self.start)
        child_ns = [0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        strip_id = self.names.index("selberg.select_strip") if "selberg.select_strip" in self.names else -1
        stats: dict[str, dict[str, float]] = {}
        for i in range(count):
            if self.op[i] < 0:
                continue
            entry = stats.setdefault(
                self.names[self.name[i]], {"calls": 0, "self_ns": 0, "calls_from_select_strip": 0}
            )
            entry["calls"] += 1
            entry["self_ns"] += self.end[i] - self.start[i] - child_ns[i]
            p = self.parent[i]
            if p >= 0 and self.name[p] == strip_id:
                entry["calls_from_select_strip"] += 1
        return stats

    def write_spans(self, path) -> None:
        """Write every span as gzip-compressed CSV, times relative to the first span."""
        origin = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op,name,start_ns,end_ns,parent\n")
            fh.writelines(
                f"{self.op[i]},{self.names[self.name[i]]},{self.start[i] - origin},"
                f"{self.end[i] - origin},{self.parent[i]}\n"
                for i in range(len(self.start))
            )
