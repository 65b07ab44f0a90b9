"""Span recorders wrapped around erasure_lab's public functions.

`Tracer.install()` replaces each traced function in every erasure_lab module
that binds it (so `erasure.distant_measure` is wrapped as well as
`measurement.distant_measure`), and wraps the `__post_init__` of traced
dataclasses so `isinstance` checks still hold.  Spans carry their parent's
id and the op id, stay in memory while the workload runs, and are written out
by `write_spans` at the end.  Untraced runs never call `install`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# Layer boundaries the per-layer metrics are named after: module -> names.
FUNCTIONS = {
    "cli": ("parse_config", "execute"),
    "erasure": ("quadrature_grid", "run_simple_erasure", "run_delayed_choice", "verify_equality"),
    "measurement": ("couple_shift_register", "distant_measure", "cut_compare"),
    "states": ("apply_unitary", "partial_trace", "haar_random_unitary"),
    "schmidt": ("schmidt_decompose", "reschmidt"),
    "coherence": ("search_symmetric_bases", "classify_symmetry"),
}
DATACLASSES = {
    "states": ("StateVector",),
    "erasure": ("ProbabilityTable",),
}
# The benchmark's own work inside an op; every traced span descends from it.
ROOT_SPAN = "bench.op"

SPAN_NAMES = tuple(
    f"{module}.{name}"
    for table in (FUNCTIONS, DATACLASSES)
    for module, names in table.items()
    for name in names
)


class Tracer:
    def __init__(self):
        # (span_id, parent_id, op_id, name, start_ns, end_ns)
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.state_bytes = 0
        self._stack = [0]
        self._next_id = 1
        self._op_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def _enter(self) -> tuple[int, int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        return span_id, parent

    def _exit(self, span_id: int, parent: int, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((span_id, parent, self._op_id, name, start, end))

    def op(self, run):
        """Run one operation under a root span; returns its result."""
        self._op_id += 1
        return self._wrap(ROOT_SPAN, run)()

    def _wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent = self._enter()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span_id, parent, name, start)
            if after is not None:
                after(args)
            return result

        return traced

    def _count_state_bytes(self, args) -> None:
        # StateVector.__post_init__ copies the amplitudes once per construction.
        self.state_bytes += args[0].amplitudes.nbytes

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "erasure_lab"]
        for module_name, names in FUNCTIONS.items():
            home = sys.modules[f"erasure_lab.{module_name}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{module_name}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)
        for module_name, names in DATACLASSES.items():
            home = sys.modules[f"erasure_lab.{module_name}"]
            for name in names:
                cls = getattr(home, name)
                original = cls.__dict__["__post_init__"]
                after = self._count_state_bytes if name == "StateVector" else None
                self._restore.append((cls, "__post_init__", original))
                cls.__post_init__ = self._wrap(f"{module_name}.{name}", original, after)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: total self time (ns), total time (ns) and call count."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, parent, _, _, start, end in self.spans:
            child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"self_ns": 0, "total_ns": 0, "calls": 0})
        for span_id, _, _, name, start, end in self.spans:
            entry = out[name]
            entry["self_ns"] += end - start - child_ns[span_id]
            entry["total_ns"] += end - start
            entry["calls"] += 1
        return dict(out)

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: span_id, parent_id, op_id, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
