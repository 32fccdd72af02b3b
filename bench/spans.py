"""Span tracing of the ``lics`` modules from outside the program.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper, in every ``lics`` namespace that holds it, so calls made
through ``from .dynamics import evolve`` are traced as well as direct
ones.  Each call records one span: name, start, end and the span that
was open when it began.  Spans are kept in flat arrays in memory and
reduced or saved only after the timed region.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

TRACED_MODULES = ("model", "transforms", "dynamics", "analysis", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        # bytes of every CSV file written through cli.write_csv
        self.csv_bytes = 0

    def _wrap(self, name: str, fn):
        ident = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        records_file = name == "cli.write_csv"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.start)
            self.name_id.append(ident)
            self.parent.append(self._open[-1] if self._open else -1)
            self.end.append(0.0)
            self._open.append(span)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                self._open.pop()
            if records_file:
                self.csv_bytes += Path(args[1]).stat().st_size
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of each traced ``lics`` module."""
        namespaces = [m for key, m in sys.modules.items() if key == "lics" or key.startswith("lics.")]
        for short in TRACED_MODULES:
            module = sys.modules[f"lics.{short}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapper)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """(calls, total seconds, self seconds) per traced function.

        Self time is a span's duration minus the durations of its child
        spans; children never outlive their parent, so they cannot overlap.
        """
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - child, minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(own[i])) for i, name in enumerate(self.names)}

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
