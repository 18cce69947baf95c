"""In-memory spans around calls into the package's layers.

The tracer rebinds each traced function, wherever a module of the package
holds a reference to it (module globals and module-level dicts), to a
wrapper that records a span, and restores the originals afterwards.  Spans
stay in memory until the run writes them out.

A span is (name, start, end, parent, op, busy, info): parent is the index of
the enclosing span or -1, op is the benchmark operation id, busy is the time
spent inside the call (for a generator, only the time inside its own steps),
and info is a small summary of the call's size and result.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Info = Optional[Callable[[tuple, object], object]]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.op: object = None
        self._stack: List[int] = []
        self._restore: List[Tuple[dict, object, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op, end - start, None)

    def _plain(self, fn: Callable, name: str, info: Info) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, end - start, None)
            if info is not None:
                spans[idx] = spans[idx][:6] + (info(args, result),)
            return result

        return wrapper

    def _generator(self, fn: Callable, name: str, info: Info) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            start = clock()
            it = fn(*args, **kwargs)
            busy = clock() - start
            steps = 0
            try:
                while True:
                    t = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        busy += clock() - t
                        break
                    busy += clock() - t
                    steps += 1
                    yield item
            finally:
                spans.append(
                    (name, start, clock(), parent, self.op, busy,
                     info(args, steps) if info is not None else None)
                )

        return wrapper

    def install(self, modules: Sequence, targets: Sequence[Tuple[object, str, str, bool, Info]]) -> None:
        """targets: (module, attribute, span name, is generator, info)."""
        wrappers: Dict[int, object] = {}
        for module, attr, name, generator, info in targets:
            fn = getattr(module, attr)
            make = self._generator if generator else self._plain
            wrappers[id(fn)] = (fn, make(fn, name, info))
        for module in modules:
            namespace = vars(module)
            # module-level dicts too, such as a registry of builder functions
            for table in [namespace] + [v for v in namespace.values() if isinstance(v, dict)]:
                for key, value in list(table.items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        table[key] = hit[1]
                        self._restore.append((table, key, value))

    def uninstall(self) -> None:
        for table, key, value in reversed(self._restore):
            table[key] = value
        self._restore.clear()

    def self_times(self) -> List[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[5]
        return [span[5] - c for span, c in zip(self.spans, child)]

    def write(self, path, workload: str) -> None:
        """One header line, then one JSON array per span; times in
        microseconds from the first span's start."""
        selfs = self.self_times()
        t0 = self.spans[0][1] if self.spans else 0.0
        fields = ["name", "start_us", "end_us", "parent", "op", "busy_us", "self_us"]
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"workload": workload, "fields": fields}) + "\n")
            for (name, start, end, parent, op, busy, _), own in zip(self.spans, selfs):
                row = [name, round((start - t0) * 1e6, 1), round((end - t0) * 1e6, 1), parent, op,
                       round(busy * 1e6, 2), round(own * 1e6, 2)]
                out.write(json.dumps(row, separators=(",", ":")) + "\n")
