"""In-memory span tracing at the layer boundaries of ``cevasian``.

A :class:`Tracer` replaces module-level names (the names through which the
layers call each other, such as ``rate_cev.hyp2f1`` or ``pricing.rate_cev``)
with wrappers that record a span per call: name, start, end and the span
that was open when the call began.  Nothing is patched unless a tracer is
installed, so untraced runs execute the program unchanged.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        # each span is [name, start, end, parent index or -1, attrs or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn, attrs=None):
        """Return ``fn`` wrapped so that every call records a span ``name``;
        ``attrs(result)`` may attach a dict of counts read from the result."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(out)
            return out

        return traced

    def patch(self, module, attr: str, name: str, attrs=None) -> None:
        orig = getattr(module, attr)
        self._patched.append((module, attr, orig))
        setattr(module, attr, self.wrap(name, orig, attrs))

    def unpatch(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.unpatch()

    def write(self, path) -> None:
        """Write the spans as {"names": [...], "spans": [[name index, start,
        end, parent, attrs], ...]} with times in seconds."""
        index: dict[str, int] = {}
        rows = [[index.setdefault(s[0], len(index)), s[1], s[2], s[3], s[4]]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": list(index), "spans": rows}, fh)


class SpanStats:
    """Durations, self times and ancestry queries over a finished trace."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.children: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.children[s[3]].append(i)
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s[0]].append(i)

    def ids(self, *names: str) -> list[int]:
        return sorted(i for n in names for i in self.by_name.get(n, ()))

    def duration(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def self_time(self, i: int) -> float:
        """Duration minus the part covered by direct child spans (children
        of one span run one after another, so their durations add)."""
        return self.duration(i) - sum(self.duration(c) for c in self.children[i])

    def descendants(self, i: int, *names: str) -> list[int]:
        out, todo = [], list(self.children[i])
        while todo:
            c = todo.pop()
            if self.spans[c][0] in names:
                out.append(c)
            todo.extend(self.children[c])
        return out
