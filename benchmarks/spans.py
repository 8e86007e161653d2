"""Outside-in tracing: spans recorded around calls into toonbench.

The tracer replaces a public function at the module attribute its caller
looks up (``toonbench.harness.parse_toon``, ``toonbench.mask.engine.advance``
...) with a wrapper that records one span per call: name, start, end and the
enclosing span.  Spans stay in memory until :meth:`Tracer.dump`.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, start_ns, end_ns, parent index]
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patched: list = []

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` with a span per call.  ``count(counts, args, result, error)``
        runs after the span closes, to add counters at the same boundary."""
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter_ns, self.counts

        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                record[2] = clock()
                stack.pop()
                if count is not None:
                    count(counts, args, None, e)
                raise
            record[2] = clock()
            stack.pop()
            if count is not None:
                count(counts, args, result, None)
            return result

        return traced

    def patch(self, owner, attr: str, name: str,
              count: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_ns(self) -> Dict[str, int]:
        """Span name -> total self time in nanoseconds."""
        covered: Dict[int, int] = defaultdict(int)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, int] = defaultdict(int)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] += end - start - covered[i]
        return out

    def calls(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def durations_ns(self, name: str) -> List[int]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def dump(self, path) -> None:
        """One JSON array per line: [id, parent id, name, start ns, end ns]."""
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps([i, parent, name, start, end]) + "\n")
