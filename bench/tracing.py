"""In-memory spans and counters for the traced benchmark run.

A span records name, start, end, its parent span and the job it belongs
to. Counters are kept per pass (one pass = one run through a job list),
so a count can be compared between commits for the same seed. Nothing is
written until ``dump`` is called at the end of the run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list = []     # (name, start, end, parent, job, attrs)
        self.counts: dict = {}    # (pass label, name) -> int
        self.job: str | None = None
        self.pass_label: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.job, attrs)

    def count(self, name: str, n: int = 1) -> None:
        key = (self.pass_label, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def durations(self, name: str, **match) -> list[float]:
        """Durations in seconds of every span called ``name`` whose
        attributes include ``match``."""
        return [end - start for (n, start, end, _, _, attrs) in self.spans
                if n == name and all(attrs.get(k) == v for k, v in match.items())]

    def total(self, name: str) -> int:
        return sum(v for (_, n), v in self.counts.items() if n == name)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job, attrs in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - self.t0, "end": end - self.t0,
                    "parent": parent, "job": job, **attrs}) + "\n")
            for (pass_label, name), value in sorted(self.counts.items(), key=str):
                fh.write(json.dumps({"count": name, "pass": pass_label,
                                     "value": value}) + "\n")
