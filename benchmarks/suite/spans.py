"""In-memory spans recorded by the benchmark around calls into each layer.

The spans live in the benchmark, not in ``src/``: a traced replay wraps the
public functions it calls (``plan_sweep``, ``run_job``, ``ResultsStore.put``
...) and records name, start, end and parent for each call.  Nothing is
written while measuring; :meth:`Tracer.to_json` is called once at the end.
A layer's self time is its spans' duration minus what their child spans
cover.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """Spans of one workload replay, kept as ``[name, start, end, parent]``."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[list] = []
        self._open: List[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self) -> None:
        self.spans[self._open.pop()][2] = perf_counter()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a span around every call."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def wrap_methods(self, obj: Any, prefix: str, names) -> Any:
        """Shadow ``obj``'s named methods with traced ones (instance
        attributes, so calls made *inside* the library — ``load_results``
        calling ``self.get`` — are seen too) and return ``obj``."""
        for name in names:
            setattr(obj, name, self.wrap(f"{prefix}.{name}", getattr(obj, name)))
        return obj

    # -- reading ---------------------------------------------------------------

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus the part direct children cover."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def coverage(self, index: int = 0) -> float:
        """Share of span ``index`` (default: the root) its children account for."""
        _, start, end, _ = self.spans[index]
        covered = sum(e - s for _, s, e, p in self.spans if p == index)
        return covered / (end - start) if end > start else 0.0

    def to_json(self) -> Dict[str, Any]:
        """Compact columns: ``names`` once, then one row per span —
        ``[name index, start, end, parent row or null]`` with times in seconds
        since the first span started, rounded to the microsecond."""
        names: List[str] = []
        index: Dict[str, int] = {}
        origin: Optional[float] = self.spans[0][1] if self.spans else None
        rows = []
        for name, start, end, parent in self.spans:
            if name not in index:
                index[name] = len(names)
                names.append(name)
            rows.append(
                [index[name], round(start - origin, 6), round(end - origin, 6), parent]
            )
        return {"workload": self.workload, "names": names, "spans": rows}
