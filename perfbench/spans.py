"""The benchmark's own spans, their Chrome-trace export and the layer table.

Spans are recorded on the benchmark thread around each call into a repro
layer.  Work that the benchmark can measure but not wrap in a span (the
kernel wall time a :class:`~repro.perfmodel.KernelTimer` collects inside a
solve) is attached to the enclosing span as *attributed* time of another
layer.  A span's self time is its duration minus its child spans and its
attributed time; the self times of a root and everything under it add up
to the root's duration exactly, and the root's own self time is reported
as "unattributed".
"""

from __future__ import annotations

import json
import pathlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: Optional[int]
    id: int
    end: float = 0.0
    attributed: Dict[str, float] = field(default_factory=dict)
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span recorder for one thread; a disabled one records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str, layer: str, **args) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1].id if self._stack else None
        record = Span(name, layer, time.perf_counter(), parent, len(self.spans), args=args)
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def attribute(self, layer: str, seconds: float) -> None:
        """Charge ``seconds`` of the innermost open span to ``layer``."""
        if self.enabled and self._stack:
            bucket = self._stack[-1].attributed
            bucket[layer] = bucket.get(layer, 0.0) + seconds

    # ------------------------------------------------------------------ #
    def layer_table(self, root: Span) -> Dict[str, float]:
        """Self seconds per layer under ``root``; sums to its duration."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        table: Dict[str, float] = {}

        def visit(span: Span, layer: str) -> None:
            kids = children.get(span.id, [])
            own = span.duration - sum(k.duration for k in kids)
            for other, seconds in span.attributed.items():
                table[other] = table.get(other, 0.0) + seconds
                own -= seconds
            table[layer] = table.get(layer, 0.0) + own
            for kid in kids:
                visit(kid, kid.layer)

        visit(root, "unattributed")
        return table

    def write_chrome_trace(self, path: pathlib.Path) -> None:
        """Chrome-trace (``chrome://tracing`` / Perfetto) JSON of every span."""
        if not self.spans:
            return
        origin = min(s.start for s in self.spans)
        events = []
        for span in self.spans:
            args = dict(span.args, layer=span.layer, parent=span.parent)
            if span.attributed:
                args["attributed_ms"] = {k: v * 1e3 for k, v in span.attributed.items()}
            events.append({
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": 1,
                "args": args,
            })
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def format_table(title: str, table: Dict[str, float], wall: float,
                 extra: Optional[Dict[str, float]] = None) -> str:
    """Human-readable layer table; the last row reconciles with ``wall``."""
    lines = [title, f"  {'layer':<18s} {'self ms':>11s} {'share':>7s}"]
    for layer, seconds in sorted(table.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<18s} {seconds * 1e3:11.1f} {seconds / wall:7.1%}")
    total = sum(table.values())
    lines.append(f"  {'sum':<18s} {total * 1e3:11.1f} {total / wall:7.1%}"
                 f"   (traced wall {wall * 1e3:.1f} ms)")
    for label, seconds in (extra or {}).items():
        lines.append(f"  {label}: {seconds * 1e3:.1f} ms")
    return "\n".join(lines)
