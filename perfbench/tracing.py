"""In-memory spans around the calls the benchmark makes into each layer.

Every operation gets a root span named ``bench.op``; each library call made
for it gets a child span named ``<module>.<function>`` (``cli.<command>`` for
command-line calls).  Spans are timed from outside the program and kept in
memory until the run ends.  Per-layer metrics are derived from them alone.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

ROOT = "bench.op"


@dataclass
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int
    # "ok", "expected" (a documented refusal the operation asked for) or
    # "unexpected" (any other exception escaping the call).
    status: str = "ok"
    counts: dict = field(default_factory=dict)


class NullTracer:
    """Calls straight through; used for the untraced, measured rounds."""

    def call(self, name, fn, *args, expect=(), refused=None, counts=None, **kwargs):
        return fn(*args, **kwargs)

    def begin_op(self) -> None:
        pass

    def end_op(self) -> None:
        pass


class Tracer(NullTracer):
    """Records a span around every call and one root span per operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._op = -1
        self._root: Span | None = None

    def begin_op(self) -> None:
        self._op += 1
        now = time.perf_counter_ns()
        self._root = Span(len(self.spans), ROOT, now, now, None, self._op)
        self.spans.append(self._root)

    def end_op(self) -> None:
        self._root.end_ns = time.perf_counter_ns()
        self._root = None

    def call(self, name, fn, *args, expect=(), refused=None, counts=None, **kwargs):
        """Time ``fn(*args, **kwargs)`` as a child span of the current operation.

        ``expect`` names the exception types that are a documented refusal
        here; ``refused(result)`` marks a returned result as one (a command
        exiting with code 2 as asked).  ``counts(result)`` reads counters off
        the returned report into the span.
        """
        parent = self._root.span_id if self._root is not None else None
        span = Span(len(self.spans), name, time.perf_counter_ns(), 0, parent, self._op)
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.end_ns = time.perf_counter_ns()
            span.status = "expected" if isinstance(exc, expect) else "unexpected"
            raise
        span.end_ns = time.perf_counter_ns()
        if refused is not None and refused(result):
            span.status = "expected"
        if counts is not None:
            span.counts.update(counts(result))
        return result

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans) -> dict[int, int]:
    """Each span's duration minus the part of it that its children cover.

    Child intervals are merged first, so overlapping children are not
    subtracted twice, and clipped to the parent's interval.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0
        cursor = span.start_ns
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start_ns):
            lo = max(child.start_ns, cursor)
            hi = min(child.end_ns, span.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.span_id] = (span.end_ns - span.start_ns) - covered
    return out


def layer_metrics(spans, rounds: int) -> dict[str, float]:
    """Per-layer metrics per traced round, derived from the spans.

    For every span name: ``<name>.calls`` and ``<name>.busy_s`` (self time);
    per module: ``<module>.errors.expected`` and ``<module>.errors.unexpected``;
    plus every counter recorded on the spans, summed.  The root spans' self
    time is the benchmark's own work (input handling and output checks),
    reported as ``bench.oracle.busy_s``.
    """
    selfs = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        if span.name == ROOT:
            totals["bench.oracle.busy_s"] += selfs[span.span_id] / 1e9
            continue
        module = span.name.split(".", 1)[0]
        totals[f"{span.name}.calls"] += 1
        totals[f"{span.name}.busy_s"] += selfs[span.span_id] / 1e9
        totals[f"{module}.errors.expected"] += span.status == "expected"
        totals[f"{module}.errors.unexpected"] += span.status == "unexpected"
        for key, value in span.counts.items():
            totals[key] += value
    out = {key: value / rounds for key, value in totals.items()}
    checked = out.get("oqrw.check_hb.checked", 0.0)
    skipped = out.get("oqrw.check_hb.skipped", 0.0)
    if checked + skipped:
        out["oqrw.check_hb.useful_frac"] = checked / (checked + skipped)
    return out
