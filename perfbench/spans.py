"""Spans recorded from the benchmark's own files, and the arithmetic on them.

The traced run wraps the system's public objects in thin delegating
proxies that record one span per call into a :class:`SpanLog`:

* :class:`RunnerProxy` around ``ResilientBatchRunner.run``
  (``resilience.run``),
* :class:`EngineProxy` around ``BitPackedUniVSA.scores``
  (``inference.scores``),
* :class:`ScrubberProxy` around ``IntegrityScrubber.scrub``
  (``integrity.scrub``),
* :class:`ServerProxy` around ``MicroBatchServer.submit``
  (``serve.submit``, one request id per call).

Every other attribute is delegated, so the system sees the object it
would see without tracing.  Spans stay in memory; :func:`link` resolves
parents after the run and :func:`write_spans` stores them as JSON
lines.  Nothing here is instrumented inside ``src/``.

Engine calls run on the runner's pool threads, and with a pipelined
server two ``run`` calls can overlap, so a parent cannot come from the
calling thread.  An engine span's parent is the ``run`` span whose
interval contains it and whose input rows equal the shard it scored.  A
request's batch is the ``run`` span whose result array its returned
score row is a view of.
"""

from __future__ import annotations

import itertools
import json
import threading
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from time import perf_counter

import numpy as np

RUN = "resilience.run"
SCORES = "inference.scores"
SCRUB = "integrity.scrub"
SUBMIT = "serve.submit"


@dataclass
class Span:
    """One timed call.  ``parent`` is the causing span; ``batch`` links a
    request span to the ``run`` span that computed its answer."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None = None
    request: int | None = None
    batch: int | None = None
    samples: int = 0
    status: str = ""
    # In-memory only: what parent resolution compares.
    ref: object = field(default=None, repr=False, compare=False)
    offset: int = field(default=0, repr=False, compare=False)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        out = asdict(self)
        del out["ref"], out["offset"]
        return out


class SpanLog:
    """Thread-safe in-memory span store."""

    def __init__(self) -> None:
        self._spans: list[Span] = []
        self._ids = itertools.count()
        self._requests = itertools.count()
        self._lock = threading.Lock()

    def add(self, name: str, start: float, end: float, **fields) -> Span:
        with self._lock:
            span = Span(next(self._ids), name, start, end, **fields)
            self._spans.append(span)
        return span

    def next_request(self) -> int:
        with self._lock:
            return next(self._requests)

    @property
    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)


def write_spans(spans, path) -> None:
    """Store spans as JSON lines (exact floats: ``json`` writes repr)."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.record()) + "\n")


def read_spans(path) -> list[Span]:
    """Spans written by :func:`write_spans`."""
    with open(path, encoding="utf-8") as handle:
        return [Span(**json.loads(line)) for line in handle if line.strip()]


def _root(array: np.ndarray) -> np.ndarray:
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


# ---------------------------------------------------------------------------
# delegating proxies
# ---------------------------------------------------------------------------
class _Proxy:
    def __init__(self, target, log: SpanLog) -> None:
        self._target = target
        self._log = log

    def __getattr__(self, name):
        return getattr(self._target, name)


class EngineProxy(_Proxy):
    """``scores`` recorded as an ``inference.scores`` span."""

    def scores(self, levels):
        start = perf_counter()
        out = self._target.scores(levels)
        end = perf_counter()
        root = _root(levels)
        offset = 0
        if root is not levels and root.ndim == levels.ndim and root.strides[0]:
            offset = (levels.ctypes.data - root.ctypes.data) // root.strides[0]
        self._log.add(
            SCORES, start, end, samples=len(levels), ref=levels, offset=offset
        )
        return out


class RunnerProxy(_Proxy):
    """``run`` recorded as a ``resilience.run`` span."""

    def run(self, levels):
        start = perf_counter()
        try:
            result = self._target.run(levels)
        except Exception:
            self._log.add(RUN, start, perf_counter(), samples=len(levels), status="error")
            raise
        end = perf_counter()
        span = self._log.add(
            RUN, start, end, samples=len(levels), ref=(levels, result.scores)
        )
        span.status = "ok" if result.report.ok else "degraded"
        return result


class ScrubberProxy(_Proxy):
    """``scrub`` recorded as an ``integrity.scrub`` span."""

    def scrub(self):
        start = perf_counter()
        report = self._target.scrub()
        self._log.add(SCRUB, start, perf_counter(), status="clean" if report.clean else "dirty")
        return report


class ServerProxy(_Proxy):
    """``submit`` recorded as a ``serve.submit`` span with a request id."""

    async def submit(self, levels):
        request = self._log.next_request()
        start = perf_counter()
        response = await self._target.submit(levels)
        self._log.add(
            SUBMIT,
            start,
            perf_counter(),
            request=request,
            samples=1,
            status=response.status,
            ref=response.scores,
        )
        return response


# ---------------------------------------------------------------------------
# parent resolution and span arithmetic
# ---------------------------------------------------------------------------
def link(spans) -> None:
    """Resolve engine-span parents and request-span batches in place."""
    runs = sorted((s for s in spans if s.name == RUN), key=lambda s: s.start)
    starts = [run.start for run in runs]
    longest = max((run.duration for run in runs), default=0.0)
    for span in (s for s in spans if s.name == SCORES):
        candidates = []
        k = bisect_right(starts, span.start) - 1
        while k >= 0 and span.start - runs[k].start <= longest:
            run = runs[k]
            if span.end <= run.end:
                candidates.append(run)
            k -= 1
        if len(candidates) > 1:
            candidates = [run for run in candidates if _scored_rows_of(span, run)]
        if len(candidates) == 1:
            span.parent = candidates[0].id
    by_result = {
        id(_root(run.ref[1])): run for run in runs if run.ref is not None
    }
    for span in (s for s in spans if s.name == SUBMIT):
        if isinstance(span.ref, np.ndarray):
            run = by_result.get(id(_root(span.ref)))
            if run is not None:
                span.batch = run.id


def _scored_rows_of(span: Span, run: Span) -> bool:
    if run.ref is None or span.ref is None:
        return False
    rows = run.ref[0][span.offset : span.offset + span.samples]
    return rows.shape == span.ref.shape and bool(np.array_equal(rows, span.ref))


def busy_share(spans, intervals) -> float:
    """Share of the ``(start, end)`` intervals during which at least one
    of ``spans`` ran."""
    busy = total = 0.0
    for start, end in intervals:
        busy += covered(
            (max(s.start, start), min(s.end, end))
            for s in spans
            if s.end > start and s.start < end
        )
        total += end - start
    return busy / total


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans, name: str) -> dict[int, float]:
    """Self time of every ``name`` span: its duration minus the part of
    its interval that its child spans cover (children that ran in
    parallel are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        if span.name != name:
            continue
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.id, ())
            if end > span.start and start < span.end
        ]
        out[span.id] = span.duration - covered(clipped)
    return out


def queue_times(spans) -> list[float]:
    """Each linked request's span minus its batch's ``run`` span."""
    runs = {span.id: span for span in spans if span.name == RUN}
    return [
        span.duration - runs[span.batch].duration
        for span in spans
        if span.name == SUBMIT and span.batch in runs
    ]
