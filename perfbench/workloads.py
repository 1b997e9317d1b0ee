"""One benchmark workload, run in a fresh process.

    python perfbench/workloads.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --fixture DIR --work DIR --t0 T --out RESULT.json \\
        [--setup-only]

``--t0`` is the ``time.monotonic()`` reading the parent took just before
it started this process (the clock is system-wide on Linux), so
``setup_s`` runs from the start of the process to the first answered
warm-up operation.  ``--setup-only`` stops there.  The result is written
as JSON to ``--out``; ``run.py`` turns it into the benchmark's output.

With ``--trace 0`` the whole run is measured with the null registry
active.  With ``--trace 1`` the run is split in two halves on the same
inputs: the first untraced, the second with a ``MetricsRegistry``
installed and the span proxies of :mod:`spans` wrapped around the
system.  Per-layer metrics come from the second half; the ratio of the
two halves' throughput is the tracing overhead.  The second half's spans
are written to ``<work>/spans-<workload>.jsonl``.

The workload seed sets only the arrival schedule and which samples of the
256-sample bank are sent, in what order.  Models, bank and oracle come
from the fixture, which uses a fixed training seed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import resource
import selectors
import signal
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

import numpy as np

import spans as sp
import stats

WORKLOADS = ("batch-paper", "serve-steady", "serve-tcp")
MODEL = {
    "batch-paper": "paper",
    "serve-steady": "serve",
    "serve-tcp": "serve",
}
#: Offered load of the open-loop workloads in requests per second.  Fixed
#: and absolute: it never depends on a throughput measured in the run.
RATES = {"serve-steady": 3000.0}
#: Tail percentile reported as ``tail_ms``, fixed per workload so that
#: every window or chunk it is taken over leaves enough samples beyond it:
#: a batch call scores 256 samples and a TCP client waits for each answer,
#: so those two workloads make far fewer operations than the open loop.
#: Higher percentiles (p99 is also in the readable report) move with
#: every stall of a shared host: on a 2-vCPU VM the run-to-run spread of
#: the open loop's p99 over 1 s windows was three times that of its p95,
#: and that of batch-paper's p90 a third above its p75.
TAIL_Q = {
    "batch-paper": 75.0,
    "serve-steady": 95.0,
    "serve-tcp": 95.0,
}
BATCH = 256
#: ``ServePolicy.max_batch`` default: the batch the serve traffic model uses.
SERVE_BATCH = 64
TCP_CONNECTIONS = 2
WARMUP_OPS = 3
#: Unmeasured lead-in of the batch loop: the first second of calls in a
#: fresh process can run at half speed.
BATCH_WARMUP_S = 1.0
#: Longest a run may wait for outstanding answers after its last send.
DRAIN_TIMEOUT_S = 30.0
#: Answer statuses of ``ServeResponse`` as stored by the open loop.
STATUS_CODES = {
    "ok": 0, "rejected": 1, "failed": 2, "quarantined": 3, "error": 4, "unanswered": 5,
}
#: Length of the windows whose medians are reported.
WINDOW_S = 1.0
#: Unmeasured lead-in of every open-loop episode, sent at the same rate.
OPEN_LOOP_WARMUP_S = 0.5
#: Measured length of one open-loop episode, each on a fresh server.  The
#: SLO tracker scans every event of a server's life on each batch (ROADMAP
#: items 3b and 4), so latency creeps for as long as a server lives: a
#: run-long session has no operating point, and its figures would depend
#: on the run length.  Fixed-length episodes started from idle do have
#: one, and still show the creep within each episode.  Episodes outlast
#: the 5 s scrub interval, so the integrity scrubber runs in each.
EPISODE_S = 6.0


def _ms(seconds) -> float:
    return float(seconds) * 1e3


def _median_ms(values) -> float | None:
    return _ms(stats.percentile(values, 50)) if len(values) else None


def _tail_ms(values, q: float = 99.0):
    """``(percentile, ms)`` of the highest supported percentile up to q."""
    pct, value = stats.tail(values, q)
    return pct, (None if math.isnan(value) else _ms(value))


# ---------------------------------------------------------------------------
# end-to-end summary of one measured phase
# ---------------------------------------------------------------------------
class Phase:
    """Every operation of one measured phase, and what is reported of them.

    An operation is one batch call or one request.  ``at`` is when it was
    due (open loop) or sent (closed loop), in seconds into the measured
    time; its latency runs from then to its answer; ``good`` counts its
    rows answered ``ok`` with the exact score row, out of ``rows``.

    Figures are medians over ``WINDOW_S`` windows of the measured time,
    so one stall of the shared machine moves one window, not the run.
    Open-loop throughput is good rows per window second.  For a closed
    loop of ``clients`` callers it is ``clients x good rows / summed
    latency`` (Little's law), free of the quantisation that counting whole
    calls per window would add.
    """

    def __init__(self, unit: str, clients: int | None = None) -> None:
        self.unit = unit  # what one latency sample is: "call" or "request"
        self.clients = clients  # None for an open loop
        self.outcomes = stats.Outcomes()
        self.at: list[float] = []
        self.latency: list[float] = []
        self.good: list[int] = []
        self.rows: list[int] = []
        self.slo_ms: float | None = None  # the system's latency objective
        self.wall = 0.0  # measured seconds
        self.intervals: list[tuple[float, float]] = []  # measured perf_counter spans
        self.counts: dict[str, float] = {}  # registry deltas over the intervals
        self.late: list[float] = []  # open-loop generator lateness, seconds
        self.server_ms: list[float] = []  # TCP: latency the daemon reports
        self.wire_ms: list[float] = []  # TCP: round trip minus that latency

    def add(self, at: float, latency: float, statuses, exact) -> None:
        self.outcomes.add(statuses, exact)
        good = sum(1 for status, ok in zip(statuses, exact) if status == "ok" and ok)
        self.at.append(at)
        self.latency.append(latency)
        self.good.append(good)
        self.rows.append(len(statuses))

    def measured(self, start: float, end: float, before: dict, after: dict) -> None:
        """Close one measured interval and its registry delta."""
        self.intervals.append((start, end))
        self.wall += end - start
        for key, value in after.items():
            self.counts[key] = self.counts.get(key, 0) + value - before.get(key, 0)

    def _arrays(self):
        good = np.asarray(self.good)
        whole = good == np.asarray(self.rows)  # every row ok and exact
        return np.asarray(self.at), np.asarray(self.latency), good, whole

    @property
    def latencies(self) -> np.ndarray:
        """Latencies of the operations answered wholly ok and exact."""
        _, latency, _, whole = self._arrays()
        return latency[whole]

    def _windows(self) -> list[np.ndarray]:
        at = np.asarray(self.at)
        n = max(1, int(round(self.wall / WINDOW_S)))
        index = np.clip((at / self.wall * n).astype(int), 0, n - 1)
        return [index == w for w in range(n)]

    def throughput(self) -> float:
        """Rows answered ok with the exact score row, per second."""
        _, latency, good, _ = self._arrays()
        windows = self._windows()
        rates = []
        for sel in windows:
            if self.clients is None:
                rates.append(good[sel].sum() / (self.wall / len(windows)))
            elif sel.any():
                rates.append(self.clients * good[sel].sum() / latency[sel].sum())
        return float(np.median(rates))

    @property
    def slo_miss(self) -> int:
        """Operations not answered ok within the latency objective (a batch
        call carries none: every row answered ok meets it)."""
        if self.slo_ms is None:
            return self.outcomes.errors
        met = int((self.latencies * 1e3 <= self.slo_ms).sum())
        return self.outcomes.attempted - met

    def end_to_end(self, tail_q: float) -> dict:
        _, latency, good, whole = self._arrays()
        windows = self._windows()
        per_window = [latency[sel & whole] for sel in windows]
        pooled = latency[whole]
        n = len(pooled)
        if all(stats.supported(len(w), tail_q) for w in per_window):
            pct, tail_windows = tail_q, len(per_window)
            tail_value = _ms(np.median([stats.percentile(w, tail_q) for w in per_window]))
        else:
            # Too few operations per time window: chunks of consecutive
            # operations, each large enough for the percentile.
            value, tail_windows = stats.chunked_tail(pooled, tail_q)
            if tail_windows:
                pct, tail_value = tail_q, _ms(value)
            else:
                pct, tail_value = _tail_ms(pooled, tail_q)
        attempted = self.outcomes.attempted
        rows = np.asarray(self.rows)
        ok_shares = [good[sel].sum() / rows[sel].sum() for sel in windows if sel.any()]
        return {
            "throughput_per_s": self.throughput(),
            "p50_ms": _ms(np.median([stats.percentile(w, 50) for w in per_window if len(w)])),
            "p99_ms": _ms(stats.percentile(pooled, 99)) if stats.supported(n, 99) else None,
            "tail_ms": tail_value,
            "tail_percentile": pct,
            "tail_windows": tail_windows,
            "windows": len(per_window),
            "latency_samples": n,
            "latency_unit": self.unit,
            "beyond_p99": stats.beyond(n, 99),
            "slo_miss_share": self.slo_miss / attempted,
            "error_share": self.outcomes.error_share,
            "ok_share": float(np.median(ok_shares)),
            "outcomes": self.outcomes.as_dict(),
        }


def registry_totals() -> dict:
    """Counters and histogram totals of the active registry (empty under
    the null registry), for deltas over measured intervals."""
    from repro.obs import get_registry

    registry = get_registry()
    totals = dict(registry.counter_values())
    for name, histogram in registry.histograms().items():
        totals[f"{name}.total_s"] = histogram.total_seconds
    return totals


# ---------------------------------------------------------------------------
# in-process stack: artifacts -> engine -> runner (-> server)
# ---------------------------------------------------------------------------
def load_engine(model_path: Path):
    """Load artifacts and build the default engine, timing both."""
    from repro.core import UniVSAArtifacts
    from repro.core.inference import BitPackedUniVSA

    t = monotonic()
    artifacts = UniVSAArtifacts.load(model_path)
    load_s = monotonic() - t
    t = monotonic()
    engine = BitPackedUniVSA(artifacts)
    build_s = monotonic() - t
    return engine, {"export.load_s": load_s, "inference.build_s": build_s}


def batch_phase(engine, bank, oracle, seconds, rng, timings, log=None, setup_only=False):
    """Closed loop: one caller scores permuted 256-sample batches back to
    back through ``ResilientBatchRunner.run``."""
    from repro.runtime import ResilientBatchRunner

    t = monotonic()
    runner = ResilientBatchRunner(engine if log is None else sp.EngineProxy(engine, log))
    caller = runner if log is None else sp.RunnerProxy(runner, log)
    with runner:
        caller.run(bank)
        timings["ready"] = monotonic()
        timings["resilience.start_s"] = timings["ready"] - t
        if setup_only:
            return None
        warm_until = perf_counter() + BATCH_WARMUP_S
        while perf_counter() < warm_until:
            caller.run(bank)
        perms = [rng.permutation(BATCH) for _ in range(64)]
        phase = Phase("call", clients=1)
        before = registry_totals()
        start = perf_counter()
        deadline = start + seconds
        k = 0
        while True:
            perm = perms[k % len(perms)]
            k += 1
            batch = bank[perm]
            t1 = perf_counter()
            result = caller.run(batch)
            t2 = perf_counter()
            # Checked between calls: the closed-loop throughput counts
            # call time only (see Phase).
            phase.add(t1 - start, t2 - t1, _row_statuses(result.report, BATCH),
                      stats.exact_rows(result.scores, oracle[perm]))
            if t2 >= deadline:
                break
        phase.measured(start, t2, before, registry_totals())
    return phase


def _row_statuses(report, n: int) -> list[str]:
    failed = set(report.failed_samples)
    return [
        "quarantined" if row in report.quarantined
        else "failed" if row in failed
        else "ok"
        for row in range(n)
    ]


async def serve_phase(
    engine, model_path, bank, oracle, workload, seconds, rng, timings,
    log=None, setup_only=False,
):
    """Open loop: Poisson arrivals at the workload's rate into an
    in-process ``MicroBatchServer`` with the policy, SLO and scrubber
    defaults ``repro serve`` uses, one server per episode."""
    from repro.runtime import IntegrityScrubber, MicroBatchServer, ResilientBatchRunner

    t = monotonic()
    runner = ResilientBatchRunner(engine if log is None else sp.EngineProxy(engine, log))
    with runner:
        runner.run(bank[:SERVE_BATCH])
        timings["resilience.start_s"] = monotonic() - t
        front = runner if log is None else sp.RunnerProxy(runner, log)
        episodes = max(1, round(seconds / EPISODE_S))
        phase = Phase("request")
        for episode in range(episodes):
            t = monotonic()
            scrubber = IntegrityScrubber(runner, source=model_path)
            if log is not None:
                scrubber = sp.ScrubberProxy(scrubber, log)
            async with MicroBatchServer(front, scrubber=scrubber) as server:
                await server.submit_many(bank[:SERVE_BATCH])
                if episode == 0:
                    timings["ready"] = monotonic()
                    timings["serve.start_s"] = timings["ready"] - t
                    if setup_only:
                        return None
                submit = server.submit if log is None else sp.ServerProxy(server, log).submit
                await _open_loop(
                    submit, bank, oracle, RATES[workload], seconds / episodes, rng, phase
                )
                phase.slo_ms = server.slo.slo.p99_ms
    return phase


async def _open_loop(submit, bank, oracle, rate, seconds, rng, phase: Phase) -> None:
    """Send on a Poisson schedule regardless of answers.  The first
    ``OPEN_LOOP_WARMUP_S`` of the schedule bring the system to its
    operating point (batches coalesce, the queue settles) and are not measured."""
    span = OPEN_LOOP_WARMUP_S + seconds
    gaps = rng.exponential(1.0 / rate, size=int(rate * span * 1.5) + 64)
    due = np.cumsum(gaps)
    due = due[due < span]
    n = len(due)
    first = int(np.searchsorted(due, OPEN_LOOP_WARMUP_S))
    picks = rng.integers(0, len(bank), size=n)
    sent = np.full(n, np.nan)
    done = np.full(n, np.nan)
    # Answers land in preallocated arrays, so the generator keeps no
    # per-request object alive for the collector to walk.  A request whose
    # submit raised stays "unanswered" and counts as failed.
    status = np.full(n, STATUS_CODES["unanswered"], dtype=np.int8)
    scores = np.zeros((n, oracle.shape[1]), dtype=np.int64)
    int64_row = np.zeros(n, dtype=bool)
    loop = asyncio.get_running_loop()

    async def one(i: int) -> None:
        sent[i] = perf_counter()
        response = await submit(bank[picks[i]])
        done[i] = perf_counter()
        status[i] = STATUS_CODES.get(response.status, STATUS_CODES["error"])
        row = response.scores
        if row is not None and row.dtype == np.int64 and row.shape == scores[i].shape:
            scores[i] = row
            int64_row[i] = True

    pending: set = set()
    before = {}
    origin = perf_counter() + 1e-3
    i = 0
    while i < n:
        now = perf_counter() - origin
        while i < n and due[i] <= now:
            if i == first:
                before = registry_totals()
            task = loop.create_task(one(i))
            pending.add(task)
            task.add_done_callback(pending.discard)
            i += 1
        if i < n:
            await asyncio.sleep(due[i] - (perf_counter() - origin))
    if pending:
        _, late = await asyncio.wait(set(pending), timeout=DRAIN_TIMEOUT_S)
        for task in late:
            task.cancel()
    offset = phase.wall
    start = origin + OPEN_LOOP_WARMUP_S
    phase.measured(start, start + seconds, before, registry_totals())
    scheduled = origin + due
    names = {code: name for name, code in STATUS_CODES.items()}
    exact = stats.exact_rows(scores[first:], oracle[picks[first:]]) & int64_row[first:]
    for k, i in enumerate(range(first, n)):
        at = offset + due[i] - OPEN_LOOP_WARMUP_S
        phase.add(at, done[i] - scheduled[i], [names[status[i]]], [exact[k]])
        phase.late.append(sent[i] - scheduled[i])


# ---------------------------------------------------------------------------
# per-layer metrics from the traced half
# ---------------------------------------------------------------------------
def model_figures(engine, batch: int) -> dict:
    """Exact per-sample counts of the engine's traffic model, beside the
    FPGA throughput ``repro.hw`` models for the same config."""
    from repro.hw import hardware_report

    traffic = engine.traffic_model(batch=batch)
    artifacts = engine.artifacts
    return {
        "inference.bytes_per_sample": traffic["bytes_per_sample"],
        "inference.popcounts_per_sample": traffic["popcounts_per_sample"],
        "hw.modeled_samples_per_s": hardware_report(
            artifacts.config, artifacts.input_shape, artifacts.n_classes
        ).throughput_per_s,
    }


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else None


def measured_spans(log: sp.SpanLog, phase: Phase) -> list[sp.Span]:
    """Spans that started inside a measured interval, linked."""
    spans = [
        s for s in log.spans
        if any(start <= s.start < end for start, end in phase.intervals)
    ]
    sp.link(spans)
    return spans


def layer_metrics(spans, phase: Phase, gauges: dict) -> dict:
    """Per-layer figures of one traced in-process phase, from its linked
    spans and the registry deltas over its measured intervals."""
    runs = [s for s in spans if s.name == sp.RUN]
    calls = [s for s in spans if s.name == sp.SCORES]
    scrubs = [s for s in spans if s.name == sp.SCRUB]
    submits = [s for s in spans if s.name == sp.SUBMIT]
    counts = phase.counts
    samples = counts.get("packed.samples", 0)
    out: dict = {}
    for stage in ("dvp", "biconv", "encode", "similarity"):
        total = counts.get(f"packed.{stage}.total_s", 0.0)
        out[f"inference.{stage}_us_per_sample"] = _ratio(total * 1e6, samples)
    out["inference.scores_ms_p50"] = _median_ms([s.duration for s in calls])
    out["inference.samples_per_call"] = _ratio(sum(s.samples for s in calls), len(calls))
    out["inference.busy_share"] = sp.busy_share(calls, phase.intervals)
    run_durations = [s.duration for s in runs]
    out["resilience.run_ms_p50"] = _median_ms(run_durations)
    out["resilience.run_ms_p99"] = _tail_ms(run_durations)
    self_ms = sp.self_times(spans, sp.RUN)
    out["resilience.self_ms_p50"] = _median_ms(list(self_ms.values()))
    out["resilience.shards_per_run"] = _ratio(
        sum(1 for s in calls if s.parent is not None), len(runs)
    )
    for name in ("retries", "fallbacks", "quarantined"):
        out[f"resilience.{name}"] = counts.get(f"resilience.{name}", 0)
    out["engine_calls_linked"] = _ratio(
        sum(1 for s in calls if s.parent is not None), len(calls)
    )
    if not submits:
        return out
    queue = sp.queue_times(spans)
    out["serve.queue_ms_p50"] = _median_ms(queue)
    out["serve.queue_ms_p99"] = _tail_ms(queue)
    out["serve.batch_size_mean"] = _ratio(
        counts.get("serve.batched_samples", 0), counts.get("serve.batches", 0)
    )
    flushes = sum(v for k, v in counts.items() if k.startswith("serve.flush."))
    out["serve.flush_full_share"] = _ratio(counts.get("serve.flush.full", 0), flushes)
    out["serve.reject_share"] = _ratio(
        counts.get("serve.rejected", 0), counts.get("serve.requests", 0)
    )
    out["serve.runner_busy_share"] = sp.busy_share(runs, phase.intervals)
    out["serve.inflight_max"] = gauges.get("serve.pipeline.inflight_max")
    out["serve.server_latency_ms_p50"] = _median_ms(
        [s.duration for s in submits if s.status == "ok"]
    )
    out["integrity.scrubs"] = len(scrubs)
    out["integrity.scrub_ms_p50"] = _median_ms([s.duration for s in scrubs])
    out["gen.late_ms_p50"] = _median_ms(phase.late)
    out["gen.late_ms_p99"] = _tail_ms(phase.late)
    out["requests_linked"] = _ratio(sum(1 for s in submits if s.batch is not None), len(submits))
    return out


def check_span_file(path: Path, reported_ms) -> bool:
    """Whether the written span file reproduces the reported self time."""
    self_ms = sp.self_times(sp.read_spans(path), sp.RUN)
    return _median_ms(list(self_ms.values())) == reported_ms


# ---------------------------------------------------------------------------
# serve-tcp: two closed-loop clients against the ``repro serve`` daemon
# ---------------------------------------------------------------------------
def start_daemon(model_path: Path, work: Path, timeout_s: float = 60.0):
    """Start ``repro serve`` on a free port; return (process, port, t_start)."""
    t_start = monotonic()
    stderr = open(work / "daemon.stderr", "ab")
    try:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--model", str(model_path),
             "--port", "0", "--no-ledger"],
            stdout=subprocess.PIPE,
            stderr=stderr,
        )
    finally:
        stderr.close()
    try:
        port = _read_port(process, timeout_s)
    except BaseException:
        stop_daemon(process)
        raise
    return process, port, t_start


def _read_port(process, timeout_s: float) -> int:
    deadline = monotonic() + timeout_s
    with selectors.DefaultSelector() as selector:
        selector.register(process.stdout, selectors.EVENT_READ)
        while monotonic() < deadline:
            if not selector.select(timeout=max(0.0, deadline - monotonic())):
                break
            line = process.stdout.readline().decode("utf-8", "replace")
            if not line:
                break
            if line.startswith("serving "):
                address = line.split(" on ", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
    raise RuntimeError("repro serve did not report a listening port")


def stop_daemon(process) -> None:
    """SIGINT (the daemon drains and exits), then kill if it lingers."""
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=15)
    if process.stdout is not None:
        process.stdout.close()


def daemon_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


class TcpClient:
    """One connection sending newline-JSON requests, one at a time."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "TcpClient":
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
        return cls(reader, writer)

    async def call(self, line: bytes) -> bytes:
        self.writer.write(line)
        await self.writer.drain()
        return await self.reader.readline()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def request_lines(bank) -> list[bytes]:
    return [
        (json.dumps({"levels": sample.tolist(), "scores": True}) + "\n").encode()
        for sample in bank
    ]


async def tcp_phase(clients, lines, oracle, seconds, rng, log=None) -> Phase:
    """Each client sends its next request as soon as the last is answered."""
    records = []
    deadline = perf_counter() + seconds

    async def drive(client: TcpClient) -> None:
        picks = rng.integers(0, len(lines), size=1 << 16)
        k = 0
        while perf_counter() < deadline:
            i = int(picks[k % len(picks)])
            k += 1
            request = None if log is None else log.next_request()
            t1 = perf_counter()
            raw = await client.call(lines[i])
            t2 = perf_counter()
            records.append((i, t1, t2, raw, request))

    start = perf_counter()
    await asyncio.gather(*(drive(client) for client in clients))
    phase = Phase("request", clients=len(clients))
    phase.measured(start, perf_counter(), {}, {})
    for i, t1, t2, raw, request in records:
        answer = json.loads(raw) if raw else {"status": "disconnected"}
        status = answer.get("status", "error")
        scores = answer.get("scores")
        # JSON integers parse to int64; any float makes the row float64,
        # which the oracle check refuses.
        row = np.asarray(scores) if status == "ok" and scores else None
        exact = stats.exact_rows([row], oracle[i : i + 1])
        phase.add(t1 - start, t2 - t1, [status], exact)
        if status == "ok":
            phase.server_ms.append(answer["latency_ms"])
            phase.wire_ms.append((t2 - t1) * 1e3 - answer["latency_ms"])
        if log is not None:
            log.add(sp.SUBMIT, t1, t2, request=request, samples=1, status=status)
    return phase


async def tcp_run(args, model_path, bank, oracle, rng, timings, result) -> None:
    process, port, t_start = start_daemon(model_path, args.work)
    try:
        timings["serve.start_s"] = monotonic() - t_start
        lines = request_lines(bank)
        clients = [await TcpClient.open(port) for _ in range(TCP_CONNECTIONS)]
        try:
            await clients[0].call(lines[0])
            timings["ready"] = monotonic()
            result["setup_s"] = timings["ready"] - t_start
            if args.setup_only:
                return
            for k in range(WARMUP_OPS):
                await asyncio.gather(*(c.call(lines[k]) for c in clients))
            halves = 2 if args.trace else 1
            seconds = args.seconds / halves
            phases = [await tcp_phase(clients, lines, oracle, seconds, rng)]
            if args.trace:
                log = sp.SpanLog()
                phases.append(await tcp_phase(clients, lines, oracle, seconds, rng, log))
                sp.write_spans(log.spans, args.work / f"spans-{args.workload}.jsonl")
            snapshot = json.loads(await clients[0].call(b'{"op": "metrics"}\n'))
            for phase in phases:
                phase.slo_ms = snapshot["slo"]["objective"]["p99_ms"]
            result["phases"] = phases
            if args.trace:
                result["layers"] = tcp_layer_metrics(snapshot, phases[1])
                engine, _ = load_engine(model_path)
                result["layers"].update(model_figures(engine, SERVE_BATCH))
            result["peak_rss_mb"] = daemon_peak_rss_mb(process.pid)
        finally:
            for client in clients:
                await client.close()
    finally:
        stop_daemon(process)
    # The daemon does not report its engine; these are what ``repro serve``
    # builds (``BitPackedUniVSA(artifacts, mode="fast")``).
    result["labels"].update({"engine.mode": "fast", "engine.conv_backend": "numpy"})


def tcp_layer_metrics(snapshot: dict, traced: Phase) -> dict:
    """Per-layer figures of the daemon, from its admin metrics snapshot
    (whole daemon lifetime) and the client's traced half."""
    counters = snapshot.get("counters", {})
    stages = snapshot.get("stages", {})
    out: dict = {}
    for stage in ("dvp", "biconv", "encode", "similarity"):
        total = stages.get(f"packed.{stage}", {}).get("total_s", 0.0)
        out[f"inference.{stage}_us_per_sample"] = _ratio(
            total * 1e6, counters.get("packed.samples", 0)
        )
    shard = stages.get("batch.shard")
    out["inference.scores_ms_p50"] = _ms(shard["p50_s"]) if shard else None
    out["inference.samples_per_call"] = _ratio(
        counters.get("batch.samples", 0), counters.get("batch.shards", 0)
    )
    for name in ("retries", "fallbacks", "quarantined"):
        out[f"resilience.{name}"] = counters.get(f"resilience.{name}", 0)
    out["serve.batch_size_mean"] = _ratio(
        counters.get("serve.batched_samples", 0), counters.get("serve.batches", 0)
    )
    flushes = sum(v for k, v in counters.items() if k.startswith("serve.flush."))
    out["serve.flush_full_share"] = _ratio(counters.get("serve.flush.full", 0), flushes)
    out["serve.reject_share"] = _ratio(
        counters.get("serve.rejected", 0), counters.get("serve.requests", 0)
    )
    out["serve.inflight_max"] = snapshot.get("gauges", {}).get("serve.pipeline.inflight_max")
    batch = stages.get("serve.batch")
    out["serve.batch_ms_p50"] = _ms(batch["p50_s"]) if batch else None
    out["serve.server_latency_ms_p50"] = (
        float(np.median(traced.server_ms)) if traced.server_ms else None
    )
    out["serve.wire_ms_p50"] = float(np.median(traced.wire_ms)) if traced.wire_ms else None
    out["integrity.scrubs"] = counters.get("integrity.scrubs", 0)
    last = (snapshot.get("integrity") or {}).get("last") or {}
    out["integrity.scrub_ms_p50"] = _ms(last["wall_s"]) if "wall_s" in last else None
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def run_inprocess(args, model_path, bank, oracle, rng, result) -> None:
    timings: dict = {}
    engine, build = load_engine(model_path)
    timings.update(build)
    result["labels"].update(
        {"engine.mode": engine.mode, "engine.conv_backend": engine.conv_backend}
    )
    workload = args.workload
    halves = 2 if args.trace and not args.setup_only else 1
    seconds = args.seconds / halves
    schedule_seed = int(rng.integers(0, 2**63))

    def measure(log=None):
        phase_rng = np.random.default_rng(schedule_seed)
        if workload == "batch-paper":
            return batch_phase(
                engine, bank, oracle, seconds, phase_rng, timings, log, args.setup_only
            )
        return asyncio.run(
            serve_phase(
                engine, model_path, bank, oracle, workload, seconds,
                phase_rng, timings, log, args.setup_only,
            )
        )

    untraced = measure()
    result["setup_s"] = timings["ready"] - args.t0
    result["timings"] = {k: v for k, v in timings.items() if k != "ready"}
    if args.setup_only:
        return
    result["phases"] = [untraced]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        return
    from repro.obs import MetricsRegistry, using_registry

    log = sp.SpanLog()
    registry = MetricsRegistry()
    with using_registry(registry):
        traced = measure(log)
    result["phases"].append(traced)
    spans = measured_spans(log, traced)
    layers = layer_metrics(spans, traced, registry.gauge_values())
    layers.update(model_figures(engine, BATCH if workload == "batch-paper" else SERVE_BATCH))
    layers.update(result["timings"])
    span_path = args.work / f"spans-{workload}.jsonl"
    sp.write_spans(spans, span_path)
    layers["span_file_reproduces_self_time"] = check_span_file(
        span_path, layers["resilience.self_ms_p50"]
    )
    result["layers"] = layers


def summarize(args, result) -> None:
    """End-to-end figures (and the tracing overhead) from the phases."""
    phases = result.get("phases")
    if not phases:
        return
    result["end_to_end"] = phases[0].end_to_end(TAIL_Q[args.workload])
    total = stats.Outcomes()
    for phase in phases:
        total.merge(phase.outcomes)
    result["outcomes"] = total.as_dict()
    result["wrong"] = total.wrong
    if len(phases) == 2:
        layers = result["layers"]
        layers["obs.trace_overhead_share"] = 1.0 - phases[1].throughput() / phases[0].throughput()
        layers["traced_throughput_per_s"] = phases[1].throughput()
        layers["untraced_throughput_per_s"] = phases[0].throughput()
    del result["phases"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fixture", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--t0", required=True, type=float)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    with np.load(args.fixture / "bank.npz") as archive:
        bank = archive["levels"]
        oracle = archive[f"oracle_{MODEL[args.workload]}"]
    model_path = args.fixture / f"{MODEL[args.workload]}.npz"
    result: dict = {"workload": args.workload, "labels": {"nproc": os.cpu_count()}}
    if args.workload == "serve-tcp":
        timings: dict = {}
        asyncio.run(tcp_run(args, model_path, bank, oracle, rng, timings, result))
        result["timings"] = {k: v for k, v in timings.items() if k != "ready"}
        if "layers" in result:
            result["layers"].update(result["timings"])
    else:
        run_inprocess(args, model_path, bank, oracle, rng, result)
    if args.workload in RATES:
        result["labels"]["offered_rate_per_s"] = RATES[args.workload]
    summarize(args, result)
    args.out.write_text(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
