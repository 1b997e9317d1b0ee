"""The benchmark's own logic: span arithmetic, the percentile rule, outcome
counting, the oracle check, and that tracing proxies change no answer.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

import asyncio
import json
from pathlib import Path

import numpy as np
import pytest

import spans as sp
import stats
import workloads

ROOT = Path(__file__).resolve().parents[2]


def _span(log, name, start, end, **fields):
    return log.add(name, start, end, **fields)


# ---------------------------------------------------------------------------
# self time on a synthetic span tree
# ---------------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children(tmp_path):
    log = sp.SpanLog()
    run = _span(log, sp.RUN, 0.0, 10.0)
    # Two shards in parallel (overlap counted once), one that started
    # before the run's interval (clipped), one in a later gap.
    _span(log, sp.SCORES, 1.0, 4.0, parent=run.id)
    _span(log, sp.SCORES, 2.0, 5.0, parent=run.id)
    _span(log, sp.SCORES, 7.0, 8.5, parent=run.id)
    _span(log, sp.SCORES, -1.0, 0.5, parent=run.id)
    # A span of another run is not a child of this one.
    other = _span(log, sp.RUN, 20.0, 22.0)
    _span(log, sp.SCORES, 20.5, 21.0, parent=other.id)

    times = sp.self_times(log.spans, sp.RUN)
    assert times[run.id] == pytest.approx(10.0 - (4.0 + 1.5 + 0.5))
    assert times[other.id] == pytest.approx(1.5)

    path = tmp_path / "spans.jsonl"
    sp.write_spans(log.spans, path)
    assert sp.self_times(sp.read_spans(path), sp.RUN) == times


def test_covered_merges_overlapping_intervals():
    assert sp.covered([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)
    assert sp.covered([]) == 0.0
    log = sp.SpanLog()
    a = _span(log, sp.RUN, 0.0, 4.0)
    b = _span(log, sp.RUN, 6.0, 12.0)
    assert sp.busy_share([a, b], [(2.0, 10.0)]) == pytest.approx((2.0 + 4.0) / 8.0)
    assert sp.busy_share([a, b], [(0.0, 2.0), (5.0, 7.0)]) == pytest.approx(3.0 / 4.0)


def test_link_resolves_parents_of_overlapping_runs_by_their_rows():
    log = sp.SpanLog()
    rows_a = np.arange(8 * 3).reshape(8, 3)
    rows_b = rows_a + 100
    scores_a = np.zeros((8, 2), dtype=np.int64)
    scores_b = np.ones((8, 2), dtype=np.int64)
    run_a = _span(log, sp.RUN, 0.0, 10.0, ref=(rows_a, scores_a))
    run_b = _span(log, sp.RUN, 1.0, 11.0, ref=(rows_b, scores_b))
    clean_b = rows_b.copy()  # the runner scores a validated copy
    shard = _span(log, sp.SCORES, 2.0, 3.0, samples=4, ref=clean_b[4:8], offset=4)
    request = _span(log, sp.SUBMIT, -1.0, 10.5, ref=scores_a[3])
    sp.link(log.spans)
    assert shard.parent == run_b.id
    assert request.batch == run_a.id
    assert sp.queue_times(log.spans) == [pytest.approx(11.5 - 10.0)]


# ---------------------------------------------------------------------------
# the percentile rule
# ---------------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    assert stats.beyond(1000, 99) == 10
    assert stats.supported(1000, 99)
    assert not stats.supported(999, 99)
    assert stats.supported(200, 95)
    assert not stats.supported(199, 95)
    values = list(np.linspace(0.0, 1.0, 500))
    pct, value = stats.tail(values, 99)
    assert pct == 95.0 and value == pytest.approx(0.95)
    assert stats.tail(values[:20], 99) == (50.0, pytest.approx(np.median(values[:20])))
    pct, value = stats.tail(values[:19], 99)
    assert np.isnan(pct)


def test_chunked_tail_is_the_median_of_supported_chunk_percentiles():
    assert stats.needed(90) == 100 and stats.needed(99) == 1000
    assert stats.needed(90, 20) == 200
    # Five chunks of 200; a stall in one chunk does not move the median.
    values = np.tile(np.linspace(0.0, 1.0, 200), 5)
    values[450] = 50.0
    value, chunks = stats.chunked_tail(values, 90)
    assert chunks == 5
    assert value == pytest.approx(stats.percentile(np.linspace(0.0, 1.0, 200), 90))
    value, chunks = stats.chunked_tail(values[:599], 90)
    assert chunks == 0 and np.isnan(value)


# ---------------------------------------------------------------------------
# outcome counting and the oracle check
# ---------------------------------------------------------------------------
def test_error_share_counts_rejects_failures_and_mismatches():
    outcomes = stats.Outcomes()
    outcomes.add(
        ["ok", "ok", "rejected", "failed", "quarantined", "ok", "error"],
        [True, False, False, False, False, True, False],
    )
    assert outcomes.attempted == 7
    assert outcomes.ok == 2
    assert (outcomes.rejected, outcomes.failed, outcomes.quarantined) == (1, 2, 1)
    assert outcomes.mismatched == 1
    assert outcomes.error_share == pytest.approx(5 / 7)
    # A shed request is an explicit answer, not a wrong one.
    assert outcomes.wrong == 4


def test_oracle_check_catches_a_corrupted_row_that_keeps_its_argmax():
    oracle = np.array([[5, 9, 1], [7, 2, 3]], dtype=np.int64)
    corrupted = oracle.copy()
    corrupted[0, 2] += 2  # argmax is still column 1
    assert corrupted.argmax(axis=1).tolist() == oracle.argmax(axis=1).tolist()
    assert stats.exact_rows(oracle.copy(), oracle).tolist() == [True, True]
    assert stats.exact_rows(corrupted, oracle).tolist() == [False, True]
    assert stats.exact_rows(oracle.astype(np.int32), oracle).tolist() == [False, False]
    rows = [None, oracle[1].copy()]
    assert stats.exact_rows(rows, oracle).tolist() == [False, True]
    rows = [list(corrupted[0]), oracle[1].astype(np.float64)]
    assert stats.exact_rows(rows, oracle).tolist() == [False, False]


# ---------------------------------------------------------------------------
# tracing proxies change no answer
# ---------------------------------------------------------------------------
def test_proxied_runner_under_server_returns_identical_scores():
    from repro.core import BitPackedUniVSA, UniVSAConfig, UniVSAModel, extract_artifacts
    from repro.runtime import MicroBatchServer, ResilientBatchRunner, ServePolicy

    levels = 10
    shape = (5, 8)
    config = UniVSAConfig(
        d_high=4, d_low=2, kernel_size=3, out_channels=6, voters=2, levels=levels
    )
    engine = BitPackedUniVSA(extract_artifacts(UniVSAModel(shape, 3, config, seed=0)))
    samples = np.random.default_rng(0).integers(0, levels, size=(40,) + shape)
    policy = ServePolicy(max_batch=8, deadline_ms=20.0, flush_margin_ms=2.0)

    async def serve(log):
        runner = ResilientBatchRunner(engine if log is None else sp.EngineProxy(engine, log))
        with runner:
            front = runner if log is None else sp.RunnerProxy(runner, log)
            async with MicroBatchServer(front, policy) as server:
                submit = server.submit if log is None else sp.ServerProxy(server, log).submit
                return await asyncio.gather(*(submit(s) for s in samples))

    plain = asyncio.run(serve(None))
    log = sp.SpanLog()
    traced = asyncio.run(serve(log))
    assert all(r.ok for r in plain + traced)
    for a, b in zip(plain, traced):
        assert a.scores.dtype == b.scores.dtype == np.int64
        assert np.array_equal(a.scores, b.scores)

    spans = log.spans
    sp.link(spans)
    runs = [s for s in spans if s.name == sp.RUN]
    submits = [s for s in spans if s.name == sp.SUBMIT]
    calls = [s for s in spans if s.name == sp.SCORES]
    assert sorted(s.request for s in submits) == list(range(len(samples)))
    assert all(s.batch is not None for s in submits)
    assert sum(s.samples for s in runs) == len(samples)
    assert all(s.parent is not None for s in calls)
    assert all(t >= 0 for t in sp.queue_times(spans))


# ---------------------------------------------------------------------------
# the benchmark's declaration matches its code
# ---------------------------------------------------------------------------
def test_benchmark_json_declares_the_workloads_and_their_fixed_rates():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert tuple(names) == workloads.WORKLOADS
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    for name, rate in workloads.RATES.items():
        assert f"{rate:g} req/s" in whys[name]
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
