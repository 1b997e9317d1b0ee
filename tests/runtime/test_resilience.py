"""Resilient serving: validation, retry/fallback ladder, breaker, reports."""

from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core import BitPackedUniVSA, UniVSAConfig, UniVSAModel, extract_artifacts
from repro.obs import MetricsRegistry, using_registry
from repro.runtime import (
    BatchReport,
    ChaosSpec,
    CircuitOpenError,
    ResilientBatchRunner,
    RetryPolicy,
    ShardStatus,
    serving_predict_fn,
    validate_levels,
)
from repro.runtime.chaos import ChaosError
from repro.runtime.resilience import QUARANTINED_LABEL

LEVELS = 10
SHAPE = (5, 8)
CONFIG = UniVSAConfig(
    d_high=4, d_low=2, kernel_size=3, out_channels=6, voters=2, levels=LEVELS
)

# A policy with no sleep between retries: ladder tests exercise the
# control flow, not the backoff clock.
FAST_POLICY = RetryPolicy(max_retries=2, backoff_base_s=0.0, backoff_max_s=0.0)


@pytest.fixture(scope="module")
def engine():
    model = UniVSAModel(SHAPE, 3, CONFIG, seed=0)
    return BitPackedUniVSA(extract_artifacts(model))


def _levels_batch(n, seed=0):
    return np.random.default_rng(seed).integers(0, LEVELS, size=(n,) + SHAPE)


class TestRetryPolicy:
    def test_from_env(self):
        policy = RetryPolicy.from_env(
            {
                "REPRO_RETRIES": "4",
                "REPRO_SHARD_TIMEOUT_S": "2.5",
                "REPRO_FALLBACK": "0",
                "REPRO_BREAKER": "3",
                "REPRO_VALIDATE": "false",
            }
        )
        assert policy.max_retries == 4
        assert policy.timeout_s == pytest.approx(2.5)
        assert policy.fallback is False
        assert policy.breaker_threshold == 3
        assert policy.validate is False

    def test_from_env_defaults(self):
        policy = RetryPolicy.from_env({})
        assert policy == RetryPolicy()

    @pytest.mark.parametrize(
        "off", ["0", "false", "off", "no", "OFF", "False", "No", " off "]
    )
    def test_from_env_off_spellings(self, off):
        # Regression: only exact "0"/"false"/"no" read as off, so "off",
        # "OFF" or "False" left fallback and validation silently on.
        # The spellings match REPRO_CC's, in any case.
        policy = RetryPolicy.from_env({"REPRO_FALLBACK": off, "REPRO_VALIDATE": off})
        assert policy.fallback is False
        assert policy.validate is False

    def test_from_env_reads_backoff_max_and_seed(self):
        # Regression: these keys were documented but never read, so env
        # tuning silently kept the defaults.
        policy = RetryPolicy.from_env(
            {
                "REPRO_BACKOFF_S": "0.5",
                "REPRO_BACKOFF_MAX_S": "7.5",
                "REPRO_RETRY_SEED": "42",
            }
        )
        assert policy.backoff_base_s == pytest.approx(0.5)
        assert policy.backoff_max_s == pytest.approx(7.5)
        assert policy.seed == 42
        # The seed must actually steer the jitter stream.
        assert policy.backoff_s(0, 1) != RetryPolicy.from_env({}).backoff_s(0, 1)

    def test_from_env_zero_timeout_is_loud(self):
        # Regression: ``timeout_s=... or None`` read an explicit "0" as
        # "no deadline"; a zero deadline is a misconfiguration and must
        # raise instead of silently disabling the timeout.
        with pytest.raises(ValueError, match="timeout_s"):
            RetryPolicy.from_env({"REPRO_SHARD_TIMEOUT_S": "0"})

    def test_garbage_env_falls_through(self):
        policy = RetryPolicy.from_env({"REPRO_RETRIES": "lots"})
        assert policy.max_retries == RetryPolicy.max_retries

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(breaker_threshold=0)

    def test_backoff_deterministic_jittered_bounded(self):
        policy = RetryPolicy(backoff_base_s=0.02, backoff_max_s=0.05)
        first = policy.backoff_s(3, 1)
        assert first == policy.backoff_s(3, 1)  # same (shard, attempt) key
        assert first != policy.backoff_s(3, 2)
        for attempt in (1, 2, 3, 8):
            delay = policy.backoff_s(0, attempt)
            assert 0.0 < delay < 0.05 * 1.5  # capped base times max jitter


class TestValidateLevels:
    def test_clean_batch_passes_through(self):
        levels = _levels_batch(6)
        clean, good, quarantined = validate_levels(levels, SHAPE, LEVELS)
        assert quarantined == {}
        np.testing.assert_array_equal(good, np.arange(6))
        np.testing.assert_array_equal(clean, levels)

    def test_nan_inf_quarantined(self):
        levels = _levels_batch(4).astype(np.float64)
        levels[1, 0, 0] = np.nan
        levels[3, 2, 1] = np.inf
        clean, good, quarantined = validate_levels(levels, SHAPE, LEVELS)
        assert quarantined == {1: "non-finite", 3: "non-finite"}
        np.testing.assert_array_equal(good, [0, 2])
        assert clean.shape[0] == 2

    def test_non_integral_quarantined(self):
        levels = _levels_batch(3).astype(np.float32)
        levels[2, 0, 0] = 1.5
        _, good, quarantined = validate_levels(levels, SHAPE, LEVELS)
        assert quarantined == {2: "non-integral"}
        np.testing.assert_array_equal(good, [0, 1])

    def test_out_of_range_quarantined(self):
        levels = _levels_batch(3)
        levels[0, 0, 0] = LEVELS  # one past the top level
        levels[1, 0, 0] = -2
        _, good, quarantined = validate_levels(levels, SHAPE, LEVELS)
        assert quarantined == {0: "out-of-range", 1: "out-of-range"}
        np.testing.assert_array_equal(good, [2])

    def test_shape_mismatch_is_caller_bug(self):
        with pytest.raises(ValueError, match="per-sample shape"):
            validate_levels(np.zeros((2, 3, 3), dtype=np.int64), SHAPE, LEVELS)

    def test_non_numeric_dtype_rejected(self):
        bad = np.full((1,) + SHAPE, "x", dtype=object)
        with pytest.raises(TypeError):
            validate_levels(bad, SHAPE, LEVELS)

    def test_single_sample_promoted(self):
        clean, good, quarantined = validate_levels(
            _levels_batch(1)[0], SHAPE, LEVELS
        )
        assert clean.shape[0] == 1 and good.size == 1 and not quarantined

    def test_bool_batch_is_valid_binary_levels(self):
        # bool is a legitimate 2-level encoding: it must pass untouched,
        # not be rejected as non-numeric or flagged out-of-range.
        levels = np.random.default_rng(0).integers(0, 2, size=(4,) + SHAPE).astype(bool)
        clean, good, quarantined = validate_levels(levels, SHAPE, LEVELS)
        assert quarantined == {}
        np.testing.assert_array_equal(good, np.arange(4))
        np.testing.assert_array_equal(clean, levels.astype(np.intp))

    def test_bool_batch_out_of_range_when_binary_exceeds_levels(self):
        # With a single-level codebook even True is out of range.
        levels = np.ones((2,) + SHAPE, dtype=bool)
        _, good, quarantined = validate_levels(levels, SHAPE, n_levels=1)
        assert good.size == 0
        assert quarantined == {0: "out-of-range", 1: "out-of-range"}

    def test_empty_batch_passes_with_empty_clean(self):
        clean, good, quarantined = validate_levels(
            np.zeros((0,) + SHAPE, dtype=np.int64), SHAPE, LEVELS
        )
        assert clean.shape == (0,) + SHAPE
        assert good.size == 0 and quarantined == {}

    def test_single_sample_promotion_validates_content(self):
        # Promotion via levels[None] must still run the full checks.
        sample = np.full(SHAPE, np.nan)
        _, good, quarantined = validate_levels(sample, SHAPE, LEVELS)
        assert good.size == 0 and quarantined == {0: "non-finite"}

    def test_mixed_reasons_keep_first_reason_precedence(self):
        # A row that is both non-finite and out-of-range reports the
        # reason detected first; distinct bad rows keep their own reasons.
        levels = _levels_batch(5).astype(np.float64)
        levels[1, 0, 0] = np.nan
        levels[1, 0, 1] = LEVELS + 3  # also out of range
        levels[2, 0, 0] = -4.0  # purely out of range
        levels[4, 0, 0] = 2.5  # non-integral, and 2.5 is in range
        _, good, quarantined = validate_levels(levels, SHAPE, LEVELS)
        assert quarantined == {
            1: "non-finite",
            2: "out-of-range",
            4: "non-integral",
        }
        np.testing.assert_array_equal(good, [0, 3])


class TestHealthyPath:
    def test_matches_plain_engine_and_reports_clean(self, engine):
        levels = _levels_batch(23, seed=1)
        expected = engine.scores(levels)
        with ResilientBatchRunner(
            engine, shard_size=5, workers=3, policy=FAST_POLICY, chaos=ChaosSpec()
        ) as runner:
            result = runner.run(levels)
        np.testing.assert_array_equal(result.scores, expected)
        np.testing.assert_array_equal(result.predictions, expected.argmax(axis=1))
        report = result.report
        assert isinstance(report, BatchReport)
        assert report.ok and not report.degraded
        assert report.retries == 0 and report.fallbacks == 0
        assert [s.status for s in report.shards] == ["ok"] * len(report.shards)
        assert runner.last_report is report

    def test_shard_engine_label_follows_runner_engine(self, engine):
        """Every shard is attributed to the engine that scored it: the
        runner's own mode, not a hard-coded label."""
        levels = _levels_batch(12, seed=3)
        for runner_engine in (engine, engine.sibling("legacy")):
            with ResilientBatchRunner(
                runner_engine, shard_size=4, workers=2, policy=FAST_POLICY,
                chaos=ChaosSpec(),
            ) as runner:
                report = runner.run(levels).report
            labels = [s["engine"] for s in report.as_dict()["shards"]]
            assert labels == [runner_engine.mode] * 3
        assert engine.mode == "fused"

    def test_scores_predict_stay_drop_in(self, engine):
        levels = _levels_batch(9, seed=2)
        with ResilientBatchRunner(
            engine, shard_size=4, workers=2, policy=FAST_POLICY, chaos=ChaosSpec()
        ) as runner:
            np.testing.assert_array_equal(runner.scores(levels), engine.scores(levels))
            np.testing.assert_array_equal(
                runner.predict(levels), engine.predict(levels)
            )

    def test_empty_batch(self, engine):
        with ResilientBatchRunner(engine, policy=FAST_POLICY, chaos=ChaosSpec()) as r:
            result = r.run(_levels_batch(0))
        assert result.scores.shape[0] == 0
        assert result.report.batch == 0 and result.report.ok


class TestRetry:
    def test_targeted_fault_is_retried_bit_exact(self, engine):
        levels = _levels_batch(20, seed=3)
        chaos = ChaosSpec(raise_on=frozenset({(1, 0)}))
        registry = MetricsRegistry()
        with using_registry(registry):
            with ResilientBatchRunner(
                engine, shard_size=5, workers=2, policy=FAST_POLICY, chaos=chaos
            ) as runner:
                result = runner.run(levels)
        np.testing.assert_array_equal(result.scores, engine.scores(levels))
        status = result.report.shards[1]
        assert status.status == "ok"
        assert status.retries == 1 and status.attempts == 2
        assert status.errors == ["ChaosError"]
        assert result.report.shards[0].retries == 0
        assert registry.counter("resilience.retries").value == 1
        assert registry.counter("resilience.chaos_faults").value == 1
        assert registry.histogram("batch.retry").count == 1

    def test_inline_single_worker_ladder(self, engine):
        """workers=1 thread mode never builds a pool but still retries."""
        levels = _levels_batch(10, seed=4)
        chaos = ChaosSpec(raise_on=frozenset({(0, 0), (1, 0)}))
        with ResilientBatchRunner(
            engine, shard_size=5, workers=1, policy=FAST_POLICY, chaos=chaos
        ) as runner:
            result = runner.run(levels)
            assert runner._pool is None
        np.testing.assert_array_equal(result.scores, engine.scores(levels))
        assert result.report.retries == 2


class TestFallback:
    def test_exhausted_retries_fall_back_to_seed_engine(self, engine):
        levels = _levels_batch(12, seed=5)
        # Shard 1 fails every pool attempt (initial + 2 retries); the
        # fallback attempt (index 3) is not targeted and succeeds.
        chaos = ChaosSpec(raise_on=frozenset({(1, 0), (1, 1), (1, 2)}))
        registry = MetricsRegistry()
        with using_registry(registry):
            with ResilientBatchRunner(
                engine, shard_size=4, workers=2, policy=FAST_POLICY, chaos=chaos
            ) as runner:
                result = runner.run(levels)
        # Fused/legacy parity: the legacy fallback is bit-exact.
        np.testing.assert_array_equal(result.scores, engine.scores(levels))
        status = result.report.shards[1]
        assert status.status == "fallback" and status.engine == "seed"
        assert {s.engine for s in result.report.shards} == {"fused", "seed"}
        assert status.retries == 2
        assert result.report.fallbacks == 1 and result.report.degraded
        assert result.report.ok  # degraded but every sample served
        assert registry.counter("resilience.fallbacks").value == 1

    def test_fallback_disabled_fails_shard(self, engine):
        levels = _levels_batch(12, seed=6)
        chaos = ChaosSpec(raise_on=frozenset({(1, 0), (1, 1)}))
        policy = RetryPolicy(
            max_retries=1, backoff_base_s=0.0, backoff_max_s=0.0, fallback=False
        )
        with ResilientBatchRunner(
            engine, shard_size=4, workers=2, policy=policy, chaos=chaos
        ) as runner:
            result = runner.run(levels)
        report = result.report
        assert report.shards[1].status == "failed"
        assert report.failed_samples == [4, 5, 6, 7]
        assert not report.ok
        np.testing.assert_array_equal(
            result.predictions[4:8], [QUARANTINED_LABEL] * 4
        )
        np.testing.assert_array_equal(result.scores[4:8], 0)
        # The other shards are untouched.
        expected = engine.scores(levels)
        np.testing.assert_array_equal(result.scores[:4], expected[:4])
        np.testing.assert_array_equal(result.scores[8:], expected[8:])


class TestQuarantine:
    def test_bad_samples_are_isolated_not_fatal(self, engine):
        levels = _levels_batch(10, seed=7).astype(np.float64)
        levels[2, 0, 0] = np.nan
        levels[7, 0, 0] = np.inf
        registry = MetricsRegistry()
        with using_registry(registry):
            with ResilientBatchRunner(
                engine, shard_size=4, workers=2, policy=FAST_POLICY, chaos=ChaosSpec()
            ) as runner:
                result = runner.run(levels)
        report = result.report
        assert report.batch == 10
        assert set(report.quarantined) == {2, 7}
        assert report.excluded == [2, 7]
        good = [i for i in range(10) if i not in (2, 7)]
        expected = engine.scores(levels[good].astype(np.int64))
        np.testing.assert_array_equal(result.scores[good], expected)
        assert result.predictions[2] == QUARANTINED_LABEL
        assert result.predictions[7] == QUARANTINED_LABEL
        assert registry.counter("resilience.quarantined").value == 2

    def test_validation_can_be_disabled(self, engine):
        levels = _levels_batch(6, seed=8)
        policy = RetryPolicy(backoff_base_s=0.0, backoff_max_s=0.0, validate=False)
        with ResilientBatchRunner(
            engine, shard_size=3, policy=policy, chaos=ChaosSpec()
        ) as runner:
            result = runner.run(levels)
        assert result.report.quarantined == {}
        np.testing.assert_array_equal(result.scores, engine.scores(levels))


class TestBreaker:
    def test_consecutive_failures_trip_the_breaker(self, engine):
        levels = _levels_batch(24, seed=9)
        chaos = ChaosSpec(raise_rate=1.0)  # every attempt fails
        policy = RetryPolicy(
            max_retries=0,
            backoff_base_s=0.0,
            backoff_max_s=0.0,
            fallback=False,
            breaker_threshold=2,
        )
        registry = MetricsRegistry()
        with using_registry(registry):
            with ResilientBatchRunner(
                engine, shard_size=4, workers=2, policy=policy, chaos=chaos
            ) as runner:
                with pytest.raises(CircuitOpenError) as exc_info:
                    runner.run(levels)
        report = exc_info.value.report
        assert report.breaker_open
        statuses = [s.status for s in report.shards]
        assert statuses[:2] == ["failed", "failed"]
        assert statuses[2:] == ["skipped"] * 4  # fail fast, no more attempts
        assert runner.last_report is report
        assert registry.gauge("resilience.breaker_open").value == 1.0

    def test_fallback_success_resets_the_count(self, engine):
        levels = _levels_batch(24, seed=10)
        chaos = ChaosSpec(raise_on=frozenset({(i, 0) for i in range(6)}))
        policy = RetryPolicy(
            max_retries=0,
            backoff_base_s=0.0,
            backoff_max_s=0.0,
            fallback=True,
            breaker_threshold=2,
        )
        with ResilientBatchRunner(
            engine, shard_size=4, workers=2, policy=policy, chaos=chaos
        ) as runner:
            result = runner.run(levels)  # must NOT raise
        assert not result.report.breaker_open
        assert result.report.fallbacks == 6
        np.testing.assert_array_equal(result.scores, engine.scores(levels))


class TestProcessExecutor:
    def test_chaos_raise_acceptance_batch(self, engine):
        """The ISSUE acceptance scenario: batch 256, process pool,
        ``raise:0.1`` chaos — completes order-preserving and bit-exact."""
        levels = _levels_batch(256, seed=11)
        chaos = ChaosSpec.parse("raise:0.1", seed=7)
        registry = MetricsRegistry()
        with using_registry(registry):
            with ResilientBatchRunner(
                engine,
                shard_size=16,
                workers=2,
                executor="process",
                policy=RetryPolicy(max_retries=3, backoff_base_s=0.001),
                chaos=chaos,
            ) as runner:
                result = runner.run(levels)
        report = result.report
        assert report.batch == 256
        assert len(report.shards) == 16
        assert all(s.status in ("ok", "fallback") for s in report.shards)
        assert report.retries > 0  # chaos actually fired at this seed
        np.testing.assert_array_equal(
            result.predictions, engine.scores(levels).argmax(axis=1)
        )
        assert registry.counter("resilience.retries").value == report.retries

    def test_worker_crash_recovers_on_fresh_pool(self, engine):
        """A hard worker death (os._exit) breaks the pool; the runner
        replaces it and re-serves the lost shards bit-exact."""
        levels = _levels_batch(32, seed=12)
        chaos = ChaosSpec(crash_on=frozenset({(1, 0)}))
        with ResilientBatchRunner(
            engine,
            shard_size=8,
            workers=2,
            executor="process",
            policy=RetryPolicy(max_retries=2, backoff_base_s=0.001),
            chaos=chaos,
        ) as runner:
            result = runner.run(levels)
        np.testing.assert_array_equal(result.scores, engine.scores(levels))
        report = result.report
        assert all(s.status == "ok" for s in report.shards)
        crashed = report.shards[1]
        assert crashed.retries >= 1
        assert "BrokenProcessPool" in crashed.errors

    def test_simultaneous_crashes_complete_batch(self, engine):
        """Every first attempt crashes its worker, so pool breakage can
        surface at submit time too (initial enqueue, retry resubmission,
        recovery resubmission).  All of it must feed the retry ladder —
        the batch completes instead of aborting on a BrokenProcessPool
        raised outside a shard's result() call."""
        levels = _levels_batch(32, seed=19)
        chaos = ChaosSpec(crash_on=frozenset({(s, 0) for s in range(4)}))
        with ResilientBatchRunner(
            engine,
            shard_size=8,
            workers=2,
            executor="process",
            policy=RetryPolicy(max_retries=3, backoff_base_s=0.001),
            chaos=chaos,
        ) as runner:
            result = runner.run(levels)
        np.testing.assert_array_equal(result.scores, engine.scores(levels))
        assert all(
            s.status in ("ok", "fallback") for s in result.report.shards
        )

    def test_recover_pool_keeps_pre_break_errors(self, engine, monkeypatch):
        """A future that resolved with a real error before the pool broke
        keeps its outcome for the collector's ladder; only execution
        genuinely lost to the breakage is resubmitted."""
        runner = ResilientBatchRunner(
            engine, executor="process", policy=FAST_POLICY, chaos=ChaosSpec()
        )
        statuses = [ShardStatus(i, i * 4, i * 4 + 4) for i in range(4)]
        survived = _FakeFuture()  # completed with a result
        real_error = _FakeFuture(exc=ChaosError("pre-break failure"))
        lost = _FakeFuture(exc=BrokenProcessPool("lost in-flight"))
        futures = {0: survived, 1: real_error, 2: lost}
        parts = [np.zeros((4, 1)), None, None, None]
        submitted = []
        monkeypatch.setattr(runner, "_replace_pool", lambda stale=None: "fresh-pool")
        monkeypatch.setattr(
            runner,
            "_submit",
            lambda pool, status, clean, segments: (
                submitted.append((status.index, status.attempts))
                or f"resubmitted-{status.index}"
            ),
        )
        clean = np.zeros((16,) + SHAPE, dtype=np.intp)
        runner._recover_pool(
            statuses, futures, clean, parts, MetricsRegistry(), current=3
        )
        assert futures[1] is real_error
        assert statuses[1].retries == 0 and statuses[1].errors == []
        assert submitted == [(2, 1)]
        assert futures[2] == "resubmitted-2"
        assert statuses[2].retries == 1
        assert statuses[2].errors == ["BrokenProcessPool"]

    def test_recover_pool_passes_stale_pool(self, engine, monkeypatch):
        """Recovery must replace only the pool the broken future ran on.

        Pipelined batches share one pool: if a sibling batch already
        swapped the broken executor for a fresh one, an unconditional
        replace would shut the healthy replacement down mid-flight and
        cascade the breakage back to the sibling."""
        runner = ResilientBatchRunner(
            engine, executor="process", policy=FAST_POLICY, chaos=ChaosSpec()
        )
        statuses = [ShardStatus(0, 0, 4)]
        seen = []
        monkeypatch.setattr(
            runner,
            "_replace_pool",
            lambda stale=None: seen.append(stale) or "fresh-pool",
        )
        runner._recover_pool(
            statuses,
            {},
            np.zeros((4,) + SHAPE, dtype=np.intp),
            [None],
            MetricsRegistry(),
            current=0,
            pools={0: "broken-pool"},
        )
        assert seen == ["broken-pool"]


class TestPipelinedConcurrency:
    """Concurrent batches through ONE shared process runner stay bit-exact.

    This is what ``max_inflight=2`` serving does: two executor threads
    interleave ``runner.run()`` on the same pool, arena, and operand
    plane, with micro-batches of varying sizes.  The varied sizes churn
    the workers' attach cache past its LRU bound — the regression this
    pins down is an eviction unmapping pages under the worker engine's
    live operand views (segfault → chaos-free BrokenProcessPool →
    recovery churn corrupting innocent batches)."""

    def test_concurrent_varied_batches_bit_exact(self, engine):
        import threading

        registry = MetricsRegistry()
        failures = []
        with using_registry(registry):
            with ResilientBatchRunner(
                engine,
                shard_size=8,
                workers=2,
                executor="process",
                policy=FAST_POLICY,
                chaos=ChaosSpec(),
            ) as runner:

                def drive(tid):
                    gen = np.random.default_rng(tid)
                    for it in range(6):
                        n = int(gen.integers(17, 33))
                        levels = _levels_batch(n, seed=tid * 100 + it)
                        result = runner.run(levels)
                        expected = engine.scores(levels)
                        if not np.array_equal(result.scores, expected):
                            failures.append((tid, it, "scores diverged"))
                        bad = [
                            (s.index, s.status, s.errors)
                            for s in result.report.shards
                            if s.status != "ok" or s.errors
                        ]
                        if bad:
                            failures.append((tid, it, bad))

                threads = [
                    threading.Thread(target=drive, args=(t,)) for t in range(2)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        assert failures == []
        # Chaos-free concurrency must not break a single pool worker.
        assert registry.counter("resilience.broken_pools").value == 0
        assert registry.counter("resilience.errors").value == 0


class TestCrashGating:
    def test_crash_spec_rejected_on_thread_executor(self, engine):
        """`crash` can only kill process-pool workers; a thread-executor
        runner rejects the spec instead of letting it either no-op or —
        the seed bug — hard-kill the serving process itself."""
        with pytest.raises(ValueError, match="executor='process'"):
            ResilientBatchRunner(
                engine, policy=FAST_POLICY, chaos=ChaosSpec(crash_rate=0.1)
            )
        with pytest.raises(ValueError, match="executor='process'"):
            ResilientBatchRunner(
                engine,
                policy=FAST_POLICY,
                chaos=ChaosSpec(crash_on=frozenset({(0, 0)})),
            )

    def test_single_shard_inline_run_survives_certain_crash(self, engine):
        """With one shard the process executor computes inline in the
        serving process; a crash_rate=1.0 draw there must be skipped,
        not exit the orchestrator."""
        levels = _levels_batch(8, seed=15)
        with ResilientBatchRunner(
            engine,
            shard_size=64,
            workers=2,
            executor="process",
            policy=FAST_POLICY,
            chaos=ChaosSpec(crash_rate=1.0),
        ) as runner:
            result = runner.run(levels)
            assert runner._pool is None  # inline path, no pool built
        np.testing.assert_array_equal(result.scores, engine.scores(levels))
        assert result.report.ok

    def test_fallback_crash_draw_does_not_kill_parent(self, engine):
        """A shard whose every pool attempt crashes falls back inline;
        the fallback attempt's own targeted crash draw fires in the
        parent and must be skipped there."""
        levels = _levels_batch(16, seed=16)
        chaos = ChaosSpec(crash_on=frozenset({(0, a) for a in range(8)}))
        with ResilientBatchRunner(
            engine,
            shard_size=8,
            workers=2,
            executor="process",
            policy=RetryPolicy(max_retries=1, backoff_base_s=0.001),
            chaos=chaos,
        ) as runner:
            result = runner.run(levels)
        np.testing.assert_array_equal(result.scores, engine.scores(levels))
        status = result.report.shards[0]
        assert status.status == "fallback" and status.engine == "seed"


class TestInlineBitflip:
    def test_single_shard_inline_bitflip_under_process_executor(self, engine):
        """Bitflip chaos must reach the inline path of a process-executor
        runner (the seed bug installed chaos kernels only for thread
        executors and pool workers, so the configured fault silently did
        nothing here)."""
        levels = _levels_batch(8, seed=17)
        chaos = ChaosSpec(bitflip_rate=0.05, seed=3)
        with ResilientBatchRunner(
            engine,
            shard_size=64,
            workers=2,
            executor="process",
            policy=FAST_POLICY,
            chaos=chaos,
        ) as runner:
            result = runner.run(levels)
            assert runner._pool is None  # inline path, no pool built
        assert not np.array_equal(result.scores, engine.scores(levels))


class _FakeFuture:
    """Minimal concurrent.futures.Future stand-in for recovery tests."""

    def __init__(self, exc=None, done=True):
        self._exc = exc
        self._done = done

    def done(self):
        return self._done

    def cancelled(self):
        return False

    def exception(self):
        return self._exc

    def cancel(self):
        return False


class _CountingEngine:
    """Forwarding engine proxy that counts ``scores`` calls."""

    def __init__(self, engine):
        self._engine = engine
        self.calls = 0

    def scores(self, levels):
        self.calls += 1
        return self._engine.scores(levels)

    def __getattr__(self, name):
        return getattr(self._engine, name)


class TestTimeout:
    def test_late_result_collected_instead_of_recomputing(self, engine):
        """A timed-out thread attempt cannot be interrupted; when it
        finishes during the retry backoff its result is collected rather
        than paying for a redundant resubmission."""
        counting = _CountingEngine(engine)
        levels = _levels_batch(8, seed=18)
        chaos = ChaosSpec(delay_on=frozenset({(0, 0)}))  # shard 0 sleeps 50ms
        policy = RetryPolicy(
            max_retries=2, timeout_s=0.01, backoff_base_s=0.5, backoff_max_s=0.5
        )
        with ResilientBatchRunner(
            counting, shard_size=4, workers=2, policy=policy, chaos=chaos
        ) as runner:
            result = runner.run(levels)
        np.testing.assert_array_equal(result.scores, engine.scores(levels))
        status = result.report.shards[0]
        assert status.status == "ok"
        assert status.retries == 1
        assert "TimeoutError" in status.errors
        # One computation per shard: the abandoned attempt's late result
        # was reused, shard 0 was never recomputed.
        assert counting.calls == 2


class TestServingPredictFn:
    def test_routes_through_resilient_runner(self, engine):
        predict = serving_predict_fn(
            workers=2, shard_size=8, policy=FAST_POLICY, chaos=ChaosSpec()
        )
        levels = _levels_batch(20, seed=13)
        np.testing.assert_array_equal(
            predict(engine.artifacts, levels),
            engine.scores(levels).argmax(axis=1),
        )

    def test_fault_sweep_integration(self, engine):
        from repro.hw import fault_sweep

        levels = _levels_batch(24, seed=14)
        labels = engine.predict(levels)
        report = fault_sweep(
            engine.artifacts,
            levels,
            labels,
            flip_fractions=(0.0, 0.4),
            seed=0,
            predict_fn=serving_predict_fn(
                workers=2, shard_size=8, policy=FAST_POLICY, chaos=ChaosSpec()
            ),
        )
        assert report.baseline_accuracy == pytest.approx(1.0)
        assert report.accuracies[0] == pytest.approx(1.0)  # 0-flip point


class TestLedgerHarvest:
    def test_resilience_metrics_land_in_run_records(self, engine, tmp_path):
        from repro.obs import record_run

        levels = _levels_batch(16, seed=15)
        chaos = ChaosSpec(raise_on=frozenset({(0, 0)}))
        registry = MetricsRegistry()
        with using_registry(registry):
            with ResilientBatchRunner(
                engine, shard_size=4, workers=2, policy=FAST_POLICY, chaos=chaos
            ) as runner:
                runner.run(levels)
            record = record_run(
                "chaos",
                "unit",
                ledger_path=tmp_path / "ledger.jsonl",
                registry=registry,
            )
        assert record.metrics["resilience.retries"] == 1.0
        assert record.metrics["resilience.breaker_open"] == 0.0
