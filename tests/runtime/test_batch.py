"""ResilientBatchRunner: sharding, order preservation, executor modes,
observability, and the one-path process-pool invariants."""

import numpy as np
import pytest

from repro.core import BitPackedUniVSA, UniVSAConfig, UniVSAModel, extract_artifacts
from repro.obs import MetricsRegistry, Tracer, using_registry, using_tracer
from repro.runtime import (
    ChaosSpec,
    CircuitOpenError,
    ResilientBatchRunner,
    RetryPolicy,
    leaked_segments,
    resolve_workers,
)

LEVELS = 10
SHAPE = (5, 8)
CONFIG = UniVSAConfig(
    d_high=4, d_low=2, kernel_size=3, out_channels=6, voters=2, levels=LEVELS
)


def _mask():
    mask = np.zeros(SHAPE, dtype=np.int8)
    mask[::2] = 1
    return mask


@pytest.fixture(scope="module")
def engine():
    model = UniVSAModel(SHAPE, 3, CONFIG, mask=_mask(), seed=0)
    return BitPackedUniVSA(extract_artifacts(model))


def _levels_batch(n, seed=0):
    return np.random.default_rng(seed).integers(0, LEVELS, size=(n,) + SHAPE)


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers() == 5

    def test_garbage_env_falls_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        assert resolve_workers() >= 1

    def test_floor_of_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-4) == 1


class TestSharding:
    def test_default_shards_are_order_covering(self, engine):
        runner = ResilientBatchRunner(engine, workers=2)
        spans = runner._shards(11)
        assert spans[0][0] == 0 and spans[-1][1] == 11
        rebuilt = [i for a, b in spans for i in range(a, b)]
        assert rebuilt == list(range(11))

    def test_explicit_shard_size(self, engine):
        runner = ResilientBatchRunner(engine, shard_size=4)
        assert runner._shards(10) == [(0, 4), (4, 8), (8, 10)]

    def test_shard_size_larger_than_batch(self, engine):
        runner = ResilientBatchRunner(engine, shard_size=100)
        assert runner._shards(3) == [(0, 3)]

    def test_rejects_unknown_executor(self, engine):
        with pytest.raises(ValueError, match="unknown executor"):
            ResilientBatchRunner(engine, executor="fiber")

    def test_effective_shard_size_exposed(self, engine):
        runner = ResilientBatchRunner(engine, workers=2)
        assert runner.effective_shard_size(16) == 4  # ceil(16 / (2*2))
        assert ResilientBatchRunner(engine, shard_size=7).effective_shard_size(100) == 7

    def test_degenerate_batch_smaller_than_workers(self, engine):
        """Regression: n < workers used to compute phantom empty shards;
        now the divisor caps at n, giving n single-sample shards."""
        runner = ResilientBatchRunner(engine, workers=8)
        assert runner.effective_shard_size(3) == 1
        spans = runner._shards(3)
        assert spans == [(0, 1), (1, 2), (2, 3)]
        assert all(b > a for a, b in spans)  # no empty shard, ever
        levels = _levels_batch(3, seed=9)
        with ResilientBatchRunner(engine, workers=8) as small:
            np.testing.assert_array_equal(
                small.scores(levels), engine.scores(levels)
            )

    def test_effective_shard_size_empty_batch(self, engine):
        assert ResilientBatchRunner(engine, workers=4).effective_shard_size(0) == 0
        assert ResilientBatchRunner(engine, workers=4)._shards(0) == []


class TestThreadedScores:
    def test_matches_direct_engine_and_preserves_order(self, engine):
        levels = _levels_batch(23, seed=1)
        expected = engine.scores(levels)
        with ResilientBatchRunner(engine, shard_size=5, workers=3) as runner:
            np.testing.assert_array_equal(runner.scores(levels), expected)
            np.testing.assert_array_equal(
                runner.predict(levels), expected.argmax(axis=1)
            )

    def test_single_worker_runs_inline(self, engine):
        levels = _levels_batch(8, seed=2)
        with ResilientBatchRunner(engine, shard_size=3, workers=1) as runner:
            np.testing.assert_array_equal(
                runner.scores(levels), engine.scores(levels)
            )
            assert runner._pool is None  # never spun up a pool

    def test_empty_batch(self, engine):
        with ResilientBatchRunner(engine, workers=2) as runner:
            scores = runner.scores(_levels_batch(0))
        assert scores.shape[0] == 0

    def test_score_accuracy(self, engine):
        levels = _levels_batch(12, seed=3)
        y = engine.predict(levels)
        with ResilientBatchRunner(engine, shard_size=4, workers=2) as runner:
            assert runner.score(levels, y) == 1.0


class TestObservability:
    def test_metrics_and_spans(self, engine):
        levels = _levels_batch(10, seed=4)
        registry = MetricsRegistry()
        tracer = Tracer()
        with using_registry(registry), using_tracer(tracer):
            with ResilientBatchRunner(engine, shard_size=4, workers=2) as runner:
                runner.scores(levels)
        assert registry.counter("batch.samples").value == 10
        assert registry.counter("batch.shards").value == 3
        assert registry.gauge("batch.workers").value == 2
        assert registry.histogram("batch.shard").count == 3
        roots = [trace[0].name for trace in tracer.traces()]
        assert "batch.run" in roots
        run_root = next(t[0] for t in tracer.traces() if t[0].name == "batch.run")
        assert run_root.attrs["batch"] == 10
        assert run_root.attrs["shards"] == 3


class TestChaosRegression:
    """Order-preservation pins under injected faults, exercised through
    the ``scores`` API."""

    def test_middle_shard_crash_retry_preserves_order(self, engine):
        """A worker crash on the middle shard's first attempt must not
        reorder results: the retried shard lands back in its span."""
        levels = _levels_batch(24, seed=6)
        expected = engine.scores(levels)
        with ResilientBatchRunner(
            engine,
            shard_size=8,
            workers=2,
            executor="process",
            policy=RetryPolicy(max_retries=2, backoff_base_s=0.001),
            chaos=ChaosSpec(crash_on=frozenset({(1, 0)})),
        ) as runner:
            scores = runner.scores(levels)
        np.testing.assert_array_equal(scores, expected)
        middle = runner.last_report.shards[1]
        assert middle.status == "ok" and middle.retries >= 1

    def test_thread_executor_equals_serial_under_delay_chaos(self, engine):
        """Injected latency skews shard completion order; results must
        still equal the serial engine exactly."""
        levels = _levels_batch(21, seed=7)
        with ResilientBatchRunner(
            engine,
            shard_size=3,
            workers=4,
            executor="thread",
            policy=RetryPolicy(backoff_base_s=0.0, backoff_max_s=0.0),
            chaos=ChaosSpec(delay_s=0.002),
        ) as runner:
            np.testing.assert_array_equal(
                runner.scores(levels), engine.scores(levels)
            )
        assert runner.last_report.ok


#: The fail-fast policy: the first failing shard opens the breaker.
FAIL_FAST = RetryPolicy(max_retries=0, fallback=False, breaker_threshold=1)


class TestFailureCancelsSiblings:
    def test_failed_shard_cancels_queued_siblings(self, engine):
        """Regression: when one shard raised, its queued siblings kept
        grinding through the pool; under the fail-fast policy scores()
        must cancel what has not started before raising.  Markers 1/2
        block both workers while marker 0 fails, so the marker-3 shard
        is still queued when the breaker opens — it must never execute."""
        import threading

        release = threading.Event()
        executed = []

        class _Engine:
            mode = "fused"
            input_shape = (1,)
            n_levels = 4
            artifacts = engine.artifacts

            def scores(self, levels):
                marker = int(levels[0, 0])
                if marker == 0:
                    raise RuntimeError("shard zero exploded")
                release.wait(timeout=10.0)
                executed.append(marker)
                return np.zeros((len(levels), 3))

        levels = np.arange(4, dtype=np.int64)[:, None]
        with ResilientBatchRunner(
            _Engine(), shard_size=1, workers=2, policy=FAIL_FAST, chaos=ChaosSpec()
        ) as runner:
            with pytest.raises(CircuitOpenError) as info:
                runner.scores(levels)
            # cancellation already happened; unblock the in-flight shards
            release.set()
        assert info.value.report.shards[0].errors == ["RuntimeError"]
        assert 3 not in executed


class TestProcessExecutor:
    def test_matches_direct_engine(self, engine):
        levels = _levels_batch(9, seed=5)
        expected = engine.scores(levels)
        registry = MetricsRegistry()
        with using_registry(registry):
            with ResilientBatchRunner(
                engine, shard_size=3, workers=2, executor="process"
            ) as runner:
                np.testing.assert_array_equal(runner.scores(levels), expected)
        # parent-side shard timings observed from worker-reported durations
        assert registry.histogram("batch.shard").count == 3


class TestOnePathInvariants:
    """A process pool has one handoff (shared memory) and one repair
    path (operand-plane re-publish); a thread pool repairs in place."""

    def test_process_runner_never_pickles_shards(self, engine):
        levels = _levels_batch(16, seed=11)
        registry = MetricsRegistry()
        with using_registry(registry):
            with ResilientBatchRunner(
                engine, shard_size=4, workers=2, executor="process"
            ) as runner:
                np.testing.assert_array_equal(
                    runner.scores(levels), engine.scores(levels)
                )
                shards = runner.last_report.n_shards
        assert "batch.bytes_pickled" not in registry.counters()
        assert shards == 4
        assert registry.counter("batch.shm.attach").value >= shards
        assert leaked_segments() == []

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_replace_engine_keeps_the_live_executor(self, executor):
        engine_a = BitPackedUniVSA(
            extract_artifacts(UniVSAModel(SHAPE, 3, CONFIG, mask=_mask(), seed=0))
        )
        engine_b = BitPackedUniVSA(
            extract_artifacts(UniVSAModel(SHAPE, 3, CONFIG, mask=_mask(), seed=7))
        )
        levels = _levels_batch(12, seed=12)
        expected_b = engine_b.scores(levels)
        assert not np.array_equal(engine_a.scores(levels), expected_b)
        with ResilientBatchRunner(
            engine_a, shard_size=4, workers=2, executor=executor
        ) as runner:
            runner.scores(levels)
            live = runner._pool
            assert live is not None
            runner.replace_engine(engine_b)
            assert runner._pool is live
            scores = runner.scores(levels)
            assert runner._pool is live
        assert scores.dtype == np.int64
        np.testing.assert_array_equal(scores, expected_b)
        assert leaked_segments() == []


class TestNoPlannerInvariants:
    """The datapath's schedule is fixed at design time: no planner
    subcommand, no tile argument, no tile key in shipped engine state."""

    def test_cli_has_no_plan_subcommand(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "run", "bci-iii-v"])

    def test_engine_takes_no_tile_argument(self, engine):
        with pytest.raises(TypeError):
            BitPackedUniVSA(engine.artifacts, "fused", 2.0)
        with pytest.raises(TypeError):
            engine.sibling("legacy", 2.0)

    def test_process_runner_state_has_no_tile_key(self, engine):
        levels = _levels_batch(16, seed=13)
        oracle = engine.sibling("legacy").scores(levels)
        with ResilientBatchRunner(
            engine, shard_size=4, workers=2, executor="process"
        ) as runner:
            _, meta = runner.engine.operand_state()
            scores = runner.scores(levels)
        assert not [key for key in meta if "tile" in key]
        assert scores.dtype == np.int64
        np.testing.assert_array_equal(scores, oracle)
        assert leaked_segments() == []
