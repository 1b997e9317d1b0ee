"""Execution planner: calibration sweep, plan cache, knob consumption.

The planner's contract: calibration only ever crowns a bit-exact
configuration, plans persist keyed by (config hash, kernel set, cpu
count), ``REPRO_PLAN`` resolution is off/auto/path, and a plan fills in
only the knobs a caller left unset — explicit arguments always win.
"""

import asyncio
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import BitPackedUniVSA, UniVSAConfig, UniVSAModel, extract_artifacts
from repro.obs import config_hash
from repro.runtime import (
    ExecutionPlan,
    MicroBatchServer,
    ResilientBatchRunner,
    RetryPolicy,
    ServePolicy,
    calibrate,
    clear_plan_cache,
    load_plan_cache,
    plan_key,
    resolve_plan,
    store_plan,
)
from repro.runtime.batch import _active_plan
from repro.runtime.plan import cached_plan_for
from repro.vsa.kernels import get_kernels

COMMITTED_PLAN_CACHE = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "results" / "plan_cache.json"
)

LEVELS = 10
SHAPE = (5, 8)
CONFIG = UniVSAConfig(
    d_high=4, d_low=2, kernel_size=3, out_channels=6, voters=2, levels=LEVELS
)


@pytest.fixture(scope="module")
def engine():
    model = UniVSAModel(SHAPE, 3, CONFIG, seed=0)
    return BitPackedUniVSA(extract_artifacts(model), mode="fused")


@pytest.fixture(scope="module")
def plan(engine):
    return calibrate(engine, batch=32, repeats=1)


def _make_plan(engine, **overrides):
    """A hand-built plan carrying this engine's real cache key."""
    key = plan_key(
        config_hash(engine.artifacts.config), get_kernels().name, os.cpu_count() or 1
    )
    fields = dict(
        executor="thread",
        workers=2,
        shard_size=4,
        conv_tile_mb=2.0,
        max_inflight=1,
        samples_per_s=1.0,
        key=key,
        config_hash=config_hash(engine.artifacts.config),
        kernel_set=get_kernels().name,
        cpu_count=os.cpu_count() or 1,
        calibration_batch=32,
    )
    fields.update(overrides)
    return ExecutionPlan(**fields)


class TestCalibration:
    def test_plan_fields_and_measurements(self, plan):
        assert plan.executor in ("inline", "thread", "process")
        assert plan.conv_tile_mb in (0.5, 2.0, 8.0)
        assert plan.max_inflight in (1, 2)
        assert plan.samples_per_s > 0
        labels = [label for label, _ in plan.measurements]
        # the tile sweep, the inline candidate, and both depth probes
        # are always present; pool candidates depend on cpu count
        for expected in (
            "tile_0.5mb", "tile_2mb", "tile_8mb",
            "inline", "inflight_1", "inflight_2",
        ):
            assert expected in labels
        assert all(rate >= 0 for _, rate in plan.measurements)

    def test_key_is_stable_and_provenance_keyed(self, engine, plan):
        assert plan.key == plan_key(
            config_hash(engine.artifacts.config),
            get_kernels().name,
            os.cpu_count() or 1,
        )
        # a different machine shape yields a different key
        assert plan.key != plan_key(plan.config_hash, plan.kernel_set, 999)

    def test_calibrated_knobs_reproduce_bit_exact_scores(self, engine, plan):
        levels = np.random.default_rng(3).integers(0, LEVELS, size=(17,) + SHAPE)
        expected = engine.scores(levels)
        candidate = BitPackedUniVSA(
            engine.artifacts, mode="fused", conv_tile_mb=plan.conv_tile_mb
        )
        if plan.executor == "inline":
            np.testing.assert_array_equal(candidate.scores(levels), expected)
        else:
            with ResilientBatchRunner(candidate, **plan.runner_kwargs()) as runner:
                np.testing.assert_array_equal(runner.scores(levels), expected)

    def test_ledger_metrics_are_flat_floats(self, plan):
        metrics = plan.ledger_metrics()
        assert metrics["plan.samples_per_s"] == plan.samples_per_s
        assert metrics["plan.max_inflight"] == float(plan.max_inflight)
        assert all(isinstance(v, float) for v in metrics.values())


class TestPlanCache:
    def test_runner_kwargs_have_no_shm_switch(self, engine):
        for executor in ("inline", "thread", "process"):
            assert "shm" not in _make_plan(engine, executor=executor).runner_kwargs()

    def test_plan_with_retired_use_shm_key_loads(self, engine):
        """Cached plans written while ``use_shm`` was a knob (the
        committed plan cache holds some) still load: the retired key is
        ignored."""
        payload = _make_plan(engine, executor="process").as_dict()
        assert "use_shm" not in payload
        payload["use_shm"] = True
        loaded = ExecutionPlan.from_dict(payload)
        assert loaded == _make_plan(engine, executor="process")
        assert "plan.use_shm" not in loaded.ledger_metrics()
        committed = load_plan_cache(COMMITTED_PLAN_CACHE)
        assert committed
        for entry in committed.values():
            assert ExecutionPlan.from_dict(entry).key == entry["key"]

    def test_store_load_round_trip(self, plan, tmp_path):
        cache = tmp_path / "plans.json"
        store_plan(plan, cache)
        raw = load_plan_cache(cache)
        assert ExecutionPlan.from_dict(raw[plan.key]) == plan

    def test_store_overwrites_same_key(self, plan, tmp_path):
        cache = tmp_path / "plans.json"
        store_plan(plan, cache)
        import dataclasses

        newer = dataclasses.replace(plan, samples_per_s=plan.samples_per_s + 1)
        store_plan(newer, cache)
        raw = load_plan_cache(cache)
        assert len(raw) == 1
        assert raw[plan.key]["samples_per_s"] == newer.samples_per_s

    def test_clear_reports_count(self, plan, tmp_path):
        cache = tmp_path / "plans.json"
        store_plan(plan, cache)
        assert clear_plan_cache(cache) == 1
        assert clear_plan_cache(cache) == 0
        assert load_plan_cache(cache) == {}

    def test_corrupt_cache_reads_as_empty(self, tmp_path):
        cache = tmp_path / "plans.json"
        cache.write_text("{not json")
        assert load_plan_cache(cache) == {}


class TestResolution:
    def test_off_values_disable(self, engine):
        for value in ("", "off", "0", "no", "false"):
            assert cached_plan_for(engine, environ={"REPRO_PLAN": value}) is None
        assert cached_plan_for(engine, environ={}) is None

    def test_auto_hits_cache_without_calibrating(self, engine, tmp_path):
        cache = tmp_path / "plans.json"
        stored = _make_plan(engine)
        store_plan(stored, cache)
        resolved = cached_plan_for(
            engine, environ={"REPRO_PLAN": "auto"}, cache_path=cache
        )
        assert resolved == stored
        # miss -> None (cached_plan_for never calibrates)
        assert (
            cached_plan_for(
                engine,
                environ={"REPRO_PLAN": "auto"},
                cache_path=tmp_path / "absent.json",
            )
            is None
        )

    def test_path_loads_single_plan_file(self, engine, tmp_path):
        stored = _make_plan(engine)
        path = tmp_path / "one.json"
        path.write_text(json.dumps(stored.as_dict()))
        assert cached_plan_for(engine, environ={"REPRO_PLAN": str(path)}) == stored

    def test_path_loads_cache_mapping_by_key(self, engine, tmp_path):
        stored = _make_plan(engine)
        cache = tmp_path / "plans.json"
        store_plan(stored, cache)
        assert cached_plan_for(engine, environ={"REPRO_PLAN": str(cache)}) == stored

    def test_resolve_auto_calibrates_on_miss_and_persists(self, engine, tmp_path):
        cache = tmp_path / "plans.json"
        plan = resolve_plan(
            engine, batch=16, environ={"REPRO_PLAN": "auto"}, cache_path=cache
        )
        assert plan is not None
        assert load_plan_cache(cache)[plan.key]["executor"] == plan.executor
        # second resolve reuses the persisted plan verbatim
        again = resolve_plan(
            engine, batch=16, environ={"REPRO_PLAN": "auto"}, cache_path=cache
        )
        assert again == plan


class TestRunnerConsumption:
    def test_plan_fills_unset_knobs(self, engine, tmp_path, monkeypatch):
        cache = tmp_path / "plans.json"
        store_plan(_make_plan(engine, executor="thread", workers=2, shard_size=4), cache)
        monkeypatch.setenv("REPRO_PLAN", str(cache))
        with ResilientBatchRunner(engine) as runner:
            assert runner.workers == 2
            assert runner.shard_size == 4

    def test_explicit_knobs_always_win(self, engine, tmp_path, monkeypatch):
        cache = tmp_path / "plans.json"
        store_plan(_make_plan(engine, workers=2, shard_size=4), cache)
        monkeypatch.setenv("REPRO_PLAN", str(cache))
        with ResilientBatchRunner(engine, workers=1) as runner:
            assert runner.workers == 1
            assert runner.shard_size is None

    def test_executor_mismatch_leaves_defaults(self, engine, tmp_path, monkeypatch):
        cache = tmp_path / "plans.json"
        store_plan(_make_plan(engine, executor="process"), cache)
        monkeypatch.setenv("REPRO_PLAN", str(cache))
        with ResilientBatchRunner(engine, executor="thread") as runner:
            assert runner.shard_size is None

    def test_planned_resilient_runner_is_bit_exact(self, engine, tmp_path, monkeypatch):
        cache = tmp_path / "plans.json"
        store_plan(_make_plan(engine, workers=2, shard_size=4), cache)
        monkeypatch.setenv("REPRO_PLAN", str(cache))
        levels = np.random.default_rng(5).integers(0, LEVELS, size=(11,) + SHAPE)
        with ResilientBatchRunner(engine, policy=RetryPolicy(max_retries=1)) as runner:
            assert runner.workers == 2 and runner.shard_size == 4
            np.testing.assert_array_equal(runner.scores(levels), engine.scores(levels))

    def test_malformed_plan_file_degrades_to_no_plan(self, engine, tmp_path, monkeypatch):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        monkeypatch.setenv("REPRO_PLAN", str(bad))
        assert _active_plan(engine) is None
        with ResilientBatchRunner(engine) as runner:  # must not raise
            assert runner.shard_size is None


class TestServeConsumption:
    def _slots_with_plan(self, engine, plan_path, policy):
        async def scenario():
            with ResilientBatchRunner(
                engine, policy=RetryPolicy(max_retries=1), workers=1
            ) as runner:
                async with MicroBatchServer(runner, policy) as server:
                    return server._slots

        return asyncio.run(scenario())

    def test_default_policy_takes_plan_depth(self, engine, tmp_path, monkeypatch):
        cache = tmp_path / "plans.json"
        store_plan(_make_plan(engine, max_inflight=1), cache)
        monkeypatch.setenv("REPRO_PLAN", str(cache))
        assert self._slots_with_plan(engine, cache, ServePolicy()) == 1

    def test_explicit_policy_beats_plan(self, engine, tmp_path, monkeypatch):
        cache = tmp_path / "plans.json"
        store_plan(_make_plan(engine, max_inflight=1), cache)
        monkeypatch.setenv("REPRO_PLAN", str(cache))
        assert self._slots_with_plan(engine, cache, ServePolicy(max_inflight=3)) == 3
