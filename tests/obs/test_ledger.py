"""Tests for the run ledger, config hashing, and the regression gate."""

import dataclasses
import json

import pytest

from repro.core import UniVSAConfig
from repro.obs import (
    MARGIN_HISTOGRAM,
    Ledger,
    MetricsRegistry,
    RunRecord,
    compare_records,
    config_hash,
    record_run,
    write_trajectories,
)


def _record(task="t", kind="bench", timestamp=1.0, metrics=None, stages=None):
    return RunRecord(
        kind=kind,
        task=task,
        timestamp=timestamp,
        run_id=f"{kind}-{task}-{int(timestamp * 1000)}",
        git_rev="abc123",
        metrics=metrics or {},
        stages=stages or {},
    )


class TestConfigHash:
    def test_dataclass_and_dict_hash_identically(self):
        config = UniVSAConfig(d_high=8, d_low=2, out_channels=3, voters=1, levels=95)
        assert config_hash(config) == config_hash(dataclasses.asdict(config))

    def test_key_order_invariant(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_different_configs_differ(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_short_stable_digest(self):
        digest = config_hash({"epochs": 4})
        assert len(digest) == 12
        assert digest == config_hash({"epochs": 4})  # stable across calls


class TestRunRecord:
    def test_round_trip(self):
        record = _record(metrics={"accuracy": 0.9}, stages={"packed.encode": {"p95_s": 0.1}})
        clone = RunRecord.from_dict(json.loads(json.dumps(record.as_dict())))
        assert clone == record

    def test_from_dict_tolerates_missing_keys(self):
        record = RunRecord.from_dict({"kind": "bench"})
        assert record.kind == "bench"
        assert record.task == "unknown"
        assert record.metrics == {} and record.stages == {} and record.margin == {}


class TestLedger:
    def test_missing_file_reads_empty(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        assert ledger.read() == []
        assert ledger.latest() is None

    def test_append_creates_parents_and_round_trips(self, tmp_path):
        ledger = Ledger(tmp_path / "deep" / "nested" / "ledger.jsonl")
        ledger.append(_record(timestamp=1.0))
        ledger.append(_record(timestamp=2.0))
        records = ledger.read()
        assert [r.timestamp for r in records] == [1.0, 2.0]

    def test_latest_filters_and_offsets(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        ledger.append(_record(task="a", timestamp=1.0))
        ledger.append(_record(task="b", timestamp=2.0))
        ledger.append(_record(task="a", timestamp=3.0, kind="profile"))
        assert ledger.latest().timestamp == 3.0
        assert ledger.latest(task="a").timestamp == 3.0
        assert ledger.latest(task="a", kind="bench").timestamp == 1.0
        assert ledger.latest(task="a", offset=1).timestamp == 1.0
        assert ledger.latest(task="a", offset=2) is None

    def test_tasks_first_seen_order(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        for task in ("b", "a", "b"):
            ledger.append(_record(task=task))
        assert ledger.tasks() == ["b", "a"]


class TestRecordRun:
    def test_appends_full_record(self, tmp_path):
        registry = MetricsRegistry()
        registry.histogram("packed.encode").observe(0.2)
        registry.histogram("packed.similarity").observe(0.1)
        registry.histogram(MARGIN_HISTOGRAM).observe(0.5)
        config = UniVSAConfig(d_high=8, d_low=2, out_channels=3, voters=1, levels=95)
        path = tmp_path / "ledger.jsonl"
        record = record_run(
            "profile",
            "bci-iii-v",
            config=config,
            metrics={"accuracy": 0.9},
            registry=registry,
            ledger_path=path,
            timestamp=1000.0,
        )
        assert record.run_id == "profile-bci-iii-v-1000000"
        assert record.config_hash == config_hash(config)
        assert record.config["d_high"] == 8
        assert set(record.stages) == {"packed.encode", "packed.similarity"}
        assert record.margin["count"] == 1
        # The margin histogram is quality data, not a latency stage.
        assert MARGIN_HISTOGRAM not in record.stages
        (stored,) = Ledger(path).read()
        assert stored == RunRecord.from_dict(record.as_dict())

    def test_null_registry_contributes_nothing(self, tmp_path):
        from repro.obs import NULL_REGISTRY

        record = record_run(
            "train", "t", registry=NULL_REGISTRY, ledger_path=tmp_path / "l.jsonl"
        )
        assert record.stages == {} and record.margin == {}

    def test_config_hash_stable_across_runs(self, tmp_path):
        config = {"epochs": 4, "lr": 0.008}
        first = record_run("train", "t", config=config, ledger_path=tmp_path / "l.jsonl")
        second = record_run("train", "t", config=config, ledger_path=tmp_path / "l.jsonl")
        assert first.config_hash == second.config_hash

    def test_harvests_search_namespace(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("search.cache.hit").add(5)
        registry.counter("search.cache.miss").add(2)
        registry.gauge("search.workers").set(4)
        registry.counter("other.counter").add(9)
        record = record_run(
            "search", "t", registry=registry, ledger_path=tmp_path / "l.jsonl"
        )
        assert record.metrics["search.cache.hit"] == 5
        assert record.metrics["search.cache.miss"] == 2
        assert record.metrics["search.workers"] == 4
        assert "other.counter" not in record.metrics

    def test_explicit_metrics_win_over_harvested(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("search.cache.hit").add(5)
        record = record_run(
            "search",
            "t",
            metrics={"search.cache.hit": 1.0},
            registry=registry,
            ledger_path=tmp_path / "l.jsonl",
        )
        assert record.metrics["search.cache.hit"] == 1.0


class TestCompareRecords:
    def _pair(self, cur_metrics, base_metrics, cur_stages=None, base_stages=None):
        current = _record(timestamp=2.0, metrics=cur_metrics, stages=cur_stages)
        baseline = _record(timestamp=1.0, metrics=base_metrics, stages=base_stages)
        return current, baseline

    def test_ok_when_within_thresholds(self):
        report = compare_records(
            *self._pair(
                {"accuracy": 0.89},
                {"accuracy": 0.90},
                {"packed.encode": {"p95_s": 0.11}},
                {"packed.encode": {"p95_s": 0.10}},
            )
        )
        assert not report.regressed
        assert {c.kind for c in report.checks} == {"accuracy", "p95"}

    def test_accuracy_drop_fails(self):
        report = compare_records(*self._pair({"accuracy": 0.85}, {"accuracy": 0.90}))
        assert report.regressed
        (failure,) = report.failures()
        assert failure.name == "accuracy" and failure.kind == "accuracy"
        assert failure.limit == pytest.approx(0.88)

    def test_p95_regression_fails(self):
        report = compare_records(
            *self._pair(
                {},
                {},
                {"packed.encode": {"p95_s": 0.20}},
                {"packed.encode": {"p95_s": 0.10}},
            )
        )
        assert report.regressed
        (failure,) = report.failures()
        assert failure.kind == "p95"
        assert failure.limit == pytest.approx(0.15)

    def test_thresholds_are_tunable(self):
        current, baseline = self._pair(
            {},
            {},
            {"packed.encode": {"p95_s": 0.20}},
            {"packed.encode": {"p95_s": 0.10}},
        )
        assert not compare_records(
            current, baseline, max_p95_regression=1.5
        ).regressed

    def test_one_sided_metrics_are_skipped(self):
        report = compare_records(
            *self._pair(
                {"accuracy": 0.9},
                {"accuracy": 0.9, "accuracy.other": 0.8, "loss": 1.0},
                {},
                {"ghost.stage": {"p95_s": 0.5}},
            )
        )
        # Only the shared accuracy metric is gated; non-accuracy metrics
        # and baseline-only stages never produce checks.
        assert [c.name for c in report.checks] == ["accuracy"]

    def test_baseline_without_stages_gates_accuracy_alone(self):
        report = compare_records(
            *self._pair(
                {"accuracy": 0.91},
                {"accuracy": 0.90},
                {"packed.encode": {"p95_s": 99.0}},
                None,
            )
        )
        assert not report.regressed
        assert all(c.kind == "accuracy" for c in report.checks)

    def test_zero_baseline_p95_is_skipped(self):
        report = compare_records(
            *self._pair(
                {}, {}, {"s": {"p95_s": 1.0}}, {"s": {"p95_s": 0.0}}
            )
        )
        assert report.checks == []

    def test_throughput_drop_fails(self):
        report = compare_records(
            *self._pair(
                {"samples_per_s": 400.0}, {"samples_per_s": 1000.0}
            )
        )
        assert report.regressed
        (failure,) = report.failures()
        assert failure.kind == "throughput"
        assert failure.limit == pytest.approx(500.0)

    def test_throughput_within_tolerance_passes(self):
        report = compare_records(
            *self._pair(
                {"samples_per_s": 600.0}, {"samples_per_s": 1000.0}
            )
        )
        assert not report.regressed
        assert {c.kind for c in report.checks} == {"throughput"}

    def test_throughput_tolerance_is_tunable(self):
        current, baseline = self._pair(
            {"samples_per_s": 400.0}, {"samples_per_s": 1000.0}
        )
        assert not compare_records(
            current, baseline, max_throughput_drop=0.7
        ).regressed
        assert compare_records(
            current, baseline, max_throughput_drop=0.5
        ).regressed

    def test_zero_baseline_throughput_is_skipped(self):
        report = compare_records(
            *self._pair({"samples_per_s": 100.0}, {"samples_per_s": 0.0})
        )
        assert report.checks == []

    def test_all_per_s_metrics_are_gated(self):
        report = compare_records(
            *self._pair(
                {"samples_per_s": 900.0, "samples_per_s_fast": 100.0},
                {"samples_per_s": 1000.0, "samples_per_s_fast": 1000.0},
            )
        )
        assert report.regressed
        (failure,) = report.failures()
        assert failure.name == "samples_per_s_fast"

    def test_per_sample_counts_are_not_gated_as_rates(self):
        """``bytes_per_sample`` shares the ``per_s`` prefix but falls when
        the engine improves; only ``per_s`` as a token is a rate."""
        report = compare_records(
            *self._pair(
                {"samples_per_s": 1000.0, "traffic_bytes_per_sample_fused": 792.0},
                {"samples_per_s": 1000.0, "traffic_bytes_per_sample_fused": 660612.0},
            )
        )
        assert not report.regressed
        assert [c.name for c in report.checks] == ["samples_per_s"]

    def test_render_mentions_verdict(self):
        report = compare_records(*self._pair({"accuracy": 0.5}, {"accuracy": 0.9}))
        text = report.render()
        assert "REGRESSED" in text
        ok = compare_records(*self._pair({"accuracy": 0.9}, {"accuracy": 0.9}))
        assert "ok" in ok.render()


class TestTrajectories:
    def test_one_file_per_task(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        ledger.append(_record(task="a", timestamp=1.0, metrics={"accuracy": 0.8}))
        ledger.append(_record(task="a", timestamp=2.0, metrics={"accuracy": 0.9}))
        ledger.append(_record(task="b", timestamp=3.0))
        written = write_trajectories(ledger, tmp_path / "out")
        assert sorted(p.name for p in written) == ["BENCH_a.json", "BENCH_b.json"]
        payload = json.loads((tmp_path / "out" / "BENCH_a.json").read_text())
        assert payload["n_runs"] == 2
        assert [p["timestamp"] for p in payload["points"]] == [1.0, 2.0]
        assert payload["latest"]["metrics"]["accuracy"] == 0.9

    def test_task_filter(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        ledger.append(_record(task="a"))
        ledger.append(_record(task="b"))
        written = write_trajectories(ledger, tmp_path / "out", task="a")
        assert [p.name for p in written] == ["BENCH_a.json"]

    def test_points_carry_stage_p95(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        ledger.append(
            _record(task="a", stages={"packed.encode": {"p95_s": 0.25, "count": 3}})
        )
        (path,) = write_trajectories(ledger, tmp_path / "out")
        payload = json.loads(path.read_text())
        assert payload["latest"]["p95_s"] == {"packed.encode": 0.25}
