"""bench_throughput: four engine configs, score-row exactness gate, report."""

import json

import numpy as np
import pytest

from repro.runtime import ThroughputReport, bench_throughput
from repro.runtime.shm import leaked_segments
from repro.runtime.throughput import score_divergence

ENGINES = {"seed", "fused", "parallel", "shm"}


@pytest.fixture(scope="module")
def report():
    return bench_throughput(
        "bci-iii-v",
        batch=24,
        repeats=2,
        warmup=0,
        workers=2,
        n_train=24,
        n_test=12,
        epochs=1,
        seed=0,
    )


class TestBenchThroughput:
    def test_every_engine_measured(self, report):
        assert set(report.engines) == ENGINES
        for engine in report.engines.values():
            assert engine.samples_per_s > 0
            assert engine.best_wall_s > 0
            assert engine.runs == 2

    def test_speedup_computed_from_parallel(self, report):
        seed = report.engines["seed"].samples_per_s
        parallel = report.engines["parallel"].samples_per_s
        assert report.speedup_vs_seed == pytest.approx(parallel / seed)

    def test_shm_speedup_computed(self, report):
        shm = report.engines["shm"].samples_per_s
        parallel = report.engines["parallel"].samples_per_s
        assert report.speedup_shm_vs_parallel == pytest.approx(shm / parallel)

    def test_stage_breakdowns_present(self, report):
        assert any(
            name.startswith("packed.") for name in report.engines["seed"].stages
        )
        assert any(
            name.startswith("batch.") for name in report.engines["parallel"].stages
        )

    def test_kernels_recorded(self, report):
        assert report.kernels["set"] in ("fast", "legacy")
        assert "numpy" in report.kernels
        assert "cc_conv_enabled" in report.kernels

    def test_shm_handoff_accounted(self, report):
        assert report.shm["bytes_shared"] > 0
        assert report.shm["bytes_pickled_estimate"] > 0
        assert report.shm["attach"] >= 1
        assert report.shm["report"]["shm_bytes"] > 0
        assert report.shm["report"]["n_shards"] >= 1
        assert report.shm["report"]["shard_size"] >= 1
        assert leaked_segments() == []

    def test_traffic_models_per_mode(self, report):
        assert set(report.traffic) == {"legacy", "fused"}
        fused = report.traffic["fused"]
        legacy = report.traffic["legacy"]
        assert fused["bytes_per_sample"] > 0
        if fused["backend"] != "cc":
            # Without the compiled datapath the fused engine runs, and
            # models, the oracle stages.
            assert {**fused, "mode": "legacy"} == legacy
            return
        assert fused["peak_intermediate_mb"] < legacy["peak_intermediate_mb"]

    def test_ledger_metrics_flat_and_complete(self, report):
        metrics = report.ledger_metrics()
        for key in (
            "batch",
            "workers",
            "accuracy",
            "speedup_vs_seed",
            "speedup_shm_vs_parallel",
            "samples_per_s",
            "samples_per_s_seed",
            "samples_per_s_fused",
            "samples_per_s_shm",
            "bytes_shared",
            "bytes_pickled_estimate",
            "intermediates_peak_mb",
            "traffic_bytes_per_sample_fused",
        ):
            assert key in metrics
            assert np.isfinite(metrics[key])
        assert metrics["batch"] == 24.0
        assert "samples_per_s_fast" not in metrics
        assert "traffic_bytes_per_sample_fast" not in metrics

    def test_as_dict_round_trips_through_json(self, report):
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["benchmark"] == "bci-iii-v"
        assert payload["engines"]["fused"]["samples_per_s"] > 0
        assert payload["shm"]["bytes_shared"] > 0
        assert payload["traffic"]["fused"]["mode"] == "fused"

    def test_render_mentions_every_engine(self, report):
        text = report.render()
        for name in ENGINES:
            assert name in text
        assert "speedup vs seed" in text
        assert "shm+fused vs parallel" in text


class TestScoreDivergence:
    """The exactness gate compares whole int64 score rows, not argmax."""

    SEED = np.array([[5, 1, -2], [0, 7, 3], [4, 4, 9]], dtype=np.int64)

    def test_identical_rows_pass(self):
        scores = {"seed": self.SEED, "fused": self.SEED.copy()}
        masks = {"fused": np.ones(3, dtype=bool)}
        assert score_divergence(scores, masks, tolerate=False) == 0

    def test_corrupted_row_with_same_argmax_raises(self):
        corrupted = self.SEED.copy()
        corrupted[1, 0] += 1  # argmax of row 1 is still class 1
        assert (corrupted.argmax(axis=1) == self.SEED.argmax(axis=1)).all()
        scores = {"seed": self.SEED, "parallel": corrupted}
        masks = {"parallel": np.ones(3, dtype=bool)}
        with pytest.raises(AssertionError, match="'parallel' diverged"):
            score_divergence(scores, masks, tolerate=False)

    def test_excluded_rows_are_not_compared(self):
        quarantined = self.SEED.copy()
        quarantined[2] = 0  # the runner zeroes excluded rows
        scores = {"seed": self.SEED, "shm": quarantined}
        masks = {"shm": np.array([True, True, False])}
        assert score_divergence(scores, masks, tolerate=False) == 0

    def test_bitflip_chaos_counts_instead_of_raising(self):
        corrupted = self.SEED.copy()
        corrupted[0, 2] -= 3
        corrupted[2, 1] += 1
        scores = {"seed": self.SEED, "parallel": corrupted, "shm": self.SEED}
        masks = {"parallel": np.ones(3, dtype=bool), "shm": np.ones(3, dtype=bool)}
        assert score_divergence(scores, masks, tolerate=True) == 2


class TestSpeedupEdgeCases:
    def test_zero_seed_rate_gives_zero_speedup(self):
        report = ThroughputReport(
            benchmark="x",
            batch=1,
            repeats=1,
            workers=1,
            shard_size=None,
            executor="thread",
            accuracy=0.0,
            kernels={},
            engines={},
        )
        assert report.speedup_vs_seed == 0.0
        assert report.speedup_shm_vs_parallel == 0.0
