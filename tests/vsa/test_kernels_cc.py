"""Compiled fused datapath: bit-exactness, call-time dispatch, fallback.

The cc kernel is an *optimization with an escape hatch*: every test here
either proves it writes exactly the int64 score rows the legacy oracle
writes, or proves that whatever it cannot serve — a disabled or failed
build, a non-stock kernel set, levels outside the ValueBox — runs the
oracle stages with NumPy's semantics, never a different answer.  The
oracle route is pinned the way a deployment pins it: ``REPRO_CC=0``
plus :func:`reset_cc` before construction.
"""

import io
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import BitPackedUniVSA, UniVSAConfig, UniVSAModel, extract_artifacts
from repro.core.inference import warn_off_compiled
from repro.obs import MetricsRegistry, Tracer, using_registry, using_tracer
from repro.runtime import ChaosSpec, ResilientBatchRunner, chaos_kernels
from repro.runtime.throughput import score_divergence
from repro.vsa.kernels import get_kernels, kernel_info, publish_kernel_metrics, using_kernels
from repro.vsa.kernels_cc import build_fused, cc_enabled, cc_info, reset_cc

#: (d_high, d_low, kernel_size, out_channels, voters, use_dvp, shape):
#: nb 1 and 2 (D_H 8, 12) and 4 (D_H 32); O = 13, 70 and 151 (not
#: multiples of 8 or 64); K = 3 and 5; with and without a low ValueBox;
#: 9, 18 and 25 taps (uint8 accumulator), 36 and 50 taps (uint16).
CASES = [
    (8, 1, 3, 151, 3, True, (16, 6)),
    (12, 2, 5, 13, 2, True, (5, 9)),
    (8, 2, 5, 13, 2, False, (6, 7)),
    (12, 3, 3, 151, 2, False, (7, 4)),
    (32, 4, 3, 70, 2, True, (4, 5)),
]
LEVELS = 10


@pytest.fixture(autouse=True)
def _fresh_cc_state():
    reset_cc()
    yield
    reset_cc()


def _artifacts(case, seed=0):
    d_high, d_low, k, o, voters, use_dvp, shape = case
    config = UniVSAConfig(
        d_high=d_high, d_low=d_low, kernel_size=k, out_channels=o,
        voters=voters, levels=LEVELS,
    )
    if not use_dvp:
        config = config.with_ablation(False, True, voters)
    return extract_artifacts(UniVSAModel(shape, 3, config, seed=seed))


def _levels(shape, n, seed=0):
    return np.random.default_rng(seed).integers(0, LEVELS, size=(n,) + shape)


def _cc_engine(artifacts):
    engine = BitPackedUniVSA(artifacts, mode="fused")
    if engine.conv_backend != "cc":
        pytest.skip(
            f"compiled datapath not dispatched under kernel set "
            f"{get_kernels().name!r}: {cc_info()['cc_conv_unavailable_reason']}"
        )
    return engine


def _oracle_route_engine(artifacts, monkeypatch):
    """A fused engine built with the compiled backend switched off."""
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_CC", "0")
        reset_cc()
        engine = BitPackedUniVSA(artifacts, mode="fused")
    reset_cc()
    assert engine.conv_backend == "legacy"
    return engine


@pytest.fixture(scope="module")
def paper():
    return _artifacts(CASES[0])


class TestBitExactness:
    """Every case of ``CASES`` at batches 0, 1 and odd sizes."""

    def test_cc_matches_numpy_fires_across_batches(self, monkeypatch):
        for case in CASES:
            artifacts = _artifacts(case)
            assert (artifacts.value_low is not None) == case[5]
            cc = _cc_engine(artifacts)
            oracle_route = _oracle_route_engine(artifacts, monkeypatch)
            for n in (0, 1, 7, 33):
                levels = _levels(case[-1], n, seed=n)
                rows = cc.scores(levels)
                assert rows.dtype == np.int64 and rows.shape == (n, artifacts.n_classes)
                np.testing.assert_array_equal(
                    rows, oracle_route.scores(levels), err_msg=f"{case} batch={n}"
                )

    def test_cc_matches_legacy_reference(self):
        """cc == legacy for ``scores()`` and for ``encode()``'s int8
        ``s`` rows."""
        for case in CASES:
            artifacts = _artifacts(case, seed=2)
            cc = _cc_engine(artifacts)
            legacy = BitPackedUniVSA(artifacts, mode="legacy")
            for n in (1, 19):
                levels = _levels(case[-1], n, seed=n + 40)
                np.testing.assert_array_equal(
                    cc.scores(levels), legacy.scores(levels), err_msg=f"{case}"
                )
                np.testing.assert_array_equal(cc.encode(levels), legacy.encode(levels))

    def test_both_accumulator_widths_covered(self):
        taps = {_cc_engine(_artifacts(case))._cc.taps for case in CASES}
        assert any(t * 8 < 256 for t in taps)
        assert any(t * 8 >= 256 for t in taps)

    def test_cc_exact_on_adversarial_level_planes(self):
        """Constant planes hit the threshold-window edges (all-fire /
        never-fire channels) the unsigned re-encoding must get right."""
        for case in CASES:
            artifacts = _artifacts(case, seed=1)
            cc = _cc_engine(artifacts)
            legacy = BitPackedUniVSA(artifacts, mode="legacy")
            for level in (0, LEVELS // 2, LEVELS - 1):
                levels = np.full((3,) + case[-1], level)
                np.testing.assert_array_equal(cc.scores(levels), legacy.scores(levels))

    def test_narrow_integer_dtypes(self, paper):
        cc = _cc_engine(paper)
        levels = _levels(paper.input_shape, 9, seed=3)
        expected = cc.scores(levels)
        for dtype in (np.uint8, np.int16, np.int32):
            np.testing.assert_array_equal(cc.scores(levels.astype(dtype)), expected)
        np.testing.assert_array_equal(cc.scores(np.asfortranarray(levels)), expected)


class TestDispatch:
    def test_built_under_legacy_runs_cc_under_fast(self, paper):
        with using_kernels("legacy"):
            engine = BitPackedUniVSA(paper, mode="fused")
            assert engine.conv_backend == "legacy"
        if engine._cc is None:
            pytest.skip(f"compiled backend unavailable: {cc_info()}")
        levels = _levels(paper.input_shape, 6, seed=5)
        with using_kernels("fast"):
            assert engine.conv_backend == "cc"
            rows = engine.scores(levels)
        np.testing.assert_array_equal(
            rows, BitPackedUniVSA(paper, mode="legacy").scores(levels)
        )

    def test_out_of_range_levels_keep_numpy_semantics(self, paper, monkeypatch):
        cc = _cc_engine(paper)
        oracle_route = _oracle_route_engine(paper, monkeypatch)
        levels = _levels(paper.input_shape, 4, seed=6)
        # Negative levels index from the end, exactly as NumPy does.
        negative = levels.copy()
        negative[1, 2, 3] = -1
        negative[3, 0, 0] = -LEVELS
        np.testing.assert_array_equal(cc.scores(negative), oracle_route.scores(negative))
        np.testing.assert_array_equal(cc.encode(negative), oracle_route.encode(negative))
        for bad in (LEVELS, -LEVELS - 1, 2**40):
            broken = levels.copy()
            broken[2, 5, 1] = bad
            with pytest.raises(IndexError):
                cc.scores(broken)
        with pytest.raises(IndexError):
            cc.scores(levels.astype(np.float64))

    def test_kernel_rejects_bad_buffers(self, paper):
        kernel = _cc_engine(paper)._cc
        levels = _levels(paper.input_shape, 2)
        good = np.empty((2, paper.n_classes), dtype=np.int64)
        with pytest.raises(ValueError, match="levels"):
            kernel.run(levels.astype(np.int32), good)
        with pytest.raises(ValueError, match="out"):
            kernel.run(levels, np.empty((2, paper.n_classes + 1), dtype=np.int64))
        assert kernel.run(levels, good)


class TestStageSplit:
    def test_registry_gets_every_stage_once_per_call(self, paper):
        engine = _cc_engine(paper)
        levels = _levels(paper.input_shape, 11, seed=7)
        with using_registry(MetricsRegistry()) as registry:
            engine.scores(levels)
            engine.encode(levels)
        for stage in ("dvp", "biconv", "encode"):
            histogram = registry.histogram(f"packed.{stage}")
            assert histogram.count == 2 and histogram.total_seconds > 0
        assert registry.histogram("packed.similarity").count == 1
        assert registry.counter("packed.samples").value == 22

    def test_oracle_route_counts_each_sample_and_stage_once(self, paper, monkeypatch):
        """Calls that take the oracle stages — a build without the
        compiled backend, or a cc engine handed an out-of-range level —
        count ``packed.samples`` once per sample and observe each
        ``packed.*`` stage once per call, never the cc split as well."""
        levels = _levels(paper.input_shape, 11, seed=7)
        negative = levels.copy()
        negative[0, 0, 0] = -1
        routes = [(_oracle_route_engine(paper, monkeypatch), levels)]
        engine = BitPackedUniVSA(paper, mode="fused")
        if engine.conv_backend == "cc":
            routes.append((engine, negative))
        for engine, batch in routes:
            with using_registry(MetricsRegistry()) as registry:
                engine.scores(batch)
                engine.encode(batch)
            assert registry.counter("packed.samples").value == 22
            for stage in ("dvp", "biconv", "encode"):
                assert registry.histogram(f"packed.{stage}").count == 2, stage
            assert registry.histogram("packed.similarity").count == 1

    def test_no_clock_buffer_when_telemetry_is_off(self, paper):
        engine = _cc_engine(paper)
        seen = []
        run = engine._cc.run
        engine._cc.run = lambda levels, out, stage_ns=None: (
            seen.append(stage_ns), run(levels, out, stage_ns))[1]
        levels = _levels(paper.input_shape, 3, seed=8)
        engine.scores(levels)
        with using_registry(MetricsRegistry()):
            engine.scores(levels)
        assert seen[0] is None
        assert seen[1] is not None and seen[1].shape == (4,)

    def test_tracer_sees_stage_spans(self, paper):
        engine = _cc_engine(paper)
        tracer = Tracer()
        with using_tracer(tracer):
            engine.scores(_levels(paper.input_shape, 4, seed=9))
        (trace,) = tracer.traces()
        root = trace[0]
        assert root.name == "packed.classify"
        stages = [span for span in trace if span.name.split(".")[1] in
                  ("dvp", "biconv", "encode", "similarity")]
        assert [span.name for span in stages] == [
            "packed.dvp", "packed.biconv", "packed.encode", "packed.similarity"
        ]
        assert all(span.parent_id == root.span_id for span in stages)
        # Laid out back to back inside the root.
        for before, after in zip(stages, stages[1:]):
            assert before.end_s == pytest.approx(after.start_s)
        assert root.start_s <= stages[0].start_s and stages[-1].end_s <= root.end_s


class TestTrafficModel:
    def test_cc_model_differs_from_numpy(self, paper, monkeypatch):
        """The cc model against the model of the route a compiler-less
        host takes, which is the legacy oracle's."""
        cc_model = _cc_engine(paper).traffic_model(batch=256)
        fallback = _oracle_route_engine(paper, monkeypatch).traffic_model(batch=256)
        legacy = BitPackedUniVSA(paper, mode="legacy").traffic_model(batch=256)
        assert cc_model["backend"] == "cc" and fallback["backend"] == "legacy"
        assert {**fallback, "mode": "legacy"} == legacy
        assert cc_model["tile_samples"] == 1
        assert cc_model["peak_intermediate_mb"] < legacy["peak_intermediate_mb"]
        assert cc_model["bytes_per_sample"] < legacy["bytes_per_sample"]
        # popcounts: P*WF encode words + voters*classes*WS similarity words.
        p = paper.positions
        voters, classes, ws = BitPackedUniVSA(paper)._class_inv.shape
        assert cc_model["popcounts_per_sample"] == p * 3 + voters * classes * ws
        assert cc_model["lut_lookups_per_sample"] == p * 151 * 9


class TestChaosAndWorkers:
    def test_bitflip_chaos_still_counts_mismatches(self, paper):
        """A cc-built engine under bitflip chaos runs the oracle stages,
        so the flips reach conv, encode and similarity through
        ``popcount8``."""
        engine = BitPackedUniVSA(paper, mode="fused")
        levels = _levels(paper.input_shape, 48, seed=10)
        oracle = BitPackedUniVSA(paper, mode="legacy").scores(levels)
        with ResilientBatchRunner(
            engine, shard_size=16, workers=2, chaos=ChaosSpec(bitflip_rate=1e-2, seed=2)
        ) as runner:
            result = runner.run(levels)
        masks = {"fused": np.ones(len(levels), dtype=bool)}
        assert score_divergence({"seed": oracle, "fused": result.scores}, masks, True) > 0
        np.testing.assert_array_equal(engine.scores(levels), oracle)

    def test_process_workers_attach_cc_and_return_exact_rows(self, paper):
        engine = _cc_engine(paper)
        levels = _levels(paper.input_shape, 40, seed=11)
        with ResilientBatchRunner(
            engine, shard_size=10, workers=2, executor="process"
        ) as runner:
            result = runner.run(levels)
            backends = {
                runner._pool.submit(_worker_backend).result(timeout=60)
                for _ in range(4)
            }
        assert backends == {"cc"}
        np.testing.assert_array_equal(
            result.scores, BitPackedUniVSA(paper, mode="legacy").scores(levels)
        )


    def test_concurrent_threads_share_one_kernel(self, paper):
        """The kernel is re-entrant (per-call scratch, GIL released):
        more threads than cores calling one engine get exact rows."""
        engine = _cc_engine(paper)
        batches = [_levels(paper.input_shape, 5 + i, seed=60 + i) for i in range(6)]
        legacy = BitPackedUniVSA(paper, mode="legacy")
        expected = [legacy.scores(levels) for levels in batches]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [
                    pool.submit(engine.scores, batches[i % 6]) for i in range(60)
                ]
                rows = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(previous)
        for i, got in enumerate(rows):
            np.testing.assert_array_equal(got, expected[i % 6])


def _worker_backend():
    from repro.runtime import resilience

    return resilience._WORKER_ENGINE.conv_backend


def _build_with_bad_taps(paper):
    """``build_fused`` over a tap matrix whose width is not k*k*nb."""
    engine = BitPackedUniVSA(paper)
    taps = np.zeros((151, 10), dtype=np.uint8)  # 10 != 3*3*1
    return build_fused(
        engine._value_bytes_high, engine._value_bytes_low, engine._mask_bool,
        taps, engine._fused_bound, engine._fused_flip, 3,
        engine._feature_inv, engine._class_inv, engine._enc_bits, paper.input_shape,
    )


class TestGating:
    def test_env_flag_disables_and_records_reason(self, paper, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "0")
        reset_cc()
        engine = BitPackedUniVSA(paper, mode="fused")
        assert not cc_enabled()
        assert engine.conv_backend == "legacy"
        info = cc_info()
        assert info["cc_conv_enabled"] is False
        assert "REPRO_CC" in (info["cc_conv_unavailable_reason"] or "")
        levels = _levels(paper.input_shape, 9, seed=12)
        legacy = BitPackedUniVSA(paper, mode="legacy")
        np.testing.assert_array_equal(engine.scores(levels), legacy.scores(levels))

    def test_legacy_kernel_set_never_uses_cc(self, paper, monkeypatch):
        """Built under ``fast``, run under ``legacy`` or a chaos-wrapped
        set: the call takes the oracle stages — the compiled kernel is
        never entered — and still matches the oracle."""
        engine = _cc_engine(paper)
        levels = _levels(paper.input_shape, 5, seed=4)
        oracle = BitPackedUniVSA(paper, mode="legacy").scores(levels)
        calls = []
        run = engine._cc.run
        monkeypatch.setattr(
            engine._cc, "run", lambda *args: (calls.append(1), run(*args))[1]
        )
        np.testing.assert_array_equal(engine.scores(levels), oracle)
        assert len(calls) == 1
        for kernels in ("legacy", chaos_kernels(get_kernels())):
            with using_kernels(kernels):
                assert engine.conv_backend == "legacy"
                np.testing.assert_array_equal(engine.scores(levels), oracle)
        assert len(calls) == 1

    @pytest.mark.parametrize("off", ["0", "false", "off", "no"])
    def test_all_off_spellings(self, off, monkeypatch):
        monkeypatch.setenv("REPRO_CC", off)
        assert not cc_enabled()

    def test_bad_tap_layout_degrades_with_reason(self, paper, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "1")
        assert _build_with_bad_taps(paper) is None
        assert "mismatch" in (cc_info()["cc_conv_unavailable_reason"] or "")

    def test_good_build_clears_stale_refusal(self, paper, monkeypatch):
        """A refused build followed by a good one: the reason describes
        the latest build, so ledger records of cc runs carry ``None``."""
        monkeypatch.setenv("REPRO_CC", "1")
        assert _build_with_bad_taps(paper) is None
        engine = _cc_engine(paper)
        assert engine.conv_backend == "cc"
        assert cc_info()["cc_conv_unavailable_reason"] is None
        assert kernel_info()["cc_conv_unavailable_reason"] is None

    def test_off_compiled_notice(self, paper, monkeypatch):
        """One stderr line naming why an engine runs off the compiled
        datapath; nothing on the ``cc`` route."""
        config = UniVSAConfig(d_high=8, d_low=1, levels=LEVELS, voters=2)
        kernelless = extract_artifacts(
            UniVSAModel((6, 5), 3, config.with_ablation(True, False, 2))
        )
        cases = [
            (BitPackedUniVSA(paper, mode="legacy"), "fast", "engine mode 'legacy'"),
            (BitPackedUniVSA(kernelless), "fast", "no conv kernel"),
        ]
        engine = BitPackedUniVSA(paper)
        if engine.conv_backend == "cc":
            stream = io.StringIO()
            assert warn_off_compiled(engine, stream) is None
            assert stream.getvalue() == ""
            cases.append((engine, "legacy", "kernel set 'legacy'"))
        monkeypatch.setenv("REPRO_CC", "0")
        reset_cc()
        cases.append((BitPackedUniVSA(paper), "fast", "disabled via REPRO_CC"))
        for engine, kernels, reason in cases:
            stream = io.StringIO()
            with using_kernels(kernels):
                line = warn_off_compiled(engine, stream)
            assert stream.getvalue() == line + "\n"
            assert reason in line and "legacy oracle" in line

    def test_kernel_info_surfaces_cc_fields(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "1")
        info = kernel_info()
        assert {"cc_conv_enabled", "cc_conv_compiled_taps",
                "cc_conv_unavailable_reason"} <= set(info)
        registry = MetricsRegistry()
        publish_kernel_metrics(registry)
        assert registry.gauge("kernels.cc_conv").value == 1.0
        monkeypatch.setenv("REPRO_CC", "off")
        publish_kernel_metrics(registry)
        assert registry.gauge("kernels.cc_conv").value == 0.0
