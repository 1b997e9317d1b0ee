"""Fused engine: bit-exact score rows on every route it can take.

The fused mode runs DVP lookup → biconv byte-LUT match → encode →
similarity in one compiled call per batch, or the legacy oracle stages
when it cannot; either way it must produce the legacy oracle's int64
score rows (and the integer artifact reference's) bit for bit.  The
suite covers word-boundary position counts, BN-folded thresholds with
channel flips, kernel-less ablation (which always takes the oracle
stages) and fused as the default mode.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import BitPackedUniVSA, UniVSAConfig, UniVSAModel, extract_artifacts
from repro.nn import Tensor
from repro.obs import MetricsRegistry, using_registry
from repro.vsa.kernels import using_kernels

LEVELS = 12
SMALL = UniVSAConfig(
    d_high=4, d_low=2, kernel_size=3, out_channels=8, voters=2, levels=LEVELS
)

# Position counts straddling the 64-bit word boundary: 60, 65, 64.
SHAPES = [(6, 10), (13, 5), (4, 16)]


def _mask(shape):
    mask = np.zeros(shape, dtype=np.int8)
    mask[::2] = 1
    return mask


def _levels_batch(shape, n=9, seed=0):
    return np.random.default_rng(seed).integers(0, LEVELS, size=(n,) + shape)


def _exported(shape, config=SMALL, seed=0, mask=True):
    model = UniVSAModel(
        shape, 3, config, mask=_mask(shape) if mask else None, seed=seed
    )
    return extract_artifacts(model)


def _oracle(artifacts, levels):
    return BitPackedUniVSA(artifacts, mode="legacy").scores(levels)


class TestFusedEquivalence:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_fused_matches_legacy_and_artifacts(self, shape):
        artifacts = _exported(shape)
        levels = _levels_batch(shape)
        fused = BitPackedUniVSA(artifacts, mode="fused")
        scores = fused.scores(levels)
        assert scores.dtype == np.int64
        np.testing.assert_array_equal(scores, _oracle(artifacts, levels))
        np.testing.assert_array_equal(scores, artifacts.scores(levels))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_fused_on_every_kernel_set(self, shape):
        """Engine mode and kernel set are orthogonal: under ``legacy``
        the fused engine takes the oracle stages, under ``fast`` the
        compiled datapath, and both must agree."""
        artifacts = _exported(shape, seed=1)
        levels = _levels_batch(shape, seed=1)
        expected = _oracle(artifacts, levels)
        for kernels in ("fast", "legacy"):
            with using_kernels(kernels):
                engine = BitPackedUniVSA(artifacts, mode="fused")
                np.testing.assert_array_equal(
                    engine.scores(levels), expected, err_msg=f"kernels={kernels}"
                )

    def test_batchnorm_thresholds_and_flips(self):
        """Folded BN thresholds exercise the XOR-space bound conversion
        (floor/ceil + flip) the fused matcher relies on."""
        config = replace(SMALL, use_batchnorm=True)
        shape = (6, 10)
        model = UniVSAModel(shape, 3, config, mask=_mask(shape), seed=4)
        model.train()
        for seed in range(3):
            model(Tensor(model.preprocess(_levels_batch(shape, seed=seed))))
        model.eval()
        artifacts = extract_artifacts(model)
        assert np.abs(artifacts.conv_thresholds).max() > 0
        levels = _levels_batch(shape, seed=4)
        fused = BitPackedUniVSA(artifacts, mode="fused")
        np.testing.assert_array_equal(fused.scores(levels), _oracle(artifacts, levels))

    def test_no_kernel_ablation(self):
        """Kernel-less configs skip the conv stage and have no compiled
        datapath; fused mode takes the oracle stages, still bit-exact."""
        config = SMALL.with_ablation(True, False, 2)
        shape = (6, 10)
        model = UniVSAModel(shape, 3, config, mask=_mask(shape), seed=5)
        artifacts = extract_artifacts(model)
        levels = _levels_batch(shape, seed=5)
        fused = BitPackedUniVSA(artifacts, mode="fused")
        assert fused.conv_backend == "legacy"
        np.testing.assert_array_equal(fused.scores(levels), _oracle(artifacts, levels))

    def test_encode_matches_reference(self):
        shape = (6, 10)
        artifacts = _exported(shape, seed=6)
        fused = BitPackedUniVSA(artifacts, mode="fused")
        levels = _levels_batch(shape, seed=6)
        np.testing.assert_array_equal(
            fused.encode(levels), artifacts.encode(levels)
        )

    def test_default_selects_fused(self):
        artifacts = _exported((6, 10), seed=7)
        engine = BitPackedUniVSA(artifacts)
        assert engine.mode == "fused"
        levels = _levels_batch((6, 10), n=3, seed=7)
        np.testing.assert_array_equal(engine.scores(levels), _oracle(artifacts, levels))

    def test_sibling_crosses_modes(self):
        artifacts = _exported((6, 10), seed=8)
        fused = BitPackedUniVSA(artifacts, mode="fused")
        legacy = fused.sibling("legacy")
        levels = _levels_batch((6, 10), n=4, seed=8)
        np.testing.assert_array_equal(
            fused.scores(levels), legacy.scores(levels)
        )

    def test_fused_counters(self):
        shape = (13, 5)
        artifacts = _exported(shape, seed=9)
        fused = BitPackedUniVSA(artifacts, mode="fused")
        levels = _levels_batch(shape, n=7, seed=9)
        registry = MetricsRegistry()
        with using_registry(registry):
            fused.scores(levels)
        assert registry.counter("packed.samples").value == 7


class TestTrafficModel:
    def test_models_exist_for_all_modes(self):
        artifacts = _exported((6, 10), seed=11)
        keys = {
            "mode",
            "bytes_per_sample",
            "popcounts_per_sample",
            "lut_lookups_per_sample",
            "tile_samples",
            "peak_intermediate_mb",
        }
        for mode in ("legacy", "fused"):
            model = BitPackedUniVSA(artifacts, mode=mode).traffic_model(batch=32)
            assert keys <= set(model), mode
            assert model["mode"] == mode
            assert model["bytes_per_sample"] > 0

    def test_fused_footprint_smaller_than_legacy(self):
        """The fusion claim itself: peak intermediates shrink by orders
        of magnitude while popcount work moves into LUT lookups.  Without
        the compiled datapath the fused engine runs — and models — the
        oracle stages."""
        artifacts = _exported((13, 5), seed=12)
        legacy = BitPackedUniVSA(artifacts, mode="legacy").traffic_model(batch=256)
        engine = BitPackedUniVSA(artifacts, mode="fused")
        fused = engine.traffic_model(batch=256)
        if engine.conv_backend != "cc":
            assert {**fused, "mode": "legacy"} == legacy
            return
        assert fused["peak_intermediate_mb"] < legacy["peak_intermediate_mb"]
        assert fused["popcounts_per_sample"] < legacy["popcounts_per_sample"]
        assert fused["lut_lookups_per_sample"] > 0

    def test_publish_traffic_metrics(self):
        artifacts = _exported((6, 10), seed=13)
        engine = BitPackedUniVSA(artifacts, mode="fused")
        registry = MetricsRegistry()
        engine.publish_traffic_metrics(registry, batch=16)
        assert registry.gauge("packed.traffic.bytes_per_sample").value > 0
        assert registry.gauge("packed.traffic.peak_intermediate_mb").value > 0
