"""Fused-vs-legacy engine equivalence and conv-window regression tests.

The fast engine (``mode="fused"``: packed conv operands, XOR-space
integer thresholds, one compiled call per batch) must produce the legacy
oracle's int64 score rows *exactly* on every configuration — including
position counts that are not a multiple of 64, batch-norm-folded
thresholds with channel flips, and the oracle route it takes without the
compiled datapath.  A naive Python loop pins the sliding-window
convolution so a future stride/transpose mistake cannot hide behind
"both paths use the same helper".
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BitPackedUniVSA, UniVSAConfig, UniVSAModel, extract_artifacts
from repro.core.export import _int_conv2d_same
from repro.nn import Tensor
from repro.vsa.kernels import using_kernels
from repro.vsa.kernels_cc import reset_cc

LEVELS = 12
SMALL = UniVSAConfig(
    d_high=4, d_low=2, kernel_size=3, out_channels=8, voters=2, levels=LEVELS
)

# (6, 10) -> 60 positions; (13, 5) -> 65 positions (pad bits in the
# encode/similarity words); (4, 16) -> 64 positions (exact word fit).
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


def _assert_rows_match_oracle(engine, levels):
    """The engine's int64 score rows equal the legacy oracle's, row for row."""
    oracle = BitPackedUniVSA(engine.artifacts, mode="legacy").scores(levels)
    scores = engine.scores(levels)
    assert scores.dtype == oracle.dtype == np.int64
    np.testing.assert_array_equal(scores, oracle)


class TestEngineEquivalence:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_fast_matches_legacy_and_artifacts(self, shape):
        artifacts = _exported(shape)
        levels = _levels_batch(shape)
        fused = BitPackedUniVSA(artifacts)
        assert fused.mode == "fused"
        _assert_rows_match_oracle(fused, levels)
        np.testing.assert_array_equal(fused.scores(levels), artifacts.scores(levels))
        np.testing.assert_array_equal(fused.encode(levels), artifacts.encode(levels))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_fast_engine_on_legacy_kernels(self, shape):
        """Engine mode and kernel set are orthogonal axes: the fused
        engine built and run under the legacy kernel set still matches
        the oracle's score rows."""
        artifacts = _exported(shape, seed=1)
        levels = _levels_batch(shape, seed=1)
        with using_kernels("legacy"):
            engine = BitPackedUniVSA(artifacts)
            assert engine.conv_backend == "legacy"
            _assert_rows_match_oracle(engine, levels)

    def test_compiler_off_takes_the_oracle_stages(self, monkeypatch):
        """With the compiled datapath off the fused engine runs the
        oracle stages: its score rows and ``encode()`` rows equal the
        legacy engine's."""
        monkeypatch.setenv("REPRO_CC", "0")
        reset_cc()
        shape = (13, 5)
        artifacts = _exported(shape, seed=2)
        levels = _levels_batch(shape, n=9, seed=2)
        engine = BitPackedUniVSA(artifacts)
        reset_cc()
        assert engine.conv_backend == "legacy"
        _assert_rows_match_oracle(engine, levels)
        legacy = BitPackedUniVSA(artifacts, mode="legacy")
        np.testing.assert_array_equal(engine.encode(levels), legacy.encode(levels))

    def test_batchnorm_thresholds_and_flips(self):
        """Folded BN gives non-zero float thresholds and flipped
        channels — the integer raw-match threshold conversion must keep
        tie semantics exact."""
        config = replace(SMALL, use_batchnorm=True)
        shape = (6, 10)
        model = UniVSAModel(shape, 3, config, mask=_mask(shape), seed=3)
        model.train()
        for seed in range(3):
            model(Tensor(model.preprocess(_levels_batch(shape, seed=seed))))
        model.eval()
        artifacts = extract_artifacts(model)
        assert np.abs(artifacts.conv_thresholds).max() > 0
        levels = _levels_batch(shape, seed=3)
        fused = BitPackedUniVSA(artifacts)
        np.testing.assert_array_equal(
            fused.encode(levels), BitPackedUniVSA(artifacts, mode="legacy").encode(levels)
        )
        _assert_rows_match_oracle(fused, levels)

    def test_no_kernel_ablation(self):
        config = SMALL.with_ablation(True, False, 2)
        shape = (6, 10)
        model = UniVSAModel(shape, 3, config, mask=_mask(shape), seed=4)
        artifacts = extract_artifacts(model)
        levels = _levels_batch(shape, seed=4)
        fused = BitPackedUniVSA(artifacts)
        assert artifacts.kernel is None
        assert fused.conv_backend == "legacy"
        _assert_rows_match_oracle(fused, levels)

    def test_rejects_unknown_mode(self):
        artifacts = _exported((6, 10), seed=5)
        for mode in ("warp", "fast"):
            with pytest.raises(ValueError, match="unknown engine mode"):
                BitPackedUniVSA(artifacts, mode=mode)

    def test_single_sample_and_empty_batch(self):
        shape = (6, 10)
        artifacts = _exported(shape, seed=6)
        fused = BitPackedUniVSA(artifacts)
        _assert_rows_match_oracle(fused, _levels_batch(shape, n=1, seed=6))
        empty = _levels_batch(shape, n=0, seed=6)
        _assert_rows_match_oracle(fused, empty)
        assert fused.scores(empty).shape == (0, 3)
        assert fused.encode(empty).shape == (0, shape[0] * shape[1])


def _naive_conv2d_same(volume, kernel, pad_value=-1):
    """Straight quadruple loop — the ground truth for window extraction."""
    b, c, h, w = volume.shape
    o, _, k, _ = kernel.shape
    pad = k // 2
    padded = np.full((b, c, h + 2 * pad, w + 2 * pad), pad_value, dtype=np.int64)
    padded[:, :, pad : pad + h, pad : pad + w] = volume
    out = np.zeros((b, o, h, w), dtype=np.int64)
    for bi in range(b):
        for oi in range(o):
            for y in range(h):
                for x in range(w):
                    window = padded[bi, :, y : y + k, x : x + k]
                    out[bi, oi, y, x] = int((window * kernel[oi]).sum())
    return out


class TestSlidingWindowRegression:
    """Pin the vectorized window extraction against the naive loop."""

    @pytest.mark.parametrize("shape,k", [((5, 7), 3), ((4, 4), 3), ((6, 3), 5)])
    def test_int_conv2d_same_matches_naive(self, shape, k):
        rng = np.random.default_rng(7)
        volume = rng.choice(np.array([-1, 1], dtype=np.int8), size=(2, 3) + shape)
        kernel = rng.choice(np.array([-1, 1], dtype=np.int8), size=(4, 3, k, k))
        np.testing.assert_array_equal(
            _int_conv2d_same(volume, kernel),
            _naive_conv2d_same(volume, kernel),
        )

    def test_fast_conv_stage_matches_naive(self):
        """End-to-end: the fused conv stage fires exactly where the
        naive integer convolution crosses its threshold."""
        shape = (5, 7)
        artifacts = _exported(shape, seed=8)
        levels = _levels_batch(shape, n=3, seed=8)
        volume = artifacts.value_volume(levels)
        accumulated = _naive_conv2d_same(volume, artifacts.kernel)
        thresholds = artifacts.conv_thresholds.reshape(1, -1, 1, 1)
        flips = artifacts.conv_flips.reshape(1, -1, 1, 1)
        fires = np.where(
            flips, accumulated <= thresholds, accumulated >= thresholds
        )
        expected = np.where(fires, 1, -1).astype(np.int8)
        np.testing.assert_array_equal(
            artifacts.feature_map(volume), expected
        )
        fused = BitPackedUniVSA(artifacts)
        np.testing.assert_array_equal(
            fused.encode(levels), artifacts.encode(levels)
        )


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_engine_equivalence_property(seed):
    """Random configs and shapes: fused == legacy == integer reference."""
    gen = np.random.default_rng(seed)
    config = UniVSAConfig(
        d_high=int(gen.integers(2, 6)),
        d_low=1,
        kernel_size=3,
        out_channels=int(gen.integers(2, 10)),
        voters=int(gen.integers(1, 3)),
        levels=8,
    )
    shape = (int(gen.integers(3, 9)), int(gen.integers(3, 9)))
    mask = gen.integers(0, 2, size=shape).astype(np.int8)
    model = UniVSAModel(shape, 2, config, mask=mask, seed=seed % 1000)
    artifacts = extract_artifacts(model)
    levels = gen.integers(0, 8, size=(4,) + shape)
    fused = BitPackedUniVSA(artifacts)
    _assert_rows_match_oracle(fused, levels)
    np.testing.assert_array_equal(fused.scores(levels), artifacts.scores(levels))
