"""Bit-exactness of the fast kernel set against the legacy reference.

The fast kernels (``np.packbits`` pack, ``np.bitwise_count`` popcount)
must be indistinguishable from the legacy seed arithmetic at the word
level — not merely after unpacking — so packed artifacts produced by one
set can be consumed by the other.  Edge dimensions straddle the 64-bit
word boundary so the padding-bit handling is exercised, not assumed.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.vsa import (
    hamming_distance_packed,
    pack_bipolar,
    popcount,
    unpack_bipolar,
    xnor_popcount,
)
from repro.vsa.kernels import (
    FAST_KERNELS,
    LEGACY_KERNELS,
    available_kernel_sets,
    get_kernels,
    kernel_info,
    publish_kernel_metrics,
    set_kernels,
    using_kernels,
)

RNG = np.random.default_rng(11)

EDGE_DIMS = [1, 63, 64, 65, 128, 200]


def _random_bipolar(shape):
    return RNG.choice(np.array([-1, 1], dtype=np.int8), size=shape)


class TestWordLevelEquality:
    """Both packs must produce identical uint64 words, bit for bit."""

    @pytest.mark.parametrize("dim", EDGE_DIMS)
    def test_pack_words_identical(self, dim):
        v = _random_bipolar((5, dim))
        fast, d_fast = FAST_KERNELS.pack(v)
        legacy, d_legacy = LEGACY_KERNELS.pack(v)
        assert d_fast == d_legacy == dim
        assert fast.dtype == legacy.dtype == np.uint64
        np.testing.assert_array_equal(fast, legacy)

    @pytest.mark.parametrize("dim", EDGE_DIMS)
    def test_all_ones_and_all_minus_ones(self, dim):
        """Extremes pin the padding bits: the pad region must stay zero."""
        for fill in (1, -1):
            v = np.full((2, dim), fill, dtype=np.int8)
            fast, _ = FAST_KERNELS.pack(v)
            legacy, _ = LEGACY_KERNELS.pack(v)
            np.testing.assert_array_equal(fast, legacy)
            if fill == 1 and dim % 64:
                # high word's pad bits are zero, so its popcount is dim % 64
                assert int(popcount(fast[..., -1]).max()) == dim % 64

    @pytest.mark.parametrize("dim", EDGE_DIMS)
    def test_cross_set_round_trip(self, dim):
        """Words from one set unpack correctly through the other."""
        v = _random_bipolar((3, dim))
        fast, _ = FAST_KERNELS.pack(v)
        legacy, _ = LEGACY_KERNELS.pack(v)
        np.testing.assert_array_equal(LEGACY_KERNELS.unpack(fast, dim), v)
        np.testing.assert_array_equal(FAST_KERNELS.unpack(legacy, dim), v)


class TestPopcountEquality:
    def test_per_word_counts_agree(self):
        words = RNG.integers(0, 2**63, size=(4, 9), dtype=np.uint64)
        words[0, 0] = 0
        words[0, 1] = np.uint64(0xFFFFFFFFFFFFFFFF)
        np.testing.assert_array_equal(
            FAST_KERNELS.popcount8(words), LEGACY_KERNELS.popcount8(words)
        )

    @pytest.mark.parametrize("dim", EDGE_DIMS)
    def test_xnor_popcount_agrees_across_sets(self, dim):
        a = _random_bipolar((4, dim))
        b = _random_bipolar((4, dim))
        dense = (a == b).sum(axis=-1)
        for name in ("fast", "legacy"):
            with using_kernels(name):
                pa, d = pack_bipolar(a)
                pb, _ = pack_bipolar(b)
                np.testing.assert_array_equal(
                    xnor_popcount(pa, pb, d), dense, err_msg=f"set={name}"
                )

    @pytest.mark.parametrize("dim", EDGE_DIMS)
    def test_hamming_agrees_across_sets(self, dim):
        a = _random_bipolar(dim)
        b = _random_bipolar(dim)
        with using_kernels("fast"):
            pa, d = pack_bipolar(a)
            pb, _ = pack_bipolar(b)
            fast = hamming_distance_packed(pa, pb, d)
        with using_kernels("legacy"):
            legacy = hamming_distance_packed(pa, pb, d)
        assert fast == legacy == (a != b).sum()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2**31 - 1))
def test_pack_equality_property(dim, seed):
    gen = np.random.default_rng(seed)
    v = gen.choice(np.array([-1, 1], dtype=np.int8), size=(2, dim))
    np.testing.assert_array_equal(
        FAST_KERNELS.pack(v)[0], LEGACY_KERNELS.pack(v)[0]
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2**31 - 1))
def test_match_count_equality_property(dim, seed):
    gen = np.random.default_rng(seed)
    a = gen.choice(np.array([-1, 1], dtype=np.int8), size=dim)
    b = gen.choice(np.array([-1, 1], dtype=np.int8), size=dim)
    dense = int((a == b).sum())
    for kernels in (FAST_KERNELS, LEGACY_KERNELS):
        pa, _ = kernels.pack(a)
        pb, _ = kernels.pack(b)
        n_words = pa.shape[-1]
        pad_bits = n_words * 64 - dim
        matches = int(kernels.popcount8(~(pa ^ pb)).sum()) - pad_bits
        assert matches == dense


class TestDispatch:
    def test_available_sets(self):
        sets = available_kernel_sets()
        assert set(sets) == {"fast", "legacy"}
        assert sets["fast"] is FAST_KERNELS
        assert sets["legacy"] is LEGACY_KERNELS

    def test_process_starts_on_fast(self):
        """No environment variable picks the import-time set: a fresh
        interpreter starts on ``fast`` even with the retired
        ``REPRO_KERNELS=legacy`` set."""
        code = "from repro.vsa.kernels import get_kernels; print(get_kernels().name)"
        src_dir = str(Path(repro.__file__).parents[1])
        env = dict(os.environ, REPRO_KERNELS="legacy")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "fast"

    def test_set_kernels_rejects_unknown(self):
        for name in ("turbo", "jit"):
            with pytest.raises(ValueError, match="unknown kernel set"):
                set_kernels(name)

    def test_using_kernels_restores_on_exit(self):
        before = get_kernels()
        with using_kernels("legacy") as active:
            assert active is LEGACY_KERNELS
            assert get_kernels() is LEGACY_KERNELS
        assert get_kernels() is before

    def test_using_kernels_restores_on_error(self):
        before = get_kernels()
        with pytest.raises(RuntimeError):
            with using_kernels("legacy"):
                raise RuntimeError("boom")
        assert get_kernels() is before

    def test_kernel_info_keys(self):
        info = kernel_info()
        assert set(info) == {
            "set",
            "pack",
            "popcount",
            "numpy",
            "bitwise_count_available",
            "cc_conv_enabled",
            "cc_conv_compiled_taps",
            "cc_conv_unavailable_reason",
        }
        legacy = kernel_info(LEGACY_KERNELS)
        assert legacy["set"] == "legacy"
        assert legacy["pack"] == "mac64"
        assert legacy["popcount"] == "lut16"

    def test_publish_kernel_metrics_gauges(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        with using_kernels("legacy"):
            publish_kernel_metrics(registry)
        assert registry.gauge("kernels.pack_packbits").value == 0.0
        with using_kernels("fast"):
            publish_kernel_metrics(registry)
        assert registry.gauge("kernels.pack_packbits").value == 1.0

    def test_bitops_follow_active_set(self):
        """The public bitops API dispatches through the active set."""
        v = _random_bipolar((2, 130))
        with using_kernels("legacy"):
            legacy_words, d = pack_bipolar(v)
        with using_kernels("fast"):
            fast_words, _ = pack_bipolar(v)
        np.testing.assert_array_equal(legacy_words, fast_words)
        np.testing.assert_array_equal(unpack_bipolar(fast_words, d), v)
