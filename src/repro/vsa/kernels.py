"""Bit-kernel dispatch: one selected implementation set for pack/popcount.

The packed oracle stages spend their time in two primitives — packing
bipolar vectors into uint64 words and popcounting XNOR'd words.  Each has
a portable reference implementation (a 64-lane multiply-accumulate pack,
a 16-bit LUT popcount) and a fast path built on NumPy ufuncs
(``np.packbits`` with little bit order viewed as little-endian words,
``np.bitwise_count`` on NumPy >= 2).  This module owns the choice:

* the process starts on the ``fast`` set and every call in
  :mod:`repro.vsa.bitops` dispatches through the active
  :class:`KernelSet`;
* :func:`using_kernels` temporarily swaps the set — the property tests
  prove all sets produce identical words and counts, and the
  throughput bench uses it to time the seed-equivalent configuration;
* :func:`kernel_info` / :func:`publish_kernel_metrics` expose what is
  active, so every profile and ledger record is attributable to a
  specific kernel configuration.

The compiled datapath (:mod:`repro.vsa.kernels_cc`) calls none of these
primitives, so an engine takes it only under the stock ``fast`` set.

All pack implementations use the same bit order (element ``d`` of a
vector lands at bit ``d % 64`` of word ``d // 64``), so packed artifacts
are interchangeable between sets.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "KernelSet",
    "FAST_KERNELS",
    "LEGACY_KERNELS",
    "available_kernel_sets",
    "get_kernels",
    "set_kernels",
    "using_kernels",
    "wrap_kernels",
    "kernel_info",
    "publish_kernel_metrics",
    "HAVE_BITWISE_COUNT",
]

WORD_BITS = 64

#: Little-endian uint64 — a *view* through this dtype reads 8 packed
#: bytes as one word with byte 0 least significant on every platform.
_U64_LE = np.dtype("<u8")

HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")

# ---------------------------------------------------------------------------
# legacy implementations (the seed engine's arithmetic, kept verbatim)
# ---------------------------------------------------------------------------
_POP16: np.ndarray | None = None


def _pop16_table() -> np.ndarray:
    """The 65536-entry 16-bit popcount LUT, built lazily and vectorized.

    The table is dead weight when ``np.bitwise_count`` serves popcounts,
    so it is not built at import; construction is a SWAR reduction over
    ``arange`` rather than the seed's 65536-iteration Python loop.
    """
    global _POP16
    if _POP16 is None:
        table = np.arange(1 << 16, dtype=np.uint16)
        table = (table & 0x5555) + ((table >> 1) & 0x5555)
        table = (table & 0x3333) + ((table >> 2) & 0x3333)
        table = (table + (table >> 4)) & 0x0F0F
        table = (table + (table >> 8)) & 0x001F
        _POP16 = table.astype(np.uint8)
    return _POP16


def _pack_legacy(vectors: np.ndarray) -> tuple[np.ndarray, int]:
    """Multiply-accumulate pack: 64 weighted lanes summed per word."""
    vectors = np.asarray(vectors)
    dim = vectors.shape[-1]
    n_words = (dim + WORD_BITS - 1) // WORD_BITS
    bits = (vectors > 0).astype(np.uint8)
    padded = np.zeros(vectors.shape[:-1] + (n_words * WORD_BITS,), dtype=np.uint8)
    padded[..., :dim] = bits
    shaped = padded.reshape(vectors.shape[:-1] + (n_words, WORD_BITS))
    weights = (np.uint64(1) << np.arange(WORD_BITS, dtype=np.uint64)).astype(np.uint64)
    packed = (shaped.astype(np.uint64) * weights).sum(axis=-1, dtype=np.uint64)
    return packed, dim


def _unpack_legacy(packed: np.ndarray, dim: int) -> np.ndarray:
    """Shift-and-mask unpack (inverse of either pack implementation)."""
    packed = np.asarray(packed, dtype=np.uint64)
    n_words = packed.shape[-1]
    shifts = np.arange(WORD_BITS, dtype=np.uint64)
    bits = (packed[..., :, None] >> shifts) & np.uint64(1)
    flat = bits.reshape(packed.shape[:-1] + (n_words * WORD_BITS,))[..., :dim]
    return np.where(flat == 1, 1, -1).astype(np.int8)


def _popcount8_lut(words: np.ndarray) -> np.ndarray:
    """Per-word popcount via four 16-bit LUT lookups; uint8 result."""
    words = np.asarray(words, dtype=np.uint64)
    table = _pop16_table()
    mask = np.uint64(0xFFFF)
    total = table[(words & mask).astype(np.intp)]
    for shift in (16, 32, 48):
        total = total + table[((words >> np.uint64(shift)) & mask).astype(np.intp)]
    return total


# ---------------------------------------------------------------------------
# fast implementations
# ---------------------------------------------------------------------------
def _pack_fast(vectors: np.ndarray) -> tuple[np.ndarray, int]:
    """``np.packbits`` pack: little bit order, bytes viewed as LE words."""
    vectors = np.asarray(vectors)
    dim = vectors.shape[-1]
    n_words = (dim + WORD_BITS - 1) // WORD_BITS
    n_bytes = n_words * 8
    data = np.packbits(vectors > 0, axis=-1, bitorder="little")
    if data.shape[-1] != n_bytes:
        padded = np.zeros(vectors.shape[:-1] + (n_bytes,), dtype=np.uint8)
        padded[..., : data.shape[-1]] = data
        data = padded
    words = np.ascontiguousarray(data).view(_U64_LE)
    return words.astype(np.uint64, copy=False), dim


def _unpack_fast(packed: np.ndarray, dim: int) -> np.ndarray:
    """``np.unpackbits`` unpack of little-endian words."""
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    data = packed.astype(_U64_LE, copy=False).view(np.uint8)
    bits = np.unpackbits(data, axis=-1, bitorder="little")[..., :dim]
    return np.where(bits == 1, 1, -1).astype(np.int8)


def _popcount8_native(words: np.ndarray) -> np.ndarray:
    """Per-word popcount via the ``np.bitwise_count`` ufunc; uint8 result."""
    return np.bitwise_count(np.asarray(words, dtype=np.uint64))


# ---------------------------------------------------------------------------
# the dispatch table
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class KernelSet:
    """One coherent set of bit-kernel implementations."""

    name: str
    pack: Callable[[np.ndarray], tuple[np.ndarray, int]]
    unpack: Callable[[np.ndarray, int], np.ndarray]
    popcount8: Callable[[np.ndarray], np.ndarray]  # per-word counts, uint8
    pack_impl: str
    popcount_impl: str


LEGACY_KERNELS = KernelSet(
    name="legacy",
    pack=_pack_legacy,
    unpack=_unpack_legacy,
    popcount8=_popcount8_lut,
    pack_impl="mac64",
    popcount_impl="lut16",
)

FAST_KERNELS = KernelSet(
    name="fast",
    pack=_pack_fast,
    unpack=_unpack_fast,
    popcount8=_popcount8_native if HAVE_BITWISE_COUNT else _popcount8_lut,
    pack_impl="packbits",
    popcount_impl="bitwise_count" if HAVE_BITWISE_COUNT else "lut16",
)

_SETS = {"legacy": LEGACY_KERNELS, "fast": FAST_KERNELS}


def available_kernel_sets() -> dict[str, KernelSet]:
    """Name -> :class:`KernelSet` for every selectable set."""
    return dict(_SETS)


def _resolve_set(name: str) -> KernelSet:
    try:
        return _SETS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel set {name!r}; expected one of {sorted(_SETS)}"
        ) from None


_active: KernelSet = FAST_KERNELS


def get_kernels() -> KernelSet:
    """The active kernel set."""
    return _active


def set_kernels(kernels: KernelSet | str) -> KernelSet:
    """Install a kernel set (by name or instance); returns the active set.

    Unknown names raise.
    """
    global _active
    if isinstance(kernels, str):
        kernels = _resolve_set(kernels)
    _active = kernels
    return _active


def wrap_kernels(
    base: KernelSet,
    pack: Callable[[np.ndarray], tuple[np.ndarray, int]] | None = None,
    unpack: Callable[[np.ndarray, int], np.ndarray] | None = None,
    popcount8: Callable[[np.ndarray], np.ndarray] | None = None,
    suffix: str = "+wrapped",
) -> KernelSet:
    """A derived :class:`KernelSet` with some primitives interposed.

    The seam fault-injection harnesses hook into: a wrapper observes or
    perturbs the packed words flowing through ``pack``/``popcount8``
    without the engines knowing (see :func:`repro.runtime.chaos.chaos_kernels`).
    ``kernel_info`` keeps the base implementation names, tagged with
    ``suffix``, so ledger records stay attributable.
    """
    return KernelSet(
        name=base.name + suffix,
        pack=pack if pack is not None else base.pack,
        unpack=unpack if unpack is not None else base.unpack,
        popcount8=popcount8 if popcount8 is not None else base.popcount8,
        pack_impl=base.pack_impl,
        popcount_impl=base.popcount_impl,
    )


@contextmanager
def using_kernels(kernels: KernelSet | str):
    """Temporarily make ``kernels`` the active set."""
    previous = get_kernels()
    active = set_kernels(kernels)
    try:
        yield active
    finally:
        set_kernels(previous)


def kernel_info(kernels: KernelSet | None = None) -> dict:
    """JSON-friendly description of the (active) kernel configuration."""
    active = kernels if kernels is not None else get_kernels()
    from repro.vsa.kernels_cc import cc_info

    info = {
        "set": active.name,
        "pack": active.pack_impl,
        "popcount": active.popcount_impl,
        "numpy": np.__version__,
        "bitwise_count_available": HAVE_BITWISE_COUNT,
    }
    info.update(cc_info())
    return info


def publish_kernel_metrics(registry=None) -> None:
    """Record the active kernel configuration as gauges.

    ``kernels.pack_packbits`` / ``kernels.popcount_native`` are 1.0 when
    the respective fast path is active, 0.0 on the legacy path — so a
    metrics snapshot (and therefore every ledger record built from one)
    pins down which kernels produced its latencies.
    """
    if registry is None:
        from repro.obs import get_registry

        registry = get_registry()
    active = get_kernels()
    registry.gauge("kernels.pack_packbits").set(
        1.0 if active.pack_impl == "packbits" else 0.0
    )
    registry.gauge("kernels.popcount_native").set(
        1.0 if active.popcount_impl == "bitwise_count" else 0.0
    )
    from repro.vsa.kernels_cc import cc_enabled

    registry.gauge("kernels.cc_conv").set(1.0 if cc_enabled() else 0.0)
