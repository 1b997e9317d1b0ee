"""Bit-packed XNOR/popcount inference engine for deployed UniVSA models.

This is the software twin of the FPGA datapath: every stage operates on
uint64-packed bipolar words exactly as the hardware's XNOR arrays and
popcount adder trees do.

* **BiConv**: each output pixel's operand block (D_H x D_K x D_K bipolar
  values, borders padded with -1) is matched against the packed kernel;
  the accumulation is ``2 * popcount(~(x ^ k)) - n_bits``, compared
  against the per-channel threshold.
* **Encoding**: reduction over the O channel axis per position.
* **Similarity**: reduction over the W*L position axis per class and voter.

The engine has two modes:

* ``mode="fused"`` (default) runs the **compiled datapath**
  (:mod:`repro.vsa.kernels_cc`): one C call per batch takes raw levels
  and runs DVP gather, BiConv byte-LUT match, fires packing, encode and
  similarity per sample, writing score (or ``s``) rows in place.  Its
  operands — per-level ValueBox rows packed channel-major, pre-inverted
  feature/class words, kernel taps and the threshold folded into one
  XOR-count compare (see ``_init_fused``) — are built once, and the
  kernel compiled (or its cached build attached), at construction — in
  ``__init__`` and in :meth:`~BitPackedUniVSA.from_operand_state` — so
  no timed call pays for gcc.

  The choice is made **per call**: the compiled datapath runs only when
  it was built (a compiler is present and ``REPRO_CC`` allows it), the
  artifacts have a conv kernel, the active kernel set is the stock
  ``fast`` set — never ``legacy`` or a wrapped (``+chaos``) set, whose
  interposed primitives the C code would bypass — and every level is an
  integer in ``[0, n_levels)``.  Anything else runs the legacy oracle
  stages the engine also carries, which keep NumPy's indexing semantics
  (``IndexError``, negative indices).  ``conv_backend`` names the route
  (``"cc"`` or ``"legacy"``).
* ``mode="legacy"`` preserves the seed engine's per-call block packing;
  it is the oracle the compiled datapath is checked against, bit for
  bit, by the property suite and ``python -m repro bench-throughput``.

``traffic_model()`` exposes the analytic bytes-moved / popcount-ops per
sample of the backend that runs — the roofline numbers the throughput
bench publishes as ``packed.traffic.*`` gauges.

Bit-exact equivalence between both modes, the integer path
(`UniVSAArtifacts`), and the trained graph is enforced by tests — this
engine doubles as the golden model for the cycle simulator in
:mod:`repro.hw.simulator`.

Every stage is timed into ``packed.dvp``, ``packed.biconv`` (conv plus
fires packing), ``packed.encode`` and ``packed.similarity`` histograms,
plus a ``packed.samples`` counter: the oracle stages through
:func:`repro.obs.stage_timer`, the compiled datapath through per-stage
nanosecond totals the kernel accumulates and the engine observes once
per call.  With the default null registry and no tracer the
instrumentation is a no-op branch and the kernel reads no clock.
``scores()`` opens a ``packed.classify`` trace root, so with a tracer
active one call becomes a full span tree and the soft-vote margins land
in the ``quality.soft_vote_margin`` histogram.  The oracle stages pack
with ``validate=False`` — their inputs are bipolar by construction, and
the domain scan would otherwise dominate small-batch latency.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.obs import annotate_span, get_registry, get_tracer, stage_timer, trace_span
from repro.vsa.bitops import pack_bipolar, xnor_popcount
from repro.vsa.kernels import FAST_KERNELS, get_kernels

from .export import UniVSAArtifacts, record_soft_vote_margins

__all__ = ["BitPackedUniVSA", "warn_off_compiled"]

_ENGINE_MODES = ("fused", "legacy")

#: The compiled kernel's stage split, in its ``stage_ns`` slot order.
_CC_STAGES = ("packed.dvp", "packed.biconv", "packed.encode", "packed.similarity")


def _pack_bytes(vectors: np.ndarray) -> np.ndarray:
    """Bipolar/boolean (..., D) -> bytes (..., ceil(D/8)), little bit order."""
    return np.packbits(np.asarray(vectors) > 0, axis=-1, bitorder="little")


class BitPackedUniVSA:
    """Packed-word inference over exported UniVSA artifacts.

    ``mode`` selects the stage pipeline (``"fused"``, the default, or the
    ``"legacy"`` oracle).
    """

    def __init__(
        self,
        artifacts: UniVSAArtifacts,
        mode: str = "fused",
    ) -> None:
        if mode not in _ENGINE_MODES:
            raise ValueError(
                f"unknown engine mode {mode!r}; expected one of {_ENGINE_MODES}"
            )
        self.mode = mode
        self.artifacts = artifacts
        self.input_shape = artifacts.input_shape
        self.positions = artifacts.positions
        config = artifacts.config

        if artifacts.kernel is not None:
            o = artifacts.kernel.shape[0]
            self._kernel_packed, self._conv_bits = pack_bipolar(
                artifacts.kernel.reshape(o, -1)
            )
            self._thresholds = artifacts.conv_thresholds
            self._flips = artifacts.conv_flips
        else:
            self._kernel_packed = None

        # F packed along the channel axis, one word-vector per position.
        channels = config.encoding_channels()
        self._feature_packed, self._enc_bits = pack_bipolar(
            artifacts.feature_vectors.T  # (P, channels)
        )
        # C packed along the position axis per (voter, class).
        self._class_packed, self._sim_bits = pack_bipolar(artifacts.class_vectors)
        self._channels = channels

        self._cc = None
        if mode == "fused" and artifacts.kernel is not None:
            self._init_fused()

    # ------------------------------------------------------------------
    # fused-mode precomputation
    # ------------------------------------------------------------------
    def _init_fused(self) -> None:
        """The compiled datapath's operands, then the kernel itself.

        Packed ValueBox rows, pre-inverted feature/class words and the
        kernel taps in operand order, with the conv threshold folded into
        XOR-count space: with ``n`` true bits and ``x`` XOR bits the
        accumulation is ``n - 2x``, so ``acc >= t  <=>  x <= floor((n-t)/2)``
        and (flipped channels) ``acc <= t  <=>  x >= ceil((n-t)/2)``.
        Folding the flip into ``bound = xor_lo - 1`` leaves one compare,
        ``fires = (x <= bound) ^ flip``.  Byte padding bits are zero on
        both the operand and the tap side, so they add no XOR counts.
        """
        artifacts = self.artifacts
        # Per-level ValueBox rows packed channel-major at byte granularity
        # (memoized here so every DVP lookup is a packed gather).
        self._value_bytes_high = _pack_bytes(artifacts.value_high)
        if artifacts.value_low is not None:
            d_high = artifacts.value_high.shape[1]
            d_low = artifacts.value_low.shape[1]
            low = np.ones((artifacts.value_low.shape[0], d_high), dtype=np.int8)
            low[:, :d_low] = artifacts.value_low
            self._value_bytes_low = _pack_bytes(low)
            self._mask_bool = artifacts.mask.astype(bool)
        else:
            self._value_bytes_low = None

        # Pre-inverted static operands: popcount(~(a ^ b)) == popcount(a ^ ~b).
        self._feature_inv = ~self._feature_packed
        self._class_inv = ~self._class_packed

        # Kernel bytes in conv *operand order*: for each tap (kh, kw) the
        # channel bits padded to whole bytes, concatenated.  The match
        # count over all C*K*K true bits is order-independent, so the
        # accumulation is bit-exact vs the legacy block order.
        kernel = artifacts.kernel  # (O, C, k, k)
        o, c, k, _ = kernel.shape
        taps = _pack_bytes(kernel.transpose(0, 2, 3, 1))  # (O, k, k, nb)
        self._kernel_tap_bytes = np.ascontiguousarray(taps.reshape(o, -1))
        n_bits = c * k * k
        half = (n_bits - np.asarray(self._thresholds, dtype=np.float64)) / 2.0
        xor_hi = np.floor(half).astype(np.int64)
        xor_lo = np.ceil(half).astype(np.int64)
        flips = np.asarray(self._flips).astype(bool)
        self._fused_bound = np.where(flips, xor_lo - 1, xor_hi)
        self._fused_flip = flips
        self._init_cc()

    def _init_cc(self) -> None:
        """Compile (or attach the cached) whole-datapath C kernel.

        Built at construction under any kernel set, so timed calls never
        pay for gcc; whether a call may *use* it is decided per call (see
        :meth:`_cc_for_call`).  ``None`` when ``REPRO_CC`` disables the
        backend or the build fails — ``kernel_info()`` records the reason.
        """
        from repro.vsa.kernels_cc import build_fused

        self._cc = build_fused(
            self._value_bytes_high,
            self._value_bytes_low,
            self._mask_bool if self._value_bytes_low is not None else None,
            self._kernel_tap_bytes,
            self._fused_bound,
            self._fused_flip,
            self.artifacts.kernel.shape[2],
            self._feature_inv,
            self._class_inv,
            self._enc_bits,
            self.input_shape,
        )

    def _cc_for_call(self):
        """The compiled kernel when the active kernel set is the stock
        ``fast`` set, else ``None``.

        The ``legacy`` set is the reference configuration and a wrapped
        set (chaos ``+chaos``) interposes on ``pack``/``popcount8``, which
        the C code never calls — both must run the oracle stages.
        """
        if self._cc is not None and get_kernels() is FAST_KERNELS:
            return self._cc
        return None

    @property
    def conv_backend(self) -> str:
        """Which implementation a call under the active kernel set
        dispatches to: ``"cc"`` (the compiled datapath) or ``"legacy"``
        (the oracle stages)."""
        return "cc" if self._cc_for_call() is not None else "legacy"

    def _run(self, levels: np.ndarray, similarity: bool) -> np.ndarray:
        """The datapath shared by ``encode()`` and ``scores()``.

        One C call over the whole batch when :meth:`_cc_for_call` allows
        it and every level is an in-range integer; otherwise the oracle
        stages, which keep NumPy's indexing semantics (``IndexError``,
        negative indices).
        """
        levels = np.asarray(levels).reshape((-1,) + self.input_shape)
        cc = self._cc_for_call()
        if cc is not None and levels.dtype.kind in "iu":
            b = levels.shape[0]
            if similarity:
                out = np.empty((b, self._class_inv.shape[1]), dtype=np.int64)
            else:
                out = np.empty((b, self.positions), dtype=np.int8)
            if self._run_cc(cc, levels, out):
                get_registry().counter("packed.samples").add(b)
                return out
        s = self._encode_legacy(levels)
        return self._similarity_stage(s) if similarity else s

    def _run_cc(self, cc, levels: np.ndarray, out: np.ndarray) -> bool:
        """One compiled call; ``False`` when a level is out of range.

        With the registry or a tracer on, the kernel accumulates per-stage
        nanoseconds, observed once per call into the ``packed.dvp`` /
        ``packed.biconv`` (conv + fires pack) / ``packed.encode`` /
        ``packed.similarity`` histograms and laid out back to back as
        child spans of the open trace span.
        """
        levels = np.ascontiguousarray(levels, dtype=np.int64)
        registry = get_registry()
        tracer = get_tracer()
        if not (registry.enabled or tracer.enabled):
            return cc.run(levels, out)
        stage_ns = np.zeros(4, dtype=np.int64)
        start = perf_counter()
        if not cc.run(levels, out, stage_ns):
            return False
        stages = _CC_STAGES if out.dtype == np.int64 else _CC_STAGES[:3]
        for name, ns in zip(stages, stage_ns.tolist()):
            seconds = ns * 1e-9
            if registry.enabled:
                registry.histogram(name).observe(seconds)
            if tracer.enabled:
                tracer.close_span(tracer.open_span(name), start, start + seconds)
            start += seconds
        return True

    # ------------------------------------------------------------------
    # legacy stages (the seed engine, kept as baseline and cross-check)
    # ------------------------------------------------------------------
    @stage_timer("packed.biconv")
    def _conv_stage(self, volume: np.ndarray) -> np.ndarray:
        """Packed BiConv: volume (B, D_H, W, L) int8 -> bipolar (B, O, W, L)."""
        kernel = self.artifacts.kernel
        b, c, h, w = volume.shape
        o, _, k, _ = kernel.shape
        pad = k // 2
        padded = np.pad(
            volume, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=-1
        )
        windows = sliding_window_view(padded, (k, k), axis=(2, 3))  # (B,C,H,W,k,k)
        blocks = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, h * w, c * k * k)
        packed, dim = pack_bipolar(blocks, validate=False)
        matches = xnor_popcount(
            packed[:, :, None, :], self._kernel_packed[None, None, :, :], dim
        )  # (B, P, O)
        accumulated = 2 * matches - dim
        thresholds = self._thresholds[None, None, :]
        flips = self._flips[None, None, :]
        fires = np.where(flips, accumulated <= thresholds, accumulated >= thresholds)
        bipolar = np.where(fires, 1, -1).astype(np.int8)
        return bipolar.transpose(0, 2, 1).reshape(b, o, h, w)

    @stage_timer("packed.encode")
    def _encode_stage(self, feature: np.ndarray) -> np.ndarray:
        """Packed encoding: (B, channels, W, L) -> bipolar s (B, P)."""
        b = feature.shape[0]
        flat = feature.reshape(b, self._channels, self.positions)
        packed, dim = pack_bipolar(flat.transpose(0, 2, 1), validate=False)  # (B, P, words)
        matches = xnor_popcount(packed, self._feature_packed[None], dim)
        accumulated = 2 * matches - dim
        return np.where(accumulated >= 0, 1, -1).astype(np.int8)

    @stage_timer("packed.similarity")
    def _similarity_stage(self, s: np.ndarray) -> np.ndarray:
        """Packed soft voting: s (B, P) -> scores (B, n_classes)."""
        packed, dim = pack_bipolar(s, validate=False)
        matches = xnor_popcount(
            packed[:, None, None, :], self._class_packed[None], dim
        )  # (B, Theta, C)
        dots = 2 * matches - dim
        return dots.sum(axis=1)

    def _encode_legacy(self, levels: np.ndarray) -> np.ndarray:
        with stage_timer("packed.dvp"):
            volume = self.artifacts.value_volume(levels)
        get_registry().counter("packed.samples").add(volume.shape[0])
        if self._kernel_packed is not None:
            feature = self._conv_stage(volume)
        else:
            feature = volume
        return self._encode_stage(feature)

    # ------------------------------------------------------------------
    @property
    def n_levels(self) -> int:
        """Quantizer levels the ValueBox covers — valid inputs are [0, n)."""
        return self.artifacts.value_high.shape[0]

    def resident_operands(self) -> dict:
        """Every array inference reads at serve time, by stable name.

        Covers both the source artifact arrays and the mode's derived
        packed operands (packed kernel/feature/class vectors, thresholds,
        and in fused mode the compiled datapath's ValueBox bytes,
        pre-inverted words and taps/bounds).  This is
        the scrub surface of :class:`repro.runtime.integrity
        .IntegrityScrubber`: golden digests are taken over exactly this
        dict at build time and re-checked on every scrub pass, so a bit
        flip in any resident memory is detectable — and a rebuilt engine
        reproduces the same dict bit for bit (construction is
        deterministic given the artifacts).
        """
        operands: dict = {}
        for name in (
            "mask",
            "value_high",
            "value_low",
            "kernel",
            "feature_vectors",
            "class_vectors",
            "conv_thresholds",
            "conv_flips",
        ):
            array = getattr(self.artifacts, name, None)
            if isinstance(array, np.ndarray):
                operands[f"artifacts.{name}"] = array
        for attr in (
            "_kernel_packed",
            "_thresholds",
            "_flips",
            "_feature_packed",
            "_class_packed",
            "_value_bytes_high",
            "_value_bytes_low",
            "_mask_bool",
            "_feature_inv",
            "_class_inv",
            "_kernel_tap_bytes",
            "_fused_bound",
            "_fused_flip",
        ):
            array = getattr(self, attr, None)
            if isinstance(array, np.ndarray):
                operands[f"engine.{attr.lstrip('_')}"] = array
        return operands

    #: Small integer attributes shipped alongside the operand arrays so a
    #: reconstructed engine needs no recomputation at all.
    _OPERAND_SCALARS = (
        "_conv_bits",
        "_enc_bits",
        "_sim_bits",
        "_channels",
    )

    def operand_state(self) -> tuple[dict[str, np.ndarray], dict]:
        """The engine's full resident state as ``(arrays, meta)``.

        ``arrays`` is exactly :meth:`resident_operands` — every ndarray
        inference reads at serve time, artifact and derived alike.
        ``meta`` carries the non-array remainder (mode, config,
        packed-bit dimensions).  Together they are sufficient for
        :meth:`from_operand_state` to rebuild a bit-identical engine with
        **zero** recomputation, which is what lets a worker attach an
        :class:`repro.runtime.shm.OperandPlane` instead of unpickling and
        re-deriving the operands per process.
        """
        meta = {
            "mode": self.mode,
            "input_shape": tuple(self.input_shape),
            "config": self.artifacts.config,
            "artifacts_metadata": dict(self.artifacts.metadata),
            "scalars": {
                name: getattr(self, name)
                for name in self._OPERAND_SCALARS
                if hasattr(self, name)
            },
        }
        return dict(self.resident_operands()), meta

    @classmethod
    def from_operand_state(
        cls, arrays: dict[str, np.ndarray], meta: dict
    ) -> "BitPackedUniVSA":
        """Reconstruct an engine around externally-owned operand views.

        The inverse of :meth:`operand_state`: artifact arrays and derived
        packed operands are adopted as-is (typically read-only zero-copy
        views of a shared-memory plane), so construction does no packing,
        inverting, or threshold folding.  Only the compiled datapath is
        (re)bound — cached build attached, tap tables and bound windows
        derived — reading the adopted ValueBox and feature/class views in
        place.  Bit-exact with a from-artifacts construction by the
        property suite.
        """
        def _artifact(name: str):
            return arrays.get(f"artifacts.{name}")

        artifacts = UniVSAArtifacts(
            config=meta["config"],
            input_shape=tuple(meta["input_shape"]),
            mask=_artifact("mask"),
            value_high=_artifact("value_high"),
            value_low=_artifact("value_low"),
            kernel=_artifact("kernel"),
            feature_vectors=_artifact("feature_vectors"),
            class_vectors=_artifact("class_vectors"),
            conv_thresholds=_artifact("conv_thresholds"),
            conv_flips=_artifact("conv_flips"),
            metadata=dict(meta.get("artifacts_metadata", {})),
        )
        self = cls.__new__(cls)
        self.mode = meta["mode"]
        self.artifacts = artifacts
        self.input_shape = artifacts.input_shape
        self.positions = artifacts.positions
        self._kernel_packed = None
        self._value_bytes_low = None
        for name, value in meta.get("scalars", {}).items():
            setattr(self, name, value)
        for key, array in arrays.items():
            if key.startswith("engine."):
                setattr(self, "_" + key[len("engine.") :], array)
        self._cc = None
        if self.mode == "fused" and artifacts.kernel is not None:
            self._init_cc()
        return self

    def sibling(self, mode: str) -> "BitPackedUniVSA":
        """An engine over the *same* artifacts in a different mode.

        The resilience layer's degradation ladder uses this to build the
        seed-exact ``legacy`` fallback engine without re-extracting or
        copying artifacts; the fused-vs-legacy parity suite guarantees
        the sibling is bit-exact with this engine.
        """
        return BitPackedUniVSA(self.artifacts, mode=mode)

    def traffic_model(self, batch: int = 256) -> dict:
        """Analytic memory-traffic / op-count model of the backend that runs.

        Per-sample estimates of what the stage pipeline *touches* in
        intermediate arrays (reads + writes at ufunc granularity, bytes),
        how many 64-bit popcount ops and byte-LUT lookups it issues, and
        the peak intermediate footprint one scheduling unit holds (one
        sample's scratch in the compiled kernel, the whole ``batch`` on
        the oracle stages).  The footprint is the roofline's x-axis: a
        pipeline whose footprint fits in cache pays DRAM only for its
        inputs, one that does not pays DRAM for every intermediate pass.
        ``backend`` names the implementation the model describes (see
        :attr:`conv_backend`).
        """
        p = self.positions
        theta, n_classes = self._class_packed.shape[:2]
        ws = self._class_packed.shape[-1]
        wf = self._feature_packed.shape[-1]
        kernel = self.artifacts.kernel
        # Encode + similarity: XOR/popcount against the feature words,
        # then pack + XOR/popcount against the class words (per sample).
        tail_bytes = p * wf * 18 + p * 2 + theta * n_classes * ws * 18
        tail_pops = p * wf + theta * n_classes * ws
        cc = self._cc_for_call()
        if cc is not None:
            # No intermediate planes: int64 levels in, int64 score rows
            # out; everything else lives in the per-sample scratch.
            o = kernel.shape[0]
            model = {
                "bytes_per_sample": float(p * 8 + n_classes * 8),
                "popcounts_per_sample": float(tail_pops),
                "lut_lookups_per_sample": float(p * o * cc.taps),
                "tile_samples": 1,
                "peak_intermediate_mb": cc.scratch_bytes / (1 << 20),
            }
        elif kernel is None:
            model = {
                "bytes_per_sample": float(tail_bytes),
                "popcounts_per_sample": float(tail_pops),
                "lut_lookups_per_sample": 0.0,
                "tile_samples": int(batch),
                "peak_intermediate_mb": batch * p * 18 / (1 << 20),
            }
        else:
            # Legacy materializes the int8 operand block and packs it per
            # call, then runs the XNOR/popcount match broadcast over words.
            o, c, k, _ = kernel.shape
            wc = -(-(c * k * k) // 64)
            model = {
                "bytes_per_sample": float(
                    2 * p * c * k * k + p * wc * 16 + p * o * wc * 24 + tail_bytes
                ),
                "popcounts_per_sample": float(p * o * wc + tail_pops),
                "lut_lookups_per_sample": 0.0,
                "tile_samples": int(batch),
                "peak_intermediate_mb": batch * p * (c * k * k + o * wc * 17) / (1 << 20),
            }
        model["mode"] = self.mode
        model["backend"] = self.conv_backend
        return model

    def publish_traffic_metrics(self, registry=None, batch: int = 256) -> None:
        """Record the traffic model as ``packed.traffic.*`` gauges."""
        if registry is None:
            registry = get_registry()
        model = self.traffic_model(batch=batch)
        registry.gauge("packed.traffic.bytes_per_sample").set(
            model["bytes_per_sample"]
        )
        registry.gauge("packed.traffic.popcounts_per_sample").set(
            model["popcounts_per_sample"]
        )
        registry.gauge("packed.traffic.lut_lookups_per_sample").set(
            model["lut_lookups_per_sample"]
        )
        registry.gauge("packed.traffic.peak_intermediate_mb").set(
            model["peak_intermediate_mb"]
        )

    def encode(self, levels: np.ndarray) -> np.ndarray:
        """Levels (B, W, L) -> bipolar sample vectors (B, W*L)."""
        return self._run(levels, similarity=False)

    def scores(self, levels: np.ndarray) -> np.ndarray:
        """Soft-voting class scores (B, n_classes)."""
        with trace_span("packed.classify"):
            scores = self._run(levels, similarity=True)
            record_soft_vote_margins(scores)
            annotate_span(batch=scores.shape[0])
            return scores

    def predict(self, levels: np.ndarray) -> np.ndarray:
        """Predicted labels via the packed datapath."""
        return self.scores(levels).argmax(axis=1)

    def score(self, levels: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy."""
        return float((self.predict(levels) == np.asarray(y)).mean())


def warn_off_compiled(engine: BitPackedUniVSA, stream=None) -> str | None:
    """Print one line to ``stream`` (stderr) when ``engine`` runs off the
    compiled datapath, naming why; returns the line, ``None`` on ``cc``."""
    if engine.conv_backend == "cc":
        return None
    if engine.mode != "fused":
        reason = f"engine mode {engine.mode!r}"
    elif engine.artifacts.kernel is None:
        reason = "the artifacts have no conv kernel"
    elif engine._cc is not None:
        reason = f"kernel set {get_kernels().name!r} is active"
    else:
        from repro.vsa.kernels_cc import cc_info

        reason = cc_info()["cc_conv_unavailable_reason"] or "not built"
    line = f"repro: the compiled datapath is off ({reason}); running the legacy oracle stages"
    print(line, file=sys.stderr if stream is None else stream)
    return line
