"""Compiled fused datapath: one gcc-built C call per batch, levels in, rows out.

The fused engine's stages — DVP gather, BiConv byte-LUT match, packing
the fires plane, XNOR-popcount encode and soft-vote similarity — run
here as one C loop over the samples of a batch.  Per sample the kernel

1. gathers each position's packed ValueBox row (``mask`` picks the high
   or the low box) into a scratch volume whose zero border is the -1
   channel padding, so no ``np.pad`` and no gathered plane exist;
2. runs the per-tap byte-LUT conv: one 256-entry XOR-popcount table row
   per tap, summed over the out channels and compared against an
   inclusive unsigned window (below);
3. packs the fires straight into 64-bit words — channel ``c`` lands at
   bit ``c % 64`` of word ``c // 64``, padding bits stay 0 — the same
   layout :func:`repro.vsa.bitops.pack_bipolar` gives the feature side;
4. XNOR-popcounts those words against the pre-inverted feature vectors
   (encode), setting one bit of the sample word per position;
5. XNOR-popcounts the sample word against the pre-inverted class
   vectors and sums the voters (similarity),

writing the int64 ``(B, n_classes)`` score rows — or, for ``encode()``,
the int8 ``s`` rows — in place.  Nothing larger than one sample's
scratch is ever materialized.

Design constraints:

* **Compile at engine construction, never at import.**  The source is
  generated with the tap count and the padded channel count baked in as
  compile-time constants (the inner loops must unroll and vectorize) and
  compiled with ``gcc -O3 -march=native`` into a per-user cache dir
  under the system temp dir.  The artifact is keyed by a hash of the
  source and reused across processes; compilation is atomic
  (temp + rename) so concurrent workers race benignly.
* **Bit-exactness by construction.**  The threshold compare
  ``fires = (xor_count <= bound) ^ flip`` is re-encoded as an inclusive
  window ``blo <= acc <= bhi``: flip channels get ``[bound+1, max]``,
  plain channels ``[0, bound]``, and a negative plain bound (never
  fires) — like every padding channel — the empty window ``[1, 0]``.
  The accumulator is ``uint8`` while ``8 * taps < 256`` and ``uint16``
  up to 8191 taps; larger tap counts are refused.
* **Never out of bounds.**  Every level is checked against the ValueBox
  size before its row is read; a call holding a level outside
  ``[0, n_levels)`` returns ``False`` so the caller can take the legacy
  oracle stages, which keep NumPy's indexing semantics.
* **Graceful degradation.**  ``REPRO_CC=0`` (or ``off``/``false``/
  ``no``), a missing compiler, a failed build or an operand layout the
  kernel does not take all surface as ``build_fused(...) -> None`` with
  the reason recorded — the engine runs the legacy oracle stages and
  :func:`cc_info` reports why.  A later successful bind clears the
  reason, so it always describes the most recent build.
* **Layer split on request.**  Given a 4-slot ``stage_ns`` buffer the
  kernel reads the monotonic clock between stages and accumulates
  nanoseconds for gather, conv+pack, encode and similarity; given none
  it takes no clock reads at all.
* ctypes releases the GIL for the call, so thread executors overlap
  compute; the kernel keeps its state in a per-call scratch buffer and
  is pure and re-entrant.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import threading

import numpy as np

__all__ = [
    "FusedKernel",
    "build_fused",
    "cc_enabled",
    "cc_info",
    "env_flag",
    "reset_cc",
]

_ENV_FLAG = "REPRO_CC"
_OFF_VALUES = {"0", "false", "off", "no"}

#: The widest accumulator holds 8 bits per tap.
_MAX_TAPS = 0xFFFF // 8

_C_TEMPLATE = r"""
#include <stdint.h>
#include <stddef.h>
#include <string.h>
#include <time.h>

#define TAPS {taps}
#define OPAD {opad}
#define WF ((OPAD + 63) / 64)
typedef {acc} acc_t;

static inline int64_t now_ns(void)
{{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}}

/* ops: value_high, value_low, mask, offs, tables, blo, bhi, feature_inv,
 *      class_inv (value_low and mask NULL when there is no low box).
 * geom: height, width, nb, k, n_levels, enc_bits, voters, classes,
 *       sim_words.
 * scratch: P*WF + sim_words words, then the padded volume bytes.
 * Returns 0, or 1 when a level lies outside [0, n_levels). */
int univsa_fused(const void *const *ops, const int64_t *geom,
                 const int64_t *restrict levels, int64_t batch,
                 uint64_t *restrict scratch,
                 int8_t *restrict s_out, int64_t *restrict scores_out,
                 int64_t *restrict stage_ns)
{{
    const uint8_t *value_high = ops[0];
    const uint8_t *value_low = ops[1];
    const uint8_t *mask = ops[2];
    const int64_t *offs = ops[3];
    const uint8_t *tables = ops[4];
    const acc_t *blo = ops[5];
    const acc_t *bhi = ops[6];
    const uint64_t *feature_inv = ops[7];
    const uint64_t *class_inv = ops[8];
    const int64_t height = geom[0], width = geom[1], nb = geom[2], k = geom[3];
    const uint64_t n_levels = (uint64_t)geom[4];
    const int64_t enc_bits = geom[5], voters = geom[6], classes = geom[7];
    const int64_t ws = geom[8];
    const int64_t positions = height * width;
    const int64_t pad = k / 2, wp = width + k - 1;
    const int64_t enc_pad = WF * 64 - enc_bits;
    const int64_t sim_pad = ws * 64 - positions;

    uint64_t *fw = scratch;
    uint64_t *sw = fw + positions * WF;
    uint8_t *vol = (uint8_t *)(sw + ws);
    /* The border and the bytes past OPAD/8 in each feature row are never
     * written below, so they stay zero for the whole call. */
    memset(fw, 0, (size_t)positions * WF * 8);
    memset(vol, 0, (size_t)(height + k - 1) * wp * nb);

    int64_t t0 = 0, t1 = 0;
    for (int64_t b = 0; b < batch; ++b) {{
        const int64_t *lv = levels + b * positions;
        if (stage_ns) t0 = now_ns();

        /* 1. DVP gather into the zero-bordered volume. */
        for (int64_t i = 0; i < height; ++i) {{
            uint8_t *dst = vol + ((i + pad) * wp + pad) * nb;
            for (int64_t j = 0; j < width; ++j) {{
                uint64_t level = (uint64_t)lv[i * width + j];
                if (level >= n_levels) return 1;
                const uint8_t *box =
                    (mask && !mask[i * width + j]) ? value_low : value_high;
                memcpy(dst + j * nb, box + level * nb, (size_t)nb);
            }}
        }}
        if (stage_ns) {{ t1 = now_ns(); stage_ns[0] += t1 - t0; t0 = t1; }}

        /* 2+3. Byte-LUT conv, fires packed into the feature words. */
        for (int64_t i = 0; i < height; ++i) {{
            for (int64_t j = 0; j < width; ++j) {{
                const uint8_t *pos = vol + (i * wp + j) * nb;
                const uint8_t *rows[TAPS];
                for (int t = 0; t < TAPS; ++t)
                    rows[t] = tables + ((size_t)t * 256 + pos[offs[t]]) * OPAD;
                uint8_t fires[OPAD];
                for (int c = 0; c < OPAD; ++c) {{
                    acc_t acc = 0;
                    for (int t = 0; t < TAPS; ++t)
                        acc += rows[t][c];
                    fires[c] = (uint8_t)((blo[c] <= acc) & (acc <= bhi[c]));
                }}
                uint8_t *out = (uint8_t *)(fw + (i * width + j) * WF);
                for (int q = 0; q < OPAD / 8; ++q) {{
                    uint64_t x;
                    memcpy(&x, fires + 8 * q, 8);
                    /* Eight 0/1 bytes -> eight bits, byte i at bit i. */
                    out[q] = (uint8_t)((x * 0x0102040810204080ULL) >> 56);
                }}
            }}
        }}
        if (stage_ns) {{ t1 = now_ns(); stage_ns[1] += t1 - t0; t0 = t1; }}

        /* 4. Encode: XNOR-popcount per position, one bit of s each. */
        memset(sw, 0, (size_t)ws * 8);
        int8_t *s_row = s_out ? s_out + b * positions : NULL;
        for (int64_t p = 0; p < positions; ++p) {{
            int64_t count = 0;
            for (int w = 0; w < WF; ++w)
                count += __builtin_popcountll(fw[p * WF + w] ^ feature_inv[p * WF + w]);
            int positive = 2 * (count - enc_pad) - enc_bits >= 0;
            sw[p >> 6] |= (uint64_t)positive << (p & 63);
            if (s_row) s_row[p] = positive ? 1 : -1;
        }}
        if (stage_ns) {{ t1 = now_ns(); stage_ns[2] += t1 - t0; t0 = t1; }}

        /* 5. Soft-vote similarity, summed over the voters. */
        if (scores_out) {{
            int64_t *row = scores_out + b * classes;
            for (int64_t c = 0; c < classes; ++c) row[c] = 0;
            for (int64_t v = 0; v < voters; ++v) {{
                for (int64_t c = 0; c < classes; ++c) {{
                    const uint64_t *cw = class_inv + (v * classes + c) * ws;
                    int64_t count = 0;
                    for (int64_t w = 0; w < ws; ++w)
                        count += __builtin_popcountll(sw[w] ^ cw[w]);
                    row[c] += 2 * (count - sim_pad) - positions;
                }}
            }}
            if (stage_ns) stage_ns[3] += now_ns() - t0;
        }}
    }}
    return 0;
}}
"""

_lock = threading.Lock()
_libs: dict[tuple[int, int], ctypes.CDLL | None] = {}
_reasons: dict[tuple[int, int], str] = {}
_global_reason: str | None = None


def env_flag(key: str, environ=None) -> bool:
    """A default-on boolean env var: off for ``0``/``false``/``off``/``no``
    in any case, on for anything else (unset included)."""
    env = os.environ if environ is None else environ
    return str(env.get(key, "1")).strip().lower() not in _OFF_VALUES


def cc_enabled() -> bool:
    """Whether the compiled backend is allowed by the environment."""
    return env_flag(_ENV_FLAG)


def reset_cc() -> None:
    """Drop cached libraries/reasons (tests toggling availability)."""
    global _global_reason
    with _lock:
        _libs.clear()
        _reasons.clear()
        _global_reason = None


def cc_info() -> dict:
    """Availability snapshot for :func:`repro.vsa.kernels.kernel_info`.

    ``cc_conv_unavailable_reason`` is why the most recent
    :func:`build_fused` refused, ``None`` once a later one bound a kernel.
    """
    compiled = sorted({key[0] for key, lib in _libs.items() if lib is not None})
    return {
        "cc_conv_enabled": cc_enabled(),
        "cc_conv_compiled_taps": compiled,
        "cc_conv_unavailable_reason": _global_reason,
    }


def _cache_dir() -> str:
    path = os.path.join(
        tempfile.gettempdir(), f"repro-cc-{os.getuid()}"
    )
    os.makedirs(path, mode=0o700, exist_ok=True)
    return path


def _acc_dtype(taps: int) -> type:
    """The conv accumulator: 8 bits per tap must fit."""
    return np.uint8 if taps * 8 < 256 else np.uint16


def _compile(taps: int, opad: int) -> ctypes.CDLL:
    acc = f"{np.dtype(_acc_dtype(taps)).name}_t"
    source = _C_TEMPLATE.format(taps=taps, opad=opad, acc=acc)
    digest = hashlib.sha256(source.encode()).hexdigest()[:12]
    cache = _cache_dir()
    so_path = os.path.join(cache, f"fused{taps}x{opad}-{digest}.so")
    if not os.path.exists(so_path):
        gcc = shutil.which("gcc") or shutil.which("cc")
        if gcc is None:
            raise RuntimeError("no C compiler (gcc/cc) on PATH")
        fd, c_path = tempfile.mkstemp(suffix=".c", dir=cache)
        with os.fdopen(fd, "w") as fh:
            fh.write(source)
        tmp_so = c_path[:-2] + ".so"
        base = [gcc, "-O3", "-shared", "-fPIC", "-o", tmp_so, c_path]
        try:
            attempts = (
                base[:1] + ["-march=native", "-funroll-loops"] + base[1:],
                base,
            )
            last = None
            for cmd in attempts:
                last = subprocess.run(cmd, capture_output=True, text=True)
                if last.returncode == 0:
                    break
            if last is None or last.returncode != 0:
                stderr = (last.stderr or "").strip() if last else ""
                raise RuntimeError(f"cc build failed: {stderr[:400]}")
            os.replace(tmp_so, so_path)
        finally:
            for leftover in (c_path, tmp_so):
                try:
                    os.unlink(leftover)
                except OSError:
                    pass
    lib = ctypes.CDLL(so_path)
    fn = lib.univsa_fused
    fn.restype = ctypes.c_int
    fn.argtypes = [
        ctypes.c_void_p,  # ops
        ctypes.c_void_p,  # geom
        ctypes.c_void_p,  # levels
        ctypes.c_int64,  # batch
        ctypes.c_void_p,  # scratch
        ctypes.c_void_p,  # s_out
        ctypes.c_void_p,  # scores_out
        ctypes.c_void_p,  # stage_ns
    ]
    return lib


def _load(taps: int, opad: int) -> ctypes.CDLL | None:
    """The compiled library for one shape; a failed build is cached and
    its reason re-recorded on every later request for that shape."""
    key = (taps, opad)
    with _lock:
        if key not in _libs:
            try:
                _libs[key] = _compile(taps, opad)
            except (OSError, RuntimeError) as exc:  # pragma: no cover - host-dependent
                _libs[key] = None
                _reasons[key] = str(exc)
        lib = _libs[key]
    if lib is None:
        _refuse(_reasons[key])
    return lib


_POP8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


def _refuse(reason: str) -> None:
    """Record why the compiled backend is unavailable; returns ``None``."""
    global _global_reason
    _global_reason = reason
    return None


def _layout_ok(array, dtype, shape) -> bool:
    return (
        isinstance(array, np.ndarray)
        and array.dtype == dtype
        and array.shape == shape
        and array.flags.c_contiguous
    )


class FusedKernel:
    """One engine's operands bound to the compiled fused datapath.

    Holds a reference to every array whose address the C code reads, so
    the pointers stay valid for the kernel's lifetime.  The ValueBox,
    mask and feature/class operands are the engine's own arrays, read in
    place (a resident bit flip in them reaches the kernel); the tap
    tables and bound windows are derived here.
    """

    def __init__(self, fn, keep: tuple, ops, geom, taps: int, scratch_words: int):
        self._fn = fn
        self._keep = keep
        self._ops = ops
        self._geom = geom
        self.taps = taps
        self._scratch_words = scratch_words

    @property
    def scratch_bytes(self) -> int:
        """Per-call scratch: the only intermediate the kernel holds."""
        return self._scratch_words * 8

    def run(self, levels: np.ndarray, out: np.ndarray, stage_ns=None) -> bool:
        """Score (int64 ``out``) or encode (int8 ``out``) a batch in place.

        ``levels`` must be C-contiguous native int64 of the engine's
        input shape.  ``stage_ns``, when given, is a 4-slot int64 buffer
        the kernel adds gather / conv+pack / encode / similarity
        nanoseconds to.  Returns ``False`` (``out`` undefined) when a
        level lies outside ``[0, n_levels)``.
        """
        height, width, _, _, _, _, _, classes, _ = self._geom.tolist()
        b = levels.shape[0]
        if (
            levels.dtype != np.int64
            or levels.shape != (b, height, width)
            or not levels.flags.c_contiguous
            or not out.flags.c_contiguous
        ):
            raise ValueError("levels must be C-contiguous int64 (B, H, W)")
        if out.dtype == np.int64 and out.shape == (b, classes):
            s_out, scores_out = None, out.ctypes.data
        elif out.dtype == np.int8 and out.shape == (b, height * width):
            s_out, scores_out = out.ctypes.data, None
        else:
            raise ValueError("out must be int64 (B, classes) or int8 (B, H*W)")
        if stage_ns is not None and (stage_ns.dtype != np.int64 or stage_ns.size != 4):
            raise ValueError("stage_ns must be a 4-slot int64 buffer")
        scratch = np.empty(self._scratch_words, dtype=np.uint64)
        status = self._fn(
            self._ops.ctypes.data,
            self._geom.ctypes.data,
            levels.ctypes.data,
            b,
            scratch.ctypes.data,
            s_out,
            scores_out,
            None if stage_ns is None else stage_ns.ctypes.data,
        )
        return status == 0


def build_fused(
    value_high,
    value_low,
    mask,
    tap_bytes,
    bound,
    flip,
    k,
    feature_inv,
    class_inv,
    enc_bits,
    input_shape,
):
    """Bind one engine's operands to the compiled fused datapath.

    ``value_high`` / ``value_low`` are the ``(n_levels, nb)`` packed
    ValueBox rows (``value_low`` and the ``(H, W)`` bool ``mask`` are
    ``None`` without a low box), ``tap_bytes`` the ``(O, k*k*nb)`` kernel
    taps in operand order, ``bound`` / ``flip`` the XOR-space threshold
    encoding from ``BitPackedUniVSA._init_fused``, and ``feature_inv`` /
    ``class_inv`` the pre-inverted ``(P, WF)`` / ``(voters, classes,
    WS)`` words.  Returns a :class:`FusedKernel`, or ``None`` when the
    compiled backend is unavailable or the operand layout is not one the
    kernel takes (reason recorded in :func:`cc_info`, and cleared when a
    kernel is bound).
    """
    global _global_reason
    if not cc_enabled():
        return _refuse(f"disabled via {_ENV_FLAG}")
    if sys.byteorder != "little":
        return _refuse("big-endian host: packed byte order differs")
    tap_bytes = np.ascontiguousarray(np.asarray(tap_bytes, dtype=np.uint8))
    o, taps = tap_bytes.shape
    height, width = (int(n) for n in input_shape)
    positions = height * width
    n_levels, nb = value_high.shape
    if taps != k * k * nb:
        return _refuse(f"tap layout mismatch: {taps} != {k}*{k}*{nb}")
    if taps > _MAX_TAPS:
        return _refuse(f"{taps} taps overflow the uint16 accumulator")
    wf = -(-o // 64)
    voters, classes, ws = class_inv.shape
    layouts = [
        (value_high, np.uint8, (n_levels, nb)),
        (feature_inv, np.uint64, (positions, wf)),
        (class_inv, np.uint64, (voters, classes, -(-positions // 64))),
    ]
    if value_low is not None:
        layouts += [
            (value_low, np.uint8, (n_levels, nb)),
            (mask, np.bool_, (height, width)),
        ]
    if not all(_layout_ok(*layout) for layout in layouts):
        return _refuse("operand layout the compiled kernel does not take")
    opad = -(-o // 32) * 32
    lib = _load(taps, opad)
    if lib is None:
        return None

    # (taps, 256, OPAD): per-tap XOR popcount rows; padding channels 0.
    byte_values = np.arange(256, dtype=np.uint8)
    tables = np.zeros((taps, 256, opad), dtype=np.uint8)
    tables[:, :, :o] = _POP8[byte_values[None, :, None] ^ tap_bytes.T[:, None, :]]
    acc_dtype = _acc_dtype(taps)
    top = np.iinfo(acc_dtype).max
    bound = np.asarray(bound, dtype=np.int64)
    flip = np.asarray(flip, dtype=bool)
    blo = np.ones(opad, dtype=acc_dtype)
    bhi = np.zeros(opad, dtype=acc_dtype)
    blo[:o] = np.where(flip, np.clip(bound + 1, 0, top), np.where(bound < 0, 1, 0))
    bhi[:o] = np.where(flip, top, np.clip(bound, 0, top))
    kh, kw, cb = np.meshgrid(np.arange(k), np.arange(k), np.arange(nb), indexing="ij")
    offs = np.ascontiguousarray(
        (kh * (width + k - 1) * nb + kw * nb + cb).reshape(-1), dtype=np.int64
    )

    keep = (value_high, value_low, mask, offs, tables, blo, bhi, feature_inv, class_inv)
    ops = np.array(
        [0 if array is None else array.ctypes.data for array in keep],
        dtype=np.uintp,
    )
    geom = np.array(
        [height, width, nb, k, n_levels, enc_bits, voters, classes, ws],
        dtype=np.int64,
    )
    volume_words = -(-(height + k - 1) * (width + k - 1) * nb // 8)
    scratch_words = positions * wf + ws + volume_words
    _global_reason = None
    return FusedKernel(lib.univsa_fused, keep, ops, geom, taps, scratch_words)
