"""Self-calibrating execution planner for the packed datapath.

The runtime has four orthogonal knobs — conv tile budget, executor kind,
shard size, and serve pipeline depth — and the right settings depend on
the machine (cache sizes, core count, fork cost) as much as on the
model.  Instead of shipping guesses, :func:`calibrate` runs a short
measured sweep on the live engine and persists the winning
:class:`ExecutionPlan` to a JSON plan cache keyed by *(config hash,
kernel set, cpu count)* — the same identity triple a ledger record pins
a measurement to, so a plan is only ever reused on the machine/kernel
combination that produced it.

Consumers opt in through ``REPRO_PLAN``:

* unset / ``off`` / ``0`` — planner disabled, explicit knobs only;
* ``auto`` — use the cached plan for this (config, kernels, cpu) key if
  one exists; ``repro plan run`` or ``bench-throughput`` populate it;
* ``<path>`` — load a specific plan JSON (either a single plan object
  or a full plan-cache mapping).

Plans never *override* explicit knobs: :meth:`ExecutionPlan.runner_kwargs`
is applied by ``ResilientBatchRunner`` only to arguments the caller
left at ``None``, and ``MicroBatchServer`` only
consults ``max_inflight`` when the policy still carries the default.
Calibration asserts bit-exactness of every candidate against the inline
engine before it is allowed to win — a faster-but-wrong configuration
is a bug, not a plan.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.obs import config_hash as _config_hash
from repro.obs import get_registry

__all__ = [
    "DEFAULT_PLAN_CACHE",
    "ExecutionPlan",
    "calibrate",
    "clear_plan_cache",
    "load_plan_cache",
    "plan_key",
    "resolve_plan",
    "store_plan",
]

#: Default on-disk plan cache, next to the run ledger it is keyed like.
DEFAULT_PLAN_CACHE = Path("benchmarks/results/plan_cache.json")

#: Tile budgets (MB) probed on the fused engine — cache-sized, the
#: fused default, and a working-set-sized budget.
_TILE_CANDIDATES_MB = (0.5, 2.0, 8.0)

#: Values of ``REPRO_PLAN`` that disable the planner.
_OFF_VALUES = frozenset({"", "off", "0", "no", "false", "none"})


def plan_key(cfg_hash: str, kernel_set: str, cpu_count: int) -> str:
    """Cache key for a plan: sha256 of (config hash, kernels, cpus)."""
    canonical = json.dumps(
        {"config": cfg_hash, "kernels": kernel_set, "cpus": int(cpu_count)},
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


@dataclasses.dataclass(frozen=True)
class ExecutionPlan:
    """One calibrated knob assignment plus the provenance that keys it.

    ``executor`` is ``"inline"`` (no pool — the fused engine on the
    calling thread), ``"thread"``, or ``"process"`` (which always hands
    shards off through shared memory); for ``inline`` the pool knobs are
    inert but still recorded so the plan is a complete description of
    the winning configuration.  :meth:`from_dict` ignores keys that are
    not fields, so cached plans written with retired knobs still load.
    """

    executor: str
    workers: int
    shard_size: int | None
    conv_tile_mb: float
    max_inflight: int
    samples_per_s: float
    # --- provenance (cache identity + audit trail) ---
    key: str
    config_hash: str
    kernel_set: str
    cpu_count: int
    calibration_batch: int
    measurements: tuple = ()

    def as_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["measurements"] = [list(m) for m in self.measurements]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ExecutionPlan":
        fields = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in payload.items() if k in fields}
        kwargs["measurements"] = tuple(
            (str(label), float(value))
            for label, value in kwargs.get("measurements", ())
        )
        return cls(**kwargs)

    def runner_kwargs(self) -> dict:
        """Pool knobs for the ``ResilientBatchRunner`` constructor.

        Only meaningful when the plan picked a pooled executor; an
        ``inline`` plan maps to the thread executor with one worker,
        which the runners collapse to a no-pool inline shard anyway.
        """
        if self.executor == "inline":
            return {"executor": "thread", "workers": 1, "shard_size": None}
        return {
            "executor": self.executor,
            "workers": self.workers,
            "shard_size": self.shard_size,
        }

    def ledger_metrics(self) -> dict:
        """Flat ``plan.*`` metrics for a ledger record."""
        metrics = {
            "plan.samples_per_s": self.samples_per_s,
            "plan.conv_tile_mb": self.conv_tile_mb,
            "plan.max_inflight": float(self.max_inflight),
            "plan.workers": float(self.workers),
            "plan.cpu_count": float(self.cpu_count),
        }
        for label, value in self.measurements:
            metrics[f"plan.sweep.{label}"] = value
        return metrics


# --------------------------------------------------------------------------
# plan cache


def load_plan_cache(path=None) -> dict:
    """The raw cache mapping (key -> plan dict); {} when absent/corrupt."""
    cache_path = Path(path or DEFAULT_PLAN_CACHE)
    try:
        with open(cache_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError, OSError):
        return {}
    return payload if isinstance(payload, dict) else {}


def store_plan(plan: ExecutionPlan, path=None) -> Path:
    """Insert/overwrite one plan in the cache file; returns the path."""
    cache_path = Path(path or DEFAULT_PLAN_CACHE)
    cache = load_plan_cache(cache_path)
    cache[plan.key] = plan.as_dict()
    cache_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = cache_path.with_suffix(".json.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(cache, handle, indent=2, sort_keys=True)
        handle.write("\n")
    tmp.replace(cache_path)
    return cache_path


def clear_plan_cache(path=None) -> int:
    """Delete the cache file; returns how many plans it held."""
    cache_path = Path(path or DEFAULT_PLAN_CACHE)
    count = len(load_plan_cache(cache_path))
    try:
        cache_path.unlink()
    except FileNotFoundError:
        pass
    return count


def _engine_key(engine, cpu_count: int | None = None) -> str:
    from repro.vsa.kernels import get_kernels

    cpus = int(cpu_count if cpu_count is not None else (os.cpu_count() or 1))
    return plan_key(
        _config_hash(engine.artifacts.config), get_kernels().name, cpus
    )


def cached_plan_for(engine, environ=None, cache_path=None):
    """The active plan for *engine*, or None.

    This is the cheap runtime-consumption entry point: it never
    calibrates.  ``REPRO_PLAN=auto`` resolves against the on-disk cache
    (miss -> None); a path loads that file directly.  Runners call this
    on construction, so it must stay I/O-light and side-effect free.
    """
    env = os.environ if environ is None else environ
    raw = (env.get("REPRO_PLAN") or "").strip()
    if raw.lower() in _OFF_VALUES:
        return None
    if raw.lower() == "auto":
        entry = load_plan_cache(cache_path).get(_engine_key(engine))
        return ExecutionPlan.from_dict(entry) if entry else None
    return _load_plan_file(raw, engine)


def _load_plan_file(path: str, engine=None):
    """A plan from an explicit JSON file (plan object or cache mapping)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"REPRO_PLAN file {path!r} is not a JSON object")
    if "executor" in payload:  # a single serialized plan
        return ExecutionPlan.from_dict(payload)
    # a full cache mapping: prefer this engine's key, else a sole entry
    if engine is not None:
        entry = payload.get(_engine_key(engine))
        if entry:
            return ExecutionPlan.from_dict(entry)
    if len(payload) == 1:
        return ExecutionPlan.from_dict(next(iter(payload.values())))
    raise ValueError(
        f"REPRO_PLAN cache {path!r} has no plan for this "
        "(config, kernels, cpus) key"
    )


def resolve_plan(engine, batch: int = 256, environ=None, cache_path=None):
    """Plan resolution with calibration: the bench/CLI entry point.

    Unlike :func:`cached_plan_for`, ``auto`` with a cache miss runs
    :func:`calibrate` and persists the result, so the first planned
    bench on a machine pays the sweep and every later run reuses it.
    Returns None when the planner is off.
    """
    env = os.environ if environ is None else environ
    raw = (env.get("REPRO_PLAN") or "").strip()
    if raw.lower() in _OFF_VALUES:
        return None
    if raw.lower() != "auto":
        return _load_plan_file(raw, engine)
    entry = load_plan_cache(cache_path).get(_engine_key(engine))
    if entry:
        return ExecutionPlan.from_dict(entry)
    plan = calibrate(engine, batch=batch)
    store_plan(plan, cache_path)
    return plan


# --------------------------------------------------------------------------
# calibration sweep


def _time_scores(fn, levels, repeats: int, expected) -> float:
    """Best-of-N samples/s of ``fn(levels)``; asserts bit-exactness."""
    scores = fn(levels)  # warmup + correctness in one shot
    np.testing.assert_array_equal(scores, expected)
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = perf_counter()
        fn(levels)
        best = min(best, perf_counter() - start)
    return len(levels) / best if best > 0 else float("inf")


def calibrate(
    engine,
    batch: int = 256,
    repeats: int = 2,
    cpu_count: int | None = None,
    seed: int = 0,
):
    """Measure the knob sweep on *engine*'s model and pick a winner.

    The sweep is deliberately small — at most ~8 timed configurations:

    1. conv tile budget on the fused single-thread engine
       (:data:`_TILE_CANDIDATES_MB`);
    2. executor kind — inline (best tile) vs thread pool vs
       process+shm pool, the pools skipped on single-CPU hosts where
       they can only lose;
    3. pipeline depth — two concurrent batches vs two serial batches on
       the winning executor; overlap that beats serial by >10% earns
       ``max_inflight=2``, anything else stays serialized.

    Every candidate's scores are asserted bit-equal to the inline
    engine before its throughput may be compared.  Pool candidates run
    under the fail-fast policy with chaos off: a calibration run must
    measure the clean path, and any failure must surface.
    """
    from repro.core.inference import BitPackedUniVSA
    from repro.runtime.chaos import ChaosSpec
    from repro.runtime.resilience import ResilientBatchRunner, RetryPolicy

    def _runner(engine, executor, workers):
        return ResilientBatchRunner(
            engine,
            executor=executor,
            workers=workers,
            policy=RetryPolicy(max_retries=0, fallback=False, breaker_threshold=1),
            chaos=ChaosSpec(),
        )

    registry = get_registry()
    cpus = int(cpu_count if cpu_count is not None else (os.cpu_count() or 1))
    artifacts = engine.artifacts
    rng = np.random.default_rng(seed)
    levels = rng.integers(
        0, engine.n_levels, size=(int(batch),) + tuple(engine.input_shape)
    )
    expected = engine.scores(levels)

    measurements: list[tuple[str, float]] = []

    # 1. tile budget sweep (fused engine, inline)
    best_tile, best_tile_rate = None, -1.0
    for tile_mb in _TILE_CANDIDATES_MB:
        candidate = BitPackedUniVSA(artifacts, mode="fused", conv_tile_mb=tile_mb)
        rate = _time_scores(candidate.scores, levels, repeats, expected)
        measurements.append((f"tile_{tile_mb:g}mb", rate))
        if rate > best_tile_rate:
            best_tile, best_tile_rate = tile_mb, rate
    inline_engine = BitPackedUniVSA(artifacts, mode="fused", conv_tile_mb=best_tile)

    # 2. executor sweep
    winner = {
        "executor": "inline",
        "workers": 1,
        "shard_size": None,
        "rate": best_tile_rate,
    }
    measurements.append(("inline", best_tile_rate))
    if cpus > 1:
        for label, executor in (("thread", "thread"), ("process_shm", "process")):
            with _runner(inline_engine, executor, cpus) as runner:
                rate = _time_scores(runner.scores, levels, repeats, expected)
            measurements.append((label, rate))
            if rate > winner["rate"]:
                winner = {
                    "executor": executor,
                    "workers": cpus,
                    "shard_size": None,
                    "rate": rate,
                }

    # 3. in-flight depth probe on the winning configuration
    def _winner_scores(x):
        if winner["executor"] == "inline":
            return inline_engine.scores(x)
        with _runner(inline_engine, winner["executor"], winner["workers"]) as runner:
            return runner.scores(x)

    start = perf_counter()
    np.testing.assert_array_equal(_winner_scores(levels), expected)
    np.testing.assert_array_equal(_winner_scores(levels), expected)
    serial_wall = perf_counter() - start
    with ThreadPoolExecutor(max_workers=2) as pool:
        start = perf_counter()
        futures = [pool.submit(_winner_scores, levels) for _ in range(2)]
        overlapped = [f.result() for f in futures]
        overlap_wall = perf_counter() - start
    for scores in overlapped:
        np.testing.assert_array_equal(scores, expected)
    overlap_rate = 2 * len(levels) / overlap_wall if overlap_wall > 0 else 0.0
    serial_rate = 2 * len(levels) / serial_wall if serial_wall > 0 else 0.0
    measurements.append(("inflight_1", serial_rate))
    measurements.append(("inflight_2", overlap_rate))
    max_inflight = 2 if overlap_wall < 0.9 * serial_wall else 1

    from repro.vsa.kernels import get_kernels

    cfg_hash = _config_hash(artifacts.config)
    kernel_set = get_kernels().name
    plan = ExecutionPlan(
        executor=winner["executor"],
        workers=winner["workers"],
        shard_size=winner["shard_size"],
        conv_tile_mb=float(best_tile),
        max_inflight=max_inflight,
        samples_per_s=float(winner["rate"]),
        key=plan_key(cfg_hash, kernel_set, cpus),
        config_hash=cfg_hash,
        kernel_set=kernel_set,
        cpu_count=cpus,
        calibration_batch=int(batch),
        measurements=tuple(measurements),
    )
    registry.counter("plan.calibrations").add(1)
    registry.gauge("plan.samples_per_s").set(plan.samples_per_s)
    registry.gauge("plan.conv_tile_mb").set(plan.conv_tile_mb)
    registry.gauge("plan.max_inflight").set(float(plan.max_inflight))
    return plan


def render_plan(plan: ExecutionPlan) -> str:
    """Human-readable plan summary for the CLI."""
    from repro.utils.tables import render_kv, render_table

    head = render_kv(
        {
            "key": plan.key,
            "config hash": plan.config_hash,
            "kernel set": plan.kernel_set,
            "cpus": plan.cpu_count,
            "executor": plan.executor,
            "workers": plan.workers,
            "shard size": plan.shard_size if plan.shard_size else "auto",
            "conv tile": f"{plan.conv_tile_mb:g} MB",
            "max inflight": plan.max_inflight,
            "throughput": f"{plan.samples_per_s:,.0f} samples/s",
        },
        title="execution plan",
    )
    if not plan.measurements:
        return head
    rows = [
        [label, f"{rate:,.0f}"] for label, rate in plan.measurements
    ]
    return head + "\n\n" + render_table(
        ["candidate", "samples/s"], rows, title="calibration sweep"
    )
