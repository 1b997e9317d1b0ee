"""Deployment runtimes for deployed UniVSA models: streaming + batch +
fault-tolerant serving (retry/fallback/quarantine/breaker + chaos) + the
micro-batching online front end and its open-loop load harness."""

from .batch import WorkerPool, resolve_workers
from .chaos import ChaosError, ChaosSpec, chaos_context, chaos_kernels, parse_chaos
from .integrity import (
    ArtifactCorruptionError,
    IntegrityScrubber,
    ScrubReport,
    damage_archive,
    flip_resident_bits,
    verify_archive,
)
from .loadgen import (
    LoadPoint,
    ServeBenchReport,
    bench_serve,
    bursty_arrivals,
    client_arrivals,
    poisson_arrivals,
    run_open_loop,
)
from .resilience import (
    BatchReport,
    BatchResult,
    CircuitOpenError,
    ResilientBatchRunner,
    RetryPolicy,
    ShardStatus,
    serving_predict_fn,
    validate_levels,
)
from .serve import MicroBatchServer, NetPolicy, ServePolicy, ServeResponse, serve_tcp
from .shm import SharedArray, attach_view, leaked_segments
from .stream import StreamingClassifier, StreamingDecision
from .throughput import EngineSample, ThroughputReport, bench_throughput

__all__ = [
    "StreamingClassifier",
    "StreamingDecision",
    "WorkerPool",
    "resolve_workers",
    "EngineSample",
    "ThroughputReport",
    "bench_throughput",
    # resilience
    "RetryPolicy",
    "ShardStatus",
    "BatchReport",
    "BatchResult",
    "CircuitOpenError",
    "ResilientBatchRunner",
    "validate_levels",
    "serving_predict_fn",
    # chaos
    "ChaosSpec",
    "ChaosError",
    "chaos_context",
    "chaos_kernels",
    "parse_chaos",
    # shared-memory handoff
    "SharedArray",
    "attach_view",
    "leaked_segments",
    # artifact integrity / self-healing
    "ArtifactCorruptionError",
    "IntegrityScrubber",
    "ScrubReport",
    "damage_archive",
    "flip_resident_bits",
    "verify_archive",
    # serving front end
    "NetPolicy",
    "ServePolicy",
    "ServeResponse",
    "MicroBatchServer",
    "serve_tcp",
    # load generation
    "LoadPoint",
    "ServeBenchReport",
    "bench_serve",
    "poisson_arrivals",
    "bursty_arrivals",
    "client_arrivals",
    "run_open_loop",
]
