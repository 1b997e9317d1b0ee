"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads, metric names, units and
bounds are declared in ``BENCHMARK.json``; this script prints, for the
chosen workload, a readable report (every metric with its unit and
sample count, and the run's labels) followed, as the last line, by one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.

Each run is hermetic: every ``REPRO_*`` variable is removed from the
environment, temporary files (the compiled-kernel cache among them) go
to ``perfbench/.work/tmp``, the serve daemon runs with ``--no-ledger``,
and nothing is written outside ``perfbench/.work``.  The models, the
256-sample test bank and the legacy-oracle scores are built once per
checkout by ``fixture.py`` (fixed training seed) before any timed run.

``setup_s`` is the median over ``SETUP_REPEATS`` fresh processes (the
measured one among them) of the time from process start to the first
answered warm-up operation.  The run fails, exiting 1, if any answer is
not the oracle's int64 score row, and exits 2 without a result when the
checkout holds no ``src/repro`` to measure.

``failed`` counts answers the system got wrong: failed, quarantined or
with a wrong score row.  A request the server sheds under overload gets
an explicit ``rejected`` answer by design; it is not a failure, but it
counts in ``error_share`` and against ``ok_share``.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
FIXTURE = WORK / "fixture"
SETUP_REPEATS = 7
FIXTURE_TIMEOUT_S = 600
SETUP_TIMEOUT_S = 15


class WorkloadError(RuntimeError):
    pass


def hermetic_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def run_process(command: list[str], env: dict, timeout_s: float) -> None:
    """Run ``command`` in its own process group; on timeout or failure the
    whole group (a serve daemon included) is killed and reaped."""
    process = subprocess.Popen(command, env=env, start_new_session=True)
    try:
        code = process.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if code != 0:
        reason = "timed out" if code is None else f"exited {code}"
        raise WorkloadError(f"{Path(command[1]).name} {reason}")


def ensure_fixture(env: dict) -> None:
    """Build the fixture once per checkout (under a lock)."""
    WORK.mkdir(exist_ok=True)
    (WORK / "tmp").mkdir(exist_ok=True)
    with open(WORK / "fixture.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (FIXTURE / "ready.json").is_file():
            run_process(
                [sys.executable, str(HERE / "fixture.py"), "--out", str(FIXTURE)],
                env,
                FIXTURE_TIMEOUT_S,
            )


def run_workload(args, env: dict, setup_only: bool, timeout_s: float) -> dict:
    """One fresh workload process; returns the result it wrote."""
    out = WORK / f"result-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--fixture", str(FIXTURE),
        "--work", str(WORK),
        "--out", str(out),
    ]
    if setup_only:
        command.append("--setup-only")
    try:
        run_process(command + ["--t0", repr(monotonic())], env, timeout_s)
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def git_rev(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref = (git / ref[5:]).read_text().strip()
        return ref[:12]
    except OSError:
        return "unknown"


def report_end_to_end(result: dict, setups: list[float]) -> dict:
    """Print every end-to-end figure with its unit and sample count;
    return the values by metric name."""
    e2e = result["end_to_end"]
    outcomes = result["outcomes"]
    n = e2e["latency_samples"]
    samples = f"n={n} {e2e['latency_unit']}s, median of {e2e['windows']} windows"
    values = {
        "throughput_per_s": e2e["throughput_per_s"],
        "p50_ms": e2e["p50_ms"],
        "tail_ms": e2e["tail_ms"],
        "ok_share": e2e["ok_share"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    lines = [
        ("throughput_per_s", "1/s", f"{outcomes['ok']} exact ok answers, "
         f"median of {e2e['windows']} windows"),
        ("p50_ms", "ms", samples),
        ("p99_ms", "ms", f"n={n}, {e2e['beyond_p99']} beyond"
         + ("" if e2e["p99_ms"] is not None else " (a report needs 10)")),
        ("tail_ms", "ms", f"p{e2e['tail_percentile']:g}, n={n} {e2e['latency_unit']}s, "
         f"median of {e2e['tail_windows']} windows"),
        ("slo_miss_share", "share", f"n={outcomes['attempted']}, not ok within the SLO"),
        ("error_share", "share",
         "n={attempted}: {rejected} rejected, {failed} failed, {quarantined} "
         "quarantined, {mismatched} score mismatches".format(**outcomes)),
        ("ok_share", "share", f"exact ok rows / rows, median of {e2e['windows']} windows"),
        ("setup_s", "s", f"median of {len(setups)} set-ups: "
         + ", ".join(f"{s:.3f}" for s in setups)),
        ("peak_rss_mb", "MB", "of the serving process"),
    ]
    for name, unit, note in lines:
        value = values.get(name, e2e.get(name))
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<18} {shown:>12} {unit:<6} {note}")
    return values


def report_layers(spec_layers, layers: dict) -> dict:
    """Print every per-layer figure; n/a ones are reported as 0."""
    values = {}
    for entry in spec_layers:
        name = entry["name"]
        value = layers.get(name)
        note = ""
        if isinstance(value, list):  # [percentile, value] from the tail rule
            pct, value = value
            if pct != 99.0:
                note = f"p{pct:g}: p99 needs 10 samples beyond"
        if value is None:
            value, note = 0.0, "n/a on this workload"
        print(f"  {name:<34} {float(value):>14.6g} {entry['unit']:<12} {note}")
        values[name] = value
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro under the current directory; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 60:
        print("perfbench: --seconds must be in (0, 60]", file=sys.stderr)
        return 2

    env = hermetic_env(root)
    setups = []
    try:
        ensure_fixture(env)
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(run_workload(args, env, True, SETUP_TIMEOUT_S)["setup_s"])
        result = run_workload(args, env, False, 2 * args.seconds + 60)
    except WorkloadError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    labels = dict(result["labels"], git_rev=git_rev(root), seed=args.seed,
                  seconds=args.seconds, trace=args.trace)
    print(f"perfbench {args.workload}")
    print("labels: " + json.dumps(labels, sort_keys=True))
    outcomes = result["outcomes"]
    correct = outcomes["attempted"] > 0 and result["wrong"] == 0
    if args.trace:
        values = report_layers(spec["per_layer"], result["layers"])
        declared = spec["per_layer"]
        if result["layers"].get("span_file_reproduces_self_time") is False:
            print("perfbench: the span file does not reproduce the reported self time")
            correct = False
    else:
        values = report_end_to_end(result, setups)
        declared = spec["end_to_end"]
    metrics = {}
    for entry in declared:
        value = float(values[entry["name"]])
        if not math.isfinite(value) or (not args.trace and value <= 0):
            print(f"perfbench: {entry['name']} has no positive finite value")
            correct = False
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    if outcomes["mismatched"]:
        print(f"perfbench: {outcomes['mismatched']} answers differ from the "
              "oracle's int64 score rows")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(outcomes["attempted"]),
        "failed": int(result["wrong"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
