"""Train the benchmark's models once and store them with their oracle.

    python perfbench/fixture.py --out DIR

writes into ``DIR``:

* ``paper.npz`` — artifacts of the paper's BCI-III-V Table I config
  ``8,1,3,151,3`` (the batch workload's model);
* ``serve.npz`` — artifacts of the ``4,1,3,16,3`` serve config;
* ``bank.npz`` — the 256-sample BCI-III-V test bank every workload draws
  from, and each model's legacy-oracle int64 score rows for it;
* ``ready.json`` — written last, so a half-built fixture is never used.

Training uses a fixed seed: the workload seed never changes the models.
The legacy engine's scores are checked against the artifact-level
integer reference before they are stored as the oracle.  Building a
fused engine once per model also compiles the conv kernel into the
compiled-kernel cache, so no timed run pays for a compiler.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.core import UniVSAConfig
from repro.core.inference import BitPackedUniVSA
from repro.core.pipeline import run_benchmark
from repro.data import get_benchmark
from repro.utils.trainloop import TrainConfig

BENCHMARK = "bci-iii-v"
TRAIN_SEED = 0
N_TRAIN = 120
BANK_SIZE = 256
MODELS = {"paper": (8, 1, 3, 151, 3), "serve": (4, 1, 3, 16, 3)}


def build(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    benchmark = get_benchmark(BENCHMARK)
    bank = None
    oracles = {}
    for name, paper_tuple in MODELS.items():
        run = run_benchmark(
            BENCHMARK,
            config=UniVSAConfig.from_paper_tuple(paper_tuple, levels=benchmark.levels),
            train_config=TrainConfig(
                epochs=2,
                lr=0.008,
                seed=TRAIN_SEED,
                balance_classes=benchmark.spec.class_balance is not None,
            ),
            n_train=N_TRAIN,
            n_test=BANK_SIZE,
            seed=TRAIN_SEED,
        )
        levels = np.ascontiguousarray(run.data.x_test, dtype=np.int64)
        if bank is None:
            bank = levels
        elif not np.array_equal(bank, levels):
            raise SystemExit("fixture: the two models saw different test banks")
        artifacts = run.artifacts
        oracle = BitPackedUniVSA(artifacts, mode="legacy").scores(bank)
        reference = artifacts.scores(bank)
        if oracle.dtype != np.int64 or not np.array_equal(oracle, reference):
            raise SystemExit(f"fixture: legacy engine disagrees with the reference on {name}")
        oracles[f"oracle_{name}"] = oracle
        artifacts.save(out / f"{name}.npz")
        BitPackedUniVSA(artifacts, mode="fused")
    np.savez(out / "bank.npz", levels=bank, **oracles)
    (out / "ready.json").write_text(
        json.dumps({"benchmark": BENCHMARK, "train_seed": TRAIN_SEED,
                    "models": {k: list(v) for k, v in MODELS.items()}})
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    build(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
