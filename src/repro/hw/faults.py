"""Fault injection: bit flips in the stored vector memories.

Resource-stringent deployments (implanted BCIs especially) care about
robustness to memory corruption — single-event upsets in the BRAM holding
F or the LUTRAM holding V/K/C.  Binary VSA's holographic representations
degrade gracefully under such flips; this module quantifies that for a
deployed UniVSA model.

``fault_sweep`` accepts a ``predict_fn`` so the sweep can run through any
serving configuration — the default is the artifact-level integer
reference path; :func:`repro.runtime.resilience.serving_predict_fn`
routes it through the packed engines under a
:class:`~repro.runtime.resilience.ResilientBatchRunner` (what
``python -m repro fault-sweep`` measures).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.core.export import UniVSAArtifacts

__all__ = ["FaultReport", "inject_bit_flips", "fault_sweep"]

_GROUPS = ("value_high", "value_low", "kernel", "feature_vectors", "class_vectors")


def inject_bit_flips(
    artifacts: UniVSAArtifacts,
    flip_fraction: float,
    groups: tuple[str, ...] = _GROUPS,
    seed: int | np.random.Generator = 0,
) -> UniVSAArtifacts:
    """Return a copy with ``flip_fraction`` of the selected bits flipped.

    ``groups`` selects which stored memories are corrupted; groups not
    present in the artifact (e.g. ``kernel`` with BiConv off) are
    skipped.  Only the selected memories are copied — everything else
    (including the config, mask, and unselected groups) is *shared* with
    the input, so sweeping one group of a large model never deep-copies
    the rest.  ``seed`` may be an int (a fresh generator per call, so the
    same seed reproduces the same flip positions) or an
    ``np.random.Generator`` to thread one stream through many injections.
    """
    if not 0.0 <= flip_fraction <= 1.0:
        raise ValueError("flip_fraction must be in [0, 1]")
    unknown = set(groups) - set(_GROUPS)
    if unknown:
        raise ValueError(f"unknown memory groups: {sorted(unknown)}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    corrupted = copy.copy(artifacts)
    for group in groups:
        array = getattr(artifacts, group)
        if array is None:
            continue
        array = array.copy()
        n_flips = int(round(flip_fraction * array.size))
        if n_flips:
            idx = rng.choice(array.size, size=n_flips, replace=False)
            # array.flat writes through for any memory layout; reshape(-1)
            # silently returns a copy for non-contiguous arrays and the
            # flips would be lost.
            array.flat[idx] = -array.flat[idx]
        setattr(corrupted, group, array)
    return corrupted


@dataclass
class FaultReport:
    """Accuracy vs flip rate for one memory group selection.

    With ``repair_after`` the report also carries the *recovery curve*:
    per fraction, the accuracy with the same per-bit corruption applied
    to a live packed engine's resident memory
    (``resident_accuracies``), whether the integrity scrubber detected
    it (``scrub_detected``), and the accuracy after the scrubber's hot
    repair (``repaired_accuracies`` — equal to the baseline when repair
    restores the golden state, which is the claim the curve documents).
    """

    flip_fractions: list[float]
    accuracies: list[float]
    baseline_accuracy: float
    resident_accuracies: list[float] | None = None
    repaired_accuracies: list[float] | None = None
    scrub_detected: list[bool] | None = None

    def degradation(self) -> list[float]:
        """Accuracy drop vs the fault-free model, per flip rate."""
        return [self.baseline_accuracy - a for a in self.accuracies]

    def recovery(self) -> list[float] | None:
        """Accuracy recovered by the scrub+repair pass, per flip rate."""
        if self.repaired_accuracies is None:
            return None
        return [
            repaired - corrupted
            for repaired, corrupted in zip(
                self.repaired_accuracies, self.resident_accuracies
            )
        ]

    def as_dict(self) -> dict:
        """JSON-friendly view (the fault-sweep sidecar payload)."""
        out = {
            "flip_fractions": list(self.flip_fractions),
            "accuracies": list(self.accuracies),
            "baseline_accuracy": self.baseline_accuracy,
            "degradation": self.degradation(),
        }
        if self.repaired_accuracies is not None:
            out.update(
                resident_accuracies=list(self.resident_accuracies),
                repaired_accuracies=list(self.repaired_accuracies),
                scrub_detected=list(self.scrub_detected),
                recovery=self.recovery(),
            )
        return out


def fault_sweep(
    artifacts: UniVSAArtifacts,
    levels: np.ndarray,
    labels: np.ndarray,
    flip_fractions: tuple[float, ...] = (0.001, 0.01, 0.05, 0.1),
    groups: tuple[str, ...] = _GROUPS,
    seed: int = 0,
    predict_fn=None,
    repair_after: bool = False,
) -> FaultReport:
    """Measure accuracy under increasing memory-corruption rates.

    ``predict_fn(artifacts, levels) -> predictions`` selects the serving
    path; the default is the integer reference (``artifacts.predict``).
    An int ``seed`` reproduces the same flip positions at every fraction,
    so sweep points differ only in corruption *rate*, not location luck.

    With ``repair_after=True`` each fraction additionally runs the live
    recovery pipeline the serving layer uses: a pristine fused engine
    gets its resident operands corrupted in place at the same per-bit
    rate (:func:`repro.runtime.integrity
    .flip_resident_bits`), accuracy is measured degraded, then the
    :class:`~repro.runtime.integrity.IntegrityScrubber` is invoked —
    detect + rebuild-from-pristine — and accuracy is re-measured.  The
    resulting recovery curve sits alongside the degradation curve in the
    report (and EXPERIMENTS).
    """
    labels = np.asarray(labels)
    if predict_fn is None:
        predict_fn = lambda model, x: model.predict(x)  # noqa: E731
    baseline = float((np.asarray(predict_fn(artifacts, levels)) == labels).mean())
    accuracies = []
    for fraction in flip_fractions:
        corrupted = inject_bit_flips(artifacts, fraction, groups=groups, seed=seed)
        predictions = np.asarray(predict_fn(corrupted, levels))
        accuracies.append(float((predictions == labels).mean()))
    report = FaultReport(
        flip_fractions=list(flip_fractions),
        accuracies=accuracies,
        baseline_accuracy=baseline,
    )
    if not repair_after:
        return report
    from repro.core.inference import BitPackedUniVSA
    from repro.runtime.integrity import IntegrityScrubber, flip_resident_bits

    resident_accuracies = []
    repaired_accuracies = []
    scrub_detected = []
    for index, fraction in enumerate(flip_fractions):
        # Resident flips can land in the artifact arrays themselves;
        # corrupt a private deep copy so the caller's model — and the
        # next fraction's engine — stay pristine.
        engine = BitPackedUniVSA(copy.deepcopy(artifacts))
        scrubber = IntegrityScrubber(engine)
        rng = np.random.default_rng((seed, index))
        flip_resident_bits(engine, rng, rate=fraction)
        degraded = np.asarray(engine.predict(levels))
        resident_accuracies.append(float((degraded == labels).mean()))
        scrub = scrubber.scrub()
        scrub_detected.append(not scrub.clean)
        repaired = np.asarray(scrubber.engine.predict(levels))
        repaired_accuracies.append(float((repaired == labels).mean()))
    report.resident_accuracies = resident_accuracies
    report.repaired_accuracies = repaired_accuracies
    report.scrub_detected = scrub_detected
    return report
