"""Calibrated accuracy surrogate for fast search experiments.

Training 60 child networks x 25 epochs per search (x several searches
per figure) is a GPU-days workload in the paper.  The benchmark harness
replaces the training step with a deterministic *accuracy landscape*
that preserves the two properties the FNAS experiments rely on:

1. accuracy grows with model capacity (log-MACs) with diminishing
   returns -- so the unconstrained NAS gravitates to big, slow networks,
   while latency-constrained FNAS gives up a little accuracy;
2. the spread between the smallest and largest architecture in a search
   space is small (about a point) -- the paper's Figure 7(a) shows
   sub-1% accuracy losses even under the tightest specs.

Calibration anchors per dataset (floor/ceiling) come from the paper's
reported numbers where available (MNIST: NAS reaches 99.42%, the
tightest-spec FNAS 98.61%) and from typical 25-epoch training bands
otherwise.  Per-architecture reproducible noise (hashed fingerprint)
adds the jaggedness of real training outcomes.

The real-training path (``repro.core.evaluator.TrainedAccuracyEvaluator``)
exercises the same interface with actual NumPy training; the surrogate
is the paper-scale stand-in, not the only path.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from repro.core.architecture import Architecture
from repro.core.search_space import SearchSpace


@dataclass(frozen=True)
class SurrogateCalibration:
    """Accuracy landscape anchors for one dataset."""

    floor: float
    ceiling: float
    noise_sigma: float
    curve_power: float = 0.6

    def __post_init__(self) -> None:
        if not 0.0 < self.floor < self.ceiling <= 1.0:
            raise ValueError(
                f"need 0 < floor < ceiling <= 1, got "
                f"{self.floor}/{self.ceiling}"
            )
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.curve_power <= 0:
            raise ValueError(f"curve_power must be positive, got {self.curve_power}")


#: Per-dataset anchors.  MNIST endpoints reproduce Table 1 (99.42% for
#: the biggest nets, ~98.6% at the small end); CIFAR/ImageNet use a
#: comparable ~1.2-1.3 point spread, which is what keeps Figure 7(a)'s
#: losses below 1%.
CALIBRATIONS: dict[str, SurrogateCalibration] = {
    "mnist": SurrogateCalibration(floor=0.9825, ceiling=0.9945,
                                  noise_sigma=0.0005),
    "cifar10": SurrogateCalibration(floor=0.9050, ceiling=0.9180,
                                    noise_sigma=0.0010),
    "imagenet": SurrogateCalibration(floor=0.6950, ceiling=0.7080,
                                     noise_sigma=0.0015),
    # MobileNet-class space: same ~1.3-point spread as the ImageNet row,
    # anchored a notch higher (separable nets trade MACs, not ceiling).
    "mobilenet": SurrogateCalibration(floor=0.7050, ceiling=0.7180,
                                      noise_sigma=0.0015),
}


# A 1200-trial search evaluates at most 1,201 distinct architectures
# (one more with the min-latency fallback): the memo holds all of them.
@functools.lru_cache(maxsize=2048, typed=True)
def _fingerprint_noise(fingerprint: str, seed: int, sigma: float) -> float:
    """Reproducible N(0, sigma) noise keyed by architecture + seed.

    A pure function of its arguments, so each draw is memoised (keyed
    on all three, by type too, since ``seed`` is formatted into the
    digest): a search re-scores the architectures it keeps sampling,
    and each draw costs a SHA-256 digest and a fresh generator.  The
    memo is module-level rather than on the model because evaluators
    are pickled once per task into pool workers.
    """
    if sigma == 0.0:
        return 0.0
    digest = hashlib.sha256(f"{fingerprint}|{seed}".encode()).digest()
    raw = int.from_bytes(digest[:8], "little")
    rng = np.random.default_rng(raw)
    return float(rng.normal(0.0, sigma))


class SurrogateAccuracyModel:
    """Deterministic accuracy landscape over one search space.

    Parameters:
        space: the search space (bounds the MAC range used for the
            log-capacity normalisation).
        calibration: anchors; defaults to the entry for ``space.name``.
        seed: varies the per-architecture noise draw (a different seed
            simulates a different training run).
    """

    def __init__(
        self,
        space: SearchSpace,
        calibration: SurrogateCalibration | None = None,
        seed: int = 0,
    ):
        if calibration is None:
            try:
                calibration = CALIBRATIONS[space.name]
            except KeyError:
                known = ", ".join(sorted(CALIBRATIONS))
                raise KeyError(
                    f"no calibration for space {space.name!r} "
                    f"(known: {known}); pass one explicitly"
                )
        self.space = space
        self.calibration = calibration
        self.seed = seed
        self._log_min, self._log_max = self._mac_bounds(space)

    @staticmethod
    def _mac_bounds(space: SearchSpace) -> tuple[float, float]:
        """log-MAC range spanned by the space's extreme architectures.

        MACs are monotone in every per-layer choice, so the min/max
        architectures are the all-smallest / all-largest selections.
        """
        n = space.num_decisions
        smallest = space.decode([0] * n)
        largest = space.decode(
            [len(space.choices_at(s)) - 1 for s in range(n)]
        )
        lo, hi = smallest.total_macs, largest.total_macs
        if lo >= hi:
            raise ValueError(
                "degenerate search space: min and max architectures have "
                f"the same MAC count ({lo})"
            )
        return math.log(lo), math.log(hi)

    def capacity(self, architecture: Architecture) -> float:
        """Normalised log-capacity in [0, 1] within the space's MAC range."""
        log_macs = math.log(max(architecture.total_macs, 1))
        x = (log_macs - self._log_min) / (self._log_max - self._log_min)
        return min(1.0, max(0.0, x))

    def accuracy(self, architecture: Architecture) -> float:
        """Simulated validation accuracy of ``architecture``."""
        cal = self.calibration
        x = self.capacity(architecture)
        base = cal.floor + (cal.ceiling - cal.floor) * x**cal.curve_power
        noise = _fingerprint_noise(
            architecture.fingerprint(), self.seed, cal.noise_sigma
        )
        return min(1.0, max(0.0, base + noise))
