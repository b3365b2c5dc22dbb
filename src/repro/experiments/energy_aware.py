"""Energy-aware FNAS (extension: the paper's motivating metric).

The paper motivates FPGAs with "high performance *and energy
efficiency*" but only constrains latency.  This extension adds an
energy budget to the search: a child is pruned when *either* its
latency or its estimated inference energy violates its budget, and the
satisfaction reward gains a normalised energy-utilisation term, mirror-
symmetric to equation (1)'s latency term::

    R = (rL - L)/rL - 1                        latency violation
    R = (rE - E)/rE - 1                        energy violation
    R = (A - b) + 0.5 * (L/rL + E/rE)          both satisfied

The energy estimate reuses the analytical design: compute energy from
DSP-cycles, traffic energy from the schedule-free worst case (an upper
bound, so the guarantee direction is conservative).

The search is an :class:`~repro.core.search.FnasSearch` with its two
reward hooks overridden, so it batches, checkpoints and resumes like one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.controller import Controller
from repro.core.evaluator import AccuracyEvaluator
from repro.core.search import FnasSearch, SearchResult
from repro.core.search_space import SearchSpace
from repro.fpga.energy import EnergyModel
from repro.latency.estimator import LatencyEstimate, LatencyEstimator


@dataclass(frozen=True)
class EnergyAwareTrial:
    """Extra per-trial facts recorded by the energy-aware search."""

    index: int
    energy_mj: float
    energy_violated: bool
    latency_violated: bool


class EnergyAwareFnasSearch(FnasSearch):
    """FNAS with a joint latency + energy specification."""

    _kind = "fnas-e"

    def __init__(
        self,
        space: SearchSpace,
        evaluator: AccuracyEvaluator,
        latency_estimator: LatencyEstimator,
        required_latency_ms: float,
        required_energy_mj: float,
        controller: Controller | None = None,
        energy_model: EnergyModel | None = None,
        baseline_decay: float = 0.9,
    ):
        if required_latency_ms <= 0 or required_energy_mj <= 0:
            raise ValueError("latency and energy budgets must be positive")
        super().__init__(
            space, evaluator, latency_estimator, required_latency_ms,
            controller=controller, baseline_decay=baseline_decay,
        )
        self.required_energy_mj = required_energy_mj
        self.energy_model = (
            energy_model if energy_model is not None else EnergyModel()
        )

    def energy_of(self, estimate) -> float:
        """Analytical inference energy (mJ) of one latency estimate."""
        return self.energy_model.estimate(
            estimate.design, estimate.cycles).total_mj

    def energy_facts(self, result: SearchResult) -> list[EnergyAwareTrial]:
        """Per-trial energy facts of a ledger this search produced.

        Each trial's architecture is re-estimated; the estimator's
        architecture cache answers those for the children the run priced.
        """
        facts = []
        for trial in result.trials:
            estimate = self.latency_estimator.estimate(trial.architecture)
            energy = self.energy_of(estimate)
            facts.append(
                EnergyAwareTrial(
                    index=trial.index,
                    energy_mj=energy,
                    energy_violated=energy > self.required_energy_mj,
                    latency_violated=(
                        trial.latency_ms > self.required_latency_ms
                    ),
                )
            )
        return facts

    def _violation(self, estimate: LatencyEstimate) -> float | None:
        """Latency violation first, then energy; None when both hold."""
        latency_violation = super()._violation(estimate)
        if latency_violation is not None:
            return latency_violation
        re = self.required_energy_mj
        energy = self.energy_of(estimate)
        if energy > re:
            return (re - energy) / re - 1.0
        return None

    def _satisfaction(
        self, accuracy: float, estimate: LatencyEstimate, reference: float
    ) -> float:
        """Accuracy advantage plus both budgets' utilisation terms."""
        rl, re = self.required_latency_ms, self.required_energy_mj
        return (accuracy - reference
                + 0.5 * (estimate.ms / rl + self.energy_of(estimate) / re))

    def _result_name(self) -> str:
        return (f"fnas-e-{self.required_latency_ms:g}ms-"
                f"{self.required_energy_mj:g}mJ")

    def _snapshot_extras(self) -> dict:
        return {**super()._snapshot_extras(),
                "required_energy_mj": self.required_energy_mj}

    def _check_snapshot_compatible(self, snapshot: dict) -> None:
        super()._check_snapshot_compatible(snapshot)
        budget = snapshot.get("required_energy_mj")
        if budget is not None and budget != self.required_energy_mj:
            raise ValueError(
                f"checkpoint targets a {budget}mJ energy budget, this "
                f"search targets {self.required_energy_mj}mJ"
            )
