"""Surrogate-backed pair prediction for the fleet interference matrix.

The interference matrix costs C(N,2) measured pair scenarios; ROADMAP
item 1 caps that by measuring only a subset and letting a surrogate
stand in for the rest. :class:`SurrogatePairPredictor` implements the
``predictor=`` hook of :func:`repro.fleet.interference.build_matrix`:
for an unmeasured tenant pair it renders the exact pair scenario the
measurement *would* run, predicts both tenants' p99/bandwidth with the
model, and derives the two directional
:class:`~repro.fleet.interference.PairEffect` entries -- clamped
identically to the measured path and marked ``predicted=True`` so
downstream consumers can always tell estimate from measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fleet.interference import (
    MatrixSettings,
    PairEffect,
    STARVED_P99_US,
    TenantMeasure,
    pair_effect,
    pair_scenario,
)
from repro.fleet.spec import FleetSpec, TenantSpec
from repro.surrogate.features import featurize_rows
from repro.surrogate.model import SurrogateModel


@dataclass
class SurrogatePairPredictor:
    """Predicts directional pair effects from a fitted surrogate."""

    #: The fitted per-group performance model.
    model: SurrogateModel
    #: The fleet the matrix belongs to (scenario rendering context).
    fleet: FleetSpec
    #: Measurement settings matching the measured pairs' scenarios.
    settings: MatrixSettings
    #: Pairs predicted so far (telemetry).
    predicted_pairs: int = 0

    def predict_pair(
        self,
        first: TenantSpec,
        second: TenantSpec,
        solo: dict[str, TenantMeasure],
    ) -> tuple[PairEffect, PairEffect]:
        """The two directional effects of an unmeasured tenant pair.

        Renders the same scenario :func:`~repro.fleet.interference.
        pair_scenario` would measure, predicts each tenant's co-located
        delivery, and ratios it against the measured solo baseline
        through :func:`~repro.fleet.interference.pair_effect`, the
        measured path's clamps.
        """
        import numpy as np

        scenario = pair_scenario(self.fleet, first, second, self.settings)
        rows = np.asarray(featurize_rows(scenario, (first.cgroup, second.cgroup)))
        means, _ = self.model.predict(rows)
        effects = []
        for tenant, partner, prediction in (
            (first, second, means[0]),
            (second, first, means[1]),
        ):
            by_target = dict(zip(self.model.target_names, prediction.tolist()))
            shared = TenantMeasure(
                p99_us=min(STARVED_P99_US, max(0.0, by_target["p99_us"])),
                bandwidth_mib_s=max(0.0, by_target["bandwidth_mib_s"]),
            )
            effects.append(
                pair_effect(
                    tenant.name, partner.name, solo[tenant.name], shared, predicted=True
                )
            )
        self.predicted_pairs += 1
        return effects[0], effects[1]

    def __call__(
        self,
        first: TenantSpec,
        second: TenantSpec,
        solo: dict[str, TenantMeasure],
    ) -> tuple[PairEffect, PairEffect]:
        """The ``predictor=`` hook protocol of ``build_matrix``."""
        return self.predict_pair(first, second, solo)
