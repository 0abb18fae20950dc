"""Tenant placement strategies over an interference matrix.

Given a :class:`~repro.fleet.spec.FleetSpec` and a measured
:class:`~repro.fleet.interference.InterferenceMatrix`, :func:`place`
assigns every tenant to a device slot under the per-device capacity
bound, using one of three strategies:

* ``random`` — the null baseline: each tenant picks uniformly among
  slots with remaining capacity, drawing from the named
  :data:`~repro.ssd.array.PLACEMENT_STREAM` RNG stream so the result is
  a pure function of the seed.
* ``binpack`` — interference-*oblivious* first-fit decreasing: tenants
  sorted by solo bandwidth demand, packed into the first slot with
  capacity. The classic consolidation baseline; it minimizes devices
  used and maximizes co-location damage.
* ``serifos`` — interference-*aware* greedy consolidation in the style
  of Serifos: tenants are placed hardest-first (tightest p99 ceiling,
  then largest bandwidth demand), each onto the slot that minimizes the
  increase in predicted fleet SLO violation, followed by a
  load-balancing rebalance pass that relocates tenants while total
  predicted violation strictly improves.

All strategies then pass through :func:`enforce_saturation`: while any
device's predicted violation exceeds the fleet's
``saturation_threshold``, the pass migrates the worst offender to the
best other slot, and evicts it when no migration helps — mirroring how
a fleet scheduler sheds load it mispredicted. Every decision is
deterministic: same fleet, matrix and seed give byte-identical
placements at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fleet.interference import InterferenceMatrix, slo_violation
from repro.fleet.spec import FleetSpec
from repro.metrics.latency import seq_sum
from repro.sim.rng import RngStreams
from repro.ssd.array import PLACEMENT_STREAM
from repro.tune.slo import VIOLATION_CAP

#: The placement strategies ``isol-bench place --strategy`` accepts.
STRATEGIES = ("random", "binpack", "serifos")


@dataclass(frozen=True)
class Migration:
    """One saturation-pass action: a tenant moved or evicted."""

    #: The tenant that was moved.
    tenant: str
    #: Slot the tenant left.
    source: str
    #: Slot the tenant landed on; empty string for an eviction.
    dest: str
    #: Human-readable why (predicted violations before/after).
    reason: str

    def to_json_dict(self) -> dict:
        """Plain-dict form."""
        return {
            "tenant": self.tenant,
            "source": self.source,
            "dest": self.dest,
            "reason": self.reason,
        }


@dataclass
class Placement:
    """A complete tenant-to-slot assignment plus its decision record."""

    #: The fleet placed.
    fleet_name: str
    #: Strategy that produced the assignment.
    strategy: str
    #: Slot name -> tenants resident on that device (placement order).
    assignment: dict[str, tuple[str, ...]]
    #: Tenants that could not be placed (capacity) or were evicted.
    evicted: tuple[str, ...] = ()
    #: Saturation-pass actions, in the order they were taken.
    migrations: tuple[Migration, ...] = ()
    #: Total predicted SLO violation (devices + eviction penalties).
    predicted_violation: float = 0.0

    def residents(self, slot: str) -> tuple[str, ...]:
        """Tenants on one slot (empty tuple for an empty device)."""
        return self.assignment.get(slot, ())

    def slot_of(self, tenant: str) -> str | None:
        """The slot hosting a tenant, or None if evicted/unplaced."""
        for slot, names in self.assignment.items():
            if tenant in names:
                return slot
        return None

    def to_json_dict(self) -> dict:
        """Plain-dict form (slot order preserved for goldens)."""
        return {
            "fleet_name": self.fleet_name,
            "strategy": self.strategy,
            "assignment": {
                slot: list(names) for slot, names in self.assignment.items()
            },
            "evicted": list(self.evicted),
            "migrations": [m.to_json_dict() for m in self.migrations],
            "predicted_violation": self.predicted_violation,
        }


def device_violation(
    matrix: InterferenceMatrix, fleet: FleetSpec, residents: tuple[str, ...]
) -> float:
    """Predicted summed SLO violation of one device's resident set."""
    total = 0.0
    for name in residents:
        others = tuple(other for other in residents if other != name)
        measure = matrix.predicted(name, others)
        total += slo_violation(measure, fleet.tenant(name))
    return total


def eviction_penalty(fleet: FleetSpec, tenant: str) -> float:
    """The score an evicted tenant contributes: cap times its objectives.

    An eviction must never look cheaper than hosting the tenant badly,
    so it costs the :data:`~repro.tune.slo.VIOLATION_CAP` on every
    declared objective (minimum one, so even best-effort tenants are
    not dropped for free).
    """
    return VIOLATION_CAP * max(1, fleet.tenant(tenant).objective_count)


def total_predicted_violation(
    matrix: InterferenceMatrix,
    fleet: FleetSpec,
    assignment: dict[str, tuple[str, ...]],
    evicted: tuple[str, ...] = (),
) -> float:
    """Fleet-wide predicted violation: devices plus eviction penalties."""
    total = seq_sum(
        device_violation(matrix, fleet, residents)
        for residents in assignment.values()
    )
    total += seq_sum(eviction_penalty(fleet, name) for name in evicted)
    return total


@dataclass
class _State:
    """Mutable assignment under construction (internal to this module)."""

    fleet: FleetSpec
    matrix: InterferenceMatrix
    assignment: dict[str, list[str]] = field(default_factory=dict)
    evicted: list[str] = field(default_factory=list)
    migrations: list[Migration] = field(default_factory=list)

    def __post_init__(self) -> None:
        for slot in self.fleet.slots():
            self.assignment.setdefault(slot, [])

    def open_slots(self) -> list[str]:
        """Slots with remaining capacity, in fleet slot order."""
        cap = self.fleet.max_tenants_per_device
        return [
            slot
            for slot in self.fleet.slots()
            if len(self.assignment[slot]) < cap
        ]

    def violation_of(self, slot: str) -> float:
        """Predicted violation of one slot's current residents."""
        return device_violation(
            self.matrix, self.fleet, tuple(self.assignment[slot])
        )

    def delta_if_added(self, slot: str, tenant: str) -> float:
        """Predicted-violation increase from adding a tenant to a slot."""
        before = self.violation_of(slot)
        after = device_violation(
            self.matrix, self.fleet, tuple(self.assignment[slot]) + (tenant,)
        )
        return after - before

    def frozen(self, strategy: str) -> Placement:
        """The finished, immutable placement."""
        assignment = {
            slot: tuple(names) for slot, names in self.assignment.items()
        }
        evicted = tuple(self.evicted)
        return Placement(
            fleet_name=self.fleet.name,
            strategy=strategy,
            assignment=assignment,
            evicted=evicted,
            migrations=tuple(self.migrations),
            predicted_violation=total_predicted_violation(
                self.matrix, self.fleet, assignment, evicted
            ),
        )


def _demand(matrix: InterferenceMatrix, tenant: str) -> float:
    """A tenant's solo bandwidth demand (the bin-packing item size)."""
    return matrix.solo[tenant].bandwidth_mib_s


def _random_fill(state: _State, seed: int) -> None:
    """Uniform placement over open slots, seeded via the named stream."""
    rng = RngStreams(seed).stream(PLACEMENT_STREAM)
    for tenant in state.fleet.tenant_names():
        slots = state.open_slots()
        if not slots:
            state.evicted.append(tenant)
            continue
        state.assignment[slots[rng.randrange(len(slots))]].append(tenant)


def _binpack_fill(state: _State) -> None:
    """First-fit decreasing by solo bandwidth demand."""
    order = sorted(
        state.fleet.tenant_names(),
        key=lambda name: (-_demand(state.matrix, name), name),
    )
    for tenant in order:
        slots = state.open_slots()
        if not slots:
            state.evicted.append(tenant)
            continue
        state.assignment[slots[0]].append(tenant)


def _serifos_fill(state: _State) -> None:
    """Interference-aware greedy placement, hardest tenants first."""
    fleet = state.fleet

    def difficulty(name: str) -> tuple:
        tenant = fleet.tenant(name)
        p99 = tenant.p99_target_us
        # Tenants with a p99 ceiling place first (tightest first);
        # the rest by descending bandwidth demand.
        return (
            0 if p99 is not None else 1,
            p99 if p99 is not None else -_demand(state.matrix, name),
            name,
        )

    for tenant in sorted(fleet.tenant_names(), key=difficulty):
        slots = state.open_slots()
        if not slots:
            state.evicted.append(tenant)
            continue
        # Tie-break prefers the *fuller* slot: at equal predicted harm,
        # consolidate (that is what frees whole devices for the heavy
        # tenants still waiting in the queue), then slot order.
        best = min(
            slots,
            key=lambda slot: (
                state.delta_if_added(slot, tenant),
                -len(state.assignment[slot]),
                slot,
            ),
        )
        state.assignment[best].append(tenant)


def _rebalance(state: _State, max_moves: int | None = None) -> None:
    """Relocate tenants while total predicted violation strictly drops.

    Each round scans every (tenant, destination) pair in deterministic
    order and applies the single best strictly-improving move; rounds
    repeat until no move improves or ``max_moves`` (default: tenant
    count) is exhausted. Moves are recorded as :class:`Migration`
    entries with a ``rebalance`` reason.
    """
    fleet = state.fleet
    budget = max_moves if max_moves is not None else len(fleet.tenants)
    for _ in range(budget):
        best_gain = 0.0
        best_move: tuple[str, str, str] | None = None
        for source in fleet.slots():
            for tenant in list(state.assignment[source]):
                others = tuple(
                    name for name in state.assignment[source] if name != tenant
                )
                source_before = state.violation_of(source)
                source_after = device_violation(state.matrix, fleet, others)
                for dest in state.open_slots():
                    if dest == source:
                        continue
                    gain = (
                        source_before
                        - source_after
                        - state.delta_if_added(dest, tenant)
                    )
                    if gain > best_gain + 1e-12:
                        best_gain = gain
                        best_move = (tenant, source, dest)
        if best_move is None:
            return
        tenant, source, dest = best_move
        state.assignment[source].remove(tenant)
        state.assignment[dest].append(tenant)
        state.migrations.append(
            Migration(
                tenant=tenant,
                source=source,
                dest=dest,
                reason=f"rebalance: predicted violation -{best_gain:.3f}",
            )
        )


def enforce_saturation(state: _State) -> None:
    """Shed load from devices whose predicted violation saturates.

    While any device's predicted violation exceeds the fleet's
    ``saturation_threshold``: migrate the resident whose removal helps
    most to the best open slot if that strictly reduces total predicted
    violation; otherwise evict it (recorded, penalized in the fleet
    score). Bounded by the tenant count, so it always terminates.
    """
    fleet = state.fleet
    threshold = fleet.saturation_threshold
    for _ in range(len(fleet.tenants)):
        saturated = [
            slot for slot in fleet.slots() if state.violation_of(slot) > threshold
        ]
        if not saturated:
            return
        slot = max(saturated, key=lambda name: (state.violation_of(name), name))
        before = state.violation_of(slot)
        # The offender: the resident whose removal drops the device most.
        def remaining_violation(tenant: str) -> float:
            others = tuple(
                name for name in state.assignment[slot] if name != tenant
            )
            return device_violation(state.matrix, fleet, others)

        offender = min(
            state.assignment[slot],
            key=lambda name: (remaining_violation(name), name),
        )
        source_after = remaining_violation(offender)
        best_dest: str | None = None
        best_total_gain = 0.0
        for dest in state.open_slots():
            if dest == slot:
                continue
            gain = before - source_after - state.delta_if_added(dest, offender)
            if gain > best_total_gain + 1e-12:
                best_total_gain = gain
                best_dest = dest
        state.assignment[slot].remove(offender)
        if best_dest is not None:
            state.assignment[best_dest].append(offender)
            state.migrations.append(
                Migration(
                    tenant=offender,
                    source=slot,
                    dest=best_dest,
                    reason=(
                        f"saturation: device at {before:.3f} > "
                        f"{threshold:g}, migrated"
                    ),
                )
            )
        else:
            state.evicted.append(offender)
            state.migrations.append(
                Migration(
                    tenant=offender,
                    source=slot,
                    dest="",
                    reason=(
                        f"saturation: device at {before:.3f} > "
                        f"{threshold:g}, no improving slot, evicted"
                    ),
                )
            )


def place(
    fleet: FleetSpec,
    matrix: InterferenceMatrix,
    strategy: str,
    seed: int = 42,
) -> Placement:
    """Place every tenant with the named strategy.

    ``seed`` only affects the ``random`` strategy (via the
    ``fleet.placement`` RNG stream); ``binpack`` and ``serifos`` are
    deterministic functions of the fleet and matrix alone. All
    strategies run the saturation pass before the placement freezes.
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; options: {STRATEGIES}"
        )
    state = _State(fleet=fleet, matrix=matrix)
    if strategy == "random":
        _random_fill(state, seed)
    elif strategy == "binpack":
        _binpack_fill(state)
    else:
        _serifos_fill(state)
        _rebalance(state)
    enforce_saturation(state)
    return state.frozen(strategy)
