"""io.cost: vtime-based work budgeting (blk-iocost) plus io.weight.

The controller follows the design of Heo et al.'s IOCost (ASPLOS'22) as
summarized in the paper's §IV-B:

* a **linear cost model** (``io.cost.model``) prices every request in
  *device microseconds*: a per-I/O coefficient (sequential or random,
  per direction) plus a per-page coefficient, derived from the six
  throughput parameters exactly as blk-iocost derives its coefficients;
* a **global virtual clock** ``vnow`` advances at ``vrate`` device-us per
  wall-us; each active cgroup owns a vtime and may dispatch only while
  its vtime stays within a margin of ``vnow``. A request charges
  ``abs_cost / hierarchical_weight_share`` to its group's vtime, so
  throughput is proportional to io.weight (D2/D3) and expensive ops
  (writes, large requests) consume proportionally more budget -- the
  reason io.cost handles mixed workloads where io.latency/io.max fail
  (O9) and also why it *prefers reads* in mixed read/write fairness
  (O5, Fig. 6b);
* a **QoS loop** (``io.cost.qos``): each period, completion-latency
  percentiles are compared against rlat/wlat; violations scale ``vrate``
  down and health scales it back up, clamped to the min/max percentages.
  A conservative model or a high ``min`` directly caps aggregate
  bandwidth (Fig. 5a's 1.26 GiB/s);
* **activation tracking**: only groups with recent I/O count toward the
  weight denominator, so a bursting group picks up its share within
  milliseconds (O10) -- in contrast to io.latency's 500 ms windows.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.cgroups.hierarchy import Cgroup, CgroupHierarchy
from repro.cgroups.knobs import IoCostModelParams, IoCostQosParams
from repro.iocontrol.base import ForwardFn, ThrottleLayer
from repro.iocontrol.weights import hierarchical_shares
from repro.iorequest import READ, IoRequest, OpType, Pattern
from repro.metrics.latency import percentile
from repro.sim.engine import Simulator

PAGE_SIZE = 4096


@dataclass(frozen=True)
class CostCoefficients:
    """Per-direction linear cost coefficients, in device-microseconds."""

    page_us: float
    rand_us: float
    seq_us: float


def cost_coefficients(params: IoCostModelParams) -> dict[OpType, CostCoefficients]:
    """Derive blk-iocost-style coefficients from the six model params.

    ``page_us`` comes from the bandwidth term; the per-I/O terms are the
    residual cost of a 4 KiB random/sequential op after the page cost.
    """
    coefs: dict[OpType, CostCoefficients] = {}
    for op, bps, seqiops, randiops in (
        (OpType.READ, params.rbps, params.rseqiops, params.rrandiops),
        (OpType.WRITE, params.wbps, params.wseqiops, params.wrandiops),
    ):
        page_us = 1e6 * PAGE_SIZE / bps if bps > 0 else 0.0
        rand_us = max(0.0, 1e6 / randiops - page_us) if randiops > 0 else 0.0
        seq_us = max(0.0, 1e6 / seqiops - page_us) if seqiops > 0 else 0.0
        coefs[op] = CostCoefficients(page_us=page_us, rand_us=rand_us, seq_us=seq_us)
    return coefs


def abs_cost_us(coefs: dict[OpType, CostCoefficients], req: IoRequest) -> float:
    """Absolute cost of one request at 100% vrate."""
    c = coefs[req.op]
    fixed = c.rand_us if req.pattern == Pattern.RANDOM else c.seq_us
    return fixed + c.page_us * (req.size / PAGE_SIZE)


class _GroupCostState:
    """Per-(cgroup, device) vtime state."""

    __slots__ = (
        "group",
        "path",
        "vtime",
        "pending",
        "in_flight",
        "last_active",
        "timer_armed",
        "timer_event",
        "window_charged",
        "pending_cost",
    )

    def __init__(self, group: Cgroup, vnow: float):
        self.group = group
        self.path = group.path
        self.vtime = vnow
        # Entries are (req, forward, abs_cost): the linear-model cost is
        # priced once at submission and travels with the request.
        self.pending: deque[tuple[IoRequest, ForwardFn, float]] = deque()
        self.in_flight = 0
        self.last_active = 0.0
        self.timer_armed = False
        self.timer_event = None
        # abs-cost admitted in the current period (donation bookkeeping).
        self.window_charged = 0.0
        # abs-cost of requests currently held back.
        self.pending_cost = 0.0


class IoCostController(ThrottleLayer):
    """blk-iocost for one device."""

    name = "io.cost"

    PERIOD_US = 50_000.0
    # Vtime budget window: how far ahead of vnow a group may run.
    MARGIN_PERIODS = 1.0
    # A group with no I/O for this long leaves the active set.
    IDLE_TIMEOUT_US = 20_000.0
    MIN_QOS_SAMPLES = 8
    VRATE_DOWN_STEP = 0.85
    VRATE_UP_STEP = 1.10

    def __init__(
        self,
        sim: Simulator,
        hierarchy: CgroupHierarchy,
        device_id: str,
        model: IoCostModelParams,
        qos: IoCostQosParams,
    ):
        self.sim = sim
        self.hierarchy = hierarchy
        self.device_id = device_id
        self.model = model
        self.qos = qos
        self.coefs = cost_coefficients(model)
        # abs_cost_us depends only on (op, pattern, size); workloads use a
        # handful of shapes, so each is priced once.
        self._cost_cache: dict[tuple, float] = {}
        self._margin_us = self.MARGIN_PERIODS * self.PERIOD_US
        self._vrate_min = qos.vrate_min_pct / 100.0
        self._vrate_max = qos.vrate_max_pct / 100.0
        self.vrate = min(max(1.0, self._vrate_min), self._vrate_max)
        self._vnow = 0.0
        self._vnow_stamp = 0.0
        self._states: dict[str, _GroupCostState] = {}
        self._active: set[str] = set()
        self._shares: dict[str, float] = {}
        self._effective_shares: dict[str, float] = {}
        self._window_read_lat: list[float] = []
        self._window_write_lat: list[float] = []
        self._throttled_in_window = False

    # ------------------------------------------------------------------
    # Virtual clock
    # ------------------------------------------------------------------
    def vnow(self) -> float:
        now = self.sim.now
        self._vnow += (now - self._vnow_stamp) * self.vrate
        self._vnow_stamp = now
        return self._vnow

    @property
    def margin(self) -> float:
        return self._margin_us

    def _set_vrate(self, vrate: float) -> None:
        self.vnow()  # fold accrued time at the old rate first
        self.vrate = min(max(vrate, self._vrate_min), self._vrate_max)

    def refresh_qos(self) -> None:
        """Re-read ``io.cost.qos`` from the hierarchy (online re-tuning).

        The qos parameters are normally captured once at construction;
        a userspace control plane (:mod:`repro.ctl`) that rewrites the
        root qos file mid-run calls this to make the new vrate window
        (and latency targets) take effect, re-clamping the current
        vrate exactly as the kernel does on a qos write.
        """
        qos = self.hierarchy.root.read_parsed("io.cost.qos", self.device_id)
        if qos is None:
            return
        self.qos = qos
        self._vrate_min = qos.vrate_min_pct / 100.0
        self._vrate_max = qos.vrate_max_pct / 100.0
        self._set_vrate(self.vrate)

    # ------------------------------------------------------------------
    # Activation / weights
    # ------------------------------------------------------------------
    def _state(self, path: str) -> _GroupCostState:
        state = self._states.get(path)
        if state is None:
            state = _GroupCostState(self.hierarchy.find(path), self.vnow())
            self._states[path] = state
        return state

    def _recompute_shares(self) -> None:
        active_groups = [self._states[path].group for path in self._active]
        self._shares = hierarchical_shares(active_groups, lambda g: float(g.io_weight()))
        # Until the next donation pass, effective shares follow weights.
        self._effective_shares = dict(self._shares)

    def _donate_surplus(self) -> None:
        """blk-iocost's hweight donation, as per-period water-filling.

        A group that used less than its weight share last period donates
        the surplus to constrained groups (proportionally to their
        weights), so a high-weight tenant with low demand does not
        strand the device. Guaranteed minimum: a group's effective share
        never drops below its weight share while it has demand.
        """
        if not self._active:
            return
        capacity = self.vrate * self.PERIOD_US
        if capacity <= 0:
            return
        demands = {}
        for path in self._active:
            state = self._states[path]
            demand = state.window_charged + state.pending_cost
            # A group that was budget-throttled clearly wants more than
            # it got; treat its demand as open-ended.
            if state.pending_cost > 0 or state.timer_armed:
                demand = math.inf
            demands[path] = demand
        weights = {path: max(self._shares.get(path, 0.0), 1e-9) for path in self._active}
        allocations = _water_fill(weights, demands, capacity)
        self._effective_shares = {
            path: max(alloc / capacity, 1e-6) for path, alloc in allocations.items()
        }

    def _activate(self, state: _GroupCostState) -> None:
        if state.path not in self._active:
            self._active.add(state.path)
            # A group (re)joining starts at vnow: no banked credit.
            state.vtime = max(state.vtime, self.vnow())
            self._recompute_shares()

    def _deactivate_idle(self) -> None:
        now = self.sim.now
        stale = [
            path
            for path in self._active
            if (state := self._states[path]).in_flight == 0
            and not state.pending
            and now - state.last_active > self.IDLE_TIMEOUT_US
        ]
        if stale:
            self._active.difference_update(stale)
            self._recompute_shares()

    def hweight_of(self, path: str) -> float:
        """Current hierarchical weight share of a group (0 if inactive)."""
        return self._shares.get(path, 0.0)

    def effective_share_of(self, path: str) -> float:
        """Share after surplus donation (0 if inactive)."""
        return self._effective_shares.get(path, 0.0)

    def pending(self) -> int:
        return sum(len(state.pending) for state in self._states.values())

    def snapshot(self) -> dict[str, float]:
        """vrate plus per-group budget state, like iocost_monitor.py."""
        row = super().snapshot()
        row["vrate_pct"] = self.vrate * 100.0
        row["active_groups"] = float(len(self._active))
        vnow = self.vnow()
        for path, state in self._states.items():
            # Positive debt: how far the group's vtime runs ahead of the
            # global clock (it will be throttled once past the margin).
            row[f"group.{path}.vtime_debt_us"] = state.vtime - vnow
            row[f"group.{path}.pending"] = float(len(state.pending))
            row[f"group.{path}.in_flight"] = float(state.in_flight)
            row[f"group.{path}.hweight_pct"] = self._shares.get(path, 0.0) * 100.0
            row[f"group.{path}.effective_share_pct"] = (
                self._effective_shares.get(path, 0.0) * 100.0
            )
        return row

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.sim.schedule(self.PERIOD_US, self._period_tick)

    def submit(self, req: IoRequest, forward: ForwardFn) -> None:
        state = self._states.get(req.cgroup_path)
        if state is None:
            state = self._state(req.cgroup_path)
        state.last_active = self.sim.now
        self._activate(state)
        key = (req.op, req.pattern, req.size)
        abs_cost = self._cost_cache.get(key)
        if abs_cost is None:
            abs_cost = self._cost_cache[key] = abs_cost_us(self.coefs, req)
        state.pending.append((req, forward, abs_cost))
        state.pending_cost += abs_cost
        self._drain(state)

    def on_complete(self, req: IoRequest) -> None:
        state = self._states.get(req.cgroup_path)
        if state is not None and state.in_flight > 0:
            state.in_flight -= 1
        # Block-layer completion latency, measured at device completion.
        latency = self.sim.now - req.queued_time
        if req.op == READ:
            self._window_read_lat.append(latency)
        else:
            self._window_write_lat.append(latency)

    def _drain(self, state: _GroupCostState) -> None:
        if state.timer_armed:
            return
        margin = self._margin_us
        effective_shares = self._effective_shares
        group_path = state.path
        sim = self.sim
        while state.pending:
            req, forward, abs_cost = state.pending[0]
            share = effective_shares.get(group_path, 0.0)
            if share <= 0.0:
                # Should not happen while pending I/O keeps the group
                # active; guard against a zero-weight configuration.
                share = 1e-6
            cost_v = abs_cost / share
            # vnow() inlined: fold wall time into the virtual clock.
            now = sim.now
            self._vnow += (now - self._vnow_stamp) * self.vrate
            self._vnow_stamp = now
            vnow = self._vnow
            if state.vtime < vnow - margin:
                state.vtime = vnow - margin
            if state.vtime + cost_v <= vnow + margin:
                state.vtime += cost_v
                state.pending.popleft()
                state.pending_cost = max(0.0, state.pending_cost - abs_cost)
                state.window_charged += abs_cost
                state.in_flight += 1
                req.abs_cost = abs_cost
                forward(req)
                continue
            # Over budget: wake up when vnow has advanced far enough.
            self._throttled_in_window = True
            deficit_v = state.vtime + cost_v - margin - vnow
            delay_us = max(1.0, deficit_v / self.vrate)
            state.timer_armed = True
            state.timer_event = self.sim.schedule(
                delay_us, lambda s=state: self._timer_fire(s)
            )
            return

    def _timer_fire(self, state: _GroupCostState) -> None:
        state.timer_armed = False
        state.timer_event = None
        self._drain(state)

    # ------------------------------------------------------------------
    # QoS control loop
    # ------------------------------------------------------------------
    def _period_tick(self) -> None:
        self._adjust_vrate()
        self._deactivate_idle()
        self._donate_surplus()
        for state in self._states.values():
            state.window_charged = 0.0
        self._window_read_lat.clear()
        self._window_write_lat.clear()
        self._throttled_in_window = False
        # Budget availability may have shifted; re-evaluate throttled
        # groups against their new effective shares.
        for path in self._active:
            state = self._states[path]
            if state.pending:
                if state.timer_event is not None:
                    self.sim.cancel(state.timer_event)
                    state.timer_event = None
                    state.timer_armed = False
                self._drain(state)
        self.sim.schedule(self.PERIOD_US, self._period_tick)

    def _qos_violated(self) -> bool:
        if not self.qos.enable:
            return False
        if self.qos.rlat_us > 0 and len(self._window_read_lat) >= self.MIN_QOS_SAMPLES:
            if percentile(self._window_read_lat, self.qos.rpct) > self.qos.rlat_us:
                return True
        if self.qos.wlat_us > 0 and len(self._window_write_lat) >= self.MIN_QOS_SAMPLES:
            if percentile(self._window_write_lat, self.qos.wpct) > self.qos.wlat_us:
                return True
        return False

    def _adjust_vrate(self) -> None:
        had_io = bool(self._window_read_lat or self._window_write_lat)
        if self._qos_violated():
            self._set_vrate(self.vrate * self.VRATE_DOWN_STEP)
        elif had_io and self.vrate < self._vrate_max:
            self._set_vrate(self.vrate * self.VRATE_UP_STEP)


def _water_fill(
    weights: dict[str, float],
    demands: dict[str, float],
    capacity: float,
) -> dict[str, float]:
    """Distribute ``capacity`` by weight, capped at each group's demand.

    Iterative water-filling: satisfied groups (demand below their
    proportional slice) are capped and removed; their surplus is
    redistributed among the rest by weight. Groups with open-ended
    demand absorb whatever remains.
    """
    allocations = {path: 0.0 for path in weights}
    remaining = capacity
    unsatisfied = dict(weights)
    while unsatisfied and remaining > 1e-9:
        total_weight = sum(unsatisfied.values())
        capped = []
        for path, weight in unsatisfied.items():
            slice_ = remaining * weight / total_weight
            headroom = demands[path] - allocations[path]
            if headroom <= slice_:
                capped.append((path, max(headroom, 0.0)))
        if not capped:
            for path, weight in unsatisfied.items():
                allocations[path] += remaining * weight / total_weight
            remaining = 0.0
            break
        for path, amount in capped:
            allocations[path] += amount
            remaining -= amount
            del unsatisfied[path]
    return allocations
