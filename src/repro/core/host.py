"""The simulated host: wires apps, cgroups, knobs, CPUs and SSDs.

Request path (mirroring the Linux block layer):

  app issue -> CPU submit cost -> cgroup throttler (io.max / io.latency /
  io.cost or passthrough) -> scheduler (none / mq-deadline / bfq) ->
  serialized dispatch -> device (flash units + bus) -> CPU completion
  cost -> app sees completion.

The host also applies the io.cost deferred-timer latency under CPU
saturation (profile-driven, see :mod:`repro.cpu.model`) and routes
completions to the metrics collector.
"""

from __future__ import annotations

import dataclasses
import math
from functools import partial

from repro.cgroups.hierarchy import Cgroup, CgroupHierarchy
from repro.core.config import (
    BfqKnob,
    DynamicIoMaxKnob,
    IoCostKnob,
    IoLatencyKnob,
    IoMaxKnob,
    MqDeadlineKnob,
    Scenario,
)
from repro.cpu.accounting import CpuAccounting
from repro.cpu.cores import CoreSet
from repro.cpu.model import profile_for_knob
from repro.faults.injector import FaultInjector
from repro.faults.retry import RetryCoordinator
from repro.iocontrol.base import IoScheduler, PassthroughThrottle, ThrottleLayer
from repro.iocontrol.bfq import BfqScheduler
from repro.iocontrol.dispatch import DispatchEngine
from repro.iocontrol.iocost import IoCostController
from repro.iocontrol.iolatency import IoLatencyController
from repro.iocontrol.iomax import IoMaxController
from repro.iocontrol.mq_deadline import MqDeadlineScheduler
from repro.iocontrol.nonectl import NoneScheduler
from repro.iorequest import IoRequest, OpType, Pattern
from repro.metrics.collector import MetricsCollector, cgroup_stats
from repro.metrics.workconservation import WorkConservationProbe
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.ssd.array import SsdArray
from repro.workloads.generator import App


def _scaled_profile(profile, device_scale: float):
    """Scale per-I/O CPU costs by ``device_scale`` (identity at 1.0)."""
    if device_scale == 1.0:
        return profile
    return dataclasses.replace(
        profile,
        cost_qd1_us=profile.cost_qd1_us * device_scale,
        cost_batched_us=profile.cost_batched_us * device_scale,
    )


class Host:
    """One fully wired simulation instance for a scenario."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.sim = Simulator()
        self.rngs = RngStreams(scenario.seed)
        self.hierarchy = CgroupHierarchy()
        self.collector = MetricsCollector()
        # device_scale slows the device AND the per-I/O host costs by the
        # same factor so that every bottleneck (flash, bus, CPU, dispatch
        # lock) shrinks uniformly: relative saturation points -- the shape
        # the experiments compare -- are preserved while the event count
        # drops. Latency-sensitive studies should run at scale 1.
        self.profile = _scaled_profile(
            profile_for_knob(scenario.knob.profile_name), scenario.device_scale
        )

        ssd_model = scenario.ssd_model.scaled(scenario.device_scale)
        self.ssd_model = ssd_model
        self.devices = SsdArray(
            self.sim,
            ssd_model,
            scenario.num_devices,
            self.rngs,
            preconditioned=scenario.preconditioned,
        )
        self.core_set = CoreSet(self.sim, scenario.cores)
        self.accounting = CpuAccounting(self.core_set, self.profile)
        # The per-I/O CPU costs depend only on an app's queue depth, so
        # each app's are priced once; writeback completes at batched cost.
        self._complete_cost_us = {
            spec.name: self.profile.complete_cost_us(spec.queue_depth)
            for spec in scenario.apps
        }
        self._writeback_complete_cost_us = self.profile.complete_cost_us(256)

        self._build_cgroups()
        scenario.knob.configure(self.hierarchy, scenario.device_ids())
        self.throttles = [
            self._make_throttle(device_index)
            for device_index in range(scenario.num_devices)
        ]
        self.schedulers = [
            self._make_scheduler() for _ in range(scenario.num_devices)
        ]
        self.engines = [
            DispatchEngine(
                self.sim,
                self.schedulers[i],
                self.devices[i],
                self.core_set,
                on_complete=self._on_device_complete,
            )
            for i in range(scenario.num_devices)
        ]
        self.apps = self._build_apps()
        self.page_caches = self._build_page_caches()
        # Per-device request-path targets, bound once: the block-layer
        # entry (the dispatch engine itself behind a passthrough
        # throttle) and the throttle's completion hook (None when it is
        # the base class's no-op).
        self._block_entries = [
            engine.submit
            if isinstance(throttle, PassthroughThrottle)
            else partial(throttle.submit, forward=engine.submit)
            for throttle, engine in zip(self.throttles, self.engines)
        ]
        self._throttle_completes = [
            None
            if type(throttle).on_complete is ThrottleLayer.on_complete
            else throttle.on_complete
            for throttle in self.throttles
        ]
        self._any_buffered = any(not spec.direct for spec in self.scenario.apps)
        self._saturated_extra = self.profile.saturated_extra_latency_us
        self.iomax_managers = self._build_iomax_managers()
        self.injectors, self.coordinator = self._build_faults()
        # The coordinator acts only on device errors and watchdog
        # timeouts. A plan with neither keeps it for its (zero) counters,
        # and the request path never calls it.
        faults = scenario.faults
        self._retries = (
            self.coordinator
            if faults is not None and (faults.errors or faults.retry.timeout_us > 0)
            else None
        )
        # What follows a submission's CPU cost, picked once per scenario:
        # straight into the block layer unless a buffered app or the
        # retry coordinator needs a look first, or io.cost's saturation
        # delay alone does.
        if self._any_buffered or self._retries is not None:
            self._after_submit = self._after_submit_cpu
        elif self._saturated_extra > 0:
            self._after_submit = self._after_submit_cpu_iocost
        else:
            self._after_submit = self._after_submit_cpu_direct
        self._iocost_timer = (
            self.rngs.stream("iocost.timer") if self._saturated_extra > 0 else None
        )
        self.tracer, self.sampler = self._build_observability()
        self.ctl_plane, self.ctl_sampler = self._build_ctl()
        # run()'s repro.prof.SimProfile when scenario.prof is set, else
        # None (self.profile is the knob's CPU cost profile).
        self.sim_profile = None
        self.wc_probes = [
            WorkConservationProbe(
                self.sim,
                device_idle=self.devices[i].has_idle_capacity,
                pending_requests=lambda i=i: (
                    self.throttles[i].pending() + self.schedulers[i].queued()
                ),
            )
            for i in range(scenario.num_devices)
        ]
        for throttle in self.throttles:
            throttle.start()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_cgroups(self) -> None:
        for spec in self.scenario.apps:
            group = self.hierarchy.create(spec.cgroup_path, processes=True)
            group.add_process(spec.name)

    def _make_scheduler(self) -> IoScheduler:
        scheduler = self._build_scheduler()
        if self.scenario.device_scale != 1.0:
            # Instance attribute shadows the class constant: the dispatch
            # lock slows down with the rest of the host.
            scheduler.lock_overhead_us = (
                scheduler.lock_overhead_us * self.scenario.device_scale
            )
        return scheduler

    def _build_scheduler(self) -> IoScheduler:
        knob = self.scenario.knob
        if isinstance(knob, MqDeadlineKnob):
            return MqDeadlineScheduler(
                prio_aging_expire_us=knob.prio_aging_expire_us,
                affinity_sigma=self.profile.saturation_unfairness_sigma,
                rng=self.rngs.stream("sched.mq-deadline"),
            )
        if isinstance(knob, BfqKnob):
            cache: dict[str, Cgroup] = {}

            def bfq_weight_of(path: str) -> float:
                group = cache.get(path)
                if group is None:
                    group = self.hierarchy.find(path)
                    cache[path] = group
                return float(group.bfq_weight())

            return BfqScheduler(
                weight_of=bfq_weight_of,
                slice_idle_us=knob.slice_idle_us,
                slice_budget_bytes=knob.slice_budget_bytes,
                slice_timeout_us=knob.slice_timeout_us,
                affinity_sigma=self.profile.saturation_unfairness_sigma,
            )
        return NoneScheduler()

    def _make_throttle(self, device_index: int) -> ThrottleLayer:
        knob = self.scenario.knob
        device_id = self.scenario.device_ids()[device_index]
        if isinstance(knob, (IoMaxKnob, DynamicIoMaxKnob)):
            return IoMaxController(self.sim, self.hierarchy, device_id)
        if isinstance(knob, IoLatencyKnob):
            return IoLatencyController(
                self.sim,
                self.hierarchy,
                device_id,
                max_qd=self.ssd_model.nvme_max_qd,
            )
        if isinstance(knob, IoCostKnob):
            return IoCostController(
                self.sim,
                self.hierarchy,
                device_id,
                model=knob.resolve_model(self.ssd_model),
                qos=knob.qos,
            )
        return PassthroughThrottle()

    def _build_apps(self) -> dict[str, App]:
        apps: dict[str, App] = {}
        for app_index, spec in enumerate(self.scenario.apps):
            self.collector.register_app(spec.name, spec.cgroup_path)
            # io.prio.class is not inheritable: read it from the app's
            # own (process) group only.
            prio = int(self.hierarchy.find(spec.cgroup_path).prio_class())
            app = App(
                self.sim,
                spec,
                submit=partial(self._submit, self.profile.submit_cost_us(spec.queue_depth)),
                rng=self.rngs.stream(f"app.{spec.name}"),
                device_index=self.devices.device_for_app(app_index),
                prio_class=prio,
            )
            apps[spec.name] = app
        return apps

    def _build_iomax_managers(self):
        """Control loops for DynamicIoMaxKnob scenarios."""
        knob = self.scenario.knob
        if not isinstance(knob, DynamicIoMaxKnob):
            return []
        from repro.iocontrol.dynamic_iomax import DynamicIoMaxManager
        from repro.iorequest import KIB, OpType, Pattern

        max_read_bps = self.ssd_model.saturation_bandwidth_bps(
            OpType.READ, Pattern.RANDOM, 4 * KIB
        )
        return [
            DynamicIoMaxManager(
                self.sim,
                self.hierarchy,
                self.throttles[index],
                weights={path: float(w) for path, w in knob.weights.items()},
                max_read_bps=max_read_bps / self.scenario.num_devices,
                bytes_completed_of=self.collector.lifetime_bytes_of_cgroup,
                device_id=self.scenario.device_ids()[index],
                adjust_period_us=knob.adjust_period_us,
                idle_floor_fraction=knob.idle_floor_fraction,
            )
            for index in range(self.scenario.num_devices)
        ]

    def _build_faults(self):
        """Fault runtime per ``scenario.faults`` (([], None) when off).

        Like observability, fault hooks cost nothing when unconfigured:
        no injector is attached to any device and the completion path
        never consults a coordinator. With a plan, each device gets its
        own injector fed by a dedicated ``faults.dev<i>`` RNG stream and
        the host gets one :class:`RetryCoordinator` on the ``faults.
        retry`` stream, so fault placement never perturbs workload or
        device-noise randomness.
        """
        plan = self.scenario.faults
        if plan is None:
            return [], None
        plan = plan.scaled(self.scenario.device_scale)
        injectors = []
        if plan.device_faults:
            for i in range(len(self.devices)):
                injector = FaultInjector(
                    self.sim,
                    self.devices[i],
                    plan,
                    self.rngs.stream(f"faults.dev{i}"),
                )
                self.devices[i].injector = injector
                injectors.append(injector)
        coordinator = RetryCoordinator(
            self.sim,
            plan.retry,
            self.rngs.stream("faults.retry"),
            resubmit=self._enter_block_layer,
            deliver_failure=self._deliver_failure,
            on_fault=self._on_fault,
        )
        return injectors, coordinator

    def _build_observability(self):
        """Tracer + sampler per ``scenario.trace`` (both None when off).

        Hooks are composed at construction time -- the tracer wraps the
        collector's completion handler, the sampler is an independent
        periodic event chain -- so a scenario without a TraceConfig runs
        the exact un-instrumented hot path.
        """
        config = self.scenario.trace
        if config is None:
            return None, None
        from repro.obs.sampler import StackSampler
        from repro.obs.span import RequestTracer

        tracer = None
        if config.spans:
            tracer = RequestTracer(max_spans=config.max_spans)
            self.collector.attach_tracer(tracer)
        sampler = None
        if config.sampling:
            sampler = StackSampler(
                self.sim, config.sample_period_us, self._observability_snapshot()
            )
        return tracer, sampler

    def _build_ctl(self):
        """Control plane per ``scenario.ctl`` ((None, None) when off).

        The plane gets a *dedicated* non-retaining sampler built on a
        second :meth:`_observability_snapshot` closure, so its iostat and
        flash-utilization cursors are independent of the observability
        sampler's -- attaching a control plane never perturbs what
        ``scenario.trace`` records (and vice versa). Which controller is
        attached follows the scenario's knob type: io.max gets the PID
        cap loop, io.cost the vrate nudger, io.latency the QD-limit
        adapter; any other knob (including DynamicIoMaxKnob, which is
        its own self-driving controller) runs the plane observe-only --
        SLO drift is scored and traced but nothing actuates.
        """
        config = self.scenario.ctl
        if config is None:
            return None, None
        from repro.ctl.plane import ControlPlane
        from repro.obs.sampler import StackSampler

        slo = config.slo
        if slo.utilization_floor is not None and slo.utilization_reference_mib_s is None:
            from repro.tune.slo import utilization_reference_mib_s

            slo = dataclasses.replace(
                slo,
                utilization_reference_mib_s=utilization_reference_mib_s(
                    self.scenario.ssd_model
                ),
            )
        plane = ControlPlane(
            self.sim,
            config,
            slo,
            self._build_ctl_controllers(config),
            window_stats=partial(cgroup_stats, self.collector.logs.values()),
            device_scale=self.scenario.device_scale,
        )
        sampler = StackSampler(
            self.sim,
            config.sample_period_us,
            self._observability_snapshot(),
            retain=False,
        )
        sampler.subscribe(plane.on_sample)
        return plane, sampler

    def _build_ctl_controllers(self, config):
        """The knob-matched controller list for the control plane."""
        from repro.ctl.controllers import (
            PidIoMaxController,
            QdLimitController,
            VrateController,
        )
        from repro.iorequest import KIB

        knob = self.scenario.knob
        device_ids = self.scenario.device_ids()
        if isinstance(knob, IoMaxKnob):
            params = config.iomax
            group = params.group
            if group is None:
                if len(knob.limits) != 1:
                    raise ValueError(
                        "IoMaxCtlParams.group is required when the knob does "
                        "not cap exactly one cgroup"
                    )
                group = next(iter(knob.limits))
            max_read_bps = self.ssd_model.saturation_bandwidth_bps(
                OpType.READ, Pattern.RANDOM, 4 * KIB
            ) / self.scenario.num_devices
            initial = params.initial_fraction
            if initial is None:
                static = knob.limits.get(group, {}).get("rbps")
                initial = (
                    static / max_read_bps
                    if static is not None and not math.isinf(static)
                    else params.ceiling_fraction
                )
            return [
                PidIoMaxController(
                    self.sim,
                    self.hierarchy,
                    self.throttles,
                    device_ids,
                    group=group,
                    params=params,
                    max_read_bps=max_read_bps,
                    initial_fraction=initial,
                    period_us=config.period_us,
                )
            ]
        if isinstance(knob, IoCostKnob):
            return [
                VrateController(
                    self.sim,
                    self.hierarchy,
                    self.throttles,
                    device_ids,
                    qos=knob.qos,
                    params=config.vrate,
                    period_us=config.period_us,
                )
            ]
        if isinstance(knob, IoLatencyKnob):
            if not knob.targets_us:
                raise ValueError(
                    "a ctl-managed IoLatencyKnob needs at least one target"
                )
            # Adapt the *protected* group's target -- the one with the
            # tightest static setting, matching blk-iolatency's victim.
            group = min(knob.targets_us, key=knob.targets_us.get)
            return [
                QdLimitController(
                    self.sim,
                    self.hierarchy,
                    self.throttles,
                    device_ids,
                    group=group,
                    params=config.qdlimit,
                    initial_target_us=knob.targets_us[group],
                    period_us=config.period_us,
                )
            ]
        return []

    def _observability_snapshot(self):
        """Build the sampler's per-tick snapshot function.

        The closure keeps per-device busy-integral cursors so flash
        utilization is reported per sampling interval (not lifetime).
        """
        iostat = self.collector.iostat_cursor()
        flash_cursor = [0.0] * len(self.devices)
        last_tick = [0.0]

        def snapshot() -> dict[str, float]:
            now = self.sim.now
            row: dict[str, float] = {
                "engine.pending_events": float(self.sim.pending_events()),
                "engine.events_processed": float(self.sim.events_processed),
            }
            for i in range(len(self.devices)):
                device = self.devices[i]
                throttle = self.throttles[i]
                scheduler = self.schedulers[i]
                prefix = f"dev{i}."
                row[prefix + "throttle.pending"] = float(throttle.pending())
                for key, value in throttle.snapshot().items():
                    row[f"{prefix}{throttle.name}.{key}"] = value
                for key, value in scheduler.snapshot().items():
                    row[f"{prefix}sched.{key}"] = value
                for key, value in device.snapshot().items():
                    row[f"{prefix}ssd.{key}"] = value
                integral = device.flash.busy_integral()
                elapsed = now - last_tick[0]
                if elapsed > 0:
                    span = elapsed * device.model.parallelism
                    row[prefix + "ssd.flash_util"] = (
                        integral - flash_cursor[i]
                    ) / span
                flash_cursor[i] = integral
            if self.coordinator is not None:
                for key, value in self.coordinator.stats.as_dict().items():
                    row[f"faults.{key}"] = value
            for i, injector in enumerate(self.injectors):
                for key, value in injector.snapshot().items():
                    row[f"dev{i}.faults.{key}"] = value
            row.update(iostat.advance())
            last_tick[0] = now
            return row

        return snapshot

    def _build_page_caches(self):
        """One page cache per device, when any app runs buffered I/O."""
        if all(spec.direct for spec in self.scenario.apps):
            return []
        from repro.fs.pagecache import PageCache, PageCacheConfig

        config = self.scenario.page_cache or PageCacheConfig()
        return [
            PageCache(
                self.sim,
                self.rngs.stream(f"pagecache.{index}"),
                config,
                submit_direct=self._route_to_block_layer,
                device_index=index,
            )
            for index in range(self.scenario.num_devices)
        ]

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _submit(self, cost_us: float, req: IoRequest) -> None:
        """An app issued ``req``; each app's submit cost is bound in."""
        self.core_set.charge(cost_us, self._after_submit, req)

    def _route_to_block_layer(self, req: IoRequest) -> None:
        """Entry below the page cache: straight into cgroup throttling."""
        self._enter_block_layer(req)

    def _enter_block_layer(self, req: IoRequest) -> None:
        """The single entry into cgroup throttling.

        All three producers converge here: direct app submissions,
        page-cache writeback, and retry resubmissions from the fault
        coordinator. When the scenario's retry policy arms a watchdog,
        the per-attempt timeout starts at this point — covering
        throttle hold, scheduler queueing and device time, like the
        kernel's request timeout. Writeback requests are exempt: no app
        is waiting on them and the cache has its own completion
        bookkeeping.
        """
        retries = self._retries
        if retries is not None and req.app_name in self.apps:
            retries.watch(req)
        self._block_entries[req.device_index](req)

    def _after_submit_cpu_direct(self, req: IoRequest) -> None:
        """Submit CPU paid, nothing in between: into the block layer."""
        self._block_entries[req.device_index](req)

    def _after_submit_cpu_iocost(self, req: IoRequest) -> None:
        """Submit CPU paid, only io.cost's timer lag to check: the block layer."""
        if self.core_set.is_saturated():
            self._lag_iocost_timer(req)
        else:
            self._block_entries[req.device_index](req)

    def _after_submit_cpu(self, req: IoRequest) -> None:
        """Submit CPU paid: page cache, io.cost timer lag, then the block layer."""
        if self._any_buffered:
            app = self.apps.get(req.app_name)
            if app is not None and not app.spec.direct:
                cache = self.page_caches[req.device_index]
                cache.submit_buffered(req, self._finish)
                return
        if self._saturated_extra > 0 and self.core_set.is_saturated():
            self._lag_iocost_timer(req)
        else:
            self._enter_block_layer(req)

    def _lag_iocost_timer(self, req: IoRequest) -> None:
        """Enter the block layer after io.cost's timer lag.

        io.cost defers work to per-period timers; under CPU saturation
        those timers lag, inflating latency (O1).
        """
        delay = self._saturated_extra * (0.5 + self._iocost_timer.random())
        self.sim.schedule(delay, lambda: self._enter_block_layer(req))

    def _on_device_complete(self, req: IoRequest) -> None:
        throttle_complete = self._throttle_completes[req.device_index]
        if throttle_complete is not None:
            throttle_complete(req)
        # Kernel-side requests (writeback) complete at batched cost.
        cost = self._complete_cost_us.get(req.app_name, self._writeback_complete_cost_us)
        self.core_set.charge(cost, self._finish, req)

    def _finish(self, req: IoRequest) -> None:
        retries = self._retries
        if retries is not None and not retries.resolve(req):
            # Stale (watchdog-abandoned), retried, or delivered as a
            # failure — the coordinator handled it; nothing reaches the
            # metrics layer.
            return
        req.complete_time = self.sim.now
        self.accounting.on_io_complete()
        app = self.apps.get(req.app_name)
        if app is None:
            # Page-cache writeback chunk: hand back to its cache.
            self.page_caches[req.device_index].on_writeback_complete(req)
            return
        self.collector.on_complete(req)
        app.on_complete(req)

    def _on_fault(self, req: IoRequest) -> None:
        """Degraded-mode accounting: bump the admitting controller."""
        self.throttles[req.device_index].on_fault(req)

    def _deliver_failure(self, req: IoRequest) -> None:
        """Hand an exhausted request back as a failure.

        Failed requests never reach the metrics collector — latency and
        bandwidth series describe successful I/O only; failures live in
        ``FaultStats`` / ``ScenarioSummary.fault_counters``. A failed
        writeback chunk is returned to its page cache as done (data-loss
        modelling is out of scope) so dirty-page accounting cannot leak.
        """
        app = self.apps.get(req.app_name)
        if app is None:
            self.page_caches[req.device_index].on_writeback_complete(req)
            return
        app.on_complete(req)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def fault_counters(self) -> dict[str, float]:
        """Lifetime failure accounting (empty when no fault plan is set).

        Host-level counters (retries, timeouts, ...) are unprefixed;
        per-device injector counters are keyed ``dev<i>.<counter>``.
        """
        if self.coordinator is None:
            return {}
        counters = self.coordinator.stats.as_dict()
        for i, injector in enumerate(self.injectors):
            for key, value in injector.snapshot().items():
                counters[f"dev{i}.{key}"] = value
        return counters

    def ctl_counters(self) -> dict[str, float]:
        """Control-plane accounting (empty when no CtlConfig is set)."""
        if self.ctl_plane is None:
            return {}
        return self.ctl_plane.counters()

    def release(self) -> None:
        """Free this finished run by reference counting.

        A wired host is a web of reference cycles: components call the
        host and each other through bound methods, and the wheel's
        pending events call back into them. Left alone, a dropped run
        waits for the cyclic garbage collector, with every request
        still queued or in flight. A caller that drops a finished host
        calls this instead: it drops the pending events with their
        callbacks, the work queued on the CPU and device servers, the
        cgroup tree's child links, and then the host's own references.
        The host must not be used afterwards.
        """
        self.sim.release()
        self.core_set.server.release()
        for device in self.devices.devices:
            device.release()
        for group in list(self.hierarchy.groups()):
            group.children.clear()
        vars(self).clear()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Run the scenario to its configured duration."""
        for app in self.apps.values():
            app.start()
        for probe in self.wc_probes:
            probe.start()
        for manager in self.iomax_managers:
            manager.start()
        for injector in self.injectors:
            injector.start()
        if self.sampler is not None:
            self.sampler.start()
        if self.ctl_sampler is not None:
            self.ctl_sampler.start()

        def begin_measurement():
            self.accounting.begin_window()
            for probe in self.wc_probes:
                probe.reset()

        self.sim.schedule_at(self.scenario.warmup_us, begin_measurement)
        if self.scenario.prof is None:
            self.sim.run_until(self.scenario.duration_us)
            return
        # Self-profiling runs the same loop under cProfile: same events,
        # same order, bit-identical results (see repro.prof.profiler).
        from repro.prof.profiler import profile_run

        profile = profile_run(self.sim, self.scenario.duration_us)
        if self.tracer is not None:
            profile.counters["obs.spans"] = float(len(self.tracer.spans))
        if self.sampler is not None:
            profile.counters["obs.samples"] = float(len(self.sampler.samples))
        self.sim_profile = profile
