"""io.max: static bandwidth/IOPS throttling (blk-throttle).

Each cgroup with an ``io.max`` entry for the device gets four token
buckets (rbps/wbps/riops/wiops). A request reserves tokens from every
applicable bucket of its group *and all ancestors* (cgroup limits apply
to the whole subtree) and is admitted after the longest computed wait --
exactly how blk-throttle schedules an over-budget bio.

Properties the paper measures: low overhead (O1), precise static caps
with no minimum guarantee (Fig. 2e), weighted fairness only when the
practitioner translates weights to limits (Q4), no work conservation
(O8: unused budget is not redistributed).
"""

from __future__ import annotations

import math

from repro.cgroups.hierarchy import Cgroup, CgroupHierarchy
from repro.cgroups.knobs import IoMaxLimits
from repro.iocontrol.base import ForwardFn, ThrottleLayer
from repro.iorequest import READ, IoRequest
from repro.sim.engine import Simulator
from repro.sim.resources import TokenBucket

# Token buckets allow this much burst, in microseconds of accrual.
_BURST_WINDOW_US = 10_000.0


class _GroupBuckets:
    """The four token buckets of one (cgroup, device) pair."""

    __slots__ = ("rbps", "wbps", "riops", "wiops")

    def __init__(self, limits: IoMaxLimits, now: float):
        self.rbps = self._bucket(limits.rbps, now)
        self.wbps = self._bucket(limits.wbps, now)
        self.riops = self._bucket(limits.riops, now)
        self.wiops = self._bucket(limits.wiops, now)

    @staticmethod
    def _bucket(limit_per_s: float, now: float) -> TokenBucket | None:
        if math.isinf(limit_per_s):
            return None
        rate_per_us = limit_per_s / 1e6
        return TokenBucket(rate_per_us, burst=rate_per_us * _BURST_WINDOW_US, start_time=now)

    def wait_us(self, req: IoRequest, now: float) -> float:
        if req.op == READ:
            bps, iops = self.rbps, self.riops
        else:
            bps, iops = self.wbps, self.wiops
        wait = 0.0
        if bps is not None:
            wait = max(wait, bps.reserve(req.size, now))
        if iops is not None:
            wait = max(wait, iops.reserve(1.0, now))
        return wait


class IoMaxController(ThrottleLayer):
    """blk-throttle for one device."""

    name = "io.max"

    def __init__(self, sim: Simulator, hierarchy: CgroupHierarchy, device_id: str):
        self.sim = sim
        self.hierarchy = hierarchy
        self.device_id = device_id
        # Buckets and ancestor chains are keyed by the path string, so
        # a request's admission walks plain dict lookups, no Cgroup.
        self._buckets: dict[str, _GroupBuckets | None] = {}
        self._chains: dict[str, tuple[str, ...]] = {}
        self._throttled_in_flight = 0
        self._generation = 0

    def _chain(self, path: str) -> tuple[str, ...]:
        """``path`` and its ancestors' paths, leaf first, kept in ``_chains``."""
        paths = []
        node: Cgroup | None = self.hierarchy.find(path)
        while node is not None:
            paths.append(node.path)
            node = node.parent
        chain = self._chains[path] = tuple(paths)
        return chain

    def _buckets_for(self, path: str) -> "_GroupBuckets | None":
        """The buckets of the group at ``path`` (None: unlimited), built once."""
        cached = self._buckets.get(path, _MISSING)
        if cached is not _MISSING:
            return cached
        limits = self.hierarchy.find(path).read_parsed("io.max", self.device_id)
        buckets = None
        if limits is not None and not limits.is_unlimited():
            buckets = _GroupBuckets(limits, self.sim.now)
        self._buckets[path] = buckets
        return buckets

    def invalidate(self) -> None:
        """Drop cached buckets after an io.max reconfiguration.

        Bumps the bucket generation: requests already sitting on the
        throttle queue re-reserve against the *new* limits when their
        old release fires, the way blk-throttle re-evaluates queued bios
        after a config write. Without this, a mid-run cap cut would leak
        -- the backlog would keep draining at the old rate alongside new
        arrivals reserving from a fresh bucket.
        """
        self._buckets.clear()
        self._generation += 1

    def _wait_for(self, req: IoRequest, now: float) -> float:
        """Longest wait across the group's and its ancestors' buckets."""
        wait = 0.0
        all_buckets = self._buckets
        chain = self._chains.get(req.cgroup_path) or self._chain(req.cgroup_path)
        for path in chain:
            buckets = all_buckets.get(path, _MISSING)
            if buckets is _MISSING:
                buckets = self._buckets_for(path)
            if buckets is not None:
                wait = max(wait, buckets.wait_us(req, now))
        return wait

    def submit(self, req: IoRequest, forward: ForwardFn) -> None:
        wait = self._wait_for(req, self.sim.now)
        if wait <= 0:
            forward(req)
        else:
            self._throttled_in_flight += 1
            generation = self._generation
            self.sim.schedule(wait, lambda: self._release(req, forward, generation))

    def _release(self, req: IoRequest, forward: ForwardFn, generation: int) -> None:
        if generation != self._generation:
            # The limits changed while this request was queued: re-reserve
            # under the current configuration and wait out any extra delay
            # (it stays counted as throttled until it actually dispatches).
            wait = self._wait_for(req, self.sim.now)
            if wait > 0:
                generation = self._generation
                self.sim.schedule(
                    wait, lambda: self._release(req, forward, generation)
                )
                return
        self._throttled_in_flight -= 1
        forward(req)

    def pending(self) -> int:
        return self._throttled_in_flight

    def snapshot(self) -> dict[str, float]:
        """Token levels of every limited group (negative = over budget)."""
        row = super().snapshot()
        row["throttled"] = float(self._throttled_in_flight)
        now = self.sim.now
        for path, buckets in self._buckets.items():
            if buckets is None:
                continue
            for key in ("rbps", "wbps", "riops", "wiops"):
                bucket = getattr(buckets, key)
                if bucket is not None:
                    row[f"group.{path}.{key}_tokens"] = bucket.tokens(now)
        return row


_MISSING = object()
