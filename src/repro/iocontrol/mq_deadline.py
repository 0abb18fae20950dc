"""MQ-Deadline with I/O priority classes (io.prio.class).

Re-implements the behaviour the paper measures in §IV-B and §VI:

* three per-class queues (realtime > best-effort > idle); requests whose
  group sets no class fall into best-effort, like the kernel;
* strict class gating at dispatch: a lower-class request dispatches only
  when no higher-class request is queued *or in flight* -- this is what
  produces the near-total starvation ("tens of KiB/s") of lower classes
  under a saturating realtime app (Fig. 2b);
* an aging timeout (``prio_aging_expire``) that lets a starved request
  dispatch anyway, bounding starvation;
* a serialized dispatch section (~2 us/request) that caps bandwidth at
  roughly 1.8 GiB/s of 4 KiB I/O regardless of CPU count (O2);
* **lock-affinity skew**: within a class, dispatch is FIFO -- but when
  many groups contend for the dispatch lock, acquisition is biased by a
  per-group affinity factor (cores topologically near the previous
  holder reacquire a contended spinlock cheaper). The skew strength
  grows with the number of contending groups, reproducing the fairness
  collapse past the CPU saturation point (O3). Scenarios with few
  groups see plain FIFO. The ablation bench toggles this off.
"""

from __future__ import annotations

import math
import random
import zlib
from collections import deque
from typing import Optional

from repro.cgroups.knobs import PrioClass
from repro.iocontrol.base import IoScheduler
from repro.iorequest import IoRequest

# Dispatch order: realtime, then best-effort, then idle.
_CLASS_ORDER = (PrioClass.REALTIME, PrioClass.BEST_EFFORT, PrioClass.IDLE)

# Requests whose group sets no class fall into best-effort, like the
# kernel. Keyed by both the enum member and its raw value so callers may
# pass either.
_EFFECTIVE_CLASS = {cls: cls for cls in _CLASS_ORDER}
_EFFECTIVE_CLASS.update({cls.value: cls for cls in _CLASS_ORDER})
_EFFECTIVE_CLASS[PrioClass.NONE] = PrioClass.BEST_EFFORT
_EFFECTIVE_CLASS[PrioClass.NONE.value] = PrioClass.BEST_EFFORT

# Lock-affinity skew ramps from zero below this many contending groups...
AFFINITY_MIN_GROUPS = 6
# ...to full strength after this many more.
AFFINITY_RAMP_GROUPS = 10


def group_affinity_unit(path: str) -> float:
    """Deterministic per-group affinity in [-1, 1] (stable across runs)."""
    return (zlib.crc32(path.encode()) / 0xFFFFFFFF) * 2.0 - 1.0


def affinity_strength(n_groups: int) -> float:
    """Contention-depth ramp: 0 for few groups, 1 for many."""
    return min(1.0, max(0.0, (n_groups - AFFINITY_MIN_GROUPS) / AFFINITY_RAMP_GROUPS))


class _ClassQueues:
    """Per-group FIFO subqueues of one priority class."""

    __slots__ = ("groups", "size")

    def __init__(self) -> None:
        self.groups: dict[str, deque[tuple[float, int, IoRequest]]] = {}
        self.size = 0

    def push(self, entry_time: float, seq: int, req: IoRequest) -> None:
        queue = self.groups.get(req.cgroup_path)
        if queue is None:
            queue = deque()
            self.groups[req.cgroup_path] = queue
        queue.append((entry_time, seq, req))
        self.size += 1

    def pop_from(self, path: str) -> IoRequest:
        queue = self.groups[path]
        _, _, req = queue.popleft()
        if not queue:
            del self.groups[path]
        self.size -= 1
        return req

    def oldest_group(self) -> Optional[str]:
        """Group whose head request arrived first (global FIFO order)."""
        best_path: Optional[str] = None
        best_seq = -1
        for path, queue in self.groups.items():
            seq = queue[0][1]
            if best_path is None or seq < best_seq:
                best_path = path
                best_seq = seq
        return best_path

    def oldest_entry_time(self) -> Optional[float]:
        best: Optional[float] = None
        for queue in self.groups.values():
            t = queue[0][0]
            if best is None or t < best:
                best = t
        return best


class MqDeadlineScheduler(IoScheduler):
    """Per-priority-class queues with anti-starvation aging."""

    name = "mq-deadline"
    lock_overhead_us = 2.1

    def __init__(
        self,
        prio_aging_expire_us: float = 2_000_000.0,
        affinity_sigma: float = 0.0,
        rng: Optional[random.Random] = None,
    ):
        if prio_aging_expire_us <= 0:
            raise ValueError("prio_aging_expire_us must be positive")
        self.prio_aging_expire_us = prio_aging_expire_us
        self.affinity_sigma = affinity_sigma
        self.rng = rng or random.Random(0)
        self._queues: dict[int, _ClassQueues] = {cls: _ClassQueues() for cls in _CLASS_ORDER}
        self._in_flight: dict[int, int] = {cls: 0 for cls in _CLASS_ORDER}
        self._seq = 0
        # Requests held across every class (the running sum of the
        # per-class sizes, read on every dispatch).
        self._queued = 0
        self._affinity_cache: dict[str, float] = {}

    @staticmethod
    def _effective_class(req: IoRequest) -> PrioClass:
        return _EFFECTIVE_CLASS[req.prio_class]

    def add(self, req: IoRequest) -> None:
        cls = self._effective_class(req)
        self._queues[cls].push(req.queued_time, self._seq, req)
        self._seq += 1
        self._queued += 1

    def _higher_busy(self, cls: PrioClass) -> bool:
        """Is any strictly higher class queued or in flight?"""
        for other in _CLASS_ORDER:
            if other >= cls:
                return False
            if self._queues[other].size or self._in_flight[other] > 0:
                return True
        return False

    def _affinity_weight(self, path: str) -> float:
        weight = self._affinity_cache.get(path)
        if weight is None:
            weight = math.exp(self.affinity_sigma * group_affinity_unit(path))
            self._affinity_cache[path] = weight
        return weight

    def _pick_group(self, queues: _ClassQueues) -> str:
        """FIFO normally; affinity-biased under deep group contention."""
        n_groups = len(queues.groups)
        strength = affinity_strength(n_groups) if self.affinity_sigma > 0 else 0.0
        if strength <= 0.0:
            path = queues.oldest_group()
            assert path is not None
            return path
        paths = list(queues.groups)
        weights = [self._affinity_weight(path) ** strength for path in paths]
        return self.rng.choices(paths, weights=weights, k=1)[0]

    def pop(self, now: float) -> tuple[Optional[IoRequest], Optional[float]]:
        # Aged requests dispatch regardless of class gating. Note the
        # comparison uses the same `oldest + expire` expression the
        # blocked branch reports as the retry deadline: writing it as
        # `now - oldest >= expire` rounds differently and can refuse to
        # dispatch exactly at the armed deadline, livelocking the
        # dispatch engine.
        for cls in _CLASS_ORDER:
            queues = self._queues[cls]
            if not queues.size:
                continue
            oldest = queues.oldest_entry_time()
            if oldest is not None and now >= oldest + self.prio_aging_expire_us:
                path = queues.oldest_group()
                assert path is not None
                req = queues.pop_from(path)
                self._in_flight[cls] += 1
                self._queued -= 1
                return req, None

        retry_at: Optional[float] = None
        for cls in _CLASS_ORDER:
            queues = self._queues[cls]
            if not queues.size:
                continue
            if self._higher_busy(cls):
                # Blocked by a higher class; it will dispatch at aging
                # expiry at the latest.
                oldest = queues.oldest_entry_time()
                assert oldest is not None
                deadline = oldest + self.prio_aging_expire_us
                retry_at = deadline if retry_at is None else min(retry_at, deadline)
                continue
            req = queues.pop_from(self._pick_group(queues))
            self._in_flight[cls] += 1
            self._queued -= 1
            return req, None
        return None, retry_at

    def on_complete(self, req: IoRequest) -> None:
        cls = self._effective_class(req)
        if self._in_flight[cls] > 0:
            self._in_flight[cls] -= 1

    def queued(self) -> int:
        return self._queued

    def snapshot(self) -> dict[str, float]:
        """Per-priority-class backlog and in-flight depth."""
        row: dict[str, float] = {"queued": float(self.queued())}
        for cls in _CLASS_ORDER:
            name = cls.name.lower()
            row[f"class.{name}.queued"] = float(self._queues[cls].size)
            row[f"class.{name}.in_flight"] = float(self._in_flight[cls])
        return row
