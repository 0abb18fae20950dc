"""Host-side resilience: retries, exponential backoff, watchdog timeouts.

The :class:`RetryCoordinator` sits between the :class:`~repro.core.host.Host`
completion path and the app layer and implements the
:class:`~repro.faults.plan.RetryPolicy` of the scenario's fault plan:

* a device completion that surfaces with ``req.failed`` set is retried
  (same request object resubmitted into the block layer after an
  exponential backoff with jitter) until ``max_attempts`` is exhausted,
  then delivered to the app as a failure;
* each attempt of an app-issued request can be guarded by a watchdog:
  if the attempt is still incomplete ``timeout_us`` after entering the
  block layer, it is *abandoned* — the original keeps consuming stack
  and device resources like a real timed-out NVMe command, but its
  eventual completion is dropped as stale — and a fresh clone (same
  ``submit_time``, so app-visible latency spans all attempts) is
  retried in its place.

All backoff/jitter draws come from the dedicated ``faults.retry`` RNG
stream, so retry placement never perturbs workload randomness and runs
stay bit-deterministic per seed. Counters live in :class:`FaultStats`
and surface through ``ScenarioSummary.fault_counters`` and the stack
sampler's ``faults.*`` rows.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.faults.plan import RetryPolicy
from repro.iorequest import IoRequest


def backoff_delay(policy: RetryPolicy, attempt: int, rng: random.Random) -> float:
    """Backoff (us) before ``attempt`` (the attempt about to be made).

    Attempt 2 waits ``backoff_base_us``, attempt 3 waits
    ``backoff_base_us * backoff_mult``, and so on; the result is scaled
    by a uniform ``1 ± jitter`` factor. A zero base yields zero delay
    without consuming a jitter draw, so disabling backoff does not shift
    the RNG stream.
    """
    if attempt < 2:
        raise ValueError("backoff applies from the second attempt onward")
    delay = policy.backoff_base_us * policy.backoff_mult ** (attempt - 2)
    if delay <= 0:
        return 0.0
    if policy.jitter:
        delay *= 1.0 + policy.jitter * (2.0 * rng.random() - 1.0)
    return delay


class FaultStats:
    """Lifetime failure accounting for one scenario run."""

    __slots__ = (
        "device_errors",
        "retries",
        "timeouts",
        "stale_completions",
        "failures_delivered",
        "backoff_us",
    )

    def __init__(self) -> None:
        self.device_errors = 0
        self.retries = 0
        self.timeouts = 0
        self.stale_completions = 0
        self.failures_delivered = 0
        self.backoff_us = 0.0

    def as_dict(self) -> dict[str, float]:
        """Counters keyed the way the sampler/summary expose them."""
        return {
            "device_errors": float(self.device_errors),
            "retries": float(self.retries),
            "timeouts": float(self.timeouts),
            "stale_completions": float(self.stale_completions),
            "failures_delivered": float(self.failures_delivered),
            "backoff_us": self.backoff_us,
        }


class RetryCoordinator:
    """Applies a :class:`RetryPolicy` to the host's completion path.

    The host calls :meth:`watch` whenever an app-issued request (or a
    retry of one) enters the block layer, and :meth:`resolve` when a
    device completion surfaces; ``resolve`` returns True only when the
    completion should be delivered normally. Everything else — dropping
    stale completions, scheduling backoff resubmissions via
    ``resubmit``, delivering exhausted requests via ``deliver_failure``,
    and notifying the throttle layer's degraded-mode counter via
    ``on_fault`` — happens inside the coordinator. Without error windows
    in its plan and without a watchdog the coordinator can never act,
    and the host calls neither method: it only reports the counters.
    """

    def __init__(
        self,
        sim,
        policy: RetryPolicy,
        rng: random.Random,
        resubmit: Callable[[IoRequest], None],
        deliver_failure: Callable[[IoRequest], None],
        on_fault: Optional[Callable[[IoRequest], None]] = None,
    ):
        self.sim = sim
        self.policy = policy
        self.rng = rng
        self.resubmit = resubmit
        self.deliver_failure = deliver_failure
        self.on_fault = on_fault or (lambda req: None)
        self.stats = FaultStats()

    # ------------------------------------------------------------------
    # Watchdog
    # ------------------------------------------------------------------
    def watch(self, req: IoRequest) -> None:
        """Arm the per-attempt watchdog for a request entering the stack."""
        if self.policy.timeout_us <= 0:
            return
        req.timeout_event = self.sim.schedule(
            self.policy.timeout_us, lambda: self._on_timeout(req)
        )

    def _on_timeout(self, req: IoRequest) -> None:
        """Abandon a stalled attempt; retry a clone or give up."""
        req.abandoned = True
        req.timeout_event = None
        self.stats.timeouts += 1
        self.on_fault(req)
        if req.attempts < self.policy.max_attempts:
            self._schedule_retry(req.clone_for_retry())
        else:
            # The original stays in flight (its completion will be dropped
            # as stale); the app sees the failure now, at watchdog expiry.
            req.failed = True
            req.complete_time = self.sim.now
            self.stats.failures_delivered += 1
            self.deliver_failure(req)

    # ------------------------------------------------------------------
    # Completion path
    # ------------------------------------------------------------------
    def resolve(self, req: IoRequest) -> bool:
        """Judge a surfacing completion; True means deliver it normally."""
        if req.abandoned:
            self.stats.stale_completions += 1
            return False
        if req.timeout_event is not None:
            self.sim.cancel(req.timeout_event)
            req.timeout_event = None
        if not req.failed:
            return True
        self.stats.device_errors += 1
        self.on_fault(req)
        if req.attempts < self.policy.max_attempts:
            # Reuse the object: the device is done with it, and keeping
            # identity preserves submit_time for app-visible latency.
            self._schedule_retry(req)
        else:
            req.complete_time = self.sim.now
            self.stats.failures_delivered += 1
            self.deliver_failure(req)
        return False

    def _schedule_retry(self, req: IoRequest) -> None:
        """Resubmit ``req`` as its next attempt after backoff."""
        req.attempts += 1
        req.failed = False
        self.stats.retries += 1
        delay = backoff_delay(self.policy, req.attempts, self.rng)
        self.stats.backoff_us += delay
        if delay > 0:
            self.sim.schedule(delay, lambda: self.resubmit(req))
        else:
            self.resubmit(req)
