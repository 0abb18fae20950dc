"""Garbage-collection / write-amplification model.

Flash SSDs cannot overwrite in place: sustained random writes force the
FTL to relocate live data, multiplying internal write traffic by the
write-amplification factor (WAF). We model steady-state GC as *inline
amplification*: once the device is preconditioned, every host write
charges ``WAF x`` its nominal flash and bus cost. This reproduces the two
effects the paper relies on:

* sustained random-write bandwidth collapses to ``nominal / WAF``;
* reads queued behind amplified writes suffer interference, collapsing
  aggregate mixed read/write bandwidth (Fig. 6b).
"""

from __future__ import annotations

from repro.ssd.model import SsdModel


class GcState:
    """Tracks preconditioning and computes the current amplification.

    A fresh drive has spare erased blocks and no amplification; once the
    host has written ``precondition_bytes`` (or the scenario preconditions
    the drive explicitly, as the paper does before write experiments) the
    device reaches steady state and every write is amplified.
    """

    def __init__(
        self,
        model: SsdModel,
        preconditioned: bool = False,
        precondition_bytes: int = 4 * 1024 * 1024 * 1024,
    ):
        self.model = model
        self.enabled = model.gc_enabled
        self.preconditioned = preconditioned or not self.enabled
        self.precondition_bytes = precondition_bytes
        self.host_bytes_written = 0
        self.amplified_bytes = 0
        # Forced-GC storm state (repro.faults.GcStorm windows): extra
        # write amplification multiplied on top of the steady-state WAF
        # while at least one storm window is open.
        self._storm_mult = 1.0

    def precondition(self) -> None:
        """Force steady state (sequential fill + random overwrite, §III)."""
        self.preconditioned = True

    def on_write(self, size: int) -> None:
        """Account a host write; may flip the device into steady state."""
        self.host_bytes_written += size
        if self.write_amplification > 1.0:
            self.amplified_bytes += int(size * (self.write_amplification - 1.0))
        if not self.preconditioned and self.host_bytes_written >= self.precondition_bytes:
            self.preconditioned = True

    @property
    def write_amplification(self) -> float:
        """Current effective WAF (1.0 before steady state or for Optane).

        An open forced-GC storm window multiplies its ``extra_waf`` on
        top — even on a fresh or GC-less device, because a storm models
        the FTL relocating data *now*, not steady-state debt.
        """
        if not self.enabled or not self.preconditioned:
            return self._storm_mult
        return self.model.gc.write_amplification * self._storm_mult

    def begin_storm(self, extra_waf: float) -> None:
        """Open a forced-GC window (storms stack multiplicatively)."""
        self._storm_mult *= extra_waf

    def end_storm(self, extra_waf: float) -> None:
        """Close a forced-GC window opened with the same ``extra_waf``."""
        self._storm_mult /= extra_waf
        if abs(self._storm_mult - 1.0) < 1e-12:
            self._storm_mult = 1.0

    def amplify(self, cost_us: float) -> float:
        """Scale a write's service cost by the current amplification."""
        return cost_us * self.write_amplification

