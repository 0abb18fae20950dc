"""Multi-SSD arrays.

The paper's scalability study (Fig. 4) round-robins batch apps over 1-7
SSDs. :class:`SsdArray` owns the devices and implements that app-to-device
assignment; each device gets its own scheduler instance downstream (as in
Linux, where I/O schedulers are per request queue).

Randomness convention: the array draws exclusively from named
:class:`~repro.sim.rng.RngStreams` streams — ``device`` for device
service noise (one stream shared by every device, preserving the
historical event order bit-for-bit) and ``fleet.placement`` for
randomized app-to-device assignment. Because both streams are derived
from the scenario seed by name, array behaviour is deterministic,
reproducible across refactors, and content-addressable by the exec
cache (the seed is a :class:`~repro.core.config.Scenario` field; no
free-floating ``random.Random`` can leak irreproducible state in).
"""

from __future__ import annotations

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.ssd.device import SimulatedNvmeDevice
from repro.ssd.model import SsdModel

#: Name of the stream randomized placement decisions draw from. Shared
#: with :mod:`repro.fleet.placement`, which uses the same stream name
#: for its seeded random baseline strategy.
PLACEMENT_STREAM = "fleet.placement"


class SsdArray:
    """A set of identical simulated NVMe devices."""

    def __init__(
        self,
        sim: Simulator,
        model: SsdModel,
        count: int,
        streams: RngStreams,
        preconditioned: bool = False,
    ):
        if count < 1:
            raise ValueError(f"device count must be >= 1, got {count}")
        self.model = model
        # One shared service-noise stream for all devices: per-device
        # streams would reorder every historical golden, and the shared
        # stream is consumed in deterministic event order anyway.
        device_rng = streams.stream("device")
        self.devices = [
            SimulatedNvmeDevice(sim, model, device_rng, index=i, preconditioned=preconditioned)
            for i in range(count)
        ]
        self._placement_rng = streams.stream(PLACEMENT_STREAM)

    def __len__(self) -> int:
        return len(self.devices)

    def __getitem__(self, index: int) -> SimulatedNvmeDevice:
        return self.devices[index]

    def device_for_app(self, app_index: int) -> int:
        """Round-robin device assignment, as in the paper's Fig. 4 setup."""
        return app_index % len(self.devices)

    def random_device_for_app(self) -> int:
        """A seeded-random device assignment (the fleet baseline policy).

        Draws from the named ``fleet.placement`` stream, so randomized
        assignment is a pure function of the scenario seed: two runs of
        the same scenario make identical draws, and the exec cache key
        (which covers the seed) remains sound.
        """
        return self._placement_rng.randrange(len(self.devices))
