"""Parametric SSD performance model.

The device is modelled as two stations in series:

1. ``parallelism`` independent *flash units*, each charging a fixed,
   op-and-pattern-dependent access cost (this bounds small-request IOPS:
   ``IOPS_max = parallelism / fixed_cost``), then
2. a single shared *data bus* charging ``size / bus_bandwidth`` (this
   bounds large-request bandwidth).

This mirrors how the kernel's io.cost linear model decomposes device
capacity into per-I/O and per-byte terms, and produces the two saturation
regimes the paper measures (IOPS-bound at 4 KiB, bandwidth-bound at
64-256 KiB).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as _np

from repro.iorequest import GIB, OpType, Pattern


@dataclass(frozen=True)
class GcParams:
    """Garbage-collection behaviour of the flash translation layer.

    ``write_amplification`` is the total flash-write volume per byte of
    host write once the device is preconditioned; the excess
    ``(waf - 1) * size`` accumulates as *debt* that a background GC agent
    clears by occupying flash units and bus time, interfering with
    foreground I/O (the read/write-interference collapse of Fig. 6b).
    """

    write_amplification: float = 2.5
    # Debt level at which background GC kicks in / stops, in bytes.
    high_watermark_bytes: int = 8 * 1024 * 1024
    low_watermark_bytes: int = 1 * 1024 * 1024
    # GC moves data in chunks of this size.
    chunk_bytes: int = 256 * 1024

    def __post_init__(self) -> None:
        if self.write_amplification < 1.0:
            raise ValueError("write amplification must be >= 1")
        if self.low_watermark_bytes > self.high_watermark_bytes:
            raise ValueError("GC low watermark must not exceed high watermark")


@dataclass(frozen=True)
class SsdModel:
    """Static performance parameters of one simulated NVMe SSD."""

    name: str
    # Internal parallelism: number of flash units serving fixed costs.
    parallelism: int
    # Fixed per-request access cost (us) by (op, pattern).
    read_fixed_us: float
    write_fixed_us: float
    seq_read_fixed_us: float
    seq_write_fixed_us: float
    # Shared data-bus bandwidth, bytes/second, per direction.
    read_bus_bps: float
    write_bus_bps: float
    # NVMe queue bound: requests beyond this wait at the device boundary.
    nvme_max_qd: int = 1024
    # Multiplicative service-time noise: service = fixed * (base + tail),
    # tail ~ Exp(mean=noise_tail_mean). base + tail has mean 1.0 so the
    # model's nominal costs stay calibrated while P99 > mean.
    noise_base: float = 0.9
    noise_tail_mean: float = 0.1
    # Bus transfers are interleaved at this granularity: a large request
    # occupies the bus one segment at a time, so small requests slip in
    # between segments (NVMe interleaves transfers at MDTS/TLP
    # granularity; whole-request occupancy would add unrealistic
    # head-of-line blocking for 4 KiB reads behind 256 KiB writes).
    bus_segment_bytes: int = 32 * 1024
    gc: GcParams = field(default_factory=GcParams)
    # Whether sustained writes trigger GC at all (False for Optane-like
    # media, which has no erase-before-write asymmetry).
    gc_enabled: bool = True

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        for attr in ("read_fixed_us", "write_fixed_us", "seq_read_fixed_us", "seq_write_fixed_us"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")
        if self.read_bus_bps <= 0 or self.write_bus_bps <= 0:
            raise ValueError("bus bandwidth must be positive")
        if self.nvme_max_qd < 1:
            raise ValueError("nvme_max_qd must be >= 1")

    def fixed_cost_us(self, op: OpType, pattern: Pattern) -> float:
        """Flash-unit occupancy for one request, before noise."""
        if op == OpType.READ:
            return self.read_fixed_us if pattern == Pattern.RANDOM else self.seq_read_fixed_us
        return self.write_fixed_us if pattern == Pattern.RANDOM else self.seq_write_fixed_us

    def bus_cost_us(self, op: OpType, size: int) -> float:
        """Data-bus occupancy for one request."""
        bps = self.read_bus_bps if op == OpType.READ else self.write_bus_bps
        return size / bps * 1e6

    def batch_costs(
        self,
        ops: Sequence[OpType],
        patterns: Sequence[Pattern],
        sizes: Sequence[int],
    ) -> tuple[list[float], list[float], list[int], list[float]]:
        """Evaluate per-request service costs for a batch of submissions.

        Returns ``(fixed_us, bus_us, segments, per_segment_us)`` aligned
        with the inputs, where ``segments`` is the bus interleaving plan
        (``ceil(size / bus_segment_bytes)``, at least 1) and
        ``per_segment_us = bus_us / segments``.

        The numpy path performs the *same IEEE-754 double operations*
        element-wise as the scalar methods, so every returned float is
        bit-identical to ``fixed_cost_us`` / ``bus_cost_us`` — callers
        (and the differential suite) may memoize either path
        interchangeably. Single-element batches take the scalar path.
        """
        n = len(sizes)
        if len(ops) != n or len(patterns) != n:
            raise ValueError("batch_costs inputs must have equal length")
        if n < 2:
            fixed = [self.fixed_cost_us(op, pat) for op, pat in zip(ops, patterns)]
            bus = [self.bus_cost_us(op, size) for op, size in zip(ops, sizes)]
            segments = [max(1, -(-size // self.bus_segment_bytes)) for size in sizes]
            per_segment = [b / s for b, s in zip(bus, segments)]
            return fixed, bus, segments, per_segment
        is_read = _np.fromiter((op == OpType.READ for op in ops), dtype=bool, count=n)
        is_random = _np.fromiter(
            (pat == Pattern.RANDOM for pat in patterns), dtype=bool, count=n
        )
        size_arr = _np.fromiter(sizes, dtype=_np.int64, count=n)
        fixed_arr = _np.where(
            is_read,
            _np.where(is_random, self.read_fixed_us, self.seq_read_fixed_us),
            _np.where(is_random, self.write_fixed_us, self.seq_write_fixed_us),
        )
        bps = _np.where(is_read, self.read_bus_bps, self.write_bus_bps)
        bus_arr = size_arr / bps * 1e6
        seg_arr = _np.maximum(1, -(-size_arr // self.bus_segment_bytes))
        per_segment_arr = bus_arr / seg_arr
        return (
            fixed_arr.tolist(),
            bus_arr.tolist(),
            seg_arr.tolist(),
            per_segment_arr.tolist(),
        )

    def saturation_iops(self, op: OpType, pattern: Pattern, size: int) -> float:
        """Nominal saturation throughput for a uniform workload."""
        flash_bound = self.parallelism / self.fixed_cost_us(op, pattern) * 1e6
        bus_bound = 1e6 / self.bus_cost_us(op, size) if size else float("inf")
        return min(flash_bound, bus_bound)

    def saturation_bandwidth_bps(self, op: OpType, pattern: Pattern, size: int) -> float:
        """Nominal saturation bandwidth (bytes/s) for a uniform workload."""
        return self.saturation_iops(op, pattern, size) * size

    def scaled(self, device_scale: float) -> "SsdModel":
        """Return a model time-dilated by ``device_scale``.

        Used by benches to shrink event counts while preserving shape.
        Scaling is *pure time dilation*: every flash unit becomes
        ``device_scale`` times slower and the bus proportionally
        narrower, while parallelism and queue bounds stay untouched.
        Together with the host-side scaling (CPU costs and dispatch
        locks, see :mod:`repro.core.host`) the whole system runs
        ``device_scale`` times slower -- the number of requests in
        flight at every station, and thus every contention regime, is
        exactly preserved; only the clock stretches. Report equivalent
        full-speed numbers by multiplying bandwidth (or dividing
        latency) by the factor.
        """
        if device_scale < 1:
            raise ValueError("device_scale must be >= 1")
        if device_scale == 1:
            return self
        return SsdModel(
            name=f"{self.name}@1/{device_scale:g}",
            parallelism=self.parallelism,
            read_fixed_us=self.read_fixed_us * device_scale,
            write_fixed_us=self.write_fixed_us * device_scale,
            seq_read_fixed_us=self.seq_read_fixed_us * device_scale,
            seq_write_fixed_us=self.seq_write_fixed_us * device_scale,
            read_bus_bps=self.read_bus_bps / device_scale,
            write_bus_bps=self.write_bus_bps / device_scale,
            nvme_max_qd=self.nvme_max_qd,
            noise_base=self.noise_base,
            noise_tail_mean=self.noise_tail_mean,
            bus_segment_bytes=self.bus_segment_bytes,
            gc=self.gc,
            gc_enabled=self.gc_enabled,
        )


#: The workload shapes a device description reports saturation for:
#: (stable key, display label, op, pattern, request size). The key is
#: the contract of ``describe-device --json`` and of
#: :mod:`repro.tune.space`'s bound derivation; renaming one invalidates
#: scripted consumers, so treat keys as API.
DESCRIBE_CASES: tuple[tuple[str, str, OpType, Pattern, int], ...] = (
    ("rand-read-4k", "4 KiB rand read", OpType.READ, Pattern.RANDOM, 4096),
    ("rand-write-4k", "4 KiB rand write", OpType.WRITE, Pattern.RANDOM, 4096),
    ("rand-read-64k", "64 KiB rand read", OpType.READ, Pattern.RANDOM, 65536),
    ("seq-read-256k", "256 KiB seq read", OpType.READ, Pattern.SEQUENTIAL, 262144),
)


def describe_model_dict(model: SsdModel) -> dict:
    """Machine-readable saturation document for one device model.

    The single source of truth shared by ``isol-bench describe-device
    --json`` and :mod:`repro.tune.space`'s parameter-bound derivation:
    per-case nominal saturation IOPS/bandwidth plus the fixed access
    costs a latency-valued knob bound starts from.
    """
    cases = {}
    for key, label, op, pattern, size in DESCRIBE_CASES:
        iops = model.saturation_iops(op, pattern, size)
        cases[key] = {
            "label": label,
            "op": op.name.lower(),
            "pattern": pattern.name.lower(),
            "size_bytes": size,
            "iops": iops,
            "bandwidth_bps": iops * size,
        }
    return {
        "name": model.name,
        "parallelism": model.parallelism,
        "nvme_max_qd": model.nvme_max_qd,
        "read_fixed_us": model.read_fixed_us,
        "write_fixed_us": model.write_fixed_us,
        "gc_enabled": model.gc_enabled,
        "cases": cases,
    }


def describe_model(model: SsdModel) -> str:
    """Human-readable summary of a model's nominal saturation points."""
    doc = describe_model_dict(model)
    lines = [f"SSD model {model.name}:"]
    for case in doc["cases"].values():
        bw = case["bandwidth_bps"] / GIB
        lines.append(
            f"  {case['label']:18s}: {case['iops'] / 1000.0:8.1f} KIOPS, {bw:6.2f} GiB/s"
        )
    return "\n".join(lines)
