"""Unit tests for the simulated NVMe device and GC state."""

import random

import pytest

from repro.faults import FaultInjector, FaultPlan, LatencySpike
from repro.iorequest import GIB, KIB, IoRequest, OpType, Pattern
from repro.sim.engine import Simulator
from repro.ssd.device import SimulatedNvmeDevice
from repro.ssd.gc import GcState
from repro.ssd.model import GcParams, SsdModel


def quiet_model(**overrides) -> SsdModel:
    """A noise-free model so latencies are exact."""
    params = dict(
        name="quiet",
        parallelism=4,
        read_fixed_us=50.0,
        write_fixed_us=100.0,
        seq_read_fixed_us=40.0,
        seq_write_fixed_us=80.0,
        read_bus_bps=1 * GIB,
        write_bus_bps=0.5 * GIB,
        noise_base=1.0,
        noise_tail_mean=0.0,
        gc=GcParams(write_amplification=2.0),
    )
    params.update(overrides)
    return SsdModel(**params)


def make_request(op=OpType.READ, pattern=Pattern.RANDOM, size=4 * KIB) -> IoRequest:
    return IoRequest("app", "/g", op, pattern, size)


def run_one(device, sim, req):
    done = []
    device.submit(req, lambda r: done.append(sim.now))
    sim.run()
    return done[0]


class TestServiceTime:
    def test_read_latency_is_flash_plus_bus(self):
        sim = Simulator()
        device = SimulatedNvmeDevice(sim, quiet_model(), random.Random(0))
        latency = run_one(device, sim, make_request())
        expected = 50.0 + 4 * KIB / (1 * GIB) * 1e6
        assert latency == pytest.approx(expected)

    def test_sequential_read_is_cheaper(self):
        sim = Simulator()
        device = SimulatedNvmeDevice(sim, quiet_model(), random.Random(0))
        rand = run_one(device, sim, make_request(pattern=Pattern.RANDOM))
        sim2 = Simulator()
        device2 = SimulatedNvmeDevice(sim2, quiet_model(), random.Random(0))
        seq = run_one(device2, sim2, make_request(pattern=Pattern.SEQUENTIAL))
        assert seq < rand

    def test_write_slower_than_read(self):
        sim = Simulator()
        device = SimulatedNvmeDevice(sim, quiet_model(), random.Random(0))
        read = run_one(device, sim, make_request(op=OpType.READ))
        sim2 = Simulator()
        device2 = SimulatedNvmeDevice(sim2, quiet_model(), random.Random(0))
        write = run_one(device2, sim2, make_request(op=OpType.WRITE))
        assert write > read

    def test_parallel_requests_overlap(self):
        sim = Simulator()
        device = SimulatedNvmeDevice(sim, quiet_model(parallelism=4), random.Random(0))
        done = []
        for _ in range(4):
            device.submit(make_request(), lambda r: done.append(sim.now))
        sim.run()
        # All four fit in the flash units; only the bus serializes a bit.
        assert max(done) < 50.0 * 2

    def test_requests_beyond_parallelism_queue(self):
        sim = Simulator()
        device = SimulatedNvmeDevice(sim, quiet_model(parallelism=1), random.Random(0))
        done = []
        for _ in range(3):
            device.submit(make_request(), lambda r: done.append(sim.now))
        sim.run()
        assert done[-1] > 3 * 50.0 - 1.0


class TestBoundaryQueue:
    def test_nvme_qd_bounds_in_flight(self):
        sim = Simulator()
        model = quiet_model(nvme_max_qd=2, parallelism=8)
        device = SimulatedNvmeDevice(sim, model, random.Random(0))
        for _ in range(5):
            device.submit(make_request(), lambda r: None)
        assert device.in_flight == 2
        assert device.boundary_queue_depth == 3
        sim.run()
        assert device.in_flight == 0
        assert device.boundary_queue_depth == 0

    def test_boundary_queue_drains_fifo(self):
        sim = Simulator()
        model = quiet_model(nvme_max_qd=1, parallelism=8)
        device = SimulatedNvmeDevice(sim, model, random.Random(0))
        done = []
        for tag in ("a", "b", "c"):
            req = make_request()
            req.app_name = tag
            device.submit(req, lambda r: done.append(r.app_name))
        sim.run()
        assert done == ["a", "b", "c"]


class TestCountersAndIdle:
    def test_bytes_and_request_counters(self):
        sim = Simulator()
        device = SimulatedNvmeDevice(sim, quiet_model(), random.Random(0))
        device.submit(make_request(size=8 * KIB), lambda r: None)
        device.submit(make_request(op=OpType.WRITE, size=4 * KIB), lambda r: None)
        sim.run()
        assert device.bytes_completed[OpType.READ] == 8 * KIB
        assert device.bytes_completed[OpType.WRITE] == 4 * KIB
        assert device.requests_completed[OpType.READ] == 1
        assert device.requests_completed[OpType.WRITE] == 1

    def test_idle_capacity_probe(self):
        sim = Simulator()
        device = SimulatedNvmeDevice(sim, quiet_model(parallelism=2), random.Random(0))
        assert device.has_idle_capacity()
        device.submit(make_request(), lambda r: None)
        device.submit(make_request(), lambda r: None)
        assert not device.has_idle_capacity()
        sim.run()
        assert device.has_idle_capacity()


class TestGcState:
    def test_fresh_device_not_amplified(self):
        state = GcState(quiet_model())
        assert state.write_amplification == 1.0

    def test_preconditioned_device_amplifies(self):
        state = GcState(quiet_model(), preconditioned=True)
        assert state.write_amplification == 2.0
        assert state.amplify(100.0) == pytest.approx(200.0)

    def test_precondition_threshold_flips_state(self):
        state = GcState(quiet_model(), precondition_bytes=1000)
        state.on_write(999)
        assert not state.preconditioned
        state.on_write(1)
        assert state.preconditioned

    def test_explicit_precondition(self):
        state = GcState(quiet_model())
        state.precondition()
        assert state.write_amplification == 2.0

    def test_gc_disabled_never_amplifies(self):
        model = quiet_model(gc_enabled=False)
        state = GcState(model, preconditioned=True)
        assert state.write_amplification == 1.0

    def test_device_write_service_amplified_when_preconditioned(self):
        sim = Simulator()
        device = SimulatedNvmeDevice(
            sim, quiet_model(), random.Random(0), preconditioned=True
        )
        latency = run_one(device, sim, make_request(op=OpType.WRITE))
        expected = 2.0 * (100.0 + 4 * KIB / (0.5 * GIB) * 1e6)
        assert latency == pytest.approx(expected)


class TestSpikeStall:
    def test_stall_occupies_flash_units(self):
        sim = Simulator()
        model = quiet_model(parallelism=1)
        device = SimulatedNvmeDevice(sim, model, random.Random(0))
        plan = FaultPlan(
            spikes=(LatencySpike(first_at_us=10.0, period_us=10.0, stall_us=100.0),)
        )
        FaultInjector(sim, device, plan, random.Random(0)).start()
        sim.run_until(15.0)  # first stall injected at t=10
        done = []
        device.submit(make_request(), lambda r: done.append(sim.now))
        sim.run_until(500.0)
        # The request had to wait for the 100us stall to clear.
        assert done and done[0] > 110.0
