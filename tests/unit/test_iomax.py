"""Unit tests for the io.max controller (blk-throttle)."""

import pytest

from repro.cgroups.hierarchy import CgroupHierarchy
from repro.iocontrol.iomax import IoMaxController
from repro.iorequest import IoRequest, KIB, MIB, OpType, Pattern
from repro.sim.engine import Simulator

DEV = "259:0"


@pytest.fixture
def env():
    sim = Simulator()
    tree = CgroupHierarchy()
    tree.create("/tenants/a", processes=True)
    tree.create("/tenants/b", processes=True)
    controller = IoMaxController(sim, tree, DEV)
    return sim, tree, controller


def make_request(cgroup="/tenants/a", op=OpType.READ, size=4 * KIB):
    return IoRequest("app", cgroup, op, Pattern.RANDOM, size)


def submit_and_run(sim, controller, req):
    admitted = []
    controller.submit(req, lambda r: admitted.append(sim.now))
    sim.run()
    return admitted[0]


class TestPassthrough:
    def test_no_limits_admit_immediately(self, env):
        sim, _, controller = env
        assert submit_and_run(sim, controller, make_request()) == 0.0

    def test_unlimited_entry_admits_immediately(self, env):
        sim, tree, controller = env
        tree.find("/tenants/a").write("io.max", f"{DEV} rbps=max")
        assert submit_and_run(sim, controller, make_request()) == 0.0


class TestBandwidthLimits:
    def test_requests_beyond_burst_are_delayed(self, env):
        sim, tree, controller = env
        tree.find("/tenants/a").write("io.max", f"{DEV} rbps={MIB}")
        admitted = []
        # Burst is 10ms worth = ~10.5 KiB; a few 4 KiB pass, then delay.
        for _ in range(10):
            controller.submit(make_request(), lambda r: admitted.append(sim.now))
        sim.run()
        assert admitted[0] == 0.0
        assert admitted[-1] > 0.0

    def test_long_run_rate_respected(self, env):
        sim, tree, controller = env
        tree.find("/tenants/a").write("io.max", f"{DEV} rbps={MIB}")
        admitted = []
        n = 100
        for _ in range(n):
            controller.submit(make_request(), lambda r: admitted.append(sim.now))
        sim.run()
        duration_s = max(admitted) / 1e6
        effective_bps = (
            n * 4 * KIB - controller._buckets_for("/tenants/a").rbps.burst
        ) / duration_s
        assert effective_bps == pytest.approx(MIB, rel=0.15)

    def test_write_limit_independent_of_read(self, env):
        sim, tree, controller = env
        tree.find("/tenants/a").write("io.max", f"{DEV} wbps={MIB}")
        # Reads are unlimited.
        assert submit_and_run(sim, controller, make_request(op=OpType.READ)) == 0.0


class TestIopsLimits:
    def test_iops_limit_delays(self, env):
        sim, tree, controller = env
        tree.find("/tenants/a").write("io.max", f"{DEV} riops=1000")
        admitted = []
        for _ in range(50):
            controller.submit(make_request(), lambda r: admitted.append(sim.now))
        sim.run()
        # 1000 IOPS -> 1 request per ms, burst 10ms = 10 requests.
        assert max(admitted) == pytest.approx(40_000.0, rel=0.1)


class TestHierarchy:
    def test_parent_limit_applies_to_child(self, env):
        sim, tree, controller = env
        tree.find("/tenants").write("io.max", f"{DEV} riops=100")
        admitted = []
        for _ in range(5):
            controller.submit(
                make_request("/tenants/a"), lambda r: admitted.append(sim.now)
            )
            controller.submit(
                make_request("/tenants/b"), lambda r: admitted.append(sim.now)
            )
        sim.run()
        # Shared parent bucket: aggregated rate 100 IOPS after burst 1.
        assert max(admitted) > 0.0

    def test_sibling_limits_are_independent(self, env):
        sim, tree, controller = env
        tree.find("/tenants/a").write("io.max", f"{DEV} riops=1")
        assert submit_and_run(sim, controller, make_request("/tenants/b")) == 0.0

    def test_strictest_of_stacked_limits_wins(self, env):
        sim, tree, controller = env
        tree.find("/tenants").write("io.max", f"{DEV} riops=10")
        tree.find("/tenants/a").write("io.max", f"{DEV} riops=1000000")
        admitted = []
        for _ in range(30):
            controller.submit(make_request(), lambda r: admitted.append(sim.now))
        sim.run()
        # Gated by the parent's 10 IOPS (burst 10ms at 10 IOPS is tiny).
        assert max(admitted) > 1e6


class TestInvalidation:
    def test_invalidate_picks_up_new_limits(self, env):
        sim, tree, controller = env
        assert submit_and_run(sim, controller, make_request()) == 0.0
        tree.find("/tenants/a").write("io.max", f"{DEV} riops=1")
        controller.invalidate()
        admitted = []
        for _ in range(3):
            controller.submit(make_request(), lambda r: admitted.append(sim.now))
        sim.run()
        assert max(admitted) > 0.0
