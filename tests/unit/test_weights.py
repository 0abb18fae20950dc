"""Unit tests for hierarchical weight resolution."""

import pytest

from repro.cgroups.hierarchy import CgroupHierarchy
from repro.iocontrol.weights import hierarchical_shares


@pytest.fixture
def tree():
    return CgroupHierarchy()


def weight_of_io(group):
    return float(group.io_weight())


class TestHierarchicalShares:
    def test_empty_active_set(self, tree):
        assert hierarchical_shares([], weight_of_io) == {}

    def test_single_leaf_gets_everything(self, tree):
        leaf = tree.create("/a", processes=True)
        shares = hierarchical_shares([leaf], weight_of_io)
        assert shares["/a"] == pytest.approx(1.0)

    def test_flat_siblings_split_by_weight(self, tree):
        a = tree.create("/a", processes=True)
        b = tree.create("/b", processes=True)
        a.write("io.weight", "300")
        b.write("io.weight", "100")
        shares = hierarchical_shares([a, b], weight_of_io)
        assert shares["/a"] == pytest.approx(0.75)
        assert shares["/b"] == pytest.approx(0.25)

    def test_inactive_sibling_excluded(self, tree):
        a = tree.create("/a", processes=True)
        tree.create("/b", processes=True)  # exists but inactive
        shares = hierarchical_shares([a], weight_of_io)
        assert shares["/a"] == pytest.approx(1.0)

    def test_nested_shares_multiply(self, tree):
        # /left (w=100) holds two leaves; /right (w=100) holds one.
        left_a = tree.create("/left/a", processes=True)
        left_b = tree.create("/left/b", processes=True)
        right_c = tree.create("/right/c", processes=True)
        shares = hierarchical_shares([left_a, left_b, right_c], weight_of_io)
        assert shares["/left/a"] == pytest.approx(0.25)
        assert shares["/left/b"] == pytest.approx(0.25)
        assert shares["/right/c"] == pytest.approx(0.5)

    def test_paper_1001_example(self, tree):
        # §IV-B: A weight 1000, B weight 1 -> B's share is 1/1001.
        a = tree.create("/a", processes=True)
        b = tree.create("/b", processes=True)
        a.write("io.bfq.weight", "1000")
        b.write("io.bfq.weight", "1")
        shares = hierarchical_shares(
            [a, b], lambda group: float(group.bfq_weight())
        )
        assert shares["/b"] == pytest.approx(1.0 / 1001.0)

    def test_shares_sum_to_one(self, tree):
        leaves = [tree.create(f"/t/g{i}", processes=True) for i in range(5)]
        for i, leaf in enumerate(leaves):
            leaf.write("io.weight", str((i + 1) * 100))
        shares = hierarchical_shares(leaves, weight_of_io)
        assert sum(shares.values()) == pytest.approx(1.0)

