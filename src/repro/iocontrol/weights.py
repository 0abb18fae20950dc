"""Hierarchical weight resolution.

Both BFQ (io.bfq.weight) and io.cost (io.weight) turn per-group absolute
weights into *relative* shares through the cgroup hierarchy: a group's
share at each level is its weight divided by the sum of its **active**
siblings' weights, and the leaf's share is the product down the path
(§IV-B's ``1/1001`` example). Inactive groups are excluded, which is what
makes weight-based sharing work-conserving between active tenants and,
as the paper notes, hard to configure statically in dynamic environments.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.cgroups.hierarchy import Cgroup


def hierarchical_shares(
    active_leaves: Iterable[Cgroup],
    weight_of: Callable[[Cgroup], float],
) -> dict[str, float]:
    """Relative share per active leaf path.

    ``weight_of`` reads the knob-specific absolute weight of a group
    (io.weight or io.bfq.weight; both default to 100 when unset).
    Returns ``{leaf_path: share}`` with shares summing to 1 when any leaf
    is active.
    """
    leaves = list(active_leaves)
    if not leaves:
        return {}

    # A node is "active" if it is an active leaf or has an active descendant.
    active_paths: set[str] = set()
    for leaf in leaves:
        active_paths.add(leaf.path)
        for ancestor in leaf.ancestors():
            active_paths.add(ancestor.path)

    shares: dict[str, float] = {}
    for leaf in leaves:
        share = 1.0
        node = leaf
        while node.parent is not None:
            siblings = [
                child
                for child in node.parent.children.values()
                if child.path in active_paths
            ]
            total = sum(weight_of(sibling) for sibling in siblings)
            share *= weight_of(node) / total if total > 0 else 0.0
            node = node.parent
        shares[leaf.path] = share
    return shares

