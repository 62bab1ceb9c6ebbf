"""Unit tests for request trees: building, pruning, occurrences."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.irq import IncomingRequestQueue, RequestEntry
from repro.core.request_tree import (
    RequestTreeNode,
    build_snapshot,
    iter_occurrences,
    occurrence_index,
    occurrence_subindex,
    prune,
    tree_peer_set,
)
from repro.sim.counters import PerfCounters


def leaf(peer_id, object_id):
    return RequestTreeNode(peer_id, object_id)


def node(peer_id, object_id, *children):
    return RequestTreeNode(peer_id, object_id, tuple(children))


class TestTreeBasics:
    def test_node_count(self):
        tree = node(1, None, leaf(2, 20), node(3, 30, leaf(4, 40)))
        assert tree.node_count() == 4

    def test_depth(self):
        assert leaf(1, None).depth() == 1
        tree = node(1, None, node(2, 20, leaf(3, 30)))
        assert tree.depth() == 3

    def test_roundtrip_serialization(self):
        tree = node(1, None, leaf(2, 20), node(3, 30, leaf(4, 40)))
        assert RequestTreeNode.from_dict(tree.to_dict()).to_dict() == tree.to_dict()

    def test_iter_nodes_preorder(self):
        tree = node(1, None, leaf(2, 20), leaf(3, 30))
        assert [n.peer_id for n in tree.iter_nodes()] == [1, 2, 3]


class TestPrune:
    def test_prune_depth(self):
        tree = node(1, None, node(2, 20, node(3, 30, leaf(4, 40))))
        pruned = prune(tree, levels=2)
        assert pruned.depth() == 2
        assert pruned.children[0].children == ()

    def test_prune_zero_levels_gives_none(self):
        assert prune(leaf(1, None), levels=0) is None

    def test_prune_budget_limits_nodes(self):
        wide = node(1, None, *[leaf(i, i * 10) for i in range(2, 12)])
        budget = [4]
        pruned = prune(wide, levels=3, budget=budget)
        assert pruned.node_count() <= 4

    def test_prune_shares_subtrees_that_fit(self):
        # Nodes are immutable, so a subtree already within the level
        # and budget bounds is returned as-is instead of deep-copied.
        tree = node(1, None, leaf(2, 20))
        assert prune(tree, levels=5) is tree
        assert prune(tree, levels=5, budget=[100]) is tree

    def test_prune_truncation_builds_fresh_nodes(self):
        tree = node(1, None, node(2, 20, leaf(3, 30)))
        pruned = prune(tree, levels=2)
        assert pruned is not tree
        assert pruned.to_dict() == {
            "peer": 1,
            "object": None,
            "children": [{"peer": 2, "object": 20, "children": []}],
        }
        # The original is untouched by the truncation.
        assert tree.children[0].children[0].peer_id == 3

    @settings(max_examples=30)
    @given(levels=st.integers(min_value=1, max_value=6))
    def test_pruned_depth_never_exceeds_levels(self, levels):
        deep = leaf(9, 90)
        for peer in range(8, 0, -1):
            deep = node(peer, peer * 10 if peer != 1 else None, deep)
        pruned = prune(deep, levels=levels)
        assert pruned.depth() <= levels


class TestBuildSnapshot:
    def _irq_with(self, *entries):
        irq = IncomingRequestQueue(capacity=100)
        for entry in entries:
            assert irq.add(entry)
        return irq

    def test_empty_irq_bare_root(self):
        irq = IncomingRequestQueue(capacity=10)
        snapshot = build_snapshot(7, irq, levels=4, node_budget=100)
        assert snapshot.peer_id == 7
        assert snapshot.object_id is None
        assert snapshot.children == ()

    def test_zero_levels_returns_none(self):
        irq = IncomingRequestQueue(capacity=10)
        assert build_snapshot(7, irq, levels=0, node_budget=100) is None

    def test_one_level_snapshot_has_no_children(self):
        irq = self._irq_with(RequestEntry(2, 20, 0.0))
        snapshot = build_snapshot(7, irq, levels=1, node_budget=100)
        assert snapshot.children == ()

    def test_entries_become_children(self):
        irq = self._irq_with(RequestEntry(2, 20, 0.0), RequestEntry(3, 30, 1.0))
        snapshot = build_snapshot(7, irq, levels=4, node_budget=100)
        assert [(c.peer_id, c.object_id) for c in snapshot.children] == [(2, 20), (3, 30)]

    def test_attached_trees_nested(self):
        # Entry from peer 2 carries peer 2's own snapshot containing peer 4.
        subtree = node(2, None, leaf(4, 44))
        irq = self._irq_with(RequestEntry(2, 20, 0.0, tree=subtree))
        snapshot = build_snapshot(7, irq, levels=4, node_budget=100)
        child = snapshot.children[0]
        assert child.peer_id == 2
        assert [(g.peer_id, g.object_id) for g in child.children] == [(4, 44)]

    def test_levels_limit_composite_depth(self):
        deep = node(2, None, node(4, 44, node(5, 55, leaf(6, 66))))
        irq = self._irq_with(RequestEntry(2, 20, 0.0, tree=deep))
        snapshot = build_snapshot(7, irq, levels=3, node_budget=100)
        assert snapshot.depth() == 3  # 7 -> 2 -> 4; peers 5, 6 pruned

    def test_node_budget_respected(self):
        entries = [RequestEntry(i, i * 10, float(i)) for i in range(2, 30)]
        irq = self._irq_with(*entries)
        snapshot = build_snapshot(7, irq, levels=4, node_budget=10)
        assert snapshot.node_count() <= 10

    def test_inactive_entries_excluded(self):
        irq = self._irq_with(RequestEntry(2, 20, 0.0), RequestEntry(3, 30, 1.0))
        irq.remove(2, 20)
        snapshot = build_snapshot(7, irq, levels=4, node_budget=100)
        assert [c.peer_id for c in snapshot.children] == [3]


class TestOccurrences:
    def test_entry_itself_is_first_occurrence(self):
        occurrences = list(iter_occurrences(2, 20, None))
        assert occurrences == [(2, ((2, 20),))]

    def test_deep_occurrences_carry_paths(self):
        tree = node(2, None, node(4, 44, leaf(5, 55)))
        index = occurrence_index(2, 20, tree)
        assert index[4] == [((2, 20), (4, 44))]
        assert index[5] == [((2, 20), (4, 44), (5, 55))]

    def test_duplicate_peer_paths_filtered(self):
        # Peer 2 appears again below itself: the path 2 -> 4 -> 2 would
        # repeat peer 2 and must not be yielded.
        tree = node(2, None, node(4, 44, leaf(2, 22)))
        index = occurrence_index(2, 20, tree)
        assert 4 in index
        assert index[2] == [((2, 20),)]  # only the direct occurrence

    def test_same_peer_on_two_branches_kept(self):
        tree = node(2, None, node(4, 44, leaf(6, 66)), node(5, 55, leaf(6, 67)))
        index = occurrence_index(2, 20, tree)
        assert len(index[6]) == 2

    def test_malformed_root_label_ignored(self):
        # A non-root node without an object label cannot be an edge.
        tree = node(2, None, RequestTreeNode(4, None))
        index = occurrence_index(2, 20, tree)
        assert 4 not in index


class TestSnapshotInterning:
    """``build_snapshot`` hands back its ``previous`` root when the
    rebuild is content-equal, keeping the root's shared caches."""

    def _irq(self):
        irq = IncomingRequestQueue(capacity=100)
        irq.add(RequestEntry(2, 20, 0.0, tree=node(2, None, node(4, 44, leaf(5, 55)))))
        irq.add(RequestEntry(3, 30, 1.0))
        return irq

    def test_content_equal_rebuild_returns_previous_root(self):
        irq = self._irq()
        first = build_snapshot(7, irq, levels=4, node_budget=100)
        peers = tree_peer_set(7, first)
        subindex = occurrence_subindex(7, first)
        # A version bump that leaves the content unchanged.
        irq.add(RequestEntry(9, 90, 2.0))
        irq.remove(9, 90)
        again = build_snapshot(7, irq, levels=4, node_budget=100, previous=first)
        assert again is first
        assert tree_peer_set(7, again) is peers
        assert occurrence_subindex(7, again) is subindex

    def test_equal_copy_of_an_entry_tree_still_interns(self):
        irq = self._irq()
        first = build_snapshot(7, irq, levels=4, node_budget=100)
        held = irq.get(2, 20)
        irq.refresh_tree(held, RequestTreeNode.from_dict(held.tree.to_dict()))
        assert build_snapshot(7, irq, levels=4, node_budget=100, previous=first) is first

    def test_changed_rebuild_yields_new_root_reusing_unchanged_children(self):
        irq = self._irq()
        first = build_snapshot(7, irq, levels=4, node_budget=100)
        irq.add(RequestEntry(8, 80, 2.0))
        second = build_snapshot(7, irq, levels=4, node_budget=100, previous=first)
        assert second is not first
        assert second.children[:2] == first.children  # same node objects
        assert [c.peer_id for c in second.children] == [2, 3, 8]

    def test_budget_truncated_rebuild_compares_deeply(self):
        wide = node(2, None, *[leaf(i, i * 10) for i in range(10, 20)])
        irq = IncomingRequestQueue(capacity=100)
        irq.add(RequestEntry(2, 20, 0.0, tree=wide))
        first = build_snapshot(7, irq, levels=4, node_budget=6)
        assert first.node_count() == 6  # the entry's subtree was cut
        irq.add(RequestEntry(9, 90, 1.0))
        irq.remove(9, 90)
        assert build_snapshot(7, irq, levels=4, node_budget=6, previous=first) is first
        # Same entries, but the cut keeps a different prefix.
        narrow = node(2, None, *[leaf(i, i * 10) for i in range(11, 20)])
        irq.refresh_tree(irq.get(2, 20), narrow)
        changed = build_snapshot(7, irq, levels=4, node_budget=6, previous=first)
        assert changed is not first
        assert [g.peer_id for g in changed.children[0].children] == [11, 12, 13, 14]

    def test_refreshing_the_held_tree_bumps_version_but_keeps_caches(self):
        counters = PerfCounters(enabled=True)
        irq = IncomingRequestQueue(capacity=10, counters=counters)
        tree = node(2, None, node(4, 44, leaf(5, 55)))
        held = RequestEntry(2, 20, 0.0, tree=tree)
        irq.add(held)
        indexed = held._indexed
        assert [p for _e, p in irq.paths_to(5)] == [((2, 20), (4, 44), (5, 55))]
        paths, occurrences = held._paths, held.occurrences()
        version = irq.version
        irq.refresh_tree(held, tree)
        assert irq.version == version + 1
        assert counters.counts["irq.tree_refreshes"] == 1
        assert held._indexed is indexed
        assert held._paths is paths and held.occurrences() is occurrences

    CHILDREN = st.frozensets(st.integers(min_value=10, max_value=16), max_size=3)
    OPS = st.lists(
        st.one_of(
            st.tuples(
                st.just("add"),
                st.integers(min_value=0, max_value=6),
                st.integers(min_value=0, max_value=9),
                CHILDREN,
            ),
            st.tuples(st.just("remove"), st.integers(min_value=0, max_value=63)),
            st.tuples(st.just("refresh"), st.integers(min_value=0, max_value=63), CHILDREN),
            st.tuples(st.just("repush"), st.integers(min_value=0, max_value=63)),
        ),
        max_size=80,
    )

    @staticmethod
    def _tree(requester, obj, children):
        # Each child also carries a grandchild, so a refresh can move a
        # peer between depths as well as in and out of the tree.
        kids = tuple(
            node(c, obj, leaf(10 + (c + obj) % 7, obj + 1))
            for c in sorted(children)
            if c != requester
        )
        return node(requester, None, *kids)

    @settings(max_examples=150, deadline=None)
    @given(ops=OPS)
    def test_interned_push_matches_equal_copy_push(self, ops):
        """Pushing the held root and pushing a content-equal copy leave
        the queue in the same observable state, step by step."""
        copies = IncomingRequestQueue(capacity=1_000)
        interned = IncomingRequestQueue(capacity=1_000)
        for op in ops:
            kind = op[0]
            keys = [e.key for e in interned.snapshot()]
            if kind == "add":
                _, requester, obj, children = op
                tree = self._tree(requester, obj, children)
                copy = RequestTreeNode.from_dict(tree.to_dict())
                assert copies.add(RequestEntry(requester, obj, 0.0, copy)) == interned.add(
                    RequestEntry(requester, obj, 0.0, tree)
                )
            elif not keys:
                continue
            elif kind == "remove":
                key = keys[op[1] % len(keys)]
                copies.remove(*key)
                interned.remove(*key)
            else:
                key = keys[op[1] % len(keys)]
                held = interned.get(*key)
                if kind == "refresh":
                    tree = self._tree(key[0], key[1], op[2])
                    interned.refresh_tree(held, tree)
                else:
                    tree = held.tree
                    interned.refresh_tree(held, tree)
                copies.refresh_tree(
                    copies.get(*key), RequestTreeNode.from_dict(tree.to_dict())
                )
            assert copies.version == interned.version
            assert {
                peer: [e.key for e in bucket] for peer, bucket in copies.index_view().items()
            } == {
                peer: [e.key for e in bucket]
                for peer, bucket in interned.index_view().items()
            }
            for peer in range(18):
                assert [(e.key, path) for e, path in copies.paths_to(peer)] == [
                    (e.key, path) for e, path in interned.paths_to(peer)
                ]
