"""Peer-level behaviour tests: registration, eviction, abandonment, trees."""

from __future__ import annotations

import pytest

from repro.core.irq import RequestEntry
from repro.errors import ProtocolError
from repro.metrics.records import TerminationReason

from tests.helpers import build_peer, give, make_ctx, small_config


class TestRegistration:
    def test_register_respects_fanout(self):
        config = small_config(request_fanout=2)
        ctx = make_ctx(config)
        requester = build_peer(ctx, 0, mechanism="none")
        providers = [build_peer(ctx, i, mechanism="none") for i in range(1, 5)]
        for provider in providers:
            give(ctx, provider, 0)
        download = requester.start_download(ctx.catalog.object(0))
        assert len(download.registered_at) == 2

    def test_no_self_request(self):
        ctx = make_ctx()
        peer = build_peer(ctx, 0, mechanism="none")
        give(ctx, peer, 0)
        other = build_peer(ctx, 1, mechanism="none")
        give(ctx, other, 1)
        download = other.start_download(ctx.catalog.object(1 + 0))
        with pytest.raises(ProtocolError):
            other.register_request_at(1, download)

    def test_duplicate_pending_rejected(self):
        ctx = make_ctx()
        provider = build_peer(ctx, 0, mechanism="none")
        requester = build_peer(ctx, 1, mechanism="none")
        give(ctx, provider, 0)
        requester.start_download(ctx.catalog.object(0))
        with pytest.raises(ProtocolError):
            requester.start_download(ctx.catalog.object(0))

    def test_freeloader_provider_refuses_registration(self):
        ctx = make_ctx()
        freeloader = build_peer(ctx, 0, shares=False, mechanism="none")
        requester = build_peer(ctx, 1, mechanism="none")
        freeloader.store.add(0)  # stored but NOT in lookup
        download = requester.start_download(ctx.catalog.object(0))
        assert not requester.register_request_at(0, download)
        assert len(download.registered_at) == 0


class TestStorageCheck:
    def test_eviction_unregisters_from_lookup(self):
        ctx = make_ctx(small_config(storage_min_objects=2, storage_max_objects=2))
        peer = build_peer(ctx, 0, capacity=2)
        for object_id in range(4):
            give(ctx, peer, object_id)
        assert peer.store.over_capacity
        peer.storage_check()
        assert len(peer.store) == 2
        remaining = set(peer.store.object_ids())
        for object_id in range(4):
            providers = ctx.lookup.providers(object_id, exclude=-1)
            assert (0 in providers) == (object_id in remaining)

    def test_eviction_terminates_normal_upload(self):
        ctx = make_ctx()
        provider = build_peer(ctx, 0, capacity=1, mechanism="none")
        requester = build_peer(ctx, 1, mechanism="none")
        give(ctx, provider, 0)
        requester.start_download(ctx.catalog.object(0))
        ctx.engine.run(until=1.0)
        assert requester.pending[0].active_sources == 1
        # Overflow the provider's store so object 0 can be evicted.
        give(ctx, provider, 1)
        give(ctx, provider, 2)
        evicted_before = len(provider.store)
        for _ in range(10):  # random eviction: retry until 0 goes
            provider.storage_check()
            if 0 not in provider.store:
                break
            give(ctx, provider, 3) if 3 not in provider.store else None
        if 0 not in provider.store:
            deleted = [
                s for s in ctx.metrics.sessions
                if s.reason is TerminationReason.SOURCE_DELETED
            ]
            assert len(deleted) == 1

    def test_exchange_pin_survives_eviction(self):
        ctx = make_ctx()
        a = build_peer(ctx, 0, capacity=1)
        b = build_peer(ctx, 1, capacity=1)
        give(ctx, a, 0)
        give(ctx, b, 1)
        a.start_download(ctx.catalog.object(1))
        b.start_download(ctx.catalog.object(0))
        ctx.engine.run(until=1.0)
        assert a.exchange_upload_count == 1
        # Overflow A's store; the exchanged object is pinned and survives.
        give(ctx, a, 2)
        give(ctx, a, 3)
        a.storage_check()
        assert 0 in a.store


class TestAbandonment:
    def test_starved_download_abandoned_after_retries(self):
        config = small_config(abandon_after_lookup_failures=2)
        ctx = make_ctx(config)
        provider = build_peer(ctx, 0, mechanism="none")
        requester = build_peer(ctx, 1, mechanism="none")
        give(ctx, provider, 0)
        download = requester.start_download(ctx.catalog.object(0))
        # The only copy vanishes from the network.
        for transfer in list(download.transfers.values()):
            transfer.terminate(TerminationReason.SOURCE_DELETED, requeue=False)
        provider.store.remove(0)
        ctx.lookup.unregister(0, 0)
        for entry_provider in list(download.registered_at):
            ctx.peer(entry_provider).irq.remove(1, 0)
        download.registered_at.clear()
        requester._replenish_downloads()
        assert 0 in requester.pending  # first failure only counts
        requester._replenish_downloads()
        assert 0 not in requester.pending  # second failure abandons
        assert ctx.metrics.counters["download.abandoned"] == 1

    def test_successful_lookup_resets_failure_count(self):
        config = small_config(abandon_after_lookup_failures=2)
        ctx = make_ctx(config)
        provider = build_peer(ctx, 0, mechanism="none")
        requester = build_peer(ctx, 1, mechanism="none")
        give(ctx, provider, 0)
        download = requester.start_download(ctx.catalog.object(0))
        download.lookup_failures = 1
        requester._replenish_downloads()  # has sources: resets the count
        assert download.lookup_failures == 0


class TestPerPeerState:
    def test_discipline_owns_baseline_state(self):
        ctx = make_ctx()
        peer = build_peer(ctx, 0)
        assert peer.credit is peer.discipline.credit
        assert peer.participation is peer.discipline.participation
        assert type(peer.discipline).name == ctx.config.scheduler_mode

    def test_capacity_overrides_size_slot_pools(self):
        from repro.content.interests import InterestProfile
        from repro.content.storage import ObjectStore
        from repro.core.policies import parse_mechanism
        from repro.network.behaviors import SHARER
        from repro.network.peer import Peer

        ctx = make_ctx(small_config(upload_capacity_kbit=80.0))
        peer = Peer(
            ctx,
            0,
            SHARER,
            parse_mechanism("none"),
            InterestProfile([0], [1.0]),
            ObjectStore(5),
            upload_capacity_kbit=20.0,
            download_capacity_kbit=100.0,
            class_name="modem",
        )
        assert peer.upload_pool.total == 2
        assert peer.download_pool.total == 10
        assert peer.class_name == "modem"

    def test_class_name_defaults_to_behavior(self):
        ctx = make_ctx()
        assert build_peer(ctx, 0).class_name == "sharer"
        assert build_peer(ctx, 1, shares=False).class_name == "freeloader"

    def test_participation_cheat_follows_behavior_and_flag(self):
        # The cheat is the non-sharing peer's lie about its level; it is
        # observable only to participation-disciplined servers, so it no
        # longer depends on any scheduler mode (global or own).
        ctx = make_ctx(small_config(scheduler_mode="participation"))
        assert build_peer(ctx, 0, shares=False).participation.cheats
        assert not build_peer(ctx, 1, shares=True).participation.cheats
        honest_ctx = make_ctx(small_config(freeloaders_fake_participation=False))
        assert not build_peer(honest_ctx, 0, shares=False).participation.cheats


class TestTreeRefresh:
    def test_refresh_publishes_new_snapshot(self):
        config = small_config(tree_refresh_interval=1.0)
        ctx = make_ctx(config)
        provider = build_peer(ctx, 0)
        requester = build_peer(ctx, 1)
        third = build_peer(ctx, 2)
        give(ctx, provider, 0)
        give(ctx, requester, 1)
        download = requester.start_download(ctx.catalog.object(0))
        assert 0 in download.registered_at
        entry = provider.irq.get(1, 0)
        assert entry is not None
        # Initially the requester's snapshot has no children.
        assert entry.tree is None or not entry.tree.children
        # A third peer registers at the requester, changing its tree.
        give(ctx, third, 2)
        third_download = third.start_download(ctx.catalog.object(1))
        assert 1 in third_download.registered_at
        ctx.engine.run(until=2.0)
        requester.refresh_outgoing_trees()
        refreshed = provider.irq.get(1, 0)
        assert refreshed is not None
        assert refreshed.tree is not None
        assert any(child.peer_id == 2 for child in refreshed.tree.children)
        # The provider's index now knows peer 2 is reachable through 1.
        assert 2 in provider.irq.indexed_peers()

    def _registered(self):
        ctx = make_ctx(small_config(tree_refresh_interval=1.0))
        provider = build_peer(ctx, 0)
        requester = build_peer(ctx, 1)
        give(ctx, provider, 0)
        requester.start_download(ctx.catalog.object(0))
        return ctx, provider, requester, provider.irq.get(1, 0)

    def test_entry_stamped_with_current_generation_is_not_pushed(self):
        ctx, provider, requester, entry = self._registered()
        assert entry.tree_gen == requester._tree_gen
        version = provider.irq.version
        ctx.engine.run(until=2.0)
        requester.refresh_outgoing_trees()
        assert provider.irq.version == version

    def test_content_equal_rebuild_pushes_the_interned_root(self):
        ctx, provider, requester, entry = self._registered()
        held = entry.tree
        indexed = entry._indexed
        # The requester's IRQ version moves but its content does not.
        requester.irq.add(RequestEntry(5, 9, 0.0))
        requester.irq.remove(5, 9)
        version = provider.irq.version
        ctx.engine.run(until=2.0)
        requester.refresh_outgoing_trees()
        # A new generation is pushed exactly as before interning (the
        # provider's version bumps), but the root is the one it holds.
        assert requester._tree_gen == entry.tree_gen
        assert provider.irq.version == version + 1
        assert entry.tree is held
        assert entry._indexed is indexed
