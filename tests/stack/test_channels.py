"""Tests for CID allocation and channel control blocks."""

from __future__ import annotations

import pytest

from repro.errors import ChannelError
from repro.l2cap.constants import DYNAMIC_CID_MIN
from repro.l2cap.states import ChannelState
from repro.stack.channels import ChannelControlBlock, ChannelManager


class TestChannelManager:
    def test_allocation_starts_at_dynamic_min(self):
        manager = ChannelManager()
        block = manager.allocate(psm=1, remote_cid=0x50)
        assert block.local_cid == DYNAMIC_CID_MIN

    def test_allocation_is_sequential(self):
        manager = ChannelManager()
        cids = [manager.allocate(1, 0x50 + i).local_cid for i in range(3)]
        assert cids == [0x0040, 0x0041, 0x0042]

    def test_capacity_limit(self):
        manager = ChannelManager(max_channels=2)
        manager.allocate(1, 0x50)
        manager.allocate(1, 0x51)
        with pytest.raises(ChannelError):
            manager.allocate(1, 0x52)

    def test_release_frees_slot(self):
        manager = ChannelManager(max_channels=1)
        block = manager.allocate(1, 0x50)
        manager.release(block.local_cid)
        manager.allocate(1, 0x51)  # no raise

    def test_release_unknown_is_noop(self):
        ChannelManager().release(0x9999)

    def test_lookup_by_local_and_remote(self):
        manager = ChannelManager()
        block = manager.allocate(psm=25, remote_cid=0x77)
        assert manager.get(block.local_cid) is block
        assert manager.by_remote_cid(0x77) is block
        assert manager.by_remote_cid(0x78) is None

    def test_remote_cid_zero_never_matches(self):
        manager = ChannelManager()
        manager.allocate(psm=1, remote_cid=0)
        assert manager.by_remote_cid(0) is None

    def test_allocated_cids_set(self):
        manager = ChannelManager()
        a = manager.allocate(1, 1).local_cid
        b = manager.allocate(1, 2).local_cid
        assert manager.allocated_cids() == frozenset({a, b})

    def test_clear_resets(self):
        manager = ChannelManager()
        manager.allocate(1, 1)
        manager.clear()
        assert len(manager) == 0
        assert manager.allocate(1, 2).local_cid == DYNAMIC_CID_MIN

    def test_zero_capacity_rejected(self):
        with pytest.raises(ChannelError):
            ChannelManager(max_channels=0)


class TestChannelControlBlock:
    def test_defaults(self):
        block = ChannelControlBlock(local_cid=0x40)
        assert block.state is ChannelState.CLOSED

    def test_reset_config(self):
        block = ChannelControlBlock(local_cid=0x40)
        block.local_config_done = True
        block.remote_config_done = True
        block.local_config_sent = True
        block.reset_config()
        assert not block.local_config_done
        assert not block.remote_config_done
        assert not block.local_config_sent
