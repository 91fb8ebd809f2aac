"""Tests for the write-back LRU buffer cache."""

import pytest

from repro.clock import SimClock
from repro.errors import FsError
from repro.fs.base import BufferCache, pack_dirent, unpack_dirents
from repro.storage import RAMBlockDevice


@pytest.fixture
def device():
    return RAMBlockDevice(64 * 1024, clock=SimClock())


@pytest.fixture
def cache(device):
    return BufferCache(device, 1024, capacity_blocks=4)


class TestWriteBack:
    def test_write_is_deferred(self, cache, device):
        cache.write_block(0, b"cached")
        assert device.read(0, 6) == b"\x00" * 6  # not on device yet

    def test_flush_persists(self, cache, device):
        cache.write_block(0, b"cached")
        cache.flush()
        assert device.read(0, 6) == b"cached"

    def test_read_hits_cache(self, cache, device):
        cache.write_block(0, b"cached")
        device.write(0, b"stale!")
        assert cache.read_block(0)[:6] == b"cached"

    def test_read_miss_goes_to_device(self, cache, device):
        device.write(0, b"ondisk")
        assert cache.read_block(0)[:6] == b"ondisk"
        assert cache.stats.misses == 1

    def test_drop_discards_dirty(self, cache, device):
        cache.write_block(0, b"gone")
        cache.drop()
        assert cache.read_block(0)[:4] == b"\x00\x00\x00\x00"

    def test_flush_clears_dirty_set(self, cache):
        cache.write_block(0, b"x")
        cache.flush()
        assert cache.dirty_count == 0

    def test_oversized_write_rejected(self, cache):
        with pytest.raises(FsError):
            cache.write_block(0, b"x" * 2048)

    def test_out_of_range_block_rejected(self, cache):
        with pytest.raises(FsError):
            cache.read_block(10_000)


class TestLRUEviction:
    def test_capacity_enforced(self, cache):
        for block in range(6):
            cache.read_block(block)
        assert cache.cached_count <= 4
        assert cache.stats.evictions == 2

    def test_eviction_writes_back_dirty(self, cache, device):
        cache.write_block(0, b"dirty0")
        for block in range(1, 6):
            cache.read_block(block)  # push block 0 out
        assert device.read(0, 6) == b"dirty0"

    def test_lru_order_respects_recency(self, cache):
        for block in range(4):
            cache.read_block(block)
        cache.read_block(0)  # refresh block 0
        cache.read_block(4)  # evicts block 1, not 0
        assert 0 in cache._cache
        assert 1 not in cache._cache

    def test_stale_reread_after_eviction(self, cache, device):
        """The §3.2 mechanism: after eviction, a block re-reads the device --
        so an under-the-mount image restore becomes visible."""
        cache.write_block(0, b"old")
        cache.flush()
        for block in range(1, 6):
            cache.read_block(block)
        device.write(0, b"new")  # "restored" behind the cache's back
        assert cache.read_block(0)[:3] == b"new"


class TestCopySemantics:
    """Cached blocks are immutable ``bytes`` handed out without a copy;
    only mutable input is copied, once, on its way in."""

    def test_mutating_written_bytearray_does_not_reach_cache(self, cache, device):
        raw = bytearray(b"A" * 1024)
        cache.write_block(0, raw)
        raw[:4] = b"XXXX"
        assert cache.read_block(0) == b"A" * 1024
        cache.flush()
        assert device.read_block(0, 1024) == b"A" * 1024

    def test_short_bytearray_is_padded_and_copied(self, cache):
        raw = bytearray(b"abc")
        cache.write_block(0, raw)
        raw[0] = ord("z")
        assert cache.read_block(0) == b"abc" + b"\x00" * 1021

    def test_read_block_value_survives_later_write(self, cache):
        cache.write_block(0, b"old")
        before = cache.read_block(0)
        cache.write_block(0, b"new")
        assert before[:3] == b"old"
        assert cache.read_block(0)[:3] == b"new"

    def test_hits_return_the_cached_object(self, cache):
        cache.write_block(0, b"x" * 1024)
        assert type(cache.read_block(0)) is bytes
        assert cache.read_block(0) is cache.read_block(0)

    def test_dirty_blocks_are_sorted_pairs(self, cache):
        cache.write_block(3, b"c")
        cache.write_block(1, b"a")
        cache.read_block(2)
        dirty = cache.dirty_blocks()
        assert [index for index, _ in dirty] == [1, 3]
        assert dirty[0][1] is cache.read_block(1)
        cache.flush()
        assert cache.dirty_blocks() == []


class TestDirentHelpers:
    def test_roundtrip(self):
        data = pack_dirent(5, 8, "hello") + pack_dirent(9, 4, "dir")
        assert unpack_dirents(data) == [(5, 8, "hello"), (9, 4, "dir")]

    def test_zero_ino_terminates(self):
        data = pack_dirent(5, 8, "keep") + b"\x00" * 10 + pack_dirent(6, 8, "lost")
        assert unpack_dirents(data) == [(5, 8, "keep")]

    def test_unicode_names(self):
        data = pack_dirent(1, 8, "héllo")
        assert unpack_dirents(data) == [(1, 8, "héllo")]

    def test_name_too_long_rejected(self):
        with pytest.raises(ValueError):
            pack_dirent(1, 8, "x" * 300)

    def test_empty_stream(self):
        assert unpack_dirents(b"") == []
        assert unpack_dirents(b"\x00" * 64) == []
