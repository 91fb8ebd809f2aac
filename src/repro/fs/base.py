"""Shared infrastructure for the block file systems.

The central piece is :class:`BufferCache`, a write-back block cache every
block file system routes its I/O through.  It is what makes the paper's
cache-incoherency phenomenon *genuine* in this reproduction: if a model
checker restores the device image while a file system is mounted, the
driver keeps reading (and later flushing!) stale cached blocks, and the
on-disk state ends up a corrupt hybrid of two histories -- the
"directory entries with corrupted or zeroed inodes" of section 3.2.
Unmounting flushes and drops the cache; remounting reloads everything
from disk, which is why the remount-per-operation workaround restores
coherency at such a heavy cost.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.errors import FsError, EIO
from repro.storage.device import BlockDevice

#: default number of cached blocks; small enough that real workloads
#: evict, which is what exposes mixed-history corruption when the disk
#: is restored underneath a live mount.
DEFAULT_CACHE_BLOCKS = 64


@dataclass
class BufferCacheStats:
    hits: int = 0
    misses: int = 0
    flushes: int = 0
    write_backs: int = 0
    evictions: int = 0


class BufferCache:
    """A bounded, LRU, write-back block cache between an fs and its device.

    Bounded capacity matters: after an under-the-mount disk restore, the
    still-cached blocks describe the *old* history while evicted blocks
    re-read the *restored* history -- the mix is precisely how section
    3.2's "directory entries with corrupted or zeroed inodes" arise.
    """

    def __init__(self, device: BlockDevice, block_size: int,
                 capacity_blocks: int = DEFAULT_CACHE_BLOCKS):
        if block_size % device.sector_size != 0:
            raise ValueError(
                f"block size {block_size} not a multiple of sector size "
                f"{device.sector_size}"
            )
        self.device = device
        self.block_size = block_size
        self.block_count = device.size_bytes // block_size
        self.capacity_blocks = capacity_blocks
        self._cache: "OrderedDict[int, bytes]" = OrderedDict()
        self._dirty: Set[int] = set()
        self.stats = BufferCacheStats()

    # Cached blocks are immutable ``bytes``: a hit hands out the cached
    # object itself, and flush/write-back pass it to the device as is.
    # Only a mutable input (a caller's ``bytearray``) is copied, once,
    # when it enters the cache.

    def read_block(self, index: int) -> bytes:
        """Read a block through the cache."""
        if not 0 <= index < self.block_count:
            self._check(index)
        cached = self._cache.get(index)
        if cached is not None:
            self.stats.hits += 1
            self._cache.move_to_end(index)
            return cached
        self.stats.misses += 1
        data = self.device.read_block(index, self.block_size)
        self._insert(index, data)
        return data

    def write_block(self, index: int, data: bytes) -> None:
        """Write a block into the cache (flushed later)."""
        if not 0 <= index < self.block_count:
            self._check(index)
        length = len(data)
        if length != self.block_size:
            if length > self.block_size:
                raise FsError(EIO, f"write of {length} bytes into {self.block_size}-byte block")
            data = bytes(data) + b"\x00" * (self.block_size - length)
        elif type(data) is not bytes:
            data = bytes(data)
        self._insert(index, data)
        self._dirty.add(index)

    def _insert(self, index: int, data: bytes) -> None:
        self._cache[index] = data
        self._cache.move_to_end(index)
        while len(self._cache) > self.capacity_blocks:
            victim, victim_data = self._cache.popitem(last=False)
            self.stats.evictions += 1
            if victim in self._dirty:
                # write-back on eviction
                self.device.write_block(victim, self.block_size, victim_data)
                self._dirty.discard(victim)
                self.stats.write_backs += 1

    def dirty_blocks(self) -> List[Tuple[int, bytes]]:
        """The dirty ``(index, block)`` pairs in block order: what the
        next :meth:`flush` will write (ext4 journals them first)."""
        cache = self._cache
        return [(index, cache[index]) for index in sorted(self._dirty)]

    def flush(self) -> None:
        """Write every dirty block back to the device."""
        for index, block in self.dirty_blocks():
            self.device.write_block(index, self.block_size, block)
            self.stats.write_backs += 1
        self._dirty.clear()
        self.stats.flushes += 1

    def drop(self) -> None:
        """Discard all cached blocks *without* flushing (unmount does
        flush-then-drop; a crash simulation would drop alone)."""
        self._cache.clear()
        self._dirty.clear()

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    @property
    def cached_count(self) -> int:
        return len(self._cache)

    def _check(self, index: int) -> None:
        """Raise for an out-of-range block (the hot paths test the
        bounds inline and call this only to raise)."""
        if not 0 <= index < self.block_count:
            raise FsError(EIO, f"block {index} outside device ({self.block_count} blocks)")


def pack_xattrs(xattrs) -> bytes:
    """Serialise an xattr dict: (u8 keylen, u16 vallen, key, value)*, 0-end."""
    chunks = []
    for key in sorted(xattrs):
        raw_key = key.encode("utf-8")
        value = xattrs[key]
        if len(raw_key) > 255 or len(value) > 0xFFFF:
            raise ValueError(f"xattr too large: {key!r}")
        chunks.append(bytes([len(raw_key)]))
        chunks.append(len(value).to_bytes(2, "little"))
        chunks.append(raw_key)
        chunks.append(bytes(value))
    chunks.append(b"\x00")
    return b"".join(chunks)


def unpack_xattrs(data: bytes):
    """Parse a serialised xattr stream back into a dict."""
    xattrs = {}
    pos = 0
    while pos < len(data):
        key_length = data[pos]
        if key_length == 0:
            break
        value_length = int.from_bytes(data[pos + 1 : pos + 3], "little")
        key = data[pos + 3 : pos + 3 + key_length].decode("utf-8")
        start = pos + 3 + key_length
        xattrs[key] = bytes(data[start : start + value_length])
        pos = start + value_length
    return xattrs


def pack_dirent(ino: int, dtype: int, name: str) -> bytes:
    """Serialise one on-disk directory entry (shared ext-style format)."""
    raw = name.encode("utf-8")
    if len(raw) > 255:
        raise ValueError(f"name too long: {len(raw)} bytes")
    return ino.to_bytes(4, "little") + bytes([dtype, len(raw)]) + raw


def unpack_dirents(data: bytes):
    """Parse a serialised directory stream into (ino, dtype, name) tuples.

    The stream is terminated by a zero inode number (or end of data).
    """
    entries = []
    pos = 0
    while pos + 6 <= len(data):
        ino = int.from_bytes(data[pos : pos + 4], "little")
        if ino == 0:
            break
        dtype = data[pos + 4]
        name_len = data[pos + 5]
        name = data[pos + 6 : pos + 6 + name_len].decode("utf-8")
        entries.append((ino, dtype, name))
        pos += 6 + name_len
    return entries
