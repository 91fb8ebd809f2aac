"""SimExt4: SimExt2 plus a physical-block journal.

The ext4 analogue shares SimExt2's layout and semantics (block-multiple
directory sizes, ``lost+found``, insertion-order getdents) but reserves a
journal region between the inode table and the data area and runs every
``sync`` as a write-ahead transaction:

1. dirty buffer-cache blocks are written to the journal (descriptor block,
   data blocks, commit block);
2. only after the commit record is durable are the blocks checkpointed to
   their home locations;
3. the journal head is then retired.

Mounting replays any committed-but-not-checkpointed transaction, so a
"crash" (dropping the buffer cache without flushing) never produces a
half-written metadata state.  The journal's practical effects on MCFS are
(a) less usable capacity than ext2 on the same device -- which feeds the
free-space equalization workaround of section 3.4 -- and (b) extra write
traffic per flush, visible in the Figure 2 speeds.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.errors import EINVAL, FsError
from repro.fs.base import BufferCache
from repro.fs.ext2 import (
    Ext2FileSystemType,
    Ext2Geometry,
    MAGIC as EXT2_MAGIC,
    MountedExt2,
    SUPER_FMT,
    SUPER_SIZE,
)

MAGIC = b"SIMEXT4\x00"
JOURNAL_MAGIC = b"JRNL"
JOURNAL_DESCRIPTOR = 1
JOURNAL_COMMIT = 2
JOURNAL_HEADER_FMT = "<4sIIQ"  # magic, record type, block count, txn id
JOURNAL_HEADER_SIZE = struct.calcsize(JOURNAL_HEADER_FMT)

DEFAULT_JOURNAL_BLOCKS = 16


class Ext4Geometry(Ext2Geometry):
    """Ext2 geometry with a journal region carved out of the data area."""

    def __init__(self, device_size: int, block_size: int, journal_blocks: int):
        super().__init__(device_size, block_size)
        self.journal_start = self.first_data_block
        self.journal_blocks = journal_blocks
        self.first_data_block = self.journal_start + journal_blocks
        if self.first_data_block >= self.block_count:
            raise FsError(EINVAL, "device too small to hold ext4 journal")


class Ext4FileSystemType(Ext2FileSystemType):
    """mkfs + mount entry points for SimExt4."""

    name = "ext4"
    min_device_size = 128 * 1024
    special_paths = ("/lost+found",)

    def __init__(self, block_size: int = 1024, journal_blocks: int = DEFAULT_JOURNAL_BLOCKS,
                 cache_blocks=None, inode_cache_capacity=None):
        super().__init__(block_size, cache_blocks=cache_blocks,
                         inode_cache_capacity=inode_cache_capacity)
        self.journal_blocks = journal_blocks

    def mkfs(self, device) -> None:
        if device.size_bytes < (self.min_device_size or 0):
            raise FsError(EINVAL, f"{self.name} needs >= {self.min_device_size} bytes")
        # Format as ext2 with the journal-shifted geometry, then stamp the
        # ext4 magic and clear the journal region.
        geometry = Ext4Geometry(device.size_bytes, self.block_size, self.journal_blocks)
        self._mkfs_with_geometry(device, geometry)

    def _mkfs_with_geometry(self, device, geometry: Ext4Geometry) -> None:
        # Reuse ext2's mkfs body by monkey-free delegation: we re-run its
        # steps with our geometry class.
        from repro.fs.ext2 import (
            Bitmap,
            DT_DIR,
            ROOT_INO,
            S_IFDIR,
        )

        cache = self._make_cache(device)
        for block in range(geometry.block_count):
            cache.write_block(block, b"")
        block_bitmap = Bitmap(geometry.block_count)
        inode_bitmap = Bitmap(geometry.inode_count)
        for block in range(geometry.first_data_block):
            block_bitmap.set(block)
        inode_bitmap.set(0)

        now = device.clock.now
        fs = MountedExt4.__new__(MountedExt4)
        fs._init_raw(device, cache, geometry, block_bitmap, inode_bitmap)
        root = fs._alloc_inode_exact(ROOT_INO)
        root.mode = S_IFDIR | 0o755
        root.nlink = 2
        root.atime = root.mtime = root.ctime = now
        fs._write_dir_entries(root, [(ROOT_INO, DT_DIR, "."), (ROOT_INO, DT_DIR, "..")])
        fs._store_inode(root)
        lf_ino = fs._allocate_inode()
        lf = fs._load_inode(lf_ino)
        lf.mode = S_IFDIR | 0o700
        lf.nlink = 2
        lf.atime = lf.mtime = lf.ctime = now
        fs._write_dir_entries(lf, [(lf_ino, DT_DIR, "."), (ROOT_INO, DT_DIR, "..")])
        fs._store_inode(lf)
        fs._dir_add_entry(root, "lost+found", lf_ino, DT_DIR)
        root.nlink += 1
        fs._store_inode(root)
        fs.sync()

    def mount(self, device, kernel=None) -> "MountedExt4":
        return self._apply_tuning(
            MountedExt4(device, self.block_size, self.journal_blocks,
                        cache=self._make_cache(device))
        )


class MountedExt4(MountedExt2):
    """A live SimExt4 instance: SimExt2 plus write-ahead journaling."""

    def __init__(self, device, block_size: int, journal_blocks: int = DEFAULT_JOURNAL_BLOCKS,
                 cache=None):
        if cache is None:
            cache = BufferCache(device, block_size)
        super_raw = cache.read_block(0)
        magic, version, sb_block_size, blocks, inodes, first_data, generation = (
            struct.unpack(SUPER_FMT, super_raw[:SUPER_SIZE])
        )
        if magic != MAGIC:
            raise FsError(EINVAL, f"not a SimExt4 file system (magic {magic!r})")
        if sb_block_size != block_size:
            raise FsError(
                EINVAL,
                f"superblock says block size {sb_block_size}, mounted with {block_size}",
            )
        geometry = Ext4Geometry(device.size_bytes, block_size, journal_blocks)
        self._check_super_geometry(geometry, blocks, inodes, first_data)
        # Journal replay must happen *before* we trust any metadata.
        self._replay_journal(cache, geometry)
        block_bitmap, inode_bitmap = self._read_bitmaps(cache, geometry)
        self._init_raw(device, cache, geometry, block_bitmap, inode_bitmap)
        self.generation = generation
        self._txn_id = generation + 1

    def _init_raw(self, device, cache, geometry, block_bitmap, inode_bitmap) -> None:
        super()._init_raw(device, cache, geometry, block_bitmap, inode_bitmap)
        self._txn_id = 1

    def _write_super(self, generation: int) -> None:
        raw = struct.pack(
            SUPER_FMT, MAGIC, 1, self.geo.block_size,
            self.geo.block_count, self.geo.inode_count,
            self.geo.first_data_block, generation,
        )
        self.cache.write_block(0, raw)

    # ---------------------------------------------------------------- journal --
    @staticmethod
    def _replay_journal(cache: BufferCache, geo: Ext4Geometry) -> None:
        """Apply any committed-but-unretired transaction found on disk."""
        descriptor_raw = cache.read_block(geo.journal_start)
        try:
            magic, record, count, txn = struct.unpack(
                JOURNAL_HEADER_FMT, descriptor_raw[:JOURNAL_HEADER_SIZE]
            )
        except struct.error:
            return
        if magic != JOURNAL_MAGIC or record != JOURNAL_DESCRIPTOR:
            return
        if count + 2 > geo.journal_blocks:
            return  # corrupt descriptor; ignore
        commit_raw = cache.read_block(geo.journal_start + 1 + count)
        commit = struct.unpack(JOURNAL_HEADER_FMT, commit_raw[:JOURNAL_HEADER_SIZE])
        if commit[0] != JOURNAL_MAGIC or commit[1] != JOURNAL_COMMIT or commit[3] != txn:
            return  # no commit record: the transaction never completed
        # Target block numbers are packed after the descriptor header.
        targets = struct.unpack(
            f"<{count}I",
            descriptor_raw[JOURNAL_HEADER_SIZE : JOURNAL_HEADER_SIZE + 4 * count],
        )
        for index, target in enumerate(targets):
            data = cache.read_block(geo.journal_start + 1 + index)
            cache.write_block(target, data)
        # Retire the journal head.
        cache.write_block(geo.journal_start, b"")
        cache.flush()

    def _journal_and_flush(self) -> None:
        """Write-ahead journal the dirty blocks, then checkpoint them."""
        dirty = self.cache.dirty_blocks()
        capacity = self.geo.journal_blocks - 2
        if not dirty:
            return
        if len(dirty) <= capacity:
            header = struct.pack(
                JOURNAL_HEADER_FMT, JOURNAL_MAGIC, JOURNAL_DESCRIPTOR,
                len(dirty), self._txn_id,
            ) + struct.pack(f"<{len(dirty)}I", *(index for index, _ in dirty))
            self.device.write_block(self.geo.journal_start, self.geo.block_size, header)
            for slot, (_, data) in enumerate(dirty):
                self.device.write_block(
                    self.geo.journal_start + 1 + slot, self.geo.block_size, data
                )
            commit = struct.pack(
                JOURNAL_HEADER_FMT, JOURNAL_MAGIC, JOURNAL_COMMIT,
                len(dirty), self._txn_id,
            )
            self.device.write_block(
                self.geo.journal_start + 1 + len(dirty), self.geo.block_size, commit
            )
        # Checkpoint to home locations (large transactions skip the journal,
        # like data blocks in ordered mode).
        self.cache.flush()
        if len(dirty) <= capacity:
            # Retire the journal head now that home locations are durable.
            self.device.write_block(self.geo.journal_start, self.geo.block_size, b"")
        self._txn_id += 1

    def sync(self) -> None:
        self._check_alive()
        for ino in sorted(self._dirty_inodes):
            self._write_inode_to_cache(self._inode_cache[ino])
        self._dirty_inodes.clear()
        self._write_bitmaps()
        self._write_super(self.generation)
        self._journal_and_flush()
