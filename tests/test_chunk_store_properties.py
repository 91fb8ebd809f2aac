"""Chunk-store writes against a flat ``bytearray`` model.

The device keeps its bytes as a table of immutable chunks and takes a
single-chunk shortcut for writes that land inside one chunk (every
file-system block write at the default geometry).  These properties pin
the write contract whichever path a request takes: the image equals a
flat model, exactly the chunks whose bytes changed are dirty, identical
rewrites keep the chunk object, every request is charged in order, and
rejected requests raise ``DeviceError`` without touching anything.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import Cost, SimClock
from repro.errors import DeviceError
from repro.storage import HDDBlockDevice, RAMBlockDevice
from repro.storage.mtd import MTDDevice

#: (device class, size, chunk size): the default 4 KiB chunks, a small
#: chunk size that makes ordinary writes span chunks, and a geometry
#: whose last chunk is a short tail
BLOCK_GEOMETRIES = [
    (RAMBlockDevice, 4 * 4096, 4096),
    (HDDBlockDevice, 4096, 96),
    (RAMBlockDevice, 8192, 1536),
]


def as_buffer(kind: str, raw: bytes):
    """The same bytes as each buffer type callers hand the device."""
    if kind == "bytearray":
        return bytearray(raw)
    if kind == "memoryview":
        return memoryview(raw)
    return raw


def chunk_images(chunks, chunk_size):
    """Split a flat model into the byte image each chunk should hold."""
    return [bytes(chunks[i : i + chunk_size])
            for i in range(0, len(chunks), chunk_size)]


class Ledger:
    """The charges a run of requests should leave, summed in order."""

    def __init__(self):
        self.now = 0.0
        self.by_category = {}
        self.requests = 0
        self.bytes = 0

    def charge(self, seconds: float, category: str, nbytes: int) -> None:
        self.now += seconds
        self.by_category[category] = self.by_category.get(category, 0.0) + seconds
        self.requests += 1
        self.bytes += nbytes


#: the buffer type a write request hands the device
KINDS = st.sampled_from(["bytes", "bytearray", "memoryview"])


def writes(size: int):
    """Strategy: one in-range ``(offset, data)`` write of 0..600 bytes."""
    return st.integers(0, size).flatmap(
        lambda offset: st.tuples(
            st.just(offset),
            st.binary(min_size=0, max_size=min(600, size - offset)),
        )
    )


def check_write(device, model, ledger, offset, raw, kind, cost, category):
    """Apply one write to device, model and ledger; assert the contract."""
    cs = device.chunk_size
    before = list(device._chunks)
    dirty_before = set(device._dirty)
    old_images = chunk_images(model, cs)
    model[offset : offset + len(raw)] = raw
    new_images = chunk_images(model, cs)
    changed = {i for i, (a, b) in enumerate(zip(old_images, new_images)) if a != b}

    device.write(offset, as_buffer(kind, raw))
    ledger.charge(cost(len(raw)), category, len(raw))

    assert b"".join(device._chunks) == bytes(model)
    assert all(type(chunk) is bytes for chunk in device._chunks)
    assert device._dirty == dirty_before | changed
    for index, chunk in enumerate(device._chunks):
        if index not in changed:
            assert chunk is before[index]
    assert device.clock.now == ledger.now
    assert device.clock.by_category == ledger.by_category
    assert device.stats.write_requests == ledger.requests
    assert device.stats.bytes_written == ledger.bytes


@pytest.mark.parametrize("cls,size,chunk_size", BLOCK_GEOMETRIES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_block_device_writes_match_flat_model(cls, size, chunk_size, data):
    device = cls(size, clock=SimClock(), name="dev", chunk_size=chunk_size)
    model = bytearray(size)
    ledger = Ledger()

    def cost(n):
        return cls.access_cost + cls.per_byte_cost * n

    for _ in range(data.draw(st.integers(1, 12), label="writes")):
        if data.draw(st.booleans(), label="rewrite"):
            # rewrite bytes already on the device: never dirties a chunk
            offset = data.draw(st.integers(0, size - 1), label="offset")
            length = data.draw(st.integers(0, min(600, size - offset)), label="len")
            raw = bytes(model[offset : offset + length])
        else:
            offset, raw = data.draw(writes(size), label="write")
        kind = data.draw(KINDS, label="kind")
        check_write(device, model, ledger, offset, raw, kind, cost, cls.cost_category)
        if data.draw(st.booleans(), label="snapshot"):
            device.snapshot_chunks()
            assert device._dirty == set()


@pytest.mark.parametrize("cls,size,chunk_size", BLOCK_GEOMETRIES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_rejected_block_writes_change_nothing(cls, size, chunk_size, data):
    device = cls(size, clock=SimClock(), name="dev", chunk_size=chunk_size)
    offset, raw = data.draw(writes(size), label="seed write")
    kind = data.draw(KINDS, label="kind")
    device.write(offset, as_buffer(kind, raw))
    chunks = list(device._chunks)
    dirty = set(device._dirty)
    now = device.clock.now
    stats = (device.stats.write_requests, device.stats.bytes_written)

    bad_offset = data.draw(st.one_of(st.integers(-600, -1),
                                     st.integers(size - 599, size + 600)))
    bad = data.draw(st.binary(min_size=1, max_size=600))
    if 0 <= bad_offset and bad_offset + len(bad) <= size:
        bad = bad + b"\x00" * (size - bad_offset - len(bad) + 1)
    with pytest.raises(DeviceError):
        device.write(bad_offset, bad)
    block_size = data.draw(st.sampled_from([512, 1024]))
    with pytest.raises(DeviceError):
        device.write_block(0, block_size, b"x" * (block_size + 1))
    device.read_only = True
    with pytest.raises(DeviceError):
        device.write(0, b"")

    assert all(a is b for a, b in zip(device._chunks, chunks))
    assert device._dirty == dirty
    assert device.clock.now == now
    assert (device.stats.write_requests, device.stats.bytes_written) == stats


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mtd_writes_match_flat_model(data):
    size, erase_block = 512, 64
    device = MTDDevice(size, erase_block_size=erase_block, clock=SimClock())
    model = bytearray(b"\xff" * size)
    ledger = Ledger()

    def cost(n):
        return Cost.MTD_ACCESS + Cost.MTD_PER_BYTE * n

    for _ in range(data.draw(st.integers(1, 12), label="ops")):
        if data.draw(st.booleans(), label="erase"):
            block = data.draw(st.integers(0, device.erase_block_count - 1))
            before = device._chunks[block]
            device.erase_block(block)
            ledger.now += Cost.MTD_ERASE
            ledger.by_category["mtd-erase"] = (
                ledger.by_category.get("mtd-erase", 0.0) + Cost.MTD_ERASE)
            model[block * erase_block : (block + 1) * erase_block] = (
                b"\xff" * erase_block)
            # an erased block keeps its chunk; any other gets the shared one
            assert device._chunks[block] is (
                before if before == device._erased_chunk else device._erased_chunk)
            continue
        offset, raw = data.draw(writes(size), label="write")
        kind = data.draw(KINDS, label="kind")
        current = bytes(model[offset : offset + len(raw)])
        if data.draw(st.booleans(), label="compatible"):
            # programming may only clear bits
            raw = bytes(c & r for c, r in zip(current, raw))
        if any(c & r != r for c, r in zip(current, raw)):
            chunks = list(device._chunks)
            with pytest.raises(DeviceError):
                device.write(offset, as_buffer(kind, raw))
            assert all(a is b for a, b in zip(device._chunks, chunks))
            assert device.clock.now == ledger.now
            continue
        check_write(device, model, ledger, offset, raw, kind, cost, "mtd-io")

    with pytest.raises(DeviceError):
        device.write(size - 1, b"\x00\x00")
    with pytest.raises(DeviceError):
        device.write(-1, b"\x00")
