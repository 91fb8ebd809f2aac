"""Unit and property tests for the allocation bitmap."""

import pytest
from hypothesis import given, strategies as st

from repro.util.bitmap import Bitmap


class TestBasicOperations:
    def test_new_bitmap_is_empty(self):
        bitmap = Bitmap(100)
        assert bitmap.set_count == 0
        assert bitmap.free_count == 100
        assert not any(bitmap.get(i) for i in range(100))

    def test_set_and_get(self):
        bitmap = Bitmap(16)
        bitmap.set(3)
        assert bitmap.get(3)
        assert not bitmap.get(2)
        assert bitmap.set_count == 1

    def test_set_is_idempotent(self):
        bitmap = Bitmap(8)
        bitmap.set(5)
        bitmap.set(5)
        assert bitmap.set_count == 1

    def test_clear(self):
        bitmap = Bitmap(8)
        bitmap.set(5)
        bitmap.clear(5)
        assert not bitmap.get(5)
        assert bitmap.set_count == 0

    def test_clear_is_idempotent(self):
        bitmap = Bitmap(8)
        bitmap.clear(5)
        bitmap.clear(5)
        assert bitmap.set_count == 0

    def test_out_of_range_raises(self):
        bitmap = Bitmap(8)
        with pytest.raises(IndexError):
            bitmap.get(8)
        with pytest.raises(IndexError):
            bitmap.set(-1)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Bitmap(0)


class TestAllocation:
    def test_allocate_returns_first_free(self):
        bitmap = Bitmap(8)
        assert bitmap.allocate() == 0
        assert bitmap.allocate() == 1

    def test_allocate_with_goal_wraps(self):
        bitmap = Bitmap(4)
        bitmap.set(2)
        bitmap.set(3)
        assert bitmap.allocate(start=2) == 0  # wraps past the set tail

    def test_allocate_full_returns_none(self):
        bitmap = Bitmap(3)
        for _ in range(3):
            assert bitmap.allocate() is not None
        assert bitmap.allocate() is None

    def test_find_free_does_not_mutate(self):
        bitmap = Bitmap(4)
        assert bitmap.find_free() == 0
        assert bitmap.set_count == 0

    def test_allocate_run_contiguous(self):
        bitmap = Bitmap(10)
        bitmap.set(1)
        start = bitmap.allocate_run(3)
        assert start == 2
        assert all(bitmap.get(i) for i in range(2, 5))

    def test_allocate_run_no_space(self):
        bitmap = Bitmap(4)
        bitmap.set(1)
        bitmap.set(3)
        assert bitmap.allocate_run(2) is None

    def test_allocate_run_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Bitmap(4).allocate_run(0)


class TestSerialization:
    def test_roundtrip(self):
        bitmap = Bitmap(20)
        for index in (0, 7, 8, 19):
            bitmap.set(index)
        restored = Bitmap.from_bytes(bitmap.to_bytes(), 20)
        assert restored == bitmap
        assert restored.set_count == 4

    def test_from_bytes_masks_tail(self):
        # trailing garbage bits past nbits must not leak into the count
        restored = Bitmap.from_bytes(b"\xff", 3)
        assert restored.set_count == 3
        assert restored.free_count == 0

    def test_from_bytes_short_buffer_rejected(self):
        with pytest.raises(ValueError):
            Bitmap.from_bytes(b"", 8)

    def test_byte_length(self):
        assert len(Bitmap(1).to_bytes()) == 1
        assert len(Bitmap(8).to_bytes()) == 1
        assert len(Bitmap(9).to_bytes()) == 2

    def test_copy_is_independent(self):
        bitmap = Bitmap(8)
        bitmap.set(1)
        clone = bitmap.copy()
        clone.set(2)
        assert not bitmap.get(2)
        assert clone.get(1)


@given(st.sets(st.integers(min_value=0, max_value=199), max_size=60))
def test_property_roundtrip_preserves_bits(indices):
    bitmap = Bitmap(200)
    for index in indices:
        bitmap.set(index)
    restored = Bitmap.from_bytes(bitmap.to_bytes(), 200)
    assert set(restored.iter_set()) == indices
    assert restored.set_count == len(indices)


@given(st.lists(st.tuples(st.booleans(),
                          st.integers(min_value=0, max_value=63)), max_size=80))
def test_property_count_matches_state(operations):
    bitmap = Bitmap(64)
    shadow = set()
    for is_set, index in operations:
        if is_set:
            bitmap.set(index)
            shadow.add(index)
        else:
            bitmap.clear(index)
            shadow.discard(index)
    assert bitmap.set_count == len(shadow)
    assert set(bitmap.iter_set()) == shadow


@given(st.integers(min_value=1, max_value=100))
def test_property_allocate_exhausts_exactly(nbits):
    bitmap = Bitmap(nbits)
    allocated = set()
    while True:
        index = bitmap.allocate()
        if index is None:
            break
        assert index not in allocated
        allocated.add(index)
    assert len(allocated) == nbits


def linear_find_free(bitmap, start):
    """The reference next-fit definition: scan ``start..nbits`` and then
    wrap to ``0..start``, one ``get`` per bit."""
    if bitmap.set_count >= bitmap.nbits:
        return None
    for index in list(range(start, bitmap.nbits)) + list(range(0, start)):
        if not bitmap.get(index):
            return index
    return None


@given(st.data())
def test_property_find_free_matches_linear_scan(data):
    nbits = data.draw(st.integers(1, 300), label="nbits")
    bitmap = Bitmap(nbits)
    dense = data.draw(st.booleans(), label="dense")
    for index in range(nbits):
        # dense maps leave long runs of full bytes for the skip path
        if data.draw(st.integers(0, 9)) < (9 if dense else 4):
            bitmap.set(index)
    start = data.draw(st.integers(0, nbits + 9), label="start")
    assert bitmap.find_free(start) == linear_find_free(bitmap, start)


def test_find_free_negative_start_raises():
    with pytest.raises(IndexError):
        Bitmap(8).find_free(-1)


@given(st.binary(min_size=1, max_size=64), st.data())
def test_property_from_bytes_count_matches_per_bit_count(raw, data):
    nbits = data.draw(st.integers(1, len(raw) * 8), label="nbits")
    bitmap = Bitmap.from_bytes(raw, nbits)
    expected = sum((raw[i >> 3] >> (i & 7)) & 1 for i in range(nbits))
    assert bitmap.set_count == expected
    assert bitmap.free_count == nbits - expected
    assert sum(1 for _ in bitmap.iter_set()) == expected
