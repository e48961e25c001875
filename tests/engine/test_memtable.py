"""Tests for the memtable: a hash map plus a chunked sorted key index."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import MemTable, TOMBSTONE, memtable
from repro.engine.memtable import ENTRY_OVERHEAD
from repro.errors import ConfigurationError

# A small alphabet and short keys: overwrites, deletes of live keys and
# range bounds that hit stored keys all happen often.
keys = st.binary(min_size=1, max_size=3).map(
    lambda raw: bytes(b"abcd"[byte % 4] for byte in raw)
)
values = st.binary(min_size=0, max_size=64)
bounds = st.one_of(st.none(), keys)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, values),
        st.tuples(st.just("delete"), keys),
        st.tuples(st.just("get"), keys),
        st.tuples(st.just("items"), bounds, bounds),
    ),
    min_size=1,
    max_size=200,
)


class TestBasicOperations:
    def test_put_get(self):
        table = MemTable()
        table.put(b"a", b"1")
        assert table.get(b"a") == (True, b"1")
        assert table.get(b"b") == (False, None)

    def test_update_in_place(self):
        table = MemTable()
        table.put(b"a", b"1")
        table.put(b"a", b"22")
        assert table.get(b"a") == (True, b"22")
        assert len(table) == 1

    def test_delete_leaves_tombstone(self):
        table = MemTable()
        table.put(b"a", b"1")
        table.delete(b"a")
        found, value = table.get(b"a")
        assert found and value is TOMBSTONE
        assert table.tombstone_count == 1

    def test_delete_of_absent_key_recorded(self):
        table = MemTable()
        table.delete(b"ghost")
        assert table.get(b"ghost") == (True, TOMBSTONE)

    def test_undelete(self):
        table = MemTable()
        table.delete(b"a")
        table.put(b"a", b"back")
        assert table.get(b"a") == (True, b"back")
        assert table.tombstone_count == 0

    def test_invalid_inputs(self):
        table = MemTable()
        with pytest.raises(ConfigurationError):
            table.put(b"", b"v")
        with pytest.raises(ConfigurationError):
            table.put("str", b"v")
        with pytest.raises(ConfigurationError):
            table.put(b"k", "str")


class TestOrderedIteration:
    def test_items_sorted(self):
        table = MemTable()
        for key in (b"m", b"a", b"z", b"b"):
            table.put(key, b"v")
        assert [k for k, _ in table.items()] == [b"a", b"b", b"m", b"z"]

    def test_range_bounds(self):
        table = MemTable()
        for i in range(10):
            table.put(f"k{i}".encode(), b"v")
        keys_in_range = [k for k, _ in table.items(b"k3", b"k7")]
        assert keys_in_range == [b"k3", b"k4", b"k5", b"k6"]

    def test_tombstones_included_in_iteration(self):
        table = MemTable()
        table.put(b"a", b"1")
        table.delete(b"b")
        entries = dict(table.items())
        assert entries[b"b"] is TOMBSTONE


class TestSealing:
    def test_sealed_rejects_writes(self):
        table = MemTable()
        table.put(b"a", b"1")
        table.seal()
        assert table.sealed
        with pytest.raises(ConfigurationError):
            table.put(b"b", b"2")
        # reads still work
        assert table.get(b"a") == (True, b"1")


class TestAccounting:
    def test_bytes_grow_with_payload(self):
        table = MemTable()
        before = table.approximate_bytes
        table.put(b"key", b"x" * 1000)
        assert table.approximate_bytes >= before + 1000

    def test_update_adjusts_bytes(self):
        table = MemTable()
        table.put(b"key", b"x" * 1000)
        large = table.approximate_bytes
        table.put(b"key", b"x")
        assert table.approximate_bytes < large


class TestAgainstAModel:
    """Every observable of the table against a ``dict`` and ``sorted``."""

    @given(operations, st.sampled_from([2, 3, 8, 512]))
    @settings(max_examples=150, deadline=None)
    def test_interleaved_operations_match_dict_and_sorted(
        self, ops, chunk_keys
    ):
        # Small chunks make a few dozen keys split the index many times.
        configured = memtable.CHUNK_KEYS
        memtable.CHUNK_KEYS = chunk_keys
        try:
            self._run(ops)
        finally:
            memtable.CHUNK_KEYS = configured

    @staticmethod
    def _run(ops):
        table = MemTable()
        model: dict[bytes, bytes | None] = {}

        def expected_items(lo, hi):
            return [
                (key, model[key])
                for key in sorted(model)
                if (lo is None or key >= lo) and (hi is None or key < hi)
            ]

        for op in ops:
            if op[0] == "put":
                table.put(op[1], op[2])
                model[op[1]] = op[2]
            elif op[0] == "delete":
                table.delete(op[1])
                model[op[1]] = TOMBSTONE
            elif op[0] == "get":
                found, value = table.get(op[1])
                assert found == (op[1] in model)
                assert value == model.get(op[1])
            else:
                assert list(table.items(op[1], op[2])) == expected_items(
                    op[1], op[2]
                )
            assert len(table) == len(model)
            assert table.tombstone_count == sum(
                value is TOMBSTONE for value in model.values()
            )
            assert table.approximate_bytes == sum(
                len(key) + len(value or b"") + ENTRY_OVERHEAD
                for key, value in model.items()
            )
        assert list(table.items()) == expected_items(None, None)

    def test_ascending_and_descending_loads_split_chunks(self, monkeypatch):
        monkeypatch.setattr(memtable, "CHUNK_KEYS", 4)
        for order in (range(100), reversed(range(100))):
            table = MemTable()
            for index in order:
                table.put(b"k%03d" % index, b"v")
            assert [key for key, _ in table.items()] == [
                b"k%03d" % index for index in range(100)
            ]
            assert [key for key, _ in table.items(b"k010", b"k013")] == [
                b"k010", b"k011", b"k012"
            ]
            assert list(table.items(b"k100")) == []
            assert list(table.items(None, b"k000")) == []
