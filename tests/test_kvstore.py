"""Unit + property tests for the log-structured hash store and blob store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.kvstore import BlobStore, HashStore


class TestHashStoreBasics:
    def test_fixed_values_roundtrip(self):
        store = HashStore()
        store.put_many_fixed(np.asarray([5, 9, 5]), np.asarray([100, 200, 300]))
        qidx, refs = store.lookup_refs(np.asarray([9, 5, 7]))
        by_query = {}
        for qi, ref in zip(qidx, refs):
            by_query.setdefault(int(qi), []).append(int(ref))
        assert by_query[0] == [200]
        assert sorted(by_query[1]) == [100, 300]  # multimap: both kept
        assert 2 not in by_query

    def test_put_one_and_variable_values(self):
        store = HashStore()
        store.put_many(np.asarray([7]), b"xyz", np.asarray([0, 3]))
        store.put_many(np.asarray([7]), b"ab", np.asarray([0, 2]))
        qidx, values = store.lookup_many(np.asarray([7]))
        assert sorted(values) == [b"ab", b"xyz"]

    def test_empty_lookup(self):
        store = HashStore()
        qidx, values = store.lookup_many(np.asarray([1, 2]))
        assert qidx.size == 0 and values == []

    def test_lookup_refs_rejects_variable_width(self):
        store = HashStore()
        store.put_many(np.asarray([1]), b"abc", np.asarray([0, 3]))
        with pytest.raises(StorageError):
            store.lookup_refs(np.asarray([1]))

    def test_offsets_validation(self):
        store = HashStore()
        with pytest.raises(StorageError):
            store.put_many(np.asarray([1]), b"ab", np.asarray([0, 1, 2]))
        with pytest.raises(StorageError):
            store.put_many(np.asarray([1]), b"ab", np.asarray([0, 1]))  # does not span

    def test_scan_order_and_content(self):
        store = HashStore()
        store.put_many_fixed(np.asarray([3, 1, 2]), np.asarray([30, 10, 20]))
        entries = list(store.scan())
        assert [k for k, _ in entries] == [1, 2, 3]  # sorted segment
        assert np.frombuffer(entries[0][1], dtype="<i8")[0] == 10

    def test_incremental_puts_refinalize(self):
        store = HashStore()
        store.put_many_fixed(np.asarray([1]), np.asarray([10]))
        assert store.lookup_refs(np.asarray([1]))[1].tolist() == [10]
        store.put_many_fixed(np.asarray([2]), np.asarray([20]))
        qidx, refs = store.lookup_refs(np.asarray([1, 2]))
        assert sorted(refs.tolist()) == [10, 20]

    def test_keys_array_sorted_with_duplicates(self):
        store = HashStore()
        store.put_many_fixed(np.asarray([4, 4, 1]), np.asarray([0, 1, 2]))
        assert store.keys_array().tolist() == [1, 4, 4]


class TestHashStorePersistence:
    def test_flush_and_load(self, tmp_path):
        store = HashStore()
        keys = np.asarray([10, 20, 30])
        store.put_many_fixed(keys, keys * 7)
        path = str(tmp_path / "seg.bin")
        written = store.flush(path)
        assert written > 0
        loaded = HashStore.load(path)
        qidx, refs = loaded.lookup_refs(keys)
        assert sorted(refs.tolist()) == [70, 140, 210]

    def test_flush_empty(self, tmp_path):
        store = HashStore()
        path = str(tmp_path / "empty.bin")
        store.flush(path)
        loaded = HashStore.load(path)
        assert loaded.n_entries == 0


@st.composite
def key_value_batches(draw):
    n = draw(st.integers(1, 80))
    keys = draw(
        st.lists(st.integers(0, 50), min_size=n, max_size=n)
    )
    values = draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n))
    return np.asarray(keys, dtype=np.int64), np.asarray(values, dtype=np.int64)


class TestHashStoreProperties:
    @given(key_value_batches(), st.lists(st.integers(0, 60), max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_lookup_matches_reference_multimap(self, batch, query):
        keys, values = batch
        store = HashStore()
        store.put_many_fixed(keys, values)
        reference: dict[int, list[int]] = {}
        for k, v in zip(keys, values):
            reference.setdefault(int(k), []).append(int(v))
        query_arr = np.asarray(query, dtype=np.int64)
        qidx, refs = store.lookup_refs(query_arr)
        got: dict[int, list[int]] = {}
        for qi, ref in zip(qidx, refs):
            got.setdefault(int(qi), []).append(int(ref))
        # every query *position* independently sees the full multimap bucket
        for pos, key in enumerate(query):
            assert sorted(got.get(pos, [])) == sorted(reference.get(key, []))

    @given(key_value_batches())
    @settings(max_examples=50, deadline=None)
    def test_disk_bytes_accounts_keys_and_values(self, batch):
        keys, values = batch
        store = HashStore()
        store.put_many_fixed(keys, values)
        store.finalize()
        assert store.disk_bytes() == keys.size * 8 + values.size * 8


class TestBlobStore:
    def test_append_get(self):
        blobs = BlobStore()
        (a,) = blobs.append_buffer(b"hello", [5])
        b, c = blobs.append_buffer(b"world!ab", [6, 2])
        assert blobs.get(a) == b"hello"
        assert blobs.get(b) == b"world!"
        assert blobs.get(c) == b"ab"
        assert [a, b, c] == [0, 1, 2]
        assert blobs.n_entries == 3

    def test_unknown_id(self):
        blobs = BlobStore()
        with pytest.raises(StorageError):
            blobs.get(3)

    def test_disk_accounting(self):
        blobs = BlobStore()
        blobs.append_buffer(b"12345", [5])
        assert blobs.disk_bytes() == 5 + 8

    def test_flush(self, tmp_path):
        blobs = BlobStore()
        blobs.append_buffer(b"payload", [7])
        written = blobs.flush(str(tmp_path / "blobs.bin"))
        assert written > 7
