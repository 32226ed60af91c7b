"""Batch-scan engine equivalence: BatchProbe vs the per-entry probes.

The batch engine answers a whole value heap per codec-tag group, so its
verdicts and intersections must be *identical* to calling the per-entry
in-situ probes entry by entry — on randomized heaps mixing every codec tag
(including the bitmap ``0x42``), on multi-field values, and through the
``RegionEntryTable`` scan surface.  Companion to the store-level property
tests in ``test_store_properties.py``, which check the same batch paths
against brute-force joins.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lineage_store import (
    RegionEntryTable,
    decode_full_value,
    encode_full_values,
)
from repro.errors import StorageError
from repro.storage import codecs
from repro.storage.codecs import BatchProbe
from tests.conftest import full_value


def arr_of(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


@st.composite
def heap_entry(draw):
    """One cell set biased so every codec tag shows up in heaps."""
    kind = draw(st.sampled_from(["scattered", "runs", "dense", "unsorted", "extreme"]))
    if kind == "scattered":
        return arr_of(draw(st.lists(st.integers(0, 2**30), min_size=1, max_size=40)))
    if kind == "runs":
        start = draw(st.integers(0, 2**20))
        length = draw(st.integers(2, 80))
        return np.arange(start, start + length, dtype=np.int64)
    if kind == "dense":
        base = draw(st.integers(0, 2**20))
        span = draw(st.integers(2, 200))
        offsets = draw(
            st.lists(st.integers(0, span - 1), min_size=1, max_size=span, unique=True)
        )
        return base + np.sort(arr_of(offsets))
    if kind == "unsorted":
        values = draw(st.lists(st.integers(-(2**20), 2**20), min_size=1, max_size=30))
        return arr_of(values)
    return arr_of([draw(st.integers(-(2**63), 2**62)), 2**63 - 1])


@st.composite
def heaps(draw):
    """A concatenated value heap plus a sorted (possibly duplicated) query."""
    entries = draw(st.lists(heap_entry(), min_size=1, max_size=12))
    bufs = [codecs.encode_cells(arr) for arr in entries]
    offsets = np.zeros(len(bufs), dtype=np.int64)
    np.cumsum([len(b) for b in bufs[:-1]], out=offsets[1:])
    pool: list[int] = [int(v) for arr in entries for v in arr[:4]]
    query = draw(
        st.lists(
            st.one_of(st.sampled_from(pool), st.integers(-(2**21), 2**21)),
            max_size=25,
        )
    )
    return b"".join(bufs), offsets, entries, np.sort(arr_of(query))


class TestBatchMatchesPerEntry:
    @given(heaps())
    @settings(max_examples=150, deadline=None)
    def test_contains_any_verdicts_identical(self, case):
        buf, offsets, entries, query = case
        verdicts = BatchProbe(buf, offsets).contains_any(query)
        expected = np.asarray(
            [codecs.contains_any(buf, query, int(off)) for off in offsets], dtype=bool
        )
        assert np.array_equal(verdicts, expected)

    @given(heaps())
    @settings(max_examples=150, deadline=None)
    def test_intersections_identical(self, case):
        buf, offsets, entries, query = case
        hit_ids, parts = BatchProbe(buf, offsets).intersect(query)
        by_entry = dict(zip(hit_ids.tolist(), parts))
        for e, off in enumerate(offsets):
            expected = codecs.intersect(buf, query, int(off))
            if expected.size:
                assert by_entry[e].tolist() == expected.tolist()
            else:
                assert e not in by_entry  # non-hits are never materialised

    @given(heaps())
    @settings(max_examples=60, deadline=None)
    def test_repeat_queries_reuse_lowered_tables(self, case):
        buf, offsets, entries, query = case
        query = np.sort(np.append(query, entries[0][:1]))  # never empty
        probe = BatchProbe(buf, offsets)
        first = probe.contains_any(query)
        assert probe._lowered is not None  # cached after the first pass
        again = probe.contains_any(query)
        assert np.array_equal(first, again)

    def test_empty_query_and_empty_heap(self):
        probe = BatchProbe(b"", np.empty(0, dtype=np.int64))
        assert probe.contains_any(arr_of([1, 2])).size == 0
        hit_ids, parts = probe.intersect(arr_of([1, 2]))
        assert hit_ids.size == 0 and parts == []
        buf = codecs.encode_cells(np.arange(5, dtype=np.int64))
        probe = BatchProbe(buf, arr_of([0]))
        assert not probe.contains_any(np.empty(0, dtype=np.int64)).any()

    def test_value_overrunning_heap_slot_raises(self):
        good = codecs.encode_cells(arr_of([3, 4, 5]))
        overstated = bytearray(good)
        overstated[1] = 9  # header now claims more payload than the slot has
        buf = bytes(overstated) + codecs.encode_cells(arr_of([7]))
        probe = BatchProbe(buf, arr_of([0, len(overstated)]), arr_of([len(overstated), len(buf)]))
        with pytest.raises(StorageError):
            probe.contains_any(arr_of([3]))


class TestRegionEntryTableBatch:
    def test_multi_field_probe_matches_per_entry(self):
        table = RegionEntryTable((16, 16))
        rng = np.random.default_rng(11)
        values = []
        for j in range(12):
            in0 = np.sort(rng.choice(256, size=rng.integers(1, 9), replace=False))
            in1 = np.arange(j * 3, j * 3 + 5, dtype=np.int64)
            values.append((in0.astype(np.int64), in1))
            table.add_entry(arr_of([j]), full_value([in0, in1]))
        query = np.sort(rng.choice(256, size=24, replace=False)).astype(np.int64)
        for field in (0, 1):
            verdicts = table.batch_probe(field).contains_any(query)
            expected = [
                table.value_contains_any(e, query, field=field) for e in range(12)
            ]
            assert verdicts.tolist() == expected
            hit_ids, parts = table.batch_probe(field).intersect(query)
            for e, part in zip(hit_ids, parts):
                assert (
                    part.tolist()
                    == table.value_intersect(int(e), query, field=field).tolist()
                )

    def test_probe_cache_invalidated_by_new_entries(self):
        table = RegionEntryTable((8, 8))
        table.add_entry(arr_of([1]), codecs.encode_cells(arr_of([10, 11])))
        probe = table.batch_probe()
        assert probe.n_entries == 1
        assert table.batch_probe() is probe  # cached while unchanged
        table.add_entry(arr_of([2]), codecs.encode_cells(arr_of([20])))
        fresh = table.batch_probe()
        assert fresh is not probe and fresh.n_entries == 2
        assert fresh.contains_any(arr_of([20])).tolist() == [False, True]


class TestBlobStoreBatch:
    def test_blob_probe_matches_per_blob_and_invalidates_on_append(self):
        from repro.storage.kvstore import BlobStore

        blobs = BlobStore("b")
        sets = [
            arr_of([5, 9, 12]),
            np.arange(100, 160, dtype=np.int64),
            np.arange(30, dtype=np.int64) * 3,
        ]
        for arr in sets:
            value = codecs.encode_cells(arr)
            blobs.append_buffer(value, [len(value)])
        query = np.sort(arr_of([9, 101, 33, 999]))
        probe = blobs.batch_probe()
        expected = [bool(codecs.contains_any(blobs.get(j), query)) for j in range(3)]
        assert probe.contains_any(query).tolist() == expected
        assert blobs.batch_probe() is probe  # cached while unchanged
        value = codecs.encode_cells(arr_of([999]))
        blobs.append_buffer(value, [len(value)])
        fresh = blobs.batch_probe()
        assert fresh is not probe
        assert fresh.contains_any(query).tolist() == expected + [True]

    def test_blob_probe_multi_field(self):
        from repro.storage.kvstore import BlobStore

        blobs = BlobStore("b")
        in0, in1 = arr_of([1, 2, 3]), arr_of([50, 51])
        value = full_value([in0, in1])
        blobs.append_buffer(value, [len(value)])
        assert blobs.batch_probe(field=0).contains_any(arr_of([2])).tolist() == [True]
        assert blobs.batch_probe(field=1).contains_any(arr_of([2])).tolist() == [False]
        assert blobs.batch_probe(field=1).contains_any(arr_of([51])).tolist() == [True]


class TestFullValueCrossCodec:
    """Every codec tag round-trips through the store value envelope."""

    CASES = {
        "delta": arr_of([0, 7, 9, 1000]),
        "interval": np.arange(500, dtype=np.int64),
        "bitmap": np.arange(60, dtype=np.int64) * 3,
        "raw": arr_of([-(2**63), 0, 2**63 - 1]),
    }

    def test_tags_cover_all_codecs(self):
        tags = {codecs.encode_cells(arr)[0] for arr in self.CASES.values()}
        assert tags == {
            codecs.TAG_DELTA,
            codecs.TAG_INTERVAL,
            codecs.TAG_BITMAP,
            codecs.TAG_RAW,
        }

    def test_encode_full_value_roundtrip(self):
        fields = list(self.CASES.values())
        buf, lengths = encode_full_values(fields, [[0, len(f)] for f in fields])
        assert buf == full_value(fields) and lengths.tolist() == [len(buf)]
        out = decode_full_value(buf, len(fields))
        for arr, back in zip(fields, out):
            assert back.tolist() == np.sort(arr).tolist()

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_single_field_roundtrip(self, name):
        arr = np.sort(self.CASES[name])
        buf, _ = encode_full_values([arr], [[0, arr.size]])
        out = decode_full_value(buf, 1)
        assert out[0].tolist() == arr.tolist()

    def test_batch_probe_reads_every_tag_in_one_heap(self):
        fields = [np.sort(arr) for arr in self.CASES.values()]
        bufs = [codecs.encode_cells(arr) for arr in fields]
        offsets = np.zeros(len(bufs), dtype=np.int64)
        np.cumsum([len(b) for b in bufs[:-1]], out=offsets[1:])
        heap = b"".join(bufs)
        for i, arr in enumerate(fields):
            query = np.sort(arr[:2])
            verdicts = BatchProbe(heap, offsets).contains_any(query)
            assert verdicts[i]
