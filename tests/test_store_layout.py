"""The on-disk contract of every store layout, pinned byte for byte.

Each layout's component names are its segment section prefixes, so a
rename or reorder of a component silently changes the file format; the
only symptom would otherwise be ``load_segment`` refusing segments written
by an older build.  These cases ingest one fixed sink per layout, flush it,
and pin the ordered section names, the crc32 of every section and the
crc32 of the whole file.
"""

import zlib

import numpy as np
import pytest

from repro.core.lineage_store import make_store
from repro.core.modes import (
    COMP_ONE_B,
    FULL_MANY_B,
    FULL_MANY_F,
    FULL_ONE_B,
    FULL_ONE_F,
    PAY_MANY_B,
    PAY_ONE_B,
)
from repro.core.model import BufferSink
from repro.ops.base import LineageContext
from repro.storage import segment as seglib

OUT_SHAPE = (6, 8)
IN_SHAPES = ((6, 8), (4, 5))


def cells(*coords):
    return np.asarray(coords, dtype=np.int64)


def layout_sink() -> BufferSink:
    """One-cell, one-row and region batches: full pairs over two inputs
    plus payload pairs, so every layout finds something to store."""
    ctx = LineageContext(frozenset())
    # region pairs over both inputs
    ctx.lwrite(cells((0, 0), (0, 1)), cells((1, 1), (1, 2), (2, 2)), cells((0, 0)))
    ctx.lwrite(
        cells((4, 4), (4, 5), (5, 5)),
        cells((3, 3), (3, 4), (3, 5), (3, 6), (3, 7)),
        cells((2, 2), (2, 3)),
    )
    # one cell on every side
    ctx.lwrite(cells((5, 7)), cells((5, 7)), cells((3, 4)))
    # one-row batch: row i is its own one-to-one pair
    ctx.lwrite_elementwise(
        cells((2, 3), (2, 4), (3, 0)),
        cells((2, 3), (2, 4), (3, 0)),
        cells((1, 1), (1, 2), (0, 4)),
    )
    ctx.lwrite_payload(cells((1, 1), (1, 2), (1, 3)), b"PAY")
    ctx.lwrite_payload(cells((5, 0)), b"Z")
    ctx.lwrite_payload_batch(
        cells((3, 3), (4, 4), (0, 7)), np.asarray([[1], [2], [3]], dtype=np.uint8)
    )
    return ctx.sink


#: strategy label -> ordered (section name, crc32 of its bytes)
PINNED = {
    "<-FullOne": [
        ("store", 0x92aa2e1d),
        ("direct0.meta", 0x7780c807),
        ("direct0.keys", 0x6e4303b2),
        ("direct0.offsets", 0x19d1b55f),
        ("direct0.buf", 0x6e4303b2),
        ("direct1.meta", 0x7780c807),
        ("direct1.keys", 0x6e4303b2),
        ("direct1.offsets", 0x19d1b55f),
        ("direct1.buf", 0x47580faa),
        ("refs.meta", 0x6e9bf946),
        ("refs.keys", 0x80f389d2),
        ("refs.offsets", 0x05681d9e),
        ("refs.buf", 0x0a0bc999),
        ("blobs.meta", 0x1c46d82f),
        ("blobs.buf", 0x468bff4b),
        ("blobs.ends", 0x9e8028f6),
        ("blobs.probe0.run_starts", 0x00000000),
        ("blobs.probe0.run_ends", 0x00000000),
        ("blobs.probe0.run_eid", 0x00000000),
        ("blobs.probe0.cell_values", 0x00000000),
        ("blobs.probe0.cell_eid", 0x00000000),
        ("blobs.probe0.bm", 0xdf31759b),
        ("blobs.probe1.run_starts", 0x00000000),
        ("blobs.probe1.run_ends", 0x00000000),
        ("blobs.probe1.run_eid", 0x00000000),
        ("blobs.probe1.cell_values", 0x6522df69),
        ("blobs.probe1.cell_eid", 0x6522df69),
        ("blobs.probe1.bm", 0xcef112e0),
        ("filters.meta", 0xd602d932),
        ("filters.b.bits", 0x558f9030),
    ],
    "<-FullMany": [
        ("store", 0x3536d078),
        ("table.meta", 0x36d24ef1),
        ("table.keys", 0x0e6b568a),
        ("table.koff", 0xc3650945),
        ("table.voff", 0x03d49a68),
        ("table.vbuf", 0xfdb6abc0),
        ("table.lo", 0xb899e5c6),
        ("table.hi", 0x5d70665e),
        ("table.rtree.meta", 0xd32e349a),
        ("table.rtree.data_ids", 0x75aaec35),
        ("table.rtree.data_lo", 0x20d856a6),
        ("table.rtree.data_hi", 0xfe2c65bf),
        ("table.rtree.l0.lo", 0xecbb4b55),
        ("table.rtree.l0.hi", 0x9c279f5a),
        ("table.rtree.l0.child_start", 0x6522df69),
        ("table.rtree.l0.child_count", 0xa34dd6ee),
        ("table.probe0.run_starts", 0x00000000),
        ("table.probe0.run_ends", 0x00000000),
        ("table.probe0.run_eid", 0x00000000),
        ("table.probe0.cell_values", 0xc204202c),
        ("table.probe0.cell_eid", 0xe500b373),
        ("table.probe0.bm", 0xdf31759b),
        ("table.probe1.run_starts", 0x00000000),
        ("table.probe1.run_ends", 0x00000000),
        ("table.probe1.run_eid", 0x00000000),
        ("table.probe1.cell_values", 0xf424ff38),
        ("table.probe1.cell_eid", 0x15e6db6f),
        ("table.probe1.bm", 0xcef112e0),
        ("filters.meta", 0xd602d932),
        ("filters.b.bits", 0x558f9030),
    ],
    "->FullOne": [
        ("store", 0x6999e857),
        ("fdirect0.meta", 0x7780c807),
        ("fdirect0.keys", 0x6e4303b2),
        ("fdirect0.offsets", 0x19d1b55f),
        ("fdirect0.buf", 0x6e4303b2),
        ("fdirect1.meta", 0x7780c807),
        ("fdirect1.keys", 0xd770d36a),
        ("fdirect1.offsets", 0x19d1b55f),
        ("fdirect1.buf", 0xd272dbe6),
        ("frefs0.meta", 0xdb35870b),
        ("frefs0.keys", 0x94beb736),
        ("frefs0.offsets", 0x355d2993),
        ("frefs0.buf", 0xc8f400f3),
        ("frefs1.meta", 0x38c15ec0),
        ("frefs1.keys", 0x9fe60c39),
        ("frefs1.offsets", 0x827e7d13),
        ("frefs1.buf", 0xc1035b2f),
        ("fblobs.meta", 0xcf34f211),
        ("fblobs.buf", 0x8d1b6ebf),
        ("fblobs.ends", 0x286db29d),
        ("fblobs.probe0.run_starts", 0x00000000),
        ("fblobs.probe0.run_ends", 0x00000000),
        ("fblobs.probe0.run_eid", 0x00000000),
        ("fblobs.probe0.cell_values", 0x00000000),
        ("fblobs.probe0.cell_eid", 0x00000000),
        ("fblobs.probe0.bm", 0x86f8a4de),
        ("filters.meta", 0x0dfe1759),
        ("filters.f0.bits", 0xb9e8af36),
        ("filters.f1.bits", 0xfa296097),
    ],
    "->FullMany": [
        ("store", 0x5b83739e),
        ("table0.meta", 0xcf685382),
        ("table0.keys", 0x5e929035),
        ("table0.koff", 0xfbe5ee6f),
        ("table0.voff", 0x46db9e90),
        ("table0.vbuf", 0x7bc563f1),
        ("table0.lo", 0x987e5e18),
        ("table0.hi", 0x0ff552a7),
        ("table0.rtree.meta", 0xd32e349a),
        ("table0.rtree.data_ids", 0x75aaec35),
        ("table0.rtree.data_lo", 0x1b79b8c5),
        ("table0.rtree.data_hi", 0x7f7b7c58),
        ("table0.rtree.l0.lo", 0x42d3dac4),
        ("table0.rtree.l0.hi", 0x9c279f5a),
        ("table0.rtree.l0.child_start", 0x6522df69),
        ("table0.rtree.l0.child_count", 0xa34dd6ee),
        ("table0.probe0.run_starts", 0x00000000),
        ("table0.probe0.run_ends", 0x00000000),
        ("table0.probe0.run_eid", 0x00000000),
        ("table0.probe0.cell_values", 0xc204202c),
        ("table0.probe0.cell_eid", 0xe500b373),
        ("table0.probe0.bm", 0x86f8a4de),
        ("table1.meta", 0xcf685382),
        ("table1.keys", 0x0b8fe476),
        ("table1.koff", 0x043878b2),
        ("table1.voff", 0x46db9e90),
        ("table1.vbuf", 0x7bc563f1),
        ("table1.lo", 0x07f8728b),
        ("table1.hi", 0xa9f3211f),
        ("table1.rtree.meta", 0xd32e349a),
        ("table1.rtree.data_ids", 0x10e7a67b),
        ("table1.rtree.data_lo", 0x86d87b34),
        ("table1.rtree.data_hi", 0x299ce973),
        ("table1.rtree.l0.lo", 0xecbb4b55),
        ("table1.rtree.l0.hi", 0x4139f15d),
        ("table1.rtree.l0.child_start", 0x6522df69),
        ("table1.rtree.l0.child_count", 0xa34dd6ee),
        ("table1.probe0.run_starts", 0x00000000),
        ("table1.probe0.run_ends", 0x00000000),
        ("table1.probe0.run_eid", 0x00000000),
        ("table1.probe0.cell_values", 0xc204202c),
        ("table1.probe0.cell_eid", 0xe500b373),
        ("table1.probe0.bm", 0x86f8a4de),
        ("filters.meta", 0x0dfe1759),
        ("filters.f0.bits", 0xb9e8af36),
        ("filters.f1.bits", 0xfa296097),
    ],
    "<-PayOne": [
        ("store", 0x541ea989),
        ("pay.meta", 0x5cad9bc4),
        ("pay.keys", 0x41096978),
        ("pay.offsets", 0x09075a08),
        ("pay.buf", 0x9a78bdf5),
        ("filters.meta", 0x3f3d9ad0),
        ("filters.b.bits", 0xc2c264e3),
    ],
    "<-PayMany": [
        ("store", 0xb4b04afd),
        ("paytable.meta", 0x0fe9f30f),
        ("paytable.keys", 0xdab29d86),
        ("paytable.koff", 0x18c982b2),
        ("paytable.voff", 0x18c982b2),
        ("paytable.vbuf", 0x41f3f473),
        ("paytable.lo", 0x9c5a4ae5),
        ("paytable.hi", 0x1b3deb8c),
        ("paytable.rtree.meta", 0xd32e349a),
        ("paytable.rtree.data_ids", 0x3211d9f1),
        ("paytable.rtree.data_lo", 0x0e1dd665),
        ("paytable.rtree.data_hi", 0x3537f1cb),
        ("paytable.rtree.l0.lo", 0xecbb4b55),
        ("paytable.rtree.l0.hi", 0x9c279f5a),
        ("paytable.rtree.l0.child_start", 0x6522df69),
        ("paytable.rtree.l0.child_count", 0x2dc2d10d),
        ("filters.meta", 0x3f3d9ad0),
        ("filters.b.bits", 0xc2c264e3),
    ],
    "<-CompOne": [
        ("store", 0xedaafd69),
        ("pay.meta", 0x5cad9bc4),
        ("pay.keys", 0x41096978),
        ("pay.offsets", 0x09075a08),
        ("pay.buf", 0x9a78bdf5),
        ("filters.meta", 0x3f3d9ad0),
        ("filters.b.bits", 0xc2c264e3),
    ],
}
#: strategy label -> crc32 of the whole segment file (section table included)
FILE_CRC = {
    "<-FullOne": 0x9b7dc8e0,
    "<-FullMany": 0x602e0b5f,
    "->FullOne": 0x091c0521,
    "->FullMany": 0x6e1426e0,
    "<-PayOne": 0xffa0fd37,
    "<-PayMany": 0x7762d4e3,
    "<-CompOne": 0x43a23c94,
}


@pytest.mark.parametrize(
    "strategy",
    [FULL_ONE_B, FULL_MANY_B, FULL_ONE_F, FULL_MANY_F, PAY_ONE_B, PAY_MANY_B, COMP_ONE_B],
    ids=lambda s: s.label,
)
def test_segment_layout_is_pinned(tmp_path, strategy):
    store = make_store("n", strategy, OUT_SHAPE, IN_SHAPES)
    store.ingest(layout_sink())
    path = str(tmp_path / "store.seg")
    store.flush_segment(path)
    with seglib.Segment.open(path) as seg:
        got = [(name, zlib.crc32(seg.read_bytes(name))) for name in seg.names()]
    assert got == PINNED[strategy.label]
    with open(path, "rb") as fh:
        assert zlib.crc32(fh.read()) == FILE_CRC[strategy.label]
