"""Compressed lineage codecs with in-situ query processing.

SubZero's encoders persist *sets of packed cell coordinates* (int64, ravel
order) that "can easily be larger than the original data arrays" (§VI-B).
"Compression and In-Situ Query Processing for Fine-Grained Array Lineage"
(Zhao & Krishnan, arXiv:2405.17701) shows that the right wire format is
workload-dependent — scattered sets want delta coding, contiguous regions
want interval coding — and that membership probes should run against the
encoded bytes instead of materialising the full cell array first.

This module provides that layer:

:class:`Codec`
    The interface: ``encode``/``decode``/``nbytes`` plus the decode-free
    probes ``contains_any`` / ``intersect`` / ``bounds`` / ``skip``.

Four concrete codecs, distinguished by a leading *tag byte* per value:

======  =====  ==========  ====================================================
tag     ascii  codec       wire layout after the tag byte
======  =====  ==========  ====================================================
``49``  ``I``  delta       flags, n (uvarint), width, base ``<q``, residuals
``52``  ``R``  raw         flags, n (uvarint), n little-endian int64 values
``56``  ``V``  interval    n, r (uvarints), gap/len widths, base ``<q``,
                           ``r - 1`` gaps, ``r`` run lengths minus one
``42``  ``B``  bitmap      n, m (uvarints), base ``<q``, ``m`` mask bytes;
                           bit ``j`` of byte ``i`` set ⇔ ``base + 8i + j``
                           is present (LSB-first within each byte)
======  =====  ==========  ====================================================

``DeltaCodec`` (tag ``0x49``)
    The repo's original delta + minimal-fixed-width scheme, byte-for-byte.
    Its historical magic byte doubles as its codec tag, so every value
    written before this subsystem existed still decodes — old flushed
    stores load unchanged.

``RawCodec`` (tag ``0x52``)
    Fixed-width 8-byte values.  Never smaller than delta on compressible
    data, but always *eligible*: it is the fallback when a set spans more
    than the int64 range and delta residuals would overflow.

``IntervalCodec`` (tag ``0x56``)
    Run-length coding over maximal ``+1``-stride runs.  Contiguous regions
    — convolution neighbourhoods, reshape/spatial blocks — collapse to a
    handful of ``(gap, length)`` pairs, and membership probes binary-search
    the run table without ever expanding the cells.

``BitmapCodec`` (tag ``0x42``)
    One bit per position across the value's span.  Dense-but-*ragged*
    regions — thresholded masks, sieved selections — fragment the interval
    run table into nearly one run per cell, while a bitmap stays at
    ``span / 8`` bytes regardless of raggedness; membership probes are
    decode-free byte masking against the encoded mask.

:func:`encode_cells` picks the smallest eligible encoding per value;
:func:`decode_cells` and the in-situ probes dispatch on the tag byte.
:class:`BatchProbe` amortises those probes across a whole value heap —
entries grouped by tag byte, each group lowered to one flat NumPy table and
answered for every entry at once — which is what the store scan paths use
instead of calling :func:`contains_any` / :func:`intersect` per entry.
:class:`LoweredProbeCache` is the one owner of how those lowered tables are
cached per value heap and persisted in segment files.
Everything is vectorised with numpy; nothing here loops over cells.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.analysis import lockcheck
from repro.arrays.coords import expand_ranges, isin_sorted
from repro.errors import StorageError

__all__ = [
    "Codec",
    "DeltaCodec",
    "RawCodec",
    "IntervalCodec",
    "BitmapCodec",
    "BatchProbe",
    "LoweredProbeCache",
    "TAG_DELTA",
    "TAG_RAW",
    "TAG_INTERVAL",
    "TAG_BITMAP",
    "codec_for_tag",
    "encode_uvarint",
    "decode_uvarint",
    "uvarint_len",
    "encode_cells",
    "encode_sorted_sets",
    "decode_cells",
    "cells_nbytes",
    "skip_cells",
    "skip_fields",
    "contains_any",
    "intersect",
    "decoded_bounds",
]

TAG_DELTA = 0x49  # ord('I'): the legacy magic byte doubles as the codec tag
TAG_RAW = 0x52  # ord('R')
TAG_INTERVAL = 0x56  # ord('V')
TAG_BITMAP = 0x42  # ord('B')

_FLAG_SORTED = 0x01
_WIDTHS = (1, 2, 4, 8)
_DTYPES = {1: "<u1", 2: "<u2", 4: "<u4", 8: "<u8"}

#: widest span a bitmap may cover (a 16 MiB mask).  Selection would never
#: pick a mask anywhere near this large — it loses to delta long before —
#: but the cap keeps eligibility itself bounded: ``arr - base`` stays well
#: inside int64 and a forced ``encode`` can never allocate absurd masks.
_BITMAP_MAX_SPAN = 1 << 27


# -- varints -------------------------------------------------------------------


def encode_uvarint(value: int) -> bytes:
    """LEB128 unsigned varint."""
    if value < 0:
        raise StorageError(f"uvarint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(buf: bytes, offset: int = 0) -> tuple[int, int]:
    """Return ``(value, next_offset)``."""
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(buf):
            raise StorageError("truncated uvarint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise StorageError("uvarint overflow")


def uvarint_len(value: int) -> int:
    """Encoded size of a uvarint without materialising the bytes."""
    if value < 0:
        raise StorageError(f"uvarint cannot encode negative value {value}")
    size = 1
    while value > 0x7F:
        value >>= 7
        size += 1
    return size


def _width_for(max_value: int) -> int:
    for width in _WIDTHS:
        if max_value < (1 << (8 * width)):
            return width
    raise StorageError(f"residual {max_value} does not fit in 8 bytes")


def _as_int64(arr: np.ndarray) -> np.ndarray:
    return np.asarray(arr, dtype=np.int64).ravel()


def _is_sorted(arr: np.ndarray) -> bool:
    return bool(arr.size <= 1 or (arr[1:] >= arr[:-1]).all())


class Codec:
    """One wire format for an int64 cell set, identified by ``tag``.

    ``encode``/``nbytes`` take the raw array; a codec that cannot represent
    a given array exactly (overflowing residuals, non-contiguous data, …)
    reports ``nbytes() is None`` and refuses ``encode`` with
    :class:`~repro.errors.StorageError`.  The probe methods operate on the
    encoded bytes *in place* — ``buf`` may be a much larger buffer with the
    value starting at ``offset`` — and never materialise more than they
    must: ``bounds`` and ``skip`` read only headers/summaries, and
    ``contains_any``/``intersect`` reject via bounds before touching the
    payload.
    """

    tag: int = -1
    name: str = "abstract"

    # -- encoding ----------------------------------------------------------

    def nbytes(self, arr: np.ndarray) -> int | None:
        """Encoded size, or None when this codec cannot encode ``arr``."""
        raise NotImplementedError

    def encode(self, arr: np.ndarray) -> bytes:
        raise NotImplementedError

    # -- decoding ----------------------------------------------------------

    def decode(self, buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
        """Return ``(array, next_offset)``; ``buf[offset]`` must be ``tag``."""
        raise NotImplementedError

    def skip(self, buf: bytes, offset: int = 0) -> int:
        """Next offset after this value, reading only the header."""
        raise NotImplementedError

    # -- in-situ probes ----------------------------------------------------

    def bounds(self, buf: bytes, offset: int = 0) -> tuple[int, int, int]:
        """``(lo, hi, count)`` without expanding cells; empty → ``(0, -1, 0)``."""
        raise NotImplementedError

    def contains_any(self, buf: bytes, offset: int, sorted_query: np.ndarray) -> bool:
        """True when any value of ``sorted_query`` is in the encoded set."""
        raise NotImplementedError

    def intersect(
        self, buf: bytes, offset: int, sorted_query: np.ndarray
    ) -> np.ndarray:
        """The subset of ``sorted_query`` present in the encoded set."""
        raise NotImplementedError

    def _check_tag(self, buf: bytes, offset: int) -> None:
        if offset >= len(buf) or buf[offset] != self.tag:
            raise StorageError(f"value at offset {offset} is not a {self.name} value")


class DeltaCodec(Codec):
    """Delta + minimal-fixed-width coding (the repo's original format).

    Sorted sets store the first value plus non-negative deltas; unsorted
    sequences store offsets from their minimum; residuals use the narrowest
    of 1/2/4/8 bytes.  Ineligible when the value range exceeds int64 and the
    residuals would wrap negative.
    """

    tag = TAG_DELTA
    name = "delta"

    def _residuals(
        self, arr: np.ndarray, is_sorted: bool, d: np.ndarray | None = None
    ) -> tuple[np.ndarray, int, int] | None:
        """``(residuals, base, flags)`` or None when residuals overflow.

        ``d`` may carry a precomputed ``np.diff(arr)`` so selection shares
        one diff pass between the delta and interval planners.
        """
        if is_sorted:
            base = int(arr[0])
            residuals = np.diff(arr) if d is None else d
            flags = _FLAG_SORTED
        else:
            base = int(arr.min())
            residuals = arr - base
            flags = 0
        if residuals.size and int(residuals.min()) < 0:
            return None  # int64 overflow: span exceeds the residual range
        return residuals, base, flags

    @staticmethod
    def _planned_size(n: int, plan: tuple[np.ndarray, int, int]) -> int:
        residuals, _, flags = plan
        width = _width_for(int(residuals.max()) if residuals.size else 0)
        count = n - 1 if flags & _FLAG_SORTED else n
        return 2 + uvarint_len(n) + 1 + 8 + count * width

    def _encode_planned(
        self, arr: np.ndarray, plan: tuple[np.ndarray, int, int] | None
    ) -> bytes:
        n = arr.size
        header = bytearray([self.tag])
        if n == 0:
            header.append(0)  # flags
            header += encode_uvarint(0)
            return bytes(header)
        residuals, base, flags = plan
        width = _width_for(int(residuals.max()) if residuals.size else 0)
        header.append(flags)
        header += encode_uvarint(n)
        header.append(width)
        header += struct.pack("<q", base)
        return bytes(header) + residuals.astype(_DTYPES[width]).tobytes()

    def nbytes(self, arr: np.ndarray) -> int | None:
        arr = _as_int64(arr)
        if arr.size == 0:
            return 3
        plan = self._residuals(arr, _is_sorted(arr))
        return None if plan is None else self._planned_size(arr.size, plan)

    def encode(self, arr: np.ndarray) -> bytes:
        arr = _as_int64(arr)
        if arr.size == 0:
            return self._encode_planned(arr, None)
        plan = self._residuals(arr, _is_sorted(arr))
        if plan is None:
            raise StorageError("negative residual in delta encoding")
        return self._encode_planned(arr, plan)

    def _header(self, buf: bytes, offset: int) -> tuple[int, int, int, int, int, int]:
        """``(flags, n, width, base, payload_pos, count)``; n == 0 → width/base 0."""
        self._check_tag(buf, offset)
        pos = offset + 1
        if pos >= len(buf):
            raise StorageError("truncated int array header")
        flags = buf[pos]
        pos += 1
        n, pos = decode_uvarint(buf, pos)
        if n == 0:
            return flags, 0, 0, 0, pos, 0
        if pos >= len(buf):
            raise StorageError("truncated int array header")
        width = buf[pos]
        pos += 1
        if width not in _DTYPES:
            raise StorageError(f"bad residual width {width}")
        if pos + 8 > len(buf):
            raise StorageError("truncated int array header")
        (base,) = struct.unpack_from("<q", buf, pos)
        pos += 8
        count = n - 1 if flags & _FLAG_SORTED else n
        if pos + count * width > len(buf):
            raise StorageError("truncated int array payload")
        return flags, n, width, base, pos, count

    def decode(self, buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
        flags, n, width, base, pos, count = self._header(buf, offset)
        if n == 0:
            return np.empty(0, dtype=np.int64), pos
        residuals = np.frombuffer(
            buf, dtype=_DTYPES[width], count=count, offset=pos
        ).astype(np.int64)
        end = pos + count * width
        if flags & _FLAG_SORTED:
            out = np.empty(n, dtype=np.int64)
            out[0] = base
            if count:
                np.cumsum(residuals, out=out[1:])
                out[1:] += base
        else:
            out = residuals + base
        return out, end

    def skip(self, buf: bytes, offset: int = 0) -> int:
        _, _, width, _, pos, count = self._header(buf, offset)
        return pos + count * width

    def bounds(self, buf: bytes, offset: int = 0) -> tuple[int, int, int]:
        flags, n, width, base, pos, count = self._header(buf, offset)
        if n == 0:
            return 0, -1, 0
        if count == 0:
            return base, base, n
        residuals = np.frombuffer(buf, dtype=_DTYPES[width], count=count, offset=pos)
        if flags & _FLAG_SORTED:
            return base, base + int(residuals.sum(dtype=np.uint64)), n
        return base, base + int(residuals.max()), n

    def contains_any(self, buf: bytes, offset: int, sorted_query: np.ndarray) -> bool:
        return self.intersect(buf, offset, sorted_query).size > 0

    def intersect(self, buf: bytes, offset: int, sorted_query: np.ndarray) -> np.ndarray:
        sorted_query = _as_int64(sorted_query)
        lo, hi, n = self.bounds(buf, offset)
        if n == 0 or sorted_query.size == 0:
            return np.empty(0, dtype=np.int64)
        if int(sorted_query[-1]) < lo or int(sorted_query[0]) > hi:
            return np.empty(0, dtype=np.int64)  # rejected without decoding
        values, _ = self.decode(buf, offset)
        if not buf[offset + 1] & _FLAG_SORTED:
            values = np.sort(values)
        return sorted_query[isin_sorted(sorted_query, values)]


class RawCodec(Codec):
    """Fixed-width little-endian int64 values.

    The universal fallback: always eligible, trivially in-situ (probes run
    against a zero-copy view of the payload), never the smallest choice for
    data the other codecs can represent.
    """

    tag = TAG_RAW
    name = "raw"

    @staticmethod
    def _planned_size(n: int) -> int:
        return 2 + uvarint_len(n) + 8 * n

    def _encode_planned(self, arr: np.ndarray, is_sorted: bool) -> bytes:
        flags = _FLAG_SORTED if is_sorted else 0
        header = bytes([self.tag, flags]) + encode_uvarint(arr.size)
        return header + arr.astype("<i8").tobytes()

    def nbytes(self, arr: np.ndarray) -> int | None:
        arr = _as_int64(arr)
        return self._planned_size(arr.size)

    def encode(self, arr: np.ndarray) -> bytes:
        arr = _as_int64(arr)
        return self._encode_planned(arr, _is_sorted(arr))

    def _header(self, buf: bytes, offset: int) -> tuple[int, int, int]:
        """``(flags, n, payload_pos)``."""
        self._check_tag(buf, offset)
        pos = offset + 1
        if pos >= len(buf):
            raise StorageError("truncated int array header")
        flags = buf[pos]
        n, pos = decode_uvarint(buf, pos + 1)
        if pos + 8 * n > len(buf):
            raise StorageError("truncated int array payload")
        return flags, n, pos

    def _view(self, buf: bytes, offset: int) -> tuple[int, np.ndarray]:
        flags, n, pos = self._header(buf, offset)
        return flags, np.frombuffer(buf, dtype="<i8", count=n, offset=pos)

    def decode(self, buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
        flags, n, pos = self._header(buf, offset)
        values = np.frombuffer(buf, dtype="<i8", count=n, offset=pos).astype(np.int64)
        return values, pos + 8 * n

    def skip(self, buf: bytes, offset: int = 0) -> int:
        _, n, pos = self._header(buf, offset)
        return pos + 8 * n

    def bounds(self, buf: bytes, offset: int = 0) -> tuple[int, int, int]:
        flags, view = self._view(buf, offset)
        if view.size == 0:
            return 0, -1, 0
        if flags & _FLAG_SORTED:
            return int(view[0]), int(view[-1]), view.size
        return int(view.min()), int(view.max()), view.size

    def contains_any(self, buf: bytes, offset: int, sorted_query: np.ndarray) -> bool:
        return self.intersect(buf, offset, sorted_query).size > 0

    def intersect(self, buf: bytes, offset: int, sorted_query: np.ndarray) -> np.ndarray:
        sorted_query = _as_int64(sorted_query)
        flags, view = self._view(buf, offset)
        if view.size == 0 or sorted_query.size == 0:
            return np.empty(0, dtype=np.int64)
        values = view if flags & _FLAG_SORTED else np.sort(view)
        if int(sorted_query[-1]) < int(values[0]) or int(sorted_query[0]) > int(values[-1]):
            return np.empty(0, dtype=np.int64)
        return sorted_query[isin_sorted(sorted_query, values)]


class IntervalCodec(Codec):
    """Run-length (interval) coding over maximal ``+1``-stride runs.

    Eligible only for strictly-increasing sets of at least two cells — the
    shape convolution / reshape / spatial operators emit.  The payload is a
    run table (inter-run gaps and run lengths at minimal fixed width), so a
    contiguous region of any size costs a near-constant handful of bytes,
    and membership probes binary-search ``O(runs)`` data instead of
    expanding ``O(cells)``.
    """

    tag = TAG_INTERVAL
    name = "interval"

    def _runs_of(
        self, arr: np.ndarray, is_sorted: bool, d: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """``(starts, lens)`` of maximal runs, or None when ineligible.

        ``is_sorted`` must come from a comparison-based check, NOT be
        inferred from the diffs: a descending extreme-span pair can wrap
        ``np.diff`` back to a *positive* value (e.g. ``[2**63-1, -2**63]``
        wraps to ``+1``) and would otherwise be mistaken for a run.  For a
        genuinely sorted array every wrapped diff is negative, so the
        ``d < 1`` test below correctly rejects both duplicates and
        overflowing gaps.  ``d`` may carry a precomputed ``np.diff(arr)``.
        """
        if arr.size < 2 or not is_sorted:
            return None
        if d is None:
            d = np.diff(arr)
        if (d < 1).any():  # duplicates or int64-overflow wrap
            return None
        breaks = np.flatnonzero(d != 1)
        starts = np.empty(breaks.size + 1, dtype=np.int64)
        starts[0] = arr[0]
        starts[1:] = arr[breaks + 1]
        ends = np.empty(breaks.size + 1, dtype=np.int64)
        ends[:-1] = arr[breaks]
        ends[-1] = arr[-1]
        return starts, ends - starts + 1

    @staticmethod
    def _widths(starts: np.ndarray, lens: np.ndarray) -> tuple[int, int]:
        ends = starts + lens - 1
        gaps = starts[1:] - ends[:-1]
        gw = _width_for(int(gaps.max()) if gaps.size else 0)
        lw = _width_for(int((lens - 1).max()))
        return gw, lw

    @classmethod
    def _planned_size(cls, n: int, plan: tuple[np.ndarray, np.ndarray]) -> int:
        starts, lens = plan
        r = starts.size
        gw, lw = cls._widths(starts, lens)
        return 1 + uvarint_len(n) + uvarint_len(r) + 2 + 8 + (r - 1) * gw + r * lw

    def _encode_planned(
        self, arr: np.ndarray, plan: tuple[np.ndarray, np.ndarray]
    ) -> bytes:
        starts, lens = plan
        r = starts.size
        ends = starts + lens - 1
        gaps = starts[1:] - ends[:-1]
        gw, lw = self._widths(starts, lens)
        header = bytearray([self.tag])
        header += encode_uvarint(arr.size)
        header += encode_uvarint(r)
        header.append(gw)
        header.append(lw)
        header += struct.pack("<q", int(starts[0]))
        return (
            bytes(header)
            + gaps.astype(_DTYPES[gw]).tobytes()
            + (lens - 1).astype(_DTYPES[lw]).tobytes()
        )

    def nbytes(self, arr: np.ndarray) -> int | None:
        arr = _as_int64(arr)
        plan = self._runs_of(arr, _is_sorted(arr))
        return None if plan is None else self._planned_size(arr.size, plan)

    def encode(self, arr: np.ndarray) -> bytes:
        arr = _as_int64(arr)
        plan = self._runs_of(arr, _is_sorted(arr))
        if plan is None:
            raise StorageError("interval codec requires a strictly-increasing set")
        return self._encode_planned(arr, plan)

    def _header(self, buf: bytes, offset: int) -> tuple[int, int, int, int, int, int]:
        """``(n, r, gw, lw, base, payload_pos)``."""
        self._check_tag(buf, offset)
        n, pos = decode_uvarint(buf, offset + 1)
        r, pos = decode_uvarint(buf, pos)
        if n < 2 or r < 1 or r > n:
            raise StorageError(f"bad interval run count {r} for {n} cells")
        if pos + 2 + 8 > len(buf):
            raise StorageError("truncated int array header")
        gw, lw = buf[pos], buf[pos + 1]
        if gw not in _DTYPES or lw not in _DTYPES:
            raise StorageError(f"bad interval widths ({gw}, {lw})")
        pos += 2
        (base,) = struct.unpack_from("<q", buf, pos)
        pos += 8
        if pos + (r - 1) * gw + r * lw > len(buf):
            raise StorageError("truncated int array payload")
        return n, r, gw, lw, base, pos

    def _run_table(
        self, buf: bytes, offset: int
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """``(starts, lens, n, next_offset)`` — O(runs), no cell expansion."""
        n, r, gw, lw, base, pos = self._header(buf, offset)
        gaps = np.frombuffer(buf, dtype=_DTYPES[gw], count=r - 1, offset=pos).astype(
            np.int64
        )
        pos += (r - 1) * gw
        lens = np.frombuffer(buf, dtype=_DTYPES[lw], count=r, offset=pos).astype(
            np.int64
        )
        pos += r * lw
        lens = lens + 1
        if int(lens.sum()) != n:
            raise StorageError("interval run lengths do not sum to the cell count")
        starts = np.empty(r, dtype=np.int64)
        starts[0] = base
        if r > 1:
            np.cumsum(lens[:-1] - 1 + gaps, out=starts[1:])
            starts[1:] += base
        return starts, lens, n, pos

    def decode(self, buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
        # Expansion via one cumulative sum: stride 1 inside a run, a jump of
        # ``gap`` where the next run begins.  (A repeat+arange expansion is
        # ~1.5x slower on the small per-entry sets the stores decode.)
        n, r, gw, lw, base, pos = self._header(buf, offset)
        if r == 1:
            end = pos + lw
            if int.from_bytes(buf[pos:end], "little") + 1 != n:
                raise StorageError("interval run lengths do not sum to the cell count")
            return np.arange(base, base + n, dtype=np.int64), end
        gaps = np.frombuffer(buf, dtype=_DTYPES[gw], count=r - 1, offset=pos)
        pos += (r - 1) * gw
        lens_minus_1 = np.frombuffer(buf, dtype=_DTYPES[lw], count=r, offset=pos)
        pos += r * lw
        # positions where run j+1 starts: cumsum(len_0..len_j) with len=lm1+1
        boundaries = lens_minus_1[:-1].cumsum(dtype=np.int64)
        boundaries += np.arange(1, r, dtype=np.int64)
        if int(boundaries[-1]) + int(lens_minus_1[-1]) + 1 != n:
            raise StorageError("interval run lengths do not sum to the cell count")
        step = np.ones(n, dtype=np.int64)
        step[0] = base
        step[boundaries] = gaps  # assignment casts the narrow view in place
        return step.cumsum(), pos

    def skip(self, buf: bytes, offset: int = 0) -> int:
        _, r, gw, lw, _, pos = self._header(buf, offset)
        return pos + (r - 1) * gw + r * lw

    def bounds(self, buf: bytes, offset: int = 0) -> tuple[int, int, int]:
        starts, lens, n, _ = self._run_table(buf, offset)
        return int(starts[0]), int(starts[-1] + lens[-1] - 1), n

    def contains_any(self, buf: bytes, offset: int, sorted_query: np.ndarray) -> bool:
        return self._run_mask(buf, offset, _as_int64(sorted_query)).any()

    def intersect(self, buf: bytes, offset: int, sorted_query: np.ndarray) -> np.ndarray:
        sorted_query = _as_int64(sorted_query)
        return sorted_query[self._run_mask(buf, offset, sorted_query)]

    def _run_mask(self, buf: bytes, offset: int, query: np.ndarray) -> np.ndarray:
        if query.size == 0:
            return np.zeros(0, dtype=bool)
        n, r, gw, lw, base, pos = self._header(buf, offset)
        if int(query[-1]) < base:  # header-only reject, no payload read
            return np.zeros(query.size, dtype=bool)
        if r == 1:
            hi = base + int.from_bytes(buf[pos: pos + lw], "little")
            return (query >= base) & (query <= hi)
        gaps = np.frombuffer(buf, dtype=_DTYPES[gw], count=r - 1, offset=pos)
        # one up-front cast: int64 arithmetic against a <u8 view would
        # otherwise promote to float64 (binary ops) or refuse to cast
        # (in-place ops)
        lens_minus_1 = np.frombuffer(
            buf, dtype=_DTYPES[lw], count=r, offset=pos + (r - 1) * gw
        ).astype(np.int64)
        # start_{j+1} = start_j + (len_j - 1) + gap_j
        starts = np.empty(r, dtype=np.int64)
        starts[0] = base
        increments = gaps.astype(np.int64)
        increments += lens_minus_1[:-1]
        starts[1:] = increments.cumsum()
        starts[1:] += base
        ends = starts + lens_minus_1
        run = np.searchsorted(starts, query, side="right") - 1
        mask = run >= 0
        mask[mask] = query[mask] <= ends[run[mask]]
        return mask


class BitmapCodec(Codec):
    """One presence bit per position across the value's span.

    Eligible for strictly-increasing sets of at least two cells whose span
    stays under :data:`_BITMAP_MAX_SPAN`.  The payload is ``m`` mask bytes
    (LSB-first: bit ``j`` of byte ``i`` marks ``base + 8i + j``), so the
    footprint is span-proportional and *raggedness-proof*: a 50%-dense
    random mask costs one bit per position where the interval codec pays a
    whole ``(gap, len)`` pair per fragment and delta pays a byte per cell.
    Membership probes never expand cells — they gather mask bytes for the
    query window and test bits.
    """

    tag = TAG_BITMAP
    name = "bitmap"

    @staticmethod
    def _span_of(arr: np.ndarray, is_sorted: bool, d: np.ndarray | None = None) -> int | None:
        """The value's inclusive span, or None when ineligible.

        Like the interval codec, eligibility needs a comparison-based
        sortedness check (wrapped diffs of extreme pairs can fake a ``+1``
        step) plus strictly-positive diffs; the span itself is computed in
        Python ints so an extreme pair cannot overflow int64.
        """
        if arr.size < 2 or not is_sorted:
            return None
        if d is None:
            d = np.diff(arr)
        if (d < 1).any():  # duplicates or int64-overflow wrap
            return None
        span = int(arr[-1]) - int(arr[0]) + 1
        if span > _BITMAP_MAX_SPAN:
            return None
        return span

    @staticmethod
    def _planned_size(n: int, span: int) -> int:
        m = (span + 7) // 8
        return 1 + uvarint_len(n) + uvarint_len(m) + 8 + m

    def _encode_planned(self, arr: np.ndarray, plan: int) -> bytes:
        span = plan
        base = int(arr[0])
        bits = np.zeros(span, dtype=bool)
        bits[arr - base] = True
        mask = np.packbits(bits, bitorder="little")
        header = bytearray([self.tag])
        header += encode_uvarint(arr.size)
        header += encode_uvarint(mask.size)
        header += struct.pack("<q", base)
        return bytes(header) + mask.tobytes()

    def nbytes(self, arr: np.ndarray) -> int | None:
        arr = _as_int64(arr)
        span = self._span_of(arr, _is_sorted(arr))
        return None if span is None else self._planned_size(arr.size, span)

    def encode(self, arr: np.ndarray) -> bytes:
        arr = _as_int64(arr)
        span = self._span_of(arr, _is_sorted(arr))
        if span is None:
            raise StorageError(
                "bitmap codec requires a strictly-increasing set within "
                f"a {_BITMAP_MAX_SPAN}-position span"
            )
        return self._encode_planned(arr, span)

    def _header(self, buf: bytes, offset: int) -> tuple[int, int, int, int]:
        """``(n, m, base, payload_pos)``."""
        self._check_tag(buf, offset)
        n, pos = decode_uvarint(buf, offset + 1)
        m, pos = decode_uvarint(buf, pos)
        if n < 2 or m < 1 or n > 8 * m:
            raise StorageError(f"bad bitmap cell count {n} for {m} mask bytes")
        if pos + 8 + m > len(buf):
            raise StorageError("truncated int array payload")
        (base,) = struct.unpack_from("<q", buf, pos)
        return n, m, base, pos + 8

    def _mask(self, buf: bytes, offset: int) -> tuple[int, int, int, np.ndarray]:
        n, m, base, pos = self._header(buf, offset)
        return n, base, pos, np.frombuffer(buf, dtype=np.uint8, count=m, offset=pos)

    def decode(self, buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
        n, base, pos, mask = self._mask(buf, offset)
        rel = np.flatnonzero(np.unpackbits(mask, bitorder="little"))
        if rel.size != n:
            raise StorageError("bitmap popcount does not match the cell count")
        return base + rel.astype(np.int64), pos + mask.size

    def skip(self, buf: bytes, offset: int = 0) -> int:
        _, m, _, pos = self._header(buf, offset)
        return pos + m

    def bounds(self, buf: bytes, offset: int = 0) -> tuple[int, int, int]:
        n, base, _, mask = self._mask(buf, offset)
        nz = np.flatnonzero(mask)
        if nz.size == 0:
            raise StorageError("bitmap popcount does not match the cell count")
        lo_byte = int(mask[nz[0]])
        hi_byte = int(mask[nz[-1]])
        lo = base + 8 * int(nz[0]) + ((lo_byte & -lo_byte).bit_length() - 1)
        hi = base + 8 * int(nz[-1]) + (hi_byte.bit_length() - 1)
        return lo, hi, n

    def contains_any(self, buf: bytes, offset: int, sorted_query: np.ndarray) -> bool:
        return self._query_mask(buf, offset, _as_int64(sorted_query))[1].any()

    def intersect(self, buf: bytes, offset: int, sorted_query: np.ndarray) -> np.ndarray:
        sorted_query = _as_int64(sorted_query)
        window, present = self._query_mask(buf, offset, sorted_query)
        return sorted_query[window.start + np.flatnonzero(present)]

    def _query_mask(
        self, buf: bytes, offset: int, query: np.ndarray
    ) -> tuple[slice, np.ndarray]:
        """``(window, present)``: the query slice overlapping the mask's
        addressable range and a per-position hit mask — pure byte masking,
        no cell expansion."""
        _, m, base, pos = self._header(buf, offset)
        lo = np.searchsorted(query, base, side="left")
        # the trailing pad bits of the last mask byte may address past
        # int64; clamping is exact because no stored cell can exceed it
        cap = min(base + 8 * m - 1, 2**63 - 1)
        hi = np.searchsorted(query, cap, side="right")
        window = slice(int(lo), int(hi))
        rel = query[window] - base
        if rel.size == 0:
            return window, np.zeros(0, dtype=bool)
        mask = np.frombuffer(buf, dtype=np.uint8, count=m, offset=pos)
        present = (mask[rel >> 3] >> (rel & 7)) & 1
        return window, present.astype(bool)


DELTA = DeltaCodec()
RAW = RawCodec()
INTERVAL = IntervalCodec()
BITMAP = BitmapCodec()

#: selection order — ties go to the earliest codec, so singletons and other
#: size-ties keep the historical delta layout
_PRIORITY: tuple[Codec, ...] = (DELTA, INTERVAL, BITMAP, RAW)
_BY_TAG: dict[int, Codec] = {c.tag: c for c in _PRIORITY}


def codec_for_tag(tag: int) -> Codec:
    codec = _BY_TAG.get(tag)
    if codec is None:
        raise StorageError(f"bad int-array codec tag 0x{tag:02x}")
    return codec


def _codec_at(buf: bytes, offset: int) -> Codec:
    if offset >= len(buf):
        raise StorageError("truncated cell-set value")
    return codec_for_tag(buf[offset])


def _select(arr: np.ndarray) -> tuple[Codec, object, int]:
    """``(codec, plan, size)``: the smallest eligible codec for ``arr`` with
    its reusable encoding plan, analysing the array once.

    Delta wins ties, and values of one cell or fewer always use delta so the
    12-byte singleton layout that
    :func:`repro.core.lineage_store.encode_singleton_int_arrays` emits in
    bulk stays byte-identical.
    """
    n = arr.size
    if n == 0:
        return DELTA, None, 3
    is_sorted = _is_sorted(arr)
    d = np.diff(arr) if (is_sorted and n > 1) else None  # shared diff pass
    delta_plan = DELTA._residuals(arr, is_sorted, d)
    if n == 1:
        return DELTA, delta_plan, DELTA._planned_size(n, delta_plan)
    best: tuple[Codec, object, int] | None = None
    if delta_plan is not None:
        best = (DELTA, delta_plan, DELTA._planned_size(n, delta_plan))
    interval_plan = INTERVAL._runs_of(arr, is_sorted, d)
    if interval_plan is not None:
        size = INTERVAL._planned_size(n, interval_plan)
        if best is None or size < best[2]:
            best = (INTERVAL, interval_plan, size)
    span = BITMAP._span_of(arr, is_sorted, d)
    if span is not None:
        size = BITMAP._planned_size(n, span)
        if best is None or size < best[2]:
            best = (BITMAP, span, size)
    raw_size = RAW._planned_size(n)
    if best is None or raw_size < best[2]:
        best = (RAW, is_sorted, raw_size)  # always eligible
    return best


def encode_cells(arr: np.ndarray) -> bytes:
    """Serialize an int64 cell set with the smallest eligible codec."""
    arr = _as_int64(arr)
    codec, plan, _ = _select(arr)
    return codec._encode_planned(arr, plan)


def cells_nbytes(arr: np.ndarray) -> int:
    """Exact serialized size of :func:`encode_cells` without materialising it."""
    return _select(_as_int64(arr))[2]


# -- batched encoding (the deferred-capture write path) -------------------------

_INT64_MAX = np.iinfo(np.int64).max
# per-set winner codes inside encode_sorted_sets; fallback = interval/bitmap
_SEL_NONE, _SEL_DELTA, _SEL_RAW, _SEL_FALLBACK = 0, 1, 2, 3


def _uvarint_len_arr(values: np.ndarray) -> np.ndarray:
    """Vectorised :func:`uvarint_len` for non-negative int64 values."""
    v = values.astype(np.uint64, copy=True)
    lens = np.ones(v.shape, dtype=np.int64)
    v >>= np.uint64(7)
    while (v > 0).any():
        lens += v > 0
        v >>= np.uint64(7)
    return lens


def _width_arr(maxima: np.ndarray) -> np.ndarray:
    """Vectorised :func:`_width_for` for non-negative int64 maxima."""
    return np.select(
        [maxima < (1 << 8), maxima < (1 << 16), maxima < (1 << 32)],
        [1, 2, 4],
        default=8,
    ).astype(np.int64)


def _scatter_uvarint(out: np.ndarray, pos: np.ndarray, values: np.ndarray) -> None:
    """Write ``uvarint(values[i])`` into ``out`` starting at ``pos[i]``."""
    pos = pos.astype(np.int64, copy=True)
    v = values.astype(np.uint64, copy=True)
    idx = np.arange(v.size)
    while idx.size:
        cur = v[idx]
        more = cur > np.uint64(0x7F)
        byte = (cur & np.uint64(0x7F)).astype(np.uint8)
        byte[more] |= np.uint8(0x80)
        out[pos[idx]] = byte
        idx = idx[more]
        if idx.size:
            pos[idx] += 1
            v[idx] >>= np.uint64(7)


def _scatter_fixed(
    out: np.ndarray, pos: np.ndarray, values: np.ndarray, dtype: str, width: int
) -> None:
    """Write each ``values[i]`` as ``width`` little-endian bytes at ``pos[i]``."""
    if values.size == 0:
        return
    narrow = np.ascontiguousarray(values.astype(dtype, copy=False))
    if width == 1:
        out[pos] = narrow.view(np.uint8)
        return
    out[pos[:, None] + np.arange(width)] = narrow.view(np.uint8).reshape(-1, width)


def encode_sorted_sets(
    values: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`encode_cells` over many pre-sorted sets at once.

    ``values`` concatenates ``len(offsets) - 1`` int64 segments, each sorted
    ascending; segment ``i`` spans ``values[offsets[i]:offsets[i+1]]``.
    Returns ``(buf, lengths)`` where ``buf`` (uint8) holds the back-to-back
    encodings and ``lengths[i]`` the byte size of set ``i`` — byte-identical
    to calling :func:`encode_cells` on every segment, but with selection,
    sizing, and the dominant delta/raw emission running as whole-batch NumPy
    passes.  Sets whose smallest codec is interval or bitmap (rare in
    captured lineage, which skews scattered) fall back to the per-set
    encoder; everything else never touches Python per set.
    """
    values = np.ascontiguousarray(values, dtype=np.int64).ravel()
    offsets = np.asarray(offsets, dtype=np.int64).ravel()
    n_sets = offsets.size - 1
    if n_sets <= 0:
        return np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64)
    n = np.diff(offsets)
    if (n < 0).any() or int(offsets[0]) != 0 or int(offsets[-1]) != values.size:
        raise StorageError("encode_sorted_sets offsets do not tile the value array")
    total_values = values.size

    lengths = np.empty(n_sets, dtype=np.int64)
    lengths[n == 0] = 3  # tag, flags, uvarint(0)
    lengths[n == 1] = 12  # the bulk singleton layout

    big = np.flatnonzero(n >= 2)
    selection = np.empty(0, dtype=np.int64)
    dv = np.empty(0, dtype=np.int64)
    dv_starts = np.empty(0, dtype=np.int64)
    uvl_n = np.empty(0, dtype=np.int64)
    dw = np.empty(0, dtype=np.int64)
    firsts = np.empty(0, dtype=np.int64)
    if big.size:
        # one global diff pass; diffs that straddle a set boundary are masked
        # out, leaving dv = the concatenation of every set's internal diffs
        d = values[1:] - values[:-1]
        valid = np.ones(max(total_values - 1, 0), dtype=bool)
        interior = offsets[1:-1]
        interior = interior[(interior > 0) & (interior < total_values)]
        valid[interior - 1] = False
        dv = d[valid]
        dcounts = np.maximum(n - 1, 0)
        dv_starts_all = np.zeros(n_sets, dtype=np.int64)
        np.cumsum(dcounts[:-1], out=dv_starts_all[1:])
        dv_starts = dv_starts_all[big]
        dmin = np.minimum.reduceat(dv, dv_starts)
        dmax = np.maximum.reduceat(dv, dv_starts)

        nb = n[big]
        firsts = values[offsets[:-1][big]]
        lasts = values[offsets[1:][big] - 1]
        uvl_n = _uvarint_len_arr(nb)

        # delta: sorted residuals are the diffs themselves
        delta_ok = dmin >= 0  # a wrapped (overflowing) diff shows as negative
        dw = _width_arr(np.maximum(dmax, 0))
        delta_size = 2 + uvl_n + 1 + 8 + (nb - 1) * dw

        # interval: maximal +1-stride runs, from one flag pass over values
        strict = dmin >= 1
        rs = np.zeros(total_values, dtype=bool)
        rs[offsets[:-1][n > 0]] = True  # each non-empty set opens a run
        rs1 = rs[1:]
        rs1[valid] |= dv != 1  # a non-unit diff opens a run
        run_starts_idx = np.flatnonzero(rs)
        run_lens = np.diff(np.append(run_starts_idx, total_values))
        owner = np.searchsorted(offsets, run_starts_idx, side="right") - 1
        rcnt = np.bincount(owner, minlength=n_sets)
        rfirst = np.zeros(n_sets, dtype=np.int64)
        np.cumsum(rcnt[:-1], out=rfirst[1:])
        r_big = rcnt[big]
        # reduceat over every set owning runs (singletons too) so a big
        # set's segment cannot absorb a later small set's runs
        has_runs = np.flatnonzero(rcnt > 0)
        maxlen_by_set = np.zeros(n_sets, dtype=np.int64)
        maxlen_by_set[has_runs] = np.maximum.reduceat(run_lens, rfirst[has_runs])
        maxlen = maxlen_by_set[big]
        lw = _width_arr(np.maximum(maxlen - 1, 0))
        gapmax = np.maximum.reduceat(np.where(dv > 1, dv, 0), dv_starts)
        gw = _width_arr(gapmax)
        interval_size = (
            1 + uvl_n + _uvarint_len_arr(r_big) + 2 + 8 + (r_big - 1) * gw + r_big * lw
        )

        # bitmap: span in int64 — a wrap past int64 shows as span < 1
        span = lasts - firsts + 1
        bitmap_ok = strict & (span >= 1) & (span <= _BITMAP_MAX_SPAN)
        m = (np.maximum(span, 0) + 7) // 8
        bitmap_size = 1 + uvl_n + _uvarint_len_arr(m) + 8 + m

        raw_size = 2 + uvl_n + 8 * nb

        # replicate _select: delta wins ties, then interval/bitmap/raw each
        # replace the incumbent only when strictly smaller
        best_size = np.where(delta_ok, delta_size, _INT64_MAX)
        selection = np.where(delta_ok, _SEL_DELTA, _SEL_NONE)
        take = strict & (interval_size < best_size)
        best_size = np.where(take, interval_size, best_size)
        selection = np.where(take, _SEL_FALLBACK, selection)
        take = bitmap_ok & (bitmap_size < best_size)
        best_size = np.where(take, bitmap_size, best_size)
        selection = np.where(take, _SEL_FALLBACK, selection)
        take = raw_size < best_size
        best_size = np.where(take, raw_size, best_size)
        selection = np.where(take, _SEL_RAW, selection)
        lengths[big] = best_size

    out_offsets = np.zeros(n_sets + 1, dtype=np.int64)
    np.cumsum(lengths, out=out_offsets[1:])
    out = np.zeros(int(out_offsets[-1]), dtype=np.uint8)
    p0 = out_offsets[:-1]

    # empty sets: tag byte only, flags/uvarint(0) stay zero
    out[p0[n == 0]] = TAG_DELTA

    ones = np.flatnonzero(n == 1)
    if ones.size:
        p = p0[ones]
        out[p] = TAG_DELTA
        out[p + 1] = _FLAG_SORTED
        out[p + 2] = 1  # uvarint(1)
        out[p + 3] = 1  # residual width
        _scatter_fixed(out, p + 4, values[offsets[:-1][ones]], "<i8", 8)

    if big.size:
        grp = selection == _SEL_DELTA
        if grp.any():
            p = p0[big][grp]
            nb_g = n[big][grp]
            out[p] = TAG_DELTA
            out[p + 1] = _FLAG_SORTED
            _scatter_uvarint(out, p + 2, nb_g)
            hp = p + 2 + uvl_n[grp]
            out[hp] = dw[grp].astype(np.uint8)
            _scatter_fixed(out, hp + 1, firsts[grp], "<i8", 8)
            payload = hp + 9
            res_starts = dv_starts[grp]
            widths = dw[grp]
            for width in _WIDTHS:
                ws = np.flatnonzero(widths == width)
                if not ws.size:
                    continue
                counts = nb_g[ws] - 1
                src = expand_ranges(res_starts[ws], counts)
                within = src - np.repeat(res_starts[ws], counts)
                tgt = np.repeat(payload[ws], counts) + within * width
                _scatter_fixed(out, tgt, dv[src], _DTYPES[width], width)

        grp = selection == _SEL_RAW
        if grp.any():
            p = p0[big][grp]
            nb_g = n[big][grp]
            out[p] = TAG_RAW
            out[p + 1] = _FLAG_SORTED
            _scatter_uvarint(out, p + 2, nb_g)
            payload = p + 2 + uvl_n[grp]
            starts = offsets[:-1][big][grp]
            src = expand_ranges(starts, nb_g)
            within = src - np.repeat(starts, nb_g)
            tgt = np.repeat(payload, nb_g) + within * 8
            _scatter_fixed(out, tgt, values[src], "<i8", 8)

        for j in np.flatnonzero(selection == _SEL_FALLBACK):
            s = int(big[j])
            enc = encode_cells(values[int(offsets[s]) : int(offsets[s + 1])])
            if len(enc) != int(lengths[s]):
                raise StorageError("batched codec sizing disagrees with encode_cells")
            start = int(p0[s])
            out[start : start + len(enc)] = np.frombuffer(enc, dtype=np.uint8)

    return out, lengths


def decode_cells(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Inverse of :func:`encode_cells`; returns ``(array, next_offset)``."""
    return _codec_at(buf, offset).decode(buf, offset)


def skip_cells(buf: bytes, offset: int = 0) -> int:
    """Offset just past the value at ``offset``, reading only its header."""
    return _codec_at(buf, offset).skip(buf, offset)


def skip_fields(buf: bytes, offset: int, end: int, field: int) -> int:
    """Offset of cell-set ``field`` within a multi-field value.

    A value spanning ``buf[offset:end)`` may hold one encoded cell set per
    input array back to back; this walks past the first ``field`` of them
    (headers only) and raises when the value holds no such field.
    """
    for _ in range(field):
        if offset >= end:
            raise StorageError(f"value has no cell-set field {field}")
        offset = skip_cells(buf, offset)
    if offset >= end:
        raise StorageError(f"value has no cell-set field {field}")
    return offset


def decoded_bounds(buf: bytes, offset: int = 0) -> tuple[int, int, int]:
    """``(lo, hi, count)`` of the encoded set; ``(0, -1, 0)`` when empty."""
    return _codec_at(buf, offset).bounds(buf, offset)


def contains_any(buf: bytes, sorted_query: np.ndarray, offset: int = 0) -> bool:
    """Decode-free membership: does the encoded set hit ``sorted_query``?"""
    return _codec_at(buf, offset).contains_any(buf, offset, sorted_query)


def intersect(buf: bytes, sorted_query: np.ndarray, offset: int = 0) -> np.ndarray:
    """The values of ``sorted_query`` present in the encoded set."""
    return _codec_at(buf, offset).intersect(buf, offset, sorted_query)


# -- batch scan engine -----------------------------------------------------------


class _LoweredHeap:
    """Flat per-tag tables lowered from a value heap (see BatchProbe)."""

    __slots__ = (
        "run_starts", "run_ends", "run_eid",
        "cell_values", "cell_eid",
        "bm_eid", "bm_base", "bm_cap", "bm_pos", "bm_len",
    )


class BatchProbe:
    """Vectorised per-entry probes over a heap of concatenated codec values.

    Takes a whole value heap — e.g. a ``RegionEntryTable``'s concatenated
    ``_vbuf`` — plus one value offset per entry, and answers
    :meth:`contains_any` / :meth:`intersect` for *every* entry in a constant
    number of NumPy passes per codec tag, instead of one Python-level probe
    call per entry:

    * **interval** values lower to one flat ``(start, end, entry)`` run
      table; the whole group is answered with two ``searchsorted`` calls
      against the sorted query, and only intersecting runs are ever
      materialised;
    * **delta** and **raw** values decode once into a single concatenated
      ``(value, entry)`` table answered with one ``searchsorted`` pass;
    * **bitmap** values stay encoded; a vectorised bounds pass rejects
      non-overlapping masks and only overlapping ones byte-mask their query
      window.

    Lowering happens lazily on first probe and is cached, so repeated scans
    over the same heap pay the per-entry header walk exactly once.  Answers
    are defined to match the per-entry probes bit for bit:
    ``contains_any(q)[e] == contains_any(buf, q, offsets[e])`` and each
    intersection equals ``intersect(buf, q, offsets[e])``.
    """

    def __init__(
        self,
        buf: bytes,
        offsets: np.ndarray,
        ends: np.ndarray | None = None,
    ):
        self._buf = buf
        self._offsets = np.ascontiguousarray(np.asarray(offsets, dtype=np.int64))
        if ends is None:
            ends = np.full(self._offsets.shape, len(buf), dtype=np.int64)
        self._ends = np.ascontiguousarray(np.asarray(ends, dtype=np.int64))
        if self._ends.shape != self._offsets.shape:
            raise StorageError("batch probe offsets and ends must align")
        self.n_entries = int(self._offsets.size)
        self._lowered: _LoweredHeap | None = None
        # one thread lowers, everyone else waits and reuses the tables —
        # concurrent serving threads must not race the (expensive) cache fill
        self._lower_lock = lockcheck.make_lock("batchprobe.lower")

    # -- lowering ----------------------------------------------------------

    def _lower(self, ticker=None) -> _LoweredHeap:
        """One header walk over the heap, grouping entries by tag byte.

        The tag bytes are gathered in one vectorised pass, and ``ticker``
        is called once per *codec-tag batch* (at most once per tag), not
        once per entry: the cold lowering is an investment whose tables are
        cached for every later scan, so a query-time budget may only
        interrupt it at batch boundaries instead of aborting — and thereby
        discarding — a nearly-finished walk.
        """
        if self._lowered is not None:
            return self._lowered
        with self._lower_lock:
            return self._lower_locked(ticker)

    def _lower_locked(self, ticker=None) -> "_LoweredHeap":
        if self._lowered is not None:  # another thread finished the walk
            return self._lowered
        buf = self._buf
        run_s: list[np.ndarray] = []
        run_e: list[np.ndarray] = []
        run_id: list[np.ndarray] = []
        cell_v: list[np.ndarray] = []
        cell_id: list[np.ndarray] = []
        bm: list[tuple[int, int, int, int, int]] = []
        if self.n_entries:
            short = self._offsets >= self._ends
            if short.any():
                raise StorageError(
                    f"entry {int(np.argmax(short))} has no cell-set value"
                )
            src = np.frombuffer(buf, dtype=np.uint8)
            if int(self._offsets.max()) >= src.size:
                raise StorageError("batch probe offsets overrun the heap")
            tags = src[self._offsets]
            for tag in np.unique(tags):
                codec = codec_for_tag(int(tag))  # raises on unknown tags
                if ticker is not None:
                    ticker()
                # entry ids ascend within each tag group, so the interval
                # run table stays in (entry, run) order
                for e in np.flatnonzero(tags == tag):
                    e = int(e)
                    offset = int(self._offsets[e])
                    end = int(self._ends[e])
                    if codec.skip(buf, offset) > end:
                        raise StorageError(f"entry {e} value overruns its heap slot")
                    if codec.tag == TAG_INTERVAL:
                        starts, lens, _, _ = INTERVAL._run_table(buf, offset)
                        run_s.append(starts)
                        run_e.append(starts + lens - 1)
                        run_id.append(np.full(starts.size, e, dtype=np.int64))
                    elif codec.tag == TAG_BITMAP:
                        _, m, base, pos = BITMAP._header(buf, offset)
                        # clamp like _query_mask: pad bits may address past int64
                        cap = min(base + 8 * m - 1, 2**63 - 1)
                        bm.append((e, base, cap, pos, m))
                    else:  # delta / raw: expanded once into the concatenated table
                        values, _ = codec.decode(buf, offset)
                        if values.size:
                            cell_v.append(values)
                            cell_id.append(np.full(values.size, e, dtype=np.int64))
        lowered = _LoweredHeap()
        lowered.run_starts = _concat_i64(run_s)
        lowered.run_ends = _concat_i64(run_e)
        lowered.run_eid = _concat_i64(run_id)
        lowered.cell_values = _concat_i64(cell_v)
        lowered.cell_eid = _concat_i64(cell_id)
        cols = np.asarray(bm, dtype=np.int64).reshape(-1, 5).T
        lowered.bm_eid, lowered.bm_base, lowered.bm_cap, lowered.bm_pos, lowered.bm_len = cols
        self._lowered = lowered
        return lowered

    # -- lowered-table persistence ------------------------------------------

    #: flat int64 tables of a lowered heap, in persistence order; ``bm``
    #: additionally packs the bitmap descriptor columns as one (5, k) matrix
    LOWERED_NAMES = ("run_starts", "run_ends", "run_eid", "cell_values", "cell_eid", "bm")

    def lowered_tables(self, ticker=None) -> dict[str, np.ndarray]:
        """The lowered tables as flat int64 arrays, for persistence.

        ``bm`` is the ``(5, k)`` bitmap descriptor matrix ``(entry, base,
        cap, pos, len)``; positions index into the same heap buffer the
        probe was built over, so the tables round-trip alongside the heap.
        """
        t = self._lower(ticker)
        out = {
            name: getattr(t, name)
            for name in ("run_starts", "run_ends", "run_eid", "cell_values", "cell_eid")
        }
        out["bm"] = np.stack([t.bm_eid, t.bm_base, t.bm_cap, t.bm_pos, t.bm_len])
        return out

    @classmethod
    def from_lowered(cls, buf, n_entries: int, tables) -> "BatchProbe":
        """Reconstruct a probe from persisted lowered tables over ``buf``.

        The inverse of :meth:`lowered_tables`: no header walk and no decode
        happen — the probe is warm immediately, which is how a segment-backed
        store serves its first mismatched scan at cached-table speed.
        """
        probe = cls(buf, np.empty(0, dtype=np.int64))
        probe.n_entries = int(n_entries)
        t = _LoweredHeap()
        for name in ("run_starts", "run_ends", "run_eid", "cell_values", "cell_eid"):
            t_arr = np.asarray(tables[name], dtype=np.int64)
            setattr(t, name, t_arr)
        bm = np.asarray(tables["bm"], dtype=np.int64).reshape(5, -1)
        t.bm_eid, t.bm_base, t.bm_cap, t.bm_pos, t.bm_len = bm
        probe._lowered = t
        return probe

    def _bitmap_window(self, t: _LoweredHeap, query: np.ndarray):
        """Per-bitmap-entry query windows ``(lo, hi)`` after the vectorised
        bounds rejection (two searchsorted calls over all masks)."""
        lo = np.searchsorted(query, t.bm_base, side="left")
        hi = np.searchsorted(query, t.bm_cap, side="right")
        return lo, hi

    def _bitmap_hits(self, t: _LoweredHeap, j: int, query_window: np.ndarray) -> np.ndarray:
        """Boolean hit mask of one bitmap entry over its query window."""
        rel = query_window - int(t.bm_base[j])
        mask = np.frombuffer(
            self._buf, dtype=np.uint8, count=int(t.bm_len[j]), offset=int(t.bm_pos[j])
        )
        return ((mask[rel >> 3] >> (rel & 7)) & 1).astype(bool)

    # -- probes ------------------------------------------------------------

    def contains_any(self, sorted_query: np.ndarray, ticker=None) -> np.ndarray:
        """Per-entry verdicts: does the entry's set hit ``sorted_query``?"""
        query = _as_int64(sorted_query)
        verdict = np.zeros(self.n_entries, dtype=bool)
        if query.size == 0 or self.n_entries == 0:
            return verdict
        t = self._lower(ticker)
        if t.run_starts.size:
            lo = np.searchsorted(query, t.run_starts, side="left")
            hi = np.searchsorted(query, t.run_ends, side="right")
            verdict[t.run_eid[hi > lo]] = True
        if t.cell_values.size:
            pos = np.searchsorted(query, t.cell_values)
            inb = pos < query.size
            hit = np.zeros(t.cell_values.size, dtype=bool)
            hit[inb] = query[pos[inb]] == t.cell_values[inb]
            verdict[t.cell_eid[hit]] = True
        if t.bm_eid.size:
            lo, hi = self._bitmap_window(t, query)
            for j in np.flatnonzero((hi > lo) & ~verdict[t.bm_eid]):
                if self._bitmap_hits(t, int(j), query[lo[j]: hi[j]]).any():
                    verdict[t.bm_eid[j]] = True
        return verdict

    def intersect(
        self, sorted_query: np.ndarray, ticker=None
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """``(hit_entry_ids, intersections)`` over the whole heap.

        ``hit_entry_ids`` is ascending; ``intersections[i]`` is exactly what
        the per-entry probe would return for that entry (the subset of
        ``sorted_query`` present, duplicates preserved).  Entries with empty
        intersections are omitted, so nothing non-intersecting is ever
        materialised.
        """
        query = _as_int64(sorted_query)
        results: dict[int, np.ndarray] = {}
        if query.size == 0 or self.n_entries == 0:
            return np.empty(0, dtype=np.int64), []
        t = self._lower(ticker)
        if t.run_starts.size:
            lo = np.searchsorted(query, t.run_starts, side="left")
            hi = np.searchsorted(query, t.run_ends, side="right")
            hit = hi > lo
            if hit.any():
                # runs were lowered in (entry, run) order, so the gathered
                # values arrive grouped by entry and ascending within it
                self._split_into(results, t.run_eid[hit], lo[hit], hi[hit], query)
        if t.cell_values.size:
            pos_l = np.searchsorted(query, t.cell_values, side="left")
            pos_r = np.searchsorted(query, t.cell_values, side="right")
            hit = pos_r > pos_l
            if hit.any():
                eid, lo, hi = t.cell_eid[hit], pos_l[hit], pos_r[hit]
                # delta values may be unsorted and duplicated within an
                # entry: order by (entry, query position) and keep each
                # matched query position once per entry
                order = np.lexsort((lo, eid))
                eid, lo, hi = eid[order], lo[order], hi[order]
                keep = np.ones(eid.size, dtype=bool)
                keep[1:] = (eid[1:] != eid[:-1]) | (lo[1:] != lo[:-1])
                self._split_into(results, eid[keep], lo[keep], hi[keep], query)
        if t.bm_eid.size:
            lo, hi = self._bitmap_window(t, query)
            for j in np.flatnonzero(hi > lo):
                window = query[lo[j]: hi[j]]
                vals = window[self._bitmap_hits(t, int(j), window)]
                if vals.size:
                    results[int(t.bm_eid[j])] = vals
        hit_ids = np.asarray(sorted(results), dtype=np.int64)
        return hit_ids, [results[int(e)] for e in hit_ids]

    @staticmethod
    def _split_into(
        results: dict[int, np.ndarray],
        eid: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        query: np.ndarray,
    ) -> None:
        """Materialise ``query[lo:hi)`` ranges grouped by non-decreasing
        ``eid`` into per-entry arrays (one gather, one split)."""
        counts = hi - lo
        values = query[expand_ranges(lo, counts)]
        boundaries = np.flatnonzero(np.diff(eid)) + 1
        entry_ids = eid[np.r_[0, boundaries]]
        pieces = np.split(values, np.cumsum(counts)[boundaries - 1])
        for entry, piece in zip(entry_ids, pieces):
            results[int(entry)] = piece


class LoweredProbeCache:
    """Mixin: the per-field :class:`BatchProbe` cache of one value heap, and
    the one owner of its persisted form.

    A heap of codec-encoded cell-set values (a ``RegionEntryTable``'s value
    column, a ``BlobStore``) answers mismatched scans through one probe per
    value *field* (values hold one cell set per input array).  Probes, with
    their lowered tables, are cached until the heap changes
    (:meth:`_reset_probes`).  A flush persists the warm ones as
    ``probe{field}.<table>`` sections listed under the heap meta's
    ``probe_fields`` key; a segment-backed heap rehydrates them lazily, so
    the shard holding them maps only when a scan first asks — and even a
    fresh process pays no header walk.

    The host class provides ``finalize()``, an ``_flock`` RLock,
    ``_probe_heap()`` returning ``(buf, starts, ends)`` over every entry,
    and ``_field_starts(field)``: each entry's offset of cell set ``field``
    (its own bounds-checked walk).
    """

    def _reset_probes(self) -> None:
        self._probes: dict[int, BatchProbe] = {}
        #: ``(segment, prefix, fields)`` while persisted lowered tables are
        #: available but not yet hydrated
        self._probe_source: tuple | None = None

    def batch_probe(self, field: int = 0, ticker=None) -> BatchProbe:
        """Vectorised prober over every entry's cell-set ``field``.

        Built over the shared heap (no per-entry byte slicing) and cached
        until the heap changes, so a scan's per-entry verdicts cost a few
        NumPy passes and repeat scans skip even the header walk.  ``ticker``
        is called once per batch (the cold field-offset walk for
        ``field > 0`` counts as one batch), so a query-time budget
        interrupts at batch boundaries only.
        """
        self.finalize()
        probe = self._probes.get(field)
        if probe is None:
            with self._flock:
                probe = self._probes.get(field)
                if probe is None:
                    probe = self._probes[field] = self._build_probe(field, ticker)
        return probe

    def _build_probe(self, field: int, ticker) -> BatchProbe:
        buf, starts, ends = self._probe_heap()
        source = self._probe_source
        if source is not None and field in source[2]:
            # hydrate from the persisted lowered tables; this is the access
            # that maps the shard holding them
            seg, prefix, _ = source
            tables = {
                name: seg.array(f"{prefix}probe{field}.{name}")
                for name in BatchProbe.LOWERED_NAMES
            }
            return BatchProbe.from_lowered(buf, ends.size, tables)
        if field and ends.size:
            if ticker is not None:
                ticker()
            starts = self._field_starts(field)
        return BatchProbe(buf, starts, ends)

    def probe_fields(self) -> set[int]:
        """Fields whose lowered tables are warm: cached in memory, or
        persisted in the backing segment (hydration is lazy but costs no
        header walk, so they count as warm)."""
        fields = {f for f, p in self._probes.items() if p._lowered is not None}
        if self._probe_source is not None:
            fields |= set(self._probe_source[2])
        return fields

    @staticmethod
    def _probe_meta(n: int, fields: list[int]) -> dict:
        """The heap's ``meta`` section: entry count and persisted fields."""
        return {"n": n, "probe_fields": fields}

    def _dump_probes(self, writer, prefix: str, fields: list[int]) -> None:
        for field in fields:
            # batch_probe hydrates lazily-persisted tables when needed
            tables = self.batch_probe(field=field).lowered_tables()
            for name in BatchProbe.LOWERED_NAMES:
                writer.add_array(f"{prefix}probe{field}.{name}", tables[name])

    def _attach_probes(self, seg, prefix: str, meta: dict) -> None:
        """Defer hydration of the persisted lowered tables named by
        ``meta`` (see :meth:`_probe_meta`) until a scan first asks."""
        fields = [int(f) for f in meta.get("probe_fields", [])]
        if fields:
            self._probe_source = (seg, prefix, fields)


def _concat_i64(parts: list[np.ndarray]) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)
