"""Astronomy (LSST) benchmark: workflow, synthetic data, queries (§II-A).

The real benchmark consumed two 512x2000-pixel exposures from the LSST
project.  Those images are not distributable, so :func:`generate_images`
synthesises exposures with the properties the paper's analysis relies on —
a smooth sky background, compact Gaussian stars (high locality, sparse), and
cosmic-ray hits that differ between the two exposures.

The workflow mirrors Figure 1: 22 built-in mapping operators and four UDFs —
A/B (per-exposure cosmic-ray detection, *composite* lineage), C (cosmic-ray
removal on the composite image, *composite*), and D (star detection,
*payload/composite*).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from repro.arrays import coords as C
from repro.arrays.array import SciArray
from repro.core.model import Direction, LineageQuery
from repro.core.modes import LineageMode
from repro.ops import (
    BroadcastSubtract,
    ClipMin,
    Convolve2D,
    DivideConstant,
    GlobalMean,
    Minimum,
    Scale,
    SubtractConstant,
    gaussian_kernel,
)
from repro.ops.base import Operator
from repro.ops.convolution import dilate_coords
from repro.storage import codecs
from repro.workflow.spec import WorkflowSpec

__all__ = [
    "generate_images",
    "build_spec",
    "CosmicRayDetect",
    "CosmicRayRemove",
    "StarDetect",
    "AstronomyBenchmark",
    "UDF_NODES",
    "BUILTIN_NODES",
]

UDF_NODES = ("crd_1", "crd_2", "cr_remove", "star_detect")


def _neighbourhood_batch(
    cells: np.ndarray, offsets: np.ndarray, shape
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row clipped neighbourhoods in columnar ``(values, offsets)`` form.

    Row ``i`` of ``cells`` expands to ``cells[i] + offsets`` with
    out-of-bounds rows dropped — the whole-array equivalent of calling
    ``clip_coords(cell + offsets, shape)`` per cell, emitted as one
    descriptor for ``lwrite_batch``.
    """
    neigh = cells[:, None, :] + offsets[None, :, :]
    shape_arr = np.asarray(shape, dtype=np.int64)
    valid = ((neigh >= 0) & (neigh < shape_arr)).all(axis=2)
    set_offsets = np.zeros(cells.shape[0] + 1, dtype=np.int64)
    np.cumsum(valid.sum(axis=1), out=set_offsets[1:])
    return neigh.reshape(-1, cells.shape[1])[valid.ravel()], set_offsets


def _square_offsets(radius: int) -> np.ndarray:
    """The ``(2r+1)^2`` window offsets in ij-meshgrid (ascending) order."""
    grid = np.meshgrid(
        np.arange(-radius, radius + 1), np.arange(-radius, radius + 1), indexing="ij"
    )
    return np.stack([g.ravel() for g in grid], axis=1).astype(np.int64)


def _radius_map_p_batch(
    cells: np.ndarray, radii: np.ndarray, shape
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise payload expansion for a radius payload: row ``i`` maps to
    its clipped radius-``radii[i]`` window (itself at radius 0).

    One broadcast pass per distinct radius.  The window is ascending, so
    each row's cells come out in ``dilate_coords``' order — row for row
    what ``map_p_many`` returns for that cell alone."""
    pieces, rows = [], []
    for radius in np.unique(radii):
        idx = np.flatnonzero(radii == radius)
        if radius == 0:
            pieces.append(cells[idx])
            rows.append(idx)
            continue
        neigh, offsets = _neighbourhood_batch(cells[idx], _square_offsets(int(radius)), shape)
        pieces.append(neigh)
        rows.append(np.repeat(idx, np.diff(offsets)))
    if not pieces:
        return C.empty_coords(2), np.empty(0, dtype=np.int64)
    return np.concatenate(pieces), np.concatenate(rows)


BUILTIN_NODES = tuple(
    [
        f"{name}_{i}"
        for i in (1, 2)
        for name in ("bias_sub", "flat_div", "smooth", "bg_mean", "bg_sub", "clip", "gain")
    ]
    + [
        "min_combine",
        "rescale",
        "bg2_mean",
        "bg2_sub",
        "clip2",
        "smooth2",
        "contrast",
        "floor",
    ]
)


def generate_images(
    shape: tuple[int, int] = (512, 2000),
    n_stars: int = 60,
    n_cosmic: int = 40,
    seed: int = 0,
) -> tuple[SciArray, SciArray]:
    """Two consecutive exposures of the same synthetic sky.

    Stars appear in both exposures; cosmic rays are independent single hot
    pixels per exposure (that is what lets the pipeline remove them by
    compositing, §II-A).
    """
    rng = np.random.default_rng(seed)
    h, w = shape
    sky = 100.0 + rng.normal(0.0, 2.0, size=shape)
    stars = np.zeros(shape)
    yy, xx = np.mgrid[0:h, 0:w]
    for _ in range(n_stars):
        cy, cx = rng.integers(3, h - 3), rng.integers(3, w - 3)
        amp = rng.uniform(300.0, 900.0)
        sigma = rng.uniform(1.0, 2.0)
        local = slice(max(0, cy - 6), min(h, cy + 7)), slice(max(0, cx - 6), min(w, cx + 7))
        stars[local] += amp * np.exp(
            -((yy[local] - cy) ** 2 + (xx[local] - cx) ** 2) / (2 * sigma**2)
        )
    images = []
    for _ in range(2):
        cosmic = np.zeros(shape)
        ys = rng.integers(0, h, size=n_cosmic)
        xs = rng.integers(0, w, size=n_cosmic)
        cosmic[ys, xs] = rng.uniform(2000.0, 5000.0, size=n_cosmic)
        noisy = sky + stars + cosmic + rng.normal(0.0, 1.0, size=shape)
        images.append(SciArray.from_numpy(noisy.astype(np.float64)))
    return images[0], images[1]


class CosmicRayDetect(Operator):
    """UDF A/B: flag pixels far brighter than their local median.

    A flagged output cell depends on the input pixels within ``radius`` (3,
    so 49 neighbours, matching §V's CRD example); clean cells depend only on
    the corresponding input pixel — the composite-lineage pattern.
    """

    arity = 1
    radius = 3
    payload_uniform = False
    entire_array_safe = True

    def __init__(self, sigma_factor: float = 10.0, name: str | None = None):
        super().__init__(name)
        self.sigma_factor = float(sigma_factor)
        self._offsets = _square_offsets(self.radius)

    def _detect(self, values: np.ndarray) -> np.ndarray:
        median = ndimage.median_filter(values, size=5, mode="nearest")
        residual = values - median
        sigma = max(float(np.median(np.abs(residual))) * 1.4826, 1e-9)
        return residual > self.sigma_factor * sigma

    def compute(self, inputs: list[SciArray]) -> SciArray:
        mask = self._detect(inputs[0].values())
        return SciArray.from_numpy(mask.astype(np.float64), name=self.name)

    def supported_modes(self) -> frozenset[LineageMode]:
        return frozenset(
            {LineageMode.FULL, LineageMode.PAY, LineageMode.COMP, LineageMode.BLACKBOX}
        )

    def write_lineage(self, inputs, output, ctx) -> None:
        mask = output.values() > 0.5
        hot = np.stack(np.nonzero(mask), axis=1).astype(np.int64)
        cold = np.stack(np.nonzero(~mask), axis=1).astype(np.int64)
        if ctx.wants_full:
            if hot.shape[0]:
                in_coords, in_offsets = _neighbourhood_batch(
                    hot, self._offsets, self.input_shapes[0]
                )
                one_cell = np.arange(hot.shape[0] + 1, dtype=np.int64)
                ctx.lwrite_batch(hot, one_cell, (in_coords,), (in_offsets,))
            ctx.lwrite_elementwise(cold, cold)
        if LineageMode.PAY in ctx.cur_modes:
            ctx.lwrite_payload_batch(
                hot, np.full((hot.shape[0], 1), self.radius, dtype=np.uint8)
            )
            ctx.lwrite_payload_batch(
                cold, np.zeros((cold.shape[0], 1), dtype=np.uint8)
            )
        elif LineageMode.COMP in ctx.cur_modes:
            # map_b covers clean pixels; store payload only for cosmic rays.
            ctx.lwrite_payload_batch(
                hot, np.full((hot.shape[0], 1), self.radius, dtype=np.uint8)
            )

    # composite defaults: identity
    def map_b_many(self, out_coords, input_idx):
        return C.as_coord_array(out_coords, ndim=2)

    def map_f_many(self, in_coords, input_idx):
        return C.as_coord_array(in_coords, ndim=2)

    def map_p_many(self, out_coords, payload, input_idx):
        radius = payload[0]
        if radius == 0:
            return C.as_coord_array(out_coords, ndim=2)
        return dilate_coords(out_coords, _square_offsets(radius), self.input_shapes[0])

    def map_p_batch(self, out_coords, payloads, input_idx):
        return _radius_map_p_batch(
            C.as_coord_array(out_coords, ndim=2),
            _payload_first_bytes(payloads),
            self.input_shapes[0],
        )

    def runtime_cost_hint(self) -> float:
        return 8.0


class CosmicRayRemove(Operator):
    """UDF C: replace flagged pixels of the composite with a local median.

    Inputs: (composite image, mask A, mask B).  Clean pixels map one-to-one
    to all three inputs; repaired pixels additionally depend on the
    composite neighbourhood used for interpolation.
    """

    arity = 3
    radius = 2
    payload_uniform = False
    entire_array_safe = True

    def __init__(self, name: str | None = None):
        super().__init__(name)
        self._offsets = _square_offsets(self.radius)

    def infer_schema(self, input_schemas):
        input_schemas[0].require_same_shape(input_schemas[1], context=self.name)
        input_schemas[0].require_same_shape(input_schemas[2], context=self.name)
        return input_schemas[0]

    def compute(self, inputs: list[SciArray]) -> SciArray:
        composite = inputs[0].values()
        mask = (inputs[1].values() > 0.5) | (inputs[2].values() > 0.5)
        repaired = np.where(
            mask, ndimage.median_filter(composite, size=5, mode="nearest"), composite
        )
        return SciArray.from_numpy(repaired, name=self.name)

    def supported_modes(self) -> frozenset[LineageMode]:
        return frozenset(
            {LineageMode.FULL, LineageMode.PAY, LineageMode.COMP, LineageMode.BLACKBOX}
        )

    def write_lineage(self, inputs, output, ctx) -> None:
        mask = (inputs[1].values() > 0.5) | (inputs[2].values() > 0.5)
        hot = np.stack(np.nonzero(mask), axis=1).astype(np.int64)
        cold = np.stack(np.nonzero(~mask), axis=1).astype(np.int64)
        if ctx.wants_full:
            if hot.shape[0]:
                in_coords, in_offsets = _neighbourhood_batch(
                    hot, self._offsets, self.input_shapes[0]
                )
                one_cell = np.arange(hot.shape[0] + 1, dtype=np.int64)
                ctx.lwrite_batch(
                    hot,
                    one_cell,
                    (in_coords, hot, hot),
                    (in_offsets, one_cell, one_cell),
                )
            ctx.lwrite_elementwise(cold, cold, cold, cold)
        if LineageMode.PAY in ctx.cur_modes:
            ctx.lwrite_payload_batch(
                hot, np.full((hot.shape[0], 1), self.radius, dtype=np.uint8)
            )
            ctx.lwrite_payload_batch(cold, np.zeros((cold.shape[0], 1), dtype=np.uint8))
        elif LineageMode.COMP in ctx.cur_modes:
            ctx.lwrite_payload_batch(
                hot, np.full((hot.shape[0], 1), self.radius, dtype=np.uint8)
            )

    def map_b_many(self, out_coords, input_idx):
        return C.as_coord_array(out_coords, ndim=2)

    def map_f_many(self, in_coords, input_idx):
        return C.as_coord_array(in_coords, ndim=2)

    def map_p_many(self, out_coords, payload, input_idx):
        radius = payload[0]
        if radius == 0 or input_idx != 0:
            return C.as_coord_array(out_coords, ndim=2)
        return dilate_coords(out_coords, _square_offsets(radius), self.input_shapes[0])

    def map_p_batch(self, out_coords, payloads, input_idx):
        out_coords = C.as_coord_array(out_coords, ndim=2)
        if input_idx != 0:
            return out_coords, np.arange(out_coords.shape[0], dtype=np.int64)
        return _radius_map_p_batch(
            out_coords, _payload_first_bytes(payloads), self.input_shapes[0]
        )

    def runtime_cost_hint(self) -> float:
        return 8.0


class StarDetect(Operator):
    """UDF D: label connected bright regions (stars).

    Every pixel labelled *star k* depends on all pixels of star k — one
    region pair per star, the paper's flagship region-lineage example.  The
    payload is the star's member-cell set (delta-encoded packed cells), so
    payload lineage is exact; background pixels default to identity.

    ``granularity="box"`` enables the paper's §VIII-D future-work idea:
    variable-granularity lineage.  The payload shrinks to the star's
    bounding box (two packed corners) and ``map_p`` expands to every cell in
    the box — a *superset* of the true lineage, which the interviewed
    scientists deemed acceptable, traded for lossy-compressed storage.
    """

    arity = 1
    payload_uniform = True
    entire_array_safe = True

    #: payload tag bytes
    _TAG_IDENTITY = 0
    _TAG_CELLS = 1
    _TAG_BOX = 2

    def __init__(
        self,
        sigma_factor: float = 5.0,
        granularity: str = "exact",
        name: str | None = None,
    ):
        super().__init__(name)
        self.sigma_factor = float(sigma_factor)
        if granularity not in ("exact", "box"):
            raise ValueError(f"granularity must be 'exact' or 'box', got {granularity!r}")
        self.granularity = granularity

    def _label(self, values: np.ndarray) -> np.ndarray:
        threshold = values.mean() + self.sigma_factor * values.std()
        bright = values > threshold
        labels, _ = ndimage.label(bright)
        return labels

    def compute(self, inputs: list[SciArray]) -> SciArray:
        labels = self._label(inputs[0].values())
        return SciArray.from_numpy(labels.astype(np.float64), name=self.name)

    def supported_modes(self) -> frozenset[LineageMode]:
        return frozenset(
            {LineageMode.FULL, LineageMode.PAY, LineageMode.COMP, LineageMode.BLACKBOX}
        )

    def write_lineage(self, inputs, output, ctx) -> None:
        labels = output.values().astype(np.int64)
        background = np.stack(np.nonzero(labels == 0), axis=1).astype(np.int64)
        star_cells: list[np.ndarray] = []
        for star_id in range(1, labels.max() + 1):
            cells = np.stack(np.nonzero(labels == star_id), axis=1).astype(np.int64)
            if cells.shape[0]:
                star_cells.append(cells)
        # one region pair per star, all stars in one columnar descriptor
        if star_cells:
            flat = np.concatenate(star_cells)
            star_offsets = np.zeros(len(star_cells) + 1, dtype=np.int64)
            np.cumsum([c.shape[0] for c in star_cells], out=star_offsets[1:])
        if ctx.wants_full:
            if star_cells:
                ctx.lwrite_batch(flat, star_offsets, (flat,), (star_offsets,))
            ctx.lwrite_elementwise(background, background)
        if LineageMode.PAY in ctx.cur_modes:
            if star_cells:
                ctx.lwrite_payload_regions(
                    flat, star_offsets, *self._encode_star_payloads(star_cells)
                )
            ctx.lwrite_payload_batch(
                background, np.zeros((background.shape[0], 1), dtype=np.uint8)
            )
        elif LineageMode.COMP in ctx.cur_modes:
            if star_cells:
                ctx.lwrite_payload_regions(
                    flat, star_offsets, *self._encode_star_payloads(star_cells)
                )

    def _encode_star_payloads(
        self, star_cells: list[np.ndarray]
    ) -> tuple[bytes, np.ndarray]:
        """Concatenated per-star payload blobs + offsets (columnar form)."""
        blobs = [self._encode_cells(cells) for cells in star_cells]
        offsets = np.zeros(len(blobs) + 1, dtype=np.int64)
        np.cumsum([len(b) for b in blobs], out=offsets[1:])
        return b"".join(blobs), offsets

    def _encode_cells(self, cells: np.ndarray) -> bytes:
        if self.granularity == "box":
            lo, hi = C.bounding_box(cells)
            corners = C.pack_coords(np.stack([lo, hi]), self.output_shape)
            return bytes([self._TAG_BOX]) + corners.astype("<i8").tobytes()
        packed = np.sort(C.pack_coords(cells, self.output_shape))
        return bytes([self._TAG_CELLS]) + codecs.encode_cells(packed)

    def map_b_many(self, out_coords, input_idx):
        return C.as_coord_array(out_coords, ndim=2)

    def map_f_many(self, in_coords, input_idx):
        return C.as_coord_array(in_coords, ndim=2)

    def map_p_many(self, out_coords, payload, input_idx):
        if not payload or payload[0] == self._TAG_IDENTITY:
            return C.as_coord_array(out_coords, ndim=2)
        if payload[0] == self._TAG_BOX:
            corners = np.frombuffer(payload, dtype="<i8", count=2, offset=1)
            lo, hi = C.unpack_coords(corners.astype(np.int64), self.input_shapes[0])
            grids = np.meshgrid(
                *(np.arange(a, b + 1, dtype=np.int64) for a, b in zip(lo, hi)),
                indexing="ij",
            )
            return np.stack([g.ravel() for g in grids], axis=1)
        packed, _ = codecs.decode_cells(payload, 1)
        return C.unpack_coords(packed, self.input_shapes[0])

    def map_p_batch(self, out_coords, payloads, input_idx):
        """Identity rows pass through in one slice; a star's payload (its
        cells or box, the same for every one of its pixels) is decoded
        once per distinct payload, not once per row."""
        out_coords = C.as_coord_array(out_coords, ndim=2)
        if isinstance(payloads, np.ndarray):
            tags = payloads[:, 0] if payloads.shape[1] else np.zeros(len(payloads))
        else:
            tags = np.frombuffer(
                b"".join([p[:1] or b"\0" for p in payloads]), dtype=np.uint8
            )
        identity = np.flatnonzero(tags == self._TAG_IDENTITY)
        pieces, rows = [out_coords[identity]], [identity]
        stars: dict[bytes, list[int]] = {}
        for i in np.flatnonzero(tags != self._TAG_IDENTITY).tolist():
            stars.setdefault(bytes(payloads[i]), []).append(i)
        for payload, members in stars.items():
            cells = self.map_p_many(out_coords[members[0]: members[0] + 1], payload, input_idx)
            pieces.append(np.tile(cells, (len(members), 1)))
            rows.append(np.repeat(np.asarray(members, dtype=np.int64), cells.shape[0]))
        return np.concatenate(pieces), np.concatenate(rows).astype(np.int64)

    def runtime_cost_hint(self) -> float:
        return 6.0


def _payload_first_bytes(payloads) -> np.ndarray:
    if isinstance(payloads, np.ndarray):
        return payloads[:, 0].astype(np.int64)
    return np.asarray([p[0] for p in payloads], dtype=np.int64)


def build_spec() -> WorkflowSpec:
    """The Figure-1 workflow: 22 built-ins (solid boxes) + UDFs A-D."""
    spec = WorkflowSpec(name="astronomy")
    spec.add_source("img_1")
    spec.add_source("img_2")
    for i in (1, 2):
        img = f"img_{i}"
        spec.add_node(f"bias_sub_{i}", SubtractConstant(100.0), [img])
        spec.add_node(f"flat_div_{i}", DivideConstant(1.1), [f"bias_sub_{i}"])
        spec.add_node(f"smooth_{i}", Convolve2D(gaussian_kernel(3, 1.0)), [f"flat_div_{i}"])
        spec.add_node(f"bg_mean_{i}", GlobalMean(), [f"smooth_{i}"])
        spec.add_node(f"bg_sub_{i}", BroadcastSubtract(), [f"smooth_{i}", f"bg_mean_{i}"])
        spec.add_node(f"clip_{i}", ClipMin(0.0), [f"bg_sub_{i}"])
        spec.add_node(f"gain_{i}", Scale(1.2), [f"clip_{i}"])
        spec.add_node(f"crd_{i}", CosmicRayDetect(), [f"gain_{i}"])
    spec.add_node("min_combine", Minimum(), ["gain_1", "gain_2"])
    spec.add_node("cr_remove", CosmicRayRemove(), ["min_combine", "crd_1", "crd_2"])
    spec.add_node("rescale", Scale(1.0 / 1.2), ["cr_remove"])
    spec.add_node("bg2_mean", GlobalMean(), ["rescale"])
    spec.add_node("bg2_sub", BroadcastSubtract(), ["rescale", "bg2_mean"])
    spec.add_node("clip2", ClipMin(0.0), ["bg2_sub"])
    spec.add_node("smooth2", Convolve2D(gaussian_kernel(3, 0.8)), ["clip2"])
    spec.add_node("contrast", Scale(1.5), ["smooth2"])
    spec.add_node("floor", ClipMin(0.0), ["contrast"])
    spec.add_node("star_detect", StarDetect(), ["floor"])
    return spec


# The backward spine from the star map to exposure 1.
_BQ0_PATH = (
    ("star_detect", 0),
    ("floor", 0),
    ("contrast", 0),
    ("smooth2", 0),
    ("clip2", 0),
    ("bg2_sub", 0),
    ("rescale", 0),
    ("cr_remove", 0),
    ("min_combine", 0),
    ("gain_1", 0),
    ("clip_1", 0),
    ("bg_sub_1", 0),
    ("smooth_1", 0),
    ("flat_div_1", 0),
    ("bias_sub_1", 0),
)

_FQ0_PATH = (
    ("bias_sub_1", 0),
    ("flat_div_1", 0),
    ("smooth_1", 0),
    ("bg_mean_1", 0),
    ("bg_sub_1", 1),
    ("clip_1", 0),
    ("gain_1", 0),
    ("crd_1", 0),
)


@dataclass
class AstronomyBenchmark:
    """Data + workflow + the six benchmark queries of Figure 5(b)."""

    shape: tuple[int, int] = (512, 2000)
    seed: int = 0
    n_stars: int = 60
    n_cosmic: int = 40

    def __post_init__(self):
        self.img_1, self.img_2 = generate_images(
            self.shape, self.n_stars, self.n_cosmic, self.seed
        )

    def inputs(self) -> dict[str, SciArray]:
        return {"img_1": self.img_1, "img_2": self.img_2}

    def build_spec(self) -> WorkflowSpec:
        return build_spec()

    # -- query construction (needs an executed instance to pick real cells) --

    def queries(self, instance) -> dict[str, LineageQuery]:
        """BQ0-BQ4 and FQ0, anchored to actual stars/regions in this run."""
        labels = instance.output_array("star_detect").values().astype(np.int64)
        star_ids, counts = np.unique(labels[labels > 0], return_counts=True)
        if star_ids.size == 0:
            raise ValueError("no stars detected; increase n_stars or amplitudes")
        star = int(star_ids[np.argmax(counts)])
        star_cells = np.stack(np.nonzero(labels == star), axis=1).astype(np.int64)

        h, w = self.shape
        block = _block_coords(h // 4, w // 4, min(16, h // 4), min(16, w // 4))
        queries = {
            # one star back to the raw exposure
            "BQ0": LineageQuery(star_cells, _BQ0_PATH, Direction.BACKWARD),
            # an output region back to the composite image
            "BQ1": LineageQuery(
                block,
                (
                    ("star_detect", 0),
                    ("floor", 0),
                    ("contrast", 0),
                    ("smooth2", 0),
                    ("clip2", 0),
                    ("bg2_sub", 0),
                    ("rescale", 0),
                    ("cr_remove", 0),
                ),
                Direction.BACKWARD,
            ),
            # a cosmic-ray-mask region back through the per-exposure chain
            "BQ2": LineageQuery(
                block,
                (("crd_1", 0), ("gain_1", 0), ("clip_1", 0), ("bg_sub_1", 0)),
                Direction.BACKWARD,
            ),
            # the anomalous-mean hunt: a background-corrected region back
            # through the all-to-all global mean (§II-A's faulty operator)
            "BQ3": LineageQuery(
                np.asarray([[0]]),
                (("bg2_mean", 0), ("rescale", 0), ("cr_remove", 0)),
                Direction.BACKWARD,
            ),
            # mask provenance: which mask pixels fed the repaired composite
            "BQ4": LineageQuery(
                block,
                (("cr_remove", 1), ("crd_1", 0), ("gain_1", 0)),
                Direction.BACKWARD,
            ),
            # forward through the all-to-all background mean
            "FQ0": LineageQuery(block, _FQ0_PATH, Direction.FORWARD),
        }
        return queries


def _block_coords(y0: int, x0: int, h: int, w: int) -> np.ndarray:
    yy, xx = np.mgrid[y0: y0 + h, x0: x0 + w]
    return np.stack([yy.ravel(), xx.ravel()], axis=1).astype(np.int64)
