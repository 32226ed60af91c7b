"""Shared fixtures and test operators.

``SpotUDF`` is a miniature cosmic-ray-detector used across the suite: it
supports every lineage mode (Full, Pay, Comp, Blackbox), has data-dependent
region pairs (bright cells depend on a neighbourhood, others map one-to-one),
and is cheap enough for property tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SciArray, WorkflowSpec, ops
from repro.arrays import coords as C
from repro.core.modes import LineageMode
from repro.ops.base import Operator
from repro.storage import codecs


class SpotUDF(Operator):
    """Threshold detector: bright output cells depend on a (2r+1)^2
    neighbourhood, everything else maps one-to-one."""

    arity = 1
    payload_uniform = False
    entire_array_safe = True

    def __init__(self, thresh: float = 0.8, radius: int = 1, name: str | None = None):
        super().__init__(name)
        self.thresh = float(thresh)
        self.radius = int(radius)
        r = self.radius
        grid = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij")
        self._offsets = np.stack([g.ravel() for g in grid], axis=1).astype(np.int64)

    def compute(self, inputs):
        values = inputs[0].values()
        return SciArray.from_numpy((values > self.thresh).astype(np.float64), name=self.name)

    def supported_modes(self):
        return frozenset(
            {LineageMode.FULL, LineageMode.PAY, LineageMode.COMP, LineageMode.BLACKBOX}
        )

    def write_lineage(self, inputs, output, ctx):
        mask = output.values() > 0.5
        hot = np.stack(np.nonzero(mask), axis=1).astype(np.int64)
        cold = np.stack(np.nonzero(~mask), axis=1).astype(np.int64)
        if ctx.wants_full:
            for cell in hot:
                neighbours = C.clip_coords(cell + self._offsets, self.input_shapes[0])
                ctx.lwrite(cell.reshape(1, -1), neighbours)
            if cold.shape[0]:
                ctx.lwrite_elementwise(cold, cold)
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
        if radius == 0:
            return C.as_coord_array(out_coords, ndim=2)
        grid = np.meshgrid(
            np.arange(-radius, radius + 1), np.arange(-radius, radius + 1), indexing="ij"
        )
        offsets = np.stack([g.ravel() for g in grid], axis=1).astype(np.int64)
        return ops.dilate_coords(out_coords, offsets, self.input_shapes[0])


def full_value(fields) -> bytes:
    """Reference Full-layout value of one region pair: each input's sorted
    cell set, codec-encoded, back to back."""
    return b"".join(codecs.encode_cells(np.sort(arr)) for arr in fields)


def build_spot_spec(thresh: float = 0.6, radius: int = 1) -> WorkflowSpec:
    """smooth -> SpotUDF -> scale, over one image source."""
    spec = WorkflowSpec(name="spot")
    spec.add_source("img")
    spec.add_node("smooth", ops.Convolve2D(ops.gaussian_kernel(3)), ["img"])
    spec.add_node("spot", SpotUDF(thresh=thresh, radius=radius), ["smooth"])
    spec.add_node("scale", ops.Scale(2.0), ["spot"])
    return spec


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_image(rng):
    return SciArray.from_numpy(rng.random((20, 26)))


@pytest.fixture
def spot_spec():
    return build_spot_spec()
