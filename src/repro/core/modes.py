"""Lineage modes, encodings, orientations, and storage strategies.

The paper distinguishes (§V):

* **lineage modes** — what an operator *generates*: ``FULL`` region pairs,
  ``MAP``-ping functions, ``PAY``-load pairs, ``COMP``-osite
  (mapping default + payload overrides), or ``BLACKBOX`` (nothing extra);
* **encoding strategies** — how generated pairs are laid out in the hash
  store: ``ONE`` entry per cell vs ``MANY`` cells per entry (§VI-B);
* **orientation** — whether the hash key holds output cells
  (*backward-optimized*, ``←``) or input cells (*forward-optimized*, ``→``).

A :class:`StorageStrategy` bundles all three; the optimizer picks a set of
strategies per operator (§VII).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import LineageError

__all__ = [
    "LineageMode",
    "EncodingKind",
    "Orientation",
    "StorageStrategy",
    "BLACKBOX",
    "MAP",
    "FULL_ONE_B",
    "FULL_ONE_F",
    "FULL_MANY_B",
    "FULL_MANY_F",
    "PAY_ONE_B",
    "PAY_MANY_B",
    "COMP_ONE_B",
    "COMP_MANY_B",
    "ALL_STRATEGIES",
]


class LineageMode(enum.Enum):
    """What lineage an operator emits while it runs (``cur_modes``)."""

    FULL = "Full"
    MAP = "Map"
    PAY = "Pay"
    COMP = "Comp"
    BLACKBOX = "Blackbox"

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.value


class EncodingKind(enum.Enum):
    """Hash-entry layout: one cell per entry, or one entry per region pair."""

    ONE = "One"
    MANY = "Many"

    def __str__(self) -> str:  # pragma: no cover
        return self.value


class Orientation(enum.Enum):
    """Which side of a region pair is the hash key."""

    BACKWARD = "backward"  # key = output cells; fast backward queries
    FORWARD = "forward"  # key = input cells; fast forward queries

    @property
    def arrow(self) -> str:
        return "<-" if self is Orientation.BACKWARD else "->"

    def __str__(self) -> str:  # pragma: no cover
        return self.arrow


# Modes that physically store region pairs and therefore need an encoding.
_STORED_MODES = frozenset({LineageMode.FULL, LineageMode.PAY, LineageMode.COMP})


@dataclass(frozen=True)
class StorageStrategy:
    """A fully-specified way to store one operator's lineage.

    ``MAP`` and ``BLACKBOX`` strategies carry no encoding or orientation —
    they store nothing (mapping functions) or only what the workflow
    executor already persists (black-box).
    """

    mode: LineageMode
    encoding: EncodingKind | None = None
    orientation: Orientation | None = None

    def __post_init__(self) -> None:
        stored = self.mode in _STORED_MODES
        if stored and (self.encoding is None or self.orientation is None):
            raise LineageError(
                f"{self.mode} strategies must specify an encoding and orientation"
            )
        if not stored and (self.encoding is not None or self.orientation is not None):
            raise LineageError(
                f"{self.mode} strategies carry no encoding/orientation"
            )
        if self.mode is LineageMode.PAY and self.orientation is Orientation.FORWARD:
            # Payloads are opaque blobs; they cannot be indexed by input cell
            # (§V-A.3: "the payload is a binary blob that cannot be easily
            # indexed").  Forward payload queries invert them instead, once
            # per open store (OpLineageStore.forward_payload_index).
            raise LineageError("payload lineage cannot be forward-optimized")

    @property
    def stores_pairs(self) -> bool:
        return self.mode in _STORED_MODES

    @property
    def label(self) -> str:
        """Paper-style name, e.g. ``<-FullOne`` or ``Blackbox``."""
        if not self.stores_pairs:
            return self.mode.value
        return f"{self.orientation.arrow}{self.mode.value}{self.encoding.value}"

    def __str__(self) -> str:  # pragma: no cover
        return self.label


BLACKBOX = StorageStrategy(LineageMode.BLACKBOX)
MAP = StorageStrategy(LineageMode.MAP)
FULL_ONE_B = StorageStrategy(LineageMode.FULL, EncodingKind.ONE, Orientation.BACKWARD)
FULL_ONE_F = StorageStrategy(LineageMode.FULL, EncodingKind.ONE, Orientation.FORWARD)
FULL_MANY_B = StorageStrategy(LineageMode.FULL, EncodingKind.MANY, Orientation.BACKWARD)
FULL_MANY_F = StorageStrategy(LineageMode.FULL, EncodingKind.MANY, Orientation.FORWARD)
PAY_ONE_B = StorageStrategy(LineageMode.PAY, EncodingKind.ONE, Orientation.BACKWARD)
PAY_MANY_B = StorageStrategy(LineageMode.PAY, EncodingKind.MANY, Orientation.BACKWARD)
COMP_ONE_B = StorageStrategy(LineageMode.COMP, EncodingKind.ONE, Orientation.BACKWARD)
COMP_MANY_B = StorageStrategy(LineageMode.COMP, EncodingKind.MANY, Orientation.BACKWARD)

ALL_STRATEGIES: tuple[StorageStrategy, ...] = (
    BLACKBOX,
    MAP,
    FULL_ONE_B,
    FULL_ONE_F,
    FULL_MANY_B,
    FULL_MANY_F,
    PAY_ONE_B,
    PAY_MANY_B,
    COMP_ONE_B,
    COMP_MANY_B,
)
