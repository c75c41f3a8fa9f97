"""Masked-language-model example construction over octuple segments.

A training example is an (L, 8) grid of element identifiers: row 0 is the
class-token row, row L-1 the end-token row (both made of 8 duplicated
special identifiers and both maskable), and the rows between hold one
octuple each.

Three slot-selection strategies are supported, all with the same per-slot
masking probability:

* ``random``:  every slot drawn independently;
* ``octuple``: whole rows drawn at once;
* ``bar``:     all slots of one element type within one bar form a unit and
               are masked together (class/end rows are single-row units).

Selected slots are corrupted 80/10/10: mask identifier, a random value from
the element's own vocabulary (specials excluded), or left unchanged. Targets
hold the original identifier at every selected slot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import formats
from .encoding import COL_BAR, OctupleSeq
from .vocab import CLS_ID, EOS_ID, MASK_ID, NUM_SPECIALS, PAD_ID, VOCAB

NO_TARGET = formats.NO_TARGET

_RANGE_BY_COL = np.array(VOCAB.ranges, dtype=np.int64)


class StrategyKind(str, enum.Enum):
    RANDOM = "random"
    OCTUPLE = "octuple"
    BAR_LEVEL = "bar"


@dataclass(frozen=True)
class MaskingStrategy:
    kind: StrategyKind
    mask_probability: float = 0.15

    def __post_init__(self) -> None:
        if not 0.0 <= self.mask_probability <= 1.0:
            raise ValueError(f"mask probability {self.mask_probability} outside [0, 1]")


@dataclass
class MaskedExample:
    """One training example: corrupted inputs, targets, and the slot record.

    ``targets`` is NO_TARGET everywhere except at selected slots, where it
    holds the original identifier. ``input_ids`` differs from the original
    grid only at selected slots. ``mask`` is True at the selected slots.
    """

    input_ids: np.ndarray
    targets: np.ndarray
    mask: np.ndarray

    @property
    def length(self) -> int:
        return self.input_ids.shape[0]


def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    """Independent random stream for (seed, ordinal...) worker derivation."""
    return np.random.default_rng([seed, *stream])


def build_grid(seq: OctupleSeq) -> np.ndarray:
    """Identifier grid for a segment: class row, octuple rows, end row."""
    n = len(seq)
    grid = np.empty((n + 2, 8), dtype=np.int64)
    grid[0] = CLS_ID
    grid[1 : n + 1] = seq.array + NUM_SPECIALS
    grid[n + 1] = EOS_ID
    return grid


def sample_segment(seq: OctupleSeq, max_len: int, rng: np.random.Generator) -> OctupleSeq:
    """Uniformly sample a contiguous window leaving room for class/end rows.

    Sequences of at most ``max_len - 2`` octuples are returned unchanged;
    longer ones yield a random window of exactly ``max_len - 2`` octuples.
    """
    if max_len < 2:
        raise ValueError(f"max_len must be >= 2 (class and end rows), got {max_len}")
    window = max_len - 2
    if len(seq) <= window:
        return seq
    start = int(rng.integers(0, len(seq) - window + 1))
    return seq[start : start + window]


def select_mask_slots(
    seq: OctupleSeq, strategy: MaskingStrategy, rng: np.random.Generator
) -> np.ndarray:
    """Boolean (L, 8) slot selection for the given strategy."""
    length = len(seq) + 2
    p = strategy.mask_probability
    if strategy.kind is StrategyKind.RANDOM:
        return rng.random((length, 8)) < p
    if strategy.kind is StrategyKind.OCTUPLE:
        rows = rng.random(length) < p
        return np.repeat(rows[:, None], 8, axis=1)
    if strategy.kind is StrategyKind.BAR_LEVEL:
        bars = seq.array[:, COL_BAR]
        unique_bars, bar_rank = np.unique(bars, return_inverse=True)
        # Unit rows: class row, one per bar in ascending order, end row.
        unit_draw = rng.random((len(unique_bars) + 2, 8)) < p
        mask = np.empty((length, 8), dtype=bool)
        mask[0] = unit_draw[0]
        if len(seq):
            mask[1:-1] = unit_draw[1 + bar_rank]
        mask[-1] = unit_draw[-1]
        return mask
    raise ValueError(f"unknown strategy kind {strategy.kind!r}")


def corrupt_slots(
    seq: OctupleSeq, slots: np.ndarray, rng: np.random.Generator
) -> MaskedExample:
    """Apply 80/10/10 corruption at the selected slots of a segment grid."""
    grid = build_grid(seq)
    if slots.shape != grid.shape:
        raise ValueError(f"slot set shape {slots.shape} does not match grid {grid.shape}")
    input_ids = grid.copy()
    targets = np.full(grid.shape, NO_TARGET, dtype=np.int64)
    rows, cols = np.nonzero(slots)
    targets[rows, cols] = grid[rows, cols]

    branch = rng.random(rows.size)
    masked = branch < 0.8
    randomized = (branch >= 0.8) & (branch < 0.9)
    input_ids[rows[masked], cols[masked]] = MASK_ID
    if randomized.any():
        high = NUM_SPECIALS + _RANGE_BY_COL[cols[randomized]]
        input_ids[rows[randomized], cols[randomized]] = rng.integers(
            NUM_SPECIALS, high
        )
    return MaskedExample(input_ids=input_ids, targets=targets, mask=slots.copy())


def make_masked_example(
    seq: OctupleSeq, strategy: MaskingStrategy, rng: np.random.Generator
) -> MaskedExample:
    """Select and corrupt in one step; fully determined by (seq, strategy, rng)."""
    return corrupt_slots(seq, select_mask_slots(seq, strategy, rng), rng)


def emit_batch(examples: list[MaskedExample], sink) -> int:
    """Pad examples to a common length and write one OMB1 batch.

    Padding rows use the pad identifier in all 8 columns and are never
    targets. Returns the number of bytes written.
    """
    length = max((ex.length for ex in examples), default=0)
    inputs = np.full((len(examples), length, 8), PAD_ID, dtype=np.uint16)
    targets = np.full((len(examples), length, 8), NO_TARGET, dtype=np.uint16)
    for i, ex in enumerate(examples):
        inputs[i, : ex.length] = ex.input_ids
        targets[i, : ex.length] = ex.targets
    return formats.write_omb1(inputs, targets, sink)
