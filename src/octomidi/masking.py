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
from .vocab import CLS_ID, EOS_ID, MASK_ID, NUM_SPECIALS, VOCAB

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


def build_grid(seq: OctupleSeq, out: np.ndarray | None = None) -> np.ndarray:
    """Identifier grid for a segment: class row, octuple rows, end row
    (written into ``out``, an (L, 8) integer array, if given)."""
    grid = np.empty((len(seq) + 2, 8), dtype=np.int64) if out is None else out
    grid[0] = CLS_ID
    np.add(seq.array, NUM_SPECIALS, out=grid[1:-1], casting="unsafe")
    grid[-1] = EOS_ID
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
        return unit_draw[np.concatenate(([0], 1 + bar_rank, [len(unique_bars) + 1]))]
    raise ValueError(f"unknown strategy kind {strategy.kind!r}")


def _corrupt(input_ids: np.ndarray, targets: np.ndarray, slots: np.ndarray, rng) -> None:
    """80/10/10 corruption in place at the selected slots of C-ordered (L, 8)
    grids; ``targets`` takes the originals there."""
    ids, flat = input_ids.reshape(-1), np.flatnonzero(slots)
    targets.reshape(-1)[flat] = ids[flat]
    branch = rng.random(flat.size)
    ids[flat[branch < 0.8]] = MASK_ID
    flat = flat[(branch >= 0.8) & (branch < 0.9)]
    ids[flat] = rng.integers(NUM_SPECIALS, NUM_SPECIALS + _RANGE_BY_COL[flat % 8])


def corrupt_slots(
    seq: OctupleSeq, slots: np.ndarray, rng: np.random.Generator
) -> MaskedExample:
    """Apply 80/10/10 corruption at the selected slots of a segment grid."""
    grid = build_grid(seq)
    if slots.shape != grid.shape:
        raise ValueError(f"slot set shape {slots.shape} does not match grid {grid.shape}")
    targets = np.full(grid.shape, NO_TARGET, dtype=np.int64)
    _corrupt(grid, targets, slots, rng)
    return MaskedExample(input_ids=grid, targets=targets, mask=slots.copy())


def make_masked_example(
    seq: OctupleSeq, strategy: MaskingStrategy, rng: np.random.Generator
) -> MaskedExample:
    """Select and corrupt in one step; fully determined by (seq, strategy, rng)."""
    return corrupt_slots(seq, select_mask_slots(seq, strategy, rng), rng)


def write_masked_batch(segments: list[OctupleSeq], rngs: list[np.random.Generator],
                       strategy: MaskingStrategy, sink) -> int:
    """Mask each segment with its generator straight into its slice of one
    OMB1 buffer: the bytes and draws of :func:`emit_batch` over
    ``make_masked_example(seq, strategy, rng)``. Returns the bytes written."""
    stream, body = formats.omb1_buffer(len(segments), max((len(s) + 2 for s in segments), default=0))
    for example, seq, rng in zip(body, segments, rngs):
        input_ids, targets = example[:, : len(seq) + 2]
        _corrupt(build_grid(seq, input_ids), targets, select_mask_slots(seq, strategy, rng), rng)
    return formats.write_omb1_buffer(stream, sink)


def emit_batch(examples: list[MaskedExample], sink) -> int:
    """Pad examples to a common length and write one OMB1 batch.

    Padding rows use the pad identifier in all 8 columns and are never
    targets. Returns the number of bytes written.
    """
    stream, body = formats.omb1_buffer(len(examples), max((e.length for e in examples), default=0))
    for example, ex in zip(body, examples):
        example[:, : ex.length] = ex.input_ids, ex.targets
    return formats.write_omb1_buffer(stream, sink)
