"""The per-example masking and batch writer that ``masking`` is tested against.

Each example gets its own window, its own int64 grid, a copy of it for the
inputs, a full ``targets`` grid and a copy of the slot mask;
``reference_emit_batch`` then pads every example into uint16 grids, stacks
them and joins the header on. ``masking.mask_batch``,
``masking.make_masked_example`` and ``masking.emit_batch`` must give the same
bytes from the same generators: the same draws in the same order.
"""

from __future__ import annotations

import struct

import numpy as np

from octomidi.encoding import COL_BAR
from octomidi.masking import MaskedExample, StrategyKind
from octomidi.vocab import CLS_ID, ELEMENT_RANGES, EOS_ID, MASK_ID, NUM_SPECIALS, PAD_ID

NO_TARGET = 0xFFFF
_RANGE_BY_COL = np.array(ELEMENT_RANGES, dtype=np.int64)


def reference_sample_segment(seq, max_len, rng):
    window = max_len - 2
    if len(seq) <= window:
        return seq
    start = int(rng.integers(0, len(seq) - window + 1))
    return seq[start : start + window]


def reference_build_grid(seq) -> np.ndarray:
    n = len(seq)
    grid = np.empty((n + 2, 8), dtype=np.int64)
    grid[0] = CLS_ID
    grid[1 : n + 1] = seq.array + NUM_SPECIALS
    grid[n + 1] = EOS_ID
    return grid


def reference_select_mask_slots(seq, strategy, rng) -> np.ndarray:
    length = len(seq) + 2
    p = strategy.mask_probability
    if strategy.kind is StrategyKind.RANDOM:
        return rng.random((length, 8)) < p
    if strategy.kind is StrategyKind.OCTUPLE:
        rows = rng.random(length) < p
        return np.repeat(rows[:, None], 8, axis=1)
    bars = seq.array[:, COL_BAR]
    unique_bars, bar_rank = np.unique(bars, return_inverse=True)
    unit_draw = rng.random((len(unique_bars) + 2, 8)) < p
    mask = np.empty((length, 8), dtype=bool)
    mask[0] = unit_draw[0]
    if len(seq):
        mask[1:-1] = unit_draw[1 + bar_rank]
    mask[-1] = unit_draw[-1]
    return mask


def reference_corrupt_slots(seq, slots, rng) -> MaskedExample:
    grid = reference_build_grid(seq)
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
        input_ids[rows[randomized], cols[randomized]] = rng.integers(NUM_SPECIALS, high)
    return MaskedExample(input_ids=input_ids, targets=targets, mask=slots.copy())


def reference_make_masked_example(seq, strategy, rng) -> MaskedExample:
    return reference_corrupt_slots(seq, reference_select_mask_slots(seq, strategy, rng), rng)


def reference_emit_batch(examples: list[MaskedExample]) -> bytes:
    """OMB1 bytes of the examples, padded to the longest."""
    length = max((ex.length for ex in examples), default=0)
    inputs = np.full((len(examples), length, 8), PAD_ID, dtype=np.uint16)
    targets = np.full((len(examples), length, 8), NO_TARGET, dtype=np.uint16)
    for i, ex in enumerate(examples):
        inputs[i, : ex.length] = ex.input_ids
        targets[i, : ex.length] = ex.targets
    ids = np.stack((inputs, targets), axis=1).astype("<u2", copy=False)
    return b"".join((b"OMB1", struct.pack("<II", len(examples), length), ids.data))
