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
from pathlib import Path
from typing import BinaryIO, Iterable, NamedTuple

import numpy as np

from . import formats
from .encoding import _RANGE_BY_COL, COL_BAR, OctupleSeq
from .vocab import CLS_ID, ELEMENT_RANGES, EOS_ID, MASK_ID, NUM_SPECIALS

_BARS = ELEMENT_RANGES[COL_BAR] + NUM_SPECIALS  # bar identifiers, specials included


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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), under numpy's names.
_POOL_SIZE = 4
_INIT_A = np.uint32(0x43B0D7E5)
_MULT_A = np.uint32(0x931E8875)
_INIT_B = np.uint32(0x8B51F9DD)
_MULT_B = np.uint32(0x58F38DED)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _entropy_words(value: int) -> list[int]:
    """``value`` as SeedSequence takes an entropy integer: 32-bit words, low first, at least one."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


def _hashmix(init: np.uint32, mult: np.uint32):
    """SeedSequence's hashmix over uint32 arrays, with its own running hash constant."""
    const = np.array([init])

    def hashmix(value: np.ndarray) -> np.ndarray:
        value = value ^ const
        np.multiply(const, mult, out=const)
        value *= const
        return value ^ value >> _XSHIFT

    return hashmix


def _seed_words(seed: int, first: int, count: int, *stream: int) -> np.ndarray:
    """``SeedSequence([seed, ordinal, *stream]).generate_state(4, uint64)``, one row
    per ordinal from ``first`` to ``first + count - 1``. SeedSequence's entropy mixing
    runs as uint32 array operations across the ordinals, which must fit one word each."""
    if first < 0 or first + count > 1 << 32:
        raise ValueError(f"ordinals {first} to {first + count - 1} outside [0, 2**32)")
    entropy = [np.full(count, word, np.uint32) for word in _entropy_words(seed)]
    entropy.append(np.arange(first, first + count, dtype=np.uint32))
    entropy += [np.full(count, word, np.uint32) for value in stream for word in _entropy_words(value)]

    hashmix = _hashmix(_INIT_A, _MULT_A)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ result >> _XSHIFT

    zeros = np.zeros(count, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight words from the cycled pool, read as four
    # little-endian 64-bit words. PCG64 reads them through a pointer, so native order.
    hashmix = _hashmix(_INIT_B, _MULT_B)
    words = np.stack([hashmix(pool[i % _POOL_SIZE]) for i in range(8)], axis=1)
    return words.astype("<u4").view("<u8").astype(np.uint64)


class _Words(NamedTuple):
    """One row of :func:`_seed_words`: the four words numpy's PCG64 asks a seed sequence for."""

    row: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.row


def _generators(words: np.ndarray) -> list[np.random.Generator]:
    """``derive_rng``'s generator per row of :func:`_seed_words`. ``_Words`` is registered on use so
    that with numpy 2.x, where numpy.random is imported only on use, importing octomidi skips it."""
    np.random.bit_generator.ISeedSequence.register(_Words)
    return [np.random.default_rng(_Words(row)) for row in words]


def _window_start(count: int, max_len: int, rng: np.random.Generator) -> int:
    """First row of the window a ``max_len`` budget keeps of ``count`` rows;
    a draw only when the rows do not all fit."""
    if max_len < 2:
        raise ValueError(f"max_len must be >= 2 (class and end rows), got {max_len}")
    return int(rng.integers(0, count - max_len + 3)) if count > max_len - 2 else 0


def sample_segment(seq: OctupleSeq, max_len: int, rng: np.random.Generator) -> OctupleSeq:
    """Uniformly sample a contiguous window leaving room for class/end rows.

    Sequences of at most ``max_len - 2`` octuples are returned whole; longer
    ones yield a random window of exactly ``max_len - 2`` octuples.
    """
    start = _window_start(len(seq), max_len, rng)
    return seq[start : start + max_len - 2]


# Examples masked per vectorized step: the step's temporaries hold about
# CHUNK * L * 8 slots for a batch of L rows.
CHUNK = 64


def mask_batch(sources: Iterable[str | Path | BinaryIO], strategy: MaskingStrategy,
               seed: int, max_len: int, sink) -> int:
    """Mask every OM8 stream into one OMB1 batch and write it to ``sink``.

    Example i is stream i cut by :func:`sample_segment` and masked by
    :func:`make_masked_example`, both drawing from ``derive_rng(seed, i)``;
    the seed words of each chunk are mixed in one pass.
    A stream that fails to read stops the run before anything is written.
    Returns the bytes written.
    """
    _window_start(0, max_len, None)  # a bad budget or seed fails before any read
    _entropy_words(seed)
    table, bounds = formats.read_om8_table(sources)
    starts, counts = bounds[:-1], np.diff(bounds)
    # Clipped at the longest song, which any larger budget keeps whole, so it fits int64.
    rows = np.minimum(counts, min(max_len - 2, int(counts.max(initial=0))))
    stream, body = formats.omb1_buffer(len(counts), int(rows.max(initial=-2)) + 2)
    for first in range(0, len(counts), CHUNK):
        part = slice(first, first + CHUNK)
        rngs = _generators(_seed_words(seed, first, len(counts[part])))
        _mask_chunk(table, starts[part], counts[part], rows[part], rngs, strategy, max_len, body[part])
    return formats._write(sink, stream)


def make_masked_example(
    seq: OctupleSeq, strategy: MaskingStrategy, rng: np.random.Generator
) -> MaskedExample:
    """Select and corrupt in one step; fully determined by (seq, strategy, rng).

    The one-example case of :func:`mask_batch`, on a segment already cut.
    """
    table = np.add(seq.array, NUM_SPECIALS, dtype=np.uint16, casting="unsafe")
    count = np.array([len(seq)])
    _, body = formats.omb1_buffer(1, len(seq) + 2)
    _mask_chunk(table, count * 0, count, count, [rng], strategy, len(seq) + 2, body)
    input_ids, targets = body[0].astype(np.int64)
    return MaskedExample(input_ids=input_ids, targets=targets, mask=targets != formats.NO_TARGET)


def _mask_chunk(table, starts, counts, rows, rngs, strategy, max_len, body) -> None:
    """Mask example i of a chunk, from rows ``starts[i]`` to ``starts[i] +
    counts[i]`` of ``table`` cut to a window of ``rows[i]``, into OMB1 body
    row i with generator i. Each generator draws in the per-example order:
    window, units, 80/10/10 branch, random values. Only those calls and the
    window copies run per example."""
    count, length = len(rngs), int(rows.max()) + 2
    inputs = body[:, 0, :length]
    for ex, (rng, start, n, keep) in enumerate(zip(rngs, starts.tolist(), counts.tolist(), rows.tolist())):
        start += _window_start(n, max_len, rng)
        inputs[ex, 1 : keep + 1] = table[start : start + keep]
    inputs[:, 0] = CLS_ID
    inputs[np.arange(count), rows + 1] = EOS_ID

    # Each example fills its own rows of one draw buffer; the 1.0 left in the
    # rest, padding rows included, is never below p.
    p = strategy.mask_probability
    if strategy.kind is StrategyKind.BAR_LEVEL:
        unit, bounds = _bar_units(inputs, rows)
        draws = np.ones((bounds[-1] + 1, 8))
        for rng, a, b in zip(rngs, bounds.tolist(), bounds[1:].tolist()):
            rng.random(out=draws[a:b])
        selected = (draws < p)[unit]
    else:
        width = 1 if strategy.kind is StrategyKind.OCTUPLE else 8
        draws = np.ones((count, length, width))
        for rng, own, n in zip(rngs, draws, (rows + 2).tolist()):
            rng.random(out=own[:n])
        selected = draws < p if width == 8 else (draws < p).repeat(8, axis=2)

    stride, flat = body[0].size, body.reshape(-1)
    at = np.flatnonzero(selected)
    picked = np.diff(np.searchsorted(at, np.arange(count + 1) * (length * 8)))
    # Input slots in the flat body, in example order; targets follow at + stride / 2.
    at += np.repeat(np.arange(count) * (stride - length * 8), picked)
    flat[at + stride // 2] = flat[at]
    branch = np.concatenate([rng.random(n) for rng, n in zip(rngs, picked.tolist())])
    flat[at[branch < 0.8]] = MASK_ID
    at = at[(branch >= 0.8) & (branch < 0.9)]
    cut = np.searchsorted(at, np.arange(1, count + 1) * stride).tolist()
    high = NUM_SPECIALS + _RANGE_BY_COL[at & 7]
    flat[at] = np.concatenate([rng.integers(NUM_SPECIALS, high[a:b])
                               for rng, a, b in zip(rngs, [0, *cut], cut)])


def _bar_units(inputs: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bar-level unit of every row of a chunk, and where each example's
    units start (one more entry: the total). An example's units are its class
    row, its distinct bars in ascending order and its end row; padding rows
    get the unit after the last."""
    count, length = inputs.shape[:2]
    notes = (np.arange(length) >= 1) & (np.arange(length) <= rows[:, None])
    owner = np.repeat(np.arange(count), rows)
    cell = owner * _BARS + inputs[..., COL_BAR][notes]  # (example, bar) of each note row
    seen = np.zeros(count * _BARS, dtype=bool)
    seen[cell] = True
    cells = np.cumsum(seen)  # distinct cells up to each one, across the chunk
    bounds = np.concatenate(([0], cells[_BARS - 1 :: _BARS] + 2 * np.arange(1, count + 1)))
    unit = np.full((count, length), bounds[-1])
    unit[:, 0] = bounds[:-1]
    unit[notes] = cells[cell] + 2 * owner
    unit[np.arange(count), rows + 1] = bounds[1:] - 1
    return unit, bounds


def emit_batch(examples: list[MaskedExample], sink) -> int:
    """Pad examples to a common length and write one OMB1 batch.

    Padding rows use the pad identifier in all 8 columns and are never
    targets. Returns the number of bytes written.
    """
    stream, body = formats.omb1_buffer(len(examples), max((e.length for e in examples), default=0))
    for example, ex in zip(body, examples):
        example[:, : ex.length] = ex.input_ids, ex.targets
    return formats._write(sink, stream)
