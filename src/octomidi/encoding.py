"""Note-tuple encoding: each note becomes an 8-element tuple of grid indices.

The eight elements are time signature, tempo, bar, position, instrument,
pitch, duration, and velocity. Onsets are placed on a 1/64-note grid
(round half up), bars are counted from tick 0 under the split/normalized
time-signature map, and tempo/time signature are the values active at the
note's onset. Percussion notes use instrument 128, pitch = percussion key
+ 128, and duration bin 0.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, overload

import numpy as np

from . import grids
from .midi_io import DEFAULT_TIMESIG, MidiSong
from .vocab import ELEMENT_NAMES, ELEMENT_RANGES

log = logging.getLogger(__name__)

BAR_MAX = 255
PERCUSSION_INSTRUMENT = 128
DECODE_TICKS_PER_QUARTER = 480
_TICKS_PER_STEP = DECODE_TICKS_PER_QUARTER // 16  # one 1/64 note

# Column indices into the 8-element layout.
COL_TIMESIG = 0
COL_TEMPO = 1
COL_BAR = 2
COL_POSITION = 3
COL_INSTRUMENT = 4
COL_PITCH = 5
COL_DURATION = 6
COL_VELOCITY = 7


class Octuple(NamedTuple):
    timesig_idx: int
    tempo_idx: int
    bar: int
    position: int
    instrument: int
    pitch: int
    duration_idx: int
    velocity_idx: int


class OctupleSeq:
    """Ordered sequence of octuples for one song, kept in canonical order.

    Canonical order sorts ascending by (bar, position, instrument, pitch,
    duration, velocity, tempo, time signature). Backed by an (N, 8) int64
    array; rows follow the Octuple field order.
    """

    __slots__ = ("_array",)

    def __init__(self, octuples: Iterable[Octuple | tuple[int, ...]] = ()):
        rows = [tuple(o) for o in octuples]
        self._array = np.array(rows, dtype=np.int64).reshape(len(rows), 8)

    @classmethod
    def from_array(cls, array: np.ndarray, copy: bool = True) -> "OctupleSeq":
        seq = cls.__new__(cls)
        arr = np.asarray(array, dtype=np.int64).reshape(-1, 8)
        seq._array = arr.copy() if copy else arr
        return seq

    @classmethod
    def canonical(cls, octuples: Iterable[Octuple | tuple[int, ...]]) -> "OctupleSeq":
        """Build a sequence, sorting it into canonical order."""
        return cls(octuples).sorted()

    def sorted(self) -> "OctupleSeq":
        return OctupleSeq.from_array(canonical_sort(self._array), copy=False)

    def is_canonical(self) -> bool:
        return bool(np.array_equal(self._array, canonical_sort(self._array)))

    def to_array(self) -> np.ndarray:
        return self._array.copy()

    @property
    def array(self) -> np.ndarray:
        """Internal array view; treat as read-only."""
        return self._array

    def __len__(self) -> int:
        return self._array.shape[0]

    def __iter__(self) -> Iterator[Octuple]:
        for row in self._array:
            yield Octuple(*(int(v) for v in row))

    @overload
    def __getitem__(self, index: int) -> Octuple: ...

    @overload
    def __getitem__(self, index: slice) -> "OctupleSeq": ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return OctupleSeq.from_array(self._array[index])
        return Octuple(*(int(v) for v in self._array[index]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, OctupleSeq):
            return NotImplemented
        return bool(np.array_equal(self._array, other._array))

    def __repr__(self) -> str:
        return f"OctupleSeq(len={len(self)})"


def canonical_sort(array: np.ndarray) -> np.ndarray:
    """Return rows sorted by the canonical octuple order."""
    if array.shape[0] < 2:
        return array.copy()
    order = np.lexsort(
        (
            array[:, COL_TIMESIG],
            array[:, COL_TEMPO],
            array[:, COL_VELOCITY],
            array[:, COL_DURATION],
            array[:, COL_PITCH],
            array[:, COL_INSTRUMENT],
            array[:, COL_POSITION],
            array[:, COL_BAR],
        )
    )
    return array[order]


_RANGE_BY_COL = np.array(ELEMENT_RANGES)


def validate_values(array: np.ndarray) -> None:
    """Check element ranges and the percussion consistency rule.

    A range error names the lowest-index column out of range.
    """
    if len(array) and (array.min() < 0 or (array >= _RANGE_BY_COL).any()):
        # Per-column reductions only to name the column.
        bad = (array.min(axis=0) < 0) | (array.max(axis=0) >= _RANGE_BY_COL)
        col = int(bad.argmax())
        raise ValueError(f"{ELEMENT_NAMES[col]} value outside [0, {ELEMENT_RANGES[col] - 1}]")
    drums = array[:, COL_INSTRUMENT] == PERCUSSION_INSTRUMENT
    if (drums != (array[:, COL_PITCH] >= 128)).any():
        raise ValueError("percussion instrument and pitch range disagree")
    if (array[drums, COL_DURATION] != 0).any():
        raise ValueError("percussion notes must use duration bin 0")


@dataclass
class ConversionReport:
    """Per-song counters for lossy or inconsistent conversions."""

    notes_dropped_bar_overflow: int = 0
    timesig_conflicts: int = 0
    tempo_conflicts: int = 0


def _round_to_steps(ticks: np.ndarray | int, tpq: int):
    """Ticks to 1/64-note steps, rounding half up."""
    return (ticks * 32 + tpq) // (2 * tpq)


def _prepared_timesigs(song: MidiSong) -> list[tuple[int, int, int]]:
    """The song's signature events with long bars split."""
    return grids.split_long_bars(song.timesig_events)


class BarMap:
    """Maps ticks to (bar, position) under a split time-signature event map.

    Bars are walked on the 1/64-note grid. A signature change always starts
    a new bar at its (rounded) grid point, truncating the previous bar if
    the change falls mid-bar.
    """

    def __init__(self, song: MidiSong):
        tpq = song.ticks_per_quarter
        events = _prepared_timesigs(song)
        starts: list[int] = []
        sig_indices: list[int] = []
        caps: list[int] = []
        for tick, n, d in events:
            step = int(_round_to_steps(tick, tpq))
            if starts and starts[-1] == step:
                starts.pop(), sig_indices.pop(), caps.pop()
            starts.append(step)
            sig_indices.append(grids.timesig_index(n, d))
            caps.append(grids.bar_capacity(n, d))
        first_bars = [0]
        for i in range(1, len(starts)):
            span = starts[i] - starts[i - 1]
            first_bars.append(first_bars[-1] + -(-span // caps[i - 1]))
        self._tpq = tpq
        self._starts = np.array(starts, dtype=np.int64)
        self._caps = np.array(caps, dtype=np.int64)
        self._first_bars = np.array(first_bars, dtype=np.int64)
        self._sig_indices = np.array(sig_indices, dtype=np.int64)

    def locate_ticks(self, ticks: np.ndarray):
        """Vectorized tick lookup: (bar, position, timesig index) arrays."""
        steps = _round_to_steps(np.asarray(ticks, dtype=np.int64), self._tpq)
        seg = np.searchsorted(self._starts, steps, side="right") - 1
        offset = steps - self._starts[seg]
        bar = self._first_bars[seg] + offset // self._caps[seg]
        position = offset % self._caps[seg]
        return bar, position, self._sig_indices[seg]

    def locate_tick(self, tick: int) -> tuple[int, int, int]:
        bar, pos, sig = self.locate_ticks(np.array([tick], dtype=np.int64))
        return int(bar[0]), int(pos[0]), int(sig[0])


def _tempo_index_map(song: MidiSong) -> tuple[np.ndarray, np.ndarray]:
    """Ticks and quantized tempo indices of the song's tempo events."""
    ticks = np.array([t for t, _ in song.tempo_events], dtype=np.int64)
    indices = grids.quantize_tempo_array(np.array([b for _, b in song.tempo_events]))
    return ticks, indices


def encode_octuple(
    song: MidiSong,
    report: ConversionReport | None = None,
    *,
    bar_limit: int | None = BAR_MAX,
) -> OctupleSeq:
    """Encode a validated song into its canonical octuple sequence.

    Notes landing beyond ``bar_limit`` are dropped; the drop count is added
    to ``report`` when one is passed. ``bar_limit=None`` keeps every note
    (the result may then exceed the serializable bar range; fingerprinting
    uses this to hash a song before truncation).
    """
    if len(song.notes) == 0:
        return OctupleSeq()
    bar_map = BarMap(song)
    tempo_ticks, tempo_indices = _tempo_index_map(song)

    onsets, durations, pitches, velocities, programs, is_drum, _ = song.notes.T
    drum = is_drum.astype(bool)

    bar, position, sig_idx = bar_map.locate_ticks(onsets)
    tempo_idx = tempo_indices[
        np.searchsorted(tempo_ticks, onsets, side="right") - 1
    ]
    duration_steps = _round_to_steps(durations, song.ticks_per_quarter)
    duration_idx = np.where(drum, 0, grids.quantize_duration_array(duration_steps))
    velocity_idx = grids.quantize_velocity_array(velocities)
    instrument = np.where(drum, PERCUSSION_INSTRUMENT, programs)
    pitch = np.where(drum, pitches + 128, pitches)

    rows = np.stack(
        [sig_idx, tempo_idx, bar, position, instrument, pitch, duration_idx, velocity_idx],
        axis=1,
    )
    if bar_limit is not None:
        keep = bar <= bar_limit
        dropped = int((~keep).sum())
        if dropped and report is not None:
            report.notes_dropped_bar_overflow += dropped
        rows = rows[keep]
    return OctupleSeq.from_array(canonical_sort(rows), copy=False)


def decode_octuple(seq: OctupleSeq, report: ConversionReport | None = None) -> MidiSong:
    """Reconstruct a song at 480 ticks per quarter from an octuple sequence.

    Dequantizes tempo, velocity, and duration; lays bars out cumulatively
    from the per-bar signatures. Octuples that disagree on the signature
    within one bar (or on tempo at one onset) are reported and the first
    value is kept. Re-encoding the result reproduces ``seq`` exactly.
    """
    arr = seq.array
    validate_values(arr)
    if arr.shape[0] == 0:
        return MidiSong(DECODE_TICKS_PER_QUARTER)

    # The first row of a bar sets its signature, the first row at an onset
    # its tempo; every other row that disagrees is one conflict.
    bars, sigs = arr[:, COL_BAR], arr[:, COL_TIMESIG]
    last_bar = int(bars.max())
    bar_sig = np.full(last_bar + 1, -1, dtype=np.int64)
    used_bars, first_rows = np.unique(bars, return_index=True)
    bar_sig[used_bars] = sigs[first_rows]
    sig_conflicts = int((sigs != bar_sig[bars]).sum())
    # One pass over the bars: a bar without notes keeps the signature before it.
    sig = grids.timesig_index(*DEFAULT_TIMESIG[1:])
    bar_starts = np.zeros(last_bar + 2, dtype=np.int64)
    timesig_events: list[tuple[int, int, int]] = []
    for b in range(last_bar + 1):
        if bar_sig[b] != -1:
            sig = int(bar_sig[b])
        n, d = grids.timesig_from_index(sig)
        bar_starts[b + 1] = bar_starts[b] + grids.bar_capacity(n, d) * _TICKS_PER_STEP
        if not timesig_events or timesig_events[-1][1:] != (n, d):
            timesig_events.append((int(bar_starts[b]), n, d))

    onset = bar_starts[arr[:, COL_BAR]] + arr[:, COL_POSITION] * _TICKS_PER_STEP
    drum = arr[:, COL_INSTRUMENT] == PERCUSSION_INSTRUMENT
    duration = grids.DURATION_GRID[arr[:, COL_DURATION]] * _TICKS_PER_STEP
    duration = np.where(drum, 0, duration)
    pitch = np.where(drum, arr[:, COL_PITCH] - 128, arr[:, COL_PITCH])
    velocity = grids.VELOCITY_GRID[arr[:, COL_VELOCITY]]
    program = np.where(drum, 0, arr[:, COL_INSTRUMENT])

    tempos = arr[:, COL_TEMPO]
    ticks, first_rows, onset_group = np.unique(onset, return_index=True, return_inverse=True)
    onset_tempo = tempos[first_rows]
    tempo_conflicts = int((tempos != onset_tempo[onset_group]).sum())
    changes = np.flatnonzero(np.diff(onset_tempo, prepend=-1))
    tempo_events = [
        (tick, grids.dequantize_tempo(idx))
        for tick, idx in zip(ticks[changes].tolist(), onset_tempo[changes].tolist())
    ]

    if sig_conflicts or tempo_conflicts:
        log.warning(
            "%d signature and %d tempo conflicts; keeping the first values",
            sig_conflicts, tempo_conflicts,
        )
        if report is not None:
            report.timesig_conflicts += sig_conflicts
            report.tempo_conflicts += tempo_conflicts
    notes = np.stack([onset, duration, pitch, velocity, program, drum, np.zeros_like(onset)], axis=1)
    return MidiSong(DECODE_TICKS_PER_QUARTER, notes, tempo_events, timesig_events)
