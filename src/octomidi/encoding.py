"""Note-tuple encoding: each note becomes an 8-element tuple of grid indices.

The eight elements are time signature, tempo, bar, position, instrument,
pitch, duration, and velocity. Onsets are placed on a 1/64-note grid
(round half up), bars are counted from tick 0 under the split/normalized
time-signature map, and tempo/time signature are the values active at the
note's onset. Percussion notes use instrument 128, pitch = percussion key
+ 128, and duration bin 0.
"""

from __future__ import annotations

import functools
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


# Every element after the bar is bounded, so canonical order is (bar, one
# packed key): position 7 bits, instrument and pitch 8, duration 7, velocity
# 5, tempo 6, time signature 8. Values must lie in their element ranges.
_PACK = np.array([1, 1 << 8, 0, 1 << 42, 1 << 34, 1 << 26, 1 << 19, 1 << 14], dtype=np.int64)


def canonical_order(array: np.ndarray, *major: np.ndarray) -> np.ndarray:
    """Row order by the ``major`` keys (the last is primary), then canonically."""
    return np.lexsort((array @ _PACK, array[:, COL_BAR], *major))


def canonical_sort(array: np.ndarray) -> np.ndarray:
    """Return rows sorted by the canonical octuple order."""
    return array[canonical_order(array)]


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


@functools.lru_cache(maxsize=1024)
def _signature(numerator: int, denominator: int) -> tuple[int, int]:
    """Table index and bar capacity of a declared signature, long bars split."""
    n, d = grids.normalize_signature(numerator, denominator)
    return grids.timesig_index(n, d), grids.bar_capacity(n, d)


def _own_rows(song, x, table_song, table_x, first) -> np.ndarray:
    """For each query, the last row of its own song's table with x at most its x.

    The table is sorted by (song, x); song s owns rows ``first[s]:first[s + 1]``,
    at least one. A query before its song's first row takes the song's last
    row, as ``searchsorted(...) - 1`` does on one song's table.
    """
    if not len(x):
        return np.zeros(0, dtype=np.int64)
    lo = min(x.min(), table_x.min())
    span = max(x.max(), table_x.max()) - lo + 1
    if span >= (1 << 62) // len(first):  # the (song, x) keys would overflow
        raise ValueError("tick range too wide for one batch")
    keys = song * span
    keys += x - lo
    row = np.searchsorted(table_song * span + (table_x - lo), keys, side="right") - 1
    wrap = row < first[song]
    if wrap.any():
        row[wrap] = first[song[wrap] + 1] - 1
    return row


class SongBatch:
    """Several songs' note tables stacked, with a song index per row.

    Each song keeps its own bar-segment and tempo tables and every lookup
    searches only its own song's rows, so a song encodes the same in any
    batch; :func:`encode_octuple` is the one-song case. The tables are built
    at the first lookup: add every song before it.
    """

    def __init__(self, songs: Iterable[MidiSong] = ()):
        self.songs: list[MidiSong] = []
        self._sigs: list[tuple[int, int, int, int]] = []
        for song in songs:
            self.add(song)

    def add(self, song: MidiSong) -> None:
        """Append a song, or raise UnrepresentableSignatureError or
        InvalidTimeSignatureError for a signature off the grid, changing nothing."""
        s = len(self.songs)
        self._sigs += [(s, tick, *_signature(n, d)) for tick, n, d in song.timesig_events]
        self.songs.append(song)

    @functools.cached_property
    def tpq(self) -> np.ndarray:
        return np.array([s.ticks_per_quarter for s in self.songs], dtype=np.int64)

    @functools.cached_property
    def signatures(self) -> np.ndarray:
        """(song, tick, table index, bar capacity) of every split signature event."""
        return np.array(self._sigs, dtype=np.int64).reshape(-1, 4)

    @functools.cached_property
    def tempos(self) -> np.ndarray:
        """(song, tick, quantized tempo index) of every tempo event."""
        events = [(s, tick, bpm) for s, song in enumerate(self.songs)
                  for tick, bpm in song.tempo_events]
        bpm = np.array([ev[2] for ev in events], dtype=np.float64)
        return np.column_stack((np.array([ev[:2] for ev in events], dtype=np.int64).reshape(-1, 2),
                                grids.quantize_tempo_array(bpm)))

    @functools.cached_property
    def _segments(self):
        """Each song's bars walked on the 1/64-note grid, one row per segment.

        A signature event starts a segment at its rounded grid point, and a
        later event at the same point replaces it; a segment's first bar is
        ceil(span / capacity) bars after the previous segment's.
        """
        song, tick, index, cap = self.signatures.T
        steps = _round_to_steps(tick, self.tpq[song])
        last = np.ones(len(song), dtype=bool)
        last[:-1] = (song[1:] != song[:-1]) | (steps[1:] != steps[:-1])
        song, steps, index, cap = song[last], steps[last], index[last], cap[last]
        first = np.searchsorted(song, np.arange(len(self.songs) + 1))
        bars = np.zeros(len(song), dtype=np.int64)
        bars[1:] = -(-(steps[1:] - steps[:-1]) // cap[:-1])
        bars[first[:-1]] = 0
        bars = np.cumsum(bars)
        return song, steps, bars - bars[first[song]], cap, index, first

    def locate(self, song: np.ndarray, ticks: np.ndarray):
        """(bar, position, signature index) of each tick in its own song."""
        seg_song, starts, first_bars, caps, indices, first = self._segments
        steps = _round_to_steps(ticks, self.tpq[song])
        seg = _own_rows(song, steps, seg_song, starts, first)
        offset = steps - starts[seg]
        return first_bars[seg] + offset // caps[seg], offset % caps[seg], indices[seg]

    def encode(self) -> tuple[np.ndarray, np.ndarray]:
        """Every song's canonical rows, untruncated, in song order, and each row's song."""
        counts = [len(s.notes) for s in self.songs]
        song = np.repeat(np.arange(len(self.songs)), counts)
        if not song.size:
            return np.zeros((0, 8), dtype=np.int64), song
        notes = (self.songs[0].notes if len(counts) == 1
                 else np.concatenate([s.notes for s in self.songs]))
        data = notes[:, 2:5]
        if data.min() < 0 or data.max() > 127:
            raise ValueError("note pitch, velocity or program outside [0, 127]")
        onsets, durations, pitches, velocities, programs, is_drum, _ = notes.T
        drum = is_drum.astype(bool)

        bar, position, sig_idx = self.locate(song, onsets)
        tempo_song, tempo_ticks, tempo_indices = self.tempos.T
        tempo_first = np.searchsorted(tempo_song, np.arange(len(self.songs) + 1))
        tempo_idx = tempo_indices[_own_rows(song, onsets, tempo_song, tempo_ticks, tempo_first)]
        duration_steps = _round_to_steps(durations, self.tpq[song])
        duration_idx = np.where(drum, 0, grids.quantize_duration_array(duration_steps))
        velocity_idx = grids.quantize_velocity_array(velocities)
        instrument = np.where(drum, PERCUSSION_INSTRUMENT, programs)
        pitch = np.where(drum, pitches + 128, pitches)

        rows = np.stack([sig_idx, tempo_idx, bar, position, instrument, pitch, duration_idx,
                         velocity_idx], axis=1)
        order = canonical_order(rows, song)
        return rows[order], song[order]


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
    rows, _ = SongBatch([song]).encode()
    if bar_limit is not None:
        keep = rows[:, COL_BAR] <= bar_limit
        if report is not None:
            report.notes_dropped_bar_overflow += len(rows) - int(keep.sum())
        rows = rows[keep]
    return OctupleSeq.from_array(rows, copy=False)


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
