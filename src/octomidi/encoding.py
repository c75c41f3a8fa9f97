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
from typing import Iterable, Iterator, NamedTuple, overload

import numpy as np

from . import grids
from .errors import InvalidTimeSignatureError, OctomidiError, UnrepresentableSignatureError
from .midi_io import (DEFAULT_TEMPO, DEFAULT_TIMESIG, MidiSong, SongTable, last_at_or_before,
                      normalize_event_table, order_by, table_song)
from .vocab import ELEMENT_NAMES, ELEMENT_RANGES

log = logging.getLogger(__name__)

BAR_MAX = 255
PERCUSSION_INSTRUMENT = 128
DECODE_TICKS_PER_QUARTER = 480
_TICKS_PER_STEP = DECODE_TICKS_PER_QUARTER // 16  # one 1/64 note
# Bar length in 1/64-note steps, per signature index.
_BAR_STEPS = np.array([grids.bar_capacity(*pair) for pair in grids.TIMESIG_PAIRS])
_DEFAULT_SIG = grids.timesig_index(*DEFAULT_TIMESIG[1:])
_DEFAULT_TEMPO = grids.quantize_tempo(DEFAULT_TEMPO[1])

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
    """Ordered sequence of octuples for one song.

    The constructor, :meth:`from_array` and the readers keep the rows in the
    order given; :meth:`canonical`, :meth:`sorted` and :func:`encode_octuple`
    give canonical order, ascending by (bar, position, instrument, pitch,
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
    """Row order by the ``major`` keys (the first is primary), then canonically."""
    return order_by(*major, array[:, COL_BAR], array @ _PACK)


def canonical_sort(array: np.ndarray) -> np.ndarray:
    """Return rows sorted by the canonical octuple order."""
    return array[canonical_order(array)]


_RANGE_BY_COL = np.array(ELEMENT_RANGES, dtype=np.int64)
_POSITIONS = ELEMENT_RANGES[COL_POSITION]  # positions per bar at most


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


def _round_to_steps(ticks: np.ndarray | int, tpq: int):
    """Ticks to 1/64-note steps, rounding half up."""
    return (ticks * 32 + tpq) // (2 * tpq)


def _changes(events: np.ndarray, default: int) -> np.ndarray:
    """(song, tick) of the events whose value differs from the one before in
    their song, or from ``default`` for a song's first event."""
    value = events[:, 2]
    before = np.where(np.diff(events[:, 0], prepend=-1) != 0, default, np.roll(value, 1))
    return events[value != before, :2]


@functools.lru_cache(maxsize=1024)
def _signature(numerator: int, denominator: int) -> int:
    """Table index of a declared signature, long bars split."""
    return grids.timesig_index(*grids.normalize_signature(numerator, denominator))


class SongBatch:
    """Several songs' note tables stacked, with a song index per row.

    Built from a :class:`SongTable`, whose events it normalizes. Each song
    keeps its own bar-segment and tempo tables and every lookup searches
    only its own song's rows, so a song encodes the same in any batch;
    :func:`encode_octuple` is the one-song case. A song with a signature off
    the grid is left out; unless blank, ``errors`` maps it to the first one's error.
    """

    def __init__(self, table: SongTable):
        self.tpq = table.tpq
        live = np.flatnonzero([error is None for error in table.errors])
        at, pick = normalize_event_table(table.tempos, live)
        bpm = np.concatenate((np.full(len(live), DEFAULT_TEMPO[1]), table.bpm))[pick]
        self.tempos = np.column_stack((at, grids.quantize_tempo_array(bpm)))  # (song, tick, tempo index)
        at, pick = normalize_event_table(table.signatures, live)
        meters = [DEFAULT_TIMESIG[1:]] * len(live) + table.meters
        self.errors: dict[int, OctomidiError] = {}  # song: error
        looked = []  # table index per event
        for s, i in zip(at[:, 0].tolist(), pick.tolist()):
            try:
                looked.append(_signature(*meters[i]))
            except (UnrepresentableSignatureError, InvalidTimeSignatureError) as exc:
                self.errors.setdefault(s, exc.with_traceback(None))
                looked.append(0)  # left out with its song below
        # (song, tick, table index) of every split signature event.
        self.signatures = np.column_stack((at, np.array(looked, dtype=np.int64)))
        self.notes, self.song = table.notes, table.song
        if self.errors:
            kept = ~np.isin(np.arange(len(self.tpq)), list(self.errors))
            self.tempos, self.signatures = (t[kept[t[:, 0]]] for t in (self.tempos, self.signatures))
            self.errors = {s: self.errors[s] for s in np.intersect1d(list(self.errors), self.song).tolist()}
            self.notes, self.song = self.notes[kept[self.song]], self.song[kept[self.song]]

    @functools.cached_property
    def _segments(self):
        """Each song's bars walked on the 1/64-note grid, one row per segment.

        A signature event starts a segment at its rounded grid point, and a
        later event at the same point replaces it; a segment's first bar is
        ceil(span / capacity) bars after the previous segment's.
        """
        song, tick, index = self.signatures.T
        steps = _round_to_steps(tick, self.tpq[song])
        last = np.ones(len(song), dtype=bool)
        last[:-1] = (song[1:] != song[:-1]) | (steps[1:] != steps[:-1])
        song, steps, index, cap = song[last], steps[last], index[last], _BAR_STEPS[index[last]]
        bars = np.zeros(len(song), dtype=np.int64)
        bars[1:] = -(-(steps[1:] - steps[:-1]) // cap[:-1])
        bars = np.cumsum(bars)
        bars -= bars[np.searchsorted(song, song)]  # counted from each song's first segment
        return song, steps, bars, cap, index

    def locate(self, song: np.ndarray, ticks: np.ndarray):
        """(bar, position, signature index) of each tick in its own song.

        Every song of a parsed batch has a segment at tick 0 and no negative
        tick. A tick before its song's first segment, which only a hand-built
        batch has, finds row -1, the batch's last segment: in a one-song
        batch that is the song's last, as ``searchsorted(...) - 1`` gives.
        """
        seg_song, starts, first_bars, caps, indices = self._segments
        steps = _round_to_steps(ticks, self.tpq[song])
        seg = last_at_or_before(song, steps, seg_song, starts)
        offset = steps - starts[seg]
        return first_bars[seg] + offset // caps[seg], offset % caps[seg], indices[seg]

    def encode(self) -> tuple[np.ndarray, np.ndarray]:
        """Every song's canonical rows, untruncated, in song order, and each row's song."""
        notes, song = self.notes, self.song
        if not song.size:
            return np.zeros((0, 8), dtype=np.int64), song
        onsets, durations, pitches, velocities, programs, is_drum, _ = notes.T
        drum = is_drum.astype(bool)

        bar, position, sig_idx = self.locate(song, onsets)
        tempo_song, tempo_ticks, tempo_indices = self.tempos.T
        tempo_idx = tempo_indices[last_at_or_before(song, onsets, tempo_song, tempo_ticks)]
        duration_steps = _round_to_steps(durations, self.tpq[song])
        duration_idx = np.where(drum, 0, grids.quantize_duration_array(duration_steps))
        velocity_idx = grids.quantize_velocity_array(velocities)
        instrument = np.where(drum, PERCUSSION_INSTRUMENT, programs)
        pitch = np.where(drum, pitches + 128, pitches)

        rows = np.stack([sig_idx, tempo_idx, bar, position, instrument, pitch, duration_idx,
                         velocity_idx], axis=1)
        order = canonical_order(rows, song)
        return rows[order], song[order]

    def counts(self, rows: np.ndarray, song: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Event-style and compound-style token counts for length comparison, one entry per song.

        The counts compare sequence lengths against the 8-element note encoding; no tokens are
        built. The event-style ("remi-like") stream spends one token per bar line, one per metadata
        change, and five per note (position, instrument, pitch, duration, velocity; position tokens
        are not shared between simultaneous notes). The compound-style ("cp-like") stream spends
        one token per bar line, one metric token per onset group, and one compound token per note.

        Metadata changes are counted against the running state, which starts at the MIDI defaults
        (4/4, 120 BPM), so injected default events do not emit tokens; changes past bar 255 are not
        counted. ``rows`` are the songs' canonical rows in song order and ``song`` their song index.
        Pinned in the tests against token-emitting encoders whose list lengths are the counts.
        """
        count = len(self.tpq)
        changes = np.concatenate((_changes(self.signatures, _DEFAULT_SIG),
                                  _changes(self.tempos, _DEFAULT_TEMPO)))
        change_bar, change_pos, _ = self.locate(changes[:, 0], changes[:, 1])
        fits = change_bar <= BAR_MAX
        change_song, change_bar, change_pos = changes[fits, 0], change_bar[fits], change_pos[fits]

        notes = np.bincount(song, minlength=count)
        n_changes = np.bincount(change_song, minlength=count)
        last_bar = np.zeros(count, dtype=np.int64)
        np.maximum.at(last_bar, np.concatenate((song, change_song)),
                      np.concatenate((rows[:, COL_BAR], change_bar)))
        # One key per (song, bar, position); canonical order keeps each song's
        # onsets sorted, so each change of key starts a new group.
        stride = (int(last_bar.max(initial=0)) + 1) * _POSITIONS
        onsets = song * stride + rows[:, COL_BAR] * _POSITIONS + rows[:, COL_POSITION]
        groups = np.bincount(song[np.diff(onsets, prepend=onsets[:1] - 1) != 0], minlength=count)
        # The opening group at (0, 0) and the metadata changes add the groups
        # that no note onset opens.
        extra = np.sort(np.concatenate(
            (np.arange(count) * stride, change_song * stride + change_bar * _POSITIONS + change_pos)
        ))
        extra = extra[np.diff(extra, prepend=-1) != 0]  # not np.unique: its first call keeps 1 MB
        at = np.minimum(np.searchsorted(onsets, extra), len(onsets) - 1)
        opened = onsets[at] == extra if len(onsets) else np.zeros(len(extra), dtype=bool)
        groups += np.bincount(extra[~opened] // stride, minlength=count)

        bars = last_bar + 1
        empty = (notes == 0) & (n_changes == 0)
        return (np.where(empty, 0, 5 * notes + n_changes + bars),
                np.where(empty, 0, notes + groups + bars))


def song_batch(song: MidiSong) -> SongBatch:
    """The batch of one song; raises its signature error, then ValueError for what it cannot encode."""
    batch = SongBatch(SongTable(
        np.array([song.ticks_per_quarter]), song.notes, np.zeros(len(song.notes), dtype=np.int64),
        np.array([(0, ev[0]) for ev in song.tempo_events], dtype=np.int64).reshape(-1, 2),
        np.array([ev[1] for ev in song.tempo_events], dtype=np.float64),
        np.array([(0, ev[0]) for ev in song.timesig_events], dtype=np.int64).reshape(-1, 2),
        [ev[1:] for ev in song.timesig_events], [None]))
    if batch.errors:
        raise batch.errors.pop(0)  # popped: the traceback's frame holds the batch
    data = song.notes[:, 2:5]
    if data.size and (data.min() < 0 or data.max() > 127):
        raise ValueError("note pitch, velocity or program outside [0, 127]")
    if song.ticks_per_quarter < 1:
        raise ValueError(f"ticks_per_quarter {song.ticks_per_quarter} not encodable")
    return batch


def encode_octuple(song: MidiSong) -> OctupleSeq:
    """Encode a song into its canonical octuple sequence; notes landing beyond
    bar ``BAR_MAX`` are dropped."""
    rows, _ = song_batch(song).encode()
    return OctupleSeq.from_array(rows[rows[:, COL_BAR] <= BAR_MAX], copy=False)


# Bar length in ticks at the decode resolution, per signature index.
_BAR_TICKS = _BAR_STEPS * _TICKS_PER_STEP
# More ticks than any song's bars 0 to BAR_MAX span, so (song, tick) packs into one key.
_SONG_TICKS = (BAR_MAX + 1) * int(_BAR_TICKS.max())


def decode_batch(rows: np.ndarray, song: np.ndarray, count: int) -> tuple[SongTable, np.ndarray]:
    """Decode ``count`` songs from valid octuple ``rows``, ``song`` giving each row's song
    in non-decreasing order: the :class:`SongTable` at 480 ticks per quarter, events not
    normalized, and each song's (signature, tempo) conflicts, the rows that disagree with
    the first on their bar's signature or their onset's tempo, logged once per song.
    Re-encoding a song reproduces its rows exactly.
    """
    # The first row of a (song, bar) sets its signature, the first row at a
    # (song, onset) its tempo; every other row that disagrees is one conflict.
    # A bar without notes keeps the signature before it, the default before all.
    bars, sigs = rows[:, COL_BAR], rows[:, COL_TIMESIG]
    used, first_rows = np.unique(song * (BAR_MAX + 1) + bars, return_index=True)
    used_song, used_bar = np.divmod(used, BAR_MAX + 1)
    lengths = np.zeros(count, dtype=np.int64)  # bars 0 to the last used one, per song
    np.maximum.at(lengths, used_song, used_bar + 1)
    starts = np.cumsum(lengths) - lengths
    every_song = np.repeat(np.arange(count), lengths)
    every_bar = np.arange(len(every_song)) - starts[every_song]
    in_force = last_at_or_before(every_song, every_bar, used_song, used_bar)
    bar_sig = np.append(sigs[first_rows], _DEFAULT_SIG)[in_force]  # -1 takes the default
    row_bar = starts[song] + bars
    conflicts = np.zeros((count, 2), dtype=np.int64)
    conflicts[:, 0] = np.bincount(song[sigs != bar_sig[row_bar]], minlength=count)
    bar_ticks = _BAR_TICKS[bar_sig]
    bar_starts = np.cumsum(bar_ticks) - bar_ticks
    bar_starts -= bar_starts[starts[every_song]]  # restarted for each song
    changes = every_bar == 0
    changes[1:] |= bar_sig[1:] != bar_sig[:-1]
    signatures = np.column_stack((every_song[changes], bar_starts[changes]))
    meters = [grids.TIMESIG_PAIRS[sig] for sig in bar_sig[changes].tolist()]

    onset = bar_starts[row_bar] + rows[:, COL_POSITION] * _TICKS_PER_STEP
    drum = rows[:, COL_INSTRUMENT] == PERCUSSION_INSTRUMENT
    duration = grids.DURATION_GRID[rows[:, COL_DURATION]] * _TICKS_PER_STEP
    duration = np.where(drum, 0, duration)
    pitch = np.where(drum, rows[:, COL_PITCH] - 128, rows[:, COL_PITCH])
    velocity = grids.VELOCITY_GRID[rows[:, COL_VELOCITY]]
    program = np.where(drum, 0, rows[:, COL_INSTRUMENT])

    tempos = rows[:, COL_TEMPO]
    keys, first_rows, onset_group = np.unique(song * _SONG_TICKS + onset, return_index=True,
                                              return_inverse=True)
    onset_song, ticks = np.divmod(keys, _SONG_TICKS)
    onset_tempo = tempos[first_rows]
    conflicts[:, 1] = np.bincount(song[tempos != onset_tempo[onset_group]], minlength=count)
    changes = np.ones(len(keys), dtype=bool)
    changes[1:] = (onset_tempo[1:] != onset_tempo[:-1]) | (onset_song[1:] != onset_song[:-1])

    for s in np.flatnonzero(conflicts.any(axis=1)).tolist():
        log.warning("%d signature and %d tempo conflicts; keeping the first values", *conflicts[s].tolist())
    notes = np.stack([onset, duration, pitch, velocity, program, drum, np.zeros_like(onset)], axis=1)
    table = SongTable(np.full(count, DECODE_TICKS_PER_QUARTER), notes, song,
                      np.column_stack((onset_song[changes], ticks[changes])),
                      grids.TEMPO_GRID[onset_tempo[changes]], signatures, meters, [None] * count)
    return table, conflicts


def decode_octuple(seq: OctupleSeq) -> MidiSong:
    """Reconstruct a song from an octuple sequence: the one-song :func:`decode_batch`."""
    validate_values(seq.array)
    table, _ = decode_batch(seq.array, np.zeros(len(seq), dtype=np.int64), 1)
    return table_song(table)
