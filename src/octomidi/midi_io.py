"""Standard MIDI File (format 0/1) parsing into a normalized score.

The parser pairs note-on/note-off events into timed notes and merges tempo
and time-signature meta events from all tracks onto one tick timeline.
Structural defects raise :class:`MalformedMidiError`, which marks the file
for discard during corpus cleaning. :func:`write_smf` goes the other way; it
raises ``ValueError`` for notes and ticks the parser would reject or read
back as something else.

:func:`parse_smf` builds its song from the one-file case of the batch
parser :func:`parse_smf_table`, which stacks its songs and works in two
phases. Phase 1 reads each file in Python: the header and chunks, and each
track event by event, except that one regex match takes each run of channel
events with two data bytes (note on/off, key pressure, control change, pitch
bend). Every error is raised there. Phase 2 decodes the runs of the whole
batch with numpy: each run event has exactly three bytes below 0x80 (the
last delta byte, d1 and d2), which splits the events.

Conventions applied while pairing:
  * a note-on with velocity 0 is a note-off (running-status shorthand);
  * overlapping same-pitch notes on one channel pair first-in-first-out:
    with c the running count of a (track, channel, pitch) queue, +1 per
    note-on and -1 per note-off, the queue holds c - min(0, lowest c so far)
    notes, a note-off on an empty queue is dropped, and the k-th note-off
    that closes a note pairs with the k-th note-on;
  * note-ons still open at end of track are closed at the track's final tick;
  * channel program state is tracked per track.
MidiSong orders the rows by all seven columns, so the order the parser
produces them in does not reach a song.

Two row primitives serve the whole package. Every row order on several keys
comes from :func:`order_by`, one stable sort of the keys packed into as few
64-bit words as they fit in. Every lookup of the value in force at a point
(a note's program, tempo and bar segment; a decoded bar's signature) comes
from :func:`last_at_or_before`, one search over packed (group, x) keys.
"""

from __future__ import annotations

import re
import struct
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import MalformedMidiError

PERCUSSION_CHANNEL = 9  # channel 10 in 1-based MIDI parlance

_HEADER_MAGIC = b"MThd"
_TRACK_MAGIC = b"MTrk"

_META_TEMPO = 0x51
_META_TIME_SIGNATURE = 0x58
_META_END_OF_TRACK = 0x2F

# The SMF defaults, in force at tick 0 when a song declares nothing there.
DEFAULT_TEMPO = (0, 120.0)
DEFAULT_TIMESIG = (0, 4, 4)


def order_by(*keys: np.ndarray) -> np.ndarray:
    """The stable order of rows by integer ``keys``, primary first: ``np.lexsort(keys[::-1])``.

    Each key is offset by its minimum, wrapping in uint64, and takes the bit
    width of its span. Consecutive keys share one word while their widths sum
    to at most 64, so in the common case one stable argsort does the work;
    lexsort runs only over several words.
    """
    if not keys:
        raise TypeError("order_by needs at least one key")
    words: list[np.ndarray] = []
    used = 64
    for key in keys:
        key = np.asarray(key, dtype=np.int64)
        if not key.size:
            return np.arange(0)
        low = int(key.min())
        width = (int(key.max()) - low).bit_length()
        if not width:  # a constant key orders nothing
            continue
        offset = key.view(np.uint64) - np.uint64(low % (1 << 64))
        if used + width <= 64:
            words[-1] = words[-1] << np.uint64(width) | offset
            used += width
        else:
            words.append(offset)
            used = width
    if not words:
        return np.arange(len(keys[0]))
    if len(words) == 1:
        return np.argsort(words[0], kind="stable")
    return np.lexsort(words[::-1])


def last_at_or_before(group: np.ndarray, x: np.ndarray, table_group: np.ndarray,
                      table_x: np.ndarray) -> np.ndarray:
    """For each query, the index of the last table row in its own group with x at most its x, or -1.

    The table must be sorted by (group, x), as :func:`order_by` sorts it, and
    groups must not be negative; of rows equal in both, the last is found.
    Each (group, x) is packed into one int64 key, and a range too wide for
    that raises ValueError.
    """
    if not len(x) or not len(table_x):
        return np.full(len(x), -1, dtype=np.int64)
    lo = min(x.min(), table_x.min())
    span = int(max(x.max(), table_x.max())) - int(lo) + 1
    if (max(int(group.max()), int(table_group[-1])) + 1) * span >= 1 << 63:
        raise ValueError("tick range too wide for one batch")
    row = np.searchsorted(table_group * span + (table_x - lo), group * span + (x - lo), side="right") - 1
    row[table_group[row] != group] = -1
    return row


class TimedNote(NamedTuple):
    """One note-table row; ``program`` is the one active at the onset, ``is_drum`` 0 or 1."""

    onset_ticks: int
    duration_ticks: int
    pitch: int
    velocity: int
    program: int
    is_drum: int
    track: int


@dataclass
class MidiSong:
    """Parsed score: a note table plus tempo and time-signature event maps.

    ``notes`` is an (N, 7) int64 array whose columns follow the
    :class:`TimedNote` fields. Any iterable of 7-tuples is accepted and its
    rows are sorted by (onset, track, pitch, duration, velocity, program,
    is_drum), so rows that tie on every key are equal. Each event list is
    sorted by tick, one event per tick (last writer wins), with the 4/4 and
    120 BPM defaults at tick 0 when nothing is declared there; an event at a
    negative tick raises ValueError, a tempo's first. One
    :func:`normalize_event_table` call does both lists, at construction
    only; assigning a field later skips it and the note sort.
    """

    ticks_per_quarter: int
    notes: np.ndarray = ()
    tempo_events: list[tuple[int, float]] = field(default_factory=list)
    timesig_events: list[tuple[int, int, int]] = field(default_factory=list)

    def __post_init__(self):
        table = np.asarray(self.notes, dtype=np.int64).reshape(-1, 7)
        # The one home of the note order, primary key first:
        # (onset, track, pitch, duration, velocity, program, is_drum).
        self.notes = table[order_by(*table[:, [0, 6, 2, 1, 3, 4, 5]].T)]
        events = [DEFAULT_TEMPO, DEFAULT_TIMESIG, *self.tempo_events, *self.timesig_events]
        at = np.array([(0, ev[0]) for ev in self.tempo_events] + [(1, ev[0]) for ev in self.timesig_events],
                      np.int64).reshape(-1, 2)
        at, pick = normalize_event_table(at, np.arange(2))
        if (negative := at[:, 1] < 0).any():
            raise ValueError(f"event at negative tick {at[negative][0, 1]}")
        split = int(np.searchsorted(at[:, 0], 1))
        self.tempo_events = [events[i] for i in pick[:split].tolist()]
        self.timesig_events = [events[i] for i in pick[split:].tolist()]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MidiSong):
            return NotImplemented
        return (
            self.ticks_per_quarter == other.ticks_per_quarter
            and np.array_equal(self.notes, other.notes)
            and self.tempo_events == other.tempo_events
            and self.timesig_events == other.timesig_events
        )


def parse_smf(data: bytes) -> MidiSong:
    """Parse Standard MIDI File bytes into a :class:`MidiSong`.

    Raises MalformedMidiError for files that cannot be represented: bad
    magic, truncated chunks, bad variable-length quantities, SMPTE timing,
    a non-positive tick resolution, or an unsupported format.
    """
    table = parse_smf_table([data])
    if table.errors[0]:
        raise table.errors.pop()  # popped: the traceback's frame holds the table
    return table_song(table)


def table_song(table: SongTable) -> MidiSong:
    """The :class:`MidiSong` of a one-song table, its events normalized."""
    return MidiSong(int(table.tpq[0]), table.notes, list(zip(table.tempos[:, 1].tolist(), table.bpm.tolist())),
                    [(tick, *meter) for tick, meter in zip(table.signatures[:, 1].tolist(), table.meters)])


class SongTable(NamedTuple):
    """Songs stacked in batch order, each song's rows in file order: notes with their song
    (ascending); tempo and signature events as (song, tick) with their bpm and meter."""

    tpq: np.ndarray  # 0 for a file that did not parse: it has no rows, and its error
    notes: np.ndarray
    song: np.ndarray
    tempos: np.ndarray
    bpm: np.ndarray
    signatures: np.ndarray
    meters: list[tuple[int, int]]
    errors: list[MalformedMidiError | None]


def parse_smf_table(files: list[bytes]) -> SongTable:
    """Each file's :func:`parse_smf` song stacked, rows as parsed, events not normalized.

    A malformed file leaves the rows of the others as they would be alone.
    """
    lex = _Lexed()
    tpq, errors = [0] * len(files), [None] * len(files)
    for song, data in enumerate(files):
        mark = [len(column) for column in vars(lex).values()]
        try:
            tpq[song] = _lex_file(data, song, lex)
        except MalformedMidiError as exc:
            for column, length in zip(vars(lex).values(), mark):
                del column[length:]
            # A fresh error: the caught one's traceback, and the IndexError
            # it may chain, reach this frame, so ``errors`` would hold a cycle.
            errors[song] = MalformedMidiError(str(exc))
    notes, song, run_end = _notes_of(lex)
    tempos = np.array(lex.tempos, np.int64).reshape(-1, 4)  # (song, run, tail, usec)
    sigs = np.array([ev[:3] for ev in lex.signatures], np.int64).reshape(-1, 3)  # (song, run, tail)
    for events in (tempos, sigs):
        events[:, 1] = run_end[events[:, 1]] + events[:, 2]  # now (song, tick, ...)
    return SongTable(np.array(tpq, np.int64), notes, song, tempos[:, :2], 60e6 / tempos[:, 3], sigs[:, :2],
                     [ev[3:] for ev in lex.signatures], errors)


# A run of channel events with two data bytes. Each is a delta (up to three
# bytes >= 0x80, then one below), a status byte, left out under running
# status, and two data bytes. A run starts a track or follows a meta, SysEx,
# program change or channel pressure event, so its first event states its
# status. The possessive ``*+`` (Python 3.11 on) matches as ``*`` would but keeps
# no backtracking state per event (``*`` held 78 MB on a 900 KB track).
_RUN = re.compile(
    rb"[\x80-\xff]{0,3}[\x00-\x7f][\x80-\xbf\xe0-\xef][\x00-\x7f]{2}"
    rb"(?:[\x80-\xff]{0,3}[\x00-\x7f][\x80-\xbf\xe0-\xef]?[\x00-\x7f]{2})*+"
)


class _Lexed:
    """Phase 1's output for a batch, tracks and runs numbered batch-wide.

    A tick is kept as (run, tail): ``tail`` ticks after the last event of
    that run of its track, or after the track start for run -1.
    """

    def __init__(self) -> None:
        self.runs: list[bytes] = []
        self.run_tracks: list[int] = []
        self.leads: list[int] = []  # per run: phase-1 ticks since its track's previous run or start
        self.tracks: list[tuple[int, int, int, int]] = []  # (song, track in song, run, tail) at its end
        self.programs: list[tuple[int, int, int]] = []  # (track << 4 | channel, next run, program)
        self.tempos: list[tuple[int, int, int, int]] = []  # (song, run, tail, microseconds per quarter)
        self.signatures: list[tuple[int, int, int, int, int]] = []  # (song, run, tail, n, d) of n/d


def _lex_file(data: bytes, song: int, lex: _Lexed):
    """Phase 1 of one file: its division; its events go to ``lex``."""
    if len(data) < 8 or data[:4] != _HEADER_MAGIC:
        raise MalformedMidiError("missing MThd header")
    (header_len,) = struct.unpack_from(">I", data, 4)
    if header_len < 6:
        raise MalformedMidiError(f"header length {header_len} < 6")
    pos = 8 + header_len
    if pos > len(data):
        raise MalformedMidiError("truncated chunk")
    fmt, ntrks, division = struct.unpack_from(">HHH", data, 8)
    if fmt not in (0, 1):
        raise MalformedMidiError(f"unsupported SMF format {fmt}")
    if division & 0x8000:
        raise MalformedMidiError("SMPTE timing is not supported")
    if division == 0:
        raise MalformedMidiError("ticks per quarter must be positive")

    track_index = 0
    while track_index < ntrks:
        if len(data) - pos < 8:
            raise MalformedMidiError(f"expected {ntrks} tracks, found {track_index}")
        chunk_type = data[pos : pos + 4]
        (chunk_len,) = struct.unpack_from(">I", data, pos + 4)
        start, pos = pos + 8, pos + 8 + chunk_len
        if pos > len(data):
            raise MalformedMidiError("truncated chunk")
        if chunk_type != _TRACK_MAGIC:
            continue  # alien chunks are skipped per the SMF specification
        try:
            _lex_track(data[start:pos], song, track_index, lex)
        except IndexError:
            # Every read past the end of a track chunk lands here.
            raise MalformedMidiError("truncated chunk") from None
        track_index += 1
    # Tracks append meta events in (track, file) order, which a stable sort
    # by tick keeps at equal ticks: the last track's last event wins.
    return division


def _read_vlq(data: bytes, pos: int) -> tuple[int, int]:
    """(value, next position) of the variable-length quantity at ``pos``.

    7 bits per byte, at most 4 bytes.
    """
    value = 0
    for pos in range(pos, pos + 4):
        b = data[pos]
        value = (value << 7) | (b & 0x7F)
        if not b & 0x80:
            return value, pos + 1
    raise MalformedMidiError("variable-length quantity longer than 4 bytes")


def _lex_track(data, song, track, lex):
    """Phase 1 of one track chunk's bytes; a read past their end raises IndexError."""
    number = len(lex.tracks)
    pos = 0
    end = len(data)
    run = -1  # the track's last run so far
    tail = 0  # ticks since its last event
    running_status = 0  # 0: none in force

    while pos < end:
        found = _RUN.match(data, pos)
        if found:
            run = len(lex.runs)
            lex.runs.append(found.group())
            lex.run_tracks.append(number)
            lex.leads.append(tail)
            tail = 0
            pos = found.end()
            # Some status with two data bytes: only a malformed event can
            # use it after a run, so which one does not matter.
            running_status = 0x80
            continue
        delta, pos = _read_vlq(data, pos)
        tail += delta
        status = data[pos]
        if status & 0x80:
            pos += 1
            if status < 0xF0:
                running_status = status
        elif running_status:
            status = running_status
        else:
            raise MalformedMidiError("data byte without running status")

        if status < 0xC0 or 0xE0 <= status < 0xF0:
            # The run pattern takes every well-formed event of these kinds,
            # so this one ends early or has a data byte with its high bit set.
            if pos + 1 >= end:
                raise MalformedMidiError("truncated chunk")
            raise MalformedMidiError("data byte with high bit set")
        if status < 0xF0:  # program change, channel pressure
            d1 = data[pos]
            pos += 1
            if d1 & 0x80:
                raise MalformedMidiError("data byte with high bit set")
            if status < 0xD0:
                lex.programs.append((number << 4 | status & 0x0F, len(lex.runs), d1))
        elif status == 0xFF:
            meta_type = data[pos]
            length, pos = _read_vlq(data, pos + 1)
            payload = data[pos : pos + length]
            pos += length
            if pos > end:  # slices do not raise
                raise MalformedMidiError("truncated chunk")
            if meta_type == _META_TEMPO and length == 3:
                usec = int.from_bytes(payload, "big")
                if usec > 0:
                    lex.tempos.append((song, run, tail, usec))
            elif meta_type == _META_TIME_SIGNATURE and length >= 2:
                numerator = payload[0]
                denominator = 1 << payload[1]
                if numerator >= 1:
                    lex.signatures.append((song, run, tail, numerator, denominator))
            elif meta_type == _META_END_OF_TRACK:
                break
            running_status = 0
        elif status in (0xF0, 0xF7):
            length, pos = _read_vlq(data, pos)
            pos += length  # SysEx payloads are skipped, not interpreted
            if pos > end:
                raise MalformedMidiError("truncated chunk")
            running_status = 0
        else:
            raise MalformedMidiError(f"unexpected status byte 0x{status:02x}")
    lex.tracks.append((song, track, run, tail))


def _notes_of(lex: _Lexed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phase 2: (note rows in file order, song of each, last tick per run, then 0)."""
    if not lex.runs:
        return np.empty((0, 7), np.int64), np.empty(0, np.int64), np.zeros(1, np.int64)
    tick, status, d1, d2, ev_run, run_end = _decode_runs(lex)
    run_tracks = np.asarray(lex.run_tracks, np.int64)
    ons, offs = _pair_notes(status, d1, d2, run_tracks[ev_run])
    run_end = np.append(run_end, 0)  # run -1: the track start
    tracks = np.array(lex.tracks, np.int64)  # (song, track in song, run, tail)
    track, channel, run = run_tracks[ev_run[ons]], status[ons] & 0x0F, ev_run[ons]
    rows = np.zeros((len(ons), 7), np.int64)
    rows[:, 0] = tick[ons]
    ends = (run_end[tracks[:, 2]] + tracks[:, 3])[track]
    rows[:, 1] = np.where(offs >= 0, tick[offs], ends) - rows[:, 0]
    rows[:, 2] = d1[ons]
    rows[:, 3] = d2[ons]
    if lex.programs:
        # The last program change of the note's track and channel before its run.
        changes = np.array(lex.programs, np.int64)  # (track << 4 | channel, next run, program)
        changes = changes[order_by(changes[:, 0], changes[:, 1])]
        at = last_at_or_before(track << 4 | channel, run, changes[:, 0], changes[:, 1])
        rows[:, 4] = np.where(at >= 0, changes[at, 2], 0)
    rows[:, 5] = channel == PERCUSSION_CHANNEL
    rows[:, 6] = tracks[track, 1]
    return rows, tracks[track, 0], run_end


def _decode_runs(lex: _Lexed):
    """(tick, status, d1, d2, run) per run event, ticks from its track start; each run's last tick."""
    buf = np.frombuffer(b"".join(lex.runs), np.uint8)
    low = np.flatnonzero(buf < 0x80)  # three per event: the last delta byte, d1, d2
    last, at1, at2 = low[0::3], low[1::3], low[2::3]
    d1, d2 = buf[at1], buf[at2]
    # A stated status sits between the delta and d1; each run starts with one.
    status = buf[np.maximum.accumulate(np.where(at1 - last == 2, last + 1, 0))]

    # A delta is the 1 to 4 bytes after the previous event's d2.
    width = last - np.append(-1, at2[:-1])
    delta = buf[last].astype(np.int64)
    for k in (1, 2, 3):
        longer = width > k
        delta[longer] |= (buf[last[longer] - k] & 0x7F).astype(np.int64) << 7 * k
    del low, width

    # A run's first event also takes the phase-1 ticks before it, and the
    # running sum starts again at each track's first event.
    sizes = np.array([len(run) for run in lex.runs], np.int64)
    first = np.searchsorted(last, np.cumsum(sizes) - sizes)
    delta[first] += lex.leads
    starts = first[np.diff(lex.run_tracks, prepend=-1) != 0]
    delta[starts[1:]] -= np.add.reduceat(delta, starts)[:-1]
    tick = np.cumsum(delta)
    ends = np.append(first[1:], len(tick))
    ev_run = np.repeat(np.arange(len(first)), ends - first)
    return tick, status, d1, d2, ev_run, tick[ends - 1]


def _pair_notes(status, d1, d2, track):
    """(note-on events in file order, their closing note-off event or -1)."""
    note = np.flatnonzero(status < 0xA0)
    key = track[note] << 11 | (status[note] & 0x0F).astype(np.int64) << 7 | d1[note]
    order = np.argsort(key, kind="stable")
    note, key = note[order], key[order]
    is_on = (status[note] >= 0x90) & (d2[note] > 0)
    head = np.diff(key, prepend=-1) != 0
    queue = np.cumsum(head) - 1
    heads = np.flatnonzero(head)
    del order, key, head

    step = np.where(is_on, 1, -1)
    count = np.cumsum(step)
    count -= (count - step)[heads][queue]
    # One running minimum for all queues, each shifted below the one before.
    shift = queue * (2 * len(note) + 2)
    dropped = np.minimum(np.minimum.accumulate(count - shift) + shift, 0)
    fell = np.diff(dropped, prepend=0)
    fell[heads] = dropped[heads]
    closes = ~is_on & (fell == 0)
    del step, count, shift, dropped, fell

    opened = np.cumsum(is_on)
    rank = opened - (opened - is_on)[heads][queue]  # 1 for a queue's first note-on
    paired = is_on & (rank <= np.add.reduceat(closes, heads, dtype=np.int64)[queue])
    # In file order each track's onsets ascend, which the stable sorts downstream run fastest on.
    closing = np.full(len(status), -2)  # per event: -2 for no note-on, -1 for an open one
    closing[note[is_on]] = -1
    closing[note[paired]] = note[closes]
    ons = np.flatnonzero(closing > -2)
    return ons, closing[ons]


def normalize_event_table(at: np.ndarray, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The last of each (song, tick) of (song, tick) rows, each song's in file order, and a tick-0
    default per ``live`` song: the kept rows, in order, and their indices (the defaults' first)."""
    at = np.concatenate((np.column_stack((live, np.zeros_like(live))), at))
    order = order_by(at[:, 0], at[:, 1])
    at = at[order]
    last = np.diff(at, axis=0, append=at[-1:] + 1).any(axis=1)  # the last row of each (song, tick)
    return at[last], order[last]


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


# Channels of the melodic groups, taken in turn by group index.
_MELODIC_CHANNELS = np.array([c for c in range(16) if c != PERCUSSION_CHANNEL])
# The largest delta time a 4-byte variable-length quantity holds; readers
# reject longer ones.
_MAX_DELTA = 0x0FFFFFFF
_END_OF_TRACK = b"\x00\xff\x2f\x00"  # delta 0, end-of-track meta event


def write_smf(song: MidiSong) -> bytes:
    """Serialize a song as a format 1 SMF.

    Track 0 carries tempo and time-signature events; notes are grouped into
    one track per (is_drum, program) with percussion on channel 10 and the
    other instruments cycling over the remaining 15 channels. Same-pitch
    notes on one channel pair first-in-first-out, so a note that ends inside
    an earlier one of its pitch goes to a further track (a lane) with the
    same channel and program; parsing then gives each note its own duration.

    Raises ValueError for what the file cannot carry or a reader would read
    back differently: a tick resolution outside 1..0x7FFF, a tempo whose
    microseconds per quarter do not round into 1..0xFFFFFF, a signature
    without a power-of-two denominator or with a numerator outside 1..255,
    a pitch or program outside 0..127, a velocity outside 1..127 (a
    velocity-0 note-on reads as a note-off), a negative duration, a negative
    tick, a delta time above 0x0FFFFFFF, or more than 0xFFFF tracks.
    """
    tpq = song.ticks_per_quarter
    if tpq <= 0 or tpq > 0x7FFF:
        raise ValueError(f"ticks_per_quarter {tpq} not writable")

    conductor: list[tuple[int, bytes]] = []
    for tick, bpm in song.tempo_events:
        usec = 60_000_000.0 / bpm if bpm else 0.0
        if not 0.5 < usec < 0xFFFFFF + 0.5:  # round(usec) in 1..0xFFFFFF; NaN fails
            raise ValueError(f"tempo {bpm} not writable")
        conductor.append((tick, b"\xff\x51\x03" + round(usec).to_bytes(3, "big")))
    for tick, numerator, denominator in song.timesig_events:
        dd = denominator.bit_length() - 1
        if 1 << dd != denominator or not 1 <= numerator <= 255:
            raise ValueError(f"signature {numerator}/{denominator} not writable")
        conductor.append((tick, bytes([0xFF, 0x58, 0x04, numerator, dd, 24, 8])))

    notes = song.notes
    for col, name, low in ((2, "pitch", 0), (3, "velocity", 1), (4, "program", 0)):
        bad = (notes[:, col] < low) | (notes[:, col] > 127)
        if bad.any():
            raise ValueError(f"{name} {notes[bad, col][0]} not writable")
    if (notes[:, 1] < 0).any():
        raise ValueError(f"duration {notes[notes[:, 1] < 0, 1][0]} not writable")

    # Rows grouped by (is_drum, program), each group in (onset, pitch) order, stable.
    group_keys, group = np.unique(notes[:, 5] * 128 + notes[:, 4], return_inverse=True)
    by_group = order_by(group, notes[:, 0], notes[:, 2])
    rows, group = notes[by_group], group[by_group]
    onset, pitch = rows[:, 0], rows[:, 2]
    end = onset + rows[:, 1]

    # A note goes to the first lane where no note of its pitch ends later,
    # so lanes are decided per (group, pitch) chain. A chain whose ends never
    # fall keeps every note in lane 0; the others run the rule note by note.
    lane = np.zeros(len(rows), np.int64)
    chain = group * 128 + pitch
    by_chain = np.argsort(chain, kind="stable")
    chain, chain_end = chain[by_chain], end[by_chain]
    falls = (chain[1:] == chain[:-1]) & (chain_end[1:] < chain_end[:-1])
    fallen = np.unique(chain[1:][falls])
    for lo, hi in zip(np.searchsorted(chain, fallen, "left").tolist(),
                      np.searchsorted(chain, fallen, "right").tolist()):
        members = by_chain[lo:hi]
        neg_ends: list[int] = []  # minus each lane's last end of this pitch: never falls
        picks = []
        for e in end[members].tolist():
            k = bisect_left(neg_ends, -e)  # the first lane whose last end is at most e
            neg_ends[k : k + 1] = [-e]  # appends a lane, or replaces its last end
            picks.append(k)
        lane[members] = picks

    # Tracks: the conductor, then each group's lanes 0..k in order; each lane
    # opens with a program change at the onset of its first note.
    lanes, first, track = np.unique(group * len(rows) + lane, return_index=True, return_inverse=True)
    track += 1
    n_tracks = 1 + len(lanes)
    if n_tracks > 0xFFFF:
        raise ValueError(f"{n_tracks} tracks not writable")
    is_drum = group_keys // 128 != 0
    group_channel = np.where(
        is_drum, PERCUSSION_CHANNEL, _MELODIC_CHANNELS[np.arange(len(group_keys)) % 15]
    )
    channel = group_channel[group]

    # One event table: (track, tick, seq) keys, payload bytes and sizes.
    n_cond, n, n_pc = len(conductor), len(rows), len(first)
    tracks = np.concatenate((np.zeros(n_cond, np.int64), track, track, track[first]))
    ticks = np.concatenate(
        (np.array([t for t, _ in conductor], np.int64), onset, end, onset[first])
    )
    # Sequence numbers 2i and 2i + 1 for row i's note-on and note-off: i rises with rank in a track.
    seqs = np.concatenate((np.arange(n_cond), 2 * np.arange(n), 2 * np.arange(n) + 1, np.full(n_pc, -1)))
    payload = np.zeros((n_cond + 2 * n + n_pc, 7), np.uint8)
    sizes = np.empty(len(payload), np.int64)
    payload[:n_cond] = np.frombuffer(
        b"".join(p.ljust(7, b"\0") for _, p in conductor), np.uint8
    ).reshape(-1, 7)
    sizes[:n_cond] = [len(p) for _, p in conductor]
    on = slice(n_cond, n_cond + n)
    off = slice(n_cond + n, n_cond + 2 * n)
    pc = slice(n_cond + 2 * n, None)
    payload[on, 0] = 0x90 | channel
    payload[on, 1] = pitch
    payload[on, 2] = rows[:, 3]
    payload[off, 0] = 0x80 | channel
    payload[off, 1] = pitch
    payload[pc, 0] = 0xC0 | channel[first]
    payload[pc, 1] = rows[first, 4]
    sizes[n_cond:] = 3
    sizes[pc] = 2

    order = order_by(tracks, ticks, seqs)
    tracks, ticks = tracks[order], ticks[order]
    delta = np.diff(ticks, prepend=0)
    opens = np.flatnonzero(np.diff(tracks, prepend=-1))
    delta[opens] = ticks[opens]
    if (delta < 0).any():
        raise ValueError("negative delta time")
    if (delta > _MAX_DELTA).any():
        raise ValueError(f"delta time {delta.max()} not writable")

    # Each event is a 4-byte VLQ column block and a 7-byte payload block;
    # the mask keeps the VLQ's last `width` bytes and the payload's `size`.
    table = np.empty((len(order), 11), np.uint8)
    for j, shift in enumerate((21, 14, 7)):
        table[:, j] = (delta >> shift) & 0x7F | 0x80
    table[:, 3] = delta & 0x7F
    table[:, 4:] = payload[order]
    width = 1 + (delta >= 1 << 7) + (delta >= 1 << 14) + (delta >= 1 << 21)
    sizes = sizes[order]
    keep = np.empty(table.shape, bool)
    keep[:, :4] = np.arange(4) >= 4 - width[:, None]
    keep[:, 4:] = np.arange(7) < sizes[:, None]
    body = np.compress(keep.ravel(), table.ravel()).tobytes()
    lengths = np.bincount(tracks, weights=width + sizes, minlength=n_tracks)

    out = [_HEADER_MAGIC, struct.pack(">IHHH", 6, 1, n_tracks, tpq)]
    pos = 0
    for length in lengths.astype(np.int64).tolist():
        chunk = body[pos : pos + length]
        out += (_TRACK_MAGIC, struct.pack(">I", length + 4), chunk, _END_OF_TRACK)
        pos += length
    return b"".join(out)
