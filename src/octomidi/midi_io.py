"""Standard MIDI File (format 0/1) parsing into a normalized score.

The parser pairs note-on/note-off events into timed notes and merges tempo
and time-signature meta events from all tracks onto one tick timeline.
Structural defects raise :class:`MalformedMidiError`, which marks the file
for discard during corpus cleaning. :func:`write_smf` goes the other way; it
raises ``ValueError`` for notes and ticks the parser would reject or read
back as something else.

Conventions applied while pairing:
  * a note-on with velocity 0 is a note-off (running-status shorthand);
  * overlapping same-pitch notes on one channel pair first-in-first-out;
  * note-ons still open at end of track are closed at the track's final tick;
  * pairing is per (track, channel, pitch); channel program state is tracked
    per track.
"""

from __future__ import annotations

import enum
import struct
from array import array
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
    rows are sorted stably by (onset, track, pitch, duration, velocity,
    program). Event lists are put in the :func:`normalize_events` form: sorted
    by tick, one event per tick (last writer wins), with the 4/4 and 120 BPM
    defaults at tick 0 when nothing is declared there. The sort and the
    normalization run at construction only; assigning a field later skips them.
    """

    ticks_per_quarter: int
    notes: np.ndarray = ()
    tempo_events: list[tuple[int, float]] = field(default_factory=list)
    timesig_events: list[tuple[int, int, int]] = field(default_factory=list)

    def __post_init__(self):
        table = np.asarray(self.notes, dtype=np.int64).reshape(-1, 7)
        # The one home of the note order. lexsort's last key is the primary:
        # (onset, track, pitch, duration, velocity, program).
        self.notes = table[np.lexsort(table[:, [4, 3, 1, 2, 6, 0]].T)]
        self.tempo_events = normalize_events(self.tempo_events, DEFAULT_TEMPO)
        self.timesig_events = normalize_events(self.timesig_events, DEFAULT_TIMESIG)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MidiSong):
            return NotImplemented
        return (
            self.ticks_per_quarter == other.ticks_per_quarter
            and np.array_equal(self.notes, other.notes)
            and self.tempo_events == other.tempo_events
            and self.timesig_events == other.timesig_events
        )


class CleanVerdict(enum.Enum):
    KEEP = "keep"
    REJECT_BLANK = "reject_blank"


def parse_smf(data: bytes) -> MidiSong:
    """Parse Standard MIDI File bytes into a :class:`MidiSong`.

    Raises MalformedMidiError for files that cannot be represented: bad
    magic, truncated chunks, bad variable-length quantities, SMPTE timing,
    a non-positive tick resolution, or an unsupported format.
    """
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

    notes = array("q")  # the note table, 7 columns, row major
    tempos: list[tuple[int, float]] = []
    timesigs: list[tuple[int, int, int]] = []
    track_index = 0
    while track_index < ntrks:
        if len(data) - pos < 8:
            raise MalformedMidiError(
                f"expected {ntrks} tracks, found {track_index}"
            )
        chunk_type = data[pos : pos + 4]
        (chunk_len,) = struct.unpack_from(">I", data, pos + 4)
        start, pos = pos + 8, pos + 8 + chunk_len
        if pos > len(data):
            raise MalformedMidiError("truncated chunk")
        if chunk_type != _TRACK_MAGIC:
            continue  # alien chunks are skipped per the SMF specification
        try:
            _parse_track(data[start:pos], track_index, notes, tempos, timesigs)
        except IndexError:
            # Every read past the end of a track chunk lands here.
            raise MalformedMidiError("truncated chunk") from None
        track_index += 1

    # Tracks append meta events in (track, file) order, which the stable
    # sort in MidiSong keeps at equal ticks: the last track's last event wins.
    table = np.frombuffer(notes, np.int64).reshape(-1, 7)
    return MidiSong(division, table, tempos, timesigs)


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


def _parse_track(data, track, notes, tempos, timesigs):
    """Parse one track chunk's bytes; a read past their end raises IndexError.

    Each closed note extends ``notes``, an ``array('q')``, by one 7-column row.
    """
    pos = 0
    end = len(data)
    tick = 0
    running_status = 0  # 0: none in force
    channel_program = [0] * 16
    # channel << 7 | pitch -> [(onset, velocity, program)] of notes still
    # sounding; the int keys sort like (channel, pitch) tuples.
    open_notes: dict[int, list[tuple[int, int, int]]] = {}

    while pos < end:
        delta = data[pos]
        if delta < 0x80:
            pos += 1
        else:
            delta, pos = _read_vlq(data, pos)
        tick += delta
        status = data[pos]
        if status & 0x80:
            pos += 1
            if status < 0xF0:
                running_status = status
        elif running_status:
            status = running_status
        else:
            raise MalformedMidiError("data byte without running status")

        if status < 0xC0:  # note-off, note-on, key pressure, control change
            d1 = data[pos]
            d2 = data[pos + 1]
            pos += 2
            if d1 & 0x80 or d2 & 0x80:
                raise MalformedMidiError("data byte with high bit set")
            if status >= 0xA0:
                continue
            channel = status & 0x0F
            key = channel << 7 | d1
            if status >= 0x90 and d2:
                opened = (tick, d2, channel_program[channel])
                queue = open_notes.get(key)
                if queue is None:
                    open_notes[key] = [opened]
                else:
                    queue.append(opened)
            else:
                queue = open_notes.get(key)
                if queue:
                    onset, velocity, program = queue.pop(0)
                    notes.extend((onset, tick - onset, d1, velocity, program,
                                  channel == PERCUSSION_CHANNEL, track))
                # A note-off with nothing open is silently dropped.
        elif status < 0xE0:  # program change, channel pressure
            d1 = data[pos]
            pos += 1
            if d1 & 0x80:
                raise MalformedMidiError("data byte with high bit set")
            if status < 0xD0:
                channel_program[status & 0x0F] = d1
        elif status < 0xF0:  # pitch bend
            d1 = data[pos]
            d2 = data[pos + 1]
            pos += 2
            if d1 & 0x80 or d2 & 0x80:
                raise MalformedMidiError("data byte with high bit set")
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
                    tempos.append((tick, 60_000_000.0 / usec))
            elif meta_type == _META_TIME_SIGNATURE and length >= 2:
                numerator = payload[0]
                denominator = 1 << payload[1]
                if numerator >= 1:
                    timesigs.append((tick, numerator, denominator))
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

    # Close anything still sounding at the track's final tick.
    for key, queue in sorted(open_notes.items()):
        channel = key >> 7
        for onset, velocity, program in queue:
            notes.extend((onset, tick - onset, key & 0x7F, velocity, program,
                          channel == PERCUSSION_CHANNEL, track))


def normalize_events(events, default):
    """One event per tick, in tick order, starting at tick 0.

    Sorts ``(tick, ...)`` tuples stably by tick, keeps the last event at each
    tick (last writer wins), and puts ``default`` first when nothing is
    declared at tick 0.
    """
    out = []
    for ev in sorted(events, key=lambda ev: ev[0]):
        if out and out[-1][0] == ev[0]:
            out[-1] = ev
        else:
            out.append(ev)
    if not out or out[0][0] != 0:
        out.insert(0, default)
    return out


def validate_song(song: MidiSong) -> CleanVerdict:
    """Corpus-cleaning verdict for a successfully parsed song."""
    if len(song.notes) == 0:
        return CleanVerdict.REJECT_BLANK
    return CleanVerdict.KEEP


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
    tick, or a delta time above 0x0FFFFFFF.
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

    # Rows in (onset, pitch) order, stable, then grouped by (is_drum, program).
    rows = notes[np.lexsort((notes[:, 2], notes[:, 0]))]
    group_keys, group = np.unique(rows[:, 5] * 128 + rows[:, 4], return_inverse=True)
    by_group = np.argsort(group, kind="stable")
    rows, group = rows[by_group], group[by_group]
    onset, pitch = rows[:, 0], rows[:, 2]
    end = onset + rows[:, 1]
    counts = np.bincount(group, minlength=len(group_keys))
    rank = np.arange(len(rows)) - (np.cumsum(counts) - counts)[group]

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
        lane_ends: list[int] = []  # last end of this pitch, per lane
        picks = []
        for e in end[members].tolist():
            k = 0
            while k < len(lane_ends) and lane_ends[k] > e:
                k += 1
            if k == len(lane_ends):
                lane_ends.append(e)
            else:
                lane_ends[k] = e
            picks.append(k)
        lane[members] = picks

    # Tracks: the conductor, then each group's lanes in order.
    n_lanes = np.zeros(len(group_keys), np.int64)
    np.maximum.at(n_lanes, group, lane + 1)
    track = (np.cumsum(n_lanes) - n_lanes + 1)[group] + lane
    n_tracks = 1 + int(n_lanes.sum())
    is_drum = group_keys // 128 != 0
    group_channel = np.where(
        is_drum, PERCUSSION_CHANNEL, _MELODIC_CHANNELS[np.arange(len(group_keys)) % 15]
    )
    channel = group_channel[group]
    # Each lane opens with a program change at the onset of its first note.
    _, first = np.unique(track, return_index=True)

    # One event table: (track, tick, seq) keys, payload bytes and sizes.
    n_cond, n, n_pc = len(conductor), len(rows), len(first)
    tracks = np.concatenate((np.zeros(n_cond, np.int64), track, track, track[first]))
    ticks = np.concatenate(
        (np.array([t for t, _ in conductor], np.int64), onset, end, onset[first])
    )
    seqs = np.concatenate((np.arange(n_cond), 2 * rank, 2 * rank + 1, np.full(n_pc, -1)))
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

    order = np.lexsort((seqs, ticks, tracks))
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
