"""Standard MIDI File (format 0/1) parsing into a normalized score.

The parser pairs note-on/note-off events into timed notes and merges tempo
and time-signature meta events from all tracks onto one tick timeline.
Structural defects raise :class:`MalformedMidiError`, which marks the file
for discard during corpus cleaning.

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


def write_smf(song: MidiSong) -> bytes:
    """Serialize a song as a format 1 SMF.

    Track 0 carries tempo and time-signature events; notes are grouped into
    one track per (is_drum, program) with percussion on channel 10 and the
    other instruments cycling over the remaining 15 channels. Same-pitch
    notes on one channel pair first-in-first-out, so a note that ends inside
    an earlier one of its pitch goes to a further track (a lane) with the
    same channel and program; parsing then gives each note its own duration.
    """
    tpq = song.ticks_per_quarter
    if tpq <= 0 or tpq > 0x7FFF:
        raise ValueError(f"ticks_per_quarter {tpq} not writable")

    conductor: list[tuple[int, int, bytes]] = []
    seq = 0
    for tick, bpm in song.tempo_events:
        usec = max(1, min(0xFFFFFF, round(60_000_000.0 / bpm)))
        conductor.append((tick, seq, bytes([0xFF, 0x51, 0x03]) + usec.to_bytes(3, "big")))
        seq += 1
    for tick, numerator, denominator in song.timesig_events:
        dd = denominator.bit_length() - 1
        if 1 << dd != denominator or not 1 <= numerator <= 255:
            raise ValueError(f"signature {numerator}/{denominator} not writable")
        conductor.append(
            (tick, seq, bytes([0xFF, 0x58, 0x04, numerator, dd, 24, 8]))
        )
        seq += 1

    # Rows in (onset, pitch) order, stable, then grouped by instrument.
    notes = song.notes
    groups: dict[tuple[int, int], list[list[int]]] = {}
    for row in notes[np.lexsort((notes[:, 2], notes[:, 0]))].tolist():
        groups.setdefault((row[5], row[4]), []).append(row)

    melodic_channels = [c for c in range(16) if c != PERCUSSION_CHANNEL]
    tracks: list[list[tuple[int, int, bytes]]] = [conductor]
    for gi, ((is_drum, program), rows) in enumerate(sorted(groups.items())):
        channel = PERCUSSION_CHANNEL if is_drum else melodic_channels[gi % 15]
        program_change = bytes([0xC0 | channel, program])
        lanes: list[list[tuple[int, int, bytes]]] = [[(rows[0][0], -1, program_change)]]
        lane_ends: list[dict[int, int]] = [{}]  # last note end per pitch, per lane
        seq = 0
        for row in rows:
            onset, pitch = row[0], row[2]
            end = onset + row[1]
            # The first lane where no note of this pitch ends later.
            lane = 0
            while lane_ends[lane].get(pitch, end) > end:
                lane += 1
                if lane == len(lanes):
                    lanes.append([(onset, -1, program_change)])
                    lane_ends.append({})
            lane_ends[lane][pitch] = end
            events = lanes[lane]
            events.append((onset, seq, bytes([0x90 | channel, pitch, row[3]])))
            events.append((end, seq + 1, bytes([0x80 | channel, pitch, 0])))
            seq += 2
        tracks.extend(lanes)

    out = bytearray()
    out += _HEADER_MAGIC + struct.pack(">IHHH", 6, 1, len(tracks), tpq)
    for events in tracks:
        out += _render_track(events)
    return bytes(out)


def _render_track(events: list[tuple[int, int, bytes]]) -> bytes:
    body = bytearray()
    last_tick = 0
    for tick, _, payload in sorted(events):  # (tick, seq) is unique in a track
        body += _encode_vlq(tick - last_tick)
        body += payload
        last_tick = tick
    body += _encode_vlq(0) + bytes([0xFF, 0x2F, 0x00])
    return _TRACK_MAGIC + struct.pack(">I", len(body)) + bytes(body)


def _encode_vlq(value: int) -> bytes:
    if value < 0:
        raise ValueError("negative delta time")
    if value < 0x80:
        return bytes((value,))
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(chunks))
