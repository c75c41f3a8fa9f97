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
from dataclasses import dataclass, field

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

# Data byte counts for channel voice messages, by upper status nibble.
_CHANNEL_DATA_BYTES = {
    0x8: 2,  # note off
    0x9: 2,  # note on
    0xA: 2,  # polyphonic key pressure
    0xB: 2,  # control change
    0xC: 1,  # program change
    0xD: 1,  # channel pressure
    0xE: 2,  # pitch bend
}


@dataclass(frozen=True, slots=True)
class TimedNote:
    """One paired note with the channel program active at its onset."""

    onset_ticks: int
    duration_ticks: int
    pitch: int
    velocity: int
    program: int
    is_drum: bool
    track: int


@dataclass
class MidiSong:
    """Parsed score: notes plus tempo and time-signature event maps.

    Event lists are in the :func:`normalize_events` form: sorted by tick, one
    event per tick (last writer wins), with the 4/4 and 120 BPM defaults at
    tick 0 when the file declares nothing there.
    """

    ticks_per_quarter: int
    notes: list[TimedNote] = field(default_factory=list)
    tempo_events: list[tuple[int, float]] = field(default_factory=list)
    timesig_events: list[tuple[int, int, int]] = field(default_factory=list)


class CleanVerdict(enum.Enum):
    KEEP = "keep"
    REJECT_BLANK = "reject_blank"


class _Cursor:
    """Byte cursor with the MIDI primitive readers."""

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes, start: int = 0, end: int | None = None):
        self.data = data
        self.pos = start
        self.end = len(data) if end is None else end

    def remaining(self) -> int:
        return self.end - self.pos

    def read(self, n: int) -> bytes:
        if self.remaining() < n:
            raise MalformedMidiError("truncated chunk")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def read_u8(self) -> int:
        if self.pos >= self.end:
            raise MalformedMidiError("truncated chunk")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def peek_u8(self) -> int:
        if self.pos >= self.end:
            raise MalformedMidiError("truncated chunk")
        return self.data[self.pos]

    def read_vlq(self) -> int:
        """Variable-length quantity: 7 bits per byte, at most 4 bytes."""
        value = 0
        for i in range(4):
            b = self.read_u8()
            value = (value << 7) | (b & 0x7F)
            if not b & 0x80:
                return value
        raise MalformedMidiError("variable-length quantity longer than 4 bytes")


@dataclass(slots=True)
class _OpenNote:
    onset: int
    velocity: int
    program: int


def parse_smf(data: bytes) -> MidiSong:
    """Parse Standard MIDI File bytes into a :class:`MidiSong`.

    Raises MalformedMidiError for files that cannot be represented: bad
    magic, truncated chunks, bad variable-length quantities, SMPTE timing,
    a non-positive tick resolution, or an unsupported format.
    """
    cur = _Cursor(data)
    if cur.remaining() < 8 or cur.read(4) != _HEADER_MAGIC:
        raise MalformedMidiError("missing MThd header")
    (header_len,) = struct.unpack(">I", cur.read(4))
    if header_len < 6:
        raise MalformedMidiError(f"header length {header_len} < 6")
    header = cur.read(header_len)
    fmt, ntrks, division = struct.unpack(">HHH", header[:6])
    if fmt not in (0, 1):
        raise MalformedMidiError(f"unsupported SMF format {fmt}")
    if division & 0x8000:
        raise MalformedMidiError("SMPTE timing is not supported")
    if division == 0:
        raise MalformedMidiError("ticks per quarter must be positive")

    song = MidiSong(ticks_per_quarter=division)

    track_index = 0
    while track_index < ntrks:
        if cur.remaining() < 8:
            raise MalformedMidiError(
                f"expected {ntrks} tracks, found {track_index}"
            )
        chunk_type = cur.read(4)
        (chunk_len,) = struct.unpack(">I", cur.read(4))
        if cur.remaining() < chunk_len:
            raise MalformedMidiError("truncated chunk")
        if chunk_type != _TRACK_MAGIC:
            # Alien chunks are skipped per the SMF specification.
            cur.pos += chunk_len
            continue
        track_cur = _Cursor(cur.data, cur.pos, cur.pos + chunk_len)
        cur.pos += chunk_len
        _parse_track(track_cur, track_index, song)
        track_index += 1

    song.notes.sort(
        key=lambda n: (
            n.onset_ticks,
            n.track,
            n.pitch,
            n.duration_ticks,
            n.velocity,
            n.program,
        )
    )
    # Tracks append meta events in (track, file) order, which the stable
    # sort keeps at equal ticks: the last track's last event wins.
    song.tempo_events = normalize_events(song.tempo_events, DEFAULT_TEMPO)
    song.timesig_events = normalize_events(song.timesig_events, DEFAULT_TIMESIG)
    return song


def _parse_track(cur, track, song):
    tick = 0
    running_status: int | None = None
    channel_program = [0] * 16
    open_notes: dict[tuple[int, int], list[_OpenNote]] = {}

    while cur.remaining() > 0:
        tick += cur.read_vlq()
        status = cur.peek_u8()
        if status & 0x80:
            cur.read_u8()
            if status < 0xF0:
                running_status = status
        else:
            if running_status is None:
                raise MalformedMidiError("data byte without running status")
            status = running_status

        if status < 0xF0:
            kind = status >> 4
            channel = status & 0x0F
            nbytes = _CHANNEL_DATA_BYTES[kind]
            d1 = cur.read_u8()
            d2 = cur.read_u8() if nbytes == 2 else 0
            if d1 & 0x80 or d2 & 0x80:
                raise MalformedMidiError("data byte with high bit set")
            if kind == 0x9 and d2 > 0:
                open_notes.setdefault((channel, d1), []).append(
                    _OpenNote(tick, d2, channel_program[channel])
                )
            elif kind == 0x8 or (kind == 0x9 and d2 == 0):
                queue = open_notes.get((channel, d1))
                if queue:
                    note = queue.pop(0)
                    song.notes.append(
                        TimedNote(
                            onset_ticks=note.onset,
                            duration_ticks=tick - note.onset,
                            pitch=d1,
                            velocity=note.velocity,
                            program=note.program,
                            is_drum=channel == PERCUSSION_CHANNEL,
                            track=track,
                        )
                    )
                # A note-off with nothing open is silently dropped.
            elif kind == 0xC:
                channel_program[channel] = d1
        elif status == 0xFF:
            meta_type = cur.read_u8()
            length = cur.read_vlq()
            payload = cur.read(length)
            if meta_type == _META_TEMPO and length == 3:
                usec = int.from_bytes(payload, "big")
                if usec > 0:
                    song.tempo_events.append((tick, 60_000_000.0 / usec))
            elif meta_type == _META_TIME_SIGNATURE and length >= 2:
                numerator = payload[0]
                denominator = 1 << payload[1]
                if numerator >= 1:
                    song.timesig_events.append((tick, numerator, denominator))
            elif meta_type == _META_END_OF_TRACK:
                break
            running_status = None
        elif status in (0xF0, 0xF7):
            length = cur.read_vlq()
            cur.read(length)  # SysEx payloads are skipped, not interpreted
            running_status = None
        else:
            raise MalformedMidiError(f"unexpected status byte 0x{status:02x}")

    # Close anything still sounding at the track's final tick.
    for (channel, pitch), queue in sorted(open_notes.items()):
        for note in queue:
            song.notes.append(
                TimedNote(
                    onset_ticks=note.onset,
                    duration_ticks=tick - note.onset,
                    pitch=pitch,
                    velocity=note.velocity,
                    program=note.program,
                    is_drum=channel == PERCUSSION_CHANNEL,
                    track=track,
                )
            )


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
    if not song.notes:
        return CleanVerdict.REJECT_BLANK
    return CleanVerdict.KEEP


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def write_smf(song: MidiSong) -> bytes:
    """Serialize a song as a format 1 SMF.

    Track 0 carries tempo and time-signature events; notes are grouped into
    one track per (is_drum, program) with percussion on channel 10 and the
    other instruments cycling over the remaining 15 channels.
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

    groups: dict[tuple[bool, int], list[TimedNote]] = {}
    for note in song.notes:
        groups.setdefault((note.is_drum, note.program), []).append(note)

    melodic_channels = [c for c in range(16) if c != PERCUSSION_CHANNEL]
    tracks: list[list[tuple[int, int, bytes]]] = [conductor]
    for gi, key in enumerate(sorted(groups)):
        is_drum, program = key
        channel = PERCUSSION_CHANNEL if is_drum else melodic_channels[gi % 15]
        events: list[tuple[int, int, bytes]] = []
        seq = 0
        first_tick = min(n.onset_ticks for n in groups[key])
        events.append((first_tick, seq, bytes([0xC0 | channel, program])))
        seq += 1
        for note in sorted(groups[key], key=lambda n: (n.onset_ticks, n.pitch)):
            events.append(
                (note.onset_ticks, seq, bytes([0x90 | channel, note.pitch, note.velocity]))
            )
            seq += 1
            events.append(
                (
                    note.onset_ticks + note.duration_ticks,
                    seq,
                    bytes([0x80 | channel, note.pitch, 0]),
                )
            )
            seq += 1
        tracks.append(events)

    out = bytearray()
    out += _HEADER_MAGIC + struct.pack(">IHHH", 6, 1, len(tracks), tpq)
    for events in tracks:
        out += _render_track(events)
    return bytes(out)


def _render_track(events: list[tuple[int, int, bytes]]) -> bytes:
    body = bytearray()
    last_tick = 0
    for tick, _, payload in sorted(events, key=lambda e: (e[0], e[1])):
        body += _encode_vlq(tick - last_tick)
        body += payload
        last_tick = tick
    body += _encode_vlq(0) + bytes([0xFF, 0x2F, 0x00])
    return _TRACK_MAGIC + struct.pack(">I", len(body)) + bytes(body)


def _encode_vlq(value: int) -> bytes:
    if value < 0:
        raise ValueError("negative delta time")
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(chunks))
