"""The scalar SMF parser and writer that ``midi_io`` is tested against.

The parser is a plain per-event loop: notes are collected as a list of
tuples and open notes are keyed by ``(channel, pitch)`` tuples.
``parse_smf`` must return an equal ``MidiSong`` (row order included, which
its total sort fixes by content) or raise the same error class with the same
message on every input. The writer builds one tuple per event and sorts each track;
``write_smf`` must write the same bytes.
"""

from __future__ import annotations

import struct

import numpy as np

from octomidi.errors import MalformedMidiError
from octomidi.midi_io import MidiSong

PERCUSSION_CHANNEL = 9
_HEADER_MAGIC = b"MThd"
_TRACK_MAGIC = b"MTrk"
_META_TEMPO = 0x51
_META_TIME_SIGNATURE = 0x58
_META_END_OF_TRACK = 0x2F


def reference_parse_smf(data: bytes) -> MidiSong:
    """Parse Standard MIDI File bytes into a :class:`MidiSong`."""
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

    notes: list[tuple[int, ...]] = []
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
    return MidiSong(division, notes, tempos, timesigs)


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
    """Parse one track chunk's bytes; a read past their end raises IndexError."""
    pos = 0
    tick = 0
    running_status: int | None = None
    channel_program = [0] * 16
    # (channel, pitch) -> [(onset, velocity, program)] of notes still sounding
    open_notes: dict[tuple[int, int], list[tuple[int, int, int]]] = {}

    while pos < len(data):
        delta, pos = _read_vlq(data, pos)
        tick += delta
        status = data[pos]
        if status & 0x80:
            pos += 1
            if status < 0xF0:
                running_status = status
        else:
            if running_status is None:
                raise MalformedMidiError("data byte without running status")
            status = running_status

        if status < 0xF0:
            kind = status >> 4
            channel = status & 0x0F
            nbytes = 1 if kind in (0xC, 0xD) else 2
            d1 = data[pos]
            d2 = data[pos + 1] if nbytes == 2 else 0
            pos += nbytes
            if d1 & 0x80 or d2 & 0x80:
                raise MalformedMidiError("data byte with high bit set")
            if kind == 0x9 and d2 > 0:
                open_notes.setdefault((channel, d1), []).append(
                    (tick, d2, channel_program[channel])
                )
            elif kind == 0x8 or (kind == 0x9 and d2 == 0):
                queue = open_notes.get((channel, d1))
                if queue:
                    onset, velocity, program = queue.pop(0)
                    notes.append(
                        (onset, tick - onset, d1, velocity, program,
                         channel == PERCUSSION_CHANNEL, track)
                    )
                # A note-off with nothing open is silently dropped.
            elif kind == 0xC:
                channel_program[channel] = d1
        elif status == 0xFF:
            meta_type = data[pos]
            length, pos = _read_vlq(data, pos + 1)
            payload = data[pos : pos + length]
            pos += length
            if pos > len(data):  # slices do not raise
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
            running_status = None
        elif status in (0xF0, 0xF7):
            length, pos = _read_vlq(data, pos)
            pos += length  # SysEx payloads are skipped, not interpreted
            if pos > len(data):
                raise MalformedMidiError("truncated chunk")
            running_status = None
        else:
            raise MalformedMidiError(f"unexpected status byte 0x{status:02x}")

    # Close anything still sounding at the track's final tick.
    for (channel, pitch), queue in sorted(open_notes.items()):
        for onset, velocity, program in queue:
            notes.append(
                (onset, tick - onset, pitch, velocity, program,
                 channel == PERCUSSION_CHANNEL, track)
            )


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def reference_write_smf(song: MidiSong) -> bytes:
    """Serialize a song as a format 1 SMF, one tuple and two ``bytes`` per note.

    ``midi_io.write_smf`` must return the same bytes, or raise the same
    ``ValueError`` message where this writer raises one; it also rejects
    values this writer puts into the file although a reader cannot read them
    back (data bytes above 127, velocity 0, negative durations, 5-byte VLQs).
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
