"""Seeded input generator for the benchmark.

Writes Standard MIDI Files straight from the format definition, with its own
writer, so that neither the package nor its test helpers shape the inputs.
Every note onset sits on the 1/64-note grid and every song is in 4/4 or 3/4,
so the bar of each note, and with it the number of notes past bar 255, is
known here without asking the package.

``build_tree`` and ``build_long_songs`` return the counts they built; the
benchmark checks the package's counters against these numbers.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from pathlib import Path

TPQ = 480
BAR_LIMIT = 255  # last bar index the package keeps
_BPMS = (72.0, 88.0, 96.0, 104.0, 120.0, 132.0, 140.0, 160.0)
_DRUM_KEYS = (35, 38, 42, 46, 49, 51)
_SCALE = (0, 2, 4, 5, 7, 9, 11)
DRUM_CHANNEL = 9


def _vlq(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def _track(events: list[tuple[int, int, bytes]]) -> bytes:
    """Track chunk from (tick, order, message) triples."""
    body = bytearray()
    last = 0
    for tick, _, msg in sorted(events, key=lambda e: (e[0], e[1])):
        body += _vlq(tick - last) + msg
        last = tick
    body += b"\x00\xff\x2f\x00"
    return b"MTrk" + struct.pack(">I", len(body)) + bytes(body)


def _header(fmt: int, ntrks: int, division: int) -> bytes:
    return b"MThd" + struct.pack(">IHHH", 6, fmt, ntrks, division)


@dataclass
class Song:
    """A multi-track song: one (channel, program, notes) entry per track.

    Notes are (tick, duration, pitch, velocity) tuples.
    """

    beats_per_bar: int = 4
    tempos: list[tuple[int, float]] = field(default_factory=list)
    tracks: list[tuple[int, int, list[tuple[int, int, int, int]]]] = field(default_factory=list)

    @property
    def bar_ticks(self) -> int:
        return self.beats_per_bar * TPQ

    def note_count(self) -> int:
        return sum(len(notes) for _, _, notes in self.tracks)

    def notes_past_bar_limit(self) -> int:
        first_dropped = (BAR_LIMIT + 1) * self.bar_ticks
        return sum(
            1 for _, _, notes in self.tracks for tick, _, _, _ in notes if tick >= first_dropped
        )

    def velocity_shifted(self, shift: int) -> "Song":
        return Song(
            self.beats_per_bar,
            list(self.tempos),
            [
                (ch, prog, [(t, d, p, max(1, min(127, v + shift))) for t, d, p, v in notes])
                for ch, prog, notes in self.tracks
            ],
        )

    def to_smf(self) -> bytes:
        conductor = [(0, 0, bytes([0xFF, 0x58, 0x04, self.beats_per_bar, 2, 24, 8]))]
        for i, (tick, bpm) in enumerate(self.tempos, start=1):
            usec = round(60_000_000 / bpm)
            conductor.append((tick, i, b"\xff\x51\x03" + usec.to_bytes(3, "big")))
        chunks = [_header(1, 1 + len(self.tracks), TPQ), _track(conductor)]
        for channel, program, notes in self.tracks:
            events = [] if channel == DRUM_CHANNEL else [(0, 0, bytes([0xC0 | channel, program]))]
            for i, (tick, dur, pitch, vel) in enumerate(notes):
                events.append((tick, 2 * i + 1, bytes([0x90 | channel, pitch, vel])))
                events.append((tick + dur, 2 * i + 2, bytes([0x80 | channel, pitch, 0])))
            chunks.append(_track(events))
        return b"".join(chunks)


def gm_song(rng: random.Random, n_bars: int, first_bar: int = 0, beats: int | None = None) -> Song:
    """Pop-arrangement song: melody, arpeggio, strummed chords, bass, drums.

    About 23 notes per 4/4 bar; bars ``first_bar .. first_bar + n_bars - 1``.
    ``beats`` fixes the meter; by default one song in five is in 3/4.
    """
    if beats is None:
        beats = 3 if rng.random() < 0.2 else 4
    song = Song(beats_per_bar=beats)
    bar_ticks = song.bar_ticks
    song.tempos.append((0, rng.choice(_BPMS)))
    if rng.random() < 0.3:
        change = first_bar + rng.randrange(1, n_bars)
        song.tempos.append((change * bar_ticks, rng.choice(_BPMS)))
    root = rng.randrange(48, 60)
    step = TPQ // 4  # sixteenth note
    slots = 2 * song.beats_per_bar  # eighth notes per bar
    melody, arp, chords, bass, drums = [], [], [], [], []
    for bar in range(first_bar, first_bar + n_bars):
        base = bar * bar_ticks
        for slot in range(slots):
            if rng.random() < 0.75:
                pitch = root + 12 + rng.choice(_SCALE) + 12 * rng.randrange(2)
                melody.append((base + 2 * slot * step, 2 * step, pitch, rng.randrange(48, 112)))
            if rng.random() < 0.7:
                arp.append((base + (2 * slot + 1) * step, step, root + 24 + rng.choice(_SCALE),
                            rng.randrange(40, 96)))
            if rng.random() < 0.35:
                drums.append((base + 2 * slot * step, step, rng.choice(_DRUM_KEYS),
                              rng.randrange(64, 127)))
        for beat in range(0, song.beats_per_bar, 2):
            chord_root = root + rng.choice(_SCALE)
            for string, interval in enumerate((0, 4, 7)):
                # Strummed: one 1/64 step (TPQ // 16 ticks) per string.
                chords.append((base + beat * 4 * step + string * (TPQ // 16), 8 * step,
                               chord_root + interval, rng.randrange(40, 96)))
        for beat in range(song.beats_per_bar):
            if rng.random() < 0.6:
                bass.append((base + beat * 4 * step, 4 * step, root - 12 + rng.choice(_SCALE[:5]),
                             rng.randrange(56, 120)))
    song.tracks = [
        (0, rng.randrange(0, 8), melody),
        (3, rng.randrange(80, 88), arp),
        (1, rng.randrange(24, 32), chords),
        (2, rng.randrange(32, 40), bass),
        (DRUM_CHANNEL, 0, drums),
    ]
    return song


def _malformed(kind: int, rng: random.Random) -> bytes:
    """Bytes the parser must reject, one structural defect per kind."""
    good = gm_song(rng, 2).to_smf()
    if kind == 0:
        return b"RIFF" + bytes(rng.randrange(256) for _ in range(24))  # bad magic
    if kind == 1:
        return good[: len(good) // 2]  # truncated track chunk
    if kind == 2:
        return _header(1, 1, 0xE728) + good[14:]  # SMPTE timing
    if kind == 3:
        return _header(2, 1, TPQ) + good[14:]  # format 2
    body = b"\xff\xff\xff\xff\x7f\x90\x3c\x40"  # five-byte delta time
    return _header(0, 1, TPQ) + b"MTrk" + struct.pack(">I", len(body)) + body


def _blank(kind: int) -> bytes:
    """Well-formed files without a single note."""
    conductor = _track([(0, 0, b"\xff\x51\x03\x07\xa1\x20")])
    if kind % 2 == 0:
        return _header(1, 1, TPQ) + conductor
    offs = _track([(0, 0, b"\xc0\x05"), (480, 1, b"\x80\x3c\x00"), (960, 2, b"\x80\x40\x00")])
    return _header(1, 2, TPQ) + conductor + offs


def build_tree(root: Path, seed: int, n_songs: int) -> dict[str, int]:
    """Corpus tree of short songs plus duplicates, malformed and blank files.

    ``n_songs`` distinct songs of 8-16 bars, one of which also holds notes
    in bars 250-259, so some of its notes lie past bar 255. About 10% extra
    files are velocity-shifted copies, about 1% are malformed, and a few are
    blank. Files sit in eight subdirectories.
    """
    rng = random.Random(f"tree-{seed}")
    counts = dict(files=0, clean=0, duplicate=0, malformed=0, blank=0,
                  notes_past_bar_limit=0, kept_notes=0, input_notes=0)

    def put(index: int, name: str, data: bytes) -> None:
        path = root / f"part_{index % 8}" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        counts["files"] += 1

    songs = []
    for i in range(n_songs):
        if i == n_songs // 2:
            song = gm_song(rng, 8, beats=4)
            tail = gm_song(rng, 10, first_bar=BAR_LIMIT - 5, beats=4)
            for (_, _, notes), (_, _, tail_notes) in zip(song.tracks, tail.tracks):
                notes.extend(tail_notes)
        else:
            song = gm_song(rng, rng.randrange(8, 17))
            songs.append((i, song))
        put(i, f"song_{i:05d}.mid", song.to_smf())
        counts["clean"] += 1
        counts["input_notes"] += song.note_count()
        dropped = song.notes_past_bar_limit()
        counts["notes_past_bar_limit"] += dropped
        counts["kept_notes"] += song.note_count() - dropped
    for i, song in rng.sample(songs, n_songs // 10):
        put(i, f"song_{i:05d}_v.mid", song.velocity_shifted(13).to_smf())
        counts["duplicate"] += 1
        counts["input_notes"] += song.note_count()
    for k in range(max(1, n_songs // 100)):
        put(k, f"broken_{k:03d}.mid", _malformed(k % 5, rng))
        counts["malformed"] += 1
    for k in range(3):
        put(k, f"blank_{k:03d}.mid", _blank(k))
        counts["blank"] += 1
    return counts


def build_long_songs(root: Path, seed: int, bars: tuple[int, ...]) -> dict[str, int]:
    """One long song per entry of ``bars``; songs over 256 bars lose their tail."""
    rng = random.Random(f"long-{seed}")
    root.mkdir(parents=True, exist_ok=True)
    counts = dict(files=0, input_notes=0, notes_past_bar_limit=0, kept_notes=0)
    for i, n_bars in enumerate(bars):
        song = gm_song(rng, n_bars, beats=4)
        (root / f"long_{i:02d}.mid").write_bytes(song.to_smf())
        dropped = song.notes_past_bar_limit()
        counts["files"] += 1
        counts["input_notes"] += song.note_count()
        counts["notes_past_bar_limit"] += dropped
        counts["kept_notes"] += song.note_count() - dropped
    return counts
