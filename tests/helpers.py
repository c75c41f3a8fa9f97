"""Shared fixture builders.

The SMF builder here writes bytes directly from the format definition
(header chunk, track chunks, variable-length deltas) and stays independent
of the package's own writer so parser tests have an external oracle.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from octomidi.encoding import BAR_MAX, COL_BAR, Octuple, OctupleSeq, canonical_sort, song_batch
from octomidi.formats import write_om8
from octomidi.grids import TIMESIG_COUNT, bar_capacity, timesig_from_index, timesig_index
from octomidi.midi_io import TimedNote


def note_rows(song) -> list[TimedNote]:
    """A song's note table as ``TimedNote`` rows of plain ints."""
    return [TimedNote(*row) for row in song.notes.tolist()]


def song_counts(song) -> tuple[int, int]:
    """(event-style, compound-style) token counts of one song: ``SongBatch.counts``
    of its one-song batch over its rows up to bar ``BAR_MAX``."""
    batch = song_batch(song)
    rows, index = batch.encode()
    keep = rows[:, COL_BAR] <= BAR_MAX
    remi, cp = batch.counts(rows[keep], index[keep])
    return int(remi[0]), int(cp[0])

# ---------------------------------------------------------------------------
# Raw SMF construction
# ---------------------------------------------------------------------------


def vlq(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def smf_header(fmt: int, ntrks: int, tpq: int) -> bytes:
    return b"MThd" + struct.pack(">IHHH", 6, fmt, ntrks, tpq)


def smf_track(events: list[tuple[int, bytes]], end_of_track: bool = True) -> bytes:
    """Track chunk from (delta, payload) pairs."""
    body = b"".join(vlq(delta) + payload for delta, payload in events)
    if end_of_track:
        body += vlq(0) + bytes([0xFF, 0x2F, 0x00])
    return b"MTrk" + struct.pack(">I", len(body)) + body


def note_on(channel: int, pitch: int, velocity: int) -> bytes:
    return bytes([0x90 | channel, pitch, velocity])


def note_off(channel: int, pitch: int) -> bytes:
    return bytes([0x80 | channel, pitch, 0])


def program_change(channel: int, program: int) -> bytes:
    return bytes([0xC0 | channel, program])


def tempo_meta(bpm: float) -> bytes:
    usec = round(60_000_000 / bpm)
    return bytes([0xFF, 0x51, 0x03]) + usec.to_bytes(3, "big")


def timesig_meta(numerator: int, denominator: int) -> bytes:
    dd = denominator.bit_length() - 1
    return bytes([0xFF, 0x58, 0x04, numerator, dd, 24, 8])


@dataclass
class SongPlan:
    """Absolute-time song description rendered to SMF bytes on demand.

    notes: (tick, duration, channel, pitch, velocity) per track.
    """

    tpq: int = 480
    tempos: list[tuple[int, float]] = field(default_factory=list)
    timesigs: list[tuple[int, int, int]] = field(default_factory=list)
    tracks: list[list[tuple[int, int, int, int, int]]] = field(default_factory=list)
    programs: dict[int, int] = field(default_factory=dict)  # channel -> program

    def note_count(self) -> int:
        return sum(len(t) for t in self.tracks)

    def to_bytes(self) -> bytes:
        conductor: list[tuple[int, int, bytes]] = []
        seq = 0
        for tick, n, d in self.timesigs:
            conductor.append((tick, seq, timesig_meta(n, d)))
            seq += 1
        for tick, bpm in self.tempos:
            conductor.append((tick, seq, tempo_meta(bpm)))
            seq += 1
        chunks = [smf_header(1, 1 + len(self.tracks), self.tpq)]
        chunks.append(smf_track(_to_deltas(conductor)))
        for notes in self.tracks:
            events: list[tuple[int, int, bytes]] = []
            seq = 0
            for channel in sorted({n[2] for n in notes}):
                if channel in self.programs:
                    events.append((0, seq, program_change(channel, self.programs[channel])))
                    seq += 1
            for tick, duration, channel, pitch, velocity in notes:
                events.append((tick, seq, note_on(channel, pitch, velocity)))
                seq += 1
                events.append((tick + duration, seq, note_off(channel, pitch)))
                seq += 1
            chunks.append(smf_track(_to_deltas(events)))
        return b"".join(chunks)


def _to_deltas(events: list[tuple[int, int, bytes]]) -> list[tuple[int, bytes]]:
    out = []
    last = 0
    for tick, _, payload in sorted(events, key=lambda e: (e[0], e[1])):
        out.append((tick - last, payload))
        last = tick
    return out


def single_note_song(
    pitch: int = 60, velocity: int = 100, duration: int = 480, tpq: int = 480
) -> bytes:
    """Minimal format 0 file with exactly one note."""
    return smf_header(0, 1, tpq) + smf_track(
        [(0, note_on(0, pitch, velocity)), (duration, note_off(0, pitch))]
    )


# ---------------------------------------------------------------------------
# Hostile bytes
# ---------------------------------------------------------------------------


def mutate_bytes(data: bytes, rng: np.random.Generator) -> bytes:
    """Apply 1-3 random flips, deletions or insertions of 1-4 bytes."""
    out = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        at = int(rng.integers(0, len(out) + 1))
        width = int(rng.integers(1, 5))
        op = int(rng.integers(0, 3))
        if op == 0 and at < len(out):
            out[at] ^= int(rng.integers(1, 256))
        elif op == 1:
            del out[at : at + width]
        else:
            out[at:at] = rng.integers(0, 256, width, dtype=np.uint8).tobytes()
    return bytes(out)


# ---------------------------------------------------------------------------
# General-MIDI-style fixture corpus
# ---------------------------------------------------------------------------

_GM_BPMS = (72.0, 88.0, 96.0, 104.0, 120.0, 132.0, 140.0, 160.0)
_DRUM_KEYS = (35, 38, 42, 46, 49, 51)


def gm_song_plan(rng: np.random.Generator) -> SongPlan:
    """Multi-track pop-arrangement style plan: melody, arp, chords, bass, drums.

    The melody sits on the eighth grid, the arpeggio on the offbeat
    sixteenths, so the arrangement mixes shared and distinct onsets the way
    multi-track General MIDI files do.
    """
    plan = SongPlan(tpq=480)
    n_bars = int(rng.integers(8, 17))
    bar_ticks = 4 * plan.tpq
    plan.timesigs.append((0, 4, 4))
    plan.tempos.append((0, float(rng.choice(_GM_BPMS))))
    if rng.random() < 0.3:
        change_bar = int(rng.integers(2, n_bars))
        plan.tempos.append((change_bar * bar_ticks, float(rng.choice(_GM_BPMS))))

    melody, arp, chords, bass, drums = [], [], [], [], []
    plan.programs = {
        0: int(rng.integers(0, 8)),     # piano family
        1: int(rng.integers(24, 32)),   # guitar family
        2: int(rng.integers(32, 40)),   # bass family
        3: int(rng.integers(80, 88)),   # lead family
    }
    key_root = int(rng.integers(48, 60))
    scale = np.array([0, 2, 4, 5, 7, 9, 11])
    step = plan.tpq // 4  # sixteenth grid
    for bar in range(n_bars):
        base = bar * bar_ticks
        # melody: eighth-note line with rests
        for slot in range(8):
            if rng.random() < 0.75:
                tick = base + slot * 2 * step
                pitch = key_root + 12 + int(rng.choice(scale)) + 12 * int(rng.integers(0, 2))
                melody.append((tick, 2 * step, 0, pitch, int(rng.integers(48, 112))))
        # arpeggio: offbeat sixteenths, rhythmically independent of the melody
        for slot in range(8):
            if rng.random() < 0.7:
                tick = base + (2 * slot + 1) * step
                pitch = key_root + 24 + int(rng.choice(scale))
                arp.append((tick, step, 3, pitch, int(rng.integers(40, 96))))
        # chords: strummed triad on beats 1 and 3 (strum spreads one 1/64
        # step per string, like downstroked rhythm guitar)
        strum = plan.tpq // 16
        for beat in (0, 2):
            root = key_root + int(rng.choice(scale))
            for string, interval in enumerate((0, 4, 7)):
                chords.append(
                    (base + beat * 4 * step + string * strum, 8 * step, 1,
                     root + interval, int(rng.integers(40, 96)))
                )
        # bass: quarter notes
        for beat in range(4):
            if rng.random() < 0.6:
                bass.append(
                    (base + beat * 4 * step, 4 * step, 2, key_root - 12 + int(rng.choice(scale[:5])),
                     int(rng.integers(56, 120)))
                )
        # drums: kick/snare/hats on the eighth grid
        for slot in range(8):
            if rng.random() < 0.35:
                drums.append(
                    (base + slot * 2 * step, step, 9, int(rng.choice(_DRUM_KEYS)), int(rng.integers(64, 127)))
                )
    plan.tracks = [melody, arp, chords, bass, drums]
    return plan


def write_gm_corpus(
    root: Path,
    n_files: int,
    seed: int = 0,
    n_duplicates: int = 0,
    n_malformed: int = 0,
) -> dict[str, int]:
    """Write a deterministic fixture corpus; returns per-kind file counts.

    Duplicates reuse an earlier plan with all velocities changed, which must
    collapse under instrument/pitch fingerprinting.
    """
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    plans = []
    for i in range(n_files):
        plan = gm_song_plan(rng)
        plans.append(plan)
        (root / f"song_{i:03d}.mid").write_bytes(plan.to_bytes())
    for j in range(n_duplicates):
        plan = plans[j % len(plans)]
        shifted = SongPlan(
            tpq=plan.tpq,
            tempos=list(plan.tempos),
            timesigs=list(plan.timesigs),
            programs=dict(plan.programs),
            tracks=[
                [(t, d, c, p, max(1, min(127, v + 13))) for t, d, c, p, v in track]
                for track in plan.tracks
            ],
        )
        (root / f"song_{j % len(plans):03d}_dup{j}.mid").write_bytes(shifted.to_bytes())
    for k in range(n_malformed):
        (root / f"zz_broken_{k}.mid").write_bytes(b"RIFFnot-a-midi-file" + bytes([k]))
    return {"clean": n_files, "duplicates": n_duplicates, "malformed": n_malformed}


# ---------------------------------------------------------------------------
# Random valid octuple sequences
# ---------------------------------------------------------------------------


def random_valid_seq(
    rng: np.random.Generator, max_bars: int = 6, max_notes: int = 40
) -> OctupleSeq:
    """Random sequence satisfying the documented octuple invariants.

    Per-bar single time signature, per-onset single tempo, positions inside
    the bar, percussion consistency, canonical order.
    """
    n_bars = int(rng.integers(1, max_bars + 1))
    bar_sigs = rng.integers(0, TIMESIG_COUNT, n_bars)
    n_notes = int(rng.integers(1, max_notes + 1))
    rows = []
    for _ in range(n_notes):
        bar = int(rng.integers(0, n_bars))
        n, d = timesig_from_index(int(bar_sigs[bar]))
        position = int(rng.integers(0, bar_capacity(n, d)))
        if rng.random() < 0.2:
            instrument, pitch, duration = 128, int(rng.integers(128, 256)), 0
        else:
            instrument = int(rng.integers(0, 128))
            pitch = int(rng.integers(0, 128))
            duration = int(rng.integers(0, 128))
        rows.append(
            Octuple(
                timesig_idx=int(bar_sigs[bar]),
                tempo_idx=0,
                bar=bar,
                position=position,
                instrument=instrument,
                pitch=pitch,
                duration_idx=duration,
                velocity_idx=int(rng.integers(0, 32)),
            )
        )
    arr = OctupleSeq.canonical(rows).array.copy()
    # One tempo per distinct onset, occasionally stepping to a new bin.
    tempo = int(rng.integers(0, 49))
    last_onset = None
    for i in range(arr.shape[0]):
        onset = (int(arr[i, 2]), int(arr[i, 3]))
        if onset != last_onset:
            if last_onset is not None and rng.random() < 0.3:
                tempo = int(rng.integers(0, 49))
            last_onset = onset
        arr[i, 1] = tempo
    return OctupleSeq.from_array(canonical_sort(arr))


# ---------------------------------------------------------------------------
# Constant-metadata corpus for the leakage probe
# ---------------------------------------------------------------------------


def constant_metadata_seq(
    song_index: int, n_bars: int = 10, notes_per_bar: int = 8
) -> OctupleSeq:
    """Song with constant metadata and bar-keyed pitches.

    Tempo, time signature, instrument, velocity, and duration are constant;
    the pitch is constant within each bar and distinct across bars. Bars use
    the 2/1 signature (128 position slots) and every note position is
    distinct song-wide while n_bars * notes_per_bar <= 128, so a copied
    position is never correct under any strategy.
    """
    sig = timesig_index(2, 1)
    tempo = 20 + (song_index % 10)
    instrument = song_index % 128
    velocity = song_index % 32
    duration = 8 + (song_index % 16)
    rows = []
    for bar in range(n_bars):
        pitch = 20 + 2 * bar + (song_index % 7)
        for k in range(notes_per_bar):
            position = (bar * notes_per_bar + k) % 128
            rows.append(
                Octuple(sig, tempo, bar, position, instrument, pitch, duration, velocity)
            )
    return OctupleSeq.canonical(rows)


def cpu_burn(n: int) -> int:
    """Pure-Python busy loop used to calibrate process-pool speedup."""
    total = 0
    for i in range(n):
        total += i * i
    return total


def write_constant_corpus(root: Path, n_songs: int = 6) -> list[Path]:
    root.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(n_songs):
        path = root / f"const_{i:02d}.om8"
        write_om8(constant_metadata_seq(i), path)
        paths.append(path)
    return paths
