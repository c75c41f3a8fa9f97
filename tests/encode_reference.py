"""Per-song encoder, reference counts and file outcome: the batch path's oracle.

These are the one-song implementations that ``SongBatch.encode``,
``SongBatch.counts`` and ``corpus.process_batch`` replaced; files are read
by the scalar parser of ``smf_reference``. Each song gets its own ``BarMap``
and tempo map, sorts its rows alone and is fingerprinted one byte at a time.
The batch code must give equal results field by field.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from octomidi import grids
from octomidi.corpus import FNV64_OFFSET_BASIS, FNV64_PRIME, FileOutcome, FileStatus
from octomidi.encoding import (
    BAR_MAX,
    COL_BAR,
    COL_INSTRUMENT,
    COL_PITCH,
    COL_POSITION,
    PERCUSSION_INSTRUMENT,
    OctupleSeq,
    _round_to_steps,
    canonical_sort,
    validate_values,
)
from octomidi.errors import (
    InvalidTimeSignatureError,
    MalformedMidiError,
    UnrepresentableSignatureError,
)
from octomidi.formats import om8_bytes
from octomidi.midi_io import (
    DEFAULT_TEMPO,
    DEFAULT_TIMESIG,
    MidiSong,
)
from octomidi.vocab import ELEMENT_RANGES
from smf_reference import reference_parse_smf

_POSITIONS = ELEMENT_RANGES[COL_POSITION]


def _prepared_timesigs(song: MidiSong) -> list[tuple[int, int, int]]:
    """The song's signature events with long bars split."""
    return [(tick, *grids.normalize_signature(n, d)) for tick, n, d in song.timesig_events]


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
    report=None,
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


def _metadata_changes(song: MidiSong, bar_map: BarMap):
    """Signature and tempo events that change the running quantized state.

    Reads the same normalized event maps that the note encoder uses.
    """
    sig_changes = []
    current_sig = DEFAULT_TIMESIG[1:]
    for tick, n, d in _prepared_timesigs(song):
        if (n, d) != current_sig:
            bar, pos, _ = bar_map.locate_tick(tick)
            if bar <= BAR_MAX:
                sig_changes.append((bar, pos, n, d))
            current_sig = (n, d)

    tempo_changes = []
    current_tempo = grids.quantize_tempo(DEFAULT_TEMPO[1])
    tempo_ticks, tempo_indices = _tempo_index_map(song)
    for tick, idx in zip(tempo_ticks.tolist(), tempo_indices.tolist()):
        if idx != current_tempo:
            bar, pos, _ = bar_map.locate_tick(tick)
            if bar <= BAR_MAX:
                tempo_changes.append((bar, pos, idx))
            current_tempo = idx
    return sig_changes, tempo_changes


def reference_counts(song: MidiSong, seq: "OctupleSeq | None" = None) -> tuple[int, int]:
    """(event-style, compound-style) token counts without building tokens.

    Pass ``seq`` to reuse an already-encoded sequence. Pinned in the tests
    against token-emitting encoders whose list lengths are the counts.
    """
    octs = encode_octuple(song) if seq is None else seq
    bar_map = BarMap(song)
    sig_changes, tempo_changes = _metadata_changes(song, bar_map)
    n = len(octs)
    n_changes = len(sig_changes) + len(tempo_changes)
    if n == 0 and n_changes == 0:
        return 0, 0
    arr = octs.array
    last_bar = max(
        int(arr[:, COL_BAR].max()) if n else 0,
        max((bar for bar, _, _, _ in sig_changes), default=0),
        max((bar for bar, _, _ in tempo_changes), default=0),
    )
    bars = last_bar + 1
    # One int per (bar, position); canonical order keeps the note onsets
    # sorted, so each change of value starts a new group.
    onsets = arr[:, COL_BAR] * _POSITIONS + arr[:, COL_POSITION]
    groups = 1 + np.count_nonzero(np.diff(onsets)) if n else 0
    # The opening group at (0, 0) and the metadata changes add the groups
    # that no note onset opens.
    extra = {0}
    extra.update(bar * _POSITIONS + pos for bar, pos, *_ in sig_changes + tempo_changes)
    groups += len(extra) - int(np.isin(list(extra), onsets).sum())
    return 5 * n + n_changes + bars, n + groups + bars


def per_byte_fingerprint(array: np.ndarray) -> int:
    """FNV-1a 64 one byte at a time over the (instrument, pitch) pairs of an
    (N, 8) array as 16-bit LE words: the fingerprint's scalar reference."""
    data = np.ascontiguousarray(array[:, [COL_INSTRUMENT, COL_PITCH]]).astype("<u2").tobytes()
    digest = FNV64_OFFSET_BASIS
    for byte in data:
        digest = ((digest ^ byte) * FNV64_PRIME) % 2**64
    return digest


def process_file(path: str | Path) -> FileOutcome:
    """Parse, validate, encode, and fingerprint one file. Never raises."""
    path = str(path)
    try:
        song = reference_parse_smf(Path(path).read_bytes())
    except (MalformedMidiError, OSError) as exc:
        return FileOutcome(path, FileStatus.MALFORMED, error=str(exc))
    if len(song.notes) == 0:
        return FileOutcome(path, FileStatus.BLANK)
    try:
        # Fingerprint the full canonical sequence, then truncate to the
        # serializable bar range; duplicates are decided before any notes
        # are dropped.
        full = encode_octuple(song, bar_limit=None)
        digest = per_byte_fingerprint(full.array)
        keep = full.array[:, COL_BAR] <= BAR_MAX
        dropped = int((~keep).sum())
        seq = full if dropped == 0 else OctupleSeq.from_array(full.array[keep])
        validate_values(seq.array)
        remi, cp = reference_counts(song, seq)
    except (UnrepresentableSignatureError, InvalidTimeSignatureError) as exc:
        return FileOutcome(path, FileStatus.MALFORMED, error=str(exc))
    except Exception as exc:  # keep the run alive whatever a bad file does
        return FileOutcome(path, FileStatus.MALFORMED, error=str(exc))
    if len(seq) == 0:
        # Every note fell beyond the bar limit; nothing usable remains.
        return FileOutcome(path, FileStatus.BLANK, dropped_notes=dropped)
    return FileOutcome(
        path,
        FileStatus.OK,
        payload=om8_bytes(seq),
        note_count=len(seq),
        remi_count=remi,
        cp_count=cp,
        digest=digest,
        dropped_notes=dropped,
    )
