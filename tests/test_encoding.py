"""Octuple codec: quantized placement, ordering, and round trips."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import SongPlan, note_rows, random_valid_seq, single_note_song
from octomidi import decode_octuple, encode_octuple, parse_smf, write_smf
from octomidi.encoding import (
    BAR_MAX,
    COL_DURATION,
    COL_INSTRUMENT,
    COL_PITCH,
    Octuple,
    OctupleSeq,
    PERCUSSION_INSTRUMENT,
    canonical_sort,
    decode_batch,
    song_batch,
    validate_values,
)
from octomidi.grids import TIMESIG_COUNT, bar_capacity, dequantize_tempo, timesig_from_index, timesig_index
from octomidi.midi_io import MidiSong, SongTable, TimedNote, table_song
from octomidi.vocab import ELEMENT_RANGES


def note(onset, dur, pitch, vel=100, program=0, drum=False, track=0):
    return TimedNote(onset, dur, pitch, vel, program, drum, track)


def song_from_notes(notes, tpq=480, tempos=None, timesigs=None):
    return MidiSong(
        ticks_per_quarter=tpq,
        notes=list(notes),
        tempo_events=tempos or [(0, 120.0)],
        timesig_events=timesigs or [(0, 4, 4)],
    )


class TestEncode:
    def test_six_note_fragment_yields_six_octuples(self):
        plan = SongPlan(tpq=480)
        plan.timesigs = [(0, 4, 4)]
        plan.tempos = [(0, 80.0)]
        notes = [
            (0, 240, 0, 60, 90),
            (480, 240, 0, 64, 90),
            (960, 240, 0, 67, 90),
            (1920, 480, 0, 65, 90),
            (2400, 480, 0, 69, 90),
            (3360, 480, 0, 72, 90),
        ]
        plan.tracks = [notes]
        seq = encode_octuple(parse_smf(plan.to_bytes()))
        assert len(seq) == 6

    def test_empty_song_encodes_empty(self):
        assert len(encode_octuple(song_from_notes([]))) == 0

    def test_one_octuple_per_note(self):
        song = parse_smf(single_note_song(pitch=60, velocity=100, duration=480))
        seq = encode_octuple(song)
        assert list(seq) == [Octuple(timesig_index(4, 4), 35, 0, 0, 0, 60, 16, 24)]

    def test_simultaneous_notes_order_by_instrument(self):
        song = song_from_notes(
            [note(0, 480, 60, program=32), note(0, 480, 60, program=0)]
        )
        seq = encode_octuple(song)
        assert [o.instrument for o in seq] == [0, 32]

    def test_percussion_mapping(self):
        song = song_from_notes([note(0, 480, 36, drum=True, program=5)])
        (o,) = encode_octuple(song)
        assert o.instrument == PERCUSSION_INSTRUMENT
        assert o.pitch == 36 + 128
        assert o.duration_idx == 0

    def test_position_rounds_half_up_on_64th_grid(self):
        # 480 tpq: one 1/64 step is 30 ticks; 44 ticks rounds up to step 1,
        # 14 ticks rounds down to step 0, 15 rounds up.
        song = song_from_notes([note(14, 480, 60), note(15, 480, 62), note(44, 480, 64)])
        assert [o.position for o in encode_octuple(song)] == [0, 1, 1]

    def test_onset_near_bar_end_carries_into_next_bar(self):
        # 4/4 at 480 tpq: bar 0 covers ticks [0, 1920); 1906 rounds to step 64,
        # which is bar 1 position 0.
        song = song_from_notes([note(1906, 480, 60)])
        (o,) = encode_octuple(song)
        assert (o.bar, o.position) == (1, 0)

    def test_tempo_and_signature_taken_at_onset(self):
        song = song_from_notes(
            [note(0, 240, 60), note(2400, 240, 62)],
            tempos=[(0, 120.0), (1920, 60.0)],
            timesigs=[(0, 4, 4), (1920, 3, 4)],
        )
        first, second = encode_octuple(song)
        assert first.timesig_idx == timesig_index(4, 4)
        assert second.timesig_idx == timesig_index(3, 4)
        assert first.tempo_idx == 35
        assert second.tempo_idx == 23  # 60 BPM bin
        assert (second.bar, second.position) == (1, 16)

    def test_midbar_signature_change_starts_truncated_bar(self):
        # Change at tick 960 (half a 4/4 bar): bar 0 is truncated, the next
        # bar starts at the change.
        song = song_from_notes(
            [note(0, 240, 60), note(960, 240, 62), note(980, 240, 64)],
            timesigs=[(0, 4, 4), (960, 4, 4)],
        )
        octs = list(encode_octuple(song))
        assert [(o.bar, o.position) for o in octs] == [(0, 0), (1, 0), (1, 1)]

    def test_long_bar_signature_splits_into_sub_bars(self):
        # 5/2 splits into two 5/4 bars of 80 steps (2400 ticks) each.
        song = song_from_notes(
            [note(0, 240, 60), note(2400, 240, 62), note(4800, 240, 64)],
            timesigs=[(0, 5, 2)],
        )
        octs = list(encode_octuple(song))
        assert [(o.bar, o.position) for o in octs] == [(0, 0), (1, 0), (2, 0)]
        assert all(o.timesig_idx == timesig_index(5, 4) for o in octs)

    def test_notes_beyond_bar_255_dropped_and_counted(self):
        bar_ticks = 4 * 480
        song = song_from_notes(
            [note(0, 480, 60), note((BAR_MAX + 1) * bar_ticks, 480, 62)]
        )
        seq = encode_octuple(song)
        assert len(seq) == 1
        assert len(song_batch(song).encode()[0]) - len(seq) == 1

    def test_output_is_canonically_sorted(self):
        rng = np.random.default_rng(3)
        notes = [
            note(int(rng.integers(0, 4 * 480 * 4)), 240, int(rng.integers(40, 90)),
                 program=int(rng.integers(0, 64)))
            for _ in range(50)
        ]
        seq = encode_octuple(song_from_notes(notes))
        assert np.array_equal(seq.array, canonical_sort(seq.array))


class TestDecode:
    def test_single_octuple_becomes_quarter_note(self):
        seq = OctupleSeq([Octuple(timesig_index(4, 4), 35, 0, 0, 0, 60, 16, 24)])
        song = decode_octuple(seq)
        (n,) = note_rows(song)
        assert (n.onset_ticks, n.duration_ticks, n.pitch, n.velocity) == (0, 480, 60, 98)
        assert song.tempo_events[0][0] == 0
        assert song.timesig_events == [(0, 4, 4)]

    def test_percussion_octuple_becomes_drum_note(self):
        seq = OctupleSeq(
            [Octuple(timesig_index(4, 4), 35, 0, 0, PERCUSSION_INSTRUMENT, 164, 0, 24)]
        )
        (n,) = note_rows(decode_octuple(seq))
        assert n.is_drum == 1
        assert n.pitch == 36

    def test_empty_sequence_decodes_to_defaults(self):
        song = decode_octuple(OctupleSeq())
        assert note_rows(song) == []
        assert song.tempo_events == [(0, 120.0)]
        assert song.timesig_events == [(0, 4, 4)]

    def test_out_of_range_values_rejected(self):
        bad = np.zeros((1, 8), dtype=np.int64)
        bad[0, 0] = 254  # time signature index past the table
        with pytest.raises(ValueError):
            decode_octuple(OctupleSeq.from_array(bad))

    def test_inconsistent_bar_signature_keeps_first(self):
        rows = [
            Octuple(timesig_index(4, 4), 35, 0, 0, 0, 60, 16, 24),
            Octuple(timesig_index(3, 4), 35, 0, 8, 0, 64, 16, 24),
        ]
        song = decode_octuple(OctupleSeq(rows))
        assert _conflicts(OctupleSeq(rows).array) == (1, 0)
        assert song.timesig_events == [(0, 4, 4)]

    def test_tempo_conflict_after_repeated_tempo_is_counted(self):
        # The second onset's first row repeats the tempo in force, so its
        # other row is the conflict, and re-encoding changes that row only.
        sig = timesig_index(4, 4)
        rows = [
            Octuple(sig, 10, 0, 0, 0, 60, 16, 24),
            Octuple(sig, 10, 0, 16, 0, 64, 16, 24),
            Octuple(sig, 30, 0, 16, 0, 67, 16, 24),
        ]
        song = decode_octuple(OctupleSeq(rows))
        assert _conflicts(OctupleSeq(rows).array) == (0, 1)
        assert song.tempo_events == [(0, dequantize_tempo(10))]
        assert encode_octuple(song).array[:, 1].tolist() == [10, 10, 10]

    def test_tempo_conflicts_count_the_rows_reencoding_changes(self):
        # One signature per bar and few tempo values, so onsets often carry
        # several tempi; odd draws stay out of canonical order.
        rng = np.random.default_rng(5)
        for draw in range(2000):
            arr = random_valid_seq(rng).array.copy()
            arr[:, 1] = rng.choice([3, 35, 40], len(arr))
            if draw % 2:
                arr = arr[rng.permutation(len(arr))]
            again = encode_octuple(decode_octuple(OctupleSeq.from_array(arr)))
            unchanged = Counter(map(tuple, arr.tolist())) & Counter(map(tuple, again.array.tolist()))
            changed = len(arr) - sum(unchanged.values())
            assert changed == _conflicts(arr)[1], f"draw {draw}"

    def test_conflicting_metadata_matches_row_by_row_reference(self):
        # Dense draws: few distinct values per column in bars 0-3 force
        # signature and tempo conflicts. Sparse draws: few rows over bars
        # 0-255, with leading empty bars, gaps and, on every third draw, a
        # row in bar 255; their signatures come from the whole table, so
        # each index's bar length and signature event gets checked. Odd
        # draws stay out of canonical order.
        rng = np.random.default_rng(11)
        in_force = set()
        for draw in range(1000):
            sparse = draw >= 500
            arr = _metadata_rows(rng, sparse, bar_255=sparse and draw % 3 == 0)
            seq = OctupleSeq.from_array(arr if draw % 2 else canonical_sort(arr))
            song = decode_octuple(seq)
            got = (song.timesig_events, song.tempo_events, *_conflicts(seq.array))
            assert got == _row_by_row_metadata(seq.array), f"draw {draw}"
            in_force.update(timesig_index(*pair) for _, *pair in song.timesig_events)
        assert len(in_force) == TIMESIG_COUNT


def _metadata_rows(rng, sparse, bar_255):
    """The unordered rows of one dense or sparse draw; ``bar_255`` puts a row in bar 255."""
    n = int(rng.integers(1, 40 if sparse else 30))
    arr = np.zeros((n, 8), dtype=np.int64)
    arr[:, 0] = rng.integers(0, TIMESIG_COUNT, n) if sparse else rng.choice([0, 5, 17], n)
    arr[:, 1] = rng.choice([3, 35, 40], n)
    arr[:, 2] = rng.integers(rng.integers(0, 200), 256, n) if sparse else rng.integers(0, 4, n)
    if bar_255:
        arr[0, 2] = 255
    arr[:, 3] = rng.integers(0, 3, n) * 8
    arr[:, 5] = rng.integers(60, 63, n)
    return arr


def _conflicts(arr):
    """(signature, tempo) conflicts of one song's rows, from its one-song decode_batch."""
    _, conflicts = decode_batch(arr, np.zeros(len(arr), dtype=np.int64), 1)
    return tuple(conflicts[0].tolist())


def _row_by_row_metadata(arr):
    """Scalar reference for decode_octuple's signature and tempo passes."""
    last_bar = int(arr[:, 2].max())
    bar_sig = [-1] * (last_bar + 1)
    sig_conflicts = 0
    for bar, sig in arr[:, [2, 0]].tolist():
        if bar_sig[bar] == -1:
            bar_sig[bar] = sig
        elif bar_sig[bar] != sig:
            sig_conflicts += 1
    sig = timesig_index(4, 4)
    bar_starts, timesigs = [0], []
    for b in range(last_bar + 1):
        sig = sig if bar_sig[b] == -1 else bar_sig[b]
        n, d = timesig_from_index(sig)
        if not timesigs or timesigs[-1][1:] != (n, d):
            timesigs.append((bar_starts[b], n, d))
        bar_starts.append(bar_starts[b] + bar_capacity(n, d) * 30)
    # The first row at an onset sets its tempo; each other row there that
    # disagrees is one conflict.
    onset_tempo, tempo_conflicts = {}, 0
    for bar, position, idx in arr[:, [2, 3, 1]].tolist():
        tempo_conflicts += onset_tempo.setdefault(bar_starts[bar] + position * 30, idx) != idx
    tempos, current = [], None
    for tick, idx in sorted(onset_tempo.items()):
        if idx != current:
            tempos.append((tick, dequantize_tempo(idx)))
            current = idx
    return timesigs, MidiSong(480, [], tempos).tempo_events, sig_conflicts, tempo_conflicts


def _song_of(table, s):
    """Song ``s`` of a stacked table, as a one-song table."""
    tempo, sig = table.tempos[:, 0] == s, table.signatures[:, 0] == s
    return SongTable(table.tpq[s : s + 1], table.notes[table.song == s], table.song[table.song == s],
                     table.tempos[tempo], table.bpm[tempo], table.signatures[sig],
                     [meter for meter, kept in zip(table.meters, sig) if kept], [None])


_SONG_KINDS = st.sampled_from(["empty", "valid", "dense", "sparse", "sparse in bar 255"])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from([1, 7, 32]).flatmap(
           lambda n: st.lists(st.tuples(_SONG_KINDS, st.booleans()), min_size=n, max_size=n)),
       st.integers(0, 2**32 - 1))
def test_decode_batch_equals_each_song_decoded_alone(songs, seed):
    # A stack of songs of every kind and length, each in canonical or shuffled row order.
    rng = np.random.default_rng(seed)
    arrays = []
    for kind, shuffled in songs:
        if kind == "empty":
            arr = np.zeros((0, 8), dtype=np.int64)
        elif kind == "valid":
            arr = random_valid_seq(rng).array
        else:
            arr = _metadata_rows(rng, sparse=kind != "dense", bar_255=kind.endswith("255"))
        arrays.append(arr[rng.permutation(len(arr))] if shuffled else canonical_sort(arr))
    song = np.repeat(np.arange(len(arrays)), [len(arr) for arr in arrays])
    table, conflicts = decode_batch(np.concatenate(arrays), song, len(arrays))
    assert len(table.tpq) == len(table.errors) == len(arrays) and conflicts.shape == (len(arrays), 2)
    for s, arr in enumerate(arrays):
        alone, alone_conflicts = decode_batch(arr, np.zeros(len(arr), dtype=np.int64), 1)
        got = _song_of(table, s)
        assert np.array_equal(got.notes, alone.notes), s
        assert got.tempos[:, 1].tolist() == alone.tempos[:, 1].tolist() and got.bpm.tolist() == alone.bpm.tolist()
        assert got.signatures[:, 1].tolist() == alone.signatures[:, 1].tolist() and got.meters == alone.meters
        assert conflicts[s].tolist() == alone_conflicts[0].tolist(), s
        decoded = table_song(got)  # its events normalized
        if len(arr):
            want = _row_by_row_metadata(arr)
            assert (decoded.timesig_events, decoded.tempo_events, *conflicts[s].tolist()) == want, s
        else:
            assert (decoded.timesig_events, decoded.tempo_events) == ([(0, 4, 4)], [(0, 120.0)])


def test_decode_batch_warns_once_per_song_with_conflicts(caplog):
    sig = timesig_index(4, 4)
    clean = [(sig, 10, 0, 0, 0, 60, 16, 24)]
    tempo_clash = [(sig, 10, 0, 16, 0, 64, 16, 24), (sig, 30, 0, 16, 0, 67, 16, 24)]
    both = [(sig, 10, 0, 0, 0, 60, 16, 24), (timesig_index(3, 4), 30, 0, 0, 0, 64, 16, 24)]
    rows = np.array(clean + tempo_clash + clean + both, dtype=np.int64)
    with caplog.at_level("WARNING", logger="octomidi.encoding"):
        _, conflicts = decode_batch(rows, np.array([0, 1, 1, 2, 3, 3]), 4)
    assert conflicts.tolist() == [[0, 0], [0, 1], [0, 0], [1, 1]]
    assert [r.getMessage() for r in caplog.records] == [
        "0 signature and 1 tempo conflicts; keeping the first values",
        "1 signature and 1 tempo conflicts; keeping the first values",
    ]


class TestRoundTrips:
    def test_encode_decode_identity_on_random_valid_seqs(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            seq = random_valid_seq(rng)
            assert encode_octuple(decode_octuple(seq)) == seq

    def test_round_trip_covers_empty_bars_and_leading_silence(self):
        rows = [
            Octuple(timesig_index(3, 4), 10, 2, 5, 7, 33, 40, 12),
            Octuple(timesig_index(3, 4), 10, 2, 40, 7, 35, 40, 12),
            Octuple(timesig_index(7, 8), 12, 5, 0, 128, 191, 0, 3),
        ]
        seq = OctupleSeq.canonical(rows)
        assert encode_octuple(decode_octuple(seq)) == seq

    def test_grid_aligned_song_survives_decode_encode(self):
        # All values on their grids: onsets on the 1/64 grid, velocity on the
        # 2+4k grid, duration on the bin grid, tempo on a bin center.
        song = song_from_notes(
            [
                note(0, 480, 60, vel=98),
                note(480, 960, 64, vel=62),
                note(1920, 240, 67, vel=126, program=19),
                note(1950, 0, 38, vel=90, drum=True),
            ],
            tempos=[(0, float(120 * 2 ** (1 / 12)))],  # exactly bin 36
        )
        cycled = decode_octuple(encode_octuple(song))
        original = sorted((n.onset_ticks, n.pitch) for n in note_rows(song))
        decoded = sorted((n.onset_ticks, n.pitch) for n in note_rows(cycled))
        assert decoded == original
        assert len(cycled.notes) == len(song.notes)

    def test_smf_write_parse_identity_on_random_valid_seqs(self):
        # Draws 217, 323, 355 and 478 hold a same-pitch note that ends inside
        # an earlier note of its instrument.
        rng = np.random.default_rng(7)
        for draw in range(500):
            seq = random_valid_seq(rng)
            again = encode_octuple(parse_smf(write_smf(decode_octuple(seq))))
            assert again == seq, f"draw {draw}"

    def test_duplicate_octuples_survive(self):
        row = Octuple(timesig_index(4, 4), 35, 0, 4, 3, 77, 20, 10)
        seq = OctupleSeq([row, row])
        assert encode_octuple(decode_octuple(seq)) == seq


class TestOctupleSeq:
    def test_slicing_returns_subsequence(self):
        rng = np.random.default_rng(5)
        seq = random_valid_seq(rng)
        window = seq[1:4]
        assert isinstance(window, OctupleSeq)
        assert list(window) == list(seq)[1:4]

    def test_canonical_sort_key_order(self):
        rows = [
            Octuple(0, 0, 1, 0, 0, 0, 0, 0),
            Octuple(0, 0, 0, 5, 0, 0, 0, 0),
            Octuple(0, 0, 0, 0, 3, 0, 0, 0),
            Octuple(0, 0, 0, 0, 0, 9, 0, 0),
        ]
        seq = OctupleSeq.canonical(rows)
        assert [tuple(o) for o in seq] == sorted(
            (tuple(r) for r in rows),
            key=lambda r: (r[2], r[3], r[4], r[5], r[6], r[7], r[1], r[0]),
        )

    def test_sort_is_stable_for_equal_rows(self):
        arr = np.tile(np.arange(8, dtype=np.int64), (3, 1))
        assert np.array_equal(canonical_sort(arr), arr)


class TestValidateValues:
    """A range error names the lowest-index column out of range."""

    # The parent's per-column messages, in column order.
    MESSAGES = [
        "time_signature value outside [0, 253]",
        "tempo value outside [0, 48]",
        "bar value outside [0, 255]",
        "position value outside [0, 127]",
        "instrument value outside [0, 128]",
        "pitch value outside [0, 255]",
        "duration value outside [0, 127]",
        "velocity value outside [0, 31]",
    ]
    VALID = random_valid_seq(np.random.default_rng(5), max_notes=20).array.copy()

    def _message(self, array):
        with pytest.raises(ValueError) as exc:
            validate_values(array)
        return str(exc.value)

    def test_valid_sequences_pass(self):
        validate_values(self.VALID)
        validate_values(np.zeros((0, 8), dtype=np.int64))

    @pytest.mark.parametrize("col", range(8))
    def test_one_bad_column(self, col):
        for value in (-1, ELEMENT_RANGES[col]):
            arr = self.VALID.copy()
            arr[-1, col] = value
            assert self._message(arr) == self.MESSAGES[col]

    @staticmethod
    def _per_column_message(array):
        """The message of the per-column check, or None: the reference."""
        if len(array):
            bad = (array.min(axis=0) < 0) | (array.max(axis=0) >= np.array(ELEMENT_RANGES))
            if bad.any():
                return TestValidateValues.MESSAGES[int(bad.argmax())]
        drums = array[:, COL_INSTRUMENT] == PERCUSSION_INSTRUMENT
        if (drums != (array[:, COL_PITCH] >= 128)).any():
            return "percussion instrument and pitch range disagree"
        if (array[drums, COL_DURATION] != 0).any():
            return "percussion notes must use duration bin 0"
        return None

    def test_random_faults_give_the_per_column_message(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            arr = random_valid_seq(rng, max_notes=12).array.copy()
            for _ in range(int(rng.integers(0, 4))):
                row, col = int(rng.integers(len(arr))), int(rng.integers(8))
                arr[row, col] = rng.choice([-1, -300, ELEMENT_RANGES[col], 70_000,
                                            int(rng.integers(ELEMENT_RANGES[col]))])
            want = self._per_column_message(arr)
            if want is None:
                validate_values(arr)
            else:
                assert self._message(arr) == want

    @pytest.mark.parametrize("col", range(8))
    def test_two_bad_columns_name_the_lower(self, col):
        for other in range(col + 1, 8):
            arr = self.VALID.copy()
            arr[-1, col] = ELEMENT_RANGES[col]  # the lower column fails in a later row
            arr[0, other] = -1
            assert self._message(arr) == self.MESSAGES[col]
