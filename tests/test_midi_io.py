"""Parser tests against hand-constructed SMF byte fixtures."""

import gc
import math
import re
import tomllib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    gm_song_plan,
    mutate_bytes,
    note_off,
    note_rows,
    note_on,
    program_change,
    random_valid_seq,
    single_note_song,
    smf_header,
    smf_track,
    tempo_meta,
    timesig_meta,
    vlq,
)
from octomidi import MalformedMidiError, OctupleSeq, decode_octuple, parse_smf
from octomidi import midi_io
from octomidi.corpus import BATCH_BYTES
from octomidi.encoding import COL_DURATION, COL_INSTRUMENT, COL_PITCH, canonical_sort
from octomidi.midi_io import PERCUSSION_CHANNEL, MidiSong, TimedNote, parse_smf_table, write_smf
from smf_reference import reference_parse_smf, reference_write_smf


def test_single_note_format0():
    song = parse_smf(single_note_song(pitch=60, velocity=100, duration=480, tpq=480))
    assert song.ticks_per_quarter == 480
    assert note_rows(song) == [
        TimedNote(
            onset_ticks=0,
            duration_ticks=480,
            pitch=60,
            velocity=100,
            program=0,
            is_drum=False,
            track=0,
        )
    ]


def test_bad_magic_rejected():
    with pytest.raises(MalformedMidiError):
        parse_smf(b"RIFF" + b"\x00" * 32)


def test_meta_only_track_yields_empty_notes():
    data = smf_header(0, 1, 480) + smf_track([(0, tempo_meta(90)), (0, timesig_meta(3, 4))])
    song = parse_smf(data)
    assert note_rows(song) == []
    assert song.tempo_events == [(0, pytest.approx(90, rel=1e-4))]
    assert song.timesig_events == [(0, 3, 4)]
    # Channel events without a note: the pairing pass runs on no note events.
    controls = smf_header(0, 1, 480) + smf_track([(0, bytes([0xB0, 7, 100])), (10, bytes([0xE0, 0, 64]))])
    assert parse_smf(controls).notes.shape == (0, 7)


def test_defaults_injected_when_undeclared():
    song = parse_smf(single_note_song())
    assert song.tempo_events == [(0, 120.0)]
    assert song.timesig_events == [(0, 4, 4)]


def test_velocity_zero_note_on_acts_as_note_off():
    data = smf_header(0, 1, 480) + smf_track(
        [(0, note_on(0, 64, 90)), (240, note_on(0, 64, 0))]
    )
    song = parse_smf(data)
    assert len(song.notes) == 1
    assert note_rows(song)[0].duration_ticks == 240
    assert note_rows(song)[0].velocity == 90


def test_running_status():
    # Status byte appears once; following events reuse it.
    data = smf_header(0, 1, 480) + smf_track(
        [
            (0, bytes([0x90, 60, 80])),
            (0, bytes([64, 80])),       # second note-on via running status
            (480, bytes([60, 0])),      # note-off via velocity-0 running status
            (0, bytes([64, 0])),
        ]
    )
    song = parse_smf(data)
    assert sorted(n.pitch for n in note_rows(song)) == [60, 64]
    assert all(n.duration_ticks == 480 for n in note_rows(song))


def test_overlapping_same_pitch_pairs_fifo():
    data = smf_header(0, 1, 480) + smf_track(
        [
            (0, note_on(0, 60, 50)),
            (100, note_on(0, 60, 70)),
            (100, note_off(0, 60)),  # closes the first note (tick 200)
            (300, note_off(0, 60)),  # closes the second (tick 500)
        ]
    )
    song = parse_smf(data)
    by_onset = sorted((n.onset_ticks, n.duration_ticks, n.velocity) for n in note_rows(song))
    assert by_onset == [(0, 200, 50), (100, 400, 70)]


def test_unclosed_note_closed_at_track_end():
    data = smf_header(0, 1, 480) + smf_track(
        [(0, note_on(0, 72, 99)), (960, tempo_meta(140))]
    )
    song = parse_smf(data)
    assert note_rows(song)[0].duration_ticks == 960


def test_program_change_applies_at_onset():
    data = smf_header(0, 1, 480) + smf_track(
        [
            (0, program_change(3, 42)),
            (0, note_on(3, 60, 80)),
            (10, program_change(3, 7)),  # after the onset; note keeps 42
            (470, note_off(3, 60)),
            (0, note_on(3, 62, 80)),
            (480, note_off(3, 62)),
        ]
    )
    song = parse_smf(data)
    programs = {n.pitch: n.program for n in note_rows(song)}
    assert programs == {60: 42, 62: 7}


def test_percussion_channel_flags_drums():
    data = smf_header(0, 1, 480) + smf_track(
        [(0, note_on(9, 38, 100)), (120, note_off(9, 38))]
    )
    song = parse_smf(data)
    assert note_rows(song)[0].is_drum == 1


def test_track_order_permutation_preserves_note_count():
    track_a = smf_track([(0, note_on(0, 60, 90)), (480, note_off(0, 60))])
    track_b = smf_track([(240, note_on(1, 67, 70)), (240, note_off(1, 67))])
    song_ab = parse_smf(smf_header(1, 2, 480) + track_a + track_b)
    song_ba = parse_smf(smf_header(1, 2, 480) + track_b + track_a)
    assert len(song_ab.notes) == len(song_ba.notes) == 2
    assert sorted((n.onset_ticks, n.pitch) for n in note_rows(song_ab)) == sorted(
        (n.onset_ticks, n.pitch) for n in note_rows(song_ba)
    )


def test_events_merge_across_tracks_last_writer_wins():
    track_a = smf_track([(0, tempo_meta(100)), (0, note_on(0, 60, 90)), (480, note_off(0, 60))])
    track_b = smf_track([(0, tempo_meta(80)), (960, timesig_meta(3, 4))])
    song = parse_smf(smf_header(1, 2, 480) + track_a + track_b)
    assert song.tempo_events == [(0, pytest.approx(80, rel=1e-4))]
    assert song.timesig_events == [(0, 4, 4), (960, 3, 4)]


def test_parse_is_deterministic():
    data = single_note_song()
    assert parse_smf(data) == parse_smf(data)


def test_smpte_timing_rejected():
    data = smf_header(0, 1, 0xE728) + smf_track([])  # negative SMPTE division
    with pytest.raises(MalformedMidiError):
        parse_smf(data)


def test_zero_division_rejected():
    with pytest.raises(MalformedMidiError):
        parse_smf(smf_header(0, 1, 0) + smf_track([]))


def test_format2_rejected():
    with pytest.raises(MalformedMidiError):
        parse_smf(smf_header(2, 1, 480) + smf_track([]))


def test_truncated_chunk_rejected():
    data = single_note_song()
    with pytest.raises(MalformedMidiError):
        parse_smf(data[:-4])


@pytest.mark.parametrize(
    "body, declared",
    [
        (vlq(200) + note_on(0, 60, 80), 1),  # inside a delta time
        (vlq(0) + note_on(0, 60, 80), 2),  # after a status byte
        (vlq(0) + tempo_meta(90), 5),  # inside a tempo payload
        (vlq(0) + b"\xf0" + vlq(4) + b"\x01\x02\x03\xf7", 5),  # inside a SysEx payload
    ],
    ids=["delta", "status", "tempo", "sysex"],
)
def test_track_truncated_inside_an_event_rejected(body, declared):
    data = smf_header(0, 1, 480) + b"MTrk" + declared.to_bytes(4, "big") + body[:declared]
    with pytest.raises(MalformedMidiError, match="truncated"):
        parse_smf(data)


@pytest.mark.parametrize(
    "body, message",
    [
        (b"\x00\x90\x3c", "truncated chunk"),
        (b"\x00\x90\xbc", "truncated chunk"),  # d2 is missing before d1 is checked
        (b"\x00\x90\x3c\x40\x00\x3c", "truncated chunk"),  # running status after a run
        (b"\x00\xe0\x00", "truncated chunk"),
        (b"\x00\x90\xbc\x40", "data byte with high bit set"),
        (b"\x00\x90\x3c\xc0", "data byte with high bit set"),
        (b"\x00\x90\x3c\x40\x00\x3c\x80", "data byte with high bit set"),
    ],
    ids=["no-d2", "high-d1-no-d2", "running-no-d2", "bend-no-d2", "high-d1", "high-d2", "running-high-d2"],
)
def test_two_data_byte_event_ends_early_before_its_bytes_are_checked(body, message):
    data = smf_header(0, 1, 480) + b"MTrk" + len(body).to_bytes(4, "big") + body
    for parse in (parse_smf, reference_parse_smf):
        with pytest.raises(MalformedMidiError, match=f"^{message}$"):
            parse(data)


def test_declared_python_floor_compiles_the_run_pattern():
    # Possessive quantifiers and atomic groups fail to compile before Python 3.11.
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    floor = pyproject["project"]["requires-python"]
    if re.search(rb"[*+?}]\+|\(\?>", midi_io._RUN.pattern):
        assert floor == ">=3.11"


def test_missing_tracks_rejected():
    with pytest.raises(MalformedMidiError):
        parse_smf(smf_header(1, 2, 480) + smf_track([]))


def test_overlong_vlq_rejected():
    # A 5-byte delta time, which the VLQ reader must refuse.
    body = b"\xff\xff\xff\xff\x7f" + note_on(0, 60, 80) + b"\x00" + bytes([0xFF, 0x2F, 0x00])
    bad = smf_header(0, 1, 480) + b"MTrk" + len(body).to_bytes(4, "big") + body
    with pytest.raises(MalformedMidiError):
        parse_smf(bad)


def test_alien_chunks_skipped():
    alien = b"XFIH" + (4).to_bytes(4, "big") + b"\x00\x01\x02\x03"
    data = smf_header(0, 1, 480) + alien + smf_track(
        [(0, note_on(0, 60, 80)), (480, note_off(0, 60))]
    )
    song = parse_smf(data)
    assert len(song.notes) == 1


def test_stray_note_off_ignored():
    data = smf_header(0, 1, 480) + smf_track(
        [(0, note_off(0, 60)), (0, note_on(0, 62, 80)), (120, note_off(0, 62))]
    )
    song = parse_smf(data)
    assert [n.pitch for n in note_rows(song)] == [62]


def test_every_note_on_becomes_exactly_one_note():
    # Conservation: N note-ons, some matched and some left open, always
    # yield N timed notes.
    import numpy as np

    rng = np.random.default_rng(77)
    for _ in range(25):
        events = []
        n_on = 0
        tick = 0
        open_pitches = []
        for _ in range(60):
            tick += int(rng.integers(0, 120))
            if open_pitches and rng.random() < 0.4:
                pitch = open_pitches.pop(int(rng.integers(0, len(open_pitches))))
                events.append((tick, note_off(0, pitch)))
            else:
                pitch = int(rng.integers(30, 90))
                events.append((tick, note_on(0, pitch, int(rng.integers(1, 128)))))
                open_pitches.append(pitch)
                n_on += 1
        deltas = []
        last = 0
        for t, payload in events:
            deltas.append((t - last, payload))
            last = t
        song = parse_smf(smf_header(0, 1, 480) + smf_track(deltas))
        assert len(song.notes) == n_on


def test_stdin_interface_accepts_bytes(tmp_path, monkeypatch):
    import io
    import sys

    from octomidi.cli import main

    data = single_note_song()
    monkeypatch.setattr(sys, "stdin", type("S", (), {"buffer": io.BytesIO(data)})())
    out = tmp_path / "from_stdin.om8"
    assert main(["encode", "-", str(out)]) == 0
    assert out.stat().st_size > 8


def test_write_smf_parse_cycle_preserves_notes():
    original = parse_smf(single_note_song(pitch=65, velocity=77, duration=360))
    cycled = parse_smf(write_smf(original))
    assert [
        (n.onset_ticks, n.duration_ticks, n.pitch, n.velocity, n.program, n.is_drum)
        for n in note_rows(cycled)
    ] == [
        (n.onset_ticks, n.duration_ticks, n.pitch, n.velocity, n.program, n.is_drum)
        for n in note_rows(original)
    ]
    assert cycled.tempo_events == original.tempo_events
    assert cycled.timesig_events == original.timesig_events


def test_write_smf_keeps_durations_of_nested_same_pitch_notes():
    # The second note starts and ends inside the first, same instrument and
    # pitch: first-in-first-out pairing on one channel would swap their ends.
    notes = [
        TimedNote(0, 960, 60, 80, 5, 0, 0),
        TimedNote(240, 240, 60, 90, 5, 0, 0),
        TimedNote(480, 960, 62, 70, 5, 0, 0),
    ]
    song = MidiSong(480, notes, [(0, 120.0)], [(0, 4, 4)])
    cycled = parse_smf(write_smf(song))
    assert sorted(n[:6] for n in note_rows(cycled)) == sorted(n[:6] for n in notes)


class TestNoteTable:
    ROWS = [
        TimedNote(480, 240, 64, 90, 0, 0, 1),
        TimedNote(0, 480, 67, 80, 0, 0, 0),
        TimedNote(0, 480, 60, 80, 0, 0, 1),
        TimedNote(0, 240, 60, 80, 0, 0, 1),
        TimedNote(0, 0, 38, 100, 0, 1, 0),
    ]
    # Sorted by (onset, track, pitch, duration, velocity, program, is_drum).
    ORDER = sorted(ROWS, key=lambda n: (n[0], n[6], n[2], n[1], n[3], n[4], n[5]))

    def test_rows_in_any_order_build_equal_sorted_songs(self):
        orders = (self.ROWS, self.ROWS[::-1], self.ROWS[2:] + self.ROWS[:2])
        songs = [MidiSong(480, rows) for rows in orders]
        for song in songs:
            assert note_rows(song) == self.ORDER
            assert song == songs[0]
        assert MidiSong(480, np.array(self.ROWS)) == songs[0]
        assert MidiSong(480, self.ROWS[1:]) != songs[0]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_any_row_permutation_builds_an_equal_song(self, data):
        # Few values give many ties, and each drawn row also comes as a drum
        # and as a melodic note, so rows alike but for is_drum are common.
        small = st.integers(0, 1)
        base = data.draw(st.lists(st.tuples(small, small, st.integers(60, 61), small, small, small), max_size=15))
        rows = [(*row[:5], drum, row[5]) for row in base for drum in (0, 1)]
        rows += data.draw(st.lists(st.tuples(small, small, st.integers(60, 61), small, small, small, small),
                                   max_size=10))
        table = np.array(rows, np.int64).reshape(-1, 7)
        perm = np.array(data.draw(st.permutations(range(len(rows)))), np.int64)
        assert MidiSong(480, table) == MidiSong(480, table[perm])

    def test_empty_table_has_seven_columns(self):
        assert MidiSong(480).notes.shape == (0, 7)
        assert MidiSong(480, []).notes.shape == (0, 7)

    def test_table_is_int64(self):
        assert MidiSong(480).notes.dtype == np.int64
        assert MidiSong(480, self.ROWS).notes.dtype == np.int64
        assert parse_smf(single_note_song()).notes.dtype == np.int64

    def test_is_drum_flag_becomes_zero_or_one(self):
        song = MidiSong(480, [(0, 0, 38, 100, 0, True, 0), (0, 480, 60, 80, 0, False, 0)])
        assert sorted(song.notes[:, 5].tolist()) == [0, 1]

    @pytest.mark.parametrize(
        "tempos, timesigs",
        [([(-500, 100.0), (960, 90.0)], []), ([], [(-500, 3, 4), (960, 7, 8)])],
    )
    def test_event_at_negative_tick_raises(self, tempos, timesigs):
        # It would sort before the default at tick 0 and shift every bar.
        with pytest.raises(ValueError, match="event at negative tick -500"):
            MidiSong(480, [(0, 480, 60, 80, 0, 0, 0)], tempos, timesigs)

    def test_negative_tempo_tick_is_named_before_a_signature_one(self):
        with pytest.raises(ValueError, match="event at negative tick -20$"):
            MidiSong(480, [], [(960, 90.0), (-20, 100.0)], [(-500, 3, 4)])


# ---------------------------------------------------------------------------
# The one-pass parser against the scalar reference in smf_reference.py
# ---------------------------------------------------------------------------


def _outcome(parse, data):
    """The parsed song, or the (class, message) of the error it raised."""
    try:
        return parse(data)
    except Exception as exc:  # any class counts; it must match the reference
        return type(exc), str(exc)


def _assert_parses_like_reference(data):
    """Require ``parse_smf`` to match the reference; returns its outcome."""
    want = _outcome(reference_parse_smf, data)
    got = _outcome(parse_smf, data)
    assert type(got) is type(want)
    assert got == want
    return got


_CHANNELS = st.sampled_from([0, 3, PERCUSSION_CHANNEL])
_PITCHES = st.integers(60, 62)  # few pitches: nested and stray same-pitch events
_DATA = st.integers(0, 127)
_NOTE_EVENTS = st.tuples(
    # velocity 0 turns a note-on into a note-off
    st.sampled_from([0x80, 0x90, 0x90]), _CHANNELS, _PITCHES, st.sampled_from([0, 1, 64, 127])
)
_OTHER_EVENTS = st.one_of(
    st.tuples(st.sampled_from([0xA0, 0xB0, 0xE0]), _CHANNELS, _DATA, _DATA),
    st.tuples(st.sampled_from([0xC0, 0xD0]), _CHANNELS, _DATA),
    st.builds(tempo_meta, st.sampled_from([60.0, 97.3, 120.0])),
    st.builds(timesig_meta, st.integers(1, 12), st.sampled_from([2, 4, 8])),
    st.just(b"\xf0\x03\x01\x02\xf7"),
)
# (delta, reuse the running status if it matches, event); three in four
# events are note events.
_EVENTS = st.tuples(
    st.one_of(st.integers(0, 3), st.integers(0, 20_000)),
    st.booleans(),
    st.integers(0, 3).flatmap(lambda k: _NOTE_EVENTS if k else _OTHER_EVENTS),
)


def _render_track(events, end_of_track):
    body = bytearray()
    running = None
    for delta, reuse, event in events:
        body += vlq(delta)
        if isinstance(event, bytes):
            body += event
            running = None
            continue
        status = event[0] | event[1]
        if not (reuse and status == running):
            body.append(status)
        body += bytes(event[2:])
        running = status
    if end_of_track:
        body += vlq(0) + bytes([0xFF, 0x2F, 0x00])
    return b"MTrk" + len(body).to_bytes(4, "big") + bytes(body)


_STREAMS = st.builds(
    lambda tpq, tracks: smf_header(1, len(tracks), tpq)
    + b"".join(_render_track(events, eot) for events, eot in tracks),
    st.sampled_from([96, 480]),
    st.lists(
        st.tuples(st.lists(_EVENTS, min_size=1, max_size=40), st.booleans()), min_size=1, max_size=3
    ),
)


class TestParseMatchesReference:
    """An equal ``MidiSong`` (row order included) or the same error."""

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(data=_STREAMS)
    def test_generated_streams(self, data):
        _assert_parses_like_reference(data)

    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 60), st.integers(60, 61), st.integers(0, 120),
                                    st.booleans(), st.booleans()), min_size=1, max_size=8))
    @example(pairs=[(0, 60, 0, False, False)] * 2)
    def test_tied_drum_and_melodic_events_parse_alike_in_either_order(self, pairs):
        # Each pair is a drum and a melodic note alike but for is_drum: they
        # start together and end together, in the drawn order or reversed.
        def stream(flip):
            events = []
            for gap, pitch, length, ons_flipped, offs_flipped in pairs:
                ons = [note_on(PERCUSSION_CHANNEL, pitch, 80), note_on(0, pitch, 80)]
                offs = [note_off(PERCUSSION_CHANNEL, pitch), note_off(0, pitch)]
                if ons_flipped != flip:
                    ons.reverse()
                if offs_flipped != flip:
                    offs.reverse()
                events += [(gap, ons[0]), (0, ons[1]), (length, offs[0]), (0, offs[1])]
            return smf_header(0, 1, 480) + smf_track(events)

        song = _assert_parses_like_reference(stream(False))
        assert _assert_parses_like_reference(stream(True)) == song
        rows, onset = [], 0  # (onset, duration, pitch, velocity, program, is_drum, track)
        for gap, pitch, length, _, _ in pairs:
            onset += gap
            rows += [(onset, length, pitch, 80, 0, is_drum, 0) for is_drum in (0, 1)]
            onset += length
        want = sorted(rows, key=lambda row: (row[0], row[6], row[2], row[1], row[3], row[4], row[5]))
        assert song.notes.tolist() == [list(row) for row in want]

    def test_drum_and_melodic_rows_keep_content_order(self):
        # Two rows equal in every sort key but is_drum, the last key: the
        # melodic row comes first, whatever order the events come in.
        data = smf_header(0, 1, 480) + smf_track(
            [
                (0, note_on(PERCUSSION_CHANNEL, 60, 80)),
                (0, note_on(0, 60, 80)),
                (120, note_off(0, 60)),
                (0, note_off(PERCUSSION_CHANNEL, 60)),
            ]
        )
        _assert_parses_like_reference(data)
        assert parse_smf(data).notes[:, 5].tolist() == [0, 1]

    def test_mutated_songs(self):
        rng = np.random.default_rng(123)
        songs = [gm_song_plan(rng).to_bytes() for _ in range(40)]
        rng = np.random.default_rng(124)
        rejected = 0
        for i in range(30_000):
            data = mutate_bytes(songs[i % len(songs)], rng)
            if rng.random() < 0.25:
                data = data[: int(rng.integers(0, len(data) + 1))]  # a cut
            got = _assert_parses_like_reference(data)
            rejected += not isinstance(got, MidiSong)
        assert 0 < rejected < 30_000


# ---------------------------------------------------------------------------
# The batch parser, file by file, against the same reference
# ---------------------------------------------------------------------------


def _batches(files, size):
    """Runs of ``size`` files; a file larger than BATCH_BYTES goes alone."""
    out = []
    for data in files:
        if not out or len(out[-1]) == size or len(data) > BATCH_BYTES or len(out[-1][-1]) > BATCH_BYTES:
            out.append([])
        out[-1].append(data)
    return out


def _song_rows(table, s):
    """Song ``s`` of a stacked table: its division, rows without the song column, and error."""
    tempos, sigs = table.tempos[:, 0] == s, table.signatures[:, 0] == s
    error = table.errors[s]
    return (int(table.tpq[s]), table.notes[table.song == s].tolist(), table.tempos[tempos, 1].tolist(),
            table.bpm[tempos].tolist(), table.signatures[sigs, 1].tolist(),
            [meter for meter, mine in zip(table.meters, sigs) if mine], error and (type(error), str(error)))


def _assert_batches_parse_like_reference(files, sizes):
    """Each file parses as the reference does, and its rows in a stacked
    table of each batch size equal its rows in a table of its own."""
    for data in files:
        _assert_parses_like_reference(data)
    alone = [_song_rows(parse_smf_table([data]), 0) for data in files]
    for size in sizes:
        got = [_song_rows(table, s) for batch in _batches(files, size)
               for table in [parse_smf_table(batch)] for s in range(len(batch))]
        assert got == alone


def _tie_song(*events):
    """A drum and a melodic note-on at tick 0 on pitch 60, then ``events``."""
    head = [(0, note_on(PERCUSSION_CHANNEL, 60, 80)), (0, note_on(0, 60, 80))]
    return smf_header(0, 1, 480) + smf_track(head + list(events))


def _large_song():
    rows = [(i // 8 * 120, 120, 36 + i % 48, 1 + i % 127, i % 8, 0, 0) for i in range(9000)]
    data = write_smf(MidiSong(480, rows))
    assert len(data) > BATCH_BYTES
    return data


class TestBatchParseMatchesReference:
    """Every file of a batch parses as it does alone, whatever its neighbours are."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        files=st.lists(st.one_of(_STREAMS, _STREAMS.map(lambda data: data[:-2])), min_size=1, max_size=40),
        size=st.sampled_from([1, 7, 32]),
    )
    def test_generated_streams(self, files, size):
        _assert_batches_parse_like_reference(files, [size])

    def test_mutated_songs_and_a_large_file(self):
        rng = np.random.default_rng(125)
        songs = [gm_song_plan(rng).to_bytes() for _ in range(8)]
        files = [mutate_bytes(songs[i % len(songs)], rng) for i in range(2000)]
        files.insert(1000, _large_song())
        _assert_batches_parse_like_reference(files, [1, 7, 32])

    def test_malformed_neighbour_tie_rows_and_long_deltas(self):
        # Rows equal in every key but is_drum read melodic first, whichever
        # note-off comes first and whether a note closes at the track end.
        melodic_off_first = _tie_song((120, note_off(0, 60)), (0, note_off(PERCUSSION_CHANNEL, 60)))
        drum_off_first = _tie_song((120, note_off(PERCUSSION_CHANNEL, 60)), (0, note_off(0, 60)))
        melodic_left_open = _tie_song((120, note_off(PERCUSSION_CHANNEL, 60)))
        # Deltas of 2, 3 and 4 bytes.
        far = _tie_song((0x3FFF, note_off(0, 60)), (0x1FFFFF, note_on(0, 61, 9)),
                        (0x0FFFFFFF, note_off(PERCUSSION_CHANNEL, 60)))
        files = [melodic_off_first, _tie_song()[:-5], drum_off_first, _tie_song(), melodic_left_open, far]
        got = [_outcome(parse_smf, data) for data in files]
        assert got[1][0] is MalformedMidiError
        assert [got[i].notes[:, 5].tolist() for i in (0, 2, 3, 4)] == [[0, 1]] * 4
        assert got[5].notes[:, :2].tolist() == [[0, 0x3FFF], [0, 0x3FFF + 0x1FFFFF + 0x0FFFFFFF],
                                                [0x3FFF + 0x1FFFFF, 0x0FFFFFFF]]
        _assert_batches_parse_like_reference(files, [1, 7, 32])

    def test_malformed_files_leave_no_reference_cycle(self):
        # A stored error that kept its traceback would hold the batch's
        # frames, and so its results, until a full collection.
        truncated_event = smf_header(0, 1, 480) + smf_track([(0, b"\x90\x3c")], end_of_track=False)
        files = [single_note_song(), truncated_event, b"MThd junk", single_note_song()]
        gc.collect()
        gc.disable()
        try:
            assert isinstance(parse_smf_table(files).errors[1], MalformedMidiError)
            assert gc.collect() == 0
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# The event-table writer against the scalar reference in smf_reference.py
# ---------------------------------------------------------------------------


def _write_outcome(write, song):
    """The SMF bytes, or the message of the ValueError the writer raised."""
    try:
        return write(song)
    except ValueError as exc:
        return str(exc)


def _assert_writes_like_reference(song):
    want = _write_outcome(reference_write_smf, song)
    assert _write_outcome(write_smf, song) == want
    return want


_MAX_TICK = 0x0FFFFFFF  # the largest delta a 4-byte VLQ holds


@st.composite
def _writer_songs(draw):
    """Songs inside the writable range, or with one fault the writers share.

    Few onsets, pitches and programs make nested same-pitch notes with
    varied ends, equal onsets and equal ends common. A wide song draws from
    all 128 programs, so more than 15 melodic groups wrap the channels; a
    far song puts some onsets up to the 4-byte delta limit.
    """
    wide, far = draw(st.booleans()), draw(st.booleans())
    fault = draw(st.sampled_from([None] * 7 + ["ticks_per_quarter", "signature", "tick"]))
    near = st.integers(0, 8).map(lambda k: 120 * k)
    ticks = st.one_of(near, near, st.integers(0, _MAX_TICK)) if far else near
    notes = draw(st.lists(
        st.tuples(
            ticks,
            st.one_of(st.sampled_from([0, 120, 240, 480, 960]), st.integers(0, 2_000)),
            st.integers(0, 127) if wide else st.sampled_from([60, 60, 61]),
            st.integers(1, 127),
            st.integers(0, 127) if wide else st.sampled_from([0, 0, 5]),
            st.sampled_from([0, 0, 0, 1]),
            st.integers(0, 2),
        ),
        min_size=24 if wide else 0,
        max_size=60,
    ))
    # Ends stay at or below _MAX_TICK, so no delta needs more than 4 bytes.
    notes = [(on, min(dur, _MAX_TICK - on), *rest) for on, dur, *rest in notes]
    tempos = draw(st.lists(
        st.tuples(ticks, st.sampled_from([60.0, 97.3, 120.0, 500.0])), max_size=3))
    timesigs = draw(st.lists(
        st.tuples(ticks, st.integers(1, 12), st.sampled_from([1, 2, 4, 8, 16])), max_size=3))
    tpq = draw(st.sampled_from([96, 480, 1, 0x7FFF]))
    if fault == "ticks_per_quarter":
        tpq = draw(st.sampled_from([0, -1, 0x8000]))
    elif fault == "signature":
        timesigs.append((draw(ticks), *draw(st.sampled_from([(0, 4), (256, 4), (3, 3), (4, 12)]))))
    elif fault == "tick" and draw(st.booleans()):
        # MidiSong refuses an event at a negative tick; a field set later
        # is not checked, so the writers still meet one.
        song = MidiSong(tpq, notes, tempos, timesigs)
        song.tempo_events.insert(0, (-draw(st.integers(1, 240)), 90.0))
        return song
    elif fault == "tick":
        notes.append((-draw(st.integers(1, 240)), 480, 60, 80, 0, 0, 0))
    return MidiSong(tpq, notes, tempos, timesigs)


def _nested_heavy_song(rng):
    """A decoded random sequence folded onto 2 programs and 3 pitches.

    Same-pitch notes of one instrument then overlap often, with varied ends.
    """
    arr = random_valid_seq(rng, max_bars=3, max_notes=60).array.copy()
    melodic = arr[:, COL_INSTRUMENT] < 128
    arr[melodic, COL_INSTRUMENT] %= 2
    arr[melodic, COL_PITCH] = 60 + arr[melodic, COL_PITCH] % 3
    arr[melodic, COL_DURATION] = rng.integers(0, 40, int(melodic.sum()))
    return decode_octuple(OctupleSeq.from_array(canonical_sort(arr)))


class TestWriteMatchesReference:
    """The same bytes as the per-note writer, or the same ValueError message."""

    # Each holds a same-pitch chain whose ends fall; the second one also has
    # an equal end after the fall, which must reuse the freed lane.
    CHAINS = [
        [(0, 960, 60, 80, 5, 0, 0), (240, 240, 60, 90, 5, 0, 0), (480, 960, 62, 70, 5, 0, 0)],
        [(0, 960, 60, 80, 5, 0, 0), (240, 240, 60, 90, 5, 0, 0), (300, 180, 60, 70, 5, 0, 0),
         (300, 960, 61, 70, 5, 0, 0)],
        [(0, 960, 38, 90, 0, 1, 0), (0, 480, 38, 91, 0, 1, 1), (0, 0, 38, 92, 9, 1, 0),
         (120, 120, 38, 93, 0, 1, 0), (120, 960, 38, 94, 0, 1, 0)],
    ]

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(song=_writer_songs())
    def test_generated_songs(self, song):
        _assert_writes_like_reference(song)

    def test_falling_chains_and_equal_ends(self):
        for notes in self.CHAINS:
            data = _assert_writes_like_reference(MidiSong(480, notes))
            assert isinstance(data, bytes)
            cycled = parse_smf(data)
            assert sorted(n[:6] for n in note_rows(cycled)) == sorted(n[:6] for n in notes)

    def test_songs_without_notes(self):
        assert isinstance(_assert_writes_like_reference(MidiSong(480)), bytes)
        events_only = MidiSong(96, [], [(0, 90.0), (960, 140.0)], [(0, 3, 4), (1920, 7, 8)])
        assert isinstance(_assert_writes_like_reference(events_only), bytes)

    def test_decoded_random_valid_seqs(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            _assert_writes_like_reference(decode_octuple(random_valid_seq(rng)))

    def test_nested_heavy_decoded_seqs(self):
        rng = np.random.default_rng(3)
        laned = 0  # songs with more tracks than instrument groups
        for _ in range(300):
            song = _nested_heavy_song(rng)
            data = _assert_writes_like_reference(song)
            groups = len({(r[5], r[4]) for r in song.notes.tolist()})
            laned += int.from_bytes(data[10:12], "big") > 1 + groups
        assert laned > 100


class TestWriteRejectsUnreadableSongs:
    """Songs the per-note writer wrote although a reader reads them back wrong."""

    BASE = (480, 240, 60, 100, 0, 0, 0)

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (2, 128, "pitch 128 not writable"),
            (3, 200, "velocity 200 not writable"),
            (4, 255, "program 255 not writable"),
            (3, 0, "velocity 0 not writable"),
            (1, -240, "duration -240 not writable"),
            (0, 1 << 28, f"delta time {1 << 28} not writable"),
        ],
    )
    def test_raises_value_error(self, column, value, message):
        row = list(self.BASE)
        row[column] = value
        song = MidiSong(480, [tuple(row), (0, 120, 64, 90, 1, 0, 0)])
        with pytest.raises(ValueError, match=f"^{message}$"):
            write_smf(song)
        # What the per-note writer wrote is rejected or read back changed.
        try:
            cycled = parse_smf(reference_write_smf(song))
        except MalformedMidiError:
            return
        assert sorted(n[:6] for n in note_rows(cycled)) != sorted(
            n[:6] for n in note_rows(song))

    @pytest.mark.parametrize("bpm", [0.0, -120.0, math.inf, math.nan, 2e8, 1.2e8, 3.0])
    def test_unwritable_tempo_raises_value_error(self, bpm):
        # Zero divided by zero; the rest were clamped to 1 or 0xFFFFFF us
        # (NaN failed inside round).
        song = MidiSong(480, [self.BASE], [(0, bpm)])
        with pytest.raises(ValueError, match=f"^tempo {re.escape(str(bpm))} not writable$"):
            write_smf(song)
        try:
            data = reference_write_smf(song)
        except (ZeroDivisionError, ValueError):
            return
        assert parse_smf(data).tempo_events != song.tempo_events

    def test_tempo_range_ends_are_written(self):
        for usec in (1, 0xFFFFFF):
            song = MidiSong(480, [self.BASE], [(0, 60_000_000.0 / usec)])
            assert write_smf(song) == reference_write_smf(song)
            assert parse_smf(write_smf(song)).tempo_events == song.tempo_events

    def test_largest_delta_is_written(self):
        song = MidiSong(480, [(_MAX_TICK, 0, 60, 100, 0, 0, 0)])
        cycled = parse_smf(write_smf(song))
        assert [n[:6] for n in note_rows(cycled)] == [n[:6] for n in note_rows(song)]
