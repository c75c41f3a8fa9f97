"""Length-comparison encoders: fragment counts and ordering invariants."""

import numpy as np

from helpers import SongPlan, gm_song_plan, song_counts
from octomidi import encode_octuple, parse_smf
from octomidi.midi_io import MidiSong, TimedNote
from token_reference import encode_cp_like, encode_remi_like


def _fragment_song() -> MidiSong:
    """Two 4/4 bars, six notes at distinct onsets, one tempo change.

    The tempo change sits on a step with no note, so the compound-style
    stream opens 8 onset groups: the opening state group at (0, 0), six note
    groups, and the tempo-change group.
    """
    plan = SongPlan(tpq=480)
    plan.timesigs = [(0, 4, 4)]
    plan.tempos = [(960, 80.0)]  # bar 0, step 32: between the notes
    step = 30  # one 1/64 note at 480 tpq
    notes = [
        (8 * step, 8 * step, 0, 60, 90),
        (16 * step, 8 * step, 0, 64, 90),
        (48 * step, 8 * step, 0, 67, 90),
        (64 * step, 8 * step, 0, 65, 90),   # bar 1 position 0
        (80 * step, 8 * step, 0, 69, 90),
        (96 * step, 8 * step, 0, 72, 90),
    ]
    plan.tracks = [notes]
    return parse_smf(plan.to_bytes())


def _unnormalized_song() -> MidiSong:
    """Hand-built events out of order, two writers at tick 1920, none at tick 0.

    At tick 1920 the last writer holds the smaller value (60 BPM, 2/4), so a
    timeline resolved by value instead of by position would differ.
    """
    notes = [
        TimedNote(0, 480, 60, 100, 0, False, 0),
        TimedNote(1920, 480, 64, 90, 0, False, 0),
        TimedNote(3840, 240, 67, 80, 0, False, 0),
    ]
    tempos = [(1920, 90.0), (960, 150.0), (1920, 60.0)]
    timesigs = [(3840, 3, 4), (1920, 6, 8), (1920, 2, 4)]
    return MidiSong(480, notes, tempos, timesigs)


def _metadata_change_songs() -> list[MidiSong]:
    """Tempo and signature changes at positions with and without a note onset.

    Notes start at ticks 480, 1920 (bar 1, position 0), 2400 and 4800.
    """
    notes = [
        TimedNote(tick, 240, 60 + i, 90, 0, False, 0)
        for i, tick in enumerate((480, 1920, 2400, 4800))
    ]
    return [
        MidiSong(480, notes, [(1920, 90.0)], []),  # tempo change on an onset
        MidiSong(480, notes, [(960, 90.0)], []),  # tempo change on no onset
        MidiSong(480, notes, [], [(1920, 3, 4)]),  # signature change on an onset
        MidiSong(480, notes, [], [(3840, 3, 4)]),  # signature change on no onset
        # Changes at (0, 0), where no note starts, and a tempo and a
        # mid-bar signature change on onsets.
        MidiSong(480, notes, [(0, 90.0), (2400, 60.0)], [(0, 3, 4), (4800, 2, 4)]),
    ]


def test_event_timeline_resolves_to_last_writer():
    song = _unnormalized_song()
    tempos, timesigs = song.tempo_events, song.timesig_events
    assert tempos == [(0, 120.0), (960, 150.0), (1920, 60.0)]
    assert timesigs == [(0, 4, 4), (1920, 2, 4), (3840, 3, 4)]
    normalized = MidiSong(480, song.notes, tempos, timesigs)
    assert encode_octuple(song) == encode_octuple(normalized)
    assert encode_remi_like(song) == encode_remi_like(normalized)


def test_fragment_encodes_to_six_octuples():
    assert len(encode_octuple(_fragment_song())) == 6


def test_fragment_event_style_count_is_33():
    tokens = encode_remi_like(_fragment_song())
    assert len(tokens) == 33  # 6 notes * 5 + 2 bars + 1 tempo change
    assert tokens.count("<bar>") == 2
    assert sum(t.startswith("<tempo:") for t in tokens) == 1
    assert sum(t.startswith("<pos:") for t in tokens) == 6


def test_fragment_compound_style_count_is_16():
    tokens = encode_cp_like(_fragment_song())
    assert len(tokens) == 16  # 6 note compounds + 8 onset groups + 2 bars
    assert tokens.count("<bar>") == 2
    assert sum(t.startswith("<metric:") for t in tokens) == 8
    assert sum(t.startswith("<note:") for t in tokens) == 6


def test_empty_song_has_no_tokens():
    song = MidiSong(480, [], [(0, 120.0)], [(0, 4, 4)])
    assert encode_remi_like(song) == []
    assert encode_cp_like(song) == []


def test_noteless_song_with_declared_change_emits_bars():
    song = MidiSong(480, [], [(0, 90.0)], [(0, 4, 4)])
    tokens = encode_remi_like(song)
    assert tokens == ["<bar>", "<tempo:30>"]


def test_default_metadata_emits_no_change_tokens():
    song = MidiSong(
        480,
        [TimedNote(0, 480, 60, 100, 0, False, 0)],
        [(0, 120.0)],
        [(0, 4, 4)],
    )
    tokens = encode_remi_like(song)
    assert sum(t.startswith("<tempo:") for t in tokens) == 0
    assert sum(t.startswith("<time-sig:") for t in tokens) == 0


def test_length_ordering_on_random_songs():
    rng = np.random.default_rng(99)
    for _ in range(20):
        song = parse_smf(gm_song_plan(rng).to_bytes())
        n_oct = len(encode_octuple(song))
        n_cp = len(encode_cp_like(song))
        n_remi = len(encode_remi_like(song))
        assert n_oct <= n_cp <= n_remi
        assert n_oct == len(song.notes)


def test_counts_match_token_lists():
    rng = np.random.default_rng(123)
    songs = [parse_smf(gm_song_plan(rng).to_bytes()) for _ in range(10)]
    songs.append(_fragment_song())
    songs.append(_unnormalized_song())
    songs.append(MidiSong(480, [], [(0, 120.0)], [(0, 4, 4)]))
    songs.append(MidiSong(480, [], [(0, 90.0)], [(0, 4, 4)]))
    songs += _metadata_change_songs()
    for song in songs:
        remi, cp = song_counts(song)
        assert remi == len(encode_remi_like(song))
        assert cp == len(encode_cp_like(song))


def test_ratio_window_on_gm_corpus(gm_corpus):
    octs, cps, remis = [], [], []
    for path in sorted(gm_corpus.glob("*.mid")):
        song = parse_smf(path.read_bytes())
        octs.append(len(encode_octuple(song)))
        cps.append(len(encode_cp_like(song)))
        remis.append(len(encode_remi_like(song)))
    mean_oct = np.mean(octs)
    assert 3.0 <= np.mean(remis) / mean_oct <= 6.0
    assert 1.5 <= np.mean(cps) / mean_oct <= 2.5
