"""The batched tree encode against the per-song oracle in ``encode_reference``."""

import logging
import shutil
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import encode_reference as oracle
import octomidi.corpus
from helpers import (
    SongPlan,
    note_off,
    note_on,
    smf_header,
    smf_track,
    song_counts,
    tempo_meta,
    timesig_meta,
    write_gm_corpus,
)
from octomidi import cli
from octomidi.corpus import (
    BATCH_BYTES,
    BATCH_FILES,
    FileStatus,
    PipelineConfig,
    batches,
    process_batch,
    run_pipeline,
)
from octomidi.encoding import OctupleSeq, SongBatch, encode_octuple, song_batch
from octomidi.midi_io import MidiSong, parse_smf_table, write_smf

BAR_TICKS = 4  # quarters per 4/4 bar


def assert_same_outcomes(got, want):
    """Batch outcomes equal oracle outcomes field by field."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.path == w.path
        assert (g.status, g.error) == (w.status, w.error), g.path
        assert g.payload == w.payload, g.path
        assert (g.note_count, g.remi_count, g.cp_count, g.digest, g.dropped_notes) == (
            w.note_count, w.remi_count, w.cp_count, w.digest, w.dropped_notes), g.path


# ---------------------------------------------------------------------------
# Batch boundaries
# ---------------------------------------------------------------------------


class TestBatches:
    def test_empty_and_one_file(self):
        assert batches([], []) == []
        assert batches(["a"], [10]) == [["a"]]
        assert batches(["a"], [10 * BATCH_BYTES]) == [["a"]]

    def test_order_kept_and_file_count_bounded(self):
        paths = [f"f{i:03d}" for i in range(2 * BATCH_FILES + 5)]
        got = batches(paths, [1] * len(paths))
        assert [p for batch in got for p in batch] == paths
        assert [len(b) for b in got] == [BATCH_FILES, BATCH_FILES, 5]

    def test_byte_budget_and_large_file_alone(self):
        third = BATCH_BYTES // 3  # three fill the budget to one byte
        sizes = [third, third, third, 2, BATCH_BYTES + 1, 5, 6, BATCH_BYTES, 7]
        paths = [f"f{i}" for i in range(len(sizes))]
        got = batches(paths, sizes)
        assert got == [["f0", "f1", "f2"], ["f3"], ["f4"], ["f5", "f6"], ["f7"], ["f8"]]
        for batch in got:
            total = sum(sizes[paths.index(p)] for p in batch)
            assert len(batch) == 1 or total <= BATCH_BYTES


def _long_song(notes: int) -> bytes:
    tpq = 480
    # Eight programs sound together on each sixteenth note.
    rows = [(i // 8 * tpq // 4, tpq // 4, 36 + i % 48, 1 + i % 127, i % 8, 0, 0)
            for i in range(notes)]
    return write_smf(MidiSong(tpq, rows, [(0, 100.0)], [(0, 4, 4)]))


def _edge_tree(root: Path) -> None:
    write_gm_corpus(root, n_files=40, seed=21, n_duplicates=3, n_malformed=1)
    big = _long_song(9000)
    assert len(big) > BATCH_BYTES
    (root / "song_010_big.mid").write_bytes(big)
    (root / "song_020_blank.mid").write_bytes(write_smf(MidiSong(480, [])))
    past = [((256 * BAR_TICKS + i) * 480, 240, 60 + i, 90, 0, 0, 0) for i in range(5)]
    (root / "song_030_past.mid").write_bytes(write_smf(MidiSong(480, past)))


def test_outputs_equal_at_one_and_two_workers(tmp_path):
    root = tmp_path / "in"
    _edge_tree(root)
    files = octomidi.corpus.list_corpus(root, octomidi.corpus.MIDI_SUFFIXES)
    assert len(files) % BATCH_FILES and len(files) > BATCH_FILES
    stats = {}
    outputs = {}
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        stats[workers] = run_pipeline(root, out, PipelineConfig(workers=workers))
        outputs[workers] = {p.relative_to(out): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()}
    assert outputs[1] == outputs[2]
    s = stats[1]
    assert (s.songs_rejected_blank, s.songs_rejected_malformed, s.songs_deduplicated) == (2, 1, 3)
    assert s.notes_dropped_bar_overflow == 5
    # Every outcome equals the per-file oracle's.
    got = [outcome for outs in octomidi.corpus.outcome_batches(root, 1) for outcome in outs]
    assert_same_outcomes(got, [oracle.process_file(f) for f in files])


# ---------------------------------------------------------------------------
# Per-file isolation
# ---------------------------------------------------------------------------


def test_unexpected_error_rejects_only_its_file(tmp_path, monkeypatch, caplog):
    root = tmp_path / "in"
    write_gm_corpus(root, n_files=6, seed=5, n_malformed=1)
    paths = [str(p) for p in sorted(root.glob("*.mid"))]
    want = [oracle.process_file(p) for p in paths]
    target = 3
    assert want[target].status is FileStatus.OK
    bad_len = want[target].note_count + want[target].dropped_notes
    assert sum(w.note_count + w.dropped_notes == bad_len for w in want) == 1
    real = octomidi.corpus.batch_fingerprints

    def failing(rows, bounds):
        if bad_len in np.diff(bounds):
            raise RuntimeError("injected failure")
        return real(rows, bounds)

    monkeypatch.setattr(octomidi.corpus, "batch_fingerprints", failing)
    with caplog.at_level(logging.ERROR, logger="octomidi.corpus"):
        got = process_batch(paths)
    assert got[target].status is FileStatus.MALFORMED
    assert got[target].error == "injected failure"
    assert [r.getMessage() for r in caplog.records] == [f"unexpected failure on {paths[target]}"]
    assert_same_outcomes(got[:target] + got[target + 1:], want[:target] + want[target + 1:])


# ---------------------------------------------------------------------------
# The streamed pass
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("target", ["song_005", "song_035"])  # first and last batch
def test_write_error_aborts_the_run(tmp_path, target):
    root = tmp_path / "in"
    write_gm_corpus(root, n_files=40, seed=8)
    files = sorted(root.iterdir())
    assert len(batches(files, [p.stat().st_size for p in files])) > 1
    out = tmp_path / "out"
    (out / f"{target}.mid.om8").mkdir(parents=True)
    threads = threading.active_count()
    for workers in (1, 2):
        with pytest.raises(OSError):
            run_pipeline(root, out, PipelineConfig(workers=workers))
        assert threading.active_count() == threads
    assert cli.main(["encode", str(root), str(out)]) == 1
    assert threading.active_count() == threads
    assert not (out / "stats.txt").exists()


def _tree_bytes(root: Path) -> dict[Path, bytes]:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_output_holds_under_fast_thread_switches_and_more_workers_than_cores(tmp_path):
    root = tmp_path / "in"
    write_gm_corpus(root / "x", n_files=70, seed=17, n_duplicates=5, n_malformed=1)
    shutil.copytree(root / "x", root / "y")
    want = run_pipeline(root, tmp_path / "want")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL between parser and writer as often as possible
    try:
        for workers in (1, 3):
            assert run_pipeline(root, tmp_path / f"w{workers}", PipelineConfig(workers=workers)) == want
            assert _tree_bytes(tmp_path / f"w{workers}") == _tree_bytes(tmp_path / "want")
    finally:
        sys.setswitchinterval(interval)


def test_memory_is_bounded_by_the_batch_not_the_tree(tmp_path):
    one, four = tmp_path / "one", tmp_path / "four"
    write_gm_corpus(one / "a", n_files=70, seed=13, n_duplicates=7, n_malformed=2)
    for part in "abcd":
        shutil.copytree(one / "a", four / part)
    run_pipeline(one, tmp_path / "warm")  # imports and first-call caches, untraced
    peaks = {}
    for root in (one, four):
        tracemalloc.start()
        try:
            run_pipeline(root, tmp_path / f"out_{root.name}")
            peaks[root.name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["four"] - peaks["one"] < 2**19, peaks
    run_pipeline(four, tmp_path / "out_four_w2", PipelineConfig(workers=2))
    assert _tree_bytes(tmp_path / "out_four_w2") == _tree_bytes(tmp_path / "out_four")


# ---------------------------------------------------------------------------
# Oracle property tests
# ---------------------------------------------------------------------------

TPQS = (24, 96, 120, 384, 480, 960)


@st.composite
def songs(draw):
    """A writable song: blank, odd signatures, multi-segment maps, drums, late bars."""
    tpq = draw(st.sampled_from(TPQS))
    bar = BAR_TICKS * tpq
    start = draw(st.sampled_from([0, 0, 0, 250 * bar, 257 * bar]))  # partly, wholly past 255
    span = draw(st.integers(1, 12)) * bar

    def tick():
        return draw(st.integers(0, span)) + draw(st.sampled_from([0, start]))

    sigs = [(0, 4, 4)] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 3))):
        d = 1 << draw(st.integers(0, 7))
        if draw(st.integers(0, 5)):
            n = draw(st.integers(1, min(2 * d, 255)))
        else:  # 9/1 and every 255/d cannot go on the grid
            n = draw(st.sampled_from([9, 255]))
        sigs.append((tick(), n, d))
    tempos = [(tick(), draw(st.floats(20.0, 300.0))) for _ in range(draw(st.integers(0, 3)))]
    notes = []
    for _ in range(draw(st.integers(0, 25))):
        drum = draw(st.integers(0, 4)) == 0
        notes.append((tick(), draw(st.integers(0, 4 * tpq)), draw(st.integers(0, 127)),
                      draw(st.integers(1, 127)), 0 if drum else draw(st.integers(0, 127)),
                      int(drum), 0))
    return MidiSong(tpq, notes, tempos, sigs)


# A malformed file, and a signature with numerator 0, which write_smf refuses.
ODD_FILES = [b"MThd junk",
             SongPlan(timesigs=[(0, 0, 4)], tracks=[[(0, 480, 0, 60, 100)]]).to_bytes()]
# 9/1, every 255/d and 3/2**70 cannot go on the grid.
METERS = [(4, 4), (3, 4), (7, 8), (6, 8), (9, 1), (255, 4), (3, 1 << 70)]


def _multi_track(tpq: int, tracks: list[list[tuple[int, bytes]]]) -> bytes:
    """A format 1 file of tracks given as (tick, event) pairs, each track's in order."""
    chunks = []
    for events in tracks:
        ticks = [tick for tick, _ in events]
        assert ticks == sorted(ticks)
        chunks.append(smf_track([(t - s, ev) for (t, ev), s in zip(events, [0, *ticks])]))
    return smf_header(1, len(tracks), tpq) + b"".join(chunks)


def _note(tick: int, duration: int, channel: int, pitch: int = 60, velocity: int = 90):
    return [(tick, note_on(channel, pitch, velocity)), (tick + duration, note_off(channel, pitch))]


@st.composite
def multi_track_files(draw):
    """Tempo and signature events spread over tracks on a few shared ticks, so
    one tick often holds several, some off the grid; notes that tie on a drum
    and a melodic channel; sometimes every note past bar 255."""
    tpq = draw(st.sampled_from([96, 480]))
    bar = BAR_TICKS * tpq
    start = draw(st.sampled_from([0, 0, 0, 257 * bar]))
    ticks = st.sampled_from([0, 0, bar, 2 * bar, bar + tpq // 3])
    tracks = []
    for _ in range(draw(st.integers(1, 4))):
        events = []
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                events.append((draw(ticks), tempo_meta(draw(st.sampled_from([60.0, 90.0, 200.0])))))
            else:
                events.append((draw(ticks), timesig_meta(*draw(st.sampled_from(METERS)))))
        for _ in range(draw(st.integers(0, 5))):
            tick, duration = start + draw(ticks), draw(st.sampled_from([0, tpq // 2, tpq]))
            pitch, velocity = draw(st.sampled_from([38, 60])), draw(st.sampled_from([70, 90]))
            for channel in draw(st.sampled_from([[9, 0], [0, 9], [0], [9], [3]])):
                events += _note(tick, duration, channel, pitch, velocity)
        tracks.append(sorted(events, key=lambda ev: ev[0]))
    return _multi_track(tpq, tracks)


def _write_tree(root: Path, files: list[bytes]) -> list[str]:
    paths = []
    for i, data in enumerate(files):
        path = root / f"f{i:02d}.mid"
        path.write_bytes(data)
        paths.append(str(path))
    return paths


@st.composite
def batch_files(draw):
    """1 to 40 written songs and multi-track files with up to two odd files among them."""
    files = [draw(st.one_of(songs().map(write_smf), multi_track_files()))
             for _ in range(draw(st.integers(1, 40)))]
    for _ in range(draw(st.integers(0, 2))):
        files.insert(draw(st.integers(0, len(files))), draw(st.sampled_from(ODD_FILES)))
    return files


def _assert_batches_equal_oracle(paths: list[str]) -> None:
    want = [oracle.process_file(p) for p in paths]
    for size in (1, 7, 32):
        got = [outcome for i in range(0, len(paths), size) for outcome in process_batch(paths[i:i + size])]
        assert_same_outcomes(got, want)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(batch_files())
def test_batch_outcomes_equal_oracle(files):
    with tempfile.TemporaryDirectory() as tmp:
        _assert_batches_equal_oracle(_write_tree(Path(tmp), files))


def test_multi_track_events_equal_oracle(tmp_path):
    bar = BAR_TICKS * 480
    notes = _note(0, 240, 0) + _note(bar, 240, 0, 62) + _note(2 * bar + 100, 480, 0, 64)
    cases = {
        # Tempo and signature events repeated at one tick across tracks.
        "repeated": [[(0, tempo_meta(90.0)), (0, timesig_meta(3, 4)), (bar, timesig_meta(7, 8))],
                     [(0, tempo_meta(150.0)), (0, timesig_meta(6, 8)), (bar, tempo_meta(60.0))], notes],
        # A later track overwrites a bad signature at the same tick: kept.
        "overwritten": [[(bar, timesig_meta(9, 1))], [(bar, timesig_meta(3, 4))], notes],
        # The first bad signature in tick order, not in file order, is reported.
        "bad": [[(0, timesig_meta(3, 4)), (2 * bar, timesig_meta(9, 1))],
                [(bar, timesig_meta(255, 4))], notes],
        "too_fine": [[(bar, timesig_meta(3, 1 << 70))], notes],
        # A blank song's bad signature is never checked.
        "blank_bad": [[(0, timesig_meta(9, 1))], []],
        # A drum and a melodic note equal in every sort key of MidiSong.
        "ties": [sorted(_note(0, 240, 9, 60, 80) + _note(0, 240, 0, 60, 80)
                        + _note(bar, 0, 0, 38) + _note(bar, 0, 9, 38), key=lambda ev: ev[0])],
        "past": [[(0, timesig_meta(3, 4))], _note(257 * 3 * 480, 240, 0) + _note(258 * 3 * 480, 240, 9)],
    }
    root = tmp_path / "in"
    write_gm_corpus(root, n_files=20, seed=4)
    for name, tracks in cases.items():
        (root / f"song_{name}.mid").write_bytes(_multi_track(480, tracks))
    paths = [str(p) for p in sorted(root.iterdir())]
    _assert_batches_equal_oracle(paths)
    got = {Path(o.path).stem[5:]: o for o in process_batch(paths)}
    assert [got[name].status for name in cases] == [
        FileStatus.OK, FileStatus.OK, FileStatus.MALFORMED, FileStatus.MALFORMED, FileStatus.BLANK,
        FileStatus.OK, FileStatus.BLANK]
    assert got["bad"].error == "no equal split of the long bar fits the grid (got 255/128)"
    assert got["too_fine"].error.startswith("denominator ")
    assert got["past"].dropped_notes == 2


def test_blank_song_with_an_off_grid_signature_is_blank(tmp_path):
    # 9/1 splits into 9/5, which is off the grid. Only the song with notes
    # reports it; both are left out of the batch.
    blank = MidiSong(480, [], timesig_events=[(0, 9, 1)])
    noted = MidiSong(480, [(0, 240, 60, 90, 0, 0, 0)], timesig_events=[(0, 9, 1)])
    assert encode_octuple(blank) == OctupleSeq()
    batch = SongBatch(parse_smf_table([write_smf(blank), write_smf(noted)]))
    assert list(batch.errors) == [1]
    assert (batch.signatures.size, batch.song.size) == (0, 0)
    assert SongBatch(parse_smf_table([write_smf(blank)])).errors == {}
    paths = [tmp_path / "blank.mid", tmp_path / "noted.mid"]
    for path, song in zip(paths, (blank, noted)):
        path.write_bytes(write_smf(song))
    outcomes = process_batch([str(path) for path in paths])
    assert [o.status for o in outcomes] == [FileStatus.BLANK, FileStatus.MALFORMED]
    assert outcomes[1].error == "no equal split of the long bar fits the grid (got 9/5)"


def test_run_pipeline_builds_no_midisong(tmp_path, monkeypatch):
    root = tmp_path / "in"
    write_gm_corpus(root, n_files=12, seed=3, n_duplicates=2, n_malformed=1)
    (root / "song_020_blank.mid").write_bytes(write_smf(MidiSong(480, [])))
    past = [((256 * BAR_TICKS + i) * 480, 240, 60 + i, 90, 0, 0, 0) for i in range(5)]
    (root / "song_030_past.mid").write_bytes(write_smf(MidiSong(480, past)))
    want = run_pipeline(root, tmp_path / "want")

    def refuse(song):
        raise AssertionError("a MidiSong was built")

    monkeypatch.setattr(MidiSong, "__post_init__", refuse)
    assert run_pipeline(root, tmp_path / "got") == want
    assert _tree_bytes(tmp_path / "got") == _tree_bytes(tmp_path / "want")


@st.composite
def hand_built_songs(draw):
    """Songs never written to a file, so onsets may be negative."""
    song = draw(songs())
    notes = song.notes.copy()
    if len(notes):
        notes[:, 0] -= draw(st.integers(0, 3 * song.ticks_per_quarter))
    return MidiSong(song.ticks_per_quarter, notes, song.tempo_events, song.timesig_events)


def _call(func, *args, **kwargs):
    try:
        return func(*args, **kwargs)
    except Exception as exc:  # compare the failure too
        return type(exc), str(exc)


def _untruncated(song: MidiSong) -> OctupleSeq:
    """Every note of a song encoded, past bar 255 too, by its one-song batch."""
    return OctupleSeq.from_array(song_batch(song).encode()[0])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(hand_built_songs())
def test_encode_octuple_equals_oracle(song):
    assert _call(encode_octuple, song) == _call(oracle.encode_octuple, song)
    assert _call(_untruncated, song) == _call(oracle.encode_octuple, song, bar_limit=None)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(hand_built_songs())
def test_reference_counts_equal_oracle(song):
    assert _call(song_counts, song) == _call(oracle.reference_counts, song)


@pytest.mark.parametrize("shift", [-5, 0, 7])
def test_encode_octuple_on_negative_onsets_in_later_segments(shift):
    # Onsets before tick 0 take the last segment and tempo, as one song's
    # searchsorted(...) - 1 does.
    notes = [(-480 + shift, 240, 60, 90, 1, 0, 0), (0, 240, 62, 90, 1, 0, 0),
             (5000, 240, 64, 90, 1, 1, 0)]
    song = MidiSong(480, notes, [(0, 90.0), (3000, 150.0)], [(0, 3, 4), (1920, 7, 8)])
    assert _untruncated(song) == oracle.encode_octuple(song, bar_limit=None)
