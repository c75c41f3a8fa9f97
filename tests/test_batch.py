"""The batched tree encode against the per-song oracle in ``encode_reference``."""

import logging
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import encode_reference as oracle
import octomidi.corpus
from helpers import SongPlan, write_gm_corpus
from octomidi.corpus import (
    BATCH_BYTES,
    BATCH_FILES,
    FileStatus,
    PipelineConfig,
    batches,
    process_batch,
    run_pipeline,
)
from octomidi.encoding import encode_octuple
from octomidi.midi_io import MidiSong, write_smf
from octomidi.reference import reference_counts
from octomidi.vocab import ELEMENT_RANGES

BAR_TICKS = 4  # quarters per 4/4 bar


def _dense(histogram) -> list[int]:
    """A sparse (indices, counts) histogram, or none, as the dense oracle form."""
    dense = np.zeros(sum(ELEMENT_RANGES), dtype=np.int64)
    if histogram is not None:
        index, count = histogram
        dense[index] = count
    return dense.tolist()


def assert_same_outcomes(got, want):
    """Batch outcomes (sparse histograms) equal oracle outcomes (dense ones)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.path == w.path
        assert (g.status, g.error) == (w.status, w.error), g.path
        assert g.payload == w.payload, g.path
        want_hist = _dense(None) if w.histogram is None else w.histogram.tolist()
        assert _dense(g.histogram) == want_hist, g.path
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
    assert_same_outcomes(octomidi.corpus._map_outcomes(files, 1),
                         [oracle.process_file(f) for f in files])


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
    real = octomidi.corpus.fingerprint

    def failing(seq):
        if len(seq) == bad_len:
            raise RuntimeError("injected failure")
        return real(seq)

    monkeypatch.setattr(octomidi.corpus, "fingerprint", failing)
    with caplog.at_level(logging.ERROR, logger="octomidi.corpus"):
        got = process_batch(paths)
    assert got[target].status is FileStatus.MALFORMED
    assert got[target].error == "injected failure"
    assert [r.getMessage() for r in caplog.records] == [f"unexpected failure on {paths[target]}"]
    assert_same_outcomes(got[:target] + got[target + 1:], want[:target] + want[target + 1:])


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


def _write_tree(root: Path, files: list[bytes]) -> list[str]:
    paths = []
    for i, data in enumerate(files):
        path = root / f"f{i:02d}.mid"
        path.write_bytes(data)
        paths.append(str(path))
    return paths


@st.composite
def batch_files(draw):
    """1 to 40 written songs with up to two odd files among them."""
    files = [write_smf(draw(songs())) for _ in range(draw(st.integers(1, 40)))]
    for _ in range(draw(st.integers(0, 2))):
        files.insert(draw(st.integers(0, len(files))), draw(st.sampled_from(ODD_FILES)))
    return files


@settings(derandomize=True, deadline=None, max_examples=40)
@given(batch_files())
def test_batch_outcomes_equal_oracle(files):
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_tree(Path(tmp), files)
        assert_same_outcomes(process_batch(paths), [oracle.process_file(p) for p in paths])


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


@settings(derandomize=True, deadline=None, max_examples=300)
@given(hand_built_songs(), st.sampled_from([255, None, 3]))
def test_encode_octuple_equals_oracle(song, bar_limit):
    got = _call(encode_octuple, song, bar_limit=bar_limit)
    want = _call(oracle.encode_octuple, song, bar_limit=bar_limit)
    assert got == want


@settings(derandomize=True, deadline=None, max_examples=300)
@given(hand_built_songs())
def test_reference_counts_equal_oracle(song):
    assert _call(reference_counts, song) == _call(oracle.reference_counts, song)


@pytest.mark.parametrize("shift", [-5, 0, 7])
def test_encode_octuple_on_negative_onsets_in_later_segments(shift):
    # Onsets before tick 0 take the last segment and tempo, as one song's
    # searchsorted(...) - 1 does.
    notes = [(-480 + shift, 240, 60, 90, 1, 0, 0), (0, 240, 62, 90, 1, 0, 0),
             (5000, 240, 64, 90, 1, 1, 0)]
    song = MidiSong(480, notes, [(0, 90.0), (3000, 150.0)], [(0, 3, 4), (1920, 7, 8)])
    assert encode_octuple(song, bar_limit=None) == oracle.encode_octuple(song, bar_limit=None)
