"""Fingerprinting, deduplication, and the ingestion pipeline."""

import os
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from encode_reference import per_byte_fingerprint
import octomidi.corpus
from helpers import random_valid_seq, write_gm_corpus
from octomidi import cli
from octomidi.corpus import (
    FNV64_OFFSET_BASIS,
    MIDI_SUFFIXES,
    TOKEN_SUFFIXES,
    PipelineConfig,
    batch_fingerprints,
    duplicate_groups,
    list_corpus,
    run_pipeline,
    scan_corpus,
)
from octomidi.encoding import COL_INSTRUMENT, COL_PITCH, COL_VELOCITY, OctupleSeq
from octomidi.formats import read_om8
from octomidi.vocab import ELEMENT_NAMES, ELEMENT_RANGES


def _digest(seq: OctupleSeq) -> int:
    return batch_fingerprints(seq.array, [0, len(seq)])[0]


class TestFingerprint:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        st.one_of(
            # a fifth of the notes are drums, with pitches 128-255
            st.integers(0, 2**32 - 1).map(
                lambda seed: random_valid_seq(np.random.default_rng(seed), max_notes=80)
            ),
            st.just(OctupleSeq()),
        )
    )
    def test_matches_per_byte_reference(self, seq):
        assert _digest(seq) == per_byte_fingerprint(seq.array)

    def test_velocity_changes_do_not_change_digest(self):
        seq = random_valid_seq(np.random.default_rng(0))
        arr = seq.array.copy()
        arr[:, COL_VELOCITY] = (arr[:, COL_VELOCITY] + 11) % 32
        assert _digest(seq) == _digest(OctupleSeq.from_array(arr))

    def test_empty_sequence_hashes_to_offset_basis(self):
        assert _digest(OctupleSeq()) == FNV64_OFFSET_BASIS

    def test_transposition_changes_digest(self):
        seq = random_valid_seq(np.random.default_rng(1))
        arr = seq.array.copy()
        arr[:, COL_PITCH] = np.where(
            arr[:, COL_PITCH] >= 128,
            128 + (arr[:, COL_PITCH] - 128 + 1) % 128,
            (arr[:, COL_PITCH] + 1) % 128,
        )
        assert _digest(seq) != _digest(OctupleSeq.from_array(arr))

    def test_known_fnv_vector(self):
        # FNV-1a 64 of the byte stream (0, 0, 60, 0): one note, instrument 0,
        # pitch 60, as 16-bit little-endian words.
        h = FNV64_OFFSET_BASIS
        for byte in (0, 0, 60, 0):
            h = ((h ^ byte) * 1099511628211) % 2**64
        seq = OctupleSeq([(0, 0, 0, 0, 0, 60, 0, 0)])
        assert _digest(seq) == h

    def test_order_sensitivity(self):
        a = OctupleSeq([(0, 0, 0, 0, 0, 60, 0, 0), (0, 0, 0, 1, 0, 64, 0, 0)])
        b = OctupleSeq([(0, 0, 0, 0, 0, 64, 0, 0), (0, 0, 0, 1, 0, 60, 0, 0)])
        assert _digest(a) != _digest(b)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.lists(st.integers(0, 600), max_size=40), st.integers(0, 2**32 - 1))
    def test_batch_digests_match_per_byte_reference(self, lengths, seed):
        # Every column takes values 0-255, not only the valid ranges.
        rng = np.random.default_rng(seed)
        songs = [rng.integers(0, 256, (n, 8)) for n in lengths]
        rows = np.concatenate(songs) if songs else np.zeros((0, 8), np.int64)
        bounds = np.cumsum([0] + lengths).tolist()
        assert batch_fingerprints(rows, bounds) == [per_byte_fingerprint(s) for s in songs]


def test_list_corpus_sorts_relative_paths_and_ignores_suffix_case(tmp_path):
    for rel in ("b/x.OM8", "a/z.Om8", "a.om8", "c.mid", "d.om8.txt"):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"")
    (tmp_path / "dir.om8").mkdir()
    listed = [p.relative_to(tmp_path).as_posix() for p in list_corpus(tmp_path, TOKEN_SUFFIXES)]
    assert listed == ["a.om8", "a/z.Om8", "b/x.OM8"]


def _rglob_list_corpus(root, suffixes):
    """The listing before the one-pass walk: ``rglob`` plus a relative sort key."""
    root = Path(root)
    files = [p for p in root.rglob("*") if p.is_file() and p.suffix.lower() in suffixes]
    files.sort(key=lambda p: p.relative_to(root).as_posix())
    return files


def _random_tree(root: Path, rng: np.random.Generator) -> None:
    """Files, directories and symlinks whose names sort and suffix awkwardly."""
    stems = ["a", "a-b", "a.b", "B", "x y", "é", "", ".", "..", "_"]
    suffixes = [".om8", ".OM8", ".Om8", ".mid", ".MIDI", ".midi", ".txt", ".om8.txt", "", "."]
    dirs = [root]
    for _ in range(int(rng.integers(4, 40))):
        parent = dirs[int(rng.integers(len(dirs)))]
        path = parent / (str(rng.choice(stems)) + str(rng.choice(suffixes)))
        if path.exists() or path.is_symlink() or path.name in (".", ".."):
            continue
        roll = rng.random()
        if roll < 0.25:  # a directory, maybe named like a token or MIDI file
            path.mkdir()
            dirs.append(path)
        elif roll < 0.35:  # a symlink to a directory: listed paths must not enter it
            path.symlink_to(dirs[int(rng.integers(len(dirs)))], target_is_directory=True)
        elif roll < 0.45:  # a symlink to a file, or a broken one
            path.symlink_to(parent / str(rng.choice(["a.om8", "B.mid", "gone.om8"])))
        else:
            path.write_bytes(b"")


@pytest.mark.parametrize("seed", range(25))
def test_list_corpus_matches_rglob_listing(tmp_path, seed, monkeypatch):
    root = tmp_path / "tree"
    root.mkdir()
    _random_tree(root, np.random.default_rng(seed))
    for suffixes in (TOKEN_SUFFIXES, MIDI_SUFFIXES):
        want = _rglob_list_corpus(root, suffixes)
        assert list_corpus(root, suffixes) == want
        assert list_corpus(str(root) + "/", suffixes) == want
    for missing in (tmp_path / "absent", tmp_path / "tree" / "a.om8"):
        assert list_corpus(missing, TOKEN_SUFFIXES) == _rglob_list_corpus(missing, TOKEN_SUFFIXES)
    # The path strings, each the root as given joined to a relative path, and their order.
    for cwd, form in ((root, "."), (tmp_path, "tree"), (tmp_path, "./tree/"), (tmp_path, str(root))):
        monkeypatch.chdir(cwd)
        for suffixes in (TOKEN_SUFFIXES, MIDI_SUFFIXES):
            want = [str(Path(form) / p.relative_to(root)) for p in _rglob_list_corpus(root, suffixes)]
            assert [path for path, _ in octomidi.corpus._listing(Path(form), suffixes)] == want


class TestPipeline:
    def test_counter_identity_on_mixed_corpus(self, mixed_corpus, tmp_path):
        root, counts = mixed_corpus
        stats = run_pipeline(root, tmp_path / "out")
        assert stats.songs_kept == counts["clean"]
        assert stats.songs_deduplicated == counts["duplicates"]
        assert stats.songs_rejected_malformed == counts["malformed"]
        assert stats.songs_rejected_blank == 0
        assert stats.files_seen == sum(counts.values())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_kept_files_written_with_stats(self, mixed_corpus, tmp_path, monkeypatch, workers):
        root, counts = mixed_corpus
        # Batches of three put two duplicates in a later batch than their
        # originals, and give the pool more than one batch.
        monkeypatch.setattr(octomidi.corpus, "BATCH_FILES", 3)
        out = tmp_path / "out"
        stats = run_pipeline(root, out, PipelineConfig(workers=workers))
        om8_files = sorted(out.rglob("*.om8"))
        assert len(om8_files) == stats.songs_kept
        assert (out / "stats.txt").exists()
        report = (out / "stats.txt").read_text()
        assert f"songs_kept {stats.songs_kept}" in report
        assert "hist_pitch" in report
        total = sum(len(read_om8(p)) for p in om8_files)
        assert total == stats.total_notes
        # Per-column histograms of the persisted tokens are the reference for
        # the counts of kept payloads; the duplicates differ in velocity, so a
        # dropped copy counted would show in hist_velocity.
        rows = np.concatenate([read_om8(p).array for p in om8_files])
        for col, (name, size) in enumerate(zip(ELEMENT_NAMES, ELEMENT_RANGES)):
            assert stats.histograms[name] == np.bincount(rows[:, col], minlength=size).tolist()
        assert scan_corpus(root, PipelineConfig(workers=workers)).histograms == stats.histograms

    def test_mean_octuple_is_notes_over_kept(self, mixed_corpus, tmp_path):
        root, _ = mixed_corpus
        stats = run_pipeline(root, tmp_path / "out")
        assert stats.mean_tokens_octuple == pytest.approx(
            stats.total_notes / stats.songs_kept
        )

    def test_empty_input_dir(self, tmp_path):
        (tmp_path / "in").mkdir()
        stats = run_pipeline(tmp_path / "in", tmp_path / "out")
        assert stats.files_seen == 0
        assert stats.songs_kept == 0

    def test_two_runs_are_byte_identical(self, mixed_corpus, tmp_path):
        root, _ = mixed_corpus
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_pipeline(root, out_a)
        run_pipeline(root, out_b)
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()

    def test_parallel_run_matches_serial(self, mixed_corpus, tmp_path):
        root, _ = mixed_corpus
        out_serial, out_par = tmp_path / "serial", tmp_path / "par"
        stats_serial = run_pipeline(root, out_serial)
        stats_par = run_pipeline(root, out_par, PipelineConfig(workers=4))
        assert stats_serial == stats_par
        for rel in sorted(p.relative_to(out_serial) for p in out_serial.rglob("*.om8")):
            assert (out_serial / rel).read_bytes() == (out_par / rel).read_bytes()

    def test_rerun_on_kept_files_removes_nothing(self, mixed_corpus, tmp_path):
        root, _ = mixed_corpus
        out = tmp_path / "out"
        stats = run_pipeline(root, out)
        kept_names = {p.name[: -len(".om8")] for p in out.rglob("*.om8")}
        second_in = tmp_path / "second_in"
        second_in.mkdir()
        for path in root.iterdir():
            if path.name in kept_names:
                (second_in / path.name).write_bytes(path.read_bytes())
        stats2 = run_pipeline(second_in, tmp_path / "out2")
        assert stats2.songs_deduplicated == 0
        assert stats2.songs_kept == stats.songs_kept

    def test_scan_matches_pipeline_counters(self, mixed_corpus, tmp_path):
        root, _ = mixed_corpus
        assert scan_corpus(root) == run_pipeline(root, tmp_path / "out")

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_root_that_is_no_directory_raises_before_output_is_made(self, tmp_path, kind):
        root = tmp_path / "in"
        if kind == "file":
            root.write_bytes(b"MThd")
        with pytest.raises(OSError) as scanned:
            scan_corpus(root)
        with pytest.raises(OSError) as encoded:
            run_pipeline(root, tmp_path / "out")
        assert (type(encoded.value), str(encoded.value)) == (type(scanned.value), str(scanned.value))
        assert not (tmp_path / "out").exists()

    def test_pool_has_no_more_workers_than_batches(self, mixed_corpus, monkeypatch):
        root, _ = mixed_corpus
        monkeypatch.setattr(octomidi.corpus, "BATCH_FILES", -(-len(list_corpus(root, MIDI_SUFFIXES)) // 3))
        pools = []

        class InlinePool:
            """Records its size and runs each batch in this process when submitted."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                done = Future()
                done.set_result(fn(*args))
                return done

        monkeypatch.setattr(octomidi.corpus, "ProcessPoolExecutor", InlinePool)
        got = list(octomidi.corpus.outcome_batches(root, 8))
        assert pools == [3] and len(got) == 3
        assert got == list(octomidi.corpus.outcome_batches(root, 1))


    def test_smallest_relative_path_wins_against_walk_order(self, tmp_path):
        # A directory's files are walked before its subdirectories, so the
        # walk meets b.mid first; sorted by relative path, a/ comes first.
        root = tmp_path / "in"
        write_gm_corpus(root / "a", n_files=1, seed=4)
        (song,) = (root / "a").iterdir()
        (root / "b.mid").write_bytes(song.read_bytes())
        walked = [os.path.join(top, name) for top, _, names in os.walk(root) for name in names]
        assert walked == [str(root / "b.mid"), str(song)]
        out = tmp_path / "out"
        assert cli.main(["encode", str(root), str(out)]) == 0
        assert sorted(p.relative_to(out) for p in out.rglob("*.om8")) == [
            Path("a", song.name + ".om8")]
        report = tmp_path / "dups.txt"
        assert cli.main(["dedup", str(root), "--report", str(report)]) == 0
        assert [line.split()[1:] for line in report.read_text().splitlines()] == [
            ["kept", str(song)], ["drop", str(root / "b.mid")]]


class TestFingerprintBeforeTruncation:
    def test_overflow_notes_distinguish_songs(self, tmp_path):
        # Two files identical inside the bar range; one carries an extra
        # note beyond bar 255. Fingerprints cover the full sequence, so the
        # pair must not collapse even though the persisted tokens match.
        from helpers import SongPlan

        base_notes = [(0, 480, 0, 60, 90), (480, 480, 0, 64, 90)]
        far_tick = 300 * 4 * 480  # bar 300 in 4/4 at 480 tpq
        plan_a = SongPlan(tracks=[list(base_notes)], timesigs=[(0, 4, 4)], tempos=[(0, 120.0)])
        plan_b = SongPlan(
            tracks=[list(base_notes) + [(far_tick, 480, 0, 72, 90)]],
            timesigs=[(0, 4, 4)],
            tempos=[(0, 120.0)],
        )
        root = tmp_path / "in"
        root.mkdir()
        (root / "a.mid").write_bytes(plan_a.to_bytes())
        (root / "b.mid").write_bytes(plan_b.to_bytes())
        stats = run_pipeline(root, tmp_path / "out")
        assert stats.songs_kept == 2
        assert stats.songs_deduplicated == 0
        assert stats.notes_dropped_bar_overflow == 1
        seq_a = read_om8(tmp_path / "out" / "a.mid.om8")
        seq_b = read_om8(tmp_path / "out" / "b.mid.om8")
        assert seq_a == seq_b  # persisted tokens truncate identically


class TestDuplicateGroups:
    def test_groups_found_in_midi_tree(self, tmp_path):
        root = tmp_path / "corpus"
        write_gm_corpus(root, n_files=4, seed=3, n_duplicates=2)
        groups = duplicate_groups(root)
        assert len(groups) == 2
        for paths in groups.values():
            assert len(paths) == 2
            assert paths == sorted(paths)

    def test_om8_trees_supported(self, tmp_path):
        root = tmp_path / "corpus"
        write_gm_corpus(root, n_files=2, seed=5)
        out = tmp_path / "tokens"
        run_pipeline(root, out)
        dup = out / "copy.om8"
        dup.write_bytes(next(out.rglob("*.om8")).read_bytes())
        groups = duplicate_groups(out)
        assert len(groups) == 1
