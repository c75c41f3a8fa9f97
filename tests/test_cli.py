"""CLI subcommands exercised in-process through main()."""

import shutil

import numpy as np
import pytest

import encode_reference as oracle
from helpers import (
    SongPlan,
    note_rows,
    random_valid_seq,
    single_note_song,
    write_constant_corpus,
    write_gm_corpus,
)
from octomidi import corpus, formats, parse_smf, read_omb1, run_pipeline
from octomidi import cli
from octomidi.cli import main
from octomidi.encoding import COL_BAR, COL_DURATION, COL_INSTRUMENT, COL_PITCH
from octomidi.formats import OM8_MAGIC, om8_streams, read_om8
from octomidi.masking import derive_rng
from octomidi.midi_io import MidiSong, write_smf


def _refuse_reads_of(module, monkeypatch, suffix):
    """Make ``module._read`` raise PermissionError for paths ending in ``suffix``."""
    read = module._read

    def locked(source):
        if str(source).endswith(suffix):
            raise PermissionError(13, "Permission denied", str(source))
        return read(source)

    monkeypatch.setattr(module, "_read", locked)


def test_encode_decode_single_file(tmp_path, capsys):
    midi = tmp_path / "one.mid"
    midi.write_bytes(single_note_song())
    om8 = tmp_path / "one.om8"
    assert main(["encode", str(midi), str(om8)]) == 0
    assert om8.read_bytes()[:4] == OM8_MAGIC

    out_mid = tmp_path / "round.mid"
    assert main(["decode", str(om8), str(out_mid)]) == 0
    song = parse_smf(out_mid.read_bytes())
    assert len(song.notes) == 1
    assert note_rows(song)[0].pitch == 60


def test_encode_text_format(tmp_path):
    midi = tmp_path / "one.mid"
    midi.write_bytes(single_note_song())
    txt = tmp_path / "one.txt"
    assert main(["encode", str(midi), str(txt), "--format", "text"]) == 0
    line = txt.read_text().strip().split()
    assert len(line) == 8
    out_mid = tmp_path / "from_text.mid"
    assert main(["decode", str(txt), str(out_mid)]) == 0
    assert len(parse_smf(out_mid.read_bytes()).notes) == 1


def test_encode_directory_runs_pipeline(tmp_path, capsys):
    root = tmp_path / "in"
    write_gm_corpus(root, n_files=3, seed=2, n_duplicates=1)
    out = tmp_path / "out"
    assert main(["encode", str(root), str(out), "--workers", "2"]) == 0
    printed = capsys.readouterr().out
    assert "songs_kept 3" in printed
    assert "songs_deduplicated 1" in printed
    assert len(list(out.rglob("*.om8"))) == 3


@pytest.mark.parametrize("workers", ["1", "2"])
def test_encode_fails_where_an_output_directory_is_a_file(tmp_path, workers):
    # The writer makes the missing directories b/ and b/c/ when a write finds
    # them absent. A file where a/ belongs is a NotADirectoryError, which is
    # neither retried nor swallowed: the run fails before writing stats.txt.
    root, out = tmp_path / "in", tmp_path / "out"
    for sub in ("a", "b/c"):
        (root / sub).mkdir(parents=True)
        (root / sub / "song.mid").write_bytes(single_note_song(pitch=60 + len(sub)))
    assert main(["encode", str(root), str(tmp_path / "clean"), "--workers", workers]) == 0
    assert (tmp_path / "clean" / "b" / "c" / "song.mid.om8").is_file()
    out.mkdir()
    (out / "a").write_bytes(b"")
    assert main(["encode", str(root), str(out), "--workers", workers]) == 1
    assert not (out / "stats.txt").exists()
    assert (out / "a").read_bytes() == b""


def test_stats_command(tmp_path, capsys):
    root = tmp_path / "in"
    write_gm_corpus(root, n_files=2, seed=4)
    assert main(["stats", str(root)]) == 0
    assert "mean_tokens_octuple" in capsys.readouterr().out


def test_dedup_command(tmp_path, capsys):
    root = tmp_path / "in"
    write_gm_corpus(root, n_files=3, seed=6, n_duplicates=2)
    report = tmp_path / "dups.txt"
    assert main(["dedup", str(root), "--report", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert sum(" kept " in line for line in lines) == 2
    assert sum(" drop " in line for line in lines) == 2
    assert "duplicate_groups 2" in capsys.readouterr().out


def test_dedup_skips_an_unreadable_token_file(tmp_path, capsys, caplog):
    root = tmp_path / "tokens"
    first, *_ = write_constant_corpus(root, n_songs=3)
    for name in ("const_00_copy.om8", "const_00_locked.om8"):
        (root / name).write_bytes(first.read_bytes())
    report = tmp_path / "dups.txt"
    with pytest.MonkeyPatch.context() as patch:
        _refuse_reads_of(formats, patch, "locked.om8")
        assert main(["dedup", str(root), "--report", str(report)]) == 0
    assert capsys.readouterr().out == "duplicate_groups 1\n"
    (warning,) = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert "unreadable token file" in warning and "const_00_locked.om8" in warning
    # The same report as from the tree without that file.
    (root / "const_00_locked.om8").unlink()
    without = tmp_path / "without.txt"
    assert main(["dedup", str(root), "--report", str(without)]) == 0
    assert report.read_text() == without.read_text()


def _dedup_tree(root, work):
    """Over BATCH_FILES token files with three bad ones in one batch, copies
    among them, and MIDI files of which some are also present as tokens."""
    write_gm_corpus(root / "midi", n_files=30, seed=8, n_duplicates=2)
    run_pipeline(root / "midi", work)
    tokens = root / "tokens"
    tokens.mkdir()
    for name in ("song_003.mid.om8", "song_017.mid.om8", "song_029.mid.om8"):
        shutil.copy(work / name, tokens / name)
    rng = np.random.default_rng(5)
    for i in range(corpus.BATCH_FILES + 8):
        values = random_valid_seq(rng).array
        if i == 11:
            values[0, COL_PITCH] = 300
        stream = om8_streams(values, [0, len(values)])[0]
        name = {9: "t_009_magic", 10: "t_010_short", 11: "t_011_range"}.get(i, f"t_{i:03d}")
        stream = {9: b"XXXX" + stream[4:], 10: stream[:-3]}.get(i, stream)
        (tokens / f"{name}.om8").write_bytes(stream)
    for i in (4, 20):
        shutil.copy(tokens / f"t_{i:03d}.om8", tokens / f"t_{i:03d}_copy.om8")
    return [str(tokens / f"{name}.om8") for name in ("t_009_magic", "t_010_short", "t_011_range")]


def _dedup_report_file_by_file(root) -> str:
    """The dedup report from the per-file oracle and the per-byte fingerprint."""
    by_digest = {}
    for path in corpus.list_corpus(root, corpus.MIDI_SUFFIXES):
        outcome = oracle.process_file(path)
        if outcome.status is corpus.FileStatus.OK:
            by_digest.setdefault(outcome.digest, []).append(str(path))
    for path in corpus.list_corpus(root, corpus.TOKEN_SUFFIXES):
        try:
            digest = oracle.per_byte_fingerprint(read_om8(path).array)
        except ValueError:
            continue
        by_digest.setdefault(digest, []).append(str(path))
    lines = []
    for digest, paths in sorted(by_digest.items()):
        if len(paths) > 1:
            paths = sorted(paths)
            lines += [f"{digest:016x} kept {paths[0]}"] + [f"{digest:016x} drop {p}" for p in paths[1:]]
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_dedup_digests_token_files_by_the_batch(tmp_path, capsys, caplog, workers):
    root = tmp_path / "in"
    bad = _dedup_tree(root, tmp_path / "encoded")
    listed = corpus._listing(root, corpus.TOKEN_SUFFIXES)
    groups = corpus.batches([path for path, _ in listed], [size for _, size in listed])
    assert len(groups) > 1 and any(set(bad) <= set(group) for group in groups)
    report = tmp_path / "dups.txt"
    caplog.clear()
    assert main(["dedup", str(root), "--report", str(report), "--workers", workers]) == 0
    want = _dedup_report_file_by_file(root)
    assert report.read_text() == want
    # Two MIDI copies, three MIDI files kept as tokens too, two token copies.
    assert capsys.readouterr().out == "duplicate_groups 7\n" and want.count(" kept ") == 7
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 3
    for message, path in zip(warnings, bad):
        assert message.startswith(f"skipping unreadable token file {path}: ")


def test_mask_command_writes_batch(tmp_path, capsys):
    corpus = tmp_path / "tokens"
    write_constant_corpus(corpus, n_songs=3)
    out = tmp_path / "batch.omb1"
    assert main(
        ["mask", str(corpus), "--strategy", "bar", "--seed", "9", "--out", str(out)]
    ) == 0
    inputs, targets = read_omb1(out)
    assert inputs.shape[0] == 3
    assert (targets != 0xFFFF).any()


def test_mask_dynamic_across_seeds(tmp_path):
    corpus = tmp_path / "tokens"
    write_constant_corpus(corpus, n_songs=2)
    out1, out2 = tmp_path / "b1.omb1", tmp_path / "b2.omb1"
    main(["mask", str(corpus), "--seed", "1", "--out", str(out1)])
    main(["mask", str(corpus), "--seed", "2", "--out", str(out2)])
    _, t1 = read_omb1(out1)
    _, t2 = read_omb1(out2)
    assert not np.array_equal(t1, t2)


def test_probe_command(tmp_path, capsys):
    corpus = tmp_path / "tokens"
    write_constant_corpus(corpus, n_songs=2)
    assert main(["probe", str(corpus), "--strategy", "all", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "tempo random" in out
    assert "bar_leq_random" in out


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_probe_without_trials_fails(tmp_path, capsys, trials):
    corpus = tmp_path / "tokens"
    write_constant_corpus(corpus, n_songs=1)
    assert main(["probe", str(corpus), "--trials", trials]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("workers", ["0", "-2"])
@pytest.mark.parametrize("command", ["encode", "stats", "dedup"])
def test_workers_below_one_fails(tmp_path, capsys, monkeypatch, command, workers):
    root = tmp_path / "in"
    write_gm_corpus(root, n_files=2, seed=8)
    monkeypatch.setattr(corpus, "_listing", lambda *args: pytest.fail("the tree was listed"))
    extra = {"encode": [str(tmp_path / "out")], "stats": [], "dedup": ["--report", str(tmp_path / "dups")]}
    assert main([command, str(root), *extra[command], "--workers", workers]) == 1
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == [root]


def test_roundtrip_check_command(tmp_path, capsys):
    root = tmp_path / "in"
    write_gm_corpus(root, n_files=3, seed=8)
    assert main(["roundtrip-check", str(root)]) == 0
    out = capsys.readouterr().out
    assert "checked 3" in out
    assert "failures 0" in out


def test_roundtrip_check_skips_unrepresentable_signature(tmp_path, capsys, caplog):
    # 255/1 is a writable signature, but no equal split of its bar fits the grid.
    root = tmp_path / "in"
    write_gm_corpus(root, n_files=2, seed=8)
    odd = SongPlan(timesigs=[(0, 255, 1)], tracks=[[(0, 480, 0, 60, 100)]])
    (root / "song_000a.mid").write_bytes(odd.to_bytes())
    assert main(["roundtrip-check", str(root)]) == 0
    assert capsys.readouterr().out == "checked 2\nfailures 0\n"
    (warning,) = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert "skipping malformed" in warning and "song_000a.mid" in warning


def test_roundtrip_check_skips_what_stats_counts_malformed(tmp_path, capsys, caplog, monkeypatch):
    root = tmp_path / "in"
    write_gm_corpus(root, n_files=3, seed=8, n_duplicates=1, n_malformed=1)
    odd = SongPlan(timesigs=[(0, 255, 1)], tracks=[[(0, 480, 0, 60, 100)]])
    (root / "song_000a.mid").write_bytes(odd.to_bytes())
    (root / "song_001_blank.mid").write_bytes(write_smf(MidiSong(480, [])))
    past = [((256 * 4 + i) * 480, 240, 60 + i, 90, 0, 0, 0) for i in range(5)]  # past bar 255
    (root / "song_002_past.mid").write_bytes(write_smf(MidiSong(480, past)))
    (root / "song_002_locked.mid").write_bytes(single_note_song())
    _refuse_reads_of(corpus, monkeypatch, "locked.mid")
    stats = corpus.scan_corpus(root)
    assert (stats.songs_rejected_malformed, stats.songs_rejected_blank, stats.songs_deduplicated) == (3, 2, 1)
    caplog.clear()
    assert main(["roundtrip-check", str(root)]) == 0
    checked = stats.files_seen - stats.songs_rejected_malformed
    assert capsys.readouterr().out == f"checked {checked}\nfailures 0\n"
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 3 and all("skipping malformed" in w for w in warnings)
    for name in ("song_000a.mid", "song_002_locked.mid", "zz_broken_0.mid"):
        assert sum(name in w for w in warnings) == 1


def test_roundtrip_check_reports_a_song_that_does_not_survive(tmp_path, capsys, caplog, monkeypatch):
    root = tmp_path / "in"
    write_gm_corpus(root, n_files=3, seed=8)
    decode_batch = cli.decode_batch

    def corrupted(rows, song, count):
        table, conflicts = decode_batch(rows, song, count)
        table.notes[np.searchsorted(table.song, 1), 0] += 30  # the second song's first note, a step later
        return table, conflicts

    monkeypatch.setattr(cli, "decode_batch", corrupted)
    assert main(["roundtrip-check", str(root)]) == 1
    assert capsys.readouterr().out == "checked 3\nfailures 1\n"
    (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error == f"round trip mismatch: {root / 'song_001.mid'}"


def test_roundtrip_check_builds_no_song(tmp_path, capsys, monkeypatch):
    root = tmp_path / "in"
    write_gm_corpus(root, n_files=5, seed=8, n_duplicates=2, n_malformed=1)
    (root / "song_001_blank.mid").write_bytes(write_smf(MidiSong(480, [])))
    assert main(["roundtrip-check", str(root)]) == 0
    want = capsys.readouterr().out

    def refuse(song):
        raise AssertionError("a MidiSong was built")

    monkeypatch.setattr(MidiSong, "__post_init__", refuse)
    assert main(["roundtrip-check", str(root)]) == 0
    assert capsys.readouterr().out == want == "checked 8\nfailures 0\n"


@pytest.mark.parametrize("command", ["stats", "roundtrip-check", "dedup"])
@pytest.mark.parametrize("root_kind", ["missing", "file"])
def test_tree_commands_refuse_a_root_that_is_no_directory(tmp_path, capsys, caplog, command, root_kind):
    root = tmp_path / "song.mid"
    if root_kind == "file":
        root.write_bytes(single_note_song())
    report = tmp_path / "dups.txt"
    argv = [command, str(root)] + (["--report", str(report)] if command == "dedup" else [])
    assert main(argv) == 1
    assert capsys.readouterr().out == ""
    assert not report.exists()
    (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert str(root) in error


def test_exit_code_one_on_missing_input(tmp_path):
    assert main(["encode", str(tmp_path / "absent.mid"), str(tmp_path / "x.om8")]) == 1


def test_exit_code_one_on_empty_mask_corpus(tmp_path):
    empty = tmp_path / "tokens"
    empty.mkdir()
    assert main(["mask", str(empty), "--out", str(tmp_path / "b.omb1")]) == 1


def test_exit_code_one_on_mask_budget_below_two(tmp_path):
    corpus = tmp_path / "tokens"
    write_constant_corpus(corpus, n_songs=1)
    out = tmp_path / "b.omb1"
    assert main(["mask", str(corpus), "--max-len", "1", "--out", str(out)]) == 1
    assert not out.exists()


def test_mask_budget_past_int64_keeps_every_song_whole(tmp_path):
    corpus = tmp_path / "tokens"
    corpus.mkdir()
    rng = np.random.default_rng(5)
    longest = 0
    for i in range(4):
        seq = random_valid_seq(rng)
        formats.write_om8(seq, corpus / f"{i}.om8")
        longest = max(longest, len(seq))
    batches = []
    for budget in (10**6, longest + 2, 2**70):
        out = tmp_path / f"{budget}.omb1"
        assert main(["mask", str(corpus), "--max-len", str(budget), "--out", str(out)]) == 0
        batches.append(out.read_bytes())
    assert batches[1] == batches[0] and batches[2] == batches[0]
    assert read_omb1(tmp_path / f"{2**70}.omb1")[0].shape[1] == longest + 2


def _corpus_with_a_truncated_file(tmp_path):
    corpus = tmp_path / "tokens"
    first = write_constant_corpus(corpus, n_songs=3)[0]
    first.write_bytes(first.read_bytes()[:-3])
    return corpus


def test_mask_refuses_a_negative_seed_before_reading_a_token_file(tmp_path, caplog):
    corpus = _corpus_with_a_truncated_file(tmp_path)
    _mask_fails_with(corpus, tmp_path / "b.omb1", caplog, "expected non-negative integer",
                     "--seed", "-1")


def test_probe_refuses_a_negative_seed_before_reading_a_token_file(tmp_path, caplog, capsys):
    corpus = _corpus_with_a_truncated_file(tmp_path)
    assert main(["probe", str(corpus), "--seed", "-1"]) == 1
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
        "expected non-negative integer"]
    assert capsys.readouterr().out == ""


def test_mask_writes_no_batch_when_a_token_file_is_truncated(tmp_path):
    corpus = tmp_path / "tokens"
    last = write_constant_corpus(corpus, n_songs=3)[-1]  # read after the other two
    last.write_bytes(last.read_bytes()[:-3])
    out = tmp_path / "b.omb1"
    assert main(["mask", str(corpus), "--out", str(out)]) == 1
    assert not out.exists()


def test_decode_rejects_malformed_token_file(tmp_path):
    bad = tmp_path / "bad.om8"
    bad.write_bytes(b"OM8\x01\xff\xff\xff\xff")
    assert main(["decode", str(bad), str(tmp_path / "y.mid")]) == 1


def _bad_copy(path, row, col, value):
    """Rewrite a token file with one element value replaced."""
    values = read_om8(path).array.copy()
    values[row, col] = value
    path.write_bytes(om8_streams(values, [0, len(values)])[0])  # unchecked, unlike om8_bytes


def _mask_fails_with(corpus, out, caplog, message, *flags):
    assert main(["mask", str(corpus), "--out", str(out), *flags]) == 1
    assert not out.exists()
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [message]


def test_mask_names_the_first_bad_file_when_two_break_different_rules(tmp_path, caplog):
    corpus = tmp_path / "tokens"
    paths = write_constant_corpus(corpus, n_songs=4)
    _bad_copy(paths[1], 3, COL_INSTRUMENT, 128)  # a drum row with a melodic pitch
    _bad_copy(paths[2], 5, COL_BAR, 256)
    _mask_fails_with(corpus, tmp_path / "b.omb1", caplog,
                     "percussion instrument and pitch range disagree")


def test_mask_reports_a_value_error_before_a_later_bad_header(tmp_path, caplog):
    corpus = tmp_path / "tokens"
    paths = write_constant_corpus(corpus, n_songs=4)
    _bad_copy(paths[1], 0, COL_PITCH, 300)
    paths[2].write_bytes(b"XXXX" + paths[2].read_bytes()[4:])
    paths[3].write_bytes(paths[3].read_bytes()[:6])
    _mask_fails_with(corpus, tmp_path / "b.omb1", caplog, "pitch value outside [0, 255]")


def test_mask_rejects_a_bad_row_outside_the_sampled_window(tmp_path, caplog):
    corpus = tmp_path / "tokens"
    (path,) = write_constant_corpus(corpus, n_songs=1)
    rows = len(read_om8(path))
    # The window --max-len 8 draws for song 0 at --seed 0: 6 rows from here.
    start = int(derive_rng(0, 0).integers(0, rows - 6 + 1))
    _bad_copy(path, rows - 1 if start < rows - 6 else 0, COL_DURATION, 128)
    _mask_fails_with(corpus, tmp_path / "b.omb1", caplog,
                     "duration value outside [0, 127]", "--max-len", "8", "--seed", "0")
