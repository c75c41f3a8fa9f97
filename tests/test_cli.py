"""CLI subcommands exercised in-process through main()."""

import numpy as np
import pytest

from helpers import (
    SongPlan,
    note_rows,
    single_note_song,
    write_constant_corpus,
    write_gm_corpus,
)
from octomidi import parse_smf, read_omb1
from octomidi.cli import main
from octomidi.formats import OM8_MAGIC


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
