"""Seeded byte mutations of SMF, OM8, OMB1 and octuple text streams.

Hostile bytes may parse or be rejected, but the readers must only ever raise
``OctomidiError`` or ``ValueError`` (never ``IndexError``, ``struct.error``,
``KeyError`` and the like).
"""

import io
import logging
import re

import numpy as np

from helpers import gm_song_plan, mutate_bytes, random_valid_seq
from octomidi import OctomidiError, decode_octuple, masking, parse_smf, write_smf
from octomidi.cli import main
from octomidi.corpus import BATCH_FILES, FileStatus, process_batch
from octomidi.formats import (
    om8_bytes,
    omb1_bytes,
    read_octuple_text,
    read_om8,
    read_omb1,
    write_octuple_text,
)
from octomidi.leakage import measure_leakage
from octomidi.masking import MaskingStrategy, StrategyKind

MUTATIONS_PER_FORMAT = 3000


def _fuzz(reader, streams: list[bytes], seed: int, count: int = MUTATIONS_PER_FORMAT) -> int:
    """Feed mutated streams to ``reader``; returns how many were rejected."""
    rng = np.random.default_rng(seed)
    rejected = 0
    for i in range(count):
        data = mutate_bytes(streams[i % len(streams)], rng)
        try:
            reader(data)
        except (OctomidiError, ValueError):
            rejected += 1
    return rejected


def _smf_streams(seed: int) -> list[bytes]:
    rng = np.random.default_rng(seed)
    streams = [gm_song_plan(rng).to_bytes() for _ in range(4)]
    return streams + [write_smf(decode_octuple(random_valid_seq(rng))) for _ in range(4)]


def test_mutated_smf_raises_only_typed_errors():
    assert _fuzz(parse_smf, _smf_streams(31), seed=32) > 0


def test_mutated_smf_through_the_batch_path(tmp_path, caplog):
    # process_batch never raises: an untyped error anywhere in a batch would
    # show as an "unexpected failure" record instead.
    streams = _smf_streams(33)
    rng = np.random.default_rng(34)
    paths = []
    for i in range(MUTATIONS_PER_FORMAT):
        path = tmp_path / f"f{i:04d}.mid"
        path.write_bytes(mutate_bytes(streams[i % len(streams)], rng))
        paths.append(str(path))
    with caplog.at_level(logging.ERROR, logger="octomidi.corpus"):
        outcomes = [outcome for i in range(0, len(paths), BATCH_FILES)
                    for outcome in process_batch(paths[i:i + BATCH_FILES])]
    assert [outcome.path for outcome in outcomes] == paths
    assert [r.getMessage() for r in caplog.records] == []
    statuses = {outcome.status for outcome in outcomes}
    assert FileStatus.MALFORMED in statuses and FileStatus.OK in statuses


def test_mutated_om8_raises_only_typed_errors():
    rng = np.random.default_rng(41)
    streams = [om8_bytes(random_valid_seq(rng)) for _ in range(8)]
    assert _fuzz(lambda data: read_om8(io.BytesIO(data)), streams, seed=42) > 0


def test_mutated_omb1_raises_only_typed_errors():
    rng = np.random.default_rng(51)
    streams = []
    for _ in range(4):
        shape = (int(rng.integers(1, 4)), int(rng.integers(2, 12)), 8)
        streams.append(omb1_bytes(rng.integers(0, 300, shape), rng.integers(0, 300, shape)))
    assert _fuzz(lambda data: read_omb1(io.BytesIO(data)), streams, seed=52) > 0


def test_mutated_text_raises_only_typed_errors():
    # Every other stream holds values at the int64 edge, so that a mutation
    # can push one past it; decoding as the decode command does.
    rng = np.random.default_rng(71)
    streams = []
    for _ in range(4):
        text = io.StringIO()
        write_octuple_text(random_valid_seq(rng), text)
        streams.append(text.getvalue().encode())
        streams.append(re.sub(rb"\d+", lambda m: b"%d" % (2**63 - 1 - int(m.group())), streams[-1]))
    assert _fuzz(lambda data: read_octuple_text(io.StringIO(data.decode())), streams, seed=72) > 0


def test_mutated_om8_through_the_probe(tmp_path, monkeypatch, capsys):
    # One mutated song among good ones: first in the corpus, and inside the
    # second chunk of three. The probe raises what read_om8 raises for that
    # song, or reports as usual when the song still reads.
    rng = np.random.default_rng(61)
    streams = [om8_bytes(random_valid_seq(rng)) for _ in range(8)]
    places = [tmp_path / "first" / "00.om8", tmp_path / "inside" / "04.om8"]
    for place in places:
        place.parent.mkdir()
        for i in range(6):
            (place.parent / f"{i:02d}.om8").write_bytes(streams[i])
    monkeypatch.setattr(masking, "CHUNK", 3)
    strategies = [MaskingStrategy(kind) for kind in StrategyKind]

    def probe(data: bytes) -> None:
        for place in places:
            place.write_bytes(data)
            try:
                read_om8(place)
                want = None
            except (OctomidiError, ValueError) as exc:
                want = str(exc)
            try:
                measure_leakage(place.parent, strategies, seed=1)
                got = None
            except (OctomidiError, ValueError) as exc:
                got = str(exc)
            assert got == want
            code = main(["probe", str(place.parent), "--seed", "1"])
            assert (code, capsys.readouterr().out == "") == ((1, True) if want else (0, False))
        if want is not None:
            raise ValueError(want)

    assert _fuzz(probe, streams, seed=62, count=300) > 0
