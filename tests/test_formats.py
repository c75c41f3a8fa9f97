"""Binary format layouts, byte for byte."""

import io
import re
import struct

import numpy as np
import pytest

from helpers import random_valid_seq
from octomidi import formats
from octomidi.encoding import (
    COL_BAR,
    COL_DURATION,
    COL_INSTRUMENT,
    COL_PITCH,
    COL_VELOCITY,
    Octuple,
    OctupleSeq,
    validate_values,
)
from octomidi.formats import (
    NO_TARGET,
    OM8_MAGIC,
    OMB1_MAGIC,
    om8_bytes,
    omb1_buffer,
    omb1_bytes,
    read_octuple_text,
    read_om8,
    read_om8_table,
    read_omb1,
    write_octuple_text,
    write_om8,
)
from octomidi.grids import timesig_index
from octomidi.vocab import PAD_ID


def _two_note_seq() -> OctupleSeq:
    return OctupleSeq(
        [
            Octuple(timesig_index(4, 4), 35, 0, 0, 0, 60, 16, 24),
            Octuple(timesig_index(4, 4), 35, 0, 16, 0, 64, 16, 24),
        ]
    )


def test_om8_golden_bytes():
    seq = _two_note_seq()
    data = om8_bytes(seq)
    assert data[:4] == bytes([0x4F, 0x4D, 0x38, 0x01])
    assert struct.unpack("<I", data[4:8]) == (2,)
    # First record: each element identifier is value + 4, little endian.
    first = struct.unpack("<8H", data[8:24])
    assert first == (timesig_index(4, 4) + 4, 39, 4, 4, 4, 64, 20, 28)
    assert len(data) == 8 + 2 * 16


def test_om8_round_trip_file_and_stream(tmp_path):
    seq = random_valid_seq(np.random.default_rng(1))
    path = tmp_path / "song.om8"
    written = write_om8(seq, path)
    assert written == path.stat().st_size
    assert read_om8(path) == seq
    buf = io.BytesIO()
    write_om8(seq, buf)
    buf.seek(0)
    assert read_om8(buf) == seq


def test_om8_rejects_bad_magic_and_truncation():
    seq = _two_note_seq()
    data = om8_bytes(seq)
    with pytest.raises(ValueError):
        read_om8(io.BytesIO(b"XXXX" + data[4:]))
    with pytest.raises(ValueError):
        read_om8(io.BytesIO(data[:-3]))
    with pytest.raises(ValueError):
        read_om8(io.BytesIO(data + b"junk"))


def test_om8_rejects_out_of_range_identifiers():
    data = OM8_MAGIC + struct.pack("<I", 1) + struct.pack("<8H", 999, 4, 4, 4, 4, 4, 4, 4)
    with pytest.raises(ValueError):
        read_om8(io.BytesIO(data))


@pytest.mark.parametrize("col, value", [(COL_PITCH, 300), (COL_BAR, 65_532), (COL_VELOCITY, 70_000),
                                        (COL_BAR, -1), (COL_INSTRUMENT, 128)])
def test_om8_bytes_refuses_what_read_om8_rejects(tmp_path, col, value):
    values = _two_note_seq().array.copy()
    values[1, col] = value
    seq = OctupleSeq.from_array(values)
    stream = formats.om8_streams(values, [0, len(values)])[0]  # unchecked, values cast as they come
    with pytest.raises(ValueError) as read:
        read_om8(io.BytesIO(stream))
    if value < 65_532:  # larger values wrap in the cast and may read back as another error
        with pytest.raises(ValueError, match=re.escape(str(read.value))):
            om8_bytes(seq)
    with pytest.raises(ValueError) as written:
        write_om8(seq, tmp_path / "x.om8")
    assert str(written.value) == _reference_first_error([seq])
    assert not (tmp_path / "x.om8").exists()


def _reference_first_error(seqs) -> str | None:
    """The message read_om8 gives for the first sequence it rejects."""
    for seq in seqs:
        try:
            validate_values(seq.array)
        except ValueError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("chunk_rows", [1, 3, 7, 1 << 16])
@pytest.mark.parametrize("seed", range(25))
def test_table_names_the_first_bad_stream_in_any_row_chunk(monkeypatch, chunk_rows, seed):
    # Streams straddle the validation chunks; a later stream may break a rule
    # that validate_values checks before the first bad stream's own rule.
    monkeypatch.setattr(formats, "VALIDATE_ROWS", chunk_rows)
    rng = np.random.default_rng(seed)
    seqs = [random_valid_seq(rng, max_bars=3, max_notes=6) for _ in range(5)]
    breaks = [(COL_INSTRUMENT, 128), (COL_PITCH, 256), (COL_BAR, -1), (COL_VELOCITY, 32)]
    for _ in range(int(rng.integers(0, 3))):
        i = int(rng.integers(len(seqs)))
        values = seqs[i].array.copy()
        col, value = breaks[int(rng.integers(len(breaks)))]
        values[int(rng.integers(len(values))), col] = value
        if col == COL_INSTRUMENT:
            values[:, COL_DURATION] = 0  # the pitch rule breaks first
        seqs[i] = OctupleSeq.from_array(values)
    # om8_streams writes what om8_bytes would refuse.
    sources = [io.BytesIO(formats.om8_streams(seq.array, [0, len(seq)])[0]) for seq in seqs]
    want = _reference_first_error(seqs)
    if want is None:
        table, bounds = read_om8_table(sources)
        assert np.array_equal(table, np.concatenate([s.array for s in seqs]) + 4)
        assert bounds.tolist() == np.cumsum([0] + [len(s) for s in seqs]).tolist()
    else:
        with pytest.raises(ValueError) as raised:
            read_om8_table(sources)
        assert str(raised.value) == want


def test_table_prefers_an_earlier_value_error_to_a_later_bad_header():
    good, bad = _two_note_seq(), _two_note_seq().array.copy()
    bad[1, COL_PITCH] = 300
    sources = [om8_bytes(good), formats.om8_streams(bad, [0, len(bad)])[0], b"XXXX", b"OM8"]
    with pytest.raises(ValueError, match="pitch value outside"):
        read_om8_table(io.BytesIO(s) for s in sources)
    with pytest.raises(ValueError, match="bad magic"):
        read_om8_table(io.BytesIO(s) for s in [sources[0], *sources[2:], sources[1]])


def test_text_round_trip(tmp_path):
    seq = random_valid_seq(np.random.default_rng(4))
    path = tmp_path / "song.txt"
    write_octuple_text(seq, path)
    assert read_octuple_text(path) == seq
    first_line = path.read_text().splitlines()[0].split()
    assert len(first_line) == 8
    assert [int(v) for v in first_line] == list(seq[0])


def test_text_rejects_short_rows():
    with pytest.raises(ValueError):
        read_octuple_text(io.StringIO("1 2 3\n"))


def test_omb1_payload_arithmetic():
    # One example at L=4: magic+count (8 bytes) + length (4) + 4*8 ids twice
    # at 2 bytes each.
    inputs = np.zeros((1, 4, 8), dtype=np.uint16)
    targets = np.full((1, 4, 8), NO_TARGET, dtype=np.uint16)
    data = omb1_bytes(inputs, targets)
    assert len(data) == 8 + 4 + 4 * 8 * 2 * 2
    assert data[:4] == OMB1_MAGIC == bytes([0x4F, 0x4D, 0x42, 0x31])
    assert struct.unpack("<II", data[4:12]) == (1, 4)

    # Two examples at L=1: each example's inputs grid, then its targets grid.
    inputs = np.array([[[4, 5, 6, 7, 8, 9, 10, 11]], [[1] * 8]], dtype=np.uint16)
    targets = np.full((2, 1, 8), NO_TARGET, dtype=np.uint16)
    targets[0, 0, 7] = 300
    targets[1, 0, 0] = 2
    golden = (
        b"OMB1\x02\x00\x00\x00\x01\x00\x00\x00"
        b"\x04\x00\x05\x00\x06\x00\x07\x00\x08\x00\x09\x00\x0a\x00\x0b\x00"
        b"\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x2c\x01"
        b"\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00\x01\x00"
        b"\x02\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"
    )
    assert omb1_bytes(inputs, targets) == golden
    got_inputs, got_targets = read_omb1(io.BytesIO(golden))
    assert np.array_equal(got_inputs, inputs)
    assert np.array_equal(got_targets, targets)


def test_omb1_empty_batch_is_header_only():
    data = omb1_bytes(
        np.zeros((0, 0, 8), dtype=np.uint16), np.zeros((0, 0, 8), dtype=np.uint16)
    )
    assert data == OMB1_MAGIC + struct.pack("<II", 0, 0)


def test_omb1_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    inputs = rng.integers(0, 260, (3, 10, 8)).astype(np.uint16)
    targets = np.where(rng.random((3, 10, 8)) < 0.2, inputs, NO_TARGET).astype(np.uint16)
    path = tmp_path / "batch.omb1"
    inputs.setflags(write=False)
    assert path.write_bytes(omb1_bytes(inputs, targets)) > 12
    got_inputs, got_targets = read_omb1(path)
    assert np.array_equal(got_inputs, inputs)
    assert np.array_equal(got_targets, targets)


def test_omb1_buffer_is_one_padded_stream(tmp_path):
    stream, body = omb1_buffer(2, 3)
    assert body.shape == (2, 2, 3, 8) and np.shares_memory(stream, body)
    assert (body[:, 0] == PAD_ID).all() and (body[:, 1] == NO_TARGET).all()
    body[1, 1, 2, 7] = 300
    path = tmp_path / "batch.omb1"
    assert formats._write(path, stream) == 12 + 2 * 2 * 3 * 8 * 2
    assert path.read_bytes() == omb1_bytes(body[:, 0], body[:, 1])
    buf = io.BytesIO()
    assert formats._write(buf, omb1_buffer(0, 0)[0]) == 12
    assert buf.getvalue() == OMB1_MAGIC + struct.pack("<II", 0, 0)


def test_omb1_rejects_bad_magic():
    with pytest.raises(ValueError):
        read_omb1(io.BytesIO(b"NOPE" + b"\x00" * 8))
    data = omb1_bytes(np.zeros((2, 3, 8), dtype=np.uint16), np.zeros((2, 3, 8), dtype=np.uint16))
    with pytest.raises(ValueError):
        read_omb1(io.BytesIO(data[:-2]))
    with pytest.raises(ValueError):
        read_omb1(io.BytesIO(data + b"\x00\x00"))
