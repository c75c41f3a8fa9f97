"""Binary and text serialization of octuple sequences and masked batches.

OM8 (one song)::

    magic 4F 4D 38 01
    u32le note count N
    N records of 8 u16le element identifiers (special-token offset +4)

OMB1 (one batch of masked examples)::

    magic 4F 4D 42 31
    u32le example count E
    u32le sequence length L
    per example: L*8 u16le input identifiers (row major),
                 then L*8 u16le target identifiers, 0xFFFF = no target

Readers reject a stream whose length is not exactly what its header declares.

The text form is one octuple per line, 8 space-separated decimal element
values (no special-token offset), for diffing and fixtures.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import BinaryIO, Iterable, TextIO

import numpy as np

from .encoding import OctupleSeq, validate_values
from .vocab import NUM_SPECIALS, PAD_ID

OM8_MAGIC = b"OM8\x01"
OM8_HEADER = struct.Struct("<4sI")  # magic, note count
OMB1_MAGIC = b"OMB1"
NO_TARGET = 0xFFFF


def _write(dest: str | Path | BinaryIO | TextIO, payload: bytes | str | np.ndarray) -> int:
    """Write to a file object, or to a path (text mode for ``str``)."""
    if hasattr(dest, "write"):
        dest.write(payload)
    else:
        with open(dest, "w" if isinstance(payload, str) else "wb") as f:
            f.write(payload)
    return len(payload)


def _read(source: str | Path | BinaryIO | TextIO) -> bytes | str:
    """Whole content of a file object, or the bytes of a path, read with plain
    ``os`` calls, in one read unless it is short."""
    if hasattr(source, "read"):
        return source.read()
    fd = os.open(source, os.O_RDONLY)
    try:
        data = os.read(fd, size := os.fstat(fd).st_size)
        while len(data) < size and (more := os.read(fd, size - len(data))):
            data += more
    finally:
        os.close(fd)
    return data


def om8_bytes(seq: OctupleSeq) -> bytes:
    """Serialize a sequence to OM8 bytes; raises read_om8's ValueError for a bad value."""
    validate_values(seq.array)
    return om8_streams(seq.array, [0, len(seq)])[0]


def om8_streams(array: np.ndarray, bounds: list[int]) -> list[bytes]:
    """OM8 bytes of each row range ``bounds[i]:bounds[i + 1]``, cast in one pass."""
    ids = (array + NUM_SPECIALS).astype("<u2")
    return [OM8_HEADER.pack(OM8_MAGIC, b - a) + ids[a:b].tobytes()
            for a, b in zip(bounds, bounds[1:])]


def write_om8(seq: OctupleSeq, dest: str | Path | BinaryIO) -> int:
    """Write OM8 to a path or binary file object; returns bytes written."""
    return _write(dest, om8_bytes(seq))


def read_om8(source: str | Path | BinaryIO) -> OctupleSeq:
    table, _ = read_om8_table([source])
    return OctupleSeq.from_array(np.subtract(table, NUM_SPECIALS, dtype=np.int64), copy=False)


# Rows checked per validate_values call by read_om8_table.
VALIDATE_ROWS = 1 << 16


def read_om8_table(sources: Iterable[str | Path | BinaryIO]) -> tuple[np.ndarray, np.ndarray]:
    """The identifier rows of OM8 streams stacked into one (N, 8) ``<u2``
    table, and row offsets: stream i is ``table[bounds[i]:bounds[i + 1]]``.

    Raises the error of the first stream, in order, that fails to read, has
    a bad header or a value :func:`validate_values` rejects; no stream after
    one that fails to read or has a bad header is read.
    """
    bodies, error = [], None
    for source in sources:
        try:
            data = _read(source)
            if data[:4] != OM8_MAGIC:
                raise ValueError("not an OM8 stream (bad magic)")
            if len(data) < OM8_HEADER.size:
                raise ValueError("truncated OM8 header")
            _, count = OM8_HEADER.unpack_from(data)
            if len(data) != OM8_HEADER.size + count * 16:
                raise ValueError(f"OM8 header declares {count} records, "
                                 f"body has {len(data) - OM8_HEADER.size} bytes")
        except (OSError, ValueError) as exc:
            error = exc
            break
        bodies.append(np.frombuffer(data, dtype="<u2", offset=OM8_HEADER.size).reshape(count, 8))
    bounds = np.cumsum([0, *map(len, bodies)])
    table = np.concatenate([np.empty((0, 8), "<u2"), *bodies])
    for start in range(0, len(table), VALIDATE_ROWS):
        try:
            validate_values(np.subtract(table[start : start + VALIDATE_ROWS], NUM_SPECIALS, dtype=np.int32))
        except ValueError:
            # Every check is per row, so the first stream that fails on its
            # own overlaps this chunk; it raises its own message.
            first = int(np.searchsorted(bounds[1:], start, side="right"))  # the first to end past start
            for lo, hi in zip(bounds[first:], bounds[first + 1 :]):
                validate_values(np.subtract(table[lo:hi], NUM_SPECIALS, dtype=np.int32))
            raise
    if error is not None:
        raise error
    return table, bounds


def write_octuple_text(seq: OctupleSeq, dest: str | Path | TextIO) -> None:
    _write(dest, "".join(" ".join(str(v) for v in row) + "\n" for row in seq.array))


def read_octuple_text(source: str | Path | BinaryIO | TextIO) -> OctupleSeq:
    text = _read(source)
    if isinstance(text, bytes):
        text = text.decode()
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 8:
            raise ValueError(f"line {lineno}: expected 8 values, got {len(parts)}")
        rows.append([min(max(int(p), -1), 1 << 16) for p in parts])  # clamped into int64, still out of range
    arr = np.array(rows, dtype=np.int64).reshape(len(rows), 8)
    validate_values(arr)
    return OctupleSeq.from_array(arr, copy=False)


def omb1_buffer(count: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """A whole OMB1 stream in one uint8 buffer with its header written, and
    its body as an (E, 2, L, 8) view to fill in place: pad inputs, no targets."""
    stream = np.empty(12 + count * 2 * length * 8 * 2, dtype=np.uint8)
    stream[:12] = np.frombuffer(OMB1_MAGIC + struct.pack("<II", count, length), np.uint8)
    body = stream[12:].view("<u2").reshape(count, 2, length, 8)
    body[:, 0] = PAD_ID
    body[:, 1] = NO_TARGET
    return stream, body


def omb1_bytes(inputs: np.ndarray, targets: np.ndarray) -> bytes:
    """Serialize padded batch grids of shape (E, L, 8) to OMB1 bytes."""
    if inputs.shape != targets.shape or inputs.ndim != 3 or inputs.shape[2] != 8:
        raise ValueError(f"batch grids must share shape (E, L, 8), got {inputs.shape}")
    stream, body = omb1_buffer(inputs.shape[0], inputs.shape[1])
    body[:, 0] = inputs
    body[:, 1] = targets
    return stream.tobytes()


def read_omb1(source: str | Path | BinaryIO) -> tuple[np.ndarray, np.ndarray]:
    """Read an OMB1 batch back as (inputs, targets) arrays of shape (E, L, 8)."""
    data = _read(source)
    if data[:4] != OMB1_MAGIC:
        raise ValueError("not an OMB1 stream (bad magic)")
    if len(data) < 12:
        raise ValueError("truncated OMB1 header")
    count, length = struct.unpack("<II", data[4:12])
    if len(data) != 12 + count * 2 * length * 8 * 2:
        raise ValueError(
            f"OMB1 header declares {count} examples of {length} rows, "
            f"body has {len(data) - 12} bytes"
        )
    ids = np.frombuffer(data, dtype="<u2", offset=12).reshape(count, 2, length, 8)
    return ids[:, 0], ids[:, 1]
