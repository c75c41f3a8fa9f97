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

import struct
from pathlib import Path
from typing import BinaryIO, TextIO

import numpy as np

from .encoding import OctupleSeq, validate_values
from .vocab import NUM_SPECIALS, PAD_ID

OM8_MAGIC = b"OM8\x01"
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


def _read(source: str | Path | BinaryIO | TextIO, mode: str = "rb") -> bytes | str:
    """Whole content of a file object, or of a path opened with ``mode``."""
    if hasattr(source, "read"):
        return source.read()
    with open(source, mode) as f:
        return f.read()


def om8_bytes(seq: OctupleSeq) -> bytes:
    """Serialize a sequence to OM8 bytes."""
    return om8_streams(seq.array, [0, len(seq)])[0]


def om8_streams(array: np.ndarray, bounds: list[int]) -> list[bytes]:
    """OM8 bytes of each row range ``bounds[i]:bounds[i + 1]``, cast in one pass."""
    ids = (array + NUM_SPECIALS).astype("<u2")
    return [OM8_MAGIC + struct.pack("<I", b - a) + ids[a:b].tobytes()
            for a, b in zip(bounds, bounds[1:])]


def write_om8(seq: OctupleSeq, dest: str | Path | BinaryIO) -> int:
    """Write OM8 to a path or binary file object; returns bytes written."""
    return _write(dest, om8_bytes(seq))


def om8_from_bytes(data: bytes) -> OctupleSeq:
    if data[:4] != OM8_MAGIC:
        raise ValueError("not an OM8 stream (bad magic)")
    if len(data) < 8:
        raise ValueError("truncated OM8 header")
    (count,) = struct.unpack("<I", data[4:8])
    if len(data) != 8 + count * 16:
        raise ValueError(f"OM8 header declares {count} records, body has {len(data) - 8} bytes")
    ids = np.frombuffer(data, dtype="<u2", offset=8).reshape(count, 8)
    values = np.subtract(ids, NUM_SPECIALS, dtype=np.int64)
    validate_values(values)
    return OctupleSeq.from_array(values, copy=False)


def read_om8(source: str | Path | BinaryIO) -> OctupleSeq:
    return om8_from_bytes(_read(source))


def write_octuple_text(seq: OctupleSeq, dest: str | Path | TextIO) -> None:
    _write(dest, "".join(" ".join(str(v) for v in row) + "\n" for row in seq.array))


def read_octuple_text(source: str | Path | TextIO) -> OctupleSeq:
    text = _read(source, "r")
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 8:
            raise ValueError(f"line {lineno}: expected 8 values, got {len(parts)}")
        rows.append([int(p) for p in parts])
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


def write_omb1_buffer(stream: np.ndarray, dest: str | Path | BinaryIO) -> int:
    """Write a stream from :func:`omb1_buffer` in one write; returns its length."""
    return _write(dest, stream)


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
