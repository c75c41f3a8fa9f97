"""Seeded byte mutations of SMF, OM8 and OMB1 streams.

Hostile bytes may parse or be rejected, but the readers must only ever raise
``OctomidiError`` or ``ValueError`` (never ``IndexError``, ``struct.error``,
``KeyError`` and the like).
"""

import io

import numpy as np

from helpers import gm_song_plan, mutate_bytes, random_valid_seq
from octomidi import OctomidiError, decode_octuple, parse_smf, write_smf
from octomidi.formats import om8_bytes, om8_from_bytes, omb1_bytes, read_omb1

MUTATIONS_PER_FORMAT = 3000


def _fuzz(reader, streams: list[bytes], seed: int) -> int:
    """Feed mutated streams to ``reader``; returns how many were rejected."""
    rng = np.random.default_rng(seed)
    rejected = 0
    for i in range(MUTATIONS_PER_FORMAT):
        data = mutate_bytes(streams[i % len(streams)], rng)
        try:
            reader(data)
        except (OctomidiError, ValueError):
            rejected += 1
    return rejected


def test_mutated_smf_raises_only_typed_errors():
    rng = np.random.default_rng(31)
    streams = [gm_song_plan(rng).to_bytes() for _ in range(4)]
    streams += [write_smf(decode_octuple(random_valid_seq(rng))) for _ in range(4)]
    assert _fuzz(parse_smf, streams, seed=32) > 0


def test_mutated_om8_raises_only_typed_errors():
    rng = np.random.default_rng(41)
    streams = [om8_bytes(random_valid_seq(rng)) for _ in range(8)]
    assert _fuzz(om8_from_bytes, streams, seed=42) > 0


def test_mutated_omb1_raises_only_typed_errors():
    rng = np.random.default_rng(51)
    streams = []
    for _ in range(4):
        shape = (int(rng.integers(1, 4)), int(rng.integers(2, 12)), 8)
        streams.append(omb1_bytes(rng.integers(0, 300, shape), rng.integers(0, 300, shape)))
    assert _fuzz(lambda data: read_omb1(io.BytesIO(data)), streams, seed=52) > 0
