"""Error branches reached through the public API: each raises its own type and message."""

import io

import numpy as np
import pytest

from octomidi import grids
from octomidi.encoding import encode_octuple
from octomidi.errors import InvalidTimeSignatureError, UnrepresentableSignatureError
from octomidi.formats import om8_streams, omb1_bytes, read_om8, read_omb1
from octomidi.masking import MaskingStrategy, StrategyKind
from octomidi.midi_io import MidiSong, write_smf

# (signature, tempo, bar, position, instrument, pitch, duration, velocity):
# a drum note whose duration bin is not 0.
_DRUM_WITH_DURATION = np.array([[grids.timesig_index(4, 4), 0, 0, 0, 128, 128 + 36, 5, 10]])


def nested_notes(count: int) -> MidiSong:
    """``count`` notes of pitch 60, each starting and ending inside the one
    before it, so each takes a lane, and a track, of its own."""
    return MidiSong(480, [(i, 10**7 - 2 * i, 60, 100, 0, 0, 0) for i in range(count)])


CASES = {
    "drum duration": (lambda: read_om8(io.BytesIO(om8_streams(_DRUM_WITH_DURATION, [0, 1])[0])),
                      ValueError, "percussion notes must use duration bin 0"),
    "pitch past 127": (lambda: encode_octuple(MidiSong(480, [(0, 240, 200, 90, 0, 0, 0)])),
                       ValueError, "note pitch, velocity or program outside [0, 127]"),
    "short OM8 header": (lambda: read_om8(io.BytesIO(b"OM8\x01\x00")),
                         ValueError, "truncated OM8 header"),
    "short OMB1 header": (lambda: read_omb1(io.BytesIO(b"OMB1\x00")),
                          ValueError, "truncated OMB1 header"),
    "grid shapes differ": (lambda: omb1_bytes(np.zeros((1, 2, 8), np.int64), np.zeros((1, 3, 8), np.int64)),
                           ValueError, "batch grids must share shape (E, L, 8), got (1, 2, 8)"),
    "signature 3/3": (lambda: encode_octuple(MidiSong(480, [(0, 240, 60, 90, 0, 0, 0)], [], [(0, 3, 3)])),
                      UnrepresentableSignatureError, "signature 3/3 is not on a power-of-two grid"),
    "signature index 254": (lambda: grids.timesig_from_index(254),
                            InvalidTimeSignatureError, "time signature index 254 out of range"),
    "tempo 0": (lambda: grids.quantize_tempo(0), ValueError, "BPM must be positive, got 0"),
    "mask probability 1.5": (lambda: MaskingStrategy(StrategyKind.RANDOM, 1.5),
                             ValueError, "mask probability 1.5 outside [0, 1]"),
    "66001 tracks": (lambda: write_smf(nested_notes(66_000)), ValueError, "66001 tracks not writable"),
    "resolution 0": (lambda: encode_octuple(MidiSong(0, [(0, 480, 60, 100, 0, 0, 0)])),
                     ValueError, "ticks_per_quarter 0 not encodable"),
    "resolution -480": (lambda: encode_octuple(MidiSong(-480, [(0, 480, 60, 100, 0, 0, 0)])),
                        ValueError, "ticks_per_quarter -480 not encodable"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_error_branch_raises_its_type_and_message(case):
    call, kind, message = CASES[case]
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message


def test_the_most_tracks_a_header_holds_still_write():
    data = write_smf(nested_notes(65_534))
    assert data[10:12] == b"\xff\xff"  # the conductor and 65,534 lanes
