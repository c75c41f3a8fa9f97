"""Per-element vocabularies for the 8-element note encoding.

Every note element has its own small integer vocabulary. Identifier space per
element: 4 reserved special identifiers followed by the element's value range,
so element value ``v`` is stored as identifier ``v + 4``.
"""

from __future__ import annotations

# Column order of the 8 elements, used everywhere a note is laid out as a row.
ELEMENT_NAMES = (
    "time_signature",
    "tempo",
    "bar",
    "position",
    "instrument",
    "pitch",
    "duration",
    "velocity",
)

# Raw value range per element (time signature table, tempo bins, bars,
# 1/64-note positions, instruments incl. percussion, pitches incl. percussion
# types, duration bins, velocity bins).
ELEMENT_RANGES = (254, 49, 256, 128, 129, 256, 128, 32)

PAD_ID = 0
MASK_ID = 1
CLS_ID = 2
EOS_ID = 3
NUM_SPECIALS = 4
