"""Vocabulary layout: sizes and specials."""

from octomidi.vocab import (
    CLS_ID,
    ELEMENT_NAMES,
    ELEMENT_RANGES,
    EOS_ID,
    MASK_ID,
    NUM_SPECIALS,
    PAD_ID,
)


def test_element_order_and_ranges():
    assert ELEMENT_NAMES == (
        "time_signature",
        "tempo",
        "bar",
        "position",
        "instrument",
        "pitch",
        "duration",
        "velocity",
    )
    assert ELEMENT_RANGES == (254, 49, 256, 128, 129, 256, 128, 32)


def test_total_sizes_include_four_specials():
    sizes = tuple(r + NUM_SPECIALS for r in ELEMENT_RANGES)
    assert sizes == (258, 53, 260, 132, 133, 260, 132, 36)


def test_special_identifiers():
    assert (PAD_ID, MASK_ID, CLS_ID, EOS_ID) == (0, 1, 2, 3)
