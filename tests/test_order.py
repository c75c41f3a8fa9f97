"""The two row primitives of ``midi_io``: ``order_by`` against ``np.lexsort``,
alone and at its call sites, and ``last_at_or_before`` against a scalar loop.

The ``order_by`` call-site cases have keys wider than one 64-bit word
together, so the helper takes its several-word path there; each compares
with the lexsort expression the call site used before the helper.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smf_reference import reference_write_smf
from octomidi import midi_io
from octomidi.encoding import _PACK, BAR_MAX, COL_BAR, SongBatch
from octomidi.midi_io import MidiSong, last_at_or_before, order_by, parse_smf_table, write_smf

INT64 = (-(2**63), 2**63 - 1)
# Tiny ranges give many ties, so a wrong tie order shows.
_RANGES = [(0, 0), (0, 1), (-2, 2), (2**40, 2**40 + 3), (-(2**31), 2**31), INT64]


def _widths(keys):
    return [(int(k.max()) - int(k.min())).bit_length() for k in keys]


@st.composite
def _keys(draw):
    n = draw(st.integers(0, 200))
    keys = []
    for _ in range(draw(st.integers(0, 7))):
        low, high = draw(st.sampled_from(_RANGES))
        keys.append(np.array(draw(st.lists(st.integers(low, high), min_size=n, max_size=n)), np.int64))
    return keys


def _int64(*values):
    return np.array(values, np.int64)


@settings(max_examples=150, deadline=None)
@given(_keys())
# One word: three small keys.
@example([_int64(3, 1, 3, 1, 2), _int64(0, 0, 1, 0, 0), _int64(-5, 7, -5, 7, 7)])
# Several words: 40 + 40 bits, with ties in the first.
@example([_int64(2**40, 0, 2**40, 0), _int64(2**40 - 1, 5, 5, 2**40 - 1), _int64(1, 0, 0, 1)])
# One key whose span needs all 64 bits.
@example([_int64(INT64[1], INT64[0], 0, -1, INT64[0], INT64[1])])
# A 64-bit key, then a 1-bit key that must not share its word.
@example([_int64(0, INT64[0], INT64[1]), _int64(0, 1, 0)])
# A constant key between two that would share a word.
@example([_int64(1, 0, 1), _int64(INT64[0], INT64[0], INT64[0]), _int64(2, 2, 1)])
# No rows.
@example([_int64(), _int64()])
def test_order_by_equals_lexsort(keys):
    if not keys:
        with pytest.raises(TypeError):
            np.lexsort(())
        with pytest.raises(TypeError):
            order_by()
        return
    want = np.lexsort(keys[::-1])
    got = order_by(*keys)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_note_order_with_onsets_and_durations_past_a_word():
    rng = np.random.default_rng(7)
    n = 3000
    table = np.column_stack((
        2**40 + rng.integers(0, 2**41, n) * rng.integers(0, 2, n),  # onset, half of them tied
        2**30 + rng.integers(0, 4, n) * 2**29,  # duration
        rng.integers(60, 63, n),  # pitch
        rng.integers(1, 4, n),  # velocity
        rng.integers(0, 3, n),  # program
        rng.integers(0, 2, n),  # is_drum: the last key
        rng.integers(0, 3, n),  # track
    ))
    assert sum(_widths(table[:, [0, 6, 2, 1, 3, 4, 5]].T)) > 64
    want = table[np.lexsort(table[:, [5, 4, 3, 1, 2, 6, 0]].T)]
    assert np.array_equal(MidiSong(480, table).notes, want)


def test_write_smf_event_key_past_a_word(monkeypatch):
    # 2**17 notes one after another, each note and each gap one largest delta:
    # ticks need 47 bits and the note-on/off sequence numbers 19 more.
    step = 0x0FFFFFFF
    n = 2**17
    notes = np.zeros((n, 7), np.int64)
    notes[:, 0] = 2 * step * np.arange(n)
    notes[:, 1:4] = (step, 60, 100)
    song = MidiSong(480, notes, [(0, 120.0), (step, 90.0)], [(step, 3, 4)])
    calls = []

    def spy(*keys):
        got = order_by(*keys)
        calls.append((keys, got))
        return got

    monkeypatch.setattr(midi_io, "order_by", spy)
    data = write_smf(song)
    (tracks, ticks, seqs), got = calls[-1]
    assert sum(_widths((tracks, ticks, seqs))) > 64
    assert np.array_equal(got, np.lexsort((seqs, ticks, tracks)))
    assert data == reference_write_smf(song)


def test_batch_encode_order_with_bars_past_a_word():
    rng = np.random.default_rng(11)
    files = []
    for s in range(32):
        n = 40 + s
        bar = rng.integers(0, 2**14 + 600, n) if s % 2 else rng.integers(0, 300, n)
        notes = np.column_stack((
            bar * 1920 + rng.integers(0, 1920, n),  # 4/4 at 480 ticks per quarter
            rng.integers(0, 2000, n),
            rng.integers(30, 90, n),
            rng.integers(1, 128, n),
            rng.integers(0, 128, n),
            rng.integers(0, 2, n) * (s % 3 == 0),
            np.zeros(n, np.int64),
        ))
        files.append(write_smf(MidiSong(480, notes, [(0, 120.0), (96_000, 80.0)])))
    rows, song = SongBatch(parse_smf_table(files)).encode()
    assert rows[:, COL_BAR].max() > 2**14 > BAR_MAX
    assert sum(_widths((song, rows[:, COL_BAR], rows @ _PACK))) > 64
    # Equal (song, bar, packed key) means an equal row, so any input order
    # must sort into the encoder's output.
    shuffle = rng.permutation(len(rows))
    rows_in, song_in = rows[shuffle], song[shuffle]
    want = np.lexsort((rows_in @ _PACK, rows_in[:, COL_BAR], song_in))
    assert np.array_equal(rows_in[want], rows)
    assert np.array_equal(song_in[want], song)


def _last_at_or_before_loop(group, x, table_group, table_x):
    """For each query, the last table row of its group with x at most its x, by a scalar scan."""
    found = []
    for g, v in zip(group.tolist(), x.tolist()):
        last = -1
        for i, (h, w) in enumerate(zip(table_group.tolist(), table_x.tolist())):
            if h == g and w <= v:
                last = i
        found.append(last)
    return found


# Tiny ranges repeat (group, x) keys, so the last of equal rows must be found.
_X_RANGES = [(0, 2), (-3, 3), (-(2**40), 2**40)]


@st.composite
def _searches(draw):
    low, high = draw(st.sampled_from(_X_RANGES))
    pairs = st.lists(st.tuples(st.integers(0, 5), st.integers(low, high)), max_size=60)
    table = np.array(draw(pairs), np.int64).reshape(-1, 2)
    queries = np.array(draw(pairs), np.int64).reshape(-1, 2)
    return queries[:, 0], queries[:, 1], *table[order_by(table[:, 0], table[:, 1])].T


@settings(max_examples=300, deadline=None)
@given(_searches())
# Equal (group, x) rows: the last wins.
@example((_int64(1, 1, 0), _int64(5, 4, 9), _int64(0, 1, 1, 1), _int64(9, 5, 5, 5)))
# Before a group's first row, in a group with no rows, and past every row.
@example((_int64(2, 3, 0, 4), _int64(-1, 7, 0, 99), _int64(0, 2, 2, 4), _int64(0, 0, 3, 5)))
# No table rows; no queries.
@example((_int64(0, 5), _int64(1, -(2**40)), _int64(), _int64()))
@example((_int64(), _int64(), _int64(0, 1), _int64(3, 4)))
def test_last_at_or_before_equals_loop(search):
    group, x, table_group, table_x = search
    got = last_at_or_before(group, x, table_group, table_x)
    assert got.dtype == np.int64
    assert got.tolist() == _last_at_or_before_loop(group, x, table_group, table_x)


def test_last_at_or_before_raises_when_keys_overflow():
    # One group spanning 2**63 - 1 fits one key; two spanning 2**62 + 1 do not.
    x = _int64(-(2**62), 2**62 - 2)
    assert last_at_or_before(_int64(0, 0), x, _int64(0), x[1:]).tolist() == [-1, 0]
    with pytest.raises(ValueError, match="tick range too wide"):
        last_at_or_before(_int64(1), _int64(2**62), _int64(0), _int64(0))
