"""Event-style and compound-style token counts for length comparison.

The counts compare sequence lengths against the 8-element note encoding;
no tokens are built. The event-style ("remi-like") stream spends one token per bar line, one per metadata
change, and five per note (position, instrument, pitch, duration, velocity; position
tokens are not shared between simultaneous notes). The compound-style
("cp-like") stream spends one token per bar line, one metric token per onset
group, and one compound token per note.

Metadata changes are counted against the running state, which starts at the
MIDI defaults (4/4, 120 BPM), so injected default events do not emit tokens.
"""

from __future__ import annotations

import numpy as np

from . import grids
from .encoding import BAR_MAX, COL_BAR, COL_POSITION, SongBatch
from .midi_io import DEFAULT_TEMPO, DEFAULT_TIMESIG
from .vocab import ELEMENT_RANGES

_POSITIONS = ELEMENT_RANGES[COL_POSITION]  # positions per bar at most
_DEFAULTS = (grids.timesig_index(*DEFAULT_TIMESIG[1:]), grids.quantize_tempo(DEFAULT_TEMPO[1]))


def _changes(events: np.ndarray, default: int) -> np.ndarray:
    """(song, tick) of the events whose value differs from the one before in
    their song, or from ``default`` for a song's first event."""
    value = events[:, 2]
    before = np.where(np.diff(events[:, 0], prepend=-1) != 0, default, np.roll(value, 1))
    return events[value != before, :2]


def batch_counts(batch: SongBatch, rows: np.ndarray, song: np.ndarray):
    """(event-style, compound-style) count arrays, one entry per song of ``batch``.

    ``rows`` are the songs' canonical rows in song order and ``song`` their
    song index. Metadata changes past bar 255 are not counted. Pinned in the
    tests against token-emitting encoders whose list lengths are the counts.
    """
    count = len(batch.tpq)
    changes = np.concatenate((_changes(batch.signatures, _DEFAULTS[0]),
                              _changes(batch.tempos, _DEFAULTS[1])))
    change_bar, change_pos, _ = batch.locate(changes[:, 0], changes[:, 1])
    fits = change_bar <= BAR_MAX
    change_song, change_bar, change_pos = changes[fits, 0], change_bar[fits], change_pos[fits]

    notes = np.bincount(song, minlength=count)
    n_changes = np.bincount(change_song, minlength=count)
    last_bar = np.zeros(count, dtype=np.int64)
    np.maximum.at(last_bar, np.concatenate((song, change_song)),
                  np.concatenate((rows[:, COL_BAR], change_bar)))
    # One key per (song, bar, position); canonical order keeps each song's
    # onsets sorted, so each change of key starts a new group.
    stride = (int(last_bar.max(initial=0)) + 1) * _POSITIONS
    onsets = song * stride + rows[:, COL_BAR] * _POSITIONS + rows[:, COL_POSITION]
    groups = np.bincount(song[np.diff(onsets, prepend=onsets[:1] - 1) != 0], minlength=count)
    # The opening group at (0, 0) and the metadata changes add the groups
    # that no note onset opens.
    extra = np.sort(np.concatenate(
        (np.arange(count) * stride, change_song * stride + change_bar * _POSITIONS + change_pos)
    ))
    extra = extra[np.diff(extra, prepend=-1) != 0]  # not np.unique: its first call keeps 1 MB
    at = np.minimum(np.searchsorted(onsets, extra), len(onsets) - 1)
    opened = onsets[at] == extra if len(onsets) else np.zeros(len(extra), dtype=bool)
    groups += np.bincount(extra[~opened] // stride, minlength=count)

    bars = last_bar + 1
    empty = (notes == 0) & (n_changes == 0)
    return (np.where(empty, 0, 5 * notes + n_changes + bars),
            np.where(empty, 0, notes + groups + bars))
