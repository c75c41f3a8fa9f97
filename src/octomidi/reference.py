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
from .encoding import (
    BAR_MAX,
    COL_BAR,
    COL_POSITION,
    BarMap,
    OctupleSeq,
    _prepared_timesigs,
    _tempo_index_map,
    encode_octuple,
)
from .midi_io import DEFAULT_TEMPO, DEFAULT_TIMESIG, MidiSong
from .vocab import ELEMENT_RANGES

_POSITIONS = ELEMENT_RANGES[COL_POSITION]  # positions per bar at most


def _metadata_changes(song: MidiSong, bar_map: BarMap):
    """Signature and tempo events that change the running quantized state.

    Reads the same normalized event maps that the note encoder uses.
    """
    sig_changes = []
    current_sig = DEFAULT_TIMESIG[1:]
    for tick, n, d in _prepared_timesigs(song):
        if (n, d) != current_sig:
            bar, pos, _ = bar_map.locate_tick(tick)
            if bar <= BAR_MAX:
                sig_changes.append((bar, pos, n, d))
            current_sig = (n, d)

    tempo_changes = []
    current_tempo = grids.quantize_tempo(DEFAULT_TEMPO[1])
    tempo_ticks, tempo_indices = _tempo_index_map(song)
    for tick, idx in zip(tempo_ticks.tolist(), tempo_indices.tolist()):
        if idx != current_tempo:
            bar, pos, _ = bar_map.locate_tick(tick)
            if bar <= BAR_MAX:
                tempo_changes.append((bar, pos, idx))
            current_tempo = idx
    return sig_changes, tempo_changes


def reference_counts(song: MidiSong, seq: "OctupleSeq | None" = None) -> tuple[int, int]:
    """(event-style, compound-style) token counts without building tokens.

    Pass ``seq`` to reuse an already-encoded sequence. Pinned in the tests
    against token-emitting encoders whose list lengths are the counts.
    """
    octs = encode_octuple(song) if seq is None else seq
    bar_map = BarMap(song)
    sig_changes, tempo_changes = _metadata_changes(song, bar_map)
    n = len(octs)
    n_changes = len(sig_changes) + len(tempo_changes)
    if n == 0 and n_changes == 0:
        return 0, 0
    arr = octs.array
    last_bar = max(
        int(arr[:, COL_BAR].max()) if n else 0,
        max((bar for bar, _, _, _ in sig_changes), default=0),
        max((bar for bar, _, _ in tempo_changes), default=0),
    )
    bars = last_bar + 1
    # One int per (bar, position); canonical order keeps the note onsets
    # sorted, so each change of value starts a new group.
    onsets = arr[:, COL_BAR] * _POSITIONS + arr[:, COL_POSITION]
    groups = 1 + np.count_nonzero(np.diff(onsets)) if n else 0
    # The opening group at (0, 0) and the metadata changes add the groups
    # that no note onset opens.
    extra = {0}
    extra.update(bar * _POSITIONS + pos for bar, pos, *_ in sig_changes + tempo_changes)
    groups += len(extra) - int(np.isin(list(extra), onsets).sum())
    return 5 * n + n_changes + bars, n + groups + bars
