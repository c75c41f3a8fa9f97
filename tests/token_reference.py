"""Token-emitting event-style and compound-style encoders.

The scalar references that ``reference.reference_counts`` is tested against:
``len(encode_remi_like(song))`` and ``len(encode_cp_like(song))`` must equal
its two counts. Only the token counts are meaningful.
"""

from __future__ import annotations

from octomidi.encoding import BarMap, encode_octuple
from octomidi.midi_io import MidiSong
from octomidi.reference import _metadata_changes


def encode_remi_like(song: MidiSong) -> list[str]:
    """Event-style token stream; len() of the result is the sequence length."""
    octs = encode_octuple(song)
    bar_map = BarMap(song)
    sig_changes, tempo_changes = _metadata_changes(song, bar_map)

    # kind ranks order items at equal (bar, position): signature, tempo, notes
    items: list[tuple[int, int, int, list[str]]] = []
    for bar, pos, n, d in sig_changes:
        items.append((bar, pos, 0, [f"<time-sig:{n}/{d}>"]))
    for bar, pos, idx in tempo_changes:
        items.append((bar, pos, 1, [f"<tempo:{idx}>"]))
    for o in octs:
        items.append(
            (
                o.bar,
                o.position,
                2,
                [
                    f"<pos:{o.position}>",
                    f"<inst:{o.instrument}>",
                    f"<pitch:{o.pitch}>",
                    f"<dur:{o.duration_idx}>",
                    f"<vel:{o.velocity_idx}>",
                ],
            )
        )
    if not items:
        return []
    last_bar = max(bar for bar, _, _, _ in items)
    items.sort(key=lambda it: (it[0], it[1], it[2]))

    tokens: list[str] = []
    i = 0
    for bar in range(last_bar + 1):
        tokens.append("<bar>")
        while i < len(items) and items[i][0] == bar:
            tokens.extend(items[i][3])
            i += 1
    return tokens


def encode_cp_like(song: MidiSong) -> list[str]:
    """Compound-style token stream; len() of the result is the sequence length."""
    octs = encode_octuple(song)
    bar_map = BarMap(song)
    sig_changes, tempo_changes = _metadata_changes(song, bar_map)

    has_content = len(octs) > 0 or sig_changes or tempo_changes
    if not has_content:
        return []

    # The metric stream always declares the opening state at (bar 0, pos 0);
    # note onsets and metadata changes open the remaining groups.
    groups = {(0, 0)}
    groups.update((o.bar, o.position) for o in octs)
    groups.update((bar, pos) for bar, pos, _, _ in sig_changes)
    groups.update((bar, pos) for bar, pos, _ in tempo_changes)

    notes_by_group: dict[tuple[int, int], list[str]] = {}
    for o in octs:
        notes_by_group.setdefault((o.bar, o.position), []).append(
            f"<note:{o.instrument},{o.pitch},{o.duration_idx},{o.velocity_idx}>"
        )

    last_bar = max(
        max((o.bar for o in octs), default=0),
        max((bar for bar, _, _, _ in sig_changes), default=0),
        max((bar for bar, _, _ in tempo_changes), default=0),
    )
    tokens: list[str] = []
    ordered = sorted(groups)
    i = 0
    for bar in range(last_bar + 1):
        tokens.append("<bar>")
        while i < len(ordered) and ordered[i][0] == bar:
            _, pos = ordered[i]
            tokens.append(f"<metric:{pos}>")
            tokens.extend(notes_by_group.get(ordered[i], ()))
            i += 1
    return tokens
