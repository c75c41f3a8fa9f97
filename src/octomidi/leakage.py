"""Copy-from-context leakage probe for masking strategies.

Random slot masking leaves same-bar neighbors visible, and many elements
(time signature, tempo, bar, often instrument) repeat across a bar, so a
trivial attacker that copies the nearest visible value of the same element
type recovers masked slots far too often. This module measures that
attacker's accuracy per element type and strategy, which is how the
bar-level strategy's leakage reduction is made visible at desk scale.

The attacker predicts a masked slot by scanning note rows alternately
backward then forward from the slot's row and copying the first unmasked
slot of the same element type; it abstains when none exists. Class/end/pad
rows are structural and are neither predicted nor copied from.

``measure_leakage`` masks a corpus chunk by chunk, as ``mask`` does, and
scores each chunk in one pass over its masked note slots. The masked rows of
one column form runs, and every slot of a run has the same two candidates:
the rows just above and just below the run. The scan copies the nearer one
that is a note row. The tests keep the per-example probe and the per-slot
scan as references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import formats, masking
from .corpus import list_token_files
from .masking import MaskingStrategy
from .vocab import ELEMENT_NAMES


@dataclass
class LeakageCell:
    attempts: int = 0
    correct: int = 0
    abstentions: int = 0

    @property
    def accuracy(self) -> float | None:
        if self.attempts == 0:
            return None
        return self.correct / self.attempts


@dataclass
class LeakageReport:
    """Per (element type, strategy) tallies of the copy attacker."""

    cells: dict[tuple[str, str], LeakageCell] = field(default_factory=dict)

    def cell(self, element: str, strategy: str) -> LeakageCell:
        return self.cells.setdefault((element, strategy), LeakageCell())

    def accuracy(self, element: str, strategy: str) -> float | None:
        got = self.cells.get((element, strategy))
        return None if got is None else got.accuracy

    def to_text(self) -> str:
        lines = ["element strategy attempts correct accuracy abstentions"]
        for (element, strategy), cell in sorted(self.cells.items()):
            acc = "-" if cell.accuracy is None else f"{cell.accuracy:.4f}"
            lines.append(
                f"{element} {strategy} {cell.attempts} {cell.correct} "
                f"{acc} {cell.abstentions}"
            )
        strategies = sorted({s for _, s in self.cells})
        if "bar" in strategies and "random" in strategies:
            for element in ELEMENT_NAMES:
                bar_acc = self.accuracy(element, "bar")
                rnd_acc = self.accuracy(element, "random")
                if bar_acc is None or rnd_acc is None:
                    continue
                verdict = "yes" if bar_acc <= rnd_acc else "no"
                lines.append(f"bar_leq_random {element} {verdict}")
        return "\n".join(lines) + "\n"


# Padded rows masked in one step (or one whole song): a long song is not padded CHUNK times.
PADDED_ROWS = 1 << 16


def measure_leakage(corpus_dir: str | Path, strategies: Sequence[MaskingStrategy],
                    seed: int, trials: int = 1) -> LeakageReport:
    """Run the copy attacker over a token corpus, under each strategy.

    Reads songs ``masking.CHUNK`` at a time, each once, and masks each whole ``trials`` times
    per strategy, with the streams ``derive_rng(seed, song ordinal, trial)`` gives, which every
    strategy shares. Generators are made per trial, so memory does not grow with ``trials``.
    Counters are reproducible bit for bit for a fixed (corpus, strategies, seed, trials).
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    masking._entropy_words(seed)  # a negative seed fails before any read
    files = list_token_files(corpus_dir)
    tallies = {strategy.kind.value: np.zeros((3, 8), dtype=np.int64) for strategy in strategies}
    for first in range(0, len(files), masking.CHUNK):
        table, bounds = formats.read_om8_table(files[first : first + masking.CHUNK])
        step = max(1, PADDED_ROWS // (int(np.diff(bounds).max()) + 2))
        parts = [(lo, bounds[lo : lo + step], np.diff(bounds[lo : lo + step + 1]))
                 for lo in range(0, len(bounds) - 1, step)]
        for trial in range(trials):
            words = masking._seed_words(seed, first, len(bounds) - 1, trial)
            for lo, starts, counts in parts:
                length = int(counts.max()) + 2  # every song fits whole: no window is drawn
                for strategy in strategies:
                    rngs = masking._generators(words[lo : lo + step])
                    _, body = formats.omb1_buffer(len(counts), length)
                    masking._mask_chunk(table, starts, counts, counts, rngs, strategy, length, body)
                    tallies[strategy.kind.value] += _score_chunk(body, counts)
    return LeakageReport({(element, name): LeakageCell(*map(int, tally[:, col]))  # zero rows too
                          for name, tally in tallies.items()
                          for col, element in enumerate(ELEMENT_NAMES)})


def _score_chunk(body: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The attacker's (3, 8) attempts, correct and abstentions per column
    over the masked note slots of an (E, 2, L, 8) OMB1 body whose example i
    has ``counts[i]`` note rows."""
    count, _, length, _ = body.shape
    masked = body[:, 1] != formats.NO_TARGET
    masked[:, 0] = False  # class rows
    masked[np.arange(count), counts + 1] = False  # end rows
    # Keys in (example, column, row) order: a run of masked rows of one
    # column is a run of consecutive keys.
    keys = np.flatnonzero(masked.transpose(0, 2, 1))
    first, last = np.diff(keys, prepend=-2) != 1, np.diff(keys, append=-2) != 1
    run = np.cumsum(first) - 1  # the run of each key
    above = keys[first][run] - 1  # the row before its run, and the row after it
    below = keys[last][run] + 1
    example, col = np.divmod(keys // length, 8)
    has_above = above % length > 0
    has_below = below % length <= counts[example]
    use_above = has_above & ((keys - above <= below - keys) | ~has_below)
    found = has_above | has_below
    at = ((example * 2 * length + keys % length) * 8 + col)[found]  # input slot in the body
    step = np.where(use_above, above, below)[found] - keys[found]  # rows to the copied one
    flat = body.reshape(-1)
    hits = flat[at + 8 * step] == flat[at + 8 * length]  # copied input == own target
    return np.stack([np.bincount(col[found], minlength=8),
                     np.bincount(col[found][hits], minlength=8),
                     np.bincount(col[~found], minlength=8)])
