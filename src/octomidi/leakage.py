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

``probe_example`` computes the scan's predictions for all slots of one
element column in a single pass: a forward fill of the last visible row and
a back fill of the next one, so a probe costs O(L * 8) per example instead
of a scan per masked slot. The tests keep the per-slot scan as its
reference.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import list_token_files
from .encoding import OctupleSeq
from .formats import read_om8
from .masking import MaskedExample, MaskingStrategy, derive_rng, make_masked_example
from .vocab import ELEMENT_NAMES, PAD_ID

log = logging.getLogger(__name__)


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


def _content_rows(example: MaskedExample) -> np.ndarray:
    """Rows holding notes: everything but the class, end, and pad rows.

    No note, mask or random identifier is PAD_ID, so the end row is the last
    row that is not all pad, also when a batch padded the example.
    """
    filled = np.flatnonzero(np.any(example.input_ids != PAD_ID, axis=1))
    rows = np.zeros(example.length, dtype=bool)
    rows[filled[1:-1]] = True  # filled[0] is the class row, filled[-1] the end row
    return rows


def probe_example(example: MaskedExample, strategy_name: str, report: LeakageReport) -> None:
    """Tally the copy attacker over every masked note slot of one example.

    Gives each masked slot the prediction of the scan the module describes,
    one element column at a time: ``back`` is the last visible content row
    at or above each row and ``fwd`` the first one at or below it; the
    nearer one is copied, ``back`` on ties.
    """
    content = _content_rows(example)
    length = example.length
    rows = np.arange(length)
    for col, element in enumerate(ELEMENT_NAMES):
        masked = content & example.mask[:, col]
        if not masked.any():
            continue
        visible = content & ~example.mask[:, col]
        # Sentinels -L and 2L: a missing neighbor is farther than any real one.
        back = np.maximum.accumulate(np.where(visible, rows, -length))[masked]
        fwd = np.minimum.accumulate(np.where(visible, rows, 2 * length)[::-1])[::-1][masked]
        at = rows[masked]
        src = np.where(at - back <= fwd - at, back, fwd)
        found = (src >= 0) & (src < length)
        hits = example.input_ids[src[found], col] == example.targets[at[found], col]
        attempts = int(found.sum())
        cell = report.cell(element, strategy_name)
        cell.attempts += attempts
        cell.correct += int(hits.sum())
        cell.abstentions += found.size - attempts


def measure_leakage(
    corpus_dir: str | Path,
    strategies: Sequence[MaskingStrategy],
    seed: int,
    trials: int = 1,
) -> LeakageReport:
    """Run the copy attacker over a token corpus, under each strategy.

    Reads each song once and masks it ``trials`` times per strategy, with
    independent streams derived from (seed, song ordinal, trial); every
    strategy sees the same streams. Counters are reproducible bit for bit
    for a fixed (corpus, strategies, seed, trials).
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    files = list_token_files(corpus_dir)
    report = LeakageReport()
    for strategy in strategies:
        for element in ELEMENT_NAMES:
            report.cell(element, strategy.kind.value)  # a zero row renders even at p=0
    for ordinal, path in enumerate(files):
        seq: OctupleSeq = read_om8(path)
        for strategy in strategies:
            for trial in range(trials):
                rng = derive_rng(seed, ordinal, trial)
                example = make_masked_example(seq, strategy, rng)
                probe_example(example, strategy.kind.value, report)
    return report
