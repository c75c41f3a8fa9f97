"""The per-example probe that ``leakage.measure_leakage`` is tested against.

Each song is read on its own, masked whole by ``make_masked_example`` with
the generator ``derive_rng(seed, ordinal, trial)``, and probed one element
column at a time with a forward fill of the last visible row and a back fill
of the next one. ``measure_leakage`` must give the same report from the
same generators.
"""

from __future__ import annotations

import numpy as np

from octomidi.corpus import list_token_files
from octomidi.formats import read_om8
from octomidi.leakage import LeakageReport
from octomidi.masking import MaskedExample, derive_rng, make_masked_example
from octomidi.vocab import ELEMENT_NAMES, PAD_ID


def content_rows(example: MaskedExample) -> np.ndarray:
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

    ``back`` is the last visible content row at or above each row and
    ``fwd`` the first one at or below it; the nearer one is copied, ``back``
    on ties.
    """
    content = content_rows(example)
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


def reference_measure_leakage(corpus_dir, strategies, seed, trials=1) -> LeakageReport:
    """``measure_leakage``, one song, strategy and trial at a time."""
    report = LeakageReport()
    for strategy in strategies:
        for element in ELEMENT_NAMES:
            report.cell(element, strategy.kind.value)
    for ordinal, path in enumerate(list_token_files(corpus_dir)):
        seq = read_om8(path)
        for strategy in strategies:
            for trial in range(trials):
                example = make_masked_example(seq, strategy, derive_rng(seed, ordinal, trial))
                probe_example(example, strategy.kind.value, report)
    return report
