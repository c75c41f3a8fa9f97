"""Copy-from-context probe behavior and the strategy comparison."""

import io
import shutil
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import constant_metadata_seq, random_valid_seq, write_constant_corpus
from leakage_reference import content_rows, probe_example, reference_measure_leakage
from masking_reference import reference_corrupt_slots
from octomidi import EmptyCorpusError
from octomidi.encoding import Octuple, OctupleSeq
from octomidi import formats, leakage, masking
from octomidi.formats import NO_TARGET, read_omb1, write_om8
from octomidi.grids import timesig_index
from octomidi.leakage import LeakageReport, measure_leakage
from octomidi.masking import (
    MaskedExample,
    MaskingStrategy,
    StrategyKind,
    derive_rng,
    emit_batch,
    make_masked_example,
)
from octomidi.vocab import ELEMENT_NAMES, PAD_ID

RANDOM = MaskingStrategy(StrategyKind.RANDOM)
BAR = MaskingStrategy(StrategyKind.BAR_LEVEL)
SINGLE_NOTE = OctupleSeq([Octuple(timesig_index(4, 4), 35, 0, 0, 0, 60, 16, 24)])


def copy_predict(example: MaskedExample, slot: tuple[int, int]) -> int | None:
    """Copy the nearest visible same-type element; None means abstain.

    Scans alternately backward then forward from the slot's row, so a
    backward neighbor wins ties at equal distance. This is the per-slot
    reference that ``probe_example`` is tested against.
    """
    row, col = slot
    if not example.mask[row, col]:
        raise ValueError(f"slot {slot} is not masked")
    content = content_rows(example)
    length = example.length
    for dist in range(1, length):
        for cand in (row - dist, row + dist):
            if 0 <= cand < length and content[cand] and not example.mask[cand, col]:
                return int(example.input_ids[cand, col])
    return None


def _example_with_slots(seq, strategy, seed, want_col=None):
    """Mask until at least one note slot (of want_col, if given) is selected."""
    for trial in range(500):
        example = make_masked_example(seq, strategy, derive_rng(seed, trial))
        rows, cols = np.nonzero(example.mask)
        for row, col in zip(rows.tolist(), cols.tolist()):
            if 1 <= row < example.length - 1 and (want_col is None or col == want_col):
                return example, (row, col)
    raise AssertionError("no usable masked slot found")


class TestCopyPredict:
    def test_constant_tempo_is_copied_correctly(self):
        seq = constant_metadata_seq(0)
        example, slot = _example_with_slots(seq, RANDOM, seed=1, want_col=1)
        assert copy_predict(example, slot) == int(example.targets[slot])

    def test_single_note_abstains(self):
        example, slot = _example_with_slots(SINGLE_NOTE, RANDOM, seed=2)
        assert copy_predict(example, slot) is None

    def test_unmasked_slot_is_an_error(self):
        seq = constant_metadata_seq(0)
        example, _ = _example_with_slots(seq, RANDOM, seed=3)
        rows, cols = np.nonzero(~example.mask)
        with pytest.raises(ValueError):
            copy_predict(example, (int(rows[0]), int(cols[0])))

    def test_backward_neighbor_wins_ties(self):
        # Three notes; mask only the middle pitch slot. Backward and forward
        # neighbors are equidistant; the backward value must be returned.
        sig = timesig_index(4, 4)
        seq = OctupleSeq(
            [
                Octuple(sig, 35, 0, 0, 0, 50, 16, 24),
                Octuple(sig, 35, 0, 8, 0, 60, 16, 24),
                Octuple(sig, 35, 0, 16, 0, 70, 16, 24),
            ]
        )
        slots = np.zeros((5, 8), dtype=bool)
        slots[2, 5] = True  # middle note's pitch
        example = reference_corrupt_slots(seq, slots, derive_rng(4, 0))
        assert copy_predict(example, (2, 5)) == 50 + 4

    def test_bar_level_bar_slot_copies_wrong_bar(self):
        seq = constant_metadata_seq(0)
        example, slot = _example_with_slots(seq, BAR, seed=5, want_col=2)
        predicted = copy_predict(example, slot)
        assert predicted is not None
        assert predicted != int(example.targets[slot])


class TestMeasureLeakage:
    def test_empty_corpus_raises(self, tmp_path):
        with pytest.raises(EmptyCorpusError):
            measure_leakage(tmp_path, [RANDOM], seed=0)

    def test_random_strategy_recovers_constant_metadata(self, constant_corpus):
        report = measure_leakage(constant_corpus, [RANDOM], seed=3, trials=3)
        for element in ("tempo", "time_signature", "instrument", "velocity", "duration"):
            cell = report.cell(element, "random")
            assert cell.attempts > 0
            assert cell.accuracy == 1.0

    def test_bar_level_kills_bar_recovery(self, constant_corpus):
        report = measure_leakage(constant_corpus, [BAR], seed=3, trials=3)
        cell = report.cell("bar", "bar")
        assert cell.attempts > 0
        assert cell.accuracy == 0.0

    def test_bar_level_never_beats_random(self, constant_corpus):
        random_report = measure_leakage(constant_corpus, [RANDOM], seed=3, trials=3)
        bar_report = measure_leakage(constant_corpus, [BAR], seed=3, trials=3)
        compared = 0
        for element in ELEMENT_NAMES:
            rnd = random_report.accuracy(element, "random")
            bar = bar_report.accuracy(element, "bar")
            if rnd is None or bar is None:
                continue
            compared += 1
            assert bar <= rnd, element
        assert compared == 8

    @pytest.mark.parametrize("trials", [0, -2])
    def test_trials_below_one_is_an_error(self, constant_corpus, trials):
        with pytest.raises(ValueError, match="trials"):
            measure_leakage(constant_corpus, [RANDOM], seed=1, trials=trials)

    def test_zero_probability_reports_nothing(self, constant_corpus):
        zero = MaskingStrategy(StrategyKind.RANDOM, mask_probability=0.0)
        report = measure_leakage(constant_corpus, [zero], seed=1)
        assert all(cell.attempts == 0 for cell in report.cells.values())

    def test_reports_are_reproducible(self, constant_corpus):
        a = measure_leakage(constant_corpus, [BAR], seed=7, trials=2)
        b = measure_leakage(constant_corpus, [BAR], seed=7, trials=2)
        assert a == b

    def test_each_song_is_read_once_for_all_strategies(self, constant_corpus, monkeypatch):
        reads = []
        read = formats._read

        def counting_read(source):
            reads.append(source)
            return read(source)

        monkeypatch.setattr(formats, "_read", counting_read)
        strategies = [MaskingStrategy(kind) for kind in StrategyKind]
        report = measure_leakage(constant_corpus, strategies, seed=3, trials=2)
        assert len(reads) == len(set(reads)) == 6
        monkeypatch.undo()
        for strategy in strategies:
            alone = measure_leakage(constant_corpus, [strategy], seed=3, trials=2)
            name = strategy.kind.value
            assert {key: cell for key, cell in report.cells.items() if key[1] == name} == alone.cells

    def test_report_text_contains_comparison_flags(self, constant_corpus):
        report = measure_leakage(constant_corpus, [RANDOM, BAR], seed=3)
        text = report.to_text()
        assert "element strategy attempts correct accuracy abstentions" in text
        assert "bar_leq_random bar yes" in text


class TestProbeExample:
    def test_special_rows_are_not_attempted(self):
        seq = constant_metadata_seq(0, n_bars=4)
        report = LeakageReport()
        example = make_masked_example(seq, RANDOM, derive_rng(9, 0))
        probe_example(example, "random", report)
        content_selected = example.mask[1:-1].sum()
        tallied = sum(c.attempts + c.abstentions for c in report.cells.values())
        assert tallied == content_selected


def _per_slot_probe(example, length, strategy_name, report):
    """The scalar reference: one ``copy_predict`` call per masked note slot.

    The note rows are rows 1 to ``length - 2`` of an example built ``length``
    rows long, whatever pad rows a batch appended.
    """
    rows, cols = np.nonzero(example.mask[1 : length - 1])
    for row, col in zip((rows + 1).tolist(), cols.tolist()):
        cell = report.cell(ELEMENT_NAMES[col], strategy_name)
        predicted = copy_predict(example, (row, col))
        if predicted is None:
            cell.abstentions += 1
        else:
            cell.attempts += 1
            cell.correct += int(predicted == int(example.targets[row, col]))


def _read_back_padded(example, pad_rows):
    """The example as ``read_omb1`` returns it from a batch ``pad_rows`` longer."""
    longer = example.length + pad_rows
    filler = MaskedExample(
        input_ids=np.full((longer, 8), PAD_ID, dtype=np.int64),
        targets=np.full((longer, 8), NO_TARGET, dtype=np.int64),
        mask=np.zeros((longer, 8), dtype=bool),
    )
    buf = io.BytesIO()
    emit_batch([example, filler], buf)
    inputs, targets = read_omb1(io.BytesIO(buf.getvalue()))
    return MaskedExample(input_ids=inputs[0], targets=targets[0], mask=targets[0] != NO_TARGET)


_SEQS = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda seed: random_valid_seq(np.random.default_rng(seed))),
    st.just(OctupleSeq()),
    st.just(SINGLE_NOTE),
)


class TestProbeMatchesPerSlotReference:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        seq=_SEQS,
        kind=st.sampled_from(list(StrategyKind)),
        p=st.sampled_from([0.0, 0.15, 0.5, 1.0]),
        mask_seed=st.integers(0, 2**16),
        pad_rows=st.integers(0, 3),
    )
    @example(seq=OctupleSeq(), kind=StrategyKind.RANDOM, p=1.0, mask_seed=0, pad_rows=0)
    @example(seq=SINGLE_NOTE, kind=StrategyKind.OCTUPLE, p=0.5, mask_seed=1, pad_rows=0)
    @example(seq=constant_metadata_seq(0), kind=StrategyKind.RANDOM, p=0.5, mask_seed=2, pad_rows=3)
    @example(
        seq=constant_metadata_seq(0, n_bars=1, notes_per_bar=6),
        kind=StrategyKind.OCTUPLE, p=1.0, mask_seed=0, pad_rows=2,
    )
    def test_reports_are_equal(self, seq, kind, p, mask_seed, pad_rows):
        """Both probes agree, on the example as built and as read back."""
        built = make_masked_example(seq, MaskingStrategy(kind, p), derive_rng(mask_seed))
        reports = []
        for masked in (built, _read_back_padded(built, pad_rows)):
            per_slot, one_pass = LeakageReport(), LeakageReport()
            _per_slot_probe(masked, built.length, kind.value, per_slot)
            probe_example(masked, kind.value, one_pass)
            reports += [per_slot, one_pass]
        assert all(report == reports[0] for report in reports)


LONG_SONG = constant_metadata_seq(3, n_bars=16)  # 128 notes against SINGLE_NOTE's one
_CORPUS_SEQS = st.one_of(
    _SEQS,
    st.integers(0, 2**32 - 1).map(
        lambda seed: random_valid_seq(np.random.default_rng(seed), max_bars=24, max_notes=300)),
    st.just(LONG_SONG),
)
ALL_KINDS = list(StrategyKind)


class TestChunkedProbeMatchesPerExampleOracle:
    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(
        songs=st.lists(_CORPUS_SEQS, min_size=1, max_size=12),
        p=st.sampled_from([0.0, 0.15, 1.0]),
        trials=st.integers(1, 3),
        seed=st.integers(0, 2**70),
        chunk=st.sampled_from([1, 7, 256]),
        padded_rows=st.sampled_from([1, 300, leakage.PADDED_ROWS]),
    )
    @example(songs=[SINGLE_NOTE, LONG_SONG] * 4, p=0.15, trials=2, seed=2**32, chunk=7,
             padded_rows=300)
    @example(songs=[LONG_SONG, SINGLE_NOTE, OctupleSeq()], p=0.15, trials=3, seed=2**64, chunk=1,
             padded_rows=leakage.PADDED_ROWS)
    @example(songs=[OctupleSeq(), SINGLE_NOTE, LONG_SONG, OctupleSeq()], p=0.15, trials=3, seed=0,
             chunk=7, padded_rows=leakage.PADDED_ROWS)
    @example(songs=[OctupleSeq()] * 3, p=1.0, trials=1, seed=1, chunk=256, padded_rows=1)
    @example(songs=[SINGLE_NOTE] * 8 + [LONG_SONG], p=1.0, trials=2, seed=2, chunk=7, padded_rows=300)
    def test_reports_are_equal(self, songs, p, trials, seed, chunk, padded_rows):
        """The chunked probe reports what probing each song alone reports,
        under every strategy, whatever the chunk size and padded-row budget."""
        strategies = [MaskingStrategy(kind, p) for kind in ALL_KINDS]
        with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as patch:
            for i, song in enumerate(songs):
                write_om8(song, Path(root) / f"{i:03d}.om8")
            patch.setattr(masking, "CHUNK", chunk)
            patch.setattr(leakage, "PADDED_ROWS", padded_rows)
            chunked = measure_leakage(root, strategies, seed, trials)
            oracle = reference_measure_leakage(root, strategies, seed, trials)
        assert chunked == oracle
        assert chunked.to_text() == oracle.to_text()


def test_memory_is_bounded_by_the_chunk_not_the_tree(tmp_path):
    one, four = tmp_path / "one", tmp_path / "four"
    rng = np.random.default_rng(17)
    (one / "a").mkdir(parents=True)
    for i in range(200):
        write_om8(random_valid_seq(rng), one / "a" / f"{i:03d}.om8")
    for part in "abcd":
        shutil.copytree(one / "a", four / part)
    strategies = [MaskingStrategy(kind) for kind in StrategyKind]
    measure_leakage(one, strategies, seed=1)  # imports and first-call caches, untraced
    peaks = {}
    for root in (one, four):
        tracemalloc.start()
        try:
            measure_leakage(root, strategies, seed=1, trials=2)
            peaks[root.name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["four"] - peaks["one"] < 2**19, peaks


def test_memory_does_not_grow_with_trials(tmp_path):
    write_constant_corpus(tmp_path, n_songs=3)
    strategies = [MaskingStrategy(kind) for kind in StrategyKind]
    measure_leakage(tmp_path, strategies, seed=1)  # imports and first-call caches, untraced
    peaks = {}
    for trials in (1, 200):
        tracemalloc.start()
        try:
            measure_leakage(tmp_path, strategies, seed=1, trials=trials)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[200] - peaks[1] < 2**16, peaks


def test_a_long_song_is_not_padded_chunk_times(tmp_path):
    # One 20,000-note song among 63 short ones: padding every example of the
    # chunk to the long song's length would take about 128 MB.
    long_song = OctupleSeq.from_array(np.repeat(constant_metadata_seq(1).array, 250, axis=0))
    write_om8(long_song, tmp_path / "000.om8")
    rng = np.random.default_rng(19)
    for i in range(1, 64):
        write_om8(random_valid_seq(rng), tmp_path / f"{i:03d}.om8")
    strategies = [MaskingStrategy(kind) for kind in StrategyKind]
    measure_leakage(tmp_path, strategies, seed=1)  # imports and first-call caches, untraced
    tracemalloc.start()
    try:
        measure_leakage(tmp_path, strategies, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**24, peak
