"""Masking strategies, corruption statistics, and batch emission."""

import io

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import constant_metadata_seq, random_valid_seq
from masking_reference import (
    reference_build_grid,
    reference_emit_batch,
    reference_make_masked_example,
    reference_sample_segment,
)
from octomidi.encoding import COL_BAR, OctupleSeq
from octomidi.formats import NO_TARGET, om8_bytes, read_omb1, write_om8
from octomidi import masking
from octomidi.masking import (
    CHUNK,
    MaskingStrategy,
    StrategyKind,
    derive_rng,
    emit_batch,
    make_masked_example,
    mask_batch,
    sample_segment,
)
from octomidi.vocab import CLS_ID, ELEMENT_RANGES, EOS_ID, MASK_ID, NUM_SPECIALS, PAD_ID

RANDOM = MaskingStrategy(StrategyKind.RANDOM)
OCTUPLE = MaskingStrategy(StrategyKind.OCTUPLE)
BAR = MaskingStrategy(StrategyKind.BAR_LEVEL)


@pytest.fixture
def seq():
    return random_valid_seq(np.random.default_rng(17), max_bars=6, max_notes=40)


def select_mask_slots(seq, strategy, rng):
    """The slot selection: the mask of an example built from the same draws."""
    return make_masked_example(seq, strategy, rng).mask


class TestGrid:
    def test_grid_has_class_and_end_rows(self, seq):
        none = MaskingStrategy(StrategyKind.RANDOM, mask_probability=0.0)
        grid = make_masked_example(seq, none, derive_rng(0, 0)).input_ids
        assert grid.shape == (len(seq) + 2, 8)
        assert (grid[0] == CLS_ID).all()
        assert (grid[-1] == EOS_ID).all()
        assert (grid[1:-1] == seq.array + NUM_SPECIALS).all()


class TestSampleSegment:
    def test_short_sequence_returned_whole(self, seq):
        assert sample_segment(seq, 1024, derive_rng(0, 0)) == seq

    def test_long_sequence_yields_window(self):
        big = OctupleSeq.from_array(
            np.repeat(constant_metadata_seq(0, 16, 8).array, 30, axis=0)
        )
        assert len(big) == 3840
        window = sample_segment(big, 1024, derive_rng(1, 0))
        assert len(window) == 1022
        # windows are contiguous slices of the source
        src = big.array
        win = window.array
        starts = np.nonzero((src[: len(src) - 1021] == win[0]).all(axis=1))[0]
        assert any(
            np.array_equal(src[s : s + 1022], win) for s in starts
        )

    def test_same_seed_same_window(self):
        big = OctupleSeq.from_array(
            np.repeat(constant_metadata_seq(0, 16, 8).array, 30, axis=0)
        )
        assert sample_segment(big, 256, derive_rng(5, 3)) == sample_segment(
            big, 256, derive_rng(5, 3)
        )

    def test_budget_without_room_for_a_note_is_rejected(self, seq):
        # Class and end rows alone fill a budget of 2; below that no grid fits.
        assert len(sample_segment(seq, 2, derive_rng(7, 0))) == 0
        for max_len in (1, 0):
            with pytest.raises(ValueError):
                sample_segment(seq, max_len, derive_rng(7, 0))

    def test_average_length_song_with_1024_budget(self):
        # A 3607-note song against a 1024-token budget leaves a 1022-note
        # window once the class and end rows are reserved.
        base = constant_metadata_seq(0, 16, 8).array
        big = OctupleSeq.from_array(
            np.repeat(base, 29, axis=0)[:3607]
        )
        assert len(big) == 3607
        window = sample_segment(big, 1024, derive_rng(6, 0))
        assert len(window) == 1022


class TestSelect:
    def test_zero_probability_selects_nothing(self, seq):
        for strategy in (RANDOM, OCTUPLE, BAR):
            zero = MaskingStrategy(strategy.kind, mask_probability=0.0)
            assert not select_mask_slots(seq, zero, derive_rng(0, 0)).any()

    def test_octuple_strategy_masks_whole_rows(self, seq):
        mask = select_mask_slots(seq, OCTUPLE, derive_rng(2, 0))
        per_row = mask.sum(axis=1)
        assert set(per_row.tolist()) <= {0, 8}

    def test_bar_level_unit_atomicity(self, seq):
        mask = select_mask_slots(seq, BAR, derive_rng(3, 0))
        bars = seq.array[:, COL_BAR]
        content = mask[1:-1]
        for bar in np.unique(bars):
            rows = content[bars == bar]
            # each element column is all-masked or all-unmasked within a bar
            assert set(rows.sum(axis=0).tolist()) <= {0, rows.shape[0]}

    def test_bar_level_example_from_spec_shape(self):
        # Two bars; selecting the (bar 0, pitch) unit masks every bar-0 pitch
        # slot and no bar-1 pitch slot.
        seq = constant_metadata_seq(0, n_bars=2, notes_per_bar=6)
        found = False
        for attempt in range(200):
            mask = select_mask_slots(seq, BAR, derive_rng(100, attempt))
            bars = seq.array[:, COL_BAR]
            pitch_col = mask[1:-1][:, 5]
            bar0 = pitch_col[bars == 0]
            bar1 = pitch_col[bars == 1]
            if bar0.all() and not bar1.any():
                found = True
                break
        assert found

    def test_random_fraction_concentrates_at_p(self):
        seq = OctupleSeq.from_array(
            np.repeat(constant_metadata_seq(1, 16, 8).array, 100, axis=0)
        )
        mask = select_mask_slots(seq, RANDOM, derive_rng(7, 0))
        frac = mask.mean()
        assert mask.size > 100_000
        assert 0.14 <= frac <= 0.16

    def test_marginal_rate_matches_p_for_unit_strategies(self):
        # Pool across many songs: unit-level draws need many units before
        # the slot fraction concentrates.
        songs = [constant_metadata_seq(i, 16, 8) for i in range(120)]
        for strategy, seed in ((OCTUPLE, 8), (BAR, 9)):
            total = 0
            selected = 0
            for i, song in enumerate(songs):
                mask = select_mask_slots(song, strategy, derive_rng(seed, i))
                total += mask.size
                selected += int(mask.sum())
            assert total > 100_000
            assert 0.14 <= selected / total <= 0.16

    def test_class_and_end_rows_are_maskable(self, seq):
        hits_cls = hits_eos = False
        for trial in range(50):
            mask = select_mask_slots(seq, BAR, derive_rng(11, trial))
            hits_cls = hits_cls or mask[0].any()
            hits_eos = hits_eos or mask[-1].any()
        assert hits_cls and hits_eos


class TestCorrupt:
    def test_targets_exactly_at_selected_slots(self, seq):
        example = make_masked_example(seq, RANDOM, derive_rng(21, 0))
        grid = reference_build_grid(seq)
        assert ((example.targets != NO_TARGET) == example.mask).all()
        assert (example.targets[example.mask] == grid[example.mask]).all()
        assert (example.input_ids[~example.mask] == grid[~example.mask]).all()

    def test_empty_slot_set_is_identity(self, seq):
        for kind in StrategyKind:
            none = MaskingStrategy(kind, mask_probability=0.0)
            example = make_masked_example(seq, none, derive_rng(23, 0))
            assert (example.input_ids == reference_build_grid(seq)).all()
            assert (example.targets == NO_TARGET).all()
            assert not example.mask.any()

    def test_corruption_branches_near_80_10_10(self):
        seq = OctupleSeq.from_array(
            np.repeat(constant_metadata_seq(3, 16, 8).array, 60, axis=0)
        )
        grid = reference_build_grid(seq)
        n_selected = masked = changed = unchanged = 0
        for trial in range(15):
            example = make_masked_example(seq, RANDOM, derive_rng(31, trial))
            sel = example.mask
            n_selected += int(sel.sum())
            inp = example.input_ids
            masked += int((sel & (inp == MASK_ID)).sum())
            changed += int((sel & (inp != MASK_ID) & (inp != grid)).sum())
            unchanged += int((sel & (inp == grid)).sum())
        assert n_selected > 100_000
        # A random replacement can coincide with the original, shifting a
        # sliver of the random branch into the unchanged bucket.
        assert abs(masked / n_selected - 0.80) <= 0.01
        assert abs(changed / n_selected - 0.10) <= 0.01
        assert abs(unchanged / n_selected - 0.10) <= 0.01

    def test_random_replacement_stays_in_element_vocabulary(self):
        seq = OctupleSeq.from_array(
            np.repeat(constant_metadata_seq(4, 8, 8).array, 40, axis=0)
        )
        grid = reference_build_grid(seq)
        for trial in range(10):
            example = make_masked_example(seq, RANDOM, derive_rng(41, trial))
            replaced = example.mask & (example.input_ids != MASK_ID) & (
                example.input_ids != grid
            )
            rows, cols = np.nonzero(replaced)
            ids = example.input_ids[rows, cols]
            assert (ids >= NUM_SPECIALS).all()
            assert (ids < np.array(ELEMENT_RANGES)[cols] + NUM_SPECIALS).all()

    def test_determinism(self, seq):
        a = make_masked_example(seq, BAR, derive_rng(55, 0))
        b = make_masked_example(seq, BAR, derive_rng(55, 0))
        assert (a.input_ids == b.input_ids).all()
        assert (a.targets == b.targets).all()


class TestEmitBatch:
    def test_padding_rows_use_pad_identifier(self, seq):
        short = make_masked_example(seq[:3], RANDOM, derive_rng(60, 0))
        full = make_masked_example(seq, RANDOM, derive_rng(60, 1))
        buf = io.BytesIO()
        emit_batch([short, full], buf)
        buf.seek(0)
        inputs, targets = read_omb1(buf)
        assert inputs.shape == (2, full.length, 8)
        pad_rows = inputs[0, short.length :]
        assert (pad_rows == PAD_ID).all()
        assert (targets[0, short.length :] == NO_TARGET).all()

    def test_byte_count_returned(self, seq):
        example = make_masked_example(seq, RANDOM, derive_rng(61, 0))
        buf = io.BytesIO()
        written = emit_batch([example], buf)
        assert written == len(buf.getvalue())

    def test_zero_examples_writes_header_only(self):
        buf = io.BytesIO()
        assert emit_batch([], buf) == 12

    def test_dynamic_masking_changes_with_seed(self, seq):
        a = make_masked_example(seq, RANDOM, derive_rng(1, 0))
        b = make_masked_example(seq, RANDOM, derive_rng(2, 0))
        assert not (a.targets == b.targets).all()


def _song_pool() -> list[OctupleSeq]:
    """Songs to cut corpora from: short ones, and two of several thousand
    rows, longer than any window the tests draw. Those two are sorted parts
    joined end to end, so their bars are not in canonical order."""
    rng = np.random.default_rng(2024)
    pool = [random_valid_seq(rng, max_bars=8, max_notes=60) for _ in range(12)]
    parts = [random_valid_seq(rng, max_bars=40, max_notes=500).array for _ in range(16)]
    pool.append(OctupleSeq.from_array(np.concatenate(parts)))
    pool.append(OctupleSeq.from_array(np.concatenate(parts[::-1])))
    assert min(len(song) for song in pool[-2:]) > 3000
    return pool


SONGS = _song_pool()


def _reference_batch(seqs, strategy, seed, max_len) -> bytes:
    examples = []
    for ordinal, seq in enumerate(seqs):
        rng = derive_rng(seed, ordinal)
        segment = reference_sample_segment(seq, max_len, rng)
        examples.append(reference_make_masked_example(segment, strategy, rng))
    return reference_emit_batch(examples)


class TestWriteMaskedBatch:
    """mask_batch, the batched OMB1 writer, against the per-example path and the reference."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        kind=st.sampled_from(list(StrategyKind)),
        p=st.sampled_from([0.0, 0.15, 1.0]),
        max_len=st.sampled_from([2, 3, 8, 40, 1024]),
        size=st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]),
        seed=st.integers(0, 2**70),
    )
    @example(kind=StrategyKind.BAR_LEVEL, p=0.15, max_len=40, size=CHUNK + 1, seed=2**32)
    @example(kind=StrategyKind.RANDOM, p=0.15, max_len=8, size=2 * CHUNK + 3, seed=2**64)
    def test_bytes_equal_per_example_batch(self, kind, p, max_len, size, seed):
        strategy = MaskingStrategy(kind, p)
        rng = np.random.default_rng(seed)
        # Whole songs, prefixes and 0-row songs, the long ones cut by every window.
        seqs = []
        for _ in range(size):
            song = SONGS[int(rng.integers(len(SONGS)))]
            cut = int(rng.integers(-len(song) // 4, len(song) + 1))
            seqs.append(song[: max(cut, 0)])
        sources = [io.BytesIO(om8_bytes(s)) for s in seqs]
        batch, per_example, examples = io.BytesIO(), io.BytesIO(), []
        written = mask_batch(sources, strategy, seed, max_len, batch)
        for ordinal, seq in enumerate(seqs):
            r = derive_rng(seed, ordinal)
            examples.append(make_masked_example(sample_segment(seq, max_len, r), strategy, r))
        emit_batch(examples, per_example)
        reference = _reference_batch(seqs, strategy, seed, max_len)
        assert batch.getvalue() == per_example.getvalue() == reference
        assert written == len(batch.getvalue())

    @pytest.mark.parametrize("kind", list(StrategyKind))
    def test_long_song_example_equals_reference(self, kind):
        for trial, song in enumerate(SONGS[-2:] * 2):
            strategy = MaskingStrategy(kind, 0.15 * (trial + 1))
            got = make_masked_example(song, strategy, derive_rng(77, trial))
            want = reference_make_masked_example(song, strategy, derive_rng(77, trial))
            for field in ("input_ids", "targets", "mask"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), field
                assert getattr(got, field).dtype == getattr(want, field).dtype

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_bytes_do_not_depend_on_the_chunk_size(self, chunk, monkeypatch):
        """Each chunk re-seeds the same generators: no state passes from one
        chunk to the next."""
        rng = np.random.default_rng(chunk)
        seqs = [SONGS[int(i)][: int(rng.integers(0, 600))] for i in rng.integers(len(SONGS), size=150)]
        for kind, seed in [(StrategyKind.RANDOM, 0), (StrategyKind.OCTUPLE, 2**40), (StrategyKind.BAR_LEVEL, 3)]:
            strategy = MaskingStrategy(kind, 0.15)
            want = io.BytesIO()
            mask_batch([io.BytesIO(om8_bytes(s)) for s in seqs], strategy, seed, 256, want)
            with monkeypatch.context() as patch:
                patch.setattr(masking, "CHUNK", chunk)
                got = io.BytesIO()
                mask_batch([io.BytesIO(om8_bytes(s)) for s in seqs], strategy, seed, 256, got)
            assert got.getvalue() == want.getvalue() == _reference_batch(seqs, strategy, seed, 256)

    def test_writes_to_a_path(self, seq, tmp_path):
        paths = [tmp_path / "a.om8", tmp_path / "b.om8"]
        write_om8(seq, paths[0])
        write_om8(seq[:2], paths[1])
        out = tmp_path / "batch.omb1"
        written = mask_batch(paths, BAR, 9, 1024, out)
        inputs, targets = read_omb1(out)
        assert written == out.stat().st_size
        assert out.read_bytes() == _reference_batch([seq, seq[:2]], BAR, 9, 1024)
        assert inputs.shape == (2, len(seq) + 2, 8)
        assert (inputs[1, 4:] == PAD_ID).all() and (targets[1, 4:] == NO_TARGET).all()


def _chunk_cases(test):
    """Seeds of one to five entropy words, ordinals at both ends of their
    word, zero to two stream words, and chunks of 1, CHUNK and CHUNK + 1."""
    for case in [
        dict(seed=0, first=0, stream=(), size=1),
        dict(seed=2**32 - 1, first=2**32 - 1, stream=(2**33,), size=1),
        dict(seed=2**32, first=2**32 - CHUNK, stream=(1,), size=CHUNK),
        dict(seed=2**64, first=0, stream=(), size=CHUNK + 1),
        dict(seed=2**96 + 5, first=7, stream=(2**33,), size=CHUNK),
        dict(seed=2**130, first=2**31, stream=(0,), size=CHUNK + 1),
    ]:
        test = example(**case)(test)
    return settings(derandomize=True, deadline=None, max_examples=300)(given(
        seed=st.integers(0, 2**130),
        first=st.integers(0, 2**32 - 1),
        stream=st.one_of(st.just(()), st.tuples(st.integers(0, 7)), st.just((2**33,))),
        size=st.sampled_from([1, CHUNK, CHUNK + 1]),
    )(test))


class TestChunkSeeding:
    """The chunk seeding that mask and probe use: the mixed words against
    numpy's SeedSequence, and the generators against derive_rng, their definition."""

    @_chunk_cases
    def test_words_equal_seed_sequence(self, seed, first, stream, size):
        first = min(first, 2**32 - size)
        words = masking._seed_words(seed, first, size, *stream)
        assert words.shape == (size, 4) and words.dtype == np.uint64
        for ordinal, row in enumerate(words, first):
            want = np.random.SeedSequence([seed, ordinal, *stream]).generate_state(4, np.uint64)
            assert row.tolist() == want.tolist()

    @_chunk_cases
    def test_generators_equal_derive_rng(self, seed, first, stream, size):
        first = min(first, 2**32 - size)
        rngs = masking._generators(masking._seed_words(seed, first, size, *stream))
        assert len(rngs) == size
        for ordinal, rng in enumerate(rngs, first):
            want = derive_rng(seed, ordinal, *stream)
            assert rng.bit_generator.state == want.bit_generator.state
            assert np.array_equal(rng.random(3), want.random(3))
            assert np.array_equal(rng.integers(0, 1000, 3), want.integers(0, 1000, 3))

    @pytest.mark.parametrize("seed, first, count, stream", [
        (-1, 0, 1, ()),
        (0, -1, 1, ()),
        (0, 2**32, 1, ()),
        (0, 2**32 - 1, 2, ()),
        (0, 0, 1, (-1,)),
    ])
    def test_out_of_range_raises_value_error(self, seed, first, count, stream):
        with pytest.raises(ValueError):
            masking._seed_words(seed, first, count, *stream)
