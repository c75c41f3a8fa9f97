"""Grid tables and quantizers checked against brute force."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from octomidi import InvalidTimeSignatureError, UnrepresentableSignatureError
from octomidi.grids import (
    DURATION_GRID,
    TEMPO_GRID,
    TIMESIG_COUNT,
    TIMESIG_PAIRS,
    VELOCITY_GRID,
    dequantize_tempo,
    normalize_signature,
    quantize_duration_array,
    quantize_tempo,
    quantize_velocity_array,
    timesig_from_index,
    timesig_index,
)


class TestTimeSignatures:
    def test_enumeration_has_254_members(self):
        assert TIMESIG_COUNT == 254
        assert len(set(TIMESIG_PAIRS)) == 254

    def test_all_pairs_satisfy_bounds(self):
        for n, d in TIMESIG_PAIRS:
            assert 1 <= n <= 128
            assert d in (1, 2, 4, 8, 16, 32, 64)
            assert n / d <= 2

    def test_index_round_trip_is_bijective(self):
        for i in range(TIMESIG_COUNT):
            assert timesig_index(*timesig_from_index(i)) == i

    def test_canonical_ordering(self):
        assert timesig_index(1, 1) == 0
        assert timesig_index(2, 1) == 1
        assert timesig_index(1, 2) == 2

    def test_long_bar_is_invalid(self):
        with pytest.raises(InvalidTimeSignatureError):
            timesig_index(3, 1)  # three whole notes

    def test_off_grid_denominator_is_invalid(self):
        with pytest.raises(InvalidTimeSignatureError):
            timesig_index(4, 3)


class TestTempoGrid:
    def test_grid_shape_and_endpoints(self):
        assert len(TEMPO_GRID) == 49
        assert TEMPO_GRID[0] == pytest.approx(16.0)
        assert TEMPO_GRID[-1] == pytest.approx(256.0)

    def test_adjacent_ratio_is_semitone_step(self):
        ratios = TEMPO_GRID[1:] / TEMPO_GRID[:-1]
        assert np.allclose(ratios, 2 ** (1 / 12))

    def test_endpoints_quantize_to_extremes(self):
        assert quantize_tempo(16) == 0
        assert quantize_tempo(256) == 48

    def test_out_of_range_clamps(self):
        assert quantize_tempo(1.0) == 0
        assert quantize_tempo(10_000.0) == 48

    def test_120_bpm_lands_on_bin_35(self):
        assert quantize_tempo(120.0) == 35

    def test_grid_points_are_fixed(self):
        for i in range(49):
            assert quantize_tempo(dequantize_tempo(i)) == i

    def test_matches_log_space_brute_force(self):
        rng = np.random.default_rng(12)
        for bpm in rng.uniform(1.0, 500.0, 10_000):
            expected = int(np.argmin(np.abs(math.log(bpm) - np.log(TEMPO_GRID))))
            assert quantize_tempo(float(bpm)) == expected


class TestVelocityGrid:
    def test_grid_values(self):
        assert VELOCITY_GRID.tolist() == list(range(2, 127, 4))

    def test_endpoints(self):
        assert quantize_velocity_array(np.array([2, 126])).tolist() == [0, 31]

    def test_midpoint_ties_go_low(self):
        assert quantize_velocity_array(np.array([64])).tolist() == [15]  # equidistant from 62 and 66

    def test_grid_points_are_fixed(self):
        assert quantize_velocity_array(VELOCITY_GRID).tolist() == list(range(32))

    def test_matches_brute_force_for_all_inputs(self):
        velocities = np.arange(1, 128)
        expected = np.argmin(np.abs(velocities[:, None] - VELOCITY_GRID), axis=1)
        assert quantize_velocity_array(velocities).tolist() == expected.tolist()

    @given(st.integers(min_value=1, max_value=127))
    def test_returned_bin_is_a_nearest_neighbor(self, v):
        got = VELOCITY_GRID[quantize_velocity_array(np.array([v]))[0]]
        assert abs(v - got) == int(np.abs(v - VELOCITY_GRID).min())


class TestDurationGrid:
    def test_monotone_with_128_bins(self):
        assert len(DURATION_GRID) == 128
        assert np.all(np.diff(DURATION_GRID) > 0)

    def test_origin_and_quarter_note(self):
        assert quantize_duration_array(np.array([0])).tolist() == [0]
        assert DURATION_GRID[16] == 16  # one quarter note in 1/64 steps

    def test_step_doubles_every_16_bins(self):
        steps = np.diff(DURATION_GRID)
        for tier in range(7):
            lo = tier * 16
            assert set(steps[lo : lo + 16].tolist()) <= {2**tier, 2 ** (tier + 1)}

    def test_maximum_covers_sixty_whole_notes(self):
        assert DURATION_GRID[127] == 3952
        assert 3952 >= 60 * 64

    def test_grid_points_are_fixed(self):
        assert quantize_duration_array(DURATION_GRID).tolist() == list(range(128))

    def test_matches_brute_force_with_low_ties(self):
        steps = np.arange(4200)
        expected = np.argmin(np.abs(steps[:, None] - DURATION_GRID), axis=1)
        assert quantize_duration_array(steps).tolist() == expected.tolist()

    @given(st.integers(min_value=0, max_value=100_000))
    def test_clamps_beyond_grid(self, steps):
        idx = quantize_duration_array(np.array([steps]))[0]
        assert 0 <= idx <= 127


class TestSplitLongBars:
    def test_regular_signature_unchanged(self):
        assert normalize_signature(4, 4) == (4, 4)

    def test_five_halves_becomes_five_quarters(self):
        assert normalize_signature(5, 2) == (5, 4)

    def test_nine_halves_becomes_three_halves(self):
        assert normalize_signature(9, 2) == (3, 2)

    def test_oversize_denominator_reduces(self):
        assert normalize_signature(4, 128) == (2, 64)

    def test_unsplittable_signature_raises(self):
        with pytest.raises(UnrepresentableSignatureError):
            normalize_signature(5, 1)  # 5/3 whole-note sub-bars are off grid

    def test_irreducible_fine_denominator_raises(self):
        with pytest.raises(UnrepresentableSignatureError):
            normalize_signature(3, 128)

    def test_ticks_are_preserved(self):
        events = [(0, 4, 4), (1920, 5, 2), (5760, 6, 8)]
        split = [(tick, *normalize_signature(n, d)) for tick, n, d in events]
        assert split == [(0, 4, 4), (1920, 5, 4), (5760, 6, 8)]
