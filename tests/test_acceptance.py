"""Acceptance suite: one criterion per test, one pass line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail line
and the measured values for every criterion.
"""

import math
import time

import numpy as np

from helpers import (
    constant_metadata_seq,
    note_rows,
    random_valid_seq,
    write_constant_corpus,
    write_gm_corpus,
)
from octomidi import decode_octuple, encode_octuple, parse_smf
from octomidi.corpus import PipelineConfig, run_pipeline
from octomidi.encoding import COL_BAR, OctupleSeq
from octomidi.grids import (
    DURATION_GRID,
    TEMPO_GRID,
    TIMESIG_COUNT,
    TIMESIG_PAIRS,
    VELOCITY_GRID,
    quantize_duration_array,
    quantize_tempo,
    quantize_velocity_array,
    timesig_from_index,
    timesig_index,
)
from octomidi.leakage import measure_leakage
from octomidi.masking import (
    MaskingStrategy,
    StrategyKind,
    derive_rng,
    make_masked_example,
)
from octomidi.midi_io import MidiSong, TimedNote
from octomidi.vocab import ELEMENT_NAMES, MASK_ID
from masking_reference import reference_build_grid
from token_reference import encode_cp_like, encode_remi_like


def _report(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


def test_c01_time_signature_enumeration():
    assert TIMESIG_COUNT == 254
    assert len(set(TIMESIG_PAIRS)) == 254
    for i in range(254):
        assert timesig_index(*timesig_from_index(i)) == i
    for n, d in TIMESIG_PAIRS:
        assert timesig_from_index(timesig_index(n, d)) == (n, d)
    _report(1, "254 valid time signatures, index round trip bijective")


def test_c02_tempo_grid():
    assert len(TEMPO_GRID) == 49
    assert TEMPO_GRID[0] == 16.0
    assert np.isclose(TEMPO_GRID[-1], 256.0)
    assert np.allclose(TEMPO_GRID[1:] / TEMPO_GRID[:-1], 2 ** (1 / 12))
    rng = np.random.default_rng(20240)
    log_grid = np.log(TEMPO_GRID)
    for bpm in rng.uniform(0.5, 600.0, 10_000):
        assert quantize_tempo(float(bpm)) == int(np.argmin(np.abs(math.log(bpm) - log_grid)))
    _report(2, "49 tempi, endpoints 16/256, ratio 2^(1/12), 10^4 nearest-in-log checks")


def test_c03_velocity_grid():
    assert VELOCITY_GRID.tolist() == [2 + 4 * i for i in range(32)]
    velocities = np.arange(1, 128)
    dist = np.abs(velocities[:, None] - VELOCITY_GRID)
    assert quantize_velocity_array(velocities).tolist() == np.argmin(dist, axis=1).tolist()  # argmin = low tie
    _report(3, "velocity grid {2,6,...,126}; brute-force match on all 127 inputs")


def test_c04_duration_grid():
    assert len(DURATION_GRID) == 128
    assert np.all(np.diff(DURATION_GRID) > 0)
    assert DURATION_GRID[-1] >= 3840  # sixty whole notes in 1/64 steps
    steps = np.arange(4100)
    expected = np.argmin(np.abs(steps[:, None] - DURATION_GRID), axis=1)
    assert quantize_duration_array(steps).tolist() == expected.tolist()
    _report(4, f"128 monotone duration bins, max {int(DURATION_GRID[-1])} >= 3840 steps")


def test_c05_round_trips():
    start = time.perf_counter()
    rng = np.random.default_rng(501)
    for _ in range(1000):
        seq = random_valid_seq(rng, max_bars=6, max_notes=30)
        assert encode_octuple(decode_octuple(seq)) == seq

    # Grid-aligned songs: note count, pitches, and onsets survive a
    # decode(encode(.)) cycle exactly.
    step = 30  # 1/64 note at 480 ticks per quarter
    for trial in range(50):
        song_rng = np.random.default_rng(5000 + trial)
        notes = []
        for _ in range(int(song_rng.integers(1, 40))):
            onset = int(song_rng.integers(0, 64 * 8)) * step
            duration = int(DURATION_GRID[song_rng.integers(0, 60)]) * step
            drum = bool(song_rng.random() < 0.2)
            notes.append(
                TimedNote(
                    onset_ticks=onset,
                    duration_ticks=0 if drum else duration,
                    pitch=int(song_rng.integers(0, 128)),
                    velocity=int(VELOCITY_GRID[song_rng.integers(0, 32)]),
                    program=int(song_rng.integers(0, 128)),
                    is_drum=drum,
                    track=0,
                )
            )
        song = MidiSong(480, notes, [(0, float(TEMPO_GRID[song_rng.integers(0, 49)]))], [(0, 4, 4)])
        cycled = decode_octuple(encode_octuple(song))
        assert len(cycled.notes) == len(song.notes)
        assert sorted((n.onset_ticks, n.pitch) for n in note_rows(cycled)) == sorted(
            (n.onset_ticks, n.pitch) for n in note_rows(song)
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(5, f"1000 encode(decode(.)) identities + 50 grid-aligned cycles in {elapsed:.1f}s")


def test_c06_length_comparison(gm_corpus):
    start = time.perf_counter()
    files = sorted(gm_corpus.glob("*.mid"))
    assert len(files) >= 50
    octs = cps = remis = 0
    for path in files:
        song = parse_smf(path.read_bytes())
        n_oct = len(encode_octuple(song))
        assert n_oct == len(song.notes)  # one octuple per note
        octs += n_oct
        cps += len(encode_cp_like(song))
        remis += len(encode_remi_like(song))
    remi_ratio = remis / octs
    cp_ratio = cps / octs
    assert 3.0 <= remi_ratio <= 6.0
    assert 1.5 <= cp_ratio <= 2.5
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(
        6,
        f"{len(files)} files: event/octuple {remi_ratio:.2f} in [3,6], "
        f"compound/octuple {cp_ratio:.2f} in [1.5,2.5]",
    )


def test_c07_masking_statistics():
    start = time.perf_counter()
    bar_strategy = MaskingStrategy(StrategyKind.BAR_LEVEL)

    # Unit atomicity over 10^4 randomized bar-level examples.
    rng = np.random.default_rng(701)
    for trial in range(10_000):
        seq = random_valid_seq(rng, max_bars=4, max_notes=12)
        mask = make_masked_example(seq, bar_strategy, derive_rng(702, trial)).mask
        bars = seq.array[:, COL_BAR]
        content = mask[1:-1]
        for bar in np.unique(bars):
            per_type = content[bars == bar].sum(axis=0)
            assert set(per_type.tolist()) <= {0, int((bars == bar).sum())}

    # Masked fraction within 15% +- 1% over more than 10^5 slots per
    # strategy, pooled across many songs so every strategy sees many units.
    songs = [constant_metadata_seq(i, 16, 8) for i in range(120)]
    fractions = {}
    for kind, seed in ((StrategyKind.RANDOM, 711), (StrategyKind.OCTUPLE, 712), (StrategyKind.BAR_LEVEL, 713)):
        total = selected = 0
        for i, song in enumerate(songs):
            mask = make_masked_example(song, MaskingStrategy(kind), derive_rng(seed, i)).mask
            total += mask.size
            selected += int(mask.sum())
        assert total >= 100_000
        fractions[kind.value] = selected / total
        assert abs(fractions[kind.value] - 0.15) <= 0.01

    # Corruption branches 80/10/10 +- 1% over more than 10^5 selected slots.
    big = OctupleSeq.from_array(np.repeat(constant_metadata_seq(5, 16, 8).array, 100, axis=0))
    grid = reference_build_grid(big)
    n_sel = masked = changed = unchanged = 0
    for trial in range(15):
        example = make_masked_example(big, MaskingStrategy(StrategyKind.RANDOM), derive_rng(714, trial))
        sel = example.mask
        n_sel += int(sel.sum())
        masked += int((sel & (example.input_ids == MASK_ID)).sum())
        changed += int((sel & (example.input_ids != MASK_ID) & (example.input_ids != grid)).sum())
        unchanged += int((sel & (example.input_ids == grid)).sum())
    assert n_sel >= 100_000
    assert abs(masked / n_sel - 0.80) <= 0.01
    assert abs(changed / n_sel - 0.10) <= 0.01
    assert abs(unchanged / n_sel - 0.10) <= 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(
        7,
        "atomicity on 10^4 bar-level examples; fractions "
        + ", ".join(f"{k}={v:.3f}" for k, v in fractions.items())
        + f"; branches {masked/n_sel:.3f}/{changed/n_sel:.3f}/{unchanged/n_sel:.3f} in {elapsed:.1f}s",
    )


def test_c08_leakage_probe(constant_corpus, tmp_path):
    start = time.perf_counter()
    random_strategy = MaskingStrategy(StrategyKind.RANDOM)
    bar_strategy = MaskingStrategy(StrategyKind.BAR_LEVEL)
    random_report = measure_leakage(constant_corpus, [random_strategy], seed=801, trials=3)
    bar_report = measure_leakage(constant_corpus, [bar_strategy], seed=801, trials=3)

    for element in ("tempo", "time_signature"):
        cell = random_report.cell(element, "random")
        assert cell.attempts > 0
        assert cell.accuracy == 1.0
    bar_cell = bar_report.cell("bar", "bar")
    assert bar_cell.attempts > 0
    assert bar_cell.accuracy == 0.0
    for element in ELEMENT_NAMES:
        rnd = random_report.accuracy(element, "random")
        bar = bar_report.accuracy(element, "bar")
        assert rnd is not None and bar is not None
        assert bar <= rnd
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        8,
        "random copy accuracy 1.0 for tempo/time signature, bar-level bar accuracy 0.0, "
        f"bar<=random on all 8 elements in {elapsed:.1f}s",
    )


def test_c09_dedup_and_determinism(tmp_path):
    start = time.perf_counter()
    root = tmp_path / "in"
    write_gm_corpus(root, n_files=12, seed=901, n_duplicates=4, n_malformed=2)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    stats_a = run_pipeline(root, out_a)
    stats_b = run_pipeline(root, out_b)
    assert stats_a.songs_deduplicated == 4  # velocity-perturbed copies collapse
    assert stats_a.songs_kept == 12
    assert stats_a.songs_rejected_malformed == 2
    assert stats_a == stats_b
    # A 2-worker run writes the same files, byte for byte, as 1 worker.
    out_pool = tmp_path / "pool"
    assert run_pipeline(root, out_pool, PipelineConfig(workers=2)) == stats_a
    rel_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    for out in (out_b, out_pool):
        assert sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) == rel_a
        for rel in rel_a:
            assert (out_a / rel).read_bytes() == (out / rel).read_bytes()

    # Idempotence: a second pass over the kept files deduplicates nothing.
    kept_names = {p.name[: -len(".om8")] for p in out_a.rglob("*.om8")}
    second = tmp_path / "second"
    second.mkdir()
    for path in root.iterdir():
        if path.name in kept_names:
            (second / path.name).write_bytes(path.read_bytes())
    stats_again = run_pipeline(second, tmp_path / "c")
    assert stats_again.songs_deduplicated == 0
    assert stats_again.songs_kept == stats_a.songs_kept
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(9, f"4/4 perturbed duplicates collapsed; byte-identical reruns at 1 and 2 workers; idempotent in {elapsed:.1f}s")


def test_c10_throughput_soft_target(tmp_path):
    import os

    root = tmp_path / "in"
    write_gm_corpus(root, n_files=200, seed=1001)
    results = {}
    for workers in (1, 2, 4):
        out = tmp_path / f"out{workers}"
        t0 = time.perf_counter()
        run_pipeline(root, out, PipelineConfig(workers=workers))
        results[workers] = 200 / (time.perf_counter() - t0)

    # Machine ceiling: how much 2-process speedup this box can give at all.
    from concurrent.futures import ProcessPoolExecutor

    from helpers import cpu_burn

    t0 = time.perf_counter()
    for _ in range(6):
        cpu_burn(1_500_000)
    serial = time.perf_counter() - t0
    with ProcessPoolExecutor(max_workers=2) as pool:
        t0 = time.perf_counter()
        list(pool.map(cpu_burn, [1_500_000] * 6))
        parallel = time.perf_counter() - t0
    ceiling = serial / parallel

    single = results[1]
    speedups = {w: results[w] / single for w in (2, 4)}
    line = (
        f"{single:.0f} files/s at 1 worker (soft target 100); speedup "
        f"x{speedups[2]:.2f}@2 x{speedups[4]:.2f}@4 on {os.cpu_count()} CPUs "
        f"(machine 2-process ceiling x{ceiling:.2f}); measured, not gating"
    )
    # Soft target: report the measurement; only sanity-check that the
    # pipeline actually ran.
    assert results[1] > 0
    _report(10, line)
