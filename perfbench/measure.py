"""Timed part of one benchmark run, in a process of its own.

``run.py`` builds the inputs and the expected results, then starts this
script with a JSON config, so that the peak RSS measured here belongs to the
workload alone. The script runs the workload in a closed loop (each
operation starts when the previous one ends) through the package's public
entry points, checks every output, and writes a JSON result file.

Usage: python3 perfbench/measure.py CONFIG.json RESULT.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import octomidi.corpus
import octomidi.encoding
import octomidi.formats
import octomidi.midi_io
from octomidi import cli
from octomidi.errors import OctomidiError
from octomidi.masking import (MaskingStrategy, StrategyKind, derive_rng, emit_batch,
                              make_masked_example, sample_segment)

from spans import Tracer
from speed import Speed

# Checks call this copy, so that they add no spans to the traced account.
_omb1_bytes = octomidi.formats.omb1_bytes

STRATEGIES = ("random", "octuple", "bar")
MASK_PROB = 0.15
MASK_MAX_LEN = 256
SHARE_TOLERANCE = 0.03
STATS_KEYS = ("files_seen", "songs_kept", "songs_deduplicated", "songs_rejected_malformed",
              "songs_rejected_blank", "notes_dropped_bar_overflow", "total_notes")
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2


class Checks:
    """Correctness tally: every checked operation counts once."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{what}: {'; '.join(problems)}")

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def read_stats(path: Path) -> dict[str, int]:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" ")
        if key in STATS_KEYS:
            out[key] = int(value)
    return out


def check_tree_output(out: Path, expected_stats: dict[str, int], reference: str | None) -> tuple[list[str], str]:
    """Problems with one tree-encode output, and the output's digest.

    The stats.txt counters must equal the generator's counts, and the whole
    output (OM8 files and stats.txt) must match ``reference`` byte for byte.
    """
    problems = []
    stats_path = out / "stats.txt"
    got = read_stats(stats_path) if stats_path.is_file() else {}
    for key, want in expected_stats.items():
        if got.get(key) != want:
            problems.append(f"{key} {got.get(key)} != {want}")
    digest = tree_digest(out)
    if reference is not None and digest != reference:
        problems.append("output tree differs from the first run")
    return problems, digest


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Workload:
    """One workload: ``pass_once`` runs every timed operation once."""

    def __init__(self, cfg: dict, work: Path, checks: Checks) -> None:
        self.cfg = cfg
        self.exp = cfg["expected"]
        self.work = work
        self.checks = checks
        self.tracer: Tracer | None = None
        self.samples: dict[str, list[float]] = {}
        self.hashes: dict[str, str] = {}
        self.speed = Speed()

    def timed(self, key: str, seconds: float) -> None:
        self.samples.setdefault(key, []).append(seconds)
        self.speed.sample()

    def median_s(self, key: str, scale: float) -> float:
        return statistics.median(self.samples[key]) * scale

    def begin_op(self) -> None:
        """Start a new operation id for the spans that follow."""
        if self.tracer:
            self.tracer.op += 1

    def cli_span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def encode_tree(self, src: Path, workers: int) -> float:
        """Tree encode through the corpus pipeline; returns wall seconds."""
        out = self.work / "om8"
        shutil.rmtree(out, ignore_errors=True)
        self.begin_op()
        start = time.perf_counter()
        octomidi.corpus.run_pipeline(src, out, octomidi.corpus.PipelineConfig(workers=workers))
        elapsed = time.perf_counter() - start
        problems, digest = check_tree_output(out, self.exp["stats"], self.hashes.get("om8_tree"))
        self.hashes.setdefault("om8_tree", digest)
        self.hashes.setdefault("stats.txt", sha256_file(out / "stats.txt"))
        self.checks.op(problems, f"encode --workers {workers}")
        return elapsed


class TreeEncode(Workload):
    """Tree encode of a corpus of short songs.

    End to end at 1 worker only. Scaled to reference speed, 2-worker rates
    still spread 13-24% between runs on the 2-vCPU reference box, since both
    vCPUs feel the host's load and the calibration loop runs on one. So the
    2-worker encode runs in the untraced passes of a traced run, where it
    gives ``corpus.pool_speedup`` with both of its bases.
    """

    pass_key = "encode_w1_s"
    names = {"items_per_s": "encode_files_per_s", "notes_per_s": "encode_notes_per_s"}

    def warm_up(self) -> None:
        # One of the eight subtrees: imports, caches and a first pool, unchecked.
        for workers in (1, 2):
            octomidi.corpus.run_pipeline(Path(self.cfg["tree"]) / "part_0", self.work / "warm",
                                         octomidi.corpus.PipelineConfig(workers=workers))

    def pass_once(self, index: int, traced: bool) -> None:
        order = (1, 2) if index % 2 == 0 else (2, 1)
        if traced or not self.cfg["trace"]:
            order = (1,)  # the traced account is taken at 1 worker
        for workers in order:
            self.timed(f"encode_w{workers}_s", self.encode_tree(Path(self.cfg["tree"]), workers))

    def end_to_end(self, scale: float) -> dict[str, float]:
        seconds = self.median_s("encode_w1_s", scale)
        return {
            "items_per_s": self.exp["files"] / seconds,
            "notes_per_s": self.exp["input_notes"] / seconds,
        }


class TokenBatches(Workload):
    """``mask`` under three strategies and two seeds, then OMB1 read-back."""

    pass_key = "mask_pass_s"
    names = {"items_per_s": "mask_examples_per_s", "notes_per_s": "omb1_read_notes_per_s"}

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.shares: dict[str, float] = {}  # masked share of non-pad slots, per strategy
        self.maskable = 0  # non-pad slots of the last batch, the base of the shares

    def mask_once(self, strategy: str, mask_seed: int) -> float:
        """One ``mask`` run and its read-back; returns the mask run's seconds."""
        out = self.work / f"{strategy}-{mask_seed}.omb1"
        argv = ["mask", self.cfg["om8"], "--strategy", strategy, "--prob", str(MASK_PROB),
                "--seed", str(mask_seed), "--max-len", str(MASK_MAX_LEN), "--out", str(out)]
        self.begin_op()
        start = time.perf_counter()
        with self.cli_span("cli.mask"):
            rc, text = run_cli(argv)
        mask_s = time.perf_counter() - start
        what = f"mask --strategy {strategy} --seed {mask_seed}"
        start = time.perf_counter()
        try:
            inputs, targets = octomidi.formats.read_omb1(out)
        except (OSError, ValueError) as exc:
            self.checks.op([f"exit code {rc}", f"no readable batch: {exc}"], what)
            return mask_s
        self.timed("read_s", time.perf_counter() - start)

        want = self.exp["batches"][f"{strategy}-{mask_seed}"]
        problems = []
        data = out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        self.hashes[out.name] = digest
        if rc != 0:
            problems.append(f"exit code {rc}")
        if f"examples {self.exp['examples']}" not in text:
            problems.append("wrong example count reported")
        if digest != want["sha256"]:
            problems.append("OMB1 bytes differ from the batch built in memory")
        if _omb1_bytes(inputs, targets) != data:
            problems.append("read_omb1 does not give back the written batch")
        filled = int((inputs != 0).any(axis=2).sum()) - 2 * inputs.shape[0]
        if filled != self.exp["note_rows"]:
            problems.append(f"{filled} note rows, expected {self.exp['note_rows']}")
        share = float((targets != octomidi.formats.NO_TARGET).sum() / (inputs != 0).sum())
        self.shares[strategy] = share
        self.maskable = int((inputs != 0).sum())
        if abs(share - MASK_PROB) > SHARE_TOLERANCE:
            problems.append(f"masked share {share:.4f} not near {MASK_PROB}")
        self.checks.op(problems, what)
        return mask_s

    def runs(self):
        return [(s, m) for m in self.exp["mask_seeds"] for s in STRATEGIES]

    def warm_up(self) -> None:
        self.mask_once(*self.runs()[0])

    def pass_once(self, index: int, traced: bool) -> None:
        self.timed("mask_pass_s", sum(self.mask_once(*run) for run in self.runs()))

    def end_to_end(self, scale: float) -> dict[str, float]:
        runs = len(self.runs())
        return {
            "items_per_s": runs * self.exp["examples"] / self.median_s("mask_pass_s", scale),
            "notes_per_s": self.exp["note_rows"] / self.median_s("read_s", scale),
        }


class LongSongs(Workload):
    """Tree encode of a few long songs, the leakage probe, and a round trip."""

    pass_key = "probe_s"
    names = {"items_per_s": "probe_slots_per_s", "notes_per_s": "roundtrip_notes_per_s"}
    ROUNDTRIPS_PER_PASS = 3

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.tallies: dict[str, tuple[int, int, int]] = {}  # last probe report, per strategy

    def probe(self) -> float:
        argv = ["probe", str(self.work / "om8"), "--strategy", "all", "--prob", str(MASK_PROB),
                "--seed", str(self.cfg["seed"]), "--trials", "1"]
        self.begin_op()
        start = time.perf_counter()
        with self.cli_span("cli.probe"):
            rc, text = run_cli(argv)
        elapsed = time.perf_counter() - start
        problems = [] if rc == 0 else [f"exit code {rc}"]
        tallies = parse_probe_report(text)
        self.tallies = tallies
        for strategy in STRATEGIES:
            attempts, _, abstentions = tallies.get(strategy, (0, 0, 0))
            want = self.exp["masked_slots"][strategy]
            if attempts + abstentions != want:
                problems.append(f"{strategy}: {attempts}+{abstentions} judged, {want} masked")
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.hashes.setdefault("probe_report", digest) != digest:
            problems.append("probe report differs from the first run")
        self.checks.op(problems, "probe --strategy all")
        return elapsed

    def roundtrip(self) -> float:
        """OM8 -> decode -> SMF bytes -> parse -> encode, per song."""
        elapsed = 0.0
        for path in sorted((self.work / "om8").rglob("*.om8")):
            seq = octomidi.formats.read_om8(path)
            self.begin_op()
            start = time.perf_counter()
            try:
                song = octomidi.encoding.decode_octuple(seq)
                data = octomidi.midi_io.write_smf(song)
                again = octomidi.encoding.encode_octuple(octomidi.midi_io.parse_smf(data))
                problems = [] if again == seq else ["sequence changed"]
            except (OctomidiError, ValueError) as exc:
                problems = [f"raised {exc!r}"]
            elapsed += time.perf_counter() - start
            self.checks.op(problems, f"round trip {path.name}")
        return elapsed

    def warm_up(self) -> None:
        self.encode_tree(Path(self.cfg["long"]), 1)
        self.roundtrip()

    def pass_once(self, index: int, traced: bool) -> None:
        self.timed("encode_s", self.encode_tree(Path(self.cfg["long"]), 1))
        self.timed("probe_s", self.probe())
        for _ in range(self.ROUNDTRIPS_PER_PASS):
            self.timed("roundtrip_s", self.roundtrip())

    def end_to_end(self, scale: float) -> dict[str, float]:
        slots = sum(self.exp["masked_slots"].values())
        return {
            "items_per_s": slots / self.median_s("probe_s", scale),
            "notes_per_s": self.exp["kept_notes"] / self.median_s("roundtrip_s", scale),
        }


def parse_probe_report(text: str) -> dict[str, tuple[int, int, int]]:
    """strategy -> (attempts, correct, abstentions) summed over elements."""
    out: dict[str, list[int]] = {}
    for line in text.splitlines()[1:]:
        parts = line.split()
        if len(parts) == 6 and parts[1] in STRATEGIES:
            row = out.setdefault(parts[1], [0, 0, 0])
            row[0] += int(parts[2])
            row[1] += int(parts[3])
            row[2] += int(parts[5])
    return {k: tuple(v) for k, v in out.items()}


def om8_files(root: Path) -> list[Path]:
    return sorted(root.rglob("*.om8"), key=lambda p: p.relative_to(root).as_posix())


def batch_expectations(om8_dir: Path, mask_seeds: list[int]) -> dict:
    """The batches ``mask`` should write, built in memory via the public API."""
    seqs = [octomidi.formats.read_om8(p) for p in om8_files(om8_dir)]
    batches = {}
    for mask_seed in mask_seeds:
        for strategy in STRATEGIES:
            kind = MaskingStrategy(StrategyKind(strategy), MASK_PROB)
            examples = []
            for ordinal, seq in enumerate(seqs):
                rng = derive_rng(mask_seed, ordinal)
                segment = sample_segment(seq, MASK_MAX_LEN, rng)
                examples.append(make_masked_example(segment, kind, rng))
            buf = io.BytesIO()
            emit_batch(examples, buf)
            batches[f"{strategy}-{mask_seed}"] = {"sha256": hashlib.sha256(buf.getvalue()).hexdigest()}
    return {
        "batches": batches,
        "mask_seeds": mask_seeds,
        "examples": len(seqs),
        "note_rows": sum(min(len(s), MASK_MAX_LEN - 2) for s in seqs),
    }


def masked_note_slots(om8_dir: Path, seed: int) -> dict[str, int]:
    """Masked note slots per strategy for ``probe --seed seed --trials 1``."""
    out = {}
    for strategy in STRATEGIES:
        kind = MaskingStrategy(StrategyKind(strategy), MASK_PROB)
        total = 0
        for ordinal, path in enumerate(om8_files(om8_dir)):
            example = make_masked_example(
                octomidi.formats.read_om8(path), kind, derive_rng(seed, ordinal, 0))
            total += int(example.mask[1:-1].sum())
        out[strategy] = total
    return out


WORKLOADS = {"tree-encode": TreeEncode, "token-batches": TokenBatches, "long-songs": LongSongs}


def per_layer(w: Workload, tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer numbers from the spans of ``passes`` traced passes."""
    rows = tracer.self_times()

    def total(name: str, col: int, tag: str | None = None) -> float:
        return sum(r[col] for (n, t), r in rows.items() if n == name and (tag is None or t == tag))

    def rate(name: str) -> float:
        seconds = total(name, 0)
        return total(name, 3) / seconds if seconds else 0.0

    m: dict[str, float] = {}
    for name in ("midi_io.parse_smf", "midi_io.validate_song", "midi_io.write_smf",
                 "encoding.encode_octuple", "encoding.decode_octuple", "corpus.fingerprint",
                 "corpus.process_file", "corpus.run_pipeline", "reference.reference_counts",
                 "formats.om8_bytes", "formats.read_om8", "formats.omb1_bytes",
                 "formats.read_omb1", "masking.sample_segment", "masking.select_mask_slots",
                 "masking.corrupt_slots", "masking.emit_batch", "leakage.probe_example",
                 "leakage.measure_leakage", "leakage.copy_predict", "cli.mask", "cli.probe"):
        m[f"{name}.self_s"] = total(name, 1) / passes
    for name in ("midi_io.parse_smf", "midi_io.write_smf", "encoding.encode_octuple",
                 "encoding.decode_octuple"):
        m[f"{name}.notes_per_s"] = rate(name)
    m["leakage.copy_predict.calls"] = total("leakage.copy_predict", 2) / passes

    w1 = w.samples.get("encode_w1_s")
    w2 = w.samples.get("encode_w2_s")
    if isinstance(w, TreeEncode) and w1 and w2:
        m["corpus.pool_w1_s"] = statistics.median(w1)
        m["corpus.pool_w2_s"] = statistics.median(w2)
        m["corpus.pool_speedup"] = m["corpus.pool_w1_s"] / m["corpus.pool_w2_s"]
    else:
        m["corpus.pool_w1_s"] = m["corpus.pool_w2_s"] = m["corpus.pool_speedup"] = 0.0
    m["corpus.pool_worker_peak_rss_mb"] = (
        peak_rss_mb(resource.RUSAGE_CHILDREN) if isinstance(w, TreeEncode) else 0.0)

    stats_path = w.work / "om8" / "stats.txt"
    stats = read_stats(stats_path) if stats_path.is_file() else {}
    for key in STATS_KEYS:
        m[f"corpus.{key}"] = stats.get(key, 0)

    shares = getattr(w, "shares", {})
    for strategy in STRATEGIES:
        m[f"masking.masked_slot_share.{strategy}"] = shares.get(strategy, 0.0)
    m["masking.maskable_slots"] = getattr(w, "maskable", 0)

    tallies = getattr(w, "tallies", {})
    for strategy in STRATEGIES:
        attempts, correct, abstentions = tallies.get(strategy, (0, 0, 0))
        seconds = total("leakage.probe_example", 0, strategy)
        m[f"leakage.probe_example.{strategy}.slots_per_s"] = (
            (attempts + abstentions) * passes / seconds if seconds else 0.0)
        m[f"leakage.{strategy}.attempts"] = attempts
        m[f"leakage.{strategy}.correct"] = correct
        m[f"leakage.{strategy}.abstentions"] = abstentions
    return m


def main(argv: list[str]) -> int:
    cfg = json.loads(Path(argv[0]).read_text())
    result_path = Path(argv[1])
    # Errors only: the rejected-file warnings are expected on these inputs.
    logging.basicConfig(stream=sys.stderr, level=logging.ERROR)
    work = Path(cfg["work"])
    checks = Checks()
    w = WORKLOADS[cfg["workload"]](cfg, work, checks)
    w.warm_up()

    tracer = Tracer() if cfg["trace"] else None
    traced_samples: list[float] = []
    untraced_samples: list[float] = []
    # Passes run while the next one, judged by the last, still ends in time.
    start = time.perf_counter()
    last = 0.0
    index = 0
    min_passes = MIN_TRACED_PAIRS if tracer else MIN_PASSES
    while index < min_passes or time.perf_counter() - start + last <= cfg["seconds"]:
        pass_start = time.perf_counter()
        if tracer is None:
            w.pass_once(index, traced=False)
        else:
            # Alternate untraced and traced passes; their difference is the
            # tracing overhead.
            w.pass_once(index, traced=False)
            untraced_samples.append(w.samples[w.pass_key][-1])
            tracer.install()
            w.tracer = tracer
            try:
                w.pass_once(index, traced=True)
            finally:
                tracer.uninstall()
                w.tracer = None
            traced_samples.append(w.samples[w.pass_key].pop())
        last = time.perf_counter() - pass_start
        index += 1

    result = {
        "passes": index,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures[:20],
        "samples": w.samples,
        "hashes": w.hashes,
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
        "speed_samples": w.speed.samples,
        "speed_scale": w.speed.scale(),
        "names": w.names,
    }
    if tracer is None:
        result["end_to_end"] = w.end_to_end(w.speed.scale())
        result["end_to_end_raw"] = w.end_to_end(1.0)
    else:
        layers = per_layer(w, tracer, index)
        untraced = statistics.median(untraced_samples)
        traced = statistics.median(traced_samples)
        layers["trace.untraced_pass_s"] = untraced
        layers["trace.traced_pass_s"] = traced
        layers["trace.overhead_share"] = traced / untraced - 1.0
        result["per_layer"] = layers
        result["missing"] = tracer.missing
        result["spans"] = len(tracer.spans)
        tracer.dump(Path(cfg["spans_out"]))
    result_path.write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
