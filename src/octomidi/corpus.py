"""Corpus pipeline: ingest MIDI trees, clean, encode, deduplicate, persist.

Files are processed in batches in lexicographic path order (optionally with
a process pool) and aggregated batch by batch in that order, so output files
and statistics are deterministic regardless of scheduling. Per-file failures
are counted and logged, never fatal; only output-directory I/O errors abort
a run.

Deduplication fingerprints a song as the FNV-1a 64 hash of its
(instrument, pitch) pairs in canonical order, so two copies differing only
in velocities, tempi, or other elements collapse to one. The copy with the
lexicographically smallest path survives.
"""

from __future__ import annotations

import contextlib
import enum
import logging
import os
import stat
from collections import deque
from collections.abc import Iterator
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .encoding import (
    BAR_MAX,
    COL_BAR,
    COL_INSTRUMENT,
    COL_PITCH,
    SongBatch,
    validate_values,
)
from .errors import EmptyCorpusError
from .formats import OM8_HEADER, _read, _write, om8_streams, read_om8_table
from .midi_io import parse_smf_table
from .vocab import ELEMENT_NAMES, ELEMENT_RANGES, NUM_SPECIALS

log = logging.getLogger(__name__)

MIDI_SUFFIXES = (".mid", ".midi")
TOKEN_SUFFIXES = (".om8",)

# Histogram columns of all eight elements laid end to end, in column order.
_HIST_OFFSETS = np.cumsum((0,) + ELEMENT_RANGES[:-1])
_HIST_SIZE = sum(ELEMENT_RANGES)

FNV64_OFFSET_BASIS = 14695981039346656037
FNV64_PRIME = 1099511628211
_FNV64_PRIME_SQUARED = FNV64_PRIME * FNV64_PRIME % 2**64
_Q_LOW = np.uint8(_FNV64_PRIME_SQUARED & 0xFF)


def batch_fingerprints(rows: np.ndarray, bounds: list[int]) -> list[int]:
    """FNV-1a 64 of each song ``rows[bounds[s]:bounds[s + 1]]``, over its
    (instrument, pitch) pairs as 16-bit LE words.

    Both values are below 256 in every valid sequence, so the high byte of
    each word is 0 and one step per value with the squared prime Q covers
    the word: d' = (d ^ v)·Q. The XOR changes only the low byte l of d, so
    d' = (d + e)·Q with e = (l ^ v) - l, and a song's digest is
    d_0·Q^n + sum of e_k·Q^(n-k), one segmented sum. The low bytes come
    first, one bit per round: bit j of the next low byte is
    l[j] ^ v[j] ^ bit j of ((l ^ v) mod 2^j)·Q, a prefix XOR over the song.
    """
    values = rows[:, [COL_INSTRUMENT, COL_PITCH]].ravel().astype(np.uint8)
    bounds = 2 * np.asarray(bounds, dtype=np.int64)
    lengths = np.diff(bounds)
    first = np.repeat(bounds[:-1], lengths)  # each value's song start
    low = np.zeros(len(values), np.uint8)  # low byte of d before each value
    flips = np.zeros(len(values) + 1, np.uint8)  # prefix XOR of the bit flips
    for j in range(8):
        flip = (((low ^ values) & (1 << j) - 1) * _Q_LOW ^ values) >> j & 1
        np.bitwise_xor.accumulate(flip, out=flips[1:])
        low |= (flips[:-1] ^ flips[first] ^ (FNV64_OFFSET_BASIS >> j & 1)) << j
    powers = np.full(int(lengths.max(initial=0)) + 1, _FNV64_PRIME_SQUARED, np.uint64)
    powers[0] = 1
    np.multiply.accumulate(powers, out=powers)  # Q^m mod 2^64
    terms = (low ^ values).astype(np.uint64) - low  # e, mod 2^64
    terms *= powers[np.repeat(bounds[1:], lengths) - np.arange(len(values))]
    sums = np.zeros(len(values) + 1, np.uint64)
    np.cumsum(terms, out=sums[1:])
    digests = powers[lengths] * np.uint64(FNV64_OFFSET_BASIS) + sums[bounds[1:]] - sums[bounds[:-1]]
    return digests.tolist()


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")


class FileStatus(enum.Enum):
    OK = "ok"
    MALFORMED = "malformed"
    BLANK = "blank"


@dataclass
class FileOutcome:
    path: str
    status: FileStatus
    payload: bytes | None = None  # OM8 bytes for usable songs
    note_count: int = 0
    remi_count: int = 0
    cp_count: int = 0
    digest: int = 0
    dropped_notes: int = 0
    error: str = ""


@dataclass
class CorpusStats:
    """Counters and token-length means for one pipeline run."""

    songs_kept: int = 0
    songs_rejected_malformed: int = 0
    songs_rejected_blank: int = 0
    songs_deduplicated: int = 0
    total_notes: int = 0
    mean_tokens_octuple: float = 0.0
    mean_tokens_cp_like: float = 0.0
    mean_tokens_remi_like: float = 0.0
    notes_dropped_bar_overflow: int = 0
    histograms: dict[str, list[int]] = field(default_factory=dict)

    @property
    def files_seen(self) -> int:
        return (
            self.songs_kept
            + self.songs_rejected_malformed
            + self.songs_rejected_blank
            + self.songs_deduplicated
        )

    def to_text(self) -> str:
        lines = [
            f"files_seen {self.files_seen}",
            f"songs_kept {self.songs_kept}",
            f"songs_rejected_malformed {self.songs_rejected_malformed}",
            f"songs_rejected_blank {self.songs_rejected_blank}",
            f"songs_deduplicated {self.songs_deduplicated}",
            f"total_notes {self.total_notes}",
            f"notes_dropped_bar_overflow {self.notes_dropped_bar_overflow}",
            f"mean_tokens_octuple {self.mean_tokens_octuple:.4f}",
            f"mean_tokens_cp_like {self.mean_tokens_cp_like:.4f}",
            f"mean_tokens_remi_like {self.mean_tokens_remi_like:.4f}",
        ]
        for name in ELEMENT_NAMES:
            counts = self.histograms.get(name)
            if counts is None:
                continue
            for value, count in enumerate(counts):
                if count:
                    lines.append(f"hist_{name} {value} {count}")
        return "\n".join(lines) + "\n"


def list_corpus(root: str | Path, suffixes: tuple[str, ...]) -> list[Path]:
    """Files under ``root`` whose suffix is in ``suffixes`` (any case).

    Sorted by path relative to ``root`` in POSIX form, the order every
    corpus command processes and numbers files in.
    """
    return [Path(path) for path, _ in _listing(Path(root), suffixes)]


def _listing(root: Path, suffixes: tuple[str, ...]) -> list[tuple[str, int]]:
    """(``str(root / relative path)``, size) of each :func:`list_corpus` file, in its
    order, from ``os.walk``, which enters no symlinked directory and lists nothing of
    one it cannot read, and one ``stat`` per candidate: a symlinked file is listed,
    a link that cannot be followed is skipped."""
    prefix = str(root / "x")[:-1]
    found = []
    for top, _, names in os.walk(root):
        rel = (os.path.relpath(top, root) + "/").removeprefix("./")  # "" for root itself
        for name in names:
            dot = name.rfind(".")  # as in Path.suffix, a leading dot starts no suffix
            if dot > 0 and name[dot:].lower() in suffixes:
                try:
                    info = os.stat(path := prefix + rel + name)
                except OSError:
                    continue  # a link that cannot be followed
                if stat.S_ISREG(info.st_mode):
                    found.append((path, info.st_size))
    return sorted(found)


def list_token_files(root: str | Path) -> list[str]:
    """The paths of the OM8 files under ``root`` in :func:`list_corpus` order,
    as the listing gives them; none is an error."""
    files = [path for path, _ in _listing(Path(root), TOKEN_SUFFIXES)]
    if not files:
        raise EmptyCorpusError(f"no .om8 files under {root}")
    return files


# A batch holds at most this many files and input bytes; a larger file goes
# alone, so a worker holds at most max(budget, largest file) of input.
BATCH_FILES = 32
BATCH_BYTES = 64 * 1024


def batches(paths: list[str], sizes: list[int]) -> list[list[str]]:
    """Cut ``paths`` in order into runs within BATCH_FILES and BATCH_BYTES."""
    out: list[list[str]] = []
    total = 0
    for path, size in zip(paths, sizes):
        if not out or len(out[-1]) == BATCH_FILES or total + size > BATCH_BYTES:
            out.append([])
            total = 0
        out[-1].append(path)
        total += size
    return out


def process_batch(paths: list[str]) -> list[FileOutcome]:
    """Outcomes of consecutive files. Never raises.

    The files are parsed into one stacked table; encoding, fingerprints,
    truncation, token counts and OM8 bytes run once over the stacked
    notes of the batch; no song is built on its own. An unexpected
    error re-runs the batch one file at a time, so only the file that raises
    it is logged and rejected.
    """
    try:
        return _process_batch(paths)
    except Exception as exc:  # keep the run alive whatever a bad file does
        if len(paths) > 1:
            return [outcome for path in paths for outcome in process_batch([path])]
        log.exception("unexpected failure on %s", paths[0])
        return [FileOutcome(paths[0], FileStatus.MALFORMED, error=str(exc))]


def _process_batch(paths: list[str]) -> list[FileOutcome]:
    files, errors = [b""] * len(paths), [None] * len(paths)  # b"": malformed, but its read error counts
    for i, path in enumerate(paths):
        try:
            files[i] = _read(path)
        except OSError as exc:
            errors[i] = exc
    table = parse_smf_table(files)
    batch = SongBatch(table)  # leaves out the songs with a signature off the grid
    count = len(paths)

    # Fingerprint the full canonical sequences, then truncate to the
    # serializable bar range; duplicates are decided before any notes are
    # dropped.
    rows, song = batch.encode()
    bounds = np.searchsorted(song, np.arange(count + 1)).tolist()
    digests = batch_fingerprints(rows, bounds)
    keep = rows[:, COL_BAR] <= BAR_MAX
    dropped = np.bincount(song[~keep], minlength=count).tolist()
    if any(dropped):
        rows, song = rows[keep], song[keep]
    validate_values(rows)
    remi, cp = batch.counts(rows, song)
    bounds = np.searchsorted(song, np.arange(count + 1)).tolist()
    payloads = om8_streams(rows, bounds)
    outcomes = []
    for s, path in enumerate(paths):
        notes = bounds[s + 1] - bounds[s]
        if error := errors[s] or table.errors[s] or batch.errors.get(s):
            outcomes.append(FileOutcome(path, FileStatus.MALFORMED, error=str(error)))
        elif not notes:  # blank, or every note fell beyond the bar limit
            outcomes.append(FileOutcome(path, FileStatus.BLANK, dropped_notes=dropped[s]))
        else:
            outcomes.append(FileOutcome(
                path, FileStatus.OK, payload=payloads[s], note_count=notes,
                remi_count=int(remi[s]), cp_count=int(cp[s]), digest=digests[s],
                dropped_notes=dropped[s]))
    return outcomes


def outcome_batches(root: Path, workers: int) -> Iterator[list[FileOutcome]]:
    """Each batch's outcomes for the MIDI files under ``root``, in path order.

    A pool holds at most ``2 * workers`` submitted batches, so results wait
    for the consumer in a bounded window, not for the whole tree.
    """
    os.scandir(root).close()  # a root that is missing or not a directory raises here
    listed = _listing(root, MIDI_SUFFIXES)
    groups = batches([path for path, _ in listed], [size for _, size in listed])
    workers = min(workers, len(groups))  # no more processes than batches
    if workers <= 1:
        yield from map(process_batch, groups)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        window: deque[Future] = deque()
        for group in groups:
            window.append(pool.submit(process_batch, group))
            if len(window) == 2 * workers:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()


def _write_files(files: list[tuple[str, bytes]]) -> None:
    """Write each (path, bytes) pair, on the writer thread; a path whose
    directory is missing, the output root included, gets it made, then is written once more."""
    for path, data in files:
        try:
            _write(path, data)
        except FileNotFoundError:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            _write(path, data)


def _aggregate(root: Path, workers: int, output_dir: Path | None) -> CorpusStats:
    """Fold the outcome batches into statistics, in path order, so the first
    (smallest) path of each digest is the one kept.

    Each batch's kept files go to one writer thread, which makes the output
    root and subdirectories they need, once the previous batch's files are written, so
    writing overlaps parsing the next batch and at most one batch of payloads
    waits. A write error is raised here.
    The element histograms count each batch's kept payloads in one pass.
    """
    stats = CorpusStats()
    hist = np.zeros(_HIST_SIZE, dtype=np.int64)
    seen_digests: set[int] = set()
    kept_remi = kept_cp = 0
    skip = len(str(root / "x")) - 1  # length of the root prefix of each path
    written: Future | None = None  # the previous batch's writes

    stream = outcome_batches(root, workers)
    with ThreadPoolExecutor(max_workers=1) as writer, contextlib.closing(stream):
        for outcomes in stream:
            files, kept = [], []
            for outcome in outcomes:
                stats.notes_dropped_bar_overflow += outcome.dropped_notes
                if outcome.status is FileStatus.MALFORMED:
                    stats.songs_rejected_malformed += 1
                    log.warning("rejected (malformed): %s: %s", outcome.path, outcome.error)
                    continue
                if outcome.status is FileStatus.BLANK:
                    stats.songs_rejected_blank += 1
                    log.warning("rejected (blank): %s", outcome.path)
                    continue
                if outcome.digest in seen_digests:
                    stats.songs_deduplicated += 1
                    log.info("deduplicated: %s", outcome.path)
                    continue
                seen_digests.add(outcome.digest)
                stats.songs_kept += 1
                stats.total_notes += outcome.note_count
                kept_remi += outcome.remi_count
                kept_cp += outcome.cp_count
                kept.append(outcome.payload)
                if output_dir is not None:
                    files.append((os.path.join(output_dir, outcome.path[skip:] + ".om8"), outcome.payload))
            if kept:  # one count over the kept rows' (column offset + value) keys
                ids = np.concatenate([np.frombuffer(p, "<u2", offset=OM8_HEADER.size) for p in kept])
                hist += np.bincount((ids.reshape(-1, 8) + (_HIST_OFFSETS - NUM_SPECIALS)).ravel(),
                                    minlength=_HIST_SIZE)
            if written is not None:
                written.result()
            if files:
                written = writer.submit(_write_files, files)
        if written is not None:
            written.result()

    if stats.songs_kept:
        stats.mean_tokens_octuple = stats.total_notes / stats.songs_kept
        stats.mean_tokens_cp_like = kept_cp / stats.songs_kept
        stats.mean_tokens_remi_like = kept_remi / stats.songs_kept
    stats.histograms = {
        name: counts.tolist()
        for name, counts in zip(ELEMENT_NAMES, np.split(hist, _HIST_OFFSETS[1:]))
    }
    return stats


def scan_corpus(input_dir: str | Path, config: PipelineConfig = PipelineConfig()) -> CorpusStats:
    """Pipeline statistics without persisting any token files."""
    return _aggregate(Path(input_dir), config.workers, output_dir=None)


def run_pipeline(
    input_dir: str | Path,
    output_dir: str | Path,
    config: PipelineConfig = PipelineConfig(),
) -> CorpusStats:
    """Encode a MIDI tree into OM8 files plus a stats report.

    Kept songs are written under ``output_dir`` mirroring the input tree
    (with ``.om8`` appended to the file name); statistics land in
    ``output_dir/stats.txt``. Two runs over the same tree produce identical
    bytes. A missing or non-directory input raises before anything is made; the
    writer makes ``output_dir`` for the first kept song, or this for ``stats.txt``.
    """
    out = Path(output_dir)
    stats = _aggregate(Path(input_dir), config.workers, output_dir=out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "stats.txt").write_text(stats.to_text())
    return stats


def duplicate_groups(input_dir: str | Path, config: PipelineConfig = PipelineConfig()):
    """Map digest -> paths (sorted) for every digest shared by 2+ files.

    Accepts a tree of MIDI files, of OM8 files, or a mix; OM8 files are
    read and fingerprinted by the batch, in the batches of the tree pass.
    """
    root = Path(input_dir)
    by_digest: dict[int, list[str]] = {}

    for outcomes in outcome_batches(root, config.workers):
        for outcome in outcomes:
            if outcome.status is FileStatus.OK:
                by_digest.setdefault(outcome.digest, []).append(outcome.path)

    listed = _listing(root, TOKEN_SUFFIXES)
    for group in batches([path for path, _ in listed], [size for _, size in listed]):
        for path, digest in _token_digests(group):
            by_digest.setdefault(digest, []).append(path)

    return {
        digest: sorted(paths)
        for digest, paths in by_digest.items()
        if len(paths) > 1
    }


def _token_digests(paths: list[str]) -> list[tuple[str, int]]:
    """(path, digest) of each readable OM8 file of a batch, in order. A batch
    that fails to read is re-run one file at a time, as in :func:`process_batch`,
    so only an unreadable file is logged and skipped."""
    try:
        table, bounds = read_om8_table(paths)
    except (ValueError, OSError) as exc:
        if len(paths) > 1:
            return [found for path in paths for found in _token_digests([path])]
        log.warning("skipping unreadable token file %s: %s", paths[0], exc)
        return []
    return list(zip(paths, batch_fingerprints(table - NUM_SPECIALS, bounds)))
