"""Corpus pipeline: ingest MIDI trees, clean, encode, deduplicate, persist.

Files are processed in lexicographic path order (optionally with a process
pool) and aggregated in that same order, so output files and statistics are
deterministic regardless of scheduling. Per-file failures are counted and
logged, never fatal; only output-directory I/O errors abort a run.

Deduplication fingerprints a song as the FNV-1a 64 hash of its
(instrument, pitch) pairs in canonical order, so two copies differing only
in velocities, tempi, or other elements collapse to one. The copy with the
lexicographically smallest path survives.
"""

from __future__ import annotations

import enum
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .encoding import (
    BAR_MAX,
    COL_BAR,
    COL_INSTRUMENT,
    COL_PITCH,
    OctupleSeq,
    SongBatch,
    encode_octuple,  # not called here: kept for perfbench/spans.py, which wraps these names
    validate_values,
)
from .errors import (
    EmptyCorpusError,
    InvalidTimeSignatureError,
    MalformedMidiError,
    UnrepresentableSignatureError,
)
from .formats import om8_bytes, om8_streams, read_om8  # om8_bytes: as encode_octuple
from .midi_io import CleanVerdict, parse_smf, validate_song
from .reference import batch_counts, reference_counts  # reference_counts: as encode_octuple
from .vocab import ELEMENT_NAMES, ELEMENT_RANGES

log = logging.getLogger(__name__)

MIDI_SUFFIXES = (".mid", ".midi")
TOKEN_SUFFIXES = (".om8",)

# Histogram columns of all eight elements laid end to end, in column order.
_HIST_OFFSETS = np.cumsum((0,) + ELEMENT_RANGES[:-1])
_HIST_SIZE = sum(ELEMENT_RANGES)

FNV64_OFFSET_BASIS = 14695981039346656037
FNV64_PRIME = 1099511628211
_FNV64_MASK = (1 << 64) - 1
_FNV64_PRIME_SQUARED = FNV64_PRIME * FNV64_PRIME & _FNV64_MASK


@dataclass(frozen=True)
class Fingerprint:
    """64-bit digest of a song's (instrument, pitch) sequence."""

    digest: int


def fingerprint(seq) -> Fingerprint:
    """FNV-1a 64 over the (instrument, pitch) pairs as 16-bit LE words.

    Both values are below 256 in every valid sequence, so the high byte of
    each word is 0 and XOR with it changes nothing: one step per value with
    the squared prime covers the word's two bytes.
    """
    digest = FNV64_OFFSET_BASIS
    for value in seq.array[:, [COL_INSTRUMENT, COL_PITCH]].ravel().tolist():
        digest = ((digest ^ value) * _FNV64_PRIME_SQUARED) & _FNV64_MASK
    return Fingerprint(digest)


def deduplicate(songs) -> set[str]:
    """Keep one id per digest: the lexicographically smallest.

    ``songs`` is an iterable of (id, Fingerprint) pairs; the result does not
    depend on iteration order.
    """
    best: dict[int, str] = {}
    for song_id, fp in songs:
        current = best.get(fp.digest)
        if current is None or song_id < current:
            best[fp.digest] = song_id
    return set(best.values())


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    workers: int = 1


class FileStatus(enum.Enum):
    OK = "ok"
    MALFORMED = "malformed"
    BLANK = "blank"


@dataclass
class FileOutcome:
    path: str
    status: FileStatus
    payload: bytes | None = None  # OM8 bytes for usable songs
    # Non-zero element value counts as (indices, counts); see _HIST_OFFSETS.
    histogram: tuple[np.ndarray, np.ndarray] | None = None
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
    root = Path(root)
    top = os.path.join(root, "")
    found = []  # POSIX paths relative to root
    for dirpath, _, names in os.walk(top):  # symlinked directories are not entered
        for name in names:
            dot = name.rfind(".")  # as in Path.suffix, a leading dot starts no suffix
            if dot > 0 and name[dot:].lower() in suffixes and os.path.isfile(os.path.join(dirpath, name)):
                found.append(os.path.join(dirpath[len(top):], name))
    found.sort()
    return [root / rel for rel in found]


def list_token_files(root: str | Path) -> list[Path]:
    """The OM8 files under ``root`` in :func:`list_corpus` order; none is an error."""
    files = list_corpus(root, TOKEN_SUFFIXES)
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

    Each file is read, parsed, checked for blankness and fingerprinted on its
    own; encoding, truncation, reference counts, OM8 bytes and histograms run
    once over the stacked notes of the batch. An unexpected error re-runs the
    batch one file at a time, so only the file that raises it is logged and
    rejected.
    """
    try:
        return _process_batch(paths)
    except Exception as exc:  # keep the run alive whatever a bad file does
        if len(paths) > 1:
            return [outcome for path in paths for outcome in process_batch([path])]
        log.exception("unexpected failure on %s", paths[0])
        return [FileOutcome(paths[0], FileStatus.MALFORMED, error=str(exc))]


def process_file(path: str | Path) -> FileOutcome:
    """Parse, validate, encode, and fingerprint one file. Never raises."""
    return process_batch([str(path)])[0]


def _process_batch(paths: list[str]) -> list[FileOutcome]:
    outcomes: list[FileOutcome | None] = []
    batch = SongBatch()
    for path in paths:
        try:
            song = parse_smf(Path(path).read_bytes())
            if validate_song(song) is CleanVerdict.REJECT_BLANK:
                outcomes.append(FileOutcome(path, FileStatus.BLANK))
                continue
            batch.add(song)  # raises for a signature the grid cannot hold
        except (MalformedMidiError, OSError, UnrepresentableSignatureError,
                InvalidTimeSignatureError) as exc:
            outcomes.append(FileOutcome(path, FileStatus.MALFORMED, error=str(exc)))
            continue
        outcomes.append(None)  # set after the batch pass
    slots = [i for i, outcome in enumerate(outcomes) if outcome is None]
    if not slots:
        return outcomes

    # Fingerprint the full canonical sequences, then truncate to the
    # serializable bar range; duplicates are decided before any notes are
    # dropped.
    count = len(slots)
    rows, song = batch.encode()
    bounds = np.searchsorted(song, np.arange(count + 1)).tolist()
    digests = [fingerprint(OctupleSeq.from_array(rows[a:b], copy=False)).digest
               for a, b in zip(bounds, bounds[1:])]
    keep = rows[:, COL_BAR] <= BAR_MAX
    dropped = np.bincount(song[~keep], minlength=count).tolist()
    if any(dropped):
        rows, song = rows[keep], song[keep]
    validate_values(rows)
    remi, cp = batch_counts(batch, rows, song)
    bounds = np.searchsorted(song, np.arange(count + 1)).tolist()
    payloads = om8_streams(rows, bounds)
    # One count over (song, column offset + value) keys; each song keeps the
    # non-zero entries of its stretch.
    keys = rows + _HIST_OFFSETS
    keys += song[:, None] * _HIST_SIZE
    dense = np.bincount(keys.ravel(), minlength=count * _HIST_SIZE)
    keys = np.flatnonzero(dense)
    cuts = np.searchsorted(keys, np.arange(count + 1) * _HIST_SIZE).tolist()
    for s, slot in enumerate(slots):
        notes, key = bounds[s + 1] - bounds[s], keys[cuts[s]:cuts[s + 1]]
        if not notes:  # every note fell beyond the bar limit
            outcomes[slot] = FileOutcome(paths[slot], FileStatus.BLANK, dropped_notes=dropped[s])
            continue
        hist = ((key - s * _HIST_SIZE).astype(np.uint16), dense[key].astype(np.uint32))
        outcomes[slot] = FileOutcome(
            paths[slot], FileStatus.OK, payload=payloads[s], histogram=hist, note_count=notes,
            remi_count=int(remi[s]), cp_count=int(cp[s]), digest=digests[s],
            dropped_notes=dropped[s])
    return outcomes


def _file_size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0  # reading it fails later, and the file is counted as malformed


def _map_outcomes(files: list[Path], workers: int) -> list[FileOutcome]:
    groups = batches([str(p) for p in files], [_file_size(p) for p in files])
    if workers <= 1 or len(groups) < 2:
        return [outcome for group in groups for outcome in process_batch(group)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [outcome for outs in pool.map(process_batch, groups) for outcome in outs]


def _aggregate(
    root: Path, outcomes: list[FileOutcome], output_dir: Path | None
) -> CorpusStats:
    stats = CorpusStats()
    hist = np.zeros(_HIST_SIZE, dtype=np.int64)
    seen_digests: set[int] = set()
    kept_remi = 0
    kept_cp = 0

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
        assert outcome.payload is not None
        index, count = outcome.histogram
        hist[index] += count
        if output_dir is not None:
            rel = Path(outcome.path).relative_to(root)
            dest = output_dir / rel.parent / (rel.name + ".om8")
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_bytes(outcome.payload)

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
    root = Path(input_dir)
    outcomes = _map_outcomes(list_corpus(root, MIDI_SUFFIXES), config.workers)
    return _aggregate(root, outcomes, output_dir=None)


def run_pipeline(
    input_dir: str | Path,
    output_dir: str | Path,
    config: PipelineConfig = PipelineConfig(),
) -> CorpusStats:
    """Encode a MIDI tree into OM8 files plus a stats report.

    Kept songs are written under ``output_dir`` mirroring the input tree
    (with ``.om8`` appended to the file name); statistics land in
    ``output_dir/stats.txt``. Two runs over the same tree produce identical
    bytes.
    """
    root = Path(input_dir)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    outcomes = _map_outcomes(list_corpus(root, MIDI_SUFFIXES), config.workers)
    stats = _aggregate(root, outcomes, output_dir=out)
    (out / "stats.txt").write_text(stats.to_text())
    return stats


def duplicate_groups(input_dir: str | Path, config: PipelineConfig = PipelineConfig()):
    """Map digest -> paths (sorted) for every digest shared by 2+ files.

    Accepts a tree of MIDI files, of OM8 files, or a mix; OM8 files are
    fingerprinted directly.
    """
    root = Path(input_dir)
    by_digest: dict[int, list[str]] = {}

    for outcome in _map_outcomes(list_corpus(root, MIDI_SUFFIXES), config.workers):
        if outcome.status is FileStatus.OK:
            by_digest.setdefault(outcome.digest, []).append(outcome.path)

    for path in list_corpus(root, TOKEN_SUFFIXES):
        try:
            seq = read_om8(path)
        except ValueError as exc:
            log.warning("skipping unreadable token file %s: %s", path, exc)
            continue
        by_digest.setdefault(fingerprint(seq).digest, []).append(str(path))

    return {
        digest: sorted(paths)
        for digest, paths in by_digest.items()
        if len(paths) > 1
    }
