"""Command-line interface.

Subcommands: encode, decode, stats, dedup, mask, probe, roundtrip-check.
Exit code 0 on success, 1 on any aborting error; per-file diagnostics go to
standard error.
"""

from __future__ import annotations

import argparse
import io
import logging
import sys
from pathlib import Path

from . import corpus, formats, leakage, masking
from .encoding import decode_octuple, encode_octuple
from .errors import (InvalidTimeSignatureError, MalformedMidiError, OctomidiError,
                     UnrepresentableSignatureError)
from .masking import MaskingStrategy, StrategyKind
from .midi_io import parse_smf, write_smf

log = logging.getLogger(__name__)

_STRATEGY_CHOICES = [k.value for k in StrategyKind]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octomidi",
        description="Note-tuple tokenization toolkit for symbolic music.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log per-file details")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a MIDI file, or a whole tree of them")
    p.add_argument("input", help="MIDI file ('-' for stdin), or a directory to run the corpus pipeline on")
    p.add_argument("output", help="output token file, or output directory for a tree")
    p.add_argument("--format", choices=["om8", "text"], default="om8",
                   help="single-file output format (trees always write om8)")
    p.add_argument("--workers", type=int, default=1, help="parallel workers for trees")

    p = sub.add_parser("decode", help="decode a token file back to a MIDI file")
    p.add_argument("input", help="OM8 or text token file")
    p.add_argument("output", help="destination .mid path")

    p = sub.add_parser("stats", help="corpus statistics without writing token files")
    p.add_argument("input", help="directory of MIDI files")
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("dedup", help="report duplicate groups in a corpus")
    p.add_argument("input", help="directory of MIDI and/or OM8 files")
    p.add_argument("--report", required=True, help="write the duplicate groups here")
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("mask", help="emit one batch of masked training examples")
    p.add_argument("input", help="directory of OM8 files")
    p.add_argument("--strategy", choices=_STRATEGY_CHOICES, default="bar")
    p.add_argument("--prob", type=float, default=0.15, help="masking probability")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-len", type=int, default=1024, help="segment length budget incl. class/end rows")
    p.add_argument("--out", required=True, help="destination OMB1 file")

    p = sub.add_parser("probe", help="measure copy-from-context leakage")
    p.add_argument("input", help="directory of OM8 files")
    p.add_argument("--strategy", choices=_STRATEGY_CHOICES + ["all"], default="all")
    p.add_argument("--prob", type=float, default=0.15)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1, help="masked examples per song")

    p = sub.add_parser("roundtrip-check", help="verify encode/decode round trips over a MIDI tree")
    p.add_argument("input", help="directory of MIDI files")
    return parser


def _cmd_encode(args) -> int:
    src = Path(args.input)
    if args.input != "-" and src.is_dir():
        stats = corpus.run_pipeline(
            src, args.output, corpus.PipelineConfig(workers=args.workers)
        )
        sys.stdout.write(stats.to_text())
        return 0
    data = sys.stdin.buffer.read() if args.input == "-" else src.read_bytes()
    seq = encode_octuple(parse_smf(data))
    write = formats.write_octuple_text if args.format == "text" else formats.write_om8
    write(seq, args.output)
    return 0


def _cmd_decode(args) -> int:
    data = Path(args.input).read_bytes()
    if data[:4] == formats.OM8_MAGIC:
        seq = formats.om8_from_bytes(data)
    else:
        seq = formats.read_octuple_text(io.StringIO(data.decode()))
    song = decode_octuple(seq)
    Path(args.output).write_bytes(write_smf(song))
    return 0


def _cmd_stats(args) -> int:
    stats = corpus.scan_corpus(args.input, corpus.PipelineConfig(workers=args.workers))
    sys.stdout.write(stats.to_text())
    return 0


def _cmd_dedup(args) -> int:
    groups = corpus.duplicate_groups(
        args.input, corpus.PipelineConfig(workers=args.workers)
    )
    lines = []
    for digest in sorted(groups):
        paths = groups[digest]
        lines.append(f"{digest:016x} kept {paths[0]}")
        for dup in paths[1:]:
            lines.append(f"{digest:016x} drop {dup}")
    text = "\n".join(lines) + ("\n" if lines else "")
    Path(args.report).write_text(text)
    sys.stdout.write(f"duplicate_groups {len(groups)}\n")
    return 0


def _strategy(name: str, prob: float) -> MaskingStrategy:
    return MaskingStrategy(StrategyKind(name), mask_probability=prob)


def _cmd_mask(args) -> int:
    files = corpus.list_token_files(args.input)
    strategy = _strategy(args.strategy, args.prob)
    segments, rngs = [], []
    for ordinal, path in enumerate(files):
        seq = formats.read_om8(path)
        rngs.append(masking.derive_rng(args.seed, ordinal))
        segments.append(masking.sample_segment(seq, args.max_len, rngs[-1]))
    written = masking.write_masked_batch(segments, rngs, strategy, args.out)
    sys.stdout.write(f"examples {len(segments)}\nbytes_written {written}\n")
    return 0


def _cmd_probe(args) -> int:
    names = _STRATEGY_CHOICES if args.strategy == "all" else [args.strategy]
    strategies = [_strategy(name, args.prob) for name in names]
    report = leakage.measure_leakage(args.input, strategies, args.seed, args.trials)
    sys.stdout.write(report.to_text())
    return 0


def _cmd_roundtrip_check(args) -> int:
    files = corpus.list_corpus(args.input, corpus.MIDI_SUFFIXES)
    failures = 0
    checked = 0
    for path in files:
        try:
            first = encode_octuple(parse_smf(path.read_bytes()))
        except (MalformedMidiError, UnrepresentableSignatureError,
                InvalidTimeSignatureError) as exc:
            log.warning("skipping malformed %s: %s", path, exc)
            continue
        second = encode_octuple(decode_octuple(first))
        checked += 1
        if first != second:
            failures += 1
            log.error("round trip mismatch: %s", path)
    sys.stdout.write(f"checked {checked}\nfailures {failures}\n")
    return 1 if failures else 0


_COMMANDS = {
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "stats": _cmd_stats,
    "dedup": _cmd_dedup,
    "mask": _cmd_mask,
    "probe": _cmd_probe,
    "roundtrip-check": _cmd_roundtrip_check,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](args)
    except (OctomidiError, OSError, ValueError) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
