"""In-memory span tracer that wraps the package's public functions.

Each wrapped function is replaced, under the name its caller looks it up by
(``octomidi.corpus.parse_smf``, ``octomidi.leakage.copy_predict``, ...), with
a wrapper that records a span: name, tag, start, end, parent span and
operation id. Spans nest because every call happens on one thread. They stay
in memory until ``dump`` writes them out.

A wrapped name that no longer exists is reported in ``missing`` and skipped,
so the benchmark keeps running on code that renamed or removed it.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _result_notes(args, result) -> int:
    return len(result.notes)


def _result_len(args, result) -> int:
    return len(result)


def _arg_notes(args, result) -> int:
    return len(args[0].notes)


def _strategy_arg(args, kwargs) -> str:
    return args[1] if len(args) > 1 else kwargs.get("strategy_name", "")


# (module the caller reads the name from, attribute, span name,
# (args, result) -> notes handled, (args, kwargs) -> tag).
TARGETS = [
    ("octomidi.corpus", "run_pipeline", "corpus.run_pipeline", None, None),
    ("octomidi.corpus", "process_file", "corpus.process_file", None, None),
    ("octomidi.corpus", "parse_smf", "midi_io.parse_smf", _result_notes, None),
    ("octomidi.corpus", "validate_song", "midi_io.validate_song", None, None),
    ("octomidi.corpus", "encode_octuple", "encoding.encode_octuple", _result_len, None),
    ("octomidi.corpus", "fingerprint", "corpus.fingerprint", None, None),
    ("octomidi.corpus", "reference_counts", "reference.reference_counts", None, None),
    ("octomidi.corpus", "om8_bytes", "formats.om8_bytes", None, None),
    ("octomidi.formats", "read_om8", "formats.read_om8", None, None),
    ("octomidi.leakage", "read_om8", "formats.read_om8", None, None),
    ("octomidi.formats", "omb1_bytes", "formats.omb1_bytes", None, None),
    ("octomidi.formats", "read_omb1", "formats.read_omb1", None, None),
    ("octomidi.masking", "sample_segment", "masking.sample_segment", None, None),
    ("octomidi.masking", "select_mask_slots", "masking.select_mask_slots", None, None),
    ("octomidi.masking", "corrupt_slots", "masking.corrupt_slots", None, None),
    ("octomidi.masking", "emit_batch", "masking.emit_batch", None, None),
    ("octomidi.leakage", "measure_leakage", "leakage.measure_leakage", None, None),
    ("octomidi.leakage", "probe_example", "leakage.probe_example", None, _strategy_arg),
    ("octomidi.leakage", "copy_predict", "leakage.copy_predict", None, None),
    ("octomidi.encoding", "decode_octuple", "encoding.decode_octuple", _result_notes, None),
    ("octomidi.encoding", "encode_octuple", "encoding.encode_octuple", _result_len, None),
    ("octomidi.midi_io", "write_smf", "midi_io.write_smf", _arg_notes, None),
    ("octomidi.midi_io", "parse_smf", "midi_io.parse_smf", _result_notes, None),
]


class Tracer:
    """Collects spans while installed; ``op`` tags spans with an operation id."""

    def __init__(self) -> None:
        # (span id, parent id, op, name, tag, start, end, work count)
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self.op = 0
        self._stack: list[int] = [-1]
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self.op, name, "", start, end, 0)

    def _wrap(self, func, name, count, tag_of):
        # Same bookkeeping as ``span``, inlined: ``copy_predict`` alone is
        # called about 50,000 times per probe pass.
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, self.op, name,
                              tag_of(args, kwargs) if tag_of else "", start, end, 0)
            if count is not None:
                spans[sid] = spans[sid][:7] + (count(args, result),)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, count, tag_of in TARGETS:
            module = importlib.import_module(module_name)
            func = getattr(module, attr, None)
            if func is None:
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, func))
            setattr(module, attr, self._wrap(func, name, count, tag_of))

    def uninstall(self) -> None:
        for module, attr, func in reversed(self._patched):
            setattr(module, attr, func)
        self._patched.clear()

    def self_times(self) -> dict[tuple[str, str], list[float]]:
        """(name, tag) -> [total seconds, self seconds, calls, work count]."""
        child_time = defaultdict(float)
        for sid, parent, _, _, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0.0, 0.0, 0, 0])
        for sid, _, _, name, tag, start, end, work in self.spans:
            row = out[(name, tag)]
            row[0] += end - start
            row[1] += end - start - child_time[sid]
            row[2] += 1
            row[3] += work
        return dict(out)

    def dump(self, path: Path) -> None:
        """One span per line: id parent op name tag start end work."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("id parent op name tag start_s end_s work\n")
            for sid, parent, op, name, tag, start, end, work in self.spans:
                fh.write(f"{sid} {parent} {op} {name} {tag or '-'} {start:.9f} {end:.9f} {work}\n")
