"""Note-tuple tokenization toolkit for symbolic music.

Parses Standard MIDI Files, encodes each note as an 8-element tuple (time
signature, tempo, bar, position, instrument, pitch, duration, velocity),
builds masked-language-model training batches under three masking
strategies, deduplicates corpora by instrument/pitch fingerprints, and
measures how much masked content a copy-from-context attacker recovers.
"""

from .corpus import (
    CorpusStats,
    PipelineConfig,
    run_pipeline,
    scan_corpus,
)
from .encoding import (
    BAR_MAX,
    Octuple,
    OctupleSeq,
    decode_octuple,
    encode_octuple,
)
from .errors import (
    EmptyCorpusError,
    InvalidTimeSignatureError,
    MalformedMidiError,
    OctomidiError,
    UnrepresentableSignatureError,
)
from .formats import read_om8, read_omb1, write_om8
from .grids import dequantize_tempo, quantize_tempo, timesig_from_index, timesig_index
from .leakage import LeakageReport, measure_leakage
from .masking import (
    MaskedExample,
    MaskingStrategy,
    StrategyKind,
    derive_rng,
    emit_batch,
    make_masked_example,
    sample_segment,
)
from .midi_io import MidiSong, TimedNote, parse_smf, write_smf

__version__ = "0.1.0"

__all__ = [
    "BAR_MAX",
    "CorpusStats",
    "EmptyCorpusError",
    "InvalidTimeSignatureError",
    "LeakageReport",
    "MalformedMidiError",
    "MaskedExample",
    "MaskingStrategy",
    "MidiSong",
    "Octuple",
    "OctupleSeq",
    "OctomidiError",
    "PipelineConfig",
    "StrategyKind",
    "TimedNote",
    "UnrepresentableSignatureError",
    "decode_octuple",
    "dequantize_tempo",
    "derive_rng",
    "emit_batch",
    "encode_octuple",
    "make_masked_example",
    "measure_leakage",
    "parse_smf",
    "quantize_tempo",
    "read_om8",
    "read_omb1",
    "run_pipeline",
    "sample_segment",
    "scan_corpus",
    "timesig_from_index",
    "timesig_index",
    "write_om8",
    "write_smf",
]
