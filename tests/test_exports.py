"""The names the package exports."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import octomidi
from octomidi import corpus, encoding, formats, grids, masking, midi_io, vocab
from octomidi.encoding import OctupleSeq, decode_octuple, encode_octuple

# Removed from the package, with no replacement under the same name.
REMOVED = {
    grids: ["quantize_duration", "quantize_velocity", "dequantize_duration", "dequantize_velocity",
            "split_long_bars"],
    midi_io: ["validate_song", "CleanVerdict", "parse_smf_batch", "normalize_events"],
    encoding: ["ConversionReport"],
    OctupleSeq: ["is_canonical", "to_array"],
    corpus: ["fingerprint"],
    formats: ["om8_from_bytes", "write_omb1_buffer"],
    masking: ["NO_TARGET"],
    vocab: ["VocabLayout", "VOCAB"],
}
# Removed parameters of functions that remain.
REMOVED_PARAMETERS = {
    encode_octuple: ["bar_limit", "report"],
    decode_octuple: ["report"],
    formats._read: ["mode"],
}


def test_every_exported_name_resolves():
    assert len(set(octomidi.__all__)) == len(octomidi.__all__)
    for name in octomidi.__all__:
        assert hasattr(octomidi, name), name


def test_star_import_yields_exactly_all():
    namespace = {}
    exec("from octomidi import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(octomidi.__all__)


def test_removed_names_are_gone():
    for owner, names in REMOVED.items():
        for name in names:
            assert name not in octomidi.__all__, name
            assert not hasattr(octomidi, name), name
            assert not hasattr(owner, name), name
    for func, names in REMOVED_PARAMETERS.items():
        for name in names:
            assert name not in inspect.signature(func).parameters, name


def test_removed_modules_are_gone():
    # The token counts moved to SongBatch.counts.
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("octomidi.reference")


def test_importing_the_package_leaves_numpy_random_unloaded():
    # numpy.random costs every command megabytes of memory and milliseconds of
    # start-up, and only mask and probe draw random numbers. numpy 1.x imports it
    # with numpy itself, so only what octomidi adds on top of numpy is held here.
    env = {**os.environ, "PYTHONPATH": str(Path(octomidi.__file__).parents[1])}
    code = ("import sys, numpy; pre = 'numpy.random' in sys.modules; import octomidi.cli; "
            "assert pre or 'numpy.random' not in sys.modules, 'imported'")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
