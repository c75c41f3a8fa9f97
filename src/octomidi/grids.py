"""Quantization grids for time signature, tempo, velocity, and duration.

All grids are precomputed lookup tables. Quantizers return the nearest grid
index under the grid's metric; dequantizers return the grid value. Nearest
means: log distance for tempo, absolute distance with ties broken toward the
lower index for velocity and duration.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import InvalidTimeSignatureError, UnrepresentableSignatureError

# ---------------------------------------------------------------------------
# Time signatures
# ---------------------------------------------------------------------------

# A signature n/d is valid when d is a power of two in [1, 64], n is in
# [1, 128], and the bar lasts at most two whole notes (n/d <= 2). Indices are
# assigned ascending by denominator, then numerator, which enumerates exactly
# 254 pairs.
VALID_DENOMINATORS = (1, 2, 4, 8, 16, 32, 64)

TIMESIG_PAIRS: tuple[tuple[int, int], ...] = tuple(
    (n, d) for d in VALID_DENOMINATORS for n in range(1, 2 * d + 1)
)
_TIMESIG_INDEX: dict[tuple[int, int], int] = {
    pair: i for i, pair in enumerate(TIMESIG_PAIRS)
}
TIMESIG_COUNT = len(TIMESIG_PAIRS)


def timesig_index(numerator: int, denominator: int) -> int:
    """Map a valid signature to its table index."""
    try:
        return _TIMESIG_INDEX[(numerator, denominator)]
    except KeyError:
        raise InvalidTimeSignatureError(
            f"unsupported time signature {numerator}/{denominator}"
        ) from None


def timesig_from_index(index: int) -> tuple[int, int]:
    """Inverse of :func:`timesig_index`."""
    if not 0 <= index < TIMESIG_COUNT:
        raise InvalidTimeSignatureError(f"time signature index {index} out of range")
    return TIMESIG_PAIRS[index]


def bar_capacity(numerator: int, denominator: int) -> int:
    """Length of one bar in 1/64-note steps (64 * n / d, always integral)."""
    return 64 * numerator // denominator


def normalize_signature(numerator: int, denominator: int) -> tuple[int, int]:
    """Reduce a raw declared signature onto the supported table.

    Oversize denominators are halved together with the numerator while
    possible. A bar longer than two whole notes is split into
    k = ceil((n/d) / 2) equal sub-bars and the sub-bar signature is returned.

    Raises UnrepresentableSignatureError when no valid signature exists.
    """
    if numerator < 1 or denominator < 1 or denominator & (denominator - 1):
        raise UnrepresentableSignatureError(
            f"signature {numerator}/{denominator} is not on a power-of-two grid"
        )
    while denominator > 64 and numerator % 2 == 0:
        numerator //= 2
        denominator //= 2
    if denominator > 64:
        raise UnrepresentableSignatureError(
            f"denominator {denominator} too fine to represent"
        )
    if numerator > 2 * denominator:
        k = -(-numerator // (2 * denominator))  # ceil(n / 2d)
        sub = Fraction(numerator, denominator * k)
        numerator, denominator = sub.numerator, sub.denominator
        if (numerator, denominator) not in _TIMESIG_INDEX:
            raise UnrepresentableSignatureError(
                f"no equal split of the long bar fits the grid "
                f"(got {numerator}/{denominator})"
            )
    return numerator, denominator


# ---------------------------------------------------------------------------
# Tempo
# ---------------------------------------------------------------------------

# 49 BPM values from 16 to 256 forming a geometric sequence with ratio
# 2 ** (1/12); quantization is nearest neighbor in log space.
TEMPO_BIN_COUNT = 49
TEMPO_GRID = 16.0 * 2.0 ** (np.arange(TEMPO_BIN_COUNT) / 12.0)
_LOG_TEMPO_GRID = np.log(TEMPO_GRID)


def quantize_tempo(bpm: float) -> int:
    """The :func:`quantize_tempo_array` index of one positive tempo."""
    if bpm <= 0:
        raise ValueError(f"BPM must be positive, got {bpm}")
    return int(quantize_tempo_array(np.array([bpm]))[0])


def dequantize_tempo(index: int) -> float:
    return float(TEMPO_GRID[index])


def quantize_tempo_array(bpm: np.ndarray) -> np.ndarray:
    dist = np.abs(np.log(bpm)[:, None] - _LOG_TEMPO_GRID[None, :])
    return np.argmin(dist, axis=1)


# ---------------------------------------------------------------------------
# Velocity
# ---------------------------------------------------------------------------

# 32 values with an interval of 4: 2, 6, 10, ..., 126.
VELOCITY_BIN_COUNT = 32
VELOCITY_GRID = np.arange(2, 2 + 4 * VELOCITY_BIN_COUNT, 4)

# Nearest-grid lookup for every possible MIDI velocity byte; np.argmin takes
# the first minimum, which is the required lower-index tie rule.
_VELOCITY_LUT = np.argmin(
    np.abs(np.arange(128)[:, None] - VELOCITY_GRID[None, :]), axis=1
).astype(np.int64)


def quantize_velocity_array(velocity: np.ndarray) -> np.ndarray:
    return _VELOCITY_LUT[velocity]


# ---------------------------------------------------------------------------
# Duration
# ---------------------------------------------------------------------------

# Mixed-resolution duration grid in 1/64-note units: 128 bins starting at 0
# with step 1 for the first 16 bins, and the step doubling every 16 bins
# after that. Closed form for bin n with t = n // 16:
#   value(n) = 16 * (2**t - 1) + (n % 16) * 2**t
# The top bin is 3952 sixty-fourths (61.75 whole notes).
DURATION_BIN_COUNT = 128
DURATION_GRID = np.array(
    [
        16 * (2 ** (n // 16) - 1) + (n % 16) * 2 ** (n // 16)
        for n in range(DURATION_BIN_COUNT)
    ],
    dtype=np.int64,
)
DURATION_MAX = int(DURATION_GRID[-1])


def quantize_duration_array(steps: np.ndarray) -> np.ndarray:
    steps = np.clip(steps, 0, DURATION_MAX)
    hi = np.searchsorted(DURATION_GRID, steps, side="left")
    lo = np.maximum(hi - 1, 0)
    hi = np.minimum(hi, DURATION_BIN_COUNT - 1)
    # Prefer the lower bin on exact midpoints.
    pick_hi = (DURATION_GRID[hi] - steps) < (steps - DURATION_GRID[lo])
    return np.where(pick_hi, hi, lo)
