"""Exception hierarchy for csirecip, and the one finite-input check.

Every data-dependent failure raises a subclass of :class:`CsiRecipError`,
so callers (and the CLI) can distinguish data errors from programming
errors with a single except clause.
"""

import numpy as np


class CsiRecipError(Exception):
    """Base class for all csirecip data errors."""


class InvalidParameterError(CsiRecipError, ValueError):
    """A rate, duration or other parameter is not finite or outside its range."""


# --- trace ingestion / pairing ---

class MalformedHeaderError(CsiRecipError):
    """CSV header is missing or does not declare i/q columns."""


class EmptyTraceError(CsiRecipError):
    """No usable samples after parsing."""


class SubcarrierOutOfRangeError(CsiRecipError, IndexError):
    """Requested subcarrier index outside the trace's subcarrier count."""


class NoOverlapError(CsiRecipError):
    """Two traces share no sequence-number range, or none dense enough to interpolate."""


class RateMismatchError(CsiRecipError):
    """Two traces to be paired were captured at different packet rates."""


class UnknownRateError(CsiRecipError):
    """The packet rate is neither given nor inferable from the rows."""


# --- metrics ---

class LengthMismatchError(CsiRecipError):
    """Paired inputs (series or key-block lists) must have equal length."""


class DegenerateSeriesError(CsiRecipError):
    """A series has zero variance where variance is required."""


class ConstantPooledRangeError(CsiRecipError):
    """Pooled values are all identical; histogram edges undefined."""


class InvalidMaxLagError(CsiRecipError, ValueError):
    """Lag search bound is negative or not an integer."""


# --- wavelet ---

class GapsPresentError(CsiRecipError, ValueError):
    """Input contains gap markers (NaN); interpolate before transforming."""


class NonFiniteError(CsiRecipError, ValueError):
    """Input contains an infinite sample."""


def finite_series(x, name: str = "input") -> np.ndarray:
    """``x`` as a 1-D float64 array, every sample finite.

    A NaN (gap marker) anywhere raises :class:`GapsPresentError`, else a
    +-inf raises :class:`NonFiniteError`; each names the first such index.
    """
    a = np.asarray(x, dtype=np.float64).ravel()
    if not np.isfinite(a).all():
        nan = np.isnan(a)
        i = int(np.argmax(nan if nan.any() else np.isinf(a)))
        raise (GapsPresentError if nan[i] else NonFiniteError)(
            f"{name} sample {i} is {a[i]}; need finite values, gaps interpolated")
    return a


class TooShortError(CsiRecipError):
    """Input shorter than the transform, lag search or key block requires."""


class EmptyBandError(CsiRecipError):
    """No frequency bins fall inside the requested band."""


# --- reconstruction ---

class BadWindowError(CsiRecipError):
    """Invalid smoothing window (even, too small, or larger than input)."""


class NoFrequencySelectedError(CsiRecipError):
    """Coherence thresholding selected no frequency bins."""


class UnusableCoherenceError(CsiRecipError):
    """Coherence map too weak to support any threshold adaptation."""


# --- key generation ---

class DegenerateBlockError(CsiRecipError):
    """Too few distinct values in a block to place quantizer thresholds."""


class LevelOutOfRangeError(CsiRecipError):
    """Quantization level exceeds the configured level count."""


# --- channel simulation ---

class InvalidBandError(CsiRecipError):
    """Simulated fading band violates the Nyquist constraint."""


class UnknownPresetError(CsiRecipError, ValueError):
    """No channel preset has the requested name."""
