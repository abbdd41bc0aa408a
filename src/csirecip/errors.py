"""Exception hierarchy for csirecip, the one finite-input check, the one
integer-argument check and the one frozen-array rule.

Every data-dependent failure raises a subclass of :class:`CsiRecipError`,
so callers (and the CLI) can distinguish data errors from programming
errors with a single except clause.  Any bad argument or field raises
:class:`InvalidParameterError` (also a ``ValueError``) naming the value.
"""

import operator

import numpy as np


class CsiRecipError(Exception):
    """Base class for all csirecip data errors."""


class InvalidParameterError(CsiRecipError, ValueError):
    """An argument or field is outside its range: a rate, window, lag bound, band or level."""


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
    """A series, or two pooled, has zero variance or range where spread is required."""


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


def integer(value, name: str) -> int:
    """``value`` as a Python int by ``operator.index``, so a numpy integer passes and
    a float, even 2.0, raises :class:`InvalidParameterError` naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}") from None


def _freeze(obj, **dtypes) -> None:
    """Set each named field of the frozen dataclass ``obj`` to a read-only C-ordered
    array of its dtype (None: as given).  An array already read-only is kept; any
    other is copied, so the caller's own array stays writeable and apart."""
    for name, dtype in dtypes.items():
        a = np.asarray(getattr(obj, name), dtype=dtype, order="C")
        if a.flags.writeable:
            a = a.copy()
            a.setflags(write=False)
        object.__setattr__(obj, name, a)


class TooShortError(CsiRecipError):
    """Input shorter than the transform, lag search or key block requires."""


class EmptyBandError(CsiRecipError):
    """No frequency bins fall inside the requested band."""


# --- reconstruction ---

class UnusableCoherenceError(CsiRecipError):
    """Coherence map too weak for any frequency bin to be selected."""


# --- key generation ---

class DegenerateBlockError(CsiRecipError):
    """Too few distinct values in a block to place quantizer thresholds."""


# --- channel simulation ---

class UnknownPresetError(CsiRecipError, ValueError):
    """No channel preset has the requested name."""
