"""Exception hierarchy for csirecip, the one series rule (with its finite-input
check), the one order rule (monotone), the scalar-argument rules (integer, real,
the band rule pair built on real, and choice for a named option), the type rule
instance and the one record rule for frozen dataclasses with array fields.

Every data-dependent failure raises a subclass of :class:`CsiRecipError`,
so callers (and the CLI) can distinguish data errors from programming
errors with a single except clause.  Any bad argument or field raises
:class:`InvalidParameterError` (also a ``ValueError``) naming the value.
"""

import numbers
import operator
from dataclasses import dataclass, fields
from math import inf, isfinite, nan

import numpy as np


class CsiRecipError(Exception):
    """Base class for all csirecip data errors."""


class InvalidParameterError(CsiRecipError, ValueError):
    """An argument or field is outside its range: a rate, window, lag bound, band or level."""


# --- trace ingestion / pairing ---

class MalformedHeaderError(CsiRecipError):
    """CSV text is not UTF-8, or its header is missing or does not declare i/q columns."""


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


def real_series(x, name: str, empty: bool = False) -> np.ndarray:
    """``x`` as a float64 array, if it is a 1-D series of ints or floats, nonempty unless
    ``empty``: else :class:`InvalidParameterError` naming its shape and dtype."""
    try:
        a = np.asarray(x)
    except ValueError:  # a ragged nested sequence
        a = np.asarray(x, dtype=object)
    if a.ndim != 1 or a.dtype.kind not in "iuf":
        raise InvalidParameterError(
            f"{name} must be a 1-D real series, got shape {a.shape} of dtype {a.dtype}")
    if not (a.size or empty):
        raise InvalidParameterError(
            f"{name} must be a nonempty 1-D real series, got shape {a.shape} of dtype {a.dtype}")
    return a.astype(np.float64, copy=False)


def finite_series(x, name: str, empty: bool = False) -> np.ndarray:
    """``x`` as by :func:`real_series`, every sample finite.

    A NaN (gap marker) anywhere raises :class:`GapsPresentError`, else a
    +-inf raises :class:`NonFiniteError`; each names the first such index.
    """
    a = real_series(x, name, empty)
    if not np.isfinite(a).all():
        nan = np.isnan(a)
        i = int(np.argmax(nan if nan.any() else np.isinf(a)))
        raise (GapsPresentError if nan[i] else NonFiniteError)(
            f"{name} sample {i} is {a[i]}; need finite values, gaps interpolated")
    return a


def monotone(a: np.ndarray, name: str, descending: bool = False) -> None:
    """Pass if the array ``a`` is 1-D and each item lies above the one before (below, if
    ``descending``): else :class:`InvalidParameterError`, ``{name} must be 1-D, got shape …``
    or ``{name} must be strictly increasing`` (``descending``) ``, got {a[i]} after {a[i - 1]}
    at row {i}``."""
    if a.ndim != 1:
        raise InvalidParameterError(f"{name} must be 1-D, got shape {a.shape}")
    # compared, not differenced: np.diff would wrap past int64, and a NaN fails either order
    bad = ~(a[1:] < a[:-1] if descending else a[1:] > a[:-1])
    if bad.any():
        i = int(np.argmax(bad)) + 1
        raise InvalidParameterError(
            f"{name} must be strictly {'descending' if descending else 'increasing'}, "
            f"got {a[i]} after {a[i - 1]} at row {i}")


def integer(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as an int by ``operator.index`` (a numpy integer passes, a float or a bool
    does not), in ``[lo, hi)``: else :class:`InvalidParameterError`, ``{name} must be an
    integer``, ``must be >= {lo}`` or ``must be in [{lo}, {hi})``, ``got …``."""
    try:
        i = None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        i = None
    if i is None:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if hi is not None and not lo <= i < hi:
        raise InvalidParameterError(f"{name} must be in [{lo}, {hi}), got {i}")
    if lo is not None and i < lo:
        raise InvalidParameterError(f"{name} must be >= {lo}, got {i}")
    return i


def real(value, name: str, hi: float | None = None, zero: bool = False) -> float:
    """``value`` as a float, if it is a real number but not a bool, finite, above 0 (or at 0,
    with ``zero``) and at most ``hi``: else :class:`InvalidParameterError`, ``{name} must be
    finite and positive`` (``>= 0``) or ``must be in (0, {hi}]`` (``[0``), ``got {value!r}``."""
    try:
        x = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else nan
    except OverflowError:  # an int past the float range
        x = inf
    if isfinite(x) and (x >= 0 if zero else x > 0) and (hi is None or x <= hi):
        return x
    if hi is None:
        raise InvalidParameterError(
            f"{name} must be finite and {'>= 0' if zero else 'positive'}, got {value!r}")
    raise InvalidParameterError(f"{name} must be in {'[' if zero else '('}0, {hi}], got {value!r}")


def pair(value, name: str, zero: bool = False) -> tuple[float, float]:
    """``value`` as two floats, if it holds exactly two items that pass :func:`real` (with
    ``zero``) as ``{name}[0]`` and ``{name}[1]``: else :class:`InvalidParameterError`,
    ``{name} must be a pair (f_lo, f_hi), got …``, or the edge's own message."""
    try:
        lo, hi = value
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{name} must be a pair (f_lo, f_hi), got {value!r}") from None
    return real(lo, f"{name}[0]", zero=zero), real(hi, f"{name}[1]", zero=zero)


def choice(value, name: str, options: tuple[str, ...]) -> str:
    """``value``, if it is one of the strings ``options``: else :class:`InvalidParameterError`,
    ``{name} must be one of {options}, got {value!r}``."""
    if not (isinstance(value, str) and value in options):
        raise InvalidParameterError(f"{name} must be one of {options}, got {value!r}")
    return value


def instance(value, name: str, kinds: tuple[type, ...]):
    """``value``, if it is an instance of one of ``kinds``: else
    :class:`InvalidParameterError`, ``{name} must be of type {kinds}, got {value!r}``."""
    if not isinstance(value, kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise InvalidParameterError(f"{name} must be of type {names}, got {value!r}")
    return value


def _record(**dtypes):
    """Class decorator: the frozen dataclass of the class, whose fields named in ``dtypes``
    hold read-only C-ordered arrays of their dtype (None: as given), set before the class's
    own ``__post_init__`` runs.  An array already read-only is kept; any other is copied, so
    the caller's own array stays writeable and apart.  A value that cannot become its array
    raises :class:`InvalidParameterError` naming it.  Two records are equal when they are of
    one class and every ``compare`` field is equal, arrays by ``np.array_equal``."""
    def build(cls):
        checks = cls.__dict__.get("__post_init__")

        def __post_init__(self):
            for name, dtype in dtypes.items():
                value = getattr(self, name)
                try:
                    a = np.asarray(value, dtype=dtype, order="C")
                except (TypeError, ValueError, OverflowError):  # not numbers, ragged, past int64
                    kind = "" if dtype is None else f" of {np.dtype(dtype)}"
                    raise InvalidParameterError(
                        f"{name} must be an array{kind}, got {value!r}") from None
                if a.flags.writeable:
                    a = a.copy()
                    a.setflags(write=False)
                object.__setattr__(self, name, a)
            if checks is not None:
                checks(self)

        def __eq__(self, other) -> bool:
            if other.__class__ is not self.__class__:
                return NotImplemented
            return all((np.array_equal if f.name in dtypes else operator.eq)(
                getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare)

        cls.__post_init__, cls.__eq__ = __post_init__, __eq__
        return dataclass(frozen=True)(cls)
    return build


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

class UnknownPresetError(InvalidParameterError):
    """No channel preset has the requested name (a non-string included)."""
