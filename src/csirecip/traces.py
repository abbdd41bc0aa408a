"""CSI trace data types, CSV ingestion, and AP/STA pairing.

A trace is a sequence-numbered series of per-subcarrier complex channel
estimates for one device.  Missing sequence numbers encode packet loss;
nothing is ever silently resampled or reordered.

CSV format (one packet per row, LF line endings, UTF-8)::

    seq,t,dev,i0,q0,i1,q1,...,i{N-1},q{N-1}

The header row declares the subcarrier count N through its i/q columns.
Rows for lost packets are simply absent.  A leading byte-order mark is
skipped.
"""

from __future__ import annotations

import io
from dataclasses import field
from math import isfinite

import numpy as np

from .errors import (
    EmptyTraceError,
    InvalidParameterError,
    MalformedHeaderError,
    NoOverlapError,
    RateMismatchError,
    SubcarrierOutOfRangeError,
    UnknownRateError,
    _record,
    choice,
    instance,
    integer,
    monotone,
    real,
)

RATE_TOLERANCE = 0.01  # relative packet-rate difference pair_traces accepts
_MISSING_PER_ROW = 1000  # missing_seqs lists at most this many absent seqs per row


@_record(seqs=np.int64, t=np.float64, iq=np.complex128)
class CsiTrace:
    """One device's CSI as columns: packet ``seqs[i]``, captured at ``t[i]``, is row ``iq[i]``."""

    device_id: str
    subcarriers: int
    rate_hz: float
    seqs: np.ndarray  # int64, strictly increasing
    t: np.ndarray  # float64 capture times
    iq: np.ndarray  # complex128, packets x subcarriers
    parse_stats: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        real(self.rate_hz, "rate_hz")
        object.__setattr__(self, "subcarriers", integer(self.subcarriers, "subcarriers", 1))
        if any(c in instance(self.device_id, "device_id", (str,)) for c in ",\n\r"):
            raise InvalidParameterError(  # it would break its CSV row
                f"device_id {self.device_id!r} must not hold ',', '\\n' or '\\r'")
        seqs, t, iq = self.seqs, self.t, self.iq
        if seqs.ndim != 1 or t.shape != seqs.shape or iq.shape != (len(seqs), self.subcarriers):
            raise InvalidParameterError(
                f"need seqs and t of one length and iq of (len(seqs), {self.subcarriers}); "
                f"got seqs {seqs.shape}, t {t.shape}, iq {iq.shape}"
            )
        monotone(seqs, "seqs")
        for what, vals in (("capture time", t[:, None]), ("i/q value", iq)):
            if not np.isfinite(vals).all():
                row, col = np.argwhere(~np.isfinite(vals))[0]
                raise InvalidParameterError(
                    f"non-finite {what} at seq {seqs[row]}: {vals[row, col].item()!r}")

    def __len__(self) -> int:
        return len(self.seqs)

    def missing_seqs(self) -> np.ndarray:
        """Sequence numbers absent between the first and last sample.  More than
        ``_MISSING_PER_ROW`` per row raise :class:`InvalidParameterError`, so memory
        follows the rows and not the seq values."""
        n = len(self.seqs)
        missing = int(self.seqs[-1]) - int(self.seqs[0]) + 1 - n if n else 0  # no int64 wrap
        if missing > _MISSING_PER_ROW * n:
            raise InvalidParameterError(
                f"{n} rows with seqs {self.seqs[0]}..{self.seqs[-1]} miss more than "
                f"{_MISSING_PER_ROW} seqs per row")
        step = np.diff(self.seqs)
        gap = step > 1
        counts = step[gap] - 1
        run_start = np.repeat(np.cumsum(counts) - counts, counts)
        return np.repeat(self.seqs[:-1][gap] + 1, counts) + (np.arange(counts.sum()) - run_start)


@_record(values=np.float64, seqs=np.int64)
class MagnitudeSeries:
    """Magnitudes of one subcarrier across a trace; a seq absent from ``seqs`` is a lost packet."""

    subcarrier: int
    values: np.ndarray
    seqs: np.ndarray
    rate_hz: float

    def __post_init__(self):
        real(self.rate_hz, "rate_hz")
        if self.values.shape != self.seqs.shape:
            raise InvalidParameterError(f"values and seqs must have equal length, got shapes "
                                        f"{self.values.shape} and {self.seqs.shape}")
        monotone(self.seqs, "seqs")
        if not np.isfinite(self.values).all():
            i = int(np.argmin(np.isfinite(self.values)))
            raise InvalidParameterError(f"non-finite magnitude at seq {self.seqs.flat[i]}: "
                                        f"{self.values.flat[i].item()!r}")
        if np.any(self.values < 0):
            i = int(np.argmax(self.values < 0))
            raise InvalidParameterError(
                f"magnitudes must be non-negative, got {self.values.flat[i]} at index {i}")

    def __len__(self) -> int:
        return len(self.values)


def parse_csi_csv(stream, rate_hz: float | None = None) -> CsiTrace:
    """Parse the documented CSI CSV format into a :class:`CsiTrace`.

    ``stream`` may be bytes, str, or a file-like object.  Rows that fail to
    parse or hold a value that is not finite are rejected and recorded by
    row index; of the rest, a row is kept only if its seq exceeds every
    earlier one, so out-of-order rows are dropped (sorting would fabricate
    a loss-free trace) and duplicated seq numbers keep the first
    occurrence.  The device id is the last kept row's.  Counts of
    everything dropped live in ``trace.parse_stats``.

    A clean file is converted in one columnar pass through numpy's C
    reader; any other file goes through the row loop, with the same result.
    Either way the one row rule above then picks the rows.

    When ``rate_hz`` is None the nominal packet rate is inferred from the
    seq/time span of the accepted rows; :class:`UnknownRateError` is
    raised when they hold one row, or their times do not increase, or the
    spans give no finite positive rate.
    """
    read = getattr(stream, "read", None)  # bytes and str have none
    text = instance(stream if read is None else read(), "stream", (bytes, str))
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            line = text.count(b"\n", 0, e.start) + 1
            raise MalformedHeaderError(f"line {line} is not UTF-8: byte {text[e.start]:#04x} "
                                       f"at offset {e.start}") from None

    text = text.removeprefix("\ufeff")
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise MalformedHeaderError("empty input")

    header = [c.strip() for c in lines[0].split(",")]
    if header[:3] != ["seq", "t", "dev"]:
        raise MalformedHeaderError(f"expected 'seq,t,dev,...' header, got {lines[0]!r}")
    iq_cols = header[3:]
    n_sub = len(iq_cols) // 2
    expected = [f"{p}{k}" for k in range(n_sub) for p in ("i", "q")]
    if n_sub == 0 or iq_cols != expected:
        raise MalformedHeaderError("header does not declare i0,q0,...,i{N-1},q{N-1}")

    body = lines[1:]
    seqs, ts, iq, device_id, parse_stats = _keep_rows(
        body, *(_parse_columns(text, body, n_sub) or _parse_rows(body, n_sub)))
    if not len(seqs):
        raise EmptyTraceError("no rows survived parsing")
    for col in (seqs, ts, iq):  # built here, so the trace takes them without a copy
        col.setflags(write=False)

    if rate_hz is None:
        t0, t1 = float(ts[0]), float(ts[-1])
        if len(seqs) == 1 or not t1 > t0:
            why = (f"t that does not increase ({t0!r} to {t1!r})" if len(seqs) > 1
                   else "a single row")
            raise UnknownRateError(f"cannot infer the packet rate from {why}; pass rate_hz")
        rate_hz = (int(seqs[-1]) - int(seqs[0])) / (t1 - t0)
        if not (isfinite(rate_hz) and rate_hz > 0):
            raise UnknownRateError(f"seqs {int(seqs[0])} to {int(seqs[-1])} over t {t0!r} to "
                                   f"{t1!r} give rate {rate_hz!r} Hz; pass rate_hz")

    return CsiTrace(
        device_id=device_id,
        subcarriers=n_sub,
        rate_hz=real(rate_hz, "rate_hz"),
        seqs=seqs,
        t=ts,
        iq=iq.view(np.complex128),  # i, q interleaved
        parse_stats=parse_stats,
    )


def _keep_rows(body, seq, t, iq, unread):
    """The row rule, on the columns a pass converted from ``body`` and the indices of the
    body rows it could not: a row with a non-finite value is bad, and a finite row is kept
    only if its seq exceeds every earlier one (equal is a duplicate, lower is out of order).
    Returns the kept columns, the device read from the last kept row's line, the stats."""
    body_idx = np.delete(np.arange(1, len(t) + len(unread) + 1), np.asarray(unread, np.intp) - 1)
    finite = np.isfinite(t) & np.isfinite(iq).all(axis=1)
    rows = np.flatnonzero(finite)
    prev_max = np.maximum.accumulate(seq[rows])[:-1]
    later = seq[rows[1:]]
    kept = rows[np.r_[True, later > prev_max][:len(rows)]]
    device_id = body[body_idx[kept[-1]] - 1].split(",", 3)[2] if len(kept) else ""
    return (seq[kept], t[kept], iq[kept], device_id,
            {"bad_rows": sorted(unread + body_idx[~finite].tolist()),
             "duplicates": int(np.count_nonzero(later == prev_max)),
             "out_of_order": int(np.count_nonzero(later < prev_max))})


def _parse_columns(text: str, body: list[str], n_sub: int):
    """The columnar pass over ``body``, the lines of ``text`` after its header: the
    columns as :func:`_parse_rows` converts them, or None unless numpy's reader reads
    every row, each of 3 + 2 * n_sub fields.

    Within ASCII, numpy's reader reads a field as ``int()`` and ``float()`` do,
    except that it strips \\x1c-\\x1f; beyond ASCII it misreads some characters
    as digits.  So text holding either goes to the row loop.
    """
    if (not text.isascii() or any(c in text for c in "\x1c\x1d\x1e\x1f")
            or {ln.count(",") for ln in body} != {2 + 2 * n_sub}):
        return None
    dtype = np.dtype([("seq", np.int64), ("t", np.float64), ("iq", np.float64, (2 * n_sub,))])
    try:
        cols = np.loadtxt(body, dtype=dtype, delimiter=",", comments=None, ndmin=1,
                          usecols=[0, 1, *range(3, 3 + 2 * n_sub)])
    except ValueError:  # a field neither int64 nor float, or a \r inside a row
        return None
    return cols["seq"], cols["t"], cols["iq"], []


def _parse_rows(body: list[str], n_sub: int):
    """The row loop: ``int()`` and ``float()`` on every field of each row of 3 + 2 * n_sub
    fields, an int64 seq and no \\r in its device; any other row recorded by its index."""
    seqs: list[int] = []
    rows: list[list[float]] = []  # t, then the i/q values
    unread: list[int] = []
    for idx, line in enumerate(body, start=1):
        parts = line.split(",")
        try:
            seq = int(parts[0])
            if len(parts) != 3 + 2 * n_sub or "\r" in parts[2] or not -2 ** 63 <= seq < 2 ** 63:
                raise ValueError
            rows.append([float(v) for v in parts[1:2] + parts[3:]])
        except ValueError:
            unread.append(idx)
            continue
        seqs.append(seq)
    cols = np.array(rows, dtype=np.float64).reshape(len(rows), 1 + 2 * n_sub)
    return np.array(seqs, dtype=np.int64), cols[:, 0], cols[:, 1:], unread


def write_csi_csv(trace: CsiTrace, stream=None) -> str | None:
    """Serialize a trace back to the documented CSV format.

    Floats are written with repr precision, so parse -> write round-trips
    accepted rows bit-exactly.  The text goes to ``stream``'s ``write`` and
    ``writelines``, or is returned when ``stream`` is None.
    """
    instance(trace, "trace", (CsiTrace,))
    if stream is not None and not all(callable(getattr(stream, m, None))
                                      for m in ("write", "writelines")):
        raise InvalidParameterError(f"stream must have write and writelines, got {stream!r}")
    out = io.StringIO() if stream is None else stream
    cols = ",".join(f"i{k},q{k}" for k in range(trace.subcarriers))
    out.write(f"seq,t,dev,{cols}\n")
    dev = trace.device_id
    out.writelines(
        f"{s},{t!r},{dev},{','.join(map(repr, iq))}\n"
        for s, t, iq in zip(trace.seqs.tolist(), trace.t.tolist(),
                            trace.iq.view(np.float64).tolist())
    )
    if stream is None:
        return out.getvalue()
    return None


def magnitude_series(trace: CsiTrace, subcarrier: int) -> MagnitudeSeries:
    """Extract |iq[subcarrier]| per sample, preserving sample order."""
    subcarrier = integer(subcarrier, "subcarrier")
    if not 0 <= subcarrier < instance(trace, "trace", (CsiTrace,)).subcarriers:
        raise SubcarrierOutOfRangeError(
            f"subcarrier {subcarrier} outside [0, {trace.subcarriers})"
        )
    return MagnitudeSeries(
        subcarrier=subcarrier,
        values=np.abs(trace.iq[:, subcarrier]),
        seqs=trace.seqs,
        rate_hz=trace.rate_hz,
    )


def pair_traces(
    ap: CsiTrace,
    sta: CsiTrace,
    subcarrier: int,
    gap_policy: str = "drop_both",
) -> tuple[MagnitudeSeries, MagnitudeSeries]:
    """Align two traces onto a common sequence grid.

    ``drop_both`` removes every seq missing on either side (default for
    metric computation: gaps carry no channel information).
    ``interpolate_linear`` yields the uniformly sampled input the wavelet
    pipeline requires: every seq of the run from the later of the two
    sides' first seqs in the overlap to the earlier of their last ones,
    each side linear between its own samples, so nothing extrapolates.  A
    run longer than twice the rows the sparser side holds in it raises
    :class:`NoOverlapError`, so the work stays bounded by the row count.
    """
    choice(gap_policy, "gap_policy", ("drop_both", "interpolate_linear"))
    if not len(instance(ap, "ap", (CsiTrace,))) or not len(instance(sta, "sta", (CsiTrace,))):
        raise EmptyTraceError("cannot pair an empty trace")
    if ap.subcarriers != sta.subcarriers:
        raise InvalidParameterError(f"traces declare different subcarrier counts: "
                                    f"AP {ap.subcarriers}, STA {sta.subcarriers}")
    _common_rate(ap.rate_hz, sta.rate_hz)

    sides = (magnitude_series(ap, subcarrier), magnitude_series(sta, subcarrier))
    lo = max(m.seqs[0] for m in sides)
    hi = min(m.seqs[-1] for m in sides)
    if lo > hi:
        raise NoOverlapError(f"seq ranges do not overlap ({lo} > {hi})")

    if gap_policy == "drop_both":
        grid, ia, ib = np.intersect1d(sides[0].seqs, sides[1].seqs, assume_unique=True,
                                      return_indices=True)
        values = sides[0].values[ia], sides[1].values[ib]
    else:  # every side has a seq >= lo and one <= hi, so both ends exist
        first = max(m.seqs[np.searchsorted(m.seqs, lo)] for m in sides)
        last = min(m.seqs[np.searchsorted(m.seqs, hi, "right") - 1] for m in sides)
        grid, values = _interpolate_run(sides, first, last) if first <= last else ((), ())
    if len(grid) == 0:
        raise NoOverlapError("no jointly present samples in the overlap")
    return tuple(MagnitudeSeries(subcarrier=subcarrier, values=v, seqs=grid,
                                 rate_hz=ap.rate_hz) for v in values)


def _common_rate(ap_hz: float, sta_hz: float) -> float:
    """``ap_hz``, if ``sta_hz`` is within :data:`RATE_TOLERANCE` of it: else
    :class:`RateMismatchError` naming both."""
    if abs(ap_hz - sta_hz) > RATE_TOLERANCE * max(ap_hz, sta_hz):
        raise RateMismatchError(f"AP rate {ap_hz} Hz and STA rate {sta_hz} Hz differ by more "
                                f"than {RATE_TOLERANCE:.0%}")
    return ap_hz


def _interpolate_run(sides, first, last) -> tuple[np.ndarray, list[np.ndarray]]:
    """Seqs first..last and each side's values there, linear between its samples at
    positions relative to ``first``: exact in float64, where seqs near 2**63 are not."""
    span = int(last) - int(first) + 1  # Python ints: an int64 difference can wrap
    rows = [np.searchsorted(m.seqs, last, "right") - np.searchsorted(m.seqs, first)
            for m in sides]
    if span > 2 * min(rows):
        raise NoOverlapError(f"interpolation run of {span} seqs holds only {rows[0]} AP "
                             f"and {rows[1]} STA rows; need at least half on each side")
    pos = np.arange(span)
    values = []
    for m in sides:  # its samples from the last at or before first to the first at or after last
        k = slice(np.searchsorted(m.seqs, first, "right") - 1, np.searchsorted(m.seqs, last) + 1)
        xp = (m.seqs[k] - first).astype(np.float64)  # exact in the run: |xp| < span
        xp[[0, -1]] = [int(v) - int(first) for v in m.seqs[k][[0, -1]]]  # ends may be 2**64 off
        values.append(np.interp(pos, xp, m.values[k]))
    return first + pos, values
