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
from dataclasses import dataclass, field
from math import isfinite

import numpy as np

from .errors import (
    EmptyTraceError,
    MalformedHeaderError,
    NoOverlapError,
    RateMismatchError,
    SubcarrierOutOfRangeError,
    UnknownRateError,
)

RATE_TOLERANCE = 0.01  # relative packet-rate difference pair_traces accepts


@dataclass(frozen=True)
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
        if self.rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        if any(c in self.device_id for c in ",\n\r"):  # would break its CSV row
            raise ValueError(f"device_id {self.device_id!r} must not hold ',', '\\n' or '\\r'")
        seqs = np.ascontiguousarray(self.seqs, dtype=np.int64)
        t = np.ascontiguousarray(self.t, dtype=np.float64)
        iq = np.ascontiguousarray(self.iq, dtype=np.complex128)
        if seqs.ndim != 1 or t.shape != seqs.shape or iq.shape != (len(seqs), self.subcarriers):
            raise ValueError(
                f"need seqs and t of one length and iq of (len(seqs), {self.subcarriers}); "
                f"got seqs {seqs.shape}, t {t.shape}, iq {iq.shape}"
            )
        if np.any(seqs[1:] <= seqs[:-1]):  # np.diff would wrap past int64
            raise ValueError("seqs must be strictly increasing")
        for what, bad in (("capture time", ~np.isfinite(t)),
                          ("i/q value", ~np.isfinite(iq).all(axis=1))):
            if bad.any():
                raise ValueError(f"non-finite {what} at seq {seqs[bad][0]}")
        for name, arr in (("seqs", seqs), ("t", t), ("iq", iq)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.device_id, self.subcarriers, self.rate_hz)
                == (other.device_id, other.subcarriers, other.rate_hz)
                and all(np.array_equal(getattr(self, k), getattr(other, k))
                        for k in ("seqs", "t", "iq")))

    def __len__(self) -> int:
        return len(self.seqs)

    def missing_seqs(self) -> np.ndarray:
        """Sequence numbers absent between the first and last sample."""
        step = np.diff(self.seqs)
        gap = step > 1
        counts = step[gap] - 1
        run_start = np.repeat(np.cumsum(counts) - counts, counts)
        return np.repeat(self.seqs[:-1][gap] + 1, counts) + (np.arange(counts.sum()) - run_start)


@dataclass(frozen=True)
class MagnitudeSeries:
    """Magnitudes of one subcarrier across a trace; a seq absent from ``seqs`` is a lost packet."""

    subcarrier: int
    values: np.ndarray
    seqs: np.ndarray
    rate_hz: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        seqs = np.asarray(self.seqs, dtype=np.int64)
        if values.shape != seqs.shape:
            raise ValueError("values and seqs must have equal length")
        if np.any(values < 0):
            raise ValueError("magnitudes must be non-negative")
        values.setflags(write=False)
        seqs.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "seqs", seqs)

    def __len__(self) -> int:
        return len(self.values)


def parse_csi_csv(stream, rate_hz: float | None = None) -> CsiTrace:
    """Parse the documented CSI CSV format into a :class:`CsiTrace`.

    ``stream`` may be bytes, str, or a file-like object.  Rows that fail to
    parse are rejected and recorded by row index; out-of-order rows are
    dropped (sorting would fabricate a loss-free trace) and duplicated seq
    numbers keep the first occurrence.  Counts of everything dropped live
    in ``trace.parse_stats``.

    When ``rate_hz`` is None the nominal packet rate is inferred from the
    seq/time span of the accepted rows; :class:`UnknownRateError` is
    raised when they hold one row or their times do not increase.
    """
    if isinstance(stream, bytes):
        text = stream.decode("utf-8")
    elif isinstance(stream, str):
        text = stream
    else:
        text = stream.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")

    lines = [ln for ln in text.removeprefix("\ufeff").split("\n") if ln.strip()]
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

    seqs: list[int] = []
    ts: list[float] = []
    rows: list[list[float]] = []
    device_id = ""
    bad_rows: list[int] = []
    n_dup = 0
    n_ooo = 0
    for idx, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if len(parts) != 3 + 2 * n_sub:
            bad_rows.append(idx)
            continue
        try:
            seq = int(parts[0])
            t = float(parts[1])
            vals = [float(v) for v in parts[3:]]
        except ValueError:
            bad_rows.append(idx)
            continue
        if not (isfinite(t) and all(map(isfinite, vals)) and -2 ** 63 <= seq < 2 ** 63
                and "\r" not in parts[2]):
            bad_rows.append(idx)
            continue
        if seqs and seq <= seqs[-1]:
            if seq == seqs[-1]:
                n_dup += 1
            else:
                n_ooo += 1
            continue
        device_id = parts[2]
        seqs.append(seq)
        ts.append(t)
        rows.append(vals)

    if not seqs:
        raise EmptyTraceError("no rows survived parsing")

    if rate_hz is None:
        if len(seqs) == 1 or not ts[-1] > ts[0]:
            why = (f"t that does not increase ({ts[0]!r} to {ts[-1]!r})" if len(seqs) > 1
                   else "a single row")
            raise UnknownRateError(f"cannot infer the packet rate from {why}; pass rate_hz")
        rate_hz = (seqs[-1] - seqs[0]) / (ts[-1] - ts[0])

    return CsiTrace(
        device_id=device_id,
        subcarriers=n_sub,
        rate_hz=float(rate_hz),
        seqs=np.array(seqs, dtype=np.int64),
        t=np.array(ts, dtype=np.float64),
        iq=np.array(rows, dtype=np.float64).view(np.complex128),  # i, q interleaved
        parse_stats={"bad_rows": bad_rows, "duplicates": n_dup, "out_of_order": n_ooo},
    )


def write_csi_csv(trace: CsiTrace, stream=None) -> str | None:
    """Serialize a trace back to the documented CSV format.

    Floats are written with repr precision, so parse -> write round-trips
    accepted rows bit-exactly.
    """
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
    if not 0 <= subcarrier < trace.subcarriers:
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
    if gap_policy not in ("drop_both", "interpolate_linear"):
        raise ValueError(f"unknown gap_policy {gap_policy!r}")
    if not len(ap) or not len(sta):
        raise EmptyTraceError("cannot pair an empty trace")
    if ap.subcarriers != sta.subcarriers:
        raise ValueError("traces declare different subcarrier counts")
    if abs(ap.rate_hz - sta.rate_hz) > RATE_TOLERANCE * max(ap.rate_hz, sta.rate_hz):
        raise RateMismatchError(
            f"AP rate {ap.rate_hz} Hz and STA rate {sta.rate_hz} Hz differ by more "
            f"than {RATE_TOLERANCE:.0%}"
        )

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
