"""Scalar reciprocity metrics and time-shift estimation.

All functions are pure and operate on plain 1-D float arrays (or anything
np.asarray accepts).  Gap markers must be removed or filled before calling:
a NaN raises GapsPresentError and a +-inf NonFiniteError.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import frexp

import numpy as np

from .errors import (
    DegenerateSeriesError,
    InvalidParameterError,
    LengthMismatchError,
    TooShortError,
    _record,
    finite_series,
    instance,
    integer,
    real,
)


DEGENERATE_RTOL = 1e-10  # xcorr_lag: window variance below this share of the series' is zero


@dataclass(frozen=True)
class DivergenceConfig:
    """Histogram discretization for Jeffrey's divergence.

    Defaults keep D_J(P, P) = 0 numerically and guarantee empty bins never
    produce infinities.
    """

    bins: int = 32
    epsilon: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "bins", integer(self.bins, "bins", 2))
        real(self.epsilon, "epsilon")


@_record(lags=np.int64, curve=np.float64)
class LagEstimate:
    """Result of a time-lagged cross-correlation scan.

    ``lag`` is the sample offset at the correlation peak; positive means
    the second series lags the first.  ``curve`` holds one correlation per
    candidate lag, ordered from -max_lag to +max_lag.
    """

    lag: int
    peak_corr: float
    lags: np.ndarray
    curve: np.ndarray

    @property
    def max_lag(self) -> int:
        return int(self.lags[-1])


def _unit_peak(v: np.ndarray) -> np.ndarray:
    """``v`` times the power of two that brings its largest |value| into [0.5, 1).

    The scaling is exact, so a correlation keeps every bit, and a sum of
    squares lies between 0.25 and the sample count: it cannot overflow or
    underflow.
    """
    _, exponent = frexp(float(np.abs(v).max(initial=0.0)))  # 0 for an all-zero v
    return np.ldexp(v, -exponent)


def _centred(v: np.ndarray) -> np.ndarray:
    """``v`` less its mean, each scaled by :func:`_unit_peak`: before, so the mean
    cannot overflow, and after, so a small spread about a large mean cannot underflow."""
    v = _unit_peak(v)
    return _unit_peak(v - v.mean())


def pearson(x, y) -> float:
    """Sample Pearson correlation coefficient of two equal-length series."""
    x = finite_series(x, "x")
    y = finite_series(y, "y")
    if len(x) != len(y):
        raise LengthMismatchError(f"lengths differ: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise LengthMismatchError("need at least 2 samples")
    xd = _centred(x)
    yd = _centred(y)
    sx = float(xd @ xd)
    sy = float(yd @ yd)
    if sx == 0.0 or sy == 0.0:
        raise DegenerateSeriesError("zero variance")
    return float((xd @ yd) / np.sqrt(sx * sy))


def jeffrey_divergence(x, y, cfg: DivergenceConfig = DivergenceConfig()) -> float:
    """Symmetrized KL divergence between the empirical distributions.

    Both samples are histogrammed on shared bin edges spanning the pooled
    range, smoothed with ``cfg.epsilon`` additive mass per bin, and
    renormalized.  Natural logarithm.
    """
    instance(cfg, "cfg", (DivergenceConfig,))
    x = finite_series(x, "x")
    y = finite_series(y, "y")
    if len(x) < cfg.bins or len(y) < cfg.bins:
        raise LengthMismatchError(f"need at least {cfg.bins} samples per series")
    pooled_lo = min(x.min(), y.min())
    pooled_hi = max(x.max(), y.max())
    if pooled_lo == pooled_hi:
        raise DegenerateSeriesError(f"all pooled values identical ({pooled_lo!r})")
    edges = np.linspace(pooled_lo, pooled_hi, cfg.bins + 1)
    p, _ = np.histogram(x, bins=edges)
    q, _ = np.histogram(y, bins=edges)
    p = (p + cfg.epsilon) / (p.sum() + cfg.bins * cfg.epsilon)
    q = (q + cfg.epsilon) / (q.sum() + cfg.bins * cfg.epsilon)
    kl_pq = float(np.sum(p * np.log(p / q)))
    kl_qp = float(np.sum(q * np.log(q / p)))
    return 0.5 * (kl_pq + kl_qp)


def wasserstein_1d(x, y) -> float:
    """Order-1 Wasserstein distance between two empirical distributions.

    Computed by integrating |F_x^{-1}(u) - F_y^{-1}(u)| du over the merged
    quantile grid; reduces to mean |sorted(x) - sorted(y)| for equal lengths.
    """
    x = np.sort(finite_series(x, "x"))
    y = np.sort(finite_series(y, "y"))
    if len(x) == len(y):
        return float(np.mean(np.abs(x - y)))
    # piecewise-constant quantile functions on the union of jump points
    u = np.union1d(np.arange(1, len(x)) / len(x), np.arange(1, len(y)) / len(y))
    u = np.concatenate([[0.0], u, [1.0]])
    du = np.diff(u)
    mid = (u[:-1] + u[1:]) / 2
    qx = x[np.minimum((mid * len(x)).astype(int), len(x) - 1)]
    qy = y[np.minimum((mid * len(y)).astype(int), len(y) - 1)]
    return float(np.sum(np.abs(qx - qy) * du))


def _window_moments(v: np.ndarray, m: np.ndarray, head: np.ndarray) -> np.ndarray:
    """Sum and centred sum of squares of v[:m] where ``head``, else of v[-m:]; the
    squares add Welford's increments, never negative, so nothing cancels."""
    ends = []
    for u in (v, v[::-1]):
        k = np.arange(1.0, len(u) + 1)
        s = np.cumsum(u)
        d = u[1:] - s[:-1] / k[:-1]
        ends.append(np.stack((s, np.r_[0.0, np.cumsum(d * d * (k[:-1] / k[1:]))]))[:, m - 1])
    return np.where(head, *ends)


def xcorr_lag(x, y, max_lag: int) -> LagEstimate:
    """Time-lagged cross-correlation scan over lags in [-max_lag, max_lag].

    Each lag's correlation is the Pearson coefficient of the overlapping
    windows (per-lag normalization, so shorter overlaps are not penalized),
    from cumulative window moments and one ``np.correlate``.  Ties break
    toward the smallest |lag|, then toward negative lag.  A window whose
    centred sum of squares is at most ``DEGENERATE_RTOL`` times its series'
    total has zero variance: its lag contributes correlation 0.
    """
    x = finite_series(x, "x")
    y = finite_series(y, "y")
    if len(x) != len(y):
        raise LengthMismatchError(f"lengths differ: {len(x)} vs {len(y)}")
    n = len(x)
    max_lag = integer(max_lag, "max_lag", 0)
    if n <= 2 * max_lag:
        raise TooShortError(f"need length > {2 * max_lag}, got {n}")

    lags = np.arange(-max_lag, max_lag + 1)
    m = n - np.abs(lags)  # window length per lag
    xc = _centred(x)
    yc = _centred(y)
    sx, vx = _window_moments(xc, m, lags >= 0)  # x's window is a prefix at lag >= 0
    sy, vy = _window_moments(yc, m, lags < 0)
    sxy = np.correlate(yc, xc, "full")[n - 1 - max_lag:n + max_lag]
    degenerate = (vx <= DEGENERATE_RTOL * (xc @ xc)) | (vy <= DEGENERATE_RTOL * (yc @ yc))
    if degenerate.all():
        raise DegenerateSeriesError("zero variance at every candidate lag")
    with np.errstate(divide="ignore", invalid="ignore"):
        curve = np.where(degenerate, 0.0, (sxy - sx * sy / m) / np.sqrt(vx * vy))

    peak = curve.max()
    cand = lags[curve == peak]
    order = np.lexsort((cand, np.abs(cand)))  # smallest |lag|, then negative
    best = int(cand[order[0]])
    return LagEstimate(lag=best, peak_corr=float(peak), lags=lags, curve=curve)


def _bits(x, name: str) -> np.ndarray:
    """``x`` as a bool array, if it is 1-D and each value is a bool or a real number exactly 0
    or 1: else :class:`InvalidParameterError` naming its shape and dtype, or the first bad value
    and its index."""
    try:
        a = np.asarray(x)
    except ValueError:  # a ragged nested sequence
        a = np.asarray(x, dtype=object)
    if a.ndim != 1 or a.dtype.kind not in "biufO":  # O: numbers mixed with None or the like
        raise InvalidParameterError(
            f"{name} must be a 1-D series of bits, got shape {a.shape} of dtype {a.dtype}")
    ok = (a == 0) | (a == 1)
    if not ok.all():
        i = int(np.argmin(ok))
        raise InvalidParameterError(
            f"{name} must hold only bits 0 and 1, got {a.tolist()[i]!r} at index {i}")
    return a.astype(bool)


def ber(bits_a, bits_b) -> float:
    """Fraction of mismatched bits between two equal-length, nonempty 1-D bit sequences."""
    a, b = _bits(bits_a, "bits_a"), _bits(bits_b, "bits_b")
    if len(a) != len(b):
        raise LengthMismatchError(f"lengths differ: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise LengthMismatchError("empty bit sequences")
    return float(np.mean(a != b))
