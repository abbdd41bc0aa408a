"""CSI preprocessing pipelines and the coherence-guided reconstruction.

Four interchangeable pipelines: Savitzky-Golay smoothing, FFT band
reconstruction, wavelet-packet median nulling, and the coherence-guided
band-limited wavelet reconstruction with threshold adaptation; plus
alignment of a pair at a known lag.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import (
    InvalidParameterError,
    LengthMismatchError,
    TooShortError,
    UnusableCoherenceError,
    _freeze,
    finite_series,
    instance,
    integer,
    pair,
    real,
)
from .wavelet import CoherenceMap, CwtParams, _band_response, _prepare, _recon_plateau


@dataclass(frozen=True)
class ReciprocalBand:
    """Frequency bins that stayed coherent long enough, plus their closure.

    ``f_rec`` holds the selected bin frequencies; ``band`` is the closed
    interval [min(f_rec), max(f_rec)] actually used for reconstruction.
    """

    f_rec: np.ndarray       # selected frequencies, Hz
    band: tuple[float, float]
    alpha: float
    beta: int

    def __post_init__(self):
        _freeze(self, f_rec=np.float64)
        if self.f_rec.ndim != 1 or self.f_rec.size == 0:
            raise InvalidParameterError(
                f"f_rec must be nonempty and 1-D, got {self.f_rec.tolist()}")
        closure = (float(self.f_rec.min()), float(self.f_rec.max()))
        if pair(self.band, "band", zero=True) != closure:
            raise InvalidParameterError(
                f"band must be (min(f_rec), max(f_rec)) = {closure}, got {self.band!r}")
        object.__setattr__(self, "band", closure)
        object.__setattr__(self, "alpha", real(self.alpha, "alpha", hi=1))
        object.__setattr__(self, "beta", integer(self.beta, "beta", 1))


# --- baseline pipelines ---

GOLAY_WINDOW = 11  # Savitzky-Golay baseline: samples per local fit
GOLAY_ORDER = 3  # and the degree of the fitted polynomial
FFT_POWER_KEEP = 0.98  # FFT baseline: share of the non-DC power kept
WPT_DEPTH = 4  # wavelet-packet baseline: levels of the tree


@cache
def _golay_hat() -> np.ndarray:
    """Row j: the weights giving the window's least-squares fit at position j; read-only."""
    half = GOLAY_WINDOW // 2
    vander = np.vander(np.arange(-half, half + 1.0), GOLAY_ORDER + 1, increasing=True)
    hat = vander @ np.linalg.pinv(vander)
    hat.setflags(write=False)
    return hat


def golay_filter(x) -> np.ndarray:
    """Savitzky-Golay smoothing: a GOLAY_ORDER least-squares polynomial fit per GOLAY_WINDOW.

    Endpoints are handled by fitting the polynomial over the one-sided
    edge window and evaluating it there (scipy's ``mode="interp"``).
    """
    x = finite_series(x, "x")
    if len(x) < GOLAY_WINDOW:
        raise TooShortError(f"need at least {GOLAY_WINDOW} samples, got {len(x)}")
    half = GOLAY_WINDOW // 2
    hat = _golay_hat()
    y = np.empty_like(x)
    y[half:len(x) - half] = np.correlate(x, hat[half], "valid")
    y[:half] = hat[:half] @ x[:GOLAY_WINDOW]
    y[len(x) - half:] = hat[half + 1:] @ x[-GOLAY_WINDOW:]
    return y


def fft_reconstruct(x) -> np.ndarray:
    """Keep the lowest-frequency bins holding FFT_POWER_KEEP of the power.

    The mean is removed first and re-added afterwards, so a constant
    series passes through unchanged.
    """
    x = finite_series(x, "x")
    if len(x) < 8:
        raise TooShortError(f"need at least 8 samples, got {len(x)}")
    mean = x.mean()
    spec = np.fft.rfft(x - mean)
    power = np.abs(spec) ** 2
    total = power[1:].sum()
    if total == 0.0:
        return x.copy()
    cum = np.cumsum(power[1:])
    keep = int(np.searchsorted(cum, FFT_POWER_KEEP * total) + 1)
    spec[keep + 1:] = 0.0
    return np.fft.irfft(spec, n=len(x)) + mean


# 4-tap Daubechies analysis pair (orthogonal, so synthesis reuses it)
_DB4_LO = np.array([
    1 + np.sqrt(3), 3 + np.sqrt(3), 3 - np.sqrt(3), 1 - np.sqrt(3)
]) / (4 * np.sqrt(2))
_DB4_HI = np.array([_DB4_LO[3], -_DB4_LO[2], _DB4_LO[1], -_DB4_LO[0]])


def _wp_analyze(x: np.ndarray) -> np.ndarray:
    """One analysis step of every row of ``x``: rows lo(0), hi(0), lo(1), hi(1), ...

    Gathered in C order as (rows, pairs, 4), each row's windows go to the
    matrix-vector call that row alone would get, so each row keeps its bits.
    One 2-D product over all windows would not: it rounds a one-window row,
    which numpy takes as a dot product, differently.
    """
    n = x.shape[1]
    idx = np.arange(0, n, 2)[:, None] + np.arange(4)
    idx[-2:] %= n  # periodic extension: only the last two windows reach past the end
    seg = np.take(x, idx, axis=1)
    return np.stack([seg @ _DB4_LO, seg @ _DB4_HI], axis=1).reshape(2 * len(x), -1)


def _wp_synthesize(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Output 2m + p (p = 0, 1) sums tap p of pair m and tap p + 2 of pair m - 1 (periodic),
    along the last axis: ``lo`` and ``hi`` may be single bands or rows of bands."""
    y = np.zeros(lo.shape[:-1] + (n,))  # adding onto zeros keeps the sign of zero
    for p in (0, 1):
        y[..., p::2] += np.roll(lo * _DB4_LO[p + 2] + hi * _DB4_HI[p + 2], 1, axis=-1)
        y[..., p::2] += lo * _DB4_LO[p] + hi * _DB4_HI[p]
    return y


def wpt_forward(x: np.ndarray) -> np.ndarray:
    """Full wavelet-packet tree, WPT_DEPTH levels, periodic extension; each level is one
    (bands, length) matrix, and the last, (2**WPT_DEPTH, n / 2**WPT_DEPTH), is returned."""
    level = np.asarray(x, dtype=np.float64)[None]
    for _ in range(WPT_DEPTH):
        level = _wp_analyze(level)
    return level


def wpt_inverse(bands, n: int) -> np.ndarray:
    """Invert :func:`wpt_forward`: ``bands`` is its band matrix, one band per row."""
    level = np.asarray(bands, dtype=np.float64)
    while len(level) > 1:
        level = _wp_synthesize(level[0::2], level[1::2], n // (len(level) // 2))
    return level[0]


def wpt_denoise(x) -> np.ndarray:
    """Wavelet-packet median nulling.

    Decomposes to WPT_DEPTH levels with the 4-tap Daubechies filter bank,
    zeroes every coefficient whose magnitude falls below the median of all
    coefficient magnitudes, and reconstructs.
    """
    x = finite_series(x, "x")
    n0 = len(x)
    block = 1 << WPT_DEPTH
    if n0 < block:
        raise TooShortError(f"need at least 2**{WPT_DEPTH} samples, got {n0}")
    n = ((n0 + block - 1) // block) * block
    xp = np.pad(x, (0, n - n0), mode="reflect") if n != n0 else x
    coef = wpt_forward(xp)
    mag = np.abs(coef)
    coef[mag < np.median(mag)] = 0.0
    return wpt_inverse(coef, n)[:n0]


# --- coherence-guided reconstruction ---

def select_reciprocal_freqs(cmap: CoherenceMap, alpha: float, beta: int) -> ReciprocalBand:
    """Frequencies coherent above ``alpha`` for at least ``beta`` samples.

    The returned band is the closed interval [min, max] over the selected
    bins (the reconstruction contract), while ``f_rec`` records the bins
    individually.
    """
    alpha = real(alpha, "alpha", hi=1)
    beta = integer(beta, "beta", 1, instance(cmap, "cmap", (CoherenceMap,)).wc.shape[1] + 1)
    counts = (cmap.wc >= alpha).sum(axis=1)
    sel = np.flatnonzero(counts >= beta)
    if sel.size == 0:
        raise UnusableCoherenceError(
            f"no bin stays >= {alpha:.3f} for {beta} samples"
        )
    f_sel = cmap.freqs[sel]
    return ReciprocalBand(
        f_rec=f_sel,
        band=(float(f_sel.min()), float(f_sel.max())),
        alpha=alpha,
        beta=beta,
    )


ALPHA_DECAY = 0.95
ALPHA_FLOOR = 0.05


def adapt_thresholds(cmap: CoherenceMap) -> ReciprocalBand:
    """Adapt (alpha, beta) until at least half the frequency bins select.

    Starts at alpha just below the map maximum with beta equal to the full
    window L (frequencies coherent the entire time).  If that selects fewer
    than half the bins, beta drops to ceil(L/3) and alpha decays
    geometrically until the half-grid target is met or alpha reaches the
    floor, where the selection at the last alpha tried is returned.  A bin
    stays >= alpha for beta samples exactly when its beta-th largest value
    is >= alpha, so each step compares one order statistic per bin.
    """
    n_bins, L = instance(cmap, "cmap", (CoherenceMap,)).wc.shape
    peak = float(cmap.wc.max())
    if peak <= 0.0:
        raise UnusableCoherenceError("coherence map is identically zero")
    target = (n_bins + 1) // 2
    srt = np.sort(cmap.wc, axis=1)

    alpha = max(peak - 1e-6, ALPHA_FLOOR)
    beta = L
    if np.count_nonzero(srt[:, 0] >= alpha) < target:
        beta = -(-L // 3)
        kth = srt[:, L - beta]
        need = np.sort(kth)[-target]  # alpha <= need selects at least target bins
        while alpha > need and alpha * ALPHA_DECAY >= ALPHA_FLOOR:
            alpha *= ALPHA_DECAY
        if kth.max() < alpha:
            raise UnusableCoherenceError(
                f"no nonempty selection above alpha floor {ALPHA_FLOOR}")
    return select_reciprocal_freqs(cmap, alpha, beta)


def wt_reconstruct(x, band: tuple[float, float], params: CwtParams) -> np.ndarray:
    """Band-limited wavelet reconstruction of one series over ``band`` = (f_lo, f_hi).

    The result equals ``icwt(cwt(x, params), band)``, computed as one FFT
    filter whose response sums the band rows' daughter wavelets, so no
    scalogram is built.
    """
    instance(params, "params", (CwtParams,))
    spec, n, mean = _prepare(x)
    # as a float pair: one cache key for a list, tuple or numpy floats, and none for a bad band
    resp = _band_response(params, pair(band, "band", zero=True), len(spec))
    r = np.fft.ifft(spec * resp)[:n].real
    return 2.0 * r / _recon_plateau(params) + mean


def apply_lag(x, y, lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Align two series given a known shift of y relative to x: (x_aligned, y_aligned).

    Positive lag means y lags x: y is advanced and both sides truncated to
    the overlap, discarding |lag| samples.  The two series must be paired
    (equal length).
    """
    x = finite_series(x, "x")
    y = finite_series(y, "y")
    n = len(x)
    if len(y) != n:
        raise LengthMismatchError(f"lengths differ: {n} vs {len(y)}")
    lag = integer(lag, "lag")
    if lag > 0:
        return x[: n - lag], y[lag:]
    if lag < 0:
        return x[-lag:], y[: n + lag]
    return x, y
