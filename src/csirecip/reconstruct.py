"""CSI preprocessing pipelines and the coherence-guided reconstruction.

Four interchangeable pipelines: Savitzky-Golay smoothing, FFT band
reconstruction, wavelet-packet median nulling, and the coherence-guided
band-limited wavelet reconstruction with threshold adaptation; plus
alignment of a pair at a known lag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import savgol_filter

from .errors import (
    BadWindowError,
    NoFrequencySelectedError,
    TooShortError,
    UnusableCoherenceError,
)
from .wavelet import CoherenceMap, CwtParams, _band_filter


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
        f = np.asarray(self.f_rec, dtype=np.float64)
        f.setflags(write=False)
        object.__setattr__(self, "f_rec", f)
        if f.size == 0:
            raise ValueError("f_rec must be nonempty")
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.beta < 1:
            raise ValueError(f"beta must be >= 1, got {self.beta}")


# --- baseline pipelines ---

def golay_filter(x, window: int = 11, order: int = 3) -> np.ndarray:
    """Savitzky-Golay smoothing (local least-squares polynomial fit).

    Endpoints are handled by fitting the polynomial over the one-sided
    edge window and evaluating it there.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    if window % 2 == 0 or window < 3:
        raise BadWindowError(f"window must be odd and >= 3, got {window}")
    if order >= window:
        raise BadWindowError(f"order {order} must be < window {window}")
    if window > len(x):
        raise BadWindowError(f"window {window} exceeds series length {len(x)}")
    return savgol_filter(x, window_length=window, polyorder=order, mode="interp")


def fft_reconstruct(x, power_keep: float = 0.98) -> np.ndarray:
    """Keep the lowest-frequency bins holding ``power_keep`` of the power.

    The mean is removed first and re-added afterwards, so a constant
    series passes through unchanged and power_keep = 1 is the identity.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    if len(x) < 8:
        raise TooShortError(f"need at least 8 samples, got {len(x)}")
    if not 0 < power_keep <= 1:
        raise ValueError("power_keep must be in (0, 1]")
    mean = x.mean()
    spec = np.fft.rfft(x - mean)
    power = np.abs(spec) ** 2
    total = power[1:].sum()
    if total == 0.0:
        return x.copy()
    cum = np.cumsum(power[1:])
    keep = int(np.searchsorted(cum, power_keep * total) + 1)
    spec[keep + 1:] = 0.0
    return np.fft.irfft(spec, n=len(x)) + mean


# 4-tap Daubechies analysis pair (orthogonal, so synthesis reuses it)
_DB4_LO = np.array([
    1 + np.sqrt(3), 3 + np.sqrt(3), 3 - np.sqrt(3), 1 - np.sqrt(3)
]) / (4 * np.sqrt(2))
_DB4_HI = np.array([_DB4_LO[3], -_DB4_LO[2], _DB4_LO[1], -_DB4_LO[0]])


def _wp_analyze(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = len(x)
    idx = (np.arange(0, n, 2)[:, None] + np.arange(4)[None, :]) % n
    seg = x[idx]
    return seg @ _DB4_LO, seg @ _DB4_HI


def _wp_synthesize(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    y = np.zeros(n)
    pos = (2 * np.arange(n // 2)[:, None] + np.arange(4)[None, :]) % n
    np.add.at(y, pos, lo[:, None] * _DB4_LO[None, :] + hi[:, None] * _DB4_HI[None, :])
    return y


def wpt_forward(x: np.ndarray, depth: int) -> list[np.ndarray]:
    """Full wavelet-packet tree to the given depth, periodic extension."""
    bands = [np.asarray(x, dtype=np.float64)]
    for _ in range(depth):
        bands = [part for b in bands for part in _wp_analyze(b)]
    return bands


def wpt_inverse(bands: list[np.ndarray], n: int) -> np.ndarray:
    bands = list(bands)
    while len(bands) > 1:
        m = n // (len(bands) // 2)
        bands = [
            _wp_synthesize(bands[i], bands[i + 1], m)
            for i in range(0, len(bands), 2)
        ]
    return bands[0]


def wpt_denoise(x, depth: int = 4) -> np.ndarray:
    """Wavelet-packet median nulling.

    Decomposes to ``depth`` levels with the 4-tap Daubechies filter bank,
    zeroes every coefficient whose magnitude falls below the median of all
    coefficient magnitudes, and reconstructs.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    n0 = len(x)
    block = 1 << depth
    if n0 < block:
        raise TooShortError(f"need at least 2**{depth} = {block} samples, got {n0}")
    n = ((n0 + block - 1) // block) * block
    xp = np.pad(x, (0, n - n0), mode="reflect") if n != n0 else x
    bands = wpt_forward(xp, depth)
    med = np.median(np.abs(np.concatenate(bands)))
    bands = [np.where(np.abs(b) < med, 0.0, b) for b in bands]
    return wpt_inverse(bands, n)[:n0]


# --- coherence-guided reconstruction ---

def select_reciprocal_freqs(cmap: CoherenceMap, alpha: float, beta: int) -> ReciprocalBand:
    """Frequencies coherent above ``alpha`` for at least ``beta`` samples.

    The returned band is the closed interval [min, max] over the selected
    bins (the reconstruction contract), while ``f_rec`` records the bins
    individually.
    """
    n_times = cmap.wc.shape[1]
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if not 1 <= beta <= n_times:
        raise ValueError(f"beta must be in [1, {n_times}], got {beta}")
    counts = (cmap.wc >= alpha).sum(axis=1)
    sel = np.flatnonzero(counts >= beta)
    if sel.size == 0:
        raise NoFrequencySelectedError(
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
    n_bins, L = cmap.wc.shape
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
    filter whose response sums the rows' daughter wavelets, so no scalogram
    is built.
    """
    return _band_filter(x, params, band)


def apply_lag(x, y, lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Align two series given a known shift of y relative to x: (x_aligned, y_aligned).

    Positive lag means y lags x: y is advanced and both sides truncated to
    the overlap, discarding |lag| samples.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    n = len(x)
    if lag > 0:
        return x[: n - lag], y[lag:]
    if lag < 0:
        return x[-lag:], y[: n + lag]
    return x, y
