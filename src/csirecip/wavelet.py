"""Continuous wavelet transform, band-limited inversion, and wavelet coherence.

The transform follows the classic FFT formulation with an analytic Morlet
mother wavelet on a logarithmic frequency grid.  Coherence uses the
standard smoothing operator (scale-matched Gaussian in time, fixed-width
boxcar across scales); without smoothing, coherence is identically one.

Band-limited reconstruction builds no scalogram: ``icwt(cwt(x), band)`` is
linear and shift-invariant, so it equals one FFT filter, ``Re(IFFT(FFT(x) *
sum_j psi_hat_j / sqrt(s_j)))`` over the band's rows times ``2 / plateau``
plus the mean, computed from the same entry and Morlet matrix as :func:`cwt`.

Conventions
-----------
* ``freqs`` are stored in descending order; row 0 is the highest frequency.
* Scale s and frequency f are related through the Morlet Fourier factor
  ``ff = 4*pi / (w0 + sqrt(2 + w0**2))``, ``w0 = OMEGA0``, as ``s = 1 / (ff * f)``.
* Boundaries are zero padded.  The cone of influence derives from the
  wavelet's e-folding time ``sqrt(2)*s`` and is reported so callers can
  mask edge artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyBandError, TooShortError, finite_series

OMEGA0 = 6.0  # Morlet center-frequency parameter (>= 5 keeps the wavelet admissible)
HYSTERESIS = 0.1  # coherence rise above the floor that ends a detected gap


@dataclass(frozen=True)
class CwtParams:
    """Analytic-Morlet CWT configuration.

    Parameters
    ----------
    voices_per_octave : int
        Frequency bins per octave of the logarithmic grid.
    min_freq, max_freq : float
        Grid limits in Hz; ``max_freq`` must respect Nyquist.
    sample_rate : float
        Input sampling rate in Hz.
    """

    min_freq: float
    max_freq: float
    sample_rate: float
    voices_per_octave: int = 12

    def __post_init__(self):
        if self.voices_per_octave < 4:
            raise ValueError("voices_per_octave must be >= 4")
        if not (0 < self.min_freq < self.max_freq <= self.sample_rate / 2):
            raise ValueError(
                "need 0 < min_freq < max_freq <= sample_rate/2, got "
                f"[{self.min_freq}, {self.max_freq}] at rate {self.sample_rate}"
            )

    @property
    def fourier_factor(self) -> float:
        return 4 * np.pi / (OMEGA0 + np.sqrt(2 + OMEGA0 ** 2))

    def freq_grid(self) -> np.ndarray:
        """Descending log-spaced frequencies covering [min_freq, max_freq]."""
        n_oct = np.log2(self.max_freq / self.min_freq)
        j = np.arange(int(np.floor(n_oct * self.voices_per_octave + 1e-9)) + 1)
        return self.max_freq * 2.0 ** (-j / self.voices_per_octave)

    def scales(self) -> np.ndarray:
        return 1.0 / (self.fourier_factor * self.freq_grid())


def default_params(n_samples: int, sample_rate: float, periods: float = 4.0) -> CwtParams:
    """Default grid for a trace of given length: [periods/T, Nyquist].

    ``periods`` is the number of full cycles of the slowest resolvable
    frequency that must fit in the trace; 4 is a conservative default,
    1 maximizes the octave span (useful for threshold agreement on short
    probe windows).
    """
    duration = n_samples / sample_rate
    return CwtParams(
        min_freq=periods / duration,
        max_freq=sample_rate / 2,
        sample_rate=sample_rate,
    )


@dataclass(frozen=True)
class Scalogram:
    """CWT coefficients over (frequency bin, time index).

    ``coi`` holds, per time index, the largest frequency-bin row that is
    still free of edge effects (-1 when even the top row is affected).
    ``mean`` is the removed sample mean, restored by :func:`icwt`.
    """

    coeffs: np.ndarray  # complex, (n_bins, n_times)
    freqs: np.ndarray   # Hz, descending
    params: CwtParams
    coi: np.ndarray     # int, (n_times,)
    mean: float = 0.0

    def __post_init__(self):
        for name in ("coeffs", "freqs", "coi"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.coeffs.shape != (len(self.freqs), len(self.coi)):
            raise ValueError("coeffs shape inconsistent with freqs/coi")

    def coi_mask(self) -> np.ndarray:
        """Boolean (n_bins, n_times) mask, True inside the cone of influence."""
        rows = np.arange(len(self.freqs))[:, None]
        return rows <= self.coi[None, :]


@dataclass(frozen=True)
class CoherenceMap:
    """Wavelet coherence magnitudes, phases, and edge-validity mask."""

    wc: np.ndarray      # (n_bins, n_times), values in [0, 1]
    phase: np.ndarray   # radians in (-pi, pi]
    freqs: np.ndarray   # Hz, descending
    times: np.ndarray   # seconds
    coi: np.ndarray     # boolean mask, True inside the cone of influence
    params: CwtParams

    def __post_init__(self):
        for name in ("wc", "phase", "freqs", "times", "coi"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        nb, nt = self.wc.shape
        if self.phase.shape != (nb, nt) or self.coi.shape != (nb, nt):
            raise ValueError("phase/coi shape mismatch")
        if len(self.freqs) != nb or len(self.times) != nt:
            raise ValueError("freqs/times length mismatch")


def _next_pow2(n: int) -> int:
    return int(2 ** np.ceil(np.log2(n)))


def _prepare(x, params: CwtParams) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Checked, mean-removed, zero-padded series: (spectrum, bin omegas, n, mean)."""
    x = finite_series(x)
    n = len(x)
    if n < 32:
        raise TooShortError(f"need at least 32 samples, got {n}")
    mean = float(x.mean())
    npad = _next_pow2(n)
    xp = np.zeros(npad)
    xp[:n] = x - mean
    k = 2 * np.pi * np.fft.fftfreq(npad, d=1.0 / params.sample_rate)
    return np.fft.fft(xp), k, n, mean


def _morlet_bank(scales: np.ndarray, k: np.ndarray, params: CwtParams) -> np.ndarray:
    """Fourier-domain daughter wavelets, one energy-normalized row per scale."""
    dt = 1.0 / params.sample_rate
    pos = k > 0
    out = np.zeros((len(scales), len(k)))
    out[:, pos] = (
        np.sqrt(2 * np.pi * scales / dt)[:, None]
        * np.pi ** -0.25
        * np.exp(-0.5 * (scales[:, None] * k[pos] - OMEGA0) ** 2)
    )
    return out


def cwt(x, params: CwtParams) -> Scalogram:
    """Continuous wavelet transform of a uniformly sampled series.

    The series must be finite, gap-free and at least 32 samples long.  The
    sample mean is removed before transforming (stored on the result) and
    the series is zero padded to the next power of two.
    """
    spec, k, n, mean = _prepare(x, params)
    scales = params.scales()
    coeffs = np.fft.ifft(spec * _morlet_bank(scales, k, params), axis=1)[:, :n]

    # deepest edge-free row per time: sqrt(2)*scale <= distance to edge
    dt = 1.0 / params.sample_rate
    dist = np.minimum(np.arange(n), n - 1 - np.arange(n)) * dt
    coi = np.searchsorted(np.sqrt(2.0) * scales, dist, side="right") - 1

    return Scalogram(coeffs=coeffs, freqs=params.freq_grid(), params=params, coi=coi, mean=mean)


def _recon_plateau(params: CwtParams) -> float:
    """Mid-band transfer of the single-integral reconstruction sum.

    The sum over scales of psi_hat(s*w)/sqrt(s) is flat for frequencies
    interior to the grid; its plateau value normalizes the inversion.
    Evaluated at the grid's geometric-center frequency.
    """
    scales = params.scales()
    dt = 1.0 / params.sample_rate
    w = 2 * np.pi * np.sqrt(params.min_freq * params.max_freq)
    g = np.sqrt(2 * np.pi / dt) * np.pi ** -0.25 * np.sum(
        np.exp(-0.5 * (scales * w - OMEGA0) ** 2)
    )
    return float(g)


def _band_rows(freqs: np.ndarray, band: tuple[float, float] | None) -> np.ndarray:
    """Grid rows inside ``band`` (all rows when None)."""
    if band is None:
        return np.arange(len(freqs))
    f_lo, f_hi = band
    if f_lo > f_hi:
        raise EmptyBandError(f"inverted band [{f_lo}, {f_hi}]")
    rows = np.flatnonzero((freqs >= f_lo) & (freqs <= f_hi))
    if rows.size == 0:
        raise EmptyBandError(f"no frequency bins inside band {band}")
    return rows


def icwt(sg: Scalogram, band: tuple[float, float] | None = None) -> np.ndarray:
    """Single-integral inverse transform over a frequency band.

    Sums Re(W)/sqrt(s) over the rows whose frequency lies in
    ``band = (f_lo, f_hi)`` (all rows when None), normalized by the
    reconstruction plateau, and restores the stored mean.
    """
    rows = _band_rows(sg.freqs, band)
    scales = sg.params.scales()[rows]
    r = (sg.coeffs[rows].real / np.sqrt(scales)[:, None]).sum(axis=0)
    return 2.0 * r / _recon_plateau(sg.params) + sg.mean


def _band_filter(x, params: CwtParams, band: tuple[float, float]) -> np.ndarray:
    """``icwt(cwt(x, params), band)`` as one filter: the band rows' summed response."""
    spec, k, n, mean = _prepare(x, params)
    rows = _band_rows(params.freq_grid(), band)
    scales = params.scales()[rows]
    resp = (_morlet_bank(scales, k, params) / np.sqrt(scales)[:, None]).sum(axis=0)
    r = np.fft.ifft(spec * resp)[:n].real
    return 2.0 * r / _recon_plateau(params) + mean


def _smooth(mat: np.ndarray, scales: np.ndarray, dt: float, vpo: int) -> np.ndarray:
    """Coherence smoothing of real rows: Gaussian in time (std = scale), boxcar in scale.

    The boxcar spans 0.6 decorrelation lengths, i.e. 0.6 * voices_per_octave
    bins.  Both stages are positive-weight averages, which is what
    guarantees the Cauchy-Schwarz bound on the coherence ratio.
    """
    nb, n = mat.shape
    npad = _next_pow2(n)
    k = 2 * np.pi * np.fft.rfftfreq(npad, d=dt)
    resp = np.exp(-0.5 * (scales[:, None] * k[None, :]) ** 2)
    out = np.fft.irfft(np.fft.rfft(mat, npad, axis=1) * resp, npad, axis=1)[:, :n]

    win = max(1, int(round(0.6 * vpo)))
    if win > 1:

        def box_sum(cols: np.ndarray) -> np.ndarray:
            padded = np.zeros((nb + win - 1, cols.shape[1]), dtype=cols.dtype)
            padded[(win - 1) // 2:(win - 1) // 2 + nb] = cols
            cs = np.cumsum(padded, axis=0)
            summed = np.empty_like(cols)
            summed[0] = cs[win - 1]
            summed[1:] = cs[win:] - cs[:nb - 1]
            return summed

        counts = box_sum(np.ones((nb, 1)))
        out = box_sum(out) / counts
    return out


def wavelet_coherence(x, y, params: CwtParams) -> CoherenceMap:
    """Magnitude-squared wavelet coherence and phase of two series.

    wc = |S(Wx * conj(Wy) / s)|^2 / (S(|Wx|^2 / s) * S(|Wy|^2 / s)) with S
    the smoothing operator of :func:`_smooth`; phase is the argument of
    the smoothed cross spectrum (positive when y lags x).  The cross
    spectrum's real and imaginary parts are built and smoothed as real rows,
    so swapping x and y negates the imaginary part exactly and leaves wc
    unchanged to the bit.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if len(x) != len(y):
        raise ValueError(f"lengths differ: {len(x)} vs {len(y)}")
    sx = cwt(x, params)
    sy = cwt(y, params)

    dt = 1.0 / params.sample_rate
    scales = params.scales()
    inv_s = (1.0 / scales)[:, None]
    vpo = params.voices_per_octave

    xr, xi, yr, yi = sx.coeffs.real, sx.coeffs.imag, sy.coeffs.real, sy.coeffs.imag
    sxx = _smooth(np.abs(sx.coeffs) ** 2 * inv_s, scales, dt, vpo)
    syy = _smooth(np.abs(sy.coeffs) ** 2 * inv_s, scales, dt, vpo)
    sxy = (_smooth((xr * yr + xi * yi) * inv_s, scales, dt, vpo)
           + 1j * _smooth((xi * yr - xr * yi) * inv_s, scales, dt, vpo))

    denom = sxx * syy
    with np.errstate(divide="ignore", invalid="ignore"):
        wc = np.abs(sxy) ** 2 / denom
    wc[denom <= 0] = 0.0
    wc = np.clip(wc, 0.0, 1.0)

    n = len(x)
    return CoherenceMap(
        wc=wc,
        phase=np.angle(sxy),
        freqs=sx.freqs,
        times=np.arange(n) * dt,
        coi=sx.coi_mask(),
        params=params,
    )


def band_average(cmap: CoherenceMap, band: tuple[float, float]) -> np.ndarray:
    """Mean coherence over a frequency band, per time index.

    The average skips edge-affected cells; times where the whole band is
    edge-affected fall back to the unmasked average.
    """
    rows = _band_rows(cmap.freqs, band)
    sub = cmap.wc[rows]
    mask = cmap.coi[rows]
    cnt = mask.sum(axis=0)
    tot = np.where(mask, sub, 0.0).sum(axis=0)
    out = np.where(cnt > 0, tot / np.maximum(cnt, 1), sub.mean(axis=0))
    return out


def coherent_gap_width(
    cmap: CoherenceMap,
    band: tuple[float, float] = (0.06, 1.5),
    wc_floor: float = 0.3,
) -> list[tuple[float, float]]:
    """Detect low-coherence time intervals in a frequency band.

    Returns (start_time_s, width_s) for every interval where the
    band-averaged coherence stays below ``wc_floor``; the detector exits
    an interval only once the average rises above ``wc_floor + HYSTERESIS``,
    which keeps one physical gap from fragmenting.  Width times packet
    rate estimates the number of lost packets.
    """
    avg = band_average(cmap, band)
    dt = float(cmap.times[1] - cmap.times[0]) if len(cmap.times) > 1 else 1.0
    out: list[tuple[float, float]] = []
    inside = False
    start = 0
    for i, v in enumerate(avg):
        if not inside and v < wc_floor:
            inside, start = True, i
        elif inside and v > wc_floor + HYSTERESIS:
            out.append((start * dt, (i - start) * dt))
            inside = False
    if inside:
        out.append((start * dt, (len(avg) - start) * dt))
    return out


def estimate_lost_packets(gaps: list[tuple[float, float]], rate_hz: float) -> float:
    """Total lost-packet estimate implied by detected gap widths."""
    return sum(w for _, w in gaps) * rate_hz


def coherence_summary(
    cmap: CoherenceMap,
    band: tuple[float, float] = (0.06, 1.5),
    wc_floor: float = 0.3,
) -> dict:
    """JSON-ready summary: band means, detected gaps, grid metadata."""
    gaps = coherent_gap_width(cmap, band, wc_floor)
    inside = cmap.wc[cmap.coi]
    return {
        "freq_range_hz": [float(cmap.freqs[-1]), float(cmap.freqs[0])],
        "n_freq_bins": int(len(cmap.freqs)),
        "duration_s": float(cmap.times[-1]) if len(cmap.times) else 0.0,
        "band_hz": list(band),
        "wc_floor": wc_floor,
        "mean_wc_in_coi": float(inside.mean()) if inside.size else None,
        "band_mean_wc": float(band_average(cmap, band).mean()),
        "gaps": [{"start_s": s, "width_s": w} for s, w in gaps],
    }
