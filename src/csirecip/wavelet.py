"""Continuous wavelet transform, band-limited inversion, and wavelet coherence.

The transform follows the classic FFT formulation with an analytic Morlet
mother wavelet on a logarithmic frequency grid of ``VOICES_PER_OCTAVE`` =
12 rows per octave.  Coherence uses the standard smoothing operator
(scale-matched Gaussian in time, fixed-width boxcar across scales);
without smoothing, coherence is identically one.

Band-limited reconstruction builds no scalogram: ``icwt(cwt(x), band)`` is
linear and shift-invariant, so it equals one FFT filter, ``Re(IFFT(FFT(x) *
sum_j psi_hat_j / sqrt(s_j)))`` over the band's rows times ``2 / plateau``
plus the mean.  The summed response depends only on the grid, the band and
the padded length, so it is built once per such triple and shared by every
series filtered with it (both devices of a pair).

Every Morlet row is evaluated only where it can be nonzero: the Gaussian
``exp(-z**2 / 2)``, ``z = s*k - w0``, underflows to exactly 0.0 once
``|z| > sqrt(1500)``, so skipping those entries changes no bit of the
transform or of the response.  The same holds for the coherence's
time-smoothing Gaussians ``exp(-(s*w)**2 / 2)``.  These live entries
depend only on the grid and the padded length, so each grid keeps them in
one read-only table per padded length, a tuple of rows, in a small bounded
cache shared by every call and thread; a band's response sums its run of rows.

Coherence works through the grid in blocks of rows over buffers allocated
once per call: each block transforms, multiplies and time-smooths only its
own rows, and the scale boxcar runs as a prefix sum carried from block to
block in the order ``np.cumsum`` adds.  The map is therefore bit-identical
to computing each stage over the whole grid, while memory holds the output,
a few blocks and the grid's live entries rather than a dozen grid-sized
temporaries.

Conventions
-----------
* ``freqs`` are stored in descending order; row 0 is the highest frequency.
* Scale s and frequency f are related through the Morlet Fourier factor
  ``ff = 4*pi / (w0 + sqrt(2 + w0**2))`` (``FOURIER_FACTOR``, w0 = OMEGA0) as ``s = 1 / (ff * f)``.
* Boundaries are zero padded.  The cone of influence derives from the
  wavelet's e-folding time ``sqrt(2)*s`` and is reported so callers can
  mask edge artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (EmptyBandError, InvalidParameterError, TooShortError, _record, finite_series,
                     instance, integer, monotone, pair, real)

OMEGA0 = 6.0  # Morlet center-frequency parameter (>= 5 keeps the wavelet admissible)
FOURIER_FACTOR = 4 * np.pi / (OMEGA0 + np.sqrt(2 + OMEGA0 ** 2))  # Morlet scale * frequency
VOICES_PER_OCTAVE = 12  # rows per octave of every grid
# the widest grid a CwtParams may span, so rows (and a cwt's memory) stay bounded: the CLI's
# default grid spans log2(n / 8) octaves for n samples, so 32 covers a 2**35-sample trace
MAX_OCTAVES = 32
# the coherence's scale boxcar spans 0.6 decorrelation lengths of scale, _WIN = 7 rows; the
# grid is zero padded with _TOP rows above it and _WIN - 1 - _TOP below
_WIN = round(0.6 * VOICES_PER_OCTAVE)
_TOP = (_WIN - 1) // 2
GAP_BAND = (0.06, 1.5)  # Hz: the band where coherence gaps are detected by default
GAP_WC_FLOOR = 0.3  # band-averaged coherence below this opens a gap
HYSTERESIS = 0.1  # coherence rise above the floor that ends a detected gap
_LIVE_Z = np.sqrt(1500.0)  # |s*k - OMEGA0| beyond this: exp(-z**2/2) is exactly 0.0
_RESPONSES = 8  # band responses kept: both devices of a pair share one
_GRIDS = 4  # grid tables kept: a keygen session reads two, the probe's and the key windows'
# Coherence rows per block: isqrt(_BLOCK_POINTS // padded length), 16 for a 512-point probe
# and 4 at 8192 points.  A block's fixed cost is amortized over rows x points, its
# buffers grow with them, and the square root keeps both in check.
_BLOCK_POINTS = 2 ** 17


@dataclass(frozen=True)
class CwtParams:
    """Analytic-Morlet CWT configuration on a ``VOICES_PER_OCTAVE`` logarithmic grid.

    Parameters
    ----------
    min_freq, max_freq : float
        Grid limits in Hz; ``max_freq`` must respect Nyquist.
    sample_rate : float
        Input sampling rate in Hz.
    """

    min_freq: float
    max_freq: float
    sample_rate: float

    def __post_init__(self):
        for name in ("min_freq", "max_freq", "sample_rate"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        if not (0 < self.min_freq < self.max_freq <= self.sample_rate / 2):
            raise InvalidParameterError(
                "need 0 < min_freq < max_freq <= sample_rate/2, got "
                f"[{self.min_freq}, {self.max_freq}] at rate {self.sample_rate}"
            )
        if math.log2(self.max_freq) - math.log2(self.min_freq) > MAX_OCTAVES:
            raise InvalidParameterError(
                f"min_freq must be >= max_freq / 2**{MAX_OCTAVES} = "
                f"{self.max_freq / 2 ** MAX_OCTAVES}, got {self.min_freq}")

    def freq_grid(self) -> np.ndarray:
        """Descending log-spaced frequencies covering [min_freq, max_freq]."""
        n_oct = np.log2(self.max_freq / self.min_freq)
        j = np.arange(int(np.floor(n_oct * VOICES_PER_OCTAVE + 1e-9)) + 1)
        return self.max_freq * 2.0 ** (-j / VOICES_PER_OCTAVE)

    def scales(self) -> np.ndarray:
        return 1.0 / (FOURIER_FACTOR * self.freq_grid())


def default_params(n_samples: int, sample_rate: float, periods: float = 4.0) -> CwtParams:
    """Default grid for a trace of given length: [periods/T, Nyquist].

    ``periods`` is the number of full cycles of the slowest resolvable
    frequency that must fit in the trace; 4 is a conservative default,
    1 maximizes the octave span (useful for threshold agreement on short
    probe windows).
    """
    duration = integer(n_samples, "n_samples", 1) / real(sample_rate, "sample_rate")
    return CwtParams(
        min_freq=real(periods, "periods") / duration,
        max_freq=sample_rate / 2,
        sample_rate=sample_rate,
    )


@_record(coeffs=None, freqs=None, coi=None)
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
        if self.coeffs.shape != (len(self.freqs), len(self.coi)):
            raise InvalidParameterError(
                f"coeffs shape {self.coeffs.shape} inconsistent with "
                f"{len(self.freqs)} freqs and {len(self.coi)} coi entries")


@_record(wc=None, phase=None, freqs=None, times=None, coi=None)
class CoherenceMap:
    """Wavelet coherence magnitudes, phases, and edge-validity mask."""

    wc: np.ndarray      # (n_bins, n_times), values in [0, 1]
    phase: np.ndarray   # radians in (-pi, pi]
    freqs: np.ndarray   # Hz, descending
    times: np.ndarray   # seconds
    coi: np.ndarray     # boolean mask, True inside the cone of influence
    params: CwtParams

    def __post_init__(self):
        nb, nt = self.wc.shape
        if self.phase.shape != (nb, nt) or self.coi.shape != (nb, nt):
            raise InvalidParameterError(
                f"phase shape {self.phase.shape} and coi shape {self.coi.shape} "
                f"must equal wc shape {(nb, nt)}")
        if len(self.freqs) != nb or len(self.times) != nt:
            raise InvalidParameterError(
                f"{len(self.freqs)} freqs and {len(self.times)} times do not match "
                f"wc shape {(nb, nt)}")


def _next_pow2(n: int) -> int:
    return int(2 ** np.ceil(np.log2(n)))


def _prepare(x, name: str = "x") -> tuple[np.ndarray, int, float]:
    """Checked, mean-removed, zero-padded series: (spectrum, n, mean)."""
    x = finite_series(x, name)
    n = len(x)
    if n < 32:
        raise TooShortError(f"need at least 32 samples, got {n}")
    mean = float(x.mean())
    xp = np.zeros(_next_pow2(n))
    xp[:n] = x - mean
    return np.fft.fft(xp), n, mean


def _live_gaussians(scales: np.ndarray, bins: np.ndarray, live: np.ndarray,
                    center: float = 0.0, amp: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """A grid table: row j is ``amp_j * exp(-0.5 * (s_j*bins - center)**2)`` over
    ``bins[:live_j]``, read-only and exactly 0.0 past its end.  Each row is evaluated in
    place, so building the table takes no more memory than it holds."""
    rows = []
    for j, m in enumerate(live.tolist()):
        v = np.multiply(scales[j], bins[:m])
        np.subtract(v, center, out=v)
        np.square(v, out=v)
        np.multiply(-0.5, v, out=v)
        np.exp(v, out=v)
        if amp is not None:
            np.multiply(amp[j], v, out=v)
        v.setflags(write=False)
        rows.append(v)
    return tuple(rows)


@lru_cache(maxsize=_GRIDS)
def _morlet_rows(params: CwtParams, npad: int) -> tuple[np.ndarray, ...]:
    """The grid's Morlet rows at ``npad`` FFT points, one per scale from bin 1 on.

    With ``k`` each bin's angular frequency, row j can be nonzero only where ``k > 0``
    and ``|s_j*k - OMEGA0| <= _LIVE_Z``.  Since OMEGA0 < _LIVE_Z, that is a prefix
    ``k[1:1 + live_j]`` of the positive bins, which come first and ascending in FFT order.
    """
    scales = params.scales()
    dt = 1.0 / params.sample_rate
    k = 2 * np.pi * np.fft.fftfreq(npad, d=dt)
    live = np.searchsorted(k[1:(npad + 1) // 2], (OMEGA0 + _LIVE_Z) / scales, side="right")
    amp = np.sqrt(2 * np.pi * scales / dt) * np.pi ** -0.25
    return _live_gaussians(scales, k[1:], live, OMEGA0, amp)


@lru_cache(maxsize=_GRIDS)
def _gauss_rows(params: CwtParams, npad: int) -> tuple[np.ndarray, ...]:
    """The coherence's Gaussians in time (std = scale), ``exp(-(s*w)**2 / 2)`` over the
    ``npad // 2 + 1`` rfft bins, each row from bin 0 on; past ``s*w = _LIVE_Z`` they are 0.0."""
    scales = params.scales()
    omega = 2 * np.pi * np.fft.rfftfreq(npad, d=1.0 / params.sample_rate)
    return _live_gaussians(scales, omega, np.searchsorted(omega, _LIVE_Z / scales, side="right"))


def _place(out: np.ndarray, table: tuple[np.ndarray, ...], first: int, start: int) -> None:
    """Write rows ``first`` on of ``table`` into the rows of ``out``, from bin ``start``."""
    out[...] = 0.0
    for dst, row in zip(out, table[first:first + len(out)]):
        dst[start:start + len(row)] = row


def _coi(scales: np.ndarray, n: int, dt: float) -> np.ndarray:
    """Deepest edge-free row per time: sqrt(2)*scale <= distance to edge."""
    dist = np.minimum(np.arange(n), n - 1 - np.arange(n)) * dt
    return np.searchsorted(np.sqrt(2.0) * scales, dist, side="right") - 1


def cwt(x, params: CwtParams) -> Scalogram:
    """Continuous wavelet transform of a uniformly sampled series.

    The series must be finite, gap-free and at least 32 samples long.  The
    sample mean is removed before transforming (stored on the result) and
    the series is zero padded to the next power of two.
    """
    instance(params, "params", (CwtParams,))
    spec, n, mean = _prepare(x)
    bank = np.empty((len(params.scales()), len(spec)))  # one energy-normalized row per scale
    _place(bank, _morlet_rows(params, len(spec)), 0, 1)
    coeffs = np.fft.ifft(spec * bank, axis=1)[:, :n]
    coi = _coi(params.scales(), n, 1.0 / params.sample_rate)
    return Scalogram(coeffs=coeffs, freqs=params.freq_grid(), params=params, coi=coi, mean=mean)


@lru_cache(maxsize=_GRIDS)
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


def _band_rows(freqs: np.ndarray, band) -> slice:
    """The grid rows inside ``band`` = (f_lo, f_hi), edges finite and >= 0 Hz: one run of
    rows, since the grid descends."""
    f_lo, f_hi = pair(band, "band", zero=True)
    monotone(freqs, "freqs", descending=True)  # a hand-built map's grid may not descend
    if f_lo > f_hi:
        raise EmptyBandError(f"inverted band [{f_lo}, {f_hi}]")
    lo, hi = np.count_nonzero(freqs > f_hi), np.count_nonzero(freqs >= f_lo)
    if lo >= hi:
        raise EmptyBandError(f"no frequency bins inside band {band}")
    return slice(lo, hi)


def icwt(sg: Scalogram, band: tuple[float, float] | None = None) -> np.ndarray:
    """Single-integral inverse transform over a frequency band.

    Sums Re(W)/sqrt(s) over the rows whose frequency lies in
    ``band = (f_lo, f_hi)`` (all rows when None), normalized by the
    reconstruction plateau, and restores the stored mean.
    """
    instance(sg, "sg", (Scalogram,))
    rows = slice(None) if band is None else _band_rows(sg.freqs, band)
    scales = sg.params.scales()[rows]
    r = (sg.coeffs[rows].real / np.sqrt(scales)[:, None]).sum(axis=0)
    return 2.0 * r / _recon_plateau(sg.params) + sg.mean


@lru_cache(maxsize=_RESPONSES)
def _band_response(params: CwtParams, band: tuple[float, float], npad: int) -> np.ndarray:
    """``sum_j psi_hat_j / sqrt(s_j)`` over the band's rows at ``npad`` points; read-only.

    Rows are added in grid order, each only over its live entries; adding the
    skipped 0.0 entries would change no bit.
    """
    rows = _band_rows(params.freq_grid(), band)  # an empty band builds no table
    resp = np.zeros(npad)
    for root, row in zip(np.sqrt(params.scales()[rows]).tolist(), _morlet_rows(params, npad)[rows]):
        resp[1:1 + len(row)] += row / root
    resp.setflags(write=False)
    return resp


def _coherence_rows(spec_x: np.ndarray, spec_y: np.ndarray, n: int,
                    params: CwtParams) -> tuple[np.ndarray, np.ndarray]:
    """(wc, phase) of two padded spectra, computed a block of grid rows at a time.

    A block places its Morlet rows, transforms both series in one buffer,
    forms the four maps (|Wx|^2, |Wy|^2 and the cross spectrum's real and
    imaginary parts, each over s) and smooths them in time with one
    rfft/irfft.  The scale boxcar is a running prefix sum down the
    zero-padded rows, added in ``np.cumsum``'s order; the last ``_WIN``
    prefix rows carry into the next block, and each row's wc and phase are
    written once its boxcar closes.  No stage mixes rows or reorders a sum,
    so every value keeps the bits of the whole-grid computation.  Every
    buffer is allocated once per call; the Morlet and Gaussian rows are read
    from the grid's tables.
    """
    scales = params.scales()
    nb, npad = len(scales), len(spec_x)
    morlet, smoothing = _morlet_rows(params, npad), _gauss_rows(params, npad)
    padded = nb + _WIN - 1 - _TOP  # the padded rows from the grid's first on
    i = np.arange(nb)
    counts = (np.minimum(i - _TOP + _WIN, nb) - np.maximum(i - _TOP, 0)).astype(float)

    rows = min(nb, max(1, math.isqrt(_BLOCK_POINTS // npad)))
    spec = np.stack([spec_x, spec_y])
    bank = np.empty((rows, 1, npad), dtype=np.complex128)  # real rows, as numpy casts them
    w = np.empty((rows, 2, npad), dtype=np.complex128)  # Wx and Wy; then cross spectra
    maps = np.zeros((rows, 4, npad))  # the four maps; smoothed in time; boxcar means
    gauss = np.empty((rows, 1, npad // 2 + 1))
    spec4 = np.empty((rows, 4, npad // 2 + 1), dtype=np.complex128)
    cs = np.zeros((_WIN + rows, 4, n))  # the carried prefix rows, then the block's
    tmp = np.empty((rows, n))
    wc = np.empty((nb, n))
    phase = np.empty((nb, n))

    m = maps[:, :, :n]
    for g0 in range(0, padded, rows):  # block g0 adds the padded rows from g0 + _TOP
        r = min(rows, padded - g0)
        grid = min(r, nb - g0)  # of which grid rows; the rest (<= 0: all) are zero rows
        if grid > 0:
            _place(bank[:grid, 0], morlet, g0, 1)
            wb = w[:grid]
            np.multiply(spec, bank[:grid], out=wb)
            np.fft.ifft(wb, axis=-1, out=wb)
            wx, wy, t, mb = wb[:, 0, :n], wb[:, 1, :n], tmp[:grid], m[:grid]
            for src, dst in ((wx, mb[:, 0]), (wy, mb[:, 1])):
                np.abs(src, out=dst)
                np.square(dst, out=dst)
            np.multiply(wx.real, wy.real, out=mb[:, 2])
            np.multiply(wx.imag, wy.imag, out=t)
            np.add(mb[:, 2], t, out=mb[:, 2])
            np.multiply(wx.imag, wy.real, out=mb[:, 3])
            np.multiply(wx.real, wy.imag, out=t)
            np.subtract(mb[:, 3], t, out=mb[:, 3])
            np.multiply(mb, 1.0 / scales[g0:g0 + grid, None, None], out=mb)
            maps[:grid, :, n:] = 0.0  # the time smoothing's zero padding

            f = spec4[:grid]
            _place(gauss[:grid, 0], smoothing, g0, 0)
            np.fft.rfft(maps[:grid], axis=-1, out=f)
            np.multiply(f, gauss[:grid], out=f)
            np.fft.irfft(f, npad, axis=-1, out=maps[:grid])

        first = g0 + _TOP  # >= _TOP: zero rows above make row _TOP 0.0 + m[0], as in np.cumsum
        for j in range(r):
            np.add(cs[_WIN + j - 1], m[j] if j < grid else 0.0, out=cs[_WIN + j])

        lo, hi = max(0, first - _WIN + 1), first + r - _WIN + 1  # rows whose boxcars closed
        if lo < hi:
            a, q = lo + _WIN - 1 - first, hi - lo
            box, d, z, out = m[:q], tmp[:q], w[:q, 0, :n], wc[lo:hi]
            np.subtract(cs[_WIN + a:_WIN + r], cs[a:r], out=box)
            np.divide(box, counts[lo:hi, None, None], out=box)
            np.multiply(box[:, 0], box[:, 1], out=d)
            np.multiply(1j, box[:, 3], out=z)
            np.add(z, box[:, 2], out=z)
            np.abs(z, out=out)
            np.square(out, out=out)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(out, d, out=out)
            out[d <= 0] = 0.0
            np.clip(out, 0.0, 1.0, out=out)
            np.arctan2(z.imag, z.real, out=phase[lo:hi])
        np.copyto(cs[:_WIN], cs[r:r + _WIN])
    return wc, phase


def wavelet_coherence(x, y, params: CwtParams) -> CoherenceMap:
    """Magnitude-squared wavelet coherence and phase of two series.

    wc = |S(Wx * conj(Wy) / s)|^2 / (S(|Wx|^2 / s) * S(|Wy|^2 / s)) with S
    the smoothing operator: a Gaussian in time (std = scale), then a boxcar
    across 0.6 decorrelation lengths of scale (``_WIN`` = 7 rows, the grid
    zero padded above and below).  Both are positive-weight averages, which
    is what bounds wc by Cauchy-Schwarz.
    phase is the argument of the smoothed cross spectrum (positive when y
    lags x).  The cross spectrum's real and imaginary parts are built and
    smoothed as real rows, so swapping x and y negates the imaginary part
    exactly and leaves wc unchanged to the bit.

    The grid is processed in blocks of rows (see :func:`_coherence_rows`),
    bit-identical to computing each stage over the whole grid at once.
    """
    instance(params, "params", (CwtParams,))
    spec_x, n, _ = _prepare(x)
    spec_y, n_y, _ = _prepare(y, "y")
    if n_y != n:
        raise InvalidParameterError(f"lengths differ: {n} vs {n_y}")
    scales = params.scales()
    dt = 1.0 / params.sample_rate
    wc, phase = _coherence_rows(spec_x, spec_y, n, params)
    for grid in (wc, phase):  # built here, so the map takes them without a copy
        grid.setflags(write=False)

    return CoherenceMap(
        wc=wc,
        phase=phase,
        freqs=params.freq_grid(),
        times=np.arange(n) * dt,
        coi=np.arange(len(scales))[:, None] <= _coi(scales, n, dt)[None, :],
        params=params,
    )


def band_average(cmap: CoherenceMap, band: tuple[float, float]) -> np.ndarray:
    """Mean coherence over a frequency band, per time index.

    The average skips edge-affected cells; times where the whole band is
    edge-affected fall back to the unmasked average.
    """
    rows = _band_rows(instance(cmap, "cmap", (CoherenceMap,)).freqs, band)
    sub = cmap.wc[rows]
    mask = cmap.coi[rows]
    cnt = mask.sum(axis=0)
    tot = sub.sum(axis=0, where=mask)
    out = np.where(cnt > 0, tot / np.maximum(cnt, 1), sub.mean(axis=0))
    return out


def coherent_gap_width(
    cmap: CoherenceMap,
    band: tuple[float, float] = GAP_BAND,
    wc_floor: float = GAP_WC_FLOOR,
) -> list[tuple[float, float]]:
    """Detect low-coherence time intervals in a frequency band.

    Returns (start_time_s, width_s) for every run of times inside a gap: a
    time is inside when the last time at or before it whose band-averaged
    coherence crossed a threshold fell below ``wc_floor`` (in [0, 1]), not
    rose above ``wc_floor + HYSTERESIS``, which keeps one physical gap from
    fragmenting.  Width times packet rate estimates the lost packets.
    """
    wc_floor = real(wc_floor, "wc_floor", hi=1, zero=True)
    avg = band_average(cmap, band)
    dt = float(cmap.times[1] - cmap.times[0]) if len(cmap.times) > 1 else 1.0
    idx = np.arange(len(avg))
    fell, rose = (np.maximum.accumulate(np.where(crossed, idx, -1))
                  for crossed in (avg < wc_floor, avg > wc_floor + HYSTERESIS))
    edges = np.flatnonzero(np.diff(fell > rose, prepend=False, append=False)).tolist()
    return [(s * dt, (e - s) * dt) for s, e in zip(edges[::2], edges[1::2])]


def coherence_summary(cmap: CoherenceMap) -> dict:
    """JSON-ready summary over GAP_BAND and GAP_WC_FLOOR: band means, gaps, grid metadata."""
    gaps = coherent_gap_width(cmap)
    # the cells inside the cone are a copy as large as the map's edge-free part: freed here,
    # before band_average makes its own
    mean_in_coi = float(cmap.wc[cmap.coi].mean()) if cmap.coi.any() else None
    return {
        "freq_range_hz": [float(cmap.freqs[-1]), float(cmap.freqs[0])],
        "n_freq_bins": int(len(cmap.freqs)),
        "duration_s": float(cmap.times[-1]) if len(cmap.times) else 0.0,
        "band_hz": list(GAP_BAND),
        "wc_floor": GAP_WC_FLOOR,
        "mean_wc_in_coi": mean_in_coi,
        "band_mean_wc": float(band_average(cmap, GAP_BAND).mean()),
        "gaps": [{"start_s": s, "width_s": w} for s, w in gaps],
    }
