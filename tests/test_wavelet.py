import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csirecip import keygen, reconstruct, wavelet
from csirecip.errors import EmptyBandError, GapsPresentError, NonFiniteError, TooShortError
from csirecip.reconstruct import wt_reconstruct
from csirecip.wavelet import (
    OMEGA0,
    CwtParams,
    band_average,
    coherence_summary,
    coherent_gap_width,
    cwt,
    default_params,
    icwt,
    wavelet_coherence,
)

FS = 10.0


def params(n, min_freq=None, max_freq=None):
    duration = n / FS
    return CwtParams(
        min_freq=min_freq or 4.0 / duration,
        max_freq=max_freq or FS / 2,
        sample_rate=FS,
    )


def band_limited_fixture(seed, n, f_lo=0.05, f_hi=0.8, n_tones=12):
    """Random sum of tones strictly inside [f_lo, f_hi]; generator truth."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / FS
    fk = rng.uniform(f_lo, f_hi, n_tones)
    amp = rng.normal(size=n_tones)
    ph = rng.uniform(0, 2 * np.pi, n_tones)
    return (amp[:, None] * np.cos(2 * np.pi * fk[:, None] * t + ph[:, None])).sum(axis=0)


class TestCwt:
    def test_single_tone_localization(self):
        n = 2048
        t = np.arange(n) / FS
        x = np.sin(2 * np.pi * 0.5 * t)
        sg = cwt(x, params(n))
        interior = slice(n // 4, 3 * n // 4)
        ridge_bin = np.abs(sg.coeffs[:, interior]).mean(axis=1).argmax()
        # within one voice of 0.5 Hz
        assert abs(np.log2(sg.freqs[ridge_bin] / 0.5)) <= 1 / 12 + 1e-9

    def test_constant_series_has_zero_coeffs(self):
        sg = cwt(np.full(256, 7.5), params(256))
        assert np.abs(sg.coeffs).max() <= 1e-8
        assert sg.mean == pytest.approx(7.5)

    def test_two_tone_ridges(self):
        n = 4096
        t = np.arange(n) / FS
        x = np.sin(2 * np.pi * 0.1 * t) + np.sin(2 * np.pi * 1.0 * t)
        sg = cwt(x, params(n))
        interior = np.abs(sg.coeffs[:, n // 4: 3 * n // 4]).mean(axis=1)
        for f_true in (0.1, 1.0):
            # the profile's peak within +/-3 voices sits within one voice
            search = np.abs(np.log2(sg.freqs / f_true)) <= 3 / 12
            jpeak = np.flatnonzero(search)[interior[search].argmax()]
            assert abs(np.log2(sg.freqs[jpeak] / f_true)) <= 1 / 12 + 1e-9

    def test_gaps_rejected(self):
        x = np.ones(64)
        x[10] = np.nan
        with pytest.raises(GapsPresentError):
            cwt(x, params(64))

    def test_too_short(self):
        with pytest.raises(TooShortError):
            cwt(np.ones(16), params(64))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    @pytest.mark.parametrize("entry", ["cwt", "wt_reconstruct", "wavelet_coherence"])
    def test_infinite_rejected_naming_index(self, entry, bad):
        x = np.random.default_rng(0).normal(size=64)
        x[17] = bad
        p = params(64)
        calls = {
            "cwt": lambda: cwt(x, p),
            "wt_reconstruct": lambda: wt_reconstruct(x, (p.min_freq, p.max_freq), p),
            "wavelet_coherence": lambda: wavelet_coherence(np.zeros(64), x, p),
        }
        with pytest.raises(NonFiniteError, match="sample 17"):
            calls[entry]()

    @pytest.mark.parametrize("n, periods", [(37, 4), (500, 12), (2048, 16), (5500, 12)])
    def test_matches_per_scale_loop(self, n, periods):
        """The batched transform is bit-identical to one ifft per scale, on grids whose
        slowest row fits ``periods`` cycles in the series."""
        x = np.random.default_rng(n).normal(size=n).cumsum() + 3.0
        p = default_params(n, FS, periods)
        dt = 1.0 / FS
        npad = int(2 ** np.ceil(np.log2(n)))
        xp = np.zeros(npad)
        xp[:n] = x - x.mean()
        fx = np.fft.fft(xp)
        k = 2 * np.pi * np.fft.fftfreq(npad, d=dt)
        pos = k > 0
        want = np.empty((len(p.freq_grid()), n), dtype=np.complex128)
        for j, s in enumerate(p.scales()):
            psi = np.zeros_like(k)
            psi[pos] = (np.sqrt(2 * np.pi * s / dt) * np.pi ** -0.25
                        * np.exp(-0.5 * (s * k[pos] - OMEGA0) ** 2))
            want[j] = np.fft.ifft(fx * psi)[:n]
        np.testing.assert_array_equal(cwt(x, p).coeffs, want)

    def test_coi_shape(self):
        n = 512
        sg = cwt(np.random.default_rng(0).normal(size=n), params(n))
        assert sg.coi.shape == (n,)
        # edges have fewer valid rows than the center
        assert sg.coi[0] < sg.coi[n // 2]
        assert -1 <= sg.coi.min() and sg.coi.max() < len(sg.freqs)  # a row of the grid, or none


class TestIcwt:
    def test_round_trip_band_limited(self):
        errs = []
        for seed in range(10):
            n = 3000
            x = band_limited_fixture(seed, n)
            p = params(n)
            xr = icwt(cwt(x, p))
            errs.append(np.linalg.norm(xr - x) / np.linalg.norm(x))
        assert max(errs) <= 0.05

    def test_round_trip_with_offset(self):
        x = 10.0 + band_limited_fixture(3, 2000)
        xr = icwt(cwt(x, params(2000)))
        assert np.linalg.norm(xr - x) / np.linalg.norm(x) <= 0.05

    def test_band_isolates_tone(self):
        n = 4096
        t = np.arange(n) / FS
        lo_tone = np.sin(2 * np.pi * 0.1 * t)
        hi_tone = np.sin(2 * np.pi * 1.0 * t)
        sg = cwt(lo_tone + hi_tone, params(n))
        rec = icwt(sg, band=(0.05, 0.2))
        interior = slice(n // 4, 3 * n // 4)
        c = np.corrcoef(rec[interior], lo_tone[interior])[0, 1]
        assert c >= 0.95

    def test_zero_scalogram_gives_zero(self):
        sg = cwt(band_limited_fixture(0, 256), params(256))
        zeroed = type(sg)(
            coeffs=np.zeros_like(sg.coeffs), freqs=sg.freqs,
            params=sg.params, coi=sg.coi, mean=0.0,
        )
        np.testing.assert_allclose(icwt(zeroed), 0.0, atol=1e-15)

    def test_linear(self):
        p = params(512)
        x1 = band_limited_fixture(1, 512)
        x2 = band_limited_fixture(2, 512)
        sg1, sg2 = cwt(x1, p), cwt(x2, p)
        a = 2.5
        combined = type(sg1)(
            coeffs=a * sg1.coeffs + sg2.coeffs, freqs=sg1.freqs,
            params=p, coi=sg1.coi, mean=a * sg1.mean + sg2.mean,
        )
        np.testing.assert_allclose(
            icwt(combined), a * icwt(sg1) + icwt(sg2), atol=1e-9)

    def test_empty_band(self):
        sg = cwt(band_limited_fixture(0, 256), params(256))
        with pytest.raises(EmptyBandError):
            icwt(sg, band=(2.0, 2.0001))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(32, 1500), seed=st.integers(0, 2 ** 32 - 1),
       a=st.floats(-100.0, 100.0), b=st.floats(-100.0, 100.0), banded=st.booleans())
@example(n=32, seed=0, a=0.0, b=5e-324, banded=False)  # a one-subnormal-ulp gap at scale ~1e-323
def test_icwt_of_cwt_is_linear(n, seed, a, b, banded):
    """icwt(cwt(a x + b y)) = a icwt(cwt(x)) + b icwt(cwt(y)), up to rounding.

    Every step is linear (mean removal, FFT, Morlet filter, row sum), so the
    gap is rounding only: within 1e-12 of the combined input's size (the worst
    of 400 random cases was 1.6e-15).  A subnormal scale rounds to whole
    subnormals, so a few of them are allowed on top.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n).cumsum() + rng.normal()
    y = band_limited_fixture(seed, n) * rng.uniform(0.01, 100.0)
    p = params(n)
    f = p.freq_grid()
    band = (float(f[-1]), float(f[len(f) // 2])) if banded else None  # f descends

    def rec(v):
        return icwt(cwt(v, p), band=band)

    scale = np.abs(a) * np.abs(x).max() + np.abs(b) * np.abs(y).max()
    gap = np.abs(rec(a * x + b * y) - (a * rec(x) + b * rec(y))).max()
    assert gap <= 1e-12 * scale + 4 * np.finfo(float).smallest_subnormal


@st.composite
def reconstruction_case(draw):
    """A random series, grid and band; a 1% shift moves the band edges off the grid."""
    n = draw(st.integers(32, 3000))
    p = CwtParams(min_freq=FS / n * draw(st.floats(1.0, 4.0)), max_freq=FS / 2, sample_rate=FS)
    freqs = p.freq_grid()
    picked = draw(st.lists(st.integers(0, len(freqs) - 1), min_size=1, max_size=8,
                           unique=True))
    shift = draw(st.sampled_from([1.0, 1.01]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.normal(size=n).cumsum() * draw(st.floats(0.01, 100.0)) + rng.normal()
    return x, p, np.sort(np.array(picked)), shift


@settings(max_examples=40, deadline=None)
@given(reconstruction_case())
@example((np.random.default_rng(0).normal(size=32).cumsum(), CwtParams(0.3125, 5.0, 10.0),
          np.array([0]), 1.01))  # a one-row band shifted off the grid holds no bin
def test_wt_reconstruct_equals_icwt_of_cwt(case):
    x, p, picked, shift = case
    f = p.freq_grid()[picked] * shift
    band = (float(f.min()), float(f.max()))
    sg = cwt(x, p)
    try:
        want = icwt(sg, band=band)
    except EmptyBandError:
        with pytest.raises(EmptyBandError):
            wt_reconstruct(x, band, p)
        return
    got = wt_reconstruct(x, band, p)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def dense_bank(scales, k, p):
    """The Morlet bank evaluated at every bin, zero where k <= 0: the reference."""
    dt = 1.0 / p.sample_rate
    pos = k > 0
    out = np.zeros((len(scales), len(k)))
    out[:, pos] = (
        np.sqrt(2 * np.pi * scales / dt)[:, None]
        * np.pi ** -0.25
        * np.exp(-0.5 * (scales[:, None] * k[pos] - OMEGA0) ** 2)
    )
    return out


@st.composite
def response_case(draw):
    """A grid, a band on it (one row, the full grid or a random run) and a padded length."""
    npad = 2 ** draw(st.integers(5, 15))
    rate = draw(st.sampled_from([1.0, 10.0, 100.0, 1000.0]))
    p = CwtParams(min_freq=rate / npad * draw(st.floats(1.0, 4.0)), max_freq=rate / 2,
                  sample_rate=rate)
    freqs = p.freq_grid()
    kind = draw(st.sampled_from(["one", "full", "run"]))
    if kind == "full":
        return p, (float(freqs[-1]), float(freqs[0])), npad
    hi = draw(st.integers(0, len(freqs) - 1))
    lo = hi if kind == "one" else draw(st.integers(hi, len(freqs) - 1))
    return p, (float(freqs[lo]), float(freqs[hi])), npad


@settings(max_examples=30, deadline=None)
@given(response_case())
@example((CwtParams(4.0 / 550, 5.0, 10.0), (0.05, 1.0), 8192))  # a key window's grid
def test_band_response_equals_dense_row_sum(case):
    """Live slices only, yet bit-equal to the dense bank's row sum in grid order."""
    p, band, npad = case
    rows = np.flatnonzero((p.freq_grid() >= band[0]) & (p.freq_grid() <= band[1]))
    scales = p.scales()[rows]
    k = 2 * np.pi * np.fft.fftfreq(npad, d=1.0 / p.sample_rate)
    got = wavelet._band_response(p, band, npad)
    if len(scales) * npad <= 2 ** 20:
        want = (dense_bank(scales, k, p) / np.sqrt(scales)[:, None]).sum(axis=0)
    else:  # the same row-order sum, one dense row at a time
        want = np.zeros(npad)
        for s in scales:
            want += dense_bank(np.array([s]), k, p)[0] / np.sqrt(s)
    assert np.array_equal(got, want)
    head = np.empty((min(8, len(p.freq_grid())), npad))  # the grid table's first rows
    wavelet._place(head, wavelet._morlet_rows(p, npad), 0, 1)
    assert np.array_equal(head, dense_bank(p.scales()[:len(head)], k, p))


def test_band_response_is_shared_and_read_only():
    p = params(500)
    band = (0.1, 1.0)
    resp = wavelet._band_response(p, band, 512)
    assert wavelet._band_response(p, band, 512) is resp
    assert not resp.flags.writeable
    with pytest.raises(ValueError):
        resp[1] = 0.0


def test_tables_are_read_only():
    p = params(500)
    arrays = [*wavelet._morlet_rows(p, 512), *wavelet._gauss_rows(p, 512),
              reconstruct._GOLAY_HAT, *keygen._quantile_index(100, 4)]
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        wavelet._morlet_rows(p, 512)[0][0] = 1.0


def test_tables_stay_within_their_bounds():
    """A sweep over more configurations than each cache keeps leaves each at its bound."""
    caches = (wavelet._morlet_rows, wavelet._gauss_rows, wavelet._recon_plateau,
              wavelet._band_response, keygen._quantile_index)
    for cache in caches:
        cache.cache_clear()
    x = band_limited_fixture(1, 400)
    for k in range(10):  # ten grids
        wavelet_coherence(x, x[::-1], params(400, min_freq=0.05 + 0.001 * k))
        wt_reconstruct(x, (0.1, 1.0), params(400, min_freq=0.05 + 0.001 * k))
    for block_len in range(20, 30):
        keygen.make_keys(x, block_len)
    for cache in caches:
        info = cache.cache_info()
        assert info.misses >= 10 > info.maxsize
        assert info.currsize == info.maxsize


def test_threads_on_one_cold_grid_agree():
    """Four threads that start together on a cold grid return the serial map, bit for bit."""
    x = band_limited_fixture(2, 500)
    y = x + 0.3 * np.random.default_rng(2).normal(size=500)
    p = params(500)
    want = wavelet_coherence(x, y, p)
    wavelet._morlet_rows.cache_clear()
    wavelet._gauss_rows.cache_clear()
    start = threading.Barrier(4)

    def one(_):
        start.wait()
        return wavelet_coherence(x, y, p)
    with ThreadPoolExecutor(4) as pool:
        maps = list(pool.map(one, range(4)))
    for got in maps:
        assert np.array_equal(got.wc, want.wc)
        assert np.array_equal(got.phase, want.phase)
        assert np.array_equal(np.signbit(got.phase), np.signbit(want.phase))


def test_coherence_builds_one_bank(monkeypatch):
    """One Morlet evaluation serves both transforms and every block of rows, one Gaussian
    evaluation every block's time smoothing, and a second coherence on the same grid reads
    the grid's tables without evaluating either."""
    wavelet._morlet_rows.cache_clear()
    wavelet._gauss_rows.cache_clear()
    built = []
    tables = wavelet._live_gaussians
    monkeypatch.setattr(wavelet, "_live_gaussians", lambda *a: built.append(a) or tables(*a))
    x = band_limited_fixture(0, 500)
    p = params(500)
    assert len(p.freq_grid()) > math.isqrt(wavelet._BLOCK_POINTS // 512)  # several blocks
    wavelet_coherence(x, x + 0.1 * np.random.default_rng(0).normal(size=500), p)
    assert len(built) == 2
    wavelet_coherence(x, x + 0.2 * np.random.default_rng(1).normal(size=500), p)
    assert len(built) == 2


def whole_grid_smooth(mat, scales, dt):
    """The smoothing operator over the whole grid at once: the reference."""
    nb, n = mat.shape
    npad = int(2 ** np.ceil(np.log2(n)))
    k = 2 * np.pi * np.fft.rfftfreq(npad, d=dt)
    resp = np.exp(-0.5 * (scales[:, None] * k[None, :]) ** 2)
    out = np.fft.irfft(np.fft.rfft(mat, npad, axis=1) * resp, npad, axis=1)[:, :n]
    win = int(round(0.6 * wavelet.VOICES_PER_OCTAVE))  # 0.6 decorrelation lengths of scale

    def box_sum(cols):
        padded = np.zeros((nb + win - 1, cols.shape[1]), dtype=cols.dtype)
        padded[(win - 1) // 2:(win - 1) // 2 + nb] = cols
        cs = np.cumsum(padded, axis=0)
        summed = np.empty_like(cols)
        summed[0] = cs[win - 1]
        summed[1:] = cs[win:] - cs[:nb - 1]
        return summed

    return box_sum(out) / box_sum(np.ones((nb, 1)))


def whole_grid_coherence(x, y, p):
    """(wc, phase) with every stage over the whole grid: the reference."""
    n = len(x)
    npad = int(2 ** np.ceil(np.log2(n)))
    k = 2 * np.pi * np.fft.fftfreq(npad, d=1.0 / p.sample_rate)
    scales = p.scales()
    bank = dense_bank(scales, k, p)
    wx, wy = (np.fft.ifft(np.fft.fft(np.r_[v - v.mean(), np.zeros(npad - n)]) * bank,
                          axis=1)[:, :n] for v in (x, y))
    dt, inv_s = 1.0 / p.sample_rate, (1.0 / scales)[:, None]
    xr, xi, yr, yi = wx.real, wx.imag, wy.real, wy.imag
    sxx = whole_grid_smooth(np.abs(wx) ** 2 * inv_s, scales, dt)
    syy = whole_grid_smooth(np.abs(wy) ** 2 * inv_s, scales, dt)
    sxy = (whole_grid_smooth((xr * yr + xi * yi) * inv_s, scales, dt)
           + 1j * whole_grid_smooth((xi * yr - xr * yi) * inv_s, scales, dt))
    denom = sxx * syy
    with np.errstate(divide="ignore", invalid="ignore"):
        wc = np.abs(sxy) ** 2 / denom
    wc[denom <= 0] = 0.0
    return np.clip(wc, 0.0, 1.0), np.angle(sxy)


@st.composite
def blocked_case(draw):
    """A series pair (correlated, independent, x = y, y constant, or y zero: every map
    entry of a zero y is a signed zero), a grid, and rows per block from one up to past
    the grid's row count."""
    n = draw(st.integers(32, 5000))
    p = CwtParams(min_freq=FS / n * draw(st.floats(1.0, 4.0)), max_freq=FS / 2, sample_rate=FS)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.normal(size=n).cumsum() * 10.0 ** draw(st.floats(-3, 3)) + rng.normal()
    kind = draw(st.sampled_from(["correlated", "independent", "same", "constant", "zero"]))
    y = {"correlated": lambda: x + rng.normal(size=n), "same": lambda: x.copy(),
         "independent": lambda: rng.normal(size=n), "constant": lambda: np.full(n, 0.1),
         "zero": lambda: np.zeros(n)}[kind]()
    return x, y, p, draw(st.integers(1, len(p.freq_grid()) + 3))


@settings(max_examples=60, deadline=None)
@given(blocked_case())
@example((np.random.default_rng(1).normal(size=40), np.random.default_rng(2).normal(size=40),
          CwtParams(4.5, 5.0, 10.0), 1))  # two grid rows, a boxcar of seven
def test_blocked_coherence_equals_whole_grid(case):
    """Blocks of rows over reused buffers give the whole-grid map, bit for bit."""
    x, y, p, rows = case
    want_wc, want_phase = whole_grid_coherence(x, y, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wavelet, "_BLOCK_POINTS", rows ** 2 * int(2 ** np.ceil(np.log2(len(x)))))
        got = wavelet_coherence(x, y, p)
    assert np.array_equal(got.wc, want_wc)
    assert np.array_equal(got.phase, want_phase)
    assert np.array_equal(np.signbit(got.phase), np.signbit(want_phase))


def test_coherence_peak_memory_near_its_output():
    """The blocks' buffers stay small beside the returned grids."""
    n = 8192
    x = np.random.default_rng(0).normal(size=n).cumsum()
    y = x + np.random.default_rng(1).normal(size=n)
    tracemalloc.start()
    try:
        cm = wavelet_coherence(x, y, params(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * (cm.wc.nbytes + cm.phase.nbytes + cm.coi.nbytes)


class TestCoherence:
    def test_self_coherence(self):
        n = 2048
        x = np.random.default_rng(0).normal(size=n)
        cm = wavelet_coherence(x, x, params(n))
        assert cm.wc[cm.coi].min() >= 0.99
        assert np.abs(cm.phase[cm.coi]).max() <= 1e-6

    def test_independent_noise_median(self):
        # seeded Monte Carlo bound: median inside-coi coherence of
        # independent white noise stays below 0.5
        n = 4096
        meds = []
        for seed in range(5):
            x = np.random.default_rng(seed).standard_normal(n)
            y = np.random.default_rng(seed + 1000).standard_normal(n)
            cm = wavelet_coherence(x, y, params(n))
            meds.append(np.median(cm.wc[cm.coi]))
        assert max(meds) <= 0.5

    def test_phase_delay_relation(self):
        # y delayed 2 s at 0.1 Hz -> phase = 2*pi*0.1*2 = 1.2566 rad
        n = 4096
        t = np.arange(n) / FS
        x = np.sin(2 * np.pi * 0.1 * t)
        y = np.sin(2 * np.pi * 0.1 * (t - 2.0))
        cm = wavelet_coherence(x, y, params(n))
        jbin = int(np.argmin(np.abs(cm.freqs - 0.1)))
        mid = slice(n // 4, 3 * n // 4)
        got = np.median(cm.phase[jbin, mid])
        assert got == pytest.approx(2 * np.pi * 0.1 * 2.0, abs=0.05)

    def test_bounds_on_random_pairs(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(64, 400))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n) + rng.uniform(-1, 1) * x
            cm = wavelet_coherence(x, y, params(n, min_freq=0.1))
            assert cm.wc.min() >= 0.0
            assert cm.wc.max() <= 1.0
            assert cm.phase.min() > -np.pi - 1e-12
            assert cm.phase.max() <= np.pi + 1e-12

    def test_swap_symmetry(self):
        n = 1024
        x = band_limited_fixture(5, n) + 0.3 * np.random.default_rng(5).normal(size=n)
        y = band_limited_fixture(5, n) + 0.3 * np.random.default_rng(6).normal(size=n)
        a = wavelet_coherence(x, y, params(n))
        b = wavelet_coherence(y, x, params(n))
        np.testing.assert_allclose(a.wc, b.wc, atol=1e-9)
        # phase negates away from the +/- pi wraparound
        safe = np.abs(np.abs(a.phase) - np.pi) > 1e-6
        np.testing.assert_allclose(a.phase[safe], -b.phase[safe], atol=1e-9)


@st.composite
def coherence_case(draw):
    """A series pair of any scale: correlated, independent, or y constant."""
    n = draw(st.integers(32, 700))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale_x, scale_y = (10.0 ** draw(st.floats(-3, 3)) for _ in range(2))
    walk = rng.normal(size=n).cumsum()
    x = walk * scale_x + 5.0
    if draw(st.booleans()):
        y = np.full(n, 3.0 * scale_y)
    else:
        rho = draw(st.floats(0, 1))
        y = (rho * walk + np.sqrt(1 - rho ** 2) * rng.normal(size=n).cumsum()) * scale_y
    return x, y, default_params(n, FS, periods=draw(st.sampled_from([1.0, 4.0])))


# The second example's swap differed by 3.2e-9 while the cross spectrum was
# smoothed as one complex row (a constant y leaves only rounding in Wy).
@settings(max_examples=40, deadline=None)
@given(coherence_case())
@example((np.random.default_rng(1).normal(size=32).cumsum(), np.full(32, 2.0),
          default_params(32, FS, periods=1.0)))
@example((np.random.default_rng(4).normal(size=250).cumsum() * 5.0 + 5.0,
          np.full(250, 3.0 * 10 ** 0.5), CwtParams(0.04, 5.0, 10.0)))
def test_coherence_bounded_and_swap_symmetric(case):
    x, y, p = case
    wc = wavelet_coherence(x, y, p).wc
    assert 0.0 <= wc.min() and wc.max() <= 1.0
    # the swap negates the smoothed imaginary part exactly, so wc is bit-equal
    np.testing.assert_array_equal(wavelet_coherence(y, x, p).wc, wc)


def drop_and_fill(x, start_s, count, fs):
    """Simulate packet loss repaired by linear interpolation."""
    y = x.copy()
    i0 = int(round(start_s * fs))
    lo, hi = i0 - 1, i0 + count
    y[i0:i0 + count] = np.interp(np.arange(i0, i0 + count), [lo, hi],
                                 [x[lo], x[hi]])
    return y


class TestGapWidth:
    FS5 = 5.0

    def _pair(self, seed, n):
        rng = np.random.default_rng(seed)
        t = np.arange(n) / self.FS5
        fk = np.geomspace(0.05, 0.8, 24)
        amp = rng.normal(size=24)
        ph = rng.uniform(0, 2 * np.pi, 24)
        base = (amp[:, None] * np.cos(2 * np.pi * fk[:, None] * t + ph[:, None])).sum(axis=0)
        base /= base.std()
        noise = 10 ** (-20 / 20)
        x = base + noise * rng.standard_normal(n)
        y = base + noise * np.random.default_rng(seed + 999).standard_normal(n)
        return x, y

    def _params(self, n):
        return CwtParams(min_freq=4.0 / (n / self.FS5), max_freq=self.FS5 / 2,
                         sample_rate=self.FS5)

    @pytest.mark.parametrize("dropped", [300, 900, 1500])
    def test_single_drop_width(self, dropped):
        n = int(25 * 60 * self.FS5)
        x, y = self._pair(dropped, n)
        y = drop_and_fill(y, 14 * 60.0, dropped, self.FS5)
        cm = wavelet_coherence(x, y, self._params(n))
        gaps = [g for g in coherent_gap_width(cm, (0.06, 1.5), 0.3) if g[1] > 10]
        lost = sum(w for _, w in gaps) * self.FS5
        assert 0.8 * dropped <= lost <= 1.2 * dropped

    def test_no_loss_no_wide_gap(self):
        n = int(25 * 60 * self.FS5)
        x, y = self._pair(1, n)
        cm = wavelet_coherence(x, y, self._params(n))
        gaps = coherent_gap_width(cm, (0.06, 1.5), 0.3)
        assert all(w <= 30.0 for _, w in gaps)

    def test_two_equal_drops(self):
        n = int(25 * 60 * self.FS5)
        x, y = self._pair(2, n)
        y = drop_and_fill(y, 5 * 60.0, 600, self.FS5)
        y = drop_and_fill(y, 14 * 60.0, 600, self.FS5)
        cm = wavelet_coherence(x, y, self._params(n))
        gaps = [g for g in coherent_gap_width(cm, (0.06, 1.5), 0.3) if g[1] > 30]
        assert len(gaps) == 2
        w1, w2 = gaps[0][1], gaps[1][1]
        assert abs(w1 - w2) <= 0.2 * max(w1, w2)
        # and each near the 120 s truth
        for w in (w1, w2):
            assert 0.8 * 120 <= w <= 1.2 * 120

    def test_empty_band_error(self):
        x, y = self._pair(3, 2048)
        cm = wavelet_coherence(x, y, self._params(2048))
        with pytest.raises(EmptyBandError):
            band_average(cm, (3.0, 4.0))  # above grid top (2.5 Hz)


def _gap_loop(cmap, band, wc_floor):
    """Reference for coherent_gap_width: the per-sample hysteresis state machine."""
    avg = band_average(cmap, band)
    dt = float(cmap.times[1] - cmap.times[0]) if len(cmap.times) > 1 else 1.0
    out = []
    inside = False
    start = 0
    for i, v in enumerate(avg):
        if not inside and v < wc_floor:
            inside, start = True, i
        elif inside and v > wc_floor + wavelet.HYSTERESIS:
            out.append((start * dt, (i - start) * dt))
            inside = False
    if inside:
        out.append((start * dt, (len(avg) - start) * dt))
    return out


FLOOR = wavelet.GAP_WC_FLOOR
EXIT = FLOOR + wavelet.HYSTERESIS


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.sampled_from([0.0, FLOOR, EXIT, 1.0, np.nan])
                       | st.floats(0.0, 1.0), max_size=40),
       rows=st.integers(1, 3), dt=st.sampled_from([0.1, 0.2, 1 / 3, 1.0]),
       wc_floor=st.sampled_from([FLOOR, 0.0, 1.0]) | st.floats(0.0, 1.0))
@example(values=[], rows=1, dt=0.1, wc_floor=FLOOR)  # an empty time axis
@example(values=[0.1, 0.2, 0.0], rows=1, dt=0.1, wc_floor=FLOOR)  # all below the floor
# values exactly at the floor neither open a gap nor end one, nor do values exactly at the exit
@example(values=[0.5, FLOOR, FLOOR, 0.5, 0.1, FLOOR, 0.5], rows=1, dt=0.1, wc_floor=FLOOR)
@example(values=[0.1, EXIT, EXIT, 0.2, 0.5, EXIT], rows=1, dt=0.1, wc_floor=FLOOR)
@example(values=[0.5, 0.1, 0.35, 0.2], rows=1, dt=0.1, wc_floor=FLOOR)  # a gap to the end
@example(values=[0.1, 0.5, 0.1, 0.5, 0.2], rows=1, dt=0.1, wc_floor=FLOOR)  # re-entry at once
def test_gap_runs_equal_per_sample_loop(values, rows, dt, wc_floor):
    # one row keeps each band average bit-exact, so values at FLOOR and EXIT reach the rule
    wc = np.tile(values, (rows, 1))
    cmap = wavelet.CoherenceMap(wc=wc, phase=np.zeros_like(wc), freqs=np.arange(rows, 0, -1.0),
                                times=np.arange(len(values)) * dt, coi=np.ones(wc.shape, bool),
                                params=CwtParams(0.1, 5.0, 10.0))
    gaps = coherent_gap_width(cmap, (0.5, 3.5), wc_floor)
    assert gaps == _gap_loop(cmap, (0.5, 3.5), wc_floor)
    assert all(type(v) is float for gap in gaps for v in gap)


def test_band_average_equals_zero_filled_sum():
    """Summing the band's cells inside the cone gives the bytes of zero-filling the rest
    first: wc holds no -0.0, so a skipped cell and an added +0.0 leave one sum."""
    partial = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        cm = wavelet_coherence(rng.normal(size=700), rng.normal(size=700), params(700))
        lo = rng.uniform(0.06, 1.0)
        band = (lo, lo + rng.uniform(0.2, 3.0))
        rows = wavelet._band_rows(cm.freqs, band)
        sub, mask = cm.wc[rows], cm.coi[rows]
        cnt = mask.sum(axis=0)
        want = np.where(cnt > 0, np.where(mask, sub, 0.0).sum(axis=0) / np.maximum(cnt, 1),
                        sub.mean(axis=0))
        assert band_average(cm, band).tobytes() == want.tobytes()
        partial += np.count_nonzero((cnt > 0) & (cnt < len(sub)))
    assert partial  # some columns mix masked and unmasked cells


class TestExports:
    def test_summary(self):
        n = 1024
        x = band_limited_fixture(0, n)
        y = x + 0.1 * np.random.default_rng(1).normal(size=n)
        cm = wavelet_coherence(x, y, params(n))
        s = coherence_summary(cm)
        assert set(s) >= {"gaps", "band_mean_wc", "mean_wc_in_coi", "freq_range_hz"}
        assert 0 <= s["band_mean_wc"] <= 1

    def test_default_params_scale_with_length(self):
        p = default_params(1000, 10.0)
        assert p.min_freq == pytest.approx(4.0 / 100.0)
        assert p.max_freq == pytest.approx(5.0)
        p1 = default_params(500, 10.0, periods=1.0)
        assert p1.min_freq == pytest.approx(1.0 / 50.0)
