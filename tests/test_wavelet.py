import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    estimate_lost_packets,
    icwt,
    wavelet_coherence,
)

FS = 10.0


def params(n, min_freq=None, max_freq=None, vpo=12):
    duration = n / FS
    return CwtParams(
        min_freq=min_freq or 4.0 / duration,
        max_freq=max_freq or FS / 2,
        sample_rate=FS,
        voices_per_octave=vpo,
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

    @pytest.mark.parametrize("n, vpo", [(37, 4), (500, 12), (2048, 16), (5500, 12)])
    def test_matches_per_scale_loop(self, n, vpo):
        """The batched transform is bit-identical to one ifft per scale."""
        x = np.random.default_rng(n).normal(size=n).cumsum() + 3.0
        p = params(n, vpo=vpo)
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
        mask = sg.coi_mask()
        assert mask.shape == sg.coeffs.shape
        assert mask[:, n // 2].sum() > mask[:, 0].sum()


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


@st.composite
def reconstruction_case(draw):
    """A random series, grid and band; a 1% shift moves the band edges off the grid."""
    n = draw(st.integers(32, 3000))
    vpo = draw(st.integers(4, 16))
    p = CwtParams(min_freq=FS / n * draw(st.floats(1.0, 4.0)), max_freq=FS / 2,
                  sample_rate=FS, voices_per_octave=vpo)
    freqs = p.freq_grid()
    picked = draw(st.lists(st.integers(0, len(freqs) - 1), min_size=1, max_size=8,
                           unique=True))
    shift = draw(st.sampled_from([1.0, 1.01]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.normal(size=n).cumsum() * draw(st.floats(0.01, 100.0)) + rng.normal()
    return x, p, np.sort(np.array(picked)), shift


@settings(max_examples=40, deadline=None)
@given(reconstruction_case())
@example((np.random.default_rng(0).normal(size=32).cumsum(), CwtParams(0.3125, 5.0, 10.0, 4),
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
          np.full(250, 3.0 * 10 ** 0.5), CwtParams(0.04, 5.0, 10.0, 12)))
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
        want = dropped / self.FS5
        total = sum(w for _, w in gaps)
        assert 0.8 * want <= total <= 1.2 * want
        assert estimate_lost_packets(gaps, self.FS5) == pytest.approx(
            total * self.FS5)

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


class TestExports:
    def test_summary(self):
        n = 1024
        x = band_limited_fixture(0, n)
        y = x + 0.1 * np.random.default_rng(1).normal(size=n)
        cm = wavelet_coherence(x, y, params(n))
        s = coherence_summary(cm, band=(0.06, 1.5))
        assert set(s) >= {"gaps", "band_mean_wc", "mean_wc_in_coi", "freq_range_hz"}
        assert 0 <= s["band_mean_wc"] <= 1

    def test_default_params_scale_with_length(self):
        p = default_params(1000, 10.0)
        assert p.min_freq == pytest.approx(4.0 / 100.0)
        assert p.max_freq == pytest.approx(5.0)
        p1 = default_params(500, 10.0, periods=1.0)
        assert p1.min_freq == pytest.approx(1.0 / 50.0)
