import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import csirecip.reconstruct as R
from csirecip.errors import (
    InvalidParameterError,
    LengthMismatchError,
    TooShortError,
    UnusableCoherenceError,
)
from csirecip.metrics import pearson, xcorr_lag
from csirecip.reconstruct import (
    ALPHA_DECAY,
    ALPHA_FLOOR,
    ReciprocalBand,
    adapt_thresholds,
    apply_lag,
    fft_reconstruct,
    golay_filter,
    select_reciprocal_freqs,
    wpt_denoise,
    wpt_forward,
    wpt_inverse,
    wt_reconstruct,
)
from csirecip.wavelet import CoherenceMap, CwtParams, Scalogram, wavelet_coherence

FS = 10.0


def make_map(wc, fs=FS):
    """CoherenceMap from a raw wc matrix (synthetic selection fixtures)."""
    nb, nt = wc.shape
    params = CwtParams(min_freq=0.05, max_freq=fs / 2, sample_rate=fs)
    freqs = np.geomspace(fs / 2, 0.05, nb)
    return CoherenceMap(
        wc=np.asarray(wc, dtype=np.float64),
        phase=np.zeros_like(wc),
        freqs=freqs,
        times=np.arange(nt) / fs,
        coi=np.ones_like(wc, dtype=bool),
        params=params,
    )


class TestGolay:
    def test_polynomial_reproduction(self):
        t = np.linspace(0, 1, 101)
        x = 0.7 * t ** 3 + 3 * t ** 2 - 2 * t + 0.5  # GOLAY_ORDER 3 fits a cubic exactly
        np.testing.assert_allclose(golay_filter(x), x, atol=1e-9)

    def test_constant_unchanged(self):
        x = np.full(50, 4.2)
        np.testing.assert_allclose(golay_filter(x), x, atol=1e-12)

    def test_normal_equations_oracle(self):
        # per-window closed-form least-squares projection, interior points
        rng = np.random.default_rng(0)
        t = np.arange(200) / FS
        x = np.sin(2 * np.pi * 0.3 * t) + 0.2 * rng.normal(size=200)
        window, order = R.GOLAY_WINDOW, R.GOLAY_ORDER
        got = golay_filter(x)
        half = window // 2
        A = np.vander(np.arange(-half, half + 1), order + 1, increasing=True)
        proj = np.linalg.lstsq(A, np.eye(window), rcond=None)[0][0]  # row -> center
        for i in range(half, 200 - half):
            want = proj @ x[i - half:i + half + 1]
            assert got[i] == pytest.approx(want, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(x=arrays(np.float64, st.integers(R.GOLAY_WINDOW, R.GOLAY_WINDOW + 60),
                    elements=st.floats(-1e6, 1e6, allow_subnormal=False)))
    def test_matches_scipy_savgol_interp(self, x):
        from scipy.signal import savgol_filter

        want = savgol_filter(x, R.GOLAY_WINDOW, R.GOLAY_ORDER, mode="interp")
        np.testing.assert_allclose(golay_filter(x), want, rtol=0,
                                   atol=1e-11 * np.max(np.abs(x)))

    def test_bad_window(self):
        # a series shorter than the window, as the other baselines
        with pytest.raises(TooShortError, match="need at least 11 samples, got 10"):
            golay_filter(np.arange(10.0))
        assert len(golay_filter(np.arange(11.0))) == 11


class TestFftReconstruct:
    def test_spur_removed(self):
        n = 500  # 50 s: integer cycle counts for both components
        t = np.arange(n) / FS
        tone = np.sin(2 * np.pi * 0.2 * t)
        spur = 0.05 * np.sin(2 * np.pi * 4.0 * t)
        rec = fft_reconstruct(tone + spur)
        assert pearson(rec, tone) >= 0.999
        # spur band power knocked down
        spec = np.abs(np.fft.rfft(rec))
        freqs = np.fft.rfftfreq(n, 1 / FS)
        assert spec[np.argmin(np.abs(freqs - 4.0))] <= 1e-9

    def test_constant_unchanged(self):
        x = np.full(64, 3.3)
        np.testing.assert_allclose(fft_reconstruct(x), x, atol=1e-12)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            fft_reconstruct(np.ones(4))


class TestWpt:
    def test_zero_series(self):
        np.testing.assert_allclose(wpt_denoise(np.zeros(64)), 0.0, atol=1e-12)

    def test_perfect_reconstruction_without_threshold(self):
        x = np.random.default_rng(1).normal(size=256)
        np.testing.assert_allclose(wpt_inverse(wpt_forward(x), 256), x, atol=1e-9)
        # step function too (filter-bank identity holds for any input)
        step = np.concatenate([np.zeros(64), np.ones(64)])
        np.testing.assert_allclose(wpt_inverse(wpt_forward(step), 128), step, atol=1e-9)

    def test_reanalysis_has_half_zeros(self):
        x = np.random.default_rng(2).normal(size=256)
        den = wpt_denoise(x)
        coeffs = wpt_forward(den).ravel()
        assert np.sum(np.abs(coeffs) < 1e-10) >= len(coeffs) // 2

    def test_nonmultiple_length(self):
        x = np.random.default_rng(3).normal(size=250)  # not divisible by 16
        assert len(wpt_denoise(x)) == 250

    def test_too_short(self):
        with pytest.raises(TooShortError):
            wpt_denoise(np.ones(10))

    def test_energy_preserved(self):
        x = np.random.default_rng(4).normal(size=128)
        bands = wpt_forward(x)
        assert bands.shape == (2 ** R.WPT_DEPTH, 128 // 2 ** R.WPT_DEPTH)  # one band per row
        assert sum(float(b @ b) for b in bands) == pytest.approx(float(x @ x))
        np.testing.assert_allclose(wpt_inverse(bands, 128), x, atol=1e-9)


def synthesize_by_scatter(lo, hi, n):
    """One synthesis step as a scatter-add of every tap, band by band: the reference."""
    if lo.ndim == 2:
        return np.array([synthesize_by_scatter(a, b, n) for a, b in zip(lo, hi)])
    y = np.zeros(n)
    pos = (2 * np.arange(n // 2)[:, None] + np.arange(4)[None, :]) % n
    np.add.at(y, pos, lo[:, None] * R._DB4_LO[None, :] + hi[:, None] * R._DB4_HI[None, :])
    return y


@st.composite
def synthesis_pair(draw):
    """Coefficient pairs with zeros of both signs, tiny and large magnitudes."""
    m = draw(st.integers(1, 64))
    values = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e6, 1e6),
                       st.floats(-1e-300, 1e-300))
    return tuple(draw(arrays(np.float64, m, elements=values)) for _ in range(2))


@settings(max_examples=60, deadline=None)
@given(synthesis_pair())
def test_wp_synthesize_equals_scatter_add(pair):
    lo, hi = pair
    got = R._wp_synthesize(lo, hi, 2 * len(lo))
    want = synthesize_by_scatter(lo, hi, 2 * len(lo))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))  # bit for bit, -0.0 too


def test_wpt_denoise_equals_scatter_add(monkeypatch):
    x = np.random.default_rng(9).normal(size=5500).cumsum()
    got = wpt_denoise(x)
    monkeypatch.setattr(R, "_wp_synthesize", synthesize_by_scatter)
    assert np.array_equal(got, wpt_denoise(x))


def band_wp_analyze(x):
    """One analysis step of one band, as wpt_forward took it before its level matrix."""
    n = len(x)
    idx = (np.arange(0, n, 2)[:, None] + np.arange(4)[None, :]) % n
    seg = x[idx]
    return seg @ R._DB4_LO, seg @ R._DB4_HI


def band_wpt_forward(x, depth):
    """The per-band tree: the reference for wpt_forward."""
    bands = [np.asarray(x, dtype=np.float64)]
    for _ in range(depth):
        bands = [part for b in bands for part in band_wp_analyze(b)]
    return bands


def band_wpt_inverse(bands, n):
    """The per-band inverse: the reference for wpt_inverse."""
    bands = list(bands)
    while len(bands) > 1:
        m = n // (len(bands) // 2)
        bands = [R._wp_synthesize(bands[i], bands[i + 1], m) for i in range(0, len(bands), 2)]
    return bands[0]


def band_wpt_denoise(x, depth):
    """wpt_denoise on the per-band tree, as it was before the level matrix."""
    n0, block = len(x), 1 << depth
    n = ((n0 + block - 1) // block) * block
    xp = np.pad(x, (0, n - n0), mode="reflect") if n != n0 else x
    bands = band_wpt_forward(xp, depth)
    med = np.median(np.abs(np.concatenate(bands)))
    bands = [np.where(np.abs(b) < med, 0.0, b) for b in bands]
    return band_wpt_inverse(bands, n)[:n0]


@st.composite
def wpt_case(draw):
    n = draw(st.integers(1 << R.WPT_DEPTH, 5000))
    scale = 10.0 ** draw(st.floats(-6, 6))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) * scale
    kind = draw(st.sampled_from(["noise", "walk", "zeros"]))
    if kind == "walk":
        x = x.cumsum()
    elif kind == "zeros":  # signed zeros and runs of them
        x[rng.random(n) < 0.5] = 0.0
        x[rng.random(n) < 0.25] = -0.0
    return x


@settings(max_examples=60, deadline=None)
@given(wpt_case())
@example(np.zeros(16))
@example(-np.zeros(33))
def test_level_matrix_equals_per_band_tree(x):
    """Bit for bit, the sign of zero included, at every band and through the denoiser."""
    got, want = wpt_denoise(x), band_wpt_denoise(x, R.WPT_DEPTH)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    bands = wpt_forward(x)
    ref = band_wpt_forward(x, R.WPT_DEPTH)
    assert len(bands) == len(ref) == 2 ** R.WPT_DEPTH
    for b, r in zip(bands, ref):
        assert np.array_equal(b.view(np.int64), r.view(np.int64))
    n = len(x) - len(x) % (1 << R.WPT_DEPTH)  # at least one sample per band
    tree = wpt_forward(x[:n])
    inv = wpt_inverse(tree, n)
    assert np.array_equal(inv.view(np.int64), band_wpt_inverse(tree, n).view(np.int64))


_P = CwtParams(0.05, 5.0, 10.0)


@pytest.mark.parametrize("call, value", [
    (lambda: CwtParams(6.0, 5.0, 10.0), "[6.0, 5.0]"),
    (lambda: Scalogram(np.zeros((3, 5)), np.ones(2), _P, np.zeros(5, int)), "(3, 5)"),
    (lambda: CoherenceMap(np.zeros((2, 4)), np.zeros((2, 3)), np.ones(2), np.arange(4.0),
                          np.ones((2, 4), bool), _P), "(2, 3)"),
    (lambda: CoherenceMap(np.zeros((2, 4)), np.zeros((2, 4)), np.ones(3), np.arange(4.0),
                          np.ones((2, 4), bool), _P), "3 freqs"),
    (lambda: wavelet_coherence(np.zeros(40), np.zeros(41), _P), "41"),
    (lambda: ReciprocalBand([], 0.5, 3), "got []"),
    (lambda: ReciprocalBand([0.2], 1.5, 3), "got 1.5"),
    (lambda: ReciprocalBand([0.2], 0.5, 0), "got 0"),
    (lambda: select_reciprocal_freqs(make_map(np.ones((4, 10))), -0.5, 3), "got -0.5"),
    (lambda: select_reciprocal_freqs(make_map(np.ones((4, 10))), 0.5, 11), "got 11"),
], ids=["freq_range", "scalogram_shape", "coherence_shape",
        "coherence_axes", "coherence_lengths", "f_rec", "band_alpha", "band_beta",
        "select_alpha", "select_beta"])
def test_bad_value_named(call, value):
    """Every wavelet and reconstruct parameter check raises one error type naming the value."""
    with pytest.raises(InvalidParameterError) as exc:
        call()
    assert isinstance(exc.value, ValueError)
    assert value in str(exc.value)


class TestSelect:
    def test_saturated_map_selects_all(self):
        m = make_map(np.ones((12, 40)))
        band = select_reciprocal_freqs(m, 1.0, 40)
        assert len(band.f_rec) == 12
        assert band.band == (pytest.approx(m.freqs.min()),
                             pytest.approx(m.freqs.max()))

    def test_zero_map_selects_none(self):
        m = make_map(np.zeros((12, 40)))
        with pytest.raises(UnusableCoherenceError):
            select_reciprocal_freqs(m, 0.5, 10)

    def test_counting_oracle_three_rows(self):
        rng = np.random.default_rng(0)
        nt = 60
        wc = rng.uniform(0.0, 0.5, size=(10, nt))
        hot = [2, 5, 6]
        for r in hot:
            cols = rng.choice(nt, size=nt // 3 + 5, replace=False)
            wc[r, cols] = 0.9
        m = make_map(wc)
        band = select_reciprocal_freqs(m, 0.8, nt // 3)
        got_rows = sorted(int(np.flatnonzero(m.freqs == f)[0]) for f in band.f_rec)
        assert got_rows == hot
        assert band.band[0] == pytest.approx(m.freqs[hot].min())
        assert band.band[1] == pytest.approx(m.freqs[hot].max())

    def test_monotone_in_alpha_and_beta(self):
        rng = np.random.default_rng(7)
        for seed in range(10):
            wc = np.random.default_rng(seed).uniform(size=(16, 50))
            m = make_map(wc)

            def size(alpha, beta):
                try:
                    return len(select_reciprocal_freqs(m, alpha, beta).f_rec)
                except UnusableCoherenceError:
                    return 0

            a1, a2 = sorted(rng.uniform(0.1, 0.9, 2))
            b1, b2 = sorted(rng.integers(1, 50, 2))
            assert size(a2, int(b1)) <= size(a1, int(b1))
            assert size(a1, int(b2)) <= size(a1, int(b1))


class TestAdapt:
    def test_uniform_map(self):
        m = make_map(np.full((14, 50), 0.9))
        band = adapt_thresholds(m)
        assert len(band.f_rec) == 14
        assert band.alpha == pytest.approx(0.9, abs=1e-5)

    def test_half_high_half_low(self):
        nt = 60
        wc = np.full((16, nt), 0.2)
        wc[4:12] = 0.8  # exactly half the bins with long high runs
        m = make_map(wc)
        band = adapt_thresholds(m)
        got_rows = sorted(int(np.flatnonzero(m.freqs == f)[0]) for f in band.f_rec)
        assert got_rows == list(range(4, 12))
        assert 0.2 < band.alpha <= 0.8

    def test_all_zero_unusable(self):
        with pytest.raises(UnusableCoherenceError):
            adapt_thresholds(make_map(np.zeros((8, 30))))

    def test_ladder_ending_on_the_floor_keeps_last_selection(self):
        band = adapt_thresholds(make_map(floor_map()))
        assert (round(band.alpha, 4), band.beta, len(band.f_rec)) == (0.0509, 10, 1)

    @pytest.mark.parametrize("field, value, match", [
        ("f_rec", [], "f_rec must be nonempty"),
        ("alpha", 0.0, "alpha must be in .*got 0.0"),
        ("alpha", 1.5, "alpha must be in .*got 1.5"),
        ("beta", 0, "beta must be >= 1, got 0"),
    ])
    def test_band_checks_name_the_bad_value(self, field, value, match):
        kwargs = dict(f_rec=[0.2], alpha=0.5, beta=3)
        with pytest.raises(ValueError, match=match):
            ReciprocalBand(**{**kwargs, field: value})

    def test_terminates_within_decay_budget(self):
        # the decay ladder runs on order statistics; only the result is selected
        for seed in range(20):
            wc = np.random.default_rng(seed).uniform(0, 0.4, size=(10, 40))
            m = make_map(wc)
            calls = 0
            orig = R.select_reciprocal_freqs

            def counting(*a, **k):
                nonlocal calls
                calls += 1
                return orig(*a, **k)

            R.select_reciprocal_freqs = counting
            try:
                adapt_thresholds(m)
            except UnusableCoherenceError:
                pass
            finally:
                R.select_reciprocal_freqs = orig
            assert calls <= 1


def adapt_by_retry(cmap):
    """The selection retry loop adapt_thresholds replaced: the equivalence reference."""
    n_bins, n_times = cmap.wc.shape
    L = n_times
    peak = float(cmap.wc.max())
    if peak <= 0.0:
        raise UnusableCoherenceError("coherence map is identically zero")
    target = (n_bins + 1) // 2

    def try_select(alpha, beta):
        try:
            return select_reciprocal_freqs(cmap, alpha, beta)
        except UnusableCoherenceError:
            return None

    alpha = max(peak - 1e-6, ALPHA_FLOOR)
    sel = try_select(alpha, min(L, n_times))
    if sel is not None and len(sel.f_rec) >= target:
        return sel
    beta = min(max(1, int(np.ceil(L / 3))), n_times)
    best = sel
    while alpha >= ALPHA_FLOOR:
        sel = try_select(alpha, beta)
        if sel is not None and (best is None or len(sel.f_rec) >= len(best.f_rec)):
            best = sel
        if sel is not None and len(sel.f_rec) >= target:
            return sel
        alpha *= ALPHA_DECAY
    if best is None:
        raise UnusableCoherenceError(f"no nonempty selection above alpha floor {ALPHA_FLOOR}")
    return best


def floor_map():
    """One row at 0.9 and the rest at 0.01: the ladder runs out on the floor."""
    wc = np.full((10, 30), 0.01)
    wc[3] = 0.9
    return wc


# coherence values with ties (a few repeated levels), spikes (a sparse map over
# a constant fill) and all-zero maps
coherence_values = st.one_of(st.sampled_from([0.0, 0.01, 0.05, 0.3, 0.9, 1.0]),
                             st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 40)),
              elements=coherence_values, fill=st.sampled_from([0.0, 0.01, 0.5])))
@example(floor_map())
@example(np.zeros((8, 30)))
def test_adapt_thresholds_equals_retry_loop(wc):
    m = make_map(wc)
    try:
        want = adapt_by_retry(m)
    except UnusableCoherenceError as e:
        with pytest.raises(UnusableCoherenceError) as got:
            adapt_thresholds(m)
        assert str(got.value) == str(e)
        return
    got = adapt_thresholds(m)
    assert got.f_rec.tobytes() == want.f_rec.tobytes()
    assert (got.band, got.alpha, got.beta) == (want.band, want.alpha, want.beta)


class TestWtReconstruct:
    def test_full_band_round_trip(self):
        rng = np.random.default_rng(0)
        n = 2000
        t = np.arange(n) / FS
        fk = rng.uniform(0.05, 0.8, 10)
        x = np.sum([np.cos(2 * np.pi * f * t + rng.uniform(0, 6)) for f in fk],
                   axis=0)
        p = CwtParams(min_freq=4.0 / (n / FS), max_freq=FS / 2, sample_rate=FS)
        rec = wt_reconstruct(x, (p.min_freq, p.max_freq), p)
        assert np.linalg.norm(rec - x) / np.linalg.norm(x) <= 0.05

    def test_band_attenuates_spur(self):
        n = 4096
        t = np.arange(n) / FS
        sig = np.sin(2 * np.pi * 0.1 * t)
        spur = 0.3 * np.sin(2 * np.pi * 2.0 * t)
        p = CwtParams(min_freq=0.02, max_freq=FS / 2, sample_rate=FS)
        rec = wt_reconstruct(sig + spur, (0.05, 0.4), p)
        # spur power in the reconstruction down at least 20 dB
        spec = np.abs(np.fft.rfft(rec - rec.mean()))
        freqs = np.fft.rfftfreq(n, 1 / FS)
        spur_bin = np.argmin(np.abs(freqs - 2.0))
        sig_bin = np.argmin(np.abs(freqs - 0.1))
        in_power = (0.3 / 1.0) ** 2
        out_power = (spec[spur_bin] / spec[sig_bin]) ** 2
        assert out_power <= in_power / 100

    def test_zero_input(self):
        p = CwtParams(min_freq=0.1, max_freq=5.0, sample_rate=FS)
        rec = wt_reconstruct(np.zeros(128), (0.2, 1.0), p)
        np.testing.assert_allclose(rec, 0.0, atol=1e-12)

    def test_linear_in_input(self):
        p = CwtParams(min_freq=0.05, max_freq=5.0, sample_rate=FS)
        band = (0.1, 1.0)
        rng = np.random.default_rng(1)
        x1 = rng.normal(size=512)
        x2 = rng.normal(size=512)
        a = 1.7
        lhs = wt_reconstruct(a * x1 + x2, band, p)
        rhs = a * wt_reconstruct(x1, band, p) + wt_reconstruct(x2, band, p)
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)


class TestSynchronize:
    def test_forced_shift_alignment(self):
        rng = np.random.default_rng(0)
        base = np.cumsum(rng.normal(size=1100))  # persistent signal
        x = base[100:1100]
        y = base[93:1093]  # y[t] = x[t-7]
        lag = xcorr_lag(x, y, 50).lag
        assert lag == 7
        xa, ya = apply_lag(x, y, lag)
        np.testing.assert_allclose(xa, ya, atol=1e-12)
        assert len(xa) == len(ya) == 1000 - 7

    def test_zero_lag(self):
        x = np.random.default_rng(1).normal(size=300)
        lag = xcorr_lag(x, x, 20).lag
        assert lag == 0
        xa, ya = apply_lag(x, x, lag)
        assert len(xa) == len(ya) == 300

    def test_exact_recovery_range(self):
        rng = np.random.default_rng(2)
        base = np.cumsum(rng.normal(size=1300))
        for k in (-25, -3, 0, 3, 25):
            x = base[100:1100]
            y = base[100 - k:1100 - k]
            lag = xcorr_lag(x, y, 50).lag
            assert lag == k
            xa, ya = apply_lag(x, y, lag)
            np.testing.assert_array_equal(xa, ya)

    def test_apply_lag_negative(self):
        x = np.arange(20.0)
        y = np.arange(20.0)
        xa, ya = apply_lag(x, y, -4)
        assert len(xa) == len(ya) == 16
        np.testing.assert_array_equal(xa, x[4:])
        np.testing.assert_array_equal(ya, y[:16])

    def test_apply_lag_refuses_unpaired_series(self):
        # the two were cut at one offset each and returned misaligned
        with pytest.raises(LengthMismatchError, match="lengths differ: 20 vs 21"):
            apply_lag(np.arange(20.0), np.arange(21.0), 1)


class TestEnhancementContract:
    def test_all_pipelines_improve_pearson(self):
        # shared band-limited signal, independent 5 dB noise per side
        from csirecip.chansim import ChannelConfig, gen_pair
        from csirecip.traces import pair_traces

        wins = {"golay": 0, "fft": 0, "wpt": 0, "wt": 0}
        trials = 20
        for seed in range(trials):
            cfg = ChannelConfig(duration_s=300.0, snr_db=5.0, lag_samples=0,
                                seed=seed)
            ap, sta, _ = gen_pair(cfg)
            a, b = pair_traces(ap, sta, 6, gap_policy="interpolate_linear")
            x, y = a.values, b.values
            p0 = pearson(x, y)
            wins["golay"] += pearson(golay_filter(x), golay_filter(y)) >= p0
            wins["fft"] += pearson(fft_reconstruct(x), fft_reconstruct(y)) >= p0
            wins["wpt"] += pearson(wpt_denoise(x), wpt_denoise(y)) >= p0
            p = CwtParams(min_freq=1.0 / 30.0, max_freq=FS / 2, sample_rate=FS)
            cm = wavelet_coherence(x, y, p)
            band = adapt_thresholds(cm)
            wins["wt"] += pearson(wt_reconstruct(x, band.band, p),
                                  wt_reconstruct(y, band.band, p)) >= p0
        for pipe, w in wins.items():
            assert w >= 0.9 * trials, f"{pipe}: {w}/{trials}"
