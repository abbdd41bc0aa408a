import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csirecip.errors import (
    ConstantPooledRangeError,
    DegenerateSeriesError,
    GapsPresentError,
    InvalidMaxLagError,
    LengthMismatchError,
    NonFiniteError,
    TooShortError,
)
from csirecip.metrics import (
    DEGENERATE_RTOL,
    DivergenceConfig,
    ber,
    jeffrey_divergence,
    pearson,
    wasserstein_1d,
    xcorr_lag,
)

# --- independent oracles -------------------------------------------------

def pearson_oracle(x, y):
    """Two-pass covariance definition, plain Python accumulation."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / (vx ** 0.5 * vy ** 0.5)


def jeffrey_oracle(x, y, bins, eps):
    """Explicit sum P log(P/Q) over shared bins."""
    lo = min(np.min(x), np.min(y))
    hi = max(np.max(x), np.max(y))
    edges = np.linspace(lo, hi, bins + 1)
    p, _ = np.histogram(x, bins=edges)
    q, _ = np.histogram(y, bins=edges)
    p = (p + eps) / (p.sum() + bins * eps)
    q = (q + eps) / (q.sum() + bins * eps)
    kl1 = sum(pi * np.log(pi / qi) for pi, qi in zip(p, q))
    kl2 = sum(qi * np.log(qi / pi) for pi, qi in zip(p, q))
    return (kl1 + kl2) / 2


def wasserstein_oracle(x, y):
    """CDF-difference area on the merged support."""
    xs = np.sort(x)
    ys = np.sort(y)
    pts = np.sort(np.concatenate([xs, ys]))
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        fx = np.searchsorted(xs, lo, side="right") / len(xs)
        fy = np.searchsorted(ys, lo, side="right") / len(ys)
        total += abs(fx - fy) * (hi - lo)
    return total


# --- pearson --------------------------------------------------------------

class TestPearson:
    def test_exact_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_negated(self):
        assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)

    def test_oracle_500(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=500)
        y = 0.3 * x + rng.normal(size=500)
        assert pearson(x, y) == pytest.approx(pearson_oracle(list(x), list(y)),
                                              abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            x = np.random.default_rng(seed).normal(size=50)
            a = rng.uniform(0.1, 5)
            b = rng.uniform(-10, 10)
            assert pearson(x, a * x + b) == pytest.approx(1.0, abs=1e-9)
            assert pearson(x, -a * x + b) == pytest.approx(-1.0, abs=1e-9)

    def test_errors(self):
        with pytest.raises(DegenerateSeriesError):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(LengthMismatchError):
            pearson([1, 2], [1, 2, 3])


# --- jeffrey --------------------------------------------------------------

class TestJeffrey:
    def test_identical_is_zero(self):
        x = np.random.default_rng(0).normal(size=500)
        assert jeffrey_divergence(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, size=400)
        y = rng.normal(1, 1, size=400)
        assert jeffrey_divergence(x, y) == pytest.approx(jeffrey_divergence(y, x))

    def test_gaussian_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, size=10_000)
        y = rng.normal(1, 1, size=10_000)
        cfg = DivergenceConfig(bins=32, epsilon=1e-9)
        got = jeffrey_divergence(x, y, cfg)
        want = jeffrey_oracle(x, y, 32, 1e-9)
        assert got == pytest.approx(want, abs=1e-9)
        assert got > 0

    def test_nonnegative_random(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=100)
            y = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2), size=100)
            assert jeffrey_divergence(x, y) >= 0

    def test_constant_pooled(self):
        with pytest.raises(ConstantPooledRangeError):
            jeffrey_divergence(np.ones(64), np.ones(64))


# --- wasserstein ----------------------------------------------------------

class TestWasserstein:
    def test_identical(self):
        x = np.random.default_rng(0).normal(size=100)
        assert wasserstein_1d(x, x) == 0.0

    def test_translation(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            x = np.random.default_rng(seed).normal(size=77)
            c = rng.uniform(-5, 5)
            assert wasserstein_1d(x, x + c) == pytest.approx(abs(c), abs=1e-9)

    def test_unequal_lengths_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=100)
        y = rng.normal(0.5, 1.3, size=73)
        assert wasserstein_1d(x, y) == pytest.approx(wasserstein_oracle(x, y),
                                                     abs=1e-9)

    def test_scipy_cross_check(self):
        from scipy.stats import wasserstein_distance
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=rng.integers(10, 200))
            y = rng.normal(rng.uniform(-1, 1), 1, size=rng.integers(10, 200))
            assert wasserstein_1d(x, y) == pytest.approx(
                wasserstein_distance(x, y), abs=1e-9)

    def test_triangle_inequality(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x, y, z = (rng.normal(rng.uniform(-1, 1), 1, size=50) for _ in range(3))
            assert wasserstein_1d(x, z) <= (
                wasserstein_1d(x, y) + wasserstein_1d(y, z) + 1e-9)


# --- xcorr ----------------------------------------------------------------

class TestXcorr:
    def test_forced_shift(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=1000)
        y = np.roll(x, 7)  # y[t] = x[t-7]: y lags x by 7
        est = xcorr_lag(x[50:-50], y[50:-50], 50)
        assert est.lag == 7
        assert est.peak_corr >= 0.999

    def test_identity(self):
        x = np.random.default_rng(1).normal(size=500)
        assert xcorr_lag(x, x, 30).lag == 0

    def test_ar1_noisy_shift(self):
        # generator knows ground truth: AR(1), shift 23, SNR 10 dB
        rng = np.random.default_rng(5)
        n, shift = 1200, 23
        base = np.empty(n + shift)
        base[0] = rng.normal()
        for i in range(1, n + shift):
            base[i] = 0.95 * base[i - 1] + rng.normal() * np.sqrt(1 - 0.95 ** 2)
        sigma = 10 ** (-10 / 20)
        x = base[shift:] + sigma * rng.normal(size=n)
        y = base[:n] + sigma * rng.normal(size=n)
        assert xcorr_lag(x, y, 50).lag == shift

    def test_curve_shape_and_bounds(self):
        x = np.random.default_rng(2).normal(size=301)
        y = np.random.default_rng(3).normal(size=301)
        est = xcorr_lag(x, y, 40)
        assert len(est.curve) == 81
        assert est.peak_corr == est.curve.max()
        assert np.all(np.abs(est.curve) <= 1 + 1e-12)
        assert abs(est.lag) <= 40

    def test_tie_breaks_to_smallest_abs_then_negative(self):
        # constant-plus-identical series: every lag correlates equally
        x = np.sin(np.arange(200) * 2 * np.pi / 4)  # period 4
        est = xcorr_lag(x, x, 8)
        assert est.lag == 0  # lags -8,-4,0,4,8 all tie at 1.0

    def test_too_short(self):
        with pytest.raises(TooShortError):
            xcorr_lag(np.arange(10.0), np.arange(10.0), 5)

    @pytest.mark.parametrize("max_lag", [-3, 2.5], ids=["negative", "non-integral"])
    def test_bad_max_lag_named(self, max_lag):
        with pytest.raises(InvalidMaxLagError, match=re.escape(repr(max_lag))) as err:
            xcorr_lag(np.arange(10.0), np.arange(10.0), max_lag)
        assert isinstance(err.value, ValueError)


@pytest.mark.parametrize("bad, error", [(np.inf, NonFiniteError), (-np.inf, NonFiniteError),
                                        (np.nan, GapsPresentError)])
@pytest.mark.parametrize("metric", [pearson, lambda x, y: xcorr_lag(x, y, 5)],
                         ids=["pearson", "xcorr_lag"])
def test_non_finite_sample_named(metric, bad, error):
    # one inf used to give pearson nan and xcorr_lag an IndexError
    x = np.random.default_rng(0).normal(size=50)
    y = x.copy()
    y[7] = bad
    with pytest.raises(error, match=f"y sample 7 is {bad}"):
        metric(x, y)


def xcorr_loop(x, y, max_lag):
    """Reference scan: Pearson of each lag's overlap, one lag at a time.

    A window whose centred sum of squares is at most DEGENERATE_RTOL times
    its series' total gives 0; all windows degenerate raises.  A constant
    series is degenerate outright: its windows' centred sums of squares
    are rounding noise of the mean, and so is its total.
    """
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise DegenerateSeriesError("constant series")
    n = len(x)
    tot_x = float((x - x.mean()) @ (x - x.mean()))
    tot_y = float((y - y.mean()) @ (y - y.mean()))
    lags = np.arange(-max_lag, max_lag + 1)
    curve = np.zeros(len(lags))
    live = False
    for i, ell in enumerate(lags):
        xs, ys = (x[:n - ell], y[ell:]) if ell >= 0 else (x[-ell:], y[:n + ell])
        xd, yd = xs - xs.mean(), ys - ys.mean()
        vx, vy = float(xd @ xd), float(yd @ yd)
        if vx > DEGENERATE_RTOL * tot_x and vy > DEGENERATE_RTOL * tot_y:
            curve[i] = float(xd @ yd) / np.sqrt(vx * vy)
            live = True
    if not live:
        raise DegenerateSeriesError("zero variance at every candidate lag")
    cand = lags[curve == curve.max()]
    return int(cand[np.lexsort((cand, np.abs(cand)))[0]]), curve


@st.composite
def lag_scan_case(draw):
    """A correlated pair, n in [3, 800], each series at its own scale
    (1e-3 to 1e3) around an offset of up to 1e3 scales, with constant stretches."""
    n = draw(st.integers(3, 800))
    max_lag = draw(st.integers(0, (n - 1) // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rho = draw(st.floats(0.0, 1.0))
    x0 = rng.normal(size=n)
    y0 = rho * np.roll(x0, draw(st.integers(-max_lag, max_lag))) \
        + np.sqrt(1 - rho ** 2) * rng.normal(size=n)
    out = []
    for v in (x0, y0):
        scale = 10.0 ** draw(st.floats(-3.0, 3.0))
        offset = draw(st.floats(-1e3, 1e3))
        v = scale * (offset + v)
        for _ in range(draw(st.integers(0, 3))):
            start, length = draw(st.integers(0, n - 1)), draw(st.integers(1, n))
            v[start:start + length] = scale * (offset + rng.normal())
        out.append(v)
    return out[0], out[1], max_lag


_rng = np.random.default_rng(11)
_walk = np.cumsum(_rng.normal(size=620))


@settings(max_examples=300, deadline=None)
@given(lag_scan_case())
@example((1e3 + _walk[20:], 1e3 + _walk[:600], 200))  # offset far above the spread
@example((np.r_[_walk[:5], np.full(95, 2.0)], _walk[:100], 49))  # constant tail
@example((np.full(9, 3.0), _walk[:9], 4))  # constant series
def test_closed_form_matches_per_lag_loop(case):
    x, y, max_lag = case
    try:
        want_lag, want_curve = xcorr_loop(x, y, max_lag)
    except DegenerateSeriesError:
        with pytest.raises(DegenerateSeriesError):
            xcorr_lag(x, y, max_lag)
        return
    est = xcorr_lag(x, y, max_lag)
    np.testing.assert_allclose(est.curve, want_curve, rtol=0, atol=1e-12)
    if est.lag != want_lag:
        # only an exact tie, which rounding decides, may resolve differently:
        # e.g. every two-sample window correlates at exactly +-1
        assert want_curve.max() - want_curve[est.lag + max_lag] <= 1e-12


# --- ber ------------------------------------------------------------------

class TestBer:
    def test_identical(self):
        bits = np.random.default_rng(0).integers(0, 2, 200)
        assert ber(bits, bits) == 0.0

    def test_single_flip(self):
        bits = np.zeros(200, dtype=np.uint8)
        other = bits.copy()
        other[17] = 1
        assert ber(bits, other) == pytest.approx(1 / 200)

    def test_popcount_oracle(self):
        rng = np.random.default_rng(9)
        a = rng.integers(0, 2, 200)
        b = rng.integers(0, 2, 200)
        want = bin(int("".join(map(str, a)), 2) ^ int("".join(map(str, b)), 2)
                   ).count("1") / 200
        assert ber(a, b) == pytest.approx(want, abs=1e-12)

    def test_symmetry_and_complement(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 2, 111)
        b = rng.integers(0, 2, 111)
        assert ber(a, b) == ber(b, a)
        assert ber(a, a) == 0.0
        assert ber(a, 1 - a) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            ber([0, 1], [0, 1, 1])
