import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csirecip.chansim import ChannelConfig, gen_pair, preset
from csirecip.errors import (
    DegenerateBlockError,
    GapsPresentError,
    LengthMismatchError,
    LevelOutOfRangeError,
    NonFiniteError,
    TooShortError,
)
from csirecip.keygen import (
    BLOCK_LEN,
    PIPELINES,
    PROBE_LEN,
    KeyBlock,
    SessionConfig,
    cdf_thresholds,
    evaluate,
    gray_encode,
    make_keys,
    quantize,
    wskg_session,
)
from csirecip.metrics import ber
from csirecip.traces import pair_traces


def order_statistic_quantile(xs, q):
    """Independent oracle: linear interpolation between order statistics."""
    xs = sorted(xs)
    h = (len(xs) - 1) * q
    lo = int(np.floor(h))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


class TestCdfThresholds:
    def test_1_to_100(self):
        spec = cdf_thresholds(np.arange(1.0, 101.0), 4)
        want = [order_statistic_quantile(range(1, 101), q) for q in (0.25, 0.5, 0.75)]
        np.testing.assert_allclose(spec.thresholds, want, atol=1e-12)
        np.testing.assert_allclose(spec.thresholds, [25.75, 50.5, 75.25])

    def test_two_distinct_values_degenerate(self):
        with pytest.raises(DegenerateBlockError):
            cdf_thresholds(np.array([1.0, 2.0] * 50), 4)

    def test_symmetric_block_middle_threshold_zero(self):
        rng = np.random.default_rng(0)
        half = rng.uniform(0.5, 3.0, size=500)
        block = np.concatenate([half, -half])
        spec = cdf_thresholds(block, 4)
        assert spec.thresholds[1] == pytest.approx(0.0, abs=1e-9)

    def test_random_oracle(self):
        rng = np.random.default_rng(1)
        block = rng.normal(size=257)
        spec = cdf_thresholds(block, 8)
        for k in range(1, 8):
            assert spec.thresholds[k - 1] == pytest.approx(
                order_statistic_quantile(block, k / 8), abs=1e-12)


class TestQuantize:
    def test_all_below_first_threshold(self):
        spec = cdf_thresholds(np.arange(1.0, 101.0), 4)
        np.testing.assert_array_equal(quantize(np.zeros(5), spec), 0)

    def test_uniform_histogram_on_own_block(self):
        rng = np.random.default_rng(2)
        for seed in range(20):
            n = int(np.random.default_rng(seed).integers(100, 400))
            block = np.random.default_rng(seed).normal(size=n)
            spec = cdf_thresholds(block, 4)
            lv = quantize(block, spec)
            counts = np.bincount(lv, minlength=4)
            assert np.all(np.abs(counts - n / 4) <= 1)

    def test_boundary_goes_to_lower_level(self):
        spec = cdf_thresholds(np.arange(1.0, 101.0), 4)
        assert quantize(np.array([spec.thresholds[0]]), spec)[0] == 0
        assert quantize(np.array([spec.thresholds[0] + 1e-9]), spec)[0] == 1

    def test_output_length(self):
        block = np.random.default_rng(3).normal(size=100)
        spec = cdf_thresholds(block, 4)
        assert len(quantize(block, spec)) == 100


class TestGray:
    def test_canonical_sequence(self):
        bits = gray_encode([0, 1, 2, 3], 4)
        np.testing.assert_array_equal(bits, [0, 0, 0, 1, 1, 1, 1, 0])

    def test_adjacent_levels_differ_one_bit(self):
        for levels in (2, 4, 8, 16):
            codes = [gray_encode([k], levels) for k in range(levels)]
            for a, b in zip(codes, codes[1:]):
                assert int(np.sum(a != b)) == 1

    def test_formula_oracle(self):
        rng = np.random.default_rng(4)
        lv = rng.integers(0, 8, size=200)
        got = gray_encode(lv, 8)
        want = []
        for k in lv:
            g = int(k) ^ (int(k) >> 1)
            want.extend([(g >> 2) & 1, (g >> 1) & 1, g & 1])
        np.testing.assert_array_equal(got, want)

    def test_out_of_range(self):
        with pytest.raises(LevelOutOfRangeError):
            gray_encode([4], 4)


class TestMakeKeys:
    def test_block_count_and_leftover(self):
        x = np.random.default_rng(0).normal(size=250)
        blocks, skipped = make_keys(x, block_len=100, levels=4)
        assert len(blocks) == 2
        assert skipped == 0
        assert blocks[0].start_seq == 0
        assert blocks[1].start_seq == 100

    def test_200_bits_per_block(self):
        x = np.random.default_rng(1).normal(size=300)
        blocks, _ = make_keys(x, 100, 4)
        assert all(len(b.bits) == 200 for b in blocks)

    def test_identical_series_identical_bits(self):
        x = np.random.default_rng(2).normal(size=500)
        ka, _ = make_keys(x, 100, 4)
        kb, _ = make_keys(x.copy(), 100, 4)
        for a, b in zip(ka, kb):
            assert ber(a.bits, b.bits) == 0.0

    def test_degenerate_block_skipped_and_counted(self):
        x = np.concatenate([np.random.default_rng(3).normal(size=100),
                            np.full(100, 5.0),
                            np.random.default_rng(4).normal(size=100)])
        blocks, skipped = make_keys(x, 100, 4)
        assert skipped == 1
        assert [b.start_seq for b in blocks] == [0, 200]

    def test_too_short(self):
        with pytest.raises(TooShortError):
            make_keys(np.ones(50), 100, 4)

    @pytest.mark.parametrize("block_len", [0, -3])
    def test_bad_block_len_named(self, block_len):
        with pytest.raises(ValueError, match=f"block_len must be >= 1, got {block_len}"):
            make_keys(np.ones(50), block_len, 4)


def loop_make_keys(x, block_len, levels):
    """Reference: one cdf_thresholds / quantize / gray_encode pass per block."""
    x = np.asarray(x, dtype=np.float64).ravel()
    blocks, skipped = [], 0
    for start in range(0, len(x) - block_len + 1, block_len):
        chunk = x[start:start + block_len]
        try:
            spec = cdf_thresholds(chunk, levels)
        except DegenerateBlockError:
            skipped += 1
            continue
        lv = quantize(chunk, spec)
        blocks.append(KeyBlock(start_seq=start, levels=lv, bits=gray_encode(lv, levels)))
    return blocks, skipped


@st.composite
def key_series(draw):
    """Tie-heavy, constant-run or arbitrary series of 1-6 blocks plus a tail."""
    block_len = draw(st.integers(1, 40))
    n = draw(st.integers(block_len, 7 * block_len - 1))
    floats = st.floats(-1e6, 1e6, allow_nan=False)
    kind = draw(st.sampled_from(["ties", "runs", "any"]))
    if kind == "ties":
        pool = draw(st.lists(floats, min_size=1, max_size=6))
        x = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    elif kind == "runs":
        values = draw(st.lists(floats, min_size=1, max_size=8))
        x = np.resize(np.repeat(values, draw(st.integers(1, 2 * block_len))), n)
    else:
        x = draw(st.lists(floats, min_size=n, max_size=n))
    return np.asarray(x, dtype=np.float64), block_len


@settings(max_examples=150, deadline=None)
@given(key_series(), st.sampled_from([2, 4, 8]))
def test_make_keys_matches_block_loop(series, levels):
    x, block_len = series
    want, want_skipped = loop_make_keys(x, block_len, levels)
    got, got_skipped = make_keys(x, block_len, levels)
    assert got_skipped == want_skipped
    assert [k.start_seq for k in got] == [k.start_seq for k in want]
    for g, w in zip(got, want):
        assert g.levels.dtype == w.levels.dtype and g.bits.dtype == w.bits.dtype
        np.testing.assert_array_equal(g.levels, w.levels)
        np.testing.assert_array_equal(g.bits, w.bits)


def _mk_block(start, bits):
    bits = np.asarray(bits, dtype=np.uint8)
    return KeyBlock(start_seq=start, levels=np.zeros(len(bits) // 2), bits=bits)


def test_non_finite_block_rejected_naming_index():
    # a NaN at 150 used to quantise its whole block to level 0: 200 zero bits
    x = np.random.default_rng(0).normal(size=300)
    x[150] = np.nan
    with pytest.raises(GapsPresentError, match="sample 150 is nan"):
        make_keys(x)
    x[150] = np.inf
    with pytest.raises(NonFiniteError, match="sample 150 is inf"):
        make_keys(x)
    block = np.r_[np.arange(9.0), -np.inf]
    with pytest.raises(NonFiniteError, match="sample 9 is -inf"):
        cdf_thresholds(block)
    with pytest.raises(NonFiniteError, match="sample 9 is -inf"):
        quantize(block, cdf_thresholds(np.arange(9.0)))


class TestEvaluate:
    def test_kgr_arithmetic(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 200).astype(np.uint8)
        ka = [_mk_block(0, bits), _mk_block(100, bits)]
        kb = [_mk_block(0, bits), _mk_block(100, bits)]
        rep = evaluate(ka, kb, total_packets=1000, thresholds=(15,))
        st = rep.stats_at(15)
        assert st.kgr == pytest.approx(0.4)  # 2 * 200 / 1000
        assert st.mean_ber == 0.0
        assert rep.overall_ber == 0.0

    def test_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        base = rng.integers(0, 2, 200).astype(np.uint8)
        hams = [3, 10, 25]
        ka, kb = [], []
        for i, h in enumerate(hams):
            other = base.copy()
            flip = rng.choice(200, size=h, replace=False)
            other[flip] ^= 1
            ka.append(_mk_block(i * 100, base))
            kb.append(_mk_block(i * 100, other))
        rep = evaluate(ka, kb, total_packets=300, thresholds=(15,))
        st = rep.stats_at(15)
        assert st.accepted == 2
        assert st.mean_ber == pytest.approx((3 + 10) / (2 * 200))
        assert rep.overall_ber == pytest.approx((3 + 10 + 25) / (3 * 200))

    def test_kgr_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        ka, kb = [], []
        for i in range(30):
            a = rng.integers(0, 2, 200).astype(np.uint8)
            b = a.copy()
            flips = rng.choice(200, size=rng.integers(0, 40), replace=False)
            b[flips] ^= 1
            ka.append(_mk_block(i, a))
            kb.append(_mk_block(i, b))
        rep = evaluate(ka, kb, 3000, thresholds=(5, 15, 20))
        kgrs = [st.kgr for st in rep.per_threshold]
        assert kgrs == sorted(kgrs)
        for st in rep.per_threshold:
            if st.mean_ber is not None:
                assert st.mean_ber <= st.error_threshold / 200

    def test_independent_inputs_ber_half(self):
        rng = np.random.default_rng(3)
        ka = [_mk_block(i, rng.integers(0, 2, 200)) for i in range(25)]
        kb = [_mk_block(i, rng.integers(0, 2, 200)) for i in range(25)]
        rep = evaluate(ka, kb, 2500, thresholds=(20,))
        assert rep.overall_ber == pytest.approx(0.5, abs=0.05)

    def test_list_mismatch(self):
        with pytest.raises(LengthMismatchError):
            evaluate([_mk_block(0, [0, 1])], [], 10)


def session_pair(seed, duration=420.0, snr_db=10.0, lag=5, loss=()):
    cfg = ChannelConfig(duration_s=duration, snr_db=snr_db, lag_samples=lag,
                        loss=loss, seed=seed)
    ap, sta, _ = gen_pair(cfg)
    return pair_traces(ap, sta, 6, gap_policy="interpolate_linear")


@pytest.mark.parametrize("field, value", [
    ("pipeline", "magic"),
    # ids kept from the longer field list this test once covered
    pytest.param("error_thresholds", (20, 5), id="error_thresholds-value6"),
    pytest.param("error_thresholds", (), id="error_thresholds-value7"),
])
def test_session_config_rejects_bad_field(field, value):
    with pytest.raises(ValueError, match=field) as exc:
        SessionConfig(**{field: value})
    assert str(value).strip("()") in str(exc.value)


class TestSession:
    def test_identical_inputs_max_kgr(self):
        a, _ = session_pair(0, duration=320.0, snr_db=30.0, lag=0)
        cfg = SessionConfig(pipeline="raw", sync=False)
        rep = wskg_session(a, a, cfg)
        assert rep.overall_ber == 0.0
        st = rep.stats_at(15)
        assert st.accepted == st.attempted == rep.blocks
        # every post-probe complete block accepted
        n_keys = (len(a.values) - PROBE_LEN) // BLOCK_LEN
        assert rep.blocks == n_keys
        assert st.kgr == pytest.approx(n_keys * 200 / len(a.values))

    def test_deterministic(self):
        a, b = session_pair(7)
        r1 = wskg_session(a, b, SessionConfig(pipeline="wt", sync=True))
        r2 = wskg_session(a, b, SessionConfig(pipeline="wt", sync=True))
        assert r1 == r2

    def test_lag_recovered_in_report(self):
        a, b = session_pair(3, snr_db=20.0, lag=5)
        rep = wskg_session(a, b, SessionConfig(pipeline="wt", sync=True))
        assert rep.lag == 5

    def test_report_fields_complete(self):
        a, b = session_pair(11)
        rep = wskg_session(a, b, SessionConfig(pipeline="wt", sync=True))
        d = rep.to_dict()
        assert d["pipeline"] == "wt"
        assert d["band_hz"] is not None
        assert 0 < d["alpha"] <= 1
        assert 1 <= d["beta"]
        assert len(d["per_threshold"]) == 3

    def test_all_pipelines_run(self):
        a, b = session_pair(5)
        for pipe in ("raw", "golay", "fft", "wpt", "wt"):
            rep = wskg_session(a, b, SessionConfig(pipeline=pipe, sync=True))
            assert rep.pipeline == pipe
            assert rep.blocks > 0

    def test_too_short(self):
        a, b = session_pair(1, duration=40.0)
        with pytest.raises(TooShortError):
            wskg_session(a, b, SessionConfig())

    @pytest.mark.parametrize("index, bad", [(10, np.inf), (900, -np.inf), (900, np.nan)])
    def test_non_finite_input_rejected(self, index, bad):
        x = np.random.default_rng(0).normal(size=1200)
        y = x.copy()
        y[index] = bad
        with pytest.raises(ValueError, match="finite"):
            wskg_session(x, y, SessionConfig(pipeline="raw"))

    def test_key_window_shorter_than_block(self):
        a, b = session_pair(0, duration=120.0, snr_db=30.0, lag=10)
        n = PROBE_LEN + BLOCK_LEN + 3
        rep = wskg_session(a.values[:n], b.values[:n], SessionConfig(pipeline="raw"))
        assert abs(rep.lag) > 3  # the lag trim leaves less than one block
        assert (rep.blocks, rep.key_bits, rep.skipped_blocks, rep.overall_ber) == (0, 0, 0, None)
        assert [(st.accepted, st.attempted, st.kgr, st.mean_ber) for st in rep.per_threshold] \
            == [(0, 0, 0.0, None)] * 3

    def test_probe_excluded_from_keys(self):
        a, b = session_pair(9, duration=360.0)
        rep = wskg_session(a, b, SessionConfig(pipeline="raw", sync=False))
        # 3600 samples, 500-sample probe: at most (3600-500)//100 blocks
        assert rep.blocks <= (len(a.values) - 500) // 100


# sha256 of the sessions below, taken before the test-only knobs were deleted
SESSION_DIGEST = "21c6f387270bb341525f197775075ace8fc012ac24008e191994c39b59206ea2"


def test_session_digest_pinned():
    """Sorted-key to_dict() JSON of 3 presets x seed 0 x 5 pipelines x sync on/off, 400 s.

    A change meant to keep outputs must keep this digest byte for byte.
    """
    h = hashlib.sha256()
    for name in ("los-short", "nlos-short", "nlos-long"):
        ap, sta, _ = gen_pair(preset(name, duration_s=400.0, seed=0))
        a, b = pair_traces(ap, sta, 6, gap_policy="interpolate_linear")
        for pipeline in PIPELINES:
            for sync in (True, False):
                d = wskg_session(a, b, SessionConfig(pipeline=pipeline, sync=sync)).to_dict()
                h.update(json.dumps(d, sort_keys=True).encode())
    assert h.hexdigest() == SESSION_DIGEST
