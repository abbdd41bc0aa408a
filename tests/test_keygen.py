import dataclasses
import functools
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csirecip.reconstruct as R
from csirecip import keygen, wavelet
from csirecip.chansim import ChannelConfig, gen_pair, preset
from csirecip.errors import (
    CsiRecipError,
    DegenerateBlockError,
    GapsPresentError,
    InvalidParameterError,
    LengthMismatchError,
    NonFiniteError,
    RateMismatchError,
    TooShortError,
    UnusableCoherenceError,
)
from csirecip.keygen import (
    BLOCK_LEN,
    PIPELINES,
    PROBE_LEN,
    KeyBlock,
    QuantizerSpec,
    SessionConfig,
    cdf_thresholds,
    evaluate,
    gray_encode,
    make_keys,
    preprocess_pair,
    quantize,
    wskg_session,
)
from csirecip.metrics import ber
from csirecip.traces import MagnitudeSeries, pair_traces
from test_errors import TABLES


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
        for levels in (2, 4, 8, 16, 32, 64):
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
        with pytest.raises(InvalidParameterError):
            gray_encode([4], 4)

    # a cast to int64 coded 1.7 and 2.2 as levels 1 and 2
    @pytest.mark.parametrize("levels, message", [
        ([1.7, 2.2], "levels must be integers, got 1.7 at index 0"),
        ([0, 2.0, 2.5], "levels must be integers, got 2.5 at index 2"),
        (np.array([[0.0, 1.0], [3.0, np.nan]]), "levels must be integers, got nan at index 3"),
        ([1.0, -np.inf], "levels must be integers, got -inf at index 1"),
    ])
    def test_fractional_level_named(self, levels, message):
        with pytest.raises(InvalidParameterError) as exc:
            gray_encode(levels, 4)
        assert str(exc.value) == message

    @pytest.mark.parametrize("levels", [[0.0, 3.0, 1.0], np.array([0, 3, 1], np.uint8),
                                        np.array([0, 3, 1], np.int32)])
    def test_integral_levels_of_any_dtype(self, levels):
        np.testing.assert_array_equal(gray_encode(levels, 4), gray_encode([0, 3, 1], 4))


def shift_gray_encode(levels_seq, levels_count):
    """The shift-per-level encoder gray_encode was before its table: the reference."""
    lv = np.asarray(levels_seq, dtype=np.int64).ravel()
    width = int(levels_count).bit_length() - 1
    gray = lv ^ (lv >> 1)
    shifts = np.arange(width - 1, -1, -1)
    return ((gray[:, None] >> shifts[None, :]) & 1).astype(np.uint8).ravel()


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 20).flatmap(lambda w: st.tuples(
    st.just(2 ** w), st.lists(st.integers(0, 2 ** w - 1), max_size=300))))
def test_gray_table_equals_shift_formula(case):
    """Both the table (at least as many levels as rows) and the direct coding (fewer)."""
    count, levels = case
    got = gray_encode(levels, count)
    want = shift_gray_encode(levels, count)
    assert got.dtype == want.dtype == np.uint8
    np.testing.assert_array_equal(got, want)
    square = gray_encode(np.asarray(levels, dtype=np.int64).reshape(-1, 1), count)
    np.testing.assert_array_equal(square, want)  # any shape, read in C order


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

    @pytest.mark.parametrize("levels", [2 ** 20, 2 ** 40])
    def test_more_levels_than_block_samples_keeps_no_block(self, levels):
        # 2**40 ended in a bare MemoryError (8 TiB of quantile index); 2**20 built and kept
        # about 32 MB of quantile tables
        x = np.random.default_rng(6).normal(size=1000)
        keygen._quantile_index.cache_clear()
        tracemalloc.start()
        try:
            assert make_keys(x, 100, levels) == ([], 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert keygen._quantile_index.cache_info().currsize == 0

    @pytest.mark.parametrize("block_len", [0, -3])
    def test_bad_block_len_named(self, block_len):
        with pytest.raises(ValueError, match=f"block_len must be >= 1, got {block_len}"):
            make_keys(np.ones(50), block_len, 4)

    def test_numpy_integer_arguments(self):
        x = np.random.default_rng(5).normal(size=300)
        want, _ = make_keys(x, 100, 4)
        got, _ = make_keys(x, np.int64(100), np.int32(4))
        assert [k.bits.tobytes() for k in got] == [k.bits.tobytes() for k in want]

    def test_blocks_built_through_their_constructor(self, monkeypatch):
        # make_keys once skipped KeyBlock.__post_init__ by building each block's __dict__
        built = []
        post_init = KeyBlock.__post_init__
        monkeypatch.setattr(KeyBlock, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        x = np.concatenate([np.random.default_rng(6).normal(size=300), np.full(100, 5.0)])
        blocks, skipped = make_keys(x, 100, 4)
        assert (len(blocks), skipped) == (3, 1)
        assert [id(b) for b in built] == [id(b) for b in blocks]
        for b in blocks:
            assert not (b.levels.flags.writeable or b.bits.flags.writeable)
            # rows of the one level and bit matrices, not copies
            assert b.levels.base is blocks[0].levels.base is not None
            assert b.bits.base is blocks[0].bits.base is not None


# linear interpolation between order statistics more than ~1.8e308 apart overflows
OVERFLOWING_BLOCKS = [
    ([-1.7e308, -1.6e308, 1.6e308, 1.65e308, 1.7e308], 4),  # was kept with a NaN threshold
    ([-1.7e308, 1.7e308, -1.6e308, 1.6e308], 2),  # was kept with threshold -inf: every level 1
]


class TestOverflowingQuantile:
    @pytest.mark.parametrize("block, levels", OVERFLOWING_BLOCKS)
    def test_block_skipped(self, block, levels):
        assert make_keys(block, len(block), levels) == ([], 1)
        with pytest.raises(DegenerateBlockError, match="overflows"):
            cdf_thresholds(block, levels)

    @pytest.mark.parametrize("block, levels", OVERFLOWING_BLOCKS)
    def test_other_blocks_kept(self, block, levels):
        ok = np.arange(float(len(block)))
        blocks, skipped = make_keys(np.r_[ok, block, ok], len(block), levels)
        assert skipped == 1
        assert [b.start_seq for b in blocks] == [0, 2 * len(block)]
        np.testing.assert_array_equal(blocks[0].levels, blocks[1].levels)


def reference_cdf_thresholds(block, levels=4):
    """The one-block quantizer cdf_thresholds was before it shared make_keys' rows."""
    block = np.asarray(block, dtype=np.float64).ravel()
    if levels < 2 or levels & (levels - 1):
        raise InvalidParameterError(f"levels must be a power of two >= 2, got {levels!r}")
    if len(block) < levels:
        raise DegenerateBlockError(f"block of {len(block)} < {levels} levels")
    if len(np.unique(block)) < levels:
        raise DegenerateBlockError("fewer distinct values than levels")
    qs = np.arange(1, levels) / levels
    th = np.quantile(block, qs, method="linear")
    if np.any(np.diff(th) <= 0):
        raise DegenerateBlockError("ties collapse adjacent quantiles")
    return th


def reference_quantize(block, thresholds):
    return np.searchsorted(thresholds, block, side="left").astype(np.int64)


def loop_make_keys(x, block_len, levels):
    """Reference: one quantizer / gray_encode pass per block, on the reference quantizer."""
    x = np.asarray(x, dtype=np.float64).ravel()
    blocks, skipped = [], 0
    for start in range(0, len(x) - block_len + 1, block_len):
        chunk = x[start:start + block_len]
        try:
            th = reference_cdf_thresholds(chunk, levels)
        except DegenerateBlockError:
            skipped += 1
            continue
        lv = reference_quantize(chunk, th)
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


def cube_level_rows(chunks, th):
    """The (blocks, len, levels-1) comparison cube _level_rows was before: the reference."""
    return (chunks[:, :, None] > th[:, None, :]).sum(-1, dtype=np.int64)


@st.composite
def block_matrix(draw):
    """1-4 rows of 1-40 samples: signed zeros, subnormals, ties or any finite float."""
    rows, n = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    if draw(st.booleans()):
        pool = draw(st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]) |
                             st.floats(allow_nan=False, allow_infinity=False),
                             min_size=1, max_size=5))
        values = st.sampled_from(pool)
    else:
        values = st.floats(allow_nan=False, allow_infinity=False)
    cells = draw(st.lists(values, min_size=rows * n, max_size=rows * n))
    return np.asarray(cells, dtype=np.float64).reshape(rows, n)


@settings(max_examples=300, deadline=None)
@given(block_matrix(), st.sampled_from([2, 4, 8, 16]))
@example(np.array([[0.0]]), 2)
@example(np.array([[-0.0]]), 4)
@example(np.array([[-1.0, -0.0, 0.0, -0.0, 0.0, 1.0]]), 2)
@example(np.array([OVERFLOWING_BLOCKS[0][0]]), 4)
@example(np.array([OVERFLOWING_BLOCKS[1][0]]), 2)
def test_thresholds_byte_equal_to_np_quantile(chunks, levels):
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.quantile(chunks, np.arange(1, levels) / levels, axis=1, method="linear").T
    th, keep = keygen._cdf_rows(chunks, levels)
    assert th.tobytes() == want.tobytes()  # NaN payloads and signed zeros too
    for row, t, k in zip(chunks, th, keep):
        assert k == (len(np.unique(row)) >= levels and np.all(np.isfinite(t))
                     and np.all(np.diff(t) > 0))
    np.testing.assert_array_equal(keygen._level_rows(chunks[keep], th[keep]),
                                  cube_level_rows(chunks[keep], th[keep]))


def short_blocks(levels):
    """Blocks of 0 to ``levels`` samples: every one short or at the edge of degenerate."""
    return st.integers(0, levels).flatmap(
        lambda n: st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 4, 8]).flatmap(
    lambda levels: st.tuples(st.just(levels),
                             short_blocks(levels) | key_series().map(lambda s: s[0]))))
def test_quantizer_matches_reference(case):
    levels, block = case
    try:
        want = reference_cdf_thresholds(block, levels)
    except DegenerateBlockError:
        with pytest.raises(DegenerateBlockError):
            cdf_thresholds(block, levels)
        return
    spec = cdf_thresholds(block, levels)
    assert spec.levels == levels
    assert spec.thresholds.tobytes() == want.tobytes()
    probe = np.r_[block, want, np.nextafter(want, np.inf), np.nextafter(want, -np.inf)]
    got = quantize(probe, spec)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, reference_quantize(probe, want))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 4, 8, 16]).flatmap(
    lambda levels: st.tuples(st.just(levels), st.lists(
        st.integers(-2 ** 20, 2 ** 20), min_size=levels, max_size=400, unique=True))))
def test_histogram_uniform_on_own_thresholds(case):
    """Every level of a distinct-valued block holds n/levels samples, within one."""
    levels, values = case
    block = np.asarray(values, dtype=np.float64)
    counts = np.bincount(quantize(block, cdf_thresholds(block, levels)), minlength=levels)
    assert len(counts) == levels
    assert np.all(np.abs(counts - len(block) / levels) <= 1)


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

    # pairs of 200, 100 and 200 bits over 300 packets reported kgr 2.0: 600 bits where 500 exist
    @pytest.mark.parametrize("side", ["a", "b", "both"])
    def test_block_length_differing_from_the_first_named(self, side):
        sizes = [200, 100, 200]
        ka = [_mk_block(i * 100, np.zeros(n if side != "b" else 200)) for i, n in enumerate(sizes)]
        kb = [_mk_block(i * 100, np.zeros(n if side != "a" else 200)) for i, n in enumerate(sizes)]
        with pytest.raises(LengthMismatchError, match=r"^block 1 \(start_seq 100\) pairs "):
            evaluate(ka, kb, 300, thresholds=(15,))


def loop_evaluate_hams(keys_a, keys_b):
    """One count_nonzero per pair, as evaluate did before stacking: the reference."""
    return [int(np.count_nonzero(a.bits != b.bits)) for a, b in zip(keys_a, keys_b)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 30), st.integers(1, 64), st.integers(0, 2 ** 32 - 1))
def test_evaluate_equals_per_pair_loop(n_blocks, key_bits, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, (n_blocks, key_bits)).astype(np.uint8)
    b = a ^ (rng.random((n_blocks, key_bits)) < rng.random()).astype(np.uint8)
    ka = [_mk_block(i, r) for i, r in enumerate(a)]
    kb = [_mk_block(i, r) for i, r in enumerate(b)]
    hams = np.asarray(loop_evaluate_hams(ka, kb), dtype=np.int64)
    rep = evaluate(ka, kb, 1000, thresholds=tuple(sorted({0, 5, key_bits})))
    assert rep.blocks == n_blocks and rep.key_bits == (key_bits if n_blocks else 0)
    want_ber = float(hams.sum() / (len(hams) * key_bits)) if n_blocks else None
    assert rep.overall_ber == want_ber
    for st_ in rep.per_threshold:
        acc = hams[hams <= st_.error_threshold]
        assert st_.accepted == len(acc)
        assert st_.kgr == len(acc) * rep.key_bits / 1000


@pytest.mark.parametrize("call, message", [
    (lambda: QuantizerSpec(3, [0.0, 1.0]), "levels must be a power of two >= 2, got 3"),
    (lambda: QuantizerSpec(4, [0.0, 1.0]), "need levels-1 = 3 thresholds, got 2: [0.0, 1.0]"),
    (lambda: QuantizerSpec(4, [0.0, 2.0, 1.0]),
     "thresholds must be strictly increasing, got [0.0, 2.0, 1.0]"),
    (lambda: QuantizerSpec(4, [0.0, np.nan, 1.0]),
     "thresholds must be finite, got [0.0, nan, 1.0]"),
    (lambda: QuantizerSpec(2, [-np.inf]), "thresholds must be finite, got [-inf]"),
    (lambda: cdf_thresholds(np.arange(10.0), 6), "levels must be a power of two >= 2, got 6"),
    (lambda: make_keys(np.arange(10.0), 5, 1), "levels must be a power of two >= 2, got 1"),
    (lambda: evaluate([], [], 0), "total_packets must be >= 1, got 0"),
    (lambda: evaluate([], [], 10, (15, 5)), "thresholds must be nonempty ascending, got [15, 5]"),
    (lambda: evaluate([], [], 10, ()), "thresholds must be nonempty ascending, got []"),
    # a count of 3 gave levels 1 and 2 the one code [1], a count of 1 gave no bits at all
    (lambda: gray_encode([0, 1, 2], 3), "levels_count must be a power of two >= 2, got 3"),
    (lambda: gray_encode([0], 1), "levels_count must be a power of two >= 2, got 1"),
    (lambda: gray_encode([0, 1], 4.0), "levels_count must be an integer, got 4.0"),
    # each was a bare TypeError from slicing or from the levels check
    (lambda: make_keys(np.arange(300.0), 100.5), "block_len must be an integer, got 100.5"),
    (lambda: make_keys(np.arange(300.0), np.float64(100.0)),
     "block_len must be an integer, got np.float64(100.0)"),
    (lambda: make_keys(np.arange(300.0), 100, 4.0), "levels must be an integer, got 4.0"),
    # (5.7, 15) reported its first threshold as 5
    (lambda: evaluate([], [], 10, (5.7, 15)), "thresholds must be integers, got (5.7, 15)"),
    (lambda: SessionConfig(error_thresholds=(5.7, 15)),
     "error_thresholds must be integers, got (5.7, 15)"),
])
def test_bad_parameter_names_value(call, message):
    with pytest.raises(InvalidParameterError) as exc:
        call()
    assert str(exc.value) == message


@functools.cache  # read-only series: tests that share a call share one simulation
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


def test_session_config_thresholds_normalised():
    cfg = SessionConfig(error_thresholds=[np.int64(5), 15])
    assert cfg.error_thresholds == (5, 15) and type(cfg.error_thresholds[0]) is int


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


def digest_sweep(before_each=lambda: None) -> list[str]:
    """Sorted-key to_dict() JSON of 3 presets x seed 0 x 5 pipelines x sync on/off, 400 s."""
    out = []
    for name in ("los-short", "nlos-short", "nlos-long"):
        ap, sta, _ = gen_pair(preset(name, duration_s=400.0, seed=0))
        a, b = pair_traces(ap, sta, 6, gap_policy="interpolate_linear")
        for pipeline in PIPELINES:
            for sync in (True, False):
                before_each()
                d = wskg_session(a, b, SessionConfig(pipeline=pipeline, sync=sync)).to_dict()
                out.append(json.dumps(d, sort_keys=True))
    return out


def test_session_digest_pinned():
    """A change meant to keep outputs must keep this digest byte for byte."""
    h = hashlib.sha256()
    for d in digest_sweep():
        h.update(d.encode())
    assert h.hexdigest() == SESSION_DIGEST


AGREE = keygen._agree_cached  # step 1, memoized on the exact probe bytes and the rate


class TestAgreementMemo:
    @pytest.fixture(autouse=True)
    def cold(self):
        AGREE.cache_clear()

    def test_cold_cache_equals_warm(self):
        warm = digest_sweep()
        assert digest_sweep(AGREE.cache_clear) == warm

    def test_cold_tables_equal_warm(self):
        # every session agrees afresh, over configuration tables built afresh
        warm = digest_sweep()

        def cold():
            AGREE.cache_clear()
            for table in TABLES:
                table.cache_clear()
        assert digest_sweep(cold) == warm

    def test_five_pipelines_agree_once(self):
        a, b = session_pair(5)
        for pipe in PIPELINES:
            wskg_session(a, b, SessionConfig(pipeline=pipe))
        assert (AGREE.cache_info().misses, AGREE.cache_info().hits) == (1, 4)

    def test_probe_changed_in_place_is_not_a_stale_hit(self):
        a, b = session_pair(5)
        x, y = a.values.copy(), b.values.copy()
        cfg = SessionConfig(pipeline="raw")
        first = wskg_session(x, y, cfg)
        y[:PROBE_LEN] = np.roll(y[:PROBE_LEN], 3)
        changed = wskg_session(x, y, cfg)
        AGREE.cache_clear()
        cold = wskg_session(x, y, cfg)

        def step1(r):
            return r.band, r.alpha, r.beta, r.lag
        assert step1(changed) == step1(cold)
        assert step1(changed) != step1(first)

    def test_rate_is_part_of_the_key(self):
        a, b = session_pair(5)
        at20 = [MagnitudeSeries(s.subcarrier, s.values, s.seqs, 20.0) for s in (a, b)]
        fast = wskg_session(*at20, SessionConfig(pipeline="raw"))
        plain = wskg_session(a.values, b.values, SessionConfig(pipeline="raw"))  # 10 Hz
        assert (AGREE.cache_info().misses, AGREE.cache_info().hits) == (2, 0)
        assert fast.band != plain.band

    def test_errors_are_not_cached(self):
        a, b = session_pair(5)
        x = a.values.copy()
        x[:PROBE_LEN] = 5.0
        for _ in range(2):
            with pytest.raises(UnusableCoherenceError):
                wskg_session(x, b.values, SessionConfig(pipeline="raw"))
        info = AGREE.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 0, 0)


@pytest.mark.parametrize("series_first", [True, False])
def test_session_rate_comes_from_both_inputs(series_first):
    """A plain array counts as 10 Hz, on either side of the pair."""
    a, b = session_pair(5)

    def pair(series):
        return (series, b.values) if series_first else (b.values, series)
    with pytest.raises(RateMismatchError) as exc:
        preprocess_pair(*pair(MagnitudeSeries(a.subcarrier, a.values, a.seqs, 20.0)))
    ap_hz, sta_hz = (20.0, 10.0) if series_first else (10.0, 20.0)
    assert str(exc.value) == f"AP rate {ap_hz} Hz and STA rate {sta_hz} Hz differ by more than 1%"
    assert preprocess_pair(*pair(a)).band == preprocess_pair(*pair(a.values)).band


def test_wt_session_builds_one_response_per_pair():
    """The devices share the band response: one build for the probes, one for the key windows."""
    a, b = session_pair(5)
    AGREE.cache_clear()
    wavelet._band_response.cache_clear()
    wskg_session(a, b, SessionConfig(pipeline="wt"))
    info = wavelet._band_response.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_session_call_counts(monkeypatch):
    """A session Gray-encodes each window once and scores their bit matrices itself, so it
    calls neither make_keys nor evaluate; the wpt pipeline's denoiser walks the packet tree
    once each way per device.  Each public function a session reaches by name stays
    reached, so a profiler's per-function figures stay live."""
    calls = {}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for name in ("make_keys", "gray_encode", "evaluate"):
        count(keygen, name)
    for name in ("wpt_denoise", "wpt_forward", "wpt_inverse"):
        count(R, name)
    monkeypatch.setattr(keygen, "wpt_denoise", R.wpt_denoise)
    a, b = session_pair(5)
    wskg_session(a, b, SessionConfig(pipeline="wpt"))
    assert calls == {"gray_encode": 2, "wpt_denoise": 2, "wpt_forward": 2, "wpt_inverse": 2}
    calls.clear()
    R.wpt_denoise(a.values)
    assert calls == {"wpt_denoise": 1, "wpt_forward": 1, "wpt_inverse": 1}


def composed_session(ap, sta, cfg):
    """Step 3 as the session once ran it, the reference: make_keys on each window, the
    blocks of one start_seq on both sides, then evaluate."""
    pre = preprocess_pair(ap, sta, cfg)
    short = len(pre.x) < BLOCK_LEN
    keys_a, skip_a = ([], 0) if short else make_keys(pre.x)
    keys_b, skip_b = ([], 0) if short else make_keys(pre.y)
    index_a = {k.start_seq: k for k in keys_a}
    index_b = {k.start_seq: k for k in keys_b}
    common = sorted(set(index_a) & set(index_b))
    report = evaluate([index_a[s] for s in common], [index_b[s] for s in common],
                      pre.total_packets, cfg.error_thresholds)
    return dataclasses.replace(report, skipped_blocks=skip_a + skip_b, pipeline=cfg.pipeline,
                               sync=cfg.sync, lag=pre.lag, alpha=float(pre.band.alpha),
                               beta=int(pre.band.beta), band=pre.band.band)


def session_outcome(session, x, y, cfg):
    """The report's to_dict() as sorted-key JSON and its skipped_blocks, or the error."""
    try:
        rep = session(x, y, cfg)
    except CsiRecipError as e:
        return type(e), str(e)
    return json.dumps(rep.to_dict(), sort_keys=True), rep.skipped_blocks


@functools.cache
def equivalence_base(lag):
    """A 120 s pair, 7 key blocks, whose probe agrees on ``lag`` (0 or 10)."""
    a, b = session_pair(0, duration=120.0, snr_db=30.0, lag=lag)
    return a.values, b.values


def _degenerate(v, rng):
    """``v`` as a constant run, two tied values or values rounded to a coarse grid."""
    kind = rng.integers(3)
    if kind == 0:
        return np.full_like(v, v[0])
    if kind == 1:
        return np.where(v > np.median(v), 1.0, -1.0)
    return np.round(v, 1)


@st.composite
def edited_windows(draw):
    """A base pair whose key windows have some spans made degenerate, each span on one side
    only, and which may be cut so that the lag trim leaves less than one block."""
    x, y = (v.copy() for v in equivalence_base(draw(st.sampled_from([0, 10]))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    for k in range((len(x) - PROBE_LEN) // BLOCK_LEN):
        if draw(st.booleans()):
            side = draw(st.sampled_from([x, y]))
            lo = PROBE_LEN + k * BLOCK_LEN + draw(st.integers(0, 20))
            hi = min(lo + draw(st.integers(30, BLOCK_LEN + 20)), len(side))
            side[lo:hi] = _degenerate(side[lo:hi], rng)
    n = draw(st.none() | st.integers(PROBE_LEN + BLOCK_LEN, PROBE_LEN + BLOCK_LEN + 20))
    return x[:n], y[:n]


@settings(max_examples=60, deadline=None)
@given(windows=edited_windows(), pipeline=st.sampled_from(PIPELINES), sync=st.booleans())
def test_session_equals_make_keys_then_evaluate(windows, pipeline, sync):
    cfg = SessionConfig(pipeline=pipeline, sync=sync)
    assert session_outcome(wskg_session, *windows, cfg) == \
        session_outcome(composed_session, *windows, cfg)


@pytest.mark.parametrize("n, sync", [(None, False), (PROBE_LEN + BLOCK_LEN + 3, True)])
def test_session_equals_composition_on_one_sided_and_short_windows(n, sync):
    # the property's two edge cases made certain: degenerate blocks on different sides,
    # and a window the lag trim leaves shorter than one block
    x, y = (v.copy() for v in equivalence_base(10))
    x[PROBE_LEN:PROBE_LEN + BLOCK_LEN] = 1.0
    y[PROBE_LEN + 2 * BLOCK_LEN:PROBE_LEN + 3 * BLOCK_LEN] = np.arange(BLOCK_LEN) % 2
    cfg = SessionConfig(pipeline="raw", sync=sync)
    got = session_outcome(wskg_session, x[:n], y[:n], cfg)
    assert got == session_outcome(composed_session, x[:n], y[:n], cfg)
    blocks = json.loads(got[0])["blocks"]
    assert (blocks, got[1]) == ((0, 0) if n else (5, 2))


@settings(max_examples=30, deadline=None)
@given(pipeline=st.sampled_from(PIPELINES), sync=st.booleans(), side=st.integers(0, 1),
       at=st.floats(0, 1, exclude_max=True), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_non_finite_window_raises_as_composition(pipeline, sync, side, at, bad):
    run = keygen._run_pipeline
    calls = []

    def poisoned(x, *args):
        out = run(x, *args).copy()
        if len(calls) == side:
            out[int(at * len(out))] = bad
        calls.append(1)
        return out

    cfg = SessionConfig(pipeline=pipeline, sync=sync)
    x, y = equivalence_base(10)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(keygen, "_run_pipeline", poisoned)
        got = session_outcome(wskg_session, x, y, cfg)
        calls.clear()
        want = session_outcome(composed_session, x, y, cfg)
    assert got == want
    assert got[0] in (GapsPresentError, NonFiniteError)
