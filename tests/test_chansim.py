import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

import csirecip
from csirecip.chansim import (
    _TABLES,
    BLOCK,
    N_CARRIERS,
    TABLE,
    ChannelConfig,
    LossEvent,
    _carrier_states,
    _innovations,
    _phasor_table,
    base_signal,
    gen_attacker,
    gen_pair,
    ou_process,
    preset,
)
from csirecip.errors import (
    CsiRecipError,
    InvalidParameterError,
    UnknownPresetError,
)
from csirecip.metrics import pearson, xcorr_lag
from csirecip.traces import magnitude_series, parse_csi_csv, write_csi_csv


def lfilter_ou_process(n, dt, tau, rng, complex_valued=False):
    """Reference: the OU drive run through ``scipy.signal.lfilter``."""
    rho = np.exp(-dt / tau)
    if complex_valued:
        z = rng.standard_normal((n, 2))
        innov = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2)
    else:
        innov = rng.standard_normal(n)
    drive = np.sqrt(1 - rho * rho) * innov
    drive[0] = innov[0]
    return lfilter([1.0], [1.0, -rho], drive)


def per_carrier_base_signal(cfg, n, start_s=0.0):
    """Reference: one whole-horizon lfilter OU path per carrier, summed in order."""
    dt = 1.0 / cfg.rate_hz
    offset = int(round(start_s / dt))
    total = offset + n
    seeds = np.random.SeedSequence(cfg.seed).spawn(N_CARRIERS)
    carriers = np.geomspace(*cfg.base_band, N_CARRIERS)
    t = np.arange(total) * dt
    x = np.zeros(total)
    for k in range(N_CARRIERS):
        rng = np.random.default_rng(seeds[k])
        c = lfilter_ou_process(total, dt, cfg.coherence_time_s, rng, complex_valued=True)
        x += (c * np.exp(2j * np.pi * carriers[k] * t)).real
    return x[offset:] / np.sqrt(N_CARRIERS / 2.0)


def exp_per_block_base_signal(cfg, n, start_s=0.0):
    """Reference: base_signal as it was before its phasor table, with its own
    generators and buffers; every block computes its carrier-major phasors."""
    dt = 1.0 / cfg.rate_hz
    offset = int(round(start_s / dt))
    total = offset + n
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(N_CARRIERS)]
    draws = np.empty((N_CARRIERS, BLOCK, 2))
    terms = draws.view(np.complex128)[..., 0]
    coef = np.empty((BLOCK, N_CARRIERS), dtype=np.complex128)
    rows = list(coef.view(np.float64))
    omega = 2 * np.pi * np.geomspace(*cfg.base_band, N_CARRIERS)
    rho = np.exp(-dt / cfg.coherence_time_s)
    gain = np.sqrt(1 - rho * rho)
    rho_row = np.full(2 * N_CARRIERS, rho)
    prev = np.zeros(2 * N_CARRIERS)
    step = np.empty(2 * N_CARRIERS)
    x = np.zeros(n)
    for a in range(0, total, BLOCK):
        m = min(BLOCK, total - a)
        for k, rng in enumerate(rngs):
            rng.standard_normal(out=draws[k, :m])
        innov = _innovations(draws[:, :m])
        draws[:, 1 if a == 0 else 0:m] *= gain
        np.copyto(coef[:m], innov.T)
        for row in rows[:m]:
            np.multiply(prev, rho_row, step)
            np.add(row, step, row)
            prev = row
        prev = prev.copy()
        lo = max(offset - a, 0)
        if lo < m:
            t = np.arange(a + lo, a + m) * dt
            ph = terms[:, :m - lo]
            ph.real = 0.0
            np.multiply(omega[:, None], t, out=ph.imag)
            np.exp(ph, out=ph)
            np.multiply(coef[lo:m].T, ph, out=ph)
            acc = x[a + lo - offset:a + m - offset]
            for k in range(N_CARRIERS):
                acc += ph[k].real
    return x / np.sqrt(N_CARRIERS / 2.0)


# (band, rate) pairs: the default, the keygen presets', a fast rate, an odd rate, a wide band
CHANNELS = [((0.05, 2.0), 10.0), ((0.05, 0.8), 10.0), ((0.5, 20.0), 100.0),
            ((0.1, 3.0), 7.3), ((0.01, 4.9), 10.0)]


class TestOu:
    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_bit_equal_to_lfilter(self, seed):
        for n, tau in ((1, 3.0), (2, 0.5), (997, 12.0)):
            got = ou_process(n, 0.1, tau, np.random.default_rng(seed))
            want = lfilter_ou_process(n, 0.1, tau, np.random.default_rng(seed))
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    # n=0 was an IndexError, tau=0 a ZeroDivisionError, tau<0 a NaN path
    @pytest.mark.parametrize("n, dt, tau, field", [
        (0, 0.1, 1.0, "n"), (-3, 0.1, 1.0, "n"),
        (5, 0.0, 1.0, "dt"), (5, -0.1, 1.0, "dt"), (5, np.nan, 1.0, "dt"),
        (5, np.inf, 1.0, "dt"), (5, 0.1, 0.0, "tau"), (5, 0.1, -1.0, "tau"),
        (5, 0.1, np.nan, "tau"), (5, 0.1, np.inf, "tau"),
    ])
    def test_bad_argument_named(self, n, dt, tau, field):
        value = {"n": n, "dt": dt, "tau": tau}[field]
        with pytest.raises(InvalidParameterError, match=f"^{field} .*got {value!r}$"):
            ou_process(n, dt, tau, np.random.default_rng(0))

    def test_autocorrelation_matches_exponential(self):
        # n >= 1e4, tau up to 3 coherence times, +/-0.05 band
        dt, tau, n = 0.1, 5.0, 200_000
        x = ou_process(n, dt, tau, np.random.default_rng(0)).real
        x = np.asarray(x)
        for lag_s in (0.5, 1.0, 2.5, 5.0, 10.0, 15.0):
            k = int(round(lag_s / dt))
            got = pearson(x[:-k], x[k:])
            assert got == pytest.approx(np.exp(-lag_s / tau), abs=0.05)

    def test_unit_variance(self):
        x = ou_process(100_000, 0.1, 3.0, np.random.default_rng(1))
        assert np.var(x.real) == pytest.approx(1.0, abs=0.05)


class TestGenPair:
    def test_noise_off_lag_zero_identical(self):
        cfg = ChannelConfig(duration_s=30.0, snr_db=np.inf, lag_samples=0, seed=3)
        ap, sta, _ = gen_pair(cfg)
        x = magnitude_series(ap, 6).values
        y = magnitude_series(sta, 6).values
        np.testing.assert_allclose(x, y, atol=1e-12)

    def test_configured_lag_recovered(self):
        cfg = ChannelConfig(duration_s=120.0, snr_db=25.0, lag_samples=7, seed=4)
        ap, sta, truth = gen_pair(cfg)
        assert truth["lag"] == 7
        x = magnitude_series(ap, 6).values
        y = magnitude_series(sta, 6).values
        assert xcorr_lag(x, y, 20).lag == 7

    def test_loss_counting_oracle(self):
        cfg = ChannelConfig(duration_s=1500.0, rate_hz=5.0,
                            loss=(LossEvent("sta", 300.0, 900),), seed=5)
        ap, sta, truth = gen_pair(cfg)
        missing = sta.missing_seqs()
        assert len(missing) == 900
        assert missing[0] == 1500  # 300 s at 5 packets/s
        assert truth["dropped_seqs"]["sta"] == list(range(1500, 2400))
        assert len(ap.missing_seqs()) == 0

    def test_determinism(self):
        cfg = ChannelConfig(duration_s=20.0, seed=6)
        a1, s1, _ = gen_pair(cfg)
        a2, s2, _ = gen_pair(cfg)
        assert write_csi_csv(a1) == write_csi_csv(a2)
        assert write_csi_csv(s1) == write_csi_csv(s2)

    def test_lag_recoverable_over_seeds(self):
        for seed in range(10):
            lag = int(np.random.default_rng(seed).integers(-10, 11))
            cfg = ChannelConfig(duration_s=100.0, snr_db=20.0,
                                lag_samples=lag, seed=seed)
            ap, sta, _ = gen_pair(cfg)
            x = magnitude_series(ap, 6).values
            y = magnitude_series(sta, 6).values
            assert xcorr_lag(x, y, 25).lag == lag

    def test_magnitudes_nonnegative(self):
        cfg = ChannelConfig(duration_s=60.0, snr_db=0.0, seed=7)
        ap, _, _ = gen_pair(cfg)
        assert magnitude_series(ap, 0).values.min() >= 0.0

    def test_invalid_band(self):
        with pytest.raises(InvalidParameterError):
            ChannelConfig(base_band=(0.1, 6.0), rate_hz=10.0)
        with pytest.raises(InvalidParameterError):
            ChannelConfig(base_band=(0.5, 0.1))

    @pytest.mark.parametrize("duration", [-5.0, 0.0, 0.04])
    def test_duration_without_samples_rejected(self, duration):
        with pytest.raises(ValueError, match=f"duration_s.*{duration}"):
            ChannelConfig(duration_s=duration)

    @pytest.mark.parametrize("field, value", [
        ("duration_s", np.nan), ("duration_s", np.inf), ("rate_hz", np.nan),
        ("rate_hz", np.inf), ("rate_hz", 0.0), ("coherence_time_s", np.nan),
        ("coherence_time_s", np.inf), ("coherence_time_s", 0.0), ("coherence_time_s", -1.0),
        ("snr_db", np.nan), ("snr_db", -np.inf),
    ])
    def test_non_finite_or_non_positive_field_named(self, field, value):
        # duration_s inf used to raise OverflowError, nan "cannot convert float NaN"
        with pytest.raises(CsiRecipError, match=f"{field} .*got {value!r}") as err:
            ChannelConfig(**{field: value})
        assert isinstance(err.value, ValueError)

    # -1 reached numpy as a bare "expected non-negative integer", 1.5 as a TypeError
    @pytest.mark.parametrize("seed", [-1, -2 ** 70, 1.5, np.float64(2.0), "3", None, True])
    def test_bad_seed_named(self, seed):
        if type(seed) is int:
            message = f"seed must be >= 0, got {seed!r}"
        else:  # the one integer rule, errors.integer
            message = f"seed must be an integer, got {seed!r}"
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            ChannelConfig(seed=seed)

    @pytest.mark.parametrize("seed", [0, np.int64(7), np.uint32(2 ** 32 - 1), 2 ** 140])
    def test_integer_seed_normalised(self, seed):
        cfg = ChannelConfig(duration_s=1.0, seed=seed)
        assert type(cfg.seed) is int and cfg.seed == seed

    @pytest.mark.parametrize("side, count, match", [
        ("both", 3, "side .*'both'"), ("ap", -1, "count .*-1"),
    ])
    def test_loss_event_fields_named(self, side, count, match):
        with pytest.raises(InvalidParameterError, match=match):
            LossEvent(side, 10.0, count)

    # a start of -0.2 s on a 5 s trace dropped seqs 0, 48 and 49 while the truth listed
    # -2, -1 and 0; nan reached int() and 2.5 indexed the drop mask
    @pytest.mark.parametrize("start_s, count, message", [
        (-0.2, 3, "LossEvent.start_s must be finite and >= 0, got -0.2"),
        (np.nan, 2, "LossEvent.start_s must be finite and >= 0, got nan"),
        (np.inf, 2, "LossEvent.start_s must be finite and >= 0, got inf"),
        (1.0, 2.5, "LossEvent.count must be an integer, got 2.5"),
        (1.0, np.float64(2.0), "LossEvent.count must be an integer, got np.float64(2.0)"),
    ])
    def test_loss_event_start_and_count_named(self, start_s, count, message):
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            LossEvent("ap", start_s, count)

    def test_loss_event_count_normalised(self):
        ev = LossEvent("ap", 0.0, np.int64(3))
        assert type(ev.count) is int and ev.count == 3
        _, _, truth = gen_pair(ChannelConfig(duration_s=5.0, loss=(ev,)))
        assert truth["dropped_seqs"]["ap"] == [0, 1, 2]

    # subcarriers=-2 was numpy's bare "negative dimensions", lag_samples=2.5 a TypeError,
    # and a lag of 10**6 on a 5 s trace simulated a million samples
    @pytest.mark.parametrize("field, value, message", [
        ("subcarriers", 0, "subcarriers must be >= 1, got 0"),
        ("subcarriers", -2, "subcarriers must be >= 1, got -2"),
        ("subcarriers", 8.0, "subcarriers must be an integer, got 8.0"),
        ("lag_samples", 2.5, "lag_samples must be an integer, got 2.5"),
        ("lag_samples", 50, "|lag_samples| must be below the 50 samples of duration_s, got 50"),
        ("lag_samples", -50, "|lag_samples| must be below the 50 samples of duration_s, got -50"),
        ("lag_samples", 10 ** 6,
         "|lag_samples| must be below the 50 samples of duration_s, got 1000000"),
    ])
    def test_subcarriers_and_lag_named(self, field, value, message):
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            ChannelConfig(duration_s=5.0, **{field: value})

    @pytest.mark.parametrize("lag", [49, -49, np.int64(7)])
    def test_lag_below_duration_kept(self, lag):
        cfg = ChannelConfig(duration_s=5.0, lag_samples=lag, subcarriers=np.int32(2))
        assert type(cfg.lag_samples) is int and cfg.lag_samples == lag
        assert type(cfg.subcarriers) is int
        ap, sta, truth = gen_pair(cfg)
        assert truth["lag"] == lag and ap.subcarriers == sta.subcarriers == 2

    def test_csv_round_trip(self):
        cfg = ChannelConfig(duration_s=15.0, seed=8,
                            loss=(LossEvent("ap", 5.0, 10),))
        ap, _, _ = gen_pair(cfg)
        text = write_csi_csv(ap)
        back = parse_csi_csv(text)
        assert write_csi_csv(back) == text
        assert list(back.seqs) == list(ap.seqs)


class TestBaseSignal:
    @pytest.mark.parametrize("seed", [0, 3, 42])
    def test_bit_equal_to_per_carrier_lfilter(self, seed):
        cfg = ChannelConfig(duration_s=30.0, seed=seed, coherence_time_s=15.0 + seed)
        # horizons inside, at and across block edges; offsets inside and across blocks
        for n, start_s in ((1, 0.0), (1, 0.7), (BLOCK, 0.0), (BLOCK + 1, 0.0),
                           (3 * BLOCK - 7, 0.0), (BLOCK - 3, 5.1),
                           (BLOCK + 40, 0.1 * BLOCK), (97, 0.1 * (2 * BLOCK + 3))):
            np.testing.assert_array_equal(base_signal(cfg, n, start_s),
                                          per_carrier_base_signal(cfg, n, start_s))

    def test_interleaved_seeds_equal_fresh_process(self):
        # each call reseeds the pooled generators and overwrites the pooled buffers,
        # so a shorter call after a longer one, or another seed, leaves nothing behind
        calls = ((5, 3 * BLOCK + 11, 0.0), (6, 40, 0.0), (5, BLOCK - 5, 0.1 * (BLOCK + 9)))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from csirecip.chansim import ChannelConfig, base_signal; "
                "seed, n, start_s = int(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4]); "
                "cfg = ChannelConfig(duration_s=30.0, seed=seed); "
                "print(base_signal(cfg, n, start_s).tobytes().hex())")
        src = str(Path(csirecip.__file__).resolve().parents[1])
        for seed, n, start_s in calls:
            got = base_signal(ChannelConfig(duration_s=30.0, seed=seed), n, start_s)
            fresh = subprocess.run([sys.executable, "-c", code, src, str(seed), str(n),
                                    repr(start_s)], capture_output=True, text=True, check=True)
            assert got.tobytes().hex() == fresh.stdout.strip()

    def test_threads_equal_serial(self):
        # more threads than cores, switching often: each thread keeps its own workspace
        cases = [(seed, n, start_s) for seed in (21, 22) for n, start_s in
                 ((BLOCK + 30, 0.0), (70, 2.3), (2 * BLOCK, 0.1 * BLOCK))]
        want = [base_signal(ChannelConfig(duration_s=30.0, seed=s), n, t) for s, n, t in cases]
        got = {}

        def work(i):
            order = cases[i % len(cases):] + cases[:i % len(cases)]
            got[i] = [(c, base_signal(ChannelConfig(duration_s=30.0, seed=c[0]), *c[1:]))
                      for c in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert sorted(got) == [0, 1, 2, 3]
        for results in got.values():
            for case, x in results:
                np.testing.assert_array_equal(x, want[cases.index(case)])

    def test_phasor_table_read_only_and_shared(self):
        cfg = ChannelConfig(duration_s=30.0, seed=1)
        base_signal(cfg, 10)
        table = _phasor_table(0.05, 2.0, 10.0)
        assert table.shape == (TABLE, N_CARRIERS) and table.dtype == np.complex128
        assert not table.flags.writeable and table.nbytes == 2 * 2 ** 20
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0
        before = _phasor_table.cache_info()
        # another seed, and the band as a list of numpy floats, read the same table
        base_signal(ChannelConfig(duration_s=30.0, seed=2, base_band=[np.float64(0.05), 2]), 700)
        seen = []

        def work():
            base_signal(ChannelConfig(duration_s=30.0, seed=3), 300, 20.0)
            seen.append(_phasor_table(0.05, 2.0, 10.0))

        threads = [threading.Thread(target=work) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert len(seen) == 4 and all(t is table for t in seen)
        after = _phasor_table.cache_info()
        assert after.misses == before.misses and after.hits == before.hits + 9

    def test_phasor_cache_bounded(self):
        for band, rate in CHANNELS:
            base_signal(ChannelConfig(duration_s=30.0, base_band=band, rate_hz=rate), 5)
            info = _phasor_table.cache_info()
            assert info.maxsize == _TABLES == 2 and info.currsize <= _TABLES
        assert info.currsize == _TABLES

    def test_prefix_stability_across_horizons(self):
        cfg = ChannelConfig(duration_s=30.0, seed=9)
        short = base_signal(cfg, 100)
        long = base_signal(cfg, 400)
        np.testing.assert_allclose(short, long[:100], atol=1e-12)

    def test_windowing_matches_offset(self):
        cfg = ChannelConfig(duration_s=30.0, seed=10)
        full = base_signal(cfg, 500)
        shifted = base_signal(cfg, 200, start_s=20.0)  # 200-sample offset
        np.testing.assert_allclose(shifted, full[200:400], atol=1e-12)

    def test_band_limited_spectrum(self):
        cfg = ChannelConfig(duration_s=1000.0, seed=11,
                            base_band=(0.05, 0.5), coherence_time_s=120.0)
        x = base_signal(cfg, cfg.n_samples)
        spec = np.abs(np.fft.rfft(x - x.mean())) ** 2
        freqs = np.fft.rfftfreq(len(x), 0.1)
        in_band = spec[(freqs >= 0.03) & (freqs <= 0.7)].sum()
        out_band = spec[freqs > 1.0].sum()
        assert out_band <= 0.01 * in_band


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3000),
       offset=st.one_of(st.integers(0, 3 * TABLE),
                        st.sampled_from([TABLE - BLOCK, TABLE - 1, TABLE, TABLE + 1])),
       frac=st.sampled_from([0.0, 0.3, -0.3]),
       channel=st.sampled_from(CHANNELS),
       seed=st.integers(0, 2 ** 64))
# inside the table, ending on its edge, one sample across it, starting on it, and past it
@example(n=1, offset=0, frac=0.0, channel=CHANNELS[0], seed=0)
@example(n=TABLE, offset=0, frac=0.0, channel=CHANNELS[0], seed=2 ** 64)
@example(n=2, offset=TABLE - 1, frac=0.0, channel=CHANNELS[1], seed=5)
@example(n=BLOCK, offset=TABLE, frac=0.0, channel=CHANNELS[1], seed=5)
@example(n=3000, offset=TABLE + 1, frac=0.3, channel=CHANNELS[2], seed=2 ** 32)
def test_base_signal_equals_exp_per_block(n, offset, frac, channel, seed):
    band, rate = channel
    cfg = ChannelConfig(duration_s=30.0, base_band=band, rate_hz=rate, seed=seed,
                        coherence_time_s=60.0 + seed % 7)
    start_s = (offset + frac) / rate  # rounds back to ``offset`` samples
    assert np.array_equal(base_signal(cfg, n, start_s), exp_per_block_base_signal(cfg, n, start_s))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 140))
# one-word entropy at its edges, then two, three and five words
@example(0)
@example(2 ** 32 - 1)
@example(2 ** 32)
@example(2 ** 64)
@example(2 ** 128)
@example(0x5EED)
def test_carrier_states_equal_spawned_pcg64(seed):
    want = [np.random.PCG64(c).state for c in np.random.SeedSequence(seed).spawn(N_CARRIERS)]
    assert _carrier_states(seed) == [(w["state"]["state"], w["state"]["inc"]) for w in want]


class TestAttacker:
    def test_independent_low_correlation(self):
        hits = 0
        trials = 40
        for seed in range(trials):
            cfg = ChannelConfig(duration_s=60.0, snr_db=15.0, seed=seed)
            ap, _, _ = gen_pair(cfg)
            atk = gen_attacker(cfg, "independent")
            c = pearson(magnitude_series(ap, 6).values,
                        magnitude_series(atk, 6).values)
            hits += abs(c) <= 0.2
        assert hits >= 0.95 * trials

    def test_delayed_replay_zero_gap_equals_base(self):
        cfg = ChannelConfig(duration_s=30.0, snr_db=np.inf, lag_samples=0,
                            seed=12)
        ap, _, _ = gen_pair(cfg)
        atk = gen_attacker(cfg, "delayed_replay", gap_s=0.0)
        np.testing.assert_allclose(
            magnitude_series(atk, 6).values,
            magnitude_series(ap, 6).values, atol=1e-12)

    def test_delayed_replay_ou_decay_bound(self):
        cfg = ChannelConfig(duration_s=60.0, snr_db=25.0, seed=13,
                            coherence_time_s=30.0)
        ap, _, _ = gen_pair(cfg)
        atk = gen_attacker(cfg, "delayed_replay", gap_s=300.0)  # 10 tau
        c = pearson(magnitude_series(ap, 6).values,
                    magnitude_series(atk, 6).values)
        # e^-10 plus a sampling noise margin for 600 smooth samples
        assert abs(c) <= np.exp(-10) + 0.25

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            gen_attacker(ChannelConfig(seed=0), "teleport")


class TestPresets:
    def test_names(self):
        names = ["los-short", "nlos-long", "nlos-short", "reciprocal"]
        for name in names:
            assert isinstance(preset(name), ChannelConfig)
        # any other name is refused, and the refusal lists exactly the presets
        for name in ("los", "nlos-medium", "urban-canyon", "reciprocal2", ""):
            with pytest.raises(UnknownPresetError, match=re.escape(f"choose from {names}")):
                preset(name)

    def test_preset_overrides(self):
        cfg = preset("nlos-long", duration_s=300.0, seed=5, snr_db=3.0)
        assert cfg.snr_db == 3.0
        assert cfg.lag_samples == 12
        assert cfg.seed == 5

    def test_unknown(self):
        with pytest.raises(UnknownPresetError, match="'urban-canyon'.*los-short") as err:
            preset("urban-canyon")
        assert isinstance(err.value, CsiRecipError) and isinstance(err.value, ValueError)

    def test_reciprocal_preset_pins_contract_values(self):
        cfg = preset("reciprocal", duration_s=300.0)
        assert cfg.snr_db == 5.0
        assert cfg.lag_samples == 5
        lost = sum(ev.count for ev in cfg.loss)
        assert lost == pytest.approx(0.01 * cfg.n_samples, rel=0.2)
