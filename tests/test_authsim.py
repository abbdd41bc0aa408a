import numpy as np
import pytest

from csirecip.authsim import (
    AuthMessage,
    AuthPolicy,
    Reason,
    replay_attack,
    run_handshake,
    sign_csi,
    temporal_decorrelation_curve,
    verify_tag,
)
from csirecip.chansim import MAGNITUDE_OFFSET, ChannelConfig, base_signal, gen_attacker, gen_pair
from csirecip.errors import InvalidParameterError, TooShortError
from csirecip.traces import magnitude_series
from simcache import auth_trial

KEY = b"test-identity-key"


def legit_pair(seed, snr_db=15.0, lag=1, duration=60.0):
    cfg = ChannelConfig(duration_s=duration, snr_db=snr_db, lag_samples=lag,
                        seed=seed)
    ap, sta, _ = gen_pair(cfg)
    return (magnitude_series(ap, 6).values, magnitude_series(sta, 6).values, cfg)


class TestHandshake:
    def test_legitimate_accepts(self):
        x, y, _ = legit_pair(0)
        d = run_handshake(x, y, AuthPolicy(), KEY)
        assert d.accepted
        assert d.reason is Reason.OK
        assert d.corr >= 0.6
        assert d.shift <= 3

    def test_identical_csi(self):
        x, _, _ = legit_pair(1)
        d = run_handshake(x, x, AuthPolicy(), KEY)
        assert d.accepted
        assert d.corr == pytest.approx(1.0)
        assert d.shift == 0

    def test_identical_csi_at_extreme_scale(self):
        # pearson's product of sums of squares overflowed: corr 0.0, rejected as low_corr
        x, _, _ = legit_pair(1)
        d = run_handshake(x * 1e150, x * 1e150, AuthPolicy(), KEY)
        assert (d.accepted, d.corr, d.shift, d.reason) == (True, 1.0, 0, Reason.OK)

    def test_tampered_tag_skips_channel_math(self):
        x, y, _ = legit_pair(2)
        msg = sign_csi(y, KEY)
        bad = AuthMessage(payload_csi=msg.payload_csi, tag=b"\x00" * 32)
        d = replay_attack(None, bad, x, AuthPolicy(), KEY)
        assert not d.accepted
        assert d.reason is Reason.BAD_SIGNATURE
        assert d.corr == 0.0 and d.shift == 0  # no channel math ran

    def test_signature_gate_precedes_channel_on_doubly_bad(self):
        # wrong tag AND uncorrelated channel: reason must be the signature
        x, _, cfg = legit_pair(3)
        fresh = magnitude_series(gen_attacker(cfg, "independent"), 6).values
        msg = sign_csi(fresh, b"some-other-key")
        d = replay_attack(None, msg, x, AuthPolicy(), KEY)
        assert d.reason is Reason.BAD_SIGNATURE

    def test_frozen_channel_fails_closed(self):
        d = run_handshake(np.ones(600), np.ones(600), AuthPolicy(), KEY)
        assert not d.accepted
        assert d.reason is Reason.LOW_CORR

    def test_two_sample_window_fails_closed(self):
        d = run_handshake([1.0, 2.0], [1.0, 2.0], AuthPolicy(), KEY)
        assert (d.accepted, d.corr, d.shift, d.reason) == (False, 0.0, 0, Reason.LOW_CORR)

    def test_window_too_short_to_see_a_rejectable_shift_fails_closed(self):
        policy = AuthPolicy()
        d = run_handshake([1, 2, 3], [1, 3, 2], policy, KEY)
        assert (d.accepted, d.corr, d.shift, d.reason) == (False, 0.0, 0, Reason.LOW_CORR)
        # the shortest window whose +-n//3 scan reaches max_shift + 1 is decided
        x, _, _ = legit_pair(7)
        n = 3 * (policy.max_shift + 1)
        assert run_handshake(x[:n], x[:n], policy, KEY).accepted
        assert not run_handshake(x[:n - 1], x[:n - 1], policy, KEY).accepted

    @pytest.mark.parametrize("max_shift", [-1, 200])
    def test_max_shift_beyond_the_lag_scan_rejected(self, max_shift):
        # PROBE_LEN = 600 samples scan +-200 lags: a max_shift of 200 could never be exceeded
        with pytest.raises(ValueError, match=f"got {max_shift}"):
            AuthPolicy(max_shift=max_shift)

    def test_max_shift_normalised(self):
        policy = AuthPolicy(max_shift=np.int64(30))
        assert type(policy.max_shift) is int and policy.max_shift == 30

    @pytest.mark.parametrize("side", ["ap", "sta"])
    def test_trace_matrix_rejected(self, side):
        # the (600, 8) complex i/q matrices were raveled, signed and correlated
        cfg = ChannelConfig(duration_s=60.0, lag_samples=1, seed=7)
        ap, sta, _ = gen_pair(cfg)
        x, y = magnitude_series(ap, 6).values, magnitude_series(sta, 6).values
        x, y = (ap.iq, y) if side == "ap" else (x, sta.iq)
        name = "ap_csi" if side == "ap" else "csi"
        with pytest.raises(InvalidParameterError) as exc:
            run_handshake(x, y, AuthPolicy(), KEY)
        assert str(exc.value) == (
            f"{name} must be a 1-D real series, got shape (600, 8) of dtype complex128")

    @pytest.mark.parametrize("side", ["ap", "sta"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_window_fails_closed(self, side, bad):
        # the signed payload comes from outside the AP; inf used to raise IndexError
        x, y, _ = legit_pair(7)
        x, y = x.copy(), y.copy()
        (x if side == "ap" else y)[100] = bad
        d = run_handshake(x, y, AuthPolicy(), KEY)
        assert (d.accepted, d.corr, d.shift, d.reason) == (False, 0.0, 0, Reason.LOW_CORR)

    def test_tag_verifies(self):
        msg = sign_csi(np.arange(32.0), KEY)
        assert verify_tag(msg, KEY)
        assert not verify_tag(msg, b"wrong")


class TestReplay:
    def test_independent_channel_rejected(self):
        x, y, cfg = legit_pair(4)
        s3 = sign_csi(y, KEY)  # recorded legitimate message, valid tag
        fresh = magnitude_series(gen_attacker(cfg, "independent"), 6).values
        d = replay_attack(x, s3, fresh, AuthPolicy(), KEY)
        assert not d.accepted
        assert d.reason in (Reason.LOW_CORR, Reason.HIGH_SHIFT)
        assert verify_tag(s3, KEY)  # replay preserved the signature

    def test_delayed_replay_rejected(self):
        x, y, cfg = legit_pair(5)
        s3 = sign_csi(y, KEY)
        stale = magnitude_series(
            gen_attacker(cfg, "delayed_replay", gap_s=600.0), 6).values
        d = replay_attack(x, s3, stale, AuthPolicy(), KEY)
        assert not d.accepted

    def test_frozen_attacker_channel_fails_closed(self):
        _, y, _ = legit_pair(6)
        s3 = sign_csi(y, KEY)
        d = replay_attack(np.zeros(600), s3, np.full(600, 3.0), AuthPolicy(), KEY)
        assert not d.accepted
        assert d.reason is Reason.LOW_CORR


class TestSeparation:
    def test_zero_confusion_over_200_trials(self):
        policy = AuthPolicy(min_corr=0.4, max_shift=50)
        false_accepts = 0
        false_rejects = 0
        for seed in range(200):
            x, y, fresh = auth_trial(seed)
            if not run_handshake(x, y, policy, KEY).accepted:
                false_rejects += 1
            if replay_attack(x, sign_csi(y, KEY), fresh, policy, KEY).accepted:
                false_accepts += 1
        assert false_accepts == 0
        assert false_rejects == 0


class TestDecorrelationCurve:
    @staticmethod
    def _curve(cfg, gaps, seed):
        """``cfg``'s decorrelation curve over ``gaps``: at each gap, a noisy window of the
        channel from 0 s and one from ``gap_s``.  The channel is simulated once, out to the
        longest gap, and both windows sliced from it; by ``base_signal``'s offset contract
        each slice equals its own call bit for bit."""
        n, dt = cfg.n_samples, 1.0 / cfg.rate_hz
        sigma = 10 ** (-cfg.snr_db / 20)
        channel = base_signal(cfg, n + round(max(gaps) / dt))

        def gen(gap_s, rng):
            start = round(gap_s / dt)  # base_signal's first sample at start_s = gap_s
            ref = MAGNITUDE_OFFSET + channel[:n] + sigma * rng.standard_normal(n)
            delayed = MAGNITUDE_OFFSET + channel[start:start + n] + sigma * rng.standard_normal(n)
            return ref, delayed

        return temporal_decorrelation_curve(gen, gaps, seed=seed)

    def test_gap_zero_is_peak(self):
        cfg = ChannelConfig(duration_s=60.0, snr_db=15.0, coherence_time_s=30.0,
                            seed=0)
        curve = self._curve(cfg, [0, 30, 60, 120, 600], seed=1)
        corrs = [c for _, c, _ in curve]
        assert corrs[0] == max(corrs)
        assert corrs[0] >= 0.9

    def test_long_gap_hits_noise_floor(self):
        # long window + short coherence time: enough effective samples for
        # the +/-0.1 sampling-noise band around zero
        cfg = ChannelConfig(duration_s=240.0, snr_db=15.0,
                            coherence_time_s=30.0, seed=2)
        curve = self._curve(cfg, [0, 300], seed=3)
        assert abs(curve[-1][1]) <= 0.1

    def test_monotone_trend_across_seeds(self):
        ok = 0
        trials = 40
        for seed in range(trials):
            cfg = ChannelConfig(duration_s=60.0, snr_db=15.0,
                                coherence_time_s=60.0, seed=seed)
            curve = self._curve(cfg, [0, 600, 1200], seed=seed)
            ok += curve[0][1] > max(c for _, c, _ in curve[1:])
        assert ok >= 0.95 * trials

    @pytest.mark.parametrize("n", [2, 3])
    def test_window_too_short_for_the_default_policy(self, n):
        # 3 * (max_shift + 1) = 153 samples; 2 used to fail in xcorr_lag, 3 gave a point
        def gen(gap_s, rng):
            return rng.normal(size=n), rng.normal(size=n)

        with pytest.raises(TooShortError, match=f"gap 0: series of {n} samples.*153"):
            temporal_decorrelation_curve(gen, [0, 30], seed=0)

    def test_rejects_bad_gaps(self):
        cfg = ChannelConfig(duration_s=30.0, seed=0)
        with pytest.raises(ValueError):
            self._curve(cfg, [10, 20], seed=0)
        with pytest.raises(ValueError):
            self._curve(cfg, [0, 20, 10], seed=0)
