"""Acceptance suite: one test per criterion, each with its stated tolerance.

Every test records a PASS/FAIL line (printed in the terminal summary and
under ``pytest -s``) before asserting, so a red criterion still reports
its measured numbers.
"""

import time
from functools import cache

import numpy as np

from csirecip.authsim import AuthPolicy, replay_attack, run_handshake, sign_csi
from csirecip.chansim import ChannelConfig, LossEvent, gen_pair, ou_process, preset
from csirecip.cli import main as cli_main
from csirecip.keygen import (
    KeyBlock,
    SessionConfig,
    cdf_thresholds,
    evaluate,
    gray_encode,
    make_keys,
    preprocess_pair,
    quantize,
    wskg_session,
)
from csirecip.metrics import ber, jeffrey_divergence, pearson, wasserstein_1d, xcorr_lag
from csirecip.metrics import DivergenceConfig
from csirecip.traces import pair_traces, parse_csi_csv, write_csi_csv
from csirecip.wavelet import coherent_gap_width, cwt, default_params, icwt, wavelet_coherence
from simcache import auth_trial

RESULTS: list[str] = []


def record(criterion: int, ok: bool, detail: str):
    line = f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


# --- oracles (independent of the library paths they check) ---------------

def _pearson_oracle(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / (vx ** 0.5 * vy ** 0.5)


def _jeffrey_oracle(x, y, bins, eps):
    lo, hi = min(x.min(), y.min()), max(x.max(), y.max())
    edges = np.linspace(lo, hi, bins + 1)
    p, _ = np.histogram(x, bins=edges)
    q, _ = np.histogram(y, bins=edges)
    p = (p + eps) / (p.sum() + bins * eps)
    q = (q + eps) / (q.sum() + bins * eps)
    return 0.5 * (sum(a * np.log(a / b) for a, b in zip(p, q))
                  + sum(b * np.log(b / a) for a, b in zip(p, q)))


def _wasserstein_oracle(x, y):
    xs, ys = np.sort(x), np.sort(y)
    pts = np.sort(np.concatenate([xs, ys]))
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        fx = np.searchsorted(xs, lo, side="right") / len(xs)
        fy = np.searchsorted(ys, lo, side="right") / len(ys)
        total += abs(fx - fy) * (hi - lo)
    return total


def _xcorr_oracle(x, y, max_lag):
    n = len(x)
    curve = []
    for ell in range(-max_lag, max_lag + 1):
        if ell >= 0:
            xs, ys = x[: n - ell], y[ell:]
        else:
            xs, ys = x[-ell:], y[: n + ell]
        curve.append(np.corrcoef(xs, ys)[0, 1])
    return np.array(curve)


def test_criterion_1_metric_oracles():
    """Each metric matches its brute-force oracle on 100 seeded fixtures."""
    t0 = time.monotonic()
    worst = {"pearson": 0.0, "jeffrey": 0.0, "wasserstein": 0.0,
             "xcorr": 0.0, "ber": 0.0}
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(120, 400))
        x = rng.normal(size=n)
        y = 0.4 * x + rng.normal(size=n)
        worst["pearson"] = max(worst["pearson"],
                               abs(pearson(x, y) - _pearson_oracle(list(x), list(y))))
        cfg = DivergenceConfig(bins=32, epsilon=1e-9)
        worst["jeffrey"] = max(worst["jeffrey"],
                               abs(jeffrey_divergence(x, y, cfg)
                                   - _jeffrey_oracle(x, y, 32, 1e-9)))
        m = int(rng.integers(50, 300))
        z = rng.normal(0.3, 1.2, size=m)
        worst["wasserstein"] = max(worst["wasserstein"],
                                   abs(wasserstein_1d(x, z) - _wasserstein_oracle(x, z)))
        est = xcorr_lag(x, y, 20)
        worst["xcorr"] = max(worst["xcorr"],
                             float(np.max(np.abs(est.curve - _xcorr_oracle(x, y, 20)))))
        a = rng.integers(0, 2, 200)
        b = rng.integers(0, 2, 200)
        want = sum(int(u != v) for u, v in zip(a, b)) / 200
        worst["ber"] = max(worst["ber"], abs(ber(a, b) - want))
    dt = time.monotonic() - t0
    ok = (worst["pearson"] <= 1e-12 and worst["ber"] <= 1e-12
          and worst["jeffrey"] <= 1e-9 and worst["wasserstein"] <= 1e-9
          and worst["xcorr"] <= 1e-9 and dt < 10)
    record(1, ok, f"max oracle gaps {worst}, runtime {dt:.1f}s (<10s)")


def test_criterion_2_lag_recovery():
    """Injected shifts in [-50, 50] recovered exactly in 500/500 trials."""
    t0 = time.monotonic()
    fails = 0
    for trial in range(500):
        k = (trial % 101) - 50
        rng = np.random.default_rng(trial)
        base = ou_process(1100, 0.1, 1.0, rng)
        x = base[50:1050]
        y = base[50 - k:1050 - k]
        sigma = 10 ** (-20 / 20)  # 20 dB
        x = x + sigma * rng.standard_normal(1000)
        y = y + sigma * rng.standard_normal(1000)
        fails += xcorr_lag(x, y, 50).lag != k
    dt = time.monotonic() - t0
    ok = fails == 0 and dt < 30
    record(2, ok, f"{500 - fails}/500 exact recoveries, runtime {dt:.1f}s (<30s)")


def test_criterion_3_cwt_round_trip():
    """Relative L2 error of icwt(cwt(x)) <= 5% on 50 band-limited fixtures."""
    errs = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1500, 4000))
        t = np.arange(n) / 10.0
        fk = rng.uniform(0.05, 0.8, 12)
        amp = rng.normal(size=12)
        ph = rng.uniform(0, 2 * np.pi, 12)
        x = (amp[:, None] * np.cos(2 * np.pi * fk[:, None] * t + ph[:, None])).sum(axis=0)
        params = default_params(n, 10.0)
        xr = icwt(cwt(x, params))
        errs.append(np.linalg.norm(xr - x) / np.linalg.norm(x))
    ok = max(errs) <= 0.05
    record(3, ok, f"worst round-trip relative L2 error {max(errs):.4f} (<=0.05)")


def _loss_pair(n_drop, seed, events=None, duration=1500.0):
    events = events if events is not None else (
        (LossEvent("sta", 840.0, n_drop),) if n_drop else ())
    cfg = ChannelConfig(duration_s=duration, rate_hz=5.0, snr_db=20.0,
                        base_band=(0.05, 0.8), lag_samples=0,
                        loss=events, seed=seed)
    ap, sta, _ = gen_pair(cfg)
    a, b = pair_traces(ap, sta, 6, gap_policy="interpolate_linear")
    params = default_params(len(a.values), 5.0)
    return wavelet_coherence(a.values, b.values, params)


def test_criterion_4_packet_loss_quantification():
    """Detected low-coherence widths track dropped-packet counts at 5 pkt/s."""
    details = []
    ok = True
    for n_drop in (300, 900, 1500):
        cmap = _loss_pair(n_drop, seed=n_drop)
        gaps = [g for g in coherent_gap_width(cmap, (0.06, 1.5), 0.3) if g[1] > 10]
        total = sum(w for _, w in gaps)
        want = n_drop / 5.0
        ok &= 0.8 * want <= total <= 1.2 * want
        details.append(f"{n_drop}pk->{total:.0f}s(want {want:.0f})")
    # no-loss control: nothing wider than 30 s
    cmap = _loss_pair(0, seed=1)
    widths = [w for _, w in coherent_gap_width(cmap, (0.06, 1.5), 0.3)]
    ok &= (max(widths) if widths else 0.0) <= 30.0
    details.append(f"no-loss max {max(widths) if widths else 0:.0f}s(<=30)")
    # two drops of 600 at minutes 5 and 14: two gaps of equal width +/-20%
    cmap = _loss_pair(None, seed=2, events=(LossEvent("sta", 300.0, 600),
                                            LossEvent("sta", 840.0, 600)))
    gaps = [g for g in coherent_gap_width(cmap, (0.06, 1.5), 0.3) if g[1] > 30]
    two_ok = len(gaps) == 2
    if two_ok:
        w1, w2 = gaps[0][1], gaps[1][1]
        two_ok = abs(w1 - w2) <= 0.2 * max(w1, w2)
        details.append(f"two-gap widths {w1:.0f}s/{w2:.0f}s")
    else:
        details.append(f"two-gap case found {len(gaps)} gaps")
    ok &= two_ok
    record(4, ok, "; ".join(details))


@cache
def _acceptance_pair(name, seed, duration):
    """The preset's subcarrier-6 pair, losses interpolated: read-only series, built once per
    exact (name, seed, duration), since criteria 6 and 8 read the same 40 pairs."""
    ap, sta, _ = gen_pair(preset(name, duration_s=duration, seed=seed))
    return pair_traces(ap, sta, 6, gap_policy="interpolate_linear")


def test_criterion_5_reciprocity_enhancement():
    """wt+sync beats raw (>=95%) and golay/fft (>=80%) in pearson, 100 seeds."""
    wins_raw = wins_golay = wins_fft = 0
    trials = 100
    for seed in range(trials):
        a, b = _acceptance_pair("reciprocal", seed, 300.0)

        def rho(pipeline, sync):
            pre = preprocess_pair(a, b, SessionConfig(pipeline=pipeline, sync=sync))
            return pearson(pre.x, pre.y)

        p_wt = rho("wt", True)
        wins_raw += p_wt > rho("raw", False)
        wins_golay += p_wt > rho("golay", True)
        wins_fft += p_wt > rho("fft", True)
    ok = wins_raw >= 95 and wins_golay >= 80 and wins_fft >= 80
    record(5, ok, f"wt+sync beats raw {wins_raw}/100 (>=95), "
                  f"golay {wins_golay}/100 (>=80), fft {wins_fft}/100 (>=80)")


def test_criterion_6_key_generation_ordering():
    """kgr(wt+sync) > kgr(golay+sync) > kgr(raw) at theta=15 per preset.

    The BER clause compares the always-defined overall BER (averaged over
    all generated keys); per-threshold mean BER is compared too whenever
    both sides accepted at least one key.
    """
    t0 = time.monotonic()
    details = []
    ok = True
    ratios = []
    for name in ("los-short", "nlos-short", "nlos-long"):
        ok_kgr = ok_ber = 0
        trials = 50
        for seed in range(trials):
            a, b = _acceptance_pair(name, seed, 600.0)
            r_wt = wskg_session(a, b, SessionConfig(pipeline="wt", sync=True))
            r_g = wskg_session(a, b, SessionConfig(pipeline="golay", sync=True))
            r_r = wskg_session(a, b, SessionConfig(pipeline="raw", sync=False))
            k_wt, k_g, k_r = (r.stats_at(15).kgr for r in (r_wt, r_g, r_r))
            ok_kgr += k_wt > k_g > k_r
            better_overall = r_wt.overall_ber < r_r.overall_ber
            m_wt = r_wt.stats_at(15).mean_ber
            m_r = r_r.stats_at(15).mean_ber
            if m_wt is not None and m_r is not None:
                better_overall &= m_wt < m_r
            ok_ber += better_overall
            if name == "los-short" and k_g > 0:
                ratios.append(k_wt / k_g)
        ok &= ok_kgr >= 0.9 * trials and ok_ber >= 0.9 * trials
        details.append(f"{name}: kgr order {ok_kgr}/{trials}, ber {ok_ber}/{trials}")
    dt = time.monotonic() - t0
    ok &= dt < 300
    details.append(f"LoS kgr ratio wt/golay {np.mean(ratios):.2f} (reported, not gated)")
    details.append(f"runtime {dt:.0f}s (<300s)")
    record(6, ok, "; ".join(details))


def test_criterion_7_quantizer_invariants():
    """Histogram uniformity, Gray adjacency, KGR monotonicity, random BER."""
    ok = True
    details = []
    # uniform level histogram +/-1 on own-block thresholds
    worst_dev = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(100, 500))
        block = rng.normal(size=n)
        lv = quantize(block, cdf_thresholds(block, 4))
        counts = np.bincount(lv, minlength=4)
        worst_dev = max(worst_dev, float(np.max(np.abs(counts - n / 4))))
    ok &= worst_dev <= 1.0
    details.append(f"histogram dev {worst_dev:.2f} (<=1)")
    # Gray adjacency exact
    adj = all(
        int(np.sum(gray_encode([k], lv) != gray_encode([k + 1], lv))) == 1
        for lv in (2, 4, 8, 16) for k in range(lv - 1)
    )
    ok &= adj
    details.append(f"gray adjacency {'exact' if adj else 'violated'}")
    # KGR monotone in theta
    mono = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        ka, kb = [], []
        for i in range(30):
            bits = rng.integers(0, 2, 200).astype(np.uint8)
            noisy = bits.copy()
            flips = rng.choice(200, size=int(rng.integers(0, 40)), replace=False)
            noisy[flips] ^= 1
            ka.append(KeyBlock(i, np.zeros(100), bits))
            kb.append(KeyBlock(i, np.zeros(100), noisy))
        rep = evaluate(ka, kb, 3000, thresholds=(5, 15, 20))
        kgrs = [st.kgr for st in rep.per_threshold]
        mono &= kgrs == sorted(kgrs)
    ok &= mono
    details.append(f"kgr monotone in theta: {mono}")
    # independent inputs -> overall BER 0.5 +/- 0.05 over >= 20 blocks
    rng = np.random.default_rng(123)
    xa = rng.normal(size=2500)
    xb = rng.normal(size=2500)
    keys_a, _ = make_keys(xa, 100, 4)
    keys_b, _ = make_keys(xb, 100, 4)
    rep = evaluate(keys_a, keys_b, 2500, thresholds=(20,))
    ok &= rep.blocks >= 20 and abs(rep.overall_ber - 0.5) <= 0.05
    details.append(f"independent overall_ber {rep.overall_ber:.3f} "
                   f"over {rep.blocks} blocks (0.5 +/- 0.05)")
    record(7, ok, "; ".join(details))


def test_criterion_8_sync_benefit():
    """kgr(sync on) >= kgr(sync off) for every pipeline on lagged presets."""
    ok = True
    details = []
    pipes = ("raw", "golay", "fft", "wpt", "wt")
    trials = 20
    for name in ("nlos-short", "nlos-long"):
        wins = dict.fromkeys(pipes, 0)
        for seed in range(trials):
            a, b = _acceptance_pair(name, seed, 600.0)
            for pipe in pipes:
                k_on = wskg_session(a, b, SessionConfig(pipeline=pipe, sync=True)
                                    ).stats_at(15).kgr
                k_off = wskg_session(a, b, SessionConfig(pipeline=pipe, sync=False)
                                     ).stats_at(15).kgr
                wins[pipe] += k_on >= k_off
        for pipe in pipes:
            ok &= wins[pipe] >= 0.9 * trials
            details.append(f"{name}/{pipe} {wins[pipe]}/{trials}")
    record(8, ok, "; ".join(details))


def test_criterion_9_replay_detection():
    """0 false accepts, <=2 false rejects over 200+200 trials; separation."""
    t0 = time.monotonic()
    policy = AuthPolicy(min_corr=0.4, max_shift=50)
    key = b"acceptance-identity-key"
    false_accepts = false_rejects = 0
    legit_corrs, replay_corrs = [], []
    for seed in range(200):
        x, y, fresh = auth_trial(seed)
        d = run_handshake(x, y, policy, key)
        legit_corrs.append(d.corr)
        false_rejects += not d.accepted
        d = replay_attack(x, sign_csi(y, key), fresh, policy, key)
        replay_corrs.append(abs(d.corr))
        false_accepts += d.accepted
    dt = time.monotonic() - t0
    mean_legit = float(np.mean(legit_corrs))
    mean_replay = float(np.mean(replay_corrs))
    ok = (false_accepts == 0 and false_rejects <= 2
          and mean_legit >= 0.6 and mean_replay <= 0.2 and dt < 60)
    record(9, ok, f"false accepts {false_accepts} (=0), false rejects "
                  f"{false_rejects} (<=2), mean legit corr {mean_legit:.2f} "
                  f"(>=0.6), mean |replay corr| {mean_replay:.2f} (<=0.2), "
                  f"runtime {dt:.0f}s (<60s)")


def test_criterion_10_determinism_round_trip(tmp_path):
    """(config, seed) -> byte-identical CSVs; simulate->parse is lossless."""
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        rc = cli_main(["simulate", "--preset", "nlos-short", "--duration",
                       "120", "--seed", "17", "--out-dir", str(d)])
        assert rc == 0
    identical = ((a / "ap.csv").read_bytes() == (b / "ap.csv").read_bytes()
                 and (a / "sta.csv").read_bytes() == (b / "sta.csv").read_bytes())
    text = (a / "sta.csv").read_text()
    reparsed = parse_csi_csv(text)
    lossless = write_csi_csv(reparsed) == text
    cfg = ChannelConfig(duration_s=30.0, seed=99,
                        loss=(LossEvent("ap", 10.0, 5),))
    ap, sta, truth = gen_pair(cfg)
    out = write_csi_csv(ap)
    lossless &= write_csi_csv(parse_csi_csv(out)) == out
    lossless &= list(parse_csi_csv(out).missing_seqs()) == truth["dropped_seqs"]["ap"]
    ok = identical and lossless
    record(10, ok, f"byte-identical reruns: {identical}; "
                   f"simulate->parse->serialize lossless: {lossless}")
