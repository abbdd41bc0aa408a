"""The three benchmark workloads and the fixed-seed quality pass.

Each workload builds one op's input from an op seed (untimed), runs the
op (timed by the caller) and checks the op's output (untimed).  A check
returns None when the output is right, or a one-line reason when not;
``diagnose`` gives per-op figures that are reported but never fail an op.

Library functions are always reached through their module
(``chansim.gen_pair``, never a bare ``gen_pair``), so the tracer's
wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from statistics import fmean

from csirecip import authsim, chansim, cli, keygen, traces

PIPELINES = ("raw", "golay", "fft", "wpt", "wt")
SUBCARRIER = 6
AUTH_KEY = b"benchmark-identity-key"
AUTH_POLICY = authsim.AuthPolicy(min_corr=0.4, max_shift=50)

# fixed seed sets of the quality pass, so its metrics repeat exactly; on
# each keygen seed the agreed lag equals the injected lag at the baseline
QUALITY_KEYGEN_SEEDS = (0, 1, 2)
QUALITY_AUTH_SEEDS = tuple(range(10))


class KeygenCompare:
    """``csirecip keygen`` comparison: five pipelines, sync on, one pair."""

    name = "keygen-compare"
    configs = tuple(keygen.SessionConfig(pipeline=p, sync=True) for p in PIPELINES)

    @staticmethod
    def make_input(seed: int):
        cfg = chansim.preset("nlos-long", duration_s=600.0, seed=seed)
        ap, sta, truth = chansim.gen_pair(cfg)
        a, b = traces.pair_traces(ap, sta, SUBCARRIER, "interpolate_linear")
        return a, b, truth["lag"]

    def run(self, inp):
        a, b, _lag = inp
        return [keygen.wskg_session(a, b, cfg) for cfg in self.configs]

    @staticmethod
    def check(inp, reports) -> str | None:
        # The probe agreement is shared by all pipelines, so they must agree
        # on one lag.  At this preset's 8 dB SNR the 500-sample probe puts it
        # one sample off the injected lag for about 4% of seeds; further off
        # is a failure.  The exact share is reported with the run.
        lag = inp[2]
        lags = {r.lag for r in reports}
        if len(lags) != 1 or abs(lags.pop() - lag) > 1:
            return f"agreed lags {[r.lag for r in reports]} vs injected lag {lag}"
        for r in reports:
            if r.blocks <= 0:
                return f"{r.pipeline}: no key blocks"
            if r.overall_ber is None or not 0.0 <= r.overall_ber <= 1.0:
                return f"{r.pipeline}: overall BER {r.overall_ber} outside [0, 1]"
        return None

    @staticmethod
    def diagnose(inp, reports) -> dict[str, float]:
        return {"lag_exact_ratio": float(reports[0].lag == inp[2])}


class DatasetIngest:
    """``csirecip simulate`` then ``csirecip keygen`` on the written CSVs."""

    name = "dataset-ingest"

    def __init__(self, workdir: Path):
        self.dir = workdir

    @staticmethod
    def make_input(seed: int):
        return seed

    def run(self, seed: int):
        d = str(self.dir)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc_sim = cli.main(["simulate", "--preset", "nlos-long", "--duration", "300",
                               "--seed", str(seed), "--out-dir", d])
            rc_keygen = cli.main(["keygen", "--ap", f"{d}/ap.csv", "--sta", f"{d}/sta.csv",
                                  "--pipelines", "raw", "--out-dir", d])
        return rc_sim, rc_keygen, err.getvalue().strip()

    @staticmethod
    def diagnose(seed: int, out) -> dict[str, float]:
        return {}

    def check(self, seed: int, out) -> str | None:
        rc_sim, rc_keygen, err = out
        if rc_sim != 0 or rc_keygen != 0:
            return f"exit codes simulate={rc_sim} keygen={rc_keygen}: {err}"
        # one file per op, chosen by seed parity, keeps the check at a third
        # of the op's cost; across a run both files are checked about 50 times
        side = ("ap", "sta")[seed % 2]
        raw = (self.dir / f"{side}.csv").read_bytes()
        trace = traces.parse_csi_csv(raw)
        if traces.write_csi_csv(trace).encode() != raw:
            return f"{side}.csv: write(parse(file)) differs from the file"
        truth = json.loads((self.dir / "truth.json").read_text())
        seqs = trace.seqs
        dropped = [s for s in truth["dropped_seqs"][side] if seqs[0] < s < seqs[-1]]
        if trace.missing_seqs().tolist() != dropped:
            return f"{side}.csv: missing seqs differ from truth.json"
        return None


class ReplayAuth:
    """One criterion-9 trial: legitimate handshake, then an independent replay."""

    name = "replay-auth"

    @staticmethod
    def make_input(seed: int):
        return seed

    @staticmethod
    def run(seed: int):
        cfg = chansim.ChannelConfig(duration_s=60.0, snr_db=15.0, lag_samples=1, seed=seed)
        ap, sta, _truth = chansim.gen_pair(cfg)
        x = traces.magnitude_series(ap, SUBCARRIER).values
        y = traces.magnitude_series(sta, SUBCARRIER).values
        legit = authsim.run_handshake(x, y, AUTH_POLICY, AUTH_KEY)
        attacker = chansim.gen_attacker(cfg, "independent")
        fresh = traces.magnitude_series(attacker, SUBCARRIER).values
        replay = authsim.replay_attack(x, authsim.sign_csi(y, AUTH_KEY), fresh,
                                       AUTH_POLICY, AUTH_KEY)
        return legit, replay

    @staticmethod
    def check(seed: int, decisions) -> str | None:
        # wrong decisions are scored by auth_accuracy, not counted as failed ops
        for d in decisions:
            if d.accepted != (d.reason is authsim.Reason.OK):
                return f"decision accepted={d.accepted} with reason {d.reason.value}"
            if not -1.0 <= d.corr <= 1.0 or d.shift < 0:
                return f"decision corr={d.corr} shift={d.shift} out of range"
        return None

    @staticmethod
    def diagnose(seed: int, decisions) -> dict[str, float]:
        return {"auth_error_ratio": auth_errors(decisions) / 2}


def make(name: str, workdir: Path):
    if name == KeygenCompare.name:
        return KeygenCompare()
    if name == DatasetIngest.name:
        return DatasetIngest(workdir)
    if name == ReplayAuth.name:
        return ReplayAuth()
    raise ValueError(f"unknown workload {name!r}")


def auth_errors(decisions) -> int:
    legit, replay = decisions
    return int(not legit.accepted) + int(replay.accepted)


def quality() -> dict:
    """Key quality of wt+sync and replay-detection errors on fixed seeds.

    ``lag_errors`` lists the keygen seeds whose agreed lag is not the
    injected lag.  Unlike the per-op check it allows no one-sample slip,
    so a change that moves the lag on every seed fails the run.
    """
    wt = keygen.SessionConfig(pipeline="wt", sync=True)
    reports, lag_errors = [], []
    for s in QUALITY_KEYGEN_SEEDS:
        a, b, lag = KeygenCompare.make_input(s)
        reports.append(keygen.wskg_session(a, b, wt))
        if reports[-1].lag != lag:
            lag_errors.append(s)
    errors = sum(auth_errors(ReplayAuth.run(s)) for s in QUALITY_AUTH_SEEDS)
    decisions = 2 * len(QUALITY_AUTH_SEEDS)
    return {
        "kgr_wt_t15": fmean(r.stats_at(15).kgr for r in reports),
        "ber_wt": fmean(r.overall_ber for r in reports),
        "auth_accuracy": 1.0 - errors / decisions,
        "auth_error_ratio": errors / decisions,
        "lag_errors": lag_errors,
    }
