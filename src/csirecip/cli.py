"""Command-line front end.

Subcommands wire simulation/ingestion into metrics, reconstruction, key
generation, and authentication experiments with machine-readable JSON/CSV
reports.  Every run is determined by (config, seed); reports embed the
resolved configuration for provenance.

Config files are INI-style; section.key values provide defaults and
command-line flags win.  Exit codes: 0 success, 1 usage error, 2 data
error.  ``CSIRECIP_OUT_DIR`` sets the default output directory.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import authsim, chansim, keygen
from .authsim import AuthPolicy, replay_attack, run_handshake, sign_csi
from .errors import CsiRecipError
from .keygen import PIPELINES, SessionConfig, preprocess_pair, wskg_session
from .metrics import DivergenceConfig, jeffrey_divergence, pearson, wasserstein_1d, xcorr_lag
from .traces import magnitude_series, pair_traces, parse_csi_csv, write_csi_csv
from .wavelet import coherence_summary, default_params, wavelet_coherence

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _UsageError(Exception):
    """A flag combination the command cannot run with (exit code 1)."""


def _out_dir(args) -> Path:
    d = Path(args.out_dir or os.environ.get("CSIRECIP_OUT_DIR", "."))
    d.mkdir(parents=True, exist_ok=True)
    return d


def _load_config(path: str | None) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    if path:
        if not Path(path).exists():
            raise FileNotFoundError(f"config file not found: {path}")
        cp.read(path)
    return cp


# INI section.key -> (flag that overrides it, default, type)
_OPTIONS = {
    ("input", "preset"): ("preset", "los-short", str),
    ("input", "duration_s"): ("duration", 600.0, float),
    ("input", "seed"): ("seed", 0, int),
    ("input", "ap"): ("ap", None, str),
    ("input", "sta"): ("sta", None, str),
    ("input", "subcarrier"): ("subcarrier", 6, int),
    ("pipelines", "pipeline"): ("pipeline", SessionConfig.pipeline, str),
    ("pipelines", "list"): ("pipelines", ",".join(PIPELINES), str),
    ("pipelines", "thresholds"): ("thresholds",
                                  ",".join(map(str, SessionConfig.error_thresholds)), str),
    ("auth", "trials"): ("trials", 12, int),
    ("auth", "seed"): ("seed", 0, int),
    ("auth", "min_corr"): ("min_corr", AuthPolicy.min_corr, float),
    ("auth", "max_shift"): ("max_shift", AuthPolicy.max_shift, int),
}


def _opt(args, cp, section: str, key: str):
    """Resolve one setting: the flag if given, else the INI value, else the default."""
    flag, default, kind = _OPTIONS[section, key]
    value = getattr(args, flag)
    if value is None:
        value = cp.get(section, key, fallback=default)
    return None if value is None else kind(value)


def _channel_config(args, cp) -> chansim.ChannelConfig:
    preset = _opt(args, cp, "input", "preset")
    duration = _opt(args, cp, "input", "duration_s")
    seed = _opt(args, cp, "input", "seed")
    overrides = {}
    if args.snr_db is not None:
        overrides["snr_db"] = args.snr_db
    if args.lag is not None:
        overrides["lag_samples"] = args.lag
    return chansim.preset(preset, duration_s=duration, seed=seed, **overrides)


_SIMULATION_FLAGS = ("preset", "seed", "duration", "snr_db", "lag")  # unread in dataset mode


def _load_pair(args, cp):
    """Either simulate a pair or parse the two dataset CSVs."""
    ap_path = _opt(args, cp, "input", "ap")
    sta_path = _opt(args, cp, "input", "sta")
    if bool(ap_path) != bool(sta_path):
        given, missing = ("ap", "sta") if ap_path else ("sta", "ap")
        raise _UsageError(f"--{given} needs --{missing} (or [input] {missing}) as well")
    if ap_path:
        ignored = [f"--{name.replace('_', '-')}" for name in _SIMULATION_FLAGS
                   if getattr(args, name) is not None]
        if ignored:
            raise _UsageError(f"{', '.join(ignored)} cannot be used with --ap/--sta")
        with open(ap_path, "rb") as f:
            ap = parse_csi_csv(f)
        with open(sta_path, "rb") as f:
            sta = parse_csi_csv(f)
        resolved = {"input": {"ap": str(ap_path), "sta": str(sta_path)}}
        return ap, sta, resolved
    cfg = _channel_config(args, cp)
    ap, sta, _truth = chansim.gen_pair(cfg)
    resolved = {"input": {"simulate": asdict(cfg)}}
    return ap, sta, resolved


def _dumps(obj) -> str:
    """Indented JSON; numpy scalars and arrays become Python values."""
    return json.dumps(obj, indent=2, default=lambda o: o.tolist())


# --- subcommands ---

def cmd_simulate(args, cp) -> int:
    cfg = _channel_config(args, cp)
    ap, sta, truth = chansim.gen_pair(cfg)
    out = _out_dir(args)
    for trace, name in ((ap, "ap"), (sta, "sta")):
        with open(out / f"{name}.csv", "w", newline="") as f:
            write_csi_csv(trace, f)
    truth["config"] = asdict(cfg)
    (out / "truth.json").write_text(_dumps(truth))
    print(f"wrote {out}/ap.csv, {out}/sta.csv, {out}/truth.json")
    return EXIT_OK


def cmd_metrics(args, cp) -> int:
    ap, sta, resolved = _load_pair(args, cp)
    sub = _opt(args, cp, "input", "subcarrier")
    m_ap, m_sta = pair_traces(ap, sta, sub, gap_policy="drop_both")
    i_ap, i_sta = pair_traces(ap, sta, sub, gap_policy="interpolate_linear")
    x, y = m_ap.values, m_sta.values
    max_lag = min(200, (len(x) - 1) // 2)
    est = xcorr_lag(x, y, max_lag)
    params = default_params(len(i_ap.values), i_ap.rate_hz)
    cmap = wavelet_coherence(i_ap.values, i_sta.values, params)
    report = {
        "config": resolved,
        "subcarrier": sub,
        "n_paired_samples": len(x),
        "pearson": pearson(x, y),
        "jeffrey_divergence": jeffrey_divergence(x, y, DivergenceConfig()),
        "wasserstein": wasserstein_1d(x, y),
        "lag_estimate": {
            "lag": est.lag,
            "peak_corr": est.peak_corr,
            "max_lag": est.max_lag,
        },
        "wc_summary": coherence_summary(cmap),
    }
    text = _dumps(report)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return EXIT_OK


def cmd_reconstruct(args, cp) -> int:
    pipeline = _opt(args, cp, "pipelines", "pipeline")
    if pipeline not in PIPELINES:
        raise _UsageError(f"unknown pipeline {pipeline!r}")
    ap, sta, resolved = _load_pair(args, cp)
    sub = _opt(args, cp, "input", "subcarrier")
    i_ap, i_sta = pair_traces(ap, sta, sub, gap_policy="interpolate_linear")
    sync = not args.no_sync
    scfg = SessionConfig(pipeline=pipeline, sync=sync)
    pre = preprocess_pair(i_ap, i_sta, scfg)
    out = _out_dir(args)
    path = out / f"reconstructed_{pipeline}.csv"
    # AP seq of each row; a negative agreed lag drops |lag| leading AP samples
    start = keygen.PROBE_LEN + (max(-pre.lag, 0) if sync else 0)
    seqs = i_ap.seqs[start:start + len(pre.x)]
    with open(path, "w", newline="") as f:
        f.write("seq,ap,sta\n")
        for s, va, vs in zip(seqs, pre.x, pre.y):
            f.write(f"{s},{float(va)!r},{float(vs)!r}\n")
    meta = {
        "config": resolved,
        "pipeline": pipeline,
        "sync": sync,
        "lag": pre.lag,
        "band_hz": list(pre.band.band),
        "alpha": pre.band.alpha,
        "beta": pre.band.beta,
        "pearson_before": pearson(i_ap.values, i_sta.values),
        "pearson_after": pearson(pre.x, pre.y),
    }
    (out / f"reconstructed_{pipeline}.json").write_text(_dumps(meta))
    print(f"wrote {path}")
    return EXIT_OK


def cmd_keygen(args, cp) -> int:
    pipelines = [p.strip() for p in _opt(args, cp, "pipelines", "list").split(",")]
    unknown = [p for p in pipelines if p not in PIPELINES]
    if unknown:  # before any session writes its output
        raise _UsageError(f"unknown pipeline {unknown[0]!r}")
    ap, sta, resolved = _load_pair(args, cp)
    sub = _opt(args, cp, "input", "subcarrier")
    i_ap, i_sta = pair_traces(ap, sta, sub, gap_policy="interpolate_linear")
    thresholds = tuple(int(t) for t in _opt(args, cp, "pipelines", "thresholds").split(","))
    sync = not args.no_sync
    out = _out_dir(args)
    rows = []
    scenario = "dataset" if "ap" in resolved["input"] else _opt(args, cp, "input", "preset")
    for pipe in pipelines:
        scfg = SessionConfig(pipeline=pipe, sync=sync, error_thresholds=thresholds)
        report = wskg_session(i_ap, i_sta, scfg)
        payload = report.to_dict()
        payload["config"] = resolved
        (out / f"session_{pipe}.json").write_text(_dumps(payload))
        for st in report.per_threshold:
            rows.append((pipe, scenario, st.error_threshold, st.kgr,
                         st.mean_ber, report.overall_ber))
    csv_path = out / "keygen_comparison.csv"
    with open(csv_path, "w", newline="") as f:
        f.write("pipeline,scenario,theta,kgr,mean_ber,overall_ber\n")
        for pipe, scen, theta, kgr, mber, ober in rows:
            mb = "" if mber is None else repr(mber)
            ob = "" if ober is None else repr(ober)
            f.write(f"{pipe},{scen},{theta},{kgr!r},{mb},{ob}\n")
    print(f"wrote {csv_path} and per-pipeline session JSON")
    return EXIT_OK


def cmd_auth(args, cp) -> int:
    trials = _opt(args, cp, "auth", "trials")
    seed = _opt(args, cp, "auth", "seed")
    policy = AuthPolicy(min_corr=_opt(args, cp, "auth", "min_corr"),
                        max_shift=_opt(args, cp, "auth", "max_shift"))
    key = b"csirecip-demo-identity-key"
    preset = _opt(args, cp, "input", "preset")
    duration = authsim.PROBE_LEN / 10.0
    decisions = []
    confusion = {"legit_accept": 0, "legit_reject": 0,
                 "replay_accept": 0, "replay_reject": 0}
    for i in range(trials):
        cfg = chansim.preset(preset, duration_s=duration, seed=seed + i,
                             snr_db=15.0, lag_samples=1)
        ap, sta, _ = chansim.gen_pair(cfg)
        x = magnitude_series(ap, 6).values
        y = magnitude_series(sta, 6).values
        d = run_handshake(x, y, policy, key)
        confusion["legit_accept" if d.accepted else "legit_reject"] += 1
        decisions.append({"trial": i, "kind": "legitimate", **d.to_dict()})

        attacker = chansim.gen_attacker(cfg, mode="independent")
        fresh = magnitude_series(attacker, 6).values
        s3 = sign_csi(y, key)
        d = replay_attack(x, s3, fresh, policy, key)
        confusion["replay_accept" if d.accepted else "replay_reject"] += 1
        decisions.append({"trial": i, "kind": "replay", **d.to_dict()})
    out = _out_dir(args)
    payload = {
        "policy": {"min_corr": policy.min_corr, "max_shift": policy.max_shift,
                   "probe_len": authsim.PROBE_LEN},
        "preset": preset,
        "trials": trials,
        "confusion": confusion,
        "decisions": decisions,
    }
    (out / "auth_decisions.json").write_text(_dumps(payload))
    print(_dumps(confusion))
    return EXIT_OK


def cmd_report(args, cp) -> int:
    """Aggregate session JSON files into one comparison CSV."""
    src = Path(args.sessions_dir)
    files = sorted(src.glob("session_*.json"))
    if not files:
        print(f"no session_*.json under {src}", file=sys.stderr)
        return EXIT_DATA
    out = _out_dir(args)
    csv_path = out / "report.csv"
    with open(csv_path, "w", newline="") as f:
        f.write("pipeline,sync,theta,kgr,mean_ber,overall_ber,blocks,lag\n")
        for path in files:
            d = json.loads(path.read_text())
            for st in d["per_threshold"]:
                mb = "" if st["mean_ber"] is None else repr(st["mean_ber"])
                ob = "" if d["overall_ber"] is None else repr(d["overall_ber"])
                f.write(
                    f"{d['pipeline']},{d['sync']},{st['error_threshold']},"
                    f"{st['kgr']!r},{mb},{ob},{d['blocks']},{d['lag']}\n"
                )
    print(f"wrote {csv_path}")
    return EXIT_OK


def _flag_groups():
    """Parent parsers for the shared, channel and dataset flag groups."""
    shared, channel, dataset = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    shared.add_argument("--config", help="INI config file; flags override it")
    shared.add_argument("--out-dir", help="output directory (or $CSIRECIP_OUT_DIR)")
    shared.add_argument("--preset", help="chansim scenario preset")
    shared.add_argument("--seed", type=int, help="simulation seed")
    channel.add_argument("--duration", type=float, help="simulated duration, seconds")
    channel.add_argument("--snr-db", type=float, help="override preset SNR")
    channel.add_argument("--lag", type=int, help="override preset lag, samples")
    dataset.add_argument("--ap", help="AP trace CSV (dataset mode)")
    dataset.add_argument("--sta", help="STA trace CSV (dataset mode)")
    dataset.add_argument("--subcarrier", type=int, help="subcarrier index (default 6)")
    return shared, channel, dataset


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="csirecip",
        description="Channel-reciprocity experiments on CSI traces",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    shared, channel, dataset = _flag_groups()
    pair = [shared, channel, dataset]

    p = sub.add_parser("simulate", parents=[shared, channel],
                       help="write a simulated AP/STA trace pair")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("metrics", parents=pair, help="reciprocity metrics for a trace pair")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("reconstruct", parents=pair, help="run one preprocessing pipeline")
    p.add_argument("--pipeline", choices=PIPELINES)
    p.add_argument("--no-sync", action="store_true", help="skip lag synchronization")
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("keygen", parents=pair, help="key-generation session comparison")
    p.add_argument("--pipelines", help="comma list, default raw,golay,fft,wpt,wt")
    p.add_argument("--thresholds", help="comma list of bit-error thresholds")
    p.add_argument("--no-sync", action="store_true", help="disable lag synchronization")
    p.set_defaults(fn=cmd_keygen)

    p = sub.add_parser("auth", parents=[shared], help="legitimate vs replay handshake trials")
    p.add_argument("--trials", type=int, help="trials per class (default 12)")
    p.add_argument("--min-corr", type=float, help="policy correlation floor")
    p.add_argument("--max-shift", type=int, help="policy shift ceiling")
    p.set_defaults(fn=cmd_auth)

    p = sub.add_parser("report", help="aggregate session JSONs into CSV")
    p.add_argument("sessions_dir", help="directory holding session_*.json")
    p.add_argument("--out-dir", help="output directory")
    p.add_argument("--config", help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_report)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        cp = _load_config(getattr(args, "config", None))
        return args.fn(args, cp)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (CsiRecipError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
