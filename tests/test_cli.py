import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csirecip
from csirecip import chansim
from csirecip.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from csirecip.keygen import PROBE_LEN
from csirecip.traces import pair_traces


def run(argv):
    return main(argv)


@pytest.fixture()
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    rc = run(["simulate", "--preset", "los-short", "--duration", "120",
              "--seed", "3", "--out-dir", str(out)])
    assert rc == EXIT_OK
    return out


class TestSimulate:
    def test_writes_files_and_truth(self, sim_dir):
        assert (sim_dir / "ap.csv").exists()
        assert (sim_dir / "sta.csv").exists()
        truth = json.loads((sim_dir / "truth.json").read_text())
        assert truth["lag"] == 2  # los-short preset
        header = (sim_dir / "ap.csv").read_text().split("\n", 1)[0]
        assert header.startswith("seq,t,dev,i0,q0")

    def test_seed_repetition_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert run(["simulate", "--preset", "nlos-long", "--duration", "60",
                        "--seed", "11", "--out-dir", str(d)]) == EXIT_OK
        assert (a / "ap.csv").read_bytes() == (b / "ap.csv").read_bytes()
        assert (a / "sta.csv").read_bytes() == (b / "sta.csv").read_bytes()

    def test_zero_duration_exits_2(self, tmp_path, capsys):
        rc = run(["simulate", "--duration", "0", "--out-dir", str(tmp_path)])
        assert rc == EXIT_DATA
        assert "duration_s" in capsys.readouterr().err
        assert not (tmp_path / "ap.csv").exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        # was numpy's bare "expected non-negative integer", naming neither flag nor value
        rc = run(["simulate", "--seed", "-1", "--duration", "5", "--out-dir", str(tmp_path)])
        assert rc == EXIT_DATA
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not (tmp_path / "ap.csv").exists()

    def test_lag_beyond_duration_exits_2(self, tmp_path, capsys):
        # a 1 s trace has 10 samples, so a lag of 10 leaves the devices no common sample
        rc = run(["simulate", "--duration", "1", "--lag", "10", "--out-dir", str(tmp_path)])
        assert rc == EXIT_DATA
        assert "|lag_samples| must be below the 10 samples of duration_s, got 10" in \
            capsys.readouterr().err
        assert not (tmp_path / "ap.csv").exists()

    def test_fractional_lag_is_usage_error(self, tmp_path, capsys):
        # --lag is read as an int, as --seed is: a fraction is a usage error naming the flag
        rc = run(["simulate", "--lag", "2.5", "--duration", "5", "--out-dir", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "--lag" in capsys.readouterr().err
        assert not (tmp_path / "ap.csv").exists()

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CSIRECIP_OUT_DIR", str(tmp_path / "envout"))
        assert run(["simulate", "--duration", "30", "--seed", "0"]) == EXIT_OK
        assert (tmp_path / "envout" / "ap.csv").exists()


class TestMetrics:
    def test_identical_inputs(self, sim_dir, tmp_path, capsys):
        rc = run(["metrics", "--ap", str(sim_dir / "ap.csv"),
                  "--sta", str(sim_dir / "ap.csv")])
        assert rc == EXIT_OK
        rep = json.loads(capsys.readouterr().out)
        assert rep["pearson"] == pytest.approx(1.0)
        assert rep["jeffrey_divergence"] == pytest.approx(0.0, abs=1e-9)
        assert rep["wasserstein"] == pytest.approx(0.0, abs=1e-12)
        assert rep["lag_estimate"]["lag"] == 0

    def test_simulated_lag_recovered(self, tmp_path, capsys):
        rc = run(["metrics", "--preset", "los-short", "--duration", "120",
                  "--seed", "5", "--lag", "7"])
        assert rc == EXIT_OK
        rep = json.loads(capsys.readouterr().out)
        assert rep["lag_estimate"]["lag"] == 7
        for k in ("pearson", "jeffrey_divergence", "wasserstein", "wc_summary"):
            assert k in rep

    def test_bad_path_exits_2(self, capsys):
        rc = run(["metrics", "--ap", "/nonexistent/a.csv",
                  "--sta", "/nonexistent/b.csv"])
        assert rc == EXIT_DATA

    @pytest.mark.parametrize("given, missing", [("ap", "sta"), ("sta", "ap")])
    def test_lone_dataset_path_is_usage_error(self, given, missing, capsys):
        rc = run(["metrics", f"--{given}", "/nonexistent/a.csv", "--duration", "60"])
        assert rc == EXIT_USAGE
        assert f"--{missing}" in capsys.readouterr().err

    def test_lone_dataset_path_from_ini(self, sim_dir, tmp_path, capsys):
        ini = tmp_path / "one.ini"
        ini.write_text(f"[input]\nap = {sim_dir / 'ap.csv'}\n")
        rc = run(["metrics", "--config", str(ini), "--duration", "60"])
        assert rc == EXIT_USAGE
        assert "--sta" in capsys.readouterr().err

    def test_directory_path_exits_2(self, tmp_path, capsys):
        rc = run(["metrics", "--ap", str(tmp_path), "--sta", str(tmp_path)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", [["--preset", "nlos-long"], ["--seed", "4"],
                                      ["--duration", "5"], ["--snr-db", "3"], ["--lag", "2"]])
    def test_simulation_flag_in_dataset_mode_is_usage_error(self, sim_dir, flag, capsys):
        rc = run(["metrics", "--ap", str(sim_dir / "ap.csv"), "--sta", str(sim_dir / "sta.csv"),
                  *flag])
        assert rc == EXIT_USAGE
        assert flag[0] in capsys.readouterr().err

    def test_out_file(self, sim_dir, tmp_path):
        dest = tmp_path / "m.json"
        rc = run(["metrics", "--ap", str(sim_dir / "ap.csv"),
                  "--sta", str(sim_dir / "sta.csv"), "--out", str(dest)])
        assert rc == EXIT_OK
        assert "pearson" in json.loads(dest.read_text())


class TestReconstruct:
    def test_writes_series_and_meta(self, tmp_path):
        out = tmp_path / "rec"
        rc = run(["reconstruct", "--preset", "nlos-short", "--duration", "150",
                  "--seed", "2", "--pipeline", "golay", "--out-dir", str(out)])
        assert rc == EXIT_OK
        lines = (out / "reconstructed_golay.csv").read_text().strip().split("\n")
        assert lines[0] == "seq,ap,sta"
        assert len(lines) > 500
        meta = json.loads((out / "reconstructed_golay.json").read_text())
        assert meta["pipeline"] == "golay"
        assert meta["sync"] is True
        assert "pearson_after" in meta

    @pytest.mark.parametrize("lag", [-5, 5])
    def test_seq_column_is_ap_seq(self, lag, tmp_path):
        rc = run(["reconstruct", "--preset", "los-short", "--lag", str(lag), "--duration",
                  "120", "--pipeline", "raw", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        cfg = chansim.preset("los-short", duration_s=120.0, seed=0, lag_samples=lag)
        ap, sta, _ = chansim.gen_pair(cfg)
        i_ap, i_sta = pair_traces(ap, sta, 6, gap_policy="interpolate_linear")
        assert json.loads((tmp_path / "reconstructed_raw.json").read_text())["lag"] == lag
        rows = np.loadtxt(tmp_path / "reconstructed_raw.csv", delimiter=",", skiprows=1)
        idx = rows[:, 0].astype(np.int64) - i_ap.seqs[0]
        assert idx[0] == PROBE_LEN + max(-lag, 0)
        np.testing.assert_array_equal(rows[:, 1], i_ap.values[idx])
        np.testing.assert_array_equal(rows[:, 2], i_sta.values[idx + lag])

    def test_no_sync_flag(self, tmp_path):
        rc = run(["reconstruct", "--preset", "nlos-short", "--duration", "100",
                  "--seed", "2", "--pipeline", "raw", "--no-sync", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        assert json.loads((tmp_path / "reconstructed_raw.json").read_text())["sync"] is False


class TestKeygen:
    def test_comparison_csv_cardinality(self, tmp_path):
        out = tmp_path / "kg"
        rc = run(["keygen", "--preset", "los-short", "--duration", "200",
                  "--seed", "1", "--pipelines", "raw,golay",
                  "--thresholds", "5,15,20", "--out-dir", str(out)])
        assert rc == EXIT_OK
        lines = (out / "keygen_comparison.csv").read_text().strip().split("\n")
        assert lines[0] == "pipeline,scenario,theta,kgr,mean_ber,overall_ber"
        assert len(lines) == 1 + 2 * 3  # one row per (pipeline, theta)
        assert (out / "session_raw.json").exists()
        assert (out / "session_golay.json").exists()

    def test_rerun_same_seed_identical_csv(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            rc = run(["keygen", "--preset", "nlos-short", "--duration", "200",
                      "--seed", "9", "--pipelines", "wt", "--out-dir", str(d)])
            assert rc == EXIT_OK
        assert (a / "keygen_comparison.csv").read_bytes() == \
               (b / "keygen_comparison.csv").read_bytes()

    def test_scenario_label_is_resolved_preset(self, tmp_path):
        # no --preset: the simulated scenario is the default preset
        rc = run(["keygen", "--duration", "200", "--seed", "1", "--pipelines", "raw",
                  "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        rows = (tmp_path / "keygen_comparison.csv").read_text().strip().split("\n")[1:]
        assert {r.split(",")[1] for r in rows} == {"los-short"}

    def test_scenario_label_dataset(self, sim_dir, tmp_path):
        rc = run(["keygen", "--ap", str(sim_dir / "ap.csv"), "--sta", str(sim_dir / "sta.csv"),
                  "--pipelines", "raw", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        rows = (tmp_path / "keygen_comparison.csv").read_text().strip().split("\n")[1:]
        assert {r.split(",")[1] for r in rows} == {"dataset"}

    def test_unknown_pipeline_usage_error(self, tmp_path):
        rc = run(["keygen", "--preset", "los-short", "--duration", "200",
                  "--pipelines", "magic", "--out-dir", str(tmp_path)])
        assert rc == EXIT_USAGE

    def test_unknown_pipeline_later_in_list_writes_nothing(self, tmp_path, capsys):
        # the list used to be checked one session at a time, after session_raw.json
        rc = run(["keygen", "--preset", "los-short", "--duration", "200",
                  "--pipelines", "raw,magic", "--out-dir", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "unknown pipeline 'magic'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["5,x", "", "5,,20"])
    def test_unparsable_thresholds_name_the_setting(self, tmp_path, capsys, value):
        # this used to print only int()'s "invalid literal ... 'x'"
        rc = run(["keygen", "--preset", "los-short", "--duration", "200",
                  "--thresholds", value, "--out-dir", str(tmp_path)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"error: pipelines.thresholds must be int list, got {value!r}\n"
        assert list(tmp_path.iterdir()) == []


class TestAuth:
    def test_confusion_table(self, tmp_path, capsys):
        out = tmp_path / "auth"
        rc = run(["auth", "--trials", "12", "--seed", "4", "--out-dir", str(out)])
        assert rc == EXIT_OK
        payload = json.loads((out / "auth_decisions.json").read_text())
        conf = payload["confusion"]
        assert conf["legit_accept"] + conf["legit_reject"] == 12
        assert conf["replay_accept"] + conf["replay_reject"] == 12
        # default policy separates the presets cleanly
        assert conf["legit_reject"] == 0
        assert conf["replay_accept"] == 0
        assert len(payload["decisions"]) == 24


class TestFlagGroups:
    @pytest.mark.parametrize("argv", [
        ["auth", "--subcarrier", "3"],
        ["auth", "--ap", "x.csv"],
        ["auth", "--duration", "5"],
        ["simulate", "--ap", "x.csv"],
        ["simulate", "--subcarrier", "3"],
    ])
    def test_unread_flag_is_usage_error(self, argv, tmp_path):
        assert run(argv + ["--out-dir", str(tmp_path)]) == EXIT_USAGE

    def test_negative_float_value_reaches_value_check(self, tmp_path, capsys):
        assert run(["auth", "--min-corr", "-1e-1", "--out-dir", str(tmp_path)]) == EXIT_DATA
        assert "min_corr" in capsys.readouterr().err


class TestReport:
    def test_aggregates_sessions(self, tmp_path):
        kg = tmp_path / "kg"
        run(["keygen", "--preset", "los-short", "--duration", "200",
             "--seed", "1", "--pipelines", "raw,wt", "--out-dir", str(kg)])
        rc = run(["report", str(kg), "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        lines = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert lines[0].startswith("pipeline,sync,theta")
        assert len(lines) == 1 + 2 * 3

    def test_empty_dir_exits_2(self, tmp_path):
        assert run(["report", str(tmp_path)]) == EXIT_DATA

    # a JSON list was a TypeError, a missing per_threshold a KeyError
    @pytest.mark.parametrize("content", [
        "[1, 2]",
        '{"pipeline": "raw", "sync": true, "overall_ber": 0.1, "blocks": 3, "lag": 0}',
        "{not json",
    ])
    def test_not_a_session_report_exits_2(self, tmp_path, capsys, content):
        bad = tmp_path / "session_raw.json"
        bad.write_text(content)
        rc = run(["report", str(tmp_path), "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert str(bad) in err
        assert not (tmp_path / "out").exists()


class TestConfigFile:
    def test_ini_defaults_with_flag_override(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[input]\npreset = nlos-short\nduration_s = 150\nseed = 21\n"
            "[pipelines]\nlist = raw\nthresholds = 15\n"
        )
        out = tmp_path / "out"
        rc = run(["keygen", "--config", str(ini), "--out-dir", str(out),
                  "--pipelines", "golay"])  # flag wins over ini list
        assert rc == EXIT_OK
        lines = (out / "keygen_comparison.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("golay,nlos-short,15,")

    def test_auth_section(self, tmp_path):
        ini = tmp_path / "auth.ini"
        ini.write_text("[auth]\ntrials = 1\nmin_corr = 0.5\nmax_shift = 20\n")
        rc = run(["auth", "--config", str(ini), "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        payload = json.loads((tmp_path / "auth_decisions.json").read_text())
        assert payload["trials"] == 1
        assert payload["policy"]["min_corr"] == 0.5
        assert payload["policy"]["max_shift"] == 20

    def test_unknown_pipeline_in_ini_usage_error(self, tmp_path, capsys):
        ini = tmp_path / "rec.ini"
        ini.write_text("[pipelines]\npipeline = magic\n")
        out = tmp_path / "out"
        rc = run(["reconstruct", "--config", str(ini), "--duration", "150",
                  "--out-dir", str(out)])
        assert rc == EXIT_USAGE
        assert "error: unknown pipeline 'magic'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_preset_in_ini_usage_error(self, tmp_path, capsys):
        ini = tmp_path / "sim.ini"
        ini.write_text("[input]\npreset = urban-canyon\n")
        rc = run(["simulate", "--config", str(ini), "--duration", "5",
                  "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        assert "error: unknown preset 'urban-canyon'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "preset = nlos-short\n",  # no section header
        "[input]\nseed = 1\nseed = 2\n",  # repeated key
    ])
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, text):
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        rc = run(["simulate", "--config", str(ini), "--duration", "5",
                  "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(f"error: config file {ini}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["%d", "abc"])  # '%' once began an interpolation
    def test_unparsable_value_names_its_key(self, tmp_path, capsys, value):
        ini = tmp_path / "sim.ini"
        ini.write_text(f"[input]\nduration_s = {value}\n")
        rc = run(["simulate", "--config", str(ini), "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: input.duration_s ")
        assert repr(value) in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_exits_2(self, tmp_path):
        rc = run(["keygen", "--config", str(tmp_path / "nope.ini"),
                  "--out-dir", str(tmp_path)])
        assert rc == EXIT_DATA

    def test_directory_as_config_exits_2(self, tmp_path, capsys):
        # configparser.read skips what it cannot open: this ran on the defaults
        rc = run(["simulate", "--config", str(tmp_path), "--duration", "5",
                  "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        assert str(tmp_path) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@settings(max_examples=40, deadline=None)  # a large finite duration would ask for gigabytes
@given(duration=st.sampled_from(["nan", "inf", "-inf", "0", "-2.5"]) | st.floats(0.5, 20).map(repr),
       snr=st.sampled_from([None, "nan", "inf", "-inf", "12.5", "-1e3"]),
       lag=st.sampled_from([None, "nan", "inf", "-inf", "3"]),
       preset=st.sampled_from(["los-short", "nlos-long", "no-such-preset"]),
       joined=st.booleans())
# duration inf was an OverflowError
@example(duration="inf", snr=None, lag=None, preset="los-short", joined=True)
@example(duration="nan", snr=None, lag=None, preset="los-short", joined=True)
@example(duration="5.0", snr="inf", lag=None, preset="nlos-long", joined=True)  # noise-free
@example(duration="5.0", snr="-inf", lag=None, preset="nlos-long", joined=True)
# a separate negative exponent or inf value was read as an option (exit 1)
@example(duration="5.0", snr="-1e3", lag=None, preset="los-short", joined=False)
@example(duration="5.0", snr="-inf", lag=None, preset="los-short", joined=False)
@example(duration="-inf", snr=None, lag=None, preset="los-short", joined=False)
# the preset's 12-sample lag over a 10-sample trace simulated no common sample
@example(duration="1.0", snr=None, lag=None, preset="nlos-long", joined=False)
def test_simulate_exits_0_1_or_2_without_traceback(duration, snr, lag, preset, joined):
    flags = [("duration", duration), ("preset", preset), ("seed", "1"),
             ("snr-db", snr), ("lag", lag)]
    argv = ["simulate"]
    for flag, v in flags:
        if v is not None:
            argv += [f"--{flag}={v}"] if joined else [f"--{flag}", v]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main([*argv, f"--out-dir={d}"])
    assert "Traceback" not in err.getvalue()
    if lag not in (None, "3") or preset == "no-such-preset":  # --lag takes an int
        assert rc == EXIT_USAGE
    elif not 0 < float(duration) < math.inf or snr in ("nan", "-inf"):
        assert rc == EXIT_DATA
        assert ("snr_db" if 0 < float(duration) < math.inf else "duration_s") in err.getvalue()
    elif abs(int(lag or chansim.preset(preset).lag_samples)) >= round(float(duration) * 10):
        assert rc == EXIT_DATA  # a lag of the whole trace or more leaves no common sample
        assert "lag_samples" in err.getvalue()
    else:
        assert rc == EXIT_OK


def test_import_loads_no_scipy():
    # scipy is a test-only reference; a cold start pays for numpy alone
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import csirecip, csirecip.cli; "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    src = str(Path(csirecip.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
