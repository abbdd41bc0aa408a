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
from csirecip import chansim, cli
from csirecip.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from csirecip.errors import CsiRecipError
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
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
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

    def test_non_utf8_file_names_the_line(self, sim_dir, tmp_path, capsys):
        # a UnicodeDecodeError that named neither the line nor the offset
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"seq,t,dev,i0,q0\n1,0.1,\xff,1,2\n")
        rc = run(["metrics", "--ap", str(bad), "--sta", str(sim_dir / "sta.csv")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err == "error: line 2 is not UTF-8: byte 0xff at offset 22\n"

    def test_out_file(self, sim_dir, tmp_path):
        dest = tmp_path / "m.json"
        rc = run(["metrics", "--ap", str(sim_dir / "ap.csv"),
                  "--sta", str(sim_dir / "sta.csv"), "--out", str(dest)])
        assert rc == EXIT_OK
        assert "pearson" in json.loads(dest.read_text())

    @pytest.mark.parametrize("kind, code", [("nul", EXIT_USAGE), ("dir", EXIT_DATA),
                                            ("no-parent", EXIT_DATA)])
    def test_bad_out_refused_before_any_work(self, kind, code, tmp_path, monkeypatch, capsys):
        # the whole report was computed first, then the write failed
        def no_work(*args):
            raise AssertionError("the coherence ran before --out was checked")
        monkeypatch.setattr(cli, "wavelet_coherence", no_work)
        dest = {"nul": "a\0b.json", "dir": str(tmp_path),
                "no-parent": str(tmp_path / "missing" / "m.json")}[kind]
        assert run(["metrics", "--duration", "60", "--out", dest]) == code
        assert repr(dest) in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == []


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

    # each ran zero trials, wrote auth_decisions.json and exited 0
    @pytest.mark.parametrize("flags, ini, value", [
        (["--trials", "-1"], None, "-1"), (["--trials", "0"], None, "0"),
        ([], "[auth]\ntrials = 0\n", "0"),
    ], ids=["flag-1", "flag0", "ini0"])
    def test_trials_below_one_is_data_error(self, tmp_path, capsys, flags, ini, value):
        out = tmp_path / "auth"
        if ini:
            (tmp_path / "auth.ini").write_text(ini)
            flags = flags + ["--config", str(tmp_path / "auth.ini")]
        assert run(["auth", *flags, "--out-dir", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: trials must be >= 1, got {value}\n"
        assert not out.exists()


class TestFlagGroups:
    @pytest.mark.parametrize("argv", [
        ["auth", "--subcarrier", "3"],
        ["auth", "--ap", "x.csv"],
        ["auth", "--duration", "5"],
        ["simulate", "--ap", "x.csv"],
        ["simulate", "--subcarrier", "3"],
        ["report", "sessions", "--config", "x.ini"],  # was hidden, and read x.ini
    ])
    def test_unread_flag_is_usage_error(self, argv, tmp_path):
        assert run(argv + ["--out-dir", str(tmp_path)]) == EXIT_USAGE

    def test_negative_float_value_reaches_value_check(self, tmp_path, capsys):
        assert run(["auth", "--min-corr", "-1e-1", "--out-dir", str(tmp_path)]) == EXIT_DATA
        assert "min_corr" in capsys.readouterr().err

    def test_non_float_value_is_usage_error(self, tmp_path, capsys):
        assert run(["simulate", "--duration", "abc", "--out-dir", str(tmp_path)]) == EXIT_USAGE
        assert "--duration: invalid float value: 'abc'" in capsys.readouterr().err


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


class TestDatasetParseStats:
    """Dataset mode records what parsing dropped from each file under config.input.parse_stats."""

    @staticmethod
    def faulty_ap(sim_dir, dest):
        """The AP file with a bad row, a duplicate and an out-of-order row after data row 10."""
        lines = (sim_dir / "ap.csv").read_text().splitlines()
        rows = lines[1:]
        extra = [rows[9], rows[4], "10,1.0,ap,1.0"]  # seq 9 again, seq 4 late, too few i/q
        dest.write_text("\n".join([lines[0], *rows[:10], *extra, *rows[10:]]) + "\n")
        return dest

    @pytest.mark.parametrize("command", ["keygen", "metrics", "reconstruct"])
    def test_counts_read_back_from_payload(self, sim_dir, tmp_path, command):
        ap = self.faulty_ap(sim_dir, tmp_path / "ap.csv")
        out = tmp_path / "out"
        argv = [command, "--ap", str(ap), "--sta", str(sim_dir / "sta.csv"), "--out-dir", str(out)]
        if command == "keygen":
            argv += ["--pipelines", "raw"]
        elif command == "metrics":
            argv += ["--out", str(tmp_path / "metrics.json")]
        else:
            argv += ["--pipeline", "raw"]
        assert run(argv) == EXIT_OK
        payload = json.loads({"keygen": out / "session_raw.json",
                              "metrics": tmp_path / "metrics.json",
                              "reconstruct": out / "reconstructed_raw.json"}[command].read_text())
        stats = payload["config"]["input"]["parse_stats"]
        # data rows 11-13 are the duplicate, the late row and the bad row
        assert stats == {"ap": {"bad_rows": [13], "duplicates": 1, "out_of_order": 1},
                         "sta": {"bad_rows": [], "duplicates": 0, "out_of_order": 0}}

    def test_simulation_records_none(self, tmp_path):
        out = tmp_path / "kg"
        assert run(["keygen", "--preset", "los-short", "--duration", "60", "--seed", "1",
                    "--pipelines", "raw", "--out-dir", str(out)]) == EXIT_OK
        payload = json.loads((out / "session_raw.json").read_text())
        assert "parse_stats" not in payload["config"]["input"]


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

    @pytest.mark.parametrize("text, setting", [
        # each was ignored: simulate ran at 11.0 dB and lag 2, exit 0
        ("[input]\nseed = 3\nsnr_db = -30\nlag = 7\n", "[input] snr_db"),
        ("[input]\nseed = 3\n[nosuch]\nkey = 1\n", "[nosuch] key"),
        ("[DEFAULT]\npreset = nlos-short\n", "[DEFAULT] preset"),  # reaches every section
    ])
    def test_unread_setting_is_usage_error(self, tmp_path, capsys, text, setting):
        ini = tmp_path / "sim.ini"
        ini.write_text(text)
        rc = run(["simulate", "--config", str(ini), "--duration", "5",
                  "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: config file {ini}: {setting} is read by no command\n"
        assert not (tmp_path / "out").exists()

    def test_setting_another_command_reads_is_allowed(self, tmp_path):
        # one experiment.ini serves every command
        ini = tmp_path / "experiment.ini"
        ini.write_text("[input]\nduration_s = 5\nsubcarrier = 3\n[pipelines]\nlist = raw\n"
                       "[auth]\ntrials = 1\n[nosuch]\n")  # a section without keys sets nothing
        rc = run(["simulate", "--config", str(ini), "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_OK

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


@contextlib.contextmanager
def no_bare_value_error():
    """Fail on a ValueError outside the CsiRecipError family that would reach ``main``'s
    data-error catch: the catch stays as a guard, and nothing the fuzzers reach relies on it."""
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_load_config", "cmd_keygen", "cmd_metrics", "cmd_report", "cmd_reconstruct",
                     "cmd_auth"):
            def guarded(*args, fn=getattr(cli, name)):
                try:
                    return fn(*args)
                except ValueError as e:
                    if not isinstance(e, CsiRecipError):
                        raise AssertionError(f"bare {type(e).__name__} reached main: {e}") from e
                    raise
            mp.setattr(cli, name, guarded)
        yield


def run_quietly(argv) -> tuple[int, str]:
    """``main(argv)`` with stdout dropped: (exit code, stderr)."""
    err = io.StringIO()
    with no_bare_value_error(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


# files a --config file may name, written once per test module; an INI value "@name@" stands
# for the path of file "name"
FUZZ_FILES = ("ap", "sta", "missing", "dir", "nul", "garbage", "non-utf8", "empty")


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory) -> dict[str, str]:
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["simulate", "--preset", "los-short", "--duration", "60", "--seed", "2",
                 "--out-dir", str(root / "sim")]) == EXIT_OK
    (root / "garbage.csv").write_text("seq,t\n1,2,3\n")
    (root / "latin1.csv").write_bytes(b"seq,t,dev,i0,q0\n1,0.1,\xe9,1,2\n")
    return {"ap": str(root / "sim" / "ap.csv"), "sta": str(root / "sim" / "sta.csv"),
            "missing": str(root / "missing.csv"), "dir": str(root), "nul": "a\0b.csv",
            "garbage": str(root / "garbage.csv"), "non-utf8": str(root / "latin1.csv"), "empty": ""}


# values that a --config file may give each setting; durations stay small, since a large
# finite one would simulate gigabytes
INI_VALUES = {
    ("input", "preset"): st.sampled_from(["los-short", "nlos-long", "reciprocal", "nope", ""]),
    ("input", "duration_s"): st.sampled_from(["nan", "inf", "-inf", "0", "-3", "1e-300", "1e309",
                                              "x", ""]) | st.floats(30, 80).map(repr),
    ("input", "seed"): st.sampled_from(["-1", "1.5", "x", "", str(2 ** 80)])
    | st.integers(0, 9).map(str),
    ("input", "subcarrier"): st.sampled_from(["6.0", "x", "", "99999999999999999999"])
    | st.integers(-3, 20).map(str),
    ("input", "ap"): st.sampled_from(FUZZ_FILES).map("@{}@".format),
    ("input", "sta"): st.sampled_from(FUZZ_FILES).map("@{}@".format),
    ("pipelines", "list"): st.lists(st.sampled_from(["raw", "golay", "fft", "wpt", "wt", " wt", "x",
                                                     ""]), min_size=1, max_size=3).map(",".join),
    ("pipelines", "thresholds"): st.sampled_from(["5,15,20", "15", "", "a", "-1", "15,5", "1.5",
                                                  "0,99"]),
    ("pipelines", "pipeline"): st.sampled_from(["raw", "wt", " wt", "x", "", "wt,raw"]),
    # trial counts stay small: each trial simulates a pair and an attacker
    ("auth", "trials"): st.sampled_from(["0", "-1", "1.5", "x", "", "1", "2", "1e3"]),
    ("auth", "seed"): st.sampled_from(["-1", "1.5", "x", "", str(2 ** 80), "nan"])
    | st.integers(0, 9).map(str),
    ("auth", "min_corr"): st.sampled_from(["nan", "inf", "-1", "0", "1", "1.5", "x", ""])
    | st.floats(0, 1).map(repr),
    ("auth", "max_shift"): st.sampled_from(["-1", "0", "1.5", "x", "", "200", str(2 ** 70)])
    | st.integers(0, 60).map(str),
    ("junk", "key"): st.text(max_size=8),
}


@st.composite
def ini_files(draw) -> bytes:
    """An INI file: some settings with fuzzed values, or arbitrary text, or arbitrary bytes."""
    kind = draw(st.sampled_from(["settings", "settings", "settings", "text", "bytes"]))
    if kind == "text":
        return draw(st.text(max_size=60)).encode()
    if kind == "bytes":
        return draw(st.binary(max_size=60))
    keys = draw(st.lists(st.sampled_from(sorted(INI_VALUES)), unique=True, max_size=6))
    sections: dict[str, list[str]] = {}
    for section, key in keys:
        value = draw(INI_VALUES[section, key]).replace("\n", " ").replace("\r", " ")
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{name}]\n" + "".join(line + "\n" for line in body)
                   for name, body in sections.items()).encode()


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(["keygen", "metrics", "reconstruct", "auth"]), ini=ini_files())
# each reached main's ValueError catch: open() refused the NUL path, the file was not UTF-8
@example(command="keygen", ini=b"[input]\nap = @nul@\nsta = @nul@\n")
@example(command="metrics", ini=b"[input]\nseed = \xff\n")
@example(command="keygen", ini=b"[input]\nap = @ap@\nsta = @sta@\n")
@example(command="metrics", ini=b"[input]\nduration_s = 45.0\nsubcarrier = 3\n")
@example(command="reconstruct",
         ini=b"[input]\nap = @ap@\nsta = @sta@\n[pipelines]\npipeline = wt\n")
@example(command="auth", ini=b"[auth]\ntrials = 2\nseed = 3\nmin_corr = 0.5\nmax_shift = 20\n")
def test_config_fuzz_exits_0_1_or_2_without_traceback(fuzz_paths, command, ini):
    for name, path in fuzz_paths.items():
        ini = ini.replace(f"@{name}@".encode(), path.encode())
    with tempfile.TemporaryDirectory() as d:
        config = Path(d) / "fuzz.ini"
        config.write_bytes(ini)
        rc, err = run_quietly([command, "--config", str(config), "--out-dir", str(Path(d) / "out")])
    assert rc in (EXIT_OK, EXIT_USAGE, EXIT_DATA)
    assert "Traceback" not in err
    assert (rc == EXIT_OK) == (err == "")


JSON_LEAVES = (st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats()
               | st.text(max_size=6))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=6), inner, max_size=3), max_leaves=8)


def fuzzed(strategy):
    """A field's proper values, or any JSON value in their place."""
    return strategy | JSON_VALUES


SESSION_FIELDS = {
    "pipeline": fuzzed(st.sampled_from(["raw", "wt"])),
    "sync": fuzzed(st.booleans()),
    "overall_ber": fuzzed(st.none() | st.floats(0, 1)),
    "blocks": fuzzed(st.integers(0, 60)),
    "lag": fuzzed(st.integers(-50, 50)),
    "per_threshold": fuzzed(st.lists(st.fixed_dictionaries({
        "error_threshold": fuzzed(st.integers(0, 30)),
        "kgr": fuzzed(st.floats(0, 2)),
        "mean_ber": fuzzed(st.none() | st.floats(0, 1)),
    }), max_size=3)),
}


@st.composite
def session_files(draw) -> bytes | None:
    """A session file: a session report with fuzzed or missing fields, any JSON value, any
    bytes, or None for a directory of that name."""
    kind = draw(st.sampled_from(["session", "session", "json", "bytes", "directory"]))
    if kind == "directory":
        return None
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    if kind == "json":
        return json.dumps(draw(JSON_VALUES)).encode()
    keep = draw(st.lists(st.sampled_from(sorted(SESSION_FIELDS)), unique=True,
                         min_size=len(SESSION_FIELDS) - 1))
    return json.dumps({k: draw(SESSION_FIELDS[k]) for k in keep}).encode()


@settings(max_examples=60, deadline=None)
@given(files=st.lists(session_files(), min_size=1, max_size=3))
# nested past the JSON parser's recursion limit: a RecursionError and a traceback
@example(files=[b"[" * 100000])
def test_report_fuzz_exits_0_1_or_2_without_traceback(files):
    with tempfile.TemporaryDirectory() as d:
        sessions = Path(d) / "sessions"
        sessions.mkdir()
        for i, content in enumerate(files):
            path = sessions / f"session_{i}.json"
            if content is None:
                path.mkdir()
            else:
                path.write_bytes(content)
        rc, err = run_quietly(["report", str(sessions), "--out-dir", str(Path(d) / "out")])
        wrote = (Path(d) / "out" / "report.csv").exists()
    assert rc in (EXIT_OK, EXIT_DATA)
    assert "Traceback" not in err
    assert wrote == (rc == EXIT_OK)


def test_import_loads_no_scipy():
    # scipy is a test-only reference; a cold start pays for numpy alone
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import csirecip, csirecip.cli; "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    src = str(Path(csirecip.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
