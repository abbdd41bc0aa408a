import json

import numpy as np
import pytest

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

    def test_missing_config_exits_2(self, tmp_path):
        rc = run(["keygen", "--config", str(tmp_path / "nope.ini"),
                  "--out-dir", str(tmp_path)])
        assert rc == EXIT_DATA
