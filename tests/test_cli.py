import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ampvbic
from ampvbic import cli, harness
from ampvbic.errors import ConfigError, NumericalBreakdown, TrialFailure


BASE_CONFIG = """
# experiment: small smoke scenario
M = 24
N = 16
J = 4
p_a = 0.15
snr_db = 8.0
modulation = qam16
n_it = 4
seed = 9
trials = 3
detectors = amp_vbic, genie
"""


def breakdown(*args, **kwargs):
    raise NumericalBreakdown("synthetic breakdown")


def readme_schema(aggregated=False):
    """The CSV header that README documents: its one line that starts
    detector,trial, and for an aggregated (sweep) file the backticked
    *_stderr columns after it."""
    text = (Path(__file__).resolve().parent.parent / "README.md") \
        .read_text(encoding="utf-8")
    schema = next(line for line in text.splitlines()
                  if re.fullmatch(r"detector,trial,[A-Za-z_,]*", line))
    if aggregated:
        schema += "," + re.search(r"`([a-z_,]*_stderr)`", text).group(1)
    return schema


def without_runtime_column(path):
    """The CSV's lines split into fields, without the runtime_ms column."""
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    keep = [i for i, name in enumerate(header) if name != "runtime_ms"]
    return [[fields[i] for i in keep] for fields in [header, *rows]]


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(BASE_CONFIG)
    return path


class TestConfigParsing:

    def test_round_trip(self, config_file):
        values = cli.parse_config_file(config_file)
        assert values["M"] == 24
        assert values["p_a"] == 0.15
        assert values["modulation"] == "qam16"
        assert values["detectors"] == ["amp_vbic", "genie"]

    def test_brackets_and_quotes(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text('[scenario]\nM=4\nN=4\nJ=2\np_a=0.5\nsnr_db=0\n'
                        'values = [70, 100, 130]\naxis = "N"\n')
        values = cli.parse_config_file(path)
        assert values["values"] == [70, 100, 130]
        assert values["axis"] == "N"

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("M=4\nbandwidth=10\n")
        with pytest.raises(ConfigError):
            cli.parse_config_file(path)

    def test_wrong_type(self, tmp_path, capsys):
        # The parser reads values as they are; ScenarioConfig rejects them.
        path = tmp_path / "cfg.txt"
        path.write_text(BASE_CONFIG.replace("M = 24", "M = twenty"))
        assert cli.parse_config_file(path)["M"] == "twenty"
        rc = cli.main(["run", "--config", str(path)])
        assert rc == 2
        assert "config error: M must be a number, got 'twenty'" \
            in capsys.readouterr().err

    def test_integral_float_for_integer_key(self, tmp_path):
        # M = 12.0 runs as M = 12, as ScenarioConfig(M=12.0) does.
        outs = []
        for m in ("12", "12.0"):
            path = tmp_path / f"cfg{m}.txt"
            path.write_text(BASE_CONFIG.replace("M = 24", f"M = {m}"))
            outs.append(tmp_path / f"out{m}.csv")
            assert cli.main(["run", "--config", str(path),
                             "--out", str(outs[-1])]) == 0
        rows = [[line.rsplit(",", 1)[0] for line in out.read_text().splitlines()]
                for out in outs]
        assert rows[0] == rows[1]
        assert rows[0][1].startswith("amp_vbic,0,12,")

    def test_integral_float_trials(self, tmp_path, capsys):
        # trials = 3.0 runs 3 trials, as n_it = 4.0 runs 4 iterations.
        outs = []
        for trials in ("3", "3.0"):
            path = tmp_path / f"cfg{trials}.txt"
            path.write_text(BASE_CONFIG.replace("trials = 3",
                                                f"trials = {trials}"))
            outs.append(tmp_path / f"out{trials}.csv")
            assert cli.main(["run", "--config", str(path),
                             "--out", str(outs[-1])]) == 0
            assert capsys.readouterr().out.startswith("3 trials,")
        rows = [[line.rsplit(",", 1)[0] for line in out.read_text().splitlines()]
                for out in outs]
        assert rows[0] == rows[1]
        assert len(rows[0]) == 1 + 3 * 2

    def test_repeated_key(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text("M = 200\nN = 100\nM = 12\n")
        with pytest.raises(ConfigError, match=r"cfg.txt:3: 'M' repeats line 1"):
            cli.parse_config_file(path)
        path.write_text(BASE_CONFIG + "seed = 2\n")
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "'seed' repeats line" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["M", "N", "J", "p_a", "snr_db"])
    def test_missing_required_key_exits_2(self, tmp_path, capsys, key):
        path = tmp_path / "cfg.txt"
        path.write_text("\n".join(line for line in BASE_CONFIG.splitlines()
                                  if not line.startswith(f"{key} =")))
        rc = cli.main(["run", "--config", str(path)])
        assert rc == 2
        assert f"config error: config is missing required keys: ['{key}']" \
            in capsys.readouterr().err

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("M 4\n")
        with pytest.raises(ConfigError):
            cli.parse_config_file(path)


class TestRunCommand:

    def test_writes_per_trial_csv(self, config_file, tmp_path, capsys):
        # Both entries of the modulation table write README's schema.
        qpsk = tmp_path / "qpsk.txt"
        qpsk.write_text(BASE_CONFIG.replace("modulation = qam16",
                                            "modulation = qpsk"))
        for path, modulation in ((config_file, "qam16"), (qpsk, "qpsk")):
            out = tmp_path / f"{modulation}.csv"
            rc = cli.main(["run", "--config", str(path), "--out", str(out)])
            assert rc == 0
            lines = out.read_text().splitlines()
            assert lines[0] == readme_schema() == (
                "detector,trial,M,N,J,p_a,snr_db,n_it,aer,ser,ce_mse,runtime_ms")
            assert len(lines) == 1 + 3 * 2
            assert capsys.readouterr().out.startswith(
                f"3 trials, {modulation}, seed=9\n")

    def test_seed_flag_is_rejected(self, config_file):
        # The config file alone fixes a run; its seed key is the only seed.
        with pytest.raises(SystemExit) as info:
            cli.main(["run", "--config", str(config_file), "--seed", "1"])
        assert info.value.code == 2

    def test_no_offset_detector_from_config(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(BASE_CONFIG.replace(
            "detectors = amp_vbic, genie",
            "detectors = amp_vbic_no_offset, genie"))
        out = tmp_path / "records.csv"
        rc = cli.main(["run", "--config", str(path), "--out", str(out)])
        assert rc == 0
        body = out.read_text()
        assert "amp_vbic_no_offset" in body
        assert "\namp_vbic," not in body

    def test_missing_config_exits_2(self, tmp_path):
        rc = cli.main(["run", "--config", str(tmp_path / "nope.txt")])
        assert rc == 2

    def test_non_utf8_config_exits_2_before_any_trial(self, tmp_path, capsys,
                                                      monkeypatch):
        def no_frames(*args, **kwargs):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(harness, "generate_frame", no_frames)
        path = tmp_path / "cfg.txt"
        path.write_bytes(b"M = 20\nN = 12\nJ = 4\np_a = 0.2\nsnr_db = 10\n"
                         b"# caf\xe9\n")
        rc = cli.main(["run", "--config", str(path)])
        assert rc == 2
        assert f"config error: cannot read config file {path}" \
            in capsys.readouterr().err

    def test_utf8_bom_config_runs(self, config_file, tmp_path):
        # Editors such as Notepad start a UTF-8 file with a byte-order
        # mark; the file runs as the same config without it.
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf" + config_file.read_bytes())
        outs = [tmp_path / "plain.csv", tmp_path / "bom.csv"]
        for cfg, out in zip((config_file, path), outs):
            assert cli.main(["run", "--config", str(cfg),
                             "--out", str(out)]) == 0
        rows = [[line.rsplit(",", 1)[0] for line in out.read_text().splitlines()]
                for out in outs]
        assert rows[0] == rows[1]

    def test_bad_key_exits_2(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("M=4\nN=4\nJ=2\np_a=2.0\nsnr_db=0\n")
        rc = cli.main(["run", "--config", str(path)])
        assert rc == 2

    def test_unknown_detector_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text(BASE_CONFIG.replace("detectors = amp_vbic, genie",
                                            "detectors = bogus"))
        rc = cli.main(["run", "--config", str(path)])
        assert rc == 2
        assert "unknown detector 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("p_a", "0", "0 < p_a < 1"), ("p_a", "1", "0 < p_a < 1"),
        ("snr_db", "inf", "noise variance"),
        ("snr_db", "nan", "noise variance"),
        ("snr_db", "4000", "noise variance"),
        ("snr_db", "-4000", "noise variance")],
        ids=["p_a=0", "p_a=1", "snr_db=inf", "snr_db=nan", "snr_db=4000",
             "snr_db=-4000"])
    def test_undetectable_scenario_exits_2(self, tmp_path, capsys, key, value,
                                           message):
        default = {"p_a": "p_a = 0.15", "snr_db": "snr_db = 8.0"}[key]
        path = tmp_path / "cfg.txt"
        path.write_text(BASE_CONFIG.replace(default, f"{key} = {value}"))
        rc = cli.main(["run", "--config", str(path)])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("modulation", "bpsk", "modulation must be one of ['qpsk', 'qam16']"),
        ("seed", "-3", "seed must be >= 0"),
        ("trials", "abc", "n_trials must be an integer, got 'abc'"),
        ("trials", "2.5", "n_trials must be an integer, got 2.5"),
        ("trials", "0", "n_trials must be >= 1"),
        ("detectors", "", "detectors must name at least one"),
        ("detectors", "amp_vbic, amp_vbic", "detectors must not repeat a name"),
        ("J", "1000000000000", "the N x M = 16 x 24 spreading matrix needs, "
                               "with the (K, M, J) = (17, 24, 1000000000000) "
                               "VB state, more than")],
        ids=["modulation=bpsk", "seed=-3", "trials=abc", "trials=2.5",
             "trials=0", "detectors=empty", "detectors=repeated", "J=10**12"])
    def test_bad_value_exits_2(self, tmp_path, capsys, monkeypatch, key,
                               value, message):
        def no_frames(*args, **kwargs):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(harness, "generate_frame", no_frames)
        default = {"modulation": "modulation = qam16", "seed": "seed = 9",
                   "trials": "trials = 3",
                   "detectors": "detectors = amp_vbic, genie",
                   "J": "J = 4"}[key]
        path = tmp_path / "cfg.txt"
        path.write_text(BASE_CONFIG.replace(default, f"{key} = {value}"))
        rc = cli.main(["run", "--config", str(path)])
        assert rc == 2
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("out", ["missing/records.csv", "."],
                             ids=["missing_directory", "directory"])
    def test_unwritable_out_exits_2_before_any_trial(
            self, tmp_path, capsys, monkeypatch, command, out):
        # The CSV is opened only after the trials, whose results an
        # unwritable path would lose, so the path is checked before them.
        def no_frames(*args, **kwargs):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(harness, "generate_frame", no_frames)
        path = tmp_path / "cfg.txt"
        path.write_text(BASE_CONFIG + "axis = snr_db\nvalues = 0, 8\n")
        rc = cli.main([command, "--config", str(path),
                       "--out", str(tmp_path / out)])
        assert rc == 2
        assert "config error: cannot write --out" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt"]

    def test_out_in_read_only_directory_exits_2(self, config_file, tmp_path,
                                                capsys, monkeypatch):
        # Patched, since a privileged user may write to any directory.
        def no_frames(*args, **kwargs):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(harness, "generate_frame", no_frames)
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        rc = cli.main(["run", "--config", str(config_file),
                       "--out", str(tmp_path / "records.csv")])
        assert rc == 2
        assert f"cannot write --out {tmp_path / 'records.csv'} in {tmp_path}" \
            in capsys.readouterr().err
        assert not (tmp_path / "records.csv").exists()

    def test_threads_below_1_exits_2(self, config_file, capsys):
        rc = cli.main(["run", "--config", str(config_file), "--threads", "0"])
        assert rc == 2
        assert "n_workers must be >= 1" in capsys.readouterr().err

    def test_numerical_breakdown_exits_3(self, config_file, monkeypatch):
        monkeypatch.setattr(cli, "run_trials", breakdown)
        rc = cli.main(["run", "--config", str(config_file)])
        assert rc == 3

    def test_breakdown_inside_trial_exits_3(self, config_file, monkeypatch):
        # The whole NumericalBreakdown family maps to exit 3, also when a
        # trial wraps it.
        def boom(*args, **kwargs):
            raise TrialFailure("trial 0 failed") from NumericalBreakdown(
                "symbol spread went non-finite")
        monkeypatch.setattr(cli, "run_trials", boom)
        rc = cli.main(["run", "--config", str(config_file)])
        assert rc == 3

    def test_other_trial_failure_propagates(self, config_file, monkeypatch):
        # Only a breakdown is exit 3; any other failing trial leaves main
        # with its traceback, which the interpreter turns into exit 1.
        def boom(*args, **kwargs):
            raise TrialFailure("trial 0 failed") from ValueError("bad value")
        monkeypatch.setattr(cli, "run_trials", boom)
        with pytest.raises(TrialFailure) as info:
            cli.main(["run", "--config", str(config_file)])
        assert isinstance(info.value.__cause__, ValueError)

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_threads_2_csv_equals_serial_at_one_blas_thread(self, tmp_path,
                                                            command):
        # Pool workers run one BLAS thread each, so a pooled command writes
        # the CSV of a serial one at one thread in every column but
        # runtime_ms.
        path = tmp_path / "cfg.txt"
        path.write_text(BASE_CONFIG + "axis = n_it\nvalues = 2, 4\n")
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        before = harness._set_blas_threads(1)
        if before is None:
            pytest.skip("numpy links no scipy-openblas build")
        try:
            assert cli.main([command, "--config", str(path),
                             "--out", str(serial)]) == 0
        finally:
            harness._set_blas_threads(before)
        assert cli.main([command, "--config", str(path), "--threads", "2",
                         "--out", str(pooled)]) == 0
        assert without_runtime_column(pooled) == \
            without_runtime_column(serial)

    def test_breakdown_in_pool_worker_exits_3(self, config_file, monkeypatch):
        # Workers are forked, so they run the patched loop.
        monkeypatch.setattr(harness, "run_detector_internals", breakdown)
        rc = cli.main(["run", "--config", str(config_file), "--threads", "2"])
        assert rc == 3


class TestSweepCommand:

    def test_breakdown_in_pooled_nit_sweep_exits_3(self, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "cfg.txt"
        path.write_text(BASE_CONFIG + "axis = n_it\nvalues = 2, 4\n")
        monkeypatch.setattr(harness, "run_detector_internals", breakdown)
        rc = cli.main(["sweep", "--config", str(path), "--threads", "2"])
        assert rc == 3

    def test_aggregated_csv(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(BASE_CONFIG + "axis = snr_db\nvalues = 0, 8\n")
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--config", str(path), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == readme_schema(aggregated=True) == (
            "detector,trial,M,N,J,p_a,snr_db,n_it,aer,ser,ce_mse,runtime_ms,"
            "aer_stderr,ser_stderr,ce_mse_stderr")
        assert len(lines) == 1 + 2 * 2

    @pytest.mark.parametrize("keys, message", [
        ("values = 0, 8\n", "axis must be one of ('snr_db', 'N', 'p_a', "
                            "'n_it'), got None"),
        ("axis = snr_db\n", "values must be a sequence, got None")],
        ids=["no-axis", "no-values"])
    def test_missing_axis_exits_2(self, tmp_path, capsys, keys, message):
        path = tmp_path / "cfg.txt"
        path.write_text(BASE_CONFIG + keys)
        rc = cli.main(["sweep", "--config", str(path)])
        assert rc == 2
        assert f"config error: {message}" in capsys.readouterr().err

    def test_prints_one_row_per_value_and_detector(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text(BASE_CONFIG + "axis = snr_db\nvalues = 0, 8\n")
        assert cli.main(["sweep", "--config", str(path)]) == 0
        header, columns, *rows = capsys.readouterr().out.splitlines()
        assert header == "3 trials, qam16, seed=9"
        snr_db = columns.split().index("snr_db")
        assert [(row.split()[0], row.split()[snr_db]) for row in rows] == [
            ("amp_vbic", "0"), ("genie", "0"), ("amp_vbic", "8"), ("genie", "8")]

    def test_nit_sweep_rows_print_as_run_rows(self, tmp_path, capsys):
        # BASE_CONFIG runs n_it = 4, one of the swept values.
        path = tmp_path / "cfg.txt"
        path.write_text(BASE_CONFIG + "axis = n_it\nvalues = 2, 4\n")
        printed = []
        for command in ("run", "sweep"):
            assert cli.main([command, "--config", str(path)]) == 0
            header, *table = capsys.readouterr().out.splitlines()
            # Every column but runtime_ms, the last.
            printed.append([header] + [line.split()[:-1] for line in table])
        run, sweep = printed
        n_it = run[1].index("n_it")
        assert len(run) == 2 + 2 and len(sweep) == 2 + 4
        assert run == sweep[:2] + [row for row in sweep[2:] if row[n_it] == "4"]

    @pytest.mark.parametrize("axis, values, message", [
        ("snr_db", "5, abc", "snr_db must be a number"),
        ("N", "12.7, 15", "N must be an integer"),
        ("n_it", "5, 20.5", "n_it must be an integer"),
        ("n_it", "2, 2", "values must not repeat a value, got [2, 2]")],
        ids=["non-numeric-snr_db", "non-integral-N", "non-integral-n_it",
             "repeated-n_it"])
    def test_bad_value_type_exits_2(self, tmp_path, capsys, axis, values,
                                    message):
        path = tmp_path / "cfg.txt"
        path.write_text(BASE_CONFIG + f"axis = {axis}\nvalues = {values}\n")
        rc = cli.main(["sweep", "--config", str(path)])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_invalid_axis_exits_2(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(BASE_CONFIG + "axis = bandwidth\nvalues = 1\n")
        rc = cli.main(["sweep", "--config", str(path)])
        assert rc == 2


def test_module_entry_point(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("M=12\nN=8\nJ=3\np_a=0.2\nsnr_db=6\nn_it=2\ntrials=1\n")
    # pytest's own pythonpath setting does not reach a child process, so
    # the child is pointed at the package this process imported.
    package_root = str(Path(ampvbic.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "ampvbic.cli", "run", "--config", str(path)],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert "amp_vbic" in proc.stdout
