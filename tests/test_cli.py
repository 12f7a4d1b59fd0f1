"""End-to-end command line behavior through main() with captured streams."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qwrng.cli as cli
import qwrng.pipeline as pipeline
from qwrng.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def last_error(err):
    doc = json.loads(err.strip().splitlines()[-1])
    assert "error" in doc
    return doc


def summary_dict(out):
    pairs = {}
    for line in out.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            pairs[key] = value
    return pairs


class TestEvolve:
    def test_single_step_splits_evenly(self, capsys):
        rc, out, _ = run(capsys, "evolve", "-P", "5", "-T", "1", "--mode", "position")
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert "x=1  0.5000000000" in lines
        assert "x=4  0.5000000000" in lines
        assert lines[-1].startswith("max x=")

    def test_zero_steps_is_a_point_mass(self, capsys):
        rc, out, _ = run(capsys, "evolve", "-P", "3", "-k", "2", "-T", "0")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "x=0 coins=00  1.0000000000"
        assert lines[-1] == "max x=0 coins=00  1.0000000000"
        assert len(lines) == 13

    def test_memory_labels_strip_active_coin(self, capsys):
        rc, out, _ = run(capsys, "evolve", "-P", "3", "-k", "2", "-T", "0",
                         "--mode", "memory")
        assert rc == 0
        assert out.splitlines()[0] == "x=0 mem=0  1.0000000000"

    def test_json_document(self, capsys):
        rc, out, _ = run(capsys, "evolve", "-P", "5", "-T", "1",
                         "--mode", "position", "--json")
        assert rc == 0
        doc = json.loads(out)
        assert len(doc["probs"]) == 5
        assert doc["max"]["prob"] == pytest.approx(0.5)
        assert sum(doc["probs"]) == pytest.approx(1.0)

    def test_degenerate_cycle_rejected(self, capsys):
        rc, _, err = run(capsys, "evolve", "-P", "1", "-T", "1")
        assert rc == 2
        assert "P" in last_error(err)["error"]

    def test_missing_steps_rejected(self, capsys):
        rc, _, err = run(capsys, "evolve", "-P", "5")
        assert rc == 2
        assert "-T" in last_error(err)["error"]


class TestMaxprob:
    def test_memory_sweep_matches_published_minimum(self, capsys):
        rc, out, _ = run(capsys, "maxprob", "-P", "3", "--mode", "memory")
        assert rc == 0
        got = summary_dict(out)
        assert abs(float(got["g"]) - 0.3634) < 5e-4
        assert got["flip"] == "I"

    def test_joint_sweep_json(self, capsys):
        rc, out, _ = run(capsys, "maxprob", "-P", "3", "-k", "2", "--json")
        assert rc == 0
        doc = json.loads(out)
        assert abs(float(doc["g"]) - 0.1250) < 5e-4
        assert "theta" not in doc
        assert float(doc["gamma"]) == pytest.approx(3.0, abs=0.01)

    def test_empty_sweep_window_rejected(self, capsys):
        rc, _, err = run(capsys, "maxprob", "-P", "3", "--tmax", "0")
        assert rc == 2
        last_error(err)

    def test_angle_grid_needs_general_coin(self, capsys):
        rc, _, err = run(capsys, "maxprob", "-P", "3", "--R", "4")
        assert rc == 2
        assert "--R" in last_error(err)["error"]

    def test_general_coin_reports_angles(self, capsys):
        rc, out, _ = run(capsys, "maxprob", "-P", "3", "--coin", "general",
                         "--R", "2", "--tmax", "10", "--json")
        assert rc == 0
        doc = json.loads(out)
        assert "theta" in doc and "phi" in doc

    def test_missing_cycle_length(self, capsys):
        rc, _, err = run(capsys, "maxprob")
        assert rc == 2
        assert "-P" in last_error(err)["error"]


class TestTable:
    def test_preset_writes_csv(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "table", "table1", "--tmax", "2",
                         "-o", str(tmp_path), "--no-timestamp")
        assert rc == 0
        path = tmp_path / "table1.csv"
        assert f"wrote 15 rows to {path}" in out
        lines = path.read_text().splitlines()
        assert lines[0] == "kappa,P,mode,value,t,theta,phi,flip"
        assert len(lines) == 16

    def test_unknown_preset_lists_known_ones(self, capsys):
        rc, _, err = run(capsys, "table", "nosuch")
        assert rc == 2
        assert "table1" in last_error(err)["error"]

    def test_timestamped_name_is_default(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "table", "kappa1", "--tmax", "2", "-o", str(tmp_path))
        assert rc == 0
        written = re.search(r"wrote 15 rows to (\S+)", out).group(1)
        assert re.fullmatch(r"kappa1_\d{8}T\d{6}\.csv", written.split("/")[-1])


class TestCurve:
    def test_fig_preset_covers_noise_grid(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "curve", "fig1", "--tmax", "2",
                       "-o", str(tmp_path), "--no-timestamp")
        assert rc == 0
        lines = (tmp_path / "fig1.csv").read_text().splitlines()
        assert lines[0] == "case,kappa,P,Q,N,rate"
        assert len(lines) == 1 + 10 * 4 * len(set(
            line.split(",")[4] for line in lines[1:]
        ))
        q_values = {line.split(",")[3] for line in lines[1:]}
        assert q_values == {"0.0", "0.15", "0.2", "0.3"}
        assert {line.split(",")[0] for line in lines[1:]} == {"using_all"}

    def test_table_preset_has_no_curve_axes(self, capsys, tmp_path):
        rc, _, err = run(capsys, "curve", "table1", "--tmax", "2", "-o", str(tmp_path))
        assert rc == 2
        last_error(err)


class TestExtract:
    def test_fixed_walk_run_is_seed_deterministic(self, capsys, tmp_path):
        common = ["extract", "-P", "5", "-T", "8", "--mode", "position",
                  "-N", "20000", "-m", "2000", "--seed", "42"]
        rc_a, out_a, _ = run(capsys, *common, "-o", str(tmp_path / "a"))
        rc_b, out_b, _ = run(capsys, *common, "-o", str(tmp_path / "b"))
        assert rc_a == rc_b == 0
        assert summary_dict(out_a)["aborted"] == "false"
        rec_a = (tmp_path / "a.record.txt").read_text()
        rec_b = (tmp_path / "b.record.txt").read_text()
        assert rec_a == rec_b
        bits_a = (tmp_path / "a.bits").read_bytes()
        assert bits_a == (tmp_path / "b.bits").read_bytes()
        assert len(bits_a) > 0

    def test_heavy_noise_aborts_with_empty_output(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "extract", "-P", "5", "-T", "8",
                         "--mode", "position", "-N", "20000", "-m", "2000",
                         "-Q", "0.9", "--seed", "7", "-o", str(tmp_path / "x"))
        assert rc == 0
        got = summary_dict(out)
        assert got["aborted"] == "true"
        assert got["output_bits"] == "0"
        assert (tmp_path / "x.bits").read_bytes() == b""
        assert "aborted: true" in (tmp_path / "x.record.txt").read_text()

    def test_missing_seed_generates_and_prints_one(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "extract", "-P", "5", "-T", "8",
                         "-N", "400", "-m", "40", "-o", str(tmp_path / "y"))
        assert rc == 0
        first = out.splitlines()[0]
        assert first.startswith("seed = ")
        assert int(first.split(" = ")[1]) >= 0

    def test_sweep_chooses_walk_when_steps_omitted(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "extract", "-P", "5", "--mode", "position",
                         "--tmax", "200", "-N", "100000", "-m", "10000",
                         "--seed", "1", "-o", str(tmp_path / "z"))
        assert rc == 0
        got = summary_dict(out)
        assert got["aborted"] == "false"
        assert 126000 < float(got["ell"]) < 126100
        assert int(got["output_bits"]) == int(float(got["ell"]))
        assert "T: 133" in (tmp_path / "z.record.txt").read_text()

    def test_json_output_names_files(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "extract", "-P", "5", "-T", "8",
                         "--mode", "position", "-N", "20000", "-m", "2000",
                         "--seed", "42", "-o", str(tmp_path / "j"), "--json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["bits_path"].endswith("j.bits")
        assert doc["aborted"] == "false"
        assert doc["rng_seed"] == "42"

    def test_file_as_output_parent_is_a_json_error(self, capsys, tmp_path):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        rc, _, err = run(capsys, "extract", "-P", "5", "-T", "8", "-N", "400",
                         "-m", "40", "--seed", "1", "-o", str(blocker / "run"))
        assert rc == 2
        assert str(blocker) in last_error(err)["error"]

    def test_bad_output_parent_fails_before_the_run(self, capsys, tmp_path, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran before the output path was checked")

        monkeypatch.setattr(cli, "run_protocol", must_not_run)
        monkeypatch.setattr(cli, "g_function", must_not_run)
        blocker = tmp_path / "afile"
        blocker.write_text("")
        rc, out, err = run(capsys, "extract", "-P", "5", "--tmax", "20", "-N", "400",
                           "-m", "40", "--seed", "1", "-o", str(blocker / "run"))
        assert rc == 2
        assert out == ""
        assert str(blocker) in last_error(err)["error"]

    def test_lost_hash_precision_is_a_json_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "_FFT_MIN_WORK", 0)
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: irfft(*a, **kw) + 0.25)
        rc, _, err = run(capsys, "extract", "-P", "5", "-T", "8",
                         "--mode", "position", "-N", "20000", "-m", "2000",
                         "--seed", "42", "-o", str(tmp_path / "p"))
        assert rc == 2
        assert "residual" in last_error(err)["error"]
        assert not (tmp_path / "p.bits").exists()


class TestConfigFile:
    def test_flags_override_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sweep window\nmode = memory\nkappa = 2\ntmax = 50\n")
        rc, out, err = run(capsys, "maxprob", "-P", "3", "--config", str(cfg),
                           "--mode", "position", "--json")
        assert rc == 0
        logged = next(
            json.loads(line) for line in err.splitlines() if '"command"' in line
        )
        assert logged["config"]["mode"] == "position"
        assert logged["config"]["kappa"] == 2
        assert logged["config"]["tmax"] == 50
        assert json.loads(out)["mode"] == "position"

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        rc, _, err = run(capsys, "maxprob", "-P", "3", "--config", str(cfg))
        assert rc == 2
        assert "bogus" in last_error(err)["error"]

    def test_malformed_line_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just words\n")
        rc, _, err = run(capsys, "maxprob", "-P", "3", "--config", str(cfg))
        assert rc == 2
        last_error(err)

    def test_missing_config_file_rejected(self, capsys, tmp_path):
        rc, _, err = run(capsys, "maxprob", "-P", "3",
                         "--config", str(tmp_path / "absent.cfg"))
        assert rc == 2
        last_error(err)


class TestParserBasics:
    def test_unknown_subcommand(self, capsys):
        rc, _, err = run(capsys, "bogus")
        assert rc == 2
        assert "usage" in last_error(err)

    def test_no_arguments(self, capsys):
        rc, _, err = run(capsys)
        assert rc == 2
        last_error(err)

    def test_help_exits_cleanly(self, capsys):
        rc, out, _ = run(capsys, "--help")
        assert rc == 0
        assert "evolve" in out and "extract" in out

    def test_resolved_config_logged_to_stderr(self, capsys):
        rc, _, err = run(capsys, "evolve", "-P", "3", "-T", "1")
        assert rc == 0
        logged = next(
            json.loads(line) for line in err.splitlines() if '"command"' in line
        )
        assert logged["command"] == "evolve"
        assert logged["config"]["P"] == 3

    def test_import_pulls_in_no_scipy(self):
        # scipy's import costs more than the rest of the CLI's start-up
        src = str(Path(pipeline.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys, qwrng.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.strip() == "[]"
