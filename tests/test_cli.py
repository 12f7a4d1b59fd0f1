"""End-to-end command line behavior through main() with captured streams."""

import errno
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import qwrng.cli as cli
import qwrng.experiments as experiments
import qwrng.pipeline as pipeline
from qwrng.cli import main
from qwrng.maxprob import SweepGrid, sweep_bytes
from qwrng.pipeline import run_bytes
from qwrng.rates import ProtocolParams


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def last_error(err):
    doc = json.loads(err.strip().splitlines()[-1])
    assert "error" in doc
    return doc


def src_env():
    """The environment, with this checkout's src first on PYTHONPATH, for a fresh interpreter."""
    src = str(Path(pipeline.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def summary_dict(out):
    pairs = {}
    for line in out.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            pairs[key] = value
    return pairs


def fail_the_nth_write(monkeypatch, nth):
    """Make the nth file opened for writing fail as a full disk would, once it is open."""
    opened = []
    real_open = Path.open

    def open_(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        if set(mode) & set("wxa"):
            opened.append(path)
            if len(opened) == nth:
                fh.close()
                raise OSError(errno.ENOSPC, "No space left on device")
        return fh

    monkeypatch.setattr(Path, "open", open_)


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

    @pytest.mark.parametrize("mode", ["all", "memory", "position"])
    def test_chunked_printout_is_the_whole_document(self, capsys, monkeypatch, mode):
        # 5 outcomes a chunk splits the 24 labels and probabilities four times
        argv = ["evolve", "-P", "6", "-k", "2", "-T", "3", "--coin", "general", "--mode", mode]
        _, text, _ = run(capsys, *argv)
        _, doc, _ = run(capsys, *argv, "--json")
        monkeypatch.setattr(cli, "_PRINT_CHUNK", 5)
        assert run(capsys, *argv)[1] == text
        rc, out, _ = run(capsys, *argv, "--json")
        assert rc == 0
        assert out == doc
        whole = json.loads(doc)
        assert len(whole["probs"]) > 5
        assert out == json.dumps(whole) + "\n"

    def test_degenerate_cycle_rejected(self, capsys):
        rc, _, err = run(capsys, "evolve", "-P", "1", "-T", "1")
        assert rc == 2
        assert "P" in last_error(err)["error"]

    def test_missing_steps_rejected(self, capsys):
        rc, _, err = run(capsys, "evolve", "-P", "5")
        assert rc == 2
        assert "-T" in last_error(err)["error"]

    @pytest.mark.parametrize("flag", ["--theta", "--phi"])
    def test_angle_flags_need_the_general_coin(self, capsys, flag):
        # the Hadamard coin has no angles, so given ones would go unused
        rc, out, err = run(capsys, "evolve", "-P", "5", "-k", "2", "-T", "7", "--json",
                           flag, "0.3")
        assert rc == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert flag in last_error(err)["error"]


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

    def test_angle_flags_rejected(self, capsys):
        # the sweep chooses theta and phi itself, so the flags would be ignored
        rc, out, err = run(capsys, "maxprob", "-P", "3", "--coin", "general",
                           "--R", "4", "--theta", "0.3", "--phi", "1.0")
        assert rc == 2
        assert out == ""
        doc = last_error(err)
        assert "--theta" in doc["error"] and "usage" in doc

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

    def test_empty_sweep_window_fails_before_any_sweep(self, capsys, tmp_path, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep ran")

        monkeypatch.setattr(experiments, "g_functions", no_sweep)
        rc, out, err = run(capsys, "table", "table1", "--tmax", "0", "-o", str(tmp_path))
        assert rc == 2
        assert out == ""
        errors = [json.loads(line) for line in err.splitlines() if '"error"' in line]
        assert len(errors) == 1 and "empty time range" in errors[0]["error"]
        assert not list(tmp_path.iterdir())

    def test_file_as_output_parent_fails_before_any_sweep(self, capsys, tmp_path, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep ran")

        monkeypatch.setattr(experiments, "g_functions", no_sweep)
        blocker = tmp_path / "afile"
        blocker.write_text("")
        rc, out, err = run(capsys, "table", "table2", "-o", str(blocker / "x"))
        assert rc == 2
        assert out == ""
        errors = [json.loads(line) for line in err.splitlines() if '"error"' in line]
        assert len(errors) == 1 and str(blocker) in errors[0]["error"]

    @pytest.mark.parametrize("command,name,fmt", [("table", "table2", "csv"),
                                                  ("curve", "fig1", "json")])
    def test_a_directory_at_the_output_file_fails_before_any_sweep(
            self, capsys, tmp_path, monkeypatch, command, name, fmt):
        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep ran")

        monkeypatch.setattr(experiments, "g_functions", no_sweep)
        taken = tmp_path / "d" / f"{name}.{fmt}"
        taken.mkdir(parents=True)
        rc, out, err = run(capsys, command, name, "--tmax", "30", "--format", fmt,
                           "-o", str(tmp_path / "d"), "--no-timestamp")
        assert rc == 2
        assert out == ""
        errors = [json.loads(line) for line in err.splitlines() if '"error"' in line]
        assert errors == [{"error": f"-o/--out: {taken} is a directory, not a file"}]
        assert sorted(tmp_path.rglob("*")) == [taken.parent, taken]

    @pytest.mark.parametrize("delay", [0.0, 1.0], ids=["at-once", "mid-sweep"])
    def test_an_interrupted_preset_leaves_no_process(self, tmp_path, delay):
        # SIGINT to the whole process group, as a terminal's Ctrl-C sends it:
        # at once, as the workers start, or after a second, as they sweep
        proc = subprocess.Popen(
            [sys.executable, "-m", "qwrng.cli", "table", "table1", "--tmax", "1000000",
             "--no-timestamp"],
            env=src_env(), cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            assert json.loads(proc.stderr.readline())["command"] == "table"
            time.sleep(delay)
            os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 2
        assert out == ""
        assert [json.loads(line) for line in err.splitlines()] == [{"error": "interrupted"}]
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ProcessLookupError):  # no worker outlived the run
            os.killpg(proc.pid, 0)

    def test_thread_option_is_gone(self, capsys, tmp_path):
        rc, _, err = run(capsys, "table", "table2", "--tmax", "1", "-o", str(tmp_path),
                         "--threads", "2")
        assert rc == 2
        assert "--threads" in last_error(err)["error"]
        assert "usage" in last_error(err)

    @pytest.mark.parametrize("command,name", [("table", "table1"), ("curve", "fig1")])
    def test_preset_takes_no_first_step(self, capsys, tmp_path, command, name):
        # a preset fixes its own first step, so --tmin would go unused
        rc, out, err = run(capsys, command, name, "--tmax", "20", "--tmin", "15",
                           "-o", str(tmp_path))
        assert rc == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        doc = last_error(err)
        assert "--tmin" in doc["error"] and "usage" in doc
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tmin = 15\n")
        rc, _, err = run(capsys, command, name, "--tmax", "20", "-o", str(tmp_path),
                         "--config", str(cfg))
        assert rc == 2
        assert f"unknown config keys for {command}: tmin" in last_error(err)["error"]
        assert not list(tmp_path.glob("*.csv"))

    def test_timestamped_name_is_default(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "table", "kappa1", "--tmax", "2", "-o", str(tmp_path))
        assert rc == 0
        written = re.search(r"wrote 15 rows to (\S+)", out).group(1)
        assert re.fullmatch(r"kappa1_\d{8}T\d{6}\.csv", written.split("/")[-1])

    def test_a_failed_write_keeps_the_older_file(self, capsys, tmp_path, monkeypatch):
        older = tmp_path / "kappa1.csv"
        older.write_bytes(b"older table\n")
        fail_the_nth_write(monkeypatch, 1)
        rc, out, err = run(capsys, "table", "kappa1", "--tmax", "2", "-o", str(tmp_path),
                           "--no-timestamp")
        assert rc == 2
        assert out == ""
        assert last_error(err) == {"error": "[Errno 28] No space left on device"}
        assert list(tmp_path.iterdir()) == [older]
        assert older.read_bytes() == b"older table\n"


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
        rc, out, err = run(capsys, "curve", "table1", "--tmax", "2", "-o", str(tmp_path))
        assert rc == 2
        assert out == ""
        errors = [json.loads(line) for line in err.splitlines() if '"error"' in line]
        assert len(errors) == 1
        assert errors[0]["error"] == "table1 is a table preset, not a rate curve: use `qwrng table`"
        assert not list(tmp_path.iterdir())

    def test_usage_error_leaves_no_output_directory(self, capsys, tmp_path):
        rc, _, err = run(capsys, "curve", "table1", "--tmax", "2", "-o", str(tmp_path / "new"))
        assert rc == 2
        assert "not a rate curve" in last_error(err)["error"]
        assert not list(tmp_path.iterdir())

    def test_curve_preset_runs_as_a_table(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "table", "fig1", "--tmax", "2",
                         "-o", str(tmp_path), "--no-timestamp")
        assert rc == 0
        assert f"wrote 10 rows to {tmp_path / 'fig1.csv'}" in out
        lines = (tmp_path / "fig1.csv").read_text().splitlines()
        assert lines[0] == "kappa,P,mode,value,t,theta,phi,flip"
        assert len(lines) == 11


class TestMemoryPreflight:
    """A command whose arrays cannot fit fails before it sweeps, walks or writes."""

    @pytest.fixture
    def tiny_machine(self, monkeypatch):
        # one page of one byte: nothing fits, and nothing may be allocated
        monkeypatch.setattr(os, "sysconf", lambda name: 1)

        def must_not_run(*args, **kwargs):
            raise AssertionError("ran a walk that cannot fit in memory")

        for module in (cli, experiments):
            monkeypatch.setattr(module, "g_functions", must_not_run)
        monkeypatch.setattr(cli, "evolve", must_not_run)
        monkeypatch.setattr(cli, "run_protocol", must_not_run)

    @pytest.mark.parametrize("argv,what", [
        (("evolve", "-P", "5", "-T", "3"), "a walk over P = 5, kappa = 1"),
        (("maxprob", "-P", "5", "-k", "2"), "a sweep over P = 5, kappa = 2"),
        (("table", "table2", "--tmax", "3"), "the sweep over P = 11, kappa = 2 of table2"),
        (("curve", "fig4", "--tmax", "3"), "the sweep over P = 51, kappa = 4 of fig4"),
        (("extract", "-P", "5", "--mode", "position", "-N", "1000", "--seed", "1"),
         "the sweep over P = 5, kappa = 1"),
        (("extract", "-P", "5", "-T", "3", "--mode", "position", "-N", "1000", "--seed", "1"),
         "the walk over P = 5, kappa = 1"),
    ], ids=["evolve", "maxprob", "table", "curve", "extract", "extract-T"])
    def test_command_fails_before_it_allocates(self, capsys, tmp_path, monkeypatch,
                                               tiny_machine, argv, what):
        monkeypatch.chdir(tmp_path)  # where table, curve and extract write by default
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        errors = [json.loads(line) for line in err.splitlines() if '"error"' in line]
        assert len(errors) == 1
        assert errors[0]["error"].startswith(f"{what} needs about ")
        assert errors[0]["error"].endswith(" GiB this machine has")
        assert not list(tmp_path.iterdir())

    def test_the_largest_preset_cell_sets_the_need(self, capsys, tmp_path, monkeypatch):
        # table2 at R = 12000 has B = 144,024,001 coins, whose matrices take 64
        # bytes each, about 8.6 GiB, more than an 8 GiB machine; each cell adds
        # its largest block, which at (P=3, kappa=1) is 8000 walks, the most
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 << 20}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)

        def must_not_run(*args, **kwargs):
            raise AssertionError("swept a preset that cannot fit in memory")

        monkeypatch.setattr(experiments, "g_functions", must_not_run)
        monkeypatch.setattr(cli, "pool_size", lambda sweeps: 1)  # one sweep held at a time
        rc, out, err = run(capsys, "table", "table2", "--R", "12000", "-o", str(tmp_path))
        assert rc == 2
        assert out == ""
        assert last_error(err)["error"] == (
            "the sweep over P = 3, kappa = 1 of table2 needs about 8.6 GiB of memory, "
            "more than the 8.0 GiB this machine has")
        assert not list(tmp_path.iterdir())

    @pytest.fixture
    def half_gib_machine(self, monkeypatch):
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1 << 17}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_preset_is_charged_the_sweeps_its_workers_hold(self, capsys, tmp_path, monkeypatch,
                                                             half_gib_machine, workers):
        # table2 at R = 2300: each of its three largest cells needs about 0.32
        # GiB, so one fits in 0.5 GiB and two held at once do not
        class Swept(Exception):
            pass

        def sweep(*args):
            raise Swept

        monkeypatch.setattr(experiments, "g_functions", sweep)
        monkeypatch.setattr(experiments, "pool_size", lambda sweeps: 1)  # the spy runs here
        monkeypatch.setattr(cli, "pool_size", lambda sweeps: min(sweeps, workers))
        argv = ["table", "table2", "--R", "2300", "--tmax", "3", "-o", str(tmp_path)]
        if workers == 1:
            with pytest.raises(Swept):
                main(argv)
            return
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        errors = [json.loads(line) for line in err.splitlines() if '"error"' in line]
        assert errors == [{"error": "the sweep over P = 3, kappa = 1 of table2 needs about 0.6 GiB "
                                    "of memory, more than the 0.5 GiB this machine has"}]
        assert not list(tmp_path.iterdir())

    def test_a_small_run_is_charged_the_hash_it_can_run(self, capsys, tmp_path,
                                                         half_gib_machine):
        # N = 1e5 needs about 17 MiB; the hash's whole budget alone is 0.84 GiB
        rc, _, _ = run(capsys, "extract", "-P", "5", "-T", "8", "--mode", "position",
                       "-N", "100000", "-m", "10000", "--seed", "1",
                       "-o", str(tmp_path / "run"))
        assert rc == 0

    def test_a_large_run_still_fails_before_it_samples(self, capsys, tmp_path, monkeypatch,
                                                        half_gib_machine):
        def must_not_run(*args, **kwargs):
            raise AssertionError("sampled a run that cannot fit in memory")

        monkeypatch.setattr(cli, "run_protocol", must_not_run)
        rc, out, err = run(capsys, "extract", "-P", "5", "-T", "8", "--mode", "position",
                           "-N", "10000000", "-m", "10000", "--seed", "1",
                           "-o", str(tmp_path / "run"))
        assert rc == 2
        assert out == ""
        errors = [json.loads(line) for line in err.splitlines() if '"error"' in line]
        assert errors == [{"error": "a run of N = 10000000 signals needs about 0.9 GiB of "
                                    "memory, more than the 0.5 GiB this machine has"}]

    def test_a_1e8_run_is_charged_its_largest_phase(self, tmp_path, monkeypatch):
        # the hash phase, about 1.3 GiB, sets the charge; adding every O(N)
        # array to the hash's working set charged 2.1 GiB and refused this run
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1 << 19}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)

        class Ran(Exception):
            pass

        def protocol(source, params, mode, gamma=None):
            raise Ran(params.N)

        monkeypatch.setattr(cli, "run_protocol", protocol)
        with pytest.raises(Ran, match="^100000000$"):
            main(["extract", "-P", "5", "-k", "2", "-T", "636", "--mode", "position",
                  "-N", "100000000", "-o", str(tmp_path / "run")])
        assert not list(tmp_path.iterdir())

    def test_a_large_subset_is_charged_its_draw(self, capsys, tmp_path, monkeypatch):
        # at m = N / 2 numpy draws the subset by shuffling an int64 arange(N),
        # 0.8 GB at N = 1e8 beside the digits and test bits: about 1.3 GiB; the
        # hash phase holds the 5e7 test indices and outcomes too, about 1.5 GiB
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": round(1.1 * 2**30 / 4096)}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)

        def must_not_run(*args, **kwargs):
            raise AssertionError("sampled a run that cannot fit in memory")

        monkeypatch.setattr(cli, "run_protocol", must_not_run)
        rc, out, err = run(capsys, "extract", "-P", "5", "-k", "2", "-T", "636",
                           "--mode", "position", "-N", "100000000", "-m", "50000000",
                           "-o", str(tmp_path / "run"))
        assert rc == 2
        assert out == ""
        errors = [json.loads(line) for line in err.splitlines() if '"error"' in line]
        assert errors == [{"error": "a run of N = 100000000 signals needs about 1.5 GiB of "
                                    "memory, more than the 1.1 GiB this machine has"}]
        assert not list(tmp_path.iterdir())

    def test_evolve_is_charged_its_whole_run_once(self, capsys, monkeypatch, half_gib_machine):
        # 72 bytes per amplitude: 1.6e7 amplitudes need 1.07 GiB
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran a walk that cannot fit in memory")

        monkeypatch.setattr(cli, "evolve", must_not_run)
        rc, out, err = run(capsys, "evolve", "-P", "4000000", "-k", "2", "-T", "1", "--json")
        assert rc == 2
        assert out == ""
        errors = [json.loads(line) for line in err.splitlines() if '"error"' in line]
        assert errors == [{"error": "a walk over P = 4000000, kappa = 2 needs about 1.1 GiB of "
                                    "memory, more than the 0.5 GiB this machine has"}]

    # peak RSS above the post-import baseline, in KiB, printed after the run's output
    _PEAK_KIB = ("import resource, sys\n"
                 "from qwrng.cli import main\n"
                 "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                 "main(sys.argv[1:])\n"
                 "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)\n")
    # a process's ru_maxrss starts at the peak of the one that spawned it, so
    # the run is spawned by a small interpreter, not by this test process
    _LAUNCH = ("import subprocess, sys\n"
               "sys.exit(subprocess.run([sys.executable, *sys.argv[1:]]).returncode)\n")

    @pytest.mark.parametrize("argv, charge", [
        (("maxprob", "-P", "1000000", "-k", "2", "--tmax", "3"),
         sweep_bytes(1000000, 2, SweepGrid(1, 3))),
        (("extract", "-P", "5", "-k", "2", "-T", "636", "--mode", "position",
          "-N", "1000000", "--seed", "7"),
         run_bytes(1000000, ProtocolParams(N=1000000).m, 5)),
    ], ids=["maxprob", "extract"])
    def test_a_run_peaks_within_its_charge(self, tmp_path, argv, charge):
        # the preflight refuses what cannot fit, so a run that passes it must
        # not then take more than it was charged
        done = subprocess.run([sys.executable, "-c", self._LAUNCH, "-c", self._PEAK_KIB, *argv],
                              env=src_env(), cwd=tmp_path, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        assert 0 < int(done.stdout.splitlines()[-1]) * 1024 <= charge

    @pytest.mark.parametrize("argv, prefix", [
        # the charge must not factor the hash length: trial division from its
        # square root, about 1e15 here, would not end
        (("extract", "-P", "5", "-k", "2", "-T", "5", "-N", str(10**30), "--seed", "1"),
         f"a run of N = {10**30} signals needs about "),
        # from 2**1054 bytes on, the need in GiB is past a float's range
        (("evolve", "-P", str(10**330), "-k", "1", "-T", "1"),
         f"a walk over P = {10**330}, kappa = 1 needs"),
        # a coin register past numpy's index range fails before 2**kappa is
        # formed, and kappa is not printed: past 4300 digits Python cannot
        (("evolve", "-P", "3", "-k", str(10**30), "-T", "1"), "need kappa <= 61: "),
        (("maxprob", "-P", "3", "-k", "15000"), "need kappa <= 61: "),
        (("extract", "-P", "3", "-T", "1", "-N", str(10**330), "--seed", "1"),
         f"a run of N = {10**330} signals needs"),
        (("maxprob", "-P", str(10**330)), f"a sweep over P = {10**330}, kappa = 1 needs"),
        (("maxprob", "-P", "3", "--coin", "general", "--R", str(10**330)),
         "a sweep over P = 3, kappa = 1 needs"),
        (("table", "table2", "--R", str(10**330)),
         "the sweep over P = 3, kappa = 1 of table2 needs"),
    ], ids=["extract-N1e30", "evolve-P1e330", "evolve-k1e30", "maxprob-k15000",
            "extract-N1e330", "maxprob-P1e330", "maxprob-R1e330", "table-R1e330"])
    def test_a_huge_run_fails_in_the_preflight(self, tmp_path, argv, prefix):
        done = subprocess.run([sys.executable, "-m", "qwrng.cli", *argv], env=src_env(),
                              cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert done.stdout == ""
        errors = [json.loads(line) for line in done.stderr.splitlines() if '"error"' in line]
        assert len(errors) == 1
        assert errors[0]["error"].startswith(prefix)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("maxprob", "-P", "3", "--tmax", "100000000"),
        ("table", "kappa1", "--tmax", "100000000"),
        ("extract", "-P", "3", "-N", "1000", "--tmax", "100000000", "--seed", "1"),
    ], ids=["maxprob", "table", "extract"])
    def test_a_long_window_passes_the_preflight(self, tmp_path, monkeypatch,
                                                half_gib_machine, argv):
        # a sweep keeps one running best per mode, not a (t, flip) record,
        # so 1e8 steps need no more memory than one: the walk's few KiB
        class Swept(Exception):
            pass

        def sweep(P, kappa, grid, *modes):
            raise Swept(grid.t_max)

        for module in (cli, experiments):
            monkeypatch.setattr(module, "g_functions", sweep)
        monkeypatch.setattr(experiments, "pool_size", lambda sweeps: 1)  # the spy runs here
        monkeypatch.chdir(tmp_path)
        with pytest.raises(Swept, match="^100000000$"):
            main(list(argv))


class TestStepBounds:
    # a step count is an int64: at 2**63 or more it is refused before any walk
    # steps, and not printed, as kappa is not
    @pytest.mark.parametrize("argv", [
        ("evolve", "-P", "3", "-T", str(10**30)),
        ("maxprob", "-P", "3", "--tmax", str(10**30)),
        ("maxprob", "-P", "3", "--tmin", str(2**63), "--tmax", str(2**63)),
        ("table", "table1", "--tmax", str(2**63)),
        ("curve", "fig1", "--tmax", str(10**30)),
        ("extract", "-P", "3", "-N", "1000", "--seed", "1", "--tmax", str(10**30)),
        ("extract", "-P", "3", "-N", "1000", "--seed", "1", "-T", str(2**63)),
    ], ids=["evolve-T", "maxprob-tmax", "maxprob-tmin", "table", "curve", "extract",
            "extract-T"])
    def test_a_step_count_past_int64_is_refused(self, capsys, tmp_path, monkeypatch, argv):
        def must_not_run(*args, **kwargs):
            raise AssertionError("stepped a walk past the int64 range")

        for module, name in ((cli, "evolve"), (cli, "g_functions"), (cli, "run_protocol"),
                             (experiments, "g_functions")):
            monkeypatch.setattr(module, name, must_not_run)
        monkeypatch.chdir(tmp_path)  # where table, curve and extract write by default
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        errors = [json.loads(line)["error"] for line in err.splitlines() if '"error"' in line]
        assert len(errors) == 1
        assert errors[0].endswith("below 2**63")
        assert str(2**63) not in errors[0] and str(10**30) not in errors[0]
        assert not list(tmp_path.iterdir())


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

    def test_a_failed_write_keeps_the_older_pair(self, capsys, tmp_path, monkeypatch):
        # the second file fails once open: neither output may replace its older file
        older = {tmp_path / "r.record.txt": b"older record\n", tmp_path / "r.bits": b"\x01\x02"}
        for path, data in older.items():
            path.write_bytes(data)
        fail_the_nth_write(monkeypatch, 2)
        rc, out, err = run(capsys, "extract", "-P", "5", "-T", "8", "--mode", "position",
                           "-N", "20000", "-m", "2000", "--seed", "42", "-o", str(tmp_path / "r"))
        assert rc == 2
        assert out == ""
        assert last_error(err) == {"error": "[Errno 28] No space left on device"}
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == older

    def test_an_interrupt_writes_no_file(self, tmp_path):
        # SIGINT once the config line is logged, so the sweep is under way
        proc = subprocess.Popen(
            [sys.executable, "-m", "qwrng.cli", "extract", "-P", "51", "-k", "4",
             "--tmax", "1000000", "-N", "1000", "--seed", "1", "-o", "run"],
            env=src_env(), cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            assert json.loads(proc.stderr.readline())["command"] == "extract"
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 2
        assert out == ""
        assert [json.loads(line) for line in err.splitlines()] == [{"error": "interrupted"}]
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("walk", [
        ("-P", "5", "-T", "100", "--theta", "0", "--phi", "0.7"),
        ("-P", "2", "-T", "7", "--theta", "0.3", "--phi", "1.1", "--mode", "position"),
    ])
    def test_walk_with_a_certain_outcome_aborts(self, capsys, tmp_path, walk):
        # each walk's peak is 1, which rounding lifts just above 1
        rc, out, _ = run(capsys, "extract", *walk, "--coin", "general", "-N", "1000",
                         "--seed", "1", "-o", str(tmp_path / "d"), "--json")
        assert rc == 0
        doc = json.loads(out)
        assert (doc["aborted"], doc["gamma"], doc["output_bits"]) == ("true", "0.0", "0")
        assert (tmp_path / "d.bits").read_bytes() == b""

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_record_is_rendered_once(self, capsys, tmp_path, monkeypatch, json_flag):
        # each digest joins every test index or bit, so the record file and
        # the summary share one rendering of it
        digested = []
        digest = pipeline._digest
        monkeypatch.setattr(pipeline, "_digest", lambda data: digested.append(data) or digest(data))
        rc, _, _ = run(capsys, "extract", "-P", "5", "-T", "8", "--mode", "position",
                       "-N", "30000", "-m", "10001", "--seed", "3", *json_flag,
                       "-o", str(tmp_path / "r"))
        assert rc == 0
        assert len(digested) == 2  # t_subset's and q's

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

    @pytest.mark.parametrize("stem", [".", "", ".."])
    def test_output_without_a_file_stem_is_a_json_error(self, capsys, tmp_path, monkeypatch,
                                                        stem):
        monkeypatch.chdir(tmp_path)
        rc, out, err = run(capsys, "extract", "-P", "5", "-T", "8", "-N", "400",
                           "-m", "40", "--seed", "1", "-o", stem)
        assert rc == 2
        assert out == ""
        assert last_error(err)["error"] == (
            f"-o/--out needs a file stem, such as runs/r1, not {stem!r}")
        assert not list(tmp_path.iterdir())

    def test_usage_error_leaves_no_output_directory(self, capsys, tmp_path):
        rc, out, err = run(capsys, "extract", "-P", "5", "-T", "8", "-N", "400", "--eps", "2",
                           "-o", str(tmp_path / "new" / "x"))
        assert rc == 2
        assert out == ""
        assert "epsilon" in last_error(err)["error"]
        assert not list(tmp_path.iterdir())

    def test_bad_output_parent_fails_before_the_run(self, capsys, tmp_path, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran before the output path was checked")

        monkeypatch.setattr(cli, "run_protocol", must_not_run)
        monkeypatch.setattr(cli, "g_functions", must_not_run)
        blocker = tmp_path / "afile"
        blocker.write_text("")
        rc, out, err = run(capsys, "extract", "-P", "5", "--tmax", "20", "-N", "400",
                           "-m", "40", "--seed", "1", "-o", str(blocker / "run"))
        assert rc == 2
        assert out == ""
        assert str(blocker) in last_error(err)["error"]

    @pytest.mark.parametrize("taken", ["r1.bits", "r1.record.txt"])
    def test_a_directory_at_an_output_path_fails_before_the_run(self, capsys, tmp_path,
                                                                monkeypatch, taken):
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran before the output paths were checked")

        monkeypatch.setattr(cli, "run_protocol", must_not_run)
        (tmp_path / taken).mkdir()
        rc, out, err = run(capsys, "extract", "-P", "3", "-T", "5", "-N", "1000", "--seed", "1",
                           "-o", str(tmp_path / "r1"))
        assert rc == 2
        assert out == ""
        errors = [json.loads(line) for line in err.splitlines() if '"error"' in line]
        assert errors == [{"error": f"-o/--out: {tmp_path / taken} is a directory, not a file"}]
        assert sorted(p.name for p in tmp_path.iterdir()) == [taken]

    def test_lost_hash_precision_is_a_json_error(self, capsys, tmp_path, monkeypatch):
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: irfft(*a, **kw) + 0.25)
        rc, _, err = run(capsys, "extract", "-P", "5", "-T", "8",
                         "--mode", "position", "-N", "20000", "-m", "2000",
                         "--seed", "42", "-o", str(tmp_path / "p"))
        assert rc == 2
        assert "residual" in last_error(err)["error"]
        assert not (tmp_path / "p.bits").exists()

    @pytest.mark.parametrize("flag", ["--theta", "--phi"])
    def test_angle_flags_need_fixed_steps(self, capsys, tmp_path, monkeypatch, flag):
        # without -T the sweep picks theta and phi, so given ones would go unused
        def must_not_run(*args, **kwargs):
            raise AssertionError("swept despite an unused angle flag")

        monkeypatch.setattr(cli, "g_functions", must_not_run)
        rc, out, err = run(capsys, "extract", "-P", "3", "--coin", "general",
                           "--R", "2", "--tmax", "10", "-N", "10000", "--seed", "1",
                           flag, "0.3", "-o", str(tmp_path / "a"))
        assert rc == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert flag in last_error(err)["error"]
        assert not (tmp_path / "a.record.txt").exists()

    def test_angle_from_config_file_needs_fixed_steps(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("coin = general\ntheta = 0.3\n")
        rc, _, err = run(capsys, "extract", "-P", "3", "--config", str(cfg), "--R", "2",
                         "--tmax", "10", "-N", "10000", "-o", str(tmp_path / "a"))
        assert rc == 2
        assert "--theta" in last_error(err)["error"]

    @pytest.mark.parametrize("flag,value", [("--tmin", "3"), ("--tmax", "50"), ("--R", "4")])
    def test_sweep_flags_need_no_fixed_steps(self, capsys, tmp_path, monkeypatch, flag, value):
        # -T fixes the walk and no sweep runs, so a sweep window would go unused
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran despite an unused sweep flag")

        monkeypatch.setattr(cli, "run_protocol", must_not_run)
        monkeypatch.setattr(cli, "g_functions", must_not_run)
        rc, out, err = run(capsys, "extract", "-P", "3", "--coin", "general", "--theta", "0.3",
                           "-T", "4", "-N", "10000", "--seed", "1", flag, value,
                           "-o", str(tmp_path / "a"))
        assert rc == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert flag in last_error(err)["error"]
        assert not (tmp_path / "a.record.txt").exists()

    def test_sweep_window_from_config_file_needs_no_fixed_steps(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tmax = 50\n")
        rc, _, err = run(capsys, "extract", "-P", "3", "--config", str(cfg), "-T", "4",
                         "-N", "10000", "--seed", "1", "-o", str(tmp_path / "a"))
        assert rc == 2
        assert "--tmax" in last_error(err)["error"]
        assert not (tmp_path / "a.record.txt").exists()

    @pytest.mark.parametrize("flag", ["--theta", "--phi"])
    def test_angle_flags_need_the_general_coin(self, capsys, tmp_path, monkeypatch, flag):
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran despite an unused angle flag")

        monkeypatch.setattr(cli, "run_protocol", must_not_run)
        rc, out, err = run(capsys, "extract", "-P", "3", "-T", "4", "-N", "10000",
                           "--seed", "1", flag, "0.3", "-o", str(tmp_path / "a"))
        assert rc == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert flag in last_error(err)["error"]

    def test_angle_from_config_file_needs_the_general_coin(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("phi = 1.0\n")
        rc, _, err = run(capsys, "extract", "-P", "3", "--config", str(cfg), "-T", "4",
                         "-N", "10000", "--seed", "1", "-o", str(tmp_path / "a"))
        assert rc == 2
        assert "--phi" in last_error(err)["error"]
        assert not (tmp_path / "a.record.txt").exists()

    def test_hash_margin_fails_before_sampling(self, capsys, tmp_path, monkeypatch):
        # the full readout needs epsilon_pa > 2 epsilon, which is known before any draw
        def must_not_run(*args, **kwargs):
            raise AssertionError("sampled before the security parameters were checked")

        monkeypatch.setattr(pipeline, "sample_outcomes", must_not_run)
        rc, out, err = run(capsys, "extract", "-P", "5", "-T", "8", "--mode", "all",
                           "-N", "20000", "--eps", "0.4", "--eps-pa", "0.5", "--seed", "1",
                           "-o", str(tmp_path / "e"))
        assert rc == 2
        assert out == ""
        assert "epsilon_pa > 2 * epsilon" in last_error(err)["error"]
        assert not (tmp_path / "e.record.txt").exists()

    def test_run_larger_than_memory_fails_before_the_sweep(self, capsys, tmp_path, monkeypatch):
        # sampling fills preallocated arrays, so an overcommitted one could be
        # killed mid-fill; the size is checked before any sweep or draw instead
        def must_not_run(*args, **kwargs):
            raise AssertionError("swept or sampled a run that cannot fit in memory")

        monkeypatch.setattr(cli, "g_functions", must_not_run)
        monkeypatch.setattr(pipeline, "sample_outcomes", must_not_run)
        rc, out, err = run(capsys, "extract", "-P", "5", "--mode", "position",
                           "-N", str(10**12), "--seed", "1", "-o", str(tmp_path / "big"))
        assert rc == 2
        assert out == ""
        assert "memory" in last_error(err)["error"]
        assert not (tmp_path / "big.record.txt").exists()

    @pytest.mark.parametrize("extra,message", [
        (("-N", "100", "-m", "90"), "1 <= m <= N/2"),
        (("-N", "1000", "--eps", "0.4", "--eps-pa", "0.5"), "epsilon_pa > 2 * epsilon"),
        (("-N", "1000", "-Q", "2"), "Q must lie in [0, 1]"),
        (("-N", "1000", "--seed", "-1"), "run seed must be a non-negative integer"),
    ], ids=["m", "eps-pa", "Q", "seed"])
    def test_protocol_inputs_fail_before_the_sweep(self, capsys, tmp_path, monkeypatch,
                                                   extra, message):
        # the sweep only picks the walk, so it need not run to find a bad size,
        # security parameter, noise weight or seed
        def must_not_run(*args, **kwargs):
            raise AssertionError("swept before the protocol inputs were checked")

        monkeypatch.setattr(cli, "g_functions", must_not_run)
        rc, out, err = run(capsys, "extract", "-P", "21", "-k", "3", "--coin", "general",
                           "--seed", "1", *extra, "-o", str(tmp_path / "v"))
        assert rc == 2
        assert out == ""
        assert message in last_error(err)["error"]
        assert not (tmp_path / "v.record.txt").exists()

    @pytest.mark.parametrize("mode", ["memory", "position"])
    def test_hash_margin_binds_only_the_full_readout(self, capsys, tmp_path, mode):
        rc, _, _ = run(capsys, "extract", "-P", "5", "-T", "8", "--mode", mode,
                       "-N", "20000", "--eps", "0.4", "--eps-pa", "0.5", "--seed", "1",
                       "-o", str(tmp_path / "e"))
        assert rc == 0
        assert (tmp_path / "e.record.txt").exists()

    def test_angle_flags_set_the_fixed_walk(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "extract", "-P", "3", "--coin", "general", "-T", "4",
                       "--theta", "0.3", "--phi", "1.0", "-N", "10000", "--seed", "1",
                       "-o", str(tmp_path / "a"))
        assert rc == 0
        record = (tmp_path / "a.record.txt").read_text()
        assert "theta: 0.3\n" in record and "phi: 1.0\n" in record

    def test_security_defaults_are_the_protocol_defaults(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "extract", "-P", "5", "-T", "8", "-N", "400",
                         "--seed", "1", "-o", str(tmp_path / "d"), "--json")
        assert rc == 0
        doc, defaults = json.loads(out), ProtocolParams(N=400)
        assert doc["m"] == str(defaults.m)
        for key in ("epsilon", "epsilon_pa", "beta"):
            assert doc[key] == repr(getattr(defaults, key))


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

    @pytest.mark.parametrize("argv,line", [
        (("evolve", "-T", "3"), "P = [3]"),
        (("evolve", "-P", "3"), "T = 2.9"),
        (("evolve", "-P", "3", "-T", "2"), "kappa = true"),
        (("evolve", "-P", "3", "-T", "2"), "mode = both"),
        (("evolve", "-P", "3", "-T", "2"), "json = 1"),
        (("maxprob", "-P", "3"), "tmax = [5]"),
        (("maxprob", "-P", "3"), "R = null"),
        (("extract", "-P", "3", "-T", "2", "-N", "400"), "Q = {}"),
        (("evolve", "-P", "3", "-T", "2", "--coin", "general"), "phi = -Infinity"),
    ])
    def test_config_value_takes_the_flag_checks(self, capsys, tmp_path, argv, line):
        # a value its flag would refuse is one JSON error line, not a
        # traceback or a silent conversion
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        rc, out, err = run(capsys, *argv, "--config", str(cfg))
        assert rc == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert line.split(" =")[0] in last_error(err)["error"]

    def test_config_values_are_typed_like_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text('T = "2"\nmode = "memory"\ntheta = 1\ncoin = general\njson = true\n')
        rc, out, err = run(capsys, "evolve", "-P", "3", "--config", str(cfg))
        assert rc == 0
        logged = json.loads(err.splitlines()[0])["config"]
        assert (logged["T"], logged["mode"], logged["theta"]) == (2, "memory", 1.0)
        assert json.loads(out)["T"] == 2

    @pytest.mark.parametrize("head,flags,lines", [
        (("evolve",),
         ("-P", "5", "-k", "2", "-T", "7", "--mode", "position", "--coin", "general",
          "--theta", "0.3", "--phi", "-0.5", "--json"),
         'P = 5\nkappa = 2\nT = 7\nmode = "position"\ncoin = general\n'
         "theta = 0.3\nphi = -0.5\njson = true\n"),
        (("maxprob",),
         ("-P", "3", "-k", "2", "--mode", "memory", "--tmax", "5", "--flip", "x", "--json"),
         "P = 3\nkappa = 2\nmode = memory\ntmax = 5\nflip = x\njson = true\n"),
        (("table", "table2"),
         ("--tmax", "5", "--R", "2", "-o", "out", "--no-timestamp", "--format", "json"),
         "tmax = 5\nR = 2\nout = out\nno-timestamp = true\nformat = json\n"),
        (("extract",),
         ("-P", "5", "-k", "2", "-T", "8", "--mode", "position", "-N", "10000", "-m", "100",
          "-Q", "0.01", "--seed", "3", "-o", "run"),
         "P = 5\nkappa = 2\nT = 8\nmode = position\nN = 10000\nm = 100\nQ = 0.01\n"
         "seed = 3\nout = run\n"),
        (("extract",),
         ("-P", "5", "-T", "10", "-N", "1000", "--seed", "3", "-o", "run#1"),
         # '#' starts a comment only outside a JSON string value
         'P = 5\nT = 10\nN = 1000\nseed = 3  # inline comment\nout = "run#1"  # the stem\n'),
    ], ids=["evolve", "maxprob", "table", "extract-T", "extract-hash"])
    def test_config_file_runs_as_its_flags(self, capsys, tmp_path, monkeypatch,
                                           head, flags, lines):
        # one parse path: the same options from flags or from a file give
        # the same logged configuration, stdout and files
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines)
        runs = []
        for name, argv in (("flags", (*head, *flags)),
                           ("file", (*head, "--config", str(cfg)))):
            workdir = tmp_path / name
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            rc, out, err = run(capsys, *argv)
            assert rc == 0, err
            files = {str(f.relative_to(workdir)): f.read_bytes()
                     for f in sorted(workdir.rglob("*")) if f.is_file()}
            runs.append((err, out, files))
        assert runs[0] == runs[1]

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        rc, _, err = run(capsys, "maxprob", "-P", "3", "--config", str(cfg))
        assert rc == 2
        assert "bogus" in last_error(err)["error"]

    def test_thread_count_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "old.cfg"
        cfg.write_text("threads = 2\n")
        rc, _, err = run(capsys, "table", "table2", "--tmax", "1", "-o", str(tmp_path),
                         "--config", str(cfg))
        assert rc == 2
        assert "unknown config keys" in last_error(err)["error"]

    @pytest.mark.parametrize("line", ["just words", "= 4", " = 4"],
                             ids=["words", "no-key", "blank-key"])
    def test_malformed_line_rejected(self, capsys, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        rc, _, err = run(capsys, "maxprob", "-P", "3", "--config", str(cfg))
        assert rc == 2
        assert last_error(err)["error"] == f"config line is not `key = value`: {line.strip()!r}"

    def test_missing_config_file_rejected(self, capsys, tmp_path):
        rc, _, err = run(capsys, "maxprob", "-P", "3",
                         "--config", str(tmp_path / "absent.cfg"))
        assert rc == 2
        last_error(err)


class TestNonFiniteFloats:
    """nan and +-inf are usage errors where a float flag is parsed, before anything is logged."""

    def test_nan_angle_is_refused_rather_than_printed_as_json(self, capsys):
        rc, out, err = run(capsys, "evolve", "-P", "3", "-T", "2", "--coin", "general",
                           "--theta", "nan", "--json")
        assert rc == 2
        assert out == ""
        [line] = err.splitlines()
        assert json.loads(line)["error"] == "argument --theta: invalid finite float value: 'nan'"

    @pytest.mark.parametrize("flag", ["--theta", "--phi", "-Q", "--eps", "--eps-pa", "--beta"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e309"])
    def test_no_non_finite_value_reaches_the_config_line(self, capsys, tmp_path, flag, value):
        rc, out, err = run(capsys, "extract", "-P", "3", "-T", "2", "-N", "400",
                           "--coin", "general", f"{flag}={value}", "-o", str(tmp_path / "r"))
        assert rc == 2
        assert out == ""
        [line] = err.splitlines()
        assert json.loads(line)["error"].startswith(f"argument {flag}: invalid finite float")
        assert "NaN" not in err and "Infinity" not in err

    def test_negative_exponent_form_after_its_flag_is_a_value(self, capsys):
        base = ["evolve", "-P", "3", "-T", "2", "--coin", "general", "--json"]
        rc, out, err = run(capsys, *base, "--phi", "-1e-3")
        assert rc == 0
        assert json.loads(err.splitlines()[0])["config"]["phi"] == -1e-3
        assert (rc, out) == run(capsys, *base, "--phi=-1e-3")[:2]

    def test_negative_infinity_after_its_flag_is_refused_as_non_finite(self, capsys):
        rc, out, err = run(capsys, "evolve", "-P", "3", "-T", "2", "--coin", "general",
                           "--theta", "-inf")
        assert rc == 2
        assert out == ""
        [line] = err.splitlines()
        assert json.loads(line)["error"] == "argument --theta: invalid finite float value: '-inf'"

    def test_infinite_angle_fails_extract_before_the_walk(self, capsys, tmp_path, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("walked with a non-finite angle")

        for name in ("evolve", "distribution", "g_functions", "run_protocol"):
            monkeypatch.setattr(cli, name, must_not_run)
        rc, out, err = run(capsys, "extract", "-P", "3", "-T", "2", "-N", "400",
                           "--coin", "general", "--theta", "inf", "-o", str(tmp_path / "r"))
        assert rc == 2
        assert out == ""
        [line] = err.splitlines()
        assert json.loads(line)["error"] == "argument --theta: invalid finite float value: 'inf'"
        assert not list(tmp_path.iterdir())


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
        # the flip's default, I, is the walk's, as the angles' are
        assert logged["config"]["flip"] is None

    def test_an_interrupt_is_one_json_line_and_exit_2(self, tmp_path):
        # SIGINT once the config line is logged, so the sweep is under way
        proc = subprocess.Popen(
            [sys.executable, "-m", "qwrng.cli", "maxprob", "-P", "51", "-k", "4", "--tmax", "100000"],
            env=src_env(), cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            assert json.loads(proc.stderr.readline())["command"] == "maxprob"
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 2
        assert out == ""
        assert [json.loads(line) for line in err.splitlines()] == [{"error": "interrupted"}]

    def test_readme_examples_parse(self):
        # the documented commands only parse here; nothing runs
        readme = Path(__file__).resolve().parents[1] / "README.md"
        cli_section = readme.read_text(encoding="utf-8").split("## CLI", 1)[1]
        block = cli_section.split("```sh", 1)[1].split("```", 1)[0]
        examples = [shlex.split(line) for line in block.splitlines()
                    if line.startswith("qwrng ")]
        assert len(examples) >= 5
        parser = cli._build_parser()[0]
        for example in examples:
            parser.parse_args(example[1:])

    def test_import_pulls_in_no_scipy(self):
        # scipy's import costs more than the rest of the CLI's start-up
        code = ("import sys, qwrng.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        done = subprocess.run([sys.executable, "-c", code], env=src_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.strip() == "[]"

    def test_pipeline_import_pulls_in_no_maxprob(self):
        # walk steps the walk and rates turns a peak into gamma: a run needs no sweep
        code = "import sys, qwrng.pipeline; print('qwrng.maxprob' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], env=src_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.strip() == "False"
