"""Tests for the command-line entry points."""

import json
import os

import pytest

from repro.cli import campaign_main, macsio_main, model_main, sedov_main


class TestSedovMain:
    def test_solver_case_runs(self, capsys):
        rc = sedov_main(["--case", "solver64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "solver64" in out
        assert "cumulative" in out
        assert "total output" in out

    def test_unknown_case(self):
        with pytest.raises(SystemExit):
            sedov_main(["--case", "doesnotexist"])

    def test_inputs_file_override(self, tmp_path, capsys):
        inputs = tmp_path / "inputs"
        inputs.write_text(
            "max_step = 4\namr.n_cell = 64 64\namr.max_level = 1\n"
            "amr.plot_int = 2\ncastro.cfl = 0.5\nstop_time = 1e9\n"
            "amr.max_grid_size = 32\n"
        )
        rc = sedov_main(["--case", "solver64", "--inputs", str(inputs)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "64x64" in out

    @pytest.mark.parametrize("line", [
        "castro.cfl = -0.5", "castro.cfl = 0", "castro.init_shrink = -1",
    ])
    def test_inputs_file_with_non_physical_step_is_a_usage_error(self, tmp_path, capsys, line):
        inputs = tmp_path / "inputs"
        inputs.write_text("max_step = 4\namr.n_cell = 64 64\n" + line + "\n")
        with pytest.raises(SystemExit) as excinfo:
            sedov_main(["--case", "solver64", "--inputs", str(inputs)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert line.split(" = ")[0].split(".")[1] in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("line,field", [
        ("stop_time = nan", "stop_time"),
        ("amr.regrid_int = 0", "regrid_int"),
        ("amr.blocking_factor = 0", "blocking_factor"),
    ])
    def test_inputs_file_with_invalid_cadence_is_a_usage_error(
            self, tmp_path, capsys, line, field):
        inputs = tmp_path / "inputs"
        inputs.write_text("max_step = 4\namr.n_cell = 64 64\n" + line + "\n")
        with pytest.raises(SystemExit) as excinfo:
            sedov_main(["--case", "solver64", "--inputs", str(inputs)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert field in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_outdir_writes_files(self, tmp_path, capsys):
        rc = sedov_main(["--case", "solver64", "--outdir", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o").exists()


class TestMacsioMain:
    def test_listing1_invocation(self, capsys):
        rc = macsio_main([
            "-n", "4",
            "--interface", "miftmpl",
            "--parallel_file_mode", "MIF", "4",
            "--num_dumps", "3",
            "--part_size", "10000",
            "--avg_num_parts", "1",
            "--vars_per_part", "1",
            "--dataset_growth", "1.01",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 dumps" in out
        assert out.count("\n") >= 4

    BASE = ["--interface", "miftmpl", "--num_dumps", "3", "-n", "4"]

    @pytest.mark.parametrize("argv", [
        ["--nonsense", "1"],
        BASE + ["--parallel_file_mode", "MIF", "-2"],
        BASE + ["--parallel_file_mode", "MIF", "0"],
        BASE + ["--compute_time", "nan", "--timing"],
        BASE + ["--dataset_growth", "inf"],
        BASE + ["--part_size", "inf"],
        BASE[:-1] + ["0"],
    ], ids=["unknown-flag", "mif-negative", "mif-zero", "compute-time-nan",
            "growth-inf", "part-size-inf", "np-zero"])
    def test_bad_flag(self, argv, capsys):
        rc = macsio_main(argv)
        assert rc == 2
        assert "argument error:" in capsys.readouterr().err

    def test_timing_mode(self, capsys):
        rc = macsio_main([
            "-n", "2", "--num_dumps", "2", "--part_size", "1000", "--timing",
        ])
        assert rc == 0
        assert "io_fraction" in capsys.readouterr().out

    def test_help(self, capsys):
        assert macsio_main(["--help"]) == 0


class TestModelMain:
    def test_calibrates_case4(self, capsys):
        rc = model_main(["--case", "case4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dataset_growth" in out
        assert "verification" in out
        assert "macsio argv" in out


class TestCampaignMain:
    def test_limited_campaign(self, tmp_path, capsys):
        out_path = str(tmp_path / "recs.json")
        rc = campaign_main(["--out", out_path, "--limit", "3"])
        assert rc == 0
        with open(out_path) as fh:
            records = json.load(fh)
        assert len(records) == 3
        out = capsys.readouterr().out
        assert "campaign: 3 runs" in out

    def test_parallel_jobs_match_serial(self, tmp_path, capsys):
        serial_path = str(tmp_path / "serial.json")
        par_path = str(tmp_path / "par.json")
        assert campaign_main(["--out", serial_path, "--limit", "4"]) == 0
        assert campaign_main(["--out", par_path, "--limit", "4", "--jobs", "4"]) == 0
        with open(serial_path) as fh:
            serial = json.load(fh)
        with open(par_path) as fh:
            par = json.load(fh)
        assert par == serial

    def test_store_resume_skips_done_cases(self, tmp_path, capsys):
        # a single JSONL file, then (no .jsonl suffix) a shard directory
        for name in ("store.jsonl", "shards"):
            store_path = str(tmp_path / name)
            out_path = str(tmp_path / "recs.json")
            rc = campaign_main(["--out", out_path, "--limit", "3", "--store", store_path])
            assert rc == 0
            capsys.readouterr()
            rc = campaign_main(["--out", out_path, "--limit", "3",
                                "--store", store_path, "--resume"])
            assert rc == 0
            assert "(3 cached)" in capsys.readouterr().out
        assert os.path.isdir(str(tmp_path / "shards"))

    def test_store_without_resume_starts_fresh(self, tmp_path, capsys):
        store_path = str(tmp_path / "store.jsonl")
        out_path = str(tmp_path / "recs.json")
        campaign_main(["--out", out_path, "--limit", "2", "--store", store_path])
        capsys.readouterr()
        campaign_main(["--out", out_path, "--limit", "2", "--store", store_path])
        assert "cached" not in capsys.readouterr().out

    def test_resume_requires_store(self, tmp_path):
        with pytest.raises(SystemExit):
            campaign_main(["--out", str(tmp_path / "r.json"), "--resume"])
