"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import load_matrix, main
from repro.sparse import CSRMatrix, write_matrix_market


class TestLoadMatrix:
    def test_synth_spec(self):
        m = load_matrix("synth:banded:n=100,bandwidth=2")
        assert m.shape == (100, 100)

    def test_synth_defaults_need_size(self):
        with pytest.raises(TypeError):
            load_matrix("synth:banded")  # n is required

    def test_synth_float_param(self):
        m = load_matrix("synth:unstructured:n=50,density=0.1")
        assert m.shape == (50, 50)

    def test_synth_string_param(self):
        m = load_matrix("synth:mesh2d:nx=8,value_style=exact")
        assert m.row_nnz().max() == 5

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown synthetic kind"):
            load_matrix("synth:bogus:n=10")

    def test_bad_param_format(self):
        with pytest.raises(ValueError, match="key=value"):
            load_matrix("synth:banded:n")

    def test_mtx_path(self, tmp_path):
        m = CSRMatrix.from_dense(np.eye(4))
        path = tmp_path / "id.mtx"
        write_matrix_market(m, path)
        loaded = load_matrix(str(path))
        np.testing.assert_array_equal(loaded.to_dense(), np.eye(4))


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "synth:banded:n=200,bandwidth=3"]) == 0
        out = capsys.readouterr().out
        assert "200 x 200" in out
        assert "12 B/nnz baseline" in out

    def test_compress_dsh_verify(self, capsys):
        rc = main(["compress", "synth:banded:n=400,bandwidth=3", "--verify"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "B/nnz" in out
        assert "bit-exact round trip" in out

    def test_compress_auto(self, capsys):
        rc = main(["compress", "synth:banded:n=300,bandwidth=2", "--scheme", "auto"])
        assert rc == 0
        assert "autotune winner" in capsys.readouterr().out

    def test_compress_simulate(self, capsys):
        rc = main(["compress", "synth:mesh2d:nx=30", "--simulate", "--sample-blocks", "1"])
        assert rc == 0
        assert "UDP (64-lane" in capsys.readouterr().out

    def test_spmv(self, capsys):
        rc = main(["spmv", "synth:banded:n=600,bandwidth=4", "--memory", "hbm2",
                   "--sample-blocks", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "HBM2" in out
        assert "Max Uncompressed" in out
        assert "Decomp(UDP+CPU)" in out

    def test_suite_listing(self, capsys):
        rc = main(["suite", "--count", "12", "--show", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "synth_" in out

    def test_suite_with_compress(self, capsys):
        rc = main(["suite", "--count", "6", "--scale", "0.0005", "--compress", "2"])
        assert rc == 0
        assert "DSH geomean" in capsys.readouterr().out

    def test_pack_unpack_roundtrip(self, tmp_path, capsys):
        dsh = tmp_path / "m.dsh"
        mtx = tmp_path / "m.mtx"
        rc = main(["pack", "synth:banded:n=300,bandwidth=3", str(dsh)])
        assert rc == 0
        assert "packed" in capsys.readouterr().out
        rc = main(["unpack", str(dsh), str(mtx)])
        assert rc == 0
        from repro.cli import load_matrix

        original = load_matrix("synth:banded:n=300,bandwidth=3")
        back = load_matrix(str(mtx))
        np.testing.assert_array_equal(back.val, original.val)
        np.testing.assert_array_equal(back.col_idx, original.col_idx)

    def test_pack_auto_scheme(self, tmp_path, capsys):
        dsh = tmp_path / "a.dsh"
        assert main(["pack", "synth:mesh2d:nx=20", str(dsh), "--scheme", "auto"]) == 0

    def test_scrub_healthy_and_corrupted(self, tmp_path, capsys):
        dsh = tmp_path / "s.dsh"
        assert main(["pack", "synth:banded:n=300,bandwidth=3", str(dsh)]) == 0
        capsys.readouterr()
        assert main(["scrub", str(dsh)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "healthy" in out
        data = bytearray(dsh.read_bytes())
        data[len(data) * 2 // 3] ^= 0x20
        bad = tmp_path / "bad.dsh"
        bad.write_bytes(bytes(data))
        assert main(["scrub", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "UNHEALTHY" in out

    def test_scrub_json(self, tmp_path, capsys):
        import json

        dsh = tmp_path / "j.dsh"
        assert main(["pack", "synth:banded:n=300,bandwidth=3", str(dsh)]) == 0
        capsys.readouterr()
        assert main(["scrub", str(dsh), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["healthy"] is True
        assert report["blocks_bad"] == 0

    def test_spmv_fault_plan_degrade(self, capsys):
        rc = main(["spmv", "synth:banded:n=600,bandwidth=3", "--policy", "degrade",
                   "--fault-plan", "seed=7,bitflip-blocks=1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault plan armed" in out
        assert "chaos:" in out and "quarantined=1" in out

    def test_spmv_chaos_line_counts_this_call_only(self, capsys):
        """The chaos summary reports the run it follows, not the totals of
        every earlier run in the process."""
        argv = ["spmv", "synth:banded:n=600,bandwidth=3", "--policy", "degrade",
                "--fault-plan", "seed=7,bitflip-blocks=1"]
        for _ in range(2):
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert "quarantined=1 " in out and "degraded_blocks=1 " in out

    def test_spmv_fault_plan_strict_fails(self, capsys):
        rc = main(["spmv", "synth:banded:n=600,bandwidth=3",
                   "--fault-plan", "seed=7,bitflip-blocks=1"])
        assert rc == 1
        assert "error: block 1" in capsys.readouterr().err

    def test_spmv_bad_fault_plan_spec(self, capsys):
        rc = main(["spmv", "synth:banded:n=200,bandwidth=2",
                   "--fault-plan", "seed=7,bogus=1"])
        assert rc == 1
        assert "unknown fault-plan key" in capsys.readouterr().err

    def test_error_path_returns_1(self, capsys):
        rc = main(["info", "/nonexistent/file.mtx"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_synth_spec_returns_1(self, capsys):
        assert main(["info", "synth:bogus:n=1"]) == 1
