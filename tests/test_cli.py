"""Command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestDatasets:
    def test_prints_registry(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("delicious3d", "nell1", "synt3d", "flickr",
                     "delicious4d"):
            assert name in out
        assert "140,126,181" in out


class TestDecompose:
    def test_qcoo_on_analogue(self, capsys):
        assert main(["decompose", "--dataset", "synt3d", "--nnz", "800",
                     "--iterations", "2", "--algorithm", "cstf-qcoo",
                     "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "cstf-qcoo" in out
        assert "fit" in out
        assert "shuffles" in out

    def test_bigtensor_prints_hadoop_stats(self, capsys):
        assert main(["decompose", "--dataset", "synt3d", "--nnz", "600",
                     "--iterations", "1", "--algorithm", "bigtensor",
                     "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "hadoop" in out
        assert "HDFS" in out

    def test_nonnegative_flag(self, capsys):
        assert main(["decompose", "--dataset", "synt3d", "--nnz", "500",
                     "--iterations", "1", "--nonnegative",
                     "--nodes", "2"]) == 0

    def test_sampler_flag(self, capsys):
        assert main(["decompose", "--dataset", "synt3d", "--nnz", "800",
                     "--iterations", "2", "--algorithm", "cstf-coo",
                     "--nodes", "2", "--sampler", "lev",
                     "--sample-count", "64"]) == 0
        out = capsys.readouterr().out
        assert "[sampled estimate]" in out
        assert "sampler" in out
        assert "draws" in out

    def test_exact_prints_no_sampler_line(self, capsys):
        assert main(["decompose", "--dataset", "synt3d", "--nnz", "500",
                     "--iterations", "1", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "[sampled estimate]" not in out
        assert "draws" not in out

    def test_tns_file(self, tmp_path, capsys):
        from repro.tensor import uniform_sparse, write_tns
        path = tmp_path / "t.tns"
        write_tns(uniform_sparse((8, 8, 8), 60, rng=0), path)
        assert main(["decompose", "--tns", str(path), "--iterations",
                     "2", "--nodes", "2"]) == 0
        assert str(path) in capsys.readouterr().out


class TestDecomposeConf:
    """The env-backed flags and ``$REPRO_*`` variables are validated by
    the conf before the tensor loads: a bad value is a usage error
    (exit 2) carrying the conf's message, never a traceback."""

    ARGS = ["decompose", "--dataset", "synt3d", "--nnz", "300",
            "--iterations", "1", "--nodes", "2"]

    @pytest.fixture(autouse=True)
    def clean_env(self, monkeypatch):
        for var in ("REPRO_BACKEND", "REPRO_BACKEND_WORKERS",
                    "REPRO_KERNEL"):
            monkeypatch.delenv(var, raising=False)

    def rejected(self, capsys, *flags) -> str:
        assert main([*self.ARGS, *flags]) == 2
        out, err = capsys.readouterr()
        assert out == ""   # nothing ran, the tensor was not even built
        assert err.startswith("repro decompose: error: invalid ")
        assert "Traceback" not in err
        return err.strip()

    @pytest.mark.parametrize("var,value,message", [
        ("REPRO_BACKEND", "mpi", "invalid backend 'mpi' (from "
         "$REPRO_BACKEND): expected one of serial, process"),
        ("REPRO_KERNEL", "fast", "invalid kernel 'fast' (from "
         "$REPRO_KERNEL): expected one of vectorized, record")],
        ids=["backend", "kernel"])
    def test_bad_env_value(self, monkeypatch, capsys, var, value,
                           message):
        monkeypatch.setenv(var, value)
        assert self.rejected(capsys) == f"repro decompose: error: {message}"

    def test_bad_flag_value(self, capsys):
        assert self.rejected(capsys, "--backend-workers", "0") == (
            "repro decompose: error: invalid backend_workers 0 (from "
            "--backend-workers): expected an integer >= 1")

    def test_threads_backend_is_rejected(self, capsys):
        assert self.rejected(capsys, "--backend", "threads") == (
            "repro decompose: error: invalid backend 'threads' (from "
            "--backend): expected one of serial, process")

    def test_flag_names_compare_case_insensitively(self, capsys):
        assert main([*self.ARGS, "--backend", "SERIAL"]) == 0
        assert "fit" in capsys.readouterr().out


class TestCommunication:
    def test_reports_reduction(self, capsys):
        assert main(["communication", "--dataset", "nell1",
                     "--nnz", "1200", "--nodes", "4"]) == 0
        out = capsys.readouterr().out
        assert "MTTKRP-1" in out
        assert "QCOO reduction" in out


class TestSweep:
    def test_two_algorithms(self, capsys):
        assert main(["sweep", "--dataset", "nell1", "--nnz", "1000",
                     "--node-counts", "4", "8"]) == 0
        out = capsys.readouterr().out
        assert "cstf-coo" in out
        assert "cstf-qcoo" in out

    def test_bigtensor_skipped_for_fourth_order(self, capsys):
        assert main(["sweep", "--dataset", "flickr", "--nnz", "1000",
                     "--algorithms", "cstf-qcoo", "bigtensor",
                     "--node-counts", "4"]) == 0
        captured = capsys.readouterr()
        assert "skipping bigtensor" in captured.err
        assert "cstf-qcoo" in captured.out

    def test_unknown_command_rejected(self):
        for command in ("tuck", "tucker"):
            with pytest.raises(SystemExit):
                main([command])


class TestRanksweep:
    def test_prints_table_and_suggestion(self, capsys):
        assert main(["ranksweep", "--dataset", "synt3d", "--nnz", "500",
                     "--ranks", "1", "2", "--iterations", "3"]) == 0
        out = capsys.readouterr().out
        assert "corcondia" in out
        assert "suggested rank" in out


class TestAdvise:
    def test_recommends_with_reasons(self, capsys):
        assert main(["advise", "--dataset", "delicious3d",
                     "--nnz", "1500", "--nodes", "32"]) == 0
        out = capsys.readouterr().out
        assert "recommended variant" in out
        assert "skew (gini)" in out
        assert "fiber collapse" in out
