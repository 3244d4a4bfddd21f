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
