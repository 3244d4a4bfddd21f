"""FROSTT .tns reading and writing."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.tensor import COOTensor, read_tns, write_tns


class TestReadTns:
    def test_basic(self):
        text = "1 1 1 2.5\n2 3 4 -1\n"
        t = read_tns(io.StringIO(text))
        assert t.order == 3
        assert t.nnz == 2
        assert t.shape == (2, 3, 4)  # inferred, 1-based -> 0-based
        assert t.values.tolist() == [2.5, -1.0]
        assert t.indices[1].tolist() == [1, 2, 3]

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n% matrix-market style\n1 1 3.0\n"
        t = read_tns(io.StringIO(text))
        assert t.nnz == 1

    def test_explicit_shape(self):
        t = read_tns(io.StringIO("1 1 1.0\n"), shape=(10, 10))
        assert t.shape == (10, 10)

    def test_inconsistent_arity_raises(self):
        with pytest.raises(ValueError, match="fields"):
            read_tns(io.StringIO("1 1 1 1.0\n1 1 1.0\n"))

    def test_zero_index_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            read_tns(io.StringIO("0 1 1.0\n"))

    # a '%' comment makes numpy's bulk parser give up, so each case
    # runs once through the fast path and once through the line parser
    @pytest.mark.parametrize("header", ["", "% header\n"],
                             ids=["loadtxt", "line-parser"])
    @pytest.mark.parametrize("body,bad_line,reason", [
        ("1.5 2 3 4.0\n", 1, "not an integer"),
        ("1 2 3 4.0\n2.9 1 1 1.0\n", 2, "not an integer"),
        ("1 1 1.0\n9007199254740993 1 2.0\n", 2, "2\\*\\*53"),
        ("9007199254740992 1 1.0\n", 1, "2\\*\\*53"),
        ("1 1 nan\n", 1, "not finite"),
        ("1 1 1.0\n# c\n2 2 inf\n", 3, "not finite"),
        ("1 1 -inf\n", 1, "not finite"),
        ("1 1 2.0\n1 x 2.0\n", 2, "could not convert"),
    ], ids=["fraction", "truncation", "past-2**53", "at-2**53", "nan",
            "inf", "-inf", "not-a-number"])
    def test_malformed_rows_name_the_first_offending_line(
            self, header, body, bad_line, reason):
        line = bad_line + header.count("\n")
        with pytest.raises(ValueError, match=f"line {line}: .*{reason}"):
            read_tns(io.StringIO(header + body))

    def test_largest_exact_index_is_read_exactly(self):
        t = read_tns(io.StringIO(f"{2**53 - 1} 1.0\n"))
        assert t.indices.tolist() == [[2**53 - 2]]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            read_tns(io.StringIO("# only comments\n"))

    def test_from_path(self, tmp_path):
        p = tmp_path / "t.tns"
        p.write_text("1 2 3 4.0\n")
        t = read_tns(p)
        assert t.nnz == 1


class TestWriteTns:
    def test_roundtrip_buffer(self, small_tensor):
        buf = io.StringIO()
        write_tns(small_tensor, buf)
        buf.seek(0)
        t = read_tns(buf, shape=small_tensor.shape)
        assert np.array_equal(t.indices, small_tensor.indices)
        assert np.allclose(t.values, small_tensor.values)

    def test_roundtrip_path(self, tmp_path, tensor4d):
        p = tmp_path / "t4.tns"
        write_tns(tensor4d, p)
        t = read_tns(p, shape=tensor4d.shape)
        assert np.allclose(t.to_dense(), tensor4d.to_dense())

    def test_one_based_output(self):
        t = COOTensor(np.array([[0, 0]]), np.array([1.0]), (1, 1))
        buf = io.StringIO()
        write_tns(t, buf)
        assert buf.getvalue().strip() == "1 1 1"

    def test_precision_preserved(self):
        val = 0.12345678901234567
        t = COOTensor(np.array([[0]]), np.array([val]), (1,))
        buf = io.StringIO()
        write_tns(t, buf)
        buf.seek(0)
        assert read_tns(buf).values[0] == pytest.approx(val, abs=1e-16)
