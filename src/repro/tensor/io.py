"""FROSTT ``.tns`` text format I/O.

The paper's datasets come from FROSTT (frostt.io).  The format is one
nonzero per line: ``i_1 i_2 ... i_N value`` with **1-based** indices,
whitespace-separated; ``#`` starts a comment.  Reading a real FROSTT
download therefore drops straight into the library in place of the
synthetic analogues.
"""

from __future__ import annotations

import gzip
import io
import os
import warnings
from typing import Sequence

import numpy as np

from .coo import COOTensor


def _open_text(path, mode: str):
    """Open a text file, transparently gunzipping ``.gz`` paths (FROSTT
    distributes its tensors gzipped)."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


#: float64 holds every integer below 2**53 exactly; a parsed index at
#: or above it may already have been rounded to its neighbour
_EXACT_INDEX_LIMIT = 2.0 ** 53

_FAULTS = (".tns indices must be >= 1",
           "index at or above 2**53 cannot be read exactly",
           "index is not an integer",
           "value is not finite")


def _first_fault(data: np.ndarray) -> tuple[int, str] | None:
    """``(row, reason)`` of the first parsed row that is not a valid
    nonzero — an index below 1, at or above 2**53 or not integral, or
    a non-finite value — or ``None`` when every row is."""
    idx, vals = data[:, :-1], data[:, -1]
    faults = ((idx < 1).any(axis=1), (idx >= _EXACT_INDEX_LIMIT).any(axis=1),
              (idx != np.floor(idx)).any(axis=1), ~np.isfinite(vals))
    firsts = [int(np.argmax(f)) if f.any() else len(data) for f in faults]
    row = min(firsts)
    return None if row == len(data) else (row, _FAULTS[firsts.index(row)])


def _coo(data: np.ndarray, shape: Sequence[int] | None) -> COOTensor:
    # FROSTT is 1-based
    return COOTensor(data[:, :-1].astype(np.int64) - 1, data[:, -1], shape)


def read_tns(path: str | os.PathLike | io.TextIOBase,
             shape: Sequence[int] | None = None) -> COOTensor:
    """Read a FROSTT ``.tns`` (or ``.tns.gz``) file into a
    :class:`COOTensor`.

    ``shape`` overrides the inferred mode sizes (FROSTT files do not
    carry an explicit header).  Malformed input — ragged lines, a
    field that is not a number, an index that is not an integer in
    ``[1, 2**53)``, a non-finite value — raises a ``ValueError`` naming
    the first offending line.
    """
    close = False
    if isinstance(path, io.TextIOBase):
        fh = path
    else:
        fh = _open_text(path, "r")
        close = True
    try:
        # fast path: numpy's bulk parser takes well-formed input ('#'
        # comments); anything else is re-parsed line by line below,
        # which names the first offending line
        pos = fh.tell()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, comments="#", ndmin=2)
            if data.shape[1] >= 2 and _first_fault(data) is None:
                return _coo(data, shape)
        except ValueError:
            pass
        fh.seek(pos)
        rows: list[list[float]] = []
        linenos: list[int] = []
        order: int | None = None
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            fields = line.split()
            if order is None:
                order = len(fields) - 1
                if order < 1:
                    raise ValueError(
                        f"line {lineno}: need at least one index and a value")
            elif len(fields) != order + 1:
                raise ValueError(
                    f"line {lineno}: expected {order + 1} fields, "
                    f"got {len(fields)}")
            try:
                rows.append([float(f) for f in fields])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            linenos.append(lineno)
        if not rows:
            raise ValueError("empty .tns input")
        data = np.asarray(rows, dtype=np.float64)
        fault = _first_fault(data)
        if fault is not None:
            row, reason = fault
            raise ValueError(f"line {linenos[row]}: {reason}")
        return _coo(data, shape)
    finally:
        if close:
            fh.close()


def write_tns(tensor: COOTensor,
              path: str | os.PathLike | io.TextIOBase) -> None:
    """Write a :class:`COOTensor` in FROSTT ``.tns`` format (1-based);
    a ``.gz`` suffix gzips the output."""
    close = False
    if isinstance(path, io.TextIOBase):
        fh = path
    else:
        fh = _open_text(path, "w")
        close = True
    try:
        idx = tensor.indices + 1
        vals = tensor.values
        for z in range(tensor.nnz):
            coords = " ".join(str(int(i)) for i in idx[z])
            fh.write(f"{coords} {vals[z]:.17g}\n")
    finally:
        if close:
            fh.close()
