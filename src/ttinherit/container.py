"""Flat binary container for TT tensors, so runs are replayable bit-for-bit.

Layout (all little-endian):

    bytes 0..7    magic ``b"TTCHAIN1"``
    bytes 8..11   uint32: byte length H of the JSON header
    bytes 12..    H bytes of UTF-8 JSON:
                  {"d": int, "shape": [n_1..n_d], "ranks": [r_1..r_{d-1}],
                   "metadata": {...}}   (metadata is free-form, e.g. the
                   generator kind and seed that produced the tensor)
    then          cores 1..d in order, each as float64 values in
                  (left-rank fastest, then mode, then right-rank) order,
                  i.e. core.ravel(order="F")

Core byte counts follow from the header (r_{k-1} * n_k * r_k * 8), so the
file has no per-core framing.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import DomainError
from .multiindex import _integer
from .tt import TTTensor

__all__ = ["MAGIC", "save_tt", "load_tt"]

MAGIC = b"TTCHAIN1"


def save_tt(path, t: TTTensor, metadata: dict | None = None) -> None:
    """Write ``t`` (plus optional JSON-serializable metadata) to ``path``."""
    header = {
        "d": t.d,
        "shape": list(t.shape),
        "ranks": list(t.ranks),
        "metadata": metadata if metadata is not None else {},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for core in t.cores:
            f.write(core.astype("<f8", copy=False).tobytes(order="F"))


def load_tt(path) -> tuple[TTTensor, dict]:
    """Read a container written by :func:`save_tt`; returns (tensor, metadata)."""
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise DomainError(f"{path}: not a TT container (bad magic {magic!r})")
        field = f.read(4)
        if len(field) != 4:
            raise DomainError(f"{path}: truncated container header length")
        (hlen,) = struct.unpack("<I", field)
        try:
            header = json.loads(f.read(hlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DomainError(f"{path}: corrupt container header: {exc}") from exc
        try:
            d = _integer(header["d"])
            shape = [_integer(n) for n in header["shape"]]
            ranks = [_integer(r) for r in header["ranks"]]
            metadata = header.get("metadata", {})
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"{path}: malformed container header: {exc}") from exc
        if len(shape) != d or len(ranks) != d - 1:
            raise DomainError(f"{path}: header shape/ranks inconsistent with d={d}")
        if min(shape + ranks) < 1:
            raise DomainError(f"{path}: header sizes must be >= 1, got shape {shape}, ranks {ranks}")
        bounds = [1] + ranks + [1]
        cores = []
        for k in range(d):
            r_in, n, r_out = bounds[k], shape[k], bounds[k + 1]
            need = r_in * n * r_out * 8
            buf = f.read(need)
            if len(buf) != need:
                raise DomainError(f"{path}: truncated core {k + 1}")
            cores.append(
                np.frombuffer(buf, dtype="<f8").reshape((r_in, n, r_out), order="F")
            )
        if f.read(1):
            raise DomainError(f"{path}: trailing bytes after last core")
    return TTTensor(cores), metadata
