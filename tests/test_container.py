"""Binary TT container: round-trips, header validation, corruption handling."""

import json
import struct

import numpy as np
import pytest

from ttinherit import DomainError, load_tt, save_tt
from ttinherit.container import MAGIC

from conftest import make_tt


def test_round_trip_is_bit_exact(tmp_path):
    t = make_tt("gaussian", (5, 4, 3), (2, 2), seed=21)
    path = tmp_path / "t.ttc"
    save_tt(path, t, metadata={"generator": "gaussian", "seed": 21})
    loaded, meta = load_tt(path)
    assert loaded.shape == t.shape and loaded.ranks == t.ranks
    for a, b in zip(loaded.cores, t.cores):
        assert np.array_equal(a, b)  # exact, not approximate
    assert meta == {"generator": "gaussian", "seed": 21}


def test_round_trip_without_metadata(tmp_path):
    t = make_tt("hadamard", (3, 3), (2,), seed=2)
    path = tmp_path / "t.ttc"
    save_tt(path, t)
    loaded, meta = load_tt(path)
    assert meta == {}
    assert np.array_equal(loaded.cores[0], t.cores[0])


def test_save_is_deterministic(tmp_path):
    t = make_tt("uniform", (4, 4, 4), (2, 2), seed=3)
    p1, p2 = tmp_path / "a.ttc", tmp_path / "b.ttc"
    save_tt(p1, t, metadata={"k": 1})
    save_tt(p2, t, metadata={"k": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_file_layout(tmp_path):
    t = make_tt("gaussian", (3, 2), (2,), seed=4)
    path = tmp_path / "t.ttc"
    save_tt(path, t)
    blob = path.read_bytes()
    assert blob.startswith(MAGIC)
    (hlen,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12 : 12 + hlen])
    assert header["d"] == 2
    assert header["shape"] == [3, 2]
    assert header["ranks"] == [2]
    payload = blob[12 + hlen :]
    assert len(payload) == (1 * 3 * 2 + 2 * 2 * 1) * 8
    # cores are little-endian float64 with the left rank varying fastest
    first_core = np.frombuffer(payload[: 3 * 2 * 8], dtype="<f8").reshape(
        (1, 3, 2), order="F"
    )
    assert np.array_equal(first_core, t.cores[0])


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ttc"
    path.write_bytes(b"NOTATTC1" + b"\x00" * 16)
    with pytest.raises(DomainError):
        load_tt(path)


def test_rejects_truncated_cores(tmp_path):
    t = make_tt("gaussian", (3, 2), (2,), seed=4)
    path = tmp_path / "t.ttc"
    save_tt(path, t)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(DomainError):
        load_tt(path)


def test_rejects_a_header_longer_than_the_file(tmp_path):
    path = tmp_path / "t.ttc"
    path.write_bytes(MAGIC + struct.pack("<I", 1000) + b"{}")
    with pytest.raises(DomainError, match="truncated container header"):
        load_tt(path)


def test_rejects_cores_larger_than_the_file(tmp_path):
    # 8e15 bytes of core 1 declared: refused before any buffer is allocated
    header = json.dumps({"d": 2, "shape": [10**15, 1], "ranks": [1], "metadata": {}}).encode()
    path = tmp_path / "t.ttc"
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header + b"\x00" * 16)
    with pytest.raises(DomainError, match="truncated core 1"):
        load_tt(path)


def test_rejects_trailing_bytes(tmp_path):
    t = make_tt("gaussian", (3, 2), (2,), seed=4)
    path = tmp_path / "t.ttc"
    save_tt(path, t)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DomainError):
        load_tt(path)


def test_rejects_corrupt_header(tmp_path):
    t = make_tt("gaussian", (3, 2), (2,), seed=4)
    path = tmp_path / "t.ttc"
    save_tt(path, t)
    blob = bytearray(path.read_bytes())
    blob[12] = ord("X")  # breaks the JSON object opening brace
    path.write_bytes(bytes(blob))
    with pytest.raises(DomainError):
        load_tt(path)


def test_rejects_inconsistent_header(tmp_path):
    header = json.dumps({"d": 3, "shape": [3, 2], "ranks": [2], "metadata": {}}).encode()
    path = tmp_path / "t.ttc"
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
    with pytest.raises(DomainError):
        load_tt(path)


def test_rejects_truncated_header_length(tmp_path):
    path = tmp_path / "t.ttc"
    path.write_bytes(MAGIC + b"\x05\x00")  # two of the four length bytes
    with pytest.raises(DomainError, match="header length"):
        load_tt(path)


@pytest.mark.parametrize(
    "shape, ranks", [([2, -3], [2]), ([0, 3], [2]), ([2, 3], [0]), ([2, 3, 2], [2, -1])]
)
def test_rejects_sizes_below_one(tmp_path, shape, ranks):
    header = json.dumps({"d": len(shape), "shape": shape, "ranks": ranks, "metadata": {}}).encode()
    path = tmp_path / "t.ttc"
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
    with pytest.raises(DomainError, match="must be >= 1"):
        load_tt(path)


@pytest.mark.parametrize(
    "d, shape, ranks", [(2, [2.5, 3], [2]), (2, [2, 3], [True]), (2.5, [2, 3], [2]), (2, ["2", 3], [2])]
)
def test_rejects_sizes_that_are_not_integers(tmp_path, d, shape, ranks):
    header = json.dumps({"d": d, "shape": shape, "ranks": ranks, "metadata": {}}).encode()
    path = tmp_path / "t.ttc"
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
    with pytest.raises(DomainError, match="expected an integer"):
        load_tt(path)


def test_takes_integral_float_sizes(tmp_path):
    header = json.dumps({"d": 2.0, "shape": [2.0, 3], "ranks": [1.0], "metadata": {}}).encode()
    path = tmp_path / "t.ttc"
    cores = np.arange(5.0).astype("<f8").tobytes()  # a 1x2x1 and a 1x3x1 core
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header + cores)
    t, _ = load_tt(path)
    assert t.shape == (2, 3) and t.ranks == (1,)
