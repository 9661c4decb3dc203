"""Binary checkpoint format tests."""

import struct
import time
from collections import OrderedDict

import numpy as np
import pytest

from fvig.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from fvig.checksuite import micro_config
from fvig.cli import main
from fvig.model import FViGModel


def test_roundtrip_preserves_everything(tmp_path):
    rng = np.random.default_rng(0)
    tensors = OrderedDict(
        [
            ("a.weight", rng.normal(size=(3, 4))),
            ("a.bias", rng.normal(size=4)),
            ("scalarish", rng.normal(size=(1,))),
            ("deep", rng.normal(size=(2, 3, 2))),
        ]
    )
    path = tmp_path / "model.fvig"
    save_checkpoint(path, tensors, header="dim=32\ndepth=2\n")
    header, loaded = load_checkpoint(path)
    assert header == "dim=32\ndepth=2\n"
    assert list(loaded) == list(tensors)
    for name in tensors:
        np.testing.assert_array_equal(loaded[name], tensors[name])
        assert loaded[name].dtype == np.float64


def test_empty_header_roundtrip(tmp_path):
    path = tmp_path / "m.fvig"
    save_checkpoint(path, {"x": np.zeros(2)})
    header, loaded = load_checkpoint(path)
    assert header == ""
    assert sum(a.size for a in loaded.values()) == 2


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.fvig"
    path.write_bytes(b"JUNKxxxxxxxxxxxxxxxx")
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_truncated_rejected(tmp_path):
    path = tmp_path / "m.fvig"
    save_checkpoint(path, {"x": np.arange(8.0)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)
    # a shape whose element count wraps to 0 in 64-bit arithmetic
    path.write_bytes(blob[: 4 * 5 + 1] + struct.pack("<4I", 3, 2**31, 2**31, 4))
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "m.fvig"
    save_checkpoint(path, {"x": np.zeros(1)})
    blob = bytearray(path.read_bytes())
    blob[4] = 99  # version field
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_non_utf8_text_rejected(tmp_path):
    path = tmp_path / "m.fvig"
    save_checkpoint(path, {"x": np.zeros(1)}, header="h=1\n")
    blob = path.read_bytes()
    header_at = 12  # magic, version, header length
    name_at = header_at + 4 + 4 + 4  # header "h=1\n", tensor count, name length
    for offset, what in ((header_at, "header"), (name_at, "name")):
        bad = bytearray(blob)
        bad[offset] = 0xFF
        path.write_bytes(bytes(bad))
        with pytest.raises(CheckpointError, match=f"{what} .* not valid UTF-8"):
            load_checkpoint(path)


def test_rank_beyond_numpy_limit_rejected(tmp_path):
    # One bit flip turns the first record's rank 2 into 65,538. Its dims then run
    # on into later records, where a zero bias makes their product 0, so the
    # payload is read in full and only numpy's dimension limit can reject the shape.
    path = tmp_path / "m.fvig"
    FViGModel(micro_config(), rng=np.random.default_rng(0)).save(path)
    blob = bytearray(path.read_bytes())
    header_len = struct.unpack_from("<I", blob, 8)[0]
    name_len = struct.unpack_from("<I", blob, 16 + header_len)[0]
    rank_at = 20 + header_len + name_len
    assert struct.unpack_from("<I", blob, rank_at)[0] == 2
    blob[rank_at + 2] ^= 1
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="'embed.weight'.* rank 65538"):
        load_checkpoint(path)
    assert main(["eval", "--checkpoint", str(path), "--synth", "--out", str(tmp_path / "ev")]) == 2


def test_huge_corrupt_rank_rejected_in_linear_time(tmp_path):
    # rank 131,072 with every dim 0xFFFFFFFF: the claimed size is checked without a bigint product
    rank = 131_072
    path = tmp_path / "m.fvig"
    path.write_bytes(
        b"FVIG" + struct.pack("<4I", 1, 0, 1, 1) + b"x" + struct.pack("<I", rank) + b"\xff" * (4 * rank)
    )
    started = time.perf_counter()
    with pytest.raises(CheckpointError, match="truncated .*payload of 'x'"):
        load_checkpoint(path)
    assert time.perf_counter() - started < 2.0


def test_duplicate_record_rejected(tmp_path):
    def record(value: float) -> bytes:
        return struct.pack("<I", 1) + b"w" + struct.pack("<2I", 1, 2) + np.full(2, value, dtype="<f8").tobytes()

    path = tmp_path / "m.fvig"
    path.write_bytes(b"FVIG" + struct.pack("<3I", 1, 0, 2) + record(1.0) + record(5.0))
    with pytest.raises(CheckpointError, match="duplicate record 'w'"):
        load_checkpoint(path)


def test_zero_size_and_scalar_records_roundtrip(tmp_path):
    tensors = {"empty": np.zeros((3, 0, 2)), "scalar": np.array(2.5), "after": np.arange(4.0)}
    path = tmp_path / "m.fvig"
    save_checkpoint(path, tensors)
    _, loaded = load_checkpoint(path)
    assert list(loaded) == list(tensors)
    for name, arr in tensors.items():
        assert loaded[name].shape == arr.shape
        np.testing.assert_array_equal(loaded[name], arr)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "m.fvig"
    save_checkpoint(path, {"x": np.zeros(1)})
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_payload_is_little_endian_f64(tmp_path):
    path = tmp_path / "m.fvig"
    save_checkpoint(path, {"v": np.array([1.0])})
    blob = path.read_bytes()
    # the last 8 bytes are the single float64 payload
    assert blob[-8:] == np.array([1.0], dtype="<f8").tobytes()


def test_save_twice_is_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {"w": rng.normal(size=(4, 4)), "b": rng.normal(size=4)}
    p1, p2 = tmp_path / "a.fvig", tmp_path / "b.fvig"
    save_checkpoint(p1, tensors, header="h=1\n")
    save_checkpoint(p2, tensors, header="h=1\n")
    assert p1.read_bytes() == p2.read_bytes()


def test_failed_save_leaves_old_file_and_no_temp(tmp_path, monkeypatch):
    import fvig.checkpoint as ckpt

    path = tmp_path / "m.fvig"
    save_checkpoint(path, {"x": np.arange(3.0)}, header="old")
    before = path.read_bytes()

    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(ckpt.os, "replace", broken_replace)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, {"x": np.ones(5)}, header="new")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.fvig"]
