import json
import os
import struct

import numpy as np
import pytest

from sublm.checkpoint import MAGIC, Checkpoint
from sublm.errors import ConfigError, VocabMismatchError


def make_checkpoint(rng):
    return Checkpoint(
        config={"variant": "syl-sum", "d_s": 8},
        vocab_hashes={"words": "aa", "subwords": "bb"},
        epoch=3,
        best_val_ppl=123.456789012345,
        arrays={
            "e_s": rng.normal(size=(5, 3)),
            "lm.b": rng.normal(size=7),
            "scalarish": rng.normal(size=(1,)),
            "f32": rng.normal(size=(2, 2)).astype(np.float32),
        },
    )


class TestRoundtrip:
    def test_bitwise(self, tmp_path, rng):
        ckpt = make_checkpoint(rng)
        path = tmp_path / "m.ckpt"
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.config == ckpt.config
        assert loaded.vocab_hashes == ckpt.vocab_hashes
        assert loaded.epoch == 3
        assert loaded.best_val_ppl == ckpt.best_val_ppl
        for name, arr in ckpt.arrays.items():
            assert loaded.arrays[name].dtype == arr.dtype
            assert np.array_equal(loaded.arrays[name], arr)

    def test_save_is_deterministic(self, tmp_path, rng):
        ckpt = make_checkpoint(rng)
        ckpt.save(tmp_path / "a.ckpt")
        ckpt.save(tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_magic_guard(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ConfigError):
            Checkpoint.load(path)

    def test_magic_bytes_lead_the_file(self, tmp_path, rng):
        path = tmp_path / "m.ckpt"
        make_checkpoint(rng).save(path)
        assert path.read_bytes()[:4] == MAGIC


class TestAtomicSave:
    def test_failed_save_keeps_existing_file(self, tmp_path, rng):
        ckpt = make_checkpoint(rng)
        path = tmp_path / "m.ckpt"
        ckpt.save(path)
        before = path.read_bytes()
        ckpt.arrays["ids"] = np.arange(3)  # int64 has no dtype tag
        with pytest.raises(KeyError):
            ckpt.save(path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.ckpt"]


def _file(header, tail=struct.pack("<I", 0)):
    raw = header if isinstance(header, bytes) else json.dumps(header).encode()
    return MAGIC + struct.pack("<I", len(raw)) + raw + tail


def _array(tag=b"d", name=b"w", dims=(2,), data=b"\0" * 16):
    return (struct.pack("<I", 1) + struct.pack("<H", len(name)) + name + tag
            + struct.pack("<B", len(dims)) + struct.pack(f"<{len(dims)}Q", *dims)
            + data)


GOOD_HEADER = {"format_version": 1, "config": {}, "vocab_hashes": {},
               "epoch": 0, "best_val_ppl": 1.0}


class TestMalformed:
    def test_handmade_file_loads(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(_file(GOOD_HEADER, _array()))
        assert Checkpoint.load(path).arrays["w"].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("data", [
        _file(dict(GOOD_HEADER, format_version=2)),
        _file([1, 2]),
        _file(b"{not json}"),
        _file(b"\xff\xfe"),
        _file({"format_version": 1}),
        _file(GOOD_HEADER, _array(tag=b"q")),
        _file(GOOD_HEADER, _array(name=b"\xff")),
        _file(GOOD_HEADER, _array(dims=(2 ** 62, 4))),
        # a zero-size shape passes the byte count whatever its other dims
        _file(GOOD_HEADER, _array(dims=(0, 2 ** 64 - 1), data=b"")),
        _file(GOOD_HEADER, _array(dims=(0, 2 ** 62), data=b"")),
        _file(GOOD_HEADER, _array(dims=(1,) * 65, data=b"\0" * 8)),
    ], ids=["version", "not-an-object", "json", "utf8", "missing-keys",
            "dtype-tag", "array-name", "huge-dims", "zero-size-dim-beyond-intp",
            "zero-size-too-big", "65-dims"])
    def test_malformed_file_is_config_error(self, tmp_path, data):
        path = tmp_path / "m.ckpt"
        path.write_bytes(data)
        with pytest.raises(ConfigError):
            Checkpoint.load(path)

    def test_every_truncation_is_config_error(self, tmp_path, rng):
        path = tmp_path / "m.ckpt"
        make_checkpoint(rng).save(path)
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(ConfigError):
                Checkpoint.load(path)


class TestVocabGuard:
    def test_matching_hashes_pass(self, rng):
        ckpt = make_checkpoint(rng)
        ckpt.verify_vocabs({"words": "aa", "subwords": "bb"})

    def test_mismatch_raises(self, rng):
        ckpt = make_checkpoint(rng)
        with pytest.raises(VocabMismatchError):
            ckpt.verify_vocabs({"words": "aa", "subwords": "XX"})
