"""Binary checkpoints: magic ``SLM1``, JSON header, named raw arrays.

Layout: 4 magic bytes, u32 header length, UTF-8 JSON header (format version,
config echo, vocabulary hashes, epoch, best validation perplexity), u32
array count, then per array: u16 name length, name, one dtype byte
('d' = float64, 'f' = float32), u8 ndim, u64 dims, raw little-endian data.
Saving and loading round-trips bit for bit.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, VocabMismatchError

MAGIC = b"SLM1"
FORMAT_VERSION = 1

_DTYPES = {b"d": np.dtype("<f8"), b"f": np.dtype("<f4")}
_TAGS = {np.dtype("float64"): b"d", np.dtype("float32"): b"f"}


@dataclass
class Checkpoint:
    """Named parameter arrays plus the header that recreates the model."""

    config: dict
    vocab_hashes: dict
    epoch: int
    best_val_ppl: float
    arrays: dict[str, np.ndarray] = field(default_factory=dict)

    def header(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "config": self.config,
            "vocab_hashes": self.vocab_hashes,
            "epoch": self.epoch,
            "best_val_ppl": self.best_val_ppl,
        }

    def verify_vocabs(self, hashes: dict) -> None:
        if hashes != self.vocab_hashes:
            raise VocabMismatchError(
                "checkpoint was trained with a different vocabulary "
                f"(stored {self.vocab_hashes}, supplied {hashes})")

    def save(self, path) -> None:
        """Write a temporary file beside ``path``, then rename it over ``path``."""
        header = json.dumps(self.header(), sort_keys=True).encode("utf-8")
        tmp = f"{os.fspath(path)}.tmp{os.getpid()}"
        try:
            with open(tmp, "wb") as f:
                f.write(MAGIC)
                f.write(struct.pack("<I", len(header)))
                f.write(header)
                f.write(struct.pack("<I", len(self.arrays)))
                for name, arr in self.arrays.items():
                    tag = _TAGS[arr.dtype]
                    encoded = name.encode("utf-8")
                    f.write(struct.pack("<H", len(encoded)))
                    f.write(encoded)
                    f.write(tag)
                    f.write(struct.pack("<B", arr.ndim))
                    f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
                    f.write(np.ascontiguousarray(arr, dtype=_DTYPES[tag]).tobytes())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):  # only when the write or rename failed
                os.remove(tmp)

    @staticmethod
    def load(path) -> "Checkpoint":
        """Read a checkpoint; a malformed or truncated file is a ConfigError."""
        with open(path, "rb") as f:
            end = os.fstat(f.fileno()).st_size

            def read(size: int) -> bytes:
                if f.tell() + size > end:
                    raise ConfigError(f"{path}: truncated checkpoint")
                return f.read(size)

            def unpack(fmt: str):
                return struct.unpack(fmt, read(struct.calcsize(fmt)))

            if read(4) != MAGIC:
                raise ConfigError(f"{path}: not a sublm checkpoint (bad magic)")
            try:
                header = json.loads(read(unpack("<I")[0]).decode("utf-8"))
                version = header.get("format_version") if isinstance(header, dict) else None
                if version != FORMAT_VERSION:
                    raise ConfigError(f"{path}: unsupported checkpoint version {version}")
                arrays = {}
                for _ in range(unpack("<I")[0]):
                    name = read(unpack("<H")[0]).decode("utf-8")
                    tag = read(1)
                    if tag not in _DTYPES:
                        raise ConfigError(f"{path}: unknown dtype tag {tag!r}")
                    shape = unpack(f"<{unpack('<B')[0]}Q")
                    data = read(math.prod(shape) * _DTYPES[tag].itemsize)
                    arrays[name] = np.frombuffer(data, _DTYPES[tag]).reshape(shape).copy()
                return Checkpoint(config=header["config"],
                                  vocab_hashes=header["vocab_hashes"],
                                  epoch=header["epoch"],
                                  best_val_ppl=header["best_val_ppl"],
                                  arrays=arrays)
            except (UnicodeDecodeError, json.JSONDecodeError, KeyError) as err:
                raise ConfigError(f"{path}: malformed checkpoint ({err!r})") from None
