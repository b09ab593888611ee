"""Flat `key = value` training configuration files.

Unknown keys are errors.  The ``scale`` preset fills in the training-loop
defaults (epochs, batch size, BPTT steps); explicit keys override it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError

SCALE_DEFAULTS = {
    # scale: (max_epochs, batch_size, bptt)
    "data-s": (50, 20, 70),
    "data-l": (25, 100, 35),
}


@dataclass
class TrainConfig:
    """Everything a training run needs, checkpointable as a dict."""

    # composition dimensions; each composer class in composition.py checks those it reads
    variant: str = "syl-concat"
    d_s: int = 0                 # subword embedding size
    d_w: int = 0                 # word-direct lookup width, syl-lstm hidden size
    d_hw: int = 0                # syl-concat highway width; syl-cnn's target bank width
    d_lm: int = 0                # word-LSTM width
    highway_layers: int = 2
    cnn_max_width: int = 0       # syl-cnn banks of widths 1..cnn_max_width,
    cnn_depth_unit: int = 0      # each with cnn_depth_unit * width filters

    scale: str = "data-s"
    max_epochs: int = 0          # 0: take the scale default
    batch_size: int = 0
    bptt: int = 0

    lr: float = 1.0
    clip_norm: float = 5.0
    dropout: float = 0.5
    init_range: float = 0.05
    seed: int = 0

    budget: int = 0              # 0: unchecked
    budget_tolerance: float = 0.05
    softmax: str = "full"        # full | sampled
    sample_fraction: float = 0.2
    precision: str = "f64"       # f64 | f32

    mode: str = "liang"          # liang | chars | external
    patterns: str = ""           # empty: bundled English patterns
    exceptions: str = ""
    overrides: str = ""
    word_cap: int = 0

    train: str = ""
    valid: str = ""
    test: str = ""
    vocab_dir: str = ""

    # sizes for `sublm params`, read only when no vocab_dir or train is named
    vocab_size: int = 0
    subword_vocab_size: int = 0
    max_subwords: int = 0

    def __post_init__(self):
        if self.scale not in SCALE_DEFAULTS:
            raise ConfigError(f"unknown scale {self.scale!r}; expected data-s or data-l")
        epochs, batch, bptt = SCALE_DEFAULTS[self.scale]
        self.max_epochs = self.max_epochs or epochs
        self.batch_size = self.batch_size or batch
        self.bptt = self.bptt or bptt
        if self.softmax not in ("full", "sampled"):
            raise ConfigError(f"softmax must be full or sampled, got {self.softmax!r}")
        if self.precision not in ("f64", "f32"):
            raise ConfigError(f"precision must be f64 or f32, got {self.precision!r}")
        for key in ("lr", "clip_norm", "init_range", "batch_size", "bptt",
                    "max_epochs", "budget_tolerance", "sample_fraction"):
            if not 0 < getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be positive and finite")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        for key in ("seed", "budget"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be non-negative, got {getattr(self, key)}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(values: dict) -> "TrainConfig":
        """A config from ``to_dict``'s mapping; a value whose type does not fit
        its key (a bool is no int, an int fits a float key) is a ConfigError."""
        if not isinstance(values, dict):
            raise ConfigError(f"config must be a mapping of keys to values, "
                              f"got {type(values).__name__}")
        unknown = values.keys() - _KINDS.keys()
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in values.items():
            kind = (int, float) if _KINDS[key] is float else _KINDS[key]
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"config key {key!r} must be {_KINDS[key].__name__}, "
                                  f"got {value!r}")
        return TrainConfig(**values)


# each field's value type, from its annotation
_KINDS = {f.name: {"int": int, "float": float, "str": str}[f.type]
         for f in dataclasses.fields(TrainConfig)}


def _coerce(name: str, kind, raw: str, lineno: int):
    try:
        if kind is not int:
            return kind(raw)
        try:
            return int(raw)  # exact however large
        except ValueError:
            value = float(raw)  # an integral float such as 5e6 is accepted
        if value.is_integer():
            return int(value)
    except ValueError:
        pass
    raise ConfigError(f"line {lineno}: cannot parse {name} = {raw!r} as {kind.__name__}")


def parse_config(text: str) -> TrainConfig:
    """Parse flat ``key = value`` text; ``#`` starts a comment."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KINDS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _coerce(key, _KINDS[key], val, lineno)
    return TrainConfig.from_dict(values)
