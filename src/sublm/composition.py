"""Word-embedding composition models.

Each composer packs a word's subword-vector sequence into a single word
vector: through a subword LSTM's last state, a bank of max-pooled tanh
convolutions, a (weighted) linear combination, or plain concatenation.  A
direct word-embedding variant without any subwords is the baseline.

All composers consume a batch as ``(word_ids, rows, lengths)`` where ``rows``
holds padded subword ids and ``lengths`` the real subword count per word.
Pad positions never leak into the output: recurrent, linear, and concat
variants mask them out entirely, and the CNN pools only over the first
``max(length, max filter width)`` positions of each row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor

VARIANTS = ("word-direct", "syl-lstm", "syl-cnn", "syl-sum", "syl-avg",
            "syl-avg-a", "syl-avg-b", "syl-concat")
LINEAR_VARIANTS = ("syl-sum", "syl-avg", "syl-avg-a", "syl-avg-b")


@dataclass
class CompositionConfig:
    """Dimensions of one composition variant.

    ``d_s``: subword embedding size.  ``d_w``: word vector size where it is a
    free choice (word-direct lookup width, syl-lstm hidden size).  ``d_hw``:
    highway width for syl-concat; derived for syl-cnn and forced to ``d_s``
    for the linear family.  ``cnn_banks`` overrides the default width/depth
    schedule ``[(l, c*l) for l in 1..L]``.
    """

    variant: str
    d_s: int = 0
    d_w: int = 0
    d_hw: int = 0
    highway_layers: int = 2
    cnn_max_width: int = 0
    cnn_depth_unit: int = 0
    cnn_banks: tuple[tuple[int, int], ...] = ()
    n: int = 0

    def banks(self) -> tuple[tuple[int, int], ...]:
        if self.cnn_banks:
            return tuple(self.cnn_banks)
        return tuple((l, self.cnn_depth_unit * l)
                     for l in range(1, self.cnn_max_width + 1))

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown composition variant {self.variant!r}")
        if self.variant == "word-direct":
            if self.d_w < 1:
                raise ConfigError("word-direct needs d_w >= 1")
            return
        if self.d_s < 1:
            raise ConfigError(f"{self.variant} needs d_s >= 1")
        if self.n < 1:
            raise ConfigError("n (max subwords per word) must be >= 1")
        if self.variant == "syl-lstm" and self.d_w < 1:
            raise ConfigError("syl-lstm needs d_w >= 1 (its hidden size)")
        if self.variant == "syl-cnn":
            banks = self.banks()
            if not banks:
                raise ConfigError("syl-cnn needs cnn_max_width/cnn_depth_unit or cnn_banks")
            widest = max(w for w, _ in banks)
            if widest > self.n:
                raise ConfigError(
                    f"filter width {widest} exceeds max subwords per word n={self.n}")
            derived = sum(k for _, k in banks)
            if self.d_hw and self.d_hw != derived:
                raise ConfigError(
                    f"syl-cnn d_hw={self.d_hw} but the filter banks give {derived}")
        if self.variant == "syl-concat" and self.d_hw < 1:
            raise ConfigError("syl-concat needs d_hw >= 1")

    def output_dim(self) -> int:
        self.validate()
        if self.variant == "word-direct":
            return self.d_w
        if self.variant == "syl-lstm":
            return self.d_w
        if self.variant == "syl-cnn":
            return sum(k for _, k in self.banks())
        if self.variant in LINEAR_VARIANTS:
            return self.d_s  # the combination lives in subword space
        return self.d_hw  # syl-concat, after projection


def uniform_init(rng: np.random.Generator, init_range: float):
    def init(shape):
        return rng.uniform(-init_range, init_range, size=shape)
    return init


def zeros_init(shape):
    return np.zeros(shape)


class HighwayStack:
    """Layers of y' = t * relu(W_H y + b_H) + (1 - t) * y, t = sigmoid(W_T y + b_T)."""

    def __init__(self, dim: int, layers: int, init, dtype, prefix: str = "hw"):
        self.dim = dim
        self.params: dict[str, Tensor] = {}
        self._layers = []
        for i in range(layers):
            w_t = Tensor(init((dim, dim)), dtype=dtype)
            b_t = Tensor(init((dim,)), dtype=dtype)
            w_h = Tensor(init((dim, dim)), dtype=dtype)
            b_h = Tensor(init((dim,)), dtype=dtype)
            self.params.update({f"{prefix}{i}.w_t": w_t, f"{prefix}{i}.b_t": b_t,
                                f"{prefix}{i}.w_h": w_h, f"{prefix}{i}.b_h": b_h})
            self._layers.append((w_t, b_t, w_h, b_h))

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.shape[1] != self.dim:
            raise ConfigError(
                f"highway stack of width {self.dim} got input of width {x.data.shape[1]}")
        y = x
        for w_t, b_t, w_h, b_h in self._layers:
            t = T.sigmoid(T.affine(y, w_t, b_t))
            h = T.relu(T.affine(y, w_h, b_h))
            y = T.add(T.mul(t, h), T.mul(1.0 - t, y))
        return y


class Composer:
    """Base for all composition variants; subclasses fill ``params``."""

    def __init__(self, config: CompositionConfig):
        config.validate()
        self.config = config
        self.out_dim = config.output_dim()
        self.params: dict[str, Tensor] = {}

    def __call__(self, word_ids: np.ndarray, rows: np.ndarray,
                 lengths: np.ndarray) -> Tensor:
        raise NotImplementedError


class WordDirect(Composer):
    """Baseline: direct row lookup in a word embedding matrix, no highway."""

    def __init__(self, config, vocab_size, subword_vocab_size, init, dtype):
        super().__init__(config)
        self.e_w = Tensor(init((vocab_size, config.d_w)), dtype=dtype)
        self.params["e_w"] = self.e_w

    def __call__(self, word_ids, rows, lengths):
        return T.lookup(self.e_w, np.asarray(word_ids))


class SylLSTM(Composer):
    """Run an LSTM over the subword vectors; the last real state is the word."""

    def __init__(self, config, vocab_size, subword_vocab_size, init, dtype):
        super().__init__(config)
        self.e_s = Tensor(init((subword_vocab_size, config.d_s)), dtype=dtype)
        self.cell = T.LSTMCellParams.create(config.d_s, config.d_w, init, dtype)
        self.params["e_s"] = self.e_s
        self.params.update({f"cell.{k}": v for k, v in self.cell.tensors().items()})

    def __call__(self, word_ids, rows, lengths):
        lengths = np.asarray(lengths)
        m, steps = len(lengths), int(lengths.max())
        x = T.lookup(self.e_s, np.asarray(rows)[:, :steps].T.reshape(-1))
        zeros = np.zeros((m, self.config.d_w), dtype=self.e_s.data.dtype)
        active = np.arange(steps)[:, None] < lengths
        out, _, _ = T.lstm(x, zeros, zeros, self.cell, steps, active)
        return T.slice_rows(out, (steps - 1) * m, steps * m)


class SylCNN(Composer):
    """Max-over-time tanh convolutions over subword vectors, then highway."""

    def __init__(self, config, vocab_size, subword_vocab_size, init, dtype):
        super().__init__(config)
        self.e_s = Tensor(init((subword_vocab_size, config.d_s)), dtype=dtype)
        self.params["e_s"] = self.e_s
        self.banks = []
        for width, depth in config.banks():
            w = Tensor(init((width * config.d_s, depth)), dtype=dtype)
            b = Tensor(init((depth,)), dtype=dtype)
            self.params[f"conv{width}.w"] = w
            self.params[f"conv{width}.b"] = b
            self.banks.append((width, w, b))
        self.highway = HighwayStack(self.out_dim, config.highway_layers, init, dtype)
        self.params.update(self.highway.params)
        self.max_width = max(w for w, _, _ in self.banks)

    def __call__(self, word_ids, rows, lengths):
        rows = np.asarray(rows)
        seq = T.lookup(self.e_s, rows)
        # pad vectors take part only when a word is shorter than the widest filter
        pooled = T.conv1d_max_over_time(seq, self.banks, np.asarray(lengths))
        return self.highway(pooled)


class SylLinear(Composer):
    """x = sum_t alpha_t(s_t) * s_t with flavor-specific weights, then highway.

    sum: alpha = 1.  avg: alpha = 1/n_w.  avg-a: alpha = softmax of a learned
    per-position score vector, renormalized over the word's real positions.
    avg-b: scores additionally depend on the subword type at each position.
    """

    def __init__(self, config, vocab_size, subword_vocab_size, init, dtype):
        super().__init__(config)
        self.e_s = Tensor(init((subword_vocab_size, config.d_s)), dtype=dtype)
        self.params["e_s"] = self.e_s
        if config.variant == "syl-avg-a":
            self.a = Tensor(init((config.n,)), dtype=dtype)
            self.params["a"] = self.a
        elif config.variant == "syl-avg-b":
            self.a_mat = Tensor(init((subword_vocab_size, config.n)), dtype=dtype)
            self.b_vec = Tensor(init((config.n,)), dtype=dtype)
            self.params["a_mat"] = self.a_mat
            self.params["b_vec"] = self.b_vec
        self.highway = HighwayStack(config.d_s, config.highway_layers, init, dtype)
        self.params.update(self.highway.params)

    def attention(self, rows: np.ndarray, lengths: np.ndarray):
        """The alpha weights for one batch: Tensor for learned flavors, array else."""
        rows = np.asarray(rows)
        lengths = np.asarray(lengths)
        m, width = rows.shape
        variant = self.config.variant
        if variant == "syl-sum":
            return (np.arange(width) < lengths[:, None]).astype(self.e_s.data.dtype)
        if variant == "syl-avg":
            mask = (np.arange(width) < lengths[:, None]).astype(self.e_s.data.dtype)
            return mask / lengths[:, None].astype(mask.dtype)
        if variant == "syl-avg-a":
            scores = T.tile_rows(T.slice_rows(self.a, 0, width), m)
            return T.masked_softmax(scores, lengths)
        scores = T.add(T.position_scores(self.a_mat, rows),
                       T.tile_rows(T.slice_rows(self.b_vec, 0, width), m))
        return T.masked_softmax(scores, lengths)

    def combine(self, rows, lengths) -> Tensor:
        """The linear combination before the highway stack."""
        seq = T.lookup(self.e_s, np.asarray(rows))
        return T.weighted_sum_time(seq, self.attention(rows, lengths))

    def __call__(self, word_ids, rows, lengths):
        return self.highway(self.combine(rows, lengths))


class SylConcat(Composer):
    """Concatenate subword vectors (zero vectors past the word's length),
    project to the highway width, then highway."""

    def __init__(self, config, vocab_size, subword_vocab_size, init, dtype):
        super().__init__(config)
        n, d_s, d_hw = config.n, config.d_s, config.d_hw
        self.e_s = Tensor(init((subword_vocab_size, d_s)), dtype=dtype)
        self.proj_w = Tensor(init((n * d_s, d_hw)), dtype=dtype)
        self.proj_b = Tensor(init((d_hw,)), dtype=dtype)
        self.params.update({"e_s": self.e_s, "proj.w": self.proj_w,
                            "proj.b": self.proj_b})
        self.highway = HighwayStack(d_hw, config.highway_layers, init, dtype)
        self.params.update(self.highway.params)

    def concat_vector(self, rows, lengths) -> Tensor:
        """The zero-padded concatenation before projection, width n*d_s."""
        rows = np.asarray(rows)
        m, width = rows.shape
        if width != self.config.n:
            raise ConfigError(
                f"syl-concat was built for n={self.config.n}, got rows of width {width}")
        seq = T.lookup(self.e_s, rows)
        mask = (np.arange(width) < np.asarray(lengths)[:, None])
        masked = T.mul_array(seq, mask[:, :, None].astype(seq.data.dtype))
        return T.reshape(masked, (m, width * self.config.d_s))

    def __call__(self, word_ids, rows, lengths):
        x = self.concat_vector(rows, lengths)
        return self.highway(T.affine(x, self.proj_w, self.proj_b))


def build_composer(config: CompositionConfig, vocab_size: int,
                   subword_vocab_size: int, init=zeros_init,
                   dtype=np.float64) -> Composer:
    config.validate()
    cls = {
        "word-direct": WordDirect,
        "syl-lstm": SylLSTM,
        "syl-cnn": SylCNN,
        "syl-concat": SylConcat,
    }.get(config.variant, SylLinear)
    return cls(config, vocab_size, subword_vocab_size, init, dtype)
