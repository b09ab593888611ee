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

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import TrainConfig
from .corpus import Vocabularies
from .errors import ConfigError
from .tensor import Tensor

@dataclass(frozen=True)
class ModelSizes:
    """Vocabulary-derived dimensions a model build needs."""

    vocab_size: int
    subword_vocab_size: int
    max_subwords: int

    @staticmethod
    def from_vocabs(vocabs: Vocabularies) -> "ModelSizes":
        return ModelSizes(vocabs.word_count, vocabs.subword_count, vocabs.n)

    @staticmethod
    def from_config(config: TrainConfig) -> "ModelSizes":
        if config.vocab_size < 1 or config.subword_vocab_size < 1:
            raise ConfigError(
                "vocab_size and subword_vocab_size are required when the "
                "config names no vocab_dir or train corpus")
        return ModelSizes(config.vocab_size, config.subword_vocab_size,
                          config.max_subwords)


def depth_unit(config: TrainConfig) -> int:
    """syl-cnn's filters per unit of width.

    Bank widths run 1..``cnn_max_width`` with ``cnn_depth_unit`` * width
    filters each (Kim et al., 2016).  Without an explicit unit, ``d_hw``
    picks the unit whose total width comes nearest, so a sampled d_hw
    reaches syl-cnn as the target width of its banks.
    """
    unit = config.cnn_depth_unit
    if not unit and config.cnn_max_width:
        triangle = config.cnn_max_width * (config.cnn_max_width + 1) // 2
        unit = max(1, round(config.d_hw / triangle))
    return unit


def uniform_init(rng: np.random.Generator, init_range: float, dtype=np.float64):
    """Initializer drawing U(-init_range, init_range) in float64, stored as ``dtype``."""
    def init(shape):
        return rng.uniform(-init_range, init_range, size=shape).astype(dtype, copy=False)
    return init


def zeros_init(shape, dtype=np.float64):
    return np.zeros(shape, dtype=dtype)


class HighwayStack:
    """Layers of y' = t * relu(W_H y + b_H) + (1 - t) * y, t = sigmoid(W_T y + b_T).

    The whole stack runs as one recorded op (:func:`tensor.highway`); with
    zero layers a call returns its input unchanged.
    """

    def __init__(self, dim: int, layers: int, init):
        self.dim = dim
        self.params: dict[str, Tensor] = {}
        self._layers = []
        for i in range(layers):
            w_t, b_t = Tensor(init((dim, dim))), Tensor(init((dim,)))
            w_h, b_h = Tensor(init((dim, dim))), Tensor(init((dim,)))
            self.params.update({f"hw{i}.w_t": w_t, f"hw{i}.b_t": b_t,
                                f"hw{i}.w_h": w_h, f"hw{i}.b_h": b_h})
            self._layers.append((w_t, b_t, w_h, b_h))

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.shape[1] != self.dim:
            raise ConfigError(
                f"highway stack of width {self.dim} got input of width {x.data.shape[1]}")
        return T.highway(x, self._layers)


class Composer:
    """Base for all composition variants; subclasses fill ``params``.

    Each variant's class checks the config keys it reads and passes the
    width of the word vector it composes as ``out_dim``.  The checks every
    variant shares run here: ``highway_layers >= 0`` and, for a variant that
    reads subwords, ``d_s >= 1`` and ``max_subwords`` (n) ``>= 1``.  Right
    after them the base draws such a variant's subword table ``e_s``, so it
    is the first draw and the first parameter of every subword variant.
    """

    uses_subwords = True

    def __init__(self, config: TrainConfig, sizes: ModelSizes, out_dim: int, init):
        if config.highway_layers < 0:
            raise ConfigError(f"highway_layers must be >= 0, got {config.highway_layers}")
        n = sizes.max_subwords
        if self.uses_subwords and config.d_s < 1:
            raise ConfigError(f"{config.variant} needs d_s >= 1")
        if self.uses_subwords and n < 1:
            raise ConfigError(f"{config.variant} needs max_subwords (n) >= 1, got {n}")
        self.config = config
        self.n = n
        self.out_dim = out_dim
        self.params: dict[str, Tensor] = {}
        if self.uses_subwords:
            self.e_s = Tensor(init((sizes.subword_vocab_size, config.d_s)))
            self.params["e_s"] = self.e_s

    def __call__(self, word_ids: np.ndarray, rows: np.ndarray,
                 lengths: np.ndarray) -> Tensor:
        raise NotImplementedError


class WordDirect(Composer):
    """Baseline: direct row lookup in a word embedding matrix, no highway."""

    uses_subwords = False

    def __init__(self, config, sizes, init):
        super().__init__(config, sizes, config.d_w, init)
        if config.d_w < 1:
            raise ConfigError("word-direct needs d_w >= 1")
        self.e_w = Tensor(init((sizes.vocab_size, config.d_w)))
        self.params["e_w"] = self.e_w

    def __call__(self, word_ids, rows, lengths):
        return T.lookup(self.e_w, np.asarray(word_ids))


class SylLSTM(Composer):
    """Run an LSTM over the subword vectors; the last real state is the word.

    The words run as packed sequences: sorted longest first, step k of the
    LSTM takes only the words that have a k-th subword, so no step is spent
    on padding.  Three recorded ops: the packed subword ``lookup``, the
    ``lstm`` and a ``lookup`` of each word's last real output row, in the
    caller's order.
    """

    def __init__(self, config, sizes, init):
        super().__init__(config, sizes, config.d_w, init)
        if config.d_w < 1:
            raise ConfigError("syl-lstm needs d_w >= 1 (its hidden size)")
        self.cell = T.lstm_params(config.d_s, config.d_w, init)
        self.params.update(zip(("cell.wx", "cell.wh", "cell.b"), self.cell))

    def __call__(self, word_ids, rows, lengths):
        lengths = np.asarray(lengths)
        m, steps = len(lengths), int(lengths.max())
        order = np.argsort(-lengths, kind="stable")
        live = np.arange(steps)[:, None] < lengths[order]  # (steps, m), sorted lanes
        counts = live.sum(axis=1)
        x = T.lookup(self.e_s, np.asarray(rows)[order][:, :steps].T[live])
        zeros = np.zeros((m, self.config.d_w), dtype=self.e_s.data.dtype)
        out, _, _ = T.lstm(x, zeros, zeros, self.cell, steps, counts)
        # word order[j] ends at packed row offset(lengths - 1) + j
        offsets = np.concatenate(([0], np.cumsum(counts)))
        last = np.empty(m, dtype=np.int64)
        last[order] = offsets[lengths[order] - 1] + np.arange(m)
        return T.lookup(out, last)


class SylCNN(Composer):
    """Max-over-time tanh convolutions over subword vectors, then highway.
    The word vector is the banks' total depth, which a nonzero ``d_hw`` must
    equal when ``cnn_depth_unit`` is explicit."""

    def __init__(self, config, sizes, init):
        if config.cnn_max_width < 1 or config.cnn_depth_unit < 0 or config.d_hw < 0:
            raise ConfigError("syl-cnn needs cnn_max_width >= 1, cnn_depth_unit "
                              ">= 0 and d_hw >= 0")
        unit, widths = depth_unit(config), config.cnn_max_width
        total = unit * widths * (widths + 1) // 2  # the banks' depths, summed
        if config.cnn_depth_unit and config.d_hw and config.d_hw != total:
            raise ConfigError(
                f"syl-cnn d_hw={config.d_hw} but the filter banks give {total}")
        super().__init__(config, sizes, total, init)
        if widths > self.n:
            raise ConfigError(f"filter width {widths} exceeds max subwords per word n={self.n}")
        self.banks = []
        for width in range(1, widths + 1):
            w = Tensor(init((width * config.d_s, unit * width)))
            b = Tensor(init((unit * width,)))
            self.params[f"conv{width}.w"] = w
            self.params[f"conv{width}.b"] = b
            self.banks.append((width, w, b))
        self.highway = HighwayStack(self.out_dim, config.highway_layers, init)
        self.params.update(self.highway.params)

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
    The learned flavors pool with :func:`tensor.attention_pool`, the fixed
    ones with :func:`tensor.weighted_sum_time`.
    """

    def __init__(self, config, sizes, init):
        super().__init__(config, sizes, config.d_s, init)
        if config.variant == "syl-avg-a":
            self.a = Tensor(init((self.n,)))
            self.params["a"] = self.a
        elif config.variant == "syl-avg-b":
            self.a_mat = Tensor(init((sizes.subword_vocab_size, self.n)))
            self.b_vec = Tensor(init((self.n,)))
            self.params["a_mat"] = self.a_mat
            self.params["b_vec"] = self.b_vec
        self.highway = HighwayStack(config.d_s, config.highway_layers, init)
        self.params.update(self.highway.params)

    def combine(self, rows, lengths) -> Tensor:
        """The linear combination before the highway stack; ``meta`` holds
        the (m, width) alpha weights."""
        rows, lengths = np.asarray(rows), np.asarray(lengths)
        seq = T.lookup(self.e_s, rows)
        if self.config.variant == "syl-avg-a":
            return T.attention_pool(seq, lengths, self.a)
        if self.config.variant == "syl-avg-b":
            return T.attention_pool(seq, lengths, self.b_vec, self.a_mat, rows)
        alpha = (np.arange(rows.shape[1]) < lengths[:, None]).astype(self.e_s.data.dtype)
        if self.config.variant == "syl-avg":
            alpha = alpha / lengths[:, None].astype(alpha.dtype)
        return T.weighted_sum_time(seq, alpha)

    def __call__(self, word_ids, rows, lengths):
        return self.highway(self.combine(rows, lengths))


class SylConcat(Composer):
    """Concatenate subword vectors (zero vectors past the word's length),
    project to the highway width, then highway: three recorded ops,
    :func:`tensor.masked_concat`, ``affine`` and :func:`tensor.highway`."""

    def __init__(self, config, sizes, init):
        super().__init__(config, sizes, config.d_hw, init)
        if config.d_hw < 1:
            raise ConfigError("syl-concat needs d_hw >= 1")
        n, d_s, d_hw = self.n, config.d_s, config.d_hw
        self.proj_w = Tensor(init((n * d_s, d_hw)))
        self.proj_b = Tensor(init((d_hw,)))
        self.params.update({"proj.w": self.proj_w, "proj.b": self.proj_b})
        self.highway = HighwayStack(d_hw, config.highway_layers, init)
        self.params.update(self.highway.params)

    def concat_vector(self, rows, lengths) -> Tensor:
        """The zero-padded concatenation before projection, width n*d_s."""
        width = np.shape(rows)[1]
        if width != self.n:
            raise ConfigError(
                f"syl-concat was built for n={self.n}, got rows of width {width}")
        return T.masked_concat(self.e_s, rows, lengths)

    def __call__(self, word_ids, rows, lengths):
        x = self.concat_vector(rows, lengths)
        return self.highway(T.affine(x, self.proj_w, self.proj_b))


COMPOSERS = {"word-direct": WordDirect, "syl-lstm": SylLSTM, "syl-cnn": SylCNN,
             "syl-sum": SylLinear, "syl-avg": SylLinear, "syl-avg-a": SylLinear,
             "syl-avg-b": SylLinear, "syl-concat": SylConcat}  # every variant name


def build_composer(config: TrainConfig, sizes: ModelSizes, init=zeros_init) -> Composer:
    if config.variant not in COMPOSERS:
        raise ConfigError(f"unknown composition variant {config.variant!r}")
    return COMPOSERS[config.variant](config, sizes, init)
