"""The optimization recipe: SGD with gradient clipping and lr halving,
parameter budgeting, and random hyperparameter search under a budget.

Training is deterministic: one seeded rng drives initialization, dropout
masks, and softmax sampling, so a fixed (seed, config, data) triple yields a
bitwise-identical checkpoint.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .checkpoint import Checkpoint
from .composition import CompositionConfig, build_composer, uniform_init
from .config import TrainConfig
from .corpus import EncodedCorpus, Vocabularies, batch_stream
from .errors import BudgetError, ConfigError, NonFiniteGradientError
from .lm import (LanguageModel, LogUniformSampler, _ppl, perplexity,
                 sample_count_for)

log = logging.getLogger("sublm")


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
                "vocab_size and subword_vocab_size are required when no "
                "vocabulary files are given")
        return ModelSizes(config.vocab_size, config.subword_vocab_size,
                          max(config.max_subwords, 1))


def composition_config(config: TrainConfig, sizes: ModelSizes) -> CompositionConfig:
    """Derive the composition dimensions from a training config.

    The linear family composes in subword space, so its highway width is
    d_s regardless of any sampled d_hw.  For syl-cnn an explicit depth unit
    wins; otherwise the nearest depth unit reproducing d_hw is used.
    """
    variant = config.variant
    depth_unit = config.cnn_depth_unit
    if variant == "syl-cnn" and not depth_unit:
        if not config.cnn_max_width:
            raise ConfigError("syl-cnn needs cnn_max_width")
        triangle = config.cnn_max_width * (config.cnn_max_width + 1) // 2
        depth_unit = max(1, round(config.d_hw / triangle))
    d_hw = config.d_s if variant in ("syl-sum", "syl-avg", "syl-avg-a", "syl-avg-b") \
        else config.d_hw
    return CompositionConfig(
        variant=variant, d_s=config.d_s, d_w=config.d_w, d_hw=d_hw,
        highway_layers=config.highway_layers,
        cnn_max_width=config.cnn_max_width, cnn_depth_unit=depth_unit,
        n=sizes.max_subwords)


def build_model(config: TrainConfig, sizes: ModelSizes,
                rng: np.random.Generator | None = None) -> LanguageModel:
    """Build the model; random uniform init when an rng is given, zeros else.

    Both LSTMs' forget biases are set to 1 regardless of the init.
    """
    init = np.zeros if rng is None else uniform_init(rng, config.init_range)
    dtype = np.float64 if config.precision == "f64" else np.float32
    comp_cfg = composition_config(config, sizes)
    if config.variant == "syl-cnn" and comp_cfg.cnn_max_width > sizes.max_subwords:
        raise ConfigError(
            f"cnn_max_width {comp_cfg.cnn_max_width} exceeds the maximum "
            f"subwords per word ({sizes.max_subwords})")
    composer = build_composer(comp_cfg, sizes.vocab_size,
                              sizes.subword_vocab_size, init=init, dtype=dtype)
    if config.d_lm < 1:
        raise ConfigError("d_lm must be positive")
    return LanguageModel(composer, d_lm=config.d_lm, vocab_size=sizes.vocab_size,
                         dropout_rate=config.dropout, init=init, dtype=dtype)


def count_parameters(model: LanguageModel) -> int:
    """Exact count of trainable scalars."""
    return sum(p.data.size for p in model.params.values())


def check_budget(config: TrainConfig, count: int) -> None:
    if not config.budget:
        return
    tol = config.budget_tolerance
    lo, hi = config.budget * (1 - tol), config.budget * (1 + tol)
    if not lo <= count <= hi:
        raise BudgetError(
            f"model has {count} parameters, outside the budget band "
            f"[{lo:.0f}, {hi:.0f}] ({config.budget} +/- {tol:.0%})", count=count)


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float = 5.0) -> float:
    """Scale all gradients in place so their global L2 norm is <= max_norm.

    Returns the scale factor applied (1.0 when under the limit).  A NaN or
    infinite gradient aborts, naming the offending parameter.
    """
    total = 0.0
    for name, g in grads.items():
        s = float(np.dot(g.reshape(-1), g.reshape(-1)))
        if not math.isfinite(s):
            raise NonFiniteGradientError(name)
        total += s
    norm = math.sqrt(total)
    if norm <= max_norm:
        return 1.0
    scale = max_norm / norm
    for g in grads.values():
        g *= scale
    return scale


def next_lr(lr: float, val_ppl: float, best_ppl: float) -> float:
    """Halve when validation perplexity fails to improve on the best so far.

    A NaN perplexity counts as stagnation.
    """
    return lr if val_ppl < best_ppl else lr * 0.5


def _checkpoint(config, vocabs, epoch, best_val, arrays) -> Checkpoint:
    return Checkpoint(config=config.to_dict(), vocab_hashes=vocabs.hashes(),
                      epoch=epoch, best_val_ppl=best_val,
                      arrays={k: v.copy() for k, v in arrays.items()})


def train(config: TrainConfig, vocabs: Vocabularies, corpus: EncodedCorpus,
          log_line=None) -> Checkpoint:
    """Run the full recipe and return the best-on-validation checkpoint.

    Per epoch one `epoch<TAB>lr<TAB>train_ppl<TAB>val_ppl` line goes to
    ``log_line``.  On divergence (non-finite loss or gradient) training
    aborts and the last good checkpoint is returned.
    """
    sizes = ModelSizes.from_vocabs(vocabs)
    rng = np.random.default_rng(config.seed)
    model = build_model(config, sizes, rng=rng)
    check_budget(config, count_parameters(model))

    train_stream = corpus.streams["train"]
    valid_stream = corpus.streams.get("valid")
    sampler = None
    sample_count = 0
    if config.softmax == "sampled":
        sampler = LogUniformSampler(vocabs.word_freq)
        sample_count = sample_count_for(vocabs.word_count, config.sample_fraction)

    lr = config.lr
    best_val = math.inf
    best_epoch = 0
    best_arrays = {k: v.data.copy() for k, v in model.params.items()}

    for epoch in range(1, config.max_epochs + 1):
        state = model.zero_state(config.batch_size)
        total_nll = 0.0
        total_tokens = 0
        try:
            for inputs, targets, carry in batch_stream(train_stream,
                                                       config.batch_size,
                                                       config.bptt):
                if not carry:
                    state = model.zero_state(config.batch_size)
                steps = inputs.shape[1]
                with T.Graph(rng=rng):
                    loss, state = model.window_nll(
                        inputs, targets, corpus, state, mode="train", rng=rng,
                        sampler=sampler, sample_count=sample_count)
                    if not math.isfinite(loss.item()):
                        raise NonFiniteGradientError("loss")
                    # gradients of the time-summed, batch-averaged loss,
                    # as the clipping threshold expects
                    T.backward(T.mul_scalar(loss, float(steps)))
                grads = {name: p.grad for name, p in model.params.items()
                         if p.grad is not None}
                clip_global_norm(grads, config.clip_norm)
                for name, p in model.params.items():
                    if p.grad is not None:
                        p.data -= lr * p.grad
                    p.grad = None
                total_nll += loss.item() * inputs.size
                total_tokens += inputs.size
                del loss  # frees this window's recording before the next forward pass
        except NonFiniteGradientError as err:
            log.warning("training diverged at epoch %d (%s); "
                        "returning the last good checkpoint", epoch, err)
            return _checkpoint(config, vocabs, best_epoch, best_val, best_arrays)

        train_ppl = _ppl(total_nll, total_tokens)
        if valid_stream is not None:
            val_ppl = perplexity(model, valid_stream, corpus, steps=config.bptt)
        else:
            val_ppl = train_ppl
        if log_line is not None:
            log_line(f"{epoch}\t{lr:g}\t{train_ppl:.3f}\t{val_ppl:.3f}")
        new_lr = next_lr(lr, val_ppl, best_val)
        if val_ppl < best_val:
            best_val = val_ppl
            best_epoch = epoch
            best_arrays = {k: v.data.copy() for k, v in model.params.items()}
        lr = new_lr

    return _checkpoint(config, vocabs, best_epoch, best_val, best_arrays)


def model_from_checkpoint(ckpt: Checkpoint, sizes: ModelSizes):
    """Rebuild the model a checkpoint describes and load its arrays."""
    config = TrainConfig.from_dict(ckpt.config)
    model = build_model(config, sizes)
    missing = set(model.params) ^ set(ckpt.arrays)
    if missing:
        raise ConfigError(f"checkpoint arrays do not match the model: {sorted(missing)}")
    for name, arr in ckpt.arrays.items():
        p = model.params[name]
        if p.data.shape != arr.shape:
            raise ConfigError(f"checkpoint array {name} has shape {arr.shape}, "
                              f"model expects {p.data.shape}")
        p.data = arr.astype(p.data.dtype, copy=True)
    return model, config


# ---------------------------------------------------------------------------
# random hyperparameter search under a parameter budget


D_S_RANGE = (20, 650)
D_HW_RANGE = (160, 2000)
D_LM_RANGE = (300, 2000)


def sample_dims(rng: np.random.Generator) -> tuple[int, int, int]:
    """One draw of (d_s, d_hw, d_lm): d_s uniform, the others log-uniform."""
    d_s = int(round(rng.uniform(*D_S_RANGE)))
    d_hw = int(round(math.exp(rng.uniform(*map(math.log, D_HW_RANGE)))))
    d_lm = int(round(math.exp(rng.uniform(*map(math.log, D_LM_RANGE)))))
    return d_s, d_hw, d_lm


@dataclass
class Trial:
    d_s: int
    d_hw: int
    d_lm: int
    param_count: int
    seed: int
    val_ppl: float = math.inf

    def config(self, base: TrainConfig) -> TrainConfig:
        return dataclasses.replace(base, d_s=self.d_s, d_hw=self.d_hw,
                                   d_lm=self.d_lm, seed=self.seed)


def propose_trials(base: TrainConfig, budget: int, trials: int,
                   sizes: ModelSizes, seed: int,
                   tolerance: float | None = None,
                   max_draws: int | None = None) -> list[Trial]:
    """Rejection-sample dimension draws until ``trials`` fit the budget.

    Draws violating d_s < d_lm or the budget band are rejected.  Raises when
    the draw allowance is exhausted with nothing accepted.
    """
    tol = base.budget_tolerance if tolerance is None else tolerance
    rng = np.random.default_rng(seed)
    accepted: list[Trial] = []
    max_draws = max_draws or max(1000, 400 * trials)
    for draw in range(max_draws):
        d_s, d_hw, d_lm = sample_dims(rng)
        if d_s >= d_lm:
            continue
        candidate = dataclasses.replace(
            base, d_s=d_s, d_hw=d_hw, d_lm=d_lm,
            budget=budget, budget_tolerance=tol)
        try:
            count = count_parameters(build_model(candidate, sizes))
            check_budget(candidate, count)
        except (BudgetError, ConfigError):
            continue
        trial_seed = int(np.random.SeedSequence([seed, len(accepted)])
                         .generate_state(1)[0])
        accepted.append(Trial(d_s, d_hw, d_lm, count, trial_seed))
        if len(accepted) == trials:
            return accepted
    if not accepted:
        raise ConfigError(
            f"random search found no configuration inside the {budget} "
            f"(+/- {tol:.0%}) budget after {max_draws} draws")
    log.warning("random search accepted only %d of %d requested trials",
                len(accepted), trials)
    return accepted


def random_search(base: TrainConfig, budget: int, trials: int,
                  vocabs: Vocabularies, corpus: EncodedCorpus, seed: int,
                  tolerance: float | None = None, log_line=None) -> list[Trial]:
    """Train every accepted draw and rank the trials by validation PPL."""
    sizes = ModelSizes.from_vocabs(vocabs)
    accepted = propose_trials(base, budget, trials, sizes, seed, tolerance)
    for i, trial in enumerate(accepted):
        config = trial.config(base)
        config = dataclasses.replace(config, budget=budget,
                                     budget_tolerance=tolerance
                                     if tolerance is not None
                                     else base.budget_tolerance)
        ckpt = train(config, vocabs, corpus,
                     log_line=(lambda s: log_line(f"trial {i}\t{s}"))
                     if log_line else None)
        trial.val_ppl = ckpt.best_val_ppl
    return sorted(accepted, key=lambda t: (t.val_ppl, t.d_s))
